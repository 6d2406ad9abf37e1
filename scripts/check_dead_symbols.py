#!/usr/bin/env python3
"""Dead-definition lint (CI-enforced).

A function, class or method defined under ``src/repro`` whose name
occurs nowhere else in the repository — not in another module, a test,
a bench, an example, ``perfbench/``, a script, the docs or the CI
workflow — has no caller and no reader: it is listed, and the lint
fails.  The check is lexical (whole-word occurrences of the name across
every text file of the directories in ``CORPUS``), so it is
conservative: a name shared by a live and a dead definition passes.
Dunder methods are exempt (the interpreter calls them).

Reported as file:line so the CI annotation is clickable.  Exits
non-zero when anything is listed.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Where a reference may live.
CORPUS = ("src", "tests", "benchmarks", "examples", "perfbench", "scripts",
          "docs", ".github")
#: Build and run leftovers (see .gitignore), never references.
SKIPPED_DIRS = {"__pycache__", ".pytest_cache", ".hypothesis", "out"}

WORD = re.compile(r"\w+")


def word_counts() -> Counter:
    """Whole-word occurrence count of every identifier-like token."""
    counts: Counter = Counter()
    for top in CORPUS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or SKIPPED_DIRS & set(path.parts):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            counts.update(WORD.findall(text))
    return counts


def definitions():
    """(path, lineno, name) of every def / class under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield path, node.lineno, name


def check() -> int:
    counts = word_counts()
    dead = [(path, lineno, name) for path, lineno, name in definitions()
            if counts[name] == 1]
    for path, lineno, name in dead:
        print(f"{path.relative_to(ROOT)}:{lineno}: {name} is defined "
              "and never referenced")
    if dead:
        print(f"\n{len(dead)} dead definition(s)")
        return 1
    print("no dead definitions")
    return 0


if __name__ == "__main__":
    sys.exit(check())
