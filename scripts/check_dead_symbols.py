#!/usr/bin/env python3
"""Dead- and test-only-definition lint (CI-enforced).

Two rules over every function, class and method under ``src/repro``:

* **dead** — the name occurs nowhere else in the repository: not in
  another module, a test, a bench, an example, ``perfbench/``, a
  script, the docs or the CI workflow.  The check is lexical
  (whole-word occurrences across every text file of ``CORPUS``), so a
  name shared by a live and a dead definition passes.
* **test-only** — no non-test code reaches it.  Non-test code is the
  Python under ``CODE`` outside any ``tests`` directory.  A definition
  is reached when code in another module names it, or when code in its
  own module that is itself reached (module-level statements, or the
  body of a reached definition) names it.  Names are identifiers,
  attributes, imported names and the words of string constants
  (``perfbench/spans.py`` names entry points as strings).  Docstrings,
  comments, docs, type annotations and a package ``__init__``'s
  re-exports (its imports and ``__all__``) are not callers.  A dunder
  method is reached with its class.

A test-only definition must be on ``ALLOWLIST``, one
``module:qualname reason`` per line, the reason naming the paper
section, ROADMAP item or test oracle it serves.  An entry also covers
the definitions nested in it and those only it reaches.  An entry that
no longer names a test-only definition — deleted, or it gained a
non-test caller — fails too, so the list can only shrink.  The
allowlist's own file is not a reference for either rule.

Reported as file:line so the CI annotation is clickable.  Exits
non-zero when anything is listed.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Where a reference may live (the dead rule).
CORPUS = ("src", "tests", "benchmarks", "examples", "perfbench", "scripts",
          "docs", ".github")
#: Where a non-test caller may live (the test-only rule).
CODE = ("src", "benchmarks", "examples", "perfbench", "scripts")
#: The test-only allowlist, relative to ``ROOT``.
ALLOWLIST = "scripts/test_only_symbols.txt"
#: Build and run leftovers (see .gitignore), never references.
SKIPPED_DIRS = {"__pycache__", ".pytest_cache", ".hypothesis", "out"}

WORD = re.compile(r"\w+")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _files(tops, pattern="*"):
    for top in tops:
        for path in sorted((ROOT / top).rglob(pattern)):
            if (path.is_file() and not SKIPPED_DIRS & set(path.parts)
                    and path != ROOT / ALLOWLIST):
                yield path


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, (ast.Module, *DEFS)) and bool(node.body)
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str))


def word_counts() -> Counter:
    """Whole-word occurrence count of every identifier-like token."""
    counts: Counter = Counter()
    for path in _files(CORPUS):
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        counts.update(WORD.findall(text))
    return counts


class Module:
    """One Python file: its definitions, and the names its code uses
    keyed by the innermost definition (``None``: module level) each use
    sits in."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.defs = []                      # (node, qualname, enclosing)
        self.uses = defaultdict(set)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        self._init = path.name == "__init__.py"
        self._docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                            if _is_docstring(node)}
        self._visit(tree, None, "")

    @property
    def key(self) -> str:
        return ".".join(self.path.relative_to(SRC.parent).with_suffix("").parts)

    def names(self) -> set:
        return set().union(*self.uses.values())

    def _visit(self, node, scope, prefix: str) -> None:
        for child in _children(node):
            if isinstance(child, DEFS):
                qualname = prefix + child.name
                self.defs.append((child, qualname, scope))
                self._visit(child, child, qualname + ".")
                continue
            if _is_reexport(child, self._init):
                continue
            names = self.uses[scope]
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.alias):
                names.update(child.name.split("."))
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str)
                  and id(child) not in self._docstrings):
                names.update(WORD.findall(child.value))
            self._visit(child, scope, prefix)

    def reached(self, outside, roots=frozenset()) -> set:
        """Definitions reached from the ``outside`` names, module-level
        code and the ``roots`` (a fixed point over definition bodies)."""
        by_name, nested = defaultdict(list), defaultdict(list)
        for node, _, scope in self.defs:
            if _is_dunder(node.name):
                nested[scope].append(node)
            else:
                by_name[node.name].append(node)
        reached = {node for node, _, _ in self.defs if node in roots
                   or node.name in outside and not _is_dunder(node.name)}
        work = [None, *reached]
        while work:
            scope = work.pop()
            targets = [d for name in self.uses[scope] for d in by_name[name]]
            targets += nested[scope]
            for node in targets:
                if node not in reached:
                    reached.add(node)
                    work.append(node)
        return reached


def _children(node: ast.AST):
    """Child nodes, less type annotations (a hint is not a caller)."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child


def _is_reexport(node: ast.AST, in_init: bool) -> bool:
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets)
    return in_init and isinstance(node, (ast.Import, ast.ImportFrom))


def read_allowlist() -> dict:
    """``{"module:qualname": (line number, reason)}``."""
    path = ROOT / ALLOWLIST
    entries = {}
    if path.exists():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            key, _, reason = line.strip().partition(" ")
            if key and not key.startswith("#"):
                entries[key] = (lineno, reason.strip())
    return entries


def check() -> int:
    counts = word_counts()
    allowlist = read_allowlist()
    code = [Module(path) for path in _files(CODE, "*.py")
            if "tests" not in path.relative_to(ROOT).parts]
    naming = Counter(name for module in code for name in module.names())
    problems = []
    test_only = set()
    for module in code:
        if SRC not in module.path.parents:
            continue
        own = module.names()
        outside = {name for name, n in naming.items() if n > (name in own)}
        reached = module.reached(outside)
        listed = set()
        for node, qualname, _ in module.defs:
            key = f"{module.key}:{qualname}"
            if key in allowlist and node not in reached:
                test_only.add(key)
                listed.update(ast.walk(node))
        covered = module.reached(outside, roots=listed)
        for node, qualname, _ in module.defs:
            where = f"{module.path.relative_to(ROOT)}:{node.lineno}"
            if _is_dunder(node.name):
                continue
            if counts[node.name] == 1:
                problems.append(f"{where}: {node.name} is defined and "
                                "never referenced")
            elif node not in covered:
                problems.append(f"{where}: {qualname} is reached only from "
                                f"tests or prose (delete it, or list it in "
                                f"{ALLOWLIST} with a reason)")
    for key, (lineno, reason) in sorted(allowlist.items()):
        if key not in test_only:
            problems.append(f"{ALLOWLIST}:{lineno}: {key} is no longer "
                            "test-only (deleted, or it gained a non-test "
                            "caller): remove the entry")
        elif not reason:
            problems.append(f"{ALLOWLIST}:{lineno}: {key} needs a reason")
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} problem(s)")
        return 1
    print(f"no dead definitions; no test-only definitions beyond the "
          f"{len(test_only)} allowlist entries")
    return 0


if __name__ == "__main__":
    sys.exit(check())
