#!/usr/bin/env python3
"""Layering lint for the protocol stack (CI-enforced).

The dependency contract that keeps ``repro.protocol`` paradigm-agnostic:

* ``repro.protocol`` must not import any paradigm package
  (``repro.blockchain``, ``repro.dag``, ``repro.consensus``) or anything
  built on top of the stack (``repro.core``, ``repro.check``,
  ``repro.faults``);
* the paradigm packages must not import each other —
  ``repro.blockchain``, ``repro.dag`` and ``repro.consensus`` (the BFT
  engine) are mutually independent peers on the shared stack;
* ``repro.net`` and ``repro.sim`` (the fabric below the stack) must not
  import ``repro.protocol`` or any paradigm package — with one carve-out:
  ``repro.protocol.interfaces``, the contract module that defines the
  :class:`MessagePlane` seam the fabric implements.  The interface module
  is the *only* protocol surface the fabric may see; reaching any other
  ``repro.protocol`` submodule from below is still a violation;
* ``numpy`` and ``networkx`` load only with the scale tier and the
  random topologies: the four scale-tier modules in ``SCALE_TIER`` may
  import them at module level, and every other module only inside the
  function that needs them, so the paper's small exact deployments
  never load either.

Violations are reported with file:line so the CI annotation is
clickable.  Exits non-zero on any violation.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: package -> import prefixes it must never reach (directly)
FORBIDDEN = {
    "repro/protocol": (
        "repro.blockchain",
        "repro.dag",
        "repro.consensus",
        "repro.core",
        "repro.check",
        "repro.faults",
    ),
    "repro/blockchain": ("repro.dag", "repro.consensus"),
    "repro/dag": ("repro.blockchain", "repro.consensus"),
    "repro/consensus": (
        "repro.blockchain",
        "repro.dag",
        "repro.core",
        "repro.check",
        "repro.faults",
    ),
    "repro/net": (
        "repro.protocol",
        "repro.blockchain",
        "repro.dag",
        "repro.consensus",
    ),
    "repro/sim": (
        "repro.protocol",
        "repro.blockchain",
        "repro.dag",
        "repro.consensus",
    ),
}

#: package -> exact module names exempt from FORBIDDEN: the fabric may
#: import the MessagePlane contract (and nothing else) from the stack.
ALLOWED = {
    "repro/net": ("repro.protocol.interfaces",),
    "repro/sim": ("repro.protocol.interfaces",),
}


#: third-party libraries only the scale tier may import at module level
SCALE_LIBRARIES = ("numpy", "networkx")

#: the modules (relative to ``SRC``) allowed to import them at module level
SCALE_TIER = (
    "repro/net/aggregate.py",
    "repro/net/sharded_plane.py",
    "repro/sim/sharded.py",
    "repro/scaling/channels.py",
)


def imported_names(tree: ast.AST) -> list:
    """(lineno, module, in_function) for every import in ``tree``."""
    found = []
    pending = [(tree, False)]
    while pending:
        parent, in_function = pending.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.Import):
                found.extend((node.lineno, alias.name, in_function)
                             for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                found.append((node.lineno, node.module, in_function))
            pending.append((node, in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))))
    return sorted(found)


def check() -> int:
    violations = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        package = "/".join(relative.split("/")[:2])
        banned = FORBIDDEN.get(package, ())
        allowed = ALLOWED.get(package, ())
        where = path.relative_to(SRC.parent)
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module, in_function in imported_names(tree):
            if module not in allowed and any(
                    module == prefix or module.startswith(prefix + ".")
                    for prefix in banned):
                violations.append(
                    f"{where}:{lineno}: "
                    f"{package.replace('/', '.')} must not import {module}")
            if (module.split(".")[0] in SCALE_LIBRARIES and not in_function
                    and relative not in SCALE_TIER):
                violations.append(
                    f"{where}:{lineno}: "
                    f"{module} may be imported at module level only by "
                    f"the scale tier; import it inside the function")
    for violation in violations:
        print(violation)
    if violations:
        print(f"\n{len(violations)} layering violation(s)")
        return 1
    print("layering ok")
    return 0


if __name__ == "__main__":
    sys.exit(check())
