"""The dead- and test-only-definition lint, run on a small tree.

``scripts/check_dead_symbols.py`` reads the repository under its
``ROOT`` / ``SRC``; each test builds a tree in ``tmp_path``, points the
script there and checks the exit code and the line it prints.
"""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from textwrap import dedent

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_dead_symbols.py"

CLEAN = {path: dedent(text).lstrip() for path, text in {
    "src/repro/__init__.py": "from repro.core import live\n",
    "src/repro/core.py": '''
        """``probe`` named in a docstring is prose, not a caller."""


        def live():
            return _helper()


        def _helper():
            return 1


        def listed():
            return _listed_helper()


        def _listed_helper():
            return 2


        class Engine:
            def __init__(self):
                self.ready = True

            def step(self):
                return live()
        ''',
    "benchmarks/bench_core.py": '''
        from repro.core import Engine

        # Named as a string, the way perfbench's span table names entry
        # points.
        ENTRY_POINTS = ("Engine.step",)
        Engine()
        ''',
    "tests/test_core.py": '''
        from repro.core import listed


        def test_listed():
            assert listed() == 2
        ''',
    "scripts/test_only_symbols.txt": (
        "# comment\nrepro.core:listed § II-A: a paper mechanism\n"),
}.items()}


def run_lint(tmp_path, monkeypatch, capsys, changes=()):
    files = dict(CLEAN)
    for path, edit in changes:
        files[path] = edit(files.get(path, ""))
    for path, text in files.items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    spec = spec_from_file_location("check_dead_symbols", SCRIPT)
    lint = module_from_spec(spec)
    spec.loader.exec_module(lint)
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "SRC", tmp_path / "src" / "repro")
    code = lint.check()
    return code, capsys.readouterr().out


def test_clean_tree_passes(tmp_path, monkeypatch, capsys):
    code, out = run_lint(tmp_path, monkeypatch, capsys)
    assert code == 0, out
    assert "beyond the 1 allowlist entries" in out


@pytest.mark.parametrize("changes, expected", [
    pytest.param(
        [("src/repro/core.py", lambda t: t + "\n\ndef unnamed():\n    pass\n")],
        "src/repro/core.py:28: unnamed is defined and never referenced",
        id="dead-def"),
    pytest.param(
        [("src/repro/core.py", lambda t: t + "\n\ndef probe():\n    pass\n"),
         ("tests/test_core.py", lambda t: t + "\nfrom repro.core import probe\n")],
        # The module docstring names ``probe`` too: prose is no caller.
        "src/repro/core.py:28: probe is reached only from tests or prose",
        id="unlisted-test-only-def"),
    pytest.param(
        [("benchmarks/bench_core.py",
          lambda t: t + "\nfrom repro.core import listed\nlisted()\n")],
        "repro.core:listed is no longer test-only",
        id="listed-name-gained-a-bench-caller"),
    pytest.param(
        [("src/repro/core.py", lambda t: t.replace("def listed", "def renamed")),
         ("tests/test_core.py", lambda t: t.replace("listed", "renamed"))],
        "repro.core:listed is no longer test-only",
        id="listed-name-deleted"),
    pytest.param(
        [("scripts/test_only_symbols.txt",
          lambda t: t.replace(" § II-A: a paper mechanism", ""))],
        "repro.core:listed needs a reason",
        id="entry-without-reason"),
])
def test_each_failure_mode_exits_one(tmp_path, monkeypatch, capsys,
                                     changes, expected):
    code, out = run_lint(tmp_path, monkeypatch, capsys, changes)
    assert code == 1
    assert expected in out


def test_reexport_and_method_of_a_live_class_are_not_callers(
        tmp_path, monkeypatch, capsys):
    """A package ``__init__`` import is a re-export, and a method is
    reached by its own name, not by its class being live."""
    changes = [
        ("src/repro/core.py",
         lambda t: t + "\n\ndef exported():\n    pass\n"),
        ("src/repro/__init__.py",
         lambda t: t + "from repro.core import exported\n"),
        ("src/repro/core.py", lambda t: t.replace(
            "    def step(self):",
            "    def poke(self):\n        pass\n\n    def step(self):")),
        ("tests/test_core.py",
         lambda t: t + "\nfrom repro.core import exported\n\n"
                       "def test_poke():\n    Engine().poke()\n"),
    ]
    code, out = run_lint(tmp_path, monkeypatch, capsys, changes)
    assert code == 1
    assert "exported is reached only from tests" in out
    assert "Engine.poke is reached only from tests" in out
