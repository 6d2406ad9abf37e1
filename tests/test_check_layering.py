"""The layering lint, on the repository and on a small planted tree.

``scripts/check_layering.py`` reads the source under its ``SRC``; the
planted cases build a tree in ``tmp_path``, point the script there and
check the exit code and the ``file:line`` it prints.
"""

import subprocess
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from textwrap import dedent

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_layering.py"

CLEAN = {path: dedent(text).lstrip() for path, text in {
    "repro/__init__.py": '"""Package."""\n',
    "repro/net/aggregate.py": """
        import numpy as np


        def draw(count):
            return np.zeros(count)
        """,
    "repro/net/topology.py": """
        from itertools import combinations


        def complete(count):
            return list(combinations(range(count), 2))


        def line(count):
            import networkx as nx

            return list(nx.path_graph(count).edges())
        """,
    "repro/core/deploy.py": """
        from repro.net.topology import complete


        def build(scaled):
            if scaled:
                from repro.net.aggregate import draw

                return draw(3)
            return complete(3)
        """,
}.items()}


def run_lint(tmp_path, monkeypatch, capsys, changes=()):
    files = dict(CLEAN)
    for path, edit in changes:
        files[path] = edit(files.get(path, ""))
    for path, text in files.items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    spec = spec_from_file_location("check_layering", SCRIPT)
    lint = module_from_spec(spec)
    spec.loader.exec_module(lint)
    monkeypatch.setattr(lint, "SRC", tmp_path)
    code = lint.check()
    return code, capsys.readouterr().out


def test_repository_is_clean():
    result = subprocess.run([sys.executable, str(SCRIPT)], cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout
    assert "layering ok" in result.stdout


def test_clean_tree_passes(tmp_path, monkeypatch, capsys):
    code, out = run_lint(tmp_path, monkeypatch, capsys)
    assert code == 0, out


def test_cross_layer_import_still_fails(tmp_path, monkeypatch, capsys):
    code, out = run_lint(tmp_path, monkeypatch, capsys, changes=[
        ("repro/net/topology.py",
         lambda text: text + "\n\ndef late():\n    import repro.dag.node\n")])
    assert code == 1
    assert (f"{tmp_path.name}/repro/net/topology.py:15: "
            "repro.net must not import repro.dag.node") in out


@pytest.mark.parametrize("planted, line", [
    ("import numpy\n", 1),
    ("import numpy.linalg\n", 1),
    ("from networkx import path_graph\n", 1),
    ("\n\nclass Plane:\n    import numpy as np\n", 4),
    ("\n\ntry:\n    import networkx\nexcept ImportError:\n    pass\n", 4),
], ids=["import", "submodule", "from-import", "class-body", "try-block"])
def test_module_level_scale_import_fails(tmp_path, monkeypatch, capsys,
                                         planted, line):
    code, out = run_lint(tmp_path, monkeypatch, capsys, changes=[
        ("repro/core/deploy.py", lambda text: planted + text)])
    assert code == 1
    assert f"{tmp_path.name}/repro/core/deploy.py:{line}:" in out


def test_simulator_may_import_only_the_networks_leaf_modules(
        tmp_path, monkeypatch, capsys):
    planted = ("from repro.net.link import LinkParams\n"
               "from repro.net.message import Message\n"
               "from repro.net.network import Network\n")
    code, out = run_lint(tmp_path, monkeypatch, capsys, changes=[
        ("repro/sim/sharded.py", lambda text: text + planted)])
    assert code == 1
    assert (f"{tmp_path.name}/repro/sim/sharded.py:3: "
            "repro.sim must not import repro.net.network") in out
    assert "repro.net.link" not in out
    assert "repro.net.message" not in out
