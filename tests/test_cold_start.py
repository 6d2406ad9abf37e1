"""A deployment imports only what it runs.

The paper's exact Bitcoin, Ethereum and Nano deployments run on a
complete graph, so they need neither numpy (the 10^4-10^6-node scale
tier) nor networkx (the random topologies).  Package ``__init__`` files
re-export nothing, so nothing pulls either library in behind their back.
``sys.modules`` is per process, so each case runs in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCALE_TIER = ("numpy", "networkx")


def loaded_modules(code: str) -> list:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    script = textwrap.dedent(code) + (
        "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def deployment_run(paradigm: str, topology_scale=None) -> str:
    return f"""
        from repro.core.deploy import build_deployment
        from repro.workloads.generators import PaymentEvent

        deployment = build_deployment({paradigm!r}, seed=1,
                                      topology_scale={topology_scale!r})
        deployment.setup(4, 10**6)
        ledger = deployment.ledger
        ledger.submit(PaymentEvent(time_s=0.0, sender_index=0,
                                   recipient_index=1, amount=1_000))
        ledger.advance(30.0)
    """


@pytest.mark.parametrize("paradigm", ["blockchain", "dag", "bft"])
def test_exact_deployment_loads_no_scale_tier(paradigm):
    modules = loaded_modules(deployment_run(paradigm))
    assert "repro.core.deploy" in modules
    for name in SCALE_TIER:
        assert name not in modules, f"{paradigm} deployment loaded {name}"


def test_scaled_deployment_loads_numpy():
    modules = loaded_modules(deployment_run("blockchain", topology_scale=1_000))
    assert "numpy" in modules
    assert "repro.net.aggregate" in modules


def test_keys_load_only_common_and_crypto():
    modules = loaded_modules("import repro.crypto.keys")
    ours = [name for name in modules if name.split(".")[0] == "repro"]
    stray = [name for name in ours
             if name != "repro"
             and not name.startswith(("repro.common", "repro.crypto"))]
    assert stray == []
    assert "repro.crypto.keys" in ours
    for name in SCALE_TIER:
        assert name not in modules
