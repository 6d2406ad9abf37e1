"""The benchmark's own contract, driven through ``run.py --quick``.

Run with ``python -m pytest perfbench/tests -q`` (outside the repo's
``testpaths``, so the tier-1 suite never pays for it).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    done = run(PERFBENCH / "run.py", "--quick", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text()), done.stdout


def test_declared_names_are_well_formed():
    names = (WORKLOADS
             + [metric["name"] for metric in SPEC["end_to_end"]]
             + [metric["name"] for metric in SPEC["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_every_declared_metric_is_emitted_for_every_workload(quick):
    _, result, stdout = quick
    rows = {tuple(line.split()[:2]) for line in stdout.splitlines()}
    assert list(result["workloads"]) == WORKLOADS
    for name, record in result["workloads"].items():
        assert list(record["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(record["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        for metric in list(record["end_to_end"]) + list(record["per_layer"]):
            assert (name, metric) in rows
        assert record["end_to_end"]["ops_completed_share"]["median"] == 1.0


def test_correctness_checks_ran_and_traced_pass_agrees(quick):
    _, result, _ = quick
    assert result["claim"] is None
    for record in result["workloads"].values():
        assert record["checks"]["repeats_agree"] is True
        assert record["checks"]["traced_agrees"] is True
        assert all(record["checks"].values())
        assert len(record["checks"]) >= 3  # the workload's own checks ran too
        assert re.fullmatch(r"[0-9a-f]{64}", record["fingerprint"])


def test_spans_are_written_with_parent_ids(quick):
    for name in WORKLOADS:
        lines = (PERFBENCH / "out" / f"{name}.spans.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines[:2000]]
        assert spans and all(span["t1"] >= span["t0"] for span in spans)
        ids = {span["id"] for span in spans}
        assert any(span["parent_id"] in ids for span in spans)


def test_each_workload_spends_its_time_where_it_should(quick):
    _, result, _ = quick
    layer = {name: record["dominant_layer"]
             for name, record in result["workloads"].items()}
    assert layer["crowd_sharded"] == layer["crowd_aggregate"] == "crowd"
    assert layer["nano_load"] == layer["bft_faults"] == "net"
    assert layer["btc_load"] == "ledger"
    join = result["workloads"]["replica_join"]["per_layer"]
    assert join["sim.events"] == 0 and join["sim.self_s"] == 0
    assert join["storage.self_s"] > 0 and join["storage.replay_ms_p50"] > 0
    assert join["intake.parked"] > 0 and join["sigcache.hit_ratio"] < 1.0
    faults = result["workloads"]["bft_faults"]["per_layer"]
    assert faults["net.retransmits"] > 0 and faults["consensus.view_changes"] > 0


def test_compare_of_a_result_with_itself_is_all_same(quick):
    out, _, _ = quick
    done = run(PERFBENCH / "compare.py", out, out)
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[2] for line in done.stdout.splitlines()
                if line.split()[1] in {m["name"] for m in SPEC["end_to_end"]}]
    assert len(verdicts) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert set(verdicts) == {"same"}
    assert "DIFFER" not in done.stdout


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_single_run_form_ends_with_the_result_object(trace, declared):
    done = run(PERFBENCH / "run.py", "--quick", "--workload", "crowd_sharded",
               "--seed", 2, "--seconds", 1, "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {metric["name"]: metric["unit"] for metric in SPEC[declared]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == units


def test_without_the_simulator_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path / "perfbench" / "run.py", "--workload", "btc_load",
               "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
