"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E9" in out and "F1" in out
        assert "bench_e9_blockchain_tps.py" in out

    def test_tps_table(self, capsys):
        assert main(["tps"]) == 0
        out = capsys.readouterr().out
        assert "bitcoin" in out and "visa" in out

    def test_tps_respects_tx_bytes(self, capsys):
        main(["tps", "--tx-bytes", "500"])
        heavy = capsys.readouterr().out
        main(["tps", "--tx-bytes", "250"])
        light = capsys.readouterr().out
        assert heavy != light

    def test_confirmation_table(self, capsys):
        assert main(["confirmation"]) == 0
        out = capsys.readouterr().out
        assert "10%" in out and "confirmations" in out

    def test_growth_table(self, capsys):
        assert main(["growth"]) == 0
        out = capsys.readouterr().out
        assert "145.95 GB" in out and "3.42 GB" in out

    def test_compare_end_to_end(self, capsys):
        code = main([
            "compare", "--accounts", "4", "--rate", "0.05",
            "--duration", "120", "--nodes", "3", "--block-interval", "10",
            "--depth", "2", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries confirmed" in out
        assert "nano" in out and "bitcoin" in out

    def test_compare_rejects_an_empty_roster(self, capsys):
        # ``--nodes 0`` used to build the 5-node default silently.
        assert main(["compare", "--nodes", "0", "--duration", "10"]) == 2
        assert "error: node_count must be at least 1" in capsys.readouterr().err

    def test_report_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# Results report" in out
        assert "Sharding throughput" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert main(["report", "-o", str(target)]) == 0
        assert "# Results report" in target.read_text()

    def test_compare_ethereum_chain(self, capsys):
        code = main([
            "compare", "--chain", "ethereum", "--accounts", "4",
            "--rate", "0.05", "--duration", "120", "--nodes", "3",
            "--block-interval", "5", "--depth", "2", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ethereum" in out

    def test_bench_runs_one_trial(self, capsys):
        assert main(["bench", "E4", "--param", "depth=8", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "param: depth" in out and "8" in out
        assert "metric: p_success" in out

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "ZZZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_topology_scale_sets_total_nodes(self, capsys):
        code = main(["bench", "A10", "--topology-scale", "200",
                     "--param", "duration_s=10", "--param",
                     "sharded_shards=2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "param: total_nodes" in out and "200" in out
        assert "metric: fingerprint" in out
        assert "metric: sharded_reached" in out

    def test_bench_invalid_topology_scale_exits_two(self, capsys):
        assert main(["bench", "A10", "--topology-scale", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_requires_experiment_selection(self, capsys):
        assert main(["sweep"]) == 2
        assert "--experiment" in capsys.readouterr().err

    def test_sweep_writes_bench_json_and_caches(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "results"
        argv = [
            "sweep", "--experiment", "A3", "--param", "interval_s=15,600",
            "--trials", "2", "--jobs", "2", "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        document = json.loads((out_dir / "BENCH_A3.json").read_text())
        assert document["schema"] == "repro.runner/bench.v1"
        assert document["counts"] == {
            "trials": 4, "ok": 4, "failed": 0, "cached": 0,
        }
        capsys.readouterr()
        assert main(argv) == 0  # second invocation: pure cache hits
        document = json.loads((out_dir / "BENCH_A3.json").read_text())
        assert document["counts"]["cached"] == 4
        assert document["cache"]["hits"] == 4

    def test_faults_run_recovers_and_dumps_trace(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.jsonl"
        code = main([
            "faults", "--nodes", "8", "--rate", "0.5", "--duration", "60",
            "--partition-at", "15", "--heal-after", "15",
            "--churn-nodes", "1", "--seed", "2", "--trace-out", str(target),
        ])
        assert code == 0  # full delivery after heal
        captured = capsys.readouterr()
        out = captured.out
        assert "100.0%" in out
        assert "dropped: partition" in out
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        assert records
        # The whole run fits the ring, and the report says so.
        assert (f"{len(records)} trace records written to {target} "
                "(0 older records fell off the ring)") in captured.err
        kinds = {r["kind"] for r in records}
        assert {"schedule", "deliver", "partition", "heal"} <= kinds

    def test_fuzz_accepts_topology_scale(self, capsys):
        code = main([
            "fuzz", "--seeds", "1", "--paradigm", "blockchain",
            "--topology-scale", "500",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "scale=500" in err  # the profile describes its scale

    def test_soak_reports_the_scaled_tier(self, capsys):
        main([
            "soak", "--duration", "60", "--rate", "2",
            "--topology-scale", "2000", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert "1997 modeled nodes" in err
        assert "modeled deliveries" in err
