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

    @pytest.mark.parametrize("command",
                             ["faults", "tps", "confirmation", "growth"])
    def test_deleted_table_and_faults_commands_rejected(self, command):
        # `report` prints the tables and `bench A7` / `sweep -e A7` run
        # the degraded-network scenario.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


class TestCommands:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E9" in out and "F1" in out
        assert "bench_e9_blockchain_tps.py" in out

    def test_tps_table(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "bitcoin" in out and "visa" in out

    def test_confirmation_table(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "10%" in out and "confirmations" in out
        assert "| 40% | 89 |" in out

    def test_growth_table(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "145.95 GB" in out and "3.42 GB" in out
        assert "vs nano" in out and "42.7x" in out

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

    def test_bench_total_nodes_param_sets_the_population(self, capsys):
        code = main(["bench", "A10", "--param", "total_nodes=200",
                     "--param", "duration_s=10", "--param",
                     "sharded_shards=2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "param: total_nodes" in out and "200" in out
        assert "metric: fingerprint" in out
        assert "metric: sharded_reached" in out

    def test_bench_invalid_total_nodes_exits_two(self, capsys):
        assert main(["bench", "A10", "--param", "total_nodes=2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "A10", "--topology-scale", "200"],
        ["sweep", "-e", "A10", "--topology-scale", "200,400"],
    ], ids=["bench", "sweep"])
    def test_topology_scale_alias_is_gone(self, argv, capsys):
        # --param total_nodes= is the one spelling; only fuzz keeps the
        # flag, because there it sets the profile, not a param.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--topology-scale" in capsys.readouterr().err

    def test_bench_a7_runs_the_small_networks_faults_ran(self, capsys):
        # Below five nodes the scenario uses a clique, as the deleted
        # `faults` command did; under two it is a usage error.
        assert main(["bench", "A7", "--param", "nodes=3", "--seed", "2"]) == 0
        assert "metric: delivery_fraction | 1" in capsys.readouterr().out
        assert main(["bench", "A7", "--param", "nodes=1"]) == 2
        assert "nodes must be at least 2" in capsys.readouterr().err

    def test_bench_rejects_an_undeclared_param(self, capsys):
        # A misspelled key used to run with the default and exit 0.
        assert main(["bench", "E4", "--param", "dpeth=3", "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert "dpeth" in err and "valid: attacker_share, depth, risk" in err

    def test_bench_total_nodes_needs_a_declaring_experiment(self, capsys):
        assert main(["bench", "E4", "--param", "total_nodes=100"]) == 2
        assert "total_nodes" in capsys.readouterr().err

    def test_sweep_rejects_an_undeclared_param(self, tmp_path, capsys):
        assert main(["sweep", "-e", "E4", "--param", "dpeth=1,3",
                     "--out-dir", str(tmp_path)]) == 2
        assert "dpeth" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_sweep_applies_a_param_only_where_declared(self, tmp_path, capsys):
        import json

        assert main(["sweep", "-e", "A3", "-e", "E4", "--param", "depth=1,6",
                     "--trials", "1", "--jobs", "1", "--no-cache",
                     "--out-dir", str(tmp_path)]) == 0
        a3 = json.loads((tmp_path / "BENCH_A3.json").read_text())
        e4 = json.loads((tmp_path / "BENCH_E4.json").read_text())
        assert a3["counts"]["trials"] == 1
        assert "depth" not in a3["trials"][0]["params"]
        assert e4["counts"]["trials"] == 2

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

        out_dir, trace_dir = tmp_path / "results", tmp_path / "traces"
        code = main([
            "sweep", "-e", "A7", "--param", "nodes=8", "--param", "rate_tps=0.5",
            "--param", "duration_s=60", "--param", "partition_at_s=15",
            "--param", "heal_after_s=15", "--param", "churn_nodes=1",
            "--param", "capture_trace=1", "--seeds", "2", "--jobs", "1",
            "--no-cache", "--out-dir", str(out_dir),
            "--trace-dir", str(trace_dir),
        ])
        assert code == 0
        [trial] = json.loads((out_dir / "BENCH_A7.json").read_text())["trials"]
        assert trial["metrics"]["delivery_fraction"] == 1.0  # full delivery
        assert trial["metrics"]["partition_drops"] > 0
        assert trial["metrics"]["accounting_ok"]
        [target] = (trace_dir / "A7").glob("*.jsonl")
        assert trial["trace_path"] == str(target)
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        assert records
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
