"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import derive_seed, registry


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])

    def test_run_flags(self):
        args = build_parser().parse_args(["run", "c5", "--seed", "7", "--json"])
        assert args.names == ["c5"] and args.seed == 7 and args.json

    def test_run_accepts_many_names_and_parallel(self):
        args = build_parser().parse_args(["run", "c5", "sidedness", "--parallel", "2"])
        assert args.names == ["c5", "sidedness"] and args.parallel == 2

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "fig1_error_rates", "--seeds", "8", "--parallel", "4"])
        assert args.name == "fig1_error_rates"
        assert args.seeds == 8 and args.parallel == 4

    def test_canonical_and_alias_names_both_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["run", "f1"]).names == ["f1"]
        assert parser.parse_args(["run", "fig1_error_rates"]).names == ["fig1_error_rates"]


class TestCommands:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out
        for alias in ("f1", "c10-c11", "trr-bypass"):
            assert alias in out

    def test_list_markdown_is_the_index_table(self, capsys):
        assert main(["list", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| Experiment |")
        assert "`fig1_error_rates`" in out and "`f1`" in out

    def test_list_tag_filter(self, capsys):
        assert main(["list", "--tag", "flash"]) == 0
        out = capsys.readouterr().out
        assert "fcr_study" in out and "pcm_study" not in out

    def test_describe(self, capsys):
        assert main(["describe", "c5"]) == 0
        out = capsys.readouterr().out
        assert "PARA" in out and "para_reliability" in out

    def test_describe_lists_params(self, capsys):
        assert main(["describe", "isolation_violations"]) == 0
        out = capsys.readouterr().out
        assert "reads" in out and "2600000" in out

    def test_run_text(self, capsys):
        assert main(["run", "c5"]) == 0
        out = capsys.readouterr().out
        assert "rows" in out and "disk_afr" in out

    def test_run_json_parses(self, capsys):
        assert main(["run", "c5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "rows" in payload
        assert payload["rows"][0]["p"] == pytest.approx(2e-4)

    def test_run_by_canonical_name(self, capsys):
        assert main(["run", "para_reliability", "--json"]) == 0
        assert "rows" in json.loads(capsys.readouterr().out)

    def test_run_seed_forwarded(self, capsys):
        assert main(["run", "sidedness", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["double_flips"] > 0

    def test_run_record_wraps_payload_in_provenance(self, capsys):
        assert main(["run", "c12", "--seed", "5", "--record", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["name"] == "twostep_study"
        assert record["seed"] == 5
        assert record["duration_s"] > 0
        assert "exposed_errors" in record["payload"]

    def test_registry_covers_every_bench_family(self):
        # Every experiment index entry (F1, C2..C14) stays invocable.
        names = set(registry.invocable_names())
        for required in ("f1", "c2", "c3", "c4", "c5", "c6", "c7", "c8",
                         "c9", "c10-c11", "c12", "c13", "c14"):
            assert required in names


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["report", "c5", "--output", str(output)]) == 0
        text = output.read_text()
        assert text.startswith("# repro experiment report")
        assert "## Environment" in text and "## Results" in text
        assert "| para_reliability | - | ok |" in text  # seedless experiment

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_report_rejects_fewer_than_one_seed(self, seeds, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["report", "c12", "--seeds", seeds,
                     "--output", str(output)]) == 2
        assert "error: a sweep needs --seeds >= 1" in capsys.readouterr().err
        assert not output.exists()

    def test_report_many_experiments_round_trip(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["report", "c12", "sidedness", "--seed", "2",
                     "--output", str(output)]) == 0
        text = output.read_text()
        assert "twostep_study" in text and "sidedness_ablation" in text
        assert "| sidedness_ablation | 2 | ok |" in text

    def test_report_propagates_inner_errors(self, tmp_path, capsys):
        # Regression: the old _write_report swallowed TypeError and
        # re-ran without a seed; inner errors must now surface.  With
        # the fault-tolerant batch runner they surface as an errored
        # result, a stderr report, and a nonzero exit — never silently.
        from repro.experiments import experiment

        @experiment("_report_probe", "raises inside", section="II", tags=("test",))
        def _report_probe(seed: int = 0):
            raise TypeError("inner failure")

        try:
            assert main(["report", "_report_probe",
                         "--output", str(tmp_path / "r.md")]) == 1
        finally:
            registry.unregister("_report_probe")
        captured = capsys.readouterr()
        assert "TypeError: inner failure" in captured.err
        assert "1/1 jobs failed" in captured.err
        assert "TypeError: inner failure" in (tmp_path / "r.md").read_text()


class TestSweepCommand:
    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["sweep", "c12", "--seeds", "3", "--cache-dir", str(cache)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 seeds" in out and "(0 cache hits, 0 errors)" in out
        assert len(list((cache / "twostep_study").glob("*.json"))) == 3
        assert main(argv) == 0
        assert "(3 cache hits, 0 errors)" in capsys.readouterr().out

    def test_sweep_json_round_trip(self, tmp_path, capsys):
        assert main(["sweep", "c12", "--seeds", "2", "--json",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert [r["seed"] for r in records] == [derive_seed(0, 0), derive_seed(0, 1)]
        for record in records:
            assert record["name"] == "twostep_study"
            assert record["duration_s"] > 0
            assert "exposed_errors" in record["payload"]

    def test_sweep_seeds_are_deterministic_across_runs(self, tmp_path, capsys):
        argv = ["sweep", "sidedness", "--seeds", "2", "--json", "--no-cache"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert [r["payload"] for r in first] == [r["payload"] for r in second]

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_sweep_rejects_fewer_than_one_seed(self, seeds, capsys):
        assert main(["sweep", "c12", "--seeds", seeds, "--no-cache"]) == 2
        assert "error: a sweep needs 'seeds' >= 1" in capsys.readouterr().err

    def test_sweep_rejects_seedless_experiment(self, capsys):
        assert main(["sweep", "c5", "--seeds", "2", "--no-cache"]) == 2
        assert "takes no seed" in capsys.readouterr().err

    def test_sweep_timeout_flags_failed_jobs(self, tmp_path, capsys):
        from repro.experiments.registry import experiment, unregister

        @experiment("_cli_hang", "sleeps forever", section="II", tags=("test",))
        def _cli_hang(seed: int = 0):
            import time

            time.sleep(30)

        try:
            assert main(["sweep", "_cli_hang", "--seeds", "1", "--no-cache",
                         "--timeout", "0.2"]) == 1
        finally:
            unregister("_cli_hang")
        captured = capsys.readouterr()
        assert "1 timeouts" in captured.out
        assert "JobTimeout" in captured.err

    @pytest.mark.parametrize("cache_args, hint", [
        (["--cache-dir", "sweep-cache"],
         "re-run the same command; finished jobs come from the cache at "
         "sweep-cache"),
        (["--no-cache"], "completed results were not kept (--no-cache)"),
    ])
    def test_interrupt_hint_names_the_resume_point(self, monkeypatch, capsys,
                                                   cache_args, hint):
        from repro.experiments import ExperimentRunner

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(ExperimentRunner, "sweep", interrupted)
        assert main(["sweep", "c12", "--seeds", "2"] + cache_args) == 130
        assert hint in capsys.readouterr().err


class TestChaosCommand:
    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("kill", "hang", "exc", "torn", "ledger", "combined"):
            assert name in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["chaos", "nope"]) == 2
        assert "unknown chaos scenario" in capsys.readouterr().err

    def test_exc_scenario_via_cli(self, tmp_path, capsys):
        assert main(["chaos", "exc", "--workdir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "PASS  exc" in captured.out
        assert "recovered clean" in captured.err

    def test_json_output(self, tmp_path, capsys):
        assert main(["chaos", "ledger", "--json",
                     "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        body = json.loads(out)
        assert body[0]["name"] == "ledger"
        assert body[0]["passed"] is True


class TestNewSubcommands:
    def test_test_module_vulnerable_exit_code(self, capsys):
        assert main(["test-module", "--manufacturer", "B", "--date", "2013.0"]) == 1
        out = capsys.readouterr().out
        assert "VULNERABLE" in out

    def test_test_module_clean_exit_code(self, capsys):
        assert main(["test-module", "--manufacturer", "A", "--date", "2009.0"]) == 0
        out = capsys.readouterr().out
        assert "no RowHammer errors" in out

    def test_test_module_refresh_multiplier_helps(self, capsys):
        main(["test-module", "--manufacturer", "B", "--date", "2013.0"])
        base = capsys.readouterr().out
        main(["test-module", "--manufacturer", "B", "--date", "2013.0",
              "--refresh-multiplier", "8"])
        scaled = capsys.readouterr().out
        base_errors = int(base.split("errors: ")[1].split(" ")[0])
        scaled_errors = int(scaled.split("errors: ")[1].split(" ")[0])
        assert scaled_errors < base_errors

    def test_test_module_rejects_nonpositive_refresh_multiplier(self, capsys):
        assert main(["test-module", "--manufacturer", "B", "--date", "2013.0",
                     "--refresh-multiplier", "0"]) == 2
        assert "refresh_multiplier" in capsys.readouterr().err

    def test_vref_experiment_registered(self, capsys):
        assert main(["run", "vref", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuned_errors"] < payload["factory_errors"]


class TestTelemetryCommands:
    def _run_with_metrics(self, tmp_path, capsys, extra=()):
        out = tmp_path / "metrics.json"
        argv = ["run", "rowhammer_basic", "--metrics",
                "--metrics-out", str(out), "--json", *extra]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        return out, payload

    def test_run_metrics_snapshot_matches_payload(self, tmp_path, capsys):
        out, payload = self._run_with_metrics(tmp_path, capsys)
        record = json.loads(out.read_text())
        assert record["command"] == "run"
        assert record["names"] == ["rowhammer_basic"]
        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry.from_snapshot(record["metrics"])
        # the acceptance cross-check: counters == the experiment's own figures
        assert reg.total("dram_activations_total") == payload["activations"]
        assert reg.total("dram_refreshes_total") == payload["refreshes"]
        assert reg.total("dram_bit_flips_total") == payload["bit_flips"]

    def test_stats_prometheus_renders_counters(self, tmp_path, capsys):
        out, payload = self._run_with_metrics(tmp_path, capsys)
        assert main(["stats", "--input", str(out), "--format", "prometheus"]) == 0
        text = capsys.readouterr().out
        assert f'dram_activations_total{{bank="0"}} {payload["activations"]}' in text
        assert "# TYPE dram_activations_total counter" in text
        assert 'runner_jobs_total{cache_hit="false",outcome="ok"} 1' in text

    def test_stats_table_and_json(self, tmp_path, capsys):
        out, _ = self._run_with_metrics(tmp_path, capsys)
        assert main(["stats", "--input", str(out)]) == 0
        table = capsys.readouterr().out
        assert "# run: rowhammer_basic" in table
        assert "dram_flips_per_event" in table
        assert main(["stats", "--input", str(out), "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["metrics"]["counters"]

    def test_stats_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", "--input", str(tmp_path / "nope.json")]) == 2
        assert "hint" in capsys.readouterr().err

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "rowhammer_basic", "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert "job_start=1" in err and "job_end=1" in err
        events = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert {"job_start", "activate", "refresh", "job_end"} <= kinds
        from repro.telemetry import runtime as telem

        assert not telem.trace_on  # the command turned tracing back off

    def test_trace_spill_bounds_memory(self, tmp_path, capsys):
        spill = tmp_path / "spill.jsonl"
        assert main(["trace", "rowhammer_basic", "--buffer", "64",
                     "--spill", str(spill)]) == 0
        err = capsys.readouterr().err
        assert "0 dropped" in err
        assert len(spill.read_text().splitlines()) > 64


class TestProfileCommand:
    def test_profile_prints_span_tree(self, capsys):
        assert main(["profile", "rowhammer_basic", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "# rowhammer_basic · seed 1" in out
        assert "job{name=rowhammer_basic}" in out
        assert "dram.execute" in out
        from repro.telemetry import runtime as telem

        assert not telem.spans_on  # the command turned profiling back off

    def test_profile_json(self, capsys):
        assert main(["profile", "rowhammer_basic", "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["name"] == "rowhammer_basic"
        assert body["duration_s"] > 0
        assert body["coverage_s"] == pytest.approx(body["duration_s"], rel=0.05)
        paths = [entry["path"] for entry in body["profile"]["spans"]]
        assert ["job{name=rowhammer_basic}"] in paths

    def test_profile_folded_to_file(self, tmp_path, capsys):
        out = tmp_path / "folded.txt"
        assert main(["profile", "rowhammer_basic", "--folded", str(out)]) == 0
        folded = out.read_text()
        assert folded.startswith("job{name=rowhammer_basic}")
        # every line is "stack <integer-microseconds>"
        for line in folded.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 0

    def test_profile_folded_to_stdout(self, capsys):
        assert main(["profile", "rowhammer_basic", "--folded", "-"]) == 0
        out = capsys.readouterr().out
        assert "job{name=rowhammer_basic};" in out


class TestServeMetricsDegrade:
    def test_busy_port_warns_and_run_continues(self, capsys):
        """A busy exporter port must not kill the batch: warn once on
        stderr and run without the live exporter."""
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            assert main(["run", "c5", "--serve-metrics", str(port)]) == 0
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert f"warning: cannot serve metrics on port {port}" in captured.err
        assert "continuing without the live exporter" in captured.err
        assert "rows" in captured.out  # the experiment still ran

    def test_port_zero_prints_resolved_ephemeral_port(self, capsys):
        assert main(["run", "c5", "--serve-metrics", "0"]) == 0
        err = capsys.readouterr().err
        assert "serving metrics at http://127.0.0.1:" in err
        assert ":0/metrics" not in err  # the *bound* port, not the request


class TestServiceVerbs:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port is None  # resolved to the default at dispatch
        assert args.state_dir == ".repro-service"
        assert args.workers == 2 and args.max_queue == 64

    def test_submit_parser_flags(self):
        args = build_parser().parse_args(
            ["submit", "sidedness_ablation", "--seeds", "4", "--base-seed",
             "7", "--param", "k=1", "--wait", "--state-dir", "sd"])
        assert args.command == "submit"
        assert args.name == "sidedness_ablation"
        assert args.seeds == 4 and args.base_seed == 7
        assert args.param == ["k=1"] and args.wait

    def test_submit_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "nonexistent"])

    def test_jobs_parser_flags(self):
        args = build_parser().parse_args(["jobs", "abc123", "--cancel"])
        assert args.command == "jobs"
        assert args.sid == "abc123" and args.cancel

    def test_submit_without_a_daemon_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["submit", "sidedness_ablation", "--seed", "1",
                   "--state-dir", str(tmp_path / "nowhere")])
        assert rc == 2
        assert "no running service" in capsys.readouterr().err

    def test_jobs_without_a_daemon_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["jobs", "--state-dir", str(tmp_path / "nowhere")])
        assert rc == 2
        assert "no running service" in capsys.readouterr().err
