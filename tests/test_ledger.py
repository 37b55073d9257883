"""The run ledger: record building, the JSONL book, environment
configuration, runner integration, and the ``repro ledger`` CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments import ExperimentRunner, Job, execute_job, execute_job_safe
from repro.telemetry import RunLedger, build_record, default_ledger
from repro.telemetry import ledger as ledger_mod

CHEAP = {"victims": 8}


class TestEnvironmentConfig:
    def test_off_switch_values(self, monkeypatch):
        for value in ("off", "0", "false", "no", "disabled", " OFF "):
            monkeypatch.setenv("REPRO_LEDGER", value)
            assert not ledger_mod.ledger_enabled()
            assert default_ledger() is None

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger_mod.ledger_enabled()

    def test_path_env_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "book.jsonl"))
        book = default_ledger()
        assert book is not None
        assert book.path == tmp_path / "book.jsonl"


class TestBuildRecord:
    def test_record_fields(self):
        result = execute_job("rowhammer_basic", params=CHEAP, seed=3,
                             observe=("metrics",))
        record = build_record(result, command="test")
        assert record["schema"] == ledger_mod.LEDGER_SCHEMA
        assert record["name"] == "rowhammer_basic"
        assert record["seed"] == 3
        assert record["params"] == CHEAP
        assert record["command"] == "test"
        assert record["ok"] is True and record["error"] is None
        assert record["duration_s"] > 0
        assert len(record["payload_digest"]) == 16
        assert len(record["metrics_digest"]) == 16
        assert record["metrics_totals"]["dram_activations_total"] > 0
        assert len(record["id"]) == 12
        json.dumps(record)  # JSON-safe

    def test_identical_payloads_share_digest(self):
        a = build_record(execute_job("rowhammer_basic", params=CHEAP, seed=5))
        b = build_record(execute_job("rowhammer_basic", params=CHEAP, seed=5))
        assert a["payload_digest"] == b["payload_digest"]
        c = build_record(execute_job("rowhammer_basic", params=CHEAP, seed=6))
        assert c["payload_digest"] != a["payload_digest"]

    def test_errored_result_records_error(self):
        from repro.experiments import experiment, registry

        @experiment("_ledger_probe", "raises", section="II", tags=("test",))
        def _ledger_probe(seed: int = 0):
            raise RuntimeError("boom")

        try:
            result = execute_job_safe("_ledger_probe", seed=0)
        finally:
            registry.unregister("_ledger_probe")
        record = build_record(result)
        assert record["ok"] is False
        assert "RuntimeError: boom" in record["error"]
        assert record["payload_digest"] == ""


class TestRunLedger:
    def _append_n(self, book, n):
        for i in range(n):
            result = execute_job("rowhammer_basic", params=CHEAP, seed=i)
            book.record(result)

    def test_append_and_read_back(self, tmp_path):
        book = RunLedger(tmp_path / "sub" / "book.jsonl")  # parent dirs created
        self._append_n(book, 2)
        records = book.records()
        assert [r["seed"] for r in records] == [0, 1]

    def test_torn_lines_are_skipped(self, tmp_path):
        book = RunLedger(tmp_path / "book.jsonl")
        self._append_n(book, 2)
        with open(book.path, "a") as handle:
            handle.write('{"torn": ')
        assert len(book.records()) == 2

    def test_corrupt_lines_are_counted(self, tmp_path):
        book = RunLedger(tmp_path / "book.jsonl")
        self._append_n(book, 2)
        with open(book.path, "a") as handle:
            handle.write('{"torn": \n')
            handle.write('"a bare string, not a record"\n')
        assert len(book.scan()) == 2
        assert book.corrupt_lines == 2
        # A clean re-scan resets the tally.
        clean = RunLedger(tmp_path / "book.jsonl")
        clean.path.write_text("")
        assert clean.scan() == [] and clean.corrupt_lines == 0

    def test_append_is_a_single_whole_line(self, tmp_path):
        # Race safety: one append is one O_APPEND write ending in \n, so
        # concurrent writers interleave whole records, never fragments.
        book = RunLedger(tmp_path / "book.jsonl")
        self._append_n(book, 3)
        raw = book.path.read_bytes()
        assert raw.endswith(b"\n")
        assert len(raw.splitlines()) == 3
        assert all(json.loads(line) for line in raw.splitlines())

    def test_injected_ledger_fault_drops_one_append(self, tmp_path, monkeypatch):
        from repro import chaos

        book = RunLedger(tmp_path / "book.jsonl")
        monkeypatch.setenv(chaos.ENV_CHAOS, "ledger")
        chaos.reset()
        try:
            self._append_n(book, 3)
        finally:
            chaos.reset()
        assert len(book.records()) == 2  # exactly one append dropped

    def test_find_by_index_and_id_prefix(self, tmp_path):
        book = RunLedger(tmp_path / "book.jsonl")
        self._append_n(book, 3)
        records = book.records()
        assert book.find("1") == records[0]
        assert book.find("-1") == records[-1]
        assert book.find(records[1]["id"][:6]) == records[1]
        assert book.find("0") is None
        assert book.find("99") is None
        assert book.find("zzzzzz") is None

    def test_append_is_best_effort(self, tmp_path):
        # An unwritable destination must not raise.
        target = tmp_path / "dir-as-file"
        target.mkdir()
        book = RunLedger(target)  # path is a directory: open() fails
        assert book.append({"x": 1}) is False

    def test_empty_ledger(self, tmp_path):
        book = RunLedger(tmp_path / "missing.jsonl")
        assert book.records() == []
        assert book.find("1") is None


class TestRunnerIntegration:
    def test_runner_appends_every_job(self, tmp_path):
        book = RunLedger(tmp_path / "book.jsonl")
        runner = ExperimentRunner(ledger=book)
        runner.run([Job("rowhammer_basic", CHEAP, 0)])
        runner.run([Job("rowhammer_basic", CHEAP, 1)])
        assert [r["seed"] for r in book.records()] == [0, 1]

    def test_cache_hits_are_recorded_as_such(self, tmp_path):
        book = RunLedger(tmp_path / "book.jsonl")
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", ledger=book)
        runner.run([Job("rowhammer_basic", CHEAP, 0)])
        runner.run([Job("rowhammer_basic", CHEAP, 0)])
        records = book.records()
        assert [r["cache_hit"] for r in records] == [False, True]

    def test_ledger_false_disables(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "book.jsonl"))
        runner = ExperimentRunner(ledger=False)
        assert runner.ledger is None
        runner.run([Job("rowhammer_basic", CHEAP, 0)])
        assert not (tmp_path / "book.jsonl").exists()

    def test_env_switch_disables_default_ledger(self):
        # conftest forces REPRO_LEDGER=off for every test.
        assert ExperimentRunner().ledger is None

    def test_env_path_feeds_default_ledger(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "book.jsonl"))
        runner = ExperimentRunner()
        runner.run([Job("rowhammer_basic", CHEAP, 0)])
        assert len(RunLedger(tmp_path / "book.jsonl").records()) == 1


class TestLedgerCli:
    @pytest.fixture()
    def book(self, tmp_path):
        book = RunLedger(tmp_path / "book.jsonl")
        for seed in (0, 1):
            book.record(execute_job("rowhammer_basic", params=CHEAP, seed=seed))
        return book

    def test_list(self, book, capsys):
        assert main(["ledger", "--path", str(book.path), "list"]) == 0
        out = capsys.readouterr().out
        assert "2 records" in out
        assert "rowhammer_basic" in out and "seed 1" in out

    def test_list_empty(self, tmp_path, capsys):
        assert main(["ledger", "--path", str(tmp_path / "none.jsonl"), "list"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_list_name_filter(self, book, capsys):
        assert main(["ledger", "--path", str(book.path), "list",
                     "--name", "nonexistent"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show_by_index_and_prefix(self, book, capsys):
        assert main(["ledger", "--path", str(book.path), "show", "2"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 1
        assert main(["ledger", "--path", str(book.path),
                     "show", record["id"][:6]]) == 0
        assert json.loads(capsys.readouterr().out)["id"] == record["id"]

    def test_show_missing_ref_errors(self, book, capsys):
        assert main(["ledger", "--path", str(book.path), "show", "99"]) == 2
        assert "no ledger record" in capsys.readouterr().err

    def test_diff(self, book, capsys):
        assert main(["ledger", "--path", str(book.path), "diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "! seed: 0 -> 1" in out
        assert "DIFFERENT" in out  # different seeds, different payloads
        assert "metrics" in out or "duration_s" in out

    def test_diff_missing_ref_errors(self, book, capsys):
        assert main(["ledger", "--path", str(book.path), "diff", "1", "99"]) == 2

    def test_show_and_diff_warn_on_corrupt_lines(self, book, capsys):
        with open(book.path, "a") as handle:
            handle.write('{"torn": \n')
        assert main(["ledger", "--path", str(book.path), "show", "1"]) == 0
        assert "skipped 1 corrupt" in capsys.readouterr().err
        assert main(["ledger", "--path", str(book.path), "diff", "1", "2"]) == 0
        assert "skipped 1 corrupt" in capsys.readouterr().err
        assert main(["ledger", "--path", str(book.path), "list"]) == 0
        captured = capsys.readouterr()
        assert "2 records" in captured.out
        assert "skipped 1 corrupt" in captured.err
