"""Exhaustive torn-tail tolerance: truncate the final record of a
service job journal and of a sweep checkpoint at EVERY byte offset.

A SIGKILL (or power loss) mid-append leaves a prefix of the final line
on disk.  Because every writer in the repo goes through a single
``O_APPEND`` write, *only* the last record can be damaged — and every
reader must (a) never raise, (b) recover every complete record, and
(c) count the torn line instead of silently swallowing it.  This file
proves that byte-for-byte, not just for one lucky cut point.
"""

import json
import multiprocessing
import threading

import pytest

from repro.experiments.checkpoint import SweepCheckpoint, job_key
from repro.experiments.result import ExperimentResult
from repro.service import JobJournal, JobSpec
from repro.telemetry import RunLedger
from repro.utils.jsonl import append_record

PROBE = "sidedness_ablation"


def _result(seed):
    return ExperimentResult(name=PROBE, payload={"seed": seed}, seed=seed,
                            duration_s=0.01)


def _build_journal(path, n=3):
    """A journal of n submissions, the first one finished."""
    journal = JobJournal(path)
    specs = [JobSpec.from_payload({"name": PROBE, "seed": i})
             for i in range(n)]
    for spec in specs:
        journal.submit(spec)
    journal.start(specs[0].sid, "r0")
    journal.done(specs[0].sid, "ok", jobs=1, errors=0)
    return journal, specs


def _build_checkpoint(path, n=3):
    checkpoint = SweepCheckpoint(path)
    for seed in range(n):
        assert checkpoint.record(_result(seed))
    return checkpoint


def _line_spans(blob):
    """(start, end) byte spans of each newline-terminated record."""
    spans, start = [], 0
    for i, byte in enumerate(blob):
        if byte == 0x0A:
            spans.append((start, i + 1))
            start = i + 1
    return spans


class TestJournalTornAtEveryOffset:
    def test_replay_recovers_all_complete_records(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        _journal, specs = _build_journal(path)
        blob = path.read_bytes()
        spans = _line_spans(blob)
        assert len(spans) == 5  # 3 submits + start + done
        last_start, last_end = spans[-1]

        # Cut the file at every offset inside the final record — from
        # "record entirely gone" to "all but the newline".  Two offsets
        # are NOT tears: the line boundary (record cleanly absent) and
        # everything-but-the-newline (the record is complete and must
        # be recovered, newline or not).
        for cut in range(last_start, last_end):
            path.write_bytes(blob[:cut])
            state = JobJournal(path).replay()  # must never raise
            # All complete records survive intact.
            assert state.order == [s.sid for s in specs]
            assert specs[0].sid in state.starts
            if cut == last_start:
                assert state.corrupt_lines == 0  # clean line boundary
                assert specs[0].sid not in state.done
                assert state.pending() == [s.sid for s in specs]
            elif cut == last_end - 1:
                assert state.corrupt_lines == 0  # complete, no newline
                assert state.done[specs[0].sid]["outcome"] == "ok"
                assert state.pending() == [s.sid for s in specs[1:]]
            else:
                # A genuinely torn ``done`` record reads as pending
                # (at-least-once; checkpoint/cache make re-runs cheap).
                assert state.corrupt_lines == 1
                assert specs[0].sid not in state.done
                assert state.pending() == [s.sid for s in specs]

    def test_pending_set_is_conservative_under_tears(self, tmp_path):
        """A torn ``done`` record re-enqueues the job — at-least-once,
        never lost; the checkpoint/cache make the re-run idempotent."""
        path = tmp_path / "jobs.jsonl"
        _journal, specs = _build_journal(path, n=1)
        blob = path.read_bytes()
        last_start, last_end = _line_spans(blob)[-1]
        for cut in range(last_start + 1, last_end - 1):
            path.write_bytes(blob[:cut])
            assert JobJournal(path).replay().pending() == [specs[0].sid]

    def test_append_after_every_tear_is_isolated(self, tmp_path):
        """Appending after any tear must start a fresh line, never
        splice bytes onto the torn prefix."""
        path = tmp_path / "jobs.jsonl"
        _journal, specs = _build_journal(path)
        blob = path.read_bytes()
        last_start, last_end = _line_spans(blob)[-1]
        extra = JobSpec.from_payload({"name": PROBE, "seed": 99})
        for cut in range(last_start + 1, last_end - 1):
            path.write_bytes(blob[:cut])
            assert JobJournal(path).submit(extra)
            state = JobJournal(path).replay()
            assert state.order[-1] == extra.sid
            assert state.corrupt_lines == 1


class TestCheckpointTornAtEveryOffset:
    def test_load_recovers_all_complete_records(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _build_checkpoint(path)
        blob = path.read_bytes()
        spans = _line_spans(blob)
        assert len(spans) == 3
        last_start, last_end = spans[-1]
        survivors = {job_key(PROBE, {}, seed) for seed in range(2)}

        for cut in range(last_start, last_end):
            path.write_bytes(blob[:cut])
            checkpoint = SweepCheckpoint(path)
            records = checkpoint.load()  # must never raise
            if cut == last_end - 1:
                # Complete record, only the newline missing: recovered.
                assert set(records) == survivors | {job_key(PROBE, {}, 2)}
                assert checkpoint.corrupt_lines == 0
            else:
                assert set(records) == survivors
                assert checkpoint.corrupt_lines == (
                    0 if cut == last_start else 1)
            # Restored results stay usable, flagged as not re-executed.
            results = checkpoint.results()
            assert len(results) == len(records)
            assert all(r.cache_hit for r in results.values())

    def test_record_after_every_tear_is_isolated_and_resumes(self, tmp_path):
        """After any tear, re-recording the damaged job must append a
        clean record — the resume path after a mid-append SIGKILL."""
        path = tmp_path / "sweep.jsonl"
        _build_checkpoint(path)
        blob = path.read_bytes()
        last_start, last_end = _line_spans(blob)[-1]
        for cut in range(last_start + 1, last_end - 1):
            path.write_bytes(blob[:cut])
            checkpoint = SweepCheckpoint(path)
            assert checkpoint.record(_result(2))
            reread = SweepCheckpoint(path)
            assert len(reread.load()) == 3
            assert reread.corrupt_lines == 1

    def test_every_offset_of_a_single_record_file(self, tmp_path):
        """Degenerate case: the whole file is one (torn) record."""
        path = tmp_path / "solo.jsonl"
        _build_checkpoint(path, n=1)
        blob = path.read_bytes()
        for cut in range(len(blob) - 1):
            path.write_bytes(blob[:cut])
            checkpoint = SweepCheckpoint(path)
            assert checkpoint.load() == {}
            assert checkpoint.corrupt_lines == (1 if cut else 0)


def _hammer_journal(path, worker, per_worker):
    """One process appending ``per_worker`` submissions to a shared
    journal — each a full submit/start/done triple."""
    journal = JobJournal(path)
    for i in range(per_worker):
        spec = JobSpec.from_payload(
            {"name": PROBE, "seed": worker * 10_000 + i})
        journal.submit(spec)
        journal.start(spec.sid, f"run-{worker}-{i}")
        journal.done(spec.sid, "ok", jobs=1, errors=0)


def _hammer_ledger(path, worker, per_worker):
    ledger = RunLedger(path)
    for i in range(per_worker):
        ledger.record(_result(worker * 10_000 + i), command="hammer")


class TestConcurrentAppenders:
    """N processes (or threads) hammering one journal / ledger:
    whole-record ``O_APPEND`` writes mean ZERO torn or interleaved
    lines — the byte-level guarantee a ledger shared by concurrent runs
    rests on."""

    PROCS = 4
    PER_WORKER = 25

    def _spawn(self, target, path, kind=multiprocessing.Process):
        workers = [kind(target=target, args=(path, w, self.PER_WORKER))
                   for w in range(self.PROCS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
            assert not worker.is_alive()
            assert getattr(worker, "exitcode", 0) == 0

    def test_journal_survives_concurrent_appenders(self, tmp_path):
        self._check_journal(tmp_path / "jobs.jsonl", multiprocessing.Process)

    def test_journal_survives_concurrent_thread_appenders(self, tmp_path):
        """A daemon's HTTP threads and chunk workers share its journal."""
        self._check_journal(tmp_path / "jobs.jsonl", threading.Thread)

    def _check_journal(self, path, kind):
        self._spawn(_hammer_journal, path, kind)

        # Every line parses on its own: no tears, no interleaving.
        lines = path.read_bytes().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == self.PROCS * self.PER_WORKER * 3

        state = JobJournal(path).replay()
        assert state.corrupt_lines == 0
        assert len(state.order) == self.PROCS * self.PER_WORKER
        assert len(state.done) == self.PROCS * self.PER_WORKER
        assert state.pending() == []

    def test_ledger_survives_concurrent_appenders(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._spawn(_hammer_ledger, path)

        lines = path.read_bytes().splitlines()
        assert all(json.loads(line) for line in lines)
        assert len(lines) == self.PROCS * self.PER_WORKER

        ledger = RunLedger(path)
        records = ledger.scan()
        assert ledger.corrupt_lines == 0
        assert len(records) == self.PROCS * self.PER_WORKER
        seeds = sorted(r["seed"] for r in records)
        assert seeds == sorted(w * 10_000 + i for w in range(self.PROCS)
                               for i in range(self.PER_WORKER))


class TestAppendRecordTornTailContract:
    def test_append_prefixes_newline_onto_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_record(path, b'{"a": 1}\n')
        with open(path, "ab") as handle:
            handle.write(b'{"torn": tru')  # no newline: torn tail
        append_record(path, b'{"b": 2}\n')
        lines = path.read_bytes().split(b"\n")
        parsed = []
        for line in lines:
            if not line:
                continue
            try:
                parsed.append(json.loads(line))
            except ValueError:
                parsed.append(None)
        assert parsed == [{"a": 1}, None, {"b": 2}]

    @pytest.mark.parametrize("tail", [b"", b"\n", b'{"x": 1}\n'])
    def test_clean_tails_get_no_spurious_blank_line(self, tmp_path, tail):
        path = tmp_path / "log.jsonl"
        if tail:
            path.write_bytes(tail)
        append_record(path, b'{"y": 2}\n')
        assert b"\n\n" not in path.read_bytes()
