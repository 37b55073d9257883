"""The report artifact renderer and its integrity gate.

The acceptance contract for the observability layer: a rendered
artifact's per-row flip totals must *exactly* equal the engine's own
flip log, both output formats must be self-contained single files, and
``check_report`` must catch an artifact whose three independently
accumulated flip totals (heat map, provenance, hardware counter)
disagree — before CI uploads it.
"""

from collections import Counter

import pytest

from repro import cli
from repro.dram.columnar import ColumnarDramBank
from repro.dram.differential import (
    DEFAULT_GEOMETRY,
    DEFAULT_PROFILES,
    random_stream,
)
from repro.dram.disturbance import DisturbanceModel
from repro.experiments import ExperimentResult
from repro.report import check_report, render_report
from repro.telemetry import MetricsRegistry, PhysicsCollector
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem

FINGERPRINT = {"git_sha": "deadbeef", "python": "3.x", "numpy": "2.x",
               "hostname": "test"}


@pytest.fixture(autouse=True)
def _clean_physics():
    with telem.observing(physics=PhysicsCollector()):
        phys.disable_physics()
        yield


def _hammered_bank():
    """One bank driven with physics on; returns (bank, collector)."""
    collector = phys.enable_physics(fresh=True)
    model = DisturbanceModel(DEFAULT_GEOMETRY, DEFAULT_PROFILES[1], 2)
    bank = ColumnarDramBank(DEFAULT_GEOMETRY, model, 0,
                            default_pattern="rowstripe")
    bank.execute(random_stream(2))
    phys.disable_physics()
    assert bank.stats.flips_materialized > 0
    return bank, collector


def _result(payload=None):
    return ExperimentResult(name="rowhammer_basic", payload=payload or {},
                            seed=0, duration_s=0.01)


def _heat_table(markdown: str):
    """Parse the Row heat map table back out of the artifact."""
    lines = iter(markdown.splitlines())
    for line in lines:
        if line.startswith("## Row heat map"):
            break
    rows = {}
    for line in lines:
        if line.startswith("## "):
            break
        if not line.startswith("|") or "---" in line or "bank" in line:
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[(int(cells[0]), int(cells[1]))] = int(cells[4])
    return rows


class TestArtifactMatchesFlipLog:
    """The acceptance criterion: artifact numbers == engine flip log."""

    def test_per_row_flip_totals_equal_the_flip_log(self):
        bank, collector = _hammered_bank()
        text = render_report([_result({"bit_flips": bank.stats.flips_materialized})],
                             physics=collector, fmt="markdown",
                             fingerprint=FINGERPRINT, row_limit=10 ** 6)
        from_log = Counter(entry[0] for entry in bank.stats.flip_log)
        from_artifact = {row: flips
                         for (b, row), flips in _heat_table(text).items()
                         if flips}
        assert from_artifact == dict(from_log)
        assert sum(from_artifact.values()) == bank.stats.flips_materialized

    def test_totals_line_matches(self):
        bank, collector = _hammered_bank()
        text = render_report([_result()], physics=collector, fmt="markdown",
                             fingerprint=FINGERPRINT)
        assert f"{bank.stats.flips_materialized} flips over" in text


class TestRendering:
    def test_markdown_sections(self):
        _, collector = _hammered_bank()
        collector.audit("para", "refresh", 1.0, bank=0, aggressor=5)
        text = render_report([_result()], physics=collector,
                             metrics=MetricsRegistry(), fmt="markdown",
                             fingerprint=FINGERPRINT)
        for section in ("# repro experiment report", "## Environment",
                        "## Results", "## Row heat map", "## Flip provenance",
                        "## Mitigation audit"):
            assert section in text
        assert "deadbeef" in text
        assert "para.refresh" in text

    def test_html_is_self_contained(self):
        _, collector = _hammered_bank()
        text = render_report([_result()], physics=collector, fmt="html",
                             fingerprint=FINGERPRINT)
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text  # CSS inlined
        for external in ("http://", "https://", "src=", "@import"):
            assert external not in text
        for heading in ("Row heat map", "Flip provenance", "Mitigation audit"):
            assert f"<h2>{heading}</h2>" in text

    def test_html_escapes_content(self):
        result = _result()
        bad = ExperimentResult(name="rowhammer_basic", payload=None, seed=0,
                               error="Boom: <script>alert(1)</script>")
        text = render_report([result, bad], fmt="html",
                             fingerprint=FINGERPRINT)
        assert "<script>alert" not in text
        assert "&lt;script&gt;" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report([_result()], fmt="pdf")

    def test_row_limit_bounds_tables_not_totals(self):
        bank, collector = _hammered_bank()
        text = render_report([_result()], physics=collector, fmt="markdown",
                             fingerprint=FINGERPRINT, row_limit=3)
        assert len(_heat_table(text)) == 3
        assert f"{bank.stats.flips_materialized} flips over" in text


class TestCheckReport:
    def _metrics_with_flips(self, flips: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("dram_bit_flips_total", bank=0).inc(flips)
        return registry

    def test_agreeing_totals_pass(self):
        bank, collector = _hammered_bank()
        metrics = self._metrics_with_flips(bank.stats.flips_materialized)
        assert check_report([_result()], collector, metrics) == []

    def test_empty_results_fail(self):
        assert check_report([], PhysicsCollector())

    def test_empty_physics_fails(self):
        problems = check_report([_result()], PhysicsCollector())
        assert any("empty" in p for p in problems)

    def test_metric_disagreement_fails(self):
        bank, collector = _hammered_bank()
        metrics = self._metrics_with_flips(bank.stats.flips_materialized + 1)
        problems = check_report([_result()], collector, metrics)
        assert any("dram_bit_flips_total" in p for p in problems)

    def test_internal_disagreement_fails(self):
        _, collector = _hammered_bank()
        # Corrupt the heat map only: provenance no longer agrees.
        key = next(iter(collector._heat))
        collector._heat[key][2] += 1
        problems = check_report([_result()], collector)
        assert any("disagree" in p for p in problems)

    def test_errored_jobs_fail(self):
        _, collector = _hammered_bank()
        bad = ExperimentResult(name="rowhammer_basic", payload=None, seed=3,
                               error="RuntimeError: boom")
        problems = check_report([_result(), bad], collector)
        assert any("errored" in p for p in problems)


class TestCliReport:
    def test_markdown_report_with_check(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = cli.main(["report", "rowhammer_basic", "--seeds", "2",
                         "--output", str(out), "--check",
                         "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        text = out.read_text()
        assert text.strip()
        for section in ("## Row heat map", "## Flip provenance",
                        "## Mitigation audit", "## Span tree", "## Metrics"):
            assert section in text
        assert "flip totals agree" in capsys.readouterr().err

    def test_cached_rerun_still_checks(self, tmp_path):
        # Second run resolves every job from the cache; the physics
        # layer must reabsorb the stored snapshots or --check fails.
        args = ["report", "rowhammer_basic", "--seeds", "2",
                "--output", str(tmp_path / "report.md"), "--check",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli.main(args) == 0
        assert cli.main(args) == 0
        assert "cache hit" in (tmp_path / "report.md").read_text()

    def test_html_format_inferred_from_extension(self, tmp_path):
        out = tmp_path / "report.html"
        code = cli.main(["report", "rowhammer_basic", "--seed", "1",
                         "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
