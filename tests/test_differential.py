"""The differential oracle: the columnar engine must be observationally
identical to the per-command reference on randomized command streams
and on randomized scalar scripts.

This suite is the equivalence contract's enforcement point: 100+ seeded
streams and 100+ seeded scalar scripts (cycling vulnerability profiles
and data patterns), explicit corner geometries/profiles, and a
sanitize-full section that makes the shadow-digest machinery part of
the comparison.
"""

import numpy as np
import pytest

from repro.dram import columnar
from repro.dram.columnar import ColumnarDramBank
from repro.dram.differential import (
    BANK_CLASSES,
    DEFAULT_GEOMETRY,
    DEFAULT_PROFILES,
    diff_observations,
    random_burst_script,
    random_script,
    random_stream,
    replay_script,
    replay_stream,
    run_differential,
    run_script_differential,
)
from repro.dram.disturbance import DisturbanceModel, VulnerabilityProfile
from repro.dram.geometry import DramGeometry
from repro.dram.stream import CommandStream
from repro.sanitizer import runtime as sanit


class TestOracleSeedSweep:
    """The headline property: engines agree on randomized streams."""

    @pytest.mark.parametrize("seed", range(100))
    def test_engines_agree(self, seed):
        result = run_differential(seed=seed)
        assert result["ok"], "\n".join(result["mismatches"])

    def test_sweep_exercises_flips(self):
        # The suite proves nothing if the streams never flip a bit.
        flips = sum(run_differential(seed=s)["flips"] for s in range(12))
        assert flips > 0

    def test_rounds_are_deterministic(self):
        a = random_stream(7)
        b = random_stream(7)
        assert list(a) == list(b)
        assert list(a) != list(random_stream(8))


class TestScriptOracle:
    """Scalar scripts — one ``activate``/``read``/``refresh_row``/...
    call at a time, as the controller, CPU and SoftMC paths issue them —
    must agree exactly, pressure, peak and ``hammer`` included."""

    @pytest.mark.parametrize("seed", range(100))
    def test_engines_agree_on_scripts(self, seed):
        result = run_script_differential(seed=seed)
        assert result["ok"], "\n".join(result["mismatches"])

    def test_scripts_exercise_flips_and_probes(self):
        flips = 0
        for seed in range(8):
            flips += run_script_differential(seed=seed)["flips"]
        assert flips > 0
        calls = {step[0] for seed in range(8) for step in random_script(seed)}
        assert calls == {"activate", "bulk_activate", "precharge", "read",
                         "write", "refresh_row", "refresh_rows",
                         "refresh_all", "settle", "stats", "pressure",
                         "row_bits"}

    @pytest.mark.parametrize("seed", range(24))
    def test_engines_agree_on_burst_scripts(self, seed):
        result = run_script_differential(seed=seed,
                                         generator=random_burst_script)
        assert result["ok"], "\n".join(result["mismatches"])

    def test_burst_scripts_flip_defer_and_replay(self, monkeypatch):
        # The bursts must cross thresholds, most of their refreshes must
        # run with the run still pending, and their commits must take
        # the per-period replay.
        periods, defers = [], []
        run_period = columnar._run_period
        refresh_defers = ColumnarDramBank._refresh_defers

        def spy_period(rows):
            periods.append(run_period(rows))
            return periods[-1]

        def spy_defers(bank, rows):
            defers.append(refresh_defers(bank, rows))
            return defers[-1]

        monkeypatch.setattr(columnar, "_run_period", spy_period)
        monkeypatch.setattr(ColumnarDramBank, "_refresh_defers", spy_defers)
        flips = sum(run_script_differential(seed=s, generator=random_burst_script)
                    ["flips"] for s in range(4))
        assert flips > 0
        assert sum(defers) > len(defers) / 2
        assert sum(map(bool, periods)) > 10

    def test_scalar_hammer_alone_flips_exactly(self):
        # Only per-command activations: the flips come out of the
        # columnar commit itself, not bulk or stream paths.
        script = []
        for i in range(1_500):
            script += [("activate", 99, float(i)), ("precharge",),
                       ("activate", 101, float(i))]
            if i % 500 == 499:
                script += [("pressure", 100), ("stats",)]
        script += [("refresh_row", 100, 2_000.0), ("stats",)]
        profile = DEFAULT_PROFILES[1]
        reference = replay_script(script, "reference", profile=profile, seed=4)
        candidate = replay_script(script, "columnar", profile=profile, seed=4)
        assert reference.stats["flips_materialized"] > 0
        assert not diff_observations(reference, candidate,
                                     float_rtol=0.0, float_atol=0.0)

    def test_scripts_are_deterministic(self):
        def key(script):
            return [tuple(a.tobytes() if isinstance(a, np.ndarray) else a
                          for a in step) for step in script]

        assert key(random_script(7)) == key(random_script(7))
        assert key(random_script(7)) != key(random_script(8))

    def test_exact_comparison_catches_one_ulp(self):
        script = random_script(1)
        a = replay_script(script, "reference", seed=1,
                          profile=DEFAULT_PROFILES[1])
        b = replay_script(script, "columnar", seed=1,
                          profile=DEFAULT_PROFILES[1])
        assert not diff_observations(a, b, float_rtol=0.0, float_atol=0.0)
        row = next(r for r, v in b.pressure.items() if v > 0)
        b.pressure[row] = np.nextafter(b.pressure[row], np.inf)
        assert any("pressure" in p for p in
                   diff_observations(a, b, float_rtol=0.0, float_atol=0.0))
        # The stream tolerance would have let it through.
        assert not diff_observations(a, b)

    def test_tampered_probe_is_caught(self):
        script = random_script(2)
        a = replay_script(script, "reference", seed=2)
        b = replay_script(script, "columnar", seed=2)
        assert b.probes
        b.probes[-1] = b.probes[-1][:-1] + (("tampered",),)
        assert any("probe" in p for p in diff_observations(a, b))


class TestOracleCorners:
    """Deliberate corner shapes on top of the random sweep."""

    def _agree(self, stream, geometry=DEFAULT_GEOMETRY,
               profile=DEFAULT_PROFILES[0], pattern="rowstripe", seed=0):
        reference = replay_stream(stream, "reference", geometry, profile,
                                  seed, pattern)
        candidate = replay_stream(stream, "columnar", geometry, profile,
                                  seed, pattern)
        problems = diff_observations(reference, candidate)
        assert not problems, "\n".join(problems)
        return reference

    def test_empty_stream(self):
        self._agree(CommandStream())

    def test_edge_rows_and_repeats(self):
        rows = DEFAULT_GEOMETRY.rows
        stream = (CommandStream()
                  .act(0, 4000).act(rows - 1, 4000)
                  .act(1, 4000).act(1, 4000)
                  .ref_row(0).ref_row(0).ref_all().settle())
        self._agree(stream)

    def test_aggressors_that_are_also_victims(self):
        # Adjacent hammered rows: each row is both an aggressor and a
        # bumped victim, which forces the cascade (dirty-recompute) path
        # through the batched materializer.
        stream = CommandStream()
        for row in range(10, 16):
            stream.act(row, 5000)
        stream.ref_all(10.0)
        self._agree(stream)

    def test_sub_threshold_pressure_still_instantiates(self):
        # Peaks below hc_first_min can never flip, but the reference
        # still instantiates the rows it evaluates — the columnar floor
        # precheck must preserve that.
        stream = CommandStream().act(50, 3).act(52, 3).ref_all(5.0)
        reference = self._agree(stream)
        assert reference.stats["flips_materialized"] == 0
        assert reference.touched_rows

    def test_invulnerable_profile(self):
        self._agree(random_stream(3), profile=DEFAULT_PROFILES[3])

    def test_distance2_heavy_profile(self):
        self._agree(random_stream(5), profile=DEFAULT_PROFILES[1])

    def test_dpd_relief_below_one(self):
        # relief < 1 lowers thresholds for relieved cells, exercising
        # the relief_floor handling in the batched candidate filter.
        profile = VulnerabilityProfile(
            weak_cell_density=0.06, hc_first_median=4_000.0,
            hc_first_min=900.0, aggressor_sensitive_fraction=0.8,
            dpd_relief=0.5)
        for seed in range(4):
            self._agree(random_stream(seed), profile=profile, seed=seed)

    def test_multi_block_geometry(self):
        geometry = DramGeometry(banks=1, rows=512, row_bytes=64)
        for seed in range(4):
            stream = random_stream(seed, geometry)
            self._agree(stream, geometry=geometry, seed=seed)

    def test_aperiodic_random_pattern(self):
        for seed in range(4):
            self._agree(random_stream(seed), pattern="random", seed=seed)

    def test_capped_flip_log_agrees(self):
        profile = DEFAULT_PROFILES[1]
        stream = random_stream(2)
        observations = []
        for engine in ("reference", "columnar"):
            model = DisturbanceModel(DEFAULT_GEOMETRY, profile, 2)
            bank = BANK_CLASSES[engine](DEFAULT_GEOMETRY, model, 0,
                                        default_pattern="rowstripe")
            bank.stats.flip_log_cap = 16
            returned = bank.execute(stream)
            observations.append((engine, returned, list(bank.stats.flip_log),
                                 bank.stats.flips_dropped,
                                 bank.stats.flips_materialized))
        ref, col = observations
        assert ref[1:] == col[1:]
        assert ref[3] > 0  # the cap actually bit
        assert len(ref[2]) == 16


class TestOracleDetectsDivergence:
    """Negative control: the comparator must not be vacuous."""

    def test_tampered_flip_log_is_caught(self):
        stream = random_stream(1)
        a = replay_stream(stream, "reference", seed=1, pattern="rowstripe",
                          profile=DEFAULT_PROFILES[1])
        b = replay_stream(stream, "columnar", seed=1, pattern="rowstripe",
                          profile=DEFAULT_PROFILES[1])
        assert not diff_observations(a, b)
        assert b.flip_log, "stream must flip for this control to bite"
        b.flip_log[0] = (b.flip_log[0][0], b.flip_log[0][1] ^ 1,
                         b.flip_log[0][2])
        b.stats["reads"] += 1
        problems = diff_observations(a, b)
        assert any("flip_log" in p for p in problems)
        assert any("stats" in p for p in problems)

    def test_tampered_row_data_is_caught(self):
        stream = random_stream(1)
        a = replay_stream(stream, "reference", seed=1)
        b = replay_stream(stream, "columnar", seed=1)
        row = next(iter(b.row_data))
        b.row_data[row] = b.row_data[row].copy()
        b.row_data[row][0] ^= 1
        assert any("row_data" in p for p in diff_observations(a, b))


class TestProvenance:
    """The oracle compares flip *provenance*, not just flip positions:
    tampering with any provenance field of one engine's log must be
    caught, while float-rounding-sized hammer differences must not."""

    def _pair(self):
        stream = random_stream(1)
        a = replay_stream(stream, "reference", seed=1, pattern="rowstripe",
                          profile=DEFAULT_PROFILES[1])
        b = replay_stream(stream, "columnar", seed=1, pattern="rowstripe",
                          profile=DEFAULT_PROFILES[1])
        assert not diff_observations(a, b)
        assert b.flip_log, "stream must flip for these controls to bite"
        return a, b

    @staticmethod
    def _with_field(entry, index, value):
        fields = list(entry)
        fields[index] = value
        return tuple(fields)

    def test_log_carries_full_provenance(self):
        _, b = self._pair()
        row, bit, time, aggressor, hammer, pattern, epoch = b.flip_log[0]
        assert pattern == "rowstripe"
        assert epoch >= 0
        assert hammer > 0.0
        assert any(entry[3] >= 0 for entry in b.flip_log), \
            "hammered victims must name a dominant aggressor"

    def test_tampered_aggressor_is_caught(self):
        a, b = self._pair()
        b.flip_log[0] = self._with_field(b.flip_log[0], 3,
                                         b.flip_log[0][3] + 1)
        assert any("flip_log" in p for p in diff_observations(a, b))

    def test_tampered_pattern_is_caught(self):
        a, b = self._pair()
        b.flip_log[0] = self._with_field(b.flip_log[0], 5, "solid1")
        assert any("flip_log" in p for p in diff_observations(a, b))

    def test_tampered_epoch_is_caught(self):
        a, b = self._pair()
        b.flip_log[0] = self._with_field(b.flip_log[0], 6,
                                         b.flip_log[0][6] + 1)
        assert any("flip_log" in p for p in diff_observations(a, b))

    def test_hammer_beyond_tolerance_is_caught(self):
        a, b = self._pair()
        b.flip_log[0] = self._with_field(b.flip_log[0], 4,
                                         b.flip_log[0][4] * 1.01)
        assert any("flip_log" in p for p in diff_observations(a, b))

    def test_hammer_within_tolerance_passes(self):
        # Columnar reassociates float sums, so hammer pressure is
        # compared with the same isclose tolerance as the pressure
        # observations — an ulp-sized wiggle must not fail the oracle.
        a, b = self._pair()
        hammer = b.flip_log[0][4]
        b.flip_log[0] = self._with_field(b.flip_log[0], 4,
                                         hammer * (1.0 + 1e-12))
        assert not diff_observations(a, b)


class TestOracleUnderSanitizer:
    """The contract holds with the sanitizer shadow machinery live —
    digests are then part of the compared observation."""

    @pytest.fixture(autouse=True)
    def _sanitize_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "full")
        sanit.sync_from_env()
        yield
        # conftest re-syncs the level after every test.

    @pytest.mark.parametrize("seed", range(12))
    def test_engines_agree_sanitized(self, seed):
        assert sanit.sanitize_on
        result = run_differential(seed=seed)
        assert result["ok"], "\n".join(result["mismatches"])

    @pytest.mark.parametrize("seed", range(12))
    def test_scripts_agree_sanitized(self, seed):
        assert sanit.sanitize_on
        result = run_script_differential(seed=seed)
        assert result["ok"], "\n".join(result["mismatches"])

    def test_script_digests_populated(self):
        script = random_script(2)
        reference = replay_script(script, "reference", seed=2,
                                  profile=DEFAULT_PROFILES[1])
        candidate = replay_script(script, "columnar", seed=2,
                                  profile=DEFAULT_PROFILES[1])
        assert reference.digests, "sanitize-full must record shadow digests"
        assert reference.digests == candidate.digests

    def test_digests_populated(self):
        stream = random_stream(2)
        reference = replay_stream(stream, "reference", seed=2,
                                  profile=DEFAULT_PROFILES[1])
        candidate = replay_stream(stream, "columnar", seed=2,
                                  profile=DEFAULT_PROFILES[1])
        assert reference.digests, "sanitize-full must record shadow digests"
        assert reference.digests == candidate.digests


def test_row_data_not_polluted_by_observation():
    # observe() reads every touched row; reading must not change what a
    # second observation sees (materialization is content-preserving).
    stream = random_stream(9)
    first = replay_stream(stream, "columnar", seed=9)
    second = replay_stream(stream, "columnar", seed=9)
    assert sorted(first.row_data) == sorted(second.row_data)
    for row, bits in first.row_data.items():
        assert np.array_equal(bits, second.row_data[row])
