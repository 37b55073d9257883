"""The declarative experiment registry: lookup, aliases, signature
introspection, and the seed-dispatch regression (the old ``except
TypeError`` retry must be structurally gone)."""

import pytest

from repro import experiments as E
from repro.experiments import registry


class TestRegistryContents:
    def test_all_experiments_registered(self):
        assert len(registry.names()) == 31

    def test_every_legacy_cli_name_resolves(self):
        # The full pre-refactor CLI name set keeps working as aliases.
        legacy = ("f1", "c2", "c3", "c4", "c5", "c5-sim", "c6", "c7", "c8",
                  "c9", "c9-fcr", "c10-c11", "c12", "c12-lifetime", "c13",
                  "c14", "sidedness", "trr-bypass", "userlevel",
                  "raidr-interaction", "codesign", "dpd", "emerging",
                  "multibank", "vref", "fleet")
        for name in legacy:
            assert registry.get(name).fn is not None

    def test_alias_and_canonical_name_reach_same_spec(self):
        assert registry.get("f1") is registry.get("fig1_error_rates")

    def test_unknown_name_raises(self):
        with pytest.raises(E.UnknownExperimentError):
            registry.get("nonexistent")

    def test_specs_carry_claim_section_tags(self):
        for spec in registry.all_specs():
            assert spec.claim
            assert spec.section
            assert spec.tags

    def test_tag_filter(self):
        flash = registry.all_specs(tag="flash")
        assert {s.name for s in flash} >= {"flash_error_sweep", "fcr_study"}

    def test_render_index_covers_all(self):
        index = registry.render_index(fmt="markdown")
        for name in registry.names():
            assert f"`{name}`" in index


class TestSignatureIntrospection:
    def test_seed_detected_from_signature(self):
        assert registry.get("fig1_error_rates").accepts_seed
        assert not registry.get("para_reliability").accepts_seed

    def test_seed_excluded_from_params(self):
        spec = registry.get("isolation_violations")
        assert "seed" not in spec.params
        assert spec.params["reads"].default == 2_600_000

    def test_bind_drops_seed_for_seedless_experiment(self):
        assert registry.get("para_reliability").bind(seed=7) == {}

    def test_bind_rejects_unknown_param(self):
        with pytest.raises(ValueError, match="no parameter"):
            registry.get("fig1_error_rates").bind(params={"bogus": 1})

    def test_bind_rejects_seed_in_params(self):
        with pytest.raises(ValueError, match="seed"):
            registry.get("fig1_error_rates").bind(params={"seed": 1})

    def test_params_schema_validated_against_signature(self):
        with pytest.raises(ValueError, match="does not take"):
            @E.experiment("_bad_schema", "x", section="II",
                          tags=("test",), params_schema={"nope": "ghost param"})
            def _bad_schema(seed: int = 0):
                return {}

    def test_duplicate_name_rejected(self):
        with pytest.raises(E.DuplicateExperimentError):
            @E.experiment("fig1_error_rates", "imposter", section="II", tags=("test",))
            def _imposter(seed: int = 0):
                return {}


class TestSeedDispatchRegression:
    """The old CLI did ``try: fn(seed=seed) except TypeError: fn()`` —
    any TypeError raised *inside* an experiment silently re-ran it
    without a seed.  The registry dispatches on the signature, so an
    inner TypeError must now propagate unchanged."""

    def test_inner_typeerror_propagates(self):
        calls = []

        @E.experiment("_typeerror_probe", "raises inside", section="II", tags=("test",))
        def _typeerror_probe(seed: int = 0):
            calls.append(seed)
            raise TypeError("raised inside the experiment body")

        try:
            with pytest.raises(TypeError, match="inside the experiment body"):
                E.execute_job("_typeerror_probe", seed=11)
            # Exactly one call: no silent seedless retry.
            assert calls == [11]
        finally:
            registry.unregister("_typeerror_probe")

    def test_seedless_experiment_never_called_with_seed(self):
        result = E.execute_job("para_reliability", seed=123)
        assert result.seed is None  # signature says no seed; none forced in
