"""Tests for the core layer: scenarios and the MemorySystem facade."""

import pytest

from repro import MITIGATIONS, MemorySystem, full_scale_scenario, scaled_scenario


class TestScenarios:
    def test_full_scale_budget(self):
        scenario = full_scale_scenario("B", 2013.0)
        assert 1_200_000 < scenario.attack_budget < 1_400_000

    def test_scaled_preserves_ratio(self):
        full = full_scale_scenario("B", 2013.0)
        scaled = scaled_scenario(scale=20.0)
        ratio_full = full.attack_budget / full.profile.hc_first_min
        ratio_scaled = scaled.attack_budget / scaled.profile.hc_first_min
        assert ratio_scaled == pytest.approx(ratio_full, rel=0.01)

    def test_scaled_is_cheaper(self):
        assert scaled_scenario(20.0).attack_budget < full_scale_scenario().attack_budget / 10

    def test_make_module(self):
        module = scaled_scenario().make_module(serial="t", seed=1)
        assert module.serial == "t"

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            scaled_scenario(scale=0)


class TestMemorySystem:
    def test_registry_names(self):
        assert set(MITIGATIONS) == {"none", "para", "cra", "anvil", "trr"}

    def test_unknown_mitigation(self):
        module = scaled_scenario().make_module()
        with pytest.raises(KeyError):
            MemorySystem(module, mitigation="bogus")

    def test_bare_system_flips(self):
        system = MemorySystem.build(scaled=True, seed=2)
        budget = scaled_scenario().attack_budget
        flips = system.hammer_double_sided(victim=1000, iterations=budget // 2)
        assert flips > 0
        report = system.report()
        assert report.flips == flips
        assert report.activations == budget // 2 * 2
        assert report.time_ns > 0
        assert report.dynamic_energy_nj > 0

    def test_para_system_protects(self):
        budget = scaled_scenario().attack_budget
        system = MemorySystem.build(
            scaled=True, seed=2, mitigation="para", mitigation_kwargs={"p": 0.05}
        )
        flips = system.hammer_double_sided(victim=1000, iterations=budget // 2)
        assert flips == 0
        assert system.report().mitigation_refreshes > 0

    def test_single_sided_driver(self):
        system = MemorySystem.build(scaled=True, seed=3)
        system.controller.run_activation_pattern(0, [500], 40_000)
        system.controller.finish()
        assert system.report().activations == 40_000

    def test_run_trace(self):
        system = MemorySystem.build(scaled=True, seed=4)
        system.run_trace([(0, 1, False), (0, 2, True)])
        assert system.report().activations >= 2
