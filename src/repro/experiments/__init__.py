"""The experiment framework: declarative registry + parallel runner.

Importing this package registers every paper experiment (split by paper
section into :mod:`~repro.experiments.dram`, ``attacks``,
``mitigations``, ``retention``, ``flash``, ``emerging``) and re-exports
them by name, so ``from repro.experiments import fig1_error_rates``
works.

Framework surface:

* :func:`~repro.experiments.registry.experiment` — the registration
  decorator (name, claim, section, tags, aliases, params_schema);
* :mod:`~repro.experiments.registry` — lookup by name or legacy alias,
  signature-introspected seed/param handling;
* :class:`~repro.experiments.runner.ExperimentRunner` — process-pool
  fan-out, deterministic sweep seeds, on-disk result cache (the resume
  point of an interrupted sweep);
* :class:`~repro.experiments.result.ExperimentResult` — payload +
  provenance (seed, params, duration, peak RSS, version).
"""

from repro.experiments import registry
from repro.experiments.registry import (
    DuplicateExperimentError,
    ExperimentSpec,
    ParamSpec,
    UnknownExperimentError,
    experiment,
)
from repro.experiments.result import ExperimentResult, canonical_json, to_jsonable

# Importing the section modules populates the registry.
from repro.experiments.attacks import (
    attack_gallery,
    multibank_study,
    pte_exploit_chain,
    sidedness_ablation,
    userlevel_attack_study,
)
from repro.experiments.dram import (
    codesign_study,
    fig1_error_rates,
    fleet_study,
    isolation_violations,
    pattern_dependence_study,
    rowhammer_basic,
)
from repro.experiments.emerging import emerging_memory_study, pcm_mapping_attack, pcm_study
from repro.experiments.flash import (
    fcr_study,
    flash_error_sweep,
    recovery_study,
    twostep_lifetime_study,
    twostep_study,
    vref_tuning_study,
    warm_retention_study,
)
from repro.experiments.mitigations import (
    cra_tradeoff,
    ecc_study,
    mitigation_comparison,
    para_controller_check,
    para_reliability,
    refresh_multiplier_sweep,
    row_retirement,
    trr_bypass_study,
)
from repro.experiments.retention import raidr_rowhammer_interaction, retention_study

# Runner imports come last: repro.experiments.runner imports the
# registry from this package.
from repro.experiments.runner import (
    ExperimentRunner,
    Job,
    JobTimeout,
    ResultCache,
    call_with_deadline,
    derive_seed,
    execute_job,
    execute_job_safe,
    job_key,
)

#: The single run-one-experiment entry point (CLI ``run``/``report``/
#: ``sweep`` and the pool workers all go through it).
run_experiment = execute_job

get = registry.get
names = registry.names
invocable_names = registry.invocable_names
all_specs = registry.all_specs

__all__ = [
    # framework
    "experiment",
    "registry",
    "ExperimentSpec",
    "ParamSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "ResultCache",
    "Job",
    "UnknownExperimentError",
    "DuplicateExperimentError",
    "derive_seed",
    "execute_job",
    "execute_job_safe",
    "run_experiment",
    "JobTimeout",
    "call_with_deadline",
    "job_key",
    "to_jsonable",
    "canonical_json",
    "get",
    "names",
    "invocable_names",
    "all_specs",
    # experiments, by paper section
    "rowhammer_basic",
    "fig1_error_rates",
    "isolation_violations",
    "pattern_dependence_study",
    "fleet_study",
    "codesign_study",
    "attack_gallery",
    "pte_exploit_chain",
    "sidedness_ablation",
    "userlevel_attack_study",
    "multibank_study",
    "refresh_multiplier_sweep",
    "ecc_study",
    "para_reliability",
    "para_controller_check",
    "cra_tradeoff",
    "mitigation_comparison",
    "trr_bypass_study",
    "row_retirement",
    "retention_study",
    "raidr_rowhammer_interaction",
    "flash_error_sweep",
    "fcr_study",
    "warm_retention_study",
    "vref_tuning_study",
    "recovery_study",
    "twostep_study",
    "twostep_lifetime_study",
    "pcm_study",
    "pcm_mapping_attack",
    "emerging_memory_study",
]
