"""Randomly reinforced urn simulation and limit-theorem checks.

An urn holds balls of two colors.  Each step draws a batch without
replacement, returns it, and adds new balls of the drawn colors in
proportion to a random reinforcement.  This package simulates such
urns exactly over integers, estimates the limiting proportion and its
fluctuation variance from a single trajectory, couples several urns
through common random factors, and runs replicated experiments that
check the asymptotic normality of the standard estimators.

Every name in ``__all__`` is defined in the submodule ``_EXPORTS``
lists it under.  ``import hrru`` loads none of them: a name's
submodule is imported the first time the name is read (PEP 562), so
``hrru simulate`` never loads the engine or the Monte Carlo modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "estimators": (
        "FROM_MN", "FROM_ZN", "ConfidenceInterval", "PlugInEstimates", "confidence_interval",
        "mean_interval", "normal_cdf", "normal_quantile", "plugin_estimates",
        "proportion_interval", "trajectory_variances", "variance_terms",
    ),
    "gof": ("ks_distance", "ks_two_sample", "max_ecdf_jump"),
    "montecarlo": (
        "CltDiagnostics", "CoverageReport", "HittingEstimate", "LimitLawReport",
        "MeanCltDiagnostics", "MTestFrequency", "ReplicationPlan", "RepRecords",
        "clt_check_mn", "clt_check_zn", "coverage_experiment",
        "hitting_probability_check", "limit_law_suite", "linear_combination_coverage",
        "mtest_rejection", "replicate", "walk_absorption_probability",
    ),
    "multi_urn": (
        "CommonFactors", "CrossIncrementStat", "MeanReinforcementTest",
        "SystemTrajectory", "UrnSpec", "UrnSystem", "conditional_independence_stat",
        "linear_combination_ci", "mean_reinforcement_test", "run_system",
    ),
    "rng": ("derive_key", "mix64", "stream_value"),
    "urn_core": (
        "AbsorbingRandomWalk", "ConfigError", "ConstantOne", "ConstantReinforcement",
        "DeterministicSchedule", "DiscreteDraw", "DiscreteReinforcement", "IidUniform",
        "IntegerDistribution", "ParameterError", "StepRecord", "Trajectory",
        "UniformReinforcement", "UrnConfig", "increment_identity_check", "run_trajectory",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
