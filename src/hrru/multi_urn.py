"""Systems of labeled urns coupled through common random factors.

Each urn ``u`` has its own composition and base constants ``h(u)``
(draw size) and ``r(u)`` (reinforcement).  Optionally, one shared pair
of integer factors (F', F'') is drawn per step and added to every
urn's base constants:

    N_t(u) = h(u) + F'_t        R_t(u) = r(u) + F''_t

so draw sizes and reinforcements are correlated across urns while,
given the step's factors, the color counts X_t(u) are sampled from
independent hypergeometric laws on independent sub-streams.  Factor
supports are bounded integers, so the validity of every reachable
draw (1 <= N <= k <= a + b) is provable at configuration time.

A system urn is exactly a single urn (``UrnSystem.lockstep``): its
draw and reinforcement policies are the factor laws shifted by its
base constants (a constant where a factor is absent), and its slot
names the shared factor streams instead of the urn's own.
``run_system`` is one call to ``urn_core.lockstep_trajectories``, the
builder ``run_trajectory`` uses too: every urn steps with the one urn
rule at the system's shared extraction stride, and all urns read one
stream per factor.  Per-urn extraction streams are keyed by label and
purpose alone, so adding or removing an urn never perturbs another
urn's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .estimators import (
    FROM_MN,
    FROM_ZN,
    ConfidenceInterval,
    PlugInEstimates,
    VarianceEstimates,
    confidence_interval,
    normal_quantile,
    plugin_estimates,
    variance_estimates,
)
from .rng import FACTOR_DRAW, FACTOR_REINFORCE
from .urn_core import (
    ConfigError,
    ConstantReinforcement,
    DeterministicSchedule,
    DiscreteDraw,
    DiscreteReinforcement,
    IntegerDistribution,
    ParameterError,
    Trajectory,
    UrnConfig,
    UrnSlot,
    _is_int,
    lockstep_trajectories,
)


@dataclass(frozen=True)
class CommonFactors:
    """Distributions of the shared per-step shifts; None means fixed 0."""

    draw: IntegerDistribution | None = None
    reinforce: IntegerDistribution | None = None

    @property
    def draw_low(self) -> int:
        return self.draw.low if self.draw is not None else 0

    @property
    def draw_high(self) -> int:
        return self.draw.high if self.draw is not None else 0

    @property
    def reinforce_low(self) -> int:
        return self.reinforce.low if self.reinforce is not None else 0

    @property
    def reinforce_high(self) -> int:
        return self.reinforce.high if self.reinforce is not None else 0


NO_FACTORS = CommonFactors()


@dataclass(frozen=True)
class UrnSpec:
    """One urn's initial counts and base constants."""

    label: str
    a: int
    b: int
    draw_base: int
    reinforce_base: int


@dataclass(frozen=True)
class UrnSystem:
    """Validated collection of urns plus the shared factor spec.

    ``k`` is the global bound: the largest draw size or reinforcement
    any urn can emit once factors are added.  Validation proves
    1 <= N_t(u) and N_t(u) <= k <= a(u) + b(u) for every urn up
    front, so factor draws can never push a step out of range.
    """

    urns: tuple[UrnSpec, ...]
    factors: CommonFactors = NO_FACTORS

    def __post_init__(self):
        problems = []
        if not self.urns:
            problems.append("system needs at least one urn")
        labels = [u.label for u in self.urns]
        if len(set(labels)) != len(labels):
            problems.append(f"urn labels must be distinct, got {labels}")
        for u in self.urns:
            if not isinstance(u.label, str) or not u.label:
                problems.append(f"urn {u.label!r}: label must be a nonempty string")
            if not _is_int(u.a) or u.a < 1:
                problems.append(f"urn {u.label!r}: a must be an integer >= 1, got {u.a!r}")
            if not _is_int(u.b) or u.b < 1:
                problems.append(f"urn {u.label!r}: b must be an integer >= 1, got {u.b!r}")
            if not _is_int(u.draw_base) or u.draw_base < 1:
                problems.append(
                    f"urn {u.label!r}: draw base must be an integer >= 1, got {u.draw_base!r}"
                )
            if not _is_int(u.reinforce_base) or u.reinforce_base < 1:
                problems.append(
                    f"urn {u.label!r}: reinforcement base must be an integer >= 1, "
                    f"got {u.reinforce_base!r}"
                )
        if problems:
            raise ConfigError(problems)
        f = self.factors
        for u in self.urns:
            if u.draw_base + f.draw_low < 1:
                problems.append(
                    f"urn {u.label!r}: factor can push draw size to "
                    f"{u.draw_base + f.draw_low} < 1; h(u) + min F' >= 1 is required"
                )
            if u.reinforce_base + f.reinforce_low < 1:
                problems.append(
                    f"urn {u.label!r}: factor can push reinforcement to "
                    f"{u.reinforce_base + f.reinforce_low} < 1; r(u) + min F'' >= 1 is required"
                )
        k = self.k
        for u in self.urns:
            if k > u.a + u.b:
                problems.append(
                    f"urn {u.label!r}: global bound k = {k} exceeds a + b = {u.a + u.b}; "
                    f"k <= a + b is required for every urn"
                )
        if problems:
            raise ConfigError(problems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(u.label for u in self.urns)

    @property
    def k(self) -> int:
        f = self.factors
        return max(
            max(u.draw_base + f.draw_high for u in self.urns),
            max(u.reinforce_base + f.reinforce_high for u in self.urns),
        )

    @property
    def draw_stride(self) -> int:
        """Extraction counters reserved per step, shared by all urns."""
        f = self.factors
        return max(u.draw_base + f.draw_high for u in self.urns)

    def urn(self, label: str) -> UrnSpec:
        for u in self.urns:
            if u.label == label:
                return u
        raise ParameterError(f"no urn labeled {label!r}; labels are {self.labels}")

    @cached_property
    def lockstep(self) -> tuple[tuple[UrnSlot, ...], int]:
        """Every urn as the single urn it is, on the shared factor streams,
        plus the shared extraction stride."""
        slots = tuple(
            UrnSlot(_urn_config_for(u, self.factors), (FACTOR_DRAW,), (FACTOR_REINFORCE,))
            for u in self.urns
        )
        return slots, self.draw_stride


def _urn_config_for(spec: UrnSpec, f: CommonFactors) -> UrnConfig:
    # The urn's marginal laws, also its echoed config: shared factors
    # shift the support but keep draws i.i.d. across steps.
    if f.draw is None:
        draw = DeterministicSchedule((spec.draw_base,))
    else:
        draw = DiscreteDraw(
            tuple(spec.draw_base + v for v in f.draw.values), f.draw.probs
        )
    if f.reinforce is None:
        reinforce = ConstantReinforcement(spec.reinforce_base)
    else:
        reinforce = DiscreteReinforcement(
            tuple(spec.reinforce_base + v for v in f.reinforce.values), f.reinforce.probs
        )
    return UrnConfig(
        a=spec.a, b=spec.b, draw=draw, reinforce=reinforce, label=spec.label,
    )


@dataclass(frozen=True)
class SystemTrajectory:
    """Aligned per-urn trajectories plus the shared factor draws."""

    system: UrnSystem
    seed: int | None
    urns: dict[str, Trajectory]
    factor_draw: np.ndarray
    factor_reinforce: np.ndarray

    def __len__(self) -> int:
        return len(self.factor_draw)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.system.labels

    def urn(self, label: str) -> Trajectory:
        if label not in self.urns:
            raise ParameterError(f"no urn labeled {label!r}; labels are {self.labels}")
        return self.urns[label]


def run_system(
    system: UrnSystem,
    steps: int,
    master_seed: int,
    rep: int = 0,
) -> SystemTrajectory:
    """Simulate ``steps`` coupled steps of replication ``rep`` of the
    whole system."""
    slots, stride = system.lockstep
    trajs = lockstep_trajectories(slots, stride, master_seed, rep, steps)
    # Every urn reads the same factors; the first urn's N and R carry them.
    spec, first = system.urns[0], trajs[0]
    return SystemTrajectory(
        system=system, seed=master_seed,
        urns={traj.config.label: traj for traj in trajs},
        factor_draw=first.N - spec.draw_base,
        factor_reinforce=first.R - spec.reinforce_base,
    )


@dataclass(frozen=True)
class CrossIncrementStat:
    """Pooled mean of cross-urn products of centered draw fractions.

    At each step the product (X'_t(u) - Z_{t-1}(u)) (X'_t(v) - Z_{t-1}(v))
    has conditional mean zero when the color draws are conditionally
    independent across urns, so the pooled mean over a long trajectory
    should sit within a few standard errors of zero.
    """

    mean: float
    std_error: float
    steps: int

    @property
    def in_units_of_se(self) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.mean == 0.0 else math.inf
        return self.mean / self.std_error


def conditional_independence_stat(
    traj: SystemTrajectory, u: str, v: str, n: int | None = None
) -> CrossIncrementStat:
    """Empirical check of cross-urn conditional independence."""
    if u == v:
        raise ParameterError("labels must name two distinct urns")
    tu, tv = traj.urn(u), traj.urn(v)
    total = len(traj)
    if n is None:
        n = total
    if not _is_int(n) or not (1 <= n <= total):
        raise ParameterError(f"n must be an integer in [1, {total}], got {n!r}")

    def centered(t: Trajectory) -> np.ndarray:
        xp = t.X[:n] / t.N[:n]
        z_prev = np.empty(n, dtype=np.float64)
        z_prev[0] = t.z0
        z_prev[1:] = t.Z[: n - 1]
        return xp - z_prev

    prod = centered(tu) * centered(tv)
    mean = float(np.mean(prod))
    sd = float(np.std(prod, ddof=1)) if n > 1 else 0.0
    return CrossIncrementStat(mean=mean, std_error=sd / math.sqrt(n), steps=n)


@dataclass(frozen=True)
class UrnLimitSummary:
    """Per-urn plug-in state at one horizon."""

    label: str
    z_n: float
    m_emp_n: float
    estimates: PlugInEstimates
    variances: VarianceEstimates


def per_urn_summary(traj: SystemTrajectory, n: int | None = None) -> dict[str, UrnLimitSummary]:
    out = {}
    for lab in traj.labels:
        t = traj.urn(lab)
        est = plugin_estimates(t, n)
        m = est.n
        z_n = float(t.Z[m - 1])
        m_emp = float(t.M[m - 1])
        out[lab] = UrnLimitSummary(
            label=lab, z_n=z_n, m_emp_n=m_emp,
            estimates=est,
            variances=variance_estimates(z_n, m_emp, est),
        )
    return out


def check_coefficients(coeffs: Mapping[str, float]) -> None:
    """Raise ``ParameterError`` unless the weights of a linear
    combination are finite, name at least one urn and are not all zero."""
    if not coeffs:
        raise ParameterError("coefficient map must name at least one urn")
    if not all(math.isfinite(c) for c in coeffs.values()):
        raise ParameterError(f"coefficients must be finite, got {dict(coeffs)}")
    if all(c == 0.0 for c in coeffs.values()):
        raise ParameterError("at least one coefficient must be nonzero")


def linear_combination_ci(
    traj: SystemTrajectory,
    coeffs: Mapping[str, float],
    basis: str,
    n: int | None,
    level: float,
) -> ConfidenceInterval:
    """Interval for a linear combination of limit proportions.

    ``coeffs`` maps urn labels to real weights; the center is the
    weighted sum of Z_n (basis "Z") or M_n (basis "M"), and the
    variance adds per-urn contributions with squared weights, using
    the proportion-limit variance for basis Z and the empirical-mean
    variance for basis M.
    """
    if basis not in ("Z", "M"):
        raise ParameterError(f"basis must be 'Z' or 'M', got {basis!r}")
    check_coefficients(coeffs)
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level!r}")
    summaries = per_urn_summary(traj, n)
    for lab in coeffs:
        if lab not in summaries:
            raise ParameterError(f"no urn labeled {lab!r}; labels are {traj.labels}")
    m = next(iter(summaries.values())).estimates.n
    if basis == "Z":
        center = math.fsum(c * summaries[lab].z_n for lab, c in coeffs.items())
        variance = math.fsum(c * c * summaries[lab].variances.v_n for lab, c in coeffs.items())
        tag = FROM_ZN
    else:
        center = math.fsum(c * summaries[lab].m_emp_n for lab, c in coeffs.items())
        variance = math.fsum(c * c * summaries[lab].variances.w_n for lab, c in coeffs.items())
        tag = FROM_MN
    return confidence_interval(tag, center, variance, m, 1.0 - level)


@dataclass(frozen=True)
class MeanReinforcementTest:
    """Outcome of the equal-mean-reinforcement test for one urn.

    ``statistic`` compares the scaled gap between the urn's empirical
    mean and its proportion against the pooled mean reinforcement of
    the reference urns; large values are evidence that the target's
    mean reinforcement exceeds the reference mean.  When the gap
    variance estimate U_n is zero the gap law degenerates and the test
    is reported as inapplicable instead of raising.
    """

    target: str
    reference: tuple[str, ...]
    alpha: float
    statistic: float | None
    reject: bool
    applicable: bool
    n: int


def mean_reinforcement_test(
    traj: SystemTrajectory,
    u: str,
    reference: Sequence[str],
    n: int | None,
    level: float,
) -> MeanReinforcementTest:
    """Asymptotic test of H0: the target urn's mean reinforcement is
    no larger than the reference urns' common mean."""
    refs = tuple(reference)
    if not refs:
        raise ParameterError("reference set must be nonempty")
    if u in refs:
        raise ParameterError(f"target {u!r} must not belong to the reference set")
    if len(set(refs)) != len(refs):
        raise ParameterError(f"reference labels must be distinct, got {refs}")
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level!r}")
    summaries = per_urn_summary(traj, n)
    for lab in (u, *refs):
        if lab not in summaries:
            raise ParameterError(f"no urn labeled {lab!r}; labels are {traj.labels}")
    s_u = summaries[u]
    m = s_u.estimates.n
    u_n = s_u.variances.u_n
    if u_n <= 0.0:
        return MeanReinforcementTest(
            target=u, reference=refs, alpha=level,
            statistic=None, reject=False, applicable=False, n=m,
        )
    ref_mean = math.fsum(summaries[v].estimates.m_n for v in refs) / len(refs)
    statistic = (
        math.sqrt(ref_mean)
        / math.sqrt(s_u.estimates.m_n)
        * math.sqrt(m)
        * abs(s_u.m_emp_n - s_u.z_n)
        / math.sqrt(u_n)
    )
    reject = statistic > normal_quantile(1.0 - level / 2.0)
    return MeanReinforcementTest(
        target=u, reference=refs, alpha=level,
        statistic=statistic, reject=reject, applicable=True, n=m,
    )
