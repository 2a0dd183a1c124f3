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

from .estimators import FROM_MN, FROM_ZN, ConfidenceInterval, confidence_interval
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
    _horizon,
    _raise_problems,
    count_problems,
    lockstep_trajectories,
    urn_problems,
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

    def __post_init__(self):
        problems = urn_problems(self.a, self.b, self.label) + count_problems(
            draw_base=self.draw_base, reinforce_base=self.reinforce_base)
        if problems:
            raise ConfigError(problems)


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
        # Each urn checked its own fields; these are the rules across urns,
        # keyed as a config writes the system: "urns[i].key" for an urn's
        # field, "urns[i]" or "urns" for a rule across fields.
        if not self.urns:
            raise ConfigError(["urns: must hold at least one urn"])
        labels = [u.label for u in self.urns]
        problems = ([] if len(set(labels)) == len(labels)
                    else [f"urns: labels must be distinct, got {labels}"])
        f = self.factors
        for i, u in enumerate(self.urns):
            if u.draw_base + f.draw_low < 1:
                problems.append(
                    f"urns[{i}].draw_base: factor can push draw size to "
                    f"{u.draw_base + f.draw_low} < 1; h(u) + min F' >= 1 is required"
                )
            if u.reinforce_base + f.reinforce_low < 1:
                problems.append(
                    f"urns[{i}].reinforce_base: factor can push reinforcement to "
                    f"{u.reinforce_base + f.reinforce_low} < 1; r(u) + min F'' >= 1 is required"
                )
        k = self.k
        for i, u in enumerate(self.urns):
            if k > u.a + u.b:
                problems.append(
                    f"urns[{i}]: global bound k = {k} exceeds a + b = {u.a + u.b}; "
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
    n = _horizon(n, len(traj))

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


def level_problems(level: float) -> list[str]:
    """The ``"key: message"`` problems of an interval's or a test's level:
    what the statistics compute from it (1 - level, the quantile arguments
    1 - (1 - level)/2 and 1 - level/2) must lie in (0, 1) in float64."""
    args = (level, 1.0 - level, 1.0 - (1.0 - level) / 2.0, 1.0 - level / 2.0)
    return [] if all(0.0 < p < 1.0 for p in args) else [
        f"level: must lie in (0, 1), more than 2**-53 from either end, got {level!r}"]


def combination_problems(
    coeffs: Mapping[str, float], basis: str, labels: tuple[str, ...]
) -> list[str]:
    """The ``"key: message"`` problems of a linear combination of the urns
    ``labels``: its basis is "Z" or "M", and its weights are finite, not
    all zero, and name at least one urn, each of them in ``labels``."""
    problems = [] if basis in ("Z", "M") else [f"basis: must be 'Z' or 'M', got {basis!r}"]
    if not coeffs:
        problems.append("coeffs: must name at least one urn")
    elif not all(math.isfinite(c) for c in coeffs.values()):
        problems.append(f"coeffs: weights must be finite, got {dict(coeffs)}")
    elif all(c == 0.0 for c in coeffs.values()):
        problems.append("coeffs: at least one weight must be nonzero")
    return problems + [f"coeffs: no urn labeled {lab!r}; labels are {labels}"
                       for lab in coeffs if lab not in labels]


def mtest_problems(target: str, refs: tuple[str, ...], labels: tuple[str, ...]) -> list[str]:
    """The ``"key: message"`` problems of a mean-reinforcement test on the
    urns ``labels``: the reference set ``refs`` is nonempty and its labels
    are distinct, the target is outside it, and every label names an urn."""
    problems = [] if refs else ["reference: must name at least one urn"]
    if len(set(refs)) != len(refs):
        problems.append(f"reference: labels must be distinct, got {refs}")
    if target in refs:
        problems.append(f"target: must not belong to the reference set, got {target!r}")
    for key, labs in (("target", (target,)), ("reference", refs)):
        problems += [f"{key}: no urn labeled {lab!r}; labels are {labels}"
                     for lab in labs if lab not in labels]
    return problems


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
    variance for basis M: ``montecarlo.combination`` on each urn's
    one-rep block, so the records of ``replicate`` give the same values.
    """
    from . import montecarlo as mc

    _raise_problems(level_problems(level) + combination_problems(coeffs, basis, traj.labels))
    blocks = {lab: mc.trajectory_block(traj.urn(lab), n) for lab in coeffs}
    center, variance = mc.combination(coeffs, blocks, basis)
    return confidence_interval(FROM_ZN if basis == "Z" else FROM_MN, float(center[0]),
                               float(variance[0]), next(iter(blocks.values())).horizon,
                               1.0 - level)


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
    no larger than the reference urns' common mean
    (``montecarlo.mean_reinforcement`` on the target's one-rep block and
    each reference's mean R at its horizon, the bits of its block)."""
    from . import montecarlo as mc

    refs = tuple(reference)
    _raise_problems(level_problems(level) + mtest_problems(u, refs, traj.labels))
    target = mc.trajectory_block(traj.urn(u), n)
    h = target.horizon
    stat, applicable, reject = mc.mean_reinforcement(
        target, [np.array([sum(traj.urn(v).R[:h].tolist()) / h]) for v in refs], level)
    return MeanReinforcementTest(
        target=u, reference=refs, alpha=level,
        statistic=float(stat[0]) if applicable[0] else None,
        reject=bool(reject[0]), applicable=bool(applicable[0]), n=target.horizon,
    )
