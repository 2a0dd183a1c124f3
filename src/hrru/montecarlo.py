"""Deterministic parallel replication and limit-theorem diagnostics.

A ReplicationPlan names a configuration, a replication count, an
evaluation horizon ``n``, a long proxy horizon ``n_proxy``, and a
master seed.  Replication ``r`` is a pure function of
(master_seed, r): the engine derives every stream from that pair, so
results are bit-identical whatever the chunking, worker count, or
execution order.  ``replicate`` picks the chunks: one equal share of
the reps per worker (fewer for a plan too small to pay for a worker),
split further only where a share's arrays would exceed the engine's
budget (``engine.lane_cap``).  Chunk outputs are reassembled in index
order.

The diagnostics take the records of one ``replicate`` call, standardize
per-rep statistics with each rep's own plug-in variance and compare
them against the standard normal law:

    T_prop = sqrt(n) (Z_n - Z_proxy) / sqrt(V_n)
    T_gap  = sqrt(n) (M_n - Z_n)     / sqrt(U_n)
    T_mean = sqrt(n) (M_n - Z_proxy) / sqrt(W_n)

``Z_proxy``, the proportion at the far horizon, stands in for the
almost-sure limit; ``n_proxy >= 10 n`` keeps the resulting variance
distortion within the acceptance tolerances.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import engine, gof, rng
from .estimators import normal_cdf, normal_quantile, variance_terms
from .multi_urn import UrnSystem, check_coefficients
from .urn_core import (
    ConstantReinforcement,
    CustomRule,
    DiscreteReinforcement,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    _is_int,
    walk_move,
)

DEFAULT_PROXY_FACTOR = 50
# The level of the CLT diagnostics' coverage of |gap| <= z_q sqrt(var / n).
CLT_COVERAGE_LEVEL = 0.95


@dataclass(frozen=True)
class ReplicationPlan:
    """What to simulate, how many times, and under which seed."""

    config: UrnConfig | UrnSystem
    reps: int
    n: int
    n_proxy: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if not _is_int(self.reps) or self.reps < 1:
            raise ParameterError(f"reps must be an integer >= 1, got {self.reps!r}")
        if not _is_int(self.n) or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n!r}")
        if self.n_proxy is not None:
            if not _is_int(self.n_proxy) or self.n_proxy < 10 * self.n:
                raise ParameterError(
                    f"n_proxy must be an integer >= 10 n = {10 * self.n}, got {self.n_proxy!r}"
                )
        engine.check_int64_range(self.config, self.proxy_horizon)

    @property
    def proxy_horizon(self) -> int:
        return self.n_proxy if self.n_proxy is not None else DEFAULT_PROXY_FACTOR * self.n

    @property
    def horizons(self) -> tuple[int, int]:
        """The engine's snapshot horizons: ``n`` and the proxy horizon."""
        return (self.n, self.proxy_horizon)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(slot.config.label for slot in self.config.lockstep[0])


@dataclass(frozen=True)
class HorizonBlock:
    """Per-rep summaries of one urn at one horizon (aligned arrays)."""

    horizon: int
    z: np.ndarray
    m_emp: np.ndarray
    s_over_n: np.ndarray
    reinf_mean: np.ndarray
    reinf_sqmean: np.ndarray
    draw_mean: np.ndarray
    draw_recipmean: np.ndarray

    def take(self, m: int) -> "HorizonBlock":
        return HorizonBlock(
            horizon=self.horizon,
            **{f: getattr(self, f)[:m] for f in engine.SNAPSHOT_FIELDS},
        )

    def variances(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V, W, U) plug-in arrays, one entry per rep."""
        return variance_terms(
            self.z, self.m_emp,
            self.reinf_mean, self.reinf_sqmean,
            self.draw_mean, self.draw_recipmean,
        )


@dataclass(frozen=True)
class UrnRecords:
    at_n: HorizonBlock
    at_proxy: HorizonBlock


@dataclass(frozen=True)
class RepRecords:
    """All per-rep summaries produced by one plan."""

    plan: ReplicationPlan
    urns: dict[str, UrnRecords]

    @property
    def single(self) -> UrnRecords:
        if len(self.urns) != 1:
            raise ParameterError(
                f"plan has {len(self.urns)} urns; name one of {tuple(self.urns)}"
            )
        return next(iter(self.urns.values()))

    def __len__(self) -> int:
        return len(next(iter(self.urns.values())).at_n.z)

    def take(self, m: int) -> "RepRecords":
        if not (1 <= m <= len(self)):
            raise ParameterError(f"cannot take {m} of {len(self)} reps")
        return RepRecords(
            plan=replace(self.plan, reps=m),
            urns={
                lab: UrnRecords(at_n=u.at_n.take(m), at_proxy=u.at_proxy.take(m))
                for lab, u in self.urns.items()
            },
        )


# A plan gets no more equal shares than it has this many lane-steps.
# Measured on 2 cores (reference urn, 10 alternating pairs per size,
# fresh processes): one process beat a pool of two up to 0.75 * 2**20
# lane-steps, tied near 2**20 and lost from 1.5 * 2**20 on.
_SHARE_LANE_STEPS = 1 << 19


def _chunk_bounds(plan: ReplicationPlan, workers: int) -> list[tuple[int, int]]:
    """The plan's reps as contiguous ranges of sizes differing by at most one.

    Up to ``workers`` equal shares (no more than the plan has
    ``_SHARE_LANE_STEPS`` lane-steps), each split into as few chunks as
    keep every chunk within ``engine.lane_cap`` lanes.
    """
    cap = engine.lane_cap(plan.config, len(plan.horizons))
    lane_steps = plan.reps * plan.proxy_horizon * len(plan.labels)
    shares = max(1, min(workers, lane_steps // _SHARE_LANE_STEPS))
    chunks = min(shares * -(-plan.reps // (shares * cap)), plan.reps)
    return [(plan.reps * i // chunks, plan.reps * (i + 1) // chunks) for i in range(chunks)]


def _run_one_chunk(args):
    config, master_seed, lo, hi, horizons = args
    return engine.run_chunk(config, master_seed, lo, hi, horizons)


# The cgroup file system: v2 keeps the CPU quota in cpu.max, v1 in
# cpu/cpu.cfs_quota_us over cpu/cpu.cfs_period_us.
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota() -> int | None:
    # The CPUs the cgroup's quota pays for, rounded up; None when there
    # is no quota ("max" or -1) or no readable file.
    try:
        quota, period = (_CGROUP / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (_CGROUP / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (_CGROUP / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        quota, period = int(quota), int(period)
    except ValueError:
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _usable_cpus() -> int:
    # The CPUs this process may run on: its affinity set where the
    # platform reports one (taskset, container cpusets), else the count,
    # and no more than the cgroup's CPU quota.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def replicate(plan: ReplicationPlan, workers: int | None = None) -> RepRecords:
    """Run every replication of the plan; output is worker-independent.

    This is the one place a plan is simulated: every diagnostic below
    takes the records it returns.  The chunks (``_chunk_bounds``, the
    only chunking) run on ``min(workers, chunks, usable CPUs)``
    processes, with ``workers`` defaulting to the usable CPUs.  A plan
    gets no more shares than it has ``_SHARE_LANE_STEPS`` lane-steps,
    so a small one runs in this process whatever ``workers`` says.  The
    per-rep values are identical in every case
    because each rep's streams depend only on (master_seed, rep index).
    ``CustomRule`` plans run in this process, since their rules need
    not be picklable.
    """
    usable = _usable_cpus()
    nworkers = usable if workers is None else int(workers)
    if nworkers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers!r}")
    horizons = plan.horizons
    bounds = _chunk_bounds(plan, min(nworkers, usable))
    tasks = [(plan.config, plan.master_seed, lo, hi, horizons) for lo, hi in bounds]
    nworkers = min(nworkers, len(tasks), usable)
    if nworkers == 1 or isinstance(getattr(plan.config, "draw", None), CustomRule):
        chunk_results = [_run_one_chunk(t) for t in tasks]
    else:
        # imported here: the pool module costs about 20 ms to import, and
        # `simulate` and one-worker runs never start a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            chunk_results = list(pool.map(_run_one_chunk, tasks))
    urns = {}
    for label in plan.labels:
        blocks = []
        for hidx, horizon in enumerate(horizons):
            fields = {
                f: np.concatenate([cr[label][hidx][f] for cr in chunk_results])
                for f in engine.SNAPSHOT_FIELDS
            }
            blocks.append(HorizonBlock(horizon=horizon, **fields))
        urns[label] = UrnRecords(at_n=blocks[0], at_proxy=blocks[1])
    return RepRecords(plan=plan, urns=urns)


@dataclass(frozen=True)
class CltDiagnostics:
    """A standardized statistic's sample and its normal-law distances."""

    kind: str
    samples: np.ndarray
    ks_distance: float
    coverage: float | None
    coverage_level: float | None
    excluded: int
    reps: int
    aux: dict[str, float]


def _proxy_aux(urn: UrnRecords) -> dict[str, float]:
    blk = urn.at_proxy
    target = blk.draw_mean * blk.reinf_mean
    abs_err = np.abs(blk.s_over_n - target)
    return {
        "s_over_n_max_abs_err": float(np.max(abs_err)),
        "s_over_n_max_rel_err": float(np.max(abs_err / target)),
        "proxy_max_ecdf_jump": gof.max_ecdf_jump(blk.z),
        "proxy_boundary_fraction": gof.boundary_fraction(blk.z),
    }


def _ks_vs_normal(samples: np.ndarray) -> float:
    return gof.ks_distance(samples, normal_cdf)


@dataclass(frozen=True)
class CltStatistics:
    """Every rep's plug-in variances, gaps and standardized statistics at n.

    The ``t_*`` arrays hold every rep, with nan or inf where the
    variance estimate is not positive; the diagnostics keep only the
    reps whose estimate is positive.
    """

    v: np.ndarray
    w: np.ndarray
    u: np.ndarray
    gap_zp: np.ndarray         # Z_n - Z_proxy
    gap_mz: np.ndarray         # M_n - Z_n
    gap_mp: np.ndarray         # M_n - Z_proxy
    t_prop: np.ndarray
    t_gap: np.ndarray
    t_mean: np.ndarray


def clt_statistics(plan: ReplicationPlan, records: RepRecords) -> CltStatistics:
    """T_prop, T_gap and T_mean of every rep, from one variance evaluation."""
    u = records.single
    v, w, uu = u.at_n.variances()
    gap_zp = u.at_n.z - u.at_proxy.z
    gap_mz = u.at_n.m_emp - u.at_n.z
    gap_mp = u.at_n.m_emp - u.at_proxy.z
    rootn = math.sqrt(plan.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_prop = rootn * gap_zp / np.sqrt(v)
        t_gap = rootn * gap_mz / np.sqrt(uu)
        t_mean = rootn * gap_mp / np.sqrt(w)
    return CltStatistics(v=v, w=w, u=uu, gap_zp=gap_zp, gap_mz=gap_mz, gap_mp=gap_mp,
                         t_prop=t_prop, t_gap=t_gap, t_mean=t_mean)


def _normal_diag(
    kind: str,
    t: np.ndarray,
    var: np.ndarray,
    plan: ReplicationPlan,
    aux: dict[str, float],
    gap: np.ndarray | None = None,
) -> CltDiagnostics:
    """KS distance of ``t`` over the reps with ``var > 0``; with a gap,
    also the coverage of ``|gap| <= z_q sqrt(var / n)`` over all reps at
    ``CLT_COVERAGE_LEVEL``."""
    n, reps = plan.n, plan.reps
    included = var > 0.0
    samples = t[included]
    coverage = level = None
    if gap is not None:
        level = CLT_COVERAGE_LEVEL
        zq = normal_quantile(0.5 + level / 2.0)
        coverage = float(np.count_nonzero(np.abs(gap) <= zq * np.sqrt(var / n))) / reps
    return CltDiagnostics(
        kind=kind,
        samples=samples,
        ks_distance=_ks_vs_normal(samples) if len(samples) else math.nan,
        coverage=coverage,
        coverage_level=level,
        excluded=int(reps - np.count_nonzero(included)),
        reps=reps,
        aux=aux,
    )


@dataclass(frozen=True)
class MeanCltDiagnostics:
    gap: CltDiagnostics        # sqrt(n)(M_n - Z_n)/sqrt(U_n)
    proportion: CltDiagnostics  # sqrt(n)(Z_n - Z_proxy)/sqrt(V_n)
    mean: CltDiagnostics       # sqrt(n)(M_n - Z_proxy)/sqrt(W_n)
    corr_gap_proportion: float | None
    median_abs_gap: float      # median of sqrt(n)|M_n - Z_n|, all reps
    stats: CltStatistics       # every rep's variances and statistics


def clt_check_mn(plan: ReplicationPlan, records: RepRecords) -> MeanCltDiagnostics:
    """Normal-law checks for the empirical mean at horizon n.

    The gap statistic and the proportion statistic are asymptotically
    independent components of a product kernel; their empirical
    correlation is reported as that diagnostic.  Reps with a zero
    variance estimate are excluded from the affected statistic and
    counted, never silently dropped.
    """
    s = clt_statistics(plan, records)
    aux = _proxy_aux(records.single)
    both = (s.u > 0.0) & (s.v > 0.0)
    if np.count_nonzero(both) >= 2:
        corr = float(np.corrcoef(s.t_gap[both], s.t_prop[both])[0, 1])
    else:
        corr = None
    return MeanCltDiagnostics(
        gap=_normal_diag("gap", s.t_gap, s.u, plan, {}),
        proportion=_normal_diag("proportion", s.t_prop, s.v, plan, aux, s.gap_zp),
        mean=_normal_diag("mean", s.t_mean, s.w, plan, aux, s.gap_mp),
        corr_gap_proportion=corr,
        median_abs_gap=float(np.median(math.sqrt(plan.n) * np.abs(s.gap_mz))),
        stats=s,
    )


def clt_check_zn(plan: ReplicationPlan, records: RepRecords) -> CltDiagnostics:
    """Normal-law check for the scaled proportion error at horizon n."""
    s = clt_statistics(plan, records)
    return _normal_diag("proportion", s.t_prop, s.v, plan, _proxy_aux(records.single), s.gap_zp)


def _constant_reinforcement_value(policy) -> int | None:
    if isinstance(policy, ConstantReinforcement):
        return policy.value
    if isinstance(policy, UniformReinforcement) and policy.low == policy.high:
        return policy.low
    if isinstance(policy, DiscreteReinforcement) and len(policy.values) == 1:
        return policy.values[0]
    return None


@dataclass(frozen=True)
class LimitLawReport:
    """Diagnostics of the limit proportion's law at the proxy horizon."""

    horizon: int
    reps: int
    s_over_n_max_abs_err: float
    s_over_n_max_rel_err: float
    max_ecdf_jump: float
    boundary_fraction: float
    beta_params: tuple[float, float] | None
    beta_ks: float | None


def limit_law_suite(plan: ReplicationPlan, records: RepRecords) -> LimitLawReport:
    """Growth-rate and no-atom diagnostics; Beta reference when exact.

    For single-ball draws with constant reinforcement ``k`` the limit
    proportion has the Beta(a/k, b/k) law, so the proxy sample is also
    tested against that reference CDF.
    """
    urn = records.single
    aux = _proxy_aux(urn)
    beta_params = None
    beta_ks = None
    cfg = plan.config
    if isinstance(cfg, UrnConfig):
        const_r = _constant_reinforcement_value(cfg.reinforce)
        if cfg.draw.bound == 1 and const_r is not None:
            beta_params = (cfg.a / const_r, cfg.b / const_r)
            zp = urn.at_proxy.z
            beta_ks = gof.ks_distance(
                zp, lambda x: gof.beta_cdf(x, beta_params[0], beta_params[1])
            )
    return LimitLawReport(
        horizon=plan.proxy_horizon,
        reps=plan.reps,
        s_over_n_max_abs_err=aux["s_over_n_max_abs_err"],
        s_over_n_max_rel_err=aux["s_over_n_max_rel_err"],
        max_ecdf_jump=aux["proxy_max_ecdf_jump"],
        boundary_fraction=aux["proxy_boundary_fraction"],
        beta_params=beta_params,
        beta_ks=beta_ks,
    )


@dataclass(frozen=True)
class CoverageResult:
    basis: str
    hits: int
    reps: int
    coverage: float
    std_error: float


@dataclass(frozen=True)
class CoverageReport:
    level: float
    n: int
    proxy_horizon: int
    from_zn: CoverageResult
    from_mn: CoverageResult


def _coverage_result(basis: str, hits: np.ndarray, reps: int) -> CoverageResult:
    nhit = int(np.count_nonzero(hits))
    cov = nhit / reps
    return CoverageResult(
        basis=basis,
        hits=nhit,
        reps=reps,
        coverage=cov,
        std_error=math.sqrt(cov * (1.0 - cov) / reps),
    )


def coverage_experiment(plan: ReplicationPlan, level: float, records: RepRecords) -> CoverageReport:
    """Empirical coverage of both intervals against the proxy truth.

    Raw (unclipped) intervals are scored; a zero-width interval counts
    as a miss unless it equals the truth exactly.
    """
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level!r}")
    u = records.single
    v, w, _ = u.at_n.variances()
    n = plan.n
    truth = u.at_proxy.z
    zq = normal_quantile(1.0 - (1.0 - level) / 2.0)
    hit_z = np.abs(u.at_n.z - truth) <= zq * np.sqrt(v / n)
    hit_m = np.abs(u.at_n.m_emp - truth) <= zq * np.sqrt(w / n)
    return CoverageReport(
        level=level,
        n=n,
        proxy_horizon=plan.proxy_horizon,
        from_zn=_coverage_result("from_Zn", hit_z, plan.reps),
        from_mn=_coverage_result("from_Mn", hit_m, plan.reps),
    )


def linear_combination_coverage(
    plan: ReplicationPlan,
    coeffs: dict[str, float],
    basis: str,
    level: float,
    records: RepRecords,
) -> CoverageResult:
    """Coverage of the weighted-combination interval across urns.

    The truth is the same weighted combination of proxy proportions;
    weights are applied in the map's iteration order.
    """
    if basis not in ("Z", "M"):
        raise ParameterError(f"basis must be 'Z' or 'M', got {basis!r}")
    check_coefficients(coeffs)
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level!r}")
    for lab in coeffs:
        if lab not in records.urns:
            raise ParameterError(f"no urn labeled {lab!r}; labels are {tuple(records.urns)}")
    reps = plan.reps
    n = plan.n
    center = np.zeros(reps)
    truth = np.zeros(reps)
    variance = np.zeros(reps)
    for lab, c in coeffs.items():
        u = records.urns[lab]
        v, w, _ = u.at_n.variances()
        if basis == "Z":
            center = center + c * u.at_n.z
            variance = variance + (c * c) * v
        else:
            center = center + c * u.at_n.m_emp
            variance = variance + (c * c) * w
        truth = truth + c * u.at_proxy.z
    zq = normal_quantile(1.0 - (1.0 - level) / 2.0)
    hits = np.abs(center - truth) <= zq * np.sqrt(variance / n)
    tag = "lincomb_Z" if basis == "Z" else "lincomb_M"
    return _coverage_result(tag, hits, reps)


@dataclass(frozen=True)
class MTestFrequency:
    """Aggregate outcome of the mean-reinforcement test over reps."""

    target: str
    reference: tuple[str, ...]
    level: float
    rejections: int
    applicable: int
    reps: int

    @property
    def frequency(self) -> float:
        return self.rejections / self.reps


def mtest_rejection(
    plan: ReplicationPlan,
    target: str,
    reference: tuple[str, ...] | list[str],
    level: float,
    records: RepRecords,
) -> MTestFrequency:
    """Rejection frequency of the mean-reinforcement test over reps."""
    refs = tuple(reference)
    if not refs:
        raise ParameterError("reference set must be nonempty")
    if target in refs:
        raise ParameterError(f"target {target!r} must not belong to the reference set")
    if len(set(refs)) != len(refs):
        raise ParameterError(f"reference labels must be distinct, got {refs}")
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level!r}")
    for lab in (target, *refs):
        if lab not in records.urns:
            raise ParameterError(f"no urn labeled {lab!r}; labels are {tuple(records.urns)}")
    tgt = records.urns[target].at_n
    _, _, u_n = tgt.variances()
    ref_mean = np.zeros(plan.reps)
    for lab in refs:
        ref_mean = ref_mean + records.urns[lab].at_n.reinf_mean
    ref_mean = ref_mean / len(refs)
    applicable = u_n > 0.0
    rootn = math.sqrt(plan.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = (
            np.sqrt(ref_mean) / np.sqrt(tgt.reinf_mean)
            * rootn * np.abs(tgt.m_emp - tgt.z) / np.sqrt(u_n)
        )
    threshold = normal_quantile(1.0 - level / 2.0)
    reject = applicable & (stat > threshold)
    return MTestFrequency(
        target=target,
        reference=refs,
        level=level,
        rejections=int(np.count_nonzero(reject)),
        applicable=int(np.count_nonzero(applicable)),
        reps=plan.reps,
    )


def walk_absorption_probability(start: int, high: int) -> float:
    """Chance the absorbed +/-1 walk from ``start`` ends at 1."""
    if not (_is_int(start) and _is_int(high)):
        raise ParameterError("start and high must be integers")
    if high < 3 or not (2 <= start <= high - 1):
        raise ParameterError(
            f"need 2 <= start <= high - 1 with high >= 3, got start={start}, high={high}"
        )
    return (high - start) / (high - 1)


@dataclass(frozen=True)
class HittingEstimate:
    start: int
    high: int
    reps: int
    absorbed_low: int
    absorbed_high: int
    cap_hits: int
    estimate: float


def hitting_probability_check(
    start: int,
    high: int,
    reps: int,
    master_seed: int = 0,
    step_cap: int = 10_000_000,
) -> HittingEstimate:
    """Empirical frequency of the walk absorbing at the lower barrier.

    Runs ``reps`` independent walks by the draw-size policy's rule
    (``walk_move``), each on its own replication stream, and counts
    terminal states.
    Walks still unabsorbed after ``step_cap`` steps are reported in
    ``cap_hits`` (absorption is almost sure, so the cap is a guard,
    not a tuning knob).
    """
    walk_absorption_probability(start, high)  # validates the barriers
    if not _is_int(reps) or reps < 1:
        raise ParameterError(f"reps must be an integer >= 1, got {reps!r}")
    reps_arr = np.arange(reps, dtype=np.uint64)
    rkeys = rng.rep_keys_vec(master_seed, reps_arr)
    keys = rng.derive_keys_each(rkeys, "walk")
    w = np.full(reps, start, dtype=np.int64)
    t = 1
    while t <= step_cap and np.any((w > 1) & (w < high)):
        w = walk_move(w, rng.units_vec(keys, t - 1), high)
        t += 1
    low = int(np.count_nonzero(w == 1))
    hi = int(np.count_nonzero(w == high))
    cap = reps - low - hi
    return HittingEstimate(
        start=start, high=high, reps=reps,
        absorbed_low=low, absorbed_high=hi, cap_hits=cap,
        estimate=low / reps,
    )
