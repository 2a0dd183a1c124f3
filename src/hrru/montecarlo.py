"""Deterministic parallel replication and limit-theorem diagnostics.

A ReplicationPlan names a configuration, a replication count, an
evaluation horizon ``n``, a long proxy horizon ``n_proxy``, a master
seed, the horizons it simulates and records, ``(n, proxy)`` unless
named, and the urns it simulates and records, every urn unless named.
A plan may stop the plug-in sums (M_n and the sums behind V_n, W_n and
U_n) at ``plugins_to``, one of its horizons, which the record kinds set
to n: the steps past it then skip them, and a later block holds None
for ``engine.PLUGIN_FIELDS``.  Replication ``r`` is a pure function of
(master_seed, r): the engine derives every stream from that pair, and
each urn reads its own extraction stream, so results are bit-identical
whatever the chunking, worker count, execution order or the other urns
simulated.  ``replicate`` picks the chunks: one equal share of
the reps per worker (fewer for a plan too small to pay for a worker),
split further only where a share's arrays would exceed the engine's
budget (``engine.lane_cap``).  The calling process runs one share and
a forked child (on Linux) each other, which returns its chunks through
a pipe.  Chunk outputs are reassembled in index order.

The mean-reinforcement test reads the target urn's records alone: every
urn of a system reinforces by its own base plus the common factor, so a
reference urn's mean reinforcement is the target's shifted by the
difference of their bases, and ``hrru mtest`` simulates the target only.

The diagnostics take the records of one ``replicate`` call, standardize
per-rep statistics with each rep's own plug-in variance and compare
them against the standard normal law:

    T_prop = sqrt(n) (Z_n - Z_proxy) / sqrt(V_n)
    T_gap  = sqrt(n) (M_n - Z_n)     / sqrt(U_n)
    T_mean = sqrt(n) (M_n - Z_proxy) / sqrt(W_n)

``Z_proxy``, the proportion at the far horizon m = ``n_proxy``, stands
in for the almost-sure limit.  Z_n is a martingale, so T_prop's variance
is about 1 - n/m: it understates the variance by at most 10% at the
floor m = 10 n and by 2% at the 50 n default, which the CLT acceptance
fixtures use.  At 10 n with 8000 reps of the reference urn, its KS
distance read 0.017 against a 5% threshold of 0.0152.
"""

from __future__ import annotations

import math
import os
import pickle
import statistics
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import engine, gof, rng
from .estimators import half_width, normal_cdf, normal_quantile, variance_terms
from .multi_urn import UrnSystem, combination_problems, level_problems, mtest_problems
from .urn_core import (
    _EXACT_LIMIT,
    ConstantReinforcement,
    DiscreteReinforcement,
    ParameterError,
    Trajectory,
    UniformReinforcement,
    UrnConfig,
    _horizon,
    _is_int,
    _is_integer,
    _master_seed,
    _raise_problems,
    check_horizons,
    count_problems,
    walk_move,
)

DEFAULT_PROXY_FACTOR = 50
# The level of the CLT diagnostics' coverage of |gap| <= z_q sqrt(var / n).
CLT_COVERAGE_LEVEL = 0.95


def plan_problems(reps, n, n_proxy) -> list[str]:
    """The ``"key: message"`` problems of a plan's counts ``reps`` and
    ``n``, and its ``n_proxy``: None (50 n) or an integer >= 10 n."""
    problems = count_problems(reps=reps, n=n)
    if n_proxy is not None and _is_int(n) and not (_is_int(n_proxy) and n_proxy >= 10 * n):
        problems.append(f"n_proxy: must be an integer >= 10 n = {10 * n}, got {n_proxy!r}")
    return problems


@dataclass(frozen=True)
class ReplicationPlan:
    """What to simulate, how many times, and under which seed.

    ``horizons`` (``check_horizons``, holding ``n``; by default
    ``(n, proxy_horizon)``) are where every rep is recorded; the engine
    runs to the last, where the 2**53 bound is checked for every urn.
    ``labels`` (``engine.check_labels``, in the config's urn order; by
    default every urn) are the urns simulated and recorded.
    ``plugins_to`` (``engine.check_plugins_to``; by default the last
    horizon) is the last horizon whose blocks hold the plug-in fields."""

    config: UrnConfig | UrnSystem
    reps: int
    n: int
    n_proxy: int | None = None
    master_seed: int = 0
    horizons: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None
    plugins_to: int | None = None

    def __post_init__(self):
        _raise_problems(plan_problems(self.reps, self.n, self.n_proxy))
        object.__setattr__(self, "master_seed", _master_seed(self.master_seed))
        horizons = ((self.n, self.proxy_horizon) if self.horizons is None
                    else check_horizons(self.horizons))
        if self.n not in horizons:
            raise ParameterError(f"horizons must hold n = {self.n}, got {horizons}")
        object.__setattr__(self, "horizons", horizons)
        object.__setattr__(self, "plugins_to", engine.check_plugins_to(horizons, self.plugins_to))
        object.__setattr__(self, "labels", engine.check_labels(self.config, self.labels))
        engine.check_int64_range(self.config, horizons[-1])

    @property
    def proxy_horizon(self) -> int:
        return self.n_proxy if self.n_proxy is not None else DEFAULT_PROXY_FACTOR * self.n


@dataclass(frozen=True)
class HorizonBlock:
    """Per-rep summaries of one urn at one horizon (aligned arrays).

    Each statistic below is written once, on these arrays: the record
    diagnostics read every rep, and a trajectory's statistics read the
    one-rep block of ``trajectory_block``.  Past a plan's ``plugins_to``
    the ``engine.PLUGIN_FIELDS`` are None, and ``variances`` refuses.
    """

    horizon: int
    z: np.ndarray
    m_emp: np.ndarray | None
    s_over_n: np.ndarray
    reinf_mean: np.ndarray
    reinf_sqmean: np.ndarray | None
    draw_mean: np.ndarray
    draw_recipmean: np.ndarray | None

    def take(self, m: int) -> "HorizonBlock":
        return replace(self, **{f: a[:m] for f in engine.SNAPSHOT_FIELDS
                                if (a := getattr(self, f)) is not None})

    def variances(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V, W, U) plug-in arrays, one entry per rep; a ``ParameterError``
        naming the horizon for a block without the plug-in fields."""
        if self.m_emp is None:
            raise ParameterError(f"the block at horizon {self.horizon} holds no plug-in "
                                 f"sums: its plan stops them at an earlier horizon")
        return variance_terms(
            self.z, self.m_emp,
            self.reinf_mean, self.reinf_sqmean,
            self.draw_mean, self.draw_recipmean,
        )


def trajectory_block(traj: Trajectory, n: int | None = None) -> HorizonBlock:
    """The one-rep block of ``traj`` at horizon ``n`` (its length when
    None): ``engine.trajectory_snapshot``, the reduction every lane of
    ``replicate`` makes, so replication r's block holds its records."""
    h = _horizon(n, len(traj))
    snap = engine.trajectory_snapshot(traj, (h,))[0]
    return HorizonBlock(horizon=h, **{f: np.array([snap[f]]) for f in engine.SNAPSHOT_FIELDS})


def combination(coeffs: dict[str, float], blocks: dict[str, HorizonBlock], basis: str):
    """Center and variance of the combination ``coeffs`` of the urns'
    Z_n (basis "Z") or M_n (basis "M"), per rep: the weighted sum of the
    centers, and of V_n or W_n with squared weights, each added in the
    order of ``coeffs``."""
    center = variance = 0.0
    for lab, c in coeffs.items():
        blk = blocks[lab]  # variances first: it refuses a block past the cut
        variance = variance + (c * c) * blk.variances()[0 if basis == "Z" else 1]
        center = center + c * (blk.z if basis == "Z" else blk.m_emp)
    return center, variance


def mean_reinforcement(target: HorizonBlock, reference: list[np.ndarray], level: float):
    """Each rep's mean-reinforcement statistic, whether it applies
    (U_n > 0) and whether it rejects at ``level``:
    ``sqrt(ref m_n / m_n) sqrt(n) |M_n - Z_n| / sqrt(U_n)`` against
    ``z_{1 - level/2}``, with ref m_n the mean of the reference urns'
    m_n arrays ``reference``, added in their order."""
    _, _, u_n = target.variances()
    ref_mean = sum(reference) / len(reference)
    applicable = u_n > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = (
            np.sqrt(ref_mean) / np.sqrt(target.reinf_mean)
            * math.sqrt(target.horizon) * np.abs(target.m_emp - target.z) / np.sqrt(u_n)
        )
    return stat, applicable, applicable & (stat > normal_quantile(1.0 - level / 2.0))


@dataclass(frozen=True, init=False)
class UrnRecords:
    """One urn's per-rep records: a block per simulated horizon, and views
    of those at the plan's ``n`` and ``proxy``.  ``UrnRecords(at_n=...,
    at_proxy=...)`` holds just those two blocks."""

    blocks: dict[int, HorizonBlock]
    n: int
    proxy: int

    def __init__(self, blocks=None, n=None, proxy=None, *, at_n=None, at_proxy=None):
        if blocks is None:
            blocks = {b.horizon: b for b in (at_n, at_proxy)}
            n, proxy = at_n.horizon, at_proxy.horizon
        for name, value in (("blocks", blocks), ("n", n), ("proxy", proxy)):
            object.__setattr__(self, name, value)

    def at(self, horizon: int) -> HorizonBlock:
        """The block at ``horizon``, or a ``ParameterError`` naming it."""
        if horizon not in self.blocks:
            raise ParameterError(f"these records hold no block at horizon {horizon}; "
                                 f"they hold horizons {tuple(self.blocks)}")
        return self.blocks[horizon]

    at_n = property(lambda self: self.at(self.n))
    at_proxy = property(lambda self: self.at(self.proxy))

    def take(self, m: int) -> "UrnRecords":
        return UrnRecords({h: b.take(m) for h, b in self.blocks.items()}, self.n, self.proxy)


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
        return RepRecords(plan=replace(self.plan, reps=m),
                          urns={lab: u.take(m) for lab, u in self.urns.items()})


# A plan gets no more equal shares than it has this many lane-steps of
# its urns to its last horizon, so a small plan runs in one process.
# ROADMAP item 9 holds its measurements, which disagree across sittings.
_SHARE_LANE_STEPS = 1 << 19


def _chunk_bounds(plan: ReplicationPlan, workers: int) -> list[tuple[int, int]]:
    """The plan's reps as contiguous ranges of sizes differing by at most one.

    Up to ``workers`` equal shares (no more than the plan has
    ``_SHARE_LANE_STEPS`` lane-steps of its urns to its last horizon), each split
    into as few chunks as keep every chunk, with one snapshot per
    horizon, within ``engine.lane_cap`` lanes.
    """
    cap = engine.lane_cap(plan.config, len(plan.horizons), plan.labels)
    lane_steps = plan.reps * plan.horizons[-1] * len(plan.labels)
    shares = max(1, min(workers, lane_steps // _SHARE_LANE_STEPS))
    chunks = min(shares * -(-plan.reps // (shares * cap)), plan.reps)
    return [(plan.reps * i // chunks, plan.reps * (i + 1) // chunks) for i in range(chunks)]


def _run_share(plan: ReplicationPlan, bounds) -> list:
    return [engine.run_chunk(plan.config, plan.master_seed, lo, hi, plan.horizons,
                             labels=plan.labels, plugins_to=plan.plugins_to)
            for lo, hi in bounds]


def _fork_share(plan: ReplicationPlan, bounds):
    """A forked child that runs the chunks ``bounds`` and writes ``(True, chunk
    results)``, or ``(False, the exception)``, pickled to a pipe: its pid
    and the pipe's read end.  The child leaves through ``os._exit``, so
    it runs no exit handler and flushes none of the parent's buffers."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = (True, _run_share(plan, bounds))
            except Exception as exc:
                payload = (False, exc)
            with open(w, "wb") as pipe:
                pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _run_forked(plan: ReplicationPlan, bounds, workers: int) -> list:
    """The results of the chunks ``bounds``, cut into ``min(workers,
    chunks)`` contiguous shares: share 0 runs here, each other in a
    forked child, so one share forks nothing.

    Each child's pipe is read to its end before the child is reaped, as
    a result may exceed the pipe's buffer.  A child's exception is
    raised here; a child that ends without a result is a RuntimeError.
    Whatever ends this call, no child outlives it: those not yet reaped
    are killed and reaped."""
    nshares = min(workers, len(bounds))
    shares = [bounds[len(bounds) * i // nshares:len(bounds) * (i + 1) // nshares]
              for i in range(nshares)]
    children = []  # (pid, pipe) of each child not yet reaped, in share order
    try:
        for share in shares[1:]:
            children.append(_fork_share(plan, share))
        results = _run_share(plan, shares[0])
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            try:
                ok, value = pickle.loads(data)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(
                    f"worker process {pid} ended without a result ({how})") from None
            if not ok:
                raise value
            results += value
    finally:
        if children:
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


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
    takes the records it returns, one block per urn of ``plan.labels``
    and horizon of ``plan.horizons``, holding the fields its chunks
    returned and None for the others (the plug-in fields past
    ``plugins_to``).  A plan runs on ``min(workers, chunks, usable
    CPUs)`` processes, ``workers`` defaulting to the usable CPUs, and on
    one off Linux: ``_run_forked`` runs the first contiguous share of
    the chunks (``_chunk_bounds``, the only chunking) here and each
    other in a forked child, so one share forks nothing.  A plan gets no
    more shares than it has ``_SHARE_LANE_STEPS`` lane-steps, so a small
    one runs here unless the lane cap cuts it into chunks.  The per-rep
    values are identical in every case because each rep's streams
    depend only on (master_seed, rep index).
    """
    # workers are forked children, on Linux only
    usable = _usable_cpus() if sys.platform.startswith("linux") else 1
    if workers is None:
        workers = usable
    elif not _is_integer(workers) or workers < 1:
        raise ParameterError(f"workers must be an integer >= 1, got {workers!r}")
    workers = min(int(workers), usable)
    chunk_results = _run_forked(plan, _chunk_bounds(plan, workers), workers)
    urns = {
        label: UrnRecords({
            h: HorizonBlock(horizon=h, **{
                f: (np.concatenate([cr[label][hidx][f] for cr in chunk_results])
                    if f in chunk_results[0][label][hidx] else None)
                for f in engine.SNAPSHOT_FIELDS
            })
            for hidx, h in enumerate(plan.horizons)
        }, plan.n, plan.proxy_horizon)
        for label in plan.labels
    }
    return RepRecords(plan=plan, urns=urns)


@dataclass(frozen=True)
class CltDiagnostics:
    """A standardized statistic's sample and its normal-law distances."""

    kind: str
    samples: np.ndarray
    ks_distance: float | None  # None over no reps
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


def _check_plan(plan: ReplicationPlan, records: RepRecords) -> None:
    """Refuse records another plan made: a diagnostic reads n, reps, the
    proxy horizon and the config from ``plan``, not from the records."""
    _raise_problems([f"{f.name}: differs from that of the plan that made these records"
                     for f in fields(plan) if getattr(plan, f.name) != getattr(records.plan, f.name)])


def clt_statistics(plan: ReplicationPlan, records: RepRecords) -> CltStatistics:
    """T_prop, T_gap and T_mean of every rep, from one variance evaluation."""
    _check_plan(plan, records)
    u = records.single
    v, w, uu = u.at_n.variances()
    zp = u.at_proxy.z
    gap_zp = u.at_n.z - zp
    gap_mz = u.at_n.m_emp - u.at_n.z
    gap_mp = u.at_n.m_emp - zp
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
        coverage = float(np.count_nonzero(np.abs(gap) <= half_width(var, n, 1.0 - level))) / reps
    return CltDiagnostics(
        kind=kind,
        samples=samples,
        ks_distance=gof.ks_distance(samples, normal_cdf) if len(samples) else None,
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
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (float(np.corrcoef(s.t_gap[both], s.t_prop[both])[0, 1])
                if np.count_nonzero(both) >= 2 else math.nan)
    # None below 2 reps, or where either statistic has no spread
    corr = corr if math.isfinite(corr) else None
    return MeanCltDiagnostics(
        gap=_normal_diag("gap", s.t_gap, s.u, plan, {}),
        proportion=_normal_diag("proportion", s.t_prop, s.v, plan, aux, s.gap_zp),
        mean=_normal_diag("mean", s.t_mean, s.w, plan, aux, s.gap_mp),
        corr_gap_proportion=corr,
        median_abs_gap=statistics.median((math.sqrt(plan.n) * np.abs(s.gap_mz)).tolist()),
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
    _check_plan(plan, records)
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
    _check_plan(plan, records)
    _raise_problems(level_problems(level))
    u = records.single
    v, w, _ = u.at_n.variances()
    n = plan.n
    truth = u.at_proxy.z
    hit_z = np.abs(u.at_n.z - truth) <= half_width(v, n, 1.0 - level)
    hit_m = np.abs(u.at_n.m_emp - truth) <= half_width(w, n, 1.0 - level)
    return CoverageReport(
        level=level,
        n=n,
        proxy_horizon=plan.proxy_horizon,
        from_zn=_coverage_result("from_Zn", hit_z, plan.reps),
        from_mn=_coverage_result("from_Mn", hit_m, plan.reps),
    )


def _unsimulated(plan: ReplicationPlan, key: str, labels) -> list[str]:
    # The problems of the urns among ``labels`` that the plan does not simulate.
    return [f"{key}: the plan does not simulate urn {lab!r}; it simulates {plan.labels}"
            for lab in labels if lab not in plan.labels]


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
    _check_plan(plan, records)
    problems = level_problems(level) + combination_problems(
        coeffs, basis, engine.check_labels(plan.config))
    _raise_problems(problems or _unsimulated(plan, "coeffs", coeffs))
    center, variance = combination(coeffs, {lab: u.at_n for lab, u in records.urns.items()},
                                   basis)
    truth = sum(c * records.urns[lab].at_proxy.z for lab, c in coeffs.items())
    hits = np.abs(center - truth) <= half_width(variance, plan.n, 1.0 - level)
    tag = "lincomb_Z" if basis == "Z" else "lincomb_M"
    return _coverage_result(tag, hits, plan.reps)


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
    """Rejection frequency of the mean-reinforcement test over reps.

    The records need hold the target urn alone: each reference urn's
    mean reinforcement is the target's plus the difference of their
    ``reinforce_base``, as every urn of a system adds the same common
    factor to its base."""
    _check_plan(plan, records)
    refs = tuple(reference)
    every = engine.check_labels(plan.config)
    problems = level_problems(level) + mtest_problems(target, refs, every)
    _raise_problems(problems or _unsimulated(plan, "target", (target,)))
    blk = records.urns[target].at_n
    base = plan.config.urn(target).reinforce_base
    _, applicable, reject = mean_reinforcement(
        blk, [blk.reinf_mean + (plan.config.urn(lab).reinforce_base - base) for lab in refs],
        level)
    return MTestFrequency(
        target=target,
        reference=refs,
        level=level,
        rejections=int(np.count_nonzero(reject)),
        applicable=int(np.count_nonzero(applicable)),
        reps=plan.reps,
    )


def walk_problems(start: int, high: int, reps: int = 1) -> list[str]:
    """The ``"key: message"`` problems of ``reps`` walks between absorbing
    barriers: integers with 2 <= start <= high - 1, so high >= 3, and
    high <= 2**53, within which the walk's float64 state moves exactly;
    and a count ``reps``."""
    problems = [f"{key}: must be an integer, got {v!r}"
                for key, v in (("start", start), ("high", high)) if not _is_int(v)]
    if not problems and not 2 <= start <= high - 1:
        problems.append(
            f"start: must satisfy 2 <= start <= high - 1, got start={start}, high={high}"
        )
    if _is_int(high) and high > _EXACT_LIMIT:
        problems.append(f"high: must be at most 2**53 (the walk's float64 state), got {high}")
    return problems + count_problems(reps=reps)


def walk_absorption_probability(start: int, high: int) -> float:
    """Chance the absorbed +/-1 walk from ``start`` ends at 1."""
    _raise_problems(walk_problems(start, high))
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


_WALK_STEP_CAP = 10_000_000


def hitting_probability_check(
    start: int,
    high: int,
    reps: int,
    master_seed: int = 0,
) -> HittingEstimate:
    """Empirical frequency of the walk absorbing at the lower barrier.

    Runs ``reps`` independent walks by the draw-size policy's rule
    (``walk_move``), each on its own replication stream, and counts
    terminal states.
    Walks still unabsorbed after ``_WALK_STEP_CAP`` steps are reported
    in ``cap_hits`` (absorption is almost sure, so the cap is a guard,
    not a tuning knob).
    """
    _raise_problems(walk_problems(start, high, reps))
    reps_arr = np.arange(reps, dtype=np.uint64)
    rkeys = rng.rep_keys_vec(_master_seed(master_seed), reps_arr)
    keys = rng.derive_keys_each(rkeys, "walk")
    w = np.full(reps, start, dtype=np.float64)
    t = 1
    while t <= _WALK_STEP_CAP and np.any((w > 1) & (w < high)):
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
