"""Lockstep batch simulation of many replications at once.

One chunk simulates replications [rep_lo, rep_hi) in parallel numpy
lanes: every per-step quantity is a vector over replications, and all
randomness comes from evaluating the counter-based streams of rng.py
elementwise.  Because each lane only ever touches values keyed by its
own (master_seed, rep) pair, the results are bit-identical to running
each replication alone, and therefore independent of chunk sizes,
worker counts, and execution order.

A single urn and a multi-urn system take the same path: both are a
list of one-urn slots (``config.lockstep``), each naming the streams
its policies read, plus the shared extraction stride.  Each policy
emits through its own ``emit_vec``, once per distinct (policy, stream)
pair and step, so a shared factor is drawn once for all urns.

Floating-point accumulations across steps (mean of X/N, mean of 1/N)
use Kahan compensation, elementwise, in a fixed step order.
``trajectory_snapshot`` performs the same operations on one scalar
trajectory, so it reproduces a lane bit for bit: ``run_chunk`` uses it
for ``CustomRule`` configs, which have no vector form, and the tests
use it as their reference.

All ball counts stay in int64; configuration validation bounds the
worst-case total (a + b + steps * draw_bound * reinf_bound) below
2**62 before a chunk starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .multi_urn import UrnSystem
from .urn_core import CustomRule, ParameterError, Trajectory, UrnConfig, run_trajectory

SNAPSHOT_FIELDS = (
    "z",              # A-proportion H/S at the horizon
    "m_emp",          # running mean of X/N
    "s_over_n",       # total balls divided by the horizon
    "reinf_mean",     # mean R
    "reinf_sqmean",   # mean R^2
    "draw_mean",      # mean N
    "draw_recipmean", # mean 1/N
)


def worst_case_total(config: UrnConfig | UrnSystem, steps: int) -> int:
    if isinstance(config, UrnSystem):
        k = config.k
        return max(u.a + u.b for u in config.urns) + steps * k * k
    return (
        config.a + config.b
        + steps * config.draw.bound * config.reinforce.bound
    )


@dataclass
class _UrnLane:
    """One urn's vector state and accumulators inside a chunk."""

    label: str
    H: np.ndarray
    S: np.ndarray
    sum_r: np.ndarray
    sum_rr: np.ndarray
    sum_n: np.ndarray
    msum: np.ndarray
    mcomp: np.ndarray
    etasum: np.ndarray
    etacomp: np.ndarray


def _kahan_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray) -> None:
    # Classic compensated add, elementwise; _kahan_sum performs these
    # four operations in the same order on scalars.
    y = x - comp
    t = total + y
    np.subtract(t, total, out=comp)
    np.subtract(comp, y, out=comp)
    total[...] = t


def _snapshot(lane: _UrnLane, horizon: int) -> dict[str, np.ndarray]:
    h = horizon
    return {
        "z": lane.H / lane.S,
        "m_emp": lane.msum / h,
        "s_over_n": lane.S / h,
        "reinf_mean": lane.sum_r / h,
        "reinf_sqmean": lane.sum_rr / h,
        "draw_mean": lane.sum_n / h,
        "draw_recipmean": lane.etasum / h,
    }


def _kahan_sum(xs) -> float:
    total = comp = 0.0
    for x in xs:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def trajectory_snapshot(traj: Trajectory, horizon: int) -> dict[str, float]:
    """One lane's snapshot at ``horizon``, reduced from a scalar trajectory.

    Integer sums, and Kahan sums of X/N and 1/N in step order: the
    vector path's reduction, so the two agree bit for bit.
    """
    h = horizon
    n, x, r = traj.N[:h].tolist(), traj.X[:h].tolist(), traj.R[:h].tolist()
    h_balls, s_balls = int(traj.H[h - 1]), int(traj.S[h - 1])
    return {
        "z": h_balls / s_balls,
        "m_emp": _kahan_sum(xi / ni for xi, ni in zip(x, n)) / h,
        "s_over_n": s_balls / h,
        "reinf_mean": sum(r) / h,
        "reinf_sqmean": sum(ri * ri for ri in r) / h,
        "draw_mean": sum(n) / h,
        "draw_recipmean": _kahan_sum(1.0 / ni for ni in n) / h,
    }


def run_chunk(
    config: UrnConfig | UrnSystem,
    master_seed: int,
    rep_lo: int,
    rep_hi: int,
    horizons: tuple[int, ...],
) -> dict[str, list[dict[str, np.ndarray]]]:
    """Simulate lanes rep_lo..rep_hi-1 and snapshot at each horizon.

    Returns {label: [snapshot dict per horizon]}; horizons must be
    strictly increasing.  ``CustomRule`` configs run one replication
    at a time through ``run_trajectory``.
    """
    if rep_hi <= rep_lo:
        raise ParameterError(f"empty replication range [{rep_lo}, {rep_hi})")
    if not horizons or any(h2 <= h1 for h1, h2 in zip(horizons, horizons[1:])):
        raise ParameterError(f"horizons must be strictly increasing, got {horizons}")
    if horizons[0] < 1:
        raise ParameterError(f"horizons must be >= 1, got {horizons}")
    if worst_case_total(config, horizons[-1]) > (1 << 62):
        raise ParameterError(
            "worst-case ball count exceeds 2**62; shrink steps or bounds"
        )
    if isinstance(getattr(config, "draw", None), CustomRule):
        trajs = (
            run_trajectory(config, horizons[-1], master_seed, rep)
            for rep in range(rep_lo, rep_hi)
        )
        snaps = [[trajectory_snapshot(traj, h) for h in horizons] for traj in trajs]
        return {config.label: [
            {f: np.array([s[hi][f] for s in snaps]) for f in SNAPSHOT_FIELDS}
            for hi in range(len(horizons))
        ]}

    lanes = rep_hi - rep_lo
    rkeys = rng.rep_keys_vec(master_seed, np.arange(rep_lo, rep_hi, dtype=np.uint64))
    slots, stride = config.lockstep

    # The fused uniform matrix: one row per stream value read per step,
    # at counter c0 + m * t, each row evaluated once however many
    # emissions read it.
    rows: list[tuple[tuple[str, ...], int, int]] = []

    def row(stream: tuple[str, ...], c0: int, m: int) -> int:
        if (stream, c0, m) not in rows:
            rows.append((stream, c0, m))
        return rows.index((stream, c0, m))

    def emission(emitted: list, policy, stream: tuple[str, ...]) -> int:
        # One emission per distinct (policy, stream) pair and step.
        for i, (p, s, _) in enumerate(emitted):
            if p == policy and s == stream:
                return i
        lag = policy.stream_lag
        emitted.append((policy, stream, None if lag is None else row(stream, -lag, 1)))
        return len(emitted) - 1

    draws: list = []
    reinfs: list = []
    urns = []
    for slot in slots:
        c = slot.config
        ex_stream = ("urn", c.label, rng.EXTRACT)
        lane = _UrnLane(
            label=c.label,
            H=np.full(lanes, c.a, dtype=np.int64),
            S=np.full(lanes, c.a + c.b, dtype=np.int64),
            sum_r=np.zeros(lanes, dtype=np.int64),
            sum_rr=np.zeros(lanes, dtype=np.int64),
            sum_n=np.zeros(lanes, dtype=np.int64),
            msum=np.zeros(lanes, dtype=np.float64),
            mcomp=np.zeros(lanes, dtype=np.float64),
            etasum=np.zeros(lanes, dtype=np.float64),
            etacomp=np.zeros(lanes, dtype=np.float64),
        )
        urns.append((
            lane,
            emission(draws, c.draw, slot.draw_stream),
            emission(reinfs, c.reinforce, slot.reinforce_stream),
            [row(ex_stream, j, stride) for j in range(stride)],
        ))

    keys = {stream: rng.derive_keys_each(rkeys, *stream) for stream, _, _ in rows}
    key_matrix = np.stack([keys[stream] for stream, _, _ in rows])
    golden = rng.GOLDEN
    # c(t) = c0 + m t, so the additive stream offset (c(t) + 1) * GOLDEN
    # = off0 + t * slope with the constants below (mod 2**64).
    off0 = np.array([((c + 1) * golden) & rng.MASK64 for _, c, _ in rows], dtype=np.uint64)
    slope = np.array([(m * golden) & rng.MASK64 for _, _, m in rows], dtype=np.uint64)

    out: dict[str, list[dict[str, np.ndarray]]] = {lane.label: [] for lane, *_ in urns}
    n_now: list = [None] * len(draws)
    next_h = 0
    total = horizons[-1]
    for t in range(total):
        t_u = np.uint64(t)
        states = key_matrix + (off0 + t_u * slope)[:, None]
        units = rng.units_from_states_vec(states)
        n_now = [
            p.emit_vec(t, None if r is None else units[r], prev)
            for (p, _, r), prev in zip(draws, n_now)
        ]
        r_now = [p.emit_vec(t, None if r is None else units[r]) for p, _, r in reinfs]

        for lane, di, ri, ex_rows in urns:
            n_draw = n_now[di]
            r = r_now[ri]

            # Without-replacement Bernoulli chain across all lanes.
            h_rem = lane.H.copy()
            s_rem = lane.S.copy()
            x = np.zeros(lanes, dtype=np.int64)
            scalar_n = isinstance(n_draw, int)
            for j in range(stride):
                if scalar_n:
                    if j >= n_draw:
                        break
                    active = None
                else:
                    active = j < n_draw
                    if not active.any():
                        break
                take = units[ex_rows[j]] < (h_rem / s_rem)
                if active is not None:
                    take &= active
                x += take
                h_rem -= take
                if active is None:
                    s_rem -= 1
                else:
                    s_rem -= active

            lane.H += r * x
            lane.S += r * n_draw
            lane.sum_r += r
            lane.sum_rr += r * r
            lane.sum_n += n_draw
            _kahan_add(lane.msum, lane.mcomp, x / n_draw)
            _kahan_add(lane.etasum, lane.etacomp, 1.0 / n_draw)

        if t + 1 == horizons[next_h]:
            for lane, *_ in urns:
                out[lane.label].append(_snapshot(lane, t + 1))
            next_h += 1
            if next_h == len(horizons):
                break
    return out


def sample_hypergeometric_batch(
    key: int, n_draw: int, total: int, marked: int, count: int
) -> np.ndarray:
    """``count`` independent exact hypergeometric draws from one stream.

    Sample ``j`` reads counters ``j * n_draw .. j * n_draw + n_draw - 1``,
    matching ``sample_hypergeometric`` on ``Stream(key).view(j * n_draw)``.
    """
    if not (1 <= n_draw <= total):
        raise ParameterError(f"draw size must satisfy 1 <= N <= {total}, got {n_draw}")
    if not (0 <= marked <= total):
        raise ParameterError(f"marked count must satisfy 0 <= H <= {total}, got {marked}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    base = np.arange(count, dtype=np.uint64) * np.uint64(n_draw)
    keys = np.full(count, key & rng.MASK64, dtype=np.uint64)
    h_rem = np.full(count, marked, dtype=np.int64)
    s_rem = np.full(count, total, dtype=np.int64)
    x = np.zeros(count, dtype=np.int64)
    for i in range(n_draw):
        u = rng.units_vec(keys, base + np.uint64(i))
        take = u < (h_rem / s_rem)
        x += take
        h_rem -= take
        s_rem -= 1
    return x
