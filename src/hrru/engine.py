"""Lockstep batch simulation of many replications at once.

One chunk simulates replications [rep_lo, rep_hi) in parallel numpy
lanes: every per-step quantity is a vector over replications, and all
randomness comes from evaluating the counter-based streams of rng.py
elementwise.  Because each lane only ever touches values keyed by its
own (master_seed, rep) pair, the results are bit-identical to running
each replication alone, and therefore independent of chunk sizes,
worker counts, and execution order.

A single urn and a multi-urn system take the same path: both are a
list of one-urn slots (``config.lockstep``), each naming the key paths
of the three streams it reads, plus the shared extraction stride.  A
chunk simulates the slots its ``labels`` name (``check_labels``: every
urn by default) at the config's stride, each on its own streams, so an
urn's snapshots are the same bits whichever other urns run beside it.
The scalar path (``urn_core.lockstep_trajectories``) reads the same paths,
so neither spells a path of its own.  Each policy emits through its
own ``emit_vec``, once per distinct (policy, stream) pair and step, so
a shared factor is drawn once for all urns.

The urns are stacked on axis 0: ball counts, the Bernoulli chain and
the sum of X/N are ``(urns, lanes)`` arrays, and one step is one pass
over all urns.  An emission read by every urn broadcasts; otherwise
each urn's emission is copied into its row on every step.  A chunk
runs to the last of its horizons (a strictly increasing tuple,
``check_horizons``: a plan's ``horizons``) and snapshots every lane at
each of them.  Each step finalizes one fused ``(rows, lanes)`` matrix
of uniforms, whose extraction rows are laid out ball by ball so that
ball ``j`` of every urn is one ``(urns, lanes)`` view.  The sums of N
and 1/N, and of R and R^2, are kept once per distinct emission, at its
own shape: a ``(lanes,)`` row for one read from a stream, a Python
float for one that is the same int on every lane (a constant or a
schedule).  A snapshot hands each urn the sums of the emissions it
reads.  A chunk allocates its workspace (``_workspace``: states,
uniforms, chain, sums and Kahan buffers) once, and the step's array
operations write into it; snapshots are fresh arrays, never views of
it or of another urn's snapshot.

Floating-point accumulations across steps (mean of X/N, mean of 1/N)
use Kahan compensation in a fixed step order: ``_kahan_add`` on the
lane rows, in one call over X/N of every urn and 1/N of every
lane-shaped draw, and ``_kahan_step`` on a float sum, the same four
operations in the same order.  ``trajectory_snapshot`` reduces one
scalar trajectory at the same horizon tuple, in one pass, by
``_kahan_step`` too, so it reproduces a lane bit for bit: the tests use
it as their reference.

The plug-in sums, X/N and 1/N (Kahan) and R^2, feed only M_n and the
plug-in variances.  A chunk may stop them after an earlier horizon,
``plugins_to``: later steps keep the ball counts and the sums of N and
R alone, and a later snapshot holds ``z``, ``s_over_n``, ``reinf_mean``
and ``draw_mean``, never a stale plug-in.  Every kept field has the
bits it has without the cut.

Ball counts, draw sizes, reinforcements and the integer sums are
float64 holding exact integers: a policy's ``emit_vec`` returns float64
for an array of uniforms, an emission every urn reads is used as it
is, and no step operation mixes dtypes.  A float sum of an int
emission adds the same exact integers.
Every sum, product and quotient (``h_rem / s_rem``, ``H / S``,
``sum / h``) then gives the scalar path's Python-int bits as long as
the integers stay at most 2**53.  So ``check_int64_range`` bounds every
urn's worst-case total (a + b + steps * draw_bound * reinf_bound) and
sum of R^2 (steps * reinf_bound^2) at 2**53 before a chunk starts.

A chunk's arrays grow with its lanes, its urns and the rows of its
uniform matrix.  Their bytes per lane are read off a one-lane
``_workspace``, plus the rows it does not hold: the key matrix, the
emissions read from a stream and the snapshots.  ``lane_cap`` is the
lane count whose arrays fit ``WORKSPACE_BUDGET``.  ``run_chunk``
refuses a larger chunk, and ``montecarlo`` never plans one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import rng
from .urn_core import (
    _EXACT_LIMIT, ParameterError, Trajectory, UrnConfig, _is_integer, check_horizons,
)

if TYPE_CHECKING:  # multi_urn loads the estimators and statistics
    from .multi_urn import UrnSystem

SNAPSHOT_FIELDS = (
    "z",              # A-proportion H/S at the horizon
    "m_emp",          # running mean of X/N
    "s_over_n",       # total balls divided by the horizon
    "reinf_mean",     # mean R
    "reinf_sqmean",   # mean R^2
    "draw_mean",      # mean N
    "draw_recipmean", # mean 1/N
)
# The fields that only the plug-in sums give: M_n and the means of R^2
# and 1/N, which V_n, W_n and U_n read.  A snapshot past a chunk's
# ``plugins_to`` holds the others alone.
PLUGIN_FIELDS = ("m_emp", "reinf_sqmean", "draw_recipmean")
KEPT_FIELDS = tuple(f for f in SNAPSHOT_FIELDS if f not in PLUGIN_FIELDS)


def worst_case_total(config: UrnConfig | UrnSystem, steps: int) -> int:
    """The largest ball count any urn can reach in ``steps`` steps: per
    urn, a + b plus ``steps`` times its draw bound times its
    reinforcement bound."""
    return max(
        c.a + c.b + steps * c.draw.bound * c.reinforce.bound
        for c in (slot.config for slot in config.lockstep[0])
    )


def check_int64_range(config: UrnConfig | UrnSystem, steps: int) -> None:
    """Raise ``ParameterError`` unless ``steps`` steps keep every count
    and sum of ``run_chunk`` at most 2**53, the range in which its
    float64 state holds exact integers and gives the scalar path's bits."""
    if worst_case_total(config, steps) > _EXACT_LIMIT:
        raise ParameterError(
            f"worst-case ball count after {steps} steps exceeds 2**53; "
            f"shrink steps, initial counts or policy bounds"
        )
    r_max = max(slot.config.reinforce.bound for slot in config.lockstep[0])
    if steps * r_max * r_max > _EXACT_LIMIT:
        raise ParameterError(
            f"worst-case sum of R^2 over {steps} steps exceeds 2**53 "
            f"(largest reinforcement {r_max}); shrink steps or the reinforcement bound"
        )


def check_labels(config: UrnConfig | UrnSystem, labels=None) -> tuple[str, ...]:
    """The urns of ``config`` that ``labels`` names, in the config's urn
    order: every urn when None, else a tuple or list naming at least one
    urn, each once; otherwise a ``ParameterError`` keyed ``labels``."""
    every = tuple(slot.config.label for slot in config.lockstep[0])
    if labels is None:
        return every
    labs = list(labels) if isinstance(labels, (tuple, list)) else []
    if not (labs and all(isinstance(lab, str) for lab in labs)):
        problems = [f"labels: must be a nonempty tuple of urn labels, got {labels!r}"]
    else:
        problems = ([] if len(set(labs)) == len(labs)
                    else [f"labels: must be distinct, got {tuple(labs)}"])
        problems += [f"labels: no urn labeled {lab!r}; labels are {every}"
                     for lab in labs if lab not in every]
    if problems:
        raise ParameterError(problems)
    return tuple(lab for lab in every if lab in labs)


def check_plugins_to(horizons: tuple[int, ...], plugins_to=None) -> int:
    """The horizon after which a run stops its plug-in sums: ``plugins_to``,
    one of ``horizons`` (an integer, numpy's too, but no bool), or the
    last horizon when None; otherwise a ``ParameterError`` keyed
    ``plugins_to``."""
    if plugins_to is None:
        return horizons[-1]
    if not (_is_integer(plugins_to) and plugins_to in horizons):
        raise ParameterError(f"plugins_to: must be one of the horizons {horizons}, "
                             f"got {plugins_to!r}")
    return int(plugins_to)


def _kahan_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray,
               scratch: np.ndarray) -> None:
    # Classic compensated add, elementwise and in place: x is consumed
    # and scratch is overwritten.  _kahan_step performs these four
    # operations in the same order on floats.
    y = np.subtract(x, comp, out=x)
    t = np.add(total, y, out=scratch)
    np.subtract(t, total, out=comp)
    np.subtract(comp, y, out=comp)
    np.copyto(total, t)


class _Chain:
    """The without-replacement Bernoulli chain over a block of lanes.

    ``draw`` decides ball ``j`` of every lane with one uniform: the
    ball is marked when ``units[j] < h_rem / s_rem``, with ``h_rem`` the
    marked balls left and ``s_rem = S - j`` the balls left.  A lane
    whose draw size is at most ``j`` ignores ball ``j``; its ``S - j``
    stays positive since no draw exceeds the initial ball count.  The
    counts are float64 holding exact integers, and the buffers are
    allocated once, for every draw.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.h_rem, self.s_rem, self.ratio, self.x = np.empty((4, *shape))
        self.take, self.active = np.empty((2, *shape), dtype=bool)

    def draw(self, units, H: np.ndarray, S: np.ndarray, n) -> np.ndarray:
        """Marked balls among ``n`` drawn from ``S`` holding ``H``, into ``self.x``.

        ``units`` yields ball ``j``'s uniforms in turn, and is read no
        further than the largest draw; ``n`` (every entry >= 1) is an
        int or a float64 array broadcasting to ``H``.
        """
        h_rem, s_rem, ratio, take = self.h_rem, self.s_rem, self.ratio, self.take
        balls = iter(units)
        np.less(next(balls), np.divide(H, S, out=ratio), out=take)
        np.subtract(H, take, out=h_rem)
        per_lane = isinstance(n, np.ndarray)
        for j, u in zip(range(1, int(n.max()) if per_lane else n), balls):
            np.subtract(S, j, out=s_rem)
            np.less(u, np.divide(h_rem, s_rem, out=ratio), out=take)
            if per_lane:
                take &= np.greater(n, j, out=self.active)
            h_rem -= take
        return np.subtract(H, h_rem, out=self.x)


class _Layout:
    """Which stream value each row of a step's fused uniform matrix holds.

    One row per stream value read per step, at counter c0 + m * t, each
    row evaluated once however many emissions read it.  Emission rows
    come first, then the extraction rows ball by ball: row
    ``ex0 + j * len(urns) + u`` is ball ``j`` of urn ``u``.  ``draws``
    and ``reinfs`` hold one (policy, stream, row) emission per distinct
    (policy, stream) pair, and ``draw_of``/``reinf_of`` map each urn to
    the emission it reads.  Only the slots ``labels`` names are laid
    out (all when None), at the config's stride.
    """

    def __init__(self, config: UrnConfig | UrnSystem, labels: tuple[str, ...] | None = None):
        slots, self.stride = config.lockstep
        if labels is not None:
            slots = [slot for slot in slots if slot.config.label in labels]
        self.urns = [slot.config for slot in slots]
        self.rows: list[tuple[tuple[str, ...], int, int]] = []
        self.draws: list = []
        self.reinfs: list = []
        self.draw_of = [self._emission(self.draws, slot.config.draw, slot.draw_stream)
                        for slot in slots]
        self.reinf_of = [self._emission(self.reinfs, slot.config.reinforce,
                                        slot.reinforce_stream) for slot in slots]
        self.ex0 = len(self.rows)
        self.rows += [(slot.extract_stream, j, self.stride)
                      for j in range(self.stride) for slot in slots]
        # An emission read from a stream is a (lanes,) array; the others
        # are a Python int, the same on every lane.
        self.lane_draws = [i for i, (_, _, r) in enumerate(self.draws) if r is not None]
        self.lane_reinfs = [i for i, (_, _, r) in enumerate(self.reinfs) if r is not None]
        # Urns reading distinct emissions need them copied into (urns, lanes) rows.
        self.copy_draws = len(set(self.draw_of)) > 1
        self.copy_reinfs = len(set(self.reinf_of)) > 1

    def _emission(self, emitted: list, policy, stream: tuple[str, ...]) -> int:
        for i, (p, s, _) in enumerate(emitted):
            if p == policy and s == stream:
                return i
        r = None
        if policy.stream_lag is not None:
            key = (stream, -policy.stream_lag, 1)
            if key not in self.rows:
                self.rows.append(key)
            r = self.rows.index(key)
        emitted.append((policy, stream, r))
        return len(emitted) - 1

    def lane_bytes(self, horizons: int) -> int:
        """Bytes per lane of the arrays a ``run_chunk`` with this many
        horizons holds at once: a one-lane ``_workspace``, plus a float64
        for each key-matrix row, each emission read from a stream (an int
        one holds no lane row) and each snapshot field of each horizon
        and urn.  The peak comes at the last horizon, when the snapshots
        outweigh any emission's temporaries."""
        chain, *arrays = _workspace(self, 1)
        held = [*vars(chain).values(), *(a for a in arrays if a is not None)]
        rows = (len(self.rows) + len(self.lane_draws) + len(self.lane_reinfs)
                + len(SNAPSHOT_FIELDS) * horizons * len(self.urns))
        return sum(a.nbytes for a in held) + 8 * rows


def _workspace(layout: _Layout, lanes: int) -> tuple:
    """Every lane array a ``run_chunk`` of ``lanes`` lanes steps in; urns
    are stacked on axis 0, and a lane draw or reinforcement is one read
    from a stream."""
    nu, rows, ld = len(layout.urns), len(layout.rows), len(layout.lane_draws)
    return (
        _Chain((nu, lanes)),
        np.empty((rows, lanes), dtype=np.uint64),  # counter states
        np.empty((rows, lanes)),  # uniforms
        np.zeros((3, nu, lanes)),  # H, S and a product scratch
        # the copy rows of draws and of reinforcements, for urns reading distinct emissions
        np.empty((nu, lanes)) if layout.copy_draws else None,
        np.empty((nu, lanes)) if layout.copy_reinfs else None,
        # Kahan total, compensation, term, scratch: X/N of each urn, then 1/N of each lane draw
        np.zeros((4, nu + ld, lanes)),
        np.zeros((ld, lanes)),  # the sum of N of each lane draw
        np.zeros((2, len(layout.lane_reinfs), lanes)),  # sums of R, R^2 of each lane reinforcement
    )


# A chunk's arrays are kept within this many bytes; see lane_cap.
WORKSPACE_BUDGET = 8 << 20


def lane_cap(config: UrnConfig | UrnSystem, horizons: int,
             labels: tuple[str, ...] | None = None) -> int:
    """The most lanes (at least 1) whose ``run_chunk`` arrays, with
    ``horizons`` snapshots of the urns ``labels`` names (all when None),
    fit ``WORKSPACE_BUDGET``: ``_Layout.lane_bytes``, read off
    ``_workspace``, per lane.  Wide draw strides get fewer lanes."""
    return max(1, WORKSPACE_BUDGET // _Layout(config, labels).lane_bytes(horizons))


def _per_urn(values: list, index: list[int], rows: np.ndarray | None):
    # The step's emissions laid out for the stacked urns.  Without
    # ``rows`` every urn reads one emission, used as it is: an int stays
    # a scalar and a float64 (lanes,) array broadcasts against (urns,
    # lanes).  Otherwise each urn's emission is copied into its row.
    if rows is None:
        return values[index[0]]
    for u, i in enumerate(index):
        rows[u] = values[i]
    return rows


def _kahan_step(total: float, comp: float, x: float) -> tuple[float, float]:
    # One compensated add on floats: _kahan_add's four operations.
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _mean(total, h: int, lanes: int) -> np.ndarray:
    # A fresh (lanes,) array of total / h, for a row or a float sum.
    return total / h if isinstance(total, np.ndarray) else np.full(lanes, total / h)


def trajectory_snapshot(traj: Trajectory, horizons: tuple[int, ...]) -> list[dict[str, float]]:
    """One lane's snapshot at each of ``horizons`` (in [1, len(traj)]),
    reduced from a scalar trajectory in one pass: integer sums, and
    Kahan sums of X/N and 1/N in step order, as ``run_chunk`` reduces
    a lane, so the two agree bit for bit."""
    horizons = check_horizons(horizons, len(traj))
    n, x, r = (col[:horizons[-1]].tolist() for col in (traj.N, traj.X, traj.R))
    n_sum = r_sum = r_sqsum = 0
    m_tot = m_comp = recip_tot = recip_comp = 0.0
    snaps, t = [], 0
    for h in horizons:
        for ni, xi in zip(n[t:h], x[t:h]):
            m_tot, m_comp = _kahan_step(m_tot, m_comp, xi / ni)
            recip_tot, recip_comp = _kahan_step(recip_tot, recip_comp, 1.0 / ni)
        n_sum, r_sum = n_sum + sum(n[t:h]), r_sum + sum(r[t:h])
        r_sqsum += sum(ri * ri for ri in r[t:h])
        t, h_balls, s_balls = h, int(traj.H[h - 1]), int(traj.S[h - 1])
        snaps.append(dict(zip(SNAPSHOT_FIELDS, (
            h_balls / s_balls, m_tot / h, s_balls / h,
            r_sum / h, r_sqsum / h, n_sum / h, recip_tot / h))))
    return snaps


def _row_keys(master_seed: int, rep_lo: int, rep_hi: int, rows: list) -> np.ndarray:
    """Each row's key for lanes rep_lo..rep_hi-1, offset to counter c0:
    a (rows, lanes) uint64 matrix; the per-stream keys are not kept."""
    rkeys = rng.rep_keys_vec(master_seed, np.arange(rep_lo, rep_hi, dtype=np.uint64))
    keys = {stream: rng.derive_keys_each(rkeys, *stream)
            for stream in dict.fromkeys(stream for stream, _, _ in rows)}
    # c(t) = c0 + m t, so the additive stream offset (c(t) + 1) * GOLDEN
    # = off0 + t * slope (mod 2**64): off0 goes into the keys once here.
    off0 = np.array([((c + 1) * rng.GOLDEN) & rng.MASK64 for _, c, _ in rows], dtype=np.uint64)
    key_matrix = np.stack([keys[stream] for stream, _, _ in rows])
    key_matrix += off0[:, None]
    return key_matrix


def run_chunk(
    config: UrnConfig | UrnSystem,
    master_seed: int,
    rep_lo: int,
    rep_hi: int,
    horizons: tuple[int, ...],
    *,
    labels: tuple[str, ...] | None = None,
    plugins_to: int | None = None,
) -> dict[str, list[dict[str, np.ndarray]]]:
    """Simulate lanes rep_lo..rep_hi-1 and snapshot at each horizon.

    Returns {label: [snapshot dict per horizon]} for the urns ``labels``
    names (``check_labels``; every urn by default); horizons pass
    ``check_horizons``.  The plug-in sums stop after step ``plugins_to``
    (``check_plugins_to``: one of the horizons, the last by default), so
    a later snapshot lacks ``PLUGIN_FIELDS``.  The range holds the
    replication indices the key tree reads as 64-bit words: integers,
    numpy's included but no bool, with 0 <= rep_lo < rep_hi <= 2**64,
    and at most ``lane_cap`` of them.  The 2**53 bound covers every urn
    of the config.
    """
    if not (_is_integer(rep_lo) and _is_integer(rep_hi) and 0 <= rep_lo < rep_hi <= 1 << 64):
        raise ParameterError(f"replication range must be integers with "
                             f"0 <= rep_lo < rep_hi <= 2**64, got [{rep_lo!r}, {rep_hi!r})")
    rep_lo, rep_hi = int(rep_lo), int(rep_hi)
    horizons = check_horizons(horizons)
    cut = check_plugins_to(horizons, plugins_to)
    labels = check_labels(config, labels)
    check_int64_range(config, horizons[-1])
    lanes, cap = rep_hi - rep_lo, lane_cap(config, len(horizons), labels)
    if lanes > cap:
        raise ParameterError(f"a chunk of {lanes} lanes exceeds lane_cap = {cap} "
                             f"for horizons {horizons}")

    layout = _Layout(config, labels)
    urns, rows, draws, reinfs = layout.urns, layout.rows, layout.draws, layout.reinfs
    key_matrix = _row_keys(master_seed, rep_lo, rep_hi, rows)
    slope = np.array([(m * rng.GOLDEN) & rng.MASK64 for _, _, m in rows], dtype=np.uint64)

    # The chunk's workspace; a step writes into it and allocates no
    # lane-sized array of its own.  Every count, sum and emission in it
    # is float64 holding an exact integer, so no step operation mixes
    # dtypes.  One _kahan_add sums the whole Kahan block.
    (chain, states, units, (H, S, grow), n_rows, r_rows, (sums, comps, terms, spare),
     n_sums, r_sums) = _workspace(layout, lanes)
    nu, lane_draws, lane_reinfs = len(urns), layout.lane_draws, layout.lane_reinfs
    balls = units[layout.ex0:].reshape(layout.stride, nu, lanes)
    step_off = np.empty_like(slope)
    H[...] = [[c.a] for c in urns]
    S[...] = [[c.a + c.b] for c in urns]

    # Each emission's sums of N and 1/N, or of R and R^2, kept once
    # however many urns read it: a (lanes,) row for an emission read
    # from a stream, a Python float for an int emission.
    n_tot, recip_tot, recip_comp = ([0.0] * len(draws) for _ in range(3))
    r_tot, r_sqtot = ([0.0] * len(reinfs) for _ in range(2))
    for j, i in enumerate(lane_draws):
        n_tot[i], recip_tot[i] = n_sums[j], sums[nu + j]
    for j, i in enumerate(lane_reinfs):
        r_tot[i], r_sqtot[i] = r_sums[:, j]
    draw_rows = [(i, n_tot[i], terms[nu + j]) for j, i in enumerate(lane_draws)]
    reinf_rows = [(i, r_tot[i], r_sqtot[i]) for i in lane_reinfs]
    int_draws = [i for i in range(len(draws)) if i not in lane_draws]
    int_reinfs = [i for i in range(len(reinfs)) if i not in lane_reinfs]
    x_terms, sq = terms[:nu], grow[0]

    out: dict[str, list[dict[str, np.ndarray]]] = {c.label: [] for c in urns}
    n_now: list = [None] * len(draws)
    for t in range(horizons[-1]):
        np.multiply(slope, np.uint64(t), out=step_off)
        np.add(key_matrix, step_off[:, None], out=states)
        rng.units_from_states_vec(states, out=units)
        n_now = [
            p.emit_vec(t, None if r is None else units[r], prev)
            for (p, _, r), prev in zip(draws, n_now)
        ]
        r_now = [p.emit_vec(t, None if r is None else units[r]) for p, _, r in reinfs]
        n = _per_urn(n_now, layout.draw_of, n_rows)
        r = _per_urn(r_now, layout.reinf_of, r_rows)

        x = chain.draw(balls, H, S, n)
        H += np.multiply(r, x, out=grow)
        S += np.multiply(r, n, out=grow)
        for i, n_sum, _ in draw_rows:
            n_sum += n_now[i]
        for i, r_sum, _ in reinf_rows:
            r_sum += r_now[i]
        for i in int_draws:
            n_tot[i] += n_now[i]
        for i in int_reinfs:
            r_tot[i] += r_now[i]
        if t < cut:  # the plug-in sums: X/N and 1/N (Kahan), and R^2
            np.divide(x, n, out=x_terms)
            for i, _, term in draw_rows:
                np.divide(1.0, n_now[i], out=term)
            _kahan_add(sums, comps, terms, spare)
            for i, _, r_sqsum in reinf_rows:
                r_sqsum += np.multiply(r_now[i], r_now[i], out=sq)
            for i in int_draws:
                recip_tot[i], recip_comp[i] = _kahan_step(recip_tot[i], recip_comp[i],
                                                          1.0 / n_now[i])
            for i in int_reinfs:
                r_sqtot[i] += r_now[i] * r_now[i]

        h = t + 1
        if h in horizons:
            z, m_emp, s_over_n = H / S, sums[:nu] / h, S / h
            fields = SNAPSHOT_FIELDS if h <= cut else KEPT_FIELDS
            for u, (c, d, e) in enumerate(zip(urns, layout.draw_of, layout.reinf_of)):
                snap = dict(zip(SNAPSHOT_FIELDS, (
                    z[u], m_emp[u], s_over_n[u],
                    _mean(r_tot[e], h, lanes), _mean(r_sqtot[e], h, lanes),
                    _mean(n_tot[d], h, lanes), _mean(recip_tot[d], h, lanes),
                )))
                out[c.label].append({f: snap[f] for f in fields})
    return out


def sample_hypergeometric_batch(
    key: int, n_draw: int, total: int, marked: int, count: int
) -> np.ndarray:
    """``count`` independent exact hypergeometric draws from one stream.

    Sample ``j`` runs the without-replacement Bernoulli chain of the
    randomness contract: ball ``i`` reads counter ``j * n_draw + i`` of
    stream ``key`` and is marked when that uniform is below (marked
    left) / (balls left).
    """
    if not (1 <= n_draw <= total):
        raise ParameterError(f"draw size must satisfy 1 <= N <= {total}, got {n_draw}")
    if not (0 <= marked <= total):
        raise ParameterError(f"marked count must satisfy 0 <= H <= {total}, got {marked}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    keys = np.full(count, key & rng.MASK64, dtype=np.uint64)
    base = np.arange(count, dtype=np.uint64) * np.uint64(n_draw)
    hits = _Chain((count,)).draw(
        (rng.units_vec(keys, base + np.uint64(i)) for i in range(n_draw)),
        np.full(count, float(marked)),
        np.full(count, float(total)),
        n_draw,
    )
    return hits.astype(np.int64)
