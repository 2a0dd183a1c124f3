"""Exact two-color urn dynamics with random draw sizes and reinforcement.

The process: an urn starts with ``a`` balls of color A and ``b`` of
color B (both at least 1).  At step ``t`` (counting from 0) a draw
size ``N_t`` is emitted by the draw-size policy, ``N_t`` balls are
extracted without replacement, the number ``X_t`` of A-balls among
them is recorded, all extracted balls go back, and the reinforcement
policy emits ``R_t >= 1``; then ``R_t * X_t`` A-balls and
``R_t * (N_t - X_t)`` B-balls are added.  All counts are exact
integers throughout; no floating point enters the state update.

Conditional on the state before the step, ``X_t`` is hypergeometric
with population ``S`` (total balls), ``H`` marked (A-balls), and
sample size ``N_t``.  Sampling is an explicit without-replacement
Bernoulli chain, one uniform per potential ball, so a trajectory is a
pure function of its streams.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .rng import (
    DEFAULT_LABEL, DRAW, EXTRACT, MASK64, REINFORCE, derive_key, rep_key, units_vec,
)

# Ball counts land in the int64 columns of a ``Trajectory``; keep a
# margin below 2**63 so intermediate products cannot wrap there.
CAPACITY_LIMIT = 1 << 62

# An ``IntegerDistribution`` samples an array of uniforms by CDF
# comparisons, a few passes per support value, when its support has at
# most ``_COMPARE_MAX`` values and the array at least ``_COMPARE_LANES``
# lanes per value; otherwise by ``searchsorted``, whose cost per lane
# grows with the lanes (a measured crossover: about 3 values at 1024
# lanes, 12 at 4096, 24 to 32 at 8192, 40 at 16 384 and 50 at 32 768).
_COMPARE_MAX = 32
_COMPARE_LANES = 512

# The trajectory builder runs windows of ``_WINDOW_READS // stride``
# steps (at least one), so a window reads at most ``_WINDOW_READS``
# extraction uniforms (one step's draw when the stride is larger) and
# at most as many from each policy stream.
_WINDOW_READS = 1 << 16
# Integers up to 2**53 convert to float64 exactly: the batch engine
# keeps its counts within that bound, and the trajectory builder lets a
# policy within it emit a whole window as one float64 array.
_EXACT_LIMIT = 1 << 53


def _is_int(v) -> bool:
    """Whether ``v`` is an int other than a bool: ``True`` is an ``int``
    to ``isinstance`` but never a count, draw size or reinforcement."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    """Whether ``v`` is an int or a numpy integer, but no bool (numpy's
    bool is no numpy integer) and no float."""
    return _is_int(v) or isinstance(v, np.integer)


def _master_seed(seed) -> int:
    """``seed`` as a Python int: any integer, numpy's included, but no
    bool or float (``int`` would run 1.7 as seed 1)."""
    if not _is_integer(seed):
        raise ParameterError(f"master seed must be an integer, got {seed!r}")
    return int(seed)


def _rep_index(rep) -> int:
    """``rep`` as a Python int in [0, 2**64), numpy integers included:
    the key tree reads a replication index as a 64-bit word, so a larger
    one would run another replication's streams."""
    if not _is_integer(rep) or not 0 <= int(rep) <= MASK64:
        raise ParameterError(f"replication index must be an integer in [0, 2**64), got {rep!r}")
    return int(rep)


def check_horizons(horizons, last: float = float("inf")) -> tuple[int, ...]:
    """``horizons``, a tuple or list of strictly increasing integers
    (numpy's too, but no bool) in [1, last], as a tuple of ints."""
    hs = tuple(horizons) if isinstance(horizons, (tuple, list)) else ()
    if not (hs and all(map(_is_integer, hs)) and 1 <= hs[0] and hs[-1] <= last
            and all(h1 < h2 for h1, h2 in zip(hs, hs[1:]))):
        raise ParameterError(f"horizons must be strictly increasing integers in "
                             f"[1, {last}], got {horizons!r}")
    return tuple(map(int, hs))


def _horizon(n, total: int) -> int:
    """``n`` steps of a trajectory of ``total``: the whole of it when
    ``n`` is None, else the one horizon ``check_horizons`` accepts."""
    try:
        return total if n is None else check_horizons((n,), total)[0]
    except ParameterError:
        raise ParameterError(f"n must be an integer in [1, {total}], got {n!r}") from None


class ParameterError(ValueError):
    """Arguments or fields out of their documented range: ``problems``,
    each ``"key: message"`` about one field (the key is the field's JSON
    name, such as ``values[1]``) or a message about the whole object;
    ``str`` joins them with "; "."""

    def __init__(self, problems: str | Sequence[str]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


class ConfigError(ParameterError):
    """An urn's or a config's problems, collected before raising."""


def _raise_problems(problems: Sequence[str]) -> None:
    """Raise one ``ParameterError`` holding ``problems``, if there are any."""
    if problems:
        raise ParameterError(problems)


def count_problems(**counts) -> list[str]:
    """The ``"key: message"`` problems of ``counts``, each of which must be
    an integer >= 1: an urn's a and b, a plan's reps and n, a run's steps."""
    return [f"{key}: must be an integer >= 1, got {v!r}"
            for key, v in counts.items() if not _is_int(v) or v < 1]


def _past_float(**ints) -> list[str]:
    """The ``"key: message"`` problems of integers too large for a float,
    which a law's float64 support or a uniform's scaling would overflow."""
    return [f"{key}: integer is too large for a float"
            for key, v in ints.items() if _is_int(v) and abs(v) > sys.float_info.max]


def urn_problems(a, b, label) -> list[str]:
    """The ``"key: message"`` problems of an urn's own fields: the counts
    ``a`` and ``b``, and a nonempty string ``label`` that UTF-8 encodes,
    as the key tree hashes its bytes."""
    problems = count_problems(a=a, b=b)
    if not isinstance(label, str) or not label:
        problems.append(f"label: must be a nonempty string, got {label!r}")
    elif any("\ud800" <= ch <= "\udfff" for ch in label):
        problems.append(f"label: must be UTF-8 encodable (no lone surrogate), got {label!r}")
    return problems


@dataclass(frozen=True)
class IntegerDistribution:
    """Finite distribution on integers, sampled by inverse CDF."""

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        problems = [] if self.values else ["values: must hold at least one value"]
        if len(self.values) != len(self.probs):
            problems.append(f"probs: must hold one probability per value, "
                            f"got {len(self.probs)} for {len(self.values)} values")
        if not all(map(_is_int, self.values)):
            problems.append("values: must be integers")
        elif len(set(self.values)) != len(self.values):
            problems.append("values: must be distinct")
        else:
            problems += _past_float(**{f"values[{i}]": v for i, v in enumerate(self.values)})
        if any(not math.isfinite(p) or p < 0.0 for p in self.probs):
            problems.append(f"probs: must be finite and nonnegative, got {self.probs}")
        elif self.probs and abs(math.fsum(self.probs) - 1.0) > 1e-9:
            problems.append(f"probs: sum to {math.fsum(self.probs)!r}, not 1")
        _raise_problems(problems)
        cdf = list(accumulate(self.probs))
        cdf[-1] = 1.0
        object.__setattr__(self, "_cdf", np.asarray(cdf, dtype=np.float64))
        object.__setattr__(self, "_support", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "_steps", tuple(
            (c, float(hi - lo)) for c, lo, hi in zip(cdf, self.values, self.values[1:])
        ))

    @property
    def low(self) -> int:
        return min(self.values)

    @property
    def high(self) -> int:
        return max(self.values)

    def sample(self, u):
        """The first value whose CDF step exceeds ``u``: a Python int for
        one uniform, float64 holding exact integers for an array (exact
        for values up to 2**53, the engine's range).

        That value sits at index "CDF steps at or below ``u``", capped
        at the last.  An array of a small law counts the steps by one
        comparison each, ``values[0] + sum over i < K - 1 of
        (u >= cdf[i]) * (values[i + 1] - values[i])``, whose partial
        sums are support values; a larger law, or a short array, uses
        ``searchsorted``.
        """
        k = len(self.values)
        if isinstance(u, float):
            return self.values[min(bisect_right(self._cdf, u), k - 1)]
        if k > min(_COMPARE_MAX, u.size // _COMPARE_LANES):
            idx = np.searchsorted(self._cdf, u, side="right")
            np.minimum(idx, k - 1, out=idx)
            return self._support[idx]
        out = np.full(u.shape, self._support[0])
        step = np.empty(u.shape)
        for c, d in self._steps:
            np.greater_equal(u, c, out=step)
            step *= d
            out += step
        return out


# Draw-size policies.  Each declares a hard bound (the extraction
# stream reserves that many counters per step) and whether its draws
# are i.i.d., which downstream variance estimates rely on.
#
# Every policy states its rule once, in ``emit_vec(t, u, n_prev)``: ``u``
# is the step's uniform from the policy's stream (a float, or one per
# lane) and ``n_prev`` the previous draw size (an int or one per lane).
# ``stream_lag`` says which counter that uniform sits at: step ``t``
# reads counter ``t - stream_lag``, and ``None`` means no stream is
# read.  Both the trajectory builder and the batch engine read the
# uniform there and hand it in, so a policy never sees a stream.  A
# float ``u`` gets a Python int back; an array gets a float64 array
# holding exact integers, the engine's dtype, or an int when the policy
# reads no stream.
#
# A policy's or a finite law's problems are each ``"key: message"`` about
# one of its fields, so a config reader reports them at the field.


def _scaled(u, low: int, span: int):
    """low + floor(u * span), with floor(u * span) capped at span - 1:
    an int for one uniform, float64 holding exact integers for an array.

    The cap guards the u == 1 - ulp edge so emissions stay in range.
    """
    if isinstance(u, float):
        return low + min(int(u * span), span - 1)
    scaled = np.multiply(u, span)
    np.floor(scaled, out=scaled)
    np.minimum(scaled, span - 1, out=scaled)
    scaled += low
    return scaled


def walk_move(prev, u, high: int):
    """One move of the fair +/-1 walk absorbed at 1 and at ``high``.

    Up when ``u < 0.5``, down otherwise, and no move once absorbed: an
    int for one uniform, float64 holding exact integers for an array.
    """
    inside = (prev > 1) & (prev < high)
    if isinstance(u, float):
        return prev + inside * (2 * (u < 0.5) - 1)
    return prev + inside * np.where(u < 0.5, 1.0, -1.0)


@dataclass(frozen=True)
class ConstantOne:
    """Classic single-ball draws."""

    stream_lag = None

    @property
    def bound(self) -> int:
        return 1

    @property
    def iid_draws(self) -> bool:
        return True

    def emit_vec(self, t: int, u, n_prev) -> int:
        return 1


@dataclass(frozen=True)
class DeterministicSchedule:
    """Fixed schedule of draw sizes; the last entry repeats forever."""

    values: tuple[int, ...]
    stream_lag = None

    def __post_init__(self):
        if not self.values:
            raise ParameterError("values: must hold at least one draw size")
        bad = [v for v in self.values if not _is_int(v) or v < 1]
        if bad:
            raise ParameterError(f"values: draw sizes must be integers >= 1, got {bad}")

    @property
    def bound(self) -> int:
        return max(self.values)

    @property
    def iid_draws(self) -> bool:
        return len(set(self.values)) == 1

    def emit_vec(self, t: int, u, n_prev) -> int:
        return self.values[t] if t < len(self.values) else self.values[-1]


@dataclass(frozen=True)
class IidUniform:
    """Draw sizes uniform on {1, ..., high}, independent across steps."""

    high: int
    stream_lag = 0

    def __post_init__(self):
        _raise_problems(count_problems(high=self.high) + _past_float(high=self.high))

    @property
    def bound(self) -> int:
        return self.high

    @property
    def iid_draws(self) -> bool:
        return True

    def emit_vec(self, t: int, u, n_prev):
        return _scaled(u, 1, self.high)


@dataclass(frozen=True)
class DiscreteDraw:
    """Draw sizes i.i.d. from a finite integer distribution."""

    values: tuple[int, ...]
    probs: tuple[float, ...]
    stream_lag = 0

    def __post_init__(self):
        dist = IntegerDistribution(self.values, self.probs)
        if dist.low < 1:
            raise ParameterError(f"values: draw sizes must be >= 1, got min {dist.low}")
        object.__setattr__(self, "_dist", dist)

    @property
    def bound(self) -> int:
        return max(self.values)

    @property
    def iid_draws(self) -> bool:
        return True

    def emit_vec(self, t: int, u, n_prev):
        return self._dist.sample(u)


@dataclass(frozen=True)
class AbsorbingRandomWalk:
    """Draw sizes follow a lazy +/-1 walk absorbed at 1 and at ``high``.

    The walk starts at ``start``; while strictly inside (1, high) each
    step moves up or down by 1 with probability 1/2 each, using one
    uniform from the draw stream at counter ``t - 1`` (the step-0 draw
    is the start value and consumes nothing).  Once the walk hits a
    boundary it stays there.
    """

    start: int
    high: int
    stream_lag = 1

    def __post_init__(self):
        problems = []
        if not _is_int(self.high) or self.high < 2:
            problems.append(f"high: must be an integer >= 2, got {self.high!r}")
        if not _is_int(self.start) or not (1 <= self.start <= (self.high if _is_int(self.high) else self.start)):
            problems.append(f"start: must be an integer in [1, high], got {self.start!r}")
        _raise_problems(problems)

    @property
    def bound(self) -> int:
        return self.high

    @property
    def iid_draws(self) -> bool:
        return False

    def emit_vec(self, t: int, u, n_prev):
        return self.start if t == 0 else walk_move(n_prev, u, self.high)


DrawSizePolicy = (
    ConstantOne | DeterministicSchedule | IidUniform | DiscreteDraw | AbsorbingRandomWalk
)


# Reinforcement policies.  Every emission must be an integer >= 1 so
# the urn grows and proportions stay well defined.  ``emit_vec(t, u)``
# and ``stream_lag`` work as for draw sizes, with no history.


@dataclass(frozen=True)
class ConstantReinforcement:
    value: int
    stream_lag = None

    def __post_init__(self):
        _raise_problems(count_problems(value=self.value))

    @property
    def bound(self) -> int:
        return self.value

    def emit_vec(self, t: int, u) -> int:
        return self.value


@dataclass(frozen=True)
class UniformReinforcement:
    """Reinforcement uniform on the integer range {low, ..., high}."""

    low: int
    high: int
    stream_lag = 0

    def __post_init__(self):
        problems = count_problems(low=self.low)
        if not _is_int(self.high) or (_is_int(self.low) and self.high < self.low):
            problems.append(f"high: must be an integer >= low, got {self.high!r}")
        _raise_problems(problems + _past_float(high=self.high))

    @property
    def bound(self) -> int:
        return self.high

    def emit_vec(self, t: int, u):
        return _scaled(u, self.low, self.high - self.low + 1)


@dataclass(frozen=True)
class DiscreteReinforcement:
    """Reinforcement drawn from a finite integer distribution."""

    values: tuple[int, ...]
    probs: tuple[float, ...]
    stream_lag = 0

    def __post_init__(self):
        dist = IntegerDistribution(self.values, self.probs)
        if dist.low < 1:
            raise ParameterError(f"values: reinforcements must be >= 1, got min {dist.low}")
        object.__setattr__(self, "_dist", dist)

    @property
    def bound(self) -> int:
        return max(self.values)

    def emit_vec(self, t: int, u):
        return self._dist.sample(u)


ReinforcementPolicy = ConstantReinforcement | UniformReinforcement | DiscreteReinforcement

# The policies a JSON config can name, by JSON name.  A policy's JSON
# fields are its dataclass fields, in declaration order.
DRAW_POLICIES = {
    "constant-one": ConstantOne,
    "schedule": DeterministicSchedule,
    "iid-uniform": IidUniform,
    "discrete": DiscreteDraw,
    "absorbing-walk": AbsorbingRandomWalk,
}
REINFORCEMENT_POLICIES = {
    "constant": ConstantReinforcement,
    "uniform-range": UniformReinforcement,
    "discrete": DiscreteReinforcement,
}


@dataclass(frozen=True)
class StepRecord:
    """Everything observable about one completed step."""

    t: int
    N: int
    X: int
    R: int
    H_after: int
    S_after: int


def _chain(units, total: int, marked: int) -> int:
    # The without-replacement Bernoulli chain over one step's uniforms:
    # ball i is marked when its uniform is below (marked left) / (balls left).
    h_rem = marked
    for u in units:
        if u < h_rem / total:
            h_rem -= 1
        total -= 1
    return marked - h_rem


def increment_identity_check(record: StepRecord, h_before: int, s_before: int) -> bool:
    """Exact integer form of the one-step proportion increment.

    The proportion update Z_t - Z_{t-1} = R (X - N Z_{t-1}) / S_t is
    equivalent, clearing denominators, to

        H_t * S_{t-1} - H_{t-1} * S_t == R * (X * S_{t-1} - N * H_{t-1})

    which holds exactly in integer arithmetic for every valid step.
    """
    lhs = record.H_after * s_before - h_before * record.S_after
    rhs = record.R * (record.X * s_before - record.N * h_before)
    return lhs == rhs


@dataclass(frozen=True)
class UrnConfig:
    """One urn: initial counts plus the two policies.

    Each policy must be of a class on its JSON menu, whose emissions
    are integers >= 1 within its ``bound``; with ``bound <= a + b`` every
    step exists (1 <= N_t <= S_{t-1}, R_t >= 1), so no path re-checks one.
    """

    a: int
    b: int
    # keyword-only, declared here so the config echo writes it after b
    label: str = field(default=DEFAULT_LABEL, kw_only=True)
    draw: DrawSizePolicy
    reinforce: ReinforcementPolicy

    def __post_init__(self):
        problems = urn_problems(self.a, self.b, self.label) + [
            f"{key}: must be a policy on the JSON menu ({', '.join(menu)}), "
            f"got a {type(policy).__name__}"
            for key, policy, menu in (("draw", self.draw, DRAW_POLICIES),
                                      ("reinforce", self.reinforce, REINFORCEMENT_POLICIES))
            if type(policy) not in menu.values()
        ]
        if not problems and self.draw.bound > self.a + self.b:
            problems.append(
                f"draw-size bound {self.draw.bound} exceeds a + b = {self.a + self.b}; "
                f"draws are without replacement so k <= a + b is required"
            )
        if problems:
            raise ConfigError(problems)

    @property
    def lockstep(self) -> tuple[tuple["UrnSlot", ...], int]:
        """This urn as a lockstep run of one: its own streams, stride k."""
        own = ("urn", self.label)
        return (UrnSlot(self, (*own, DRAW), (*own, REINFORCE)),), self.draw.bound


@dataclass(frozen=True)
class UrnSlot:
    """One urn of a lockstep run: a one-urn config and the streams it reads.

    A stream is named by its key path below the replication key (see
    ``rng``): a single urn's policies read its own ``("urn", label,
    "draw")`` and ``("urn", label, "reinforce")``; a system urn's read
    the shared ``("factor-draw",)`` and ``("factor-reinforce",)``.
    Extraction always reads the urn's own ``("urn", label, "extract")``,
    at the run's shared stride.  The scalar path and the batch engine
    both key their streams by these paths.
    """

    config: UrnConfig
    draw_stream: tuple[str, ...]
    reinforce_stream: tuple[str, ...]

    @property
    def extract_stream(self) -> tuple[str, ...]:
        return ("urn", self.config.label, EXTRACT)


@dataclass(frozen=True)
class Trajectory:
    """Columnar record of one simulated path.

    Arrays are aligned by step index: entry ``t`` describes step ``t``.
    ``Z[t]`` is the A-proportion after step ``t`` and ``M[t]`` the
    running mean of ``X/N`` over steps 0..t.
    """

    config: UrnConfig
    seed: int | None
    N: np.ndarray
    X: np.ndarray
    R: np.ndarray
    H: np.ndarray
    S: np.ndarray
    Z: np.ndarray
    M: np.ndarray

    def __len__(self) -> int:
        return len(self.N)

    @property
    def z0(self) -> float:
        return self.config.a / (self.config.a + self.config.b)

    def record(self, t: int) -> StepRecord:
        return StepRecord(
            t=t,
            N=int(self.N[t]),
            X=int(self.X[t]),
            R=int(self.R[t]),
            H_after=int(self.H[t]),
            S_after=int(self.S[t]),
        )


def run_trajectory(
    config: UrnConfig,
    steps: int,
    master_seed: int,
    rep: int = 0,
) -> Trajectory:
    """Simulate ``steps`` steps of replication ``rep`` of one urn, exactly
    and reproducibly."""
    slots, stride = config.lockstep
    return lockstep_trajectories(slots, stride, master_seed, rep, steps)[0]


def lockstep_trajectories(
    slots: Sequence[UrnSlot],
    stride: int,
    master_seed: int,
    rep: int,
    steps: int,
) -> list[Trajectory]:
    """The ``Trajectory`` of every slot over ``steps`` steps of the urn rule.

    Each distinct key path the slots name becomes one stream key under
    replication ``rep`` of ``master_seed``, so urns reading a shared
    factor share its stream.  Every uniform is addressed by counter, so
    a slot's path does not depend on the other slots' and each slot
    runs to the end in turn, a window of steps at a time (``_windows``).
    H and S are the running integer sums, Z is the exact ``H / S`` of
    Python ints (counts may pass 2**53) and M the running mean of X/N
    in step order.
    """
    _raise_problems(count_problems(steps=steps))
    seed = _master_seed(master_seed)
    rk = rep_key(seed, _rep_index(rep))
    keys = {p: derive_key(rk, *p) for slot in slots
            for p in (slot.draw_stream, slot.extract_stream, slot.reinforce_stream)}
    out = []
    for slot in slots:
        cfg = slot.config
        ints = np.empty((5, steps), dtype=np.int64)
        n_col, x_col, r_col, h_col, s_col = ints
        for t0, ns, xs, rs in _windows(cfg, stride, steps, keys[slot.draw_stream],
                                       keys[slot.extract_stream], keys[slot.reinforce_stream]):
            t1 = t0 + len(ns)
            n_col[t0:t1] = ns
            x_col[t0:t1] = xs
            r_col[t0:t1] = rs
        # The capacity check keeps every partial sum below 2**62.
        np.cumsum(r_col * x_col, out=h_col)
        np.cumsum(r_col * n_col, out=s_col)
        h_col += cfg.a
        s_col += cfg.a + cfg.b
        # numpy rounds int64 counts to float64 before dividing, which is
        # exact only up to 2**53; past that, divide Python ints.
        z_col = h_col / s_col if s_col[-1] <= _EXACT_LIMIT else np.array(
            [h / s for h, s in zip(h_col.tolist(), s_col.tolist())])
        # np.add.accumulate adds in index order, as a step loop would.
        m_col = np.add.accumulate(x_col / n_col) / np.arange(1, steps + 1)
        out.append(Trajectory(
            config=cfg, seed=seed,
            N=n_col, X=x_col, R=r_col, H=h_col, S=s_col, Z=z_col, M=m_col,
        ))
    return out


def _windows(cfg: UrnConfig, stride: int, steps: int, draw_key: int, extract_key: int,
             reinforce_key: int):
    # (t0, N, X, R) for windows of at most _WINDOW_READS // stride steps.
    # A window emits its draw sizes and reinforcements before any ball
    # is drawn, reads exactly the extraction counters its draws use, and
    # then runs the chain and the integer update step by step, whose one
    # check is the capacity: the config proves every step exists.
    draw, reinforce = cfg.draw, cfg.reinforce
    batch_draws = draw.iid_draws and draw.bound <= _EXACT_LIMIT
    batch_reinforce = reinforce.bound <= _EXACT_LIMIT
    width = max(1, _WINDOW_READS // stride)
    h, s, n_prev = cfg.a, cfg.a + cfg.b, None
    for t0 in range(0, steps, width):
        t1 = min(t0 + width, steps)
        ns = _emissions(draw.emit_vec, draw.stream_lag, draw_key, t0, t1, n_prev, batch_draws)
        n_prev = ns[-1]
        rs = _emissions(lambda t, u, _: reinforce.emit_vec(t, u), reinforce.stream_lag,
                        reinforce_key, t0, t1, None, batch_reinforce)
        units = _extraction_units(extract_key, stride, t0, ns)
        xs = []
        first = 0
        for n, r in zip(ns, rs):
            if s + r * n > CAPACITY_LIMIT:
                raise OverflowError(f"ball count {s + r * n} exceeds the supported capacity 2**62")
            x = _chain(units[first:first + n], s, h)
            first += n
            h += r * x
            s += r * n
            xs.append(x)
        yield t0, ns, xs, rs


def _emissions(emit, lag, key: int, t0: int, t1: int, prev, batch: bool) -> list[int]:
    # One policy's emissions for steps t0..t1 - 1 as Python ints, by
    # ``emit(t, u, prev)``: step t reads counter t - lag of stream
    # ``key``, or nothing without a lag or before that counter.  A batch
    # policy emits a window whose steps all read, or none does, in one
    # call on the array of its uniforms; otherwise each step emits from
    # its own float and the previous emission.
    first = t1 if lag is None else min(max(t0, lag), t1)  # the first step that reads
    units = units_vec(np.uint64(key), np.arange(first - lag, t1 - lag, dtype=np.uint64)) \
        if first < t1 else None
    if batch and first in (t0, t1):
        values = emit(t0, units, None)
        if isinstance(values, int):
            return [values] * (t1 - t0)
        return values.astype(np.int64).tolist()
    out = []
    floats = [None] * (first - t0) + ([] if units is None else units.tolist())
    for t, u in zip(range(t0, t1), floats):
        prev = emit(t, u, prev)
        out.append(prev)
    return out


def _extraction_units(key: int, stride: int, t0: int, ns: list[int]) -> memoryview:
    # The uniforms balls i < N_t of steps t0, t0 + 1, ... read, in step
    # order: counters t * stride + i, in uint64 arithmetic that wraps as
    # the generator's state does.
    ends = np.cumsum(ns)
    starts = np.arange(t0, t0 + len(ns), dtype=np.uint64) * np.uint64(stride)
    starts -= (ends - ns).astype(np.uint64)
    counters = np.repeat(starts, ns)
    counters += np.arange(ends[-1], dtype=np.uint64)
    return memoryview(units_vec(np.uint64(key), counters))
