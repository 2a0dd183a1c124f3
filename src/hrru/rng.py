"""Counter-based random streams with hierarchical key derivation.

Every random quantity in this package is produced by evaluating a pure
64-bit function at an explicit (key, counter) pair, so a value never
depends on how many other values were drawn before it, in what order
replications ran, or how work was split across processes.

The generator is the SplitMix64 output function: the state for counter
``c`` under key ``k`` is ``k + (c + 1) * GOLDEN`` modulo 2**64, passed
through the standard murmur-style finalizer (xor-shift / multiply
rounds with constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
Counter 0 is the first value of a stream.

Keys form a tree.  ``derive_key(parent, *parts)`` absorbs each part
(integers as-is, strings through FNV-1a) into the parent key with one
finalizer round per part, so distinct paths give statistically
independent streams.  The conventional layout is::

    rep_key     = derive_key(master_seed, "rep", rep_index)
    urn_purpose = derive_key(rep_key, "urn", label, purpose)
    factor      = derive_key(rep_key, purpose)

with purposes "draw", "extract", "reinforce" at the urn level and
"factor-draw", "factor-reinforce" at the replication level.

Counter layout within a trajectory: the draw-size and reinforcement
streams use counter ``t`` for step ``t``, except the absorbing walk,
which reads ``t - 1`` (its step 0 emits the start value and reads
nothing); a policy declares this offset as its ``stream_lag``.  The
extraction stream reserves a fixed stride of ``k`` counters per step
(``k`` the declared draw-size bound) and ball ``i`` of step ``t``
reads counter ``t * k + i``.  Unused counters in a stride are simply
never read.

64-bit floats are produced from the top 53 bits: ``(v >> 11) * 2**-53``,
uniform on [0, 1).

``mix64``, ``derive_key`` and ``stream_value`` are the scalar
statement of these rules.  Every reader (the trajectory builder, the
engine) evaluates arrays of counters through the vector twins below,
which tests hold to the scalar functions bit for bit.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_INV_2_53 = 1.0 / (1 << 53)

DRAW = "draw"
EXTRACT = "extract"
REINFORCE = "reinforce"
FACTOR_DRAW = "factor-draw"
FACTOR_REINFORCE = "factor-reinforce"
DEFAULT_LABEL = "u0"


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & MASK64
    return x ^ (x >> 31)


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a string's UTF-8 bytes, for key derivation tags."""
    h = _FNV_BASIS
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def _tag(part: int | str) -> int:
    if isinstance(part, bool):
        raise TypeError("key parts must be ints or strings, not bool")
    if isinstance(part, int):
        return part & MASK64
    if isinstance(part, str):
        return fnv1a64(part)
    raise TypeError(f"key parts must be ints or strings, got {type(part).__name__}")


def derive_key(key: int, *parts: int | str) -> int:
    """Derive a child key by absorbing each part with a finalizer round."""
    k = key & MASK64
    for part in parts:
        k = mix64((k ^ mix64(_tag(part))) + GOLDEN)
    return k


def stream_value(key: int, counter: int) -> int:
    """The 64-bit value of stream ``key`` at position ``counter``."""
    if counter < 0:
        raise ValueError("stream counter must be nonnegative")
    return mix64(key + (counter + 1) * GOLDEN)


def unit_from_u64(v: int) -> float:
    """Map a 64-bit word to a float uniform on [0, 1)."""
    return (v >> 11) * _INV_2_53


def rep_key(master_seed: int, rep: int) -> int:
    """The key of replication ``rep``, which callers check is in [0, 2**64)."""
    return derive_key(master_seed, "rep", rep)


# Vectorized twins.  These evaluate the same functions elementwise on
# uint64 arrays; equality with the scalar path is pinned by tests.

_V_MIX_A = np.uint64(_MIX_A)
_V_MIX_B = np.uint64(_MIX_B)
_V30 = np.uint64(30)
_V27 = np.uint64(27)
_V31 = np.uint64(31)
_V11 = np.uint64(11)


def mix64_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise mix64 on a uint64 array (wrap-around semantics)."""
    x = (x ^ (x >> _V30)) * _V_MIX_A
    x = (x ^ (x >> _V27)) * _V_MIX_B
    return x ^ (x >> _V31)


def stream_values_vec(keys: np.ndarray, counters: np.ndarray | int) -> np.ndarray:
    """Broadcast stream evaluation: value of ``keys`` at ``counters``.

    ``keys`` must be a uint64 array of one or more dimensions; scalar
    counters are folded in python ints so no numpy scalar op runs.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if isinstance(counters, (int, np.integer)):
        offs = np.uint64(((int(counters) + 1) * GOLDEN) & MASK64)
    else:
        offs = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
    return mix64_vec(keys + offs)


def units_vec(keys: np.ndarray, counters: np.ndarray | int) -> np.ndarray:
    """Broadcast uniform [0, 1) floats of ``keys`` at ``counters``."""
    return (stream_values_vec(keys, counters) >> _V11) * _INV_2_53


def units_from_states_vec(states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Finalize precomposed ``key + (c + 1) * GOLDEN`` states to uniforms
    in ``out`` (float64, the shape of ``states``).

    Nothing is allocated: ``states`` is consumed in place and ``out``
    doubles as the shift scratch.  ``v >> 11`` is below 2**53, so
    converting it through an int64 view is exact and gives the same
    floats as the unsigned conversion.
    """
    x, shifted = states, out.view(np.uint64)
    for shift, mul in ((_V30, _V_MIX_A), (_V27, _V_MIX_B)):
        np.right_shift(x, shift, out=shifted)
        x ^= shifted
        x *= mul
    np.right_shift(x, _V31, out=shifted)
    x ^= shifted
    x >>= _V11
    return np.multiply(x.view(np.int64), _INV_2_53, out=out)


def derive_keys_each(keys: np.ndarray, *parts: int | str) -> np.ndarray:
    """derive_key applied elementwise: the same child of every key."""
    k = keys.astype(np.uint64)
    golden = np.uint64(GOLDEN)
    for part in parts:
        tag = np.uint64(mix64(_tag(part)))
        k = mix64_vec((k ^ tag) + golden)
    return k


def rep_keys_vec(master_seed: int, reps: np.ndarray) -> np.ndarray:
    """``rep_key(master_seed, r)`` for every index ``r`` of ``reps``."""
    base = np.uint64(derive_key(master_seed, "rep"))
    return mix64_vec((base ^ mix64_vec(reps.astype(np.uint64))) + np.uint64(GOLDEN))
