"""Stream and key-derivation contract tests.

The README's randomness contract defines the streams, and
``tests/contract_oracle.py`` implements it from the text alone.  Here
``mix64`` and ``stream_value`` are pinned to frozen values, and the
vector twins every reader uses must match these scalar references bit
for bit, because the package's reproducibility rests on that.
"""

from dataclasses import replace

import numpy as np
import pytest

from hrru import rng
from hrru.multi_urn import UrnSpec, UrnSystem
from hrru.urn_core import IidUniform, UniformReinforcement, UrnConfig


def test_mix64_known_values():
    # Frozen outputs of the finalizer; any change breaks every stream.
    assert rng.mix64(0) == 0
    assert rng.mix64(1) == 0x5692161D100B05E5
    # first output of the classic generator seeded with 0
    assert rng.mix64(rng.GOLDEN) == 0xE220A8397B1DCDAF
    assert rng.mix64(rng.MASK64) == 0xB4D055FCF2CBBD7B


def test_stream_matches_reference_sequence():
    # published outputs of the golden-increment generator seeded with
    # 1234567; pins both the increment and the finalizer
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert [rng.stream_value(1234567, c) for c in range(3)] == expected


def test_mix64_wraps_input():
    assert rng.mix64(1 << 64) == rng.mix64(0)


def _unit(key, counter):
    return rng.unit_from_u64(rng.stream_value(key, counter))


def test_stream_value_is_positional():
    key = rng.derive_key(123, "rep", 0)
    direct = [_unit(key, c) for c in range(10)]
    one = np.array([key], dtype=np.uint64)
    # a read depends on its counter only, not on the reads before it or
    # on the batch it is read in
    for order in ([7, 3, 9, 0], list(range(10)), [9]):
        got = rng.units_vec(one, np.array(order, dtype=np.uint64))
        assert got.tolist() == [direct[c] for c in order]
        assert [rng.units_vec(one, c)[0] for c in order] == got.tolist()


def test_stream_rejects_negative_counter():
    with pytest.raises(ValueError):
        rng.stream_value(1, -1)


def test_units_in_unit_interval():
    key = rng.derive_key(7, "urn", "u0", "draw")
    us = rng.units_vec(np.uint64(key), np.arange(1000, dtype=np.uint64)).tolist()
    assert all(0.0 <= u < 1.0 for u in us)
    # 53-bit mantissas exactly: u * 2**53 is integral
    assert all(float(u * 2**53).is_integer() for u in us)


def test_derive_key_order_and_parts_matter():
    base = 99
    assert rng.derive_key(base, "a", "b") != rng.derive_key(base, "b", "a")
    assert rng.derive_key(base, "ab") != rng.derive_key(base, "a", "b")
    assert rng.derive_key(base, 1) != rng.derive_key(base, "1")
    assert rng.derive_key(base, "x") == rng.derive_key(base, "x")


def test_derive_key_rejects_bool():
    with pytest.raises(TypeError):
        rng.derive_key(1, True)


def test_rep_keys_differ():
    keys = {rng.rep_key(5, r) for r in range(100)}
    assert len(keys) == 100


def test_urn_streams_are_distinct():
    # the three key paths an urn's slot names give three distinct streams
    (slot,), _ = UrnConfig(3, 3, IidUniform(2), UniformReinforcement(1, 2)).lockstep
    rk = rng.rep_key(3, 2)
    paths = (slot.draw_stream, slot.extract_stream, slot.reinforce_stream)
    assert paths == (("urn", "u0", "draw"), ("urn", "u0", "extract"), ("urn", "u0", "reinforce"))
    heads = {rng.stream_value(rng.derive_key(rk, *p), 0) for p in paths}
    assert len(heads) == 3
    (other,), _ = replace(slot.config, label="u1").lockstep
    assert other.draw_stream != slot.draw_stream
    assert rng.derive_key(rk, *other.draw_stream) != rng.derive_key(rk, *slot.draw_stream)


def test_system_streams_mirror_urn_streams():
    # a system urn extracts on the single urn's own path and draws its
    # size and reinforcement on the shared factor paths
    system = UrnSystem(urns=(UrnSpec("A", 5, 5, 2, 1), UrnSpec("B", 5, 5, 1, 1)))
    slots, _ = system.lockstep
    solos = [slot.config.lockstep[0][0] for slot in slots]
    assert [s.extract_stream for s in slots] == [s.extract_stream for s in solos]
    assert {s.draw_stream for s in slots} == {("factor-draw",)}
    assert {s.reinforce_stream for s in slots} == {("factor-reinforce",)}
    rk = rng.rep_key(4, 1)
    assert rng.derive_key(rk, "factor-draw") != rng.derive_key(rk, "factor-reinforce")


# Vector twins.


def test_mix64_vec_matches_scalar():
    xs = np.array([0, 1, 2, 12345, rng.MASK64, rng.GOLDEN], dtype=np.uint64)
    out = rng.mix64_vec(xs)
    assert out.tolist() == [rng.mix64(int(x)) for x in xs]


def test_stream_values_vec_matches_scalar():
    key = rng.derive_key(11, "rep", 3)
    counters = np.arange(50, dtype=np.uint64)
    vec = rng.stream_values_vec(np.full(50, key, dtype=np.uint64), counters)
    assert vec.tolist() == [rng.stream_value(key, c) for c in range(50)]
    # scalar counter broadcast
    keys = np.array([rng.rep_key(0, r) for r in range(8)], dtype=np.uint64)
    vec2 = rng.stream_values_vec(keys, 7)
    assert vec2.tolist() == [rng.stream_value(int(k), 7) for k in keys]


def test_units_vec_matches_scalar():
    keys = np.array([rng.rep_key(2, r) for r in range(16)], dtype=np.uint64)
    vec = rng.units_vec(keys, 3)
    assert vec.tolist() == [_unit(int(k), 3) for k in keys]


def test_units_from_states_vec_matches_direct():
    key = rng.rep_key(9, 4)
    counters = np.arange(20)
    states = (np.uint64(key) + (counters.astype(np.uint64) + np.uint64(1))
              * np.uint64(rng.GOLDEN))
    vec = rng.units_from_states_vec(states, np.empty(20))
    direct = rng.units_vec(np.full(20, key, dtype=np.uint64), counters.astype(np.uint64))
    assert np.array_equal(vec, direct)


def test_units_from_states_vec_in_place_is_bit_exact():
    # 0xCF9A04AFFA6BADC0 finalizes to all ones, the largest uniform
    all_ones = 0xCF9A04AFFA6BADC0
    assert rng.mix64(all_ones) == rng.MASK64
    edges = [0, 1, 1 << 63, rng.MASK64, all_ones]
    more = [rng.stream_value(rng.rep_key(5, r), c) for r in range(3) for c in range(5)]
    states = np.array([edges + more[:5], more[5:], more[:10]], dtype=np.uint64)
    want = [[rng.unit_from_u64(rng.mix64(int(s))) for s in row] for row in states]
    assert want[0][4] == 1.0 - 2.0**-53

    # the states are consumed and the uniforms land in out
    consumed = states.copy()
    out = np.empty(states.shape, dtype=np.float64)
    got = rng.units_from_states_vec(consumed, out=out)
    assert got is out
    assert out.tolist() == want
    assert np.array_equal(out.view(np.uint64), np.array(want).view(np.uint64))


def test_derive_keys_vec_matches_scalar():
    reps = np.arange(32, dtype=np.uint64)
    vec = rng.rep_keys_vec(17, reps)
    assert vec.tolist() == [rng.rep_key(17, r) for r in range(32)]


def test_derive_keys_each_matches_scalar():
    reps = np.array([rng.rep_key(1, r) for r in range(10)], dtype=np.uint64)
    child = rng.derive_keys_each(reps, "urn", "u0", "draw")
    assert child.tolist() == [
        rng.derive_key(int(k), "urn", "u0", "draw") for k in reps
    ]


def test_no_numpy_warnings_on_vector_paths():
    # wrap-around is intentional; the vector helpers must not trip
    # numpy's scalar overflow warnings
    with np.errstate(over="raise"):
        reps = np.arange(4, dtype=np.uint64)
        keys = rng.rep_keys_vec(3, reps)
        rng.derive_keys_each(keys, "urn", "u0", "extract")
        rng.units_vec(keys, 12)
        rng.stream_values_vec(keys, np.arange(4, dtype=np.uint64))


def test_stream_counters_at_and_past_the_vector_range():
    # Counter arrays are uint64, in which c + 1 wraps to 0 at 2**64 - 1,
    # as (c + 1) * GOLDEN does mod 2**64; a scalar counter may pass 2**64.
    key = rng.derive_key(9, "rep", 0)
    counters = [2**63 - 1, 2**63, 2**64 - 1025, 2**64 - 1024, 2**64 - 2, 2**64 - 1]
    values = rng.stream_values_vec(np.uint64(key), np.array(counters, dtype=np.uint64))
    assert values.tolist() == [rng.stream_value(key, c) for c in counters]
    units = rng.units_vec(np.uint64(key), np.array(counters, dtype=np.uint64))
    assert units.tolist() == [_unit(key, c) for c in counters]
    one = np.array([key], dtype=np.uint64)
    for c in (*counters, 2**64, 2**64 + 5):
        assert rng.units_vec(one, c)[0] == _unit(key, c), c
