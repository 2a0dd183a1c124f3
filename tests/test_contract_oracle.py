"""The package against the README: every path equals the clean-room
oracle (``contract_oracle``) bit for bit.

Each config is JSON in the README's schema, parsed by ``cli.parse_config``
as the CLI parses it; the oracle reads the same dict.  Together they
cover every JSON draw and reinforcement policy, the wide 1000-ball draw,
counts past 2**53 (which only the scalar path admits: it divides
Python ints), system shapes with both factors, one factor or none,
each system urn run alone as well as with the others, and a run that
crosses a trajectory-builder window.
"""

import json

import pytest

import contract_oracle as oracle
from hrru.cli import parse_config
from hrru.engine import SNAPSHOT_FIELDS, run_chunk
from hrru.multi_urn import run_system
from hrru.urn_core import _WINDOW_READS, run_trajectory


def _urn(a, b, draw, reinforce, **extra):
    return {"urn": {"a": a, "b": b, "draw": draw, "reinforce": reinforce, **extra},
            "plan": {"n": 1, "seed": 11}}


URNS = {
    "constant-one-constant": _urn(4, 4, {"policy": "constant-one"},
                                  {"policy": "constant", "value": 2}),
    "schedule-uniform-range": _urn(4, 4, {"policy": "schedule", "values": [2, 1, 3]},
                                   {"policy": "uniform-range", "low": 1, "high": 2}),
    "iid-uniform-discrete": _urn(4, 4, {"policy": "iid-uniform", "high": 4},
                                 {"policy": "discrete", "values": [1, 4], "probs": [0.6, 0.4]}),
    "discrete-constant": _urn(4, 4, {"policy": "discrete", "values": [3, 1],
                                     "probs": [0.3, 0.7]},
                              {"policy": "constant", "value": 2}),
    "absorbing-walk-uniform-range": _urn(4, 4, {"policy": "absorbing-walk", "start": 3,
                                                "high": 5},
                                         {"policy": "uniform-range", "low": 1, "high": 3}),
    # a step's 1000 balls read a stride of 1000 extraction counters
    "wide-draw": _urn(1000, 1000, {"policy": "discrete", "values": [1, 1000],
                                   "probs": [0.99, 0.01]},
                      {"policy": "uniform-range", "low": 1, "high": 2}),
    # an own label, and a negative seed: the key tree reads it mod 2**64
    "labelled-negative-seed": {**_urn(5, 3, {"policy": "iid-uniform", "high": 3},
                                      {"policy": "discrete", "values": [2, 1, 5],
                                       "probs": [0.25, 0.5, 0.25]}, label="left"),
                               "plan": {"n": 1, "seed": -3}},
}
# Z is the exact H / S of Python ints; the engine refuses such counts.
PAST_2_53 = _urn(2**53 + 1, 2**53 + 7, {"policy": "iid-uniform", "high": 3},
                 {"policy": "constant", "value": 1})

UNIFORM3 = {"values": [0, 1, 2], "probs": [1 / 3, 1 / 3, 1 / 3]}


def _system(urns, **factors):
    keys = ("label", "a", "b", "draw_base", "reinforce_base")
    return {"urns": [dict(zip(keys, u)) for u in urns],
            **({"factors": factors} if factors else {}),
            "coeffs": {urns[0][0]: 1.0}, "plan": {"reps": 1, "n": 1, "seed": 21}}


SYSTEMS = {
    "both-factors": _system([("A", 10, 10, 2, 1), ("B", 8, 12, 1, 2)],
                            draw=UNIFORM3, reinforce=UNIFORM3),
    # a negative shift, and urns whose draws differ within the shared stride
    "draw-only-factor": _system([("A", 4, 6, 3, 1), ("B", 7, 3, 2, 3)],
                                draw={"values": [0, -1, 2], "probs": [0.5, 0.25, 0.25]}),
    "reinforce-only-factor": _system([("A", 10, 10, 2, 1), ("B", 10, 10, 2, 1)],
                                     reinforce=UNIFORM3),
    "no-factors": _system([("only", 5, 5, 3, 2)]),
}

STEPS = 300
LANES = (2, 5)       # reps 2, 3 and 4
HORIZONS = (13, 120)


def _parsed(config):
    kind = "simulate" if "urn" in config else "coverage"
    parsed = parse_config(json.dumps(config), kind)
    return parsed.urn or parsed.system, parsed.plan.seed


def assert_trajectory(traj, cols):
    assert {c: getattr(traj, c).tolist() for c in oracle.COLUMNS} == cols


def assert_snapshots(config, horizons=HORIZONS, lanes=LANES, want=None, labels=None):
    # run_chunk over the lanes at both horizons, for the urns ``labels``
    # names (every urn when None), against the oracle's reduction of each
    # rep's columns (``want``, if already run).
    got = run_chunk(*_parsed(config), *lanes, horizons, labels=labels)
    want = want or [oracle.trajectories(config, rep, horizons[-1]) for rep in range(*lanes)]
    assert list(got) == list(labels or want[0])
    for label, snaps in got.items():
        for snap, h in zip(snaps, horizons, strict=True):
            for f in SNAPSHOT_FIELDS:
                expect = [oracle.snapshot(cols[label], h)[f] for cols in want]
                assert snap[f].tolist() == expect, (label, h, f)


@pytest.mark.parametrize("config", [*URNS.values(), PAST_2_53],
                         ids=[*URNS, "past-2**53"])
def test_run_trajectory_matches_the_oracle(config):
    urn, seed = _parsed(config)
    traj = run_trajectory(urn, STEPS, seed, rep=3)
    assert_trajectory(traj, oracle.trajectories(config, 3, STEPS)[urn.label])


@pytest.mark.parametrize("config", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_run_system_matches_the_oracle(config):
    system, seed = _parsed(config)
    traj = run_system(system, STEPS, seed, rep=2)
    want = oracle.trajectories(config, 2, STEPS)
    assert list(traj.urns) == list(want)
    for label, cols in want.items():
        assert_trajectory(traj.urns[label], cols)


@pytest.mark.parametrize("config", [*URNS.values(), *SYSTEMS.values()],
                         ids=[*URNS, *SYSTEMS])
def test_run_chunk_matches_the_oracle(config):
    assert_snapshots(config)


@pytest.mark.parametrize("config", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_each_system_urn_run_alone_matches_the_oracle(config):
    want = [oracle.trajectories(config, rep, HORIZONS[-1]) for rep in range(*LANES)]
    for label in want[0]:
        assert_snapshots(config, want=want, labels=(label,))


def test_a_builder_window_seam_matches_the_oracle():
    # One builder window at stride 4 and a few steps more: both paths
    # across the seam, with horizons on either side of it.
    config = URNS["iid-uniform-discrete"]
    steps = _WINDOW_READS // 4 + 3
    urn, seed = _parsed(config)
    want = oracle.trajectories(config, 1, steps)
    assert_trajectory(run_trajectory(urn, steps, seed, rep=1), want[urn.label])
    assert_snapshots(config, horizons=(steps - 4, steps), lanes=(1, 2), want=[want])
