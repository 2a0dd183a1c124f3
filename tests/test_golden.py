"""Golden pins: the randomness contract frozen to bytes.

Agreement between two code paths cannot catch a change that moves both
together, so these tests compare against digests recorded once:

- the sha256 of every CLI kind's canonical ``results`` object and of
  every table it writes (the config echo is left out: it is not
  experiment identity);
- the sha256 of every ``SNAPSHOT_FIELDS`` array of a tiny ``run_chunk``
  for each JSON draw x reinforcement policy pair and three system shapes;
- ``derive_key`` values along the README's key tree.

Each urn of those systems, and of a three-urn system with distinct
bases, is also run alone, which must give the bits of the whole run.

A pin may only be re-frozen together with a CHANGES.md line saying why.
``python tests/test_golden.py`` prints the current values in the form
used below.
"""

import hashlib
import json

import numpy as np
import pytest

from hrru import rng
from hrru.cli import main
from hrru.engine import SNAPSHOT_FIELDS, run_chunk
from hrru.multi_urn import CommonFactors, UrnSpec, UrnSystem
from hrru.urn_core import (
    AbsorbingRandomWalk,
    ConstantOne,
    ConstantReinforcement,
    DeterministicSchedule,
    DiscreteDraw,
    DiscreteReinforcement,
    IidUniform,
    IntegerDistribution,
    UniformReinforcement,
    UrnConfig,
)

UNIFORM3 = {"values": [0, 1, 2], "probs": [1 / 3, 1 / 3, 1 / 3]}

CLI_CONFIGS = {
    "simulate": {
        "urn": {"a": 3, "b": 4,
                "draw": {"policy": "discrete", "values": [1, 3], "probs": [0.4, 0.6]},
                "reinforce": {"policy": "discrete", "values": [1, 2], "probs": [0.5, 0.5]}},
        "plan": {"n": 60, "seed": 3},
    },
    "clt": {
        "urn": {"a": 6, "b": 5,
                "draw": {"policy": "absorbing-walk", "start": 3, "high": 5},
                "reinforce": {"policy": "uniform-range", "low": 1, "high": 3}},
        "plan": {"reps": 24, "n": 20, "n_proxy": 200, "seed": 5},
    },
    "coverage": {
        "urns": [{"label": "A", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
                 {"label": "B", "a": 8, "b": 12, "draw_base": 1, "reinforce_base": 2}],
        "factors": {"draw": UNIFORM3, "reinforce": UNIFORM3},
        "plan": {"reps": 16, "n": 20, "n_proxy": 200, "seed": 6},
        "coeffs": {"A": 1.0, "B": -1.0},
        "basis": "M",
    },
    "limit-law": {
        "urn": {"a": 2, "b": 3, "draw": {"policy": "constant-one"},
                "reinforce": {"policy": "constant", "value": 2}},
        "plan": {"reps": 30, "n": 20, "n_proxy": 200, "seed": 7},
        "outputs": {"table_format": "csv"},
    },
    "mtest": {
        "urns": [{"label": "A", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
                 {"label": "B", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1}],
        "factors": {"reinforce": UNIFORM3},
        "plan": {"reps": 20, "n": 20, "n_proxy": 200, "seed": 8},
        "target": "A",
        "reference": ["B"],
    },
    "hitting": {"walk": {"start": 3, "high": 6, "reps": 300, "seed": 9}},
}

CLI_PINS = {
    "simulate": {
        "results": "2d0a30a861c953b520293988f91e5b365309e264ca4c336cd639d41706b4c038",
        "trajectory.tsv": "a2609b88d87a77f9c53a87b447c5c80684f9b7600af38786737303a8cbf25cb4"
    },
    "clt": {
        "results": "f50c2a1dfc2f740996e4f623891adc4ff5e1afb224f88b95703946daa59dc354",
        "samples.tsv": "221ea825c66b50acd16fd3ca3cc6d51daf6bef84dd05952d83d341dbb9d87279"
    },
    "coverage": {
        "results": "dc1a03576f64e0ee7ca343f804f5528b57dbbf8d350dc1c8b568b8cbd0236c5a"
    },
    "limit-law": {
        "results": "1b489e09a9b9d10b4fb044ed591530e4616e3284fe9d638ed433e596a0e0d9e1",
        "proxy.csv": "ea6aa728e372c64edc04613d24fccfe772c8bd3b880310a94a5c061325902c89"
    },
    "mtest": {
        "results": "4d8580c9fcf2bddb7ce0e1d4c77de5fd72b2173cb2b718421ea24741f203aa2d"
    },
    "hitting": {
        "results": "42ebce90cd677933ad01a7d140f8c5d0714a49ee6f6e2d4b7fd067ecd44d199b"
    }
}

DRAWS = {
    "constant-one": ConstantOne(),
    "schedule": DeterministicSchedule((2, 1, 3)),
    "iid-uniform": IidUniform(4),
    "discrete": DiscreteDraw((1, 3), (0.3, 0.7)),
    "absorbing-walk": AbsorbingRandomWalk(start=3, high=5),
}

REINFORCEMENTS = {
    "constant": ConstantReinforcement(2),
    "uniform-range": UniformReinforcement(1, 3),
    "discrete": DiscreteReinforcement((1, 4), (0.6, 0.4)),
}

_U3 = IntegerDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))

SYSTEMS = {
    "full-factors": UrnSystem(
        urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
              UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=2)),
        factors=CommonFactors(draw=_U3, reinforce=_U3),
    ),
    "reinforce-only-factor": UrnSystem(
        urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
              UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1)),
        factors=CommonFactors(reinforce=_U3),
    ),
    "no-factors": UrnSystem(
        urns=(UrnSpec(label="only", a=5, b=5, draw_base=3, reinforce_base=2),),
        factors=CommonFactors(),
    ),
}

# Every base differs, so urn B runs alone at the system's stride (5),
# not at its own (3).
THREE_BASES = UrnSystem(
    urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=2),
          UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=1),
          UrnSpec(label="C", a=6, b=9, draw_base=3, reinforce_base=3)),
    factors=CommonFactors(draw=_U3, reinforce=_U3),
)

CHUNK_PINS = {
    "constant-one/constant": "a6fa40bda2b2f327d71eae818996d901555721c999de0f4856c2b4486c478f35",
    "constant-one/uniform-range": "8648d69770d93b28e3c2b2eb32f26b12642b81b83b01917e6929b543cbeb055c",
    "constant-one/discrete": "97a9b87cdf2c1e6fefbf313b0c122635c31cab80a431b2730e69d002ddb07a8e",
    "schedule/constant": "a4add2ac34b3362145118ebaa99084b10aeb035bcab3f3dfe135b9dfe4559c18",
    "schedule/uniform-range": "976f3c038b742f7fd1efaf6e74e390f44b7c25868943627a0533f0b8371251f8",
    "schedule/discrete": "43a6552de773c8dd1ee160899d59c01d29f75399c5810cb069293222011b2887",
    "iid-uniform/constant": "9f8e12e62e17eaba4b5cbcbca39e9ed4782cfa92231350be383d8060cffb6004",
    "iid-uniform/uniform-range": "b3d1c87f68d988dbc05a6e1d80ce16567333546b07b78c5c1bd4d3564556b0aa",
    "iid-uniform/discrete": "c2db46d17e475a717e211f8222275507d99f7b59392e14d8dc030424ad6875df",
    "discrete/constant": "d75228b7206d4e9db069e36530e64f00aa9d83231a09ca9623e2d65f24bbb401",
    "discrete/uniform-range": "e66f85fa0e13261fb8da1103eaebccd1d43256377de8f6168b79d9c9d92cbe0f",
    "discrete/discrete": "3f91bbaa9f48e3394ac117d4a59c74ac2fd4256edda0d1a951321e194ed73310",
    "absorbing-walk/constant": "71a1f32095e4e7fb4b3dcb2191e7c0d8ba04dac4785bce2d9825f945734e6cd2",
    "absorbing-walk/uniform-range": "7fc760e8a638c6aa4f7502d8337832848cbbd06e867bcd6f40bf6fd721944011",
    "absorbing-walk/discrete": "70fbc1e8c3d37dcac3b5ecd995a965181d9fe9a33a0db2c9b00bc41013196af6",
    "system/full-factors": "c236213263cbe41b56950e352dbeb5a6c4c8f799e6fcd46dbe93e174a93ade33",
    "system/reinforce-only-factor": "e109b8107bf40294bf54cb964ae0ca38f72f33355815f92d7bc43a9b6ed9fc60",
    "system/no-factors": "dd25d45704a60a201c5d08f38e1ef58c707ad3fc8902fd0647dd22c9ac28ccda"
}

# (key path under master seed 7, replication 3) -> key
KEY_PINS = {
    "rep": "0x6802ba70ef23c9b1",
    "urn/u0/draw": "0x3416b6cea494223a",
    "urn/u0/extract": "0x3f89761495c6518d",
    "urn/u0/reinforce": "0x9fce4915aa542efd",
    "factor-draw": "0xfa751e5d586e6d3b",
    "factor-reinforce": "0x7cdb60a5cbc85de5",
    "walk": "0xd6cf1bf25160fb86"
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(kind: str, out_dir) -> dict[str, str]:
    cfg = dict(CLI_CONFIGS[kind], outputs=dict(CLI_CONFIGS[kind].get("outputs", {}),
                                               dir=str(out_dir)))
    path = out_dir / "config.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([kind, "--config", str(path)]) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    canon = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    out = {"results": _sha(canon.encode("utf-8"))}
    for table in sorted(out_dir.iterdir()):
        if table.name not in ("config.json", "report.json"):
            out[table.name] = _sha(table.read_bytes())
    return out


CHUNK = (11, 3, 12, (13, 37))  # master seed, rep_lo, rep_hi, horizons


def chunk_digest(config) -> str:
    out = run_chunk(config, *CHUNK)
    h = hashlib.sha256()
    for label in sorted(out):
        for snap in out[label]:
            for f in SNAPSHOT_FIELDS:
                h.update(np.ascontiguousarray(snap[f], dtype=np.float64).tobytes())
    return h.hexdigest()


def chunk_configs() -> dict:
    configs = {
        f"{dn}/{rn}": UrnConfig(a=6, b=7, draw=d, reinforce=r)
        for dn, d in DRAWS.items() for rn, r in REINFORCEMENTS.items()
    }
    configs.update({f"system/{name}": s for name, s in SYSTEMS.items()})
    return configs


def key_tree() -> dict[str, str]:
    rk = rng.derive_key(7, "rep", 3)
    paths = {
        "rep": rk,
        "urn/u0/draw": rng.derive_key(rk, "urn", "u0", "draw"),
        "urn/u0/extract": rng.derive_key(rk, "urn", "u0", "extract"),
        "urn/u0/reinforce": rng.derive_key(rk, "urn", "u0", "reinforce"),
        "factor-draw": rng.derive_key(rk, "factor-draw"),
        "factor-reinforce": rng.derive_key(rk, "factor-reinforce"),
        "walk": rng.derive_key(rk, "walk"),
    }
    return {name: f"0x{key:016x}" for name, key in paths.items()}


@pytest.mark.parametrize("kind", sorted(CLI_CONFIGS))
def test_cli_outputs_match_pins(kind, tmp_path):
    assert cli_digests(kind, tmp_path / kind) == CLI_PINS[kind]


@pytest.mark.parametrize("name", sorted(chunk_configs()))
def test_run_chunk_snapshots_match_pins(name):
    assert chunk_digest(chunk_configs()[name]) == CHUNK_PINS[name]


@pytest.mark.parametrize("name", [*SYSTEMS, "three-bases"])
def test_each_urn_alone_runs_the_bits_of_the_whole_system(name):
    system = SYSTEMS.get(name, THREE_BASES)
    whole = run_chunk(system, *CHUNK)
    for lab in system.labels:
        alone = run_chunk(system, *CHUNK, labels=(lab,))
        assert list(alone) == [lab]
        for got, want in zip(alone[lab], whole[lab], strict=True):
            assert {f: got[f].tobytes() for f in SNAPSHOT_FIELDS} == {
                f: want[f].tobytes() for f in SNAPSHOT_FIELDS}, lab


def test_key_tree_matches_pins():
    assert key_tree() == KEY_PINS


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {k: cli_digests(k, pathlib.Path(tmp) / k) for k in CLI_CONFIGS}
    print("CLI_PINS =", json.dumps(pins, indent=4))
    print("CHUNK_PINS =", json.dumps({n: chunk_digest(c) for n, c in chunk_configs().items()},
                                     indent=4))
    print("KEY_PINS =", json.dumps(key_tree(), indent=4))
