"""Generated configs against the validator: no config ends in a traceback.

Each kind's valid config is built from ``cli.SHAPES``, one valid object
per section dataclass; a generated config replaces one to three of its
leaves or sections with edge values.  ``parse_config`` must return or
raise ``ConfigError``, and a small accepted config must run through
``cli.main`` to exit 0 or 2, leaving no output directory on 2.
``parse_config`` must refuse every valid config with a key added to any
of its objects, naming the key, or with a label repeated.
"""

import contextlib
import copy
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hrru import cli
from hrru.urn_core import ConfigError

# Valid JSON objects of each section dataclass, by class name: every
# JSON policy, and factor laws of each shape.
SECTIONS = {
    "UrnConfig": [{"a": 2, "b": 3, "draw": {"policy": "constant-one"},
                   "reinforce": {"policy": "constant", "value": 1}},
                  {"a": 6, "b": 5, "label": "u",
                   "draw": {"policy": "discrete", "values": [1, 3], "probs": [0.5, 0.5]},
                   "reinforce": {"policy": "uniform-range", "low": 1, "high": 3}},
                  {"a": 4, "b": 4, "draw": {"policy": "schedule", "values": [2, 1]},
                   "reinforce": {"policy": "discrete", "values": [1, 2], "probs": [0.5, 0.5]}},
                  {"a": 3, "b": 3, "draw": {"policy": "iid-uniform", "high": 3},
                   "reinforce": {"policy": "constant", "value": 2}},
                  {"a": 3, "b": 3, "draw": {"policy": "absorbing-walk", "start": 2, "high": 4},
                   "reinforce": {"policy": "constant", "value": 1}}],
    "UrnSystem": [{"urns": [{"label": "A", "a": 5, "b": 5, "draw_base": 1, "reinforce_base": 1},
                            {"label": "B", "a": 4, "b": 6, "draw_base": 2, "reinforce_base": 1}],
                   "factors": {"draw": {"values": [0, 1], "probs": [0.5, 0.5]},
                               "reinforce": {"values": [0, 2], "probs": [0.25, 0.75]}}},
                  {"urns": [{"label": "A", "a": 1, "b": 2, "draw_base": 1, "reinforce_base": 1},
                            {"label": "B", "a": 2, "b": 1, "draw_base": 1, "reinforce_base": 1}]}],
    "Steps": [{"n": 30, "seed": 1}],
    "Plan": [{"reps": 12, "n": 8, "seed": 2, "n_proxy": 80}, {"reps": 3, "n": 2, "seed": 0}],
    "Walk": [{"start": 3, "high": 6, "reps": 40, "seed": 4}],
    "Outputs": [{"table_format": "csv"}, {}],
    "Coverage": [{"level": 0.9}, {}],
    "Combination": [{"level": 0.9, "coeffs": {"A": 1.0, "B": -1.0}, "basis": "M"},
                    {"coeffs": {"B": 2}}],
    "MTest": [{"level": 0.1, "target": "A", "reference": ["B"]},
              {"target": "B", "reference": ["A"]}],
}


def _valid_configs() -> list:
    # (kind, config) of every kind's every shape, its sections in echo
    # order, each section's every valid object
    configs = []
    for kind, shapes in cli.SHAPES.items():
        for shape in shapes:
            sections = [(key, SECTIONS[cls if isinstance(cls, str) else cls.__name__])
                        for key, cls in shape.values()]
            for objs in itertools.product(*(objs for _, objs in sections)):
                cfg = {}
                for (key, _), obj in zip(sections, objs):
                    cfg.update({key: obj} if key else obj)
                configs.append((kind, cfg))
    return configs


VALID = _valid_configs()
EDGES = [None, True, False, 0, -1, 2**53 - 1, 2**53 + 1, 2**63, 2**64, 10**400,
         math.nan, math.inf, -math.inf, "", [], {}, [[1, [2.5, []]]]]
CAPACITY = "exceeds the supported capacity 2**62"


def _paths(obj, prefix=()):
    # the path (a key tuple) of every leaf and container below obj
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield prefix + (k,)
            yield from _paths(v, prefix + (k,))


def _at(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _key_path(path) -> str:
    # a path as the CLI reports it: urns[0].label
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


@st.composite
def mutated_configs(draw):
    kind = draw(st.sampled_from(cli.KINDS))
    cfg = copy.deepcopy(draw(st.sampled_from([c for k, c in VALID if k == kind])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        _at(cfg, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(EDGES)))
    return kind, cfg


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _small(cfg) -> bool:
    # at most 64 reps, horizons of at most 200 and a walk of at most 200 reps
    plan = cfg.plan
    if isinstance(plan, cli.Walk):
        return plan.reps <= 200
    if isinstance(plan, cli.Steps):
        return plan.n <= 200
    return plan.reps <= 64 and cli._plan_for(cfg).horizons[-1] <= 200


def _exit_code(kind: str, text: str, parsed) -> int:
    # cli.main's exit code on the config ``text``, which parses to
    # ``parsed`` (None where it is refused); on 0 the report is JSON
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "c.json").write_text(text)
        out, err = Path(tmp) / "out", io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([kind, "--config", str(Path(tmp) / "c.json"), "--workers", "1",
                             "--out-dir", str(out)])
        assert code in (0, 2) or (code == 3 and CAPACITY in err.getvalue()), err.getvalue()
        assert code == 2 or parsed is not None, err.getvalue()
        if code == 2:
            assert not out.exists()
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=_refuse)
        return code


def test_every_valid_config_runs():
    assert {kind for kind, _ in VALID} == set(cli.KINDS)
    for kind, cfg in VALID:
        text = json.dumps(cfg)
        assert _exit_code(kind, text, cli.parse_config(text, kind)) == 0


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_generated_configs_exit_0_or_2(kind_cfg):
    kind, cfg = kind_cfg
    text = json.dumps(cfg)
    try:
        parsed = cli.parse_config(text, kind)
    except ConfigError:
        parsed = None
    if parsed is None or _small(parsed):
        _exit_code(kind, text, parsed)


def _refused(kind: str, cfg) -> list[str]:
    # the problems parse_config lists for cfg, which it must refuse
    with pytest.raises(ConfigError) as info:
        cli.parse_config(json.dumps(cfg), kind)
    return info.value.problems


def test_a_key_no_section_reads_is_refused_at_its_path():
    # at the top level and in every object; coeffs' keys are urn labels
    for kind, valid in VALID:
        for path in [()] + [p for p in _paths(valid) if isinstance(_at(valid, p), dict)]:
            cfg = copy.deepcopy(valid)
            _at(cfg, path)["zz_unknown"] = 1
            named = ("coeffs: no urn labeled 'zz_unknown'" if path == ("coeffs",)
                     else f"{_key_path(path + ('zz_unknown',))}: unknown field")
            assert any(p.startswith(named) for p in _refused(kind, cfg)), (kind, path)


def test_a_repeated_label_is_refused():
    # a system's second urn under the first's label; mtest's target in
    # its reference set
    for kind, valid in VALID:
        if "urns" in valid:
            cfg = copy.deepcopy(valid)
            cfg["urns"][1]["label"] = cfg["urns"][0]["label"]
            _refused(kind, cfg)
        if "target" in valid:
            cfg = copy.deepcopy(valid)
            cfg["reference"] = [*cfg["reference"], cfg["target"]]
            _refused(kind, cfg)
