"""Command-line front end: JSON experiment configs in, tables and
reports out.

One experiment is one JSON file.  The subcommand names the experiment
kind; the config carries everything else, so a run is reproducible
from the single artifact.  Flags only override the seed, the worker
count, and the output directory.

Outputs are deterministic: reports are JSON with fixed key order,
tables are delimiter-separated with a fixed header and floats printed
with 17 significant digits.  Reruns of the same config and seed are
byte-identical regardless of worker count.

Exit codes: 0 success, 2 configuration or validation failure,
3 runtime or I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Literal

import numpy as np

from . import __version__
from .urn_core import (
    DRAW_POLICIES,
    REINFORCEMENT_POLICIES,
    ConfigError,
    IntegerDistribution,
    ParameterError,
    UrnConfig,
    _is_int,
    count_problems,
    urn_problems,
)

# montecarlo and multi_urn are imported where a kind needs them, so
# ``hrru simulate`` loads neither (nor the engine they import).
if TYPE_CHECKING:
    from .montecarlo import CltDiagnostics, ReplicationPlan
    from .multi_urn import UrnSystem

WORKERS_ENV = "HRRU_WORKERS"
_TABLE_BLOCK = 1024  # rows formatted per % operation


def _lib(name: str):
    """The package module ``name``, imported on first use."""
    return import_module(f".{name}", __package__)


# The config sections the CLI declares; the urn (``UrnConfig``) and the
# system (``UrnSystem``) are the library's.  Each holds its JSON values
# as read; ``_RULES`` states their ranges.


@dataclass
class Steps:
    """``simulate``'s plan: one trajectory of ``n`` steps."""

    n: int
    seed: int


@dataclass
class Plan:
    """``reps`` replications to the horizon ``n`` and the proxy horizon
    ``n_proxy`` (None: 50 n)."""

    reps: int
    n: int
    seed: int
    n_proxy: int | None = None


@dataclass
class Walk:
    """``hitting``'s plan: ``reps`` walks from ``start`` between 1 and ``high``."""

    start: int
    high: int
    reps: int
    seed: int = 0


@dataclass
class Outputs:
    # The directory is delivery location, not experiment identity: out of
    # equality and of the echo, so reports are the same wherever written.
    dir: str = field(default=".", compare=False)
    table_format: Literal["tsv", "csv"] = "tsv"


@dataclass
class Coverage:
    """The level of coverage's intervals."""

    level: float = 0.95


@dataclass
class Combination(Coverage):
    """Coverage of a weighted sum of a system's limit proportions."""

    coeffs: dict[str, float] = field(default_factory=dict)
    basis: str = "Z"


@dataclass
class MTest:
    """mtest's mean-reinforcement test of ``target`` against ``reference``."""

    level: float = field(default=0.05, kw_only=True)
    target: str
    reference: tuple[str, ...]


# The experiment kinds: each kind's shapes, each shape its sections in
# echo order.  A section maps its role (the ExperimentConfig attribute
# it fills) to its JSON key and its dataclass; the key "" reads the
# dataclass's fields at the top level.  The system is named, not
# imported, so that ``hrru simulate`` never loads multi_urn.  A kind
# with two shapes runs the second where the config holds the key that
# shape leads with ("urns"); ``_FORMS`` names what each lead runs on.
_URN = ("urn", UrnConfig)
_SYSTEM = ("", "UrnSystem")
_PLAN = ("plan", Plan)
_OUTPUTS = ("outputs", Outputs)
SHAPES = {
    "simulate": ({"urn": _URN, "plan": ("plan", Steps), "outputs": _OUTPUTS},),
    "clt": ({"urn": _URN, "plan": _PLAN, "outputs": _OUTPUTS},),
    "coverage": ({"urn": _URN, "plan": _PLAN, "options": ("", Coverage), "outputs": _OUTPUTS},
                 {"system": _SYSTEM, "plan": _PLAN, "options": ("", Combination),
                  "outputs": _OUTPUTS}),
    "limit-law": ({"urn": _URN, "plan": _PLAN, "outputs": _OUTPUTS},),
    "mtest": ({"system": _SYSTEM, "plan": _PLAN, "options": ("", MTest), "outputs": _OUTPUTS},),
    "hitting": ({"plan": ("walk", Walk), "outputs": _OUTPUTS},),
}
KINDS = tuple(SHAPES)
_FORMS = {"urn": "a single urn", "urns": "a multi-urn system"}


def _dataclass(cls):
    """``cls``, or the multi_urn dataclass it names (imported on use)."""
    return getattr(_lib("multi_urn"), cls) if isinstance(cls, str) else cls


def _keys(shape: dict) -> list[str]:
    """The top-level keys ``shape`` reads, in echo order."""
    return [k for key, cls in shape.values()
            for k in ([key] if key else [f.name for f in dataclasses.fields(_dataclass(cls))])]


def _refusal(kind: str, key: str) -> str:
    """Why a top-level ``key`` that the config's shape of ``kind`` does not
    read is refused.  A key by which a kind's shapes differ ("urn";
    "urns", "factors"; "coeffs", "basis") is refused in an urn kind with
    where it applies ("urns: clt experiments run on a single urn; use
    'urn'", "coeffs: applies to coverage on a multi-urn system only");
    any other key is unknown."""
    lead = _keys(SHAPES[kind][0])[0]
    differ = {k for shapes in SHAPES.values() if len(shapes) > 1
              for k in set(_keys(shapes[0])) ^ set(_keys(shapes[1]))}
    if lead not in _FORMS or key not in differ:
        return "unknown field"
    readers = [(k, s) for k, shapes in SHAPES.items() for s in shapes if key in _keys(s)]
    own = [(k, s) for k, s in readers if k == kind]
    if not own and key in _FORMS:
        return f"{kind} experiments run on {_FORMS[lead]}; use '{lead}'"
    return "applies to " + " and ".join(
        k if len(SHAPES[k]) == 1 else f"{k} on {_FORMS[_keys(s)[0]]}"
        for k, s in own or readers) + " only"


@dataclass
class ExperimentConfig:
    """A validated experiment: its kind and the sections of its shape."""

    kind: str
    urn: UrnConfig | None = None
    system: UrnSystem | None = None
    plan: Steps | Plan | Walk | None = None
    options: Coverage | MTest | None = None
    outputs: Outputs = field(default_factory=Outputs)

    # the options by name, as readers of an mtest config take them
    level = property(lambda self: getattr(self.options, "level", None))
    target = property(lambda self: getattr(self.options, "target", None))
    reference = property(lambda self: getattr(self.options, "reference", ()))


class _Collector:
    """Accumulates validation problems so all are reported at once."""

    def __init__(self):
        self.problems: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def extend(self, path: str, problems: list[str]) -> None:
        """The library's problems of the object at ``path``: a ``"key:
        message"`` at ``path.key``, unless that key was already refused
        here (as missing, or of the wrong JSON type), and a problem of
        the whole object, with no key, at ``path``."""
        refused = {p.partition(": ")[0] for p in self.problems}
        for p in problems:
            key, sep, message = p.partition(": ")
            if not sep:
                self.add(path, p)
            elif self.at(path, key) not in refused:
                self.add(self.at(path, key), message)

    @staticmethod
    def at(path: str, key: str) -> str:
        """The path of ``key`` inside ``path``; "" is the top level."""
        return f"{path}.{key}" if path else key

    def to_float(self, path: str, v: int | float):
        """A JSON number as a float; an integer past the float range is
        reported at ``path`` instead of raising OverflowError."""
        try:
            return float(v)
        except OverflowError:
            self.add(path, "integer is too large for a float")
            return None


def _value(what: str, test, convert=None):
    """The parser of a JSON value ``test`` accepts (else "must be
    ``what``"), passed through ``convert(col, path, value)``; without
    one, a list is read as a tuple."""
    def parse(col: _Collector, obj: dict, path: str, key: str):
        path, v = col.at(path, key), obj[key]
        if not test(v):
            col.add(path, f"must be {what}, got {v!r}")
            return None
        if convert is None:
            return tuple(v) if isinstance(v, list) else v
        return convert(col, path, v)
    return parse


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_of(test, nonempty: bool = True):
    """A test of a list (nonempty) whose every item ``test`` accepts."""
    return lambda v: isinstance(v, list) and (v != [] or not nonempty) and all(map(test, v))


def _floats(col: _Collector, path: str, v: list) -> tuple | None:
    values = tuple(col.to_float(f"{path}[{i}]", x) for i, x in enumerate(v))
    return None if None in values else values


def _weights(col: _Collector, path: str, v: dict) -> dict | None:
    weights = {lab: col.to_float(f"{path}.{lab}", x) for lab, x in v.items()}
    return None if None in weights.values() else weights


def _urn_specs(col: _Collector, path: str, v: list) -> tuple | None:
    specs = tuple(_parse_fields(col, _dataclass("UrnSpec"), x, f"{path}[{i}]")
                  for i, x in enumerate(v))
    return None if None in specs else specs


_STR = _value("a string", lambda v: isinstance(v, str))
_INT = _value("an integer", _is_int)


def _parse_policy(col: _Collector, obj: dict, path: str, key: str, menu: dict, what: str):
    """The policy at ``key``: the class of ``menu`` its "policy" names,
    read from its fields (``_parse_fields`` reports a non-object)."""
    path, v = col.at(path, key), obj[key]
    cls = None
    if isinstance(v, dict):
        if "policy" not in v:
            col.add(f"{path}.policy", "required field is missing")
        name = _STR(col, v, path, "policy") if "policy" in v else None
        cls = menu.get(name)
        if cls is None:
            if name is not None:
                col.add(f"{path}.policy",
                        f"unknown {what} policy {name!r}; supported: {tuple(menu)}")
            return None
    return _parse_fields(col, cls, v, path, extra=("policy",))


def _nested(cls):
    """The parser of a field holding an object of the dataclass ``cls``."""
    return lambda col, obj, path, key: _parse_fields(
        col, _dataclass(cls), obj[key], col.at(path, key))


# How each dataclass field type of a config object is read from
# ``obj[key]``, a key ``obj`` holds.
_FIELD_PARSERS = {
    "str": _STR,
    "int": _INT,
    "int | None": _INT,
    "float": _value("a number", _is_number, _Collector.to_float),
    "Literal['tsv', 'csv']": _value("one of ('tsv', 'csv')", lambda v: v in ("tsv", "csv")),
    "tuple[int, ...]": _value("a nonempty list of integers", _list_of(_is_int)),
    "tuple[float, ...]": _value("a nonempty list of numbers", _list_of(_is_number), _floats),
    "tuple[str, ...]": _value("a list of urn labels",
                              _list_of(lambda x: isinstance(x, str), nonempty=False)),
    "dict[str, float]": _value("an object of label: weight (a number)",
                               lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
                               _weights),
    "DrawSizePolicy": lambda col, obj, path, key: _parse_policy(
        col, obj, path, key, DRAW_POLICIES, "draw"),
    "ReinforcementPolicy": lambda col, obj, path, key: _parse_policy(
        col, obj, path, key, REINFORCEMENT_POLICIES, "reinforcement"),
    "IntegerDistribution | None": _nested(IntegerDistribution),
    "CommonFactors": _nested("CommonFactors"),
    "tuple[UrnSpec, ...]": _value("a nonempty list", _list_of(lambda item: True), _urn_specs),
}


def _level_rule(level):
    return [] if level is None else _lib("multi_urn").level_problems(level)


def _dir_rule(path):
    # The output directory is made only once the run has computed, so a
    # name that no path can hold is refused here, before the run.
    try:
        ok = b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        ok = False
    return [] if ok else [
        f"dir: must be a path the file system can encode (no lone surrogate or NUL), got {path!r}"]


# The rules on each section's fields, each stated once, in the library:
# given the config so far and every field's value (None where it failed,
# its default where left out), the problems as "key: message".  A rule
# across sections reads the system, parsed before the options.
_RULES = {
    UrnConfig: lambda cfg, a, b, label, **_: urn_problems(a, b, label),
    Steps: lambda cfg, n, **_: count_problems(n=n),  # run_trajectory's steps
    Plan: lambda cfg, reps, n, n_proxy, **_: _lib("montecarlo").plan_problems(reps, n, n_proxy),
    Walk: lambda cfg, start, high, reps, **_: _lib("montecarlo").walk_problems(start, high, reps),
    Coverage: lambda cfg, level: _level_rule(level),
    Combination: lambda cfg, level, coeffs, basis: _level_rule(level) + (
        [] if cfg.system is None or coeffs is None
        else _lib("multi_urn").combination_problems(coeffs, basis, cfg.system.labels)),
    MTest: lambda cfg, level, target, reference: _level_rule(level) + (
        [] if cfg.system is None or None in (target, reference)
        else _lib("multi_urn").mtest_problems(target, reference, cfg.system.labels)),
    Outputs: lambda cfg, dir, **_: [] if dir is None else _dir_rule(dir),
}


def _default(f: dataclasses.Field):
    """A field's default, or MISSING where the field is required."""
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


def _parse_fields(col: _Collector, cls, obj, path: str, extra: tuple[str, ...] = (),
                  rules=None):
    """``cls`` built from the object ``obj`` by its dataclass fields, a
    field with a default being optional; its constructor checks ranges.
    Keys of ``obj`` other than the fields and ``extra`` are reported as
    unknown.  ``rules`` gets every field's value (None where it failed,
    its default where left out) and returns the problems of its rules;
    ``cls`` is built only where every field parsed and no rule failed."""
    if not isinstance(obj, dict):
        col.add(path, f"must be an object, got {obj!r}")
        return None
    fields = dataclasses.fields(cls)
    known = {*extra, *(f.name for f in fields)}
    for key in obj:
        if key not in known:
            col.add(col.at(path, key), "unknown field")
    values, ok = {f.name: _default(f) for f in fields}, True
    for f in fields:
        if f.name in obj:
            values[f.name] = _FIELD_PARSERS[f.type](col, obj, path, f.name)
            ok = ok and values[f.name] is not None
        elif values[f.name] is dataclasses.MISSING:
            col.add(col.at(path, f.name), "required field is missing")
            values[f.name], ok = None, False
    if rules is not None:
        problems = rules(**values)
        col.extend(path, problems)
        ok = ok and not problems
    if not ok:
        return None
    try:
        return cls(**values)
    except ParameterError as exc:
        col.extend(path, exc.problems)
        return None


class _Object(dict):
    """A JSON object, and the keys its text repeats (of which ``json``
    keeps the last value)."""

    repeated: tuple[str, ...] = ()


def _object(pairs: list) -> _Object:
    obj = _Object(pairs)
    if len(obj) < len(pairs):
        obj.repeated = tuple(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
    return obj


def _repeated_keys(col: _Collector, raw) -> None:
    """Report each key an object of ``raw`` repeats, at its key path, an
    object's before those of the objects it holds; iterative, as the
    nesting may be deep."""
    todo = [("", raw)]
    while todo:
        path, v = todo.pop()
        if isinstance(v, dict):
            for key in v.repeated:
                col.add(col.at(path, key), "repeated key; an object names each key once")
            todo += reversed([(col.at(path, k), x) for k, x in v.items()])
        elif isinstance(v, list):
            todo += reversed([(f"{path}[{i}]", x) for i, x in enumerate(v)])


def parse_config(text: str | bytes, kind: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, text or UTF-8 bytes.

    Collects every validation problem before failing, a key an object
    repeats among them; syntax errors carry line and column, bytes' line
    ends read as ``Path.read_text`` reads them.  ``kind`` (from the
    subcommand) fills in or cross-checks the config's own "kind" field.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text, object_pairs_hook=_object)
    except UnicodeDecodeError as exc:
        raise ConfigError([f"encoding: not UTF-8: byte {exc.object[exc.start]:#04x} "
                           f"at offset {exc.start} ({exc.reason})"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax: {exc.msg} at line {exc.lineno}, column {exc.colno}"]
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError([f"syntax: {exc}"]) from exc
    except RecursionError as exc:
        raise ConfigError(["syntax: arrays and objects nested too deeply to parse"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: must be a JSON object"])
    col = _Collector()
    _repeated_keys(col, raw)

    given = raw.get("kind")
    if given is None and kind is None:
        col.add("kind", f"required (or pass a subcommand); one of {KINDS}")
    elif given is not None and given not in KINDS:
        col.add("kind", f"must be one of {KINDS}, got {given!r}")
    elif kind is not None and given not in (None, kind):
        col.add("kind", f"config says {given!r} but the subcommand is {kind!r}")
    kind = kind or (given if given in KINDS else None)
    if kind is None:  # no shape to read the rest by
        raise ConfigError(col.problems)

    shapes = SHAPES[kind]
    shape = shapes[-1] if _keys(shapes[-1])[0] in raw else shapes[0]
    reads = _keys(shape)
    for key in raw:
        if key != "kind" and key not in reads:
            col.add(key, _refusal(kind, key))
    cfg = ExperimentConfig(kind)
    for role, (key, cls) in shape.items():
        cls = _dataclass(cls)
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        if not key:
            obj = {k: raw[k] for k in names if k in raw}
        elif key in raw or dataclasses.MISSING not in map(_default, fields):
            obj = raw.get(key, {})
        else:
            col.add(key, f"required object ({', '.join(names)})")
            continue
        rules = _RULES.get(cls)
        setattr(cfg, role, _parse_fields(col, cls, obj, key,
                                         rules=rules and functools.partial(rules, cfg)))

    # The whole plan's rule: 2**53 at the last horizon it simulates.
    if isinstance(cfg.plan, Plan) and (cfg.urn is not None or cfg.system is not None):
        try:
            _plan_for(cfg)
        except ParameterError as exc:
            col.extend("plan", exc.problems)
    if col.problems:
        raise ConfigError(col.problems)
    return cfg


# Serialization back to the JSON form (the config echo).


_POLICY_NAMES = {cls: name for menu in (DRAW_POLICIES, REINFORCEMENT_POLICIES)
                 for name, cls in menu.items()}


def _to_json(obj):
    """A config object as JSON: a policy's menu name, then the dataclass
    fields in declaration order, leaving out a None or empty one and one
    outside equality (the output directory); a tuple as a list."""
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    out = {"policy": _POLICY_NAMES[type(obj)]} if type(obj) in _POLICY_NAMES else {}
    for f in dataclasses.fields(obj):
        v = _to_json(getattr(obj, f.name))
        if f.compare and v is not None and v != {}:
            out[f.name] = v
    return out


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    """The config echo: parses back to an equal ExperimentConfig."""
    out: dict = {"kind": cfg.kind}
    # the shape whose leading section the config holds
    shape = next(s for s in SHAPES[cfg.kind] if getattr(cfg, next(iter(s))) is not None)
    for role, (key, _) in shape.items():
        section = _to_json(getattr(cfg, role))
        out.update({key: section} if key else section)
    return out


def write_table(path: Path, header: list[str], columns: list, fmt: str) -> None:
    """Write ``columns`` under ``header`` as a tsv or csv table.

    Integer and bool columns print as ``%d`` (bools as 1/0), the rest
    as ``%.17g`` floats.  Rows are formatted ``_TABLE_BLOCK`` at a time,
    one ``%`` operation per block, and written as they are built.
    """
    sep = "\t" if fmt == "tsv" else ","
    columns = [np.asarray(c) for c in columns]
    row = sep.join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
    rows = len(columns[0]) if columns else 0

    def write(fh):
        fh.write(sep.join(header) + "\n")
        for lo in range(0, rows, _TABLE_BLOCK):
            block = [c[lo:lo + _TABLE_BLOCK].tolist() for c in columns]
            cells = tuple(itertools.chain.from_iterable(zip(*block)))
            fh.write(row * len(block[0]) % cells)

    _write_atomic(path, write)


def write_report(path: Path, payload: dict) -> None:
    def dump(fh):
        json.dump(payload, fh, indent=2, allow_nan=False)  # NaN is not JSON
        fh.write("\n")

    _write_atomic(path, dump)


def _write_atomic(path: Path, write) -> None:
    """Run ``write`` on a temp file beside ``path``, then rename it over
    ``path``: readers see the old file or the whole new one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _plan_for(cfg: ExperimentConfig) -> ReplicationPlan:
    p, opt = cfg.plan, cfg.options
    # mtest reads n and the target urn alone: n_proxy is validated and
    # echoed, never simulated, and the references enter through their
    # mean reinforcement.  A combination simulates the urns it weighs.
    # Options that failed validation are None: every urn, for the 2**53 rule.
    labels = ((opt.target,) if isinstance(opt, MTest)
              else tuple(opt.coeffs) if isinstance(opt, Combination) else None)
    return _lib("montecarlo").ReplicationPlan(
        cfg.urn if cfg.urn is not None else cfg.system, p.reps, p.n, p.n_proxy, p.seed,
        (p.n,) if cfg.kind == "mtest" else None, labels)


def _diag_to_dict(d: CltDiagnostics) -> dict:
    out = {
        "kind": d.kind,
        "ks_distance": d.ks_distance,
        "excluded": d.excluded,
        "reps": d.reps,
    }
    if d.coverage is not None:
        out["coverage"] = d.coverage
        out["coverage_level"] = d.coverage_level
    if d.aux:
        out["aux"] = dict(d.aux)
    return out


# Each runner computes and returns its ``results`` object and its tables,
# {name: (header, columns)}; ``run`` writes them.


def _run_simulate(cfg: ExperimentConfig, workers: int | None):
    from .urn_core import run_trajectory

    traj = run_trajectory(cfg.urn, cfg.plan.n, cfg.plan.seed)
    results = {
        "steps": len(traj),
        "final_z": float(traj.Z[-1]),
        "final_m": float(traj.M[-1]),
        "final_s": int(traj.S[-1]),
    }
    return results, {"trajectory": (
        ["n", "N", "X", "R", "H", "S", "Z", "M"],
        [np.arange(1, len(traj) + 1), traj.N, traj.X, traj.R, traj.H, traj.S, traj.Z, traj.M],
    )}


def _run_clt(cfg: ExperimentConfig, workers: int | None):
    from . import montecarlo as mc

    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    mn = mc.clt_check_mn(plan, records)
    stats = mn.stats
    u = records.single
    results = {
        "proportion": _diag_to_dict(mn.proportion),
        "gap": _diag_to_dict(mn.gap),
        "mean": _diag_to_dict(mn.mean),
        "corr_gap_proportion": mn.corr_gap_proportion,
        "median_abs_gap": mn.median_abs_gap,
    }
    return results, {"samples": (
        ["rep", "z_n", "m_emp", "z_proxy", "v_n", "w_n", "u_n", "t_prop", "t_gap", "t_mean"],
        [np.arange(plan.reps), u.at_n.z, u.at_n.m_emp, u.at_proxy.z,
         stats.v, stats.w, stats.u, stats.t_prop, stats.t_gap, stats.t_mean],
    )}


def _run_coverage(cfg: ExperimentConfig, workers: int | None):
    from . import montecarlo as mc

    plan, opt = _plan_for(cfg), cfg.options
    records = mc.replicate(plan, workers)
    if cfg.urn is not None:
        cov = mc.coverage_experiment(plan, opt.level, records)
        return {
            "level": cov.level,
            "n": cov.n,
            "proxy_horizon": cov.proxy_horizon,
            "from_Zn": dataclasses.asdict(cov.from_zn),
            "from_Mn": dataclasses.asdict(cov.from_mn),
        }, {}
    res = mc.linear_combination_coverage(plan, opt.coeffs, opt.basis, opt.level, records)
    return {"level": opt.level, "n": plan.n, "proxy_horizon": plan.proxy_horizon,
            "basis": opt.basis, "coeffs": opt.coeffs, "combination": dataclasses.asdict(res)}, {}


def _run_limit_law(cfg: ExperimentConfig, workers: int | None):
    from . import montecarlo as mc

    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    rep = mc.limit_law_suite(plan, records)
    blk = records.single.at_proxy
    return dataclasses.asdict(rep), {"proxy": (
        ["rep", "z_proxy", "s_over_n"], [np.arange(plan.reps), blk.z, blk.s_over_n],
    )}


def _run_mtest(cfg: ExperimentConfig, workers: int | None):
    from . import montecarlo as mc

    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    res = mc.mtest_rejection(plan, cfg.target, cfg.reference, cfg.level, records)
    return {**dataclasses.asdict(res), "frequency": res.frequency}, {}


def _run_hitting(cfg: ExperimentConfig, workers: int | None):
    from . import montecarlo as mc

    w = cfg.plan
    est = mc.hitting_probability_check(w.start, w.high, w.reps, master_seed=w.seed)
    expected = mc.walk_absorption_probability(w.start, w.high)
    return {**dataclasses.asdict(est), "expected": expected,
            "abs_error": abs(est.estimate - expected)}, {}


_RUNNERS = {
    "simulate": _run_simulate,
    "clt": _run_clt,
    "coverage": _run_coverage,
    "limit-law": _run_limit_law,
    "mtest": _run_mtest,
    "hitting": _run_hitting,
}


def run(cfg: ExperimentConfig, workers: int | None = None) -> Path:
    """Execute a validated config; returns the report path.

    ``workers`` goes to ``montecarlo.replicate``; None means its default.

    The output directory is made once the run has computed, so a failed
    computation leaves no directory behind.  Every file is replaced
    whole, and ``report.json`` last, so a run that fails part-way
    leaves the previous report in place.
    """
    results, tables = _RUNNERS[cfg.kind](cfg, workers)
    fmt = cfg.outputs.table_format
    out_dir = Path(cfg.outputs.dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc
    for name, (header, columns) in tables.items():
        write_table(out_dir / f"{name}.{fmt}", header, columns, fmt)
    report_path = out_dir / "report.json"
    write_report(report_path, {
        "tool": "hrru", "version": __version__, "kind": cfg.kind, "seed": cfg.plan.seed,
        "config": config_to_json_dict(cfg), "results": results,
    })
    return report_path


def _resolve_workers(flag_value: int | None) -> int | None:
    """--workers, else $HRRU_WORKERS, else None (``replicate``'s default).

    Raises ValueError unless the value given is an integer >= 1.
    """
    if flag_value is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return None
        flag_value = int(env)
    if flag_value < 1:
        raise ValueError(flag_value)
    return flag_value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrru",
        description="Simulate reinforced urns and check their limit theorems.",
    )
    parser.add_argument("--version", action="version", version=f"hrru {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--workers", type=int, default=None,
                       help=f"worker processes (default: ${WORKERS_ENV} or the usable CPUs)")
        p.add_argument("--out-dir", default=None,
                       help="override the config's output directory")
    return parser


def _print_path(path: Path) -> None:
    """``path`` on stdout as the file system names it: a name from argv
    may hold undecodable bytes (as surrogateescape), which a stdout that
    encodes strictly refuses."""
    try:
        print(path)
    except UnicodeEncodeError:
        sys.stdout.flush()
        sys.stdout.buffer.write(os.fsencode(path) + b"\n")
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_bytes(), kind=args.kind)
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for p in exc.problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.plan.seed = args.seed
    if args.out_dir is not None:
        cfg.outputs.dir = args.out_dir
    try:
        workers = _resolve_workers(args.workers)
    except ValueError:
        print(f"error: --workers and ${WORKERS_ENV} must be integers >= 1", file=sys.stderr)
        return 2
    try:
        report_path = run(cfg, workers=workers)
    except (ConfigError, ParameterError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _print_path(report_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
