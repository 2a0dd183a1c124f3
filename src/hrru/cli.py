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
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

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
from .rng import DEFAULT_LABEL

# montecarlo and multi_urn are imported where a kind needs them, so
# ``hrru simulate`` loads neither (nor the engine they import).
if TYPE_CHECKING:
    from .montecarlo import CltDiagnostics, ReplicationPlan
    from .multi_urn import UrnSystem

WORKERS_ENV = "HRRU_WORKERS"
_TABLE_BLOCK = 1024  # rows formatted per % operation

# The top-level keys each kind reads besides "kind" and "outputs".  A
# key named here may still be refused with its own message, such as
# "factors" beside a single urn.
_URN_KEYS = ("plan", "urn", "urns", "factors", "coeffs", "basis")
_TOP_LEVEL = {
    "simulate": _URN_KEYS,
    "clt": _URN_KEYS,
    "coverage": (*_URN_KEYS, "level"),
    "limit-law": _URN_KEYS,
    "mtest": (*_URN_KEYS, "level", "target", "reference"),
    "hitting": ("walk",),
}
KINDS = tuple(_TOP_LEVEL)


@dataclass
class ExperimentConfig:
    """Validated, normalized description of one experiment."""

    kind: str
    urn: UrnConfig | None = None
    system: UrnSystem | None = None
    reps: int = 1
    n: int = 1
    n_proxy: int | None = None
    seed: int = 0
    level: float | None = None
    target: str | None = None
    reference: tuple[str, ...] = ()
    coeffs: dict[str, float] = field(default_factory=dict)
    basis: str = "Z"
    walk_start: int | None = None
    walk_high: int | None = None
    walk_reps: int | None = None
    # Delivery location, not experiment identity: excluded from equality
    # and from the config echo so reports stay byte-identical wherever
    # they are written.
    out_dir: str = field(default=".", compare=False)
    table_format: str = "tsv"


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

    def unknown(self, obj: dict, path: str, known) -> None:
        """Report every key of ``obj`` outside ``known``, so a typo never
        falls back to a default."""
        for key in obj:
            if key not in known:
                self.add(self.at(path, key), "unknown field")

    def expect_int(self, obj: dict, path: str, key: str, required: bool = True, default=None):
        if key not in obj:
            if required:
                self.add(self.at(path, key), "required field is missing")
            return default
        v = obj[key]
        if not _is_int(v):
            self.add(self.at(path, key), f"must be an integer, got {v!r}")
            return default
        return v

    def expect_number(self, obj: dict, path: str, key: str, required: bool = True,
                      default=None):
        if key not in obj:
            if required:
                self.add(self.at(path, key), "required field is missing")
            return default
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.add(self.at(path, key), f"must be a number, got {v!r}")
            return default
        return self.to_float(self.at(path, key), v, default)

    def to_float(self, path: str, v: int | float, default=None):
        """A JSON number as a float; an integer past the float range is
        reported at ``path`` instead of raising OverflowError."""
        try:
            return float(v)
        except OverflowError:
            self.add(path, "integer is too large for a float")
            return default

    def expect_str(self, obj: dict, path: str, key: str, required: bool = True,
                   default=None, choices: tuple[str, ...] | None = None):
        if key not in obj:
            if required:
                self.add(self.at(path, key), "required field is missing")
            return default
        v = obj[key]
        if not isinstance(v, str):
            self.add(self.at(path, key), f"must be a string, got {v!r}")
            return default
        if choices is not None and v not in choices:
            self.add(self.at(path, key), f"must be one of {choices}, got {v!r}")
            return default
        return v


def _parse_list(col: _Collector, obj: dict, path: str, key: str, kind: type) -> tuple | None:
    """A nonempty list of ``kind`` (int, or float accepting ints) as a tuple."""
    what = "integers" if kind is int else "numbers"
    path, v = col.at(path, key), obj[key]
    if not isinstance(v, list) or not v:
        col.add(path, f"must be a nonempty list of {what}, got {v!r}")
        return None
    if any(isinstance(x, bool) or not isinstance(x, (int, kind)) for x in v):
        col.add(path, f"must contain only {what}, got {v!r}")
        return None
    values = tuple(x if kind is int else col.to_float(f"{path}[{i}]", x)
                   for i, x in enumerate(v))
    return None if None in values else values


def _parse_policy(col: _Collector, obj: dict, path: str, key: str, menu: dict, what: str):
    """The policy at ``key``: the class of ``menu`` its "policy" names,
    read from its fields (``_parse_fields`` reports a non-object)."""
    path, v = col.at(path, key), obj[key]
    cls = None
    if isinstance(v, dict):
        name = col.expect_str(v, path, "policy")
        cls = menu.get(name)
        if cls is None:
            if name is not None:
                col.add(f"{path}.policy",
                        f"unknown {what} policy {name!r}; supported: {tuple(menu)}")
            return None
    return _parse_fields(col, cls, v, path, extra=("policy",))


def _parse_factors(col: _Collector, obj: dict, path: str, key: str):
    from .multi_urn import CommonFactors

    return _parse_fields(col, CommonFactors, obj[key], col.at(path, key))


def _parse_urns(col: _Collector, obj: dict, path: str, key: str) -> tuple | None:
    from .multi_urn import UrnSpec

    path, v = col.at(path, key), obj[key]
    if not isinstance(v, list) or not v:
        col.add(path, f"must be a nonempty list, got {v!r}")
        return None
    specs = tuple(_parse_fields(col, UrnSpec, x, f"{path}[{i}]") for i, x in enumerate(v))
    return None if None in specs else specs


# How each dataclass field type of a config object is read from
# ``obj[key]``, a key ``obj`` holds.
_FIELD_PARSERS = {
    "str": lambda col, obj, path, key: col.expect_str(obj, path, key),
    "int": lambda col, obj, path, key: col.expect_int(obj, path, key),
    "tuple[int, ...]": lambda col, obj, path, key: _parse_list(col, obj, path, key, int),
    "tuple[float, ...]": lambda col, obj, path, key: _parse_list(col, obj, path, key, float),
    "DrawSizePolicy": lambda col, obj, path, key: _parse_policy(
        col, obj, path, key, DRAW_POLICIES, "draw"),
    "ReinforcementPolicy": lambda col, obj, path, key: _parse_policy(
        col, obj, path, key, REINFORCEMENT_POLICIES, "reinforcement"),
    "IntegerDistribution | None": lambda col, obj, path, key: _parse_fields(
        col, IntegerDistribution, obj[key], col.at(path, key)),
    "CommonFactors": _parse_factors,
    "tuple[UrnSpec, ...]": _parse_urns,
}


def _parse_fields(col: _Collector, cls, obj, path: str, extra: tuple[str, ...] = (),
                  own_rules=None):
    """``cls`` built from the object ``obj`` by its dataclass fields, a
    field with a default being optional; its constructor checks ranges.
    Keys of ``obj`` other than the fields and ``extra`` are reported as
    unknown.  Where a field fails, ``own_rules`` gets the fields read and
    returns the problems of their own rules."""
    if not isinstance(obj, dict):
        col.add(path, f"must be an object, got {obj!r}")
        return None
    fields = dataclasses.fields(cls)
    col.unknown(obj, path, {*extra, *(f.name for f in fields)})
    kwargs, ok = {}, True
    for f in fields:
        if f.name in obj:
            kwargs[f.name] = _FIELD_PARSERS[f.type](col, obj, path, f.name)
            ok = ok and kwargs[f.name] is not None
        elif f.default is dataclasses.MISSING:
            col.add(col.at(path, f.name), "required field is missing")
            ok = False
    if not ok:
        if own_rules is not None:
            col.extend(path, own_rules(**kwargs))
        return None
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        col.extend(path, exc.problems)
        return None


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Collects every validation problem before failing; syntax errors
    carry line and column.  ``kind`` (from the subcommand) fills in or
    cross-checks the config's own "kind" field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax: {exc.msg} at line {exc.lineno}, column {exc.colno}"]
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError([f"syntax: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: must be a JSON object"])
    col = _Collector()

    cfg_kind = raw.get("kind")
    if cfg_kind is not None and cfg_kind not in KINDS:
        col.add("kind", f"must be one of {KINDS}, got {cfg_kind!r}")
        cfg_kind = None
    elif cfg_kind is None and kind is None:
        col.add("kind", f"required (or pass a subcommand); one of {KINDS}")
    elif cfg_kind is not None and kind is not None and cfg_kind != kind:
        col.add("kind", f"config says {cfg_kind!r} but the subcommand is {kind!r}")
    resolved_kind = kind or cfg_kind
    if resolved_kind is not None:
        col.unknown(raw, "", ("kind", "outputs", *_TOP_LEVEL[resolved_kind]))

    out = ExperimentConfig(kind=resolved_kind or "simulate")

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        col.add("outputs", f"must be an object, got {outputs!r}")
        outputs = {}
    col.unknown(outputs, "outputs", ("dir", "table_format"))
    out.out_dir = col.expect_str(outputs, "outputs", "dir", required=False, default=".")
    out.table_format = col.expect_str(
        outputs, "outputs", "table_format", required=False, default="tsv",
        choices=("tsv", "csv"),
    )

    has_urn = "urn" in raw
    has_urns = "urns" in raw
    if has_urn and has_urns:
        col.add("urn", "give either a single 'urn' or a multi-urn 'urns' list, not both")

    if resolved_kind == "hitting":
        walk = raw.get("walk")
        if not isinstance(walk, dict):
            col.add("walk", "hitting experiments need a 'walk' object (start, high, reps)")
        else:
            from .montecarlo import walk_problems

            col.unknown(walk, "walk", ("start", "high", "reps", "seed"))
            out.walk_start = col.expect_int(walk, "walk", "start")
            out.walk_high = col.expect_int(walk, "walk", "high")
            out.walk_reps = col.expect_int(walk, "walk", "reps")
            out.seed = col.expect_int(walk, "walk", "seed", required=False, default=0)
            col.extend("walk", walk_problems(out.walk_start, out.walk_high, out.walk_reps))
        if col.problems:
            raise ConfigError(col.problems)
        return out

    # simulate runs one trajectory to n: it reads no reps or n_proxy.
    simulate = resolved_kind == "simulate"
    reads = ("n", "seed") if simulate else ("reps", "n", "n_proxy", "seed")
    plan = raw.get("plan")
    if not isinstance(plan, dict):
        col.add("plan", f"required object ({', '.join(reads)})")
        plan = {}
    col.unknown(plan, "plan", reads)
    before = len(col.problems)
    if not simulate:
        out.reps = col.expect_int(plan, "plan", "reps")
        out.n_proxy = col.expect_int(plan, "plan", "n_proxy", required=False)
    out.n = col.expect_int(plan, "plan", "n")
    out.seed = col.expect_int(plan, "plan", "seed", default=0)
    if simulate:
        col.extend("plan", count_problems(n=out.n))  # run_trajectory's steps
    else:
        from .montecarlo import plan_problems

        col.extend("plan", plan_problems(out.reps, out.n, out.n_proxy))
    plan_fields_ok = len(col.problems) == before

    system_kinds = ("mtest",)
    single_kinds = ("simulate", "clt", "limit-law")
    if resolved_kind in single_kinds and has_urns:
        col.add("urns", f"{resolved_kind} experiments run on a single urn; use 'urn'")
    if resolved_kind in system_kinds and has_urn:
        col.add("urn", f"{resolved_kind} experiments need a multi-urn system; use 'urns'")

    if has_urns and resolved_kind not in single_kinds:
        from .multi_urn import UrnSystem

        system = {key: raw[key] for key in ("urns", "factors") if key in raw}
        out.system = _parse_fields(col, UrnSystem, system, "")
    elif has_urn:
        if "factors" in raw:
            col.add("factors", "common factors apply to multi-urn systems only")
        # An urn whose policy fails still reports its own fields' rules.
        out.urn = _parse_fields(
            col, UrnConfig, raw["urn"], "urn",
            own_rules=lambda a=None, b=None, label=DEFAULT_LABEL, **_: urn_problems(a, b, label))
    else:
        col.add("urn", f"an experiment of kind {resolved_kind!r} needs an urn section")

    # Each rule on a value is stated once, in the library: here the JSON
    # types are checked and the library's problems collected at their keys.
    if resolved_kind in ("coverage", "mtest"):
        from .multi_urn import level_problems

        out.level = col.expect_number(raw, "", "level", required=False,
                                      default=0.95 if resolved_kind == "coverage" else 0.05)
        col.extend("", level_problems(out.level))

    if resolved_kind == "mtest":
        out.target = col.expect_str(raw, "", "target")
        ref = raw.get("reference")
        if not isinstance(ref, list) or not all(isinstance(x, str) for x in ref):
            col.add("reference", f"must be a list of urn labels, got {ref!r}")
        elif out.system is not None and out.target is not None:
            from .multi_urn import mtest_problems

            out.reference = tuple(ref)
            col.extend("", mtest_problems(out.target, out.reference, out.system.labels))

    system_coverage = resolved_kind == "coverage" and has_urns
    for name in ("coeffs", "basis"):
        if name in raw and not system_coverage:
            col.add(name, "applies to coverage on a multi-urn system only")
    if system_coverage:
        out.basis = col.expect_str(raw, "", "basis", required=False, default="Z")
        coeffs = raw.get("coeffs", {})
        if not isinstance(coeffs, dict) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in coeffs.values()
        ):
            col.add("coeffs", f"must be an object of label: weight (a number), got {coeffs!r}")
        elif out.system is not None:
            from .multi_urn import combination_problems

            out.coeffs = {k: col.to_float(f"coeffs.{k}", v) for k, v in coeffs.items()}
            if None not in out.coeffs.values():
                col.extend("", combination_problems(out.coeffs, out.basis, out.system.labels))

    # The whole plan's rule: 2**53 at the last horizon it simulates.
    if not simulate and plan_fields_ok and (out.urn is not None or out.system is not None):
        try:
            _plan_for(out)
        except ParameterError as exc:
            col.extend("plan", exc.problems)
    if col.problems:
        raise ConfigError(col.problems)
    return out


# Serialization back to the JSON form (the config echo).


_POLICY_NAMES = {cls: name for menu in (DRAW_POLICIES, REINFORCEMENT_POLICIES)
                 for name, cls in menu.items()}


def _to_json(obj):
    """A config object as JSON: a policy's menu name, then the dataclass
    fields in declaration order, leaving out a None or empty one; a tuple
    as a list."""
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    out = {"policy": _POLICY_NAMES[type(obj)]} if type(obj) in _POLICY_NAMES else {}
    for f in dataclasses.fields(obj):
        v = _to_json(getattr(obj, f.name))
        if v is not None and v != {}:
            out[f.name] = v
    return out


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    """The config echo: parses back to an equal ExperimentConfig."""
    out: dict = {"kind": cfg.kind}
    if cfg.kind == "hitting":
        out["walk"] = {
            "start": cfg.walk_start, "high": cfg.walk_high,
            "reps": cfg.walk_reps, "seed": cfg.seed,
        }
        out["outputs"] = {"table_format": cfg.table_format}
        return out
    if cfg.urn is not None:
        out["urn"] = _to_json(cfg.urn)
    if cfg.system is not None:
        out.update(_to_json(cfg.system))  # "urns", and "factors" unless absent
    plan: dict = {"n": cfg.n, "seed": cfg.seed}
    if cfg.kind != "simulate":
        plan = {"reps": cfg.reps, **plan}
    if cfg.n_proxy is not None:
        plan["n_proxy"] = cfg.n_proxy
    out["plan"] = plan
    if cfg.level is not None:
        out["level"] = cfg.level
    if cfg.target is not None:
        out["target"] = cfg.target
        out["reference"] = list(cfg.reference)
    if cfg.coeffs:
        out["coeffs"] = cfg.coeffs
        out["basis"] = cfg.basis
    out["outputs"] = {"table_format": cfg.table_format}
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
        json.dump(payload, fh, indent=2)
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
    from .montecarlo import ReplicationPlan

    # mtest reads n alone: n_proxy is validated and echoed, never simulated.
    return ReplicationPlan(
        config=cfg.urn if cfg.urn is not None else cfg.system,
        reps=cfg.reps,
        n=cfg.n,
        n_proxy=cfg.n_proxy,
        master_seed=cfg.seed,
        horizons=(cfg.n,) if cfg.kind == "mtest" else None,
    )


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

    traj = run_trajectory(cfg.urn, cfg.n, cfg.seed)
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

    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    if cfg.urn is not None:
        cov = mc.coverage_experiment(plan, cfg.level, records)
        return {
            "level": cov.level,
            "n": cov.n,
            "proxy_horizon": cov.proxy_horizon,
            "from_Zn": dataclasses.asdict(cov.from_zn),
            "from_Mn": dataclasses.asdict(cov.from_mn),
        }, {}
    res = mc.linear_combination_coverage(plan, cfg.coeffs, cfg.basis, cfg.level, records)
    return {
        "level": cfg.level,
        "n": plan.n,
        "proxy_horizon": plan.proxy_horizon,
        "basis": cfg.basis,
        "coeffs": cfg.coeffs,
        "combination": dataclasses.asdict(res),
    }, {}


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

    est = mc.hitting_probability_check(
        cfg.walk_start, cfg.walk_high, cfg.walk_reps, master_seed=cfg.seed
    )
    expected = mc.walk_absorption_probability(cfg.walk_start, cfg.walk_high)
    return {
        **dataclasses.asdict(est),
        "expected": expected,
        "abs_error": abs(est.estimate - expected),
    }, {}


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
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc
    for name, (header, columns) in tables.items():
        write_table(out_dir / f"{name}.{cfg.table_format}", header, columns, cfg.table_format)
    report_path = out_dir / "report.json"
    write_report(report_path, {
        "tool": "hrru", "version": __version__, "kind": cfg.kind, "seed": cfg.seed,
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(text, kind=args.kind)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for p in exc.problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
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
    print(report_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
