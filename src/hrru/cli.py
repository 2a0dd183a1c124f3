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

import numpy as np

from . import __version__
from . import montecarlo as mc
from .multi_urn import CommonFactors, UrnSpec, UrnSystem, check_coefficients
from .urn_core import (
    DRAW_POLICIES,
    REINFORCEMENT_POLICIES,
    ConfigError,
    IntegerDistribution,
    ParameterError,
    UrnConfig,
    _is_int,
)

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

    def expect_int(self, obj: dict, path: str, key: str, minimum: int | None = None,
                   required: bool = True, default=None):
        if key not in obj:
            if required:
                self.add(self.at(path, key), "required field is missing")
            return default
        v = obj[key]
        if not _is_int(v):
            self.add(self.at(path, key), f"must be an integer, got {v!r}")
            return default
        if minimum is not None and v < minimum:
            self.add(self.at(path, key), f"must be >= {minimum}, got {v}")
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
        return float(v)

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
    if key not in obj:
        col.add(f"{path}.{key}", "required field is missing")
        return None
    v = obj[key]
    if not isinstance(v, list) or not v:
        col.add(f"{path}.{key}", f"must be a nonempty list of {what}, got {v!r}")
        return None
    if any(isinstance(x, bool) or not isinstance(x, (int, kind)) for x in v):
        col.add(f"{path}.{key}", f"must contain only {what}, got {v!r}")
        return None
    return tuple(kind(x) for x in v)


# How each dataclass field type of a policy, factor law or urn spec is read.
_FIELD_PARSERS = {
    "str": lambda col, obj, path, key: col.expect_str(obj, path, key),
    "int": lambda col, obj, path, key: col.expect_int(obj, path, key),
    "tuple[int, ...]": lambda col, obj, path, key: _parse_list(col, obj, path, key, int),
    "tuple[float, ...]": lambda col, obj, path, key: _parse_list(col, obj, path, key, float),
}


def _parse_fields(col: _Collector, cls, obj: dict, path: str, extra: tuple[str, ...] = ()):
    """``cls`` built from its dataclass fields; its constructor checks
    ranges.  Keys of ``obj`` other than the fields and ``extra`` are
    reported as unknown."""
    fields = dataclasses.fields(cls)
    col.unknown(obj, path, {*extra, *(f.name for f in fields)})
    kwargs = {f.name: _FIELD_PARSERS[f.type](col, obj, path, f.name) for f in fields}
    if None in kwargs.values():
        return None
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        col.add(path, str(exc))
        return None


def _parse_policy(col: _Collector, obj, path: str, menu: dict, what: str):
    if not isinstance(obj, dict):
        col.add(path, f"must be an object, got {obj!r}")
        return None
    name = col.expect_str(obj, path, "policy")
    if name is None:
        return None
    if name not in menu:
        col.add(f"{path}.policy", f"unknown {what} policy {name!r}; supported: {tuple(menu)}")
        return None
    return _parse_fields(col, menu[name], obj, path, extra=("policy",))


def _parse_single_urn(col: _Collector, obj, path: str) -> UrnConfig | None:
    if not isinstance(obj, dict):
        col.add(path, f"must be an object, got {obj!r}")
        return None
    col.unknown(obj, path, ("a", "b", "label", "draw", "reinforce"))
    a = col.expect_int(obj, path, "a", minimum=1)
    b = col.expect_int(obj, path, "b", minimum=1)
    label = col.expect_str(obj, path, "label", required=False, default="u0")
    draw = reinforce = None
    if "draw" in obj:
        draw = _parse_policy(col, obj["draw"], f"{path}.draw", DRAW_POLICIES, "draw")
    else:
        col.add(f"{path}.draw", "required field is missing")
    if "reinforce" in obj:
        reinforce = _parse_policy(
            col, obj["reinforce"], f"{path}.reinforce", REINFORCEMENT_POLICIES, "reinforcement"
        )
    else:
        col.add(f"{path}.reinforce", "required field is missing")
    if None in (a, b, draw, reinforce):
        return None
    try:
        return UrnConfig(a=a, b=b, draw=draw, reinforce=reinforce, label=label)
    except ConfigError as exc:
        for p in exc.problems:
            col.add(path, p)
        return None


def _parse_factor_dist(col: _Collector, obj, path: str) -> IntegerDistribution | None:
    if not isinstance(obj, dict):
        col.add(path, f"must be an object, got {obj!r}")
        return None
    return _parse_fields(col, IntegerDistribution, obj, path)


def _parse_system(col: _Collector, urns_obj, factors_obj) -> UrnSystem | None:
    if not isinstance(urns_obj, list) or not urns_obj:
        col.add("urns", f"must be a nonempty list, got {urns_obj!r}")
        return None
    specs = []
    ok = True
    for i, item in enumerate(urns_obj):
        path = f"urns[{i}]"
        if not isinstance(item, dict):
            col.add(path, f"must be an object, got {item!r}")
            ok = False
            continue
        spec = _parse_fields(col, UrnSpec, item, path)
        ok = ok and spec is not None
        specs.append(spec)
    factors = {}
    if factors_obj is not None:
        if not isinstance(factors_obj, dict):
            col.add("factors", f"must be an object, got {factors_obj!r}")
            ok = False
        else:
            col.unknown(factors_obj, "factors", ("draw", "reinforce"))
            for name in ("draw", "reinforce"):
                if name in factors_obj:
                    factors[name] = _parse_factor_dist(col, factors_obj[name], f"factors.{name}")
                    ok = ok and factors[name] is not None
    if not ok:
        return None
    try:
        return UrnSystem(urns=tuple(specs), factors=CommonFactors(**factors))
    except ConfigError as exc:
        for p in exc.problems:
            col.add("urns", p)
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
    if not isinstance(raw, dict):
        raise ConfigError(["top level: must be a JSON object"])
    col = _Collector()

    cfg_kind = raw.get("kind")
    if cfg_kind is not None and cfg_kind not in KINDS:
        col.add("kind", f"must be one of {KINDS}, got {cfg_kind!r}")
        cfg_kind = None
    if kind is None:
        if cfg_kind is None:
            col.add("kind", f"required (or pass a subcommand); one of {KINDS}")
        resolved_kind = cfg_kind
    else:
        if cfg_kind is not None and cfg_kind != kind:
            col.add("kind", f"config says {cfg_kind!r} but the subcommand is {kind!r}")
        resolved_kind = kind
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
            col.unknown(walk, "walk", ("start", "high", "reps", "seed"))
            out.walk_start = col.expect_int(walk, "walk", "start", minimum=2)
            out.walk_high = col.expect_int(walk, "walk", "high", minimum=3)
            out.walk_reps = col.expect_int(walk, "walk", "reps", minimum=1)
            out.seed = col.expect_int(walk, "walk", "seed", required=False, default=0)
            if (
                out.walk_start is not None and out.walk_high is not None
                and out.walk_start > out.walk_high - 1
            ):
                col.add("walk.start", "must satisfy 2 <= start <= high - 1")
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
    if not simulate:
        out.reps = col.expect_int(plan, "plan", "reps", minimum=1) or 1
        out.n_proxy = col.expect_int(plan, "plan", "n_proxy", minimum=1,
                                     required=False, default=None)
    out.n = col.expect_int(plan, "plan", "n", minimum=1) or 1
    out.seed = col.expect_int(plan, "plan", "seed")
    if out.seed is None:
        out.seed = 0

    system_kinds = ("mtest",)
    single_kinds = ("simulate", "clt", "limit-law")
    if resolved_kind in single_kinds and has_urns:
        col.add("urns", f"{resolved_kind} experiments run on a single urn; use 'urn'")
    if resolved_kind in system_kinds and has_urn:
        col.add("urn", f"{resolved_kind} experiments need a multi-urn system; use 'urns'")

    if has_urns and resolved_kind not in single_kinds:
        out.system = _parse_system(col, raw.get("urns"), raw.get("factors"))
    elif has_urn:
        if "factors" in raw:
            col.add("factors", "common factors apply to multi-urn systems only")
        out.urn = _parse_single_urn(col, raw.get("urn"), "urn")
    else:
        col.add("urn", f"an experiment of kind {resolved_kind!r} needs an urn section")

    if resolved_kind == "coverage":
        out.level = col.expect_number(raw, "", "level", required=False, default=0.95)
    elif resolved_kind == "mtest":
        out.level = col.expect_number(raw, "", "level", required=False, default=0.05)
    if out.level is not None and not (0.0 < out.level < 1.0):
        col.add("level", f"must lie in (0, 1), got {out.level!r}")

    if resolved_kind == "mtest":
        out.target = col.expect_str(raw, "", "target")
        ref = raw.get("reference")
        if not isinstance(ref, list) or not ref or not all(isinstance(x, str) for x in ref):
            col.add("reference", f"must be a nonempty list of urn labels, got {ref!r}")
        elif len(set(ref)) != len(ref):
            col.add("reference", f"labels must be distinct, got {ref!r}")
        else:
            out.reference = tuple(ref)
        if out.system is not None and out.target is not None:
            labels = out.system.labels
            for lab in (out.target, *out.reference):
                if lab not in labels:
                    col.add("target" if lab == out.target else "reference",
                            f"no urn labeled {lab!r}; labels are {labels}")
            if out.target in out.reference:
                col.add("target", "must not belong to the reference set")

    system_coverage = resolved_kind == "coverage" and has_urns
    for name in ("coeffs", "basis"):
        if name in raw and not system_coverage:
            col.add(name, "applies to coverage on a multi-urn system only")
    if system_coverage and "coeffs" in raw:
        coeffs = raw["coeffs"]
        if not isinstance(coeffs, dict) or not coeffs:
            col.add("coeffs", f"must be a nonempty object of label: weight, got {coeffs!r}")
        elif any(isinstance(v, bool) or not isinstance(v, (int, float))
                 for v in coeffs.values()):
            col.add("coeffs", "weights must be numbers")
        else:
            out.coeffs = {k: float(v) for k, v in coeffs.items()}
            try:
                check_coefficients(out.coeffs)
            except ParameterError as exc:
                col.add("coeffs", str(exc))
            if out.system is not None:
                for lab in out.coeffs:
                    if lab not in out.system.labels:
                        col.add("coeffs", f"no urn labeled {lab!r}; labels are {out.system.labels}")
    if system_coverage:
        out.basis = col.expect_str(raw, "", "basis", required=False, default="Z",
                                   choices=("Z", "M"))
    if resolved_kind == "coverage" and out.system is not None and not out.coeffs:
        col.add("coeffs", "coverage on a multi-urn system needs a coefficient map")

    # Plan-level cross checks mirror ReplicationPlan's own validation,
    # surfaced here so they land in the collected error list.
    if out.n_proxy is not None and out.n_proxy < 10 * out.n:
        col.add("plan.n_proxy", f"must be >= 10 n = {10 * out.n}, got {out.n_proxy}")
    if col.problems:
        raise ConfigError(col.problems)
    return out


# Serialization back to the JSON form (the config echo).


def _fields_to_json(obj) -> dict:
    return {
        f.name: list(v) if isinstance(v := getattr(obj, f.name), tuple) else v
        for f in dataclasses.fields(obj)
    }


def _policy_to_json(policy, menu: dict) -> dict:
    for name, cls in menu.items():
        if type(policy) is cls:
            return {"policy": name, **_fields_to_json(policy)}
    raise ParameterError(f"policy {type(policy).__name__} has no JSON form")


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
        out["urn"] = {
            "a": cfg.urn.a, "b": cfg.urn.b, "label": cfg.urn.label,
            "draw": _policy_to_json(cfg.urn.draw, DRAW_POLICIES),
            "reinforce": _policy_to_json(cfg.urn.reinforce, REINFORCEMENT_POLICIES),
        }
    if cfg.system is not None:
        out["urns"] = [
            {"label": u.label, "a": u.a, "b": u.b,
             "draw_base": u.draw_base, "reinforce_base": u.reinforce_base}
            for u in cfg.system.urns
        ]
        factors = {
            name: _fields_to_json(d)
            for name, d in (("draw", cfg.system.factors.draw),
                            ("reinforce", cfg.system.factors.reinforce))
            if d is not None
        }
        if factors:
            out["factors"] = factors
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


def _report_skeleton(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "hrru",
        "version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config": config_to_json_dict(cfg),
    }


def _plan_for(cfg: ExperimentConfig) -> mc.ReplicationPlan:
    return mc.ReplicationPlan(
        config=cfg.urn if cfg.urn is not None else cfg.system,
        reps=cfg.reps,
        n=cfg.n,
        n_proxy=cfg.n_proxy,
        master_seed=cfg.seed,
    )


def _diag_to_dict(d: mc.CltDiagnostics) -> dict:
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


def _run_simulate(cfg: ExperimentConfig, out_dir: Path, workers: int | None) -> dict:
    from .urn_core import run_trajectory

    traj = run_trajectory(cfg.urn, cfg.n, cfg.seed)
    steps = np.arange(1, len(traj) + 1)
    write_table(
        out_dir / f"trajectory.{cfg.table_format}",
        ["n", "N", "X", "R", "H", "S", "Z", "M"],
        [steps, traj.N, traj.X, traj.R, traj.H, traj.S, traj.Z, traj.M],
        cfg.table_format,
    )
    report = _report_skeleton(cfg)
    report["results"] = {
        "steps": len(traj),
        "final_z": float(traj.Z[-1]),
        "final_m": float(traj.M[-1]),
        "final_s": int(traj.S[-1]),
    }
    return report


def _run_clt(cfg: ExperimentConfig, out_dir: Path, workers: int | None) -> dict:
    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    mn = mc.clt_check_mn(plan, records)
    stats = mn.stats
    u = records.single
    write_table(
        out_dir / f"samples.{cfg.table_format}",
        ["rep", "z_n", "m_emp", "z_proxy", "v_n", "w_n", "u_n",
         "t_prop", "t_gap", "t_mean"],
        [np.arange(plan.reps), u.at_n.z, u.at_n.m_emp, u.at_proxy.z,
         stats.v, stats.w, stats.u, stats.t_prop, stats.t_gap, stats.t_mean],
        cfg.table_format,
    )
    report = _report_skeleton(cfg)
    report["results"] = {
        "proportion": _diag_to_dict(mn.proportion),
        "gap": _diag_to_dict(mn.gap),
        "mean": _diag_to_dict(mn.mean),
        "corr_gap_proportion": mn.corr_gap_proportion,
        "median_abs_gap": mn.median_abs_gap,
    }
    return report


def _run_coverage(cfg: ExperimentConfig, out_dir: Path, workers: int | None) -> dict:
    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    report = _report_skeleton(cfg)
    if cfg.urn is not None:
        cov = mc.coverage_experiment(plan, cfg.level, records)
        report["results"] = {
            "level": cov.level,
            "n": cov.n,
            "proxy_horizon": cov.proxy_horizon,
            "from_Zn": dataclasses.asdict(cov.from_zn),
            "from_Mn": dataclasses.asdict(cov.from_mn),
        }
    else:
        res = mc.linear_combination_coverage(
            plan, cfg.coeffs, cfg.basis, cfg.level, records
        )
        report["results"] = {
            "level": cfg.level,
            "n": plan.n,
            "proxy_horizon": plan.proxy_horizon,
            "basis": cfg.basis,
            "coeffs": cfg.coeffs,
            "combination": dataclasses.asdict(res),
        }
    return report


def _run_limit_law(cfg: ExperimentConfig, out_dir: Path, workers: int | None) -> dict:
    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    rep = mc.limit_law_suite(plan, records)
    blk = records.single.at_proxy
    write_table(
        out_dir / f"proxy.{cfg.table_format}",
        ["rep", "z_proxy", "s_over_n"],
        [np.arange(plan.reps), blk.z, blk.s_over_n],
        cfg.table_format,
    )
    report = _report_skeleton(cfg)
    report["results"] = dataclasses.asdict(rep)
    return report


def _run_mtest(cfg: ExperimentConfig, out_dir: Path, workers: int | None) -> dict:
    plan = _plan_for(cfg)
    records = mc.replicate(plan, workers)
    res = mc.mtest_rejection(plan, cfg.target, cfg.reference, cfg.level, records)
    report = _report_skeleton(cfg)
    report["results"] = {**dataclasses.asdict(res), "frequency": res.frequency}
    return report


def _run_hitting(cfg: ExperimentConfig, out_dir: Path, workers: int | None) -> dict:
    est = mc.hitting_probability_check(
        cfg.walk_start, cfg.walk_high, cfg.walk_reps, master_seed=cfg.seed
    )
    expected = mc.walk_absorption_probability(cfg.walk_start, cfg.walk_high)
    report = _report_skeleton(cfg)
    report["results"] = {
        **dataclasses.asdict(est),
        "expected": expected,
        "abs_error": abs(est.estimate - expected),
    }
    return report


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

    Every file is replaced whole, and ``report.json`` last, so a run
    that fails part-way leaves the previous report in place.
    """
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc
    report = _RUNNERS[cfg.kind](cfg, out_dir, workers)
    report_path = out_dir / "report.json"
    write_report(report_path, report)
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
