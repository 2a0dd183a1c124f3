"""Per-layer tracing of one `hrru` CLI invocation, from outside the package.

The tracer replaces the module-level functions each layer is entered
through with timing wrappers, runs `hrru.cli.main`, and puts every
original back. Nothing under `src/` knows about it.

A wrapper records its call count, its inclusive time and the time its
traced callees took (so self time is inclusive minus callees), plus
exact work counters taken from its arguments or result. Chunk and
replicate calls also keep their start and end on the monotonic clock,
which every process on the host shares, so the time `replicate` spends
outside chunk work can be computed when chunks run in pool workers.

Pool workers are forked from the traced process and inherit the
wrappers. A worker writes what it recorded to a spool file at the end
of every outermost traced call, before the result goes back to the
parent; the parent merges the spool files after `main` returns.

A target that a later version renames or deletes is skipped, and the
metrics that depend only on it are reported as absent.

Run as a script, this is the traced launcher:

    python3 perfbench/tracer.py --spool DIR --out TRACE.json -- <hrru args>
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

MARK = "__perfbench_original__"


def _units_values(sig, args, kwargs, result):
    return {"values": int(result.size)}


def _chunk_work(sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs).arguments
    urns = getattr(bound["config"], "urns", None)
    lanes = bound["rep_hi"] - bound["rep_lo"]
    return {"lane_steps": lanes * bound["horizons"][-1] * (len(urns) if urns else 1)}


def _ks_samples(sig, args, kwargs, result):
    return {"samples": len(sig.bind(*args, **kwargs).arguments["sample"])}


def _trajectory_steps(sig, args, kwargs, result):
    return {"steps": len(result)}


def _table_work(sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs).arguments
    columns = bound["columns"]
    return {"rows": len(columns[0]) if columns else 0,
            "bytes": Path(bound["path"]).stat().st_size}


# (span name, module under hrru, function, work counter or None)
TARGETS = (
    ("rng.units", "rng", "units_from_states_vec", _units_values),
    ("rng.keys", "rng", "rep_keys_vec", None),
    ("rng.keys", "rng", "derive_keys_each", None),
    ("engine.chunk", "engine", "run_chunk", _chunk_work),
    ("engine.kahan", "engine", "_kahan_add", None),
    ("montecarlo.replicate", "montecarlo", "replicate", None),
    ("montecarlo.diag", "montecarlo", "clt_check_zn", None),
    ("montecarlo.diag", "montecarlo", "clt_check_mn", None),
    ("montecarlo.diag", "montecarlo", "mtest_rejection", None),
    ("gof.ks", "gof", "ks_distance", _ks_samples),
    # montecarlo's own binding: it imported variance_terms by name
    ("estimators.variance", "montecarlo", "variance_terms", None),
    ("urn_core.trajectory", "urn_core", "run_trajectory", _trajectory_steps),
    ("cli.parse", "cli", "parse_config", None),
    ("cli.table", "cli", "write_table", _table_work),
    ("cli.report", "cli", "write_report", None),
)

INTERVAL_SPANS = ("engine.chunk", "montecarlo.replicate")


class Tracer:
    """Installs wrappers on `hrru` modules and accumulates their spans."""

    def __init__(self, spool: Path | None = None, targets=TARGETS):
        self.spool = spool
        self.targets = targets
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.spans: list[str] = []  # span names with at least one installed target
        self.broken_counters: set[str] = set()
        self.root_pid = os.getpid()
        self._reset(self.root_pid)

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.stats: dict[str, dict] = {}
        self.intervals: list[tuple[str, float, float, int]] = []
        self.stack: list[list[float]] = []

    def install(self) -> None:
        for name, module, attr, counter in self.targets:
            try:
                mod = importlib.import_module(f"hrru.{module}")
            except ImportError:
                self.absent.append(f"{module}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, fn, counter))
            self.installed.append((mod, attr, fn))
            if name not in self.spans:
                self.spans.append(name)

    def uninstall(self) -> None:
        while self.installed:
            mod, attr, fn = self.installed.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None
        keep_interval = name in INTERVAL_SPANS
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first call in a forked worker
                tracer._reset(os.getpid())
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                rec = tracer.stats.get(name)
                if rec is None:
                    rec = tracer.stats[name] = {"s": 0.0, "calls": 0, "child_s": 0.0, "work": {}}
                rec["s"] += dt
                rec["calls"] += 1
                rec["child_s"] += frame[0]
                if keep_interval:
                    tracer.intervals.append((name, t0, t1, tracer.pid))
            if counter is not None and name not in tracer.broken_counters:
                try:
                    work = counter(sig, args, kwargs, result)
                except (KeyError, TypeError, AttributeError, IndexError, OSError):
                    tracer.broken_counters.add(name)
                else:
                    for key, value in work.items():
                        rec["work"][key] = rec["work"].get(key, 0) + value
            if not stack and tracer.spool is not None and tracer.pid != tracer.root_pid:
                tracer._flush_worker()
            return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _flush_worker(self) -> None:
        line = json.dumps({"pid": self.pid, "stats": self.stats,
                           "intervals": self.intervals,
                           "broken": sorted(self.broken_counters)})
        with open(self.spool / f"worker-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self._reset(self.pid)

    def collect(self) -> dict:
        """This process's spans merged with every worker's spool file."""
        parts = [{"pid": self.pid, "stats": self.stats, "intervals": self.intervals,
                  "broken": sorted(self.broken_counters)}]
        if self.spool is not None:
            for path in sorted(self.spool.glob("worker-*.jsonl")):
                parts.extend(json.loads(line) for line in path.read_text().splitlines())
        stats: dict[str, dict] = {}
        intervals = []
        broken = set()
        for part in parts:
            for name, rec in part["stats"].items():
                acc = stats.setdefault(name, {"s": 0.0, "calls": 0, "child_s": 0.0, "work": {}})
                acc["s"] += rec["s"]
                acc["calls"] += rec["calls"]
                acc["child_s"] += rec["child_s"]
                for key, value in rec["work"].items():
                    acc["work"][key] = acc["work"].get(key, 0) + value
            intervals.extend(tuple(iv) for iv in part["intervals"])
            broken.update(part["broken"])
        return {"stats": stats, "intervals": intervals, "broken_counters": sorted(broken),
                "absent_targets": list(self.absent), "installed_spans": self.spans,
                "worker_pids": sorted({p["pid"] for p in parts} - {self.pid})}


def wrapped_leftovers() -> list[str]:
    """Every function in a loaded `hrru` module that still carries a wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hrru" or modname.startswith("hrru.")):
            continue
        for attr, value in list(vars(mod).items()):
            if hasattr(value, MARK):
                found.append(f"{modname}.{attr}")
    return sorted(found)


def _covered(spans: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of spans."""
    total, end = 0.0, lo
    for a, b in sorted(spans):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# (metric, unit) in the order they are reported; the tracing overhead
# is measured by the benchmark runner, not from a trace.
LAYER_METRICS = (
    ("rng.units_s", "s"), ("rng.units_values", "count"), ("rng.ns_per_value", "ns"),
    ("rng.keys_s", "s"),
    ("engine.chunk_s", "s"), ("engine.chunks", "count"), ("engine.lane_steps", "count"),
    ("engine.mlane_steps_per_s", "Msteps/s"), ("engine.self_s", "s"), ("engine.kahan_s", "s"),
    ("montecarlo.replicate_s", "s"), ("montecarlo.assemble_s", "s"),
    ("montecarlo.pool_busy_frac", "fraction"), ("montecarlo.diag_s", "s"),
    ("gof.ks_s", "s"), ("gof.ks_samples", "count"), ("estimators.variance_s", "s"),
    ("urn_core.trajectory_s", "s"), ("urn_core.steps", "count"), ("urn_core.us_per_step", "us"),
    ("cli.parse_s", "s"), ("cli.table_s", "s"), ("cli.table_rows", "count"),
    ("cli.table_bytes", "B"), ("cli.us_per_row", "us"), ("cli.report_s", "s"),
    ("trace_overhead_frac", "fraction"),
)


def layer_metrics(trace: dict, workers: int) -> dict:
    """Per-layer metric values from a collected trace; absent ones are None.

    A span that was installed but never entered reads 0; a span whose
    target is missing, or whose work counter no longer fits the
    function's signature, makes the metrics built on it None.
    """
    have = set(trace["installed_spans"])
    broken = set(trace["broken_counters"])
    stats = trace["stats"]

    def seconds(name):
        if name not in have:
            return None
        return stats.get(name, {}).get("s", 0.0)

    def work(name, key):
        if name not in have or name in broken:
            return None
        return stats.get(name, {}).get("work", {}).get(key, 0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0) if name in have else None

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return num / den * scale if den else 0.0

    def minus(a, *bs):
        return None if a is None or any(b is None for b in bs) else a - sum(bs)

    chunk_s = seconds("engine.chunk")
    chunk_self = minus(chunk_s, stats.get("engine.chunk", {}).get("child_s", 0.0))
    replicate_s = seconds("montecarlo.replicate")
    assemble_s = None
    if replicate_s is not None and chunk_s is not None:
        chunk_spans = [(a, b) for n, a, b, _ in trace["intervals"] if n == "engine.chunk"]
        covered = sum(_covered(chunk_spans, a, b)
                      for n, a, b, _ in trace["intervals"] if n == "montecarlo.replicate")
        assemble_s = replicate_s - covered
    lane_steps = work("engine.chunk", "lane_steps")
    units_s, values = seconds("rng.units"), work("rng.units", "values")
    traj_s, steps = seconds("urn_core.trajectory"), work("urn_core.trajectory", "steps")
    table_s, rows = seconds("cli.table"), work("cli.table", "rows")
    return {
        "rng.units_s": units_s,
        "rng.units_values": values,
        "rng.ns_per_value": ratio(units_s, values, 1e9),
        "rng.keys_s": seconds("rng.keys"),
        "engine.chunk_s": chunk_s,
        "engine.chunks": calls("engine.chunk"),
        "engine.lane_steps": lane_steps,
        "engine.mlane_steps_per_s": ratio(lane_steps, chunk_s, 1e-6),
        "engine.self_s": chunk_self,
        "engine.kahan_s": seconds("engine.kahan"),
        "montecarlo.replicate_s": replicate_s,
        "montecarlo.assemble_s": assemble_s,
        "montecarlo.pool_busy_frac": ratio(chunk_s, None if replicate_s is None
                                           else workers * replicate_s),
        "montecarlo.diag_s": seconds("montecarlo.diag"),
        "gof.ks_s": seconds("gof.ks"),
        "gof.ks_samples": work("gof.ks", "samples"),
        "estimators.variance_s": seconds("estimators.variance"),
        "urn_core.trajectory_s": traj_s,
        "urn_core.steps": steps,
        "urn_core.us_per_step": ratio(traj_s, steps, 1e6),
        "cli.parse_s": seconds("cli.parse"),
        "cli.table_s": table_s,
        "cli.table_rows": rows,
        "cli.table_bytes": work("cli.table", "bytes"),
        "cli.us_per_row": ratio(table_s, rows, 1e6),
        "cli.report_s": seconds("cli.report"),
    }


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    spool, out = Path(opts["--spool"]), Path(opts["--out"])
    spool.mkdir(parents=True, exist_ok=True)
    from hrru import cli

    tracer = Tracer(spool)
    tracer.install()
    try:
        code = cli.main(argv[split + 1:])
    finally:
        tracer.uninstall()
    trace = tracer.collect()
    trace["leftover_wrapped"] = wrapped_leftovers()
    out.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
