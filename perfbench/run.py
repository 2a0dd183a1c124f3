"""hrru benchmark: time `hrru` CLI invocations end to end and check their output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` of that checkout. One run:

1. until `--seconds` have passed, repeats two steps: a set-up probe, a
   fresh interpreter that imports `hrru.cli` and validates the
   workload's config, timed from process start until `parse_config`
   returns (`setup_s`); then one `hrru <kind>` invocation in a fresh
   interpreter, as the `hrru` console script runs it, timed from outside
   (wall clock, and CPU and peak RSS of the process tree from `wait4`);
2. reports the median of each over the invocations;
3. checks every invocation's output (see checks.py) outside the timed
   region; an invocation that exits non-zero or fails the check counts
   as failed and is never dropped;
4. with `--trace 1`, follows every invocation with one under the tracer
   (tracer.py) and reports the median per-layer metrics instead of the
   end-to-end ones, with the median traced/untraced wall ratio of the
   pairs as the tracing overhead.

The second-to-last stdout line is a JSON object with every metric,
including `failed_frac`, plus machine and input facts; the last line is
the result object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INVOKE_TIMEOUT_S = 60
CLI = "import sys; from hrru.cli import main; sys.exit(main())"
# Prints the shared monotonic clock right after the config is validated.
PROBE = ("import sys, time; from hrru.cli import parse_config; "
         "parse_config(open(sys.argv[1], encoding='utf-8').read(), kind=sys.argv[2]); "
         "print(repr(time.monotonic()))")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "msteps_per_s": "Msteps/s", "cpu_s": "s",
             "peak_rss_mb": "MB", "failed_frac": "fraction"}
# failed_frac is 0 on a healthy run, so it travels in the detail line
# and in the result's attempted/failed counts, not as a bounded metric.
RESULT_E2E = ("wall_s", "setup_s", "msteps_per_s", "cpu_s", "peak_rss_mb")


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    started: float


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The checkout's package, no HRRU_WORKERS, single-threaded native libraries."""
    env = dict(os.environ)
    env.pop("HRRU_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict, log: Path) -> Outcome:
    """Run argv to completion in its own process group and measure it.

    `wait4` reports the child's CPU including the pool workers it reaped,
    and the largest peak RSS of any one process in that tree.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(INVOKE_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                   started)


def machine_facts() -> dict:
    import numpy

    model, l3 = platform.processor() or "unknown", "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (idx / "level").read_text().strip() == "3":
                l3 = (idx / "size").read_text().strip()
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model, "l3": l3,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, work: Path, pinned: dict | None):
        self.w = workload
        self.seed = seed
        self.work = work
        self.pinned = pinned
        self.workers = min(workload.workers, nproc())
        self.env = child_env()
        self.config_text = workload.config_text(seed)
        self.config = work / "config.json"
        self.config.write_text(self.config_text, encoding="utf-8")
        self.verdicts: dict[tuple, list[str]] = {}
        self.outcomes: list[Outcome] = []
        self.problems: list[str] = []
        self.failed = 0
        self.invocations = 0
        self.table_bytes = None
        self.trace_info: dict = {}

    def cli_args(self, out_dir: Path) -> list[str]:
        return [self.w.kind, "--config", str(self.config), "--seed", str(self.seed),
                "--workers", str(self.workers), "--out-dir", str(out_dir)]

    def setup_probe(self, i: int) -> float:
        log = self.work / f"probe-{i}"
        o = spawn([sys.executable, "-c", PROBE, str(self.config), self.w.kind], self.env, log)
        if o.code != 0:
            raise RuntimeError(f"set-up probe exited {o.code}: "
                               f"{log.with_suffix('.err').read_text()[-2000:]}")
        return float(log.with_suffix(".out").read_text()) - o.started

    def invoke(self, argv_prefix: list[str]) -> Outcome:
        i = self.invocations
        self.invocations += 1
        out_dir = self.work / f"out-{i}"
        log = self.work / f"cli-{i}"
        o = spawn(argv_prefix + self.cli_args(out_dir), self.env, log)
        if o.code != 0:
            err = log.with_suffix(".err").read_text(errors="replace")[-2000:]
            problems = [f"invocation {i} exited {o.code}: {err}"]
        else:
            problems = self.verdict(out_dir)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        if self.w.table and self.table_bytes is None and (out_dir / self.w.table).exists():
            self.table_bytes = (out_dir / self.w.table).stat().st_size
        shutil.rmtree(out_dir, ignore_errors=True)
        return o

    def verdict(self, out_dir: Path) -> list[str]:
        try:
            key = tuple(sorted(checks.digests(out_dir, self.w).items()))
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        if key not in self.verdicts:
            self.verdicts[key] = checks.check(out_dir, self.w, self.seed, self.config_text,
                                              self.pinned)
        return self.verdicts[key]

    def measure(self, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
        self.setup_probe(-1)  # warms the page cache and writes bytecode caches
        cli = [sys.executable, "-c", CLI]
        setup, pairs = [], []
        t_end = time.monotonic() + seconds
        while True:
            # One probe per invocation spreads set-up samples over the window,
            # and a traced invocation right after an untraced one pairs them
            # in time, so machine drift cancels out of the tracing overhead.
            setup.append(self.setup_probe(len(setup)))
            self.outcomes.append(self.invoke(cli))
            if trace:
                traced = self.traced()
                if traced is not None:
                    pairs.append((self.outcomes[-1].wall_s, *traced))
            if time.monotonic() >= t_end:
                break
        walls = [o.wall_s for o in self.outcomes]
        wall = statistics.median(walls)
        e2e = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "msteps_per_s": self.w.steps / wall / 1e6,
            "cpu_s": statistics.median(o.cpu_s for o in self.outcomes),
            "peak_rss_mb": statistics.median(o.peak_rss_mb for o in self.outcomes),
        }
        detail = {"wall_s_quartiles": _quartiles(walls), "wall_s_runs": walls,
                  "setup_s_runs": setup}
        layers = {}
        if pairs:
            samples = [lay for _, _, lay in pairs]
            layers = {name: None if any(s[name] is None for s in samples)
                      else statistics.median(s[name] for s in samples)
                      for name in samples[0]}
            layers["trace_overhead_frac"] = statistics.median(t / u for u, t, _ in pairs) - 1.0
            self.trace_info["traced_wall_s_runs"] = [t for _, t, _ in pairs]
            detail["trace_info"] = {k: sorted(v) if isinstance(v, set) else v
                                    for k, v in self.trace_info.items()}
        e2e["failed_frac"] = self.failed / self.invocations
        detail.update(attempted=self.invocations, failed=self.failed,
                      problems=self.problems[:20])
        return e2e, layers, detail

    def traced(self) -> tuple[float, dict] | None:
        """(wall, per-layer metrics) of one traced invocation, or None if it left no trace."""
        spool = self.work / f"spool-{self.invocations}"
        trace_out = self.work / f"trace-{self.invocations}.json"
        argv = [sys.executable, str(HERE / "tracer.py"), "--spool", str(spool),
                "--out", str(trace_out), "--"]
        o = self.invoke(argv)
        try:
            trace = json.loads(trace_out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            if o.code == 0:
                self.failed += 1
            self.problems.append("traced invocation wrote no trace")
            return None
        if trace["leftover_wrapped"]:
            self.failed += 1
            self.problems.append(f"functions left wrapped: {trace['leftover_wrapped']}")
        for key in ("absent_targets", "broken_counters", "worker_pids", "leftover_wrapped"):
            self.trace_info.setdefault(key, set()).update(trace[key])
        return o.wall_s, tracer.layer_metrics(trace, self.workers)


def run(workload, seed: int, seconds: float, trace: bool, pinned: dict | None) -> tuple[dict, dict]:
    """(detail, result) for one run; the work directory lives inside the checkout."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        r = Run(workload, seed, work, pinned)
        e2e, layers, detail = r.measure(seconds, trace)
        facts = workload.facts(r.workers)
        facts["table_bytes"] = r.table_bytes
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(tracer.LAYER_METRICS) if trace else E2E_UNITS
    chosen = layers if trace else {k: e2e[k] for k in RESULT_E2E}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in chosen.items() if v is not None}
    detail = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "machine": machine_facts(), "input": facts,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
        "absent": sorted(k for k, v in layers.items() if v is None),
        **detail,
    }
    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    return detail, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hrru" / "cli.py").is_file():
        print(f"error: no hrru source at {SRC / 'hrru'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    pinned = checks.load_pins().get(workload.name, {}).get(str(args.seed))
    detail, result = run(workload, args.seed, args.seconds, bool(args.trace), pinned)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
