"""Self-test of the benchmark:  python3 perfbench/selftest.py

Runs in a few seconds, on tiny shapes of the workloads:

1. every metric that BENCHMARK.json names is emitted by name with its
   unit, untraced and traced, and the tiny runs are correct;
2. a deliberately corrupted output of every workload is caught;
3. no `hrru` function is left wrapped after a traced run, and a traced
   function that no longer exists makes its metrics absent instead of
   failing the run;
4. without the package source next to it, the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def test_metrics_emitted() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            detail, result = run.run(w.tiny(), SEED, 0, trace, None)
            assert result["correct"] and result["failed"] == 0, detail["problems"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w.name, section, set(want) ^ set(got))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            assert detail["end_to_end"]["failed_frac"]["value"] == 0.0
            assert {"nproc", "cpu_model", "l3", "python", "numpy"} <= set(detail["machine"])
            if trace:
                assert detail["trace_info"]["leftover_wrapped"] == []
                assert detail["absent"] == []


def _corrupt(out: Path, w) -> None:
    if w.kind == "mtest":
        path = out / "report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["results"]["rejections"] += 1
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        return
    path = out / w.table
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[1].split("\t")
    if w.kind == "clt":  # z_proxy of rep 0, moved by one ulp
        row[3] = format(math.nextafter(float(row[3]), 2.0), ".17g")
    else:  # X of step 1
        row[2] = str(int(row[2]) - 1 if int(row[2]) > 0 else 1)
    lines[1] = "\t".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corruption_caught() -> None:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for w in WORKLOADS.values():
            tiny = w.tiny()
            r = run.Run(tiny, SEED, work, None)
            out = work / w.name
            o = run.spawn([sys.executable, "-c", run.CLI] + r.cli_args(out), r.env,
                          work / f"{w.name}-log")
            assert o.code == 0
            assert checks.check(out, tiny, SEED, r.config_text, None) == []
            good = checks.digests(out, tiny)
            assert checks.check(out, tiny, SEED, r.config_text, good) == []
            _corrupt(out, tiny)
            assert checks.check(out, tiny, SEED, r.config_text, None), w.name
            assert checks.check(out, tiny, SEED, r.config_text, good), w.name
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_wrappers_removed_and_absent_targets() -> None:
    import importlib

    from hrru import montecarlo as mc
    from hrru.cli import parse_config

    originals = {(m, a): getattr(importlib.import_module(f"hrru.{m}"), a)
                 for _, m, a, _ in tracer.TARGETS}
    renamed = tuple((n, m, "_kahan_add_renamed" if a == "_kahan_add" else a, c)
                    for n, m, a, c in tracer.TARGETS)
    t = tracer.Tracer(targets=renamed)
    t.install()
    try:
        assert tracer.wrapped_leftovers()
        cfg = parse_config(WORKLOADS["clt-reference"].tiny().config_text(SEED), kind="clt")
        plan = mc.ReplicationPlan(config=cfg.urn, reps=64, n=10, n_proxy=100, master_seed=SEED)
        mc.clt_check_zn(plan, mc.replicate(plan))
    finally:
        t.uninstall()
    assert tracer.wrapped_leftovers() == []
    assert all(getattr(importlib.import_module(f"hrru.{m}"), a) is fn
               for (m, a), fn in originals.items())
    trace = t.collect()
    assert trace["absent_targets"] == ["engine._kahan_add_renamed"]
    layers = tracer.layer_metrics(trace, 1)
    assert layers["engine.kahan_s"] is None
    assert layers["engine.chunk_s"] > 0 and layers["engine.lane_steps"] == 64 * 100
    assert layers["rng.units_values"] == 64 * 100 * 6


def test_fails_without_source() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "clt-reference", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0 and done.stdout == "", (done.returncode, done.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [test_metrics_emitted, test_corruption_caught,
             test_wrappers_removed_and_absent_targets, test_fails_without_source]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
