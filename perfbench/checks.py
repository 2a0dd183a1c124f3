"""Correctness checks on one `hrru` invocation's output directory.

Three kinds of check, all outside the timed region:

- pinned sha256 digests of each table and of `report.json`'s `results`
  for the seeds in `pins.json` (the config echo is left out on purpose,
  since it is not experiment identity);
- for any seed, the per-rep values of a few sampled reps (`z_n`,
  `z_proxy`, and the other summaries the engine keeps) recomputed bit
  for bit from the readable scalar path (`run_trajectory` for one urn,
  `run_system` for a system) plus the engine's Kahan reduction;
- for any seed, internal consistency of the output: standardized
  statistics and KS distances recomputed from the table's own columns,
  the shared-factor test recomputed through the library, and the
  integer increment identity on every trajectory row.

`check` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).with_name("pins.json")

CLT_HEADER = ["rep", "z_n", "m_emp", "z_proxy", "v_n", "w_n", "u_n",
              "t_prop", "t_gap", "t_mean"]
SIM_HEADER = ["n", "N", "X", "R", "H", "S", "Z", "M"]
SAMPLED_REPS = 6
# argument order of estimators.variance_terms
VARIANCE_INPUTS = ("z", "m_emp", "reinf_mean", "reinf_sqmean", "draw_mean", "draw_recipmean")


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out_dir: Path, workload) -> dict[str, str]:
    """sha256 of each table and of the canonical `results` object."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    canon = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    out = {"results": _sha(canon.encode("utf-8"))}
    if workload.table:
        out[workload.table] = _sha((out_dir / workload.table).read_bytes())
    return out


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t") if lines else []
    cols = [list(c) for c in zip(*(ln.split("\t") for ln in lines[1:]))]
    return header, cols


def _floats(col: list[str]) -> np.ndarray:
    return np.array([float(x) for x in col], dtype=np.float64)


def scalar_snapshot(traj, h: int) -> dict[str, float]:
    """The engine's per-rep summaries at horizon h, from a scalar trajectory.

    Replays the engine's reduction: integer sums, and Kahan-compensated
    sums of X/N and 1/N in step order, so the result is bit-identical.
    """
    def kahan(xs):
        total = comp = 0.0
        for x in xs:
            y = x - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    n, x, r = traj.N[:h].tolist(), traj.X[:h].tolist(), traj.R[:h].tolist()
    return {
        "z": int(traj.H[h - 1]) / int(traj.S[h - 1]),
        "m_emp": kahan(xi / ni for xi, ni in zip(x, n)) / h,
        "s_over_n": int(traj.S[h - 1]) / h,
        "reinf_mean": sum(r) / h,
        "reinf_sqmean": sum(ri * ri for ri in r) / h,
        "draw_mean": sum(n) / h,
        "draw_recipmean": kahan(1.0 / ni for ni in n) / h,
    }


def _sample_reps(seed: int, reps: int) -> list[int]:
    rnd = random.Random(f"perfbench:{seed}")
    inner = rnd.sample(range(1, reps - 1), min(SAMPLED_REPS - 2, max(reps - 2, 0)))
    return sorted({0, reps - 1, *inner})


def check(out_dir: Path, workload, seed: int, config_text: str,
          pinned: dict[str, str] | None) -> list[str]:
    """Problems with the output of one invocation; [] when it is correct."""
    from hrru.cli import parse_config

    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        got = digests(out_dir, workload)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    problems = []
    if (report.get("tool"), report.get("kind"), report.get("seed")) != ("hrru", workload.kind, seed):
        problems.append(f"report header {report.get('tool')!r}/{report.get('kind')!r}/"
                        f"{report.get('seed')!r} is not hrru/{workload.kind}/{seed}")
    if pinned is not None:
        for name, digest in pinned.items():
            if got.get(name) != digest:
                problems.append(f"{name}: sha256 {got.get(name)} differs from pinned {digest}")
    cfg = parse_config(config_text, kind=workload.kind)
    runner = {"clt": _check_clt, "mtest": _check_mtest, "simulate": _check_simulate}
    try:
        problems += runner[workload.kind](out_dir, workload, seed, cfg, report["results"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _check_clt(out_dir, w, seed, cfg, results) -> list[str]:
    from hrru.estimators import normal_cdf, variance_terms
    from hrru.gof import ks_distance
    from hrru.urn_core import run_trajectory

    header, cols = _read_table(out_dir / w.table)
    if header != CLT_HEADER:
        return [f"{w.table}: header {header} is not {CLT_HEADER}"]
    if len(cols[0]) != w.reps or cols[0] != [str(r) for r in range(w.reps)]:
        return [f"{w.table}: rep column is not 0..{w.reps - 1}"]
    z, m, zp, v, ww, u, t_prop, t_gap, t_mean = (_floats(c) for c in cols[1:])
    problems = []
    rootn = math.sqrt(w.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = {"t_prop": rootn * (z - zp) / np.sqrt(v),
                "t_gap": rootn * (m - z) / np.sqrt(u),
                "t_mean": rootn * (m - zp) / np.sqrt(ww)}
    for name, got in (("t_prop", t_prop), ("t_gap", t_gap), ("t_mean", t_mean)):
        if not np.array_equal(got, want[name], equal_nan=True):
            problems.append(f"{w.table}: column {name} disagrees with its inputs")
    for key, stat, var in (("proportion", t_prop, v), ("gap", t_gap, u), ("mean", t_mean, ww)):
        inc = var > 0.0
        diag = results[key]
        if diag["reps"] != w.reps or diag["excluded"] != w.reps - int(np.count_nonzero(inc)):
            problems.append(f"results.{key}: reps/excluded do not match the table")
        if ks_distance(stat[inc], normal_cdf) != diag["ks_distance"]:
            problems.append(f"results.{key}.ks_distance disagrees with the table")
    for r in _sample_reps(seed, w.reps):
        traj = run_trajectory(cfg.urn, w.n_proxy, seed, rep=r)
        at_n = scalar_snapshot(traj, w.n)
        want = (at_n["z"], at_n["m_emp"], scalar_snapshot(traj, w.n_proxy)["z"],
                *variance_terms(*(at_n[f] for f in VARIANCE_INPUTS)))
        got = (z[r], m[r], zp[r], v[r], ww[r], u[r])
        if got != want:
            problems.append(f"rep {r}: (z_n, m_emp, z_proxy, v_n, w_n, u_n) = {got} but the "
                            f"scalar path gives {want}")
    return problems


def _check_mtest(out_dir, w, seed, cfg, results) -> list[str]:
    from hrru import montecarlo as mc
    from hrru.multi_urn import run_system

    problems = []
    if (results["target"], results["reference"], results["level"], results["reps"]) != (
            cfg.target, list(cfg.reference), cfg.level, w.reps):
        problems.append("results: target/reference/level/reps do not echo the config")
    if not 0 <= results["rejections"] <= results["applicable"] <= w.reps:
        problems.append("results: rejections <= applicable <= reps does not hold")
    # The test reads only horizon n, so simulate to n once: as the proxy
    # horizon of a plan with a tenth of the evaluation horizon.
    plan = mc.ReplicationPlan(config=cfg.system, reps=w.reps, n=w.n, n_proxy=w.n_proxy,
                              master_seed=seed)
    short = mc.replicate(mc.ReplicationPlan(config=cfg.system, reps=w.reps, n=w.n // 10,
                                            n_proxy=w.n, master_seed=seed))
    at_n = {lab: mc.UrnRecords(at_n=u.at_proxy, at_proxy=u.at_proxy)
            for lab, u in short.urns.items()}
    res = mc.mtest_rejection(plan, cfg.target, cfg.reference, cfg.level,
                             mc.RepRecords(plan=plan, urns=at_n))
    want = {"rejections": res.rejections, "applicable": res.applicable,
            "frequency": res.frequency}
    if {k: results[k] for k in want} != want:
        problems.append(f"results {({k: results[k] for k in want})} differ from the "
                        f"library's recomputation {want}")
    # The output holds no per-rep values, so the library's records stand in
    # for them against the scalar path: every field at horizon n for sampled
    # reps, and at both horizons for reps 0..k-1.
    head = mc.replicate(mc.ReplicationPlan(config=cfg.system, reps=SAMPLED_REPS, n=w.n,
                                           n_proxy=w.n_proxy, master_seed=seed))
    for r in sorted({*range(SAMPLED_REPS), *_sample_reps(seed, w.reps)}):
        straj = run_system(cfg.system, w.n_proxy if r < SAMPLED_REPS else w.n, seed, rep=r)
        for lab in cfg.system.labels:
            blocks = [(short.urns[lab].at_proxy, w.n)]
            if r < SAMPLED_REPS:
                blocks += [(head.urns[lab].at_n, w.n), (head.urns[lab].at_proxy, w.n_proxy)]
            for blk, h in blocks:
                want = scalar_snapshot(straj.urns[lab], h)
                if {f: getattr(blk, f)[r] for f in want} != want:
                    problems.append(f"rep {r} urn {lab}: horizon-{h} summaries disagree "
                                    f"with the scalar path")
    return problems


def _check_simulate(out_dir, w, seed, cfg, results) -> list[str]:
    from hrru.urn_core import StepRecord, increment_identity_check, run_trajectory

    header, cols = _read_table(out_dir / w.table)
    if header != SIM_HEADER:
        return [f"{w.table}: header {header} is not {SIM_HEADER}"]
    steps, nn, xx, rr, hh, ss = ([int(x) for x in c] for c in cols[:6])
    zz, mm = (_floats(c) for c in cols[6:])
    if steps != list(range(1, w.n + 1)):
        return [f"{w.table}: step column is not 1..{w.n}"]
    problems = []
    urn = cfg.urn
    h_prev, s_prev, xsum = urn.a, urn.a + urn.b, 0.0
    for t in range(w.n):
        rec = StepRecord(t=t, N=nn[t], X=xx[t], R=rr[t], H_after=hh[t], S_after=ss[t])
        xsum += xx[t] / nn[t]
        if not (1 <= nn[t] <= urn.draw.bound and 0 <= xx[t] <= nn[t]
                and 1 <= rr[t] <= urn.reinforce.bound
                and increment_identity_check(rec, h_prev, s_prev)
                and zz[t] == hh[t] / ss[t] and mm[t] == xsum / (t + 1)):
            problems.append(f"{w.table}: row {t + 1} breaks the step identities")
            break
        h_prev, s_prev = hh[t], ss[t]
    prefix = min(w.n, 2000)
    traj = run_trajectory(urn, prefix, seed)
    for name, col, ref in (("N", nn, traj.N), ("X", xx, traj.X), ("R", rr, traj.R),
                           ("H", hh, traj.H), ("S", ss, traj.S)):
        if col[:prefix] != ref.tolist():
            problems.append(f"{w.table}: column {name} differs from the scalar path")
    final = {"steps": w.n, "final_z": zz[-1], "final_m": mm[-1], "final_s": ss[-1]}
    if {k: results[k] for k in final} != final:
        problems.append("results: final values do not match the last table row")
    return problems
