"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one ``criterion NN: PASS/FAIL`` line with the measured
quantity next to its tolerance, so a transcript of this module is the
acceptance report.  The expensive replication runs are shared through
module-scoped fixtures; every run is fully seeded, so these results are
reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from hrru import montecarlo as mc
from hrru import rng
from hrru.engine import SNAPSHOT_FIELDS, sample_hypergeometric_batch
from hrru.gof import boundary_fraction, ks_distance, max_ecdf_jump
from hrru.multi_urn import (
    CommonFactors,
    UrnSpec,
    UrnSystem,
    conditional_independence_stat,
    run_system,
)
from hrru.urn_core import (
    ConstantOne,
    ConstantReinforcement,
    IidUniform,
    IntegerDistribution,
    UniformReinforcement,
    UrnConfig,
    increment_identity_check,
    run_trajectory,
)

MASTER_SEED = 20260817

# i.i.d. uniform draws on {1..4}, uniform reinforcement on {1..3},
# balanced start: the reference single-urn configuration
REFERENCE_CONFIG = UrnConfig(
    a=10, b=10, draw=IidUniform(4), reinforce=UniformReinforcement(1, 3)
)

# two identical urns whose reinforcements share a common random shift
SHARED_FACTOR_SYSTEM = UrnSystem(
    urns=(
        UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
        UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1),
    ),
    factors=CommonFactors(
        reinforce=IntegerDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))
    ),
)

REPS = 5000
N_MAIN = 2000
N_PROXY = 100_000


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# The two heavy fixtures stop the plug-in sums at n, as the CLI's plans
# do: criteria 4-6, 8, 9 and 11 read no plug-in at the proxy.
@pytest.fixture(scope="module")
def reference_run():
    plan = mc.ReplicationPlan(
        config=REFERENCE_CONFIG, reps=REPS, n=N_MAIN, n_proxy=N_PROXY,
        master_seed=MASTER_SEED, plugins_to=N_MAIN,
    )
    t0 = time.perf_counter()
    records = mc.replicate(plan)
    elapsed = time.perf_counter() - t0
    return plan, records, elapsed


@pytest.fixture(scope="module")
def shared_factor_run():
    plan = mc.ReplicationPlan(
        config=SHARED_FACTOR_SYSTEM, reps=REPS, n=N_MAIN, n_proxy=N_PROXY,
        master_seed=MASTER_SEED + 1, plugins_to=N_MAIN,
    )
    return plan, mc.replicate(plan)


def test_criterion_01_sampler_chi_square():
    # exact pmf from binomial coefficients; 0.999 chi-square critical
    # values frozen after a one-time check against an independent table
    critical = {
        1: 10.827566170662733,
        2: 13.815510557964274,
        3: 16.26623619623813,
        5: 20.515005652432873,
        6: 22.457744484825323,
    }
    draws = 1_000_000
    t0 = time.perf_counter()
    worst = []
    for n_draw, total, marked in [(2, 4, 2), (5, 12, 7), (4, 9, 1), (3, 20, 10), (6, 15, 8)]:
        key = rng.derive_key(MASTER_SEED, "acceptance", "chi2", n_draw, total, marked)
        xs = sample_hypergeometric_batch(key, n_draw, total, marked, draws)
        lo = max(0, n_draw - (total - marked))
        hi = min(n_draw, marked)
        support = range(lo, hi + 1)
        pmf = np.array([
            math.comb(marked, x) * math.comb(total - marked, n_draw - x)
            / math.comb(total, n_draw)
            for x in support
        ])
        counts = np.bincount(xs - lo, minlength=len(pmf))
        expected = pmf * draws
        stat = float(np.sum((counts - expected) ** 2 / expected))
        df = len(pmf) - 1
        worst.append((stat, critical[df], (n_draw, total, marked)))
    elapsed = time.perf_counter() - t0
    ok = all(s < c for s, c, _ in worst) and elapsed < 10.0
    details = "; ".join(f"{trip}: chi2={s:.2f} < {c:.2f}" for s, c, trip in worst)
    _report(1, ok, f"{details}; runtime {elapsed:.1f}s < 10s")


def test_criterion_02_exact_increment_identity():
    total_steps = 100_000
    gen = np.random.default_rng(MASTER_SEED)
    failures = 0
    done = 0
    while done < total_steps:
        a = int(gen.integers(1, 40))
        b = int(gen.integers(1, 40))
        high = int(gen.integers(1, min(6, a + b) + 1))
        rhigh = int(gen.integers(1, 6))
        steps = int(gen.integers(1, 80))
        cfg = UrnConfig(a=a, b=b, draw=IidUniform(high),
                        reinforce=UniformReinforcement(1, rhigh))
        traj = run_trajectory(cfg, steps, int(gen.integers(0, 2**63)))
        h_prev, s_prev = a, a + b
        for t in range(steps):
            rec = traj.record(t)
            if not increment_identity_check(rec, h_prev, s_prev):
                failures += 1
            h_prev, s_prev = rec.H_after, rec.S_after
        done += steps
    _report(2, failures == 0, f"{done} fuzzed steps, {failures} identity failures")


def test_criterion_03_polya_uniform_limit():
    cfg = UrnConfig(a=1, b=1, draw=ConstantOne(), reinforce=ConstantReinforcement(1))
    plan = mc.ReplicationPlan(config=cfg, reps=2000, n=1000, n_proxy=10_000,
                              master_seed=MASTER_SEED)
    t0 = time.perf_counter()
    records = mc.replicate(plan)
    z = records.single.at_proxy.z
    d = ks_distance(z, lambda v: min(max(v, 0.0), 1.0))
    elapsed = time.perf_counter() - t0
    ok = d < 0.05 and elapsed < 30.0
    _report(3, ok, f"KS(Z_10000, Uniform) = {d:.4f} < 0.05; runtime {elapsed:.1f}s < 30s")


def test_criterion_04_ball_growth_matches_moments(reference_run):
    _, records, _ = reference_run
    blk = records.take(100).single.at_proxy
    target = blk.draw_mean * blk.reinf_mean
    rel = np.abs(blk.s_over_n - target) / target
    worst = float(np.max(rel))
    _report(4, bool(np.all(rel < 0.02)),
            f"max over 100 reps of |S_n/n - mu*m|/(mu*m) = {worst:.5f} < 0.02 at n=100000")


def test_criterion_05_proportion_clt(reference_run):
    plan, records, elapsed = reference_run
    diag = mc.clt_check_zn(plan, records)
    ok = diag.ks_distance < 0.03 and diag.excluded == 0 and elapsed < 300.0
    _report(5, ok,
            f"KS(T_prop, Phi) = {diag.ks_distance:.4f} < 0.03; excluded {diag.excluded}; "
            f"run {elapsed:.0f}s < 300s")


def test_criterion_06_mean_clt_and_joint(reference_run):
    plan, records, _ = reference_run
    diag = mc.clt_check_mn(plan, records)
    corr = abs(diag.corr_gap_proportion)
    ok = (diag.gap.ks_distance < 0.03 and corr < 0.05
          and diag.mean.ks_distance < 0.035)
    _report(6, ok,
            f"KS(T_gap) = {diag.gap.ks_distance:.4f} < 0.03; |corr(T1,T2)| = {corr:.4f} < 0.05; "
            f"KS(T_mean) = {diag.mean.ks_distance:.4f} < 0.035")


def test_criterion_07_degenerate_kernel():
    cfg = UrnConfig(a=10, b=10, draw=ConstantOne(), reinforce=ConstantReinforcement(2))
    plan = mc.ReplicationPlan(config=cfg, reps=1000, n=1000, n_proxy=10_000,
                              master_seed=MASTER_SEED)
    records = mc.replicate(plan)
    u_small = records.single.at_n.variances()[2]
    u_large = records.single.at_proxy.variances()[2]
    exact_zero = bool(np.all(u_small == 0.0) and np.all(u_large == 0.0))
    # and on a short exact trajectory at every intermediate n
    from hrru.estimators import trajectory_variances

    traj = run_trajectory(cfg, 12, MASTER_SEED)
    exact_zero = exact_zero and all(
        trajectory_variances(traj, n)[2] == 0.0 for n in range(1, 13)
    )
    gap_small = math.sqrt(1000) * np.abs(records.single.at_n.m_emp
                                         - records.single.at_n.z)
    gap_large = math.sqrt(10_000) * np.abs(records.single.at_proxy.m_emp
                                           - records.single.at_proxy.z)
    med_small = float(np.median(gap_small))
    med_large = float(np.median(gap_large))
    ok = exact_zero and med_large < med_small
    _report(7, ok,
            f"U_n == 0 exactly: {exact_zero}; median sqrt(n)|M-Z|: "
            f"{med_large:.5f} at n=10^4 < {med_small:.5f} at n=10^3")


def test_criterion_08_interval_coverage(reference_run):
    plan, records, _ = reference_run
    cov = mc.coverage_experiment(plan, 0.95, records)
    cz, cm = cov.from_zn.coverage, cov.from_mn.coverage
    ok = 0.930 <= cz <= 0.968 and 0.930 <= cm <= 0.968
    _report(8, ok,
            f"coverage from_Zn = {cz:.4f}, from_Mn = {cm:.4f}, both in [0.930, 0.968]")


def test_criterion_09_limit_has_no_atoms(reference_run):
    _, records, _ = reference_run
    z = records.single.at_proxy.z
    bf = boundary_fraction(z, tol=1e-6)
    jump = max_ecdf_jump(z)
    ok = bf == 0.0 and jump < 0.005
    _report(9, ok,
            f"boundary fraction = {bf}; max ECDF jump = {jump:.5f} < 0.005 over {len(z)} reps")


def test_criterion_10_walk_absorption():
    est = mc.hitting_probability_check(2, 5, 100_000, master_seed=MASTER_SEED)
    err = abs(est.estimate - 0.75)
    ok = err < 0.006 and est.cap_hits == 0
    _report(10, ok,
            f"hitting estimate {est.estimate:.5f} vs 3/4, |err| = {err:.5f} < 0.006")


def test_criterion_11_shared_factor_system(shared_factor_run):
    plan, records = shared_factor_run
    straj = run_system(SHARED_FACTOR_SYSTEM, 100_000, MASTER_SEED + 2)
    stat = conditional_independence_stat(straj, "A", "B")
    se_units = abs(stat.in_units_of_se)

    mt = mc.mtest_rejection(plan, "A", ("B",), 0.05, records)
    freq = mt.frequency

    cov = mc.linear_combination_coverage(plan, {"A": 1.0, "B": -1.0}, "Z", 0.95,
                                         records)
    ok = (se_units < 4.0 and 0.035 <= freq <= 0.065
          and 0.930 <= cov.coverage <= 0.968 and mt.applicable == plan.reps)
    _report(11, ok,
            f"cond-indep |stat|/SE = {se_units:.2f} < 4; H0 rejection freq = {freq:.4f} "
            f"in [0.035, 0.065]; difference coverage = {cov.coverage:.4f} in [0.930, 0.968]")


def test_criterion_12_worker_count_invariance(tmp_path, cap_lanes):
    # replication records: same plan, three worker counts, exact equality;
    # a budget of 256 lanes splits every run into chunks
    cfg = UrnConfig(a=1, b=1, draw=ConstantOne(), reinforce=ConstantReinforcement(1))
    plan = mc.ReplicationPlan(config=cfg, reps=2000, n=1000, n_proxy=10_000,
                              master_seed=MASTER_SEED)
    cap_lanes(plan, 256)
    assert len(mc._chunk_bounds(plan, 1)) > 1
    base = mc.replicate(plan, workers=1)
    arrays_equal = True
    for workers in (2, 3):
        other = mc.replicate(plan, workers=workers)
        for blk_a, blk_b in (
            (base.single.at_n, other.single.at_n),
            (base.single.at_proxy, other.single.at_proxy),
        ):
            for f in SNAPSHOT_FIELDS:
                if not np.array_equal(getattr(blk_a, f), getattr(blk_b, f)):
                    arrays_equal = False

    # emitted reports: byte identity through the command-line pipeline
    import json

    from hrru.cli import _plan_for, parse_config
    from hrru.cli import main as cli_main

    cfg_json = {
        "urn": {
            "a": 10, "b": 10,
            "draw": {"policy": "iid-uniform", "high": 4},
            "reinforce": {"policy": "uniform-range", "low": 1, "high": 3},
        },
        "plan": {"reps": 200, "n": 200, "n_proxy": 2000, "seed": MASTER_SEED},
        "outputs": {"dir": str(tmp_path / "w1")},
    }
    path = tmp_path / "clt.json"
    path.write_text(json.dumps(cfg_json))
    # 200 reps x 2000 steps run as one chunk unless the budget splits them
    cli_plan = _plan_for(parse_config(path.read_text(), kind="clt"))
    cap_lanes(cli_plan, 64)
    assert len(mc._chunk_bounds(cli_plan, 1)) > 1
    rc1 = cli_main(["clt", "--config", str(path), "--workers", "1"])
    rc2 = cli_main(["clt", "--config", str(path), "--workers", "4",
                    "--out-dir", str(tmp_path / "w4")])
    bytes_equal = (
        rc1 == 0 and rc2 == 0
        and (tmp_path / "w1" / "report.json").read_bytes()
        == (tmp_path / "w4" / "report.json").read_bytes()
        and (tmp_path / "w1" / "samples.tsv").read_bytes()
        == (tmp_path / "w4" / "samples.tsv").read_bytes()
    )
    ok = arrays_equal and bytes_equal
    _report(12, ok,
            f"records identical across workers 1/2/3: {arrays_equal}; "
            f"CLI report+samples byte-identical across workers 1/4: {bytes_equal}")
