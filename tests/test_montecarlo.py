"""Replication harness: determinism, reductions, and statistics."""

import json
import math
import os
import re
import statistics
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import numpy as np
import pytest

from hrru import montecarlo as mc
from hrru.gof import ks_two_sample, ks_two_sample_threshold
from hrru.multi_urn import CommonFactors, UrnSpec, UrnSystem, run_system
from hrru.urn_core import (
    ConstantOne,
    ConstantReinforcement,
    DiscreteDraw,
    IidUniform,
    IntegerDistribution,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    run_trajectory,
)

UNIFORM3 = IntegerDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))


def _cfg():
    return UrnConfig(a=10, b=10, draw=IidUniform(4),
                     reinforce=UniformReinforcement(1, 3))


def _plan(reps=30, n=50, n_proxy=500, seed=0, config=None, horizons=None, labels=None):
    return mc.ReplicationPlan(config=config or _cfg(), reps=reps, n=n, n_proxy=n_proxy,
                              master_seed=seed, horizons=horizons, labels=labels)


def test_plan_validation():
    with pytest.raises(ParameterError):
        _plan(reps=0)
    with pytest.raises(ParameterError):
        _plan(n=0)
    with pytest.raises(ParameterError, match=">= 10 n"):
        _plan(n=100, n_proxy=500)
    plan = _plan(n_proxy=None)
    assert plan.proxy_horizon == 50 * plan.n
    assert plan.horizons == (plan.n, plan.proxy_horizon)
    # every urn by default; the urns named, in the config's order
    assert plan.labels == ("u0",)
    assert _plan(config=SYSTEM3).labels == ("A", "B", "C")
    assert _plan(config=SYSTEM3, labels=["C", "A"]).labels == ("A", "C")


@pytest.mark.parametrize("horizons", [(), (10,), (50, 50), (50, 40), (0, 50), (50.0,),
                                      [True, 50], 50], ids=repr)
def test_plan_horizons_are_increasing_integers_holding_n(horizons):
    with pytest.raises(ParameterError, match="horizons must"):
        _plan(horizons=horizons)


def test_plan_checks_2_53_at_its_last_horizon():
    # Two urns of 2**22 balls reinforced by up to 2**23: 100 steps stay
    # within 2**53, the default proxy horizon of 5000 does not.  A plan
    # that simulates n alone is not refused for a horizon it never runs.
    system = UrnSystem(urns=(UrnSpec("A", 2**22, 2**22, 1, 2**23),
                             UrnSpec("B", 2**22, 2**22, 1, 2**23)))
    with pytest.raises(ParameterError, match="over 5000 steps exceeds 2\\*\\*53"):
        _plan(reps=4, n=100, n_proxy=None, config=system)
    plan = _plan(reps=4, n=100, n_proxy=None, config=system, horizons=(100,))
    mc.engine.check_int64_range(system, 100)
    rec = mc.replicate(plan, workers=1)
    assert [tuple(u.blocks) for u in rec.urns.values()] == [(100,), (100,)]
    assert mc.mtest_rejection(plan, "A", ["B"], 0.05, rec).reps == 4


def test_plan_rejects_reinforcement_square_overflow():
    # 1000 steps of R = 2**31 keep the ball count near 2**41 but would
    # wrap the engine's int64 sum of R^2 (2**72).
    cfg = UrnConfig(10, 10, ConstantOne(), ConstantReinforcement(2**31))
    with pytest.raises(ParameterError, match="R\\^2"):
        _plan(reps=2, n=100, n_proxy=1000, config=cfg)


def test_plan_rejects_counts_above_2_53():
    cfg = UrnConfig(2**53 + 1, 2**53 + 7, IidUniform(3), ConstantReinforcement(1))
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        _plan(reps=64, n=5, n_proxy=50, config=cfg)


def test_single_rep_reduces_to_run_trajectory():
    plan = _plan(reps=1, n=40, n_proxy=400, seed=13)
    rec = mc.replicate(plan)
    traj = run_trajectory(_cfg(), 400, 13, rep=0)
    blk_n = rec.single.at_n
    blk_p = rec.single.at_proxy
    # integer-derived fields match exactly
    assert blk_n.z[0] == traj.Z[39]
    assert blk_p.z[0] == traj.Z[399]
    assert blk_n.reinf_mean[0] == np.sum(traj.R[:40]) / 40
    assert blk_n.draw_mean[0] == np.sum(traj.N[:40]) / 40
    assert blk_p.s_over_n[0] == traj.S[399] / 400
    # compensated running means agree with plain ones to rounding
    assert blk_n.m_emp[0] == pytest.approx(traj.M[39], rel=1e-12)
    assert blk_p.m_emp[0] == pytest.approx(traj.M[399], rel=1e-12)
    eta = np.sum(1.0 / traj.N[:40]) / 40
    assert blk_n.draw_recipmean[0] == pytest.approx(eta, rel=1e-12)


def test_chunk_size_does_not_change_results(cap_lanes):
    plan = _plan()
    assert len(mc._chunk_bounds(plan, 1)) == 1
    base = mc.replicate(plan, workers=1)
    for lanes in (1, 7, 8, 29):
        cap_lanes(plan, lanes)
        assert len(mc._chunk_bounds(plan, 1)) > 1
        other = mc.replicate(plan, workers=1)
        for fld in ("z", "m_emp", "reinf_mean", "draw_recipmean"):
            assert np.array_equal(
                getattr(base.single.at_n, fld), getattr(other.single.at_n, fld)
            ), (lanes, fld)


def test_worker_count_does_not_change_results(cap_lanes):
    plan = _plan()
    cap_lanes(plan, 8)
    assert len(mc._chunk_bounds(plan, 3)) > 1
    one = mc.replicate(plan, workers=1)
    three = mc.replicate(plan, workers=3)
    for fld in mc.engine.SNAPSHOT_FIELDS:
        assert np.array_equal(
            getattr(one.single.at_n, fld), getattr(three.single.at_n, fld)
        )
        assert np.array_equal(
            getattr(one.single.at_proxy, fld), getattr(three.single.at_proxy, fld)
        )


@pytest.fixture
def forks(monkeypatch):
    """The children each ``mc.replicate`` call forks, in call order:
    the real ``os.fork``, wrapped to count its calls."""
    counts, forked = [], []
    real_fork, real_replicate = os.fork, mc.replicate

    def fork():
        forked.append(1)
        return real_fork()

    def replicate(*args, **kwargs):
        before = len(forked)
        try:
            return real_replicate(*args, **kwargs)
        finally:
            counts.append(len(forked) - before)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(mc, "replicate", replicate)
    return counts


def _no_child_left():
    # every child this process forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_children_are_clamped(monkeypatch, cap_lanes, forks):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    plan = _plan()
    cap_lanes(plan, 8)
    assert len(mc._chunk_bounds(plan, 3)) == 4
    base = mc.replicate(plan, workers=1)
    for workers in (10**6, 4, 2):
        assert mc.replicate(plan, workers=workers).single.at_n.z.tolist() == \
            base.single.at_n.z.tolist()
    # one chunk, or one usable worker, forks no child
    assert len(mc._chunk_bounds(_plan(reps=8), 3)) == 1
    mc.replicate(_plan(reps=8), workers=8)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
    mc.replicate(plan, workers=8)
    # this process runs one share: 3 workers fork 2 children
    assert forks == [0, 2, 2, 1, 0, 0]
    _no_child_left()


def _two_shares(monkeypatch, chunk):
    # a plan of two equal shares, with ``chunk`` standing in for the
    # engine's run_chunk in this process and its children
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mc, "_SHARE_LANE_STEPS", 1)
    monkeypatch.setattr(mc.engine, "run_chunk", chunk)
    plan = _plan()
    assert mc._chunk_bounds(plan, 2) == [(0, 15), (15, 30)]
    return plan


def test_a_childs_exception_is_raised_in_the_parent(monkeypatch):
    run_chunk = mc.engine.run_chunk

    def chunk(config, master_seed, rep_lo, *args, **kwargs):
        if rep_lo == 15:
            raise ParameterError(f"no chunk from rep {rep_lo} in process {os.getpid()}")
        return run_chunk(config, master_seed, rep_lo, *args, **kwargs)

    plan = _two_shares(monkeypatch, chunk)
    with pytest.raises(ParameterError, match="no chunk from rep 15 in process") as ei:
        mc.replicate(plan, workers=2)
    assert str(os.getpid()) not in str(ei.value)
    _no_child_left()


def test_a_child_that_ends_without_a_result_is_a_runtime_error(monkeypatch, tmp_path, capsys):
    from hrru.cli import main

    run_chunk = mc.engine.run_chunk

    def chunk(config, master_seed, rep_lo, *args, **kwargs):
        if rep_lo == 15:
            os._exit(1)
        return run_chunk(config, master_seed, rep_lo, *args, **kwargs)

    plan = _two_shares(monkeypatch, chunk)
    with pytest.raises(RuntimeError,
                       match=r"^worker process \d+ ended without a result \(exit status 1\)$"):
        mc.replicate(plan, workers=2)
    _no_child_left()
    cfg = {"urn": {"a": 10, "b": 10, "draw": {"policy": "iid-uniform", "high": 4},
                   "reinforce": {"policy": "uniform-range", "low": 1, "high": 3}},
           "plan": {"reps": 30, "n": 20, "n_proxy": 200, "seed": 1},
           "outputs": {"dir": str(tmp_path / "out")}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["clt", "--config", str(tmp_path / "c.json"), "--workers", "2"]) == 3
    assert re.fullmatch(r"runtime error: RuntimeError: worker process \d+ ended without a "
                        r"result \(exit status 1\)\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    _no_child_left()


def test_the_parents_exception_kills_and_reaps_the_children(monkeypatch):
    def chunk(config, master_seed, rep_lo, *args, **kwargs):
        if rep_lo == 0:
            raise ValueError("no share here")
        time.sleep(600)  # a child that would outlive replicate unless killed

    plan = _two_shares(monkeypatch, chunk)
    started = time.monotonic()
    with pytest.raises(ValueError, match="^no share here$"):
        mc.replicate(plan, workers=2)
    assert time.monotonic() - started < 60
    _no_child_left()


def test_replicate_takes_only_integer_workers():
    # int() would run 1.5 and True as one worker and "2" as two.
    plan = _plan(reps=2, n=5, n_proxy=50)
    for bad in (1.5, True, "2", 0):
        with pytest.raises(ParameterError, match="workers must be an integer >= 1"):
            mc.replicate(plan, bad)
    assert mc.replicate(plan, np.int64(1)).single.at_n.z.tolist() == \
        mc.replicate(plan, 1).single.at_n.z.tolist()


def test_cli_import_leaves_the_pool_module_out():
    # no module of the package imports a process pool
    code = "import sys, hrru.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_forked_workers_load_no_pool_module():
    # Two workers fork one child and load neither multiprocessing nor
    # concurrent.futures; signal is loaded only to kill a child left
    # running.  The child leaves without flushing this process's buffers,
    # so what was printed before the fork is printed once.
    code = """
        import json, os, sys
        from hrru import montecarlo as mc
        from hrru.urn_core import IidUniform, UniformReinforcement, UrnConfig
        mc._usable_cpus = lambda: 2
        mc._SHARE_LANE_STEPS = 1
        real_fork, forked = os.fork, []
        def fork():
            forked.append(1)
            return real_fork()
        os.fork = fork
        cfg = UrnConfig(10, 10, IidUniform(4), UniformReinforcement(1, 3))
        plan = mc.ReplicationPlan(config=cfg, reps=30, n=20, n_proxy=200)
        print("before the fork")
        one, two = mc.replicate(plan, workers=1), mc.replicate(plan, workers=2)
        print(json.dumps([len(forked), one.single.at_n.z.tolist() == two.single.at_n.z.tolist(),
                          [m for m in ("multiprocessing", "concurrent.futures", "signal")
                           if m in sys.modules]]))
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # a buffered stdout
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["before the fork", json.dumps([1, True, []])]


def _fresh(code: str, *args: str):
    # the JSON that ``code`` prints last, run in a fresh interpreter
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_simulate_loads_neither_the_engine_nor_montecarlo(tmp_path):
    # `import hrru` loads no submodule; `hrru simulate` loads only what
    # one trajectory needs.
    cfg = {"urn": {"a": 2, "b": 3, "draw": {"policy": "iid-uniform", "high": 2},
                   "reinforce": {"policy": "constant", "value": 1}},
           "plan": {"n": 20, "seed": 1}, "outputs": {"dir": str(tmp_path / "out")}}
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    code = """
        import json, sys
        import hrru
        after_import = [m for m in sys.modules if m.startswith("hrru.")]
        from hrru.cli import main
        assert main(["simulate", "--config", sys.argv[1]]) == 0
        heavy = ("hrru.montecarlo", "hrru.engine", "hrru.multi_urn", "hrru.estimators",
                 "hrru.gof", "concurrent.futures", "statistics")
        print(json.dumps([after_import, [m for m in heavy if m in sys.modules]]))
    """
    assert _fresh(code, str(tmp_path / "sim.json")) == [[], []]


def test_clt_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma on its first call; the median of the
    # clt report is taken without it.
    cfg = {"urn": {"a": 2, "b": 3, "draw": {"policy": "iid-uniform", "high": 2},
                   "reinforce": {"policy": "constant", "value": 1}},
           "plan": {"reps": 8, "n": 5, "seed": 1}, "outputs": {"dir": str(tmp_path / "out")}}
    (tmp_path / "clt.json").write_text(json.dumps(cfg))
    code = """
        import json, sys
        from hrru.cli import main
        assert main(["clt", "--config", sys.argv[1], "--workers", "1"]) == 0
        print(json.dumps("numpy.ma" in sys.modules))
    """
    assert _fresh(code, str(tmp_path / "clt.json")) is False


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 101, 1000])
def test_median_equals_numpys(size):
    # The clt report's median is statistics.median of the array's list.
    rs = np.random.default_rng(size)
    for x in (rs.standard_normal(size), rs.integers(0, 3, size).astype(float),
              rs.random(size) * 1e300):
        got = statistics.median(x.tolist())
        assert type(got) is float and got == np.median(x)


def test_package_exports_resolve_on_first_use():
    code = """
        import importlib, json
        import hrru
        names = {}
        exec("from hrru import *", names)
        seen = {"not_its_module": [
            n for n in hrru.__all__ if n != "__version__" and names.get(n) is not
            getattr(importlib.import_module("hrru." + hrru._MODULE_OF[n]), n)]}
        seen["not_in_dir"] = sorted(set(hrru.__all__) - set(dir(hrru)))
        try:
            hrru.no_such_name
        except AttributeError:
            seen["no_such_name"] = "AttributeError"
        from hrru import cli, montecarlo
        seen["submodules"] = [cli.__name__, montecarlo.__name__]
        seen["replicate"] = hrru.replicate is montecarlo.replicate
        print(json.dumps(seen))
    """
    assert _fresh(code) == {
        "not_its_module": [], "not_in_dir": [], "no_such_name": "AttributeError",
        "submodules": ["hrru.cli", "hrru.montecarlo"], "replicate": True,
    }


def test_default_workers_use_the_cpus(monkeypatch, tmp_path, forks):
    # replicate(plan), and the CLI with neither --workers nor
    # $HRRU_WORKERS, run one chunk per CPU.
    from hrru.cli import main

    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    monkeypatch.delenv("HRRU_WORKERS", raising=False)
    monkeypatch.setattr(mc, "_SHARE_LANE_STEPS", 1)
    plan = _plan()
    assert [hi - lo for lo, hi in mc._chunk_bounds(plan, 3)] == [10, 10, 10]
    assert mc.replicate(plan).single.at_n.z.tolist() == \
        mc.replicate(plan, workers=1).single.at_n.z.tolist()
    cfg = {"urn": {"a": 10, "b": 10, "draw": {"policy": "iid-uniform", "high": 4},
                   "reinforce": {"policy": "uniform-range", "low": 1, "high": 3}},
           "plan": {"reps": 30, "n": 20, "n_proxy": 200, "seed": 1},
           "outputs": {"dir": str(tmp_path)}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["clt", "--config", str(tmp_path / "c.json")]) == 0
    # three shares: this process runs one and forks two children
    assert forks == [2, 0, 2]
    _no_child_left()


def test_usable_cpus_follow_the_affinity_set(monkeypatch, tmp_path):
    monkeypatch.setattr(mc, "_CGROUP", tmp_path)  # no cgroup files: no quota
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert mc._usable_cpus() == 2
    monkeypatch.delattr(mc.os, "sched_getaffinity")
    assert mc._usable_cpus() == 64


@pytest.mark.parametrize("files,quota", [
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "100000 100000\n"}, 1),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "50000\n"}, None),   # no period file
    ({"cpu.max": "garbage\n"}, None),
    ({}, None),
], ids=["v2-1.5", "v2-1", "v2-max", "v1-2.5", "v1-none", "v1-unreadable", "v2-garbage",
        "no-cgroup"])
def test_usable_cpus_respect_the_cgroup_cpu_quota(monkeypatch, tmp_path, files, quota):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(mc, "_CGROUP", tmp_path)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert mc._cpu_quota() == quota
    assert mc._usable_cpus() == (4 if quota is None else quota)


def test_chunks_are_equal_shares_per_worker(cap_lanes):
    plan = _plan(reps=5000)
    assert mc._chunk_bounds(plan, 2) == [(0, 2500), (2500, 5000)]
    assert mc._chunk_bounds(plan, 1) == [(0, 5000)]
    # a plan too small to pay for a second process is one chunk
    assert mc._chunk_bounds(_plan(reps=5000, n=5, n_proxy=50), 2) == [(0, 5000)]
    # more workers than reps: one rep per chunk
    assert mc._chunk_bounds(_plan(reps=3, n=10**6, n_proxy=10**7), 8) == \
        [(0, 1), (1, 2), (2, 3)]
    # a share over the budget's lanes splits into equal chunks
    small = _plan(reps=30)
    cap_lanes(small, 8)
    assert mc._chunk_bounds(small, 2) == [(0, 7), (7, 15), (15, 22), (22, 30)]


def test_chunks_follow_the_horizons_simulated():
    # Shares and lanes are sized from the horizons a run simulates: to n
    # alone a chunk keeps one snapshot, so more lanes fit the budget,
    # and the plan has a tenth of its lane-steps.
    assert mc._chunk_bounds(_plan(reps=22000), 1) == [(0, 11000), (11000, 22000)]
    assert mc._chunk_bounds(_plan(reps=22000, horizons=(50,)), 1) == [(0, 22000)]
    assert mc._chunk_bounds(_plan(reps=5000), 2) == [(0, 2500), (2500, 5000)]
    assert mc._chunk_bounds(_plan(reps=5000, horizons=(50,)), 2) == [(0, 5000)]


def test_chunks_stay_within_the_workspace_budget():
    # A draw bound of 1000 makes every lane carry about 1000 uniform
    # rows, so the cap is far below the reference urn's.  Only the
    # bounds are computed; nothing is simulated.
    wide = UrnConfig(a=1000, b=1000, draw=DiscreteDraw((1, 1000), (0.99, 0.01)),
                     reinforce=UniformReinforcement(1, 3))
    cap = mc.engine.lane_cap(wide, 2)
    assert 1 <= cap < 4096 < mc.engine.lane_cap(_cfg(), 2)
    assert cap * mc.engine._Layout(wide).lane_bytes(2) <= mc.engine.WORKSPACE_BUDGET
    reps = 100 * cap + 1
    bounds = mc._chunk_bounds(_plan(reps=reps, n=10, n_proxy=100, config=wide), 2)
    sizes = [hi - lo for lo, hi in bounds]
    assert bounds[0][0] == 0 and bounds[-1][1] == reps
    assert all(b[1] == c[0] for b, c in zip(bounds, bounds[1:]))
    assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
    assert len(bounds) == 102


def test_different_seeds_give_fresh_but_comparable_samples():
    a = mc.replicate(_plan(seed=1, reps=300, n=50, n_proxy=500))
    b = mc.replicate(_plan(seed=2, reps=300, n=50, n_proxy=500))
    za, zb = a.single.at_n.z, b.single.at_n.z
    assert not np.array_equal(za, zb)
    # same law: two-sample distance below the alpha = 0.01 threshold
    assert ks_two_sample(za, zb) < ks_two_sample_threshold(0.01, 300, 300)


def test_take_prefix():
    rec = mc.replicate(_plan(reps=20))
    head = rec.take(5)
    assert len(head) == 5
    assert head.plan.reps == 5
    assert np.array_equal(head.single.at_n.z, rec.single.at_n.z[:5])
    with pytest.raises(ParameterError):
        rec.take(21)


def test_replicate_without_the_proxy_stops_at_n():
    full = mc.replicate(_plan(reps=20))
    assert full.single.at_proxy.horizon == full.plan.proxy_horizon == 500
    plan = _plan(reps=20, horizons=(50,))
    short = mc.replicate(plan)
    assert tuple(short.single.blocks) == (50,) and short.single.at_n.horizon == 50
    for fld in mc.engine.SNAPSHOT_FIELDS:
        assert np.array_equal(getattr(short.single.at_n, fld), getattr(full.single.at_n, fld))
    head = short.take(5)
    assert len(head) == 5 and head.plan.reps == 5 and tuple(head.single.blocks) == (50,)
    assert np.array_equal(head.single.at_n.z, full.single.at_n.z[:5])
    # a lookup of a horizon the records lack names it, and so does every
    # diagnostic that reads the proxy
    with pytest.raises(ParameterError, match="no block at horizon 500; they hold horizons "
                                             "\\(50,\\)"):
        _ = short.single.at_proxy
    with pytest.raises(ParameterError, match="no block at horizon 7;"):
        full.single.at(7)
    for diag in (mc.clt_check_zn, mc.clt_check_mn, mc.limit_law_suite,
                 lambda p, r: mc.coverage_experiment(p, 0.9, r),
                 lambda p, r: mc.linear_combination_coverage(p, {"u0": 1.0}, "Z", 0.9, r)):
        with pytest.raises(ParameterError, match="no block at horizon 500"):
            diag(plan, short)


def _assert_same_blocks(got: mc.RepRecords, want: mc.RepRecords, horizons):
    assert set(got.urns) == set(want.urns)
    for lab in want.urns:
        for h in horizons:
            for fld in mc.engine.SNAPSHOT_FIELDS:
                assert np.array_equal(getattr(got.urns[lab].at(h), fld),
                                      getattr(want.urns[lab].at(h), fld)), (lab, h, fld)


SYSTEM3 = UrnSystem(
    urns=(UrnSpec("A", 10, 10, 2, 1), UrnSpec("B", 8, 12, 1, 2), UrnSpec("C", 9, 9, 3, 1)),
    factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3),
)


@pytest.mark.parametrize("config", [_cfg(), SYSTEM3], ids=["urn", "system"])
def test_records_at_a_horizon_do_not_depend_on_the_others(config):
    # (k, n, m) records (n, m) bit for bit, and (k, n) records k as a
    # plan of k alone does: a snapshot reads its own steps only.
    k, n, m = 7, 20, 200
    pair = mc.replicate(_plan(reps=9, n=n, n_proxy=m, config=config), workers=1)
    triple = mc.replicate(_plan(reps=9, n=n, n_proxy=m, config=config, horizons=(k, n, m)),
                          workers=1)
    assert [tuple(u.blocks) for u in triple.urns.values()] == [(k, n, m)] * len(triple.urns)
    _assert_same_blocks(triple, pair, (n, m))
    alone = mc.replicate(_plan(reps=9, n=k, n_proxy=10 * k, config=config, horizons=(k,)),
                         workers=1)
    _assert_same_blocks(triple, alone, (k,))
    # the scalar twin reduces every horizon in one pass, to the same bits
    for r in (0, 8):
        trajs = ({"u0": run_trajectory(config, m, 0, r)} if isinstance(config, UrnConfig)
                 else run_system(config, m, 0, r).urns)
        for lab, traj in trajs.items():
            snaps = mc.engine.trajectory_snapshot(traj, (k, n, m))
            for h, snap in zip((k, n, m), snaps):
                assert snap == mc.engine.trajectory_snapshot(traj, (h,))[0]
                assert snap == {f: getattr(triple.urns[lab].at(h), f)[r]
                                for f in mc.engine.SNAPSHOT_FIELDS}


# mtest's shape: the target A's reinforcement base (2) lies between
# its references' (1 and 3).
BASES_2_1_3 = UrnSystem(
    urns=(UrnSpec("A", 10, 10, 2, 2), UrnSpec("B", 8, 12, 1, 1), UrnSpec("C", 9, 9, 3, 3)),
    factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3),
)


@pytest.mark.parametrize("labels,problem", [
    ((), "labels: must be a nonempty tuple of urn labels, got ()"),
    ("A", "labels: must be a nonempty tuple of urn labels, got 'A'"),
    (("A", 1), "labels: must be a nonempty tuple of urn labels, got ('A', 1)"),
    (("A", "B", "A"), "labels: must be distinct, got ('A', 'B', 'A')"),
    (("A", "Q"), "labels: no urn labeled 'Q'; labels are ('A', 'B', 'C')"),
], ids=["empty", "string", "not-a-string", "repeated", "not-an-urn"])
def test_plan_refuses_labels_that_name_no_urn_once(labels, problem):
    with pytest.raises(ParameterError) as ei:
        _plan(config=SYSTEM3, labels=labels)
    assert ei.value.problems == [problem]


def test_mtest_reads_the_target_urn_alone():
    # Each urn reinforces by its base plus the common factor, so a
    # reference's mean R is the target's shifted by the difference of
    # their bases: within one ulp of the simulated mean.  The records of
    # the target alone are the whole run's bits, and give the same counts.
    plan = _plan(reps=300, n=40, config=BASES_2_1_3, horizons=(40,), seed=5)
    whole = mc.replicate(plan, workers=1)
    target = whole.urns["A"].at_n
    for lab, shift in (("B", -1), ("C", 1)):
        simulated = whole.urns[lab].at_n.reinf_mean
        assert np.all(np.abs(target.reinf_mean + shift - simulated) <= np.spacing(simulated))
    alone_plan = replace(plan, labels=("A",))
    alone = mc.replicate(alone_plan, workers=1)
    assert tuple(alone.urns) == ("A",)
    _assert_same_blocks(alone, mc.RepRecords(plan, {"A": whole.urns["A"]}), (40,))
    for refs, level in ((("C", "B"), 0.05), (("C", "B"), 0.5), (("B",), 0.5), (("C",), 0.5)):
        got = mc.mtest_rejection(alone_plan, "A", refs, level, alone)
        assert got == mc.mtest_rejection(plan, "A", refs, level, whole)
        # and the counts of the references' simulated means
        _, applicable, reject = mc.mean_reinforcement(
            target, [whole.urns[lab].at_n.reinf_mean for lab in refs], level)
        assert (got.rejections, got.applicable) == (np.count_nonzero(reject),
                                                    np.count_nonzero(applicable))
    with pytest.raises(ParameterError, match="target: the plan does not simulate urn 'B'; "
                                             "it simulates \\('A',\\)"):
        mc.mtest_rejection(alone_plan, "B", ("A",), 0.05, alone)
    # B is an urn of the system, which the plan leaves out
    with pytest.raises(ParameterError, match="coeffs: the plan does not simulate urn 'B'; "
                                             "it simulates \\('A',\\)"):
        mc.linear_combination_coverage(alone_plan, {"B": 1.0}, "Z", 0.9, alone)


def test_rep_records_single_requires_one_urn():
    sys2 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1),
        ),
        factors=CommonFactors(reinforce=UNIFORM3),
    )
    rec = mc.replicate(_plan(config=sys2, reps=4))
    with pytest.raises(ParameterError):
        _ = rec.single
    assert set(rec.urns) == {"A", "B"}


def test_horizon_block_variances_match_estimators():
    from hrru.estimators import variance_terms

    rec = mc.replicate(_plan(reps=6))
    blk = rec.single.at_n
    v, w, u = blk.variances()
    v2, w2, u2 = variance_terms(blk.z, blk.m_emp, blk.reinf_mean,
                                blk.reinf_sqmean, blk.draw_mean,
                                blk.draw_recipmean)
    assert np.array_equal(v, v2) and np.array_equal(w, w2) and np.array_equal(u, u2)


def test_clt_checks_run_and_expose_masks():
    plan = _plan(reps=200, n=100, n_proxy=1000, seed=3)
    rec = mc.replicate(plan)
    zn = mc.clt_check_zn(plan, rec)
    assert zn.kind == "proportion"
    assert zn.reps == 200
    assert zn.excluded == 0
    assert len(zn.samples) == 200
    assert 0.0 <= zn.ks_distance <= 1.0
    assert zn.coverage is not None and 0.8 <= zn.coverage <= 1.0
    assert "proxy_max_ecdf_jump" in zn.aux

    mn = mc.clt_check_mn(plan, rec)
    assert mn.gap.kind == "gap" and mn.mean.kind == "mean"
    assert mn.gap.coverage is None
    assert mn.corr_gap_proportion is not None
    assert abs(mn.corr_gap_proportion) <= 1.0
    assert mn.median_abs_gap > 0.0
    assert mn.median_abs_gap == np.median(math.sqrt(plan.n) * np.abs(mn.stats.gap_mz))


def test_a_diagnostic_refuses_records_made_by_another_plan():
    # Each diagnostic reads n, reps, the proxy horizon and the config from
    # its plan: given another plan's records it would count 10 reps out of
    # 40, or scale records made at n = 50 by sqrt(40).
    system = UrnSystem(urns=(UrnSpec("A", 10, 10, 2, 1), UrnSpec("B", 10, 10, 2, 1)),
                       factors=CommonFactors(reinforce=UNIFORM3))
    cases = [
        (_plan(reps=40, seed=3), (
            mc.clt_check_zn, mc.clt_check_mn,
            lambda p, r: mc.coverage_experiment(p, 0.95, r), mc.limit_law_suite)),
        (_plan(reps=40, seed=3, config=system), (
            lambda p, r: mc.linear_combination_coverage(p, {"A": 1.0, "B": -1.0}, "Z", 0.95, r),
            lambda p, r: mc.mtest_rejection(p, "A", ("B",), 0.05, r))),
    ]
    for plan, diags in cases:
        rec = mc.replicate(plan, workers=1)
        head = rec.take(10)
        mismatched = [(plan, head, ["reps"]),
                      (replace(plan, n=40, horizons=None), rec, ["n", "horizons"]),
                      (replace(plan, master_seed=4), rec, ["master_seed"])]
        for diag in diags:
            for other, records, differ in mismatched:
                with pytest.raises(ParameterError) as ei:
                    diag(other, records)
                assert str(ei.value) == "; ".join(
                    f"{key}: differs from that of the plan that made these records"
                    for key in differ)
        scored = [diag(head.plan, head) for diag in diags]
        assert scored[0].reps == scored[-1].reps == 10


def test_clt_exclusions_are_counted_not_silent():
    # a = b with constant-one draws and constant reinforcement gives
    # strictly positive variance, so instead force exclusion via a
    # degenerate proxy: all mass at the boundary cannot happen here,
    # so craft records with one zero-variance rep by hand
    plan = _plan(reps=4, n=10, n_proxy=100)
    rec = mc.replicate(plan)
    blk = rec.single.at_n
    z = blk.z.copy()
    z[0] = 0.0  # variance term vanishes at the boundary
    doctored = mc.RepRecords(
        plan=plan,
        urns={
            "u0": mc.UrnRecords(
                at_n=mc.HorizonBlock(
                    horizon=blk.horizon, z=z, m_emp=blk.m_emp,
                    s_over_n=blk.s_over_n, reinf_mean=blk.reinf_mean,
                    reinf_sqmean=blk.reinf_sqmean, draw_mean=blk.draw_mean,
                    draw_recipmean=blk.draw_recipmean,
                ),
                at_proxy=rec.single.at_proxy,
            )
        },
    )
    zn = mc.clt_check_zn(plan, doctored)
    assert zn.excluded == 1
    assert len(zn.samples) == 3
    assert zn.reps == 4


def test_polya_limit_law_detection():
    cfg = UrnConfig(a=1, b=1, draw=ConstantOne(), reinforce=ConstantReinforcement(1))
    plan = _plan(config=cfg, reps=200, n=20, n_proxy=2000, seed=5)
    rec = mc.replicate(plan)
    rep = mc.limit_law_suite(plan, rec)
    assert rep.beta_params == (1.0, 1.0)
    # uniform limit: modest KS distance at 200 reps
    assert rep.beta_ks < 0.12
    assert rep.boundary_fraction == 0.0
    assert rep.max_ecdf_jump <= 0.03
    # S_n / n converges to m * mu = 1 exactly here
    assert rep.s_over_n_max_rel_err < 0.01


def test_limit_law_no_beta_for_general_config():
    plan = _plan(reps=10)
    rec = mc.replicate(plan)
    rep = mc.limit_law_suite(plan, rec)
    assert rep.beta_params is None
    assert rep.beta_ks is None
    assert rep.horizon == plan.proxy_horizon


def test_coverage_experiment_reports_both_bases():
    plan = _plan(reps=300, n=100, n_proxy=1000, seed=9)
    rec = mc.replicate(plan)
    cov = mc.coverage_experiment(plan, 0.95, rec)
    assert cov.level == 0.95
    assert cov.from_zn.basis == "from_Zn"
    assert cov.from_mn.basis == "from_Mn"
    for r in (cov.from_zn, cov.from_mn):
        assert r.reps == 300
        assert 0.85 <= r.coverage <= 1.0
        assert r.std_error == pytest.approx(
            math.sqrt(r.coverage * (1 - r.coverage) / r.reps)
        )
    # near-certain level: the interval almost always covers
    wide = mc.coverage_experiment(plan, 0.999999, rec)
    assert wide.from_zn.coverage >= 0.999
    with pytest.raises(ParameterError):
        mc.coverage_experiment(plan, 1.0, rec)


def test_linear_combination_coverage_runs():
    sys2 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1),
        ),
        factors=CommonFactors(reinforce=UNIFORM3),
    )
    plan = _plan(config=sys2, reps=200, n=100, n_proxy=1000, seed=4)
    rec = mc.replicate(plan)
    res = mc.linear_combination_coverage(plan, {"A": 1.0, "B": -1.0}, "Z", 0.95, rec)
    assert res.reps == 200
    assert 0.85 <= res.coverage <= 1.0
    with pytest.raises(ParameterError):
        mc.linear_combination_coverage(plan, {"A": 1.0, "nope": 1.0}, "Z", 0.95, rec)
    # all-zero or non-finite weights make an interval whose coverage means nothing
    for bad in ({"A": 0.0, "B": 0.0}, {"A": math.nan, "B": 1.0}, {"A": math.inf}):
        with pytest.raises(ParameterError, match="nonzero|finite"):
            mc.linear_combination_coverage(plan, bad, "Z", 0.95, rec)


def test_mtest_rejection_frequency_under_null():
    sys2 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1),
        ),
        factors=CommonFactors(reinforce=UNIFORM3),
    )
    plan = _plan(config=sys2, reps=400, n=200, n_proxy=2000, seed=6)
    rec = mc.replicate(plan)
    res = mc.mtest_rejection(plan, "A", ("B",), 0.05, rec)
    assert res.applicable == 400
    # under the null the rejection rate sits near the level
    assert 0.01 <= res.frequency <= 0.12
    with pytest.raises(ParameterError):
        mc.mtest_rejection(plan, "A", ("A",), 0.05, rec)
    with pytest.raises(ParameterError):
        mc.mtest_rejection(plan, "missing", ("B",), 0.05, rec)


def test_mtest_rejection_rejects_duplicate_references():
    # A repeated label would weigh that urn twice in the reference mean.
    sys3 = UrnSystem(
        urns=tuple(UrnSpec(label=lab, a=10, b=10, draw_base=2, reinforce_base=1)
                   for lab in "ABC"),
        factors=CommonFactors(reinforce=UNIFORM3),
    )
    plan = _plan(config=sys3, reps=4, n=10, n_proxy=100)
    rec = mc.replicate(plan)
    with pytest.raises(ParameterError, match="reference: labels must be distinct"):
        mc.mtest_rejection(plan, "A", ("B", "B"), 0.05, rec)
    assert mc.mtest_rejection(plan, "A", ("B", "C"), 0.05, rec).reference == ("B", "C")


def test_gap_rms_shrinks_like_root_n():
    # root-n consistency: the M - Z gap's RMS over replications drops
    # by about sqrt(10) when the horizon grows tenfold
    plan = _plan(reps=150, n=1000, n_proxy=10000, seed=12)
    rec = mc.replicate(plan)
    gap_small = rec.single.at_n.m_emp - rec.single.at_n.z
    gap_large = rec.single.at_proxy.m_emp - rec.single.at_proxy.z
    rms_small = float(np.sqrt(np.mean(gap_small**2)))
    rms_large = float(np.sqrt(np.mean(gap_large**2)))
    ratio = rms_small / rms_large
    assert math.sqrt(10.0) * 0.7 < ratio < math.sqrt(10.0) * 1.3


def test_walk_absorption_probability_exact_values():
    assert mc.walk_absorption_probability(2, 3) == pytest.approx(0.5)
    assert mc.walk_absorption_probability(2, 5) == pytest.approx(0.75)
    assert mc.walk_absorption_probability(4, 5) == pytest.approx(0.25)
    with pytest.raises(ParameterError):
        mc.walk_absorption_probability(1, 5)
    with pytest.raises(ParameterError):
        mc.walk_absorption_probability(2, 2)


def test_hitting_probability_check_small_case():
    # start 2 of high 3: absorbed low with probability 1/2
    reps = 4000
    est = mc.hitting_probability_check(2, 3, reps, master_seed=1)
    assert est.absorbed_low + est.absorbed_high == reps
    assert est.cap_hits == 0
    p = 0.5
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(est.estimate - p) < 4 * se


@pytest.mark.parametrize("start,high", [(2**53 + 2, 2**53 + 6), (2**63, 2**63 + 1),
                                        (3, 10**400)])
def test_a_walk_past_int64_is_refused(start, high):
    # The walk's state is float64, whose +/-1 moves are exact up to 2**53,
    # so a walk past int64 or past 2**53 alone is refused.
    with pytest.raises(ParameterError, match=r"^high: must be at most 2\*\*53 \(the walk's"):
        mc.hitting_probability_check(start, high, 4, master_seed=1)


def test_hitting_probability_respects_step_cap(monkeypatch):
    # a one-step cap leaves roughly half the walkers unabsorbed, and
    # those must be reported as cap hits, not dropped
    monkeypatch.setattr(mc, "_WALK_STEP_CAP", 1)
    est = mc.hitting_probability_check(2, 4, 50, master_seed=0)
    assert est.cap_hits > 0
    assert est.absorbed_low + est.absorbed_high + est.cap_hits == 50
