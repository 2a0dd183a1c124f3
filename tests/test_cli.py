"""Config parsing, table and report emission, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hrru import engine
from hrru import montecarlo as mc
from hrru.cli import (
    _TABLE_BLOCK,
    KINDS,
    SHAPES,
    ExperimentConfig,
    Steps,
    Walk,
    _dataclass,
    _keys,
    _plan_for,
    build_parser,
    config_to_json_dict,
    main,
    parse_config,
    write_table,
)
from hrru.urn_core import ConfigError, ParameterError
from test_golden import CLI_CONFIGS

MINIMAL_SIM = {
    "urn": {
        "a": 2, "b": 3,
        "draw": {"policy": "iid-uniform", "high": 3},
        "reinforce": {"policy": "uniform-range", "low": 1, "high": 2},
    },
    "plan": {"n": 5, "seed": 1},
}


def _clt_config(out_dir, reps=20, n=30, n_proxy=300, seed=7, **extra):
    cfg = {
        "urn": {
            "a": 10, "b": 10,
            "draw": {"policy": "iid-uniform", "high": 4},
            "reinforce": {"policy": "uniform-range", "low": 1, "high": 3},
        },
        "plan": {"reps": reps, "n": n, "n_proxy": n_proxy, "seed": seed},
        "outputs": {"dir": str(out_dir)},
    }
    cfg.update(extra)
    return cfg


def test_parse_minimal_simulate():
    cfg = parse_config(json.dumps(MINIMAL_SIM), kind="simulate")
    assert cfg.kind == "simulate"
    assert cfg.urn is not None
    assert cfg.urn.a == 2 and cfg.urn.b == 3
    assert cfg.plan == Steps(n=5, seed=1)


def test_parse_collects_all_errors():
    broken = {
        "urn": {
            "a": 0, "b": "x",
            "draw": {"policy": "mystery"},
            "reinforce": {"policy": "constant", "value": 0},
        },
        "plan": {"reps": -2, "n": 10},
    }
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(broken), kind="clt")
    joined = "\n".join(ei.value.problems)
    assert "urn.a" in joined
    assert "urn.b" in joined
    assert "unknown draw policy" in joined
    assert "urn.reinforce" in joined
    assert "plan.reps" in joined
    assert "plan.seed" in joined
    assert len(ei.value.problems) >= 6


def test_parse_rejects_draw_bound_above_capacity():
    cfg = json.loads(json.dumps(MINIMAL_SIM))
    cfg["urn"]["draw"]["high"] = 6  # a + b = 5
    with pytest.raises(ConfigError, match="k <= a \\+ b"):
        parse_config(json.dumps(cfg), kind="simulate")


def test_parse_unknown_policy_lists_menu():
    cfg = json.loads(json.dumps(MINIMAL_SIM))
    cfg["urn"]["draw"] = {"policy": "lottery"}
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(cfg), kind="simulate")
    msg = str(ei.value)
    assert "constant-one" in msg and "absorbing-walk" in msg


def test_parse_reports_syntax_position():
    with pytest.raises(ConfigError) as ei:
        parse_config('{"urn": \n %', kind="simulate")
    assert "line 2" in str(ei.value)


def test_parse_kind_cross_check():
    cfg = dict(MINIMAL_SIM, kind="clt")
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config(json.dumps(cfg), kind="simulate")
    ok = parse_config(json.dumps(dict(MINIMAL_SIM, kind="simulate")), kind="simulate")
    assert ok.kind == "simulate"


def test_parse_mtest_requires_system_and_labels():
    cfg = {
        "urns": [
            {"label": "A", "a": 5, "b": 5, "draw_base": 1, "reinforce_base": 1},
            {"label": "B", "a": 5, "b": 5, "draw_base": 1, "reinforce_base": 1},
        ],
        "plan": {"reps": 3, "n": 10, "seed": 0},
        "target": "A",
        "reference": ["Q"],
    }
    with pytest.raises(ConfigError, match="no urn labeled 'Q'"):
        parse_config(json.dumps(cfg), kind="mtest")
    cfg["reference"] = ["B"]
    parsed = parse_config(json.dumps(cfg), kind="mtest")
    assert parsed.level == 0.05
    assert parsed.system is not None


def test_exit_code_2_on_duplicate_reference_labels(tmp_path, capsys):
    cfg = {
        "urns": [
            {"label": "A", "a": 5, "b": 5, "draw_base": 1, "reinforce_base": 1},
            {"label": "B", "a": 5, "b": 5, "draw_base": 1, "reinforce_base": 1},
        ],
        "plan": {"reps": 3, "n": 10, "n_proxy": 100, "seed": 0},
        "target": "A",
        "reference": ["B", "B"],
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mtest", "--config", str(cfg_path)]) == 2
    assert "reference: labels must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_exit_code_2_on_stray_coeffs(tmp_path, capsys):
    # A single urn's coverage reads no combination weights.
    cfg = _clt_config(tmp_path / "out", reps=4, n=5, n_proxy=50, coeffs={"zzz": 3.0})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["coverage", "--config", str(cfg_path)]) == 2
    assert "coeffs: applies to coverage on a multi-urn system only" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_stray_basis_is_rejected_and_a_read_basis_round_trips():
    # The echo writes basis only beside coeffs, so a basis nothing reads
    # could not survive the round trip; it is rejected instead.
    with pytest.raises(ConfigError, match="basis: applies to coverage"):
        parse_config(json.dumps(_clt_config("somewhere", basis="M")), kind="clt")
    cfg = parse_config(json.dumps(dict(_system_coverage_config("somewhere", {"A": 1}),
                                       basis="M")), kind="coverage")
    assert cfg.options.basis == "M"
    again = parse_config(json.dumps(config_to_json_dict(cfg)))
    assert again == cfg


def test_parse_hitting():
    cfg = {"walk": {"start": 3, "high": 6, "reps": 100, "seed": 4}}
    parsed = parse_config(json.dumps(cfg), kind="hitting")
    assert parsed.plan == Walk(start=3, high=6, reps=100, seed=4)
    bad = {"walk": {"start": 5, "high": 5, "reps": 10}}
    with pytest.raises(ConfigError, match="start <= high - 1"):
        parse_config(json.dumps(bad), kind="hitting")


def test_config_echo_round_trips():
    raw = json.dumps(_clt_config("somewhere", coeffs=None)).replace(', "coeffs": null', "")
    cfg = parse_config(raw, kind="clt")
    echo = config_to_json_dict(cfg)
    again = parse_config(json.dumps(echo))
    assert isinstance(again, ExperimentConfig)
    assert again == cfg
    assert config_to_json_dict(again) == echo


def test_simulate_echo_holds_only_the_plan_keys_simulate_reads():
    cfg = parse_config(json.dumps(MINIMAL_SIM), kind="simulate")
    echo = config_to_json_dict(cfg)
    assert echo["plan"] == {"n": 5, "seed": 1}
    assert parse_config(json.dumps(echo)) == cfg
    with pytest.raises(ConfigError, match=r"plan: required object \(n, seed\)"):
        parse_config(json.dumps({"urn": MINIMAL_SIM["urn"]}), kind="simulate")


def test_simulate_cli_outputs(tmp_path):
    cfg_path = tmp_path / "sim.json"
    cfg = dict(MINIMAL_SIM, outputs={"dir": str(tmp_path / "out")})
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(cfg_path)])
    assert rc == 0
    table = (tmp_path / "out" / "trajectory.tsv").read_text().splitlines()
    assert table[0].split("\t") == ["n", "N", "X", "R", "H", "S", "Z", "M"]
    assert len(table) == 6
    first = table[1].split("\t")
    assert first[0] == "1"
    # integer columns print as integers, proportions as floats
    assert all(c.isdigit() for c in first[:6])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tool"] == "hrru"
    assert report["kind"] == "simulate"
    assert report["seed"] == 1
    assert report["results"]["steps"] == 5


def test_simulate_trajectory_values_match_library(tmp_path):
    from hrru.urn_core import run_trajectory
    from hrru.cli import parse_config as pc

    cfg = dict(MINIMAL_SIM, outputs={"dir": str(tmp_path)})
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(tmp_path / "c.json")]) == 0
    rows = (tmp_path / "trajectory.tsv").read_text().splitlines()[1:]
    parsed = pc(json.dumps(cfg), kind="simulate")
    traj = run_trajectory(parsed.urn, 5, 1)
    for t, row in enumerate(rows):
        n, N, X, R, H, S, Z, M = row.split("\t")
        assert int(n) == t + 1
        assert int(N) == traj.N[t] and int(X) == traj.X[t]
        assert int(H) == traj.H[t] and int(S) == traj.S[t]
        assert float(Z) == traj.Z[t]
        assert float(M) == traj.M[t]


def test_clt_cli_report_and_exit(tmp_path):
    cfg_path = tmp_path / "clt.json"
    cfg_path.write_text(json.dumps(_clt_config(tmp_path / "out")))
    assert main(["clt", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    res = report["results"]
    assert set(res) >= {"proportion", "gap", "mean", "median_abs_gap"}
    assert res["proportion"]["reps"] == 20
    samples = (tmp_path / "out" / "samples.tsv").read_text().splitlines()
    assert len(samples) == 21
    assert samples[0].startswith("rep\tz_n\tm_emp")


def test_csv_table_format(tmp_path):
    cfg = dict(MINIMAL_SIM, outputs={"dir": str(tmp_path), "table_format": "csv"})
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(tmp_path / "c.json")]) == 0
    head = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert head == "n,N,X,R,H,S,Z,M"


def test_seed_and_outdir_overrides(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(MINIMAL_SIM))
    rc = main(["simulate", "--config", str(cfg_path),
               "--seed", "99", "--out-dir", str(tmp_path / "alt")])
    assert rc == 0
    report = json.loads((tmp_path / "alt" / "report.json").read_text())
    assert report["seed"] == 99
    assert report["config"]["plan"]["seed"] == 99


def test_rerun_from_echo_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_clt_config(tmp_path / "one")))
    assert main(["clt", "--config", str(cfg_path)]) == 0
    report1 = (tmp_path / "one" / "report.json").read_bytes()
    echo = json.loads(report1)["config"]
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo))
    assert main(["clt", "--config", str(echo_path),
                 "--out-dir", str(tmp_path / "two")]) == 0
    report2 = (tmp_path / "two" / "report.json").read_bytes()
    assert report1 == report2
    s1 = (tmp_path / "one" / "samples.tsv").read_bytes()
    s2 = (tmp_path / "two" / "samples.tsv").read_bytes()
    assert s1 == s2


def test_worker_count_does_not_change_bytes(tmp_path, cap_lanes):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_clt_config(tmp_path / "w1")))
    plan = _plan_for(parse_config(cfg_path.read_text(), kind="clt"))
    cap_lanes(plan, 8)
    assert len(mc._chunk_bounds(plan, 2)) > 1
    assert main(["clt", "--config", str(cfg_path), "--workers", "1"]) == 0
    assert main(["clt", "--config", str(cfg_path), "--workers", "2",
                 "--out-dir", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w1" / "report.json").read_bytes() == \
        (tmp_path / "w2" / "report.json").read_bytes()
    assert (tmp_path / "w1" / "samples.tsv").read_bytes() == \
        (tmp_path / "w2" / "samples.tsv").read_bytes()


def test_chunking_and_workers_leave_the_echo_and_bytes(tmp_path, cap_lanes):
    # Neither the lanes per chunk (forced through the engine's budget)
    # nor the worker count changes a byte of the report, its config echo
    # included, or of the samples table.
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_clt_config(tmp_path / "out")))
    plan = _plan_for(parse_config(cfg_path.read_text(), kind="clt"))
    outputs, chunks = set(), set()
    for lanes in (None, 1, 7, 4096):
        if lanes is not None:
            cap_lanes(plan, lanes)
        for workers in (1, 2):
            chunks.add(len(mc._chunk_bounds(plan, workers)))
            out = tmp_path / f"c{lanes}w{workers}"
            assert main(["clt", "--config", str(cfg_path), "--workers", str(workers),
                         "--out-dir", str(out)]) == 0
            outputs.add(((out / "report.json").read_bytes(), (out / "samples.tsv").read_bytes()))
    assert len(outputs) == 1
    assert min(chunks) == 1 and max(chunks) > 1


def _recorded_chunks(monkeypatch) -> list:
    # (rep_lo, rep_hi, horizons, labels) of every engine.run_chunk call
    # made in this process, as --workers 1 runs every chunk.
    calls = []
    run_chunk = engine.run_chunk

    def recording(config, master_seed, rep_lo, rep_hi, horizons, *, labels=None):
        calls.append((rep_lo, rep_hi, tuple(horizons), labels))
        return run_chunk(config, master_seed, rep_lo, rep_hi, horizons, labels=labels)

    monkeypatch.setattr(engine, "run_chunk", recording)
    return calls


def _limit_law_config(out_dir):
    cfg = _clt_config(out_dir)
    cfg["urn"].update(draw={"policy": "constant-one"},
                      reinforce={"policy": "constant", "value": 2})
    return cfg


@pytest.mark.parametrize("kind,make,horizons,labels", [
    ("mtest", lambda d: dict(_mtest_config(), outputs={"dir": str(d)}), (10,), ("A",)),
    ("clt", _clt_config, (30, 300), ("u0",)),
    ("coverage", lambda d: _clt_config(d, level=0.9), (30, 300), ("u0",)),
    ("coverage", lambda d: _system_coverage_config(d, {"A": 1.0, "B": -1.0}), (10, 100),
     ("A", "B")),
    ("coverage", lambda d: _system_coverage_config(d, {"B": 1.0}), (10, 100), ("B",)),
    ("limit-law", _limit_law_config, (30, 300), ("u0",)),
], ids=["mtest", "clt", "coverage-urn", "coverage-system", "coverage-system-subset",
        "limit-law"])
def test_each_kind_simulates_the_horizons_it_reads(tmp_path, monkeypatch, kind, make, horizons,
                                                   labels):
    # mtest reads horizon n and its target alone; a combination reads
    # the urns it weighs; the other kinds also read the proxy.
    calls = _recorded_chunks(monkeypatch)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(make(tmp_path / "out")))
    assert main([kind, "--config", str(cfg_path), "--workers", "1"]) == 0
    assert calls and {(h, labs) for _, _, h, labs in calls} == {(horizons, labels)}


def test_mtest_results_do_not_depend_on_n_proxy(tmp_path):
    # n_proxy is validated and echoed, and changes no result.
    results = set()
    for n_proxy in (100, 500, None):
        cfg = dict(_mtest_config(), outputs={"dir": str(tmp_path / f"p{n_proxy}")})
        if n_proxy is None:
            del cfg["plan"]["n_proxy"]
        else:
            cfg["plan"]["n_proxy"] = n_proxy
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["mtest", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / f"p{n_proxy}" / "report.json").read_text())
        assert report["config"]["plan"].get("n_proxy") == n_proxy
        results.add(json.dumps(report["results"], sort_keys=True))
    assert len(results) == 1


def test_mtest_bytes_hold_across_workers_and_chunks(tmp_path, monkeypatch, cap_lanes):
    # The golden mtest config, in one chunk and in chunks of 3 lanes
    # (forced through the engine's budget at the one horizon mtest
    # simulates), in this process and, with every plan worth a second
    # process, in a pool of two.
    calls = _recorded_chunks(monkeypatch)
    monkeypatch.setattr(mc, "_SHARE_LANE_STEPS", 1)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(CLI_CONFIGS["mtest"]))
    plan = _plan_for(parse_config(cfg_path.read_text(), kind="mtest"))
    reports, chunks = set(), []
    for lanes in (None, 3):
        if lanes is not None:
            cap_lanes(plan, lanes)
        for workers in (1, 2):
            calls.clear()
            out = tmp_path / f"c{lanes}w{workers}"
            assert main(["mtest", "--config", str(cfg_path), "--workers", str(workers),
                         "--out-dir", str(out)]) == 0
            reports.add((out / "report.json").read_bytes())
            if workers == 1:
                chunks.append(calls[:])
    assert len(reports) == 1
    assert [len(c) for c in chunks] == [1, 7]
    assert plan.horizons == (plan.n,)
    assert chunks[1][0] == (0, 2, (plan.n,), ("A",))
    assert len(mc._chunk_bounds(plan, 2)) == 8


def test_mtest_is_not_refused_for_a_horizon_it_never_simulates(tmp_path):
    # R up to 2**23 keeps the sum of R^2 within 2**53 for 100 steps but
    # not for the default proxy horizon of 5000, which mtest never runs;
    # clt simulates that horizon and is refused for it.
    cfg = {
        "urns": [{"label": lab, "a": 2**22, "b": 2**22, "draw_base": 1,
                  "reinforce_base": 2**23} for lab in ("A", "B")],
        "target": "A", "reference": ["B"],
        "plan": {"reps": 4, "n": 100, "seed": 1},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["mtest", "--config", str(tmp_path / "c.json")]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["results"]["reps"] == 4
    with pytest.raises(ConfigError, match="plan: worst-case sum of R\\^2 over 5000 steps"):
        parse_config(json.dumps(cfg), kind="coverage")


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"urn": {}, "plan": {}}')
    rc = main(["clt", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration errors" in err
    assert "urn.draw" in err


def _deep_nesting(out):
    # Far past any interpreter's JSON depth, and inside an object, so
    # that the top-level check cannot stand in for the syntax problem.
    return ("simulate", ('{"urn": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
            "syntax: arrays and objects nested too deeply")


def _not_utf8(out):
    text = json.dumps({**MINIMAL_SIM, "outputs": {"dir": str(out)}}).encode()
    return ("simulate", text[:10] + b"\xff" + text[10:],
            "encoding: not UTF-8: byte 0xff at offset 10")


def _surrogate_label(out):
    # json reads the escape as a lone surrogate, which UTF-8 cannot
    # encode, while the key tree hashes a label's UTF-8 bytes.
    cfg = json.loads(json.dumps(MINIMAL_SIM))
    cfg["urn"]["label"] = "\ud800"
    return ("simulate", json.dumps({**cfg, "outputs": {"dir": str(out)}}).encode(),
            "urn.label: must be UTF-8 encodable (no lone surrogate), got '\\ud800'")


def _surrogate_system_label(out):
    cfg = _mtest_config()
    cfg["urns"][1]["label"] = "B\udfff"
    cfg["reference"] = ["B\udfff"]
    return ("mtest", json.dumps({**cfg, "outputs": {"dir": str(out)}}).encode(),
            "urns[1].label: must be UTF-8 encodable (no lone surrogate), got 'B\\udfff'")


@pytest.mark.parametrize("make", [_deep_nesting, _not_utf8, _surrogate_label,
                                  _surrogate_system_label])
def test_exit_code_2_on_undecodable_or_unencodable_input(tmp_path, capsys, make):
    # Nesting past json's recursion limit, a file that is not UTF-8 and
    # a label the key tree cannot hash are configuration errors, found
    # before any output is made.
    kind, data, problem = make(tmp_path / "out")
    (tmp_path / "c.json").write_bytes(data)
    assert main([kind, "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    assert any(line.startswith(f"  - {problem}") for line in err[1:]), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["o\ud800", "o\0"], ids=["surrogate", "nul"])
def test_an_unencodable_output_directory_exits_2_before_any_run(tmp_path, capsys, name):
    # A lone surrogate or a NUL names no path the file system can hold:
    # it is a configuration error at outputs.dir, not a runtime error at
    # mkdir after the run.  A name from argv always encodes (undecodable
    # bytes arrive as surrogateescape), so --out-dir still names any
    # directory, and the report's path reaches even a strict stdout as
    # those bytes.
    cfg_path, bad = tmp_path / "c.json", str(tmp_path / name)
    cfg_path.write_text(json.dumps(dict(MINIMAL_SIM, outputs={"dir": bad})))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration errors:",
        "  - outputs.dir: must be a path the file system can encode (no lone surrogate or NUL), "
        f"got {bad!r}"]
    assert list(tmp_path.iterdir()) == [cfg_path]
    cfg_path.write_text(json.dumps(MINIMAL_SIM))
    out_dir = os.fsencode(tmp_path) + b"/o\xff"
    proc = subprocess.run(
        [sys.executable, "-m", "hrru.cli", "simulate", "--config", cfg_path, "--out-dir", out_dir],
        capture_output=True, env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out_dir + b"/report.json\n", b"")
    assert os.path.isfile(out_dir + b"/report.json")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_syntax_error_position_counts_every_line_end(tmp_path, capsys, newline):
    # The file's bytes are read with universal newlines, as read_text
    # reads them, so each line end starts a line.
    (tmp_path / "c.json").write_bytes(newline.join(['{', '"urn": {},', '"plan": }']).encode())
    assert main(["clt", "--config", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration errors:", "  - syntax: Expecting value at line 3, column 9"]


def test_exit_code_3_on_missing_file():
    rc = main(["clt", "--config", "/no/such/file.json"])
    assert rc == 3


def test_exit_code_2_on_bad_workers(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(MINIMAL_SIM))
    rc = main(["simulate", "--config", str(cfg_path), "--workers", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("value", ["0", "-5", "two", "1.5"])
def test_exit_code_2_on_bad_workers_env(tmp_path, monkeypatch, value):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(MINIMAL_SIM))
    monkeypatch.setenv("HRRU_WORKERS", value)
    rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "report.json").exists()


def test_failed_report_leaves_previous_report(tmp_path, monkeypatch):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL_SIM, outputs={"dir": str(tmp_path / "out")})))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    before = (tmp_path / "out" / "report.json").read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise RuntimeError("injected serialisation failure")

    monkeypatch.setattr(json, "dump", broken_dump)
    assert main(["simulate", "--config", str(cfg_path), "--seed", "99"]) == 3
    assert (tmp_path / "out" / "report.json").read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["report.json", "trajectory.tsv"]


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as ei:
        build_parser().parse_args([])
    assert ei.value.code == 2


def test_console_entry_point_runs(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg = dict(MINIMAL_SIM, outputs={"dir": str(tmp_path / "out")})
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "hrru.cli", "simulate", "--config", str(cfg_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("report.json")


def test_hitting_cli(tmp_path):
    cfg_path = tmp_path / "h.json"
    cfg_path.write_text(json.dumps(
        {"walk": {"start": 2, "high": 4, "reps": 500, "seed": 0},
         "outputs": {"dir": str(tmp_path)}}
    ))
    assert main(["hitting", "--config", str(cfg_path)]) == 0
    res = json.loads((tmp_path / "report.json").read_text())["results"]
    assert res["reps"] == 500
    assert res["absorbed_low"] + res["absorbed_high"] == 500
    assert res["expected"] == pytest.approx(2 / 3)


def _cell(x) -> str:
    # The per-cell rule the table bytes are pinned to.
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _table_by_cell(header, columns, sep) -> str:
    rows = len(columns[0]) if columns else 0
    lines = [sep.join(header)]
    lines += [sep.join(_cell(c[i]) for c in columns) for i in range(rows)]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               1.7976931348623157e308, 0.1]
I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("fmt,sep", [("tsv", "\t"), ("csv", ",")])
@pytest.mark.parametrize("rows", [len(EDGE_FLOATS), _TABLE_BLOCK + 3])
def test_write_table_matches_the_per_cell_rule(tmp_path, fmt, sep, rows):
    rs = np.random.default_rng(4)
    floats = rs.standard_normal(rows) * 10.0 ** rs.integers(-300, 300, rows)
    floats[:len(EDGE_FLOATS)] = EDGE_FLOATS
    ints = rs.integers(I64.min, I64.max, rows, endpoint=True)
    ints[:2] = I64.min, I64.max
    uints = rs.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
    uints[:2] = 0, 2**64 - 1
    columns = [np.arange(rows), floats, rs.random(rows) < 0.5, ints, uints]
    header = ["n", "x", "flag", "i64", "u64"]
    write_table(tmp_path / "t", header, columns, fmt)
    assert (tmp_path / "t").read_text(encoding="utf-8") == _table_by_cell(header, columns, sep)


@pytest.mark.parametrize("fmt,sep", [("tsv", "\t"), ("csv", ",")])
def test_write_table_header_only(tmp_path, fmt, sep):
    header = ["rep", "z"]
    write_table(tmp_path / "t", header, [], fmt)
    assert (tmp_path / "t").read_text(encoding="utf-8") == "rep" + sep + "z\n"
    write_table(tmp_path / "t", header, [np.arange(0), np.zeros(0)], fmt)
    assert (tmp_path / "t").read_text(encoding="utf-8") == "rep" + sep + "z\n"


def test_exit_code_2_on_counts_above_2_53(tmp_path, capsys):
    # The engine's float64 divisions would round these counts.
    cfg = _clt_config(tmp_path / "out", reps=4, n=5, n_proxy=50)
    cfg["urn"]["a"], cfg["urn"]["b"] = 2**53 + 1, 2**53 + 7
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["clt", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    assert any(p.startswith("  - plan: ") and "2**53" in p for p in err[1:])
    assert not (tmp_path / "out").exists()


def test_exit_code_2_on_reinforcement_square_overflow(tmp_path, capsys):
    # The int64 sum of R^2 would wrap: 1000 * (2**31)**2 = 2**72, while
    # the ball count stays near 2**41.
    cfg = _clt_config(tmp_path / "out", reps=4, n=100, n_proxy=1000)
    cfg["urn"]["draw"] = {"policy": "constant-one"}
    cfg["urn"]["reinforce"] = {"policy": "constant", "value": 2**31}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["clt", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    assert any(p.startswith("  - plan: ") and "R^2" in p for p in err[1:])
    assert not (tmp_path / "out").exists()


def _system_coverage_config(out_dir, coeffs):
    return {
        "urns": [
            {"label": "A", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
            {"label": "B", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
        ],
        "plan": {"reps": 8, "n": 10, "n_proxy": 100, "seed": 3},
        "coeffs": coeffs,
        "outputs": {"dir": str(out_dir)},
    }


def test_empty_system_label_exits_2_before_any_output(tmp_path, capsys):
    cfg = _system_coverage_config(tmp_path / "out", {"A": 1})
    cfg["urns"][0]["label"] = ""
    problem = "urns[0].label: must be a nonempty string, got ''"
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(cfg), kind="coverage")
    assert problem in ei.value.problems
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["coverage", "--config", str(tmp_path / "c.json")]) == 2
    assert f"  - {problem}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coeffs", [{"A": 0, "B": 0}, {"A": float("nan"), "B": 1}],
                         ids=["all-zero", "nan"])
def test_exit_code_2_on_degenerate_coefficients(tmp_path, capsys, coeffs):
    # Degenerate weights make an interval whose coverage means nothing.
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_system_coverage_config(tmp_path / "out", coeffs)))
    assert main(["coverage", "--config", str(cfg_path)]) == 2
    assert "coeffs: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_exit_code_2_on_nan_probabilities(tmp_path, capsys):
    # JSON admits the literal NaN, and the engine and the scalar path
    # would sample a NaN law differently.
    cfg = _clt_config(tmp_path / "out", reps=4, n=5, n_proxy=50)
    cfg["urn"]["draw"] = {"policy": "discrete", "values": [1, 2, 3],
                          "probs": [0.5, float("nan"), 0.5]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert "NaN" in cfg_path.read_text()
    assert main(["clt", "--config", str(cfg_path)]) == 2
    assert "urn.draw.probs: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    factor = _system_coverage_config(tmp_path, {"A": 1})
    factor["factors"] = {"draw": {"values": [0, 1], "probs": [float("nan"), 1.0]}}
    with pytest.raises(ConfigError, match="factors.draw.probs: must be finite"):
        parse_config(json.dumps(factor), kind="coverage")


HUGE = 10**400  # a JSON integer past the float range


def _huge_level(out):
    return "coverage", _clt_config(out, level=HUGE), "level"


def _huge_coeff(out):
    return "coverage", _system_coverage_config(out, {"A": HUGE, "B": -1}), "coeffs.A"


def _huge_draw_prob(out):
    cfg = _clt_config(out)
    cfg["urn"]["draw"] = {"policy": "discrete", "values": [1, 2], "probs": [0.5, HUGE]}
    return "clt", cfg, "urn.draw.probs[1]"


def _huge_reinforcement_prob(out):
    cfg = _clt_config(out)
    cfg["urn"]["reinforce"] = {"policy": "discrete", "values": [1, 2], "probs": [HUGE, 1]}
    return "clt", cfg, "urn.reinforce.probs[0]"


def _huge_factor_prob(out):
    cfg = _system_coverage_config(out, {"A": 1})
    cfg["factors"] = {"draw": {"values": [0, 1], "probs": [HUGE, 1]}}
    return "coverage", cfg, "factors.draw.probs[0]"


def _huge_draw_value(out):
    cfg = _clt_config(out)
    cfg["urn"]["draw"] = {"policy": "discrete", "values": [1, HUGE], "probs": [0.5, 0.5]}
    return "clt", cfg, "urn.draw.values[1]"


def _huge_reinforcement_value(out):
    cfg = _clt_config(out)
    cfg["urn"]["reinforce"] = {"policy": "discrete", "values": [HUGE, 2], "probs": [0.5, 0.5]}
    return "clt", cfg, "urn.reinforce.values[0]"


def _huge_factor_value(out):
    cfg = dict(_mtest_config(), outputs={"dir": str(out)})
    cfg["factors"] = {"reinforce": {"values": [0, HUGE], "probs": [0.5, 0.5]}}
    return "mtest", cfg, "factors.reinforce.values[1]"


def _huge_uniform_high(out):
    # simulate checks no 2**53 plan bound: the scaling would overflow
    cfg = dict(json.loads(json.dumps(MINIMAL_SIM)), outputs={"dir": str(out)})
    cfg["urn"]["reinforce"]["high"] = HUGE
    return "simulate", cfg, "urn.reinforce.high"


@pytest.mark.parametrize("make", [_huge_level, _huge_coeff, _huge_draw_prob,
                                  _huge_reinforcement_prob, _huge_factor_prob,
                                  _huge_draw_value, _huge_reinforcement_value,
                                  _huge_factor_value, _huge_uniform_high])
def test_exit_code_2_on_integers_past_the_float_range(tmp_path, capsys, make):
    # float() raises OverflowError on such an integer; it is a
    # configuration problem at its key path, whether the CLI refuses it
    # (a probability) or the law does (IntegerDistribution's values).
    kind, cfg, path = make(tmp_path / "out")
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main([kind, "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    assert f"  - {path}: integer is too large for a float" in err
    assert not (tmp_path / "out").exists()


def test_exit_code_2_on_integer_past_the_digit_limit(tmp_path, capsys):
    # Python refuses to parse an integer of more than 4300 digits; where
    # it has no such limit, the level is too large for a float.
    text = json.dumps(_clt_config(tmp_path / "out", level=0.5))
    (tmp_path / "c.json").write_text(text.replace("0.5", "1" + "0" * 5000))
    assert main(["coverage", "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    assert len(err) == 2 and (err[1].startswith("  - syntax: ") or "level" in err[1])
    assert not (tmp_path / "out").exists()


def test_top_level_error_paths_have_no_leading_dot():
    cfg = _system_coverage_config("somewhere", {"A": 1})
    cfg.update(level="high", basis="Q")
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(cfg), kind="coverage")
    problems = ei.value.problems
    assert any(p.startswith("level: must be a number") for p in problems)
    assert any(p.startswith("basis: must be 'Z' or 'M'") for p in problems)
    assert not any(p.startswith(".") for p in problems)


def _mtest_config():
    cfg = _system_coverage_config("somewhere", {"A": 1})
    del cfg["coeffs"]
    cfg.update(factors={"reinforce": {"values": [0, 1], "probs": [0.5, 0.5]}},
               level=0.05, target="A", reference=["B"])
    return cfg


def test_mtest_reports_every_broken_rule_as_the_library_states_it(tmp_path, capsys):
    # Four rules broken at once: the level, distinct references, a
    # target that names an urn, and the plan's n_proxy floor.
    cfg = dict(_mtest_config(), level=1.5, target="Q", reference=["B", "B"],
               outputs={"dir": str(tmp_path / "out")})
    cfg["plan"]["n_proxy"] = 50
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["mtest", "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    problems = [line.removeprefix("  - ") for line in err[1:]]
    keys = [p.split(":", 1)[0] for p in problems]
    assert sorted(keys) == ["level", "plan.n_proxy", "reference", "target"]
    assert "plan.n_proxy: must be an integer >= 10 n = 100, got 50" in problems
    assert not (tmp_path / "out").exists()
    valid = parse_config(json.dumps(_mtest_config()), kind="mtest")
    plan = _plan_for(valid)
    records = mc.replicate(plan, 1)
    with pytest.raises(ParameterError) as ei:
        mc.mtest_rejection(plan, "Q", ["B", "B"], 1.5, records)
    mtest_lines = [p for p, k in zip(problems, keys) if k in ("level", "target", "reference")]
    assert "; ".join(mtest_lines) == str(ei.value)


def _with(cfg, path, key):
    # cfg with a stray key added to the object at path (a key tuple)
    obj = cfg
    for step in path:
        obj = obj[step]
    obj[key] = 1
    return cfg


@pytest.mark.parametrize("kind,make,path,where", [
    ("clt", lambda: _clt_config("somewhere"), (), "stray"),
    ("clt", lambda: _clt_config("somewhere"), ("plan",), "plan.stray"),
    ("clt", lambda: _clt_config("somewhere"), ("outputs",), "outputs.stray"),
    ("clt", lambda: _clt_config("somewhere"), ("urn",), "urn.stray"),
    ("clt", lambda: _clt_config("somewhere"), ("urn", "draw"), "urn.draw.stray"),
    ("clt", lambda: _clt_config("somewhere"), ("urn", "reinforce"), "urn.reinforce.stray"),
    ("mtest", _mtest_config, ("urns", 1), "urns[1].stray"),
    ("mtest", _mtest_config, ("factors",), "factors.stray"),
    ("mtest", _mtest_config, ("factors", "reinforce"), "factors.reinforce.stray"),
    ("hitting", lambda: {"walk": {"start": 3, "high": 6, "reps": 10}}, ("walk",), "walk.stray"),
    # simulate runs one trajectory to n: a plan's reps and n_proxy mean nothing
    ("simulate", lambda: json.loads(json.dumps(MINIMAL_SIM)), ("plan",), "plan.reps"),
    ("simulate", lambda: json.loads(json.dumps(MINIMAL_SIM)), ("plan",), "plan.n_proxy"),
])
def test_unknown_fields_are_reported_at_every_level(kind, make, path, where):
    assert parse_config(json.dumps(make()), kind=kind).kind == kind
    key = where.rsplit(".", 1)[-1]
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(_with(make(), path, key)), kind=kind)
    assert ei.value.problems == [f"{where}: unknown field"]


_URNS = {"urns": _system_coverage_config("x", {})["urns"]}


@pytest.mark.parametrize("kind,make,key,problem", [
    ("clt", lambda: dict(_clt_config("x"), **_URNS), "urns",
     "clt experiments run on a single urn; use 'urn'"),
    ("mtest", lambda: dict(_mtest_config(), urn=MINIMAL_SIM["urn"]), "urn",
     "mtest experiments run on a multi-urn system; use 'urns'"),
    ("coverage", lambda: dict(_clt_config("x"), factors=_mtest_config()["factors"]), "factors",
     "applies to coverage on a multi-urn system only"),
    ("coverage", lambda: dict(_system_coverage_config("x", {"A": 1}), urn=MINIMAL_SIM["urn"]),
     "urn", "applies to coverage on a single urn only"),
    ("limit-law", lambda: dict(_clt_config("x"), factors=_mtest_config()["factors"]), "factors",
     "applies to coverage on a multi-urn system and mtest only"),
    ("mtest", lambda: dict(_mtest_config(), basis="Z"), "basis",
     "applies to coverage on a multi-urn system only"),
    ("hitting", lambda: {"walk": {"start": 3, "high": 6, "reps": 10}, **_URNS}, "urns",
     "unknown field"),
], ids=["clt-urns", "mtest-urn", "coverage-factors", "coverage-urn", "limit-law-factors",
        "mtest-basis", "hitting-urns"])
def test_a_key_of_another_shape_is_refused_with_where_it_applies(kind, make, key, problem):
    # The reason comes from the kinds' shapes (cli.SHAPES), not from a
    # branch per kind.
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(make()), kind=kind)
    assert f"{key}: {problem}" in ei.value.problems


def test_typos_and_keys_of_other_kinds_exit_2(tmp_path, capsys):
    # A misspelled n_proxy would otherwise run with the default 50 n.
    cfg = _clt_config(tmp_path / "out")
    cfg["plan"]["n_prox"] = cfg["plan"].pop("n_proxy")
    cfg["urn"]["draw"]["low"] = 2
    cfg.update(level=0.9, target="A", reference=["B"], walk={})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["clt", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    for where in ("plan.n_prox", "urn.draw.low", "level", "target", "reference", "walk"):
        assert f"  - {where}: unknown field" in err.splitlines()
    assert not (tmp_path / "out" / "report.json").exists()
    hitting = {"walk": {"start": 3, "high": 6, "reps": 10}, "plan": {"n": 5}}
    with pytest.raises(ConfigError, match="plan: unknown field"):
        parse_config(json.dumps(hitting), kind="hitting")


def _edit(cfg, path, value):
    # cfg with the value at path (a key tuple) set
    obj = cfg
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value
    return cfg


def _clt_with(path, value):
    return "clt", _edit(_clt_config("somewhere"), path, value)


def _mtest_with(path, value):
    return "mtest", _edit(_mtest_config(), path, value)


_AT_ONE = "must be an integer >= 1, got 0"
_TOO_LARGE = "integer is too large for a float"

# (kind, config, one problem its parse must report): each rule is the
# library's, reported at the key the config wrote, so a = 0 reads the
# same under "urn" and under "urns[1]".
KEYED_PROBLEMS = {
    "urn.a": (*_clt_with(("urn", "a"), 0), f"urn.a: {_AT_ONE}"),
    "urns[1].a": (*_mtest_with(("urns", 1, "a"), 0), f"urns[1].a: {_AT_ONE}"),
    "iid-uniform high": (*_clt_with(("urn", "draw", "high"), 0), f"urn.draw.high: {_AT_ONE}"),
    "uniform-range low": (*_clt_with(("urn", "reinforce", "low"), 0),
                          f"urn.reinforce.low: {_AT_ONE}"),
    "uniform-range high": (*_clt_with(("urn", "reinforce", "high"), 0),
                           "urn.reinforce.high: must be an integer >= low, got 0"),
    "constant value": (*_clt_with(("urn", "reinforce"), {"policy": "constant", "value": 0}),
                       f"urn.reinforce.value: {_AT_ONE}"),
    "walk start": (*_clt_with(("urn", "draw"), {"policy": "absorbing-walk", "start": 0,
                                                "high": 3}),
                   "urn.draw.start: must be an integer in [1, high], got 0"),
    "schedule values": (*_clt_with(("urn", "draw"), {"policy": "schedule", "values": [1, 0]}),
                        "urn.draw.values: draw sizes must be integers >= 1, got [0]"),
    "draw values[1]": (*_clt_with(("urn", "draw"), {"policy": "discrete", "values": [1, HUGE],
                                                    "probs": [0.5, 0.5]}),
                       f"urn.draw.values[1]: {_TOO_LARGE}"),
    "draw probs[1]": (*_clt_with(("urn", "draw"), {"policy": "discrete", "values": [1, 2],
                                                   "probs": [0.5, HUGE]}),
                      f"urn.draw.probs[1]: {_TOO_LARGE}"),
    "iid-uniform high past the float range": (*_clt_with(("urn", "draw", "high"), HUGE),
                                              f"urn.draw.high: {_TOO_LARGE}"),
    "factor values[1]": (*_mtest_with(("factors", "reinforce", "values"), [0, HUGE]),
                         f"factors.reinforce.values[1]: {_TOO_LARGE}"),
    "factor probs[1]": (*_mtest_with(("factors", "reinforce", "probs"), [0.5, HUGE]),
                        f"factors.reinforce.probs[1]: {_TOO_LARGE}"),
    "hitting start": ("hitting", {"walk": {"start": 1, "high": 6, "reps": 10}},
                      "walk.start: must satisfy 2 <= start <= high - 1, got start=1, high=6"),
    "hitting high": ("hitting", {"walk": {"start": 3, "high": "6", "reps": 10}},
                     "walk.high: must be an integer, got '6'"),
    "hitting reps": ("hitting", {"walk": {"start": 3, "high": 6, "reps": 0}},
                     f"walk.reps: {_AT_ONE}"),
    "plan reps": (*_clt_with(("plan", "reps"), 0), f"plan.reps: {_AT_ONE}"),
    "plan n": (*_clt_with(("plan", "n"), 0), f"plan.n: {_AT_ONE}"),
    "simulate n": ("simulate", _edit(json.loads(json.dumps(MINIMAL_SIM)), ("plan", "n"), 0),
                   f"plan.n: {_AT_ONE}"),
    "plan n_proxy": (*_clt_with(("plan", "n_proxy"), 299),
                     "plan.n_proxy: must be an integer >= 10 n = 300, got 299"),
    "urn k": (*_clt_with(("urn", "draw", "high"), 21),
              "urn: draw-size bound 21 exceeds a + b = 20; "
              "draws are without replacement so k <= a + b is required"),
    "system k": (*_mtest_with(("urns", 1, "draw_base"), 21),
                 "urns[1]: global bound k = 21 exceeds a + b = 20; "
                 "k <= a + b is required for every urn"),
}
_KEY_PATH = re.compile(r"[a-z_]+(\[\d+\])?(\.[a-z_]+(\[\d+\])?)*: ")


@pytest.mark.parametrize("kind,cfg,problem", KEYED_PROBLEMS.values(), ids=KEYED_PROBLEMS.keys())
def test_each_rule_is_reported_once_at_its_key_path(kind, cfg, problem):
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(cfg), kind=kind)
    assert problem in ei.value.problems
    assert all(_KEY_PATH.match(p) for p in ei.value.problems)
    path = problem.split(": ", 1)[0]
    assert [p for p in ei.value.problems if p.startswith(path + ": ")] == [problem]


def _overflowing_simulate(out_dir):
    # valid, but a reinforcement of 2**70 passes the ball capacity 2**62
    cfg = json.loads(json.dumps(MINIMAL_SIM))
    cfg["urn"]["reinforce"] = {"policy": "discrete", "values": [1, 2**70], "probs": [0.5, 0.5]}
    cfg["plan"]["n"] = 50
    cfg["outputs"] = {"dir": str(out_dir)}
    return cfg


def test_a_failed_run_makes_no_output_directory(tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps(_overflowing_simulate(tmp_path / "out" / "sub")))
    assert main(["simulate", "--config", str(tmp_path / "c.json")]) == 3
    assert "exceeds the supported capacity 2**62" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_repeated_key_is_refused_at_its_path_beside_every_other_problem(tmp_path, capsys):
    # json keeps the last value of a repeated key; the config is refused
    # instead, at each repeated key's path, before any output is made.
    out = json.dumps(str(tmp_path / "out"))
    text = ('{"urn": {"a": 3, "b": 0, "a": 9, "draw": {"policy": "constant-one"}, '
            '"reinforce": {"policy": "constant", "value": 1}}, '
            '"plan": {"n": 5, "seed": 1}, "plan": {"n": 7, "seed": 2}, '
            f'"outputs": {{"dir": {out}, "dir": {out}}}}}')
    (tmp_path / "c.json").write_text(text)
    assert main(["simulate", "--config", str(tmp_path / "c.json")]) == 2
    repeated = "repeated key; an object names each key once"
    assert capsys.readouterr().err.splitlines() == [
        "configuration errors:",
        f"  - plan: {repeated}",
        f"  - urn.a: {repeated}",
        f"  - outputs.dir: {repeated}",
        f"  - urn.b: {_AT_ONE}",
    ]
    assert not (tmp_path / "out").exists()
    system = dict(_mtest_config())
    text = json.dumps(system)[:-1] + ', "reference": ["B"]}'
    with pytest.raises(ConfigError) as ei:
        parse_config(text.replace('"label": "B",', '"label": "B", "a": 4,'), kind="mtest")
    assert ei.value.problems == [f"reference: {repeated}", f"urns[1].a: {repeated}"]


def test_a_failed_run_leaves_an_existing_directory_as_it_was(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    (tmp_path / "c.json").write_text(json.dumps(_overflowing_simulate(out)))
    assert main(["simulate", "--config", str(tmp_path / "c.json")]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


def test_a_system_urn_is_reported_beside_its_factor_problems(tmp_path, capsys):
    # Each urn checks its own fields, whether or not the factors parse.
    cfg = dict(_mtest_config(), outputs={"dir": str(tmp_path / "out")})
    cfg["urns"][1]["a"] = 0
    cfg["factors"]["reinforce"]["probs"] = [0.25, float("nan")]
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(cfg), kind="mtest")
    assert ei.value.problems == [
        f"urns[1].a: {_AT_ONE}",
        "factors.reinforce.probs: must be finite and nonnegative, got (0.25, nan)",
    ]
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["mtest", "--config", str(tmp_path / "c.json")]) == 2
    assert not (tmp_path / "out").exists()


def test_a_bad_kind_is_reported_once():
    # The key was given: it is not also "required".
    cfg = dict(MINIMAL_SIM, kind=["clt"])
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(cfg))
    assert [p for p in ei.value.problems if p.startswith("kind: ")] == [
        f"kind: must be one of {KINDS}, got ['clt']"]
    with pytest.raises(ConfigError, match=r"kind: required \(or pass a subcommand\)"):
        parse_config(json.dumps(MINIMAL_SIM))


_LAW = {"values": [0, 1], "probs": [0.5, 0.5]}
_DRAWS = [{"policy": "constant-one"}, {"policy": "schedule", "values": [1, 3, 2]},
          {"policy": "iid-uniform", "high": 3},
          {"policy": "discrete", "values": [1, 2], "probs": [0.25, 0.75]},
          {"policy": "absorbing-walk", "start": 2, "high": 4}]
_REINFORCEMENTS = [{"policy": "constant", "value": 2},
                   {"policy": "uniform-range", "low": 1, "high": 3},
                   {"policy": "discrete", "values": [1, 4], "probs": [0.5, 0.5]}]
# (kind, config) of each JSON policy, and of each shape of system factors
ECHO_CASES = {
    **{f"draw {d['policy']}": ("clt", {"urn": {"a": 6, "b": 5, "draw": d,
                                               "reinforce": _REINFORCEMENTS[0]},
                                       "plan": {"reps": 4, "n": 10, "seed": 2}})
       for d in _DRAWS},
    **{f"reinforce {r['policy']}": ("simulate", {"urn": {"a": 6, "b": 5, "label": "x",
                                                         "draw": _DRAWS[2], "reinforce": r},
                                                 "plan": {"n": 5, "seed": 1}})
       for r in _REINFORCEMENTS},
    **{f"factors {name}": ("mtest", dict(_mtest_config(), factors=factors))
       for name, factors in [("draw", {"draw": _LAW}), ("reinforce", {"reinforce": _LAW}),
                             ("both", {"draw": _LAW, "reinforce": _LAW})]},
    "factors none": ("mtest", {k: v for k, v in _mtest_config().items() if k != "factors"}),
}


@pytest.mark.parametrize("kind,raw", ECHO_CASES.values(), ids=ECHO_CASES.keys())
def test_every_config_object_echoes_to_an_equal_config(kind, raw):
    cfg = parse_config(json.dumps(raw), kind=kind)
    echo = config_to_json_dict(cfg)
    assert parse_config(json.dumps(echo)) == cfg
    if "urn" in raw:
        assert echo["urn"] == {"label": "u0", **raw["urn"]}
    else:
        assert (echo["urns"], echo.get("factors")) == (raw["urns"], raw.get("factors"))


def test_the_echo_writes_config_objects_in_field_order():
    # A policy's menu name first, then its fields; an urn's label (by
    # default "u0") after b; absent factors left out.
    urn = config_to_json_dict(parse_config(json.dumps(CLI_CONFIGS["clt"]), kind="clt"))
    assert json.dumps(urn) == json.dumps({
        "kind": "clt",
        "urn": {"a": 6, "b": 5, "label": "u0",
                "draw": {"policy": "absorbing-walk", "start": 3, "high": 5},
                "reinforce": {"policy": "uniform-range", "low": 1, "high": 3}},
        "plan": {"reps": 24, "n": 20, "seed": 5, "n_proxy": 200},
        "outputs": {"table_format": "tsv"},
    })
    raw = dict(_mtest_config(), factors={"draw": {"probs": [1.0], "values": [0]}})
    system = config_to_json_dict(parse_config(json.dumps(raw), kind="mtest"))
    assert json.dumps(system) == json.dumps({
        "kind": "mtest",
        "urns": [{"label": "A", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
                 {"label": "B", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1}],
        "factors": {"draw": {"values": [0], "probs": [1.0]}},
        "plan": {"reps": 8, "n": 10, "seed": 3, "n_proxy": 100},
        "level": 0.05, "target": "A", "reference": ["B"],
        "outputs": {"table_format": "tsv"},
    })


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


_CONSTANT_ONE = {"policy": "constant-one"}
_UNIT = {"policy": "constant", "value": 1}
# (config, the results that read null): a classical Polya urn, whose
# every rep has a zero gap and mean variance estimate, and an urn with
# almost no B balls, whose statistics have no spread.
NULL_REPORTS = {
    "polya": ({"urn": {"a": 1, "b": 100, "draw": _CONSTANT_ONE, "reinforce": _UNIT},
               "plan": {"reps": 16, "n": 5, "n_proxy": 50, "seed": 1}},
              ["gap.ks_distance", "mean.ks_distance"]),
    "no spread": ({"urn": {"a": 2**52, "b": 3, "draw": {"policy": "iid-uniform", "high": 2},
                           "reinforce": _UNIT},
                   "plan": {"reps": 64, "n": 20, "n_proxy": 400, "seed": 1}},
                  ["mean.ks_distance", "corr_gap_proportion"]),
}


@pytest.mark.parametrize("cfg,nulls", NULL_REPORTS.values(), ids=NULL_REPORTS.keys())
def test_a_statistic_over_no_reps_reports_null_in_strict_json(tmp_path, cfg, nulls):
    (tmp_path / "c.json").write_text(json.dumps(dict(cfg, outputs={"dir": str(tmp_path)})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["clt", "--config", str(tmp_path / "c.json"), "--workers", "1"]) == 0
    results = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse)["results"]
    for name in nulls:
        key, _, stat = name.partition(".")
        assert (results[key][stat] if stat else results[key]) is None, name
    assert results["proportion"]["ks_distance"] is not None


@pytest.mark.parametrize("walk", [{"start": 2**53 + 2, "high": 2**53 + 6, "reps": 3},
                                  {"start": 2**63, "high": 2**63 + 1, "reps": 3},
                                  {"start": 3, "high": 10**400, "reps": 3}],
                         ids=["past-2**53", "start", "high"])
def test_exit_code_2_on_a_walk_past_int64(tmp_path, capsys, walk):
    # past int64, and past 2**53, where the walk's float64 moves round
    (tmp_path / "c.json").write_text(json.dumps({"walk": walk,
                                                 "outputs": {"dir": str(tmp_path / "out")}}))
    assert main(["hitting", "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration errors:"
    assert err[1:] == [f"  - walk.high: must be at most 2**53 (the walk's float64 state), "
                       f"got {walk['high']}"]
    assert not (tmp_path / "out").exists()
    # the walk's float64 state moves exactly up to the bound itself
    at_bound = {"walk": {"start": 2**53 - 2, "high": 2**53, "reps": 3},
                "outputs": {"dir": str(tmp_path / "out")}}
    (tmp_path / "c.json").write_text(json.dumps(at_bound))
    assert main(["hitting", "--config", str(tmp_path / "c.json")]) == 0


def test_the_readme_schema_block_is_the_table():
    # The README's config schema holds every key the kinds' sections read,
    # and no other, at the top level and in plan, walk and outputs.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    schema = json.loads(re.sub(r"//.*", "", block))
    shapes = [shape for kind_shapes in SHAPES.values() for shape in kind_shapes]
    assert set(schema) == {"kind", *(key for shape in shapes for key in _keys(shape))}
    for key in ("plan", "walk", "outputs"):
        assert set(schema[key]) == {f.name for shape in shapes for k, cls in shape.values()
                                    if k == key for f in dataclasses.fields(_dataclass(cls))}
