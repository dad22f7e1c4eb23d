"""CLI tests: exit codes, artifact layout, idempotence, oracle suites.

Commands run in-process through main() with temp directories standing in
for the artifact store.
"""

import contextlib
import csv
import dataclasses
import errno
import functools
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corridor import cli
from corridor.cli import (
    _suite_centralized,
    _suite_kinematics,
    _suite_scheduler,
    _suite_trajectory,
    main,
)
from corridor.scheduler import Infeasible
from corridor.sim import POLICIES, SimConfig, generate_arrivals
from corridor.sim import run as run_sim
from corridor.trajectory import NoExitFound, PiecingDiverged

POISSON_CFG = {"arrival_mode": "poisson", "n_vehicles": 6, "seed": 3}


@pytest.fixture
def cfg_file(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def test_run_writes_artifacts(tmp_path, cfg_file, capsys):
    cfg = cfg_file("cfg.json", POISSON_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "schedules.json").exists()
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.json").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "vehicle,t,zone,p,v,u"
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_vehicles"] == 6
    assert metrics["config"]["seed"] == 3
    sched = json.loads((out / "schedules.json").read_text())
    assert len(sched["vehicles"]) == 6
    assert "avg travel time" in capsys.readouterr().out


def test_refuses_overwrite_without_force(tmp_path, cfg_file, capsys):
    cfg = cfg_file("cfg.json", POISSON_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["run", "--config", cfg, "--out", out]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", out, "--force"]) == 0


def test_malformed_config_exits_2(tmp_path, cfg_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o1")]) == 2
    assert "parse" in capsys.readouterr().err
    unknown = cfg_file("unknown.json", {"volume_vehh": 600.0})
    assert main(["run", "--config", unknown, "--out", str(tmp_path / "o2")]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "o3")]) == 2


def test_unsafe_headway_exits_3(tmp_path, cfg_file, capsys):
    cfg = cfg_file("h.json", {"headway": 0.3})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "unsafe headway" in err
    # diagnostic names the violating boundary speed pair
    assert "13" in err and "16" in err


@pytest.mark.parametrize("field", ["rear_end_dt", "fuel_dt", "trace_dt", "hold_dt", "vmerge_step"])
@pytest.mark.parametrize("value", [0, -0.1, 1e-300, 9e-4])
def test_non_positive_step_exits_2_without_artifacts(tmp_path, cfg_file, capsys, field, value):
    cfg = cfg_file("step.json", {**POISSON_CFG, field: value})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_unknown_path_exits_2_without_artifacts(tmp_path, cfg_file, capsys):
    cfg = cfg_file("paths.json", {"paths": [["EB", "through"], ["XX", "through"]]})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'XX'" in err and "'through'" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("data", [[], "", 3, None, [["volume_veh_h", 600.0]]])
def test_non_object_config_exits_2_without_artifacts(tmp_path, cfg_file, capsys, data):
    cfg = cfg_file("cfg.json", data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "JSON object" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "data",
    [
        {"n_vehicles": "30", "arrival_mode": "poisson"},
        {"headway": "1.5"},
        {"headway": True},
        {"node_budget": "x", "policy": "centralized"},
        {"max_holds": "a"},
        {"entry_speed_range": [13]},
        {"paths": [["EB"]]},
        {"fuel": {"cruise": [0.1569, 0.0245], "accel": [0.07224, 0.09681, 0.001075]}},
        {"headway": math.nan},
        {"gamma": math.nan},
        {"v_max": math.inf},
        {"poisson_rate": math.inf, "arrival_mode": "poisson"},
        {"fuel": {"cruise": [0.1569, 0.0245, -0.00071, math.inf], "accel": [0.07224, 0.09681, 0.001075]}},
        {"node_budget": -5, "policy": "centralized", "arrival_mode": "poisson", "n_vehicles": 8},
        {"max_holds": -1},
        {"arrival_mode": "poisson", "n_vehicles": 100000000, "poisson_rate": 1e-300},
        {"volume_veh_h": 600.0, "horizon": 1e12},
        {"headway": 10**400},
        {"seed": -1},
        {"link_length": 20.0},
        {"approach_length": 0.0},
    ],
)
def test_mistyped_config_exits_2_without_artifacts(tmp_path, cfg_file, capsys, data):
    cfg = cfg_file("cfg.json", data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "content",
    [None, b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["directory", "not-utf8", "too-deep"],
)
def test_unreadable_config_exits_2_without_artifacts(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is None:
        cfg.mkdir()  # a directory where the file should be
    else:
        cfg.write_bytes(content)  # not UTF-8 text
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, target, exc",
    [
        ("run", "run_sim", Infeasible),
        ("compare", "compare_policies", PiecingDiverged),
        ("sweep", "run_sim", NoExitFound),
    ],
)
def test_runtime_failure_exits_1_without_traceback(
    tmp_path, cfg_file, capsys, monkeypatch, command, target, exc
):
    def fail(*args, **kwargs):
        raise exc("zone 7: injected failure")

    monkeypatch.setattr(cli, target, fail)
    monkeypatch.setenv("CORRIDOR_THREADS", "1")  # keep sweep cells in-process
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file("cfg.json", POISSON_CFG), "--out", str(out)]
    if command == "sweep":
        argv += ["--volumes", "600", "--seeds", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: zone 7: injected failure\n"
    assert not out.exists() or not any(out.iterdir())


def test_scheduling_horizon_loads_and_is_echoed(tmp_path, cfg_file):
    cfg = cfg_file("cfg.json", {**POISSON_CFG, "scheduling_horizon": 900})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"]["scheduling_horizon"] == 900


def test_unknown_policy_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path / "out"), "--policy", "greedy"])
    assert exc.value.code == 2


def test_compare_writes_dominant_rows(tmp_path, cfg_file):
    cfg = cfg_file("cfg.json", {"arrival_mode": "poisson", "n_vehicles": 8, "seed": 1})
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("policy,n_vehicles,avg_travel_time")
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"decentralized", "centralized", "fifo"}
    c = float(rows["centralized"][2])
    d = float(rows["decentralized"][2])
    f = float(rows["fifo"][2])
    assert c <= d + 1e-6 <= f + 2e-6


def test_sweep_single_cell_equals_bare_run(tmp_path, cfg_file):
    cfg = cfg_file("cfg.json", {"horizon": 12.0, "seed": 2})
    run_out = tmp_path / "run"
    sweep_out = tmp_path / "sweep"
    assert main(["run", "--config", cfg, "--out", str(run_out)]) == 0
    assert main(
        ["sweep", "--config", cfg, "--out", str(sweep_out), "--volumes", "600", "--seeds", "1"]
    ) == 0
    metrics = json.loads((run_out / "metrics.json").read_text())
    row = (sweep_out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == 600.0
    assert float(row[1]) == metrics["n_vehicles"]
    assert float(row[2]) == pytest.approx(metrics["avg_travel_time"], rel=1e-8)


def test_sweep_empty_volume_list_is_usage_error(tmp_path, cfg_file):
    cfg = cfg_file("cfg.json", {"horizon": 8.0})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--volumes", ""]) == 2


def test_sweep_parallel_cells_match_serial(tmp_path, cfg_file, monkeypatch):
    cfg = cfg_file("cfg.json", {"horizon": 10.0, "seed": 4})
    args = ["sweep", "--config", cfg, "--volumes", "400,600", "--seeds", "1"]
    monkeypatch.setenv("CORRIDOR_THREADS", "1")
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("CORRIDOR_THREADS", "2")
    assert main(args + ["--out", str(tmp_path / "par")]) == 0
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    parallel = (tmp_path / "par" / "sweep.csv").read_bytes()
    assert serial == parallel


def test_bad_thread_cap_rejected(tmp_path, cfg_file, monkeypatch):
    cfg = cfg_file("cfg.json", {"horizon": 8.0})
    monkeypatch.setenv("CORRIDOR_THREADS", "many")
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--volumes", "400"])
    assert code == 2


def test_emit_network_layout(tmp_path):
    out = tmp_path / "net"
    assert main(["emit-network", "--out", str(out)]) == 0
    data = json.loads((out / "network.json").read_text())
    assert len(data["zones"]) == 22
    assert len(data["paths"]) == 30


def test_artifacts_are_byte_identical_across_runs(tmp_path, cfg_file):
    cfg = cfg_file("cfg.json", POISSON_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "schedules.json").read_bytes() == (b / "schedules.json").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_csv_numbers_carry_nine_significant_digits(tmp_path, cfg_file):
    cfg = cfg_file("cfg.json", {"arrival_mode": "poisson", "n_vehicles": 2, "seed": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for line in (out / "trajectory.csv").read_text().splitlines()[1:]:
        for tok in line.split(",")[3:]:
            assert format(float(tok), ".9g") == tok


def reference_csv(header: list[str], rows) -> bytes:
    """Reference renderer that `_write_csv` must match byte for byte:
    csv.writer, with each value formatted by its type."""

    def fmt(x) -> str:
        if x is None:
            return ""
        if isinstance(x, (str, bool)):
            return str(x)
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".9g")

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(x) for x in row])
    return buf.getvalue().encode()


TRAJECTORY_HEADER = ["vehicle", "t", "zone", "p", "v", "u"]


def test_csv_writer_matches_reference_on_edge_values(tmp_path):
    edges = [-0.0, 0.0, 5e-324, 1e-320, math.inf, -math.inf, math.nan, 1e300, 123456789.5, -2.5e-7]
    rows = [
        (k, edges[k], np.int64(11), edges[-1 - k], edges[(3 * k) % len(edges)], float(k) / 3.0)
        for k in range(len(edges))
    ]
    path = tmp_path / "edges.csv"
    cli._write_csv(str(path), cli.TRAJECTORY_CSV, rows)
    assert path.read_bytes() == reference_csv(TRAJECTORY_HEADER, rows)


def test_csv_artifacts_match_reference(tmp_path, cfg_file, monkeypatch):
    # every CSV a command writes holds the reference rendering of its rows
    written = {}
    write = cli._write_csv

    def spy(path, layout, rows):
        written[layout] = rows = list(rows)
        write(path, layout, rows)

    monkeypatch.setattr(cli, "_write_csv", spy)
    monkeypatch.setenv("CORRIDOR_THREADS", "1")
    cfg = cfg_file("cfg.json", POISSON_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    sweep = ["sweep", "--config", cfg, "--out", str(out), "--volumes", "400,800", "--seeds", "2"]
    assert main(sweep) == 0
    files = {
        cli.TRAJECTORY_CSV: ("trajectory.csv", TRAJECTORY_HEADER),
        cli.COMPARISON_CSV: (
            "comparison.csv",
            "policy,n_vehicles,avg_travel_time,median_travel_time,p90_travel_time,"
            "avg_fuel_l,holds,fallbacks,repairs,optimal".split(","),
        ),
        cli.SWEEP_CSV: ("sweep.csv", ["volume", "avg_vehicles", "avg_travel_time"]),
    }
    assert set(written) == set(files)
    for layout, (name, header) in files.items():
        assert written[layout]
        assert (out / name).read_bytes() == reference_csv(header, written[layout])
    # the decentralized and FIFO rows leave `optimal` empty
    optimal = [ln.rsplit(",", 1)[1] for ln in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert optimal[0] == "" and optimal[2] == "" and optimal[1] in ("True", "False")


# -- oracle suites (reduced sizes; the command itself runs the full ones) -----


def test_validate_suites_pass():
    rng = np.random.default_rng(0)
    assert _suite_kinematics(rng, n=300)[0] == "PASS"
    assert _suite_scheduler(rng, n=40)[0] == "PASS"
    assert _suite_centralized(rng, node_budget=4000, n=2)[0] == "PASS"
    assert _suite_trajectory(rng, n=150)[0] == "PASS"


def test_validate_reports_budget_skip():
    # seed 0's first draw needs real branching, so one node cannot prove it
    rng = np.random.default_rng(0)
    status, detail = _suite_centralized(rng, node_budget=1, n=1)
    assert status == "SKIP"
    assert "budget" in detail


def test_failed_write_leaves_earlier_artifacts_untouched(tmp_path, cfg_file, capsys, monkeypatch):
    cfg = cfg_file("cfg.json", POISSON_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    rows = cli.trajectory_csv_rows

    def fail_partway(result):
        for i, row in enumerate(rows(result)):
            if i == 50:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield row

    monkeypatch.setattr(cli, "trajectory_csv_rows", fail_partway)
    assert main(["run", "--config", cfg, "--out", str(out), "--force"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # schedules.json was written before the failure, but only to a temp file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    fresh = tmp_path / "fresh"
    assert main(["run", "--config", cfg, "--out", str(fresh)]) == 1
    assert list(fresh.iterdir()) == []
    # a rename that fails partway: trajectory.csv is now a directory
    monkeypatch.setattr(cli, "trajectory_csv_rows", rows)
    (out / "trajectory.csv").unlink()
    (out / "trajectory.csv").mkdir()
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--out", str(out), "--force"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    assert (out / "trajectory.csv").is_dir()
    assert (out / "metrics.json").read_bytes() == before["metrics.json"]


@functools.cache
def tiny_result():
    return run_sim(SimConfig(arrival_mode="poisson", n_vehicles=2, seed=1))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
CONFIG_FIELDS = st.sampled_from([f.name for f in dataclasses.fields(SimConfig)])
# values near the defaults reach the checks past the type tests
FIELD_VALUES = JSON_VALUES | st.integers(-2, 40) | st.floats(-1.0, 30.0) | st.sampled_from(["poisson", "fifo"])


@settings(max_examples=300, deadline=None)
@example(data={}, command="run")
@example(data={"headway": 0.5}, command="compare")
@example(data={"headway": 10**400}, command="run")
@given(
    data=JSON_VALUES | st.dictionaries(CONFIG_FIELDS, FIELD_VALUES, max_size=5),
    command=st.sampled_from(["run", "compare"]),
)
def test_any_json_config_gets_a_documented_exit(data, command):
    # no simulation runs: a config that validates has its arrivals drawn,
    # then gets a stored result
    results = {p: tiny_result() for p in POLICIES}

    def arrivals_then(result):
        def stub(cfg):
            generate_arrivals(cfg)
            return result

        return stub

    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(cli, "run_sim", arrivals_then(results["decentralized"])),
        mock.patch.object(cli, "compare_policies", arrivals_then(results)),
    ):
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(data, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert (code == 0) == (err.getvalue() == "")
