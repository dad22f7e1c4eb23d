"""Command-line front end: run experiments, compare policies, sweep volumes.

Exit codes: 0 on success, 2 on a malformed config or usage error, 3 when the
configured headway fails the spacing rule, 1 on runtime failures (safety
violation, saturation, refused overwrite, an infeasible schedule, a zone
solve that diverged, a follower with no clean exit, a failed write).  Each
artifact goes to a temp file in the output directory, renamed into place
only once every artifact of the command is written, so a failed write
changes no artifact, and a command that exits with an error leaves no temp
file behind.  All emitted CSV numbers carry 9 significant digits so
regression diffs stay meaningful; given the same config and seed every
artifact is byte-identical, except the wall-clock solver timings inside
metrics.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .kinematics import (
    BoundaryState,
    InfeasibleBoundary,
    Limits,
    deadline,
    integrate_profile,
    release_time,
)
from .network import build_network, conflict_runs
from .scheduler import (
    CentralizedEntry,
    Infeasible,
    DisjunctiveBlock,
    DisjunctiveModel,
    ZoneBounds,
    build_instance,
    enumerate_exact,
    solve,
    solve_centralized,
    traversal_bounds,
)
from .sim import (
    POLICIES,
    ConfigError,
    SafetyViolation,
    Saturated,
    SimConfig,
    UnsafeHeadway,
    compare_policies,
    metrics_json,
    schedules_json,
    trajectory_csv_rows,
)
from .sim import run as run_sim
from .trajectory import NoExitFound, PiecingDiverged, ZoneBVP, solve_zone

DEFAULT_VOLUMES = (400.0, 600.0, 800.0, 1000.0, 1200.0)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (str, bool)):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except ValueError as e:  # malformed JSON, or bytes that are not text
        raise ConfigError(f"config parse error: {e}") from None
    except RecursionError:
        raise ConfigError(f"config parse error: {path} nests too deeply") from None


def _config_from(args) -> SimConfig:
    data = _load_json(args.config) if args.config else {}
    cfg = SimConfig.from_json(data)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "policy", None) is not None:
        cfg = replace(cfg, policy=args.policy)
    cfg.validate()
    return cfg


def _out_file(out_dir: str, name: str, force: bool) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    if os.path.exists(path) and not force:
        raise FileExistsError(f"refusing to overwrite {path} (pass --force)")
    return path


def _write_json(path: str, data) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_artifacts(*files) -> None:
    """Write a command's artifacts through temp files beside their targets.

    Each (path, write) pair writes into its own temp file, and the targets
    are replaced one by one only once every write has finished, so a failed
    write changes no artifact.  On any failure, a rename included, the temp
    files not yet renamed are removed.
    """
    tmps = []
    renamed = 0
    try:
        for path, write in files:
            head, name = os.path.split(path)
            tmps.append(os.path.join(head, f".{name}.{os.getpid()}.tmp"))
            write(tmps[-1])
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
            renamed += 1
    except BaseException:
        for tmp in tmps[renamed:]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def _threads(n_cells: int) -> int:
    raw = os.environ.get("CORRIDOR_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"CORRIDOR_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ConfigError("CORRIDOR_THREADS must be at least 1")
    return max(1, min(n_cells, cap))


# -- subcommands --------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _config_from(args)
    out_sched = _out_file(args.out, "schedules.json", args.force)
    out_traj = _out_file(args.out, "trajectory.csv", args.force)
    out_metrics = _out_file(args.out, "metrics.json", args.force)
    result = run_sim(cfg)
    traj_header = ["vehicle", "t", "zone", "p", "v", "u"]
    _write_artifacts(
        (out_sched, lambda path: _write_json(path, schedules_json(result))),
        (out_traj, lambda path: _write_csv(path, traj_header, trajectory_csv_rows(result))),
        (out_metrics, lambda path: _write_json(path, metrics_json(result))),
    )
    m = result.metrics
    print(
        f"{cfg.policy}: {m.n_vehicles} vehicles, "
        f"avg travel time {_fmt(m.avg_travel_time)} s, "
        f"holds {m.holds}, fallbacks {m.fallbacks}, repairs {m.repairs}"
    )
    return 0


def cmd_compare(args) -> int:
    cfg = _config_from(args)
    out_cmp = _out_file(args.out, "comparison.csv", args.force)
    results = compare_policies(cfg)
    rows = []
    for policy in POLICIES:
        m = results[policy].metrics
        rows.append(
            (
                policy,
                m.n_vehicles,
                m.avg_travel_time,
                m.median_travel_time,
                m.p90_travel_time,
                m.avg_fuel_consumption_l,
                m.holds,
                m.fallbacks,
                m.repairs,
                m.centralized_optimal,
            )
        )
    header = [
        "policy",
        "n_vehicles",
        "avg_travel_time",
        "median_travel_time",
        "p90_travel_time",
        "avg_fuel_l",
        "holds",
        "fallbacks",
        "repairs",
        "optimal",
    ]
    _write_artifacts((out_cmp, lambda path: _write_csv(path, header, rows)))
    for policy in POLICIES:
        m = results[policy].metrics
        print(f"{policy}: avg travel time {_fmt(m.avg_travel_time)} s")
    return 0


def _sweep_cell(payload: dict) -> tuple[float, int, int, float]:
    cfg = SimConfig.from_json(payload["config"])
    cfg = replace(cfg, volume_veh_h=payload["volume"], seed=payload["seed"])
    res = run_sim(cfg)
    return payload["volume"], payload["seed"], res.metrics.n_vehicles, res.metrics.avg_travel_time


def cmd_sweep(args) -> int:
    cfg = _config_from(args)
    try:
        volumes = [float(v) for v in args.volumes.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"malformed volume list: {args.volumes!r}") from None
    if not volumes:
        raise ConfigError("at least one volume is required")
    if args.seeds < 1:
        raise ConfigError("at least one seed is required")
    out_csv = _out_file(args.out, "sweep.csv", args.force)
    cells = [
        {"config": cfg.to_json(), "volume": vol, "seed": cfg.seed + k}
        for vol in volumes
        for k in range(args.seeds)
    ]
    workers = _threads(len(cells))
    if workers == 1:
        done = [_sweep_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_cell, cells))
    done.sort(key=lambda r: (r[0], r[1]))
    rows = []
    for vol in volumes:
        got = [r for r in done if r[0] == vol]
        avg_n = sum(r[2] for r in got) / len(got)
        avg_tt = sum(r[3] for r in got) / len(got)
        rows.append((vol, avg_n, avg_tt))
    header = ["volume", "avg_vehicles", "avg_travel_time"]
    _write_artifacts((out_csv, lambda path: _write_csv(path, header, rows)))
    for vol, avg_n, avg_tt in rows:
        print(f"volume {_fmt(vol)}: {_fmt(avg_n)} vehicles, avg travel time {_fmt(avg_tt)} s")
    return 0


def cmd_emit_network(args) -> int:
    cfg = _config_from(args)
    out_net = _out_file(args.out, "network.json", args.force)
    net = build_network(cfg.approach_length, cfg.link_length, cfg.merging_zone_side)
    _write_artifacts((out_net, lambda path: _write_json(path, net.to_json())))
    print(f"wrote {out_net}: {len(net.zones)} zones, {len(net.all_paths())} paths")
    return 0


# -- validation suites ---------------------------------------------------------

# randomized oracle checks runnable from an installed package; each suite
# reports PASS/FAIL (or SKIP for the budget-capped joint solver) and the
# command exits nonzero if anything fails

_LIM = Limits(-1.0, 1.0, 5.0, 25.0)
_H = 1.5


def _random_limits(rng) -> Limits:
    u_max = float(rng.uniform(0.5, 3.0))
    u_min = -float(rng.uniform(0.5, 3.0))
    v_min = float(rng.uniform(0.0, 8.0))
    v_max = v_min + float(rng.uniform(4.0, 22.0))
    return Limits(u_min, u_max, v_min, v_max)


def _suite_kinematics(rng, n=2000) -> tuple[str, str]:
    checked = 0
    for i in range(n):
        lim = _random_limits(rng)
        length = float(rng.uniform(2.0, 400.0))
        vs = float(rng.uniform(lim.v_min, lim.v_max))
        ve = float(rng.uniform(lim.v_min, lim.v_max))
        start, end = BoundaryState(0.0, vs), BoundaryState(length, ve)
        try:
            rel = release_time(start, end, lim)
            ddl = deadline(start, end, lim)
        except InfeasibleBoundary:
            continue
        for label, res in (("release", rel), ("deadline", ddl)):
            if label == "deadline" and ddl.is_unbounded():
                continue
            s = integrate_profile(res.profile, 0.05)
            err = max(abs(s.p[-1] - length), abs(s.v[-1] - ve))
            if err > 1e-9 or abs(res.profile.duration - res.time) > 1e-9:
                return "FAIL", (
                    f"case {i} {label}: lim={lim} length={length:.6f} "
                    f"vs={vs:.6f} ve={ve:.6f} endpoint error {err:.3e}"
                )
        checked += 1
    worked = [
        (release_time(BoundaryState(0, 15), BoundaryState(300, 15), _LIM).time, 2 * (math.sqrt(525) - 15)),
        (release_time(BoundaryState(0, 15), BoundaryState(300, 15), Limits(-1, 1, 5, 20)).time, 16.25),
        (deadline(BoundaryState(0, 15), BoundaryState(300, 15), _LIM).time, 40.0),
    ]
    for got, want in worked:
        if abs(got - want) > 1e-9:
            return "FAIL", f"worked value {want} reproduced as {got}"
    return "PASS", f"{checked} random boundary pairs, 3 worked values"


def _random_scheduling_model(rng) -> DisjunctiveModel:
    n = int(rng.integers(2, 6))
    releases = rng.uniform(2.0, 10.0, n)
    deadlines = releases + rng.uniform(1.0, 25.0, n)
    zone_ids = tuple(int(z) for z in rng.choice(100, n, replace=False))
    blocks = []
    for other in range(int(rng.integers(0, 5))):
        run_len = int(rng.integers(1, n + 1))
        at = int(rng.integers(0, n - run_len + 1))
        base = float(rng.uniform(0.0, 45.0))
        gaps = np.cumsum(rng.uniform(1.0, 8.0, run_len))
        blocks.append(
            DisjunctiveBlock(
                other_id=100 + other,
                var_indices=tuple(range(at, at + run_len)),
                other_times=tuple(float(base + g) for g in gaps),
                fixed=bool(rng.random() < 0.25),
            )
        )
    return DisjunctiveModel(
        vehicle_id=1,
        zone_ids=zone_ids,
        t0=float(rng.uniform(0.0, 5.0)),
        windows=tuple(ZoneBounds(float(r), float(d)) for r, d in zip(releases, deadlines)),
        blocks=tuple(blocks),
        headway=_H,
    )


def _suite_scheduler(rng, n=250) -> tuple[str, str]:
    solved = infeasible = 0
    for i in range(n):
        model = _random_scheduling_model(rng)
        ref, _ = enumerate_exact(model)
        if ref is None:
            try:
                solve(model)
            except Infeasible:
                infeasible += 1
                continue
            return "FAIL", f"case {i}: solver found a schedule where enumeration proves none"
        sched, stats = solve(model)
        if abs(sched.exit_time - ref.exit_time) > 1e-9:
            return "FAIL", (
                f"case {i}: exit {sched.exit_time:.9f} != enumerated {ref.exit_time:.9f}"
            )
        if not stats.optimal:
            return "FAIL", f"case {i}: optimality certificate missing"
        solved += 1
    return "PASS", f"{solved} instances matched enumeration, {infeasible} infeasible agreed"


def _suite_centralized(rng, node_budget: int, n=4) -> tuple[str, str]:
    net = build_network()
    paths = net.all_paths()
    for i in range(n):
        t0, entries, committed, seeds = 0.0, [], [], {}
        for vid in range(3):
            t0 += float(rng.uniform(2.0, 5.0))
            path = paths[int(rng.integers(0, len(paths)))]
            model = build_instance(vid, path, t0, 15.0, committed, _LIM, 15.0, _H)
            sched, _ = solve(model)
            committed.append((sched, path))
            seeds[vid] = sched
            entries.append(CentralizedEntry(vid, path, t0, model.windows))
        scheds, stats = solve_centralized(
            entries, _H, node_budget=node_budget, seed_schedules=seeds
        )
        if not stats.optimal:
            return "SKIP", f"budget: optimality not proven within {node_budget} nodes"
        joint = sum(scheds[e.vehicle_id].exit_time for e in entries)
        seq = sum(s.exit_time for s in seeds.values())
        if joint > seq + 1e-9:
            return "FAIL", f"case {i}: joint objective {joint:.9f} worse than sequential {seq:.9f}"
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                pa, pb = entries[a].path, entries[b].path
                sa, sb = scheds[entries[a].vehicle_id], scheds[entries[b].vehicle_id]
                for run in conflict_runs(pa, pb):
                    d = [sb.time_at(z) - sa.time_at(z) for z in run.zones]
                    if not (all(x >= _H - 1e-9 for x in d) or all(x <= -_H + 1e-9 for x in d)):
                        return "FAIL", f"case {i}: separation broken in zones {run.zones}"
    return "PASS", f"{n} joint instances optimal, never worse than sequential"


def _suite_trajectory(rng, n=1500) -> tuple[str, str]:
    checked = 0
    for i in range(n):
        lim = _random_limits(rng)
        length = float(rng.uniform(2.0, 400.0))
        vs = float(rng.uniform(lim.v_min, lim.v_max))
        ve = float(rng.uniform(lim.v_min, lim.v_max))
        start, end = BoundaryState(0.0, vs), BoundaryState(length, ve)
        try:
            rel = release_time(start, end, lim).time
            ddl = deadline(start, end, lim)
        except InfeasibleBoundary:
            continue
        hi = rel + 30.0 if ddl.is_unbounded() else ddl.time
        window = float(rng.uniform(rel, hi))
        bvp = ZoneBVP(0, 0.0, window, start, end, lim)
        bounds = ZoneBounds(rel, None if ddl.is_unbounded() else ddl.time)
        try:
            traj = solve_zone(bvp, bounds)
        except (ValueError, PiecingDiverged):
            continue
        ts = np.linspace(0.0, window, max(3, int(window / 0.02)))
        p, v, u = traj.eval_many(ts)
        case = f"case {i}: lim={lim} length={length:.6f} vs={vs:.6f} ve={ve:.6f} T={window:.6f}"
        if abs(p[0] - 0.0) > 1e-7 or abs(v[0] - vs) > 1e-7:
            return "FAIL", f"{case} start state missed"
        if abs(p[-1] - length) > 1e-7 or abs(v[-1] - ve) > 1e-7:
            return "FAIL", f"{case} end state missed"
        if v.min() < lim.v_min - 1e-7 or v.max() > lim.v_max + 1e-7:
            return "FAIL", f"{case} speed limit broken"
        if u.min() < lim.u_min - 1e-7 or u.max() > lim.u_max + 1e-7:
            return "FAIL", f"{case} control limit broken"
        for a, b in zip(traj.arcs, traj.arcs[1:]):
            pe, ve_a, _ = a.end_state()
            pb, vb, _ = b.eval(b.t0)
            if abs(pe - pb) > 1e-7 or abs(ve_a - vb) > 1e-7:
                return "FAIL", f"{case} junction jump at t={b.t0:.6f}"
        checked += 1
    if checked < n // 2:
        return "FAIL", f"generator starved: only {checked} of {n} cases solvable"
    return "PASS", f"{checked} zone problems: boundaries, continuity, limits"


def cmd_validate(args) -> int:
    cfg = _config_from(args)
    rng = np.random.default_rng(cfg.seed)
    report = [
        ("kinematics", *_suite_kinematics(rng)),
        ("scheduler", *_suite_scheduler(rng)),
        ("scheduler-centralized", *_suite_centralized(rng, cfg.node_budget)),
        ("trajectory", *_suite_trajectory(rng)),
    ]
    failed = False
    for name, status, detail in report:
        print(f"{name:<22} {status:<4} {detail}")
        failed = failed or status == "FAIL"
    return 1 if failed else 0


# -- entry point -----------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="corridor", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, out=True):
        sp.add_argument("--config", help="JSON config file mirroring the SimConfig fields")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if out:
            sp.add_argument("--out", required=True, help="output directory, created if absent")
            sp.add_argument("--force", action="store_true", help="overwrite existing outputs")

    sp = sub.add_parser("run", help="one seeded run; writes schedules, trajectory, metrics")
    common(sp)
    sp.add_argument("--policy", choices=POLICIES, help="override the config policy")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("compare", help="all policies on one arrival list; writes comparison.csv")
    common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="volume sweep averaged over seeds; writes sweep.csv")
    common(sp)
    sp.add_argument(
        "--volumes",
        default=",".join(str(int(v)) for v in DEFAULT_VOLUMES),
        help="comma-separated demand volumes in veh/h per path",
    )
    sp.add_argument("--seeds", type=int, default=5, help="seeds per volume, starting at the config seed")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="run the randomized oracle suites")
    common(sp, out=False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("emit-network", help="write the zone network as JSON")
    common(sp)
    sp.set_defaults(func=cmd_emit_network)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, UnsafeHeadway) else 2
    except (OSError, SafetyViolation, Saturated, Infeasible, PiecingDiverged, NoExitFound) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
