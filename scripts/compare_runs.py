"""Compare `corridor run` outputs of two checkouts on a fixed set of configs.

    python3 scripts/compare_runs.py OLD_CHECKOUT NEW_CHECKOUT [--work DIR] [--jobs 2]

Each checkout's `src/` runs the same 36 configs through `cli.main`: the 20
light-traffic runs (400-1000 veh/h, seeds 1-5), 1200 veh/h seeds 1-6, Poisson
(30,2) under all three policies, (45,3) decentralized and centralized, (75,5)
centralized, and FIFO (18,5), (20,5), (60,4), whose repairs track leaders
that are tracking themselves, and (75,5), whose repairs solve the most
cruise-pinned zones.  `corridor validate` runs on seeds 0-4 per checkout as
well: only its trajectory suite draws random limits and pins cruises at
v_max.  Per run the script keeps the three artifacts, stdout with
the exit code, and a repair log: each tracking stretch's vehicle, zone,
start and end time.  A stretch is a run of consecutive follow arcs in one
zone, so a checkout that stores one follow arc per leader piece logs the
same line as one that stores a single sampled arc.  The log reads both
trajectory layouts: per-zone objects under `.zones`, and one arc chain with
per-arc `zone_ids`.

For each of those it prints "same" when the bytes match on every run, or the
number of values that differ, the runs they differ in, and the largest
relative and absolute differences.  metrics.json is compared without its
wall-clock `solver_ms_*` fields.  Last it prints each checkout's `wc -l
src/corridor/*.py` total.  The exit code is 1 when any schedules.json
differs (or is missing on one side), else 0.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor


def _configs() -> dict[str, dict]:
    cfgs = {}
    for vol in (400, 600, 800, 1000):
        for seed in range(1, 6):
            cfgs[f"vol{vol}-s{seed}"] = {"volume_veh_h": float(vol), "seed": seed}
    for seed in range(1, 7):
        cfgs[f"vol1200-s{seed}"] = {"volume_veh_h": 1200.0, "seed": seed}
    cells = [(30, 2, p) for p in ("decentralized", "fifo", "centralized")]
    cells += [(45, 3, "decentralized"), (45, 3, "centralized"), (75, 5, "centralized")]
    cells += [(18, 5, "fifo"), (20, 5, "fifo"), (60, 4, "fifo"), (75, 5, "fifo")]
    for n, seed, policy in cells:
        cfgs[f"poisson{n}-s{seed}-{policy}"] = {
            "arrival_mode": "poisson", "n_vehicles": n, "seed": seed, "policy": policy,
        }
    return cfgs


# Runs one command through the checkout's cli.main, capturing every run_sim
# result so the repair log can list each follow arc.
_DRIVER = r"""
import sys
from corridor import cli

argv, repairs_path = sys.argv[1:-1], sys.argv[-1]
results = []
run_sim = cli.run_sim


def kept_run(cfg):
    results.append(run_sim(cfg))
    return results[-1]


cli.run_sim = kept_run
code = cli.main(argv)
with open(repairs_path, "w") as f:
    for res in results:
        for rec in res.records:
            if not rec.repairs:
                continue
            traj = rec.trajectory
            if hasattr(traj, "zones"):  # per-zone trajectories of older checkouts
                tagged = [(z.zone_id, a) for z in traj.zones for a in z.arcs]
            else:
                tagged = zip(traj.zone_ids, traj.arcs)
            stretches, tracking = [], None  # tracking: zone of the follow arc just seen
            for zone_id, arc in tagged:
                if arc.label != "follow":
                    tracking = None
                elif tracking == zone_id:
                    stretches[-1][2] = arc.t1
                else:
                    stretches.append([zone_id, arc.t0, arc.t1])
                    tracking = zone_id
            for zone_id, t0, t1 in stretches:
                print(rec.vehicle_id, zone_id, repr(t0), repr(t1), file=f)
print("exit", code)
"""


def _run_one(checkout: str, out_dir: str, argv: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *argv, os.path.join(out_dir, "repairs.txt")],
        env=env, capture_output=True, text=True,
    )
    with open(os.path.join(out_dir, "stdout.txt"), "w") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        print(f"{out_dir}: driver exited {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)


def _jobs(checkout: str, side_dir: str) -> list[tuple]:
    jobs = []
    for name, cfg in _configs().items():
        out_dir = os.path.join(side_dir, name)
        os.makedirs(out_dir, exist_ok=True)
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        jobs.append((checkout, out_dir, ["run", "--config", cfg_path, "--out", out_dir, "--force"]))
    for seed in range(5):
        jobs.append((checkout, os.path.join(side_dir, f"validate-s{seed}"), ["validate", "--seed", str(seed)]))
    return jobs


# -- value comparison ---------------------------------------------------------


def _leaves(obj, path=""):
    """Flattened (path, value) pairs of a JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def _values(name: str, text: str) -> list[tuple[str, object]]:
    if name.endswith(".json"):
        pairs = list(_leaves(json.loads(text)))
        if name == "metrics.json":
            pairs = [(p, v) for p, v in pairs if not p.rsplit("/", 1)[-1].startswith("solver_ms")]
        return pairs
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(text))
        return [(f"{i}:{j}", cell) for i, row in enumerate(rows) for j, cell in enumerate(row)]
    return [(f"{i}:{j}", tok) for i, line in enumerate(text.splitlines()) for j, tok in enumerate(line.split())]


def _number(x):
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _diff(name: str, old: str, new: str) -> tuple[int, float, float, bool]:
    """(differing values, largest relative and absolute differences,
    structure differs).  The absolute difference tells real drift from two
    values near zero, whose relative difference reads about 1."""
    a, b = _values(name, old), _values(name, new)
    if [p for p, _ in a] != [p for p, _ in b]:
        return 0, math.nan, math.nan, True
    count, rel, ab = 0, 0.0, 0.0
    for (_, x), (_, y) in zip(a, b):
        if x == y:
            continue
        count += 1
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            rel = ab = math.inf
        elif fx != fy:
            scale = max(abs(fx), abs(fy))
            rel = max(rel, abs(fx - fy) / scale if scale else 0.0)
            ab = max(ab, abs(fx - fy))
    return count, rel, ab, False


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except FileNotFoundError:
        return None


ARTIFACTS = ("schedules.json", "trajectory.csv", "metrics.json", "stdout.txt", "repairs.txt")


def compare(old_dir: str, new_dir: str, runs: list[str]) -> bool:
    """Print the per-artifact report; True when every schedules.json matches."""
    schedules_same = True
    for name in ARTIFACTS:
        count, rel, ab, runs_differ, broken = 0, 0.0, 0.0, [], {}
        for run in runs:
            old = _read(os.path.join(old_dir, run, name))
            new = _read(os.path.join(new_dir, run, name))
            if old is None and new is None:
                continue
            if old is None or new is None:
                broken.setdefault("missing on one side", []).append(run)
                continue
            if old == new:
                continue
            n, r, a, structure = _diff(name, old, new)
            if structure:
                broken.setdefault("structure differs", []).append(run)
            elif n:
                count += n
                rel, ab = max(rel, r), max(ab, a)
                runs_differ.append(run)
            elif name == "metrics.json":
                continue  # only solver_ms_* moved
            else:
                broken.setdefault("bytes differ, values equal", []).append(run)
        if name == "schedules.json" and (runs_differ or broken):
            schedules_same = False
        if not runs_differ and not broken:
            print(f"{name:15s} same")
            continue
        if runs_differ:
            print(
                f"{name:15s} {count} values differ in {len(runs_differ)} runs, "
                f"largest relative difference {rel:.3g}, absolute {ab:.3g}"
            )
            print(f"{'':15s} runs: {', '.join(runs_differ)}")
        for reason, bad in broken.items():
            print(f"{name:15s} {reason} in {len(bad)} runs: {', '.join(bad)}")
    return schedules_same


def src_lines(checkout: str) -> int:
    """Line count of the checkout's src/corridor/*.py, as `wc -l` totals it."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "corridor", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", help="checkout directory of the reference tree")
    p.add_argument("new", help="checkout directory of the changed tree")
    p.add_argument("--work", help="directory for the outputs (default: a temp directory, removed after)")
    p.add_argument("--jobs", type=int, default=2, help="runs at a time (default 2)")
    args = p.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_runs_")
    try:
        sides = [os.path.join(work, "old"), os.path.join(work, "new")]
        jobs = _jobs(args.old, sides[0]) + _jobs(args.new, sides[1])
        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            list(pool.map(lambda job: _run_one(*job), jobs))
        runs = sorted(os.listdir(sides[0]))
        same = compare(*sides, runs)
        print(f"{'src lines':15s} {src_lines(args.old)} -> {src_lines(args.new)} (wc -l src/corridor/*.py)")
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
