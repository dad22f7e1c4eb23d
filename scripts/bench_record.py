"""Record a BENCH file: the benchmark run on a reference tree and a changed tree.

    python3 scripts/bench_record.py OLD_CHECKOUT NEW_CHECKOUT --out BENCH_<n>.json
        [--previous BENCH_<m>.json]

For every workload in NEW_CHECKOUT's BENCHMARK.json the script runs each
checkout's own `perfbench/run.py --trace 0 --seconds <run_seconds>` once per
pair, PAIRS pairs, alternating which side goes first, pair k on seed
FIRST_SEED + k for both sides (the seed only orders the runs inside a round).
Then it runs one `--trace 1` per side and workload.  Runs are sequential, one
process at a time.

The file holds, per workload and end-to-end metric, each side's runs, median
and quartiles, the number of pairs the new tree wins (ties count for
neither), the relative change of the medians, whether that stays inside the
metric's bound, and whether a gain holds: at least nine tenths of the pairs
won and a median difference wider than the old tree's interquartile range.
It also keeps each side's failed and attempted operations and its traced
per-layer values, the machine (cores, Python and numpy versions), both
trees' `wc -l src/corridor/*.py`, NEW_CHECKOUT's Tier-1 wall time, the
previous BENCH file named by --previous (or null), and what the benchmark
does not cover.  The Tier-1 run is the ROADMAP command, from NEW_CHECKOUT.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

from compare_runs import src_lines  # the sibling script; scripts/ is first on sys.path

PAIRS = 10
FIRST_SEED = 101
NOT_COVERED = [
    "corridor sweep end to end: no workload runs it, so its process pool and sweep.csv are untimed",
    "corridor compare through cli.main: joint-schedule calls compare_policies in-process and "
    "writes no comparison.csv",
    "FIFO: no workload runs the first-in-first-out policy",
]


def _bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in the checkout; its last stdout line parsed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _compare(old: list[float], new: list[float], spec: dict) -> dict:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(1 for a, b in zip(old, new) if sign * (a - b) > 0)
    a, b = _spread(old), _spread(new)
    worse = sign * (b["median"] - a["median"])
    rel = worse / abs(a["median"]) if a["median"] else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "old": a,
        "new": b,
        "new_wins": wins,
        "pairs": len(old),
        "relative_worsening": rel,
        "within_bound": rel <= spec["bound"],
        "gain": wins >= 0.9 * len(old) and -worse > a["q3"] - a["q1"],
    }


def _tier1(checkout: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def _machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(terse=True),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", help="checkout of the reference tree")
    p.add_argument("new", help="checkout of the changed tree")
    p.add_argument("--out", required=True, help="BENCH file to write")
    p.add_argument("--previous", help="BENCH file this one is compared against (default: none)")
    args = p.parse_args(argv)
    with open(os.path.join(args.new, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"old": args.old, "new": args.new}
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs = {"old": [], "new": []}
        for k in range(PAIRS):
            order = ("old", "new") if k % 2 == 0 else ("new", "old")
            for side in order:
                runs[side].append(_bench(sides[side], name, FIRST_SEED + k, seconds, 0))
                print(f"{name} pair {k} {side}: wall_s {runs[side][-1]['metrics']['wall_s']:.3f}", flush=True)
        traced = {
            side: _bench(sides[side], name, FIRST_SEED, seconds, 1)["metrics"] for side in sides
        }
        workloads[name] = {
            "why": w["why"],
            "end_to_end": {
                metric: _compare(
                    [r["metrics"][metric] for r in runs["old"]],
                    [r["metrics"][metric] for r in runs["new"]],
                    spec,
                )
                for metric, spec in specs.items()
            },
            "operations": {
                side: {
                    "attempted": [r["attempted"] for r in runs[side]],
                    "failed": [r["failed"] for r in runs[side]],
                    "correct": all(r["correct"] for r in runs[side]),
                }
                for side in sides
            },
            "traced": traced,
        }
    previous = os.path.basename(args.previous) if args.previous else None
    record = {
        "machine": _machine(),
        "settings": {
            "pairs": PAIRS,
            "seconds": seconds,
            "seeds": [FIRST_SEED + k for k in range(PAIRS)],
            "order": "alternating, old first on even pairs",
            "traced_runs_per_side": 1,
        },
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "tier1": _tier1(args.new),
        "previous": previous,
        "not_covered": NOT_COVERED,
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, w in workloads.items():
        for metric, c in w["end_to_end"].items():
            print(
                f"{name:15s} {metric:18s} {c['old']['median']:.6g} -> {c['new']['median']:.6g} "
                f"{c['unit']}, new wins {c['new_wins']}/{c['pairs']}, "
                f"{'inside' if c['within_bound'] else 'OUTSIDE'} bound, gain {c['gain']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
