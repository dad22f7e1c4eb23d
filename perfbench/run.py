"""Corridor benchmark: one workload, timed in rounds, every output checked.

    python3 perfbench/run.py --workload light-traffic --seed 1 --seconds 16 --trace 0

Workloads (see README.md): `light-traffic` runs `corridor run` through
`cli.main` at 400-1000 veh/h, `repair-heavy` runs `sim.run` at 1200 veh/h,
`joint-schedule` runs `compare_policies` (decentralized and centralized) on
three Poisson cells.  Each round issues the workload's runs back to back from
this one process (a closed loop with one caller); rounds repeat until the
runs add up to --seconds at reference speed (see speed.py).  With --trace 0 the last line reports the end-to-end
metrics, with --trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import os
import time


def _since_process_start() -> float:
    """Seconds from this process's start to now, read from /proc (0 elsewhere)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


# perf_counter reading at process start: setup_s runs from here
_PROCESS_START = time.perf_counter() - _since_process_start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402  (the benchmark's own modules, beside this file)
import speed  # noqa: E402


def _setup():
    """Import the program from the checkout and build its network (timed as setup_s)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import corridor.cli  # noqa: F401  (imports every module of the program)
    from corridor.network import build_network

    net = build_network()
    return net, time.perf_counter() - _PROCESS_START


class Op:
    """One run of the workload and how to read its outputs back for checking."""

    def __init__(self, label, call, read, arrivals):
        self.label = label
        self.call = call  # () -> output
        self.read = read  # output -> (normalized runs, errors of workload-specific checks)
        self.arrivals = arrivals  # the inputs every run must account for


def light_traffic(net):
    """`corridor run` through cli.main at the reference volumes 400-1000 veh/h,
    seeds 1-5 (the acceptance sweep's), writing all three artifacts."""
    from corridor import cli
    from corridor.sim import SimConfig, generate_arrivals

    ops = []
    for vol in (400, 600, 800, 1000):
        for s in range(1, 6):
            label = f"run-{vol}-{s}"
            out_dir = os.path.join(OUT, "light-traffic", label)
            os.makedirs(out_dir, exist_ok=True)
            cfg_path = os.path.join(out_dir, "config.json")
            with open(cfg_path, "w") as f:
                json.dump({"volume_veh_h": float(vol), "seed": s}, f)
            argv = ["run", "--config", cfg_path, "--out", out_dir, "--force"]

            def call(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"corridor run exited {code}")

            def read(_, label=label, out_dir=out_dir):
                run = checks.from_artifacts(label, out_dir, net)
                return [run], checks.check_distance(run)

            arrivals = generate_arrivals(SimConfig(volume_veh_h=float(vol), seed=s), net)
            ops.append(Op(label, call, read, arrivals))
    return ops


def repair_heavy(net):
    """sim.run at 1200 veh/h on seeds 1-5 (the acceptance sweep's), decentralized."""
    from corridor import sim

    ops = []
    for s in range(1, 6):
        cfg = sim.SimConfig(volume_veh_h=1200.0, seed=s)
        arrivals = sim.generate_arrivals(cfg, net)
        label = f"sim-1200-{s}"

        def call(cfg=cfg, arrivals=arrivals):
            return sim.run(cfg, arrivals=arrivals)

        def read(res, label=label):
            return [checks.from_result(label, res, res.config.to_json())], []

        ops.append(Op(label, call, read, arrivals))
    return ops


JOINT_CELLS = ((30, 2), (45, 3), (75, 5))


def joint_schedule(net):
    """compare_policies, decentralized and centralized, on the Poisson cells
    (vehicles, seed) whose joint solve exhausts its node budget without repair."""
    from corridor import sim

    ops = []
    for n, s in JOINT_CELLS:
        cfg = sim.SimConfig(arrival_mode="poisson", n_vehicles=n, seed=s)
        arrivals = sim.generate_arrivals(cfg, net)
        label = f"compare-{n}-{s}"

        def call(cfg=cfg, arrivals=arrivals):
            return sim.compare_policies(cfg, policies=("decentralized", "centralized"), arrivals=arrivals)

        def read(results, label=label):
            dec, cen = (
                checks.from_result(f"{label}/{p}", results[p], results[p].config.to_json())
                for p in ("decentralized", "centralized")
            )
            return [dec, cen], checks.check_joint(dec, cen)

        ops.append(Op(label, call, read, arrivals))
    return ops


# workload -> (its runs, the numpy share of its speed probe kernel).  Light
# traffic's time goes to interpreted per-run work; rear-end repair samples
# with numpy over long arrays; the joint solve's inner loop reads numpy
# scalars and slows down least of the three (see README.md)
WORKLOADS = {
    "light-traffic": (light_traffic, 0.0),
    "repair-heavy": (repair_heavy, 0.5),
    "joint-schedule": (joint_schedule, 0.75),
}


class Tally:
    """Attempted and failed operations, and check errors, over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.faults: list[str] = []

    def record(self, op: Op, output, raised: Exception | None) -> list:
        """Check one operation's outputs; returns its normalized runs."""
        self.attempted += 1
        if raised is not None:
            self.failed += 1
            self.faults.append(f"{op.label}: {type(raised).__name__}: {raised}")
            return []
        faults = []
        try:
            runs, errs = op.read(output)
            for run in runs:
                e, f = checks.check_run(run, op.arrivals)
                errs += e
                faults += f
        except Exception as e:  # an unreadable output is a wrong answer
            runs, errs = [], [f"{op.label}: output unreadable: {type(e).__name__}: {e}"]
        self.errors += errs
        if faults:
            # the known fault (see checks.check_limits): the run completed
            # with a wrong trajectory, so it counts as failed, not as wrong
            self.failed += 1
            self.faults += faults
        return runs


RAW, REF = 0, 1  # the two times run_round records per op


def run_round(ops, tally: Tally, probe=None) -> tuple[dict[str, tuple[float, float]], list]:
    """Issue every op once, back to back.

    Returns {label: (raw seconds, seconds at reference speed)} and the checked
    runs.  Without a probe both times are the raw wall time.
    """
    times, runs = {}, []
    for op in ops:
        raised = output = None
        t = time.perf_counter()
        try:
            if probe is None:
                output = op.call()
            else:
                output, raw, ref = probe.measure(op.call)
        except Exception as e:  # counted as a failed operation
            raised = e
        if probe is None or raised is not None:
            raw = ref = time.perf_counter() - t
        times[op.label] = (raw, ref)
        runs += tally.record(op, output, raised)
    return times, runs


def end_to_end(ops, kernel, seconds, setup_s, tally):
    probe = speed.SpeedProbe(kernel)
    rounds = []
    # rounds run until `seconds` of work at reference speed are done, so the
    # machine's speed changes the run's length, not its number of rounds
    while not rounds or sum(t[REF] for times in rounds for t in times.values()) < seconds:
        times, runs = run_round(ops, tally, probe)
        if not rounds:
            # travel time and fuel are deterministic: every round reads the
            # same, and later rounds' outputs are dropped once checked
            first = [(len(r.vehicles), sum(v.travel_time for v in r.vehicles), r.avg_fuel_l) for r in runs]
        del runs
        rounds.append(times)

    def wall(k):
        return [sum(t[k] for t in times.values()) for times in rounds]

    def slowest(k):
        return max(statistics.median(times[op.label][k] for times in rounds) for op in ops)

    n = max(sum(k for k, _, _ in first), 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall(REF)), "s"),
        "slowest_run_s": (slowest(REF), "s"),
        "avg_travel_time_s": (sum(tt for _, tt, _ in first) / n, "s/veh"),
        "avg_fuel_ml": (sum(k * fuel_l * 1000.0 for k, _, fuel_l in first) / n, "ml/veh"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"rounds: {len(rounds)}")
    print("round walls at reference speed: " + ", ".join(f"{w:.3f}" for w in wall(REF)))
    print("round walls as measured:        " + ", ".join(f"{w:.3f}" for w in wall(RAW)))
    print(f"slowest run as measured: {slowest(RAW):.3f} s")
    return metrics


# per-layer metric -> (span name or counter, kind): "self" sums the spans' self
# seconds, "layer" the self seconds of every span under a prefix, "calls"
# counts spans, "count" and "bytes" read a counter
UNITS = {"self": "s", "layer": "s", "calls": "count", "count": "count", "bytes": "B"}
PER_LAYER = {
    "sim.compute_metrics.s": ("sim.compute_metrics", "self"),
    "cli.artifacts.s": ("cli.cmd_run", "self"),
    "cli.artifact_bytes": ("cli.artifact_bytes", "bytes"),
    "sim.enforce_rear_end.s": ("sim.enforce_rear_end", "self"),
    "network.conflict_runs.calls": ("network.conflict_runs", "calls"),
    "network.conflict_runs.s": ("network.conflict_runs", "self"),
    "trajectory.follow_arc.s": ("trajectory.follow_arc", "self"),
    "trajectory.follow_arc.calls": ("trajectory.follow_arc", "calls"),
    "trajectory.check_rear_end.s": ("trajectory.check_rear_end", "self"),
    "trajectory.check_rear_end.calls": ("trajectory.check_rear_end", "calls"),
    "trajectory.solve_zone.s": ("trajectory.solve_zone", "self"),
    "trajectory.solve_zone.calls": ("trajectory.solve_zone", "calls"),
    "kinematics.release_time.calls": ("kinematics.release_time", "calls"),
    "kinematics.deadline.calls": ("kinematics.deadline", "calls"),
    "kinematics.s": ("kinematics.", "layer"),
    "sim.repairs": ("sim.repairs", "count"),
    "scheduler.solve_centralized.s": ("scheduler.solve_centralized", "self"),
    "scheduler.solve_centralized.nodes": ("scheduler.solve_centralized.nodes", "count"),
    "scheduler.solve_centralized.proven": ("scheduler.solve_centralized.proven", "count"),
    "scheduler.build_instance.s": ("scheduler.build_instance", "self"),
    "scheduler.solve.s": ("scheduler.solve", "self"),
    "scheduler.solve.calls": ("scheduler.solve", "calls"),
    "scheduler.solve.nodes": ("scheduler.solve.nodes", "count"),
    "sim.schedule_with_fallback.calls": ("sim.schedule_with_fallback", "calls"),
    "sim.schedule_with_fallback.s": ("sim.schedule_with_fallback", "self"),
    "sim.holds": ("sim.holds", "count"),
    "sim.fallbacks": ("sim.fallbacks", "count"),
    "sim.synthesize_trajectory.s": ("sim.synthesize_trajectory", "self"),
    "sim.check_lateral.s": ("sim.check_lateral", "self"),
    "sim.generate_arrivals.s": ("sim.generate_arrivals", "self"),
}


def _layer_values(summary: dict, counters: dict) -> dict[str, float]:
    out = {}
    for metric, (key, kind) in PER_LAYER.items():
        if kind in ("count", "bytes"):
            out[metric] = float(counters.get(key, 0.0))
        elif kind == "layer":
            out[metric] = sum(s for name, (_, s) in summary.items() if name.startswith(key))
        else:
            calls, self_s = summary.get(key, (0, 0.0))
            out[metric] = float(calls) if kind == "calls" else self_s
    return out


def per_layer(ops, seconds, tally, workload, seed):
    """Untraced and traced rounds in turn until time is up; the per-layer
    values come from the traced rounds, the overhead from the difference."""
    from spans import Tracer

    tracer = Tracer()
    per_round, traced, untraced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(t[RAW] for t in run_round(ops, tally)[0].values()))
        lo, before = tracer.mark(), dict(tracer.counters)
        tracer.install()
        try:
            times, _ = run_round(ops, tally)
        finally:
            tracer.uninstall()
        traced.append(sum(t[RAW] for t in times.values()))
        counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
        # read after the round, outside the traced calls
        counters["cli.artifact_bytes"] = checks.artifact_bytes(os.path.join(OUT, workload))
        per_round.append(_layer_values(tracer.summary(lo, tracer.mark()), counters))
    tracer.write(os.path.join(OUT, f"spans-{workload}-{seed}.csv"))
    metrics = {
        name: (statistics.median(v[name] for v in per_round), UNITS[kind])
        for name, (_, kind) in PER_LAYER.items()
    }
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.spans"] = (float(tracer.mark()) / len(traced), "count")
    print("untraced rounds: " + ", ".join(f"{w:.3f}" for w in untraced))
    print("traced rounds:   " + ", ".join(f"{w:.3f}" for w in traced))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "corridor", "__init__.py")):
        print(f"error: no corridor package under {ROOT}/src to benchmark", file=sys.stderr)
        return 2
    net, setup_s = _setup()
    os.makedirs(OUT, exist_ok=True)
    make_ops, numpy_share = WORKLOADS[args.workload]
    ops = make_ops(net)
    # the seed orders the runs within a round; the runs themselves are fixed
    random.Random(args.seed).shuffle(ops)
    tally = Tally()
    if args.trace:
        metrics = per_layer(ops, args.seconds, tally, args.workload, args.seed)
    else:
        metrics = end_to_end(ops, speed.kernel(numpy_share), args.seconds, setup_s, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, check errors {len(tally.errors)}")
    for line in sorted(set(tally.faults)):
        print(f"failed: {line}")
    for line in tally.errors[:20]:
        print(f"check error: {line}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
