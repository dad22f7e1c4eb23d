"""Output checks for the corridor benchmark, computed apart from the program.

Every check reads a normalized run (`RunOut`) built either from a `SimResult`
or from the three artifacts `corridor run` writes, and returns a list of
error strings (empty when the run passes).  The formulas here are the
benchmark's own: zone sharing comes from the paths' zone lists, the spacing
rule, the free-flow bound and the fuel polynomial are re-derived, and the
trajectories are re-sampled on grids the program does not use.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# re-sampling step for trajectories evaluated in memory; it differs from the
# program's fuel_dt and rear_end_dt (both 0.01 s) so no grid is shared
SAMPLE_DT = 0.007


@dataclass
class Tolerances:
    position_m: float  # hierarchy and spacing checks
    limit: float  # speed and control limits, in their own units
    fuel_rel: float  # relative fuel agreement


# in-memory trajectories are evaluated exactly; trace artifacts carry 9
# significant digits at trace_dt and are interpolated between samples
EXACT = Tolerances(position_m=1e-5, limit=1e-7, fuel_rel=1e-3)
TRACE = Tolerances(position_m=2e-3, limit=1e-6, fuel_rel=3e-3)


@dataclass
class Params:
    headway: float
    gamma: float
    phi: float
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    fuel_cruise: tuple[float, ...]
    fuel_accel: tuple[float, ...]

    @classmethod
    def from_config(cls, cfg: dict) -> "Params":
        return cls(
            headway=float(cfg["headway"]),
            gamma=float(cfg["gamma"]),
            phi=float(cfg["phi"]),
            u_min=float(cfg["u_min"]),
            u_max=float(cfg["u_max"]),
            v_min=float(cfg["v_min"]),
            v_max=float(cfg["v_max"]),
            fuel_cruise=tuple(float(c) for c in cfg["fuel"]["cruise"]),
            fuel_accel=tuple(float(c) for c in cfg["fuel"]["accel"]),
        )


@dataclass
class VehicleOut:
    vehicle_id: int
    origin: str
    movement: str
    t0: float  # actual entry time, after any holds
    entry_speed: float
    travel_time: float  # as reported
    repairs: int  # rear-end repairs the program reports for this vehicle
    zone_ids: tuple[int, ...]
    seg_lengths: tuple[float, ...]  # from the network's path table
    times: tuple[float, ...]  # scheduled entry per zone, then the exit
    t: np.ndarray  # state samples over [first entry, exit]
    p: np.ndarray
    v: np.ndarray
    u: np.ndarray
    evaluate: object  # times -> (p, v) anywhere, coasting past the exit

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.seg_lengths)))


@dataclass
class RunOut:
    label: str
    params: Params
    vehicles: list[VehicleOut]
    n_vehicles: int  # as reported
    avg_travel_time: float  # as reported, s
    avg_fuel_l: float  # as reported, litres per vehicle
    tol: Tolerances
    trace_only_ids: tuple[int, ...] = ()  # traced vehicles missing from the schedules


# -- building runs -----------------------------------------------------------


def _exact_samples(traj, t_lo: float, t_hi: float):
    n = max(int(math.ceil((t_hi - t_lo) / SAMPLE_DT)), 1)
    t = np.linspace(t_lo, t_hi, n + 1)
    p, v, u = traj.eval_many(t)
    return t, p, v, u


def from_result(label: str, result, config_json: dict) -> RunOut:
    """Normalize a SimResult; trajectories are re-sampled at SAMPLE_DT."""
    vehicles = []
    for r in result.records:
        traj = r.trajectory
        times = tuple(float(x) for x in r.schedule.times)
        t, p, v, u = _exact_samples(traj, times[0], times[-1])

        def evaluate(ts, traj=traj):
            pp, vv, _ = traj.eval_many(np.asarray(ts, dtype=float))
            return pp, vv

        vehicles.append(
            VehicleOut(
                r.vehicle_id, r.origin, r.movement, float(r.t0), float(r.entry_speed),
                float(r.travel_time), int(r.repairs), tuple(r.path.zone_ids), tuple(r.path.seg_lengths),
                times, t, p, v, u, evaluate,
            )
        )
    m = result.metrics
    return RunOut(
        label, Params.from_config(config_json), vehicles, int(m.n_vehicles),
        float(m.avg_travel_time), float(m.avg_fuel_consumption_l), EXACT,
    )


def _hermite(t: np.ndarray, p: np.ndarray, v: np.ndarray):
    """Cubic Hermite interpolant of samples (t, p, p'); linear coast past the end."""

    def evaluate(ts):
        ts = np.asarray(ts, dtype=float)
        i = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, len(t) - 2)
        h = t[i + 1] - t[i]
        s = np.clip((ts - t[i]) / h, 0.0, 1.0)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        pp = h00 * p[i] + h10 * h * v[i] + h01 * p[i + 1] + h11 * h * v[i + 1]
        d00 = 6 * s * s - 6 * s
        d10 = 3 * s * s - 4 * s + 1
        d01 = -d00
        d11 = 3 * s * s - 2 * s
        vv = (d00 * p[i] + d01 * p[i + 1]) / h + d10 * v[i] + d11 * v[i + 1]
        past = ts > t[-1]
        pp = np.where(past, p[-1] + v[-1] * (ts - t[-1]), pp)
        vv = np.where(past, v[-1], vv)
        return pp, vv

    return evaluate


def read_trace(path: str) -> dict[int, tuple[np.ndarray, ...]]:
    """trajectory.csv as {vehicle: (t, p, v, u)}."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = {}
    vid = data[:, 0].astype(np.int64)
    cuts = np.flatnonzero(np.diff(vid)) + 1
    for block in np.split(np.arange(len(vid)), cuts):
        if len(block):
            rows = data[block]
            out[int(vid[block[0]])] = (rows[:, 1], rows[:, 3], rows[:, 4], rows[:, 5])
    return out


def from_artifacts(label: str, out_dir: str, network) -> RunOut:
    """Normalize the schedules.json / trajectory.csv / metrics.json of one run."""
    with open(os.path.join(out_dir, "schedules.json")) as f:
        sched = json.load(f)
    with open(os.path.join(out_dir, "metrics.json")) as f:
        metrics = json.load(f)
    trace = read_trace(os.path.join(out_dir, "trajectory.csv"))
    vehicles = []
    for rec in sched["vehicles"]:
        vid = int(rec["vehicle_id"])
        path = network.path_for(rec["origin"], rec["movement"])
        t, p, v, u = trace.get(vid, (np.zeros(0),) * 4)
        times = tuple(float(x) for x in rec["schedule"]["times"])
        if tuple(rec["schedule"]["zone_ids"]) != path.zone_ids:
            raise ValueError(f"{label}: vehicle {vid} scheduled off its path")
        vehicles.append(
            VehicleOut(
                vid, rec["origin"], rec["movement"], float(rec["t0"]), float(rec["entry_speed"]),
                float(rec["travel_time"]), int(rec["repairs"]), tuple(rec["schedule"]["zone_ids"]),
                tuple(path.seg_lengths), times, t, p, v, u,
                _hermite(t, p, v) if len(t) >= 2 else None,
            )
        )
    return RunOut(
        label, Params.from_config(metrics["config"]), vehicles, int(metrics["n_vehicles"]),
        float(metrics["avg_travel_time"]), float(metrics["avg_fuel_consumption_l"]), TRACE,
        tuple(sorted(set(trace) - {v.vehicle_id for v in vehicles})),
    )


# -- checks ----------------------------------------------------------------------


def check_arrivals(run: RunOut, arrivals) -> list[str]:
    """Every arrival appears exactly once, on its own path, and nothing else does."""
    errs = []
    want = {a.vehicle_id: (a.origin, a.movement) for a in arrivals}
    seen: dict[int, int] = {}
    for v in run.vehicles:
        seen[v.vehicle_id] = seen.get(v.vehicle_id, 0) + 1
        if v.vehicle_id in want and want[v.vehicle_id] != (v.origin, v.movement):
            errs.append(f"{run.label}: vehicle {v.vehicle_id} on {v.origin}/{v.movement}, arrived for {want[v.vehicle_id]}")
    for vid in want:
        if seen.get(vid, 0) != 1:
            errs.append(f"{run.label}: arrival {vid} appears {seen.get(vid, 0)} times")
    for vid in seen:
        if vid not in want:
            errs.append(f"{run.label}: vehicle {vid} never arrived")
    for vid in run.trace_only_ids:
        errs.append(f"{run.label}: vehicle {vid} traced but not scheduled")
    if run.n_vehicles != len(want):
        errs.append(f"{run.label}: reports {run.n_vehicles} vehicles for {len(want)} arrivals")
    return errs


def check_lateral(run: RunOut) -> list[str]:
    """Entry times at every zone two paths share differ by at least the headway."""
    by_zone: dict[int, list[tuple[float, int]]] = {}
    for v in run.vehicles:
        for z, t in zip(v.zone_ids, v.times):
            by_zone.setdefault(z, []).append((t, v.vehicle_id))
    errs = []
    h = run.params.headway
    for z, entries in sorted(by_zone.items()):
        entries.sort()
        for (ta, a), (tb, b) in zip(entries, entries[1:]):
            if tb - ta < h - 1e-9:
                errs.append(f"{run.label}: zone {z} entries of {a} and {b} {tb - ta:.6f} s apart, headway {h}")
    return errs


def _lanes(run: RunOut) -> dict[tuple, list[tuple[VehicleOut, int]]]:
    """Occupants per lane: same zone, same neighbours on the path, same length."""
    lanes: dict[tuple, list[tuple[VehicleOut, int]]] = {}
    for v in run.vehicles:
        ids = v.zone_ids
        for k, z in enumerate(ids):
            key = (
                z,
                ids[k - 1] if k > 0 else None,
                ids[k + 1] if k + 1 < len(ids) else None,
                round(v.seg_lengths[k], 9),
            )
            lanes.setdefault(key, []).append((v, k))
    return lanes


def check_rear_end(run: RunOut) -> list[str]:
    """gap - gamma - phi * v_follower >= 0 between lane neighbours, re-sampled."""
    prm = run.params
    errs = []
    for key, occ in _lanes(run).items():
        occ.sort(key=lambda vk: vk[0].times[vk[1]])
        for (lead, kl), (foll, kf) in zip(occ, occ[1:]):
            if lead.evaluate is None or foll.evaluate is None:
                continue  # reported by check_limits
            t_lo, t_hi = foll.times[kf], foll.times[kf + 1]
            inside = (foll.t > t_lo) & (foll.t < t_hi)
            ts = np.concatenate(([t_lo], foll.t[inside], [t_hi]))
            p_f, v_f = foll.evaluate(ts)
            p_l, _ = lead.evaluate(ts)
            gap = (p_l - lead.offsets[kl]) - (p_f - foll.offsets[kf])
            margin = gap - prm.gamma - prm.phi * v_f
            worst = float(margin.min())
            if worst < -run.tol.position_m:
                errs.append(
                    f"{run.label}: zone {key[0]} follower {foll.vehicle_id} behind "
                    f"{lead.vehicle_id}: margin {worst:.6f} m"
                )
    return errs


def check_limits(run: RunOut) -> tuple[list[str], list[str]]:
    """Speed and control inside their limits on every sample.

    Returns (errors, faults).  A repaired vehicle braking below u_min is the
    known fault of the rear-end repair: its tracking arc applies
    u = (v_leader - v) / phi without clipping.  It is returned apart so the
    run counts as failed rather than wrong; every other breach is an error.
    """
    prm, tol = run.params, run.tol.limit
    errs, faults = [], []
    for v in run.vehicles:
        if len(v.t) == 0:
            errs.append(f"{run.label}: vehicle {v.vehicle_id} has no trajectory samples")
            continue
        if v.v.min() < prm.v_min - tol or v.v.max() > prm.v_max + tol:
            errs.append(f"{run.label}: vehicle {v.vehicle_id} speed in [{v.v.min():.9g}, {v.v.max():.9g}]")
        if v.u.max() > prm.u_max + tol:
            errs.append(f"{run.label}: vehicle {v.vehicle_id} control up to {v.u.max():.9g}")
        if v.u.min() < prm.u_min - tol:
            text = f"{run.label}: vehicle {v.vehicle_id} control down to {v.u.min():.9g}"
            (faults if v.repairs else errs).append(text)
    return errs, faults


def check_hierarchy(run: RunOut) -> list[str]:
    """The trajectory reaches each zone's entry offset at its scheduled time."""
    errs = []
    for v in run.vehicles:
        if v.evaluate is None:
            continue
        p, _ = v.evaluate(np.asarray(v.times))
        miss = np.abs(p - v.offsets)
        k = int(np.argmax(miss))
        if miss[k] > run.tol.position_m:
            where = "exit" if k == len(v.zone_ids) else f"zone {v.zone_ids[k]}"
            errs.append(f"{run.label}: vehicle {v.vehicle_id} off by {miss[k]:.6f} m at {where}")
    return errs


def free_flow_time(length: float, v0: float, u_max: float, v_max: float) -> float:
    """Fastest time over `length` from speed v0: full throttle up to v_max."""
    d_acc = (v_max * v_max - v0 * v0) / (2.0 * u_max)
    if length <= d_acc:
        return (-v0 + math.sqrt(v0 * v0 + 2.0 * u_max * length)) / u_max
    return (v_max - v0) / u_max + (length - d_acc) / v_max


def check_travel_times(run: RunOut) -> list[str]:
    """Travel times sit above free flow and match the schedules and the report."""
    prm = run.params
    errs = []
    for v in run.vehicles:
        floor = free_flow_time(sum(v.seg_lengths), v.entry_speed, prm.u_max, prm.v_max)
        if v.travel_time < floor - 1e-9:
            errs.append(f"{run.label}: vehicle {v.vehicle_id} travel {v.travel_time:.6f} s under free flow {floor:.6f} s")
        if abs(v.travel_time - (v.times[-1] - v.t0)) > 1e-9 or abs(v.times[0] - v.t0) > 1e-9:
            errs.append(f"{run.label}: vehicle {v.vehicle_id} travel time disagrees with its schedule")
    if run.vehicles:
        mean = sum(v.travel_time for v in run.vehicles) / len(run.vehicles)
        if abs(mean - run.avg_travel_time) > 1e-9 * max(1.0, mean):
            errs.append(f"{run.label}: reported mean travel {run.avg_travel_time:.9f} s, vehicles give {mean:.9f} s")
    return errs


def fuel_ml(prm: Params, t: np.ndarray, v: np.ndarray, u: np.ndarray) -> float:
    """Trapezoidal integral of rate(v, u) = cruise(v) + max(u, 0) * accel(v), ml."""
    c0, c1, c2, c3 = prm.fuel_cruise
    a0, a1, a2 = prm.fuel_accel
    rate = ((c3 * v + c2) * v + c1) * v + c0 + np.maximum(u, 0.0) * ((a2 * v + a1) * v + a0)
    return float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t)))


def check_fuel(run: RunOut) -> list[str]:
    if not run.vehicles:
        return []
    mean_l = sum(fuel_ml(run.params, v.t, v.v, v.u) for v in run.vehicles) / len(run.vehicles) / 1000.0
    if abs(mean_l - run.avg_fuel_l) > run.tol.fuel_rel * abs(mean_l):
        return [f"{run.label}: reported fuel {run.avg_fuel_l:.9g} l per vehicle, re-integrated {mean_l:.9g} l"]
    return []


def check_distance(run: RunOut, rel_tol: float = 3e-5) -> list[str]:
    """The integral of v over the trace samples equals the change in p."""
    errs = []
    for v in run.vehicles:
        if len(v.t) < 2:
            continue
        h = np.diff(v.t)
        # trapezoid with the end correction from u = dv/dt: exact while v is
        # quadratic inside a sample interval
        integral = float(np.sum(h * (v.v[1:] + v.v[:-1]) / 2.0 + h * h * (v.u[:-1] - v.u[1:]) / 12.0))
        moved = float(v.p[-1] - v.p[0])
        if abs(integral - moved) > rel_tol * max(1.0, abs(moved)):
            errs.append(f"{run.label}: vehicle {v.vehicle_id} integral of v {integral:.6f} m, p moved {moved:.6f} m")
    return errs


def check_run(run: RunOut, arrivals) -> tuple[list[str], list[str]]:
    """All per-run checks; returns (errors, known faults) as check_limits does."""
    errs, faults = check_limits(run)
    errs += check_arrivals(run, arrivals)
    for check in (check_lateral, check_rear_end, check_hierarchy, check_travel_times, check_fuel):
        errs += check(run)
    return errs, faults


def check_joint(decentralized: RunOut, centralized: RunOut) -> list[str]:
    """The joint solve never loses to the per-vehicle one in the sum of exits."""
    dec = sum(v.times[-1] for v in decentralized.vehicles)
    cen = sum(v.times[-1] for v in centralized.vehicles)
    if cen > dec + 1e-6:
        return [f"{centralized.label}: centralized exit sum {cen:.6f} s above decentralized {dec:.6f} s"]
    return []


ARTIFACTS = ("schedules.json", "trajectory.csv", "metrics.json")


def artifact_bytes(top: str) -> int:
    """Total size of the run artifacts anywhere under top (0 when there are none)."""
    return sum(
        os.path.getsize(os.path.join(d, name))
        for d, _, files in os.walk(top)
        for name in files
        if name in ARTIFACTS
    )
