"""Deterministic corridor simulation: arrivals, scheduling, trajectories.

One run processes a seeded arrival list in order.  Each vehicle gets a
schedule under the configured policy (decentralized optimal, centralized
joint, or first-in-first-out), falling back to reduced boundary speeds and
then to holding at the entry when the corridor saturates.  Schedules turn
into per-zone energy-minimal trajectories, joined into one zone-tagged
Trajectory per vehicle.  Rear-end spacing is sampled along every shared
same-direction stretch and, when it pinches, repaired by splicing a tracking
arc and a re-solved remainder into that zone's arcs; the run aborts if any
margin survives repair negative.
Everything downstream of the seed is deterministic.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .kinematics import BoundaryState, InfeasibleBoundary, Limits, headway_is_safe
from .network import PathSpec, ZoneNetwork, build_network, check_geometry, conflict_runs
from .scheduler import (
    CentralizedEntry,
    Infeasible,
    ScheduleTuple,
    SolveStats,
    ZoneBounds,
    build_instance,
    solve,
    solve_centralized,
    solve_fifo,
)
from .trajectory import NoExitFound, Trajectory, ZoneBVP, check_rear_end, follow_arc, solve_zone

POLICIES = ("decentralized", "centralized", "fifo")

# most vehicles one run may hold: a Poisson n_vehicles, or a volume run's
# expected count (volume/3600 * horizon * paths); scheduling is quadratic in
# the count, so a larger run would not finish anyway
MAX_VEHICLES = 10_000

# least value of each step field: a sampling grid (rear_end_dt, fuel_dt,
# trace_dt) or the boundary-speed scan (vmerge_step) grows as 1/step, and a
# hold (hold_dt) below float resolution would not advance the clock; 1 ms
# is the grid follow_arc already uses
MIN_STEP = 1e-3

# arrival horizons calibrated so expected arrivals match the reference
# vehicle counts (count = 4 paths * volume/3600 * horizon)
VOLUME_HORIZONS = {400.0: 31.5, 600.0: 27.0, 800.0: 28.125, 1000.0: 27.9, 1200.0: 27.0}

# four mutually conflicting paths used by the volume scenario, editable in
# config: EB and NB1 merge onto one link, SB2 crosses both of them at the
# first intersection, WB crosses SB2 at the other one
SCENARIO_PATHS = (
    ("EB", "through"),
    ("NB1", "right-through"),
    ("SB2", "through"),
    ("WB", "through"),
)


class ConfigError(ValueError):
    """Configuration rejected before the run starts."""


class UnsafeHeadway(ConfigError):
    """The configured headway fails the spacing rule for some speed pair."""


class SafetyViolation(RuntimeError):
    """A safety margin survived repair negative; the run is aborted."""


class Saturated(RuntimeError):
    """A vehicle exceeded the hold budget waiting for a feasible slot."""


@dataclass(frozen=True)
class FuelModel:
    """ml/s consumption: cruise polynomial in speed plus a driven-accel term.

    rate(v, u) = c0 + c1 v + c2 v^2 + c3 v^3 + max(u, 0) (a0 + a1 v + a2 v^2).
    Braking burns no more than cruising at the same speed.  The defaults are
    example passenger-car values; calibrate via config for real studies.
    """

    cruise: tuple[float, float, float, float] = (0.1569, 0.0245, -0.0007415, 5.975e-05)
    accel: tuple[float, float, float] = (0.07224, 0.09681, 0.001075)

    def rate(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        c0, c1, c2, c3 = self.cruise
        a0, a1, a2 = self.accel
        cruise = c0 + c1 * v + c2 * v * v + c3 * v**3
        return cruise + np.maximum(u, 0.0) * (a0 + a1 * v + a2 * v * v)

    def to_json(self) -> dict:
        return {"cruise": list(self.cruise), "accel": list(self.accel)}

    @classmethod
    def from_json(cls, data: dict) -> "FuelModel":
        return cls(tuple(data["cruise"]), tuple(data["accel"]))


def fuel_rate(v: float, u: float, model: FuelModel) -> float:
    """Instantaneous consumption in ml/s."""
    return float(model.rate(np.asarray(v, dtype=float), np.asarray(u, dtype=float)))


# JSON types of the scalar config fields: integers and strings are listed,
# every other scalar is a number, and an optional one may also be null
_INT_FIELDS = ("n_vehicles", "seed", "node_budget", "max_holds")
_STR_FIELDS = ("arrival_mode", "policy")
_OPTIONAL_FIELDS = ("horizon", "exit_speed")


def _is_number(x) -> bool:
    """A finite int or float; bool, NaN, the infinities and ints beyond the
    float range are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check_numbers(name: str, values: tuple, n: int) -> None:
    if len(values) != n or not all(_is_number(x) for x in values):
        raise ConfigError(f"{name} must hold {n} finite numbers, got {list(values)!r}")


@dataclass(frozen=True)
class SimConfig:
    approach_length: float = 300.0
    link_length: float = 100.0
    merging_zone_side: float = 30.0
    u_min: float = -1.0
    u_max: float = 1.0
    v_min: float = 5.0
    v_max: float = 25.0
    v_merge: float = 15.0
    headway: float = 1.5
    gamma: float = 5.0
    phi: float = 0.2
    arrival_mode: str = "volume"  # or "poisson"
    volume_veh_h: float = 600.0  # per path
    horizon: float | None = None  # arrival window; defaults calibrated per volume
    paths: tuple[tuple[str, str], ...] = SCENARIO_PATHS
    poisson_rate: float = 1.0  # vehicles per second over all paths
    n_vehicles: int = 30  # poisson mode
    entry_speed_range: tuple[float, float] = (13.0, 16.0)
    seed: int = 0
    policy: str = "decentralized"
    exit_speed: float | None = None
    fuel: FuelModel = field(default_factory=FuelModel)
    scheduling_horizon: float = 600.0  # read by nothing; kept so old configs still load
    rear_end_dt: float = 0.01
    fuel_dt: float = 0.01
    trace_dt: float = 0.1
    vmerge_step: float = 0.5
    node_budget: int = 4000
    max_holds: int = 60
    hold_dt: float = 1.0

    def limits(self) -> Limits:
        return Limits(self.u_min, self.u_max, self.v_min, self.v_max)

    def validate(self) -> None:
        for name in self.__dataclass_fields__:
            if name in ("fuel", "paths", "entry_speed_range"):
                continue
            value = getattr(self, name)
            if name in _INT_FIELDS:
                ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
            elif name in _STR_FIELDS:
                ok, want = isinstance(value, str), "a string"
            else:
                ok = _is_number(value) or (name in _OPTIONAL_FIELDS and value is None)
                want = "a finite number"
            if not ok:
                raise ConfigError(f"{name} must be {want}, got {value!r}")
        _check_numbers("entry_speed_range", self.entry_speed_range, 2)
        _check_numbers("fuel cruise", self.fuel.cruise, 4)
        _check_numbers("fuel accel", self.fuel.accel, 3)
        try:
            lim = self.limits()
            check_geometry(self.approach_length, self.link_length, self.merging_zone_side)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.arrival_mode not in ("volume", "poisson"):
            raise ConfigError(f"unknown arrival mode {self.arrival_mode!r}")
        if not (lim.v_min < self.v_merge < lim.v_max):
            raise ConfigError("v_merge must lie strictly inside the speed limits")
        lo, hi = self.entry_speed_range
        if not (lim.v_min <= lo <= hi <= lim.v_max):
            raise ConfigError("entry speed range must sit inside the speed limits")
        if self.headway <= 0:
            raise ConfigError("headway must be positive")
        if self.arrival_mode == "volume":
            if self.volume_veh_h <= 0:
                raise ConfigError("volume must be positive")
            if self.horizon is None and float(self.volume_veh_h) not in VOLUME_HORIZONS:
                raise ConfigError("horizon required for off-reference volumes")
            expected = self.volume_veh_h / 3600.0 * self.arrival_horizon() * len(self.paths)
            if expected > MAX_VEHICLES:
                raise ConfigError(
                    f"volume and horizon expect {expected:.6g} vehicles, above the "
                    f"{MAX_VEHICLES} a run may hold"
                )
        else:
            if self.poisson_rate <= 0 or self.n_vehicles <= 0:
                raise ConfigError("poisson mode needs a positive rate and vehicle count")
            if self.n_vehicles > MAX_VEHICLES:
                raise ConfigError(
                    f"n_vehicles must be at most {MAX_VEHICLES}, got {self.n_vehicles}"
                )
        if not self.paths:
            raise ConfigError("at least one path required")
        for name in ("rear_end_dt", "fuel_dt", "trace_dt", "hold_dt", "vmerge_step"):
            if not getattr(self, name) >= MIN_STEP:
                raise ConfigError(f"{name} must be at least {MIN_STEP}, got {getattr(self, name)!r}")
        for name in ("seed", "node_budget", "max_holds"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)!r}")
        # the headway must clear the rear-end rule for every configured
        # boundary speed pairing (slowest leader against fastest follower)
        speeds = [self.v_merge, lo, hi]
        if self.exit_speed is not None:
            speeds.append(self.exit_speed)
        v_lead, v_follow = min(speeds), max(speeds)
        if not headway_is_safe(self.headway, v_lead, v_follow, self.gamma, self.phi, lim.u_min):
            raise UnsafeHeadway(
                f"unsafe headway: h={self.headway} fails the spacing rule for "
                f"leader at {v_lead} m/s and follower at {v_follow} m/s"
            )

    def arrival_horizon(self) -> float:
        if self.horizon is not None:
            return self.horizon
        return VOLUME_HORIZONS[float(self.volume_veh_h)]

    def to_json(self) -> dict:
        data = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__
            if k not in ("fuel", "paths", "entry_speed_range")
        }
        data["fuel"] = self.fuel.to_json()
        data["paths"] = [list(p) for p in self.paths]
        data["entry_speed_range"] = list(self.entry_speed_range)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)

        def convert(name, fn):
            if name in kwargs:
                try:
                    kwargs[name] = fn(kwargs[name])
                except (KeyError, TypeError, ValueError) as e:
                    raise ConfigError(f"malformed {name}: {e}") from None

        convert("fuel", FuelModel.from_json)
        convert("paths", lambda paths: tuple((str(a), str(b)) for a, b in paths))
        convert("entry_speed_range", tuple)
        try:
            return cls(**kwargs)
        except TypeError as e:
            raise ConfigError(str(e)) from e


@dataclass(frozen=True)
class Arrival:
    vehicle_id: int
    t0: float
    origin: str
    movement: str
    entry_speed: float


def generate_arrivals(config: SimConfig, net: ZoneNetwork | None = None) -> list[Arrival]:
    """Seeded arrival list, sorted by entry time.

    Volume mode draws one exponential-gap process per configured path at
    volume/3600 vehicles per second over the arrival horizon; poisson mode
    draws one global process and assigns paths uniformly.  Same-origin
    arrivals are pushed apart to at least one headway because a lane admits
    one vehicle at a time.
    """
    config.validate()
    net = net or build_network(config.approach_length, config.link_length, config.merging_zone_side)
    rng = np.random.default_rng(config.seed)
    raw: list[tuple[float, str, str]] = []
    if config.arrival_mode == "volume":
        rate = config.volume_veh_h / 3600.0
        horizon = config.arrival_horizon()
        for origin, movement in config.paths:
            try:
                net.path_for(origin, movement)  # fail fast on unknown paths
            except KeyError:
                raise ConfigError(f"unknown path [{origin!r}, {movement!r}] in paths") from None
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t > horizon:
                    break
                raw.append((t, origin, movement))
    else:
        all_paths = [(p.origin, p.movement) for p in net.all_paths()]
        t = 0.0
        for _ in range(config.n_vehicles):
            t += float(rng.exponential(1.0 / config.poisson_rate))
            origin, movement = all_paths[int(rng.integers(0, len(all_paths)))]
            raw.append((t, origin, movement))
    raw.sort(key=lambda r: r[0])
    last_at: dict[str, float] = {}
    spaced = []
    gap = config.headway + 1e-6
    for t, origin, movement in raw:
        t = max(t, last_at.get(origin, -math.inf) + gap)
        last_at[origin] = t
        spaced.append((t, origin, movement))
    lo, hi = config.entry_speed_range
    speeds = rng.uniform(lo, hi, len(spaced))
    arrivals = [
        Arrival(i, t, origin, movement, float(speeds[i]))
        for i, (t, origin, movement) in enumerate(spaced)
    ]
    arrivals.sort(key=lambda a: a.t0)
    return arrivals


@dataclass
class VehicleRecord:
    vehicle_id: int
    queue_index: int
    origin: str
    movement: str
    path: PathSpec
    t0: float
    t0_requested: float
    entry_speed: float
    boundary_speed: float  # adopted zone-boundary speed; fallback may lower it
    bounds: tuple[ZoneBounds, ...]
    schedule: ScheduleTuple
    stats: SolveStats
    trajectory: Trajectory | None = None
    holds: int = 0
    repairs: int = 0

    @property
    def travel_time(self) -> float:
        return self.schedule.exit_time - self.t0


@dataclass
class MetricsReport:
    policy: str
    n_vehicles: int
    avg_travel_time: float
    median_travel_time: float
    p90_travel_time: float
    max_travel_time: float
    avg_fuel_rate_ml_s: float
    avg_fuel_consumption_l: float
    solver_ms_mean: float
    solver_ms_std: float
    lateral_violations: int
    rear_end_violations: int
    min_speed: float
    speed_series: dict
    holds: int
    fallbacks: int
    repairs: int
    centralized_optimal: bool | None = None

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SimResult:
    config: SimConfig
    arrivals: list[Arrival]
    records: list[VehicleRecord]
    metrics: MetricsReport
    network: ZoneNetwork


def _schedule_once(
    vehicle_id: int,
    path: PathSpec,
    t0: float,
    entry_speed: float,
    v_boundary: float,
    committed: list[tuple[ScheduleTuple, PathSpec]],
    config: SimConfig,
    fifo: bool,
) -> tuple[ScheduleTuple, SolveStats, tuple[ZoneBounds, ...]]:
    model = build_instance(
        vehicle_id, path, t0, entry_speed, committed, config.limits(),
        v_boundary, config.headway, exit_speed=config.exit_speed,
    )
    sched, stats = (solve_fifo if fifo else solve)(model)
    return sched, stats, model.windows


def _fallback_speeds(config: SimConfig) -> list[float]:
    """Descending boundary-speed candidates below the configured merge speed."""
    out = []
    k = 1
    while True:
        v = config.v_merge - k * config.vmerge_step
        if v < config.v_min + config.vmerge_step - 1e-9:
            break
        out.append(v)
        k += 1
    return out


def schedule_with_fallback(
    vehicle_id: int,
    path: PathSpec,
    t0: float,
    entry_speed: float,
    committed: list[tuple[ScheduleTuple, PathSpec]],
    config: SimConfig,
    fifo: bool = False,
) -> tuple[ScheduleTuple, SolveStats, tuple[ZoneBounds, ...], float] | None:
    """Schedule at the configured boundary speed, scanning downward on failure.

    Returns (schedule, stats, windows, adopted speed), or None when no
    boundary speed in the scan admits a feasible schedule.
    """
    for v_boundary in [config.v_merge] + _fallback_speeds(config):
        try:
            sched, stats, bounds = _schedule_once(
                vehicle_id, path, t0, entry_speed, v_boundary, committed, config, fifo
            )
            return sched, stats, bounds, v_boundary
        except (Infeasible, InfeasibleBoundary):
            continue
    return None


def synthesize_trajectory(
    path: PathSpec,
    schedule: ScheduleTuple,
    bounds: tuple[ZoneBounds, ...],
    entry_speed: float,
    boundary_speed: float,
    config: SimConfig,
) -> Trajectory:
    """Energy-minimal trajectory per zone between the scheduled times, joined."""
    lim = config.limits()
    offs = path.entry_offsets + (path.total_length,)
    n = len(path.zone_ids)
    exit_speed = config.exit_speed if config.exit_speed is not None else boundary_speed
    speeds = [entry_speed] + [boundary_speed] * (n - 1) + [exit_speed]
    zones = []
    for k in range(n):
        bvp = ZoneBVP(
            path.zone_ids[k],
            schedule.times[k],
            schedule.times[k + 1],
            BoundaryState(offs[k], speeds[k]),
            BoundaryState(offs[k + 1], speeds[k + 1]),
            lim,
        )
        zones.append(solve_zone(bvp, bounds[k]))
    return Trajectory(sum((z.arcs for z in zones), ()), sum((z.zone_ids for z in zones), ()))


def _truncate_arcs(arcs: tuple, tau: float) -> list:
    """Arcs of a zone trajectory restricted to times at most tau."""
    kept = []
    for a in arcs:
        if a.t1 <= tau + 1e-12:
            kept.append(a)
        elif a.t0 < tau - 1e-12:
            kept.append(replace(a, t1=tau))
    return kept


def _repair_follower(
    follower: VehicleRecord,
    leader: VehicleRecord,
    zone_id: int,
    config: SimConfig,
) -> bool:
    """Rebuild the follower's motion in one zone behind a leader.

    Truncates at the tangency point, tracks the leader until the remaining
    stretch solves clean, then re-solves that remainder; the follower's
    schedule is untouched.  Returns True when a violation was present.
    """
    lim = config.limits()
    k = follower.path.index_of(zone_id)
    zone_arcs = follower.trajectory.zone(zone_id)
    t_lo, t_hi = zone_arcs[0].t0, zone_arcs[-1].t1
    l_anchor = leader.path.entry_offset(zone_id)
    f_anchor = follower.path.entry_offset(zone_id)
    viol = check_rear_end(
        leader.trajectory, l_anchor, follower.trajectory, f_anchor,
        t_lo, t_hi, config.gamma, config.phi, dt=config.rear_end_dt,
    )
    if not viol:
        return False

    def margin(t: float) -> float:
        pl, _vl, _ = leader.trajectory.eval(t)
        pf, vf, _ = follower.trajectory.eval(t)
        return (pl - l_anchor) - (pf - f_anchor) - config.gamma - config.phi * vf

    t_bad = viol[0][0]
    if margin(t_lo) <= 0.0:
        tau1 = t_lo  # pinched from zone entry on; track immediately
    else:
        lo, hi = t_lo, t_bad
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        tau1 = lo
    p1, v1, _ = follower.trajectory.eval(tau1)
    offs = follower.path.entry_offsets + (follower.path.total_length,)
    end_state = BoundaryState(offs[k + 1], zone_arcs[-1].end_state()[1])
    bvp = ZoneBVP(zone_id, tau1, t_hi, BoundaryState(p1, v1), end_state, lim)
    arcs, _tau2, info = follow_arc(
        tau1, (p1, v1), leader.trajectory, l_anchor, f_anchor, bvp, config.gamma, config.phi,
    )
    kept = _truncate_arcs(zone_arcs, tau1)
    # splice the exact remainder the exit test validated
    follower.trajectory = follower.trajectory.with_zone(
        zone_id, tuple(kept) + arcs + info["remainder"].arcs
    )
    follower.repairs += 1
    return True


def enforce_rear_end(records: list[VehicleRecord], config: SimConfig) -> int:
    """Check and repair spacing on every shared same-direction zone.

    Each vehicle's zones are bucketed by how it traverses them: the zone
    reached from the same predecessor, left to the same successor, over the
    same in-zone length is one lane, where progress differences are gaps.
    Two paths sharing a lane run through it and a neighbour in the same
    order, a merge or the same path.  Crossing movements and diverging
    turns fall into separate lanes and are covered by the schedule's
    headway ties instead.  Followers are repaired zone by zone, in entry
    order within each lane; lanes of one zone hold disjoint vehicles, and a
    repair changes only the follower's own motion inside that zone, so
    re-checking the pair there suffices.  Returns the number of repairs
    applied; residual violations raise SafetyViolation since committed
    schedules rule them out.
    """
    lanes: dict[tuple, list[VehicleRecord]] = {}
    for r in records:
        ids = r.path.zone_ids
        for k, z in enumerate(ids):
            lane = (
                z,
                ids[k - 1] if k > 0 else None,
                ids[k + 1] if k + 1 < len(ids) else None,
                round(r.path.seg_lengths[k], 9),
            )
            lanes.setdefault(lane, []).append(r)
    repairs = 0
    pairs = []
    for (z, *_), members in sorted(lanes.items(), key=lambda item: item[0][0]):
        ordered = sorted(members, key=lambda r: r.schedule.time_at(z))
        pairs.extend((z, lead, foll) for lead, foll in zip(ordered, ordered[1:]))
    for z, lead, foll in pairs:
        try:
            repaired = _repair_follower(foll, lead, z, config)
        except (NoExitFound, InfeasibleBoundary) as e:
            raise SafetyViolation(
                f"vehicle {foll.vehicle_id} cannot clear vehicle "
                f"{lead.vehicle_id} in zone {z}: {e}"
            ) from e
        if not repaired:
            # _repair_follower just ran this same check on these trajectories
            continue
        repairs += 1
        zone_arcs = foll.trajectory.zone(z)
        # a tracking arc rides the spacing rule as an equality and the
        # spliced remainder is accepted strictly inside this tolerance,
        # so anything at or below it is a genuine defect
        resid = check_rear_end(
            lead.trajectory, lead.path.entry_offset(z),
            foll.trajectory, foll.path.entry_offset(z),
            zone_arcs[0].t0, zone_arcs[-1].t1, config.gamma, config.phi, dt=config.rear_end_dt,
            tol=1e-6,
        )
        if resid:
            raise SafetyViolation(
                f"rear-end margin {resid[0][2]:.6f} m between vehicles "
                f"{lead.vehicle_id} and {foll.vehicle_id} in zone {z}"
            )
    return repairs


def check_lateral(records: list[VehicleRecord], headway: float) -> int:
    """Count conflict-zone entry pairs closer than one headway."""
    bad = 0
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            for run in conflict_runs(a.path, b.path):
                for z in run.zones:
                    if abs(a.schedule.time_at(z) - b.schedule.time_at(z)) < headway - 1e-9:
                        bad += 1
    return bad


def run(config: SimConfig, arrivals: list[Arrival] | None = None) -> SimResult:
    """Process one seeded arrival list under the configured policy."""
    config.validate()
    net = build_network(config.approach_length, config.link_length, config.merging_zone_side)
    if arrivals is None:
        arrivals = generate_arrivals(config, net)
    fifo = config.policy == "fifo"

    # pending entries ordered by (time, path length, id); holds push back
    pending = [
        (a.t0, len(net.path_for(a.origin, a.movement).zone_ids), a.vehicle_id, a)
        for a in arrivals
    ]
    heapq.heapify(pending)
    records: list[VehicleRecord] = []
    active: list[VehicleRecord] = []
    holds_total = 0
    queue_counter = 0

    while pending:
        t0, _plen, _vid, arr = heapq.heappop(pending)
        path = net.path_for(arr.origin, arr.movement)
        # vehicles gone from the control zone lay no constraints: even at the
        # exit zone their entry precedes t0 by at least that zone's release,
        # which dwarfs the headway
        active = [r for r in active if r.schedule.exit_time > t0]
        if not active:
            queue_counter = 0  # queue index restarts once the corridor empties
        committed = [(r.schedule, r.path) for r in active]
        got = schedule_with_fallback(
            arr.vehicle_id, path, t0, arr.entry_speed, committed, config, fifo=fifo
        )
        if got is None:
            holds = int(round((t0 - arr.t0) / config.hold_dt))
            if holds >= config.max_holds:
                raise Saturated(
                    f"vehicle {arr.vehicle_id} held {holds} times at the entry "
                    f"of {arr.origin}; corridor is over capacity"
                )
            holds_total += 1
            heapq.heappush(
                pending, (t0 + config.hold_dt, len(path.zone_ids), arr.vehicle_id, arr)
            )
            continue
        sched, stats, bounds, v_boundary = got
        queue_counter += 1
        rec = VehicleRecord(
            vehicle_id=arr.vehicle_id,
            queue_index=queue_counter,
            origin=arr.origin,
            movement=arr.movement,
            path=path,
            t0=t0,
            t0_requested=arr.t0,
            entry_speed=arr.entry_speed,
            boundary_speed=v_boundary,
            bounds=bounds,
            schedule=sched,
            stats=stats,
            holds=int(round((t0 - arr.t0) / config.hold_dt)),
        )
        rec.trajectory = synthesize_trajectory(
            path, sched, bounds, arr.entry_speed, v_boundary, config
        )
        records.append(rec)
        active.append(rec)

    if config.policy == "centralized" and records:
        records = _rerun_centralized(records, config)

    repairs = enforce_rear_end(records, config)
    lateral = check_lateral(records, config.headway)
    if lateral:
        raise SafetyViolation(f"{lateral} conflict-zone entry pairs closer than the headway")
    metrics = compute_metrics(records, config, holds_total, repairs)
    return SimResult(config, arrivals, records, metrics, net)


def _rerun_centralized(records: list[VehicleRecord], config: SimConfig) -> list[VehicleRecord]:
    """Swap sequential schedules for one joint solve seeded by them."""
    ordered = sorted(records, key=lambda r: (r.t0, r.vehicle_id))
    entries = [
        CentralizedEntry(r.vehicle_id, r.path, r.t0, windows=r.bounds) for r in ordered
    ]
    seeds = {r.vehicle_id: r.schedule for r in ordered}
    scheds, cstats = solve_centralized(
        entries, config.headway, node_budget=config.node_budget, seed_schedules=seeds
    )
    for r in ordered:
        r.schedule = scheds[r.vehicle_id]
        r.stats = replace(cstats, wall_ms=cstats.wall_ms / len(ordered))
        r.trajectory = synthesize_trajectory(
            r.path, r.schedule, r.bounds, r.entry_speed, r.boundary_speed, config
        )
    return ordered


def compute_metrics(
    records: list[VehicleRecord],
    config: SimConfig,
    holds: int,
    repairs: int,
) -> MetricsReport:
    if not records:
        raise ConfigError("no vehicles were simulated")
    tt = np.asarray([r.travel_time for r in records])
    solver_ms = np.asarray([r.stats.wall_ms for r in records])
    fuel_rates = []
    fuel_totals = []
    for r in records:
        t, _p, v, u = r.trajectory.sample(config.fuel_dt)
        rate = config.fuel.rate(v, u)
        total_ml = float(np.trapezoid(rate, t))
        fuel_totals.append(total_ml / 1000.0)
        fuel_rates.append(total_ml / (t[-1] - t[0]))
    t_lo = min(r.t0 for r in records)
    t_hi = max(r.schedule.exit_time for r in records)
    grid = np.arange(t_lo, t_hi, 0.5)
    # speeds per grid column in record order, each record evaluated once
    # over the grid points inside [t0, exit]
    columns: list[list[float]] = [[] for _ in range(len(grid))]
    for r in records:
        lo = int(np.searchsorted(grid, r.t0, side="left"))
        hi = int(np.searchsorted(grid, r.schedule.exit_time, side="right"))
        _p, v, _u = r.trajectory.eval_many(grid[lo:hi])
        for col, x in zip(columns[lo:hi], v.tolist()):
            col.append(x)
    mins: list[float | None] = []
    means: list[float | None] = []
    maxs: list[float | None] = []
    min_speed = math.inf
    for vs in columns:
        if vs:
            mins.append(min(vs))
            means.append(sum(vs) / len(vs))
            maxs.append(max(vs))
            min_speed = min(min_speed, min(vs))
        else:
            mins.append(None)
            means.append(None)
            maxs.append(None)
    fallbacks = sum(1 for r in records if r.boundary_speed != config.v_merge)
    cent = None
    if config.policy == "centralized":
        cent = all(r.stats.optimal for r in records)
    return MetricsReport(
        policy=config.policy,
        n_vehicles=len(records),
        avg_travel_time=float(tt.mean()),
        median_travel_time=float(np.median(tt)),
        p90_travel_time=float(np.percentile(tt, 90)),
        max_travel_time=float(tt.max()),
        avg_fuel_rate_ml_s=float(np.mean(fuel_rates)),
        avg_fuel_consumption_l=float(np.mean(fuel_totals)),
        solver_ms_mean=float(solver_ms.mean()),
        solver_ms_std=float(solver_ms.std()),
        lateral_violations=0,
        rear_end_violations=0,
        min_speed=float(min_speed),
        speed_series={
            "t": [float(x) for x in grid],
            "min": mins,
            "mean": means,
            "max": maxs,
        },
        holds=holds,
        fallbacks=fallbacks,
        repairs=repairs,
        centralized_optimal=cent,
    )


def compare_policies(
    config: SimConfig,
    policies: tuple[str, ...] = POLICIES,
    arrivals: list[Arrival] | None = None,
) -> dict[str, SimResult]:
    """Run every policy on one shared arrival list."""
    config.validate()
    if arrivals is None:
        net = build_network(config.approach_length, config.link_length, config.merging_zone_side)
        arrivals = generate_arrivals(config, net)
    return {
        policy: run(replace(config, policy=policy), arrivals=arrivals)
        for policy in policies
    }


def schedules_json(result: SimResult) -> dict:
    return {
        "policy": result.config.policy,
        "seed": result.config.seed,
        "vehicles": [
            {
                "vehicle_id": r.vehicle_id,
                "queue_index": r.queue_index,
                "origin": r.origin,
                "movement": r.movement,
                "t0": r.t0,
                "entry_speed": r.entry_speed,
                "boundary_speed": r.boundary_speed,
                "holds": r.holds,
                "repairs": r.repairs,
                "travel_time": r.travel_time,
                "schedule": r.schedule.to_json(),
            }
            for r in result.records
        ],
    }


def trajectory_csv_rows(result: SimResult):
    """Rows (vehicle, t, zone, p, v, u) of Python numbers at the configured trace step."""
    for r in result.records:
        t, p, v, u = r.trajectory.sample(result.config.trace_dt)
        zones = r.trajectory.zone_at(t)
        yield from zip(repeat(r.vehicle_id), t.tolist(), zones.tolist(), p.tolist(), v.tolist(), u.tolist())


def metrics_json(result: SimResult) -> dict:
    data = result.metrics.to_json()
    data["config"] = result.config.to_json()
    return data
