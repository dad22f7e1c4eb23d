"""Closed-form traversal-time bounds for a double-integrator vehicle on a road segment.

A vehicle with state (position p, speed v) and bounded control u in
[u_min, u_max], v in [v_min, v_max] must traverse a zone from boundary state
(p_s, v_s) to (p_e, v_e).  The fastest feasible traversal time (the zone's
*release*) is achieved by a max-accel / max-decel profile, possibly clipped by
a cruise at v_max; the slowest (the *deadline*) by the mirrored decel / accel
profile, possibly clipped at v_min.  Both are available in closed form, which
is what makes the upstream scheduling problem cheap.

When v_min == 0 the slowest traversal is unbounded (the vehicle may sit
still); deadline() then returns the UNBOUNDED marker instead of a number so
callers can distinguish "no upper bound" from "large bound".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Boundary pairs satisfiable within this tolerance are accepted; exact
# single-arc cases land on the feasibility boundary up to float noise.
FEAS_TOL = 1e-7


class InfeasibleBoundary(ValueError):
    """No control within the limits joins the two boundary states."""


class _Unbounded:
    """Singleton marker for a deadline with no finite upper bound."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"

    def __reduce__(self):
        return (_Unbounded, ())


UNBOUNDED = _Unbounded()


@dataclass(frozen=True)
class Limits:
    """Box limits on control and speed."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        if not self.u_min < 0 < self.u_max:
            raise ValueError("need u_min < 0 < u_max")
        if not 0 <= self.v_min < self.v_max:
            raise ValueError("need 0 <= v_min < v_max")


@dataclass(frozen=True)
class BoundaryState:
    """Position and speed at a zone boundary."""

    position: float
    speed: float


@dataclass(frozen=True)
class Segment:
    """Constant-acceleration piece of a profile."""

    accel: float
    duration: float


@dataclass(frozen=True)
class AccelProfile:
    """Piecewise-constant acceleration profile anchored at a start state.

    Durations are non-negative; speed and position integrate exactly as
    piecewise linear / quadratic functions of time.
    """

    start: BoundaryState
    segments: tuple[Segment, ...]

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def end_state(self) -> BoundaryState:
        p, v = self.start.position, self.start.speed
        for s in self.segments:
            p += v * s.duration + 0.5 * s.accel * s.duration**2
            v += s.accel * s.duration
        return BoundaryState(p, v)

    def speed_range(self) -> tuple[float, float]:
        """Min and max speed attained over the profile (at junctions)."""
        v = self.start.speed
        lo = hi = v
        for s in self.segments:
            v += s.accel * s.duration
            lo = min(lo, v)
            hi = max(hi, v)
        return lo, hi


@dataclass(frozen=True)
class ReleaseResult:
    time: float
    profile: AccelProfile


@dataclass(frozen=True)
class DeadlineResult:
    time: float | _Unbounded
    profile: AccelProfile | None

    def is_unbounded(self) -> bool:
        return self.time is UNBOUNDED


@dataclass(frozen=True)
class ProfileSamples:
    """Sampled kinematic series for a profile."""

    t: np.ndarray
    p: np.ndarray
    v: np.ndarray


def _check_boundary(start: BoundaryState, end: BoundaryState, lim: Limits) -> None:
    if end.position <= start.position:
        raise InfeasibleBoundary("zone must have positive length")
    for s in (start.speed, end.speed):
        if not (lim.v_min - FEAS_TOL <= s <= lim.v_max + FEAS_TOL):
            raise InfeasibleBoundary(f"boundary speed {s} outside [{lim.v_min}, {lim.v_max}]")


def _build(start: BoundaryState, pieces: list[tuple[float, float]]) -> AccelProfile:
    segs = tuple(Segment(a, d) for a, d in pieces if d > 1e-12)
    return AccelProfile(start, segs)


def release_time(start: BoundaryState, end: BoundaryState, lim: Limits) -> ReleaseResult:
    """Fastest feasible traversal: accelerate hard, then brake to the exit speed.

    The accel/decel switch position follows from eliminating time between the
    two constant-acceleration arcs; if the peak speed there exceeds v_max the
    profile clips to accel / cruise at v_max / decel and the traversal time
    comes out in closed form as well.
    """
    _check_boundary(start, end, lim)
    ps, pe = start.position, end.position
    vs, ve = start.speed, end.speed
    umax, umin = lim.u_max, lim.u_min

    pc = (ve**2 - vs**2 + 2.0 * (umax * ps - umin * pe)) / (2.0 * (umax - umin))
    vc_sq = vs**2 + 2.0 * umax * (pc - ps)
    floor = max(vs**2, ve**2)
    if vc_sq < floor - FEAS_TOL:
        # switch point falls outside the zone: the end state is unreachable
        raise InfeasibleBoundary("no accel/decel profile meets the boundary states")
    vc = math.sqrt(max(vc_sq, floor))

    if vc <= lim.v_max + 1e-12:
        t_up = (vc - vs) / umax
        t_dn = (ve - vc) / umin
        prof = _build(start, [(umax, t_up), (umin, t_dn)])
        return ReleaseResult(t_up + t_dn, prof)

    # peak clipped at v_max: accel to v_max, cruise, decel
    vmax = lim.v_max
    a = vs**2 * umin - ve**2 * umax + (umin - umax) * vmax**2
    b = 2.0 * umin * umax * (pe - ps) + 2.0 * vmax * (ve * umax - vs * umin)
    t_total = (a + b) / (2.0 * umin * umax * vmax)
    t_up = (vmax - vs) / umax
    p_up = ps + (vmax**2 - vs**2) / (2.0 * umax)
    p_dn = pe + (vmax**2 - ve**2) / (2.0 * umin)
    t_cruise = (p_dn - p_up) / vmax
    t_dn = (ve - vmax) / umin
    prof = _build(start, [(umax, t_up), (0.0, t_cruise), (umin, t_dn)])
    return ReleaseResult(t_total, prof)


def deadline(start: BoundaryState, end: BoundaryState, lim: Limits) -> DeadlineResult:
    """Slowest feasible traversal: brake first, then accelerate to the exit speed.

    The switch position mirrors the release case with the accelerations
    swapped.  If the dip at the switch would fall below v_min the profile
    clips to decel / cruise at v_min / accel; with v_min == 0 the cruise can
    last forever and the deadline is UNBOUNDED.
    """
    _check_boundary(start, end, lim)
    ps, pe = start.position, end.position
    vs, ve = start.speed, end.speed
    umax, umin = lim.u_max, lim.u_min

    pc = (ve**2 - vs**2 + 2.0 * (umin * ps - umax * pe)) / (2.0 * (umin - umax))
    vc_sq = vs**2 + 2.0 * umin * (pc - ps)
    ceil = min(vs**2, ve**2)
    if vc_sq > ceil + FEAS_TOL:
        # switch point falls outside the zone: even the slowest profile
        # cannot meet the end state (decel/accel distance exceeds the zone)
        raise InfeasibleBoundary("no decel/accel profile meets the boundary states")

    if vc_sq >= lim.v_min**2 - FEAS_TOL:
        vc = math.sqrt(max(min(vc_sq, ceil), 0.0))
        t_dn = (vc - vs) / umin
        t_up = (ve - vc) / umax
        prof = _build(start, [(umin, t_dn), (umax, t_up)])
        return DeadlineResult(t_dn + t_up, prof)

    if lim.v_min == 0.0:
        # vehicle can come to rest inside the zone and wait indefinitely
        return DeadlineResult(UNBOUNDED, None)

    # dip clipped at v_min: decel to v_min, cruise, accelerate out
    vmin = lim.v_min
    t_dn = (vmin - vs) / umin
    p_dn = ps + (vmin**2 - vs**2) / (2.0 * umin)
    p_up = pe + (vmin**2 - ve**2) / (2.0 * umax)
    if p_up < p_dn - FEAS_TOL:
        raise InfeasibleBoundary("ramp distances exceed the zone length")
    t_cruise = max(p_up - p_dn, 0.0) / vmin
    t_up = (ve - vmin) / umax
    prof = _build(start, [(umin, t_dn), (0.0, t_cruise), (umax, t_up)])
    return DeadlineResult(t_dn + t_cruise + t_up, prof)


def integrate_profile(profile: AccelProfile, dt: float) -> ProfileSamples:
    """Exact kinematic series sampled every dt, endpoint included."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    total = profile.duration
    # segment boundary states, computed once in closed form
    bounds = [0.0]
    states = [(profile.start.position, profile.start.speed)]
    p, v = states[0]
    for s in profile.segments:
        p += v * s.duration + 0.5 * s.accel * s.duration**2
        v += s.accel * s.duration
        bounds.append(bounds[-1] + s.duration)
        states.append((p, v))

    n = int(math.floor(total / dt + 1e-9))
    t = np.arange(n + 1) * dt
    if total - t[-1] > 1e-9:
        t = np.append(t, total)
    else:
        t[-1] = total

    idx = np.searchsorted(bounds, t, side="right") - 1
    idx = np.clip(idx, 0, max(len(profile.segments) - 1, 0))
    p0, v0 = (np.asarray(col)[idx] for col in zip(*states))
    a = np.asarray([s.accel for s in profile.segments] or [0.0])[idx]
    tau = t - np.asarray(bounds)[idx]
    return ProfileSamples(t, p0 + v0 * tau + 0.5 * a * tau**2, v0 + a * tau)


def headway_is_safe(
    h: float,
    v_lead_entry: float,
    v_follow_entry: float,
    gamma: float,
    phi: float,
    u_min: float,
) -> bool:
    """Whether a time headway h keeps the speed-dependent gap at the handoff.

    Worst case: the leader crosses the boundary and immediately brakes at
    u_min for the whole headway while the follower arrives at its entry
    speed.  The spacing requirement gamma + phi * v_follow must still hold
    when the follower reaches the boundary at time h.
    """
    return 0.5 * u_min * h * h + v_lead_entry * h - phi * v_follow_entry - gamma > 0.0
