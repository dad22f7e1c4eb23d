"""Energy-minimal zone trajectories between scheduled boundary times.

Given a zone's boundary states and the scheduled window [t_start, t_end], the
control minimizing the effort integral 1/2 * u^2 subject to double-integrator
dynamics is piecewise: on every unconstrained stretch the optimal control is
linear in time (a cubic position polynomial), constant-control arcs appear
where a control bound saturates, and constant-speed arcs where a speed bound
pins the state.  Because the effort Hamiltonian keeps the position costate
constant across a zone, all unconstrained stretches share one control slope;
control is continuous at control-bound junctions and zero where a cruise
begins or ends.  That structure puts every zone solve in closed form:

  - pure cubic when nothing saturates, its coefficients from the four
    boundary conditions (_cubic_coeffs),
  - saturated-linear control (bang / cubic / bang) when only control bounds
    bind: a one-sided bang's junction time is the root of a linear
    equation, and bang / cubic / bang's the smaller root of a quadratic
    (_sat_linear),
  - ramp / cruise / ramp pinned at v_max or v_min, parametrized by the shared
    control slope, when a speed bound binds; the least slope whose ramps
    fit is one quadratic root (_min_cruise_slope), and the landing slope,
    in x = 1/sqrt(slope), the root of a*x^4 + b*x = c on the one interval
    between ramp breakpoints that holds it (_with_cruise),
  - the closed-form fastest or slowest profile when the window equals the
    zone's release or deadline.

Every motion is one type, Trajectory: time-ordered arcs, each tagged with
its zone.  solve_zone returns a one-zone Trajectory, a vehicle's traversal
joins its zones' arcs, and a repair splices new arcs into one zone
(Trajectory.with_zone).  Before its first arc a Trajectory holds its start
state; past its last arc it coasts at its exit speed.

A rear-end safety arc (follower tracking a leader under the speed-dependent
spacing rule) is solved in closed form, one follow arc per leader piece: a
cubic plus a polynomial times e^(-t/phi).  Its entry control comes from the
tangency condition and it ends as soon as the remainder, re-solved inside
its own release/deadline window, stays clear of the constraint.  Costate
jump bookkeeping at those junctions is reported, not enforced.

Each candidate exit is tested on check_rear_end's 1 ms grid, but through a
screen (_exit_trough): every 32nd sample is evaluated, and a stretch between
two of them is skipped only where a Lipschitz bound on the margin, built
from per-arc bounds on |dv/dt|, proves that none of its samples falls below
the tolerance.  The rest is evaluated exactly as the full scan evaluates it,
so the screen returns the full scan's worst margin bit for bit and no
verdict, and no exit, can change.  check_rear_end itself stays the plain
full scan that the safety checks and tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .kinematics import BoundaryState, InfeasibleBoundary, deadline, release_time
from .scheduler import ZoneBounds

BOUND_TOL = 1e-7  # fidelity and limit-respect tolerance on returned trajectories
_DISPATCH_TOL = 1e-7  # window-vs-release/deadline match for profile reuse


class SingularWindow(ValueError):
    """Zone window is empty or inverted."""


class PiecingDiverged(RuntimeError):
    """Arc piecing failed to meet the boundary conditions."""


class NoExitFound(RuntimeError):
    """Safety arc found no clean exit before the zone boundary."""


@dataclass(frozen=True, eq=False)
class Arc:
    """One control arc over [t0, t1] in absolute time.

    Every arc is a cubic in local time s = t - t0:
        u(s) = u0 + slope*s
        v(s) = v0 + u0*s + slope*s^2/2
        p(s) = p0 + v0*s + u0*s^2/2 + slope*s^3/6
    labels: "cubic" (slope generally nonzero), "const" (slope 0, u0 may be
    any bound), "cruise" (u identically 0).  A "follow" arc, where a
    follower tracks its leader on the spacing rule, adds G(s)*e^(-s/tau) to
    p, with G the polynomial of coefficients g (lowest power first), and
    its derivatives to v and u.  Polynomial arcs have g = ().
    """

    label: str
    t0: float
    t1: float
    p0: float = 0.0
    v0: float = 0.0
    u0: float = 0.0
    slope: float = 0.0
    tau: float = 0.0  # decay time of a follow arc's exponential part
    g: tuple[float, ...] = ()

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def _exp_terms(self, s, exp):
        """The exponential part's terms in (p, v, u) at local times s."""
        G = dG = d2G = 0.0
        for c in reversed(self.g):  # Horner for G, G' and G'' at once
            d2G = d2G * s + 2.0 * dG
            dG = dG * s + G
            G = G * s + c
        tau = self.tau
        e = exp(-s / tau)
        return G * e, (dG - G / tau) * e, (d2G - 2.0 * dG / tau + G / (tau * tau)) * e

    def _eval(self, t, exp):
        """(p, v, u) at t: a float with exp = math.exp, an array with np.exp."""
        s = t - self.t0
        u = self.u0 + self.slope * s
        v = self.v0 + self.u0 * s + 0.5 * self.slope * s * s
        p = self.p0 + self.v0 * s + 0.5 * self.u0 * s * s + self.slope * s**3 / 6.0
        if self.g:
            ep, ev, eu = self._exp_terms(s, exp)
            return p + ep, v + ev, u + eu
        return p, v, u

    def eval(self, t: float) -> tuple[float, float, float]:
        return self._eval(t, math.exp)

    def eval_many(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._eval(t, np.exp)

    def end_state(self) -> tuple[float, float, float]:
        return self.eval(self.t1)

    def _sampled(self) -> tuple[np.ndarray, ...]:
        """A follow arc's (t, p, v, u) every millisecond from t0, and at t1."""
        t = np.append(np.arange(self.t0, self.t1, 1e-3), self.t1)
        return (t, *self.eval_many(t))

    @property
    def energy(self) -> float:
        """Effort integral 1/2 * u^2 over the arc (on the 1 ms grid for a follow arc)."""
        if self.g:
            t, _, _, u = self._sampled()
            return float(np.trapezoid(0.5 * u * u, t))
        w = self.duration
        a, b = self.slope, self.u0
        return 0.5 * (a * a * w**3 / 3.0 + a * b * w * w + b * b * w)

    def speed_extrema(self) -> tuple[float, float]:
        """Exact speed range over a polynomial arc (endpoint and interior
        vertex); a follow arc's range on the 1 ms grid."""
        if self.g:
            v = self._sampled()[2]
            return float(v.min()), float(v.max())
        _, v_end, _ = self.end_state()
        lo, hi = min(self.v0, v_end), max(self.v0, v_end)
        if abs(self.slope) > 0.0:
            s_star = -self.u0 / self.slope
            if 0.0 < s_star < self.duration:
                v_star = self.v0 + self.u0 * s_star + 0.5 * self.slope * s_star * s_star
                lo, hi = min(lo, v_star), max(hi, v_star)
        return lo, hi

    def control_extrema(self) -> tuple[float, float]:
        if self.g:
            u = self._sampled()[3]
            return float(u.min()), float(u.max())
        u_end = self.u0 + self.slope * self.duration
        return min(self.u0, u_end), max(self.u0, u_end)

    def control_bound(self, s0: float, s1: float) -> float:
        """A bound on |u| over local times [s0, s1].

        The linear part peaks at an end.  The exponential part is
        Q(s)*e^(-s/tau) with Q = G'' - 2G'/tau + G/tau^2 = sum q_k s^k, and
        |s| <= max(|s0|, |s1|) and e^(-s/tau) <= e^(-s0/tau) there.
        """
        bound = max(abs(self.u0 + self.slope * s0), abs(self.u0 + self.slope * s1))
        if self.g:
            g, tau = self.g + (0.0, 0.0), self.tau
            q = [
                (k + 2) * (k + 1) * g[k + 2] - 2.0 * (k + 1) * g[k + 1] / tau + g[k] / (tau * tau)
                for k in range(len(self.g))
            ]
            sm = max(abs(s0), abs(s1))
            bound += sum(abs(c) * sm**k for k, c in enumerate(q)) * math.exp(-s0 / tau)
        return bound


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time-ordered chain of arcs, each tagged with its zone.

    One zone's solve and a vehicle's whole traversal are both a Trajectory.
    Before the first arc the state holds at the start; past the last arc the
    vehicle coasts at its exit speed.  Evaluation runs on one flat table
    built on first use: the arcs' t1 edges and their (t0, p0, v0, u0, slope)
    columns.  One searchsorted routes a batch of times to arcs; the
    polynomial runs on gathered columns in Arc.eval_many's expression order,
    and elements inside follow arcs add that arc's exponential terms, so
    values equal per-arc evaluation bit for bit.  The edges are a running
    maximum: where piecing dust lets a zone's last arc end after the next
    zone's first one, times in the overlap stay with the earlier zone.
    """

    arcs: tuple[Arc, ...]
    zone_ids: tuple[int, ...]  # the zone of each arc

    @property
    def t_start(self) -> float:
        return self.arcs[0].t0

    @property
    def t_end(self) -> float:
        return self.arcs[-1].t1

    @property
    def energy(self) -> float:
        return sum(a.energy for a in self.arcs)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """(edges, t0, p0, v0, u0, slope), one entry per arc."""
        t1, *cols = (
            np.asarray(col) for col in zip(*((a.t1, a.t0, a.p0, a.v0, a.u0, a.slope) for a in self.arcs))
        )
        return (np.maximum.accumulate(t1), *cols)

    @cached_property
    def _tracking(self) -> list[int]:
        """Indices of the arcs with an exponential part."""
        return [k for k, a in enumerate(self.arcs) if a.g]

    def index(self, t: np.ndarray) -> np.ndarray:
        """Arc index per time: the first arc whose end is at or after it."""
        return np.minimum(np.searchsorted(self._columns[0], t, side="left"), len(self.arcs) - 1)

    def eval_many(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        t_start, t_end = self.t_start, self.t_end
        # clamping costs two array passes, and most batches lie inside
        outside = t.size > 0 and (t.min() < t_start or t.max() > t_end)
        tc = np.minimum(np.maximum(t, t_start), t_end) if outside else t
        idx = self.index(tc)
        _, t0, p0, v0, u0, slope = self._columns
        u0, slope, v0 = u0[idx], slope[idx], v0[idx]
        s = tc - t0[idx]
        u = u0 + slope * s
        v = v0 + u0 * s + 0.5 * slope * s * s
        p = p0[idx] + v0 * s + 0.5 * u0 * s * s + slope * s**3 / 6.0
        for k in self._tracking:
            m = idx == k
            if m.any():
                ep, ev, eu = self.arcs[k]._exp_terms(s[m], np.exp)
                p[m] += ep
                v[m] += ev
                u[m] += eu
        if outside:
            beyond = t > t_end
            if beyond.any():
                pe, ve, _ = self.arcs[-1].end_state()
                p[beyond] = pe + ve * (t[beyond] - t_end)
                v[beyond] = ve
                u[beyond] = 0.0
        return p, v, u

    def eval(self, t: float) -> tuple[float, float, float]:
        p, v, u = self.eval_many(np.asarray([float(t)]))
        return float(p[0]), float(v[0]), float(u[0])

    def sample(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The state every dt from t_start, and at t_end unless the grid hits it."""
        n = int(math.floor((self.t_end - self.t_start) / dt + 1e-9))
        t = self.t_start + np.arange(n + 1) * dt
        if self.t_end - t[-1] > 1e-9:
            t = np.append(t, self.t_end)
        return (t, *self.eval_many(t))

    def zone_at(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.zone_ids)[self.index(np.asarray(t, dtype=float))]

    def _span(self, z: int) -> slice:
        lo = self.zone_ids.index(z)
        return slice(lo, lo + self.zone_ids.count(z))

    def zone(self, z: int) -> tuple[Arc, ...]:
        """Zone z's arcs, in time order."""
        return self.arcs[self._span(z)]

    def with_zone(self, z: int, arcs: tuple[Arc, ...]) -> Trajectory:
        """This trajectory with zone z's arcs replaced by arcs."""
        s = self._span(z)
        return Trajectory(
            self.arcs[: s.start] + arcs + self.arcs[s.stop :],
            self.zone_ids[: s.start] + (z,) * len(arcs) + self.zone_ids[s.stop :],
        )

    def rate_pieces(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Piece per sorted time from t_start on, with per-piece bounds A on
        |dv/dt| over [t[0], t[-1]].

        Piece k < len(arcs) is arc k over the times index() routes to it;
        piece len(arcs) is the coast past the exit, where v' = 0.  A
        polynomial arc's linear u peaks at an end of its routed range; a
        follow arc adds its exponential part's bound (Arc.control_bound).
        """
        edges, t0, _, _, u0, slope = self._columns
        n, t_end = len(self.arcs), self.t_end
        piece = self.index(t)
        if t[-1] > t_end:  # t is sorted, so only a tail can coast
            piece[t > t_end] = n
        t_lo, t_hi = t[0], min(t[-1], t_end)
        r0 = np.maximum(np.concatenate(([-math.inf], edges[:-1])), t_lo)
        r1 = np.minimum(edges, t_hi)
        r1[-1] = t_hi
        a = np.zeros(n + 1)
        a[:n] = np.maximum(np.abs(u0 + slope * (r0 - t0)), np.abs(u0 + slope * (r1 - t0)))
        for k in self._tracking:
            a[k] = self.arcs[k].control_bound(float(r0[k] - t0[k]), float(r1[k] - t0[k]))
        return piece, a

    def speed_extrema(self) -> tuple[float, float]:
        los, his = zip(*(a.speed_extrema() for a in self.arcs))
        return min(los), max(his)

    def control_extrema(self) -> tuple[float, float]:
        los, his = zip(*(a.control_extrema() for a in self.arcs))
        return min(los), max(his)


@dataclass(frozen=True)
class ZoneBVP:
    """Boundary-value problem for one zone traversal."""

    zone_id: int
    t_start: float
    t_end: float
    start: BoundaryState
    end: BoundaryState
    limits: Limits

    @property
    def window(self) -> float:
        return self.t_end - self.t_start


def _cubic_coeffs(w, ps, vs, pe, ve):
    """Closed-form linear-control coefficients for the four boundary conditions.

    Work in window-local time (s = t - t_start); absolute times in the
    hundreds of seconds cube away all precision otherwise.  With
    D = pe - ps - vs*w and E = ve - vs, u(s) = u0 + slope*s has
    slope = (6*E*w - 12*D)/w^3 and u0 = 6*D/w^2 - 2*E/w.  Returns
    (slope, u0).  Powers are written as products, so an array call equals
    the scalar calls element for element, bit for bit.
    """
    d = pe - ps - vs * w
    e = ve - vs
    return (6.0 * e * w - 12.0 * d) / (w * w * w), 6.0 * d / (w * w) - 2.0 * e / w


def solve_unconstrained(bvp: ZoneBVP) -> Arc:
    """Energy-minimal trajectory ignoring state/control limits: one cubic."""
    w = bvp.window
    if w <= 1e-9:
        raise SingularWindow(f"zone {bvp.zone_id}: window {w} is not positive")
    a, b = _cubic_coeffs(w, bvp.start.position, bvp.start.speed, bvp.end.position, bvp.end.speed)
    return Arc(
        "cubic",
        bvp.t_start,
        bvp.t_end,
        p0=bvp.start.position,
        v0=bvp.start.speed,
        u0=b,
        slope=a,
    )


@dataclass
class _Piece:
    """Arc under construction in zone-local time."""

    label: str
    dur: float
    u0: float
    slope: float


def _assemble(bvp: ZoneBVP, pieces: list[_Piece]) -> Trajectory:
    arcs = []
    t = bvp.t_start
    p, v = bvp.start.position, bvp.start.speed
    for pc in pieces:
        if pc.dur <= 1e-12:
            continue
        arcs.append(Arc(pc.label, t, t + pc.dur, p0=p, v0=v, u0=pc.u0, slope=pc.slope))
        p += v * pc.dur + 0.5 * pc.u0 * pc.dur**2 + pc.slope * pc.dur**3 / 6.0
        v += pc.u0 * pc.dur + 0.5 * pc.slope * pc.dur**2
        t += pc.dur
    if not arcs:
        raise PiecingDiverged(f"zone {bvp.zone_id}: no arcs produced")
    last = arcs[-1]
    gap = last.t1 - bvp.t_end
    if abs(gap) > 1.1e-7:
        raise PiecingDiverged(f"zone {bvp.zone_id}: arcs span {last.t1 - bvp.t_start}, want {bvp.window}")
    if abs(gap) <= 2e-9:
        # float dust from piecing; a window matched to a release or deadline
        # within the dispatch tolerance keeps that profile's own end time
        arcs[-1] = Arc(last.label, last.t0, bvp.t_end, p0=last.p0, v0=last.v0, u0=last.u0, slope=last.slope)
    return Trajectory(tuple(arcs), (bvp.zone_id,) * len(arcs))


def _verify(bvp: ZoneBVP, traj: Trajectory) -> Trajectory:
    p_end, v_end, _ = traj.arcs[-1].end_state()
    if abs(p_end - bvp.end.position) > BOUND_TOL or abs(v_end - bvp.end.speed) > BOUND_TOL:
        raise PiecingDiverged(
            f"zone {bvp.zone_id}: end state ({p_end:.9f}, {v_end:.9f}) misses "
            f"({bvp.end.position:.9f}, {bvp.end.speed:.9f})"
        )
    lim = bvp.limits
    v_lo, v_hi = traj.speed_extrema()
    u_lo, u_hi = traj.control_extrema()
    if v_lo < lim.v_min - BOUND_TOL or v_hi > lim.v_max + BOUND_TOL:
        raise PiecingDiverged(f"zone {bvp.zone_id}: speed range [{v_lo}, {v_hi}] breaks limits")
    if u_lo < lim.u_min - BOUND_TOL or u_hi > lim.u_max + BOUND_TOL:
        raise PiecingDiverged(f"zone {bvp.zone_id}: control range [{u_lo}, {u_hi}] breaks limits")
    return traj


def _sat_linear(bvp: ZoneBVP, u_raw0: float, u_raw1: float) -> list[_Piece] | None:
    """Saturated-linear control: optional bang, cubic, optional bang.

    Control continuity at each junction pins the cubic's value to the bound
    there, leaving junction times as the only unknowns, each in closed form.
    With D0 = pe - ps - vs*w and E0 = ve - vs:
      - a lead bang U alone lasts (6*D0 - 2*E0*w - U*w^2) / (2*(U*w - E0)),
        where the cubic after it starts at control U (an equation linear in
        the junction time);
      - before a tail bang U alone, the cubic lasts
        (6*(pe - ps) - 6*ve*w + 3*U*w^2) / (2*(U*w - E0)), where it ends at
        control U;
      - bang U1 / cubic / bang U2: the speed chain makes the junction times
        sum to S, and the landing position is a quadratic in tau1
        symmetric about S/2, so the middle cubic lasts
        d = sqrt(12*S*w - 3*S^2 + (12*U2*w^2 - 24*D0)/(U1 - U2)) and
        tau1 = (S - d)/2.
    A junction outside its window range, a zero denominator or a negative
    radicand means that structure does not exist: a one-sided bang falls
    through to the two-bang case, and a two-bang miss returns None.
    """
    lim = bvp.limits
    w = bvp.window
    ps, vs = bvp.start.position, bvp.start.speed
    pe, ve = bvp.end.position, bvp.end.speed
    d0, e0 = pe - ps - vs * w, ve - vs

    def clipv(u):
        if u > lim.u_max:
            return lim.u_max
        if u < lim.u_min:
            return lim.u_min
        return None

    lead = clipv(u_raw0)
    tail = clipv(u_raw1)

    if lead is not None and tail is None:
        U = lead
        den = 2.0 * (U * w - e0)
        tau = (6.0 * d0 - 2.0 * e0 * w - U * w * w) / den if den else math.nan
        if 1e-11 <= tau <= w - 1e-9:
            v1 = vs + U * tau
            p1 = ps + vs * tau + 0.5 * U * tau * tau
            a, b = _cubic_coeffs(w - tau, p1, v1, pe, ve)
            far = clipv(b + a * (w - tau))
            if far is None:
                return [_Piece("const", tau, U, 0.0), _Piece("cubic", w - tau, b, a)]
            tail = far  # the cubic's free end saturates too
        else:
            tail = lim.u_min if U == lim.u_max else lim.u_max

    elif tail is not None and lead is None:
        U = tail
        den = 2.0 * (U * w - e0)
        tau = (6.0 * (pe - ps) - 6.0 * ve * w + 3.0 * U * w * w) / den if den else math.nan
        if 1e-9 <= tau <= w - 1e-11:
            dur = w - tau
            v1 = ve - U * dur
            p1 = pe - ve * dur + 0.5 * U * dur * dur
            a, b = _cubic_coeffs(tau, ps, vs, p1, v1)
            head = clipv(b)
            if head is None:
                return [_Piece("cubic", tau, b, a), _Piece("const", dur, U, 0.0)]
            lead = head
        else:
            lead = lim.u_min if U == lim.u_max else lim.u_max

    if lead is None or tail is None or lead == tail:
        return None

    U1, U2 = lead, tail
    # speed chain: U1*t1 + (U1+U2)(t2-t1)/2 + U2*(w-t2) = ve - vs
    # collapses to t1 + t2 = S
    S = 2.0 * (ve - vs - U2 * w) / (U1 - U2)
    rad = 12.0 * S * w - 3.0 * S * S + (12.0 * U2 * w * w - 24.0 * d0) / (U1 - U2)
    if rad < 0.0:
        return None
    tau1 = 0.5 * (S - math.sqrt(rad))
    if not (max(0.0, S - w) + 1e-11 <= tau1 <= min(S / 2.0, w) - 1e-11):
        return None
    tau2 = S - tau1
    if not (tau1 < tau2 <= w + 1e-9):
        return None
    d = tau2 - tau1
    a = (U2 - U1) / d
    return [
        _Piece("const", tau1, U1, 0.0),
        _Piece("cubic", d, U1, a),
        _Piece("const", w - tau2, U2, 0.0),
    ]


def _cruise_pieces(bvp: ZoneBVP, v_pin: float, A: float) -> list[_Piece] | None:
    """Ramp / cruise / ramp structure pinned at v_pin for control slope A.

    Both ramps share the slope magnitude (the position costate is one
    constant per zone) and meet the cruise with zero control.  Returns the
    pieces, or None when the ramps outgrow the window.
    """
    lim = bvp.limits
    w = bvp.window
    vs, ve = bvp.start.speed, bvp.end.speed

    def ramp(dv: float, into_cruise: bool) -> tuple[float, list[_Piece]]:
        # dv: signed speed change of the ramp
        if abs(dv) < 1e-14:
            return 0.0, []
        sgn = 1.0 if dv > 0 else -1.0
        ub = lim.u_max if sgn > 0 else -lim.u_min  # bound magnitude
        t_cubic_full = math.sqrt(2.0 * abs(dv) / A)
        if A * t_cubic_full <= ub + 1e-15:
            dur = t_cubic_full
            if into_cruise:
                # control sgn*A*(dur - s): starts at peak, lands at 0
                return dur, [_Piece("cubic", dur, sgn * A * dur, -sgn * A)]
            return dur, [_Piece("cubic", dur, 0.0, sgn * A)]
        # saturated: constant-control stretch plus the cubic taper
        t_cub = ub / A
        dv_cub = sgn * ub * ub / (2.0 * A)
        t_bang = (abs(dv) - abs(dv_cub)) / ub
        if into_cruise:
            return (
                t_bang + t_cub,
                [_Piece("const", t_bang, sgn * ub, 0.0), _Piece("cubic", t_cub, sgn * ub, -sgn * A)],
            )
        return (
            t_bang + t_cub,
            [_Piece("cubic", t_cub, 0.0, sgn * A), _Piece("const", t_bang, sgn * ub, 0.0)],
        )

    t_in, pieces_in = ramp(v_pin - vs, into_cruise=True)
    t_out, pieces_out = ramp(ve - v_pin, into_cruise=False)
    t_cruise = w - t_in - t_out
    if t_cruise < -1e-10:
        return None
    return pieces_in + [_Piece("cruise", max(t_cruise, 0.0), 0.0, 0.0)] + pieces_out


def _ramps(bvp: ZoneBVP, v_pin: float) -> list[tuple[float, float, float, float]]:
    """Per ramp into and out of a cruise at v_pin: (d, ub, r, xb).

    d is the ramp's speed change, ub the control bound it saturates at,
    r = sqrt(2d), and xb = r/ub the breakpoint in x = 1/sqrt(A) below
    which the ramp saturates.  Ramps under 1e-14 m/s are left out, as
    _cruise_pieces leaves them out.
    """
    lim = bvp.limits
    ramps = []
    for dv in (v_pin - bvp.start.speed, bvp.end.speed - v_pin):
        if abs(dv) >= 1e-14:
            ub = lim.u_max if dv > 0 else -lim.u_min
            r = math.sqrt(2.0 * abs(dv))
            ramps.append((abs(dv), ub, r, r / ub))
    return ramps


def _min_cruise_slope(bvp: ZoneBVP, v_pin: float) -> float:
    """Smallest control slope whose ramps fit the window, in closed form.

    With x = 1/sqrt(A), a ramp (_ramps) lasts r*x while its peak control
    stays within ub (x >= xb) and d/ub + ub*x^2/2 once it saturates.  The
    total is continuous and rising in x and a quadratic between the
    breakpoints, so t_in + t_out = w is one quadratic root; _cruise_pieces'
    fit test lets the cruise run 1e-10 short, which absorbs the rounding.
    Slopes below 1e-9 are raised to it; ramps that need more than 1e9, or
    never fit, raise PiecingDiverged.
    """
    ramps = _ramps(bvp, v_pin)
    if not ramps:
        return 1e-9

    def ramps_last(x: float) -> float:
        return sum(r * x if x >= xb else d / ub + 0.5 * ub * x * x for d, ub, r, xb in ramps)

    # the root lies past the last breakpoint whose ramps still fit: ramps
    # breaking there or earlier run unsaturated, the rest saturate
    x_lo = max((xb for *_, xb in ramps if ramps_last(xb) <= bvp.window), default=0.0)
    c2, c1, c0 = 0.0, 0.0, -bvp.window
    for d, ub, r, xb in ramps:
        if xb <= x_lo:
            c1 += r
        else:
            c2 += 0.5 * ub
            c0 += d / ub
    slope = math.inf
    if c0 < 0.0:
        x = -2.0 * c0 / (c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0))
        slope = 1.0 / (x * x)
    if slope > 1e9:
        raise PiecingDiverged(f"zone {bvp.zone_id}: cruise ramps never fit the window")
    return max(slope, 1e-9)


def _with_cruise(bvp: ZoneBVP, v_pin: float) -> list[_Piece]:
    """Ramp / cruise / ramp at the control slope that lands on the exit state.

    The cruise lands at ps + v_pin*w + sigma*sum(D_i), with sigma = +1 at
    v_min and -1 at v_max and D_i the integral of |v - v_pin| over ramp i.
    In x = 1/sqrt(A), a ramp (_ramps) has D = d*r*x/3 while unsaturated
    (x >= xb) and d^2/(2*ub) + ub^3*x^4/24 once it saturates: continuous
    and rising in x.  So the sums at the breakpoints pick the one interval
    of x in (0, x_max] (x_max from _min_cruise_slope) that holds the root,
    and there a*x^4 + b*x = c with a, b >= 0.  That is linear, a fourth
    root, or, with both terms, convex and rising: Newton from
    min((c/a)^(1/4), c/b), which lies at or above the root, falls
    monotonically onto it and stops when x stops falling.  A root past
    x_max keeps the least slope, and _verify judges its landing.
    """
    ramps = _ramps(bvp, v_pin)
    a_min = _min_cruise_slope(bvp, v_pin)
    x_max = 1.0 / math.sqrt(a_min)
    sigma = -1.0 if v_pin == bvp.limits.v_max else 1.0
    c = sigma * (bvp.end.position - bvp.start.position - v_pin * bvp.window)

    def excess(x: float) -> float:
        return sum(d * r * x / 3.0 if x >= xb else d * d / (2.0 * ub) + ub**3 * x**4 / 24.0 for d, ub, r, xb in ramps)

    # the first breakpoint (or x_max) whose excess reaches c closes the
    # root's interval: ramps breaking before it run unsaturated, the rest
    # saturate
    x_hi = next((x for x in sorted(xb for *_, xb in ramps if xb < x_max) if excess(x) >= c), x_max)
    a = b = 0.0
    for d, ub, r, xb in ramps:
        if xb < x_hi:
            b += d * r / 3.0
        else:
            a += ub**3 / 24.0
            c -= d * d / (2.0 * ub)
    if not ramps or c <= 0.0:
        raise PiecingDiverged(f"zone {bvp.zone_id}: no cruise slope lands on the exit state")
    x = min((c / a) ** 0.25 if a else math.inf, c / b if b else math.inf)
    while True:
        nxt = x - (a * x**4 + b * x - c) / (4.0 * a * x**3 + b)
        if not nxt < x:
            break
        x = nxt
    return _cruise_pieces(bvp, v_pin, max(1.0 / (x * x), a_min))


def _cubic_speed_violation(bvp: ZoneBVP, pieces: list[_Piece]) -> float | None:
    """Speed bound a piece list breaks, or None.  Returns the pinned bound."""
    lim = bvp.limits
    v = bvp.start.speed
    for pc in pieces:
        lo, hi = v, v + pc.u0 * pc.dur + 0.5 * pc.slope * pc.dur**2
        if lo > hi:
            lo, hi = hi, lo
        if abs(pc.slope) > 0.0:
            s_star = -pc.u0 / pc.slope
            if 0.0 < s_star < pc.dur:
                v_star = v + pc.u0 * s_star + 0.5 * pc.slope * s_star * s_star
                lo, hi = min(lo, v_star), max(hi, v_star)
        if hi > lim.v_max + 1e-9:
            return lim.v_max
        if lo < lim.v_min - 1e-9:
            return lim.v_min
        v += pc.u0 * pc.dur + 0.5 * pc.slope * pc.dur**2
    return None


def solve_zone(bvp: ZoneBVP, bounds: ZoneBounds) -> Trajectory:
    """Energy-minimal trajectory for one zone inside its scheduled window.

    Window equal to the release (or deadline) within 1e-7 reuses the
    closed-form extremal profile directly; anything interior starts from the
    unconstrained cubic and pieces in saturation arcs only if a bound breaks.
    """
    w = bvp.window
    if w <= 1e-9:
        raise SingularWindow(f"zone {bvp.zone_id}: window {w} is not positive")
    lim = bvp.limits

    local_start = BoundaryState(0.0, bvp.start.speed)
    local_end = BoundaryState(bvp.end.position - bvp.start.position, bvp.end.speed)

    if abs(w - bounds.release) <= _DISPATCH_TOL:
        prof = release_time(local_start, local_end, lim).profile
        return _verify(bvp, _assemble(bvp, [
            _Piece("cruise" if s.accel == 0.0 else "const", s.duration, s.accel, 0.0) for s in prof.segments
        ]))
    if bounds.deadline is not None and abs(w - bounds.deadline) <= _DISPATCH_TOL:
        prof = deadline(local_start, local_end, lim).profile
        return _verify(bvp, _assemble(bvp, [
            _Piece("cruise" if s.accel == 0.0 else "const", s.duration, s.accel, 0.0) for s in prof.segments
        ]))
    if w < bounds.release - _DISPATCH_TOL or (bounds.deadline is not None and w > bounds.deadline + _DISPATCH_TOL):
        raise ValueError(f"zone {bvp.zone_id}: window {w} outside [release, deadline]")

    a, b = _cubic_coeffs(w, bvp.start.position, bvp.start.speed, bvp.end.position, bvp.end.speed)
    pieces = [_Piece("cubic", w, b, a)]

    v_pin = _cubic_speed_violation(bvp, pieces)
    if v_pin is None:
        u0, u1 = b, b + a * w
        if lim.u_min - 1e-9 <= u0 <= lim.u_max + 1e-9 and lim.u_min - 1e-9 <= u1 <= lim.u_max + 1e-9:
            return _verify(bvp, _assemble(bvp, pieces))
        sat = _sat_linear(bvp, u0, u1)
        if sat is None:
            raise PiecingDiverged(f"zone {bvp.zone_id}: saturated-linear piecing found no junction")
        v_pin = _cubic_speed_violation(bvp, sat)
        if v_pin is None:
            return _verify(bvp, _assemble(bvp, sat))
    return _verify(bvp, _assemble(bvp, _with_cruise(bvp, v_pin)))


# ---------------------------------------------------------------------------
# rear-end safety
# ---------------------------------------------------------------------------


def check_rear_end(
    leader: Trajectory,
    leader_anchor: float,
    follower: Trajectory,
    follower_anchor: float,
    t_lo: float,
    t_hi: float,
    gamma: float,
    phi: float,
    dt: float = 0.01,
    tol: float = 1e-6,
) -> list[tuple[float, float, float]]:
    """Sampled violations of the speed-dependent spacing rule in one zone.

    Both vehicles' progress is measured from their own entry to the shared
    zone (the anchors), so the rule d >= gamma + phi * v_follower compares
    distances along each one's own path.  Returns (start, end, worst margin)
    per violating stretch; empty list when safe.
    """
    if t_hi <= t_lo:
        return []
    n = max(int(math.ceil((t_hi - t_lo) / dt)), 1)
    t = np.linspace(t_lo, t_hi, n + 1)
    p_l, _v_l, _ = leader.eval_many(t)
    p_f, v_f, _ = follower.eval_many(t)
    margin = (p_l - leader_anchor) - (p_f - follower_anchor) - gamma - phi * v_f
    bad = margin < -tol
    if not bad.any():
        return []
    # a violating run starts where the padded mask turns on and ends one
    # sample before it turns off
    edges = np.flatnonzero(np.diff(bad, prepend=False, append=False))
    return [
        (float(t[i]), float(t[j - 1]), float(margin[i:j].min()))
        for i, j in zip(edges[::2].tolist(), edges[1::2].tolist())
    ]


_SCREEN_STRIDE = 32  # grid samples per screened segment
_SCREEN_SLACK = 1e-6  # m: covers float rounding in margins and the bound


def _exit_trough(
    leader: Trajectory,
    leader_anchor: float,
    follower: Trajectory,
    follower_anchor: float,
    t_lo: float,
    t_hi: float,
    gamma: float,
    phi: float,
    dt: float,
    tol: float,
) -> float | None:
    """Deepest sampled margin below -tol on check_rear_end's grid, or None.

    Equals the least worst margin over check_rear_end's runs, bit for bit,
    while evaluating only part of the grid.  Every _SCREEN_STRIDE-th sample
    (and the last) is evaluated.  A segment between two of them is skipped
    only when a proven lower bound keeps all its samples at or above -tol,
    or, once some coarse sample is below -tol, at or above the least coarse
    margin, which no skipped sample could then undercut.  Every other
    sample is evaluated exactly as the full scan evaluates it.

    The bound.  With m = (p_l - a_l) - (p_f - a_f) - gamma - phi*v_f, and
    p' = v on every arc and on the coast,
        m' = (v_l - v_f) - phi*v_f'.
    On a segment [t_a, t_b] of length delta where each trajectory stays on
    one piece (rate_pieces: one arc, or the coast past a vehicle's exit),
    |v'| <= A holds, so |v_l - v_f| grows from its value at an end by at
    most (A_l + A_f)*delta and
        |m'| <= L = max(|v_l - v_f| at t_a, t_b) + (A_l + A_f)*delta + |phi|*A_f.
    An L-Lipschitz m lies above both m_a - L(t - t_a) and m_b - L(t_b - t),
    whose lower envelope bottoms out at (m_a + m_b)/2 - L*delta/2.  A fixed
    _SCREEN_SLACK absorbs the rounding of the evaluated margins (well under
    1e-9 m at corridor scales) and of the bound itself.  Segments across a
    piece change, where p, phi*v or u may jump, are evaluated in full, as
    are whole grids that start before a trajectory's t_start (a vehicle
    held at its start has p' = 0 while v != 0).  A grid shorter than one
    stride has coarse samples [0, n] alone, and the same bound holds.
    """
    if t_hi <= t_lo:
        return None
    n = max(int(math.ceil((t_hi - t_lo) / dt)), 1)
    t = np.linspace(t_lo, t_hi, n + 1)

    def margin_at(idx):
        tt = t[idx]
        p_l, v_l, _ = leader.eval_many(tt)
        p_f, v_f, _ = follower.eval_many(tt)
        return (p_l - leader_anchor) - (p_f - follower_anchor) - gamma - phi * v_f, v_l, v_f

    def trough(*margins):
        m = np.concatenate(margins)
        bad = m[m < -tol]
        return float(bad.min()) if bad.size else None

    if t_lo < leader.t_start or t_lo < follower.t_start:
        return trough(margin_at(slice(None))[0])
    coarse = np.arange(0, n + 1, _SCREEN_STRIDE)
    if coarse[-1] != n:
        coarse = np.append(coarse, n)
    tc = t[coarse]
    m_c, v_l, v_f = margin_at(coarse)
    piece_l, a_l = leader.rate_pieces(tc)
    piece_f, a_f = follower.rate_pieces(tc)
    one_piece = (piece_l[1:] == piece_l[:-1]) & (piece_f[1:] == piece_f[:-1])
    pl, pf = piece_l[:-1], piece_f[:-1]
    delta = np.diff(tc)
    dv = np.abs(v_l - v_f)
    lip = np.maximum(dv[:-1], dv[1:]) + (a_l[pl] + a_f[pf]) * delta + abs(phi) * a_f[pf]
    lower = 0.5 * (m_c[:-1] + m_c[1:]) - 0.5 * lip * delta - _SCREEN_SLACK
    floor = min(-tol, float(m_c.min()))
    open_seg = np.flatnonzero(~(one_piece & (lower >= floor)))
    first = coarse[open_seg] + 1
    count = coarse[open_seg + 1] - first
    if not count.sum():
        return trough(m_c)
    # interior grid indices of every open segment, in order
    offset = np.repeat(first - np.cumsum(count) + count, count)
    inner = np.arange(count.sum()) + offset
    return trough(m_c, margin_at(inner)[0])


def _shifted(g: tuple[float, ...], d: float) -> tuple[float, ...]:
    """Coefficients of G(s + d), given those of G(s)."""
    return tuple(sum(math.comb(k, j) * g[k] * d ** (k - j) for k in range(j, len(g))) for j in range(len(g)))


def _track(leader: Trajectory, t1: float, t2: float, p1: float, v1: float, phi: float) -> list[Arc]:
    """The follower riding the spacing rule behind leader over [t1, t2].

    On the rule v' = (v_l - v)/phi, solved in closed form on each piece
    of the leader that index() routes to (and on its coast past t_end),
    one follow arc per piece.  In local time s from a piece's start, the
    leader's speed is a quadratic P plus the exponential part of a leader
    that is tracking itself, Gl(s)*e^(-s/phi).  The follower's speed is
    P - phi*P' + phi^2*P'' plus the same kind of term, whose position
    coefficient G solves G' = Gl/phi, so a chain of k trackers has G of
    degree k - 1.  G(0) = Gl(0) - phi*(v_start - (P - phi*P' + phi^2*P'')(0))
    keeps the speed continuous, and each arc starts where the last ended,
    so the margin holds its tangency value exactly.  The leader's follow
    arcs must share this phi, and t1 must not precede leader.t_start.
    """
    t_end = leader.t_end
    ends = np.minimum(leader._columns[0], t_end).tolist() + [math.inf]
    arcs: list[Arc] = []
    t, p, v = t1, p1, v1
    for k, hi in enumerate(ends):
        if t >= t2:
            break
        if hi <= t:
            continue
        if k < len(leader.arcs):
            la = leader.arcs[k]
            d = t - la.t0
            vl = la.v0 + la.u0 * d + 0.5 * la.slope * d * d
            ul, jl = la.u0 + la.slope * d, la.slope
            decay = math.exp(-d / phi)
            gl = tuple(c * decay for c in _shifted(la.g, d))
        else:  # the leader coasts at its exit speed
            vl, ul, jl, gl = leader.arcs[-1].end_state()[1], 0.0, 0.0, ()
        v0, u0 = vl - phi * ul + phi * phi * jl, ul - phi * jl
        g0 = (gl[0] if gl else 0.0) + phi * (v0 - v)
        g = (g0, *(c / ((i + 1) * phi) for i, c in enumerate(gl)))
        arc = Arc("follow", t, min(hi, t2), p0=p - g0, v0=v0, u0=u0, slope=jl, tau=phi, g=g)
        arcs.append(arc)
        t = arc.t1
        p, v, _ = arc.end_state()
    return arcs


def follow_arc(
    t1: float,
    state: tuple[float, float],
    leader: Trajectory,
    leader_anchor: float,
    follower_anchor: float,
    bvp: ZoneBVP,
    gamma: float,
    phi: float,
    grid_dt: float = 1e-3,
) -> tuple[tuple[Arc, ...], float, dict]:
    """Track the leader from tangency at t1 until the remainder solves clean.

    On the constraint the margin identity pins the follower's state to the
    leader's: u = (v_leader - v)/phi, solved in closed form by _track, one
    follow arc per leader piece.  At tested points of the exit grid (steps
    of grid_dt from t1) the remainder to the zone exit is re-solved inside
    its own release/deadline window; tracking ends at the first point whose
    solved remainder stays clear of the spacing rule.  Returns the follow
    arcs up to that point, the point, and info, whose info["remainder"] is
    the trajectory that was checked, so the caller splices exactly that.
    Costate jumps at the junctions are reported, not enforced.

    The clearance test is _exit_trough: check_rear_end's verdict and worst
    margin at dt = 1 ms, tol = 5e-7, computed by a bound-screened scan that
    returns the same float, so the exit and the skip after a rejected
    candidate (which reads that worst margin) are those of the full scan.
    """
    p1, v1 = state
    vl = leader.eval(t1)[1]
    info = {"u_entry": (vl - v1) / phi, "tangency_time": t1}
    arcs = _track(leader, t1, bvp.t_end, p1, v1, phi)

    lim = bvp.limits
    # a rejected candidate's margin trough recovers no faster than this,
    # bounding how long further exit tests stay pointless
    margin_rate = 50.0

    def clean_exit(tau: float, p_tau: float, v_tau: float) -> tuple[Trajectory | None, float]:
        """The accepted remainder (None if rejected) and the next time to test."""
        w_rem = bvp.t_end - tau
        if w_rem <= 1e-6:
            return None, tau
        v_ok = min(max(v_tau, lim.v_min), lim.v_max)
        rem_start = BoundaryState(0.0, v_ok)
        rem_end = BoundaryState(bvp.end.position - p_tau, bvp.end.speed)
        try:
            rel = release_time(rem_start, rem_end, lim)
            ddl = deadline(rem_start, rem_end, lim)
        except InfeasibleBoundary:
            return None, tau
        if w_rem < rel.time - 1e-9:
            return None, tau
        # more time left than the slowest feasible remainder can absorb:
        # no continuation exists yet, keep tracking
        if not ddl.is_unbounded() and w_rem > ddl.time + 1e-9:
            return None, tau
        sub = ZoneBVP(bvp.zone_id, tau, bvp.t_end, BoundaryState(p_tau, v_ok), bvp.end, lim)
        rem_bounds = ZoneBounds(rel.time, None if ddl.is_unbounded() else ddl.time)
        try:
            cand = solve_zone(sub, rem_bounds)
        except (ValueError, PiecingDiverged):
            return None, tau
        # the candidate departs from a point ON the constraint, so its first
        # samples sit at the tangency margin; tolerate that contact while
        # rejecting any real re-violation further out.  Sampling is finer and
        # acceptance tighter than the downstream verification pass, so a
        # differently anchored verification grid cannot flip the verdict.
        trough = _exit_trough(
            leader, leader_anchor, cand, follower_anchor, tau, bvp.t_end, gamma, phi,
            dt=1e-3, tol=5e-7,
        )
        if trough is not None:
            return None, tau + (-trough - 5e-7) / margin_rate
        return cand, tau

    next_test, t, j = t1, t1, 0
    for _ in range(int(math.ceil((bvp.t_end - t1) / grid_dt)) + 1):
        if t >= bvp.t_end - grid_dt * 0.5:
            break
        t += min(grid_dt, bvp.t_end - t)
        if t >= next_test:
            while j + 1 < len(arcs) and t > arcs[j].t1:
                j += 1
            p, v, u = arcs[j].eval(t)
            remainder, next_test = clean_exit(t, p, v)
            if remainder is not None:
                info.update(u_exit=u, remainder=remainder)
                return (*arcs[:j], replace(arcs[j], t1=t)), t, info
    raise NoExitFound(f"zone {bvp.zone_id}: follower found no clean exit before the boundary")
