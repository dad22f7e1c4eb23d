"""Zone trajectory tests: fidelity, limits, optimality, safety arcs.

Optimality is certified two ways: a discretized effort minimization solved
through its KKT system (piecewise-constant control is admissible, so the
continuous optimum must come in at or below it), and boundary-respecting
sinusoidal perturbations around the cubic.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corridor import trajectory
from corridor.kinematics import BoundaryState, InfeasibleBoundary, Limits, deadline, release_time
from corridor.scheduler import ZoneBounds
from corridor.sim import SimConfig, run
from corridor.trajectory import (
    Arc,
    NoExitFound,
    PiecingDiverged,
    SingularWindow,
    Trajectory,
    ZoneBVP,
    _cruise_pieces,
    _cubic_coeffs,
    _cubic_speed_violation,
    _least_margin,
    _min_cruise_slope,
    _Piece,
    _rate_roots,
    _sat_linear,
    _with_cruise,
    check_rear_end,
    follow_arc,
    solve_unconstrained,
    solve_zone,
)

LIM = Limits(-1.0, 1.0, 5.0, 25.0)
TOL = 1e-7


def bvp_for(length, vs, ve, w, t0=0.0, lim=LIM, zone=0):
    return ZoneBVP(zone, t0, t0 + w, BoundaryState(0.0, vs), BoundaryState(length, ve), lim)


def bounds_for(length, vs, ve, lim=LIM):
    rel = release_time(BoundaryState(0.0, vs), BoundaryState(length, ve), lim)
    ddl = deadline(BoundaryState(0.0, vs), BoundaryState(length, ve), lim)
    return ZoneBounds(rel.time, None if ddl.is_unbounded() else ddl.time)


def assert_invariants(bvp: ZoneBVP, traj: Trajectory):
    p0, v0, _ = traj.arcs[0].eval(traj.t_start)
    assert abs(p0 - bvp.start.position) <= TOL
    assert abs(v0 - bvp.start.speed) <= TOL
    pe, ve, _ = traj.arcs[-1].end_state()
    assert abs(pe - bvp.end.position) <= TOL
    assert abs(ve - bvp.end.speed) <= TOL
    for a, b in zip(traj.arcs, traj.arcs[1:]):
        pa, va, ua = a.end_state()
        pb, vb, ub = b.eval(b.t0)
        assert abs(pa - pb) <= TOL
        assert abs(va - vb) <= TOL
        if "cubic" in (a.label, b.label):
            # control is continuous wherever an unconstrained arc joins;
            # extremal bang-bang profiles may jump between saturated arcs
            assert abs(ua - ub) <= TOL
    v_lo, v_hi = traj.speed_extrema()
    u_lo, u_hi = traj.control_extrema()
    assert v_lo >= bvp.limits.v_min - TOL
    assert v_hi <= bvp.limits.v_max + TOL
    assert u_lo >= bvp.limits.u_min - TOL
    assert u_hi <= bvp.limits.u_max + TOL


def discrete_effort_oracle(bvp: ZoneBVP, n=2000) -> float:
    """KKT solve of the discretized unconstrained effort minimization."""
    w = bvp.window
    dt = w / n
    dv = bvp.end.speed - bvp.start.speed
    dp = bvp.end.position - bvp.start.position - bvp.start.speed * w
    i = np.arange(n)
    a_v = np.full(n, dt)
    a_p = dt * dt * (n - i - 0.5)
    A = np.vstack([a_v, a_p])
    lam = np.linalg.solve(A @ A.T, np.array([dv, dp]))
    u = A.T @ lam
    return float(0.5 * dt * np.sum(u * u))


# ---------------------------------------------------------------------------
# unconstrained cubic
# ---------------------------------------------------------------------------


def test_cubic_worked_values():
    # 300 m zone, 15 -> 15 m/s over 25 s: u(s) = 0.0576 s - 0.72
    bvp = bvp_for(300.0, 15.0, 15.0, 25.0)
    arc = solve_unconstrained(bvp)
    assert abs(arc.slope - 0.0576) <= 1e-12
    assert abs(arc.u0 - (-0.72)) <= 1e-12
    assert abs(arc.energy - 2.16) <= 1e-12


def test_cubic_matches_discrete_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        w = float(rng.uniform(8.0, 40.0))
        vs = float(rng.uniform(8.0, 20.0))
        ve = float(rng.uniform(8.0, 20.0))
        length = float(rng.uniform(0.7, 1.3) * 0.5 * (vs + ve) * w)
        bvp = bvp_for(length, vs, ve, w)
        arc = solve_unconstrained(bvp)
        ref = discrete_effort_oracle(bvp)
        assert arc.energy <= ref + 1e-9  # continuum optimum can't lose
        assert abs(arc.energy - ref) <= 1e-3 * max(ref, 1.0)


def test_singular_window_raises():
    with pytest.raises(SingularWindow):
        solve_unconstrained(bvp_for(100.0, 15.0, 15.0, 0.0))


def test_cubic_beats_boundary_respecting_perturbations():
    # competitors: cubic + eps * (sin bump minus its own cubic interpolant),
    # which meets all four boundary values; k spans 1..4, both eps signs
    cases = [bvp_for(300.0, 15.0, 15.0, 25.0), bvp_for(300.0, 15.0, 15.0, 21.0),
             bvp_for(150.0, 10.0, 18.0, 12.0)]
    for bvp in cases:
        arc = solve_unconstrained(bvp)
        w = bvp.window
        s = np.linspace(0.0, w, 4001)
        u_base = arc.u0 + arc.slope * s
        for k in range(1, 5):
            kw = k * math.pi / w
            # cubic matching the bump's boundary data (0, kw, 0, kw*(-1)^k)
            m = np.array([
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [1.0, w, w * w / 2.0, w**3 / 6.0],
                [0.0, 1.0, w, w * w / 2.0],
            ])
            _d, _c, b2, a2 = np.linalg.solve(m, np.array([0.0, kw, 0.0, kw * (-1.0) ** k]))
            eta_dd = -kw * kw * np.sin(kw * s) - (b2 + a2 * s)
            # admissibility of the competitor's boundary values
            eta = np.sin(kw * s) - (kw * s + b2 * s * s / 2.0 + a2 * s**3 / 6.0)
            assert abs(eta[0]) <= 1e-9 and abs(eta[-1]) <= 1e-9
            for eps in (1e-3, -1e-3, 1e-2, -1e-2):
                u_pert = u_base + eps * eta_dd
                e_pert = float(np.trapezoid(0.5 * u_pert * u_pert, s))
                assert arc.energy <= e_pert + 1e-10


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


REL_300 = 2.0 * (math.sqrt(525.0) - 15.0)  # fastest 300 m, 15 -> 15


def test_window_at_release_reuses_fastest_profile():
    bnd = bounds_for(300.0, 15.0, 15.0)
    assert abs(bnd.release - REL_300) <= 1e-12
    traj = solve_zone(bvp_for(300.0, 15.0, 15.0, bnd.release), bnd)
    assert all(a.label in ("const", "cruise") for a in traj.arcs)
    assert_invariants(bvp_for(300.0, 15.0, 15.0, bnd.release), traj)
    # bang-bang without a cruise: effort is half the duration
    assert abs(traj.energy - 0.5 * bnd.release) <= 1e-9


def test_window_just_above_release_pieces_saturated_arcs():
    bnd = bounds_for(300.0, 15.0, 15.0)
    w = bnd.release + 1e-6
    bvp = bvp_for(300.0, 15.0, 15.0, w)
    traj = solve_zone(bvp, bnd)
    assert_invariants(bvp, traj)
    assert traj.energy <= 0.5 * bnd.release + 1e-9


def test_window_just_below_release_is_rejected():
    bnd = bounds_for(300.0, 15.0, 15.0)
    with pytest.raises(ValueError):
        solve_zone(bvp_for(300.0, 15.0, 15.0, bnd.release - 1e-6), bnd)


def test_window_within_dispatch_tolerance_of_release():
    bnd = bounds_for(300.0, 15.0, 15.0)
    traj = solve_zone(bvp_for(300.0, 15.0, 15.0, bnd.release + 5e-8), bnd)
    assert all(a.label in ("const", "cruise") for a in traj.arcs)
    pe, ve, _ = traj.arcs[-1].end_state()
    assert abs(pe - 300.0) <= TOL and abs(ve - 15.0) <= TOL


def test_window_at_deadline_reuses_slowest_profile():
    bnd = bounds_for(300.0, 15.0, 15.0)
    assert abs(bnd.deadline - 40.0) <= 1e-12  # decel to 5, cruise, accel back
    bvp = bvp_for(300.0, 15.0, 15.0, bnd.deadline)
    traj = solve_zone(bvp, bnd)
    assert any(a.label == "cruise" for a in traj.arcs)
    assert_invariants(bvp, traj)
    lo, _hi = traj.speed_extrema()
    assert abs(lo - 5.0) <= 1e-9


def test_window_just_below_deadline_needs_floor_cruise():
    bnd = bounds_for(300.0, 15.0, 15.0)
    bvp = bvp_for(300.0, 15.0, 15.0, bnd.deadline - 1e-6)
    traj = solve_zone(bvp, bnd)
    assert_invariants(bvp, traj)
    lo, _hi = traj.speed_extrema()
    assert lo >= 5.0 - TOL


def test_window_beyond_deadline_is_rejected():
    bnd = bounds_for(300.0, 15.0, 15.0)
    with pytest.raises(ValueError):
        solve_zone(bvp_for(300.0, 15.0, 15.0, bnd.deadline + 1e-6), bnd)


def test_interior_window_is_pure_cubic():
    bnd = bounds_for(300.0, 15.0, 15.0)
    bvp = bvp_for(300.0, 15.0, 15.0, 25.0)
    traj = solve_zone(bvp, bnd)
    assert [a.label for a in traj.arcs] == ["cubic"]
    assert abs(traj.energy - 2.16) <= 1e-12
    assert_invariants(bvp, traj)


def test_tight_window_saturates_both_control_bounds():
    bnd = bounds_for(300.0, 15.0, 15.0)
    bvp = bvp_for(300.0, 15.0, 15.0, 16.5)
    traj = solve_zone(bvp, bnd)
    labels = [a.label for a in traj.arcs]
    assert labels == ["const", "cubic", "const"]
    assert abs(traj.arcs[0].u0 - 1.0) <= 1e-12
    assert abs(traj.arcs[-1].u0 - (-1.0)) <= 1e-12
    assert_invariants(bvp, traj)


def test_one_sided_saturation():
    # 150 m, 5 -> 15: tight windows overdrive only the entry control
    bnd = bounds_for(150.0, 5.0, 15.0)
    bvp = bvp_for(150.0, 5.0, 15.0, 14.0)
    traj = solve_zone(bvp, bnd)
    labels = [a.label for a in traj.arcs]
    assert labels == ["const", "cubic"]
    assert abs(traj.arcs[0].u0 - 1.0) <= 1e-12
    assert_invariants(bvp, traj)


def test_fast_window_cruises_at_ceiling():
    # 600 m forces a v_max cruise near the fastest traversal; by +0.25 s of
    # slack the saturated structure peaks below the ceiling on its own
    bnd = bounds_for(600.0, 15.0, 15.0)
    bvp = bvp_for(600.0, 15.0, 15.0, bnd.release + 0.1)
    traj = solve_zone(bvp, bnd)
    assert any(a.label == "cruise" for a in traj.arcs)
    _lo, hi = traj.speed_extrema()
    assert hi <= 25.0 + TOL
    assert hi >= 24.0  # the cruise really sits near the ceiling
    assert_invariants(bvp, traj)


def test_slow_window_cruises_at_floor():
    bnd = bounds_for(300.0, 15.0, 15.0)
    bvp = bvp_for(300.0, 15.0, 15.0, 38.0)
    traj = solve_zone(bvp, bnd)
    assert any(a.label == "cruise" for a in traj.arcs)
    lo, _hi = traj.speed_extrema()
    assert lo >= 5.0 - TOL
    assert lo <= 6.0
    assert_invariants(bvp, traj)


def test_constrained_solutions_cost_at_least_the_unconstrained_optimum():
    bnd = bounds_for(300.0, 15.0, 15.0)
    for w in (16.5, 17.5, 20.0, 30.0, 38.0, 39.5):
        bvp = bvp_for(300.0, 15.0, 15.0, w)
        traj = solve_zone(bvp, bnd)
        free = solve_unconstrained(bvp)
        assert traj.energy >= free.energy - 1e-9


@settings(max_examples=150, deadline=None)
@given(
    length=st.floats(40.0, 400.0),
    vs=st.floats(6.0, 24.0),
    ve=st.floats(6.0, 24.0),
    frac=st.floats(0.0, 1.0),
)
def test_zone_solutions_hold_invariants(length, vs, ve, frac):
    try:
        bnd = bounds_for(length, vs, ve)
    except InfeasibleBoundary:
        assume(False)
    hi = bnd.deadline if bnd.deadline is not None else bnd.release + 60.0
    hi = min(hi, bnd.release + 60.0)
    w = bnd.release + frac * (hi - bnd.release)
    bvp = bvp_for(length, vs, ve, w)
    traj = solve_zone(bvp, bnd)
    assert_invariants(bvp, traj)
    free = solve_unconstrained(bvp)
    assert traj.energy >= free.energy - 1e-7


def test_eval_many_agrees_with_scalar_eval():
    bnd = bounds_for(300.0, 15.0, 15.0)
    traj = solve_zone(bvp_for(300.0, 15.0, 15.0, 17.0), bnd)
    t, p, v, u = traj.sample(0.01)
    assert abs(t[-1] - traj.t_end) <= 1e-9
    for i in range(0, len(t), 137):
        pi, vi, ui = traj.eval(float(t[i]))
        assert abs(pi - p[i]) <= 1e-12
        assert abs(vi - v[i]) <= 1e-12
        assert abs(ui - u[i]) <= 1e-12


@given(
    a=st.floats(-0.5, 0.5),
    b=st.floats(-1.0, 1.0),
    w=st.floats(0.1, 40.0),
)
@settings(max_examples=100, deadline=None)
def test_polynomial_energy_closed_form(a, b, w):
    arc = Arc("cubic", 0.0, w, p0=0.0, v0=10.0, u0=b, slope=a)
    s = np.linspace(0.0, w, 20001)
    ref = float(np.trapezoid(0.5 * (b + a * s) ** 2, s))
    assert abs(arc.energy - ref) <= 1e-6 * max(1.0, ref)


# ---------------------------------------------------------------------------
# rear-end safety
# ---------------------------------------------------------------------------


def one_zone(*arcs, zone=0):
    return Trajectory(arcs, (zone,) * len(arcs))


def const_speed_traj(p0, v, t0, t1):
    return one_zone(Arc("cruise", t0, t1, p0=p0, v0=v, u0=0.0, slope=0.0))


def test_check_rear_end_clear_and_violating():
    lead = const_speed_traj(20.0, 15.0, 0.0, 10.0)
    foll = const_speed_traj(0.0, 15.0, 0.0, 10.0)
    # 20 m gap, needs 5 + 0.2*15 = 8: clear
    assert check_rear_end(lead, 0.0, foll, 0.0, 0.0, 10.0, 5.0, 0.2) == []
    fast = const_speed_traj(0.0, 17.0, 0.0, 10.0)
    # margin hits zero at (20 - 5 - 0.2*17) / 2 = 5.8 s
    viol = check_rear_end(lead, 0.0, fast, 0.0, 0.0, 10.0, 5.0, 0.2)
    assert len(viol) == 1
    start, end, worst = viol[0]
    assert abs(start - 5.8) <= 0.02
    assert abs(end - 10.0) <= 1e-9
    assert worst < -1e-6


def test_check_rear_end_uses_anchors():
    # same layout, but each vehicle measured in its own path coordinates
    lead = const_speed_traj(120.0, 15.0, 0.0, 10.0)
    foll = const_speed_traj(300.0, 15.0, 0.0, 10.0)
    assert check_rear_end(lead, 100.0, foll, 300.0, 0.0, 10.0, 5.0, 0.2) == []
    # effective gap exactly at gamma + phi*v satisfies the rule
    assert check_rear_end(lead, 112.0, foll, 300.0, 0.0, 10.0, 5.0, 0.2) == []
    tight = check_rear_end(lead, 113.0, foll, 300.0, 0.0, 10.0, 5.0, 0.2)
    assert len(tight) == 1  # one metre inside the spacing rule


# ---------------------------------------------------------------------------
# safety (follow) arc
# ---------------------------------------------------------------------------

PHI = 0.2
GAMMA = 5.0


def _leader_decel_then_accel():
    # u = -1 on [0, 2], then +0.5 on [2, 6]
    a1 = Arc("const", 0.0, 2.0, p0=102.8, v0=14.0, u0=-1.0, slope=0.0)
    p1, v1, _ = a1.end_state()
    a2 = Arc("const", 2.0, 6.0, p0=p1, v0=v1, u0=0.5, slope=0.0)
    return one_zone(a1, a2)


def follower_closed_form(t):
    """Tangency tracking of a constant u_k = -1 leader from rest mismatch 0."""
    u = -1.0 + np.exp(-t / PHI)
    v = 14.0 - t + PHI * (1.0 - np.exp(-t / PHI))
    p = 95.0 + 14.0 * t - 0.5 * t * t + PHI * t + PHI * PHI * (np.exp(-t / PHI) - 1.0)
    return p, v, u


def test_follow_arc_matches_exponential_closed_form():
    lead = _leader_decel_then_accel()
    # gap exactly gamma + phi*v at t=0, speeds equal: tangency control is 0
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 14.0), BoundaryState(172.0, 13.0), LIM)
    arcs, tau2, info = follow_arc(0.0, (95.0, 14.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    assert abs(info["u_entry"]) <= 1e-12
    assert tau2 > 2.0  # tracked through the leader's whole deceleration
    assert [a.label for a in arcs] == ["follow", "follow"] and arcs[-1].t1 == tau2
    tracked = one_zone(*arcs)
    # arbitrary times, not a grid
    ts = np.sort(np.random.default_rng(4).uniform(0.0, 2.0, 2000))
    p, v, u = tracked.eval_many(ts)
    p_ref, v_ref, u_ref = follower_closed_form(ts)
    assert np.max(np.abs(u - u_ref)) <= 1e-12
    assert np.max(np.abs(v - v_ref)) <= 1e-12
    assert np.max(np.abs(p - p_ref)) <= 1e-12
    # the active constraint holds exactly along the whole tracked stretch
    ts = np.linspace(0.0, tau2, 3001)
    pl, _vl, _ = lead.eval_many(ts)
    p, v, _ = tracked.eval_many(ts)
    assert np.max(np.abs(pl - p - GAMMA - PHI * v)) <= 1e-12


def test_follow_arc_no_exit_when_target_unreachable():
    a1 = Arc("const", 0.0, 6.0, p0=102.8, v0=14.0, u0=-1.0, slope=0.0)
    lead = one_zone(a1)
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 14.0), BoundaryState(179.0, 14.0), LIM)
    with pytest.raises(NoExitFound):
        follow_arc(0.0, (95.0, 14.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)


def test_follow_arc_exits_quickly_with_clearance():
    a1 = Arc("cruise", 0.0, 6.0, p0=140.0, v0=15.0, u0=0.0, slope=0.0)
    lead = one_zone(a1)
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 15.0), BoundaryState(185.0, 15.0), LIM)
    arcs, tau2, _info = follow_arc(0.0, (95.0, 15.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    assert tau2 <= 0.002
    assert arcs[-1].t1 - arcs[0].t0 <= 0.002


def rk4_chain(leader, starts, t_end, h):
    """Fourth-order steps of h for trackers in a chain behind leader.

    starts[k] = (t, p, v): tracker k joins the chain at time t (on the step
    grid) from that state, riding v' = (v_ahead - v)/phi with p' = v, where
    v_ahead is the leader's speed for tracker 0 and tracker k-1's for the
    rest.  Returns the grid and each tracker's (p, v) on it (nan before it
    joins).  Independent of the closed form: only leader.eval_many is used.
    """
    t0 = starts[0][0]
    n = int(round((t_end - t0) / h))
    v_lead = leader.eval_many(t0 + np.arange(2 * n + 1) * (h / 2))[1].tolist()
    join = [int(round((t - t0) / h)) for t, _, _ in starts]
    m = len(starts)
    out = np.full((m, 2, n + 1), np.nan)
    y = [math.nan] * (2 * m)  # p0, v0, p1, v1, ...

    def rate(y, vl):
        dy = []
        for k in range(m):
            ahead = vl if k == 0 else y[2 * k - 1]
            dy += [y[2 * k + 1], (ahead - y[2 * k + 1]) / PHI]
        return dy

    for i in range(n + 1):
        for k in range(m):
            if join[k] == i:
                y[2 * k], y[2 * k + 1] = starts[k][1], starts[k][2]
        for k in range(m):
            out[k, :, i] = y[2 * k], y[2 * k + 1]
        if i == n:
            break
        k1 = rate(y, v_lead[2 * i])
        k2 = rate([a + h / 2 * b for a, b in zip(y, k1)], v_lead[2 * i + 1])
        k3 = rate([a + h / 2 * b for a, b in zip(y, k2)], v_lead[2 * i + 1])
        k4 = rate([a + h * b for a, b in zip(y, k3)], v_lead[2 * i + 2])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return t0 + np.arange(n + 1) * h, out


def test_follow_arc_behind_a_tracked_leader_matches_fine_rk4():
    # the leader itself rides follow arcs, then its remainder; the follower
    # reaches tangency on those arcs and tracks through them
    lead = _leader_decel_then_accel()
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 14.0), BoundaryState(172.0, 13.0), LIM)
    arcs, tau, info = follow_arc(0.0, (95.0, 14.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    tracked = one_zone(*arcs, *info["remainder"].arcs, zone=9)
    pl, vl, _ = tracked.eval(0.5)
    v1 = vl + 1.0
    p1 = pl - GAMMA - PHI * v1
    bvp2 = ZoneBVP(9, 0.5, 7.0, BoundaryState(p1, v1), BoundaryState(p1 + 80.0, 13.0), LIM)
    arcs2, tau2, _info = follow_arc(0.5, (p1, v1), tracked, 0.0, 0.0, bvp2, GAMMA, PHI)
    # all of it behind the leader's follow arcs, across the leader's join at t = 2
    assert tau2 > 2.0 + 0.1 and tau2 < tau
    assert len(arcs2) == 2 and all(len(a.g) == 2 for a in arcs2)
    t, ref = rk4_chain(tracked, [(0.5, p1, v1)], tau2, 1e-5)
    p, v, _ = one_zone(*arcs2).eval_many(t)
    assert np.max(np.abs(p - ref[0, 0])) <= 1e-10
    assert np.max(np.abs(v - ref[0, 1])) <= 1e-10


def test_tracking_through_the_leaders_exit_matches_fine_rk4():
    # the leader's trajectory ends at t = 2 and it coasts at 12 m/s after:
    # the window from tangency at t = 1 runs two seconds past that
    lead = one_zone(Arc("const", 0.0, 2.0, p0=102.8, v0=14.0, u0=-1.0))
    pl, vl, _ = lead.eval(1.0)
    v1 = vl + 0.5
    p1 = pl - GAMMA - PHI * v1
    arcs = trajectory._track(lead, 1.0, 4.0, p1, v1, PHI)
    assert [(a.t0, a.t1) for a in arcs] == [(1.0, 2.0), (2.0, 4.0)]
    coast = arcs[1]
    assert (coast.v0, coast.u0, coast.slope, len(coast.g)) == (12.0, 0.0, 0.0, 1)
    t, ref = rk4_chain(lead, [(1.0, p1, v1)], 4.0, 2.0**-12)
    p, v, u = one_zone(*arcs).eval_many(t)
    assert np.max(np.abs(p - ref[0, 0])) <= 1e-10
    assert np.max(np.abs(v - ref[0, 1])) <= 1e-10
    pl, vl, _ = lead.eval_many(t)
    assert np.max(np.abs(u - (vl - v) / PHI)) <= 1e-10
    assert np.max(np.abs(pl - p - GAMMA - PHI * v)) <= 1e-12


def test_three_trackers_in_a_chain_match_fine_rk4():
    # each tracker rides the spacing rule behind the one ahead, joining the
    # chain a quarter second after it: the third one's G is a quadratic
    lead = one_zone(
        Arc("cubic", 0.0, 1.0, p0=200.0, v0=15.0, u0=-0.8, slope=0.3),
        Arc("const", 1.0, 3.0, p0=214.65, v0=14.35, u0=0.4),
    )
    starts, chain = [], [lead]
    for k, t1 in enumerate((0.0, 0.25, 0.5)):
        pl, vl, _ = chain[-1].eval(t1)
        v1 = vl + 0.3 * (k + 1)
        p1 = pl - GAMMA - PHI * v1
        starts.append((t1, p1, v1))
        chain.append(one_zone(*trajectory._track(chain[-1], t1, 3.0, p1, v1, PHI)))
    assert [max(len(a.g) for a in c.arcs) for c in chain[1:]] == [1, 2, 3]
    t, ref = rk4_chain(lead, starts, 3.0, 2.0**-12)
    for k, c in enumerate(chain[1:]):
        on = t >= starts[k][0]
        p, v, _ = c.eval_many(t[on])
        assert np.max(np.abs(p - ref[k, 0, on])) <= 1e-10
        assert np.max(np.abs(v - ref[k, 1, on])) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known fault: tracking applies u = (v_leader - v)/phi without clipping at u_min",
)
def test_follow_arc_control_respects_u_min_behind_slower_leader():
    # tangency behind a leader 4 m/s slower: entry control is (10 - 14)/0.2
    lead = one_zone(Arc("cruise", 0.0, 8.0, p0=102.8, v0=10.0))
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 14.0), BoundaryState(155.0, 10.0), LIM)
    arcs, _tau2, info = follow_arc(0.0, (95.0, 14.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    assert abs(info["remainder"].t_end - bvp.t_end) <= TOL  # a clean exit was found
    assert min(a.control_extrema()[0] for a in arcs) >= LIM.u_min - TOL


# ---------------------------------------------------------------------------
# evaluation kernel
# ---------------------------------------------------------------------------


def reference_zone_eval(traj: Trajectory, t: np.ndarray):
    """Hold the start state before the first arc, route each time to the
    first zone and then the first arc ending at or after it (else the
    last), evaluate that arc alone with Arc.eval_many, and coast at the
    exit speed past the end."""
    zones = [traj.zone(z) for z in dict.fromkeys(traj.zone_ids)]
    out = np.empty((3, len(t)))
    for i, ti in enumerate(t):
        tc = min(max(ti, traj.t_start), traj.t_end)
        arcs = next((arcs for arcs in zones if tc <= arcs[-1].t1), zones[-1])
        arc = next((a for a in arcs if tc <= a.t1), arcs[-1])
        out[:, i] = [x[0] for x in arc.eval_many(np.asarray([tc]))]
        if ti > traj.t_end:
            pe, ve, _ = traj.arcs[-1].end_state()
            out[:, i] = (pe + ve * (ti - traj.t_end), ve, 0.0)
    return out


def kernel_times(traj: Trajectory) -> np.ndarray:
    """Times before the start, on every arc edge, inside arcs, densely
    inside follow arcs, and past the end."""
    edges = [a.t0 for a in traj.arcs] + [a.t1 for a in traj.arcs]
    inside = [0.5 * (a.t0 + a.t1) for a in traj.arcs]
    follow = [np.linspace(a.t0, a.t1, 15)[1:-1] + 3e-4 for a in traj.arcs if a.label == "follow"]
    grid = np.linspace(traj.t_start, traj.t_end, 301)
    return np.concatenate([[traj.t_start - 1.0], edges, inside, *follow, grid, [traj.t_end + 2.0]])


def test_zone_kernel_matches_per_arc_eval_bitwise():
    bnd = bounds_for(600.0, 15.0, 15.0)
    saturated = solve_zone(bvp_for(600.0, 15.0, 15.0, bnd.release + 0.1, t0=123.4), bnd)
    assert len(saturated.arcs) > 3
    lead = _leader_decel_then_accel()
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 14.0), BoundaryState(172.0, 13.0), LIM)
    arcs, _tau2, info = follow_arc(0.0, (95.0, 14.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    tracked = one_zone(*arcs, *info["remainder"].arcs, zone=9)
    for traj in (saturated, lead, tracked):
        t = kernel_times(traj)
        # the whole window alone, and with times before and after it
        within = t[(t >= traj.t_start) & (t <= traj.t_end)]
        assert len(within) == len(t) - 2
        for times in (within, t):
            p, v, u = traj.eval_many(times)
            ref = reference_zone_eval(traj, times)
            assert np.array_equal(p, ref[0])
            assert np.array_equal(v, ref[1])
            assert np.array_equal(u, ref[2])


# ---------------------------------------------------------------------------
# violating-run extraction
# ---------------------------------------------------------------------------


class _Prescribed:
    """Stub trajectory whose position on the check grid is a given series."""

    def __init__(self, t: np.ndarray, p: np.ndarray):
        self.t, self.p = t, p

    def eval_many(self, t):
        assert np.array_equal(t, self.t)
        return self.p, np.zeros_like(t), np.zeros_like(t)


def reference_runs(t, margin, tol):
    """Scalar scan over the samples: one (start, end, worst) per violating run."""
    out = []
    i, n = 0, len(t) - 1
    while i <= n:
        if margin[i] < -tol:
            j = i
            while j + 1 <= n and margin[j + 1] < -tol:
                j += 1
            out.append((float(t[i]), float(t[j]), float(margin[i : j + 1].min())))
            i = j + 1
        else:
            i += 1
    return out


@pytest.mark.parametrize(
    "pattern",
    [
        "..........",  # no violation
        "xxxxxxxxxx",  # every sample violates
        "x.x.x.x.xx",  # single-sample runs, one touching t_lo
        ".x.x.x.x.x",  # single-sample run touching t_hi
        "xxx....xxx",  # runs touching both ends
        "...xxxx...",
    ],
)
def test_check_rear_end_runs_match_scalar_scan(pattern):
    t_lo, t_hi, dt = 3.0, 3.09, 0.01
    n = max(int(math.ceil((t_hi - t_lo) / dt)), 1)
    t = np.linspace(t_lo, t_hi, n + 1)
    assert n + 1 == len(pattern)
    rng = np.random.default_rng(len(pattern) + pattern.count("x"))
    bad = np.asarray([c == "x" for c in pattern])
    margin = np.where(bad, -rng.uniform(1e-3, 1.0, n + 1), rng.uniform(0.0, 1.0, n + 1))
    lead = _Prescribed(t, margin)
    foll = _Prescribed(t, np.zeros_like(t))
    got = check_rear_end(lead, 0.0, foll, 0.0, t_lo, t_hi, 0.0, 0.0, dt=dt, tol=1e-6)
    assert got == reference_runs(t, margin, 1e-6)
    assert len(got) == len([r for r in pattern.split(".") if r])


def test_check_rear_end_runs_match_scalar_scan_random():
    rng = np.random.default_rng(11)
    t_lo, t_hi, dt = 0.0, 5.0, 0.01
    n = max(int(math.ceil((t_hi - t_lo) / dt)), 1)
    t = np.linspace(t_lo, t_hi, n + 1)
    for density in (0.05, 0.5, 0.95):
        margin = np.where(rng.random(n + 1) < density, -rng.uniform(0.0, 1.0, n + 1), 1.0)
        got = check_rear_end(
            _Prescribed(t, margin), 0.0, _Prescribed(t, np.zeros_like(t)), 0.0,
            t_lo, t_hi, 0.0, 0.0, dt=dt, tol=1e-6,
        )
        assert got == reference_runs(t, margin, 1e-6)


# ---------------------------------------------------------------------------
# exact least margin
# ---------------------------------------------------------------------------


def grid_min(lead, a_l, foll, a_f, t_lo, t_hi, gamma, phi, dt):
    """The least margin on check_rear_end's grid of step dt."""
    return check_rear_end(lead, a_l, foll, a_f, t_lo, t_hi, gamma, phi, dt=dt, tol=-math.inf)[0][2]


def assert_least_margin(*args, fine=True):
    """_least_margin at or below every sample of the 1 ms exit grid, and not
    below a 20 us scan by more than that scan's own resolution allows."""
    got = _least_margin(*args)
    assert got <= grid_min(*args, 1e-3) + 1e-12
    if fine:
        assert got >= grid_min(*args, 2e-5) - 1e-9
    return got


def spy_on_exit_tests(monkeypatch):
    """Check every exit test follow_arc makes, every 20th also on the 20 us scan."""
    calls = []

    def checked(*args):
        calls.append(args)
        return assert_least_margin(*args, fine=len(calls) % 20 == 1)

    monkeypatch.setattr(trajectory, "_least_margin", checked)
    return calls


def test_least_margin_brackets_every_exit_test_of_a_real_repair(monkeypatch):
    calls = spy_on_exit_tests(monkeypatch)
    res = run(SimConfig(arrival_mode="poisson", n_vehicles=20, seed=5, policy="fifo"))
    assert res.metrics.repairs >= 1
    assert len(calls) > 300


def test_least_margin_finds_a_dip_between_grid_samples_at_arc_joins():
    # the leader drops 1 mm back over one 1 ms step, between two samples
    tc = np.linspace(0.0, 1.0, 1001)[173] + 0.5e-3
    h = 0.25e-3
    lead = one_zone(
        Arc("cruise", 0.0, tc - h, p0=1.0),
        Arc("cruise", tc - h, tc + h, p0=-1e-3),
        Arc("cruise", tc + h, 1.0, p0=1.0),
    )
    foll = const_speed_traj(0.0, 0.0, 0.0, 1.0)
    assert grid_min(lead, 0.0, foll, 0.0, 0.0, 1.0, 0.0, PHI, 1e-3) == 1.0
    got = _least_margin(lead, 0.0, foll, 0.0, 0.0, 1.0, 0.0, PHI)
    assert abs(got - -1e-3) <= 1e-12


def test_least_margin_finds_a_follow_arcs_exponential_dip():
    # a leader at rest apart from the exponential part g2*s^2*e^(-s/tau) of
    # its follow arc, which dips 1 mm at s = 2*tau = 4 ms; the follower is
    # at rest, so phi = tau leaves the margin as it is.  From 0.5 ms on, the
    # 1 ms grid steps over the dip's bottom.
    tau = 0.002
    g2 = -1e-3 / (4 * tau * tau * math.exp(-2.0))
    lead = one_zone(Arc("follow", 0.0, 1.0, p0=2e-6, tau=tau, g=(0.0, 0.0, g2)))
    foll = const_speed_traj(0.0, 0.0, 0.0, 1.0)
    for t_lo in (0.0, 0.5e-3):
        got = assert_least_margin(lead, 0.0, foll, 0.0, t_lo, 1.0, 0.0, tau, fine=False)
        assert abs(got - (2e-6 - 1e-3)) <= 1e-12
    assert grid_min(lead, 0.0, foll, 0.0, 0.5e-3, 1.0, 0.0, tau, 1e-3) > got + 1e-6


def test_least_margin_behind_a_tracked_leader():
    # the leader rides a real follow arc, then its solved remainder; the
    # follower is a constant-control arc placed to pinch at several depths
    lead = _leader_decel_then_accel()
    bvp = ZoneBVP(9, 0.0, 6.0, BoundaryState(95.0, 14.0), BoundaryState(172.0, 13.0), LIM)
    arcs, _tau2, info = follow_arc(0.0, (95.0, 14.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    tracked = one_zone(*arcs, *info["remainder"].arcs, zone=9)
    assert any(a.g for a in tracked.arcs)
    found = 0
    for p0 in np.linspace(70.0, 90.0, 9):
        foll = one_zone(Arc("const", 0.0, 6.0, p0=float(p0), v0=13.0, u0=-0.4), zone=9)
        found += assert_least_margin(tracked, 0.0, foll, 0.0, 0.0, 6.0, GAMMA, PHI) < -5e-7
    assert 0 < found < 9
    # from mid-way along the leader's first follow arc, where its
    # exponential part has decayed, a closing follower's margin bottoms out
    # inside that arc
    foll = one_zone(Arc("const", 0.0, 6.0, p0=80.0, v0=14.5, u0=-1.2), zone=9)
    ends = [tracked.eval(t)[0] - foll.eval(t)[0] - GAMMA - PHI * foll.eval(t)[1] for t in (0.3, 6.0)]
    assert assert_least_margin(tracked, 0.0, foll, 0.0, 0.3, 6.0, GAMMA, PHI) < min(ends) - 1e-3


def test_least_margin_where_the_remainder_speed_is_clipped(monkeypatch):
    # the leader creeps at 4 m/s, under v_min, before speeding up: candidate
    # remainders start from the tracked state with its speed raised to v_min
    a1 = Arc("cruise", 0.0, 2.0, p0=100.0, v0=4.0)
    p1, v1, _ = a1.end_state()
    a2 = Arc("const", 2.0, 8.0, p0=p1, v0=v1, u0=1.0)
    p2, v2, _ = a2.end_state()
    lead = one_zone(a1, a2, Arc("cruise", 8.0, 20.0, p0=p2, v0=v2))
    p_f = 100.0 - GAMMA - PHI * 4.0
    bvp = ZoneBVP(9, 0.0, 14.0, BoundaryState(p_f, 4.0), BoundaryState(p_f + 100.0, 10.0), LIM)
    calls = spy_on_exit_tests(monkeypatch)
    _arc, tau2, _info = follow_arc(0.0, (p_f, 4.0), lead, 0.0, 0.0, bvp, GAMMA, PHI)
    clipped = [c for c in calls if c[2].arcs[0].v0 == LIM.v_min]
    assert len(clipped) > 100
    assert tau2 > 3.0


def test_least_margin_past_the_leaders_exit():
    # the leader leaves the corridor at t = 2 and coasts at 10 m/s; the
    # follower closes in at 12 m/s and pinches only during the coast
    lead = one_zone(Arc("const", 0.0, 2.0, p0=20.0, v0=9.0, u0=0.5))
    foll = one_zone(Arc("cubic", 0.0, 10.0, p0=0.0, v0=12.0, u0=0.1, slope=-0.02))
    assert assert_least_margin(lead, 0.0, foll, 0.0, 0.0, 10.0, GAMMA, PHI) < -5e-7
    runs = check_rear_end(lead, 0.0, foll, 0.0, 0.0, 10.0, GAMMA, PHI, dt=1e-3, tol=5e-7)
    assert runs[0][0] > lead.t_end


def test_least_margin_on_short_windows():
    lead = const_speed_traj(20.0, 15.0, 0.0, 10.0)
    fast = const_speed_traj(0.0, 17.0, 0.0, 10.0)
    # the margin crosses zero at 5.8 s; the windows run from one grid step up
    for t_hi in (5.751, 5.781, 5.81, 5.878, 5.9):
        assert_least_margin(lead, 0.0, fast, 0.0, 5.75, t_hi, GAMMA, PHI)
    assert _least_margin(lead, 0.0, fast, 0.0, 5.75, 5.75, GAMMA, PHI) == math.inf


def test_rate_roots_bracket_every_sign_change():
    rng = np.random.default_rng(21)
    n_roots = [0, 0]  # sign changes of f without and with an exponential part
    for _ in range(1500):
        q = tuple(float(x) for x in rng.normal(0.0, 1.0, 3))
        h = tuple(float(x) for x in rng.normal(0.0, 3.0, int(rng.integers(0, 4))))
        phi = float(rng.uniform(0.05, 1.0))
        w = float(rng.uniform(0.1, 5.0))
        x = np.linspace(0.0, w, 4001)
        f = q[0] + q[1] * x + q[2] * x * x + np.polynomial.polynomial.polyval(x, h or [0.0]) * np.exp(-x / phi)
        roots = _rate_roots(q, h, phi, w)
        assert roots == sorted(roots) and all(0.0 < r < w for r in roots)
        for i in np.flatnonzero((f[1:] > 0.0) != (f[:-1] > 0.0)):
            assert any(x[i] <= r <= x[i + 1] for r in roots), (q, h, phi, w, x[i])
            n_roots[bool(h)] += 1
    assert min(n_roots) > 100, n_roots


# ---------------------------------------------------------------------------
# zone-solve kernels
# ---------------------------------------------------------------------------


def random_interior_bvps(seed, n):
    """Random zone problems with windows strictly inside [release, deadline]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        length = float(rng.uniform(20.0, 400.0))
        vs, ve = (float(x) for x in rng.uniform(LIM.v_min, LIM.v_max, 2))
        start, end = BoundaryState(0.0, vs), BoundaryState(length, ve)
        try:
            rel = release_time(start, end, LIM).time
            ddl = deadline(start, end, LIM)
        except InfeasibleBoundary:
            continue
        hi = rel + 20.0 if ddl.is_unbounded() else min(ddl.time, rel + 20.0)
        yield ZoneBVP(0, 0.0, float(rng.uniform(rel, hi)), start, end, LIM)


def reference_cubic_coeffs(w, ps, vs, pe, ve):
    """The four boundary conditions solved as a 4x4 linear system."""
    m = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, w, w * w / 2.0, w**3 / 6.0],
        [0.0, 1.0, w, w * w / 2.0],
    ])
    _d, _c, b, a = np.linalg.solve(m, np.array([ps, vs, pe, ve]))
    return float(a), float(b)


def random_cubic_systems(seed, n=200):
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(math.log(1e-6), math.log(60.0), n))
    return w, rng.uniform(0.0, 500.0, n), rng.uniform(0.0, 25.0, n), 700.0, 15.0


def test_closed_form_cubic_coeffs_meet_the_boundary_conditions():
    w, p1, v1, pe, ve = random_cubic_systems(3)
    for i in range(len(w)):
        wi, ps, vs = float(w[i]), float(p1[i]), float(v1[i])
        a, b = _cubic_coeffs(wi, ps, vs, pe, ve)
        ra, rb = reference_cubic_coeffs(wi, ps, vs, pe, ve)
        assert a == pytest.approx(ra, rel=1e-9) and b == pytest.approx(rb, rel=1e-9)
        arc = Arc("cubic", 0.0, wi, p0=ps, v0=vs, u0=b, slope=a)
        p_end, v_end, _ = arc.end_state()
        assert arc.eval(0.0)[:2] == (ps, vs)
        # short windows cancel large terms: allow rounding at their scale
        v_terms = abs(vs) + abs(b * wi) + abs(a * wi * wi / 2.0)
        p_terms = abs(ps) + abs(vs * wi) + abs(b * wi * wi / 2.0) + abs(a * wi**3 / 6.0)
        assert abs(p_end - pe) <= 1e-14 * p_terms and abs(v_end - ve) <= 1e-14 * v_terms


def test_array_cubic_coeffs_equal_scalar_calls_bitwise():
    w, p1, v1, pe, ve = random_cubic_systems(4)
    a, b = _cubic_coeffs(w, p1, v1, pe, ve)
    for i in range(len(w)):
        sa, sb = _cubic_coeffs(float(w[i]), float(p1[i]), float(v1[i]), pe, ve)
        assert (a[i].hex(), b[i].hex()) == (sa.hex(), sb.hex())


def bisected_root(f, lo, hi, n_scan=400):
    """The first sign change of f on an n_scan-point grid over [lo, hi],
    bisected on floats until the bracket's midpoint is one of its ends;
    None when the grid shows no sign change."""
    if hi <= lo:
        return None
    prev = None
    for x in np.linspace(lo, hi, n_scan).tolist():
        fx = f(x)
        if fx == 0.0:
            return x
        if prev is not None and (fx > 0) != (prev[1] > 0):
            a, fa, b = prev[0], prev[1], x
            while a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                fm = f(m)
                if fm == 0.0:
                    return m
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
            return 0.5 * (a + b)
        prev = (x, fx)
    return None


def reference_sat_linear(bvp, u_raw0, u_raw1):
    """Saturated-linear pieces from the junction residuals themselves: the
    cubic's control meets a lead or tail bang, or a two-bang structure
    lands on pe, each root found by bisected_root over the solver's ranges.
    Returns (label, duration, u0) per piece, or None."""
    lim, w = bvp.limits, bvp.window
    ps, vs, pe, ve = bvp.start.position, bvp.start.speed, bvp.end.position, bvp.end.speed
    clip = lambda u: lim.u_max if u > lim.u_max else lim.u_min if u < lim.u_min else None
    lead, tail = clip(u_raw0), clip(u_raw1)
    other = lambda U: lim.u_min if U == lim.u_max else lim.u_max
    if lead is not None and tail is None:
        U = lead

        def lead_cubic(tau):
            return _cubic_coeffs(w - tau, ps + vs * tau + 0.5 * U * tau * tau, vs + U * tau, pe, ve)

        tau = bisected_root(lambda tau: lead_cubic(tau)[1] - U, 1e-11, w - 1e-9)
        if tau is None:
            tail = other(U)
        else:
            a, b = lead_cubic(tau)
            tail = clip(b + a * (w - tau))
            if tail is None:
                return [("const", tau, U), ("cubic", w - tau, b)]
    elif tail is not None and lead is None:
        U = tail

        def tail_cubic(tau):
            dur = w - tau
            return _cubic_coeffs(tau, ps, vs, pe - ve * dur + 0.5 * U * dur * dur, ve - U * dur)

        def tail_control(tau):
            a, b = tail_cubic(tau)
            return b + a * tau - U

        tau = bisected_root(tail_control, 1e-9, w - 1e-11)
        if tau is None:
            lead = other(U)
        else:
            a, b = tail_cubic(tau)
            lead = clip(b)
            if lead is None:
                return [("cubic", tau, b), ("const", w - tau, U)]
    if lead is None or tail is None or lead == tail:
        return None
    U1, U2 = lead, tail
    S = 2.0 * (ve - vs - U2 * w) / (U1 - U2)

    def landing(tau1):
        tau2 = S - tau1
        d = tau2 - tau1
        v1, p1 = vs + U1 * tau1, ps + vs * tau1 + 0.5 * U1 * tau1 * tau1
        a = (U2 - U1) / d
        v2 = v1 + U1 * d + 0.5 * a * d * d
        p2 = p1 + v1 * d + 0.5 * U1 * d * d + a * d * d * d / 6.0
        rem = w - tau2
        return p2 + v2 * rem + 0.5 * U2 * rem * rem - pe

    tau1 = bisected_root(landing, max(0.0, S - w) + 1e-11, min(S / 2.0 - 1e-11, w - 1e-11))
    if tau1 is None or not (tau1 < S - tau1 <= w + 1e-9):
        return None
    return [("const", tau1, U1), ("cubic", S - 2.0 * tau1, U1), ("const", w - (S - tau1), U2)]


def saturating_bvps(seed, n):
    """random_interior_bvps whose cubic keeps to the speed limits but breaks
    a control bound: the problems solve_zone hands to _sat_linear."""
    for bvp in random_interior_bvps(seed, n):
        w = bvp.window
        a, b = _cubic_coeffs(w, 0.0, bvp.start.speed, bvp.end.position, bvp.end.speed)
        if _cubic_speed_violation(bvp, [_Piece("cubic", w, b, a)]) is None:
            if not (LIM.u_min <= b <= LIM.u_max and LIM.u_min <= b + a * w <= LIM.u_max):
                yield bvp, b, b + a * w


def test_junction_times_match_bisected_residuals():
    shapes = []
    for bvp, u0, u1 in saturating_bvps(7, 1500):
        got, want = _sat_linear(bvp, u0, u1), reference_sat_linear(bvp, u0, u1)
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert [pc.label for pc in got] == [label for label, _, _ in want]
        for pc, (label, dur, u0) in zip(got, want):
            assert abs(pc.dur - dur) <= 1e-9
            assert label == "cubic" or pc.u0 == u0
        shapes.append(len(got))
    # one-sided (bang and cubic) and two-bang (bang, cubic, bang) junctions
    assert min(shapes.count(2), shapes.count(3)) >= 100


def cruise_landing(bvp, pieces):
    """Exit position of a piece list, integrated piece by piece."""
    p, v = bvp.start.position, bvp.start.speed
    for pc in pieces:
        p += v * pc.dur + 0.5 * pc.u0 * pc.dur**2 + pc.slope * pc.dur**3 / 6.0
        v += pc.u0 * pc.dur + 0.5 * pc.slope * pc.dur**2
    return p


def reference_cruise_slope(bvp, v_pin):
    """The control slope whose ramps land on pe, by float bisection of the
    landing from the least slope that fits, doubled until it brackets."""
    landing = lambda A: cruise_landing(bvp, _cruise_pieces(bvp, v_pin, A)) - bvp.end.position
    lo = _min_cruise_slope(bvp, v_pin)
    f_lo, hi = landing(lo), 2.0 * lo
    while (landing(hi) > 0) == (f_lo > 0):
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (landing(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return hi


def pinned_speed(bvp):
    """The speed bound solve_zone pins a cruise at, or None."""
    w = bvp.window
    a, b = _cubic_coeffs(w, bvp.start.position, bvp.start.speed, bvp.end.position, bvp.end.speed)
    v_pin = _cubic_speed_violation(bvp, [_Piece("cubic", w, b, a)])
    if v_pin is None and not (LIM.u_min <= b <= LIM.u_max and LIM.u_min <= b + a * w <= LIM.u_max):
        v_pin = _cubic_speed_violation(bvp, _sat_linear(bvp, b, b + a * w))
    return v_pin


def test_cruise_slope_matches_bisected_landing():
    ceiling = bvp_for(600.0, 15.0, 15.0, bounds_for(600.0, 15.0, 15.0).release + 0.1)
    cases = [(bvp, pinned_speed(bvp)) for bvp in [ceiling, *random_interior_bvps(11, 4000)]]
    cases = [(bvp, v_pin) for bvp, v_pin in cases if v_pin is not None]
    assert cases[0][1] == LIM.v_max
    for bvp, v_pin in cases:
        got = _with_cruise(bvp, v_pin)
        want = _cruise_pieces(bvp, v_pin, reference_cruise_slope(bvp, v_pin))
        assert [pc.label for pc in got] == [pc.label for pc in want]
        for a, b in zip(got, want):
            assert abs(a.dur - b.dur) <= 1e-9
        assert abs(cruise_landing(bvp, got) - bvp.end.position) <= 1e-9
    assert sum(v_pin == LIM.v_min for _, v_pin in cases) >= 100


# Every zone-solve branch, run where any import of scipy fails.
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import corridor.cli
from corridor.kinematics import BoundaryState, Limits, deadline, release_time
from corridor.scheduler import ZoneBounds
from corridor.trajectory import ZoneBVP, solve_zone
lim = Limits(-1.0, 1.0, 5.0, 25.0)
for length, vs, ve, w in (
    (300.0, 15.0, 15.0, 25.0), (150.0, 5.0, 15.0, 14.0), (150.0, 15.0, 5.0, 14.0),
    (300.0, 15.0, 15.0, 16.5), (300.0, 15.0, 15.0, 38.0), (600.0, 15.0, 15.0, None),
):
    start, end = BoundaryState(0.0, vs), BoundaryState(length, ve)
    bounds = ZoneBounds(release_time(start, end, lim).time, deadline(start, end, lim).time)
    if w is None:  # 0.1 s above the release: a cruise at v_max
        w = bounds.release + 0.1
    arcs = solve_zone(ZoneBVP(0, 0.0, w, start, end, lim), bounds).arcs
    print(*(f"cruise@{a.v0:.9g}" if a.label == "cruise" else a.label for a in arcs))
"""


def test_zone_solve_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(trajectory.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "cubic",
        "const cubic",
        "cubic const",
        "const cubic const",
        "const cubic cruise@5 cubic const",
        "const cubic cruise@25 cubic const",
    ]


def reference_min_cruise_slope(bvp, v_pin):
    """The bisection run for all of its 200 steps."""
    fits = lambda A: _cruise_pieces(bvp, v_pin, A) is not None
    lo = hi = 1e-9
    while not fits(hi):
        hi *= 2.0
    if fits(lo):
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_direct_cruise_slope_is_the_fit_boundary():
    seen = 0
    for bvp in random_interior_bvps(11, 4000):
        w = bvp.window
        a, b = _cubic_coeffs(w, 0.0, bvp.start.speed, bvp.end.position, bvp.end.speed)
        v_pin = _cubic_speed_violation(bvp, [_Piece("cubic", w, b, a)])
        if v_pin is None:
            continue
        seen += 1
        slope = _min_cruise_slope(bvp, v_pin)
        assert _cruise_pieces(bvp, v_pin, slope) is not None
        assert _cruise_pieces(bvp, v_pin, slope * (1.0 - 1e-9)) is None
        assert slope == pytest.approx(reference_min_cruise_slope(bvp, v_pin), rel=1e-9)
    assert seen >= 50


# a zone problem with control limits lopsided by more than 3:1: the first
# cubic crosses v_max, and near the deadline no ramp/cruise/ramp at v_max
# both fits and lands on the exit state
LOPSIDED = (Limits(-2.60, 0.34, 5.46, 25.02), 115.4, 16.63, 8.58)


def test_lopsided_limits_solve_short_of_the_gap():
    lim, length, vs, ve = LOPSIDED
    bvp = bvp_for(length, vs, ve, 13.9, lim=lim)
    assert_invariants(bvp, solve_zone(bvp, bounds_for(length, vs, ve, lim)))


@pytest.mark.xfail(
    strict=True,
    raises=PiecingDiverged,
    reason="known gap: the window of 14.018 s misses the exit by 0.45 m",
)
def test_lopsided_limits_solve_near_the_deadline():
    lim, length, vs, ve = LOPSIDED
    bounds = bounds_for(length, vs, ve, lim)
    assert bounds.release < 14.018 < bounds.deadline
    bvp = bvp_for(length, vs, ve, 14.018, lim=lim)
    assert_invariants(bvp, solve_zone(bvp, bounds))
