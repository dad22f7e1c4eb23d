"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (echoed in the terminal summary) and
fails loudly if its criterion is missed.  The heavy experiments, a volume
sweep and a shared-arrival policy comparison, run once in session fixtures
and feed several criteria.
"""

import math
import time

import numpy as np
import pytest

from corridor.kinematics import (
    BoundaryState,
    InfeasibleBoundary,
    Limits,
    deadline,
    integrate_profile,
    release_time,
)
from corridor.network import conflict_runs
from corridor.scheduler import (
    DisjunctiveBlock,
    DisjunctiveModel,
    Infeasible,
    ZoneBounds,
    enumerate_exact,
    solve,
)
from corridor.sim import FuelModel, SimConfig, compare_policies, run
from corridor.trajectory import PiecingDiverged, ZoneBVP, solve_unconstrained, solve_zone
from test_sim import reverify_rear_end

LIM = Limits(-1.0, 1.0, 5.0, 25.0)
H = 1.5

REFERENCE_TRAVEL_TIMES = {400: 40.81, 600: 41.86, 800: 43.26, 1000: 46.59, 1200: 48.53}
COMPARISON_CELLS = ((15, 1), (30, 2), (45, 3), (60, 4), (75, 5))

REPORT: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def volume_sweep():
    t0 = time.perf_counter()
    results = {
        vol: [run(SimConfig(volume_veh_h=float(vol), seed=seed)) for seed in range(1, 6)]
        for vol in REFERENCE_TRAVEL_TIMES
    }
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def policy_comparison():
    return {
        (n, seed): compare_policies(SimConfig(arrival_mode="poisson", n_vehicles=n, seed=seed))
        for n, seed in COMPARISON_CELLS
    }


# -- criterion 1: kinematics oracle -------------------------------------------


def test_criterion_1_kinematics_oracle():
    t_start = time.perf_counter()
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    for _ in range(10_000):
        length = float(rng.uniform(2.0, 400.0))
        vs = float(rng.uniform(LIM.v_min, LIM.v_max))
        ve = float(rng.uniform(LIM.v_min, LIM.v_max))
        start, end = BoundaryState(0.0, vs), BoundaryState(length, ve)
        try:
            rel = release_time(start, end, LIM)
            ddl = deadline(start, end, LIM)
        except InfeasibleBoundary:
            continue
        for res in (rel,) if ddl.is_unbounded() else (rel, ddl):
            s = integrate_profile(res.profile, 0.1)
            worst = max(worst, abs(float(s.p[-1]) - length), abs(float(s.v[-1]) - ve))
        checked += 1
    worked = (
        (release_time(BoundaryState(0, 15), BoundaryState(300, 15), LIM).time, 2 * (math.sqrt(525) - 15)),
        (release_time(BoundaryState(0, 15), BoundaryState(300, 15), Limits(-1, 1, 5, 20)).time, 16.25),
        (deadline(BoundaryState(0, 15), BoundaryState(300, 15), LIM).time, 40.0),
    )
    worked_err = max(abs(got - want) for got, want in worked)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-9 and worked_err <= 1e-9 and elapsed < 5.0
    report(
        1,
        ok,
        f"{checked} of 10000 pairs feasible, worst endpoint error {worst:.2e}, "
        f"worked values off by {worked_err:.2e}, {elapsed:.2f}s of 5s",
    )


# -- criterion 2: scheduler exactness ------------------------------------------


def _random_model(rng) -> DisjunctiveModel:
    n = int(rng.integers(2, 6))
    releases = rng.uniform(2.0, 10.0, n)
    deadlines = releases + rng.uniform(1.0, 25.0, n)
    zone_ids = tuple(int(z) for z in rng.choice(100, n, replace=False))
    blocks = []
    for other in range(int(rng.integers(0, 9))):
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
        headway=H,
    )


def _slack_violation(model, times) -> float:
    worst = 0.0
    worst = max(worst, abs(times[0] - model.t0))
    for k, w in enumerate(model.windows):
        dt = times[k + 1] - times[k]
        worst = max(worst, w.release - dt)
        if w.deadline is not None:
            worst = max(worst, dt - w.deadline)
    for b in model.blocks:
        gaps_after = [t - (c + H) for t, c in zip((times[q] for q in b.var_indices), b.other_times)]
        gaps_before = [(c - H) - t for t, c in zip((times[q] for q in b.var_indices), b.other_times)]
        if b.fixed:
            worst = max(worst, -min(gaps_after))
        else:
            worst = max(worst, min(-min(gaps_after), -min(gaps_before)))
    return worst


def test_criterion_2_scheduler_exactness():
    t_start = time.perf_counter()
    rng = np.random.default_rng(23)
    solved = infeasible = disagreed = 0
    worst_gap = worst_slack = 0.0
    max_free = 0
    for _ in range(1_000):
        model = _random_model(rng)
        free = sum(1 for b in model.blocks if not b.fixed)
        assert free <= 12
        max_free = max(max_free, free)
        ref, _ = enumerate_exact(model)
        try:
            sched, stats = solve(model)
        except Infeasible:
            sched = None
        if ref is None or sched is None:
            if (ref is None) != (sched is None):
                disagreed += 1
            else:
                infeasible += 1
            continue
        assert stats.optimal
        worst_gap = max(worst_gap, abs(sched.exit_time - ref.exit_time))
        worst_slack = max(worst_slack, _slack_violation(model, sched.times))
        solved += 1
    elapsed = time.perf_counter() - t_start
    ok = disagreed == 0 and worst_gap <= 1e-9 and worst_slack <= 1e-9 and elapsed < 60.0
    report(
        2,
        ok,
        f"{solved} solved + {infeasible} infeasible agreed with enumeration, "
        f"{disagreed} disagreed (max {max_free} free binaries), exit gap {worst_gap:.2e}, "
        f"slack violation {worst_slack:.2e}, {elapsed:.1f}s of 60s",
    )


# -- criteria 3 and 4: reference reproduction and solver cost --------------------


def test_criterion_3_volume_sweep_reproduction(volume_sweep):
    results, elapsed = volume_sweep
    devs = {}
    for vol, ref in REFERENCE_TRAVEL_TIMES.items():
        avg = float(np.mean([r.metrics.avg_travel_time for r in results[vol]]))
        devs[vol] = (avg - ref) / ref * 100.0
    worst = max(abs(d) for d in devs.values())
    ok = worst <= 15.0 and elapsed < 600.0
    detail = ", ".join(f"{vol}: {d:+.1f}%" for vol, d in devs.items())
    report(3, ok, f"avg travel time vs reference {detail}, worst {worst:.1f}% of 15%, {elapsed:.0f}s of 600s")


def test_criterion_4_scheduling_solve_cost(volume_sweep):
    results, _ = volume_sweep
    per_vehicle_ms = [r.stats.wall_ms for res in results[1200] for r in res.records]
    mean = float(np.mean(per_vehicle_ms))
    std = float(np.std(per_vehicle_ms))
    ok = mean <= 50.0
    report(
        4,
        ok,
        f"per-vehicle scheduling solve at 1200 veh/h: mean {mean:.2f} ms of 50 ms, "
        f"stddev {std:.2f} ms over {len(per_vehicle_ms)} vehicles",
    )


# -- criterion 5: policy dominance ------------------------------------------------


def test_criterion_5_policy_dominance(policy_comparison):
    chain_slack = 0.0
    worst_gap = 0.0
    proven = 0
    for cell, results in policy_comparison.items():
        c = results["centralized"].metrics.avg_travel_time
        d = results["decentralized"].metrics.avg_travel_time
        f = results["fifo"].metrics.avg_travel_time
        chain_slack = max(chain_slack, c - d, d - f)
        worst_gap = max(worst_gap, (d - c) / c * 100.0)
        if results["centralized"].metrics.centralized_optimal:
            proven += 1
    ok = chain_slack <= 1e-6 and worst_gap <= 10.0
    report(
        5,
        ok,
        f"centralized <= decentralized <= fifo on all {len(policy_comparison)} shared-arrival "
        f"cells (chain slack {chain_slack:.2e} of 1e-6, optimality proven on {proven}), "
        f"decentralized within {worst_gap:.2f}% of centralized (10% allowed)",
    )


# -- criterion 6: trajectory invariants --------------------------------------------


def _random_limits(rng) -> Limits:
    u_max = float(rng.uniform(0.5, 3.0))
    u_min = -float(rng.uniform(0.5, 3.0))
    v_min = float(rng.uniform(0.0, 8.0))
    v_max = v_min + float(rng.uniform(4.0, 22.0))
    return Limits(u_min, u_max, v_min, v_max)


def test_criterion_6_trajectory_invariants():
    t_start = time.perf_counter()
    rng = np.random.default_rng(37)
    solved = 0
    worst_boundary = worst_joint = worst_limit = 0.0
    while solved < 10_000:
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
        try:
            traj = solve_zone(bvp, ZoneBounds(rel, None if ddl.is_unbounded() else ddl.time))
        except (ValueError, PiecingDiverged):
            continue
        ts = np.linspace(0.0, window, max(3, int(window / 0.02)))
        p, v, u = traj.eval_many(ts)
        worst_boundary = max(
            worst_boundary,
            abs(float(p[0])), abs(float(v[0]) - vs),
            abs(float(p[-1]) - length), abs(float(v[-1]) - ve),
        )
        worst_limit = max(
            worst_limit,
            lim.v_min - float(v.min()), float(v.max()) - lim.v_max,
            lim.u_min - float(u.min()), float(u.max()) - lim.u_max,
        )
        for a, b in zip(traj.arcs, traj.arcs[1:]):
            pe, ve_a, _ = a.end_state()
            pb, vb, _ = b.eval(b.t0)
            worst_joint = max(worst_joint, abs(pe - pb), abs(ve_a - vb))
        solved += 1
    perturb_ok = _cubic_beats_perturbations(rng)
    elapsed = time.perf_counter() - t_start
    ok = (
        worst_boundary <= 1e-7
        and worst_joint <= 1e-7
        and worst_limit <= 1e-7
        and perturb_ok
        and elapsed < 30.0
    )
    report(
        6,
        ok,
        f"10000 zone problems: boundary {worst_boundary:.2e}, junction {worst_joint:.2e}, "
        f"limit overshoot {worst_limit:.2e} (all of 1e-7), perturbation k=1..4 "
        f"{'held' if perturb_ok else 'broken'}, {elapsed:.1f}s of 30s",
    )


def _cubic_beats_perturbations(rng) -> bool:
    """Sine bumps corrected to meet all four boundary values never beat the cubic."""
    for _ in range(50):
        length = float(rng.uniform(50.0, 400.0))
        vs = float(rng.uniform(8.0, 20.0))
        ve = float(rng.uniform(8.0, 20.0))
        w = float(rng.uniform(0.8, 1.6)) * 2.0 * length / (vs + ve)
        arc = solve_unconstrained(ZoneBVP(0, 0.0, w, BoundaryState(0, vs), BoundaryState(length, ve), LIM))
        s = np.linspace(0.0, w, 2001)
        u_base = arc.u0 + arc.slope * s
        for k in range(1, 5):
            kw = k * math.pi / w
            m = np.array(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [1.0, w, w * w / 2.0, w**3 / 6.0],
                    [0.0, 1.0, w, w * w / 2.0],
                ]
            )
            _d, _c, b2, a2 = np.linalg.solve(m, np.array([0.0, kw, 0.0, kw * (-1.0) ** k]))
            eta_dd = -kw * kw * np.sin(kw * s) - (b2 + a2 * s)
            for eps in (1e-3, -1e-3, 1e-2, -1e-2):
                u_pert = u_base + eps * eta_dd
                e_pert = float(np.trapezoid(0.5 * u_pert * u_pert, s))
                if arc.energy > e_pert + 1e-10:
                    return False
    return True


# -- criterion 7: end-to-end safety --------------------------------------------------


def _lateral_violations(records, h) -> int:
    bad = 0
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            for cr in conflict_runs(a.path, b.path):
                for z in cr.zones:
                    if abs(a.schedule.time_at(z) - b.schedule.time_at(z)) < h - 1e-9:
                        bad += 1
    return bad


def test_criterion_7_end_to_end_safety(volume_sweep, policy_comparison):
    sweep_results, _ = volume_sweep
    all_results = [r for runs in sweep_results.values() for r in runs]
    all_results += [r for cell in policy_comparison.values() for r in cell.values()]
    lateral = sum(_lateral_violations(r.records, r.config.headway) for r in all_results)
    reported = sum(
        r.metrics.lateral_violations + r.metrics.rear_end_violations for r in all_results
    )
    # full margin re-sampling on the heaviest cells; every other run already
    # certified itself by finishing its internal enforcement pass
    resampled = list(policy_comparison[(75, 5)].values()) + [sweep_results[1200][4]]
    residual = sum(len(reverify_rear_end(r)) for r in resampled)
    slow = [
        r.metrics.min_speed
        for r in all_results
        if r.config.policy == "decentralized" and r.metrics.min_speed < 5.0 - 1e-7
    ]
    ok = lateral == 0 and reported == 0 and residual == 0 and not slow
    report(
        7,
        ok,
        f"{len(all_results)} runs: {lateral} lateral entry pairs under the headway, "
        f"{reported} violations reported, {residual} rear-end margins on re-sampled "
        f"heaviest cells, decentralized min speed at or above 5 m/s "
        f"({len(slow)} exceptions)",
    )


# -- criterion 8: fuel model properties -----------------------------------------------


def test_criterion_8_fuel_model_properties():
    model = FuelModel()
    v = np.linspace(0.0, 30.0, 121)
    u = np.linspace(-3.0, 3.0, 241)
    vv, uu = np.meshgrid(v, u)
    rate = model.rate(vv, uu)
    nonneg = float(rate.min()) >= 0.0
    cruise = model.rate(v, np.zeros_like(v))
    braking = all(
        np.allclose(model.rate(v, np.full_like(v, ub)), cruise, atol=0.0)
        for ub in (-3.0, -1.0, -1e-9)
    )
    drive = rate[uu[:, 0] >= 0.0, :]
    monotone = bool((np.diff(drive, axis=0) >= -1e-12).all())
    ok = nonneg and braking and monotone
    report(
        8,
        ok,
        f"rate nonnegative (min {float(rate.min()):.4f} ml/s), braking equals cruising, "
        f"nondecreasing in drive command; magnitudes deliberately not asserted",
    )
