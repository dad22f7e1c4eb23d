"""Simulation tests: arrivals, determinism, safety invariants, metrics.

Safety margins are re-verified here with the standalone sampler rather than
trusting the run's own enforcement pass, and the single-vehicle pipeline is
checked against a release-chain oracle built straight from the kinematics.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corridor import sim, trajectory
from corridor.kinematics import BoundaryState, Limits, release_time
from corridor.network import build_network, conflict_runs
from corridor.sim import (
    Arrival,
    ConfigError,
    FuelModel,
    Saturated,
    SimConfig,
    VOLUME_HORIZONS,
    check_lateral,
    compare_policies,
    fuel_rate,
    generate_arrivals,
    run,
    schedules_json,
    trajectory_csv_rows,
)
from corridor.trajectory import check_rear_end, follow_arc

NET = build_network()
LIM = Limits(-1.0, 1.0, 5.0, 25.0)


def small_poisson(n, seed, **kw):
    return SimConfig(arrival_mode="poisson", n_vehicles=n, seed=seed, **kw)


# -- configuration ----------------------------------------------------------


def test_config_json_round_trip():
    cfg = SimConfig(volume_veh_h=800.0, seed=7, policy="fifo", exit_speed=14.0)
    data = json.loads(json.dumps(cfg.to_json()))
    assert SimConfig.from_json(data) == cfg


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError, match="volume_vehh"):
        SimConfig.from_json({"volume_vehh": 600.0})


def test_malformed_fuel_model_rejected():
    with pytest.raises(ConfigError, match="fuel"):
        SimConfig.from_json({"fuel": {"cruise": [1.0, 2.0]}})


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError, match="greedy"):
        SimConfig(policy="greedy").validate()


def test_unknown_arrival_mode_rejected():
    with pytest.raises(ConfigError, match="uniform"):
        SimConfig(arrival_mode="uniform").validate()


def test_unsafe_headway_names_speed_pair():
    with pytest.raises(ConfigError, match="unsafe headway") as exc:
        SimConfig(headway=0.3).validate()
    # the offending boundary speeds are spelled out: slowest leader, fastest follower
    assert "13" in str(exc.value)
    assert "16" in str(exc.value)


def test_off_reference_volume_requires_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        SimConfig(volume_veh_h=500.0).validate()
    SimConfig(volume_veh_h=500.0, horizon=30.0).validate()


def test_reference_volumes_carry_default_horizons():
    for vol in VOLUME_HORIZONS:
        cfg = SimConfig(volume_veh_h=vol)
        cfg.validate()
        assert cfg.arrival_horizon() == VOLUME_HORIZONS[vol]


def test_empty_path_list_rejected():
    with pytest.raises(ConfigError, match="path"):
        SimConfig(paths=()).validate()


# -- arrivals ----------------------------------------------------------------


def test_volume_arrival_count_matches_expectation():
    # 4 paths at 600 veh/h over 27 s: 18 expected arrivals
    counts = [len(generate_arrivals(SimConfig(seed=s), NET)) for s in range(10)]
    assert abs(np.mean(counts) - 18.0) < 4.5


def test_poisson_inter_arrival_mean():
    arrs = generate_arrivals(small_poisson(200, 1), NET)
    assert len(arrs) == 200
    assert len({a.vehicle_id for a in arrs}) == 200
    gaps = np.diff([a.t0 for a in arrs])
    assert 0.8 < gaps.mean() < 1.45


def test_same_origin_arrivals_separated_by_headway():
    arrs = generate_arrivals(small_poisson(120, 4), NET)
    last = {}
    for a in arrs:
        if a.origin in last:
            assert a.t0 - last[a.origin] >= 1.5
        last[a.origin] = a.t0


def test_arrivals_sorted_and_seed_dependent():
    a1 = generate_arrivals(SimConfig(seed=2), NET)
    a2 = generate_arrivals(SimConfig(seed=2), NET)
    a3 = generate_arrivals(SimConfig(seed=3), NET)
    assert a1 == a2
    assert a1 != a3
    assert all(x.t0 <= y.t0 for x, y in zip(a1, a1[1:]))


def test_entry_speeds_inside_configured_range():
    for a in generate_arrivals(small_poisson(80, 6), NET):
        assert 13.0 <= a.entry_speed <= 16.0


# -- single-vehicle pipeline --------------------------------------------------


def release_chain_exit(path, t0, entry_speed, v_boundary):
    offs = path.entry_offsets + (path.total_length,)
    speeds = [entry_speed] + [v_boundary] * len(path.zone_ids)
    t = t0
    for k in range(len(path.zone_ids)):
        seg = offs[k + 1] - offs[k]
        r = release_time(BoundaryState(0.0, speeds[k]), BoundaryState(seg, speeds[k + 1]), LIM)
        t += r.time
    return t


def test_single_vehicle_exits_at_release_chain():
    arrivals = [Arrival(0, 0.0, "EB", "through", 14.0)]
    expected = release_chain_exit(NET.path_for("EB", "through"), 0.0, 14.0, 15.0)
    for policy in ("decentralized", "centralized", "fifo"):
        res = run(small_poisson(1, 0, policy=policy), arrivals=arrivals)
        rec = res.records[0]
        assert abs(rec.schedule.exit_time - expected) <= 1e-9
        assert abs(rec.travel_time - expected) <= 1e-9
        assert rec.queue_index == 1
        assert rec.boundary_speed == 15.0


def test_trajectory_coasts_past_the_exit():
    res = run(small_poisson(1, 0), arrivals=[Arrival(0, 0.0, "EB", "through", 14.0)])
    traj = res.records[0].trajectory
    pe, ve, _ = traj.eval(traj.t_end)
    p, v, u = traj.eval(traj.t_end + 5.0)
    assert abs(p - (pe + 5.0 * ve)) <= 1e-9
    assert abs(v - ve) <= 1e-9
    assert u == 0.0


def test_queue_index_restarts_when_corridor_empties():
    arrivals = [
        Arrival(0, 0.0, "EB", "through", 15.0),
        Arrival(1, 200.0, "EB", "through", 15.0),
    ]
    res = run(small_poisson(2, 0), arrivals=arrivals)
    assert [r.queue_index for r in res.records] == [1, 1]


def test_hold_pushes_entry_back_and_is_counted():
    # the follower requests entry inside the leader's headway; one hold clears it
    arrivals = [
        Arrival(0, 0.0, "EB", "through", 15.0),
        Arrival(1, 1.0, "EB", "through", 15.0),
    ]
    res = run(small_poisson(2, 0), arrivals=arrivals)
    rec = res.records[1]
    assert rec.holds == 1
    assert rec.t0_requested == 1.0
    assert rec.t0 == 2.0
    assert res.metrics.holds == 1


def test_exhausted_hold_budget_raises_saturated():
    arrivals = [
        Arrival(0, 0.0, "EB", "through", 15.0),
        Arrival(1, 0.4, "EB", "through", 15.0),
    ]
    with pytest.raises(Saturated):
        run(small_poisson(2, 0, max_holds=1), arrivals=arrivals)


# -- determinism ---------------------------------------------------------------


def test_runs_are_bit_identical():
    cfg = SimConfig(volume_veh_h=600.0, seed=3)
    r1, r2 = run(cfg), run(cfg)
    assert schedules_json(r1) == schedules_json(r2)
    assert list(trajectory_csv_rows(r1)) == list(trajectory_csv_rows(r2))
    m1, m2 = r1.metrics.to_json(), r2.metrics.to_json()
    # wall-clock solver timings are the one legitimately nondeterministic field
    for m in (m1, m2):
        m.pop("solver_ms_mean")
        m.pop("solver_ms_std")
    assert m1 == m2


# -- safety and conservation ---------------------------------------------------


def shared_same_direction_zones(pa, pb):
    """Shared zones where car-following by progress difference is defined:
    those of a merge or same-path run that both paths cover with the same
    in-zone length.  Turning and through movements cross a conflict cell on
    arcs of different lengths, so progress differences there compare unlike
    geometries."""
    out = []
    for run in conflict_runs(pa, pb):
        if run.relation in ("merge", "same-path"):
            out += [
                z for z in run.zones
                if abs(pa.seg_lengths[pa.index_of(z)] - pb.seg_lengths[pb.index_of(z)]) <= 1e-9
            ]
    return out


def reverify_rear_end(res):
    found = []
    recs = res.records
    for i, a in enumerate(recs):
        for b in recs[i + 1 :]:
            for z in shared_same_direction_zones(a.path, b.path):
                lead, foll = (a, b) if a.schedule.time_at(z) <= b.schedule.time_at(z) else (b, a)
                zone_arcs = foll.trajectory.zone(z)
                found += check_rear_end(
                    lead.trajectory,
                    lead.path.entry_offset(z),
                    foll.trajectory,
                    foll.path.entry_offset(z),
                    zone_arcs[0].t0,
                    zone_arcs[-1].t1,
                    res.config.gamma,
                    res.config.phi,
                    dt=0.01,
                    tol=1e-6,
                )
    return found


def test_moderate_run_invariants():
    res = run(small_poisson(18, 5))
    assert res.metrics.min_speed >= 5.0 - 1e-7
    assert check_lateral(res.records, 1.5) == 0
    assert reverify_rear_end(res) == []
    for rec in res.records:
        pe, ve, _ = rec.trajectory.eval(rec.trajectory.t_end)
        assert abs(pe - rec.path.total_length) <= 1e-6
        assert abs(ve - rec.boundary_speed) <= 1e-7
        # zone handoffs sit exactly on the cumulative offsets
        for k, z in enumerate(rec.path.zone_ids):
            first = rec.trajectory.zone(z)[0]
            p0, v0, _ = first.eval(first.t0)
            assert abs(p0 - rec.path.entry_offsets[k]) <= 1e-6
            if k > 0:
                assert abs(v0 - rec.boundary_speed) <= 1e-7


def test_fifo_run_repairs_and_stays_safe():
    res = run(small_poisson(18, 5, policy="fifo"))
    assert reverify_rear_end(res) == []
    assert check_lateral(res.records, 1.5) == 0


def test_fifo_run_with_a_repair_stays_safe():
    res = run(small_poisson(20, 5, policy="fifo"))
    assert res.metrics.repairs >= 1
    assert reverify_rear_end(res) == []
    assert check_lateral(res.records, 1.5) == 0


def test_fifo_repair_is_pinned():
    """Tangency, exit, entry and exit controls and the spliced remainder of
    the one repair in FIFO (20,5), hashed over float.hex: the exit search
    must keep choosing the same exit, bit for bit."""
    res = run(small_poisson(20, 5, policy="fifo"))
    rec = next(r for r in res.records if r.repairs)
    traj = rec.trajectory
    zone_id = next(z for z, a in zip(traj.zone_ids, traj.arcs) if a.label == "follow")
    arcs = traj.zone(zone_id)
    ks = [i for i, a in enumerate(arcs) if a.label == "follow"]
    assert ks == list(range(ks[0], ks[-1] + 1))  # one tracking stretch
    first, last, remainder = arcs[ks[0]], arcs[ks[-1]], arcs[ks[-1] + 1 :]
    vals = [first.t0, last.t1, first.eval(first.t0)[2], last.end_state()[2]]
    for a in remainder:
        vals += [a.t0, a.t1, a.p0, a.v0, a.u0, a.slope]
    assert (rec.vehicle_id, zone_id, [a.label for a in remainder]) == (19, 22, ["cubic"])
    assert (first.t0.hex(), last.t1.hex()) == ("0x1.73775a94c6342p+4", "0x1.7f83a44f24799p+4")
    digest = hashlib.sha256(" ".join(float(x).hex() for x in vals).encode()).hexdigest()
    assert digest == "dedb382a63517203c10108d3bee9b6a3928e7ff8f6b948c91649f509b0a9c048"


def arc_bits(arcs):
    return [(a.label, *(float(x).hex() for x in (a.t0, a.t1, a.p0, a.v0, a.u0, a.slope, a.tau, *a.g))) for a in arcs]


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(volume_veh_h=1200.0, seed=2),
        SimConfig(volume_veh_h=1200.0, seed=3),
        small_poisson(20, 5, policy="fifo"),
    ],
    ids=["vol1200-s2", "vol1200-s3", "fifo20-5"],
)
def test_bracketed_exit_equals_the_linear_scan(cfg, monkeypatch):
    """Every repair's exit, found by gallop and bisection, is the one the
    linear scan alone finds: the same exit time and the same spliced arcs,
    in at most 2*ceil(log2(n)) + 2 exit tests on an exit grid of n points."""
    compared = []
    exit_index = trajectory._exit_index

    def counted(grid, probe):
        probed = []
        found = exit_index(grid, lambda i: probed.append(i) or probe(i))
        assert len(probed) <= 2 * math.ceil(math.log2(len(grid))) + 2, (len(grid), len(probed))
        return found

    def both(*args):
        with monkeypatch.context() as m:
            m.setattr(trajectory, "_exit_index", counted)
            got = follow_arc(*args)
        with monkeypatch.context() as m:
            m.setattr(trajectory, "_bracket_exit", lambda n, verdict: None)
            ref = follow_arc(*args)
        assert got[1].hex() == ref[1].hex()
        assert arc_bits(got[0] + got[2]["remainder"].arcs) == arc_bits(ref[0] + ref[2]["remainder"].arcs)
        compared.append(got[1])
        return got

    monkeypatch.setattr(sim, "follow_arc", both)
    res = run(cfg)
    assert len(compared) == res.metrics.repairs >= 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known fault: tracking applies u = (v_leader - v)/phi without clipping at u_min",
)
@pytest.mark.parametrize("seed", [2, 3])
def test_repaired_vehicles_respect_u_min(seed):
    res = run(SimConfig(volume_veh_h=1200.0, seed=seed))
    repaired = [r for r in res.records if r.repairs]
    if not repaired:
        pytest.fail("no repair at this seed: the test no longer samples a repaired vehicle")
    for rec in repaired:
        _t, _p, _v, u = rec.trajectory.sample(res.config.rear_end_dt)
        assert u.min() >= res.config.u_min - 1e-7, f"vehicle {rec.vehicle_id} brakes at {u.min():.3f} m/s^2"


def reference_vehicle_eval(traj, t):
    """Clamp into the traversal, route by zone end time then arc end time,
    evaluate that arc alone, and coast at the exit speed past the end."""
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


def test_vehicle_kernel_matches_per_arc_eval_bitwise():
    res = run(small_poisson(20, 5, policy="fifo"))
    repaired = [r for r in res.records if r.repairs]
    assert repaired
    for rec in repaired + res.records[:3]:
        traj = rec.trajectory
        arcs = traj.arcs
        assert traj.zone_ids == tuple(z for z in rec.path.zone_ids for _ in traj.zone(z))
        follow = [np.linspace(a.t0, a.t1, 31)[1:-1] + 2e-4 for a in arcs if a.label == "follow"]
        assert follow or rec.repairs == 0
        t = np.concatenate(
            [
                [traj.t_start - 3.0, traj.t_start],
                [a.t0 for a in arcs],
                [a.t1 for a in arcs],
                *follow,
                np.linspace(traj.t_start, traj.t_end, 501),
                [traj.t_end, traj.t_end + 1e-9, traj.t_end + 4.0],
            ]
        )
        # the whole traversal alone, and with times before and after it
        within = t[(t >= traj.t_start) & (t <= traj.t_end)]
        assert len(within) == len(t) - 3
        for times in (within, t):
            p, v, u = traj.eval_many(times)
            ref = reference_vehicle_eval(traj, times)
            assert np.array_equal(p, ref[0])
            assert np.array_equal(v, ref[1])
            assert np.array_equal(u, ref[2])
        ends = [traj.zone(z)[-1].t1 for z in rec.path.zone_ids]
        zone_ref = [rec.path.zone_ids[next((k for k, e in enumerate(ends) if ti <= e), -1)] for ti in t]
        assert traj.zone_at(t).tolist() == zone_ref


def test_light_traffic_needs_no_fallback():
    res = run(SimConfig(volume_veh_h=400.0, seed=1))
    assert res.metrics.fallbacks == 0
    assert all(r.boundary_speed == 15.0 for r in res.records)


# -- policies ------------------------------------------------------------------


def test_compare_policies_shares_arrivals_and_dominates():
    results = compare_policies(small_poisson(12, 3))
    arr = results["decentralized"].arrivals
    assert results["centralized"].arrivals == arr
    assert results["fifo"].arrivals == arr
    c = results["centralized"].metrics.avg_travel_time
    d = results["decentralized"].metrics.avg_travel_time
    f = results["fifo"].metrics.avg_travel_time
    assert c <= d + 1e-6
    assert d <= f + 1e-6
    if results["centralized"].metrics.centralized_optimal:
        assert d <= 1.10 * c


def test_compare_policies_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        compare_policies(small_poisson(2, 0), policies=("bogus",))


# -- metrics and outputs ---------------------------------------------------------


def test_metrics_shape_and_ordering():
    res = run(small_poisson(10, 2))
    m = res.metrics
    assert m.n_vehicles == len(res.records) == 10
    assert m.median_travel_time <= m.p90_travel_time <= m.max_travel_time
    assert m.avg_fuel_rate_ml_s > 0
    assert m.avg_fuel_consumption_l > 0
    assert m.solver_ms_mean > 0
    series = m.speed_series
    assert len(series["t"]) == len(series["min"]) == len(series["mean"]) == len(series["max"])


def test_trajectory_rows_shape():
    res = run(small_poisson(3, 1))
    rows = list(trajectory_csv_rows(res))
    ids = {r.vehicle_id for r in res.records}
    assert {row[0] for row in rows} == ids
    for vid, t, zone, p, v, u in rows:
        assert zone in NET.zones
        assert 5.0 - 1e-7 <= v <= 25.0 + 1e-7
        assert -1.0 - 1e-7 <= u <= 1.0 + 1e-7


def test_schedules_json_round_trips_times():
    res = run(small_poisson(4, 7))
    data = json.loads(json.dumps(schedules_json(res)))
    assert data["policy"] == "decentralized"
    assert len(data["vehicles"]) == 4
    for v, rec in zip(data["vehicles"], res.records):
        assert v["schedule"]["times"] == list(rec.schedule.times)


# -- fuel model -------------------------------------------------------------------


def test_zero_coefficients_burn_nothing():
    model = FuelModel((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert fuel_rate(20.0, 1.0, model) == 0.0


@given(
    v=st.floats(min_value=0.0, max_value=30.0),
    u=st.floats(min_value=-3.0, max_value=3.0),
)
def test_fuel_rate_nonnegative(v, u):
    assert fuel_rate(v, u, FuelModel()) >= 0.0


@given(v=st.floats(min_value=0.0, max_value=30.0), u=st.floats(min_value=-3.0, max_value=0.0))
def test_braking_burns_like_cruising(v, u):
    model = FuelModel()
    assert fuel_rate(v, u, model) == pytest.approx(fuel_rate(v, 0.0, model), abs=1e-12)


@given(
    v=st.floats(min_value=0.0, max_value=30.0),
    u1=st.floats(min_value=0.0, max_value=3.0),
    u2=st.floats(min_value=0.0, max_value=3.0),
)
def test_fuel_rate_monotone_in_drive(v, u1, u2):
    lo, hi = sorted((u1, u2))
    assert fuel_rate(v, lo, FuelModel()) <= fuel_rate(v, hi, FuelModel()) + 1e-12
