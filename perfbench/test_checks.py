"""Each benchmark check accepts a correct run and rejects a corrupted one."""

import copy

import numpy as np
import pytest

import checks
from corridor import cli
from corridor.network import build_network
from corridor.sim import SimConfig, compare_policies, generate_arrivals, run

CFG = SimConfig(arrival_mode="poisson", n_vehicles=10, seed=4)


@pytest.fixture(scope="module")
def result():
    return run(CFG)


@pytest.fixture()
def good(result):
    return checks.from_result("poisson-10-4", result, CFG.to_json())


def _shared_entries(run):
    """(vehicle a, vehicle b, zone) for the closest pair of entries at one zone."""
    best = None
    for a in run.vehicles:
        for b in run.vehicles:
            if a.vehicle_id >= b.vehicle_id:
                continue
            for z in set(a.zone_ids) & set(b.zone_ids):
                gap = abs(a.times[a.zone_ids.index(z)] - b.times[b.zone_ids.index(z)])
                if best is None or gap < best[0]:
                    best = (gap, a, b, z)
    return best[1:]


def test_correct_run_passes(good, result):
    errs, faults = checks.check_run(good, result.arrivals)
    assert errs == [] and faults == []


def test_schedule_shifted_inside_one_headway_is_rejected(good):
    a, b, z = _shared_entries(good)
    k = b.zone_ids.index(z)
    times = list(b.times)
    times[k] = a.times[a.zone_ids.index(z)] + 0.5 * good.params.headway
    b.times = tuple(times)
    assert checks.check_lateral(good)


def test_sample_past_v_max_is_rejected(good):
    v = good.vehicles[0]
    v.v = v.v.copy()
    v.v[len(v.v) // 2] = good.params.v_max + 0.01
    errs, faults = checks.check_limits(good)
    assert errs and not faults


def test_fuel_scaled_by_one_percent_is_rejected(good):
    assert checks.check_fuel(good) == []
    good.avg_fuel_l *= 1.01
    assert checks.check_fuel(good)


def test_dropped_vehicle_is_rejected(good, result):
    good.vehicles.pop(3)
    assert checks.check_arrivals(good, result.arrivals)


def test_repeated_vehicle_is_rejected(good, result):
    good.vehicles.append(copy.copy(good.vehicles[0]))
    assert checks.check_arrivals(good, result.arrivals)


def test_pinched_follower_is_rejected(good):
    # move the leader of some same-lane pair back by the spacing it keeps
    lanes = [occ for occ in checks._lanes(good).values() if len(occ) > 1]
    assert lanes, "scenario must put two vehicles in one lane"
    occ = sorted(lanes[0], key=lambda vk: vk[0].times[vk[1]])
    lead = occ[0][0]
    original = lead.evaluate

    def behind(ts):
        p, v = original(ts)
        return p - 200.0, v

    lead.evaluate = behind
    assert checks.check_rear_end(good)


def test_trajectory_missing_its_schedule_is_rejected(good):
    v = good.vehicles[0]
    v.times = tuple(t + 0.5 for t in v.times[:-1]) + (v.times[-1],)
    assert checks.check_hierarchy(good)


def test_travel_time_under_free_flow_is_rejected(good):
    v = good.vehicles[0]
    floor = checks.free_flow_time(sum(v.seg_lengths), v.entry_speed, good.params.u_max, good.params.v_max)
    v.travel_time = floor - 0.1
    assert checks.check_travel_times(good)


def test_free_flow_closed_form():
    # 15 -> 25 m/s at 1 m/s^2 takes 10 s over 200 m, then 100 m at 25 m/s
    assert checks.free_flow_time(300.0, 15.0, 1.0, 25.0) == pytest.approx(14.0)
    # too short to reach v_max: 15 t + t^2 / 2 = 100
    assert checks.free_flow_time(100.0, 15.0, 1.0, 25.0) == pytest.approx(-15 + np.sqrt(425))


def test_control_breach_of_a_repaired_vehicle_is_a_fault(good):
    v = good.vehicles[0]
    v.u = v.u.copy()
    v.u[0] = good.params.u_min - 5.0
    errs, faults = checks.check_limits(good)
    assert errs and not faults
    v.repairs = 1
    errs, faults = checks.check_limits(good)
    assert faults and not errs


def test_centralized_losing_to_decentralized_is_rejected():
    cfg = SimConfig(arrival_mode="poisson", n_vehicles=8, seed=1)
    res = compare_policies(cfg, policies=("decentralized", "centralized"))
    dec, cen = (checks.from_result(p, res[p], cfg.to_json()) for p in ("decentralized", "centralized"))
    assert checks.check_joint(dec, cen) == []
    cen.vehicles[0].times = cen.vehicles[0].times[:-1] + (cen.vehicles[0].times[-1] + 5.0,)
    dec.vehicles[0].times = dec.vehicles[0].times[:-1] + (dec.vehicles[0].times[-1] - 5.0,)
    assert checks.check_joint(dec, cen)


def test_artifacts_pass_and_corrupted_trace_is_rejected(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"volume_veh_h": 400.0, "seed": 1}')
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    net = build_network()
    arrivals = generate_arrivals(SimConfig(volume_veh_h=400.0, seed=1), net)
    good = checks.from_artifacts("cli", str(tmp_path), net)
    assert checks.check_run(good, arrivals) == ([], [])
    assert checks.check_distance(good) == []
    v = good.vehicles[1]
    v.p = v.p.copy()
    v.p[len(v.p) // 2 :] += 0.5  # a jump in position with no speed to carry it
    assert checks.check_distance(good)
