"""Scheduling tests: chain arithmetic, separation choices, exactness.

The branch-and-bound solvers are certified against brute-force enumeration
over every before/after assignment, run through an independent longest-path
oracle written here.
"""

import dataclasses
import hashlib
import math
from collections import deque

import numpy as np
import pytest

from corridor import scheduler
from corridor.kinematics import Limits
from corridor.network import build_network, conflict_runs
from corridor.scheduler import (
    CentralizedEntry,
    DisjunctiveBlock,
    DisjunctiveModel,
    Infeasible,
    ScheduleTuple,
    ZoneBounds,
    _propagate,
    build_instance,
    enumerate_exact,
    solve,
    solve_centralized,
    solve_fifo,
    traversal_bounds,
)
from corridor.sim import SimConfig, run

LIM = Limits(-1.0, 1.0, 5.0, 25.0)
V_MERGE = 15.0
H = 1.5

NET = build_network()
EB = NET.path_for("EB", "through")
WB = NET.path_for("WB", "through")
SB2 = NET.path_for("SB2", "through")
NB1_RT = NET.path_for("NB1", "right-through")


def assert_feasible(model: DisjunctiveModel, times):
    assert abs(times[0] - model.t0) <= 1e-9
    for k, w in enumerate(model.windows):
        dt = times[k + 1] - times[k]
        assert dt >= w.release - 1e-9
        if w.deadline is not None:
            assert dt <= w.deadline + 1e-9
    for b in model.blocks:
        after = all(times[q] >= c + H - 1e-9 for q, c in zip(b.var_indices, b.other_times))
        before = all(times[q] <= c - H + 1e-9 for q, c in zip(b.var_indices, b.other_times))
        if b.fixed:
            assert after
        else:
            assert after or before


def chain_times(path, t0, entry_speed):
    bounds = traversal_bounds(path, entry_speed, LIM, V_MERGE)
    times = [t0]
    for b in bounds:
        times.append(times[-1] + b.release)
    return times


def test_unconflicted_chain_is_cumulative_release():
    inst = build_instance(1, EB, 10.0, 15.0, [], LIM, V_MERGE, H)
    sched, stats = solve(inst)
    expected = chain_times(EB, 10.0, 15.0)
    assert sched.zone_ids == EB.zone_ids
    np.testing.assert_allclose(sched.times, expected, atol=1e-9)
    assert stats.free_runs == 0
    assert stats.optimal


def test_same_path_follower_shifts_by_headway():
    lead_inst = build_instance(1, EB, 0.0, 15.0, [], LIM, V_MERGE, H)
    lead, _ = solve(lead_inst)
    foll_inst = build_instance(2, EB, 1.5, 15.0, [(lead, EB)], LIM, V_MERGE, H)
    foll, _ = solve(foll_inst)
    # identical speed profile: the follower rides exactly one headway behind
    np.testing.assert_allclose(foll.times, np.asarray(lead.times) + 1.5, atol=1e-9)
    # and the conflict is order-fixed, no binary spent on it
    assert all(b.fixed for b in foll_inst.blocks)


def test_fast_follower_pinned_to_headway_recurrence():
    lead_inst = build_instance(1, EB, 0.0, 15.0, [], LIM, V_MERGE, H)
    lead, _ = solve(lead_inst)
    inst = build_instance(2, EB, 1.6, 20.0, [(lead, EB)], LIM, V_MERGE, H)
    sched, _ = solve(inst)
    bounds = traversal_bounds(EB, 20.0, LIM, V_MERGE)
    expected = [1.6]
    for k, b in enumerate(bounds):
        expected.append(max(expected[-1] + b.release, lead.times[k + 1] + H))
    np.testing.assert_allclose(sched.times, expected, atol=1e-9)


def test_same_origin_gap_below_headway_is_infeasible():
    lead_inst = build_instance(1, EB, 0.0, 15.0, [], LIM, V_MERGE, H)
    lead, _ = solve(lead_inst)
    inst = build_instance(2, EB, 1.0, 15.0, [(lead, EB)], LIM, V_MERGE, H)
    with pytest.raises(Infeasible):
        solve(inst)


def test_cross_conflict_prefers_free_slot_over_fifo():
    lead_inst = build_instance(1, EB, 0.0, 15.0, [], LIM, V_MERGE, H)
    lead, _ = solve(lead_inst)
    model = build_instance(2, SB2, 0.0, 15.0, [(lead, EB)], LIM, V_MERGE, H)
    assert [b.fixed for b in model.blocks] == [False]
    opt, stats = solve(model)
    fifo, _ = solve_fifo(model)
    free = chain_times(SB2, 0.0, 15.0)
    # crossing ahead of the other vehicle costs nothing here
    np.testing.assert_allclose(opt.times, free, atol=1e-9)
    assert fifo.exit_time > opt.exit_time + 1.0
    assert fifo.time_at(7) >= lead.time_at(7) + H - 1e-9
    ref, _ = enumerate_exact(model)
    assert abs(ref.exit_time - opt.exit_time) <= 1e-9


def test_merge_run_ties_zones_to_one_side():
    lead_inst = build_instance(1, EB, 0.0, 15.0, [], LIM, V_MERGE, H)
    lead, _ = solve(lead_inst)
    # NB1 right-through merges into EB's lane for the rest of the corridor
    runs = conflict_runs(NB1_RT, EB)
    assert [r.relation for r in runs] == ["merge"]
    model = build_instance(2, NB1_RT, 0.2, 15.0, [(lead, EB)], LIM, V_MERGE, H)
    sched, _ = solve(model)
    assert_feasible(model, sched.times)
    run = model.blocks[0]
    d = [sched.times[q] - c for q, c in zip(run.var_indices, run.other_times)]
    assert all(x >= H - 1e-9 for x in d) or all(x <= -H + 1e-9 for x in d)


def test_unbounded_deadline_solves_to_release_chain():
    lim0 = Limits(-1.0, 1.0, 0.0, 25.0)
    model = build_instance(1, EB, 0.0, 15.0, [], lim0, V_MERGE, H)
    assert any(w.deadline is None for w in model.windows)
    sched, _ = solve(model)
    np.testing.assert_allclose(sched.times, chain_times(EB, 0.0, 15.0), atol=1e-9)


def test_schedule_tuple_json_roundtrip():
    s = ScheduleTuple(7, (10, 3, 4), (1.0, 2.5, 4.0, 6.0))
    assert ScheduleTuple.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        ScheduleTuple(7, (10, 3), (1.0, 2.0))


def _random_model(rng) -> DisjunctiveModel:
    n = int(rng.integers(2, 6))
    releases = rng.uniform(2.0, 10.0, n)
    deadlines = releases + rng.uniform(1.0, 25.0, n)
    zone_ids = tuple(int(z) for z in rng.choice(100, n, replace=False))
    blocks = []
    for other in range(int(rng.integers(0, 5))):
        run_len = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n - run_len + 1))
        base = float(rng.uniform(0.0, 45.0))
        gaps = np.cumsum(rng.uniform(1.0, 8.0, run_len))
        blocks.append(
            DisjunctiveBlock(
                other_id=100 + other,
                var_indices=tuple(range(start, start + run_len)),
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


@pytest.mark.parametrize("seed", range(8))
def test_solve_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    solved = 0
    for _ in range(60):
        model = _random_model(rng)
        ref, _leaves = enumerate_exact(model)
        if ref is None:
            with pytest.raises(Infeasible):
                solve(model)
            continue
        sched, stats = solve(model)
        assert abs(sched.exit_time - ref.exit_time) <= 1e-9
        assert_feasible(model, sched.times)
        try:
            fifo, _ = solve_fifo(model)
        except Infeasible:
            # yield-everywhere can die on a deadline even when passing
            # before is free; the optimal solver is not bound by that
            fifo = None
        if fifo is not None:
            assert fifo.exit_time >= sched.exit_time - 1e-9
        assert stats.optimal
        solved += 1
    assert solved >= 30  # generator must exercise real instances


def test_sequential_pipeline_against_enumeration():
    # commit vehicles one at a time over the real network, certifying each
    rng = np.random.default_rng(42)
    paths = NET.all_paths()
    committed = []
    t0 = 0.0
    for vid in range(10):
        path = paths[int(rng.integers(0, len(paths)))]
        t0 += float(rng.uniform(1.6, 4.0))
        speed = float(rng.uniform(13.0, 16.0))
        model = build_instance(vid, path, t0, speed, committed, LIM, V_MERGE, H)
        sched, _ = solve(model)
        ref, _ = enumerate_exact(model)
        assert abs(sched.exit_time - ref.exit_time) <= 1e-9
        assert_feasible(model, sched.times)
        committed.append((sched, path))


def test_infeasible_children_count_as_nodes():
    # the root branches on vehicle 7's run and its pass-after child on
    # vehicle 8's; both pass-before children close a positive cycle (the
    # release of 5 cannot fit under t1 <= 4 or t2 <= 10.5) and still count
    model = DisjunctiveModel(
        1,
        (10, 11),
        0.0,
        (ZoneBounds(5, 20),) * 2,
        (DisjunctiveBlock(7, (1,), (5.5,), False), DisjunctiveBlock(8, (2,), (12.0,), False)),
        1.5,
    )
    sched, stats = solve(model)
    assert (stats.nodes, stats.candidates, stats.free_runs) == (5, 1, 2)
    assert sched.times == (0.0, 7.0, 13.5)


def test_run_clear_within_tolerance_is_not_branched():
    # the release chain puts time 1 at 4.0, and the committed vehicle's time
    # plus the headway is 4.0 exactly, or 5e-10 above it: both runs count as
    # clear (pass-after holds within _EPS), so the root is the only node
    for other in (2.5, 2.5 + 5e-10):
        model = DisjunctiveModel(
            1, (10,), 0.0, (ZoneBounds(4.0, 20.0),), (DisjunctiveBlock(7, (1,), (other,), False),), 1.5
        )
        sched, stats = solve(model)
        assert (stats.nodes, stats.candidates, stats.free_runs) == (1, 1, 1)
        assert sched.times == (0.0, 4.0)


def test_per_vehicle_search_is_one_pass_after_path():
    # pass-before edges only cap the vehicle's own times, which the
    # relaxation already holds least, so every pass-before child is a
    # positive cycle: one candidate, reached through two children per branch
    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(200):
        model = _random_model(rng)
        try:
            _, stats = solve(model)
        except Infeasible:
            continue
        assert stats.candidates == 1 and stats.nodes % 2 == 1
        solved += 1
    assert solved >= 100


# -- _propagate: the origin is the last node ----------------------------------


def _out_lists(n_nodes, edges):
    out = [[] for _ in range(n_nodes)]
    for u, v, w in edges:
        out[u].append((v, w))
    return out


def _from_origin(n_nodes):
    dist = [-math.inf] * n_nodes
    dist[-1] = 0.0
    return dist


def _count_pops(monkeypatch, limit=100_000):
    """Count _propagate's queue pops; fail past limit instead of hanging."""
    pops = []

    class CountingDeque(deque):
        def popleft(self):
            pops.append(1)
            assert len(pops) <= limit, "propagation did not terminate"
            return super().popleft()

    monkeypatch.setattr(scheduler, "deque", CountingDeque)
    return pops


def test_propagate_rejects_a_positive_cycle_closed_by_a_new_edge(monkeypatch):
    # a 20-zone release chain from t0 = 0, then a deadline of 10 on the whole
    # chain: the cycle through the new edge gains 10.  The parent walk proves
    # it within one lap, before any node could be relaxed n_nodes times
    n = 22
    base = [(21, 0, 0.0), (0, 21, 0.0)] + [(k, k + 1, 1.0) for k in range(20)]
    dist = _from_origin(n)
    assert _propagate(dist, base, _out_lists(n, base))
    assert dist == [float(k) for k in range(21)] + [0.0]
    pops = _count_pops(monkeypatch)
    new = [(20, 0, -10.0)]
    assert not _propagate(dist, new, _out_lists(n, base + new))
    assert len(pops) < n


def test_propagate_keeps_zero_weight_cycles():
    # the t0 pin pair and zone 0's window with release == deadline are
    # cycles of weight 0; raising node 1, the tail of the new deadline edge,
    # is no cycle, and dist comes out exact
    n = 4
    base = [(0, 3, -2.5), (0, 1, 4.0), (1, 2, 3.0), (2, 1, -7.0)]
    new = [(3, 0, 2.5), (1, 0, -4.0)]
    dist = _from_origin(n)
    assert _propagate(dist, new, _out_lists(n, base + new))
    assert dist == [2.5, 6.5, 9.5, 0.0]


def test_propagate_backstop_catches_a_cycle_away_from_the_new_edges(monkeypatch):
    # the root call's only new edge leaves the origin; zone 0's release 5
    # and deadline 3 form a cycle of weight 2 that avoids it, so only the
    # relaxation count can reject the graph
    _count_pops(monkeypatch)
    n = 3
    edges = [(2, 0, 0.0), (0, 1, 5.0), (1, 0, -3.0)]
    assert not _propagate(_from_origin(n), [(2, 0, 0.0)], _out_lists(n, edges))


def test_propagate_accepts_new_edges_chained_through_a_base_path():
    # new edges 0 -> 1 and 2 -> 3 with a base path 1 -> 2: raising node 2,
    # the tail of the later new edge, through the earlier one is no cycle
    n = 5
    base = [(4, 0, 0.0), (4, 1, 0.0), (4, 2, 0.0), (4, 3, 0.0), (1, 2, 1.0)]
    dist = _from_origin(n)
    assert _propagate(dist, base, _out_lists(n, base))
    assert dist == [0.0, 0.0, 1.0, 0.0, 0.0]
    new = [(0, 1, 2.0), (2, 3, 2.0)]
    assert _propagate(dist, new, _out_lists(n, base + new))
    assert dist == [0.0, 2.0, 3.0, 5.0, 0.0]

# ---------------------------------------------------------------------------
# centralized
# ---------------------------------------------------------------------------


def _joint_oracle(entries, h):
    """Brute-force joint optimum: every order assignment, longest path each."""
    offsets, total = [], 0
    for e in entries:
        offsets.append(total)
        total += len(e.path.zone_ids) + 1
    origin = total
    base = []
    for k, e in enumerate(entries):
        off = offsets[k]
        base += [(origin, off, e.t0), (off, origin, -e.t0)]
        for i, w in enumerate(e.windows):
            base.append((off + i, off + i + 1, w.release))
            if w.deadline is not None:
                base.append((off + i + 1, off + i, -w.deadline))
    free = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            pi, pj = entries[i].path, entries[j].path
            for run in conflict_runs(pi, pj):
                vi = [offsets[i] + pi.index_of(z) for z in run.zones]
                vj = [offsets[j] + pj.index_of(z) for z in run.zones]
                if run.relation in ("merge", "same-path"):
                    # a shared lane admits no overtaking through its far end
                    vi.append(offsets[i] + pi.index_of(run.zones[-1]) + 1)
                    vj.append(offsets[j] + pj.index_of(run.zones[-1]) + 1)
                fixed = run.relation == "same-path" or (
                    run.zones[0] == pi.zone_ids[0] and run.zones[0] == pj.zone_ids[0]
                )
                if fixed:
                    base += [(a, b, h) for a, b in zip(vi, vj)]
                else:
                    free.append((vi, vj))

    def longest(edges):
        dist = [-math.inf] * (total + 1)
        dist[origin] = 0.0
        for _ in range(total + 2):
            changed = False
            for u, v, w in edges:
                if dist[u] != -math.inf and dist[u] + w > dist[v] + 1e-12:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return dist
        return None

    best = None
    for mask in range(1 << len(free)):
        edges = list(base)
        for idx, (vi, vj) in enumerate(free):
            if (mask >> idx) & 1:
                edges += [(b, a, h) for a, b in zip(vi, vj)]
            else:
                edges += [(a, b, h) for a, b in zip(vi, vj)]
        dist = longest(edges)
        if dist is None:
            continue
        obj = sum(dist[offsets[k] + len(entries[k].path.zone_ids)] for k in range(len(entries)))
        if best is None or obj < best - 1e-12:
            best = obj
    return best, len(free)


def _entries_from(rng, n_veh, speed=None):
    paths = NET.all_paths()
    t0 = 0.0
    entries = []
    for vid in range(n_veh):
        t0 += float(rng.uniform(2.0, 5.0))
        path = paths[int(rng.integers(0, len(paths)))]
        v0 = float(rng.uniform(13.0, 16.0)) if speed is None else speed
        entries.append(CentralizedEntry(vid, path, t0, traversal_bounds(path, v0, LIM, V_MERGE)))
    return entries


def test_centralized_two_crossing_vehicles_exact():
    e1 = CentralizedEntry(1, EB, 0.0, traversal_bounds(EB, 15.0, LIM, V_MERGE))
    e2 = CentralizedEntry(2, SB2, 0.3, traversal_bounds(SB2, 15.0, LIM, V_MERGE))
    scheds, stats = solve_centralized([e1, e2], H)
    ref, n_free = _joint_oracle([e1, e2], H)
    assert n_free == 1
    obj = scheds[1].exit_time + scheds[2].exit_time
    assert abs(obj - ref) <= 1e-9
    assert stats.optimal


@pytest.mark.parametrize("seed", range(6))
def test_centralized_matches_joint_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    checked = 0
    while checked < 4:
        entries = _entries_from(rng, 3)
        ref, n_free = _joint_oracle(entries, H)
        if n_free > 10 or ref is None:
            continue
        scheds, stats = solve_centralized(entries, H)
        obj = sum(scheds[e.vehicle_id].exit_time for e in entries)
        assert abs(obj - ref) <= 1e-9
        assert stats.optimal
        # pairwise separation holds on every shared run
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                pi, pj = entries[i].path, entries[j].path
                si, sj = scheds[entries[i].vehicle_id], scheds[entries[j].vehicle_id]
                for run in conflict_runs(pi, pj):
                    d = [sj.time_at(z) - si.time_at(z) for z in run.zones]
                    assert all(x >= H - 1e-9 for x in d) or all(x <= -H + 1e-9 for x in d)
        checked += 1


def test_centralized_never_worse_than_sequential_seed():
    rng = np.random.default_rng(7)
    for _ in range(4):
        entries = _entries_from(rng, 4)
        committed = []
        seed_scheds = {}
        for e in entries:
            # the seed's conflicts, under the entry's own windows
            inst = dataclasses.replace(
                build_instance(e.vehicle_id, e.path, e.t0, 15.0, committed, LIM, V_MERGE, H),
                windows=e.windows,
            )
            sched, _ = solve(inst)
            committed.append((sched, e.path))
            seed_scheds[e.vehicle_id] = sched
        seq_obj = sum(s.exit_time for s in seed_scheds.values())
        scheds, _stats = solve_centralized(entries, H, seed_schedules=seed_scheds)
        obj = sum(scheds[e.vehicle_id].exit_time for e in entries)
        assert obj <= seq_obj + 1e-9


def test_centralized_budget_returns_seed():
    rng = np.random.default_rng(11)
    entries = _entries_from(rng, 3, speed=15.0)
    committed = []
    seed_scheds = {}
    for e in entries:
        inst = build_instance(e.vehicle_id, e.path, e.t0, 15.0, committed, LIM, V_MERGE, H)
        sched, _ = solve(inst)
        committed.append((sched, e.path))
        seed_scheds[e.vehicle_id] = sched
    scheds, stats = solve_centralized(entries, H, node_budget=0, seed_schedules=seed_scheds)
    assert not stats.optimal
    assert scheds == seed_scheds


def test_centralized_incumbent_is_replaced_only_beyond_the_tolerance():
    # seeds whose exit sum is the joint optimum plus 5e-7 lose to the search;
    # seeds within 5e-10 of it are a tie and are kept
    e1 = CentralizedEntry(1, EB, 0.0, traversal_bounds(EB, 15.0, LIM, V_MERGE))
    e2 = CentralizedEntry(2, SB2, 0.3, traversal_bounds(SB2, 15.0, LIM, V_MERGE))
    opt, _ = solve_centralized([e1, e2], H)
    for gap, kept in ((5e-7, False), (5e-10, True)):
        seeds = dict(opt)
        s2 = opt[2]
        seeds[2] = ScheduleTuple(2, s2.zone_ids, s2.times[:-1] + (s2.exit_time + gap,))
        scheds, stats = solve_centralized([e1, e2], H, seed_schedules=seeds)
        assert (scheds == seeds, stats.candidates) == (kept, 0 if kept else 1)
        assert scheds[2].exit_time == s2.exit_time + (gap if kept else 0.0)


def test_centralized_rejects_unsorted_entries():
    e1 = CentralizedEntry(1, EB, 5.0, traversal_bounds(EB, 15.0, LIM, V_MERGE))
    e2 = CentralizedEntry(2, SB2, 0.0, traversal_bounds(SB2, 15.0, LIM, V_MERGE))
    with pytest.raises(ValueError):
        solve_centralized([e1, e2], H)


@pytest.mark.parametrize(
    "budget, candidates, digest",
    [
        # the fourth candidate is the 404th node counted; it falls inside
        # the budget only if the four pruned children before it go uncounted
        (400, 3, "a028d516a1eb4e88b816039e2593f9739d48ea5cbcc9e559e5703e464a7b5ec2"),
        (500, 4, "ec5623f2eb1b845d37e7a9e03cc784eb3a0dcbd4e9f6fada635487a2eae153f6"),
    ],
)
def test_centralized_search_on_poisson_cell_is_pinned(budget, candidates, digest):
    """The joint DFS on Poisson cell (30,2), stopped by its node budget
    after four children were pruned on a positive cycle.  Entries and seeds
    are built as the centralized policy builds them, from the sequential
    (decentralized) pass it re-solves.  The node count, candidates and
    every schedule time (as float.hex) are pinned, so a change of search
    order, node counting or arithmetic shows here."""
    cfg = SimConfig(arrival_mode="poisson", n_vehicles=30, seed=2)
    ordered = sorted(run(cfg).records, key=lambda r: (r.t0, r.vehicle_id))
    entries = [CentralizedEntry(r.vehicle_id, r.path, r.t0, windows=r.bounds) for r in ordered]
    seeds = {r.vehicle_id: r.schedule for r in ordered}
    scheds, stats = solve_centralized(
        entries, cfg.headway, node_budget=budget, seed_schedules=seeds
    )
    assert (stats.nodes, stats.candidates, stats.free_runs, stats.optimal) == (
        budget + 1,
        candidates,
        215,
        False,
    )
    sha = hashlib.sha256()
    for e in entries:
        sha.update(" ".join(float.hex(x) for x in scheds[e.vehicle_id].times).encode() + b"\n")
    assert sha.hexdigest() == digest


def test_per_vehicle_pipeline_on_poisson_cell_is_pinned():
    """The decentralized pass on Poisson cell (30,2), one model and one
    solve per vehicle.  Every schedule time (as float.hex) and the summed
    free runs, nodes and candidates are pinned, so a change to which runs
    are fixed, which boundaries they tie, or the chain arithmetic shows
    here."""
    records = run(SimConfig(arrival_mode="poisson", n_vehicles=30, seed=2)).records
    sha = hashlib.sha256()
    for r in records:
        sha.update(" ".join(float.hex(x) for x in r.schedule.times).encode() + b"\n")
    assert (
        sum(r.stats.free_runs for r in records),
        sum(r.stats.nodes for r in records),
        sum(r.stats.candidates for r in records),
    ) == (215, 78, 30)
    assert sha.hexdigest() == "c9eec41b8e62edfcc65d1d67ef0cba793d1f4b23c6696ea9cc7cff019dccf520"
