"""Zone-entry scheduling as a disjunctive temporal problem.

Each vehicle's schedule is the vector of its zone entry times plus the final
exit time.  Consecutive times are tied by the closed-form traversal bounds
[release, deadline] of the zone between them, the first time is pinned to the
vehicle's control-zone entry, and every conflict with another vehicle adds a
two-sided separation disjunction (pass at least a headway after it in every
zone of the shared run, or at least a headway before it in all of them).

With the disjunctions decided, what remains is a system of difference
constraints; its componentwise-minimal solution (earliest times) exists iff
the constraint graph has no positive cycle and is found by longest-path
relaxation from a fixed origin node.  Minimality in every component means the
exit time, or any monotone objective, is minimized at once.  Branch-and-bound
over undecided runs therefore yields exact optima: a relaxation that violates
no disjunction is already feasible, and its value lower-bounds every
completion.

build_instance emits the one model, a DisjunctiveModel: the vehicle's
windows plus one DisjunctiveBlock per conflict run against a committed
vehicle.  solve, solve_fifo and enumerate_exact all read it.  The joint
(centralized) solve puts every vehicle's chain on one graph.  Both turn
conflict runs into ties by the same rule, _run_ties: a shared-lane run also
ties the boundary after it, and a run on a shared entry approach or on
identical paths is fixed to "pass after", because overtaking is impossible
there.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .kinematics import BoundaryState, Limits, deadline, release_time
from .network import PathSpec, conflict_runs

_EPS = 1e-9


class Infeasible(RuntimeError):
    """No schedule satisfies the bounds and separation constraints."""


@dataclass(frozen=True)
class ZoneBounds:
    """Traversal-time window for one zone; deadline None means unbounded."""

    release: float
    deadline: float | None


@dataclass(frozen=True)
class ScheduleTuple:
    """Committed schedule: entry time per zone plus the control-zone exit."""

    vehicle_id: int
    zone_ids: tuple[int, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.zone_ids) + 1:
            raise ValueError("times must hold one entry per zone plus the exit")

    @property
    def exit_time(self) -> float:
        return self.times[-1]

    def time_at(self, zone_id: int) -> float:
        return self.times[self.zone_ids.index(zone_id)]

    def to_json(self) -> dict:
        return {
            "vehicle_id": self.vehicle_id,
            "zone_ids": list(self.zone_ids),
            "times": list(self.times),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScheduleTuple":
        return cls(int(data["vehicle_id"]), tuple(data["zone_ids"]), tuple(data["times"]))


@dataclass(frozen=True)
class DisjunctiveBlock:
    """Separation against one other vehicle over one conflict run.

    The vehicle passes at least a headway after the other one at every tied
    time index, or at least a headway before it at all of them.
    """

    other_id: int
    var_indices: tuple[int, ...]
    other_times: tuple[float, ...]
    fixed: bool  # True forces pass-after; False leaves the binary free


@dataclass(frozen=True)
class DisjunctiveModel:
    """One vehicle's scheduling problem: its time chain plus run blocks.

    Blocks are kept sorted by (first tied index, other vehicle), the order
    the solvers branch in.
    """

    vehicle_id: int
    zone_ids: tuple[int, ...]
    t0: float
    windows: tuple[ZoneBounds, ...]
    blocks: tuple[DisjunctiveBlock, ...]
    headway: float

    def __post_init__(self):
        order = sorted(self.blocks, key=lambda b: (b.var_indices[0], b.other_id))
        object.__setattr__(self, "blocks", tuple(order))

    @property
    def n_vars(self) -> int:
        # one entry time per zone plus the exit time
        return len(self.zone_ids) + 1


@dataclass
class SolveStats:
    nodes: int = 0
    candidates: int = 0
    wall_ms: float = 0.0
    free_runs: int = 0
    optimal: bool = True


def traversal_bounds(
    path: PathSpec,
    entry_speed: float,
    lim: Limits,
    v_merge: float,
    exit_speed: float | None = None,
) -> tuple[ZoneBounds, ...]:
    """Closed-form [release, deadline] per zone along a path.

    Boundary speeds: measured entry speed at the control-zone entry, the
    common merging speed at every interior zone boundary, and exit_speed
    (defaulting to the merging speed) at the control-zone exit.
    """
    if not (lim.v_min < v_merge < lim.v_max):
        raise ValueError("v_merge must lie strictly inside the speed limits")
    n = len(path.zone_ids)
    speeds = [entry_speed] + [v_merge] * (n - 1) + [exit_speed if exit_speed is not None else v_merge]
    out = []
    for k, seg in enumerate(path.seg_lengths):
        start = BoundaryState(0.0, speeds[k])
        end = BoundaryState(seg, speeds[k + 1])
        rel = release_time(start, end, lim)
        ddl = deadline(start, end, lim)
        out.append(ZoneBounds(rel.time, None if ddl.is_unbounded() else ddl.time))
    return tuple(out)


def _run_ties(a: PathSpec, b: PathSpec):
    """Tied time indices on paths a and b for each of their conflict runs.

    Yields (indices on a, indices on b, fixed).  A merge or same-path run
    also ties the boundary after its last zone: a shared lane admits no
    overtaking through its far end.  A run anchored at both paths' first
    zone (a shared entry approach) or on identical paths is fixed: the
    later vehicle passes after the earlier one.
    """
    for run in conflict_runs(a, b):
        ia = [a.index_of(z) for z in run.zones]
        ib = [b.index_of(z) for z in run.zones]
        if run.relation in ("merge", "same-path"):
            ia.append(ia[-1] + 1)
            ib.append(ib[-1] + 1)
        fixed = run.relation == "same-path" or (
            run.zones[0] == a.zone_ids[0] and run.zones[0] == b.zone_ids[0]
        )
        yield ia, ib, fixed


def build_instance(
    vehicle_id: int,
    path: PathSpec,
    t0: float,
    entry_speed: float,
    committed: list[tuple[ScheduleTuple, PathSpec]],
    lim: Limits,
    v_merge: float,
    headway: float,
    exit_speed: float | None = None,
) -> DisjunctiveModel:
    """Assemble the scheduling model for one vehicle against committed ones."""
    windows = traversal_bounds(path, entry_speed, lim, v_merge, exit_speed)
    blocks = []
    for sched, other_path in committed:
        for mine, theirs, fixed in _run_ties(path, other_path):
            other_times = tuple(sched.times[q] for q in theirs)
            blocks.append(DisjunctiveBlock(sched.vehicle_id, tuple(mine), other_times, fixed))
    return DisjunctiveModel(vehicle_id, path.zone_ids, t0, windows, tuple(blocks), headway)


def _earliest_times(n_vars: int, edges: list[tuple[int, int, float]]) -> list[float] | None:
    """Componentwise-minimal solution of the difference constraints.

    Longest-path relaxation from the origin node (index n_vars); returns None
    on a positive cycle (infeasible system).
    """
    origin = n_vars
    dist = [-math.inf] * (n_vars + 1)
    dist[origin] = 0.0
    for _ in range(n_vars + 1):
        changed = False
        for u, v, w in edges:
            du = dist[u]
            if du == -math.inf:
                continue
            nv = du + w
            if nv > dist[v] + 1e-12:
                dist[v] = nv
                changed = True
        if not changed:
            return dist[:n_vars]
    return None


def _chain_edges(
    off: int, origin: int, t0: float, windows: tuple[ZoneBounds, ...]
) -> list[tuple[int, int, float]]:
    """One vehicle's chain with its times at off..: t0 pin, releases, deadlines."""
    edges = [(origin, off, t0), (off, origin, -t0)]
    for k, w in enumerate(windows):
        edges.append((off + k, off + k + 1, w.release))
        if w.deadline is not None:
            edges.append((off + k + 1, off + k, -w.deadline))
    return edges


def _base_edges(model: DisjunctiveModel) -> list[tuple[int, int, float]]:
    origin = model.n_vars
    edges = _chain_edges(0, origin, model.t0, model.windows)
    for b in model.blocks:
        if b.fixed:
            edges += _block_edges(b, 0, model.headway, origin)
    return edges


def _block_edges(block: DisjunctiveBlock, order: int, h: float, origin: int):
    if order == 0:  # pass after the committed vehicle everywhere on the run
        return [(origin, q, c + h) for q, c in zip(block.var_indices, block.other_times)]
    # pass before it everywhere on the run
    return [(q, origin, h - c) for q, c in zip(block.var_indices, block.other_times)]


def _block_state(times: list[float], block: DisjunctiveBlock, h: float) -> int:
    """+1 if the times clear the run on the after side, -1 before, 0 violated."""
    after = all(times[q] >= c + h - _EPS for q, c in zip(block.var_indices, block.other_times))
    if after:
        return 1
    before = all(times[q] <= c - h + _EPS for q, c in zip(block.var_indices, block.other_times))
    return -1 if before else 0


def solve(model: DisjunctiveModel) -> tuple[ScheduleTuple, SolveStats]:
    """Exact minimum-exit-time schedule by branch-and-bound on run binaries.

    Branches only on runs the current relaxation violates; a relaxation
    violating none is feasible outright and its exit time is exact for that
    subtree.  Deterministic: blocks are pre-sorted, pass-after explored
    first, and ties never replace an incumbent.
    """
    t_start = time.perf_counter()
    base = _base_edges(model)
    free = [b for b in model.blocks if not b.fixed]
    stats = SolveStats(free_runs=len(free))
    h = model.headway
    origin = model.n_vars
    best: list[float] | None = None
    best_exit = math.inf

    def visit(decided: dict[int, int]):
        nonlocal best, best_exit
        stats.nodes += 1
        extra = []
        for idx, order in decided.items():
            extra.extend(_block_edges(free[idx], order, h, origin))
        times = _earliest_times(model.n_vars, base + extra)
        if times is None:
            return
        if times[-1] >= best_exit - 1e-12:
            return
        branch_idx = -1
        for idx, block in enumerate(free):
            if idx in decided:
                continue
            if _block_state(times, block, h) == 0:
                branch_idx = idx
                break
        if branch_idx < 0:
            best = times
            best_exit = times[-1]
            stats.candidates += 1
            return
        for order in (0, 1):
            visit({**decided, branch_idx: order})

    visit({})
    stats.wall_ms = (time.perf_counter() - t_start) * 1e3
    if best is None:
        raise Infeasible(f"vehicle {model.vehicle_id}: no schedule satisfies the constraints")
    sched = ScheduleTuple(model.vehicle_id, model.zone_ids, tuple(best))
    return sched, stats


def solve_fifo(model: DisjunctiveModel) -> tuple[ScheduleTuple, SolveStats]:
    """First-in-first-out policy: yield to every committed conflict."""
    t_start = time.perf_counter()
    edges = _base_edges(model)
    free = [b for b in model.blocks if not b.fixed]
    for b in free:
        edges += _block_edges(b, 0, model.headway, model.n_vars)
    times = _earliest_times(model.n_vars, edges)
    stats = SolveStats(nodes=1, candidates=1 if times else 0, free_runs=len(free))
    stats.wall_ms = (time.perf_counter() - t_start) * 1e3
    if times is None:
        raise Infeasible(f"vehicle {model.vehicle_id}: FIFO schedule infeasible")
    return ScheduleTuple(model.vehicle_id, model.zone_ids, tuple(times)), stats


def enumerate_exact(model: DisjunctiveModel) -> tuple[ScheduleTuple | None, int]:
    """Reference solver: try every binary assignment, keep the best leaf.

    Exponential in the number of free runs; used to certify the
    branch-and-bound.  Returns (best schedule or None, leaves solved).
    """
    free = [b for b in model.blocks if not b.fixed]
    base = _base_edges(model)
    h = model.headway
    origin = model.n_vars
    best = None
    leaves = 0
    for mask in range(1 << len(free)):
        edges = list(base)
        for idx, block in enumerate(free):
            edges.extend(_block_edges(block, (mask >> idx) & 1, h, origin))
        times = _earliest_times(model.n_vars, edges)
        leaves += 1
        if times is None:
            continue
        if best is None or times[-1] < best[-1] - 1e-12:
            best = times
    if best is None:
        return None, leaves
    return ScheduleTuple(model.vehicle_id, model.zone_ids, tuple(best)), leaves


# ---------------------------------------------------------------------------
# centralized (joint) scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralizedEntry:
    vehicle_id: int
    path: PathSpec
    t0: float
    windows: tuple[ZoneBounds, ...]


def solve_centralized(
    entries: list[CentralizedEntry],
    headway: float,
    node_budget: int = 4000,
    seed_schedules: dict[int, ScheduleTuple] | None = None,
) -> tuple[dict[int, ScheduleTuple], SolveStats]:
    """Joint schedule minimizing the sum of exit times over all vehicles.

    Branch-and-bound over pair-run binaries on one temporal network holding
    every vehicle's chain.  The earliest joint solution is componentwise
    minimal, so it bounds the objective of every completion.  An incumbent
    seeded from per-vehicle sequential schedules guarantees the result never
    degrades below them; if the node budget runs out the best incumbent is
    returned with optimal=False.

    entries must come in queue order (non-decreasing t0): shared-lane runs
    are order-fixed to that sequence.
    """
    t_begin = time.perf_counter()
    stats = SolveStats()
    n_veh = len(entries)
    for a, b in zip(entries, entries[1:]):
        if b.t0 < a.t0 - _EPS:
            raise ValueError("entries must be sorted by queue order")

    offsets = []
    total = 0
    for e in entries:
        offsets.append(total)
        total += len(e.path.zone_ids) + 1
    origin = total
    n_nodes = total + 1
    exit_idx = np.asarray([offsets[k] + len(entries[k].path.zone_ids) for k in range(n_veh)])

    adj: list[list[tuple[int, float]]] = [[] for _ in range(n_nodes)]
    for k, e in enumerate(entries):
        for u, v, w in _chain_edges(offsets[k], origin, e.t0, e.windows):
            adj[u].append((v, w))

    free: list[tuple[list[int], list[int]]] = []
    h = headway
    for i in range(n_veh):
        for j in range(i + 1, n_veh):
            for ti, tj, fixed in _run_ties(entries[i].path, entries[j].path):
                vi = [offsets[i] + q for q in ti]
                vj = [offsets[j] + q for q in tj]
                if fixed:
                    # later queue entry yields on the shared lane
                    for a, b in zip(vi, vj):
                        adj[a].append((b, h))
                else:
                    free.append((vi, vj))
    stats.free_runs = len(free)
    # every free run's ties in flat arrays, for the vectorized state check
    run_vi = np.asarray([a for vi, _ in free for a in vi], dtype=np.int64)
    run_vj = np.asarray([b for _, vj in free for b in vj], dtype=np.int64)
    run_sizes = np.asarray([len(vi) for vi, _ in free], dtype=np.int64)
    run_starts = np.cumsum(run_sizes) - run_sizes

    NEG = -math.inf

    def propagate(
        dist: list[float],
        new_edges: list[tuple[int, int, float]],
        out: list[list[tuple[int, float]]],
    ) -> bool:
        """SPFA longest-path update of dist after new_edges join the graph.

        out[u] holds every edge leaving u: the base edges, then the decided
        run edges in decision order.  False on a positive cycle.
        """
        q = deque()
        inq = bytearray(n_nodes)
        counts = [0] * n_nodes
        for u, v, w in new_edges:
            du = dist[u]
            if du != NEG and du + w > dist[v] + 1e-12:
                dist[v] = du + w
                if not inq[v]:
                    q.append(v)
                    inq[v] = 1
        while q:
            u = q.popleft()
            inq[u] = 0
            du = dist[u]
            for v, w in out[u]:
                if du + w > dist[v] + 1e-12:
                    dist[v] = du + w
                    counts[v] += 1
                    if counts[v] > n_nodes:
                        return False
                    if not inq[v]:
                        q.append(v)
                        inq[v] = 1
        return True

    # root relaxation from scratch
    root = [NEG] * n_nodes
    root[origin] = 0.0
    seeds = [(origin, v, w) for v, w in adj[origin]]
    if not propagate(root, seeds, adj):
        raise Infeasible("joint schedule infeasible under forced lane order")

    # incumbent from the sequential schedules, if provided
    best_obj = math.inf
    best_schedules: dict[int, ScheduleTuple] | None = None
    if seed_schedules is not None:
        best_obj = sum(seed_schedules[e.vehicle_id].exit_time for e in entries)
        best_schedules = dict(seed_schedules)

    h_eps = h - _EPS

    def run_states(dist: np.ndarray, decided: np.ndarray) -> int:
        """Index of the first undecided violated run, or -1 if none."""
        if not free:
            return -1
        d = dist[run_vj] - dist[run_vi]
        after = np.add.reduceat((d >= h_eps).astype(np.int8), run_starts) == run_sizes
        before = np.add.reduceat((d <= -h_eps).astype(np.int8), run_starts) == run_sizes
        viol = (~(after | before)) & (decided == 0)
        idx = np.flatnonzero(viol)
        return int(idx[0]) if idx.size else -1

    def extract(dist: list[float]) -> dict[int, ScheduleTuple]:
        scheds = {}
        for k, e in enumerate(entries):
            off = offsets[k]
            times = tuple(dist[off : off + len(e.path.zone_ids) + 1])
            scheds[e.vehicle_id] = ScheduleTuple(e.vehicle_id, e.path.zone_ids, times)
        return scheds

    # DFS stack: (dist snapshot, decided snapshot, per-node out-edge lists).
    # A child shares its parent's out lists except at the tails of its new
    # edges, which get fresh lists, so no entry ever mutates another's.
    stack = [(root, np.zeros(len(free), dtype=np.int8), adj)]
    budget_hit = False
    while stack:
        dist, decided, out = stack.pop()
        stats.nodes += 1
        if stats.nodes > node_budget:
            budget_hit = True
            break
        dist_arr = np.array(dist)
        obj = float(dist_arr[exit_idx].sum())
        if obj >= best_obj - 1e-9:
            continue
        branch = run_states(dist_arr, decided)
        if branch < 0:
            best_obj = obj
            best_schedules = extract(dist)
            stats.candidates += 1
            continue
        vi, vj = free[branch]
        # push pass-before second so pass-after is explored first
        for order in (1, 0):
            if order == 0:
                new_edges = [(a, b, h) for a, b in zip(vi, vj)]
            else:
                new_edges = [(b, a, h) for a, b in zip(vi, vj)]
            child = dist.copy()
            child_out = out.copy()
            for u, v, w in new_edges:
                child_out[u] = child_out[u] + [(v, w)]
            if not propagate(child, new_edges, child_out):
                stats.nodes += 1
                continue
            child_decided = decided.copy()
            child_decided[branch] = 1 if order == 0 else -1
            stack.append((child, child_decided, child_out))

    stats.optimal = not budget_hit
    stats.wall_ms = (time.perf_counter() - t_begin) * 1e3
    if best_schedules is None:
        raise Infeasible("no feasible joint schedule found")
    return best_schedules, stats
