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

One core serves every solver: _propagate updates longest paths in place
(SPFA) as edges join the graph, and _search is the one depth-first
branch-and-bound over runs.  solve searches one vehicle's graph, solve_fifo
relaxes it once with every free run set to pass-after, and
solve_centralized searches the joint graph.  enumerate_exact, the reference
oracle, keeps its own Bellman-Ford (_earliest_times) apart from the search
it certifies.

A decision that closes a positive cycle is proven infeasible from the
relaxation's parent pointers: a parent walk that leads back to a raised
new-edge tail (Cherkassky & Goldberg, Math. Prog. 1999), with a per-node
relaxation count as the backstop.
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


def _propagate(
    dist: list[float],
    new_edges: list[tuple[int, int, float]],
    out: list[list[tuple[int, float]]],
) -> bool:
    """SPFA longest-path update of dist after new_edges join the graph.

    out[u] holds every edge leaving u: the base edges, then the decided
    run edges in decision order.  False on a positive cycle.

    Each relaxation records the node's parent.  dist had no positive cycle
    before the call, so a new one passes through a new edge; whenever the
    tail v of a new edge is raised from u, the parent walk from u is
    checked for v.  A cycle among parents set by strict relaxations has
    positive weight, so reaching v proves one.  The walk only reads, so
    the relaxation order (and every dist that returns True) is as without
    it.  A node relaxed more than n_nodes times is the backstop, for cycles
    that avoid the new edges (the root call's, say).
    """
    n_nodes = len(dist)
    q = deque()
    pop, push = q.popleft, q.append
    inq = bytearray(n_nodes)
    counts = [0] * n_nodes
    parent = [-1] * n_nodes
    tails = {u for u, _, _ in new_edges}
    for u, v, w in new_edges:
        du = dist[u]
        if du != -math.inf and du + w > dist[v] + 1e-12:
            dist[v] = du + w
            parent[v] = u
            if not inq[v]:
                push(v)
                inq[v] = 1
    while q:
        u = pop()
        inq[u] = 0
        du = dist[u]
        for v, w in out[u]:
            dv = du + w
            if dv > dist[v] + 1e-12:
                dist[v] = dv
                parent[v] = u
                counts[v] += 1
                if counts[v] > n_nodes:
                    return False
                if v in tails:
                    x = u
                    for _ in range(n_nodes):
                        if x == v:
                            return False
                        x = parent[x]
                        if x < 0:
                            break
                if not inq[v]:
                    push(v)
                    inq[v] = 1
    return True


def _search(
    n_nodes: int,
    edges: list[tuple[int, int, float]],
    runs: list[tuple[list[tuple[int, int, float]], list[tuple[int, int, float]]]],
    exit_idx: list[int],
    best_obj: float,
    node_budget: float = math.inf,
) -> tuple[list[float] | None, SolveStats]:
    """Branch-and-bound over runs from the longest paths of edges.

    The origin is the last node.  A run is (pass-after edges, pass-before
    edges) and is clear when every edge of one side holds within _EPS.  A
    node branches on its first undecided unclear run, pass-after explored
    first, or is a candidate if every run is clear.  A node whose objective
    (the sum of its times at exit_idx) is not below best_obj by more than
    _EPS is pruned, so ties never replace the incumbent.  Children closing a
    positive cycle count as nodes.  Returns the best candidate's times, None
    if none beat best_obj, and the counts; optimal is False if the node
    budget ran out.
    """
    stats = SolveStats(free_runs=len(runs))
    out: list[list[tuple[int, float]]] = [[] for _ in range(n_nodes)]
    for u, v, w in edges:
        out[u].append((v, w))
    root = [-math.inf] * n_nodes
    root[-1] = 0.0
    if not _propagate(root, [(n_nodes - 1, v, w) for v, w in out[-1]], out):
        stats.nodes = 1
        return None, stats
    exit_idx = np.asarray(exit_idx)
    # row 0 holds every run's pass-after edges, row 1 its pass-before ones;
    # both sides of a run hold one edge per tie, so the rows align
    cols = np.array([[e for run in runs for e in run[side]] for side in (0, 1)]).reshape(2, -1, 3)
    src, dst = cols[..., 0].astype(np.intp), cols[..., 1].astype(np.intp)
    thr = cols[..., 2] - _EPS
    starts = np.cumsum([0] + [len(run[0]) for run in runs[:-1]])
    n_runs = len(runs)
    best = None
    # DFS stack: (dist snapshot, decided mask, per-node out-edge lists).
    # A child shares its parent's out lists except at the tails of its new
    # edges, which get fresh lists, so no entry ever mutates another's.
    stack = [(root, np.zeros(n_runs, dtype=bool), out)]
    while stack:
        dist, decided, out = stack.pop()
        stats.nodes += 1
        if stats.nodes > node_budget:
            stats.optimal = False
            break
        d = np.array(dist)
        obj = float(np.add.reduce(d[exit_idx]))
        if obj >= best_obj - _EPS:
            continue
        branch = -1
        if n_runs:
            after, before = np.logical_and.reduceat(d[dst] - d[src] >= thr, starts, axis=1)
            settled = after | before | decided
            branch = int(settled.argmin())
            if settled[branch]:
                branch = -1
        if branch < 0:
            best, best_obj = dist, obj
            stats.candidates += 1
            continue
        # push pass-before first so pass-after is explored first
        for new_edges in reversed(runs[branch]):
            child = dist.copy()
            child_out = out.copy()
            for u, v, w in new_edges:
                child_out[u] = child_out[u] + [(v, w)]
            if not _propagate(child, new_edges, child_out):
                stats.nodes += 1
                continue
            child_decided = decided.copy()
            child_decided[branch] = True
            stack.append((child, child_decided, child_out))
    return best, stats


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


def _model_graph(model: DisjunctiveModel):
    """A vehicle's chain plus pass-after on every fixed block, and one run
    (pass after the committed vehicle, pass before it) per free block."""
    origin, h = model.n_vars, model.headway
    edges = _chain_edges(0, origin, model.t0, model.windows)
    runs = []
    for b in model.blocks:
        ties = list(zip(b.var_indices, b.other_times))
        after = [(origin, q, c + h) for q, c in ties]
        if b.fixed:
            edges += after
        else:
            runs.append((after, [(q, origin, h - c) for q, c in ties]))
    return edges, runs


def solve(model: DisjunctiveModel) -> tuple[ScheduleTuple, SolveStats]:
    """Exact minimum-exit-time schedule by branch-and-bound on run binaries.

    Branches only on runs the current relaxation violates; a relaxation
    violating none is feasible outright and its exit time is exact for that
    subtree.  Deterministic: blocks are pre-sorted, pass-after explored
    first, and ties never replace an incumbent.

    Pass-before edges only cap the vehicle's own times, and the relaxation
    is already least, so a violated pass-before side closes a positive
    cycle: the search is one pass-after path and finds at most one
    candidate, which nothing prunes.
    """
    t_start = time.perf_counter()
    n = model.n_vars
    edges, runs = _model_graph(model)
    best, stats = _search(n + 1, edges, runs, [n - 1], math.inf)
    stats.wall_ms = (time.perf_counter() - t_start) * 1e3
    if best is None:
        raise Infeasible(f"vehicle {model.vehicle_id}: no schedule satisfies the constraints")
    return ScheduleTuple(model.vehicle_id, model.zone_ids, tuple(best[:n])), stats


def solve_fifo(model: DisjunctiveModel) -> tuple[ScheduleTuple, SolveStats]:
    """First-in-first-out policy: yield to every committed conflict."""
    t_start = time.perf_counter()
    n = model.n_vars
    edges, runs = _model_graph(model)
    every_after = edges + [e for after, _ in runs for e in after]
    times, stats = _search(n + 1, every_after, [], [n - 1], math.inf)
    stats.free_runs = len(runs)
    stats.wall_ms = (time.perf_counter() - t_start) * 1e3
    if times is None:
        raise Infeasible(f"vehicle {model.vehicle_id}: FIFO schedule infeasible")
    return ScheduleTuple(model.vehicle_id, model.zone_ids, tuple(times[:n])), stats


def enumerate_exact(model: DisjunctiveModel) -> tuple[ScheduleTuple | None, int]:
    """Reference solver: try every binary assignment, keep the best leaf.

    Exponential in the number of free runs; used to certify the
    branch-and-bound.  Returns (best schedule or None, leaves solved).
    """
    base, runs = _model_graph(model)
    best = None
    leaves = 0
    for mask in range(1 << len(runs)):
        edges = list(base)
        for idx, run in enumerate(runs):
            edges.extend(run[(mask >> idx) & 1])
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
    for a, b in zip(entries, entries[1:]):
        if b.t0 < a.t0 - _EPS:
            raise ValueError("entries must be sorted by queue order")

    offsets = [0]
    for e in entries:
        offsets.append(offsets[-1] + len(e.path.zone_ids) + 1)
    origin = offsets.pop()
    edges = []
    for off, e in zip(offsets, entries):
        edges += _chain_edges(off, origin, e.t0, e.windows)
    runs = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            for ti, tj, fixed in _run_ties(entries[i].path, entries[j].path):
                after = [(offsets[i] + a, offsets[j] + b, headway) for a, b in zip(ti, tj)]
                if fixed:
                    edges += after  # later queue entry yields on the shared lane
                else:
                    runs.append((after, [(b, a, w) for a, b, w in after]))

    # incumbent from the sequential schedules, if provided
    best_obj = math.inf
    if seed_schedules is not None:
        best_obj = sum(seed_schedules[e.vehicle_id].exit_time for e in entries)
    exit_idx = [off + len(e.path.zone_ids) for off, e in zip(offsets, entries)]
    best, stats = _search(origin + 1, edges, runs, exit_idx, best_obj, node_budget)
    stats.wall_ms = (time.perf_counter() - t_begin) * 1e3
    if best is not None:
        return {
            e.vehicle_id: ScheduleTuple(e.vehicle_id, e.path.zone_ids, tuple(best[off : last + 1]))
            for e, off, last in zip(entries, offsets, exit_idx)
        }, stats
    if seed_schedules is None:
        raise Infeasible("no feasible joint schedule found")
    return dict(seed_schedules), stats
