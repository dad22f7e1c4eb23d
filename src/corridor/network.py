"""Zone graph for a corridor of two adjacent signal-free intersections.

The corridor is an east-west road crossing two north-south roads.  Each
intersection's conflict area (the merging zone) is split into four square
sub-zones so that scheduling can resolve conflicts per cell instead of per
intersection.  Around the two merging zones sit six approach zones (one per
entry leg), six exit zones, and two directed link zones between the
intersections, for 22 zones total:

              SB1 in=15 out=16        SB2 in=22 out=21
                     |                       |
    WB out=9  --  [1][2]  --  WB link=14 --  [5][6]  --  WB in=20
    EB in=10  --  [3][4]  --  EB link=13 --  [7][8]  --  EB out=19
                     |                       |
              NB1 in=11 out=12        NB2 in=18 out=17

Zones 1-4 quarter the west merging zone (NW, NE, SW, SE), zones 5-8 the east
one.  Traffic keeps right: eastbound uses the south lane (enters sub-zone 3
or 7), westbound the north lane (6 or 2), and so on.  A through movement
crosses two sub-zones, a right turn one, a left turn three.

A path is an ordered zone sequence with per-zone traversal lengths; turning
arcs are shorter or longer than the straight cell crossing, so the lengths
are movement-specific.  Conflict relations between two paths decompose into
maximal runs of zones shared contiguously and in the same order by both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

KIND_APPROACH = "approach"
KIND_SUBZONE = "merging-subzone"
KIND_LINK = "link"
KIND_EXIT = "exit"

# compass headings; a left turn is counterclockwise
_LEFT = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT = {"E": "S", "S": "W", "W": "N", "N": "E"}

# sub-zone cells crossed per heading and turn, right-hand traffic
_THROUGH_SEQ = {"E": ("SW", "SE"), "W": ("NE", "NW"), "N": ("SE", "NE"), "S": ("NW", "SW")}
_LEFT_SEQ = {"E": ("SW", "SE", "NE"), "W": ("NE", "NW", "SW"), "N": ("SE", "NE", "NW"), "S": ("NW", "SW", "SE")}
_RIGHT_SEQ = {"E": ("SW",), "W": ("NE",), "N": ("SE",), "S": ("NW",)}

_QUAD_IDS = {"A": {"NW": 1, "NE": 2, "SW": 3, "SE": 4}, "B": {"NW": 5, "NE": 6, "SW": 7, "SE": 8}}

# (intersection, heading in) per origin
_ORIGINS = {
    "NB1": ("A", "N"),
    "NB2": ("B", "N"),
    "EB": ("A", "E"),
    "WB": ("B", "W"),
    "SB1": ("A", "S"),
    "SB2": ("B", "S"),
}
ORIGIN_ORDER = ("NB1", "NB2", "EB", "WB", "SB1", "SB2")

_APPROACH_IDS = {"NB1": 11, "NB2": 18, "EB": 10, "WB": 20, "SB1": 15, "SB2": 22}

# exit zone per (intersection, heading out); the eastbound/westbound slots at
# the inner legs are the directed link zones toward the other intersection
_EXIT_IDS = {("A", "W"): 9, ("A", "S"): 12, ("A", "N"): 16, ("B", "S"): 17, ("B", "E"): 19, ("B", "N"): 21}
_LINKS = {("A", "E"): (13, "B"), ("B", "W"): (14, "A")}


@dataclass(frozen=True)
class Zone:
    """One road cell.  For merging sub-zones, length is the straight crossing."""

    id: int
    length: float
    kind: str
    merging_group: int | None = None


@dataclass(frozen=True)
class PathSpec:
    """Ordered zone sequence for one origin/movement with traversal lengths."""

    origin: str
    movement: str
    zone_ids: tuple[int, ...]
    seg_lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.zone_ids) != len(self.seg_lengths):
            raise ValueError("zone_ids and seg_lengths must align")
        if len(set(self.zone_ids)) != len(self.zone_ids):
            raise ValueError("paths visit each zone at most once")

    @property
    def entry_offsets(self) -> tuple[float, ...]:
        out = []
        acc = 0.0
        for seg in self.seg_lengths:
            out.append(acc)
            acc += seg
        return tuple(out)

    @property
    def total_length(self) -> float:
        return sum(self.seg_lengths)

    def index_of(self, zone_id: int) -> int:
        return self.zone_ids.index(zone_id)

    def entry_offset(self, zone_id: int) -> float:
        return self.entry_offsets[self.index_of(zone_id)]


@dataclass(frozen=True)
class ConflictRun:
    """Maximal run of zones two paths share contiguously, in path order.

    relation is "same-path" when the paths are identical, "merge" when the
    run extends past a single zone (the paths travel it in the same lane
    order), and "cross" for an isolated zone crossed transversally.
    """

    zones: tuple[int, ...]
    relation: str


class ZoneNetwork:
    """Immutable zone graph plus the movement table of all 30 paths."""

    def __init__(self, zones: dict[int, Zone], paths: dict[tuple[str, str], PathSpec], geometry: dict):
        self.zones = dict(zones)
        self._paths = dict(paths)
        self.geometry = dict(geometry)
        succ: dict[int, set[int]] = {z: set() for z in self.zones}
        for spec in self._paths.values():
            for a, b in zip(spec.zone_ids, spec.zone_ids[1:]):
                succ[a].add(b)
        self.successors = {z: tuple(sorted(s)) for z, s in succ.items()}

    @property
    def origins(self) -> tuple[str, ...]:
        return ORIGIN_ORDER

    def zone(self, zone_id: int) -> Zone:
        return self.zones[zone_id]

    def path_for(self, origin: str, movement: str) -> PathSpec:
        if movement == "through-through":
            movement = "through"
        try:
            return self._paths[(origin, movement)]
        except KeyError:
            raise KeyError(f"no path for origin {origin!r} movement {movement!r}") from None

    def all_paths(self) -> list[PathSpec]:
        return [self._paths[k] for k in sorted(self._paths)]

    def movements(self, origin: str) -> tuple[str, ...]:
        return tuple(m for (o, m) in sorted(self._paths) if o == origin)

    def to_json(self) -> dict:
        return {
            "geometry": self.geometry,
            "zones": [
                {"id": z.id, "length": z.length, "kind": z.kind, "merging_group": z.merging_group}
                for z in sorted(self.zones.values(), key=lambda z: z.id)
            ],
            "paths": [
                {
                    "origin": p.origin,
                    "movement": p.movement,
                    "zone_ids": list(p.zone_ids),
                    "seg_lengths": list(p.seg_lengths),
                }
                for p in self.all_paths()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ZoneNetwork":
        zones = {
            int(z["id"]): Zone(int(z["id"]), float(z["length"]), z["kind"], z.get("merging_group"))
            for z in data["zones"]
        }
        paths = {}
        for p in data["paths"]:
            spec = PathSpec(p["origin"], p["movement"], tuple(p["zone_ids"]), tuple(p["seg_lengths"]))
            paths[(spec.origin, spec.movement)] = spec
        return cls(zones, paths, dict(data.get("geometry", {})))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ZoneNetwork":
        return cls.from_json(json.loads(text))


def _turn_lengths(side: float, turn: str) -> tuple[float, ...]:
    """Traversal length inside each sub-zone cell for one turn movement.

    Cells have side `side`; lanes run at the quarter lines.  A through
    movement crosses each cell straight.  A right turn arcs on radius side/2
    within one cell.  A left turn arcs on radius 1.5*side across three cells,
    clipping the corner of the middle one.
    """
    if turn == "through":
        return (side, side)
    if turn == "right":
        return (math.pi * side / 4.0,)
    r = 1.5 * side
    a1 = math.asin(2.0 / 3.0)
    a2 = math.acos(2.0 / 3.0)
    return (r * a1, r * (a2 - a1), r * (math.pi / 2.0 - a2))


def _cross(node: str, heading: str, turn: str, side: float) -> tuple[tuple[int, ...], tuple[float, ...], str]:
    """Sub-zone ids and lengths for crossing one intersection; returns the
    outgoing heading as well."""
    seq = {"through": _THROUGH_SEQ, "left": _LEFT_SEQ, "right": _RIGHT_SEQ}[turn][heading]
    ids = tuple(_QUAD_IDS[node][q] for q in seq)
    out = {"through": heading, "left": _LEFT[heading], "right": _RIGHT[heading]}[turn]
    return ids, _turn_lengths(side, turn), out


def check_geometry(approach_length: float, link_length: float, merging_zone_side: float) -> None:
    """Raise ValueError unless build_network can lay out these lengths."""
    if approach_length <= 0 or merging_zone_side <= 0:
        raise ValueError("lengths must be positive")
    if link_length <= merging_zone_side:
        raise ValueError("link_length must exceed merging_zone_side")


def build_network(
    approach_length: float = 300.0,
    link_length: float = 100.0,
    merging_zone_side: float = 30.0,
) -> ZoneNetwork:
    """Construct the two-intersection corridor.

    approach_length is the clear length of every outer leg, link_length the
    distance between the merging-zone centers, merging_zone_side the side of
    each (square) merging zone.  The directed link zones span the clear road
    between the zone edges, link_length - merging_zone_side.
    """
    check_geometry(approach_length, link_length, merging_zone_side)
    side = merging_zone_side / 2.0
    link_clear = link_length - merging_zone_side

    zones: dict[int, Zone] = {}
    for node, quads in _QUAD_IDS.items():
        group = 1 if node == "A" else 2
        for q, zid in quads.items():
            zones[zid] = Zone(zid, side, KIND_SUBZONE, group)
    for origin, zid in _APPROACH_IDS.items():
        zones[zid] = Zone(zid, approach_length, KIND_APPROACH)
    for key, zid in _EXIT_IDS.items():
        zones[zid] = Zone(zid, approach_length, KIND_EXIT)
    for key, (zid, _dest) in _LINKS.items():
        zones[zid] = Zone(zid, link_clear, KIND_LINK)

    paths: dict[tuple[str, str], PathSpec] = {}
    for origin in ORIGIN_ORDER:
        node, heading = _ORIGINS[origin]
        approach = _APPROACH_IDS[origin]
        for turn1 in ("left", "right", "through"):
            ids1, lens1, out1 = _cross(node, heading, turn1, side)
            if (node, out1) in _EXIT_IDS:
                exit_id = _EXIT_IDS[(node, out1)]
                spec = PathSpec(
                    origin,
                    turn1,
                    (approach,) + ids1 + (exit_id,),
                    (approach_length,) + lens1 + (approach_length,),
                )
                paths[(origin, turn1)] = spec
                continue
            link_id, node2 = _LINKS[(node, out1)]
            for turn2 in ("left", "right", "through"):
                ids2, lens2, out2 = _cross(node2, out1, turn2, side)
                exit_id = _EXIT_IDS[(node2, out2)]
                name = "through" if (turn1, turn2) == ("through", "through") else f"{turn1}-{turn2}"
                spec = PathSpec(
                    origin,
                    name,
                    (approach,) + ids1 + (link_id,) + ids2 + (exit_id,),
                    (approach_length,) + lens1 + (link_clear,) + lens2 + (approach_length,),
                )
                paths[(origin, name)] = spec

    geometry = {
        "approach_length": approach_length,
        "link_length": link_length,
        "merging_zone_side": merging_zone_side,
    }
    return ZoneNetwork(zones, paths, geometry)


def conflict_runs(a: PathSpec, b: PathSpec) -> list[ConflictRun]:
    """Maximal shared-zone runs of path a against path b, in a's order.

    A run extends while the shared zones stay contiguous in both paths and in
    the same order; opposing-order overlaps (which the corridor geometry does
    not produce) fall apart into single-zone cross runs.
    """
    if a.zone_ids == b.zone_ids:
        return [ConflictRun(a.zone_ids, "same-path")]
    pos_b = {z: i for i, z in enumerate(b.zone_ids)}
    runs: list[ConflictRun] = []
    i, n = 0, len(a.zone_ids)
    while i < n:
        z = a.zone_ids[i]
        if z not in pos_b:
            i += 1
            continue
        j = pos_b[z]
        k = 1
        while i + k < n:
            nxt = a.zone_ids[i + k]
            if nxt not in pos_b or pos_b[nxt] != j + k:
                break
            k += 1
        runs.append(ConflictRun(a.zone_ids[i : i + k], "merge" if k > 1 else "cross"))
        i += k
    return runs
