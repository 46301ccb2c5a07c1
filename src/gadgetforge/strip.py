"""Strip packings of a scheduling instance, and the bridge to schedules.

A strip is a `SchedulingInstance` read sideways: each job is an
axis-aligned rectangle of width p (its length) and height q (its machine
count), packed without rotation into a strip of width W; `StripInstance`
is the same instance with the strip JSON keys.  A packing in which every
item sits at an integral y with total height 4 is exactly a
contiguous-machine schedule read sideways: machine k is the horizontal lane
[k-1, k).  `normalize` pushes any feasible packing down and left to a
fixpoint; coordinates become integral in the first sweep, so deciding
"height 4 or not" never needs real arithmetic.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactnum import InvalidInput, check_shape, dump_json, parse_int, reading, require
from .reduction import SchedulingInstance
from .schedule import Schedule, _check_job_universe

Coord = int | Fraction


@dataclass(frozen=True)
class Packing:
    positions: Mapping[str, tuple[Coord, Coord]]

    def to_json(self) -> str:
        payload: dict[str, list] = {}
        for item_id, (x, y) in self.positions.items():
            if y != int(y):
                raise InvalidInput(
                    f"item {item_id} has y={y}; serialized packings need "
                    "integral y"
                )
            payload[item_id] = [str(x), int(y)]
        return dump_json({"positions": payload})

    @classmethod
    def from_json(cls, text: str) -> "Packing":
        with reading(text, "a packing") as payload:
            listed = check_shape(payload["positions"], dict, "positions")
        positions = {}
        for item_id, xy in listed.items():
            if len(check_shape(xy, list, "a position")) != 2:
                raise InvalidInput(
                    f"the position of item {item_id!r} must be [x, y], not {xy!r:.60}"
                )
            x, y = xy
            positions[item_id] = (_parse_coord(x), parse_int(y, "y"))
        return cls(positions=positions)


def _parse_coord(token) -> Coord:
    """An integer (see `parse_int`) or a "p/q" string with q >= 1."""
    if type(token) is str and "/" in token:
        num, den = token.split("/", 1)
        den = parse_int(den, "the denominator of x")
        if den < 1:
            raise InvalidInput(f"x {token!r} needs a positive denominator")
        return Fraction(parse_int(num, "the numerator of x"), den)
    return parse_int(token, "x")


@dataclass(frozen=True)
class PackingReport:
    feasible: bool
    height: Coord
    free_area: Coord
    problems: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "height": str(self.height),
            "free_area": str(self.free_area),
            "problems": list(self.problems),
        }


def _check_item_universe(inst: SchedulingInstance, packing: Packing) -> None:
    for item_id in packing.positions:
        if item_id not in inst.by_id:
            raise InvalidInput(f"packing mentions unknown item {item_id!r}")
    for job in inst.jobs:
        if job.id not in packing.positions:
            raise InvalidInput(f"item {job.id!r} is missing from the packing")


def verify_packing(strip: SchedulingInstance, packing: Packing) -> PackingReport:
    """Exact overlap/bounds check.  An unknown or missing item and an item
    past the strip's width raise InvalidInput; overlaps and negative
    coordinates are reported as problems.

    Overlaps are found by a sweep in x: items are taken in (x, index) order,
    and a heap keyed by right edge holds the items still open.  Before an
    item is placed, every open item whose right edge is at or left of its x
    is closed, so the items left open are exactly those that overlap it in
    x (widths are at least 1, as `reduction.check_jobs` demands of every
    loaded instance), and only they are tested for vertical overlap.  The
    pairs are sorted by item index before they are reported, so `problems`
    lists them in the order of the pairwise test.  The cost is the sorting
    plus, per item, the items open at its left edge, which in a feasible
    packing of height H is at most H.
    """
    _check_item_universe(strip, packing)
    problems: list[str] = []

    items = strip.jobs
    boxes = [packing.positions[item.id] for item in items]
    for item, (x, y) in zip(items, boxes):
        if x + item.p > strip.W:
            raise InvalidInput(
                f"item {item.id} spans [{x}, {x + item.p}) in a strip of "
                f"width {strip.W}"
            )
        if x < 0:
            problems.append(f"item {item.id} has x={x} < 0")
        if y < 0:
            problems.append(f"item {item.id} has y={y} < 0")

    pairs: list[tuple[int, int]] = []
    open_items: list[tuple[Coord, int]] = []
    for k in sorted(range(len(items)), key=lambda k: boxes[k][0]):
        x, y = boxes[k]
        while open_items and open_items[0][0] <= x:
            heapq.heappop(open_items)
        top = y + items[k].q
        for _, o in open_items:
            oy = boxes[o][1]
            if oy < top and y < oy + items[o].q:
                pairs.append((o, k) if o < k else (k, o))
        heapq.heappush(open_items, (x + items[k].p, k))
    pairs.sort()
    problems += [f"items {items[i].id} and {items[j].id} overlap" for i, j in pairs]

    height = max((y + it.q for it, (_, y) in zip(items, boxes)), default=0)
    free_area = strip.W * height - strip.total_work
    return PackingReport(
        feasible=not problems,
        height=height,
        free_area=free_area,
        problems=tuple(problems),
    )


def normalize(strip: SchedulingInstance, packing: Packing) -> Packing:
    """Push every item down, then left, until nothing moves.

    Requires a feasible packing.  Items settle in deterministic (coordinate,
    other coordinate, id) order; each falls to the highest top of the
    already-settled items it overlaps horizontally (the floor otherwise),
    then slides against the rightmost edge of its vertical neighbors.  One
    down sweep makes all y integral and one left sweep all x, after which
    the coordinate sum is a strictly decreasing nonnegative integer, so the
    loop terminates.  The result never gets taller or feasibility-worse.

    A sweep keeps a skyline: sorted breakpoints `xs` on the other axis, and
    `hs[i]`, the highest settled edge over [xs[i], xs[i+1]).  An item's new
    edge is the maximum of `hs` over its span, found with two bisections,
    and placing it sets the span to edge + size.  That equals the highest
    edge of the settled items overlapping it on the other axis because:

    * the packing is feasible when a sweep starts, and items are visited in
      (coordinate, other, id) order, so a settled item that overlaps the
      current one on the other axis lay wholly before it and has only moved
      back: its settled edge is at most the current coordinate, and every
      such neighbour is one the item rests against, never one past it;
    * the level a placement assigns is at least every level it overwrites,
      so the skyline at each point is the maximum settled edge over it.

    The sweep leaves the packing feasible, as every later item settles at or
    past every earlier one it overlaps, so the next sweep may rely on it.

    Every coordinate a sweep assigns is a skyline level: 0, or a level plus
    an item's integer width or height.  The loop makes at least one down
    sweep and one left sweep, so every x and y it returns is an int, for
    Fraction inputs too, and no conversion follows.
    """
    report = verify_packing(strip, packing)
    if not report.feasible:
        raise InvalidInput(f"cannot normalize infeasible packing: {report.problems}")

    pos = {k: (x, y) for k, (x, y) in packing.positions.items()}

    def sweep(axis: int) -> bool:
        # axis 0: slide left (pack x against right edges)
        # axis 1: drop down (pack y against tops)
        moved = False
        order = sorted(
            strip.jobs,
            key=lambda it: (pos[it.id][axis], pos[it.id][1 - axis], it.id),
        )
        xs: list[Coord] = [0]
        hs: list[Coord] = [0]
        for item in order:
            x, y = pos[item.id]
            if axis == 1:
                coord, lo, hi, size = y, x, x + item.p, item.q
            else:
                coord, lo, hi, size = x, y, y + item.q, item.p
            a = bisect_right(xs, lo) - 1
            b = bisect_left(xs, hi)
            edge = max(hs[a:b])
            # [lo, hi) now stands at edge + size; past hi the old level
            # resumes, so hi becomes a breakpoint unless it is one already
            if b < len(xs) and xs[b] == hi:
                new_xs, new_hs = [lo], [edge + size]
            else:
                new_xs, new_hs = [lo, hi], [edge + size, hs[b - 1]]
            if xs[a] != lo:
                a += 1
            xs[a:b], hs[a:b] = new_xs, new_hs
            if edge < coord:
                moved = True
            pos[item.id] = (x, edge) if axis == 1 else (edge, y)
        return moved

    while True:
        dropped = sweep(1)
        slid = sweep(0)
        if not dropped and not slid:
            break

    result = Packing(positions=pos)
    after = verify_packing(strip, result)
    require(
        "the normalized packing",
        (after.feasible, "feasible"),
        (after.height <= report.height, f"at most {report.height} high"),
    )
    return result


def schedule_to_packing(inst: SchedulingInstance, sched: Schedule) -> Packing:
    """Lay a contiguous-machine schedule sideways: x = start, y = lowest
    machine - 1.  InvalidInput if the schedule does not place exactly the
    instance's jobs on its machines, or some job's machines are not q
    machines in an interval."""
    _check_job_universe(inst, sched)
    positions = {}
    for job in inst.jobs:
        machines = sched.machines[job.id]
        if len(machines) != job.q:
            raise InvalidInput(
                f"job {job.id} occupies {len(machines)} machines, needs {job.q}"
            )
        if max(machines) - min(machines) + 1 != len(machines):
            raise InvalidInput(
                f"job {job.id} occupies non-adjacent machines "
                f"{sorted(machines)}"
            )
        positions[job.id] = (sched.starts[job.id], min(machines) - 1)
    return Packing(positions=positions)


def packing_to_schedule(inst: SchedulingInstance, packing: Packing) -> Schedule:
    """Read a height-4 integral packing as a schedule: start x, machines
    y+1 .. y+q.  InvalidInput if x or y is not integral."""
    _check_item_universe(inst, packing)
    starts = {}
    machines = {}
    for job in inst.jobs:
        x, y = packing.positions[job.id]
        if x != int(x):
            raise InvalidInput(f"item {job.id} has x={x}")
        if y != int(y):
            raise InvalidInput(f"item {job.id} has y={y}")
        x, y = int(x), int(y)
        if y < 0:
            raise InvalidInput(f"item {job.id} sits below the strip at y={y}")
        if y + job.q > inst.m:
            raise InvalidInput(
                f"item {job.id} reaches height {y + job.q} > {inst.m}"
            )
        starts[job.id] = x
        machines[job.id] = frozenset(range(y + 1, y + job.q + 1))
    return Schedule(starts=starts, machines=machines)
