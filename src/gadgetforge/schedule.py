"""Rigid multi-machine schedules: verification, counting, swaps, audit.

A schedule assigns every job a start time and a set of machines (the job
occupies all of them for its whole length).  The central accounting tool is
the finished-before count  #_i S = |{j in S : start(j) + p(j) <= start(i)}|,
where jobs finishing exactly at start(i) are counted.  Swapping the contents
of two machines after a time point changes machine sets but never start
times, so every identity phrased in counts and starts is preserved by such
swaps; that is what makes the audit below meaningful for arbitrary
relabelings of a zero-idle schedule.  A swap, and the time mirror too, map
the (machine, instant) cells one to one, so they keep what `verify` reports
(feasibility, makespan, idle; the mirror under the conditions it states)
and need no second verify; `swap_after` and `mirror` give the proofs.
Every swap is made by one step, `_Exchange`: `swap_after` makes one, and
extraction makes all of its swaps with it, each touching only the jobs on
exactly one of the two machines that start inside the swapped window.

The audit checks, at the start of every 2- and 3-machine job, that each
digit of the decomposed start time equals the number of finished jobs on
that machine from the families contributing that digit, plus the
cross-machine count chains of `reduction.COUNT_CHAINS`.  For a feasible
zero-idle schedule with the target makespan these are theorems; for
perturbed schedules the first violated check pinpoints what broke.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, le
from typing import Callable, Mapping, NamedTuple

from .exactnum import (
    InvalidInput, check_shape, decompose, digit_bound, dump_json, parse_int, reading,
)
from .reduction import (
    CHECKPOINT_TAGS,
    FAMILIES,
    SchedulingInstance,
    chain_values,
    check_instance,
    evaluate,
    recognize,
)

# Which job families contribute one unit to each audited digit of a start
# time: those whose length has digit 1 there, read off each length once, at
# the smallest valid parameters.  (The D^7 and unit digits are index- and
# value-dependent, so they are not audited digit-by-digit.)
_Z, _D = 1, digit_bound(1) + 1
_DIGITS = {
    tag: decompose(base + (FAMILIES[tag][1] or 0) * step, _Z, _D)
    for tag, (base, step) in evaluate(_Z, _D).lengths.items()
}
DIGIT_FAMILIES: dict[int, tuple[str, ...]] = {
    power: tuple(tag for tag, digits in _DIGITS.items() if digits.digit(power) == 1)
    for power in (2, 3, 4, 5, 6, 8)
}

# The kind of each digit's audit row, and the digits each family pays into.
_LOAD_KINDS = {power: f"load:x{power}" for power in DIGIT_FAMILIES}
_TAG_POWERS = {
    tag: tuple(power for power, tags in DIGIT_FAMILIES.items() if tag in tags)
    for families in DIGIT_FAMILIES.values()
    for tag in families
}


class CrossingJob(InvalidInput):
    """A job straddles the swap point on exactly one of the two machines."""

    def __init__(self, job_id: str, t: int, m1: int, m2: int):
        super().__init__(
            f"job {job_id} crosses t={t} on exactly one of machines "
            f"{m1}/{m2}; swapping would tear it"
        )


class NotTargetMakespan(InvalidInput):
    """The schedule does not even reach/hold the target load."""


@dataclass(frozen=True)
class Schedule:
    starts: Mapping[str, int]
    machines: Mapping[str, frozenset[int]]

    def to_json(self) -> str:
        payload = {
            "starts": {k: str(v) for k, v in self.starts.items()},
            "machines": {k: sorted(v) for k, v in self.machines.items()},
        }
        return dump_json(payload)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        with reading(text, "a schedule") as payload:
            starts = check_shape(payload["starts"], dict, "starts")
            machines = check_shape(payload["machines"], dict, "machines")
        return cls(
            starts={k: parse_int(v, "a start") for k, v in starts.items()},
            machines={k: _machine_set(k, v) for k, v in machines.items()},
        )


def _machine_set(job_id: str, token) -> frozenset[int]:
    """A job's machine list as a set; a list naming a machine twice raises
    InvalidInput, since a set would silently drop the repeat."""
    listed = [parse_int(m, "a machine") for m in check_shape(token, list, "machines")]
    used = frozenset(listed)
    if len(used) < len(listed):
        raise InvalidInput(f"job {job_id} names a machine twice: {listed}")
    return used


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    makespan: int
    idle: int
    contiguous: bool
    problems: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "makespan": str(self.makespan),
            "idle": str(self.idle),
            "contiguous": self.contiguous,
            "problems": list(self.problems),
        }


class AuditCheck(NamedTuple):
    """One audited identity: a digit of a checkpoint's start on one of its
    machines, a term of its count chain, or its decomposition.  A tuple, so
    a check is immutable, hashable and compared field by field."""

    checkpoint: str
    start: int
    machine: int | None
    kind: str
    expected: int | str
    observed: int | str
    ok: bool

    def to_dict(self) -> dict:
        return {
            "checkpoint": self.checkpoint,
            "start": str(self.start),
            "machine": self.machine,
            "kind": self.kind,
            "expected": str(self.expected),
            "observed": str(self.observed),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    checks: tuple[AuditCheck, ...]

    @cached_property
    def violations(self) -> tuple[AuditCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def first_violation(self) -> AuditCheck | None:
        return self.violations[0] if self.violations else None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": len(self.checks),
            "violations": [c.to_dict() for c in self.violations],
        }


def _check_job_universe(inst: SchedulingInstance, sched: Schedule) -> None:
    """Raise InvalidInput unless the schedule starts and places exactly the
    instance's jobs, each on machines in 1..m.  Both key views equal to the
    instance's ids and the union of the machine sets inside 1..m pass at
    once; any other schedule is walked job by job to name its first
    fault."""
    ids = inst.by_id.keys()
    if sched.starts.keys() == ids == sched.machines.keys():
        used = set().union(*sched.machines.values())
        if not used or (min(used) >= 1 and max(used) <= inst.m):
            return
    for job_id in sched.starts:
        if job_id not in inst.by_id:
            raise InvalidInput(f"schedule mentions unknown job {job_id!r}")
    for job in inst.jobs:
        if job.id not in sched.starts or job.id not in sched.machines:
            raise InvalidInput(f"job {job.id!r} is missing from the schedule")
    for job_id, machines in sched.machines.items():
        if job_id not in inst.by_id:
            raise InvalidInput(f"schedule mentions unknown job {job_id!r}")
        for m in machines:
            if not 1 <= m <= inst.m:
                raise InvalidInput(
                    f"job {job_id!r} uses machine {m}, valid range is "
                    f"1..{inst.m}"
                )


def _overlaps(inst: SchedulingInstance, sched: Schedule, m: int) -> list[str]:
    """The overlap problems of machine m: each pair of neighbours in
    (start, end, id) order that overlap."""
    starts, machines = sched.starts, sched.machines
    intervals = sorted(
        (starts[j.id], starts[j.id] + j.p, j.id)
        for j in inst.jobs if m in machines[j.id]
    )
    return [
        f"jobs {id1} and {id2} overlap on machine {m} ([{s1},{e1}) vs [{s2},{e2}))"
        for (s1, e1, id1), (s2, e2, id2) in zip(intervals, intervals[1:])
        if s2 < e1
    ]


def verify(inst: SchedulingInstance, sched: Schedule) -> VerifyReport:
    """Exact feasibility check: machine counts, overlaps, makespan, idle.

    Raises InvalidInput for jobs no instance can hold
    (`reduction.check_instance`) and for a schedule that does not match the
    instance (an unknown or missing job, a machine outside 1..m);
    everything else (overlaps, wrong machine multiplicity,
    negative starts) is reported as problems with feasible=False.

    One pass over the jobs collects each machine's starts and ends as two
    int columns, sorted separately.  The jobs on a machine are pairwise
    disjoint exactly when the k-th smallest end is at most the (k+1)-th
    smallest start for every k, because every length is at least 1.  If
    they are disjoint, their starts are distinct (two jobs starting
    together share their first instant) and each ends by the next start,
    so sorting by start sorts the ends too.  If two overlap, some instant
    x is inside both, so with a the number of starts at or before x, at
    most a - 2 ends lie at or before x, while the a-th smallest start is
    at most x: the (a-1)-th smallest end lies past it.  Only a machine
    that fails the test lists its jobs (`_overlaps`), to name each
    overlapping pair of neighbours in start order.
    """
    check_instance(inst)
    _check_job_universe(inst, sched)
    problems: list[str] = []
    starts, machines = sched.starts, sched.machines

    makespan = busy = 0
    begins: dict[int, list[int]] = defaultdict(list)
    ends: dict[int, list[int]] = defaultdict(list)
    for job in inst.jobs:
        start = starts[job.id]
        if start < 0:
            problems.append(f"job {job.id} starts at {start} < 0")
        used = machines[job.id]
        if len(used) != job.q:
            problems.append(
                f"job {job.id} occupies {len(used)} machines, needs {job.q}"
            )
        end = start + job.p
        if end > makespan:
            makespan = end
        busy += job.p * len(used)
        for m in used:
            begins[m].append(start)
            ends[m].append(end)

    for m in sorted(begins):
        column, finish = begins[m], ends[m]
        column.sort()
        finish.sort()
        if not all(map(le, finish, column[1:])):
            problems += _overlaps(inst, sched, m)

    # each distinct machine set is tested once
    contiguous = all(
        not ms or max(ms) - min(ms) + 1 == len(ms)
        for ms in set(machines.values())
    )
    return VerifyReport(
        feasible=not problems,
        makespan=makespan,
        idle=inst.m * makespan - busy,
        contiguous=contiguous,
        problems=tuple(problems),
    )


def finished_by_index(
    inst: SchedulingInstance, sched: Schedule
) -> Callable[[int, str], int]:
    """`finished(t, tag)`: how many jobs of family `tag` finish by t.

    The end times are sorted once per family, so each count is one
    `bisect_right`: jobs ending exactly at t count, as in the
    finished-before count defined above.  This is the one place the
    per-family end columns are built; the audit's chain terms and the
    extraction's separator counts both read them.
    """
    ends: dict[str, list[int]] = {}
    for job in inst.jobs:
        ends.setdefault(job.tag, []).append(sched.starts[job.id] + job.p)
    for column in ends.values():
        column.sort()

    def finished(t: int, tag: str) -> int:
        return bisect_right(ends.get(tag, ()), t)

    return finished


def swap_after(
    inst: SchedulingInstance, sched: Schedule, t: int, m1: int, m2: int
) -> Schedule:
    """Exchange the contents of two machines from time t onward.

    Start times never change.  Jobs ending by t are untouched; jobs starting
    at or after t trade m1 for m2 (those on both or neither keep their set);
    a job straddling t on exactly one of the two machines raises
    CrossingJob, because half a job cannot move.

    Past the crossing check, the swap keeps every fact `verify` reports on,
    for infeasible schedules too.  Let sigma map the cell (m, x) to itself
    for x < t, and exchange m1 and m2 for x >= t: a bijection on cells.
    Each job's new cells are the image under sigma of its old ones (before
    t nothing moves; from t on, a job on both or neither machine is mapped
    onto itself).  So every start stays, every job keeps its machine
    count, two jobs share a cell afterwards exactly when they did before,
    and the makespan and the busy area, hence the idle, stay.

    This checks the jobs (`reduction.check_instance`: every length at least 1,
    so a job that ends by t does not also start at or after t), m1, m2 and
    the job universe (`_check_job_universe`), then makes the swap with an
    `_Exchange`, which a caller that has already checked them, as
    extraction does at its gate, uses directly.
    """
    check_instance(inst)
    for m in (m1, m2):
        if not 1 <= m <= inst.m:
            raise InvalidInput(f"machine {m} out of 1..{inst.m}")
    _check_job_universe(inst, sched)
    exchange = _Exchange(inst, sched)
    exchange.swap(m1, m2, t)
    return exchange.schedule()


class _Exchange:
    """`swap_after` made in place on a copy of a schedule's machine sets,
    touching only the jobs that start inside each swap's window.

    `swap(m1, m2, *cuts)` does what `swap_after` on (m1, m2) does at each
    cut in turn: one cut is one swap, and two cuts, in either order,
    exchange the machines inside the window between them.  It skips
    `swap_after`'s input checks, for a schedule that passes them, and the
    schedule it makes passes them too, so swaps chain without a second
    check: its machine sets are keyed by the input's job ids, and each is
    the old one or the old one with m1 traded for m2 or m2 for m1.

    Only the movers, the jobs on exactly one of m1 and m2, can change
    machines or tear.  A swap on (m1, m2) keeps every mover on exactly one
    of the two, so the movers, sorted by start once, stay the movers until
    a swap on a different pair.  A mover that no cut tears moves once for
    each cut at or before its start, so only the movers that start at or
    past an odd number of cuts change machines: those inside the windows
    [c1, c2), [c3, c4), ... between the sorted cuts, the last one open
    when the cuts are odd in number.  A mover straddles t exactly when the
    latest end of the movers starting before t lies past t.  The crossing
    checks are the swaps' own, in their order, and name the first mover in
    instance order that straddles the cut, as `swap_after` does; a torn
    cut raises CrossingJob before any machine set changes.
    """

    def __init__(self, inst: SchedulingInstance, sched: Schedule):
        self.inst = inst
        self.sched = sched
        # the input's machine sets until the first swap copies them; the
        # swaps then rewrite the copy in place
        self.machines = sched.machines
        self.pair: frozenset[int] | None = None

    def _track(self, m1: int, m2: int) -> None:
        """Find the movers of (m1, m2), in instance order and by start, and
        the latest end of the first k of them by start, at k - 1."""
        starts, machines = self.sched.starts, self.machines
        self.movers = [
            j for j in self.inst.jobs
            if (m1 in machines[j.id]) != (m2 in machines[j.id])
        ]
        by_start = sorted(self.movers, key=lambda j: starts[j.id])
        self.order = [j.id for j in by_start]
        self.begins = [starts[j.id] for j in by_start]
        self.reach = list(accumulate((starts[j.id] + j.p for j in by_start), max))

    def _cut(self, t: int, m1: int, m2: int) -> None:
        """Raise CrossingJob when a mover straddles t."""
        k = bisect_left(self.begins, t)
        if k and self.reach[k - 1] > t:
            starts = self.sched.starts
            job = next(
                j for j in self.movers if starts[j.id] < t < starts[j.id] + j.p
            )
            raise CrossingJob(job.id, t, m1, m2)

    def swap(self, m1: int, m2: int, *cuts: int) -> None:
        """`swap_after` on (m1, m2) at each cut in turn."""
        if self.pair is None:
            self.machines = dict(self.machines)
        pair = frozenset((m1, m2))
        if pair != self.pair:
            self._track(m1, m2)
            self.pair = pair
        for t in cuts:
            self._cut(t, m1, m2)
        machines, order = self.machines, self.order
        bounds = [bisect_left(self.begins, t) for t in sorted(cuts)] + [len(order)]
        for lo, hi in zip(bounds[::2], bounds[1::2]):
            for i in order[lo:hi]:
                machines[i] = machines[i] ^ pair

    def schedule(self) -> Schedule:
        """The swapped schedule; the input itself when `swap` never ran."""
        if self.pair is None:
            return self.sched
        return Schedule(starts=dict(self.sched.starts), machines=dict(self.machines))


def mirror(inst: SchedulingInstance, sched: Schedule) -> Schedule:
    """Reverse time within the makespan w: start' = w - start - p.

    It maps the cell (m, x) to (m, w - 1 - x): every machine set stays,
    and two jobs share a cell afterwards exactly when they did before, so
    machine counts and overlaps stay.  No start becomes negative, as no
    job ends after w, and the earliest start e becomes a makespan w - e.
    So when e is 0, the window [0, w) is mapped onto itself: the
    makespan, the idle and feasibility stay, and a second mirror gives
    the input back.
    """
    _check_job_universe(inst, sched)
    width = max((sched.starts[j.id] + j.p for j in inst.jobs), default=0)
    starts = {job.id: width - sched.starts[job.id] - job.p for job in inst.jobs}
    return Schedule(starts=starts, machines=dict(sched.machines))


def audit(inst: SchedulingInstance, sched: Schedule) -> AuditReport:
    """Digit-level accounting of every 2- and 3-machine job's start time.

    Preconditions: `inst` must be a reduction instance, every job must be
    scheduled, and the schedule must have makespan W with zero arithmetic
    idle (InvalidInput otherwise).  Feasibility is deliberately not required:
    the counts are well defined even for overlapping schedules, which is
    what lets a perturbed schedule be audited and the first broken identity
    reported.

    Every count is a bisection in a column of end times sorted up front.
    The audit sorts one column per (digit power, machine), which merges
    the families of `DIGIT_FAMILIES[power]` that run on the machine; the
    per-family columns are those of `finished_by_index`.  `bisect_right`
    at the checkpoint's start counts exactly the jobs ending at or before
    it, which is the finished-before count defined above, so a
    `load:x<power>` row is one bisection and a chain term one bisection
    per family it names.  The rows are the same, in the same order, as
    scanning every job for every row.
    """
    if recognize(inst) is None:
        raise InvalidInput("audit requires an unmodified reduction instance")
    _check_job_universe(inst, sched)

    starts, machines = sched.starts, sched.machines
    makespan = max(starts[j.id] + j.p for j in inst.jobs)
    idle = inst.m * makespan - inst.total_work
    if makespan != inst.W or idle != 0:
        raise InvalidInput(
            f"makespan {makespan} with arithmetic idle {idle}; audit needs "
            f"makespan {inst.W} and zero idle"
        )

    finished = finished_by_index(inst, sched)
    by_digit: dict[tuple[int, int], list[int]] = {}
    for job in inst.jobs:
        end = starts[job.id] + job.p
        for power in _TAG_POWERS.get(job.tag, ()):
            for m in machines[job.id]:
                by_digit.setdefault((power, m), []).append(end)
    for column in by_digit.values():
        column.sort()

    checks: list[AuditCheck] = []
    checkpoints = sorted(
        (j for j in inst.jobs if j.tag in CHECKPOINT_TAGS),
        key=lambda j: (starts[j.id], j.id),
    )
    for job in checkpoints:
        start = starts[job.id]
        try:
            cv = decompose(start, inst.z, inst.D)
        except InvalidInput as exc:
            checks.append(
                AuditCheck(
                    job.id, start, None, "decompose", "clean decomposition",
                    str(exc), False,
                )
            )
            continue
        digits = [
            (power, _LOAD_KINDS[power], cv.digit(power)) for power in DIGIT_FAMILIES
        ]
        for m in sorted(machines[job.id]):
            for power, kind, expected in digits:
                observed = bisect_right(by_digit.get((power, m), ()), start)
                checks.append(
                    AuditCheck(
                        job.id, start, m, kind, expected, observed,
                        expected == observed,
                    )
                )
        values = chain_values(job.tag, lambda tag: finished(start, tag))
        (base, expected), *rest = values.items()
        for name, value in rest:
            checks.append(
                AuditCheck(
                    job.id, start, None, f"eq:{job.tag}[{base} = {name}]",
                    expected, value, expected == value,
                )
            )

    passed = all(map(attrgetter("ok"), checks))
    return AuditReport(passed=passed, checks=tuple(checks))
