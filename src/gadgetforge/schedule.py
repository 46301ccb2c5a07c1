"""Rigid multi-machine schedules: verification, counting, swaps, audit.

A schedule assigns every job a start time and a set of machines (the job
occupies all of them for its whole length).  The central accounting tool is
the finished-before count  #_i S = |{j in S : start(j) + p(j) <= start(i)}|,
where jobs finishing exactly at start(i) are counted.  Swapping the contents
of two machines after a time point changes machine sets but never start
times, so every identity phrased in counts and starts is preserved by such
swaps; that is what makes the audit below meaningful for arbitrary
relabelings of a zero-idle schedule.

The audit checks, at the start of every 2- and 3-machine job, that each
digit of the decomposed start time equals the number of finished jobs on
that machine from the families contributing that digit, plus the
cross-machine count chains of `reduction.COUNT_CHAINS`.  For a feasible
zero-idle schedule with the target makespan these are theorems; for
perturbed schedules the first violated check pinpoints what broke.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .exactnum import check_shape, decompose, parse_int
from .reduction import (
    CHECKPOINT_TAGS,
    SchedulingInstance,
    chain_values,
    check_jobs,
    recognize,
)

# Which job families contribute one unit to each audited digit of a start
# time.  (The D^7 and unit digits are index- and value-dependent, so they
# are not audited digit-by-digit.)
DIGIT_FAMILIES: dict[int, tuple[str, ...]] = {
    2: ("A", "beta", "lambda2"),
    3: ("B", "alpha", "lambda1"),
    4: ("a", "beta", "delta"),
    5: ("b", "alpha", "gamma"),
    6: ("a", "b"),
    8: ("c", "alpha", "beta", "lambda1", "lambda2"),
}


class UnknownJob(KeyError):
    pass


class MachineOutOfRange(ValueError):
    pass


class CrossingJob(ValueError):
    """A job straddles the swap point on exactly one of the two machines."""

    def __init__(self, job_id: str, t: int, m1: int, m2: int):
        self.job_id = job_id
        super().__init__(
            f"job {job_id} crosses t={t} on exactly one of machines "
            f"{m1}/{m2}; swapping would tear it"
        )


class NotZeroIdle(ValueError):
    pass


class NotTargetMakespan(ValueError):
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
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        payload = check_shape(json.loads(text), dict, "a schedule")
        starts = check_shape(payload["starts"], dict, "starts")
        machines = check_shape(payload["machines"], dict, "machines")
        return cls(
            starts={k: parse_int(v, "a start") for k, v in starts.items()},
            machines={
                k: frozenset(
                    [parse_int(m, "a machine") for m in check_shape(v, list, "machines")]
                )
                for k, v in machines.items()
            },
        )


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


@dataclass(frozen=True)
class AuditCheck:
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
    for job_id in sched.starts:
        if job_id not in inst.by_id:
            raise UnknownJob(f"schedule mentions unknown job {job_id!r}")
    for job in inst.jobs:
        if job.id not in sched.starts or job.id not in sched.machines:
            raise UnknownJob(f"job {job.id!r} is missing from the schedule")
    for job_id, machines in sched.machines.items():
        if job_id not in inst.by_id:
            raise UnknownJob(f"schedule mentions unknown job {job_id!r}")
        for m in machines:
            if not 1 <= m <= inst.m:
                raise MachineOutOfRange(
                    f"job {job_id!r} uses machine {m}, valid range is "
                    f"1..{inst.m}"
                )


def verify(inst: SchedulingInstance, sched: Schedule) -> VerifyReport:
    """Exact feasibility check: machine counts, overlaps, makespan, idle.

    Raises ValueError for jobs no instance can hold (`reduction.check_jobs`)
    and UnknownJob / MachineOutOfRange for a schedule that does not match
    the instance; everything else (overlaps, wrong machine multiplicity,
    negative starts) is reported as problems with feasible=False.
    """
    check_jobs(inst.jobs, inst.m)
    _check_job_universe(inst, sched)
    problems: list[str] = []

    makespan = 0
    for job in inst.jobs:
        start = sched.starts[job.id]
        if start < 0:
            problems.append(f"job {job.id} starts at {start} < 0")
        used = sched.machines[job.id]
        if len(used) != job.q:
            problems.append(
                f"job {job.id} occupies {len(used)} machines, needs {job.q}"
            )
        makespan = max(makespan, start + job.p)

    per_machine: dict[int, list[tuple[int, int, str]]] = {}
    for job in inst.jobs:
        start = sched.starts[job.id]
        for m in sched.machines[job.id]:
            per_machine.setdefault(m, []).append((start, start + job.p, job.id))

    busy = {}
    for m, intervals in sorted(per_machine.items()):
        intervals.sort()
        busy[m] = sum(end - start for start, end, _ in intervals)
        for (s1, e1, id1), (s2, e2, id2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                problems.append(
                    f"jobs {id1} and {id2} overlap on machine {m} "
                    f"([{s1},{e1}) vs [{s2},{e2}))"
                )

    idle = inst.m * makespan - sum(busy.values())
    contiguous = all(
        not ms or max(ms) - min(ms) + 1 == len(ms)
        for ms in sched.machines.values()
    )
    return VerifyReport(
        feasible=not problems,
        makespan=makespan,
        idle=idle,
        contiguous=contiguous,
        problems=tuple(problems),
    )


def finished_by_index(
    inst: SchedulingInstance, sched: Schedule
) -> Callable[..., int]:
    """`finished(t, tags, machine=None)`: how many jobs of the given families
    (only those running on `machine`, when one is given) finish by t.

    The end times are sorted once per (tag, machine) and per tag, so each
    count is one `bisect_right` per family: jobs ending exactly at t count,
    as in the finished-before count defined above.
    """
    ends: dict[tuple[str, int | None], list[int]] = {}
    for job in inst.jobs:
        end = sched.starts[job.id] + job.p
        for machine in (None, *sched.machines[job.id]):
            ends.setdefault((job.tag, machine), []).append(end)
    for column in ends.values():
        column.sort()

    def finished(t: int, tags: Iterable[str], machine: int | None = None) -> int:
        return sum(bisect_right(ends.get((tag, machine), ()), t) for tag in tags)

    return finished


def swap_after(
    inst: SchedulingInstance, sched: Schedule, t: int, m1: int, m2: int
) -> Schedule:
    """Exchange the contents of two machines from time t onward.

    Start times never change.  Jobs ending by t are untouched; jobs starting
    at or after t trade m1 for m2 (those on both or neither keep their set);
    a job straddling t on exactly one of the two machines raises
    CrossingJob, because half a job cannot move.
    """
    for m in (m1, m2):
        if not 1 <= m <= inst.m:
            raise MachineOutOfRange(f"machine {m} out of 1..{inst.m}")
    _check_job_universe(inst, sched)

    new_machines: dict[str, frozenset[int]] = {}
    for job in inst.jobs:
        used = sched.machines[job.id]
        start = sched.starts[job.id]
        on1, on2 = m1 in used, m2 in used
        if on1 == on2 or start + job.p <= t:
            new_machines[job.id] = used
        elif start >= t:
            swapped = (used - {m1, m2}) | ({m2} if on1 else {m1})
            new_machines[job.id] = frozenset(swapped)
        else:
            raise CrossingJob(job.id, t, m1, m2)
    return Schedule(starts=dict(sched.starts), machines=new_machines)


def mirror(
    inst: SchedulingInstance, sched: Schedule, width: int | None = None
) -> Schedule:
    """Reverse time: start' = width - start - p.  An involution that keeps
    feasibility, makespan, idle, and machine sets."""
    _check_job_universe(inst, sched)
    if width is None:
        width = max(
            (sched.starts[j.id] + j.p for j in inst.jobs), default=0
        )
    starts = {
        job.id: width - sched.starts[job.id] - job.p for job in inst.jobs
    }
    return Schedule(starts=starts, machines=dict(sched.machines))


def audit(inst: SchedulingInstance, sched: Schedule) -> AuditReport:
    """Digit-level accounting of every 2- and 3-machine job's start time.

    Preconditions: `inst` must be a reduction instance, every job must be
    scheduled, and the schedule must have makespan W with zero arithmetic
    idle (NotZeroIdle otherwise).  Feasibility is deliberately not required:
    the counts are well defined even for overlapping schedules, which is
    what lets a perturbed schedule be audited and the first broken identity
    reported.

    Every count is read from one `finished_by_index` built up front: the end
    times of each family, overall and per machine, are sorted once, and a
    bisection at the checkpoint's start counts exactly the jobs ending at or
    before it, which is the finished-before count defined above.  The rows
    are the same, in the same order, as scanning every job for every row;
    the cost is one sort plus one bisection per family per row.
    """
    if recognize(inst) is None:
        raise ValueError("audit requires an unmodified reduction instance")
    _check_job_universe(inst, sched)

    makespan = max(sched.starts[j.id] + j.p for j in inst.jobs)
    idle = inst.m * makespan - inst.total_work
    if makespan != inst.W or idle != 0:
        raise NotZeroIdle(
            f"makespan {makespan} with arithmetic idle {idle}; audit needs "
            f"makespan {inst.W} and zero idle"
        )

    finished = finished_by_index(inst, sched)
    checks: list[AuditCheck] = []
    checkpoints = sorted(
        (j for j in inst.jobs if j.tag in CHECKPOINT_TAGS),
        key=lambda j: (sched.starts[j.id], j.id),
    )
    for job in checkpoints:
        start = sched.starts[job.id]
        try:
            cv = decompose(start, inst.z, inst.D)
        except ValueError as exc:
            checks.append(
                AuditCheck(
                    checkpoint=job.id,
                    start=start,
                    machine=None,
                    kind="decompose",
                    expected="clean decomposition",
                    observed=str(exc),
                    ok=False,
                )
            )
            continue
        for m in sorted(sched.machines[job.id]):
            for power, families in DIGIT_FAMILIES.items():
                expected = cv.digit(power)
                observed = finished(start, families, machine=m)
                checks.append(
                    AuditCheck(
                        checkpoint=job.id,
                        start=start,
                        machine=m,
                        kind=f"load:x{power}",
                        expected=expected,
                        observed=observed,
                        ok=expected == observed,
                    )
                )
        checks.extend(_checkpoint_equations(job, start, finished))

    passed = all(c.ok for c in checks)
    return AuditReport(passed=passed, checks=tuple(checks))


def _checkpoint_equations(job, start, finished) -> list[AuditCheck]:
    """The checkpoint family's count chain, each term against the first."""
    values = chain_values(job.tag, lambda tag: finished(start, (tag,)))
    (base, expected), *rest = values.items()
    return [
        AuditCheck(
            checkpoint=job.id,
            start=start,
            machine=None,
            kind=f"eq:{job.tag}[{base} = {name}]",
            expected=expected,
            observed=value,
            ok=expected == value,
        )
        for name, value in rest
    ]
