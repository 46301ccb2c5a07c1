"""Canonical zero-idle schedule (and packing) from a 3-Partition witness.

The layout is accumulated machine by machine rather than taken from closed
forms: each machine gets its job sequence from `reduction.CANONICAL_LAYOUT`
(the slot P_i filled with the i-th witness triple, sorted by value) and runs
it back to back from 0, so a clock that adds each job's length gives every
start.  A job on several machines takes its start from the first of them,
and every other machine must agree: its clock must read the same time when
it reaches the job.  Agreement is guaranteed exactly because every witness
triple sums to D; the closed-form starts are derived elsewhere and the test
suite checks the two constructions coincide.

Agreement also rules out inconsistent sequences, so no separate check
looks for them.  If X ran before Y on one machine and Y before X on
another, agreement would need s_X + p_X <= s_Y and s_Y + p_Y <= s_X, which
no lengths of at least 1 allow; the same sum around a longer cycle of such
orders fails the same way.
"""

from __future__ import annotations

from .exactnum import InvalidInput, require
from .reduction import (
    CANONICAL_LAYOUT,
    SchedulingInstance,
    canonical_slots,
    recognize,
    recover_values,
)
from .schedule import Schedule, verify
from .strip import Packing, schedule_to_packing
from .threepartition import Partition, validate_partition


def _check_witness(inst: SchedulingInstance, witness: Partition) -> tuple:
    """Refuse a witness that is not a 3-Partition of the values `inst`
    encodes; returns those values."""
    values = recover_values(inst)
    D = inst.D
    for triple in witness:
        if len(triple) == 3 and all(1 <= i <= 3 * inst.z for i in triple):
            total = sum(values.values[i - 1] for i in triple)
            if total != D:
                raise InvalidInput(
                    f"triple {tuple(triple)} sums to {total}, expected {D}"
                )
    problems = validate_partition(values, witness)
    if problems:
        raise InvalidInput(problems[0])
    return values.values


def build_schedule(inst: SchedulingInstance, witness: Partition) -> Schedule:
    """The canonical schedule realizing the witness.  Always feasible, with
    makespan exactly the target load and zero idle time."""
    if recognize(inst) is None:
        raise InvalidInput("build_schedule needs an unmodified reduction instance")
    values = _check_witness(inst, witness)

    def ids(tag: str, i: int | None) -> list[str]:
        if tag != "P":
            return [inst.by_slot[tag, i].id]
        triple = sorted(witness[i - 1], key=lambda idx: (values[idx - 1], idx))
        return [inst.by_slot["P", idx].id for idx in triple]

    homes: dict[str, frozenset[int]] = {}
    starts: dict[str, int] = {}
    agree = True
    for m in CANONICAL_LAYOUT:
        clock = 0
        for tag, i in canonical_slots(inst, m):
            for job_id in ids(tag, i):
                homes[job_id] = homes.get(job_id, frozenset()) | {m}
                # not short-circuited: every later job still gets its start
                agree &= starts.setdefault(job_id, clock) == clock
                clock += inst.by_id[job_id].p
    wrong = [job.id for job in inst.jobs if len(homes[job.id]) != job.q]
    require(
        "the synthesized schedule",
        (not wrong, f"every job on q machines: {', '.join(wrong)}"),
    )

    sched = Schedule(starts=starts, machines=homes)
    report = verify(inst, sched)
    require(
        "the synthesized schedule",
        (agree, "one start per job on all its machines"),
        (report.feasible, "feasible"),
        (report.makespan == inst.W, f"makespan {inst.W}"),
        (report.idle == 0, "zero idle"),
    )
    return sched


def build_packing(strip: SchedulingInstance, witness: Partition) -> Packing:
    """Height-4 packing realizing the witness (schedule laid sideways)."""
    return schedule_to_packing(strip, build_schedule(strip, witness))
