"""Canonical zero-idle schedule (and packing) from a 3-Partition witness.

The layout is accumulated machine by machine rather than taken from closed
forms: each machine gets its job sequence from `reduction.CANONICAL_LAYOUT`
(the slot P_i filled with the i-th witness triple, sorted by value), and a
small event loop places the next job whose turn has come on all of its
machines at once, requiring that those machines agree on the time.
Agreement is guaranteed exactly because every witness triple sums to D; the
closed-form starts are derived elsewhere and the test suite checks the two
constructions coincide.
"""

from __future__ import annotations

from collections import deque

from .exactnum import require
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


class InvalidWitness(ValueError):
    pass


def _check_witness(inst: SchedulingInstance, witness: Partition) -> None:
    values = recover_values(inst)
    D = inst.D
    for triple in witness:
        if len(triple) == 3 and all(1 <= i <= 3 * inst.z for i in triple):
            total = sum(values.values[i - 1] for i in triple)
            if total != D:
                raise InvalidWitness(
                    f"triple {tuple(triple)} sums to {total}, expected {D}"
                )
    problems = validate_partition(values, witness)
    if problems:
        raise InvalidWitness(problems[0])


def build_schedule(inst: SchedulingInstance, witness: Partition) -> Schedule:
    """The canonical schedule realizing the witness.  Always feasible, with
    makespan exactly the target load and zero idle time."""
    if recognize(inst) is None:
        raise ValueError("build_schedule needs an unmodified reduction instance")
    _check_witness(inst, witness)

    values = recover_values(inst).values

    def ids(tag: str, i: int | None) -> list[str]:
        if tag != "P":
            return [inst.by_slot[tag, i].id]
        triple = sorted(witness[i - 1], key=lambda idx: (values[idx - 1], idx))
        return [inst.by_slot["P", idx].id for idx in triple]

    seq: dict[int, deque[str]] = {
        m: deque(jid for tag, i in canonical_slots(inst, m) for jid in ids(tag, i))
        for m in CANONICAL_LAYOUT
    }

    homes: dict[str, frozenset[int]] = {}
    for m, queue in seq.items():
        for job_id in queue:
            homes[job_id] = homes.get(job_id, frozenset()) | {m}
    wrong = [job.id for job in inst.jobs if len(homes[job.id]) != job.q]
    require(
        "the synthesized schedule",
        (not wrong, f"every job on q machines: {', '.join(wrong)}"),
    )

    clock = {m: 0 for m in seq}
    starts: dict[str, int] = {}
    agree = True
    remaining = sum(len(q) for q in seq.values())
    while remaining:
        placed = 0
        for m in seq:
            if not seq[m]:
                continue
            job_id = seq[m][0]
            mine = homes[job_id]
            if any(not seq[o] or seq[o][0] != job_id for o in mine):
                continue
            ticks = {clock[o] for o in mine}
            agree = agree and len(ticks) == 1
            t = ticks.pop()
            starts[job_id] = t
            for o in mine:
                seq[o].popleft()
                clock[o] += inst.by_id[job_id].p
            placed += len(mine)
        require(
            "the synthesized schedule",
            (placed, "placeable to the end (the sequences are inconsistent)"),
        )
        remaining -= placed

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
