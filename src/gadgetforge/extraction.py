"""Recovering a 3-Partition witness from a target-makespan schedule.

The pipeline runs the uniqueness argument forwards as executable steps.  Each
step is either a start-preserving transformation (machine-content swaps, or a
time mirror) or a check on counts, contents, and exact job positions.  A
schedule that really is feasible at the target load passes every check, ends
up in the canonical shape, and yields its partition from the width-D gaps in
front of the late block separators.  A schedule that merely claims the target
trips a concrete check instead, and the failed check is returned as a
RefutationCertificate naming the violated identity.

Transformations never change start times, so a failing input cannot be
"repaired" into a passing one; the certificate is honest evidence that the
input was not a feasible zero-idle schedule at the target.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Mapping

from .reduction import (
    SchedulingInstance,
    canonical_ids,
    canonical_slots,
    chain_values,
    recognize,
    recover_values,
)
from .schedule import (  # NotTargetMakespan is re-exported
    CrossingJob,
    NotTargetMakespan,
    Schedule,
    finished_by_index,
    mirror,
    swap_after,
    verify,
)
from .threepartition import Partition, ThreePartitionInstance, validate_partition

MIDDLE = (2, 3)
SIDES = (1, 4)


class LemmaViolation(Exception):
    """A structural identity that every target schedule satisfies failed."""

    def __init__(self, stage: str, lemma: str, detail: str):
        super().__init__(f"[{stage}] {lemma}: {detail}")
        self.stage = stage
        self.lemma = lemma
        self.detail = detail


class RefutationCertificate(Exception):
    """Packaged LemmaViolation: proof the input was not a feasible
    zero-idle schedule at the target makespan."""

    def __init__(self, violation: LemmaViolation, events):
        super().__init__(str(violation))
        self.stage = violation.stage
        self.lemma = violation.lemma
        self.detail = violation.detail
        self.events = tuple(events)

    def to_dict(self) -> dict[str, Any]:
        return {
            "refuted": True,
            "stage": self.stage,
            "lemma": self.lemma,
            "detail": self.detail,
            "events": [dict(e) for e in self.events],
        }


@dataclass(frozen=True)
class ExtractionTrace:
    mirrored: bool
    events: tuple[Mapping[str, Any], ...]
    partition: Partition

    def to_dict(self) -> dict[str, Any]:
        return {
            "mirrored": self.mirrored,
            "events": [dict(e) for e in self.events],
            "partition": [list(s) for s in self.partition],
        }


def _health(inst: SchedulingInstance, sched: Schedule):
    r = verify(inst, sched)
    return r.feasible, r.makespan, r.idle


def _gate(inst: SchedulingInstance, sched: Schedule) -> tuple[bool, int, int]:
    """Admit a reduction instance and a schedule at its target makespan, and
    return the schedule's health (feasible, makespan, idle)."""
    if recognize(inst) is None:
        raise ValueError("extraction needs an unmodified reduction instance")
    feasible, makespan, idle = _health(inst, sched)
    if makespan != inst.W:
        raise NotTargetMakespan(f"makespan {makespan} differs from target {inst.W}")
    return feasible, makespan, idle


def _ids(inst: SchedulingInstance, *tags: str) -> frozenset[str]:
    return frozenset(j.id for j in inst.tagged(*tags))


def _on_machine(inst: SchedulingInstance, sched: Schedule, m: int) -> list[str]:
    return sorted(
        (j.id for j in inst.jobs if m in sched.machines[j.id]),
        key=lambda i: (sched.starts[i], i),
    )


def _tiling_break(inst: SchedulingInstance, sched: Schedule, m: int) -> str | None:
    cursor = 0
    for job_id in _on_machine(inst, sched, m):
        if sched.starts[job_id] != cursor:
            return f"machine {m}: {job_id} starts at {sched.starts[job_id]}, hole ends {cursor}"
        cursor += inst.by_id[job_id].p
    if cursor != inst.W:
        return f"machine {m}: load {cursor} != {inst.W}"
    return None


def normalize_machines(
    inst: SchedulingInstance, sched: Schedule, log: list | None = None
) -> Schedule:
    """Swap machine contents until machine 1 carries the early side family,
    machine 4 the late side family, and both middle machines carry every
    three-machine separator.  Start times are untouched."""
    return _normalize_machines(inst, sched, _gate(inst, sched), log)


def _normalize_machines(
    inst: SchedulingInstance,
    sched: Schedule,
    health: tuple[bool, int, int],
    log: list | None,
) -> Schedule:
    """`normalize_machines` past the gate, which returned `health`."""
    stage = "normalize"
    events = log if log is not None else []

    for job in inst.jobs:
        if len(sched.machines[job.id]) != job.q:
            raise LemmaViolation(
                stage, "rigid-width", f"{job.id} occupies {sorted(sched.machines[job.id])}"
            )

    def do_swap(t: int, m1: int, m2: int) -> Schedule:
        nonlocal health
        try:
            out = swap_after(inst, sched, t, m1, m2)
        except CrossingJob as exc:
            raise LemmaViolation(stage, "swap-crossing", str(exc)) from exc
        assert _health(inst, out) == health
        events.append(
            {"stage": stage, "event": "swap", "t": str(t), "machines": [m1, m2]}
        )
        return out

    # walk the three-machine separators in start order; whichever middle
    # machine the next one misses gets the previous one's side content
    seps = sorted(_ids(inst, "A", "B"), key=lambda i: (sched.starts[i], i))
    prev = None
    for k, x in enumerate(seps):
        rho = sched.machines[x]
        missing = next(iter({1, 2, 3, 4} - rho))
        if missing in MIDDLE:
            if k == 0:
                partner, t = min(rho & set(SIDES)), 0
            else:
                side = sched.machines[prev] - set(MIDDLE)
                if len(side) != 1:
                    raise LemmaViolation(
                        stage, "separator-spread", f"{prev} lost its side machine"
                    )
                partner, t = next(iter(side)), sched.starts[prev]
                prev_end = sched.starts[prev] + inst.by_id[prev].p
                if sched.starts[x] < prev_end:
                    raise LemmaViolation(
                        stage, "separator-overlap", f"{prev} and {x} run concurrently"
                    )
            sched = do_swap(t, partner, missing)
        prev = x

    lam_home = next(iter(sched.machines["lambda1"]))
    if lam_home in MIDDLE:
        raise LemmaViolation(
            stage, "machine-contents", "the opening cap sits on a middle machine"
        )
    if lam_home == 4:
        sched = do_swap(0, 1, 4)

    on = {m: set(_on_machine(inst, sched, m)) for m in (1, 2, 3, 4)}
    want_1, want_4 = canonical_ids(inst, 1), canonical_ids(inst, 4)
    backbone = canonical_ids(inst, 2) & canonical_ids(inst, 3)
    problems = []
    if on[1] != want_1:
        problems.append(f"machine 1 holds {sorted(on[1] ^ want_1)} unexpectedly")
    if on[4] != want_4:
        problems.append(f"machine 4 holds {sorted(on[4] ^ want_4)} unexpectedly")
    for m in MIDDLE:
        if not backbone <= on[m]:
            problems.append(f"machine {m} misses {sorted(backbone - on[m])}")
    for m in MIDDLE:
        la, lg = len(on[m] & _ids(inst, "a")), len(on[m] & _ids(inst, "gamma"))
        lb, ld = len(on[m] & _ids(inst, "b")), len(on[m] & _ids(inst, "delta"))
        if la != lg or lb != ld:
            problems.append(
                f"machine {m} pairs a/gamma {la}/{lg} and b/delta {lb}/{ld}"
            )
        if la + lb != inst.z:
            problems.append(f"machine {m} holds {la + lb} narrow-pair jobs, not z")
    if problems:
        raise LemmaViolation(stage, "machine-contents", "; ".join(problems))
    events.append({"stage": stage, "event": "ok"})
    return sched


def orient(
    inst: SchedulingInstance, sched: Schedule, log: list | None = None
) -> Schedule:
    """Mirror the schedule when it runs backwards, so that a late-family
    separator opens machine 2.  Assumes normalized machine contents."""
    events = log if log is not None else []
    front = _on_machine(inst, sched, 2)
    if not front:
        raise LemmaViolation("orient", "first-job", "machine 2 is empty")
    first = inst.by_id[front[0]]
    if first.tag == "A":
        sched = mirror(inst, sched, inst.W)
        events.append({"stage": "orient", "event": "mirror"})
        return sched
    if first.tag != "B":
        raise LemmaViolation(
            "orient", "first-job", f"machine 2 opens with {first.id} (q={first.q})"
        )
    events.append({"stage": "orient", "event": "ok"})
    return sched


def check_alternation(
    inst: SchedulingInstance, sched: Schedule
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The separator families must interleave strictly, late family first,
    and the finished-job counts at each separator must match its rank."""
    stage = "alternation"
    a_seq = sorted(_ids(inst, "A"), key=lambda i: (sched.starts[i], i))
    b_seq = sorted(_ids(inst, "B"), key=lambda i: (sched.starts[i], i))
    for i in range(len(a_seq)):
        if not sched.starts[b_seq[i]] < sched.starts[a_seq[i]]:
            raise LemmaViolation(
                stage, "interleaving", f"rank {i}: {a_seq[i]} precedes {b_seq[i]}"
            )
        if i + 1 < len(b_seq) and not sched.starts[a_seq[i]] < sched.starts[b_seq[i + 1]]:
            raise LemmaViolation(
                stage, "interleaving", f"rank {i}: {b_seq[i + 1]} precedes {a_seq[i]}"
            )
    finished = finished_by_index(inst, sched)
    for i, anchor in enumerate(a_seq):
        t = sched.starts[anchor]
        lam = finished(t, ("lambda1",))
        if lam != 1:
            raise LemmaViolation(
                stage, "separator-counts", f"{anchor}: opening cap count {lam} != 1"
            )
        if finished(t, ("A",)) != i:
            raise LemmaViolation(stage, "separator-counts", f"{anchor}: own rank != {i}")
        if finished(t, ("B",)) != i + 1:
            raise LemmaViolation(
                stage, "separator-counts", f"{anchor}: opposite rank != {i + 1}"
            )
    for i, anchor in enumerate(b_seq):
        t = sched.starts[anchor]
        if finished(t, ("B",)) != i or finished(t, ("A",)) != i:
            raise LemmaViolation(stage, "separator-counts", f"{anchor}: rank != {i}")
    return tuple(a_seq), tuple(b_seq)


def _check_count_equations(inst, sched, a_seq, b_seq) -> None:
    """The separators' count chains (`COUNT_CHAINS["A"]` and `["B"]`),
    plus the trailing-cap rule: the closing cap finishes after every late
    separator.

    `check_alternation` has already pinned, at the i-th early separator,
    one finished opening cap, i finished early and i+1 finished late
    separators, and at the i-th late separator i finished of each; the
    trailing-cap rule pins the closing cap at 0 there.  With those counts
    fixed, a chain holds exactly when every term of it equals i."""
    stage = "count-equations"
    finished = finished_by_index(inst, sched)

    def broken(anchor: str) -> str | None:
        t = sched.starts[anchor]
        values = chain_values(inst.by_id[anchor].tag, lambda tag: finished(t, (tag,)))
        if len(set(values.values())) == 1:
            return None
        return f"{anchor}: " + ", ".join(f"{k} = {v}" for k, v in values.items())

    for anchor in a_seq:
        if detail := broken(anchor):
            raise LemmaViolation(stage, "early-separator-chain", detail)
    for anchor in b_seq:
        if finished(sched.starts[anchor], ("lambda2",)) != 0:
            raise LemmaViolation(
                stage, "trailing-cap", f"closing cap finishes before {anchor}"
            )
        if detail := broken(anchor):
            raise LemmaViolation(stage, "late-separator-chain", detail)


def _check_side_orders(inst, sched) -> tuple[dict, dict]:
    """Machines 1 and 4 must run their fixed tag patterns back to back.
    Returns each side machine's jobs keyed by canonical (tag, index) slot."""
    stage = "side-order"
    keyed = []
    for m in SIDES:
        on, slots = _on_machine(inst, sched, m), canonical_slots(m, inst.z)
        got = [inst.by_id[i].tag for i in on]
        if got != [tag for tag, _ in slots]:
            raise LemmaViolation(stage, "side-order", f"machine {m} runs {got}")
        keyed.append(dict(zip(slots, on)))
    for m in SIDES:
        broken = _tiling_break(inst, sched, m)
        if broken:
            raise LemmaViolation(stage, "zero-idle", broken)
    return keyed[0], keyed[1]


def _check_fillers(inst, sched, a_seq, b_seq) -> None:
    """Exactly one two-machine filler bridges each late separator to the
    following early one, and its length matches the gap exactly."""
    stage = "filler-fit"
    p_b = inst.by_slot["B", 0].p
    fillers: dict[int, list] = {}
    for job in inst.tagged("c"):
        fillers.setdefault(sched.starts[job.id], []).append(job)
    for i in range(inst.z + 1):
        t = sched.starts[b_seq[i]] + p_b
        hits = fillers.get(t, [])
        if len(hits) != 1:
            raise LemmaViolation(
                stage, "filler-fit", f"{len(hits)} fillers start at {t} after {b_seq[i]}"
            )
        gap = sched.starts[a_seq[i]] - t
        if hits[0].p != gap:
            raise LemmaViolation(
                stage, "filler-fit", f"{hits[0].id} is {hits[0].p} long, gap is {gap}"
            )


def _make_pairs_contiguous(inst, sched, m1, m4, health, events) -> Schedule:
    """Between consecutive separators, route the early narrow pair through
    machine 2 and the late one through machine 3 by swapping the middle
    machines' contents inside the block window.  `health` is the
    schedule's, which every swap must keep."""
    stage = "pair-columns"
    for i in range(1, inst.z + 1):
        a_i, b_i = m1["a", i], m4["b", i]
        sa = sched.machines[a_i] - {1}
        sb = sched.machines[b_i] - {4}
        if sa == sb:
            raise LemmaViolation(
                stage, "pair-columns", f"{a_i} and {b_i} share machine {sorted(sa)}"
            )
        if sa == {3}:
            t1, t2 = sched.starts[m1["A", i - 1]], sched.starts[m4["B", i]]
            try:
                sched = swap_after(inst, sched, t1, 2, 3)
                sched = swap_after(inst, sched, t2, 2, 3)
            except CrossingJob as exc:
                raise LemmaViolation(stage, "swap-crossing", str(exc)) from exc
            assert _health(inst, sched) == health
            for t in (t1, t2):
                events.append(
                    {"stage": stage, "event": "swap", "t": str(t), "machines": [2, 3]}
                )
    want_2, want_3 = canonical_ids(inst, 2), canonical_ids(inst, 3)
    on_2 = set(_on_machine(inst, sched, 2))
    on_3 = set(_on_machine(inst, sched, 3))
    if on_2 != want_2 or on_3 != want_3:
        raise LemmaViolation(
            stage,
            "pair-columns",
            f"middle contents off by {sorted(on_2 ^ want_2)} / {sorted(on_3 ^ want_3)}",
        )
    events.append({"stage": stage, "event": "ok"})
    return sched


def _read_partition(inst, sched, m1, m4) -> Partition:
    """Each narrow window leaves exactly D free in front of its late
    separator; the single-machine value jobs tiling it form one triple."""
    stage = "gap-readout"
    values = sorted(inst.tagged("P"), key=lambda j: sched.starts[j.id])
    value_starts = [sched.starts[j.id] for j in values]
    sets = []
    for i in range(1, inst.z + 1):
        a_i = m1["a", i]
        edge = sched.starts[a_i] + inst.by_id[a_i].p
        hi = sched.starts[m4["B", i]]
        g = inst.by_slot["gamma", i]
        if 2 not in sched.machines[g.id] or not edge <= sched.starts[g.id] <= hi - g.p:
            raise LemmaViolation(
                stage, "narrow-window", f"{g.id} is outside the window after {a_i}"
            )
        assert hi - edge == g.p + inst.D
        # The filler may sit anywhere inside the window; the value jobs tile
        # whatever it leaves on either side.
        inside = values[bisect_left(value_starts, edge) : bisect_left(value_starts, hi)]
        occupants = sorted([g, *inside], key=lambda j: sched.starts[j.id])
        cursor, members = edge, []
        for j in occupants:
            if sched.starts[j.id] != cursor or 2 not in sched.machines[j.id]:
                raise LemmaViolation(
                    stage, "gap-tiling", f"{j.id} misplaced inside gap {i}"
                )
            cursor += j.p
            if j.tag == "P":
                members.append(j.index)
        if cursor != hi:
            raise LemmaViolation(stage, "gap-tiling", f"gap {i} ends short at {cursor}")
        sets.append(tuple(sorted(members)))
    return tuple(sorted(sets))


def extract_partition(
    inst3p: ThreePartitionInstance, inst: SchedulingInstance, sched: Schedule
) -> tuple[Partition, ExtractionTrace]:
    """Full pipeline: normalize, orient, check the order structure, make the
    narrow pairs contiguous, and read the partition out of the gaps.

    Raises UnknownJob or MachineOutOfRange when the schedule does not fit
    the instance, NotTargetMakespan when it misses the target load, and
    RefutationCertificate when it holds the target but violates one of the
    structural identities (i.e. it was never feasible)."""
    if recover_values(inst).values != inst3p.values:
        raise ValueError("scheduling instance does not encode the given values")
    health = _gate(inst, sched)
    events: list[dict[str, Any]] = []
    try:
        sched = _normalize_machines(inst, sched, health, events)
        sched = orient(inst, sched, log=events)
        mirrored = events[-1]["event"] == "mirror"
        if mirrored:  # the mirror of a schedule with a start below 0 ends past W
            health = _health(inst, sched)
        a_seq, b_seq = check_alternation(inst, sched)
        events.append({"stage": "alternation", "event": "ok"})
        _check_count_equations(inst, sched, a_seq, b_seq)
        m1, m4 = _check_side_orders(inst, sched)
        _check_fillers(inst, sched, a_seq, b_seq)
        sched = _make_pairs_contiguous(inst, sched, m1, m4, health, events)
        # machine 2 needs no tiling check: every job on it is position-pinned
        # by the side orders, the filler fits, and the gap readout below
        broken = _tiling_break(inst, sched, 3)
        if broken:
            raise LemmaViolation("zero-idle", "zero-idle", broken)
        partition = _read_partition(inst, sched, m1, m4)
    except LemmaViolation as violation:
        raise RefutationCertificate(violation, events) from violation
    assert validate_partition(inst3p, partition) == []
    events.append({"stage": "gap-readout", "event": "ok"})
    return partition, ExtractionTrace(
        mirrored=mirrored, events=tuple(events), partition=partition
    )
