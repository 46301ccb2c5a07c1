"""Recovering a 3-Partition witness from a target-makespan schedule.

The pipeline runs the uniqueness argument forwards as executable steps.  Each
step is either a transformation that only relabels (machine, instant) cells
(machine-content swaps, or a time mirror) or a check on counts, contents,
and exact job positions.  A schedule that really is feasible at the target
load passes every check, ends up in the canonical shape, and yields its
partition from the width-D gaps in front of the late block separators.  A
schedule that merely claims the target trips a concrete check instead, and
the failed check is returned as a RefutationCertificate naming the violated
identity.

The input is checked once, at the gate that `schedule.audit` also uses: a
reduction instance, a schedule of exactly its jobs on its machines, and
makespan W.  Nothing is re-verified after that.  As `schedule.swap_after`
and `schedule.mirror` prove, the transformed schedule keeps the input's
machine counts and overlaps, and its makespan and idle too, except that
the mirror of an input whose earliest start is not 0 ends away from W.  So
a failing input cannot be "repaired" into a passing one, and the lemmas
alone decide refutation: the certificate is honest evidence that the input
was not a feasible zero-idle schedule at the target.  The job universe is
checked at the gate only: normalization and the pair columns make their
swaps with `schedule._Exchange`, which skips that check and proves that
its output passes it again, as every machine a swap names lies in 1..4,
the m of a reduction instance.  An exchange copies the machine sets at
its first swap, so an input that needs no swap costs none.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Mapping

from .exactnum import InvalidInput, require
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
    _check_job_universe,
    _Exchange,
    finished_by_index,
    mirror,
)
from .threepartition import Partition, ThreePartitionInstance, validate_partition

MIDDLE = (2, 3)
SIDES = (1, 4)


class RefutationCertificate(Exception):
    """A structural identity that every target schedule satisfies failed:
    proof the input was not a feasible zero-idle schedule at the target
    makespan.  A stage raises it with no `events`; `extract_partition`
    sets them to the events logged before the failing check."""

    def __init__(self, stage: str, lemma: str, detail: str):
        super().__init__(f"[{stage}] {lemma}: {detail}")
        self.stage = stage
        self.lemma = lemma
        self.detail = detail
        self.events: tuple[Mapping[str, Any], ...] = ()

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


# how wide the window of each narrow pair must be
_WINDOW_WIDTH = "a window of its gamma job's length plus D"


def _gate(inst: SchedulingInstance, sched: Schedule) -> None:
    """Admit a reduction instance and a schedule of exactly its jobs, on
    its machines, at its target makespan."""
    if recognize(inst) is None:
        raise InvalidInput("extraction needs an unmodified reduction instance")
    _check_job_universe(inst, sched)
    makespan = max(sched.starts[j.id] + j.p for j in inst.jobs)
    if makespan != inst.W:
        raise NotTargetMakespan(f"makespan {makespan} differs from target {inst.W}")


def _ids(inst: SchedulingInstance, *tags: str) -> frozenset[str]:
    return frozenset(j.id for j in inst.tagged(*tags))


def _lanes(inst: SchedulingInstance, sched: Schedule) -> dict[int, list[str]]:
    """Each machine's jobs in (start, id) order, from one sort of the jobs
    and one pass over them.  Built once for each schedule the pipeline
    holds: only a swap or the mirror makes a new one."""
    lanes: dict[int, list[str]] = defaultdict(list)
    for job in sorted(inst.jobs, key=lambda j: (sched.starts[j.id], j.id)):
        for m in sched.machines[job.id]:
            lanes[m].append(job.id)
    return lanes


def _tiling_break(
    inst: SchedulingInstance, sched: Schedule, lane: list[str], m: int
) -> str | None:
    """Why machine m, running `lane`, is not tiled from 0 to W, or None.

    Only the starts are checked.  This runs on machines 1, 4 and 3 alone,
    each after its job set has been checked equal to `canonical_ids(m)`,
    and those jobs tile [0, W) in the canonical schedule, so their lengths
    sum to W: a lane whose every job starts where the one before it ends
    ends at W."""
    cursor = 0
    for job_id in lane:
        if sched.starts[job_id] != cursor:
            return f"machine {m}: {job_id} starts at {sched.starts[job_id]}, hole ends {cursor}"
        cursor += inst.by_id[job_id].p
    return None


def _swap(
    exchange: _Exchange, stage: str, events: list, m1: int, m2: int, *cuts: int
) -> None:
    """Swap the contents of machines m1 and m2 at each cut in turn, and log
    each swap.  A job a cut tears is the stage's swap-crossing refutation,
    and then no swap is logged."""
    try:
        exchange.swap(m1, m2, *cuts)
    except CrossingJob as exc:
        raise RefutationCertificate(stage, "swap-crossing", str(exc)) from exc
    for t in cuts:
        events.append({"stage": stage, "event": "swap", "t": str(t), "machines": [m1, m2]})


def normalize_machines(inst: SchedulingInstance, sched: Schedule) -> Schedule:
    """Swap machine contents until machine 1 carries the early side family,
    machine 4 the late side family, and both middle machines carry every
    three-machine separator.  Start times are untouched.  A failed check
    raises a RefutationCertificate with no events."""
    _gate(inst, sched)
    return _normalize_machines(inst, sched, [])[0]


def _normalize_machines(
    inst: SchedulingInstance, sched: Schedule, events: list
) -> tuple[Schedule, dict[int, list[str]]]:
    """`normalize_machines` past the gate, logging to `events`; also
    returns the normalized schedule's `_lanes`."""
    stage = "normalize"

    for job in inst.jobs:
        if len(sched.machines[job.id]) != job.q:
            raise RefutationCertificate(
                stage, "rigid-width", f"{job.id} occupies {sorted(sched.machines[job.id])}"
            )

    # walk the three-machine separators in start order; whichever middle
    # machine the next one misses gets the previous one's side content
    seps = sorted(_ids(inst, "A", "B"), key=lambda i: (sched.starts[i], i))
    exchange = _Exchange(inst, sched)
    prev = None
    for k, x in enumerate(seps):
        rho = exchange.machines[x]
        missing = next(iter({1, 2, 3, 4} - rho))
        if missing in MIDDLE:
            if k == 0:
                partner, t = min(rho & set(SIDES)), 0
            else:
                side = exchange.machines[prev] - set(MIDDLE)
                if len(side) != 1:
                    raise RefutationCertificate(
                        stage, "separator-spread", f"{prev} lost its side machine"
                    )
                partner, t = next(iter(side)), sched.starts[prev]
                prev_end = sched.starts[prev] + inst.by_id[prev].p
                if sched.starts[x] < prev_end:
                    raise RefutationCertificate(
                        stage, "separator-overlap", f"{prev} and {x} run concurrently"
                    )
            _swap(exchange, stage, events, partner, missing, t)
        prev = x

    lam_home = next(iter(exchange.machines["lambda1"]))
    if lam_home in MIDDLE:
        raise RefutationCertificate(
            stage, "machine-contents", "the opening cap sits on a middle machine"
        )
    if lam_home == 4:
        _swap(exchange, stage, events, 1, 4, 0)

    sched = exchange.schedule()
    lanes = _lanes(inst, sched)
    on = {m: set(lanes[m]) for m in (1, 2, 3, 4)}
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
        tags = Counter(inst.by_id[i].tag for i in lanes[m])
        la, lg, lb, ld = (tags[tag] for tag in ("a", "gamma", "b", "delta"))
        if la != lg or lb != ld:
            problems.append(
                f"machine {m} pairs a/gamma {la}/{lg} and b/delta {lb}/{ld}"
            )
        if la + lb != inst.z:
            problems.append(f"machine {m} holds {la + lb} narrow-pair jobs, not z")
    if problems:
        raise RefutationCertificate(stage, "machine-contents", "; ".join(problems))
    events.append({"stage": stage, "event": "ok"})
    return sched, lanes


def _orient(
    inst: SchedulingInstance, sched: Schedule, front: list[str], events: list
) -> tuple[Schedule, bool]:
    """Mirror the schedule when it runs backwards, so that a late-family
    separator opens machine 2, given machine 2's jobs in start order.
    Returns the schedule and whether it was mirrored.

    `front` is never empty: normalization has checked that machine 2 holds
    the backbone `canonical_ids(2) & canonical_ids(3)`, every separator
    among it."""
    first = inst.by_id[front[0]]
    if first.tag == "A":
        events.append({"stage": "orient", "event": "mirror"})
        return mirror(inst, sched), True
    if first.tag != "B":
        raise RefutationCertificate(
            "orient", "first-job", f"machine 2 opens with {first.id} (q={first.q})"
        )
    events.append({"stage": "orient", "event": "ok"})
    return sched, False


def _check_alternation(inst, sched, finished) -> tuple[tuple, tuple]:
    """The separator families must interleave strictly, late family first,
    and the finished-job counts at each separator must match its rank,
    counted through the schedule's `finished`.  Returns the early and the
    late separators in start order.

    At the late separator B_i only the early count is tested, as the
    interleaving and the test at A_{i-1} fix the late one: A_{i-1} starts
    before B_i with i late separators finished, which can only be
    B_0 .. B_{i-1}, the ones that start before it, and every later one
    starts at or after B_i, so exactly i have finished at B_i (none at
    B_0).  A_{i-1} may still run at B_i, so its count stays."""
    stage = "alternation"
    a_seq = sorted(_ids(inst, "A"), key=lambda i: (sched.starts[i], i))
    b_seq = sorted(_ids(inst, "B"), key=lambda i: (sched.starts[i], i))
    for i in range(len(a_seq)):
        if not sched.starts[b_seq[i]] < sched.starts[a_seq[i]]:
            raise RefutationCertificate(
                stage, "interleaving", f"rank {i}: {a_seq[i]} precedes {b_seq[i]}"
            )
        if i + 1 < len(b_seq) and not sched.starts[a_seq[i]] < sched.starts[b_seq[i + 1]]:
            raise RefutationCertificate(
                stage, "interleaving", f"rank {i}: {b_seq[i + 1]} precedes {a_seq[i]}"
            )
    for i, anchor in enumerate(a_seq):
        t = sched.starts[anchor]
        lam = finished(t, "lambda1")
        if lam != 1:
            raise RefutationCertificate(
                stage, "separator-counts", f"{anchor}: opening cap count {lam} != 1"
            )
        if finished(t, "A") != i:
            raise RefutationCertificate(stage, "separator-counts", f"{anchor}: own rank != {i}")
        if finished(t, "B") != i + 1:
            raise RefutationCertificate(
                stage, "separator-counts", f"{anchor}: opposite rank != {i + 1}"
            )
    for i, anchor in enumerate(b_seq):
        t = sched.starts[anchor]
        if finished(t, "A") != i:
            raise RefutationCertificate(stage, "separator-counts", f"{anchor}: rank != {i}")
    return tuple(a_seq), tuple(b_seq)


def _check_count_equations(inst, sched, finished, a_seq, b_seq) -> None:
    """The separators' count chains (`COUNT_CHAINS["A"]` and `["B"]`),
    plus the trailing-cap rule: the closing cap finishes after every late
    separator.

    `_check_alternation` has already pinned, at the i-th early separator,
    one finished opening cap, i finished early and i+1 finished late
    separators, and at the i-th late separator i finished of each; the
    trailing-cap rule pins the closing cap at 0 there.  With those counts
    fixed, a chain holds exactly when every term of it equals i."""
    stage = "count-equations"

    def broken(anchor: str) -> str | None:
        t = sched.starts[anchor]
        values = chain_values(inst.by_id[anchor].tag, lambda tag: finished(t, tag))
        if len(set(values.values())) == 1:
            return None
        return f"{anchor}: " + ", ".join(f"{k} = {v}" for k, v in values.items())

    for anchor in a_seq:
        if detail := broken(anchor):
            raise RefutationCertificate(stage, "early-separator-chain", detail)
    for anchor in b_seq:
        if finished(sched.starts[anchor], "lambda2") != 0:
            raise RefutationCertificate(
                stage, "trailing-cap", f"closing cap finishes before {anchor}"
            )
        if detail := broken(anchor):
            raise RefutationCertificate(stage, "late-separator-chain", detail)


def _check_side_orders(inst, sched, lanes) -> tuple[dict, dict]:
    """Machines 1 and 4 must run their fixed tag patterns back to back.
    Returns each side machine's jobs keyed by canonical (tag, index) slot."""
    stage = "side-order"
    keyed = []
    for m in SIDES:
        on, slots = lanes[m], canonical_slots(inst, m)
        got = [inst.by_id[i].tag for i in on]
        if got != [tag for tag, _ in slots]:
            raise RefutationCertificate(stage, "side-order", f"machine {m} runs {got}")
        keyed.append(dict(zip(slots, on)))
    for m in SIDES:
        broken = _tiling_break(inst, sched, lanes[m], m)
        if broken:
            raise RefutationCertificate(stage, "zero-idle", broken)
    return keyed[0], keyed[1]


def _check_fillers(inst, sched, b_seq) -> None:
    """Exactly one two-machine filler starts where each late separator
    ends.

    Its length then matches the gap up to the next early separator, so
    that is not tested.  The side orders have pinned every separator at
    its canonical start, so the gaps are the canonical ones, and the count
    chains fix i finished fillers at B_i's start and i + 1 at A_i's start.
    A filler starting at B_j's end for j > i starts after A_i does, so the
    i + 1 finished at A_i's start are those starting at B_0 .. B_i's ends,
    and the one starting at B_i's end ends by A_i's start: it is no longer
    than gap i.  The z + 1 fillers, one at each end, have the same total
    length as the z + 1 canonical gaps, so each equals its gap."""
    stage = "filler-fit"
    p_b = inst.by_slot["B", 0].p
    fillers: dict[int, list] = {}
    for job in inst.tagged("c"):
        fillers.setdefault(sched.starts[job.id], []).append(job)
    for i in range(inst.z + 1):
        t = sched.starts[b_seq[i]] + p_b
        hits = fillers.get(t, [])
        if len(hits) != 1:
            raise RefutationCertificate(
                stage, "filler-fit", f"{len(hits)} fillers start at {t} after {b_seq[i]}"
            )


def _make_pairs_contiguous(inst, sched, lanes, m1, m4, events):
    """Between consecutive separators, route the early narrow pair through
    machine 2 and the late one through machine 3 by swapping the middle
    machines' contents inside the block window.  Returns the new schedule
    and its `_lanes` (`lanes` are the input's).

    Only machine 2's contents are tested.  Normalization has made machines
    1 and 4 exactly canonical, put the backbone on both middles and
    checked every job's width, and the swaps here exchange only the
    middles, so each a, b, gamma, delta and value job runs on exactly one
    middle machine, and machine 2 holding `canonical_ids(2)` leaves
    machine 3 exactly `canonical_ids(3)`."""
    stage = "pair-columns"
    exchange = _Exchange(inst, sched)
    for i in range(1, inst.z + 1):
        a_i, b_i = m1["a", i], m4["b", i]
        sa = exchange.machines[a_i] - {1}
        sb = exchange.machines[b_i] - {4}
        if sa == sb:
            raise RefutationCertificate(
                stage, "pair-columns", f"{a_i} and {b_i} share machine {sorted(sa)}"
            )
        if sa == {3}:
            t1, t2 = sched.starts[m1["A", i - 1]], sched.starts[m4["B", i]]
            _swap(exchange, stage, events, *MIDDLE, t1, t2)
    swapped = exchange.schedule()
    if swapped is not sched:
        sched, lanes = swapped, _lanes(inst, swapped)
    want_2, want_3 = canonical_ids(inst, 2), canonical_ids(inst, 3)
    on_2, on_3 = set(lanes[2]), set(lanes[3])
    if on_2 != want_2:
        raise RefutationCertificate(
            stage,
            "pair-columns",
            f"middle contents off by {sorted(on_2 ^ want_2)} / {sorted(on_3 ^ want_3)}",
        )
    events.append({"stage": stage, "event": "ok"})
    return sched, lanes


def _read_partition(inst, sched, m1, m4) -> Partition:
    """Each narrow window leaves exactly D free in front of its late
    separator; the single-machine value jobs tiling it form one triple.

    Only starts are checked.  `_make_pairs_contiguous` has just checked
    that machine 2 holds exactly `canonical_ids(2)`, which names every
    gamma and every value job, and each of them is one machine wide, so
    each runs on machine 2 alone."""
    stage = "gap-readout"
    values = sorted(inst.tagged("P"), key=lambda j: sched.starts[j.id])
    value_starts = [sched.starts[j.id] for j in values]
    sets = []
    for i in range(1, inst.z + 1):
        a_i = m1["a", i]
        edge = sched.starts[a_i] + inst.by_id[a_i].p
        hi = sched.starts[m4["B", i]]
        g = inst.by_slot["gamma", i]
        if not edge <= sched.starts[g.id] <= hi - g.p:
            raise RefutationCertificate(
                stage, "narrow-window", f"{g.id} is outside the window after {a_i}"
            )
        require("the gap readout", (hi - edge == g.p + inst.D, _WINDOW_WIDTH))
        # The filler may sit anywhere inside the window; the value jobs tile
        # whatever it leaves on either side.
        inside = values[bisect_left(value_starts, edge) : bisect_left(value_starts, hi)]
        occupants = sorted([g, *inside], key=lambda j: sched.starts[j.id])
        cursor, members = edge, []
        for j in occupants:
            if sched.starts[j.id] != cursor:
                raise RefutationCertificate(
                    stage, "gap-tiling", f"{j.id} misplaced inside gap {i}"
                )
            cursor += j.p
            if j.tag == "P":
                members.append(j.index)
        if cursor != hi:
            raise RefutationCertificate(stage, "gap-tiling", f"gap {i} ends short at {cursor}")
        sets.append(tuple(sorted(members)))
    return tuple(sorted(sets))


def extract_partition(
    inst3p: ThreePartitionInstance, inst: SchedulingInstance, sched: Schedule
) -> tuple[Partition, ExtractionTrace]:
    """Full pipeline: normalize, orient, check the order structure, make the
    narrow pairs contiguous, and read the partition out of the gaps.

    Raises InvalidInput when the instance is not the reduction of `inst3p`
    or the schedule does not fit it, NotTargetMakespan (an InvalidInput)
    when it misses the target load, and RefutationCertificate when it
    holds the target but violates one of the structural identities (i.e.
    it was never feasible)."""
    if recover_values(inst).values != inst3p.values:
        raise InvalidInput("scheduling instance does not encode the given values")
    _gate(inst, sched)
    events: list[dict[str, Any]] = []
    try:
        sched, lanes = _normalize_machines(inst, sched, events)
        sched, mirrored = _orient(inst, sched, lanes[2], events)
        if mirrored:
            lanes = _lanes(inst, sched)
        finished = finished_by_index(inst, sched)
        a_seq, b_seq = _check_alternation(inst, sched, finished)
        events.append({"stage": "alternation", "event": "ok"})
        _check_count_equations(inst, sched, finished, a_seq, b_seq)
        m1, m4 = _check_side_orders(inst, sched, lanes)
        _check_fillers(inst, sched, b_seq)
        sched, lanes = _make_pairs_contiguous(inst, sched, lanes, m1, m4, events)
        # machine 2 needs no tiling check: every job on it is position-pinned
        # by the side orders, the filler fits, and the gap readout below
        broken = _tiling_break(inst, sched, lanes[3], 3)
        if broken:
            raise RefutationCertificate("zero-idle", "zero-idle", broken)
        partition = _read_partition(inst, sched, m1, m4)
    except RefutationCertificate as cert:
        cert.events = tuple(events)
        raise
    require(
        "the extracted partition",
        (not validate_partition(inst3p, partition), "a 3-Partition witness"),
    )
    events.append({"stage": "gap-readout", "event": "ok"})
    return partition, ExtractionTrace(
        mirrored=mirrored, events=tuple(events), partition=partition
    )
