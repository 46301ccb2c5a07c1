"""Reduction from 3-Partition to rigid 4-machine scheduling (and strip packing).

Given a 3-Partition instance (z triples wanted, target sum D, with
D > 4z(7z+1)), `build_jobs` emits 12z+5 jobs, each needing 1, 2, or 3 of the
4 machines simultaneously.  The job lengths are polynomials in D chosen so
that a schedule with makespan W (the target load) exists iff the instance is
a yes-instance, and any such schedule has zero idle time and essentially one
shape.  `build_strip` emits the same gadgets as strip-packing items (width =
length, height = machine count) in a strip of width W, where the question
becomes packing height 4 versus 5.

Twelve job families, by tag:

    A      z+1 jobs, 3 machines, length D^2           block separators
    B      z+1 jobs, 3 machines, length D^3           block separators
    a      z jobs, 2 machines, D^4 + D^6 + 3z D^7     left filler pair
    b      z jobs, 2 machines, D^5 + D^6 + 3z D^7     right filler pair
    c      z+1 jobs, 2 machines, (z+j) D^7 + D^8      middle filler
    alpha  z jobs, 1 machine, D^3 + D^5 + 4z D^7 + D^8
    beta   z jobs, 1 machine, D^2 + D^4 + (4z-1) D^7 + D^8
    gamma  z jobs, 1 machine, D^5 + (3z-j) D^7 - D    gap makers
    delta  z jobs, 1 machine, D^4 + (3z-j) D^7
    lambda1, lambda2  one each, 1 machine             end fillers
    P      3z jobs, 1 machine, the instance values    partition items

The gamma job of block j is one unit of D short of its gap, so exactly a
D-sum subset of P jobs fits beside it: that is where the partition lives.

The shape of every target schedule is stated once, at the end of this
module, and read by synthesis, the audit, extraction and the solver:
`CANONICAL_LAYOUT` holds each machine's job sequence and `COUNT_CHAINS` the
count identities at every separator and filler start.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .exactnum import digit_bound, parse_int
from .threepartition import ThreePartitionInstance, validate

MACHINES = 4


class ParamViolation(ValueError):
    """The 3-Partition instance is malformed or D is not above 4z(7z+1)."""


@dataclass(frozen=True)
class Job:
    id: str
    p: int
    q: int
    tag: str
    index: int | None = None


def check_jobs(jobs: Iterable[Job], m: int) -> None:
    """Reject jobs no m-machine instance can hold: a duplicate id, q outside
    1..m, or a length below 1.  Raises ValueError naming the first such job."""
    seen: set[str] = set()
    for j in jobs:
        if not 1 <= j.q <= m:
            raise ValueError(f"job {j.id!r} needs {j.q} of {m} machines")
        if j.p <= 0:
            raise ValueError(f"job {j.id!r} has nonpositive length {j.p}")
        if j.id in seen:
            raise ValueError(f"job id {j.id!r} is used twice")
        seen.add(j.id)


@dataclass(frozen=True)
class SchedulingInstance:
    m: int
    z: int
    D: int
    W: int
    jobs: tuple[Job, ...]

    @cached_property
    def by_id(self) -> dict[str, Job]:
        return {job.id: job for job in self.jobs}

    def tagged(self, *tags: str) -> tuple[Job, ...]:
        chosen = set(tags)
        return tuple(j for j in self.jobs if j.tag in chosen)

    @property
    def total_work(self) -> int:
        return sum(j.p * j.q for j in self.jobs)

    def to_json(self) -> str:
        payload = {
            "m": self.m,
            "z": self.z,
            "D": str(self.D),
            "W": str(self.W),
            "jobs": [
                {"id": j.id, "p": str(j.p), "q": j.q, "tag": j.tag}
                for j in self.jobs
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SchedulingInstance":
        payload = json.loads(text)
        jobs = tuple(
            Job(
                j["id"],
                parse_int(j["p"], "a length p"),
                parse_int(j["q"], "a machine count q"),
                j["tag"],
                _index_from_id(j["id"]),
            )
            for j in payload["jobs"]
        )
        m = parse_int(payload["m"], "m")
        check_jobs(jobs, m)
        return cls(
            m=m,
            z=parse_int(payload["z"], "z"),
            D=parse_int(payload["D"], "D"),
            W=parse_int(payload["W"], "W"),
            jobs=jobs,
        )


@dataclass(frozen=True)
class StripItem:
    id: str
    w: int
    h: int
    tag: str
    index: int | None = None


@dataclass(frozen=True)
class StripInstance:
    width: int
    z: int
    D: int
    items: tuple[StripItem, ...]

    @cached_property
    def by_id(self) -> dict[str, StripItem]:
        return {item.id: item for item in self.items}

    @property
    def total_area(self) -> int:
        return sum(it.w * it.h for it in self.items)

    def to_scheduling(self) -> SchedulingInstance:
        jobs = tuple(
            Job(id=it.id, p=it.w, q=it.h, tag=it.tag, index=it.index)
            for it in self.items
        )
        return SchedulingInstance(
            m=MACHINES, z=self.z, D=self.D, W=self.width, jobs=jobs
        )

    def to_json(self) -> str:
        payload = {
            "width": str(self.width),
            "z": self.z,
            "D": str(self.D),
            "items": [
                {"id": it.id, "w": str(it.w), "h": it.h, "tag": it.tag}
                for it in self.items
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "StripInstance":
        payload = json.loads(text)
        items = tuple(
            StripItem(
                it["id"],
                parse_int(it["w"], "a width w"),
                parse_int(it["h"], "a height h"),
                it["tag"],
                _index_from_id(it["id"]),
            )
            for it in payload["items"]
        )
        strip = cls(
            width=parse_int(payload["width"], "width"),
            z=parse_int(payload["z"], "z"),
            D=parse_int(payload["D"], "D"),
            items=items,
        )
        check_jobs(strip.to_scheduling().jobs, MACHINES)
        return strip


def _index_from_id(job_id: str) -> int | None:
    head, _, tail = job_id.rpartition("_")
    return int(tail) if head and tail.isdigit() else None


def _checked_params(inst: ThreePartitionInstance) -> tuple[int, int]:
    problems = validate(inst)
    if problems:
        raise ParamViolation("; ".join(problems))
    z, D = inst.z, inst.D
    if D <= digit_bound(z):
        raise ParamViolation(
            f"D={D} must exceed 4z(7z+1)={digit_bound(z)}; scale the "
            "instance first"
        )
    return z, D


def target_makespan(inst: ThreePartitionInstance) -> int:
    """The per-machine load W every machine must carry with zero idle."""
    z, D = _checked_params(inst)
    return (
        (z + 1) * (D**2 + D**3 + D**8)
        + z * (D**4 + D**5 + D**6)
        + z * (7 * z + 1) * D**7
    )


def family_length(tag: str, z: int, D: int, index: int = 0, value: int = 0) -> int:
    """Length of one job of the given family (index matters for c/gamma/delta,
    value for P)."""
    j = index
    if tag == "A":
        return D**2
    if tag == "B":
        return D**3
    if tag == "a":
        return D**4 + D**6 + 3 * z * D**7
    if tag == "b":
        return D**5 + D**6 + 3 * z * D**7
    if tag == "c":
        return (z + j) * D**7 + D**8
    if tag == "alpha":
        return D**3 + D**5 + 4 * z * D**7 + D**8
    if tag == "beta":
        return D**2 + D**4 + (4 * z - 1) * D**7 + D**8
    if tag == "gamma":
        return D**5 + (3 * z - j) * D**7 - D
    if tag == "delta":
        return D**4 + (3 * z - j) * D**7
    if tag == "lambda1":
        return D**3 + z * D**7 + D**8
    if tag == "lambda2":
        return D**2 + 2 * z * D**7 + D**8
    if tag == "P":
        return value
    raise ValueError(f"unknown tag {tag!r}")


def build_jobs(inst: ThreePartitionInstance) -> SchedulingInstance:
    """All 12z+5 jobs of the reduction, in a fixed deterministic order."""
    z, D = _checked_params(inst)

    def mk(tag: str, q: int, index: int | None = None, value: int = 0) -> Job:
        name = tag if index is None else f"{tag}_{index}"
        return Job(
            id=name,
            p=family_length(tag, z, D, index or 0, value),
            q=q,
            tag=tag,
            index=index,
        )

    jobs: list[Job] = []
    jobs += [mk("A", 3, i) for i in range(z + 1)]
    jobs += [mk("B", 3, i) for i in range(z + 1)]
    jobs += [mk("a", 2, i) for i in range(1, z + 1)]
    jobs += [mk("b", 2, i) for i in range(1, z + 1)]
    jobs += [mk("c", 2, j) for j in range(z + 1)]
    jobs += [mk("alpha", 1, i) for i in range(1, z + 1)]
    jobs += [mk("beta", 1, i) for i in range(1, z + 1)]
    jobs += [mk("gamma", 1, j) for j in range(1, z + 1)]
    jobs += [mk("delta", 1, j) for j in range(1, z + 1)]
    jobs += [mk("lambda1", 1), mk("lambda2", 1)]
    jobs += [
        mk("P", 1, i, value=inst.values[i - 1]) for i in range(1, 3 * z + 1)
    ]

    sched = SchedulingInstance(
        m=MACHINES, z=z, D=D, W=target_makespan(inst), jobs=tuple(jobs)
    )
    assert sched.total_work == MACHINES * sched.W
    return sched


def build_strip(inst: ThreePartitionInstance) -> StripInstance:
    """Same gadgets as strip-packing items: width = length, height = machines."""
    sched = build_jobs(inst)
    items = tuple(
        StripItem(id=j.id, w=j.p, h=j.q, tag=j.tag, index=j.index)
        for j in sched.jobs
    )
    return StripInstance(width=sched.W, z=sched.z, D=sched.D, items=items)


def recover_values(inst: SchedulingInstance) -> ThreePartitionInstance:
    """The 3-Partition values are carried verbatim by the P jobs."""
    p_jobs = sorted(inst.tagged("P"), key=lambda j: j.index or 0)
    return ThreePartitionInstance(tuple(j.p for j in p_jobs))


def recognize(inst: SchedulingInstance) -> tuple[int, int] | None:
    """(z, D) when `inst` is exactly a reduction instance, else None."""
    try:
        values = recover_values(inst)
        rebuilt = build_jobs(values)
    except (ParamViolation, ValueError):
        return None
    same_jobs = sorted(
        (j.id, j.p, j.q, j.tag) for j in inst.jobs
    ) == sorted((j.id, j.p, j.q, j.tag) for j in rebuilt.jobs)
    if same_jobs and (inst.m, inst.z, inst.D, inst.W) == (
        rebuilt.m,
        rebuilt.z,
        rebuilt.D,
        rebuilt.W,
    ):
        return inst.z, inst.D
    return None


# ===== canonical geometry =====
#
# In the orientation where a B job opens the schedule, every job outside the
# gamma and P families has exactly one possible start time in a zero-idle
# makespan-W schedule.  These closed forms are consumed by the extraction
# pipeline and by the solver's structural pruning; the synthesizer builds the
# same schedule independently, by accumulation, so the two derivations
# cross-check each other in the tests.


def block_separator_start(tag: str, i: int, z: int, D: int) -> int:
    """Start of the i-th A or B separator (i in 0..z)."""
    if tag == "B":
        return (
            i * (D**2 + D**3 + D**4 + D**5 + D**6)
            + i * (7 * z - 1) * D**7
            + i * D**8
        )
    if tag == "A":
        return (
            i * D**2
            + (i + 1) * D**3
            + i * (D**4 + D**5 + D**6)
            + (7 * z * i + z) * D**7
            + (i + 1) * D**8
        )
    raise ValueError(f"not a separator tag: {tag!r}")


def forced_starts(inst: SchedulingInstance) -> dict[str, int]:
    """Forced start time of every non-gamma, non-P job, keyed by id."""
    z, D = inst.z, inst.D
    length = lambda tag, idx=0: family_length(tag, z, D, idx)
    starts: dict[str, int] = {}
    for i in range(z + 1):
        starts[f"A_{i}"] = block_separator_start("A", i, z, D)
        starts[f"B_{i}"] = block_separator_start("B", i, z, D)
        starts[f"c_{i}"] = starts[f"B_{i}"] + length("B")
    for i in range(1, z + 1):
        starts[f"a_{i}"] = starts[f"A_{i-1}"] + length("A")
        starts[f"delta_{i}"] = starts[f"A_{i-1}"] + length("A")
        starts[f"alpha_{i}"] = starts[f"a_{i}"] + length("a")
        starts[f"beta_{i}"] = starts[f"B_{i-1}"] + length("B")
        starts[f"b_{i}"] = starts[f"beta_{i}"] + length("beta")
    starts["lambda1"] = 0
    starts["lambda2"] = inst.W - length("lambda2")
    return starts


def gamma_window(inst: SchedulingInstance, j: int) -> tuple[int, int]:
    """Inclusive range of legal starts for the block-j gamma job."""
    z, D = inst.z, inst.D
    lo = (
        block_separator_start("A", j - 1, z, D)
        + family_length("A", z, D)
        + family_length("a", z, D)
    )
    return lo, lo + D


def partition_gaps(inst: SchedulingInstance) -> tuple[tuple[int, int], ...]:
    """Half-open [gap start, next separator start) interval per block."""
    z, D = inst.z, inst.D
    gaps = []
    for j in range(1, z + 1):
        lo, _ = gamma_window(inst, j)
        gaps.append((lo, block_separator_start("B", j, z, D)))
    return tuple(gaps)


# ===== the canonical shape =====
#
# Machine sequences in the orientation where a B job opens machine 2, as
# "prologue | block | epilogue": the block is repeated for i = 1..z, and its
# slot P_i stands for the value jobs of the i-th witness triple.

CANONICAL_LAYOUT: dict[int, str] = {
    1: "lambda1 A_0 | a_i alpha_i A_i |",
    2: "B_0 c_0 A_0 | a_i gamma_i P_i B_i c_i A_i |",
    3: "B_0 c_0 A_0 | delta_i b_i B_i c_i A_i |",
    4: "B_0 | beta_i b_i B_i | lambda2",
}


def _slot(token: str, i: int | None) -> tuple[str, int | None]:
    tag, _, index = token.partition("_")
    if not index:
        return tag, None
    return tag, i if index == "i" else int(index)


def canonical_slots(m: int, z: int) -> list[tuple[str, int | None]]:
    """Machine m's jobs in start order as (tag, index) pairs; a ("P", i)
    slot stands for the value jobs of block i."""
    head, block, tail = (part.split() for part in CANONICAL_LAYOUT[m].split("|"))
    slots = [_slot(token, None) for token in head]
    for i in range(1, z + 1):
        slots += [_slot(token, i) for token in block]
    return slots + [_slot(token, None) for token in tail]


def canonical_ids(inst: SchedulingInstance, m: int) -> frozenset[str]:
    """Every job that machine m runs in the canonical layout, with the P
    slots standing for all value jobs together."""
    slots = set(canonical_slots(m, inst.z))
    values = any(tag == "P" for tag, _ in slots)
    return frozenset(
        j.id
        for j in inst.jobs
        if (j.tag, j.index) in slots or (values and j.tag == "P")
    )


# Count chains: at the start of every job of the keyed family, the terms of
# its chain are equal.  A term is a signed sum of finished-job counts, one
# per named family.

COUNT_CHAINS: dict[str, tuple[str, ...]] = {
    "A": ("c - lambda1", "B - lambda1", "alpha", "b", "a"),
    "B": ("c - lambda2", "A - lambda2", "beta", "a", "b"),
    "a": ("B", "alpha + lambda1", "c"),
    "b": ("A", "beta + lambda2", "c"),
    "c": ("b", "a"),
}
CHECKPOINT_TAGS = tuple(COUNT_CHAINS)


def chain_values(tag: str, count: Callable[[str], int]) -> dict[str, int]:
    """Each term of the family's count chain, named the way the audit names
    it ("count(c) - count(lambda1)"), with its value for the given
    finished-job count per family."""
    values = {}
    for term in COUNT_CHAINS[tag]:
        tokens = ["+", *term.split()]
        parts = list(zip(tokens[::2], tokens[1::2]))
        name = " ".join(f"{sign} count({fam})" for sign, fam in parts)[2:]
        values[name] = sum(
            count(fam) if sign == "+" else -count(fam) for sign, fam in parts
        )
    return values
