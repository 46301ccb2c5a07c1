"""Reduction from 3-Partition to rigid 4-machine scheduling (and strip packing).

Given a 3-Partition instance (z triples wanted, target sum D, with
D > 4z(7z+1)), `build_jobs` emits 12z+5 jobs, each needing 1, 2, or 3 of the
4 machines simultaneously.  The job lengths are polynomials in D chosen so
that a schedule with makespan W (the target load) exists iff the instance is
a yes-instance, and any such schedule has zero idle time and essentially one
shape.  Read sideways, the same jobs are strip-packing items (width =
length, height = machine count) in a strip of width W, where the question
becomes packing height 4 versus 5; `build_strip` returns the instance as a
`StripInstance`, which differs only in its JSON keys.

Twelve job families: the eleven of `FAMILIES`, whose lengths are
polynomials in D, and the 3z P jobs, one per value, whose lengths are the
instance's values and which hold the partition.

The gamma job of block j is one unit of D short of its gap, so exactly a
D-sum subset of P jobs fits beside it: that is where the partition lives.

The shape of every target schedule is stated once, at the end of this
module: `CANONICAL_LAYOUT` holds each machine's job sequence, read by
synthesis and extraction, and `COUNT_CHAINS` the count identities at every
separator and filler start, read by the audit and extraction.  The solver
reads neither; its equation rule reads the closed-form starts of the
canonical geometry through `forward_geometry`.

An instance never changes, so what is derived from it never does either.
Each derived fact (`recognize`, `forward_geometry`, `canonical_slots`,
`canonical_ids`) is one function decorated with `per_instance`, which
works it out on the first call and keeps it on the instance; a module
that derives its own facts, as the solver does its plans, uses the same
decorator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .exactnum import (
    InvalidInput, check_shape, digit_bound, dump_json, parse_int, reading, require,
)
from .threepartition import ThreePartitionInstance, validate

MACHINES = 4


@dataclass(frozen=True)
class Job:
    id: str
    p: int
    q: int
    tag: str
    index: int | None = None


def check_jobs(jobs: Iterable[Job], m: int) -> None:
    """Reject an instance of fewer than 1 machine, and jobs no m-machine
    instance can hold: a duplicate id, q outside 1..m, or a length below 1.
    Raises InvalidInput naming the machine count or the first such job."""
    if m < 1:
        raise InvalidInput(f"an instance needs at least 1 machine, not {m}")
    seen: set[str] = set()
    for j in jobs:
        if not 1 <= j.q <= m:
            raise InvalidInput(f"job {j.id!r} needs {j.q} of {m} machines")
        if j.p <= 0:
            raise InvalidInput(f"job {j.id!r} has nonpositive length {j.p}")
        if j.id in seen:
            raise InvalidInput(f"job id {j.id!r} is used twice")
        seen.add(j.id)


@dataclass(frozen=True)
class SchedulingInstance:
    m: int
    z: int
    D: int
    W: int
    jobs: tuple[Job, ...]

    # The JSON key of each field, and the label a bad entry, p or q is
    # reported under.  `StripInstance` names the same fields the strip way.
    _keys = {"m": "m", "W": "W", "jobs": "jobs", "p": "p", "q": "q"}
    _labels = {"job": "a job", "p": "a length p", "q": "a machine count q"}

    @cached_property
    def by_id(self) -> dict[str, Job]:
        return {job.id: job for job in self.jobs}

    @cached_property
    def by_slot(self) -> Mapping[tuple[str, int | None], Job]:
        """Each job by its (tag, index) slot, such as ("gamma", 1), read-only;
        on a recognised instance every slot holds exactly one job."""
        return MappingProxyType({(job.tag, job.index): job for job in self.jobs})

    def tagged(self, *tags: str) -> tuple[Job, ...]:
        chosen = set(tags)
        return tuple(j for j in self.jobs if j.tag in chosen)

    @property
    def total_work(self) -> int:
        return sum(j.p * j.q for j in self.jobs)

    def to_json(self) -> str:
        k = self._keys
        payload = {
            "z": self.z,
            "D": str(self.D),
            k["W"]: str(self.W),
            k["jobs"]: [
                {"id": j.id, k["p"]: str(j.p), k["q"]: j.q, "tag": j.tag}
                for j in self.jobs
            ],
        }
        if k["m"]:
            payload[k["m"]] = self.m
        return dump_json(payload)

    @classmethod
    def from_json(cls, text: str) -> "SchedulingInstance":
        with reading(text, "an instance") as payload:
            k, label = cls._keys, cls._labels
            entries = check_shape(payload[k["jobs"]], list, k["jobs"])
            jobs = tuple(
                Job(
                    check_shape(j["id"], str, "a job id"),
                    parse_int(j[k["p"]], label["p"]),
                    parse_int(j[k["q"]], label["q"]),
                    check_shape(j["tag"], str, "a tag"),
                    _index_from_id(j["id"]),
                )
                for j in (check_shape(entry, dict, label["job"]) for entry in entries)
            )
            m = parse_int(payload[k["m"]], "m") if k["m"] else MACHINES
            check_jobs(jobs, m)
            return cls(
                m=m,
                z=parse_int(payload["z"], "z"),
                D=parse_int(payload["D"], "D"),
                W=parse_int(payload[k["W"]], k["W"]),
                jobs=jobs,
            )


class StripInstance(SchedulingInstance):
    """A 4-machine instance read sideways, in the strip JSON form: item
    width w = job length p, item height h = machine count q, strip width =
    W.  Only the JSON keys differ; there is no "m" key."""

    _keys = {"m": None, "W": "width", "jobs": "items", "p": "w", "q": "h"}
    _labels = {"job": "an item", "p": "a width w", "q": "a height h"}


def per_instance(fn: Callable) -> Callable:
    """`fn(inst, *args)`, worked out once per instance and arguments and
    kept in the instance's `__dict__`, as `cached_property` keeps its value:
    by arguments, in a dict under "module.name", a key no attribute name
    can take.  An instance is frozen, so the value never goes stale; `==`
    and `hash` read the fields only, and a `dataclasses.replace` copy
    builds its own.  The value is built by the wrapper's `__wrapped__`,
    where a test can count the builds."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def kept(inst: SchedulingInstance, *args):
        memo = inst.__dict__.setdefault(name, {})
        if args not in memo:
            memo[args] = kept.__wrapped__(inst, *args)
        return memo[args]

    return kept


def _index_from_id(job_id: str) -> int | None:
    """The number after an id's last underscore, such as 3 in "gamma_3";
    None when there is none, or when it has more digits than `int` reads,
    which no reduction's index has."""
    head, _, tail = job_id.rpartition("_")
    if head and tail.isdecimal():
        try:
            return int(tail)
        except ValueError:
            pass
    return None


def _checked_params(inst: ThreePartitionInstance) -> tuple[int, int]:
    problems = validate(inst)
    if problems:
        raise InvalidInput("; ".join(problems))
    z, D = inst.z, inst.D
    if D <= digit_bound(z):
        raise InvalidInput(
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


# The job families but P, in `build_jobs` order, by tag: (machines q, first
# index, or None for the family's one job, length of job j).  An indexed
# family runs from its first index to z.
FAMILIES: dict[str, tuple[int, int | None, Callable[[int, int, int], int]]] = {
    "A": (3, 0, lambda z, j, D: D**2),  # block separators
    "B": (3, 0, lambda z, j, D: D**3),  # block separators
    "a": (2, 1, lambda z, j, D: D**4 + D**6 + 3 * z * D**7),  # left filler pair
    "b": (2, 1, lambda z, j, D: D**5 + D**6 + 3 * z * D**7),  # right filler pair
    "c": (2, 0, lambda z, j, D: (z + j) * D**7 + D**8),  # middle filler
    "alpha": (1, 1, lambda z, j, D: D**3 + D**5 + 4 * z * D**7 + D**8),
    "beta": (1, 1, lambda z, j, D: D**2 + D**4 + (4 * z - 1) * D**7 + D**8),
    "gamma": (1, 1, lambda z, j, D: D**5 + (3 * z - j) * D**7 - D),  # gap makers
    "delta": (1, 1, lambda z, j, D: D**4 + (3 * z - j) * D**7),
    "lambda1": (1, None, lambda z, j, D: D**3 + z * D**7 + D**8),  # end fillers
    "lambda2": (1, None, lambda z, j, D: D**2 + 2 * z * D**7 + D**8),
}


def family_length(tag: str, z: int, D: int, index: int = 0, value: int = 0) -> int:
    """Length of one job of the given family (index matters for c/gamma/delta,
    value for P)."""
    if tag in FAMILIES:
        return FAMILIES[tag][2](z, index, D)
    if tag == "P":
        return value
    raise ValueError(f"unknown tag {tag!r}")


def build_jobs(inst: ThreePartitionInstance) -> SchedulingInstance:
    """All 12z+5 jobs of the reduction, in a fixed deterministic order."""
    W = target_makespan(inst)  # checks the instance
    z, D = inst.z, inst.D
    jobs = [
        Job(tag if i is None else f"{tag}_{i}", length(z, i or 0, D), q, tag, i)
        for tag, (q, first, length) in FAMILIES.items()
        for i in ([None] if first is None else range(first, z + 1))
    ]
    jobs += [Job(f"P_{i}", v, 1, "P", i) for i, v in enumerate(inst.values, 1)]
    sched = SchedulingInstance(MACHINES, z, D, W, tuple(jobs))
    require("the reduction", (sched.total_work == MACHINES * sched.W, "total work m W"))
    return sched


def build_strip(inst: ThreePartitionInstance) -> StripInstance:
    """The same instance in the strip JSON form."""
    sched = build_jobs(inst)
    return StripInstance(sched.m, sched.z, sched.D, sched.W, sched.jobs)


def recover_values(inst: SchedulingInstance) -> ThreePartitionInstance:
    """The 3-Partition values are carried verbatim by the P jobs."""
    p_jobs = sorted(inst.tagged("P"), key=lambda j: j.index or 0)
    return ThreePartitionInstance(tuple(j.p for j in p_jobs))


@per_instance
def recognize(inst: SchedulingInstance) -> tuple[int, int] | None:
    """(z, D) when `inst` is exactly a reduction instance, else None: the
    jobs, index included, and (m, z, D, W) must be exactly what
    `build_jobs` makes of the values the P jobs carry."""
    try:
        rebuilt = build_jobs(recover_values(inst))
    except InvalidInput:
        return None
    key = lambda i: (i.m, i.z, i.D, i.W, len(i.jobs), i.by_id)
    return (inst.z, inst.D) if key(inst) == key(rebuilt) else None


# ===== canonical geometry =====
#
# In the orientation where a B job opens the schedule, every job outside the
# gamma and P families has exactly one possible start time in a zero-idle
# makespan-W schedule, up to swapping identical jobs.  In the package these
# closed forms feed the solver's equation rule, and `forced_starts` is
# exported; the synthesizer builds the same schedule independently, by
# accumulation, so the two derivations cross-check each other in the tests.


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
    # the lengths read here do not depend on the index
    p = {tag: family_length(tag, z, D) for tag in ("A", "B", "a", "beta", "lambda2")}
    starts: dict[str, int] = {}
    for i in range(z + 1):
        starts[f"A_{i}"] = block_separator_start("A", i, z, D)
        starts[f"B_{i}"] = block_separator_start("B", i, z, D)
        starts[f"c_{i}"] = starts[f"B_{i}"] + p["B"]
    for i in range(1, z + 1):
        starts[f"a_{i}"] = starts[f"A_{i-1}"] + p["A"]
        starts[f"delta_{i}"] = starts[f"A_{i-1}"] + p["A"]
        starts[f"alpha_{i}"] = starts[f"a_{i}"] + p["a"]
        starts[f"beta_{i}"] = starts[f"B_{i-1}"] + p["B"]
        starts[f"b_{i}"] = starts[f"beta_{i}"] + p["beta"]
    starts["lambda1"] = 0
    starts["lambda2"] = inst.W - p["lambda2"]
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


class ForwardGeometry(NamedTuple):
    """The forward starts of a reduction as the solver's equation rule
    reads them: per tag but P, its jobs' starts in ascending order, each
    with its job (gamma_k at the start of gap k, its window's first start),
    and the gaps in ascending order."""

    starts: Mapping[str, tuple[tuple[int, Job], ...]]
    gaps: tuple[tuple[int, int], ...]


@per_instance
def forward_geometry(inst: SchedulingInstance) -> ForwardGeometry:
    """The `ForwardGeometry` of a recognised reduction, worked out from the
    closed forms, with the premises of the solver's equation rule checked
    (see "Each gap is a bin" and "No count chains" in `solver`): every tag
    has one width and the gamma jobs pairwise differ in length; the starts
    of each tag pairwise differ; every value lies strictly between D/4 and
    D/2; the gaps are pairwise disjoint, and block k's gamma window
    [lo, lo + D] fills gap k = [lo, hi) with its gamma job,
    hi - lo = D + |gamma_k|; the pinned jobs hold exactly m - 1 machines
    at every instant of a gap, and all m at every instant of [0, W)
    outside the gaps."""
    m, D = inst.m, inst.D
    starts: dict[str, list[tuple[int, Job]]] = {}
    # the machines the pinned jobs take (or free) at each of their starts
    # (and ends)
    delta: dict[int, int] = {}
    for job_id, s in forced_starts(inst).items():
        job = inst.by_id[job_id]
        starts.setdefault(job.tag, []).append((s, job))
        delta[s] = delta.get(s, 0) + job.q
        delta[s + job.p] = delta.get(s + job.p, 0) - job.q
    instants = sorted(delta)
    # the pinned load on each stretch between two consecutive instants
    loads = accumulate(delta[x] for x in instants)
    stretches = dict(zip(zip(instants, instants[1:]), loads))
    gammas = inst.tagged("gamma")
    starts["gamma"] = [(gamma_window(inst, j.index)[0], j) for j in gammas]
    tables = {tag: tuple(sorted(t, key=itemgetter(0))) for tag, t in starts.items()}
    gaps = tuple(sorted(partition_gaps(inst)))
    for tag, table in tables.items():
        distinct = all(s < u for (s, _), (u, _) in zip(table, table[1:]))
        require(f"the {tag} starts", (distinct, "pairwise distinct"))
    # A gap that is a stretch has no pinned start or end inside it.
    require(
        "the value gaps",
        (
            all(4 * j.p > D and 2 * j.p < D for j in inst.tagged("P")),
            "every value in (D/4, D/2)",
        ),
        (
            all(hi <= lo for (_, hi), (lo, _) in zip(gaps, gaps[1:])),
            "pairwise disjoint",
        ),
        (
            len(gammas) == len(gaps)
            and all(
                s == lo and hi - s - j.p == D
                for (s, j), (lo, hi) in zip(tables["gamma"], gaps)
            ),
            "one window inside each gap, from its start, leaving D beside "
            "its gamma job, in gap order",
        ),
        (
            all(stretches.get(gap) == m - 1 for gap in gaps),
            "m - 1 machines pinned at every instant of a gap",
        ),
        (
            instants[0] == 0
            and instants[-1] == inst.W
            and all(stretches[x] == m for x in stretches.keys() - set(gaps)),
            "m machines pinned at every instant outside the gaps",
        ),
    )
    widths = {(j.tag, j.q) for j in inst.jobs}
    require(
        "the family table",
        (len({tag for tag, _ in widths}) == len(widths), "one width per tag"),
        (len({j.p for j in gammas}) == len(gammas), "one gamma job per length"),
    )
    return ForwardGeometry(MappingProxyType(tables), gaps)


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


Slot = tuple[str, int | None]


def _slot(token: str, i: int | None) -> Slot:
    tag, _, index = token.partition("_")
    if not index:
        return tag, None
    return tag, i if index == "i" else int(index)


@per_instance
def canonical_slots(inst: SchedulingInstance, m: int) -> tuple[Slot, ...]:
    """Machine m's jobs in start order as (tag, index) pairs: its line of
    `CANONICAL_LAYOUT` with the block written out for i = 1..z, where a
    ("P", i) slot stands for the value jobs of block i."""
    head, block, tail = (part.split() for part in CANONICAL_LAYOUT[m].split("|"))
    slots = [_slot(token, None) for token in head]
    for i in range(1, inst.z + 1):
        slots += [_slot(token, i) for token in block]
    return tuple(slots + [_slot(token, None) for token in tail])


@per_instance
def canonical_ids(inst: SchedulingInstance, m: int) -> frozenset[str]:
    """Every job that machine m runs in the canonical layout, with the P
    slots standing for all value jobs together; synthesis reads only the
    slots."""
    slots = canonical_slots(inst, m)
    wanted = set(slots)
    values = any(tag == "P" for tag, _ in slots)
    return frozenset(
        j.id
        for j in inst.jobs
        if (j.tag, j.index) in wanted or (values and j.tag == "P")
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


def _compile_term(term: str) -> tuple[str, tuple[tuple[int, str], ...]]:
    """A term as its audit name ("count(c) - count(lambda1)") and its
    (sign, family) pairs."""
    tokens = ["+", *term.split()]
    parts = list(zip(tokens[::2], tokens[1::2]))
    name = " ".join(f"{sign} count({fam})" for sign, fam in parts)[2:]
    return name, tuple((1 if sign == "+" else -1, fam) for sign, fam in parts)


# COUNT_CHAINS parsed once: each family's terms as (name, signed pairs)
_CHAIN_TERMS: Mapping[str, tuple[tuple[str, tuple[tuple[int, str], ...]], ...]]
_CHAIN_TERMS = MappingProxyType(
    {tag: tuple(map(_compile_term, terms)) for tag, terms in COUNT_CHAINS.items()}
)


def chain_values(tag: str, count: Callable[[str], int]) -> dict[str, int]:
    """Each term of the family's count chain, named the way the audit names
    it ("count(c) - count(lambda1)"), with its value for the given
    finished-job count per family."""
    return {
        name: sum(sign * count(fam) for sign, fam in signed)
        for name, signed in _CHAIN_TERMS[tag]
    }
