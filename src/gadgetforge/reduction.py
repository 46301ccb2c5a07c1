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

Every closed form is read off one power table, D**0 .. D**8, each power
one multiplication from the last.  A family's length and a separator's
start are linear in the job's index, base + i * step, with base and step
polynomials in D, and `evaluate` works out every base and step and W at
one (z, D) from one table: `build_jobs` once per build, `recognize` once
for the values the P jobs carry, and `_start_columns` once per call of
`forced_starts` or `forward_geometry`.  Those start columns are the one
statement of the forward starts; `forward_geometry` reads block j's gamma
window as opening at alpha_j's start, and gap j as running from there to
B_j's start.  Synthesis builds the same starts by accumulation, without
the table, so the two cross-check.

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
`canonical_ids`) is one function decorated with
`per_instance`, which works it out on the first call and keeps it on the
instance; a module that derives its own facts, as the solver does its
plans, uses the same decorator.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate, repeat
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .exactnum import (
    InvalidInput, check_shape, digit_bound, dump_json, parse_int, reading, require,
)
from .threepartition import ThreePartitionInstance, validate

MACHINES = 4

# D's powers D**0 .. D**8, and a closed form that is linear in an index i,
# base + i * step, as (base, step)
Powers = tuple[int, ...]
Affine = tuple[int, int]


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

    @cached_property
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
            try:
                z, D, W = (
                    parse_int(payload[key], key) for key in ("z", "D", k["W"])
                )
            except (KeyError, InvalidInput):
                # a bad job is named before the fields read after the jobs
                check_jobs(jobs, m)
                raise
            inst = cls(m=m, z=z, D=D, W=W, jobs=jobs)
            # checked once, and kept for every later check of the instance
            check_instance(inst)
            return inst


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


@per_instance
def check_instance(inst: SchedulingInstance) -> None:
    """`check_jobs` on the instance's own jobs and machine count, once per
    instance.  A check that raises keeps nothing, so it raises again on
    every call."""
    check_jobs(inst.jobs, inst.m)


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


# The job families but P, in `build_jobs` order, by tag: (machines q, first
# index, or None for the family's one job, length).  An indexed family runs
# from its first index to z.  `length(z, P)` reads D's powers P[k] = D**k
# and gives (base, step): job j is base + j * step long, so only c, gamma
# and delta, whose lengths depend on the index, have a step.
FAMILIES: dict[str, tuple[int, int | None, Callable[[int, Powers], Affine]]] = {
    "A": (3, 0, lambda z, P: (P[2], 0)),  # block separators
    "B": (3, 0, lambda z, P: (P[3], 0)),  # block separators
    "a": (2, 1, lambda z, P: (P[4] + P[6] + 3 * z * P[7], 0)),  # left filler pair
    "b": (2, 1, lambda z, P: (P[5] + P[6] + 3 * z * P[7], 0)),  # right filler pair
    "c": (2, 0, lambda z, P: (z * P[7] + P[8], P[7])),  # middle filler
    "alpha": (1, 1, lambda z, P: (P[3] + P[5] + 4 * z * P[7] + P[8], 0)),
    "beta": (1, 1, lambda z, P: (P[2] + P[4] + (4 * z - 1) * P[7] + P[8], 0)),
    "gamma": (1, 1, lambda z, P: (P[5] + 3 * z * P[7] - P[1], -P[7])),  # gap makers
    "delta": (1, 1, lambda z, P: (P[4] + 3 * z * P[7], -P[7])),
    "lambda1": (1, None, lambda z, P: (P[3] + z * P[7] + P[8], 0)),  # end fillers
    "lambda2": (1, None, lambda z, P: (P[2] + 2 * z * P[7] + P[8], 0)),
}


# The start of the i-th B and A separator, i in 0..z, as (base, step) read
# off D's powers like a family's length: base + i * step.
SEPARATORS: dict[str, Callable[[int, Powers], Affine]] = {
    "B": lambda z, P: (
        0,
        P[2] + P[3] + P[4] + P[5] + P[6] + (7 * z - 1) * P[7] + P[8],
    ),
    "A": lambda z, P: (
        P[3] + z * P[7] + P[8],
        P[2] + P[3] + P[4] + P[5] + P[6] + 7 * z * P[7] + P[8],
    ),
}


def _powers(D: int) -> Powers:
    """D**0 .. D**8, each by one multiplication."""
    return tuple(accumulate(repeat(D, 8), mul, initial=1))


class ClosedForms(NamedTuple):
    """The closed forms of one (z, D), each evaluated once: the makespan W,
    and per family but P and per separator tag, its (base, step)."""

    W: int
    lengths: Mapping[str, Affine]
    separators: Mapping[str, Affine]


def evaluate(z: int, D: int) -> ClosedForms:
    """Every closed form of the reduction at (z, D), on one power table."""
    P = _powers(D)
    return ClosedForms(
        (z + 1) * (P[2] + P[3] + P[8])
        + z * (P[4] + P[5] + P[6])
        + z * (7 * z + 1) * P[7],
        {tag: length(z, P) for tag, (_, _, length) in FAMILIES.items()},
        {tag: start(z, P) for tag, start in SEPARATORS.items()},
    )


def _job_rows(forms: ClosedForms, z: int, values: tuple[int, ...]) -> list[tuple]:
    """Every job of the reduction of the 3z `values` as (id, p, q, tag,
    index), in `build_jobs` order."""
    # each index as text once: converting an int costs more than a join
    digits = [str(i) for i in range(3 * z + 1)]
    rows = []
    for tag, (q, first, _) in FAMILIES.items():
        base, step = forms.lengths[tag]
        if first is None:
            rows.append((tag, base, q, tag, None))
        else:
            head = tag + "_"
            rows += [
                (head + digits[i], base + i * step, q, tag, i)
                for i in range(first, z + 1)
            ]
    rows += [("P_" + digits[i], v, 1, "P", i) for i, v in enumerate(values, 1)]
    return rows


def build_jobs(inst: ThreePartitionInstance) -> SchedulingInstance:
    """All 12z+5 jobs of the reduction, in a fixed deterministic order."""
    z, D = _checked_params(inst)
    forms = evaluate(z, D)
    jobs = tuple(Job(*row) for row in _job_rows(forms, z, inst.values))
    sched = SchedulingInstance(MACHINES, z, D, forms.W, jobs)
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
    `build_jobs` makes of the values the P jobs carry.  The jobs are
    compared as (id, p, q, tag, index) rows with the rows `build_jobs`
    would build them from, in any order, so no second instance is built."""
    try:
        values = recover_values(inst)
        z, D = _checked_params(values)
    except InvalidInput:
        return None
    forms = evaluate(z, D)
    key = (inst.m, inst.z, inst.D, inst.W, len(inst.jobs))
    if key != (MACHINES, z, D, forms.W, 12 * z + 5):
        return None
    # a job of another class never equals a `Job`, so it leaves a row out
    got = [(j.id, j.p, j.q, j.tag, j.index) for j in inst.jobs if type(j) is Job]
    want = _job_rows(forms, z, values.values)
    # `want` holds 12z+5 rows of distinct ids and `got` at most as many, so
    # equal sets are equal multisets
    return (inst.z, inst.D) if got == want or set(got) == set(want) else None


# ===== canonical geometry =====
#
# In the orientation where a B job opens the schedule, every job outside the
# gamma and P families has exactly one possible start time in a zero-idle
# makespan-W schedule, up to swapping identical jobs.  In the package these
# closed forms feed the solver's equation rule, and `forced_starts` is
# exported; the synthesizer builds the same schedule independently, by
# accumulation, so the two derivations cross-check each other in the tests.


def _start_columns(inst: SchedulingInstance) -> dict[str, list[int]]:
    """The forward starts per tag but P, of its jobs in index order from the
    family's first index: each pinned job's forced start, and for gamma
    each window's first start, which is alpha's, where A_{j-1} and a_j
    end."""
    forms = evaluate(inst.z, inst.D)
    # the lengths read here do not depend on the index
    p = {tag: base for tag, (base, _) in forms.lengths.items()}
    (a0, a), (b0, b) = forms.separators["A"], forms.separators["B"]
    blocks = range(inst.z + 1)
    A = [a0 + i * a for i in blocks]
    B = [b0 + i * b for i in blocks]
    alpha = [s + p["A"] + p["a"] for s in A[:-1]]
    return {
        "A": A,
        "B": B,
        "c": [s + p["B"] for s in B],
        "a": [s + p["A"] for s in A[:-1]],
        "delta": [s + p["A"] for s in A[:-1]],
        "alpha": alpha,
        "beta": [s + p["B"] for s in B[:-1]],
        "b": [s + p["B"] + p["beta"] for s in B[:-1]],
        "lambda1": [0],
        "lambda2": [inst.W - p["lambda2"]],
        # a list of its own, so that a change to one column leaves the other
        "gamma": list(alpha),
    }


def forced_starts(inst: SchedulingInstance) -> dict[str, int]:
    """Forced start time of every non-gamma, non-P job of a recognised
    reduction, keyed by id; InvalidInput for any other instance."""
    if recognize(inst) is None:
        raise InvalidInput("forced_starts needs an unmodified reduction instance")
    return {
        tag if first is None else f"{tag}_{i}": s
        for tag, column in _start_columns(inst).items()
        if tag != "gamma"
        for first in (FAMILIES[tag][1],)
        for i, s in enumerate(column, first or 0)
    }


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
    has one width, every (p, q) one tag, and the gamma jobs pairwise differ
    in length; the starts of each tag pairwise differ; every value lies
    strictly between D/4 and D/2; the gaps are pairwise disjoint, and
    block k's gamma window [lo, lo + D] fills gap k = [lo, hi) with its
    gamma job, hi - lo = D + |gamma_k|; the pinned jobs hold exactly m - 1
    machines at every instant of a gap, and all m at every instant of
    [0, W) outside the gaps."""
    m, D = inst.m, inst.D
    # each job by its (tag, index) slot, kept no longer than this call,
    # unlike `inst.by_slot`, which a decision never reads
    by_slot = {(j.tag, j.index): j for j in inst.jobs}
    tables = {}
    # one sweep: the machines the pinned jobs take (or free) at each of
    # their starts (and ends), and the pinned load on each stretch between
    # two consecutive instants
    delta: defaultdict[int, int] = defaultdict(int)
    columns = _start_columns(inst)
    for tag, column in columns.items():
        first = FAMILIES[tag][1]
        slots = [None] if first is None else range(first, first + len(column))
        table = [(s, by_slot[tag, i]) for s, i in zip(column, slots)]
        tables[tag] = tuple(sorted(table, key=itemgetter(0)))
        if tag != "gamma":
            for s, job in table:
                delta[s] += job.q
                delta[s + job.p] -= job.q
    instants = sorted(delta)
    loads = accumulate(delta[x] for x in instants)
    stretches = dict(zip(zip(instants, instants[1:]), loads))
    gammas = [j for _, j in tables["gamma"]]
    # gap j runs from gamma_j's window start to B_j's start
    gaps = tuple(sorted(zip(columns["gamma"], columns["B"][1:])))
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
    shapes = {(j.p, j.q, j.tag) for j in inst.jobs}
    widths = {(tag, q) for _, q, tag in shapes}
    require(
        "the family table",
        (len({tag for tag, _ in widths}) == len(widths), "one width per tag"),
        (len({(p, q) for p, q, _ in shapes}) == len(shapes), "one tag per (p, q)"),
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
