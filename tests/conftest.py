"""Shared hand-built fixtures.

`canonical_z1` lays out the unique (up to relabeling) zero-idle schedule for
the z=1, D=33 instance (10, 11, 12) with every start written out from the
closed forms.  It is constructed here, independently of the synthesizer, so
the package's own builders can be checked against it.

`count_finished_by` and `count_before` count finished jobs one by one, the
way the finished-before count is defined; they are the reference that
`schedule.finished_by_index` is checked against.  `reference_audit` builds
every audit row from them, the way the audit is defined; it is the
reference that the bisections of `schedule.audit` are checked against.

`carve_zero_idle` cuts the full m-machine rectangle of a random horizon
into rigid jobs of a `generic` instance, and returns the zero-idle
schedule the cutting performs.

`reference_swap` is `schedule.swap_after` written job by job, the way the
swap is defined; it is the reference that `schedule._Exchange`, which
moves only the jobs inside a window, is checked against.

`reference_verify` is `schedule.verify` as it was before its sorted
columns, with its job-universe check, kept verbatim: every call checks
the jobs, and every machine lists and sorts its (start, end, id)
triples.  It is the reference that `schedule.verify` is checked against.

`with_repeated_key` writes a document whose object names one key twice,
which every loader must refuse rather than read as the last value.

`record_builds` logs every build of the given `per_instance` facts, so a
test can count how often each fact is worked out.

`contiguous_optimum` is an exact optimizer for at most eight jobs with
every job on an interval of machines, written independently of the
solver; it is the reference that contiguous decisions are checked against.

`reference_candidates` is the solver's node scan written job by job, the
way each prune rule is stated; it is the reference that the family scan
of `solver._Search._candidates` is checked against.  It reads the forced
starts, gamma windows and gaps from the reference closed forms below, and
the placed jobs from the search's path, never from the solver's tables, so a
wrong table entry shows as a difference.  `reference_subsets` builds each
candidate's machine sets from the idle machines the same way, without the
search's `subsets`.

`reference_build_jobs`, `reference_recognize`, `reference_forced_starts`,
`reference_gamma_window`, `reference_partition_gaps`, `reference_geometry`
and `reference_plan` are the job table, recognition, closed-form geometry
and solver plan as they were before the closed forms were evaluated once
per instance, kept verbatim but for their names: every length and start
is its own power expression in D, recognition rebuilds the whole
instance and compares it, the geometry sweeps a start table keyed by id
and the plan sorts the jobs of each forced start.  They are the
references the one-pass versions in `reduction` and `solver` are checked
against, and the node scan's reference reads its closed forms from them.
The plan's reference alone has changed since: it keys its classes by
(p, q), as the symmetry rule now does, and it returns its fields in a
dict, naming jobs by id where the solver's plan names them by rank: each
class's members, each job's rank and each job's placement record.

`reference_decide` is `solver.decide_target` on `ReferenceSearch`, the
search whose forced runs place nothing, so that every placement opens a
frame, lists its candidates and is keyed: the frame-per-placement search
that the forced runs must agree with.
"""

import json
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable
from unittest.mock import patch
from weakref import WeakKeyDictionary

import pytest

from gadgetforge import solver
from gadgetforge.exactnum import InvalidInput, decompose, digit_bound, require
from gadgetforge.reduction import (
    COUNT_CHAINS,
    MACHINES,
    ForwardGeometry,
    Job,
    SchedulingInstance,
    build_jobs,
    check_jobs,
    recognize,
    recover_values,
)
from gadgetforge.schedule import (
    DIGIT_FAMILIES,
    AuditCheck,
    CrossingJob,
    Schedule,
    VerifyReport,
)
from gadgetforge.threepartition import ThreePartitionInstance, validate

D = 33

P_A = D**2
P_B = D**3
P_SMALL_A = D**4 + D**6 + 3 * D**7
P_SMALL_B = D**5 + D**6 + 3 * D**7
P_C0 = D**7 + D**8
P_C1 = 2 * D**7 + D**8
P_ALPHA = D**3 + D**5 + 4 * D**7 + D**8
P_BETA = D**2 + D**4 + 3 * D**7 + D**8
P_GAMMA = D**5 + 2 * D**7 - D
P_DELTA = D**4 + 2 * D**7
P_L1 = D**3 + D**7 + D**8
P_L2 = D**2 + 2 * D**7 + D**8


def make_canonical_z1():
    inst3p = ThreePartitionInstance((10, 11, 12))
    sched_inst = build_jobs(inst3p)

    s = {}
    s["lambda1"] = 0
    s["B_0"] = 0
    s["beta_1"] = P_B
    s["b_1"] = s["beta_1"] + P_BETA
    s["c_0"] = P_B
    s["A_0"] = s["c_0"] + P_C0
    assert s["A_0"] == P_L1  # lambda1 ends exactly where A_0 begins
    s["a_1"] = s["A_0"] + P_A
    s["delta_1"] = s["A_0"] + P_A
    s["alpha_1"] = s["a_1"] + P_SMALL_A
    s["gamma_1"] = s["alpha_1"]
    s["P_1"] = s["gamma_1"] + P_GAMMA
    s["P_2"] = s["P_1"] + 10
    s["P_3"] = s["P_2"] + 11
    s["B_1"] = s["P_3"] + 12
    assert s["B_1"] == s["b_1"] + P_SMALL_B  # M4 and M2 agree on B_1
    assert s["B_1"] == s["delta_1"] + P_DELTA + P_SMALL_B
    s["c_1"] = s["B_1"] + P_B
    s["A_1"] = s["c_1"] + P_C1
    assert s["A_1"] == s["alpha_1"] + P_ALPHA
    s["lambda2"] = s["B_1"] + P_B
    W = s["A_1"] + P_A
    assert W == s["lambda2"] + P_L2
    assert W == sched_inst.W

    machines = {
        "lambda1": frozenset({1}),
        "A_0": frozenset({1, 2, 3}),
        "A_1": frozenset({1, 2, 3}),
        "a_1": frozenset({1, 2}),
        "alpha_1": frozenset({1}),
        "B_0": frozenset({2, 3, 4}),
        "B_1": frozenset({2, 3, 4}),
        "c_0": frozenset({2, 3}),
        "c_1": frozenset({2, 3}),
        "gamma_1": frozenset({2}),
        "P_1": frozenset({2}),
        "P_2": frozenset({2}),
        "P_3": frozenset({2}),
        "delta_1": frozenset({3}),
        "b_1": frozenset({3, 4}),
        "beta_1": frozenset({4}),
        "lambda2": frozenset({4}),
    }
    return inst3p, sched_inst, Schedule(starts=s, machines=machines)


@pytest.fixture
def canonical_z1():
    return make_canonical_z1()


def generic(dims, m=4):
    jobs = tuple(
        Job(id=f"J{i}", p=p, q=q, tag="J", index=i)
        for i, (p, q) in enumerate(dims)
    )
    return SchedulingInstance(m=m, z=0, D=0, W=0, jobs=jobs)


def carve_zero_idle(rng, horizon, m=4):
    """Cut the full m x horizon rectangle into rigid jobs; returns the
    instance together with the witness schedule the cutting performs."""
    free = [0] * m
    dims, starts, machines = [], {}, {}
    while min(free) < horizon:
        t = min(free)
        avail = [k for k in range(m) if free[k] == t]
        q = rng.randint(1, len(avail))
        p = rng.randint(1, horizon - t)
        job_id = f"J{len(dims)}"
        lanes = rng.sample(avail, q)
        for k in lanes:
            free[k] = t + p
        dims.append((p, q))
        starts[job_id] = t
        machines[job_id] = frozenset(k + 1 for k in lanes)
    return generic(dims, m), Schedule(starts=starts, machines=machines)


def reference_swap(
    inst: SchedulingInstance, sched: Schedule, t: int, m1: int, m2: int
) -> Schedule:
    """`swap_after` without its input checks, visiting every job: one on
    both or neither of m1 and m2, or ending by t, keeps its set, one
    starting at or after t trades m1 for m2 or m2 for m1, and the first
    other one, in instance order, raises CrossingJob."""
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


def _reference_job_universe(inst: SchedulingInstance, sched: Schedule) -> None:
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


def reference_verify(inst: SchedulingInstance, sched: Schedule) -> VerifyReport:
    check_jobs(inst.jobs, inst.m)
    _reference_job_universe(inst, sched)
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


def with_repeated_key(document, path, key, value) -> str:
    """`document` as JSON text in which the object at `path` (keys and list
    indices, empty for the top level) names `key` once more, with `value`,
    in front of its own pairs."""
    copy = json.loads(json.dumps(document))
    holder, target = None, copy
    for step in path:
        holder, target = target, target[step]
    pairs = [(key, value), *target.items()]
    text = "{" + ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in pairs) + "}"
    if holder is None:
        return text
    marker = "\0repeated key"
    holder[path[-1]] = marker
    return json.dumps(copy).replace(json.dumps(marker), text)


def record_builds(monkeypatch, *facts) -> list[tuple]:
    """Patch each `reduction.per_instance` function in `facts` to log each
    build as (name, instance, arguments) to the returned list; the calls
    that read a kept value log nothing."""
    builds = []
    for fact in facts:

        def logged(inst, *args, name=fact.__name__, build=fact.__wrapped__):
            builds.append((name, inst, args))
            return build(inst, *args)

        monkeypatch.setattr(fact, "__wrapped__", logged)
    return builds


def count_finished_by(
    inst: SchedulingInstance, sched: Schedule, t: int, job_ids: Iterable[str]
) -> int:
    """|{j : start(j) + p(j) <= t}| over the given ids."""
    total = 0
    for job_id in job_ids:
        job = inst.by_id.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if sched.starts[job_id] + job.p <= t:
            total += 1
    return total


def count_before(
    inst: SchedulingInstance,
    sched: Schedule,
    anchor_id: str,
    job_ids: Iterable[str],
) -> int:
    """#_anchor S: members of S finished by the anchor job's start."""
    if anchor_id not in inst.by_id:
        raise KeyError(anchor_id)
    return count_finished_by(inst, sched, sched.starts[anchor_id], job_ids)


def reference_audit(inst: SchedulingInstance, sched: Schedule) -> list[AuditCheck]:
    """The rows of `schedule.audit`, each counted by scanning every job.

    Checkpoints (the families keyed in `COUNT_CHAINS`) in (start, id)
    order; for each, a failed `decompose` row, or else one row per machine
    it runs on, in ascending order, and per digit power of
    `DIGIT_FAMILIES`, and then one row per later term of its chain against
    the first, each term read from its text in `COUNT_CHAINS`.  Raises
    InvalidInput for an instance that is not a reduction and for a
    schedule off W or with idle, as the audit does; the schedule must hold
    every job of the instance."""
    if recognize(inst) is None:
        raise InvalidInput("audit requires an unmodified reduction instance")
    makespan = max(sched.starts[j.id] + j.p for j in inst.jobs)
    idle = inst.m * makespan - sum(j.p * j.q for j in inst.jobs)
    if makespan != inst.W or idle != 0:
        raise InvalidInput(
            f"makespan {makespan} with arithmetic idle {idle}; audit needs "
            f"makespan {inst.W} and zero idle"
        )

    def count(t: int, tags, machine=None) -> int:
        ids = [
            j.id
            for j in inst.jobs
            if j.tag in tags and (machine is None or machine in sched.machines[j.id])
        ]
        return count_finished_by(inst, sched, t, ids)

    rows = []
    checkpoints = [j for j in inst.jobs if j.tag in COUNT_CHAINS]
    for job in sorted(checkpoints, key=lambda j: (sched.starts[j.id], j.id)):
        t = sched.starts[job.id]
        try:
            cv = decompose(t, inst.z, inst.D)
        except InvalidInput as exc:
            rows.append(
                AuditCheck(job.id, t, None, "decompose", "clean decomposition", str(exc), False)
            )
            continue
        for m in sorted(sched.machines[job.id]):
            for power, families in DIGIT_FAMILIES.items():
                want, got = cv.digit(power), count(t, families, m)
                rows.append(AuditCheck(job.id, t, m, f"load:x{power}", want, got, want == got))
        terms = []
        for term in COUNT_CHAINS[job.tag]:
            first, *rest = term.split()
            name, value = f"count({first})", count(t, (first,))
            for sign, tag in zip(rest[::2], rest[1::2]):
                name += f" {sign} count({tag})"
                value += (1 if sign == "+" else -1) * count(t, (tag,))
            terms.append((name, value))
        (base, want), *others = terms
        for name, got in others:
            kind = f"eq:{job.tag}[{base} = {name}]"
            rows.append(AuditCheck(job.id, t, None, kind, want, got, want == got))
    return rows


_SCAN_ORDERS: WeakKeyDictionary = WeakKeyDictionary()


def _scan_order(search):
    """The jobs in (-q, -p, id) order, each job's closest smaller id with
    the same (p, q) when the symmetry rule is on, each job's class (its
    (p, q) with the rule on, the job alone with it off) and the
    equation facts (see `_equation_facts`); once per decision."""
    if search in _SCAN_ORDERS:
        return _SCAN_ORDERS[search]
    inst = search.inst
    pred, latest = {}, {}
    if search.rules.symmetry:
        cls = lambda j: (j.p, j.q)
        for j in sorted(inst.jobs, key=lambda j: j.id):
            key = cls(j)
            if key in latest:
                pred[j.id] = latest[key]
            latest[key] = j.id
    else:
        cls = lambda j: j.id
    order = sorted(inst.jobs, key=lambda j: (-j.q, -j.p, j.id))
    facts = None
    if search.rules.equations and search.target == inst.W:
        facts = _equation_facts(inst, cls)
    _SCAN_ORDERS[search] = order, pred, cls, facts
    return order, pred, cls, facts


def _equation_facts(inst: SchedulingInstance, cls):
    """The forward forced starts of each class `cls` names, in ascending
    order, each gamma job's start (the first start of its window) and the
    value-job gaps, block j's gap paired with block j's gamma job, read
    from the instance through the reference closed forms, not from the
    solver's tables; None when the instance is not a reduction."""
    if reference_recognize(inst) is None:
        return None
    pinned = {}
    for job_id, start in reference_forced_starts(inst).items():
        pinned.setdefault(cls(inst.by_id[job_id]), []).append(start)
    gamma = {j.index: j for j in inst.tagged("gamma")}
    return (
        {key: sorted(starts) for key, starts in pinned.items()},
        {j.id: reference_gamma_window(inst, j.index)[0] for j in inst.tagged("gamma")},
        [
            (lo, hi, gamma[j])
            for j, (lo, hi) in enumerate(reference_partition_gaps(inst), 1)
        ],
    )


def gap_order_allows(job, t: int, gaps, remaining, values, D: int) -> bool:
    """Whether the value job `job` may start at t by the gap order: inside
    the gap [lo, hi) that holds t once the gap's gamma job is placed, with
    rest = hi - t still to fill, as the first value of the gap (rest = D)
    the first unplaced value in (-p, id) order, as the second (2 rest > D)
    at least the third, rest - p, which must be another unplaced value, and
    as the third (any other rest) filling the gap.  `values` maps the
    unplaced values' ids to their lengths."""
    for lo, hi, gamma in gaps:
        if not lo <= t < hi or gamma.id in remaining:
            continue
        p, rest = job.p, hi - t
        if rest == D:
            return job.id == min(values, key=lambda i: (-values[i], i))
        if 2 * rest > D:
            others = [v for i, v in values.items() if i != job.id]
            return 2 * p >= rest and rest - p in others
        return p == rest
    return False


def path_free_times(search) -> list[int]:
    """Each machine's free time, the latest end of the jobs on the search's
    path that run on it, read from the path alone."""
    free = [0] * search.m
    for r, subset, start, *_ in search.path:
        job = search.jobs[r]
        for m in subset:
            free[m] = max(free[m], start + job.p)
    return free


def reference_subsets(search, avail: tuple[int, ...], q: int):
    """Every set of q of the idle machines `avail` that holds the lowest of
    them, in lexicographic order: only the intervals in contiguous mode, and
    only the first set in plain mode under the symmetry rule."""
    sets = [s for s in combinations(avail, q) if s[0] == avail[0]]
    if search.contiguous:
        return [s for s in sets if s[-1] - s[0] == q - 1]
    if search.rules.symmetry:
        return sets[:1]
    return sets


def reference_candidates(search, t: int):
    """The candidates of `search` at its earliest free instant t and the
    prunes they add, found by visiting every job in (-q, -p, id) order; the
    search itself is left untouched.

    Each job is rejected by the first rule that rejects it: no-fit when it
    is wider than the idle machines or longer than the room left, symmetry
    when the next smaller id with the same (p, q) is still unplaced,
    and equations when the forward forced positions or the gap order
    (`gap_order_allows`) do not allow t.  A pinned job may start only at
    the k-th forced start of its class, k being the number of its class's
    placed jobs, and a gamma job only at the start of its gap.
    """
    order, pred, cls, eq = _scan_order(search)
    placed_jobs = [search.jobs[r] for r, *_ in search.path]
    remaining = {j.id for j in order} - {j.id for j in placed_jobs}
    avail = tuple(m for m, end in enumerate(path_free_times(search)) if end == t)
    placed = Counter(map(cls, placed_jobs))
    room = search.target - t
    counts = Counter()
    unplaced_values = {j.id: j.p for j in order if j.tag == "P" and j.id in remaining}
    out = []
    for job in order:
        jid = job.id
        if jid not in remaining:
            continue
        if job.q > len(avail) or job.p > room:
            counts["no-fit"] += 1
            continue
        if pred.get(jid) in remaining:
            counts["symmetry"] += 1
            continue
        if eq is not None:
            pinned, gamma_starts, gaps = eq
            if job.tag == "P":
                ok = gap_order_allows(
                    job, t, gaps, remaining, unplaced_values, search.inst.D
                )
            elif job.tag == "gamma":
                ok = gamma_starts[jid] == t
            else:
                ok = pinned[cls(job)][placed[cls(job)]] == t
            if not ok:
                counts["equations"] += 1
                continue
        for subset in reference_subsets(search, avail, job.q):
            out.append((job, subset))
    return out, counts


def contiguous_optimum(jobs, m: int = 4, cap: int | None = None) -> int | None:
    """The least makespan of the rigid `jobs` (at most eight) on m machines
    with every job on an interval of machines; with `cap`, the least one
    that is at most `cap`, or None when there is none.

    It branches over job orders and intervals, and starts each job at the
    largest free time on its interval.  That is exact: replaying an optimal
    schedule's jobs in start order, on their own intervals, starts each
    job no later than it starts there, since every job placed before it on
    one of its machines ends by then.  States are memoized on the remaining
    jobs and the unsorted free times; of identical remaining jobs only the
    first is branched on.  Under `cap`, a job that would end past it is not
    placed, and a state whose remaining work exceeds the room left below
    it on the machines is a dead end."""
    jobs = tuple(jobs)
    assert len(jobs) <= 8
    limit = float("inf") if cap is None else cap

    @lru_cache(maxsize=None)
    def best(rem: frozenset, free: tuple) -> float:
        if not rem:
            return max(free)
        top, seen = float("inf"), set()
        if sum(jobs[i].p * jobs[i].q for i in rem) > sum(limit - f for f in free):
            return top
        for i in sorted(rem):
            p, q = jobs[i].p, jobs[i].q
            if (p, q) in seen:
                continue
            seen.add((p, q))
            for lo in range(m - q + 1):
                end = max(free[lo : lo + q]) + p
                if end <= limit:
                    after = free[:lo] + (end,) * q + free[lo + q :]
                    top = min(top, best(rem - {i}, after))
        return top

    top = best(frozenset(range(len(jobs))), (0,) * m)
    return None if top == float("inf") else top


class ReferenceSearch(solver._Search):
    """A search whose forced run places nothing: the loop then opens a frame
    at each forced start too, one per placement."""

    def _run(self, t, most):
        return t, 0


def reference_decide(*args, **kwargs):
    """`solver.decide_target` on `ReferenceSearch`."""
    with patch.object(solver, "_Search", ReferenceSearch):
        return solver.decide_target(*args, **kwargs)


# ===== the closed forms, recognition, geometry and plan, one form each =====

REFERENCE_FAMILIES = {
    "A": (3, 0, lambda z, j, D: D**2),
    "B": (3, 0, lambda z, j, D: D**3),
    "a": (2, 1, lambda z, j, D: D**4 + D**6 + 3 * z * D**7),
    "b": (2, 1, lambda z, j, D: D**5 + D**6 + 3 * z * D**7),
    "c": (2, 0, lambda z, j, D: (z + j) * D**7 + D**8),
    "alpha": (1, 1, lambda z, j, D: D**3 + D**5 + 4 * z * D**7 + D**8),
    "beta": (1, 1, lambda z, j, D: D**2 + D**4 + (4 * z - 1) * D**7 + D**8),
    "gamma": (1, 1, lambda z, j, D: D**5 + (3 * z - j) * D**7 - D),
    "delta": (1, 1, lambda z, j, D: D**4 + (3 * z - j) * D**7),
    "lambda1": (1, None, lambda z, j, D: D**3 + z * D**7 + D**8),
    "lambda2": (1, None, lambda z, j, D: D**2 + 2 * z * D**7 + D**8),
}


def reference_length(tag: str, z: int, D: int, index: int = 0) -> int:
    return REFERENCE_FAMILIES[tag][2](z, index, D)


def reference_build_jobs(inst: ThreePartitionInstance) -> SchedulingInstance:
    problems = validate(inst)
    if problems:
        raise InvalidInput("; ".join(problems))
    z, D = inst.z, inst.D
    if D <= digit_bound(z):
        raise InvalidInput(f"D={D} must exceed 4z(7z+1)={digit_bound(z)}")
    W = (
        (z + 1) * (D**2 + D**3 + D**8)
        + z * (D**4 + D**5 + D**6)
        + z * (7 * z + 1) * D**7
    )
    jobs = [
        Job(tag if i is None else f"{tag}_{i}", length(z, i or 0, D), q, tag, i)
        for tag, (q, first, length) in REFERENCE_FAMILIES.items()
        for i in ([None] if first is None else range(first, z + 1))
    ]
    jobs += [Job(f"P_{i}", v, 1, "P", i) for i, v in enumerate(inst.values, 1)]
    return SchedulingInstance(MACHINES, z, D, W, tuple(jobs))


def reference_recognize(inst: SchedulingInstance) -> tuple[int, int] | None:
    try:
        rebuilt = reference_build_jobs(recover_values(inst))
    except InvalidInput:
        return None
    key = lambda i: (i.m, i.z, i.D, i.W, len(i.jobs), i.by_id)
    return (inst.z, inst.D) if key(inst) == key(rebuilt) else None


def reference_separator_start(tag: str, i: int, z: int, D: int) -> int:
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


def reference_forced_starts(inst: SchedulingInstance) -> dict[str, int]:
    z, D = inst.z, inst.D
    p = {tag: reference_length(tag, z, D) for tag in ("A", "B", "a", "beta", "lambda2")}
    starts: dict[str, int] = {}
    for i in range(z + 1):
        starts[f"A_{i}"] = reference_separator_start("A", i, z, D)
        starts[f"B_{i}"] = reference_separator_start("B", i, z, D)
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


def reference_gamma_window(inst: SchedulingInstance, j: int) -> tuple[int, int]:
    z, D = inst.z, inst.D
    lo = (
        reference_separator_start("A", j - 1, z, D)
        + reference_length("A", z, D)
        + reference_length("a", z, D)
    )
    return lo, lo + D


def reference_partition_gaps(inst: SchedulingInstance) -> tuple[tuple[int, int], ...]:
    z, D = inst.z, inst.D
    gaps = []
    for j in range(1, z + 1):
        lo, _ = reference_gamma_window(inst, j)
        gaps.append((lo, reference_separator_start("B", j, z, D)))
    return tuple(gaps)


def reference_geometry(inst: SchedulingInstance) -> ForwardGeometry:
    m, D = inst.m, inst.D
    starts: dict[str, list[tuple[int, Job]]] = {}
    delta: dict[int, int] = {}
    for job_id, s in reference_forced_starts(inst).items():
        job = inst.by_id[job_id]
        starts.setdefault(job.tag, []).append((s, job))
        delta[s] = delta.get(s, 0) + job.q
        delta[s + job.p] = delta.get(s + job.p, 0) - job.q
    instants = sorted(delta)
    loads = accumulate(delta[x] for x in instants)
    stretches = dict(zip(zip(instants, instants[1:]), loads))
    gammas = inst.tagged("gamma")
    starts["gamma"] = [(reference_gamma_window(inst, j.index)[0], j) for j in gammas]
    tables = {tag: tuple(sorted(t, key=itemgetter(0))) for tag, t in starts.items()}
    gaps = tuple(sorted(reference_partition_gaps(inst)))
    for tag, table in tables.items():
        distinct = all(s < u for (s, _), (u, _) in zip(table, table[1:]))
        require(f"the {tag} starts", (distinct, "pairwise distinct"))
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


def reference_plan(inst: SchedulingInstance, symmetry: bool, equations: bool):
    order = sorted(inst.jobs, key=lambda j: (-j.q, -j.p, j.id))
    if symmetry:
        key = lambda j: (j.p, j.q)
    else:
        key = lambda j: j.id
    classes: dict = {}
    for j in order:
        classes.setdefault(key(j), []).append(j)
    members = tuple(map(tuple, classes.values()))
    rank = {j.id: i for i, j in enumerate(order)}
    cls_p = tuple(js[0].p for js in members)
    families: dict = {}
    for c, js in enumerate(members):
        j = js[0]
        families.setdefault((j.q, j.tag) if equations else j.q, []).append(c)
    scanned = [
        cs for cs in families.values() if not equations or members[cs[0]][0].tag == "P"
    ]
    fam_of = {c: f for f, cs in enumerate(scanned) for c in cs}
    rec = {
        j.id: (c, fam_of.get(c), len(js), 1 << rank[j.id], j.p, j.q)
        for c, js in enumerate(members)
        for j in js
    }
    left = [0] * (inst.m + 1)
    for j in order:
        left[j.q] += 1
    forced: dict[int, list[tuple[int, int, int]]] = {}
    if equations:
        geometry = reference_geometry(inst)
        cls = lambda job: rec[job.id][0]
        (values,) = scanned
        by_len: dict[int, list[int]] = {}
        for c in values:
            by_len.setdefault(cls_p[c], []).append(c)
        lows = tuple(lo for lo, _ in geometry.gaps)
        ends = tuple(hi for _, hi in geometry.gaps)
        gammas = tuple(cls(g) for _, g in geometry.starts["gamma"])
        facts = (lows, ends, gammas, by_len, inst.D)
        specs = [(0, members[values[0]][0].q, facts)]
        kth: Counter[int] = Counter()
        for starts in geometry.starts.values():
            for s, job in starts:
                c = cls(job)
                forced.setdefault(s, []).append((job.q, c, kth[c]))
                kth[c] += 1
    else:
        specs = [(f, members[cs[0]][0].q, None) for f, cs in enumerate(scanned)]
    forced_classes = [c for c in range(len(members)) if c not in fam_of]
    open_forced = [0] * (inst.m + 1)
    for c in forced_classes:
        open_forced[members[c][0].q] += 1
    upto = tuple(
        tuple(spec for spec in specs if spec[1] <= w) for w in range(inst.m + 1)
    )
    return dict(
        members=members,
        rank=rank,
        cls_p=cls_p,
        rec=rec,
        live=tuple(map(tuple, scanned)),
        left=tuple(left),
        upto=upto,
        forced={
            s: tuple(sorted(at, key=lambda e: rank[members[e[1]][e[2]].id]))
            for s, at in forced.items()
        },
        open_forced=tuple(open_forced),
    )
