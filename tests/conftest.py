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
starts, gamma windows and gaps from `reduction`'s closed forms, and the
placed jobs from the search's path, never from the solver's tables, so a
wrong table entry shows as a difference.  `reference_subsets` builds each
candidate's machine sets from the idle machines the same way, without the
search's `subsets`.
"""

import json
from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import Iterable
from weakref import WeakKeyDictionary

import pytest

from gadgetforge.exactnum import InvalidInput, decompose
from gadgetforge.reduction import (
    COUNT_CHAINS,
    Job,
    SchedulingInstance,
    build_jobs,
    forced_starts,
    gamma_window,
    partition_gaps,
    recognize,
)
from gadgetforge.schedule import (
    DIGIT_FAMILIES,
    AuditCheck,
    CrossingJob,
    Schedule,
)
from gadgetforge.threepartition import ThreePartitionInstance

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
    return generic(dims), Schedule(starts=starts, machines=machines)


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
    the same (p, q, tag) when the symmetry rule is on, each job's class
    (its (p, q, tag) with the rule on, the job alone with it off) and the
    equation facts (see `_equation_facts`); once per decision."""
    if search in _SCAN_ORDERS:
        return _SCAN_ORDERS[search]
    inst = search.inst
    pred, latest = {}, {}
    if search.rules.symmetry:
        cls = lambda j: (j.p, j.q, j.tag)
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
    from the instance through the closed forms of `reduction`, not from
    the solver's tables; None when the instance is not a reduction."""
    if recognize(inst) is None:
        return None
    pinned = {}
    for job_id, start in forced_starts(inst).items():
        pinned.setdefault(cls(inst.by_id[job_id]), []).append(start)
    gamma = {j.index: j for j in inst.tagged("gamma")}
    return (
        {key: sorted(starts) for key, starts in pinned.items()},
        {j.id: gamma_window(inst, j.index)[0] for j in inst.tagged("gamma")},
        [(lo, hi, gamma[j]) for j, (lo, hi) in enumerate(partition_gaps(inst), 1)],
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
    for job, subset, start, *_ in search.path:
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
    when the next smaller id with the same (p, q, tag) is still unplaced,
    and equations when the forward forced positions or the gap order
    (`gap_order_allows`) do not allow t.  A pinned job may start only at
    the k-th forced start of its class, k being the number of its class's
    placed jobs, and a gamma job only at the start of its gap.
    """
    order, pred, cls, eq = _scan_order(search)
    starts = {job.id: start for job, _, start, *_ in search.path}
    remaining = {j.id for j in order} - set(starts)
    avail = tuple(m for m, end in enumerate(path_free_times(search)) if end == t)
    placed = Counter(cls(job) for job, *_ in search.path)
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
