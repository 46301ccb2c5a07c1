"""Exact deciders for the four-machine rigid-job makespan question.

`decide_target` answers "is there a schedule of makespan exactly T" for
instances whose total work equals 4T.  Any such schedule keeps all four
machines busy from 0 to T, so the search only ever branches on which job
covers the earliest free machine; that restriction is what keeps reduction
instances decidable at desk scale.  A mismatched work total never reaches
the search: more work than 4T already proves no target schedule exists,
and less work makes the zero-idle method inapplicable, so the call is
refused rather than answered wrongly.

Three pruning rules cut the tree, each individually toggleable so its
effect can be measured:

* ``symmetry``    - collapse machine relabelings (machines free at the same
  instant are interchangeable unless contiguity pins them down) and force
  identical jobs to be placed in ascending id order.
* ``coeff_budget`` - track per-machine digit sums in the mixed-radix
  representation and cut any branch where a digit would exceed the target's.
  Activates only when the target and every length decompose cleanly and the
  per-power totals are too small to carry.
* ``equations``   - on reduction instances searched at their own target,
  enforce the count chains of `reduction.COUNT_CHAINS` and the forced start
  positions (forward or mirrored, tracked as a shrinking orientation set)
  that every feasible target schedule satisfies.

All three rules are sound, so a ProvedNone outcome still means the entire
space of zero-idle schedules was covered.  Both deciders reject malformed
jobs (a duplicate id, q outside 1..m, p below 1) with ValueError.

`optimize_small` is an independent exact optimizer for a handful of jobs:
branch and bound over job orders with greedy least-loaded placement.  An
exchange argument shows the order of any optimal schedule greedily replays
to an equal or better one, so the minimum over orders is exact.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .exactnum import POWERS, decompose
from .reduction import (
    CHECKPOINT_TAGS,
    Job,
    SchedulingInstance,
    chain_values,
    forced_starts,
    gamma_window,
    partition_gaps,
    recognize,
)
from .schedule import Schedule, verify
from .threepartition import SearchBudgetExceeded

DEFAULT_BUDGET = 10_000_000

_FWD = 1
_MIR = 2


@dataclass(frozen=True)
class PruneRules:
    symmetry: bool = True
    coeff_budget: bool = True
    equations: bool = True


@dataclass(frozen=True)
class Decision:
    """Outcome of a target-makespan decision.

    outcome is one of "witness", "proved-none", "budget-exceeded" or
    "refused".  A witness schedule has already been re-verified against the
    instance before the Decision is returned; proved-none is only produced
    by arithmetic (work overflow) or by exhausting the whole search space.
    """

    outcome: str
    schedule: Schedule | None
    nodes: int
    prunes: Mapping[str, int] = field(default_factory=dict)
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "nodes": self.nodes,
            "prunes": {k: self.prunes[k] for k in sorted(self.prunes)},
            "reason": self.reason,
            "witness": (
                json.loads(self.schedule.to_json()) if self.schedule else None
            ),
        }


class _BudgetHit(Exception):
    pass


def _check_jobs(jobs: Iterable[Job], m: int) -> None:
    seen: set[str] = set()
    for j in jobs:
        if not 1 <= j.q <= m:
            raise ValueError(f"job {j.id!r} needs {j.q} of {m} machines")
        if j.p <= 0:
            raise ValueError(f"job {j.id!r} has nonpositive length {j.p}")
        if j.id in seen:
            raise ValueError(f"job id {j.id!r} is used twice")
        seen.add(j.id)


def _identical_predecessors(jobs: Iterable[Job], key) -> dict[str, str]:
    """Each job id mapped to the closest smaller id whose job has the same
    key, so that identical jobs can be placed in ascending id order only."""
    pred: dict[str, str] = {}
    latest: dict[tuple, str] = {}
    for j in sorted(jobs, key=lambda j: j.id):
        if key(j) in latest:
            pred[j.id] = latest[key(j)]
        latest[key(j)] = j.id
    return pred


def _coeff_tables(inst: SchedulingInstance, target: int):
    """Digit caps and per-job digit rows, or None when the rule is unsound.

    Soundness needs every digit nonnegative and the per-power totals over
    all jobs below D, so that digit sums can never carry between powers; a
    machine whose running digit exceeds the target's can then never reach
    the target load exactly.
    """
    z, D = inst.z, inst.D
    try:
        tvec = decompose(target, z, D)
        jvecs = {j.id: decompose(j.p, z, D) for j in inst.jobs}
    except ValueError:
        return None
    caps = tuple(tvec.digit(k) for k in POWERS)
    rows = {jid: tuple(v.digit(k) for k in POWERS) for jid, v in jvecs.items()}
    for i in range(len(POWERS)):
        if sum(row[i] for row in rows.values()) >= D:
            return None
    if sum(abs(v.x0) for v in jvecs.values()) + abs(tvec.x0) >= D * D:
        return None
    return caps, rows


@dataclass(frozen=True)
class _EquationTables:
    """Forced start positions of a reduction instance, both orientations.

    Jobs with pinned starts are grouped by family: the k-th family member
    placed (placements happen in nondecreasing time) must start at the k-th
    smallest pinned value.  Window jobs and value jobs only get interval
    membership checks, which is weaker but still sound.
    """

    fam_fwd: Mapping[str, tuple[int, ...]]
    fam_mir: Mapping[str, tuple[int, ...]]
    gamma_fwd: Mapping[str, tuple[int, int]]
    gamma_mir: Mapping[str, tuple[int, int]]
    gaps_fwd: tuple[tuple[int, int], ...]
    gaps_mir: tuple[tuple[int, int], ...]


def _equation_tables(inst: SchedulingInstance) -> _EquationTables | None:
    if recognize(inst) is None:
        return None
    W = inst.W
    pinned = forced_starts(inst)
    fwd: dict[str, list[int]] = {}
    mir: dict[str, list[int]] = {}
    for job_id, s in pinned.items():
        job = inst.by_id[job_id]
        fwd.setdefault(job.tag, []).append(s)
        mir.setdefault(job.tag, []).append(W - s - job.p)
    gamma_fwd, gamma_mir = {}, {}
    for j in inst.tagged("gamma"):
        lo, hi = gamma_window(inst, j.index)
        gamma_fwd[j.id] = (lo, hi)
        gamma_mir[j.id] = (W - hi - j.p, W - lo - j.p)
    gaps = partition_gaps(inst)
    return _EquationTables(
        fam_fwd={k: tuple(sorted(v)) for k, v in fwd.items()},
        fam_mir={k: tuple(sorted(v)) for k, v in mir.items()},
        gamma_fwd=gamma_fwd,
        gamma_mir=gamma_mir,
        gaps_fwd=gaps,
        gaps_mir=tuple(sorted((W - hi, W - lo) for lo, hi in gaps)),
    )


class _Context:
    """Immutable per-decision data shared by every search branch."""

    def __init__(self, inst, target, contiguous, rules, budget):
        self.inst = inst
        self.m = inst.m
        self.target = target
        self.contiguous = contiguous
        self.rules = rules
        self.budget = budget
        self.by_id = inst.by_id
        self.order = tuple(sorted(inst.jobs, key=lambda j: (-j.q, -j.p, j.id)))
        self.pred = _identical_predecessors(inst.jobs, lambda j: (j.p, j.q, j.tag))
        self.coeff = _coeff_tables(inst, target) if rules.coeff_budget else None
        self.eq = None
        if rules.equations and target == inst.W:
            self.eq = _equation_tables(inst)


class _Search:
    """One mutable depth-first search over zero-idle schedule prefixes."""

    def __init__(self, ctx: _Context):
        self.ctx = ctx
        self.free = [0] * ctx.m
        self.remaining = set(ctx.by_id)
        self.starts: dict[str, int] = {}
        self.placed: dict[str, tuple[int, ...]] = {}
        self.nodes = 0
        self.prunes: Counter[str] = Counter()
        self.orient = _FWD | _MIR
        self.fam_count: Counter[str] = Counter()
        self.acc = (
            [[0] * len(POWERS) for _ in range(ctx.m)] if ctx.coeff else None
        )

    # ----- candidate generation -----

    def _subsets(self, avail: list[int], q: int) -> list[tuple[int, ...]]:
        mstar = avail[0]
        if self.ctx.contiguous:
            pool = set(avail)
            runs = []
            for lo in range(self.ctx.m - q + 1):
                run = tuple(range(lo, lo + q))
                if mstar in run and all(m in pool for m in run):
                    runs.append(run)
            return runs
        if self.ctx.rules.symmetry:
            # machines idle at the same instant are interchangeable
            return [tuple(avail[:q])]
        return [
            (mstar, *rest) for rest in combinations(avail[1:], q - 1)
        ]

    def _chain_ok(self, tag: str, t: int) -> bool:
        fin: Counter[str] = Counter()
        by_id = self.ctx.by_id
        for jid, s in self.starts.items():
            job = by_id[jid]
            if s + job.p <= t:
                fin[job.tag] += 1
        return len(set(chain_values(tag, fin.__getitem__).values())) == 1

    def _equation_mask(self, job: Job, t: int) -> int:
        eq = self.ctx.eq
        bits = 0
        if job.tag == "gamma":
            lo, hi = eq.gamma_fwd[job.id]
            if lo <= t <= hi:
                bits |= _FWD
            lo, hi = eq.gamma_mir[job.id]
            if lo <= t <= hi:
                bits |= _MIR
        elif job.tag == "P":
            if any(lo <= t and t + job.p <= hi for lo, hi in eq.gaps_fwd):
                bits |= _FWD
            if any(lo <= t and t + job.p <= hi for lo, hi in eq.gaps_mir):
                bits |= _MIR
        else:
            k = self.fam_count[job.tag]
            if eq.fam_fwd[job.tag][k] == t:
                bits |= _FWD
            if eq.fam_mir[job.tag][k] == t:
                bits |= _MIR
        bits &= self.orient
        if bits and job.tag in CHECKPOINT_TAGS and not self._chain_ok(job.tag, t):
            return 0
        return bits

    def _coeff_ok(self, job: Job, subset: tuple[int, ...]) -> bool:
        caps, rows = self.ctx.coeff
        row = rows[job.id]
        for m in subset:
            acc = self.acc[m]
            for i, cap in enumerate(caps):
                if acc[i] + row[i] > cap:
                    return False
        return True

    def _candidates(self, t: int) -> list[tuple[Job, tuple[int, ...], int]]:
        ctx = self.ctx
        avail = [m for m in range(ctx.m) if self.free[m] == t]
        width = len(avail)
        out = []
        for job in ctx.order:
            if job.id not in self.remaining:
                continue
            if job.q > width or t + job.p > ctx.target:
                self.prunes["no-fit"] += 1
                continue
            if ctx.rules.symmetry:
                prev = ctx.pred.get(job.id)
                if prev is not None and prev in self.remaining:
                    self.prunes["symmetry"] += 1
                    continue
            mask = self.orient
            if ctx.eq is not None:
                mask = self._equation_mask(job, t)
                if mask == 0:
                    self.prunes["equations"] += 1
                    continue
            for subset in self._subsets(avail, job.q):
                if self.acc is not None and not self._coeff_ok(job, subset):
                    self.prunes["coeff-budget"] += 1
                    continue
                out.append((job, subset, mask))
        return out

    # ----- state transitions -----

    def _place(self, job, subset, t, mask):
        self.nodes += 1
        if self.nodes > self.ctx.budget:
            raise _BudgetHit
        self.remaining.remove(job.id)
        self.starts[job.id] = t
        self.placed[job.id] = subset
        for m in subset:
            self.free[m] = t + job.p
        old_mask = self.orient
        if self.ctx.eq is not None:
            self.orient = mask
            self.fam_count[job.tag] += 1
        if self.acc is not None:
            row = self.ctx.coeff[1][job.id]
            for m in subset:
                acc = self.acc[m]
                for i, d in enumerate(row):
                    acc[i] += d
        return (job, subset, t, old_mask)

    def _unplace(self, undo):
        job, subset, t, old_mask = undo
        del self.starts[job.id]
        del self.placed[job.id]
        self.remaining.add(job.id)
        for m in subset:
            self.free[m] = t
        if self.ctx.eq is not None:
            self.orient = old_mask
            self.fam_count[job.tag] -= 1
        if self.acc is not None:
            row = self.ctx.coeff[1][job.id]
            for m in subset:
                acc = self.acc[m]
                for i, d in enumerate(row):
                    acc[i] -= d

    def _snapshot(self) -> Schedule:
        return Schedule(
            starts=dict(self.starts),
            machines={
                jid: frozenset(m + 1 for m in subset)
                for jid, subset in self.placed.items()
            },
        )

    def search(self) -> Schedule | None:
        if not self.remaining:
            return self._snapshot()
        t = min(self.free)
        if t >= self.ctx.target:
            return None
        for job, subset, mask in self._candidates(t):
            undo = self._place(job, subset, t, mask)
            found = self.search()
            if found is not None:
                return found
            self._unplace(undo)
        return None


def decide_target(
    inst: SchedulingInstance,
    target: int,
    contiguous: bool = False,
    *,
    budget: int = DEFAULT_BUDGET,
    rules: PruneRules | None = None,
) -> Decision:
    """Decide whether some schedule finishes exactly at `target`.

    Requires total work equal to 4*target; above that the answer is a
    proved negative by arithmetic, below it the zero-idle search would be
    incomplete, so the decision is refused.  `budget` caps the nodes each
    root branch may expand.  With `contiguous` the machine set of every job
    must be an interval, matching the strip-packing reading.
    """
    _check_jobs(inst.jobs, inst.m)
    rules = rules or PruneRules()
    total = inst.total_work
    if total > 4 * target:
        return Decision(
            "proved-none",
            None,
            0,
            reason=(
                f"work-overflow: total work {total} exceeds 4*{target}, "
                "some machine must run past the target"
            ),
        )
    if total < 4 * target:
        return Decision(
            "refused",
            None,
            0,
            reason=(
                f"work-underflow: total work {total} is below 4*{target}; a "
                "target schedule would have to idle, which this zero-idle "
                "search cannot rule on"
            ),
        )
    if not inst.jobs:
        return Decision("witness", Schedule(starts={}, machines={}), 0)

    ctx = _Context(inst, target, contiguous, rules, budget)
    probe = _Search(ctx)
    roots = probe._candidates(0)
    nodes = 0
    prunes = Counter(probe.prunes)
    witness = None
    starved = False
    for job, subset, mask in roots:
        branch = _Search(ctx)
        try:
            branch._place(job, subset, 0, mask)
            witness = branch.search()
        except _BudgetHit:
            starved = True
        nodes += branch.nodes
        prunes.update(branch.prunes)
        if witness is not None:
            break

    if witness is not None:
        report = verify(inst, witness)
        assert report.feasible and report.makespan == target and report.idle == 0
        if contiguous:
            assert report.contiguous
        return Decision("witness", witness, nodes, dict(prunes))
    if starved:
        return Decision(
            "budget-exceeded",
            None,
            nodes,
            dict(prunes),
            reason=f"node budget {budget} per root branch exhausted",
        )
    return Decision(
        "proved-none",
        None,
        nodes,
        dict(prunes),
        reason="exhausted: every zero-idle branch reached a dead end",
    )


def optimize_small(
    jobs: Sequence[Job] | Iterable[Job], m: int = 4, budget: int = 1_000_000
) -> tuple[int, Schedule]:
    """Exact minimal makespan for at most eight rigid jobs on m machines.

    Branch and bound over job orders, placing each job on the least-loaded
    machines; some order always greedily replays an optimal schedule, so
    the minimum over orders is exact.  States are memoized on (remaining
    jobs, load profile relative to its minimum).  Raises
    SearchBudgetExceeded when the order tree outgrows `budget` expansions.
    """
    jobs = tuple(jobs)
    _check_jobs(jobs, m)
    if len(jobs) > 8:
        raise ValueError("optimize_small handles at most 8 jobs")
    if not jobs:
        return 0, Schedule(starts={}, machines={})

    by_id = {j.id: j for j in jobs}
    pred = _identical_predecessors(jobs, lambda j: (j.p, j.q))

    memo: dict[tuple[frozenset, tuple], tuple[int, str]] = {}
    nodes = 0

    def best(rem: frozenset, prof: tuple) -> int:
        nonlocal nodes
        if not rem:
            return prof[-1]
        hit = memo.get((rem, prof))
        if hit is not None:
            return hit[0]
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(nodes)
        top = pick = None
        for jid in sorted(rem):
            prev = pred.get(jid)
            if prev is not None and prev in rem:
                continue
            job = by_id[jid]
            stack = list(prof)
            start = stack[job.q - 1]
            for i in range(job.q):
                stack[i] = start + job.p
            stack.sort()
            base = stack[0]
            val = base + best(rem - {jid}, tuple(x - base for x in stack))
            if top is None or val < top:
                top, pick = val, jid
        memo[(rem, prof)] = (top, pick)
        return top

    ids = frozenset(by_id)
    zero = (0,) * m
    opt = best(ids, zero)

    # replay the memoized choices on concrete machines
    starts: dict[str, int] = {}
    machines: dict[str, frozenset[int]] = {}
    free = [0] * m
    rem, prof = ids, zero
    while rem:
        _, pick = memo[(rem, prof)]
        job = by_id[pick]
        chosen = sorted(range(m), key=lambda k: (free[k], k))[: job.q]
        start = max(free[k] for k in chosen)
        starts[pick] = start
        machines[pick] = frozenset(k + 1 for k in chosen)
        for k in chosen:
            free[k] = start + job.p
        rem -= {pick}
        lows = sorted(free)
        prof = tuple(x - lows[0] for x in lows)

    assert max(free) == opt
    sched = Schedule(starts=starts, machines=machines)
    report = verify(SchedulingInstance(m=m, z=0, D=0, W=opt, jobs=jobs), sched)
    assert report.feasible and report.makespan == opt
    return opt, sched
