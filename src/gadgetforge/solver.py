"""Exact deciders for the rigid-job makespan question on m machines.

`decide_target` answers "is there a schedule of makespan exactly T" for
instances whose total work equals m*T.  Any such schedule keeps all m
machines busy from 0 to T, so the search only ever branches on which job
covers the earliest free machine; that restriction is what keeps reduction
instances decidable at desk scale.  A mismatched work total never reaches
the search: more work than m*T already proves no target schedule exists,
and less work makes the zero-idle method inapplicable, so the call is
refused rather than answered wrongly.

Four pruning rules cut the tree, each individually toggleable so its
effect can be measured:

* ``symmetry``    - collapse machine relabelings (machines free at the same
  instant are interchangeable unless contiguity pins them down) and force
  identical jobs to be placed in ascending id order.
* ``coeff_budget`` - track per-machine digit sums in the mixed-radix
  representation and cut any branch where a digit would exceed the target's.
  Activates only when the target and every length decompose cleanly and the
  per-power totals are too small to carry, and only when the equations rule
  is not active for the decision (see below).
* ``equations``   - on reduction instances searched at their own target,
  enforce the count chains of `reduction.COUNT_CHAINS` and the forced start
  positions (forward or mirrored, tracked as a shrinking orientation set)
  that every feasible target schedule satisfies.
* ``dead_states`` - remember every search state whose subtree was
  exhausted without a witness, under a key that is canonical up to machine
  symmetry, and cut any later branch that reaches an equal key (see "Dead
  states" below).

All four rules are sound, so a ProvedNone outcome still means the entire
space of zero-idle schedules was covered.  Both deciders reject malformed
jobs (`reduction.check_jobs`) with ValueError.

Candidates at a node.  The search always fills the earliest free instant t,
and a node lists, in (-q, -p, id) order, every remaining job that could
start there together with each machine set it could take.  The work per
node is kept to the jobs that can fit:

* jobs are bucketed by width q; a remaining job wider than the idle
  machines is counted as a no-fit prune from a per-width tally of remaining
  jobs, and only the buckets with q at most that width are scanned;
* the machine sets depend only on the idle set and q, so they are computed
  once per pair and reused;
* the value-job gaps are indexed by start with a running maximum of their
  ends, so one bisection per orientation gives the latest end a value job
  starting at t may reach, and each value job then costs one comparison;
* the finished-job counts that the count chains read, and every chain's
  verdict, are built at most once per node, on first need;
* the coefficient rule keeps each machine's digit sums packed in one
  integer, so its test is one subtraction and mask per machine;
* prunes are tallied in local counters and added to the decision once per
  node, so a rule that never fires leaves no key behind.

The ``coeff_budget`` rule is evaluated only when the equation tables are
inactive.  Dropping a sound rule can never change the outcome of a finished
search: a witness is re-verified from scratch and a proved-none still
covers every zero-idle schedule, only the node count can grow.  Under the
equation tables the forced starts and count chains already fix nearly
every placement, and on every reduction decision measured (the test suite
and both decision workloads of the benchmark) the digit check fired zero
times, so evaluating it there only cost time.  On instances the tables do
not recognise, such as the digit trap in the tests, it is what cuts early.

Dead states.  One set per decision, shared by every root branch, holds the
key of each state whose frame of candidates ran out: its subtree held no
witness.  Nothing is recorded after a budget hit or on the path to a
witness, since those frames never run out.  A placement that reaches a
recorded key is counted as a node, undone and tallied as a
``dead-state`` prune.  The key is one int packing the remaining-job
bitmask, the orientation mask and one cell per machine: its free time and,
for a machine still busy at t (the earliest free instant), a small code of
the (tag, q) of the job running on it.  Plain searches sort the cells;
contiguous searches take the smaller of the cell list and its reflection
k <-> m+1-k.  The table stops growing at `DEAD_STATE_CAP` entries, which
only loses prunes.  Why an equal key means an equal verdict:

1. The key fixes everything the subtree reads.  `_candidates` and `_place`
   read the free times, the remaining set, the orientation mask,
   `fam_count` and `pred` (both functions of the remaining set), the
   machines' digit sums and, through the count chains, the finished counts
   by tag.  A finished count is the placed count (fixed by the remaining
   set) minus the jobs running at t.  The running jobs are the last jobs of
   the machines free after t: a job of tag g on q machines shows as q cells
   with the code of (g, q) and its end as free time, so the cells give the
   running jobs of each tag at t and their ends, and with them the finished
   counts at every later instant.  The code of an idle machine's last job
   is dropped: that job is finished either way.  The digit sums need no
   place in the key: the prefix is zero-idle, so a machine's free time is
   the sum S of its jobs' lengths, and under the conditions `_coeff_tables`
   checks (every digit nonnegative, each power's total over all jobs below
   D, the unit terms' absolute total below D^2) S fixes its digit sums.
   Write S = X + D^2 N, X the sum of the jobs' unit terms and
   N = sum_k A_k D^(k-2) with digit sums 0 <= A_k < D.  Another set of jobs with the same
   S and X', N' has |X - X'| at most the absolute total of all unit terms,
   so below D^2; as X - X' = D^2 (N' - N), N = N', and the base-D digits of N
   are the A_k.  So two states with equal raw (unsorted) keys have
   identical subtrees.
2. Dead is a property of the schedule prefix, not of the search.  Every
   rule is sound (a dead-state cut by induction on the order in which the
   table was filled) and the symmetry rule is complete (a zero-idle
   completion can be relabelled over the machines idle at t and over the
   remaining identical jobs, which always form an id suffix), so the
   subtree of a state runs out exactly when no zero-idle completion that
   keeps the forced starts of an orientation in the mask exists.  Permuting
   the machines of a prefix and of its completions (plain) or reflecting
   them (contiguous, where intervals stay intervals) maps completions onto
   completions, so deadness is invariant under the permutations the
   canonical key forgets.  A state whose canonical key was recorded thus
   has the raw key of some image of a dead state, and by 1 that image's
   subtree, like the dead one's, holds no witness.
3. A cut removes only subtrees without a witness, and the search is
   depth first in a fixed order, so the first witness found, and with it
   the outcome, is the one the search finds without the table.

The search walks the tree with an explicit stack, one frame of pending
candidates per placed job, so its depth is not limited by the interpreter's
recursion limit.

`optimize_small` is an independent exact optimizer for a handful of jobs:
branch and bound over job orders with greedy least-loaded placement.  An
exchange argument shows the order of any optimal schedule greedily replays
to an equal or better one, so the minimum over orders is exact.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Iterable, Mapping, Sequence

from .exactnum import POWERS, decompose
from .reduction import (
    CHECKPOINT_TAGS,
    Job,
    SchedulingInstance,
    chain_values,
    check_jobs,
    forced_starts,
    gamma_window,
    partition_gaps,
    recognize,
)
from .schedule import Schedule, verify
from .threepartition import DEFAULT_BUDGET, SearchBudgetExceeded

# entries of the dead-state table; past it the table stops inserting
DEAD_STATE_CAP = 1 << 22

_FWD = 1
_MIR = 2


@dataclass(frozen=True)
class PruneRules:
    symmetry: bool = True
    coeff_budget: bool = True
    equations: bool = True
    dead_states: bool = True


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


@dataclass(frozen=True)
class _CoeffTables:
    """Digit rows packed one field per power, so that a machine's running
    digit sums are one integer and the cap test is one subtraction.

    Every field is `width` bits plus a guard bit above them.  `guarded`
    holds each target digit plus its guard bit; for a machine sum `acc`
    and a job row, ``(guarded - acc - row) & guards`` keeps a field's guard
    bit exactly when that digit stays within the target's.  This holds
    because every digit sum and cap is below D < 2**width, so no field
    borrows from its neighbour.
    """

    guarded: int
    guards: int
    rows: Mapping[str, int]


def _coeff_tables(inst: SchedulingInstance, target: int) -> _CoeffTables | None:
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
    caps = [tvec.digit(k) for k in POWERS]
    rows = {jid: [v.digit(k) for k in POWERS] for jid, v in jvecs.items()}
    for i in range(len(POWERS)):
        if sum(row[i] for row in rows.values()) >= D:
            return None
    if sum(abs(v.x0) for v in jvecs.values()) + abs(tvec.x0) >= D * D:
        return None
    width = D.bit_length()

    def pack(digits) -> int:
        return sum(d << (i * (width + 1)) for i, d in enumerate(digits))

    guards = pack([1 << width] * len(POWERS))
    return _CoeffTables(
        guarded=pack(caps) + guards,
        guards=guards,
        rows={jid: pack(row) for jid, row in rows.items()},
    )


def _gap_reach(gaps) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gap starts in ascending order, each paired with the latest end of any
    gap starting no later.  A value job of length p placed at t lies inside
    some gap [lo, hi) exactly when t + p <= reach[i] for the last i with
    starts[i] <= t, so one bisection per node serves every value job."""
    gaps = sorted(gaps)
    return (
        tuple(lo for lo, _ in gaps),
        tuple(accumulate((hi for _, hi in gaps), max)),
    )


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
    gaps_fwd: tuple[tuple[int, ...], tuple[int, ...]]
    gaps_mir: tuple[tuple[int, ...], tuple[int, ...]]


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
        gaps_fwd=_gap_reach(gaps),
        gaps_mir=_gap_reach((W - hi, W - lo) for lo, hi in gaps),
    )


def _reach_at(gaps: tuple[tuple[int, ...], tuple[int, ...]], t: int) -> int:
    """Latest end of a gap containing t; t itself (no room) when none does."""
    starts, reach = gaps
    i = bisect_right(starts, t) - 1
    return reach[i] if i >= 0 else t


class _Context:
    """Per-decision data shared by every search branch: fixed tables, a
    memo of the machine sets each idle set offers and the dead-state
    table."""

    def __init__(self, inst, target, contiguous, rules, budget):
        self.inst = inst
        self.m = inst.m
        self.target = target
        self.contiguous = contiguous
        self.rules = rules
        self.budget = budget
        self.by_id = inst.by_id
        order = sorted(inst.jobs, key=lambda j: (-j.q, -j.p, j.id))
        # jobs by width, each bucket in the (-q, -p, id) order above
        self.by_width = tuple(
            tuple(j for j in order if j.q == q) for q in range(self.m + 1)
        )
        self.pred = (
            _identical_predecessors(inst.jobs, lambda j: (j.p, j.q, j.tag))
            if rules.symmetry
            else {}
        )
        self.eq = None
        if rules.equations and target == inst.W:
            self.eq = _equation_tables(inst)
        self.coeff = None
        if rules.coeff_budget and self.eq is None:
            self.coeff = _coeff_tables(inst, target)
        self._subsets: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}
        self.dead: set[int] | None = None
        if rules.dead_states:
            self.dead = set()
            # one remaining-set bit per job, one code per (tag, q), 0 = idle
            self.bit = {j.id: 1 << i for i, j in enumerate(order)}
            codes: dict[tuple[str, int], int] = {}
            self.code = {
                j.id: codes.setdefault((j.tag, j.q), len(codes) + 1)
                for j in order
            }
            self.code_bits = len(codes).bit_length()
            self.cell_bits = target.bit_length() + self.code_bits

    def subsets(self, avail: tuple[int, ...], q: int) -> list[tuple[int, ...]]:
        """Machine sets for a q-machine job over the idle machines `avail`,
        each holding the lowest idle machine; memoized, since only the idle
        set and q decide them."""
        runs = self._subsets.get((avail, q))
        if runs is not None:
            return runs
        mstar = avail[0]
        if self.contiguous:
            pool = set(avail)
            runs = []
            for lo in range(self.m - q + 1):
                run = tuple(range(lo, lo + q))
                if mstar in run and all(m in pool for m in run):
                    runs.append(run)
        elif self.rules.symmetry:
            # machines idle at the same instant are interchangeable
            runs = [avail[:q]]
        else:
            runs = [(mstar, *rest) for rest in combinations(avail[1:], q - 1)]
        self._subsets[avail, q] = runs
        return runs


class _Search:
    """One mutable depth-first search over zero-idle schedule prefixes."""

    def __init__(self, ctx: _Context):
        self.ctx = ctx
        self.free = [0] * ctx.m
        self.remaining = set(ctx.by_id)
        self.left = [len(bucket) for bucket in ctx.by_width]
        self.starts: dict[str, int] = {}
        self.placed: dict[str, tuple[int, ...]] = {}
        self.nodes = 0
        self.prunes: Counter[str] = Counter()
        self.orient = _FWD | _MIR
        self.fam_count: Counter[str] = Counter()
        # packed per-machine digit sums, see _CoeffTables
        self.acc = [0] * ctx.m if ctx.coeff else None
        # dead-state key parts: remaining bitmask, per-machine cells
        self.rem_mask = (1 << len(ctx.by_id)) - 1
        self.cells = [0] * ctx.m

    # ----- candidate generation -----

    def _chains_holding(self, t: int) -> set[str]:
        """Checkpoint families whose count chain holds over the jobs
        finished by t."""
        fin: Counter[str] = Counter()
        by_id = self.ctx.by_id
        for jid, s in self.starts.items():
            job = by_id[jid]
            if s + job.p <= t:
                fin[job.tag] += 1
        return {
            tag
            for tag in CHECKPOINT_TAGS
            if len(set(chain_values(tag, fin.__getitem__).values())) == 1
        }

    def _candidates(self, t: int) -> list[tuple[Job, tuple[int, ...], int]]:
        """(job, machine set, orientation mask) for every placement at t, in
        (-q, -p, id) order.  A rejected job counts as a prune of the first
        rule that rejects it: no-fit, symmetry, equations, and coeff-budget
        once per machine set."""
        ctx = self.ctx
        eq = ctx.eq
        avail = tuple([m for m in range(ctx.m) if self.free[m] == t])
        width = len(avail)
        remaining = self.remaining
        pred = ctx.pred
        room = ctx.target - t
        orient = self.orient
        # every remaining job wider than the idle machines is a no-fit
        no_fit = sum(self.left[width + 1 :])
        symmetric = equations = coeff = 0
        acc = self.acc
        if acc is not None:
            guards = ctx.coeff.guards
        if eq is not None:
            # latest end a value job starting at t may reach, per orientation
            end_fwd = _reach_at(eq.gaps_fwd, t)
            end_mir = _reach_at(eq.gaps_mir, t)
            chains = None  # built on first need, once per node
        out = []
        for q in range(width, 0, -1):
            subsets = None
            for job in ctx.by_width[q]:
                jid = job.id
                if jid not in remaining:
                    continue
                if job.p > room:
                    no_fit += 1
                    continue
                prev = pred.get(jid)
                if prev is not None and prev in remaining:
                    symmetric += 1
                    continue
                mask = orient
                if eq is not None:
                    # the orientations whose forced positions allow t
                    tag = job.tag
                    if tag == "P":
                        end = t + job.p
                        mask &= (_FWD if end <= end_fwd else 0) | (
                            _MIR if end <= end_mir else 0
                        )
                    elif tag == "gamma":
                        lo, hi = eq.gamma_fwd[jid]
                        bits = _FWD if lo <= t <= hi else 0
                        lo, hi = eq.gamma_mir[jid]
                        mask &= bits | (_MIR if lo <= t <= hi else 0)
                    else:
                        k = self.fam_count[tag]
                        mask &= (_FWD if eq.fam_fwd[tag][k] == t else 0) | (
                            _MIR if eq.fam_mir[tag][k] == t else 0
                        )
                        if mask and tag in CHECKPOINT_TAGS:
                            if chains is None:
                                chains = self._chains_holding(t)
                            if tag not in chains:
                                mask = 0
                    if not mask:
                        equations += 1
                        continue
                if subsets is None:
                    subsets = ctx.subsets(avail, q)
                if acc is None:
                    out += [(job, subset, mask) for subset in subsets]
                    continue
                # digit sums that stay within the target's, see _CoeffTables
                headroom = ctx.coeff.guarded - ctx.coeff.rows[jid]
                for subset in subsets:
                    for m in subset:
                        if (headroom - acc[m]) & guards != guards:
                            coeff += 1
                            break
                    else:
                        out.append((job, subset, mask))
        for rule, count in (
            ("no-fit", no_fit),
            ("symmetry", symmetric),
            ("equations", equations),
            ("coeff-budget", coeff),
        ):
            if count:
                self.prunes[rule] += count
        return out

    # ----- state transitions -----

    def _place(self, job, subset, t, mask):
        self.nodes += 1
        if self.nodes > self.ctx.budget:
            raise _BudgetHit
        self.remaining.remove(job.id)
        self.left[job.q] -= 1
        self.starts[job.id] = t
        self.placed[job.id] = subset
        for m in subset:
            self.free[m] = t + job.p
        old_mask = self.orient
        if self.ctx.eq is not None:
            self.orient = mask
            self.fam_count[job.tag] += 1
        if self.acc is not None:
            row = self.ctx.coeff.rows[job.id]
            for m in subset:
                self.acc[m] += row
        old_cells = self.cells
        if self.ctx.dead is not None:
            self.rem_mask ^= self.ctx.bit[job.id]
            cell = (t + job.p) << self.ctx.code_bits | self.ctx.code[job.id]
            self.cells = cells = old_cells.copy()
            for m in subset:
                cells[m] = cell
        return (job, subset, t, old_mask, old_cells)

    def _unplace(self, undo):
        job, subset, t, old_mask, self.cells = undo
        del self.starts[job.id]
        del self.placed[job.id]
        self.remaining.add(job.id)
        self.left[job.q] += 1
        for m in subset:
            self.free[m] = t
        if self.ctx.eq is not None:
            self.orient = old_mask
            self.fam_count[job.tag] -= 1
        if self.acc is not None:
            row = self.ctx.coeff.rows[job.id]
            for m in subset:
                self.acc[m] -= row
        if self.ctx.dead is not None:
            self.rem_mask ^= self.ctx.bit[job.id]

    def _snapshot(self) -> Schedule:
        return Schedule(
            starts=dict(self.starts),
            machines={
                jid: frozenset(m + 1 for m in subset)
                for jid, subset in self.placed.items()
            },
        )

    def _key(self, t: int) -> int:
        """The dead-state key of the current state, whose earliest free
        instant is t: see "Dead states" in the module docstring."""
        ctx = self.ctx
        idle = t << ctx.code_bits
        busy = idle + (1 << ctx.code_bits)
        cells = [c if c >= busy else idle for c in self.cells]
        if not ctx.contiguous:
            cells.sort()
        elif cells[::-1] < cells:
            cells.reverse()
        packed = self.rem_mask << 2 | self.orient
        for c in cells:
            packed = packed << ctx.cell_bits | c
        return packed

    def _open(self, t: int):
        """The frame of candidates at t, or None when the state's key is a
        recorded dead state."""
        key = None
        dead = self.ctx.dead
        if dead is not None:
            key = self._key(t)
            if key in dead:
                self.prunes["dead-state"] += 1
                return None
        return (t, iter(self._candidates(t)), key)

    def search(self) -> Schedule | None:
        """Depth-first over the candidates at the earliest free instant.

        The path is an explicit stack of candidate iterators, one per placed
        job below the starting prefix, so depth is bounded by memory rather
        than by the interpreter's recursion limit.  A frame that runs out
        records its state as dead."""
        target = self.ctx.target
        dead = self.ctx.dead
        if not self.remaining:
            return self._snapshot()
        t = min(self.free)
        frame = self._open(t) if t < target else None
        frames = [frame] if frame is not None else []
        undos = []
        while frames:
            t, pending, key = frames[-1]
            step = next(pending, None)
            if step is None:
                frames.pop()
                if key is not None and len(dead) < DEAD_STATE_CAP:
                    dead.add(key)
                if undos:
                    self._unplace(undos.pop())
                continue
            job, subset, mask = step
            undos.append(self._place(job, subset, t, mask))
            if not self.remaining:
                return self._snapshot()
            t = min(self.free)
            frame = self._open(t) if t < target else None
            if frame is None:
                self._unplace(undos.pop())
            else:
                frames.append(frame)
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

    Requires total work equal to m*target for the instance's m machines;
    above that the answer is a proved negative by arithmetic, below it the
    zero-idle search would be incomplete, so the decision is refused.
    `budget` caps the nodes each root branch may expand; the dead-state
    table is shared by all of them.  With `contiguous` the machine set of
    every job must be an interval, matching the strip-packing reading.
    """
    check_jobs(inst.jobs, inst.m)
    rules = rules or PruneRules()
    total = inst.total_work
    m = inst.m
    if total > m * target:
        return Decision(
            "proved-none",
            None,
            0,
            reason=(
                f"work-overflow: total work {total} exceeds {m}*{target}, "
                "some machine must run past the target"
            ),
        )
    if total < m * target:
        return Decision(
            "refused",
            None,
            0,
            reason=(
                f"work-underflow: total work {total} is below {m}*{target}; a "
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
    check_jobs(jobs, m)
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
