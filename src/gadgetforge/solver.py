"""Exact deciders for the rigid-job makespan question on m machines.

`decide_target` answers "is there a schedule of makespan exactly T" for
instances whose total work equals m*T.  Any such schedule keeps all m
machines busy from 0 to T, so the search only ever branches on which job
covers the earliest free machine; that restriction is what keeps reduction
instances decidable at desk scale.  A mismatched work total never reaches
the search: more work than m*T already proves no target schedule exists,
and less work makes the zero-idle method inapplicable, so the call is
refused rather than answered wrongly.

Three pruning rules cut the tree, each individually toggleable so its
effect can be measured:

* ``symmetry``    - collapse machine relabelings (machines free at the same
  instant are interchangeable unless contiguity pins them down) and force
  identical jobs to be placed in ascending id order.
* ``equations``   - on reduction instances searched at their own target,
  enforce the forced start positions of the forward direction, the one in
  which a B job opens the schedule (see "Forward only" below), and fill
  each gap like a bin: its gamma job at the gap's start, then three values
  in descending order, the first the longest unplaced value (see "Each gap
  is a bin" below).
* ``dead_states`` - remember every search state whose subtree was
  exhausted without a witness, under a key that is canonical up to machine
  symmetry, and cut any later branch that reaches an equal key (see "Dead
  states" below).

All three rules are sound, so a proved-none outcome still means the entire
space of zero-idle schedules was covered.  Both deciders reject malformed
jobs (`reduction.check_jobs`, once per instance for `decide_target`
through `reduction.check_instance`) with InvalidInput.

Candidates at a node.  The search always fills the earliest free instant t,
and a node lists, in (-q, -p, id) order, every unplaced job that could
start there together with each machine set it could take.  A job that
cannot is counted as a prune of the first rule that rejects it: no-fit when
it is wider than the idle machines or longer than the room T - t left,
symmetry when an identical job with a smaller id is still unplaced, and
equations when the forward forced positions or the gap order do not allow
t.

The scan visits classes, not jobs.  The search names every job by its rank,
its place in (-q, -p, id) order.  A class is a set of identical jobs under
the symmetry rule's (p, q) key, so a run of consecutive ranks, in id
order: the k-th member of class c has rank first[c] + k.  With the rule off
every job is a class of its own.  Classes are grouped into families: by
(q, tag) when the equation tables are active, else by q alone.  No rule
but the equation tables reads a tag, and they run only on recognised
reductions, whose tags each have one width and whose (p, q) each have one
tag (both checked with the forward geometry), so a class lies inside one
family.  Under the equation tables every family but the values is forced,
and the others are scanned.  A search keeps the placed count of each
class, per scanned family a live list of the classes that still have
unplaced members, in rank order, and per width the number of forced
classes that still have some; `_place` and `_unplace` update them in LIFO
order, so a placed job is never visited again.  At a node:

* the unplaced jobs wider than the idle machines are no-fit, read from a
  per-width tally; only the classes at most that wide are visited;
* the classes at the head of a live list that are longer than the room are
  no-fit, every member of them;
* each other class offers its first unplaced member, and its other members
  are symmetry prunes, counted in bulk as the unplaced total less the
  no-fit prunes and the first members.  This equals the per-job count
  because the placed members of a class always form an id prefix: only a
  class's first unplaced member is ever placed, and undoing a placement
  takes back the last member placed.  The per-job rule rejects a member
  exactly when the member before it in id order is unplaced, which for an
  id prefix holds for every unplaced member but the first;
* the equation rule decides which of those first members may start at t
  (see "Forward only").  A forced family holds one forced start per job,
  pairwise distinct within the family: the start s of each pinned job
  (every tag but gamma and P), and the start lo_k of gap k for block k's
  gamma job (see "Each gap is a bin").  A class's k-th start holds its
  k-th placement, so at most one job of a family may start at t: the next
  member of the class whose start is t, if t is the class's next start
  and the job fits the room.  The forced families are not scanned: one
  index maps each forced start to the (width, class, k) of its job, and a
  node looks t up in it and offers each job there that is at most as wide
  as the idle machines, whose class has k placed members, and that fits.
  Their first members are counted from the per-width counts of open
  forced classes, less the open ones longer than the room, whose members
  are no-fit: a scan of the forced classes, longest first, that stops at
  the first one that fits the room;
* a value job (P) may start at t only in the last gap k that starts by t,
  found by bisecting the gap starts, and only once gamma_k is placed;
  rest = hi_k - t is then what the gap's values still have to fill.  At
  rest = D the class at the head of the live list offers, the longest
  unplaced value; at 2 rest > D a class of length p offers when
  2p >= rest and rest - p is the length of another unplaced value, and as
  the live list is in rank order these classes are a prefix of it; at
  any other rest only the classes of length rest offer, found by one
  look-up by length.  The premises of these tests are checked once per
  instance, with the forward geometry (`reduction.forward_geometry`);
* the first members that fit and that the equation rule does not offer
  are the equations prunes, counted once per node as the first members
  that fit less the offered ones (without the rule every class that fits
  offers);
* a family lists its candidates in rank order, as its classes are runs of
  ranks in its live list's order, and scanned families come widest first,
  so the candidates are sorted only to merge the offers of several
  families under the equation tables;
* a job's machine sets hold the lowest idle machine, and no machine below
  it is idle, so a contiguous set is the q lowest idle machines when they
  form an interval and there is none otherwise; with the symmetry rule the
  q lowest idle machines stand for every set (see `_Search.subsets`);
* prunes are tallied in one int per rule, which `decide_target` writes
  into `Decision.prunes` once, at the end, leaving out a rule that never
  fired.  They are tallied only where candidates are listed, so the
  placements of a forced run add none.

Forward only.  Under the equation tables the search keeps only schedules
in the forward direction, where a B job opens the schedule: every job but
gamma and P starts at the forced start of a job identical to it, one job
per forced start, each gamma job inside its window and each value job
inside a gap.  This loses no answer, and neither does the gap order of
the next section, which the search keeps on top.  Every target schedule meets these
conditions either as stated or mirrored, with each start s read as
W - s - p for a job of length p.  `schedule.mirror` maps a zero-idle
makespan-W schedule S to another such schedule mirror(S), whose job of
start s starts at W - s - p on the same machines, so contiguity is kept,
and S meets the mirrored conditions exactly when mirror(S) meets the
forward ones.  Relabelling identical jobs keeps a schedule forward, so
one exists exactly when one exists in which each class's members, in id
order, take its forced starts in ascending order (with the symmetry rule
off, each job its own); as jobs are placed in start order, the k-th
placed member of a class then takes its k-th forced start.  A search that
covers every such schedule thus proves none only when none exists.

Each gap is a bin.  Of the forward schedules the search keeps those in
which every gap k = [lo_k, hi_k) is filled in one order: gamma_k at lo_k,
then three values in descending order, the first the longest value no
earlier gap holds, equal lengths in id order.  This is bin completion's
symmetry breaking between bins (Korf 2003), applied to the gaps.  Its
premises are checked with the forward geometry: in every gap the pinned
jobs at their forced starts hold exactly m - 1 machines at every instant,
so none starts or ends inside it; gamma_k's window [lo_k, lo_k + D]
starts at lo_k and hi_k - lo_k - |gamma_k| = D; every value lies strictly
between D/4 and D/2.  Take a forward schedule S.  Over gap k the pinned
jobs hold the same m - 1 machines, which leaves one machine mu_k, and
every other job that runs inside the gap, gamma_k and the values (the
gamma windows and the values lie inside the gaps, which are disjoint),
runs on mu_k alone, back to back, as S has no idle.  So the values of
gap k sum to hi_k - lo_k - |gamma_k| = D, and as any j of them sum to
strictly between jD/4 and jD/2, there are exactly three.
* Within a gap: laying the jobs of mu_k over the gap out again in any
  order, back to back, keeps zero idle, every machine set, contiguity
  (one machine is an interval), each value inside its gap and gamma_k
  inside its window.  So gamma_k can start at lo_k and the values follow
  in descending order; identical values can swap.
* Between gaps: the triples of two gaps each sum to D and each follow
  their gamma job, so swapping them, each value onto the other gap's
  machine, keeps all of the above; nothing else reads which gap a value
  is in.  For k = 1..z in turn, swapping the triple of gap k with that of
  the gap that holds the longest value outside gaps 1..k-1 makes that
  value the first of gap k.
So a target schedule exists exactly when one exists in this order.  The
search covers every schedule in it.  It fills the earliest free instant,
and inside a gap only mu_k is free, so when gap k's values come up, gaps
1..k-1 are full and the unplaced values are those of gaps k..z.  With
gamma_k at lo_k, rest = hi_k - t is D before the gap's first value,
between D/2 and 3D/4 before its second and between 0 and D/2 before its
third, and at each the rule offers the value of the order: the longest
unplaced, a second p at least the third (2p >= rest) that another
unplaced value completes, and the exact fill.  Each offered value ends
inside its gap: the first is shorter than D/2, the second shorter than
rest, as rest - p is a value, and the third fills it.

No count chains.  The count chains of `reduction.COUNT_CHAINS` hold in
every target schedule, and the audit and extraction check them on any
schedule, but the search does not test them: where they could cut, the
forced starts already fix the finished counts.  Lemma: let the search
offer a pinned job at t, the earliest free instant, which is then a
forced start.  Then every tag's finished count at t is its count in the
canonical schedule, the forward one `synthesis.build_schedule` builds, so
every chain holds at t.  Proof.  Every placed pinned job started at the
forced start of a job identical to it, one job per forced start, so it
ends where the canonical job there does.  The prefix is zero idle, so all
m machines are covered over [0, t), and every placed job starts by t.
Outside the gaps only pinned jobs can run, as the gamma and value jobs
start and end inside them, and the pinned jobs hold all m machines
there; inside a gap they hold m - 1, and none starts or ends inside one
(both are checked with the forward geometry).  Say a forced start
s < t were not taken, by a job X of width q.  Outside the gaps, the
pinned jobs placed would cover fewer than m machines at s.  Inside gap
k, s is the gap's start and t, a forced start too, is at or past its
end, so q + 1 machines over the whole gap would be left to gamma_k and
to values: gamma_k covers |gamma_k| of that area, and the rest, at least
|gamma_k| + 2D, is far more than the values' total zD.  So every forced
start below t is taken, by a job that ends where the canonical one does,
and the finished counts at t are the canonical ones.  Soundness never
rested on the chains: dropping a sound cut can only add nodes.

Forced runs.  In plain mode under the symmetry rule and the equation
tables, a search lists no candidates at a forced start: whenever the
earliest free instant t is one, it places each forced job the rules offer
at t on the lowest idle machines, in rank order (`_Plan.forced` keeps each
start's jobs so), then does the same at the next earliest free instant
while it is a forced start (`_Search._run`).  This run opens no frame,
lists no candidates and reads or records no key, and the placements of a
run are taken back together with the choice that led to it.  It loses
nothing:

* At a forced start the value family offers nothing.  No pinned start lies
  strictly inside a gap (checked with the forward geometry), so either no
  gap starts by t, or t is the start lo_k of the last gap k that does, or
  t is at or past its end hi_k, where the rest hi_k - t is at most 0.  At
  lo_k the rest is 0 while gamma_k is unplaced, and hi_k - lo_k =
  D + |gamma_k| once it is placed, so a value would need 2p >= rest > D,
  while every value is shorter than D/2.
* So every child at t is a forced job at t.  Whether one is offered reads
  its width against the idle machines, the room T - t and its class's
  placed count; no two jobs at t share a class (a family's forced starts
  are pairwise distinct), so placing one changes only the idle machines
  the others may take.
* A forced start holds exactly its job: the k-th member of a class is
  offered only at the class's k-th start, so a job left out at t leaves
  its class unfinished for good.  Machines idle at t are interchangeable
  in plain mode, and widths are only counted.  So either every order in
  which the children place the jobs at t fills t, and all of them reach
  one state up to a relabelling of those machines, or none does and the
  subtree holds no witness.  As deadness is invariant under relabelling
  (see "Dead states"), the first order, which takes the jobs in rank
  order, each on the lowest idle machines, stands for every order, and
  the first witness the search finds is the one it finds with a frame at
  every forced start.

The run at 0 comes before the root frame, whose candidates are those of
the first value choice.  Every frame thus opens at a value choice and
keeps the key of the choice, read before the choice's job is placed.
When the frame runs out, or the run that follows the choice reaches a
forced start it cannot fill, that key is recorded as dead: the run is
forced by the choice.  Each placement of a run is still a node and counts
against its root branch's budget; the run at 0 belongs to no branch.  In
contiguous mode the order of the jobs at t decides which of them holds
the lowest idle machine, so the orders reach different states; with the
symmetry rule off each machine set is a child of its own; without the
equation tables no start is forced.  These searches keep a frame at every
placement.

Dead states.  One set per decision holds the key of each state whose
frame of candidates ran out, or whose forced run could not fill a forced
start: its subtree held no witness.  Nothing is recorded for the frames a
budget hit abandons or on the path to a witness, since those frames never
run out, nor for the root, after which the search ends.  A child's key is
read before the child is placed, off the parent's cells with the job's
machines set to its end and the remaining set without the job: a child
that reaches a recorded key is counted as a node and tallied as a
``dead-state`` prune, and never placed.  The states a forced run passes
through carry no key (see "Forced runs"): they are neither looked up nor
recorded, which only loses prunes.  The key is one int
packing the remaining-job bitmask and one cell per machine, its free time
(`_Search._key`).  Plain searches sort the cells; contiguous searches take
the smaller of the cell list and its reflection k <-> m+1-k.  The table
stops growing at `DEAD_STATE_CAP` entries, which only loses prunes.  Why an
equal key means an equal verdict:

1. The key fixes everything the subtree reads.  `_candidates`, `_run` and
   `_place` read the plan, which no search changes, and the free times, the
   remaining set, the placed counts of each class, the unplaced jobs and
   open forced classes per width and the live lists, all functions of the
   remaining set.  The forced-start test reads t and the placed count of
   the start's class, and the gap order of a value job reads only t,
   whether gamma_k is placed and the unplaced values, all fixed by t and
   the remaining set.  Nothing reads which job runs on a machine, and the
   state holds nothing else.  So two states with equal raw (unsorted) keys
   have identical subtrees.
2. Dead is a property of the schedule prefix, not of the search.  Every
   rule is sound (a dead-state cut by induction on the order in which the
   table was filled) and the symmetry rule is complete (a zero-idle
   completion can be relabelled over the machines idle at t and over the
   remaining identical jobs, which always form an id suffix), so the
   subtree of a state runs out exactly when no zero-idle completion exists
   that meets the forward conditions and the gap order of the equation
   rule, when it is on.  Permuting the machines of a prefix and of its
   completions (plain) or reflecting them (contiguous, where intervals
   stay intervals) keeps every start and every job, and so maps
   completions onto completions, forward ones onto forward ones and, as
   the gap order reads only starts and which jobs are placed, never a
   machine, completions in that order onto completions in that order; so
   deadness is invariant under the permutations the canonical key
   forgets.  A state whose
   canonical key was recorded thus has the raw key of some image of a
   dead state, and by 1 that image's subtree, like the dead one's, holds
   no witness.
3. A cut removes only subtrees without a witness, and the search is
   depth first in a fixed order, so the first witness found, and with it
   the outcome, is the one the search finds without the table.

The plan.  What a search reads and never writes depends only on the
instance, the symmetry rule and whether the equation tables are active:
the jobs in rank order, each class's first rank, size and length, each
rank's placement record, the scanned families by width with their initial
live lists, the per-width job and forced-class counts of the empty
schedule, the forced-start index, the forced classes by length and the
value family's gap facts.
That is one `_Plan`, an immutable value built by `_plan` for the first
decision that needs it and kept on the instance by
`reduction.per_instance`, as the forward geometry is, so the instance
holds at most four; they live as long as it does, 40-77 KB each at
z = 14 (173 jobs), 66 KB under the default rules (tracemalloc).  The
plan is built in one sort of the jobs into rank order and a few passes
over them; the forced-start index is filled by one pass in rank order,
each class's k-th member taking its k-th forced start, so each start
lists its jobs in rank order without a sort of its own.  A job's id is
read only where the plan joins the forward geometry, which names jobs
by id, and in a witness (`_Search._snapshot`).  After it is
built nothing writes into a plan: a search copies the live lists and the
counts it updates.  The dead-state table is not part of it.  It stays
per decision: a table kept across decisions would cut branches a fresh
decision searches, so node counts, and with them every `Decision`, would
depend on what was decided before, and a repeated decision would be
little more than a look-up.

A decision is one `_Search`, holding its instance's plan, the dead-state
table and one state that each placement updates and its undo takes back
exactly.  The state keeps each fact once: a machine's cell is its free
time.  One cell list serves the whole search, written in place: a
placement at t takes machines free by t, and t is the earliest free
instant, so each of them is free exactly at t, and its undo sets their
cells back to t.
The search walks the tree with an explicit stack, the root's frame of
pending candidates and one per placed job outside forced runs, so its depth
is not limited by the interpreter's recursion limit; the placed jobs with
their undo records are the path, from which a witness is read.  Each
candidate of the root frame opens a root branch with its own node budget
(see `_Search.search`).

`optimize_small` is an independent exact optimizer for a handful of jobs:
branch and bound over job orders with greedy least-loaded placement.  An
exchange argument shows the order of any optimal schedule greedily replays
to an equal or better one, so the minimum over orders is exact.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, combinations, groupby
from typing import Iterable, Mapping, Sequence

from .exactnum import InvalidInput, require
from .reduction import (
    Job,
    SchedulingInstance,
    check_instance,
    check_jobs,
    forward_geometry,
    per_instance,
    recognize,
)
from .schedule import Schedule, verify
from .threepartition import DEFAULT_BUDGET, SearchBudgetExceeded

# entries of the dead-state table; past it the table stops inserting
DEAD_STATE_CAP = 1 << 22

# machines a search is built for: it holds a cell and a family list per
# machine, so a larger m (one job can balance any m) is refused before any
# of them is built.  The paper's question has 4.
MAX_MACHINES = 1 << 10

@dataclass(frozen=True)
class PruneRules:
    symmetry: bool = True
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


@dataclass(frozen=True, slots=True)
class _Plan:
    """What a search reads of its instance and never writes, for one
    symmetry rule and one state of the equation tables: see "The plan" in
    the module docstring.  Built by `_plan`, once per instance and rules."""

    # the jobs in rank order, (-q, -p, id): a job's rank is its position
    jobs: tuple[Job, ...]
    # each class's first rank, its classes in rank order: the k-th member
    # of class c has rank first[c] + k
    first: tuple[int, ...]
    # each class's size
    cls_n: tuple[int, ...]
    # each class's length
    cls_p: tuple[int, ...]
    # what a placement reads, by rank: (class, scanned family or None for a
    # forced class, class size, remaining-set bit, p, q)
    rec: tuple[tuple[int, int | None, int, int, int, int], ...]
    # per scanned family, its classes in rank order: the live lists of a
    # fresh search
    live: tuple[tuple[int, ...], ...]
    # the jobs per width
    left: tuple[int, ...]
    # the scanned families at most w wide, as (family, q, value facts or
    # None), for every idle width w
    upto: tuple[tuple[tuple, ...], ...]
    # under the equation tables (else empty): per forced start, the
    # (width, class, k) of each job there, its class's k-th start, in the
    # rank order of those jobs
    forced: dict[int, tuple[tuple[int, int, int], ...]]
    # the forced classes, longest first, as (p, q, class, size)
    longest: tuple[tuple[int, int, int, int], ...]
    # the forced classes per width
    open_forced: tuple[int, ...]


@per_instance
def _plan(inst: SchedulingInstance, symmetry: bool, equations: bool) -> _Plan:
    """The instance's `_Plan` for these rules: classes of identical jobs
    grouped into families, see "Candidates at a node", and the forced-start
    index under the equation tables."""
    # the one sort: every job in rank order
    jobs = tuple(sorted(inst.jobs, key=lambda j: (-j.q, -j.p, j.id)))
    # a class is a run of ranks: one (p, q) under the symmetry rule, else
    # one job
    if symmetry:
        cls_n = [len(list(run)) for _, run in groupby(jobs, lambda j: (j.p, j.q))]
    else:
        cls_n = [1] * len(jobs)
    first = [0, *accumulate(cls_n)][:-1]
    # each class's first member
    heads = [jobs[r] for r in first]
    cls_p = tuple(j.p for j in heads)
    families: dict = {}
    for c, j in enumerate(heads):
        families.setdefault((j.q, j.tag) if equations else j.q, []).append(c)
    # every family is scanned, except the forced ones under the equation
    # tables: all but the values
    scanned = [
        cs for cs in families.values() if not equations or heads[cs[0]].tag == "P"
    ]
    fam_of = {c: f for f, cs in enumerate(scanned) for c in cs}
    rec = tuple(
        (c, fam_of.get(c), n, 1 << r, j.p, j.q)
        for c, (a, n, j) in enumerate(zip(first, cls_n, heads))
        for r in range(a, a + n)
    )
    left = [0] * (inst.m + 1)
    for j, n in zip(heads, cls_n):
        left[j.q] += n
    forced: dict[int, list[tuple[int, int, int]]] = {}
    if equations:
        geometry = forward_geometry(inst)
        # the forward geometry names its jobs by id: each id's class
        cls_by_id = {j.id: e[0] for j, e in zip(jobs, rec)}
        # the gap starts and ends in ascending order, the class of each
        # gap's gamma job, the value classes by length and D
        (values,) = scanned
        by_len: dict[int, list[int]] = {}
        for c in values:
            by_len.setdefault(cls_p[c], []).append(c)
        lows = tuple(lo for lo, _ in geometry.gaps)
        ends = tuple(hi for _, hi in geometry.gaps)
        gammas = tuple(cls_by_id[g.id] for _, g in geometry.starts["gamma"])
        facts = (lows, ends, gammas, by_len, inst.D)
        specs = [(0, heads[values[0]].q, facts)]
        # each class's forced starts in ascending order, the k-th for its
        # k-th member; a start holds at most one job of a class, as a
        # tag's starts are pairwise distinct, so a pass over the classes in
        # rank order lists each start's jobs in rank order, the order a
        # search tries them
        starts_of: list[list[int]] = [[] for _ in first]
        for table in geometry.starts.values():
            for s, job in table:
                starts_of[cls_by_id[job.id]].append(s)
        for c, starts in enumerate(starts_of):
            for k, s in enumerate(starts):
                forced.setdefault(s, []).append((heads[c].q, c, k))
    else:
        specs = [(f, heads[cs[0]].q, None) for f, cs in enumerate(scanned)]
    forced_classes = [c for c in range(len(first)) if c not in fam_of]
    open_forced = [0] * (inst.m + 1)
    for c in forced_classes:
        open_forced[heads[c].q] += 1
    # the families at most w wide, for every idle width w
    upto = tuple(
        tuple(spec for spec in specs if spec[1] <= w) for w in range(inst.m + 1)
    )
    return _Plan(
        jobs=jobs,
        first=tuple(first),
        cls_n=tuple(cls_n),
        cls_p=cls_p,
        rec=rec,
        live=tuple(map(tuple, scanned)),
        left=tuple(left),
        upto=upto,
        forced={s: tuple(at) for s, at in forced.items()},
        longest=tuple(
            sorted(
                ((cls_p[c], heads[c].q, c, cls_n[c]) for c in forced_classes),
                key=lambda e: -e[0],
            )
        ),
        open_forced=tuple(open_forced),
    )


class _Search:
    """The depth-first search of one decision over zero-idle schedule
    prefixes: the instance's plan for its rules, the dead-state table and
    one mutable state, taken back placement by placement."""

    __slots__ = (
        "inst", "m", "machines", "target", "contiguous", "rules", "budget",
        "equations", "n", "jobs", "first", "cls_n", "cls_p", "rec", "upto",
        "forced", "longest", "dead", "cell_bits", "live", "left",
        "open_forced", "taken", "path", "nodes", "starved", "pruned_no_fit",
        "pruned_symmetry", "pruned_equations", "pruned_dead", "cells",
        "rem_mask", "__weakref__",
    )

    def __init__(self, inst, target, contiguous, rules, budget):
        self.inst = inst
        self.m = inst.m
        # the machine numbers, which each node scans for the idle ones
        self.machines = range(inst.m)
        self.target = target
        self.contiguous = contiguous
        self.rules = rules
        self.budget = budget
        # the forward facts of a reduction searched at its own target
        self.equations = (
            rules.equations and target == inst.W and recognize(inst) is not None
        )
        plan = _plan(inst, rules.symmetry, self.equations)
        # the plan's tables, shared with every search of the instance under
        # the same rules: nothing writes into them
        self.jobs, self.first, self.cls_n = plan.jobs, plan.first, plan.cls_n
        self.cls_p, self.rec, self.upto = plan.cls_p, plan.rec, plan.upto
        self.forced, self.longest = plan.forced, plan.longest
        self.n = len(self.jobs)
        self.dead: set[int] | None = set() if rules.dead_states else None
        self.cell_bits = target.bit_length()
        # per scanned family, its classes with unplaced members
        self.live = [list(cs) for cs in plan.live]
        # unplaced jobs per width
        self.left = list(plan.left)
        # forced classes with unplaced members per width
        self.open_forced = list(plan.open_forced)
        # placed members per class (a rank prefix)
        self.taken = [0] * len(self.first)
        # the placed jobs in order, each with what undoes its placement
        self.path: list[tuple] = []
        self.nodes = 0
        self.starved = False
        # prunes per rule
        self.pruned_no_fit = self.pruned_symmetry = 0
        self.pruned_equations = self.pruned_dead = 0
        # per machine, its free time; the remaining-set bitmask
        self.cells = [0] * self.m
        self.rem_mask = (1 << self.n) - 1

    def prunes(self) -> dict[str, int]:
        """The prune count of each rule that fired."""
        counts = (
            ("no-fit", self.pruned_no_fit),
            ("symmetry", self.pruned_symmetry),
            ("equations", self.pruned_equations),
            ("dead-state", self.pruned_dead),
        )
        return {rule: count for rule, count in counts if count}

    def subsets(self, avail: tuple[int, ...], q: int) -> list[tuple[int, ...]]:
        """Machine sets for a q-machine job over the idle machines `avail`,
        in ascending order and at least q of them, each set holding the
        lowest idle machine avail[0].  No machine below avail[0] is idle, so
        an interval holding it starts there: in contiguous mode the one set
        is avail[:q] when it is an interval, else there is none.  In plain
        mode the symmetry rule takes avail[:q] for every set, as machines
        idle at the same instant are interchangeable."""
        if self.contiguous:
            return [avail[:q]] if avail[q - 1] - avail[0] == q - 1 else []
        if self.rules.symmetry:
            return [avail[:q]]
        return [(avail[0], *rest) for rest in combinations(avail[1:], q - 1)]

    # ----- candidate generation -----

    def _candidates(self, t: int) -> list[tuple[int, tuple[int, ...]]]:
        """(rank, machine set) for every placement at t, in rank order.  A
        rejected job counts as a prune of the first rule that rejects it:
        no-fit, symmetry or equations."""
        cells = self.cells
        # t is the earliest free instant, so free at t means free by t
        avail = []
        for m in self.machines:
            if cells[m] <= t:
                avail.append(m)
        avail = tuple(avail)
        width = len(avail)
        room = self.target - t
        taken, first, cls_n, cls_p = self.taken, self.first, self.cls_n, self.cls_p
        # every unplaced job wider than the idle machines is a no-fit
        no_fit = sum(self.left[width + 1 :])
        firsts = offered = emitters = 0
        out = []
        add = out.append
        if self.equations:
            # the forced classes at most `width` wide with unplaced members,
            # less those longer than the room, whose members are no-fit
            firsts = sum(self.open_forced[: width + 1])
            for p, q, c, size in self.longest:
                if p <= room:
                    break
                if q <= width and taken[c] < size:
                    no_fit += size - taken[c]
                    firsts -= 1
            # only the job whose forced start is t may start at t: the
            # next member of its class, when t is the class's next start
            # and the member fits
            for q, c, kth in self.forced.get(t, ()):
                if q <= width and taken[c] == kth and cls_p[c] <= room:
                    offered += 1
                    emitters += 1
                    r = first[c] + kth
                    for subset in self.subsets(avail, q):
                        add((r, subset))
        lives = self.live
        for f, q, facts in self.upto[width]:
            live = lives[f]
            n = len(live)
            i = 0
            while i < n and cls_p[live[i]] > room:
                c = live[i]
                no_fit += cls_n[c] - taken[c]
                i += 1
            # the first unplaced member of each class that fits
            firsts += n - i
            if i == n:
                continue
            if facts is None:
                offer = live[i:]
            else:
                # the rest of the gap that starts last by t, once its gamma
                # job is placed (else 0: no value may start), which its
                # values fill in descending order, see "Each gap is a bin"
                starts, ends, gammas, by_len, D = facts
                k = bisect_right(starts, t) - 1
                rest = ends[k] - t if k >= 0 and taken[gammas[k]] else 0
                if rest == D:
                    # the gap opens with the longest unplaced value
                    offer = live[i : i + 1]
                elif 2 * rest > D:
                    # a second value p, at least the third, rest - p, which
                    # must be another unplaced value: more than one unplaced
                    # job of length rest - p when that is p itself
                    offer = []
                    for c in live[i:]:
                        p = cls_p[c]
                        if 2 * p < rest:
                            break
                        spare = 0
                        for d in by_len.get(rest - p, ()):
                            spare += cls_n[d] - taken[d]
                        if spare > (2 * p == rest):
                            offer.append(c)
                else:
                    # the third value fills the gap
                    offer = [c for c in by_len.get(rest, ()) if taken[c] < cls_n[c]]
                if not offer:
                    continue
            offered += len(offer)
            emitters += 1
            subsets = self.subsets(avail, q)
            for c in offer:
                r = first[c] + taken[c]
                for subset in subsets:
                    add((r, subset))
        if emitters > 1 and self.equations:
            out.sort()
        # every other unplaced job trails a first member of its class, and
        # every first member that fits and no rule offered is an equations
        # prune
        self.pruned_no_fit += no_fit
        self.pruned_symmetry += self.n - len(self.path) - no_fit - firsts
        self.pruned_equations += firsts - offered
        return out

    # ----- state transitions -----

    def _place(self, r, subset, t):
        """Place the job of rank r on the machines `subset` at t, the
        earliest free instant.  The subset is taken from the machines free
        by t, and none is free before t, so each of them is free exactly at
        t: the undo sets their cells back to t, and the record keeps no copy
        of the cells."""
        rec = self.rec[r]
        c, f, full, bit, p, q = rec
        # r is the first unplaced member of class c
        taken = self.taken
        taken[c] += 1
        pos = None
        if taken[c] == full:
            # the class's last member: the class leaves its family's live
            # list, or the open forced classes of its width
            if f is None:
                self.open_forced[q] -= 1
                pos = -1  # not a list position: the undo reopens the class
            else:
                live = self.live[f]
                pos = live.index(c)
                del live[pos]
        self.left[q] -= 1
        cells = self.cells
        end = t + p
        for m in subset:
            cells[m] = end
        self.rem_mask ^= bit
        self.path.append((r, subset, t, rec, pos))

    def _unplace(self):
        _, subset, t, rec, pos = self.path.pop()
        c, f, _, bit, _, q = rec
        self.taken[c] -= 1
        if pos is not None:
            if f is None:
                self.open_forced[q] += 1
            else:
                self.live[f].insert(pos, c)
        self.left[q] += 1
        cells = self.cells
        for m in subset:
            cells[m] = t
        self.rem_mask ^= bit

    def _snapshot(self) -> Schedule:
        """The placed jobs as a schedule, in path order; the jobs placed on
        the same machines share one machine set."""
        starts, machines, sets, jobs = {}, {}, {}, self.jobs
        for r, subset, t, _, _ in self.path:
            jid = jobs[r].id
            starts[jid] = t
            used = sets.get(subset)
            if used is None:
                used = sets[subset] = frozenset(m + 1 for m in subset)
            machines[jid] = used
        return Schedule(starts=starts, machines=machines)

    def _key(self, cells: list[int], rem: int) -> int:
        """The dead-state key of the state whose machines are free at
        `cells` and whose remaining-set bitmask is `rem`: see "Dead states"
        in the module docstring."""
        if not self.contiguous:
            cells = sorted(cells)
        elif cells[::-1] < cells:
            cells = cells[::-1]
        bits = self.cell_bits
        for c in cells:
            rem = rem << bits | c
        return rem

    def _run(self, t: int, most: int) -> tuple[int | None, int]:
        """The forced run from t, the earliest free instant and a forced
        start: each forced job the rules offer at t is placed on the lowest
        idle machines, in the rank order of `_Plan.forced`, and so again at
        the next earliest free instant while it is a forced start; see
        "Forced runs" in the module docstring.  At most `most` jobs are
        placed.  Returns the earliest free instant reached, None at a forced
        start the run cannot fill or where a job past `most` was due, and
        the nodes taken: one per job placed, and one for the job past
        `most`, which is not placed."""
        cells, machines, room = self.cells, self.machines, self.target - t
        forced, taken, cls_p = self.forced, self.taken, self.cls_p
        first, place = self.first, self._place
        nodes = 0
        while t in forced:
            idle = [m for m in machines if cells[m] == t]
            for q, c, kth in forced[t]:
                if q <= len(idle) and taken[c] == kth and cls_p[c] <= room:
                    nodes += 1
                    if nodes > most:
                        return None, nodes
                    place(first[c] + kth, tuple(idle[:q]), t)
                    del idle[:q]
            if idle:
                return None, nodes
            t = min(cells)
            room = self.target - t
        return t, nodes

    def search(self) -> Schedule | None:
        """Depth-first over the candidates at the earliest free instant,
        from the empty schedule.

        The frames of pending candidates are an explicit stack, so depth is
        bounded by memory rather than by the interpreter's recursion limit.
        Each candidate is a child: it is counted as a node, and its key is
        read off the parent's cells with the job's machines set to its end
        and the job's bit taken out of the remaining set, before anything
        is placed.  A child whose key is a recorded dead state is tallied
        and never placed.  Any other is placed, and so is its forced run,
        where one applies (plain mode under the symmetry rule and the
        equation tables; see "Forced runs"), one node per job; then a frame
        of the candidates at the state reached opens and keeps the child's
        key.  A frame that runs out, or a run that reaches a forced start
        it cannot fill, records that key as dead and takes the child back
        with its run.  The run at 0 comes before the root frame, whose
        candidates open the root branches: each may place at most `budget`
        jobs, itself and its runs included.  The node past that sets
        `starved`, and the branch is abandoned, its frames and placements
        unwound to the root without being recorded, since they did not run
        out.

        The loop keeps what it reads at every node in locals and writes
        the node and dead-state counts back when it returns."""
        target, dead, budget, n = self.target, self.dead, self.budget, self.n
        path, cells, rec, forced = self.path, self.cells, self.rec, self.forced
        place, unplace = self._place, self._unplace
        candidates, key_of, run = self._candidates, self._key, self._run
        # whether forced runs apply
        runs = self.equations and self.rules.symmetry and not self.contiguous
        hits = 0
        # The run at 0 belongs to no root branch, so no budget binds it.  It
        # never completes the schedule, as no value job is forced; where it
        # cannot fill a forced start, no target schedule exists and the
        # root frame is empty.
        t, nodes = run(0, n) if runs and 0 in forced else (0, 0)
        root = len(path)
        # the root frame's candidates, each of which opens a root branch
        branches = iter(candidates(t) if t is not None else ())
        frames = [(t, branches, None, root)]
        while True:
            t, pending, key, base = frames[-1]
            step = next(pending, None)
            if step is None:
                if pending is branches:
                    break
                frames.pop()
                while len(path) > base:
                    unplace()
                if dead is not None and len(dead) < DEAD_STATE_CAP:
                    dead.add(key)
                continue
            if pending is branches:
                limit = nodes + budget
            nodes += 1
            if nodes > limit:
                self._abandon(frames, root)
                continue
            r, subset = step
            if dead is not None:
                _, _, _, bit, p, _ = rec[r]
                child = cells[:]
                end = t + p
                for m in subset:
                    child[m] = end
                key = key_of(child, self.rem_mask ^ bit)
                if key in dead:
                    hits += 1
                    continue
            base = len(path)
            place(r, subset, t)
            t = min(cells)
            if runs and t in forced:
                t, took = run(t, limit - nodes)
                nodes += took
                if nodes > limit:
                    self._abandon(frames, root)
                    continue
            if t is not None and t < target:
                frames.append((t, iter(candidates(t)), key, base))
            elif len(path) == n:
                self.nodes, self.pruned_dead = nodes, hits
                return self._snapshot()
            else:
                while len(path) > base:
                    unplace()
                # a run that cannot fill a forced start
                if t is None and dead is not None and len(dead) < DEAD_STATE_CAP:
                    dead.add(key)
        while path:
            unplace()
        self.nodes, self.pruned_dead = nodes, hits
        return None

    def _abandon(self, frames: list[tuple], root: int) -> None:
        """Abandon a root branch past its budget: its frames and placements
        are unwound to the root frame, of `root` placed jobs, unrecorded."""
        self.starved = True
        del frames[1:]
        while len(self.path) > root:
            self._unplace()


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
    `budget` caps the nodes of each root branch, one per candidate of the
    root frame: the placements at time 0, or, where forced runs apply
    (see "Forced runs"), the candidates of the first value choice, after
    a run at 0 that counts toward no branch.  A branch that would place
    more jobs than that, its root placement and its runs included, is
    abandoned and the next root branch tried; with no witness, one
    abandoned branch makes the outcome budget-exceeded.  Under the
    symmetry and equation rules, a plain decision of a reduction at its
    own W has forced runs, and its root frame holds one candidate, the
    longest value, as the gap order offers only a gap's first value:
    there `budget` bounds the whole search past the run at 0.  A witness
    in a later root branch can be found only where the root frame holds
    more, as in contiguous, symmetry-off and equations-off searches and
    in searches without forced runs.  The
    dead-state table is shared by all root branches.  With `contiguous`
    the machine set of every job must be an interval, matching the
    strip-packing reading.
    A `target` or `budget` that is not an int (a bool included) is
    refused with TypeError and a budget below 1 with InvalidInput, before any
    work; a balanced instance of more than `MAX_MACHINES` machines is
    refused before any search state.
    """
    for name, value in (("target", target), ("budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if budget < 1:
        raise InvalidInput(f"budget must be at least 1 node, not {budget}")
    check_instance(inst)
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
    if m > MAX_MACHINES:
        return Decision(
            "refused",
            None,
            0,
            reason=(
                f"too-many-machines: {m} machines exceed the {MAX_MACHINES} "
                "this search keeps per-machine state for"
            ),
        )

    search = _Search(inst, target, contiguous, rules, budget)
    witness = search.search()
    nodes, prunes = search.nodes, search.prunes()

    if witness is not None:
        report = verify(inst, witness)
        require(
            "the schedule found",
            (report.feasible, "feasible"),
            (report.makespan == target, f"makespan {target}"),
            (report.idle == 0, "zero idle"),
            (report.contiguous or not contiguous, "contiguous"),
        )
        return Decision("witness", witness, nodes, prunes)
    if search.starved:
        return Decision(
            "budget-exceeded",
            None,
            nodes,
            prunes,
            reason=f"node budget {budget} per root branch exhausted",
        )
    return Decision(
        "proved-none",
        None,
        nodes,
        prunes,
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
    SearchBudgetExceeded when the order tree outgrows `budget` expansions,
    and InvalidInput for more than 8 jobs or `MAX_MACHINES` machines, before
    any per-machine state is built.
    """
    if m > MAX_MACHINES:
        raise InvalidInput(f"optimize_small handles at most {MAX_MACHINES} machines")
    jobs = tuple(jobs)
    check_jobs(jobs, m)
    if len(jobs) > 8:
        raise InvalidInput("optimize_small handles at most 8 jobs")
    if not jobs:
        return 0, Schedule(starts={}, machines={})

    by_id = {j.id: j for j in jobs}
    # each job's closest smaller id of the same (p, q): identical jobs are
    # placed in ascending id order only
    pred: dict[str, str] = {}
    latest: dict[tuple[int, int], str] = {}
    for j in sorted(jobs, key=lambda j: j.id):
        if (j.p, j.q) in latest:
            pred[j.id] = latest[j.p, j.q]
        latest[j.p, j.q] = j.id

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

    sched = Schedule(starts=starts, machines=machines)
    report = verify(SchedulingInstance(m=m, z=0, D=0, W=opt, jobs=jobs), sched)
    require(
        "the schedule found",
        (report.feasible, "feasible"),
        (report.makespan == opt, f"makespan {opt}"),
    )
    return opt, sched
