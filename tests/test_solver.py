import os
import random
import subprocess
import sys
from collections import Counter
from copy import deepcopy
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import pytest

from gadgetforge import reduction, solver
from gadgetforge.extraction import extract_partition
from gadgetforge.reduction import (
    CHECKPOINT_TAGS,
    Job,
    SchedulingInstance,
    build_jobs,
    chain_values,
    forced_starts,
)
from gadgetforge.schedule import Schedule, audit, verify
from gadgetforge.solver import PruneRules, decide_target, optimize_small
from gadgetforge.exactnum import InvalidInput, digit_bound
from gadgetforge.threepartition import (
    ProvedNo,
    SearchBudgetExceeded,
    ThreePartitionInstance,
    gen_no,
    gen_yes,
    solve,
    validate,
    validate_partition,
)

from conftest import (
    contiguous_optimum,
    path_free_times,
    record_builds,
    reference_candidates,
    reference_decide,
    reference_gamma_window,
    reference_partition_gaps,
)


def generic(dims, m=4):
    jobs = tuple(
        Job(id=f"J{i}", p=p, q=q, tag="J", index=i)
        for i, (p, q) in enumerate(dims)
    )
    return SchedulingInstance(m=m, z=0, D=0, W=0, jobs=jobs)


def random_zero_idle(rng, horizon, m=4):
    """Carve a full m x horizon rectangle into rigid jobs, so a witness
    exists by construction and total work is exactly m * horizon."""
    free = [0] * m
    dims = []
    while min(free) < horizon:
        t = min(free)
        avail = [k for k in range(m) if free[k] == t]
        q = rng.randint(1, len(avail))
        p = rng.randint(1, horizon - t)
        for k in rng.sample(avail, q):
            free[k] = t + p
        dims.append((p, q))
    return generic(dims)


def order_oracle(jobs, m=4):
    """Brute force over all job orders with least-loaded greedy placement."""
    best = None
    for order in permutations(jobs):
        free = [0] * m
        for job in order:
            chosen = sorted(range(m), key=lambda k: (free[k], k))[: job.q]
            start = max(free[k] for k in chosen)
            for k in chosen:
                free[k] = start + job.p
        top = max(free)
        best = top if best is None else min(best, top)
    return best


# ===== decide_target on generic instances =====


def test_single_wide_job_is_witnessed_immediately():
    decision = decide_target(generic([(5, 4)]), 5)
    assert decision.outcome == "witness"
    assert decision.schedule.starts == {"J0": 0}
    assert decision.schedule.machines["J0"] == frozenset({1, 2, 3, 4})
    assert decision.nodes == 1


def test_balanced_work_with_no_packing_is_proved_none():
    # total work is 24 = 4*6 but no zero-idle layout of these pairs exists
    decision = decide_target(generic([(5, 2), (3, 2), (2, 2), (2, 2)]), 6)
    assert decision.outcome == "proved-none"
    assert "exhausted" in decision.reason
    assert decision.nodes > 0
    # the same jobs need makespan 7 once idling is allowed
    opt, _ = optimize_small(generic([(5, 2), (3, 2), (2, 2), (2, 2)]).jobs)
    assert opt == 7


def test_work_overflow_is_a_proved_negative():
    decision = decide_target(generic([(3, 4)]), 2)
    assert decision.outcome == "proved-none"
    assert decision.reason.startswith("work-overflow")
    assert decision.nodes == 0 and decision.schedule is None


def test_work_underflow_is_refused():
    decision = decide_target(generic([(3, 4)]), 4)
    assert decision.outcome == "refused"
    assert decision.reason.startswith("work-underflow")
    assert decision.schedule is None


def test_work_is_compared_with_m_times_the_target():
    # two one-machine jobs fill two machines up to 5 without idling
    decision = decide_target(generic([(5, 1), (5, 1)], m=2), 5)
    assert decision.outcome == "witness"
    assert decision.schedule.machines == {"J0": {1}, "J1": {2}}
    over = decide_target(generic([(5, 1), (5, 1)], m=2), 4)
    assert over.outcome == "proved-none"
    assert over.reason.startswith("work-overflow: total work 10 exceeds 2*4,")
    # a billion machines would idle: refused before any per-machine state
    huge = decide_target(generic([(5, 1)] * 4, m=10**9), 5)
    assert huge.outcome == "refused"
    assert huge.reason.startswith(
        "work-underflow: total work 20 is below 1000000000*5;"
    )
    assert huge.nodes == 0


def test_a_balanced_instance_with_too_many_machines_is_refused(monkeypatch):
    # One job as wide as m machines is balanced at target 1.  Above the
    # limit the refusal comes before the search builds any per-machine
    # state; at the limit the search is reached.
    def no_search(*args):
        raise AssertionError("a search was built")

    monkeypatch.setattr(solver, "_Search", no_search)
    top = solver.MAX_MACHINES
    for m in (top + 1, 10**9):
        huge = decide_target(generic([(1, m)], m=m), 1)
        assert huge.outcome == "refused"
        assert huge.reason == (
            f"too-many-machines: {m} machines exceed the {top} "
            "this search keeps per-machine state for"
        )
        assert huge.nodes == 0
    with pytest.raises(AssertionError, match="a search was built"):
        decide_target(generic([(1, top)], m=top), 1)


def test_empty_instance_is_trivially_witnessed():
    decision = decide_target(generic([]), 0)
    assert decision.outcome == "witness"
    assert decision.schedule.starts == {}


def test_random_rectangles_are_witnessed(subtests=None):
    rng = random.Random("solver-rectangles")
    for trial in range(20):
        horizon = rng.randint(4, 9)
        inst = random_zero_idle(rng, horizon)
        hit = decide_target(inst, horizon)
        assert hit.outcome == "witness", f"trial {trial}"
        below = decide_target(inst, horizon - 1)
        assert below.outcome == "proved-none"
        assert below.reason.startswith("work-overflow")
        if len(inst.jobs) <= 8:
            opt, _ = optimize_small(inst.jobs)
            assert opt == horizon


def test_contiguous_flag_restricts_machine_sets():
    rng = random.Random("solver-contiguous")
    for _ in range(10):
        inst = random_zero_idle(rng, rng.randint(4, 7))
        decision = decide_target(inst, inst.total_work // 4, contiguous=True)
        # a witness might not survive the contiguity restriction, but when
        # one is found its machine sets must be intervals
        if decision.outcome == "witness":
            for ms in decision.schedule.machines.values():
                run = sorted(ms)
                assert run == list(range(run[0], run[0] + len(run)))
        else:
            assert decision.outcome == "proved-none"


# ===== decide_target on reduction instances =====


def test_reduction_yes_yields_witness_that_extracts():
    inst3p, witness = gen_yes(1, 5)
    inst = build_jobs(inst3p)
    decision = decide_target(inst, inst.W)
    assert decision.outcome == "witness"
    partition, _ = extract_partition(inst3p, inst, decision.schedule)
    assert tuple(sorted(tuple(sorted(t)) for t in witness)) == partition


def test_reduction_below_target_is_overflow():
    inst3p, _ = gen_yes(1, 5)
    inst = build_jobs(inst3p)
    decision = decide_target(inst, inst.W - 1)
    assert decision.outcome == "proved-none"
    assert decision.reason.startswith("work-overflow")


def test_reduction_no_instance_is_proved_none():
    inst = build_jobs(gen_no(2, 3))
    decision = decide_target(inst, inst.W, contiguous=True)
    assert decision.outcome == "proved-none"
    assert "exhausted" in decision.reason


def test_budget_exhaustion_is_reported():
    inst3p, _ = gen_yes(1, 5)
    inst = build_jobs(inst3p)
    decision = decide_target(inst, inst.W, budget=3)
    assert decision.outcome == "budget-exceeded"
    assert decision.schedule is None
    assert "budget" in decision.reason


def test_symmetry_is_optional_on_reductions():
    inst3p, _ = gen_yes(1, 2)
    inst = build_jobs(inst3p)
    rules = PruneRules(symmetry=False)
    decision = decide_target(inst, inst.W, rules=rules)
    assert decision.outcome == "witness"
    extract_partition(inst3p, inst, decision.schedule)


def test_equations_off_abstains_rather_than_misanswers():
    # Without the identity pruning the z=1 tree runs to tens of millions of
    # nodes, so a starved search must say budget-exceeded, never proved-none.
    inst3p, _ = gen_yes(1, 2)
    inst = build_jobs(inst3p)
    rules = PruneRules(equations=False)
    starved = decide_target(inst, inst.W, rules=rules, budget=20_000)
    assert starved.outcome == "budget-exceeded"


def near_third(rng, z: int) -> ThreePartitionInstance:
    """3z values in a narrow window around D/3, strictly inside (D/4, D/2)
    and summing to zD, with D above the reduction's digit bound.  Many
    triples then sum to D, so yes and no instances both occur and a no
    instance can fill several gaps before its shortage shows."""
    spread = rng.randint(2, 16)
    D = max(digit_bound(z) + 1, 12 * spread + 12) + rng.randrange(64)
    lo, hi = D // 3 - spread, D // 3 + spread
    values = [rng.randint(lo, hi) for _ in range(3 * z)]
    delta = z * D - sum(values)
    while delta:
        i = rng.randrange(3 * z)
        step = 1 if delta > 0 else -1
        if lo <= values[i] + step <= hi:
            values[i] += step
            delta -= step
    return ThreePartitionInstance(tuple(values))


# the default rules and each other rule off in turn, the equation rule on
EQUATION_RULES = (
    PruneRules(),
    PruneRules(symmetry=False),
    PruneRules(dead_states=False),
)


def test_the_reduction_is_an_iff_on_random_value_sets():
    # The paper's theorem: the reduced instance has a schedule of makespan
    # W exactly when the values have a 3-partition.  `solve` decides the
    # right-hand side on its own, so on value sets that are neither planted
    # nor built to fail, every decision at W, plain and contiguous, under
    # every rule set that keeps the equation rule on, must agree with it,
    # and a witness must extract to a partition.
    rng = random.Random("iff")
    seen = Counter()
    for trial in range(96):
        z = 2 + trial % 4
        inst3p = near_third(rng, z)
        assert not validate(inst3p)
        yes = not isinstance(solve(inst3p), ProvedNo)
        inst = build_jobs(inst3p)
        for contiguous in (False, True):
            for rules in EQUATION_RULES:
                decision = decide_target(inst, inst.W, contiguous, rules=rules)
                assert decision.outcome == ("witness" if yes else "proved-none"), (
                    inst3p, contiguous, rules,
                )
            if yes:
                extract_partition(inst3p, inst, decision.schedule)
        seen[yes] += 1
    assert seen[True] >= 20 and seen[False] >= 20


def digit_trap_instance(D=33):
    """Four cube jobs D^3 and smalls {3,3,3,3,2,2} (in units of D^2) with
    target D^3 + 4D^2: the smalls cannot split into four groups of exactly
    4, so no witness exists.  Branches that stack smalls on a machine still
    owing its cube fit time-wise but overflow the D^2 digit, which no rule
    of the search reads: it sees only lengths, not digits, so the decision
    is the same at every D (see `test_the_digit_trap_does_not_depend_on_D`)."""
    dims = [(D**3, 1)] * 4 + [(3 * D**2, 1)] * 4 + [(2 * D**2, 1)] * 2
    jobs = tuple(
        Job(id=f"J{i:02d}", p=p, q=q, tag="J", index=i)
        for i, (p, q) in enumerate(dims)
    )
    inst = SchedulingInstance(m=4, z=1, D=D, W=0, jobs=jobs)
    return inst, D**3 + 4 * D**2


@pytest.mark.parametrize("dead_states", [False, True], ids=["plain", "table"])
def test_the_digit_trap_does_not_depend_on_D(dead_states):
    # The trap scales every length by D^2, and no rule of the search reads
    # a digit, so the tree, its prunes and the answer are the same at every
    # D, whether or not D lies above the reduction's digit bound (32 at z = 1).
    rules = PruneRules(dead_states=dead_states)
    seen = set()
    for D in (17, 29, 33, 41):
        inst, target = digit_trap_instance(D)
        assert inst.total_work == 4 * target
        decision = decide_target(inst, target, rules=rules)
        seen.add((decision.outcome, decision.nodes, frozenset(decision.prunes.items())))
    assert len(seen) == 1
    assert next(iter(seen))[0] == "proved-none"


def _at_w(inst3p):
    inst = build_jobs(inst3p)
    return inst, inst.W


# each pinned decision as a function of the rules, dead-state table included
PINNED_RUNS = {
    "no(2,3)-contiguous": lambda rules: decide_target(
        *_at_w(gen_no(2, 3)), contiguous=True, rules=rules
    ),
    "yes(16,0)": lambda rules: decide_target(
        *_at_w(gen_yes(16, 0)[0]), rules=rules
    ),
    "yes(16,3)-budget-1000": lambda rules: decide_target(
        *_at_w(gen_yes(16, 3)[0]), budget=1000, rules=rules
    ),
    "trap-D17": lambda rules: decide_target(*digit_trap_instance(17), rules=rules),
    "trap-D33": lambda rules: decide_target(*digit_trap_instance(33), rules=rules),
    "yes(1,5)-equations-off-budget-2000": lambda rules: decide_target(
        *_at_w(gen_yes(1, 5)[0]), budget=2000,
        rules=replace(rules, equations=False),
    ),
    # with symmetry off every class of identical jobs is a single job
    "yes(16,3)-symmetry-off-budget-100": lambda rules: decide_target(
        *_at_w(gen_yes(16, 3)[0]), budget=100,
        rules=replace(rules, symmetry=False),
    ),
    "yes(2,0)-contiguous-symmetry-off": lambda rules: decide_target(
        *_at_w(gen_yes(2, 0)[0]), contiguous=True,
        rules=replace(rules, symmetry=False),
    ),
    # a budget that every root branch stays within
    "yes(1,0)-contiguous-budget-30": lambda rules: decide_target(
        *_at_w(gen_yes(1, 0)[0]), contiguous=True, budget=30, rules=rules
    ),
}


@pytest.mark.parametrize(
    "run, dead_states, outcome, nodes, prunes",
    [
        pytest.param(
            "no(2,3)-contiguous", False, "proved-none", 36,
            {"equations": 515, "no-fit": 190, "symmetry": 96},
            id="no(2,3)-contiguous",
        ),
        pytest.param(
            "yes(16,0)", False, "witness", 197,
            {"equations": 1_986, "no-fit": 1_944, "symmetry": 630},
            id="yes(16,0)",
        ),
        pytest.param(
            "yes(16,3)-budget-1000", False, "witness", 209,
            {"equations": 2_108, "no-fit": 2_063, "symmetry": 668},
            id="yes(16,3)-budget-1000",
        ),
        pytest.param(
            "trap-D17", False, "proved-none", 3_346,
            {"no-fit": 3_308, "symmetry": 2_275},
            id="trap-D17",
        ),
        pytest.param(
            "trap-D33", False, "proved-none", 3_346,
            {"no-fit": 3_308, "symmetry": 2_275},
            id="trap-D33",
        ),
        pytest.param(
            "yes(1,5)-equations-off-budget-2000", False, "budget-exceeded",
            30_015,
            {"no-fit": 69_574, "symmetry": 41},
            id="yes(1,5)-equations-off-budget-2000",
        ),
        pytest.param(
            "yes(16,3)-symmetry-off-budget-100", False, "budget-exceeded", 404,
            {"equations": 44_537, "no-fit": 13_754},
            id="yes(16,3)-symmetry-off-budget-100",
        ),
        pytest.param(
            "yes(2,0)-contiguous-symmetry-off", False, "witness", 49,
            {"equations": 481, "no-fit": 164},
            id="yes(2,0)-contiguous-symmetry-off",
        ),
        pytest.param(
            "yes(1,0)-contiguous-budget-30", False, "witness", 28,
            {"equations": 142, "no-fit": 54, "symmetry": 5},
            id="yes(1,0)-contiguous-budget-30",
        ),
        pytest.param(
            "no(2,3)-contiguous", True, "proved-none", 20,
            {"dead-state": 1, "equations": 283, "no-fit": 101,
             "symmetry": 57},
            id="no(2,3)-contiguous-table",
        ),
        pytest.param(
            "yes(16,0)", True, "witness", 197,
            {"equations": 1_986, "no-fit": 1_944, "symmetry": 630},
            id="yes(16,0)-table",
        ),
        pytest.param(
            "yes(16,3)-budget-1000", True, "witness", 209,
            {"equations": 2_108, "no-fit": 2_063, "symmetry": 668},
            id="yes(16,3)-budget-1000-table",
        ),
        pytest.param(
            "trap-D17", True, "proved-none", 291,
            {"dead-state": 115, "no-fit": 99, "symmetry": 296},
            id="trap-D17-table",
        ),
        pytest.param(
            "trap-D33", True, "proved-none", 291,
            {"dead-state": 115, "no-fit": 99, "symmetry": 296},
            id="trap-D33-table",
        ),
        pytest.param(
            "yes(1,5)-equations-off-budget-2000", True, "budget-exceeded",
            30_015,
            {"dead-state": 12_360, "no-fit": 41_385, "symmetry": 41},
            id="yes(1,5)-equations-off-budget-2000-table",
        ),
        pytest.param(
            "yes(16,3)-symmetry-off-budget-100", True, "budget-exceeded", 404,
            {"equations": 44_537, "no-fit": 13_754},
            id="yes(16,3)-symmetry-off-budget-100-table",
        ),
        pytest.param(
            "yes(2,0)-contiguous-symmetry-off", True, "witness", 49,
            {"equations": 481, "no-fit": 164},
            id="yes(2,0)-contiguous-symmetry-off-table",
        ),
        pytest.param(
            "yes(1,0)-contiguous-budget-30", True, "witness", 28,
            {"equations": 142, "no-fit": 54, "symmetry": 5},
            id="yes(1,0)-contiguous-budget-30-table",
        ),
    ],
)
def test_node_and_prune_counts_are_pinned(run, dead_states, outcome, nodes, prunes):
    # The search visits its tree in a fixed order, so these counts are exact:
    # a change to candidate generation that alters the tree shows here, and
    # a rule that never fires must not appear as a zero-valued key.  The
    # cases without the dead-state table pin the tree it prunes.
    decision = PINNED_RUNS[run](PruneRules(dead_states=dead_states))
    assert decision.outcome == outcome
    assert decision.nodes == nodes
    assert dict(decision.prunes) == prunes


def test_a_later_root_branch_answers_after_an_earlier_one_starves():
    # Unbudgeted, the witness lies in a root branch that starves at budget
    # 20, so the capped search finds another one in a later root branch.
    # The abandoned frames of a starved branch did not run out; recording
    # them as dead would cut the later witness and leave budget-exceeded.
    inst, target = _at_w(gen_yes(1, 0)[0])
    free = decide_target(inst, target, contiguous=True)
    assert free.outcome == "witness" and free.nodes == 28
    for dead_states in (True, False):
        search = solver._Search(
            inst, target, True, PruneRules(dead_states=dead_states), 20
        )
        witness = search.search()
        assert search.starved and witness is not None
        assert witness.to_json() != free.schedule.to_json()


@pytest.mark.parametrize(
    "z, seed, contiguous, budget",
    [
        pytest.param(1, 0, True, 30, id="yes(1,0)-contiguous-budget-30"),
        *(
            pytest.param(z, s, c, None, id=f"yes({z},{s}){'-contiguous' * c}")
            for z, s, c in [
                (1, 0, False), (2, 1, False), (6, 0, False),
                (1, 0, True), (2, 0, True), (2, 3, True),
            ]
        ),
    ],
)
def test_every_witness_runs_forward(z, seed, contiguous, budget):
    # Under the equation tables only the forward direction is searched: the
    # pinned jobs of each tag take the forced starts of that tag (identical
    # jobs may swap ids) and every gamma job starts inside its window.
    inst, target = _at_w(gen_yes(z, seed)[0])
    kwargs = {"budget": budget} if budget else {}
    decision = decide_target(inst, target, contiguous, **kwargs)
    assert decision.outcome == "witness"
    starts = decision.schedule.starts
    forced, found = {}, {}
    for jid, s in forced_starts(inst).items():
        tag = inst.by_id[jid].tag
        forced.setdefault(tag, []).append(s)
        found.setdefault(tag, []).append(starts[jid])
    assert {t: sorted(v) for t, v in found.items()} == {
        t: sorted(v) for t, v in forced.items()
    }
    for j in inst.tagged("gamma"):
        lo, hi = reference_gamma_window(inst, j.index)
        assert lo <= starts[j.id] <= hi


@pytest.mark.parametrize("contiguous", [False, True], ids=["plain", "contiguous"])
def test_witnesses_meet_the_count_chains(contiguous):
    # The search does not test the count chains, which its forced starts
    # imply; the audit checks them on every witness, and extraction reads
    # a partition from it.
    for z in range(1, 7):
        for seed in range(4):
            inst3p = gen_yes(z, seed)[0]
            inst = build_jobs(inst3p)
            decision = decide_target(inst, inst.W, contiguous)
            assert decision.outcome == "witness"
            assert audit(inst, decision.schedule).passed
            partition, _ = extract_partition(inst3p, inst, decision.schedule)
            assert validate_partition(inst3p, partition) == []


def _carves(rng, count):
    """`count` random zero-idle carves of 12 to 20 jobs."""
    out = []
    while len(out) < count:
        inst = random_zero_idle(rng, rng.randint(6, 14))
        if 12 <= len(inst.jobs) <= 20:
            out.append(inst)
    return out


def _answer(decision):
    """A decision without its node and prune counts."""
    payload = decision.to_dict()
    del payload["nodes"], payload["prunes"]
    return payload


def test_dead_states_keep_every_answer_on_random_carves():
    # A cut removes only subtrees without a witness, so the first witness
    # found depth first is the same with the table on and off.
    seen = Counter()
    for inst in _carves(random.Random("dead-state-differential"), 40):
        target = inst.total_work // 4
        for contiguous in (False, True):
            on = decide_target(inst, target, contiguous)
            off = decide_target(
                inst, target, contiguous, rules=PruneRules(dead_states=False)
            )
            assert _answer(on) == _answer(off)
            assert on.nodes <= off.nodes
            seen.update(on.prunes.keys())
    assert seen["dead-state"]


@pytest.mark.parametrize(
    "inst3p, contiguous",
    [
        pytest.param(gen_no(2, 0), True, id="no(2,0)-contiguous"),
        *(
            pytest.param(gen_yes(2, s)[0], True, id=f"yes(2,{s})-contiguous")
            for s in range(4)
        ),
        *(pytest.param(gen_yes(6, s)[0], False, id=f"yes(6,{s})") for s in range(4)),
    ],
)
def test_dead_states_keep_every_answer_on_reductions(inst3p, contiguous):
    # the equation rule's forced-start and gap-rest tests read t, the
    # placed counts and the unplaced values, which the key fixes
    inst = build_jobs(inst3p)
    on = decide_target(inst, inst.W, contiguous)
    off = decide_target(
        inst, inst.W, contiguous, rules=PruneRules(dead_states=False)
    )
    assert _answer(on) == _answer(off)
    assert on.nodes <= off.nodes


def residue_family(z: int, r: int, seed: int = 0) -> ThreePartitionInstance:
    """A no-instance whose cost is the search: D = 3b with b the first
    value = 1 (mod 4) above 4 digit_bound(z) / 3, the values b + 4e for
    3z - 4 draws e from [-r, r], nudged by one until they sum to 0, and
    b - 1 three times and b + 3.  D = 3 (mod 4), and a triple reaches it
    only from three values = 1 (mod 4), of which there are 3z - 4, so no
    partition exists; yet many triples of them sum to D."""
    b = 4 * digit_bound(z) // 3 + 1
    b += (1 - b) % 4
    rng = random.Random(f"residue:{z}:{r}:{seed}")
    e = [rng.randint(-r, r) for _ in range(3 * z - 4)]
    i = 0
    while sum(e):
        step = -1 if sum(e) > 0 else 1
        if abs(e[i] + step) <= r:
            e[i] += step
        i = (i + 1) % len(e)
    return ThreePartitionInstance((*(b + 4 * x for x in e), b - 1, b - 1, b - 1, b + 3))


def _run_cases(residue_z=8):
    """Decisions at W of `gen_yes` for z <= 6, `gen_no` for z <= 3 and the
    residue family for z <= `residue_z`, and the digit traps, which have
    no forced starts."""
    cases = [(f"yes({z},{s})", gen_yes(z, s)[0]) for z in range(1, 7) for s in range(4)]
    cases += [(f"no({z},{s})", gen_no(z, s)) for z in (2, 3) for s in range(4)]
    cases += [(f"residue({z},{r})", residue_family(z, r))
              for z in range(2, residue_z + 1) for r in (3, 8)]
    out = [(name, *_at_w(inst3p)) for name, inst3p in cases]
    return out + [(f"trap{D}", *digit_trap_instance(D)) for D in (17, 33)]


@pytest.mark.parametrize("dead_states", [True, False], ids=["table", "no-table"])
def test_forced_runs_keep_every_answer_and_witness(dead_states):
    # A forced run places the jobs of each forced start in the order the
    # reference search, with a frame at every placement, tries first, so
    # every outcome and every witness's bytes are the reference's.  Without
    # the table the run only skips nodes the reference visits, and the
    # reference's residue family runs past 10^5 nodes from z = 5 on.
    rules = PruneRules(dead_states=dead_states)
    seen = Counter()
    for name, inst, target in _run_cases(8 if dead_states else 4):
        new = decide_target(inst, target, rules=rules)
        ref = reference_decide(inst, target, rules=rules)
        assert _answer(new) == _answer(ref), name
        if new.schedule is not None:
            assert new.schedule.to_json() == ref.schedule.to_json(), name
        if not dead_states:
            assert new.nodes <= ref.nodes, name
        seen[new.outcome] += 1
        seen["fewer"] += new.nodes < ref.nodes
    assert seen["witness"] and seen["proved-none"] and seen["fewer"]


@pytest.mark.parametrize(
    "contiguous, rules",
    [
        (True, PruneRules()),
        (False, PruneRules(symmetry=False)),
        (False, PruneRules(equations=False)),
    ],
    ids=["contiguous", "symmetry-off", "equations-off"],
)
def test_searches_without_forced_runs_are_the_reference(contiguous, rules):
    # Forced runs are for plain searches under both rules: every other
    # search keeps a frame at each placement, node for node.
    for name, inst, target in _run_cases()[::3]:
        for budget in (4, 300):
            new = decide_target(inst, target, contiguous, budget=budget, rules=rules)
            ref = reference_decide(inst, target, contiguous, budget=budget, rules=rules)
            assert new.to_dict() == ref.to_dict(), (name, budget)


@pytest.mark.parametrize(
    "inst3p", [gen_yes(2, 0)[0], residue_family(5, 3)], ids=["yes(2,0)", "residue(5,3)"]
)
def test_a_budget_that_ends_inside_a_run_never_proves_none(inst3p, monkeypatch):
    # A budget that ends inside a forced run abandons its root branch like
    # any other: the outcome is budget-exceeded, never proved-none, and
    # nothing stays placed.  A budget the branch stays within answers as
    # the search does without one.
    inst, target = _at_w(inst3p)
    free = decide_target(inst, target)
    run, cuts = solver._Search._run, Counter()

    def counted(search, t, most):
        # a run that places a job and then finds the budget spent
        t, took = run(search, t, most)
        cuts["mid-run"] += took > most > 0
        return t, took

    monkeypatch.setattr(solver._Search, "_run", counted)
    for budget in range(1, free.nodes):
        search = solver._Search(inst, target, False, PruneRules(), budget)
        witness = search.search()
        if search.starved:
            assert witness is None and search.path == []
            assert decide_target(inst, target, budget=budget).outcome == "budget-exceeded"
        else:
            assert decide_target(inst, target, budget=budget).to_dict() == free.to_dict()
    assert cuts["mid-run"]


class _CutInsideTheFirstRun(solver._Search):
    """A search whose root frame lists each candidate twice, and whose first
    run in a root branch places two jobs and then finds the budget spent."""

    cut = None

    def _candidates(self, t):
        out = super()._candidates(t)
        if self.cut is None:
            self.cut = True
            return out * 2
        return out

    def _run(self, t, most):
        if self.cut:
            self.cut = False
            t, took = super()._run(t, 2)
            assert took == 3 and t is None
            return t, most + 1
        return super()._run(t, most)


def test_a_later_root_branch_answers_after_a_cut_inside_a_run():
    # Under forced runs a reduction's root frame lists one value, the
    # longest, so a budget never ends there with a root branch to spare;
    # a search that repeats its root candidate shows that a branch cut
    # inside a run is unwound, and that the next root branch answers.
    inst, target = _at_w(gen_yes(2, 0)[0])
    free = decide_target(inst, target)
    search = _CutInsideTheFirstRun(inst, target, False, PruneRules(), 10**6)
    witness = search.search()
    assert search.starved and not search.cut
    assert witness.to_json() == free.schedule.to_json()


def test_a_full_dead_state_table_only_loses_prunes(monkeypatch):
    # a case where the table cuts in both modes: with forced runs a plain
    # search of gen_no(2, 3) takes 11 nodes with or without it
    inst, target = _at_w(residue_family(5, 3))
    full = {c: decide_target(inst, target, c).nodes for c in (False, True)}
    tables = []
    init = solver._Search.__init__

    def keep_table(search, *args):
        init(search, *args)
        tables.append(search.dead)

    monkeypatch.setattr(solver._Search, "__init__", keep_table)
    monkeypatch.setattr(solver, "DEAD_STATE_CAP", 5)
    for contiguous in (False, True):
        capped = decide_target(inst, target, contiguous)
        assert capped.outcome == "proved-none"
        assert full[contiguous] < capped.nodes
        assert len(tables.pop()) == 5


def _tagged_carve(rng):
    """A random carve whose jobs carry one of two tags, so that one class of
    identical jobs can hold both."""
    inst = random_zero_idle(rng, rng.randint(6, 10))
    jobs = tuple(replace(j, tag=rng.choice("JK")) for j in inst.jobs)
    return replace(inst, jobs=jobs)


def _scan_cases():
    rng = random.Random("family-scan")
    cases = [(*digit_trap_instance(D), 200) for D in (17, 33)]
    cases += [(inst, inst.total_work // 4, 200) for inst in _carves(rng, 4)]
    cases += [(inst, inst.total_work // 4, 200)
              for inst in (_tagged_carve(rng) for _ in range(4))]
    cases += [(*_at_w(gen_yes(z, z % 4)[0]), 6) for z in (6, 10, 16)]
    # a witness: its value jobs fill their gaps exactly
    cases.append((*_at_w(gen_yes(1, 5)[0]), 200))
    cases.append((*_at_w(gen_no(2, 3)), 150))
    # 160 + 2 * 120 = D = 400 with a single 120: once 160 opens a gap, a
    # 120 leaves a rest of 120 that only another 120 could fill
    values = (160, 120, 130, 110, 140, 140)
    cases.append((*_at_w(ThreePartitionInstance(values)), 200))
    return cases


SCAN_RULES = (
    PruneRules(),
    PruneRules(equations=False),
    PruneRules(symmetry=False),
    PruneRules(symmetry=False, equations=False),
)


def test_family_scan_matches_the_per_job_scan(monkeypatch):
    # At every node the family scan must list the same placements in the
    # same order and add the same prune counts as the reference scan, which
    # visits every job.
    scan = solver._Search._candidates
    seen = Counter()

    def tallies(search):
        return Counter({
            "no-fit": search.pruned_no_fit,
            "symmetry": search.pruned_symmetry,
            "equations": search.pruned_equations,
        })

    def both(search, t):
        before = tallies(search)
        out = scan(search, t)
        added = tallies(search)
        added.subtract(before)
        want, counts = reference_candidates(search, t)
        assert [(search.jobs[r].id, s) for r, s in out] == [(j.id, s) for j, s in want]
        assert +added == counts
        seen["nodes"] += 1
        seen["two tags"] += any(
            len({j.tag for j in search.jobs[a : a + n]}) > 1
            for a, n in zip(search.first, search.cls_n)
        )
        seen["equations"] += search.equations
        return out

    monkeypatch.setattr(solver._Search, "_candidates", both)
    for inst, target, budget in _scan_cases():
        for rules in SCAN_RULES:
            for contiguous in (False, True):
                decide_target(inst, target, contiguous, budget=budget, rules=rules)
    assert seen["nodes"] > 10_000
    assert seen["two tags"] and seen["equations"]


@pytest.mark.parametrize("contiguous", [False, True], ids=["plain", "contiguous"])
def test_the_key_forgets_which_job_runs(contiguous):
    # Nothing in a subtree reads which job runs on a machine, so two
    # prefixes with the same remaining jobs and free times share one key.
    # Machine 1 runs J (p = 2) then K (p = 3) in one and K then J in the
    # other, while L holds the other machines over [0, 4), so t = 4.
    jobs = (
        Job("J", 2, 1, "J"), Job("K", 3, 1, "K"),
        Job("L", 4, 3, "J"), Job("M", 1, 3, "K"),
    )
    inst = SchedulingInstance(m=4, z=0, D=0, W=0, jobs=jobs)
    keys, running = [], []
    for first, second in (("J", "K"), ("K", "J")):
        search = solver._Search(inst, 5, contiguous, PruneRules(), 1)
        rank = {j.id: r for r, j in enumerate(search.jobs)}
        search._place(rank["L"], (1, 2, 3), 0)
        search._place(rank[first], (0,), 0)
        search._place(rank[second], (0,), inst.by_id[first].p)
        assert search.cells == [5, 4, 4, 4]
        keys.append(search._key(search.cells, search.rem_mask))
        running.append(search.jobs[search.path[-1][0]].tag)
    assert running == ["K", "J"]
    assert keys[0] == keys[1]


class _CountedCutOffs(solver._Search):
    """A search that counts its starved cut-offs: each sets `starved`."""

    @property
    def starved(self):
        return self.cut_offs > 0

    @starved.setter
    def starved(self, value):
        self.cut_offs = getattr(self, "cut_offs", 0) + value


LOOK_CASES = {
    "carve": lambda: _one_carve("look-1"),
    "carve2": lambda: _one_carve("look-2"),
    "yes(1,5)": lambda: _at_w(gen_yes(1, 5)[0]),
    "no(2,3)": lambda: _at_w(gen_no(2, 3)),
    "trap17": lambda: digit_trap_instance(17),
}


def test_a_child_is_keyed_before_it_is_placed(monkeypatch):
    # The search reads a choice's dead-state key off the parent's cells and
    # remaining set before it places the choice's job, so that key must be
    # the one `_key` gives the state `_place` then makes; the placements of
    # a forced run read no key.  A child whose key is dead is counted but
    # never placed, so the placements are the nodes less the dead-state
    # prunes and the starved cut-offs.
    key, place, run = solver._Search._key, solver._Search._place, solver._Search._run
    read, seen = [], Counter()

    def keyed(search, cells, rem):
        read.append(key(search, cells, rem))
        return read[-1]

    def placing(search, job, subset, t):
        place(search, job, subset, t)
        seen["placed"] += 1
        if seen["running"]:
            assert not read
            seen["run"] += 1
        elif search.dead is not None and len(search.path) < search.n:
            assert read[-1] == key(search, search.cells, search.rem_mask)
            seen["keyed"] += 1
        read.clear()

    def running(search, t, most):
        seen["running"] = 1
        try:
            return run(search, t, most)
        finally:
            seen["running"] = 0

    monkeypatch.setattr(solver._Search, "_key", keyed)
    monkeypatch.setattr(solver._Search, "_place", placing)
    monkeypatch.setattr(solver._Search, "_run", running)
    settings = product(
        LOOK_CASES.values(),
        (PruneRules(*flags) for flags in product((True, False), repeat=3)),
        (False, True),
        (1, 7, 60),
    )
    for case, rules, contiguous, budget in settings:
        seen["placed"] = 0
        read.clear()
        search = _CountedCutOffs(*case(), contiguous, rules, budget)
        search.search()
        assert seen["placed"] == search.nodes - search.pruned_dead - search.cut_offs
        seen["dead"] += search.pruned_dead
        seen["cut-offs"] += search.cut_offs
    assert seen["keyed"] and seen["run"] and seen["dead"] and seen["cut-offs"]


def _subset_sums(values) -> int:
    """Every sum of a sub-multiset of `values`, as the bits of one int."""
    sums = 1
    for v in values:
        sums |= sums << v
    return sums


def _random_walk(search, rng, steps):
    """Depth first over the candidates of `search` in random order, for at
    most `steps` nodes: yields each node's earliest free instant t and its
    candidate list, which the caller may extend, then places the next
    candidate, backing up where none is left.  Ends at a witness or when
    the root runs out."""
    frames = []
    for _ in range(steps):
        t = min(path_free_times(search))
        cands = search._candidates(t)
        yield t, cands
        rng.shuffle(cands)
        frames.append((t, iter(cands)))
        while frames:
            t, pending = frames[-1]
            step = next(pending, None)
            if step is not None:
                search._place(*step, t)
                break
            frames.pop()
            if search.path:
                search._unplace()
        if not frames or len(search.path) == search.n:
            return


@pytest.mark.parametrize("contiguous", [False, True], ids=["plain", "contiguous"])
def test_the_gap_rest_cut_rejects_only_rests_no_values_fill(contiguous):
    # The gap order keeps the completions of gap k = [lo, hi) in which
    # gamma_k starts at lo and its values follow in descending order, the
    # first the longest value left when the gap opens.  A value job of
    # length p that fits inside the gap at t may be cut only if the gap has
    # no such completion with it: gamma_k is not at lo, or p opens the gap
    # (t = lo + |gamma_k|) and a longer value is unplaced, or no
    # sub-multiset of the other unplaced values, none longer than p, sums
    # to the rest hi - t - p, found here by an exact subset search.  And
    # gamma_k is offered at lo whenever it is unplaced.  A depth-first walk
    # in random order, now and then placing any job that fits, reaches gap
    # states the search's own order does not, and states off the forward
    # direction.
    rng = random.Random("gap-rest")
    cases = [gen_yes(z, s)[0] for z in range(2, 7) for s in range(2)]
    cases.append(gen_no(2, 3))
    cuts = 0
    for inst3p in cases:
        inst, target = _at_w(inst3p)
        gaps = reference_partition_gaps(inst)
        gamma = {j.index: j for j in inst.tagged("gamma")}
        search = solver._Search(inst, target, contiguous, PruneRules(), 1)
        for t, cands in _random_walk(search, rng, 300):
            free = path_free_times(search)
            jobs = search.jobs
            offered = {jobs[r].id for r, _ in cands}
            starts = {jobs[r].id: start for r, _, start, *_ in search.path}
            # the first unplaced member of each class that has one
            classes = zip(search.first, search.cls_n, search.taken)
            heads = [a + k for a, n, k in classes if k < n]
            values = {j.id: j.p for j in inst.tagged("P") if j.id not in starts}
            for k, (lo, hi) in enumerate(gaps, 1):
                g = gamma[k]
                if t == lo and g.id not in starts:
                    assert g.id in offered
                for job in map(jobs.__getitem__, heads):
                    if job.tag != "P" or job.id in offered:
                        continue
                    if not lo <= t or t + job.p > hi:
                        continue
                    others = [v for i, v in values.items() if i != job.id]
                    opens = t == lo + g.p
                    assert (
                        starts.get(g.id) != lo
                        or opens and max(others, default=0) > job.p
                        or not _subset_sums(v for v in others if v <= job.p)
                        >> (hi - t - job.p) & 1
                    )
                    cuts += 1
            if rng.random() < 0.05:
                idle = [m for m, end in enumerate(free) if end == t]
                cands += [
                    (r, tuple(sorted(rng.sample(idle, jobs[r].q))))
                    for r in heads
                    if jobs[r].q <= len(idle) and jobs[r].p <= target - t
                ][:1]
    assert cuts > 100


def test_the_count_chains_hold_where_a_pinned_family_asks():
    # The lemma of "No count chains" in the solver: wherever the search
    # offers a pinned job at t, every finished count at t is the canonical
    # one, so the chain of the offered job's family holds.  A walk over the
    # search's own candidates in random order, with the symmetry rule on
    # and off, reaches states the search's order does not.  None of them
    # holds a pinned job of another length than the canonical job at its
    # start, or two pinned jobs at one start.
    rng = random.Random("count-chains")
    offers = 0
    cases = [gen_yes(z, s)[0] for z in range(1, 5) for s in range(2)]
    for inst3p in cases + [gen_no(2, 3)]:
        inst = build_jobs(inst3p)
        canonical = {
            (inst.by_id[jid].tag, s): inst.by_id[jid].p
            for jid, s in forced_starts(inst).items()
        }
        for symmetry, contiguous in product((True, False), repeat=2):
            rules = PruneRules(symmetry=symmetry)
            search = solver._Search(inst, inst.W, contiguous, rules, 1)
            for t, cands in _random_walk(search, rng, 300):
                placed = [(search.jobs[r], s) for r, _, s, *_ in search.path]
                pinned = [
                    ((j.tag, s), j.p) for j, s in placed if j.tag not in ("gamma", "P")
                ]
                assert len(dict(pinned)) == len(pinned)
                assert all(canonical.get(slot) == p for slot, p in pinned)
                asking = {search.jobs[r].tag for r, _ in cands} & set(CHECKPOINT_TAGS)
                if not asking:
                    continue
                fin = Counter(tag for (tag, s), p in pinned if s + p <= t)
                want = Counter(tag for (tag, s), p in canonical.items() if s + p <= t)
                assert fin == want
                for tag in asking:
                    assert len(set(chain_values(tag, fin.__getitem__).values())) == 1
                    offers += 1
    assert offers > 100


def test_the_forward_geometry_is_worked_out_once_per_instance(monkeypatch):
    # The closed forms and the premise checks depend only on the instance,
    # so a second search on it, under other rules, calls none of them.
    calls = []
    real = reduction._start_columns
    monkeypatch.setattr(
        reduction, "_start_columns", lambda inst: calls.append(inst) or real(inst)
    )
    inst, target = _at_w(gen_yes(14, 0)[0])
    solver._Search(inst, target, False, PruneRules(), 1)
    assert calls == [inst]
    calls.clear()
    for symmetry, contiguous in product((True, False), repeat=2):
        rules = PruneRules(symmetry=symmetry)
        solver._Search(inst, target, contiguous, rules, 1)
    assert not calls


def _one_carve(seed):
    """One random carve and its target, a quarter of its work."""
    (inst,) = _carves(random.Random(seed), 1)
    return inst, inst.total_work // 4


def _plan_carve():
    return _one_carve("plan-5")


PLAN_CASES = {"carve": _plan_carve, "yes(1,0)": lambda: _at_w(gen_yes(1, 0)[0])}


@pytest.mark.parametrize("case", PLAN_CASES)
def test_a_plan_kept_on_the_instance_changes_no_decision(case, monkeypatch):
    # The plan depends only on the instance and the rules, so one instance
    # object decided again and again, under every rule set and budget, in
    # either order, decides as a fresh copy of it does.  With the equation
    # rule off, a reduction at the default budget runs for millions of
    # nodes, so 300 stands in for it there.
    inst, target = PLAN_CASES[case]()
    settings = [
        (rules, contiguous, budget)
        for rules in (PruneRules(*flags) for flags in product((True, False), repeat=3))
        for contiguous in (False, True)
        for budget in (1, 4, 30, solver.DEFAULT_BUDGET)
    ]
    outcomes = Counter()
    builds = record_builds(monkeypatch, solver._plan)
    for order in (settings, settings[::-1]):
        kept = replace(inst)
        for rules, contiguous, budget in order:
            if case != "carve" and not rules.equations:
                budget = min(budget, 300)
            got, want = (
                decide_target(each, target, contiguous, budget=budget, rules=rules)
                .to_dict()
                for each in (kept, replace(inst))
            )
            assert got == want
            outcomes[got["outcome"]] += 1
        # one build per rule key on the kept instance
        rule_keys = [args for _, each, args in builds if each is kept]
        assert len(rule_keys) == len(set(rule_keys)) == (2 if case == "carve" else 4)
    assert outcomes["witness"] and outcomes["budget-exceeded"]


@pytest.mark.parametrize(
    "case, budget, outcome",
    [
        ("yes(1,0)", 1, "starved"),
        ("yes(1,0)", 10**6, "witness"),
        ("no(2,3)", 10**6, "proved-none"),
    ],
)
@pytest.mark.parametrize("contiguous", [False, True], ids=["plain", "contiguous"])
def test_no_search_writes_into_its_plan(case, budget, outcome, contiguous):
    inst, target = {**PLAN_CASES, **UNDO_CASES}[case]()
    search = solver._Search(inst, target, contiguous, PruneRules(), budget)
    plan = solver._plan(inst, True, True)
    before = deepcopy(plan)
    witness = search.search()
    seen = "starved" if search.starved else "witness" if witness else "proved-none"
    assert seen == outcome
    assert plan == before


@pytest.mark.parametrize("z", range(1, 17))
def test_gamma_windows_are_disjoint_and_each_gamma_is_its_own_class(z):
    # The node scan finds the one gamma job that may start at t by looking
    # t up in the forced-start index, which is sound only on these two facts.
    insts = [build_jobs(gen_yes(z, z)[0])]
    if z >= 2:
        insts.append(build_jobs(gen_no(z, z)))
    for inst in insts:
        gammas = inst.tagged("gamma")
        windows = sorted(reference_gamma_window(inst, j.index) for j in gammas)
        assert len(windows) == z
        assert all(hi < lo for (_, hi), (lo, _) in zip(windows, windows[1:]))
        assert len({(j.p, j.q) for j in gammas}) == z
        search = solver._Search(inst, inst.W, False, PruneRules(), 1)
        at = {
            s: (c, kth)
            for s, forced in search.forced.items()
            for _, c, kth in forced
            if search.jobs[search.first[c]].tag == "gamma"
        }
        assert sorted(at) == [lo for lo, _ in windows]
        assert all(search.cls_n[c] == 1 for c, _ in at.values())


def _patched_columns(change):
    """`reduction._start_columns` with `change` applied to each result, the
    forward starts per tag in index order."""

    def patch(real):
        def columns(inst):
            out = real(inst)
            change(out)
            return out

        return columns

    return patch


def test_overlapping_gamma_windows_are_refused(monkeypatch):
    # every gamma window starts where the first one does
    def overlap(columns):
        columns["gamma"] = [columns["gamma"][0]] * len(columns["gamma"])

    inst, target = _at_w(gen_yes(3, 0)[0])
    patch = _patched_columns(overlap)
    monkeypatch.setattr(reduction, "_start_columns", patch(reduction._start_columns))
    with pytest.raises(RuntimeError, match="gamma starts .* pairwise distinct"):
        solver._Search(inst, target, False, PruneRules(), 1)


def test_coinciding_forced_starts_are_refused(monkeypatch):
    # A family's job at t is looked up by its forced start, as a gamma
    # job's is, so the forced starts of one tag must differ.  The check
    # runs with the forward geometry, once per instance, so each search
    # gets an instance of its own.
    def coincide(columns):
        columns["alpha"][1] = columns["alpha"][0]

    patch = _patched_columns(coincide)
    monkeypatch.setattr(reduction, "_start_columns", patch(reduction._start_columns))
    for symmetry in (True, False):
        inst, target = _at_w(gen_yes(3, 0)[0])
        rules = PruneRules(symmetry=symmetry)
        with pytest.raises(RuntimeError, match="alpha starts .* distinct"):
            solver._Search(inst, target, False, rules, 1)


def _shifted_alpha(columns):
    """alpha_1 one unit late, inside the first gap."""
    columns["alpha"][0] += 1


def _late_lambda2(columns):
    """lambda2 one unit late, past the target."""
    columns["lambda2"][0] += 1


def _short_gaps(columns):
    """Every B separator after B_0 one unit early, so that every gap, which
    ends at the next B's start, is one unit short of its gamma job and D."""
    columns["B"][1:] = [s - 1 for s in columns["B"][1:]]


# The forced starts and the gaps are perturbed where the geometry reads
# them, in `_start_columns`; the ids name the forced starts by
# `forced_starts`, which reads the same columns.
@pytest.mark.parametrize(
    "name, patch, message",
    [
        pytest.param(
            "_start_columns",
            _patched_columns(_shifted_alpha),
            "m - 1 machines pinned",
            id="forced_starts-_shifted_alpha-m - 1 machines pinned",
        ),
        pytest.param(
            "_start_columns",
            _patched_columns(_short_gaps),
            "one window inside each gap",
            id="_start_columns-_short_gaps-one window inside each gap",
        ),
        pytest.param(
            "_start_columns",
            _patched_columns(_late_lambda2),
            "m machines pinned at every instant outside",
            id="forced_starts-_late_lambda2-m machines pinned at every instant outside",
        ),
    ],
)
def test_the_gap_rest_premises_are_checked(monkeypatch, name, patch, message):
    # The gap order is sound only while one machine is left in every gap
    # and each gamma window fills its own gap from the gap's start, leaving
    # D beside the gamma job; the lemma that no count chain can cut reads
    # that the pinned jobs hold every machine outside the gaps.
    inst, target = _at_w(gen_yes(3, 0)[0])
    monkeypatch.setattr(reduction, name, patch(getattr(reduction, name)))
    with pytest.raises(RuntimeError, match=message):
        solver._Search(inst, target, False, PruneRules(), 1)


def test_two_tags_on_one_shape_are_refused():
    # The symmetry rule keys a class by (p, q), so under the equation
    # tables a class lies inside one (q, tag) family only while each (p, q)
    # has one tag.  An extra beta job of slot 0, which no start column
    # reads, as long and as wide as alpha_1, breaks only that premise.
    inst = build_jobs(gen_yes(3, 0)[0])
    alpha = inst.tagged("alpha")[0]
    extra = Job("beta_0", alpha.p, alpha.q, "beta", 0)
    with pytest.raises(RuntimeError, match=r"not one tag per \(p, q\)$"):
        reduction.forward_geometry(replace(inst, jobs=(*inst.jobs, extra)))


UNDO_CASES = {
    "no(2,3)": lambda: _at_w(gen_no(2, 3)),
    "residue(5,3)": lambda: _at_w(residue_family(5, 3)),
    "trap33": lambda: digit_trap_instance(33),
}


@pytest.mark.parametrize("contiguous", [False, True], ids=["plain", "contiguous"])
@pytest.mark.parametrize(
    "case, rules, budget, starved",
    [
        ("no(2,3)", PruneRules(), 10**6, False),
        # plain: the budget ends inside a forced run
        ("residue(5,3)", PruneRules(), 10, True),
        ("no(2,3)", PruneRules(equations=False), 30, True),
        ("no(2,3)", PruneRules(symmetry=False), 10, True),
        ("trap33", PruneRules(), 10**6, False),
        ("trap33", PruneRules(), 30, True),
        ("trap33", PruneRules(symmetry=False), 10**6, False),
        ("residue(5,3)", PruneRules(), 10**6, False),
        ("residue(5,3)", PruneRules(dead_states=False), 10**6, False),
        # plain: the budget ends at a value choice
        ("residue(5,3)", PruneRules(), 3, True),
    ],
    ids=[
        "proved-none", "budget-exceeded", "equations-off", "symmetry-off",
        "trap-proved-none", "trap-budget-exceeded", "trap-symmetry-off",
        "residue-proved-none", "residue-no-table", "residue-budget-at-a-choice",
    ],
)
def test_a_search_without_a_witness_undoes_every_placement(
    case, rules, budget, starved, contiguous
):
    # Every placement is taken back exactly, a forced run's with the choice
    # that led to it: a search that returns without a witness leaves the
    # state of a freshly built one.
    inst, target = UNDO_CASES[case]()
    search = solver._Search(inst, target, contiguous, rules, budget)
    assert search.search() is None
    assert search.starved == starved
    assert search.nodes > 0
    fresh = solver._Search(inst, target, contiguous, rules, budget)
    for name in ("cells", "rem_mask", "taken", "live", "left"):
        assert getattr(search, name) == getattr(fresh, name), name
    assert search.path == []


def test_a_budget_below_one_is_refused():
    inst = generic([(5, 4)])
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            decide_target(inst, 5, budget=budget)
    assert decide_target(inst, 5, budget=1).outcome == "witness"


@pytest.mark.parametrize(
    "target, budget, name",
    [
        (5.0, 10, "target"),
        (True, 10, "target"),
        ("5", 10, "target"),
        (5, 10.0, "budget"),
        (5, True, "budget"),
    ],
)
def test_a_target_or_budget_that_is_not_an_int_is_refused(
    monkeypatch, target, budget, name
):
    # refused before any work: neither the job check nor a search runs
    monkeypatch.setattr(solver, "check_jobs", None)
    monkeypatch.setattr(solver, "check_instance", None)
    monkeypatch.setattr(solver, "_Search", None)
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        decide_target(generic([(5, 4)]), target, budget=budget)


REVERIFY_UNDER_O = """
import sys
from gadgetforge import extraction, solver, synthesis
from gadgetforge.reduction import Job, SchedulingInstance, build_jobs
from gadgetforge.schedule import VerifyReport
from gadgetforge.threepartition import gen_yes

assert False, "this check runs under python -O only"
forged = lambda inst, sched: VerifyReport(
    feasible=False, makespan=5, idle=0, contiguous=True, problems=("forged",)
)
inst = SchedulingInstance(m=4, z=0, D=0, W=0, jobs=(Job("J0", 5, 4, "J"),))
inst3, witness = gen_yes(1, 5)
red = build_jobs(inst3)
sched = synthesis.build_schedule(red, witness)
solver.verify = synthesis.verify = forged
extraction.validate_partition = lambda values, partition: ["forged"]
calls = {
    "decide": lambda: solver.decide_target(inst, 5),
    "optimize": lambda: solver.optimize_small(inst.jobs),
    "synth": lambda: synthesis.build_schedule(red, witness),
    "extract": lambda: extraction.extract_partition(inst3, red, sched),
}
try:
    calls[sys.argv[1]]()
except RuntimeError as exc:
    print(exc)
"""


# what each call reports when its result fails re-verification
REVERIFY_ERRORS = {
    "decide": "the schedule found fails re-verification: not feasible",
    "optimize": "the schedule found fails re-verification: not feasible",
    "synth": "the synthesized schedule fails re-verification: not feasible",
    "extract": (
        "the extracted partition fails re-verification: "
        "not a 3-Partition witness"
    ),
}


@pytest.mark.parametrize("call", list(REVERIFY_ERRORS))
def test_a_witness_that_fails_verification_is_never_returned(call):
    # `python -O` strips asserts, so the re-verification must be a raise.
    env = dict(os.environ)
    src = str(Path(solver.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", REVERIFY_UNDER_O, call],
        capture_output=True, text=True, check=True, env=env,
    )
    assert result.stdout.strip() == REVERIFY_ERRORS[call]


def test_no_instance_at_z3_is_proved_none_plain():
    # forced runs place the ten jobs of the run at 0 once, where a frame at
    # each placement also tries lambda1 before B_0
    inst, target = _at_w(gen_no(3, 3))
    decision = decide_target(inst, target)
    assert decision.outcome == "proved-none"
    assert decision.nodes == 11
    assert reference_decide(inst, target).nodes == 19


def test_no_instance_at_z3_is_proved_none_contiguous():
    decision = decide_target(*_at_w(gen_no(3, 3)), contiguous=True)
    assert decision.outcome == "proved-none"
    assert decision.nodes == 20


@pytest.mark.slow
def test_no_instance_at_z4_is_proved_none_contiguous():
    decision = decide_target(*_at_w(gen_no(4, 3)), contiguous=True)
    assert decision.outcome == "proved-none"
    assert decision.nodes == 20


def test_yes_instance_at_z4_contiguous_is_witnessed_within_1e5_nodes():
    inst3p, _ = gen_yes(4, 5)
    inst = build_jobs(inst3p)
    decision = decide_target(inst, inst.W, contiguous=True)
    assert decision.outcome == "witness"
    assert decision.nodes < 10**5
    extract_partition(inst3p, inst, decision.schedule)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # gen_yes(16, 0) has 197 jobs: a search that recursed once per placed
    # job would need more frames than this limit leaves.
    inst, target = _at_w(gen_yes(16, 0)[0])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        decision = decide_target(inst, target)
    finally:
        sys.setrecursionlimit(old)
    assert decision.outcome == "witness"
    assert decision.nodes == 197


def test_symmetry_changes_node_counts_not_outcomes():
    inst = generic([(5, 2), (3, 2), (2, 2), (2, 2)])
    default = decide_target(inst, 6)
    bare = decide_target(inst, 6, rules=PruneRules(symmetry=False))
    assert default.outcome == bare.outcome == "proved-none"
    assert bare.nodes > default.nodes


@pytest.mark.parametrize(
    "dims, ids, message",
    [
        ([(4, 0), (4, 4)], ("J0", "J1"), "needs 0 of 4"),
        ([(4, 5)], ("J0",), "needs 5 of 4"),
        ([(-4, 4), (8, 4)], ("J0", "J1"), "nonpositive"),
        ([(0, 4), (4, 4)], ("J0", "J1"), "nonpositive"),
        ([(2, 4), (2, 4)], ("J0", "J0"), "used twice"),
    ],
)
def test_malformed_jobs_are_rejected(dims, ids, message):
    jobs = tuple(
        Job(id=jid, p=p, q=q, tag="J") for jid, (p, q) in zip(ids, dims)
    )
    inst = SchedulingInstance(m=4, z=0, D=0, W=0, jobs=jobs)
    target = sum(j.p * j.q for j in jobs) // 4
    # a check that fails is not kept on the instance: every call raises
    for _ in range(2):
        with pytest.raises(InvalidInput, match=message):
            decide_target(inst, target)
        with pytest.raises(InvalidInput, match=message):
            optimize_small(jobs)
        with pytest.raises(InvalidInput, match=message):
            verify(inst, Schedule(starts={}, machines={}))


def test_decision_serializes():
    decision = decide_target(generic([(5, 4)]), 5)
    payload = decision.to_dict()
    assert payload["outcome"] == "witness"
    assert payload["witness"]["starts"] == {"J0": "0"}


# ===== decide_target against optimize_small =====

D_DIFF = 33


def random_balanced(rng, digits):
    """At most eight jobs of total work 4T.  With `digits` every length is
    a D^2 + b D^3 for D = 33 and small a, b, the shape of the digit trap's
    lengths; otherwise lengths are small.  A last one-machine job tops each
    digit total up to a multiple of 4."""
    unit = D_DIFF**2 if digits else 1
    rows = []
    for _ in range(rng.randint(1, 7)):
        if digits:
            a, b = rng.randint(0, 3), rng.randint(0, 3)
        else:
            a, b = rng.randint(1, 6), 0
        if a or b:
            rows.append((a, b, rng.randint(1, 4)))
    fix = (-sum(a * q for a, _, q in rows) % 4, -sum(b * q for _, b, q in rows) % 4)
    if any(fix):
        rows.append((*fix, 1))
    jobs = tuple(
        Job(id=f"J{i}", p=(a + b * D_DIFF) * unit, q=q, tag="J", index=i)
        for i, (a, b, q) in enumerate(rows)
    )
    inst = SchedulingInstance(
        m=4, z=1 if digits else 0, D=D_DIFF if digits else 0, W=0, jobs=jobs
    )
    return inst, inst.total_work // 4


def test_decide_target_agrees_with_optimize_small():
    # Every zero-idle answer must match an independent exact optimizer: a
    # witness at T exactly when the optimum is T (it is never below, since
    # the work is 4T).  Each instance runs with the default rules and with
    # symmetry and dead_states switched off in turn.
    rng = random.Random("solver-differential")
    seen = Counter()
    for trial in range(200):
        inst, target = random_balanced(rng, digits=trial % 2 == 0)
        opt, _ = optimize_small(inst.jobs)
        for rules in (
            PruneRules(),
            PruneRules(symmetry=False),
            PruneRules(dead_states=False),
        ):
            decision = decide_target(inst, target, rules=rules)
            assert decision.outcome in ("witness", "proved-none"), trial
            assert (decision.outcome == "witness") == (opt == target), trial
            seen.update(decision.prunes.keys())
        seen[decision.outcome] += 1
    assert seen["witness"] and seen["proved-none"]
    # the symmetry rule actually fired somewhere in the set
    assert seen["symmetry"]


def test_decide_target_agrees_with_the_optima_when_tags_share_a_shape():
    # The symmetry rule keys a class by (p, q) alone, so identical jobs of
    # two tags form one class.  No rule but the equation tables reads a
    # tag, and they run only on recognised reductions, so every answer
    # still matches the brute-force optimum, plain and contiguous, under
    # the default rules and with the symmetry rule off.
    rng = random.Random("solver-differential-two-tags")
    seen = Counter()
    for trial in range(100):
        inst, target = random_balanced(rng, digits=trial % 2 == 0)
        jobs = tuple(replace(j, tag=rng.choice("JK")) for j in inst.jobs)
        inst = replace(inst, jobs=jobs)
        shapes = {(j.p, j.q, j.tag) for j in jobs}
        seen["shared"] += len({(p, q) for p, q, _ in shapes}) < len(shapes)
        optima = {
            False: optimize_small(jobs)[0],
            True: contiguous_optimum(jobs, cap=target),
        }
        for rules in (PruneRules(), PruneRules(symmetry=False)):
            for contiguous, opt in optima.items():
                decision = decide_target(inst, target, contiguous, rules=rules)
                assert decision.outcome in ("witness", "proved-none"), trial
                assert (decision.outcome == "witness") == (opt == target), trial
                seen[decision.outcome] += 1
                seen.update(decision.prunes.keys())
    assert seen["shared"] and seen["witness"] and seen["proved-none"]
    assert seen["symmetry"]


def test_contiguous_decisions_agree_with_the_contiguous_optimum():
    # Every contiguous answer must match an independent exact optimizer
    # that keeps each job on an interval of machines: a witness at T
    # exactly when its optimum is T.  Under every rule set, and across the
    # modes: a contiguous witness is a plain one, so a contiguous witness
    # implies a plain witness and a plain proved-none a contiguous one.
    rng = random.Random("contiguous-oracle")
    instances = [random_balanced(rng, digits=k % 2 == 0) for k in range(60)]
    while len(instances) < 90:
        inst = random_zero_idle(rng, horizon=rng.randint(3, 8))
        if len(inst.jobs) <= 8:
            instances.append((inst, inst.total_work // 4))
    rule_sets = [PruneRules(*flags) for flags in product((True, False), repeat=3)]
    seen = Counter()
    for k, (inst, target) in enumerate(instances):
        witness = contiguous_optimum(inst.jobs, cap=target) == target
        for rules in rule_sets:
            both = {
                c: decide_target(inst, target, c, rules=rules).outcome
                for c in (True, False)
            }
            assert both[True] in ("witness", "proved-none"), (k, rules)
            assert (both[True] == "witness") == witness, (k, rules)
            assert both[True] != "witness" or both[False] == "witness", (k, rules)
            assert both[False] != "proved-none" or both[True] == "proved-none", (k, rules)
            seen[tuple(both.values())] += 1
    assert seen["witness", "witness"] and seen["proved-none", "proved-none"]


# ===== optimize_small =====


def test_optimum_for_wide_then_narrow_mix():
    opt, sched = optimize_small(generic([(2, 4), (3, 2), (3, 2)]).jobs)
    assert opt == 5
    assert verify(SchedulingInstance(4, 0, 0, 5, generic([(2, 4), (3, 2), (3, 2)]).jobs), sched).feasible


def test_optimum_single_full_width_job():
    opt, _ = optimize_small(generic([(7, 4)]).jobs)
    assert opt == 7


def test_optimum_two_three_wide_jobs_stack():
    opt, _ = optimize_small(generic([(9, 3), (9, 3)]).jobs)
    assert opt == 18


def test_optimum_matches_order_enumeration():
    rng = random.Random("optimize-oracle")
    for _ in range(30):
        dims = [
            (rng.randint(1, 10), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        ]
        inst = generic(dims)
        opt, sched = optimize_small(inst.jobs)
        assert opt == order_oracle(inst.jobs)
        report = verify(replace(inst, W=opt), sched)
        assert report.feasible and report.makespan == opt


def test_optimize_rejects_oversized_input():
    with pytest.raises(ValueError, match="at most 8"):
        optimize_small(generic([(1, 1)] * 9).jobs)
    with pytest.raises(ValueError, match="needs"):
        optimize_small(generic([(1, 5)]).jobs)


def test_optimize_refuses_too_many_machines_before_reading_the_jobs():
    def unread():
        raise AssertionError("the jobs were read")
        yield

    top = solver.MAX_MACHINES
    for m in (top + 1, 10**9):
        with pytest.raises(ValueError, match=f"at most {top} machines"):
            optimize_small(unread(), m=m)
    opt, sched = optimize_small(generic([(3, top), (2, 1)], m=top).jobs, m=top)
    assert opt == 5 and sched.machines["J1"] == frozenset({1})


def test_optimize_budget_is_enforced():
    dims = [(p, 1) for p in range(1, 8)]
    with pytest.raises(SearchBudgetExceeded):
        optimize_small(generic(dims).jobs, budget=3)


def test_optimize_empty_is_zero():
    opt, sched = optimize_small(())
    assert opt == 0 and sched.starts == {}
