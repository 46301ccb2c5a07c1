"""Acceptance suite: eight end-to-end criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every check
is also an assertion, so a plain pytest run enforces the same bar.  All
value comparisons are exact integer equality.  Pinned limits: criterion 1
under 5 s; criteria 2 and 3 under 60 s each; criterion 4 within 10^7 search
nodes; criterion 5 within a 10^9-node budget.  Criterion 7(e) deliberately
contains one slow run (13-19 s of the test's 17-22 s on a shared 2-vCPU
machine under Python 3.11): the only affordable completed search with the
equation rule disabled on a reduction, kept because it turns the rule's
exponential value into a measured number.
"""

import itertools
import random
import time
from fractions import Fraction

from gadgetforge.exactnum import CoeffVector, compose, decompose, digit_bound
from gadgetforge.extraction import (
    NotTargetMakespan,
    RefutationCertificate,
    extract_partition,
)
from gadgetforge.reduction import (
    Job,
    SchedulingInstance,
    build_jobs,
)
from gadgetforge.schedule import Schedule, audit, mirror, swap_after, verify
from gadgetforge.schedule import CrossingJob
from gadgetforge.solver import PruneRules, decide_target, optimize_small
from gadgetforge.strip import (
    Packing,
    normalize,
    packing_to_schedule,
    schedule_to_packing,
    verify_packing,
)
from gadgetforge.synthesis import build_schedule
from gadgetforge.threepartition import gen_no, gen_yes, validate_partition

import pytest

from conftest import carve_zero_idle, generic


def report(criterion: int, problems: list[str], detail: str) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {criterion} {status} - {detail}")
    assert not problems, f"criterion {criterion}: {problems[:3]}"


# shared corpora -------------------------------------------------------------


@pytest.fixture(scope="module")
def forward_corpus():
    """The criterion-2 schedules, reused by criteria 3 and 7(d).  Build time
    is recorded so criterion 2 can charge it against its own limit."""
    t0 = time.monotonic()
    corpus = []
    for z in (1, 2, 3):
        for k in range(20):
            inst3, witness = gen_yes(z, seed=200 + 10 * z + k)
            inst = build_jobs(inst3)
            corpus.append((inst3, witness, inst, build_schedule(inst, witness)))
    return corpus, time.monotonic() - t0


# criteria -------------------------------------------------------------------


def test_criterion_1_work_identity():
    t0 = time.monotonic()
    problems = []
    for i in range(50):
        z = 1 + i % 10
        inst3, _ = gen_yes(z, seed=900 + i)
        inst = build_jobs(inst3)
        if inst.total_work != 4 * inst.W:
            problems.append(f"z={z} seed={900 + i}: {inst.total_work} != 4W")
    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, limit 5s")
    report(1, problems, f"sum p*q == 4W on 50 instances, z in 1..10, {elapsed:.2f}s")


def test_criterion_2_forward_direction(forward_corpus):
    corpus, build_elapsed = forward_corpus
    t0 = time.monotonic()
    problems = []
    for inst3, _, inst, sched in corpus:
        z, D = inst.z, inst.D
        rep = verify(inst, sched)
        if not (rep.feasible and rep.makespan == inst.W and rep.idle == 0
                and rep.contiguous):
            problems.append(f"z={z}: verify {rep.problems[:1]}")
            continue
        if not audit(inst, sched).passed:
            problems.append(f"z={z}: audit violation")
        # start-time closed forms for the block separators
        for i in range(z + 1):
            want_a = (i * D**2 + (i + 1) * D**3 + i * D**4 + i * D**5
                      + i * D**6 + (7 * z * i + z) * D**7 + (i + 1) * D**8)
            want_b = (i * D**2 + i * D**3 + i * D**4 + i * D**5 + i * D**6
                      + i * (7 * z - 1) * D**7 + i * D**8)
            if sched.starts[f"A_{i}"] != want_a:
                problems.append(f"z={z}: sigma(A_{i}) off closed form")
            if sched.starts[f"B_{i}"] != want_b:
                problems.append(f"z={z}: sigma(B_{i}) off closed form")
    elapsed = time.monotonic() - t0 + build_elapsed
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    report(2, problems,
           f"60 canonical schedules feasible at W, zero idle, contiguous, "
           f"audited, separator starts exact, {elapsed:.1f}s")


def test_criterion_3_backward_direction(forward_corpus):
    corpus, _ = forward_corpus
    t0 = time.monotonic()
    rng = random.Random(31)
    problems = []
    checked = 0
    for inst3, _, inst, sched in corpus:
        perm = list(range(1, 5))
        rng.shuffle(perm)
        relabeled = Schedule(
            starts=dict(sched.starts),
            machines={
                j: frozenset(perm[m - 1] for m in ms)
                for j, ms in sched.machines.items()
            },
        )
        for variant in (sched, mirror(inst, sched), relabeled):
            try:
                partition, _ = extract_partition(inst3, inst, variant)
            except Exception as exc:  # noqa: BLE001 - report, do not mask
                problems.append(f"z={inst.z}: extraction raised {exc!r}")
                continue
            bad = validate_partition(inst3, partition)
            if bad:
                problems.append(f"z={inst.z}: {bad[0]}")
            if any(sum(inst3.values[i - 1] for i in s) != inst.D
                   for s in partition):
                problems.append(f"z={inst.z}: a set misses D")
            checked += 1
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    report(3, problems,
           f"{checked} extractions (plain, mirrored, machine-permuted) all "
           f"valid with set sums D, {elapsed:.1f}s")


def test_criterion_4_solver_finds_the_witness():
    inst3, _ = gen_yes(1, seed=5)
    inst = build_jobs(inst3)
    problems = []
    decision = decide_target(inst, inst.W, budget=10_000_000)
    if decision.outcome != "witness":
        problems.append(f"outcome {decision.outcome}")
    elif decision.nodes > 10**7:
        problems.append(f"{decision.nodes} nodes > 10^7")
    else:
        rep = verify(inst, decision.schedule)
        if not (rep.feasible and rep.makespan == inst.W and rep.idle == 0):
            problems.append("witness does not verify")
        partition, _ = extract_partition(inst3, inst, decision.schedule)
        if validate_partition(inst3, partition):
            problems.append("witness does not extract")
    report(4, problems,
           f"z=1 witness in {decision.nodes} nodes, verified and extracted")


def test_criterion_5_solver_proves_the_no_side():
    inst3 = gen_no(2, seed=3)
    inst = build_jobs(inst3)
    problems = []
    decision = decide_target(inst, inst.W, contiguous=True, budget=10**9)
    if decision.outcome != "proved-none":
        problems.append(f"outcome {decision.outcome}")
    if decision.nodes > 10**9:
        problems.append(f"{decision.nodes} nodes > 10^9")
    if not decision.prunes.get("equations"):
        problems.append("equation pruning never fired")
    report(5, problems,
           f"z=2 no-instance: strip height 4 impossible (so >= 5) after "
           f"{decision.nodes} nodes, {decision.prunes.get('equations', 0)} "
           f"equation prunes")


def test_criterion_6_small_optimum_matches_brute_force():
    def brute_force(dims, m=4):
        best = None
        for order in itertools.permutations(range(len(dims))):
            free = [0] * m
            for idx in order:
                p, q = dims[idx]
                lanes = sorted(range(m), key=lambda k: (free[k], k))[:q]
                start = max(free[k] for k in lanes)
                for k in lanes:
                    free[k] = start + p
            top = max(free)
            best = top if best is None else min(best, top)
        return best or 0

    rng = random.Random(6)
    problems = []
    for case in range(100):
        dims = [
            (rng.randint(1, 10), rng.randint(1, 4))
            for _ in range(rng.randint(1, 7))
        ]
        expected = brute_force(dims)
        got, sched = optimize_small(generic(dims).jobs)
        if got != expected:
            problems.append(f"case {case}: {got} != {expected} on {dims}")
    report(6, problems, "optimize_small == permutation oracle on 100 instances")


def test_criterion_7a_transforms_preserve_schedules():
    """swap_after keeps verify's (feasible, makespan, idle) on every
    schedule, and mirror at the makespan keeps it when the earliest start
    is 0: extraction re-verifies neither.  Each carve is also run with one
    start moved back by 1, so that jobs overlap, and with one below 0."""
    rng = random.Random(71)
    problems = []

    def health(inst, sched):
        rep = verify(inst, sched)
        return rep.feasible, rep.makespan, rep.idle

    for case in range(200):
        inst, carved = carve_zero_idle(rng, horizon=rng.randint(4, 12))
        variants = {"carved": carved}
        later = sorted(j for j, start in carved.starts.items() if start > 0)
        if later:
            moved = rng.choice(later)
            starts = {**carved.starts, moved: carved.starts[moved] - 1}
            variants["overlapping"] = Schedule(starts, carved.machines)
        below = rng.choice(sorted(carved.starts))
        starts = {**carved.starts, below: -rng.randint(1, 3)}
        variants["below zero"] = Schedule(starts, carved.machines)
        for name, sched in variants.items():
            where, before = f"case {case} {name}", health(inst, sched)
            if min(sched.starts.values()) == 0:
                mirrored = mirror(inst, sched)
                if health(inst, mirrored) != before:
                    problems.append(f"{where}: mirror changed the schedule's health")
                if mirror(inst, mirrored) != sched:
                    problems.append(f"{where}: mirror not an involution")
            t = rng.choice(sorted(set(sched.starts.values())))
            m1, m2 = rng.sample(range(1, 5), 2)
            crossing = any(
                sched.starts[j.id] < t < sched.starts[j.id] + j.p
                and len(sched.machines[j.id] & {m1, m2}) == 1
                for j in inst.jobs
            )
            try:
                swapped = swap_after(inst, sched, t, m1, m2)
            except CrossingJob:
                if not crossing:
                    problems.append(f"{where}: swap_after refused a clean cut at {t}")
                continue
            if health(inst, swapped) != before:
                problems.append(f"{where}: swap_after changed the schedule's health")
    report(
        7, problems, "(a) mirror involution and health-keeping swap_after on 200 carves"
    )


def test_criterion_7b_digit_codec_is_a_bijection():
    rng = random.Random(72)
    problems = []
    for case in range(1000):
        z = rng.randint(1, 6)
        cap = digit_bound(z)
        D = cap + 1 + rng.randint(0, 3 * cap)
        vec = CoeffVector(
            x0=rng.randint(-z * D, z * D),
            x2=rng.randint(0, cap), x3=rng.randint(0, cap),
            x4=rng.randint(0, cap), x5=rng.randint(0, cap),
            x6=rng.randint(0, cap), x7=rng.randint(0, cap),
            x8=rng.randint(1, cap),
        )
        value = compose(vec, D)
        if decompose(value, z, D) != vec:
            problems.append(f"case {case}: decompose(compose) != id")
        if compose(decompose(value, z, D), D) != value:
            problems.append(f"case {case}: compose(decompose) != id")
    report(7, problems, "(b) compose/decompose inverse on 1000 samples")


def test_criterion_7c_normalize_is_monotone_idempotent():
    rng = random.Random(73)

    def staircase(case):
        count = rng.randint(1, 6)
        dims = [(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(count)]
        jobs = tuple(
            Job(id=f"r{i}", p=w, q=h, tag="r", index=i)
            for i, (w, h) in enumerate(dims)
        )
        strip = SchedulingInstance(m=4, z=0, D=0, W=7 * count, jobs=jobs)
        positions, x, y = {}, Fraction(0), Fraction(0)
        for i, (w, h) in enumerate(dims):
            x += Fraction(rng.randint(0, 12), 4)
            y += h + Fraction(rng.randint(0, 6), 3)
            positions[f"r{i}"] = (x, y)
            x += w
        return strip, Packing(positions=positions)

    def height(strip, packing):
        return max(
            packing.positions[j.id][1] + j.q for j in strip.jobs
        )

    problems = []
    for case in range(200):
        strip, packing = staircase(case)
        flat = normalize(strip, packing)
        if not verify_packing(strip, flat).feasible:
            problems.append(f"case {case}: normalize broke feasibility")
        if height(strip, flat) > height(strip, packing):
            problems.append(f"case {case}: normalize grew the packing")
        if normalize(strip, flat) != flat:
            problems.append(f"case {case}: normalize not idempotent")
    report(7, problems, "(c) normalize monotone and idempotent on 200 packings")


def test_criterion_7d_bridge_roundtrip(forward_corpus):
    corpus, _ = forward_corpus
    problems = []
    for _, _, inst, sched in corpus:
        packing = schedule_to_packing(inst, sched)
        if packing_to_schedule(inst, packing) != sched:
            problems.append(f"z={inst.z}: packing->schedule differs")
        if schedule_to_packing(inst, packing_to_schedule(inst, packing)) != packing:
            problems.append(f"z={inst.z}: schedule->packing differs")
    report(7, problems, f"(d) bridge identities on {len(corpus)} schedules")


@pytest.mark.slow
def test_criterion_7e_pruning_rules_change_counts_not_outcomes():
    """20-case regression set.  A rule toggle may only move node counts;
    completed runs must agree on the outcome, and a budget-capped run may
    abstain (budget-exceeded) but never answer differently; toggling the
    dead-state table must keep even the witness.  The z=1 equations-off run
    is completed on purpose: 4,019,206 nodes and 13-19 s with the
    dead-state table, for the outcome the default rules reach in 17
    nodes."""
    D = 33
    trap_dims = ([(D**3, 1)] * 4 + [(3 * D**2, 1)] * 4 + [(2 * D**2, 1)] * 2)
    trap = SchedulingInstance(
        m=4, z=1, D=D, W=0,
        jobs=tuple(
            Job(id=f"J{i}", p=p, q=q, tag="J", index=i)
            for i, (p, q) in enumerate(trap_dims)
        ),
    )
    z1 = build_jobs(gen_yes(1, seed=5)[0])
    z2no = build_jobs(gen_no(2, seed=3))

    rng = random.Random(75)
    cases = {}
    for s in range(12):
        inst, _ = carve_zero_idle(rng, horizon=rng.randint(5, 12))
        # the carve fills the 4 x horizon rectangle exactly
        cases[f"rect{s}"] = (inst, sum(j.p * j.q for j in inst.jobs) // 4, False)
    cases["single"] = (generic([(5, 4)]), 5, False)
    cases["quad"] = (generic([(5, 2), (3, 2), (2, 2), (2, 2)]), 6, False)
    cases["trap"] = (trap, D**3 + 4 * D**2, False)
    cases["eight"] = (generic(
        [(4, 4), (3, 2), (3, 2), (2, 1), (2, 1), (2, 1), (2, 1), (3, 4)]
    ), 12, False)
    cases["pairs"] = (generic(
        [(3, 2), (3, 2), (4, 2), (2, 2), (1, 2), (5, 2)]
    ), 9, False)
    cases["z1W"] = (z1, z1.W, False)
    cases["z1Wc"] = (z1, z1.W, True)
    cases["z2noWc"] = (z2no, z2no.W, True)
    assert len(cases) == 20

    problems = []
    moved = {"symmetry": False, "equations": False, "dead_states": False}

    def compare(name, rule, off_rules, budget):
        inst, target, contig = cases[name]
        on = decide_target(inst, target, contig)
        off = decide_target(inst, target, contig, budget=budget, rules=off_rules)
        if off.outcome == "budget-exceeded":
            problems.append(f"{name}/{rule}: off-run starved within {budget}")
        elif on.outcome != off.outcome:
            problems.append(
                f"{name}/{rule}: {on.outcome} became {off.outcome}"
            )
        if on.nodes != off.nodes:
            moved[rule] = True
        return on, off

    for name, (inst, target, contig) in cases.items():
        if not contig:
            compare(name, "symmetry", PruneRules(symmetry=False), 10**7)
    for name in cases:
        # the table cuts only witness-free subtrees: the same first witness
        on, off = compare(
            name, "dead_states", PruneRules(dead_states=False), 10**7
        )
        if on.schedule != off.schedule:
            problems.append(f"{name}/dead_states: the witness changed")

    on, off = compare("z1W", "equations", PruneRules(equations=False), 10**7)
    if off.outcome != "witness":
        problems.append(f"z1W/equations-off: {off.outcome}, expected witness")
    if not (on.nodes < 100 < 5 * 10**5 < off.nodes):
        problems.append(
            f"z1W/equations: node counts {on.nodes} vs {off.nodes} "
            "not in the measured regime"
        )
    abstain = decide_target(
        z2no, z2no.W, True, budget=30_000, rules=PruneRules(equations=False)
    )
    if abstain.outcome == "witness":
        problems.append("equations-off found a witness on a no-instance")
    moved["equations"] = moved["equations"] or on.nodes != off.nodes

    for rule, changed in moved.items():
        if not changed:
            problems.append(f"{rule}: toggling never changed a node count")
    report(7, problems,
           f"(e) 20-case set: outcomes stable, counts moved per rule, "
           f"equations off {off.nodes} vs {on.nodes} nodes on z=1")


def test_criterion_8_refutation_honesty():
    rng = random.Random(8)
    problems = []
    refutations = 0
    for case in range(50):
        z = 1 + case % 3
        inst3, witness = gen_yes(z, seed=800 + case)
        inst = build_jobs(inst3)
        sched = build_schedule(inst, witness)
        starts = dict(sched.starts)
        kind = case % 3
        swappable = [
            (x, y)
            for x in range(3 * z) for y in range(x + 1, 3 * z)
            if inst3.values[x] != inst3.values[y]
        ]
        if kind == 0 and swappable:  # move partition jobs between gaps
            x, y = rng.choice(swappable)
            a, b = f"P_{x + 1}", f"P_{y + 1}"
            starts[a], starts[b] = starts[b], starts[a]
            what = "moved partition jobs"
        elif kind == 1:  # exchange the A/B separator order in one block
            i = rng.randrange(z)
            a, b = f"A_{i}", f"B_{i}"
            starts[a], starts[b] = starts[b], starts[a]
            what = "exchanged A/B order"
        else:  # cut the narrow filler loose from its slot
            j = rng.randrange(1, z + 1)
            starts[f"gamma_{j}"] += rng.choice([1, inst.D // 2, inst.D])
            what = "truncated narrow filler"
            if kind == 0:  # all values equal, swap had nothing to move
                what = "truncated narrow filler (fallback)"
        perturbed = Schedule(starts=starts, machines=sched.machines)

        rep = verify(inst, perturbed)
        verify_failed = not (
            rep.feasible and rep.makespan == inst.W and rep.idle == 0
        )
        named = False
        try:
            extract_partition(inst3, inst, perturbed)
            problems.append(f"case {case} ({what}): yielded a partition")
            continue
        except RefutationCertificate as cert:
            named = bool(cert.lemma)
            refutations += 1
        except NotTargetMakespan:
            pass
        if not (verify_failed or named):
            problems.append(f"case {case} ({what}): slipped through unnamed")
    report(8, problems,
           f"50 perturbed schedules all rejected, {refutations} with a named "
           f"refutation certificate, none produced a partition")
