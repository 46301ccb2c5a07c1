"""Verifier, finished-before counts, swaps, mirror, and the digit audit."""

import random
import re
from collections import Counter

import pytest

from gadgetforge import schedule
from gadgetforge.exactnum import InvalidInput, decompose, digit_bound
from gadgetforge.reduction import SchedulingInstance, Job, build_jobs
from gadgetforge.schedule import (
    DIGIT_FAMILIES,
    AuditCheck,
    CrossingJob,
    Schedule,
    _check_job_universe,
    _Exchange,
    audit,
    finished_by_index,
    mirror,
    swap_after,
    verify,
)
from gadgetforge.synthesis import build_schedule
from gadgetforge.threepartition import gen_yes

from conftest import (
    carve_zero_idle,
    count_before,
    count_finished_by,
    reference_audit,
    reference_length,
    reference_swap,
    reference_verify,
)


def tiny_instance(jobs):
    return SchedulingInstance(m=4, z=0, D=0, W=0, jobs=tuple(jobs))


def job(jid, p, q, tag="J"):
    return Job(id=jid, p=p, q=q, tag=tag)


# ===== verify =====


def test_verify_canonical(canonical_z1):
    _, inst, sched = canonical_z1
    report = verify(inst, sched)
    assert report.feasible
    assert report.makespan == inst.W
    assert report.idle == 0
    assert report.contiguous
    assert report.problems == ()


def test_verify_reports_overlap():
    inst = tiny_instance([job("x", 5, 1), job("y", 5, 1)])
    sched = Schedule(
        starts={"x": 0, "y": 3},
        machines={"x": frozenset({1}), "y": frozenset({1})},
    )
    report = verify(inst, sched)
    assert not report.feasible
    assert any("overlap" in p for p in report.problems)


def test_verify_reports_wrong_multiplicity_and_negative_start():
    inst = tiny_instance([job("x", 5, 2)])
    sched = Schedule(starts={"x": -1}, machines={"x": frozenset({1})})
    report = verify(inst, sched)
    assert not report.feasible
    assert len(report.problems) == 2
    # no job on any machine: the machine range has nothing to check, and
    # every job's width is reported
    inst = tiny_instance([job("x", 5, 2), job("y", 3, 1)])
    sched = Schedule(starts={"x": 0, "y": 0}, machines={"x": frozenset(), "y": frozenset()})
    assert verify(inst, sched).problems == (
        "job x occupies 0 machines, needs 2",
        "job y occupies 0 machines, needs 1",
    )


def test_verify_idle_accounting():
    inst = tiny_instance([job("x", 5, 1), job("y", 3, 1)])
    sched = Schedule(
        starts={"x": 0, "y": 0},
        machines={"x": frozenset({1}), "y": frozenset({2})},
    )
    report = verify(inst, sched)
    assert report.feasible
    assert report.makespan == 5
    assert report.idle == 4 * 5 - (5 + 3)


def test_verify_contiguity_flag():
    inst = tiny_instance([job("x", 5, 2)])
    sched = Schedule(starts={"x": 0}, machines={"x": frozenset({1, 3})})
    assert not verify(inst, sched).contiguous


def test_verify_unknown_job_both_directions():
    inst = tiny_instance([job("x", 5, 1)])
    with pytest.raises(InvalidInput, match="^schedule mentions unknown job 'ghost'$"):
        verify(
            inst,
            Schedule(
                starts={"x": 0, "ghost": 0},
                machines={"x": frozenset({1}), "ghost": frozenset({2})},
            ),
        )
    with pytest.raises(InvalidInput, match="^job 'x' is missing from the schedule$"):
        verify(inst, Schedule(starts={}, machines={}))


def test_verify_machine_out_of_range():
    inst = tiny_instance([job("x", 5, 1)])
    with pytest.raises(InvalidInput, match="^job 'x' uses machine 5, valid range is 1..4$"):
        verify(inst, Schedule(starts={"x": 0}, machines={"x": frozenset({5})}))


def _perturbations(rng, inst, sched):
    """The schedule as given, then one perturbation of each kind, by name:
    a start moved by one either way or made negative, a machine added or
    dropped, two jobs' machine sets exchanged, machine 0 or m + 1 added,
    an unknown id in the starts or in the machine sets only, and a job
    missing from either or both."""
    starts, machines = dict(sched.starts), dict(sched.machines)
    ids = [j.id for j in inst.jobs]
    a, b = rng.sample(ids, 2)
    with_start = lambda start: Schedule({**starts, a: start}, machines)
    with_set = lambda *pairs: Schedule(starts, {**machines, **dict(pairs)})
    missing = lambda table: {k: v for k, v in table.items() if k != a}
    spare = [k for k in range(1, inst.m + 1) if k not in machines[a]]
    yield "as given", sched
    yield "start +1", with_start(starts[a] + 1)
    yield "start -1", with_start(starts[a] - 1)
    yield "negative start", with_start(-1 - starts[a])
    if spare:
        yield "machine added", with_set((a, machines[a] | {rng.choice(spare)}))
    yield "machine dropped", with_set((a, machines[a] - {rng.choice(sorted(machines[a]))}))
    yield "sets exchanged", with_set((a, machines[b]), (b, machines[a]))
    yield "machine 0", with_set((a, machines[a] | {0}))
    yield "machine m+1", with_set((a, machines[a] | {inst.m + 1}))
    yield "unknown in starts", Schedule({**starts, "ghost": 0}, machines)
    yield "unknown in machines", with_set(("ghost", frozenset({1})))
    yield "missing start", Schedule(missing(starts), machines)
    yield "missing machines", Schedule(starts, missing(machines))
    yield "missing", Schedule(missing(starts), missing(machines))


def _verify_cases():
    rng = random.Random(34)
    for _ in range(16):
        inst, sched = carve_zero_idle(rng, rng.randint(4, 40))
        if len(inst.jobs) > 1:
            yield inst, sched
    for z in (1, 2, 6):
        inst3, witness = gen_yes(z, z)
        inst = build_jobs(inst3)
        yield inst, build_schedule(inst, witness)


def _outcome(check, inst, sched):
    try:
        return check(inst, sched)
    except InvalidInput as exc:
        return f"InvalidInput: {exc}"


def test_verify_matches_the_reference_on_perturbed_schedules(monkeypatch):
    """On seeded carves and on `gen_yes` schedules at z = 1, 2 and 6, each
    as given and under every perturbation, `verify` gives the reference's
    report, problems in the same order, or the same InvalidInput text; and
    the machines whose sorted columns fail are exactly those the reference
    names an overlap on, so no feasible machine lists its jobs."""
    listed = []
    overlaps = schedule._overlaps

    def spied(inst, sched, m):
        listed.append(m)
        return overlaps(inst, sched, m)

    monkeypatch.setattr(schedule, "_overlaps", spied)
    rng = random.Random(3)
    compared = Counter()
    for inst, sched in _verify_cases():
        for _ in range(3):
            for name, perturbed in _perturbations(rng, inst, sched):
                listed.clear()
                want = _outcome(reference_verify, inst, perturbed)
                got = _outcome(verify, inst, perturbed)
                assert got == want, name
                if isinstance(want, str):
                    compared["refused"] += 1
                    continue
                named = {
                    int(m)
                    for text in want.problems
                    for m in re.findall(r"overlap on machine (\d+) ", text)
                }
                assert sorted(listed) == sorted(named), name
                compared[want.feasible] += 1
    assert min(compared.values()) >= 50, compared


# ===== count_before =====


def test_count_before_spec_values(canonical_z1):
    _, inst, sched = canonical_z1
    assert count_before(inst, sched, "A_1", ["B_0", "B_1"]) == 2
    assert count_before(inst, sched, "A_1", ["lambda1"]) == 1
    assert count_before(inst, sched, "A_1", ["A_0", "A_1"]) == 1
    assert count_before(inst, sched, "B_1", ["a_1"]) == 1
    assert count_before(inst, sched, "B_0", ["lambda1", "A_0"]) == 0


def test_count_before_counts_exact_finish(canonical_z1):
    # lambda1 ends exactly at A_0's start and must be counted
    _, inst, sched = canonical_z1
    assert count_before(inst, sched, "A_0", ["lambda1"]) == 1


def test_finished_by_index_agrees_with_count_finished_by():
    # every job's start and end, one unit either side, for every family, on
    # the schedules the audit is compared on
    for z in range(1, 6):
        for seed in range(4):
            for label, inst, sched in _audit_variants(z, seed):
                finished = finished_by_index(inst, sched)
                tags = sorted({j.tag for j in inst.jobs}) + ["unknown"]
                families = {tag: [j.id for j in inst.tagged(tag)] for tag in tags}
                ends = {sched.starts[j.id] + j.p for j in inst.jobs}
                times = {t + d for t in {*sched.starts.values(), *ends} for d in (-1, 0, 1)}
                for t in sorted(times):
                    for tag, ids in families.items():
                        assert finished(t, tag) == count_finished_by(
                            inst, sched, t, ids
                        ), (z, seed, label, t, tag)


# ===== swap_after =====


def test_swap_after_full_exchange(canonical_z1):
    _, inst, sched = canonical_z1
    swapped = swap_after(inst, sched, 0, 2, 3)
    assert swapped.machines["gamma_1"] == frozenset({3})
    assert swapped.machines["delta_1"] == frozenset({2})
    assert swapped.machines["a_1"] == frozenset({1, 3})
    assert swapped.machines["b_1"] == frozenset({2, 4})
    assert swapped.machines["c_0"] == frozenset({2, 3})
    assert swapped.starts == dict(sched.starts)
    assert verify(inst, swapped).feasible


def test_swap_after_is_involution(canonical_z1):
    _, inst, sched = canonical_z1
    t = sched.starts["A_0"]
    twice = swap_after(inst, swap_after(inst, sched, t, 2, 3), t, 2, 3)
    assert twice.machines == dict(sched.machines)


def test_swap_after_partial_window(canonical_z1):
    # anchored at A_0 (on both machines): only post-A_0 content moves
    _, inst, sched = canonical_z1
    t = sched.starts["A_0"]
    swapped = swap_after(inst, sched, t, 2, 3)
    assert swapped.machines["c_0"] == frozenset({2, 3})  # before t: untouched
    assert swapped.machines["gamma_1"] == frozenset({3})
    assert swapped.machines["P_2"] == frozenset({3})
    assert verify(inst, swapped).feasible


def test_swap_after_crossing_job_rejected(canonical_z1):
    _, inst, sched = canonical_z1
    t = sched.starts["alpha_1"] + 1  # inside alpha_1, which runs only on M1
    with pytest.raises(CrossingJob):
        swap_after(inst, sched, t, 1, 4)


@pytest.mark.parametrize("machine", [0, 5], ids=["below", "above"])
def test_swap_after_refuses_a_machine_outside_the_instance(canonical_z1, machine):
    _, inst, sched = canonical_z1
    with pytest.raises(InvalidInput, match=f"^machine {machine} out of 1..4$"):
        swap_after(inst, sched, 0, 2, machine)


def test_swap_after_refuses_a_job_no_instance_holds():
    # A job of length 0 at t would both end by t and start at t; swap_after
    # checks the jobs as verify does, so no swap has to decide which.
    inst = tiny_instance([job("x", 0, 1), job("y", 2, 1)])
    sched = Schedule(
        starts={"x": 1, "y": 0},
        machines={"x": frozenset({1}), "y": frozenset({2})},
    )
    with pytest.raises(InvalidInput, match="nonpositive length"):
        swap_after(inst, sched, 1, 1, 3)


def test_a_swap_keeps_the_job_universe(canonical_z1):
    # `_Exchange` skips the universe check, as its output passes it
    # whenever its input does: the same job keys, every machine in 1..m.
    # Chained swaps on one exchange, as extraction makes them, stay within
    # it too.
    _, inst, sched = canonical_z1
    exchange = _Exchange(inst, sched)
    current = sched
    swaps = 0
    for t in sorted({0, *sched.starts.values()}):
        for m1 in range(1, inst.m + 1):
            for m2 in range(m1 + 1, inst.m + 1):
                try:
                    exchange.swap(m1, m2, t)
                except CrossingJob:
                    continue
                out = exchange.schedule()
                _check_job_universe(inst, out)
                assert out.starts.keys() == out.machines.keys() == sched.machines.keys()
                assert out == swap_after(inst, current, t, m1, m2)
                current = out
                swaps += 1
    assert swaps > inst.m


def _swap_cases():
    """Schedules to swap: the audit's variants of reduction schedules
    (canonical, relabelled, mirrored, perturbed, off the grid) for z = 1..3,
    and zero-idle carves."""
    for z in (1, 2, 3):
        for seed in range(2):
            for label, inst, sched in _audit_variants(z, seed):
                yield f"z={z} seed={seed} {label}", inst, sched
    rng = random.Random("swap carves")
    for k in range(40):
        yield f"carve {k}", *carve_zero_idle(rng, horizon=rng.randint(4, 12))


def test_the_exchange_matches_chained_reference_swaps():
    # Each step swaps a pair, the last one again or any other (m1 = m2
    # included), at one or two cuts in either order, on one exchange per
    # schedule; it must make the schedule the job-by-job swaps make at
    # those cuts in turn, or raise their CrossingJob and change nothing.
    pairs = [(m1, m2) for m1 in range(1, 5) for m2 in range(1, 5)]
    seen = Counter()
    for label, inst, sched in _swap_cases():
        rng = random.Random(label)
        edges = {0, *sched.starts.values(), *(sched.starts[j.id] + j.p for j in inst.jobs)}
        nudged = sorted({t + d for t in edges for d in (-1, 1)} - edges)
        edges = sorted(edges)
        exchange, current, pair = _Exchange(inst, sched), sched, rng.choice(pairs)
        for step in range(30):
            if rng.random() < 0.5:
                last, pair = pair, rng.choice(pairs)
                seen["pair change"] += pair != last
            cuts = [rng.choice(nudged if rng.random() < 0.2 else edges)
                    for _ in range(rng.randint(1, 2))]
            where = (label, step, pair, cuts)
            want = current
            try:
                for k, t in enumerate(cuts):
                    want = reference_swap(inst, want, t, *pair)
            except CrossingJob as exc:
                with pytest.raises(CrossingJob) as got:
                    exchange.swap(*pair, *cuts)
                assert str(got.value) == str(exc), where
                assert exchange.schedule() == current, where
                seen[f"torn at cut {k + 1} of {len(cuts)}"] += 1
                continue
            exchange.swap(*pair, *cuts)
            assert exchange.schedule() == want, where
            seen[f"{len(cuts)} cut{'s' * (len(cuts) > 1)}"] += 1
            seen["moved"] += want != current
            current = want
    assert min(seen.values()) >= 50 and len(seen) == 7, seen


def test_swap_preserves_audit(canonical_z1):
    _, inst, sched = canonical_z1
    swapped = swap_after(inst, sched, 0, 2, 3)
    assert audit(inst, swapped).passed


# ===== mirror =====


def test_mirror_involution_and_feasibility(canonical_z1):
    _, inst, sched = canonical_z1
    flipped = mirror(inst, sched)
    report = verify(inst, flipped)
    assert report.feasible and report.makespan == inst.W and report.idle == 0
    again = mirror(inst, flipped)
    assert again.starts == dict(sched.starts)
    assert again.machines == dict(sched.machines)


def test_mirror_defaults_to_makespan():
    inst = tiny_instance([job("x", 5, 1), job("y", 3, 1)])
    sched = Schedule(
        starts={"x": 0, "y": 2},
        machines={"x": frozenset({1}), "y": frozenset({2})},
    )
    flipped = mirror(inst, sched)
    assert flipped.starts == {"x": 0, "y": 0}


# ===== audit =====


@pytest.mark.parametrize("z", range(1, 7))
def test_digit_families_are_the_families_with_a_unit_digit(z):
    # The audit's digit table is derived from `reduction.FAMILIES`; the
    # literal below restates the construction independently.  It must equal
    # the derived table, tag order included, and at each audited power
    # every non-P family's length has a digit of 0 or 1, the same at every
    # index, with exactly the listed families at 1.
    table = {
        2: ("A", "beta", "lambda2"),
        3: ("B", "alpha", "lambda1"),
        4: ("a", "beta", "delta"),
        5: ("b", "alpha", "gamma"),
        6: ("a", "b"),
        8: ("c", "alpha", "beta", "lambda1", "lambda2"),
    }
    assert list(DIGIT_FAMILIES.items()) == list(table.items())
    jobs = [j for j in build_jobs(gen_yes(z, 0)[0]).jobs if j.tag != "P"]
    for D in (digit_bound(z) + 1, 10**9 + 7):
        rows = {}
        for j in jobs:
            digits = decompose(reference_length(j.tag, z, D, j.index or 0), z, D)
            row = tuple(digits.digit(k) for k in table)
            assert rows.setdefault(j.tag, row) == row, (D, j.id)
        for k, (power, families) in enumerate(table.items()):
            assert {row[k] for row in rows.values()} <= {0, 1}, (D, power)
            ones = {tag for tag, row in rows.items() if row[k] == 1}
            assert set(families) == ones, (D, power)


def test_audit_canonical_passes(canonical_z1):
    _, inst, sched = canonical_z1
    report = audit(inst, sched)
    assert report.passed
    assert report.first_violation is None
    # every checkpoint contributed its digit rows
    assert len(report.checks) > 50


def test_audit_passes_under_machine_permutation(canonical_z1):
    _, inst, sched = canonical_z1
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    relabeled = Schedule(
        starts=dict(sched.starts),
        machines={
            k: frozenset(perm[m] for m in v) for k, v in sched.machines.items()
        },
    )
    assert verify(inst, relabeled).feasible
    assert audit(inst, relabeled).passed


def test_audit_passes_on_mirror(canonical_z1):
    _, inst, sched = canonical_z1
    assert audit(inst, mirror(inst, sched)).passed


def test_audit_requires_reduction_instance():
    inst = tiny_instance([job("x", 5, 4)])
    sched = Schedule(starts={"x": 0}, machines={"x": frozenset({1, 2, 3, 4})})
    with pytest.raises(InvalidInput, match="^audit requires an unmodified reduction instance$"):
        audit(inst, sched)


def test_audit_lets_a_fault_of_decompose_escape(canonical_z1, monkeypatch):
    """A start that does not decompose is a failed row, but only when
    `decompose` refuses it: a bare ValueError inside it is a fault and
    escapes the audit."""
    from gadgetforge import schedule

    _, inst, sched = canonical_z1

    def faulty(*args):
        raise ValueError("a fault")

    monkeypatch.setattr(schedule, "decompose", faulty)
    with pytest.raises(ValueError, match="^a fault$"):
        audit(inst, sched)


def test_audit_not_zero_idle(canonical_z1):
    _, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["lambda2"] += 1  # pushes makespan past W
    with pytest.raises(InvalidInput, match="with arithmetic idle .*; audit needs makespan"):
        audit(inst, Schedule(starts=starts, machines=dict(sched.machines)))


def test_audit_pinpoints_exchanged_filler(canonical_z1):
    # Exchange the starts of a_1 and alpha_1.  Makespan and total work are
    # unchanged, but at the new a_1 checkpoint nothing has paid in the D^4
    # digit on machine 1.
    _, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["a_1"], starts["alpha_1"] = starts["alpha_1"], starts["a_1"]
    report = audit(inst, Schedule(starts=starts, machines=dict(sched.machines)))
    assert not report.passed
    first = report.first_violation
    assert first == AuditCheck(
        checkpoint="a_1",
        start=starts["a_1"],
        machine=1,
        kind="load:x4",
        expected=1,
        observed=0,
        ok=False,
    )


def test_audit_pinpoints_c_before_b(canonical_z1):
    # Exchange c_1 and b_1: the earliest break is at the relocated c_1
    # (nothing has paid its D^4 digit yet), and the B_1 checkpoint's count
    # identity confirms the missing b-pair.
    _, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["c_1"], starts["b_1"] = starts["b_1"], starts["c_1"]
    report = audit(inst, Schedule(starts=starts, machines=dict(sched.machines)))
    assert not report.passed
    first = report.first_violation
    assert first is not None
    assert (first.checkpoint, first.kind) == ("c_1", "load:x4")
    eq_hits = [
        v
        for v in report.violations
        if v.kind.startswith("eq:B") and "count(b)" in v.kind
    ]
    assert eq_hits and (eq_hits[0].expected, eq_hits[0].observed) == (1, 0)


def test_audit_decomposition_failure_is_a_verdict(canonical_z1):
    # Nudging B_1 off-grid keeps makespan W but its start no longer
    # decomposes; the audit reports that instead of raising.
    _, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["B_1"] += inst.D + 1  # lands in the dead zone of the unit digit
    report = audit(inst, Schedule(starts=starts, machines=dict(sched.machines)))
    assert not report.passed
    kinds = {c.kind for c in report.violations}
    assert "decompose" in kinds


def test_audit_randomized_swap_stability(canonical_z1):
    # Content swaps anchored at separator starts keep the audit green.
    _, inst, sched = canonical_z1
    rng = random.Random(7)
    anchors = [sched.starts[x] for x in ("A_0", "B_1", "A_1", "B_0")]
    current = sched
    for _ in range(8):
        t = rng.choice(anchors)
        current = swap_after(inst, current, t, 2, 3)
        assert verify(inst, current).feasible
        assert audit(inst, current).passed


def _perturbed(rng, inst, sched):
    """One to three random edits: two jobs' starts or machine sets
    exchanged, or a filler shifted by 1, D/2 or D either way."""
    starts, machines = dict(sched.starts), dict(sched.machines)
    ids = sorted(starts)
    fillers = [j.id for j in inst.jobs if j.tag in ("a", "b", "c", "gamma")]
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(3)
        if edit == 0:
            x, y = rng.sample(ids, 2)
            starts[x], starts[y] = starts[y], starts[x]
        elif edit == 1:
            x, y = rng.sample(ids, 2)
            machines[x], machines[y] = machines[y], machines[x]
        else:
            step = rng.choice((1, inst.D // 2, inst.D)) * rng.choice((1, -1))
            starts[rng.choice(fillers)] += step
    return Schedule(starts=starts, machines=machines)


def _audit_variants(z, seed):
    inst3, witness = gen_yes(z, seed)
    inst = build_jobs(inst3)
    sched = build_schedule(inst, witness)
    rng = random.Random(f"audit {z} {seed}")
    perm = dict(zip((1, 2, 3, 4), rng.sample((1, 2, 3, 4), 4)))
    yield "canonical", inst, sched
    yield "permuted", inst, Schedule(
        starts=dict(sched.starts),
        machines={i: frozenset(perm[m] for m in ms) for i, ms in sched.machines.items()},
    )
    yield "mirrored", inst, mirror(inst, sched)
    for k in range(8):
        yield f"perturbed {k}", inst, _perturbed(rng, inst, sched)
    starts = dict(sched.starts)
    starts[f"c_{rng.randrange(z + 1)}"] += z * inst.D + 1  # a residue above zD
    yield "off the grid", inst, Schedule(starts=starts, machines=dict(sched.machines))
    stretched = SchedulingInstance(inst.m, inst.z, inst.D, inst.W + 1, inst.jobs)
    yield "not a reduction", stretched, sched


def test_audit_matches_the_job_by_job_reference():
    seen = set()
    for z in range(1, 6):
        for seed in range(4):
            for label, inst, sched in _audit_variants(z, seed):
                try:
                    want = reference_audit(inst, sched)
                except InvalidInput as exc:
                    with pytest.raises(InvalidInput) as got:
                        audit(inst, sched)
                    assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                    seen.add("idle" if "zero idle" in str(exc) else "not a reduction")
                    continue
                report = audit(inst, sched)
                assert list(report.checks) == want, (z, seed, label)
                assert report.passed == all(c.ok for c in want)
                seen |= {c.kind.split("[")[0].split(":x")[0] for c in report.violations}
                seen.add("passed" if report.passed else "failed")
    # every kind of verdict and of broken row is compared somewhere
    assert seen == {
        "passed", "failed", "idle", "not a reduction", "decompose", "load",
        *(f"eq:{tag}" for tag in ("A", "B", "a", "b", "c")),
    }


def test_audit_check_is_an_immutable_value():
    fields = dict(
        checkpoint="a_1", start=12, machine=1, kind="load:x4",
        expected=1, observed=0, ok=False,
    )
    check = AuditCheck(**fields)
    with pytest.raises(AttributeError):
        check.ok = True
    twin = AuditCheck(*fields.values())
    assert check == twin and hash(check) == hash(twin)
    assert check != AuditCheck(**{**fields, "observed": 1})
    assert check.to_dict() == {
        "checkpoint": "a_1",
        "start": "12",
        "machine": 1,
        "kind": "load:x4",
        "expected": "1",
        "observed": "0",
        "ok": False,
    }
    row = AuditCheck("B_1", 7, None, "decompose", "clean decomposition", "x", False)
    assert row.to_dict()["machine"] is None
    assert row.to_dict()["expected"] == "clean decomposition"
    assert AuditCheck._fields == tuple(fields)


# ===== serialization =====


def test_schedule_json_roundtrip(canonical_z1):
    _, _, sched = canonical_z1
    text = sched.to_json()
    back = Schedule.from_json(text)
    assert back.to_json() == text
    assert back.starts == dict(sched.starts)
    assert back.machines == dict(sched.machines)
