"""Verifier, finished-before counts, swaps, mirror, and the digit audit."""

import random

import pytest

from gadgetforge.reduction import SchedulingInstance, Job, build_jobs
from gadgetforge.schedule import (
    AuditCheck,
    CrossingJob,
    MachineOutOfRange,
    NotZeroIdle,
    Schedule,
    UnknownJob,
    audit,
    count_before,
    count_finished_by,
    finished_by_index,
    mirror,
    swap_after,
    verify,
)
from gadgetforge.threepartition import ThreePartitionInstance

from conftest import make_canonical_z1


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
    with pytest.raises(UnknownJob):
        verify(
            inst,
            Schedule(
                starts={"x": 0, "ghost": 0},
                machines={"x": frozenset({1}), "ghost": frozenset({2})},
            ),
        )
    with pytest.raises(UnknownJob):
        verify(inst, Schedule(starts={}, machines={}))


def test_verify_machine_out_of_range():
    inst = tiny_instance([job("x", 5, 1)])
    with pytest.raises(MachineOutOfRange):
        verify(inst, Schedule(starts={"x": 0}, machines={"x": frozenset({5})}))


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


def test_finished_by_index_agrees_with_count_finished_by(canonical_z1):
    # every job's start and end, one unit either side, on every machine
    _, inst, sched = canonical_z1
    finished = finished_by_index(inst, sched)
    tags = sorted({j.tag for j in inst.jobs}) + ["unknown"]
    times = {sched.starts[j.id] + d for j in inst.jobs for d in (-1, 0, 1)}
    times |= {sched.starts[j.id] + j.p + d for j in inst.jobs for d in (-1, 0, 1)}
    for t in sorted(times):
        for tag in tags:
            for machine in (None, 1, 2, 3, 4):
                ids = [
                    j.id
                    for j in inst.jobs
                    if j.tag == tag
                    and (machine is None or machine in sched.machines[j.id])
                ]
                assert finished(t, (tag,), machine) == count_finished_by(
                    inst, sched, t, ids
                )
        assert finished(t, tags) == count_finished_by(
            inst, sched, t, [j.id for j in inst.jobs]
        )


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


def test_swap_preserves_audit(canonical_z1):
    _, inst, sched = canonical_z1
    swapped = swap_after(inst, sched, 0, 2, 3)
    assert audit(inst, swapped).passed


# ===== mirror =====


def test_mirror_involution_and_feasibility(canonical_z1):
    _, inst, sched = canonical_z1
    flipped = mirror(inst, sched, inst.W)
    report = verify(inst, flipped)
    assert report.feasible and report.makespan == inst.W and report.idle == 0
    again = mirror(inst, flipped, inst.W)
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
    assert audit(inst, mirror(inst, sched, inst.W)).passed


def test_audit_requires_reduction_instance():
    inst = tiny_instance([job("x", 5, 4)])
    sched = Schedule(starts={"x": 0}, machines={"x": frozenset({1, 2, 3, 4})})
    with pytest.raises(ValueError):
        audit(inst, sched)


def test_audit_not_zero_idle(canonical_z1):
    _, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["lambda2"] += 1  # pushes makespan past W
    with pytest.raises(NotZeroIdle):
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


# ===== serialization =====


def test_schedule_json_roundtrip(canonical_z1):
    _, _, sched = canonical_z1
    text = sched.to_json()
    back = Schedule.from_json(text)
    assert back.to_json() == text
    assert back.starts == dict(sched.starts)
    assert back.machines == dict(sched.machines)
