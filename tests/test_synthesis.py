import pytest

from gadgetforge.reduction import build_jobs, build_strip, forced_starts
from gadgetforge.schedule import audit, verify
from gadgetforge.strip import verify_packing
from gadgetforge.exactnum import InvalidInput
from gadgetforge.synthesis import build_packing, build_schedule
from gadgetforge.threepartition import gen_yes

from conftest import (
    make_canonical_z1,
    reference_gamma_window,
    reference_partition_gaps,
)


def test_matches_hand_built_canonical_schedule():
    inst3p, inst, hand = make_canonical_z1()
    built = build_schedule(inst, ((1, 2, 3),))
    assert dict(built.starts) == dict(hand.starts)
    assert dict(built.machines) == dict(hand.machines)


@pytest.mark.parametrize("z,seed", [(1, 7), (2, 3), (3, 11)])
def test_generated_yes_instances_schedule_cleanly(z, seed):
    inst3p, witness = gen_yes(z, seed)
    inst = build_jobs(inst3p)
    sched = build_schedule(inst, witness)

    report = verify(inst, sched)
    assert report.feasible
    assert report.makespan == inst.W
    assert report.idle == 0
    assert report.contiguous

    assert audit(inst, sched).passed

    for job_id, start in forced_starts(inst).items():
        assert sched.starts[job_id] == start, job_id

    gaps = reference_partition_gaps(inst)
    for j in range(1, z + 1):
        lo, hi = reference_gamma_window(inst, j)
        assert lo <= sched.starts[f"gamma_{j}"] <= hi
        glo, ghi = gaps[j - 1]
        for idx in witness[j - 1]:
            s = sched.starts[f"P_{idx}"]
            assert glo <= s and s + inst.by_id[f"P_{idx}"].p <= ghi


def test_partition_jobs_fill_their_gap_exactly():
    inst3p, witness = gen_yes(2, 5)
    inst = build_jobs(inst3p)
    sched = build_schedule(inst, witness)
    for j, (glo, ghi) in enumerate(reference_partition_gaps(inst), start=1):
        spans = sorted(
            (sched.starts[f"P_{idx}"], inst.by_id[f"P_{idx}"].p)
            for idx in witness[j - 1]
        )
        cursor = glo + inst.by_id[f"gamma_{j}"].p
        for s, p in spans:
            assert s == cursor
            cursor += p
        assert cursor == ghi


def test_rejects_triple_with_wrong_sum():
    inst3p, witness = gen_yes(2, 1)
    inst = build_jobs(inst3p)
    bad = (witness[0], (witness[1][0], witness[1][1], witness[0][2]))
    with pytest.raises(InvalidInput, match=r"^triple \(.*\) sums to \d+, expected \d+$"):
        build_schedule(inst, bad)


def test_rejects_malformed_partition():
    inst3p, witness = gen_yes(1, 0)
    inst = build_jobs(inst3p)
    with pytest.raises(InvalidInput, match=r"^set \(1, 2\) does not have 3 members$"):
        build_schedule(inst, ((1, 2),))
    # an index below 1 is refused before any value is read by it
    with pytest.raises(InvalidInput, match=r"^set \(0, 1, 2\) has indices outside 1..3$"):
        build_schedule(inst, ((0, 1, 2),))
    with pytest.raises(InvalidInput, match="^0 sets, expected 1$"):
        build_schedule(inst, ())


def test_rejects_non_reduction_instance():
    inst3p, witness = gen_yes(1, 2)
    inst = build_jobs(inst3p)
    jobs = tuple(
        j if j.id != "lambda1" else type(j)(j.id, j.p + 1, j.q, j.tag, j.index)
        for j in inst.jobs
    )
    tampered = type(inst)(inst.m, inst.z, inst.D, inst.W, jobs)
    with pytest.raises(ValueError, match="reduction instance"):
        build_schedule(tampered, witness)


def test_packing_has_height_four_and_no_free_area():
    inst3p, witness = gen_yes(2, 8)
    strip = build_strip(inst3p)
    packing = build_packing(strip, witness)
    report = verify_packing(strip, packing)
    assert report.feasible
    assert report.height == 4
    assert report.free_area == 0
