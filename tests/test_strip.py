"""Packing verification, gravity normalization, and the schedule bridge."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gadgetforge.exactnum import InvalidInput
from gadgetforge.reduction import Job, SchedulingInstance, build_jobs, build_strip
from gadgetforge.strip import (
    Packing,
    normalize,
    packing_to_schedule,
    schedule_to_packing,
    verify_packing,
)
from gadgetforge.synthesis import build_packing
from gadgetforge.threepartition import ThreePartitionInstance, gen_yes

INST_D33 = ThreePartitionInstance((10, 11, 12))


def tiny_strip(*dims, width=10):
    jobs = tuple(
        Job(id=f"r{i}", p=w, q=h, tag="J") for i, (w, h) in enumerate(dims)
    )
    return SchedulingInstance(m=4, z=0, D=0, W=width, jobs=jobs)


# ===== verify_packing =====


def test_unit_squares_side_by_side():
    strip = tiny_strip((1, 1), (1, 1))
    report = verify_packing(
        strip, Packing(positions={"r0": (0, 0), "r1": (1, 0)})
    )
    assert report.feasible and report.height == 1
    assert report.free_area == 8
    assert json.loads(json.dumps(report.to_dict())) == {
        "feasible": True, "height": "1", "free_area": "8", "problems": []
    }


def test_overlapping_squares():
    strip = tiny_strip((1, 1), (1, 1))
    report = verify_packing(
        strip, Packing(positions={"r0": (0, 0), "r1": (0, 0)})
    )
    assert not report.feasible
    assert any("overlap" in p for p in report.problems)


def test_touching_edges_do_not_overlap():
    strip = tiny_strip((2, 2), (2, 2))
    report = verify_packing(
        strip, Packing(positions={"r0": (0, 0), "r1": (2, 0)})
    )
    assert report.feasible


def test_width_exceeded():
    strip = tiny_strip((6, 1), width=5)
    with pytest.raises(InvalidInput, match=r"^item r0 spans \[0, 6\) in a strip of width 5$"):
        verify_packing(strip, Packing(positions={"r0": (0, 0)}))


def test_missing_and_unknown_items():
    strip = tiny_strip((1, 1))
    with pytest.raises(InvalidInput, match="^item 'r0' is missing from the packing$"):
        verify_packing(strip, Packing(positions={}))
    with pytest.raises(InvalidInput, match="^packing mentions unknown item 'ghost'$"):
        verify_packing(
            strip, Packing(positions={"r0": (0, 0), "ghost": (1, 1)})
        )


def test_negative_coordinates_reported():
    strip = tiny_strip((1, 1))
    report = verify_packing(strip, Packing(positions={"r0": (-1, -1)}))
    assert not report.feasible
    assert len(report.problems) == 2


def test_fractional_coordinates_verify():
    strip = tiny_strip((1, 1), (1, 1))
    packing = Packing(
        positions={"r0": (Fraction(1, 2), 0), "r1": (Fraction(3, 2), Fraction(1, 3))}
    )
    report = verify_packing(strip, packing)
    assert report.feasible
    assert report.height == Fraction(4, 3)


# ===== normalize =====


def test_normalize_drops_and_slides():
    strip = tiny_strip((2, 1), (1, 1))
    packing = Packing(
        positions={"r0": (3, Fraction(5, 2)), "r1": (Fraction(13, 2), 4)}
    )
    result = normalize(strip, packing)
    assert result.positions["r0"] == (0, 0)
    # r1 slides left onto the floor next to r0
    assert result.positions["r1"] == (2, 0)


def test_normalize_is_idempotent_on_canonical_bridge(canonical_z1):
    _, inst, sched = canonical_z1
    strip = build_strip(INST_D33)
    packing = schedule_to_packing(inst, sched)
    once = normalize(strip, packing)
    assert once.positions == dict(packing.positions)  # already flush
    twice = normalize(strip, once)
    assert twice.positions == dict(once.positions)


def test_normalize_never_increases_height():
    strip = tiny_strip((3, 2), (3, 1), (4, 1))
    packing = Packing(
        positions={"r0": (0, 5), "r1": (3, Fraction(7, 2)), "r2": (6, 9)}
    )
    before = verify_packing(strip, packing).height
    result = normalize(strip, packing)
    after = verify_packing(strip, result)
    assert after.feasible
    assert after.height <= before
    assert all(
        isinstance(x, int) and isinstance(y, int)
        for x, y in result.positions.values()
    )


def test_normalize_rejects_infeasible():
    strip = tiny_strip((1, 1), (1, 1))
    with pytest.raises(InvalidInput, match="^cannot normalize infeasible packing: "):
        normalize(strip, Packing(positions={"r0": (0, 0), "r1": (0, 0)}))


@st.composite
def random_packings(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    dims = [
        (
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(count)
    ]
    # worst case per item: slack 3 plus width 4, so 7 * count covers it
    strip = tiny_strip(*dims, width=7 * count)
    # place items in a staircase with random rational slack: feasible by
    # construction since both coordinates strictly increase
    positions = {}
    x, y = 0, 0
    for i, (w, h) in enumerate(dims):
        x = x + draw(
            st.fractions(min_value=0, max_value=3, max_denominator=4)
        )
        y = y + h + draw(
            st.fractions(min_value=0, max_value=2, max_denominator=3)
        )
        positions[f"r{i}"] = (x, y)
        x += w
    return strip, Packing(positions=positions)


@settings(max_examples=60, deadline=None)
@given(random_packings())
def test_normalize_properties(case):
    strip, packing = case
    before = verify_packing(strip, packing)
    assert before.feasible
    result = normalize(strip, packing)
    after = verify_packing(strip, result)
    assert after.feasible
    assert after.height <= before.height
    assert all(
        isinstance(x, int) and isinstance(y, int)
        for x, y in result.positions.values()
    )
    again = normalize(strip, result)
    assert again.positions == dict(result.positions)


# ===== schedule bridge =====


def test_bridge_roundtrip_identity(canonical_z1):
    _, inst, sched = canonical_z1
    packing = schedule_to_packing(inst, sched)
    strip = build_strip(INST_D33)
    report = verify_packing(strip, packing)
    assert report.feasible
    assert report.height == 4
    assert report.free_area == 0
    back = packing_to_schedule(inst, packing)
    assert back.starts == dict(sched.starts)
    assert back.machines == dict(sched.machines)


def test_bridge_rejects_non_contiguous(canonical_z1):
    _, inst, sched = canonical_z1
    machines = dict(sched.machines)
    machines["a_1"] = frozenset({1, 3})
    bad = type(sched)(starts=dict(sched.starts), machines=machines)
    with pytest.raises(InvalidInput, match=r"^job a_1 occupies non-adjacent machines \[1, 3\]$"):
        schedule_to_packing(inst, bad)


def test_bridge_rejects_non_integral_y(canonical_z1):
    _, inst, sched = canonical_z1
    packing = schedule_to_packing(inst, sched)
    positions = dict(packing.positions)
    x, _ = positions["gamma_1"]
    positions["gamma_1"] = (x, Fraction(1, 2))
    with pytest.raises(InvalidInput, match="^item gamma_1 has y=1/2$"):
        packing_to_schedule(inst, Packing(positions=positions))


def test_bridge_rejects_non_integral_x():
    """A packing shifted half a unit right is feasible in the strip, but no
    schedule starts a job at a fraction: it is refused, naming the first
    item, not read as a schedule with `Fraction` starts."""
    inst3, witness = gen_yes(1, 0)
    packing = build_packing(build_strip(inst3), witness)
    half = Fraction(1, 2)
    shifted = Packing(
        positions={k: (x + half, y) for k, (x, y) in packing.positions.items()}
    )
    with pytest.raises(InvalidInput, match=r"^item A_0 has x=\d+/2$"):
        packing_to_schedule(build_jobs(inst3), shifted)


@pytest.mark.parametrize(
    "change, error",
    [
        (
            lambda starts, machines: starts.pop("A_0"),
            "^job 'A_0' is missing from the schedule$",
        ),
        (
            lambda starts, machines: machines.update(a_1=frozenset()),
            "^job a_1 occupies 0 machines, needs 2$",
        ),
        (
            lambda starts, machines: machines.update(a_1=frozenset({1})),
            "^job a_1 occupies 1 machines, needs 2$",
        ),
    ],
    ids=["missing-job", "empty-machine-set", "too-few-machines"],
)
def test_bridge_refuses_a_schedule_it_cannot_lay_sideways(canonical_z1, change, error):
    """A schedule without some job, or with a job on no machine or on fewer
    machines than it needs, has no packing: it is refused with
    InvalidInput, not a bare KeyError or ValueError, nor laid as an item
    of full height that the schedule never placed."""
    _, inst, sched = canonical_z1
    starts, machines = dict(sched.starts), dict(sched.machines)
    change(starts, machines)
    bad = type(sched)(starts=starts, machines=machines)
    with pytest.raises(InvalidInput, match=error):
        schedule_to_packing(inst, bad)


def test_bridge_rejects_tall_placement(canonical_z1):
    _, inst, sched = canonical_z1
    packing = schedule_to_packing(inst, sched)
    positions = dict(packing.positions)
    x, _ = positions["B_1"]  # height 3: y=2 would reach 5
    positions["B_1"] = (x, 2)
    with pytest.raises(InvalidInput, match="^item B_1 reaches height 5 > 4$"):
        packing_to_schedule(inst, Packing(positions=positions))


@pytest.mark.parametrize(
    "positions, error",
    [
        ({"ghost": (0, 0)}, "^packing mentions unknown item 'ghost'$"),
        ({"J": (0, -1)}, "^item J sits below the strip at y=-1$"),
    ],
    ids=["unknown-item", "below-the-floor"],
)
def test_bridge_rejects_what_verify_packing_rejects(positions, error):
    """An item the instance lacks, or one below y = 0, has no schedule
    reading: it is refused, never dropped or put on machine 0."""
    inst = SchedulingInstance(
        m=4, z=0, D=0, W=4, jobs=(Job(id="J", p=4, q=2, tag="J"),)
    )
    packing = Packing(positions={"J": (0, 0), **positions})
    with pytest.raises(InvalidInput, match=error):
        packing_to_schedule(inst, packing)


# ===== serialization =====


def test_packing_json_roundtrip(canonical_z1):
    _, inst, sched = canonical_z1
    packing = schedule_to_packing(inst, sched)
    text = packing.to_json()
    back = Packing.from_json(text)
    assert back.to_json() == text
    assert back.positions == dict(packing.positions)


def test_packing_json_rejects_fractional_y():
    packing = Packing(positions={"r0": (0, Fraction(1, 2))})
    with pytest.raises(InvalidInput, match="^item r0 has y=1/2; serialized packings need integral y$"):
        packing.to_json()


@pytest.mark.parametrize(
    "x, y",
    [(1.5, 0), ("3/0", 0), ("3/-2", 0), ("1.5", 0), (True, 0), ("1", 1.9), ("1", False)],
)
def test_packing_json_rejects_inexact_coordinates(x, y):
    text = json.dumps({"positions": {"r0": [x, y]}})
    with pytest.raises(InvalidInput):
        Packing.from_json(text)


def test_packing_json_reads_fractions_and_signs():
    text = json.dumps({"positions": {"r0": ["-3/2", "-1"], "r1": [7, 2]}})
    assert Packing.from_json(text).positions == {
        "r0": (Fraction(-3, 2), -1),
        "r1": (7, 2),
    }
