"""`verify_packing` and `normalize` against a pairwise reference.

The reference below is the direct reading of the definitions: every pair of
items is tested for overlap, and every settled item is scanned when the next
one drops or slides.  The package's sweep-line check and skyline normalize
must agree with it on every output: the report's `problems` (in order),
`height` and `free_area`, the error raised, and the normalized positions.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gadgetforge.exactnum import InvalidInput
from gadgetforge.reduction import Job, SchedulingInstance
from gadgetforge.strip import (
    Packing,
    PackingReport,
    normalize,
    verify_packing,
)


def reference_verify(strip, packing):
    problems = []
    for item in strip.jobs:
        x, y = packing.positions[item.id]
        if x + item.p > strip.W:
            raise InvalidInput(
                f"item {item.id} spans [{x}, {x + item.p}) in a strip of "
                f"width {strip.W}"
            )
        if x < 0:
            problems.append(f"item {item.id} has x={x} < 0")
        if y < 0:
            problems.append(f"item {item.id} has y={y} < 0")
    boxes = [(item, packing.positions[item.id]) for item in strip.jobs]
    for i, (it1, (x1, y1)) in enumerate(boxes):
        for it2, (x2, y2) in boxes[i + 1 :]:
            if (
                x1 < x2 + it2.p
                and x2 < x1 + it1.p
                and y1 < y2 + it2.q
                and y2 < y1 + it1.q
            ):
                problems.append(f"items {it1.id} and {it2.id} overlap")
    height = max((y + it.q for it, (_, y) in boxes), default=0)
    return PackingReport(
        feasible=not problems,
        height=height,
        free_area=strip.W * height - strip.total_work,
        problems=tuple(problems),
    )


def reference_normalize(strip, packing):
    report = reference_verify(strip, packing)
    if not report.feasible:
        raise InvalidInput(f"cannot normalize infeasible packing: {report.problems}")
    pos = dict(packing.positions)

    def sweep(axis):
        moved = False
        order = sorted(
            strip.jobs,
            key=lambda it: (pos[it.id][axis], pos[it.id][1 - axis], it.id),
        )
        settled = []
        for item in order:
            x, y = pos[item.id]
            if axis == 1:
                coord, lo, hi, size = y, x, x + item.p, item.q
            else:
                coord, lo, hi, size = x, y, y + item.q, item.p
            edge = 0
            for olo, ohi, oedge in settled:
                if olo < hi and lo < ohi and oedge <= coord:
                    edge = max(edge, oedge)
            moved |= edge < coord
            pos[item.id] = (x, edge) if axis == 1 else (edge, y)
            settled.append((lo, hi, edge + size))
        return moved

    while sweep(1) | sweep(0):
        pass
    return {
        k: (int(x) if x == int(x) else x, int(y) if y == int(y) else y)
        for k, (x, y) in pos.items()
    }


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInput as exc:
        return type(exc), str(exc)


# Coordinates on a coarse grid of small denominators, so that touching
# edges, shared corners, nested and triple overlaps are all common.
coords = st.builds(
    Fraction,
    st.integers(min_value=-2, max_value=14),
    st.sampled_from([1, 1, 1, 2, 3]),
)


@st.composite
def loose_packings(draw):
    """Items dropped anywhere: mostly infeasible, sometimes too wide."""
    count = draw(st.integers(min_value=0, max_value=9))
    items, positions = [], {}
    for i in range(count):
        w = draw(st.integers(min_value=1, max_value=4))
        h = draw(st.integers(min_value=1, max_value=3))
        items.append(Job(id=f"r{i}", p=w, q=h, tag="J"))
        x, y = draw(coords), draw(coords)
        integral = draw(st.booleans())
        positions[f"r{i}"] = (int(x), int(y)) if integral else (x, y)
    width = draw(st.integers(min_value=8, max_value=20))
    return SchedulingInstance(m=4, z=0, D=0, W=width, jobs=tuple(items)), Packing(
        positions=positions
    )


@st.composite
def feasible_packings(draw):
    """Items placed at random nonnegative grid points, each kept only when
    it fits beside the ones kept before: feasible, with many contacts."""
    count = draw(st.integers(min_value=1, max_value=12))
    width = 16
    items, positions = [], {}
    for i in range(count):
        w = draw(st.integers(min_value=1, max_value=5))
        h = draw(st.integers(min_value=1, max_value=3))
        x = draw(coords.filter(lambda c: 0 <= c <= width - w))
        y = draw(coords.filter(lambda c: c >= 0))
        item = Job(id=f"r{i}", p=w, q=h, tag="J")
        trial = SchedulingInstance(m=4, z=0, D=0, W=width, jobs=(*items, item))
        placed = Packing(positions={**positions, item.id: (x, y)})
        if reference_verify(trial, placed).feasible:
            items.append(item)
            positions[item.id] = (x, y)
    return SchedulingInstance(m=4, z=0, D=0, W=width, jobs=tuple(items)), Packing(
        positions=positions
    )


@settings(max_examples=400, deadline=None)
@given(loose_packings())
def test_verify_packing_matches_pairwise_reference(case):
    strip, packing = case
    assert outcome(verify_packing, strip, packing) == outcome(
        reference_verify, strip, packing
    )


@settings(max_examples=150, deadline=None)
@given(loose_packings())
def test_normalize_rejects_what_the_reference_rejects(case):
    strip, packing = case
    got = outcome(normalize, strip, packing)
    want = outcome(reference_normalize, strip, packing)
    if isinstance(got, Packing):
        got = dict(got.positions)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(feasible_packings())
def test_normalize_matches_pairwise_reference(case):
    strip, packing = case
    got = normalize(strip, packing).positions
    want = reference_normalize(strip, packing)
    assert got == want
    assert {k: tuple(map(type, v)) for k, v in got.items()} == {
        k: tuple(map(type, v)) for k, v in want.items()
    }
    assert verify_packing(strip, Packing(positions=got)) == reference_verify(
        strip, Packing(positions=want)
    )
