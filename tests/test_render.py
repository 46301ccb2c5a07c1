import xml.etree.ElementTree as ET
from fractions import Fraction
from math import ceil
from xml.sax.saxutils import escape

import pytest

from gadgetforge import render
from gadgetforge.reduction import (
    Job,
    SchedulingInstance,
    StripInstance,
    build_jobs,
    build_strip,
)
from gadgetforge.render import render_packing_svg, render_schedule_svg
from gadgetforge.schedule import Schedule
from gadgetforge.strip import Packing, schedule_to_packing
from gadgetforge.synthesis import build_schedule
from gadgetforge.threepartition import gen_yes


def canonical(z=1, seed=5):
    inst3, part = gen_yes(z, seed=seed)
    inst = build_jobs(inst3)
    return inst3, inst, build_schedule(inst, part)


def test_schedule_svg_is_well_formed_xml():
    _, inst, sched = canonical()
    root = ET.fromstring(render_schedule_svg(inst, sched))
    assert root.tag.endswith("svg")


def test_one_rect_per_machine_slice():
    _, inst, sched = canonical()
    svg = render_schedule_svg(inst, sched)
    rects = [
        el
        for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect")
        if el.get("class") == "job"
    ]
    assert len(rects) == sum(j.q for j in inst.jobs)


def test_banding_is_annotated():
    _, inst, sched = canonical()
    svg = render_schedule_svg(inst, sched)
    assert f"~{inst.D}^" in svg
    assert "axis is banded" in svg


def test_legend_names_every_tag():
    _, inst, sched = canonical()
    svg = render_schedule_svg(inst, sched)
    for tag in {j.tag for j in inst.jobs}:
        assert f">{tag}</text>" in svg


def test_rendering_is_deterministic():
    _, inst, sched = canonical()
    assert render_schedule_svg(inst, sched) == render_schedule_svg(inst, sched)


def test_packing_svg_round():
    inst3, inst, sched = canonical()
    strip = build_strip(inst3)
    pack = schedule_to_packing(inst, sched)
    svg = render_packing_svg(strip, pack)
    root = ET.fromstring(svg)
    rects = [
        el
        for el in root.iter("{http://www.w3.org/2000/svg}rect")
        if el.get("class") == "job"
    ]
    assert len(rects) == len(strip.jobs)
    assert "height 4" in svg


def test_generic_instance_falls_back_to_base_10():
    inst = SchedulingInstance(
        m=4,
        z=0,
        D=0,
        W=0,
        jobs=(
            Job(id="J0", p=5, q=4, tag="J"),
            Job(id="J1", p=30, q=2, tag="K"),
            Job(id="J2", p=30, q=2, tag="K"),
        ),
    )
    sched = Schedule(
        starts={"J0": 0, "J1": 5, "J2": 5},
        machines={
            "J0": frozenset({1, 2, 3, 4}),
            "J1": frozenset({1, 2}),
            "J2": frozenset({3, 4}),
        },
    )
    svg = render_schedule_svg(inst, sched)
    ET.fromstring(svg)
    assert "log_10" in svg


def test_ids_and_tags_are_escaped_as_saxutils_escapes_them(monkeypatch):
    """The renderer's own escape writes the same bytes as
    `xml.sax.saxutils.escape`, on a schedule and a packing whose job ids and
    tags hold &, < and >, and on an id that already looks like an entity."""
    inst = SchedulingInstance(
        m=4,
        z=0,
        D=0,
        W=0,
        jobs=(
            Job(id="J<&>0", p=3000, q=4, tag="T&<>"),
            Job(id="J>1&amp;", p=3000, q=2, tag="K<"),
            Job(id="J2", p=3000, q=2, tag="&K"),
        ),
    )
    sched = Schedule(
        starts={"J<&>0": 0, "J>1&amp;": 3000, "J2": 3000},
        machines={
            "J<&>0": frozenset({1, 2, 3, 4}),
            "J>1&amp;": frozenset({1, 2}),
            "J2": frozenset({3, 4}),
        },
    )
    packing = schedule_to_packing(inst, sched)
    ours = [render_schedule_svg(inst, sched), render_packing_svg(inst, packing)]
    monkeypatch.setattr(render, "_escape", escape)
    theirs = [render_schedule_svg(inst, sched), render_packing_svg(inst, packing)]
    assert [s.encode() for s in ours] == [s.encode() for s in theirs]
    for svg in ours:
        ET.fromstring(svg)
        assert ">J&lt;&amp;&gt;0</text>" in svg
        assert ">J&gt;1&amp;amp;</text>" in svg
        assert ">T&amp;&lt;&gt;</text>" in svg
    for text in ("", "plain", "a&b<c>d", "&amp;", "<<>>&&", "]]>"):
        assert render._escape(text) == escape(text)


# an item 4 wide at each x, in a strip 10 wide: a fractional x beside its
# integral neighbours, one rounding down past 0 and one up past the width
FRACTIONAL_X = {"-1/2": Fraction(-1, 2), "-1": -1, "13/2": Fraction(13, 2), "7": 7}


@pytest.mark.parametrize("x", FRACTIONAL_X.values(), ids=FRACTIONAL_X)
def test_an_item_at_a_fractional_x_is_drawn(x):
    """The axis has a tick at or left of the item's start and one at or
    right of its end, so an item whose x is fractional lies inside the
    drawn range as its integral neighbours do."""
    strip = StripInstance(m=4, z=0, D=0, W=10, jobs=(Job("r0", 4, 1, "J"),))
    svg = render_packing_svg(strip, Packing(positions={"r0": (x, 0)}))
    rects = [
        el
        for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect")
        if el.get("class") == "job"
    ]
    assert len(rects) == 1


# an item of height 1 at each y: fractional ones beside their integral
# neighbours, so its top is at or just below a row edge
FRACTIONAL_Y = {"0": 0, "1/2": Fraction(1, 2), "1": 1, "5/2": Fraction(5, 2)}


@pytest.mark.parametrize("y", FRACTIONAL_Y.values(), ids=FRACTIONAL_Y)
def test_an_item_at_a_fractional_y_is_drawn_inside_the_rows(y):
    """The figure has a row for every unit up to the item's top, rounded
    up, so an item whose y is fractional is drawn between the top of the
    first row and the bottom of the last, under a heading that counts
    those rows."""
    strip = StripInstance(m=4, z=0, D=0, W=10, jobs=(Job("r0", 4, 1, "J"),))
    svg = render_packing_svg(strip, Packing(positions={"r0": (0, y)}))
    rows = ceil(y + 1)
    assert f"height {rows}</text>" in svg
    (rect,) = [
        el
        for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect")
        if el.get("class") == "job"
    ]
    top = float(rect.get("y"))
    bottom = top + float(rect.get("height"))
    assert render._TOP <= top < bottom <= render._TOP + rows * render._ROW
