"""SVG pictures of schedules and strip packings.

A reduction schedule spans W, which is dominated by the D^8 jobs, yet all
the structure lives in features that are factors of D apart.  A linear time
axis would collapse everything interesting into less than a pixel, so the
axis here is piecewise: every start and end time becomes a boundary, and
the gap between consecutive boundaries is drawn with a width set by its
magnitude class floor(log_D(gap)), not its value.  Each wide enough gap is
annotated with that class, and the caption states the rule, so the picture
cannot be mistaken for a linear Gantt chart.

Output is plain SVG 1.1 text built with the standard library; rendering is
deterministic for a given instance and schedule.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from math import ceil, floor

from .exactnum import InvalidInput
from .reduction import SchedulingInstance
from .schedule import Schedule, _check_job_universe
from .strip import Packing, _check_item_universe

_PALETTE = {
    "A": "#4c78a8",
    "B": "#f58518",
    "a": "#54a24b",
    "b": "#e45756",
    "c": "#72b7b2",
    "alpha": "#9d755d",
    "beta": "#b279a2",
    "gamma": "#ff9da6",
    "delta": "#79706e",
    "lambda1": "#d67195",
    "lambda2": "#83bcb6",
    "P": "#eeca3b",
}
_FALLBACK = ("#bab0ac", "#a0cbe8", "#ffbf79", "#88d27a", "#f1ce63")

_ROW = 44
_TOP = 46
_LEFT = 64
_GAP_MIN = 12
_GAP_STEP = 15
_LABEL_MIN = 30
_MAX_ROWS = 100  # machines or lanes one figure draws, one row each


def _color(tag: str) -> str:
    if tag in _PALETTE:
        return _PALETTE[tag]
    return _FALLBACK[sum(tag.encode()) % len(_FALLBACK)]


def _escape(text: str) -> str:
    """`text` with &, > and < written as entities, in that order, as
    `xml.sax.saxutils.escape` does; that module is not imported because it
    loads the urllib and http packages."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _magnitude(gap: int, base: int) -> int:
    k = 0
    step = base
    while step <= gap:
        k += 1
        step *= base
    return k


class _Axis:
    """Piecewise horizontal scale: one band per gap between event times,
    kept as (lo, hi, left x, width, magnitude of the gap).  Both renderers
    pass times that hold 0, so there is at least one tick."""

    def __init__(self, times: list[int], base: int):
        self.base = base
        self.ticks = sorted(set(times))
        self.x = {}
        cursor = float(_LEFT)
        self.bands = []
        for lo, hi in zip(self.ticks, self.ticks[1:]):
            self.x[lo] = cursor
            k = _magnitude(hi - lo, base)
            width = _GAP_MIN + _GAP_STEP * k
            self.bands.append((lo, hi, cursor, width, k))
            cursor += width
        self.x[self.ticks[-1]] = cursor
        self.right = cursor

    def pos(self, t) -> float:
        """The x of time t, which lies in [ticks[0], ticks[-1]]: the
        schedule figure passes its ticks themselves, and the packing figure
        an item's x and x + p, which lie between its ticks floor(x) and
        ceil(x + p).  A t off every tick (a fractional packing coordinate)
        is interpolated inside the one band around it."""
        if t in self.x:
            return self.x[t]
        lo, hi, left, width, _ = self.bands[bisect_right(self.ticks, t) - 1]
        return left + width * float(Fraction(t - lo) / (hi - lo))


def _fmt(value: int) -> str:
    """`value` in full below 100,000, else in e-notation with three
    decimals; past the float range, read from the exact integer."""
    if value < 100_000:
        return str(value)
    try:
        return f"{float(value):.3e}"
    except OverflowError:
        return f"{Decimal(value):.3e}"


def _svg(parts: list[str], width: float, height: float) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    style = (
        "<style>text{font-family:monospace;font-size:11px}"
        ".cap{font-size:10px;fill:#555}.band{font-size:9px;fill:#777}"
        "rect.job{stroke:#333;stroke-width:0.6}</style>"
    )
    return "\n".join([head, style, *parts, "</svg>"])


def _axis_parts(axis: _Axis, y: float) -> list[str]:
    parts = [
        f'<line x1="{_LEFT}" y1="{y:.0f}" x2="{axis.right:.0f}" y2="{y:.0f}" '
        'stroke="#333"/>'
    ]
    for _, _, left, width, k in axis.bands:
        parts.append(
            f'<line x1="{left:.1f}" y1="{y:.0f}" x2="{left:.1f}" '
            f'y2="{y + 5:.0f}" stroke="#333"/>'
        )
        # only bands with k >= 2 are labelled (12 + 15k >= 30)
        if width >= _LABEL_MIN:
            parts.append(
                f'<text class="band" x="{left + width / 2:.1f}" '
                f'y="{y + 14:.0f}" text-anchor="middle">~{axis.base}^{k}</text>'
            )
    first, last = axis.ticks[0], axis.ticks[-1]
    parts.append(
        f'<text class="cap" x="{_LEFT}" y="{y + 26:.0f}">t={_fmt(first)}</text>'
    )
    parts.append(
        f'<text class="cap" x="{axis.right:.1f}" y="{y + 26:.0f}" '
        f'text-anchor="end">t={_fmt(last)}</text>'
    )
    parts.append(
        f'<text class="cap" x="{_LEFT}" y="{y + 40:.0f}">'
        f"axis is banded: gap width is set by floor(log_{axis.base} gap), "
        "not by the gap itself</text>"
    )
    return parts


def _legend_parts(tags: list[str], y: float) -> list[str]:
    parts = []
    x = float(_LEFT)
    for tag in tags:
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.0f}" width="12" height="12" '
            f'fill="{_color(tag)}" stroke="#333" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{x + 16:.1f}" y="{y + 10:.0f}">{_escape(tag)}</text>'
        )
        x += 24 + 7 * len(tag)
    return parts


def _job_rect(x0, x1, y0, y1, fill, label) -> list[str]:
    parts = [
        f'<rect class="job" x="{x0:.1f}" y="{y0:.1f}" '
        f'width="{max(x1 - x0, 1.0):.1f}" height="{y1 - y0:.1f}" '
        f'fill="{fill}"/>'
    ]
    if x1 - x0 >= _LABEL_MIN:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{(y0 + y1) / 2 + 4:.1f}" '
            f'text-anchor="middle">{_escape(label)}</text>'
        )
    return parts


def _figure(
    inst: SchedulingInstance,
    heading: str,
    rows: list[str],
    axis: _Axis,
    boxes: list[str],
) -> str:
    """The frame both pictures share: heading, one labelled and ruled row
    per label in `rows` (top to bottom), the boxes, the axis, and a legend
    of the instance's tags."""
    rows_bottom = _TOP + len(rows) * _ROW
    parts = [f'<text x="{_LEFT}" y="20">{heading}</text>']
    for k, label in enumerate(rows):
        y = _TOP + k * _ROW
        parts.append(f'<text x="8" y="{y + _ROW / 2 + 4:.0f}">{label}</text>')
        parts.append(
            f'<line x1="{_LEFT}" y1="{y + _ROW:.0f}" x2="{axis.right:.0f}" '
            f'y2="{y + _ROW:.0f}" stroke="#ddd"/>'
        )
    parts.extend(boxes)
    parts.extend(_axis_parts(axis, rows_bottom + 8))
    tags = sorted({j.tag for j in inst.jobs})
    parts.extend(_legend_parts(tags, rows_bottom + 62))
    return _svg(parts, axis.right + 24, rows_bottom + 92)


def render_schedule_svg(inst: SchedulingInstance, sched: Schedule) -> str:
    """Gantt chart: one row per machine, one rectangle per machine-slice."""
    if inst.m > _MAX_ROWS:
        raise InvalidInput(f"{inst.m} machines are more rows than a figure holds")
    _check_job_universe(inst, sched)
    base = inst.D if inst.D >= 2 else 10
    times = [0]
    for job in inst.jobs:
        times.append(sched.starts[job.id])
        times.append(sched.starts[job.id] + job.p)
    axis = _Axis(times, base)

    boxes = []
    for job in sorted(inst.jobs, key=lambda j: (sched.starts[j.id], j.id)):
        x0 = axis.pos(sched.starts[job.id])
        x1 = axis.pos(sched.starts[job.id] + job.p)
        for m in sched.machines[job.id]:
            y = _TOP + (m - 1) * _ROW
            boxes.extend(_job_rect(x0, x1, y + 3, y + _ROW - 3, _color(job.tag), job.id))

    heading = (
        f"schedule: {len(inst.jobs)} jobs on {inst.m} machines, "
        f"span {_fmt(axis.ticks[-1] - axis.ticks[0])}"
    )
    rows = [f"M{m}" for m in range(1, inst.m + 1)]
    return _figure(inst, heading, rows, axis, boxes)


def render_packing_svg(inst: SchedulingInstance, packing: Packing) -> str:
    """Strip picture: x is the banded width axis, y counts machine lanes."""
    _check_item_universe(inst, packing)
    base = inst.D if inst.D >= 2 else 10
    times = [0, inst.W]
    for job in inst.jobs:
        # integral ticks around the item, which may lie at a fractional x
        x = packing.positions[job.id][0]
        times.append(floor(x))
        times.append(ceil(x + job.p))
    axis = _Axis(times, base)

    tops = [packing.positions[job.id][1] + job.q for job in inst.jobs]
    height_units = ceil(max([*tops, 1]))
    if height_units > _MAX_ROWS:
        raise InvalidInput(f"height {height_units} is more rows than a figure holds")
    for job in inst.jobs:
        if packing.positions[job.id][1] < 0:
            raise InvalidInput(f"item {job.id!r} lies below every row a figure holds")
    boxes = []
    for job in sorted(inst.jobs, key=lambda j: (packing.positions[j.id][0], j.id)):
        x, y = packing.positions[job.id]
        x0 = axis.pos(x)
        x1 = axis.pos(x + job.p)
        # flip so y=0 sits at the bottom like the packing convention
        top = _TOP + (height_units - float(y) - job.q) * _ROW
        boxes.extend(
            _job_rect(x0, x1, top + 3, top + job.q * _ROW - 3, _color(job.tag), job.id)
        )

    heading = (
        f"packing: {len(inst.jobs)} items, strip width {_fmt(inst.W)}, "
        f"height {height_units}"
    )
    rows = [f"y={y}" for y in range(height_units - 1, -1, -1)]
    return _figure(inst, heading, rows, axis, boxes)
