"""Static SVG Gantt charts: one row per machine, one rectangle per placement.

Output is deterministic (no timestamps, no randomness), so the same schedule
always renders to byte-identical SVG. Job colors are evenly spaced hues;
labels carry the task identity, runtime and, when present, the required
tool. Readable up to roughly 8x8; larger schedules still render but labels
start to crowd.
"""

from __future__ import annotations

from .errors import InvalidScheduleError
from .schedule import Schedule, ScheduleRecord, schedule_to_record, validate_schedule

_WIDTH = 900
_ROW_HEIGHT = 30
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 16
_AXIS_HEIGHT = 34


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def job_color(job_id: int, num_jobs: int) -> str:
    hue = round(job_id * 360.0 / max(num_jobs, 1), 2)
    return f"hsl({_fmt(hue)},65%,55%)"


def _tick_step(makespan: int) -> int:
    # 1-2-5 progression, at most ~25 ticks
    step, k = 1, 0
    while makespan // step > 25:
        k += 1
        step = (1, 2, 5)[k % 3] * 10 ** (k // 3)
    return step


def render_svg(schedule: Schedule | ScheduleRecord) -> str:
    """Render a (possibly partial) schedule. Refuses invalid input."""
    violations = validate_schedule(schedule)
    if violations:
        first = violations[0]
        raise InvalidScheduleError(
            f"cannot render invalid schedule: {first.kind}: {first.detail}", violations
        )
    record = schedule_to_record(schedule) if isinstance(schedule, Schedule) else schedule

    n_machines = record.num_machines
    span = max(record.makespan, 1)
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    scale = plot_width / span
    height = _MARGIN_TOP + n_machines * _ROW_HEIGHT + _AXIS_HEIGHT

    def x_of(t: int) -> float:
        return _MARGIN_LEFT + t * scale

    def y_of(machine: int) -> float:
        return _MARGIN_TOP + machine * _ROW_HEIGHT

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">'
    )
    parts.append(
        '<style>text{font-family:monospace;font-size:10px}.row{fill:none;stroke:#ddd}'
        ".bar{stroke:#333;stroke-width:0.5}.tick{stroke:#666}.axis{stroke:#000}</style>"
    )

    for m in range(n_machines):
        y = y_of(m)
        parts.append(
            f'<rect class="row" x="{_MARGIN_LEFT}" y="{_fmt(y)}" '
            f'width="{plot_width}" height="{_ROW_HEIGHT}"/>'
        )
        parts.append(f'<text x="4" y="{_fmt(y + _ROW_HEIGHT / 2 + 3)}">M{m}</text>')

    bar_pad = 3
    bar_height = _ROW_HEIGHT - 2 * bar_pad
    for pl in sorted(record.placements, key=lambda p: (p.machine, p.start)):
        x = x_of(pl.start)
        w = (pl.end - pl.start) * scale
        y = y_of(pl.machine) + bar_pad
        color = job_color(pl.job_id, record.num_jobs)
        parts.append(
            f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{bar_height}" fill="{color}"/>'
        )
        label = f"J{pl.job_id}.{pl.op_index} p={pl.end - pl.start}"
        if pl.tool is not None:
            label += f" t={pl.tool}"
        parts.append(f'<text x="{_fmt(x + 2)}" y="{_fmt(y + bar_height / 2 + 3)}">{label}</text>')

    axis_y = _MARGIN_TOP + n_machines * _ROW_HEIGHT
    parts.append(
        f'<line class="axis" x1="{_MARGIN_LEFT}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(x_of(record.makespan))}" y2="{_fmt(axis_y)}"/>'
    )
    step = _tick_step(record.makespan)
    t = 0
    while t <= record.makespan:
        x = x_of(t)
        parts.append(
            f'<line class="tick" x1="{_fmt(x)}" y1="{_fmt(axis_y)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(axis_y + 5)}"/>'
        )
        parts.append(f'<text x="{_fmt(x - 3)}" y="{_fmt(axis_y + 17)}">{t}</text>')
        t += step
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
