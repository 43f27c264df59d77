import re
import xml.etree.ElementTree as ET

import pytest

from schedlab.env import RewardMode, SchedulingEnv, reset, step
from schedlab.errors import InvalidScheduleError
from schedlab.gantt import job_color, render_svg
from schedlab.instances import generate_instance
from schedlab.schedule import Placement, Schedule, ScheduleRecord, schedule_to_record

from conftest import build_instance, jssp_config

SVG_NS = "{http://www.w3.org/2000/svg}"


def complete_schedule(cfg_seed=42, num_jobs=6, tasks_per_job=6, num_machines=6,
                      with_tools=False, num_tools=0):
    inst = generate_instance(
        jssp_config(num_jobs=num_jobs, tasks_per_job=tasks_per_job,
                    num_machines=num_machines, seed=cfg_seed,
                    with_tools=with_tools, num_tools=num_tools),
        0,
    )
    env = SchedulingEnv(inst, RewardMode.DENSE_MAKESPAN_DELTA)
    _, mask = reset(env)
    j = 0
    while mask.any():
        if not mask[j % inst.num_jobs]:
            j += 1
            continue
        result = step(env, j % inst.num_jobs)
        mask = result.mask
        j += 1
    return env.schedule


def svg_rects(svg, cls="bar"):
    root = ET.fromstring(svg)
    return [r for r in root.iter(f"{SVG_NS}rect") if r.get("class") == cls]


def test_empty_schedule_renders_rows_only():
    inst = build_instance([[(0, 3, None)], [(1, 2, None)]], num_machines=2)
    svg = render_svg(Schedule(inst))
    root = ET.fromstring(svg)  # well-formed
    assert len(svg_rects(svg, "bar")) == 0
    assert len(svg_rects(svg, "row")) == 2
    assert root.tag == f"{SVG_NS}svg"


def test_complete_6x6_chart():
    schedule = complete_schedule()
    svg = render_svg(schedule)
    bars = svg_rects(svg)
    assert len(bars) == 36
    fills = {b.get("fill") for b in bars}
    assert len(fills) == 6
    assert svg.count("<text") >= 36  # labels plus axis ticks


def test_labels_carry_runtime_and_tool():
    schedule = complete_schedule(num_jobs=2, tasks_per_job=2, num_machines=2,
                                 with_tools=True, num_tools=2)
    svg = render_svg(schedule)
    assert re.search(r"J\d\.\d p=\d+ t=\d", svg)


def test_byte_identical_output():
    schedule = complete_schedule()
    assert render_svg(schedule) == render_svg(schedule)


def test_rows_have_disjoint_bar_extents():
    schedule = complete_schedule(cfg_seed=7)
    svg = render_svg(schedule)
    by_row = {}
    for bar in svg_rects(svg):
        x = float(bar.get("x"))
        w = float(bar.get("width"))
        y = bar.get("y")
        by_row.setdefault(y, []).append((x, x + w))
    for spans in by_row.values():
        spans.sort()
        for (a1, a2), (b1, b2) in zip(spans, spans[1:]):
            assert b1 >= a2 - 0.021  # coordinates carry two rounding quanta


def test_affine_time_mapping_and_axis_extent():
    schedule = complete_schedule(cfg_seed=9, num_jobs=3, tasks_per_job=3, num_machines=3)
    record = schedule_to_record(schedule)
    svg = render_svg(record)
    root = ET.fromstring(svg)
    axis = [l for l in root.iter(f"{SVG_NS}line") if l.get("class") == "axis"][0]
    x_margin = float(axis.get("x1"))
    x_end = float(axis.get("x2"))
    scale = (x_end - x_margin) / record.makespan
    # every bar must satisfy x = margin + start * scale
    placements = {(p.job_id, p.op_index): p for p in record.placements}
    bars = svg_rects(svg)
    assert len(bars) == len(placements)
    starts = sorted(p.start for p in record.placements)
    xs = sorted(float(b.get("x")) for b in bars)
    for x, s in zip(xs, starts):
        assert x == pytest.approx(x_margin + s * scale, abs=0.51)


def test_invalid_schedule_refused():
    record = ScheduleRecord(
        instance_id="x", num_jobs=1, num_machines=1, makespan=4,
        placements=(
            Placement(0, 0, 0, 0, 3),
            Placement(0, 1, 0, 2, 4),  # overlaps on machine 0 and precedence
        ),
    )
    with pytest.raises(InvalidScheduleError) as exc:
        render_svg(record)
    assert exc.value.violations


def test_refuses_record_whose_header_contradicts_placements():
    # one job on two machines, yet both bars sit on machine 5, (0, 0) is
    # placed twice and the second bar ends after the makespan
    record = ScheduleRecord(
        "x", 1, 2, 3, (Placement(0, 0, 5, 0, 3), Placement(0, 0, 5, 3, 6))
    )
    with pytest.raises(InvalidScheduleError) as exc:
        render_svg(record)
    assert [v.detail for v in exc.value.violations] == [
        "placement (0, 0): machine 5 outside num_machines 2",
        "placement (0, 0): machine 5 outside num_machines 2",
        "placement (0, 0): (job, op) placed twice",
        "makespan 3 below the last end 6",
    ]
    assert {v.kind for v in exc.value.violations} == {"header"}


def test_renders_up_to_8x8():
    schedule = complete_schedule(cfg_seed=11, num_jobs=8, tasks_per_job=8, num_machines=8)
    svg = render_svg(schedule)
    assert len(svg_rects(svg)) == 64
    fills = {b.get("fill") for b in svg_rects(svg)}
    assert len(fills) == 8


def test_job_colors_distinct():
    colors = {job_color(j, 8) for j in range(8)}
    assert len(colors) == 8
