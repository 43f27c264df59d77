"""Partial schedules with per-resource busy timelines and earliest-gap placement.

All intervals are half-open ``[start, end)`` over integer time, so a task
ending at t never conflicts with one starting at t. Placement never moves an
existing interval; the earliest feasible start may fall into an idle gap
between existing intervals (gap insertion).

A Schedule is a single-owner mutable value that only grows: ``place_task``
is its only mutation, so no placement or interval ever leaves it. Its one
list of timelines, machine m at index m and tool t at ``num_machines + t``,
is private; ``busy()`` hands out tuple copies of their intervals in that
order, so no caller can add or remove an interval around ``place_task``.
Each job's next op and ready time are private too, and the read-only
``next_op`` and ``job_ready`` hand out tuple copies, so no caller can move
them around the op-order and ready-time checks. ``placements`` is a
read-only view of the record, so no caller can drop or rewrite a placement
behind ``complete`` and ``validate_schedule``. The environment and the
dispatching rules build schedules through ``place_task``, which preserves
every invariant by construction and is the one place that checks a
placement. The solver and ``permutation_oracle`` search on timelines of
their own through the shared ``earliest_start``, adding and removing
intervals unchecked; replaying the solver's result through ``place_task``
checks it. ``validate_schedule`` re-derives the invariants from the
placements alone and is the independent check used by tests, the evaluation
harness and the Gantt renderer.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import ConstraintViolationError, InternalError, MalformedRecordError, check_round_trip
from .files import read_json, write_text
from .instances import Instance, Task

VIOLATION_PRECEDENCE = "precedence"
VIOLATION_MACHINE_OVERLAP = "machine-overlap"
VIOLATION_TOOL_OVERLAP = "tool-overlap"
VIOLATION_ELIGIBILITY = "eligibility"
VIOLATION_NEGATIVE_TIME = "negative-time"
VIOLATION_DURATION = "duration"
VIOLATION_HEADER = "header"


class Placement(NamedTuple):
    """One placed task: ``[start, end)`` on ``machine``, and on ``tool`` if any.

    Immutable and hashable, built by keyword or by position in this field
    order. A named tuple rather than a frozen dataclass because every env
    step builds one, and a tuple is built in a fraction of the time.
    """

    job_id: int
    op_index: int
    machine: int
    start: int
    end: int
    tool: int | None = None


@dataclass(frozen=True)
class Violation:
    kind: str
    tasks: tuple[tuple[int, int], ...]
    detail: str


class Timeline:
    """Sorted disjoint busy intervals on one resource.

    Touching intervals ([0,3) next to [3,5)) stay separate so that removal by
    exact interval remains possible for the backtracking of the solver and
    ``permutation_oracle``.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []

    def columns(self) -> tuple[list[int], list[int]]:
        """The sorted start and end lists themselves, not copies; read only."""
        return self._starts, self._ends

    def earliest_fit(self, t: int, duration: int) -> int:
        """Smallest t' >= t such that [t', t'+duration) is idle."""
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, t) - 1
        if i >= 0 and ends[i] > t:
            t = ends[i]
        i += 1
        n = len(starts)
        while i < n and starts[i] < t + duration:
            t = ends[i]
            i += 1
        return t

    def first_conflict(self, start: int, end: int) -> tuple[int, int] | None:
        """Return the earliest busy interval overlapping [start, end), if any."""
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, start) - 1
        if i >= 0 and ends[i] > start:
            return (starts[i], ends[i])
        i += 1
        if i < len(starts) and starts[i] < end:
            return (starts[i], ends[i])
        return None

    def add(self, start: int, end: int) -> None:
        """Insert [start, end) unchecked; the caller has found it idle."""
        i = bisect_right(self._starts, start)
        self._starts.insert(i, start)
        self._ends.insert(i, end)

    def remove(self, start: int, end: int) -> None:
        i = bisect_right(self._starts, start) - 1
        if i < 0 or self._starts[i] != start or self._ends[i] != end:
            raise InternalError(f"interval [{start},{end}) not present")
        del self._starts[i]
        del self._ends[i]


def earliest_start(machine_tl: Timeline, tool_tl: Timeline | None, ready: int, p: int) -> int:
    """Earliest t >= ready with [t, t+p) idle on the machine and, if any, the tool.

    Alternates between the two timelines until a start fits both; each pass
    only pushes t later, so this terminates.
    """
    t = machine_tl.earliest_fit(ready, p)
    if tool_tl is None:
        return t
    while True:
        t2 = tool_tl.earliest_fit(t, p)
        if t2 == t:
            return t
        t = machine_tl.earliest_fit(t2, p)
        if t == t2:
            return t


def _busy_error(kind: str, r: int, conflict: tuple[int, int], start: int, end: int):
    """The error for ``[start, end)`` overlapping ``conflict`` on resource ``kind r``."""
    return ConstraintViolationError(
        f"{kind} {r} busy on [{conflict[0]},{conflict[1]}) conflicts with [{start},{end})",
        resource=f"{kind} {r}",
        interval=conflict,
    )


class Schedule:
    """Partial assignment of tasks to (machine, start, end)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self._placements: dict[tuple[int, int], Placement] = {}
        self._timelines = [Timeline() for _ in range(instance.num_machines + instance.num_tools)]
        self._job_ready = [0] * instance.num_jobs
        self._next_op = [0] * instance.num_jobs
        self._makespan = 0

    @property
    def makespan(self) -> int:
        return self._makespan

    @property
    def next_op(self) -> tuple[int, ...]:
        """Per job, the op index of its next unplaced task (``tasks_per_job`` once done)."""
        return tuple(self._next_op)

    @property
    def job_ready(self) -> tuple[int, ...]:
        """Per job, the end of its last placed task (0 before its first)."""
        return tuple(self._job_ready)

    @property
    def placements(self) -> Mapping[tuple[int, int], Placement]:
        """Per (job, op), its placement: a read-only view of the live record."""
        return MappingProxyType(self._placements)

    @property
    def complete(self) -> bool:
        return len(self._placements) == self.instance.num_tasks

    def busy(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per resource, machine m at m and tool t at ``num_machines + t``: copies
        of the sorted (starts, ends) of its busy intervals."""
        return tuple(tuple(map(tuple, tl.columns())) for tl in self._timelines)

    def _check_next_op(self, task: Task) -> None:
        expected = self._next_op[task.job_id]
        if task.op_index != expected:
            raise ConstraintViolationError(
                f"task ({task.job_id},{task.op_index}) is not the next unscheduled op "
                f"of job {task.job_id} (expected op {expected})",
                resource=f"job {task.job_id}",
            )

    def best_machine(self, task: Task) -> tuple[int, int]:
        """(machine, start) minimizing the earliest feasible start; ties to the lowest id."""
        self._check_next_op(task)
        p = task.processing_time
        tool_tl = self._timelines[self.instance.num_machines + task.tool] if task.tool is not None else None
        ready = self._job_ready[task.job_id]
        best: tuple[int, int] | None = None
        for m in task.eligible_machines:
            start = earliest_start(self._timelines[m], tool_tl, ready, p)
            if best is None or start < best[1]:
                best = (m, start)
        assert best is not None  # eligible_machines is non-empty
        return best

    def place_task(self, task: Task, machine: int, start: int) -> Placement:
        """Place a task at a feasible start, updating all bookkeeping.

        Accepts any feasible start (interval idle on machine and tool, start at
        or after the job's ready time). The environment passes the earliest
        one; the solver's replay passes the starts its own search found.
        """
        job, tool = task.job_id, task.tool
        self._check_next_op(task)
        if machine not in task.eligible_machines:
            raise ConstraintViolationError(
                f"machine {machine} not eligible for task ({job},{task.op_index})",
                resource=f"machine {machine}",
            )
        if start < 0:
            raise ConstraintViolationError(f"negative start {start}", resource=f"machine {machine}")
        ready = self._job_ready[job]
        if start < ready:
            raise ConstraintViolationError(
                f"start {start} precedes job {job} ready time {ready}", resource=f"job {job}"
            )
        end = start + task.processing_time
        machine_tl = self._timelines[machine]
        conflict = machine_tl.first_conflict(start, end)
        if conflict is not None:
            raise _busy_error("machine", machine, conflict, start, end)
        if tool is not None:
            tool_tl = self._timelines[self.instance.num_machines + tool]
            conflict = tool_tl.first_conflict(start, end)
            if conflict is not None:
                raise _busy_error("tool", tool, conflict, start, end)
            tool_tl.add(start, end)
        machine_tl.add(start, end)
        placement = Placement(job, task.op_index, machine, start, end, tool)
        self._placements[(job, task.op_index)] = placement
        self._job_ready[job] = end
        self._next_op[job] += 1
        if end > self._makespan:
            self._makespan = end
        return placement


def validate_schedule(schedule: Schedule | ScheduleRecord) -> list[Violation]:
    """Recompute every schedule invariant from the placements alone.

    Ignores the incremental timelines on purpose: it is the independent check
    that the bookkeeping kept by place_task is faithful. A Schedule brings its
    instance, which adds the eligibility, exact-duration and
    unplaced-predecessor checks; a bare ScheduleRecord needs each interval to
    be non-empty and its header to agree with its placements: machines and
    jobs in range, no (job, op) twice, and a makespan no earlier than the
    last end. Violations are reported exhaustively, not fail-fast.
    """
    if isinstance(schedule, Schedule):
        instance, by_key = schedule.instance, schedule.placements
        placements = by_key.values()
        tasks, n_ops = instance.tasks, instance.tasks_per_job
    else:
        instance, placements = None, schedule.placements
        by_key = {(p.job_id, p.op_index): p for p in placements}
    violations: list[Violation] = []
    groups: dict[tuple[int, int], list[Placement]] = {}  # (0, machine) or (1, tool)
    seen: set[tuple[int, int]] = set()

    def header(key: tuple[int, int], detail: str) -> None:
        violations.append(Violation(VIOLATION_HEADER, (key,), f"placement {key}: {detail}"))

    for pl in placements:
        job, op = pl.job_id, pl.op_index
        if pl.start < 0:
            violations.append(
                Violation(VIOLATION_NEGATIVE_TIME, ((job, op),), f"start {pl.start} < 0")
            )
        if instance is None:
            if not 0 <= pl.machine < schedule.num_machines:
                header((job, op), f"machine {pl.machine} outside num_machines {schedule.num_machines}")
            if not 0 <= job < schedule.num_jobs:
                header((job, op), f"job {job} outside num_jobs {schedule.num_jobs}")
            if (job, op) in seen:
                header((job, op), "(job, op) placed twice")
            seen.add((job, op))
            if pl.end <= pl.start:
                violations.append(
                    Violation(VIOLATION_DURATION, ((job, op),), f"empty interval [{pl.start},{pl.end})")
                )
        else:
            task = tasks[job * n_ops + op]
            if pl.machine not in task.eligible_machines:
                violations.append(
                    Violation(
                        VIOLATION_ELIGIBILITY,
                        ((job, op),),
                        f"machine {pl.machine} not in eligible set {task.eligible_machines}",
                    )
                )
            if pl.end - pl.start != task.processing_time:
                violations.append(
                    Violation(
                        VIOLATION_DURATION,
                        ((job, op),),
                        f"duration {pl.end - pl.start} != processing_time {task.processing_time}",
                    )
                )
        if op > 0:
            prev = by_key.get((job, op - 1))
            if prev is None:
                if instance is not None:
                    violations.append(
                        Violation(VIOLATION_PRECEDENCE, ((job, op),), f"op {op - 1} of job {job} unplaced")
                    )
            elif pl.start < prev.end:
                violations.append(
                    Violation(
                        VIOLATION_PRECEDENCE,
                        ((job, op - 1), (job, op)),
                        f"op {op} starts at {pl.start} before op {op - 1} ends at {prev.end}",
                    )
                )
        groups.setdefault((0, pl.machine), []).append(pl)
        if pl.tool is not None:
            groups.setdefault((1, pl.tool), []).append(pl)

    kinds = ((VIOLATION_MACHINE_OVERLAP, "machine"), (VIOLATION_TOOL_OVERLAP, "tool"))
    for (is_tool, r), group in sorted(groups.items()):
        kind, resource = kinds[is_tool]
        group = sorted(group, key=attrgetter("start", "end"))
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                violations.append(
                    Violation(
                        kind,
                        ((a.job_id, a.op_index), (b.job_id, b.op_index)),
                        f"{resource} {r}: [{a.start},{a.end}) overlaps [{b.start},{b.end})",
                    )
                )
    if instance is None:
        last_end = max((p.end for p in placements), default=0)
        if schedule.makespan < last_end:
            violations.append(
                Violation(VIOLATION_HEADER, (), f"makespan {schedule.makespan} below the last end {last_end}")
            )
    return violations


# ---------------------------------------------------------------------------
# Schedule export: consumed by the Gantt renderer and the evaluation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleRecord:
    """Serializable view of a schedule, sufficient to render or re-check it."""

    instance_id: str
    num_jobs: int
    num_machines: int
    makespan: int
    placements: tuple[Placement, ...]


def schedule_to_record(schedule: Schedule) -> ScheduleRecord:
    """The record of a schedule; its makespan is the last end of the placements
    it carries, which is ``schedule.makespan`` for any schedule built by
    ``place_task``."""
    ordered = sorted(schedule.placements.values(), key=lambda p: (p.job_id, p.op_index))
    return ScheduleRecord(
        instance_id=schedule.instance.id,
        num_jobs=schedule.instance.num_jobs,
        num_machines=schedule.instance.num_machines,
        makespan=max((p.end for p in ordered), default=0),
        placements=tuple(ordered),
    )


def record_to_dict(record: ScheduleRecord) -> dict:
    return {
        "instance_id": record.instance_id,
        "num_jobs": record.num_jobs,
        "num_machines": record.num_machines,
        "makespan": record.makespan,
        "placements": [
            {
                "job": p.job_id,
                "op": p.op_index,
                "machine": p.machine,
                "start": p.start,
                "end": p.end,
                **({"tool": p.tool} if p.tool is not None else {}),
            }
            for p in record.placements
        ],
    }


def record_from_dict(data: dict) -> ScheduleRecord:
    """The record a dict holds; the dict must be exactly its ``record_to_dict``."""
    try:
        placements = tuple(
            Placement(
                job_id=int(p["job"]),
                op_index=int(p["op"]),
                machine=int(p["machine"]),
                start=int(p["start"]),
                end=int(p["end"]),
                tool=int(p["tool"]) if "tool" in p else None,
            )
            for p in data["placements"]
        )
        record = ScheduleRecord(
            instance_id=str(data["instance_id"]),
            num_jobs=int(data["num_jobs"]),
            num_machines=int(data["num_machines"]),
            makespan=int(data["makespan"]),
            placements=placements,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f"bad schedule record: {exc!r}") from exc
    check_round_trip(data, record_to_dict(record), "schedule")
    # the header must agree with the placements, or a chart drawn from it is wrong
    header = [v for v in validate_schedule(record) if v.kind == VIOLATION_HEADER]
    if header:
        raise MalformedRecordError(header[0].detail)
    return record


def write_schedule(record: ScheduleRecord | Schedule, path: str | Path) -> None:
    if isinstance(record, Schedule):
        record = schedule_to_record(record)
    write_text(path, json.dumps(record_to_dict(record), sort_keys=True, indent=1) + "\n")


def read_schedule(path: str | Path) -> ScheduleRecord:
    return record_from_dict(read_json(path, MalformedRecordError))
