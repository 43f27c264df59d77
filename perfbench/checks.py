"""Correctness checks computed in the benchmark's own code.

Nothing here calls into schedlab: the feasibility checker does not use
``validate_schedule``, the lower bound is recomputed from the task list, and
instance ids are recomputed from the raw JSON lines. Every check returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def lower_bound(instance) -> int:
    """Largest of: the longest job, the most loaded machine, the most loaded tool.

    Only tasks with a single eligible machine count towards machine load.
    """
    job_len: dict[int, int] = {}
    machine_load: dict[int, int] = {}
    tool_load: dict[int, int] = {}
    for task in instance.tasks:
        p = task.processing_time
        job_len[task.job_id] = job_len.get(task.job_id, 0) + p
        if len(task.eligible_machines) == 1:
            m = task.eligible_machines[0]
            machine_load[m] = machine_load.get(m, 0) + p
        if task.tool is not None:
            tool_load[task.tool] = tool_load.get(task.tool, 0) + p
    return max([*job_len.values(), *machine_load.values(), *tool_load.values()])


def total_processing_time(instance) -> int:
    return sum(task.processing_time for task in instance.tasks)


def check_schedule(instance, placements, makespan: int) -> list[str]:
    """Feasibility of a complete schedule and the claimed makespan.

    ``placements`` are objects with ``job_id, op_index, machine, start, end,
    tool``. Checks that every task is placed once with its own duration, on an
    eligible machine and with its own tool, after its job predecessor ends,
    with no overlap on any machine or tool; that ``makespan`` is the last end;
    and that it is at least ``lower_bound``.
    """
    errors: list[str] = []
    tasks = {(t.job_id, t.op_index): t for t in instance.tasks}
    placed: dict[tuple[int, int], object] = {}
    for pl in placements:
        key = (pl.job_id, pl.op_index)
        if key in placed:
            errors.append(f"task {key} placed twice")
        placed[key] = pl
    missing = sorted(set(tasks) - set(placed))
    extra = sorted(set(placed) - set(tasks))
    if missing:
        errors.append(f"tasks not placed: {missing[:5]}")
    if extra:
        errors.append(f"placements for unknown tasks: {extra[:5]}")

    by_machine: dict[int, list] = {}
    by_tool: dict[int, list] = {}
    for key, pl in placed.items():
        task = tasks.get(key)
        if task is None:
            continue
        if pl.start < 0:
            errors.append(f"task {key} starts at {pl.start} < 0")
        if pl.end - pl.start != task.processing_time:
            errors.append(
                f"task {key} lasts {pl.end - pl.start}, processing time is {task.processing_time}"
            )
        if pl.machine not in task.eligible_machines:
            errors.append(f"task {key} on machine {pl.machine}, eligible {task.eligible_machines}")
        if pl.tool != task.tool:
            errors.append(f"task {key} holds tool {pl.tool}, needs {task.tool}")
        prev = placed.get((key[0], key[1] - 1)) if key[1] > 0 else None
        if prev is not None and pl.start < prev.end:
            errors.append(f"task {key} starts at {pl.start} before its predecessor ends at {prev.end}")
        by_machine.setdefault(pl.machine, []).append(pl)
        if task.tool is not None:
            by_tool.setdefault(task.tool, []).append(pl)

    for kind, groups in (("machine", by_machine), ("tool", by_tool)):
        for resource, group in groups.items():
            group.sort(key=lambda p: (p.start, p.end))
            for a, b in zip(group, group[1:]):
                if b.start < a.end:
                    errors.append(
                        f"{kind} {resource}: [{a.start},{a.end}) overlaps [{b.start},{b.end})"
                    )

    last_end = max((pl.end for pl in placed.values()), default=0)
    if makespan != last_end:
        errors.append(f"makespan {makespan} is not the last end {last_end}")
    lb = lower_bound(instance)
    if makespan < lb:
        errors.append(f"makespan {makespan} below the lower bound {lb}")
    return errors


def check_return(instance, makespan: int, episode_return: float) -> list[str]:
    """Reward telescoping: an episode's return is -makespan / total processing time."""
    expected = -makespan / total_processing_time(instance)
    if not math.isclose(episode_return, expected, rel_tol=1e-9, abs_tol=1e-12):
        return [f"return {episode_return!r} != -makespan/UB {expected!r}"]
    return []


def check_optimum(instance_id: str, makespan: int, reference: dict[str, int]) -> list[str]:
    if instance_id not in reference:
        return [f"no reference optimum for {instance_id[:12]}"]
    if makespan != reference[instance_id]:
        return [f"{instance_id[:12]}: makespan {makespan} != reference optimum {reference[instance_id]}"]
    return []


def canonical_digest(record: dict) -> str:
    """SHA-256 of an instance record without its id and solver annotation."""
    content = {k: v for k, v in record.items() if k not in ("id", "optimal_makespan", "proof_status")}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def check_instance_file(path: Path) -> tuple[list[str], dict[str, int]]:
    """Ids equal recomputed digests and every instance is annotated optimal.

    Returns the errors and the annotated optimum per instance id.
    """
    errors: list[str] = []
    optima: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("id") != canonical_digest(record):
            errors.append(f"{path.name}:{lineno}: id is not the digest of the content")
        if record.get("proof_status") != "optimal" or "optimal_makespan" not in record:
            errors.append(f"{path.name}:{lineno}: not annotated optimal")
        else:
            optima[record["id"]] = int(record["optimal_makespan"])
    return errors, optima


def check_eval_csv(path: Path, optima: dict[str, int], expected_rows: int) -> tuple[list[str], list[dict]]:
    """The evaluation CSV against the annotated optima of the test split.

    Each ``solver`` row equals the annotation, no row beats it, each gap is
    (C - C*) / C*, and the row count is as expected. Returns the errors and
    the rows.
    """
    errors: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        errors.append(f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows, start=2):
        opt = optima.get(row["instance_id"])
        if opt is None:
            errors.append(f"{path.name}:{i}: instance {row['instance_id'][:12]} not in the test split")
            continue
        makespan = float(row["makespan"])
        if row["method"] == "solver" and makespan != opt:
            errors.append(f"{path.name}:{i}: solver makespan {makespan} != annotation {opt}")
        if makespan < opt:
            errors.append(f"{path.name}:{i}: {row['method']} makespan {makespan} beats the optimum {opt}")
        gap = float(row["gap"]) if row["gap"] else None
        if gap is None or not math.isclose(gap, (makespan - opt) / opt, rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"{path.name}:{i}: gap {row['gap']!r} != (C - C*)/C*")
    return errors, rows
