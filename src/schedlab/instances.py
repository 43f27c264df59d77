"""Scheduling problem instances: seeded generation, serialization, digests.

An instance is an immutable description of a scheduling problem: ``num_jobs``
jobs, each an ordered chain of ``tasks_per_job`` tasks. Every task carries a
positive integer processing time, a non-empty set of eligible machines
(exactly one for JSSP) and, for tool-constrained problems, a required tool id.
``Instance.with_tools`` is derived, ``num_tools > 0``; instance records still
carry it, and a record whose flag disagrees with ``num_tools`` is rejected.

An instance checks itself when it is built (generated, read, by hand or by
``dataclasses.replace``), so a hand-built instance with a fault raises
MalformedRecordError before any env, trainer or solver sees it.

Instances are identified by a SHA-256 digest over their canonical JSON
serialization (sorted keys, compact separators, UTF-8), excluding the id
itself and any solver annotation, so the id is stable across platforms and
independent of whether an optimal makespan has been attached.

Randomness comes from numpy's Philox counter-based generator, keyed with
``seed XOR stream_index``. Philox is platform-independent and seedable, so
``generate_instance(config, i)`` is a pure function of ``(config.seed, i)``
and batches can be regenerated anywhere bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import MISSING, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DigestMismatchError,
    InstanceSetError,
    MalformedRecordError,
    bounded,
    check_fields,
    check_round_trip,
)
from .files import canonical_json, read_json_lines, write_text

GENERATOR_VERSION = 1

PROOF_OPTIMAL = "optimal"
PROOF_FEASIBLE = "feasible"


class ProblemType(str, Enum):
    JSSP = "jssp"
    FJSSP = "fjssp"


@dataclass(frozen=True)
class Task:
    """Atomic unit of an instance: one operation of one job."""

    job_id: int
    op_index: int
    eligible_machines: tuple[int, ...]
    processing_time: int
    tool: int | None = None


@dataclass(frozen=True)
class InstanceMeta:
    seed: int
    generator_version: int = GENERATOR_VERSION


@dataclass(frozen=True)
class Instance:
    """Immutable scheduling problem, valid by construction. ``tasks`` is ordered by (job_id, op_index)."""

    id: str
    problem_type: ProblemType
    num_jobs: int
    tasks_per_job: int
    num_machines: int
    num_tools: int
    tasks: tuple[Task, ...]
    meta: InstanceMeta
    optimal_makespan: int | None = None
    proof_status: str | None = None

    def __post_init__(self) -> None:
        validate_instance(self)

    def task(self, job_id: int, op_index: int) -> Task:
        return self.tasks[job_id * self.tasks_per_job + op_index]

    @property
    def with_tools(self) -> bool:
        return self.num_tools > 0

    @property
    def num_tasks(self) -> int:
        return self.num_jobs * self.tasks_per_job

    @property
    def total_processing_time(self) -> int:
        """Sum of all processing times; trivial upper bound on the makespan."""
        return sum(t.processing_time for t in self.tasks)

    @property
    def max_processing_time(self) -> int:
        return max(t.processing_time for t in self.tasks)

    def annotated(self, optimal_makespan: int, proof_status: str) -> "Instance":
        """Return a copy carrying a solver annotation. The id is unchanged."""
        if proof_status not in (PROOF_OPTIMAL, PROOF_FEASIBLE):
            raise MalformedRecordError(f"bad proof_status {proof_status!r}")
        return dataclasses.replace(
            self, optimal_makespan=int(optimal_makespan), proof_status=proof_status
        )


@dataclass(frozen=True)
class GeneratorConfig:
    problem_type: ProblemType
    num_jobs: int = bounded(MISSING, 1)
    tasks_per_job: int = bounded(MISSING, 1)
    num_machines: int = bounded(MISSING, 1)
    runtime_lo: int = bounded(MISSING, 1)
    runtime_hi: int
    count: int = bounded(MISSING, 1)
    seed: int = bounded(MISSING, 0, 2**64 - 1)
    with_tools: bool = False
    num_tools: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.problem_type, ProblemType):
            raise ConfigurationError(f"problem_type: expected one of {[p.value for p in ProblemType]}")
        check_fields(self)
        if self.runtime_hi < self.runtime_lo:
            raise ConfigurationError(
                f"runtime_hi: must be >= runtime_lo ({self.runtime_lo}), got {self.runtime_hi}"
            )
        if self.with_tools and self.num_tools < 1:
            raise ConfigurationError(f"num_tools: must be >= 1 when with_tools, got {self.num_tools}")
        if not self.with_tools and self.num_tools != 0:
            raise ConfigurationError(f"num_tools: must be 0 when with_tools is false, got {self.num_tools}")


def _stream_rng(seed: int, stream_index: int) -> np.random.Generator:
    # Philox keyed directly: distinct stream indices give independent streams.
    return np.random.Generator(np.random.Philox(key=seed ^ stream_index))


def generate_instance(config: GeneratorConfig, stream_index: int) -> Instance:
    """Generate one instance deterministically from (config.seed, stream_index).

    Runtimes are i.i.d. uniform integers on [runtime_lo, runtime_hi]. JSSP with
    tasks_per_job == num_machines assigns each job a uniform random machine
    permutation (the classic one-visit-per-machine convention); otherwise each
    task's machine is drawn uniformly. FJSSP draws an eligible-set size
    uniformly from 1..M, then a uniform subset of that size. Tool-constrained
    instances draw each task's tool uniformly from 0..num_tools-1.

    Draw order (runtimes, machines, tools) is fixed and covered by
    ``meta.generator_version``.
    """
    if not (0 <= stream_index < config.count):
        raise ConfigurationError(
            f"stream_index: must be in [0, count={config.count}), got {stream_index}"
        )
    rng = _stream_rng(config.seed, stream_index)
    n_jobs, n_ops, n_machines = config.num_jobs, config.tasks_per_job, config.num_machines
    n_tasks = n_jobs * n_ops

    runtimes = rng.integers(config.runtime_lo, config.runtime_hi + 1, size=n_tasks).tolist()

    eligible: list[tuple[int, ...]] = []
    if config.problem_type is ProblemType.JSSP:
        if n_ops == n_machines:
            for _ in range(n_jobs):
                eligible.extend((int(m),) for m in rng.permutation(n_machines))
        else:
            eligible = [(int(m),) for m in rng.integers(0, n_machines, size=n_tasks)]
    else:
        for _ in range(n_tasks):
            size = int(rng.integers(1, n_machines + 1))
            subset = rng.choice(n_machines, size=size, replace=False)
            eligible.append(tuple(sorted(int(m) for m in subset)))

    tools: list[int | None]
    if config.with_tools:
        tools = [int(t) for t in rng.integers(0, config.num_tools, size=n_tasks)]
    else:
        tools = [None] * n_tasks

    tasks = tuple(
        Task(i // n_ops, i % n_ops, machines, p, tool)
        for i, (machines, p, tool) in enumerate(zip(eligible, runtimes, tools))
    )
    content = dict(
        problem_type=config.problem_type,
        num_jobs=n_jobs,
        tasks_per_job=n_ops,
        num_machines=n_machines,
        num_tools=config.num_tools,
        tasks=tasks,
        meta=InstanceMeta(seed=config.seed),
    )
    return Instance(id=_content_digest(**content), **content)


def generate_batch(config: GeneratorConfig) -> list[Instance]:
    """Generate ``config.count`` instances for stream indices 0..count-1.

    Raises ConfigurationError if two streams give the same instance, which a
    config with too few distinct instances (one runtime, say) makes likely."""
    batch = [generate_instance(config, i) for i in range(config.count)]
    first: dict[str, int] = {}
    for i, inst in enumerate(batch):
        j = first.setdefault(inst.id, i)
        if j != i:
            raise ConfigurationError(
                f"streams {j} and {i} generate the same instance {inst.id[:12]}; "
                "widen the runtime range or the instance size, or lower count"
            )
    return batch


def check_instance_set(instances: Sequence[Instance], source: object = "instance set") -> None:
    """Raise InstanceSetError if the set is empty; ``source`` (a file path, say) starts the message."""
    if not instances:
        raise InstanceSetError(f"{source}: holds no instances")


# ---------------------------------------------------------------------------
# Canonical serialization and digests
# ---------------------------------------------------------------------------

def _task_record(task: Task) -> dict:
    rec = {
        "job": task.job_id,
        "op": task.op_index,
        "machines": list(task.eligible_machines),
        "p": task.processing_time,
    }
    if task.tool is not None:
        rec["tool"] = task.tool
    return rec


def _content_payload(*, problem_type, num_jobs, tasks_per_job, num_machines, num_tools, tasks, meta,
                     **_) -> dict:
    # Everything the digest covers: content fields only, so the id and annotation are dropped.
    return {
        "problem_type": problem_type.value,
        "with_tools": num_tools > 0,
        "num_jobs": num_jobs,
        "tasks_per_job": tasks_per_job,
        "num_machines": num_machines,
        "num_tools": num_tools,
        "tasks": [_task_record(t) for t in tasks],
        "meta": {"seed": meta.seed, "generator_version": meta.generator_version},
    }


def _fields(instance: Instance) -> dict:
    # getattr, not vars(): a materialized __dict__ slows every later attribute read
    return {field.name: getattr(instance, field.name) for field in dataclasses.fields(instance)}


def _content_digest(**content) -> str:
    return hashlib.sha256(canonical_json(_content_payload(**content)).encode("utf-8")).hexdigest()


def instance_digest(instance: Instance) -> str:
    """SHA-256 hex digest of the canonical content serialization.

    Excludes the stored id and any optimal-makespan annotation, so two
    structurally equal instances share a digest regardless of annotation.
    """
    return _content_digest(**_fields(instance))


def validate_instance(instance: Instance) -> None:
    """Raise MalformedRecordError on the first structural fault; ``Instance`` runs this when built."""
    def fault(detail: str) -> MalformedRecordError:
        return MalformedRecordError(f"instance {instance.id[:12]}: {detail}")

    for field in ("num_jobs", "tasks_per_job", "num_machines"):
        if getattr(instance, field) < 1:
            raise fault(f"{field} must be >= 1, got {getattr(instance, field)}")
    n_jobs, n_ops = instance.num_jobs, instance.tasks_per_job
    n_machines, n_tools = instance.num_machines, instance.num_tools
    if len(instance.tasks) != n_jobs * n_ops:
        raise fault(f"expected {n_jobs * n_ops} tasks, got {len(instance.tasks)}")
    jssp, with_tools = instance.problem_type is ProblemType.JSSP, instance.with_tools
    tasks = iter(instance.tasks)
    for job in range(n_jobs):
        for op in range(n_ops):
            task = next(tasks)
            if task.job_id != job or task.op_index != op:
                raise fault(f"task {job * n_ops + op} has (job={task.job_id}, op={task.op_index}), "
                            f"expected ({job}, {op})")
            if task.processing_time < 1:
                raise fault(f"task ({job},{op}) has processing_time {task.processing_time}")
            machines = task.eligible_machines
            if not machines:
                raise fault(f"task ({job},{op}) has no machines")
            if jssp and len(machines) != 1:
                raise fault(f"JSSP task ({job},{op}) has {len(machines)} eligible machines")
            if min(machines) < 0 or max(machines) >= n_machines:
                raise fault(f"task ({job},{op}) references machine out of range")
            if task.tool is None:
                if with_tools:
                    raise fault(f"with_tools instance but task ({job},{op}) has no tool")
            elif not 0 <= task.tool < n_tools:
                raise fault(f"task ({job},{op}) references tool {task.tool} out of range [0, {n_tools})")
    if instance.optimal_makespan is not None and instance.proof_status not in (PROOF_OPTIMAL, PROOF_FEASIBLE):
        raise fault("annotated makespan without a valid proof_status")


# ---------------------------------------------------------------------------
# File I/O: newline-delimited JSON, one instance per line
# ---------------------------------------------------------------------------

def instance_to_record(instance: Instance) -> dict:
    record = _content_payload(**_fields(instance))
    record["id"] = instance.id
    if instance.optimal_makespan is not None:
        record["optimal_makespan"] = instance.optimal_makespan
        record["proof_status"] = instance.proof_status
    return record


def instance_from_record(record: dict) -> Instance:
    """The instance a record holds; the record must be exactly its ``instance_to_record``."""
    try:
        problem_type = ProblemType(record["problem_type"])
        tasks = tuple(
            Task(
                job_id=int(t["job"]),
                op_index=int(t["op"]),
                eligible_machines=tuple(int(m) for m in t["machines"]),
                processing_time=int(t["p"]),
                tool=int(t["tool"]) if "tool" in t else None,
            )
            for t in record["tasks"]
        )
        instance = Instance(
            id=str(record["id"]),
            problem_type=problem_type,
            num_jobs=int(record["num_jobs"]),
            tasks_per_job=int(record["tasks_per_job"]),
            num_machines=int(record["num_machines"]),
            num_tools=int(record["num_tools"]),
            tasks=tasks,
            meta=InstanceMeta(
                seed=int(record["meta"]["seed"]),
                generator_version=int(record["meta"]["generator_version"]),
            ),
            optimal_makespan=(
                int(record["optimal_makespan"]) if "optimal_makespan" in record else None
            ),
            proof_status=record.get("proof_status"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f"bad instance record: {exc!r}") from exc
    check_round_trip(record, instance_to_record(instance), "instance")
    recomputed = instance_digest(instance)
    if recomputed != instance.id:
        raise DigestMismatchError(
            f"stored id {instance.id[:12]}... does not match recomputed digest {recomputed[:12]}..."
        )
    return instance


def write_instances(instances: Iterable[Instance], path: str | Path) -> None:
    write_text(path, "".join(canonical_json(instance_to_record(inst)) + "\n" for inst in instances))


def read_instances(path: str | Path) -> list[Instance]:
    """A rejected record's error names ``path:lineno``, as invalid JSON's does."""
    instances = []
    for lineno, record in read_json_lines(path, MalformedRecordError):
        try:
            instances.append(instance_from_record(record))
        except (MalformedRecordError, DigestMismatchError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return instances
