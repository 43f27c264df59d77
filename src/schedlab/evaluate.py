"""Run policies and baselines over instance sets and tabulate the comparison.

Every method acts through the (observation, mask) policy interface and its
schedules are re-validated from scratch; a single violation fails the run
loudly. The gap metric is (C - C*) / C*, reported only when the instance
carries a proven-optimal annotation so gaps are never computed against mere
incumbents.

Wall times in records default to 0.0 so that identical runs produce
byte-identical CSVs; pass ``timer=time.perf_counter`` to measure for real.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import DispatchRule, Policy, rule_policy
from .env import RewardMode, SchedulingEnv, observation_length
from .errors import (
    ConfigurationError, InstanceSetError, InternalError, InvalidActionError, bounded, check_fields,
)
from .files import write_text
from .instances import Instance, PROOF_OPTIMAL, check_instance_set
from .nn import MlpParams, greedy_action
from .schedule import Schedule, validate_schedule
from .solver import solve_optimal

VALID_METHODS = tuple(rule.value for rule in DispatchRule) + ("model", "solver")

CSV_HEADER = ["method", "instance_id", "seed", "makespan", "return", "gap", "wall_time_ms"]


@dataclass(frozen=True)
class EvalSettings:
    """The methods and seeds of an evaluation; ``evaluate`` builds one to check its arguments."""

    methods: tuple[str, ...] = ("model", "spt", "lpt", "mtr", "random", "solver")
    seeds: tuple[int, ...] = bounded((0,), 0, 2**64 - 1)

    def __post_init__(self) -> None:
        check_fields(self)
        for name in self.methods:
            if name not in VALID_METHODS:
                raise ConfigurationError(
                    f"methods: unknown method {name!r}; valid: {', '.join(VALID_METHODS)}"
                )
        for name, values in (("methods", self.methods), ("seeds", self.seeds)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigurationError(f"{name}: repeated entries {repeated}")
        if not self.seeds:
            raise ConfigurationError("seeds: must be non-empty")


@dataclass(frozen=True)
class EvalRecord:
    method: str
    instance_id: str
    makespan: int
    episode_return: float
    gap: float | None
    wall_time_ms: float = 0.0
    seed: int | None = None


@dataclass(frozen=True)
class MethodSummary:
    method: str
    count: int
    mean_makespan: float
    min_makespan: int
    max_makespan: int
    mean_return: float
    mean_gap: float | None
    mean_wall_time_ms: float


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[MethodSummary, ...]

    def render(self) -> str:
        header = ["method", "n", "makespan", "min", "max", "return", "gap", "ms"]
        lines = [
            [
                r.method,
                str(r.count),
                f"{r.mean_makespan:.2f}",
                str(r.min_makespan),
                str(r.max_makespan),
                f"{r.mean_return:.4f}",
                "-" if r.mean_gap is None else f"{r.mean_gap:.4f}",
                f"{r.mean_wall_time_ms:.1f}",
            ]
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[i]) for row in lines)) if lines else len(h)
                  for i, h in enumerate(header)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out = [fmt.format(*header)]
        out.extend(fmt.format(*row) for row in lines)
        return "\n".join(out)


def _episode_rng(instance: Instance, seed: int) -> np.random.Generator:
    # key mixes the evaluation seed with the instance identity so runs are
    # order-independent and reproducible per (instance, seed)
    return np.random.Generator(np.random.Philox(key=(seed << 64) ^ int(instance.id[:16], 16)))


def _gap(makespan: int, instance: Instance) -> float | None:
    if instance.optimal_makespan is None or instance.proof_status != PROOF_OPTIMAL:
        return None
    return (makespan - instance.optimal_makespan) / instance.optimal_makespan


def run_episode(policy: Policy, instance: Instance, mode: RewardMode) -> tuple[int, float, Schedule]:
    """Roll one full episode; returns (makespan, undiscounted return, schedule)."""
    env = SchedulingEnv(instance, mode)
    obs, mask = env.reset()
    total = 0.0
    done = False
    while not done:
        action = policy(obs, mask)
        if not (0 <= action < len(mask)) or not mask[action]:
            raise InvalidActionError(f"policy chose invalid action {action}")
        result = env.step(action)
        total += result.reward
        obs, mask, done = result.observation, result.mask, result.done
    schedule = env.schedule
    violations = validate_schedule(schedule)
    if violations:
        raise InternalError(f"episode produced an invalid schedule: {violations[0]}")
    return schedule.makespan, total, schedule


def evaluate(
    methods: Sequence[str],
    instances: Sequence[Instance],
    mode: RewardMode,
    seeds: Sequence[int] = (0,),
    model_params: MlpParams | None = None,
    timer: Callable[[], float] | None = None,
) -> list[EvalRecord]:
    """One record per run, in method -> instance -> seed order.

    The random method runs once per seed and gives one record per seed; every
    other method is deterministic and gives one record per instance, with
    ``seed=None``. Each seed keys a Philox stream together with the instance
    id. Before any run, methods and seeds are checked by building
    ``EvalSettings``, so a bad entry raises the ``ConfigurationError`` a
    config file with it gets: an unknown or repeated method, a repeated seed,
    no seeds, or a seed outside [0, 2**64). With method "model", a
    ``model_params`` whose input and output widths do not fit the job count
    of every instance raises ``InstanceSetError``, also before any run.
    """
    check_instance_set(instances, one_job_count=False)
    settings = EvalSettings(tuple(methods), tuple(seeds))  # an iterator is read once
    methods, seeds = settings.methods, settings.seeds
    if "model" in methods:
        if model_params is None:
            raise ConfigurationError("method 'model' requires model_params")
        dims = model_params.dims()
        for n in sorted({inst.num_jobs for inst in instances}):
            if (dims[0], dims[-1]) != (observation_length(n), n):
                raise InstanceSetError(
                    f"the model maps {dims[0]} inputs to {dims[-1]} actions, but "
                    f"{n}-job instances need {observation_length(n)} inputs and {n} actions"
                )

    clock = timer if timer is not None else (lambda: 0.0)

    def score(name: str, instance: Instance, seed: int | None) -> EvalRecord:
        t0 = clock()
        if name == "solver":
            result = solve_optimal(instance)
            violations = validate_schedule(result.schedule)
            if violations:
                raise InternalError(f"solver produced an invalid schedule: {violations[0]}")
            ms, ret = result.makespan, -result.makespan / instance.total_processing_time
        else:
            if name == "model":
                policy: Policy = lambda obs, mask: greedy_action(model_params, obs, mask)
            elif name == "random":
                policy = rule_policy(DispatchRule.RANDOM, _episode_rng(instance, seed))
            else:
                policy = rule_policy(DispatchRule(name))
            ms, ret, _ = run_episode(policy, instance, mode)
        elapsed = (clock() - t0) * 1000.0
        return EvalRecord(
            method=name, instance_id=instance.id, makespan=ms, episode_return=ret,
            gap=_gap(ms, instance), wall_time_ms=elapsed, seed=seed,
        )

    return [
        score(name, instance, seed)
        for name in methods
        for instance in instances
        for seed in (seeds if name == "random" else (None,))
    ]


def summarize(records: Sequence[EvalRecord]) -> ComparisonTable:
    """Aggregate per method; rows ordered by ascending mean makespan, then name.

    A pure fold over a canonical ordering of the records, so permuting the
    input yields the identical table.
    """
    by_method: dict[str, list[EvalRecord]] = {}
    for rec in sorted(records, key=lambda r: (r.method, r.instance_id, r.seed or 0)):
        by_method.setdefault(rec.method, []).append(rec)
    rows = []
    for method, group in sorted(by_method.items()):
        gaps = [r.gap for r in group if r.gap is not None]
        rows.append(
            MethodSummary(
                method=method,
                count=len({r.instance_id for r in group}),
                mean_makespan=sum(r.makespan for r in group) / len(group),
                min_makespan=min(r.makespan for r in group),
                max_makespan=max(r.makespan for r in group),
                mean_return=sum(r.episode_return for r in group) / len(group),
                mean_gap=sum(gaps) / len(gaps) if gaps else None,
                mean_wall_time_ms=sum(r.wall_time_ms for r in group) / len(group),
            )
        )
    rows.sort(key=lambda r: (r.mean_makespan, r.method))
    return ComparisonTable(rows=tuple(rows))


def write_records_csv(records: Sequence[EvalRecord], path: str | Path) -> None:
    """CSV with the documented column order, one row per record, as given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        [
            rec.method,
            rec.instance_id,
            "" if rec.seed is None else str(rec.seed),
            str(rec.makespan),
            repr(rec.episode_return),
            "" if rec.gap is None else repr(rec.gap),
            repr(rec.wall_time_ms),
        ]
        for rec in records
    )
    write_text(path, buf.getvalue())
