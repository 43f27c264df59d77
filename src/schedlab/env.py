"""Episodic scheduling environment: reset/step, action masking, reward strategies.

An episode schedules one instance, one task per step. The action is a job
index; the job's next unscheduled task is placed on the machine with the
earliest feasible start (ties to the lowest machine id), at that start,
never moving already placed tasks. Every episode lasts exactly
num_jobs * tasks_per_job steps.

Rewards are negated and normalized so that maximizing return minimizes the
makespan: the dense strategy pays the per-step makespan increase,
-(C_after - C_before) / UB, and the sparse strategy pays -C_final / UB on the
final step only, where UB is the instance's total processing time. Both
strategies yield the same undiscounted episode return for the same action
sequence.

A ``SchedulingEnv`` holds one episode; the functions ``reset``, ``step``,
``observe`` and ``action_mask`` act on it. When built, the env reads
``instance.tasks`` once into a flat table: at each task's index
``job * tasks_per_job + op``, the resources (eligible machines, then
``num_machines + tool``) whose watcher set holds its job while the task is
next. ``reset`` computes the observation and the action mask in full and
keeps them, with the watcher sets and one kept slot ``(task, machine, start,
end)`` per unfinished job: its next task and where that goes, the
``Schedule.best_machine`` result. ``step`` places the kept task at its kept
slot and updates only what the placement can change: the acting job's
features, slot and watcher sets (from the returned ``Placement``), the slots
of those watchers of the machine and tool it used whose kept ``[start, end)``
the placed interval overlaps (see ``observe``), and, after a job's last task,
its mask entry. A step thus costs a few earliest-start queries and no pass
over all jobs. Both hand out fresh arrays, which the caller may keep or
mutate.

The kept state assumes that the schedule changes only through ``step``. The
``Schedule`` API keeps the rest: its timelines are private (``busy()`` hands
out copies) and ``place_task`` is its only mutation, so no caller can remove
an interval, timelines only gain intervals, and an earliest start can only
move later.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import InstanceSetError, InvalidActionError
from .instances import Instance, Task, check_instance_set
from .schedule import Placement, Schedule


class RewardMode(str, Enum):
    DENSE_MAKESPAN_DELTA = "dense"
    SPARSE_TERMINAL = "sparse"


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    mask: np.ndarray
    makespan: int


def observation_length(num_jobs: int) -> int:
    return 4 * num_jobs + 1


def network_widths(instances: Sequence[Instance], source: object = "instance set") -> tuple[int, int]:
    """A network's widths for n-job ``instances``: 4n + 1 inputs and n actions. An empty
    set or one that mixes job counts raises InstanceSetError, which ``source`` starts."""
    check_instance_set(instances, source)
    counts = sorted({inst.num_jobs for inst in instances})
    if len(counts) > 1:
        found = " and ".join(f"{n}-job" for n in counts)
        raise InstanceSetError(f"{source}: mixes {found} instances; a model takes one job count")
    return observation_length(counts[0]), counts[0]


def _write_job(env: SchedulingEnv, obs: np.ndarray, slots: list, j: int, k: int, ready: int) -> None:
    """Write job j's four entries and its next task's slot, given its next op k and ready time."""
    n_ops = env.instance.tasks_per_job
    base = 4 * j
    obs[base] = k / n_ops
    obs[base + 2] = ready / env.ub
    if k < n_ops:
        task = env.instance.tasks[j * n_ops + k]
        machine, start = env.schedule.best_machine(task)
        slots[j] = (task, machine, start, start + task.processing_time)
        obs[base + 1] = task.processing_time / env.p_max
        obs[base + 3] = start / env.ub
    else:
        slots[j] = None
        obs[base + 1] = obs[base + 3] = 0.0


def _observe_full(env: SchedulingEnv, slots: list) -> np.ndarray:
    """The observation computed in full from the schedule; every job's slot goes into ``slots``."""
    schedule = env.schedule
    obs = np.zeros(observation_length(env.instance.num_jobs), dtype=np.float64)
    for j, (k, ready) in enumerate(zip(schedule.next_op, schedule.job_ready)):
        _write_job(env, obs, slots, j, k, ready)
    obs[-1] = schedule.makespan / env.ub
    return obs


def observe(env: SchedulingEnv, placement: Placement | None = None) -> np.ndarray:
    """Fixed-length feature vector, all entries in [0, 1].

    Per job j, at offset 4j: fraction of its ops scheduled; next-task
    processing time / p_max (0 once the job is done); job ready time / UB;
    earliest feasible start of the next task across eligible machines / UB
    (0 once done). The final entry is the current makespan / UB.

    Without ``placement`` this is a full recompute from the schedule and
    leaves ``env`` untouched. With the placement that ``step`` just made, it
    updates the state kept in ``env`` and returns a copy of the observation.
    A placement of job a on machine m with tool t can only change the four
    entries and the slot of job a, the makespan, and the slot and entry 4j+3
    of a job j whose next task is eligible on m or uses t: any other earliest
    start depends on timelines and a ready time that the placement left as
    they were. Those jobs j are the watchers of m and t, so only they are
    visited; job a first moves from the watcher sets of the task it placed to
    those of its new next task. A watcher's slot and entry 4j+3 are rewritten,
    from a fresh ``best_machine`` of the task its slot carries, only when the
    placed interval ``[start, end)`` overlaps its kept ``[s_j, e_j)``.
    Intervals never leave a ``Schedule``, so every start only moves later,
    and a kept slot still idle is still the earliest, and still on the
    lowest machine id among the earliest.
    """
    if placement is None:
        return _observe_full(env, [None] * env.instance.num_jobs)
    obs, slots, resources, watchers = env.obs, env.slots, env._resources, env.watchers
    n_ops = env.instance.tasks_per_job
    a, k, machine, start, end, tool = placement
    row = a * n_ops + k
    for r in resources[row]:
        watchers[r].discard(a)
    if k + 1 < n_ops:
        for r in resources[row + 1]:
            watchers[r].add(a)
    _write_job(env, obs, slots, a, k + 1, end)
    watching = watchers[machine]
    if tool is not None:
        watching = watching | watchers[env.instance.num_machines + tool]
    for j in watching:
        if j != a:
            task, _, s_j, e_j = slots[j]
            if start < e_j and s_j < end:
                m, s = env.schedule.best_machine(task)
                slots[j] = (task, m, s, s + task.processing_time)
                obs[4 * j + 3] = s / env.ub
    obs[-1] = env.schedule.makespan / env.ub
    return obs.copy()


def action_mask(env: SchedulingEnv) -> np.ndarray:
    """Boolean vector over jobs: True iff the job still has an unscheduled task."""
    n_ops = env.instance.tasks_per_job
    return np.array([k < n_ops for k in env.schedule.next_op], dtype=bool)


def reset(env: SchedulingEnv) -> tuple[np.ndarray, np.ndarray]:
    """Start a new episode on ``env``, dropping any episode in progress."""
    instance = env.instance
    env.schedule = Schedule(instance)
    env.watchers = [set() for _ in range(instance.num_machines + instance.num_tools)]
    for j in range(instance.num_jobs):
        for r in env._resources[j * instance.tasks_per_job]:
            env.watchers[r].add(j)
    env.slots = [None] * instance.num_jobs
    env.obs = _observe_full(env, env.slots)
    env.mask = action_mask(env)
    return env.obs.copy(), env.mask.copy()


def step(env: SchedulingEnv, action: int) -> StepResult:
    """Place the next unscheduled task of job ``action`` at its earliest start.

    Invalid or masked actions, and a step before the first ``reset``, raise
    InvalidActionError; there is no penalty-reward fallback. The job's kept
    slot carries its next task and where that goes, which equals a fresh
    ``Schedule.best_machine`` as long as the schedule changes only through
    ``step`` (see ``observe``); ``place_task`` still checks it. The returned
    observation equals a full ``observe(env)`` bit for bit and the mask
    equals ``action_mask(env)``; both are fresh arrays, updated from the
    previous ones where the placement can change them.
    """
    schedule = env.schedule
    if schedule is None:
        raise InvalidActionError("step() before reset()")
    n_jobs, n_ops = env.instance.num_jobs, env.instance.tasks_per_job
    if not (0 <= action < n_jobs):
        raise InvalidActionError(f"action {action} out of range [0, {n_jobs})")
    slot = env.slots[action]
    if slot is None:
        raise InvalidActionError(f"job {action} is already fully scheduled")

    c_before = schedule.makespan
    task, machine, start, _ = slot
    placement = schedule.place_task(task, machine, start)
    c_after = schedule.makespan
    if task.op_index + 1 == n_ops:
        env.mask[action] = False

    done = schedule.complete
    if env.mode is RewardMode.DENSE_MAKESPAN_DELTA:
        reward = -(c_after - c_before) / env.ub
    else:
        reward = -c_after / env.ub if done else 0.0

    return StepResult(observe(env, placement), reward, done, env.mask.copy(), c_after)


class SchedulingEnv:
    """One scheduling episode on ``instance``; ``schedule`` is None until ``reset``.

    This is also the environment-variant hook: the trainers take a factory
    ``instance -> env`` and only use the reset()/step() surface below, so
    alternative action semantics can be dropped in. ``run_episode`` and
    ``evaluate`` always build this class. A variant must keep the 4n + 1
    observation entries and the n actions of an n-job instance, because the
    trainers size their networks by ``network_widths``, and the episode
    length: ``done`` comes on exactly the ``instance.num_tasks``-th step,
    because the PPO rollout plans its buffer rows from it.
    """

    def __init__(self, instance: Instance, mode: RewardMode = RewardMode.DENSE_MAKESPAN_DELTA):
        self.instance = instance
        self.mode = mode
        self.ub = instance.total_processing_time  # normalization constant
        self.p_max = instance.max_processing_time
        self.schedule: Schedule | None = None
        self.obs: np.ndarray | None = None  # last observation, updated in place by step
        self.mask: np.ndarray | None = None  # last action mask, updated in place by step
        # per machine, then per tool: the jobs whose next task can use it
        self.watchers: list[set[int]] = []
        # per job: (task, machine, start, end) of its next task's earliest slot, None once done
        self.slots: list[tuple[Task, int, int, int] | None] = []
        # per task: the resources whose watcher set holds its job while the task is next
        self._resources = [t.eligible_machines if t.tool is None else
                           (*t.eligible_machines, instance.num_machines + t.tool) for t in instance.tasks]

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        return reset(self)

    def step(self, action: int) -> StepResult:
        return step(self, action)


# A fresh env per call, whose observations and masks have ``network_widths``
# entries and whose every episode ends after exactly ``instance.num_tasks``
# steps; PPO raises ``EpisodeLengthError`` otherwise.
EnvFactory = Callable[[Instance], SchedulingEnv]
