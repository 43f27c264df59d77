"""Exact makespan minimization via branch-and-bound, plus brute-force oracles.

The search branches over dispatch decisions: a node is a partial schedule and
each child dispatches the next unscheduled task of some job (for FJSSP, on
some eligible machine) at its earliest feasible start, gap insertion
included. Every active schedule is reachable this way (dispatching in
nondecreasing start order reproduces it), so for regular objectives the
family contains an optimum; ``timing_oracle`` certifies the same under tool
constraints by exhausting all integer start assignments on small instances.

Except on FJSSP, where a machine choice breaks the argument, the children
form a conflict set over two resources (Giffler & Thompson 1960): with o*
the candidate of least earliest completion c*, on machine m* and tool t*,
only candidates that start before c* and use m* or t* are branched on. Take
any active completion S; let x be the candidate on m* or t* first in S. x
starts before c*, or o* could move left to its earliest start. Every other
candidate ends at or after its earliest completion, so at or after c*, and
every later op of a job starts after its job's candidate ends; so no unplaced
task comes before x on either of x's resources, x sits at its earliest start
and is a child. Induction on the number of placed tasks completes it.

Children are explored in order of the dispatched task's completion time, so
the first dive is a greedy rollout. The search starts with no incumbent, so
that dive completes unpruned and gives the first one (see ``SolveLimits``).
The search runs on an explicit stack, so its depth is not limited by Python's
recursion limit. Where two dispatch orders can reach the same placements,
under unrestricted branching (FJSSP) and the tool conflict set, a capped
transposition set keyed by the exact placement history prunes the repeats,
which keeps the search sound. On plain JSSP every child covers m* just
before c*, so two children always overlap and two branch orders never meet.

Machines and tools share one resource index, machine r at r and tool t at
``num_machines + t``: ``_tables`` gives each tool as its resource, and the
search's timelines and the bound's JPS runs (machines first) follow it.

A node is pruned when ``lower_bound``, Jackson's preemptive one-machine bound
(Carlier 1982; Brucker, Jurisch & Sievers 1994), reaches the incumbent. The
search only asks whether it does, so the prune test stops at the first term
that reaches the incumbent, often before any JPS run; below the incumbent it
yields the exact bound, so the decisions are those of the full bound. The root
bound reported on an early stop and the public ``lower_bound`` are full.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

from .errors import InternalError, OracleSizeError, bounded, check_fields
from .instances import Instance, PROOF_FEASIBLE, PROOF_OPTIMAL
from .schedule import Schedule, Timeline, earliest_start

_TRANSPOSITION_CAP = 1_000_000
_TIME_CHECK_MASK = 1023


@dataclass(frozen=True)
class SolveLimits:
    """Checked only once the first dive has completed a schedule, so a stop can
    overshoot by one dive: 0.10-0.16 s on a 20x20 and 0.7-1.3 s on a 50x20
    instance of ``perfbench/data`` (shared 2-vCPU machine, Python 3.11)."""

    node_limit: int = bounded(10_000_000, 1)
    time_limit_s: float = bounded(60.0, 0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class SolveResult:
    """``lower_bound`` is the makespan once proved, else the root bound, so the
    gap of an early stop is known; ``stop_reason`` is "proved", "node_limit"
    or "time_limit"."""

    makespan: int
    schedule: Schedule
    proof_status: str
    nodes_expanded: int
    wall_time_ms: float
    lower_bound: int
    stop_reason: str


def _tables(instance: Instance) -> tuple[list, list, list, list]:
    """Per-(job, op) times, eligible machines, tool resources; chain[j][k]: work from op k on."""
    n_ops, n_machines = instance.tasks_per_job, instance.num_machines
    tasks = [[instance.task(j, k) for k in range(n_ops)] for j in range(instance.num_jobs)]
    proc = [[t.processing_time for t in row] for row in tasks]
    chain = [[sum(row[k:]) for k in range(n_ops + 1)] for row in proc]
    elig = [[list(t.eligible_machines) for t in row] for row in tasks]
    tool_of = [[None if t.tool is None else n_machines + t.tool for t in row] for row in tasks]
    return proc, elig, tool_of, chain


def _jackson_preemptive(tasks: list[tuple[int, int, int]], busy: tuple, cutoff: float) -> int:
    """max(C_i + q_i) of Jackson's preemptive schedule in a resource's idle time.

    ``tasks`` holds (head r_i, processing time p_i, tail q_i), ``busy`` the
    resource's sorted (starts, ends). At every moment the released task with
    the largest tail runs, pre-empted by a release or by a busy interval.
    This schedule is optimal for the preemptive one-machine problem with
    heads, tails and unavailable periods (an exchange of unit slots never
    hurts), so its value bounds every non-preemptive completion from below.

    The running max only grows, so the scan returns it as soon as it reaches
    ``cutoff``; a result below ``cutoff`` is the full value.
    """
    tasks.sort()
    busy_start, busy_end = busy
    n, n_busy = len(tasks), len(busy_start)
    ready: list[tuple[int, int]] = []  # (-q, remaining work)
    i = b = 0
    t = tasks[0][0]
    value = 0
    while i < n or ready:
        if not ready and t < tasks[i][0]:
            t = tasks[i][0]
        while i < n and tasks[i][0] <= t:
            _, p, q = tasks[i]
            heapq.heappush(ready, (-q, p))
            i += 1
        while b < n_busy and busy_end[b] <= t:
            b += 1
        if b < n_busy and busy_start[b] <= t:
            t = busy_end[b]
            continue
        neg_q, rem = ready[0]
        stop = t + rem
        if i < n and tasks[i][0] < stop:
            stop = tasks[i][0]
        if b < n_busy and busy_start[b] < stop:
            stop = busy_start[b]
        rem -= stop - t
        t = stop
        if rem:
            heapq.heapreplace(ready, (neg_q, rem))
        else:
            heapq.heappop(ready)
            if t - neg_q > value:
                value = t - neg_q
                if value >= cutoff:
                    return value
    return value


def _bound(
    tables: tuple[list, list, list, list],
    heads: list[int],
    next_op: list[int],
    busy: list,
    makespan: int,
    cutoff: float,
) -> int:
    """The bound of ``lower_bound`` on the solver's flat state, cut off.

    ``heads[j]`` is the earliest feasible start of job j's next op (the
    minimum over its eligible machines); entries of finished jobs are unused.
    ``busy[r]`` is the sorted (starts, ends) of resource r.
    Returns as soon as a term reaches ``cutoff``: the result is >= ``cutoff``
    exactly when the full bound is, and below it the result is the full bound.
    """
    proc, elig, tool_of, chain = tables
    lb = makespan
    if lb >= cutoff:
        return lb
    pinned: list[list[tuple[int, int, int]]] = [[] for _ in busy]
    for j, k0 in enumerate(next_op):
        chain_j = chain[j]
        n_ops = len(chain_j) - 1
        if k0 >= n_ops:
            continue
        origin = heads[j] + chain_j[k0]  # head plus the job's remaining work
        if origin > lb:
            lb = origin
            if lb >= cutoff:
                return lb
        proc_j, elig_j, tool_j = proc[j], elig[j], tool_of[j]
        for k in range(k0, n_ops):
            task = (origin - chain_j[k], proc_j[k], chain_j[k + 1])
            if len(elig_j[k]) == 1:
                pinned[elig_j[k][0]].append(task)
            if tool_j[k] is not None:
                pinned[tool_j[k]].append(task)
    for columns, tasks in zip(busy, pinned):
        if tasks:
            v = _jackson_preemptive(tasks, columns, cutoff)
            if v > lb:
                lb = v
                if lb >= cutoff:
                    return lb
    return lb


def lower_bound(schedule: Schedule) -> int:
    """Admissible makespan bound for every feasible completion of a partial schedule.

    The maximum of three terms:

    - the current makespan;
    - per job, the head of its next op plus the job's remaining chain work.
      The head is the earliest start at or after the job's ready time that
      is idle on the op's machine and on its tool (for a flexible op, the
      minimum over its eligible machines);
    - per machine and per tool, the value of Jackson's preemptive schedule
      of the remaining tasks pinned to that resource. A task's head is its
      job's head plus the chain work before it, its tail the chain work
      after it; the schedule runs only in the resource's idle time and
      returns max(C_i + q_i).

    Every term holds for any feasible completion, not only for earliest-gap
    ones: placed intervals never move, so no remaining op can start before
    its head, and the non-preemptive completion restricted to one resource is
    a feasible preemptive schedule, whose best value JPS attains. Load terms
    are implied by the JPS term and the makespan, so there are none.
    """
    instance = schedule.instance
    n_ops = instance.tasks_per_job
    heads = [
        schedule.best_machine(instance.task(j, k))[1] if k < n_ops else 0
        for j, k in enumerate(schedule.next_op)
    ]
    return _bound(
        _tables(instance), heads, schedule.next_op, schedule.busy(), schedule.makespan, math.inf
    )


def solve_optimal(instance: Instance, limits: SolveLimits | None = None) -> SolveResult:
    """Branch-and-bound over dispatch permutations with earliest-gap placement.

    Returns proof_status "optimal" when the search completes within the
    limits, which apply after the first dive, else "feasible" with the best schedule.
    """
    if limits is None:
        limits = SolveLimits()
    t_start = time.perf_counter()
    deadline = t_start + limits.time_limit_s

    n_jobs, n_ops, n_machines = instance.num_jobs, instance.tasks_per_job, instance.num_machines
    tables = _tables(instance)
    proc, elig, tool_of, chain = tables

    flexible = any(len(ms) > 1 for row in elig for ms in row)
    dedupe = instance.with_tools or flexible

    timelines = [Timeline() for _ in range(n_machines + instance.num_tools)]
    busy = [tl.columns() for tl in timelines]  # live: a Timeline never rebinds its lists
    job_ready = [0] * n_jobs
    next_op = [0] * n_jobs

    horizon = instance.total_processing_time + 1
    encode_base = horizon * n_machines + 1
    job_code = [0] * n_jobs
    seen: set[tuple[int, ...]] = set()

    best = math.inf
    best_history: list[tuple[int, int, int]] | None = None
    # per dispatched task: (job, machine, start, end, tool resource, prior ready, prior code)
    trail: list[tuple[int, int, int, int, int | None, int, int]] = []
    n_tasks = instance.num_tasks
    nodes = 0
    stop_reason = "proved"

    def candidates(cutoff: float) -> tuple[list[tuple[int, int, int, int]], list[int]] | None:
        """(completion, job, machine, start) of every possible dispatch, and job heads;
        None once a job's head plus its remaining work, a bound term, reaches ``cutoff``."""
        cands = []
        heads = [0] * n_jobs
        for j in range(n_jobs):
            k = next_op[j]
            if k >= n_ops:
                continue
            p = proc[j][k]
            tool = tool_of[j][k]
            ttl = timelines[tool] if tool is not None else None
            head = None
            for m in elig[j][k]:
                s = earliest_start(timelines[m], ttl, job_ready[j], p)
                cands.append((s + p, j, m, s))
                if head is None or s < head:
                    head = s
            if head + chain[j][k] >= cutoff:
                return None
            heads[j] = head
        return cands, heads

    def open_node(cands: list[tuple[int, int, int, int]], ms_now: int) -> bool:
        """Count a node and push its children; False once a limit is hit past the first dive."""
        nonlocal nodes, stop_reason
        nodes += 1
        if best_history is not None:
            if nodes >= limits.node_limit:
                stop_reason = "node_limit"
                return False
            if (nodes & _TIME_CHECK_MASK) == 0 and time.perf_counter() > deadline:
                stop_reason = "time_limit"
                return False
        if not flexible:
            c_star, j_star, m_star, _ = min(cands)
            t_star = tool_of[j_star][next_op[j_star]]
            cands = [c for c in cands if c[3] < c_star and (c[2] == m_star or (
                t_star is not None and tool_of[c[1]][next_op[c[1]]] == t_star))]
        cands.sort()
        stack.append([cands, 0, ms_now])
        return True

    def undo() -> None:
        j, m, s, end, tool, prev_ready, prev_code = trail.pop()
        job_code[j] = prev_code
        next_op[j] -= 1
        job_ready[j] = prev_ready
        timelines[m].remove(s, end)
        if tool is not None:
            timelines[tool].remove(s, end)

    # each frame: [sorted children, index of the next child, makespan of the node]
    stack: list[list] = []
    root_cands, root_heads = candidates(math.inf)
    root_bound = _bound(tables, root_heads, next_op, busy, 0, math.inf)
    running = open_node(root_cands, 0)
    while running and stack:
        frame = stack[-1]
        children, i, ms_now = frame
        if i == len(children):
            stack.pop()
            if stack:
                undo()
            continue
        frame[1] = i + 1
        end, j, m, s = children[i]
        k = next_op[j]
        tool = tool_of[j][k]
        # idle: s is earliest_start on these timelines; _replay checks it through place_task
        timelines[m].add(s, end)
        if tool is not None:
            timelines[tool].add(s, end)
        trail.append((j, m, s, end, tool, job_ready[j], job_code[j]))
        job_ready[j] = end
        next_op[j] = k + 1
        if dedupe:
            job_code[j] = job_code[j] * encode_base + (m * horizon + s + 1)
            key = tuple(job_code)
            if key in seen:
                undo()
                continue
            if len(seen) < _TRANSPOSITION_CAP:
                seen.add(key)
        ms_child = end if end > ms_now else ms_now
        if len(trail) == n_tasks:
            if ms_child < best:
                best = ms_child
                best_history = [entry[:3] for entry in trail]
        elif ms_child < best:
            found = candidates(best)
            if found is not None and _bound(tables, found[1], next_op, busy, ms_child, best) < best:
                running = open_node(found[0], ms_child)
                continue
        undo()

    schedule = _replay(instance, best_history)
    if schedule.makespan != best:
        raise InternalError(
            f"solver bookkeeping mismatch: replayed makespan {schedule.makespan} != best {best}"
        )
    wall_ms = (time.perf_counter() - t_start) * 1000.0
    proved = stop_reason == "proved"
    return SolveResult(
        makespan=best,
        schedule=schedule,
        proof_status=PROOF_OPTIMAL if proved else PROOF_FEASIBLE,
        nodes_expanded=nodes,
        wall_time_ms=wall_ms,
        lower_bound=best if proved else root_bound,
        stop_reason=stop_reason,
    )


def _replay(instance: Instance, history: list[tuple[int, int, int]]) -> Schedule:
    schedule = Schedule(instance)
    for j, m, s in history:
        task = instance.task(j, schedule.next_op[j])
        schedule.place_task(task, m, s)
    return schedule


# ---------------------------------------------------------------------------
# Verification oracles
# ---------------------------------------------------------------------------

def permutation_oracle(instance: Instance) -> int:
    """Minimum makespan over every precedence-consistent dispatch ordering.

    Exhaustive, unpruned enumeration of the same schedule family the solver
    searches: every interleaving of the job sequences, and for FJSSP every
    eligible machine at every dispatch, built with earliest-gap placement.
    It keeps its own timelines, ready times and next ops, backtracked with
    ``Timeline.add`` and ``remove``, and shares only ``Timeline`` and
    ``earliest_start`` with the search.
    """
    if instance.num_tasks > 8:
        raise OracleSizeError(
            f"permutation_oracle is limited to 8 tasks, got {instance.num_tasks}"
        )
    n_jobs, n_ops, n_tasks = instance.num_jobs, instance.tasks_per_job, instance.num_tasks
    timelines = [Timeline() for _ in range(instance.num_machines + instance.num_tools)]
    job_ready = [0] * n_jobs
    next_op = [0] * n_jobs
    best = instance.total_processing_time  # serial schedule is always reachable

    def rec(placed: int, makespan: int) -> None:
        nonlocal best
        if placed == n_tasks:
            best = min(best, makespan)
            return
        for j in range(n_jobs):
            k = next_op[j]
            if k >= n_ops:
                continue
            task = instance.task(j, k)
            p, ready = task.processing_time, job_ready[j]
            ttl = timelines[instance.num_machines + task.tool] if task.tool is not None else None
            for m in task.eligible_machines:
                s = earliest_start(timelines[m], ttl, ready, p)
                timelines[m].add(s, s + p)
                if ttl is not None:
                    ttl.add(s, s + p)
                job_ready[j], next_op[j] = s + p, k + 1
                rec(placed + 1, max(makespan, s + p))
                job_ready[j], next_op[j] = ready, k
                timelines[m].remove(s, s + p)
                if ttl is not None:
                    ttl.remove(s, s + p)

    rec(0, 0)
    return best


def timing_oracle(instance: Instance) -> int:
    """Minimum makespan over all integer start-time assignments.

    Independent of the dispatch/earliest-gap machinery: tasks get explicit
    integer starts checked directly against precedence, machine and tool
    disjointness. Runs the feasibility decision for increasing target
    makespans up to the total processing time, where the serial schedule
    fits, which is equivalent to exhausting all assignments and taking the
    minimum. Certifies on small instances that the solver's schedule family
    contains a true optimum.
    """
    if instance.num_tasks > 6:
        raise OracleSizeError(f"timing_oracle is limited to 6 tasks, got {instance.num_tasks}")
    ub = instance.total_processing_time

    n_jobs, n_ops = instance.num_jobs, instance.tasks_per_job
    tasks = [instance.task(j, k) for j in range(n_jobs) for k in range(n_ops)]
    times = [[instance.task(j, k).processing_time for k in range(n_ops)] for j in range(n_jobs)]
    # tail[i]: processing time of the ops after task i within its job
    tail = [sum(row[k + 1 :]) for row in times for k in range(n_ops)]

    # per resource, machines then tools: the work pinned to it
    load = [0] * (instance.num_machines + instance.num_tools)
    for t in tasks:
        if len(t.eligible_machines) == 1:
            load[t.eligible_machines[0]] += t.processing_time
        if t.tool is not None:
            load[instance.num_machines + t.tool] += t.processing_time
    lb = max([*map(sum, times), *load])  # one job's work, or one resource's

    for target in range(lb, ub + 1):
        if _feasible_within(instance, tasks, tail, target):
            return target
    raise InternalError(f"no feasible assignment by makespan {ub}; the serial schedule should fit")


def _feasible_within(instance, tasks, tail, target: int) -> bool:
    n_machines = instance.num_machines
    # per resource, machines then tools: the (start, end) placed on it
    busy: list[list[tuple[int, int]]] = [[] for _ in range(n_machines + instance.num_tools)]
    job_end = [0] * instance.num_jobs
    n = len(tasks)

    def rec(i: int) -> bool:
        if i == n:
            return True
        task = tasks[i]
        p = task.processing_time
        lo = job_end[task.job_id]
        hi = target - p - tail[i]
        for m in task.eligible_machines:
            used = [busy[m]] if task.tool is None else [busy[m], busy[n_machines + task.tool]]
            s = lo
            while s <= hi:
                # jump past every interval overlapping [s, s+p)
                bump = -1
                for lst in used:
                    for a, b in lst:
                        if s < b and s + p > a and b > bump:
                            bump = b
                if bump >= 0:
                    s = bump
                    continue
                for lst in used:
                    lst.append((s, s + p))
                job_end[task.job_id] = s + p
                if rec(i + 1):
                    return True
                job_end[task.job_id] = lo
                for lst in used:
                    lst.pop()
                s += 1
        return False

    return rec(0)
