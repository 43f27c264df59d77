import copy
import hashlib
import math

import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.env import RewardMode
from schedlab.errors import ConfigurationError, MalformedRecordError, OracleSizeError
from schedlab.evaluate import run_episode
from schedlab.instances import (
    GeneratorConfig,
    Instance,
    InstanceMeta,
    ProblemType,
    generate_batch,
    generate_instance,
)
from schedlab.schedule import Schedule, earliest_start, validate_schedule
from schedlab.solver import (
    SolveLimits,
    _bound,
    _jackson_preemptive,
    _tables,
    lower_bound,
    permutation_oracle,
    solve_optimal,
    timing_oracle,
)

from conftest import build_instance, fjssp_config, four_problem_kinds, jssp_config, timeline_of


def interleave_instance():
    # jobs (m0 p=2, m1 p=2) and (m1 p=2, m0 p=2): perfect interleave gives 4
    return build_instance(
        [[(0, 2, None), (1, 2, None)], [(1, 2, None), (0, 2, None)]], num_machines=2
    )


def test_single_job_chain():
    inst = build_instance([[(0, 2, None), (0, 3, None)]], num_machines=1)
    result = solve_optimal(inst)
    assert result.makespan == 5
    assert result.proof_status == "optimal"
    assert result.stop_reason == "proved"
    assert result.lower_bound == 5
    assert validate_schedule(result.schedule) == []


def test_two_jobs_one_machine():
    inst = build_instance([[(0, 3, None)], [(0, 4, None)]], num_machines=1)
    result = solve_optimal(inst)
    assert result.makespan == 7
    assert result.proof_status == "optimal"


@pytest.mark.parametrize("seed", range(25))
def test_solver_matches_oracle_2x3(seed):
    cfg = jssp_config(num_jobs=2, tasks_per_job=3, num_machines=3, seed=seed)
    inst = generate_instance(cfg, 0)
    assert solve_optimal(inst).makespan == permutation_oracle(inst)


def test_node_limit_one_returns_first_dive():
    """The limits apply only once the first dive has completed a schedule, so
    the least a search can return is that dive: a node for each partial
    schedule on its way, the root included, and one more that the limit stops."""
    stops = set()
    for inst in four_problem_kinds(3, 3, 3, seed=10):
        limited = solve_optimal(inst, SolveLimits(node_limit=1))
        assert limited.schedule.complete and validate_schedule(limited.schedule) == []
        assert limited.makespan == limited.schedule.makespan
        if limited.stop_reason == "node_limit":
            assert limited.nodes_expanded == inst.num_tasks + 1
        if limited.proof_status == "optimal":
            assert limited.lower_bound == limited.makespan
        else:
            assert limited.lower_bound == lower_bound(Schedule(inst)) <= limited.makespan
        stops.add(limited.stop_reason)
    assert stops == {"node_limit", "proved"}


def test_time_limit_reports_stop_reason_and_root_bound():
    inst = generate_instance(jssp_config(num_jobs=15, tasks_per_job=15, num_machines=15,
                                         seed=7), 0)
    # the clock is read every 1024 nodes, so a zero limit stops at node 1024
    result = solve_optimal(inst, SolveLimits(time_limit_s=0.0))
    assert result.proof_status == "feasible"
    assert result.stop_reason == "time_limit"
    assert result.nodes_expanded == 1024
    assert result.lower_bound == lower_bound(Schedule(inst)) <= result.makespan
    assert validate_schedule(result.schedule) == []


@pytest.mark.parametrize("limits", [dict(node_limit=0), dict(node_limit=-5),
                                    dict(time_limit_s=-1.0),
                                    dict(time_limit_s=float("nan"))])
def test_out_of_range_limits_rejected(limits):
    with pytest.raises(ConfigurationError):
        solve_optimal(interleave_instance(), SolveLimits(**limits))


def test_deep_search_does_not_recurse():
    # 1,000 tasks: the first dive alone is deeper than Python's recursion limit
    inst = generate_batch(GeneratorConfig(ProblemType.JSSP, 50, 20, 20, 1, 99, 1, 7))[0]
    result = solve_optimal(inst, SolveLimits(node_limit=1100))
    assert result.proof_status == "feasible"
    assert result.stop_reason == "node_limit"
    assert validate_schedule(result.schedule) == []
    assert result.lower_bound <= result.makespan == result.schedule.makespan


def test_anytime_incumbent_non_increasing():
    inst = generate_instance(jssp_config(num_jobs=4, tasks_per_job=4, num_machines=4,
                                         seed=3), 0)
    previous = None
    for limit in (1, 10, 100, 1000, 100000):
        ms = solve_optimal(inst, SolveLimits(node_limit=limit)).makespan
        if previous is not None:
            assert ms <= previous
        previous = ms


def test_solver_result_schedule_consistent():
    inst = generate_instance(
        jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3, with_tools=True,
                    num_tools=2, seed=8), 0
    )
    result = solve_optimal(inst)
    assert result.schedule.makespan == result.makespan
    assert validate_schedule(result.schedule) == []
    assert result.wall_time_ms >= 0.0


def test_solver_dominates_dispatch_rules():
    for seed in range(5):
        inst = generate_instance(jssp_config(num_jobs=4, tasks_per_job=3, num_machines=3,
                                             seed=seed + 50), 0)
        best = solve_optimal(inst).makespan
        for rule in (DispatchRule.SPT, DispatchRule.LPT, DispatchRule.MTR):
            ms, _, _ = run_episode(rule_policy(rule), inst, RewardMode.DENSE_MAKESPAN_DELTA)
            assert best <= ms


def test_lower_bound_job_chain():
    inst = build_instance([[(0, 2, None), (0, 3, None)]], num_machines=1)
    assert lower_bound(Schedule(inst)) >= 5
    assert lower_bound(Schedule(inst)) <= solve_optimal(inst).makespan


def test_lower_bound_machine_load():
    inst = build_instance([[(0, 3, None)], [(0, 4, None)]], num_machines=1)
    assert lower_bound(Schedule(inst)) >= 7


def test_lower_bound_tool_load():
    inst = build_instance([[(0, 3, 0)], [(1, 4, 0)]], num_machines=2, num_tools=1)
    assert lower_bound(Schedule(inst)) >= 7


def test_lower_bound_jackson_preemptive_beats_head_load_tail():
    # machine 0 holds (head, work, tail) = (0, 4, 2), (2, 2, 6), (2, 2, 6).
    # Min head + load + min tail is 0 + 8 + 2 = 10 and no job chain exceeds
    # 10. Jackson's preemptive schedule runs job 0 on [0, 2), job 1 on
    # [2, 4), job 2 on [4, 6) and job 0 again on [6, 8): 6 + 6 = 12.
    inst = build_instance(
        [
            [(0, 4, None), (1, 1, None), (2, 1, None)],
            [(1, 2, None), (0, 2, None), (2, 6, None)],
            [(2, 2, None), (0, 2, None), (1, 6, None)],
        ],
        num_machines=3,
    )
    assert lower_bound(Schedule(inst)) == 12
    assert solve_optimal(inst, SolveLimits(node_limit=1)).lower_bound == 12
    assert solve_optimal(inst).makespan == 13


def test_lower_bound_preempts_around_placed_intervals():
    # job 0 is placed, with its op on machine 0 at [2, 4). Jobs 1 and 2 each
    # have (head, work, tail) = (0, 2, 3) there: one runs on [0, 2), the
    # other has to wait for [4, 6), so the bound is 6 + 3 = 9. Ignoring the
    # placed interval would give 7, and machine 1 alone gives 2 + 6 = 8.
    inst = build_instance(
        [
            [(1, 1, None), (0, 2, None)],
            [(0, 2, None), (1, 3, None)],
            [(0, 2, None), (1, 3, None)],
        ],
        num_machines=2,
    )
    schedule = Schedule(inst)
    schedule.place_task(inst.task(0, 0), 1, 0)
    schedule.place_task(inst.task(0, 1), 0, 2)
    assert lower_bound(schedule) == 9


@pytest.mark.parametrize("seed", range(36))
def test_lower_bound_admissible_along_random_paths(seed):
    """At every node of a random dispatch path, bound <= best completion."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cfg = [
        jssp_config(num_jobs=2, tasks_per_job=3, num_machines=2, seed=seed),
        jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2, with_tools=True,
                    num_tools=2, seed=seed),
        fjssp_config(num_jobs=2, tasks_per_job=3, num_machines=2, seed=seed),
    ][seed % 3]
    inst = generate_instance(cfg, 0)

    def best_completion(schedule):
        # exhaustive completion of the residual problem (oracle of the node)
        if schedule.complete:
            return schedule.makespan
        best = inst.total_processing_time
        timelines = [timeline_of(columns) for columns in schedule.busy()]
        for j in range(inst.num_jobs):
            k = schedule.next_op[j]
            if k >= inst.tasks_per_job:
                continue
            task = inst.task(j, k)
            tool_tl = timelines[inst.num_machines + task.tool] if task.tool is not None else None
            for m in task.eligible_machines:
                s = earliest_start(timelines[m], tool_tl, schedule.job_ready[j], task.processing_time)
                child = copy.deepcopy(schedule, {id(inst): inst})  # the instance is shared
                child.place_task(task, m, s)
                best = min(best, best_completion(child))
        return best

    schedule = Schedule(inst)
    while not schedule.complete:
        assert lower_bound(schedule) <= best_completion(schedule)
        jobs = [j for j in range(inst.num_jobs) if schedule.next_op[j] < inst.tasks_per_job]
        j = jobs[rng.integers(len(jobs))]
        task = inst.task(j, schedule.next_op[j])
        m, s = schedule.best_machine(task)
        schedule.place_task(task, m, s)
    assert lower_bound(schedule) == schedule.makespan


def bound_terms(schedule):
    """The arguments of _bound on a schedule, and the (tasks, busy columns) of each JPS run."""
    inst = schedule.instance
    tables = _tables(inst)
    proc, elig, tool_of, chain = tables
    n_ops, next_op = inst.tasks_per_job, schedule.next_op
    heads = [schedule.best_machine(inst.task(j, k))[1] if k < n_ops else 0
             for j, k in enumerate(next_op)]
    busy = schedule.busy()

    def pinned_to(j, k):
        # resource r < num_machines is machine r; _tables already gives tools as resources
        return ([elig[j][k][0]] if len(elig[j][k]) == 1 else []) + [tool_of[j][k]]

    jps_runs = []
    for r, columns in enumerate(busy):
        tasks = [(heads[j] + chain[j][k0] - chain[j][k], proc[j][k], chain[j][k + 1])
                 for j, k0 in enumerate(next_op) for k in range(k0, n_ops)
                 if r in pinned_to(j, k)]
        if tasks:
            jps_runs.append((tasks, columns))
    args = (tables, heads, next_op, busy, schedule.makespan)
    return args, jps_runs


def assert_cutoff_contract(full, cut):
    """cut(c) reaches c exactly when full does, and equals full below c."""
    for c in (0, full - 1, full, full + 1, math.inf):
        value = cut(c)
        assert (value >= c) == (full >= c)
        assert value <= full
        if full < c:
            assert value == full


@pytest.mark.parametrize("seed", range(12))
def test_bound_cutoff_contract_along_random_paths(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    cfg = [
        jssp_config(seed=seed),
        jssp_config(num_jobs=4, tasks_per_job=4, num_machines=4, with_tools=True,
                    num_tools=2, seed=seed),
        fjssp_config(num_jobs=4, tasks_per_job=3, num_machines=3, seed=seed),
    ][seed % 3]
    inst = generate_instance(cfg, 0)
    schedule = Schedule(inst)
    while not schedule.complete:
        args, jps_runs = bound_terms(schedule)
        full = _bound(*args, math.inf)
        assert full == lower_bound(schedule)
        assert_cutoff_contract(full, lambda c: _bound(*args, c))
        for tasks, columns in jps_runs:
            assert_cutoff_contract(_jackson_preemptive(list(tasks), columns, math.inf),
                                   lambda c: _jackson_preemptive(list(tasks), columns, c))
        jobs = [j for j in range(inst.num_jobs) if schedule.next_op[j] < inst.tasks_per_job]
        j = jobs[rng.integers(len(jobs))]
        task = inst.task(j, schedule.next_op[j])
        schedule.place_task(task, *schedule.best_machine(task))


# sha256 of the (makespan, nodes_expanded, lower_bound, stop_reason, placements)
# rows of search_digest_runs()
SEARCH_GOLDEN = "2f1f533ae225cc8920f263ed9e7f5b194ed49bc95dfd9cab69ea14b4ae375f39"


def search_digest_runs():
    """Instances whose searches prune hard, one row per solve_optimal run."""
    yield from ((inst, None) for inst in generate_batch(jssp_config(count=8, seed=2024)))
    yield from ((inst, None) for inst in generate_batch(
        jssp_config(4, 4, 4, count=5, seed=2024, with_tools=True, num_tools=2)))
    yield from ((inst, None) for inst in generate_batch(
        fjssp_config(num_jobs=4, tasks_per_job=3, num_machines=3, count=4, seed=2024)))
    yield generate_batch(jssp_config(8, 8, 8, seed=2024))[0], SolveLimits(node_limit=5000)


def test_search_digest():
    """Pins the search itself: the conflict set with and without tools,
    unrestricted branching, and an early stop whose lower bound is the root
    bound. A change to pruning or child order moves the node counts even
    where the optimum stays."""
    rows = []
    for inst, limits in search_digest_runs():
        r = solve_optimal(inst, limits)
        placements = sorted(
            (p.job_id, p.op_index, p.machine, p.start, p.end)
            for p in r.schedule.placements.values()
        )
        rows.append((r.makespan, r.nodes_expanded, r.lower_bound, r.stop_reason, placements))
    assert rows[-1][3] == "node_limit"
    assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == SEARCH_GOLDEN


def test_permutation_oracle_single_task(single_task_instance):
    assert permutation_oracle(single_task_instance) == 5


def test_permutation_oracle_interleave():
    assert permutation_oracle(interleave_instance()) == 4


def test_permutation_oracle_guard():
    inst = generate_instance(jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3,
                                         seed=0), 0)
    with pytest.raises(OracleSizeError):
        permutation_oracle(inst)


def test_timing_oracle_single_task(single_task_instance):
    assert timing_oracle(single_task_instance) == 5


def test_timing_oracle_interleave():
    assert timing_oracle(interleave_instance()) == 4


def test_timing_oracle_guard():
    inst = generate_instance(jssp_config(num_jobs=4, tasks_per_job=2, num_machines=2,
                                         seed=0), 0)
    with pytest.raises(OracleSizeError):
        timing_oracle(inst)


@pytest.mark.parametrize("seed", range(20))
def test_oracles_agree_with_tools(seed):
    cfg = jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2, with_tools=True,
                      num_tools=2, seed=seed + 400)
    inst = generate_instance(cfg, 0)
    assert timing_oracle(inst) == permutation_oracle(inst) == solve_optimal(inst).makespan


# (jobs, ops per job, machines, tools): a job can revisit a machine where ops !=
# machines, and a tool wherever tools < ops
TOOL_REVISIT_SHAPES = [(2, 4, 2, 1), (2, 4, 2, 2), (4, 2, 2, 1), (2, 3, 3, 1), (3, 2, 3, 2),
                       (3, 2, 2, 1), (2, 3, 2, 2)]


@pytest.mark.parametrize("shape", TOOL_REVISIT_SHAPES, ids=lambda s: "%dx%d-m%d-t%d" % s)
def test_tool_conflict_set_matches_oracles(shape):
    """The two-resource conflict set keeps an optimum where jobs share machines and tools."""
    n_jobs, n_ops, n_machines, n_tools = shape
    cfg = jssp_config(n_jobs, n_ops, n_machines, count=40, seed=9000,
                      with_tools=True, num_tools=n_tools)
    for inst in generate_batch(cfg):
        expected = permutation_oracle(inst)
        assert solve_optimal(inst).makespan == expected, inst.id
        if inst.num_tasks <= 6:
            assert timing_oracle(inst) == expected, inst.id


@pytest.mark.parametrize("seed", range(10))
def test_oracles_agree_fjssp(seed):
    cfg = fjssp_config(num_jobs=3, tasks_per_job=2, num_machines=2, seed=seed + 800)
    inst = generate_instance(cfg, 0)
    assert timing_oracle(inst) == permutation_oracle(inst) == solve_optimal(inst).makespan


@pytest.mark.parametrize("field", ["num_jobs", "tasks_per_job", "num_machines"])
@pytest.mark.parametrize("problem_type", [ProblemType.JSSP, ProblemType.FJSSP])
def test_solve_rejects_empty_dimensions(field, problem_type):
    dims = {"num_jobs": 2, "tasks_per_job": 2, "num_machines": 2, field: 0}
    # building the instance raises, so the solver never sees it
    with pytest.raises(MalformedRecordError, match=field):
        solve_optimal(Instance(id="0" * 64, problem_type=problem_type, num_tools=0,
                               tasks=(), meta=InstanceMeta(seed=0), **dims))
