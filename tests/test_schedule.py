import json

import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.env import SchedulingEnv
from schedlab.errors import ConstraintViolationError, InternalError, MalformedRecordError
from schedlab.instances import ProblemType, generate_instance
from schedlab.schedule import (
    Placement,
    Schedule,
    Timeline,
    earliest_start,
    read_schedule,
    record_from_dict,
    record_to_dict,
    schedule_to_record,
    validate_schedule,
    write_schedule,
)

from conftest import build_instance, fjssp_config, jssp_config, timeline_of


def brute_force_earliest(busy_lists, ready, p, limit=10_000):
    """Independent oracle: scan candidate starts, checking idleness directly."""
    t = ready
    while t < limit:
        if all(not (t < e and t + p > s) for busy in busy_lists for (s, e) in busy):
            return t
        t += 1
    raise AssertionError("no feasible start found")


def test_earliest_start_empty_schedule():
    inst = build_instance([[(0, 3, None)]], num_machines=1)
    sched = Schedule(inst)
    assert earliest_start(timeline_of(sched.busy()[0]), None, sched.job_ready[0], 3) == 0


def test_earliest_start_gap_insertion():
    # machine busy [0,3) and [5,9): p=2 fits the gap at 3
    inst = build_instance(
        [[(0, 3, None)], [(0, 4, None)], [(0, 2, None)]], num_machines=1
    )
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)  # [0,3)
    sched.place_task(inst.task(1, 0), 0, 5)  # [5,9)
    machine = sched.busy()[0]
    expected = brute_force_earliest([list(zip(*machine))], 0, 2)
    assert expected == 3
    assert earliest_start(timeline_of(machine), None, sched.job_ready[2], 2) == 3


def test_earliest_start_tool_blocks_gap():
    # machine busy [0,3) and [5,9), tool busy [3,6): the [3,5) gap is blocked
    inst = build_instance(
        [
            [(0, 3, None)],
            [(0, 4, None)],
            [(1, 3, 0)],
            [(0, 2, 0)],
        ],
        num_machines=2,
        num_tools=1,
    )
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)  # machine0 [0,3)
    sched.place_task(inst.task(1, 0), 0, 5)  # machine0 [5,9)
    sched.place_task(inst.task(2, 0), 1, 3)  # tool0 [3,6) on machine1
    busy = sched.busy()
    machine, tool = busy[0], busy[inst.num_machines + 0]
    expected = brute_force_earliest([list(zip(*machine)), list(zip(*tool))], 0, 2)
    assert expected == 9
    assert earliest_start(timeline_of(machine), timeline_of(tool), sched.job_ready[3], 2) == 9


def test_earliest_start_precedence_dominates():
    inst = build_instance([[(0, 7, None), (0, 2, None)]], num_machines=1)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    assert sched.job_ready[0] == 7
    assert earliest_start(timeline_of(sched.busy()[0]), None, sched.job_ready[0], 2) == 7


def random_timeline(rng, horizon=40):
    """Busy intervals of length 1-4 up to the horizon, some touching, some apart."""
    tl = Timeline()
    t = int(rng.integers(0, 3))
    while t < horizon:
        length = int(rng.integers(1, 5))
        tl.add(t, t + length)
        t += length + int(rng.integers(0, 4))
    return tl


@pytest.mark.parametrize("with_tool", [False, True], ids=["machine", "machine-and-tool"])
@pytest.mark.parametrize("seed", range(8))
def test_earliest_start_matches_brute_force(seed, with_tool):
    # the env, the solver and permutation_oracle all call earliest_start, so
    # only this sweep checks it against an independent scan
    rng = np.random.Generator(np.random.Philox(key=seed))
    machine_tl = random_timeline(rng)
    tool_tl = random_timeline(rng) if with_tool else None
    busy = [list(zip(*tl.columns())) for tl in (machine_tl, tool_tl) if tl is not None]
    for ready in range(0, 45, 3):
        for p in (1, 2, 3, 5, 8):
            assert earliest_start(machine_tl, tool_tl, ready, p) == brute_force_earliest(busy, ready, p)


def test_best_machine_tie_breaks_to_lowest_id():
    inst = build_instance([[((0, 1), 4, None)]], num_machines=2,
                          problem_type=ProblemType.FJSSP)
    sched = Schedule(inst)
    assert sched.best_machine(inst.task(0, 0)) == (0, 0)


def test_best_machine_prefers_strictly_earlier():
    inst = build_instance(
        [[(0, 10, None)], [((0, 1), 2, None)]], num_machines=2,
        problem_type=ProblemType.FJSSP,
    )
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    assert sched.best_machine(inst.task(1, 0)) == (1, 0)


def test_best_machine_equal_starts_takes_machine_zero():
    inst = build_instance(
        [[(0, 4, None)], [(1, 4, None)], [((0, 1), 2, None)]], num_machines=2,
        problem_type=ProblemType.FJSSP,
    )
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)  # machine0 busy [0,4)
    sched.place_task(inst.task(1, 0), 1, 0)  # machine1 busy [0,4)
    machine, start = sched.best_machine(inst.task(2, 0))
    assert (machine, start) == (0, 4)


def test_place_single_task_makespan():
    inst = build_instance([[(0, 5, None)]], num_machines=1)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    assert sched.makespan == 5


def test_two_tasks_same_machine_serial():
    inst = build_instance([[(0, 2, None)], [(0, 3, None)]], num_machines=1)
    sched = Schedule(inst)
    for j in (0, 1):
        task = inst.task(j, 0)
        m, s = sched.best_machine(task)
        sched.place_task(task, m, s)
    ends = sorted(p.end for p in sched.placements.values())
    assert ends == [2, 5]
    assert sched.makespan == 5


def test_overlapping_placement_names_machine():
    inst = build_instance([[(0, 5, None)], [(0, 5, None)]], num_machines=1)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    with pytest.raises(ConstraintViolationError) as exc:
        sched.place_task(inst.task(1, 0), 0, 2)
    assert exc.value.resource == "machine 0"
    assert exc.value.interval == (0, 5)


def test_tool_conflict_names_tool_and_inserts_nothing():
    # the machine is idle, so only the tool check can stop the placement
    inst = build_instance([[(0, 5, 0)], [(1, 5, 0)]], num_machines=2, num_tools=1)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    with pytest.raises(ConstraintViolationError) as exc:
        sched.place_task(inst.task(1, 0), 1, 3)
    assert exc.value.resource == "tool 0"
    assert exc.value.interval == (0, 5)
    # machine 0, machine 1, tool 0
    assert sched.busy() == (((0,), (5,)), ((), ()), ((0,), (5,)))
    assert list(sched.placements) == [(0, 0)] and sched.next_op == (1, 0)


def test_placement_overlapping_the_next_busy_interval_is_rejected():
    # [3, 6) starts in the idle gap before [5, 9) and runs into it
    inst = build_instance([[(0, 4, None)], [(0, 3, None)]], num_machines=1)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 5)
    with pytest.raises(ConstraintViolationError) as exc:
        sched.place_task(inst.task(1, 0), 0, 3)
    assert (exc.value.resource, exc.value.interval) == ("machine 0", (5, 9))
    assert sched.busy() == (((5,), (9,)),)


def test_next_op_and_job_ready_are_read_only():
    # writing job 0's ready time back to 0 once let place_task accept its op 1
    # on [0, 2) of the other machine, before op 0's [0, 3) ends
    inst = build_instance([[(0, 3, None), (1, 2, None)]], num_machines=2)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    for name in ("job_ready", "next_op"):
        with pytest.raises(TypeError):
            getattr(sched, name)[0] = 0
        with pytest.raises(AttributeError):
            setattr(sched, name, [0])
    assert (sched.next_op, sched.job_ready) == ((1,), (3,))
    with pytest.raises(ConstraintViolationError, match="precedes job 0 ready time 3"):
        sched.place_task(inst.task(0, 1), 1, 0)
    assert sched.busy()[1] == ((), ()) and validate_schedule(sched) == []


def test_placements_are_read_only():
    # deleting op 0 through a live placements dict once dropped it from the
    # record while next_op still counted it placed
    inst = build_instance([[(0, 3, None), (1, 2, None)]], num_machines=2)
    sched = Schedule(inst)
    for task in inst.tasks:
        sched.place_task(task, *sched.best_machine(task))
    record = schedule_to_record(sched)
    with pytest.raises(TypeError):
        del sched.placements[(0, 0)]
    with pytest.raises(TypeError):
        sched.placements[(0, 1)] = Placement(0, 1, 1, 0, 2)
    with pytest.raises(AttributeError):
        sched.placements = {}
    assert sched.complete and sched.next_op == (2,)
    assert schedule_to_record(sched) == record and validate_schedule(sched) == []


@pytest.mark.parametrize("machine, start, message", [
    (1, 0, "machine 1 not eligible for task \\(0,0\\)"),
    (0, -1, "negative start -1"),
], ids=["ineligible-machine", "negative-start"])
def test_place_rejects_ineligible_machine_and_negative_start(machine, start, message):
    inst = build_instance([[(0, 3, None)]], num_machines=2)
    sched = Schedule(inst)
    with pytest.raises(ConstraintViolationError, match=message) as exc:
        sched.place_task(inst.task(0, 0), machine, start)
    assert exc.value.resource == f"machine {machine}"
    assert sched.placements == {} and sched.busy()[machine] == ((), ())


def test_place_rejects_start_before_job_ready():
    inst = build_instance([[(0, 3, None), (1, 2, None)]], num_machines=2)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    with pytest.raises(ConstraintViolationError, match="ready"):
        sched.place_task(inst.task(0, 1), 1, 1)


def test_place_rejects_wrong_op_order():
    inst = build_instance([[(0, 3, None), (1, 2, None)]], num_machines=2)
    sched = Schedule(inst)
    with pytest.raises(ConstraintViolationError, match="next unscheduled") as exc:
        sched.place_task(inst.task(0, 1), 1, 0)
    assert exc.value.resource == "job 0"


def test_validate_constructed_schedule_is_clean():
    inst = build_instance(
        [[(0, 2, 0), (1, 3, None)], [(1, 2, 0), (0, 4, 1)]], num_machines=2, num_tools=2
    )
    sched = Schedule(inst)
    order = [0, 1, 0, 1]
    for j in order:
        task = inst.task(j, sched.next_op[j])
        m, s = sched.best_machine(task)
        sched.place_task(task, m, s)
    assert validate_schedule(sched) == []


def both_forms(sched):
    """A schedule and its bare record: the validator must flag both."""
    return [("schedule", sched), ("record", schedule_to_record(sched))]


def test_validate_detects_precedence_violation():
    inst = build_instance([[(0, 3, None), (1, 2, None)]], num_machines=2)
    sched = Schedule(inst)
    sched._placements[(0, 0)] = Placement(0, 0, 0, 0, 3)
    sched._placements[(0, 1)] = Placement(0, 1, 1, 1, 3)  # starts before op 0 ends
    for form, value in both_forms(sched):
        kinds = [v.kind for v in validate_schedule(value)]
        assert kinds == ["precedence"], form


def test_validate_detects_tool_overlap():
    inst = build_instance(
        [[(0, 2, 0)], [(1, 2, 0)]], num_machines=2, num_tools=1
    )
    sched = Schedule(inst)
    sched._placements[(0, 0)] = Placement(0, 0, 0, 2, 4, tool=0)
    sched._placements[(1, 0)] = Placement(1, 0, 1, 3, 5, tool=0)
    for form, value in both_forms(sched):
        violations = validate_schedule(value)
        assert [v.kind for v in violations] == ["tool-overlap"], form
        assert violations[0].tasks == ((0, 0), (1, 0)), form


def test_validate_detects_machine_overlap_and_eligibility():
    inst = build_instance([[(0, 3, None)], [(1, 3, None)]], num_machines=2)
    sched = Schedule(inst)
    sched._placements[(0, 0)] = Placement(0, 0, 0, 0, 3)
    sched._placements[(1, 0)] = Placement(1, 0, 0, 1, 4)  # wrong machine + overlap
    # eligibility needs the instance, so only the schedule form can see it
    expected = {"schedule": ["eligibility", "machine-overlap"], "record": ["machine-overlap"]}
    for form, value in both_forms(sched):
        kinds = sorted(v.kind for v in validate_schedule(value))
        assert kinds == expected[form], form


# Machine 1 and tool 1 both exist, so grouping machines and tools in one dict
# must keep them apart. Per job: one task, and where it is placed (machine,
# start). The jobs sharing tool 1 are placed first, and the machine overlap
# must still be reported first.
RESOURCE_ONE_CASES = {
    "machine 1 and tool 1 overlaps": (
        [[(0, 3, 1)], [(2, 3, 1)], [(1, 3, None)], [(1, 3, None)]],
        [(0, 0), (2, 1), (1, 0), (1, 1)],
        [("machine-overlap", ((2, 0), (3, 0)), "machine 1: [0,3) overlaps [1,4)"),
         ("tool-overlap", ((0, 0), (1, 0)), "tool 1: [0,3) overlaps [1,4)")],
    ),
    "machine 1 beside tool 1": ([[(0, 3, 1)], [(1, 3, None)]], [(0, 0), (1, 1)], []),
}


@pytest.mark.parametrize("case", sorted(RESOURCE_ONE_CASES))
def test_validate_keeps_machine_and_tool_of_one_id_apart(case):
    jobs, where, expected = RESOURCE_ONE_CASES[case]
    inst = build_instance(jobs, num_machines=3, num_tools=2)
    sched = Schedule(inst)
    for task, (machine, start) in zip(inst.tasks, where):
        sched._placements[(task.job_id, 0)] = Placement(
            task.job_id, 0, machine, start, start + task.processing_time, task.tool)
    for form, value in both_forms(sched):
        assert [(v.kind, v.tasks, v.detail) for v in validate_schedule(value)] == expected, form


@pytest.mark.parametrize("edit, kind, detail", [
    (lambda pls: pls.update({(0, 0): Placement(0, 0, 0, -1, 2)}), "negative-time", "start -1 < 0"),
    (lambda pls: pls.update({(0, 0): Placement(0, 0, 1, 0, 3)}), "eligibility",
     "machine 1 not in eligible set (0,)"),
    (lambda pls: pls.update({(0, 1): Placement(0, 1, 1, 3, 6)}), "duration",
     "duration 3 != processing_time 2"),
    (lambda pls: pls.pop((0, 0)), "precedence", "op 0 of job 0 unplaced"),
])
def test_validate_schedule_names_the_one_edited_fault(edit, kind, detail):
    # these checks need the instance, so only a Schedule reaches them
    inst = build_instance([[(0, 3, None), (1, 2, None)]], num_machines=2)
    sched = Schedule(inst)
    for task in inst.tasks:
        sched.place_task(task, *sched.best_machine(task))
    assert validate_schedule(sched) == []
    edit(sched._placements)
    assert [(v.kind, v.detail) for v in validate_schedule(sched)] == [(kind, detail)]


def test_makespan_empty_and_parallel():
    inst = build_instance([[(0, 5, None)], [(1, 7, None)]], num_machines=2)
    sched = Schedule(inst)
    assert sched.makespan == 0
    sched.place_task(inst.task(0, 0), 0, 0)
    assert sched.makespan == 5
    sched.place_task(inst.task(1, 0), 1, 0)
    assert sched.makespan == 7


@pytest.mark.parametrize("seed", range(12))
def test_constructive_validity_fuzz(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    shapes = [
        jssp_config(num_jobs=4, tasks_per_job=3, num_machines=3, seed=seed),
        fjssp_config(num_jobs=3, tasks_per_job=4, num_machines=3, seed=seed),
        jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3, with_tools=True,
                    num_tools=2, seed=seed),
    ]
    for cfg in shapes:
        inst = generate_instance(cfg, 0)
        before = 0
        sched = Schedule(inst)
        while not sched.complete:
            jobs = [j for j in range(inst.num_jobs) if sched.next_op[j] < inst.tasks_per_job]
            j = jobs[rng.integers(len(jobs))]
            task = inst.task(j, sched.next_op[j])
            m, s = sched.best_machine(task)
            # left-shift optimality: one step earlier must be infeasible
            if s > sched.job_ready[j]:
                busy = [list(zip(*sched.busy()[m]))]
                if task.tool is not None:
                    busy.append(list(zip(*sched.busy()[inst.num_machines + task.tool])))
                assert any(
                    s - 1 < e and s - 1 + task.processing_time > b
                    for lst in busy
                    for (b, e) in lst
                )
            sched.place_task(task, m, s)
            assert sched.makespan >= before  # monotone
            before = sched.makespan
        assert validate_schedule(sched) == []
        # incremental timelines agree with a rebuild from placements
        rebuilt = Schedule(inst)
        by_job_order = sorted(sched.placements.values(), key=lambda p: (p.start, p.job_id, p.op_index))
        placed = {j: 0 for j in range(inst.num_jobs)}
        remaining = list(by_job_order)
        while remaining:
            progress = False
            for p in list(remaining):
                if placed[p.job_id] == p.op_index:
                    rebuilt.place_task(inst.task(p.job_id, p.op_index), p.machine, p.start)
                    placed[p.job_id] += 1
                    remaining.remove(p)
                    progress = True
            assert progress
        assert rebuilt.busy() == sched.busy()


def test_no_public_handle_can_free_an_interval():
    # a caller once freed [0, 3) through the live machine timeline, after which
    # place_task accepted job 1 on [0, 2) and validate_schedule found an overlap
    inst = build_instance([[(0, 3, None)], [(0, 2, None)]], num_machines=1)
    sched = Schedule(inst)
    sched.place_task(inst.task(0, 0), 0, 0)
    for name, value in vars(sched).items():
        if not name.startswith("_"):
            values = value if isinstance(value, (list, tuple)) else [value]
            assert not any(isinstance(v, Timeline) for v in values), name
    busy = sched.busy()
    assert busy == (((0,), (3,)),)
    assert type(busy) is tuple and all(type(c) is tuple for columns in busy for c in columns)
    with pytest.raises(ConstraintViolationError) as exc:
        sched.place_task(inst.task(1, 0), 0, 0)
    assert (exc.value.resource, exc.value.interval) == ("machine 0", (0, 3))
    assert validate_schedule(sched) == []


@pytest.mark.parametrize("rule", list(DispatchRule), ids=lambda rule: rule.value)
@pytest.mark.parametrize("seed", range(3))
def test_busy_matches_placements_along_rule_rollouts(seed, rule):
    rng = np.random.Generator(np.random.Philox(key=seed))
    shapes = [
        jssp_config(num_jobs=4, tasks_per_job=3, num_machines=3, seed=seed),
        jssp_config(num_jobs=4, tasks_per_job=3, num_machines=3, with_tools=True,
                    num_tools=2, seed=seed),
        fjssp_config(num_jobs=4, tasks_per_job=3, num_machines=3, seed=seed),
    ]
    for cfg in shapes:
        inst = generate_instance(cfg, 0)
        env = SchedulingEnv(inst)
        obs, mask = env.reset()
        policy = rule_policy(rule, rng)
        done = False
        while not done:
            result = env.step(policy(obs, mask))
            obs, mask, done = result.observation, result.mask, result.done
            # machine m at m, tool t at num_machines + t
            expected = [[] for _ in range(inst.num_machines + inst.num_tools)]
            for pl in env.schedule.placements.values():
                expected[pl.machine].append((pl.start, pl.end))
                if pl.tool is not None:
                    expected[inst.num_machines + pl.tool].append((pl.start, pl.end))
            busy = env.schedule.busy()
            assert [list(zip(*columns)) for columns in busy] == [sorted(r) for r in expected]
            assert all(type(c) is tuple for columns in busy for c in columns)


def test_timeline_operations():
    tl = Timeline()
    tl.add(5, 9)
    tl.add(0, 3)
    assert tl.columns() == ([0, 5], [3, 9])
    assert tl.earliest_fit(0, 2) == 3
    assert tl.earliest_fit(0, 3) == 9
    assert tl.earliest_fit(9, 1) == 9
    assert sum(e - s for s, e in zip(*tl.columns())) == 7
    assert tl.first_conflict(2, 4) == (0, 3)
    assert tl.first_conflict(3, 5) is None
    assert tl.first_conflict(3, 6) == (5, 9)
    tl.remove(0, 3)
    assert tl.columns() == ([5], [9])
    with pytest.raises(InternalError, match=r"^interval \[0,3\) not present$"):
        tl.remove(0, 3)


def test_schedule_record_roundtrip(tmp_path):
    inst = build_instance(
        [[(0, 2, 0), (1, 3, None)], [(1, 2, 0), (0, 4, 1)]], num_machines=2, num_tools=2
    )
    sched = Schedule(inst)
    for j in [0, 1, 0, 1]:
        task = inst.task(j, sched.next_op[j])
        m, s = sched.best_machine(task)
        sched.place_task(task, m, s)
    record = schedule_to_record(sched)
    assert validate_schedule(record) == []
    path = tmp_path / "schedule.json"
    write_schedule(record, path)
    assert read_schedule(path) == record


def two_job_record_dict():
    # machine 0: (0,0) [0,3); machine 1: (1,0) [0,2), (0,1) [3,5)
    return {
        "instance_id": "x", "num_jobs": 2, "num_machines": 2, "makespan": 5,
        "placements": [
            {"job": 0, "op": 0, "machine": 0, "start": 0, "end": 3},
            {"job": 0, "op": 1, "machine": 1, "start": 3, "end": 5},
            {"job": 1, "op": 0, "machine": 1, "start": 0, "end": 2},
        ],
    }


def test_placement_is_an_immutable_hashable_keyword_value():
    p = Placement(job_id=1, op_index=0, machine=2, start=3, end=5, tool=0)
    assert (p.job_id, p.op_index, p.machine, p.start, p.end, p.tool) == (1, 0, 2, 3, 5, 0)
    assert Placement(job_id=1, op_index=0, machine=2, start=3, end=5).tool is None
    with pytest.raises(AttributeError):
        p.start = 4
    twin = Placement(job_id=1, op_index=0, machine=2, start=3, end=5, tool=0)
    assert twin == p and hash(twin) == hash(p) and len({p, twin}) == 1


@pytest.mark.parametrize("with_tool", [False, True])
def test_record_dict_round_trip_unchanged(with_tool):
    data = two_job_record_dict()
    if with_tool:
        data["placements"][1]["tool"] = 0
    record = record_from_dict(json.loads(json.dumps(data)))
    assert all(type(p) is Placement for p in record.placements)
    assert record_to_dict(record) == data
    assert record_from_dict(record_to_dict(record)) == record


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(makespan=4), "makespan 4 below the last end 5"),
    (lambda d: d["placements"][2].update(machine=2), "machine 2 outside num_machines 2"),
    (lambda d: d["placements"][2].update(job=2), "job 2 outside num_jobs 2"),
    (lambda d: d["placements"].append(dict(d["placements"][1], machine=0)),
     r"\(job, op\) placed twice"),
], ids=["makespan-below-last-end", "machine-out-of-range", "job-out-of-range", "repeated-job-op"])
def test_read_schedule_rejects_header_contradicting_placements(tmp_path, edit, message):
    data = two_job_record_dict()
    assert validate_schedule(record_from_dict(data)) == []
    edit(data)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedRecordError, match=message):
        read_schedule(path)


@pytest.mark.parametrize("edit, fragment", [
    (lambda d: d["placements"][1].update(start=3.5), "placements[1].start: 3.5 loads as 3"),
    (lambda d: d.update(makespan="5"), "makespan: '5' loads as 5"),
    (lambda d: d["placements"][0].update(colour="red"), "placements[0].colour: unknown field"),
], ids=["fractional-start", "string-makespan", "unknown-key"])
def test_record_from_dict_rejects_what_would_load_changed(edit, fragment):
    data = two_job_record_dict()
    edit(data)
    with pytest.raises(MalformedRecordError) as exc:
        record_from_dict(data)
    assert str(exc.value) == f"bad schedule record: {fragment}"


@pytest.mark.parametrize("edit, fragment", [
    (lambda d: d.pop("num_jobs"), "KeyError('num_jobs')"),
    (lambda d: d["placements"][0].update(start="soon"), "ValueError"),
    (lambda d: d.update(placements=None), "TypeError"),
], ids=["missing-key", "non-integer-start", "placements-not-a-list"])
def test_record_from_dict_rejects_malformed_record(edit, fragment):
    data = two_job_record_dict()
    edit(data)
    with pytest.raises(MalformedRecordError, match="^bad schedule record: ") as exc:
        record_from_dict(data)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("start, end, kind, detail", [
    (3, 3, "duration", "empty interval [3,3)"),
    (-1, 2, "negative-time", "start -1 < 0"),
], ids=["empty-interval", "negative-start"])
def test_validate_record_names_duration_and_negative_time_apart(start, end, kind, detail):
    data = two_job_record_dict()
    data["placements"][2].update(start=start, end=end)
    assert [(v.kind, v.detail) for v in validate_schedule(record_from_dict(data))] == [(kind, detail)]


def test_mutation_off_by_one_overlap_is_caught(monkeypatch):
    """Mutation smoke test: a placer with an off-by-one in the busy-interval
    boundary produces schedules the independent validator flags."""
    from schedlab.schedule import Timeline

    real_fit = Timeline.earliest_fit

    def buggy_fit(self, t, duration):
        fit = real_fit(self, t, duration)
        return fit - 1 if fit > t else fit  # shifts one unit into the previous interval

    monkeypatch.setattr(Timeline, "earliest_fit", buggy_fit)
    monkeypatch.setattr(Timeline, "first_conflict", lambda self, s, e: None)

    inst = build_instance([[(0, 3, None)], [(0, 2, None)]], num_machines=1)
    sched = Schedule(inst)
    for j in (0, 1):
        task = inst.task(j, 0)
        m, s = sched.best_machine(task)
        sched.place_task(task, m, s)
    kinds = {v.kind for v in validate_schedule(sched)}
    assert "machine-overlap" in kinds
