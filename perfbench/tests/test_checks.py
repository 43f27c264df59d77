"""Each check of the benchmark rejects the broken output it is meant to catch.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import time
from pathlib import Path
from types import SimpleNamespace as NS

import pytest

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent.parent


def _task(job, op, machine, p, tool=None):
    return NS(job_id=job, op_index=op, eligible_machines=(machine,), processing_time=p, tool=tool)


# job 0: (m0, 3, tool 0), (m1, 2); job 1: (m1, 4, tool 0), (m0, 1)
# lower bound 7: tool 0 carries 3 + 4
INSTANCE = NS(tasks=[_task(0, 0, 0, 3, 0), _task(0, 1, 1, 2), _task(1, 0, 1, 4, 0), _task(1, 1, 0, 1)])


def _pl(job, op, machine, start, end, tool=None):
    return NS(job_id=job, op_index=op, machine=machine, start=start, end=end, tool=tool)


def _feasible():
    return {
        (0, 0): _pl(0, 0, 0, 0, 3, 0),
        (1, 0): _pl(1, 0, 1, 3, 7, 0),
        (0, 1): _pl(0, 1, 1, 7, 9),
        (1, 1): _pl(1, 1, 0, 7, 8),
    }


def _errors(changes, makespan):
    placements = _feasible()
    placements.update(changes)
    return checks.check_schedule(INSTANCE, placements.values(), makespan)


def test_lower_bound():
    assert checks.lower_bound(INSTANCE) == 7


def test_feasible_schedule_passes():
    assert _errors({}, 9) == []


@pytest.mark.parametrize(
    "changes, makespan, expected",
    [
        ({(0, 1): _pl(0, 1, 1, 6, 8)}, 8, "machine 1: [3,7) overlaps [6,8)"),
        ({(1, 0): _pl(1, 0, 1, 2, 6, 0), (1, 1): _pl(1, 1, 0, 7, 8)}, 9, "tool 0: [0,3) overlaps [2,6)"),
        ({(1, 1): _pl(1, 1, 0, 5, 6)}, 9, "task (1, 1) starts at 5 before its predecessor ends at 7"),
        ({(0, 1): _pl(0, 1, 1, 7, 10)}, 10, "task (0, 1) lasts 3, processing time is 2"),
        ({(1, 1): _pl(1, 1, 1, 9, 10)}, 10, "task (1, 1) on machine 1, eligible (0,)"),
        ({(0, 0): _pl(0, 0, 0, 0, 3, None)}, 9, "task (0, 0) holds tool None, needs 0"),
        ({}, 8, "makespan 8 is not the last end 9"),
    ],
)
def test_broken_schedule_rejected(changes, makespan, expected):
    errors = _errors(changes, makespan)
    assert expected in errors, errors


def test_missing_task_rejected():
    placements = _feasible()
    del placements[(1, 1)]
    assert "tasks not placed: [(1, 1)]" in checks.check_schedule(INSTANCE, placements.values(), 9)


def test_makespan_below_lower_bound_rejected():
    # every task squeezed into [0, 4): overlaps, and a last end below the bound
    squeezed = [
        _pl(0, 0, 0, 0, 3, 0), _pl(0, 1, 1, 0, 2), _pl(1, 0, 1, 0, 4, 0), _pl(1, 1, 0, 0, 1),
    ]
    assert "makespan 4 below the lower bound 7" in checks.check_schedule(INSTANCE, squeezed, 4)


def test_reference_optimum():
    assert checks.check_optimum("abc", 9, {"abc": 9}) == []
    assert checks.check_optimum("abc", 10, {"abc": 9})
    assert checks.check_optimum("abc", 8, {"abc": 9})
    assert checks.check_optimum("abc", 9, {})


def test_reward_telescoping():
    # total processing time 10
    assert checks.check_return(INSTANCE, 9, -0.9) == []
    assert checks.check_return(INSTANCE, 9, -0.8)


def _record(**extra):
    record = {"num_jobs": 1, "tasks": [{"job": 0, "op": 0, "machines": [0], "p": 3}]}
    record["id"] = checks.canonical_digest(record)
    record.update(extra)
    return record


def test_instance_file(tmp_path):
    good = _record(optimal_makespan=3, proof_status="optimal")
    path = tmp_path / "test.jsonl"
    path.write_text(json.dumps(good) + "\n")
    assert checks.check_instance_file(path) == ([], {good["id"]: 3})

    bad_id = dict(good, id="0" * 64)
    unproven = dict(good, proof_status="feasible")
    path.write_text(json.dumps(bad_id) + "\n" + json.dumps(unproven) + "\n")
    errors, _ = checks.check_instance_file(path)
    assert any("not the digest" in e for e in errors)
    assert any("not annotated optimal" in e for e in errors)


def _csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "instance_id", "seed", "makespan", "return", "gap", "wall_time_ms"])
        writer.writerows(rows)


@pytest.mark.parametrize(
    "row, expected_rows, expected",
    [
        (None, 2, None),
        (["solver", "a", "", "11", "-1.0", repr(1 / 10), "0.0"], 2, "solver makespan 11.0 != annotation 10"),
        (["spt", "a", "", "9", "-1.0", repr(-1 / 10), "0.0"], 2, "spt makespan 9.0 beats the optimum 10"),
        (["spt", "a", "", "12", "-1.0", "0.25", "0.0"], 2, "gap '0.25' != (C - C*)/C*"),
        (None, 3, "2 rows, expected 3"),
    ],
)
def test_eval_csv(tmp_path, row, expected_rows, expected):
    rows = [["solver", "a", "", "10", "-1.0", "0.0", "0.0"], ["random", "a", "0", "12", "-1.0", repr(2 / 10), "0.0"]]
    if row is not None:
        rows[0] = row
    _csv(tmp_path / "eval.csv", rows)
    errors, _ = checks.check_eval_csv(tmp_path / "eval.csv", {"a": 10}, expected_rows)
    if expected is None:
        assert errors == []
    else:
        assert any(expected in e for e in errors), errors


def test_program_schedules_pass():
    import schedlab as sl

    inst = inputs.load_set(inputs.SOLVE_TOOLS, 0)[0]
    result = sl.solve_optimal(inst)
    assert checks.check_schedule(inst, result.schedule.placements.values(), result.makespan) == []
    makespan, ret, schedule = sl.run_episode(
        sl.rule_policy(sl.DispatchRule.SPT), inst, sl.RewardMode.DENSE_MAKESPAN_DELTA
    )
    assert checks.check_schedule(inst, schedule.placements.values(), makespan) == []
    assert checks.check_return(inst, makespan, ret) == []


# generator version the committed files were written with
COMMITTED_GENERATOR_VERSION = 1


def test_committed_sets_are_pinned():
    """The committed files hold their own content: ids are digests, meta is as recorded.

    A later generator cannot move them. While the generator is still at the
    committed version, its seed-0 batches must also equal the files.
    """
    import schedlab as sl
    from schedlab.instances import GENERATOR_VERSION

    for spec in inputs.ALL_SETS:
        records = [json.loads(line) for line in spec.path.read_text().splitlines() if line.strip()]
        assert len(records) == spec.count
        for record in records:
            assert record["id"] == checks.canonical_digest(record)
            assert record["meta"] == {
                "generator_version": COMMITTED_GENERATOR_VERSION,
                "seed": inputs.derived_seed(spec.name, inputs.COMMITTED_SEED),
            }
            assert (record["num_jobs"], record["num_machines"], record["num_tools"]) == (
                spec.num_jobs, spec.num_machines, spec.num_tools,
            )
            assert all(1 <= t["p"] <= spec.runtime_hi for t in record["tasks"])
        if GENERATOR_VERSION == COMMITTED_GENERATOR_VERSION:
            generated = sl.generate_batch(spec.generator_config(inputs.COMMITTED_SEED))
            assert [r["id"] for r in records] == [i.id for i in generated]
    assert sorted(inputs.reference_optima()) == sorted(i.id for i in inputs.solve_set())


def test_benchmark_json_workloads_match_runner():
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    spans = tracer.summary()
    assert spans["inner"]["calls"] == 2 and spans["outer"]["calls"] == 1
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["total_s"] - spans["inner"]["total_s"])
    assert tracer.total_under("inner", "outer") == (2, pytest.approx(spans["inner"]["total_s"]))
