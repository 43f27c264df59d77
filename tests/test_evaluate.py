import json
import threading

import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.env import RewardMode
from schedlab.errors import ConfigurationError, InstanceSetError, InvalidActionError, MalformedRecordError
from schedlab.evaluate import (
    CSV_HEADER,
    EvalRecord,
    EvalSettings,
    evaluate,
    run_episode,
    summarize,
    write_records_csv,
)
from schedlab.instances import generate_instance
from schedlab.metrics import MetricsEvent, read_metrics, write_metrics
from schedlab.nn import init_mlp
from schedlab.solver import solve_optimal

from conftest import jssp_config

DENSE = RewardMode.DENSE_MAKESPAN_DELTA


def test_run_episode_spt_single_task(single_task_instance):
    ms, ret, schedule = run_episode(rule_policy(DispatchRule.SPT), single_task_instance, DENSE)
    assert ms == 5 and ret == -1.0
    assert schedule.complete


def test_run_episode_deterministic_repeat():
    inst = generate_instance(jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3,
                                         seed=15), 0)
    a = run_episode(rule_policy(DispatchRule.MTR), inst, DENSE)
    b = run_episode(rule_policy(DispatchRule.MTR), inst, DENSE)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2].placements == b[2].placements


def test_run_episode_seeded_random_reproduces():
    inst = generate_instance(jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3,
                                         seed=16), 0)

    def run(seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        return run_episode(rule_policy(DispatchRule.RANDOM, rng), inst, DENSE)

    assert run(5)[0] == run(5)[0]
    assert run(5)[2].placements == run(5)[2].placements


def test_run_episode_invalid_policy_blamed():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=17), 0)
    calls = {"n": 0}

    def bad_policy(obs, mask):
        calls["n"] += 1
        return 0  # keeps picking job 0 even when masked

    with pytest.raises(InvalidActionError, match="policy"):
        run_episode(bad_policy, inst, DENSE)


def annotated_set(count=10, seed=100):
    cfg = jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2, count=count, seed=seed)
    instances = [generate_instance(cfg, i) for i in range(count)]
    return [i.annotated(r.makespan, r.proof_status) for i, r in zip(instances, map(solve_optimal, instances))]


def test_evaluate_counts_and_gap_sign():
    instances = annotated_set(10)
    records = evaluate(["spt", "random"], instances, DENSE, seeds=range(4))
    spt = [r for r in records if r.method == "spt"]
    rnd = [r for r in records if r.method == "random"]
    assert len(spt) == 10 and all(r.seed is None for r in spt)
    assert len(rnd) == 40
    for inst in instances:
        assert {r.seed for r in rnd if r.instance_id == inst.id} == set(range(4))
    assert all(r.gap is not None and r.gap >= 0 for r in records)


def test_evaluate_runs_iterators_it_checked():
    # the settings are checked on tuples; the run must not see the consumed iterators
    instances = annotated_set(2, seed=500)
    expected = evaluate(["spt", "random"], instances, DENSE, seeds=[0, 1])
    assert evaluate(iter(["spt", "random"]), instances, DENSE, seeds=iter([0, 1])) == expected
    assert len(expected) == 6


def test_evaluate_unannotated_has_no_gap():
    cfg = jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, count=3, seed=31)
    instances = [generate_instance(cfg, i) for i in range(3)]
    records = evaluate(["mtr"], instances, DENSE)
    assert all(r.gap is None for r in records)


def test_evaluate_solver_as_method_zero_gap():
    instances = annotated_set(5, seed=200)
    records = evaluate(["solver"], instances, DENSE)
    assert all(r.gap == 0.0 for r in records)
    assert all(r.makespan == inst.optimal_makespan for r, inst in zip(records, instances))


def test_evaluate_model_method():
    instances = annotated_set(3, seed=300)
    rng = np.random.Generator(np.random.Philox(key=0))
    params = init_mlp([13, 8, 8, 3], rng, output_gain=0.01)
    records = evaluate(["model"], instances, DENSE, model_params=params)
    assert len(records) == 3
    with pytest.raises(ConfigurationError, match="^method 'model' requires model_params$"):
        evaluate(["model"], instances, DENSE)


@pytest.mark.parametrize("dims, fragment", [
    ([13, 8, 8, 1], "maps 13 inputs to 1 actions, but 3-job instances need 13 inputs and 3 actions"),
    ([25, 8, 8, 6], "maps 25 inputs to 6 actions, but 3-job instances need 13 inputs and 3 actions"),
], ids=["one-output", "other-job-count"])
def test_evaluate_rejects_model_of_wrong_width_before_any_run(dims, fragment):
    # a 1-output net, such as a value network, would broadcast through greedy_action
    instances = annotated_set(3, seed=300)
    params = init_mlp(dims, np.random.Generator(np.random.Philox(key=0)))
    runs = []  # the timer is read at the start of every run
    with pytest.raises(InstanceSetError, match=fragment):
        evaluate(["spt", "model"], instances, DENSE, model_params=params,
                 timer=lambda: runs.append(1) or 0.0)
    assert runs == []
    assert len(evaluate(["spt"], instances, DENSE, model_params=params)) == 3


def test_evaluate_unknown_method_lists_valid_names():
    instances = annotated_set(2, seed=400)
    with pytest.raises(ConfigurationError) as exc:
        evaluate(["sptt"], instances, DENSE)
    assert str(exc.value) == ("methods: unknown method 'sptt'; "
                              "valid: spt, lpt, mtr, random, model, solver")


def test_summarize_single_record():
    rec = EvalRecord(method="spt", instance_id="x", makespan=7, episode_return=-0.5,
                     gap=0.1, wall_time_ms=2.0)
    table = summarize([rec])
    row = table.rows[0]
    assert row.count == 1
    assert row.mean_makespan == 7 and row.min_makespan == 7 and row.max_makespan == 7
    assert row.mean_return == -0.5 and row.mean_gap == 0.1


def test_summarize_mean_and_tie_order():
    records = [
        EvalRecord("b_rule", "i1", 5, -0.2, None),
        EvalRecord("b_rule", "i2", 7, -0.4, None),
        EvalRecord("a_rule", "i1", 6, -0.3, None),
        EvalRecord("a_rule", "i2", 6, -0.3, None),
    ]
    table = summarize(records)
    assert [r.method for r in table.rows] == ["a_rule", "b_rule"]  # tie at mean 6 -> name
    assert table.rows[1].mean_makespan == 6.0
    assert table.rows[0].mean_gap is None


def test_summarize_permutation_invariant():
    instances = annotated_set(6, seed=500)
    records = evaluate(["spt", "mtr", "random"], instances, DENSE, seeds=range(3))
    forward = summarize(records)
    backward = summarize(list(reversed(records)))
    assert forward == backward


def test_summarize_empty():
    assert summarize([]).rows == ()


def test_csv_header_and_reproducibility(tmp_path):
    instances = annotated_set(4, seed=600)
    paths = []
    for name in ("a.csv", "b.csv"):
        records = evaluate(["spt", "random"], instances, DENSE, seeds=(0, 1))
        path = tmp_path / name
        write_records_csv(records, path)
        paths.append(path)
    a, b = paths[0].read_bytes(), paths[1].read_bytes()
    assert a == b
    first_line = a.decode().splitlines()[0]
    assert first_line == ",".join(CSV_HEADER)
    # one row per run: 4 inst * (1 spt + 2 random seeds) + header
    assert len(a.decode().splitlines()) == 1 + 4 + 8
    # n counts instances, not runs
    assert {r.method: r.count for r in summarize(records).rows}["random"] == 4


def test_metrics_roundtrip(tmp_path):
    events = [
        MetricsEvent(run_id="r1", step=10, episode=1, scalars={"return": -0.5, "loss": 1.25}),
        MetricsEvent(run_id="r1", step=20, episode=2, scalars={"return": -0.25}),
    ]
    path = tmp_path / "metrics.jsonl"
    write_metrics(events, path)
    assert read_metrics(path) == events


@pytest.mark.parametrize("edit, fault", [
    (lambda line: line.pop("value"), "KeyError('value')"),
    (lambda line: line.update(step="ten"), "ValueError"),
], ids=["missing-value", "word-for-step"])
def test_read_metrics_names_the_bad_line(tmp_path, edit, fault):
    path = tmp_path / "metrics.jsonl"
    write_metrics([MetricsEvent(run_id="r1", step=10, episode=1, scalars={"a": 1.0, "b": 2.0})], path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    edit(lines[1])
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(MalformedRecordError) as exc:
        read_metrics(path)
    assert str(exc.value).startswith(f"{path}:2: bad metrics line: {fault}")


def test_concurrent_metrics_files_do_not_interleave(tmp_path):
    def writer(run_id, path):
        events = [MetricsEvent(run_id, i, i, {"v": float(i)}) for i in range(200)]
        write_metrics(events, path)

    threads = [
        threading.Thread(target=writer, args=(f"run{i}", tmp_path / f"run{i}.jsonl"))
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        events = read_metrics(tmp_path / f"run{i}.jsonl")
        assert len(events) == 200
        assert all(e.run_id == f"run{i}" for e in events)


@pytest.mark.parametrize("methods, seeds", [
    (["spt", "spt", "random"], [0, 1]),
    (["spt", "random"], [0, 0, 1]),
])
def test_evaluate_rejects_repeated_methods_and_seeds(methods, seeds):
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, seed=3), 0)
    with pytest.raises(ConfigurationError, match="repeated entries"):
        evaluate(methods, [inst], DENSE, seeds=seeds)


@pytest.mark.parametrize("methods, seeds", [
    (["spt", "sptt"], [0]),
    (["spt", "random", "spt"], [0]),
    (["random"], [3, 1, 3]),
    (["random"], []),
    (["random"], [0, -1]),
    (["random"], [2**64]),
])
def test_evaluate_rejects_what_eval_settings_rejects_before_any_run(methods, seeds):
    # one rule set: a library caller gets the error a config file with these entries gets
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, seed=3), 0)
    with pytest.raises(ConfigurationError) as expected:
        EvalSettings(tuple(methods), tuple(seeds))
    runs = []  # the timer is read at the start of every run
    with pytest.raises(ConfigurationError) as exc:
        evaluate(methods, [inst], DENSE, seeds=seeds, timer=lambda: runs.append(1) or 0.0)
    assert str(exc.value) == str(expected.value)
    assert runs == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_evaluate_rejects_seed_outside_philox_key_range_before_any_run(seed):
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, seed=3), 0)
    runs = []  # the timer is read at the start of every run
    with pytest.raises(ConfigurationError, match=rf"seeds\[1\]: must be in .*, got {seed}$"):
        evaluate(["spt", "random"], [inst], DENSE, seeds=[0, seed],
                 timer=lambda: runs.append(1) or 0.0)
    assert runs == []
    assert len(evaluate(["random"], [inst], DENSE, seeds=[2**64 - 1])) == 1
