import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from schedlab.errors import (
    ConfigurationError,
    DigestMismatchError,
    MalformedRecordError,
)
from schedlab.instances import (
    Instance,
    generate_batch,
    generate_instance,
    instance_digest,
    instance_from_record,
    instance_to_record,
    read_instances,
    write_instances,
)

from conftest import fjssp_config, jssp_config

PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_6x6_jssp_each_job_visits_each_machine_once():
    cfg = jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6, seed=42)
    inst = generate_instance(cfg, 0)
    assert inst.num_tasks == 36
    for j in range(6):
        machines = sorted(inst.task(j, k).eligible_machines[0] for k in range(6))
        assert machines == list(range(6))


def test_3x4_tool_constrained_instance():
    cfg = jssp_config(num_jobs=3, tasks_per_job=4, num_machines=4, with_tools=True,
                      num_tools=2, seed=7)
    inst = generate_instance(cfg, 0)
    assert len(inst.tasks) == 12
    assert all(t.tool in (0, 1) for t in inst.tasks)


def test_degenerate_single_task_instance():
    cfg = jssp_config(num_jobs=1, tasks_per_job=1, num_machines=1, runtime_lo=5, runtime_hi=5)
    inst = generate_instance(cfg, 0)
    task = inst.tasks[0]
    assert task.eligible_machines == (0,)
    assert task.processing_time == 5


def test_generation_is_deterministic():
    cfg = jssp_config(count=3, seed=123)
    a = generate_instance(cfg, 2)
    b = generate_instance(cfg, 2)
    assert a == b
    assert instance_to_record(a) == instance_to_record(b)


def test_jssp_uniform_machines_when_shapes_differ():
    cfg = jssp_config(num_jobs=4, tasks_per_job=3, num_machines=5, seed=5)
    inst = generate_instance(cfg, 0)
    assert all(len(t.eligible_machines) == 1 for t in inst.tasks)
    assert all(0 <= t.eligible_machines[0] < 5 for t in inst.tasks)


def test_fjssp_eligible_sets():
    cfg = fjssp_config(num_jobs=3, tasks_per_job=3, num_machines=4, seed=9)
    inst = generate_instance(cfg, 0)
    for t in inst.tasks:
        assert 1 <= len(t.eligible_machines) <= 4
        assert list(t.eligible_machines) == sorted(set(t.eligible_machines))


def test_runtime_bounds_and_uniformity():
    cfg = jssp_config(num_jobs=10, tasks_per_job=10, num_machines=10, count=100, seed=77)
    runtimes = [
        t.processing_time for i in range(100) for t in generate_instance(cfg, i).tasks
    ]
    assert len(runtimes) == 10_000
    assert min(runtimes) >= 1 and max(runtimes) <= 10
    counts = np.bincount(runtimes, minlength=11)[1:]
    freqs = counts / len(runtimes)
    assert freqs.min() >= 0.08 and freqs.max() <= 0.12


def test_batch_count_and_distinct_ids():
    cfg = jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3, count=100, seed=1)
    batch = generate_batch(cfg)
    assert len(batch) == 100
    assert len({inst.id for inst in batch}) == 100
    assert batch[0] == generate_instance(cfg, 0)


def test_singleton_batch():
    cfg = jssp_config(count=1, seed=4)
    assert generate_batch(cfg) == [generate_instance(cfg, 0)]


def test_batch_determinism():
    cfg = jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, count=10, seed=11)
    assert generate_batch(cfg) == generate_batch(cfg)


def test_stream_independent_of_count():
    # splitting a batch must not change the instances in either split
    small = jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, count=3, seed=8)
    large = dataclasses.replace(small, count=10)
    for i in range(3):
        assert generate_instance(small, i) == generate_instance(large, i)


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("num_jobs", 0, "num_jobs"),
        ("tasks_per_job", 0, "tasks_per_job"),
        ("num_machines", -1, "num_machines"),
        ("runtime_lo", 0, "runtime_lo"),
        ("runtime_hi", 0, "runtime_hi"),
        ("count", 0, "count"),
        ("num_tools", 5, "num_tools"),
        ("problem_type", "jssp", r"^problem_type: expected one of \['jssp', 'fjssp'\]$"),
        ("with_tools", True, "^num_tools: must be >= 1 when with_tools, got 0$"),
    ],
)
def test_invalid_config_names_field(field, value, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        generate_instance(dataclasses.replace(jssp_config(), **{field: value}), 0)


def test_stream_index_out_of_range():
    cfg = jssp_config(count=2)
    with pytest.raises(ConfigurationError, match="stream_index"):
        generate_instance(cfg, 2)


def test_duplicate_digest_raises_configuration_error():
    # runtime_lo == runtime_hi with a 1x1x1 shape leaves no randomness, so
    # distinct streams yield byte-identical content: the config's fault
    cfg = jssp_config(num_jobs=1, tasks_per_job=1, num_machines=1, runtime_lo=5,
                      runtime_hi=5, count=3, seed=0)
    prefix = generate_instance(cfg, 0).id[:12]
    with pytest.raises(ConfigurationError, match=f"^streams 0 and 1 generate the same instance {prefix}; "):
        generate_batch(cfg)


def test_roundtrip_many_instances(tmp_path):
    cfg = fjssp_config(num_jobs=3, tasks_per_job=2, num_machines=3, count=250, seed=21,
                       with_tools=True, num_tools=2)
    cfg2 = jssp_config(num_jobs=2, tasks_per_job=4, num_machines=4, count=250, seed=22)
    batch = generate_batch(cfg) + generate_batch(cfg2)
    path = tmp_path / "mixed.jsonl"
    write_instances(batch, path)
    assert read_instances(path) == batch


def test_roundtrip_preserves_annotation(tmp_path):
    inst = generate_instance(jssp_config(seed=3), 0).annotated(55, "optimal")
    path = tmp_path / "one.jsonl"
    write_instances([inst], path)
    back = read_instances(path)[0]
    assert back.optimal_makespan == 55 and back.proof_status == "optimal"
    assert back == inst


def test_annotation_with_unknown_proof_status_rejected():
    with pytest.raises(MalformedRecordError, match="^bad proof_status 'proved'$"):
        generate_instance(jssp_config(seed=3), 0).annotated(55, "proved")


def test_read_detects_tampered_runtime(tmp_path):
    inst = generate_instance(jssp_config(seed=6), 0)
    record = instance_to_record(inst)
    record["tasks"][0]["p"] += 1  # stale id
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DigestMismatchError):
        read_instances(path)


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_instances(path) == []


def test_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_instances(tmp_path / "nope.jsonl")


def test_read_malformed_line(tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(MalformedRecordError):
        read_instances(path)


def _set_task(key, value):
    return lambda record: record["tasks"][0].update({key: value})


@pytest.mark.parametrize("tools, edit, fragment", [
    (False, lambda record: record["tasks"].pop(), "expected 4 tasks, got 3"),
    (False, _set_task("op", 1), "task 0 has (job=0, op=1), expected (0, 0)"),
    (False, _set_task("p", 0), "task (0,0) has processing_time 0"),
    (False, _set_task("machines", []), "task (0,0) has no machines"),
    (False, _set_task("machines", [0, 1]), "JSSP task (0,0) has 2 eligible machines"),
    (False, _set_task("machines", [2]), "task (0,0) references machine out of range"),
    (True, _set_task("tool", 2), "task (0,0) references tool 2 out of range [0, 2)"),
    (True, lambda record: record["tasks"][0].pop("tool"),
     "with_tools instance but task (0,0) has no tool"),
    (False, lambda record: record.update(optimal_makespan=9),
     "annotated makespan without a valid proof_status"),
    (False, lambda record: record.update(optimal_makespan=9, proof_status="guessed"),
     "annotated makespan without a valid proof_status"),
])
def test_record_rejected_naming_its_fault(tools, edit, fragment):
    cfg = jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, with_tools=tools,
                      num_tools=2 if tools else 0, seed=8)
    record = instance_to_record(generate_instance(cfg, 0))
    edit(record)
    with pytest.raises(MalformedRecordError) as exc:
        instance_from_record(record)
    assert fragment in str(exc.value)


def _edit_task(index, **changes):
    def edit(fields):
        tasks = list(fields["tasks"])
        tasks[index] = dataclasses.replace(tasks[index], **changes)
        return {"tasks": tuple(tasks)}
    return edit


# per fault: whether the 2x2 instance has two tools, the fields the fault
# changes (given the valid instance's fields) and the message after its id
CONSTRUCTION_FAULTS = {
    "machine-above-range": (False, _edit_task(0, eligible_machines=(2,)),
                            "task (0,0) references machine out of range"),
    "machine-below-range": (False, _edit_task(3, eligible_machines=(-1,)),
                            "task (1,1) references machine out of range"),
    "tool-above-range": (True, _edit_task(0, tool=2), "task (0,0) references tool 2 out of range [0, 2)"),
    "tool-below-range": (True, _edit_task(2, tool=-1),
                         "task (1,0) references tool -1 out of range [0, 2)"),
    "tool-without-tools": (False, _edit_task(0, tool=0), "task (0,0) references tool 0 out of range [0, 0)"),
    "misordered-tasks": (False, lambda f: {"tasks": (f["tasks"][1], f["tasks"][0], *f["tasks"][2:])},
                         "task 0 has (job=0, op=1), expected (0, 0)"),
    "misordered-last-task": (False, _edit_task(3, op_index=0), "task 3 has (job=1, op=0), expected (1, 1)"),
    "zero-processing-time": (False, _edit_task(1, processing_time=0), "task (0,1) has processing_time 0"),
    "missing-task": (False, lambda f: {"tasks": f["tasks"][:-1]}, "expected 4 tasks, got 3"),
    "extra-task": (False, lambda f: {"tasks": f["tasks"] + f["tasks"][-1:]}, "expected 4 tasks, got 5"),
    "no-jobs": (False, lambda f: {"num_jobs": 0}, "num_jobs must be >= 1, got 0"),
    "no-ops": (False, lambda f: {"tasks_per_job": 0, "tasks": ()}, "tasks_per_job must be >= 1, got 0"),
    "no-machines": (False, lambda f: {"num_machines": 0}, "num_machines must be >= 1, got 0"),
    "no-eligible-machine": (False, _edit_task(0, eligible_machines=()), "task (0,0) has no machines"),
    "jssp-two-machines": (False, _edit_task(0, eligible_machines=(0, 1)),
                          "JSSP task (0,0) has 2 eligible machines"),
    "tool-instance-task-without-tool": (True, _edit_task(1, tool=None),
                                        "with_tools instance but task (0,1) has no tool"),
    "makespan-without-proof-status": (False, lambda f: {"optimal_makespan": 9},
                                      "annotated makespan without a valid proof_status"),
    "makespan-with-unknown-proof-status": (False,
                                           lambda f: {"optimal_makespan": 9, "proof_status": "guessed"},
                                           "annotated makespan without a valid proof_status"),
}


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("case", sorted(CONSTRUCTION_FAULTS))
def test_building_an_instance_rejects_every_fault(case, build):
    """No invalid Instance exists: the reader's rules and messages hold for a
    hand-built instance and for a ``dataclasses.replace`` of a valid one."""
    tools, edit, fragment = CONSTRUCTION_FAULTS[case]
    cfg = jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, with_tools=tools,
                      num_tools=2 if tools else 0, seed=8)
    valid = generate_instance(cfg, 0)
    fields = {field.name: getattr(valid, field.name) for field in dataclasses.fields(valid)}
    changes = edit(fields)
    with pytest.raises(MalformedRecordError) as exc:
        if build == "constructor":
            Instance(**{**fields, **changes})
        else:
            dataclasses.replace(valid, **changes)
    assert str(exc.value) == f"instance {valid.id[:12]}: {fragment}"


@pytest.mark.parametrize("tools, edit, fragment", [
    (False, _set_task("p", 4.5), "tasks[0].p: 4.5 loads as 4"),
    (False, lambda record: record.update(num_jobs=2.9), "num_jobs: 2.9 loads as 2"),
    (False, lambda record: record.update(num_jobs="2"), "num_jobs: '2' loads as 2"),
    (False, lambda record: record.update(colour="red"), "colour: unknown field"),
    (False, _set_task("due", 9), "tasks[0].due: unknown field"),
    (True, lambda record: record.update(with_tools=False), "with_tools: False loads as True"),
], ids=["fractional-p", "fractional-num-jobs", "string-num-jobs", "unknown-key", "unknown-task-key",
        "with-tools-flipped"])
def test_record_that_would_load_changed_is_rejected(tools, edit, fragment):
    # with_tools follows from num_tools, so a record whose flag disagrees loads changed
    cfg = jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, runtime_lo=4, runtime_hi=4, seed=8,
                      with_tools=tools, num_tools=2 if tools else 0)
    record = instance_to_record(generate_instance(cfg, 0))
    edit(record)
    with pytest.raises(MalformedRecordError) as exc:
        instance_from_record(record)
    assert str(exc.value) == f"bad instance record: {fragment}"


@pytest.mark.parametrize("key", ["num_machines", "meta"])
def test_record_missing_a_key_names_its_line(tmp_path, key):
    record = instance_to_record(generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2), 0))
    path = tmp_path / "missing.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({k: v for k, v in record.items() if k != key}) + "\n")
    with pytest.raises(MalformedRecordError) as exc:
        read_instances(path)
    assert str(exc.value) == f"{path}:2: bad instance record: KeyError('{key}')"


def test_record_values_equal_to_their_ints_load():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, seed=8), 0)
    record = instance_to_record(inst)
    record["tasks"][0]["p"] = float(record["tasks"][0]["p"])
    record["meta"]["generator_version"] = True
    assert instance_from_record(record) == inst


@pytest.mark.parametrize("path", sorted(PERFBENCH_DATA.glob("*.jsonl")), ids=lambda p: p.name)
def test_committed_bench_sets_round_trip_byte_identical(tmp_path, path):
    out = tmp_path / path.name
    write_instances(read_instances(path), out)
    assert out.read_bytes() == path.read_bytes()


def test_digest_equal_for_equal_instances():
    a = generate_instance(jssp_config(seed=13), 0)
    b = generate_instance(jssp_config(seed=13), 0)
    assert instance_digest(a) == instance_digest(b) == a.id


def test_digest_changes_when_runtime_flips():
    inst = generate_instance(jssp_config(seed=14), 0)
    tasks = list(inst.tasks)
    tasks[0] = dataclasses.replace(tasks[0], processing_time=tasks[0].processing_time + 1)
    other = dataclasses.replace(inst, tasks=tuple(tasks))
    assert instance_digest(other) != instance_digest(inst)


def test_digest_ignores_annotation():
    inst = generate_instance(jssp_config(seed=15), 0)
    assert instance_digest(inst.annotated(99, "feasible")) == instance_digest(inst)
