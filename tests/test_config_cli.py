import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import schedlab
from schedlab.cli import main
from schedlab.config import (
    EvalSettings,
    SplitConfig,
    config_digest,
    load_experiment_config,
    run_id,
)
from schedlab.dqn import DqnConfig
from schedlab.env import RewardMode
from schedlab.errors import ConfigurationError
from schedlab.files import canonical_json, write_text
from schedlab.instances import (
    GeneratorConfig,
    generate_instance,
    read_instances,
    write_instances,
)
from schedlab.nn import init_mlp, save_model
from schedlab.ppo import PpoConfig
from schedlab.solver import SolveLimits

from conftest import jssp_config

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_config(tmp_path, algo="dqn", reward="dense", methods=("model", "spt", "random"),
                seeds=(0, 1), **overrides):
    data = {
        "problem": {
            "problem_type": "jssp",
            "num_jobs": 2,
            "tasks_per_job": 2,
            "num_machines": 2,
            "runtime_lo": 1,
            "runtime_hi": 9,
            "seed": 5,
        },
        "split": {"train_count": 4, "test_count": 3},
        "algo": algo,
        "dqn": {"total_steps": 300, "batch_size": 16, "replay_capacity": 1000, "seed": 1},
        "ppo": {"total_steps": 128, "steps_per_update": 32, "epochs": 2,
                "minibatch_size": 16, "seed": 1},
        "reward_mode": reward,
        "eval": {"methods": list(methods), "seeds": list(seeds)},
        "paths": {
            "instances_dir": str(tmp_path / "data"),
            "models_dir": str(tmp_path / "models"),
            "results_dir": str(tmp_path / "results"),
        },
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=1))
    return path


def test_load_shipped_default_config():
    config = load_experiment_config(REPO_CONFIGS / "default_6x6.json")
    assert config.problem.num_jobs == 6 and config.problem.tasks_per_job == 6
    assert config.algo == "ppo"
    assert isinstance(config.algo_config, PpoConfig)
    assert config.algo_config.total_steps == 100_000
    assert config.reward_mode is RewardMode.DENSE_MAKESPAN_DELTA
    assert config.problem.count == 150


def test_shipped_configs_differ_only_in_problem_and_reward():
    dense = load_experiment_config(REPO_CONFIGS / "default_6x6.json")
    sparse = load_experiment_config(REPO_CONFIGS / "tool_3x4_sparse.json")
    assert dense.algo_config == sparse.algo_config  # training parameters constant
    assert dense.reward_mode != sparse.reward_mode
    assert sparse.problem.with_tools and sparse.problem.num_jobs == 3
    assert sparse.problem.tasks_per_job == 4


@pytest.mark.parametrize("name, expected", [
    ("default_6x6", "0bfe0addb1a0-s0"),
    ("tool_3x4_sparse", "8609cfab9fdc-s0"),
])
def test_shipped_run_ids_pinned(name, expected):
    # the run id names every model, metrics and eval file of a shipped pipeline
    assert run_id(load_experiment_config(REPO_CONFIGS / f"{name}.json")) == expected


def config_with(tmp_path, dotted, value):
    """tiny_config with the value at a dotted path replaced; the algo follows the section."""
    path = tiny_config(tmp_path, algo="dqn" if dotted.startswith("dqn") else "ppo")
    data = json.loads(path.read_text())
    *parents, key = dotted.split(".")
    node = data
    for name in parents:
        node = node[name]
    node[key] = value
    path.write_text(json.dumps(data))
    return path


def test_integer_in_float_field_keeps_run_id(tmp_path):
    config = load_experiment_config(config_with(tmp_path, "ppo.discount", 1))
    assert config.algo_config.discount == 1
    assert run_id(config) == "0723250d7113-s1"


@pytest.mark.parametrize("dotted, value", [
    ("ppo.total_steps", "10"),
    ("ppo.learning_rate", "x"),
    ("ppo.minibatch_size", None),
    ("problem.num_jobs", "6"),
    ("split", [1, 2]),
    ("eval", [1]),
    ("dqn.hidden", 5),
    ("ppo.epochs", 1.5),
    ("ppo.hidden", "ab"),
    ("problem.num_jobs", 6.0),
    ("ppo.seed", 1.5),
    ("problem.runtime_hi", 10.5),
    ("paths.models_dir", 5),
    ("problem.with_tools", "yes"),
    ("dqn.batch_size", True),
    ("ppo", [1]),
    ("eval.seeds", [0, "1"]),
    ("reward_mode", ["dense"]),
    ("ppo.learning_rate", float("nan")),
])
def test_cli_wrong_json_type_exit_2(tmp_path, capsys, dotted, value):
    cfg_path = config_with(tmp_path, dotted, value)
    assert main(["generate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {dotted}") and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("dotted, value", [
    ("ppo.hidden", [-1, 4]),
    ("dqn.hidden", [64, 0]),
    ("dqn.eps_decay_steps", -5),
    ("dqn.eps_decay_steps", 0),
    ("dqn.eps_start", 1.5),
])
def test_cli_range_error_exit_2(tmp_path, capsys, dotted, value):
    # instances exist, so without the check training would start
    assert main(["generate", "--config", str(tiny_config(tmp_path))]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(config_with(tmp_path, dotted, value))]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {dotted}")


@pytest.mark.parametrize("first, second", [
    (("eps_start", 0.1), ("eps_end", 0.5)),
    # a buffer that never holds a batch would train with no learning step
    (("replay_capacity", 10), ("batch_size", 64)),
], ids=["eps_end", "batch_size"])
def test_cli_eps_end_above_eps_start_exit_2(tmp_path, capsys, first, second):
    path = config_with(tmp_path, f"dqn.{first[0]}", first[1])
    data = json.loads(path.read_text())
    data["dqn"][second[0]] = second[1]
    path.write_text(json.dumps(data))
    assert main(["generate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: dqn.{second[0]}")
    assert not (tmp_path / "data").exists()


def test_cli_train_dqn_that_never_fills_a_batch_exit_2(tmp_path, capsys):
    # 4 train instances of 2x2: 40 steps store 40 transitions, fewer than a batch of 64
    cfg_path = tiny_config(tmp_path, dqn={"total_steps": 40, "batch_size": 64, "seed": 1})
    assert main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err == ("config error: batch_size: must be <= the 40 transitions a run of "
                   "total_steps 40 stores, got 64\n")
    assert out == "" and not (tmp_path / "models").exists()


NAN = float("nan")
# every bounded field with values outside its range: below, above where the
# range is closed above, NaN for floats, one bad entry for tuples
OUT_OF_RANGE = {
    PpoConfig: {
        "total_steps": [0], "steps_per_update": [0], "epochs": [-1], "minibatch_size": [0],
        "clip_ratio": [0.0, 1.0, NAN], "discount": [0.0, 1.5, NAN], "gae_lambda": [0.0, 1.5, NAN],
        "learning_rate": [0.0, NAN], "hidden": [(64, 0)], "seed": [-1, 2**128],
    },
    DqnConfig: {
        "total_steps": [0], "replay_capacity": [0], "batch_size": [0],
        "learning_rate": [0.0, NAN], "discount": [0.0, 1.5, NAN], "target_sync_interval": [0],
        "eps_start": [-0.1, 1.5, NAN], "eps_end": [-0.1, 1.5, NAN], "eps_decay_steps": [0],
        "hidden": [(0, 64)], "seed": [-1, 2**128],
    },
    GeneratorConfig: {
        "num_jobs": [0], "tasks_per_job": [0], "num_machines": [0], "runtime_lo": [0],
        "count": [0], "seed": [-1, 2**64],
    },
    SplitConfig: {"train_count": [0], "test_count": [0]},
    EvalSettings: {"seeds": [(0, -1), (0, 2**64)]},
    SolveLimits: {"node_limit": [0], "time_limit_s": [-1.0, NAN]},
}
VALID = {PpoConfig: PpoConfig(), DqnConfig: DqnConfig(), GeneratorConfig: jssp_config(),
         SplitConfig: SplitConfig(1, 1), EvalSettings: EvalSettings(), SolveLimits: SolveLimits()}


def test_out_of_range_table_covers_every_bounded_field():
    for cls, fields in OUT_OF_RANGE.items():
        assert set(fields) == {f.name for f in dataclasses.fields(cls) if "range" in f.metadata}


@pytest.mark.parametrize("cls, field, value", [
    (cls, field, value)
    for cls, fields in OUT_OF_RANGE.items() for field, values in fields.items() for value in values
])
def test_out_of_range_field_rejected_at_construction(cls, field, value):
    with pytest.raises(ConfigurationError) as exc:
        dataclasses.replace(VALID[cls], **{field: value})
    assert str(exc.value).startswith(field)


def test_range_boundaries_accepted():
    assert PpoConfig(epochs=0, discount=1).epochs == 0
    assert DqnConfig(eps_start=0.3, eps_end=0.3, eps_decay_steps=None).eps_end == 0.3
    assert DqnConfig(replay_capacity=64, batch_size=64).batch_size == 64
    assert PpoConfig(seed=2**128 - 1).seed == DqnConfig(seed=2**128 - 1).seed == 2**128 - 1
    assert jssp_config(seed=2**64 - 1).seed == 2**64 - 1
    assert EvalSettings(seeds=(0, 2**64 - 1)).seeds == (0, 2**64 - 1)
    assert SolveLimits(time_limit_s=0).time_limit_s == 0


@pytest.mark.parametrize("algo, other", [("ppo", "dqn"), ("dqn", "ppo")])
def test_section_of_the_other_algo_checked(tmp_path, capsys, algo, other):
    # a section that is not trained is still a section of the file: a typo in it exits 2
    cfg_path = tiny_config(tmp_path, algo=algo, **{other: {"bogus": 1, "learning_rate": -5}})
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert f"{other}.bogus: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("dotted, value, message", [
    ("algo", "sac", "algo: expected 'ppo' or 'dqn', got 'sac'"),
    ("problem.count", 5, "problem.count: must equal train_count + test_count (7), got 5"),
], ids=["unknown-algo", "count-not-the-split-total"])
def test_cli_root_rule_error_exit_2(tmp_path, capsys, dotted, value, message):
    assert main(["generate", "--config", str(config_with(tmp_path, dotted, value))]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "data").exists()


def test_cli_generate_of_identical_instances_exit_2(tmp_path, capsys):
    # one machine, one task and one runtime: every stream gives the same instance
    problem = {"problem_type": "jssp", "num_jobs": 1, "tasks_per_job": 1, "num_machines": 1,
               "runtime_lo": 5, "runtime_hi": 5, "seed": 5}
    cfg_path = tiny_config(tmp_path, problem=problem)
    prefix = generate_instance(load_experiment_config(cfg_path).problem, 0).id[:12]
    assert main(["generate", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: streams 0 and 1 generate the same instance {prefix}; ")
    assert out == "" and not (tmp_path / "data").exists()


def test_unknown_root_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match=r"<root>\.path: unknown field"):
        load_experiment_config(tiny_config(tmp_path, path={"models_dir": "m"}))


def test_hand_built_config_algo_follows_algo_config(tmp_path):
    config = load_experiment_config(tiny_config(tmp_path, algo="ppo"))
    assert config.algo == "ppo"
    assert dataclasses.replace(config, algo_config=DqnConfig()).algo == "dqn"


def test_missing_field_has_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"problem": {"problem_type": "jssp"}}))
    with pytest.raises(ConfigurationError, match="split"):
        load_experiment_config(path)


def test_bad_field_value_has_path(tmp_path):
    path = tiny_config(tmp_path)
    data = json.loads(path.read_text())
    data["problem"]["num_jobs"] = 0
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="problem.num_jobs"):
        load_experiment_config(path)


def test_unknown_eval_method_rejected(tmp_path):
    path = tiny_config(tmp_path, methods=("sptx",))
    with pytest.raises(ConfigurationError, match="eval.methods"):
        load_experiment_config(path)


def test_run_id_stability(tmp_path):
    path = tiny_config(tmp_path)
    a = load_experiment_config(path)
    b = load_experiment_config(path)
    assert config_digest(a) == config_digest(b)
    assert run_id(a).endswith("-s1")


def test_dqn_config_selected(tmp_path):
    config = load_experiment_config(tiny_config(tmp_path, algo="dqn"))
    assert isinstance(config.algo_config, DqnConfig)
    assert config.algo_config.total_steps == 300


def test_cli_generate_solve_train_test_plot(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)

    assert main(["generate", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "4 train" in out and "3 test" in out
    train_file = tmp_path / "data" / "train.jsonl"
    test_file = tmp_path / "data" / "test.jsonl"
    assert len(read_instances(train_file)) == 4
    assert len(read_instances(test_file)) == 3
    # disjoint stream indices: no overlap between splits
    train_ids = {i.id for i in read_instances(train_file)}
    test_ids = {i.id for i in read_instances(test_file)}
    assert not (train_ids & test_ids)

    assert main(["solve", "--instances", str(tmp_path / "data")]) == 0
    out = capsys.readouterr().out
    assert "optimal" in out
    solved = [line for line in out.splitlines() if "status=optimal" in line]
    assert len(solved) == 7 and all("gap=0.00%" in line for line in solved)
    assert all(i.proof_status == "optimal" for i in read_instances(test_file))

    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    model_files = list((tmp_path / "models").glob("*.model.json"))
    metrics_files = list((tmp_path / "results").glob("*.metrics.jsonl"))
    assert len(model_files) == 1 and len(metrics_files) == 1

    assert main(["test", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "method" in out and "spt" in out
    csv_files = list((tmp_path / "results").glob("*.eval.csv"))
    assert len(csv_files) == 1
    header = csv_files[0].read_text().splitlines()[0]
    assert header == "method,instance_id,seed,makespan,return,gap,wall_time_ms"

    # plot a solver schedule for one instance
    from schedlab.schedule import write_schedule
    from schedlab.solver import solve_optimal

    inst = read_instances(test_file)[0]
    result = solve_optimal(inst)
    sched_path = tmp_path / "schedule.json"
    write_schedule(result.schedule, sched_path)
    svg_path = tmp_path / "chart.svg"
    assert main(["plot", "--schedule", str(sched_path), "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    bars = [r for r in root.iter("{http://www.w3.org/2000/svg}rect")
            if r.get("class") == "bar"]
    assert len(bars) == inst.num_tasks


def test_cli_reproducible_outputs(tmp_path, capsys):
    # identical config + seed => byte-identical instance, metrics, csv files
    outputs = []
    for sub in ("one", "two"):
        base = tmp_path / sub
        base.mkdir()
        cfg_path = tiny_config(base)
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--instances", str(base / "data")]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["test", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        blobs = {}
        for f in sorted((base / "data").glob("*.jsonl")):
            blobs[f.name] = f.read_bytes()
        for f in sorted((base / "results").iterdir()):
            blobs[f.name] = f.read_bytes()
        for f in sorted((base / "models").iterdir()):
            blobs[f.name] = f.read_bytes()
        outputs.append(blobs)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"


def test_cli_methods_random_only(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path, methods=("random",), seeds=(0, 1, 2))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    table_lines = [l for l in out.splitlines() if l and not l.startswith("records")]
    assert len(table_lines) == 2  # header + one method row


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": {"problem_type": "jssp"}}))
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "split" in err


@pytest.mark.parametrize("command", ["generate", "train", "test"])
def test_cli_config_directory_exit_2(tmp_path, capsys, command):
    assert main([command, "--config", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err == f"config error: config file not found: {tmp_path}\n" and out == ""


def test_cli_test_without_model_fails(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["test", "--config", str(cfg_path)]) == 1
    assert "model" in capsys.readouterr().err


def test_cli_test_model_of_other_size_exit_2(tmp_path, capsys):
    # a 6-job model on the 2-job test set: 25 inputs and 6 actions, not 9 and 2
    cfg_path = tiny_config(tmp_path)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    model_path = tmp_path / "six_jobs.model.json"
    save_model(init_mlp([25, 8, 6], np.random.default_rng(0)).astype(np.float32), model_path)
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path), "--model", str(model_path)]) == 2
    out, err = capsys.readouterr()
    assert str(model_path) in err and "Traceback" not in err
    assert "25 inputs to 6 actions" in err and "9 inputs and 2 actions" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("arrays", [
    {"dims": [5], "weights": [], "biases": []},
    {"dims": [9, 2], "weights": [[[0.0, 0.0]] * 9], "biases": [[[0.0], [0.0]]]},
])
def test_cli_test_malformed_model_exit_1(tmp_path, capsys, arrays):
    cfg_path = tiny_config(tmp_path)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    model_path = tmp_path / "bad.model.json"
    model_path.write_text(json.dumps({"format": "mlp-params", "version": 2, **arrays}))
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_path}: dims") and "Traceback" not in err
    assert not (tmp_path / "results").exists()


def test_cli_test_version_1_model_exit_2(tmp_path, capsys):
    # a well-formed model of format version 1 (float64 weights), as schedlab wrote it before
    cfg_path = tiny_config(tmp_path)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    model_path = tmp_path / "old.model.json"
    net = init_mlp([9, 8, 2], np.random.default_rng(0))
    model_path.write_text(json.dumps({
        "format": "mlp-params", "version": 1, "dims": net.dims(),
        "weights": [w.tolist() for w in net.weights], "biases": [b.tolist() for b in net.biases],
    }))
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path), "--model", str(model_path)]) == 2
    out, err = capsys.readouterr()
    assert err == (
        f"error: {model_path}: model format version 1, expected 2 (float32 weights); "
        "retrain the model with `schedlab train`\n"
    )
    assert not (tmp_path / "results").exists()


def test_cli_test_without_instances_fails(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["test", "--config", str(cfg_path)]) == 1
    test_path = split_file(cfg_path, "test")
    assert capsys.readouterr().err == f"error: {test_path} not found; run `schedlab generate` first\n"
    assert not (tmp_path / "results").exists()


def test_cli_train_without_instances_fails(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "generate" in capsys.readouterr().err


@pytest.mark.parametrize("algo, where", [("ppo", "update 0"), ("dqn", "step ")])
def test_cli_train_divergence_is_one_error_line(tmp_path, capsys, algo, where):
    """A learning rate of 1e30 drives either trainer to a non-finite loss:
    `schedlab train` exits 1, and its stderr is one `error:` line that names
    where: no traceback and no numpy warning (a separate process, so nothing
    catches what main lets out)."""
    cfg_path = config_with(tmp_path, f"{algo}.learning_rate", 1e30)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    src = str(Path(schedlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "schedlab.cli", "train", "--config", str(cfg_path)],
                         env=env, capture_output=True, text=True)
    lines = run.stderr.splitlines()
    assert run.returncode == 1 and len(lines) == 1, run.stderr
    assert lines[0].startswith(f"error: non-finite {algo.upper()} loss at {where}")
    assert not list((tmp_path / "models").glob("*"))


def split_file(cfg_path, name):
    return Path(load_experiment_config(cfg_path).paths.instances_dir) / f"{name}.jsonl"


@pytest.mark.parametrize("algo", ["ppo", "dqn"])
@pytest.mark.parametrize("content", ["empty", "mixed"])
def test_cli_train_on_untrainable_file_exit_2(tmp_path, capsys, algo, content):
    cfg_path = tiny_config(tmp_path, algo=algo)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    train_path = split_file(cfg_path, "train")
    if content == "empty":
        train_path.write_text("")
    else:  # the 2-job split plus one 3-job instance
        extra = generate_instance(jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2), 0)
        write_instances(read_instances(train_path) + [extra], train_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(train_path) in err and "Traceback" not in err
    assert ("no instances" if content == "empty" else "2-job and 3-job") in err
    assert not (tmp_path / "models").exists() and not (tmp_path / "results").exists()


@pytest.mark.parametrize("methods, code", [(("model", "spt"), 2), (("spt", "random"), 0)],
                         ids=["model", "rules"])
def test_cli_test_on_mixed_file(tmp_path, capsys, methods, code):
    """A model takes one job count, so a test split that mixes counts exits 2
    and names the file before any model file is looked up; the rules take it."""
    cfg_path = tiny_config(tmp_path, methods=methods)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    test_path = split_file(cfg_path, "test")
    extra = generate_instance(jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2), 0)
    write_instances(read_instances(test_path) + [extra], test_path)
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path)]) == code
    if code == 2:
        assert capsys.readouterr().err == (
            f"error: {test_path}: mixes 2-job and 3-job instances; a model takes one job count\n"
        )
        assert not (tmp_path / "results").exists()


def test_cli_test_on_empty_file_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path, methods=("spt", "random"))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    test_path = split_file(cfg_path, "test")
    test_path.write_text("")
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{test_path}: holds no instances" in err and "Traceback" not in err
    assert not (tmp_path / "results").exists()


def test_cli_solve_empty_dir(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["solve", "--instances", str(empty)]) == 0
    assert "0 optimal" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["missing", "file"])
def test_cli_solve_rejects_missing_or_file_path(tmp_path, capsys, target):
    path = tmp_path / "instances.jsonl"
    if target == "file":
        path.write_text("")
    assert main(["solve", "--instances", str(path)]) == 1
    out, err = capsys.readouterr()
    assert str(path) in err and "solved:" not in out


def test_cli_solve_reports_zero_job_file(tmp_path, capsys):
    # no Instance holds zero jobs, so the record is written as JSON, its id the content digest
    data = tmp_path / "data"
    record = {"problem_type": "jssp", "with_tools": False, "num_jobs": 0, "tasks_per_job": 3,
              "num_machines": 2, "num_tools": 0, "tasks": [],
              "meta": {"seed": 0, "generator_version": 1}}
    record["id"] = hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()
    write_text(data / "empty.jsonl", canonical_json(record) + "\n")
    assert main(["solve", "--instances", str(data)]) == 1
    err = capsys.readouterr().err
    assert "empty.jsonl" in err and "num_jobs" in err


@pytest.mark.parametrize("field, command, overrides", [
    ("eval.seeds", "test", {"eval": {"methods": ["spt", "random"], "seeds": [0, -1]}}),
    ("ppo.seed", "train", {"algo": "ppo", "ppo": {"total_steps": 32, "seed": -1}}),
    ("dqn.seed", "train", {"dqn": {"total_steps": 32, "seed": -1}}),
    ("eval.seeds", "test", {"eval": {"methods": ["spt", "random"], "seeds": [0, 2**64]}}),
    ("ppo.seed", "train", {"algo": "ppo", "ppo": {"total_steps": 32, "seed": 2**128}}),
    ("dqn.seed", "train", {"dqn": {"total_steps": 32, "seed": 2**128}}),
])
def test_cli_negative_seed_exit_2(tmp_path, capsys, field, command, overrides):
    # instances exist, so without the check the out-of-range seed reaches Philox and raises
    assert main(["generate", "--config", str(tiny_config(tmp_path))]) == 0
    cfg_path = tiny_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, methods, seeds", [
    ("eval.methods", ("spt", "spt", "random"), (0, 1)),
    ("eval.seeds", ("spt", "random"), (0, 0, 1)),
])
def test_cli_repeated_eval_entry_exit_2(tmp_path, capsys, field, methods, seeds):
    # a repeat would write its records twice and weight a seed twice in the mean
    assert main(["generate", "--config", str(tiny_config(tmp_path))]) == 0
    cfg_path = tiny_config(tmp_path, methods=methods, seeds=seeds)
    assert main(["test", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "repeated" in err
    assert not (tmp_path / "results").exists()


def test_cli_solve_node_limit_one_reports_every_bound(tmp_path, capsys):
    # the limit applies after the first dive, which can already prove a tiny instance
    cfg_path = tiny_config(tmp_path)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--instances", str(tmp_path / "data"), "--node-limit", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    solved = [line for line in lines if " status=" in line]
    assert len(solved) == 7 and all(" lb=" in line and " gap=" in line for line in solved)
    optimal = sum(" status=optimal " in line for line in solved)
    feasible = sum(" status=feasible " in line for line in solved)
    assert lines[-1] == f"solved: {optimal} optimal, {feasible} feasible, 0 files failed"
    assert optimal + feasible == 7 and feasible > 0
    # 2x2 instances: a stopped search counts the 4 tasks' dive and one node more
    assert all(" nodes=5 " in line for line in solved if " status=feasible " in line)


@pytest.mark.parametrize("flag,value", [("--node-limit", "-5"), ("--node-limit", "0"),
                                        ("--time-limit", "-1"), ("--time-limit", "nan")])
def test_cli_solve_bad_limits_exit_2_and_leave_files(tmp_path, capsys, flag, value):
    cfg_path = tiny_config(tmp_path)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["solve", "--instances", str(tmp_path / "data")]) == 0
    files = sorted((tmp_path / "data").glob("*.jsonl"))
    before = [f.read_bytes() for f in files]
    capsys.readouterr()
    assert main(["solve", "--instances", str(tmp_path / "data"), flag, value]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: " + flag[2:].replace("-", "_")) and out == ""
    assert [f.read_bytes() for f in files] == before


def test_cli_solve_reports_bad_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "junk.jsonl").write_text("{broken\n")
    assert main(["solve", "--instances", str(data)]) == 1
    assert "junk" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["invalid json", "directory"])
def test_cli_solve_error_names_file_once(tmp_path, capsys, kind):
    data = tmp_path / "data"
    data.mkdir()
    bad = data / "x.jsonl"
    if kind == "invalid json":
        bad.write_text("{nope")
    else:  # reading it raises IsADirectoryError, an OSError
        bad.mkdir()
    assert main(["solve", "--instances", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count(str(bad)) == 1 and "Traceback" not in err
    if kind == "invalid json":
        assert err.startswith(f"error: {bad}:1: invalid JSON")


def test_cli_test_rejected_record_names_file_and_line(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path, methods=("spt",))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    test_path = split_file(cfg_path, "test")
    lines = test_path.read_text().splitlines()
    record = json.loads(lines[1])
    record["tasks"][0]["p"] = 5.5
    lines[1] = json.dumps(record)
    test_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["test", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {test_path}:2: bad instance record: tasks[0].p: 5.5 loads as 5")
    assert "Traceback" not in err


NOT_UTF8 = b"\xff\xfe{\x00}\x00\n"  # starts like a UTF-16 byte-order mark


def assert_one_error_line(err, path):
    assert err.startswith(f"error: {path}:") and "not UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_solve_reports_non_utf8_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    bad = data / "x.jsonl"
    bad.write_bytes(NOT_UTF8)
    assert main(["solve", "--instances", str(data)]) == 1
    out, err = capsys.readouterr()
    assert_one_error_line(err, bad)
    assert "1 files failed" in out and bad.read_bytes() == NOT_UTF8


@pytest.mark.parametrize("command, split", [("train", "train"), ("test", "test")])
def test_cli_train_and_test_report_non_utf8_split(tmp_path, capsys, command, split):
    cfg_path = tiny_config(tmp_path, methods=("spt",))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    path = split_file(cfg_path, split)
    path.write_bytes(NOT_UTF8)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 1
    assert_one_error_line(capsys.readouterr().err, path)


def test_cli_plot_reports_non_utf8_schedule(tmp_path, capsys):
    bad = tmp_path / "schedule.json"
    bad.write_bytes(NOT_UTF8)
    svg = tmp_path / "x.svg"
    assert main(["plot", "--schedule", str(bad), "--out", str(svg)]) == 1
    assert_one_error_line(capsys.readouterr().err, bad)
    assert not svg.exists()


def test_cli_plot_out_is_a_directory_exit_1(tmp_path, capsys):
    # the OSError of the write reaches main, which reports it in one line
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({
        "instance_id": "x", "num_jobs": 1, "num_machines": 1, "makespan": 3,
        "placements": [{"job": 0, "op": 0, "machine": 0, "start": 0, "end": 3}],
    }))
    out_dir = tmp_path / "charts"
    out_dir.mkdir()
    assert main(["plot", "--schedule", str(schedule), "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: [Errno") and str(out_dir) in err and err.count("\n") == 1
    assert out == "" and list(out_dir.iterdir()) == []


def test_cli_plot_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["plot", "--schedule", str(bad), "--out", str(tmp_path / "x.svg")]) == 1


def test_cli_plot_rejects_invalid_schedule(tmp_path, capsys):
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({
        "instance_id": "x", "num_jobs": 1, "num_machines": 1, "makespan": 4,
        "placements": [
            {"job": 0, "op": 0, "machine": 0, "start": 0, "end": 3},
            {"job": 0, "op": 1, "machine": 0, "start": 2, "end": 4},
        ],
    }))
    assert main(["plot", "--schedule", str(bad), "--out", str(tmp_path / "x.svg")]) == 1
    assert "cannot render" in capsys.readouterr().err


def test_cli_plot_rejects_makespan_below_placements(tmp_path, capsys):
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps({
        "instance_id": "x", "num_jobs": 1, "num_machines": 1, "makespan": 2,
        "placements": [{"job": 0, "op": 0, "machine": 0, "start": 0, "end": 3}],
    }))
    svg = tmp_path / "x.svg"
    assert main(["plot", "--schedule", str(bad), "--out", str(svg)]) == 1
    assert "makespan 2 below the last end 3" in capsys.readouterr().err
    assert not svg.exists()


def test_cli_import_leaves_network_and_mail_modules_unloaded():
    """``import schedlab.cli`` pulls in no urllib/http/email/ssl/socket stack."""
    heavy = ["urllib.request", "http.client", "email", "ssl", "socket"]
    code = f"import sys, schedlab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(schedlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
