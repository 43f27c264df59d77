"""Golden digests of the CLI outputs that do not depend on floating-point BLAS.

``generate → solve → test`` runs through ``cli.main`` on a tiny JSSP config
and a tiny tool config, with every rule and the solver but no model (model
rows depend on the BLAS build). The SHA-256 digests of both instance files
after ``solve``, the ``schedlab solve`` stdout and the evaluation CSV were
recorded once and must not move: a refactor that changes any of these bytes
is a behaviour change. Criterion 7 only compares two runs of the same tree,
so it cannot see such a change. A second digest pins every rule's makespan and
return on one generated 20x20 and one 50x20 instance, which a change to the
rules, the environment or the placement cannot move unnoticed. Changing the
instance generator (its draws or its seed streams) changes these digests on
purpose; update them with it.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.cli import main
from schedlab.env import RewardMode
from schedlab.evaluate import run_episode
from schedlab.instances import generate_instance

from conftest import jssp_config

PROBLEMS = {
    "jssp": {
        "problem_type": "jssp", "num_jobs": 3, "tasks_per_job": 3, "num_machines": 3,
        "runtime_lo": 1, "runtime_hi": 9, "seed": 11,
    },
    "tools": {
        "problem_type": "jssp", "with_tools": True, "num_jobs": 3, "tasks_per_job": 4,
        "num_machines": 4, "num_tools": 2, "runtime_lo": 1, "runtime_hi": 10, "seed": 43,
    },
}

GOLDEN = {
    "jssp": {
        "train.jsonl": "2e3d7fbf325d18d3f87327fb4f736b2d017bdf8eb626be75e45aeb2e59210387",
        "test.jsonl": "f4a8ea008bceea8fbbf0e23fdcec8f5a68097d145ac9f739d3aa975ab6364ed1",
        "solve.stdout": "7d9d0e1011c4b8ff62c3d0706034ed5f46390ffec7bf294dd8eec519c0c721c1",
        "eval.csv": "041f8fb3ec4792ba8012a1be4d6ea7256ab5226341ddac19ebbd3ce9c81b0825",
    },
    "tools": {
        "train.jsonl": "df0456baa98a649f244e84a9c9d97775ee8cbb1384f548ad108aabf4cc02c95f",
        "test.jsonl": "2c90f4ff27929d5e9fce4eba43db1d1b9071babb6cf50640ded88c48f7b1c97e",
        "solve.stdout": "f5447b8a5c6a2adb8fed52627f5ee3d0b975248eb81339db09244903dd9a1ba5",
        "eval.csv": "472e9ec2c3e6080dfa43187bc8d49abacbdd167a1ca8fd039bd340a3eab666b7",
    },
}


def run_pipeline(base, problem: dict) -> dict[str, str]:
    """Run generate, solve and test under ``base``; SHA-256 of each output."""
    config = {
        "problem": problem,
        "split": {"train_count": 4, "test_count": 4},
        "algo": "dqn",
        "reward_mode": "dense",
        "eval": {"methods": ["spt", "lpt", "mtr", "random", "solver"], "seeds": [0, 1, 2]},
        "paths": {
            "instances_dir": str(base / "data"),
            "models_dir": str(base / "models"),
            "results_dir": str(base / "results"),
        },
    }
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(config))
    solve_out = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(cfg_path)]) == 0
    with contextlib.redirect_stdout(solve_out):
        assert main(["solve", "--instances", str(base / "data")]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["test", "--config", str(cfg_path)]) == 0
    (csv_path,) = (base / "results").glob("*.eval.csv")

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "train.jsonl": sha((base / "data" / "train.jsonl").read_bytes()),
        "test.jsonl": sha((base / "data" / "test.jsonl").read_bytes()),
        "solve.stdout": sha(solve_out.getvalue().encode("utf-8")),
        "eval.csv": sha(csv_path.read_bytes()),
    }


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_cli_outputs_match_golden_digests(tmp_path, name):
    assert run_pipeline(tmp_path, PROBLEMS[name]) == GOLDEN[name]


ROLLOUTS_GOLDEN = "b46ea4d15caa42f489fa7ca56bd1558af26774541735c3ae952600466f70cc06"


def test_rule_rollouts_match_golden_digest():
    rows = []
    for num_jobs in (20, 50):
        cfg = jssp_config(num_jobs=num_jobs, tasks_per_job=20, num_machines=20, seed=7)
        inst = generate_instance(cfg, 0)
        for rule in DispatchRule:
            rng = np.random.Generator(np.random.Philox(key=3)) if rule is DispatchRule.RANDOM else None
            makespan, ret, _ = run_episode(rule_policy(rule, rng), inst, RewardMode.DENSE_MAKESPAN_DELTA)
            rows.append((rule.value, makespan, ret))
    assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == ROLLOUTS_GOLDEN
