"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`; every criterion is expected
to pass. Criterion 4a pins both SPT-vs-random orderings: the shipped
job-level SPT, which ranks all unfinished jobs, loses to the 20-seed random
mean under earliest-gap placement, while SPT restricted to the non-delay
conflict set beats random restricted the same way (see the Testing section
of the README).
"""

import dataclasses
import json
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.cli import main
from schedlab.config import load_experiment_config
from schedlab.env import RewardMode, SchedulingEnv, reset, step
from schedlab.evaluate import _episode_rng, evaluate, run_episode
from schedlab.gantt import render_svg
from schedlab.instances import generate_batch, generate_instance
from schedlab.nn import init_mlp, mlp_activations, mlp_forward, mlp_gradient
from schedlab.ppo import train_ppo
from schedlab.schedule import validate_schedule
from schedlab.solver import permutation_oracle, solve_optimal, timing_oracle

from conftest import fjssp_config, jssp_config

DENSE = RewardMode.DENSE_MAKESPAN_DELTA
SPARSE = RewardMode.SPARSE_TERMINAL
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_episode(inst, rng, mode=DENSE):
    env = SchedulingEnv(inst, mode)
    _, mask = reset(env)
    rewards = []
    actions = []
    while mask.any():
        valid = np.flatnonzero(mask)
        a = int(valid[rng.integers(len(valid))])
        actions.append(a)
        result = step(env, a)
        rewards.append(result.reward)
        mask = result.mask
    return env, rewards, actions


def test_criterion_1_validity_fuzz():
    """1,000 random-action episodes across problem shapes: zero violations, < 60 s."""
    t0 = time.perf_counter()
    shapes = [
        jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6),
        fjssp_config(num_jobs=6, tasks_per_job=6, num_machines=6),
        jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6, with_tools=True, num_tools=3),
        jssp_config(num_jobs=4, tasks_per_job=6, num_machines=5),
        fjssp_config(num_jobs=5, tasks_per_job=3, num_machines=4, with_tools=True, num_tools=2),
        jssp_config(num_jobs=3, tasks_per_job=4, num_machines=4, with_tools=True, num_tools=2),
        fjssp_config(num_jobs=2, tasks_per_job=5, num_machines=3),
        jssp_config(num_jobs=6, tasks_per_job=4, num_machines=6),
    ]
    rng = np.random.Generator(np.random.Philox(key=20240901))
    violations = 0
    for i in range(1000):
        cfg = dataclasses.replace(shapes[i % len(shapes)], seed=90_000 + i)
        inst = generate_instance(cfg, 0)
        env, _, _ = random_episode(inst, rng)
        found = validate_schedule(env.schedule)
        if found:
            print(f"violation at episode {i} (config seed {cfg.seed}): {found[0]}")
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report("1 validity-fuzz", ok, f"{violations} violations over 1000 episodes, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_2_oracle_equivalence():
    """solve == permutation oracle (200 x <=8 tasks); permutation == timing (200 x <=6)."""
    t0 = time.perf_counter()
    pool_a = [
        jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2),
        jssp_config(num_jobs=2, tasks_per_job=3, num_machines=2),
        jssp_config(num_jobs=3, tasks_per_job=2, num_machines=3),
        jssp_config(num_jobs=2, tasks_per_job=4, num_machines=3),
        jssp_config(num_jobs=4, tasks_per_job=2, num_machines=2),
        jssp_config(num_jobs=2, tasks_per_job=4, num_machines=4, with_tools=True, num_tools=3),
        jssp_config(num_jobs=4, tasks_per_job=2, num_machines=4, with_tools=True, num_tools=2),
        jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2, with_tools=True, num_tools=2),
        fjssp_config(num_jobs=2, tasks_per_job=2, num_machines=2),
        fjssp_config(num_jobs=3, tasks_per_job=2, num_machines=2),
        fjssp_config(num_jobs=2, tasks_per_job=3, num_machines=3),
        fjssp_config(num_jobs=2, tasks_per_job=2, num_machines=3, with_tools=True, num_tools=2),
    ]
    mismatches_a = 0
    for i in range(200):
        cfg = dataclasses.replace(pool_a[i % len(pool_a)], seed=50_000 + i)
        inst = generate_instance(cfg, 0)
        expected = permutation_oracle(inst)
        result = solve_optimal(inst)
        if result.proof_status != "optimal" or result.makespan != expected:
            print(f"solver mismatch at seed {cfg.seed}: {result.makespan} != {expected}")
            mismatches_a += 1

    pool_b = [
        jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2),
        jssp_config(num_jobs=2, tasks_per_job=3, num_machines=2),
        jssp_config(num_jobs=3, tasks_per_job=2, num_machines=3),
        jssp_config(num_jobs=1, tasks_per_job=4, num_machines=2),
        jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, with_tools=True, num_tools=2),
        jssp_config(num_jobs=3, tasks_per_job=2, num_machines=3, with_tools=True, num_tools=2),
        jssp_config(num_jobs=2, tasks_per_job=3, num_machines=2, with_tools=True, num_tools=2),
        jssp_config(num_jobs=6, tasks_per_job=1, num_machines=2, with_tools=True, num_tools=2),
        fjssp_config(num_jobs=2, tasks_per_job=2, num_machines=2),
        fjssp_config(num_jobs=3, tasks_per_job=2, num_machines=2),
    ]
    mismatches_b = 0
    for i in range(200):
        cfg = dataclasses.replace(pool_b[i % len(pool_b)], seed=60_000 + i)
        inst = generate_instance(cfg, 0)
        perm = permutation_oracle(inst)
        timed = timing_oracle(inst)
        if perm != timed:
            print(f"oracle mismatch at seed {cfg.seed}: perm {perm} != timing {timed}")
            mismatches_b += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches_a == 0 and mismatches_b == 0 and elapsed < 300.0
    report(
        "2 oracle-equivalence",
        ok,
        f"solver/perm {200 - mismatches_a}/200, perm/timing {200 - mismatches_b}/200, "
        f"{elapsed:.1f}s",
    )
    assert mismatches_a == 0 and mismatches_b == 0
    assert elapsed < 300.0


def test_criterion_3_telescoping():
    """Dense rewards sum to -makespan/UB within 1e-12 and equal the sparse return."""
    shapes = [
        jssp_config(num_jobs=4, tasks_per_job=4, num_machines=4),
        fjssp_config(num_jobs=3, tasks_per_job=4, num_machines=3),
        jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3, with_tools=True, num_tools=2),
        jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6),
    ]
    rng = np.random.Generator(np.random.Philox(key=31337))
    worst = 0.0
    for i in range(100):
        cfg = dataclasses.replace(shapes[i % len(shapes)], seed=70_000 + i)
        inst = generate_instance(cfg, 0)
        env, rewards, actions = random_episode(inst, rng, DENSE)
        dense_total = sum(rewards)
        expected = -env.schedule.makespan / env.ub
        worst = max(worst, abs(dense_total - expected))
        env2 = SchedulingEnv(inst, SPARSE)
        _, mask2 = reset(env2)
        sparse_total = 0.0
        for a in actions:
            sparse_total += step(env2, a).reward
        worst = max(worst, abs(dense_total - sparse_total))
    ok = worst < 1e-12
    report("3 telescoping", ok, f"max deviation {worst:.2e} over 100 episodes")
    assert worst < 1e-12


@pytest.fixture(scope="module")
def annotated_6x6_hundred():
    cfg = jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6, count=100, seed=1234)
    instances = generate_batch(cfg)
    return [i.annotated(r.makespan, r.proof_status) for i, r in zip(instances, map(solve_optimal, instances))]


def non_delay(rule, rng=None):
    """``rule`` applied only to the non-delay conflict set: the valid jobs whose
    next task has the minimal earliest feasible start (observation entry 4j+3)."""
    policy = rule_policy(rule, rng)

    def restricted(obs, mask):
        starts = np.where(mask, obs[3:-1:4], np.inf)
        return policy(obs, starts == starts.min())

    return restricted


def test_criterion_4a_spt_vs_random(annotated_6x6_hundred):
    """Both SPT-vs-random orderings, on 100 6x6 instances and 20 random seeds.

    The shipped SPT ranks all unfinished jobs by their next task. Under
    earliest-gap placement every rollout is an active schedule and random
    active schedules are decent, so job-level SPT is worse than the random
    mean. The conventional SPT <= RANDOM ordering belongs to rules that pick
    among the non-delay conflict set (Giffler & Thompson, 1960); restricting
    both policies to that set restores it.
    """
    seeds = range(20)
    records = evaluate(["spt", "random"], annotated_6x6_hundred, DENSE, seeds=seeds)
    spt = float(np.mean([r.makespan for r in records if r.method == "spt"]))
    rnd = float(np.mean([r.makespan for r in records if r.method == "random"]))

    nd_spt = float(np.mean([
        run_episode(non_delay(DispatchRule.SPT), inst, DENSE)[0]
        for inst in annotated_6x6_hundred
    ]))
    nd_rnd = float(np.mean([
        run_episode(non_delay(DispatchRule.RANDOM, _episode_rng(inst, seed)), inst, DENSE)[0]
        for inst in annotated_6x6_hundred
        for seed in seeds
    ]))

    ok = spt > rnd and nd_spt <= nd_rnd
    report(
        "4a spt-vs-random", ok,
        f"job-level spt {spt:.2f} vs random {rnd:.2f} (expect >); "
        f"non-delay spt {nd_spt:.2f} vs random {nd_rnd:.2f} (expect <=)",
    )
    assert spt > rnd, (
        f"job-level SPT ({spt:.2f}) no longer loses to the random mean ({rnd:.2f}): "
        "the rule, the env's placement or the random policy changed what is measured"
    )
    assert nd_spt <= nd_rnd, (
        f"non-delay SPT ({nd_spt:.2f}) loses to non-delay random ({nd_rnd:.2f}): "
        "the SPT priority key or the harness no longer carries signal"
    )


@pytest.fixture(scope="module")
def evaluated_6x6_hundred(annotated_6x6_hundred):
    """Every method of 4b on the 4a set; 4c reads its solver records, which
    ``evaluate`` re-solves rather than reading from the annotation."""
    return evaluate(
        ["solver", "spt", "lpt", "mtr", "random"], annotated_6x6_hundred, DENSE,
        seeds=range(20),
    )


def test_criterion_4b_solver_dominates(evaluated_6x6_hundred):
    records = evaluated_6x6_hundred
    means = {}
    for method in ("solver", "spt", "lpt", "mtr", "random"):
        means[method] = float(np.mean([r.makespan for r in records if r.method == method]))
    ok = all(means["solver"] <= means[m] for m in ("spt", "lpt", "mtr", "random"))
    report("4b solver-dominates", ok, " ".join(f"{m}={v:.2f}" for m, v in means.items()))
    for m in ("spt", "lpt", "mtr", "random"):
        assert means["solver"] <= means[m]


def test_criterion_4c_solver_gap_zero(annotated_6x6_hundred, evaluated_6x6_hundred):
    optimal_instances = [a for a in annotated_6x6_hundred if a.proof_status == "optimal"]
    optimal_ids = {a.id for a in optimal_instances}
    records = [
        r for r in evaluated_6x6_hundred if r.method == "solver" and r.instance_id in optimal_ids
    ]
    assert len(records) == len(optimal_instances)
    gaps = [r.gap for r in records]
    ok = all(g == 0.0 for g in gaps)
    report(
        "4c solver-gap-zero", ok,
        f"{len(optimal_instances)}/100 proven optimal, mean gap {np.mean(gaps):.6f}",
    )
    assert all(g == 0.0 for g in gaps)


def test_criterion_5_gradient_check():
    """Analytic vs central-difference gradients, < 1e-4 relative, 10 random trials."""
    worst = 0.0
    for trial in range(10):
        rng = np.random.Generator(np.random.Philox(key=4000 + trial))
        dims = [int(rng.integers(3, 9)) for _ in range(4)]
        params = init_mlp(dims, rng)
        batch = int(rng.integers(1, 6))
        x = rng.standard_normal((batch, dims[0]))
        upstream = rng.standard_normal((batch, dims[-1]))
        gw, gb = mlp_gradient(params, mlp_activations(params, x), upstream)

        def loss():
            return float(np.sum(mlp_forward(params, x) * upstream))

        h = 1e-5
        for arrays, grads in ((params.weights, gw), (params.biases, gb)):
            for arr, g in zip(arrays, grads):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = loss()
                    arr[idx] = orig - h
                    down = loss()
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(g[idx] - fd) / max(abs(fd), 1.0)
                    worst = max(worst, rel)
                    it.iternext()
    ok = worst < 1e-4
    report("5 gradient-check", ok, f"max relative error {worst:.2e} over 10 trials")
    assert worst < 1e-4


def run_learning_pipeline(config_path):
    config = load_experiment_config(config_path)
    batch = generate_batch(config.problem)
    train = batch[: config.split.train_count]
    test = batch[config.split.train_count :]
    annotated = [i.annotated(r.makespan, r.proof_status) for i, r in zip(test, map(solve_optimal, test))]
    n_optimal = sum(1 for a in annotated if a.proof_status == "optimal")
    env_factory = lambda inst: SchedulingEnv(inst, config.reward_mode)
    policy, _value, events = train_ppo(env_factory, train, config.algo_config)
    assert [e.step for e in events] == sorted(e.step for e in events)
    records = evaluate(
        ["model", "random"], annotated, config.reward_mode,
        seeds=config.eval.seeds, model_params=policy,
    )
    model_gaps = [r.gap for r in records if r.method == "model" and r.gap is not None]
    random_gaps = [r.gap for r in records if r.method == "random" and r.gap is not None]
    model_ms = float(np.mean([r.makespan for r in records if r.method == "model"]))
    mean_opt = float(np.mean([a.optimal_makespan for a in annotated]))
    return {
        "n_test": len(test),
        "n_optimal": n_optimal,
        "model_gap": float(np.mean(model_gaps)),
        "random_gap": float(np.mean(random_gaps)),
        "model_makespan": model_ms,
        "mean_optimal": mean_opt,
    }


def test_criterion_6_learning_smoke():
    """Shipped 6x6 PPO beats random and lands within 1.25x optimal; the 3x4
    tool-constrained sparse rerun completes and beats random. Target < 30 min."""
    t0 = time.perf_counter()
    dense = run_learning_pipeline(CONFIGS / "default_6x6.json")
    ratio = dense["model_makespan"] / dense["mean_optimal"]
    sparse = run_learning_pipeline(CONFIGS / "tool_3x4_sparse.json")
    elapsed = time.perf_counter() - t0
    ok = (
        dense["n_test"] == 50
        and dense["n_optimal"] == 50
        and dense["model_gap"] < dense["random_gap"]
        and ratio <= 1.25
        and sparse["n_test"] == 50
        and sparse["model_gap"] < sparse["random_gap"]
        and elapsed < 1800.0
    )
    report(
        "6 learning-smoke", ok,
        f"6x6 gap {dense['model_gap']:.4f} vs random {dense['random_gap']:.4f}, "
        f"ratio {ratio:.4f} (<=1.25); 3x4 gap {sparse['model_gap']:.4f} vs random "
        f"{sparse['random_gap']:.4f}; {elapsed:.0f}s",
    )
    assert dense["n_optimal"] == 50
    assert dense["model_gap"] < dense["random_gap"]
    assert ratio <= 1.25
    assert sparse["model_gap"] < sparse["random_gap"]
    assert elapsed < 1800.0


def test_criterion_7_reproducibility(tmp_path):
    """Identical config+seed through the CLI: byte-identical instance, metrics,
    model and evaluation files."""
    def one_run(base: Path) -> dict[str, bytes]:
        base.mkdir()
        cfg = {
            "problem": {
                "problem_type": "jssp", "num_jobs": 3, "tasks_per_job": 3,
                "num_machines": 3, "runtime_lo": 1, "runtime_hi": 9, "seed": 99,
            },
            "split": {"train_count": 6, "test_count": 4},
            "algo": "ppo",
            "ppo": {"total_steps": 512, "steps_per_update": 128, "epochs": 3,
                    "minibatch_size": 64, "seed": 2},
            "reward_mode": "dense",
            "eval": {"methods": ["model", "spt", "mtr", "random", "solver"],
                     "seeds": [0, 1, 2]},
            "paths": {
                "instances_dir": str(base / "data"),
                "models_dir": str(base / "models"),
                "results_dir": str(base / "results"),
            },
        }
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--instances", str(base / "data")]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["test", "--config", str(cfg_path)]) == 0
        blobs = {}
        for sub in ("data", "models", "results"):
            for f in sorted((base / sub).iterdir()):
                blobs[f"{sub}/{f.name}"] = f.read_bytes()
        return blobs

    a = one_run(tmp_path / "a")
    b = one_run(tmp_path / "b")
    same = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    report("7 reproducibility", same, f"{len(a)} files compared byte-for-byte")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_criterion_8_gantt():
    """Complete tool-constrained 6x6 renders 36 bars, 6 hues, p=/t= labels,
    byte-identically."""
    cfg = jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6, with_tools=True,
                      num_tools=3, seed=812)
    inst = generate_instance(cfg, 0)
    rng = np.random.Generator(np.random.Philox(key=8))
    env, _, _ = random_episode(inst, rng)
    svg_a = render_svg(env.schedule)
    svg_b = render_svg(env.schedule)
    root = ET.fromstring(svg_a)
    bars = [r for r in root.iter("{http://www.w3.org/2000/svg}rect")
            if r.get("class") == "bar"]
    fills = {b.get("fill") for b in bars}
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if t.text]
    labeled = [t for t in texts if "p=" in t and "t=" in t]
    ok = len(bars) == 36 and len(fills) == 6 and len(labeled) == 36 and svg_a == svg_b
    report(
        "8 gantt", ok,
        f"{len(bars)} bars, {len(fills)} colors, {len(labeled)} labels, "
        f"byte-identical={svg_a == svg_b}",
    )
    assert len(bars) == 36
    assert len(fills) == 6
    assert len(labeled) == 36
    assert svg_a == svg_b
