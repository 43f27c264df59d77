"""The four workloads: inputs, one round of timed work, checks and stage figures.

A workload has four parts. ``prepare(seed)`` builds the inputs (the set-up
that ``setup_s`` times). ``run_round(state)`` does one round of the timed
work and returns a ``Round``; every round repeats the same operations on the
same inputs, so its outputs repeat exactly. ``check(state, round)`` returns
the errors the benchmark's own checks find in one round's outputs.
``stages(state, round)`` gives the figures of the experiment stages, read
from an untraced round.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import schedlab as sl
from schedlab import cli
from schedlab.config import load_experiment_config, run_id
from schedlab.nn import greedy_action

import checks
import inputs
from probe import scaled_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODE = sl.RewardMode.DENSE_MAKESPAN_DELTA
RULES = (sl.DispatchRule.SPT, sl.DispatchRule.LPT, sl.DispatchRule.MTR)
# high enough that no instance of the solve set stops on a limit, on any machine
SOLVE_LIMITS = sl.SolveLimits(node_limit=10**9, time_limit_s=3600.0)
CHECK_RANDOM_SEEDS = 20


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    times: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""


def _attempt(rnd: Round, fn, *args):
    """Run one operation; a raised exception counts it as failed."""
    rnd.attempted += 1
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 -- the run goes on and reports the failure
        rnd.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None


def _fingerprint(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def _seeded_rng(*parts) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(repr(parts).encode("utf-8")).digest()[:8], "big")
    return np.random.Generator(np.random.Philox(key=key))


def _check_episode(instance, makespan, episode_return, schedule) -> list[str]:
    return checks.check_schedule(instance, schedule.placements.values(), makespan) + checks.check_return(
        instance, makespan, episode_return
    )


def _rollouts(instance, seed, rules, random_seeds) -> list[tuple[str, int, float, object]]:
    """Episodes of the given rules and of seeded random policies on one instance."""
    out = []
    for rule in rules:
        out.append((rule.value, *sl.run_episode(sl.rule_policy(rule), instance, MODE)))
    for s in random_seeds:
        policy = sl.rule_policy(sl.DispatchRule.RANDOM, _seeded_rng(seed, s, instance.id))
        out.append((f"random-{s}", *sl.run_episode(policy, instance, MODE)))
    return out


# ---------------------------------------------------------------------------
# solve-bnb
# ---------------------------------------------------------------------------

class SolveBnb:
    name = "solve-bnb"
    speed_probe = True

    def prepare(self, seed: int) -> dict:
        return {"seed": seed, "instances": inputs.solve_set(), "reference": inputs.reference_optima()}

    def run_round(self, state) -> Round:
        rnd = Round()
        t0 = time.perf_counter()
        for inst in state["instances"]:
            t = time.perf_counter()
            result = _attempt(rnd, sl.solve_optimal, inst, SOLVE_LIMITS)
            rnd.outputs.append((inst, result, time.perf_counter() - t))
        rnd.times["solve_s"] = time.perf_counter() - t0
        rnd.fingerprint = _fingerprint(
            [(r.makespan, r.nodes_expanded, r.proof_status) for _, r, _ in rnd.outputs if r is not None]
        )
        return rnd

    def check(self, state, rnd: Round) -> list[str]:
        errors = []
        for inst, result, _ in rnd.outputs:
            if result is None:
                continue
            tag = inst.id[:12]
            if result.proof_status != "optimal":
                errors.append(f"{tag}: proof status {result.proof_status}")
            errors += [f"{tag}: {e}" for e in checks.check_schedule(
                inst, result.schedule.placements.values(), result.makespan)]
            errors += checks.check_optimum(inst.id, result.makespan, state["reference"])
            for label, makespan, ret, schedule in _rollouts(inst, state["seed"], RULES, range(5)):
                errors += [f"{tag} {label}: {e}" for e in _check_episode(inst, makespan, ret, schedule)]
                if result.makespan > makespan:
                    errors.append(f"{tag}: optimum {result.makespan} worse than {label} {makespan}")
        return errors

    def makespan_ratio(self, state, rnd: Round) -> float:
        return statistics.fmean(
            r.makespan / checks.lower_bound(inst) for inst, r, _ in rnd.outputs if r is not None
        )

    def stages(self, state, rnd: Round) -> dict[str, float]:
        solved = [(r, dt) for _, r, dt in rnd.outputs if r is not None]
        nodes = sum(r.nodes_expanded for r, _ in solved)
        per_instance_ms = [dt * 1000.0 for _, dt in solved]
        gaps = []
        for inst, r, _ in rnd.outputs:
            if r is not None:
                gaps.append((r.makespan - sl.lower_bound(sl.Schedule(inst))) / r.makespan)
        return {
            "solve_s": rnd.times["solve_s"],
            "solver.nodes_per_s": nodes / rnd.times["solve_s"],
            "solver.instance_ms_p50": statistics.median(per_instance_ms),
            "solver.instance_ms_max": max(per_instance_ms),
            "solver.root_gap": statistics.fmean(gaps),
            "solver.lower_bound_us": _lower_bound_cost_us(state["instances"]),
        }


def _lower_bound_cost_us(instances, repeats: int = 50) -> float:
    """Mean cost of one public ``lower_bound`` call on partial schedules.

    The partial schedules are SPT, LPT and MTR rollouts cut after a quarter,
    half and three quarters of their tasks.
    """
    partials = []
    for inst in instances:
        for rule in RULES:
            _, _, full = sl.run_episode(sl.rule_policy(rule), inst, MODE)
            order = sorted(full.placements.values(), key=lambda p: (p.start, p.job_id))
            for share in (0.25, 0.5, 0.75):
                partial = sl.Schedule(inst)
                for pl in sorted(order[: int(len(order) * share)], key=lambda p: p.op_index):
                    partial.place_task(inst.task(pl.job_id, pl.op_index), pl.machine, pl.start)
                partials.append(partial)
    t0 = time.perf_counter()
    for _ in range(repeats):
        for partial in partials:
            sl.lower_bound(partial)
    return (time.perf_counter() - t0) / (repeats * len(partials)) * 1e6


# ---------------------------------------------------------------------------
# train-6x6
# ---------------------------------------------------------------------------

class Train6x6:
    name = "train-6x6"
    speed_probe = True
    config_path = ROOT / "configs" / "default_6x6.json"
    dqn_steps = 2000

    def prepare(self, seed: int) -> dict:
        instances = inputs.load_set(inputs.TRAIN, seed)
        config = load_experiment_config(self.config_path)
        return {
            "seed": seed,
            "train": instances[: inputs.TRAIN_COUNT],
            "held_out": instances[inputs.TRAIN_COUNT :],
            "mode": config.reward_mode,
            "ppo": dataclasses.replace(config.algo_config, seed=seed),
            "dqn": sl.DqnConfig(total_steps=self.dqn_steps, seed=seed),
        }

    def run_round(self, state) -> Round:
        rnd = Round()
        mode = state["mode"]
        factory = lambda inst: sl.SchedulingEnv(inst, mode)  # noqa: E731
        t0 = time.perf_counter()
        trained = _attempt(rnd, sl.train_ppo, factory, state["train"], state["ppo"])
        t1 = time.perf_counter()
        episodes = []
        if trained is not None:
            policy = trained[0]
            greedy = lambda obs, mask: greedy_action(policy, obs, mask)  # noqa: E731
            for inst in state["held_out"]:
                episodes.append((inst, _attempt(rnd, sl.run_episode, greedy, inst, mode)))
        t2 = time.perf_counter()
        dqn = _attempt(rnd, sl.train_dqn, factory, state["train"], state["dqn"])
        t3 = time.perf_counter()
        rnd.times.update(ppo_s=t1 - t0, eval_s=t2 - t1, dqn_s=t3 - t2)
        ppo_events = trained[2] if trained is not None else []
        dqn_events = dqn[1] if dqn is not None else []
        rnd.outputs = [ppo_events, dqn_events, episodes]
        rnd.fingerprint = _fingerprint((
            [(e.step, sorted(e.scalars.items())) for e in ppo_events + dqn_events],
            [ep[0] for _, ep in episodes if ep is not None],
        ))
        return rnd

    def check(self, state, rnd: Round) -> list[str]:
        ppo_events, dqn_events, episodes = rnd.outputs
        errors = [
            f"{e.run_id} step {e.step}: {k} = {v!r} is not finite"
            for e in ppo_events + dqn_events
            for k, v in e.scalars.items()
            if not math.isfinite(v)
        ]
        model = []
        for inst, ep in episodes:
            if ep is not None:
                errors += [f"{inst.id[:12]} model: {e}" for e in _check_episode(inst, *ep)]
                model.append(ep[0])
        random_makespans = []
        for inst in state["held_out"]:
            for label, makespan, ret, schedule in _rollouts(
                inst, state["seed"], (), range(CHECK_RANDOM_SEEDS)
            ):
                errors += [f"{inst.id[:12]} {label}: {e}" for e in _check_episode(inst, makespan, ret, schedule)]
                random_makespans.append(makespan)
        if model and not statistics.fmean(model) < statistics.fmean(random_makespans):
            errors.append(
                f"model mean makespan {statistics.fmean(model):.3f} does not beat the "
                f"{CHECK_RANDOM_SEEDS}-seed random mean {statistics.fmean(random_makespans):.3f}"
            )
        return errors

    def makespan_ratio(self, state, rnd: Round) -> float:
        return statistics.fmean(ep[0] / checks.lower_bound(inst) for inst, ep in rnd.outputs[2] if ep)

    def stages(self, state, rnd: Round) -> dict[str, float]:
        ppo_events, dqn_events, episodes = rnd.outputs
        done = [(inst, ep) for inst, ep in episodes if ep is not None]
        return {
            "ppo_steps_per_s": ppo_events[-1].step / rnd.times["ppo_s"],
            "dqn_steps_per_s": dqn_events[-1].step / rnd.times["dqn_s"],
            "model_makespan": statistics.fmean(ep[0] for _, ep in done),
            "rollout_steps_per_s": sum(inst.num_tasks for inst, _ in done) / rnd.times["eval_s"],
        }


# ---------------------------------------------------------------------------
# rollout-large
# ---------------------------------------------------------------------------

class RolloutLarge:
    name = "rollout-large"
    speed_probe = True

    def prepare(self, seed: int) -> dict:
        return {
            "seed": seed,
            "instances": inputs.load_set(inputs.LARGE_20, seed) + inputs.load_set(inputs.LARGE_50, seed),
        }

    def run_round(self, state) -> Round:
        rnd = Round()
        t0 = time.perf_counter()
        for inst in state["instances"]:
            for rule in (*RULES, sl.DispatchRule.RANDOM):
                rng = _seeded_rng(state["seed"], inst.id) if rule is sl.DispatchRule.RANDOM else None
                ep = _attempt(rnd, sl.run_episode, sl.rule_policy(rule, rng), inst, MODE)
                rnd.outputs.append((inst, rule.value, ep))
        rnd.times["rollout_s"] = time.perf_counter() - t0
        rnd.fingerprint = _fingerprint([(label, ep[0], ep[1]) for _, label, ep in rnd.outputs if ep])
        return rnd

    def check(self, state, rnd: Round) -> list[str]:
        errors = []
        for inst, label, ep in rnd.outputs:
            if ep is not None:
                errors += [f"{inst.id[:12]} {label}: {e}" for e in _check_episode(inst, *ep)]
        return errors

    def makespan_ratio(self, state, rnd: Round) -> float:
        return statistics.fmean(ep[0] / checks.lower_bound(inst) for inst, _, ep in rnd.outputs if ep)

    def stages(self, state, rnd: Round) -> dict[str, float]:
        steps = sum(inst.num_tasks for inst, _, ep in rnd.outputs if ep)
        return {"rollout_steps_per_s": steps / rnd.times["rollout_s"]}


# ---------------------------------------------------------------------------
# pipeline-tools
# ---------------------------------------------------------------------------

class PipelineTools:
    name = "pipeline-tools"
    # the work runs in child processes, so each command runs under its own
    # probe (cli_probe.py) and run_round sets round_s
    speed_probe = False
    config_path = ROOT / "configs" / "tool_3x4_sparse.json"
    commands = ("generate", "solve", "train", "test")
    round_timeout_s = 150.0

    def prepare(self, seed: int) -> dict:
        # the shipped config for every seed: instances drawn per seed would
        # add their solve time, which varies by instance, to the round
        config = json.loads(self.config_path.read_text(encoding="utf-8"))
        return {"seed": seed, "config": config, "rounds": 0, "in_process": False}

    def _workdir(self, state) -> Path:
        state["rounds"] += 1
        work = OUT_DIR / f"pipeline-{os.getpid()}-{state['rounds']}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = json.loads(json.dumps(state["config"]))
        config["paths"] = {
            "instances_dir": str(work / "data"),
            "models_dir": str(work / "models"),
            "results_dir": str(work / "results"),
        }
        (work / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
        return work

    def _argv(self, command: str, work: Path) -> list[str]:
        if command == "solve":
            return ["solve", "--instances", str(work / "data")]
        return [command, "--config", str(work / "config.json")]

    def _run_command(self, argv: list[str], work: Path, in_process: bool, deadline: float) -> dict:
        """Run one command; returns its wall seconds and, out of process, its probe stats."""
        t0 = time.perf_counter()
        with open(work / "cli.log", "a", encoding="utf-8") as log:
            if in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            else:
                stats = work / f"probe-{argv[0]}.json"
                env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
                code = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "cli_probe.py"), str(stats), *argv],
                    stdout=log, stderr=log, env=env, cwd=work,
                    timeout=max(1.0, deadline - time.perf_counter()),
                ).returncode
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"schedlab {argv[0]} exited with {code}; see {work / 'cli.log'}")
        if in_process:
            return {"wall": wall}
        return {"wall": wall, **json.loads(stats.read_text(encoding="utf-8"))}

    def run_round(self, state) -> Round:
        """The four commands; ``round_s`` sums their probe-scaled times and
        ``peak_rss_mb`` is the largest peak among the command processes."""
        rnd = Round()
        work = self._workdir(state)
        t0 = time.perf_counter()
        deadline = t0 + self.round_timeout_s
        scaled, peaks = 0.0, []
        for command in self.commands:
            t = time.perf_counter()
            ran = _attempt(rnd, self._run_command, self._argv(command, work), work, state["in_process"], deadline)
            rnd.times[f"cli.{command}_s"] = time.perf_counter() - t
            if ran is not None and "total" in ran:
                scaled += scaled_seconds(ran["wall"], ran["total"], ran["count"])
                peaks.append(ran["peak_rss_mb"])
            else:
                scaled += rnd.times[f"cli.{command}_s"]
        rnd.times["pipeline_s"] = time.perf_counter() - t0
        rnd.times["round_s"] = scaled
        if peaks:
            rnd.times["peak_rss_mb"] = max(peaks)
        rnd.outputs = [work]
        config = load_experiment_config(work / "config.json")
        results = work / "results" / f"{run_id(config)}"
        digest = hashlib.sha256()
        for path in (Path(f"{results}.eval.csv"), Path(f"{results}.metrics.jsonl")):
            if path.exists():
                digest.update(path.read_bytes())
        rnd.fingerprint = digest.hexdigest()
        return rnd

    def check(self, state, rnd: Round) -> list[str]:
        if rnd.failed:
            return []  # counted as failed operations; no outputs to check
        work = rnd.outputs[0]
        config = load_experiment_config(work / "config.json")
        rid = run_id(config)
        errors, _ = checks.check_instance_file(work / "data" / "train.jsonl")
        test_errors, optima = checks.check_instance_file(work / "data" / "test.jsonl")
        errors += test_errors
        methods = config.eval.methods
        per_instance = len(methods) - ("random" in methods) + len(config.eval.seeds) * ("random" in methods)
        csv_errors, _ = checks.check_eval_csv(
            work / "results" / f"{rid}.eval.csv", optima, config.split.test_count * per_instance
        )
        errors += csv_errors
        for line in (work / "results" / f"{rid}.metrics.jsonl").read_text(encoding="utf-8").splitlines():
            value = json.loads(line)["value"]
            if not math.isfinite(value):
                errors.append(f"metrics value {value!r} is not finite")
        return errors

    def makespan_ratio(self, state, rnd: Round) -> float:
        work = rnd.outputs[0]
        rid = run_id(load_experiment_config(work / "config.json"))
        bounds = {inst.id: checks.lower_bound(inst) for inst in sl.read_instances(work / "data" / "test.jsonl")}
        with open(work / "results" / f"{rid}.eval.csv", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(fh) if row["method"] == "model"]
        return statistics.fmean(float(row["makespan"]) / bounds[row["instance_id"]] for row in rows)

    def stages(self, state, rnd: Round) -> dict[str, float]:
        return {"pipeline_s": rnd.times["pipeline_s"]}

    @staticmethod
    def remove_workdirs() -> None:
        """Remove every work directory this process made."""
        for work in OUT_DIR.glob(f"pipeline-{os.getpid()}-*"):
            shutil.rmtree(work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SolveBnb(), Train6x6(), RolloutLarge(), PipelineTools())}
