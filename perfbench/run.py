"""schedlab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload solve-bnb --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; schedlab is imported from its ``src``.
``--trace 0`` runs whole rounds of the workload, while the next is expected to
end within ``--seconds``, and reports the end-to-end metrics (medians over
the rounds).
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics, the stage figures of the untraced round and the tracing
overhead; the spans go to ``perfbench/out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by the CLI processes.
# The networks are 64 wide, so a second thread buys nothing, while OpenBLAS
# threads that spin-wait slow down many times over whenever another process
# takes one of the two vCPUs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from probe import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# fresh interpreters that time the set-up; setup_s is their median
SETUP_REPEATS = 7

# name -> unit, in the order of BENCHMARK.json. Every workload reports every
# metric; a per-layer metric reads 0 where its layer or stage does no work.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _import_schedlab() -> None:
    """Put the checkout's ``src`` first on the path and import schedlab from it."""
    src = ROOT / "src"
    if not (src / "schedlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'schedlab'} not found; run from a schedlab checkout")
    sys.path.insert(0, str(src))
    import schedlab

    if Path(schedlab.__file__).resolve().parent != src / "schedlab":
        raise SystemExit(f"error: imported schedlab from {schedlab.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _metric(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run_timed(workload, state, seconds: float):
    """Whole rounds while the next one is expected to end within ``seconds``; at least one.

    A round's ``round_s`` is its wall time less the probe's bursts, scaled
    to the reference speed; a workload without ``speed_probe`` probes its
    own child processes and sets ``round_s`` and ``peak_rss_mb`` itself.
    Only the first round keeps its outputs for the checks; later rounds keep
    their fingerprint.
    """
    rounds = []
    t_start = time.perf_counter()
    while not rounds or (
        time.perf_counter() - t_start + statistics.median(r.times["wall_s"] for r in rounds) <= seconds
    ):
        t0 = time.perf_counter()
        with SpeedProbe() if workload.speed_probe else contextlib.nullcontext() as probe:
            rnd = workload.run_round(state)
        wall = time.perf_counter() - t0
        rnd.times["wall_s"] = wall
        if probe is not None:
            rnd.times["round_s"] = probe.scaled(wall)
        rounds.append(rnd)
        if len(rounds) == 1:
            # later rounds repeat the same work; allocator growth between
            # rounds is not the workload's footprint
            rnd.times.setdefault("peak_rss_mb", _peak_rss_mb())
        else:
            rnd.outputs = []
    return rounds


def _python(*args: str) -> str:
    """Run a fresh interpreter that imports schedlab from the checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60).stdout


def _cli_startup_s(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter that imports ``schedlab.cli``."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _python("-c", "import schedlab.cli")
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def measure_setup(workload, seed: int) -> tuple[float, dict]:
    """``setup_s`` and the prepared state.

    ``setup_s`` is the median over ``SETUP_REPEATS`` fresh interpreters of
    ``setup_probe.py``: the import plus one preparation of the inputs, probe-
    scaled like ``round_s``. The repeats run in other processes, so that
    they leave nothing in this one's memory; this process prepares once.
    """
    setup_s = statistics.median(
        float(_python(str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed))) for _ in range(SETUP_REPEATS)
    )
    return setup_s, workload.prepare(seed)


def layer_metrics(tracer, stages: dict[str, float], overhead: float) -> dict[str, float]:
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def mean(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    jssp = tracer.counters.get("solver.nodes_jssp", 0)
    tools = tracer.counters.get("solver.nodes_tools", 0)
    forward_calls = calls("nn.forward_single") + calls("nn.forward_batch")
    _, observe_in_step = tracer.total_under("env.observe", "env.step", direct=True)
    _, dqn_steps = tracer.total_under("env.step", "dqn.train")
    _, dqn_resets = tracer.total_under("env.reset", "dqn.train")
    _, resolve = tracer.total_under("solver.solve_optimal", "cli.test")
    self_by_layer: dict[str, float] = {}
    for name, row in spans.items():
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + row["self_s"]
    values = {name: 0.0 for name in PER_LAYER}
    values.update(stages)
    values.update({
        "solver.nodes": jssp + tools,
        "solver.nodes_jssp": jssp,
        "solver.nodes_tools": tools,
        "solver.test_resolve_s": resolve,
        "schedule.earliest_fit_calls": calls("schedule.earliest_fit"),
        "schedule.earliest_fit_us": mean("schedule.earliest_fit", 1e6),
        "schedule.best_machine_calls": calls("schedule.best_machine"),
        "schedule.best_machine_us": mean("schedule.best_machine", 1e6),
        "schedule.place_task_calls": calls("schedule.place_task"),
        "schedule.place_task_us": mean("schedule.place_task", 1e6),
        "schedule.validate_ms": mean("schedule.validate", 1e3),
        "env.steps": calls("env.step"),
        "env.step_us": mean("env.step", 1e6),
        "env.observe_us": mean("env.observe", 1e6),
        "env.observe_share": observe_in_step / total("env.step") if calls("env.step") else 0.0,
        "baselines.decision_us": mean("baselines.decision", 1e6),
        "nn.forward_calls": forward_calls,
        "nn.forward_single_us": mean("nn.forward_single", 1e6),
        "nn.forward_batch_us": mean("nn.forward_batch", 1e6),
        "nn.gradient_us": mean("nn.gradient", 1e6),
        "nn.adam_step_us": mean("nn.adam_step", 1e6),
        "ppo.rollout_s": total("ppo.rollout"),
        "ppo.update_s": total("ppo.update"),
        "dqn.env_s": dqn_steps + dqn_resets,
        "dqn.update_s": total("dqn.update"),
        "evaluate.episode_ms": mean("evaluate.run_episode", 1e3),
        "instances.generate_ms": mean("instances.generate", 1e3),
        "instances.io_ms": mean("instances.io", 1e3),
        "metrics.write_ms": mean("metrics.write", 1e3),
        **{f"cli.{c}_s": total(f"cli.{c}") for c in ("generate", "solve", "train", "test")},
        **{f"self_s.{layer}": s for layer, s in self_by_layer.items() if f"self_s.{layer}" in PER_LAYER},
        "trace.overhead": overhead,
        "trace.spans": len(tracer.name_of),
    })
    return values


def run_traced(workload, state, name: str):
    import tracing
    from workloads import OUT_DIR

    state["in_process"] = True  # the CLI stages run through schedlab.cli.main
    t0 = time.perf_counter()
    plain = workload.run_round(state)
    plain_s = time.perf_counter() - t0
    stages = workload.stages(state, plain)
    if name == "pipeline-tools":
        stages["cli.startup_s"] = _cli_startup_s()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        traced = workload.run_round(state)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.write(OUT_DIR / f"trace-{name}.npz")
    values = layer_metrics(tracer, stages, traced_s / plain_s - 1.0)
    return [plain, traced], values


def measure(workload, args) -> tuple[dict, list[str]]:
    """Set up, run and check one workload; returns the result object and the check errors."""
    setup_s, state = measure_setup(workload, args.seed)

    if args.trace:
        rounds, values = run_traced(workload, state, args.workload)
        units = PER_LAYER
    else:
        rounds = run_timed(workload, state, args.seconds)
        units = END_TO_END

    errors = workload.check(state, rounds[0])
    if any(r.fingerprint != rounds[0].fingerprint for r in rounds):
        errors.append("rounds on the same inputs gave different outputs")
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "round_s": statistics.median(r.times["round_s"] for r in rounds),
            "peak_rss_mb": rounds[0].times["peak_rss_mb"],
            "makespan_ratio": workload.makespan_ratio(state, rounds[0]),
        }
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": _metric(values, units),
    }
    return result, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="schedlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_schedlab()
    from workloads import OUT_DIR, WORKLOADS, PipelineTools

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    try:
        result, errors = measure(workload, args)
    finally:
        PipelineTools.remove_workdirs()

    for error in errors[:50]:
        print(f"check failed: {error}", file=sys.stderr)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
