"""Command-line entry points: generate, solve, train, test, plot.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import gantt, solver
from .config import ExperimentConfig, load_experiment_config, run_id
from .dqn import train_dqn
from .env import SchedulingEnv
from .errors import ConfigurationError, InstanceSetError, ModelVersionError, SchedlabError
from .evaluate import evaluate, summarize, write_records_csv
from .files import write_text
from .instances import PROOF_OPTIMAL, check_instance_set, generate_batch, read_instances, write_instances
from .metrics import write_metrics
from .nn import load_model, save_model
from .ppo import train_ppo
from .schedule import read_schedule

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _split_paths(config: ExperimentConfig) -> tuple[Path, Path]:
    base = Path(config.paths.instances_dir)
    return base / "train.jsonl", base / "test.jsonl"


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    batch = generate_batch(config.problem)
    train = batch[: config.split.train_count]
    test = batch[config.split.train_count :]
    train_path, test_path = _split_paths(config)
    write_instances(train, train_path)
    write_instances(test, test_path)
    print(f"wrote {len(train)} train instances to {train_path}")
    print(f"wrote {len(test)} test instances to {test_path}")
    for name, insts in (("train", train), ("test", test)):
        for inst in insts:
            print(f"{name} {inst.id}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    # checked here, before any file is read or rewritten
    limits = solver.SolveLimits(node_limit=args.node_limit, time_limit_s=args.time_limit)
    directory = Path(args.instances)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory of instance files", file=sys.stderr)
        return EXIT_RUNTIME
    files = sorted(directory.glob("*.jsonl"))
    n_optimal = n_feasible = n_failed = 0
    for path in files:
        try:
            instances = read_instances(path)
            annotated = []
            for inst in instances:
                # through the module, so the tracer of perfbench/tracing.py sees the call
                result = solver.solve_optimal(inst, limits)
                annotated.append(inst.annotated(result.makespan, result.proof_status))
                gap = (result.makespan - result.lower_bound) / result.makespan
                print(
                    f"{path.name} {inst.id[:12]} makespan={result.makespan} "
                    f"status={result.proof_status} nodes={result.nodes_expanded} "
                    f"lb={result.lower_bound} gap={gap:.2%}"
                )
                if result.proof_status == PROOF_OPTIMAL:
                    n_optimal += 1
                else:
                    n_feasible += 1
            write_instances(annotated, path)
        except (SchedlabError, OSError) as exc:
            # read errors and most OSErrors name the file already
            message = str(exc) if str(path) in str(exc) else f"{path}: {exc}"
            print(f"error: {message}", file=sys.stderr)
            n_failed += 1
    print(f"solved: {n_optimal} optimal, {n_feasible} feasible, {n_failed} files failed")
    return EXIT_RUNTIME if n_failed else EXIT_OK


def _model_path(config: ExperimentConfig) -> Path:
    return Path(config.paths.models_dir) / f"{run_id(config)}.model.json"


def cmd_train(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    train_path, _ = _split_paths(config)
    if not train_path.exists():
        print(f"error: {train_path} not found; run `schedlab generate` first", file=sys.stderr)
        return EXIT_RUNTIME
    instances = read_instances(train_path)
    check_instance_set(instances, train_path)
    rid = run_id(config)
    env_factory = lambda inst: SchedulingEnv(inst, config.reward_mode)

    if config.algo == "ppo":
        policy, _value, events = train_ppo(env_factory, instances, config.algo_config, run_id=rid)
        params = policy
    else:
        params, events = train_dqn(env_factory, instances, config.algo_config, run_id=rid)

    model_path = _model_path(config)
    save_model(params, model_path)
    metrics_path = Path(config.paths.results_dir) / f"{rid}.metrics.jsonl"
    write_metrics(events, metrics_path)
    print(f"run {rid}: trained {config.algo} on {len(instances)} instances")
    print(f"model: {model_path}")
    print(f"metrics: {metrics_path}")
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    _, test_path = _split_paths(config)
    if not test_path.exists():
        print(f"error: {test_path} not found; run `schedlab generate` first", file=sys.stderr)
        return EXIT_RUNTIME
    instances = read_instances(test_path)
    check_instance_set(instances, test_path, one_job_count=False)

    model_params = model_path = None
    if "model" in config.eval.methods:
        model_path = Path(args.model) if args.model else _model_path(config)
        if not model_path.exists():
            print(
                f"error: model file {model_path} not found; run `schedlab train` first",
                file=sys.stderr,
            )
            return EXIT_RUNTIME
        model_params = load_model(model_path)

    try:
        records = evaluate(
            config.eval.methods,
            instances,
            config.reward_mode,
            seeds=config.eval.seeds,
            model_params=model_params,
        )
    except InstanceSetError as exc:  # the set passed above, so the model does not fit it
        raise InstanceSetError(f"{model_path}: {exc}") from exc
    rid = run_id(config)
    csv_path = Path(config.paths.results_dir) / f"{rid}.eval.csv"
    write_records_csv(records, csv_path)
    table = summarize(records)
    print(table.render())
    print(f"records: {csv_path}")
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    out = Path(args.out)
    write_text(out, gantt.render_svg(read_schedule(args.schedule)))
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedlab",
        description="Scheduling experiments: instance generation, solving, training, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate train/test instance files from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="annotate instance files with optimal makespans")
    p.add_argument("--instances", required=True, help="directory of .jsonl instance files")
    p.add_argument("--node-limit", type=int, default=solver.SolveLimits.node_limit)
    p.add_argument("--time-limit", type=float, default=solver.SolveLimits.time_limit_s)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train the configured algorithm on the train split")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("test", help="evaluate configured methods on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None, help="model file (default: derived from run id)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("plot", help="render a schedule export as an SVG Gantt chart")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchedlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an instance set or model this run cannot take is a usage error
        return EXIT_USAGE if isinstance(exc, (InstanceSetError, ModelVersionError)) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
