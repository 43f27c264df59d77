"""Experiment configuration files: one JSON document per experiment.

Validation errors carry the dotted field path so the CLI can point at the
offending line. Run ids derive from the config digest plus the seed, so a
results file can always be traced back to the exact configuration that
produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .dqn import DqnConfig
from .env import RewardMode
from .errors import ConfigurationError
from .evaluate import VALID_METHODS
from .instances import GeneratorConfig, ProblemType
from .ppo import PpoConfig


@dataclass(frozen=True)
class SplitConfig:
    train_count: int
    test_count: int


@dataclass(frozen=True)
class EvalSettings:
    methods: tuple[str, ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class PathsConfig:
    instances_dir: str = "data"
    models_dir: str = "models"
    results_dir: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: GeneratorConfig
    split: SplitConfig
    algo: str  # "ppo" | "dqn"
    algo_config: PpoConfig | DqnConfig
    reward_mode: RewardMode
    eval: EvalSettings
    paths: PathsConfig

    @property
    def seed(self) -> int:
        return self.algo_config.seed


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    return data[key]


def _int_field(data: dict, key: str, path: str, default=None) -> int:
    if key not in data:
        if default is None:
            raise ConfigurationError(f"{path}.{key}: missing required field")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _build(cls, data: dict, path: str):
    """Construct a config dataclass from a dict, rejecting unknown keys."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigurationError(f"{path}.{sorted(unknown)[0]}: unknown field")
    kwargs = dict(data)
    if "hidden" in kwargs:
        kwargs["hidden"] = tuple(kwargs["hidden"])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")

    problem_data = dict(_require(data, "problem", "<root>"))
    split_data = dict(_require(data, "split", "<root>"))
    split = SplitConfig(
        train_count=_int_field(split_data, "train_count", "split"),
        test_count=_int_field(split_data, "test_count", "split"),
    )
    if split.train_count < 1:
        raise ConfigurationError(f"split.train_count: must be >= 1, got {split.train_count}")
    if split.test_count < 1:
        raise ConfigurationError(f"split.test_count: must be >= 1, got {split.test_count}")

    try:
        problem_data["problem_type"] = ProblemType(_require(problem_data, "problem_type", "problem"))
    except ValueError as exc:
        raise ConfigurationError(f"problem.problem_type: {exc}") from exc
    # batch size is the split total; disjoint stream indices cover both sets
    problem_data.setdefault("count", split.train_count + split.test_count)
    problem = _build(GeneratorConfig, problem_data, "problem")
    try:
        problem.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"problem.{exc}") from exc
    if problem.count != split.train_count + split.test_count:
        raise ConfigurationError(
            f"problem.count: must equal train_count + test_count "
            f"({split.train_count + split.test_count}), got {problem.count}"
        )

    algo = _require(data, "algo", "<root>")
    if algo == "ppo":
        algo_config = _build(PpoConfig, dict(data.get("ppo", {})), "ppo")
    elif algo == "dqn":
        algo_config = _build(DqnConfig, dict(data.get("dqn", {})), "dqn")
    else:
        raise ConfigurationError(f"algo: expected 'ppo' or 'dqn', got {algo!r}")
    try:
        algo_config.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{algo}.{exc}") from exc

    try:
        reward_mode = RewardMode(_require(data, "reward_mode", "<root>"))
    except ValueError as exc:
        raise ConfigurationError(f"reward_mode: {exc}") from exc

    eval_data = dict(_require(data, "eval", "<root>"))
    methods = tuple(eval_data.get("methods", ("model", "spt", "lpt", "mtr", "random", "solver")))
    for name in methods:
        if name not in VALID_METHODS:
            raise ConfigurationError(
                f"eval.methods: unknown method {name!r}; valid: {', '.join(VALID_METHODS)}"
            )
    seeds = tuple(eval_data.get("seeds", (0,)))
    if not seeds:
        raise ConfigurationError("eval.seeds: must be non-empty")
    if any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
        raise ConfigurationError("eval.seeds: must be integers")
    if any(s < 0 for s in seeds):
        raise ConfigurationError(f"eval.seeds: must be >= 0, got {min(seeds)}")

    paths = _build(PathsConfig, dict(data.get("paths", {})), "paths")

    return ExperimentConfig(
        problem=problem,
        split=split,
        algo=algo,
        algo_config=algo_config,
        reward_mode=reward_mode,
        eval=EvalSettings(methods=methods, seeds=seeds),
        paths=paths,
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return experiment_config_from_dict(data)


def _config_payload(config: ExperimentConfig) -> dict:
    problem = dataclasses.asdict(config.problem)
    problem["problem_type"] = config.problem.problem_type.value
    algo_config = dataclasses.asdict(config.algo_config)
    algo_config["hidden"] = list(config.algo_config.hidden)
    return {
        "problem": problem,
        "split": dataclasses.asdict(config.split),
        "algo": config.algo,
        "algo_config": algo_config,
        "reward_mode": config.reward_mode.value,
        "eval": {"methods": list(config.eval.methods), "seeds": list(config.eval.seeds)},
    }


def config_digest(config: ExperimentConfig) -> str:
    """Short digest over the experiment-defining fields (paths excluded)."""
    blob = json.dumps(_config_payload(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def run_id(config: ExperimentConfig) -> str:
    return f"{config_digest(config)}-s{config.seed}"
