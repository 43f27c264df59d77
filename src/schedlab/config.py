"""Experiment configuration files: one JSON document per experiment.

Validation errors carry the dotted field path so the CLI can point at the
offending line. Run ids derive from the config digest plus the seed, so a
results file can always be traced back to the exact configuration that
produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import MISSING, dataclass
from enum import Enum
from pathlib import Path

from .dqn import DqnConfig
from .env import RewardMode
from .errors import ConfigurationError, bounded, check_fields
from .evaluate import EvalSettings
from .files import canonical_json, read_json
from .instances import GeneratorConfig
from .ppo import PpoConfig


@dataclass(frozen=True)
class SplitConfig:
    train_count: int = bounded(MISSING, 1)
    test_count: int = bounded(MISSING, 1)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class PathsConfig:
    instances_dir: str = "data"
    models_dir: str = "models"
    results_dir: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: GeneratorConfig
    split: SplitConfig
    algo_config: PpoConfig | DqnConfig
    reward_mode: RewardMode
    eval: EvalSettings
    paths: PathsConfig

    @property
    def algo(self) -> str:
        return "ppo" if isinstance(self.algo_config, PpoConfig) else "dqn"

    @property
    def seed(self) -> int:
        return self.algo_config.seed


# the JSON values each scalar annotation accepts; a bool is never a number
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _value(hint, value, path: str):
    """Check ``value`` against the annotation ``hint``; lists become tuples."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigurationError(f"{path}: expected a list, got {value!r}")
        return tuple(_value(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, path)
    if issubclass(hint, Enum):
        values = [member.value for member in hint]
        if value not in values:
            raise ConfigurationError(f"{path}: expected one of {values}, got {value!r}")
        return hint(value)
    if (not isinstance(value, _SCALARS[hint]) or (isinstance(value, bool) and hint is not bool)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigurationError(f"{path}: expected {hint.__name__}, got {value!r}")
    return value  # an integer stays one in a float field, so digests do not move


def _check_object(data, path: str, known, required) -> None:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(f"{path}.{unknown[0]}: unknown field")
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigurationError(f"{path}.{missing[0]}: missing required field")


def _build(cls, data, path: str, **defaults):
    """Build config dataclass ``cls`` from the JSON object ``data``.

    The annotations are the schema: each value must have its field's type,
    where an integer is a valid float and a list a valid tuple. The
    constructor checks the ranges. Every error names the dotted path of the
    offending value.
    """
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is MISSING and f.name not in defaults]
    _check_object(data, path, [f.name for f in fields], required)
    hints = typing.get_type_hints(cls)
    values = {name: _value(hints[name], value, f"{path}.{name}")
              for name, value in {**defaults, **data}.items()}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}.{exc}") from exc


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    _check_object(data, "<root>",
                  ("problem", "split", "algo", "ppo", "dqn", "reward_mode", "eval", "paths"),
                  ("problem", "split", "algo", "reward_mode", "eval"))
    split = _build(SplitConfig, data["split"], "split")
    # batch size is the split total; disjoint stream indices cover both sets
    total = split.train_count + split.test_count
    problem = _build(GeneratorConfig, data["problem"], "problem", count=total)
    if problem.count != total:
        raise ConfigurationError(
            f"problem.count: must equal train_count + test_count ({total}), got {problem.count}"
        )
    algo = data["algo"]
    if algo not in ("ppo", "dqn"):
        raise ConfigurationError(f"algo: expected 'ppo' or 'dqn', got {algo!r}")
    # both algo sections are checked, the untrained one too; a missing one takes the defaults
    algo_configs = {name: _build(cls, data.get(name, {}), name)
                    for name, cls in (("ppo", PpoConfig), ("dqn", DqnConfig))}
    return ExperimentConfig(
        problem=problem,
        split=split,
        algo_config=algo_configs[algo],
        reward_mode=_value(RewardMode, data["reward_mode"], "reward_mode"),
        eval=_build(EvalSettings, data["eval"], "eval"),
        paths=_build(PathsConfig, data.get("paths", {}), "paths"),
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    if not Path(path).is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return experiment_config_from_dict(read_json(path, ConfigurationError))


def _config_payload(config: ExperimentConfig) -> dict:
    # json.dumps writes tuples as lists and str-valued enums as their values
    payload = dataclasses.asdict(config)
    del payload["paths"]  # where files go does not define the experiment
    return {**payload, "algo": config.algo}


def config_digest(config: ExperimentConfig) -> str:
    """Short digest over the experiment-defining fields (paths excluded)."""
    return hashlib.sha256(canonical_json(_config_payload(config)).encode("utf-8")).hexdigest()[:12]


def run_id(config: ExperimentConfig) -> str:
    return f"{config_digest(config)}-s{config.seed}"
