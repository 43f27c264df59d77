"""schedlab: an experimentation toolkit for RL-based production scheduling."""

from .baselines import DispatchRule, rule_policy
from .env import RewardMode, SchedulingEnv, StepResult, action_mask, observe, reset, step
from .evaluate import (
    ComparisonTable,
    EvalRecord,
    evaluate,
    run_episode,
    summarize,
    write_records_csv,
)
from .gantt import render_svg
from .instances import (
    GeneratorConfig,
    Instance,
    ProblemType,
    Task,
    generate_batch,
    generate_instance,
    instance_digest,
    read_instances,
    write_instances,
)
from .metrics import MetricsEvent, read_metrics, write_metrics
from .nn import MlpParams, load_model, mlp_forward, mlp_gradient, save_model
from .dqn import DqnConfig, train_dqn
from .ppo import PpoConfig, Trajectory, compute_gae, train_ppo
from .schedule import (
    Placement,
    Schedule,
    ScheduleRecord,
    Timeline,
    Violation,
    read_schedule,
    validate_schedule,
    write_schedule,
)
from .solver import (
    SolveLimits,
    SolveResult,
    lower_bound,
    permutation_oracle,
    solve_optimal,
    timing_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable",
    "DispatchRule",
    "DqnConfig",
    "EvalRecord",
    "GeneratorConfig",
    "Instance",
    "MetricsEvent",
    "MlpParams",
    "Placement",
    "PpoConfig",
    "ProblemType",
    "RewardMode",
    "Schedule",
    "ScheduleRecord",
    "SchedulingEnv",
    "SolveLimits",
    "SolveResult",
    "StepResult",
    "Task",
    "Timeline",
    "Trajectory",
    "Violation",
    "action_mask",
    "compute_gae",
    "evaluate",
    "generate_batch",
    "generate_instance",
    "instance_digest",
    "load_model",
    "lower_bound",
    "mlp_forward",
    "mlp_gradient",
    "observe",
    "permutation_oracle",
    "read_instances",
    "read_metrics",
    "read_schedule",
    "render_svg",
    "reset",
    "rule_policy",
    "run_episode",
    "save_model",
    "solve_optimal",
    "step",
    "summarize",
    "timing_oracle",
    "train_dqn",
    "train_ppo",
    "validate_schedule",
    "write_instances",
    "write_metrics",
    "write_records_csv",
    "write_schedule",
]
