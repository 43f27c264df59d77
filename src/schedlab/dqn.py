"""Deep Q-learning over the masked scheduling environment.

Epsilon-greedy exploration over masked Q-values, a uniform replay buffer,
TD targets bootstrapped through a periodically synced target network, and
squared TD-error loss. Everything runs in float64 and is deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import EnvFactory
from .errors import ConfigurationError, TrainingDivergedError
from .instances import Instance
from .metrics import MetricsEvent
from .nn import Adam, MlpParams, greedy_action, init_mlp, mlp_activations, mlp_forward, mlp_gradient


@dataclass(frozen=True)
class DqnConfig:
    total_steps: int = 20_000
    replay_capacity: int = 50_000
    batch_size: int = 64
    learning_rate: float = 1e-3
    discount: float = 1.0
    target_sync_interval: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int | None = None  # defaults to total_steps // 2
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0

    def validate(self) -> None:
        if self.total_steps < 1:
            raise ConfigurationError(f"total_steps: must be >= 1, got {self.total_steps}")
        if self.replay_capacity < 1:
            raise ConfigurationError(f"replay_capacity: must be >= 1, got {self.replay_capacity}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate: must be > 0, got {self.learning_rate}")
        if not (0.0 < self.discount <= 1.0):
            raise ConfigurationError(f"discount: must be in (0, 1], got {self.discount}")
        if self.target_sync_interval < 1:
            raise ConfigurationError(
                f"target_sync_interval: must be >= 1, got {self.target_sync_interval}"
            )
        if not (0.0 <= self.eps_end <= self.eps_start <= 1.0):
            raise ConfigurationError("eps schedule: need 0 <= eps_end <= eps_start <= 1")
        if self.eps_decay_steps is not None and self.eps_decay_steps < 1:
            raise ConfigurationError(
                f"eps_decay_steps: must be >= 1 when set, got {self.eps_decay_steps}"
            )
        if any(width < 1 for width in self.hidden):
            raise ConfigurationError(f"hidden: widths must be >= 1, got {list(self.hidden)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed}")


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with uniform sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[tuple] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: tuple) -> None:
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[tuple]:
        idx = rng.integers(len(self._items), size=batch_size)
        return [self._items[i] for i in idx]


def _epsilon(config: DqnConfig, step: int) -> float:
    decay = config.eps_decay_steps or max(1, config.total_steps // 2)
    frac = min(1.0, step / decay)
    return config.eps_start + frac * (config.eps_end - config.eps_start)


def train_dqn(
    env_factory: EnvFactory,
    instances: Sequence[Instance],
    config: DqnConfig,
    run_id: str = "dqn",
) -> tuple[MlpParams, list[MetricsEvent]]:
    """Train a Q-network; returns the parameters and one MetricsEvent per episode."""
    if not instances:
        raise ValueError("instances must be non-empty")
    config.validate()
    rng = np.random.Generator(np.random.Philox(key=config.seed))

    probe = env_factory(instances[0])
    obs, mask = probe.reset()
    obs_dim, n_actions = len(obs), len(mask)
    dims = [obs_dim, *config.hidden, n_actions]
    q_params = init_mlp(dims, rng, output_gain=1.0)
    target_params = q_params.copy()
    optimizer = Adam(q_params, lr=config.learning_rate)
    buffer = ReplayBuffer(config.replay_capacity)
    events: list[MetricsEvent] = []

    step_count = 0
    episode = 0
    last_loss = math.nan
    gamma = config.discount

    while step_count < config.total_steps:
        instance = instances[episode % len(instances)]
        env = env_factory(instance)
        obs, mask = env.reset()
        ep_return = 0.0
        done = False
        while not done:
            eps = _epsilon(config, step_count)
            if rng.random() < eps:
                valid = np.flatnonzero(mask)
                action = int(valid[rng.integers(len(valid))])
            else:
                action = greedy_action(q_params, obs, mask)
            result = env.step(action)
            buffer.push((obs, mask.copy(), action, result.reward, result.observation,
                         result.mask.copy(), result.done))
            ep_return += result.reward
            obs, mask = result.observation, result.mask
            done = result.done
            step_count += 1

            if len(buffer) >= config.batch_size:
                last_loss = _learn_step(
                    buffer, config, q_params, target_params, optimizer, rng, gamma, step_count
                )
            if step_count % config.target_sync_interval == 0:
                target_params = q_params.copy()

        episode += 1
        events.append(
            MetricsEvent(
                run_id=run_id,
                step=step_count,
                episode=episode,
                scalars={
                    "return": ep_return,
                    "makespan": float(env.schedule.makespan),
                    "loss": last_loss if math.isfinite(last_loss) else 0.0,
                    "epsilon": _epsilon(config, step_count),
                },
            )
        )
    return q_params, events


def _learn_step(buffer, config, q_params, target_params, optimizer, rng, gamma, step_count):
    batch = buffer.sample(config.batch_size, rng)
    obs = np.stack([b[0] for b in batch])
    actions = np.array([b[2] for b in batch])
    rewards = np.array([b[3] for b in batch])
    next_obs = np.stack([b[4] for b in batch])
    next_masks = np.stack([b[5] for b in batch])
    dones = np.array([b[6] for b in batch])

    next_q = mlp_forward(target_params, next_obs)
    next_q = np.where(next_masks, next_q, -np.inf)
    # terminal next states have an all-false mask; their bootstrap term is zero
    next_best = np.where(dones, 0.0, np.max(next_q, axis=1, initial=-np.inf))
    targets = rewards + gamma * next_best

    q_acts = mlp_activations(q_params, obs)
    q = q_acts[-1]
    q_sa = q[np.arange(len(batch)), actions]
    td_error = q_sa - targets
    loss = float(np.mean(td_error**2))
    if not math.isfinite(loss):
        raise TrainingDivergedError(
            f"non-finite DQN loss at step {step_count}: td_error range "
            f"[{np.nanmin(td_error)}, {np.nanmax(td_error)}]"
        )
    upstream = np.zeros_like(q)
    upstream[np.arange(len(batch)), actions] = 2.0 * td_error / len(batch)
    grad_w, grad_b = mlp_gradient(q_params, obs, upstream, q_acts)
    optimizer.step(grad_w, grad_b)
    return loss
