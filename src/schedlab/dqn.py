"""Deep Q-learning over the masked scheduling environment.

Epsilon-greedy exploration over masked Q-values, a uniform replay buffer,
TD targets bootstrapped through a periodically synced target network, and
squared TD-error loss. The network and the replay observations are float32,
the rewards and the logged scalars float64; deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import EnvFactory, network_widths
from .errors import ConfigurationError, TrainingDivergedError, bounded, check_fields
from .instances import Instance
from .metrics import MetricsEvent
from .nn import Adam, MlpParams, greedy_action, init_mlp, mlp_activations, mlp_forward, mlp_gradient


@dataclass(frozen=True)
class DqnConfig:
    total_steps: int = bounded(20_000, 1)
    replay_capacity: int = bounded(50_000, 1)
    batch_size: int = bounded(64, 1)
    learning_rate: float = bounded(1e-3, 0, above=True)
    discount: float = bounded(1.0, 0, 1, above=True)
    target_sync_interval: int = bounded(500, 1)
    eps_start: float = bounded(1.0, 0, 1)
    eps_end: float = bounded(0.05, 0, 1)
    eps_decay_steps: int | None = bounded(None, 1)  # defaults to total_steps // 2
    hidden: tuple[int, ...] = bounded((64, 64), 1)
    seed: int = bounded(0, 0, 2**128 - 1)  # the Philox key range

    def __post_init__(self) -> None:
        check_fields(self)
        if self.eps_end > self.eps_start:
            raise ConfigurationError(f"eps_end: must be <= eps_start ({self.eps_start}), got {self.eps_end}")
        if self.batch_size > self.replay_capacity:
            raise ConfigurationError(
                f"batch_size: must be <= replay_capacity ({self.replay_capacity}), got {self.batch_size}"
            )


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with uniform sampling.

    Field i of each transition tuple is copied into column i, an array of
    ``capacity`` rows shaped and typed by the first push. ``sample`` returns
    every column gathered at one ``rng.integers(len(self), size=batch_size)``.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._columns: list[np.ndarray] = []
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: tuple) -> None:
        if not self._columns:
            for field in transition:
                field = np.asarray(field)
                self._columns.append(np.empty((self.capacity, *field.shape), dtype=field.dtype))
        row = self._next
        for column, field in zip(self._columns, transition):
            column[row] = field
        self._size = min(self._size + 1, self.capacity)
        self._next = (row + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        idx = rng.integers(self._size, size=batch_size)
        return tuple(column[idx] for column in self._columns)


def _epsilon(config: DqnConfig, step: int) -> float:
    decay = config.eps_decay_steps or max(1, config.total_steps // 2)
    frac = min(1.0, step / decay)
    return config.eps_start + frac * (config.eps_end - config.eps_start)


# a diverging run overflows; the finite-loss guard reports it as one error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_dqn(
    env_factory: EnvFactory,
    instances: Sequence[Instance],
    config: DqnConfig,
    run_id: str = "dqn",
) -> tuple[MlpParams, list[MetricsEvent]]:
    """Train a Q-network; returns the parameters and one MetricsEvent per episode."""
    obs_dim, n_actions = network_widths(instances)
    # the run stores whole episodes, in cursor order, until total_steps is reached
    stored = cursor = 0
    while stored < min(config.total_steps, config.batch_size):
        stored += instances[cursor % len(instances)].num_tasks
        cursor += 1
    if stored < config.batch_size:
        raise ConfigurationError(f"batch_size: must be <= the {stored} transitions a run of total_steps "
                                 f"{config.total_steps} stores, got {config.batch_size}")
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    q_params = init_mlp([obs_dim, *config.hidden, n_actions], rng, output_gain=1.0).astype(np.float32)
    target_params = q_params.copy()
    optimizer = Adam(q_params, lr=config.learning_rate)
    # the last episode runs past total_steps, so no more than this many pushes
    longest = max(instance.num_tasks for instance in instances)
    buffer = ReplayBuffer(min(config.replay_capacity, config.total_steps + longest))
    events: list[MetricsEvent] = []

    step_count = 0
    episode = 0
    last_loss = math.nan

    while step_count < config.total_steps:
        instance = instances[episode % len(instances)]
        env = env_factory(instance)
        obs, mask = env.reset()
        obs = obs.astype(np.float32)  # the network's dtype, stored in the replay buffer
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
            next_obs = result.observation.astype(np.float32)
            buffer.push((obs, action, result.reward, next_obs, result.mask, result.done))
            ep_return += result.reward
            obs, mask = next_obs, result.mask
            done = result.done
            step_count += 1

            if len(buffer) >= config.batch_size:
                last_loss = _learn_step(buffer, config, q_params, target_params, optimizer, rng, step_count)
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
                    "makespan": float(result.makespan),
                    "loss": last_loss if math.isfinite(last_loss) else 0.0,
                    "epsilon": _epsilon(config, step_count),
                },
            )
        )
    return q_params, events


def _learn_step(buffer, config, q_params, target_params, optimizer, rng, step_count):
    obs, actions, rewards, next_obs, next_masks, dones = buffer.sample(config.batch_size, rng)
    rows = np.arange(config.batch_size)

    next_q = mlp_forward(target_params, next_obs)
    next_q = np.where(next_masks, next_q, -np.inf)
    # terminal next states have an all-false mask; their bootstrap term is zero
    next_best = np.where(dones, 0.0, np.max(next_q, axis=1, initial=-np.inf))
    targets = rewards + config.discount * next_best

    q_acts = mlp_activations(q_params, obs)
    q = q_acts[-1]
    q_sa = q[rows, actions]
    td_error = q_sa - targets
    loss = float(np.mean(td_error**2))
    if not math.isfinite(loss):
        finite = td_error[np.isfinite(td_error)]
        spread = f"{finite.min()}, {finite.max()}" if finite.size else "no finite entry"
        raise TrainingDivergedError(f"non-finite DQN loss at step {step_count}: td_error range [{spread}]")
    upstream = np.zeros_like(q)
    upstream[rows, actions] = 2.0 * td_error / config.batch_size
    mlp_gradient(q_params, q_acts, upstream, out=optimizer.grads[0])
    optimizer.step()
    return loss
