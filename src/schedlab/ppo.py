"""Proximal policy optimization with clipping and GAE, from scratch.

Rollouts are collected round-robin over the training instances. Every
episode lasts exactly ``instance.num_tasks`` steps and a step takes one
uniform draw, so a buffer's rows, episodes and draws are known before it
runs: the episodes of one buffer are stepped in lockstep, with one stacked
policy forward per step, and train bit for bit like one episode after
another. Advantages use GAE(discount, lambda) with value bootstrap at
buffer boundaries, normalized once per update batch. The update is the
clipped surrogate plus a value regression term and an entropy bonus, run
for several epochs of shuffled minibatches. The networks and the stored
observations are float32; GAE, the advantages, the returns and the logged
scalars stay float64. Deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import EnvFactory, SchedulingEnv, network_widths
from .errors import EpisodeLengthError, TrainingDivergedError, bounded, check_fields
from .instances import Instance
from .metrics import MetricsEvent
from .nn import (
    Adam,
    MlpParams,
    init_mlp,
    masked_log_probs,
    mlp_activations,
    mlp_forward,
    mlp_gradient,
    sample_actions,
)


def clipped_objective_upstream(
    logits: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    old_logp: np.ndarray,
    clip: float,
    entropy_coef: float,
) -> tuple[float, float, float, np.ndarray]:
    """Clipped-surrogate-plus-entropy loss pieces and d(loss)/d(logits).

    The surrogate term only propagates through samples where the unclipped
    ratio is active; the entropy bonus propagates everywhere. Returns
    (policy_loss, mean entropy, clip fraction, upstream gradient).
    """
    b = len(actions)
    rows = np.arange(b)
    logp_all = masked_log_probs(logits, masks)
    probs = np.exp(logp_all)
    logp = logp_all[rows, actions]
    ratio = np.exp(logp - old_logp)

    unclipped = ratio * advantages
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip), 1.0 + clip) * advantages
    take_unclipped = unclipped <= clipped
    policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))

    logp_safe = np.where(masks, logp_all, 0.0)  # masked: probability 0, log-probability -inf
    entropy = -(probs * logp_safe).sum(axis=1)
    entropy_mean = float(entropy.mean())

    g_logp_action = np.where(take_unclipped, -unclipped, 0.0) / b
    # d logp(a)/d logits = onehot(a) - probs
    upstream = -probs * g_logp_action[:, None]
    upstream[rows, actions] += g_logp_action
    # entropy bonus: d(-coef * H)/d logit = coef * p * (logp + H)
    upstream += probs * (logp_safe + entropy[:, None]) * (entropy_coef / b)
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip))
    return policy_loss, entropy_mean, clip_fraction, upstream


@dataclass(frozen=True)
class PpoConfig:
    total_steps: int = bounded(100_000, 1)
    steps_per_update: int = bounded(2_048, 1)
    epochs: int = bounded(10, 0)
    minibatch_size: int = bounded(256, 1)
    clip_ratio: float = bounded(0.2, 0, 1, above=True, below=True)
    discount: float = bounded(1.0, 0, 1, above=True)
    gae_lambda: float = bounded(0.95, 0, 1, above=True)
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    learning_rate: float = bounded(3e-4, 0, above=True)
    hidden: tuple[int, ...] = bounded((64, 64), 1)
    seed: int = bounded(0, 0, 2**128 - 1)  # the Philox key range

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class Trajectory:
    """One collected rollout buffer, episode-aligned via the done flags."""

    observations: np.ndarray
    masks: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    log_probs: np.ndarray
    bootstrap_value: float

    def __len__(self) -> int:
        return len(self.actions)


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    discount: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets (advantage + value)."""
    n = len(rewards)
    advantages = np.zeros(n, dtype=np.float64)
    # memoryviews yield Python floats: numpy scalars' arithmetic, at a fraction of the cost
    rewards_, values_, dones_ = memoryview(rewards), memoryview(values), memoryview(dones)
    next_value = bootstrap_value
    running = 0.0
    for t in range(n - 1, -1, -1):
        non_terminal = 0.0 if dones_[t] else 1.0
        delta = rewards_[t] + discount * next_value * non_terminal - values_[t]
        running = delta + discount * lam * non_terminal * running
        advantages[t] = running
        next_value = values_[t]
    return advantages, advantages + values


_VALUE_ROWS = 256  # rows per stacked value pass after a rollout


@dataclass
class _Episode:
    """One episode of a rollout: its env, last observation and progress."""

    instance: Instance
    env: SchedulingEnv
    obs: np.ndarray
    mask: np.ndarray
    row: int  # buffer row of its next step
    steps: int = 0
    ret: float = 0.0
    makespan: int | None = None  # set when it ends


class _RolloutCollector:
    """Streams environment steps across instances, preserving episode state between buffers."""

    def __init__(self, env_factory: EnvFactory, instances: Sequence[Instance], rng):
        self.env_factory = env_factory
        self.instances = instances
        self.rng = rng
        self.instance_cursor = 0
        self.episode: _Episode | None = None  # in flight across the buffer boundary
        self.finished_returns: list[float] = []
        self.finished_makespans: list[int] = []

    def _plan(self, n_steps: int) -> list[_Episode]:
        """The episodes that fill the next n_steps rows: the one in flight, then new ones."""
        episodes, row = [], 0
        if self.episode is not None:
            self.episode.row = 0
            episodes.append(self.episode)
            row = self.episode.instance.num_tasks - self.episode.steps
        while row < n_steps:
            instance = self.instances[self.instance_cursor % len(self.instances)]
            self.instance_cursor += 1
            env = self.env_factory(instance)
            obs, mask = env.reset()
            episodes.append(_Episode(instance, env, obs, mask, row))
            row += instance.num_tasks
        return episodes

    def collect(self, n_steps: int, policy: MlpParams, value: MlpParams) -> Trajectory:
        """Step the policy n_steps times; the values are computed once the buffer is full.

        Row r of the buffer is step r of the sequential rollout: the episode
        in flight continues, then instances follow in cursor order, each for
        ``instance.num_tasks`` steps; the last one may carry over. Row r
        samples with ``draws[r]`` of one bulk draw, which equals the r-th of
        n_steps single draws. All episodes step together: one ``(k, 1, d)``
        policy stack per step, whose row i is bit-equal to the forward of
        that observation alone (see ``mlp_activations``), then row-wise
        ``masked_log_probs`` and ``sample_actions``. Finished episodes are
        recorded in episode order.

        GAE reads the values only after the rollout. They come from
        ``(256, 1, d)`` stacks of the stored rows, bit-equal in the same
        way; the slices bound the pass's extra memory. The bootstrap value
        of an episode still in flight is one single-observation forward.
        """
        obs_buf = np.empty((n_steps, policy.dims()[0]), dtype=np.float32)
        mask_buf = np.empty((n_steps, policy.dims()[-1]), dtype=bool)
        act_buf = np.empty(n_steps, dtype=np.int64)
        rew_buf = np.empty(n_steps, dtype=np.float64)
        done_buf = np.empty(n_steps, dtype=bool)
        logp_buf = np.empty(n_steps, dtype=np.float64)
        draws = self.rng.random(n_steps)
        episodes = self._plan(n_steps)
        live = episodes
        while live:
            rows = np.array([ep.row for ep in live])
            obs = np.array([ep.obs for ep in live], dtype=obs_buf.dtype)
            masks = np.array([ep.mask for ep in live], dtype=bool)
            logp = masked_log_probs(mlp_forward(policy, obs[:, None, :])[:, 0], masks)
            actions = sample_actions(np.exp(logp), draws[rows])
            obs_buf[rows] = obs
            mask_buf[rows] = masks
            act_buf[rows] = actions
            logp_buf[rows] = logp[np.arange(len(live)), actions]

            for ep, action in zip(live, actions.tolist()):
                result = ep.env.step(action)
                rew_buf[ep.row] = result.reward
                done_buf[ep.row] = result.done
                ep.ret += result.reward
                ep.steps += 1
                ep.row += 1
                if result.done != (ep.steps == ep.instance.num_tasks):
                    state = "ended" if result.done else "still running"
                    raise EpisodeLengthError(
                        f"instance {ep.instance.id}: episode {state} after {ep.steps} steps, "
                        f"but instance.num_tasks is {ep.instance.num_tasks}"
                    )
                if result.done:
                    ep.makespan = result.makespan
                else:
                    ep.obs, ep.mask = result.observation, result.mask
            live = [ep for ep in live if ep.makespan is None and ep.row < n_steps]

        for ep in episodes:
            if ep.makespan is not None:
                self.finished_returns.append(ep.ret)
                self.finished_makespans.append(ep.makespan)
        self.episode = episodes[-1] if episodes[-1].makespan is None else None

        val_buf = np.empty(n_steps, dtype=np.float64)
        for lo in range(0, n_steps, _VALUE_ROWS):
            rows = obs_buf[lo : lo + _VALUE_ROWS, None, :]
            val_buf[lo : lo + _VALUE_ROWS] = mlp_forward(value, rows)[:, 0, 0]
        if self.episode is None:
            bootstrap = 0.0
        else:
            bootstrap = float(mlp_forward(value, self.episode.obs)[0])
        return Trajectory(
            observations=obs_buf,
            masks=mask_buf,
            actions=act_buf,
            rewards=rew_buf,
            dones=done_buf,
            values=val_buf,
            log_probs=logp_buf,
            bootstrap_value=bootstrap,
        )


# a diverging run overflows; the finite-loss guard reports it as one error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_ppo(
    env_factory: EnvFactory,
    instances: Sequence[Instance],
    config: PpoConfig,
    run_id: str = "ppo",
) -> tuple[MlpParams, MlpParams, list[MetricsEvent]]:
    """Train policy and value networks; returns both plus one MetricsEvent per update."""
    obs_dim, n_actions = network_widths(instances)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    policy = init_mlp([obs_dim, *config.hidden, n_actions], rng, output_gain=0.01).astype(np.float32)
    value = init_mlp([obs_dim, *config.hidden, 1], rng, output_gain=1.0).astype(np.float32)
    optimizer = Adam(policy, value, lr=config.learning_rate)

    collector = _RolloutCollector(env_factory, instances, rng)
    events: list[MetricsEvent] = []
    n_updates = math.ceil(config.total_steps / config.steps_per_update)
    steps_done = 0

    for update in range(n_updates):
        traj = collector.collect(config.steps_per_update, policy, value)
        steps_done += len(traj)
        advantages, value_targets = compute_gae(
            traj.rewards, traj.values, traj.dones, traj.bootstrap_value,
            config.discount, config.gae_lambda,
        )
        adv_std = advantages.std()
        norm_adv = (advantages - advantages.mean()) / (adv_std + 1e-8)

        stats = _ppo_update(
            traj, norm_adv, value_targets, policy, value, optimizer, config, rng, update
        )
        window_returns = collector.finished_returns[-50:]
        window_makespans = collector.finished_makespans[-50:]
        events.append(
            MetricsEvent(
                run_id=run_id,
                step=steps_done,
                episode=len(collector.finished_returns),
                scalars={
                    "return": float(np.mean(window_returns)) if window_returns else 0.0,
                    "makespan": float(np.mean(window_makespans)) if window_makespans else 0.0,
                    **stats,
                },
            )
        )
    return policy, value, events


def _ppo_update(
    traj: Trajectory,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    policy: MlpParams,
    value: MlpParams,
    optimizer: Adam,
    config: PpoConfig,
    rng: np.random.Generator,
    update_index: int,
) -> dict[str, float]:
    n = len(traj)
    clip = config.clip_ratio
    policy_losses, value_losses, entropies, clip_fracs = [], [], [], []
    policy_grads, value_grads = optimizer.grads

    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.minibatch_size):
            idx = order[lo : lo + config.minibatch_size]
            obs = traj.observations[idx]
            masks = traj.masks[idx]
            actions = traj.actions[idx]
            adv = advantages[idx]
            old_logp = traj.log_probs[idx]
            targets = value_targets[idx]
            b = len(idx)

            policy_acts = mlp_activations(policy, obs)
            policy_loss, entropy_mean, clip_fraction, upstream = clipped_objective_upstream(
                policy_acts[-1], masks, actions, adv, old_logp, clip, config.entropy_coef
            )

            value_acts = mlp_activations(value, obs)
            vals = value_acts[-1][:, 0]
            verr = vals - targets
            value_loss = float(np.mean(verr**2))

            total = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy_mean
            if not math.isfinite(total):
                raise TrainingDivergedError(
                    f"non-finite PPO loss at update {update_index}: policy {policy_loss}, "
                    f"value {value_loss}, entropy {entropy_mean}"
                )

            mlp_gradient(policy, policy_acts, upstream, out=policy_grads)
            v_up = (2.0 * config.value_coef / b) * verr[:, None]
            mlp_gradient(value, value_acts, v_up, out=value_grads)
            optimizer.step()

            policy_losses.append(policy_loss)
            value_losses.append(value_loss)
            entropies.append(entropy_mean)
            clip_fracs.append(clip_fraction)

    if not policy_losses:  # epochs == 0: evaluation-only pass, no parameter change
        return {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_fraction": 0.0}
    return {
        "policy_loss": float(np.mean(policy_losses)),
        "value_loss": float(np.mean(value_losses)),
        "entropy": float(np.mean(entropies)),
        "clip_fraction": float(np.mean(clip_fracs)),
    }
