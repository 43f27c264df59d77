import functools
import itertools
import re
import warnings
from bisect import bisect_right

import numpy as np
import pytest

from schedlab import dqn, ppo
from schedlab.dqn import DqnConfig, ReplayBuffer, train_dqn
from schedlab.env import RewardMode, SchedulingEnv
from schedlab.errors import (
    ConfigurationError, EpisodeLengthError, InstanceSetError, TrainingDivergedError,
)
from schedlab.nn import (
    Adam, greedy_action, init_mlp, masked_log_probs, mlp_activations, mlp_forward, mlp_gradient,
)
from schedlab.ppo import PpoConfig, Trajectory, _RolloutCollector, compute_gae, train_ppo
from schedlab.evaluate import run_episode
from schedlab.solver import permutation_oracle

from conftest import PerArrayAdam, build_instance, jssp_config
from schedlab.instances import generate_batch, generate_instance

DENSE = RewardMode.DENSE_MAKESPAN_DELTA
SPARSE = RewardMode.SPARSE_TERMINAL


def dense_factory(inst):
    return SchedulingEnv(inst, DENSE)


def test_dqn_single_action_mdp(single_task_instance):
    config = DqnConfig(total_steps=200, batch_size=16, replay_capacity=500, seed=1)
    params, events = train_dqn(dense_factory, [single_task_instance], config)
    ms, ret, _ = run_episode(
        lambda obs, mask: greedy_action(params, obs, mask), single_task_instance, DENSE
    )
    assert ms == 5 and ret == -1.0
    assert all(e.scalars["makespan"] == 5 for e in events)


def test_dqn_two_jobs_shared_machine_reaches_optimum():
    inst = build_instance([[(0, 3, None)], [(0, 4, None)]], num_machines=1)
    c_star = permutation_oracle(inst)
    config = DqnConfig(total_steps=600, batch_size=32, learning_rate=3e-3,
                       target_sync_interval=50, seed=2)
    params, _ = train_dqn(dense_factory, [inst], config)
    ms, ret, _ = run_episode(lambda obs, mask: greedy_action(params, obs, mask), inst, DENSE)
    assert ms == c_star
    assert ret == pytest.approx(-c_star / inst.total_processing_time)


def test_dqn_seed_determinism():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=5), 0)
    config = DqnConfig(total_steps=300, batch_size=16, seed=7)
    params_a, events_a = train_dqn(dense_factory, [inst], config)
    params_b, events_b = train_dqn(dense_factory, [inst], config)
    for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
        assert np.array_equal(a, b)
    assert [(e.step, e.episode, e.scalars) for e in events_a] == [
        (e.step, e.episode, e.scalars) for e in events_b
    ]


def test_dqn_metrics_step_monotone():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=6), 0)
    _, events = train_dqn(dense_factory, [inst], DqnConfig(total_steps=200, seed=3))
    steps = [e.step for e in events]
    assert steps == sorted(steps)
    assert [e.episode for e in events] == list(range(1, len(events) + 1))


def test_replay_buffer_ring():
    buf = ReplayBuffer(capacity=3)
    for i in range(5):
        buf.push((i,))
    assert len(buf) == 3
    rng = np.random.Generator(np.random.Philox(key=0))
    (items,) = buf.sample(200, rng)
    assert set(items.tolist()) == {2, 3, 4}


class ListReplayBuffer:
    """Reference: a ring of transition tuples, batched with np.stack/np.array per field."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._items = []
        self._next = 0

    def __len__(self):
        return len(self._items)

    def push(self, transition):
        transition = tuple(f.copy() if isinstance(f, np.ndarray) else f for f in transition)
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size, rng):
        batch = [self._items[i] for i in rng.integers(len(self._items), size=batch_size)]
        return tuple(
            (np.stack if isinstance(batch[0][k], np.ndarray) else np.array)([b[k] for b in batch])
            for k in range(len(batch[0]))
        )


def random_transition(rng, obs_dim=9, n_actions=2):
    return (rng.standard_normal(obs_dim), rng.random(n_actions) < 0.5,
            int(rng.integers(n_actions)), float(rng.standard_normal()),
            rng.standard_normal(obs_dim), rng.random(n_actions) < 0.5, bool(rng.random() < 0.2))


def test_replay_buffer_batches_match_list_reference_through_ring_wrap():
    data_rng = np.random.Generator(np.random.Philox(key=40))
    buf, ref = ReplayBuffer(capacity=7), ListReplayBuffer(capacity=7)
    rng_a = np.random.Generator(np.random.Philox(key=41))
    rng_b = np.random.Generator(np.random.Philox(key=41))
    for _ in range(20):  # wraps the ring twice
        transition = random_transition(data_rng)
        buf.push(transition)
        ref.push(transition)
        assert len(buf) == len(ref)
        got, want = buf.sample(16, rng_a), ref.sample(16, rng_b)
        assert len(got) == len(want) == 7
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("replay_capacity", [50_000, 20])
def test_train_dqn_matches_list_replay_reference(monkeypatch, replay_capacity):
    """Bitwise the same run as with the list buffer at the configured capacity.

    The last 9-step episode runs 5 steps past total_steps=40, so a buffer
    of total_steps rows would overwrite early transitions that the list
    buffer keeps. With capacity 20 both rings wrap.
    """
    inst = generate_instance(jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3,
                                         seed=5), 0)
    config = DqnConfig(total_steps=40, batch_size=16, replay_capacity=replay_capacity,
                       target_sync_interval=10, seed=7)
    params, events = train_dqn(dense_factory, [inst], config)
    assert events[-1].step > config.total_steps
    monkeypatch.setattr(dqn, "ReplayBuffer", lambda capacity: ListReplayBuffer(replay_capacity))
    ref_params, ref_events = train_dqn(dense_factory, [inst], config)
    for a, b in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
        assert a.tobytes() == b.tobytes()
    assert [(e.step, e.episode, e.scalars) for e in events] == [
        (e.step, e.episode, e.scalars) for e in ref_events
    ]


def per_step_sample(probs, rng):
    """The per-step sampler the lockstep rollout replaced: one draw, Python-float sums."""
    cum = list(itertools.accumulate(probs.tolist()))
    return min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)


class PerStepValueCollector:
    """Reference: the sequential rollout, one episode after another, that runs
    the policy and the value network on every step with its own draw.

    Records each buffer's bootstrap value in ``bootstraps``.
    """

    def __init__(self, env_factory, instances, rng, bootstraps):
        self.env_factory, self.instances, self.rng = env_factory, instances, rng
        self.bootstraps = bootstraps
        self.instance_cursor = 0
        self.env = self.obs = self.mask = None
        self.finished_returns, self.finished_makespans = [], []
        self._ep_return = 0.0

    def collect(self, n_steps, policy, value):
        obs_buf, mask_buf = [], []
        act_buf = np.empty(n_steps, dtype=np.int64)
        rew_buf = np.empty(n_steps, dtype=np.float64)
        done_buf = np.empty(n_steps, dtype=bool)
        val_buf = np.empty(n_steps, dtype=np.float64)
        logp_buf = np.empty(n_steps, dtype=np.float64)
        for t in range(n_steps):
            if self.env is None:
                instance = self.instances[self.instance_cursor % len(self.instances)]
                self.instance_cursor += 1
                self.env = self.env_factory(instance)
                self.obs, self.mask = self.env.reset()
                self._ep_return = 0.0
            obs = self.obs
            logp_all = masked_log_probs(mlp_forward(policy, obs), self.mask)
            action = per_step_sample(np.exp(logp_all), self.rng)
            val_buf[t] = mlp_forward(value, obs)[0]
            result = self.env.step(action)

            obs_buf.append(obs)
            mask_buf.append(self.mask)
            act_buf[t] = action
            rew_buf[t] = result.reward
            done_buf[t] = result.done
            logp_buf[t] = logp_all[action]

            self._ep_return += result.reward
            if result.done:
                self.finished_returns.append(self._ep_return)
                self.finished_makespans.append(result.makespan)
                self.env = None
            else:
                self.obs, self.mask = result.observation, result.mask

        bootstrap = 0.0 if self.env is None else float(mlp_forward(value, self.obs)[0])
        self.bootstraps.append(bootstrap)
        return Trajectory(
            observations=np.stack(obs_buf), masks=np.stack(mask_buf), actions=act_buf,
            rewards=rew_buf, dones=done_buf, values=val_buf, log_probs=logp_buf,
            bootstrap_value=bootstrap,
        )


def generated(count=2, **shape):
    return [generate_instance(jssp_config(seed=31, count=count, **shape), i) for i in range(count)]


def nine_task_instances(tools):
    """Two 3x3 instances, so every episode takes 9 steps."""
    return generated(num_jobs=3, tasks_per_job=3, num_machines=3, with_tools=tools,
                     num_tools=2 if tools else 0)


def mixed_length_instances():
    """3-job instances with 2 and with 4 tasks per job: 6- and 12-step episodes."""
    return [*generated(num_jobs=3, tasks_per_job=2, num_machines=3),
            *generated(num_jobs=3, tasks_per_job=4, num_machines=3, count=1)]


def collectors_of(monkeypatch, make):
    """Patch ``ppo._RolloutCollector`` with ``make`` and return the collectors built."""
    built = []

    def record(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(ppo, "_RolloutCollector", record)
    return built


@pytest.mark.parametrize(
    "instances, mode, steps_per_update, updates",
    [
        pytest.param(False, DENSE, 37, 2, id="False-dense-37"),
        pytest.param(False, DENSE, 300, 2, id="False-dense-300"),
        pytest.param(True, SPARSE, 37, 2, id="True-sparse-37"),
        pytest.param(True, SPARSE, 300, 2, id="True-sparse-300"),
        pytest.param(False, DENSE, 270, 2, id="False-dense-270"),  # 30 whole episodes
        pytest.param(False, DENSE, 5, 6, id="False-dense-5"),  # shorter than an episode
        pytest.param("mixed", DENSE, 41, 4, id="mixed-dense-41"),
        pytest.param("mixed", SPARSE, 290, 2, id="mixed-sparse-290"),
        pytest.param("one-task", DENSE, 37, 3, id="one-task-dense-37"),  # 37 episodes
        pytest.param("6x6", DENSE, 2048, 2, id="6x6-dense-2048"),  # the default_6x6 shape
    ],
)
def test_train_ppo_matches_per_step_value_reference(monkeypatch, instances, mode,
                                                    steps_per_update, updates):
    """The lockstep rollout and the stacked value pass train bitwise like the
    sequential rollout with a value forward on every step.

    ``False``/``True`` are two 3x3 instances without/with tools (9-step
    episodes), ``mixed`` has 6- and 12-step episodes, ``one-task`` 1-step
    ones. Most buffers end mid-episode, so an episode carries over and the
    bootstrap value counts; with 5 rows a 9-step episode spans two or three
    buffers. 300 leaves a partial 44-row value slice after one 256-row
    slice; 270 ends every buffer on an episode boundary, where the
    bootstrap is 0.
    """
    instances = {
        False: lambda: nine_task_instances(False),
        True: lambda: nine_task_instances(True),
        "mixed": mixed_length_instances,
        "one-task": lambda: generated(count=3, num_jobs=1, tasks_per_job=1, num_machines=1),
        "6x6": lambda: generated(count=4),
    }[instances]()
    factory = lambda inst: SchedulingEnv(inst, mode)
    config = PpoConfig(total_steps=updates * steps_per_update, steps_per_update=steps_per_update,
                       epochs=2, minibatch_size=64, discount=0.99, seed=3)
    collectors = collectors_of(monkeypatch, _RolloutCollector)
    policy, value, events = train_ppo(factory, instances, config)
    bootstraps = []
    ref_collectors = collectors_of(
        monkeypatch, functools.partial(PerStepValueCollector, bootstraps=bootstraps))
    ref_policy, ref_value, ref_events = train_ppo(factory, instances, config)

    lengths = itertools.cycle([inst.num_tasks for inst in instances])
    episode_ends = set(itertools.accumulate(next(lengths) for _ in range(config.total_steps)))
    buffer_ends = [(u + 1) * steps_per_update for u in range(updates)]
    assert [b == 0.0 for b in bootstraps] == [end in episode_ends for end in buffer_ends]
    for net, ref in ((policy, ref_policy), (value, ref_value)):
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert a.tobytes() == b.tobytes()
    assert [(e.step, e.episode, e.scalars) for e in events] == [
        (e.step, e.episode, e.scalars) for e in ref_events
    ]
    (got,), (ref,) = collectors, ref_collectors
    assert len(ref.finished_returns) > 0
    assert np.array(got.finished_returns).tobytes() == np.array(ref.finished_returns).tobytes()
    assert got.finished_makespans == ref.finished_makespans


class ShortEpisodeEnv(SchedulingEnv):
    """Breaks the factory contract: reports ``done`` one step early or one step late."""

    def __init__(self, instance, shift):
        super().__init__(instance, DENSE)
        self.shift, self.steps = shift, 0

    def step(self, action):
        result = super().step(action)
        self.steps += 1
        result.done = self.steps == self.instance.num_tasks + self.shift
        return result


@pytest.mark.parametrize("shift, state", [(-1, "ended after 8"), (1, "still running after 9")])
def test_rollout_rejects_episode_of_wrong_length(shift, state):
    instances = nine_task_instances(False)
    config = PpoConfig(total_steps=64, steps_per_update=32, epochs=1, minibatch_size=16, seed=2)
    with pytest.raises(EpisodeLengthError) as err:
        train_ppo(lambda inst: ShortEpisodeEnv(inst, shift), instances, config)
    assert str(err.value) == (
        f"instance {instances[0].id}: episode {state} steps, but instance.num_tasks is 9"
    )


def test_ppo_single_action_mdp(single_task_instance):
    config = PpoConfig(total_steps=128, steps_per_update=32, epochs=2, minibatch_size=16,
                       seed=4)
    policy, value, events = train_ppo(dense_factory, [single_task_instance], config)
    ms, ret, _ = run_episode(
        lambda obs, mask: greedy_action(policy, obs, mask), single_task_instance, DENSE
    )
    assert ms == 5 and ret == -1.0
    assert len(events) == 4


def test_ppo_six_by_six_short_run_completes():
    instances = [generate_instance(jssp_config(seed=42, count=4), i) for i in range(4)]
    config = PpoConfig(total_steps=2048, steps_per_update=512, epochs=2,
                       minibatch_size=128, seed=0)
    policy, value, events = train_ppo(dense_factory, instances, config)
    steps = [e.step for e in events]
    assert steps == sorted(steps) and len(steps) == 4
    ms, _, schedule = run_episode(
        lambda obs, mask: greedy_action(policy, obs, mask), instances[0], DENSE
    )
    assert schedule.complete


def test_ppo_zero_epochs_leaves_params_unchanged():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=9), 0)
    config = PpoConfig(total_steps=64, steps_per_update=32, epochs=0, seed=11)
    policy, value, _ = train_ppo(dense_factory, [inst], config)
    rng = np.random.Generator(np.random.Philox(key=11))
    # the trainers cast the float64 init to float32 once
    fresh_policy = init_mlp([9, *config.hidden, 2], rng, output_gain=0.01).astype(np.float32)
    fresh_value = init_mlp([9, *config.hidden, 1], rng, output_gain=1.0).astype(np.float32)
    for a, b in zip(policy.weights + policy.biases, fresh_policy.weights + fresh_policy.biases):
        assert np.array_equal(a, b)
    for a, b in zip(value.weights + value.biases, fresh_value.weights + fresh_value.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("module, train, config", [
    (ppo, train_ppo, PpoConfig(total_steps=128, steps_per_update=64, epochs=2, minibatch_size=32,
                               seed=3)),
    (dqn, train_dqn, DqnConfig(total_steps=128, batch_size=16, seed=3)),
], ids=["ppo", "dqn"])
def test_trainers_train_in_float32(monkeypatch, module, train, config):
    """Networks, Adam buffers and every gradient the backward pass computes
    are float32. A float64 term in the backward pass would upcast its
    products, and ``mlp_gradient`` refuses to cast them into float32
    gradients, so such a training raises here instead of passing. Each
    trainer builds one optimizer; PPO's steps both networks."""
    optimizers, grad_dtypes = [], set()

    class RecordingAdam(Adam):
        def __init__(self, *networks, lr):
            super().__init__(*networks, lr=lr)
            optimizers.append(self)

    def recording_gradient(params, activations, upstream, out=None):
        fresh_w, fresh_b = mlp_gradient(params, activations, upstream)
        grad_dtypes.update(g.dtype for g in (*fresh_w, *fresh_b))
        return mlp_gradient(params, activations, upstream, out=out)

    monkeypatch.setattr(module, "Adam", RecordingAdam)
    monkeypatch.setattr(module, "mlp_gradient", recording_gradient)
    *nets, _ = train(dense_factory, nine_task_instances(tools=True), config)
    (opt,) = optimizers
    assert len(opt.networks) == len(nets) and all(a is b for a, b in zip(opt.networks, nets))
    assert opt.t > 0 and grad_dtypes == {np.dtype(np.float32)}
    views = [g for grad_w, grad_b in opt.grads for g in (*grad_w, *grad_b)]
    buffers = (opt.m, opt.v, opt._grad, opt._delta, *opt._deltas, *views)
    assert {a.dtype for a in buffers} == {np.dtype(np.float32)}
    for net in nets:
        assert {a.dtype for a in (*net.weights, *net.biases)} == {np.dtype(np.float32)}
        assert mlp_forward(net, np.zeros(net.dims()[0])).dtype == np.float32


def untrimmed_clipped_objective(logits, masks, actions, advantages, old_logp, clip, entropy_coef):
    """Reference: ``ppo.clipped_objective_upstream`` with ``np.clip``, an
    ``isfinite`` mask and the surrogate's gradient computed afresh."""
    b = len(actions)
    rows = np.arange(b)
    logp_all = masked_log_probs(logits, masks)
    probs = np.exp(logp_all)
    ratio = np.exp(logp_all[rows, actions] - old_logp)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * advantages
    policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
    logp_safe = np.where(np.isfinite(logp_all), logp_all, 0.0)
    entropy = -(probs * logp_safe).sum(axis=1)
    g_logp_action = np.where(unclipped <= clipped, -ratio * advantages, 0.0) / b
    upstream = -probs * g_logp_action[:, None]
    upstream[rows, actions] += g_logp_action
    upstream += probs * (logp_safe + entropy[:, None]) * (entropy_coef / b)
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip))
    return policy_loss, float(entropy.mean()), clip_fraction, upstream


class TwoAdamUpdate:
    """Reference: the PPO update with one Adam per network, each stepped on
    fresh gradient arrays right after its network's backward pass, and the
    untrimmed clipped objective.

    Stands in for ``ppo._ppo_update`` and ignores the shared optimizer that
    ``train_ppo`` passes; its own ``PerArrayAdam`` pair is built on the first
    call, before any step, from the same networks and learning rate.
    """

    def __init__(self):
        self.optimizers = None

    def __call__(self, traj, advantages, value_targets, policy, value, _optimizer, config, rng,
                 update_index):
        if self.optimizers is None:
            self.optimizers = (PerArrayAdam(policy, lr=config.learning_rate),
                               PerArrayAdam(value, lr=config.learning_rate))
        policy_opt, value_opt = self.optimizers
        n = len(traj)
        policy_losses, value_losses, entropies, clip_fracs = [], [], [], []
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, config.minibatch_size):
                idx = order[lo : lo + config.minibatch_size]
                obs = traj.observations[idx]
                b = len(idx)

                policy_acts = mlp_activations(policy, obs)
                policy_loss, entropy_mean, clip_fraction, upstream = untrimmed_clipped_objective(
                    policy_acts[-1], traj.masks[idx], traj.actions[idx], advantages[idx],
                    traj.log_probs[idx], config.clip_ratio, config.entropy_coef,
                )
                value_acts = mlp_activations(value, obs)
                verr = value_acts[-1][:, 0] - value_targets[idx]
                value_loss = float(np.mean(verr**2))

                gw, gb = mlp_gradient(policy, policy_acts, upstream)
                policy_opt.step(gw, gb)
                v_up = (2.0 * config.value_coef / b) * verr[:, None]
                gw, gb = mlp_gradient(value, value_acts, v_up)
                value_opt.step(gw, gb)

                policy_losses.append(policy_loss)
                value_losses.append(value_loss)
                entropies.append(entropy_mean)
                clip_fracs.append(clip_fraction)
        if not policy_losses:
            return {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_fraction": 0.0}
        return {
            "policy_loss": float(np.mean(policy_losses)),
            "value_loss": float(np.mean(value_losses)),
            "entropy": float(np.mean(entropies)),
            "clip_fraction": float(np.mean(clip_fracs)),
        }


TWO_ADAM_CASES = {
    # 128 rows in 32-row minibatches, on 3x3 instances with two tools
    "tools": (lambda: nine_task_instances(True), dict(steps_per_update=128, minibatch_size=32)),
    # the default_6x6 shape and buffer
    "6x6-2048": (lambda: generated(count=4), dict(steps_per_update=2048, minibatch_size=256)),
    # 150 rows: minibatches of 64, 64 and 22
    "ragged-minibatch": (lambda: nine_task_instances(False),
                         dict(steps_per_update=150, minibatch_size=64)),
    "epochs-0": (lambda: nine_task_instances(False), dict(steps_per_update=64, epochs=0)),
    "hidden-64": (lambda: nine_task_instances(False),
                  dict(steps_per_update=96, minibatch_size=32, hidden=(64,))),
    "hidden-32x3": (lambda: nine_task_instances(True),
                    dict(steps_per_update=96, minibatch_size=32, hidden=(32, 32, 32))),
}


@pytest.mark.parametrize("case", sorted(TWO_ADAM_CASES))
def test_train_ppo_matches_two_adam_reference(monkeypatch, case):
    """One Adam over both networks, gradients written into its buffer and the
    trimmed clipped objective train bitwise like one Adam per network on
    fresh gradient arrays."""
    make_instances, fields = TWO_ADAM_CASES[case]
    instances = make_instances()
    config = PpoConfig(**{"epochs": 2, "seed": 5, **fields,
                          "total_steps": 2 * fields["steps_per_update"]})
    policy, value, events = train_ppo(dense_factory, instances, config)
    monkeypatch.setattr(ppo, "_ppo_update", TwoAdamUpdate())
    ref_policy, ref_value, ref_events = train_ppo(dense_factory, instances, config)
    for net, ref in ((policy, ref_policy), (value, ref_value)):
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert a.tobytes() == b.tobytes()
    assert [(e.step, e.episode, e.scalars) for e in events] == [
        (e.step, e.episode, e.scalars) for e in ref_events
    ]


class NanRewardEnv(SchedulingEnv):
    """Reports a NaN reward on every step, as a broken reward would."""

    def step(self, action):
        result = super().step(action)
        result.reward = float("nan")
        return result


def nan_after(episodes):
    """An env factory whose envs report NaN rewards once ``episodes`` envs have been built."""
    built = itertools.count()
    return lambda inst: (SchedulingEnv if next(built) < episodes else NanRewardEnv)(inst, DENSE)


def recording_adam(module, monkeypatch):
    """Patch ``module.Adam`` to keep each optimizer and its networks' bytes after every step."""
    optimizers = []

    class RecordingAdam(Adam):
        def __init__(self, *networks, lr):
            super().__init__(*networks, lr=lr)
            self.after_step = self.snapshot()
            optimizers.append(self)

        def snapshot(self):
            return [a.tobytes() for net in self.networks for a in (*net.weights, *net.biases)]

        def step(self):
            super().step()
            self.after_step = self.snapshot()

    monkeypatch.setattr(module, "Adam", RecordingAdam)
    return optimizers


def test_ppo_divergence_guard_raises_before_the_step(monkeypatch):
    """NaN rewards from the second buffer on: update 0 takes its 2 x 3
    steps, and update 1 stops at its first minibatch before any step."""
    optimizers = recording_adam(ppo, monkeypatch)
    config = PpoConfig(total_steps=72, steps_per_update=36, epochs=2, minibatch_size=16, seed=2)
    # 36 rows are 4 whole 9-step episodes
    with pytest.raises(TrainingDivergedError) as err:
        train_ppo(nan_after(4), nine_task_instances(False), config)
    assert str(err.value).startswith("non-finite PPO loss at update 1: policy nan, value nan")
    (opt,) = optimizers
    assert opt.t == 6 and opt.snapshot() == opt.after_step


def test_dqn_divergence_guard_raises_before_the_step(monkeypatch):
    """NaN rewards from the third episode on (step 19): learn steps run from
    step 16 until the first batch that samples a NaN transition, which
    raises before its step."""
    optimizers = recording_adam(dqn, monkeypatch)
    config = DqnConfig(total_steps=300, batch_size=16, seed=4)
    with pytest.raises(TrainingDivergedError) as err:
        train_dqn(nan_after(2), nine_task_instances(False), config)
    match = re.fullmatch(r"non-finite DQN loss at step (\d+): td_error range \[.*\]", str(err.value))
    step = int(match.group(1))
    (opt,) = optimizers
    assert step >= 19 and opt.t == step - config.batch_size
    assert opt.snapshot() == opt.after_step


@pytest.mark.parametrize("algo", ["ppo", "dqn"])
def test_divergence_raises_without_a_numpy_warning(algo):
    """Every reward NaN from the first episode on: the guard raises, and no
    RuntimeWarning comes first; DQN's message says no td_error entry is finite
    instead of printing a NaN range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError) as err:
            if algo == "ppo":
                train_ppo(nan_after(0), nine_task_instances(False),
                          PpoConfig(total_steps=64, steps_per_update=32, minibatch_size=16, seed=4))
            else:
                train_dqn(nan_after(0), nine_task_instances(False),
                          DqnConfig(total_steps=100, batch_size=16, seed=4))
    if algo == "dqn":
        assert str(err.value) == "non-finite DQN loss at step 16: td_error range [no finite entry]"


def test_ppo_seed_determinism():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=13), 0)
    config = PpoConfig(total_steps=256, steps_per_update=64, epochs=3, minibatch_size=32,
                       seed=17)
    pa, va, ea = train_ppo(dense_factory, [inst], config)
    pb, vb, eb = train_ppo(dense_factory, [inst], config)
    for a, b in zip(pa.weights + pa.biases, pb.weights + pb.biases):
        assert np.array_equal(a, b)
    assert [(e.step, e.scalars) for e in ea] == [(e.step, e.scalars) for e in eb]


def test_ppo_ratio_sanity_before_update():
    """Freshly recomputed log-probs equal the stored ones: importance ratios are 1."""
    inst = generate_instance(jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3,
                                         seed=19), 0)
    rng = np.random.Generator(np.random.Philox(key=23))
    policy = init_mlp([13, 64, 64, 3], rng, output_gain=0.01)
    value = init_mlp([13, 64, 64, 1], rng, output_gain=1.0)
    collector = _RolloutCollector(dense_factory, [inst], rng)
    traj = collector.collect(128, policy, value)
    logits = mlp_forward(policy, traj.observations)
    logp = masked_log_probs(logits, traj.masks)[np.arange(len(traj)), traj.actions]
    ratios = np.exp(logp - traj.log_probs)
    assert np.max(np.abs(ratios - 1.0)) < 1e-6


def test_gae_reduces_to_discounted_returns_when_lambda_one():
    rewards = np.array([1.0, 0.0, 2.0, -1.0, 3.0])
    dones = np.array([False, False, True, False, True])
    values = np.zeros(5)
    gamma = 0.9
    adv, targets = compute_gae(rewards, values, dones, 0.0, gamma, 1.0)
    # episode 1: rewards [1, 0, 2]; episode 2: [-1, 3]
    expected = np.array(
        [1 + 0.9 * 0 + 0.81 * 2, 0 + 0.9 * 2, 2.0, -1 + 0.9 * 3, 3.0]
    )
    assert np.allclose(adv, expected)
    assert np.allclose(targets, expected)


def test_gae_bootstrap_at_buffer_boundary():
    rewards = np.array([0.0, 0.0])
    dones = np.array([False, False])
    values = np.array([0.5, 0.25])
    adv, _ = compute_gae(rewards, values, dones, bootstrap_value=1.0, discount=1.0, lam=1.0)
    # delta_1 = 0 + 1.0 - 0.25 = 0.75; adv_0 = (0 + 0.25 - 0.5) + 0.75 = 0.5
    assert adv[1] == pytest.approx(0.75)
    assert adv[0] == pytest.approx(0.5)


def test_trainers_reject_empty_instances():
    with pytest.raises(ValueError):
        train_dqn(dense_factory, [], DqnConfig(total_steps=10))
    with pytest.raises(ValueError):
        train_ppo(dense_factory, [], PpoConfig(total_steps=10))


def test_trainers_reject_mixed_job_counts_before_the_first_step():
    three = generate_instance(jssp_config(num_jobs=3, tasks_per_job=2, num_machines=2), 0)
    two = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2), 0)
    built = []
    factory = lambda inst: built.append(inst) or dense_factory(inst)
    with pytest.raises(InstanceSetError, match="2-job and 3-job"):
        train_dqn(factory, [three, two], DqnConfig(total_steps=10))
    with pytest.raises(InstanceSetError, match="2-job and 3-job"):
        train_ppo(factory, [three, two], PpoConfig(total_steps=10))
    assert built == []


@pytest.mark.parametrize("total_steps, batch_size, stored", [(40, 64, 40), (37, 41, 40), (37, 40, None)])
def test_dqn_run_that_never_fills_a_batch_is_rejected_before_the_first_episode(
    monkeypatch, total_steps, batch_size, stored
):
    """Episodes of 4 steps are stored whole until total_steps is reached, so 37 or
    40 steps store 40 transitions: a batch of 41 or 64 would never be sampled."""
    instances = generate_batch(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2, count=3))
    built, learned = [], []
    factory = lambda inst: built.append(inst) or dense_factory(inst)
    real_learn = dqn._learn_step
    monkeypatch.setattr(dqn, "_learn_step", lambda *a: learned.append(a) or real_learn(*a))
    config = DqnConfig(total_steps=total_steps, batch_size=batch_size)
    if stored is None:
        _, events = train_dqn(factory, instances, config)
        assert len(built) == 10 and len(learned) == 1 and events[-1].scalars["loss"] > 0.0
        return
    with pytest.raises(ConfigurationError) as err:
        train_dqn(factory, instances, config)
    assert str(err.value) == (
        f"batch_size: must be <= the {stored} transitions a run of total_steps {total_steps} "
        f"stores, got {batch_size}"
    )
    assert built == [] and learned == []


@pytest.mark.parametrize("train, config", [
    (train_ppo, PpoConfig(total_steps=64, steps_per_update=32, epochs=1, minibatch_size=16, seed=1)),
    (train_dqn, DqnConfig(total_steps=64, batch_size=16, seed=1)),
], ids=["ppo", "dqn"])
def test_trainers_build_an_env_for_each_episode_only(train, config):
    """The networks are sized from the instances, not from an env: the factory
    sees exactly the rollout's episodes, in cursor order (64 rows of 6, 6 and
    12 steps)."""
    instances = mixed_length_instances()
    built = []
    train(lambda inst: built.append(inst) or dense_factory(inst), instances, config)
    expected, rows = [], 0
    while rows < 64:
        expected.append(instances[len(expected) % len(instances)])
        rows += expected[-1].num_tasks
    assert built == expected


class ResetStepOnly:
    """An env with only the reset()/step() surface that the trainers may use."""

    __slots__ = ("_env",)

    def __init__(self, env):
        self._env = env

    def reset(self):
        return self._env.reset()

    def step(self, action):
        return self._env.step(action)


@pytest.mark.parametrize("train, config", [
    (train_ppo, PpoConfig(total_steps=300, steps_per_update=64, epochs=2, minibatch_size=32, seed=3)),
    (train_dqn, DqnConfig(total_steps=300, batch_size=16, seed=3)),
], ids=["ppo", "dqn"])
def test_trainers_use_only_reset_and_step(train, config):
    instances = nine_task_instances(tools=True)
    *params, events = train(dense_factory, instances, config)
    *narrow_params, narrow_events = train(lambda inst: ResetStepOnly(dense_factory(inst)),
                                          instances, config)
    assert narrow_events == events
    for net, narrow_net in zip(params, narrow_params):
        for a, b in zip(net.weights + net.biases, narrow_net.weights + narrow_net.biases):
            assert a.tobytes() == b.tobytes()


def test_trajectory_length():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=29), 0)
    rng = np.random.Generator(np.random.Philox(key=1))
    policy = init_mlp([9, 8, 8, 2], rng, output_gain=0.01)
    value = init_mlp([9, 8, 8, 1], rng, output_gain=1.0)
    traj = _RolloutCollector(dense_factory, [inst], rng).collect(10, policy, value)
    assert len(traj) == 10
    assert traj.observations.shape == (10, 9)
    assert traj.dones.sum() == 2  # two full 4-step episodes, third in flight


def masked_softmax_loss(logits, masks, actions, adv, old_logp, clip, ent_coef):
    lp = masked_log_probs(logits, masks)
    probs = np.exp(lp)
    rows = np.arange(len(actions))
    ratio = np.exp(lp[rows, actions] - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1 - clip, 1 + clip) * adv
    policy_loss = -np.mean(np.minimum(unclipped, clipped))
    safe = np.where(np.isfinite(lp), lp, 0.0)
    entropy = -(probs * safe).sum(axis=1)
    return float(policy_loss - ent_coef * entropy.mean())


@pytest.mark.parametrize("trial", range(5))
def test_ppo_objective_upstream_matches_finite_differences(trial):
    """FD check of the surrogate+entropy gradient at the logits."""
    from schedlab.ppo import clipped_objective_upstream

    rng = np.random.Generator(np.random.Philox(key=900 + trial))
    b, n_act = 6, 4
    logits = rng.standard_normal((b, n_act))
    masks = rng.random((b, n_act)) < 0.7
    masks[np.arange(b), rng.integers(n_act, size=b)] = True  # at least one valid
    valid_lists = [np.flatnonzero(m) for m in masks]
    actions = np.array([v[rng.integers(len(v))] for v in valid_lists])
    adv = rng.standard_normal(b)
    base_lp = masked_log_probs(logits, masks)[np.arange(b), actions]
    old_logp = base_lp + rng.normal(0, 0.05, size=b)  # ratios near but not at 1
    clip, ent_coef = 0.2, 0.01

    *_, upstream = clipped_objective_upstream(
        logits, masks, actions, adv, old_logp, clip, ent_coef
    )
    h = 1e-6
    for i in range(b):
        for j in range(n_act):
            if not masks[i, j]:
                assert upstream[i, j] == 0.0
                continue
            bumped = logits.copy()
            bumped[i, j] += h
            up = masked_softmax_loss(bumped, masks, actions, adv, old_logp, clip, ent_coef)
            bumped[i, j] -= 2 * h
            down = masked_softmax_loss(bumped, masks, actions, adv, old_logp, clip, ent_coef)
            fd = (up - down) / (2 * h)
            assert abs(upstream[i, j] - fd) / max(abs(fd), 1.0) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("trial", range(5))
def test_clipped_objective_matches_untrimmed_reference_bitwise(trial, dtype):
    """Every output of the clipped objective, on ratios spread well past the
    clip range on both sides and with either sign of advantage, has the bits
    of the untrimmed form."""
    rng = np.random.Generator(np.random.Philox(key=950 + trial))
    b, n_act = 256, 6
    logits = (2 * rng.standard_normal((b, n_act))).astype(dtype)
    masks = rng.random((b, n_act)) < 0.6
    actions = rng.integers(n_act, size=b)
    masks[np.arange(b), actions] = True
    adv = rng.standard_normal(b)
    old_logp = masked_log_probs(logits, masks)[np.arange(b), actions] + rng.normal(0, 0.5, size=b)
    got = ppo.clipped_objective_upstream(logits, masks, actions, adv, old_logp, 0.2, 0.01)
    want = untrimmed_clipped_objective(logits, masks, actions, adv, old_logp, 0.2, 0.01)
    assert 0.2 < got[2] < 0.8  # the clipped branch is taken often
    assert got[:3] == want[:3]
    assert got[3].dtype == want[3].dtype and got[3].tobytes() == want[3].tobytes()


def test_dqn_td_loss_gradient_matches_finite_differences():
    """FD check of the squared-TD-error head through the Q-network weights."""
    rng = np.random.Generator(np.random.Philox(key=1234))
    params = init_mlp([5, 8, 8, 3], rng)
    b = 7
    obs = rng.standard_normal((b, 5))
    actions = rng.integers(3, size=b)
    targets = rng.standard_normal(b)

    def loss():
        q = mlp_forward(params, obs)
        return float(np.mean((q[np.arange(b), actions] - targets) ** 2))

    q = mlp_forward(params, obs)
    td = q[np.arange(b), actions] - targets
    upstream = np.zeros_like(q)
    upstream[np.arange(b), actions] = 2.0 * td / b
    gw, gb = mlp_gradient(params, mlp_activations(params, obs), upstream)

    h = 1e-6
    worst = 0.0
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
                worst = max(worst, abs(g[idx] - fd) / max(abs(fd), 1.0))
                it.iternext()
    assert worst < 1e-4
