import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.env import (
    RewardMode,
    SchedulingEnv,
    action_mask,
    observation_length,
    observe,
    reset,
    step,
)
from schedlab.errors import InvalidActionError
from schedlab.instances import generate_instance
from schedlab.schedule import validate_schedule

from conftest import build_instance, fjssp_config, jssp_config

DENSE = RewardMode.DENSE_MAKESPAN_DELTA
SPARSE = RewardMode.SPARSE_TERMINAL


def test_reset_6x6():
    inst = generate_instance(jssp_config(seed=42), 0)
    env = SchedulingEnv(inst, DENSE)
    obs, mask = reset(env)
    assert len(obs) == observation_length(6) == 25
    assert mask.tolist() == [True] * 6
    assert len(env.schedule.placements) == 0


def test_reset_1x1(single_task_instance):
    env = SchedulingEnv(single_task_instance, DENSE)
    obs, mask = reset(env)
    assert len(obs) == 5
    assert mask.tolist() == [True]


def test_reset_is_deterministic():
    inst = generate_instance(jssp_config(seed=1), 0)
    a = reset(SchedulingEnv(inst, DENSE))
    b = reset(SchedulingEnv(inst, DENSE))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_single_task_dense_reward(single_task_instance):
    env = SchedulingEnv(single_task_instance, DENSE)
    reset(env)
    result = step(env, 0)
    assert result.reward == -1.0
    assert result.done
    assert result.makespan == 5
    assert result.mask.tolist() == [False]


def test_single_task_sparse_reward(single_task_instance):
    env = SchedulingEnv(single_task_instance, SPARSE)
    reset(env)
    result = step(env, 0)
    assert result.reward == -1.0 and result.done


def test_two_job_dense_rewards_hand_rolled():
    # p=3 and p=4 on different machines; UB=7
    inst = build_instance([[(0, 3, None)], [(1, 4, None)]], num_machines=2)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    r0 = step(env, 0)
    assert r0.reward == pytest.approx(-3 / 7)
    r1 = step(env, 1)
    assert r1.reward == pytest.approx(-(4 - 3) / 7)
    assert r1.done and r1.makespan == 4


def test_step_on_completed_job_raises():
    inst = build_instance([[(0, 2, None)], [(0, 3, None)]], num_machines=1)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    step(env, 0)
    with pytest.raises(InvalidActionError):
        step(env, 0)


def test_step_out_of_range_raises():
    inst = build_instance([[(0, 2, None)]], num_machines=1)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    with pytest.raises(InvalidActionError):
        step(env, 1)
    with pytest.raises(InvalidActionError):
        step(env, -1)


def test_initial_observation_features(single_task_instance):
    env = SchedulingEnv(single_task_instance, DENSE)
    obs, _ = reset(env)
    assert obs[0] == 0.0  # fraction scheduled
    assert obs[1] == 1.0  # p / p_max
    assert obs[2] == 0.0  # job ready / UB
    assert obs[3] == 0.0  # earliest start / UB
    assert obs[-1] == 0.0  # makespan / UB


def test_terminal_observation_features():
    inst = build_instance([[(0, 2, None), (0, 3, None)]], num_machines=1)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    step(env, 0)
    result = step(env, 0)
    obs = result.observation
    assert obs[0] == 1.0
    assert obs[1] == 0.0 and obs[3] == 0.0  # zeroed once the job is done
    assert obs[2] == pytest.approx(5 / 5)
    assert obs[-1] == 1.0
    assert not result.mask.any()


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_episode_invariants(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    for cfg in (
        jssp_config(num_jobs=4, tasks_per_job=4, num_machines=4, seed=seed),
        fjssp_config(num_jobs=3, tasks_per_job=4, num_machines=3, seed=seed),
        jssp_config(num_jobs=3, tasks_per_job=4, num_machines=4, with_tools=True,
                    num_tools=2, seed=seed),
    ):
        inst = generate_instance(cfg, 0)
        env = SchedulingEnv(inst, DENSE)
        obs, mask = reset(env)
        steps = 0
        rewards = []
        while mask.any():
            assert obs.min() >= 0.0 and obs.max() <= 1.0
            assert np.isfinite(obs).all()
            # mask soundness: mask[j] iff job j has an unscheduled op
            expected = [env.schedule.next_op[j] < inst.tasks_per_job
                        for j in range(inst.num_jobs)]
            assert mask.tolist() == expected
            valid = np.flatnonzero(mask)
            result = step(env, int(valid[rng.integers(len(valid))]))
            rewards.append(result.reward)
            obs, mask = result.observation, result.mask
            steps += 1
        assert steps == inst.num_tasks
        assert result.done
        assert validate_schedule(env.schedule) == []
        # telescoping: dense rewards sum to -makespan/UB
        total = sum(rewards)
        assert abs(total - (-env.schedule.makespan / env.ub)) < 1e-12


def test_dense_and_sparse_returns_match():
    rng = np.random.Generator(np.random.Philox(key=3))
    inst = generate_instance(jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3,
                                         seed=17), 0)
    actions = []
    env = SchedulingEnv(inst, DENSE)
    _, mask = reset(env)
    dense_total = 0.0
    while mask.any():
        valid = np.flatnonzero(mask)
        a = int(valid[rng.integers(len(valid))])
        actions.append(a)
        result = step(env, a)
        dense_total += result.reward
        mask = result.mask
    env2 = SchedulingEnv(inst, SPARSE)
    reset(env2)
    sparse_total = 0.0
    for a in actions:
        r = step(env2, a)
        sparse_total += r.reward
    assert sparse_total == pytest.approx(dense_total, abs=1e-12)
    # identical action sequences give identical placements
    assert env.schedule.placements == env2.schedule.placements


def test_env_class_wrapper():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=2), 0)
    env = SchedulingEnv(inst, DENSE)
    obs, mask = env.reset()
    assert len(obs) == 9 and mask.all()
    result = env.step(0)
    assert result.makespan > 0
    env2 = SchedulingEnv(inst, DENSE)
    with pytest.raises(InvalidActionError):
        env2.step(0)  # before reset


def test_determinism_full_episode():
    inst = generate_instance(jssp_config(seed=23), 0)

    def play():
        env = SchedulingEnv(inst, DENSE)
        _, mask = reset(env)
        out = []
        while mask.any():
            a = int(np.flatnonzero(mask)[0])
            r = step(env, a)
            out.append((a, r.reward, r.observation.tolist()))
            mask = r.mask
        return out

    assert play() == play()


def test_observe_and_mask_are_pure():
    inst = generate_instance(jssp_config(num_jobs=2, tasks_per_job=2, num_machines=2,
                                         seed=5), 0)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    step(env, 0)
    a1, m1 = observe(env), action_mask(env)
    a2, m2 = observe(env), action_mask(env)
    assert np.array_equal(a1, a2) and np.array_equal(m1, m2)


INCREMENTAL_CONFIGS = {
    "jssp": lambda seed: jssp_config(num_jobs=6, tasks_per_job=5, num_machines=4, seed=seed),
    "fjssp": lambda seed: fjssp_config(num_jobs=5, tasks_per_job=4, num_machines=3, seed=seed),
    "tools": lambda seed: jssp_config(num_jobs=5, tasks_per_job=4, num_machines=4,
                                      with_tools=True, num_tools=2, seed=seed),
    "fjssp-tools": lambda seed: fjssp_config(num_jobs=5, tasks_per_job=4, num_machines=3,
                                             with_tools=True, num_tools=2, seed=seed),
}


@pytest.mark.parametrize("kind", sorted(INCREMENTAL_CONFIGS))
def test_step_observation_equals_full_observe(kind):
    # step updates only the entries its placement can change; after every
    # step of random episodes the observation and the mask must equal a full
    # recompute bit for bit
    for seed in range(12):
        inst = generate_instance(INCREMENTAL_CONFIGS[kind](seed), 0)
        rng = np.random.Generator(np.random.Philox(key=seed))
        env = SchedulingEnv(inst, SPARSE)
        obs, mask = reset(env)
        assert obs.tobytes() == observe(env).tobytes()
        assert np.array_equal(mask, action_mask(env))
        while mask.any():
            result = step(env, int(rng.choice(np.flatnonzero(mask))))
            assert result.observation.tobytes() == observe(env).tobytes()
            assert np.array_equal(result.mask, action_mask(env))
            mask = result.mask


def test_mutating_returned_observation_does_not_leak():
    inst = generate_instance(INCREMENTAL_CONFIGS["fjssp-tools"](3), 0)
    env = SchedulingEnv(inst, DENSE)
    obs, mask = reset(env)
    obs[:] = 7.0
    while mask.any():
        result = step(env, int(np.flatnonzero(mask)[-1]))
        assert result.observation.tobytes() == observe(env).tobytes()
        result.observation[:] = 7.0
        mask = result.mask


@pytest.mark.parametrize("kind", sorted(INCREMENTAL_CONFIGS))
def test_second_reset_mid_episode_starts_afresh(kind):
    inst = generate_instance(INCREMENTAL_CONFIGS[kind](4), 0)
    env = SchedulingEnv(inst, DENSE)
    assert env.schedule is None
    env.reset()
    for a in [0] * inst.tasks_per_job + [1]:  # job 0 done, its mask entry False
        env.step(a)
    obs, mask = env.reset()
    fresh_obs, fresh_mask = SchedulingEnv(inst, DENSE).reset()
    assert len(env.schedule.placements) == 0
    assert obs.tobytes() == fresh_obs.tobytes() and mask.tobytes() == fresh_mask.tobytes()
    rng = np.random.Generator(np.random.Philox(key=4))
    while mask.any():
        result = env.step(int(rng.choice(np.flatnonzero(mask))))
        assert result.observation.tobytes() == observe(env).tobytes()
        assert np.array_equal(result.mask, action_mask(env))
        mask = result.mask
    assert result.done and validate_schedule(env.schedule) == []


def assert_slots_fresh(env):
    # every unfinished job's kept slot carries the schedule's next task of the
    # job and a fresh best_machine of it
    schedule, inst = env.schedule, env.instance
    for j in range(inst.num_jobs):
        k = schedule.next_op[j]
        if k < inst.tasks_per_job:
            task = inst.task(j, k)
            machine, start = schedule.best_machine(task)
            assert env.slots[j] == (task, machine, start, start + task.processing_time), j
        else:
            assert env.slots[j] is None


@pytest.mark.parametrize("policy", ["random", "spt", "lpt", "mtr"])
@pytest.mark.parametrize("kind", sorted(INCREMENTAL_CONFIGS))
def test_kept_slots_equal_fresh_best_machine(kind, policy):
    for seed in range(6):
        inst = generate_instance(INCREMENTAL_CONFIGS[kind](seed), 0)
        rng = np.random.Generator(np.random.Philox(key=seed))
        choose = rule_policy(DispatchRule(policy), rng)
        env = SchedulingEnv(inst, DENSE)
        obs, mask = reset(env)
        assert_slots_fresh(env)
        while mask.any():
            result = step(env, choose(obs, mask))
            assert_slots_fresh(env)
            obs, mask = result.observation, result.mask


def jobs_queried_by_step(env, action):
    """The jobs whose next task ``best_machine`` is asked about during one step."""
    queried = []
    real = env.schedule.best_machine

    def counting(task):
        queried.append(task.job_id)
        return real(task)

    env.schedule.best_machine = counting
    try:
        step(env, action)
    finally:
        del env.schedule.best_machine
    return queried


# Job 1's first task takes [0, 3) on machine 1, so its kept slot is (task, 0,
# 3, 5): its second task on machine 0 with tool 0 from its ready time 3. Job
# 0's last listed action then places on machine 0, or on tool 0 only, next to
# or across that slot.
HALF_OPEN_CASES = {
    "ends at the slot start": ([(0, 3, None), (2, 1, None)], [1, 0], (0, 3, 5), False),
    "starts at the slot end": ([(2, 5, None), (0, 2, None)], [1, 0, 0], (0, 3, 5), False),
    "one unit on the machine": ([(0, 4, None), (2, 1, None)], [1, 0], (0, 4, 6), True),
    "one unit on the tool only": ([(2, 4, 0), (2, 1, None)], [1, 0], (0, 4, 6), True),
}


@pytest.mark.parametrize("case", sorted(HALF_OPEN_CASES))
def test_kept_slot_recomputed_only_on_overlap(case):
    job0, actions, slot, recomputed = HALF_OPEN_CASES[case]
    inst = build_instance([job0, [(1, 3, None), (0, 2, 0)]], num_machines=3, num_tools=1)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    for a in actions[:-1]:
        step(env, a)
    assert env.slots[1] == (inst.task(1, 1), 0, 3, 5)
    assert (1 in jobs_queried_by_step(env, actions[-1])) == recomputed
    assert env.slots[1] == (inst.task(1, 1), *slot)
    assert_slots_fresh(env)


def test_full_observe_leaves_env_as_it_was():
    inst = generate_instance(INCREMENTAL_CONFIGS["fjssp-tools"](2), 0)
    env = SchedulingEnv(inst, DENSE)
    reset(env)
    for a in (0, 1, 2, 0):
        step(env, a)
    obs, mask = env.obs.copy(), env.mask.copy()
    watchers = [set(w) for w in env.watchers]
    # a sentinel slot shows whether the full recompute writes slots
    env.slots[3] = sentinel = (None, -1, -1, -1)
    slots = list(env.slots)
    full = observe(env)
    assert full.tobytes() == obs.tobytes()
    assert env.obs.tobytes() == obs.tobytes() and env.mask.tobytes() == mask.tobytes()
    assert env.watchers == watchers and env.slots == slots and env.slots[3] is sentinel
