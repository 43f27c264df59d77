import numpy as np
import pytest

from schedlab.baselines import DispatchRule, rule_policy
from schedlab.env import RewardMode, SchedulingEnv, reset, step
from schedlab.errors import InvalidArgumentError, NoValidActionError
from schedlab.instances import generate_instance
from schedlab.schedule import validate_schedule

from conftest import build_instance, four_problem_kinds, jssp_config


def three_job_obs():
    # next-task processing times (7, 2, 5)
    inst = build_instance(
        [[(0, 7, None)], [(1, 2, None)], [(2, 5, None)]], num_machines=3
    )
    obs, mask = reset(SchedulingEnv(inst, RewardMode.DENSE_MAKESPAN_DELTA))
    return obs, mask


def test_spt_and_lpt_argmin_argmax():
    obs, mask = three_job_obs()
    assert rule_policy(DispatchRule.SPT)(obs, mask) == 1
    assert rule_policy(DispatchRule.LPT)(obs, mask) == 0


def test_mtr_tie_breaks_to_lowest_index():
    # remaining counts (3, 3, 1): job 0 wins the tie
    inst = build_instance(
        [
            [(0, 2, None), (1, 2, None), (2, 2, None)],
            [(1, 3, None), (2, 3, None), (0, 3, None)],
            [(2, 4, None), (0, 4, None), (1, 4, None)],
        ],
        num_machines=3,
    )
    env = SchedulingEnv(inst, RewardMode.DENSE_MAKESPAN_DELTA)
    reset(env)
    step(env, 2)
    obs = step(env, 2).observation
    mask = np.array([True, True, True])
    assert rule_policy(DispatchRule.MTR)(obs, mask) == 0


def test_random_without_rng_is_a_typed_caller_error():
    with pytest.raises(InvalidArgumentError, match="^RANDOM rule needs an rng$"):
        rule_policy(DispatchRule.RANDOM)


def test_random_frequencies():
    obs, _ = three_job_obs()
    mask = np.array([True, False, True])
    with pytest.raises(ValueError):
        rule_policy(DispatchRule.RANDOM)
    policy = rule_policy(DispatchRule.RANDOM, np.random.Generator(np.random.Philox(key=42)))
    draws = [policy(obs, mask) for _ in range(10_000)]
    assert set(draws) == {0, 2}
    freq0 = draws.count(0) / len(draws)
    assert 0.47 <= freq0 <= 0.53


def test_single_valid_job_every_rule():
    obs, _ = three_job_obs()
    mask = np.array([False, True, False])
    rng = np.random.Generator(np.random.Philox(key=1))
    for rule in DispatchRule:
        assert rule_policy(rule, rng)(obs, mask) == 1


def test_all_false_mask_raises():
    obs, _ = three_job_obs()
    mask = np.zeros(3, dtype=bool)
    with pytest.raises(NoValidActionError):
        rule_policy(DispatchRule.SPT)(obs, mask)


def test_deterministic_rules_are_functions_of_state():
    inst = generate_instance(jssp_config(num_jobs=4, tasks_per_job=3, num_machines=3,
                                         seed=9), 0)
    for rule in (DispatchRule.SPT, DispatchRule.LPT, DispatchRule.MTR):
        obs, mask = reset(SchedulingEnv(inst, RewardMode.DENSE_MAKESPAN_DELTA))
        first = rule_policy(rule)(obs, mask)
        obs2, mask2 = reset(SchedulingEnv(inst, RewardMode.DENSE_MAKESPAN_DELTA))
        assert rule_policy(rule)(obs2, mask2) == first


@pytest.mark.parametrize("rule", list(DispatchRule))
def test_full_rollout_valid_and_policy_equivalent(rule):
    """At every step the obs-based rule picks the argmin over the exact integer state."""
    for inst in four_problem_kinds(4, 4, 4, seed=31):
        rng_a = np.random.Generator(np.random.Philox(key=5))
        rng_b = np.random.Generator(np.random.Philox(key=5))
        policy = rule_policy(rule, rng_b)
        env = SchedulingEnv(inst, RewardMode.DENSE_MAKESPAN_DELTA)
        obs, mask = reset(env)
        while mask.any():
            valid = [j for j in range(inst.num_jobs) if mask[j]]
            next_op = env.schedule.next_op
            p = {j: inst.task(j, next_op[j]).processing_time for j in valid}
            if rule is DispatchRule.SPT:
                expected = min(valid, key=lambda j: (p[j], j))
            elif rule is DispatchRule.LPT:
                expected = min(valid, key=lambda j: (-p[j], j))
            elif rule is DispatchRule.MTR:
                expected = min(valid, key=lambda j: (next_op[j], j))
            else:
                expected = valid[int(rng_a.integers(len(valid)))]
            a = policy(obs, mask)
            assert a == expected
            result = step(env, a)
            obs, mask = result.observation, result.mask
        assert validate_schedule(env.schedule) == []


def test_rules_dominated_by_solver():
    # the SPT-vs-RANDOM orderings live in the acceptance suite at their full
    # 100-instance / 20-seed scale (test_acceptance.py, criterion 4a): job-level
    # SPT loses to the random mean, non-delay SPT beats non-delay random
    from schedlab.evaluate import evaluate
    from schedlab.solver import solve_optimal

    cfg = jssp_config(num_jobs=3, tasks_per_job=3, num_machines=3, count=10, seed=606)
    instances = [generate_instance(cfg, i) for i in range(10)]
    records = evaluate(["spt", "lpt", "mtr", "random"], instances,
                       RewardMode.DENSE_MAKESPAN_DELTA, seeds=range(5))
    best = {inst.id: solve_optimal(inst).makespan for inst in instances}
    for rec in records:
        assert rec.makespan >= best[rec.instance_id] - 1e-9


def key_reference(rule, obs, mask, rng):
    """Each rule as a lowest-index-tie ``min`` over the valid jobs' entries."""
    valid = [j for j in range(len(mask)) if mask[j]]
    if rule is DispatchRule.SPT:
        return min(valid, key=lambda j: (obs[4 * j + 1], j))
    if rule is DispatchRule.LPT:
        return min(valid, key=lambda j: (-obs[4 * j + 1], j))
    if rule is DispatchRule.MTR:
        return min(valid, key=lambda j: (obs[4 * j], j))
    return valid[int(rng.integers(len(valid)))]


def random_observation(rng, n):
    """Entries on a coarse grid, so 4j and 4j+1 tie often; finished jobs read
    1 at 4j and 0 elsewhere, and the makespan entry is the smallest value."""
    obs = rng.integers(0, 4, size=4 * n + 1) / 4.0
    finished = rng.random(n) < 0.3
    for j in np.flatnonzero(finished):
        obs[4 * j:4 * j + 4] = (1.0, 0.0, obs[4 * j + 2], 0.0)
    obs[-1] = 0.0
    return obs, ~finished


@pytest.mark.parametrize("rule", list(DispatchRule))
def test_rules_match_key_reference_on_random_observations(rule):
    gen = np.random.Generator(np.random.Philox(key=77))
    cases = 0
    for n in [1, 1, 2, 3, 5, 8, 20] * 30:
        obs, unfinished = random_observation(gen, n)
        if not unfinished.any():
            continue
        starts = np.where(unfinished, obs[3:-1:4], np.inf)
        one = np.zeros(n, dtype=bool)
        one[gen.choice(np.flatnonzero(unfinished))] = True
        # job-level, non-delay (criterion 4a's narrowing) and single-valid masks
        for mask in (unfinished, starts == starts.min(), one):
            for form in (mask, mask.tolist(), mask.astype(np.int64)):
                seed = int(gen.integers(2**32))
                ref_rng = np.random.Generator(np.random.Philox(key=seed))
                rng = np.random.Generator(np.random.Philox(key=seed))
                expected = key_reference(rule, obs, mask, ref_rng)
                got = rule_policy(rule, rng)(obs, form)
                assert type(got) is int
                assert got == expected < n
                cases += 1
    assert cases > 1000
