"""Priority dispatching rules and the random policy.

SPT/LPT/MTR are deterministic: each is one ``argmin``/``argmax`` over
its observation entries with the masked-out jobs set to +/-inf, and both
return the first extremum, so ties go to the lowest job index. RANDOM
samples uniformly over the valid jobs.

The rules are job-level: they rank *all* unfinished jobs by their next task,
not only the non-delay conflict set (the jobs whose next task can start
earliest). Under earliest-gap placement this makes SPT worse than the
uniform-random mean, the reverse of the conventional ordering; acceptance
criterion 4a pins both orderings.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NoValidActionError


class DispatchRule(str, Enum):
    SPT = "spt"
    LPT = "lpt"
    MTR = "mtr"
    RANDOM = "random"


Policy = Callable[[np.ndarray, np.ndarray], int]


def rule_policy(rule: DispatchRule, rng: np.random.Generator | None = None) -> Policy:
    """Rule as an (observation, mask) policy.

    Relies on the observation layout: entry 4j+1 is the next-task processing
    time (normalized, so equal times stay equal) and entry 4j is the fraction
    of job j already scheduled (so the max-remaining job has the minimum).
    """
    if rule is DispatchRule.RANDOM and rng is None:
        raise InvalidArgumentError("RANDOM rule needs an rng")

    def policy(obs: np.ndarray, mask: np.ndarray) -> int:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise NoValidActionError("action mask admits no valid job")
        n = len(mask)  # obs has 4n + 1 entries; the last one is the makespan
        if rule is DispatchRule.RANDOM:
            valid = np.flatnonzero(mask)
            return int(valid[rng.integers(len(valid))])
        if rule is DispatchRule.SPT:
            return int(np.where(mask, obs[1:4 * n:4], np.inf).argmin())
        if rule is DispatchRule.LPT:
            return int(np.where(mask, obs[1:4 * n:4], -np.inf).argmax())
        return int(np.where(mask, obs[0:4 * n:4], np.inf).argmin())

    return policy
