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
    The rule's entry offset, fill value and ``argmin``/``argmax`` are resolved
    here, once; each decision is one closure call. RANDOM draws one
    ``rng.integers`` per decision over the valid jobs in index order.
    """
    if rule is DispatchRule.RANDOM:
        if rng is None:
            raise InvalidArgumentError("RANDOM rule needs an rng")

        def random_policy(obs: np.ndarray, mask: np.ndarray) -> int:
            valid = np.asarray(mask, dtype=bool).nonzero()[0]
            if not len(valid):
                raise NoValidActionError("action mask admits no valid job")
            return int(valid[rng.integers(len(valid))])

        return random_policy

    offset, fill, pick = {
        DispatchRule.SPT: (1, np.inf, np.ndarray.argmin),
        DispatchRule.LPT: (1, -np.inf, np.ndarray.argmax),
        DispatchRule.MTR: (0, np.inf, np.ndarray.argmin),
    }[rule]

    def policy(obs: np.ndarray, mask: np.ndarray) -> int:
        mask = np.asarray(mask, dtype=bool)
        if not np.count_nonzero(mask):  # a C call; mask.any() goes through Python
            raise NoValidActionError("action mask admits no valid job")
        # obs has 4n + 1 entries; the last one is the makespan
        return int(pick(np.where(mask, obs[offset:4 * len(mask):4], fill)))

    return policy
