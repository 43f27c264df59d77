"""Spans around calls into schedlab, recorded from the benchmark's side.

A ``Tracer`` replaces public functions and methods with wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Each wrapper is installed where its caller looks the name up (``mlp_forward``
is imported into ``ppo`` and ``dqn``, ``solve_optimal`` into ``evaluate``, and
so on), and ``restore`` puts every original back. Spans live in flat arrays
while the run lasts and are written out once, at its end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, classify=None, on_result=None):
        """A traced version of ``fn``.

        ``classify(args)`` may pick the span name per call; ``on_result(args,
        result)`` may update ``counters``.
        """
        nid = self._id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        name_id = self._id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid if classify is None else name_id(classify(args)))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owners, attr: str, name: str, **kwargs) -> None:
        """Trace ``attr`` on each owner (module or class), sharing one original."""
        original = getattr(owners[0], attr)
        traced = self.wrap(name, original, **kwargs)
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def patch_factory(self, owners, attr: str, name: str) -> None:
        """Trace the callables that the factory ``attr`` returns."""
        original = getattr(owners[0], attr)

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self.wrap(name, original(*args, **kwargs))

        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, factory)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        durations = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return names, parents, durations

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        names, parents, dur = self.arrays()
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_total[i])}
            for i, n in enumerate(self.names)
        }

    def total_under(self, name: str, ancestor: str, direct: bool = False) -> tuple[int, float]:
        """Calls and total seconds of ``name`` spans nested in an ``ancestor`` span."""
        if name not in self._ids or ancestor not in self._ids:
            return 0, 0.0
        names, parents, dur = self.arrays()
        target, anc = self._ids[name], self._ids[ancestor]
        selected = names == target
        found = np.zeros(len(names), dtype=bool)
        cur = parents.copy()
        while True:
            live = cur >= 0
            if not live.any():
                break
            hit = np.zeros(len(names), dtype=bool)
            hit[live] = names[cur[live]] == anc
            found |= hit
            if direct:
                break
            cur[live] = parents[cur[live]]
        mask = selected & found
        return int(mask.sum()), float(dur[mask].sum())

    def write(self, path: Path) -> None:
        """Spans as a NumPy archive (name id, parent index, start, end) plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
        )
        path.with_suffix(".summary.json").write_text(
            json.dumps({"counters": self.counters, "spans": self.summary()}, indent=1, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that the per-layer metrics read."""
    import schedlab

    # import_module: the package attribute ``schedlab.evaluate`` is the function
    (baselines, cli, dqn, env, evaluate, instances, metrics, nn, ppo, schedule, solver) = (
        importlib.import_module(f"schedlab.{name}")
        for name in ("baselines", "cli", "dqn", "env", "evaluate", "instances", "metrics", "nn",
                     "ppo", "schedule", "solver")
    )

    def count_nodes(args, result):
        key = "solver.nodes_tools" if args[0].with_tools else "solver.nodes_jssp"
        tracer.counters[key] = tracer.counters.get(key, 0) + result.nodes_expanded

    def forward_kind(args):
        return "nn.forward_single" if np.ndim(args[1]) == 1 else "nn.forward_batch"

    tracer.patch([solver, evaluate, schedlab], "solve_optimal", "solver.solve_optimal", on_result=count_nodes)
    tracer.patch([schedule.Timeline], "earliest_fit", "schedule.earliest_fit")
    tracer.patch([schedule.Schedule], "best_machine", "schedule.best_machine")
    tracer.patch([schedule.Schedule], "place_task", "schedule.place_task")
    tracer.patch([schedule, evaluate, schedlab], "validate_schedule", "schedule.validate")
    tracer.patch([env], "step", "env.step")
    tracer.patch([env], "observe", "env.observe")
    tracer.patch([env], "reset", "env.reset")
    tracer.patch_factory([baselines, evaluate, schedlab], "rule_policy", "baselines.decision")
    tracer.patch([nn, ppo, dqn, schedlab], "mlp_forward", "nn.forward", classify=forward_kind)
    tracer.patch([nn, ppo, dqn, schedlab], "mlp_gradient", "nn.gradient")
    tracer.patch([nn.Adam], "step", "nn.adam_step")
    tracer.patch([ppo, cli, schedlab], "train_ppo", "ppo.train")
    tracer.patch([ppo._RolloutCollector], "collect", "ppo.rollout")
    tracer.patch([ppo], "_ppo_update", "ppo.update")
    tracer.patch([dqn, cli, schedlab], "train_dqn", "dqn.train")
    tracer.patch([dqn], "_learn_step", "dqn.update")
    tracer.patch([evaluate, schedlab], "run_episode", "evaluate.run_episode")
    tracer.patch([evaluate, cli, schedlab], "evaluate", "evaluate.evaluate")
    tracer.patch([instances, cli, schedlab], "generate_batch", "instances.generate")
    tracer.patch([instances, cli, schedlab], "read_instances", "instances.io")
    tracer.patch([instances, cli, schedlab], "write_instances", "instances.io")
    tracer.patch([metrics, cli, schedlab], "write_metrics", "metrics.write")
    for command in ("generate", "solve", "train", "test"):
        tracer.patch([cli], f"cmd_{command}", f"cli.{command}")
