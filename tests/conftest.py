import dataclasses

import numpy as np
import pytest

from schedlab.instances import (
    GeneratorConfig,
    Instance,
    InstanceMeta,
    ProblemType,
    Task,
    generate_instance,
    instance_digest,
)
from schedlab.schedule import Timeline


def build_instance(job_specs, num_machines, num_tools=0, problem_type=ProblemType.JSSP, seed=0):
    """Hand-craft an instance. job_specs: per job, a list of (machines, p, tool)."""
    tasks_per_job = len(job_specs[0])
    assert all(len(spec) == tasks_per_job for spec in job_specs)
    tasks = []
    for j, spec in enumerate(job_specs):
        for k, (machines, p, tool) in enumerate(spec):
            if isinstance(machines, int):
                machines = (machines,)
            tasks.append(
                Task(
                    job_id=j,
                    op_index=k,
                    eligible_machines=tuple(sorted(machines)),
                    processing_time=p,
                    tool=tool,
                )
            )
    inst = Instance(
        id="",
        problem_type=problem_type,
        num_jobs=len(job_specs),
        tasks_per_job=tasks_per_job,
        num_machines=num_machines,
        num_tools=num_tools,
        tasks=tuple(tasks),
        meta=InstanceMeta(seed=seed),
    )
    return dataclasses.replace(inst, id=instance_digest(inst))


def timeline_of(columns):
    """A fresh Timeline holding one resource's (starts, ends), as ``Schedule.busy()`` gives them."""
    timeline = Timeline()
    for start, end in zip(*columns):
        timeline.add(start, end)
    return timeline


def jssp_config(num_jobs=6, tasks_per_job=6, num_machines=6, runtime_lo=1, runtime_hi=10,
                count=1, seed=0, with_tools=False, num_tools=0):
    return GeneratorConfig(
        problem_type=ProblemType.JSSP,
        num_jobs=num_jobs,
        tasks_per_job=tasks_per_job,
        num_machines=num_machines,
        runtime_lo=runtime_lo,
        runtime_hi=runtime_hi,
        count=count,
        seed=seed,
        with_tools=with_tools,
        num_tools=num_tools,
    )


def fjssp_config(**kwargs):
    cfg = jssp_config(**kwargs)
    return dataclasses.replace(cfg, problem_type=ProblemType.FJSSP)


def four_problem_kinds(num_jobs, tasks_per_job, num_machines, seed):
    """One instance each of JSSP, FJSSP, JSSP with tools and FJSSP with tools."""
    shape = dict(num_jobs=num_jobs, tasks_per_job=tasks_per_job, num_machines=num_machines,
                 seed=seed)
    tools = dict(with_tools=True, num_tools=2)
    return [
        generate_instance(cfg, 0)
        for cfg in (jssp_config(**shape), fjssp_config(**shape),
                    jssp_config(**shape, **tools), fjssp_config(**shape, **tools))
    ]


@pytest.fixture
def single_task_instance():
    return build_instance([[(0, 5, None)]], num_machines=1)


class PerArrayAdam:
    """Reference: Adam with one pair of moment arrays per parameter array,
    stepped on gradient arrays it is handed (the textbook form ``Adam`` must
    match bit for bit)."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m_w = [np.zeros_like(w) for w in params.weights]
        self.v_w = [np.zeros_like(w) for w in params.weights]
        self.m_b = [np.zeros_like(b) for b in params.biases]
        self.v_b = [np.zeros_like(b) for b in params.biases]

    def step(self, grad_w, grad_b):
        self.t += 1
        bc1 = 1.0 - 0.9**self.t
        bc2 = 1.0 - 0.999**self.t
        for i in range(self.params.num_layers()):
            for m, v, g, p in (
                (self.m_w[i], self.v_w[i], grad_w[i], self.params.weights[i]),
                (self.m_b[i], self.v_b[i], grad_b[i], self.params.biases[i]),
            ):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
