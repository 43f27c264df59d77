"""Input sets of the benchmark: their make-up, the committed files and fresh generation.

Every set of one shape comes from a single ``generate_batch`` call. Its
generator seed is derived from the workload seed through SHA-256 of
``"<set name>:<workload seed>"``, so sets for nearby workload seeds share no
Philox stream (``generate_instance`` keys Philox with ``seed ^ stream_index``,
and batches for seeds that differ in low bits would otherwise share content).

The files under ``perfbench/data`` are the sets for workload seed 0, written
by ``python3 perfbench/make_inputs.py``. Seed 0 reads them; any other seed
generates fresh sets of the same make-up, so a generator change cannot move
what seed 0 measures. The solve set is the exception: it is always the
committed one (see ``solve_set``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from schedlab import GeneratorConfig, Instance, ProblemType, generate_batch, read_instances

DATA_DIR = Path(__file__).resolve().parent / "data"
COMMITTED_SEED = 0
OPTIMA_FILE = DATA_DIR / "solve_optima.json"


@dataclass(frozen=True)
class SetSpec:
    """Make-up of one input set; ``generator_config`` fills in the seed."""

    name: str
    num_jobs: int
    num_machines: int
    runtime_hi: int
    count: int
    num_tools: int = 0

    def generator_config(self, workload_seed: int) -> GeneratorConfig:
        return GeneratorConfig(
            problem_type=ProblemType.JSSP,
            num_jobs=self.num_jobs,
            tasks_per_job=self.num_machines,
            num_machines=self.num_machines,
            runtime_lo=1,
            runtime_hi=self.runtime_hi,
            count=self.count,
            seed=derived_seed(self.name, workload_seed),
            with_tools=self.num_tools > 0,
            num_tools=self.num_tools,
        )

    @property
    def path(self) -> Path:
        return DATA_DIR / f"{self.name}.jsonl"


SOLVE_JSSP = SetSpec("solve-6x6", 6, 6, 10, 4)
SOLVE_TOOLS = SetSpec("solve-4x4-tools", 4, 4, 10, 8, num_tools=2)
TRAIN = SetSpec("train-6x6", 6, 6, 10, 150)  # first 100 train, last 50 held out
TRAIN_COUNT = 100
LARGE_20 = SetSpec("large-20x20", 20, 20, 99, 4)
LARGE_50 = SetSpec("large-50x20", 50, 20, 99, 2)
ALL_SETS = (SOLVE_JSSP, SOLVE_TOOLS, TRAIN, LARGE_20, LARGE_50)


def derived_seed(set_name: str, workload_seed: int) -> int:
    digest = hashlib.sha256(f"{set_name}:{workload_seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def load_set(spec: SetSpec, workload_seed: int) -> list[Instance]:
    """The committed file for seed 0, a fresh batch for any other seed."""
    if workload_seed == COMMITTED_SEED:
        return read_instances(spec.path)
    return generate_batch(spec.generator_config(workload_seed))


def solve_set() -> list[Instance]:
    """The 6x6 and 4x4-with-tools instances that ``solve-bnb`` proves optimal.

    Always the committed set, whatever the workload seed: proof time varies
    by three orders of magnitude between instances of one make-up (0.01 s to
    12 s on 6x6), so a set drawn per seed would measure which instances were
    drawn, not the solver.
    """
    return load_set(SOLVE_JSSP, COMMITTED_SEED) + load_set(SOLVE_TOOLS, COMMITTED_SEED)


def reference_optima() -> dict[str, int]:
    return {k: int(v) for k, v in json.loads(OPTIMA_FILE.read_text(encoding="utf-8")).items()}
