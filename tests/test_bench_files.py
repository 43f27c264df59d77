"""The committed BENCH_*.json files hold what a paired comparison needs.

Each file records one perf change against its parent: a claimed workload and
end-to-end metric of BENCHMARK.json, and result rows of paired runs, each
row with every end-to-end metric and, per side, one run value per pair and
quartiles that lie within the runs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def result_rows(bench):
    """Every row of a results list: ``results`` and its variants, e.g. ``results_final_tree``."""
    return [row for key, rows in bench.items() if key.startswith("results") for row in rows]


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_conforms(path):
    bench = json.loads(path.read_text())
    claimed = bench["claimed"]
    assert claimed["workload"] in WORKLOADS and claimed["metric"] in END_TO_END
    assert {row["workload"] for row in bench["results"]} >= WORKLOADS
    for row in result_rows(bench):
        where = f"{row['workload']} seed {row['seed']}"
        assert set(row["metrics"]) >= END_TO_END, where
        for metric in END_TO_END:
            for side in ("parent", "change"):
                stats = row["metrics"][metric][side]
                runs = stats["runs"]
                assert len(runs) == row["pairs"], f"{where} {metric} {side}"
                assert min(runs) <= stats["q1"] <= stats["median"] <= stats["q3"] <= max(runs), (
                    f"{where} {metric} {side}"
                )
