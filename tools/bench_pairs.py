"""Paired benchmark runs of a parent commit against the working tree.

    python tools/bench_pairs.py --parent HEAD --out BENCH_x.json \\
        --workload rollout-large --claim rollout-large round_s \\
        [--seed 5] [--pairs 10] [--seconds 20]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in a checkout of the parent commit and once in the working tree,
alternating which side runs first: the parent in even pairs, the change in
odd ones. The parent checkout holds the commit's committed files, extracted
with ``git archive`` into a temporary directory that is removed at the end,
so nothing is added to the repository's git metadata. Run it from the root
of a schedlab checkout.

The end-to-end metrics of BENCHMARK.json become one row per workload and
seed, in the ``results`` list of ``--out``; the file is created if missing,
a row of the same workload and seed is replaced, and the file is rewritten
after every finished row. A row holds, per metric and side, every run value
and their median and inclusive-method quartiles, and
``change_lower_in_pairs``; ``failed`` and ``attempted`` sum both sides, and
``correct`` holds only if every run passed its checks. ``--claim`` names the
workload and end-to-end metric the change claims a gain on; it becomes the
file's ``claimed`` entry, which every committed ``BENCH_*.json`` carries.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_commit(commit: str, into: Path) -> None:
    """The committed files of ``commit``, written under ``into``."""
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", commit), check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result (last stdout line) of one ``--trace 0`` run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} printed nothing:\n{run.stderr}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def paired_row(parent: Path, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    sides = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(parent if side == "parent" else ROOT, workload, seed, seconds))
        values = {s: sides[s][-1]["metrics"]["round_s"]["value"] for s in order}
        print(f"{workload} seed {seed} pair {i}: round_s {values}", file=sys.stderr)
    results = sides["parent"] + sides["change"]
    metrics = {}
    for name in END_TO_END:
        runs = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in sides}
        metrics[name] = {s: summary(runs[s]) for s in sides}
        metrics[name]["change_lower_in_pairs"] = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "correct": all(r["correct"] for r in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to create or update")
    parser.add_argument("--workload", required=True, action="append", help="repeat for several")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--claim", required=True, nargs=2, metavar=("WORKLOAD", "METRIC"),
                        help="the workload and end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)

    out = args.out if args.out.is_absolute() else ROOT / args.out
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("parent", git("rev-parse", "--short", args.parent).decode().strip())
    bench.setdefault("command", "python3 perfbench/run.py --workload <name> --seed <seed> "
                                f"--seconds {args.seconds:g} --trace 0")
    bench.setdefault("machine", f"{platform.machine()}, Python {platform.python_version()}")
    bench.setdefault("method", "tools/bench_pairs.py: paired runs, parent first in even pairs; "
                               "quartiles are inclusive-method quartiles of the per-run values")
    bench["claimed"] = {"workload": args.claim[0], "metric": args.claim[1]}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export_commit(args.parent, Path(tmp))
        for workload in args.workload:
            row = paired_row(Path(tmp), workload, args.seed, args.pairs, args.seconds)
            rows = [r for r in bench.get("results", []) if (r["workload"], r["seed"]) != (workload, args.seed)]
            bench["results"] = rows + [row]
            out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
