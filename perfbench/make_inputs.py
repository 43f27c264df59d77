"""Regenerate the committed input sets and the reference optima of the solve set.

    python3 perfbench/make_inputs.py            # instance files for workload seed 0
    python3 perfbench/make_inputs.py --optima   # also re-prove the solve-set optima

Run from the root of the repository. The instance files are a pure function
of the set make-up in ``inputs.py`` and of the generator; the optima are a
property of the instances, so a correct solver reproduces them exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schedlab import SolveLimits, generate_batch, solve_optimal, write_instances  # noqa: E402

import inputs  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--optima", action="store_true", help="re-prove the solve-set optima")
    args = parser.parse_args(argv)
    inputs.DATA_DIR.mkdir(parents=True, exist_ok=True)
    for spec in inputs.ALL_SETS:
        write_instances(generate_batch(spec.generator_config(inputs.COMMITTED_SEED)), spec.path)
        print(f"wrote {spec.path}")
    if args.optima:
        optima = {}
        for inst in inputs.solve_set():
            result = solve_optimal(inst, SolveLimits(node_limit=10**9, time_limit_s=3600.0))
            if result.proof_status != "optimal":
                print(f"error: {inst.id[:12]} not proven optimal", file=sys.stderr)
                return 1
            optima[inst.id] = result.makespan
            print(f"{inst.id[:12]} optimum {result.makespan} nodes {result.nodes_expanded}")
        inputs.OPTIMA_FILE.write_text(json.dumps(optima, indent=1, sort_keys=True) + "\n")
        print(f"wrote {inputs.OPTIMA_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
