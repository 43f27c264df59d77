"""Time the set-up of one workload in this fresh interpreter, under speed probes.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the probe-scaled seconds of ``import schedlab.cli`` plus the mean
probe-scaled seconds of the workload's ``prepare(seed)``, which runs over
and over for at least ``PREPARE_S`` seconds: one preparation is too short
for a probe of its own. numpy is loaded by the probe before the import is
timed. schedlab must be importable (``PYTHONPATH=src``).
"""

import sys
import time

from probe import SpeedProbe

PREPARE_S = 0.3


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        import schedlab.cli  # noqa: F401
    import_s = probe.scaled(time.perf_counter() - t0)

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    repeats = 0
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        while repeats < 3 or time.perf_counter() - t0 < PREPARE_S:
            workload.prepare(seed)
            repeats += 1
    print(import_s + probe.scaled(time.perf_counter() - t0) / repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
