"""Run one schedlab CLI command under a speed probe.

    python3 perfbench/cli_probe.py <probe.json> <schedlab arguments...>

The command runs in this process through ``schedlab.cli.main``, the entry
point of the ``schedlab`` console script; its import is inside the probed
time. The probe's burst total and count, and this process's peak resident
memory in MB, go to ``probe.json``. The exit code is the command's.
"""

import json
import resource
import sys
from pathlib import Path

from probe import SpeedProbe


def main() -> int:
    stats, argv = Path(sys.argv[1]), sys.argv[2:]
    with SpeedProbe() as probe:
        from schedlab import cli

        code = cli.main(argv)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats.write_text(
        json.dumps({"total": probe.total, "count": probe.count, "peak_rss_mb": peak_rss_mb}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
