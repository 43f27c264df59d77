"""Print SHA-256 digests of everything the CLI pipeline writes, for both shipped configs.

For each config under ``configs/``, the script runs ``generate``,
``solve``, ``train`` and ``test`` in-process through ``schedlab.cli.main``
in a fresh temporary directory, then prints one line per output: the digest
of each command's stdout and of every file the run left (instance files
after ``solve``, the model, the metrics file and the evaluation CSV). Two checkouts whose outputs
are byte-identical print identical lines, so a change that must not alter
any output can be checked with a diff:

    PYTHONPATH=src python tools/pipeline_digests.py > after.txt

The package is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` gives that checkout's digests. Training runs the configs'
full budgets; both configs took about 30 s together on a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from schedlab import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(config_path: Path) -> list[tuple[str, str]]:
    """(label, digest) per stdout and output file of one pipeline run."""
    digests = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            shutil.copy(config_path, config_path.name)
            instances_dir = json.loads(config_path.read_text(encoding="utf-8"))["paths"]["instances_dir"]
            for argv in (
                ["generate", "--config", config_path.name],
                ["solve", "--instances", instances_dir],
                ["train", "--config", config_path.name],
                ["test", "--config", config_path.name],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{config_path.name}: schedlab {argv[0]} exited with {code}")
                digests.append((f"{argv[0]}.stdout", sha256(out.getvalue().encode("utf-8"))))
            for path in sorted(Path(".").rglob("*")):
                if path.is_file() and path.name != config_path.name:
                    digests.append((path.as_posix(), sha256(path.read_bytes())))
        finally:
            os.chdir(cwd)
    return digests


def main() -> None:
    for config_path in sorted(CONFIGS.glob("*.json")):
        for label, digest in pipeline_digests(config_path):
            print(f"{config_path.name} {label} {digest}", flush=True)


if __name__ == "__main__":
    main()
