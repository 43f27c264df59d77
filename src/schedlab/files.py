"""Reading and writing schedlab's files, all UTF-8.

Canonical JSON is what instance and metrics files hold and what instance ids
and config digests hash. Writers create missing parent directories; readers
turn invalid JSON and bytes that are not UTF-8 into the caller's error type,
naming the file and, where it is known, the line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path: str | Path, error: type[Exception]) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc


def read_json_lines(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, Any]]:
    """``(lineno, value)`` per non-blank line, read one line at a time.

    Each line, up to its newline byte, is decoded on its own, so bytes that
    are not UTF-8 are reported with their line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if line.strip():
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{path}:{lineno}: invalid JSON: {exc}") from exc
