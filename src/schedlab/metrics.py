"""Training/evaluation metrics events and their newline-delimited file format.

Each event carries a flat scalar map and is written as one line per scalar:
``{"run_id": ..., "step": ..., "episode": ..., "key": ..., "value": ...,
"timestamp": ...}``. ``train_ppo`` and ``train_dqn`` take no clock yet and
stamp every event 0.0, so identical runs produce byte-identical files;
trainer timers are an open item in ROADMAP.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedRecordError


@dataclass
class MetricsEvent:
    run_id: str
    step: int
    episode: int
    scalars: dict[str, float] = field(default_factory=dict)
    timestamp: float = 0.0


def write_metrics(events, path: str | Path, append: bool = False) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        for ev in events:
            for key in sorted(ev.scalars):
                line = {
                    "run_id": ev.run_id,
                    "step": ev.step,
                    "episode": ev.episode,
                    "key": key,
                    "value": float(ev.scalars[key]),
                    "timestamp": ev.timestamp,
                }
                fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")))
                fh.write("\n")


def read_metrics(path: str | Path) -> list[MetricsEvent]:
    """Reassemble events by grouping consecutive lines with the same identity."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"metrics file not found: {path}")
    events: list[MetricsEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
                identity = (str(rec["run_id"]), int(rec["step"]), int(rec["episode"]),
                            float(rec["timestamp"]))
                key, value = str(rec["key"]), float(rec["value"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise MalformedRecordError(f"{path}:{lineno}: bad metrics line: {exc!r}") from exc
            last = events[-1] if events else None
            if last is not None and (last.run_id, last.step, last.episode, last.timestamp) == identity:
                last.scalars[key] = value
            else:
                events.append(
                    MetricsEvent(
                        run_id=identity[0], step=identity[1], episode=identity[2],
                        scalars={key: value}, timestamp=identity[3],
                    )
                )
    return events
