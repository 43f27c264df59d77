"""Training/evaluation metrics events and their newline-delimited file format.

Each event carries a flat scalar map and is written as one line per scalar:
``{"run_id": ..., "step": ..., "episode": ..., "key": ..., "value": ...,
"timestamp": ...}``. ``train_ppo`` and ``train_dqn`` take no clock yet and
stamp every event 0.0, so identical runs produce byte-identical files;
trainer timers are an open item in ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedRecordError
from .files import canonical_json, read_json_lines, write_text


@dataclass
class MetricsEvent:
    run_id: str
    step: int
    episode: int
    scalars: dict[str, float] = field(default_factory=dict)
    timestamp: float = 0.0


def write_metrics(events, path: str | Path) -> None:
    lines = (
        {"run_id": ev.run_id, "step": ev.step, "episode": ev.episode, "key": key,
         "value": float(ev.scalars[key]), "timestamp": ev.timestamp}
        for ev in events
        for key in sorted(ev.scalars)
    )
    write_text(path, "".join(canonical_json(line) + "\n" for line in lines))


def read_metrics(path: str | Path) -> list[MetricsEvent]:
    """Reassemble events by grouping consecutive lines with the same identity."""
    events: list[MetricsEvent] = []
    for lineno, rec in read_json_lines(path, MalformedRecordError):
        try:
            identity = (str(rec["run_id"]), int(rec["step"]), int(rec["episode"]),
                        float(rec["timestamp"]))
            key, value = str(rec["key"]), float(rec["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecordError(f"{path}:{lineno}: bad metrics line: {exc!r}") from exc
        last = events[-1] if events else None
        if last is None or (last.run_id, last.step, last.episode, last.timestamp) != identity:
            last = MetricsEvent(identity[0], identity[1], identity[2], {}, identity[3])
            events.append(last)
        last.scalars[key] = value
    return events
