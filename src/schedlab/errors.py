"""Exception hierarchy shared across the toolkit, the config range and record checks."""

import dataclasses


class SchedlabError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SchedlabError):
    """A generator or experiment configuration is invalid.

    The message names the offending field (dotted path for nested configs).
    """


def bounded(default, lo, hi=None, *, above=False, below=False):
    """A dataclass field whose value, or each entry of a tuple value, must lie in
    [lo, hi]; ``above``/``below`` exclude lo/hi. A None value passes. Pass
    ``dataclasses.MISSING`` as ``default`` for a required field."""
    return dataclasses.field(default=default, metadata={"range": (lo, hi, above, below)})


def check_fields(config) -> None:
    """Raise ConfigurationError for the first value outside its ``bounded`` range.

    NaN lies outside every range: each comparison with it is false.
    """
    for field in dataclasses.fields(config):
        if "range" not in field.metadata:
            continue
        lo, hi, above, below = field.metadata["range"]
        value = getattr(config, field.name)
        entries = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, v in entries:
            if v is None or ((v > lo if above else v >= lo)
                             and (hi is None or (v < hi if below else v <= hi))):
                continue
            name = field.name if i is None else f"{field.name}[{i}]"
            rule = (f"{'>' if above else '>='} {lo}" if hi is None else
                    f"in {'(' if above else '['}{lo}, {hi}{')' if below else ']'}")
            raise ConfigurationError(f"{name}: must be {rule}, got {v}")


class MalformedRecordError(SchedlabError):
    """A serialized record (instance, schedule, metrics line) cannot be parsed."""


def check_round_trip(read: dict, rebuilt: dict, kind: str) -> None:
    """Raise MalformedRecordError, naming the first differing field, unless a record
    read from a file equals the record of what it loaded as. A value the loader
    coerces (``4.5`` or ``"2"`` for an int) or a key it ignores fails; ``4.0`` and
    ``true`` pass, since they equal ``4`` and ``1``."""
    if read != rebuilt:
        raise MalformedRecordError(f"bad {kind} record: {_difference(read, rebuilt, '')}")


def _difference(read, rebuilt, path: str) -> str:
    if isinstance(read, dict) and isinstance(rebuilt, dict):
        for key in sorted(read.keys() | rebuilt.keys()):
            where = f"{path}.{key}" if path else key
            if key not in rebuilt:
                return f"{where}: unknown field"
            if read.get(key) != rebuilt[key]:
                return _difference(read.get(key), rebuilt[key], where)
    if isinstance(read, list) and isinstance(rebuilt, list) and len(read) == len(rebuilt):
        for i, (a, b) in enumerate(zip(read, rebuilt)):
            if a != b:
                return _difference(a, b, f"{path}[{i}]")
    return f"{path}: {read!r} loads as {rebuilt!r}"


class DigestMismatchError(SchedlabError):
    """A stored instance id does not match the digest recomputed from its content."""


class InstanceSetError(SchedlabError, ValueError):
    """An instance set a run cannot take: empty, or mixing job counts for one model."""


class InvalidArgumentError(SchedlabError, ValueError):
    """A caller passed an argument the function cannot take, e.g. of the wrong shape."""


class InternalError(SchedlabError):
    """An invariant the library itself guarantees was violated (likely a bug)."""


class ConstraintViolationError(SchedlabError):
    """A placement conflicts with an existing one or violates precedence.

    Attributes:
        resource: human-readable resource name, e.g. "machine 3" or "tool 1".
        interval: the conflicting busy interval (start, end), if any.
    """

    def __init__(self, message: str, *, resource: str = "", interval: tuple[int, int] | None = None):
        super().__init__(message)
        self.resource = resource
        self.interval = interval


class InvalidActionError(SchedlabError):
    """An environment step was attempted with an out-of-range or masked action."""


class NoValidActionError(SchedlabError):
    """An action was requested but the mask admits none."""


class EpisodeLengthError(SchedlabError):
    """An environment ended an episode before or after ``instance.num_tasks`` steps."""


class InvalidScheduleError(SchedlabError):
    """A schedule handed to a consumer (renderer, plotter CLI) fails validation."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class OracleSizeError(SchedlabError):
    """An exhaustive oracle was asked to handle an instance beyond its size guard."""


class ModelVersionError(SchedlabError):
    """A model file declares an unsupported format version."""


class ModelFormatError(SchedlabError):
    """A model file is truncated or structurally invalid."""


class TrainingDivergedError(SchedlabError):
    """Training produced a non-finite loss; carries diagnostics in the message."""
