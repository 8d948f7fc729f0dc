"""Shared domain vocabulary: events, feature vectors, assignments, verdicts, config.

All types here are value objects: once constructed they are never mutated,
so they can be passed freely between pipeline stages.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

FEATURE_COUNT = 12


class ZsdError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ZsdError):
    """A configuration value violates its declared bounds."""


class EventKind(str, Enum):
    FILE_READ = "file_read"
    FILE_WRITE = "file_write"
    FILE_CREATE = "file_create"
    FILE_RENAME = "file_rename"
    FILE_DELETE = "file_delete"
    PROC_SPAWN = "proc_spawn"
    PRIV_CHANGE = "priv_change"
    NET_CONNECT = "net_connect"
    NET_SEND = "net_send"


class Truth(str, Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"


@dataclass(slots=True)
class Event:
    """One telemetry record (file/process/network action).

    ``truth`` is ground truth attached by the simulator for evaluation. The
    detection path takes events as parsed, labels included, and never reads
    it; ``strip_truth`` gives a copy without it.
    """

    ts: int                      # microseconds since epoch
    entity: str                  # opaque process/source id
    kind: EventKind
    path: str | None = None
    ext_before: str | None = None
    ext_after: str | None = None
    bytes: int | None = None
    entropy: float | None = None  # bits/byte in [0, 8], payload sample
    dst: str | None = None        # network peer
    truth: Truth | None = None

    def strip_truth(self) -> "Event":
        if self.truth is None:
            return self
        return Event(self.ts, self.entity, self.kind, self.path, self.ext_before,
                     self.ext_after, self.bytes, self.entropy, self.dst)


@dataclass(slots=True)
class FeatureVector:
    """Fixed-length behavioral summary of an entity's recent window.

    Every component lies in [0, 1]; ``window_id`` is the per-entity event
    counter at extraction time.
    """

    values: tuple[float, ...]
    window_id: int
    entity: str


@dataclass(slots=True)
class ClusterAssignment:
    """Density decision for one vector: Inlier or Outlier.

    ``neighbor_count`` is the number of retained reference points within
    epsilon (a lower bound unless the reservoir counts exactly; see
    ``zsd.clustering.assign``).
    """

    outlier: bool
    neighbor_count: int = 0


class Label(str, Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"


class Phase(str, Enum):
    """Provenance of a verdict.

    fast_path and cluster_inlier verdicts never consulted the scorer (their
    score is reported as 0.0); the other phases carry a computed score.
    """

    FAST_PATH = "fast_path"
    CLUSTER_INLIER = "cluster_inlier"
    SCORED = "scored"
    SMOOTHED = "smoothed"
    DEFERRED_RESOLVED = "deferred_resolved"


_SCORELESS_PHASES = frozenset({Phase.FAST_PATH, Phase.CLUSTER_INLIER})
_MALICIOUS_LABEL = Label.MALICIOUS
# wire text of each label and phase, read per verdict line
_TEXT = {member: member.value for enum in (Label, Phase) for member in enum}


@dataclass(slots=True)
class Verdict:
    """Per-event label with score and decision provenance.

    ``decided_ts`` is a stream-time decision clock: the largest event
    timestamp this entity had produced when the decision was made. It is
    deterministic for a given input, unlike wall clock, so verdict files
    are byte-reproducible. Wall-clock processing latency lives in RunStats.
    """

    event_ts: int
    entity: str
    label: Label
    score: float
    phase: Phase
    decided_ts: int

    def __post_init__(self) -> None:
        if self.label is _MALICIOUS_LABEL and self.phase in _SCORELESS_PHASES:
            raise ValueError(f"malicious verdict cannot carry phase {self.phase.value}")

    def to_json_line(self) -> str:
        # encode_basestring_ascii is the quoting json.dumps applies to a str
        return (
            '{"event_ts":%d,"entity":%s,"label":"%s","score":%s,"phase":"%s","decided_ts":%d}'
            % (
                self.event_ts,
                encode_basestring_ascii(self.entity),
                _TEXT[self.label],
                repr(self.score),
                _TEXT[self.phase],
                self.decided_ts,
            )
        )

    @classmethod
    def from_json_line(cls, line: str) -> "Verdict":
        """Parse one verdict line; a malformed one raises ValueError."""
        d = json.loads(line)
        if not (isinstance(d, dict) and type(d.get("event_ts")) is int
                and type(d.get("decided_ts")) is int
                and type(d.get("entity")) is str and "score" in d):
            raise ValueError("expected integer event_ts and decided_ts, a string entity, a score")
        return cls(
            event_ts=d["event_ts"],
            entity=d["entity"],
            label=Label(d.get("label")),
            score=d["score"],
            phase=Phase(d.get("phase")),
            decided_ts=d["decided_ts"],
        )


def write_verdicts(verdicts: list[Verdict], path: str | os.PathLike) -> None:
    """One ``Verdict.to_json_line`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(v.to_json_line())
            fh.write("\n")


@dataclass(slots=True)
class PipelineConfig:
    """Detection-pipeline knobs; every bound is enforced by validate_config."""

    epsilon: float = 0.35          # clustering radius
    min_pts: int = 8               # density threshold
    tau: float = 0.5               # decision threshold
    delta: float = 0.05            # ambiguity half-band around tau
    reeval_window: int = 32        # max deferral extent, in entity events
    smooth_m: int = 3              # malicious confirmations required
    smooth_window: int = 8         # smoothing ring length
    seq_len: int = 16              # scorer sequence length
    window_events: int = 256       # feature window size, in events
    reference_capacity: int = 4096 # clustering reservoir size


def validate_config(cfg: PipelineConfig) -> PipelineConfig:
    """Return cfg unchanged iff every declared bound holds.

    Raises ConfigError naming the first violated field, in field order.
    """
    def bad(name: str, why: str) -> ConfigError:
        return ConfigError(f"{name}: {why}")

    if not (cfg.epsilon > 0):
        raise bad("epsilon", "must be > 0")
    if cfg.min_pts < 1:
        raise bad("min_pts", "must be >= 1")
    if not (0.0 < cfg.tau < 1.0):
        raise bad("tau", "must be in (0,1)")
    if cfg.delta < 0:
        raise bad("delta", "must be >= 0")
    if cfg.reeval_window < 0:
        raise bad("reeval_window", "must be >= 0")
    if cfg.smooth_m < 1:
        raise bad("smooth_m", "must be >= 1")
    if cfg.smooth_window < cfg.smooth_m:
        raise bad("smooth_window", "must be >= smooth_m")
    if cfg.seq_len < 1:
        raise bad("seq_len", "must be >= 1")
    if cfg.window_events < 1:
        raise bad("window_events", "must be >= 1")
    if cfg.reference_capacity < cfg.min_pts:
        raise bad("reference_capacity", "must be >= min_pts")
    if not (cfg.tau - cfg.delta > 0.0 and cfg.tau + cfg.delta < 1.0):
        raise bad("delta", "tau +/- delta must stay inside (0,1)")
    return cfg


# field name -> its annotation, "int" or "float" (annotations are strings here)
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, value: Any) -> Any:
    is_int = _FIELD_TYPES[key] == "int"
    # a bool is an int to Python, but never a config value
    if not isinstance(value, bool):
        try:
            if not is_int:
                return float(value)
            if isinstance(value, (int, str)):
                return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key}: expected {'integer' if is_int else 'number'}, got {value!r}")


def config_from_mapping(data: Mapping[str, Any]) -> PipelineConfig:
    unknown = sorted(set(data) - _FIELD_TYPES.keys())
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    kwargs = {k: _coerce(k, v) for k, v in data.items()}
    return validate_config(PipelineConfig(**kwargs))


def parse_config_text(text: str) -> PipelineConfig:
    """Parse a config document: JSON object or key=value lines.

    Keys must be exactly the PipelineConfig field names; unknown keys are an
    error. Blank lines and #-comments are allowed in key=value form.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return config_from_mapping(data)
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return config_from_mapping(data)


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
