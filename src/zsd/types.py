"""Shared domain vocabulary: events, feature vectors, assignments, verdicts, config.

All types here are value objects: once constructed they are never mutated,
so they can be passed freely between pipeline stages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from enum import Enum
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

    ``truth`` is ground truth attached by the simulator for evaluation; the
    detection path receives a truth-stripped view and never consults it.
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
        return replace(self, truth=None)


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
    """Density decision for one vector: Inlier(cluster_id) or Outlier.

    ``neighbor_count`` is the number of retained reference points within
    epsilon, recorded for diagnostics (--dump-clusters).
    """

    outlier: bool
    cluster_id: int | None = None
    neighbor_count: int = 0

    def __post_init__(self) -> None:
        if not self.outlier and (self.cluster_id is None or self.cluster_id < 0):
            raise ValueError("inlier assignment requires cluster_id >= 0")

    @classmethod
    def inlier(cls, cluster_id: int, neighbor_count: int = 0) -> "ClusterAssignment":
        return cls(outlier=False, cluster_id=cluster_id, neighbor_count=neighbor_count)

    @classmethod
    def make_outlier(cls, neighbor_count: int = 0) -> "ClusterAssignment":
        return cls(outlier=True, cluster_id=None, neighbor_count=neighbor_count)


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
        return (
            '{"event_ts":%d,"entity":%s,"label":"%s","score":%s,"phase":"%s","decided_ts":%d}'
            % (
                self.event_ts,
                json.dumps(self.entity),
                self.label.value,
                repr(self.score),
                self.phase.value,
                self.decided_ts,
            )
        )

    @classmethod
    def from_json_line(cls, line: str) -> "Verdict":
        d = json.loads(line)
        return cls(
            event_ts=d["event_ts"],
            entity=d["entity"],
            label=Label(d["label"]),
            score=d["score"],
            phase=Phase(d["phase"]),
            decided_ts=d["decided_ts"],
        )


_UINT64_MAX = 2**64 - 1


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
    workers: int = 1
    seed: int = 0

    def to_file_text(self) -> str:
        lines = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return "\n".join(lines) + "\n"


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
    if cfg.workers < 1:
        raise bad("workers", "must be >= 1")
    if not (0 <= cfg.seed <= _UINT64_MAX):
        raise bad("seed", "must fit in 64 bits unsigned")
    if not (cfg.tau - cfg.delta > 0.0 and cfg.tau + cfg.delta < 1.0):
        raise bad("delta", "tau +/- delta must stay inside (0,1)")
    return cfg


_INT_FIELDS = {
    "min_pts", "reeval_window", "smooth_m", "smooth_window", "seq_len",
    "window_events", "reference_capacity", "workers", "seed",
}
_FLOAT_FIELDS = {"epsilon", "tau", "delta"}
_ALL_FIELDS = _INT_FIELDS | _FLOAT_FIELDS


def _coerce(key: str, value: Any) -> Any:
    if key in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ConfigError(f"{key}: expected integer, got {value!r}")
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got {value!r}") from None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected number, got {value!r}") from None


def config_from_mapping(data: Mapping[str, Any]) -> PipelineConfig:
    unknown = sorted(set(data) - _ALL_FIELDS)
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
