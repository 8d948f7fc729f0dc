"""Recurrent anomaly scorer: an Elman network trained by SGD with BPTT.

Given an entity's recent feature-vector sequence the network produces a
score in (0,1):

    h_t   = tanh(Wx x_t + Wh h_{t-1} + bh),  h_0 = 0
    score = sigmoid(wo . h_T + bo)

An entity's sequence only grows until it holds ``seq_len`` vectors: each
score appends one row to the rows of the last. ``forward`` then takes a
``Prefix``, the hidden state after the rows it has already run, and runs
only the rows after them. The resumed score is bit-identical to a fresh
one because numpy's matrix-matrix product gives each row of
``xs.dot(Wx.T)`` the same bits whatever the row count, from 2 rows up. A
product with one row or one column (``hidden`` = 1) takes the
matrix-vector path instead, which rounds differently, so no state is
kept from such a product. ``test_scorer.py`` pins this premise of the
platform's BLAS.

Loss is binary cross-entropy with the score clamped to [1e-7, 1-1e-7].
Training is plain per-example SGD with global gradient-norm clipping and a
seeded shuffle per epoch, so a (dataset, config) pair always yields the
same parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .types import ConfigError, FEATURE_COUNT, ZsdError

SCORE_CLAMP = 1e-7
MODEL_MAGIC = "ZSDMODEL"
MODEL_VERSION = 1


class DimensionError(ZsdError):
    """Sequence element length does not match the model's input size."""


class DegenerateDataError(ZsdError):
    """Training set lacks one of the two labels."""


@dataclass
class ScorerModel:
    """Network parameters. Immutable by convention once trained."""

    Wx: np.ndarray   # (H, F)
    Wh: np.ndarray   # (H, H)
    bh: np.ndarray   # (H,)
    wo: np.ndarray   # (H,)
    bo: float

    @property
    def hidden(self) -> int:
        return self.Wx.shape[0]

    @property
    def inputs(self) -> int:
        return self.Wx.shape[1]

    @classmethod
    def zeros(cls, hidden: int, inputs: int = FEATURE_COUNT) -> "ScorerModel":
        return cls(
            Wx=np.zeros((hidden, inputs)),
            Wh=np.zeros((hidden, hidden)),
            bh=np.zeros(hidden),
            wo=np.zeros(hidden),
            bo=0.0,
        )

    @classmethod
    def seeded(cls, hidden: int, seed: int | np.random.Generator,
               scale: float = 0.1,
               inputs: int = FEATURE_COUNT) -> "ScorerModel":
        rng = np.random.default_rng(seed)
        return cls(
            Wx=rng.uniform(-scale, scale, (hidden, inputs)),
            Wh=rng.uniform(-scale, scale, (hidden, hidden)),
            bh=rng.uniform(-scale, scale, hidden),
            wo=rng.uniform(-scale, scale, hidden),
            bo=float(rng.uniform(-scale, scale)),
        )


# the parameters in declaration order, which is also their row order in a
# model file
PARAMS = tuple(f.name for f in fields(ScorerModel))


@dataclass
class TrainConfig:
    lr: float = 0.05
    epochs: int = 30
    clip_norm: float = 5.0
    seed: int = 1
    hidden: int = 32
    init_scale: float = 0.1   # 0 gives an all-zero initialization
    max_per_class: int = 1500  # training sequences kept per label

    def __post_init__(self) -> None:
        if not (self.lr > 0):
            raise ConfigError("lr: must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs: must be >= 1")
        if not (self.clip_norm > 0):
            raise ConfigError("clip_norm: must be > 0")
        if self.hidden < 1:
            raise ConfigError("hidden: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if not (0 <= self.init_scale < math.inf):
            raise ConfigError("init_scale: must be finite and >= 0")
        if self.max_per_class < 1:
            raise ConfigError("max_per_class: must be >= 1")


def _seq_matrix(seq: np.ndarray, inputs: int) -> np.ndarray:
    if seq.ndim != 2 or seq.shape[1] != inputs:
        raise DimensionError(f"sequence shape {seq.shape}, expected (*, {inputs})")
    if seq.shape[0] < 1:
        raise DimensionError("sequence must hold at least one vector")
    return seq


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class Prefix:
    """The hidden state ``h`` after the first ``rows`` rows of a sequence
    that ``forward`` scored with this record; 0 rows hold nothing. Valid
    only for the same model and for sequences that extend those rows."""

    __slots__ = ("h", "rows")

    def __init__(self) -> None:
        self.h: np.ndarray | None = None
        self.rows = 0


def forward(model: ScorerModel, seq: np.ndarray,
            prefix: Prefix | None = None) -> float:
    """Anomaly score in (0,1) for the sequence; deterministic.

    With ``prefix``, the recurrence resumes after ``prefix.rows`` rows when
    ``seq`` holds at least that many, and the record then advances to the
    whole of ``seq``. The score equals the fresh one bit for bit."""
    Wx = model.Wx
    xw = _seq_matrix(seq, Wx.shape[1]).dot(Wx.T)
    T, H = xw.shape
    if prefix is not None and 0 < prefix.rows <= T:
        h = prefix.h
        pre = xw[prefix.rows:] + model.bh
    else:
        pre = xw + model.bh
        # the first step's Wh @ h_0 adds exact zeros
        h = np.tanh(pre[0])
        pre = pre[1:]
    step = model.Wh.dot
    tanh = np.tanh
    for row in pre:
        h = tanh(row + step(h))
    if prefix is not None and T > 1 and H > 1:
        prefix.h = h
        prefix.rows = T
    return _sigmoid(float(model.wo.dot(h)) + model.bo)


def loss(score: float, label: int) -> float:
    """Binary cross-entropy with the score clamped away from {0,1}."""
    s = min(max(score, SCORE_CLAMP), 1.0 - SCORE_CLAMP)
    if label:
        return -math.log(s)
    return -math.log(1.0 - s)


def grad(
    model: ScorerModel,
    seq: np.ndarray,
    label: int,
) -> tuple[ScorerModel, float, float]:
    """Exact gradient of loss(forward(seq), label) by backprop through time.

    Returns (gradient, score, loss); the gradient has the model's shape.
    """
    xs = _seq_matrix(seq, model.inputs)
    T = xs.shape[0]
    H = model.hidden

    hs = np.empty((T + 1, H))
    hs[0] = 0.0
    pre = xs @ model.Wx.T + model.bh
    for t in range(T):
        hs[t + 1] = np.tanh(pre[t] + model.Wh @ hs[t])

    z = float(model.wo @ hs[T]) + model.bo
    s = _sigmoid(z)
    s_clamped = min(max(s, SCORE_CLAMP), 1.0 - SCORE_CLAMP)
    ell = loss(s, label)

    # d loss / d z; zero when the clamp is active (loss locally flat in s)
    if s != s_clamped:
        dz = 0.0
    else:
        dz = s - float(label)

    dWx = np.zeros_like(model.Wx)
    dWh = np.zeros_like(model.Wh)
    dbh = np.zeros_like(model.bh)
    dwo = dz * hs[T]
    dbo = dz

    dh = dz * model.wo
    WhT = model.Wh.T
    for t in range(T - 1, -1, -1):
        dtanh = dh * (1.0 - hs[t + 1] * hs[t + 1])
        dWx += np.outer(dtanh, xs[t])
        dWh += np.outer(dtanh, hs[t])
        dbh += dtanh
        dh = WhT @ dtanh
    return ScorerModel(Wx=dWx, Wh=dWh, bh=dbh, wo=dwo, bo=dbo), s, ell


@dataclass
class TrainResult:
    model: ScorerModel
    epoch_losses: list[float] = field(default_factory=list)


def train(
    dataset: list[tuple[np.ndarray, int]],
    cfg: TrainConfig,
) -> TrainResult:
    """Per-example SGD over the dataset; deterministic for (dataset, cfg).

    epoch_losses[0] is the mean loss of the initial parameters over the
    dataset; epoch_losses[e] for e >= 1 is the mean pre-update loss seen
    during epoch e. Raises DegenerateDataError unless both labels occur.
    """
    if not dataset:
        raise DegenerateDataError("empty training set")
    labels = {int(bool(lbl)) for _, lbl in dataset}
    if labels != {0, 1}:
        raise DegenerateDataError("training set must contain both labels")

    # every sequence must be as wide as the first
    inputs = dataset[0][0].shape[-1]
    seqs = [_seq_matrix(s, inputs) for s, _ in dataset]
    ys = [int(bool(lbl)) for _, lbl in dataset]

    rng = np.random.default_rng(cfg.seed)
    if cfg.init_scale > 0:
        # seeded() draws from rng itself, so the shuffles below continue
        # its stream
        model = ScorerModel.seeded(cfg.hidden, rng, cfg.init_scale, inputs)
    else:
        model = ScorerModel.zeros(cfg.hidden, inputs)

    start_loss = sum(loss(forward(model, s), y) for s, y in zip(seqs, ys)) / len(seqs)
    trace = [start_loss]

    order = np.arange(len(seqs))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            g, _, ell = grad(model, seqs[i], ys[i])
            total += ell
            parts = [getattr(g, name) for name in PARAMS]
            gnorm = math.sqrt(sum(float(np.sum(a * a)) for a in parts))
            scale = cfg.lr
            if gnorm > cfg.clip_norm:
                scale = cfg.lr * (cfg.clip_norm / gnorm)
            for name, part in zip(PARAMS, parts):
                # in place for the arrays, as ``model.Wx -= ...`` would be
                value = getattr(model, name)
                value -= scale * part
                setattr(model, name, value)
        trace.append(total / len(seqs))
    return TrainResult(model=model, epoch_losses=trace)


class ModelFormatError(ZsdError):
    """Model file is missing, truncated, or malformed."""


def save_model(model: ScorerModel, path: str) -> None:
    """Versioned text format; 17 significant digits round-trips float64 exactly.
    A non-finite parameter, which load_model refuses, raises before any write."""
    # one row per row of a matrix, one for a vector, one for the scalar
    params = [np.atleast_2d(getattr(model, name)) for name in PARAMS]
    for name, vals in zip(PARAMS, params):
        bad = vals[~np.isfinite(vals)]
        if len(bad):
            raise ModelFormatError(f"{name}: non-finite parameter {bad[0]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION} {model.hidden} {model.inputs}\n")
        for vals in params:
            for r in vals:
                fh.write(" ".join(f"{v:.17g}" for v in r) + "\n")


def load_model(path: str) -> ScorerModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ModelFormatError("empty model file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != MODEL_MAGIC:
        raise ModelFormatError(f"bad header {lines[0]!r}")
    try:
        version, hidden, inputs = (int(v) for v in head[1:])
    except ValueError:
        raise ModelFormatError(f"bad header {lines[0]!r}") from None
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported version {head[1]}")
    if hidden < 1 or inputs < 1:
        raise ModelFormatError(f"bad header {lines[0]!r}: sizes must be >= 1")
    expected = hidden + hidden + 1 + 1 + 1
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != expected:
        raise ModelFormatError(f"expected {expected} parameter rows, found {len(body)}")

    def parse_row(line: str, width: int) -> np.ndarray:
        try:
            vals = np.array([float(v) for v in line.split()], dtype=np.float64)
        except ValueError as exc:  # float() names the bad token
            raise ModelFormatError(f"bad parameter: {exc}") from None
        if vals.shape[0] != width:
            raise ModelFormatError(f"row width {vals.shape[0]}, expected {width}")
        if not np.isfinite(vals).all():
            raise ModelFormatError(f"non-finite parameter {vals[~np.isfinite(vals)][0]}")
        return vals

    idx = 0
    Wx = np.stack([parse_row(body[idx + i], inputs) for i in range(hidden)]); idx += hidden
    Wh = np.stack([parse_row(body[idx + i], hidden) for i in range(hidden)]); idx += hidden
    bh = parse_row(body[idx], hidden); idx += 1
    wo = parse_row(body[idx], hidden); idx += 1
    bo = float(parse_row(body[idx], 1)[0])
    return ScorerModel(Wx=Wx, Wh=Wh, bh=bh, wo=wo, bo=bo)
