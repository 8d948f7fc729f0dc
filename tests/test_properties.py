"""Property tests: feature bounds, density decisions against brute force,
verdict conservation and order, and verdicts that depend neither on the
worker count nor on how entities interleave."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zsd.clustering import ReferenceSet, assign, assign_raw
from zsd.features import EntityWindow, extract_values
from zsd.pipeline import _EntityState, run_detection
from zsd.scorer import ScorerModel
from zsd.types import Event, EventKind, PipelineConfig, validate_config

PATHS = st.one_of(st.none(), st.sampled_from(["/a", "/b", "/c/d", "/e.docx"]))
EXTS = st.sampled_from(["docx", "pdf", "lock", ""])


@st.composite
def events(draw, entity=st.sampled_from(["a", "b", "c"]),
           ts=st.integers(0, 2**53)):
    """Any event the ingest schema accepts."""
    kind = draw(st.sampled_from(list(EventKind)))
    renamed = kind is EventKind.FILE_RENAME
    return Event(
        ts=draw(ts),
        entity=draw(entity),
        kind=kind,
        path=draw(PATHS),
        ext_before=draw(EXTS) if renamed else None,
        ext_after=draw(EXTS) if renamed else None,
        bytes=draw(st.one_of(st.none(), st.integers(0, 2**40))),
        entropy=draw(st.one_of(st.none(), st.floats(0.0, 8.0))),
        dst=draw(st.one_of(st.none(), st.sampled_from(["10.0.0.1", "10.0.0.2"]))),
    )


# timestamps close together, so that rates, gaps and deferrals all vary
BUSY = events(ts=st.integers(0, 5_000_000))

# small reservoirs and windows keep each run cheap; min_pts and epsilon let
# both inliers and outliers occur on short streams
CFG = dict(min_pts=3, epsilon=0.3, reference_capacity=32, window_events=16,
           seq_len=4, reeval_window=3)


def model(bias: float) -> ScorerModel:
    m = ScorerModel.seeded(4, 7)
    m.bo = bias
    return m


@settings(max_examples=300, deadline=None)
@given(st.lists(events(), min_size=1, max_size=60), st.integers(1, 64))
def test_features_are_finite_and_in_unit_interval(stream, capacity):
    window = EntityWindow("e", capacity)
    for event in stream:
        window.append(event)
        for value in extract_values(window):
            assert math.isfinite(value) and 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.integers(1, 10), st.integers(1, 240),
       st.integers(2, 60), st.sampled_from([0.002, 0.02, 0.06, 0.1]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_decision_only_gate_matches_brute_force(capacity, min_pts, length,
                                                jump_every, spread, on_a_line,
                                                seed):
    # clustered traffic that jumps to a new centre every jump_every points,
    # through a ring that may wrap several times. On a line through the
    # centre, the shortcut's triangle inequality is tight
    rng = np.random.default_rng(seed)
    eps = 0.35
    ref = ReferenceSet(capacity)
    retained: list[np.ndarray] = []
    centre = rng.random(12)
    direction = np.eye(12)[0]
    for i in range(length):
        if i % jump_every == 0:
            centre = rng.random(12)
        if on_a_line:
            p = np.clip(centre + 3 * spread * rng.standard_normal() * direction,
                        0.0, 1.0)
        else:
            p = np.clip(centre + spread * rng.standard_normal(12), 0.0, 1.0)
        if retained:
            diff = np.asarray(retained) - p
            expected = int(np.count_nonzero(
                np.einsum("ij,ij->i", diff, diff) <= eps * eps))
        else:
            expected = 0
        a = assign(p, ref, eps, min_pts)
        assert a.outlier == (expected < min_pts)
        if not a.outlier:
            assert min_pts <= a.neighbor_count <= expected
        elif len(retained) >= min_pts:
            assert a.neighbor_count == expected
        else:
            assert a.neighbor_count == 0
        retained = (retained + [p])[-capacity:]


@settings(max_examples=100, deadline=None)
@given(st.lists(events(entity=st.just("e"), ts=st.integers(0, 5_000_000)),
                min_size=17, max_size=120),
       st.integers(3, 40), st.integers(1, 6), st.sampled_from([0.05, 0.3, 2.0]))
def test_stored_rows_are_the_vectors_bits(stream, capacity, min_pts, eps):
    # every retained row of the feature ring and of the reservoir holds the
    # bits numpy gives its vector, through reservoir growth, both rings'
    # wrap and every branch of the gate: count bound, shortcut and scan
    cfg = validate_config(PipelineConfig(**{**CFG, "reference_capacity": capacity}))
    state = _EntityState("e", cfg)
    ref = state.ref
    stored: list[bytes] = []  # vector i's bytes, as np.array makes them
    for event in stream:
        values = state.push(event)
        stored.append(np.array(values, dtype=np.float64).tobytes())
        assign_raw(values, ref, eps, min_pts)
        seen = len(stored)
        for i in range(max(0, seen - cfg.seq_len), seen):
            assert state.recent[i % cfg.seq_len].tobytes() == stored[i]
        for i in range(max(0, seen - capacity), seen):
            assert ref.pts[i % capacity].tobytes() == stored[i]


@settings(max_examples=60, deadline=None)
@given(st.lists(BUSY, max_size=80), st.floats(-3.0, 3.0))
def test_one_verdict_per_event_in_order(stream, bias):
    cfg = validate_config(PipelineConfig(**CFG))
    verdicts, _ = run_detection(stream, model(bias), cfg, warmup_grace=0)
    keys = [(v.event_ts, v.entity) for v in verdicts]
    assert keys == sorted(keys)
    assert sorted(keys) == sorted((e.ts, e.entity) for e in stream)


@st.composite
def interleavings(draw):
    """Two interleavings of the same per-entity event sequences."""
    per_entity = draw(st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(events(entity=st.just("x"), ts=st.integers(0, 5_000_000)),
                 min_size=1, max_size=30),
        min_size=1))
    streams = []
    for _ in range(2):
        order = draw(st.permutations(
            [name for name, seq in per_entity.items() for _ in seq]))
        cursors = {name: iter(seq) for name, seq in per_entity.items()}
        streams.append([_named(next(cursors[name]), name) for name in order])
    return streams


def _named(event: Event, entity: str) -> Event:
    return Event(ts=event.ts, entity=entity, kind=event.kind, path=event.path,
                 ext_before=event.ext_before, ext_after=event.ext_after,
                 bytes=event.bytes, entropy=event.entropy, dst=event.dst)


@settings(max_examples=60, deadline=None)
@given(interleavings(), st.floats(-3.0, 3.0))
def test_verdicts_ignore_interleaving(streams, bias):
    m = model(bias)
    cfg = validate_config(PipelineConfig(**CFG))
    out = []
    for stream in streams:
        verdicts, _ = run_detection(stream, m, cfg, warmup_grace=0)
        out.append([v.to_json_line() for v in verdicts])
    assert out[0] == out[1]
