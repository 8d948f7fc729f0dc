"""Property tests: feature bounds, verdict conservation and order, and
verdicts that depend neither on the worker count nor on how entities
interleave."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from zsd.features import EntityWindow, extract_values
from zsd.pipeline import run_detection
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
def test_verdicts_ignore_workers_and_interleaving(streams, bias):
    m = model(bias)
    out = []
    for stream, workers in zip(streams, (1, 4)):
        cfg = validate_config(PipelineConfig(workers=workers, **CFG))
        verdicts, _ = run_detection(stream, m, cfg, warmup_grace=0)
        out.append([v.to_json_line() for v in verdicts])
    assert out[0] == out[1]
