"""Config validation, value-object invariants, serialization round-trips."""

import dataclasses
import json

import pytest

from zsd.types import (
    ClusterAssignment,
    ConfigError,
    Event,
    EventKind,
    Label,
    Phase,
    PipelineConfig,
    Truth,
    Verdict,
    config_from_mapping,
    parse_config_text,
    validate_config,
)


def test_default_config_is_valid():
    cfg = validate_config(PipelineConfig())
    assert cfg.epsilon == 0.35
    assert cfg.min_pts == 8
    assert cfg.tau == 0.5
    assert cfg.delta == 0.05
    assert cfg.reeval_window == 32
    assert cfg.seq_len == 16
    assert cfg.window_events == 256
    assert cfg.reference_capacity == 4096


def test_tau_boundary_rejected():
    with pytest.raises(ConfigError, match="tau"):
        validate_config(PipelineConfig(tau=0.0))
    with pytest.raises(ConfigError, match="tau"):
        validate_config(PipelineConfig(tau=1.0))


def test_min_pts_zero_rejected():
    with pytest.raises(ConfigError, match="min_pts"):
        validate_config(PipelineConfig(min_pts=0))


@pytest.mark.parametrize(
    "field,value",
    [
        ("epsilon", 0.0),
        ("epsilon", -1.0),
        ("delta", -0.1),
        ("reeval_window", -1),
        ("smooth_m", 0),
        ("seq_len", 0),
        ("window_events", 0),
    ],
)
def test_bound_violations_name_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        validate_config(PipelineConfig(**{field: value}))


@pytest.mark.parametrize("field,value,expected", [
    ("min_pts", True, "integer"), ("seq_len", 2.5, "integer"),
    ("epsilon", True, "number"), ("tau", False, "number"), ("delta", None, "number"),
])
def test_mistyped_values_name_the_field(field, value, expected):
    with pytest.raises(ConfigError, match=f"{field}: expected {expected}"):
        config_from_mapping({field: value})


def test_smooth_window_must_cover_smooth_m():
    with pytest.raises(ConfigError, match="smooth_window"):
        validate_config(PipelineConfig(smooth_m=4, smooth_window=3))


def test_reference_capacity_must_cover_min_pts():
    with pytest.raises(ConfigError, match="reference_capacity"):
        validate_config(PipelineConfig(min_pts=10, reference_capacity=9))


def test_band_must_stay_inside_unit_interval():
    with pytest.raises(ConfigError, match="delta"):
        validate_config(PipelineConfig(tau=0.9, delta=0.15))
    with pytest.raises(ConfigError, match="delta"):
        validate_config(PipelineConfig(tau=0.05, delta=0.1))


def test_config_key_value_document_names_every_field():
    text = (
        "# every field, no defaults\n"
        "epsilon=0.22\nmin_pts=5\ntau=0.61\ndelta=0.02\nreeval_window=7\n"
        "smooth_m=2\nsmooth_window=5\nseq_len=9\nwindow_events=64\n"
        "\n  reference_capacity = 128  \n"
    )
    cfg = PipelineConfig(epsilon=0.22, min_pts=5, tau=0.61, delta=0.02,
                         reeval_window=7, smooth_m=2, smooth_window=5,
                         seq_len=9, window_events=64, reference_capacity=128)
    assert parse_config_text(text) == cfg
    named = {line.partition("=")[0].strip() for line in text.splitlines()
             if "=" in line}
    assert named == {f.name for f in dataclasses.fields(PipelineConfig)}


def test_config_round_trip_json():
    cfg = PipelineConfig(epsilon=0.5, reference_capacity=512)
    doc = json.dumps({f.name: getattr(cfg, f.name)
                      for f in dataclasses.fields(PipelineConfig)})
    assert parse_config_text(doc) == cfg


# nothing in detection draws random numbers, so there is no seed key; and
# detection runs in one process, so there is no workers key
@pytest.mark.parametrize("key", ["bogus", "seed", "workers"])
def test_unknown_key_is_an_error(key):
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        config_from_mapping({"epsilon": 0.3, key: 1})
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        parse_config_text(f"epsilon=0.3\n{key}=1\n")


def test_partial_config_uses_defaults():
    cfg = parse_config_text("epsilon=0.2\nmin_pts=4\n")
    assert cfg.epsilon == 0.2
    assert cfg.min_pts == 4
    assert cfg.tau == 0.5


def test_cluster_assignment_invariants():
    a = ClusterAssignment(outlier=False, neighbor_count=9)
    assert not a.outlier and a.neighbor_count == 9
    b = ClusterAssignment(outlier=True)
    assert b.outlier and b.neighbor_count == 0


def test_malicious_verdict_requires_scored_phase():
    with pytest.raises(ValueError):
        Verdict(1, "e", Label.MALICIOUS, 0.9, Phase.FAST_PATH, 1)
    with pytest.raises(ValueError):
        Verdict(1, "e", Label.MALICIOUS, 0.9, Phase.CLUSTER_INLIER, 1)
    for phase in (Phase.SCORED, Phase.SMOOTHED, Phase.DEFERRED_RESOLVED):
        Verdict(1, "e", Label.MALICIOUS, 0.9, phase, 1)


def test_verdict_json_line_round_trip():
    v = Verdict(event_ts=1234, entity='we"ird', label=Label.MALICIOUS,
                score=0.87654321, phase=Phase.SCORED, decided_ts=1300)
    again = Verdict.from_json_line(v.to_json_line())
    assert again == v
    # the line is valid JSON with exactly the verdict fields
    doc = json.loads(v.to_json_line())
    assert set(doc) == {"event_ts", "entity", "label", "score", "phase", "decided_ts"}


@pytest.mark.parametrize("entity", ["e", 'we"ird', "caf\u00e9\\x", "tab\there\n", "\u2603\U0001f600"])
@pytest.mark.parametrize("score", [0.0, 0.5, 0.87654321, 1e-300, 1.0 - 2**-53])
def test_verdict_json_line_matches_json_dumps_formatting(entity, score):
    for label in Label:
        for phase in Phase:
            if label is Label.MALICIOUS and phase in (Phase.FAST_PATH, Phase.CLUSTER_INLIER):
                continue
            v = Verdict(1_700_000_000_123_456, entity, label, score, phase, 1_700_000_000_123_457)
            want = (
                '{"event_ts":%d,"entity":%s,"label":"%s","score":%s,"phase":"%s","decided_ts":%d}'
                % (v.event_ts, json.dumps(entity), label.value, repr(score), phase.value,
                   v.decided_ts)
            )
            assert v.to_json_line() == want


def test_strip_truth_copies_only_labelled_events():
    e = Event(ts=5, entity="p", kind=EventKind.FILE_RENAME, path="/a.doc", ext_before="doc",
              ext_after="lock", bytes=9, entropy=7.5, dst="h", truth=Truth.MALICIOUS)
    stripped = e.strip_truth()
    assert stripped == dataclasses.replace(e, truth=None)
    assert e.truth is Truth.MALICIOUS
    assert stripped.strip_truth() is stripped
