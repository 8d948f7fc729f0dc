"""Generator determinism, schema validity, label soundness, suite layout."""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsd import simulator
from zsd.ingest import EventStream, parse_event_line, read_stream
from zsd.simulator import (
    generate,
    load_presets,
    make_standard_suites,
    profile_from_name,
    scenario_from_mapping,
    write_events,
)
from zsd.types import ConfigError, Event, EventKind, Truth


def small_doc(**overrides):
    doc = {
        "duration_s": 60.0,
        "seed": 1,
        "benign_workers": {"office": 2, "build": 1, "backup": 1},
        "attacks": [],
    }
    doc.update(overrides)
    return doc


def stream_hash(events):
    h = hashlib.sha256()
    for e in events:
        h.update(simulator.event_to_json_line(e).encode())
    return h.hexdigest()


def test_zero_attack_scenario_is_all_benign():
    events, truth = generate(scenario_from_mapping(small_doc()))
    assert events
    assert all(e.truth is Truth.BENIGN for e in events)
    assert all(info["label"] == "benign" for info in truth.entities.values())


def test_output_is_ts_sorted_and_strict_schema_valid():
    doc = small_doc(attacks=[{"family": "lockbit", "start_s": 10.0}])
    events, _ = generate(scenario_from_mapping(doc))
    last = -1
    for e in events:
        assert e.ts >= last
        last = e.ts
        parse_event_line(simulator.event_to_json_line(e), strict=True)


def test_label_soundness():
    doc = small_doc(attacks=[{"family": "conti", "start_s": 5.0}])
    events, truth = generate(scenario_from_mapping(doc))
    atk = [e for e in events if e.entity.startswith("atk_")]
    assert atk
    assert all(e.truth is Truth.MALICIOUS for e in atk)
    assert all(e.truth is Truth.BENIGN for e in events if not e.entity.startswith("atk_"))
    info = truth.entities["atk_conti_0"]
    assert info["label"] == "malicious"
    assert info["family"] == "conti"
    assert info["first_malicious_ts"] == min(e.ts for e in atk)


def test_same_seed_same_bytes_different_seed_differs():
    doc = small_doc(attacks=[{"family": "revil", "start_s": 8.0}])
    a, _ = generate(scenario_from_mapping(doc))
    b, _ = generate(scenario_from_mapping(doc))
    assert stream_hash(a) == stream_hash(b)
    doc2 = dict(doc, seed=2)
    c, _ = generate(scenario_from_mapping(doc2))
    assert stream_hash(a) != stream_hash(c)


def test_unobfuscated_attack_emits_full_triples():
    # 10 files at 10 files/s, telltales unmasked, well under every ceiling
    doc = {
        "duration_s": 60.0,
        "seed": 3,
        "benign_workers": {},
        "attacks": [{
            "family": "lockbit",
            "start_s": 0.0,
            "overrides": {"files_per_sec": 10.0, "obfuscation": 0.0,
                          "exfil_bytes_per_sec": 0.0, "intermittent_duty": 1.0},
        }],
    }
    events, _ = generate(scenario_from_mapping(doc))
    reads = [e for e in events if e.kind is EventKind.FILE_READ]
    writes = [e for e in events if e.kind is EventKind.FILE_WRITE]
    renames = [e for e in events if e.kind is EventKind.FILE_RENAME]
    # attack starts a few seconds in (exfil lead), then runs to the corpus cap
    assert len(writes) > 100
    assert len(reads) == len(writes)
    n_full_triples = min(len(writes), len(renames))
    assert n_full_triples == len(renames) > 100
    assert all(r.ext_after == "lockbit" for r in renames)
    # unmasked, under the crypto ceiling: writes carry hot payload entropy
    mean_entropy = sum(w.entropy for w in writes) / len(writes)
    assert 7.5 <= mean_entropy <= 8.0
    # write-back pattern: write path matches the read path
    assert all(w.path == r.path for w, r in zip(writes, reads))


def test_files_form_read_write_rename_triples():
    # short run: the exfil lead delays file work a few seconds, then each
    # file is a read -> write -> rename triple on one path
    doc = {
        "duration_s": 12.0,
        "seed": 5,
        "benign_workers": {},
        "attacks": [{
            "family": "lockbit",
            "start_s": 0.0,
            "overrides": {"files_per_sec": 10.0, "obfuscation": 0.0,
                          "exfil_bytes_per_sec": 0.0, "intermittent_duty": 1.0,
                          "delay_start_s": 0.0},
        }],
    }
    events, _ = generate(scenario_from_mapping(doc))
    by_path = {}
    for e in events:
        by_path.setdefault(e.path, []).append(e.kind)
    complete = [k for k in by_path.values()
                if k == [EventKind.FILE_READ, EventKind.FILE_WRITE, EventKind.FILE_RENAME]]
    assert len(complete) >= 10


def test_obfuscation_masks_are_nested_per_seed():
    # under a common seed, raising the level only masks more: the count of
    # hot-entropy writes is non-increasing in the level, seed by seed
    for seed in (1, 2, 3, 4, 5):
        counts = []
        for lvl in (0.0, 0.25, 0.5, 0.75, 1.0):
            doc = {
                "duration_s": 40.0,
                "seed": seed,
                "benign_workers": {},
                "attacks": [{"family": "lockbit", "start_s": 0.0,
                             "overrides": {"obfuscation": lvl,
                                           "intermittent_duty": 1.0}}],
            }
            events, _ = generate(scenario_from_mapping(doc))
            hot = sum(1 for e in events
                      if e.kind is EventKind.FILE_WRITE and e.entropy is not None
                      and e.entropy > 7.0)
            counts.append(hot)
        assert counts == sorted(counts, reverse=True), (seed, counts)


def test_attack_goes_quiet_after_corpus():
    doc = {
        "duration_s": 300.0,
        "seed": 1,
        "benign_workers": {},
        "attacks": [{"family": "lockbit", "start_s": 0.0,
                     "overrides": {"files_per_sec": 50.0, "intermittent_duty": 1.0}}],
    }
    events, _ = generate(scenario_from_mapping(doc))
    file_events = [e for e in events if e.kind in
                   (EventKind.FILE_READ, EventKind.FILE_WRITE, EventKind.FILE_RENAME)
                   and "files/f_" in (e.path or "")]
    # 900 files at 50/s finish in ~18s + lead; nothing after ~40s
    assert max(e.ts for e in file_events) < 60_000_000


def test_sensor_rate_limit_thins_sustained_floods():
    def emitted(fps):
        doc = {"duration_s": 100.0, "seed": 1, "benign_workers": {},
               "attacks": [{"family": "lockbit", "start_s": 0.0,
                            "overrides": {"files_per_sec": fps,
                                          "intermittent_duty": 1.0}}]}
        events, _ = generate(scenario_from_mapping(doc))
        return len(events)

    slow, fast = emitted(10.0), emitted(300.0)
    assert fast < slow  # same corpus, but the flood is observed thinner


def test_profile_validation():
    with pytest.raises(ConfigError, match="files_per_sec"):
        profile_from_name("lockbit", {"files_per_sec": 0})
    with pytest.raises(ConfigError, match="obfuscation"):
        profile_from_name("conti", {"obfuscation": 1.5})
    with pytest.raises(ConfigError, match="filetype_mix"):
        profile_from_name("revil", {"filetype_mix": {"docx": -1.0}})
    with pytest.raises(ConfigError, match="unknown family"):
        profile_from_name("zeus")
    with pytest.raises(ConfigError, match="duration"):
        scenario_from_mapping({"duration_s": 0})


def test_presets_cover_the_named_families():
    presets = load_presets()
    for fam in ("lockbit", "conti", "revil", "blackmatter", "custom"):
        assert fam in presets
        profile_from_name(fam).validate()


def test_inline_profile_accepted():
    doc = small_doc(attacks=[{
        "profile": {
            "name": "custom", "files_per_sec": 5.0, "entropy_mean": 7.5,
            "entropy_sd": 0.1, "obfuscation": 0.2, "intermittent_duty": 1.0,
            "delay_start_s": 0.0, "filetype_mix": {"docx": 1.0},
            "exfil_bytes_per_sec": 0.0, "rename_to_ext": "enc",
        },
        "start_s": 5.0,
    }])
    events, truth = generate(scenario_from_mapping(doc))
    assert "atk_custom_0" in truth.entities


def test_write_events_round_trips_through_ingest(tmp_path):
    doc = small_doc(attacks=[{"family": "blackmatter", "start_s": 5.0}])
    events, _ = generate(scenario_from_mapping(doc))
    path = tmp_path / "stream.jsonl"
    write_events(events, path)
    again = list(read_stream(EventStream(str(path), strict=True)))
    # every field comes back; the line carries entropy to 6 decimals
    written = [Event(e.ts, e.entity, e.kind, e.path, e.ext_before, e.ext_after,
                     e.bytes, None if e.entropy is None else round(e.entropy, 6),
                     e.dst, e.truth) for e in events]
    assert again == written
    # and the stream sets every field somewhere
    for f in dataclasses.fields(Event):
        assert any(getattr(e, f.name) is not None for e in events), f.name


# The line writer's reference: the compact json encoding of a dict holding
# the present fields in declaration order, entropy rounded to 6 decimals.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _reference_line(event):
    obj = {"ts": event.ts, "entity": event.entity, "kind": event.kind.value}
    if event.path is not None:
        obj["path"] = event.path
    if event.ext_before is not None:
        obj["ext_before"] = event.ext_before
    if event.ext_after is not None:
        obj["ext_after"] = event.ext_after
    if event.bytes is not None:
        obj["bytes"] = event.bytes
    if event.entropy is not None:
        obj["entropy"] = round(event.entropy, 6)
    if event.dst is not None:
        obj["dst"] = event.dst
    if event.truth is not None:
        obj["truth"] = event.truth.value
    return _compact_json(obj)


# any code point, lone surrogates included, plus the ones json escapes
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff'),
                         st.characters(exclude_categories=())))
INT64 = st.integers(-(2**63), 2**63 - 1)
ENTROPY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 8.0),
    # halfway and near-halfway cases at the sixth decimal
    st.integers(0, 8_000_000).map(lambda k: (k + 0.5) / 1e6),
    st.sampled_from([0.0, -0.0, 7.9999995, 1e-7, 5e-7, math.nan, math.inf, -math.inf]),
)


def optional(strategy):
    return st.one_of(st.none(), strategy)


@settings(max_examples=500, deadline=None)
@given(st.builds(Event, ts=INT64, entity=TEXT, kind=st.sampled_from(EventKind),
                 path=optional(TEXT), ext_before=optional(TEXT),
                 ext_after=optional(TEXT), bytes=optional(INT64),
                 entropy=optional(ENTROPY), dst=optional(TEXT),
                 truth=optional(st.sampled_from(Truth))))
def test_event_line_is_the_compact_json_encoding(event):
    assert simulator.event_to_json_line(event) == _reference_line(event)


# Small seeded scenarios that together reach every event source: at seed 9
# office_0 and office_1 sync mail and office_2 never does; build_0s0 is an
# incremental session and build_1s0 a clean one; backup_0 repairs in place,
# backup_1 copies and backup_2 only uploads. The attacks run the file and
# exfil streams of all four families with obfuscation > 0; atk_lockbit_4
# floods at 300 files/s, which the sensor thins from 1,885 events to 654;
# atk_revil_5 starts after the run ends and keeps its scheduled start as
# first_malicious_ts.
PINNED_STREAMS = {
    "benign": {
        "duration_s": 120.0, "seed": 9, "attacks": [],
        "benign_workers": {"office": 3, "build": 2, "backup": 3},
    },
    "attacks": {
        "duration_s": 40.0, "seed": 4, "benign_workers": {},
        "attacks": [
            {"family": family, "start_s": 2.0 * i, "overrides": {"obfuscation": 0.5}}
            for i, family in enumerate(("lockbit", "conti", "revil", "blackmatter"))
        ] + [
            {"family": "lockbit", "start_s": 5.0,
             "overrides": {"files_per_sec": 300.0, "obfuscation": 0.25}},
            {"family": "revil", "start_s": 60.0},
        ],
    },
}
# sha256 of (write_events output, TruthIndex.save output) per scenario
PINNED_STREAM_SHA256 = {
    "benign": ("c7c5a5dab991d90276c884ef1753fa84e74f749d46267810ef9a115d4014767e",
               "441623ce2da84ba9c4d5a4f3fe5715d06c9ecebce243b2e9ec1f8d8d8b9ea655"),
    "attacks": ("d2789b5498fb54bae95375d900fbfaa2e35d44bffb306ac01a8ac6970f956e0a",
                "dd8e18052dc805dd3ca6bb9a67af49d4ae45966bd79484a276b8de7dfd2244cd"),
}


def _file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_stream_bytes_are_pinned(tmp_path):
    digests = {}
    for name, doc in PINNED_STREAMS.items():
        events, truth = generate(scenario_from_mapping(doc))
        path = tmp_path / f"{name}.jsonl"
        write_events(events, path)
        truth.save(tmp_path / f"{name}.truth.json")
        digests[name] = (_file_sha256(path),
                         _file_sha256(tmp_path / f"{name}.truth.json"))
    assert digests == PINNED_STREAM_SHA256


@pytest.fixture(scope="module")
def suite_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("suites")
    make_standard_suites(root)
    return root


class TestStandardSuites:
    def test_five_suites_emitted(self, suite_root):
        for name in ("s1", "s2", "s3", "s4", "s5"):
            assert (suite_root / name / "suite.json").exists()
            doc = json.loads((suite_root / name / "suite.json").read_text())
            assert doc["suite"] == name
            assert (suite_root / name / doc["train_scenario"]).exists()
            for run in doc["runs"]:
                assert (suite_root / name / run["scenario"]).exists()

    def test_s3_manifests_differ_only_in_obfuscation(self, suite_root):
        doc = json.loads((suite_root / "s3" / "suite.json").read_text())
        by_family = {}
        for run in doc["runs"]:
            scen = json.loads((suite_root / "s3" / run["scenario"]).read_text())
            by_family.setdefault(run["family"], []).append(scen)
        for fam, scens in by_family.items():
            def normalized(s):
                s = json.loads(json.dumps(s))
                for atk in s["attacks"]:
                    atk["overrides"].pop("obfuscation", None)
                return s
            base = normalized(scens[0])
            for s in scens[1:]:
                assert normalized(s) == base

    def test_s4_speeds_span_a_decade(self, suite_root):
        doc = json.loads((suite_root / "s4" / "suite.json").read_text())
        speeds = sorted({run["sweep_value"] for run in doc["runs"]})
        assert max(speeds) / min(speeds) >= 10

    def test_suite_bytes_are_pinned(self, suite_root):
        # one "<sha256>  ./<path>" line per file, as sha256sum prints them
        paths = sorted(p.relative_to(suite_root).as_posix()
                       for p in suite_root.rglob("*") if p.is_file())
        listing = "".join(f"{_file_sha256(suite_root / p)}  ./{p}\n" for p in paths)
        assert len(paths) == 66
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "f0112f0f96bc920ff95fb41f600a6b2a48602631e6d9c2aedd550ab98d333923")

    def test_scenarios_parse_and_generate(self, suite_root):
        # spot-check one manifest per suite end to end (tiny seed override)
        for name in ("s1", "s2", "s3", "s4", "s5"):
            doc = json.loads((suite_root / name / "suite.json").read_text())
            scen_path = suite_root / name / doc["runs"][0]["scenario"]
            scenario = simulator.load_scenario(scen_path, seed_override=9)
            assert scenario.seed == 9
