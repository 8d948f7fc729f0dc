"""Command-line surface: exit codes, file outputs, reproducibility."""

import json
from collections import Counter

import pytest

from zsd.cli import main
from zsd.scorer import ScorerModel, save_model
from zsd.simulator import generate, scenario_from_mapping, write_events

SCENARIO = {
    "duration_s": 90.0,
    "seed": 1,
    "benign_workers": {"office": 2, "build": 1, "backup": 1},
    "attacks": [{"family": "lockbit", "start_s": 30.0}],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scenario.json"
    scen.write_text(json.dumps(SCENARIO), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def simulated(workdir):
    out = workdir / "events.jsonl"
    rc = main(["simulate", "--scenario", str(workdir / "scenario.json"),
               "-o", str(out)])
    assert rc == 0
    truth = workdir / "events.jsonl.truth.json"
    assert truth.exists()
    return out, truth


@pytest.fixture(scope="module")
def model_path(workdir, simulated):
    events, _ = simulated
    out = workdir / "model.zsd"
    rc = main(["train", "--data", str(events), "-o", str(out),
               "--epochs", "4", "--hidden", "8", "--max-per-class", "300"])
    assert rc == 0
    assert out.read_text(encoding="utf-8").startswith("ZSDMODEL 1 8 12")
    return out


def test_simulate_is_reproducible(workdir, simulated):
    events, _ = simulated
    again = workdir / "events2.jsonl"
    rc = main(["simulate", "--scenario", str(workdir / "scenario.json"),
               "-o", str(again)])
    assert rc == 0
    assert events.read_bytes() == again.read_bytes()


def test_simulate_seed_override_changes_output(workdir, simulated):
    events, _ = simulated
    other = workdir / "events_seed9.jsonl"
    rc = main(["simulate", "--scenario", str(workdir / "scenario.json"),
               "--seed", "9", "-o", str(other)])
    assert rc == 0
    assert events.read_bytes() != other.read_bytes()


def test_detect_and_eval_end_to_end(workdir, simulated, model_path):
    events, truth = simulated
    verdicts = workdir / "verdicts.jsonl"
    stats = workdir / "stats.json"
    rc = main(["detect", "--model", str(model_path), "--input", str(events),
               "-o", str(verdicts), "--stats-out", str(stats)])
    assert rc == 0
    lines = verdicts.read_text(encoding="utf-8").splitlines()
    n_events = len(events.read_text(encoding="utf-8").splitlines())
    assert len(lines) == n_events

    doc = json.loads(stats.read_text(encoding="utf-8"))
    assert doc["events_in"] == n_events
    assert doc["throughput_eps"] > 0

    report = workdir / "eval.json"
    rc = main(["eval", "--verdicts", str(verdicts), "--truth", str(truth),
               "-o", str(report)])
    assert rc == 0
    rep = json.loads(report.read_text(encoding="utf-8"))
    assert set(rep["confusion"]) == {"tp", "fp", "tn", "fn"}
    assert "detection_rate" in rep


def test_detect_is_reproducible(workdir, simulated, model_path):
    events, _ = simulated
    v1 = workdir / "v1.jsonl"
    v2 = workdir / "v2.jsonl"
    for out in (v1, v2):
        rc = main(["detect", "--model", str(model_path), "--input", str(events),
                   "-o", str(out)])
        assert rc == 0
    assert v1.read_bytes() == v2.read_bytes()


def test_detect_empty_input(workdir, model_path, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "verdicts.jsonl"
    rc = main(["detect", "--model", str(model_path), "--input", str(empty),
               "-o", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == ""


def test_detect_trace_records_agree_with_verdicts(workdir, simulated, model_path,
                                                 tmp_path):
    events, _ = simulated
    plain, traced = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"
    trace = tmp_path / "trace.jsonl"
    assert main(["detect", "--model", str(model_path), "--input", str(events),
                 "-o", str(plain)]) == 0
    assert main(["detect", "--model", str(model_path), "--input", str(events),
                 "-o", str(traced), "--trace", str(trace)]) == 0
    assert traced.read_bytes() == plain.read_bytes()

    records = [json.loads(line)
               for line in trace.read_text(encoding="utf-8").splitlines()]
    verdicts = [json.loads(line)
                for line in plain.read_text(encoding="utf-8").splitlines()]
    fields = ("event_ts", "entity", "label", "phase", "score")
    assert (Counter(tuple(r[k] for k in fields) for r in records)
            == Counter(tuple(v[k] for k in fields) for v in verdicts))
    window_ids = {}
    for r in records:
        window_ids.setdefault(r["entity"], []).append(r["window_id"])
        assert len(r["features"]) == 12
        if r["gate"] is None:
            assert r["phase"] == "fast_path" and r["neighbor_count"] is None
        else:
            assert r["gate"] in ("inlier", "outlier")
            assert r["neighbor_count"] >= 0
        assert (r["initial_score"] is None) == (r["phase"] != "deferred_resolved")
    for ids in window_ids.values():
        assert sorted(ids) == list(range(1, len(ids) + 1))
    assert {r["gate"] for r in records} == {None, "inlier", "outlier"}


def test_detect_trace_round_trips_hostile_entity_names(model_path, tmp_path):
    entity = 'svc,"x"'
    small = tmp_path / "hostile.jsonl"
    small.write_text("".join(
        json.dumps({"ts": i + 1, "entity": entity, "kind": "file_write",
                    "path": f"/f{i}", "entropy": 7.5, "bytes": 4096}) + "\n"
        for i in range(5)), encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    rc = main(["detect", "--model", str(model_path), "--input", str(small),
               "-o", str(tmp_path / "v.jsonl"), "--trace", str(trace)])
    assert rc == 0
    records = [json.loads(line)
               for line in trace.read_text(encoding="utf-8").splitlines()]
    assert [(r["entity"], r["window_id"]) for r in records] == [
        (entity, i) for i in range(1, 6)]


@pytest.mark.parametrize("entity", ['svc,"x"', "a\\b", "caf\u00e9-\U0001f600", "t\tab\n\x00\x1f"])
def test_trace_lines_are_json_dumps_of_the_record(entity):
    import io

    from zsd.cli import _trace_writer
    from zsd.types import Label, Phase, Verdict

    fh = io.StringIO()
    trace = _trace_writer(fh)
    features = [0.0, 1.0, 0.1 + 0.2, 1e-300, 0.5, 2 / 3, 0.0, 0.25, 1e-7, 0.999, 0.0, 0.3]
    cases = [
        (Verdict(7, entity, Label.BENIGN, 0.0, Phase.FAST_PATH, 7), None, None),
        (Verdict(8, entity, Label.BENIGN, 0.0, Phase.CLUSTER_INLIER, 9), (False, 4), None),
        (Verdict(9, entity, Label.MALICIOUS, 0.93, Phase.SCORED, 9), (True, 0), None),
        (Verdict(10, entity, Label.BENIGN, 1 / 3, Phase.DEFERRED_RESOLVED, 2**62),
         (True, 3), 0.4999999999999999),
    ]
    expected = []
    for verdict, gate, initial_score in cases:
        trace(verdict, 5, features, gate, initial_score)
        expected.append(json.dumps({
            "entity": entity, "window_id": 5, "event_ts": verdict.event_ts,
            "features": features,
            "gate": None if gate is None else "outlier" if gate[0] else "inlier",
            "neighbor_count": None if gate is None else gate[1],
            "score": verdict.score, "initial_score": initial_score,
            "label": verdict.label.value, "phase": verdict.phase.value,
        }) + "\n")
    assert fh.getvalue().splitlines(keepends=True) == expected


def test_detect_stats_count_dropped_input(model_path, tmp_path):
    def line(ts):
        return json.dumps({"ts": ts, "entity": "p", "kind": "file_read",
                           "path": "/a", "entropy": 4.0, "bytes": 10})
    src = tmp_path / "dirty.jsonl"
    src.write_text("\n".join([line(5), "{not json", line(3), line(9)]) + "\n",
                   encoding="utf-8")
    stats = tmp_path / "stats.json"
    rc = main(["detect", "--model", str(model_path), "--input", str(src),
               "-o", str(tmp_path / "v.jsonl"), "--stats-out", str(stats)])
    assert rc == 0
    doc = json.loads(stats.read_text(encoding="utf-8"))
    assert doc["events_in"] == 3
    assert doc["lines_skipped"] == 1
    assert doc["ts_out_of_order"] == 1


def test_detect_skips_unhashable_kind_or_exits_2_under_strict(model_path, tmp_path, capsys):
    src = tmp_path / "hostile.jsonl"
    src.write_text('{"ts":1,"entity":"p","kind":"file_read"}\n'
                   '{"ts":2,"entity":"p","kind":["file_read"]}\n'
                   '{"ts":3,"entity":"p","kind":"file_read","truth":{}}\n', encoding="utf-8")
    stats = tmp_path / "stats.json"
    rc = main(["detect", "--model", str(model_path), "--input", str(src),
               "-o", str(tmp_path / "v.jsonl"), "--stats-out", str(stats)])
    assert rc == 0
    assert json.loads(stats.read_text(encoding="utf-8"))["lines_skipped"] == 2
    rc = main(["detect", "--model", str(model_path), "--input", str(src),
               "-o", str(tmp_path / "v.jsonl"), "--strict"])
    assert rc == 2
    assert "unknown kind ['file_read']" in capsys.readouterr().err


def test_detect_skips_numbers_too_large_or_exits_2_under_strict(model_path, tmp_path):
    huge = 10**400
    src = tmp_path / "huge.jsonl"
    src.write_text(
        '{"ts":1,"entity":"p","kind":"net_send","bytes":10}\n'
        f'{{"ts":2,"entity":"p","kind":"net_send","bytes":{huge}}}\n'
        f'{{"ts":{huge},"entity":"p","kind":"file_read"}}\n'
        f'{{"ts":3,"entity":"p","kind":"file_write","entropy":{huge}}}\n',
        encoding="utf-8")
    stats = tmp_path / "stats.json"
    rc = main(["detect", "--model", str(model_path), "--input", str(src),
               "-o", str(tmp_path / "v.jsonl"), "--stats-out", str(stats)])
    assert rc == 0
    doc = json.loads(stats.read_text(encoding="utf-8"))
    assert (doc["events_in"], doc["lines_skipped"]) == (1, 3)
    rc = main(["detect", "--model", str(model_path), "--input", str(src),
               "-o", str(tmp_path / "v.jsonl"), "--strict"])
    assert rc == 2


def test_eval_join_error_exits_2(workdir, simulated, model_path, tmp_path, capsys):
    events, _ = simulated
    verdicts = workdir / "verdicts_join.jsonl"
    main(["detect", "--model", str(model_path), "--input", str(events),
          "-o", str(verdicts)])
    wrong_truth = tmp_path / "truth.json"
    wrong_truth.write_text('{"entities": {"nobody": {"label": "benign"}}}',
                           encoding="utf-8")
    rc = main(["eval", "--verdicts", str(verdicts), "--truth", str(wrong_truth),
               "-o", str(tmp_path / "rep.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("zsd eval: verdict references unknown entity")


@pytest.mark.parametrize("verdict_line, truth_text, named", [
    ('{"event_ts":1}', None, "line 2"),
    ("nope", None, "line 2"),
    (None, "[]", "truth.json"),
    (None, '{"entities": {"a": {"label": "malicious", "first_malicious_ts": "x"}}}',
     "truth.json"),
])
def test_eval_bad_verdicts_or_truth_exit_2(tmp_path, capsys, verdict_line,
                                           truth_text, named):
    good = ('{"event_ts":1,"entity":"a","label":"benign","score":0.1,'
            '"phase":"scored","decided_ts":1}')
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text(good + "\n" + (verdict_line or good) + "\n", encoding="utf-8")
    truth = tmp_path / "truth.json"
    truth.write_text(truth_text or '{"entities": {"a": {"label": "benign"}}}',
                     encoding="utf-8")
    rc = main(["eval", "--verdicts", str(verdicts), "--truth", str(truth),
               "-o", str(tmp_path / "rep.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("zsd eval: ") and named in err


@pytest.mark.parametrize("manifest, key", [
    ({}, "duration_s"),
    ({"duration_s": "x"}, "duration_s"),
    ({"duration_s": 10, "benign_workers": {"office": "a"}}, "office"),
    ({"duration_s": 10,
      "attacks": [{"family": "lockbit", "overrides": {"bogus": 1}}]}, "bogus"),
    ([1], "scenario"),
    ({"duration_s": float("nan")}, "duration_s"),
    ({"duration_s": 10, "attacks": [
        {"family": "lockbit", "overrides": {"files_per_sec": float("nan")}}]},
     "files_per_sec"),
])
def test_bad_scenario_manifest_exits_2(tmp_path, capsys, manifest, key):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(path), "-o", str(tmp_path / "e.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("zsd simulate: ") and key in err
    assert not (tmp_path / "e.jsonl").exists()


def test_missing_model_exits_2(tmp_path):
    rc = main(["detect", "--model", str(tmp_path / "nope.zsd"),
               "--input", str(tmp_path / "nope.jsonl"),
               "-o", str(tmp_path / "v.jsonl")])
    assert rc == 2


def test_model_path_that_is_a_directory_exits_2(simulated, tmp_path, capsys):
    events, _ = simulated
    rc = main(["detect", "--model", str(tmp_path), "--input", str(events),
               "-o", str(tmp_path / "v.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("zsd detect: ") and err.count("\n") == 1
    assert "Is a directory" in err


@pytest.mark.parametrize("command,flag,extra", [
    ("detect", "--input", []),
    ("detect", "--input", ["--strict"]),
    ("train", "--data", []),
    ("eval", "--verdicts", ["--truth", "never-read.json"]),
])
def test_input_that_is_not_utf8_exits_2(model_path, tmp_path, capsys,
                                        command, flag, extra):
    # blank lines, which every reader skips, then a line with a bad byte;
    # text is decoded a chunk at a time, so the message names the last
    # line read, somewhere before the bad one
    data = tmp_path / "e.jsonl"
    data.write_bytes(b"\n" * 10_000 + b'{"ts": 0, "entity": "\xff", "kind": "file_read"}\n')
    if command == "detect":
        extra = ["--model", str(model_path), *extra]
    out = tmp_path / "out"
    rc = main([command, flag, str(data), "-o", str(out), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    head = (f"zsd {command}: {data}: can't decode byte 0xff as UTF-8 "
            "(invalid start byte) after line ")
    assert err.startswith(head)
    assert 0 < int(err[len(head):]) <= 10_000
    assert not out.exists()


def test_model_with_a_nan_parameter_exits_2(workdir, simulated, model_path, tmp_path, capsys):
    events, _ = simulated
    lines = model_path.read_text(encoding="utf-8").splitlines()
    lines[1] = " ".join(["nan"] + lines[1].split()[1:])
    bad = tmp_path / "nan.zsd"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "v.jsonl"
    rc = main(["detect", "--model", str(bad), "--input", str(events), "-o", str(out)])
    assert rc == 2
    assert "non-finite parameter nan" in capsys.readouterr().err
    assert not out.exists()


def test_model_of_the_wrong_width_exits_2_before_reading_input(
        workdir, simulated, tmp_path, capsys):
    # 20 events all fall in the warmup, so nothing would reach the scorer
    events, _ = simulated
    short = tmp_path / "short.jsonl"
    short.write_text("".join(events.read_text(encoding="utf-8")
                             .splitlines(keepends=True)[:20]), encoding="utf-8")
    narrow = tmp_path / "narrow.zsd"
    save_model(ScorerModel.seeded(4, 1, inputs=5), str(narrow))
    out = tmp_path / "v.jsonl"
    rc = main(["detect", "--model", str(narrow), "--input", str(short), "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "5 inputs" in err and "12" in err
    assert not out.exists()


@pytest.mark.parametrize("header", ["ZSDMODEL 1 0 12", "ZSDMODEL 1 -2 12",
                                    "ZSDMODEL 1 4 0"])
def test_model_sizes_below_one_exit_2(workdir, simulated, tmp_path, capsys, header):
    events, _ = simulated
    bad = tmp_path / "empty.zsd"
    bad.write_text(header + "\n0\n0\n0\n", encoding="utf-8")
    rc = main(["detect", "--model", str(bad), "--input", str(events),
               "-o", str(tmp_path / "v.jsonl")])
    assert rc == 2
    assert "sizes must be >= 1" in capsys.readouterr().err


def test_detect_stats_count_gate_scans(workdir, simulated, model_path, tmp_path):
    events, _ = simulated
    stats = tmp_path / "stats.json"
    rc = main(["detect", "--model", str(model_path), "--input", str(events),
               "-o", str(tmp_path / "v.jsonl"), "--stats-out", str(stats)])
    assert rc == 0
    doc = json.loads(stats.read_text(encoding="utf-8"))
    gated = doc["events_in"] - doc["phase_counts"].get("fast_path", 0)
    assert 0 < doc["gate_scans"] <= gated


def test_bad_config_exits_2(workdir, simulated, model_path, tmp_path):
    events, _ = simulated
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tau=0.0\n", encoding="utf-8")
    rc = main(["detect", "--model", str(model_path), "--input", str(events),
               "-o", str(tmp_path / "v.jsonl"), "--config", str(cfg)])
    assert rc == 2


def test_usage_error_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--suite", "s9", "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unknown suite 's9'; choose from s1, s2, s3, s4, s5" in err
    assert not (tmp_path / "x").exists()


def test_train_degenerate_data_exits_2(tmp_path):
    stream = tmp_path / "benign_only.jsonl"
    doc = {"duration_s": 20.0, "seed": 1,
           "benign_workers": {"office": 1}, "attacks": []}
    events, _ = generate(scenario_from_mapping(doc))
    write_events(events, stream)
    rc = main(["train", "--data", str(stream), "-o", str(tmp_path / "m.zsd"),
               "--epochs", "1"])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [
    ("--epochs", "0"), ("--hidden", "0"), ("--lr", "0"), ("--lr", "nan"),
    ("--clip-norm", "0"), ("--train-seed", "-1"), ("--init-scale", "-1"),
    ("--init-scale", "nan"), ("--init-scale", "inf"), ("--max-per-class", "0"),
])
def test_train_setting_out_of_range_exits_2(simulated, tmp_path, capsys, flag, value):
    events, _ = simulated
    out = tmp_path / "m.zsd"
    rc = main(["train", "--data", str(events), "-o", str(out), flag, value])
    assert rc == 2
    key = "seed" if flag == "--train-seed" else flag[2:].replace("-", "_")
    assert f"zsd train: {key}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_that_diverges_exits_2_and_writes_no_model(simulated, tmp_path, capsys):
    # an infinite step turns the parameters to nan, which load_model refuses
    events, _ = simulated
    out = tmp_path / "m.zsd"
    rc = main(["train", "--data", str(events), "-o", str(out), "--lr", "inf",
               "--epochs", "1", "--hidden", "4", "--max-per-class", "50"])
    assert rc == 2
    assert "Wx: non-finite parameter nan" in capsys.readouterr().err
    assert not out.exists()


def test_train_model_bytes_are_pinned(simulated, tmp_path):
    # training builds its sequences with detection's per-entity state and
    # samples them with a seeded reservoir: this digest pins both
    import hashlib

    events, _ = simulated
    out = tmp_path / "m.zsd"
    rc = main(["train", "--data", str(events), "-o", str(out),
               "--epochs", "1", "--hidden", "4", "--max-per-class", "50"])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e4eb47ffbb1fa83cfc3f282d92f8963371831beadd1c2714dafb28df19a83819")


def test_train_leaves_out_the_suite_harness(simulated, tmp_path):
    import subprocess
    import sys

    events, _ = simulated
    code = ("import sys; from zsd.cli import main; "
            f"rc = main(['train', '--data', {str(events)!r}, '-o', "
            f"{str(tmp_path / 'm.zsd')!r}, '--epochs', '1', '--hidden', '4', "
            "'--max-per-class', '50']); "
            "print(rc, sorted(m for m in ('zsd.simulator', 'zsd.sweep', "
            "'zsd.metrics') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_bench_prints_stats(capsys):
    rc = main(["bench", "--events", "3000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events_in"] == 3000
    assert doc["throughput_eps"] > 0


@pytest.mark.parametrize("args", [["--events", "0"], ["--events", "-5"],
                                  ["--events", "3000", "--seed", "-1"]])
def test_bench_event_count_below_one_or_negative_seed_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *args])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_sweep_bad_seed_list_is_a_usage_error_that_writes_nothing(tmp_path):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--suite", "s5", "--out-dir", str(out_dir), "--seeds", "a,b"])
    assert exc.value.code == 1
    assert not out_dir.exists()


def test_detect_strict_mode_aborts_on_bad_line(workdir, simulated, model_path, tmp_path):
    events, _ = simulated
    lines = events.read_text(encoding="utf-8").splitlines()[:20]
    lines.insert(10, "{broken")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "v.jsonl"
    assert main(["detect", "--model", str(model_path), "--input", str(bad),
                 "-o", str(out)]) == 0  # non-strict skips
    assert main(["detect", "--model", str(model_path), "--input", str(bad),
                 "-o", str(out), "--strict"]) == 2


def test_detect_has_no_workers_or_warmup_setting(workdir, simulated, model_path,
                                                 tmp_path, capsys):
    events, _ = simulated
    out = tmp_path / "v.jsonl"
    detect = ["detect", "--model", str(model_path), "--input", str(events),
              "-o", str(out)]
    for extra in (["--workers", "4"], ["--warmup-grace", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(detect + extra)
        assert exc.value.code == 1
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("workers=4\n", encoding="utf-8")
    assert main(detect + ["--config", str(cfg)]) == 2
    assert "unknown config key: workers" in capsys.readouterr().err
    assert not out.exists()


def test_detect_reads_stdin(workdir, simulated, model_path, tmp_path):
    import subprocess
    import sys
    events, _ = simulated
    payload = "\n".join(events.read_text(encoding="utf-8").splitlines()[:30]) + "\n"
    out = tmp_path / "v.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "zsd.cli", "detect", "--model", str(model_path),
         "--input", "-", "-o", str(out)],
        input=payload, text=True, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text(encoding="utf-8").splitlines()) == 30


def test_sweep_s5_end_to_end(tmp_path, capsys):
    rc = main(["sweep", "--suite", "s5", "--out-dir", str(tmp_path), "--seeds", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite s5" in out
    suite_dir = tmp_path / "s5"
    csv_lines = (suite_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("sweep_param,sweep_value,family")
    assert len(csv_lines) == 6  # five load points
    assert (suite_dir / "summary.json").exists()
    assert (suite_dir / "resources.csv").exists()
    res = (suite_dir / "resources.csv").read_text(encoding="utf-8").splitlines()
    assert res[0].startswith("run,events,throughput_eps")
    assert len(res) == 6


def test_cli_import_leaves_out_the_other_subcommands_modules():
    # detect needs none of them; each subcommand that does imports its own
    import subprocess
    import sys

    code = ("import sys, zsd.cli; print(sorted(m for m in "
            "('zsd.simulator', 'zsd.sweep', 'zsd.metrics') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_writes_only_the_chosen_suite(tmp_path, monkeypatch):
    from types import SimpleNamespace

    import zsd.sweep

    ran = []

    def run_suite(suite_dir, seeds=None):
        ran.append(suite_dir)
        return SimpleNamespace(summary={"families": {}}, csv_path=suite_dir / "sweep.csv")

    monkeypatch.setattr(zsd.sweep, "run_suite", run_suite)
    assert main(["sweep", "--suite", "s5", "--out-dir", str(tmp_path)]) == 0
    assert ran == [tmp_path / "s5"]
    assert [p.name for p in tmp_path.iterdir()] == ["s5"]


def test_detect_does_not_import_numpy_ma(simulated, model_path, tmp_path):
    # the run's stats are read without numpy's masked arrays, whose import
    # costs tens of milliseconds and megabytes of every detect
    import subprocess
    import sys

    events, _ = simulated
    code = ("import sys; from zsd.cli import main; "
            f"rc = main(['detect', '--model', {str(model_path)!r}, '--input', "
            f"{str(events)!r}, '-o', {str(tmp_path / 'v.jsonl')!r}, "
            f"'--stats-out', {str(tmp_path / 's.json')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_detect_runs_on_one_thread(simulated, model_path, tmp_path):
    # the CLI caps OpenBLAS at one thread before numpy loads, since no zsd
    # product is large enough to use a second; a user's own setting wins,
    # and importing the pipeline as a library sets nothing
    import os
    import subprocess
    import sys

    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    events, _ = simulated
    detect = ("import os; from zsd.cli import main; "
              f"rc = main(['detect', '--model', {str(model_path)!r}, '--input', "
              f"{str(events)!r}, '-o', {str(tmp_path / 'v.jsonl')!r}]); ")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def child(code, **extra):
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env={**env, **extra}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert child(detect + "print(rc, len(os.listdir('/proc/self/task')))") == "0 1"
    assert child(detect + "print(rc, os.environ['OPENBLAS_NUM_THREADS'])",
                 OPENBLAS_NUM_THREADS="2") == "0 2"
    assert child("import os, zsd.pipeline; "
                 "print(os.environ.get('OPENBLAS_NUM_THREADS'))") == "None"
