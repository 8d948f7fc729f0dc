"""Command-line surface: exit codes, file outputs, reproducibility."""

import csv
import io
import json

import pytest

from zsd.cli import main
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


def test_detect_dump_features_csv(workdir, simulated, model_path, capsys, tmp_path):
    events, _ = simulated
    small = tmp_path / "small.jsonl"
    small.write_text(
        "\n".join(events.read_text(encoding="utf-8").splitlines()[:50]) + "\n",
        encoding="utf-8")
    rc = main(["detect", "--model", str(model_path), "--input", str(small),
               "-o", str(tmp_path / "v.jsonl"), "--dump-features"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "entity,window_id," + ",".join(f"f{i}" for i in range(1, 13))
    assert len(lines) == 51
    first = lines[1].split(",")
    assert len(first) == 14


def test_detect_dump_features_quotes_entity_names(model_path, capsys, tmp_path):
    entity = 'svc,"x"'
    small = tmp_path / "hostile.jsonl"
    small.write_text("".join(
        json.dumps({"ts": i + 1, "entity": entity, "kind": "file_write",
                    "path": f"/f{i}", "entropy": 7.5, "bytes": 4096}) + "\n"
        for i in range(5)), encoding="utf-8")
    rc = main(["detect", "--model", str(model_path), "--input", str(small),
               "-o", str(tmp_path / "v.jsonl"), "--dump-features"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    assert all(len(row) == 14 for row in rows)
    assert [row[0] for row in rows[1:]] == [entity] * 5


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


def test_detect_dump_clusters_csv(workdir, simulated, model_path, capsys, tmp_path):
    events, _ = simulated
    small = tmp_path / "small.jsonl"
    small.write_text(
        "\n".join(events.read_text(encoding="utf-8").splitlines()[:80]) + "\n",
        encoding="utf-8")
    rc = main(["detect", "--model", str(model_path), "--input", str(small),
               "-o", str(tmp_path / "v.jsonl"), "--dump-clusters"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "window_id,assignment,neighbor_count"
    for row in lines[1:5]:
        wid, tag, count = row.split(",")
        assert tag == "outlier" or tag.startswith("inlier:")
        assert int(count) >= 0


def test_eval_join_error_exits_2(workdir, simulated, model_path, tmp_path):
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


def test_missing_model_exits_2(tmp_path):
    rc = main(["detect", "--model", str(tmp_path / "nope.zsd"),
               "--input", str(tmp_path / "nope.jsonl"),
               "-o", str(tmp_path / "v.jsonl")])
    assert rc == 2


def test_bad_config_exits_2(workdir, simulated, model_path, tmp_path):
    events, _ = simulated
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tau=0.0\n", encoding="utf-8")
    rc = main(["detect", "--model", str(model_path), "--input", str(events),
               "-o", str(tmp_path / "v.jsonl"), "--config", str(cfg)])
    assert rc == 2


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--suite", "s9", "--out-dir", "/tmp/x"])
    assert exc.value.code == 1


def test_train_degenerate_data_exits_2(tmp_path):
    stream = tmp_path / "benign_only.jsonl"
    doc = {"duration_s": 20.0, "seed": 1,
           "benign_workers": {"office": 1}, "attacks": []}
    events, _ = generate(scenario_from_mapping(doc))
    write_events(events, stream)
    rc = main(["train", "--data", str(stream), "-o", str(tmp_path / "m.zsd"),
               "--epochs", "1"])
    assert rc == 2


def test_bench_prints_stats(capsys):
    rc = main(["bench", "--events", "3000", "--workers", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events_in"] == 3000
    assert doc["throughput_eps"] > 0


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


def test_detect_workers_flag(workdir, simulated, model_path, tmp_path):
    events, _ = simulated
    v1 = tmp_path / "w1.jsonl"
    v4 = tmp_path / "w4.jsonl"
    assert main(["detect", "--model", str(model_path), "--input", str(events),
                 "-o", str(v1)]) == 0
    assert main(["detect", "--model", str(model_path), "--input", str(events),
                 "-o", str(v4), "--workers", "4"]) == 0
    assert sorted(v1.read_text().splitlines()) == sorted(v4.read_text().splitlines())


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
