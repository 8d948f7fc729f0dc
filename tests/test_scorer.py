"""Recurrent scorer: forward math, gradients, training, serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zsd.scorer import (
    PARAMS,
    DegenerateDataError,
    DimensionError,
    Prefix,
    ScorerModel,
    TrainConfig,
    forward,
    grad,
    load_model,
    loss,
    save_model,
    train,
)


def straightline_forward(model, seq):
    """Independent transcription of the two recurrence formulas."""
    h = [0.0] * model.hidden
    for x in seq:
        nh = []
        for i in range(model.hidden):
            z = model.bh[i]
            for k in range(model.inputs):
                z += model.Wx[i][k] * x[k]
            for k in range(model.hidden):
                z += model.Wh[i][k] * h[k]
            nh.append(math.tanh(z))
        h = nh
    z = model.bo
    for i in range(model.hidden):
        z += model.wo[i] * h[i]
    return 1.0 / (1.0 + math.exp(-z))


class TestForward:
    def test_zero_network_scores_half(self):
        m = ScorerModel.zeros(4)
        seq = np.random.default_rng(0).random((3, 12))
        assert forward(m, seq) == 0.5

    def test_bias_only_closed_form(self):
        m = ScorerModel.zeros(4)
        m.bo = 10.0
        seq = np.random.default_rng(0).random((2, 12))
        assert forward(m, seq) == pytest.approx(0.9999546021312976, abs=1e-12)

    def test_matches_straightline_recurrence(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = ScorerModel.seeded(5, seed=trial, scale=0.4)
            seq = rng.random((rng.integers(1, 9), 12))
            assert forward(m, seq) == pytest.approx(
                straightline_forward(m, seq), abs=1e-12)

    def test_output_and_hidden_bounds(self):
        rng = np.random.default_rng(3)
        m = ScorerModel.seeded(16, seed=2, scale=2.0)
        for _ in range(50):
            s = forward(m, rng.random((16, 12)))
            assert 0.0 < s < 1.0

    def test_wrong_width_rejected(self):
        m = ScorerModel.zeros(4)
        with pytest.raises(DimensionError):
            forward(m, np.zeros((3, 7)))
        with pytest.raises(DimensionError):
            forward(m, np.zeros((0, 12)))


class TestPrefix:
    """A resumed score must be the fresh score, bit for bit."""

    @pytest.mark.parametrize("seq_len", [16, 40])
    @pytest.mark.parametrize("hidden", [1, 8, 32])
    def test_resumed_scores_equal_fresh_ones(self, hidden, seq_len):
        rng = np.random.default_rng(hidden * 100 + seq_len)
        m = ScorerModel.seeded(hidden, seed=hidden, scale=0.5)
        xs = rng.random((seq_len, 12))
        prefix = Prefix()
        for n in range(1, seq_len + 1):
            fresh = forward(m, xs[:n])
            # twice at the same n: a deferral that resolves on the event
            # that scored it rescores the same sequence
            for _ in range(2):
                got = forward(m, xs[:n].copy(), prefix)
                assert got == fresh and repr(got) == repr(fresh), n
            # one-row and one-column products keep no state
            assert prefix.rows == (n if n > 1 and hidden > 1 else 0)

    def test_resume_runs_only_the_rows_after_the_prefix(self):
        m = ScorerModel.seeded(8, seed=4, scale=0.5)
        xs = np.random.default_rng(4).random((6, 12))
        prefix = Prefix()
        forward(m, xs[:5], prefix)
        prefix.h = np.zeros(8)
        # nothing left to run: the output layer reads the planted state,
        # as if wo were zero
        silent = replace(m, wo=np.zeros(8))
        assert forward(m, xs[:5], prefix) == forward(silent, xs[:5])
        assert forward(m, xs[:6], prefix) != forward(m, xs[:6])

    def test_prefix_longer_than_the_sequence_is_ignored(self):
        m = ScorerModel.seeded(8, seed=5, scale=0.5)
        xs = np.random.default_rng(5).random((9, 12))
        prefix = Prefix()
        forward(m, xs, prefix)
        assert forward(m, xs[:4], prefix) == forward(m, xs[:4])
        assert prefix.rows == 4

    @pytest.mark.parametrize("hidden", [2, 8, 32])
    def test_blas_rows_do_not_depend_on_the_row_count(self, hidden):
        # the premise of the resume: from 2 rows up, numpy's matrix-matrix
        # product gives a row the same bits in a product of any length. A
        # platform whose BLAS breaks this fails here, not in a verdict diff
        rng = np.random.default_rng(hidden)
        for _ in range(10):
            Wx = rng.uniform(-1, 1, (hidden, 12))
            xs = rng.random((128, 12))
            longest = xs.dot(Wx.T)
            for a in range(2, 128):
                assert np.array_equal(xs[:a].dot(Wx.T), longest[:a]), a


class TestLoss:
    def test_midpoint_is_ln2(self):
        assert loss(0.5, 0) == pytest.approx(math.log(2), abs=1e-15)
        assert loss(0.5, 1) == pytest.approx(math.log(2), abs=1e-15)

    def test_perfect_prediction_tends_to_zero(self):
        assert loss(1.0 - 1e-9, 1) < 1e-6
        assert loss(1e-9, 0) < 1e-6

    def test_wrong_confident_prediction(self):
        assert loss(0.9, 0) == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_clamped_extremes_finite(self):
        assert math.isfinite(loss(0.0, 1))
        assert math.isfinite(loss(1.0, 0))


def finite_difference(model, seq, label, h=1e-5):
    arrays = [model.Wx, model.Wh, model.bh, model.wo]
    fd = [np.zeros_like(a) for a in arrays]
    for arr, out in zip(arrays, fd):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss(forward(model, seq), label)
            arr[idx] = orig - h
            lm = loss(forward(model, seq), label)
            arr[idx] = orig
            out[idx] = (lp - lm) / (2 * h)
    model.bo += h
    lp = loss(forward(model, seq), label)
    model.bo -= 2 * h
    lm = loss(forward(model, seq), label)
    model.bo += h
    return fd + [(lp - lm) / (2 * h)]


def max_rel_err(g, fd):
    pairs = [(g.Wx, fd[0]), (g.Wh, fd[1]), (g.bh, fd[2]), (g.wo, fd[3])]
    worst = 0.0
    for a, b in pairs:
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    denom = max(abs(g.bo), abs(fd[4]), 1e-8)
    return max(worst, abs(g.bo - fd[4]) / denom)


class TestGrad:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(8)
        for trial in range(12):
            m = ScorerModel.seeded(4, seed=100 + trial)
            seq = rng.random((3, 12))
            label = int(trial % 2)
            g, score, ell = grad(m, seq, label)
            assert 0.0 < score < 1.0
            assert ell == pytest.approx(loss(score, label), abs=1e-15)
            assert max_rel_err(g, finite_difference(m, seq, label)) < 1e-4

    def test_single_step_bias_derivative_closed_form(self):
        # with everything zero except wo, one step: score = sigmoid(bo),
        # d loss/d bo = score - label
        m = ScorerModel.zeros(4)
        m.wo = np.full(4, 2.0)
        m.bo = 0.3
        seq = np.zeros((1, 12))
        for label in (0, 1):
            g, score, _ = grad(m, seq, label)
            assert g.bo == pytest.approx(score - label, abs=1e-12)
            # doubling wo leaves h = tanh(0) = 0, so d bo is unchanged
            m2 = ScorerModel.zeros(4)
            m2.wo = np.full(4, 4.0)
            m2.bo = 0.3
            g2, _, _ = grad(m2, seq, label)
            assert g2.bo == pytest.approx(g.bo, abs=1e-12)

    def test_clamped_score_zero_gradient(self):
        m = ScorerModel.zeros(2)
        m.bo = 40.0  # sigmoid saturates past the clamp ceiling
        g, score, ell = grad(m, np.zeros((2, 12)), 1)
        for name in PARAMS:
            assert not np.any(getattr(g, name)), name
        assert math.isfinite(ell)


def toy_dataset(n=100, k=3, seed=0):
    """Separable set: label 1 iff component 1 of every vector > 0.8."""
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        label = i % 2
        seq = rng.random((k, 12)) * 0.6
        if label:
            seq[:, 0] = 0.82 + 0.17 * rng.random(k)
        else:
            seq[:, 0] = rng.random(k) * 0.78
        data.append((seq, label))
    return data


class TestTrain:
    def test_deterministic_given_seed(self):
        data = toy_dataset(40)
        cfg = TrainConfig(lr=0.05, epochs=3, hidden=6, seed=5)
        a = train(data, cfg)
        b = train(data, cfg)
        assert np.array_equal(a.model.Wx, b.model.Wx)
        assert np.array_equal(a.model.Wh, b.model.Wh)
        assert np.array_equal(a.model.bh, b.model.bh)
        assert np.array_equal(a.model.wo, b.model.wo)
        assert a.model.bo == b.model.bo
        assert a.epoch_losses == b.epoch_losses

    def test_single_label_rejected(self):
        data = [(np.zeros((2, 12)), 1)] * 4
        with pytest.raises(DegenerateDataError):
            train(data, TrainConfig(epochs=1))
        with pytest.raises(DegenerateDataError):
            train([], TrainConfig(epochs=1))

    def test_zero_init_epoch0_loss_is_ln2(self):
        data = toy_dataset(60)
        res = train(data, TrainConfig(epochs=1, hidden=4, init_scale=0.0))
        assert res.epoch_losses[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_learns_the_toy_separation(self):
        data = toy_dataset(120, seed=4)
        res = train(data, TrainConfig(lr=0.05, epochs=25, hidden=8, seed=1))
        assert res.epoch_losses[-1] < res.epoch_losses[0]
        correct = sum(
            1 for seq, label in data
            if (forward(res.model, seq) > 0.5) == bool(label)
        )
        assert correct / len(data) >= 0.95


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        m = ScorerModel.seeded(6, seed=77, scale=0.3)
        path = tmp_path / "m.zsd"
        save_model(m, path)
        again = load_model(path)
        assert np.array_equal(m.Wx, again.Wx)
        assert np.array_equal(m.Wh, again.Wh)
        assert np.array_equal(m.bh, again.bh)
        assert np.array_equal(m.wo, again.wo)
        assert m.bo == again.bo
        seq = np.random.default_rng(1).random((5, 12))
        assert forward(m, seq) == forward(again, seq)

    def test_header_format(self, tmp_path):
        m = ScorerModel.seeded(3, seed=1)
        path = tmp_path / "m.zsd"
        save_model(m, path)
        head = path.read_text(encoding="utf-8").splitlines()[0]
        assert head == "ZSDMODEL 1 3 12"

    def test_malformed_files_rejected(self, tmp_path):
        from zsd.scorer import ModelFormatError
        bad = tmp_path / "bad.zsd"
        bad.write_text("WRONG 1 2 3\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(bad)
        bad.write_text("ZSDMODEL 1 4 12\n1 2 3\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(bad)
        # bad numbers: in the header, or one parameter of a valid file
        save_model(ScorerModel.seeded(3, seed=1), bad)
        good = bad.read_text(encoding="utf-8").splitlines()
        for row, text in [(0, "ZSDMODEL x 3 12"), (0, "ZSDMODEL 1 3 12.0"),
                          (0, "ZSDMODEL 1 0 12"), (1, "abc"), (1, "nan"),
                          (4, "inf"), (8, "-inf"), (9, "nan"), (9, "0x1p3")]:
            lines = list(good)
            if row == 0:
                lines[0] = text
            else:
                lines[row] = " ".join(lines[row].split()[:-1] + [text])
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(ModelFormatError):
                load_model(bad)
