import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank import logistic
from influxrank.features import balance_and_normalize, build_instances
from influxrank.logistic import (
    LogisticModel,
    TrainingError,
    cross_validate,
    grouped_counts,
    grouped_log_loss_gradient,
    log_loss,
    rank_features,
    response_probability,
    train,
)

from oracles import cross_validate_per_row, log_loss_gradient, planted_instances


def repeated_rows(n_rows=15, n=400, seed=0):
    """(rows, row_of, y): n instances over n_rows distinct random rows,
    some of them unused, with random 0/1 labels."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_rows, 5))
    row_of = rng.integers(0, n_rows - 2, size=n)
    return rows, row_of, (rng.random(n) < 0.4).astype(float)


class TestResponseProbability:
    def test_zero_score_is_half(self):
        p = response_probability(0.0, np.zeros(3), np.zeros(3))
        assert p[0] == pytest.approx(0.5)

    def test_sign_is_inverted(self):
        # a larger linear score must LOWER the probability
        w = np.array([1.0])
        low = response_probability(0.0, w, np.array([3.0]))[0]
        high = response_probability(0.0, w, np.array([-3.0]))[0]
        assert low < 0.5 < high
        assert low == pytest.approx(1 / (1 + math.exp(3.0)))

    def test_extreme_scores_do_not_overflow(self):
        p = response_probability(1e9, np.array([1e9]), np.array([[1.0], [-1e3]]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(-5, 5),
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_a_probability(self, w0, w, x):
        p = response_probability(w0, np.asarray(w), np.asarray(x))
        assert 0.0 <= p[0] <= 1.0


class TestLossAndGradient:
    def test_log_loss_hand_value(self):
        # p = 0.5 for every instance -> loss = ln 2
        x = np.zeros((4, 2))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert log_loss(0.0, np.zeros(2), x, y) == pytest.approx(math.log(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        y = (rng.random(40) < 0.4).astype(float)
        w0 = 0.3
        w = rng.normal(size=5)
        g0, g = log_loss_gradient(w0, w, x, y)
        eps = 1e-6
        num0 = (log_loss(w0 + eps, w, x, y) - log_loss(w0 - eps, w, x, y)) / (2 * eps)
        assert g0 == pytest.approx(num0, abs=1e-6)
        for j in range(5):
            dw = np.zeros(5)
            dw[j] = eps
            num = (log_loss(w0, w + dw, x, y) - log_loss(w0, w - dw, x, y)) / (2 * eps)
            assert g[j] == pytest.approx(num, abs=1e-6)


    def test_grouped_gradient_and_loss_equal_per_row(self):
        rows, row_of, y = repeated_rows()
        counts, positives = grouped_counts(row_of, y, len(rows))
        rng = np.random.default_rng(8)
        for _ in range(5):
            w0, w = rng.normal(), rng.normal(size=5)
            g0, g = grouped_log_loss_gradient(w0, w, rows, positives, counts)
            want0, want = log_loss_gradient(w0, w, rows[row_of], y)
            np.testing.assert_allclose(g0, want0, rtol=1e-12, atol=0)
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)
            assert log_loss(w0, w, rows, positives, counts) == pytest.approx(
                log_loss(w0, w, rows[row_of], y), rel=1e-12)


class TestTrain:
    def test_separable_data_is_fit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 2))
        # consistent with the inverted sign: negative score -> label 1
        y = (x @ np.array([1.0, -2.0]) < 0.0).astype(float)
        model = train(x, y, learning_rate=0.5, epochs=400)
        pred = (model.predict(x) >= 0.5).astype(float)
        assert (pred == y).mean() > 0.95
        assert model.metadata["final_loss"] < math.log(2)

    def test_loss_decreases_over_training(self):
        x, y, _, _ = planted_instances(2000, seed=4)
        short = train(x, y, epochs=5)
        long = train(x, y, epochs=100)
        assert long.metadata["final_loss"] < short.metadata["final_loss"]

    def test_divergence_raises(self):
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        with pytest.raises(TrainingError, match="non-finite"):
            train(x, y, learning_rate=float("inf"), epochs=3)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            train(np.ones((2, 1)), np.array([0.5, 1.0]))

    def test_grouped_fit_equals_per_row_fit(self):
        rows, row_of, y = repeated_rows(seed=2)
        counts, positives = grouped_counts(row_of, y, len(rows))
        grouped = train(rows, positives, learning_rate=0.5, epochs=300, counts=counts)
        per_row = train(rows[row_of], y, learning_rate=0.5, epochs=300)
        assert grouped.w0 == pytest.approx(per_row.w0, rel=1e-10)
        np.testing.assert_allclose(grouped.w, per_row.w, rtol=1e-10)
        assert grouped.metadata["final_loss"] == pytest.approx(
            per_row.metadata["final_loss"], rel=1e-12)

    @pytest.mark.parametrize("positives, counts", [([2.0, 0.0], [1.0, 1.0]),
                                                   ([-1.0, 0.0], [1.0, 1.0]),
                                                   ([1.0], [1.0, 1.0]),
                                                   ([0.5, 0.0], [1.0, 1.0]),
                                                   ([1.0, 0.0], [1.5, 1.0])])
    def test_bad_grouped_counts_rejected(self, positives, counts):
        with pytest.raises(ValueError, match="counts"):
            train(np.ones((2, 1)), np.array(positives), counts=np.array(counts))

    def test_deterministic(self):
        x, y, _, _ = planted_instances(500, seed=9)
        a = train(x, y, epochs=50)
        b = train(x, y, epochs=50)
        assert a.w0 == b.w0
        assert np.array_equal(a.w, b.w)


class TestModelObject:
    def test_save_load_roundtrip(self, tmp_path, small_model):
        path = tmp_path / "model.json"
        small_model.save(path)
        again = LogisticModel.load(path)
        assert again.w0 == small_model.w0
        assert np.array_equal(again.w, small_model.w)
        assert np.array_equal(again.scaler.mins, small_model.scaler.mins)
        x = np.random.default_rng(0).random((5, len(again.w)))
        assert np.allclose(again.predict(x), small_model.predict(x))

    def test_dimension_mismatch(self, small_model):
        with pytest.raises(ValueError, match="dimension"):
            small_model.predict(np.zeros(3))


class TestCrossValidate:
    def test_accuracy_on_planted_data(self):
        x, y, _, bayes = planted_instances(4000, seed=6)
        accs, mean = cross_validate(x, y, folds=4, seed=0, learning_rate=0.5,
                                    epochs=300)
        assert len(accs) == 4
        assert mean == pytest.approx(float(np.mean(accs)))
        assert mean > 0.5 + 0.05  # clearly better than chance
        assert mean <= bayes + 0.05

    def test_permutation_invariant_with_keys(self):
        x, y, _, _ = planted_instances(600, seed=2)
        keys = [f"k{i:05d}" for i in range(len(y))]
        perm = np.random.default_rng(5).permutation(len(y))
        accs_a, mean_a = cross_validate(x, y, folds=3, seed=1, epochs=60, keys=keys)
        accs_b, mean_b = cross_validate(
            x[perm], y[perm], folds=3, seed=1, epochs=60,
            keys=[keys[i] for i in perm],
        )
        assert accs_a == accs_b
        assert mean_a == mean_b

    def test_too_few_folds(self):
        with pytest.raises(ValueError, match="folds"):
            cross_validate(np.ones((4, 1)), np.array([0.0, 1, 0, 1]), folds=1)

    def test_fold_without_both_classes(self):
        x = np.ones((6, 1))
        y = np.array([1.0, 0, 0, 0, 0, 0])  # one positive cannot cover 2 folds
        with pytest.raises(ValueError, match="lacks both classes"):
            cross_validate(x, y, folds=2, seed=0)


    def test_bad_fold_fails_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(logistic, "train", lambda *a, **k: fits.append(a))
        x = np.ones((9, 1))
        # two positives fill the test splits of folds 0 and 1, not of fold 2
        y = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="fold 2: test split lacks both classes"):
            cross_validate(x, y, folds=3, seed=0)
        assert fits == []

    def test_grouped_equals_per_row_on_small_synth(self, small_synth):
        dataset, _ = small_synth
        balanced, _ = balance_and_normalize(build_instances(dataset), seed=2)
        y = balanced.labels.astype(float)
        per_row = cross_validate_per_row(balanced.features, y, folds=5, seed=3, epochs=200,
                                         keys=balanced.keys)
        grouped = cross_validate(balanced.rows, y, folds=5, seed=3, epochs=200,
                                 keys=balanced.keys, row_of=balanced.row_of)
        assert len(balanced.rows) < len(balanced)
        assert grouped == per_row


def test_rank_features_orders_by_magnitude():
    model = LogisticModel(w0=0.0, w=np.array([0.5, -2.0, 2.0, 0.0]))
    ranked = rank_features(model, names=("a", "b", "c", "d"))
    assert [n for n, _ in ranked] == ["b", "c", "a", "d"]
    assert ranked[0][1] == -2.0
