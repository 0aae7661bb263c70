from __future__ import annotations

import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit
from scipy.stats import rankdata

from hateagg import (
    AggregationConfig,
    DegenerateDataError,
    DiffusionConfig,
    InputError,
    LearnConfig,
    LogRegModel,
    cross_validate,
    cross_validate_features,
    loss_and_gradient,
    metrics,
    predict_proba,
    stratified_kfold,
    threshold_sweep,
    train_logreg,
)
from hateagg import learn
from hateagg.learn import _average_ranks, _best_f1_threshold, expit

from conftest import make_dataset, random_dataset
from oracles import (
    brute_auc,
    fd_gradient,
    naive_best_f1_threshold,
    naive_train_logreg,
    prf1,
)


def labeled_dataset(rng, folds=5, **kwargs):
    """Redraw until each label class can populate every fold."""
    while True:
        ds = random_dataset(rng, label_fraction=0.9, **kwargs)
        _, y = ds.labeled_indices()
        if len(y) and min(np.sum(y == 1), np.sum(y == 0)) >= folds:
            return ds


def identity_model(weights, bias=0.0):
    w = np.asarray(weights, dtype=np.float64)
    return LogRegModel(
        schema=[f"f{i}" for i in range(len(w))],
        weights=w,
        bias=bias,
        mean=np.zeros(len(w)),
        std=np.ones(len(w)),
    )


class TestLearnConfig:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_l2_lambda_must_be_finite_and_non_negative(self, lam):
        # a NaN penalty makes every Armijo test fail: zero weights after zero steps
        with pytest.raises(InputError, match="l2_lambda"):
            LearnConfig(l2_lambda=lam)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            LearnConfig(seed=-1)


class TestTrainLogreg:
    def test_separable_data_fits_perfectly(self):
        X = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        model = train_logreg(X, y, LearnConfig(l2_lambda=0.01))
        probs = predict_proba(model, X)
        assert np.all((probs >= 0.5).astype(int) == y)

    def test_uninformative_features_predict_base_rate(self):
        X = np.zeros((10, 3))
        y = np.array([0, 1] * 5)
        model = train_logreg(X, y)
        assert np.all(model.weights == 0.0)
        assert model.bias == 0.0
        assert predict_proba(model, np.zeros(3)) == 0.5

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(97)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        model = train_logreg(X, y, LearnConfig(l2_lambda=0.1))
        hist = model.loss_history
        assert len(hist) == model.n_iters + 1
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_single_class_rejected(self):
        X = np.ones((6, 2))
        with pytest.raises(DegenerateDataError):
            train_logreg(X, np.ones(6))
        with pytest.raises(DegenerateDataError):
            train_logreg(X, np.zeros(6))

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(InputError):
            train_logreg(X, np.array([0, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            train_logreg(np.ones((3, 1)), np.array([0, 1]))

    def test_zero_variance_column_keeps_zero_weight(self):
        rng = np.random.default_rng(101)
        X = rng.normal(size=(40, 2))
        X[:, 1] = 7.0
        y = (X[:, 0] > 0).astype(int)
        model = train_logreg(X, y, LearnConfig(l2_lambda=0.05))
        assert model.std[1] == 1.0
        assert model.weights[1] == 0.0

    def test_stronger_penalty_shrinks_weights(self):
        X = np.array([[-1.0]] * 15 + [[1.0]] * 15)
        y = np.array([0] * 15 + [1] * 15)
        loose = train_logreg(X, y, LearnConfig(l2_lambda=0.01))
        tight = train_logreg(X, y, LearnConfig(l2_lambda=10.0))
        assert abs(tight.weights[0]) < abs(loose.weights[0])

    def test_model_dict_is_json_ready(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        d = train_logreg(X, y).to_dict()
        assert set(d) == {
            "schema", "weights", "bias", "standardization",
            "decision_threshold", "n_iters",
        }
        assert isinstance(d["weights"][0], float)


def assert_fit_matches_oracle(X, y, lam):
    model = train_logreg(X, y, LearnConfig(l2_lambda=lam))
    w, b, n_iters, history = naive_train_logreg(X, y, lam)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias == b
    assert model.n_iters == n_iters
    assert model.loss_history == history


class TestTrainMatchesTwoPassLoop:
    """The carried-over trial gives the same fit as re-evaluating the accepted point."""

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=2),
            ),
            min_size=4,
            max_size=12,
        ),
        constant=st.booleans(),
        lam=st.sampled_from([0.0, 0.3, 1.0, 25.0]),
    )
    @example(
        rows=[(0, [0.0, 1.0]), (1, [1.0, 0.0]), (0, [0.5, 0.5]), (1, [2.0, 1.0])],
        constant=True,
        lam=0.0,
    )
    def test_weights_bias_iterations_and_history_equal(self, rows, constant, lam):
        y = np.array([label for label, _ in rows])
        if y.min() == y.max():
            y[0] = 1 - y[0]
        X = np.array([x for _, x in rows])
        if constant:
            X = np.column_stack([X, np.full(len(X), 3.0)])
        # a low step cap keeps separable l2_lambda=0 fits short; the oracle reads it too
        with mock.patch.object(learn, "_MAX_ITERS", 300):
            assert_fit_matches_oracle(X, y, lam)

    def test_separable_unpenalized_fit_runs_to_the_cap_identically(self):
        X = np.array([[-2.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        assert_fit_matches_oracle(X, y, 0.0)


class TestLossAndGradient:
    def test_gradient_at_origin_exact(self):
        # dyadic inputs: resid = (0.5 - y)/n has an exact representation
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.array([0.0, 1.0])
        loss, gw, gb = loss_and_gradient(X, y, np.zeros(2), 0.0, 0.0)
        assert gw.tolist() == [0.25, -0.5]
        assert gb == 0.0
        assert loss == float(np.logaddexp(0.0, 0.0))

    def test_penalty_excludes_bias(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w = np.array([2.0])
        _, _, gb_none = loss_and_gradient(X, y, w, 3.0, 0.0)
        _, _, gb_lam = loss_and_gradient(X, y, w, 3.0, 5.0)
        assert gb_none == gb_lam

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n, d = int(rng.integers(5, 40)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(np.float64)
            w = rng.normal(size=d)
            b = float(rng.normal())
            lam = float(rng.uniform(0, 2))
            _, gw, gb = loss_and_gradient(X, y, w, b, lam)

            def f(vec):
                return loss_and_gradient(X, y, vec[:-1], vec[-1], lam)[0]

            approx = fd_gradient(f, np.concatenate([w, [b]]))
            full = np.concatenate([gw, [gb]])
            denom = np.maximum(np.abs(approx), 1.0)
            assert np.max(np.abs(full - approx) / denom) < 1e-5


class TestPredictProba:
    def test_sigmoid_of_logit(self):
        model = identity_model([1.0])
        assert predict_proba(model, np.array([2.0])) == pytest.approx(
            0.88079707797788231, abs=1e-16
        )

    def test_huge_bias_saturates(self):
        model = identity_model([1.0], bias=50.0)
        p = predict_proba(model, np.array([0.0]))
        assert 1.0 - p < 1e-12

    def test_matrix_input_gives_vector(self):
        model = identity_model([1.0, -1.0])
        out = predict_proba(model, np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert out.shape == (2,)
        assert out[0] == 0.5

    def test_length_mismatch_rejected(self):
        model = identity_model([1.0, 2.0])
        with pytest.raises(InputError):
            predict_proba(model, np.array([1.0]))


def expit_checked(z):
    """``expit(z)`` with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return expit(z)


class TestExpit:
    """``scipy.special.expit`` is the oracle, bit for bit; ``src/`` never imports it."""

    def assert_bits_match(self, z):
        got, want = expit_checked(z), scipy_expit(z)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        got_bits = np.asarray(got).view(np.uint64)
        want_bits = np.asarray(want).view(np.uint64)
        mismatched = np.flatnonzero(got_bits != want_bits)
        assert mismatched.size == 0, np.asarray(z).ravel()[mismatched[:5]]

    def test_normal_draws(self):
        rng = np.random.default_rng(11)
        self.assert_bits_match(rng.normal(0.0, 4.0, 200_000))
        self.assert_bits_match(rng.normal(0.0, 400.0, 200_000))

    def test_signed_zeros_infinities_and_extremes(self):
        self.assert_bits_match(
            np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e308, -1e308, 5e-324])
        )

    def test_band_where_cexp_rescales(self):
        # -z in (709, 709.79]: libm exp is finite there, glibc cexp rescales
        band = np.linspace(709.0, 709.79, 100_001)
        self.assert_bits_match(-band)
        self.assert_bits_match(band)

    def test_overflow_region(self):
        self.assert_bits_match(-np.linspace(709.78, 760.0, 10_001))

    def test_subnormal_results(self):
        z = -np.linspace(708.4, 709.78, 10_001)
        out = expit_checked(z)
        assert np.all((out > 0) & (out < np.finfo(np.float64).tiny))
        self.assert_bits_match(z)

    def test_zero_dimensional_and_scalar_input(self):
        for value in (2.0, -3.5, -709.5, -710.0, 0.0):
            self.assert_bits_match(np.array(value))
            self.assert_bits_match(value)

    def test_nan_in_gives_nan_out(self):
        assert np.isnan(expit_checked(np.nan))
        out = expit_checked(np.array([[np.nan, 1.0], [-709.5, np.nan]]))
        assert np.array_equal(np.isnan(out), [[True, False], [False, True]])
        assert out[0, 1] == scipy_expit(1.0)
        assert out[1, 0] == scipy_expit(-709.5)


class TestStratifiedKfold:
    def test_balanced_classes_split_evenly(self):
        y = np.array([1] * 5 + [0] * 5)
        folds = stratified_kfold(y, 5, seed=0)
        for fold in folds:
            assert len(fold) == 2
            assert int(np.sum(y[fold])) == 1

    def test_minority_class_spread_within_one(self):
        y = np.array([1, 1] + [0] * 8)
        folds = stratified_kfold(y, 5, seed=3)
        pos_counts = [int(np.sum(y[f] == 1)) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1
        neg_counts = [int(np.sum(y[f] == 0)) for f in folds]
        assert max(neg_counts) - min(neg_counts) <= 1

    def test_folds_partition_the_indices(self):
        rng = np.random.default_rng(107)
        y = rng.integers(0, 2, size=37)
        y[:2] = [0, 1]  # both classes present
        folds = stratified_kfold(y, 4, seed=9)
        joined = np.concatenate(folds)
        assert sorted(joined.tolist()) == list(range(37))

    def test_same_seed_reproduces(self):
        y = np.array([0, 1] * 20)
        a = stratified_kfold(y, 5, seed=11)
        b = stratified_kfold(y, 5, seed=11)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))

    def test_fold_indices_sorted(self):
        y = np.array([0, 1] * 15)
        for fold in stratified_kfold(y, 3, seed=2):
            assert np.all(np.diff(fold) > 0)

    def test_invalid_k_rejected(self):
        y = np.array([0, 1, 0, 1])
        with pytest.raises(InputError):
            stratified_kfold(y, 1, seed=0)
        with pytest.raises(InputError):
            stratified_kfold(y, 5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            stratified_kfold([0, 1, 0, 1], 2, -1)


class TestMetrics:
    def test_textbook_auc(self):
        m = metrics([1, 1, 0, 0], [1, 0, 1, 0], [0.9, 0.4, 0.6, 0.1])
        assert m["roc_auc"] == 0.75

    def test_f1_two_thirds(self):
        m = metrics([1, 1, 0], [1, 0, 0], [0.9, 0.4, 0.1])
        assert m["precision"] == 1.0
        assert m["recall"] == 0.5
        assert m["f1"] == pytest.approx(2 / 3, abs=1e-15)

    def test_perfect_predictions(self):
        m = metrics([1, 0, 1, 0], [1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
        assert m == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "roc_auc": 1.0}

    def test_no_predicted_positives(self):
        m = metrics([1, 0], [0, 0], [0.4, 0.6])
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0

    def test_single_class_truth_rejected(self):
        with pytest.raises(DegenerateDataError):
            metrics([1, 1], [1, 1], [0.9, 0.8])
        with pytest.raises(DegenerateDataError):
            metrics([0, 0], [0, 0], [0.1, 0.2])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InputError):
            metrics([1, 0], [1, 0], [np.nan, 0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            metrics([1, 0], [1], [0.5, 0.5])

    def test_auc_equals_pairwise_count_exactly(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            y = rng.integers(0, 2, size=n)
            y[0], y[1] = 0, 1
            # quantized scores force plenty of ties
            s = rng.integers(0, 8, size=n) / 8.0
            pred = (s >= 0.5).astype(int)
            m = metrics(y, pred, s)
            assert m["roc_auc"] == brute_auc(y.tolist(), s.tolist())
            p, r, f1 = prf1(y.tolist(), pred.tolist())
            assert (m["precision"], m["recall"], m["f1"]) == (p, r, f1)


class TestAverageRanks:
    """``scipy.stats.rankdata`` is the oracle; ``src/`` never imports it."""

    @given(
        st.one_of(
            st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=1, max_size=60),
            st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=60),
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=60,
            ),
            st.builds(lambda v, n: [v] * n, st.floats(0.0, 1.0), st.integers(1, 60)),
        )
    )
    @example([0.5])  # length 1
    @example([0.25] * 7)  # all equal
    @example([1.0, 0.0, 1.0, 0.0, 0.0])  # endpoints only
    @example([0.0, -0.0, 0.0])  # signed zeros tie
    def test_matches_rankdata_exactly(self, values):
        x = np.array(values, dtype=np.float64)
        got = _average_ranks(x)
        want = rankdata(x, method="average")
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestBestF1Threshold:
    def test_prefers_perfect_separation(self):
        y = np.array([1, 0])
        scores = np.array([0.8, 0.2])
        assert _best_f1_threshold(y, scores) == 0.8

    def test_smallest_of_tied_thresholds(self):
        # both cutoffs classify identically, so the smaller one wins
        y = np.array([1, 1, 0])
        scores = np.array([0.9, 0.8, 0.1])
        assert _best_f1_threshold(y, scores) == 0.8

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.one_of(
                    st.integers(0, 8).map(lambda k: k / 8),  # heavy ties
                    st.sampled_from([0.0, 1.0]),
                    st.floats(0.0, 1.0),
                ),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_loop_oracle(self, rows):
        y = np.array([label for label, _ in rows])
        scores = np.array([score for _, score in rows])
        assert _best_f1_threshold(y, scores) == naive_best_f1_threshold(y, scores)

    @pytest.mark.parametrize(
        "y, scores",
        [
            ([0, 0, 0, 0], [0.25, 0.5, 0.5, 1.0]),  # all negative
            ([1, 1, 1], [0.0, 0.5, 0.5]),  # all positive
            ([1], [0.3]),
            ([0], [0.0]),
            ([1, 0, 1, 0], [1.0, 1.0, 0.0, 0.0]),  # endpoints only
            ([], []),  # keeps the 0.5 default
        ],
    )
    def test_edge_cases_match_loop_oracle(self, y, scores):
        y, scores = np.array(y), np.array(scores)
        assert _best_f1_threshold(y, scores) == naive_best_f1_threshold(y, scores)

    def test_million_distinct_scores_is_fast(self):
        # rescanning every row per distinct score would take hours here
        rng = np.random.default_rng(7)
        n = 1_000_000
        scores = rng.permutation(n) / n
        y = (rng.random(n) < scores).astype(np.int64)
        start = time.perf_counter()
        thr = _best_f1_threshold(y, scores)
        assert time.perf_counter() - start < 30.0
        assert 0.0 <= thr < 1.0


class TestCrossValidation:
    def make_separable(self, n=40):
        rng = np.random.default_rng(113)
        X = np.concatenate(
            [rng.normal(-2, 0.3, size=(n // 2, 1)), rng.normal(2, 0.3, size=(n // 2, 1))]
        )
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        return X, y

    def test_separable_features_score_high(self):
        X, y = self.make_separable()
        report = cross_validate_features(X, y, LearnConfig(l2_lambda=0.01))
        assert report.mean["f1"] > 0.9
        assert report.mean["roc_auc"] == 1.0
        assert len(report.folds) == 5

    def test_report_is_deterministic(self):
        X, y = self.make_separable()
        config = LearnConfig(l2_lambda=0.05)
        a = cross_validate_features(X, y, config, run_config={"tag": 1})
        b = cross_validate_features(X, y, config, run_config={"tag": 1})
        assert a.to_json() == b.to_json()

    def test_power_of_two_rescaling_is_invisible(self):
        X, y = self.make_separable()
        X2 = X.copy()
        X2[:, 0] *= 4.0  # absorbed exactly by standardization
        a = cross_validate_features(X, y, LearnConfig())
        b = cross_validate_features(X2, y, LearnConfig())
        assert a.folds == b.folds

    def test_too_few_labels_rejected(self):
        X = np.ones((8, 1))
        y = np.array([0, 1] * 4)
        with pytest.raises(DegenerateDataError):
            cross_validate_features(X, y, LearnConfig(folds=5))

    def test_std_key_reports_population_spread(self):
        X, y = self.make_separable()
        report = cross_validate_features(X, y, LearnConfig())
        f1s = [f["f1"] for f in report.folds]
        assert report.std["f1"] == pytest.approx(float(np.std(f1s)), abs=1e-15)

    def test_dataset_mode_fixed_with_selected_threshold(self):
        # counts separate the classes, so swept cutoffs recover them exactly
        scores = {}
        labels = {}
        for i in range(10):
            scores[f"h{i}"] = [0.9] * (8 + i % 3)
            labels[f"h{i}"] = 1
            scores[f"n{i}"] = [0.9] + [0.1] * 9
            labels[f"n{i}"] = 0
        users = list(scores)
        edges = [(users[i], users[(i + 1) % len(users)]) for i in range(len(users))]
        ds = make_dataset(edges, scores=scores, labels=labels)
        report = cross_validate(
            ds, "fixed", config=LearnConfig(select_threshold=True)
        )
        assert report.mean["f1"] == 1.0
        assert report.config["mode"] == "fixed"
        assert report.config["select_threshold"] is True

    def test_dataset_mode_degroot_reports_threshold_selection(self):
        rng = np.random.default_rng(127)
        ds = labeled_dataset(rng, max_users=60, max_posts=10)
        report = cross_validate(ds, "degroot", diffusion=DiffusionConfig())
        assert report.config["threshold_selection"] == "train_fold_f1"
        assert set(report.mean) == set(("precision", "recall", "f1", "roc_auc"))

    def test_degroot_fold_count_checked_before_diffusion(self, monkeypatch):
        ds = make_dataset(
            [("a", "b"), ("b", "c"), ("c", "d")],
            scores={u: [0.5] for u in "abcd"},
            labels={"a": 1, "b": 0, "c": 1, "d": 0},
        )

        def no_diffusion(*args, **kwargs):
            raise AssertionError("degroot_run called before the fold-count check")

        monkeypatch.setattr(learn, "degroot_run", no_diffusion)
        with pytest.raises(DegenerateDataError, match="labeled users"):
            cross_validate(ds, "degroot")

    def test_multimodal_on_random_dataset_runs(self):
        rng = np.random.default_rng(131)
        ds = labeled_dataset(rng, max_users=80, max_posts=12)
        report = cross_validate(ds, "multimodal", AggregationConfig(k_bins=4))
        assert len(report.folds) == 5
        for fold in report.folds:
            for name in ("precision", "recall", "f1", "roc_auc"):
                assert 0.0 <= fold[name] <= 1.0


class TestThresholdSweep:
    def make_counted(self):
        # counts: h users 5 flagged posts, m users 2, n users 0
        scores = {}
        labels = {}
        for i in range(6):
            scores[f"h{i}"] = [0.9] * 5
            labels[f"h{i}"] = 1
        for i in range(6):
            scores[f"m{i}"] = [0.9, 0.9, 0.1]
            labels[f"m{i}"] = 1 if i < 3 else 0
        for i in range(6):
            scores[f"n{i}"] = [0.1] * 4
            labels[f"n{i}"] = 0
        users = list(scores)
        edges = [(users[i], users[(i + 1) % len(users)]) for i in range(len(users))]
        return make_dataset(edges, scores=scores, labels=labels)

    def test_recall_monotone_non_increasing(self):
        ds = self.make_counted()
        rows = threshold_sweep(ds, [1, 2, 3, 5, 6])
        recalls = [r["recall"] for r in rows]
        assert recalls == sorted(recalls, reverse=True)
        assert rows[0]["recall"] == 1.0

    def test_auc_identical_across_rows(self):
        ds = self.make_counted()
        rows = threshold_sweep(ds, [1, 3, 10])
        aucs = {r["roc_auc"] for r in rows}
        assert len(aucs) == 1

    def test_unreachable_threshold_scores_zero(self):
        ds = self.make_counted()
        row = threshold_sweep(ds, [50])[0]
        assert row["precision"] == 0.0
        assert row["recall"] == 0.0
        assert row["f1"] == 0.0

    def test_exact_counts_at_cutoffs(self):
        ds = self.make_counted()
        by_t = {r["threshold"]: r for r in threshold_sweep(ds, [3, 5])}
        # t=3: predicts exactly the six h users; 6 of 9 positives found
        assert by_t[3]["precision"] == 1.0
        assert by_t[3]["recall"] == pytest.approx(6 / 9, abs=1e-15)
        assert by_t[5]["recall"] == pytest.approx(6 / 9, abs=1e-15)

    def test_unsorted_thresholds_rejected(self):
        ds = self.make_counted()
        with pytest.raises(InputError):
            threshold_sweep(ds, [3, 1])

    def test_sub_one_threshold_rejected(self):
        ds = self.make_counted()
        with pytest.raises(InputError):
            threshold_sweep(ds, [0, 1])

    @pytest.mark.parametrize("tau_t", [float("nan"), 7.0, -0.5])
    def test_tau_t_outside_the_unit_interval_rejected(self, tau_t):
        with pytest.raises(InputError) as exc:
            threshold_sweep(self.make_counted(), [1, 3], tau_t=tau_t)
        assert str(exc.value) == f"tau_t must be in [0, 1], got {tau_t}"
