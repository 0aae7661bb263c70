from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hateagg import AggregationConfig, InputError, build_features
from hateagg.features import per_node_counts

from conftest import make_dataset, random_dataset
from oracles import (
    naive_bin_histogram,
    naive_feature_matrix,
    naive_fixed_count,
    naive_softmax,
    score_dict,
)

pytestmark = []


def user_row(scores, mode, **config):
    """The feature row of a single isolated user with the given post scores."""
    ds = make_dataset([], scores={"u": scores})
    return build_features(ds, mode, AggregationConfig(**config)).values[0]


def count_row(scores, mode, k):
    """Raw histogram counts (no softmax) of a single user's scores."""
    return list(user_row(scores, mode, k_bins=k, softmax_histograms=False))


def hate_post_count(scores, tau_t):
    return user_row(scores, "fixed", tau_t=tau_t)[0]


def count_rule_flag(scores, tau_t, tau_fixed):
    # cf_self, the first relational column: the naive per-user classification
    return user_row(scores, "relational", tau_t=tau_t, tau_fixed=tau_fixed)[0]


class TestFixedCount:
    def test_direct_count(self):
        assert hate_post_count([0.9, 0.3, 0.6], 0.5) == 2

    def test_boundary_inclusive(self):
        assert hate_post_count([0.5], 0.5) == 1

    def test_zero_posts(self):
        assert hate_post_count([], 0.5) == 0

    @given(
        st.lists(st.floats(min_value=0, max_value=1), max_size=30),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_threshold(self, scores, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert hate_post_count(scores, lo) >= hate_post_count(scores, hi)


class TestFixedClassify:
    def test_zero_tolerance(self):
        assert count_rule_flag([0.9, 0.8], 0.5, 1) == 1

    def test_below_threshold(self):
        assert count_rule_flag([0.9, 0.8], 0.5, 3) == 0

    def test_zero_count_never_flagged(self):
        assert count_rule_flag([], 0.5, 1) == 0


class TestRelationalFeatures:
    def make(self):
        # u's followers: f1..f4 (two flagged), u's followees: g1, g2 (none)
        edges = [(f, "u") for f in ("f1", "f2", "f3", "f4")]
        edges += [("u", "g1"), ("u", "g2")]
        scores = {
            "u": [0.9, 0.9, 0.9],
            "f1": [0.9] * 3,
            "f2": [0.1],
            "f3": [0.9] * 3,
            "f4": [0.1],
            "g1": [0.1],
            "g2": [0.1],
        }
        return make_dataset(edges, scores=scores)

    def test_direct_means(self):
        ds = self.make()
        fm = build_features(ds, "relational", AggregationConfig(tau_fixed=3))
        assert list(fm.values[ds.graph.ids.index("u")]) == [1.0, 0.5, 0.0]

    def test_isolated_user_all_zero(self):
        assert list(user_row([0.1], "relational")) == [0.0, 0.0, 0.0]

    def test_reported_weights_combination(self):
        # linear score alpha*1 + beta*0.5 + gamma*0 for the published weights
        feats = np.array([1.0, 0.5, 0.0])
        weights = np.array([0.608, 0.776, 1.467])
        assert abs(float(feats @ weights) - 0.996) < 1e-12


class TestBinHistogram:
    def test_equal_width_placement(self):
        # both low scores land in [0, 0.2): bins are [i/5, (i+1)/5)
        assert count_row([0.05, 0.15, 0.95], "bins", 5) == [2, 0, 0, 0, 1]

    def test_score_one_goes_to_last_bin(self):
        assert count_row([1.0], "bins", 5) == [0, 0, 0, 0, 1]

    def test_half_open_boundary(self):
        assert count_row([0.49, 0.5], "bins", 2) == [1, 1]

    @given(st.lists(st.floats(min_value=0, max_value=1), max_size=40),
           st.integers(min_value=2, max_value=12))
    def test_counts_sum_to_posts(self, scores, k):
        assert sum(count_row(scores, "bins", k)) == len(scores)


class TestQuantileHistogram:
    def test_per_user_range(self):
        # bins over [0.1, 0.3]; 0.2 sits exactly on the midpoint boundary
        assert count_row([0.1, 0.2, 0.3], "quantiles", 2) == [1, 2]

    def test_degenerate_range_fills_first_bin(self):
        assert count_row([0.5, 0.5], "quantiles", 4) == [2, 0, 0, 0]

    def test_full_range(self):
        assert count_row([0.0, 1.0], "quantiles", 2) == [1, 1]

    def test_zero_posts_all_zero(self):
        assert count_row([], "quantiles", 3) == [0, 0, 0]

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
           st.integers(min_value=2, max_value=12))
    def test_counts_sum_to_posts(self, scores, k):
        assert sum(count_row(scores, "quantiles", k)) == len(scores)


class TestSoftmax:
    """The softmax that normalizes a histogram block, seen through ``bins`` rows."""

    def test_uniform_on_constant_input(self):
        # one post per bin: the counts [1, 1, 1] are constant
        got = user_row([0.1, 0.5, 0.9], "bins", k_bins=3)
        assert np.allclose(got, [1 / 3] * 3, atol=1e-15)

    def test_hand_computed_value(self):
        # counts [2, 0, 0]
        got = user_row([0.1, 0.2], "bins", k_bins=3)
        want = [
            0.78698604216159877,
            0.10650697891920076,
            0.10650697891920076,
        ]
        assert np.allclose(got, want, atol=1e-15)

    def test_large_values_do_not_overflow(self):
        # counts [1000, 0]: exp(1000) alone would overflow
        got = user_row([0.1] * 1000, "bins", k_bins=2)
        assert np.all(np.isfinite(got))
        assert abs(got[0] - 1.0) < 1e-12
        assert got[1] < 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=60),
           st.integers(min_value=2, max_value=12))
    def test_simplex_output(self, scores, k):
        got = user_row(scores, "bins", k_bins=k)
        assert abs(float(got.sum()) - 1.0) < 1e-9
        assert np.all(got >= 0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(2, 15))
            # skewed scores pile up counts, so the exponents spread widely
            scores = list(rng.random(int(rng.integers(1, 80))) ** 3)
            want = naive_softmax(
                [float(c) for c in naive_bin_histogram(scores, k)]
            )
            assert np.allclose(user_row(scores, "bins", k_bins=k), want, atol=1e-13)


class TestBuildFeatures:
    def test_fixed_single_column(self):
        ds = make_dataset([], scores={"u": [0.9] * 7})
        fm = build_features(ds, "fixed")
        assert fm.schema == ["hate_post_count"]
        assert fm.values.tolist() == [[7.0]]

    def test_multimodal_schema_length(self):
        ds = make_dataset([("a", "b")], scores={"a": [0.5], "b": [0.1]})
        fm = build_features(ds, "multimodal", AggregationConfig(k_bins=10))
        assert len(fm.schema) == 23
        assert fm.values.shape == (2, 23)

    def test_bins_row_is_softmaxed_histogram(self):
        ds = make_dataset([], scores={"u": [0.05, 0.25, 0.95]})
        fm = build_features(ds, "bins", AggregationConfig(k_bins=5))
        want = naive_softmax([1.0, 1.0, 0.0, 0.0, 1.0])
        assert np.allclose(fm.values[0], want, atol=1e-15)
        assert abs(fm.values[0][0] - 0.26768322889534268) < 1e-12

    def test_softmax_blocks_sum_to_one(self):
        rng = np.random.default_rng(47)
        ds = random_dataset(rng, max_users=60, max_posts=20)
        fm = build_features(ds, "multimodal", AggregationConfig(k_bins=6))
        posts = np.diff(ds.scores.offsets)
        with_posts = posts > 0
        bins_block = fm.values[with_posts, 3:9]
        quant_block = fm.values[with_posts, 9:15]
        assert np.allclose(bins_block.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(quant_block.sum(axis=1), 1.0, atol=1e-9)
        # zero-post users keep all-zero histogram blocks
        assert np.all(fm.values[~with_posts, 3:] == 0.0)

    def test_raw_mode_histograms_sum_to_post_count(self):
        rng = np.random.default_rng(53)
        ds = random_dataset(rng, max_users=50, max_posts=15)
        config = AggregationConfig(k_bins=4, softmax_histograms=False)
        fm = build_features(ds, "bins+quantiles", config)
        posts = np.diff(ds.scores.offsets)
        assert np.allclose(fm.values[:, :4].sum(axis=1), posts)
        assert np.allclose(fm.values[:, 4:].sum(axis=1), posts)

    def test_unknown_mode_rejected(self):
        ds = make_dataset([], scores={"u": [0.5]})
        with pytest.raises(InputError):
            build_features(ds, "sideways")

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(59)
        config = AggregationConfig(tau_t=0.5, tau_fixed=2, k_bins=5)
        for _ in range(6):
            ds = random_dataset(rng, max_users=80, max_posts=25)
            for mode in ("fixed", "relational", "bins", "quantiles", "multimodal"):
                fm = build_features(ds, mode, config)
                want = naive_feature_matrix(ds, mode, config)
                assert np.max(np.abs(fm.values - want)) < 1e-12

    def test_row_order_follows_node_index(self):
        ds = make_dataset(
            [("z", "m"), ("m", "a")],
            scores={"z": [0.9], "m": [0.1], "a": [0.5]},
        )
        fm = build_features(ds, "fixed")
        assert fm.user_ids == ds.graph.ids


class TestPerNodeCounts:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(67)
        ds = random_dataset(rng, max_users=40, max_posts=12)
        counts, posts = per_node_counts(ds, 0.5)
        user_scores = score_dict(ds.scores)
        for i, uid in enumerate(ds.graph.ids):
            assert counts[i] == naive_fixed_count(user_scores[uid], 0.5)
            assert posts[i] == len(user_scores[uid])


class TestRankingInvariance:
    def test_relational_scaling_cancels_with_inverse_weights(self):
        rng = np.random.default_rng(71)
        ds = random_dataset(rng, max_users=60, max_posts=20)
        fm = build_features(ds, "relational", AggregationConfig())
        weights = rng.normal(size=3)
        c = 16.0  # power of two keeps the scaling bit-exact
        base = fm.values @ weights
        scaled = (fm.values * c) @ (weights / c)
        assert list(np.argsort(base, kind="stable")) == list(
            np.argsort(scaled, kind="stable")
        )
