from __future__ import annotations

import numpy as np
import pytest

from hateagg import (
    InputError,
    SynthConfig,
    generate,
    planted_labels,
    threshold_sweep,
    user_ids,
)
from hateagg.synth import _sample_distinct

from oracles import score_dict


def edge_index_pairs(ds):
    # synth ids are already in index order, so edge arrays are index pairs
    src, dst = ds.graph.edge_arrays()
    return {(int(a), int(b)) for a, b in zip(src, dst)}


class TestConfig:
    def test_hateful_count_rounds(self):
        assert SynthConfig(n_users=10, hate_fraction=0.25).n_hateful == 2
        assert SynthConfig(n_users=10, hate_fraction=0.26).n_hateful == 3

    def test_bad_fraction_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=10, hate_fraction=0.0)
        with pytest.raises(InputError):
            SynthConfig(n_users=10, hate_fraction=1.0)
        with pytest.raises(InputError):
            SynthConfig(n_users=100, hate_fraction=0.001)  # rounds to zero

    def test_bad_probabilities_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=10, p_in=1.5)
        with pytest.raises(InputError):
            SynthConfig(n_users=10, p_out=-0.1)

    def test_bad_posts_range_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=10, posts_per_user=(5, 3))
        with pytest.raises(InputError):
            SynthConfig(n_users=10, posts_per_user=(-1, 3))

    def test_bad_beta_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=10, score_dist_hate=(0.0, 2.0))
        with pytest.raises(InputError):
            SynthConfig(n_users=10, score_dist_normal=(2.0, -1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, bad):
        # NaN parameters draw NaN scores, which no score file accepts
        with pytest.raises(InputError, match="Beta"):
            SynthConfig(n_users=10, score_dist_hate=(bad, 2.0))
        with pytest.raises(InputError, match="Beta"):
            SynthConfig(n_users=10, score_dist_normal=(2.0, bad))

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            SynthConfig(n_users=10, seed=-1)

    def test_bad_ambiguity_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=10, ambiguity=1.2)

    def test_bad_n_labeled_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=10, n_labeled=0)
        with pytest.raises(InputError):
            SynthConfig(n_users=10, n_labeled=11)

    def test_tiny_population_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(n_users=1)

    def test_dict_round_trips_through_constructor(self):
        config = SynthConfig(n_users=50, seed=7, ambiguity=0.3)
        d = config.to_dict()
        rebuilt = SynthConfig(
            **{
                **d,
                "posts_per_user": tuple(d["posts_per_user"]),
                "score_dist_hate": tuple(d["score_dist_hate"]),
                "score_dist_normal": tuple(d["score_dist_normal"]),
            }
        )
        assert rebuilt == config


class TestIds:
    def test_width_and_order(self):
        ids = user_ids(12)
        assert ids[0] == "u0000000"
        assert ids[11] == "u0000011"
        assert sorted(ids) == ids

    def test_width_constant_within_padding_regime(self):
        # seven digits cover any population below ten million
        ids = user_ids(1000)
        assert {len(i) for i in ids} == {8}
        assert ids[-1] == "u0000999"


class TestPlantedLabels:
    def test_first_block_is_hateful(self):
        y = planted_labels(SynthConfig(n_users=8, hate_fraction=0.25))
        assert y.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]


class TestSampleDistinct:
    def test_distinct_and_in_range(self):
        rng = np.random.default_rng(137)
        for total, count in ((10, 3), (1000, 999), (50, 50), (7, 12)):
            got = _sample_distinct(rng, total, count)
            assert len(got) == min(count, total)
            assert len(np.unique(got)) == len(got)
            assert np.all((got >= 0) & (got < total))

    def test_deterministic_for_fixed_stream(self):
        a = _sample_distinct(np.random.default_rng(5), 100, 20)
        b = _sample_distinct(np.random.default_rng(5), 100, 20)
        assert np.array_equal(a, b)


class TestGenerate:
    def small(self, **kw):
        base = dict(n_users=60, hate_fraction=0.5, p_in=0.2, p_out=0.02, seed=1)
        base.update(kw)
        return SynthConfig(**base)

    def test_same_config_is_byte_identical(self):
        config = self.small()
        a, b = generate(config), generate(config)
        assert a.graph.ids == b.graph.ids
        sa, da = a.graph.edge_arrays()
        sb, db = b.graph.edge_arrays()
        assert np.array_equal(sa, sb) and np.array_equal(da, db)
        assert np.array_equal(a.scores.offsets, b.scores.offsets)
        assert np.array_equal(a.scores.values.view(np.uint64), b.scores.values.view(np.uint64))
        assert a.labels.dtype == np.int8
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_changes_graph(self):
        a = generate(self.small(seed=1))
        b = generate(self.small(seed=2))
        assert edge_index_pairs(a) != edge_index_pairs(b)

    def test_no_self_loops_or_duplicates(self):
        ds = generate(self.small())
        src, dst = ds.graph.edge_arrays()
        assert np.all(src != dst)
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_intra_block_edge_count_near_expectation(self):
        config = SynthConfig(
            n_users=100, hate_fraction=0.5, p_in=0.1, p_out=0.01, seed=0
        )
        ds = generate(config)
        pairs = edge_index_pairs(ds)
        m = config.n_hateful
        intra = sum(1 for a, b in pairs if (a < m) == (b < m))
        total_pairs = 2 * m * (m - 1)
        mean = total_pairs * config.p_in
        sigma = (total_pairs * config.p_in * (1 - config.p_in)) ** 0.5
        assert abs(intra - mean) <= 4 * sigma

    def test_cross_block_sparser_than_intra(self):
        ds = generate(self.small(n_users=200))
        pairs = edge_index_pairs(ds)
        m = 100
        intra = sum(1 for a, b in pairs if (a < m) == (b < m))
        cross = len(pairs) - intra
        assert cross < intra

    def test_post_counts_in_configured_range(self):
        config = self.small(posts_per_user=(3, 9))
        ds = generate(config)
        counts = np.diff(ds.scores.offsets)
        assert min(counts) >= 3
        assert max(counts) <= 9

    def test_scores_in_unit_interval(self):
        ds = generate(self.small())
        s = ds.scores.values
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_unambiguous_posts_follow_beta_tails(self):
        # with no coded language, flag rates equal the Beta tail masses
        config = self.small(n_users=100, ambiguity=0.0, posts_per_user=(40, 50))
        ds = generate(config)
        truth = planted_labels(config)
        user_scores = score_dict(ds.scores)
        ids = ds.graph.ids
        hate_scores = np.concatenate(
            [user_scores[ids[i]] for i in range(100) if truth[i] == 1]
        )
        norm_scores = np.concatenate(
            [user_scores[ids[i]] for i in range(100) if truth[i] == 0]
        )
        # Beta(8, 2) mass above 0.5 and Beta(2, 8) mass above 0.5
        assert abs(np.mean(hate_scores >= 0.5) - 0.98046875) < 0.02
        assert abs(np.mean(norm_scores >= 0.5) - 0.01953125) < 0.02

    def test_ambiguity_lowers_flag_rate(self):
        ids = None
        rates = []
        for amb in (0.0, 0.5, 1.0):
            config = self.small(n_users=100, ambiguity=amb, posts_per_user=(40, 50))
            ds = generate(config)
            truth = planted_labels(config)
            user_scores = score_dict(ds.scores)
            ids = ds.graph.ids
            hate_scores = np.concatenate(
                [user_scores[ids[i]] for i in range(100) if truth[i] == 1]
            )
            rates.append(float(np.mean(hate_scores >= 0.5)))
        assert rates[0] > rates[1] > rates[2]
        assert rates[2] < 0.1

    def test_full_labeling_by_default(self):
        ds = generate(self.small())
        assert ds.labels.tolist() == planted_labels(self.small()).tolist()
        assert ds.discard_summary["labeled_users"] == 60
        assert ds.discard_summary["scored_users"] == 60

    def test_labeled_subsample(self):
        config = self.small(n_users=80, n_labeled=20)
        ds = generate(config)
        node_idx, y = ds.labeled_indices()
        assert len(node_idx) == 20
        # labels reproduce the planted truth on the subsample, in node order
        assert ds.graph.ids == user_ids(80)
        assert y.tolist() == planted_labels(config)[node_idx].tolist()

    def test_scores_only_labeled_leaves_rest_unscored(self):
        config = self.small(n_users=80, n_labeled=15, scores_only_labeled=True)
        ds = generate(config)
        user_scores = score_dict(ds.scores)
        for uid, label in zip(ds.graph.ids, ds.labels.tolist()):
            if label >= 0:
                assert len(user_scores[uid]) > 0
            else:
                assert len(user_scores[uid]) == 0
        assert ds.discard_summary["scored_users"] == 15

    def test_clean_regime_is_sweepable_to_high_f1(self):
        # ambiguity off: hateful users flag ~98% of posts, a count cutoff
        # should separate the blocks almost perfectly
        config = SynthConfig(
            n_users=400,
            hate_fraction=0.25,
            p_in=0.05,
            p_out=0.005,
            ambiguity=0.0,
            seed=0,
        )
        ds = generate(config)
        rows = threshold_sweep(ds, [1, 3, 10, 50, 100])
        best = max(row["f1"] for row in rows)
        assert best >= 0.95
