from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hateagg import (
    AggregationConfig,
    DiffusionConfig,
    InputError,
    build_graph,
    degroot_classify,
    degroot_init,
    degroot_run,
    degroot_step,
)
import hateagg.degroot as degroot_module
import hateagg.graph as graph_module
from hateagg.graph import KeyTable, SocialGraph

from conftest import make_dataset, random_dataset
from oracles import dense_degroot_step, gather_degroot_step


# rows that keep a layout column; a star with more leaves reaches the long rows
MIN_ROWS = graph_module._MIN_COLUMN_ROWS


def two_node_graph():
    return build_graph([("a", "b"), ("b", "a")])


def beliefs(values):
    return np.asarray(values, dtype=np.float64)


class TestInit:
    def test_fraction_of_flagged_posts(self):
        ds = make_dataset(
            [("a", "b")], scores={"a": [0.9, 0.2], "b": [0.1, 0.1]}
        )
        b = degroot_init(ds, config=DiffusionConfig(init="fraction"))
        by_id = dict(zip(ds.graph.ids, b.tolist()))
        assert by_id == {"a": 0.5, "b": 0.0}

    def test_zero_post_user_starts_at_zero(self):
        ds = make_dataset([("a", "b")], scores={"a": [0.9]})
        b = degroot_init(ds, config=DiffusionConfig(init="fraction"))
        assert b[ds.graph.ids.index("b")] == 0.0

    def test_binary_init_uses_fixed_rule(self):
        ds = make_dataset(
            [("a", "b")], scores={"a": [0.9, 0.9, 0.9], "b": [0.9]}
        )
        b = degroot_init(ds, AggregationConfig(tau_fixed=3), DiffusionConfig(init="binary"))
        by_id = dict(zip(ds.graph.ids, b.tolist()))
        assert by_id == {"a": 1.0, "b": 0.0}

    def test_unknown_init_rejected(self):
        with pytest.raises(InputError):
            DiffusionConfig(init="antigravity")

    def test_iteration_counter_starts_at_zero(self):
        # the step count is the log length: init has taken no step, so the
        # first logged step is iteration 1
        ds = make_dataset([("a", "b")], scores={"a": [0.9], "b": [0.1]})
        config = DiffusionConfig(max_iters=3, tol=1e-300)
        _, log = degroot_run(ds.graph, degroot_init(ds, config=config), config)
        assert [rec["iteration"] for rec in log] == [1, 2, 3]


def index_graph(n, pairs):
    """Graph on nodes n0..n{n-1} from (src, dst) index pairs."""
    return SocialGraph(
        [f"n{i}" for i in range(n)],
        np.array([a for a, _ in pairs], dtype=np.int64),
        np.array([b for _, b in pairs], dtype=np.int64),
    )


def two_stars(leaves, hubs):
    """Node 0 follows each leaf ("out" in ``hubs``) and each leaf follows node 1 ("in")."""
    pairs = []
    if "out" in hubs:
        pairs += [(0, leaf) for leaf in range(2, leaves + 2)]
    if "in" in hubs:
        pairs += [(leaf, 1) for leaf in range(2, leaves + 2)]
    return pairs


@st.composite
def hub_graphs(draw):
    """Stars with more than MIN_ROWS leaves, random extra edges and isolated nodes.

    A star gives each leaf an entry, so the leaves fill a column of the views
    that hold that entry, while the hubs and the leaves with extra edges are
    long rows.
    """
    leaves = MIN_ROWS + draw(st.integers(1, 50))
    n = 2 + leaves + draw(st.integers(0, 3))
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=200))
    hubs = draw(st.sampled_from([("out",), ("in",), ("out", "in")]))
    return index_graph(n, two_stars(leaves, hubs) + [(a, b) for a, b in extra if a != b])


def signed_beliefs(rng, n):
    """Beliefs over many magnitudes and both signs, with some -0.0."""
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    vals[rng.random(n) < 0.2] = -0.0
    return vals


class TestStep:
    def test_mutual_pair_averages(self):
        g = two_node_graph()
        nxt = degroot_step(g, beliefs([1.0, 0.0]))
        assert nxt.tolist() == [0.5, 0.5]

    def test_constant_vector_is_fixed_point(self):
        rng = np.random.default_rng(73)
        ds = random_dataset(rng, max_users=60, max_posts=5, edge_prob=0.08)
        vals = np.full(ds.graph.node_count, 0.31)
        for direction in ("out", "in", "undirected"):
            nxt = degroot_step(ds.graph, beliefs(vals), direction)
            assert np.array_equal(nxt, vals)

    def test_isolated_node_keeps_belief(self):
        g = SocialGraph(KeyTable.of(["a", "b", "z"]), np.array([0]), np.array([1]))
        vals = np.zeros(3)
        vals[g.ids.index("z")] = 0.7
        nxt = degroot_step(g, beliefs(vals))
        assert nxt[g.ids.index("z")] == 0.7

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(79)
        for _ in range(8):
            ds = random_dataset(rng, max_users=100, max_posts=3, edge_prob=0.05)
            g = ds.graph
            vals = rng.random(g.node_count)
            src, dst = g.edge_arrays()
            idx_edges = list(zip(src.tolist(), dst.tolist()))
            for direction in ("out", "in", "undirected"):
                want = dense_degroot_step(g.node_count, idx_edges, vals, direction)
                got = degroot_step(g, beliefs(vals), direction)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_direction_uses_requested_neighborhood(self):
        # a -> b: under "out" a averages with b while b only sees itself
        g = build_graph([("a", "b")])
        a, b = g.ids.index("a"), g.ids.index("b")
        vals = np.zeros(2)
        vals[a] = 1.0
        out_step = degroot_step(g, beliefs(vals), "out")
        in_step = degroot_step(g, beliefs(vals), "in")
        assert out_step[a] == 0.5 and out_step[b] == 0.0
        assert in_step[a] == 1.0 and in_step[b] == 0.5

    def test_length_mismatch_rejected(self):
        g = two_node_graph()
        with pytest.raises(InputError):
            degroot_step(g, beliefs([1.0, 0.0, 0.0]))

    @given(n=st.integers(1, 30), min_rows=st.sampled_from([1, 2, 3, 5, MIN_ROWS]), data=st.data())
    def test_bit_identical_to_gather_form(self, n, min_rows, data):
        # a small column threshold splits these small graphs into columns
        # and long rows at every point
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=90))
        pairs = [(a, b) for a, b in pairs if a != b]
        with mock.patch.object(graph_module, "_MIN_COLUMN_ROWS", min_rows):
            g = index_graph(n, pairs)
            for direction in ("out", "in", "undirected"):
                g.step_layout(direction)
        unit = st.floats(0.0, 1.0)
        wide = st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)
        vals = np.array(
            data.draw(st.lists(st.one_of(unit, wide), min_size=n, max_size=n)),
            dtype=np.float64,
        )
        for direction in ("out", "in", "undirected"):
            for _ in range(2):  # the second step runs on the cached layout
                got = degroot_step(g, beliefs(vals), direction)
                want = gather_degroot_step(g, vals, direction)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=15)
    @given(hub_graphs(), st.integers(0, 2**32 - 1))
    def test_hub_bit_identical_to_gather_form(self, g, seed):
        vals = signed_beliefs(np.random.default_rng(seed), g.node_count)
        for direction in ("out", "in", "undirected"):
            layout = g.step_layout(direction)
            # columns end while MIN_ROWS rows are active, however long the hub
            assert len(layout.columns) * MIN_ROWS <= len(layout.gather)
            got = degroot_step(g, beliefs(vals), direction)
            want = gather_degroot_step(g, vals, direction)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_zero_edge_graph_keeps_beliefs(self, n):
        g = index_graph(n, [])
        vals = signed_beliefs(np.random.default_rng(n), n)
        for direction in ("out", "in", "undirected"):
            got = degroot_step(g, beliefs(vals), direction)
            assert got.tobytes() == gather_degroot_step(g, vals, direction).tobytes()


def stepped(g, values, config):
    """``degroot_run`` as a plain loop of ``degroot_step`` calls, each allocating."""
    log = []
    for i in range(1, config.max_iters + 1):
        nxt = degroot_step(g, values, config.direction)
        change = float(np.max(np.abs(nxt - values))) if len(values) else 0.0
        log.append({"iteration": i, "max_change": change})
        values = nxt
        if change < config.tol:
            break
    return values, log


class TestRun:
    @pytest.mark.parametrize("direction", ["out", "in", "undirected"])
    def test_bit_identical_to_a_loop_of_steps(self, direction):
        rng = np.random.default_rng(29)
        none = np.zeros(0, dtype=np.int64)
        graphs = [random_dataset(rng, max_users=80, max_posts=3).graph for _ in range(3)]
        graphs.append(SocialGraph(["a", "b", "c"], none, none))  # no edges
        for g in graphs:
            start = rng.random(g.node_count)
            kept = start.copy()
            for max_iters, tol in ((1, 1e-6), (30, 1e-300), (200, 1e-4)):
                config = DiffusionConfig(direction=direction, max_iters=max_iters, tol=tol)
                got, log = degroot_run(g, start, config)
                want, want_log = stepped(g, start, config)
                assert got.tobytes() == want.tobytes()
                assert log == want_log
                assert start.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("direction", ["out", "in", "undirected"])
    def test_hub_run_bit_identical_to_a_loop_of_steps(self, direction):
        rng = np.random.default_rng(31)
        n = MIN_ROWS + 200
        extra = rng.integers(0, n, size=(600, 2)).tolist()
        pairs = two_stars(MIN_ROWS + 100, ("out", "in")) + [(a, b) for a, b in extra if a != b]
        g = index_graph(n, pairs)
        layout = g.step_layout(direction)
        assert layout.columns and layout.long  # both paths of the step run
        start = rng.random(n)
        config = DiffusionConfig(direction=direction, max_iters=40, tol=1e-300)
        got, log = degroot_run(g, start, config)
        want, want_log = stepped(g, start, config)
        assert got.tobytes() == want.tobytes()
        assert log == want_log

    def test_calls_the_module_step_once_per_logged_step(self, monkeypatch):
        # a tracer counts steps by wrapping hateagg.degroot.degroot_step
        calls = []
        step = degroot_module.degroot_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(degroot_module, "degroot_step", counted)
        rng = np.random.default_rng(7)
        g = random_dataset(rng, max_users=60, max_posts=2, edge_prob=0.08).graph
        for max_iters, tol in ((25, 1e-300), (500, 1e-6)):
            calls.clear()
            config = DiffusionConfig(direction="undirected", max_iters=max_iters, tol=tol)
            _, log = degroot_run(g, rng.random(g.node_count), config)
            assert len(calls) == len(log)

    def test_mutual_pair_converges_to_mean(self):
        g = two_node_graph()
        final, log = degroot_run(g, beliefs([1.0, 0.0]), DiffusionConfig(tol=1e-9))
        assert np.allclose(final, [0.5, 0.5], atol=1e-9)
        assert len(log) <= 3
        assert log[0]["iteration"] == 1
        assert all("max_change" in rec for rec in log)

    def test_already_converged_stops_after_one_step(self):
        g = two_node_graph()
        _, log = degroot_run(g, beliefs([0.4, 0.4]))
        assert len(log) == 1
        assert log[0]["max_change"] == 0.0

    def test_log_changes_non_increasing_on_undirected(self):
        rng = np.random.default_rng(89)
        ds = random_dataset(rng, max_users=80, max_posts=2, edge_prob=0.06)
        init = beliefs(rng.random(ds.graph.node_count))
        config = DiffusionConfig(direction="undirected", max_iters=60)
        _, log = degroot_run(ds.graph, init, config)
        changes = [rec["max_change"] for rec in log]
        assert all(b <= a + 1e-12 for a, b in zip(changes, changes[1:]))

    def test_star_graph_limit_weights_by_degree(self):
        # undirected star: (1 + deg) smoothing gives the hub weight 11 and
        # each of the 10 leaves weight 2, so consensus = 11/31 from hub=1
        edges = [("hub", f"l{i}") for i in range(10)]
        g = build_graph(edges)
        init = np.zeros(11)
        init[g.ids.index("hub")] = 1.0
        config = DiffusionConfig(direction="undirected", max_iters=10_000, tol=1e-13)
        final, _ = degroot_run(g, beliefs(init), config)
        assert np.max(np.abs(final - 11.0 / 31.0)) < 1e-9

    def test_large_undirected_run_converges(self):
        rng = np.random.default_rng(83)
        ds = random_dataset(rng, max_users=1000, max_posts=2, edge_prob=0.01)
        init = beliefs(rng.random(ds.graph.node_count))
        config = DiffusionConfig(direction="undirected", max_iters=10_000, tol=1e-8)
        _, log = degroot_run(ds.graph, init, config)
        assert log[-1]["max_change"] < 1e-8
        assert len(log) <= 10_000

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_beliefs_stay_in_initial_hull(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, max_users=40, max_posts=2, edge_prob=0.1)
        init = rng.random(ds.graph.node_count)
        lo, hi = float(init.min()), float(init.max())
        config = DiffusionConfig(direction="undirected", max_iters=50)
        final, _ = degroot_run(ds.graph, beliefs(init), config)
        assert np.all(final >= lo - 1e-12)
        assert np.all(final <= hi + 1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InputError):
            DiffusionConfig(max_iters=0)
        with pytest.raises(InputError):
            DiffusionConfig(tol=0.0)
        with pytest.raises(InputError):
            DiffusionConfig(direction="sideways")

    def test_nan_tol_rejected(self):
        # NaN fails every comparison, so a stop test "change < tol" never fires
        with pytest.raises(InputError, match="tol"):
            DiffusionConfig(tol=float("nan"))

    def test_unknown_direction_fails_in_the_step(self):
        with pytest.raises(InputError, match="unknown direction"):
            degroot_step(two_node_graph(), beliefs([0.1, 0.2]), "sideways")


class TestClassify:
    def test_threshold_inclusive(self):
        b = beliefs([0.5, 0.49, 0.6])
        assert degroot_classify(b).tolist() == [1, 0, 1]

    def test_custom_threshold(self):
        b = beliefs([0.55, 0.65])
        assert degroot_classify(b, 0.6).tolist() == [0, 1]

    def test_all_zero_beliefs(self):
        b = beliefs(np.zeros(4))
        assert degroot_classify(b).tolist() == [0, 0, 0, 0]

    def test_threshold_out_of_range(self):
        with pytest.raises(InputError):
            degroot_classify(beliefs([0.5]), 1.5)
