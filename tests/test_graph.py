from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hateagg import (
    DegenerateDataError,
    InputError,
    ScoreTable,
    SocialGraph,
    bind_dataset,
    build_graph,
    clustering_coefficient,
    component_stats,
    graph_stats,
    largest_wcc,
    powerlaw_gamma,
    powerlaw_gamma_mle,
    read_edges,
)

import hateagg.graph as graph_module
from oracles import (
    brute_clustering,
    brute_triangles,
    codes_of,
    edge_pairs,
    gather_in_sums,
    label_table,
    lexsort_csr,
    numeric_gamma,
    scipy_weak_components,
    sparse_product_clustering,
    union_find_component_count,
)


def random_edges(rng, n, p):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return [(int(a), int(b)) for a, b in zip(src, dst)]


def index_graph(n, src, dst):
    """Graph on nodes 0..n-1 straight from index arrays."""
    return SocialGraph([f"n{i}" for i in range(n)], np.asarray(src), np.asarray(dst))


def graph_from_int_edges(n, edges):
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return index_graph(n, src, dst)


@st.composite
def mixed_graphs(draw, max_nodes=40, max_pairs=100):
    """Random directed graphs plus a star, a clique, reciprocal and parallel edges.

    Self-loops are dropped; nodes the draws leave out are isolated, and a
    star's leaves are often degree-1 nodes.
    """
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=max_pairs))
    if pairs:
        again = st.lists(st.sampled_from(pairs), max_size=20)
        pairs += draw(again)  # parallel edges
        pairs += [(b, a) for a, b in draw(again)]  # reciprocal edges
    hub = draw(node)
    for leaf in draw(st.lists(node, max_size=n)):
        pairs.append((hub, leaf) if draw(st.booleans()) else (leaf, hub))
    clique = draw(st.lists(node, max_size=8, unique=True))
    pairs += [(a, b) for a in clique for b in clique if a < b]
    pairs = [(a, b) for a, b in pairs if a != b]
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    return index_graph(n, src, dst)


@st.composite
def colliding_cycles(draw):
    """Disjoint cycles, so every node has degree 2 and its rank is its index.

    The first cycle runs 0, 1, y, ..., x, where x and y share a signature
    bit: corner 0's wedge (1, x) finds x's bit set in node 1's signature,
    through the link 1 -> y, though 1 and x are not linked.
    """
    bits = graph_module._signature_bit(np.arange(200, dtype=np.int32)).tolist()
    groups: dict[int, list[int]] = {}
    for v in range(2, 200):
        groups.setdefault(bits[v], []).append(v)
    shared = [g for g in groups.values() if len(g) > 1]
    x, y = draw(st.permutations(draw(st.sampled_from(shared))))[:2]
    n = draw(st.integers(max(x, y) + 1, 200))
    rest = draw(st.permutations([v for v in range(2, n) if v not in (x, y)]))
    k = draw(st.integers(0, len(rest)))
    cycles, rest = [[0, 1, y, *rest[:k], x]], rest[k:]
    while len(rest) >= 3:
        m = draw(st.integers(3, len(rest)))
        cycles.append(rest[:m])
        rest = rest[m:]
    cycles[0][-1:-1] = rest  # too few left for a cycle of their own
    pairs = [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
    flips = draw(st.lists(st.sampled_from(["fwd", "back", "both"]),
                          min_size=len(pairs), max_size=len(pairs)))
    edges = [e for (a, b), f in zip(pairs, flips)
             for e in ([(a, b)] if f == "fwd" else [(b, a)] if f == "back" else [(a, b), (b, a)])]
    return n, edges


def clustering_in_chunks(g, chunk):
    """``clustering_coefficient`` with ``chunk`` wedges per block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_WEDGE_CHUNK", chunk)
        return clustering_coefficient(g)


def triangle_counts(g, chunk):
    return graph_module._triangle_counts(*g.csr("undirected"), chunk).tolist()


def int_edges(g):
    src, dst = g.edge_arrays()
    return list(zip(src.tolist(), dst.tolist()))


def forward_wedges(g):
    """Wedges the forward count makes: pairs of links to higher (degree, index) ranks."""
    indptr, indices = g.csr("undirected")
    deg = np.diff(indptr).tolist()
    total = 0
    for u in range(g.node_count):
        up = sum((deg[v], v) > (deg[u], u) for v in indices[indptr[u] : indptr[u + 1]].tolist())
        total += up * (up - 1) // 2
    return total


def smallest_member(labels):
    """Each node's label replaced by the smallest node index sharing it."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


class TestBuildGraph:
    def test_basic_construction(self):
        g = build_graph([("a", "b"), ("b", "c")])
        assert g.node_count == 3
        assert g.edge_count == 2
        a = g.ids.index("a")
        followees = g.out_indices[g.out_indptr[a] : g.out_indptr[a + 1]]
        assert [g.ids[int(j)] for j in followees] == ["b"]

    def test_duplicate_edges_collapse(self):
        g = build_graph([("a", "b"), ("a", "b")])
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            build_graph([("a", "a")])

    def test_empty_id_rejected(self):
        with pytest.raises(InputError):
            build_graph([("", "b")])

    def test_adjacency_views_are_transposes(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(2, 60))
            src, dst = np.array(random_edges(rng, n, 0.08), dtype=np.int64).reshape(-1, 2).T
            fwd = index_graph(n, src, dst)
            # the reversed edges, on the nodes numbered backwards
            rev = SocialGraph(graph_module.KeyTable.of(fwd.ids[::-1]), n - 1 - dst, n - 1 - src)
            for uid in fwd.ids:
                i_f = fwd.ids.index(uid)
                i_r = rev.ids.index(uid)
                followees = fwd.out_indices[fwd.out_indptr[i_f] : fwd.out_indptr[i_f + 1]]
                in_ptr, in_idx = rev.csr("in")
                followers = in_idx[in_ptr[i_r] : in_ptr[i_r + 1]]
                out_f = sorted(fwd.ids[int(j)] for j in followees)
                in_r = sorted(rev.ids[int(j)] for j in followers)
                assert out_f == in_r

    def test_graph_adopts_the_edge_list_index(self):
        edges = read_edges("a,b\nb,c\n")
        assert codes_of(edges.id_keys, ["a", "b", "c", "y"]).tolist() == [0, 1, 2, -1]
        assert build_graph(edges).id_keys is edges.id_keys
        scores = ScoreTable.from_mapping({"z": [], "a": [], "y": []})
        g = bind_dataset(build_graph(edges), scores).graph
        assert g.ids == ["a", "b", "c", "y", "z"]
        assert codes_of(g.id_keys, ["z", "y", "c", "x"]).tolist() == [4, 3, 2, -1]
        # binding isolated users copies the table: the edge list stays as read
        assert len(edges.id_keys) == 3
        assert codes_of(edges.id_keys, ["a", "b", "c", "y", "z"]).tolist() == [0, 1, 2, -1, -1]
        assert edges.ids == ["a", "b", "c"]

    def test_reciprocal_edges_collapse_in_undirected_view(self):
        g = build_graph([("a", "b"), ("b", "a")])
        assert list(g.undirected_degrees()) == [1, 1]

    def test_only_the_out_view_is_stored(self):
        g = build_graph([("a", "b"), ("c", "b")])
        assert g.csr("out") == (g.out_indptr, g.out_indices)
        assert not hasattr(g, "in_indptr")
        in_view = g.csr("in")
        assert g.csr("in") is in_view  # built once, then cached
        with pytest.raises(InputError, match="unknown direction 'sideways'"):
            g.csr("sideways")


class TestSocialGraphInput:
    @pytest.mark.parametrize(
        "src, dst",
        [
            ([0], [3]),  # past the last node
            ([0, 1], [1]),  # unequal lengths
            ([-1], [0]),  # negative
            ([0, 1], [2, 3]),
            ([0.7, 1.9], [1, 2]),  # would truncate to the edges a->b, b->c
            ([True, False], [1, 2]),  # would read as the indices 0 and 1
            ([0, 1], [1.0, 2.0]),
            ([0], np.array([1], dtype=object)),
        ],
    )
    def test_bad_index_arrays_rejected(self, src, dst):
        with pytest.raises(InputError) as got:
            SocialGraph(["a", "b", "c"], np.array(src), np.array(dst))
        assert str(got.value) == "edge index arrays must be of equal length, each index in [0, 3)"

    def test_good_index_arrays_accepted(self):
        g = SocialGraph(["a", "b", "c"], np.array([0, 2]), np.array([2, 1]))
        assert sorted(edge_pairs(g)) == [("a", "c"), ("c", "b")]
        g = SocialGraph(["a", "b", "c"], np.array([0, 2], dtype=np.uint8), np.array([2, 1]))
        assert sorted(edge_pairs(g)) == [("a", "c"), ("c", "b")]
        empty = SocialGraph([], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert empty.node_count == empty.edge_count == 0
        # np.asarray([]) is float64: an empty edge list needs no integer dtype
        assert SocialGraph(["a"], np.asarray([]), np.asarray([])).edge_count == 0

    def test_repeated_id_rejected(self):
        with pytest.raises(InputError) as got:
            SocialGraph(["a", "b", "a", "b"], np.array([0]), np.array([1]))
        assert str(got.value) == "repeated id 'a'"

    def test_non_string_id_rejected(self):
        with pytest.raises(InputError) as got:
            SocialGraph(["a", 7, "c"], np.array([0]), np.array([2]))
        assert str(got.value) == "user id must be a string, got 7"

    def test_key_table_adopted(self):
        keys = graph_module.KeyTable.of(["a", "b"])
        g = SocialGraph(keys, np.array([1]), np.array([0]))
        assert g.id_keys is keys
        assert g.ids is keys.ids == ["a", "b"]


class TestLargestWcc:
    def test_larger_component_wins(self):
        g = build_graph([("a", "b"), ("c", "d"), ("d", "e")])
        sub = largest_wcc(g)
        assert sorted(sub.ids) == ["c", "d", "e"]
        assert sub.edge_count == 2

    def test_single_component_returned_whole(self):
        g = build_graph([("a", "b")])
        sub = largest_wcc(g)
        assert sorted(sub.ids) == ["a", "b"]

    def test_tie_breaks_to_smallest_node_index(self):
        g = build_graph([("a", "b"), ("c", "d")])
        sub = largest_wcc(g)
        assert sorted(sub.ids) == ["a", "b"]

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        n = 40
        g = graph_from_int_edges(n, random_edges(rng, n, 0.03))
        once = largest_wcc(g)
        twice = largest_wcc(once)
        assert once.ids == twice.ids
        assert once.edge_count == twice.edge_count

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            largest_wcc(build_graph([]))

    def test_one_component_is_the_graph_itself(self):
        g = build_graph([("a", "b"), ("c", "b")])
        assert largest_wcc(g) is g

    @given(mixed_graphs())
    def test_subgraph_is_the_largest_scipy_component(self, g):
        _, labels = scipy_weak_components(g)
        root = smallest_member(labels)
        sizes = np.bincount(root, minlength=g.node_count)
        best = int(np.argmax(sizes))  # ties: the smallest node index
        sub = largest_wcc(g)
        assert sub.ids == [g.ids[i] for i in np.flatnonzero(root == best)]
        assert sub.edge_count == int(np.count_nonzero(root[g.edge_arrays()[0]] == best))

    def test_views_of_a_subgraph_built_without_a_sort(self):
        # three components of unequal size plus isolated nodes; the largest
        # one is spread over the index range, so the renumbering is not a shift
        n = 30
        rng = np.random.default_rng(3)
        big = np.arange(0, n, 2)
        pairs = [(big[i], big[j]) for i, j in rng.integers(0, len(big), size=(60, 2)) if i != j]
        pairs += [(b, a) for a, b in pairs[:10]] + [(1, 3), (3, 5), (7, 9)]
        pairs += [(a, b) for a, b in zip(big[:-1], big[1:])]  # keep it connected
        src, dst = np.array(pairs).T
        g = index_graph(n, src, dst)
        sub = largest_wcc(g)
        assert sub.ids == [f"n{i}" for i in big]
        new = np.full(n, -1)
        new[big] = np.arange(len(big))
        inside = new[src] >= 0
        assert_csr_matches_lexsort(sub, new[src[inside]], new[dst[inside]])


class TestComponentStats:
    def test_edge_plus_isolated(self):
        g = SocialGraph(graph_module.KeyTable.of(["a", "b", "c"]), np.array([0]), np.array([1]))
        counts = component_stats(g)
        assert counts.n_components == 2
        assert counts.n_singletons == 1

    def test_all_isolated(self):
        g = SocialGraph(graph_module.KeyTable.of(["a", "b", "c"]), np.zeros(0), np.zeros(0))
        counts = component_stats(g)
        assert counts.n_components == 3
        assert counts.n_singletons == 3

    def test_path_is_one_component(self):
        g = build_graph([("a", "b"), ("b", "c")])
        counts = component_stats(g)
        assert counts.n_components == 1
        assert counts.n_singletons == 0

    def test_matches_union_find_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 500))
            edges = random_edges(rng, n, float(rng.uniform(0.001, 0.02)))
            g = graph_from_int_edges(n, edges)
            expected = union_find_component_count(n, edges)
            assert component_stats(g).n_components == expected

    @given(mixed_graphs())
    def test_partition_matches_scipy(self, g):
        n_comp, labels = g.components()
        want_comp, want_labels = scipy_weak_components(g)
        assert n_comp == want_comp
        assert np.array_equal(smallest_member(labels), smallest_member(want_labels))
        # labels are numbered in the order of each component's smallest node
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0)

    def test_labels_computed_once_per_graph(self, monkeypatch):
        calls = []
        roots = graph_module._component_roots
        monkeypatch.setattr(
            graph_module, "_component_roots", lambda *a: calls.append(1) or roots(*a)
        )
        g = index_graph(6, [0, 1, 3], [1, 2, 4])  # node 5 is isolated
        graph_stats(g)
        component_stats(g)
        assert len(calls) == 1

    def test_shuffled_million_node_path_is_fast(self):
        # a path in random index order is the worst case for label propagation
        n = 1_000_000
        order = np.random.default_rng(41).permutation(n)
        g = index_graph(n, order[:-1], order[1:])
        start = time.perf_counter()
        counts = component_stats(g)
        assert time.perf_counter() - start < 10.0
        assert counts == (1, 0)


class TestClustering:
    def test_triangle(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
        assert clustering_coefficient(g) == 1.0

    def test_path_has_no_triangles(self):
        g = build_graph([("a", "b"), ("b", "c")])
        assert clustering_coefficient(g) == 0.0

    def test_triangle_with_pendant(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        # locals: 1, 1, 1/3 (c sees one closed pair of three), 0
        assert abs(clustering_coefficient(g) - 7 / 12) < 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(2, 61))
            edges = random_edges(rng, n, float(rng.uniform(0.02, 0.3)))
            g = graph_from_int_edges(n, edges)
            assert abs(
                clustering_coefficient(g) - brute_clustering(n, edges)
            ) < 1e-12

    def test_small_chunk_size_equivalent(self):
        rng = np.random.default_rng(29)
        n = 50
        edges = random_edges(rng, n, 0.15)
        g = graph_from_int_edges(n, edges)
        assert clustering_in_chunks(g, 7) == clustering_coefficient(g)

    @given(mixed_graphs())
    def test_equals_sparse_product_exactly(self, g):
        want = sparse_product_clustering(g)
        for chunk in (1, 3):
            assert clustering_in_chunks(g, chunk) == want
        assert clustering_coefficient(g) == want

    def test_200k_leaf_star_is_fast(self):
        # the hub ranks last, so its 200k links open no wedges
        leaves = 200_000
        g = index_graph(leaves + 1, np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1))
        start = time.perf_counter()
        assert clustering_coefficient(g) == 0.0
        assert time.perf_counter() - start < 5.0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_always_within_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        g = graph_from_int_edges(n, random_edges(rng, n, 0.2))
        assert 0.0 <= clustering_coefficient(g) <= 1.0


class TestTriangleCounts:
    """Per-node triangles of ``_triangle_counts`` against neighbor-pair enumeration."""

    @given(mixed_graphs(max_nodes=14, max_pairs=24))
    def test_every_chunk_equals_brute_force(self, g):
        want = brute_triangles(g.node_count, int_edges(g))
        for chunk in range(1, forward_wedges(g) + 2):
            assert triangle_counts(g, chunk) == want

    @given(colliding_cycles())
    def test_signature_collisions_reach_the_exact_search(self, graph):
        n, edges = graph
        g = index_graph(n, [a for a, _ in edges], [b for _, b in edges])
        assert np.all(g.undirected_degrees() == 2)  # ranks are node indices
        want = brute_triangles(n, edges)
        assert want[0] == 0  # the wedge (1, x) at node 0 is open
        for chunk in (1, 5, 1 << 19):
            assert triangle_counts(g, chunk) == want

    def test_clique_with_full_signatures(self):
        # a clique's nodes share one degree, so ranks are node indices; node
        # 0's links reach ranks 1..k-1, which hash to every signature bit
        bits = graph_module._signature_bit(np.arange(1, 1000, dtype=np.int32)).tolist()
        k = next(i for i in range(1, 1000) if len(set(bits[:i])) == 128) + 1
        src, dst = np.triu_indices(k, 1)
        g = index_graph(k, src, dst)
        for chunk in (4099, 1 << 19):
            assert triangle_counts(g, chunk) == [math.comb(k - 1, 2)] * k


class TestPowerlawGamma:
    def test_closed_form_without_correction(self):
        # gamma = 1 + 5 / (ln 2 + ln 4)
        got = powerlaw_gamma_mle([1, 1, 1, 2, 4], k_min=1, continuity_correction=False)
        assert abs(got - (1 + 5 / (3 * math.log(2)))) < 1e-12
        assert abs(got - 3.4044917348149393) < 1e-12

    def test_degenerate_all_at_k_min_without_correction(self):
        assert powerlaw_gamma_mle([1, 1, 1], k_min=1, continuity_correction=False) == math.inf

    def test_star_graph_degrees(self):
        degrees = [10] + [1] * 10
        got = powerlaw_gamma_mle(degrees, k_min=1, continuity_correction=True)
        s = sum(math.log(k / 0.5) for k in degrees)
        assert abs(got - (1 + 11 / s)) < 1e-12
        assert abs(got - numeric_gamma(degrees, 1, True)) < 1e-3

    def test_matches_numeric_likelihood_maximization(self):
        rng = np.random.default_rng(31)
        for correction in (False, True):
            for _ in range(6):
                gamma_true = float(rng.uniform(1.8, 3.5))
                u = rng.random(300)
                ks = np.floor((1 - u) ** (-1 / (gamma_true - 1))).astype(int)
                ks = [int(k) for k in np.clip(ks, 1, 10_000)]
                if all(k == 1 for k in ks) and not correction:
                    continue
                got = powerlaw_gamma_mle(ks, k_min=1, continuity_correction=correction)
                want = numeric_gamma(ks, 1, correction)
                assert abs(got - want) < 1e-3

    def test_no_qualifying_degrees_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            powerlaw_gamma_mle([1, 2, 3], k_min=5)

    def test_k_min_must_be_positive(self):
        with pytest.raises(InputError):
            powerlaw_gamma_mle([1, 2], k_min=0)

    def test_graph_wrapper_uses_undirected_degrees(self):
        g = build_graph([("a", "b"), ("b", "a"), ("b", "c")])
        # undirected degrees: a=1, b=2, c=1
        got = powerlaw_gamma(g, k_min=1, continuity_correction=False)
        assert abs(got - (1 + 3 / math.log(2))) < 1e-12


class TestGraphStats:
    def test_fields_and_invariants(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("x", "y")])
        stats = graph_stats(g)
        assert stats.largest_wcc_nodes == 3
        assert stats.largest_wcc_edges == 3
        assert stats.n_components == 2
        assert stats.n_singletons == 0
        assert stats.clustering_coefficient == 1.0
        assert stats.largest_wcc_nodes <= g.node_count
        assert stats.n_singletons <= stats.n_components
        d = stats.to_dict()
        assert set(d) == {
            "n_components",
            "n_singletons",
            "largest_wcc_nodes",
            "largest_wcc_edges",
            "clustering_coefficient",
            "powerlaw_gamma",
        }

    def test_k_min_rejected_before_any_statistic(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a statistic ran before k_min was checked")

        monkeypatch.setattr(graph_module, "clustering_coefficient", fail)
        g = build_graph([("a", "b"), ("b", "c"), ("x", "y")])
        with pytest.raises(InputError, match="k_min must be >= 1, got 0"):
            graph_stats(g, k_min=0)


def naive_intern(blocks):
    """Codes per block, ids and index, numbering each id when it is first seen."""
    index: dict = {}
    codes = [[index.setdefault(t, len(index)) for t in block] for block in blocks]
    return codes, list(index), index


def intern_blocks(blocks):
    """Codes per block and ids, interned block by block through one key table."""
    keys = graph_module.KeyTable()
    codes = []
    for block in blocks:
        codes.append(keys.intern_strings(list(block)).tolist())
    return codes, keys.ids, keys


class TestInternIds:
    def test_block_mixing_old_and_new_ids(self):
        # new ids both before and after the first repeated token
        codes, ids, keys = intern_blocks([["a", "b", "a"], ["c", "a", "d", "c", "b", "e", "d"]])
        assert codes == [[0, 1, 0], [2, 0, 3, 2, 1, 4, 3]]
        assert ids == ["a", "b", "c", "d", "e"]
        assert len(keys) == 5
        assert codes_of(keys, ["e", "a", "f", "d"]).tolist() == [4, 0, -1, 3]

    @given(
        st.lists(
            st.lists(
                # one, two and more 8-byte words; ids equal but for trailing zero bytes
                st.sampled_from(["a", "b", "a\x00", "a\x00\x00", "", "\x00", "ü", "12345678",
                                 "123456789", "x" * 16, "x" * 64, "x" * 65, "\ud800", "a\nb"]),
                max_size=12,
            ),
            max_size=5,
        )
    )
    def test_blocks_match_first_seen_numbering(self, blocks):
        got_codes, got_ids, keys = intern_blocks(blocks)
        want_codes, want_ids, want_index = naive_intern(blocks)
        assert got_codes == want_codes
        assert got_ids == want_ids
        assert len(keys) == len(want_index)
        probe = list(want_index) + ["zz", "a\x00\x00\x00"]
        assert codes_of(keys, probe).tolist() == [want_index.get(u, -1) for u in probe]


class TestNeighborSums:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(37)
        n = 60
        edges = random_edges(rng, n, 0.1)
        g = graph_from_int_edges(n, edges)
        values = rng.random(n)
        A = np.zeros((n, n))
        for a, b in edges:
            A[g.ids.index(f"n{a}"), g.ids.index(f"n{b}")] = 1.0
        expect_out = A @ values
        assert np.allclose(g.neighbor_sums(values, "out"), expect_out, atol=1e-12)
        src, dst = g.edge_arrays()
        expect_in = gather_in_sums(src, dst, n, values)
        assert np.array_equal(
            g.neighbor_sums(values, "in").view(np.uint64), expect_in.view(np.uint64)
        )

    @given(n=st.integers(1, 30), data=st.data())
    def test_in_sums_match_a_gather_bit_for_bit(self, n, data):
        m = data.draw(st.integers(0, 80))  # 0: a graph with no edges
        node = st.integers(0, n - 1)
        src = np.array(data.draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
        dst = np.array(data.draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        src, dst = np.concatenate([src, src[::3]]), np.concatenate([dst, dst[::3]])  # repeats
        magnitude = st.floats(1e-5, 1e5)
        value = st.one_of(magnitude, magnitude.map(lambda x: -x), st.just(-0.0))
        values = np.array(data.draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64)
        g = index_graph(n, src, dst)  # nodes no edge touches stay isolated
        got = g.neighbor_sums(values, "in")
        want = gather_in_sums(src, dst, n, values)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(g.in_degrees(), np.diff(lexsort_csr(dst, src, n)[0]))


def assert_csr_matches_lexsort(g, src, dst):
    n = g.node_count
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    views = (
        (g.csr("out"), lexsort_csr(src, dst, n)),
        (g.csr("in"), lexsort_csr(dst, src, n)),
        (g.csr("undirected"), lexsort_csr(both_src, both_dst, n)),
    )
    for (indptr, indices), (want_ptr, want_idx) in views:
        assert np.array_equal(indptr, want_ptr)
        assert np.array_equal(indices, want_idx)
        assert indptr.dtype == want_ptr.dtype
        assert indices.dtype == want_idx.dtype


class TestPackedKeyCsr:
    @given(n=st.integers(1, 30), data=st.data())
    def test_matches_lexsort_with_duplicates(self, n, data):
        m = data.draw(st.integers(0, 80))
        node = st.integers(0, n - 1)
        src = np.array(data.draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
        dst = np.array(data.draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
        g = SocialGraph([f"n{i}" for i in range(n)], src, dst)
        assert_csr_matches_lexsort(g, src, dst)

    def test_keys_past_the_int32_range(self):
        # 50,000 nodes: src * n exceeds 2**31 once src > 42,949
        n = 50_000
        rng = np.random.default_rng(11)
        top = rng.integers(n - 40, n, size=(2, 4000))
        spread = rng.integers(0, n, size=(2, 4000))
        src, dst = np.concatenate([top, spread, top[:, :500]], axis=1).astype(np.int32)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        g = SocialGraph([f"n{i}" for i in range(n)], src, dst)
        assert g.out_indices.max() >= n - 40
        assert_csr_matches_lexsort(g, src.astype(np.int64), dst.astype(np.int64))


def sort_then_dedup(keys):
    return np.unique(np.asarray(keys, dtype=np.int64))


class TestPackedKeys:
    """``_packed_keys`` skips the sort for strictly increasing keys, and only for them."""

    N = 50

    def keys_of(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        return graph_module._packed_keys(keys // self.N, keys % self.N, self.N)

    @given(st.lists(st.integers(0, 50 * 50 - 1), max_size=60))
    def test_any_keys(self, keys):
        for case in (sorted(set(keys)), sorted(keys), keys):  # increasing, repeats, as drawn
            got = self.keys_of(case)
            assert got.dtype == np.int64
            assert np.array_equal(got, sort_then_dedup(case))

    @pytest.mark.parametrize(
        "keys",
        [[], [7], [1, 2, 40, 2499], [1, 2, 2, 3], [5, 5], [3, 1, 2], [1, 3, 2, 3], [2, 1]],
    )
    def test_edge_cases(self, keys):
        assert np.array_equal(self.keys_of(keys), sort_then_dedup(keys))


class TestStableOrder:
    """``_stable_order`` is numpy's stable argsort, below the overflow guard and past it."""

    def check(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = graph_module._stable_order(keys)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @given(st.lists(st.integers(0, 30), max_size=80))
    def test_small_keys(self, keys):
        self.check(keys)

    @given(st.lists(st.one_of(st.integers(0, 5), st.integers(0, 2**63 - 1)), max_size=40))
    def test_any_keys(self, keys):
        self.check(keys)

    @pytest.mark.parametrize("keys", [[], [0], [9], [4] * 7, [0] * 5, [3, 1, 2, 1, 3]])
    def test_edge_cases(self, keys):
        self.check(keys)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    def test_keys_at_and_past_the_overflow_guard(self, n):
        # the largest key whose packed form key * n + n stays below 2**63, and one past it
        at = (2**63 - 1) // n - 1
        assert at * n + n < 2**63 <= (at + 1) * n + n
        rng = np.random.default_rng(n)
        for top in (at, at + 1):
            keys = rng.choice(np.array([0, 1, top - 1, top], dtype=np.int64), size=n)
            keys[rng.integers(n)] = top
            self.check(keys)

    def test_degree_orders(self):
        # the degree orders of _step_layout and _triangle_counts: many ties
        deg = np.random.default_rng(5).poisson(3.0, 5000)
        self.check(deg)
        self.check(deg.max() - deg)


class TestBindExtension:
    def test_appended_scored_users_keep_the_views(self):
        g = build_graph([("b", "a"), ("c", "a"), ("a", "d"), ("d", "b"), ("b", "a")])
        scores = ScoreTable.from_mapping({"z": [0.5], "a": [0.1], "e": [0.9, 0.2]})
        ds = bind_dataset(g, scores, label_table({"a": 1, "e": 0}))
        assert ds.graph.ids == ["b", "a", "c", "d", "e", "z"]
        src, dst = g.edge_arrays()  # the parent's node indices hold in the extension
        assert_csr_matches_lexsort(ds.graph, src.astype(np.int64), dst.astype(np.int64))
