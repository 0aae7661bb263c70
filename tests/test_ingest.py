from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hateagg import cli
from hateagg import graph as graph_module
from hateagg import ingest
from hateagg.graph import KeyTable
from hateagg import (
    AggregationConfig,
    BindPolicy,
    Dataset,
    InputError,
    ScoreTable,
    SocialGraph,
    bind_dataset,
    build_features,
    build_graph,
    parse_labels,
    parse_scores,
    read_edges,
    write_edges,
    write_labels,
    write_scores,
)

from conftest import BIND_EXAMPLES, PARSER_EXAMPLES
from oracles import (
    codes_of,
    edge_pairs,
    label_dict,
    label_table,
    lexsort_csr,
    naive_bind,
    naive_build_graph,
    naive_feature_matrix,
    naive_parse_labels,
    naive_parse_scores,
    naive_read_edges,
    naive_write_edges,
    naive_write_labels,
    naive_write_scores,
    score_dict,
)


class TestReadEdges:
    def test_basic(self):
        text = "a,b\nb,c\n"
        assert edge_pairs(read_edges(text)) == [("a", "b"), ("b", "c")]

    def test_comments_and_blanks_skipped(self):
        text = "# header comment\n\na,b\n   \n# trailing\nb,c\n"
        assert edge_pairs(read_edges(text)) == [("a", "b"), ("b", "c")]

    def test_self_loop_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            read_edges("a,b\nc,c\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(InputError, match="line 1"):
            read_edges("a,b,c\n")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(InputError, match="line 1"):
            read_edges(",b\n")

    def test_stream_input(self):
        assert edge_pairs(read_edges(io.StringIO("a,b\n"))) == [("a", "b")]


class TestParseScores:
    def test_grouping_preserves_order(self):
        table = parse_scores("u1,p1,0.9\nu1,p2,0.3\nu2,p9,0.5\n")
        assert table.users() == ["u1", "u2"]
        assert score_dict(table) == {"u1": [0.9, 0.3], "u2": [0.5]}
        assert table.total_posts == 3

    def test_out_of_range_score_names_line(self):
        with pytest.raises(InputError, match="line 1"):
            parse_scores("u1,p1,1.5\n")

    def test_non_numeric_score_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_scores("u1,p1,0.5\nu1,p2,high\n")

    def test_empty_file_is_valid(self):
        table = parse_scores("")
        assert len(table) == 0
        assert table.total_posts == 0

    def test_boundary_scores_accepted(self):
        table = parse_scores("u1,p1,0\nu1,p2,1\n")
        assert score_dict(table) == {"u1": [0.0, 1.0]}

    def test_repeated_user_rejected(self):
        with pytest.raises(InputError) as got:
            ScoreTable(["a", "b", "b"], [0, 1, 2, 3], [0.1, 0.2, 0.3])
        assert str(got.value) == "repeated id 'b'"

    def test_non_string_user_rejected(self):
        with pytest.raises(InputError) as got:
            ScoreTable.from_mapping({"a": [0.1], 1: [0.5]})
        assert str(got.value) == "user id must be a string, got 1"

    def test_offsets_must_start_at_zero_and_not_decrease(self):
        with pytest.raises(InputError, match="offsets"):
            ScoreTable(["a", "b"], [0, 2, 1], [0.9])
        with pytest.raises(InputError, match="offsets"):
            ScoreTable(["a"], [1, 1], [0.9])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5, 2.0], "score 2.0 outside [0, 1]"),
            ([-0.5, 0.5], "score -0.5 outside [0, 1]"),
            ([0.5, float("nan"), 3.0], "score nan outside [0, 1]"),
        ],
    )
    def test_scores_outside_the_unit_interval_rejected(self, values, message):
        # the parser names the line; a table built in Python names the value
        with pytest.raises(InputError) as got:
            ScoreTable(["a"], [0, len(values)], values)
        assert str(got.value) == message
        with pytest.raises(InputError) as got:
            ScoreTable.from_mapping({"a": [0.5], "b": values})
        assert str(got.value) == message
        table = ScoreTable(["a"], [0, 3], [0.0, -0.0, 1.0])
        assert table.values.tolist() == [0.0, -0.0, 1.0]

    def test_missing_row_owns_zero_posts(self):
        table = parse_scores("u1,p1,0.5\nu2,p1,0.25\nu2,p2,0.75\n")
        offsets, values = table.segments(codes_of(table.id_keys, ["u2", "nobody", "u1"]))
        assert offsets.tolist() == [0, 2, 2, 3]
        assert values.tolist() == [0.25, 0.75, 0.5]


class TestParseLabels:
    def test_basic(self):
        assert label_dict(parse_labels("u1,1\nu2,0\n")) == {"u1": 1, "u2": 0}

    def test_key_table_and_int8_column_in_first_seen_order(self):
        users, labels = parse_labels("u2,0\nu1,1\nu2,0\nu3,1\n")
        assert isinstance(users, KeyTable)
        assert users.ids == ["u2", "u1", "u3"]
        assert codes_of(users, ["u1", "u3", "u2", "u4"]).tolist() == [1, 2, 0, -1]
        assert labels.dtype == np.int8
        assert labels.tolist() == [0, 1, 1]
        users, labels = parse_labels("")
        assert len(users) == 0 and labels.dtype == np.int8 and labels.shape == (0,)

    def test_consistent_duplicate_tolerated(self):
        assert label_dict(parse_labels("u1,1\nu1,1\n")) == {"u1": 1}

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(InputError, match="conflict"):
            parse_labels("u1,1\nu1,0\n")

    def test_label_outside_binary_rejected(self):
        with pytest.raises(InputError):
            parse_labels("u1,2\n")

    def test_label_outside_binary_names_the_line(self):
        with pytest.raises(InputError) as got:
            parse_labels("u1,1\nu2,2\n")
        assert str(got.value) == "labels line 2: label must be 0 or 1, got 2"



class TestBindDataset:
    def test_basic_bind(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p1,0.9\nb,p1,0.1\n")
        labels = parse_labels("a,1\n")
        ds = bind_dataset(graph, scores, labels)
        assert ds.graph.node_count == 2
        assert ds.labels.dtype == np.int8
        assert ds.labels.tolist() == [1, -1]
        assert ds.discard_summary["labeled_users"] == 1

    def test_bind_rejects_label_outside_binary(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p,0.9\nb,p,0.1\n")
        with pytest.raises(InputError) as got:
            bind_dataset(graph, scores, label_table({"a": 1, "b": 2}))
        assert str(got.value) == "label must be 0 or 1, got 2"

    @pytest.mark.parametrize("column", [[1], [1, 0, 1], [[1, 0]], 1])
    def test_bind_rejects_a_label_column_unlike_its_table(self, column):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p,0.9\nb,p,0.1\n")
        users = KeyTable.of(["a", "b"])
        with pytest.raises(InputError) as got:
            bind_dataset(graph, scores, (users, np.array(column, dtype=np.int8)))
        assert str(got.value) == "label column must hold one entry per labeled user"
        ds = bind_dataset(graph, scores, (users, np.array([1, 0], dtype=np.int8)))
        assert ds.labels.tolist() == [1, 0]

    def test_wcc_restriction_drops_and_counts(self):
        graph = build_graph([("a", "b"), ("b", "c"), ("x", "y")])
        scores = parse_scores(
            "a,p,0.9\nb,p,0.1\nc,p,0.2\nx,p,0.5\ny,p,0.6\n"
        )
        labels = parse_labels("a,1\nx,0\n")
        ds = bind_dataset(
            graph, scores, labels, BindPolicy(restrict_to_wcc=True)
        )
        assert ds.graph.node_count == 3
        assert ds.discard_summary["dropped_by_wcc"] == 2
        assert ds.discard_summary["dropped_scored_users"] == 2
        assert ds.discard_summary["dropped_labels"] == 1
        assert ds.graph.ids == ["a", "b", "c"]
        assert ds.labels.tolist() == [1, -1, -1]

    def test_label_for_unknown_user_rejected(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p,0.9\n")
        labels = parse_labels("zzz,1\n")
        with pytest.raises(InputError, match="unknown"):
            bind_dataset(graph, scores, labels)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,0\na,1\nzzz,1\nb,0\n", "label for unknown user 'zzz'"),
            ("x,0\na,1\nb,0\nzzz,1\n", "labeled user 'b' has no score record"),
        ],
    )
    @pytest.mark.parametrize("wcc", [False, True])
    def test_error_names_the_first_bad_label_in_file_order(self, text, message, wcc):
        graph = build_graph([("a", "b"), ("b", "c"), ("x", "y")])
        scores = parse_scores("a,p,0.9\nx,p,0.5\n")
        with pytest.raises(InputError) as got:
            bind_dataset(graph, scores, parse_labels(text), BindPolicy(restrict_to_wcc=wcc))
        assert str(got.value).startswith(message)

    def test_labeled_user_without_scores_needs_policy(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p,0.9\n")
        labels = parse_labels("b,0\n")
        with pytest.raises(InputError, match="no score record"):
            bind_dataset(graph, scores, labels)
        ds = bind_dataset(
            graph, scores, labels, BindPolicy(allow_zero_post_users=True)
        )
        assert score_dict(ds.scores) == {"a": [0.9], "b": []}

    def test_scored_user_missing_from_graph_kept_as_isolated(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p,0.9\nghost,p,0.5\n")
        ds = bind_dataset(graph, scores)
        assert "ghost" in ds.graph.ids
        assert ds.graph.out_degrees()[ds.graph.ids.index("ghost")] == 0

    def test_nothing_dropped_keeps_the_parsed_table(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("b,p,0.1\na,p,0.9\na,q,0.8\n")
        ds = bind_dataset(graph, scores, parse_labels("a,1\n"))
        assert ds.scores.users() == ds.graph.ids == ["a", "b"]
        assert ds.scores.offsets.tolist() == [0, 2, 3]
        assert ds.scores.values.tolist() == [0.9, 0.8, 0.1]
        assert ds.discard_summary["dropped_scored_users"] == 0

    def test_bound_table_shares_the_graph_index(self):
        graph = build_graph(read_edges("a,b\n"))
        for scores in ("b,p,0.1\na,p,0.9\n", "a,p,0.9\nghost,p,0.5\n"):
            ds = bind_dataset(graph, parse_scores(scores))
            assert ds.scores.id_keys is ds.graph.id_keys
            codes = codes_of(ds.scores.id_keys, ds.graph.ids)
            assert codes.tolist() == list(range(ds.graph.node_count))
        # extending the graph with "ghost" left the input graph's table as it was
        assert codes_of(graph.id_keys, ["a", "b", "ghost"]).tolist() == [0, 1, -1]
        assert graph.ids == ["a", "b"]

    def test_repeated_graph_id_cannot_shift_the_key_table(self):
        # three ids over two distinct ones would leave "b" at code 1 in the
        # key table but at node 2, so bind would read "c"'s scores as absent
        with pytest.raises(InputError, match="repeated id 'a'"):
            SocialGraph(["a", "a", "b"], np.array([0, 1]), np.array([2, 2]))
        graph = SocialGraph(["a", "c", "b"], np.array([0, 1]), np.array([2, 2]))
        scores = parse_scores("c,p,0.9\nb,p,0.1\n")
        ds = bind_dataset(graph, scores, label_table({"c": 1, "b": 0}))
        assert ds.labels.tolist() == [-1, 1, 0]
        assert score_dict(ds.scores) == {"a": [], "c": [0.9], "b": [0.1]}

    def test_non_string_label_user_rejected(self):
        # a label pair holds its users in a key table, which takes only strings
        with pytest.raises(InputError) as got:
            label_table({"a": 0, 5: 1})
        assert str(got.value) == "user id must be a string, got 5"

    def test_misaligned_dataset_rejected(self):
        graph = build_graph([("a", "b")])
        for table in ({"b": [0.1], "a": [0.9]}, {"a": [0.9]}):
            with pytest.raises(InputError, match="node order"):
                Dataset(graph, ScoreTable.from_mapping(table), np.full(2, -1, dtype=np.int8))

    def test_misshapen_or_nonbinary_labels_rejected(self):
        graph = build_graph([("a", "b")])
        table = ScoreTable.from_mapping({"a": [0.9], "b": [0.1]})
        for labels, message in (
            ([1], "one entry per graph node"),
            ([1, -1, 0], "one entry per graph node"),
            ([1, 2], "got 2"),
            ([-2, 0], "got -2"),
        ):
            with pytest.raises(InputError, match=message):
                Dataset(graph, table, np.array(labels, dtype=np.int8))
        assert Dataset(graph, table, np.array([1, -1], dtype=np.int8)).labels.tolist() == [1, -1]

    def test_never_invents_users(self):
        graph = build_graph([("a", "b")])
        scores = parse_scores("a,p,0.9\n")
        ds = bind_dataset(graph, scores)
        assert set(ds.graph.ids) <= {"a", "b"}

    def test_labeled_indices_sorted_and_aligned(self):
        graph = build_graph([("b", "a"), ("a", "c")])
        scores = parse_scores("a,p,0.9\nb,p,0.1\nc,p,0.2\n")
        labels = parse_labels("c,1\nb,0\n")
        ds = bind_dataset(graph, scores, labels)
        idx, y = ds.labeled_indices()
        assert idx.dtype == y.dtype == np.int64
        assert [ds.graph.ids[int(i)] for i in idx] == ["b", "c"]
        assert y.tolist() == [0, 1]


class TestRoundTrips:
    def test_scores_round_trip_bit_exact(self):
        rng = np.random.default_rng(41)
        table = ScoreTable.from_mapping(
            {f"u{i}": rng.random(int(rng.integers(0, 8))) for i in range(20)}
        )
        buf = io.StringIO()
        write_scores(table, buf)
        back = parse_scores(buf.getvalue())
        # zero-post users cannot survive the file format, so compare posters
        posters = {u: s for u, s in score_dict(table).items() if s}
        assert back.users() == list(posters)
        assert score_dict(back) == posters

    def test_edges_round_trip(self):
        g = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
        buf = io.StringIO()
        write_edges(g, buf)
        again = build_graph(read_edges(buf.getvalue()))
        assert sorted(edge_pairs(again)) == sorted(edge_pairs(g))

    def test_labels_round_trip(self):
        graph = build_graph([("u3", "u1"), ("u1", "u4")])
        labels = parse_labels("u1,1\nu2,0\nu3,1\n")
        policy = BindPolicy(allow_zero_post_users=True)
        ds = bind_dataset(graph, ScoreTable.from_mapping({"u2": [0.5]}), labels, policy)
        buf = io.StringIO()
        write_labels(ds, buf)
        assert buf.getvalue() == "u3,1\nu1,1\nu2,0\n"  # node order
        assert label_dict(parse_labels(buf.getvalue())) == label_dict(labels)


# -- bulk parsers against the line-by-line oracles ------------------------------

# "a", "a\x00" and "a\x00\x00" differ only by trailing zero bytes; the
# 8-, 16-, 64- and 65-byte ids fill one, two and eight 8-byte words exactly
# and one byte past them; controls, a zero-width space and a byte-order mark
# are no whitespace, so they stay inside ids
IDS = ["a", "b", "c", "dd", "ü", "x y", "名前", "a\x00", "a\x00\x00", "abcdefgh", "ü" * 8,
       "y" * 64, "y" * 63 + "é", "\x01", "a\x7f", "\u200bb", "\ufeffc", "#h"]
# ASCII whitespace is trimmed by byte offsets; a block holding a non-ASCII one
# is stripped in Python first
PAD = st.sampled_from(["", " ", "\t", "  ", "\v", "\f", "\x1c", "\x85", "\xa0", "\u2000",
                       "\u3000"])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def edge_line(draw, bad: bool):
    u, v = draw(st.sampled_from(IDS)), draw(st.sampled_from(IDS))
    good = [
        f"{draw(PAD)}{u}{draw(PAD)},{draw(PAD)}{v}{draw(PAD)}" if u != v else f"{u},z",
        f"{draw(PAD)}# {u},{v},x",
        draw(PAD),
    ]
    broken = [f"{u},{v},x", u, f",{v}", f"{u}, ", f"{draw(PAD)}{u},{u}"]
    return draw(st.sampled_from(good + broken if bad else good))


# score texts whose bits a parser may get wrong: the repr of any double in
# [0, 1] (subnormals and -0.0 among them), 17 to 25 significant digits, and
# an underscore, which float() accepts between digits
SCORE_TEXT = st.one_of(
    st.floats(-0.0, 1.0).map(repr),
    st.text("0123456789", min_size=17, max_size=25).map(lambda d: f"0.{d}"),
    st.sampled_from(["0.0_1", "-0.0", "-0"]),
)


@st.composite
def score_line(draw, bad: bool):
    u = draw(st.sampled_from(IDS[:-1]))  # "#h" is a plain id in a score file
    score = draw(st.one_of(
        # float() skips leading whitespace but for \x1c-\x1f, which str.strip removes
        st.sampled_from(["0", "1", "0.5", " 0.25 ", "1e-3", "0.1234567890123", "\v0.5",
                         "\u30000.5", "\x85 1"]),
        SCORE_TEXT,
    ))
    good = [f"{draw(PAD)}{u},p{draw(PAD)},{score}{draw(PAD)}", draw(PAD)]
    broken = [f"{u},p", f"{u},p,0.5,x", " ,p,0.5", f"{u},p,high", f"{u},p,1.5",
              f"{u},p,-0.0001", f"{u},p,nan", f"{u},p,", f"{u},p,\x1c0.5", f"{u},p,0.5\x00"]
    return draw(st.sampled_from(good + broken if bad else good))


LABEL_OF = {u: ("0", "1")[i % 2] for i, u in enumerate(IDS)}
# int() reads them all
SPELLED = {"0": ["0", "00", "٠", " 0 ", "\f0"], "1": ["1", "+1", "١", "1 ", "\xa01"]}


@st.composite
def label_line(draw, bad: bool):
    u = draw(st.sampled_from(IDS))  # "#h" is a plain id in a label file
    label = draw(st.sampled_from(SPELLED[LABEL_OF[u]]))
    good = [f"{draw(PAD)}{u}{draw(PAD)},{label}", draw(PAD)]
    flipped = "1" if LABEL_OF[u] == "0" else "0"
    broken = [u, f"{u},1,x", " ,1", f",{label}", f"{u},2", f"{u},-1", f"{u},x", f"{u},",
              f"{u},1.0", f"{u},{flipped}", f"{u},\x1f{label}"]
    return draw(st.sampled_from(good + broken if bad else good))


@st.composite
def text_file(draw, line):
    bad = draw(st.booleans())
    lines = draw(st.lists(line(bad), max_size=30))
    text = "".join(f"{body}{draw(ENDS)}" for body in lines)
    if lines and draw(st.booleans()):
        text = text[: len(text) - 1]  # last line without its newline
    return draw(st.sampled_from(["", "\ufeff"])) + text


# ids that need no strip: printable, no space or comma, 1-100 UTF-8 bytes,
# multibyte characters and '#' inside; the "x" runs share prefixes across
# the 8-byte words of a packed key
BARE_ID = st.one_of(
    st.sampled_from(["a", "b", "u1", "a#", "#h", "ü", "名前", "abcdefgh", "ü" * 8, "y" * 64,
                     "y" * 63 + "é"]),
    st.builds(lambda n, c: "x" * n + c, st.integers(0, 99), st.sampled_from("abé#")),
    st.text(
        st.characters(min_codepoint=0x21).filter(lambda c: c.isprintable() and c != ","),
        min_size=1,
        max_size=25,
    ).filter(lambda s: len(s.encode()) <= 100),
)
BARE_SCORES = ["0", "1", "0.5", ".25", "1e-3", "0.1234567890123", "١", "٠.٥"]


@st.composite
def bare_file(draw, kind: str):
    """A whitespace-free file: few distinct ids, so most lines repeat one."""
    pool = draw(st.lists(BARE_ID, min_size=2, max_size=6, unique=True))
    bad = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        u, v = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if kind == "edges":
            lines.append(f"{u},{v}" if u != v or bad else f"{u},{v}z")
        elif kind == "scores":
            score = draw(st.one_of(
                st.sampled_from(BARE_SCORES + (["high", "1.5", "nan"] if bad else [])), SCORE_TEXT
            ))
            lines.append(f"{u},{v},{score}")
        else:
            label = "01"[pool.index(u) % 2]
            lines.append(f"{u},{draw(st.sampled_from(['2', '1' if label == '0' else '0']))}"
                         if bad and draw(st.booleans()) else f"{u},{label}")
    text = "".join(f"{line}\n" for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def outcome(parse, stream):
    try:
        return "ok", parse(stream)
    except InputError as exc:
        return "error", str(exc)


def streams(text: str):
    """The text as a string and as a file would be opened: utf-8-sig, universal newlines."""
    yield text
    yield io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8-sig")


def check_edges(text):
    for stream, oracle_stream in zip(streams(text), streams(text)):
        kind, got = outcome(read_edges, stream)
        want_kind, want = outcome(naive_read_edges, oracle_stream)
        assert kind == want_kind
        if kind == "error":
            assert got == want
            continue
        assert edge_pairs(got) == want
        ids, src, dst = naive_build_graph(want)
        assert got.ids == ids
        assert len(got.id_keys) == len(ids)
        assert codes_of(got.id_keys, ids).tolist() == list(range(len(ids)))
        assert np.array_equal(got.src, src)
        assert np.array_equal(got.dst, dst)
        assert len(got) == len(want)


def check_scores(text):
    for stream, oracle_stream in zip(streams(text), streams(text)):
        kind, got = outcome(parse_scores, stream)
        want_kind, want = outcome(naive_parse_scores, oracle_stream)
        assert kind == want_kind
        if kind == "error":
            assert got == want
            continue
        assert got.users() == list(want)
        flat = np.array([s for scores in want.values() for s in scores], dtype=np.float64)
        # bit for bit: 0.0 and -0.0 differ
        assert np.array_equal(got.values.view(np.uint64), flat.view(np.uint64))
        assert np.diff(got.offsets).tolist() == [len(v) for v in want.values()]
        assert got.total_posts == len(flat)


def check_labels(text):
    for stream, oracle_stream in zip(streams(text), streams(text)):
        kind, got = outcome(parse_labels, stream)
        want_kind, want = outcome(naive_parse_labels, oracle_stream)
        assert kind == want_kind
        if kind == "error":
            assert got == want
            continue
        assert got[1].dtype == np.int8
        assert list(label_dict(got).items()) == list(want.items())


BLOCKS = st.sampled_from([1, 3, 16, ingest._BLOCK_CHARS])


class TestBulkParsersMatchOracles:
    @settings(max_examples=PARSER_EXAMPLES)
    @given(text=text_file(edge_line), block=BLOCKS)
    def test_read_edges(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            check_edges(text)

    @settings(max_examples=PARSER_EXAMPLES)
    @given(text=text_file(score_line), block=BLOCKS)
    def test_parse_scores(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            check_scores(text)

    @settings(max_examples=PARSER_EXAMPLES)
    @given(text=text_file(label_line), block=BLOCKS)
    def test_parse_labels(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            check_labels(text)

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("q,r,s", "expected 'src_id,dst_id'"),
            (" ,r", "empty user id"),
            ("r,r", "self-loop on 'r'"),
        ],
    )
    def test_error_past_the_first_block(self, bad_line, message):
        lines = [f"n{i},n{i + 1}" for i in range(200_000)]
        lines[156_234] = bad_line
        for end in ("\r\n", "\n"):  # with "\n", every block but the bad line's is bare
            text = end.join(lines) + end
            assert len(text) > 2 * ingest._BLOCK_CHARS
            for stream in streams(text):
                with pytest.raises(InputError) as exc:
                    read_edges(stream)
                assert str(exc.value).startswith("edges line 156235: ")
                assert message in str(exc.value)
            with pytest.raises(InputError) as want:
                naive_read_edges(text)
            with pytest.raises(InputError) as got:
                read_edges(text)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("block", [1, 2, 3, 16])
    def test_blocks_end_only_at_newlines(self, block):
        # a stream opened with newline="" also ends lines at a lone "\r", but
        # a block reads on to a "\n": the "\r" stays in its line, as in a str
        def raw(text):
            return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")

        text = "a\rb,c\r\nd,e\r\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            assert read_edges(raw(text)).ids == ["a\rb", "c", "d", "e"]
            with pytest.raises(InputError) as got:
                read_edges(raw(text + "f\r,f\n"))
        assert str(got.value) == "edges line 3: self-loop on 'f'"

    def test_scores_span_blocks(self):
        rows = [f"u{i % 997},p{i},{(i % 101) / 100}" for i in range(200_000)]
        text = "\n".join(rows) + "\n"
        assert len(text) > 2 * ingest._BLOCK_CHARS
        table = parse_scores(text)
        want = naive_parse_scores(text)
        assert list(score_dict(table).items()) == list(want.items())
        bad = text.replace("u5,p159525,", "u5,p159525,x", 1)
        with pytest.raises(InputError, match="line 159526: non-numeric"):
            parse_scores(bad)

    def test_labels_span_blocks(self):
        rows = [f"u{i % 99_991},{i % 99_991 % 2}" for i in range(300_000)]
        text = "\n".join(rows) + "\n"
        assert len(text) > 2 * ingest._BLOCK_CHARS
        want = naive_parse_labels(text)
        assert list(label_dict(parse_labels(text)).items()) == list(want.items())
        rows[250_000] = "u50018,1"  # its first row, 50019, says 0
        bad = "\n".join(rows) + "\n"
        with pytest.raises(InputError) as got:
            parse_labels(bad)
        assert str(got.value) == "labels line 250001: conflicting labels for 'u50018': 0 vs 1"
        with pytest.raises(InputError) as want:
            naive_parse_labels(bad)
        assert str(got.value) == str(want.value)


def slow_steps(text: str, edges: bool) -> list[str]:
    """The steps past the bare test that tokenizing ``text`` as one block takes."""
    taken = []
    strip, trimmed = ingest._strip_lines, ingest._Block._trimmed.__func__

    def spy_strip(*args):
        taken.append("strip")
        return strip(*args)

    def spy_trimmed(cls, *args):
        taken.append("trim")
        return trimmed(cls, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_strip_lines", spy_strip)
        mp.setattr(ingest._Block, "_trimmed", classmethod(spy_trimmed))
        ingest._Block.of(text, 2, edges)
    return taken


class TestBarePath:
    """Whitespace-free blocks: tokenized on byte offsets, one string per distinct id."""

    @settings(max_examples=PARSER_EXAMPLES)
    @given(text=bare_file("edges"), block=BLOCKS)
    def test_read_edges(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            check_edges(text)

    @settings(max_examples=PARSER_EXAMPLES)
    @given(text=bare_file("scores"), block=BLOCKS)
    def test_parse_scores(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            check_scores(text)

    @settings(max_examples=PARSER_EXAMPLES)
    @given(text=bare_file("labels"), block=BLOCKS)
    def test_parse_labels(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_CHARS", block)
            check_labels(text)

    @pytest.mark.parametrize(
        "text, bare",
        [
            ("a,b\nc,d\n", True),
            ("ü,名前\n#a,#\n", True),
            ("a,b#\n#c,d\n", False),  # a comment line
            ("a, b\n", False),
            ("a,b\r\n", False),
            ("a,\u00a0b\n", False),  # no-break space: strip removes it
            ("\ufeffa,b\n", True),  # a byte-order mark is no whitespace
            ("a,b\n\nc,d\n", False),  # a blank line
            ("a,b,c\n", False),
            ("a,\n", False),
        ],
    )
    def test_which_blocks_are_bare(self, text, bare):
        """Bare blocks are neither stripped nor trimmed; every block parses like the oracle."""
        edges = not text.startswith("ü")
        assert (slow_steps(text, edges) == []) == bare
        (check_edges if edges else check_labels)(text)

    @pytest.mark.parametrize(
        "text, fields, edges, refused",
        [
            ("a,b\n", 2, True, False),
            (" ,b\n", 2, True, True),
            ("a,\t\n", 2, True, True),
            ("　,b\n", 2, True, True),  # stripped in Python first
            (" ,p,0.5\n", 3, False, True),
            ("u, ,0.5\n", 3, False, False),  # a score line's post id may be empty
            ("u,,0.5\n", 3, False, False),
            ("\f,1\n", 2, False, True),
        ],
    )
    def test_the_tokenizer_refuses_empty_ids(self, text, fields, edges, refused):
        assert (ingest._Block.of(text, fields, edges) is None) == refused

    def test_non_ascii_digit_score(self):
        for text in ("u,p,١\n", "u,p,٠.٥\nv,q,0.25\n"):
            check_scores(text)
        assert parse_scores("u,p,١\n").values.tolist() == [1.0]

    def test_long_ids_intern_every_token(self):
        # ids past eight 8-byte words, and short ids beside one long id: keys
        # are made per byte length, so a block's keys stay within 8 bytes per
        # byte of its text (the id's bytes, or one word for a short id)
        long_ids = [f"{'y' * 64}{c}" for c in "abc"] + ["y" * 64, "x"]
        text = "".join(f"{long_ids[i % 5]},{long_ids[(i + 1) % 5]}\n" for i in range(50))
        short = "".join(f"{'ab'[i % 2]},{'cde'[i % 3]}\n" for i in range(100)) + f"{'y' * 64},a\n"
        made = []  # [key bytes, text bytes] of each block
        intern, keys = graph_module.KeyTable.intern, graph_module._keys

        def spy_intern(table, data, starts, ends):
            made.append([0, len(data)])
            return intern(table, data, starts, ends)

        def spy_keys(data, starts, length):
            key = keys(data, starts, length)
            assert key.itemsize == max(length, 8)
            made[-1][0] += key.nbytes
            return key

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module.KeyTable, "intern", spy_intern)
            mp.setattr(graph_module, "_keys", spy_keys)
            check_edges(text)
            check_scores(text.replace("\n", ",0.5\n"))
            check_edges(short)
        assert made and all(used <= 8 * size for used, size in made)


class TestWhitespace:
    def test_tables_hold_what_str_isspace_holds(self):
        """Every code point: the tokenizer trims it exactly when ``str.isspace`` holds."""
        everything = "".join(map(chr, range(0x110000)))
        spaces = {c for c in everything if c.isspace()}
        ascii_spaces = {chr(b) for b in np.flatnonzero(ingest._IS_SPACE)}
        wide_spaces = set(ingest._WIDE_SPACE.findall(everything))
        assert all(c.isascii() for c in ascii_spaces)
        assert not any(c.isascii() for c in wide_spaces)
        assert ascii_spaces | {"\n"} | wide_spaces == spaces  # a newline ends the line

    # an ASCII pad leaves the block to the byte trim unless ``c`` is a wide
    # space; a wide pad makes the whole block take the Python strip
    @pytest.mark.parametrize("pad", ["\x1c", "\u3000"])
    def test_every_space_around_every_field(self, pad):
        """Each whitespace character, doubled too, and some that are none, around each field."""
        spaces = [c for c in map(chr, range(0x3001)) if c.isspace()]
        for c in spaces + [c * 2 for c in spaces] + ["\x00", "\x7f", "\u200b", "\ufeff", "#"]:
            check_edges(f"{c}a{c},{c}b{c}\n{pad}c,d{c}\n")
            check_scores(f"{c}a{c},{c}p{c},{c}0.5{c}\n{pad}b,q,{c}1\n")
            check_labels(f"{c}a{c},{c}1{c}\n{pad}b,{pad}0{c}\n")

    @pytest.mark.parametrize(
        "text, stripped",
        [
            ("a,b\nc,d\n", False),
            ("a, b\n", False),
            ("\ta\v,\fb\x1c\n", False),
            ("a,b\r\n", False),
            ("a,b\n\nc,d\n", False),
            (" # a, b\nc,d\n", False),
            ("a,b,c\n", False),
            ("a, \n", False),
            ("a\x00,\x7fb\n\x01c,d\n", False),
            ("a\u200b, \ufeffb\n", False),
            ("a,\u00a0b\n", True),
            ("a\x85,b\n", True),
            ("a,b\u3000\n", True),
            ("a\u2028b,c\n", True),  # inside an id, but the block is stripped all the same
        ],
    )
    def test_which_blocks_take_the_python_strip(self, text, stripped):
        """Only non-ASCII whitespace makes a block take it; every block parses like the oracle."""
        assert ("strip" in slow_steps(text, True)) == stripped
        check_edges(text)

    def test_lone_surrogates_stay_in_ids(self):
        assert read_edges("\ud800,b\n \udfff ,\ud800\n").ids == ["\ud800", "b", "\udfff"]


# Python pairs may hold ids no file line can: newlines and commas
PAIR_IDS = IDS + ["a\nb", "\n", "a,b", ","]


class TestBuildGraphMatchesOracle:
    @given(pairs=st.lists(st.tuples(*[st.sampled_from(PAIR_IDS)] * 2), max_size=40))
    def test_ids_codes_and_csr(self, pairs):
        try:
            ids, src, dst = naive_build_graph(pairs)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                build_graph(pairs)
            assert str(got.value) == str(exc)
            return
        g = build_graph(pairs)
        assert g.ids == ids
        assert codes_of(g.id_keys, ids).tolist() == list(range(len(ids)))
        for (indptr, indices), (want_ptr, want_idx) in (
            (g.csr("out"), lexsort_csr(src, dst, len(ids))),
            (g.csr("in"), lexsort_csr(dst, src, len(ids))),
        ):
            assert np.array_equal(indptr, want_ptr)
            assert np.array_equal(indices, want_idx)
            assert indices.dtype == want_idx.dtype

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([("a", "b"), ("a", "b", "c")], "edge 2: expected a (src, dst) pair"),
            ([("a", "b"), 7], "edge 2: expected a (src, dst) pair, got 7"),
            ([("a", "b"), ("", "b")], "edge 2: empty user id in ('', 'b')"),
            ([("a", "b"), ("c", "c")], "edge 2: self-loop on 'c'"),
            ([(1, 2)], "edge 1: expected string user ids, got (1, 2)"),
            ([("a", "b"), (0, 1)], "edge 2: expected string user ids, got (0, 1)"),
        ],
    )
    def test_pair_errors_name_the_position(self, pairs, message):
        with pytest.raises(InputError) as want:
            naive_build_graph(pairs)
        with pytest.raises(InputError) as got:
            build_graph(pairs)
        assert str(got.value) == str(want.value)
        assert message in str(got.value)


NODES = ["a", "b", "c", "d", "e", "f"]
OUTSIDERS = ["x", "y"]  # scored, but in no edge
UNKNOWN = ["w", "z", "zz", "zzz"]  # in no input


@st.composite
def bind_inputs(draw):
    """Graph, score table, labels and policy for a bind.

    Scored users may sit outside the graph or own zero posts; labels may
    name users outside the graph, unscored users or unknown users.
    """
    pair = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda p: p[0] != p[1]
    )
    graph = build_graph(draw(st.lists(pair, min_size=1, max_size=10)))
    scored = draw(st.lists(st.sampled_from(NODES + OUTSIDERS), unique=True))
    posts = st.lists(st.floats(0.0, 1.0), max_size=4)
    scores = ScoreTable.from_mapping({u: draw(posts) for u in scored})
    labels = label_table(draw(
        st.dictionaries(st.sampled_from(NODES + OUTSIDERS + UNKNOWN), st.integers(0, 1), max_size=12)
    ))
    policy = BindPolicy(draw(st.booleans()), draw(st.booleans()))
    return graph, scores, labels, policy


class TestBindMatchesOracle:
    @settings(max_examples=BIND_EXAMPLES)
    @given(bind_inputs())
    def test_summary_posts_and_features(self, inputs):
        graph, scores, labels, policy = inputs
        try:
            ids, edges, posts, bound_labels, summary = naive_bind(
                graph, scores, labels, policy.restrict_to_wcc, policy.allow_zero_post_users
            )
        except InputError as exc:
            with pytest.raises(InputError) as got:
                bind_dataset(graph, scores, labels, policy)
            assert str(got.value) == str(exc)
            return
        ds = bind_dataset(graph, scores, labels, policy)
        assert list(ds.discard_summary.items()) == list(summary.items())
        assert ds.graph.ids == ids
        assert codes_of(ds.graph.id_keys, ids).tolist() == list(range(len(ids)))
        assert sorted(edge_pairs(ds.graph)) == sorted(edges)
        assert ds.scores.users() == ds.graph.ids
        assert list(score_dict(ds.scores).values()) == posts
        column = [bound_labels.get(u, -1) for u in ids]
        assert ds.labels.dtype == np.int8
        assert ds.labels.tolist() == column
        config = AggregationConfig(tau_t=0.5, tau_fixed=1, k_bins=3)
        for mode in ("fixed", "multimodal"):
            got = build_features(ds, mode, config).values
            assert np.max(np.abs(got - naive_feature_matrix(ds, mode, config))) < 1e-12


class TestWritersMatchOracles:
    def test_synth_files(self):
        from hateagg import SynthConfig, generate

        ds = generate(SynthConfig(n_users=300, n_labeled=120, seed=5, p_in=0.03))
        for write, naive, item in (
            (write_edges, naive_write_edges, ds.graph),
            (write_scores, naive_write_scores, ds.scores),
            (write_labels, naive_write_labels, ds),
        ):
            buf = io.StringIO()
            write(item, buf)
            assert buf.getvalue() == naive(item)


# ids a writer must refuse: padded, holding a line end or comma, empty,
# starting with a byte-order mark, or (as an edge source) starting with '#'
WRITE_IDS = PAIR_IDS + [" a", "a\t", "\u3000a", "a\x85", "a\rb", "", "#c", "d#", "\ufeffa"]


def readable(u: str) -> bool:
    return (
        bool(u) and u == u.strip() and u[0] != "\ufeff" and not any(c in u for c in ",\n\r")
    )


class TestWritersReadBack:
    """Each writer writes files the parsers read back as they were, or refuses."""

    @given(pairs=st.lists(st.tuples(*[st.sampled_from(WRITE_IDS)] * 2), min_size=1, max_size=12))
    def test_edges(self, pairs):
        try:
            graph = build_graph(pairs)
        except InputError:
            return
        buf = io.StringIO()
        ok = all(readable(u) and readable(v) and u[0] != "#" for u, v in edge_pairs(graph))
        if not ok:
            with pytest.raises(InputError, match="cannot write id"):
                write_edges(graph, buf)
            return
        write_edges(graph, buf)
        assert edge_pairs(read_edges(buf.getvalue())) == edge_pairs(graph)

    @given(users=st.lists(st.sampled_from(WRITE_IDS), min_size=1, max_size=8, unique=True))
    def test_scores_and_labels(self, users):
        table = ScoreTable.from_mapping({u: [0.25] * (i % 3) for i, u in enumerate(users)})
        posters = [u for i, u in enumerate(users) if i % 3]
        buf = io.StringIO()
        if all(map(readable, posters)):
            write_scores(table, buf)
            assert list(score_dict(parse_scores(buf.getvalue()))) == posters
        else:
            with pytest.raises(InputError, match="cannot write id"):
                write_scores(table, buf)
        graph = SocialGraph(users + ["zz" * 9], np.array([len(users)] * len(users)),
                            np.arange(len(users)))
        labels = label_table({u: i % 2 for i, u in enumerate(users)})
        ds = bind_dataset(graph, table, labels, BindPolicy(allow_zero_post_users=True))
        buf = io.StringIO()
        if all(map(readable, users)):
            write_labels(ds, buf)
            assert label_dict(parse_labels(buf.getvalue())) == label_dict(labels)
        else:
            with pytest.raises(InputError, match="cannot write id"):
                write_labels(ds, buf)

    def test_message_names_the_id(self):
        with pytest.raises(InputError) as exc:
            write_edges(build_graph([("a", "b"), ("#c", "a")]), io.StringIO())
        assert str(exc.value) == "cannot write id '#c': it would not read back as itself"
        write_edges(build_graph([("a", "#c")]), io.StringIO())  # a '#' target is no comment


def cli_read_back(tmp_path, write, item, parser):
    """What the command line parses from the file ``write`` makes of ``item``.

    None when the writer refuses an id.
    """
    buf = io.StringIO()
    try:
        write(item, buf)
    except InputError as exc:
        assert "would not read back as itself" in str(exc)
        return None
    path = tmp_path / "written.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    return cli._parse_file(str(path), parser, "written")


class TestByteOrderMarkIds:
    """The command line reads files as utf-8-sig, which drops a leading U+FEFF.

    So an id starting with one, written first in its file, would read back
    without it; each writer refuses it. A U+FEFF later in an id is kept.
    """

    @pytest.mark.parametrize("first", ["\ufeffa", "a\ufeff"])
    def test_edges(self, tmp_path, first):
        graph = build_graph([(first, "b"), ("b", "c")])
        got = cli_read_back(tmp_path, write_edges, graph, read_edges)
        assert got is None or edge_pairs(got) == edge_pairs(graph)
        assert (got is None) == (first[0] == "\ufeff")

    @pytest.mark.parametrize("first", ["\ufeffa", "a\ufeff"])
    def test_scores(self, tmp_path, first):
        table = ScoreTable.from_mapping({first: [0.25], "b": [0.5, 0.75]})
        got = cli_read_back(tmp_path, write_scores, table, parse_scores)
        assert got is None or score_dict(got) == score_dict(table)
        assert (got is None) == (first[0] == "\ufeff")

    @pytest.mark.parametrize("first", ["\ufeffa", "a\ufeff"])
    def test_labels(self, tmp_path, first):
        graph = build_graph([(first, "b"), ("b", "c")])
        labels = label_table({first: 1, "c": 0})
        ds = bind_dataset(graph, ScoreTable.from_mapping({}), labels,
                          BindPolicy(allow_zero_post_users=True))
        got = cli_read_back(tmp_path, write_labels, ds, parse_labels)
        assert got is None or label_dict(got) == label_dict(labels)
        assert (got is None) == (first[0] == "\ufeff")
