from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hateagg import serialize
from hateagg.serialize import (
    dump_json,
    fmt_float,
    render_json,
    write_rows,
)

from oracles import csv_cell, csv_line, naive_escape, naive_write_rows


class TestFmtFloat:
    def test_integral_floats_render_short(self):
        assert fmt_float(1.0) == "1"
        assert fmt_float(0.0) == "0"
        assert fmt_float(-3.0) == "-3"

    def test_seventeen_digit_round_trip(self):
        assert float(fmt_float(0.1)) == 0.1
        assert fmt_float(0.1) == "0.10000000000000001"

    def test_specials(self):
        assert fmt_float(math.nan) == "NaN"
        assert fmt_float(math.inf) == "Infinity"
        assert fmt_float(-math.inf) == "-Infinity"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_double_round_trips(self, x):
        assert float(fmt_float(x)) == x

    def test_negative_zero_round_trips(self):
        assert math.copysign(1.0, float(fmt_float(-0.0))) == -1.0


class TestRenderJson:
    def test_scalars(self):
        assert render_json(None) == "null"
        assert render_json(True) == "true"
        assert render_json(False) == "false"
        assert render_json(7) == "7"
        assert render_json("hi") == '"hi"'

    def test_bool_is_not_int(self):
        # bool subclasses int; the bool branch must win
        assert render_json([True, 1]) != render_json([1, 1])

    def test_insertion_order_preserved(self):
        text = render_json({"zebra": 1, "apple": 2})
        assert text.index("zebra") < text.index("apple")

    def test_empty_containers(self):
        assert render_json({}) == "{}"
        assert render_json([]) == "[]"

    def test_nested_structure_parses_back(self):
        payload = {
            "a": [1, 2.5, None, {"deep": [True, "x"]}],
            "b": {"c": -0.125},
        }
        parsed = json.loads(render_json(payload))
        assert parsed == payload

    def test_numpy_scalars_unwrap(self):
        text = render_json(
            {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}
        )
        assert json.loads(text) == {"i": 3, "f": 0.5, "b": True}

    def test_string_escapes(self):
        tricky = 'quote " slash \\ newline \n tab \t bell \x07'
        assert json.loads(render_json(tricky)) == tricky

    def test_escape_table_matches_per_character_escapes(self):
        every = "".join(map(chr, range(0x110000)))  # lone surrogates among them
        assert render_json(every) == f'"{naive_escape(every)}"'
        assert serialize.json_line({every: 1}) == f'{{"{naive_escape(every)}": 1}}'

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_json(object())

    def test_dump_ends_with_newline(self):
        assert dump_json({"x": 1}).endswith("}\n")

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**53), max_value=2**53),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(),
            ),
            lambda leaf: st.one_of(
                st.lists(leaf, max_size=4),
                st.dictionaries(st.text(max_size=8), leaf, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_stdlib_parses_everything(self, payload):
        parsed = json.loads(render_json(payload))
        assert parsed == payload

    def test_identical_input_identical_bytes(self):
        payload = {"m": [0.1, 0.2], "n": {"q": 1}}
        assert render_json(payload) == render_json(payload)


class TestCsv:
    """The per-cell reference in ``tests/oracles.py`` that ``write_rows`` is checked against."""

    def test_floats_use_full_precision(self):
        assert csv_cell(0.1) == "0.10000000000000001"
        assert csv_cell(1.0) == "1"

    def test_non_floats_pass_through(self):
        assert csv_cell("abc") == "abc"
        assert csv_cell(42) == "42"

    def test_numpy_values_unwrap(self):
        assert csv_cell(np.float64(0.5)) == "0.5"
        assert csv_cell(np.int32(9)) == "9"

    def test_line_joins_with_commas(self):
        assert csv_line(["u1", 2, 0.5]) == "u1,2,0.5"


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    1.0, -3.0, 2.0**53, 1e16, 0.1,
]
CELLS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
    min_size=1,
    max_size=6,
)


# a small pool, so a block repeats its values: the specials above plus a
# negative NaN and one with another payload
NEG_NAN = math.copysign(math.nan, -1.0)
PAYLOAD_NAN = float(np.array(0x7FF8000000000123, dtype=np.uint64).view(np.float64))
POOL = [*SPECIAL_FLOATS, NEG_NAN, PAYLOAD_NAN]
POOL_CELLS = st.sampled_from(POOL)


def csv_line_rows(keys, values) -> str:
    return "".join(csv_line([key, *row]) + "\n" for key, row in zip(keys, values.tolist()))


def slots(bits):
    return (bits * serialize._FIBONACCI) >> np.uint64(64 - serialize._SLOT_BITS)


def colliding_doubles():
    """Two doubles whose bit patterns share a slot of the writer's hash table."""
    bits = np.random.default_rng(2).random(20_000).view(np.uint64)
    order = np.argsort(slots(bits), kind="stable")
    ranked = slots(bits)[order]
    i = int(np.flatnonzero(ranked[1:] == ranked[:-1])[0])
    return bits[order[i]], bits[order[i + 1]]


class TestValueIndex:
    """``_value_index`` is ``np.unique(..., return_inverse=True)``, through the slot table or not."""

    def check(self, bits):
        bits = np.asarray(bits, dtype=np.uint64)
        distinct, index = serialize._value_index(bits)
        want_distinct, want_index = np.unique(bits, return_inverse=True)
        assert np.array_equal(distinct, want_distinct)
        assert np.array_equal(index, want_index.ravel())

    @given(st.lists(POOL_CELLS, min_size=1, max_size=200))
    def test_repeated_values(self, cells):
        self.check(np.array(cells).view(np.uint64))

    def test_values_that_share_a_slot(self):
        a, b = colliding_doubles()
        assert a != b and slots(np.array([a, b]))[0] == slots(np.array([a, b]))[1]
        rng = np.random.default_rng(4)
        self.check(rng.choice(np.array([a, b, 7, 1 << 62], dtype=np.uint64), size=5000))

    @pytest.mark.parametrize("extra", [-1, 0, 1, 3000])
    def test_distinct_counts_around_the_table_bound(self, extra):
        n = (1 << serialize._SLOT_BITS // 2) + extra
        values = np.random.default_rng(n).random(n).view(np.uint64)
        self.check(np.concatenate([values, values[::-1], values[:7]]))

    def test_one_value(self):
        self.check([5] * 10)
        self.check([5])


class TestWriteRows:
    @given(
        data=st.data(),
        n_rows=st.integers(0, 12),
        k=st.integers(0, 4),
        block=st.sampled_from([1, 3, 5, serialize._BLOCK_ROWS]),
    )
    def test_matches_csv_line(self, data, n_rows, k, block):
        keys = data.draw(st.lists(IDS, min_size=n_rows, max_size=n_rows))
        cells = data.draw(st.lists(CELLS, min_size=n_rows * k, max_size=n_rows * k))
        values = np.array(cells, dtype=np.float64).reshape(n_rows, k)
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_BLOCK_ROWS", block)
            write_rows(buf, [keys], values)
        assert buf.getvalue() == csv_line_rows(keys, values)

    @given(
        data=st.data(),
        n_rows=st.integers(0, 14),
        k=st.integers(0, 4),
        block=st.sampled_from([1, 3, 5, serialize._BLOCK_ROWS]),
        two_keys=st.booleans(),
    )
    def test_matches_the_per_row_oracle(self, data, n_rows, k, block, two_keys):
        keys = [data.draw(st.lists(IDS, min_size=n_rows, max_size=n_rows))]
        key_fmt = "%s"
        if two_keys:
            posts = data.draw(st.lists(st.integers(0, 99), min_size=n_rows, max_size=n_rows))
            keys.append(np.array(posts, dtype=np.int64))
            key_fmt = "%s,p%d"
        cells = data.draw(st.lists(POOL_CELLS, min_size=n_rows * k, max_size=n_rows * k))
        values = np.array(cells, dtype=np.float64).reshape(n_rows, k)
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_BLOCK_ROWS", block)
            write_rows(buf, keys, values, key_fmt=key_fmt)
        assert buf.getvalue() == naive_write_rows(keys, values, key_fmt)

    def test_signed_zeros_and_nans_in_one_block(self):
        values = np.array([[0.0, -0.0], [-0.0, 0.0], [math.nan, NEG_NAN], [PAYLOAD_NAN, 0.0]])
        assert np.signbit(values[2, 1]) and not np.signbit(values[2, 0])
        buf = io.StringIO()
        write_rows(buf, [["a", "b", "c", "d"]], values)
        assert buf.getvalue() == "a,0,-0\nb,-0,0\nc,NaN,NaN\nd,NaN,0\n"
        assert buf.getvalue() == naive_write_rows([["a", "b", "c", "d"]], values)

    def test_repeated_values_past_a_block_boundary(self):
        n_rows = 2 * serialize._BLOCK_ROWS + 5
        rng = np.random.default_rng(9)
        values = rng.choice(np.array(POOL), size=(n_rows, 23))
        keys = [np.array([f"u{i}" for i in range(n_rows)], dtype=object)]
        buf = io.StringIO()
        write_rows(buf, keys, values)
        got, want = buf.getvalue().splitlines(), naive_write_rows(keys, values).splitlines()
        assert len(got) == len(want) == n_rows
        # the first differing row, not a diff of 8k-line strings
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None

    def test_rows_past_a_block_boundary(self):
        n_rows = 2 * serialize._BLOCK_ROWS + 17
        rng = np.random.default_rng(3)
        values = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
        values[serialize._BLOCK_ROWS - 1, 0] = math.nan
        values[serialize._BLOCK_ROWS, 2] = -math.inf
        values[-1, 1] = -0.0
        keys = np.array([f"ü{i}" for i in range(n_rows)], dtype=object)
        buf = io.StringIO()
        write_rows(buf, [keys], values)
        assert buf.getvalue() == csv_line_rows(keys.tolist(), values)
        assert buf.getvalue().count("\n") == n_rows

    @pytest.mark.parametrize("k", [1, 3])
    def test_every_value_of_a_block_distinct(self, k):
        n_rows = serialize._BLOCK_ROWS + 9
        values = np.random.default_rng(k).standard_normal((n_rows, k))
        block = values[: serialize._BLOCK_ROWS]
        assert len(np.unique(block.view(np.uint64))) == block.size
        keys = [[f"u{i}" for i in range(n_rows)]]
        buf = io.StringIO()
        write_rows(buf, keys, values)
        assert buf.getvalue() == naive_write_rows(keys, values)

    @pytest.mark.parametrize("value", [0.25, -0.0, math.nan, -math.inf])
    @pytest.mark.parametrize("k", [1, 23])
    def test_one_distinct_value_in_a_block(self, value, k):
        n_rows = serialize._BLOCK_ROWS + 2
        values = np.full((n_rows, k), value)
        keys = [[f"u{i}" for i in range(n_rows)]]
        buf = io.StringIO()
        write_rows(buf, keys, values)
        assert buf.getvalue() == naive_write_rows(keys, values)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_nans_of_every_payload_and_sign(self, k):
        nans = [math.nan, NEG_NAN, PAYLOAD_NAN, -PAYLOAD_NAN]
        assert len({math.copysign(1.0, v) for v in nans}) == 2
        bits = np.array(nans).view(np.uint64)
        assert len(set(bits.tolist())) == 4
        cells = np.array(nans * 5 + [0.5, -0.0, math.inf, 1.0])
        values = np.resize(cells, (len(cells) * 2, k))
        keys = [[f"u{i}" for i in range(len(values))]]
        buf = io.StringIO()
        write_rows(buf, keys, values)
        assert buf.getvalue() == naive_write_rows(keys, values)
        assert "nan" not in buf.getvalue() and buf.getvalue().count("NaN") == np.isnan(values).sum()

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_non_ascii_ids(self, k):
        ids = ["ü", "日本語", "e\u0301", "\U0001f600x", "a\u00a0b", "\u0394\u0394", "\ud800", "z"]
        values = np.arange(len(ids) * k, dtype=np.float64).reshape(len(ids), k) / 7.0
        for keys, key_fmt in (([ids], "%s"), ([ids, ids[::-1]], "%s,%s")):
            buf = io.StringIO()
            write_rows(buf, keys, values if k else None, key_fmt=key_fmt)
            assert buf.getvalue() == naive_write_rows(keys, values, key_fmt)
            assert [line.split(",")[0] for line in buf.getvalue().splitlines()] == ids

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_score_rows_around_the_block_size(self, delta):
        # the synth score writer's format: user, post number, one value
        n_rows = serialize._BLOCK_ROWS + delta
        rng = np.random.default_rng(n_rows)
        users = np.array([f"u{i // 5}" for i in range(n_rows)], dtype=object)
        posts = np.arange(n_rows) % 5
        values = rng.random((n_rows, 1))
        values[::7] = 0.5
        buf = io.StringIO()
        write_rows(buf, [users, posts], values, key_fmt="%s,p%d")
        assert buf.getvalue() == naive_write_rows([users, posts], values, "%s,p%d")
        assert buf.getvalue().count("\n") == n_rows

    def test_keys_with_a_line_break_are_refused_in_wide_rows(self):
        with pytest.raises(ValueError, match="line break"):
            write_rows(io.StringIO(), [["a", "b\nc"]], np.zeros((2, 2)))

    def test_key_format_and_no_values(self):
        buf = io.StringIO()
        write_rows(buf, [["a", "b%s"], np.array([3, 4])], key_fmt="%s,p%d")
        assert buf.getvalue() == "a,p3\nb%s,p4\n"
        buf = io.StringIO()
        write_rows(buf, [["a"], [7]], np.array([[math.nan, 0.5]]), key_fmt="%s,%s")
        assert buf.getvalue() == "a,7,NaN,0.5\n"
