"""Deterministic text rendering for reports and tabular exports.

All floating-point numbers are rendered with 17 significant digits, which
round-trips any IEEE-754 double exactly. JSON is rendered by a small local
writer instead of ``json.dumps`` so the float format is under our control
and output bytes are stable across Python versions.
"""

from __future__ import annotations

import math
from typing import IO, Any, Sequence

import numpy as np

# rows per write_rows block: bounds the strings alive at once, amortizes numpy calls
_BLOCK_ROWS = 4096


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


# JSON string escapes: the quote, the backslash and every character below 0x20
_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04x}" for c in range(0x20)}
    | {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
)


def render_json(obj: Any, indent: int = 0) -> str:
    """Render dicts/lists/scalars as JSON with deterministic float formatting.

    Dict insertion order is preserved. Floats use :func:`fmt_float`; bools
    and None map to their JSON literals; ints are rendered as integers.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{str(k).translate(_ESCAPES)}": {render_json(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars and anything float-like
    if hasattr(obj, "item"):
        return render_json(obj.item(), indent)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def json_line(obj: dict) -> str:
    """One-line JSON object, each value rendered by :func:`render_json`."""
    items = (f'"{str(k).translate(_ESCAPES)}": {render_json(v)}' for k, v in obj.items())
    return "{" + ", ".join(items) + "}"


def dump_json(obj: Any) -> str:
    """Full JSON document (trailing newline included)."""
    return render_json(obj) + "\n"


# Fibonacci hashing (Knuth, TAOCP vol. 3, 6.4): a value's slot is the top
# bits of value * 2**64 / golden ratio, in a table of 2**_SLOT_BITS slots.
# Past 2**(_SLOT_BITS / 2) values two likely share a slot (the birthday
# bound), so no table is tried.
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)
_SLOT_BITS = 20


def _value_index(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values of the uint64 array ``bits``, index of each element's value).

    A block of a feature table repeats a few hundred values over tens of
    thousands of cells. When the distinct values hash to distinct slots, one
    gather through a slot table indexes every cell, and exactly: each cell
    holds one of those values. Otherwise ``np.unique`` sorts the cells.
    """
    ranked = np.sort(bits)
    head = np.empty(len(ranked), dtype=bool)
    head[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    distinct = ranked[head]
    if len(distinct) <= 1 << _SLOT_BITS // 2:
        shift = np.uint64(64 - _SLOT_BITS)
        slot = (distinct * _FIBONACCI) >> shift
        slot_order = np.sort(slot)
        if np.all(slot_order[1:] != slot_order[:-1]):
            table = np.empty(1 << _SLOT_BITS, dtype=np.intp)
            table[slot] = np.arange(len(distinct))
            return distinct, table[(bits * _FIBONACCI) >> shift]
    return distinct, np.unique(bits, return_inverse=True)[1]


def _rendered(block: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(texts, index): :func:`fmt_float` of each distinct double of ``block``,
    and the index of each cell's text among them, in the block's shape.

    Each distinct double is rendered once. Doubles are told apart by bit
    pattern, so ``0.0`` and ``-0.0`` stay apart.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    bits, index = _value_index(block.view(np.uint64).ravel())
    distinct = bits.view(np.float64)
    text = list(map("%.17g".__mod__, distinct.tolist()))
    # %.17g spells the specials nan/inf; take fmt_float's spelling
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        text[i] = fmt_float(distinct[i])
    return text, index.reshape(block.shape)


def write_rows(
    stream: IO[str],
    keys: Sequence[Sequence[Any]],
    values: np.ndarray | None = None,
    key_fmt: str = "%s",
) -> None:
    """Write CSV rows in blocks: key columns, then float columns.

    ``keys`` are the leading columns (lists or 1-D arrays of equal length),
    rendered together by the %-format ``key_fmt``; ``values`` is an
    ``(n_rows, k)`` array whose cells are rendered as by :func:`fmt_float`,
    each after a comma. Every row ends in a newline, so a row reads
    ``key_fmt % key_cells`` followed by ``"," + fmt_float(v)`` per value.
    A row's keys must not render a line break.

    A block's key cells go through one format call, one line per row,
    together with the value when a row holds one. Wider rows are put
    together by one join over the block instead: each line's keys, its value
    texts and a newline, so no format call spends a field on a value. Each
    distinct double of a block is rendered once: feature tables built from
    counts repeat a few hundred values over thousands of rows.
    """
    n_rows = len(keys[0])
    n_keys = len(keys)
    k = 0 if values is None else values.shape[1]
    row_fmt = key_fmt + ",%s" * (k == 1) + "\n"
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        cells = np.empty((stop - start, n_keys + (k == 1)), dtype=object)
        for j, col in enumerate(keys):
            cells[:, j] = col[start:stop]
        if k:
            text, index = _rendered(values[start:stop])
        if k == 1:
            cells[:, n_keys] = np.array(text, dtype=object)[index[:, 0]]
        lines = row_fmt * (stop - start) % tuple(cells.ravel().tolist())
        if k > 1:
            heads = lines.split("\n")[:-1]
            if len(heads) != stop - start:
                raise ValueError(f"a row's keys render a line break under {key_fmt!r}")
            # one gather from [value texts, newline, line heads] lays out the block
            pool = np.array(["," + t for t in text] + ["\n", *heads], dtype=object)
            at = np.empty((stop - start, k + 2), dtype=np.intp)
            at[:, 0] = np.arange(len(text) + 1, len(pool))
            at[:, 1:-1] = index
            at[:, -1] = len(text)
            lines = "".join(pool.take(at.ravel()).tolist())
        stream.write(lines)
