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


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


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
        return f'"{_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{_escape(str(k))}": {render_json(v, indent + 2)}'
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
    return "{" + ", ".join(f'"{_escape(str(k))}": {render_json(v)}' for k, v in obj.items()) + "}"


def dump_json(obj: Any) -> str:
    """Full JSON document (trailing newline included)."""
    return render_json(obj) + "\n"


def _rendered(block: np.ndarray) -> np.ndarray:
    """Object array of the cells of ``block`` as :func:`fmt_float` renders them.

    Each distinct double is rendered once, then gathered per cell. Doubles
    are told apart by bit pattern, so ``0.0`` and ``-0.0`` stay apart.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    text = list(map("%.17g".__mod__, distinct.tolist()))
    # %.17g spells the specials nan/inf; take fmt_float's spelling
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        text[i] = fmt_float(distinct[i])
    # numpy 1.x returns the inverse flat, 2.x in the input's shape
    return np.array(text, dtype=object)[inverse.reshape(block.shape)]


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

    A block's rows are one format call over its cells, and each distinct
    double of a block is rendered once: feature tables built from counts
    repeat a few hundred values over thousands of rows.
    """
    n_rows = len(keys[0])
    n_keys = len(keys)
    k = 0 if values is None else values.shape[1]
    row_fmt = key_fmt + ",%s" * k + "\n"
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        cells = np.empty((stop - start, n_keys + k), dtype=object)
        for j, col in enumerate(keys):
            cells[:, j] = col[start:stop]
        if k:
            cells[:, n_keys:] = _rendered(values[start:stop])
        stream.write(row_fmt * (stop - start) % tuple(cells.ravel().tolist()))
