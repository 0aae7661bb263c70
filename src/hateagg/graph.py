"""Directed follow-graph with dense integer node indices.

The graph is immutable once built: it holds its external string ids in one
key table (``KeyTable``), which numbers them with dense node indices and
maps them back, and stores one CSR adjacency (followees); the other views
are built from it on first use. All queries are read-only, so concurrent
access needs no locks.

A ``KeyTable`` is the one holder of a user universe: edge lists, graphs and
score tables each keep theirs and nothing beside it, and binding joins them
through their tables' sorted keys.

Conventions
-----------
An edge ``u -> v`` means "u follows v". Followees of ``u`` are its
out-neighbors, followers its in-neighbors. Network statistics (clustering
coefficient, power-law exponent, components) use the undirected simple-graph
view: parallel and reciprocal edges collapse to a single undirected link.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDataError, InputError

__all__ = [
    "SocialGraph",
    "EdgeList",
    "GraphStats",
    "ComponentCounts",
    "build_graph",
    "largest_wcc",
    "component_stats",
    "clustering_coefficient",
    "powerlaw_gamma",
    "powerlaw_gamma_mle",
    "graph_stats",
]


def _packed_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct int64 keys ``src * n + dst`` of the (src, dst) pairs.

    Strictly increasing keys are returned as they are, after one comparison
    pass. Otherwise one sort orders the pairs by source then destination,
    and equal pairs are adjacent, so they dedup in one pass.
    """
    # int64 before the multiply: int32 src * n overflows once n > 46,341
    key = src.astype(np.int64)
    key *= n
    key += dst
    keep = np.empty(len(key), dtype=bool)
    keep[:1] = True
    np.greater(key[1:], key[:-1], out=keep[1:])
    if keep.all():
        return key
    key.sort()
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return key[keep]


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative integer keys.

    The packed keys ``key * n + position`` are distinct and sort as the
    (key, position) pairs do, so one in-place sort of them, taken modulo
    ``n``, is the stable order. That sort is many times faster than numpy's
    stable argsort of int64 (a timsort). Keys whose packed form could reach
    2**63 take the stable argsort instead.
    """
    n = len(key)
    if n == 0 or int(key.max()) * n + n >= 1 << 63:
        return np.argsort(key, kind="stable")
    packed = key.astype(np.int64)
    packed *= n
    packed += np.arange(n)
    packed.sort()
    packed %= n
    return packed


def _csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the distinct (src, dst) pairs, rows and columns sorted."""
    rows, cols = np.divmod(_packed_keys(src, dst, n), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(np.int32)


# _KEY_MASKS[r] keeps the first r bytes of a little-endian 8-byte word
_KEY_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _utf8(ids: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(UTF-8 bytes of the ids, start of each id, end of each id).

    Lone surrogates pass through, so every ``str`` has a key; an id that is
    not a ``str`` is an InputError.
    """
    try:
        text = "\n".join(ids)
    except TypeError:
        bad = next(u for u in ids if not isinstance(u, str))
        raise InputError(f"user id must be a string, got {bad!r}") from None
    if text.count("\n") == len(ids) - 1:  # no id holds a newline: encode once
        data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        ends = np.append(np.flatnonzero(data == 0x0A), len(data))
        return data, np.append(0, ends[:-1] + 1), ends
    encoded = [u.encode("utf-8", "surrogatepass") for u in ids]
    ends = np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(ids)))
    starts = np.append(0, ends[:-1]) if len(ids) else ends
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), starts, ends


def _strings(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """``data[starts[i]:ends[i]]`` of each i, decoded; no id holds a newline.

    ``data`` holds a byte at every end. Each id is gathered with the byte
    after it, which becomes a newline, and one C-level split builds all the
    strings.
    """
    if len(starts) == 0:
        return []
    sizes = ends + 1 - starts
    bounds = np.cumsum(sizes)
    kept = data[np.arange(bounds[-1]) + np.repeat(starts - (bounds - sizes), sizes)]
    kept[bounds - 1] = 0x0A
    return kept[:-1].tobytes().decode("utf-8", "surrogatepass").split("\n")


def _by_length(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(length, positions in ascending order) of each distinct value of ``lengths``."""
    if len(lengths) == 0:
        return []
    top = int(lengths.max())
    if top == lengths.min():
        return [(top, np.arange(len(lengths)))]
    # a stable sort of 16-bit values is a radix sort
    order = np.argsort(lengths.astype(np.uint16) if top < 1 << 16 else lengths, kind="stable")
    counts = np.bincount(lengths)
    present = np.flatnonzero(counts)
    return list(zip(present.tolist(), np.split(order, np.cumsum(counts[present])[:-1])))


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted distinct keys, first index of each, index of each key among them)."""
    order = np.argsort(key)
    ranked = key[order]
    head = np.empty(len(order), dtype=bool)
    head[:1] = True
    head[1:] = ranked[1:] != ranked[:-1]  # numpy before 2.0 has no string ufuncs
    heads = np.flatnonzero(head)
    run = np.empty(len(order), dtype=np.intp)
    run[order] = np.repeat(np.arange(len(heads)), np.diff(heads, append=len(order)))
    return ranked[heads], np.minimum.reduceat(order, heads), run


def _keys(data: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """Keys of the ids of ``length`` bytes at ``starts``; ``data`` ends in 8 zero bytes.

    Up to 8 bytes, a key is the id read as a little-endian uint64 and masked
    to its length; a longer id is its own bytes, as numpy ``S``. Every key
    of a length holds all of the id's bytes, so equal keys are equal ids.
    """
    width = max(length, 8)
    # a view at every byte offset, so one 1-d gather reads the keys
    dtype = "<u8" if length <= 8 else f"S{length}"
    keys = np.ndarray((len(data) - width + 1,), dtype, data, strides=(1,))[starts]
    return keys & _KEY_MASKS[length] if length <= 8 else keys


class KeyTable:
    """A universe of distinct ids: ``ids`` in code order, with their sorted keys.

    An id's key is its UTF-8 bytes (see ``_keys``). Ids are grouped by byte
    length, which the group carries, so ``"a"`` and ``"a\\x00"`` stay apart.
    Each group holds its keys sorted, so a lookup is a ``searchsorted``:
    :meth:`find` joins a whole table of ids to this one. The sort order is
    that of the keys, not of the ids as Python strings.
    """

    def __init__(self) -> None:
        self.ids: list[str] = []
        self._groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # length -> keys, codes

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def of(cls, ids: list[str]) -> "KeyTable":
        """The table of distinct ids, ``ids[i]`` holding code ``i``; InputError on a repeat."""
        table = cls()
        codes = table.intern_strings(ids)
        if len(table) != len(ids):
            # codes never exceed positions, and the first repeat is the first below
            raise InputError(f"repeated id {ids[int(np.argmax(codes < np.arange(len(ids))))]!r}")
        return table

    def intern_strings(self, ids: list[str]) -> np.ndarray:
        """:meth:`intern` of Python strings."""
        codes, new = self._add(*_utf8(ids))
        self.ids.extend(map(ids.__getitem__, new.tolist()))
        return codes

    def intern(self, data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Code of each id of ``data`` in UTF-8; no id holds a newline.

        Id ``i`` is ``data[starts[i]:ends[i]]``, and ``data`` holds a byte
        at every end. Ids not in the table join it with the next codes, in
        the order of their first positions; only they are decoded.
        """
        codes, new = self._add(data, starts, ends)
        self.ids.extend(_strings(data, starts[new], ends[new]))
        return codes

    def _add(
        self, data: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(code of each id, position of each new id in code order); ``ids`` is left to the caller.

        One sort per length finds the distinct ids, and only those are looked up.
        """
        pad = np.zeros(len(data) + 8, dtype=np.uint8)
        pad[: len(data)] = data
        groups, new_first = [], []
        for length, where in _by_length(ends - starts):
            distinct, first, run = _distinct(_keys(pad, starts[where], length))
            code, at = self._lookup(length, distinct)
            new = np.flatnonzero(code < 0)
            new_first.append(where[first[new]])
            groups.append((length, where, run, distinct, code, at, new))
        new_first = np.concatenate([np.zeros(0, dtype=np.intp), *new_first])
        # number the new ids by first position: a scan over the positions, no sort
        taken = np.zeros(len(starts), dtype=bool)
        taken[new_first] = True
        rank = (np.cumsum(taken) + (len(self) - 1))[new_first]
        codes = np.empty(len(starts), dtype=np.int64)
        done = 0
        for length, where, run, distinct, code, at, new in groups:
            code[new] = rank[done : done + len(new)]
            done += len(new)
            codes[where] = code[run]
            self._insert(length, at[new], distinct[new], code[new])
        return codes, np.flatnonzero(taken)

    def _lookup(self, length: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(code of each key, -1 if absent; its insertion point) among ``length``-byte ids."""
        table, codes = self._groups.get(length, (keys[:0], np.zeros(0, dtype=np.int64)))
        at = np.searchsorted(table, keys)
        hit = np.flatnonzero(at < len(table))
        hit = hit[table[at[hit]] == keys[hit]]
        found = np.full(len(keys), -1, dtype=np.int64)
        found[hit] = codes[at[hit]]
        return found, at

    def _insert(self, length: int, at: np.ndarray, keys: np.ndarray, codes: np.ndarray) -> None:
        """Insert sorted new keys at their insertion points ``at``."""
        table, old = self._groups.get(length, (keys[:0], codes[:0]))
        if not len(table):
            self._groups[length] = keys, codes
        elif len(keys):
            self._groups[length] = np.insert(table, at, keys), np.insert(old, at, codes)

    def find(self, other: "KeyTable") -> np.ndarray:
        """Code of each id of ``other`` (by its code there) in this table; -1 if absent."""
        out = np.full(len(other), -1, dtype=np.int64)
        for length, (keys, codes) in other._groups.items():
            out[codes] = self._lookup(length, keys)[0]
        return out

    def take(self, codes: np.ndarray) -> "KeyTable":
        """The table of the ids with the given codes, numbered in that order."""
        renumber = np.full(len(self), -1, dtype=np.int64)
        renumber[codes] = np.arange(len(codes))
        out = KeyTable()
        out.ids = list(map(self.ids.__getitem__, codes.tolist()))
        for length, (keys, old) in self._groups.items():
            new = renumber[old]
            kept = new >= 0
            if kept.any():
                out._groups[length] = keys[kept], new[kept]
        return out

    def extend(self, other: "KeyTable") -> "KeyTable":
        """This table followed by ``other``, whose ids it must not hold; neither changes."""
        out = KeyTable()
        out.ids = self.ids + other.ids
        out._groups = dict(self._groups)
        for length, (keys, codes) in other._groups.items():
            out._insert(length, out._lookup(length, keys)[1], keys, codes + len(self))
        return out


@dataclass
class EdgeList:
    """Directed edges as interned codes, one entry per input edge, in input order.

    Edge ``k`` runs from ``ids[src[k]]`` to ``ids[dst[k]]``. ``id_keys``
    numbers the ids in first-seen order; the graph built from the list adopts
    it. Duplicates are kept; the graph collapses them.
    """

    id_keys: KeyTable
    src: np.ndarray
    dst: np.ndarray

    @property
    def ids(self) -> list[str]:
        return self.id_keys.ids

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def from_pairs(cls, edge_pairs: Iterable[tuple[str, str]]) -> "EdgeList":
        """Intern (follower, followee) pairs; rejects malformed pairs, bad ids and self-loops.

        An id must be a non-empty ``str``.
        """
        pairs = list(edge_pairs)
        try:
            well_formed = set(map(len, pairs)) <= {2}
        except TypeError:
            well_formed = False
        if not well_formed:
            _raise_bad_pair(pairs)
        tokens = list(itertools.chain.from_iterable(pairs))
        if not all(map(isinstance, tokens, itertools.repeat(str))):
            _raise_bad_pair(pairs)
        keys = KeyTable()
        codes = keys.intern_strings(tokens)
        src, dst = codes[0::2], codes[1::2]
        if not all(keys.ids) or np.any(src == dst):
            _raise_bad_pair(pairs)
        return cls(keys, src, dst)


def _raise_bad_pair(pairs: list) -> None:
    """Raise for the first malformed pair, non-string or empty id or self-loop, by position."""
    for pos, pair in enumerate(pairs, start=1):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InputError(f"edge {pos}: expected a (src, dst) pair, got {pair!r}")
        if not isinstance(u, str) or not isinstance(v, str):
            raise InputError(f"edge {pos}: expected string user ids, got ({u!r}, {v!r})")
        if not u or not v:
            raise InputError(f"edge {pos}: empty user id in ({u!r}, {v!r})")
        if u == v:
            raise InputError(f"edge {pos}: self-loop on {u!r}")


# a column of the step layout is summed with two numpy calls whatever its
# length, so columns end once fewer rows than this are still active
_MIN_COLUMN_ROWS = 1024


class StepLayout(NamedTuple):
    """A CSR view with its rows by length, stored column by column (sliced ELLPACK).

    Position ``p`` holds node ``perm[p]``: the longest rows first, ties in
    node order; ``inv`` maps a node to its position, and ``scale`` holds
    ``1 + degree`` for the positions with at least one entry. Column ``j``
    holds the ``j``-th entry of positions ``long .. columns[j] - 1``, the
    rows past ``long`` with more than ``j`` entries. ``gather`` lists, as
    positions, the neighbors of every column in turn, then every entry of
    the ``long`` leading rows, column by column as well; ``long_rows`` is
    the position of each of those last entries.
    """

    perm: np.ndarray
    inv: np.ndarray
    gather: np.ndarray
    columns: list
    long: int
    long_rows: np.ndarray
    scale: np.ndarray


def _step_layout(indptr: np.ndarray, indices: np.ndarray) -> StepLayout:
    """The ``StepLayout`` of a CSR view.

    Column ``j`` is kept while at least ``_MIN_COLUMN_ROWS`` rows have more
    than ``j`` entries, so there are at most ``m / _MIN_COLUMN_ROWS``
    columns whatever the longest row. The rows longer than the last column,
    fewer than ``_MIN_COLUMN_ROWS``, are the ``long`` rows, which the step
    sums through ``bincount``.
    """
    deg = np.diff(indptr)
    n = len(deg)
    # active[j]: rows with more than j entries; it ends at 0 for the longest row
    active = n - np.cumsum(np.bincount(deg, minlength=1))
    perm = _stable_order(deg.max(initial=0) - deg)  # by descending degree
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    cols = int(np.count_nonzero(active >= _MIN_COLUMN_ROWS))
    long = int(active[cols])
    targets = inv.take(indices)
    linked = perm[: active[0]]  # the rows with at least one entry
    starts = indptr[linked]
    columns = active[:cols].tolist()
    parts = [targets.take(starts[long:c] + j) for j, c in enumerate(columns)]
    # the long rows' entries column by column: a stable sort of their
    # row-order entries by column keeps each row's entries in order
    long_deg = deg[perm[:long]]
    long_rows = np.repeat(np.arange(long, dtype=np.intp), long_deg)
    column = np.arange(len(long_rows)) - (np.cumsum(long_deg) - long_deg)[long_rows]
    order = _stable_order(column)
    long_rows, column = long_rows[order], column[order]
    parts.append(targets.take(starts[long_rows] + column))
    gather = np.concatenate(parts)
    return StepLayout(perm, inv, gather, columns, long, long_rows, 1.0 + deg[linked])


class SocialGraph:
    """Immutable directed graph over interned string user ids.

    ``SocialGraph(ids, src, dst)`` has the edges ``src[k] -> dst[k]`` between
    node indices, where ``ids`` is a :class:`KeyTable`, which is adopted, not
    copied, or a list of distinct ids. Only the out view (``out_indptr``,
    ``out_indices``) is stored; :meth:`csr` builds the in and undirected views.

    Attributes
    ----------
    id_keys : KeyTable
        The user universe: node index -> external user id (``id_keys.ids``,
        also ``ids``); another table's ids map to node indices through
        ``id_keys.find``.
    """

    def __init__(self, ids: KeyTable | list[str], src: np.ndarray, dst: np.ndarray):
        self.id_keys = ids if isinstance(ids, KeyTable) else KeyTable.of(ids)
        n = len(self.id_keys)
        src, dst = np.asarray(src), np.asarray(dst)
        if not len(src) and not len(dst):  # no edges, whatever the dtype (np.asarray([]))
            src = dst = np.zeros(0, dtype=np.int64)
        if (
            len(src) != len(dst)
            or src.dtype.kind not in "iu"
            or dst.dtype.kind not in "iu"
            or len(src) and not (0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n)
        ):
            raise InputError(f"edge index arrays must be of equal length, each index in [0, {n})")
        self.out_indptr, self.out_indices = _csr(src, dst, n)
        self._views: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._components: tuple[int, np.ndarray] | None = None
        self._step_of: dict[str, StepLayout] = {}

    @property
    def ids(self) -> list[str]:
        return self.id_keys.ids

    # -- basic shape -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return int(len(self.out_indices))

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.out_indices, minlength=self.node_count)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges as (src_indices, dst_indices)."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int32), self.out_degrees())
        return src, self.out_indices.copy()

    # -- adjacency views ------------------------------------------------------

    def csr(self, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (indptr, indices) of the 'out', 'in' or 'undirected' view.

        Only 'out' is stored; the others are built on first use and cached (a
        benign race at most recomputes them, so no lock is needed).
        """
        if direction == "out":
            return self.out_indptr, self.out_indices
        view = self._views.get(direction)
        if view is None:
            if direction not in ("in", "undirected"):
                raise InputError(f"unknown direction {direction!r}")
            src, dst = self.edge_arrays()
            if direction == "undirected":  # the in view of the edges both ways
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            view = self._views[direction] = _csr(dst, src, self.node_count)
        return view

    def undirected_degrees(self) -> np.ndarray:
        return np.diff(self.csr("undirected")[0])

    def components(self) -> tuple[int, np.ndarray]:
        """(count, label per node) of the weak components, cached like the undirected view.

        Components are numbered by their smallest node index, in order.
        """
        if self._components is None:
            roots, labels = np.unique(
                _component_roots(self.node_count, *self.edge_arrays()), return_inverse=True
            )
            self._components = len(roots), labels
        return self._components

    # -- vectorized neighbor reductions --------------------------------------

    def step_layout(self, direction: str) -> StepLayout:
        """The column layout of a view for the DeGroot step, built once per direction."""
        layout = self._step_of.get(direction)
        if layout is None:
            layout = self._step_of[direction] = _step_layout(*self.csr(direction))
        return layout

    def neighbor_sums(self, values: np.ndarray, direction: str) -> np.ndarray:
        """Per-node sum of ``values`` over neighbors in the given direction.

        direction 'out' sums over followees, 'in' over followers,
        'undirected' over the union. Result aligned to node index.
        """
        n = self.node_count
        if direction == "in":
            # the out view lists each node's followers in ascending order, so this
            # scatter adds the terms of a gather over the in view, in its order
            rows, weights = self.out_indices, np.repeat(values, self.out_degrees())
        else:  # one pass, so no cached index: a feature build calls this once per view
            indptr, indices = self.csr(direction)
            rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
            weights = values.take(indices)
        if len(rows) == 0:  # bincount returns ints when it gets no entries
            return np.zeros(n, dtype=np.float64)
        return np.bincount(rows, weights=weights, minlength=n)


class ComponentCounts(NamedTuple):
    n_components: int
    n_singletons: int


@dataclass
class GraphStats:
    """Network summary in the style of platform dataset reports."""

    n_components: int
    n_singletons: int
    largest_wcc_nodes: int
    largest_wcc_edges: int
    clustering_coefficient: float
    powerlaw_gamma: float

    def to_dict(self) -> dict:
        return asdict(self)


def build_graph(edge_pairs: Iterable[tuple[str, str]]) -> SocialGraph:
    """Intern ids and build the graph from (follower, followee) string pairs.

    ``edge_pairs`` may also be an :class:`EdgeList` (what
    :func:`hateagg.ingest.read_edges` returns), which is already interned.
    Duplicate edges are collapsed. Self-loops, non-string and empty ids are
    rejected with the offending pair's position. Nodes without edges enter
    a graph only through :func:`hateagg.ingest.bind_dataset`.
    """
    edges = edge_pairs if isinstance(edge_pairs, EdgeList) else EdgeList.from_pairs(edge_pairs)
    return SocialGraph(edges.id_keys, edges.src, edges.dst)


def _component_roots(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest node index in the weak component of each node of edges src -> dst.

    Hook and jump (Shiloach & Vishkin 1982): every edge whose ends sit under
    different roots hooks the larger root under the smaller one
    (``np.minimum.at``), then pointer jumping flattens the trees until the
    parent array is stable. A parent never exceeds its child, so the trees
    stay acyclic and each component ends under its smallest index. Rounds
    repeat until no edge joins two roots; each round keeps only the edges
    between two roots, as root pairs.
    """
    parent = np.arange(n)
    while True:
        # each tree is flat, so parent[] maps an edge's ends to their roots
        src, dst = parent.take(src), parent.take(dst)
        cross = src != dst
        if not cross.any():
            return parent
        src, dst = src[cross], dst[cross]
        np.minimum.at(parent, np.maximum(src, dst), np.minimum(src, dst))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def largest_wcc(g: SocialGraph) -> SocialGraph:
    """Induced subgraph on the largest weakly connected component.

    Ties between equal-sized components go to the one containing the
    smallest node index. External ids are preserved; surviving nodes are
    re-indexed densely in their original relative order.
    """
    if g.node_count == 0:
        raise InputError("empty graph has no connected components")
    n_comp, labels = g.components()
    if n_comp == 1:
        return g
    # labels follow each component's smallest node index, so argmax breaks ties toward it
    member = labels == np.argmax(np.bincount(labels))
    remap = np.cumsum(member) - 1  # each member's new index, in the old order

    src, dst = g.edge_arrays()
    mask = member[src]  # weak components are edge-closed
    return SocialGraph(g.id_keys.take(np.flatnonzero(member)), remap[src[mask]], remap[dst[mask]])


def component_stats(g: SocialGraph) -> ComponentCounts:
    """Weak component and singleton counts; a singleton has no incident edges."""
    n_comp, _ = g.components()
    deg = g.out_degrees() + g.in_degrees()
    return ComponentCounts(n_comp, int(np.count_nonzero(deg == 0)))


# Fibonacci hashing (Knuth, TAOCP vol. 3, 6.4): the top bits of rank * 2^32/phi
_SIGNATURE_HASH = np.uint32(0x9E3779B9)
_SIGNATURE_BYTES = 16  # 128 bits a node


def _signature_bit(ranks: np.ndarray) -> np.ndarray:
    """The signature bit, 0-127, that stands for each int32 rank."""
    bit = ranks.view(np.uint32) * _SIGNATURE_HASH  # wraps mod 2^32
    bit >>= 25  # the top 7 bits
    return bit


def _signatures(rows: np.ndarray, cols: np.ndarray, n: int, block: int) -> np.ndarray:
    """Each row's 128-bit signature of its columns, as 16 bytes a row.

    Bit ``_signature_bit(c)`` of row r is set for each link r -> c, so a
    clear bit proves the link absent. Bit k sits in byte 16 r + k // 8 at
    place k % 8. Links are hashed ``block`` at a time; ``rows`` ascend.
    """
    words = _SIGNATURE_BYTES // 8
    sig = np.zeros((n, words), dtype=np.uint64)
    for s in range(0, len(rows), block):
        r, bit = rows[s : s + block], _signature_bit(cols[s : s + block])
        runs = np.flatnonzero(np.diff(r, prepend=-1))  # a row's first link in the block
        word, place = bit >> 6, np.left_shift(np.uint64(1), bit & 63, dtype=np.uint64)
        for w in range(words):
            sig[r.take(runs), w] |= np.bitwise_or.reduceat(np.where(word == w, place, 0), runs)
    return sig.astype("<u8", copy=False).view(np.uint8).reshape(-1)


def _triangle_counts(indptr: np.ndarray, indices: np.ndarray, chunk: int) -> np.ndarray:
    """Triangles through each node of an undirected simple graph in CSR form.

    Forward counting on a degree order (Latapy 2008): nodes are ranked by
    (degree, index) and each link points from its lower-ranked end to the
    higher. A triangle is then found once, at its lowest-ranked corner, as a
    wedge (a pair of that corner's out-neighbors) whose closing link exists.
    Wedges are made and tested at most ``chunk`` at a time, so memory stays
    bounded, and a hub ranks last, so its many links open no wedges.

    Each node's 128-bit signature of its out-neighbors is a one-hash Bloom
    filter (Bloom 1970) in front of the exact search: a wedge whose closing
    link near -> far finds ``far``'s bit clear in ``near``'s signature
    cannot close, and is dropped. A set bit may be a collision, so the
    survivors are still looked up among the links, and the counts are exact.
    """
    n = len(indptr) - 1
    deg = np.diff(indptr)
    rank = np.empty(n, dtype=np.int32)
    rank[_stable_order(deg)] = np.arange(n, dtype=np.int32)
    head, tail = np.repeat(rank, deg), rank.take(indices)
    fwd = head < tail
    head, tail = head[fwd], tail[fwd]
    del fwd
    links = _packed_keys(head, tail, n)  # oriented links in rank space, sorted
    del head, tail
    rows, cols = (links // n).astype(np.int32), (links % n).astype(np.int32)
    # link p opens a wedge with each later link of its row; bounds[p] counts
    # the wedges of the links before p
    out_deg = np.bincount(rows, minlength=n)
    later = np.repeat(np.cumsum(out_deg), out_deg)  # end of each link's row
    later -= np.arange(1, len(links) + 1)
    bounds = np.zeros(len(links) + 1, dtype=np.int64)
    np.cumsum(later, out=bounds[1:])
    del later
    total = int(bounds[-1])
    sig = _signatures(rows, cols, n, chunk)

    tri = np.zeros(n, dtype=np.int64)
    found: list[np.ndarray] = []  # corners not yet counted
    pending = 0
    for w0 in range(0, total, chunk):
        w1 = min(w0 + chunk, total)
        p0 = int(np.searchsorted(bounds, w0, side="right")) - 1
        p1 = int(np.searchsorted(bounds, w1 - 1, side="right"))
        starts = bounds[p0:p1]  # the first wedge of each link in the block
        take = np.minimum(bounds[p0 + 1 : p1 + 1], w1) - np.maximum(starts, w0)
        pos = np.arange(p0, p1)
        # each wedge pairs a link of pos with a later link, second, of its row;
        # its closing link runs near -> far (a row's columns ascend)
        near = np.repeat(cols[p0:p1], take)
        second = np.arange(w0, w1) - np.repeat(starts - pos - 1, take)
        far = cols.take(second)
        # keep the wedges whose far bit is set in near's signature
        bit = _signature_bit(far)
        byte = near.astype(np.int64)
        byte *= _SIGNATURE_BYTES
        byte += bit >> 3
        probe = sig.take(byte)
        probe >>= (bit & 7).astype(np.uint8)
        probe &= 1
        keep = np.flatnonzero(probe)
        second, near, far = second.take(keep), near.take(keep), far.take(keep)
        closing = near.astype(np.int64)
        closing *= n
        closing += far  # a link key
        # sorted needles walk the links in order: a far more cache-friendly search
        order = np.argsort(closing)
        closing = closing.take(order)
        at = np.searchsorted(links, closing)
        np.minimum(at, len(links) - 1, out=at)
        hit = order[links.take(at) == closing]
        found += [rows.take(second.take(hit)), near.take(hit), far.take(hit)]
        pending += 3 * len(hit)
        if pending >= n:  # one bincount per n corners keeps tiny blocks linear
            tri += np.bincount(np.concatenate(found), minlength=n)
            found, pending = [], 0
    if pending:
        tri += np.bincount(np.concatenate(found), minlength=n)
    return tri.take(rank)


# wedges made and tested per block of the triangle count
_WEDGE_CHUNK = 1 << 19


def clustering_coefficient(g: SocialGraph) -> float:
    """Average local clustering coefficient of the undirected simple view.

    Each node contributes (links among its neighbors) / (possible links);
    nodes with degree < 2 contribute 0. Triangles come from forward counting
    on a degree order, ``_WEDGE_CHUNK`` wedges per block, so memory stays
    bounded on large graphs. Each node's signature of its out-neighbors drops
    most open wedges before the exact link lookup; a clear bit proves a link
    absent, so the counts, and the coefficient, are exact.
    """
    if g.node_count == 0:
        raise InputError("empty graph has no clustering coefficient")
    indptr, indices = g.csr("undirected")
    n = g.node_count
    deg = np.diff(indptr)
    closed_wedges = 2.0 * _triangle_counts(indptr, indices, _WEDGE_CHUNK)  # exact integers
    wedges = deg.astype(np.float64) * (deg - 1)
    local = np.zeros(n, dtype=np.float64)
    mask = deg >= 2
    local[mask] = closed_wedges[mask] / wedges[mask]
    return float(local.sum() / n)


def powerlaw_gamma_mle(
    degrees: Sequence[int] | np.ndarray,
    k_min: int = 1,
    continuity_correction: bool = True,
) -> float:
    """Continuous maximum-likelihood power-law exponent for a degree sample.

    gamma = 1 + n / sum(ln(k_i / k_ref)) over degrees k_i >= k_min, with
    k_ref = k_min - 1/2 when the continuity correction is on (the discrete
    convention) and k_ref = k_min otherwise. Without the correction a sample
    where every degree equals k_min diverges; +inf is returned for it.
    """
    if k_min < 1:
        raise InputError(f"k_min must be >= 1, got {k_min}")
    deg = np.asarray(degrees, dtype=np.float64)
    deg = deg[deg >= k_min]
    if len(deg) == 0:
        raise DegenerateDataError(
            f"no degrees >= k_min={k_min}; cannot fit a power law"
        )
    k_ref = k_min - 0.5 if continuity_correction else float(k_min)
    denom = float(np.sum(np.log(deg / k_ref)))
    if denom <= 0.0:
        return float("inf")
    return 1.0 + len(deg) / denom


def powerlaw_gamma(
    g: SocialGraph, k_min: int = 1, continuity_correction: bool = True
) -> float:
    """Power-law exponent fitted to the undirected degree distribution."""
    return powerlaw_gamma_mle(
        g.undirected_degrees(), k_min=k_min, continuity_correction=continuity_correction
    )


def graph_stats(
    g: SocialGraph,
    k_min: int = 1,
    continuity_correction: bool = True,
) -> GraphStats:
    """Full network summary.

    Component and singleton counts cover the whole graph; the clustering
    coefficient and the power-law exponent are computed on the largest weakly
    connected component, the same restriction used for evaluation.
    """
    if k_min < 1:  # checked up front: the fit comes after every other statistic
        raise InputError(f"k_min must be >= 1, got {k_min}")
    counts = component_stats(g)
    wcc = largest_wcc(g)
    stats = GraphStats(
        n_components=counts.n_components,
        n_singletons=counts.n_singletons,
        largest_wcc_nodes=wcc.node_count,
        largest_wcc_edges=wcc.edge_count,
        clustering_coefficient=clustering_coefficient(wcc),
        powerlaw_gamma=powerlaw_gamma(
            wcc, k_min=k_min, continuity_correction=continuity_correction
        ),
    )
    assert stats.largest_wcc_nodes <= g.node_count
    assert stats.n_singletons <= stats.n_components
    return stats
