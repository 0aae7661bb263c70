"""Parsing and binding of the three input artifacts: edges, scores, labels.

File formats (UTF-8 text, no headers):

* edges:  ``src_id,dst_id`` per line, direction "src follows dst";
  ``#``-prefixed lines are comments.
* scores: ``user_id,post_id,score`` per line, score in [0, 1]; the post id is
  kept only for diagnostics.
* labels: ``user_id,label`` per line, label in {0, 1}; 1 marks a hate-monger.

Blank lines are skipped everywhere. Scores are produced upstream by whatever
utterance model the deployment uses; this package never sees text.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .errors import InputError
from .graph import EdgeList, SocialGraph, extend_ids, intern_ids, largest_wcc
from .serialize import write_rows

__all__ = [
    "ScoreTable",
    "LabelSet",
    "Dataset",
    "BindPolicy",
    "read_edges",
    "parse_scores",
    "parse_labels",
    "bind_dataset",
    "write_edges",
    "write_scores",
    "write_labels",
]


# characters read per block: only one block's lines and tokens are alive at once
_BLOCK_CHARS = 1 << 18


def _line_blocks(stream: IO[str] | str) -> Iterator[tuple[int, list[str]]]:
    """Yield (number of the first line, raw lines without their newline) per block.

    Lines split where iterating the stream would split them, so line numbers
    match ``enumerate(stream, start=1)``.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lineno = 1
    pending: list[str] = []  # the unterminated tail of what was read so far
    while True:
        chunk = stream.read(_BLOCK_CHARS)
        cut = chunk.rfind("\n")
        if cut < 0:
            if chunk:
                pending.append(chunk)
                continue
            text = "".join(pending)  # end of stream: a last line without newline
            if text:
                yield lineno, [text]
            return
        pending.append(chunk[:cut])
        lines = "".join(pending).split("\n")
        pending = [chunk[cut + 1 :]]
        yield lineno, lines
        lineno += len(lines)


def _checked_lines(raw: list[str], fields: int, comments: bool) -> list[str] | None:
    """Stripped data lines of a block, or None unless each has ``fields`` fields."""
    lines = list(filter(None, map(str.strip, raw)))
    if comments:
        lines = [line for line in lines if line[0] != "#"]
    if not set(map(str.count, lines, itertools.repeat(","))) <= {fields - 1}:
        return None
    return lines


def read_edges(stream: IO[str] | str) -> EdgeList:
    """Parse an edge file into interned (follower, followee) edges, one per edge line.

    Ids are numbered in first-seen order. Lines that are not two
    comma-separated fields, empty ids and self-loops are rejected with the
    line number.
    """
    ids: list[str] = []
    index: dict[str, int] = {}
    srcs, dsts = [], []
    for first, raw in _line_blocks(stream):
        lines = _checked_lines(raw, 2, comments=True)
        if lines is None:
            _rescan_edges(first, raw)
        tokens = list(map(str.strip, ",".join(lines).split(","))) if lines else []
        codes = intern_ids(tokens, index, ids)
        src, dst = codes[0::2], codes[1::2]
        if "" in index or np.any(src == dst):
            _rescan_edges(first, raw)
        srcs.append(src)
        dsts.append(dst)
    empty = np.zeros(0, dtype=np.int64)
    return EdgeList(ids, index, np.concatenate([empty, *srcs]), np.concatenate([empty, *dsts]))


def _rescan_edges(first: int, raw: list[str]) -> None:
    """Raise the error of the first bad line in a block that failed a bulk check."""
    for lineno, line in enumerate(map(str.strip, raw), start=first):
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"edges line {lineno}: expected 'src_id,dst_id', got {line!r}")
        src, dst = parts[0].strip(), parts[1].strip()
        if not src or not dst:
            raise InputError(f"edges line {lineno}: empty user id")
        if src == dst:
            raise InputError(f"edges line {lineno}: self-loop on {src!r}")
    raise AssertionError("a bulk edge check failed but no line is bad")


class ScoreTable:
    """Per-user ordered sequences of post hate-probabilities, stored by column.

    User ``users()[j]`` owns ``values[offsets[j]:offsets[j + 1]]``. Users
    appear in first-seen order, scores keep file order within a user, and a
    user may own zero posts. A caller that already holds the user -> row map
    passes it as ``index``; it is adopted, not copied.
    """

    def __init__(
        self,
        users: list[str],
        offsets: np.ndarray,
        values: np.ndarray,
        index: dict | None = None,
    ) -> None:
        self._users = list(users)
        self._row = dict(zip(self._users, range(len(self._users)))) if index is None else index
        if len(self._row) != len(self._users):
            raise InputError("score table users must be distinct")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if (
            len(self.offsets) != len(self._users) + 1
            or self.offsets[0] != 0
            or self.offsets[-1] != len(self.values)
            or np.any(np.diff(self.offsets) < 0)
        ):
            raise InputError("score table offsets do not match its users and values")

    @classmethod
    def from_mapping(cls, scores: Mapping[str, Iterable[float]]) -> "ScoreTable":
        """Table of ``{user: scores}``, users in the mapping's order."""
        arrays = [np.fromiter(v, dtype=np.float64) for v in scores.values()]
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in arrays], out=offsets[1:])
        return cls(list(scores), offsets, np.concatenate([np.zeros(0), *arrays]))

    @property
    def total_posts(self) -> int:
        return len(self.values)

    def users(self) -> list[str]:
        return list(self._users)

    def scores(self, user: str) -> np.ndarray:
        j = self._row.get(user)
        if j is None:
            raise InputError(f"unknown user {user!r} in score table")
        return self.values[self.offsets[j] : self.offsets[j + 1]].copy()

    def n_posts(self, user: str) -> int:
        j = self._row[user]
        return int(self.offsets[j + 1] - self.offsets[j])

    def __contains__(self, user: str) -> bool:
        return user in self._row

    def __len__(self) -> int:
        return len(self._users)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        for user in self._users:
            yield user, self.scores(user)

    def rows_of(self, users: Iterable[str]) -> np.ndarray:
        """Row of each user in ``users``, -1 for users not in the table."""
        return np.fromiter(map(self._row.get, users, itertools.repeat(-1)), dtype=np.int64)

    def segments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, values) of the given rows, concatenated in the given order.

        Row -1 (a user ``rows_of`` did not find) owns zero posts.
        """
        starts = self.offsets[rows]
        lengths = np.where(rows >= 0, self.offsets[rows + 1] - starts, 0)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return offsets, self.values[gather]


def parse_scores(stream: IO[str] | str) -> ScoreTable:
    """Parse a score file; rejects non-numeric or out-of-range scores."""
    users: list[str] = []
    index: dict[str, int] = {}
    codes, values = [], []
    for first, raw in _line_blocks(stream):
        lines = _checked_lines(raw, 3, comments=False)
        if lines is None:
            _rescan_scores(first, raw)
        tokens = ",".join(lines).split(",") if lines else []
        try:
            block = np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=len(lines))
        except ValueError:
            _rescan_scores(first, raw)
        code = intern_ids(list(map(str.strip, tokens[0::3])), index, users)
        if "" in index or not np.all((block >= 0.0) & (block <= 1.0)):
            _rescan_scores(first, raw)
        codes.append(code)
        values.append(block)
    code = np.concatenate([np.zeros(0, dtype=np.int64), *codes])
    # group rows by user; the stable sort keeps file order within each user
    order = np.argsort(code, kind="stable")
    offsets = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(code, minlength=len(users)), out=offsets[1:])
    return ScoreTable(users, offsets, np.concatenate([np.zeros(0), *values])[order], index)


def _rescan_scores(first: int, raw: list[str]) -> None:
    """Raise the error of the first bad line in a block that failed a bulk check."""
    for lineno, line in enumerate(map(str.strip, raw), start=first):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(
                f"scores line {lineno}: expected 'user_id,post_id,score', got {line!r}"
            )
        if not parts[0].strip():
            raise InputError(f"scores line {lineno}: empty user id")
        try:
            score = float(parts[2])
        except ValueError:
            raise InputError(f"scores line {lineno}: non-numeric score {parts[2]!r}")
        if not (0.0 <= score <= 1.0):
            raise InputError(f"scores line {lineno}: score {score} outside [0, 1]")
    raise AssertionError("a bulk score check failed but no line is bad")


def _lines(stream: IO[str] | str) -> Iterator[tuple[int, str]]:
    for first, raw in _line_blocks(stream):
        for lineno, line in enumerate(map(str.strip, raw), start=first):
            if line:
                yield lineno, line


class LabelSet:
    """user_id -> {0, 1}; 1 marks a hate-monger."""

    def __init__(self, labels: dict[str, int] | None = None) -> None:
        self._labels: dict[str, int] = {}
        for user, label in (labels or {}).items():
            self.set(user, label)

    def set(self, user: str, label: int) -> None:
        if label not in (0, 1):
            raise InputError(f"label must be 0 or 1, got {label}")
        existing = self._labels.get(user)
        if existing is not None and existing != label:
            raise InputError(
                f"conflicting labels for {user!r}: {existing} vs {label}"
            )
        self._labels[user] = label

    def get(self, user: str) -> int:
        return self._labels[user]

    def users(self) -> list[str]:
        return list(self._labels)

    def __contains__(self, user: str) -> bool:
        return user in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._labels.items())


def parse_labels(stream: IO[str] | str) -> LabelSet:
    """Parse a label file; consistent duplicates are tolerated."""
    labels = LabelSet()
    for lineno, line in _lines(stream):
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(
                f"labels line {lineno}: expected 'user_id,label', got {line!r}"
            )
        user = parts[0].strip()
        if not user:
            raise InputError(f"labels line {lineno}: empty user id")
        try:
            label = int(parts[1])
        except ValueError:
            raise InputError(f"labels line {lineno}: non-integer label {parts[1]!r}")
        try:
            labels.set(user, label)
        except InputError as exc:
            raise InputError(f"labels line {lineno}: {exc}")
    return labels


@dataclass
class BindPolicy:
    """Knobs controlling how the three artifacts are reconciled.

    restrict_to_wcc
        Keep only the largest weakly connected component; users outside it
        are dropped (and reported), mirroring the evaluation protocol.
        Otherwise scored users missing from the graph join it as isolated
        nodes, after the graph's own, in sorted order.
    allow_zero_post_users
        Accept labeled users without a score record; their aggregation
        features become zero vectors downstream.
    """

    restrict_to_wcc: bool = False
    allow_zero_post_users: bool = False


@dataclass
class Dataset:
    """A consistent bundle of graph, scores, and (possibly partial) labels.

    ``scores`` holds one row per graph node, in node order; a node without a
    score record owns zero posts. Immutable by convention after binding.
    ``discard_summary`` records what the policy dropped, for the run report.
    """

    graph: SocialGraph
    scores: ScoreTable
    labels: LabelSet
    discard_summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scores.users() != self.graph.ids:
            raise InputError("dataset scores must hold one row per graph node, in node order")
        outside = [u for u in self.labels.users() if u not in self.graph.id_index]
        if outside:
            raise InputError(f"label for user {outside[0]!r} outside the dataset graph")

    def labeled_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(node_indices, labels) for labeled users, sorted by node index."""
        idx = sorted(self.graph.id_index[u] for u in self.labels.users())
        node_idx = np.asarray(idx, dtype=np.int64)
        y = np.asarray(
            [self.labels.get(self.graph.ids[i]) for i in idx], dtype=np.int64
        )
        return node_idx, y


def bind_dataset(
    graph: SocialGraph,
    scores: ScoreTable,
    labels: LabelSet,
    policy: BindPolicy | None = None,
) -> Dataset:
    """Reconcile the three artifacts into one consistent dataset.

    The resulting user universe is the graph's node set, either extended by
    the scored users outside it as isolated nodes or restricted to the
    largest weakly connected component. Labeled users must exist in that
    universe and have a score record unless the policy says otherwise. The
    returned dataset never contains users absent from every input.
    ``scored_users`` in the summary counts the bound users with a score
    record plus the accepted zero-post labeled users.
    """
    policy = policy or BindPolicy()
    summary: dict = {
        "dropped_by_wcc": 0,
        "dropped_scored_users": 0,
        "dropped_labels": 0,
    }

    if policy.restrict_to_wcc:
        g = largest_wcc(graph)
        summary["dropped_by_wcc"] = graph.node_count - g.node_count
    else:
        ids, index = extend_ids(graph.ids, graph.id_index, scores.users())
        g = graph if ids is graph.ids else SocialGraph(ids, *graph.edge_arrays(), index)
    rows = scores.rows_of(g.ids)
    scored = int(np.count_nonzero(rows >= 0))
    summary["dropped_scored_users"] = len(scores) - scored

    kept = g.id_index
    bound_labels: dict[str, int] = {}
    for user, label in labels.items():
        if user not in graph.id_index and user not in scores:
            raise InputError(f"label for unknown user {user!r}")
        if user not in kept:
            summary["dropped_labels"] += 1
            continue
        if rows[kept[user]] < 0:
            if not policy.allow_zero_post_users:
                raise InputError(
                    f"labeled user {user!r} has no score record "
                    "(set allow_zero_post_users to accept)"
                )
            scored += 1
        bound_labels[user] = label

    summary["users"] = g.node_count
    summary["edges"] = g.edge_count
    summary["scored_users"] = scored
    summary["labeled_users"] = len(bound_labels)
    return Dataset(
        graph=g,
        scores=ScoreTable(g.ids, *scores.segments(rows), g.id_index),
        labels=LabelSet(bound_labels),
        discard_summary=summary,
    )


# -- writers (inverse of the parsers; 17-digit floats round-trip exactly) ----


def write_edges(graph: SocialGraph, stream: IO[str]) -> None:
    ids = np.array(graph.ids, dtype=object)
    src, dst = graph.edge_arrays()
    write_rows(stream, [ids[src], ids[dst]], key_fmt="%s,%s")


def write_scores(table: ScoreTable, stream: IO[str]) -> None:
    """Emit ``user_id,post_id,score`` rows; post ids are synthesized as p<k>."""
    lengths = np.diff(table.offsets)
    users = np.repeat(np.array(table.users(), dtype=object), lengths)
    post = np.arange(table.total_posts) - np.repeat(table.offsets[:-1], lengths)
    write_rows(stream, [users, post], table.values[:, None], key_fmt="%s,p%d")


def write_labels(labels: LabelSet, stream: IO[str]) -> None:
    write_rows(stream, [labels.users(), [label for _, label in labels.items()]], key_fmt="%s,%s")
