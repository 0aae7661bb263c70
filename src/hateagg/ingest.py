"""Parsing and binding of the three input artifacts: edges, scores, labels.

File formats (UTF-8 text, no headers):

* edges:  ``src_id,dst_id`` per line, direction "src follows dst";
  ``#``-prefixed lines are comments.
* scores: ``user_id,post_id,score`` per line, score in [0, 1]; the post id is
  kept only for diagnostics.
* labels: ``user_id,label`` per line, label in {0, 1}; 1 marks a hate-monger.
  Parsed labels are a ``KeyTable`` of their users in first-seen order and an
  int8 column in the table's code order; a bound dataset holds them as an
  int8 column over its nodes, -1 where unlabeled.

Blank lines are skipped everywhere, and whitespace (what ``str.strip``
strips) around lines and ids is dropped. Scores are produced upstream by
whatever utterance model the deployment uses; this package never sees text.

The parsers read ``_BLOCK_CHARS`` characters at a time, cut at a line end,
and tokenize each block once, on its UTF-8 bytes (``_Block``): ASCII
whitespace moves field offsets, and only a block holding another is first
stripped in Python. The ids of a file go through one ``KeyTable``, which a
parsed edge list or score table keeps as its user universe. A block that
fails a bulk check is re-read line by line (``_rescan_*``) to raise the
first bad line's error, so messages and line numbers are those of a
line-by-line parse.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, NoReturn

import numpy as np

from .errors import InputError
from .graph import EdgeList, KeyTable, SocialGraph, _strings, extend_ids, largest_wcc
from .serialize import write_rows

__all__ = [
    "ScoreTable",
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


# characters read per block: only one block's text, offsets and tokens are alive at once
_BLOCK_CHARS = 1 << 20


def _text_blocks(stream: IO[str] | str) -> Iterator[tuple[int, str]]:
    """Yield (number of the first line, whole lines each ending in a newline) per block.

    Lines split where iterating the stream would split them, so line numbers
    match ``enumerate(stream, start=1)``. A last line without a newline gets
    one.
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
                yield lineno, text + "\n"
            return
        pending.append(chunk[: cut + 1])
        text = "".join(pending)
        pending = [chunk[cut + 1 :]]
        yield lineno, text
        lineno += text.count("\n")


def _raw_lines(text: str) -> list[str]:
    """The lines of a block, without their newlines."""
    return text[:-1].split("\n")


# ``str.isspace`` whitespace (a test walks every code point): its ASCII part
# but the newline is trimmed as bytes; a block holding the rest is stripped first
_IS_SPACE = np.isin(np.arange(256), list(b"\t\v\f\r\x1c\x1d\x1e\x1f "))
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")


def _strip_lines(text: str, edges: bool) -> str:
    """The block with each line and id field stripped; a number keeps its leading whitespace."""
    out = []
    for line in _raw_lines(text):
        *head, tail = line.strip().split(",")
        out.append(",".join([*map(str.strip, head), tail.strip() if edges else tail]) + "\n")
    return "".join(out)


class _Block:
    """A block's data lines, held as byte offsets into its UTF-8 text.

    Field ``k`` of line ``i`` is ``data[starts[i, k]:ends[i, k]]``, trimmed
    of whitespace, and ``data`` holds a byte at every end.
    """

    def __init__(self, data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        self.data, self.starts, self.ends = data, starts, ends

    @classmethod
    def of(cls, text: str, fields: int, edges: bool) -> "_Block | None":
        """The block's data lines, or None unless each holds ``fields`` fields.

        Blank lines drop out, and in an edge file so do lines whose first
        non-space byte is ``#``. Outside edge files the last field is a number;
        its leading whitespace is left to ``float()`` and ``int()`` to skip.
        """
        if not text.isascii() and _WIDE_SPACE.search(text):
            text = _strip_lines(text, edges)
        data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        sep = np.flatnonzero((data == 0x2C) | (data == 0x0A))
        starts = np.append(0, sep[:-1] + 1)
        lines, rest = divmod(len(sep), fields)
        # bare: no byte below 0x21 but the line ends, no empty field, no comment
        if (
            not rest
            and np.all(data[sep[fields - 1 :: fields]] == 0x0A)
            and np.count_nonzero(data < 0x21) == lines
            and not np.any(starts == sep)
            and not (edges and np.any(data[starts[::fields]] == 0x23))
        ):
            return cls(data, starts.reshape(lines, fields), sep.reshape(lines, fields))
        return cls._trimmed(data, sep, starts, fields, edges)

    @classmethod
    def _trimmed(
        cls, data: np.ndarray, sep: np.ndarray, starts: np.ndarray, fields: int, edges: bool
    ) -> "_Block | None":
        """:meth:`of` past its bare test: whitespace moves the offsets, no text is copied."""
        # a field's leading whitespace run starts at its first byte, its trailing
        # one ends at its separator; ``run`` holds a run's length at both ends
        low = np.flatnonzero(data < 0x21)
        space = low[_IS_SPACE[data[low]]]
        head = np.flatnonzero(np.diff(space, prepend=-2) != 1)
        size = np.diff(head, append=len(space))
        run = np.zeros(len(data) + 1, dtype=np.intp)
        run[space[head]] = size
        run[space[head + size - 1] + 1] = size
        newline = data[sep] == 0x0A
        ends = sep[newline]  # of the lines
        lead = np.append(0, ends[:-1] + 1)
        lead += run[lead]
        dropped = (lead == ends) | (edges & (data[lead] == 0x23))
        if dropped.any():
            keep = np.repeat(~dropped, np.diff(np.append(-1, np.flatnonzero(newline))))
            sep, starts, newline = sep[keep], starts[keep], newline[keep]
        lines, rest = divmod(len(sep), fields)
        if rest or np.count_nonzero(newline) != lines or not np.all(newline[fields - 1 :: fields]):
            return None
        trimmed = starts + run[starts]
        if not edges:  # the last field is a number, which keeps its leading whitespace
            trimmed[fields - 1 :: fields] = starts[fields - 1 :: fields]
        ends = np.maximum(sep - run[sep], trimmed)
        return cls(data, trimmed.reshape(lines, fields), ends.reshape(lines, fields))

    def floats(self, column: int) -> np.ndarray:
        """Field ``column`` of every line as floats, as ``float()`` reads it.

        The fields are cast from bytes, which numpy parses with CPython's
        float parser. A field the cast rejects (say, Arabic-Indic digits) or
        that ends in a zero byte, which numpy ``S`` drops, or a column too wide
        to copy, goes through ``float()``; ValueError if one is not a number.
        """
        starts, ends = self.starts[:, column], self.ends[:, column]
        lengths = ends - starts
        width = int(lengths.max(initial=0))
        if 0 < width and width * len(starts) <= len(self.data) and self.data[ends - 1].all():
            pad = np.zeros(len(self.data) + width, dtype=np.uint8)
            pad[: len(self.data)] = self.data
            # a view at every byte offset, so one 1-d gather copies the fields
            fields = np.ndarray((len(self.data),), f"S{width}", pad, strides=(1,))[starts]
            chars = fields.view(np.uint8).reshape(-1, width)
            chars[np.arange(width) >= lengths[:, None]] = 0  # numpy S ends at zero bytes
            try:
                return fields.astype(np.float64)
            except ValueError:
                pass
        return np.array(list(map(float, _strings(self.data, starts, ends))), dtype=np.float64)

    def ids(self, keys: KeyTable, column: int | None = None) -> np.ndarray:
        """Codes of field ``column`` (None: every field) in line order, interned in ``keys``."""
        starts = (self.starts if column is None else self.starts[:, column]).ravel()
        ends = (self.ends if column is None else self.ends[:, column]).ravel()
        return keys.intern(self.data, starts, ends)


def read_edges(stream: IO[str] | str) -> EdgeList:
    """Parse an edge file into interned (follower, followee) edges, one per edge line.

    Ids are numbered in first-seen order. Lines that are not two
    comma-separated fields, empty ids and self-loops are rejected with the
    line number.
    """
    keys = KeyTable()
    srcs, dsts = [], []
    for first, text in _text_blocks(stream):
        block = _Block.of(text, 2, edges=True) or _rescan_edges(first, text)
        base = len(keys)
        codes = block.ids(keys)
        src, dst = codes[0::2], codes[1::2]
        if "" in keys.ids[base:] or np.any(src == dst):
            _rescan_edges(first, text)
        srcs.append(src)
        dsts.append(dst)
    empty = np.zeros(0, dtype=np.int64)
    return EdgeList(keys, np.concatenate([empty, *srcs]), np.concatenate([empty, *dsts]))


def _rescan_edges(first: int, text: str) -> NoReturn:
    """Raise the error of the first bad line in a block that failed a bulk check."""
    for lineno, line in enumerate(map(str.strip, _raw_lines(text)), start=first):
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
    user may own zero posts. ``users`` is a :class:`KeyTable`, which is
    adopted, not copied, or a list of distinct users; ``id_keys`` holds it
    and maps users to rows. Every score lies in [0, 1].
    """

    def __init__(
        self, users: KeyTable | list[str], offsets: np.ndarray, values: np.ndarray
    ) -> None:
        self.id_keys = users if isinstance(users, KeyTable) else KeyTable.of(users)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if (
            len(self.offsets) != len(self) + 1
            or self.offsets[0] != 0
            or self.offsets[-1] != len(self.values)
            or np.any(np.diff(self.offsets) < 0)
        ):
            raise InputError("score table offsets do not match its users and values")
        outside = ~((self.values >= 0.0) & (self.values <= 1.0))  # NaN fails both
        if outside.any():
            raise InputError(f"score {self.values[np.argmax(outside)]} outside [0, 1]")

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
        return list(self.id_keys.ids)

    def __len__(self) -> int:
        return len(self.id_keys)

    def segments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, values) of the given rows, concatenated in the given order.

        Row -1 (a user ``id_keys.find`` did not find) owns zero posts.
        """
        starts = self.offsets[rows]
        lengths = np.where(rows >= 0, self.offsets[rows + 1] - starts, 0)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return offsets, self.values[gather]


def parse_scores(stream: IO[str] | str) -> ScoreTable:
    """Parse a score file; rejects non-numeric or out-of-range scores."""
    keys = KeyTable()
    codes, values = [], []
    for first, text in _text_blocks(stream):
        block = _Block.of(text, 3, edges=False) or _rescan_scores(first, text)
        try:
            value = block.floats(2)
        except ValueError:
            _rescan_scores(first, text)
        base = len(keys)
        code = block.ids(keys, 0)
        if "" in keys.ids[base:] or not np.all((value >= 0.0) & (value <= 1.0)):
            _rescan_scores(first, text)
        codes.append(code)
        values.append(value)
    code = np.concatenate([np.zeros(0, dtype=np.int64), *codes])
    # group rows by user; the stable sort keeps file order within each user
    order = np.argsort(code, kind="stable")
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(code, minlength=len(keys)), out=offsets[1:])
    return ScoreTable(keys, offsets, np.concatenate([np.zeros(0), *values])[order])


def _rescan_scores(first: int, text: str) -> NoReturn:
    """Raise the error of the first bad line in a block that failed a bulk check."""
    for lineno, line in enumerate(map(str.strip, _raw_lines(text)), start=first):
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


def parse_labels(stream: IO[str] | str) -> tuple[KeyTable, np.ndarray]:
    """Parse a label file into ``(users, labels)``.

    ``users`` is the table of the labeled users, numbered in first-seen
    order, and ``labels`` the int8 label of each, in code order. Consistent
    duplicates are tolerated.
    """
    keys = KeyTable()
    users = keys.ids  # the table's own list: interning appends to it
    known = np.zeros(0, dtype=np.int64)  # each user's first label, by code
    # label texts are interned like ids, so int() reads each distinct text once
    texts = KeyTable()
    text_label = np.zeros(0, dtype=np.int64)
    for first, text in _text_blocks(stream):
        base = len(users)
        block = _Block.of(text, 2, edges=False) or _rescan_labels(first, text, users[:base], known)
        code = block.ids(keys, 0)
        text_code = block.ids(texts, 1)
        try:
            values = list(map(int, texts.ids[len(text_label) :]))
        except ValueError:
            _rescan_labels(first, text, users[:base], known)
        if "" in users[base:] or not set(values) <= {0, 1}:
            _rescan_labels(first, text, users[:base], known)
        text_label = np.concatenate([text_label, np.array(values, dtype=np.int64)])
        label = text_label[text_code]
        # new users are numbered in first-seen order, so a row holds a new
        # user's first label where its code exceeds every code before it
        seen = np.maximum.accumulate(np.concatenate([[base - 1], code]))
        prior, known = known, np.concatenate([known, label[code > seen[:-1]]])
        if np.any(known[code] != label):
            _rescan_labels(first, text, users[:base], prior)
    return keys, known.astype(np.int8)  # every label checked above


def _rescan_labels(first: int, text: str, users: list[str], known: np.ndarray) -> NoReturn:
    """Raise the error of the first bad line in a block that failed a bulk check.

    ``users`` and their labels ``known`` are those of the blocks before.
    """
    labels = dict(zip(users, known.tolist()))
    for lineno, line in enumerate(map(str.strip, _raw_lines(text)), start=first):
        if not line:
            continue
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
        if label not in (0, 1):
            raise InputError(f"labels line {lineno}: label must be 0 or 1, got {label}")
        existing = labels.setdefault(user, label)
        if existing != label:
            raise InputError(
                f"labels line {lineno}: conflicting labels for {user!r}: {existing} vs {label}"
            )
    raise AssertionError("a bulk label check failed but no line is bad")


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
    score record owns zero posts. ``labels`` is an int8 column over the
    nodes: 0 or 1, and -1 where a node is unlabeled. Immutable by convention
    after binding. ``discard_summary`` records what the policy dropped, for
    the run report.
    """

    graph: SocialGraph
    scores: ScoreTable
    labels: np.ndarray
    discard_summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        keys = self.scores.id_keys
        if keys is not self.graph.id_keys and keys.ids != self.graph.ids:
            raise InputError("dataset scores must hold one row per graph node, in node order")
        labels = np.asarray(self.labels)
        if labels.shape != (self.graph.node_count,):
            raise InputError("dataset labels must hold one entry per graph node")
        outside = labels[(labels != -1) & (labels != 0) & (labels != 1)]
        if len(outside):
            raise InputError(f"dataset label must be -1 (unlabeled), 0 or 1, got {outside[0]}")
        self.labels = labels.astype(np.int8, copy=False)

    def labeled_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(node_indices, labels) for labeled users, sorted by node index."""
        node_idx = np.flatnonzero(self.labels >= 0)
        return node_idx, self.labels[node_idx].astype(np.int64)


def bind_dataset(
    graph: SocialGraph,
    scores: ScoreTable,
    labels: tuple[KeyTable, np.ndarray] | None = None,
    policy: BindPolicy | None = None,
) -> Dataset:
    """Reconcile the three artifacts into one consistent dataset.

    ``labels`` is what :func:`parse_labels` returns: a table of labeled users
    and their labels in its code order; None labels nobody. The resulting
    user universe is the graph's node set, either extended by the scored
    users outside it as isolated nodes or restricted to the largest weakly
    connected component. Labeled users must exist in that universe and have
    a score record unless the policy says otherwise; an error names the
    first offending user in the label table's order. The returned dataset
    never contains users absent from every input.
    ``scored_users`` in the summary counts the bound users with a score
    record plus the accepted zero-post labeled users.
    """
    policy = policy or BindPolicy()
    users, label = (KeyTable(), np.zeros(0, dtype=np.int8)) if labels is None else labels
    label = np.asarray(label)
    if label.shape != (len(users),):
        raise InputError("label column must hold one entry per labeled user")
    outside = (label != 0) & (label != 1)
    if outside.any():
        raise InputError(f"label must be 0 or 1, got {label[np.argmax(outside)]}")
    summary: dict = {
        "dropped_by_wcc": 0,
        "dropped_scored_users": 0,
        "dropped_labels": 0,
    }

    if policy.restrict_to_wcc:
        g = largest_wcc(graph)
        summary["dropped_by_wcc"] = graph.node_count - g.node_count
        rows = scores.id_keys.find(g.id_keys)  # the score row of each node, -1 if none
    else:
        keys, at = extend_ids(graph.id_keys, scores.id_keys)
        g = graph if keys is graph.id_keys else SocialGraph(keys, *graph.edge_arrays())
        rows = np.full(g.node_count, -1, dtype=np.int64)
        rows[at] = np.arange(len(scores))
    scored = int(np.count_nonzero(rows >= 0))
    summary["dropped_scored_users"] = len(scores) - scored

    node = g.id_keys.find(users)
    bound = node >= 0
    # a label off the bound graph is dropped, unless no input knows its user
    dropped = len(users) - int(np.count_nonzero(bound))
    unknown = ~bound
    if dropped:
        unknown &= (graph.id_keys.find(users) < 0) & (scores.id_keys.find(users) < 0)
    unscored = np.zeros(len(users), dtype=bool)
    unscored[bound] = rows[node[bound]] < 0
    bad = unknown if policy.allow_zero_post_users else unknown | unscored
    if bad.any():
        first = int(np.argmax(bad))
        user = users.ids[first]
        if unknown[first]:
            raise InputError(f"label for unknown user {user!r}")
        raise InputError(
            f"labeled user {user!r} has no score record "
            "(set allow_zero_post_users to accept)"
        )
    column = np.full(g.node_count, -1, dtype=np.int8)
    column[node[bound]] = label[bound]

    summary["dropped_labels"] = dropped
    summary["users"] = g.node_count
    summary["edges"] = g.edge_count
    summary["scored_users"] = scored + int(np.count_nonzero(unscored))
    summary["labeled_users"] = len(users) - dropped
    return Dataset(
        graph=g,
        scores=ScoreTable(g.id_keys, *scores.segments(rows)),
        labels=column,
        discard_summary=summary,
    )


# -- writers (inverse of the parsers; 17-digit floats round-trip exactly) ----


def _check_ids(ids: Iterable[str], source: bool = False) -> None:
    """InputError on the first id the parsers would not read back as itself.

    It is empty, holds a comma or line end, has whitespace at an end, or
    (``source``: the first field of an edge line) starts with ``#``.
    """
    for u in ids:
        bad = not u or u[0].isspace() or u[-1].isspace() or "," in u or "\n" in u or "\r" in u
        if bad or (source and u[0] == "#"):
            raise InputError(f"cannot write id {u!r}: it would not read back as itself")


def write_edges(graph: SocialGraph, stream: IO[str]) -> None:
    ids = np.array(graph.ids, dtype=object)
    _check_ids(ids[graph.out_degrees() > 0], source=True)
    _check_ids(ids[graph.in_degrees() > 0])
    src, dst = graph.edge_arrays()
    write_rows(stream, [ids[src], ids[dst]], key_fmt="%s,%s")


def write_scores(table: ScoreTable, stream: IO[str]) -> None:
    """Emit ``user_id,post_id,score`` rows; post ids are synthesized as p<k>."""
    lengths = np.diff(table.offsets)
    users = np.array(table.users(), dtype=object)
    _check_ids(users[lengths > 0])
    post = np.arange(table.total_posts) - np.repeat(table.offsets[:-1], lengths)
    write_rows(stream, [np.repeat(users, lengths), post], table.values[:, None], key_fmt="%s,p%d")


def write_labels(dataset: Dataset, stream: IO[str]) -> None:
    """Emit ``user_id,label`` rows for the labeled nodes, in node order."""
    node_idx, y = dataset.labeled_indices()
    users = np.array(dataset.graph.ids, dtype=object)[node_idx]
    _check_ids(users)
    write_rows(stream, [users, y], key_fmt="%s,%d")
