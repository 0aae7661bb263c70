"""Slow, obviously-correct reference implementations for the test suite.

Everything here is direct loops over python scalars, dense matrices for the
diffusion step, or a kernel the library used before (scipy's sparse
products and components, the gather-and-bincount delta sum), written
independently of the library's vectorized paths. When both routes agree,
the fast path inherits the trust.

The per-id views of the library's tables live here too: a dict per score
table or label pair, and id pairs per edge list or graph. The library joins
users table to table and offers no lookup of one id.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy.optimize import minimize_scalar

from hateagg import Dataset, InputError
from hateagg.graph import KeyTable
from hateagg.serialize import fmt_float


# -- per-cell CSV rendering -----------------------------------------------------


def csv_cell(value) -> str:
    """One CSV cell; floats get the 17-digit treatment of ``fmt_float``."""
    if isinstance(value, float):
        return fmt_float(value)
    if hasattr(value, "item"):  # numpy scalar
        return csv_cell(value.item())
    return str(value)


def csv_line(values) -> str:
    return ",".join(csv_cell(v) for v in values)


# -- JSON string escapes --------------------------------------------------------


def naive_escape(s: str) -> str:
    """A string's JSON escapes, one character at a time."""
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


# -- per-id views of the library's tables ----------------------------------------


def label_table(labels: dict) -> tuple[KeyTable, np.ndarray]:
    """``{user: label}`` as the (users, int8 labels) pair ``parse_labels`` returns."""
    return KeyTable.of(list(labels)), np.array(list(labels.values()), dtype=np.int8)


def label_dict(labels: tuple[KeyTable, np.ndarray]) -> dict[str, int]:
    """A (users, labels) pair as ``{user: label}``, users in code order."""
    users, column = labels
    return dict(zip(users.ids, column.tolist()))


def score_dict(table) -> dict[str, list[float]]:
    """``{user: scores}`` of a score table, users in row order.

    One dict per table: a per-user lookup through it costs a hash, not a scan.
    """
    values, bounds = table.values.tolist(), table.offsets.tolist()
    return {user: values[a:b] for user, a, b in zip(table.id_keys.ids, bounds, bounds[1:])}


def edge_pairs(edges) -> list[tuple[str, str]]:
    """(follower, followee) id pairs: an edge list's in input order, a graph's by index."""
    src, dst = edges.edge_arrays() if hasattr(edges, "edge_arrays") else (edges.src, edges.dst)
    ids = edges.ids
    return [(ids[a], ids[b]) for a, b in zip(src.tolist(), dst.tolist())]


def codes_of(keys: KeyTable, ids: list[str]) -> np.ndarray:
    """Code of each id in ``keys`` through ``KeyTable.find``, -1 if absent; ids may repeat."""
    query = KeyTable()
    codes = query.intern_strings(ids)
    return keys.find(query)[codes]


# -- parsing, interning and CSR ------------------------------------------------


def _numbered_lines(stream):
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def naive_read_edges(stream) -> list[tuple[str, str]]:
    """Edge file -> (follower, followee) pairs, one line at a time."""
    pairs = []
    for lineno, line in _numbered_lines(stream):
        if line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"edges line {lineno}: expected 'src_id,dst_id', got {line!r}")
        src, dst = parts[0].strip(), parts[1].strip()
        if not src or not dst:
            raise InputError(f"edges line {lineno}: empty user id")
        if src == dst:
            raise InputError(f"edges line {lineno}: self-loop on {src!r}")
        pairs.append((src, dst))
    return pairs


def naive_parse_scores(stream) -> dict[str, list[float]]:
    """Score file -> {user: scores in file order}, users in first-seen order."""
    table: dict[str, list[float]] = {}
    for lineno, line in _numbered_lines(stream):
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(
                f"scores line {lineno}: expected 'user_id,post_id,score', got {line!r}"
            )
        user = parts[0].strip()
        if not user:
            raise InputError(f"scores line {lineno}: empty user id")
        try:
            score = float(parts[2])
        except ValueError:
            raise InputError(f"scores line {lineno}: non-numeric score {parts[2]!r}")
        if not (0.0 <= score <= 1.0):
            raise InputError(f"scores line {lineno}: score {score} outside [0, 1]")
        table.setdefault(user, []).append(score)
    return table


def naive_parse_labels(stream) -> dict[str, int]:
    """Label file -> {user: label}, users in first-seen order."""
    labels: dict[str, int] = {}
    for lineno, line in _numbered_lines(stream):
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"labels line {lineno}: expected 'user_id,label', got {line!r}")
        user = parts[0].strip()
        if not user:
            raise InputError(f"labels line {lineno}: empty user id")
        try:
            label = int(parts[1])
        except ValueError:
            raise InputError(f"labels line {lineno}: non-integer label {parts[1]!r}")
        if label not in (0, 1):
            raise InputError(f"labels line {lineno}: label must be 0 or 1, got {label}")
        if labels.setdefault(user, label) != label:
            raise InputError(
                f"labels line {lineno}: conflicting labels for {user!r}: {labels[user]} vs {label}"
            )
    return labels


def naive_build_graph(edge_pairs) -> tuple[list, np.ndarray, np.ndarray]:
    """(ids, src codes, dst codes): ids numbered per pair in first-seen order."""
    ids: list = []
    index: dict = {}
    src_list: list[int] = []
    dst_list: list[int] = []

    def intern(u) -> int:
        i = index.get(u)
        if i is None:
            i = len(ids)
            index[u] = i
            ids.append(u)
        return i

    for pos, pair in enumerate(edge_pairs, start=1):
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
        src_list.append(intern(u))
        dst_list.append(intern(v))
    return ids, np.asarray(src_list, dtype=np.int64), np.asarray(dst_list, dtype=np.int64)


def lexsort_csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the distinct (src, dst) pairs via lexsort and a two-column dedup."""
    if len(src) == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int32)
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    keep = np.empty(len(src), dtype=bool)
    keep[0] = True
    np.not_equal(src[1:], src[:-1], out=keep[1:])
    keep[1:] |= dst[1:] != dst[:-1]
    src = src[keep]
    dst = dst[keep]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst.astype(np.int32, copy=False)


def gather_in_sums(src: np.ndarray, dst: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """Per-node sum of ``values`` over followers: a gather over the in-CSR, then bincount.

    The in-CSR comes from ``lexsort_csr`` of the reversed edges, and each
    node's followers are summed in ascending order, as the library did when
    it stored that view.
    """
    indptr, indices = lexsort_csr(dst, src, n)
    if len(indices) == 0:
        return np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    return np.bincount(rows, weights=values.take(indices), minlength=n)


# -- binding -------------------------------------------------------------------


def naive_bind(graph, scores, labels, restrict_to_wcc: bool, allow_zero_post_users: bool):
    """(node ids, edges, posts per node, ``{user: label}``, discard summary) of a bind, by loops.

    ``labels`` is a (users, labels) pair, as ``bind_dataset`` takes it.

    Without ``restrict_to_wcc`` the scored users outside the graph join it
    as isolated nodes in sorted order. With it, the graph shrinks to its
    largest weak component, ties going to the component that holds the
    smallest node index. A labeled user must be a node or scored, and
    without ``allow_zero_post_users`` also scored.
    """
    table = score_dict(scores)
    graph_ids = list(graph.ids)
    edges = edge_pairs(graph)
    summary = {"dropped_by_wcc": 0, "dropped_scored_users": 0, "dropped_labels": 0}
    if restrict_to_wcc:
        if not graph_ids:
            raise InputError("empty graph has no connected components")
        parent = {u: u for u in graph_ids}

        def find(u):
            while parent[u] != u:
                u = parent[u]
            return u

        for u, v in edges:
            parent[find(u)] = find(v)
        members: dict = {}
        for u in graph_ids:  # components in the order of their first node
            members.setdefault(find(u), []).append(u)
        ids = max(members.values(), key=len)
        summary["dropped_by_wcc"] = len(graph_ids) - len(ids)
    else:
        ids = graph_ids + sorted(u for u in table if u not in graph_ids)
    edges = [(u, v) for u, v in edges if u in ids]
    summary["dropped_scored_users"] = sum(1 for u in table if u not in ids)

    bound_labels = {}
    zero_post = 0
    for user, label in label_dict(labels).items():
        if user not in graph_ids and user not in table:
            raise InputError(f"label for unknown user {user!r}")
        if user not in ids:
            summary["dropped_labels"] += 1
            continue
        if user not in table:
            if not allow_zero_post_users:
                raise InputError(
                    f"labeled user {user!r} has no score record "
                    "(set allow_zero_post_users to accept)"
                )
            zero_post += 1
        bound_labels[user] = label
    summary["users"] = len(ids)
    summary["edges"] = len(edges)
    summary["scored_users"] = sum(1 for u in ids if u in table) + zero_post
    summary["labeled_users"] = len(bound_labels)
    return ids, edges, [table.get(u, []) for u in ids], bound_labels, summary


# -- writers -------------------------------------------------------------------


def naive_write_rows(keys, values=None, key_fmt: str = "%s") -> str:
    """``serialize.write_rows`` cell by cell: one ``%.17g`` row format per row.

    Rows with a non-finite cell are re-rendered with ``fmt_float``, whose
    spellings (``NaN``, ``Infinity``, ``-Infinity``) ``%.17g`` does not use.
    """
    n_rows = len(keys[0])
    values = np.zeros((n_rows, 0)) if values is None else np.asarray(values, dtype=np.float64)
    fmt = key_fmt + ",%.17g" * values.shape[1] + "\n"
    cols = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in keys]
    lines = []
    for head, cells in zip(zip(*cols), values.tolist()):
        if all(map(math.isfinite, cells)):
            lines.append(fmt % (*head, *cells))
        else:
            lines.append(key_fmt % head + "".join("," + fmt_float(v) for v in cells) + "\n")
    return "".join(lines)


def naive_write_edges(graph) -> str:
    return "".join(f"{u},{v}\n" for u, v in edge_pairs(graph))


def naive_write_scores(table) -> str:
    return "".join(
        csv_line([user, f"p{k}", s]) + "\n"
        for user, scores in score_dict(table).items()
        for k, s in enumerate(scores)
    )


def naive_write_labels(dataset: Dataset) -> str:
    return "".join(
        f"{user},{label}\n" for user, label in zip(dataset.graph.ids, dataset.labels.tolist())
        if label >= 0
    )


# -- aggregation features ------------------------------------------------------


def naive_fixed_count(scores: list[float], tau_t: float) -> int:
    return sum(1 for s in scores if s >= tau_t)


def naive_fixed_classify(scores: list[float], tau_t: float, tau_fixed: int) -> int:
    return 1 if naive_fixed_count(scores, tau_t) >= tau_fixed else 0


def naive_bin_histogram(scores: list[float], k: int) -> list[int]:
    out = [0] * k
    for s in scores:
        idx = int(s * k)
        if idx > k - 1:
            idx = k - 1
        out[idx] += 1
    return out


def naive_quantile_histogram(scores: list[float], k: int) -> list[int]:
    out = [0] * k
    if not scores:
        return out
    lo = min(scores)
    hi = max(scores)
    span = hi - lo
    if span == 0:
        out[0] = len(scores)
        return out
    for s in scores:
        idx = int((s - lo) / span * k)
        if idx > k - 1:
            idx = k - 1
        out[idx] += 1
    return out


def naive_softmax(v: list[float]) -> list[float]:
    m = max(v)
    exps = [math.exp(x - m) for x in v]
    total = sum(exps)
    return [e / total for e in exps]


def naive_feature_matrix(dataset: Dataset, mode: str, config) -> np.ndarray:
    """Per-user features via direct loops; row order = graph node order."""
    g = dataset.graph
    k = config.k_bins
    user_scores = score_dict(dataset.scores)

    def cf(user: str) -> int:
        return naive_fixed_classify(user_scores[user], config.tau_t, config.tau_fixed)

    followers: dict[str, list[str]] = {user: [] for user in g.ids}
    followees: dict[str, list[str]] = {user: [] for user in g.ids}
    for src, dst in edge_pairs(g):
        followers[dst].append(src)
        followees[src].append(dst)

    rows = []
    for user in g.ids:
        scores = user_scores[user]
        row: list[float] = []
        if mode == "fixed":
            row.append(float(naive_fixed_count(scores, config.tau_t)))
        if mode in ("relational", "multimodal"):
            ins = [cf(u) for u in followers[user]]
            outs = [cf(u) for u in followees[user]]
            row.append(float(cf(user)))
            row.append(sum(ins) / len(ins) if ins else 0.0)
            row.append(sum(outs) / len(outs) if outs else 0.0)
        if mode in ("bins", "bins+quantiles", "multimodal"):
            hist = [float(c) for c in naive_bin_histogram(scores, k)]
            if config.softmax_histograms and scores:
                hist = naive_softmax(hist)
            row.extend(hist)
        if mode in ("quantiles", "bins+quantiles", "multimodal"):
            hist = [float(c) for c in naive_quantile_histogram(scores, k)]
            if config.softmax_histograms and scores:
                hist = naive_softmax(hist)
            row.extend(hist)
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


# -- graph statistics ----------------------------------------------------------


def undirected_pairs(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in edges if a != b}


def union_find_component_count(n: int, edges: list[tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in undirected_pairs(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


def brute_triangles(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Triangles through each node of the undirected simple view, by neighbor pairs."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in undirected_pairs(edges):
        adj[a].add(b)
        adj[b].add(a)
    counts = []
    for u in range(n):
        nb = sorted(adj[u])
        counts.append(
            sum(nb[y] in adj[nb[x]] for x in range(len(nb)) for y in range(x + 1, len(nb)))
        )
    return counts


def brute_clustering(n: int, edges: list[tuple[int, int]]) -> float:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in undirected_pairs(edges):
        adj[a].add(b)
        adj[b].add(a)
    total = 0.0
    for u in range(n):
        nb = sorted(adj[u])
        d = len(nb)
        if d < 2:
            continue
        links = 0
        for x in range(d):
            for y in range(x + 1, d):
                if nb[y] in adj[nb[x]]:
                    links += 1
        total += (2 * links) / (d * (d - 1))
    return total / n


def sparse_product_clustering(g, chunk: int = 50_000) -> float:
    """Average local clustering from chunked sparse ``A·A ∘ A`` products.

    The library's previous kernel: row sums of ``(A[rows] @ A) ∘ A[rows]``
    count each node's closed wedges, two per triangle, as exact floats.
    """
    from scipy.sparse import csr_matrix

    indptr, indices = g.csr("undirected")
    n = g.node_count
    und = csr_matrix(
        (np.ones(len(indices), dtype=np.float64), indices, indptr), shape=(n, n)
    )
    deg = np.diff(indptr)
    closed_wedges = np.zeros(n, dtype=np.float64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = und[start:stop]
        closed_wedges[start:stop] = np.asarray(
            (block @ und).multiply(block).sum(axis=1)
        ).ravel()
    wedges = deg.astype(np.float64) * (deg - 1)
    local = np.zeros(n, dtype=np.float64)
    mask = deg >= 2
    local[mask] = closed_wedges[mask] / wedges[mask]
    return float(local.sum() / n)


def scipy_weak_components(g) -> tuple[int, np.ndarray]:
    """(count, labels) of the weak components from ``scipy.sparse.csgraph``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    mat = csr_matrix(
        (np.ones(len(g.out_indices), dtype=np.int8), g.out_indices, g.out_indptr),
        shape=(g.node_count, g.node_count),
    )
    n_comp, labels = connected_components(mat, directed=True, connection="weak")
    return int(n_comp), labels


def numeric_gamma(
    degrees: list[int], k_min: int, continuity_correction: bool
) -> float:
    """Maximize the continuous power-law likelihood numerically."""
    ks = [k for k in degrees if k >= k_min]
    k_ref = (k_min - 0.5) if continuity_correction else float(k_min)
    n = len(ks)
    s = sum(math.log(k / k_ref) for k in ks)

    def nll(gamma: float) -> float:
        return -(n * math.log(gamma - 1.0) - gamma * s)

    res = minimize_scalar(
        nll, bounds=(1.0 + 1e-9, 200.0), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x)


# -- learning ------------------------------------------------------------------


def brute_auc(y_true, y_score) -> float:
    pos = [s for s, t in zip(y_score, y_true) if t == 1]
    neg = [s for s, t in zip(y_score, y_true) if t == 0]
    num = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                num += 1.0
            elif p == q:
                num += 0.5
    return num / (len(pos) * len(neg))


def prf1(y_true, y_pred) -> tuple[float, float, float]:
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def naive_best_f1_threshold(y: np.ndarray, scores: np.ndarray) -> float:
    """Rescan every row for every distinct score: O(n * unique)."""
    best_t = 0.5
    best_f1 = -1.0
    for t in np.unique(scores):
        pred = scores >= t
        tp = int(np.sum(pred & (y == 1)))
        fp = int(np.sum(pred & (y == 0)))
        fn = int(np.sum(~pred & (y == 1)))
        p = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        r = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_t = float(t)
    return best_t


def naive_train_logreg(X: np.ndarray, y: np.ndarray, lam: float):
    """Descent loop that re-evaluates the accepted point: two objective passes per step.

    Returns ``(weights, bias, n_iters, loss_history)``.
    """
    from hateagg.learn import _GRAD_TOL, _MAX_ITERS, loss_and_gradient

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    std = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(std == 0.0, 1.0, std)
    w = np.zeros(X.shape[1])
    b = 0.0
    loss, gw, gb = loss_and_gradient(Xs, y, w, b, lam)
    history = [loss]
    steps = 0
    while steps < _MAX_ITERS:
        if max(float(np.max(np.abs(gw))) if len(gw) else 0.0, abs(gb)) < _GRAD_TOL:
            break
        step = 1.0
        g2 = float(gw @ gw) + gb * gb
        accepted = False
        for _ in range(60):
            w_new = w - step * gw
            b_new = b - step * gb
            z_new = Xs @ w_new + b_new
            loss_new = float(np.mean(np.logaddexp(0.0, z_new) - y * z_new))
            loss_new += 0.5 * lam * float(w_new @ w_new)
            if loss_new <= loss - 1e-4 * step * g2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        w, b = w_new, b_new
        loss, gw, gb = loss_and_gradient(Xs, y, w, b, lam)
        history.append(loss)
        steps += 1
    return w, b, steps, history


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


# -- diffusion -----------------------------------------------------------------


def gather_delta_sums(g, values: np.ndarray, direction: str) -> np.ndarray:
    """Per-node sum of ``values[v] - values[u]``: gather both ends, then bincount.

    The previous form of the DeGroot step's delta sum, with int32 row
    ids rebuilt from the CSR on every call.
    """
    indptr, indices = g.csr(direction)
    if len(indices) == 0:
        return np.zeros(g.node_count, dtype=np.float64)
    rows = np.repeat(np.arange(g.node_count, dtype=np.int32), np.diff(indptr))
    return np.bincount(
        rows, weights=values[indices] - values[rows], minlength=g.node_count
    )


def gather_degroot_step(g, values: np.ndarray, direction: str) -> np.ndarray:
    """The previous ``degroot_step``: residual form with degrees from ``np.diff``."""
    deg = np.diff(g.csr(direction)[0])
    return values + gather_delta_sums(g, values, direction) / (1.0 + deg)


def dense_degroot_step(
    n: int, edges: list[tuple[int, int]], b: np.ndarray, direction: str
) -> np.ndarray:
    A = np.zeros((n, n))
    for u, v in edges:
        if direction == "out":
            A[u, v] = 1.0
        elif direction == "in":
            A[v, u] = 1.0
        else:
            A[u, v] = 1.0
            A[v, u] = 1.0
    deg = A.sum(axis=1)
    return (b + A @ b) / (1.0 + deg)
