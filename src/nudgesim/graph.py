"""The source-level content sharing network (CSN).

Nodes are news sources; a directed edge A -> B with positive weight means B
published near-verbatim copies of A's articles. The raw weight of A -> B
counts B's distinct articles that copy one of A's; the normalized weight
divides it by B's total article output ("what fraction of B's output came
from A"), so it is at most 1 however often A reposts a story.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, hstack

from .corpus import CopyPair, check_source_name, read_utf8

CSN_HEADER = "#csn v1"
# an int smaller than this in size converts to a float exactly
_EXACT_INT = 2**53


def _int_array(values: list) -> np.ndarray:
    """``values`` as an int64 array, 0 standing in for each value that is not
    an int; as Python ints (dtype object) when one is 2**53 or more in size,
    so that every comparison and quotient on them is that of Python ints."""
    if set(map(type, values)) - {int}:
        values = [v if type(v) is int else 0 for v in values]
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if len(array) and (array.max() >= _EXACT_INT or array.min() <= -_EXACT_INT):
        return np.array(values, dtype=object)
    return array


def _name_fault(name: str) -> str | None:
    """Why :func:`check_source_name` refuses ``name``, or None."""
    try:
        check_source_name(name)
    except ValueError as exc:
        return str(exc)
    return None


def _raise_first(rules) -> None:
    """Raise the ValueError of the first record that a rule rejects.

    A rule is ``(offset, mask, message)``: ``mask[i]`` says that it rejects
    record ``offset + i`` (a lone bool speaks for record ``offset``) and
    ``message(i)`` says why. Rules are listed in the order one record is
    checked, so on a record that several reject, the earlier rule speaks.
    The error's ``index`` is the record's number."""
    first = None
    for offset, mask, message in rules:
        hits = np.flatnonzero(mask)
        if len(hits) and (first is None or offset + hits[0] < first[0]):
            first = (offset + int(hits[0]), message, int(hits[0]))
    if first is not None:
        exc = ValueError(first[1](first[2]))
        exc.index = first[0]
        raise exc


class _Records:
    """The nodes and edges of a graph as they were given, as arrays, and the
    rules of :class:`CsnGraph` over them (see :func:`_raise_first`).

    Records are numbered nodes first, from 0, then edges, from ``n``. Names
    are numbered here only: ``names`` lists the ``n`` node names, then each
    other name an edge uses; ``ids`` maps a name to its place there (a
    repeated node name to its last), and ``src`` and ``dst`` hold the edges'
    endpoints so numbered. ``counts`` and ``raw`` hold the values as given,
    which the messages show. A node needs a name :func:`save_graph` can
    write as a line :func:`load_graph` reads back (see
    :func:`check_source_name`) and an article count of at least 1. An edge
    needs two distinct nodes as endpoints and a raw count from 1 to its
    copier's article count, so that its weight ``raw / article count`` is in
    (0, 1]."""

    def __init__(self, nodes: list, counts: list, srcs: list, dsts: list, raw: list) -> None:
        n = len(nodes)
        self.ids = ids = dict(zip(nodes, range(n)))
        self.names = names = list(nodes) + [name for name in dict.fromkeys(srcs + dsts) if name not in ids]
        ids.update(zip(names[n:], range(n, len(names))))
        self.nodes = names[:n]
        self.src = src = np.fromiter(map(ids.__getitem__, srcs), np.intp, len(srcs))
        self.dst = dst = np.fromiter(map(ids.__getitem__, dsts), np.intp, len(dsts))
        self.count = count = _int_array(counts)
        self.raw = raw_count = _int_array(raw)
        copier = np.concatenate([count, np.zeros(len(names) - n, dtype=count.dtype)])[dst]
        fits = (raw_count >= 1) & (raw_count <= copier)
        self.weight = np.asarray(np.where(fits, raw_count, 0) / np.where(fits, copier, 1), dtype=float)

        def edge(i: int) -> str:
            return f"{names[src[i]]!r}->{names[dst[i]]!r}"

        name_faults = [_name_fault(name) for name in self.nodes]
        self.rules = [
            (0, [fault is not None for fault in name_faults], name_faults.__getitem__),
            (0, count < 1, lambda i: (
                f"source {names[i]!r}: article count {counts[i]!r} is not an integer >= 1"
            )),
            (n, src == dst, lambda i: f"self-loop on {names[src[i]]!r}"),
            (n, (src >= n) | (dst >= n), lambda i: f"edge endpoint missing from nodes: {edge(i)}"),
            (n, raw_count < 1, lambda i: f"edge {edge(i)}: raw count {raw[i]!r} is not an integer >= 1"),
            (n, raw_count > copier, lambda i: (
                f"edge {edge(i)}: {raw[i]} copier articles exceed the {counts[dst[i]]} "
                f"articles {names[dst[i]]!r} published (weight outside (0, 1])"
            )),
        ]


class CsnGraph:
    """Directed weighted copy graph, built from its two independent inputs:
    ``raw_counts`` (copier-article count per edge) and ``article_counts``
    (articles per source; its keys are the nodes), checked once.

    It is held as arrays: the sorted ``nodes`` with their ``article_count``,
    and one entry per edge, sorted by (source, copier), in ``src`` and
    ``dst`` (node indices) and ``raw``. The normalized weights
    ``raw / article_count[dst]``, in (0, 1], form the CSR matrix
    ``weights[src, dst]`` (rows are the copied source, columns the copier,
    indices sorted), and ``undirected`` is ``weights + weights.T``. The
    name-keyed dicts ``edges``, ``raw_counts`` and ``article_counts`` are
    views built on first read.
    """

    def __init__(self, raw_counts: dict[tuple[str, str], int], article_counts: dict[str, int]) -> None:
        records = _Records(
            list(article_counts), list(article_counts.values()),
            [s for s, _ in raw_counts], [d for _, d in raw_counts], list(raw_counts.values()),
        )
        _raise_first(records.rules)
        self._assemble(records)

    @classmethod
    def _of(cls, records: _Records) -> CsnGraph:
        """The graph of records whose rules have passed."""
        graph = cls.__new__(cls)
        graph._assemble(records)
        return graph

    def _assemble(self, records: _Records) -> None:
        n = len(records.nodes)
        order = sorted(range(n), key=records.nodes.__getitem__)
        self.nodes = [records.nodes[i] for i in order]
        self.article_count = records.count[order]
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        src, dst = rank[records.src], rank[records.dst]
        by_edge = np.argsort(src * n + dst, kind="stable")
        self.src, self.dst, self.raw = src[by_edge], dst[by_edge], records.raw[by_edge]
        indptr = np.searchsorted(self.src, np.arange(n + 1))
        self.weights = csr_matrix((records.weight[by_edge], self.dst, indptr), shape=(n, n))
        self.undirected = self.weights + self.weights.T
        self.undirected.sort_indices()

    def _pairs(self) -> list[tuple[str, str]]:
        nodes = self.nodes
        return [(nodes[s], nodes[d]) for s, d in zip(self.src.tolist(), self.dst.tolist())]

    @functools.cached_property
    def edges(self) -> dict[tuple[str, str], float]:
        """Normalized weight per (source, copier) name pair."""
        return dict(zip(self._pairs(), self.weights.data.tolist()))

    @functools.cached_property
    def raw_counts(self) -> dict[tuple[str, str], int]:
        return dict(zip(self._pairs(), self.raw.tolist()))

    @functools.cached_property
    def article_counts(self) -> dict[str, int]:
        return dict(zip(self.nodes, self.article_count.tolist()))


@dataclass
class CommunityAssignment:
    """Community label per node (contiguous small ints) plus the directed
    modularity of the partition."""

    labels: dict[str, int]
    modularity: float


def build_csn(pairs: list[CopyPair], article_counts: dict[str, int]) -> CsnGraph:
    """Aggregate copy pairs into the CSN.

    raw weight(A -> B) counts the distinct later articles of B paired with an
    earlier article of A; a story A posted twice and B copied once counts
    once. The normalized weight divides by the copier B's article count.
    Nodes are exactly the sources that appear in at least one pair; a node
    with a missing or zero article count is a fatal error, and so is a weight
    above 1, which only article counts inconsistent with the pairs can give.
    """
    earlier, later = [p.earlier_source for p in pairs], [p.later_source for p in pairs]
    copies = [p.later for p in pairs]
    # the sort below compares names, so a name that is not a string is
    # refused first
    if set(map(type, earlier + later)) - {str}:
        for name in earlier + later:
            check_source_name(name)
    sources = sorted(set(earlier) | set(later))
    index = {source: i for i, source in enumerate(sources)}
    article = dict(zip(copies, range(len(pairs))))  # a number per later article: its last pair

    def numbers(ids: dict[str, int], names: list[str]) -> np.ndarray:
        return np.fromiter(map(ids.__getitem__, names), np.intp, len(names))

    # each pair as one int: its edge, numbered in (earlier source, later
    # source) order, then its later article; one np.unique keeps each such
    # row once
    edges, edge = np.unique(
        numbers(index, earlier) * len(sources) + numbers(index, later), return_inverse=True
    )
    rows = np.unique(edge * len(pairs) + numbers(article, copies))
    raw = np.bincount(rows // len(pairs), minlength=len(edges))
    src, dst = (list(map(sources.__getitem__, ends.tolist())) for ends in np.divmod(edges, len(sources)))
    records = _Records(sources, [article_counts.get(s, 0) for s in sources], src, dst, raw.tolist())
    _raise_first(records.rules)
    return CsnGraph._of(records)


def save_graph(graph: CsnGraph, path) -> None:
    """Write the edge-list TSV.

    Header line, then one ``#node`` line per node carrying its article count,
    then ``from  to  raw_count  normalized_weight`` rows. Weights are
    written as their shortest round-trip decimal, so round-trips are exact.
    """
    nodes = graph.nodes
    edges = zip(graph.src.tolist(), graph.dst.tolist(), graph.raw.tolist(), graph.weights.data.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSN_HEADER + "\n")
        fh.writelines(f"#node\t{node}\t{count}\n" for node, count in zip(nodes, graph.article_count.tolist()))
        fh.writelines(f"{nodes[s]}\t{nodes[d]}\t{raw}\t{weight}\n" for s, d, raw, weight in edges)


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Whether each key equals an earlier one."""
    order = np.argsort(keys, kind="stable")
    seen = np.zeros(len(keys), dtype=bool)
    seen[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return seen


def load_graph(path) -> CsnGraph:
    """Read a graph written by :func:`save_graph`.

    One pass over the lines checks each line's shape (3 fields for a
    ``#node`` line, all of which come before the first edge line, and 4 for
    an edge line) and converts its numbers; a line that fails raises at once.
    Then the rules of :class:`CsnGraph` and the file's own (no duplicate node
    or edge, a weight column equal to ``raw / article_count`` exactly) check
    every record at once: the earliest line that breaks one raises, and on
    one line the rule of the column read first. So a shape or number fault
    is named before a rule fault, even one on an earlier line. Errors name
    the line.
    """
    with read_utf8(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != CSN_HEADER:
            raise ValueError(f"{path}:1: expected header {CSN_HEADER!r}, got {first!r}")
        lines = fh.read().split("\n")
    rows = [line.split("\t") for line in lines if line]

    def malformed(k: int, exc: ValueError) -> ValueError:
        lineno = [i for i, line in enumerate(lines, start=2) if line][k]
        return ValueError(f"{path}:{lineno}: malformed line ({exc})")

    names, counts, srcs, dsts, raw, weights = [], [], [], [], [], []
    try:
        for k, row in enumerate(rows):
            if row[0] == "#node":
                if len(row) != 3:
                    raise ValueError("expected '#node\\tsource\\tcount'")
                if srcs:
                    raise ValueError("#node line after the first edge line")
                names.append(row[1])
                counts.append(int(row[2]))
            elif len(row) != 4:
                raise ValueError("expected 'from\\tto\\traw\\tweight'")
            else:
                srcs.append(row[0])
                dsts.append(row[1])
                raw.append(int(row[2]))
                weights.append(float(row[3]))
    except ValueError as exc:
        raise malformed(k, exc) from exc
    n = len(names)
    records = _Records(names, counts, srcs, dsts, raw)
    try:
        _raise_first([
            (0, _repeated(np.fromiter(map(records.ids.__getitem__, names), np.intp, n)),
             lambda k: f"duplicate node {names[k]!r}"),
            (n, _repeated(records.src * len(records.names) + records.dst),
             lambda k: f"duplicate edge {srcs[k]!r}->{dsts[k]!r}"),
            *records.rules,
            (n, np.array(weights, dtype=float) != records.weight, lambda k: (
                f"weight {rows[n + k][3]} is not raw / article count {float(records.weight[k])!r}"
            )),
        ])
    except ValueError as exc:
        raise malformed(exc.index, exc) from exc
    return CsnGraph._of(records)


def directed_modularity(graph: CsnGraph, labels: dict[str, int]) -> float:
    """Q = (1/m) * sum_ij [w_ij - w_out(i) * w_in(j) / m] over same-community
    pairs, on the normalized edge weights; summed in O(E) as
    (1/m) * sum_c [w_c - out_c * in_c / m], with w_c the weight inside
    community c and out_c, in_c its nodes' strength sums. Zero for an
    edgeless graph."""
    entries = graph.weights.tocoo()
    m = entries.data.sum()
    if m == 0:
        return 0.0
    _, comm = np.unique([labels[node] for node in graph.nodes], return_inverse=True)
    src, dst = comm[entries.row], comm[entries.col]
    out_c = np.bincount(src, weights=entries.data, minlength=len(comm))
    in_c = np.bincount(dst, weights=entries.data, minlength=len(comm))
    q = entries.data[src == dst].sum() - (out_c * in_c).sum() / m
    return float(q / m)


def _local_moving(a: csr_matrix) -> list[int]:
    """Greedy node moves maximizing the directed modularity gain on the
    weight matrix ``a`` of one aggregation level (self-loops allowed).

    Nodes are visited in index order; ties in gain go to the smallest
    community label. A zero-gain move is taken only when the node is a
    singleton moving into a community it shares an edge with (collapsing
    exact ties toward fewer communities); all other moves require strictly
    positive gain.
    """
    n = a.shape[0]
    m = float(a.sum())
    out_strength = np.asarray(a.sum(axis=1)).ravel().tolist()
    in_strength = np.asarray(a.sum(axis=0)).ravel().tolist()
    # row i: the out-neighbors of i, then its in-neighbors (as n + j)
    both = hstack([a, a.T], format="csr")
    ptr, nbr, wts = both.indptr.tolist(), (both.indices % n).tolist(), both.data.tolist()
    comm = list(range(n))
    comm_in = list(in_strength)
    comm_out = list(out_strength)
    comm_size = [1] * n

    improved = True
    while improved:
        improved = False
        for node in range(n):
            c_old = comm[node]
            k_out = out_strength[node]
            k_in = in_strength[node]

            # take node out of its community
            comm_in[c_old] -= k_in
            comm_out[c_old] -= k_out
            comm_size[c_old] -= 1

            # weight from node to/from each neighboring community
            # (self-loops stay with the node whatever community it joins)
            links: dict[int, float] = {c_old: 0.0}
            for k in range(ptr[node], ptr[node + 1]):
                if nbr[k] != node:
                    links[comm[nbr[k]]] = links.get(comm[nbr[k]], 0.0) + wts[k]

            def gain(c: int) -> float:
                return links.get(c, 0.0) / m - (
                    k_out * comm_in[c] + k_in * comm_out[c]
                ) / (m * m)

            stay_gain = gain(c_old)
            best_c, best_gain = c_old, stay_gain
            for c in sorted(links):
                if c == c_old:
                    continue
                g = gain(c)
                if g > best_gain + 1e-12:
                    best_c, best_gain = c, g

            if best_c == c_old and comm_size[c_old] == 0:
                # singleton: collapse an exact tie into a connected community
                for c in sorted(links):
                    if c != c_old and links[c] > 0.0 and gain(c) > stay_gain - 1e-12:
                        best_c = c
                        break

            comm[node] = best_c
            comm_in[best_c] += k_in
            comm_out[best_c] += k_out
            comm_size[best_c] += 1
            if best_c != c_old:
                improved = True
    return comm


def _aggregate(a: csr_matrix, comm: list[int]) -> tuple[csr_matrix, list[int]]:
    """Collapse each community into one node: ``P.T @ a @ P`` with P the
    node-by-community indicator, communities numbered by first member."""
    relabel = {c: k for k, c in enumerate(dict.fromkeys(comm))}
    mapping = [relabel[c] for c in comm]
    p = csr_matrix(
        (np.ones(len(comm)), mapping, np.arange(len(comm) + 1)), shape=(len(comm), len(relabel))
    )
    return (p.T @ a @ p).tocsr(), mapping


def detect_communities(graph: CsnGraph) -> CommunityAssignment:
    """Louvain-style greedy directed-modularity optimization.

    Deterministic: nodes are processed in sorted-id order and all ties break
    toward the smallest label, so repeated runs agree exactly. An edgeless
    graph yields one singleton community per node.
    """
    if not graph.nodes:
        raise ValueError("detect_communities requires a non-empty graph")
    if not graph.weights.nnz:
        return CommunityAssignment(
            labels={node: i for i, node in enumerate(graph.nodes)}, modularity=0.0
        )

    level = graph.weights
    membership = list(range(len(graph.nodes)))  # original node -> current super-node
    while True:
        comm = _local_moving(level)
        if len(set(comm)) == level.shape[0]:
            break
        level, mapping = _aggregate(level, comm)
        membership = [mapping[c] for c in membership]

    # contiguous labels ordered by smallest member node id
    relabel = {c: k for k, c in enumerate(dict.fromkeys(membership))}
    labels = {node: relabel[c] for node, c in zip(graph.nodes, membership)}
    return CommunityAssignment(labels=labels, modularity=directed_modularity(graph, labels))
