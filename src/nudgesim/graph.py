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

from .corpus import CopyPair, check_source_name, read_utf8, write_text

CSN_HEADER = "#csn v1"


class _Records:
    """A graph's records, checked one at a time as they are added, nodes
    before edges, and kept in ``article_counts``, ``raw_counts`` and
    ``weights`` (per edge, ``raw / article count`` as a Python float).

    A node needs a new name that :func:`save_graph` can write as a line
    :func:`load_graph` reads back (see :func:`check_source_name`) and an
    int article count from 1 to 2**63 - 1; an edge needs to be new, two
    distinct nodes as endpoints and an int raw count from 1 to its copier's
    article count, so that its weight is in (0, 1]. A record that breaks a
    rule raises a ValueError naming the first rule it breaks."""

    def __init__(self) -> None:
        self.article_counts: dict[str, int] = {}
        self.raw_counts: dict[tuple[str, str], int] = {}
        self.weights: list[float] = []

    def node(self, name: str, count: int) -> None:
        if name in self.article_counts:
            raise ValueError(f"duplicate node {name!r}")
        check_source_name(name)
        if type(count) is not int or count < 1:
            raise ValueError(f"source {name!r}: article count {count!r} is not an integer >= 1")
        if count >= 2**63:
            raise ValueError(f"source {name!r}: article count {count} is not below 2**63")
        self.article_counts[name] = count

    def edge(self, src: str, dst: str, copies: int) -> float:
        if (src, dst) in self.raw_counts:
            raise ValueError(f"duplicate edge {src!r}->{dst!r}")
        if src == dst:
            raise ValueError(f"self-loop on {src!r}")
        counts = self.article_counts
        if src not in counts or dst not in counts:
            raise ValueError(f"edge endpoint missing from nodes: {src!r}->{dst!r}")
        if type(copies) is not int or copies < 1:
            raise ValueError(f"edge {src!r}->{dst!r}: raw count {copies!r} is not an integer >= 1")
        if copies > counts[dst]:
            raise ValueError(
                f"edge {src!r}->{dst!r}: {copies} copier articles exceed the {counts[dst]} "
                f"articles {dst!r} published (weight outside (0, 1])"
            )
        self.raw_counts[(src, dst)] = copies
        self.weights.append(copies / counts[dst])
        return self.weights[-1]


class CsnGraph:
    """Directed weighted copy graph, built from its two independent inputs:
    ``raw_counts`` (copier-article count per edge) and ``article_counts``
    (articles per source; its keys are the nodes), checked record by record,
    nodes first, then edges in the order given (see :class:`_Records`).

    It is held as arrays: the sorted ``nodes`` with their int64
    ``article_count``, and one entry per edge, sorted by (source, copier),
    in ``src`` and ``dst`` (node indices) and int64 ``raw``. The normalized
    weights ``raw / article_count[dst]``, in (0, 1], form the CSR matrix
    ``weights[src, dst]`` (rows are the copied source, columns the copier,
    indices sorted), and ``undirected`` is ``weights + weights.T``. The
    name-keyed dicts ``edges``, ``raw_counts`` and ``article_counts`` are
    views built on first read.
    """

    def __init__(self, raw_counts: dict[tuple[str, str], int], article_counts: dict[str, int]) -> None:
        records = _Records()
        for name, count in article_counts.items():
            records.node(name, count)
        for (src, dst), copies in raw_counts.items():
            records.edge(src, dst, copies)
        self._assemble(records)

    def _assemble(self, records: _Records) -> None:
        counts, raw = records.article_counts, records.raw_counts
        self.nodes = sorted(counts)
        n = len(self.nodes)
        self.article_count = np.fromiter(map(counts.__getitem__, self.nodes), np.int64, n)
        rank = dict(zip(self.nodes, range(n)))
        src = np.fromiter((rank[s] for s, _ in raw), np.intp, len(raw))
        dst = np.fromiter((rank[d] for _, d in raw), np.intp, len(raw))
        by_edge = np.argsort(src * n + dst, kind="stable")
        self.src, self.dst = src[by_edge], dst[by_edge]
        self.raw = np.fromiter(raw.values(), np.int64, len(raw))[by_edge]
        indptr = np.searchsorted(self.src, np.arange(n + 1))
        weights = np.array(records.weights, dtype=float)[by_edge]
        self.weights = csr_matrix((weights, self.dst, indptr), shape=(n, n))
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
    :class:`CsnGraph` checks the sources in the order the pairs name them,
    each pair's earlier source before its later one, then the edges in the
    order they first appear, and sorts only what it has checked.
    """
    copiers: dict[tuple[str, str], set[str]] = {}
    for p in pairs:
        copiers.setdefault((p.earlier_source, p.later_source), set()).add(p.later)
    raw_counts = {edge: len(later) for edge, later in copiers.items()}
    del copiers  # a set per edge, freed before the graph's arrays are built
    sources = dict.fromkeys(name for edge in raw_counts for name in edge)
    return CsnGraph(raw_counts=raw_counts, article_counts={s: article_counts.get(s, 0) for s in sources})


def save_graph(graph: CsnGraph, path) -> None:
    """Write the edge-list TSV through :func:`~nudgesim.corpus.write_text`.

    Header line, then one ``#node`` line per node carrying its article count,
    then ``from  to  raw_count  normalized_weight`` rows. Weights are
    written as their shortest round-trip decimal, so round-trips are exact.
    """
    nodes = graph.nodes
    edges = zip(graph.src.tolist(), graph.dst.tolist(), graph.raw.tolist(), graph.weights.data.tolist())
    node_lines = (f"#node\t{node}\t{count}\n" for node, count in zip(nodes, graph.article_count.tolist()))
    edge_lines = (f"{nodes[s]}\t{nodes[d]}\t{raw}\t{weight}\n" for s, d, raw, weight in edges)
    write_text(path, CSN_HEADER + "\n" + "".join(node_lines) + "".join(edge_lines))


def load_graph(path) -> CsnGraph:
    """Read a graph written by :func:`save_graph`.

    Each line is checked as it is read, and the first line that fails
    raises a ValueError naming it. A line is checked in the order its
    columns are read: its shape first (3 fields for a ``#node`` line, all
    of which come before the first edge line, and 4 for an edge line), then
    its numbers, then the rules of :class:`CsnGraph` (see :class:`_Records`),
    then, on an edge line, a weight column equal to ``raw / article_count``
    exactly.
    """
    records = _Records()
    with read_utf8(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != CSN_HEADER:
            raise ValueError(f"{path}:1: expected header {CSN_HEADER!r}, got {first!r}")
        lines = fh.read().split("\n")
    try:
        for lineno, line in enumerate(lines, start=2):
            if not line:
                continue
            row = line.split("\t")
            if row[0] == "#node":
                if len(row) != 3:
                    raise ValueError("expected '#node\\tsource\\tcount'")
                if records.raw_counts:
                    raise ValueError("#node line after the first edge line")
                records.node(row[1], int(row[2]))
            elif len(row) != 4:
                raise ValueError("expected 'from\\tto\\traw\\tweight'")
            else:
                copies, stated = int(row[2]), float(row[3])
                weight = records.edge(row[0], row[1], copies)
                if weight != stated:
                    raise ValueError(f"weight {row[3]} is not raw / article count {weight!r}")
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed line ({exc})") from exc
    graph = CsnGraph.__new__(CsnGraph)
    graph._assemble(records)
    return graph


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
