"""The source-level content sharing network (CSN).

Nodes are news sources; a directed edge A -> B with positive weight means B
published near-verbatim copies of A's articles. The raw weight of A -> B
counts B's distinct articles that copy one of A's; the normalized weight
divides it by B's total article output ("what fraction of B's output came
from A"), so it is at most 1 however often A reposts a story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, hstack

from .corpus import CopyPair, check_source_name, read_utf8

CSN_HEADER = "#csn v1"


def _check_node(node: str, count) -> None:
    """Reject a node :func:`save_graph` could not write as a line that
    :func:`load_graph` reads back (see :func:`check_source_name`), or one
    without an article count of at least 1."""
    check_source_name(node)
    if type(count) is not int or count < 1:
        raise ValueError(f"source {node!r}: article count {count!r} is not an integer >= 1")


def _check_edge(src: str, dst: str, raw, article_counts: dict[str, int]) -> None:
    if src == dst:
        raise ValueError(f"self-loop on {src!r}")
    if src not in article_counts or dst not in article_counts:
        raise ValueError(f"edge endpoint missing from nodes: {src!r}->{dst!r}")
    if type(raw) is not int or raw < 1:
        raise ValueError(f"edge {src!r}->{dst!r}: raw count {raw!r} is not an integer >= 1")
    if raw > article_counts[dst]:
        raise ValueError(
            f"edge {src!r}->{dst!r}: {raw} copier articles exceed the "
            f"{article_counts[dst]} articles {dst!r} published (weight outside (0, 1])"
        )


class CsnGraph:
    """Directed weighted copy graph, built from its two independent inputs:
    ``raw_counts`` (copier-article count per edge) and ``article_counts``
    (articles per source; its keys are the nodes).

    Everything else is derived once, at construction: the sorted ``nodes``,
    their row ``index``, the normalized ``edges`` weights
    ``raw / article_counts[copier]`` in (0, 1], and the same weights as one
    CSR matrix, ``weights[index[src], index[dst]]`` (rows are the copied
    source, columns the copier, indices sorted), plus its ``undirected``
    view ``weights + weights.T``.
    """

    def __init__(
        self, raw_counts: dict[tuple[str, str], int], article_counts: dict[str, int]
    ) -> None:
        for node, count in article_counts.items():
            _check_node(node, count)
        for (src, dst), raw in raw_counts.items():
            _check_edge(src, dst, raw, article_counts)
        self.nodes = sorted(article_counts)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.article_counts = {node: article_counts[node] for node in self.nodes}
        self.raw_counts = dict(sorted(raw_counts.items()))
        self.edges = {(s, d): raw / article_counts[d] for (s, d), raw in self.raw_counts.items()}
        ids = np.array([(self.index[s], self.index[d]) for s, d in self.edges], dtype=np.intp)
        ids = ids.reshape(-1, 2)
        size = len(self.nodes)
        self.weights = csr_matrix(
            (list(self.edges.values()), (ids[:, 0], ids[:, 1])), shape=(size, size)
        )
        self.undirected = self.weights + self.weights.T
        self.undirected.sort_indices()

    def neighbors(self, node: str) -> list[str]:
        """Union of in- and out-neighbors, sorted."""
        i = self.index[node]
        ptr = self.undirected.indptr
        return [self.nodes[j] for j in self.undirected.indices[ptr[i] : ptr[i + 1]]]


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
    copiers: dict[tuple[str, str], set[str]] = {}
    for p in pairs:
        copiers.setdefault((p.earlier_source, p.later_source), set()).add(p.later)
    nodes = {source for edge in copiers for source in edge}
    return CsnGraph(
        raw_counts={edge: len(articles) for edge, articles in copiers.items()},
        article_counts={node: article_counts.get(node, 0) for node in sorted(nodes)},
    )


def save_graph(graph: CsnGraph, path) -> None:
    """Write the edge-list TSV.

    Header line, then one ``#node`` line per node carrying its article count,
    then ``from  to  raw_count  normalized_weight`` rows. Weights are
    written as their shortest round-trip decimal, so round-trips are exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSN_HEADER + "\n")
        for node in graph.nodes:
            fh.write(f"#node\t{node}\t{graph.article_counts[node]}\n")
        for (src, dst), weight in graph.edges.items():
            fh.write(f"{src}\t{dst}\t{graph.raw_counts[(src, dst)]}\t{weight}\n")


def load_graph(path) -> CsnGraph:
    """Read a graph written by :func:`save_graph`.

    Every ``#node`` line must come before the first edge line, and each line
    gets the checks of :class:`CsnGraph`, so a bad node or edge raises with
    its line number. The weight column is redundant with the raw count and
    the copier's article count; it must equal ``raw / article_count``
    exactly.
    """
    counts: dict[str, int] = {}
    raw: dict[tuple[str, str], int] = {}
    with read_utf8(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != CSN_HEADER:
            raise ValueError(f"{path}:1: expected header {CSN_HEADER!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            try:
                if fields[0] == "#node":
                    if len(fields) != 3:
                        raise ValueError("expected '#node\\tsource\\tcount'")
                    if raw:
                        raise ValueError("#node line after the first edge line")
                    if fields[1] in counts:
                        raise ValueError(f"duplicate node {fields[1]!r}")
                    counts[fields[1]] = int(fields[2])
                    _check_node(fields[1], counts[fields[1]])
                else:
                    if len(fields) != 4:
                        raise ValueError("expected 'from\\tto\\traw\\tweight'")
                    src, dst = fields[0], fields[1]
                    if (src, dst) in raw:
                        raise ValueError(f"duplicate edge {src!r}->{dst!r}")
                    raw[(src, dst)] = int(fields[2])
                    _check_edge(src, dst, raw[(src, dst)], counts)
                    weight = raw[(src, dst)] / counts[dst]
                    if float(fields[3]) != weight:
                        raise ValueError(f"weight {fields[3]} is not raw / article count {weight!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed line ({exc})") from exc
    return CsnGraph(raw_counts=raw, article_counts=counts)


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
    if not graph.edges:
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
