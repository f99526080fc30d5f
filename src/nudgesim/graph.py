"""The source-level content sharing network (CSN).

Nodes are news sources; a directed edge A -> B with positive weight means B
published near-verbatim copies of A's articles. The raw weight of A -> B
counts B's distinct articles that copy one of A's; the normalized weight
divides it by B's total article output ("what fraction of B's output came
from A"), so it is at most 1 however often A reposts a story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import CopyPair

CSN_HEADER = "#csn v1"


@dataclass
class CsnGraph:
    """Directed weighted copy graph.

    ``edges`` holds normalized weights in (0, 1]; ``raw_counts`` the
    copier-article counts they were derived from; ``article_counts`` the
    per-source totals used for normalization (graph nodes only).
    """

    nodes: list[str] = field(default_factory=list)
    edges: dict[tuple[str, str], float] = field(default_factory=dict)
    raw_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    article_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = sorted(self.nodes)
        node_set = set(self.nodes)
        for (src, dst), weight in self.edges.items():
            if src == dst:
                raise ValueError(f"self-loop on {src!r}")
            if src not in node_set or dst not in node_set:
                raise ValueError(f"edge endpoint missing from nodes: {src!r}->{dst!r}")
            if not (0.0 < weight <= 1.0):
                raise ValueError(
                    f"edge {src!r}->{dst!r} normalized weight {weight} outside (0, 1]"
                )

    def neighbors(self, node: str) -> list[str]:
        """Union of in- and out-neighbors, sorted."""
        out = {dst for (src, dst) in self.edges if src == node}
        out.update(src for (src, dst) in self.edges if dst == node)
        return sorted(out)


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
    raw = {edge: len(articles) for edge, articles in copiers.items()}
    nodes = {source for edge in raw for source in edge}

    for node in nodes:
        if article_counts.get(node, 0) < 1:
            raise ValueError(f"source {node!r} has no article count; cannot normalize")

    edges: dict[tuple[str, str], float] = {}
    for (src, dst), count in raw.items():
        weight = count / article_counts[dst]
        if weight > 1.0:
            raise ValueError(
                f"edge {src!r}->{dst!r}: {count} copier articles exceed the "
                f"{article_counts[dst]} articles {dst!r} published"
            )
        edges[(src, dst)] = weight

    return CsnGraph(
        nodes=sorted(nodes),
        edges=edges,
        raw_counts=raw,
        article_counts={n: article_counts[n] for n in sorted(nodes)},
    )


def save_graph(graph: CsnGraph, path) -> None:
    """Write the edge-list TSV.

    Header line, then one ``#node`` line per node carrying its article count,
    then ``from  to  raw_count  normalized_weight`` rows. Weights use
    full-precision decimal serialization so round-trips are exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSN_HEADER + "\n")
        for node in graph.nodes:
            fh.write(f"#node\t{node}\t{graph.article_counts.get(node, 0)}\n")
        for (src, dst) in sorted(graph.edges):
            fh.write(f"{src}\t{dst}\t{graph.raw_counts[(src, dst)]}\t{graph.edges[(src, dst)]!r}\n")


def load_graph(path) -> CsnGraph:
    """Read a graph written by :func:`save_graph`; malformed lines raise with
    their line number."""
    nodes: list[str] = []
    counts: dict[str, int] = {}
    edges: dict[tuple[str, str], float] = {}
    raw: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
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
                    if fields[1] in counts:
                        raise ValueError(f"duplicate node {fields[1]!r}")
                    nodes.append(fields[1])
                    counts[fields[1]] = int(fields[2])
                else:
                    if len(fields) != 4:
                        raise ValueError("expected 'from\\tto\\traw\\tweight'")
                    edge = (fields[0], fields[1])
                    if edge in edges:
                        raise ValueError(f"duplicate edge {fields[0]!r}->{fields[1]!r}")
                    edges[edge] = float(fields[3])
                    raw[edge] = int(fields[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed line ({exc})") from exc
    return CsnGraph(nodes=nodes, edges=edges, raw_counts=raw, article_counts=counts)


def directed_modularity(graph: CsnGraph, labels: dict[str, int]) -> float:
    """Q = (1/m) * sum_ij [w_ij - w_out(i) * w_in(j) / m] over same-community
    pairs, on the normalized edge weights; summed in O(E) per community c as
    (1/m) * sum_c [w_c - out_c * in_c / m], with w_c the weight inside c and
    out_c, in_c its nodes' strength sums. Zero for an edgeless graph."""
    m = sum(graph.edges.values())
    if m == 0:
        return 0.0
    inside: dict[int, float] = {}
    out_c: dict[int, float] = {}
    in_c: dict[int, float] = {}
    for (src, dst), w in graph.edges.items():
        if labels[src] == labels[dst]:
            inside[labels[src]] = inside.get(labels[src], 0.0) + w
        out_c[labels[src]] = out_c.get(labels[src], 0.0) + w
        in_c[labels[dst]] = in_c.get(labels[dst], 0.0) + w
    q = sum(inside.values()) - sum(out_c[c] * in_c.get(c, 0.0) for c in out_c) / m
    return q / m


class _LouvainLevel:
    """One aggregation level: integer-indexed directed multigraph with
    self-loops allowed."""

    def __init__(self, n: int, edges: dict[tuple[int, int], float]):
        self.n = n
        self.edges = edges
        self.m = sum(edges.values())
        self.out_strength = [0.0] * n
        self.in_strength = [0.0] * n
        self.out_adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self.in_adj: list[dict[int, float]] = [dict() for _ in range(n)]
        for (i, j), w in edges.items():
            self.out_strength[i] += w
            self.in_strength[j] += w
            self.out_adj[i][j] = self.out_adj[i].get(j, 0.0) + w
            self.in_adj[j][i] = self.in_adj[j].get(i, 0.0) + w


def _local_moving(level: _LouvainLevel) -> list[int]:
    """Greedy node moves maximizing the directed modularity gain.

    Nodes are visited in index order; ties in gain go to the smallest
    community label. A zero-gain move is taken only when the node is a
    singleton moving into a community it shares an edge with (collapsing
    exact ties toward fewer communities); all other moves require strictly
    positive gain.
    """
    m = level.m
    comm = list(range(level.n))
    comm_in = list(level.in_strength)
    comm_out = list(level.out_strength)
    comm_size = [1] * level.n

    improved = True
    while improved:
        improved = False
        for node in range(level.n):
            c_old = comm[node]
            k_out = level.out_strength[node]
            k_in = level.in_strength[node]

            # take node out of its community
            comm_in[c_old] -= k_in
            comm_out[c_old] -= k_out
            comm_size[c_old] -= 1

            # weight from node to/from each neighboring community
            # (self-loops stay with the node whatever community it joins)
            links: dict[int, float] = {c_old: 0.0}
            for j, w in level.out_adj[node].items():
                if j != node:
                    links[comm[j]] = links.get(comm[j], 0.0) + w
            for j, w in level.in_adj[node].items():
                if j != node:
                    links[comm[j]] = links.get(comm[j], 0.0) + w

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
                if g > best_gain + 1e-12 or (
                    g > best_gain - 1e-12 and c < best_c and best_c != c_old
                ):
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


def _aggregate(level: _LouvainLevel, comm: list[int]) -> tuple[_LouvainLevel, list[int]]:
    relabel: dict[int, int] = {}
    for node in range(level.n):
        c = comm[node]
        if c not in relabel:
            relabel[c] = len(relabel)
    edges: dict[tuple[int, int], float] = {}
    for (i, j), w in level.edges.items():
        key = (relabel[comm[i]], relabel[comm[j]])
        edges[key] = edges.get(key, 0.0) + w
    mapping = [relabel[comm[node]] for node in range(level.n)]
    return _LouvainLevel(len(relabel), edges), mapping


def detect_communities(graph: CsnGraph) -> CommunityAssignment:
    """Louvain-style greedy directed-modularity optimization.

    Deterministic: nodes are processed in sorted-id order and all ties break
    toward the smallest label, so repeated runs agree exactly. An edgeless
    graph yields one singleton community per node.
    """
    if not graph.nodes:
        raise ValueError("detect_communities requires a non-empty graph")
    index = {node: i for i, node in enumerate(graph.nodes)}
    if not graph.edges:
        return CommunityAssignment(
            labels={node: i for i, node in enumerate(graph.nodes)}, modularity=0.0
        )

    level = _LouvainLevel(
        len(graph.nodes),
        {(index[s], index[d]): w for (s, d), w in graph.edges.items()},
    )
    membership = list(range(level.n))  # original node -> current super-node
    while True:
        comm = _local_moving(level)
        if all(comm[i] == i for i in range(level.n)) or len(set(comm)) == level.n:
            break
        level, mapping = _aggregate(level, comm)
        membership = [mapping[membership[i]] for i in range(len(membership))]

    # contiguous labels ordered by smallest member node id
    first_member: dict[int, int] = {}
    for i, c in enumerate(membership):
        first_member.setdefault(c, i)
    order = sorted(first_member, key=lambda c: first_member[c])
    relabel = {c: rank for rank, c in enumerate(order)}
    labels = {node: relabel[membership[index[node]]] for node in graph.nodes}
    return CommunityAssignment(labels=labels, modularity=directed_modularity(graph, labels))
