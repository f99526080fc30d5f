"""Node embeddings for the copy graph.

Second-order biased random walks (return parameter ``p``, in-out parameter
``q``) feed a from-scratch skip-gram trainer with negative sampling. The
walk view of the graph is undirected by default — copy volume between two
sources is summed across both directions — since proximity, not direction,
is what the downstream trust cost consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .graph import CsnGraph

VECTORS_HEADER = "#vectors v1"

DEFAULT_DIMS = 64
DEFAULT_WALK_LENGTH = 80
DEFAULT_WALKS_PER_NODE = 10
DEFAULT_WINDOW = 10
DEFAULT_NEGATIVES = 5
DEFAULT_EPOCHS = 5
DEFAULT_LEARNING_RATE = 0.025
NOISE_EXPONENT = 0.75


@dataclass
class SourceVectors:
    """Learned vectors keyed by source id, with the hyperparameters that
    produced them (kept as strings for lossless file round-trips)."""

    dims: int
    vectors: dict[str, np.ndarray]
    params: dict[str, str] = field(default_factory=dict)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]. A zero-norm vector carries no direction,
    so its distance to anything is the neutral 1.0."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b)) / (norm_a * norm_b)


def _walk_view(graph: CsnGraph, directed: bool) -> dict[str, dict[str, float]]:
    adj: dict[str, dict[str, float]] = {node: {} for node in graph.nodes}
    for (src, dst), w in graph.edges.items():
        adj[src][dst] = adj[src].get(dst, 0.0) + w
        if not directed:
            adj[dst][src] = adj[dst].get(src, 0.0) + w
    return adj


def generate_walks(
    graph: CsnGraph,
    rng: np.random.Generator,
    p: float = 1.0,
    q: float = 1.0,
    walk_length: int = DEFAULT_WALK_LENGTH,
    walks_per_node: int = DEFAULT_WALKS_PER_NODE,
    directed: bool = False,
) -> list[list[str]]:
    """Biased random walks, ``walks_per_node`` rounds over the sorted node
    list. Exactly one uniform draw per step taken; a node with no
    out-neighbors in the walk view ends its walk early.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"walk bias parameters must be positive (p={p}, q={q})")
    if walk_length < 1 or walks_per_node < 1:
        raise ValueError("walk_length and walks_per_node must be >= 1")

    adj = _walk_view(graph, directed)
    neighbor_ids = {n: sorted(adj[n]) for n in graph.nodes}
    neighbor_sets = {n: set(adj[n]) for n in graph.nodes}
    base_weights = {
        n: np.array([adj[n][x] for x in neighbor_ids[n]], dtype=float) for n in graph.nodes
    }

    walks: list[list[str]] = []
    for _round in range(walks_per_node):
        for start in graph.nodes:
            walk = [start]
            prev: str | None = None
            while len(walk) < walk_length:
                cur = walk[-1]
                ids = neighbor_ids[cur]
                if not ids:
                    break
                weights = base_weights[cur]
                if prev is not None and (p != 1.0 or q != 1.0):
                    prev_nbrs = neighbor_sets[prev]
                    scale = np.array(
                        [
                            1.0 / p if x == prev else (1.0 if x in prev_nbrs else 1.0 / q)
                            for x in ids
                        ]
                    )
                    weights = weights * scale
                cum = np.cumsum(weights)
                u = rng.random() * cum[-1]
                idx = min(int(np.searchsorted(cum, u, side="right")), len(ids) - 1)
                prev = cur
                walk.append(ids[idx])
            walks.append(walk)
    return walks


def train_embeddings(
    walks: list[list[str]],
    rng: np.random.Generator,
    dims: int = DEFAULT_DIMS,
    window: int = DEFAULT_WINDOW,
    negatives: int = DEFAULT_NEGATIVES,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> SourceVectors:
    """Skip-gram with negative sampling over the walk corpus.

    Vocabulary in sorted order; input vectors initialized uniform in
    +/- 0.5/dims, output vectors at zero; noise distribution is the unigram
    distribution raised to 0.75. The window is dynamic (uniform 1..window per
    center position) and the learning rate decays linearly to 1e-4 of its
    starting value over all processed positions. Single-threaded and fully
    deterministic for a given generator state.
    """
    if dims < 1 or window < 1 or negatives < 0 or epochs < 1:
        raise ValueError("bad hyperparameters")
    counts: dict[str, int] = {}
    for walk in walks:
        for node in walk:
            counts[node] = counts.get(node, 0) + 1
    if not counts:
        raise ValueError("cannot train on an empty walk corpus")

    vocab = sorted(counts)
    index = {node: i for i, node in enumerate(vocab)}
    n = len(vocab)

    noise = np.array([counts[w] for w in vocab], dtype=float) ** NOISE_EXPONENT
    noise_cum = np.cumsum(noise / noise.sum())
    noise_cum[-1] = 1.0

    w_in = (rng.random((n, dims)) - 0.5) / dims
    w_out = np.zeros((n, dims))

    positions = sum(len(walk) for walk in walks)
    total = epochs * positions
    min_alpha = learning_rate * 1e-4
    processed = 0

    for _epoch in range(epochs):
        for walk in walks:
            encoded = [index[node] for node in walk]
            for t, center in enumerate(encoded):
                alpha = max(min_alpha, learning_rate * (1.0 - processed / total))
                processed += 1
                span = int(rng.integers(1, window + 1))
                lo = max(0, t - span)
                hi = min(len(encoded), t + span + 1)
                v = w_in[center]
                for s in range(lo, hi):
                    if s == t:
                        continue
                    context = encoded[s]
                    rows = np.empty(negatives + 1, dtype=np.intp)
                    rows[0] = context
                    if negatives:
                        rows[1:] = np.searchsorted(noise_cum, rng.random(negatives), side="right")
                    labels = np.zeros(negatives + 1)
                    labels[0] = 1.0
                    h = w_out[rows]
                    g = (labels - expit(h @ v)) * alpha
                    grad_v = g @ h
                    np.add.at(w_out, rows, np.outer(g, v))
                    v += grad_v
    vectors = {node: w_in[index[node]].copy() for node in vocab}
    return SourceVectors(
        dims=dims,
        vectors=vectors,
        params={
            "dims": str(dims),
            "window": str(window),
            "negatives": str(negatives),
            "epochs": str(epochs),
            "learning_rate": repr(learning_rate),
        },
    )


def embed_graph(
    graph: CsnGraph,
    seed: int,
    dims: int = DEFAULT_DIMS,
    p: float = 1.0,
    q: float = 1.0,
    walk_length: int = DEFAULT_WALK_LENGTH,
    walks_per_node: int = DEFAULT_WALKS_PER_NODE,
    window: int = DEFAULT_WINDOW,
    negatives: int = DEFAULT_NEGATIVES,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    directed: bool = False,
) -> SourceVectors:
    """Walks plus training in one call, with independent generator streams
    derived from ``seed`` so the two stages cannot perturb each other."""
    walk_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
    walks = generate_walks(
        graph,
        np.random.default_rng(walk_ss),
        p=p,
        q=q,
        walk_length=walk_length,
        walks_per_node=walks_per_node,
        directed=directed,
    )
    result = train_embeddings(
        walks,
        np.random.default_rng(train_ss),
        dims=dims,
        window=window,
        negatives=negatives,
        epochs=epochs,
        learning_rate=learning_rate,
    )
    result.params.update(
        {
            "p": repr(p),
            "q": repr(q),
            "walk_length": str(walk_length),
            "walks_per_node": str(walks_per_node),
            "directed": "1" if directed else "0",
            "seed": str(seed),
        }
    )
    return result


def save_vectors(vectors: SourceVectors, path) -> None:
    """Header line with hyperparameters, then one tab-separated row per
    source. Components serialize at full precision; loads are exact."""
    with open(path, "w", encoding="utf-8") as fh:
        params = "\t".join(f"{k}={vectors.params[k]}" for k in sorted(vectors.params))
        fh.write(VECTORS_HEADER + ("\t" + params if params else "") + "\n")
        for node in sorted(vectors.vectors):
            row = vectors.vectors[node]
            if row.shape != (vectors.dims,):
                raise ValueError(f"{node!r}: vector shape {row.shape} != ({vectors.dims},)")
            fh.write(node + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")


def load_vectors(path) -> SourceVectors:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[0] != VECTORS_HEADER:
            raise ValueError(f"{path}:1: expected header {VECTORS_HEADER!r}, got {header[0]!r}")
        params: dict[str, str] = {}
        for part in header[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"{path}:1: malformed parameter {part!r}")
            params[key] = value
        dims = None
        if "dims" in params:
            try:
                dims = int(params["dims"])
            except ValueError:
                pass
            if dims is None or dims < 1:
                raise ValueError(f"{path}:1: dims must be a positive integer, got {params['dims']!r}")
        vectors: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            try:
                row = np.array([float(x) for x in fields[1:]], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{lineno}: non-finite component in {fields[0]!r}")
            if dims is None:
                dims = len(row)
            if len(row) != dims:
                raise ValueError(f"{path}:{lineno}: expected {dims} components, got {len(row)}")
            if fields[0] in vectors:
                raise ValueError(f"{path}:{lineno}: duplicate source {fields[0]!r}")
            vectors[fields[0]] = row
    if not vectors:
        raise ValueError(f"{path}: no vectors found")
    return SourceVectors(dims=dims, vectors=vectors, params=params)
