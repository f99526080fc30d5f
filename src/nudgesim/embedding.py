"""Node embeddings for the copy graph.

Second-order biased random walks (return parameter ``p``, in-out parameter
``q``) feed a from-scratch skip-gram trainer with negative sampling. The
walk view of the graph is undirected by default — copy volume between two
sources is summed across both directions — since proximity, not direction,
is what the downstream trust cost consumes.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix
from scipy.special import expit

from .corpus import read_utf8
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
# positions per skip-gram minibatch; chosen by a sweep of training time and
# community homophily (see CHANGES.md)
TRAIN_BLOCK = 128

logger = logging.getLogger(__name__)


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


def community_cosines(vectors: SourceVectors, labels: dict) -> tuple[float, float]:
    """Mean cosine over the pairs of sources in one community (intra) and
    over the pairs in different communities (inter); nan where there is no
    such pair. ``labels`` maps each source to its community. A zero vector
    has cosine 0 with everything, as :func:`cosine_distance` gives it 1.0.

    Over unit rows the pairwise cosines sum to (|sum u|^2 - sum |u|^2) / 2,
    so both means come from per-community sums of unit rows, in O(n * dims)
    and without visiting pairs."""
    ids = sorted(vectors.vectors)
    rows = np.array([vectors.vectors[s] for s in ids], dtype=float)
    norms = np.linalg.norm(rows, axis=1)[:, None]
    unit = np.divide(rows, norms, out=np.zeros_like(rows), where=norms != 0.0)
    _, groups = np.unique([labels[s] for s in ids], return_inverse=True)
    sizes = np.bincount(groups)
    sums = np.zeros((len(sizes), vectors.dims))
    np.add.at(sums, groups, unit)
    within = float((sums * sums).sum())  # sum over communities of |S_c|^2
    intra_pairs = int((sizes * (sizes - 1)).sum()) // 2
    inter_pairs = (len(ids) ** 2 - int((sizes * sizes).sum())) // 2
    intra = (within - float((unit * unit).sum())) / 2.0
    inter = (float(np.square(unit.sum(axis=0)).sum()) - within) / 2.0
    return (
        intra / intra_pairs if intra_pairs else math.nan,
        inter / inter_pairs if inter_pairs else math.nan,
    )


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

    view = graph.weights if directed else graph.undirected
    ptr = view.indptr
    neighbor_ids = [view.indices[ptr[i] : ptr[i + 1]].tolist() for i in range(len(graph.nodes))]
    neighbor_sets = [set(ids) for ids in neighbor_ids]
    base_weights = [view.data[ptr[i] : ptr[i + 1]] for i in range(len(graph.nodes))]
    biased = p != 1.0 or q != 1.0
    # cumulative weights per node, and per (previous, current) state of a
    # biased walk, each computed once, on first use
    cumulative: dict[object, list[float]] = {
        i: np.cumsum(w).tolist() for i, w in enumerate(base_weights)
    }

    def second_order(prev: int, cur: int) -> list[float]:
        prev_nbrs = neighbor_sets[prev]
        scale = np.array(
            [1.0 / p if x == prev else (1.0 if x in prev_nbrs else 1.0 / q) for x in neighbor_ids[cur]]
        )
        return np.cumsum(base_weights[cur] * scale).tolist()

    walks: list[list[str]] = []
    for _round in range(walks_per_node):
        for start in range(len(graph.nodes)):
            walk = [start]
            prev: int | None = None
            while len(walk) < walk_length:
                cur = walk[-1]
                ids = neighbor_ids[cur]
                if not ids:
                    break
                key = (prev, cur) if biased and prev is not None else cur
                if key not in cumulative:
                    cumulative[key] = second_order(prev, cur)
                cum = cumulative[key]
                u = rng.random() * cum[-1]
                idx = min(bisect.bisect_right(cum, u), len(ids) - 1)
                prev = cur
                walk.append(ids[idx])
            walks.append([graph.nodes[i] for i in walk])
    return walks


def _add_damped(w, rows, coef, vecs, width, trace) -> None:
    """Add ``coef[j] * vecs[j // width]`` to row ``rows[j]`` of ``w`` for every
    term j, as one sparse (node x pair) matrix, ``width`` terms per column,
    times ``vecs``.

    ``trace[j]`` is the term's curvature, alpha * sigma' * |other vector|^2.
    A row whose terms sum to a curvature trace c takes its summed step scaled
    by 1 / max(1, 2c), half the budget because the other side of each pair
    moves too: a row hit a few times in a block (c <= 1/2) takes the plain
    sum, and a row hit many times (a hub, a tiny vocabulary), whose stale
    summed step would overshoot, cannot.
    """
    damp = 1.0 / np.maximum(1.0, 2.0 * np.bincount(rows, weights=trace, minlength=len(w)))
    scatter = csc_matrix(
        (coef * damp[rows], rows, np.arange(0, len(rows) + 1, width)),
        shape=(len(w), len(vecs)),
    )
    w += scatter @ vecs


def train_embeddings(
    walks: list[list[str]],
    rng: np.random.Generator,
    dims: int = DEFAULT_DIMS,
    window: int = DEFAULT_WINDOW,
    negatives: int = DEFAULT_NEGATIVES,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> SourceVectors:
    """Skip-gram with negative sampling over the walk corpus, in minibatches.

    Vocabulary in sorted order; input vectors initialized uniform in
    +/- 0.5/dims, output vectors at zero; noise distribution is the unigram
    distribution raised to 0.75. The window is dynamic (uniform 1..window per
    center position) and the learning rate decays linearly to 1e-4 of its
    starting value over all processed positions.

    Each epoch walks the concatenated corpus in blocks of ``TRAIN_BLOCK``
    consecutive positions (a block may span walks; context never crosses a
    walk boundary). Per block the generator draws, in this order, one span
    per position (``integers(1, window + 1, size=positions)``) and then one
    uniform per negative sample (``random((pairs, negatives))``, pairs
    ordered by center position, then context position). Every gradient of
    a block comes from the parameters as they were at its start, and each
    row's summed update is applied once at its end, damped when the row was
    hit often enough to overshoot (:func:`_add_damped`). At INFO the mean
    loss per (center, context) pair of each epoch is logged. Single-threaded
    and fully deterministic for a given generator state.
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

    tokens = np.array([index[node] for walk in walks for node in walk], dtype=np.intp)
    lengths = np.array([len(walk) for walk in walks], dtype=np.intp)
    walk_end = np.repeat(np.cumsum(lengths), lengths)
    walk_start = walk_end - np.repeat(lengths, lengths)
    positions = len(tokens)
    total = epochs * positions
    min_alpha = learning_rate * 1e-4
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    signs = 2.0 * labels - 1.0
    track_loss = logger.isEnabledFor(logging.INFO)

    for epoch in range(epochs):
        loss_sum = 0.0
        pair_count = 0
        for b0 in range(0, positions, TRAIN_BLOCK):
            t = np.arange(b0, min(b0 + TRAIN_BLOCK, positions))
            spans = rng.integers(1, window + 1, size=len(t))
            ctx = t[:, None] + offsets
            keep = (
                (np.abs(offsets) <= spans[:, None])
                & (ctx >= walk_start[t, None])
                & (ctx < walk_end[t, None])
            )
            at, _ = np.nonzero(keep)
            pairs = len(at)
            centers = tokens[t[at]]
            rows = np.empty((pairs, negatives + 1), dtype=np.intp)
            rows[:, 0] = tokens[ctx[keep]]
            rows[:, 1:] = np.searchsorted(noise_cum, rng.random((pairs, negatives)), side="right")
            alpha = np.maximum(
                min_alpha, learning_rate * (1.0 - (epoch * positions + t[at]) / total)
            )

            v = w_in[centers]
            h = w_out[rows]
            scores = np.einsum("pkd,pd->pk", h, v)
            if track_loss:
                loss_sum += float(np.logaddexp(0.0, -signs * scores).sum())
                pair_count += pairs
            sig = expit(scores)
            g = (labels - sig) * alpha[:, None]
            curvature = alpha[:, None] * sig * (1.0 - sig)
            grad_in = np.einsum("pk,pkd->pd", g, h)
            _add_damped(
                w_in, centers, np.ones(pairs), grad_in, 1,
                (curvature * np.einsum("pkd,pkd->pk", h, h)).sum(axis=1),
            )
            _add_damped(
                w_out, rows.ravel(), g.ravel(), v, negatives + 1,
                (curvature * np.einsum("pd,pd->p", v, v)[:, None]).ravel(),
            )
        if track_loss and pair_count:
            logger.info(
                "skip-gram epoch %d/%d: mean loss %.4f per pair over %d pairs",
                epoch + 1,
                epochs,
                loss_sum / pair_count,
                pair_count,
            )
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
    p: float = 1.0,
    q: float = 1.0,
    walk_length: int = DEFAULT_WALK_LENGTH,
    walks_per_node: int = DEFAULT_WALKS_PER_NODE,
    directed: bool = False,
    **training,
) -> SourceVectors:
    """Walks plus training in one call, with independent generator streams
    derived from ``seed`` so the two stages cannot perturb each other.
    ``training`` (``dims``, ``window``, ``negatives``, ``epochs``,
    ``learning_rate``) goes to :func:`train_embeddings` as given."""
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
    result = train_embeddings(walks, np.random.default_rng(train_ss), **training)
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
    with read_utf8(path) as fh:
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
            if not fields[0]:
                raise ValueError(f"{path}:{lineno}: empty source id")
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
