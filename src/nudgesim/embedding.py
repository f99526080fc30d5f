"""Node embeddings for the copy graph.

Second-order biased random walks (return parameter ``p``, in-out parameter
``q``) feed a from-scratch skip-gram trainer with negative sampling. The
walk view of the graph is undirected by default — copy volume between two
sources is summed across both directions — since proximity, not direction,
is what the downstream trust cost consumes.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix

from .corpus import check_source_name, read_utf8, write_text
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
# uniforms per bulk draw of the walk generator (see generate_walks)
WALK_CHUNK = 4096
# below this norm, v·v is below the smallest normal float and has lost the bits
# cosines need: such a vector has no direction, at cosine distance 1.0 from all
NO_DIRECTION_NORM = math.sqrt(np.finfo(float).tiny)
# every stage takes its seed modulo 2^64 (numpy's SeedSequence takes none < 0)
SEED_MASK = 2**64 - 1

logger = logging.getLogger(__name__)


@dataclass
class SourceVectors:
    """Learned vectors keyed by source id, with the hyperparameters that
    produced them (kept as strings for lossless file round-trips)."""

    dims: int
    vectors: dict[str, np.ndarray]
    params: dict[str, str] = field(default_factory=dict)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]. A vector without direction (norm below
    :data:`NO_DIRECTION_NORM`) is at the neutral 1.0 from anything."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if min(norm_a, norm_b) < NO_DIRECTION_NORM:
        return 1.0
    return 1.0 - float(np.dot(a, b)) / (norm_a * norm_b)


def check_vector(source_id: str, vector) -> None:
    """The one rule for a source vector: ``v·v``, whose square root is its
    norm, must be finite, and the vector must have a direction (norm at
    least :data:`NO_DIRECTION_NORM`) unless it is zero. A non-finite
    component, or components so large that ``v·v`` overflows, would make
    every cosine against the vector nan."""
    vector = np.asarray(vector, dtype=float)
    with np.errstate(over="ignore"):
        square = np.dot(vector, vector)
    if not np.isfinite(square):
        raise ValueError(f"non-finite vector norm for {source_id!r}")
    if math.sqrt(square) < NO_DIRECTION_NORM and vector.any():
        raise ValueError(f"vector for {source_id!r} is not zero but its squared norm is subnormal")


def community_cosines(vectors: SourceVectors, labels: dict) -> tuple[float, float]:
    """Mean cosine over the pairs of sources in one community (intra) and
    over the pairs in different communities (inter); nan where there is no
    such pair; ``labels`` maps each source to its community. A vector with no
    direction has cosine 0 with all, as :func:`cosine_distance` gives it 1.0.

    Over unit rows the pairwise cosines sum to (|sum u|^2 - sum |u|^2) / 2,
    so both means come from per-community sums of unit rows, in O(n * dims)
    and without visiting pairs."""
    ids = sorted(vectors.vectors)
    rows = np.array([vectors.vectors[s] for s in ids], dtype=float)
    norms = np.linalg.norm(rows, axis=1)[:, None]
    unit = np.divide(rows, norms, out=np.zeros_like(rows), where=norms >= NO_DIRECTION_NORM)
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
) -> list[list[int]]:
    """Biased random walks, ``walks_per_node`` rounds over the sorted node
    list, each a list of node indices into ``graph.nodes``. Each step taken
    consumes one uniform; a node with no out-neighbors in the walk view ends
    its walk early.

    The uniforms are drawn in chunks of ``WALK_CHUNK``. ``random(size)``
    yields the doubles of as many ``random()`` calls, so the walks are
    exactly those of one ``random()`` call per step taken.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"walk bias parameters must be positive (p={p}, q={q})")
    if walk_length < 1 or walks_per_node < 1:
        raise ValueError("walk_length and walks_per_node must be >= 1")

    view = graph.weights if directed else graph.undirected
    ptr = view.indptr.tolist()
    rows = list(zip(ptr, ptr[1:]))
    indices, data = view.indices.tolist(), view.data.tolist()
    neighbor_ids = [indices[a:b] for a, b in rows]
    biased = p != 1.0 or q != 1.0
    # cumulative weights per node, and per (previous, current) state of a
    # biased walk, computed on first use; both add left to right, as
    # np.cumsum does
    cumulative: dict[object, list[float]] = {
        i: list(itertools.accumulate(data[a:b])) for i, (a, b) in enumerate(rows)
    }

    def second_order(prev: int, cur: int) -> list[float]:
        prev_nbrs = set(neighbor_ids[prev])
        scale = np.array(
            [1.0 / p if x == prev else (1.0 if x in prev_nbrs else 1.0 / q) for x in neighbor_ids[cur]]
        )
        return np.cumsum(view.data[ptr[cur] : ptr[cur + 1]] * scale).tolist()

    bisect_right = bisect.bisect_right
    cached = cumulative.get
    uniforms: list[float] = []
    used = 0
    walks: list[list[int]] = []
    for _round in range(walks_per_node):
        for start in range(len(rows)):
            walk = [start]
            prev = None
            cur = start
            for _step in range(walk_length - 1):
                ids = neighbor_ids[cur]
                if not ids:
                    break
                key = (prev, cur) if biased and prev is not None else cur
                cum = cached(key)
                if cum is None:
                    cum = cumulative[key] = second_order(prev, cur)
                if used == len(uniforms):
                    uniforms = rng.random(WALK_CHUNK).tolist()
                    used = 0
                idx = bisect_right(cum, uniforms[used] * cum[-1])
                used += 1
                prev = cur
                cur = ids[idx] if idx < len(ids) else ids[-1]
                walk.append(cur)
            walks.append(walk)
    return walks


def _add_damped(w, rows, coef, vecs, indptr, trace) -> None:
    """Add ``coef[j] * vecs[c]`` to row ``rows[j]`` of ``w`` for every term j
    of column c, whose terms are ``indptr[c]`` up to ``indptr[c + 1]``, as one
    sparse (row x column) matrix times ``vecs``. Each row of ``w`` takes the
    sum of its own terms, added in term order from 0.0.

    ``trace[j]`` is the term's curvature, alpha * sigma' * |other vector|^2.
    A row whose terms sum to a curvature trace c takes its summed step scaled
    by 1 / max(1, 2c), half the budget because the other side of each pair
    moves too: a row hit a few times in a block (c <= 1/2) takes the plain
    sum, and a row hit many times (a hub, a tiny vocabulary), whose stale
    summed step would overshoot, cannot.
    """
    damp = 1.0 / np.maximum(1.0, 2.0 * np.bincount(rows, weights=trace, minlength=len(w)))
    w += csc_matrix((coef * damp[rows], rows, indptr), shape=(len(w), len(vecs))) @ vecs


def _noise_lookup(noise_cum: np.ndarray):
    """``u -> np.searchsorted(noise_cum, u, side="right")`` for uniforms ``u``
    in [0, 1), where ``noise_cum`` is nondecreasing and ends at 1.0.

    [0, 1) is cut into K buckets, K the power of two at least four times the
    table size. ``first[b]`` is the answer at the bucket's left edge b/K, and
    ``span`` the most table entries strictly inside one bucket. A key's answer
    is ``first`` of its bucket plus that bucket's entries not above it, which
    ``span`` passes of ``idx += noise_cum[idx] <= u`` count. The lookup is
    exact: ``u * K`` and ``b / K`` round nothing, and every comparison is one
    the binary search would make."""
    k = 1 << (4 * len(noise_cum) - 1).bit_length()
    first = np.searchsorted(noise_cum, np.arange(k) / k, side="right")
    scaled = noise_cum[noise_cum < 1.0] * k
    inside = scaled[scaled != np.floor(scaled)].astype(np.intp)
    span = int(np.bincount(inside, minlength=1).max())

    def lookup(u: np.ndarray) -> np.ndarray:
        idx = first[(u * k).astype(np.intp)]
        for _ in range(span):
            idx += noise_cum[idx] <= u
        return idx

    return lookup


def train_embeddings(
    walks: list[list[int]],
    nodes: list[str],
    rng: np.random.Generator,
    dims: int = DEFAULT_DIMS,
    window: int = DEFAULT_WINDOW,
    negatives: int = DEFAULT_NEGATIVES,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> SourceVectors:
    """Skip-gram with negative sampling over the walk corpus, in minibatches.

    The walks hold indices into ``nodes``, which name the vectors. The
    vocabulary is the nodes the walks visit, in index order (sorted, for a
    graph's walks); input vectors initialized uniform in
    +/- 0.5/dims, output vectors at zero; noise distribution is the unigram
    distribution raised to 0.75. The window is dynamic (uniform 1..window per
    center position) and the learning rate decays linearly to 1e-4 of its
    starting value over all processed positions.

    Each epoch walks the concatenated corpus in blocks of ``TRAIN_BLOCK``
    consecutive positions (a block may span walks; context never crosses a
    walk boundary). Per block the generator draws, in this order, one span
    per position (``integers(1, window + 1, size=positions)``) and then one
    uniform per negative sample (``random((pairs, negatives))``, pairs
    ordered by center position, then context position), which picks its
    noise row by an exact bucketed lookup (:func:`_noise_lookup`) that gives
    the row a binary search of the noise table gives. Context offsets are
    built only out to the longest walk, so memory does not grow with
    ``window`` beyond it. Every gradient of
    a block comes from the parameters as they were at its start, and each
    row's summed update is applied once at its end, damped when the row was
    hit often enough to overshoot (:func:`_add_damped`). At INFO the mean
    loss per (center, context) pair of each epoch is logged. Single-threaded
    and fully deterministic for a given generator state.
    """
    if dims < 1 or window < 1 or negatives < 0 or epochs < 1:
        raise ValueError("bad hyperparameters")
    lengths = np.fromiter(map(len, walks), dtype=np.intp, count=len(walks))
    tokens = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.intp, count=int(lengths.sum()))
    if not len(tokens):
        raise ValueError("cannot train on an empty walk corpus")
    # imported here: no other command needs scipy.special, which is slow to load
    from scipy.special import expit

    counts = np.bincount(tokens, minlength=len(nodes))
    vocab = np.flatnonzero(counts)
    n = len(vocab)
    row = np.zeros(len(counts), dtype=np.intp)
    row[vocab] = np.arange(n)
    tokens = row[tokens]

    noise = counts[vocab].astype(float) ** NOISE_EXPONENT
    noise_cum = np.cumsum(noise / noise.sum())
    noise_cum[-1] = 1.0
    noise_rows = _noise_lookup(noise_cum)

    # input vectors in rows [0, n), output vectors in rows [n, 2n)
    w = np.zeros((2 * n, dims))
    w[:n] = (rng.random((n, dims)) - 0.5) / dims

    walk_end = np.repeat(np.cumsum(lengths), lengths)
    walk_start = walk_end - np.repeat(lengths, lengths)
    positions = len(tokens)
    total = epochs * positions
    min_alpha = learning_rate * 1e-4
    # no offset beyond the longest walk lands in a walk, whatever the window
    reach = min(window, int(lengths.max()) - 1)
    offsets = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
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
            # the terms of a block: a column per pair for its center's input
            # row, then a column per pair for its context and negative rows
            terms = np.empty(pairs * (negatives + 2), dtype=np.int32)
            centers, rows = terms[:pairs], terms[pairs:].reshape(pairs, negatives + 1)
            centers[:] = tokens[t[at]]
            rows[:, 0] = tokens[ctx[keep]]
            rows[:, 1:] = noise_rows(rng.random((pairs, negatives)))
            rows += n
            alpha = np.maximum(
                min_alpha, learning_rate * (1.0 - (epoch * positions + t[at]) / total)
            )

            # the input rows' gradients, then the center vectors
            vecs = np.empty((2 * pairs, dims))
            v = vecs[pairs:]
            v[:] = w[centers]
            h = w[rows]
            scores = np.einsum("pkd,pd->pk", h, v)
            if track_loss:
                loss_sum += float(np.logaddexp(0.0, -signs * scores).sum())
                pair_count += pairs
            sig = expit(scores)
            g = (labels - sig) * alpha[:, None]
            curvature = alpha[:, None] * sig * (1.0 - sig)
            np.einsum("pk,pkd->pd", g, h, out=vecs[:pairs])
            coef = np.concatenate((np.ones(pairs), g.ravel()))
            trace = np.concatenate((
                (curvature * np.einsum("pkd,pkd->pk", h, h)).sum(axis=1),
                (curvature * np.einsum("pd,pd->p", v, v)[:, None]).ravel(),
            ))
            indptr = np.concatenate((
                np.arange(pairs, dtype=np.int32),
                np.arange(pairs, len(terms) + 1, negatives + 1, dtype=np.int32),
            ))
            _add_damped(w, terms, coef, vecs, indptr, trace)
        if track_loss and pair_count:
            logger.info(
                "skip-gram epoch %d/%d: mean loss %.4f per pair over %d pairs",
                epoch + 1,
                epochs,
                loss_sum / pair_count,
                pair_count,
            )
    vectors = {nodes[i]: w[r].copy() for r, i in enumerate(vocab.tolist())}
    return SourceVectors(
        dims=dims,
        vectors=vectors,
        params={
            "dims": str(dims),
            "window": str(window),
            "negatives": str(negatives),
            "epochs": str(epochs),
            "learning_rate": str(learning_rate),
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
    derived from ``seed`` modulo 2^64, so the two stages cannot perturb each
    other. ``training`` (``dims``, ``window``, ``negatives``, ``epochs``,
    ``learning_rate``) goes to :func:`train_embeddings` as given."""
    walk_ss, train_ss = np.random.SeedSequence(seed & SEED_MASK).spawn(2)
    walks = generate_walks(
        graph,
        np.random.default_rng(walk_ss),
        p=p,
        q=q,
        walk_length=walk_length,
        walks_per_node=walks_per_node,
        directed=directed,
    )
    result = train_embeddings(walks, graph.nodes, np.random.default_rng(train_ss), **training)
    result.params.update(
        {
            "p": str(p),
            "q": str(q),
            "walk_length": str(walk_length),
            "walks_per_node": str(walks_per_node),
            "directed": "1" if directed else "0",
            "seed": str(seed),
        }
    )
    return result


def save_vectors(vectors: SourceVectors, path) -> None:
    """Header line with hyperparameters, then one tab-separated row per
    source, through ``corpus.write_text``; each component is its shortest
    round-trip decimal, so loads are exact. Nothing is written that
    :func:`load_vectors` would refuse or read back otherwise: parameters are
    strings with no tab, ``\\n`` or ``\\r``, named, with no ``=`` in a name,
    ``dims`` if given is ``str(dims)``, and some vector has 1 component or
    more. Then each row's source id, shape and :func:`check_vector` are checked
    before the rows are sorted; the first bad parameter, then row, raises."""
    for key, value in vectors.params.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise ValueError(f"parameter {key!r}={value!r} is not a pair of strings")
        if not key:
            raise ValueError("a parameter has an empty name")
        if "=" in key:
            raise ValueError(f"parameter {key!r} holds '=' in its name")
        if any(c in key + value for c in "\t\n\r"):
            raise ValueError(f"parameter {key!r}={value!r} holds a tab, \\n or \\r")
    if vectors.params.get("dims", str(vectors.dims)) != str(vectors.dims):
        raise ValueError(f"parameter dims={vectors.params['dims']!r} is not the vectors' dims {vectors.dims}")
    if not vectors.vectors or vectors.dims < 1:
        raise ValueError(f"nothing to write: {len(vectors.vectors)} vectors of dims {vectors.dims}")
    for node, row in vectors.vectors.items():
        check_source_name(node)
        if row.shape != (vectors.dims,):
            raise ValueError(f"{node!r}: vector shape {row.shape} != ({vectors.dims},)")
        check_vector(node, row)
    params = "".join(f"\t{k}={vectors.params[k]}" for k in sorted(vectors.params))
    rows = (node + "\t" + "\t".join(map(str, row.tolist())) + "\n" for node, row in sorted(vectors.vectors.items()))
    write_text(path, VECTORS_HEADER + params + "\n" + "".join(rows))


def load_vectors(path) -> SourceVectors:
    with read_utf8(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[0] != VECTORS_HEADER:
            raise ValueError(f"{path}:1: expected header {VECTORS_HEADER!r}, got {header[0]!r}")
        params: dict[str, str] = {}
        for part in header[1:]:
            key, sep, value = part.partition("=")
            if not sep or not key:
                raise ValueError(f"{path}:1: malformed parameter {part!r}")
            if key in params:
                raise ValueError(f"{path}:1: repeated parameter {key!r}")
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
                check_source_name(fields[0])
                row = np.array([float(x) for x in fields[1:]], dtype=float)
                if not len(row):
                    raise ValueError(f"no components for {fields[0]!r}")
                check_vector(fields[0], row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
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
