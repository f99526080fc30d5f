"""Random walks, skip-gram training, and the vector file format.

Walk correctness is checked against exact Markov transition probabilities:
for a fixed (previous, current) state the next-hop distribution is known in
closed form, so long-run conditional frequencies must match it.
"""

import bisect
import collections
import hashlib
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _dot
from test_graph import _graph

from nudgesim import synthetic
from nudgesim.embedding import (
    NOISE_EXPONENT,
    NO_DIRECTION_NORM,
    TRAIN_BLOCK,
    WALK_CHUNK,
    SourceVectors,
    _noise_lookup,
    check_vectors,
    community_cosines,
    cosine_distance,
    embed_graph,
    generate_walks,
    load_vectors,
    row_dots,
    save_vectors,
    train_embeddings,
)


# ---------------------------------------------------------------- distance


def test_cosine_distance_reference_points():
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert cosine_distance(np.array([2.0, 1.0]), np.array([4.0, 2.0])) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == pytest.approx(2.0)
    assert cosine_distance(np.zeros(4), np.ones(4)) == 1.0
    assert cosine_distance(np.ones(4), np.zeros(4)) == 1.0
    # v·v of [0, 5.5e-161] is subnormal: the vector has no direction
    assert cosine_distance(np.array([0.0, 5.5e-161]), np.array([0.0, 1.0])) == 1.0


def test_cosine_distance_range():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert 0.0 - 1e-12 <= cosine_distance(a, b) <= 2.0 + 1e-12


# ---------------------------------------------------------------- step bias


def _pair_loop_cosines(vectors, labels):
    """Oracle: the mean cosine over same-community and over cross-community
    pairs, visiting each row against every later row, with a zero vector at
    cosine 0 as in cosine_distance."""
    nodes = sorted(vectors.vectors)
    rows = np.array([vectors.vectors[n] for n in nodes])
    norms = np.linalg.norm(rows, axis=1)
    community = np.array([labels[n] for n in nodes])
    intra, inter = [], []
    for i in range(len(nodes)):
        later = slice(i + 1, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = rows[later] @ rows[i] / (norms[later] * norms[i])
        cos[(norms[later] == 0.0) | (norms[i] == 0.0)] = 0.0
        same = community[later] == community[i]
        intra += cos[same].tolist()
        inter += cos[~same].tolist()
    return tuple(math.fsum(xs) / len(xs) if xs else math.nan for xs in (intra, inter))


def _random_vectors(n, dims, communities, seed, zero_every=0):
    rng = np.random.default_rng(seed)
    names = [f"s{i:04d}" for i in range(n)]
    labels = {name: i % communities for i, name in enumerate(names)}
    vectors = {name: rng.normal(size=dims) + labels[name] for name in names}
    for name in names[::zero_every] if zero_every else []:
        vectors[name] = np.zeros(dims)
    return SourceVectors(dims=dims, vectors=vectors), labels


def _two_cluster_vectors():
    graph = synthetic.two_cluster_graph()
    vectors = embed_graph(graph, seed=42, dims=16, walk_length=20, walks_per_node=4, epochs=1)
    return vectors, {node: node.split("-")[0] for node in graph.nodes}


@pytest.mark.parametrize(
    "vectors, labels",
    [
        _random_vectors(40, 8, 3, seed=1),
        _random_vectors(40, 8, 3, seed=2, zero_every=4),  # zero vectors
        _random_vectors(12, 4, 12, seed=3),  # every source its own community
        _random_vectors(15, 4, 1, seed=4, zero_every=5),  # one community
        _random_vectors(799, 16, 9, seed=5),  # the population workload's size
        _two_cluster_vectors(),
    ],
    ids=["random", "zero-vectors", "singletons", "one-community", "population-size", "two-cluster"],
)
def test_community_cosines_match_pair_loop(vectors, labels):
    intra, inter = community_cosines(vectors, labels)
    assert type(intra) is float and type(inter) is float
    expected = _pair_loop_cosines(vectors, labels)
    for got, want in zip((intra, inter), expected):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) <= 1e-12


def test_generate_walks_rejects_bad_bias():
    graph = _graph({("a", "b"): 0.5})
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="p="):
        generate_walks(graph, rng, p=0.0)
    with pytest.raises(ValueError, match="positive"):
        generate_walks(graph, rng, q=-1.0)
    with pytest.raises(ValueError):
        generate_walks(graph, rng, walk_length=0)


def test_generate_walks_refuses_a_bias_whose_reciprocal_overflows():
    # 1 / 1e-320 is inf, and nan is not positive; 1 / 1e-300 is finite, and
    # so large a return weight sends every walk back where it came from at each step
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5})
    for bias in ({"p": 1e-320}, {"q": 1e-320}, {"p": math.nan}):
        with pytest.raises(ValueError, match="positive, with finite reciprocals"):
            generate_walks(graph, np.random.default_rng(0), **bias)
    walks = generate_walks(graph, np.random.default_rng(0), p=1e-300, walk_length=12)
    assert all(walk[i + 2] == walk[i] for walk in walks for i in range(len(walk) - 2))


# ---------------------------------------------------------------- walks


def _named(nodes, walks):
    """The walks with each node index replaced by its name in ``nodes``."""
    return [[nodes[i] for i in walk] for walk in walks]


def test_walks_cover_every_node_each_round():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5})
    walks = generate_walks(graph, np.random.default_rng(1), walk_length=5, walks_per_node=3)
    assert len(walks) == 9
    assert [w[0] for w in walks] == [0, 1, 2] * 3
    assert all(type(i) is int for walk in walks for i in walk)


def test_walks_truncate_at_dead_end():
    # directed path a -> b -> c with no way onward from c
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5})
    walks = generate_walks(
        graph, np.random.default_rng(2), walk_length=10, walks_per_node=1, directed=True
    )
    assert _named(graph.nodes, walks) == [["a", "b", "c"], ["b", "c"], ["c"]]


def test_walks_undirected_view_sums_reciprocal_weights():
    # a->b and b->a merge into one undirected neighbor relation; from a the
    # only move is to b regardless of direction
    graph = _graph({("a", "b"): 0.25, ("b", "a"): 0.5})
    walks = generate_walks(graph, np.random.default_rng(3), walk_length=4, walks_per_node=1)
    assert _named(graph.nodes, walks) == [["a", "b", "a", "b"], ["b", "a", "b", "a"]]


_TRIANGLE = {("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5}


@pytest.mark.parametrize(
    "edges, walk_kwargs",
    [
        (_TRIANGLE, dict(p=2.0, q=0.5, walk_length=7, walks_per_node=2)),
        # c is a sink of the directed view: walks through it end early
        ({("a", "b"): 0.5, ("b", "c"): 0.3, ("a", "c"): 0.2}, dict(walk_length=6, walks_per_node=3, directed=True)),
        (_TRIANGLE, dict(walk_length=1, walks_per_node=3)),
        (_TRIANGLE, dict(walk_length=1500, walks_per_node=2)),
    ],
    ids=["biased", "directed-sink", "length-one", "several-chunks"],
)
def test_walks_take_one_uniform_per_step(edges, walk_kwargs):
    # each step taken is the documented sampler on the next random() of the
    # generator: the bulk draws give the same uniforms, in the same order
    graph = _graph(edges)
    walks = generate_walks(graph, np.random.default_rng(4), **walk_kwargs)
    draws = np.random.default_rng(4)
    p, q = walk_kwargs.get("p", 1.0), walk_kwargs.get("q", 1.0)
    view = graph.weights if walk_kwargs.get("directed") else graph.undirected
    steps_taken = 0
    for walk in walks:
        for prev, i, nxt in zip([None, *walk], walk, walk[1:]):
            ids = view.indices[view.indptr[i] : view.indptr[i + 1]].tolist()
            weights = view.data[view.indptr[i] : view.indptr[i + 1]]
            if prev is not None:
                prev_nbrs = view.indices[view.indptr[prev] : view.indptr[prev + 1]].tolist()
                weights = weights * [1 / p if x == prev else 1.0 if x in prev_nbrs else 1 / q for x in ids]
            cum = np.cumsum(weights).tolist()
            idx = min(bisect.bisect_right(cum, draws.random() * cum[-1]), len(ids) - 1)
            assert ids[idx] == nxt
            steps_taken += 1
    if walk_kwargs["walk_length"] == 1:
        assert steps_taken == 0
    if walk_kwargs.get("directed"):
        assert min(map(len, walks)) < walk_kwargs["walk_length"]
    if walk_kwargs["walk_length"] == 1500:
        assert steps_taken > 2 * WALK_CHUNK


class _CallCountingGenerator:
    """Forwards ``random`` to a generator and counts its calls."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


def test_world_walks_draw_uniforms_in_bulk():
    rng = _CallCountingGenerator(np.random.default_rng(2024))
    walks = generate_walks(synthetic.world_graph(), rng, p=2.0, q=0.5, walk_length=40, walks_per_node=6)
    steps_taken = sum(len(w) - 1 for w in walks)
    assert steps_taken > WALK_CHUNK
    assert rng.calls <= math.ceil(steps_taken / WALK_CHUNK) + 1


def test_walks_deterministic_for_seed():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.7, ("c", "a"): 0.2, ("a", "c"): 0.4})
    first = generate_walks(graph, np.random.default_rng(11), walk_length=20, walks_per_node=4)
    second = generate_walks(graph, np.random.default_rng(11), walk_length=20, walks_per_node=4)
    assert first == second
    third = generate_walks(graph, np.random.default_rng(12), walk_length=20, walks_per_node=4)
    assert first != third


@pytest.mark.parametrize(
    "p, q, digest",
    [
        (1.0, 1.0, "8eedd31623798d48d6fc1641c35b0e0506ce893f79ea04b4d394ce8dc31d1a60"),
        (2.0, 0.5, "e63309cf3a69c0c70691807876fbc9596b622b2c9014c54ad8309d1e0b4038d4"),
    ],
)
def test_world_walks_match_golden_digest(p, q, digest):
    # digests of the per-step numpy cumsum + searchsorted sampler; any change
    # to the draws or the float arithmetic of a step changes them
    graph = synthetic.world_graph()
    walks = generate_walks(
        graph, np.random.default_rng(2024), p=p, q=q,
        walk_length=40, walks_per_node=6,
    )
    text = "\n".join("\t".join(walk) for walk in _named(graph.nodes, walks))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_first_order_transitions_match_markov_matrix():
    # undirected star-plus-ring; with p=q=1 the next hop from n is exactly
    # weight(n, x) / sum of weights at n
    edges = {("h", "a"): 0.6, ("h", "b"): 0.3, ("h", "c"): 0.1, ("a", "b"): 0.5}
    graph = _graph(edges)
    adj = {n: {} for n in graph.nodes}
    for (u, v), w in edges.items():
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w
    walks = generate_walks(
        graph, np.random.default_rng(7), walk_length=400, walks_per_node=60
    )
    walks = _named(graph.nodes, walks)
    counts = collections.Counter()
    for walk in walks:
        for cur, nxt in zip(walk, walk[1:]):
            counts[(cur, nxt)] += 1
    for cur in graph.nodes:
        total = sum(counts[(cur, x)] for x in adj[cur])
        z = sum(adj[cur].values())
        for nxt, w in adj[cur].items():
            assert counts[(cur, nxt)] / total == pytest.approx(w / z, abs=0.02)


def test_second_order_transitions_match_biased_distribution():
    # state (prev=a, cur=c) on the kite graph: returning to a costs 1/p,
    # b stays flat (a and b are adjacent), d is a genuine exploration at 1/q
    edges = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0, ("c", "d"): 1.0}
    graph = _graph(edges)
    p_, q_ = 4.0, 0.25
    walks = generate_walks(
        graph, np.random.default_rng(8), p=p_, q=q_, walk_length=120, walks_per_node=300
    )
    walks = _named(graph.nodes, walks)
    following = collections.Counter()
    for walk in walks:
        for prev, cur, nxt in zip(walk, walk[1:], walk[2:]):
            if prev == "a" and cur == "c":
                following[nxt] += 1
    weights = {"a": 1.0 / p_, "b": 1.0, "d": 1.0 / q_}
    z = sum(weights.values())
    total = sum(following.values())
    assert total > 2000
    for nxt, w in weights.items():
        assert following[nxt] / total == pytest.approx(w / z, abs=0.02)


# ---------------------------------------------------------------- training


_TOY_NODES = ["a", "b", "c", "d"]


def _toy_walks():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5, ("c", "d"): 0.5})
    assert graph.nodes == _TOY_NODES
    return generate_walks(graph, np.random.default_rng(20), walk_length=15, walks_per_node=6)


def test_train_deterministic_and_seed_sensitive():
    walks = _toy_walks()
    first = train_embeddings(walks, _TOY_NODES, np.random.default_rng(30), dims=8, epochs=2)
    second = train_embeddings(walks, _TOY_NODES, np.random.default_rng(30), dims=8, epochs=2)
    for node in first.vectors:
        assert np.array_equal(first.vectors[node], second.vectors[node])
    other = train_embeddings(walks, _TOY_NODES, np.random.default_rng(31), dims=8, epochs=2)
    assert any(not np.array_equal(first.vectors[n], other.vectors[n]) for n in first.vectors)


def test_train_vocabulary_and_shape():
    result = train_embeddings(_toy_walks(), _TOY_NODES, np.random.default_rng(1), dims=12, epochs=1)
    assert list(result.vectors) == _TOY_NODES
    assert result.dims == 12
    assert all(v.shape == (12,) for v in result.vectors.values())
    assert result.params["dims"] == "12"
    assert result.params["window"] == "10"


def test_train_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        train_embeddings([], [], np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        train_embeddings([[]], ["a"], np.random.default_rng(0))
    with pytest.raises(ValueError, match="hyperparameters"):
        train_embeddings([[0, 1]], ["a", "b"], np.random.default_rng(0), dims=0)


def test_train_vocabulary_is_the_visited_nodes_in_index_order():
    # a node no walk visits gets no vector, and the others keep the rows
    # (and so the initial draws) of their index order
    walks = [[2, 0, 2], [0]]
    result = train_embeddings(walks, ["x", "y", "z"], np.random.default_rng(3), dims=4, epochs=1)
    assert list(result.vectors) == ["x", "z"]
    same = train_embeddings([[1, 0, 1], [0]], ["x", "z"], np.random.default_rng(3), dims=4, epochs=1)
    for node in ("x", "z"):
        assert np.array_equal(result.vectors[node], same.vectors[node])


def _replica_train(walks, rng, dims, window, negatives, epochs, learning_rate):
    """Per-pair scalar replay of the block trainer: the same draws in the
    documented order (init; per block all spans, then all negatives), each
    gradient from the block-start parameters, the updates summed per row and
    damped by the row's curvature trace once per block."""
    counts = collections.Counter(node for walk in walks for node in walk)
    vocab = sorted(counts)
    index = {node: i for i, node in enumerate(vocab)}
    noise = np.array([counts[w] for w in vocab], dtype=float) ** NOISE_EXPONENT
    noise_cum = np.cumsum(noise / noise.sum())
    noise_cum[-1] = 1.0
    w_in = (rng.random((len(vocab), dims)) - 0.5) / dims
    w_out = np.zeros((len(vocab), dims))
    corpus = []  # (token, first position of its walk, one past its last)
    for walk in walks:
        start = len(corpus)
        corpus += [(index[node], start, start + len(walk)) for node in walk]
    total = epochs * len(corpus)
    for epoch in range(epochs):
        for b0 in range(0, len(corpus), TRAIN_BLOCK):
            block = range(b0, min(b0 + TRAIN_BLOCK, len(corpus)))
            spans = rng.integers(1, window + 1, size=len(block))
            pairs = []
            for t, span in zip(block, spans):
                center, lo, hi = corpus[t]
                for s in range(max(lo, t - span), min(hi, t + span + 1)):
                    if s != t:
                        pairs.append((t, center, corpus[s][0]))
            draws = rng.random((len(pairs), negatives))
            d_in, d_out = np.zeros_like(w_in), np.zeros_like(w_out)
            trace_in, trace_out = np.zeros(len(vocab)), np.zeros(len(vocab))
            for (t, center, context), uniforms in zip(pairs, draws):
                alpha = max(learning_rate * 1e-4, learning_rate * (1.0 - (epoch * len(corpus) + t) / total))
                noise_rows = [int(np.searchsorted(noise_cum, u, side="right")) for u in uniforms]
                v = w_in[center]
                for label, row in zip([1.0] + [0.0] * negatives, [context] + noise_rows):
                    h = w_out[row]
                    sig = 1.0 / (1.0 + math.exp(-float(np.dot(h, v))))
                    g = (label - sig) * alpha
                    d_in[center] += g * h
                    d_out[row] += g * v
                    trace_in[center] += alpha * sig * (1.0 - sig) * float(np.dot(h, h))
                    trace_out[row] += alpha * sig * (1.0 - sig) * float(np.dot(v, v))
            w_in += d_in / np.maximum(1.0, 2.0 * trace_in)[:, None]
            w_out += d_out / np.maximum(1.0, 2.0 * trace_out)[:, None]
    return {node: w_in[index[node]] for node in vocab}


@pytest.mark.parametrize("negatives", [0, 3])
def test_train_matches_scalar_block_replica(negatives):
    # a walk of one node and walks that straddle block boundaries; every
    # block repeats nodes in both centers and contexts
    walks = _toy_walks() + [[3], [0, 1]]  # ["d"], ["a", "b"]
    positions = sum(len(walk) for walk in walks)
    assert positions > 2 * TRAIN_BLOCK and positions % TRAIN_BLOCK
    params = dict(dims=5, window=3, negatives=negatives, epochs=2, learning_rate=0.05)
    rng = np.random.default_rng(77)
    result = train_embeddings(walks, _TOY_NODES, rng, **params)
    replay = np.random.default_rng(77)
    expected = _replica_train(_named(_TOY_NODES, walks), replay, **params)
    assert sorted(result.vectors) == sorted(expected)
    for node, vector in expected.items():
        np.testing.assert_allclose(result.vectors[node], vector, rtol=0, atol=1e-12)
    assert rng.bit_generator.state == replay.bit_generator.state


def _vectors_digest(vectors):
    text = "\n".join(
        node + "\t" + " ".join(map(repr, vectors.vectors[node].tolist()))
        for node in sorted(vectors.vectors)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_train_window_far_beyond_walks_is_cheap_and_unchanged():
    # context offsets stop at the longest walk, so a huge window allocates
    # nothing per offset; the digest is that of the per-offset trainer,
    # which built every one of the 2 * 20000 offsets. 2**62 offsets cannot
    # even be asked for, so a trainer that builds them fails at once
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5, ("c", "d"): 0.5})
    walks = generate_walks(graph, np.random.default_rng(20), walk_length=10, walks_per_node=6)
    result = train_embeddings(walks, graph.nodes, np.random.default_rng(40), dims=8, window=20000, epochs=2)
    assert _vectors_digest(result) == "ff2804004b13a58d06ea418cd0a712992beeb663e45046718ec59f0efdd01564"
    huge = train_embeddings(walks, graph.nodes, np.random.default_rng(40), dims=8, window=2**62, epochs=2)
    assert huge.params["window"] == str(2**62)
    assert all(np.isfinite(v).all() for v in huge.vectors.values())


def _lookup_keys(cum):
    """0.0, every bucket edge b/K and the double below it, every table
    entry below 1.0 and the doubles on either side of it."""
    k = 1
    while k < 4 * len(cum):
        k *= 2
    edges = np.arange(k) / k
    entries = cum[cum < 1.0]
    keys = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), entries,
                           np.nextafter(entries, 0.0), np.nextafter(entries, 1.0)])
    return keys[(keys >= 0.0) & (keys < 1.0)]


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=60),
    zeros=st.lists(st.booleans(), max_size=60),
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
)
@example(counts=[1], zeros=[], uniforms=[])
@example(counts=[10**6] + [1] * 50, zeros=[], uniforms=[])
@example(counts=[1, 1, 10**6, 1], zeros=[False, True, False, True], uniforms=[0.5])
def test_noise_lookup_matches_searchsorted(counts, zeros, uniforms):
    # a zero weight repeats the cumulative value before it; one heavy count
    # among light ones packs many entries into one bucket
    weights = np.array(counts, dtype=float) ** NOISE_EXPONENT
    weights[: len(zeros)][np.array(zeros[: len(counts)], dtype=bool)] = 0.0
    if not weights.any():
        weights[-1] = 1.0
    cum = np.cumsum(weights / weights.sum())  # the trainer's noise table
    cum[-1] = 1.0
    keys = np.concatenate([_lookup_keys(cum), uniforms])
    got = _noise_lookup(cum)(keys)
    assert np.array_equal(got, np.searchsorted(cum, keys, side="right"))
    block = np.random.default_rng(len(counts)).random((7, 3))
    assert np.array_equal(_noise_lookup(cum)(block), np.searchsorted(cum, block, side="right"))


def test_train_logs_mean_loss_per_epoch(caplog):
    negatives, epochs = 4, 3
    with caplog.at_level(logging.INFO, logger="nudgesim.embedding"):
        train_embeddings(
            _toy_walks(), _TOY_NODES, np.random.default_rng(5), dims=8, negatives=negatives, epochs=epochs
        )
    losses = [
        float(m.group(1))
        for r in caplog.records
        if (m := re.search(r"mean loss (\S+) per pair", r.getMessage()))
    ]
    assert len(losses) == epochs
    untrained = (1 + negatives) * math.log(2.0)
    assert all(math.isfinite(x) and x < untrained for x in losses)


def test_training_separates_two_communities():
    # two triangles joined by one bridge: vectors inside a triangle should
    # sit closer together than vectors across the bridge
    edges = {}
    for block in (["a1", "a2", "a3"], ["b1", "b2", "b3"]):
        for i in range(3):
            edges[(block[i], block[(i + 1) % 3])] = 1.0
    edges[("a1", "b1")] = 0.2
    graph = _graph(edges)
    vectors = embed_graph(
        graph, seed=42, dims=16, walk_length=30, walks_per_node=20, window=4, epochs=4
    )
    intra, inter = [], []
    names = ["a1", "a2", "a3", "b1", "b2", "b3"]
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            d = cosine_distance(vectors.vectors[x], vectors.vectors[y])
            (intra if x[0] == y[0] else inter).append(d)
    assert np.mean(intra) < np.mean(inter)


def test_embed_graph_records_provenance_params(fixture_csn):
    vectors = embed_graph(
        fixture_csn, seed=7, dims=6, p=2.0, q=0.5, walk_length=8, walks_per_node=2, epochs=1
    )
    assert vectors.params["seed"] == "7"
    assert vectors.params["p"] == "2.0"
    assert vectors.params["q"] == "0.5"
    assert vectors.params["directed"] == "0"
    assert vectors.dims == 6
    assert set(vectors.vectors) == set(fixture_csn.nodes)


def test_embed_graph_deterministic(fixture_csn):
    a = embed_graph(fixture_csn, seed=3, dims=6, walk_length=8, walks_per_node=2, epochs=1)
    b = embed_graph(fixture_csn, seed=3, dims=6, walk_length=8, walks_per_node=2, epochs=1)
    assert all(np.array_equal(a.vectors[n], b.vectors[n]) for n in a.vectors)


# ---------------------------------------------------------------- file format


def test_vectors_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    vectors = SourceVectors(
        dims=5,
        vectors={f"s{i}": rng.normal(size=5) for i in range(4)},
        params={"dims": "5", "seed": "9"},
    )
    path = tmp_path / "vectors.tsv"
    save_vectors(vectors, path)
    loaded = load_vectors(path)
    assert loaded.dims == 5
    assert loaded.params == vectors.params
    for node in vectors.vectors:
        assert np.array_equal(loaded.vectors[node], vectors.vectors[node])


def test_vectors_header_names_each_parameter_once_by_a_nonempty_key(tmp_path):
    path = tmp_path / "vectors.tsv"
    for header, message in (("seed=1\tseed=2\tdims=2", "repeated parameter 'seed'"),
                            ("dims=3\tdims=2", "repeated parameter 'dims'"),
                            ("=1\tdims=2", "malformed parameter '=1'")):
        path.write_text(f"#vectors v1\t{header}\na\t1.0\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}$"):
            load_vectors(path)


@pytest.mark.parametrize(
    "params",
    [{"": "1"}, {"a=b": "1"}, {"y": "1\t2"}, {"y": "1\n2"}, {"y": "1\r"}, {"y\tz": "1"}, {1: "1"}, {"y": 1},
     {"dims": "2"}, {"dims": "01"}],
    ids=["empty-name", "equals-in-name", "tab-in-value", "newline-in-value", "carriage-return-in-value",
         "tab-in-name", "name-not-a-string", "value-not-a-string", "dims-not-the-vectors", "dims-not-canonical"],
)
def test_save_vectors_writes_only_parameters_that_load_back(tmp_path, params):
    # load_vectors would refuse an empty name, split 'a=b=1' at the first
    # '=', split the header at a tab or line break, drop a trailing '\r',
    # read every name and value as a string, and refuse a dims other than
    # str(n); save_vectors names the parameters of the header that would not
    # parse back to them
    path = tmp_path / "vectors.tsv"
    message = f"parameters {params!r} of 1-dim vectors would not load back as they are"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_vectors(SourceVectors(dims=1, vectors={"a": np.ones(1)}, params=params), path)
    assert not path.exists()


def test_vectors_file_errors(tmp_path):
    path = tmp_path / "vectors.tsv"
    path.write_text("#other v1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: expected header"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims\na\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: malformed parameter 'dims'"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims=2\na\t1.0\tnope\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims=2\na\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: vector for 'a' has 1 components, expected 2$"):
        load_vectors(path)
    # a dims of more digits than int() converts is refused with the header
    path.write_text("#vectors v1\tdims=" + "1" * 5000 + "\na\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: dims must be a positive integer, got '1111"):
        load_vectors(path)
    # a blank line is skipped, but still counted in the line numbers
    path.write_text("#vectors v1\tdims=2\na\t1.0\t0.5\n\nb\t1.0\tnope\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":4: could not convert"):
        load_vectors(path)
    # finite components whose norm overflows are refused like non-finite ones
    for bad in ("nan", "inf", "-inf", "1e200\t1e200"):
        row = bad if "\t" in bad else f"{bad}\t1.0"
        path.write_text(f"#vectors v1\tdims=2\na\t1.0\t0.5\nb\t{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3: non-finite"):
            load_vectors(path)
    # so is a nonzero vector whose squared norm is subnormal
    for row in ("2.3e-162\t0.0", "1e-170\t0.0"):
        path.write_text(f"#vectors v1\tdims=2\na\t1.0\t0.5\nb\t{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3: vector for 'b' is not zero but its squared norm is subnormal"):
            load_vectors(path)
    path.write_text("#vectors v1\tdims=1\na\t1.0\na\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_vectors(path)
    # the one source-name rule, so that save_vectors can write back what loads
    for node, match in [
        ("", "source '' is empty"),
        ("#x", "source '#x' is empty, starts with '#'"),
        ("\ud800x", "byte 0xed at offset 29 is not UTF-8"),
    ]:
        text = f"#vectors v1\tdims=2\na\t1.0\t0.5\n{node}\t0.1\t0.2\n"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        with pytest.raises(ValueError, match=f":3: {match}"):
            load_vectors(path)
    # without dims=, a bare source id would set dims to 0
    path.write_text("#vectors v1\na\nb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: no components for 'a'"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no vectors"):
        load_vectors(path)
    for bad in ("x", "0", "-2", ""):
        path.write_text(f"#vectors v1\tdims={bad}\na\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":1: dims must be a positive integer, got '{bad}'"):
            load_vectors(path)


def test_save_vectors_checks_shapes(tmp_path):
    # an id that load_vectors would misread or that is not UTF-8, and a vector
    # it would refuse, are refused before the file is opened, so no partial
    # file is left behind; a name that is not a string is refused before the
    # sort compares it
    path = tmp_path / "vectors.tsv"
    for vectors, match in [
        ({"a": np.zeros(2)}, r"^vector for 'a' has 2 components, expected 3$"),
        ({"a\tb": np.zeros(3)}, "tab or line break"),
        ({"a\nb": np.zeros(3)}, "tab or line break"),
        ({"#x": np.zeros(3)}, "starts with '#'"),
        ({"": np.zeros(3)}, "is empty"),
        ({"ok": np.zeros(3), "\ud800x": np.zeros(3)}, "lone surrogate"),
        ({"a": np.zeros(3), 1: np.zeros(3)}, r"^source 1 is not a string but int$"),
        ({"a": np.array([1.0, np.nan, 0.0])}, r"^non-finite vector norm for 'a'$"),
        ({"a": np.zeros(3), "b": np.full(3, 1e300)}, r"^non-finite vector norm for 'b'$"),
        ({"a": np.full(3, 1e-300)}, r"^vector for 'a' is not zero but its squared norm is subnormal$"),
    ]:
        with pytest.raises(ValueError, match=match):
            save_vectors(SourceVectors(dims=3, vectors=vectors, params={}), path)
        assert not path.exists()


def test_save_vectors_checks_each_row_by_the_shape_rule(tmp_path):
    # a row given as a list is checked and written, not an AttributeError,
    # and its values are written as the floats that were checked
    path = tmp_path / "vectors.tsv"
    save_vectors(SourceVectors(dims=2, vectors={"a": [3.0, 4.0], "b": np.array([True, False])}), path)
    assert path.read_text(encoding="utf-8") == "#vectors v1\na\t3.0\t4.0\nb\t1.0\t0.0\n"
    for row, match in [
        ([1.0, 2.0, 3.0], r"^vector for 'a' has 3 components, expected 2$"),
        (np.eye(2), r"^vector for 'a' has shape \(2, 2\), not one dimension$"),
        (np.zeros(0), r"^no components for 'a'$"),
    ]:
        with pytest.raises(ValueError, match=match):
            save_vectors(SourceVectors(dims=2, vectors={"a": row}), tmp_path / "other.tsv")
    assert not (tmp_path / "other.tsv").exists()


# ---------------------------------------------------------------- vector rule

# a zero row, rows whose v·v is subnormal, overflows or is nan, and ordinary ones
_RULE_ROWS = [
    [0.0, -0.0, 0.0], [1e-160, 3e-161, 0.0], [5e-324, 0.0, 0.0], [1e200, 1e200, 0.0],
    [1.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [-math.inf, 1.0, 0.0],
    [1.0, -2.0, 0.5], [1.5e-154, 0.0, 0.0], [1.3e154, 0.0, 0.0], [0.1, 0.2, 0.3],
]


def _refusal(source_id, vector):
    """The vector rule's message for one row, or None, by scalars: ``v·v``,
    its products added left to right, must be finite, and its ``math.sqrt``
    at least ``NO_DIRECTION_NORM`` unless every component is zero."""
    square = _dot(vector, vector)
    if not math.isfinite(square):
        return f"non-finite vector norm for {source_id!r}"
    if math.sqrt(square) < NO_DIRECTION_NORM and any(x != 0.0 for x in vector):
        return f"vector for {source_id!r} is not zero but its squared norm is subnormal"
    return None


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.integers(0, len(_RULE_ROWS) - 1), min_size=1, max_size=8))
def test_check_vectors_refuses_the_rows_the_scalar_oracle_refuses(picks):
    # the matrix check refuses a matrix exactly when the scalar oracle
    # _refusal refuses a row of it, with that first row's message and index;
    # row_dots is the scalar loop to the bit, on a row with itself or another
    ids = [f"s{i}" for i in range(len(picks))]
    matrix = np.array([_RULE_ROWS[k] for k in picks])
    for other in (matrix, matrix[::-1]):
        with np.errstate(over="ignore", invalid="ignore"):
            dots = row_dots(matrix, other)
        assert dots.tobytes() == np.array([_dot(a, b) for a, b in zip(matrix, other)]).tobytes()
    refusals = [_refusal(s, v) for s, v in zip(ids, matrix)]
    first = next((i for i, message in enumerate(refusals) if message), None)
    if first is None:
        check_vectors(ids, matrix)
        return
    with pytest.raises(ValueError) as caught:
        check_vectors(ids, matrix)
    assert (str(caught.value), caught.value.row) == (refusals[first], first)


def test_load_vectors_names_the_first_bad_line(tmp_path):
    # every line's own fields are checked before any vector: a repeated
    # source, a bad number, a wrong length or a bad name on line 5 is named
    # before a bad vector on line 3
    path = tmp_path / "vectors.tsv"
    for later, match in [
        ("a\t2.0\t0.0", "duplicate source 'a'"), ("d\tnope\t1.0", "could not convert"),
        ("d\t1.0", "vector for 'd' has 1 components, expected 2"), ("#d\t1.0\t1.0", "source '#d' is empty"),
    ]:
        path.write_text(f"#vectors v1\na\t1.0\t0.5\nb\tnan\t1.0\nc\t0.0\t0.0\n{later}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^[^:]*vectors\.tsv:5: {match}"):
            load_vectors(path)
    # with no such fault, the first bad vector is named, by its line
    path.write_text("#vectors v1\na\t1.0\t0.5\nb\tnan\t1.0\nc\t0.0\t0.0\nd\t1e-170\t0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^[^:]*vectors\.tsv:3: non-finite vector norm for 'b'$"):
        load_vectors(path)
    # a line's own wrong length or repeat is named before its bad vector
    for later, match in (("d\tinf", "vector for 'd' has 1 components, expected 2"), ("a\tinf\t1.0", "duplicate source 'a'")):
        path.write_text(f"#vectors v1\na\t1.0\t0.5\n{later}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":3: {match}$"):
            load_vectors(path)


def test_save_vectors_names_the_first_bad_row(tmp_path):
    # every row's own name and shape are checked before any vector
    path = tmp_path / "vectors.tsv"
    for later, match in [
        ({"c": np.zeros(2)}, r"^vector for 'c' has 2 components, expected 3$"),
        ({"#c": np.zeros(3)}, r"^source '#c' is empty, starts with '#'"),
        ({"c": np.full(3, 1e-300)}, r"^non-finite vector norm for 'b'$"),
    ]:
        vectors = {"a": np.ones(3), "b": np.array([1.0, math.inf, 0.0]), **later}
        with pytest.raises(ValueError, match=match):
            save_vectors(SourceVectors(dims=3, vectors=vectors), path)
        assert not path.exists()
    # a row's own bad name or shape is named before its vector
    with pytest.raises(ValueError, match=r"^vector for 'b' has 2 components, expected 3$"):
        save_vectors(SourceVectors(dims=3, vectors={"a": np.ones(3), "b": np.full(2, math.nan)}), path)
