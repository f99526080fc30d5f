"""Random walks, skip-gram training, and the vector file format.

Walk correctness is checked against exact Markov transition probabilities:
for a fixed (previous, current) state the next-hop distribution is known in
closed form, so long-run conditional frequencies must match it.
"""

import collections

import numpy as np
import pytest

from nudgesim.graph import CsnGraph
from nudgesim.embedding import (
    SourceVectors,
    cosine_distance,
    embed_graph,
    generate_walks,
    load_vectors,
    save_vectors,
    train_embeddings,
)


def _graph(edge_weights):
    nodes = sorted({n for e in edge_weights for n in e})
    return CsnGraph(
        nodes=nodes,
        edges=dict(edge_weights),
        raw_counts={e: 1 for e in edge_weights},
        article_counts={n: 10 for n in nodes},
    )


class _CountingRng:
    """Wraps a generator and counts uniform draws."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


# ---------------------------------------------------------------- distance


def test_cosine_distance_reference_points():
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert cosine_distance(np.array([2.0, 1.0]), np.array([4.0, 2.0])) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == pytest.approx(2.0)
    assert cosine_distance(np.zeros(4), np.ones(4)) == 1.0
    assert cosine_distance(np.ones(4), np.zeros(4)) == 1.0


def test_cosine_distance_range():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert 0.0 - 1e-12 <= cosine_distance(a, b) <= 2.0 + 1e-12


# ---------------------------------------------------------------- step bias


def test_generate_walks_rejects_bad_bias():
    graph = _graph({("a", "b"): 0.5})
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="p="):
        generate_walks(graph, rng, p=0.0)
    with pytest.raises(ValueError, match="positive"):
        generate_walks(graph, rng, q=-1.0)
    with pytest.raises(ValueError):
        generate_walks(graph, rng, walk_length=0)


# ---------------------------------------------------------------- walks


def test_walks_cover_every_node_each_round():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5})
    walks = generate_walks(graph, np.random.default_rng(1), walk_length=5, walks_per_node=3)
    assert len(walks) == 9
    assert [w[0] for w in walks] == ["a", "b", "c"] * 3


def test_walks_truncate_at_dead_end():
    # directed path a -> b -> c with no way onward from c
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5})
    walks = generate_walks(
        graph, np.random.default_rng(2), walk_length=10, walks_per_node=1, directed=True
    )
    assert walks == [["a", "b", "c"], ["b", "c"], ["c"]]


def test_walks_undirected_view_sums_reciprocal_weights():
    # a->b and b->a merge into one undirected neighbor relation; from a the
    # only move is to b regardless of direction
    graph = _graph({("a", "b"): 0.25, ("b", "a"): 0.5})
    walks = generate_walks(graph, np.random.default_rng(3), walk_length=4, walks_per_node=1)
    assert walks == [["a", "b", "a", "b"], ["b", "a", "b", "a"]]


def test_walks_one_uniform_draw_per_step():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5})
    rng = _CountingRng(np.random.default_rng(4))
    walks = generate_walks(graph, rng, p=2.0, q=0.5, walk_length=7, walks_per_node=2)
    steps_taken = sum(len(w) - 1 for w in walks)
    assert rng.calls == steps_taken == 6 * 2 * 3


def test_walks_deterministic_for_seed():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.7, ("c", "a"): 0.2, ("a", "c"): 0.4})
    first = generate_walks(graph, np.random.default_rng(11), walk_length=20, walks_per_node=4)
    second = generate_walks(graph, np.random.default_rng(11), walk_length=20, walks_per_node=4)
    assert first == second
    third = generate_walks(graph, np.random.default_rng(12), walk_length=20, walks_per_node=4)
    assert first != third


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


def _toy_walks():
    graph = _graph({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5, ("c", "d"): 0.5})
    return generate_walks(graph, np.random.default_rng(20), walk_length=15, walks_per_node=6)


def test_train_deterministic_and_seed_sensitive():
    walks = _toy_walks()
    first = train_embeddings(walks, np.random.default_rng(30), dims=8, epochs=2)
    second = train_embeddings(walks, np.random.default_rng(30), dims=8, epochs=2)
    for node in first.vectors:
        assert np.array_equal(first.vectors[node], second.vectors[node])
    other = train_embeddings(walks, np.random.default_rng(31), dims=8, epochs=2)
    assert any(not np.array_equal(first.vectors[n], other.vectors[n]) for n in first.vectors)


def test_train_vocabulary_and_shape():
    result = train_embeddings(_toy_walks(), np.random.default_rng(1), dims=12, epochs=1)
    assert sorted(result.vectors) == ["a", "b", "c", "d"]
    assert result.dims == 12
    assert all(v.shape == (12,) for v in result.vectors.values())
    assert result.params["dims"] == "12"
    assert result.params["window"] == "10"


def test_train_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        train_embeddings([], np.random.default_rng(0))
    with pytest.raises(ValueError, match="hyperparameters"):
        train_embeddings([["a", "b"]], np.random.default_rng(0), dims=0)


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


def test_vectors_file_errors(tmp_path):
    path = tmp_path / "vectors.tsv"
    path.write_text("#other v1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: expected header"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims=2\na\t1.0\tnope\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims=2\na\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 components"):
        load_vectors(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"#vectors v1\tdims=2\na\t1.0\t0.5\nb\t{bad}\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3: non-finite"):
            load_vectors(path)
    path.write_text("#vectors v1\tdims=1\na\t1.0\na\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_vectors(path)
    path.write_text("#vectors v1\tdims=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no vectors"):
        load_vectors(path)
    for bad in ("x", "0", "-2", ""):
        path.write_text(f"#vectors v1\tdims={bad}\na\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":1: dims must be a positive integer, got '{bad}'"):
            load_vectors(path)


def test_save_vectors_checks_shapes(tmp_path):
    vectors = SourceVectors(dims=3, vectors={"a": np.zeros(2)}, params={})
    with pytest.raises(ValueError, match="shape"):
        save_vectors(vectors, tmp_path / "vectors.tsv")
