"""Copy-graph construction, serialization, and community detection.

Community quality is checked against an oracle that enumerates every
partition of small graphs and scores them with an independently coded
directed-modularity formula.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgesim.corpus import CopyPair
from nudgesim.graph import (
    CSN_HEADER,
    CsnGraph,
    build_csn,
    detect_communities,
    directed_modularity,
    load_graph,
    save_graph,
)

# ---------------------------------------------------------------- oracles


def oracle_modularity(nodes, edges, labels):
    """Dense-matrix directed modularity, coded independently of the library:
    Q = (1/m) sum_ij (W_ij - out_i * in_j / m) [c_i == c_j]."""
    idx = {n: i for i, n in enumerate(nodes)}
    w = np.zeros((len(nodes), len(nodes)))
    for (a, b), weight in edges.items():
        w[idx[a], idx[b]] = weight
    m = w.sum()
    if m == 0:
        return 0.0
    out_s = w.sum(axis=1)
    in_s = w.sum(axis=0)
    expected = np.outer(out_s, in_s) / m
    same = np.zeros_like(w, dtype=bool)
    for a in nodes:
        for b in nodes:
            same[idx[a], idx[b]] = labels[a] == labels[b]
    return float(((w - expected) * same).sum() / m)


def all_partitions(items):
    """Every partition of the item list (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def best_partition_q(graph):
    best = -np.inf
    for partition in all_partitions(graph.nodes):
        labels = {n: i for i, block in enumerate(partition) for n in block}
        best = max(best, oracle_modularity(graph.nodes, graph.edges, labels))
    return best


def _pair(earlier_source, later_source, n):
    return CopyPair(
        earlier=f"{earlier_source}-{n}",
        later=f"{later_source}-{n}",
        similarity=0.9,
        earlier_source=earlier_source,
        later_source=later_source,
    )


def _graph(edge_weights):
    # every weight in these tests is a multiple of 1/20, and k / 20 is the
    # double nearest k/20, so the derived weights equal the literals exactly
    nodes = sorted({n for e in edge_weights for n in e})
    return CsnGraph(
        raw_counts={e: round(w * 20) for e, w in edge_weights.items()},
        article_counts={n: 20 for n in nodes},
    )


# ---------------------------------------------------------------- build_csn


def test_build_csn_hand_normalization(fixture_csn):
    assert fixture_csn.nodes == [
        "coastal-chronicle",
        "meridian-daily",
        "northgate-news",
        "quarry-press",
        "summit-sentinel",
        "valley-voice",
    ]
    assert fixture_csn.raw_counts == {
        ("meridian-daily", "coastal-chronicle"): 1,
        ("meridian-daily", "summit-sentinel"): 1,
        ("coastal-chronicle", "summit-sentinel"): 1,
        ("meridian-daily", "valley-voice"): 2,
        ("northgate-news", "quarry-press"): 1,
        ("quarry-press", "northgate-news"): 1,
        ("summit-sentinel", "coastal-chronicle"): 1,
    }
    # copier-side normalization: raw / article count of the copying source
    assert fixture_csn.edges[("meridian-daily", "valley-voice")] == pytest.approx(2 / 3)
    assert fixture_csn.edges[("meridian-daily", "coastal-chronicle")] == pytest.approx(1 / 3)
    assert fixture_csn.edges[("northgate-news", "quarry-press")] == pytest.approx(1 / 4)
    assert fixture_csn.edges[("quarry-press", "northgate-news")] == pytest.approx(1 / 3)


def test_build_csn_counts_distinct_copier_articles():
    # a posts one story twice (a-1, a-2) and b copies it once (b-9): two
    # pairs, one copier article; b also copies a second story of a's
    pairs = [
        CopyPair("a-1", "b-9", 0.9, "a", "b"),
        CopyPair("a-2", "b-9", 0.9, "a", "b"),
        _pair("a", "b", 3),
        _pair("b", "a", 1),
    ]
    csn = build_csn(pairs, {"a": 10, "b": 2})
    assert csn.raw_counts == {("a", "b"): 2, ("b", "a"): 1}
    assert csn.edges[("a", "b")] == 1.0
    assert csn.edges[("b", "a")] == pytest.approx(1 / 10)
    # the repost alone: weight 1, not 2
    assert build_csn(pairs[:2], {"a": 2, "b": 1}).edges == {("a", "b"): 1.0}


def test_build_csn_missing_article_count_is_fatal():
    with pytest.raises(ValueError, match="source 'b': article count 0 is not an integer >= 1"):
        build_csn([_pair("a", "b", 1)], {"a": 3})
    # with several sources lacking a count, the first the pairs name is
    # named, whatever the string hash seed
    with pytest.raises(ValueError, match="source 'd': article count 0"):
        build_csn([_pair("d", "c", 1), _pair("b", "a", 1)], {})


def test_build_csn_weight_above_one_is_fatal():
    pairs = [_pair("a", "b", n) for n in range(4)]
    with pytest.raises(ValueError, match="exceed"):
        build_csn(pairs, {"a": 10, "b": 3})


def test_build_csn_nodes_are_only_paired_sources(fixture_pairs, fixture_articles):
    counts = dict(fixture_articles.source_counts())
    counts["lonely-ledger"] = 5  # never appears in a pair
    csn = build_csn(fixture_pairs, counts)
    assert "lonely-ledger" not in csn.nodes


def test_build_csn_input_order_invariant(fixture_pairs, fixture_articles):
    counts = fixture_articles.source_counts()
    shuffled = list(fixture_pairs)
    random.Random(99).shuffle(shuffled)
    a = build_csn(fixture_pairs, counts)
    b = build_csn(shuffled, counts)
    assert a.nodes == b.nodes and a.edges == b.edges and a.raw_counts == b.raw_counts


def test_raw_counts_conserve_pairs(fixture_csn, fixture_pairs):
    # every pair is accounted for by its edge's distinct copier (later) articles
    later_articles = {}
    for p in fixture_pairs:
        later_articles.setdefault((p.earlier_source, p.later_source), set()).add(p.later)
    assert fixture_csn.raw_counts == {edge: len(ids) for edge, ids in later_articles.items()}


def test_graph_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError, match="self-loop"):
        CsnGraph(raw_counts={("a", "a"): 1}, article_counts={"a": 2})
    with pytest.raises(ValueError, match="outside"):
        CsnGraph(raw_counts={("a", "b"): 3}, article_counts={"a": 1, "b": 2})
    with pytest.raises(ValueError, match="missing from nodes"):
        CsnGraph(raw_counts={("a", "b"): 1}, article_counts={"a": 2})


@pytest.mark.parametrize("name", ["", "a\tb", "a\rb", "a\nb", "#a", "\ud800"])
def test_graph_rejects_node_names_save_graph_cannot_write(name):
    with pytest.raises(ValueError, match=r"^source .* (is empty|holds a lone surrogate)"):
        CsnGraph(raw_counts={(name, "b"): 1}, article_counts={name: 2, "b": 2})


def test_graph_rejects_a_node_name_that_is_not_a_string():
    with pytest.raises(ValueError, match=r"^source 1 is not a string but int$"):
        CsnGraph(raw_counts={}, article_counts={1: 2})


def test_build_csn_rejects_a_source_that_is_not_a_string_in_pair_order():
    # "a" and 7 cannot be sorted together: the name is refused, not compared
    with pytest.raises(ValueError, match=r"^source 7 is not a string but int$"):
        build_csn([CopyPair("x", "y", 0.9, "a", 7)], {"a": 1, 7: 1})
    # sources are checked in the order the pairs name them: the later 7 of
    # the first pair is named, not the earlier 8 of the second
    pairs = [CopyPair("x", "y", 0.9, "a", 7), CopyPair("u", "v", 0.9, 8, "b")]
    with pytest.raises(ValueError, match=r"^source 7 is not a string but int$"):
        build_csn(pairs, {"a": 1, "b": 1, 7: 1, 8: 1})


def test_load_graph_rejects_node_name_starting_with_hash(tmp_path):
    path = tmp_path / "csn.tsv"
    path.write_text("#csn v1\n#node\t#a\t2\n#node\tb\t2\n#a\tb\t1\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: malformed line \(source '#a' is empty, starts with '#'"):
        load_graph(path)


def test_neighbors_union(fixture_csn):
    # imputation and walks read a node's in- and out-neighbors, sorted, as
    # its row of the undirected matrix
    def neighbors(node: str) -> list[str]:
        i = fixture_csn.nodes.index(node)
        ptr = fixture_csn.undirected.indptr
        return [fixture_csn.nodes[j] for j in fixture_csn.undirected.indices[ptr[i] : ptr[i + 1]]]

    assert neighbors("meridian-daily") == [
        "coastal-chronicle",
        "summit-sentinel",
        "valley-voice",
    ]
    assert neighbors("valley-voice") == ["meridian-daily"]


# ---------------------------------------------------------------- persistence


def test_save_load_round_trip_exact(tmp_path, fixture_csn):
    path = tmp_path / "csn.tsv"
    save_graph(fixture_csn, path)
    loaded = load_graph(path)
    assert loaded.nodes == fixture_csn.nodes
    assert loaded.edges == fixture_csn.edges  # exact float equality
    assert loaded.raw_counts == fixture_csn.raw_counts
    assert loaded.article_counts == fixture_csn.article_counts


def test_load_graph_rejects_bad_header(tmp_path):
    path = tmp_path / "csn.tsv"
    path.write_text("#wrong v9\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: expected header"):
        load_graph(path)


def test_load_graph_reports_line_numbers(tmp_path):
    path = tmp_path / "csn.tsv"
    path.write_text(
        "#csn v1\n#node\ta\t10\n#node\tb\t10\na\tb\tnot-an-int\t0.5\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=":4: malformed line"):
        load_graph(path)
    path.write_text("#csn v1\n#node\ta\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: malformed line"):
        load_graph(path)


_TWO_NODES = "#csn v1\n#node\ta\t2\n#node\tb\t4\n"


# one malformed file per rule, each with the message and line number the
# per-line loader gave before the checks were vectorized; then files with
# several faults, which show the order in which they are named
_REJECTIONS = [
    ("header", "#csn v2\n", "PATH:1: expected header '#csn v1', got '#csn v2'"),
    ("node-fields", "#csn v1\n#node\ta\n", "PATH:2: malformed line (expected '#node\\tsource\\tcount')"),
    ("node-after-edge", _TWO_NODES + "a\tb\t1\t0.25\n#node\tc\t1\n",
     "PATH:5: malformed line (#node line after the first edge line)"),
    ("duplicate-node", _TWO_NODES + "#node\ta\t3\n", "PATH:4: malformed line (duplicate node 'a')"),
    ("count-not-int", "#csn v1\n#node\ta\tmany\n",
     "PATH:2: malformed line (invalid literal for int() with base 10: 'many')"),
    ("name-empty", "#csn v1\n#node\t\t2\n",
     "PATH:2: malformed line (source '' is empty, starts with '#' or holds a tab or line break)"),
    ("count-zero", "#csn v1\n#node\ta\t0\n",
     "PATH:2: malformed line (source 'a': article count 0 is not an integer >= 1)"),
    ("edge-fields", _TWO_NODES + "a\tb\t1\n", "PATH:4: malformed line (expected 'from\\tto\\traw\\tweight')"),
    ("duplicate-edge", _TWO_NODES + "a\tb\t1\t0.25\na\tb\t1\t0.25\n",
     "PATH:5: malformed line (duplicate edge 'a'->'b')"),
    ("raw-not-int", _TWO_NODES + "a\tb\tone\t0.25\n",
     "PATH:4: malformed line (invalid literal for int() with base 10: 'one')"),
    ("self-loop", _TWO_NODES + "a\ta\t1\t0.5\n", "PATH:4: malformed line (self-loop on 'a')"),
    ("unknown-endpoint", _TWO_NODES + "a\tc\t1\t0.5\n",
     "PATH:4: malformed line (edge endpoint missing from nodes: 'a'->'c')"),
    ("raw-zero", _TWO_NODES + "a\tb\t0\t0.0\n",
     "PATH:4: malformed line (edge 'a'->'b': raw count 0 is not an integer >= 1)"),
    ("raw-over-count", _TWO_NODES + "b\ta\t3\t1.5\n",
     "PATH:4: malformed line (edge 'b'->'a': 3 copier articles exceed the 2 articles 'a' "
     "published (weight outside (0, 1]))"),
    ("weight-not-float", _TWO_NODES + "a\tb\t1\tquarter\n",
     "PATH:4: malformed line (could not convert string to float: 'quarter')"),
    ("weight-mismatch", _TWO_NODES + "a\tb\t1\t0.3\n",
     "PATH:4: malformed line (weight 0.3 is not raw / article count 0.25)"),
    # the first line in file order speaks, blank lines counted, whatever
    # its fault, and on one line the column read first: the shape, then
    # the numbers, then the record rules, then the weight column
    ("earlier-line-first", _TWO_NODES + "a\tb\t1\t0.3\nb\tb\t1\t0.25\n",
     "PATH:4: malformed line (weight 0.3 is not raw / article count 0.25)"),
    ("earlier-line-before-shape", _TWO_NODES + "a\tb\t1\t0.3\nb\ta\n",
     "PATH:4: malformed line (weight 0.3 is not raw / article count 0.25)"),
    ("blank-lines-counted", "#csn v1\n\n#node\ta\t2\n\n#node\tb\t0\n",
     "PATH:5: malformed line (source 'b': article count 0 is not an integer >= 1)"),
    ("raw-before-duplicate", _TWO_NODES + "a\tb\t1\t0.25\na\tb\tone\t0.25\n",
     "PATH:5: malformed line (invalid literal for int() with base 10: 'one')"),
    ("weight-before-self-loop", _TWO_NODES + "a\ta\t1\tquarter\n",
     "PATH:4: malformed line (could not convert string to float: 'quarter')"),
    ("count-before-name", "#csn v1\n#node\t#a\tmany\n",
     "PATH:2: malformed line (invalid literal for int() with base 10: 'many')"),
]


@pytest.mark.parametrize("text, expected", [pytest.param(t, e, id=i) for i, t, e in _REJECTIONS])
def test_load_graph_rejection_table(tmp_path, text, expected):
    path = tmp_path / "csn.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_graph(path)
    assert str(caught.value).replace(str(path), "PATH") == expected


def test_graph_arrays_and_lazy_views(tmp_path, fixture_csn):
    from nudgesim import synthetic
    from nudgesim.embedding import embed_graph
    from nudgesim.groundtruth import read_labels_csv, score_sources

    path = tmp_path / "csn.tsv"
    save_graph(fixture_csn, path)
    graph = load_graph(path)
    # the pipeline reads the arrays and never builds a name-keyed view
    score_sources(read_labels_csv(synthetic.fixture_labels_path()), graph)
    embed_graph(graph, seed=1, dims=4, walk_length=5, walks_per_node=1, epochs=1)
    save_graph(graph, tmp_path / "again.tsv")
    assert not {"edges", "raw_counts", "article_counts"} & set(vars(graph))
    assert graph.src.dtype == graph.dst.dtype == np.intp
    assert graph.raw.tolist() == list(fixture_csn.raw_counts.values())
    assert graph.article_count.tolist() == [fixture_csn.article_counts[n] for n in graph.nodes]
    pairs = [(graph.nodes[s], graph.nodes[d]) for s, d in zip(graph.src, graph.dst)]
    assert pairs == sorted(fixture_csn.edges) == list(graph.edges)
    assert graph.weights.data.tolist() == list(fixture_csn.edges.values())


def test_graph_refuses_counts_of_2_to_the_63(tmp_path):
    # counts are held as int64: a larger one is refused, by the
    # constructor and, naming its line, by the loader
    with pytest.raises(ValueError, match=r"^source 'b': article count 9223372036854775808 is not below 2\*\*63$"):
        CsnGraph(raw_counts={("a", "b"): 1}, article_counts={"a": 1, "b": 2**63})
    path = tmp_path / "csn.tsv"
    path.write_text(f"#csn v1\n#node\ta\t1\n#node\tb\t{2**63}\na\tb\t1\t{1 / 2**63}\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_graph(path)
    assert str(caught.value) == (
        f"{path}:3: malformed line (source 'b': article count 9223372036854775808 is not below 2**63)"
    )
    graph = CsnGraph(raw_counts={("a", "b"): 2**63 - 1}, article_counts={"a": 1, "b": 2**63 - 1})
    assert graph.raw.dtype == graph.article_count.dtype == np.int64
    with pytest.raises(ValueError, match=f"{2**63} copier articles exceed the 3 articles"):
        CsnGraph(raw_counts={("a", "b"): 2**63}, article_counts={"a": 1, "b": 3})
    with pytest.raises(ValueError, match=r"source 'b': article count 2\.0 is not an integer"):
        CsnGraph(raw_counts={}, article_counts={"a": 1, "b": 2.0})
    with pytest.raises(ValueError, match="raw count True is not an integer"):
        CsnGraph(raw_counts={("a", "b"): True}, article_counts={"a": 1, "b": 2})


@pytest.mark.parametrize("raw, count", [
    (2**53 + 1, 2**53 + 2),
    (4499683446528355981, 6548177331224692246),
    (2**63 - 2, 2**63 - 1),
])
def test_graph_weights_of_counts_from_2_to_the_53_are_python_quotients(tmp_path, raw, count):
    # such counts fit in int64, but an int64 quotient rounds both to floats
    # first: for 2**53 + 1 over 2**53 + 2 it gives 0.9999999999999998
    graph = CsnGraph(raw_counts={("a", "b"): raw}, article_counts={"a": 1, "b": count})
    assert graph.edges == {("a", "b"): raw / count}
    if raw == 2**53 + 1:
        assert raw / count == 0.9999999999999999
    path = tmp_path / "csn.tsv"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert loaded.edges == graph.edges
    assert loaded.raw_counts == {("a", "b"): raw}
    assert loaded.article_counts == {"a": 1, "b": count}


# graphs with several faults: the first record (nodes first, then edges in
# the order given) is named, and on one record the first rule it breaks
_CONSTRUCTOR_FAULTS = [
    ({("a", "a"): 1}, {"a": 1, "b": 0}, "source 'b': article count 0 is not an integer >= 1"),
    ({("a", "b"): 5, ("a", "a"): 1}, {"a": 1, "b": 2},
     "edge 'a'->'b': 5 copier articles exceed the 2 articles 'b' published (weight outside (0, 1])"),
    ({("a", "c"): 1, ("b", "b"): 1}, {"a": 1, "b": 1}, "edge endpoint missing from nodes: 'a'->'c'"),
    ({}, {"a": 1, "#b": 0}, "source '#b' is empty, starts with '#' or holds a tab or line break"),
    ({("c", "c"): 0}, {"a": 1}, "self-loop on 'c'"),
    ({("a", "c"): 0}, {"a": 1}, "edge endpoint missing from nodes: 'a'->'c'"),
    ({("b", "a"): 1, ("a", "b"): 2.0}, {"a": 1, "b": 1}, "edge 'a'->'b': raw count 2.0 is not an integer >= 1"),
]


@pytest.mark.parametrize("raw_counts, article_counts, message", _CONSTRUCTOR_FAULTS)
def test_graph_names_its_first_fault(raw_counts, article_counts, message):
    with pytest.raises(ValueError) as caught:
        CsnGraph(raw_counts=raw_counts, article_counts=article_counts)
    assert str(caught.value) == message


_FUZZ_NAMES = st.sampled_from(["a", "b", "c", "", "#node"])
_FUZZ_INTS = st.one_of(st.integers(-2, 5).map(str), st.sampled_from(["", "x", "1.0"]))
_FUZZ_WEIGHTS = st.one_of(  # mostly raw / count for small ints, so that some edges load
    st.sampled_from([repr(k / n) for k in range(-1, 7) for n in range(1, 6)] + ["nan", "inf", ""]),
    st.floats().map(repr),
)
_FUZZ_FIELDS = st.one_of(_FUZZ_NAMES, _FUZZ_INTS, _FUZZ_WEIGHTS)
_FUZZ_NODE_LINES = st.tuples(st.just("#node"), _FUZZ_NAMES, _FUZZ_INTS).map("\t".join)
_FUZZ_LINES = st.one_of(
    _FUZZ_NODE_LINES,
    st.tuples(_FUZZ_NAMES, _FUZZ_NAMES, _FUZZ_INTS, _FUZZ_WEIGHTS).map("\t".join),
    st.text(max_size=12),
)


@st.composite
def _raw_graphs(draw):
    """Raw counts and article counts over names the file format can carry:
    UTF-8 text (so no lone surrogates) without tabs or line breaks."""
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n")
    name = st.text(chars, min_size=1, max_size=6)
    names = draw(st.lists(name.filter(lambda s: not s.startswith("#")), min_size=1, max_size=6, unique=True))
    counts = {node: draw(st.integers(1, 60)) for node in names}
    edges = set()
    if len(names) > 1:
        picks = st.tuples(st.integers(0, len(names) - 1), st.integers(1, len(names) - 1))
        edges = {(names[i], names[(i + k) % len(names)]) for i, k in draw(st.lists(picks, max_size=12))}
    raw = {(src, dst): draw(st.integers(1, counts[dst])) for src, dst in sorted(edges)}
    return raw, counts


# at most one line of a saved graph replaced by, or preceded by, a fuzz
# line, removed, repeated, or with one field replaced by a fuzz field
_CORRUPTIONS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["replace", "insert"]), st.integers(0, 40), _FUZZ_LINES),
    st.tuples(st.sampled_from(["remove", "repeat"]), st.integers(0, 40), st.none()),
    st.tuples(st.just("field"), st.integers(0, 40), st.tuples(st.integers(0, 3), _FUZZ_FIELDS)),
)


def _corrupted(lines: list[str], corruption) -> list[str]:
    if corruption is None:
        return lines
    kind, at, change = corruption
    lines, at = list(lines), at % len(lines)
    if kind == "replace":
        lines[at] = change
    elif kind == "insert":
        lines.insert(at, change)
    elif kind == "remove":
        del lines[at]
    elif kind == "repeat":
        lines.insert(at, lines[at])
    else:
        fields = lines[at].split("\t")
        column, field = change
        fields[column % len(fields)] = field
        lines[at] = "\t".join(fields)
    return lines


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_raw_graphs().filter(lambda inputs: inputs[0]), corruption=_CORRUPTIONS)
def test_load_graph_loads_or_names_the_path(tmp_path, inputs, corruption):
    # a file save_graph wrote from a graph with an edge, at most one line of
    # it corrupted, so that about half the examples load and hold edges
    raw, counts = inputs
    path = tmp_path / "csn.tsv"
    save_graph(CsnGraph(raw_counts=raw, article_counts=counts), path)
    # names may hold characters that str.splitlines takes for line breaks
    lines = _corrupted(path.read_text(encoding="utf-8").removesuffix("\n").split("\n"), corruption)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        loaded = load_graph(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    for (src, dst), weight in loaded.edges.items():
        assert weight == loaded.raw_counts[(src, dst)] / loaded.article_counts[dst]
    again = tmp_path / "again.tsv"
    save_graph(loaded, again)
    assert load_graph(again).edges == loaded.edges


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_raw_graphs())
def test_save_load_round_trip_random_graphs(tmp_path, inputs):
    raw, counts = inputs
    original = CsnGraph(raw_counts=raw, article_counts=counts)
    path, again = tmp_path / "csn.tsv", tmp_path / "again.tsv"
    save_graph(original, path)
    loaded = load_graph(path)
    assert loaded.nodes == original.nodes
    assert loaded.edges == original.edges
    assert loaded.raw_counts == original.raw_counts == raw
    assert loaded.article_counts == original.article_counts == counts
    save_graph(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------- modularity


def test_modularity_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 6)
        nodes = [f"n{i}" for i in range(n)]
        edges = {}
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.4:
                    edges[(a, b)] = rng.choice([0.25, 0.5, 0.75, 1.0])
        if not edges:
            continue
        graph = _graph(edges)
        labels = {node: rng.randint(0, 2) for node in nodes}
        assert directed_modularity(graph, labels) == pytest.approx(
            oracle_modularity(nodes, edges, labels), abs=1e-12
        )


def test_detect_communities_two_triangles():
    # two directed 3-cycles, no edges between them: optimal Q = 1/2
    edges = {}
    for block in (["a1", "a2", "a3"], ["b1", "b2", "b3"]):
        for i in range(3):
            edges[(block[i], block[(i + 1) % 3])] = 1.0
    graph = _graph(edges)
    result = detect_communities(graph)
    assert result.modularity == pytest.approx(0.5, abs=1e-12)
    assert result.modularity == pytest.approx(best_partition_q(graph), abs=1e-12)
    assert {result.labels[n] for n in ("a1", "a2", "a3")} == {0}
    assert {result.labels[n] for n in ("b1", "b2", "b3")} == {1}


def test_detect_communities_single_edge_collapses_tie():
    # with one edge, grouping and splitting both score Q = 0; the tie breaks
    # toward the merged pair so linked sources share a community
    graph = _graph({("a", "b"): 1.0})
    result = detect_communities(graph)
    assert result.labels == {"a": 0, "b": 0}
    assert result.modularity == pytest.approx(0.0, abs=1e-12)
    assert best_partition_q(graph) == pytest.approx(0.0, abs=1e-12)


def test_detect_communities_edgeless_graph():
    graph = CsnGraph(raw_counts={}, article_counts={"x": 1, "y": 1, "z": 1})
    result = detect_communities(graph)
    assert result.labels == {"x": 0, "y": 1, "z": 2}
    assert result.modularity == 0.0
    assert directed_modularity(graph, {"x": 0, "y": 0, "z": 1}) == 0.0


def test_detect_communities_empty_graph_raises():
    with pytest.raises(ValueError):
        detect_communities(CsnGraph(raw_counts={}, article_counts={}))


def test_detect_communities_reaches_oracle_optimum_on_small_graphs():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(2, 5)
        nodes = [f"n{i}" for i in range(n)]
        edges = {}
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.5:
                    edges[(a, b)] = rng.choice([0.5, 1.0])
        if not edges:
            continue
        graph = _graph(edges)
        result = detect_communities(graph)
        # greedy local moving may in principle stop short of the global
        # optimum, but must never beat the enumerated maximum
        assert result.modularity <= best_partition_q(graph) + 1e-12
        assert result.modularity == pytest.approx(
            oracle_modularity(nodes, edges, result.labels), abs=1e-12
        )


def test_detect_communities_labels_contiguous_and_ordered():
    edges = {}
    for block in (["m1", "m2", "m3"], ["k1", "k2", "k3"]):
        for i in range(3):
            edges[(block[i], block[(i + 1) % 3])] = 1.0
    result = detect_communities(_graph(edges))
    # nodes sort k1..k3 < m1..m3, so the k-community gets label 0
    assert sorted(set(result.labels.values())) == [0, 1]
    assert result.labels["k1"] == 0
    assert result.labels["m1"] == 1


def test_detect_communities_deterministic(world_scores):
    from nudgesim import synthetic

    graph = synthetic.world_graph()
    first = detect_communities(graph)
    second = detect_communities(graph)
    assert first.labels == second.labels
    assert first.modularity == second.modularity


def test_two_cluster_fixture_recovers_both_communities():
    from nudgesim import synthetic

    graph = synthetic.two_cluster_graph()
    result = detect_communities(graph)
    alpha = {result.labels[n] for n in graph.nodes if n.startswith("alpha-")}
    beta = {result.labels[n] for n in graph.nodes if n.startswith("beta-")}
    assert len(alpha) == 1 and len(beta) == 1 and alpha != beta
    assert result.modularity > 0.4
