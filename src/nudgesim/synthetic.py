"""Bundled synthetic fixtures: a 56-source news world and a two-cluster graph.

The world has four ideological copy-clusters (conspiracy-right, hyper-left,
hyper-right, low-quality-center, 8 sources each), a 16-source mainstream core
(12 of them at quality 1.0 with leanings within +/-1/3), and 8 mid-quality
bridge outlets wiring each cluster into the core. Everything is deterministic:
labels, graph edges, article counts, and personas are fixed tables, so the
derived scores and any seeded embedding/simulation built on top reproduce
exactly.

The four personas start near mean qualities 0.075 / 0.35 / 0.524 / 0.098,
three of them at extreme mean leanings, giving the simulator a ladder of
progressively higher-quality, progressively more central sources to climb.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from .embedding import SourceVectors, embed_graph
from .graph import CsnGraph, save_graph
from .groundtruth import SourceLabels, SourceScore, score_sources, write_labels_csv
from .nudge import Persona, SourceCatalog, write_personas

# provider combinations for every leaning value used below
_LEANING_PROVIDERS: dict[float, tuple[str | None, str | None, str | None]] = {
    0.0: ("center", None, None),
    1 / 6: ("right-center", "center", "center"),
    -1 / 6: ("left-center", "center", "center"),
    0.25: ("right-center", "center", None),
    -0.25: ("left-center", "center", None),
    1 / 3: ("right-center", "right-center", "center"),
    -1 / 3: ("left-center", "left-center", "center"),
    0.5: ("right-center", None, None),
    -0.5: ("left-center", None, None),
    2 / 3: ("right", "right", "center"),
    -2 / 3: ("left", "left", "center"),
    0.75: ("right", "right-center", None),
    -0.75: ("left", "left-center", None),
    5 / 6: ("right", "right", "right-center"),
    1.0: ("right", None, None),
    -1.0: ("left", None, None),
}

# source_id -> (newsguard, os_flags, mbfc_flags, leaning or None for imputed)
# flags force quality 0 regardless of any newsguard value present.
_LabelRow = tuple[float | None, tuple[str, ...], tuple[str, ...], float | None]

_CONSPIRACY_RIGHT: dict[str, _LabelRow] = {
    "patriot-eagle-report": (None, ("conspiracy",), (), 0.75),
    "deep-truth-network": (None, ("fake", "conspiracy"), (), 0.5),
    "liberty-klaxon": (None, (), ("questionable",), 2 / 3),
    "shadow-briefing": (20.0, ("conspiracy",), (), 0.75),
    "frontier-signal": (37.5, (), (), 0.5),
    "redoubt-daily": (20.0, (), (), 0.75),
    "eagle-echo-news": (15.0, (), (), 0.5),
    "the-watchman-post": (10.0, (), (), 2 / 3),
}

_HYPER_LEFT: dict[str, _LabelRow] = {
    "crimson-banner-news": (30.0, (), (), -1.0),
    "peoples-pulse": (35.0, (), (), -0.75),
    "solidarity-sentinel": (40.0, (), (), -0.75),
    "red-rose-review": (35.0, (), (), -0.75),
    "barricade-bulletin": (35.0, (), (), -1.0),
    "commune-chronicle": (20.0, (), (), -1.0),
    "vanguard-voice": (15.0, (), (), -0.75),
    "leftbank-ledger": (25.0, (), (), -2 / 3),
}

_HYPER_RIGHT: dict[str, _LabelRow] = {
    "bastion-daily": (62.0, (), (), 1.0),
    "heritage-horn": (50.0, (), (), 1.0),
    "iron-flag-press": (50.0, (), (), 1.0),
    "sovereign-standard": (50.0, (), (), 1.0),
    "old-glory-gazette": (50.0, (), (), 1.0),
    "homestead-herald": (30.0, (), (), 1.0),
    "ramparts-report": (20.0, (), (), 0.75),
    "stronghold-scoop": (25.0, (), (), 5 / 6),
}

_LOW_QUALITY_CENTER: dict[str, _LabelRow] = {
    "gray-zone-globe": (None, ("clickbait",), (), -0.25),
    "panorama-truth": (None, (), ("junksci",), -0.25),
    "nexus-dispatch": (35.0, ("unreliable",), (), 0.0),
    "alt-angle-news": (24.0, (), (), -0.25),
    "fringe-lens": (25.0, (), (), 0.0),
    "syndicate-stream": (15.0, (), (), -0.25),
    "parallax-post": (20.0, (), (), 0.0),
    "undercurrent-wire": (10.0, (), (), None),  # leaning imputed from cluster
}

_CORE: dict[str, _LabelRow] = {
    "national-ledger": (100.0, (), (), 0.0),
    "capitol-courant": (100.0, (), (), 1 / 6),
    "metro-examiner": (100.0, (), (), -1 / 6),
    "the-daily-meridian": (100.0, (), (), 0.0),
    "civic-standard": (100.0, (), (), 0.0),
    "union-times": (100.0, (), (), -0.25),
    "harbor-city-times": (100.0, (), (), 0.0),
    "summit-post": (100.0, (), (), 0.25),
    "lakeshore-tribune": (100.0, (), (), -1 / 6),
    "continental-observer": (100.0, (), (), 1 / 3),
    "beacon-daily": (100.0, (), (), -1 / 3),
    "prairie-gazette": (100.0, (), (), 0.25),
    "statehouse-wire": (90.0, (), (), 1 / 6),
    "riverside-record": (85.0, (), (), -0.25),
    "overlook-outlet": (95.0, (), (), 0.0),
    "commonwealth-chronicle": (88.0, (), (), 1 / 6),
}

# bridge -> (home cluster name, newsguard, leaning)
_BRIDGES: dict[str, tuple[str, float, float]] = {
    "freeholder-journal": ("conspiracy-right", 30.0, 0.5),
    "plainview-press": ("conspiracy-right", 55.0, 0.5),
    "crossroads-courier": ("hyper-right", 70.0, 0.25),
    "junction-journal": ("hyper-right", 70.0, 1 / 6),
    "meridian-monitor": ("hyper-left", 45.0, -0.5),
    "harborline-herald": ("hyper-left", 60.0, -1 / 3),
    "midfield-memo": ("low-quality-center", 40.0, -1 / 6),
    "baseline-brief": ("low-quality-center", 55.0, 0.0),
}

_CLUSTERS: dict[str, dict[str, _LabelRow]] = {
    "conspiracy-right": _CONSPIRACY_RIGHT,
    "hyper-left": _HYPER_LEFT,
    "hyper-right": _HYPER_RIGHT,
    "low-quality-center": _LOW_QUALITY_CENTER,
}

WORLD_PERSONAS: list[Persona] = [
    Persona(
        "conspiracy-right",
        (
            "patriot-eagle-report",
            "deep-truth-network",
            "liberty-klaxon",
            "shadow-briefing",
            "frontier-signal",
        ),
        5,
    ),
    Persona(
        "hyper-partisan-left",
        (
            "crimson-banner-news",
            "peoples-pulse",
            "solidarity-sentinel",
            "red-rose-review",
            "barricade-bulletin",
        ),
        5,
    ),
    Persona(
        "hyper-partisan-right",
        (
            "bastion-daily",
            "heritage-horn",
            "iron-flag-press",
            "sovereign-standard",
            "old-glory-gazette",
        ),
        5,
    ),
    Persona(
        "low-quality-center",
        (
            "gray-zone-globe",
            "panorama-truth",
            "nexus-dispatch",
            "alt-angle-news",
            "fringe-lens",
        ),
        5,
    ),
]

# embedding settings sized for the 56-node world: dense-enough walks to
# separate the five blocks while keeping a full rebuild around a second
WORLD_EMBED_PARAMS = dict(walk_length=40, walks_per_node=6, window=5, epochs=3)
WORLD_SEED = 1234


def world_labels() -> list[SourceLabels]:
    labels = []
    for cluster in _CLUSTERS.values():
        for source_id, (newsguard, os_flags, mbfc_flags, leaning) in cluster.items():
            labels.append(_make_labels(source_id, newsguard, os_flags, mbfc_flags, leaning))
    for source_id, (newsguard, os_flags, mbfc_flags, leaning) in _CORE.items():
        labels.append(_make_labels(source_id, newsguard, os_flags, mbfc_flags, leaning))
    for source_id, (_home, newsguard, leaning) in _BRIDGES.items():
        labels.append(_make_labels(source_id, newsguard, (), (), leaning))
    return sorted(labels, key=lambda x: x.source)


def _make_labels(
    source_id: str,
    newsguard: float | None,
    os_flags: tuple[str, ...],
    mbfc_flags: tuple[str, ...],
    leaning: float | None,
) -> SourceLabels:
    allsides = buzzfeed = mbfc_bias = None
    if leaning is not None:
        allsides, buzzfeed, mbfc_bias = _LEANING_PROVIDERS[leaning]
    return SourceLabels(
        source=source_id,
        newsguard=newsguard,
        os_flags=frozenset(os_flags),
        mbfc_flags=frozenset(mbfc_flags),
        allsides=allsides,
        buzzfeed=buzzfeed,
        mbfc_bias=mbfc_bias,
    )


def world_graph() -> CsnGraph:
    """Dense copying inside each block, sparse bridge edges between an
    ideological cluster and the core."""
    edges: dict[tuple[str, str], int] = {}

    def cluster_edges(names: list[str]) -> None:
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if i != j:
                    edges[(a, b)] = 1 + (i + 2 * j) % 3

    cluster_names = {name: list(rows) for name, rows in _CLUSTERS.items()}
    for names in cluster_names.values():
        cluster_edges(names)
    core_names = list(_CORE)
    cluster_edges(core_names)

    for bi, (bridge, (home, _ng, _lean)) in enumerate(_BRIDGES.items()):
        members = cluster_names[home]
        edges[(members[bi % 8], bridge)] = 2
        edges[(members[(bi + 3) % 8], bridge)] = 1
        edges[(bridge, members[(bi + 5) % 8])] = 1
        edges[(bridge, core_names[2 * bi])] = 2
        edges[(core_names[2 * bi + 1], bridge)] = 1

    nodes = sorted({n for edge in edges for n in edge})
    article_counts = {n: 40 + 2 * (i % 7) for i, n in enumerate(nodes)}
    return CsnGraph(raw_counts=edges, article_counts=article_counts)


def world_scores() -> dict[str, SourceScore]:
    return score_sources(world_labels(), world_graph())


def world_vectors(seed: int = WORLD_SEED) -> SourceVectors:
    return embed_graph(world_graph(), seed=seed, **WORLD_EMBED_PARAMS)


def world_catalog(seed: int = WORLD_SEED) -> SourceCatalog:
    return SourceCatalog.from_scores(world_scores(), world_vectors(seed))


def write_world(out_dir) -> dict[str, Path]:
    """Emit the world as pipeline inputs: labels.csv, csn.tsv, personas.json."""
    out = Path(out_dir)
    paths = {
        "labels": out / "labels.csv",
        "csn": out / "csn.tsv",
        "personas": out / "personas.json",
    }
    write_labels_csv(world_labels(), paths["labels"])
    save_graph(world_graph(), paths["csn"])
    write_personas(WORLD_PERSONAS, paths["personas"])
    return paths


def two_cluster_graph() -> CsnGraph:
    """Thirty nodes in two 15-node communities (``alpha-*`` / ``beta-*``),
    ring plus chords inside each, exactly two bridge edges between them."""
    edges: dict[tuple[str, str], int] = {}
    for prefix in ("alpha", "beta"):
        names = [f"{prefix}-{i:02d}" for i in range(15)]
        for i in range(15):
            edges[(names[i], names[(i + 1) % 15])] = 2
            edges[(names[(i + 1) % 15], names[i])] = 1
            edges[(names[i], names[(i + 5) % 15])] = 1
    edges[("alpha-00", "beta-00")] = 1
    edges[("beta-07", "alpha-07")] = 1

    return CsnGraph(raw_counts=edges, article_counts={n: 12 for edge in edges for n in edge})


def _data_path(name: str) -> Path:
    return Path(str(files("nudgesim").joinpath("data").joinpath(name)))


def fixture_articles_path() -> Path:
    """Bundled 20-article, 6-source corpus with planted near-duplicates."""
    return _data_path("fixture_articles.jsonl")


def fixture_labels_path() -> Path:
    """Provider labels for the article fixture (one connected source left
    unlabeled, one labeled source absent from the graph)."""
    return _data_path("fixture_labels.csv")


def fixture_personas_path() -> Path:
    """Two small personas over the article-fixture sources."""
    return _data_path("fixture_personas.json")
