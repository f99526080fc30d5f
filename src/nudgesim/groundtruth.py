"""Source quality and political-leaning scores from rating providers.

Quality lands in [0, 1]: credibility flags from curated blocklists force 0.0
regardless of any numeric rating, otherwise a 0-100 trust rating is rescaled.
Leaning lands in [-1, 1] as the mean of the available categorical ratings.
Sources missing a field can borrow the mean of their graph neighbors'
provider-derived values (one hop, no chaining).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .corpus import float_sum, parse_number, read_csv, write_csv
from .graph import CsnGraph

LEANING_CATEGORIES: dict[str, float] = {
    "left": -1.0,
    "left-center": -0.5,
    "center": 0.0,
    "right-center": 0.5,
    "right": 1.0,
}

# any of these, from either blocklist column, zeroes the quality score
KNOWN_FLAGS: frozenset[str] = frozenset(
    {"fake", "conspiracy", "junksci", "hate", "clickbait", "unreliable", "questionable"}
)

PROVENANCE_VALUES = ("labeled", "imputed", "unavailable")

LABELS_FIELDS = ["source", "newsguard", "os_flags", "mbfc_flags", "allsides", "buzzfeed", "mbfc_bias"]
SCORES_FIELDS = ["source", "quality", "leaning", "provenance"]


@dataclass(frozen=True)
class SourceLabels:
    """Raw per-source provider ratings; everything optional."""

    source: str
    newsguard: float | None = None
    os_flags: frozenset[str] = frozenset()
    mbfc_flags: frozenset[str] = frozenset()
    allsides: str | None = None
    buzzfeed: str | None = None
    mbfc_bias: str | None = None

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("source id must be non-empty")
        if self.newsguard is not None and not (0.0 <= self.newsguard <= 100.0):
            raise ValueError(f"{self.source}: newsguard {self.newsguard} outside [0, 100]")
        for flag in self.os_flags | self.mbfc_flags:
            if flag not in KNOWN_FLAGS:
                raise ValueError(
                    f"{self.source}: unknown flag {flag!r} (allowed: {sorted(KNOWN_FLAGS)})"
                )
        for rating in (self.allsides, self.buzzfeed, self.mbfc_bias):
            if rating is not None and rating not in LEANING_CATEGORIES:
                raise ValueError(
                    f"{self.source}: unknown leaning {rating!r} "
                    f"(allowed: {sorted(LEANING_CATEGORIES)})"
                )


@dataclass(frozen=True)
class SourceScore:
    """Quality in [0, 1] and leaning in [-1, 1]; a ``labeled`` or ``imputed``
    score has both, an ``unavailable`` one may lack either."""

    source: str
    quality: float | None
    leaning: float | None
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCE_VALUES:
            raise ValueError(f"bad provenance {self.provenance!r}")
        if self.quality is not None and not (0.0 <= self.quality <= 1.0):
            raise ValueError(f"quality {self.quality} outside [0, 1]")
        if self.leaning is not None and not (-1.0 <= self.leaning <= 1.0):
            raise ValueError(f"leaning {self.leaning} outside [-1, 1]")
        if self.provenance != "unavailable" and (self.quality is None or self.leaning is None):
            raise ValueError(f"provenance {self.provenance!r} needs both quality and leaning")


def quality_score(labels: SourceLabels) -> float | None:
    """Flags dominate: any credibility flag pins quality to 0.0 even when a
    numeric rating exists. Otherwise rescale the 0-100 rating; None if the
    providers are silent."""
    if labels.os_flags or labels.mbfc_flags:
        return 0.0
    if labels.newsguard is not None:
        return labels.newsguard / 100.0
    return None


def leaning_score(labels: SourceLabels) -> float | None:
    """Mean of the categorical ratings that are present, mapped onto
    [-1, 1]; None when all three providers are silent."""
    values = [
        LEANING_CATEGORIES[r]
        for r in (labels.allsides, labels.buzzfeed, labels.mbfc_bias)
        if r is not None
    ]
    if not values:
        return None
    return float_sum(values) / len(values)


def derive_scores(labels: list[SourceLabels]) -> dict[str, SourceScore]:
    """Provider-derived scores only (no imputation). Provenance is
    ``labeled`` when both fields resolved, ``unavailable`` otherwise."""
    scores: dict[str, SourceScore] = {}
    for item in labels:
        if item.source in scores:
            raise ValueError(f"duplicate source {item.source!r}")
        q = quality_score(item)
        l = leaning_score(item)
        provenance = "labeled" if q is not None and l is not None else "unavailable"
        scores[item.source] = SourceScore(item.source, q, l, provenance)
    return scores


def impute_missing(scores: dict[str, SourceScore], graph: CsnGraph) -> dict[str, SourceScore]:
    """Fill missing fields from graph neighbors, one hop.

    A neighbor contributes a field only if its own value came from providers
    (imputed values never propagate, so a second pass would be a no-op).
    Sources absent from the graph, or whose neighbors are all silent, keep
    their gaps and stay ``unavailable``.

    A field's mean is the :func:`float_sum` of the donors' values over the
    source's row of ``graph.undirected``, which lists its neighbors in
    sorted order, divided by their count.
    """
    donors = [scores.get(node) for node in graph.nodes]
    donors = [d if d is not None and d.provenance != "imputed" else None for d in donors]
    given = {name: [None if d is None else getattr(d, name) for d in donors] for name in ("quality", "leaning")}
    row_of = dict(zip(graph.nodes, itertools.pairwise(graph.undirected.indptr.tolist())))
    neighbors = graph.undirected.indices.tolist()

    def neighbor_mean(source: str, name: str) -> float | None:
        start, end = row_of.get(source, (0, 0))
        values = [v for v in map(given[name].__getitem__, neighbors[start:end]) if v is not None]
        return float_sum(values) / len(values) if values else None

    result: dict[str, SourceScore] = {}
    for source, score in scores.items():
        q = neighbor_mean(source, "quality") if score.quality is None else score.quality
        l = neighbor_mean(source, "leaning") if score.leaning is None else score.leaning
        if (q, l) != (score.quality, score.leaning):  # a gap was filled
            provenance = "unavailable" if q is None or l is None else "imputed"
            score = replace(score, quality=q, leaning=l, provenance=provenance)
        result[source] = score
    return result


def score_sources(labels: list[SourceLabels], graph: CsnGraph) -> dict[str, SourceScore]:
    """Full annotation pass: provider-derived scores for every labeled
    source, placeholder rows for graph nodes the providers never rated, then
    one round of neighbor imputation."""
    scores = derive_scores(labels)
    for node in graph.nodes:
        if node not in scores:
            scores[node] = SourceScore(node, None, None, "unavailable")
    return impute_missing(scores, graph)


def _flags_field(flags: frozenset[str]) -> str:
    return ";".join(sorted(flags))


def _parse_flags(field: str) -> frozenset[str]:
    return frozenset(part for part in field.split(";") if part)


def write_labels_csv(labels: list[SourceLabels], path) -> None:
    if len({item.source for item in labels}) < len(labels):
        raise ValueError(f"{path}: a source is labeled twice, which read_labels_csv refuses")
    rows = (
        [
            item.source,
            item.newsguard,
            _flags_field(item.os_flags),
            _flags_field(item.mbfc_flags),
            item.allsides,
            item.buzzfeed,
            item.mbfc_bias,
        ]
        for item in sorted(labels, key=lambda x: x.source)
    )
    write_csv(path, LABELS_FIELDS, rows)


def _optional_float(field: str) -> float | None:
    return parse_number(field) if field else None


def read_labels_csv(path) -> list[SourceLabels]:
    return list(read_csv(path, LABELS_FIELDS, lambda row: SourceLabels(
        row[0], _optional_float(row[1]), _parse_flags(row[2]), _parse_flags(row[3]),
        *(rating or None for rating in row[4:]),
    )).values())


def write_scores_csv(scores: dict[str, SourceScore], path) -> None:
    if any(key != sc.source for key, sc in scores.items()):
        raise ValueError(f"{path}: a score is keyed by a name other than its source")
    rows = ([sc.source, sc.quality, sc.leaning, sc.provenance] for _, sc in sorted(scores.items()))
    write_csv(path, SCORES_FIELDS, rows)


def read_scores_csv(path) -> dict[str, SourceScore]:
    return read_csv(path, SCORES_FIELDS, lambda row: SourceScore(
        row[0], _optional_float(row[1]), _optional_float(row[2]), row[3]
    ))
