"""Source quality and political-leaning scores from rating providers.

Quality lands in [0, 1]: credibility flags from curated blocklists force 0.0
regardless of any numeric rating, otherwise a 0-100 trust rating is rescaled.
Leaning lands in [-1, 1] as the mean of the available categorical ratings.
Sources missing a field can borrow the mean of their graph neighbors'
provider-derived values (one hop, no chaining).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

from .corpus import read_utf8
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
    source: str
    quality: float | None
    leaning: float | None
    provenance: str


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
    return sum(values) / len(values)


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
    """
    provider_quality = {s: sc.quality for s, sc in scores.items() if sc.provenance != "imputed"}
    provider_leaning = {s: sc.leaning for s, sc in scores.items() if sc.provenance != "imputed"}

    def neighbor_mean(source: str, values: dict[str, float | None]) -> float | None:
        if source not in graph.index:
            return None
        donors = [values[n] for n in graph.neighbors(source) if values.get(n) is not None]
        if not donors:
            return None
        return sum(donors) / len(donors)

    result: dict[str, SourceScore] = {}
    for source, score in scores.items():
        q, l = score.quality, score.leaning
        filled = False
        if q is None:
            q = neighbor_mean(source, provider_quality)
            filled = filled or q is not None
        if l is None:
            l = neighbor_mean(source, provider_leaning)
            filled = filled or l is not None
        if q is None or l is None:
            provenance = "unavailable"
        elif filled:
            provenance = "imputed"
        else:
            provenance = score.provenance
        result[source] = replace(score, quality=q, leaning=l, provenance=provenance)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_FIELDS)
        for item in sorted(labels, key=lambda x: x.source):
            writer.writerow(
                [
                    item.source,
                    "" if item.newsguard is None else repr(item.newsguard),
                    _flags_field(item.os_flags),
                    _flags_field(item.mbfc_flags),
                    item.allsides or "",
                    item.buzzfeed or "",
                    item.mbfc_bias or "",
                ]
            )


def _csv_rows(path, fields: list[str]):
    """(line, row) for each non-empty row of the CSV file ``path`` after its
    header, which must be ``fields``; every row has ``len(fields)`` fields."""
    with read_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != fields:
                raise ValueError(f"{path}:1: expected header {','.join(fields)!r}")
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(fields):
                    raise ValueError(f"{path}:{row_num}: expected {len(fields)} fields, got {len(row)}")
                yield row_num, row
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def read_labels_csv(path) -> list[SourceLabels]:
    labels: list[SourceLabels] = []
    seen: set[str] = set()
    for row_num, row in _csv_rows(path, LABELS_FIELDS):
        try:
            item = SourceLabels(
                source=row[0],
                newsguard=float(row[1]) if row[1] else None,
                os_flags=_parse_flags(row[2]),
                mbfc_flags=_parse_flags(row[3]),
                allsides=row[4] or None,
                buzzfeed=row[5] or None,
                mbfc_bias=row[6] or None,
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{row_num}: {exc}") from exc
        if item.source in seen:
            raise ValueError(f"{path}:{row_num}: duplicate source {item.source!r}")
        seen.add(item.source)
        labels.append(item)
    return labels


def write_scores_csv(scores: dict[str, SourceScore], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_FIELDS)
        for source in sorted(scores):
            sc = scores[source]
            writer.writerow(
                [
                    sc.source,
                    "" if sc.quality is None else repr(sc.quality),
                    "" if sc.leaning is None else repr(sc.leaning),
                    sc.provenance,
                ]
            )


def read_scores_csv(path) -> dict[str, SourceScore]:
    scores: dict[str, SourceScore] = {}
    for row_num, (source, q_field, l_field, provenance) in _csv_rows(path, SCORES_FIELDS):
        if provenance not in PROVENANCE_VALUES:
            raise ValueError(f"{path}:{row_num}: bad provenance {provenance!r}")
        if source in scores:
            raise ValueError(f"{path}:{row_num}: duplicate source {source!r}")
        try:
            quality = float(q_field) if q_field else None
            leaning = float(l_field) if l_field else None
        except ValueError as exc:
            raise ValueError(f"{path}:{row_num}: {exc}") from exc
        if quality is not None and not (0.0 <= quality <= 1.0):
            raise ValueError(f"{path}:{row_num}: quality {quality} outside [0, 1]")
        if leaning is not None and not (-1.0 <= leaning <= 1.0):
            raise ValueError(f"{path}:{row_num}: leaning {leaning} outside [-1, 1]")
        scores[source] = SourceScore(source, quality, leaning, provenance)
    return scores
