"""Article ingestion, TF-IDF vectorization, and cross-source near-duplicate detection.

The copy detector is the front end of the pipeline: articles from different
sources whose TF-IDF vectors have cosine similarity at or above a threshold
(default 0.85) are treated as near-verbatim copies, oriented from the earlier
publication to the later one.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
from scipy import sparse

logger = logging.getLogger(__name__)

DEFAULT_SIMILARITY_THRESHOLD = 0.85

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of alphanumeric codepoints

_DATE_MIN = datetime(1990, 1, 1, tzinfo=timezone.utc)
_DATE_MAX = datetime(2100, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Article:
    """One news item; the unit of copy detection."""

    article_id: str
    source_id: str
    title: str
    body: str
    published_at: datetime


@dataclass
class ArticleSet:
    """Validated articles plus the count of malformed input lines skipped."""

    articles: list[Article]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.articles)

    def source_counts(self) -> dict[str, int]:
        """Total articles published per source (used for edge normalization)."""
        counts: dict[str, int] = {}
        for a in self.articles:
            counts[a.source_id] = counts.get(a.source_id, 0) + 1
        return counts


@dataclass(frozen=True)
class CopyPair:
    """A cross-source near-duplicate, oriented earlier -> later by timestamp."""

    earlier: str
    later: str
    similarity: float
    earlier_source: str
    later_source: str


@dataclass
class TfidfResult:
    """One L2-normalized TF-IDF row per article, in ``ArticleSet.articles``
    order; an article with no usable tokens is an empty row."""

    matrix: sparse.csr_matrix
    vocabulary: dict[str, int]


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Accepts a trailing 'Z' (Python 3.10 fromisoformat does not). Naive
    timestamps are taken to be UTC.
    """
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    ts = datetime.fromisoformat(value)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    if not (_DATE_MIN <= ts < _DATE_MAX):
        raise ValueError(f"timestamp {value!r} outside supported range")
    return ts


def _article_from_record(record: dict) -> Article:
    for key in ("id", "source", "title", "content", "published_at"):
        if key not in record:
            raise ValueError(f"missing key {key!r}")
    body = str(record["content"])
    if not body.strip():
        raise ValueError("empty body")
    return Article(
        article_id=str(record["id"]),
        source_id=str(record["source"]),
        title=str(record["title"]),
        body=body,
        published_at=parse_timestamp(str(record["published_at"])),
    )


def load_articles(path) -> ArticleSet:
    """Read a JSONL article file.

    Malformed lines are skipped with a warning and counted; a duplicate
    article id is a fatal corpus-integrity error. An unreadable file raises
    OSError.
    """
    articles: list[Article] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("line is not a JSON object")
                article = _article_from_record(record)
            except RecursionError:
                raise ValueError(f"{path}:{lineno}: JSON nested too deeply") from None
            except (ValueError, TypeError) as exc:
                logger.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
                skipped += 1
                continue
            if article.article_id in seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate article id {article.article_id!r}"
                )
            seen.add(article.article_id)
            articles.append(article)
    return ArticleSet(articles=articles, skipped=skipped)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric codepoints; tokens shorter
    than two characters are dropped. No stop-word removal."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def tfidf_vectors(articles: ArticleSet) -> TfidfResult:
    """TF-IDF vectors over title+body with smoothed idf and L2 normalization.

    weight(t, d) = tf(t, d) * (ln((1 + N) / (1 + df(t))) + 1), then each
    document vector is scaled to unit L2 norm. The vocabulary assigns term ids
    in lexicographic term order, so output is deterministic for a given corpus.
    """
    n_docs = len(articles)
    if n_docs == 0:
        raise ValueError("tfidf_vectors requires at least one article")

    token_lists = [tokenize(a.title) + tokenize(a.body) for a in articles.articles]
    terms = sorted({term for tokens in token_lists for term in tokens})
    vocabulary = {term: idx for idx, term in enumerate(terms)}
    indptr = np.cumsum([0] + [len(tokens) for tokens in token_lists])
    indices = np.fromiter(
        (vocabulary[term] for tokens in token_lists for term in tokens), dtype=np.int32
    )
    # one entry per token; summing duplicates turns them into term counts
    matrix = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n_docs, len(terms))
    )
    matrix.sum_duplicates()

    df = np.bincount(matrix.indices, minlength=len(terms))
    idf = np.array([math.log((1 + n_docs) / (1 + count)) + 1.0 for count in df.tolist()])
    matrix.data *= idf[matrix.indices]
    rows = np.repeat(np.arange(n_docs), np.diff(matrix.indptr))
    norms = np.sqrt(np.bincount(rows, weights=matrix.data**2, minlength=n_docs))
    matrix.data /= norms[rows]

    empty = n_docs - np.count_nonzero(np.diff(matrix.indptr))
    if empty:
        logger.warning("%d article(s) with no usable tokens excluded from pairing", empty)
    return TfidfResult(matrix=matrix, vocabulary=vocabulary)


def similar_pairs(
    tfidf: TfidfResult,
    articles: ArticleSet,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> list[CopyPair]:
    """All cross-source article pairs with cosine similarity >= threshold.

    Pairs are oriented earlier -> later by publication timestamp; pairs with
    exactly equal timestamps are discarded (copy direction is unknowable).
    Articles with empty token lists never pair. The result is sorted by
    (earlier_source, later_source, earlier, later).
    """
    matrix = tfidf.matrix
    if matrix.shape[0] != len(articles):
        raise ValueError(f"{matrix.shape[0]} TF-IDF rows for {len(articles)} articles")
    sims = matrix @ matrix.T
    # drop sub-threshold entries before any per-pair Python work
    sims.data[sims.data < threshold] = 0.0
    sims.eliminate_zeros()
    sims = sims.tocoo()

    pairs: list[CopyPair] = []
    for i, j, value in zip(sims.row.tolist(), sims.col.tolist(), sims.data.tolist()):
        if i >= j:
            continue
        a, b = articles.articles[i], articles.articles[j]
        if a.source_id == b.source_id:
            continue
        if a.published_at == b.published_at:
            continue
        if a.published_at > b.published_at:
            a, b = b, a
        pairs.append(
            CopyPair(
                earlier=a.article_id,
                later=b.article_id,
                similarity=value,
                earlier_source=a.source_id,
                later_source=b.source_id,
            )
        )
    pairs.sort(key=lambda p: (p.earlier_source, p.later_source, p.earlier, p.later))
    return pairs


def write_pairs_tsv(pairs: list[CopyPair], path) -> None:
    """Write pairs as TSV: earlier_id, later_id, earlier_source, later_source,
    similarity (full-precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                f"{p.earlier}\t{p.later}\t{p.earlier_source}\t{p.later_source}\t{p.similarity!r}\n"
            )
