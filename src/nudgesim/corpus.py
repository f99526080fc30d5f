"""Article ingestion, TF-IDF vectorization, and cross-source near-duplicate detection.

The copy detector is the front end of the pipeline: articles from different
sources whose TF-IDF vectors have cosine similarity at or above a threshold
(default 0.85) are treated as near-verbatim copies, oriented from the earlier
publication to the later one.
"""

from __future__ import annotations

import io
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
# rows of M·Mᵀ computed at once by similar_pairs; chosen by a sweep of 128-2048
# on the copy-detect benchmark workload (peak memory against time)
_PAIR_BLOCK = 512

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of alphanumeric codepoints
# every ASCII code point that _TOKEN_RE does not match becomes a space, so
# str.split gives an ASCII text's runs at C speed
_ASCII_GAPS = {c: " " for c in range(128) if not _TOKEN_RE.fullmatch(chr(c))}
# splits a field or a line of pairs.tsv and csn.tsv
_TSV_BREAK_RE = re.compile(r"[\t\r\n]")
# a lone surrogate (a JSON escape such as "\ud800") cannot be written as UTF-8
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")

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
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{key!r} must be a string or number, got {type(value).__name__}")
    article_id, source_id = str(record["id"]), str(record["source"])
    if not article_id or _TSV_BREAK_RE.search(article_id):
        raise ValueError(f"article id {article_id!r} is empty or holds a tab or line break")
    if not source_id or source_id.startswith("#") or _TSV_BREAK_RE.search(source_id):
        raise ValueError(
            f"source {source_id!r} is empty, starts with '#' or holds a tab or line break"
        )
    for name in (article_id, source_id):
        if _SURROGATE_RE.search(name):
            raise ValueError(f"{name!r} holds a lone surrogate, which is not UTF-8")
    body = str(record["content"])
    if not body.strip():
        raise ValueError("empty body")
    return Article(
        article_id=article_id,
        source_id=source_id,
        title=str(record["title"]),
        body=body,
        published_at=parse_timestamp(str(record["published_at"])),
    )


def _check_decoded(line: str) -> None:
    """Raise ValueError naming the first byte of ``line`` that was not UTF-8.

    The line was read with ``errors="surrogateescape"``, which decodes such
    a byte to a lone surrogate, and only those fail to encode back.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"byte 0x{byte:02x} at character {exc.start} is not UTF-8") from None


def read_utf8(path, newline: str | None = None) -> io.StringIO:
    """The text of ``path``, read like ``open(path, encoding="utf-8",
    newline=newline)``; a byte that is not UTF-8 raises ValueError naming the
    path and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None


def load_articles(path) -> ArticleSet:
    """Read a JSONL article file.

    Malformed lines are skipped with a warning and counted; these include a
    line that is not valid UTF-8, a field that is not a JSON string or
    number, an empty id or source, one holding a tab, a line break or a lone
    surrogate, and a source starting with ``#``, which would break the TSV
    outputs. A duplicate article id is a fatal corpus-integrity error. An
    unreadable file raises OSError.
    """
    articles: list[Article] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                _check_decoded(line)
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


def _runs(text: str) -> list[str]:
    """The maximal alphanumeric runs of ``text.lower()``, as
    ``_TOKEN_RE.findall`` gives them; an ASCII text takes the same runs from
    ``str.translate`` and ``str.split``."""
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_GAPS).split()
    return _TOKEN_RE.findall(text)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric codepoints; tokens shorter
    than two characters are dropped. No stop-word removal."""
    return [t for t in _runs(text) if len(t) >= 2]


class _FirstSeen(dict):
    """Numbers each new key with the count of keys before it."""

    def __missing__(self, key: str) -> int:
        self[key] = value = len(self)
        return value


def tfidf_vectors(articles: ArticleSet) -> TfidfResult:
    """TF-IDF vectors over title+body with smoothed idf and L2 normalization.

    weight(t, d) = tf(t, d) * (ln((1 + N) / (1 + df(t))) + 1), then each
    document vector is scaled to unit L2 norm. The vocabulary assigns term ids
    in lexicographic term order, so output is deterministic for a given corpus.
    """
    n_docs = len(articles)
    if n_docs == 0:
        raise ValueError("tfidf_vectors requires at least one article")

    # run ids in first-seen order, one article at a time, so no article's run
    # strings outlive it; one-character runs are dropped and the rest
    # renumbered to lexicographic order below, once per distinct run
    first_seen = _FirstSeen()
    ids: list[int] = []  # the dict's own int objects, not new ones
    ends = [0]
    for a in articles.articles:
        ids.extend(map(first_seen.__getitem__, _runs(a.title)))
        ids.extend(map(first_seen.__getitem__, _runs(a.body)))
        ends.append(len(ids))
    terms = sorted(run for run in first_seen if len(run) >= 2)
    vocabulary = {term: idx for idx, term in enumerate(terms)}
    # each run's term id, or -1 for a one-character run
    rank = np.fromiter(
        (vocabulary.get(run, -1) for run in first_seen), dtype=np.int32, count=len(first_seen)
    )
    token_terms = rank[np.fromiter(ids, dtype=np.intp, count=len(ids))]
    kept = token_terms >= 0
    indices = token_terms[kept]
    indptr = np.concatenate(([0], np.cumsum(kept)))[ends]
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


def _upper_entries(matrix: sparse.csr_matrix, threshold: float):
    """Yield ``(i, j, (M·Mᵀ)[i, j])`` for every ``i < j`` whose value is at
    least ``threshold``, computing M·Mᵀ one band of ``_PAIR_BLOCK`` rows at a
    time and each band only from its first row's column on.

    The product sums entry (i, j) over row i's terms in index order, whatever
    the band, so every value is bitwise the full product's entry (i, j),
    which is also its entry (j, i).
    """
    for start in range(0, matrix.shape[0], _PAIR_BLOCK):
        band = matrix[start : start + _PAIR_BLOCK] @ matrix[start:].T
        at = np.flatnonzero(band.data >= threshold)
        i = start + np.searchsorted(band.indptr, at, side="right") - 1
        j = start + band.indices[at]
        upper = i < j
        values = band.data[at[upper]]
        del band  # free it before the next band is computed
        yield from zip(i[upper].tolist(), j[upper].tolist(), values.tolist())


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
    pairs: list[CopyPair] = []
    for i, j, value in _upper_entries(matrix, threshold):
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
