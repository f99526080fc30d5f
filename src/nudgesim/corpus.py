"""Article ingestion, TF-IDF vectorization, and cross-source near-duplicate detection.

The copy detector is the front end of the pipeline: articles from different
sources whose TF-IDF vectors have cosine similarity at or above a threshold
(default 0.85) are treated as near-verbatim copies, oriented from the earlier
publication to the later one.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import logging
import math
import operator
import os
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy import sparse

logger = logging.getLogger(__name__)

DEFAULT_SIMILARITY_THRESHOLD = 0.85
# rows of each band of similar_pairs; re-swept over 128-2048 with candidate
# pruning on the copy-detect benchmark workload at 1x and 4x the stories: 512
# was fastest at 4x and within noise at 1x, and peak memory grows with it
_PAIR_BLOCK = 512
# a row's leading terms stay out of the candidate index while their norm is
# below the threshold minus this (see _upper_entries); on copy-detect, 0.01
# lets 113k candidates through for 4.7k pairs, 0.03-0.1 let through no more
# than 4.8k, and above 0.1 the indexed part grows and the time with it
_UNINDEXED_MARGIN = 0.05
# row entries that one slice of the exact step gathers, per row of a band (see
# _upper_entries): 256k, about 6 MB, at the default band, so memory still grows
# with the band; a candidate whose two rows hold more is a slice of its own
_GATHER_PER_ROW = 512

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of alphanumeric codepoints
# lowercases each ASCII byte that _TOKEN_RE matches and makes every other
# ASCII byte a space, so bytes.split gives an ASCII text's runs at C speed;
# bytes from 128 up, which an ASCII text has none of, stay as they are
_ASCII_TABLE = bytes(
    ord(chr(c).lower()) if _TOKEN_RE.fullmatch(chr(c)) else ord(" ") for c in range(128)
) + bytes(range(128, 256))
# splits a field or a line of pairs.tsv and csn.tsv
_TSV_BREAK_RE = re.compile(r"[\t\r\n]")
# the number text parse_number takes, and a row of it, one number per tab-separated field
_NUMBER_TEXT_RE = re.compile(r"(?!\+)[\x21-\x5e\x60-\x7e]*")
_NUMBER_ROW_RE = re.compile(rf"{_NUMBER_TEXT_RE.pattern}(?:\t{_NUMBER_TEXT_RE.pattern})*")

# the timestamps parse_timestamp reads: the extended forms that
# datetime.fromisoformat takes on every supported Python, plus a trailing Z
_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}|\.[0-9]{6})?)?)?(?:[+-][0-9]{2}:[0-9]{2}|Z)?)?"
)
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
        return dict(Counter(a.source_id for a in self.articles))


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

    The grammar is the same on every supported Python: ``YYYY-MM-DD``,
    optionally ``T`` or a space and ``HH[:MM[:SS[.fff|.ffffff]]]``, then
    optionally ``+HH:MM``, ``-HH:MM`` or ``Z``. Naive timestamps are taken
    to be UTC. An error quotes ``value`` as given.
    """
    if not _TIMESTAMP_RE.fullmatch(value):
        raise ValueError(f"timestamp {value!r} is not YYYY-MM-DD[THH[:MM[:SS[.fff]]]][+HH:MM|Z]")
    try:  # Python 3.10 reads no Z
        ts = datetime.fromisoformat(value[:-1] + "+00:00" if value.endswith("Z") else value)
    except ValueError:  # a field out of range, such as month 13
        raise ValueError(f"timestamp {value!r} is not a valid date and time") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    if not (_DATE_MIN <= ts < _DATE_MAX):
        raise ValueError(f"timestamp {value!r} outside supported range")
    return ts.astimezone(timezone.utc)


def float_sum(values) -> float:
    """The float sum of ``values``, added left to right from 0.0: what
    ``sum()`` gives up to Python 3.11. From 3.12 ``sum()`` compensates its
    rounding, and so can differ in the last bit."""
    return functools.reduce(operator.add, values, 0.0)


def float_sums(table: np.ndarray) -> np.ndarray:
    """Each row's :func:`float_sum`: the last of the cumulative sums that
    ``np.cumsum`` adds left to right along the row, plus 0.0, since a sum from
    the first column rather than from 0.0 differs only as -0.0 for 0.0."""
    return np.cumsum(table, axis=1)[:, -1] + 0.0 if table.shape[1] else np.zeros(len(table))


def parse_number(text: str, kind=float):
    """``kind(text)``, for ``kind`` ``float`` or ``int``, of number text in a
    form the writers write: printable ASCII with no space or ``_``, not
    starting with ``+``. ``float()`` and ``int()`` would take ``1_0`` as 10,
    and ``٢``, `` 2`` and ``+2`` as 2; such text raises ValueError. Text that
    is no number at all keeps ``kind``'s own message."""
    if _NUMBER_TEXT_RE.fullmatch(text) is None:
        raise ValueError(f"number {text!r} must be printable ASCII, with no space, '_' or leading '+'")
    return kind(text)


def parse_floats(fields: list[str]) -> list[float]:
    """:func:`parse_number` of each field, the text rule checked in one match over the row."""
    if _NUMBER_ROW_RE.fullmatch("\t".join(fields)):
        return list(map(float, fields))
    return [parse_number(text) for text in fields]  # a field breaks the rule: the first bad one raises


def lone_surrogate(text: str) -> int | None:
    """The index of the first lone surrogate in ``text``, which UTF-8 cannot encode, or None."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return None


def check_source_name(name: str) -> None:
    """Reject a source name that ``pairs.tsv`` and ``csn.tsv`` cannot hold
    and read back: one that is not a string, an empty name, one starting
    with ``#``, holding a tab or line break, or holding a lone surrogate,
    which is not UTF-8."""
    if not isinstance(name, str):
        raise ValueError(f"source {name!r} is not a string but {type(name).__name__}")
    if not name or name.startswith("#") or _TSV_BREAK_RE.search(name):
        raise ValueError(f"source {name!r} is empty, starts with '#' or holds a tab or line break")
    if lone_surrogate(name) is not None:
        raise ValueError(f"source {name!r} holds a lone surrogate, which is not UTF-8")


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
    if lone_surrogate(article_id) is not None:
        raise ValueError(f"{article_id!r} holds a lone surrogate, which is not UTF-8")
    check_source_name(source_id)
    body = str(record["content"])
    if not body or body.isspace():
        raise ValueError("empty body")
    return Article(
        article_id=article_id,
        source_id=source_id,
        title=str(record["title"]),
        body=body,
        published_at=parse_timestamp(str(record["published_at"])),
    )


def read_utf8(path, newline: str | None = None) -> io.StringIO:
    """The text of ``path``, read like ``open(path, encoding="utf-8-sig",
    newline=newline)`` (one leading byte-order mark is skipped); a byte that
    is not UTF-8 raises ValueError naming the path, its line (ended by
    ``\n``, ``\r\n`` or ``\r``) and its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8").removeprefix("\ufeff"), newline=newline)
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b".").splitlines())
        raise ValueError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None


def read_json(path):
    """The JSON document in ``path``, read with :func:`read_utf8`; a syntax
    error, an integer too long to convert or too deep a nesting raises
    ValueError naming the path."""
    with read_utf8(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # a syntax error, or an integer too long to convert
            raise ValueError(f"{path}: {exc}") from None


def read_csv(path, fields: list[str], make) -> dict:
    """``{source: make(row)}`` over the non-empty rows of the CSV file
    ``path`` after its header, which must be ``fields``, in file order, a
    row's source being its first field. Every row has ``len(fields)`` string
    fields, and an empty field (:func:`write_csv`'s ``None``) is ``""``. A
    row that repeats a source, or whose ``make`` raises a ValueError, raises
    one naming the line where its record starts; the repeat is named first."""
    made = {}
    with read_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        end = 0  # the last line of the record read last
        try:
            if next(reader, None) != fields:
                raise ValueError(f"{path}:1: expected header {','.join(fields)!r}")
            end = reader.line_num
            for row in reader:
                line, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(fields):
                    raise ValueError(f"{path}:{line}: expected {len(fields)} fields, got {len(row)}")
                if row[0] in made:
                    raise ValueError(f"{path}:{line}: duplicate source {row[0]!r}")
                try:
                    made[row[0]] = make(row)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line}: {exc}") from exc
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ValueError(f"{path}:{end + 1}: {exc}") from None
    return made


def write_text(path, text: str) -> None:
    """Put ``text`` in ``path`` as UTF-8, in a directory made if need be: the
    one way nudgesim writes a file. The whole text is encoded before the
    file is opened, so a lone surrogate raises ValueError naming
    ``<path>:<line>`` and leaves a previous file as it was."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {text[exc.start]!r} is a lone surrogate, which is not UTF-8") from None
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        fd = os.open(path, flags, 0o666)  # its mode follows the umask, as open(path, "w") does
    except FileNotFoundError:  # no directory yet
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header``, then ``rows``, to ``path`` as UTF-8 CSV through
    :func:`write_text`: ``None`` as an empty field, a float (numpy's too) as
    its shortest round-trip decimal, and any other value as ``str`` gives it."""
    buffer = io.StringIO()
    try:
        csv.writer(buffer).writerows(itertools.chain([header], rows))
    except csv.Error as exc:  # a NUL, which Python 3.10's csv cannot write
        raise ValueError(f"{path}: {exc}") from None
    write_text(path, buffer.getvalue())


def load_articles(path) -> ArticleSet:
    """Read a JSONL article file, skipping one leading byte-order mark.

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
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if (at := lone_surrogate(line)) is not None:  # surrogateescape's stand-in for a non-UTF-8 byte
                    raise ValueError(f"byte 0x{ord(line[at]) - 0xDC00:02x} at character {at} is not UTF-8")
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


def _runs(text: str) -> list[bytes]:
    """The maximal alphanumeric runs of ``text.lower()``, as
    ``_TOKEN_RE.findall`` gives them, each encoded as UTF-8; an ASCII text
    takes the same runs from ``bytes.translate`` and ``bytes.split``."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TABLE).split()
    return [run.encode() for run in _TOKEN_RE.findall(text.lower())]


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric codepoints; tokens shorter
    than two characters are dropped. No stop-word removal."""
    return [t for t in map(bytes.decode, _runs(text)) if len(t) >= 2]


class _FirstSeen(dict):
    """Numbers each new key with the count of keys before it."""

    def __missing__(self, key: bytes) -> int:
        self[key] = value = len(self)
        return value


def tfidf_vectors(articles: ArticleSet) -> TfidfResult:
    """TF-IDF vectors over title+body with smoothed idf and L2 normalization.

    weight(t, d) = tf(t, d) * (ln((1 + N) / (1 + df(t))) + 1), then each
    document vector is scaled to unit L2 norm. The vocabulary assigns term ids
    in lexicographic term order, so output is deterministic for a given corpus.

    Every run of every article is numbered in first-seen order by one
    ``np.fromiter``, which reads the articles one at a time. The matrix is in
    canonical format: sorted indices, no duplicates.
    """
    n_docs = len(articles)
    if n_docs == 0:
        raise ValueError("tfidf_vectors requires at least one article")

    # run ids in first-seen order, split one article at a time, so no
    # article's runs outlive its numbering; each article's run count goes to
    # lengths as it is split. The space keeps title and body apart: no run,
    # and no lowercasing (a final sigma), crosses it
    first_seen = _FirstSeen()
    lengths: list[int] = []

    def article_runs():
        for a in articles.articles:
            runs = _runs(a.title + " " + a.body)
            lengths.append(len(runs))
            yield runs

    ids = np.fromiter(map(first_seen.__getitem__, itertools.chain.from_iterable(article_runs())), dtype=np.intc)
    # each run is decoded as it leaves the dict, the last first, so the bytes
    # and the strings of all runs are never held at once
    decoded = [first_seen.popitem()[0].decode() for _ in range(len(first_seen))]
    decoded.reverse()
    del first_seen
    # a one-character run is dropped by its decoded length: a two-byte é is
    # one character
    terms = sorted(run for run in decoded if len(run) >= 2)
    vocabulary = {term: idx for idx, term in enumerate(terms)}
    # each run's term id, or -1 for a one-character run
    rank = np.fromiter(
        map(vocabulary.get, decoded, itertools.repeat(-1)), dtype=np.int32, count=len(decoded)
    )
    del decoded
    token_terms = rank[ids]
    del ids, rank
    kept = token_terms >= 0
    indices = token_terms[kept]
    del token_terms
    indptr = np.concatenate(([0], np.cumsum(kept)))[np.cumsum([0] + lengths)]
    del kept
    # one entry per token; summing duplicates turns them into term counts
    matrix = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n_docs, len(terms))
    )
    del indices
    matrix.sum_duplicates()

    # one log per distinct document frequency
    frequencies, df = np.unique(
        np.bincount(matrix.indices, minlength=len(terms)), return_inverse=True
    )
    idf = np.array([math.log((1 + n_docs) / (1 + count)) + 1.0 for count in frequencies.tolist()])[df]
    del df
    matrix.data *= idf[matrix.indices]
    rows = np.repeat(np.arange(n_docs), np.diff(matrix.indptr))
    norms = np.sqrt(np.bincount(rows, weights=matrix.data**2, minlength=n_docs))
    matrix.data /= norms[rows]

    empty = n_docs - np.count_nonzero(np.diff(matrix.indptr))
    if empty:
        logger.warning("%d article(s) with no usable tokens excluded from pairing", empty)
    return TfidfResult(matrix=matrix, vocabulary=vocabulary)


def _split_rows(band: sparse.csr_matrix, bound: float):
    """Split each row of ``band``, whose terms are numbered from the most
    frequent to the least, into an unindexed part U, its leading terms while
    ``‖U‖ < bound``, and an indexed part I, the rest.

    The terms of each row are put in rank order by two transposes: scipy's
    CSR↔CSC conversion is a counting sort, linear in the entries and the
    columns, and emits each major's minor indices sorted. Returns I, the
    sorted copy pruned in place, and ``‖U‖`` per row.
    """
    band = band.tocsc().tocsr()
    lengths = np.diff(band.indptr)
    squares = band.data**2
    # each entry's squared norm of its row up to and including it
    sums = np.cumsum(squares)
    sums -= np.repeat(np.concatenate(([0.0], sums))[band.indptr[:-1]], lengths)
    unindexed = sums < bound * bound  # a prefix of each row: sums only grow
    row = np.repeat(np.arange(len(lengths)), lengths)
    norms = np.sqrt(
        np.bincount(row[unindexed], weights=squares[unindexed], minlength=len(lengths))
    )
    band.data[unindexed] = 0.0
    band.eliminate_zeros()
    return band, norms


def _upper_entries(matrix: sparse.csr_matrix, threshold: float):
    """The ``(i, j, (M·Mᵀ)[i, j])`` with ``i < j`` whose value is at least
    ``threshold``, as three arrays, found one band of ``_PAIR_BLOCK`` rows at
    a time.

    The terms are renumbered by document frequency, most frequent first, and
    Mᵀ is formed once. Each row x is split by :func:`_split_rows`, with the
    bound ``threshold - _UNINDEXED_MARGIN`` or 0 if that is lower. On unit
    rows Cauchy–Schwarz gives ``x·y ≤ I(x)·y + ‖U(x)‖`` for any split, so a
    band's candidates are the later columns where ``I(x)·y`` plus ``‖U(x)‖``
    reaches the threshold, with slack for rounding; a column sharing no term
    with I(x) gives at most ``‖U(x)‖``, which is below the threshold. Each
    candidate's exact value is ``M[i].multiply(M[j]) @ ones``: both rows are
    canonical, so the products come in index order, and the mat-vec adds them
    left to right from 0.0, as the full product sums its entry (i, j), and
    also (j, i). So every value is bitwise the full product's. The
    candidates are taken in slices whose two rows hold at most
    ``_GATHER_PER_ROW * _PAIR_BLOCK`` entries in all, so a story copied many
    times does not gather all its copies' rows at once.
    """
    n, m = matrix.shape
    rank = np.empty(m, dtype=matrix.indices.dtype)
    rank[np.argsort(-np.bincount(matrix.indices, minlength=m), kind="stable")] = np.arange(m)
    ranked = sparse.csr_matrix((matrix.data, rank[matrix.indices], matrix.indptr), shape=(n, m))
    transposed = ranked.T.tocsr()
    del ranked  # each band is renumbered on its own
    bound = max(threshold - _UNINDEXED_MARGIN, 0.0)
    lengths = np.diff(matrix.indptr)
    ones = np.ones(m)
    # three empty arrays stand first, for a matrix with no pair at all
    found = [(np.empty(0, rank.dtype), np.empty(0, rank.dtype), np.empty(0))]
    for start in range(0, n, _PAIR_BLOCK):
        band = matrix[start : start + _PAIR_BLOCK]  # a copy
        band.indices = rank[band.indices]
        part, norms = _split_rows(band, bound)
        indexed = part @ transposed  # I(x)·y for each row x of the band
        row = np.repeat(np.arange(part.shape[0], dtype=rank.dtype), np.diff(indexed.indptr))
        floor = threshold - 1e-9 - norms * (1 + 1e-12)
        candidate = (indexed.indices > start + row) & (indexed.data >= floor[row])
        j = indexed.indices[candidate]
        del band, part, indexed  # free them before the exact step
        i = start + row[candidate]
        del row, candidate
        # slices end where the gathered entries would pass the cap
        gathered = np.cumsum(lengths[i] + lengths[j])
        ends = [0]
        while ends[-1] < len(i):
            cap = _GATHER_PER_ROW * _PAIR_BLOCK + (gathered[ends[-1] - 1] if ends[-1] else 0)
            ends.append(max(int(np.searchsorted(gathered, cap, side="right")), ends[-1] + 1))
        del gathered
        for low, high in itertools.pairwise(ends):
            si, sj = i[low:high], j[low:high]
            values = matrix[si].multiply(matrix[sj]) @ ones
            keep = values >= threshold
            if keep.any():
                found.append((si[keep], sj[keep], values[keep]))
    return tuple(map(np.concatenate, zip(*found)))


def similar_pairs(
    tfidf: TfidfResult,
    articles: ArticleSet,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> list[CopyPair]:
    """All cross-source article pairs with cosine similarity >= threshold.

    Each entry :func:`_upper_entries` finds is oriented earlier -> later by
    publication timestamp; pairs with equal instants (in any offsets) are
    discarded (copy direction is unknowable). Articles with empty token lists
    never pair. The pairs are then sorted by
    (earlier_source, later_source, earlier, later).
    """
    matrix = tfidf.matrix
    if matrix.shape[0] != len(articles):
        raise ValueError(f"{matrix.shape[0]} TF-IDF rows for {len(articles)} articles")
    i, j, values = _upper_entries(matrix, threshold)
    arts = articles.articles
    pairs = []
    for a, b, value in zip(i.tolist(), j.tolist(), values.tolist()):
        first, second = arts[a], arts[b]
        if first.source_id == second.source_id or first.published_at == second.published_at:
            continue
        if second.published_at < first.published_at:
            first, second = second, first
        pairs.append(CopyPair(first.article_id, second.article_id, value, first.source_id, second.source_id))
    pairs.sort(key=operator.attrgetter("earlier_source", "later_source", "earlier", "later"))
    return pairs


def write_pairs_tsv(pairs: list[CopyPair], path) -> None:
    """Write pairs as TSV through :func:`write_text`: earlier_id, later_id,
    earlier_source, later_source, similarity (shortest round-trip decimal)."""
    write_text(path, "".join(
        f"{p.earlier}\t{p.later}\t{p.earlier_source}\t{p.later_source}\t{p.similarity}\n" for p in pairs
    ))
