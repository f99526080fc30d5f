"""Corpus ingestion, TF-IDF, and near-duplicate pair detection.

The pair detector is checked against a brute-force oracle: an independent
pure-Python TF-IDF and an O(n^2) cosine loop over all article pairs.
"""

import json
import math
import random
import re
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nudgesim import corpus

# ---------------------------------------------------------------- oracles


_SPEC_RUN = re.compile(r"[^\W_]+")


def spec_tokens(text):
    """The tokenizer rule as specified: lowercase runs of alphanumeric
    codepoints, two characters or longer."""
    return [t for t in _SPEC_RUN.findall(text.lower()) if len(t) >= 2]


def oracle_tfidf(articles):
    """Independent TF-IDF: raw tf * (ln((1+N)/(1+df)) + 1), L2-normalized."""
    docs = {a.article_id: spec_tokens(a.title) + spec_tokens(a.body) for a in articles}
    n = len(docs)
    df = {}
    for tokens in docs.values():
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    vectors = {}
    for doc_id, tokens in docs.items():
        tf = {}
        for term in tokens:
            tf[term] = tf.get(term, 0) + 1
        weights = {
            term: count * (math.log((1 + n) / (1 + df[term])) + 1.0)
            for term, count in tf.items()
        }
        norm = math.sqrt(sum(w * w for w in weights.values()))
        vectors[doc_id] = {t: w / norm for t, w in weights.items()} if norm else {}
    return vectors


def oracle_pairs(articles, threshold):
    """O(n^2) all-pairs cosine with the same eligibility rules."""
    vectors = oracle_tfidf(articles)
    by_id = {a.article_id: a for a in articles}
    found = set()
    ids = sorted(vectors)
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            vx, vy = vectors[x], vectors[y]
            if not vx or not vy:
                continue
            sim = sum(w * vy.get(t, 0.0) for t, w in vx.items())
            if sim < threshold:
                continue
            a, b = by_id[x], by_id[y]
            if a.source_id == b.source_id or a.published_at == b.published_at:
                continue
            if a.published_at > b.published_at:
                a, b = b, a
            found.add((a.article_id, b.article_id))
    return found


# ---------------------------------------------------------------- tokenize


def test_tokenize_splits_on_non_alphanumerics():
    assert corpus.tokenize("COVID-19 spreads") == ["covid", "19", "spreads"]


def test_tokenize_drops_short_tokens_and_underscores():
    assert corpus.tokenize("a _x_ of b2b don't") == ["of", "b2b", "don"]


def test_tokenize_handles_unicode_words():
    assert corpus.tokenize("Älteste Straße") == ["älteste", "straße"]


def test_tokenize_empty():
    assert corpus.tokenize("— ※ !") == []


# ASCII text is split by bytes.translate and bytes.split, any other by the
# regex: every ASCII code point (\x1c-\x1f, whitespace to str.split but not
# to bytes.split, included) and a few separators that are not ASCII, where
# the two paths could part
_ASCII_HEAVY_CHARS = [chr(c) for c in range(128)] + list("\u00a0’—\u3000")
_ASCII_HEAVY = st.text(alphabet=st.sampled_from(_ASCII_HEAVY_CHARS))


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.characters(exclude_categories=())) | _ASCII_HEAVY)
def test_tokenize_follows_the_spec_on_any_text(text):
    assert corpus.tokenize(text) == spec_tokens(text)


def test_tfidf_is_unchanged_by_a_separator_that_is_not_ascii(fixture_articles, fixture_tfidf):
    # a trailing no-break space sends every text through the regex path
    # without changing any run, so the result must be the same to the bit
    padded = corpus.ArticleSet(
        [replace(a, title=a.title + "\u00a0", body=a.body + "\u00a0") for a in fixture_articles.articles]
    )
    got = corpus.tfidf_vectors(padded)
    assert list(got.vocabulary.items()) == list(fixture_tfidf.vocabulary.items())
    for field in ("indptr", "indices", "data"):
        want = getattr(fixture_tfidf.matrix, field)
        assert getattr(got.matrix, field).dtype == want.dtype
        assert getattr(got.matrix, field).tobytes() == want.tobytes(), field


# ---------------------------------------------------------------- timestamps


def test_parse_timestamp_z_suffix():
    ts = corpus.parse_timestamp("2018-03-01T08:00:00Z")
    assert ts == datetime(2018, 3, 1, 8, 0, tzinfo=timezone.utc)


def test_parse_timestamp_naive_becomes_utc():
    ts = corpus.parse_timestamp("2018-03-01T08:00:00")
    assert ts.tzinfo == timezone.utc


def test_parse_timestamp_offset_preserved_for_ordering():
    early = corpus.parse_timestamp("2018-03-01T08:00:00+02:00")
    late = corpus.parse_timestamp("2018-03-01T07:30:00Z")
    assert early < late


@pytest.mark.parametrize("value", ["1989-12-31T23:59:59Z", "2100-01-01T00:00:00Z", "not-a-date"])
def test_parse_timestamp_rejects_out_of_range(value):
    with pytest.raises(ValueError):
        corpus.parse_timestamp(value)


@pytest.mark.parametrize("value", ["9999-12-31T23:59:59Z", "2018-13-01T00:00:00Z", "2018-05-01Z"])
def test_parse_timestamp_error_quotes_the_value_as_written(value):
    with pytest.raises(ValueError, match=re.escape(f"timestamp {value!r} ")):
        corpus.parse_timestamp(value)


@pytest.mark.parametrize(
    "value",
    ["2018-05-01", "2018-05-01T08", "2018-05-01 08:30", "2018-05-01T08:30:15.123",
     "2018-05-01T08:30:15.123456+02:00", "2018-05-01T08:30-05:00", "2018-05-01T08:30:15Z"],
)
def test_parse_timestamp_reads_the_extended_forms(value):
    ts = corpus.parse_timestamp(value)
    assert ts.tzinfo == timezone.utc
    assert ts.date().isoformat() == "2018-05-01"


# forms that fromisoformat reads on Python 3.11 but not on 3.10, and a
# date-only stamp with an offset, which both read as a time of day
@pytest.mark.parametrize(
    "value",
    ["20180501", "2018-W18-2", "2018-05-01T08:30:15.123456789", "20180501T083015",
     "2018-05-01T08:30:15.1", "2018-05-01+02:00", "2018-05-01T08:30+0200", "２０１８-05-01"],
)
def test_parse_timestamp_refuses_other_forms(value):
    with pytest.raises(ValueError, match=re.escape(f"timestamp {value!r} is not YYYY-MM-DD")):
        corpus.parse_timestamp(value)


def test_load_articles_skips_timestamps_of_other_forms(tmp_path, caplog):
    path = tmp_path / "articles.jsonl"
    stamps = [20180501, "20180501", "2018-W18-2", "2018-05-01T08:30:15.123456789", "2018-05-01T08:00:00Z"]
    _write_jsonl(path, [_record(f"a{i}", ts=ts) for i, ts in enumerate(stamps)])
    with caplog.at_level("WARNING", logger="nudgesim.corpus"):
        result = corpus.load_articles(path)
    assert [a.article_id for a in result.articles] == ["a4"]
    assert result.skipped == 4
    assert sum("skipping malformed line" in r.message for r in caplog.records) == 4


# ---------------------------------------------------------------- loading


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def _record(article_id, source="src-a", content="some article body here", ts="2018-01-05T00:00:00Z"):
    return {
        "id": article_id,
        "source": source,
        "title": "a headline",
        "content": content,
        "published_at": ts,
    }


def test_load_articles_skips_malformed_lines(tmp_path, caplog):
    path = tmp_path / "articles.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_record("a1")) + "\n")
        fh.write("{not json\n")
        fh.write(json.dumps({"id": "a2", "source": "s"}) + "\n")  # missing fields
        fh.write(json.dumps(_record("a3", content="   ")) + "\n")  # blank body
        fh.write(json.dumps(_record("a4", ts="1200-01-01T00:00:00Z")) + "\n")
        # in UTC these fall past the ends of datetime's range
        fh.write(json.dumps(_record("a6", ts="9999-12-31T23:59:59-01:00")) + "\n")
        fh.write(json.dumps(_record("a7", ts="0001-01-01T00:00:00+01:00")) + "\n")
        fh.write(json.dumps(_record("a5")) + "\n")
    with caplog.at_level("WARNING", logger="nudgesim.corpus"):
        result = corpus.load_articles(path)
    assert [a.article_id for a in result.articles] == ["a1", "a5"]
    assert result.skipped == 6
    assert sum("outside supported range" in r.message for r in caplog.records) == 3
    assert sum("skipping malformed line" in r.message for r in caplog.records) == 6


def test_load_articles_names_what_utf8_cannot_hold(tmp_path, caplog):
    # one lone-surrogate test serves a byte that is not UTF-8, which the
    # reader decodes to a lone surrogate, and an id or a source that a JSON
    # escape makes one; each line is skipped with its own message
    path = tmp_path / "articles.jsonl"
    bad_byte = json.dumps(_record("a2", content="xQy")).encode().replace(b"Q", b"\xff")
    lines = [json.dumps(_record("a1")).encode(), bad_byte,
             json.dumps(_record("\ud800")).encode(), json.dumps(_record("a4", source="s\udfff")).encode()]
    path.write_bytes(b"\n".join(lines) + b"\n")
    at = bad_byte.index(b"\xff")  # every byte before it is ASCII, one character each
    with caplog.at_level("WARNING", logger="nudgesim.corpus"):
        result = corpus.load_articles(path)
    assert [a.article_id for a in result.articles] == ["a1"]
    assert [r.getMessage().removeprefix(f"{path}:") for r in caplog.records] == [
        f"2: skipping malformed line (byte 0xff at character {at} is not UTF-8)",
        "3: skipping malformed line ('\\ud800' holds a lone surrogate, which is not UTF-8)",
        "4: skipping malformed line (source 's\\udfff' holds a lone surrogate, which is not UTF-8)",
    ]


@given(text=st.text(st.sampled_from("a\u00e9\ud7ff\ud800\udbff\udc00\udfff\ue000\U0001f600")))
def test_lone_surrogate_is_the_first_surrogate_code_point(text):
    expected = next((i for i, c in enumerate(text) if "\ud800" <= c <= "\udfff"), None)
    assert corpus.lone_surrogate(text) == expected


_NUMBER_FIELDS = st.lists(st.sampled_from(["1.0", "-0.5", "1e+20", "nan", "-inf", "0", "", "1_0", "+2", " 2", "2 ",
                                           "nope", "\u0662", "0x1p3", "1e400"]), max_size=5)


@given(fields=_NUMBER_FIELDS)
def test_parse_floats_is_parse_number_on_each_field(fields):
    # the one match over a row gives what parse_number gives field by field:
    # the same floats, or the first bad field's error
    def outcome(parse):
        try:
            return [x.hex() for x in parse()]
        except ValueError as exc:
            return str(exc)

    assert outcome(lambda: corpus.parse_floats(fields)) == outcome(lambda: [corpus.parse_number(f) for f in fields])


def test_load_articles_duplicate_id_is_fatal(tmp_path):
    path = tmp_path / "articles.jsonl"
    _write_jsonl(path, [_record("a1"), _record("a1")])
    with pytest.raises(ValueError, match=r":2: duplicate article id 'a1'"):
        corpus.load_articles(path)


def test_load_articles_deeply_nested_line_is_fatal(tmp_path):
    path = tmp_path / "articles.jsonl"
    path.write_text(json.dumps(_record("a1")) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: JSON nested too deeply"):
        corpus.load_articles(path)


def test_load_articles_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        corpus.load_articles(tmp_path / "nope.jsonl")


def test_fixture_corpus_loads_cleanly(fixture_articles):
    assert len(fixture_articles.articles) == 20
    assert fixture_articles.skipped == 0
    assert fixture_articles.source_counts() == {
        "meridian-daily": 4,
        "coastal-chronicle": 3,
        "summit-sentinel": 3,
        "valley-voice": 3,
        "northgate-news": 3,
        "quarry-press": 4,
    }


# ---------------------------------------------------------------- tf-idf


def _articles_from_texts(texts):
    records = [
        _record(f"d{i}", source=f"s{i}", content=text, ts=f"2018-01-{i + 1:02d}T00:00:00Z")
        for i, text in enumerate(texts)
    ]
    return [
        corpus.Article(
            article_id=r["id"],
            source_id=r["source"],
            title="",
            body=r["content"],
            published_at=corpus.parse_timestamp(r["published_at"]),
        )
        for r in records
    ]


def _row(tfidf, i):
    """Row i of the TF-IDF matrix as {term id: weight}."""
    row = tfidf.matrix[i]
    return dict(zip(row.indices.tolist(), row.data.tolist()))


def test_tfidf_matches_hand_computation():
    arts = _articles_from_texts(["apple banana apple", "banana cherry"])
    result = corpus.tfidf_vectors(corpus.ArticleSet(articles=arts, skipped=0))
    # N=2; df: apple 1, banana 2, cherry 1
    idf_apple = math.log(3 / 2) + 1.0
    idf_banana = math.log(3 / 3) + 1.0
    w_apple, w_banana = 2 * idf_apple, 1 * idf_banana
    norm = math.sqrt(w_apple**2 + w_banana**2)
    vec = _row(result, 0)
    assert vec[result.vocabulary["apple"]] == pytest.approx(w_apple / norm, abs=1e-15)
    assert vec[result.vocabulary["banana"]] == pytest.approx(w_banana / norm, abs=1e-15)


def test_tfidf_vocabulary_is_lexicographic():
    arts = _articles_from_texts(["zebra apple", "mango apple"])
    result = corpus.tfidf_vectors(corpus.ArticleSet(articles=arts, skipped=0))
    assert list(result.vocabulary) == sorted(result.vocabulary)
    assert list(result.vocabulary.values()) == [0, 1, 2]


def test_tfidf_vectors_are_unit_norm(fixture_articles, fixture_tfidf):
    assert fixture_tfidf.matrix.shape[0] == len(fixture_articles)
    for i, article in enumerate(fixture_articles.articles):
        vec = _row(fixture_tfidf, i)
        if article.article_id == "md-004":
            assert vec == {}
        else:
            norm = math.sqrt(sum(w * w for w in vec.values()))
            assert norm == pytest.approx(1.0, abs=1e-12)


def test_tfidf_flags_tokenless_articles(fixture_articles, fixture_tfidf, caplog):
    empty = [
        a.article_id
        for i, a in enumerate(fixture_articles.articles)
        if fixture_tfidf.matrix[i].nnz == 0
    ]
    assert empty == ["md-004"]
    with caplog.at_level("WARNING", logger="nudgesim.corpus"):
        corpus.tfidf_vectors(fixture_articles)
    assert "1 article(s) with no usable tokens" in caplog.text


# a text field for tfidf_vectors, which joins title and body with a space and
# tokenizes them as UTF-8 bytes: letters of two bytes, the two lowercase
# sigmas and the capital one whose lowercase depends on its neighbours, a
# capital that lowercases to two code points, and a combining accent
_FIELD = st.text(alphabet=st.sampled_from(_ASCII_HEAVY_CHARS + list("éßΣς’İ\u0301")), max_size=40)


@settings(max_examples=200, deadline=None)
@given(fields=st.lists(st.tuples(_FIELD, _FIELD), min_size=1, max_size=6))
@example(fields=[("ab", "cd")])
@example(fields=[("ΑΣ", "Σα"), ("x", "é x ab")])
def test_tfidf_tokenizes_title_and_body_each_on_its_own(fields):
    bodies = _dated_articles([body for _, body in fields])
    arts = [replace(a, title=title) for a, (title, _) in zip(bodies, fields)]
    result = corpus.tfidf_vectors(corpus.ArticleSet(arts))
    tokens = [corpus.tokenize(title) + corpus.tokenize(body) for title, body in fields]
    assert list(result.vocabulary) == sorted(set().union(*tokens))
    assert list(result.vocabulary.values()) == list(range(len(result.vocabulary)))
    expected = oracle_tfidf(arts)
    for i, (article, doc) in enumerate(zip(arts, tokens)):
        row = _row(result, i)
        assert sorted(row) == sorted(result.vocabulary[t] for t in set(doc))
        want = expected[article.article_id]
        for term, weight in want.items():
            assert row[result.vocabulary[term]] == pytest.approx(weight, abs=1e-12)


def test_tfidf_drops_a_run_of_one_character_however_many_bytes():
    # é is one character in two UTF-8 bytes
    result = corpus.tfidf_vectors(corpus.ArticleSet(_dated_articles(["é x ab"])))
    assert result.vocabulary == {"ab": 0}
    assert _row(result, 0) == {0: 1.0}


def test_load_articles_skips_a_body_of_whitespace_only(tmp_path, caplog):
    path = tmp_path / "articles.jsonl"
    bodies = ["", " \t", "\u3000\x1c\u2028", "\u00a0x"]
    _write_jsonl(path, [_record(f"a{i}", content=body) for i, body in enumerate(bodies)])
    with caplog.at_level("WARNING", logger="nudgesim.corpus"):
        result = corpus.load_articles(path)
    assert [a.article_id for a in result.articles] == ["a3"]
    assert result.skipped == 3
    assert sum("(empty body)" in r.message for r in caplog.records) == 3


def test_tfidf_empty_corpus_raises():
    with pytest.raises(ValueError):
        corpus.tfidf_vectors(corpus.ArticleSet(articles=[], skipped=0))


def test_tfidf_matches_oracle_on_fixture(fixture_articles, fixture_tfidf):
    expected = oracle_tfidf(fixture_articles.articles)
    inverse_vocab = {i: t for t, i in fixture_tfidf.vocabulary.items()}
    for i, article in enumerate(fixture_articles.articles):
        got = {inverse_vocab[tid]: w for tid, w in _row(fixture_tfidf, i).items()}
        want = expected[article.article_id]
        assert got.keys() == want.keys()
        for term, w in want.items():
            assert got[term] == pytest.approx(w, abs=1e-12)


def test_tfidf_numbers_runs_across_articles_as_one_corpus():
    # runs first seen in one article recur in later ones, and texts that are
    # not ASCII or have no usable token sit between them
    texts = ["river council budget", "straße σεισμός river", "a x 7", "新闻 budget budget",
             "storm harbor", "x", "river straße storm", "“storm” election", "ΑΣ Σα bridge",
             "market 7 a", "council council market"]
    arts = _dated_articles(texts)
    result = corpus.tfidf_vectors(corpus.ArticleSet(articles=arts, skipped=0))
    assert result.matrix.has_canonical_format
    expected = oracle_tfidf(arts)
    inverse_vocab = {i: t for t, i in result.vocabulary.items()}
    for i, article in enumerate(arts):
        got = {inverse_vocab[tid]: w for tid, w in _row(result, i).items()}
        want = expected[article.article_id]
        assert got.keys() == want.keys()
        for term, w in want.items():
            assert got[term] == pytest.approx(w, abs=1e-12)


# ---------------------------------------------------------------- pairing


def test_similar_pairs_matches_oracle_on_fixture(fixture_articles, fixture_pairs):
    got = {(p.earlier, p.later) for p in fixture_pairs}
    assert got == oracle_pairs(fixture_articles.articles, 0.85)


def test_fixture_pair_set_is_the_planted_one(fixture_pairs):
    assert {(p.earlier, p.later) for p in fixture_pairs} == {
        ("md-001", "cc-014"),
        ("md-001", "ss-101"),
        ("cc-014", "ss-101"),
        ("md-002", "vv-201"),
        ("md-002", "vv-202"),
        ("nn-302", "qp-402"),
        ("qp-403", "nn-303"),
        ("ss-102", "cc-016"),
    }


def test_pairs_exclude_same_source_and_equal_timestamps(fixture_pairs):
    ids = {(p.earlier, p.later) for p in fixture_pairs}
    # vv-201 / vv-202 are near-identical but share a source
    assert ("vv-201", "vv-202") not in ids and ("vv-202", "vv-201") not in ids
    # nn-301 / qp-401 are identical but simultaneous
    assert ("nn-301", "qp-401") not in ids and ("qp-401", "nn-301") not in ids


def test_pairs_oriented_earlier_to_later(fixture_articles, fixture_pairs):
    by_id = {a.article_id: a for a in fixture_articles.articles}
    for p in fixture_pairs:
        assert by_id[p.earlier].published_at < by_id[p.later].published_at
        assert p.earlier_source == by_id[p.earlier].source_id
        assert p.later_source == by_id[p.later].source_id


def test_pairs_sorted_canonically(fixture_pairs):
    keys = [(p.earlier_source, p.later_source, p.earlier, p.later) for p in fixture_pairs]
    assert keys == sorted(keys)


def test_threshold_is_inclusive(fixture_articles, fixture_tfidf, fixture_pairs):
    # raising the threshold to just above a pair's similarity drops exactly it
    weakest = min(fixture_pairs, key=lambda p: p.similarity)
    kept = corpus.similar_pairs(
        fixture_tfidf, fixture_articles, threshold=weakest.similarity
    )
    assert {(p.earlier, p.later) for p in kept} == {
        (p.earlier, p.later) for p in fixture_pairs
    }
    tightened = corpus.similar_pairs(
        fixture_tfidf, fixture_articles, threshold=weakest.similarity + 1e-9
    )
    assert {(p.earlier, p.later) for p in tightened} == {
        (p.earlier, p.later) for p in fixture_pairs
    } - {(weakest.earlier, weakest.later)}


def test_similar_pairs_deterministic(fixture_articles, fixture_tfidf, fixture_pairs):
    again = corpus.similar_pairs(fixture_tfidf, fixture_articles)
    assert again == fixture_pairs


def test_similar_pairs_rejects_tfidf_of_another_corpus(fixture_articles, fixture_tfidf):
    fewer = corpus.ArticleSet(articles=fixture_articles.articles[:-1])
    with pytest.raises(ValueError, match="20 TF-IDF rows for 19 articles"):
        corpus.similar_pairs(fixture_tfidf, fewer)


# a document holding one of the words that are not ASCII takes the regex path
# of the tokenizer; "river," and "“storm”" give the runs of two plain words
_WORDS = ["river", "council", "budget", "storm", "harbor", "election", "bridge", "market",
          "straße", "σεισμός", "新闻", "river,", "“storm”"]
# one-letter words are dropped by the tokenizer, so these documents are tokenless
_TOKENLESS = st.lists(st.sampled_from(["a", "x", "7"]), min_size=1, max_size=3)
_CORPORA = st.lists(
    st.one_of(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), _TOKENLESS),
    min_size=2,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(docs=_CORPORA, threshold=st.floats(min_value=0.05, max_value=1.0))
# two identical documents: the product gives 0.9999999999999999, the oracle 1.0
@example(docs=[["river"], ["river", "river", "council", "budget"], ["river", "river", "council", "budget"]],
         threshold=1.0)
def test_similar_pairs_matches_oracle_on_random_corpora(docs, threshold):
    arts = _articles_from_texts([" ".join(tokens) for tokens in docs])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    got = {
        (p.earlier, p.later)
        for p in corpus.similar_pairs(tfidf, article_set, threshold=threshold)
    }
    # the oracle sums in another order, so a pair whose similarity rounds to
    # the threshold may fall on either side
    assert oracle_pairs(arts, threshold + 1e-12) <= got <= oracle_pairs(arts, threshold - 1e-12)


@pytest.mark.parametrize("block", [1, 2, 3, 9])
@settings(max_examples=25, deadline=None)
@given(docs=_CORPORA, threshold=st.floats(min_value=0.05, max_value=1.0))
def test_similar_pairs_in_bands_match_oracle_and_full_product(block, docs, threshold):
    # bands of 1, 2 and 3 rows cross band boundaries; 9 is one band for any n
    arts = _articles_from_texts([" ".join(tokens) for tokens in docs])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    with mock.patch.object(corpus, "_PAIR_BLOCK", block):
        pairs = corpus.similar_pairs(tfidf, article_set, threshold=threshold)
    with mock.patch.object(corpus, "_PAIR_BLOCK", len(arts)):
        whole = corpus.similar_pairs(tfidf, article_set, threshold=threshold)
    assert pairs == whole  # one band is the full product, kept at the same threshold
    # the oracle sums in another order, so a pair whose similarity rounds to
    # the threshold (two identical documents at 1.0) may fall on either side
    got = {(p.earlier, p.later) for p in pairs}
    assert oracle_pairs(arts, threshold + 1e-12) <= got <= oracle_pairs(arts, threshold - 1e-12)
    full =(tfidf.matrix @ tfidf.matrix.T).toarray()
    row = {a.article_id: i for i, a in enumerate(arts)}
    for p in pairs:  # bitwise, whichever of (i, j) and (j, i) the band held
        assert p.similarity == full[row[p.earlier], row[p.later]]


def _dated_articles(texts):
    """One article per text, each from its own source, published a minute
    after the one before, so that every pair is eligible."""
    start = datetime(2018, 1, 1, tzinfo=timezone.utc)
    return [
        corpus.Article(f"d{i}", f"s{i}", "", text, start + timedelta(minutes=i))
        for i, text in enumerate(texts)
    ]


def full_product_pairs(arts, tfidf, threshold):
    """The pairs of ``_dated_articles`` read off the whole of M·Mᵀ: each
    entry (i, j) with i < j at or above the threshold, as article i -> j."""
    full = (tfidf.matrix @ tfidf.matrix.T).tocoo()
    upper = (full.row < full.col) & (full.data >= threshold)
    return [
        corpus.CopyPair(arts[i].article_id, arts[j].article_id, value,
                        arts[i].source_id, arts[j].source_id)
        for i, j, value in zip(full.row[upper].tolist(), full.col[upper].tolist(),
                               full.data[upper].tolist())
    ]


def _by_ids(pairs):
    return sorted(pairs, key=lambda p: (p.earlier, p.later))


# word k is drawn about 1/(k + 1) as often as the first, so a row's leading
# terms by document frequency carry much of its norm
_ZIPF_WORDS = [f"w{k}" for k in range(40) for _ in range(40 // (k + 1))]
_ZIPF_CORPORA = st.lists(
    st.lists(st.sampled_from(_ZIPF_WORDS), min_size=1, max_size=30), min_size=2, max_size=10
)


@settings(max_examples=80, deadline=None)
@given(docs=_ZIPF_CORPORA, copies=st.lists(st.integers(0, 9), max_size=3),
       pick=st.integers(0, 10**6), low=st.floats(min_value=0.0, max_value=0.05),
       block=st.sampled_from([1, 3, 512]))
# the pair d0-d2 scores 0.3857…; d0 leaves no term out of its index, and its
# candidate score, summed in another order, comes out one unit in the last
# place below the exact product
@example(docs=[["w4", "w1", "w1", "w0", "w1", "w4", "w0", "w3"], ["w0", "w3", "w9", "w9"],
               ["w6", "w6", "w0", "w1", "w3"], ["w2", "w6", "w2"],
               ["w0", "w1", "w2", "w7", "w0", "w3", "w0", "w0"]],
         copies=[], pick=5, low=0.0, block=512)
# d0 holds "common" once among 500 rare words, with weight 0.023, and shares
# only it with d1: left out of d0's index, it would lose the pair at 0.02
@example(docs=[["common"] + [f"rare{k}" for k in range(500)], ["common"] * 3,
               ["common", "alpha"], ["common", "beta"]],
         copies=[], pick=0, low=0.02, block=512)
def test_similar_pairs_are_the_full_product_at_a_product_value_and_beside_it(
    docs, copies, pick, low, block
):
    # the threshold is a value of M·Mᵀ, or the float just below or above it,
    # or one so low that no term is left out of the index; a bound without
    # enough slack for rounding would lose the pair that sits on it
    docs = docs + [docs[k % len(docs)] + ["w0"] for k in copies]  # near-copies score high
    arts = _dated_articles([" ".join(tokens) for tokens in docs])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    full = (tfidf.matrix @ tfidf.matrix.T).tocoo()
    values = sorted(set(full.data[full.row < full.col].tolist()))
    thresholds = [low]
    if values:
        value = values[pick % len(values)]
        below, above = np.nextafter(value, -np.inf), np.nextafter(value, np.inf)
        thresholds += [float(below), value, float(above)]
    with mock.patch.object(corpus, "_PAIR_BLOCK", block):
        for threshold in thresholds:
            got = corpus.similar_pairs(tfidf, article_set, threshold=threshold)
            assert _by_ids(got) == _by_ids(full_product_pairs(arts, tfidf, threshold)), threshold


def test_similar_pairs_on_planted_copies_are_the_full_product():
    # a few hundred long documents over a Zipf-like vocabulary, a third of
    # them copied with a few words dropped or swapped: most of each row is
    # left out of the index, and the pairs are still the full product's
    rng = random.Random(11)
    vocabulary = [f"term{k}" for k in range(3000)]
    weights = [1 / (k + 1) for k in range(3000)]
    docs = []
    for _ in range(240):
        doc = rng.choices(vocabulary, weights, k=rng.randint(20, 120))
        docs.append(doc)
        if rng.random() < 1 / 3:
            docs.append([rng.choice(vocabulary) if rng.random() < 0.05 else word
                         for word in doc if rng.random() >= 0.03])
    arts = _dated_articles([" ".join(doc) for doc in docs])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    before = tfidf.matrix.copy()
    split = corpus._split_rows

    def counting_split(band, bound):
        entries = band.nnz
        part, norms = split(band, bound)
        indexed.append((entries, part.nnz))
        return part, norms

    share, found = {}, {}
    for threshold in (0.02, 0.3, 0.6, 0.85, 0.95):
        indexed = []
        with mock.patch.object(corpus, "_PAIR_BLOCK", 64), \
                mock.patch.object(corpus, "_split_rows", counting_split):
            got = corpus.similar_pairs(tfidf, article_set, threshold=threshold)
        assert _by_ids(got) == _by_ids(full_product_pairs(arts, tfidf, threshold))
        entries, kept = map(sum, zip(*indexed))
        share[threshold], found[threshold] = kept / entries, len(got)
    assert share[0.02] == 1.0  # at a threshold of 0.05 or less nothing is left out
    assert share[0.85] < 0.3 and share[0.95] < 0.2
    assert found[0.85] >= 60  # the planted copies
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(tfidf.matrix, name), getattr(before, name))


def test_similar_pairs_memory_is_bounded_by_the_band():
    # 400 documents over 30 shared words: every pair shares a term, so M·Mᵀ
    # is dense, and building it whole would take nnz × 12 bytes
    rng = random.Random(3)
    words = [f"word{k}" for k in range(30)]
    start = datetime(2018, 1, 1, tzinfo=timezone.utc)
    arts = [
        corpus.Article(f"d{i}", f"s{i % 7}", "", " ".join(rng.choices(words, k=20)), start + timedelta(minutes=i))
        for i in range(400)
    ]
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    full_bytes = (tfidf.matrix @ tfidf.matrix.T).nnz * 12
    assert full_bytes == 400 * 400 * 12
    with mock.patch.object(corpus, "_PAIR_BLOCK", 16):
        tracemalloc.start()
        try:
            corpus.similar_pairs(tfidf, article_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < full_bytes / 4


@pytest.mark.parametrize("one_band", [False, True])
def test_similar_pairs_eligibility_on_hand_built_articles(one_band):
    noon = datetime(2018, 1, 1, 12, tzinfo=timezone.utc)
    plus_two = timezone(timedelta(hours=2))
    wind, storm, river = ("wind farm approved offshore", "council approves harbor budget after storm",
                          "river bridge market election")
    arts = [
        corpus.Article("z", "s1", "", wind, noon),
        # the same instant as "z", written in another offset
        corpus.Article("plus", "s2", "", wind, datetime(2018, 1, 1, 14, tzinfo=plus_two)),
        corpus.Article("late", "s3", "", storm, noon + timedelta(microseconds=1)),
        corpus.Article("early", "s4", "", storm, noon),
        corpus.Article("same-a", "s5", "", river, noon),
        corpus.Article("same-b", "s5", "", river, noon + timedelta(hours=1)),
    ]
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    full = (tfidf.matrix @ tfidf.matrix.T).toarray()
    assert full[0, 1] >= 0.85 and full[2, 3] >= 0.85 and full[4, 5] >= 0.85  # all three score
    with mock.patch.object(corpus, "_PAIR_BLOCK", len(arts) if one_band else 1):
        pairs = corpus.similar_pairs(tfidf, article_set)
    assert pairs == [corpus.CopyPair("early", "late", full[2, 3], "s4", "s3")]


@pytest.mark.parametrize("block", [1, 4])
def test_similar_pairs_without_candidates_is_empty(block):
    arts = _dated_articles(["alpha beta", "gamma delta", "a x", "epsilon zeta"])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    with mock.patch.object(corpus, "_PAIR_BLOCK", block):
        assert corpus.similar_pairs(tfidf, article_set) == []
        assert corpus.similar_pairs(tfidf, article_set, threshold=0.01) == []


def test_similar_pairs_memory_is_bounded_by_the_gathered_entries():
    # three 5,000-token stories, each copied 50 times with one word swapped:
    # every two copies of a story pair, so gathering the rows of every
    # candidate at once would take 12 bytes per entry of both rows
    rng = random.Random(5)
    words = [f"w{k}" for k in range(3000)]
    start = datetime(2018, 1, 1, tzinfo=timezone.utc)
    arts = []
    for story in range(3):
        text = rng.choices(words, k=5000)
        for copy in range(50):
            swapped = list(text)
            swapped[rng.randrange(len(text))] = rng.choice(words)
            arts.append(corpus.Article(f"st{story}-{copy}", f"s{copy}", "", " ".join(swapped),
                                       start + timedelta(minutes=len(arts))))
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    full = (tfidf.matrix @ tfidf.matrix.T).tocoo()
    paired = (full.row < full.col) & (full.data >= 0.85)
    lengths = np.diff(tfidf.matrix.indptr)
    gathered_bytes = int((lengths[full.row[paired]] + lengths[full.col[paired]]).sum()) * 12
    tracemalloc.start()
    try:
        pairs = corpus.similar_pairs(tfidf, article_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 3 * 50 * 49 // 2
    assert peak < gathered_bytes


def test_cosine_is_scale_invariant():
    # tripling a document's tokens must not change its direction
    arts = _articles_from_texts(["wind farm approved", "wind farm approved " * 3])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    pairs = corpus.similar_pairs(tfidf, article_set, threshold=1.0)
    assert [(p.earlier, p.later) for p in pairs] == [("d0", "d1")]
    assert pairs[0].similarity == pytest.approx(1.0, abs=1e-12)


def test_write_pairs_tsv_round_trips_exact_similarity(tmp_path, fixture_pairs):
    # numpy 2's repr of a numpy scalar is "np.float64(0.9)"
    pairs = fixture_pairs + [corpus.CopyPair("x1", "x2", np.float64(0.9), "sx", "sy")]
    path = tmp_path / "pairs.tsv"
    corpus.write_pairs_tsv(pairs, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(pairs)
    assert lines[-1].endswith("\t0.9")
    for line, p in zip(lines, pairs):
        earlier, later, e_src, l_src, sim = line.split("\t")
        assert (earlier, later, e_src, l_src) == (
            p.earlier,
            p.later,
            p.earlier_source,
            p.later_source,
        )
        assert float(sim) == p.similarity


def test_float_sum_adds_left_to_right():
    # Python 3.12's sum() compensates and gives 0.6 here
    assert corpus.float_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    assert corpus.float_sum([]) == 0.0 and type(corpus.float_sum([])) is float
    rng = random.Random(3)
    for _ in range(200):
        values = [rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-8, 8) for _ in range(rng.randint(1, 7))]
        total = 0.0
        for v in values:
            total += v
        assert corpus.float_sum(values) == total
        assert corpus.float_sum(iter(values)) == total


def test_float_sums_is_float_sum_of_each_row():
    # repr tells -0.0 from 0.0: a row of -0.0 sums to 0.0, as from 0.0
    rng = random.Random(4)
    pool = [-0.0, 0.0, 0.1, 0.2, -0.3, 1e308, -1e308, 5e-324, math.inf, math.nan]
    for _ in range(200):
        table = [[rng.choice(pool) for _ in range(rng.randint(1, 6))] for _ in range(3)]
        width = min(map(len, table))
        rows = [row[:width] for row in table]
        with np.errstate(over="ignore", invalid="ignore"):
            sums = corpus.float_sums(np.array(rows))
        assert [repr(x) for x in sums.tolist()] == [repr(corpus.float_sum(row)) for row in rows]
    assert repr(corpus.float_sums(np.array([[-0.0, -0.0]])).tolist()) == "[0.0]"
    assert corpus.float_sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert corpus.float_sums(np.zeros((0, 0))).shape == (0,)
