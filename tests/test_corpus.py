"""Corpus ingestion, TF-IDF, and near-duplicate pair detection.

The pair detector is checked against a brute-force oracle: an independent
pure-Python TF-IDF and an O(n^2) cosine loop over all article pairs.
"""

import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgesim import corpus

# ---------------------------------------------------------------- oracles


def oracle_tfidf(articles):
    """Independent TF-IDF: raw tf * (ln((1+N)/(1+df)) + 1), L2-normalized."""
    docs = {
        a.article_id: corpus.tokenize(a.title) + corpus.tokenize(a.body)
        for a in articles
    }
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
        fh.write(json.dumps(_record("a5")) + "\n")
    with caplog.at_level("WARNING", logger="nudgesim.corpus"):
        result = corpus.load_articles(path)
    assert [a.article_id for a in result.articles] == ["a1", "a5"]
    assert result.skipped == 4
    assert sum("skipping malformed line" in r.message for r in caplog.records) == 4


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


_WORDS = ["river", "council", "budget", "storm", "harbor", "election", "bridge", "market"]
# one-letter words are dropped by the tokenizer, so these documents are tokenless
_TOKENLESS = st.lists(st.sampled_from(["a", "x", "7"]), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.one_of(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), _TOKENLESS),
        min_size=2,
        max_size=8,
    ),
    threshold=st.floats(min_value=0.05, max_value=1.0),
)
def test_similar_pairs_matches_oracle_on_random_corpora(docs, threshold):
    arts = _articles_from_texts([" ".join(tokens) for tokens in docs])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    got = {
        (p.earlier, p.later)
        for p in corpus.similar_pairs(tfidf, article_set, threshold=threshold)
    }
    assert got == oracle_pairs(arts, threshold)


def test_cosine_is_scale_invariant():
    # tripling a document's tokens must not change its direction
    arts = _articles_from_texts(["wind farm approved", "wind farm approved " * 3])
    article_set = corpus.ArticleSet(articles=arts, skipped=0)
    tfidf = corpus.tfidf_vectors(article_set)
    pairs = corpus.similar_pairs(tfidf, article_set, threshold=1.0)
    assert [(p.earlier, p.later) for p in pairs] == [("d0", "d1")]
    assert pairs[0].similarity == pytest.approx(1.0, abs=1e-12)


def test_write_pairs_tsv_round_trips_exact_similarity(tmp_path, fixture_pairs):
    path = tmp_path / "pairs.tsv"
    corpus.write_pairs_tsv(fixture_pairs, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(fixture_pairs)
    for line, p in zip(lines, fixture_pairs):
        earlier, later, e_src, l_src, sim = line.split("\t")
        assert (earlier, later, e_src, l_src) == (
            p.earlier,
            p.later,
            p.earlier_source,
            p.later_source,
        )
        assert float(sim) == p.similarity
