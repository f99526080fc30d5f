"""Source quality/leaning rules, neighbor imputation, and CSV formats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nudgesim.graph import CsnGraph
from nudgesim.groundtruth import (
    KNOWN_FLAGS,
    LEANING_CATEGORIES,
    SourceLabels,
    SourceScore,
    derive_scores,
    impute_missing,
    leaning_score,
    quality_score,
    read_labels_csv,
    read_scores_csv,
    score_sources,
    write_labels_csv,
    write_scores_csv,
)

# ---------------------------------------------------------------- quality


def _labels(source="s", **kwargs):
    return SourceLabels(source=source, **kwargs)


def test_quality_newsguard_rescaled():
    assert quality_score(_labels(newsguard=0.0)) == 0.0
    assert quality_score(_labels(newsguard=100.0)) == 1.0
    assert quality_score(_labels(newsguard=37.5)) == 0.375


def test_quality_any_flag_dominates_newsguard():
    labelled = _labels(newsguard=95.0, os_flags=frozenset({"fake"}))
    assert quality_score(labelled) == 0.0
    flagged_only = _labels(mbfc_flags=frozenset({"questionable"}))
    assert quality_score(flagged_only) == 0.0


@given(
    os_flags=st.sets(st.sampled_from(sorted(KNOWN_FLAGS))),
    mbfc_flags=st.sets(st.sampled_from(sorted(KNOWN_FLAGS))),
    newsguard=st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0)),
)
def test_quality_rule_table(os_flags, mbfc_flags, newsguard):
    labelled = _labels(
        newsguard=newsguard, os_flags=frozenset(os_flags), mbfc_flags=frozenset(mbfc_flags)
    )
    got = quality_score(labelled)
    if os_flags or mbfc_flags:
        assert got == 0.0
    elif newsguard is not None:
        assert got == newsguard / 100.0
    else:
        assert got is None


def test_labels_validation():
    with pytest.raises(ValueError, match="newsguard"):
        _labels(newsguard=101.0)
    with pytest.raises(ValueError, match="unknown flag"):
        _labels(os_flags=frozenset({"satire"}))
    with pytest.raises(ValueError, match="leaning"):
        _labels(allsides="centrist")


# ---------------------------------------------------------------- leaning


def test_leaning_single_provider():
    assert leaning_score(_labels(allsides="left")) == -1.0
    assert leaning_score(_labels(buzzfeed="right-center")) == 0.5
    assert leaning_score(_labels(mbfc_bias="center")) == 0.0


def test_leaning_averages_available_providers():
    two = _labels(allsides="left", mbfc_bias="center")
    assert leaning_score(two) == pytest.approx(-0.5)
    three = _labels(allsides="left", buzzfeed="left-center", mbfc_bias="right")
    assert leaning_score(three) == pytest.approx((-1.0 - 0.5 + 1.0) / 3)


def test_leaning_none_when_no_provider():
    assert leaning_score(_labels(newsguard=80.0)) is None


@given(
    allsides=st.one_of(st.none(), st.sampled_from(sorted(LEANING_CATEGORIES))),
    buzzfeed=st.one_of(st.none(), st.sampled_from(sorted(LEANING_CATEGORIES))),
    mbfc_bias=st.one_of(st.none(), st.sampled_from(sorted(LEANING_CATEGORIES))),
)
def test_leaning_is_mean_of_present(allsides, buzzfeed, mbfc_bias):
    labelled = _labels(allsides=allsides, buzzfeed=buzzfeed, mbfc_bias=mbfc_bias)
    values = [LEANING_CATEGORIES[v] for v in (allsides, buzzfeed, mbfc_bias) if v is not None]
    got = leaning_score(labelled)
    if not values:
        assert got is None
    else:
        assert got == pytest.approx(float(np.mean(values)))
        assert -1.0 <= got <= 1.0


# ---------------------------------------------------------------- derivation


def test_derive_scores_provenance_split():
    rows = [
        _labels("both", newsguard=80.0, allsides="center"),
        _labels("quality-only", newsguard=80.0),
        _labels("leaning-only", allsides="left"),
        _labels("neither"),
    ]
    scores = derive_scores(rows)
    assert scores["both"] == SourceScore("both", 0.8, 0.0, "labeled")
    assert scores["quality-only"].provenance == "unavailable"
    assert scores["quality-only"].quality == 0.8
    assert scores["quality-only"].leaning is None
    assert scores["leaning-only"].provenance == "unavailable"
    assert scores["neither"].provenance == "unavailable"


def test_derive_scores_duplicate_source_fatal():
    rows = [_labels("dup", newsguard=50.0), _labels("dup", newsguard=60.0)]
    with pytest.raises(ValueError, match="duplicate"):
        derive_scores(rows)


# ---------------------------------------------------------------- imputation


def _chain_graph(edges):
    nodes = sorted({n for e in edges for n in e})
    return CsnGraph(
        raw_counts={e: 1 for e in edges},
        article_counts={n: 2 for n in nodes},
    )


def test_impute_fills_from_labeled_neighbors():
    graph = _chain_graph([("a", "x"), ("x", "b"), ("a", "y"), ("y", "b")])
    scores = {
        "a": SourceScore("a", 0.8, -1.0, "labeled"),
        "b": SourceScore("b", 0.4, 0.0, "labeled"),
        "x": SourceScore("x", None, None, "unavailable"),
        # rated but without a leaning: only the leaning is filled
        "y": SourceScore("y", 0.3, None, "unavailable"),
    }
    out = impute_missing(scores, graph)
    assert out["x"].quality == pytest.approx(0.6)
    assert out["x"].leaning == pytest.approx(-0.5)
    assert out["x"].provenance == "imputed"
    assert out["y"] == SourceScore("y", 0.3, -0.5, "imputed")
    # labeled rows pass through untouched, as the same objects
    assert out["a"] is scores["a"] and out["b"] is scores["b"]


def test_impute_uses_direction_blind_neighborhood():
    # x has only an outgoing edge; the neighbor still donates
    graph = _chain_graph([("x", "a")])
    scores = {
        "a": SourceScore("a", 1.0, 1.0, "labeled"),
        "x": SourceScore("x", None, None, "unavailable"),
    }
    out = impute_missing(scores, graph)
    assert out["x"].provenance == "imputed"
    assert out["x"].quality == 1.0


def test_impute_isolated_source_stays_unavailable():
    graph = CsnGraph(raw_counts={}, article_counts={"a": 1, "x": 1})
    scores = {
        "a": SourceScore("a", 1.0, 0.0, "labeled"),
        "x": SourceScore("x", None, None, "unavailable"),
    }
    out = impute_missing(scores, graph)
    assert out["x"] is scores["x"]  # a score whose gaps stay is kept as it is


def test_impute_does_not_chain_through_imputed_rows():
    # y's only neighbor is x, which is itself imputed: y must stay empty
    graph = _chain_graph([("a", "x"), ("x", "y")])
    scores = {
        "a": SourceScore("a", 0.8, 0.0, "labeled"),
        "x": SourceScore("x", None, None, "unavailable"),
        "y": SourceScore("y", None, None, "unavailable"),
    }
    out = impute_missing(scores, graph)
    assert out["x"].provenance == "imputed"
    assert out["y"].provenance == "unavailable"
    assert out["y"].quality is None


def test_impute_partial_fill_keeps_unavailable():
    # the only donor has quality but no leaning: x gains quality yet remains
    # unusable, so its provenance stays unavailable
    graph = _chain_graph([("a", "x")])
    scores = {
        "a": SourceScore("a", 0.7, None, "unavailable"),
        "x": SourceScore("x", None, None, "unavailable"),
    }
    out = impute_missing(scores, graph)
    assert out["x"].quality == pytest.approx(0.7)
    assert out["x"].leaning is None
    assert out["x"].provenance == "unavailable"


def test_impute_adds_donors_in_sorted_neighbor_order():
    # x's neighbors in name order are donors 0.1, 0.2, 0.3 with a non-donor
    # and an imputed row between them; 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1
    # differ in the last bit, so the exact mean pins the order
    graph = _chain_graph([("a", "x"), ("x", "b"), ("c", "x"), ("x", "d"), ("e", "x")])
    scores = {
        "a": SourceScore("a", 0.1, 0.1, "labeled"),
        "b": SourceScore("b", None, None, "unavailable"),
        "c": SourceScore("c", 0.2, 0.2, "labeled"),
        "d": SourceScore("d", 1.0, 1.0, "imputed"),
        "e": SourceScore("e", 0.3, 0.3, "labeled"),
        "x": SourceScore("x", None, None, "unavailable"),
    }
    assert (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3
    out = impute_missing(scores, graph)
    assert out["x"] == SourceScore("x", 0.20000000000000004, 0.20000000000000004, "imputed")


def test_impute_is_idempotent():
    graph = _chain_graph([("a", "x"), ("x", "b")])
    scores = {
        "a": SourceScore("a", 0.8, -1.0, "labeled"),
        "b": SourceScore("b", 0.4, 0.0, "labeled"),
        "x": SourceScore("x", None, None, "unavailable"),
    }
    once = impute_missing(scores, graph)
    twice = impute_missing(once, graph)
    assert once == twice


def test_score_sources_on_fixture(fixture_csn):
    from nudgesim import synthetic

    labels = read_labels_csv(synthetic.fixture_labels_path())
    scores = score_sources(labels, fixture_csn)
    # northgate-news has no label row; its only neighbor quarry-press donates
    assert scores["northgate-news"].provenance == "imputed"
    assert scores["northgate-news"].quality == pytest.approx(0.38)
    assert scores["northgate-news"].leaning == pytest.approx(1.0)
    # orphan-press is labeled for leaning only and sits outside the graph
    assert scores["orphan-press"].provenance == "unavailable"
    assert scores["meridian-daily"] == SourceScore("meridian-daily", 0.925, 0.0, "labeled")
    assert set(scores) >= set(fixture_csn.nodes)


# ---------------------------------------------------------------- CSV formats


def test_labels_csv_round_trip(tmp_path):
    rows = [
        _labels("alpha", newsguard=87.5, os_flags=frozenset({"fake", "clickbait"}), allsides="left"),
        _labels("beta", mbfc_flags=frozenset({"questionable"}), buzzfeed="right", mbfc_bias="right-center"),
        _labels("gamma"),
        _labels("delta", newsguard=np.float64(80.0)),  # numpy 2's repr is "np.float64(80.0)"
    ]
    path = tmp_path / "labels.csv"
    write_labels_csv(rows, path)
    loaded = read_labels_csv(path)
    assert loaded == sorted(rows, key=lambda r: r.source)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias"
    assert "clickbait;fake" in text  # flags serialize sorted, ; separated


def test_labels_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias\n"
        "ok,50,,,,,\n"
        "bad,forty,,,,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"labels\.csv:3:"):
        read_labels_csv(path)
    path.write_text(
        "source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias\n"
        "dup,50,,,,,\n"
        "dup,60,,,,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="duplicate"):
        read_labels_csv(path)
    path.write_text(
        "source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias\n,50,,,,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"labels\.csv:2: source id must be non-empty"):
        read_labels_csv(path)
    path.write_text("source,newsguard\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_labels_csv(path)


def test_labels_csv_names_a_repeated_source_before_its_rule(tmp_path):
    # a row that repeats a source and breaks a rule is named a duplicate,
    # as in scores.csv
    path = tmp_path / "labels.csv"
    path.write_text(
        "source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias\n"
        "dup,50,,,,,\n"
        "dup,500,,,,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"^[^:]*labels\.csv:3: duplicate source 'dup'$"):
        read_labels_csv(path)


@pytest.mark.parametrize(
    "reader, header",
    [
        (read_labels_csv, "source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias"),
        (read_scores_csv, "source,quality,leaning,provenance"),
    ],
)
def test_csv_field_over_size_limit_names_path_and_line(tmp_path, reader, header):
    # csv.reader raises csv.Error, not ValueError, for a field longer than
    # csv.field_size_limit() (131072 characters by default)
    path = tmp_path / "input.csv"
    path.write_text(f"{header}\n\n{'x' * 140_000},\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"input\.csv:3: field larger than field limit"):
        reader(path)


def test_scores_csv_round_trip(tmp_path):
    scores = {
        "a": SourceScore("a", 0.925, -1 / 3, "labeled"),
        "b": SourceScore("b", None, None, "unavailable"),
        "c": SourceScore("c", 0.38, 1.0, "imputed"),
        "d": SourceScore("d", np.float64(0.8), np.float64(-0.25), "labeled"),
    }
    path = tmp_path / "scores.csv"
    write_scores_csv(scores, path)
    loaded = read_scores_csv(path)
    assert loaded == scores
    assert loaded["a"].leaning == -1 / 3  # exact repr round-trip


def test_scores_csv_rejects_out_of_range(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "source,quality,leaning,provenance\nbad,1.5,0.0,labeled\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"scores\.csv:2:"):
        read_scores_csv(path)
    path.write_text(
        "source,quality,leaning,provenance\nbad,0.5,0.0,guessed\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="provenance"):
        read_scores_csv(path)
    path.write_text(
        "source,quality,leaning,provenance\nbad,0.5,-1.5,labeled\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"scores\.csv:2: leaning -1\.5 outside \[-1, 1\]"):
        read_scores_csv(path)
    path.write_text(
        "source,quality,leaning,provenance\na,0.5,0.0,labeled\na,,,unavailable\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"scores\.csv:3: duplicate source 'a'"):
        read_scores_csv(path)
    # a labeled or imputed score that lacks a field would drop out of the
    # catalog without a word
    for row in ("a,0.9,,labeled", "a,,0.5,imputed", "a,,,labeled"):
        path.write_text(f"source,quality,leaning,provenance\nok,,,unavailable\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"scores\.csv:3: provenance '(labeled|imputed)' needs both"):
            read_scores_csv(path)
