"""End-to-end command-line behavior: exit codes, option precedence,
artifact layout, and rerun reproducibility."""

import csv
import json
import logging
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgesim import cli, graph, synthetic
from nudgesim.cli import main
from nudgesim.graph import load_graph
from nudgesim.embedding import load_vectors
from test_readers import _EDITS, _mutate


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    """Bundled synthetic world written once, plus a ready CSN/scores/vectors
    chain produced through the CLI itself (small embedding budget)."""
    root = tmp_path_factory.mktemp("world")
    synthetic.write_world(root)
    assert (
        main(
            [
                "annotate",
                str(root / "labels.csv"),
                str(root / "csn.tsv"),
                "--out",
                str(root / "scores.csv"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "embed",
                str(root / "csn.tsv"),
                "--out",
                str(root / "vectors.tsv"),
                "--seed",
                "1234",
                "--dims",
                "16",
                "--walk-length",
                "20",
                "--walks-per-node",
                "4",
                "--window",
                "4",
                "--epochs",
                "2",
            ]
        )
        == 0
    )
    return root


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- build-csn


def test_build_csn_counts_and_artifacts(tmp_path, capsys, fixture_pairs, fixture_csn):
    out = tmp_path / "run"
    code, stdout, _ = _run(
        capsys,
        ["build-csn", str(synthetic.fixture_articles_path()), "--out-dir", str(out)],
    )
    assert code == 0
    assert stdout.strip() == (
        f"articles=20 skipped=0 pairs={len(fixture_pairs)} "
        f"nodes={len(fixture_csn.nodes)} edges={len(fixture_csn.edges)}"
    )
    loaded = load_graph(out / "csn.tsv")
    assert loaded.edges == fixture_csn.edges
    assert (out / "pairs.tsv").exists()


def test_build_csn_missing_file_exits_1(tmp_path, capsys):
    code, _, stderr = _run(
        capsys, ["build-csn", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert "error: cannot read articles" in stderr


def test_build_csn_threshold_out_of_range_exits_2(tmp_path, capsys):
    code, _, stderr = _run(
        capsys,
        [
            "build-csn",
            str(synthetic.fixture_articles_path()),
            "--threshold",
            "1.01",
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert code == 2
    assert "--threshold" in stderr


def test_build_csn_threshold_sweep(tmp_path, capsys):
    # a permissive threshold keeps at least as many pairs as the default
    loose = tmp_path / "loose"
    code, stdout, _ = _run(
        capsys,
        [
            "build-csn",
            str(synthetic.fixture_articles_path()),
            "--threshold",
            "0.5",
            "--out-dir",
            str(loose),
        ],
    )
    assert code == 0
    pairs_loose = int(stdout.split("pairs=")[1].split()[0])
    assert pairs_loose >= 8


def test_build_csn_repost_is_one_copier_article(tmp_path, capsys):
    # outlet a posts one story twice, outlet b copies it once
    story = {"title": "Budget", "content": "council approves harbour budget after debate " * 5}
    articles = tmp_path / "articles.jsonl"
    with open(articles, "w", encoding="utf-8") as fh:
        for article_id, source, hour in (("a-1", "a", 8), ("a-2", "a", 9), ("b-1", "b", 10)):
            published_at = f"2018-05-01T{hour:02d}:00:00Z"
            fh.write(json.dumps(dict(story, id=article_id, source=source, published_at=published_at)) + "\n")
    code, stdout, stderr = _run(capsys, ["build-csn", str(articles), "--out-dir", str(tmp_path)])
    assert code == 0, stderr
    assert stdout.strip() == "articles=3 skipped=0 pairs=2 nodes=2 edges=1"
    csn = load_graph(tmp_path / "csn.tsv")
    assert csn.raw_counts == {("a", "b"): 1} and csn.edges == {("a", "b"): 1.0}


@pytest.mark.parametrize(
    "key, value",
    [
        ("source", "#node"),
        ("source", "#c"),
        ("source", "c\td"),
        ("source", "c\nd"),
        ("source", "c\rd"),
        ("source", ""),
        ("source", "c\ud800"),  # written as the JSON escape \ud800
        ("id", ""),
        ("id", "c-1\tx"),
        ("id", "c-1\nx"),
        ("id", "c-1\ud800"),
        # a field that is not a JSON string or number, which str() would
        # turn into the text "None", "True", "['c']", ...
        ("id", None),
        ("id", True),
        ("source", None),
        ("source", False),
        ("source", ["c"]),
        ("title", None),
        ("content", None),
        ("content", {"text": "council approves harbour budget"}),
    ],
)
def test_build_csn_skips_ids_that_break_tsv(tmp_path, capsys, caplog, key, value):
    # a copies a story to b; a third copy, line 4, has an id or source that
    # could not be written to pairs.tsv or csn.tsv and read back, or a field
    # that is not a JSON string or number
    story = {"title": "Budget", "content": "council approves harbour budget after debate " * 5}
    articles = tmp_path / "articles.jsonl"
    with open(articles, "w", encoding="utf-8") as fh:
        for hour, row in enumerate(({"id": "a-1", "source": "a"}, {"id": "a-2", "source": "a"},
                                    {"id": "b-1", "source": "b"}, {"id": "c-1", "source": "c", key: value})):
            fh.write(json.dumps(dict(story, **row, published_at=f"2018-05-01T{hour:02d}:00:00Z")) + "\n")
    with caplog.at_level(logging.WARNING, logger="nudgesim.corpus"):
        code, stdout, stderr = _run(capsys, ["build-csn", str(articles), "--out-dir", str(tmp_path)])
    assert code == 0, stderr
    assert stdout.strip() == "articles=3 skipped=1 pairs=2 nodes=2 edges=1"
    assert any(f"{articles}:4: skipping malformed line" in r.getMessage() for r in caplog.records)
    assert load_graph(tmp_path / "csn.tsv").nodes == ["a", "b"]


@pytest.mark.parametrize("text, skipped", [("", 0), ('not json\n{"id": "a-1"}\n\n[]\n', 3)])
def test_build_csn_without_articles_exits_1_naming_the_file(tmp_path, capsys, text, skipped):
    articles = tmp_path / "articles.jsonl"
    articles.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = _run(capsys, ["build-csn", str(articles), "--out-dir", str(out)])
    assert code == 1
    assert stdout == ""
    assert stderr.endswith(f"error: {articles}: no articles ({skipped} malformed lines skipped)\n")
    assert not out.exists()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_build_csn_skips_line_that_is_not_utf8(tmp_path, capsys, caplog, newline):
    # a copies a story to b; line 3, a copy by c, holds the byte 0xff
    story = {"title": "Budget", "content": "council approves harbour budget after debate " * 5}
    rows = (("a-1", "a"), ("a-2", "a"), ("c-1", "c"), ("b-1", "b"))
    lines = [
        json.dumps(dict(story, id=article_id, source=source, published_at=f"2018-05-01T{hour:02d}:00:00Z")).encode()
        for hour, (article_id, source) in enumerate(rows)
    ]
    lines[2] = lines[2].replace(b"debate", b"deb\xffate", 1)
    articles = tmp_path / "articles.jsonl"
    articles.write_bytes(newline.join(lines) + newline)
    with caplog.at_level(logging.WARNING, logger="nudgesim.corpus"):
        code, stdout, stderr = _run(capsys, ["build-csn", str(articles), "--out-dir", str(tmp_path)])
    assert code == 0, stderr
    assert stdout.strip() == "articles=3 skipped=1 pairs=2 nodes=2 edges=1"
    assert any(f"{articles}:3: skipping malformed line (byte 0xff" in r.getMessage() for r in caplog.records)
    assert load_graph(tmp_path / "csn.tsv").nodes == ["a", "b"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_build_csn_on_mutated_corpus_exits_0_or_1(capsys, edits):
    with tempfile.TemporaryDirectory() as tmp:
        articles = Path(tmp) / "articles.jsonl"
        articles.write_bytes(_mutate(synthetic.fixture_articles_path().read_bytes(), edits))
        out = Path(tmp) / "csn"
        code, stdout, stderr = _run(capsys, ["build-csn", str(articles), "--out-dir", str(out)])
        assert code in (0, 1), stderr
        assert "Traceback" not in stderr
        if code == 1:
            assert not out.exists()
        else:
            counts = dict(field.split("=") for field in stdout.split())
            pairs = (out / "pairs.tsv").read_text(encoding="utf-8")
            assert int(counts["pairs"]) == pairs.count("\n")
            assert (out / "csn.tsv").exists()


# ---------------------------------------------------------------- annotate


def test_annotate_counts(tmp_path, capsys, world_dir):
    code, stdout, _ = _run(
        capsys,
        [
            "annotate",
            str(world_dir / "labels.csv"),
            str(world_dir / "csn.tsv"),
            "--out",
            str(tmp_path / "scores.csv"),
        ],
    )
    assert code == 0
    assert stdout.strip() == "sources=56 labeled=55 imputed=1 unavailable=0"


def test_annotate_missing_labels_exits_1(tmp_path, capsys, world_dir):
    code, _, stderr = _run(
        capsys, ["annotate", str(tmp_path / "ghost.csv"), str(world_dir / "csn.tsv")]
    )
    assert code == 1
    assert "error:" in stderr


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["labels.csv", "csn.tsv"]), edits=_EDITS)
def test_annotate_on_mutated_input_exits_0_or_1(capsys, world_dir, name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {n: world_dir / n for n in ("labels.csv", "csn.tsv")}
        inputs[name] = Path(tmp) / name
        inputs[name].write_bytes(_mutate((world_dir / name).read_bytes(), edits))
        out = Path(tmp) / "scores.csv"
        code, stdout, stderr = _run(capsys, ["annotate", *map(str, inputs.values()), "--out", str(out)])
        assert code in (0, 1), stderr
        assert "Traceback" not in stderr
        if code == 1:
            assert not out.exists()
        else:
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            counts = dict(field.split("=") for field in stdout.split())
            assert int(counts["sources"]) == len(rows)
            for provenance in ("labeled", "imputed", "unavailable"):
                assert int(counts[provenance]) == sum(r["provenance"] == provenance for r in rows)


# ---------------------------------------------------------------- embed


def test_embed_dims_flag_changes_vector_width(tmp_path, capsys, world_dir):
    out = tmp_path / "v32.tsv"
    code, stdout, _ = _run(
        capsys,
        [
            "embed",
            str(world_dir / "csn.tsv"),
            "--out",
            str(out),
            "--dims",
            "32",
            "--walk-length",
            "10",
            "--walks-per-node",
            "2",
            "--epochs",
            "1",
        ],
    )
    assert code == 0
    assert stdout.strip() == "nodes=56 dims=32"
    vectors = load_vectors(out)
    assert vectors.dims == 32
    assert all(v.shape == (32,) for v in vectors.vectors.values())


def test_embed_logs_community_homophily(tmp_path, world_dir, monkeypatch, capsys, caplog):
    import logging

    monkeypatch.setenv("NUDGESIM_LOG", "INFO")
    with caplog.at_level(logging.INFO, logger="nudgesim"):
        code = main(
            [
                "embed",
                str(world_dir / "csn.tsv"),
                "--out",
                str(tmp_path / "v.tsv"),
                "--dims",
                "8",
                "--walk-length",
                "10",
                "--walks-per-node",
                "2",
                "--epochs",
                "1",
            ]
        )
    capsys.readouterr()
    assert code == 0
    messages = " ".join(r.getMessage() for r in caplog.records)
    assert "communities" in messages
    assert "intra" in messages and "inter" in messages


_SMALL_EMBED = ["--dims", "4", "--walk-length", "5", "--walks-per-node", "1", "--epochs", "1"]


def test_embed_skips_homophily_check_below_info(tmp_path, world_dir, monkeypatch, capsys, caplog):
    def fail(_csn):
        raise AssertionError("detect_communities ran with INFO logging off")

    monkeypatch.setattr(graph, "detect_communities", fail)
    with caplog.at_level(logging.WARNING, logger="nudgesim"):
        code, stdout, _ = _run(
            capsys,
            ["embed", str(world_dir / "csn.tsv"), "--out", str(tmp_path / "v.tsv")] + _SMALL_EMBED,
        )
    assert code == 0
    assert stdout.strip() == "nodes=56 dims=4"


def test_embed_config_directed_takes_json_booleans_only(tmp_path, capsys, world_dir):
    config = tmp_path / "config.json"
    out = tmp_path / "v.tsv"
    argv = ["--config", str(config), "embed", str(world_dir / "csn.tsv"), "--out", str(out)]
    for value, written in ((False, "directed=0"), (True, "directed=1")):
        config.write_text(json.dumps({"directed": value}), encoding="utf-8")
        code, _, _ = _run(capsys, argv + _SMALL_EMBED)
        assert code == 0
        assert written in out.read_text(encoding="utf-8").splitlines()[0].split("\t")
    for value in ("false", 0):
        config.write_text(json.dumps({"directed": value}), encoding="utf-8")
        code, _, stderr = _run(capsys, argv + _SMALL_EMBED)
        assert code == 2, value
        assert "--directed" in stderr


@pytest.mark.parametrize("kind", ["node", "edge"])
def test_embed_duplicate_graph_line_exits_1(tmp_path, capsys, world_dir, kind):
    lines = (world_dir / "csn.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    copied = 1 if kind == "node" else len(lines) - 1
    assert lines[copied].startswith("#node") == (kind == "node")
    lines.insert(copied + 1, lines[copied])
    bad = tmp_path / "csn.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    code, _, stderr = _run(capsys, ["embed", str(bad), "--out", str(tmp_path / "v.tsv")] + _SMALL_EMBED)
    assert code == 1
    assert f"error: {bad}:{copied + 2}: malformed line (duplicate {kind} " in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "v.tsv").exists()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_embed_on_mutated_graph_exits_0_or_1(capsys, world_dir, edits):
    with tempfile.TemporaryDirectory() as tmp:
        csn = Path(tmp) / "csn.tsv"
        csn.write_bytes(_mutate((world_dir / "csn.tsv").read_bytes(), edits))
        out = Path(tmp) / "vectors.tsv"
        code, stdout, stderr = _run(capsys, ["embed", str(csn), "--out", str(out)] + _SMALL_EMBED)
        assert code in (0, 1), stderr
        assert "Traceback" not in stderr
        if code == 1:
            assert not out.exists()
        else:
            vectors = load_vectors(out)
            assert stdout.strip() == f"nodes={len(vectors.vectors)} dims={vectors.dims}"
            assert sorted(vectors.vectors) == load_graph(csn).nodes


_LOAD_DEFECTS = {
    # case: (csn.tsv body after the header, line number of the error)
    "article-count-zero": ("#node\ta\t0\n#node\tb\t3\na\tb\t1\t0.3333333333333333\n", 2),
    "article-count-negative": ("#node\ta\t-2\n#node\tb\t3\na\tb\t1\t0.3333333333333333\n", 2),
    "raw-count-zero": ("#node\ta\t3\n#node\tb\t3\na\tb\t0\t0.0\n", 4),
    "raw-count-negative": ("#node\ta\t3\n#node\tb\t3\na\tb\t-1\t-0.3333333333333333\n", 4),
    "raw-7-over-3-stored-as-half": ("#node\ta\t3\n#node\tb\t3\na\tb\t7\t0.5\n", 4),
    "weight-not-raw-over-count": ("#node\ta\t3\n#node\tb\t3\na\tb\t1\t0.5\n", 4),
    "raw-count-above-article-count": (
        "#node\ta\t3\n#node\tb\t3\na\tb\t4\t1.3333333333333333\n", 4
    ),
    "endpoint-without-node-line": ("#node\ta\t3\n#node\tb\t3\na\tc\t1\t0.3333333333333333\n", 4),
    "self-loop": ("#node\ta\t3\n#node\tb\t3\na\ta\t1\t0.3333333333333333\n", 4),
    "empty-node-name": ("#node\t\t3\n#node\tb\t3\n", 2),
    "edge-before-node-lines": ("a\tb\t1\t0.3333333333333333\n#node\ta\t3\n#node\tb\t3\n", 2),
    "node-line-after-edges": ("#node\ta\t3\n#node\tb\t3\na\tb\t1\t0.3333333333333333\n#node\tc\t3\n", 5),
}


@pytest.mark.parametrize("command", ["annotate", "embed"])
@pytest.mark.parametrize("case", sorted(_LOAD_DEFECTS))
def test_bad_graph_file_exits_1_with_line(tmp_path, capsys, world_dir, command, case):
    body, lineno = _LOAD_DEFECTS[case]
    bad = tmp_path / "csn.tsv"
    bad.write_text(graph.CSN_HEADER + "\n" + body, encoding="utf-8")
    out = tmp_path / "out.tsv"
    if command == "annotate":
        argv = ["annotate", str(world_dir / "labels.csv"), str(bad), "--out", str(out)]
    else:
        argv = ["embed", str(bad), "--out", str(out)] + _SMALL_EMBED
    code, _, stderr = _run(capsys, argv)
    assert code == 1
    assert f"error: {bad}:{lineno}: malformed line (" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


# ---------------------------------------------------------------- simulate


def test_simulate_constrained_run(tmp_path, capsys, world_dir):
    out = tmp_path / "sim"
    code, stdout, _ = _run(
        capsys,
        [
            "simulate",
            str(world_dir / "personas.json"),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--T",
            "60",
            "--seed",
            "7",
            "--out-dir",
            str(out),
        ],
    )
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.startswith("user=")]
    assert len(lines) == 4
    assert all("mode=constrained" in l for l in lines)
    assert (out / "summary.json").exists()
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert {e["user_id"] for e in payload} == {
        "conspiracy-right",
        "hyper-partisan-left",
        "hyper-partisan-right",
        "low-quality-center",
    }
    assert _simulate_files(out) == _expected_files(payload, "constrained")
    for entry in payload:
        csv_path = out / f"trajectory_{entry['user_id']}_constrained.csv"
        assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 61
    assert _polyline_lengths(out / "quality.svg") == [60]


def test_simulate_T_zero_exits_2(tmp_path, capsys, world_dir):
    code, _, stderr = _run(
        capsys,
        [
            "simulate",
            str(world_dir / "personas.json"),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--T",
            "0",
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert code == 2
    assert "--T" in stderr


def test_simulate_unknown_persona_source_exits_1(tmp_path, capsys, world_dir):
    # the last persona is the bad one, so no earlier persona's run may be written
    personas = json.loads((world_dir / "personas.json").read_text(encoding="utf-8"))
    personas.append({"user_id": "late", "sources": ["no-such-outlet"], "L": 3})
    bad = tmp_path / "personas.json"
    bad.write_text(json.dumps(personas), encoding="utf-8")
    out = tmp_path / "sim"
    code, stdout, stderr = _run(
        capsys,
        [
            "simulate",
            str(bad),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--out-dir",
            str(out),
        ],
    )
    assert code == 1
    assert f"{bad}: persona #{len(personas) - 1} (late): unknown source 'no-such-outlet'" in stderr
    assert "user=" not in stdout
    assert not out.exists()


def test_simulate_non_finite_vector_exits_1(tmp_path, capsys, world_dir):
    lines = (world_dir / "vectors.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    name, _, rest = lines[1].split("\t", 2)
    lines[1] = f"{name}\tnan\t{rest}"
    bad = tmp_path / "vectors.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    inputs = [str(world_dir / "personas.json"), str(world_dir / "scores.csv"), str(bad)]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"{bad}:2: non-finite" in stderr


def test_simulate_both_mode_writes_comparison(tmp_path, capsys, world_dir):
    # a comma and a quote in an id must survive the comparison CSV
    personas = json.loads((world_dir / "personas.json").read_text(encoding="utf-8"))
    personas.append({**personas[0], "user_id": 'odd, "quoted"'})
    personas_path = tmp_path / "personas.json"
    personas_path.write_text(json.dumps(personas), encoding="utf-8")
    out = tmp_path / "both"
    code, stdout, _ = _run(
        capsys,
        [
            "simulate",
            str(personas_path),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--mode",
            "both",
            "--T",
            "40",
            "--seed",
            "3",
            "--out-dir",
            str(out),
        ],
    )
    assert code == 0
    assert "mode=constrained" in stdout and "mode=unconstrained" in stdout
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert _simulate_files(out) == _expected_files(payload, "both")
    with open(out / "comparison.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["user_id", "t", "constrained_trust_cost", "unconstrained_trust_cost"]
    expected = []
    for persona in personas:
        user = persona["user_id"]
        costs = {}
        for mode in ("constrained", "unconstrained"):
            path = out / f"trajectory_{cli._safe(user)}_{mode}.csv"
            with open(path, encoding="utf-8", newline="") as fh:
                costs[mode] = [row["trust_cost"] for row in csv.DictReader(fh)]
        assert len(costs["constrained"]) == 40
        expected += [
            [user, str(t), con, unc]
            for t, (con, unc) in enumerate(zip(costs["constrained"], costs["unconstrained"]))
        ]
    assert rows[1:] == expected
    first = next(row for row in rows if row[0] == "conspiracy-right")
    assert float(first[2]) <= float(first[3])  # soft nudge is never pushier
    assert _polyline_lengths(out / "quality.svg") == [40, 40]


def _simulate_files(out) -> set[str]:
    return {p.name for p in out.iterdir()}


def _expected_files(summary: list[dict], mode: str) -> set[str]:
    """What simulate writes: one trajectory CSV per run in ``summary``, the
    summary and the quality chart, and the comparison under ``both``."""
    runs = {f"trajectory_{cli._safe(e['user_id'])}_{e['config']['mode']}.csv" for e in summary}
    extra = {"comparison.csv"} if mode == "both" else set()
    return runs | {"summary.json", "quality.svg"} | extra


def _polyline_lengths(svg) -> list[int]:
    """The number of points of each polyline in an SVG chart."""
    text = svg.read_text(encoding="utf-8")
    return [len(points.split()) for points in re.findall(r'<polyline [^>]*points="([^"]*)"', text)]


# ---------------------------------------------------------------- options


def test_config_file_supplies_defaults_and_cli_overrides(tmp_path, capsys, world_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"T": 25, "seed": 11}), encoding="utf-8")
    out_a = tmp_path / "a"
    code, stdout_a, _ = _run(
        capsys,
        [
            "--config",
            str(config),
            "simulate",
            str(world_dir / "personas.json"),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--out-dir",
            str(out_a),
        ],
    )
    assert code == 0
    payload = json.loads((out_a / "summary.json").read_text(encoding="utf-8"))
    assert payload[0]["config"]["T"] == 25
    assert payload[0]["config"]["seed"] == 11
    # explicit flag beats the config file
    out_b = tmp_path / "b"
    code, stdout_b, _ = _run(
        capsys,
        [
            "--config",
            str(config),
            "simulate",
            str(world_dir / "personas.json"),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--T",
            "30",
            "--out-dir",
            str(out_b),
        ],
    )
    assert code == 0
    payload = json.loads((out_b / "summary.json").read_text(encoding="utf-8"))
    assert payload[0]["config"]["T"] == 30
    assert payload[0]["config"]["seed"] == 11


def test_config_file_invalid_value_exits_2(tmp_path, capsys, world_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 2.0}), encoding="utf-8")
    code, _, stderr = _run(
        capsys,
        [
            "--config",
            str(config),
            "simulate",
            str(world_dir / "personas.json"),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert code == 2
    assert "--alpha" in stderr


@pytest.mark.parametrize("key, command", [("T", "simulate"), ("seed", "embed")])
def test_config_file_null_value_exits_2(tmp_path, capsys, world_dir, key, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: None}), encoding="utf-8")
    inputs = {
        "simulate": [
            str(world_dir / "personas.json"),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
        ],
        "embed": [str(world_dir / "csn.tsv")] + _SMALL_EMBED,
    }[command]
    code, _, stderr = _run(
        capsys, ["--config", str(config), command, *inputs, "--out-dir", str(tmp_path)]
    )
    assert code == 2
    assert f"--{key}: expected a value, got null" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "entry, message",
    [
        ('{"user_id": "x", "sources": ["valley-voice"], "L": 1e400}', "L must be an integer"),
        ('{"user_id": ["x"], "sources": ["valley-voice"], "L": 2}', "user_id must be"),
        ('{"user_id": "x", "sources": "abc", "L": 2}', "sources must be a list of strings"),
        ('{"user_id": "x", "sources": ["valley-voice"], "L": 2.7}', "L must be an integer"),
        ('"abc"', "expected a JSON object"),
        # a lone surrogate cannot seed the user's stream
        ('{"user_id": "u\\ud800", "sources": ["valley-voice"], "L": 2}',
         "user_id 'u\\ud800' is not encodable as UTF-8"),
        ("", None),
    ],
    ids=["L-overflow", "user_id-list", "sources-string", "L-fraction", "not-an-object",
         "user_id-lone-surrogate", "no-personas"],
)
def test_simulate_bad_persona_field_exits_1(tmp_path, capsys, world_dir, entry, message):
    bad = tmp_path / "personas.json"
    bad.write_text(f"[{entry}]", encoding="utf-8")
    inputs = [str(bad), str(world_dir / "scores.csv"), str(world_dir / "vectors.tsv")]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path / "sim")])
    assert code == 1
    assert (f"{bad}: persona #0: {message}" if entry else f"{bad}: no personas") in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "sim").exists()


def test_simulate_colliding_file_names_exit_1_before_writing(tmp_path, capsys, world_dir):
    # "x/y" and "x_y" both map to trajectory_x_y_<mode>.csv
    personas = tmp_path / "personas.json"
    personas.write_text(json.dumps([{"user_id": u, "sources": ["valley-voice"], "L": 2}
                                    for u in ("x/y", "x_y")]), encoding="utf-8")
    inputs = [str(personas), str(world_dir / "scores.csv"), str(world_dir / "vectors.tsv")]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path / "sim")])
    assert code == 1
    assert f"{personas}: personas 'x/y' and 'x_y' would write the same output files" in stderr
    assert not (tmp_path / "sim").exists()


_SIM_INPUTS = ("personas.json", "scores.csv", "vectors.tsv")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_SIM_INPUTS), edits=_EDITS, mode=st.sampled_from(["constrained", "both"]))
def test_simulate_on_mutated_input_exits_0_or_1(capsys, world_dir, name, edits, mode):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [str(world_dir / n) for n in _SIM_INPUTS]
        inputs[_SIM_INPUTS.index(name)] = str(Path(tmp) / name)
        (Path(tmp) / name).write_bytes(_mutate((world_dir / name).read_bytes(), edits))
        out = Path(tmp) / "sim"
        argv = ["simulate", *inputs, "--mode", mode, "--T", "5", "--out-dir", str(out)]
        code, stdout, stderr = _run(capsys, argv)
        assert code in (0, 1), stderr
        assert "Traceback" not in stderr
        if code == 1:  # every input is checked before any output is written
            assert not out.exists() or not any(out.iterdir())
        else:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            assert len(summary) == stdout.count("user=")
            files = _simulate_files(out)
            assert files == _expected_files(summary, mode)
            assert len(files) == len(summary) + (3 if mode == "both" else 2)


@pytest.mark.parametrize("where", ["flag", "global-flag", "config"])
def test_embed_negative_seed_exits_2(tmp_path, capsys, world_dir, where):
    embed = ["embed", *_inputs(world_dir, "embed"), "--out-dir", str(tmp_path / "out")]
    argv = {
        "flag": embed + ["--seed", "-1"],
        "global-flag": ["--seed", "-1"] + embed,
        "config": ["--config", str(tmp_path / "config.json")] + embed,
    }[where]
    (tmp_path / "config.json").write_text(json.dumps({"seed": -1}), encoding="utf-8")
    code, _, stderr = _run(capsys, argv)
    assert code == 2
    assert "--seed: must be >= 0 for embed, got -1" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_simulate_masks_negative_seed(tmp_path, capsys, world_dir):
    inputs = _inputs(world_dir, "simulate")
    code, _, stderr = _run(
        capsys, ["simulate", *inputs, "--T", "3", "--seed", "-1", "--out-dir", str(tmp_path)]
    )
    assert code == 0, stderr
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary[0]["config"]["seed"] == -1


def test_simulate_bad_vectors_dims_exits_1(tmp_path, capsys, world_dir):
    lines = (world_dir / "vectors.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = lines[0].replace("dims=16", "dims=x")
    bad = tmp_path / "vectors.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    inputs = [str(world_dir / "personas.json"), str(world_dir / "scores.csv"), str(bad)]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"{bad}:1: dims must be a positive integer, got 'x'" in stderr
    assert "Traceback" not in stderr


def test_simulate_empty_vector_source_exits_1(tmp_path, capsys, world_dir):
    lines = (world_dir / "vectors.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines.append("\t" + lines[1].split("\t", 1)[1])  # a copied row with no source id
    bad = tmp_path / "vectors.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    inputs = [str(world_dir / "personas.json"), str(world_dir / "scores.csv"), str(bad)]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"{bad}:{len(lines)}: empty source id" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "build-csn"])
def test_deeply_nested_json_exits_1(tmp_path, capsys, world_dir, command):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
    inputs = _inputs(world_dir, command)
    inputs[0] = str(bad)
    code, _, stderr = _run(capsys, [command, *inputs, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    where = f"{bad}:1:" if command == "build-csn" else f"{bad}:"
    assert f"error: {where} JSON nested too deeply" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "command, names",
    [
        ("annotate", ["labels.csv", "csn.tsv"]),
        ("embed", ["csn.tsv"]),
        ("simulate", ["personas.json", "scores.csv", "vectors.tsv"]),
    ],
)
def test_input_byte_not_utf8_exits_1_with_path_and_line(tmp_path, capsys, world_dir, command, names):
    extra = {"annotate": [], "embed": _SMALL_EMBED, "simulate": ["--T", "2"]}[command]
    for bad_name in names:
        inputs = [str(world_dir / name) for name in names]
        bad = tmp_path / bad_name
        lines = (world_dir / bad_name).read_bytes().splitlines(keepends=True)
        bad.write_bytes(lines[0] + b"\xff" + b"".join(lines[1:]))
        inputs[names.index(bad_name)] = str(bad)
        code, _, stderr = _run(capsys, [command, *inputs, *extra, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {bad}:2: byte 0xff at offset {len(lines[0])} is not UTF-8" in stderr
        assert "Traceback" not in stderr


def test_config_byte_not_utf8_exits_1_naming_the_file(tmp_path, capsys, world_dir):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 1\xff}')
    code, _, stderr = _run(capsys, ["--config", str(config), "embed", *_inputs(world_dir, "embed")])
    assert code == 1
    assert stderr.startswith(f"error: config file {config}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in stderr


def _inputs(world_dir, command):
    return {
        "build-csn": [str(synthetic.fixture_articles_path())],
        "embed": [str(world_dir / "csn.tsv")] + _SMALL_EMBED,
        "simulate": [str(world_dir / n) for n in ("personas.json", "scores.csv", "vectors.tsv")],
    }[command]


def test_config_file_unknown_key_exits_2(tmp_path, capsys, world_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshhold": 0.5}), encoding="utf-8")
    argv = ["--config", str(config), "build-csn", *_inputs(world_dir, "build-csn")]
    code, _, stderr = _run(capsys, argv + ["--out-dir", str(tmp_path)])
    assert code == 2
    assert "--config: unknown key 'threshhold'" in stderr
    assert not (tmp_path / "csn.tsv").exists()


@pytest.mark.parametrize(
    "config, command, flags, flag",
    [
        ({"T": 2.7}, "simulate", [], "--T"),
        ({"T": True}, "simulate", [], "--T"),
        ({"seed": 1.9}, "embed", [], "--seed"),
        ({"threshold": True}, "build-csn", [], "--threshold"),
        ({"alpha": float("nan")}, "simulate", [], "--alpha"),
        (None, "embed", ["--learning-rate", "inf"], "--learning-rate"),
    ],
    ids=["T-fraction", "T-bool", "seed-fraction", "threshold-bool", "alpha-nan", "learning-rate-inf"],
)
def test_wrong_type_or_non_finite_option_exits_2(
    tmp_path, capsys, world_dir, config, command, flags, flag
):
    # a config value is parsed as its str(), like flag text: "2.7", "True" and
    # "1.9" are no integers, "True" is no number, and nan and inf are rejected
    argv = [command, *_inputs(world_dir, command), *flags, "--out-dir", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(path)] + argv
    code, _, stderr = _run(capsys, argv)
    assert code == 2
    assert flag in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_global_seed_and_out_dir_beat_config(tmp_path, capsys, world_dir):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 11, "out_dir": str(tmp_path / "from-config")}), encoding="utf-8"
    )
    embed = ["embed", *_inputs(world_dir, "embed")]
    code, _, stderr = _run(
        capsys, ["--config", str(config), "--seed", "5", "--out-dir", str(tmp_path / "from-flag")] + embed
    )
    assert code == 0, stderr
    header = (tmp_path / "from-flag" / "vectors.tsv").read_text(encoding="utf-8").splitlines()[0]
    assert "seed=5" in header.split("\t")
    assert not (tmp_path / "from-config").exists()
    # without the flags, the config values apply
    code, _, stderr = _run(capsys, ["--config", str(config)] + embed)
    assert code == 0, stderr
    header = (tmp_path / "from-config" / "vectors.tsv").read_text(encoding="utf-8").splitlines()[0]
    assert "seed=11" in header.split("\t")


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["0.5", "3", "both", "."]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    config=st.dictionaries(
        st.sampled_from(sorted(cli._OPTIONS)) | st.text(max_size=12), _JSON_VALUES, max_size=4
    )
)
def test_any_config_exits_0_or_2_without_traceback(tmp_path, capsys, world_dir, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, stderr = _run(
        capsys,
        [
            "--config",
            str(path),
            "annotate",
            str(world_dir / "labels.csv"),
            str(world_dir / "csn.tsv"),
            "--out",
            str(tmp_path / "scores.csv"),
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert code in (0, 2), stderr
    assert "Traceback" not in stderr


def test_unknown_subcommand_exits_2(capsys):
    code, _, stderr = _run(capsys, ["frobnicate"])
    assert code == 2


# ------------------------------------------------------------ reproducibility


def test_full_pipeline_rerun_is_byte_identical(tmp_path, capsys):
    def run_all(out):
        world = out / "world"
        world.mkdir(parents=True)
        synthetic.write_world(world)
        assert main(["build-csn", str(synthetic.fixture_articles_path()), "--out-dir", str(out)]) == 0
        assert (
            main(
                [
                    "annotate",
                    str(world / "labels.csv"),
                    str(world / "csn.tsv"),
                    "--out",
                    str(out / "scores.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "embed",
                    str(world / "csn.tsv"),
                    "--out",
                    str(out / "vectors.tsv"),
                    "--seed",
                    "5",
                    "--dims",
                    "8",
                    "--walk-length",
                    "12",
                    "--walks-per-node",
                    "2",
                    "--epochs",
                    "1",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "simulate",
                    str(world / "personas.json"),
                    str(out / "scores.csv"),
                    str(out / "vectors.tsv"),
                    "--T",
                    "30",
                    "--seed",
                    "5",
                    "--out-dir",
                    str(out / "sim"),
                ]
            )
            == 0
        )

    first, second = tmp_path / "first", tmp_path / "second"
    run_all(first)
    run_all(second)
    capsys.readouterr()
    rel_paths = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert rel_paths
    for rel in rel_paths:
        assert (second / rel).read_bytes() == (first / rel).read_bytes(), rel
