"""End-to-end command-line behavior: exit codes, option precedence,
artifact layout, and rerun reproducibility."""

import csv
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgesim import cli, graph, groundtruth, nudge, synthetic
from nudgesim.cli import main
from nudgesim.graph import load_graph
from nudgesim.embedding import load_vectors
from golden import repost_inputs, repost_outputs
from test_readers import BOM, _EDITS, _mutate


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
    missing = tmp_path / "nope.jsonl"
    code, _, stderr = _run(capsys, ["build-csn", str(missing), "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"error: [Errno 2] No such file or directory: '{missing}'" in stderr


def test_build_csn_threshold_out_of_range_exits_2(tmp_path, capsys):
    # a similarity within rounding of 1 may fall on either side, so 1 is out too
    for threshold in ("1", "1.01"):
        code, _, stderr = _run(
            capsys,
            [
                "build-csn",
                str(synthetic.fixture_articles_path()),
                "--threshold",
                threshold,
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
        # in UTC these fall past the ends of datetime's range
        ("published_at", "9999-12-31T23:59:59-01:00"),
        ("published_at", "0001-01-01T00:00:00+01:00"),
    ],
)
def test_build_csn_skips_ids_that_break_tsv(tmp_path, capsys, caplog, key, value):
    # a copies a story to b; a third copy, line 4, has an id or source that
    # could not be written to pairs.tsv or csn.tsv and read back, a field
    # that is not a JSON string or number, or a timestamp out of range
    story = {"title": "Budget", "content": "council approves harbour budget after debate " * 5}
    articles = tmp_path / "articles.jsonl"
    with open(articles, "w", encoding="utf-8") as fh:
        for hour, row in enumerate(({"id": "a-1", "source": "a"}, {"id": "a-2", "source": "a"},
                                    {"id": "b-1", "source": "b"}, {"id": "c-1", "source": "c", key: value})):
            fh.write(json.dumps({**story, "published_at": f"2018-05-01T{hour:02d}:00:00Z", **row}) + "\n")
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


def test_build_csn_skips_a_leading_byte_order_mark(tmp_path, capsys):
    articles = tmp_path / "articles.jsonl"
    articles.write_bytes(BOM + synthetic.fixture_articles_path().read_bytes())
    code, stdout, stderr = _run(capsys, ["build-csn", str(articles), "--out-dir", str(tmp_path)])
    assert code == 0, stderr
    assert stdout.strip() == "articles=20 skipped=0 pairs=8 nodes=6 edges=7"


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


def test_embed_skips_homophily_line_for_one_community(tmp_path, monkeypatch, capsys, caplog):
    csn = tmp_path / "csn.tsv"
    csn.write_text("#csn v1\n#node\ta\t2\n#node\tb\t2\na\tb\t1\t0.5\n", encoding="utf-8")
    monkeypatch.setenv("NUDGESIM_LOG", "INFO")
    with caplog.at_level(logging.INFO, logger="nudgesim"):
        code, stdout, _ = _run(capsys, ["embed", str(csn), "--out", str(tmp_path / "v.tsv")] + _SMALL_EMBED)
    assert code == 0
    assert stdout.strip() == "nodes=2 dims=4"
    assert len(set(graph.detect_communities(load_graph(csn)).labels.values())) == 1
    messages = [r.getMessage() for r in caplog.records]
    assert any("loss" in m for m in messages)  # INFO logging was on
    assert not any("homophily" in m for m in messages)


def test_only_embed_loads_scipy_special(tmp_path):
    # scipy.special is slow to import and only skip-gram training uses it, so
    # a fresh process loads it for embed and for nothing before
    script = textwrap.dedent("""
        import sys
        from nudgesim.cli import main
        loaded = ["scipy.special" in sys.modules]
        assert main(["build-csn", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
        loaded.append("scipy.special" in sys.modules)
        csn, vectors = sys.argv[2] + "/csn.tsv", sys.argv[2] + "/v.tsv"
        assert main(["embed", csn, "--out", vectors] + sys.argv[3:]) == 0
        loaded.append("scipy.special" in sys.modules)
        print(loaded)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", script, str(synthetic.fixture_articles_path()), str(tmp_path)]
        + _SMALL_EMBED,
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[False, False, True]"


def test_log_variable_that_names_no_level_is_warning():
    # NUDGESIM_LOG=basic_format names logging.BASIC_FORMAT, a format string,
    # not a level; it must fall back to WARNING, not reach basicConfig. In a
    # fresh process, since pytest's root handlers make basicConfig a no-op
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent),
        NUDGESIM_LOG="basic_format",
    )
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from nudgesim.cli import main; sys.exit(main(['--help']))"],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("usage:")


@pytest.fixture
def nudgesim_log_level():
    """Restores the level that main sets on the nudgesim logger."""
    level = cli.log.level
    yield
    cli.log.setLevel(level)


def test_log_variable_applies_on_every_call(tmp_path, world_dir, monkeypatch, capsys, caplog, nudgesim_log_level):
    # pytest's root logger has handlers, so basicConfig alone would apply no
    # level at all; no caplog.at_level here
    argv = ["embed", str(world_dir / "csn.tsv"), "--out", str(tmp_path / "v.tsv")] + _SMALL_EMBED
    for level, logged in (("INFO", True), ("WARNING", False), ("INFO", True)):
        monkeypatch.setenv("NUDGESIM_LOG", level)
        caplog.clear()
        assert _run(capsys, argv)[0] == 0
        assert any("homophily" in r.getMessage() for r in caplog.records) is logged, level


def test_embed_graph_without_nodes_exits_1_naming_the_file(tmp_path, capsys):
    csn = tmp_path / "csn.tsv"
    csn.write_text(graph.CSN_HEADER + "\n", encoding="utf-8")
    code, _, stderr = _run(capsys, ["embed", str(csn), "--out", str(tmp_path / "v.tsv")] + _SMALL_EMBED)
    assert code == 1
    assert f"error: {csn}: no nodes; nothing to embed" in stderr
    assert not (tmp_path / "v.tsv").exists()


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
    # an edge line before every #node line names its unknown endpoints
    "edge-before-node-lines": ("a\tb\t1\t0.3333333333333333\n#node\ta\t3\n#node\tb\t3\n", 2),
    "article-count-of-2-to-the-63": (f"#node\ta\t3\n#node\tb\t{2**63}\na\tb\t1\t{1 / 2**63}\n", 3),
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
            path = out / f"trajectory_{cli._SAFE_NAME.sub('_', user)}_{mode}.csv"
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


def test_simulate_puts_every_output_in_place_before_a_closed_stdout_fails(tmp_path, capsys, world_dir):
    # the child's stdout is a pipe whose reading end is already closed, so
    # the first line printed (-u) or main's flush fails: every output must
    # be whole by then, and main reports the broken pipe as a failure, which
    # Python's own flush at exit does not turn into exit status 120; --help
    # fails the same way
    argv = ["simulate", *(str(world_dir / name) for name in ("personas.json", "scores.csv", "vectors.tsv")),
            "--mode", "both", "--T", "60"]
    assert main(argv + ["--out-dir", str(tmp_path / "normal")]) == 0
    capsys.readouterr()
    normal = {p.name: p.read_bytes() for p in (tmp_path / "normal").iterdir()}
    assert len(normal) == 11  # 4 personas x 2 modes, comparison, chart and summary
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    for flags, args in [
        (["-u"], [*argv, "--out-dir", str(tmp_path / "unbuffered")]),
        ([], [*argv, "--out-dir", str(tmp_path / "buffered")]),
        ([], ["--help"]),
    ]:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, *flags, "-m", "nudgesim.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b"error: [Errno 32] Broken pipe\n"), (flags, args)
    for out in ("unbuffered", "buffered"):
        assert {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()} == normal


def _simulate_files(out) -> set[str]:
    return {p.name for p in out.iterdir()}


def _expected_files(summary: list[dict], mode: str) -> set[str]:
    """What simulate writes: one trajectory CSV per run in ``summary``, the
    summary and the quality chart, and the comparison under ``both``."""
    runs = {f"trajectory_{cli._SAFE_NAME.sub('_', e['user_id'])}_{e['config']['mode']}.csv" for e in summary}
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
        ('{"user_id": "x", "sources": ["valley-voice"], "L": 1e400}', ": L must be an integer"),
        ('{"user_id": ["x"], "sources": ["valley-voice"], "L": 2}', ": user_id must be"),
        ('{"user_id": "x", "sources": "abc", "L": 2}', ": sources must be a list of strings"),
        ('{"user_id": "x", "sources": ["valley-voice"], "L": 2.7}', ": L must be an integer"),
        ('"abc"', ": expected a JSON object"),
        # a lone surrogate cannot seed the user's stream
        ('{"user_id": "u\\ud800", "sources": ["valley-voice"], "L": 2}',
         ": user_id 'u\\ud800' is not encodable as UTF-8"),
        # a well-formed persona whose trusted set breaks the one set rule
        ('{"user_id": "x", "sources": [], "L": 2}', " (x): trusted set must be non-empty"),
        ('{"user_id": "x", "sources": ["valley-voice"], "L": 0}', " (x): limit must be >= 1"),
        ("", None),
    ],
    ids=["L-overflow", "user_id-list", "sources-string", "L-fraction", "not-an-object",
         "user_id-lone-surrogate", "sources-empty", "L-zero", "no-personas"],
)
def test_simulate_bad_persona_field_exits_1(tmp_path, capsys, world_dir, entry, message):
    bad = tmp_path / "personas.json"
    bad.write_text(f"[{entry}]", encoding="utf-8")
    inputs = [str(bad), str(world_dir / "scores.csv"), str(world_dir / "vectors.tsv")]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path / "sim")])
    assert code == 1
    assert (f"{bad}: persona #0{message}" if entry else f"{bad}: no personas") in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "sim").exists()


def test_simulate_colliding_file_names_exit_1_before_writing(tmp_path, capsys, world_dir):
    world = json.loads((world_dir / "personas.json").read_text(encoding="utf-8"))
    long_id = "x" * 300
    cases = [
        # "x/y" and "x_y" both map to trajectory_x_y_<mode>.csv
        ([{"user_id": u, "sources": ["valley-voice"], "L": 2} for u in ("x/y", "x_y")],
         "personas 'x/y' and 'x_y' would write the same output files"),
        # the last persona's file names exceed 255 bytes
        (world + [dict(world[0], user_id=long_id)],
         f"persona {long_id!r} would write file names over 255 bytes"),
    ]
    for entries, message in cases:
        personas = tmp_path / "personas.json"
        personas.write_text(json.dumps(entries), encoding="utf-8")
        inputs = [str(personas), str(world_dir / "scores.csv"), str(world_dir / "vectors.tsv")]
        argv = ["simulate", *inputs, "--T", "5", "--out-dir", str(tmp_path / "sim")]
        code, stdout, stderr = _run(capsys, argv)
        assert code == 1
        assert f"{personas}: {message}" in stderr
        assert "user=" not in stdout
        assert not (tmp_path / "sim").exists()


def test_simulate_limit_override(tmp_path, capsys, world_dir):
    inputs = _inputs(world_dir, "simulate")
    argv = ["simulate", *inputs, "--T", "5", "--L", "6", "--out-dir", str(tmp_path / "wide")]
    code, _, stderr = _run(capsys, argv)
    assert code == 0, stderr
    summary = json.loads((tmp_path / "wide" / "summary.json").read_text(encoding="utf-8"))
    assert len(summary) == 4
    assert all(entry["config"]["L"] == 6 for entry in summary)
    # every world persona trusts five sources, so a limit of 4 refuses the first
    argv = ["simulate", *inputs, "--T", "5", "--L", "4", "--out-dir", str(tmp_path / "narrow")]
    code, stdout, stderr = _run(capsys, argv)
    assert code == 1
    assert "persona #0 (conspiracy-right): 5 trusted sources exceed limit 4" in stderr
    assert stdout == ""
    assert not (tmp_path / "narrow").exists()


def test_simulate_limit_override_replaces_a_zero_limit_before_it_is_checked(tmp_path, capsys, world_dir):
    # a file's L of 0 breaks the set rule only if it is the limit that runs
    (first, *_) = json.loads((world_dir / "personas.json").read_text(encoding="utf-8"))
    personas = tmp_path / "personas.json"
    personas.write_text(json.dumps([dict(first, user_id="x", sources=first["sources"][:2], L=0)]), encoding="utf-8")
    inputs = [str(personas), str(world_dir / "scores.csv"), str(world_dir / "vectors.tsv")]
    code, stdout, stderr = _run(capsys, ["simulate", *inputs, "--T", "5", "--L", "3", "--out-dir", str(tmp_path)])
    assert (code, stderr) == (0, "")
    assert stdout.startswith("user=x mode=constrained ")
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert [entry["config"]["L"] for entry in summary] == [3]


def test_simulate_builds_each_profile_state_once(tmp_path, capsys, world_dir, monkeypatch):
    # one start profile per run and one member update per accepted step: no
    # pass of its own; every start and every update takes its means through
    # nudge._means, only the starts are laid out by nudge._start_rows, and the
    # only profiles of a run are its start and its final one
    built, starts, profiles = [], [], []
    means, build, profile = nudge._means, nudge._start_rows, nudge.UserProfile

    def counted_means(members, sizes, catalog):
        built.append(len(members))
        return means(members, sizes, catalog)

    def counted_start_rows(*args):
        made = build(*args)
        starts.append(len(made.members))
        return made

    def counted_profile(*args, **kwargs):
        profiles.append(profile(*args, **kwargs))
        return profiles[-1]

    monkeypatch.setattr(nudge, "_means", counted_means)
    monkeypatch.setattr(nudge, "_start_rows", counted_start_rows)
    monkeypatch.setattr(nudge, "UserProfile", counted_profile)
    argv = ["simulate", *_inputs(world_dir, "simulate"), "--mode", "both", "--T", "20",
            "--out-dir", str(tmp_path)]
    code, _, stderr = _run(capsys, argv)
    assert code == 0, stderr
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert len(summary) == 8
    assert sum(built) == len(summary) + sum(entry["accepted_steps"] for entry in summary) == 71
    # the first call builds every start profile
    assert built[0] == len(summary)
    assert starts == [len(summary)]
    assert len(profiles) == 2 * len(summary)



def test_simulate_limit_above_the_catalog_size_means_the_catalog_size(tmp_path, capsys, world_dir):
    # no run can hold more members than the catalog has, so any larger
    # limit, even one past 64 bits, runs as the catalog size
    personas, scores, vectors = _inputs(world_dir, "simulate")
    size = len(nudge.SourceCatalog.from_scores(
        groundtruth.read_scores_csv(scores), load_vectors(vectors)
    ))
    written = {}
    for limit in (size, 10**30):
        out = tmp_path / str(limit)
        argv = ["simulate", personas, scores, vectors, "--mode", "both", "--T", "40",
                "--L", str(limit), "--out-dir", str(out)]
        code, _, stderr = _run(capsys, argv)
        assert code == 0, stderr
        written[limit] = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert len(written[size]) == 9  # a trajectory per persona and mode, and the comparison
    assert written[10**30] == written[size]


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
def test_embed_takes_negative_seed_modulo_2_64(tmp_path, capsys, world_dir, where):
    embed = ["embed", *_inputs(world_dir, "embed"), "--out-dir", str(tmp_path / "out")]
    argv = {
        "flag": embed + ["--seed", "-1"],
        "global-flag": ["--seed", "-1"] + embed,
        "config": ["--config", str(tmp_path / "config.json")] + embed,
    }[where]
    (tmp_path / "config.json").write_text(json.dumps({"seed": -1}), encoding="utf-8")
    code, _, stderr = _run(capsys, argv)
    assert code == 0, stderr
    header, *rows = (tmp_path / "out" / "vectors.tsv").read_text(encoding="utf-8").splitlines()
    assert "seed=-1" in header.split("\t")  # the seed is recorded as given
    wrapped = ["embed", *_inputs(world_dir, "embed"), "--out-dir", str(tmp_path / "wrapped")]
    code, _, stderr = _run(capsys, wrapped + ["--seed", str(2**64 - 1)])
    assert code == 0, stderr
    assert rows == (tmp_path / "wrapped" / "vectors.tsv").read_text(encoding="utf-8").splitlines()[1:]


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
    assert f"{bad}:{len(lines)}: source '' is empty" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_simulate_without_a_usable_source_names_its_inputs(tmp_path, capsys, world_dir):
    # one vector, for a source scores.csv does not hold, leaves no source usable
    lines = (world_dir / "vectors.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "vectors.tsv"
    bad.write_text(lines[0] + "stranger\t" + lines[1].split("\t", 1)[1], encoding="utf-8")
    scores = world_dir / "scores.csv"
    inputs = [str(world_dir / "personas.json"), str(scores), str(bad)]
    code, stdout, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"error: {scores}, {bad}: catalog must contain at least one source" in stderr
    assert "Traceback" not in stderr
    assert stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "build-csn", "config"])
def test_deeply_nested_json_exits_1(tmp_path, capsys, world_dir, command):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
    if command == "config":
        argv = ["--config", str(bad), "embed", *_inputs(world_dir, "embed")]
    else:
        inputs = _inputs(world_dir, command)
        inputs[0] = str(bad)
        argv = [command, *inputs]
    code, _, stderr = _run(capsys, [*argv, "--out-dir", str(tmp_path / "out")])
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
    assert f"error: {config}:1: byte 0xff at offset 10 is not UTF-8" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"seed": ' + "9" * 5000 + "}", ": Exceeds the limit (4300 digits)"),
        ('[{"seed": 1}]', ": expected a JSON object"),
        (None, "No such file or directory"),
    ],
    ids=["integer-5000-digits", "list", "missing"],
)
def test_config_file_unusable_exits_1_naming_the_file(tmp_path, capsys, world_dir, text, message):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    argv = ["--config", str(config), "embed", *_inputs(world_dir, "embed")]
    code, _, stderr = _run(capsys, [*argv, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert stderr.startswith("error: ") and str(config) in stderr and message in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


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
        (None, "simulate", ["--mode", "nudged"], "--mode"),
        ({"mode": "Both"}, "simulate", [], "--mode"),
    ],
    ids=["T-fraction", "T-bool", "seed-fraction", "threshold-bool", "alpha-nan", "learning-rate-inf",
         "mode-flag", "mode-config"],
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


def _vectors_params(path):
    header = path.read_text(encoding="utf-8").splitlines()[0].split("\t")[1:]
    return dict(part.split("=", 1) for part in header)


def test_main_calls_in_a_row_carry_no_state(tmp_path, capsys, world_dir):
    # the parser is built once per process; each call still starts from the
    # table defaults, its own --config file and its own flags
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"dims": 5, "seed": 3, "epochs": 2}), encoding="utf-8")
    second.write_text(json.dumps({"seed": 11}), encoding="utf-8")
    small = ["--walk-length", "5", "--walks-per-node", "1"]
    csn = str(world_dir / "csn.tsv")
    runs = [
        (["--config", str(first), "embed", csn, "--out", str(tmp_path / "a.tsv")] + small, {"dims": "5", "seed": "3", "epochs": "2"}),
        (["annotate", str(world_dir / "labels.csv"), csn, "--out", str(tmp_path / "scores.csv")], None),
        (["embed", csn, "--out", str(tmp_path / "b.tsv"), "--epochs", "1"] + small, {"dims": "64", "seed": "0", "epochs": "1"}),
        (["--config", str(second), "embed", csn, "--dims", "7", "--out", str(tmp_path / "c.tsv")] + small,
         {"dims": "7", "seed": "11", "epochs": "5"}),
    ]
    for argv, expected in runs:
        code, _, stderr = _run(capsys, argv)
        assert code == 0, stderr
        if expected:
            params = _vectors_params(Path(argv[argv.index("--out") + 1]))
            assert {key: params[key] for key in expected} == expected
    code, help_text, _ = _run(capsys, ["--help"])
    assert code == 0 and "build-csn" in help_text
    assert _run(capsys, ["--help"]) == (0, help_text, "")
    code, _, stderr = _run(capsys, ["embed"])
    assert code == 2 and "required" in stderr
    assert _run(capsys, ["embed", csn, "--out", str(tmp_path / "d.tsv")] + small)[0] == 0
    assert _vectors_params(tmp_path / "d.tsv")["dims"] == "64"


def test_embed_request_too_large_to_allocate_exits_1(tmp_path, capsys, world_dir):
    # numpy refuses the vector table before allocating any of it
    out = tmp_path / "vectors.tsv"
    code, _, stderr = _run(capsys, ["embed", str(world_dir / "csn.tsv"), "--dims", "100000000000000",
                                    "--walk-length", "2", "--walks-per-node", "1", "--out", str(out)])
    assert code == 1
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr
    assert not out.exists()


# ------------------------------------------------------------ reproducibility


def test_full_pipeline_rerun_is_byte_identical(tmp_path):
    # all four stages twice on the same inputs: every output file and each
    # stage's stdout
    inputs = repost_inputs(tmp_path)
    first = repost_outputs(tmp_path / "first", **inputs)
    second = repost_outputs(tmp_path / "second", **inputs)
    assert first and first == second
