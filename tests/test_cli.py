"""End-to-end command-line behavior: exit codes, option precedence,
artifact layout, and rerun reproducibility."""

import json
import logging
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgesim import cli, graph, synthetic
from nudgesim.cli import main
from nudgesim.graph import load_graph
from nudgesim.embedding import load_vectors


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
    for entry in payload:
        csv_path = out / f"trajectory_{entry['user_id']}_constrained.csv"
        svg_path = out / f"trajectory_{entry['user_id']}_constrained.svg"
        assert csv_path.exists() and svg_path.exists()
        assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 61


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
    bad = tmp_path / "personas.json"
    bad.write_text(
        '[{"user_id": "odd", "sources": ["no-such-outlet"], "L": 3}]', encoding="utf-8"
    )
    code, _, stderr = _run(
        capsys,
        [
            "simulate",
            str(bad),
            str(world_dir / "scores.csv"),
            str(world_dir / "vectors.tsv"),
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert code == 1
    assert "no-such-outlet" in stderr


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
    out = tmp_path / "both"
    code, stdout, _ = _run(
        capsys,
        [
            "simulate",
            str(world_dir / "personas.json"),
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
    comparison = out / "comparison_conspiracy-right.csv"
    assert comparison.exists()
    lines = comparison.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,constrained_trust_cost,unconstrained_trust_cost"
    first = lines[1].split(",")
    assert float(first[1]) <= float(first[2])  # soft nudge is never pushier
    assert (out / "comparison_conspiracy-right.svg").exists()


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
    ],
    ids=["L-overflow", "user_id-list", "sources-string", "L-fraction", "not-an-object"],
)
def test_simulate_bad_persona_field_exits_1(tmp_path, capsys, world_dir, entry, message):
    bad = tmp_path / "personas.json"
    bad.write_text(f"[{entry}]", encoding="utf-8")
    inputs = [str(bad), str(world_dir / "scores.csv"), str(world_dir / "vectors.tsv")]
    code, _, stderr = _run(capsys, ["simulate", *inputs, "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"{bad}: persona #0: {message}" in stderr
    assert "Traceback" not in stderr


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
