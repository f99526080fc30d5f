"""Tests of the benchmark's own code: the generator and the checks.

    python3 -m pytest perfbench/test_perfbench.py -q

The checks are run once on a real small pipeline run, where they must pass,
and then on deliberately corrupted copies of its outputs, each of which
they must reject.
"""

from __future__ import annotations

import csv
import shutil
import sys
from dataclasses import replace

import pytest

import checks
import gen
import run

sys.path.insert(0, str(run.SRC))

SPEC = replace(
    gen.WORKLOADS["world"].small(),
    T=30,
    embed={"dims": 16, "walk_length": 20, "walks_per_node": 4, "window": 3, "epochs": 2},
)
SEED = 3


def test_generator_is_deterministic_per_seed():
    a = gen.generate(gen.WORKLOADS["population"], 7)
    b = gen.generate(gen.WORKLOADS["population"], 7)
    c = gen.generate(gen.WORKLOADS["population"], 8)
    assert a.files == b.files
    assert a.files["articles.jsonl"] != c.files["articles.jsonl"]


def test_generator_plants_one_version_per_source_and_rated_personas():
    inputs = gen.generate(gen.WORKLOADS["world"], 5)
    for versions in inputs.stories:
        sources = [s for _, s, _ in versions]
        assert len(sources) == len(set(sources))
    rated = {row["source"] for row in inputs.labels if row["newsguard"] or row["os_flags"] or row["mbfc_flags"]}
    for persona in inputs.personas:
        assert persona["sources"] and set(persona["sources"]) <= rated
        assert all(s in inputs.article_counts for s in persona["sources"])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cli = run.import_cli()
    inputs = gen.generate(SPEC, SEED)
    inputs.write(root / "inputs")
    stdout = {}
    for stage, argv in run.stage_argvs(SPEC, SEED, root / "inputs", root / "out"):
        code, out, _ = run.call(cli, argv)
        assert code == 0, stage
        stdout[stage] = out
    return inputs, root / "out", stdout


@pytest.fixture
def outputs(pipeline, tmp_path):
    inputs, out, stdout = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return inputs, copy, stdout


def test_checks_accept_the_real_outputs(outputs):
    inputs, out, stdout = outputs
    run.check_round(inputs, out, stdout)


def test_syndication_corpus_fails_build_csn(tmp_path):
    path = tmp_path / "syndication.jsonl"
    path.write_text(gen.syndication_corpus(), encoding="utf-8")
    code, _, _ = run.call(run.import_cli(), ["build-csn", str(path), "--out", str(tmp_path)])
    assert code == 1


def _edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_dropped_pair_is_rejected(outputs):
    inputs, out, stdout = outputs
    _edit_lines(out / "pairs.tsv", lambda lines: lines[1:])
    with pytest.raises(checks.CheckError, match="missing"):
        checks.check_build_csn(inputs, out, stdout["build-csn"])


def test_wrong_edge_weight_is_rejected(outputs):
    inputs, out, stdout = outputs

    def bump(lines):
        fields = lines[-1].rstrip("\n").split("\t")
        fields[3] = repr(float(fields[3]) * 1.001)
        return lines[:-1] + ["\t".join(fields) + "\n"]

    _edit_lines(out / "csn.tsv", bump)
    with pytest.raises(checks.CheckError, match="weight"):
        checks.check_build_csn(inputs, out, stdout["build-csn"])


def test_perturbed_score_is_rejected(outputs):
    inputs, out, stdout = outputs

    def perturb(lines):
        rows = list(csv.reader(lines))
        k = next(i for i, r in enumerate(rows) if i and r[1])
        rows[k][1] = repr(float(rows[k][1]) + 1e-6)
        return [",".join(r) + "\n" for r in rows]

    _edit_lines(out / "scores.csv", perturb)
    with pytest.raises(checks.CheckError, match="scores.csv"):
        checks.check_annotate(inputs, out / "scores.csv", stdout["annotate"])


def test_non_finite_vector_is_rejected(outputs):
    inputs, out, stdout = outputs

    def poison(lines):
        fields = lines[1].split("\t")
        fields[1] = "nan"
        return [lines[0], "\t".join(fields)] + lines[2:]

    _edit_lines(out / "vectors.tsv", poison)
    with pytest.raises(checks.CheckError, match="bad row"):
        checks.check_embed(inputs, out / "vectors.tsv", stdout["embed"], SPEC.embed["dims"])


@pytest.mark.parametrize(
    "mode, message",
    [("constrained", "not the cheapest"), ("unconstrained", "not the best eligible quality")],
)
def test_swapped_offer_is_rejected(outputs, mode, message):
    inputs, out, stdout = outputs
    persona = inputs.personas[0]
    path = out / "sim" / f"trajectory_{persona['user_id']}_{mode}.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    first = rows[0]
    assert first["recommended"], "the first step should make an offer"
    catalog = checks.Catalog(inputs, out / "scores.csv")
    q_u, l_u, v_u = catalog.profile(sorted(persona["sources"]))
    cost = catalog.costs(l_u, v_u, SPEC.alpha)
    offered = catalog.index[first["recommended"]]
    # another eligible source, worse by the mode's rule, written with its own
    # trust cost and acceptance probability, so that only the rule objects
    key = cost if mode == "constrained" else -catalog.quality
    swap = next(
        s
        for s in catalog.ids
        if s not in persona["sources"]
        and catalog.quality[catalog.index[s]] > q_u
        and key[catalog.index[s]] > key[offered] + 1e-9
    )
    first["recommended"] = swap
    first["trust_cost"] = repr(float(cost[catalog.index[swap]]))
    first["accept_prob"] = repr(max(0.0, 1.0 - float(cost[catalog.index[swap]])))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_simulate(inputs, out / "scores.csv", out / "sim", stdout["simulate"])


@pytest.mark.parametrize("mode", ["constrained", "unconstrained"])
def test_offer_of_equal_quality_is_rejected(outputs, mode):
    inputs, out, _ = outputs
    persona = inputs.personas[0]
    path = out / "sim" / f"trajectory_{persona['user_id']}_{mode}.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    catalog = checks.Catalog(inputs, out / "scores.csv")
    q_u, l_u, v_u = catalog.profile(sorted(persona["sources"]))
    # a non-member whose quality ties the persona's mean: the rule offers
    # only sources strictly above it
    tie = next(s for s in catalog.ids if s not in persona["sources"])
    catalog.quality[catalog.index[tie]] = q_u
    cost = catalog.costs(l_u, v_u, SPEC.alpha)
    rows[0]["recommended"] = tie
    rows[0]["trust_cost"] = repr(float(cost[catalog.index[tie]]))
    with pytest.raises(checks.CheckError, match="not eligible"):
        checks.replay(catalog, persona, rows, mode, SPEC.alpha, q_u)
