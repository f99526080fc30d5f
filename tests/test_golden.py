"""Every CLI output of the three golden runs is byte-identical to the digest
recorded in golden.json (see golden.py for the runs, the BLAS kernel they
run under and how to re-record), and the repost run's outputs depend on
neither the hash seed, the BLAS thread count nor the order of the input
lines."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nudgesim
from golden import (
    GOLDEN, RECORD_COMMAND, digests, kernel_picked_at_run_time, repost_inputs, repost_outputs,
    sha256s, versions,
)


def test_cli_outputs_match_golden_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    if actual == recorded["runs"]:
        return
    changed = sorted(
        f"{run}/{name}"
        for run in recorded["runs"].keys() | actual.keys()
        for name in recorded["runs"].get(run, {}).keys() | actual.get(run, {}).keys()
        if recorded["runs"].get(run, {}).get(name) != actual.get(run, {}).get(name)
    )
    raise AssertionError(
        f"{len(changed)} CLI outputs differ from {GOLDEN.name}: {', '.join(changed)}\n"
        f"recorded with {recorded['versions']}, running with {versions()}.\n"
        f"If the change is deliberate, re-record with `{RECORD_COMMAND}` "
        "and say why in CHANGES.md."
    )


def _child_env(**extra: str) -> dict[str, str]:
    path = os.pathsep.join([str(Path(nudgesim.__file__).parents[1]), str(Path(__file__).parent)])
    return dict(os.environ, PYTHONPATH=path, **extra)


_DIGESTS_CHILD = """
import json, sys
from golden import digests
print(json.dumps(digests(sys.argv[1])))
"""


def test_golden_digests_hold_when_this_process_picks_another_kernel(tmp_path):
    # the digests are taken under the pinned kernel, not the one this
    # process picked; Haswell's dot products differ from Prescott's
    if not kernel_picked_at_run_time():
        pytest.skip("numpy's BLAS is not an OpenBLAS that picks its kernel at run time on x86-64")
    child = subprocess.run([sys.executable, "-c", _DIGESTS_CHILD, str(tmp_path)],
                           env=_child_env(OPENBLAS_CORETYPE="Haswell"),
                           capture_output=True, text=True, encoding="utf-8", timeout=600)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]


_REPOST_CHILD = """
import json, sys
from golden import repost_inputs, repost_outputs, sha256s
root = sys.argv[1]
print(json.dumps(sha256s(repost_outputs(root + "/repost", **repost_inputs(root)))))
"""


def test_repost_run_ignores_hash_seed_and_blas_threads(tmp_path):
    expected = sha256s(repost_outputs(tmp_path / "in-process", **repost_inputs(tmp_path)))
    for hash_seed, threads in (("0", "1"), ("12345", "2")):
        root = tmp_path / f"child-{hash_seed}"
        env = _child_env(PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS=threads)
        child = subprocess.run([sys.executable, "-c", _REPOST_CHILD, str(root)], env=env,
                               capture_output=True, text=True, encoding="utf-8", timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == expected, (hash_seed, threads)


def test_repost_run_ignores_input_order(tmp_path):
    inputs = repost_inputs(tmp_path)
    expected = repost_outputs(tmp_path / "in-order", **inputs)
    articles = inputs["articles"].read_text(encoding="utf-8").splitlines(keepends=True)
    header, *rows = inputs["labels"].read_text(encoding="utf-8").splitlines(keepends=True)
    personas = json.loads(inputs["personas"].read_text(encoding="utf-8"))
    rng = random.Random(1)
    shuffled_articles, shuffled_rows = articles[:], rows[:]
    rng.shuffle(shuffled_articles)
    rng.shuffle(shuffled_rows)
    assert shuffled_articles != articles and shuffled_rows != rows and len(personas) > 1
    reordered = {"articles": tmp_path / "articles.jsonl", "labels": tmp_path / "labels.csv",
                 "personas": tmp_path / "personas.json"}
    reordered["articles"].write_text("".join(shuffled_articles), encoding="utf-8")
    reordered["labels"].write_text(header + "".join(shuffled_rows), encoding="utf-8")
    reordered["personas"].write_text(json.dumps(personas[::-1]), encoding="utf-8")
    actual = repost_outputs(tmp_path / "reordered", **reordered)

    # only the two per-persona listings follow the persona order
    listings = ("summary.json", "simulate.stdout")
    assert actual.keys() == expected.keys()
    assert {k: v for k, v in actual.items() if k not in listings} == {
        k: v for k, v in expected.items() if k not in listings
    }
    summary = json.loads(expected["summary.json"])
    assert json.loads(actual["summary.json"]) == summary[::-1]
    assert [e["user_id"] for e in summary] == [p["user_id"] for p in personas]
    lines = expected["simulate.stdout"].splitlines(keepends=True)
    assert actual["simulate.stdout"].splitlines(keepends=True) == lines[::-1]
