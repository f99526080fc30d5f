"""Golden SHA-256 digests of every CLI output on three bundled runs.

``digests(root)`` runs the pipelines under ``root`` and returns, per run,
the digest of each output file and of each command's stdout. The fixture
run takes the bundled corpus through ``build-csn`` and ``annotate``; the
world run takes the bundled world through ``annotate``, ``embed`` and
``simulate --mode both``. The repost run takes the bundled corpus plus one
repost (an outlet posting one of its stories again, under a new id, before
another outlet copies it), with the bundled labels (one connected source
unrated) and personas, through all four stages and
``simulate --mode constrained``. ``test_golden.py`` compares them with
``golden.json``, and reruns the repost run alone (``repost_outputs``) under
another hash seed, BLAS thread count and input order.

Some output bits depend on the BLAS kernel: an OpenBLAS built with
``DYNAMIC_ARCH`` picks its kernels by CPU at run time, and the last bit of
a dot product follows the kernel's summation order. So where numpy reports
such an OpenBLAS on x86-64, ``digests`` runs the pipelines in a child
process under ``OPENBLAS_CORETYPE=Prescott``, a kernel every x86-64 CPU
runs, and the digests are the same on any such host; elsewhere it runs
them in this process.

Re-record after a deliberate output change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

import nudgesim
from nudgesim import synthetic
from nudgesim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
RECORD_COMMAND = "PYTHONPATH=src python tests/golden.py"
PINNED_KERNEL = "Prescott"

_WORLD_EMBED = ["--seed", "1234", "--dims", "32", "--walk-length", "40",
                "--walks-per-node", "6", "--window", "5", "--epochs", "3"]
_REPOST_EMBED = ["--seed", "5", "--dims", "8", "--walk-length", "10",
                 "--walks-per-node", "3", "--window", "3", "--epochs", "1"]


def versions() -> dict[str, str]:
    """The libraries whose arithmetic the vector bits depend on."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"nudgesim {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def _pipeline(out: Path, commands: list[tuple[str, list[str]]]) -> dict[str, bytes]:
    """Run each named command, then read every file under ``out`` and each
    command's stdout (as ``<name>.stdout``), in name order."""
    stdout = {f"{name}.stdout": _run(argv) for name, argv in commands}
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return dict(sorted({**files, **stdout}.items()))


def sha256s(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def _repost_corpus(path: Path) -> Path:
    """The bundled corpus plus a second copy of its first article, posted by
    the same outlet under a new id before the first outside copy."""
    text = synthetic.fixture_articles_path().read_text(encoding="utf-8")
    repost = json.loads(text.splitlines()[0])
    repost.update(id=repost["id"] + "-repost", published_at="2018-03-01T10:00:00Z")
    path.parent.mkdir(parents=True)
    path.write_text(text + json.dumps(repost) + "\n", encoding="utf-8")
    return path


def repost_inputs(root) -> dict[str, Path]:
    """The repost run's inputs, its corpus written under ``root``."""
    return {
        "articles": _repost_corpus(Path(root) / "repost-inputs" / "articles.jsonl"),
        "labels": synthetic.fixture_labels_path(),
        "personas": synthetic.fixture_personas_path(),
    }


def repost_outputs(out, articles, labels, personas) -> dict[str, bytes]:
    """The repost run on the given inputs, with its outputs under ``out``."""
    out = Path(out)
    return _pipeline(out, [
        ("build-csn", ["build-csn", str(articles), "--out-dir", str(out)]),
        ("annotate", ["annotate", str(labels), str(out / "csn.tsv"), "--out-dir", str(out)]),
        ("embed", ["embed", str(out / "csn.tsv"), "--out-dir", str(out)] + _REPOST_EMBED),
        ("simulate", ["simulate", str(personas), str(out / "scores.csv"),
                      str(out / "vectors.tsv"), "--mode", "constrained", "--T", "30",
                      "--seed", "3", "--out-dir", str(out)]),
    ])


def kernel_picked_at_run_time() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels by CPU,
    on x86-64, where ``OPENBLAS_CORETYPE`` can pin one."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return platform.machine().lower() in ("x86_64", "amd64") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def digests(root) -> dict[str, dict[str, str]]:
    """The digests of the three runs under ``root``, taken under the pinned
    kernel where the kernel is picked at run time."""
    if not kernel_picked_at_run_time():
        return _digests(root)
    src = str(Path(nudgesim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=PINNED_KERNEL, PYTHONPATH=path)
    child = subprocess.run([sys.executable, __file__, "--digests", str(root)], env=env,
                           capture_output=True, text=True, encoding="utf-8", timeout=600)
    if child.returncode != 0:
        raise RuntimeError(f"golden run under OPENBLAS_CORETYPE={PINNED_KERNEL} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def _digests(root) -> dict[str, dict[str, str]]:
    root = Path(root)
    fixture = root / "fixture"
    world_inputs = synthetic.write_world(root / "world-inputs")
    world = root / "world"
    return {
        "fixture": sha256s(_pipeline(fixture, [
            ("build-csn", ["build-csn", str(synthetic.fixture_articles_path()),
                           "--out-dir", str(fixture)]),
            ("annotate", ["annotate", str(synthetic.fixture_labels_path()),
                          str(fixture / "csn.tsv"), "--out-dir", str(fixture)]),
        ])),
        "world": sha256s(_pipeline(world, [
            ("annotate", ["annotate", str(world_inputs["labels"]), str(world_inputs["csn"]),
                          "--out-dir", str(world)]),
            ("embed", ["embed", str(world_inputs["csn"]), "--out-dir", str(world)] + _WORLD_EMBED),
            ("simulate", ["simulate", str(world_inputs["personas"]), str(world / "scores.csv"),
                          str(world / "vectors.tsv"), "--mode", "both", "--T", "120",
                          "--seed", "7", "--out-dir", str(world)]),
        ])),
        "repost": sha256s(repost_outputs(root / "repost", **repost_inputs(root))),
    }


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"versions": versions(), "runs": digests(tmp)}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(len(run) for run in payload["runs"].values())
    print(f"recorded {count} digests in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        print(json.dumps(_digests(sys.argv[2])))
    else:
        record()
