"""Benchmark of the nudgesim pipeline, run in-process through the CLI.

    python3 perfbench/run.py --workload copy-detect --seed 1 --seconds 45 --trace 0

One run is one process. It pins the BLAS/OpenMP pools to one thread, sets up
(imports ``nudgesim.cli`` from ``src/``, writes the seeded inputs, warms up),
then runs rounds of the four CLI stages, ``build-csn``, ``annotate``,
``embed`` and ``simulate``, through ``nudgesim.cli.main(argv)``. The number
of rounds follows from ``--seconds`` alone (``Spec.rounds``), so every run of
a workload attempts the same operations. A round calls a stage that is short
on the workload several times in a row (``Spec.repeats``). Each stage call is
one operation, failed when its exit code is not 0. Every timed call is
bracketed by a fixed probe loop, and its time is rescaled to a host on which
the probe takes ``REFERENCE_S`` (see :func:`reference_scale`). On
``copy-detect`` the run also calls ``build-csn`` once, before the rounds, on
a fixed syndication corpus; that call is counted but timed nowhere.

The outputs of the first round are checked against the planted ground truth
(see ``checks.py``); every later round must reproduce them byte for byte.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, end-to-end ones with ``--trace 0`` and per-layer
ones with ``--trace 1``. A stage's time is the median over all its calls in
the run, ``pipeline_s`` the sum of the four; ``setup_s`` is the median over
repetitions of the whole set-up, one before every round (at least
``SETUP_REPEATS``), so that they sample the host over the whole run.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so that BLAS never starts a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUDGESIM_LOG"] = "WARNING"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
# The host's speed drifts by about a fifth, in phases of seconds to a minute.
# Interpreter-bound code such as skip-gram training follows the probe loop
# closely, so times are reported as they would read on a host where the
# probe takes this long: about its median on the reference host.
REFERENCE_S = 0.01
STAGES = ("build-csn", "annotate", "embed", "simulate")

# each is reported as "<name>_s", its self time per round
LAYER_SPANS = (
    "corpus.load_articles", "corpus.tfidf_vectors", "corpus.similar_pairs",
    "graph.build_csn", "graph.save_graph", "graph.load_graph", "graph.detect_communities",
    "groundtruth.read_labels_csv", "groundtruth.score_sources",
    "embedding.train_embeddings", "embedding.generate_walks",
    "embedding.save_vectors", "embedding.load_vectors",
    "nudge.simulate", "nudge.simulate_unconstrained", "nudge.write_trajectory_csv",
    "svgplot.line_chart",
)
LAYER_COUNTS = (
    "corpus.articles", "corpus.pairs", "graph.nodes", "graph.edges", "groundtruth.imputed",
    "embedding.walk_tokens", "embedding.train_positions",
    "nudge.select_recommendation_calls", "nudge.user_steps", "nudge.offers", "nudge.accepts",
    "nudge.drops", "nudge.noop_steps", "nudge.converged_users", "svgplot.charts",
)
CLI_SELF = ("build-csn", "embed", "simulate")
SYNDICATION_WORKLOADS = ("copy-detect",)


def import_cli():
    """Import ``nudgesim.cli`` afresh from this checkout's ``src/``.

    Dropping the package from ``sys.modules`` first makes every set-up
    repetition execute nudgesim's module code again.
    """
    for name in [m for m in sys.modules if m == "nudgesim" or m.startswith("nudgesim.")]:
        del sys.modules[name]
    cli = importlib.import_module("nudgesim.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"nudgesim was imported from {cli.__file__}, not from {SRC}")
    return cli


def stage_argvs(spec: gen.Spec, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    embed = []
    for key, value in spec.embed.items():
        embed += ["--" + key.replace("_", "-"), str(value)]
    return [
        ("build-csn", ["build-csn", str(inputs / "articles.jsonl"),
                       "--threshold", repr(spec.threshold), "--out", str(out)]),
        ("annotate", ["annotate", str(inputs / "labels.csv"), str(out / "csn.tsv"),
                      "--out", str(out / "scores.csv")]),
        ("embed", ["embed", str(out / "csn.tsv"), "--out", str(out / "vectors.tsv"),
                   "--seed", str(seed)] + embed),
        # simulate reads the planted vectors, not embed's, so that a change
        # to training leaves the simulated work and its checks alone
        ("simulate", ["simulate", str(inputs / "personas.json"), str(out / "scores.csv"),
                      str(inputs / "vectors.tsv"), "--T", str(spec.T), "--alpha",
                      repr(spec.alpha), "--mode", "both", "--seed", str(seed),
                      "--out-dir", str(out / "sim")]),
    ]


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop, the probe of the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def reference_scale(before: float, after: float) -> float:
    """Factor that rescales a time to a host on which the probe takes
    ``REFERENCE_S``, from the probe timed just ``before`` and ``after``."""
    return 2 * REFERENCE_S / (before + after)


def call(cli, argv: list[str], span=None) -> tuple[int, str, float]:
    """Run one CLI stage; return its exit code, stdout and wall time. The
    optional ``span`` context covers exactly the timed part."""
    gc.collect()
    buf = io.StringIO()
    with span or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def set_up(spec: gen.Spec, seed: int, work: Path):
    """One repetition of the set-up: import, write the inputs, warm up on a
    small world of the same shape. Returns (cli, inputs, seconds)."""
    gc.collect()
    start = time.perf_counter()
    cli = import_cli()
    inputs = gen.generate(spec, seed)
    inputs.write(work / "inputs")
    (work / "inputs" / "syndication.jsonl").write_text(gen.syndication_corpus(), encoding="utf-8")
    small = spec.small()
    gen.generate(small, seed).write(work / "warmup-inputs")
    for stage, argv in stage_argvs(small, seed, work / "warmup-inputs", work / "warmup"):
        code, _, _ = call(cli, argv)
        if code != 0:
            raise SystemExit(f"warm-up {stage} exited with {code}")
    return cli, inputs, time.perf_counter() - start


def check_round(inputs: gen.Inputs, out: Path, stdout: dict[str, str]) -> None:
    checks.check_build_csn(inputs, out, stdout["build-csn"])
    checks.check_annotate(inputs, out / "scores.csv", stdout["annotate"])
    checks.check_embed(inputs, out / "vectors.tsv", stdout["embed"], inputs.spec.embed["dims"])
    checks.check_simulate(inputs, out / "scores.csv", out / "sim", stdout["simulate"])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _self_totals(tracer: Tracer, call: dict) -> dict[str, float]:
    """Self time per span name, summed over the spans under a stage call's
    span and rescaled like the call's time."""
    totals: dict[str, float] = {}
    for sid, t in tracer.self_times(call["span"]).items():
        name = tracer.spans[sid].name
        totals[name] = totals.get(name, 0.0) + t * call["scale"]
    return totals


def stage_calls(rounds: list[dict], stage: str) -> list[dict]:
    return [c for r in rounds for c in r["calls"] if c["stage"] == stage]


def layer_metrics(tracer: Tracer, rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one stage call: for every stage, the median over
    its calls of each span name's self time and of each count, summed over
    the stages."""
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    for stage in STAGES:
        calls = stage_calls(rounds, stage)
        totals = [_self_totals(tracer, c) for c in calls]
        for name in {n for t in totals for n in t}:
            times[name] = times.get(name, 0.0) + median(t.get(name, 0.0) for t in totals)
        for name in {n for c in calls for n in c["counts"]}:
            counts[name] = counts.get(name, 0) + median(c["counts"].get(name, 0) for c in calls)
    out = {name + "_s": (times.get(name, 0.0), "s") for name in LAYER_SPANS}
    out["corpus.similar_pairs_peak_mb"] = (tracer.similar_pairs_peak_mb(), "MB")
    out.update({name: (counts.get(name, 0), "count") for name in LAYER_COUNTS})
    for stage in CLI_SELF:
        name = "cli." + stage.replace("-", "_") + "_self_s"
        out[name] = (times.get("cli." + stage, 0.0), "s")
    return out


def accounting(tracer: Tracer, rounds: list[dict]) -> dict[str, dict[str, float]]:
    """Per stage: the median over its calls of the call's time ("total") and
    of the self time of every span name inside it. The stage span's own self
    time ("cli.<stage>") is the part no wrapped function covers."""
    out = {}
    for stage in STAGES:
        per_call = []
        for c in stage_calls(rounds, stage):
            totals = _self_totals(tracer, c)
            totals["total"] = c["time"] * c["scale"]
            per_call.append(totals)
        names = sorted({n for t in per_call for n in t})
        out[stage] = {n: median(t.get(n, 0.0) for t in per_call) for n in names}
    return out


def run_round(cli, spec: gen.Spec, seed: int, work: Path, out: Path, tracer) -> dict:
    """Each stage ``spec.repeats`` times in a row (once by default), stopping
    at the first call that fails."""
    record = {"calls": [], "stdout": {}, "failed": None}
    for stage, argv in stage_argvs(spec, seed, work / "inputs", out):
        for _ in range(spec.repeats.get(stage, 1)):
            if tracer:
                tracer.counts.clear()
            span_id = len(tracer.spans) if tracer else None  # the next span opened
            before = probe_s()
            code, stdout, elapsed = call(cli, argv, tracer.span("cli." + stage) if tracer else None)
            scale = reference_scale(before, probe_s())
            if code != 0:
                record["failed"] = f"{stage} exited with {code}"
                return record
            record["stdout"].setdefault(stage, stdout)
            record["calls"].append(
                {
                    "stage": stage,
                    "time": elapsed,
                    "scale": scale,
                    "span": span_id,
                    "counts": dict(tracer.counts) if tracer else {},
                }
            )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nudgesim" / "__init__.py").is_file():
        print(f"error: no nudgesim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = gen.WORKLOADS[args.workload]
    work = HERE / "work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []

    # what the first, cold import of nudgesim.cli loads; later repetitions
    # find every module but nudgesim's own already loaded
    loaded = set(sys.modules)
    start = time.perf_counter()
    import_cli()
    first_import = (time.perf_counter() - start, len(set(sys.modules) - loaded))

    setup_times = []
    first_digest = None

    def timed_set_up():
        nonlocal first_digest
        before = probe_s()
        cli, inputs, elapsed = set_up(spec, args.seed, work)
        setup_times.append((elapsed, reference_scale(before, probe_s())))
        d = digest(work / "inputs")
        if first_digest is not None and d != first_digest:
            problems.append("the generator wrote different inputs for the same seed")
        first_digest = d
        return cli, inputs

    n_rounds = spec.rounds(args.seconds)
    for _ in range(SETUP_REPEATS - n_rounds):
        timed_set_up()
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    rounds: list[dict] = []
    expected = None
    for index in range(n_rounds):
        # set-up again before every round; it imports nudgesim afresh, which
        # the tracer then wraps
        cli, inputs = timed_set_up()
        if index == 0 and args.workload in SYNDICATION_WORKLOADS:
            code, _, _ = call(cli, ["build-csn", str(work / "inputs" / "syndication.jsonl"),
                                    "--out", str(work / "syndication")])
            attempted, failed = 1, int(code != 0)
            shutil.rmtree(work / "syndication", ignore_errors=True)
        if problems:
            break
        if tracer:
            tracer.install()
        out = work / f"round-{index}"
        record = run_round(cli, spec, args.seed, work, out, tracer)
        attempted += len(record["calls"]) + (record["failed"] is not None)
        if record["failed"]:
            failed += 1
            problems.append(record["failed"])
            break
        if expected is None:
            try:
                check_round(inputs, out, record["stdout"])
            except checks.CheckError as exc:
                problems.append(f"check failed: {exc}")
            expected = (digest(out), record["stdout"])
        elif (digest(out), record["stdout"]) != expected:
            problems.append(f"round {index} output differs from round 0")
        shutil.rmtree(out, ignore_errors=True)
        rounds.append(record)

    def stage_median(stage: str) -> float:
        return median(c["time"] * c["scale"] for c in stage_calls(rounds, stage))

    pipeline_s = sum(stage_median(stage) for stage in STAGES)

    if tracer:
        tracer.uninstall()
        metrics = layer_metrics(tracer, rounds) if rounds else {}
        metrics["setup.first_import_s"] = (first_import[0], "s")
        metrics["setup.first_import_modules"] = (first_import[1], "count")
        spans_file = work / "spans.json"
        spans_file.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "pipeline_s": pipeline_s,
                    "accounting": accounting(tracer, rounds),
                    "spans": tracer.dump(),
                },
                indent=1,
            ),
            encoding="utf-8",
        )
        print(f"spans written to {spans_file}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (median(t * k for t, k in setup_times), "s"),
            "pipeline_s": (pipeline_s, "s"),
            "build_csn_s": (stage_median("build-csn"), "s"),
            "embed_s": (stage_median("embed"), "s"),
            "simulate_s": (stage_median("simulate"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    if tracer:
        for name in ("inputs", "warmup-inputs", "warmup"):
            shutil.rmtree(work / name, ignore_errors=True)
    else:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    calls = [[(c["stage"], c["time"], c["scale"]) for c in r["calls"]] for r in rounds]
    print("timings " + json.dumps({"setup": setup_times, "rounds": calls}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
