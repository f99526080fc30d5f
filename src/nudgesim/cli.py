"""Command-line pipeline: build-csn -> annotate -> embed -> simulate.

Exit codes: 0 success, 1 runtime/data error (diagnostic on stderr), 2
usage/validation error. Global flags (--seed, --config, --out-dir) may appear
before the subcommand; --seed and --out-dir are also accepted after it.
Option precedence is CLI flag, then --config JSON value (keyed by option
name), then built-in default, resolved once in ``main`` onto the parsed
namespace that each ``cmd_*`` handler reads. NUDGESIM_LOG sets the level of
the ``nudgesim`` logger on every call of ``main``.

Every option is declared once, in ``_OPTIONS``, with its parser, default and
help; the flags, the --config keys and --help derive from it. A --config
value must be a JSON string or number and goes through the flag's parser as
``str(value)``; the switch ``directed`` takes a JSON boolean. The whole
config file is checked on load, whatever the subcommand.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import logging
import math
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import corpus, embedding, graph, groundtruth, nudge, svgplot

log = logging.getLogger("nudgesim")

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")
_MAX_FILE_NAME = 255  # bytes in one path component on common file systems


def _number(convert: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    """Parser that applies ``convert`` (int or float) to the text and accepts
    only a finite value for which ``ok`` holds; ``rule`` words that test."""
    kind = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if (isinstance(value, float) and not math.isfinite(value)) or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_MODE_RULE = "constrained, unconstrained or both"


def _mode(text: str) -> str:
    if text not in ("constrained", "unconstrained", "both"):
        raise argparse.ArgumentTypeError(f"must be {_MODE_RULE}, got {text!r}")
    return text


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise argparse.ArgumentTypeError(f"expected true or false, got {json.dumps(value)}")
    return value


class _Option(NamedTuple):
    parse: Callable[[Any], Any]
    default: Any  # a bool default makes the option a switch
    help: str


_COUNT = _number(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _number(float, lambda v: v > 0, "> 0")

_OPTIONS = {
    "seed": _Option(_number(int, lambda v: True, "an integer"), 0, "base RNG seed"),
    "out_dir": _Option(str, ".", "output directory"),
    "threshold": _Option(
        _number(float, lambda v: 0 < v < 1, "in (0, 1)"),
        corpus.DEFAULT_SIMILARITY_THRESHOLD,
        "cosine similarity cutoff in (0, 1)",
    ),
    "dims": _Option(_COUNT, embedding.DEFAULT_DIMS, "vector dimensionality"),
    "p": _Option(_POSITIVE, 1.0, "walk return parameter"),
    "q": _Option(_POSITIVE, 1.0, "walk in-out parameter"),
    "walk_length": _Option(_COUNT, embedding.DEFAULT_WALK_LENGTH, "steps per walk"),
    "walks_per_node": _Option(_COUNT, embedding.DEFAULT_WALKS_PER_NODE, "walks per start node"),
    "window": _Option(_COUNT, embedding.DEFAULT_WINDOW, "context window"),
    "negatives": _Option(
        _number(int, lambda v: v >= 0, ">= 0"),
        embedding.DEFAULT_NEGATIVES,
        "negative samples per pair",
    ),
    "epochs": _Option(_COUNT, embedding.DEFAULT_EPOCHS, "training epochs"),
    "learning_rate": _Option(_POSITIVE, embedding.DEFAULT_LEARNING_RATE, "initial learning rate"),
    "directed": _Option(
        _switch, False, "walk the graph as directed instead of the undirected view"
    ),
    "alpha": _Option(
        _number(float, lambda v: 0 < v < 1, "strictly inside (0, 1)"),
        nudge.DEFAULT_ALPHA,
        "trust-cost mix in (0, 1)",
    ),
    "T": _Option(_COUNT, 500, "iterations per user"),
    "L": _Option(_COUNT, None, "attention limit override (default: persona L)"),
    "mode": _Option(_mode, "constrained", f"recommendation rule: {_MODE_RULE}"),
}


# the embed flags, passed on to embedding.embed_graph under the same names
_EMBED_OPTIONS = ("dims", "p", "q", "walk_length", "walks_per_node", "window", "negatives",
                  "epochs", "learning_rate", "directed", "seed")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the flags of ``names``. An absent flag leaves no attribute, so
    the --config value or the table default stands in for it."""
    for name in names:
        option = _OPTIONS[name]
        if isinstance(option.default, bool):
            kwargs = {"action": "store_true", "help": option.help}
        else:
            shown = "" if option.default is None else f" (default {option.default})"
            kwargs = {"type": option.parse, "help": option.help + shown}
        parser.add_argument(_flag(name), dest=name, default=argparse.SUPPRESS, **kwargs)


def _from_config(option: _Option, value):
    """Parse a --config value the way its flag text would be parsed."""
    if value is None:
        raise argparse.ArgumentTypeError("expected a value, got null")
    if isinstance(option.default, bool):
        return option.parse(value)
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise argparse.ArgumentTypeError(f"expected a string or number, got {json.dumps(value)}")
    return option.parse(str(value))


def _resolve_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Set each option the command line left out on ``args``: its --config
    value, else its table default. Every key of the config file is checked."""
    config = corpus.read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: expected a JSON object")
    given = vars(args)
    for name, value in config.items():
        if name not in _OPTIONS:
            parser.error(f"--config: unknown key {name!r}")
        try:
            given.setdefault(name, _from_config(_OPTIONS[name], value))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{_flag(name)}: {exc}")
    for name, option in _OPTIONS.items():
        given.setdefault(name, option.default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves no state on it, and
    building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="nudgesim",
        description="Copy-network construction, source scoring, graph embeddings, "
        "and trust-aware recommendation simulation.",
    )
    _add_options(parser, "seed")
    parser.add_argument("--config", help="JSON file with default option values")
    _add_options(parser, "out_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-csn", help="detect copy pairs and build the source graph")
    p_build.add_argument("articles", help="JSONL corpus (id, source, title, content, published_at)")
    p_build.add_argument("--out", help="output directory for pairs.tsv + csn.tsv")
    _add_options(p_build, "threshold", "seed", "out_dir")
    p_build.set_defaults(run=cmd_build_csn)

    p_ann = sub.add_parser("annotate", help="derive quality/leaning scores for graph sources")
    p_ann.add_argument("labels", help="provider labels CSV")
    p_ann.add_argument("csn", help="graph TSV from build-csn")
    p_ann.add_argument("--out", help="output scores CSV (default <out-dir>/scores.csv)")
    _add_options(p_ann, "seed", "out_dir")
    p_ann.set_defaults(run=cmd_annotate)

    p_embed = sub.add_parser("embed", help="learn node vectors for the graph")
    p_embed.add_argument("csn", help="graph TSV from build-csn")
    p_embed.add_argument("--out", help="output vectors TSV (default <out-dir>/vectors.tsv)")
    _add_options(p_embed, *_EMBED_OPTIONS, "out_dir")
    p_embed.set_defaults(run=cmd_embed)

    p_sim = sub.add_parser("simulate", help="run trust-aware recommendation dynamics")
    p_sim.add_argument("personas", help="JSON list of {user_id, sources, L}")
    p_sim.add_argument("scores", help="scores CSV from annotate")
    p_sim.add_argument("vectors", help="vectors TSV from embed")
    _add_options(p_sim, "alpha", "T", "L", "mode", "seed", "out_dir")
    p_sim.set_defaults(run=cmd_simulate)
    return parser


def cmd_build_csn(args: argparse.Namespace) -> int:
    out_dir = Path(args.out or args.out_dir)
    articles = corpus.load_articles(args.articles)
    if not articles.articles:
        raise ValueError(f"{args.articles}: no articles ({articles.skipped} malformed lines skipped)")
    tfidf = corpus.tfidf_vectors(articles)
    pairs = corpus.similar_pairs(tfidf, articles, threshold=args.threshold)
    csn = graph.build_csn(pairs, articles.source_counts())
    corpus.write_pairs_tsv(pairs, out_dir / "pairs.tsv")
    graph.save_graph(csn, out_dir / "csn.tsv")
    print(
        f"articles={len(articles.articles)} skipped={articles.skipped} "
        f"pairs={len(pairs)} nodes={len(csn.nodes)} edges={len(csn.src)}"
    )
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    out_path = Path(args.out) if args.out else Path(args.out_dir) / "scores.csv"
    labels = groundtruth.read_labels_csv(args.labels)
    csn = graph.load_graph(args.csn)
    scores = groundtruth.score_sources(labels, csn)
    groundtruth.write_scores_csv(scores, out_path)
    counts = collections.Counter(sc.provenance for sc in scores.values())
    print(
        f"sources={len(scores)} labeled={counts['labeled']} "
        f"imputed={counts['imputed']} unavailable={counts['unavailable']}"
    )
    return 0


def _log_homophily(csn: graph.CsnGraph, vectors: embedding.SourceVectors) -> None:
    labels = graph.detect_communities(csn).labels
    intra, inter = embedding.community_cosines(vectors, labels)
    if not (math.isnan(intra) or math.isnan(inter)):
        log.info(
            "homophily check: mean intra-community cosine %.4f vs inter %.4f "
            "across %d communities",
            intra,
            inter,
            len(set(labels.values())),
        )


def cmd_embed(args: argparse.Namespace) -> int:
    out_path = Path(args.out) if args.out else Path(args.out_dir) / "vectors.tsv"
    csn = graph.load_graph(args.csn)
    if not csn.nodes:
        raise ValueError(f"{args.csn}: no nodes; nothing to embed")
    vectors = embedding.embed_graph(csn, **{name: getattr(args, name) for name in _EMBED_OPTIONS})
    embedding.save_vectors(vectors, out_path)
    if log.isEnabledFor(logging.INFO):
        _log_homophily(csn, vectors)
    print(f"nodes={len(vectors.vectors)} dims={vectors.dims}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    personas = nudge.load_personas(args.personas)
    stems: dict[str, str] = {}  # stem -> user id, one per persona in persona order
    for persona in personas:
        stem = _SAFE_NAME.sub("_", persona.user_id)  # ASCII, so characters are bytes
        if len(f"trajectory_{stem}_unconstrained.csv") > _MAX_FILE_NAME:
            raise ValueError(
                f"{args.personas}: persona {persona.user_id!r} would write file names "
                f"over {_MAX_FILE_NAME} bytes"
            )
        other = stems.setdefault(stem, persona.user_id)
        if other != persona.user_id:
            raise ValueError(
                f"{args.personas}: personas {other!r} and {persona.user_id!r} "
                f"would write the same output files ({stem!r})"
            )
    scores = groundtruth.read_scores_csv(args.scores)
    vectors = embedding.load_vectors(args.vectors)
    try:
        catalog = nudge.SourceCatalog.from_scores(scores, vectors)
    except ValueError as exc:  # no usable source, or vectors of two sizes
        raise ValueError(f"{args.scores}, {args.vectors}: {exc}") from None
    if args.L is not None:
        personas = [dataclasses.replace(persona, L=args.L) for persona in personas]
    modes = ["constrained", "unconstrained"] if args.mode == "both" else [args.mode]
    configs = [nudge.SimConfig(T=args.T, seed=args.seed, alpha=args.alpha, mode=m) for m in modes]
    try:  # one run per persona and mode, every one made before any output
        trajectories = nudge.simulate_all([(p, config) for p in personas for config in configs], catalog)
    except ValueError as exc:  # the first persona whose start is refused
        i = exc.run // len(modes)
        user_id = personas[i].user_id
        reason = str(exc).removeprefix(f"{user_id}: ")
        raise ValueError(f"{args.personas}: persona #{i} ({user_id}): {reason}") from None
    runs = list(zip(*[iter(trajectories)] * len(modes)))  # per persona, one run per mode

    lines = []  # printed once every output is in place
    for stem, run in zip(stems, runs):
        for m, traj in zip(modes, run):
            nudge.write_trajectory_csv(traj, out_dir / f"trajectory_{stem}_{m}.csv")
            where = traj.convergence_point
            lines.append(
                f"user={traj.user_id} mode={m} "
                f"converged_at={'none' if where is None else where} "
                f"final_q={traj.final.q_u:.6f} final_l={traj.final.l_u:.6f}"
            )
    if args.mode == "both":
        nudge.write_comparison_csv(runs, out_dir / "comparison.csv")
    svgplot.line_chart(
        [(m, _mean_quality(column)) for m, column in zip(modes, zip(*runs))],
        title="mean quality across personas",
        y_label="mean profile quality",
        path=out_dir / "quality.svg",
        y_range=(0.0, 1.05),
    )
    nudge.write_summary_json([traj for run in runs for traj in run], out_dir / "summary.json")
    print("\n".join(lines))
    return 0


def _mean_quality(trajectories: tuple[nudge.Trajectory, ...]) -> list[float]:
    """Per step, the mean of ``q_u`` over the trajectories."""
    steps = zip(*([r.q_u for r in traj.steps] for traj in trajectories))
    return [corpus.float_sum(column) / len(trajectories) for column in steps]


def main(argv: list[str] | None = None) -> int:
    # a level name maps to its number; any other name is WARNING. The level
    # is set on every call; basicConfig adds the stderr handler only when the
    # root logger has none
    level = logging.getLevelName(os.environ.get("NUDGESIM_LOG", "WARNING").upper())
    log.setLevel(level if isinstance(level, int) else logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            _resolve_options(parser, args)
            code = args.run(args)
        except SystemExit as exc:  # --help, usage errors and bad --config values
            code = int(exc.code or 0)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # the output left in stdout's buffer goes nowhere, so that Python's
        # flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
