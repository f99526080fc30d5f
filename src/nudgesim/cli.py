"""Command-line pipeline: build-csn -> annotate -> embed -> simulate.

Exit codes: 0 success, 1 runtime/data error (diagnostic on stderr), 2
usage/validation error. Global flags (--seed, --config, --out-dir) may appear
before the subcommand; --seed and --out-dir are also accepted after it.
Option precedence is CLI flag, then --config JSON value (keyed by option
name), then built-in default, resolved once in ``main`` onto the parsed
namespace that each ``cmd_*`` handler reads. NUDGESIM_LOG sets the log level.

Every option is declared once, in ``_OPTIONS``, with its parser, default and
help; the flags, the --config keys and --help derive from it. A --config
value must be a JSON string or number and goes through the flag's parser as
``str(value)``; the switch ``directed`` takes a JSON boolean. The whole
config file is checked on load, whatever the subcommand.
"""

from __future__ import annotations

import argparse
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
        _number(float, lambda v: 0 < v <= 1, "in (0, 1]"),
        corpus.DEFAULT_SIMILARITY_THRESHOLD,
        "cosine similarity cutoff in (0, 1]",
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
    config = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise RuntimeError(f"cannot read config file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RuntimeError(f"config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise RuntimeError(f"config file {args.config}: expected a JSON object")
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


def build_parser() -> argparse.ArgumentParser:
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
    try:
        articles = corpus.load_articles(args.articles)
    except OSError as exc:
        print(f"error: cannot read articles: {exc}", file=sys.stderr)
        return 1
    if not articles.articles:
        raise ValueError(f"{args.articles}: no articles ({articles.skipped} malformed lines skipped)")
    tfidf = corpus.tfidf_vectors(articles)
    pairs = corpus.similar_pairs(tfidf, articles, threshold=args.threshold)
    csn = graph.build_csn(pairs, articles.source_counts())
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.write_pairs_tsv(pairs, out_dir / "pairs.tsv")
    graph.save_graph(csn, out_dir / "csn.tsv")
    print(
        f"articles={len(articles.articles)} skipped={articles.skipped} "
        f"pairs={len(pairs)} nodes={len(csn.nodes)} edges={len(csn.edges)}"
    )
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    out_path = Path(args.out) if args.out else Path(args.out_dir) / "scores.csv"
    labels = groundtruth.read_labels_csv(args.labels)
    csn = graph.load_graph(args.csn)
    scores = groundtruth.score_sources(labels, csn)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    groundtruth.write_scores_csv(scores, out_path)
    counts = {p: 0 for p in groundtruth.PROVENANCE_VALUES}
    for sc in scores.values():
        counts[sc.provenance] += 1
    print(
        f"sources={len(scores)} labeled={counts['labeled']} "
        f"imputed={counts['imputed']} unavailable={counts['unavailable']}"
    )
    return 0


def _log_homophily(csn: graph.CsnGraph, vectors: embedding.SourceVectors) -> None:
    assignment = graph.detect_communities(csn)
    communities = len(set(assignment.labels.values()))
    if communities < 2:
        return
    intra, inter = embedding.community_cosines(vectors, assignment.labels)
    if not (math.isnan(intra) or math.isnan(inter)):
        log.info(
            "homophily check: mean intra-community cosine %.4f vs inter %.4f "
            "across %d communities",
            intra,
            inter,
            communities,
        )


def cmd_embed(args: argparse.Namespace) -> int:
    out_path = Path(args.out) if args.out else Path(args.out_dir) / "vectors.tsv"
    csn = graph.load_graph(args.csn)
    if not csn.nodes:
        print("error: graph has no nodes; nothing to embed", file=sys.stderr)
        return 1
    vectors = embedding.embed_graph(csn, **{name: getattr(args, name) for name in _EMBED_OPTIONS})
    out_path.parent.mkdir(parents=True, exist_ok=True)
    embedding.save_vectors(vectors, out_path)
    if log.isEnabledFor(logging.INFO):
        _log_homophily(csn, vectors)
    print(f"nodes={len(vectors.vectors)} dims={vectors.dims}")
    return 0


def _safe(name: str) -> str:
    return _SAFE_NAME.sub("_", name)


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    personas = nudge.load_personas(args.personas)
    stems: dict[str, str] = {}
    for persona in personas:
        other = stems.setdefault(_safe(persona.user_id), persona.user_id)
        if other != persona.user_id:
            raise ValueError(
                f"{args.personas}: personas {other!r} and {persona.user_id!r} "
                f"would write the same output files ({_safe(persona.user_id)!r})"
            )
    scores = groundtruth.read_scores_csv(args.scores)
    vectors = embedding.load_vectors(args.vectors)
    catalog = nudge.SourceCatalog.from_scores(scores, vectors)
    profiles = []  # every persona checked against the catalog before any output
    for i, persona in enumerate(personas):
        limit = args.L if args.L is not None else persona.L
        try:
            profiles.append(
                nudge.profile_from_sources(persona.user_id, persona.sources, catalog, limit)
            )
        except ValueError as exc:
            reason = str(exc).removeprefix(f"{persona.user_id}: ")
            raise ValueError(
                f"{args.personas}: persona #{i} ({persona.user_id}): {reason}"
            ) from None

    out_dir.mkdir(parents=True, exist_ok=True)
    modes = ["constrained", "unconstrained"] if args.mode == "both" else [args.mode]
    runs: list[tuple[nudge.Trajectory, ...]] = []  # per persona, one run per mode
    for persona, profile in zip(personas, profiles):
        by_mode = []
        for m in modes:
            config = nudge.SimConfig(
                T=args.T,
                L=profile.limit,
                seed=args.seed,
                alpha=args.alpha,
                mode=m,
            )
            traj = nudge.simulate(profile, catalog, config)
            by_mode.append(traj)
            nudge.write_trajectory_csv(
                traj, out_dir / f"trajectory_{_safe(persona.user_id)}_{m}.csv"
            )
            where = traj.convergence_point
            print(
                f"user={persona.user_id} mode={m} "
                f"converged_at={'none' if where is None else where} "
                f"final_q={traj.final.q_u:.6f} final_l={traj.final.l_u:.6f}"
            )
        runs.append(tuple(by_mode))
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
    return 0


def _mean_quality(trajectories: tuple[nudge.Trajectory, ...]) -> list[float]:
    """Per step, the mean of ``q_u`` over the trajectories."""
    steps = zip(*([r.q_u for r in traj.steps] for traj in trajectories))
    return [sum(column) / len(trajectories) for column in steps]


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("NUDGESIM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _resolve_options(parser, args)
        if args.command == "embed" and args.seed < 0:
            # numpy's SeedSequence takes no negative entropy; simulate instead
            # masks its seed to 64 bits (nudge.rng_for_user)
            parser.error(f"argument --seed: must be >= 0 for embed, got {args.seed}")
        return args.run(args)
    except SystemExit as exc:  # parser.error from --config validation
        return int(exc.code or 0)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
