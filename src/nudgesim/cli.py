"""Command-line pipeline: build-csn -> annotate -> embed -> simulate.

Exit codes: 0 success, 1 runtime/data error (diagnostic on stderr), 2
usage/validation error. Global flags (--seed, --config, --out-dir) may appear
before the subcommand; --seed and --out-dir are also accepted after it.
Option precedence is CLI flag, then --config JSON value (keyed by option
name), then built-in default. NUDGESIM_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import corpus, embedding, graph, groundtruth, nudge, svgplot

log = logging.getLogger("nudgesim")

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def _threshold(value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not (0.0 < out <= 1.0):
        raise argparse.ArgumentTypeError(f"threshold must lie in (0, 1], got {out}")
    return out


def _alpha(value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not (0.0 < out < 1.0):
        raise argparse.ArgumentTypeError(f"alpha must lie strictly inside (0, 1), got {out}")
    return out


def _positive_int(value) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if out < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {out}")
    return out


def _nonnegative_int(value) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if out < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {out}")
    return out


def _positive_float(value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if out <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {out}")
    return out


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")
    return value


def _mode(value) -> str:
    if value not in ("constrained", "unconstrained", "both"):
        raise argparse.ArgumentTypeError(
            f"mode must be constrained, unconstrained, or both, got {value!r}"
        )
    return value


_VALIDATORS = {
    "threshold": _threshold,
    "alpha": _alpha,
    "mode": _mode,
    "seed": int,
    "dims": _positive_int,
    "walk_length": _positive_int,
    "walks_per_node": _positive_int,
    "window": _positive_int,
    "epochs": _positive_int,
    "negatives": _nonnegative_int,
    "learning_rate": _positive_float,
    "p": _positive_float,
    "q": _positive_float,
    "T": _positive_int,
    "L": _positive_int,
    "directed": _flag,
}

_DEFAULTS = {
    "threshold": corpus.DEFAULT_SIMILARITY_THRESHOLD,
    "alpha": nudge.DEFAULT_ALPHA,
    "seed": 0,
    "dims": embedding.DEFAULT_DIMS,
    "walk_length": embedding.DEFAULT_WALK_LENGTH,
    "walks_per_node": embedding.DEFAULT_WALKS_PER_NODE,
    "window": embedding.DEFAULT_WINDOW,
    "epochs": embedding.DEFAULT_EPOCHS,
    "negatives": embedding.DEFAULT_NEGATIVES,
    "learning_rate": embedding.DEFAULT_LEARNING_RATE,
    "p": 1.0,
    "q": 1.0,
    "T": 500,
    "L": None,
    "mode": "constrained",
    "out_dir": ".",
    "directed": False,
}


class _Options:
    """Merged view of CLI args, config-file values, and defaults."""

    def __init__(self, parser: argparse.ArgumentParser, args: argparse.Namespace):
        self._parser = parser
        self._args = args
        self._config: dict = {}
        config_path = getattr(args, "config", None)
        if config_path:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    self._config = json.load(fh)
            except OSError as exc:
                raise RuntimeError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise RuntimeError(f"config file {config_path}: {exc}") from exc
            if not isinstance(self._config, dict):
                raise RuntimeError(f"config file {config_path}: expected a JSON object")

    def get(self, name: str):
        flag = f"--{name.replace('_', '-')}"
        value = getattr(self._args, name, None)
        if value is None:
            if name in self._config and self._config[name] is None:
                self._parser.error(f"{flag}: expected a value, got null")
            value = self._config.get(name, _DEFAULTS.get(name))
        if value is None:
            return None
        validator = _VALIDATORS.get(name)
        if validator is not None:
            try:
                value = validator(value)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                self._parser.error(f"{flag}: {exc}")
        return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nudgesim",
        description="Copy-network construction, source scoring, graph embeddings, "
        "and trust-aware recommendation simulation.",
    )
    parser.add_argument("--seed", help="base RNG seed (default 0)")
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", default=argparse.SUPPRESS, help="base RNG seed")
        sp.add_argument(
            "--out-dir", dest="out_dir", default=argparse.SUPPRESS, help="output directory"
        )

    p_build = sub.add_parser("build-csn", help="detect copy pairs and build the source graph")
    p_build.add_argument("articles", help="JSONL corpus (id, source, title, content, published_at)")
    p_build.add_argument("--threshold", help="cosine similarity cutoff in (0, 1], default 0.85")
    p_build.add_argument("--out", help="output directory for pairs.tsv + csn.tsv")
    add_common(p_build)

    p_ann = sub.add_parser("annotate", help="derive quality/leaning scores for graph sources")
    p_ann.add_argument("labels", help="provider labels CSV")
    p_ann.add_argument("csn", help="graph TSV from build-csn")
    p_ann.add_argument("--out", help="output scores CSV (default <out-dir>/scores.csv)")
    add_common(p_ann)

    p_embed = sub.add_parser("embed", help="learn node vectors for the graph")
    p_embed.add_argument("csn", help="graph TSV from build-csn")
    p_embed.add_argument("--out", help="output vectors TSV (default <out-dir>/vectors.tsv)")
    p_embed.add_argument("--dims", help="vector dimensionality (default 64)")
    p_embed.add_argument("--p", help="walk return parameter (default 1.0)")
    p_embed.add_argument("--q", help="walk in-out parameter (default 1.0)")
    p_embed.add_argument("--walk-length", dest="walk_length", help="steps per walk (default 80)")
    p_embed.add_argument(
        "--walks-per-node", dest="walks_per_node", help="walks per start node (default 10)"
    )
    p_embed.add_argument("--window", help="context window (default 10)")
    p_embed.add_argument("--negatives", help="negative samples per pair (default 5)")
    p_embed.add_argument("--epochs", help="training epochs (default 5)")
    p_embed.add_argument(
        "--learning-rate", dest="learning_rate", help="initial learning rate (default 0.025)"
    )
    p_embed.add_argument(
        "--directed",
        action="store_const",
        const=True,
        default=argparse.SUPPRESS,
        help="walk the graph as directed instead of the undirected view",
    )
    add_common(p_embed)

    p_sim = sub.add_parser("simulate", help="run trust-aware recommendation dynamics")
    p_sim.add_argument("personas", help="JSON list of {user_id, sources, L}")
    p_sim.add_argument("scores", help="scores CSV from annotate")
    p_sim.add_argument("vectors", help="vectors TSV from embed")
    p_sim.add_argument("--alpha", help="trust-cost mix in (0, 1), default 0.5")
    p_sim.add_argument("--T", dest="T", help="iterations per user (default 500)")
    p_sim.add_argument("--L", dest="L", help="attention limit override (default: persona L)")
    p_sim.add_argument(
        "--mode",
        choices=["constrained", "unconstrained", "both"],
        default=None,
        help="recommendation rule (default constrained)",
    )
    add_common(p_sim)

    return parser


def cmd_build_csn(opts: _Options, args: argparse.Namespace) -> int:
    threshold = opts.get("threshold")
    out_dir = Path(args.out or opts.get("out_dir"))
    try:
        articles = corpus.load_articles(args.articles)
    except OSError as exc:
        print(f"error: cannot read articles: {exc}", file=sys.stderr)
        return 1
    tfidf = corpus.tfidf_vectors(articles)
    pairs = corpus.similar_pairs(tfidf, articles, threshold=threshold)
    csn = graph.build_csn(pairs, articles.source_counts())
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.write_pairs_tsv(pairs, out_dir / "pairs.tsv")
    graph.save_graph(csn, out_dir / "csn.tsv")
    print(
        f"articles={len(articles.articles)} skipped={articles.skipped} "
        f"pairs={len(pairs)} nodes={len(csn.nodes)} edges={len(csn.edges)}"
    )
    return 0


def cmd_annotate(opts: _Options, args: argparse.Namespace) -> int:
    out_dir = Path(opts.get("out_dir"))
    out_path = Path(args.out) if args.out else out_dir / "scores.csv"
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
    if len(set(assignment.labels.values())) < 2:
        return
    intra: list[float] = []
    inter: list[float] = []
    nodes = sorted(vectors.vectors)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            cos = 1.0 - embedding.cosine_distance(vectors.vectors[a], vectors.vectors[b])
            (intra if assignment.labels[a] == assignment.labels[b] else inter).append(cos)
    if intra and inter:
        log.info(
            "homophily check: mean intra-community cosine %.4f vs inter %.4f "
            "across %d communities",
            float(np.mean(intra)),
            float(np.mean(inter)),
            len(set(assignment.labels.values())),
        )


def cmd_embed(opts: _Options, args: argparse.Namespace) -> int:
    out_dir = Path(opts.get("out_dir"))
    out_path = Path(args.out) if args.out else out_dir / "vectors.tsv"
    csn = graph.load_graph(args.csn)
    if not csn.nodes:
        print("error: graph has no nodes; nothing to embed", file=sys.stderr)
        return 1
    vectors = embedding.embed_graph(
        csn,
        seed=opts.get("seed"),
        dims=opts.get("dims"),
        p=opts.get("p"),
        q=opts.get("q"),
        walk_length=opts.get("walk_length"),
        walks_per_node=opts.get("walks_per_node"),
        window=opts.get("window"),
        negatives=opts.get("negatives"),
        epochs=opts.get("epochs"),
        learning_rate=opts.get("learning_rate"),
        directed=opts.get("directed"),
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    embedding.save_vectors(vectors, out_path)
    if log.isEnabledFor(logging.INFO):
        _log_homophily(csn, vectors)
    print(f"nodes={len(vectors.vectors)} dims={vectors.dims}")
    return 0


def _safe(name: str) -> str:
    return _SAFE_NAME.sub("_", name)


def cmd_simulate(opts: _Options, args: argparse.Namespace) -> int:
    out_dir = Path(opts.get("out_dir"))
    mode = opts.get("mode")
    personas = nudge.load_personas(args.personas)
    scores = groundtruth.read_scores_csv(args.scores)
    vectors = embedding.load_vectors(args.vectors)
    catalog = nudge.SourceCatalog.from_scores(scores, vectors)
    seed = opts.get("seed")
    alpha = opts.get("alpha")
    iterations = opts.get("T")
    limit_override = opts.get("L")

    out_dir.mkdir(parents=True, exist_ok=True)
    modes = ["constrained", "unconstrained"] if mode == "both" else [mode]
    trajectories: list[nudge.Trajectory] = []
    for persona in personas:
        limit = limit_override if limit_override is not None else persona.L
        profile = nudge.profile_from_sources(persona.user_id, persona.sources, catalog, limit)
        by_mode: dict[str, nudge.Trajectory] = {}
        for m in modes:
            config = nudge.SimConfig(
                T=iterations, L=limit, seed=seed, alpha=alpha, mode=m
            )
            traj = nudge.simulate(profile, catalog, config)
            by_mode[m] = traj
            trajectories.append(traj)
            stem = f"trajectory_{_safe(persona.user_id)}_{m}"
            nudge.write_trajectory_csv(traj, out_dir / f"{stem}.csv")
            svgplot.line_chart(
                [
                    ("mean quality", [r.q_u for r in traj.steps]),
                    ("mean leaning", [r.l_u for r in traj.steps]),
                ],
                title=f"{persona.user_id} ({m})",
                y_label="profile mean",
                path=out_dir / f"{stem}.svg",
                y_range=(-1.0, 1.05),
            )
            where = traj.convergence_point
            print(
                f"user={persona.user_id} mode={m} "
                f"converged_at={'none' if where is None else where} "
                f"final_q={traj.final.q_u:.6f} final_l={traj.final.l_u:.6f}"
            )
        if mode == "both":
            _write_comparison(by_mode, persona.user_id, out_dir)
    nudge.write_summary_json(trajectories, out_dir / "summary.json")
    return 0


def _write_comparison(
    by_mode: dict[str, nudge.Trajectory], user_id: str, out_dir: Path
) -> None:
    con = by_mode["constrained"].steps
    unc = by_mode["unconstrained"].steps
    path = out_dir / f"comparison_{_safe(user_id)}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,constrained_trust_cost,unconstrained_trust_cost\n")
        for t, (a, b) in enumerate(zip_longest(con, unc)):
            ca = "" if a is None or a.trust_cost is None else repr(a.trust_cost)
            cb = "" if b is None or b.trust_cost is None else repr(b.trust_cost)
            fh.write(f"{t},{ca},{cb}\n")
    con_series = [r.trust_cost for r in con if r.trust_cost is not None]
    unc_series = [r.trust_cost for r in unc if r.trust_cost is not None]
    if con_series and unc_series:
        svgplot.line_chart(
            [("constrained", con_series), ("unconstrained", unc_series)],
            title=f"{user_id}: trust cost per offered source",
            y_label="trust cost",
            path=out_dir / f"comparison_{_safe(user_id)}.svg",
        )


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

    handlers = {
        "build-csn": cmd_build_csn,
        "annotate": cmd_annotate,
        "embed": cmd_embed,
        "simulate": cmd_simulate,
    }
    try:
        opts = _Options(parser, args)
        return handlers[args.command](opts, args)
    except SystemExit as exc:  # parser.error from merged-option validation
        return int(exc.code or 0)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
