"""Correctness checks on what the CLI writes.

Each check reads only the stage's output files and its stdout summary, and
compares them with an independent computation from the planted ground truth
in :class:`gen.Inputs`, or with a property of the method. None of them holds
a stored copy of earlier output. A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import CATEGORY_VALUES, Inputs

TOL = 1e-12
CONVERGED = 1.0 - 1e-9  # nudgesim's default convergence epsilon


class CheckError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _summary(stdout: str, prefix: str = "") -> dict[str, str]:
    """key=value fields of the first stdout line starting with ``prefix``."""
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return dict(part.split("=", 1) for part in line.split() if "=" in part)
    raise CheckError(f"no stdout summary line starting with {prefix!r}")


# --- ground truth -----------------------------------------------------------


def planted_pairs(inputs: Inputs) -> set[tuple[str, str, str, str]]:
    """Every cross-source pair of versions of one story with distinct
    timestamps, oriented earlier -> later."""
    pairs = set()
    for versions in inputs.stories:
        for i, first in enumerate(versions):
            for second in versions[i + 1 :]:
                if first[2] == second[2] or first[1] == second[1]:
                    continue
                (a, sa, _), (b, sb, _) = sorted((first, second), key=lambda v: v[2])
                pairs.add((a, b, sa, sb))
    return pairs


def planted_edges(inputs: Inputs) -> dict[tuple[str, str], int]:
    raw: dict[tuple[str, str], int] = {}
    for _a, _b, sa, sb in planted_pairs(inputs):
        raw[(sa, sb)] = raw.get((sa, sb), 0) + 1
    return raw


def expected_scores(inputs: Inputs) -> dict[str, tuple[float | None, float | None, str]]:
    """(quality, leaning, provenance) per source: flags give 0, otherwise
    rating / 100; leaning is the mean of the category values; gaps take the
    one-hop mean over neighbours whose own value came from providers."""
    provider: dict[str, tuple[float | None, float | None]] = {}
    for row in inputs.labels:
        if row["os_flags"] or row["mbfc_flags"]:
            q = 0.0
        elif row["newsguard"]:
            q = float(row["newsguard"]) / 100.0
        else:
            q = None
        cats = [CATEGORY_VALUES[row[c]] for c in ("allsides", "buzzfeed", "mbfc_bias") if row[c]]
        provider[row["source"]] = (q, sum(cats) / len(cats) if cats else None)

    neighbours: dict[str, set[str]] = {}
    for a, b in planted_edges(inputs):
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)

    def neighbour_mean(source: str, field: int) -> float | None:
        donors = [
            provider[n][field]
            for n in sorted(neighbours.get(source, ()))
            if n in provider and provider[n][field] is not None
        ]
        return sum(donors) / len(donors) if donors else None

    out = {}
    for source in sorted(set(provider) | set(neighbours)):
        q, l = provider.get(source, (None, None))
        filled = False
        if q is None:
            q = neighbour_mean(source, 0)
            filled = q is not None
        if l is None:
            l = neighbour_mean(source, 1)
            filled = filled or l is not None
        if q is None or l is None:
            provenance = "unavailable"
        else:
            provenance = "imputed" if filled else "labeled"
        out[source] = (q, l, provenance)
    return out


# --- stage checks -----------------------------------------------------------


def check_build_csn(inputs: Inputs, out_dir: Path, stdout: str) -> None:
    expected = planted_pairs(inputs)
    rows = [
        line.split("\t")
        for line in (out_dir / "pairs.tsv").read_text(encoding="utf-8").splitlines()
    ]
    listed = [tuple(r[:4]) for r in rows]
    _require(all(len(r) == 5 for r in rows), "pairs.tsv: row without 5 fields")
    _require(len(listed) == len(set(listed)), "pairs.tsv: duplicate pair")
    missing = expected - set(listed)
    extra = set(listed) - expected
    _require(
        not missing and not extra,
        f"pairs.tsv: {len(missing)} planted pair(s) missing, {len(extra)} unplanted listed",
    )
    threshold = inputs.spec.threshold
    for r in rows:
        sim = float(r[4])
        _require(threshold <= sim <= 1.0 + TOL, f"pairs.tsv: similarity {sim} outside [{threshold}, 1]")

    raw = planted_edges(inputs)
    nodes = sorted({s for edge in raw for s in edge})
    lines = (out_dir / "csn.tsv").read_text(encoding="utf-8").splitlines()
    _require(lines[:1] == ["#csn v1"], "csn.tsv: bad header")
    listed_nodes = {}
    listed_edges = {}
    for line in lines[1:]:
        f = line.split("\t")
        if f[0] == "#node":
            listed_nodes[f[1]] = int(f[2])
        else:
            listed_edges[(f[0], f[1])] = (int(f[2]), float(f[3]))
    _require(sorted(listed_nodes) == nodes, "csn.tsv: node set differs from the planted sources")
    for node, count in listed_nodes.items():
        _require(count == inputs.article_counts[node], f"csn.tsv: article count of {node} is {count}")
    _require(set(listed_edges) == set(raw), "csn.tsv: edge set differs from the planted copies")
    for (src, dst), (count, weight) in listed_edges.items():
        _require(count == raw[(src, dst)], f"csn.tsv: raw count of {src}->{dst} is {count}")
        expected_weight = count / inputs.article_counts[dst]
        _require(abs(weight - expected_weight) <= TOL, f"csn.tsv: weight of {src}->{dst} is {weight}")

    fields = _summary(stdout, "articles=")
    _require(
        int(fields["articles"]) == sum(inputs.article_counts.values())
        and fields["skipped"] == "0"
        and int(fields["pairs"]) == len(expected)
        and int(fields["nodes"]) == len(nodes)
        and int(fields["edges"]) == len(raw),
        f"build-csn summary {fields} disagrees with the planted corpus",
    )


def _same(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL


def check_annotate(inputs: Inputs, scores_path: Path, stdout: str) -> None:
    expected = expected_scores(inputs)
    listed = {}
    with open(scores_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == ["source", "quality", "leaning", "provenance"], "scores.csv: bad header")
        for source, q, l, provenance in reader:
            listed[source] = (float(q) if q else None, float(l) if l else None, provenance)
    _require(set(listed) == set(expected), "scores.csv: source set differs from labels + graph")
    for source, (q, l, provenance) in expected.items():
        got = listed[source]
        _require(
            _same(got[0], q) and _same(got[1], l) and got[2] == provenance,
            f"scores.csv: {source} is {got}, expected {(q, l, provenance)}",
        )
    fields = _summary(stdout, "sources=")
    counts = {p: sum(1 for v in expected.values() if v[2] == p) for p in ("labeled", "imputed", "unavailable")}
    _require(
        int(fields["sources"]) == len(expected) and all(int(fields[k]) == v for k, v in counts.items()),
        f"annotate summary {fields} disagrees with {counts}",
    )


def check_embed(inputs: Inputs, vectors_path: Path, stdout: str, dims: int) -> None:
    lines = vectors_path.read_text(encoding="utf-8").splitlines()
    _require(lines[0].split("\t")[0] == "#vectors v1", "vectors.tsv: bad header")
    rows = {}
    for line in lines[1:]:
        f = line.split("\t")
        _require(f[0] not in rows, f"vectors.tsv: duplicate row {f[0]}")
        rows[f[0]] = np.array([float(x) for x in f[1:]])
    nodes = sorted({s for edge in planted_edges(inputs) for s in edge})
    _require(sorted(rows) == nodes, "vectors.tsv: rows differ from the graph nodes")
    for node, v in rows.items():
        _require(v.shape == (dims,) and bool(np.all(np.isfinite(v))), f"vectors.tsv: bad row {node}")

    # homophily: planted clusters (core included, bridges excluded)
    members = [n for n in nodes if inputs.groups[n] != "bridge"]
    m = np.array([rows[n] for n in members])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = m @ m.T
    g = np.array([inputs.groups[n] for n in members])
    same = g[:, None] == g[None, :]
    off_diagonal = ~np.eye(len(members), dtype=bool)
    intra = float(cos[same & off_diagonal].mean())
    inter = float(cos[~same].mean())
    _require(intra > inter, f"vectors.tsv: mean intra-cluster cosine {intra:.4f} <= inter {inter:.4f}")
    fields = _summary(stdout, "nodes=")
    _require(
        int(fields["nodes"]) == len(nodes) and int(fields["dims"]) == dims,
        f"embed summary {fields} disagrees",
    )


class Catalog:
    """Scored, embedded sources as arrays, for replaying offers.

    Qualities are the ones ``simulate`` read from ``scores.csv``, which
    :func:`check_annotate` holds to the recomputed ones within ``TOL``; with
    them the strict rule "quality above the user's mean" replays exactly,
    ties included.
    """

    def __init__(self, inputs: Inputs, scores_path: Path):
        scores = expected_scores(inputs)
        self.ids = sorted(
            s
            for s, (q, l, p) in scores.items()
            if p in ("labeled", "imputed") and s in inputs.vectors
        )
        self.index = {s: i for i, s in enumerate(self.ids)}
        with open(scores_path, encoding="utf-8", newline="") as fh:
            written = {r["source"]: r["quality"] for r in csv.DictReader(fh)}
        self.quality = np.array([float(written[s]) for s in self.ids])
        self.leaning = np.array([scores[s][1] for s in self.ids])
        self.vectors = np.array([inputs.vectors[s] for s in self.ids])
        self.norms = np.linalg.norm(self.vectors, axis=1)

    def profile(self, members: list[str]) -> tuple[float, float, np.ndarray]:
        idx = [self.index[s] for s in members]
        q = sum(float(self.quality[i]) for i in idx) / len(idx)
        l = sum(float(self.leaning[i]) for i in idx) / len(idx)
        return q, l, self.vectors[idx].mean(axis=0)

    def costs(self, l_u: float, v_u: np.ndarray, alpha: float) -> np.ndarray:
        cos = (self.vectors @ v_u) / (self.norms * np.linalg.norm(v_u))
        return (1.0 - alpha) * np.abs(l_u - self.leaning) / 2.0 + alpha * (1.0 - cos)


def _read_trajectory(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def replay(
    catalog: Catalog, persona: dict, rows: list[dict], mode: str, alpha: float, q_start: float
) -> tuple[list[str], int | None]:
    """Check every step of one trajectory against the recomputed rule and
    return the final membership and the convergence point.

    Eligibility compares qualities with the user's mean as the program
    reported it before the step (``q_start``, then the previous row's
    ``q_u``), which is checked within ``TOL`` of the replayed mean. So a
    source whose quality ties the mean is ineligible even where rounding
    puts the replayed mean an ulp off."""
    members = sorted(persona["sources"])
    limit = persona["L"]
    converged_at = None
    user = persona["user_id"]
    q_before = q_start
    for row in rows:
        t = int(row["t"])
        q_u, l_u, v_u = catalog.profile(members)
        _require(abs(q_before - q_u) <= TOL, f"{user} {mode} t={t}: reported mean differs from the replay")
        is_member = np.zeros(len(catalog.ids), dtype=bool)
        is_member[[catalog.index[s] for s in members]] = True
        eligible = ~is_member & (catalog.quality > q_before)
        offer = row["recommended"]
        where = f"{user} {mode} t={t}"
        if not offer:
            _require(
                q_before >= CONVERGED or not eligible.any(),
                f"{where}: no offer although {int(eligible.sum())} source(s) are eligible",
            )
            _require(row["accepted"] == "false" and not row["dropped"], f"{where}: change without offer")
        else:
            _require(offer in catalog.index, f"{where}: offer {offer} is not in the catalog")
            k = catalog.index[offer]
            _require(eligible[k], f"{where}: offer {offer} is not eligible")
            _require(q_before < CONVERGED, f"{where}: offer made after convergence")
            cost = catalog.costs(l_u, v_u, alpha)
            _require(abs(float(row["trust_cost"]) - cost[k]) <= TOL, f"{where}: trust cost of {offer} is off")
            if mode == "constrained":
                _require(
                    cost[k] <= cost[eligible].min(initial=math.inf) + TOL,
                    f"{where}: offer {offer} is not the cheapest eligible source",
                )
            else:
                _require(
                    catalog.quality[k] >= catalog.quality[eligible].max(initial=-math.inf) - TOL,
                    f"{where}: offer {offer} is not the best eligible quality",
                )
            if len(members) < limit:
                expected_p = max(0.0, 1.0 - cost[k])
            else:
                pool = [catalog.index[s] for s in members] + [k]
                total = float(cost[pool].sum())
                expected_p = 1.0 - (cost[k] / total if total else 1.0 / len(pool))
            _require(abs(float(row["accept_prob"]) - expected_p) <= TOL, f"{where}: accept probability is off")
            if row["accepted"] == "true":
                dropped = row["dropped"]
                if dropped:
                    _require(len(members) == limit and dropped in members, f"{where}: bad drop {dropped}")
                    members.remove(dropped)
                else:
                    _require(len(members) < limit, f"{where}: accepted at capacity without a drop")
                members = sorted(members + [offer])
            else:
                _require(not row["dropped"], f"{where}: drop without acceptance")
        q_after, l_after, _ = catalog.profile(members)
        _require(
            abs(float(row["q_u"]) - q_after) <= TOL and abs(float(row["l_u"]) - l_after) <= TOL,
            f"{where}: reported means differ from the replayed membership",
        )
        if converged_at is None and q_after >= CONVERGED:
            converged_at = t
        q_before = float(row["q_u"])
    return members, converged_at


def check_simulate(inputs: Inputs, scores_path: Path, sim_dir: Path, stdout: str) -> None:
    spec = inputs.spec
    catalog = Catalog(inputs, scores_path)
    summary = {
        (e["user_id"], e["config"]["mode"]): e
        for e in json.loads((sim_dir / "summary.json").read_text(encoding="utf-8"))
    }
    _require(len(summary) == 2 * len(inputs.personas), "summary.json: wrong number of runs")
    printed = [
        dict(part.split("=", 1) for part in line.split())
        for line in stdout.splitlines()
        if line.startswith("user=")
    ]
    printed_by = {(p["user"], p["mode"]): p for p in printed}
    for persona in inputs.personas:
        user = persona["user_id"]
        first_costs = {}
        for mode in ("constrained", "unconstrained"):
            rows = _read_trajectory(sim_dir / f"trajectory_{user}_{mode}.csv")
            _require(len(rows) == spec.T, f"{user} {mode}: {len(rows)} steps, expected {spec.T}")
            entry = summary[(user, mode)]
            final, converged_at = replay(catalog, persona, rows, mode, spec.alpha, entry["start"]["q_u"])
            accepted = sum(1 for r in rows if r["accepted"] == "true")
            _require(entry["accepted_steps"] == accepted, f"{user} {mode}: accepted_steps disagrees with the CSV")
            _require(entry["start"]["sources"] == sorted(persona["sources"]), f"{user} {mode}: start differs")
            _require(entry["end"]["sources"] == final, f"{user} {mode}: end differs from the replay")
            _require(entry["convergence_point"] == converged_at, f"{user} {mode}: convergence point differs")
            line = printed_by.get((user, mode))
            _require(
                line is not None and line["converged_at"] == ("none" if converged_at is None else str(converged_at)),
                f"{user} {mode}: stdout line disagrees",
            )
            if rows[0]["trust_cost"]:
                first_costs[mode] = float(rows[0]["trust_cost"])
        if len(first_costs) == 2:
            _require(
                first_costs["constrained"] <= first_costs["unconstrained"] + TOL,
                f"{user}: the nudged first offer costs more than the quality-first one",
            )

