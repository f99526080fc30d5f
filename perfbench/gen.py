"""Seeded benchmark inputs: a news world realised as pipeline input files.

The world extends the recipe of the bundled 56-source world: ideological copy
clusters of low-quality outlets, a mainstream core (half of it at quality
1.0), and bridge outlets that copy one cluster and the core. On top of that
recipe some cluster outlets carry credibility flags, some are rated for only
one of quality and leaning, some are not rated at all, and a few rated
outlets publish nothing.

:func:`generate` returns the file contents together with the planted ground
truth the checks need: every story with its versions (hence the copy pairs),
the label table, the group of every source, the personas and the planted
vectors. Only numpy's seeded PCG64 generator draws, and every number is
written with ``repr``, so the same seed gives byte-identical files.

A story has at most one version per source: reposts by the same outlet make
``build-csn`` fail, so they live only in :func:`syndication_corpus`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

CATEGORY_VALUES = {
    "left": -1.0,
    "left-center": -0.5,
    "center": 0.0,
    "right-center": 0.5,
    "right": 1.0,
}
FLAGS = ("fake", "conspiracy", "junksci", "hate", "clickbait", "unreliable", "questionable")
LABEL_FIELDS = ["source", "newsguard", "os_flags", "mbfc_flags", "allsides", "buzzfeed", "mbfc_bias"]

# leaning centres of the ideological clusters, in the order they are used
_CLUSTER_LEANINGS = (0.6, -0.85, 0.95, -0.1, -0.6, 0.3, 0.8, -0.35)
_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)
_YEAR_MINUTES = 365 * 24 * 60
_VOCABULARY = 40_000
_ZIPF_OFFSET = 1_000  # flattens the head so unrelated articles share few terms
_TITLE_TOKENS = 6


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's inputs and the CLI settings run on them."""

    clusters: int
    cluster_size: int
    core_size: int
    bridges: int
    stories: int  # original stories per source
    tokens: int  # body tokens per story
    unlabeled: float  # share of cluster outlets no provider rates
    partial: float  # share of cluster outlets rated for one field only
    flagged: float  # share of cluster outlets carrying a credibility flag
    absent: int  # rated outlets that publish nothing
    personas: int
    persona_size: int
    L: int
    T: int
    alpha: float
    dims: int  # planted vector dims
    embed: dict = field(default_factory=dict)  # embed CLI options
    # calls of a stage in a row per round, so that every timed stage adds up
    # to a second or more per round and its median rests on enough calls
    repeats: dict = field(default_factory=dict)
    # wall time of one round on the reference host (2-core x86 VM), its
    # set-up repetition, probes and checks included; a run of ``seconds``
    # makes round(seconds / round_seconds) rounds, at least one
    round_seconds: float = 1.0
    threshold: float = 0.85

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of ``seconds``: fixed by ``seconds`` alone, not by
        the speed of the code or the host, so that every run of a workload
        attempts the same operations."""
        return max(1, round(seconds / self.round_seconds))

    def small(self) -> "Spec":
        """A few-source version of this spec, for the warm-up."""
        return replace(
            self, clusters=2, cluster_size=5, core_size=6, bridges=2, stories=3,
            absent=1, personas=2, T=10, repeats={},
            embed={**self.embed, "walk_length": 5, "walks_per_node": 1, "epochs": 1},
        )


LIGHT_EMBED = {
    "dims": 16, "walk_length": 10, "walks_per_node": 2, "window": 3, "epochs": 1,
    # so few updates per node need a larger step to show the clusters at all
    "learning_rate": 0.1,
}
# the bundled world's embedding settings (nudgesim.synthetic.WORLD_EMBED_PARAMS)
WORLD_EMBED = {"dims": 64, "walk_length": 40, "walks_per_node": 6, "window": 5, "epochs": 3}

WORKLOADS: dict[str, Spec] = {
    # ~6k long articles over 64 outlets: all-pairs similarity dominates
    "copy-detect": Spec(
        clusters=4, cluster_size=12, core_size=12, bridges=4, stories=40, tokens=80,
        unlabeled=0.1, partial=0.1, flagged=0.15, absent=2,
        personas=60, persona_size=4, L=5, T=15, alpha=0.5, dims=16, embed=LIGHT_EMBED,
        repeats={"embed": 16, "simulate": 4}, round_seconds=9.5,
    ),
    # the 56-outlet world shape with its embedding settings: skip-gram dominates
    "world": Spec(
        clusters=4, cluster_size=8, core_size=16, bridges=8, stories=6, tokens=60,
        unlabeled=0.1, partial=0.1, flagged=0.15, absent=2,
        personas=36, persona_size=4, L=5, T=150, alpha=0.5, dims=32, embed=WORLD_EMBED,
        repeats={"build-csn": 6, "simulate": 2}, round_seconds=11.0,
    ),
    # ~800 outlets with few short articles: per-source Python scans dominate
    "population": Spec(
        clusters=8, cluster_size=80, core_size=100, bridges=60, stories=2, tokens=20,
        unlabeled=0.15, partial=0.1, flagged=0.15, absent=8,
        personas=100, persona_size=4, L=5, T=12, alpha=0.5, dims=16, embed=LIGHT_EMBED,
        repeats={"build-csn": 2}, round_seconds=9.5,
    ),
}


@dataclass
class Inputs:
    """Generated files plus the planted ground truth behind them."""

    spec: Spec
    seed: int
    files: dict[str, str]  # file name -> content
    groups: dict[str, str]  # source -> cluster name, "core", "bridge" or "absent"
    labels: list[dict]  # rows of labels.csv as written (empty string = missing)
    stories: list[list[tuple[str, str, int]]]  # versions: (article_id, source, minute)
    article_counts: dict[str, int]
    personas: list[dict]
    vectors: dict[str, np.ndarray]

    def write(self, directory) -> None:
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (out / name).write_text(text, encoding="utf-8")


def _vocabulary() -> list[str]:
    """Distinct pronounceable pseudo-words, the same for every seed."""
    rng = np.random.default_rng(20191114)
    onsets = list("bcdfghjklmnprstvwz") + ["br", "ch", "dr", "gl", "kr", "pl", "sh", "st", "th", "tr"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < _VOCABULARY:
        n = int(rng.integers(2, 5))
        word = "".join(
            onsets[int(rng.integers(len(onsets)))] + vowels[int(rng.integers(len(vowels)))]
            for _ in range(n)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


_WORDS = _vocabulary()
_WORD_CUM = np.cumsum(1.0 / (np.arange(_VOCABULARY) + _ZIPF_OFFSET))
_WORD_CUM /= _WORD_CUM[-1]


def _draw_words(rng: np.random.Generator, n: int) -> list[int]:
    idx = np.searchsorted(_WORD_CUM, rng.random(n), side="right")
    return np.minimum(idx, _VOCABULARY - 1).tolist()


def _stamp(minute: int) -> str:
    return (_EPOCH + timedelta(minutes=minute)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _leaning_labels(rng: np.random.Generator, leaning: float) -> list[str]:
    """Three provider columns near ``leaning``; at least one is present."""
    names = list(CATEGORY_VALUES)
    values = np.array(list(CATEGORY_VALUES.values()))
    cols = []
    for _ in range(3):
        if rng.random() < 0.35:
            cols.append("")
            continue
        target = float(np.clip(leaning + rng.normal(0.0, 0.25), -1.0, 1.0))
        cols.append(names[int(np.argmin(np.abs(values - target)))])
    if not any(cols):
        cols[0] = names[int(np.argmin(np.abs(values - leaning)))]
    return cols


def _rating(rng: np.random.Generator, lo: float, hi: float) -> str:
    return repr(float(rng.integers(int(lo * 2), int(hi * 2) + 1)) / 2)


def generate(spec: Spec, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    cluster_names = [f"c{c}" for c in range(spec.clusters)]
    groups: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    for name in cluster_names:
        members[name] = [f"{name}-{k:03d}" for k in range(spec.cluster_size)]
    members["core"] = [f"core-{k:03d}" for k in range(spec.core_size)]
    members["bridge"] = [f"bridge-{k:03d}" for k in range(spec.bridges)]
    members["absent"] = [f"absent-{k:03d}" for k in range(spec.absent)]
    for group, names in members.items():
        for name in names:
            groups[name] = group
    home = {b: cluster_names[k % spec.clusters] for k, b in enumerate(members["bridge"])}

    # --- provider labels -------------------------------------------------
    lean_of: dict[str, float] = {}
    labels: list[dict] = []
    fully_rated: set[str] = set()
    for ci, name in enumerate(cluster_names):
        centre = _CLUSTER_LEANINGS[ci % len(_CLUSTER_LEANINGS)]
        for s in members[name]:
            lean_of[s] = float(np.clip(centre + rng.normal(0.0, 0.15), -1.0, 1.0))
    for s in members["core"]:
        lean_of[s] = float(rng.uniform(-1 / 3, 1 / 3))
    for b in members["bridge"]:
        centre = _CLUSTER_LEANINGS[cluster_names.index(home[b]) % len(_CLUSTER_LEANINGS)]
        lean_of[b] = centre / 2 + float(rng.normal(0.0, 0.1))
    for s in members["absent"]:
        lean_of[s] = float(rng.uniform(-1.0, 1.0))

    for s in sorted(groups):
        group = groups[s]
        row = dict.fromkeys(LABEL_FIELDS, "")
        row["source"] = s
        rate_quality = rate_leaning = True
        if group in cluster_names:
            u = rng.random()
            if s == members[group][0]:
                u = 1.0  # every cluster keeps a fully rated outlet for its personas
            if u < spec.unlabeled:
                rate_quality = rate_leaning = False
            elif u < spec.unlabeled + spec.partial:
                if rng.random() < 0.5:
                    rate_quality = False
                else:
                    rate_leaning = False
            if rate_quality:
                if rng.random() < spec.flagged:
                    column = "os_flags" if rng.random() < 0.5 else "mbfc_flags"
                    picks = rng.choice(len(FLAGS), size=int(rng.integers(1, 3)), replace=False)
                    row[column] = ";".join(sorted(FLAGS[i] for i in picks))
                    if rng.random() < 0.5:
                        row["newsguard"] = _rating(rng, 5, 60)
                else:
                    row["newsguard"] = _rating(rng, 5, 60)
        elif group == "core":
            row["newsguard"] = "100.0" if rng.random() < 0.5 else _rating(rng, 85, 99.5)
        elif group == "bridge":
            row["newsguard"] = _rating(rng, 30, 75)
        else:
            row["newsguard"] = _rating(rng, 5, 100)
        if rate_leaning:
            row["allsides"], row["buzzfeed"], row["mbfc_bias"] = _leaning_labels(rng, lean_of[s])
        if rate_quality and rate_leaning:
            fully_rated.add(s)
        if rate_quality or rate_leaning:
            labels.append(row)

    # --- stories and their copies ----------------------------------------
    candidates: dict[str, tuple[list[str], np.ndarray]] = {}
    for s, group in groups.items():
        if group == "absent":
            continue
        weighted: dict[str, float] = {}
        if group in cluster_names:
            for m in members[group]:
                weighted[m] = 1.0
            for b, h in home.items():
                if h == group:
                    weighted[b] = 0.5
        elif group == "core":
            for m in members["core"]:
                weighted[m] = 1.0
            for b in members["bridge"]:
                weighted[b] = 0.1
        else:
            for m in members[home[s]]:
                weighted[m] = 0.3
            for m in members["core"]:
                weighted[m] = 0.3
        weighted.pop(s, None)
        names = sorted(weighted)
        w = np.array([weighted[n] for n in names])
        candidates[s] = (names, w / w.sum())

    publishing = sorted(s for s, g in groups.items() if g != "absent")
    counter = dict.fromkeys(publishing, 0)
    max_edits = max(1, spec.tokens // 40)
    stories: list[list[tuple[str, str, int]]] = []
    records: list[tuple[int, str, dict]] = []
    for s in publishing:
        for _ in range(spec.stories):
            title = _draw_words(rng, _TITLE_TOKENS)
            body = _draw_words(rng, spec.tokens)
            start = int(rng.integers(0, _YEAR_MINUTES))
            names, p = candidates[s]
            n_copies = min(int(rng.choice([0, 0, 1, 1, 1, 2, 2, 3])), len(names))
            copiers = rng.choice(len(names), size=n_copies, replace=False, p=p).tolist()
            versions = []
            for k, source in enumerate([s] + [names[i] for i in copiers]):
                words = list(body)
                minute = start
                if k:
                    # a copier edits a few words; now and then it posts at the
                    # very same minute, which leaves the copy direction unknown
                    for _ in range(int(rng.integers(0, max_edits + 1))):
                        words[int(rng.integers(len(words)))] = _draw_words(rng, 1)[0]
                    if rng.random() >= 0.04:
                        minute = start + int(rng.integers(5, 72 * 60))
                article_id = f"{source}-{counter[source]:05d}"
                counter[source] += 1
                versions.append((article_id, source, minute))
                records.append(
                    (
                        minute,
                        article_id,
                        {
                            "id": article_id,
                            "source": source,
                            "title": " ".join(_WORDS[i] for i in title).capitalize(),
                            "content": " ".join(_WORDS[i] for i in words) + ".",
                            "published_at": _stamp(minute),
                        },
                    )
                )
            stories.append(versions)
    records.sort(key=lambda r: (r[0], r[1]))
    articles = "".join(json.dumps(rec, sort_keys=True) + "\n" for _, _, rec in records)

    # --- planted vectors -------------------------------------------------
    centres = {}
    for name in cluster_names + ["core"]:
        c = rng.normal(size=spec.dims)
        centres[name] = c / np.linalg.norm(c)
    vectors: dict[str, np.ndarray] = {}
    for s in sorted(groups):
        group = groups[s]
        if group == "bridge":
            centre = centres[home[s]] + centres["core"]
        elif group == "absent":
            centre = centres[cluster_names[int(rng.integers(spec.clusters))]]
        else:
            centre = centres[group]
        centre = centre / np.linalg.norm(centre)
        vectors[s] = centre + rng.normal(0.0, 0.35 / np.sqrt(spec.dims), size=spec.dims)
    vector_text = f"#vectors v1\tdims={spec.dims}\n" + "".join(
        s + "\t" + "\t".join(repr(float(x)) for x in vectors[s]) + "\n" for s in sorted(vectors)
    )

    # --- personas: readers inside one cluster, over rated outlets ---------
    personas = []
    for k in range(spec.personas):
        cluster = cluster_names[k % spec.clusters]
        pool = [s for s in members[cluster] if s in fully_rated]
        picks = rng.choice(len(pool), size=min(spec.persona_size, len(pool)), replace=False)
        personas.append(
            {
                "user_id": f"reader-{k:03d}-{cluster}",
                "sources": sorted(pool[i] for i in picks),
                "L": spec.L,
            }
        )

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LABEL_FIELDS)
    for row in labels:
        writer.writerow([row[f] for f in LABEL_FIELDS])

    return Inputs(
        spec=spec,
        seed=seed,
        files={
            "articles.jsonl": articles,
            "labels.csv": buf.getvalue(),
            "personas.json": json.dumps(personas, indent=1, sort_keys=True) + "\n",
            "vectors.tsv": vector_text,
        },
        groups=groups,
        labels=labels,
        stories=stories,
        article_counts={s: n for s, n in counter.items() if n},
        personas=personas,
        vectors=vectors,
    )


def syndication_corpus() -> str:
    """Three articles: outlet A posts one story twice, outlet B copies it once.

    Fixed, not seeded. Both of A's posts pair with B's copy, so the A -> B
    edge counts 2 copy pairs against B's single article.
    """
    body = " ".join(_WORDS[i] for i in range(100, 160)) + "."
    rows = [
        ("synd-a-1", "syndicate-a", "2018-05-01T08:00:00Z"),
        ("synd-a-2", "syndicate-a", "2018-05-01T09:00:00Z"),
        ("synd-b-1", "syndicate-b", "2018-05-01T10:00:00Z"),
    ]
    return "".join(
        json.dumps(
            {"id": i, "source": s, "title": "Shared story", "content": body, "published_at": t},
            sort_keys=True,
        )
        + "\n"
        for i, s, t in rows
    )
