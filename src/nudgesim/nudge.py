"""Trust-aware recommendation dynamics.

A simulated user trusts a small set of sources (at most ``L``). Each step the
engine offers the cheapest strictly-higher-quality source, where cost blends
leaning distance with embedding distance:

    t(s', u) = (1 - alpha) * |l_u - l_s'| / 2 + alpha * (1 - cos(v_u, v_s'))

Below capacity the offer is accepted with probability max(0, 1 - t); at
capacity a lottery proportional to each candidate's trust cost evicts one of
the current members or the offer itself (eviction of the offer = rejection).
An unconstrained baseline picks the highest-quality eligible source instead,
with identical acceptance mechanics.

Randomness: one PCG64 substream per user, derived from the run seed and a
SHA-256 hash of the user id, consuming exactly one uniform draw per stochastic
decision — trajectories are reproducible across platforms.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .corpus import read_utf8
from .embedding import SourceVectors
from .groundtruth import SourceScore

DEFAULT_ALPHA = 0.5
DEFAULT_EPSILON = 1e-9
# approximate costs this close to the smallest are verified with trust_cost
_VERIFY_MARGIN = 1e-9

TRAJECTORY_FIELDS = ["t", "recommended", "trust_cost", "accept_prob", "accepted", "dropped", "q_u", "l_u"]
COMPARISON_FIELDS = ["user_id", "t", "constrained_trust_cost", "unconstrained_trust_cost"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class Source:
    source_id: str
    quality: float
    leaning: float
    vector: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 <= self.quality <= 1.0):
            raise ValueError(f"{self.source_id}: quality {self.quality} outside [0, 1]")
        if not (-1.0 <= self.leaning <= 1.0):
            raise ValueError(f"{self.source_id}: leaning {self.leaning} outside [-1, 1]")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError(f"{self.source_id}: vector has non-finite components")


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


class SourceCatalog:
    """Immutable id-keyed collection of fully scored, embedded sources.

    Row ``i`` of the read-only arrays ``quality``, ``leaning``, ``vectors``
    and ``norms`` (each vector's ``np.linalg.norm``) describes the ``i``-th
    id in sorted order; ``index`` maps an id to its row."""

    def __init__(self, sources) -> None:
        by_id: dict[str, Source] = {}
        dims: int | None = None
        for source in sources:
            if source.source_id in by_id:
                raise ValueError(f"duplicate source {source.source_id!r}")
            if dims is None:
                dims = len(source.vector)
            elif len(source.vector) != dims:
                raise ValueError(
                    f"{source.source_id}: vector has {len(source.vector)} dims, expected {dims}"
                )
            by_id[source.source_id] = source
        if not by_id:
            raise ValueError("catalog must contain at least one source")
        self._ids = sorted(by_id)
        self._rows = tuple(by_id[s] for s in self._ids)
        self.index = MappingProxyType({s: i for i, s in enumerate(self._ids)})
        self.quality = _frozen([s.quality for s in self._rows])
        self.leaning = _frozen([s.leaning for s in self._rows])
        self.vectors = _frozen(np.reshape([s.vector for s in self._rows], (len(self._rows), dims)))
        self.norms = _frozen([np.linalg.norm(s.vector) for s in self._rows])
        # Python-float copies for the per-step scalar arithmetic
        self._quality = self.quality.tolist()
        self._leaning = self.leaning.tolist()
        self._norms = self.norms.tolist()

    @classmethod
    def from_scores(cls, scores: dict[str, SourceScore], vectors: SourceVectors) -> "SourceCatalog":
        """Keep the sources that are actually usable: scored (labeled or
        imputed, which have both fields) and embedded."""
        usable = []
        for source_id in sorted(scores):
            sc = scores[source_id]
            if sc.provenance not in ("labeled", "imputed"):
                continue
            vec = vectors.vectors.get(source_id)
            if vec is None:
                continue
            usable.append(Source(source_id, sc.quality, sc.leaning, vec))
        return cls(usable)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self.index

    def __getitem__(self, source_id: str) -> Source:
        return self._rows[self.index[source_id]]

    def ids(self) -> list[str]:
        return list(self._ids)

    def max_quality(self) -> float:
        return float(self.quality.max())


@dataclass
class UserProfile:
    """Trusted-source membership plus the running means derived from it."""

    user_id: str
    sources: list[str]
    limit: int
    q_u: float = 0.0
    l_u: float = 0.0
    v_u: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def copy(self) -> "UserProfile":
        return UserProfile(
            self.user_id, list(self.sources), self.limit, self.q_u, self.l_u, self.v_u.copy()
        )


def update_scores(u: UserProfile, catalog: SourceCatalog) -> None:
    """Recompute the profile means from current membership (idempotent)."""
    rows = [catalog.index[s] for s in u.sources]
    u.q_u = sum(catalog._quality[r] for r in rows) / len(rows)
    u.l_u = sum(catalog._leaning[r] for r in rows) / len(rows)
    u.v_u = catalog.vectors[rows].mean(axis=0)


def profile_from_sources(
    user_id: str, trusted, catalog: SourceCatalog, limit: int
) -> UserProfile:
    sources = sorted(trusted)
    if not sources:
        raise ValueError(f"{user_id}: trusted set must be non-empty")
    if len(sources) != len(set(sources)):
        raise ValueError(f"{user_id}: duplicate trusted sources")
    if limit < 1:
        raise ValueError(f"{user_id}: limit must be >= 1")
    if len(sources) > limit:
        raise ValueError(f"{user_id}: {len(sources)} trusted sources exceed limit {limit}")
    for s in sources:
        if s not in catalog:
            raise ValueError(f"{user_id}: unknown source {s!r}")
    u = UserProfile(user_id=user_id, sources=sources, limit=limit)
    update_scores(u, catalog)
    return u


@dataclass(frozen=True)
class SimConfig:
    T: int
    L: int
    seed: int
    alpha: float = DEFAULT_ALPHA
    mode: str = "constrained"
    epsilon_converge: ClassVar[float] = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        _check_alpha(self.alpha)
        if self.mode not in ("constrained", "unconstrained"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class StepRecord:
    """One iteration. ``q_u``/``l_u`` are the post-step means. At capacity
    ``accept_probability`` is the chance the offer survives the drop lottery;
    a lottery loss shows as accepted=False with dropped=None."""

    t: int
    recommended: str | None
    trust_cost: float | None
    accept_probability: float | None
    accepted: bool
    dropped: str | None
    q_u: float
    l_u: float


@dataclass
class Trajectory:
    user_id: str
    config: SimConfig
    steps: list[StepRecord]
    convergence_point: int | None
    start: UserProfile
    final: UserProfile


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")


def _cost(l_u, v_u, norm_u, leaning, vector, norm, alpha) -> float:
    """The trust cost from its parts; a zero norm on either side gives the
    neutral cosine distance 1.0."""
    if norm_u == 0.0 or norm == 0.0:
        distance = 1.0
    else:
        distance = 1.0 - float(np.dot(v_u, vector)) / (norm_u * norm)
    return (1.0 - alpha) * (abs(l_u - leaning) / 2.0) + alpha * distance


def trust_cost(s_prime: Source, u: UserProfile, alpha: float) -> float:
    _check_alpha(alpha)
    norm_u = float(np.linalg.norm(u.v_u))
    norm = float(np.linalg.norm(s_prime.vector))
    return _cost(u.l_u, u.v_u, norm_u, s_prime.leaning, s_prime.vector, norm, alpha)


def _row_costs(u: UserProfile, catalog: SourceCatalog, rows, alpha: float, norm_u: float):
    """``trust_cost`` of each catalog row, bit for bit: ``norm_u`` is the
    profile's ``np.linalg.norm`` and the catalog caches each source's. The
    caller has checked ``alpha``."""
    l_u, v_u, leaning, vectors, norms = u.l_u, u.v_u, catalog._leaning, catalog.vectors, catalog._norms
    return [_cost(l_u, v_u, norm_u, leaning[r], vectors[r], norms[r], alpha) for r in rows]


def _eligible_rows(u: UserProfile, catalog: SourceCatalog) -> np.ndarray:
    """Rows of the sources strictly above the user's mean quality and not
    already trusted, in sorted-id order."""
    mask = catalog.quality > u.q_u
    mask[[catalog.index[s] for s in u.sources]] = False
    return np.flatnonzero(mask)


def _approximate_costs(
    u: UserProfile, catalog: SourceCatalog, rows: np.ndarray, alpha: float, norm_u: float
):
    """``trust_cost`` of each row from one mat-vec and the cached norms. It
    may differ from the scalar cost in the last bits, or come out non-finite
    where the scalar cost overflows."""
    norms = catalog.norms[rows]
    distance = np.ones(len(rows))
    if norm_u != 0.0:
        live = norms != 0.0  # a zero norm on either side gives the neutral 1.0
        dots = (catalog.vectors @ u.v_u)[rows[live]]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            distance[live] = 1.0 - dots / (norms[live] * norm_u)
    leaning_distance = np.abs(u.l_u - catalog.leaning[rows]) / 2.0
    return (1.0 - alpha) * leaning_distance + alpha * distance


def select_recommendation(
    u: UserProfile, catalog: SourceCatalog, alpha: float
) -> Source | None:
    """Cheapest eligible source by trust cost; ties go to the smallest
    source_id; None when nothing qualifies.

    Approximate costs filter the candidates: only rows within
    ``_VERIFY_MARGIN`` of the smallest one, and rows whose approximate cost is
    not finite, are recomputed exactly, in id order. The margin is far above
    the rounding gap between the two, so the exact argmin is always among
    them and the result is the exhaustive scalar argmin."""
    _check_alpha(alpha)
    rows = _eligible_rows(u, catalog)
    if not rows.size:
        return None
    norm_u = float(np.linalg.norm(u.v_u))
    approx = _approximate_costs(u, catalog, rows, alpha, norm_u)
    finite = np.isfinite(approx)
    keep = ~finite
    if finite.any():
        keep[finite] = approx[finite] <= approx[finite].min() + _VERIFY_MARGIN
    candidates = rows[keep].tolist()
    best: int | None = None
    best_cost = float("inf")
    for row, cost in zip(candidates, _row_costs(u, catalog, candidates, alpha, norm_u)):
        if cost < best_cost:
            best, best_cost = row, cost
    return None if best is None else catalog._rows[best]


def _highest_quality(u: UserProfile, catalog: SourceCatalog) -> Source | None:
    """Highest-quality eligible source; argmax keeps the first maximum in
    sorted-id order, so ties go to the smallest id."""
    rows = _eligible_rows(u, catalog)
    if not rows.size:
        return None
    return catalog._rows[rows[np.argmax(catalog.quality[rows])]]


def drop_distribution(
    u: UserProfile, s_prime: Source, catalog: SourceCatalog, alpha: float
) -> dict[str, float]:
    """Eviction probabilities over the current members plus the offer, in
    sorted-id order, proportional to trust cost against the current profile;
    uniform when every cost is zero."""
    _check_alpha(alpha)
    if len(u.sources) != u.limit:
        raise ValueError(
            f"{u.user_id}: drop lottery requires a full profile "
            f"({len(u.sources)}/{u.limit} sources)"
        )
    if s_prime.source_id in u.sources:
        raise ValueError(f"{u.user_id}: candidate {s_prime.source_id!r} already trusted")
    offer = catalog.index[s_prime.source_id]
    rows, _, shares = _lottery(u, catalog, offer, alpha, float(np.linalg.norm(u.v_u)))
    return dict(zip((catalog._ids[r] for r in rows), shares))


def _lottery(u: UserProfile, catalog: SourceCatalog, offer: int, alpha: float, norm_u: float):
    """The rows of the members and the offer in id order, their trust costs
    and their drop shares: ``c / sum(costs)``, or uniform when every cost is
    zero."""
    rows = sorted([catalog.index[s] for s in u.sources] + [offer])
    costs = _row_costs(u, catalog, rows, alpha, norm_u)
    total = sum(costs)
    if total == 0.0:
        return rows, costs, [1.0 / len(costs)] * len(costs)
    return rows, costs, [c / total for c in costs]


def _converged(u: UserProfile, config: SimConfig) -> bool:
    return u.q_u >= 1.0 - config.epsilon_converge


def _noop_record(t: int, u: UserProfile) -> StepRecord:
    return StepRecord(
        t=t,
        recommended=None,
        trust_cost=None,
        accept_probability=None,
        accepted=False,
        dropped=None,
        q_u=u.q_u,
        l_u=u.l_u,
    )


def _step(
    u: UserProfile,
    catalog: SourceCatalog,
    config: SimConfig,
    rng: np.random.Generator,
    t: int,
) -> StepRecord:
    """One iteration of a user who has not converged, mutating ``u`` in
    place. No uniform is drawn when nothing is eligible."""
    if config.mode == "unconstrained":
        s_prime = _highest_quality(u, catalog)
    else:
        s_prime = select_recommendation(u, catalog, config.alpha)
    if s_prime is None:
        return _noop_record(t, u)

    offer = catalog.index[s_prime.source_id]
    norm_u = float(np.linalg.norm(u.v_u))
    if len(u.sources) < config.L:
        (cost,) = _row_costs(u, catalog, [offer], config.alpha, norm_u)
        accept_probability = max(0.0, 1.0 - cost)
        accepted = rng.random() < accept_probability
        dropped = None
        if accepted:
            u.sources = sorted(u.sources + [s_prime.source_id])
    else:
        rows, costs, shares = _lottery(u, catalog, offer, config.alpha, norm_u)
        at = rows.index(offer)
        cost = costs[at]
        draw = rng.random()
        idx = min(bisect.bisect_right(list(itertools.accumulate(shares)), draw), len(rows) - 1)
        accept_probability = 1.0 - shares[at]
        accepted = idx != at
        dropped = catalog._ids[rows[idx]] if accepted else None
        if accepted:
            u.sources = sorted(s for s in u.sources + [s_prime.source_id] if s != dropped)
    if accepted:
        update_scores(u, catalog)
    return StepRecord(
        t=t,
        recommended=s_prime.source_id,
        trust_cost=cost,
        accept_probability=accept_probability,
        accepted=accepted,
        dropped=dropped,
        q_u=u.q_u,
        l_u=u.l_u,
    )


def rng_for_user(seed: int, user_id: str) -> np.random.Generator:
    """Per-user PCG64 substream: entropy = (seed as unsigned 64-bit, first 8
    bytes of SHA-256(user_id)). Distinct users never share a stream."""
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    entropy = [seed & _MASK64, int.from_bytes(digest[:8], "big")]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def simulate(u0: UserProfile, catalog: SourceCatalog, config: SimConfig) -> Trajectory:
    """Run the recommendation dynamics for ``config.T`` steps.

    ``config.mode`` picks the offer among the eligible sources (strictly
    above the user's mean quality, not yet trusted): ``"constrained"`` offers
    the cheapest by trust cost, ``"unconstrained"`` the highest quality; ties
    go to the smallest id. Acceptance and drop mechanics are shared, and the
    trust cost of each offer is recorded in both modes. Pure in its inputs:
    ``u0`` is copied, and the outcome is a function of (u0, catalog, config)
    alone."""
    for s in u0.sources:
        if s not in catalog:
            raise ValueError(f"{u0.user_id}: unknown source {s!r}")
    if len(u0.sources) > config.L:
        raise ValueError(
            f"{u0.user_id}: {len(u0.sources)} trusted sources exceed limit {config.L}"
        )
    start = u0.copy()
    u = u0.copy()
    u.limit = config.L
    update_scores(u, catalog)
    rng = rng_for_user(config.seed, u.user_id)
    records = []
    t = 0
    while t < config.T and not _converged(u, config):
        records.append(_step(u, catalog, config, rng, t))
        t += 1
        if records[-1].recommended is None:
            break
    # a converged user, or one with nothing eligible, never changes again:
    # every later step is a no-op that draws nothing
    records += [_noop_record(rest, u) for rest in range(t, config.T)]
    traj = Trajectory(
        user_id=u.user_id,
        config=config,
        steps=records,
        convergence_point=None,
        start=start,
        final=u,
    )
    traj.convergence_point = convergence_point(traj)
    return traj


def convergence_point(traj: Trajectory) -> int | None:
    """First step whose post-step mean quality clears 1 - epsilon, if any."""
    eps = traj.config.epsilon_converge
    return next((r.t for r in traj.steps if r.q_u >= 1.0 - eps), None)


def _optional(x: float | None) -> str:
    return "" if x is None else repr(x)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_FIELDS)
        for r in traj.steps:
            writer.writerow(
                [
                    r.t,
                    r.recommended or "",
                    _optional(r.trust_cost),
                    _optional(r.accept_probability),
                    "true" if r.accepted else "false",
                    r.dropped or "",
                    repr(r.q_u),
                    repr(r.l_u),
                ]
            )


def write_comparison_csv(runs: list[tuple[Trajectory, Trajectory]], path) -> None:
    """One row per (user, step) of each user's (constrained, unconstrained)
    runs: the trust cost of the offer under either rule, as the two
    trajectory CSVs write it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_FIELDS)
        for constrained, unconstrained in runs:
            for a, b in zip(constrained.steps, unconstrained.steps):
                writer.writerow(
                    [constrained.user_id, a.t, _optional(a.trust_cost), _optional(b.trust_cost)]
                )


def _profile_summary(u: UserProfile) -> dict:
    return {"sources": list(u.sources), "q_u": u.q_u, "l_u": u.l_u}


def write_summary_json(trajectories: list[Trajectory], path) -> None:
    """One entry per user: start/end profile, convergence point, and the
    exact config (seed included) that produced the run."""
    payload = []
    for traj in trajectories:
        cfg = traj.config
        payload.append(
            {
                "user_id": traj.user_id,
                "config": dict(asdict(cfg), epsilon_converge=cfg.epsilon_converge),
                "start": _profile_summary(traj.start),
                "end": _profile_summary(traj.final),
                "convergence_point": traj.convergence_point,
                "accepted_steps": sum(1 for r in traj.steps if r.accepted),
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class Persona:
    user_id: str
    sources: tuple[str, ...]
    L: int


def load_personas(path) -> list[Persona]:
    with read_utf8(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # a syntax error, or an integer too long to convert
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of personas")
    if not data:
        raise ValueError(f"{path}: no personas")
    personas = []
    seen = set()
    for i, entry in enumerate(data):
        where = f"{path}: persona #{i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected a JSON object")
        try:
            user_id, sources, limit = entry["user_id"], entry["sources"], entry["L"]
        except KeyError as exc:
            raise ValueError(f"{where}: missing field ({exc})") from exc
        if not isinstance(user_id, str) or not user_id:
            raise ValueError(f"{where}: user_id must be a non-empty string, got {user_id!r}")
        try:
            user_id.encode("utf-8")  # seeds the user's stream (rng_for_user)
        except UnicodeEncodeError:
            raise ValueError(f"{where}: user_id {user_id!r} is not encodable as UTF-8") from None
        if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
            raise ValueError(f"{where}: sources must be a list of strings, got {sources!r}")
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise ValueError(f"{where}: L must be an integer >= 1, got {limit!r}")
        if not sources:
            raise ValueError(f"{path}: persona {user_id!r} has no sources")
        if user_id in seen:
            raise ValueError(f"{path}: duplicate persona {user_id!r}")
        seen.add(user_id)
        personas.append(Persona(user_id=user_id, sources=tuple(sources), L=limit))
    return personas


def write_personas(personas: list[Persona], path) -> None:
    payload = [
        {"user_id": p.user_id, "sources": list(p.sources), "L": p.L} for p in personas
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
