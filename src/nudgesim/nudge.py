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
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .corpus import read_json, write_csv
from .embedding import SourceVectors, check_vector
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
        check_vector(self.source_id, self.vector)


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


def update_scores(u: UserProfile, catalog: SourceCatalog) -> None:
    """Recompute the profile means from current membership (idempotent)."""
    rows = [catalog.index[s] for s in u.sources]
    u.q_u = sum(catalog._quality[r] for r in rows) / len(rows)
    u.l_u = sum(catalog._leaning[r] for r in rows) / len(rows)
    u.v_u = np.add.reduce(catalog.vectors[rows], axis=0) / len(rows)


def _check_trusted(user_id: str, sources, catalog: SourceCatalog, limit: int) -> None:
    """The rule for a trusted set: non-empty, no repeats, no larger than a
    limit of at least 1, and only catalog sources."""
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


def profile_from_sources(
    user_id: str, trusted, catalog: SourceCatalog, limit: int
) -> UserProfile:
    sources = sorted(trusted)
    _check_trusted(user_id, sources, catalog, limit)
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
    start: UserProfile
    final: UserProfile

    @property
    def convergence_point(self) -> int | None:
        """First step whose post-step mean quality clears 1 - epsilon, if any."""
        eps = self.config.epsilon_converge
        return next((r.t for r in self.steps if r.q_u >= 1.0 - eps), None)


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


def _eligible(u: UserProfile, catalog: SourceCatalog) -> np.ndarray:
    """Mask over the catalog rows of the sources strictly above the user's
    mean quality and not already trusted."""
    mask = catalog.quality > u.q_u
    mask[[catalog.index[s] for s in u.sources]] = False
    return mask


def _approximate_costs(u: UserProfile, catalog: SourceCatalog, alpha: float, norm_u: float):
    """``trust_cost`` of every catalog row from one mat-vec and the cached
    norms. It may differ from the scalar cost in the last bits, or come out
    non-finite where the scalar cost overflows."""
    distance = 1.0
    if norm_u != 0.0:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            distance = 1.0 - (catalog.vectors @ u.v_u) / (catalog.norms * norm_u)
        distance[catalog.norms == 0.0] = 1.0  # a zero norm on either side gives the neutral 1.0
    return (1.0 - alpha) * (np.abs(u.l_u - catalog.leaning) / 2.0) + alpha * distance


def select_recommendation(
    u: UserProfile, catalog: SourceCatalog, alpha: float
) -> Source | None:
    """Cheapest eligible source by trust cost; ties go to the smallest
    source_id; None when nothing qualifies.

    Approximate costs filter the candidates: only eligible rows within
    ``_VERIFY_MARGIN`` of the smallest finite one, and eligible rows whose
    approximate cost is not finite, are recomputed exactly, in id order. The
    margin is far above the rounding gap between the two, so the exact argmin
    is always among them and the result is the exhaustive scalar argmin."""
    _check_alpha(alpha)
    mask = _eligible(u, catalog)
    norm_u = float(np.linalg.norm(u.v_u))
    approx = _approximate_costs(u, catalog, alpha, norm_u)
    finite = np.isfinite(approx)
    smallest = np.min(approx, where=mask & finite, initial=np.inf)
    candidates = np.flatnonzero(mask & ((approx <= smallest + _VERIFY_MARGIN) | ~finite)).tolist()
    best: int | None = None
    best_cost = float("inf")
    for row, cost in zip(candidates, _row_costs(u, catalog, candidates, alpha, norm_u)):
        if cost < best_cost:
            best, best_cost = row, cost
    return None if best is None else catalog._rows[best]


def _highest_quality(u: UserProfile, catalog: SourceCatalog) -> Source | None:
    """Highest-quality eligible source; argmax keeps the first maximum in
    sorted-id order, so ties go to the smallest id."""
    rows = np.flatnonzero(_eligible(u, catalog))
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
    _check_trusted(u.user_id, u.sources, catalog, u.limit)
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


def _plan(u: UserProfile, catalog: SourceCatalog, config: SimConfig):
    """The offer to ``u`` and what one uniform draw decides about it, or None
    when nothing is eligible: (offer id, trust cost, accept probability,
    running sums of the outcome shares, the source each outcome drops). The
    draw picks the first outcome whose running sum exceeds it; below capacity
    the outcomes drop nothing (accept) or the offer (reject), at capacity
    they are the drop lottery, where the offer's own id means rejection. A
    function of the profile alone."""
    if config.mode == "unconstrained":
        s_prime = _highest_quality(u, catalog)
    else:
        s_prime = select_recommendation(u, catalog, config.alpha)
    if s_prime is None:
        return None
    offer = catalog.index[s_prime.source_id]
    norm_u = float(np.linalg.norm(u.v_u))
    if len(u.sources) < config.L:
        (cost,) = _row_costs(u, catalog, [offer], config.alpha, norm_u)
        p = max(0.0, 1.0 - cost)
        return s_prime.source_id, cost, p, [p], [None, s_prime.source_id]
    rows, costs, shares = _lottery(u, catalog, offer, config.alpha, norm_u)
    at = rows.index(offer)
    drops = [catalog._ids[r] for r in rows]
    return s_prime.source_id, costs[at], 1.0 - shares[at], list(itertools.accumulate(shares)), drops


def rng_for_user(seed: int, user_id: str) -> np.random.Generator:
    """Per-user PCG64 substream: entropy = (seed as unsigned 64-bit, first 8
    bytes of SHA-256(user_id)). Distinct users never share a stream."""
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    entropy = [seed & _MASK64, int.from_bytes(digest[:8], "big")]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def simulate(u0: Persona | UserProfile, catalog: SourceCatalog, config: SimConfig) -> Trajectory:
    """Run the recommendation dynamics for ``config.T`` steps.

    ``config.mode`` picks the offer among the eligible sources (strictly
    above the user's mean quality, not yet trusted): ``"constrained"`` offers
    the cheapest by trust cost, ``"unconstrained"`` the highest quality; ties
    go to the smallest id. Acceptance and drop mechanics are shared, and the
    trust cost of each offer is recorded in both modes. Only ``u0.user_id``
    and ``u0.sources`` are read, so ``u0`` may be a :class:`Persona` or a
    profile; the limit is ``config.L``. Every profile state is built by
    :func:`profile_from_sources`: ``Trajectory.start`` is the checked start
    profile built from ``u0.sources``, and each accepted step's next profile
    is built from the new members. Pure in its inputs: ``u0`` is never
    changed, and the outcome is a function of (u0, catalog, config) alone."""
    u = start = profile_from_sources(u0.user_id, u0.sources, catalog, config.L)
    rng = rng_for_user(config.seed, u.user_id)
    records = []
    plan = None
    for t in range(config.T):
        # a rejected offer leaves the profile, and so the plan, unchanged; a
        # converged user, or one with nothing eligible, never changes again
        if plan is None and (
            u.q_u >= 1.0 - config.epsilon_converge or (plan := _plan(u, catalog, config)) is None
        ):
            break
        offer, cost, accept_probability, sums, drops = plan
        drop = drops[min(bisect.bisect_right(sums, rng.random()), len(drops) - 1)]
        accepted = drop != offer
        dropped = drop if accepted else None
        if accepted:
            members = [s for s in u.sources + [offer] if s != dropped]
            u = profile_from_sources(u.user_id, members, catalog, config.L)
            plan = None
        records.append(
            StepRecord(t, offer, cost, accept_probability, accepted, dropped, u.q_u, u.l_u)
        )
    # every step after the loop is a no-op that draws nothing
    records += [
        StepRecord(rest, None, None, None, False, None, u.q_u, u.l_u)
        for rest in range(len(records), config.T)
    ]
    return Trajectory(u.user_id, config, records, start, u)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    rows = (
        [
            r.t,
            r.recommended,
            r.trust_cost,
            r.accept_probability,
            "true" if r.accepted else "false",
            r.dropped,
            r.q_u,
            r.l_u,
        ]
        for r in traj.steps
    )
    write_csv(path, TRAJECTORY_FIELDS, rows)


def write_comparison_csv(runs: list[tuple[Trajectory, Trajectory]], path) -> None:
    """One row per (user, step) of each user's (constrained, unconstrained)
    runs: the trust cost of the offer under either rule, as the two
    trajectory CSVs write it."""
    rows = (
        [constrained.user_id, a.t, a.trust_cost, b.trust_cost]
        for constrained, unconstrained in runs
        for a, b in zip(constrained.steps, unconstrained.steps)
    )
    write_csv(path, COMPARISON_FIELDS, rows)


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
    data = read_json(path)
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
