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


def _offers(profiles: list[UserProfile], catalog: SourceCatalog, alphas) -> list[int | None]:
    """The catalog row offered to each profile, or None when nothing is
    eligible: no source lies strictly above the profile's mean quality and
    outside its members. An ``alphas`` entry of None offers the highest
    quality, any other the cheapest by trust cost at that alpha; ties go to
    the smallest source_id.

    One mask covers every profile, and one matrix product gives every
    approximate cost. Those only pick candidates: eligible rows within
    ``_VERIFY_MARGIN`` of a profile's smallest finite approximate cost, and
    eligible rows whose approximate cost is not finite, are recomputed
    exactly, in id order. The margin is far above the rounding gap between
    the two, so the exact argmin is always among them, and each offer is the
    exhaustive scalar argmin for its own profile, whatever the others are.
    The caller has checked each alpha."""
    members = [[catalog.index[s] for s in u.sources] for u in profiles]
    eligible = catalog.quality > np.array([u.q_u for u in profiles])[:, None]
    owners = np.repeat(np.arange(len(profiles)), [len(rows) for rows in members])
    eligible[owners, list(itertools.chain.from_iterable(members))] = False
    found = eligible.any(axis=1).tolist()
    offers: list[int | None] = [None] * len(profiles)
    best_quality = [i for i, alpha in enumerate(alphas) if found[i] and alpha is None]
    if best_quality:
        # argmax keeps the first maximum, in id order
        rows = np.where(eligible[best_quality], catalog.quality, -np.inf).argmax(axis=1)
        for i, row in zip(best_quality, rows.tolist()):
            offers[i] = row
    cheapest = [i for i, alpha in enumerate(alphas) if found[i] and alpha is not None]
    if not cheapest:
        return offers
    # (1 - alpha) * (|l_u - l_s| / 2) + alpha * (1 - dot / (|v_u| * |v_s|)),
    # one row per profile, computed in place to hold two arrays at a time
    us = [profiles[i] for i in cheapest]
    alpha = np.array([alphas[i] for i in cheapest])[:, None]
    norm_u = [float(np.linalg.norm(u.v_u)) for u in us]
    distance = np.array([u.v_u for u in us]) @ catalog.vectors.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        distance /= np.multiply.outer(norm_u, catalog.norms)
        np.subtract(1.0, distance, out=distance)
        # a zero norm on either side gives the neutral 1.0
        distance[:, catalog.norms == 0.0] = 1.0
        distance[np.equal(norm_u, 0.0)] = 1.0
        distance *= alpha
        approx = np.subtract.outer([u.l_u for u in us], catalog.leaning)
        np.abs(approx, out=approx)
        approx /= 2.0
        approx *= 1.0 - alpha
        approx += distance
    mask = eligible[cheapest]
    finite = np.isfinite(approx)
    smallest = np.min(approx, axis=1, where=mask & finite, initial=np.inf, keepdims=True)
    kept = mask & ((approx <= smallest + _VERIFY_MARGIN) | ~finite)
    for i, u, norm, row_kept in zip(cheapest, us, norm_u, kept):
        candidates = np.flatnonzero(row_kept).tolist()
        best_cost = float("inf")
        for row, cost in zip(candidates, _row_costs(u, catalog, candidates, alphas[i], norm)):
            if cost < best_cost:
                offers[i], best_cost = row, cost
    return offers


def select_recommendation(
    u: UserProfile, catalog: SourceCatalog, alpha: float
) -> Source | None:
    """Cheapest eligible source by trust cost; ties go to the smallest
    source_id; None when nothing qualifies. The offer :func:`_offers` makes
    to ``u`` alone."""
    _check_alpha(alpha)
    (row,) = _offers([u], catalog, [alpha])
    return None if row is None else catalog._rows[row]


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


def _plan(u: UserProfile, catalog: SourceCatalog, config: SimConfig, offer: int):
    """What one uniform draw decides about offering catalog row ``offer`` to
    ``u``: (offer id, trust cost, accept probability, running sums of the
    outcome shares, the source each outcome drops). The draw picks the first
    outcome whose running sum exceeds it; below capacity the outcomes drop
    nothing (accept) or the offer (reject), at capacity they are the drop
    lottery, where the offer's own id means rejection. A function of the
    profile and the offer alone."""
    offer_id = catalog._ids[offer]
    norm_u = float(np.linalg.norm(u.v_u))
    if len(u.sources) < config.L:
        (cost,) = _row_costs(u, catalog, [offer], config.alpha, norm_u)
        p = max(0.0, 1.0 - cost)
        return offer_id, cost, p, [p], [None, offer_id]
    rows, costs, shares = _lottery(u, catalog, offer, config.alpha, norm_u)
    at = rows.index(offer)
    drops = [catalog._ids[r] for r in rows]
    return offer_id, costs[at], 1.0 - shares[at], list(itertools.accumulate(shares)), drops


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
    changed, and the outcome is a function of (u0, catalog, config) alone.
    The one run of :func:`simulate_all`."""
    return simulate_all([(u0, config)], catalog)[0]


def simulate_all(
    runs: list[tuple[Persona | UserProfile, SimConfig]], catalog: SourceCatalog
) -> list[Trajectory]:
    """Make each ``(u0, config)`` run of ``runs`` as :func:`simulate`
    describes, all in lockstep, and return their trajectories in order.

    A plan (offer, cost, accept probability, outcome table) is made at a
    run's start and after each of its accepted steps; at each step one
    :func:`_offers` call serves every run that needs one. Each run then
    takes one uniform draw from its own :func:`rng_for_user` stream. A
    run's trajectory is a function of its own (u0, catalog, config), whatever
    other runs share the batch. A run whose start profile is refused raises
    the ValueError of :func:`profile_from_sources`, its ``run`` attribute
    set to the run's position, before any run is made."""
    starts = []
    for position, (u0, config) in enumerate(runs):
        try:
            starts.append(profile_from_sources(u0.user_id, u0.sources, catalog, config.L))
        except ValueError as exc:
            exc.run = position
            raise
    configs = [config for _, config in runs]
    rngs = [rng_for_user(config.seed, u.user_id) for u, config in zip(starts, configs)]
    profiles = list(starts)
    records: list[list[StepRecord]] = [[] for _ in runs]
    plans: list[tuple | None] = [None] * len(runs)
    stepping = range(len(runs))
    for t in range(max((config.T for config in configs), default=0)):
        # a rejected offer leaves the profile, and so the plan, unchanged; a
        # converged run, or one with nothing eligible, never changes again
        stepping = [
            j for j in stepping
            if t < configs[j].T
            and (plans[j] is not None or profiles[j].q_u < 1.0 - configs[j].epsilon_converge)
        ]
        planless = [j for j in stepping if plans[j] is None]
        if planless:
            alphas = [configs[j].alpha if configs[j].mode == "constrained" else None for j in planless]
            for j, offer in zip(planless, _offers([profiles[j] for j in planless], catalog, alphas)):
                if offer is not None:
                    plans[j] = _plan(profiles[j], catalog, configs[j], offer)
            stepping = [j for j in stepping if plans[j] is not None]
        for j in stepping:
            offer, cost, accept_probability, sums, drops = plans[j]
            drop = drops[min(bisect.bisect_right(sums, rngs[j].random()), len(drops) - 1)]
            accepted = drop != offer
            dropped = drop if accepted else None
            u = profiles[j]
            if accepted:
                members = [s for s in u.sources + [offer] if s != dropped]
                u = profiles[j] = profile_from_sources(u.user_id, members, catalog, configs[j].L)
                plans[j] = None
            records[j].append(
                StepRecord(t, offer, cost, accept_probability, accepted, dropped, u.q_u, u.l_u)
            )
    trajectories = []
    for start, u, config, steps in zip(starts, profiles, configs, records):
        # every step after a run stops is a no-op that draws nothing
        steps += [
            StepRecord(rest, None, None, None, False, None, u.q_u, u.l_u)
            for rest in range(len(steps), config.T)
        ]
        trajectories.append(Trajectory(u.user_id, config, steps, start, u))
    return trajectories


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
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
