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
decision, and every float sum added left to right (``corpus.float_sum``) —
trajectories are reproducible across platforms and Python versions.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .corpus import float_sum, read_json, write_csv
from .embedding import NO_DIRECTION_NORM, SourceVectors, check_vector
from .groundtruth import SourceScore

DEFAULT_ALPHA = 0.5
DEFAULT_EPSILON = 1e-9
# approximate costs this close to the smallest are verified with _costs
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
        self.norms = _frozen(_norms(self.vectors))
        # Python-float copies for the profile means
        self._quality = self.quality.tolist()
        self._leaning = self.leaning.tolist()

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
    """Recompute the profile means from current membership (idempotent),
    as :func:`_profiles` takes them."""
    (fresh,) = _profiles([u.user_id], [u.sources], catalog, [u.limit])
    u.q_u, u.l_u, u.v_u = fresh.q_u, fresh.l_u, fresh.v_u


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


def _profiles(user_ids, trusted_sets, catalog: SourceCatalog, limits) -> list[UserProfile]:
    """One profile per (user id, trusted set, limit), each set checked by
    the rule of :func:`_check_trusted` and kept in its given order. ``q_u``
    and ``l_u`` are sums in member order over the member count. Each ``v_u``
    is ``np.add.reduce(catalog.vectors[rows], axis=0) / len(rows)``, the
    sum and division that ``ndarray.mean`` runs; the profiles with the same
    member count take theirs from one ``np.add.reduce(..., axis=1)``, which
    adds each profile's member rows in the same order. A refused set's
    ValueError has its position as its ``run`` attribute."""
    for position, (user_id, sources, limit) in enumerate(zip(user_ids, trusted_sets, limits)):
        try:
            _check_trusted(user_id, sources, catalog, limit)
        except ValueError as exc:
            exc.run = position
            raise
    members = [[catalog.index[s] for s in sources] for sources in trusted_sets]
    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(members):
        by_size.setdefault(len(rows), []).append(i)
    means: dict[int, np.ndarray] = {}
    for size, group in by_size.items():
        sums = np.add.reduce(catalog.vectors[[members[i] for i in group]], axis=1)
        means.update(zip(group, sums / size))
    quality, leaning = catalog._quality, catalog._leaning
    return [
        UserProfile(
            user_id=user_id,
            sources=list(sources),
            limit=limit,
            q_u=float_sum(quality[r] for r in rows) / len(rows),
            l_u=float_sum(leaning[r] for r in rows) / len(rows),
            v_u=means[i],
        )
        for i, (user_id, sources, limit, rows) in enumerate(zip(user_ids, trusted_sets, limits, members))
    ]


def profile_from_sources(
    user_id: str, trusted, catalog: SourceCatalog, limit: int
) -> UserProfile:
    """The profile of ``trusted``, sorted: a one-profile :func:`_profiles`."""
    (u,) = _profiles([user_id], [sorted(trusted)], catalog, [limit])
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each bit for bit ``np.dot(a[i], b[i])``: for
    a 1×d by d×1 core, ``np.matmul`` calls the dot routine that ``np.dot``
    calls on 1-D arrays. ``einsum("ij,ij->i")``, ``(a * b).sum(1)`` and
    ``a @ b.T`` add the products in other orders."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, bit for bit: it is the square root of
    the row's dot product with itself."""
    return np.sqrt(_dots(vectors, vectors))


def _trust_costs(dots: np.ndarray, norm_u, norm_s, l_u, l_s, alpha) -> np.ndarray:
    """The trust cost of each dot product of ``v_u`` and ``v_s`` in ``dots``,
    written over it, with norms, leanings and alphas broadcast against it:

        (1 - alpha) * (|l_u - l_s| / 2) + alpha * (1 - dot / (|v_u| * |v_s|))

    in that operation order, with a distance of 1.0 when either vector has
    no direction (norm below ``NO_DIRECTION_NORM``)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dots /= norm_u * norm_s
        distance = np.subtract(1.0, dots, out=dots)
        np.copyto(distance, 1.0, where=(norm_u < NO_DIRECTION_NORM) | (norm_s < NO_DIRECTION_NORM))
        distance *= alpha
        distance += (1.0 - alpha) * (np.abs(l_u - l_s) / 2.0)
    return distance


def _costs(profiles: list[UserProfile], alphas, owners, rows, catalog: SourceCatalog) -> list[float]:
    """The :func:`_trust_costs` of each pair (``profiles[o]``, catalog row
    ``r``) at ``alphas[o]``, for the ``o`` and ``r`` of ``zip(owners,
    rows)``. Dot products and norms come from :func:`_dots`, so each cost
    equals the scalar formula on ``np.dot`` and ``np.linalg.norm`` to the
    bit. The caller has checked each alpha."""
    v_u = np.array([u.v_u for u in profiles])
    return _trust_costs(
        _dots(v_u[owners], catalog.vectors[rows]), _norms(v_u)[owners], catalog.norms[rows],
        np.array([u.l_u for u in profiles])[owners], catalog.leaning[rows], np.array(alphas)[owners],
    ).tolist()


def trust_cost(s_prime: Source, u: UserProfile, alpha: float) -> float:
    """The trust cost of ``s_prime`` to ``u``: one pair of :func:`_costs`."""
    _check_alpha(alpha)
    (cost,) = _costs([u], [alpha], [0], [0], SourceCatalog([s_prime]))
    return cost


def _offers(profiles: list[UserProfile], catalog: SourceCatalog, alphas) -> list[int | None]:
    """The catalog row offered to each profile, or None when nothing is
    eligible: no source lies strictly above the profile's mean quality and
    outside its members. An ``alphas`` entry of None offers the highest
    quality, any other the cheapest by trust cost at that alpha; ties go to
    the smallest source_id.

    One mask covers every profile, and :func:`_trust_costs` on one matrix
    product gives every approximate cost. Those only pick candidates:
    eligible rows within ``_VERIFY_MARGIN`` of a profile's smallest finite
    approximate cost, and eligible rows whose approximate cost is not
    finite, are recomputed exactly by one :func:`_costs` call, and the first
    strict minimum in id order wins. The margin is far above the rounding
    gap between the two, which apply the same formula, so the exact argmin
    is always among them, and each offer is the exhaustive scalar argmin
    for its own profile, whatever the others are. The caller has checked
    each alpha."""
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
    us = [profiles[i] for i in cheapest]
    alpha = np.array([alphas[i] for i in cheapest])[:, None]
    v_u, l_u = np.array([u.v_u for u in us]), np.array([u.l_u for u in us])[:, None]
    dots = v_u @ catalog.vectors.T  # one row per profile
    approx = _trust_costs(dots, _norms(v_u)[:, None], catalog.norms, l_u, catalog.leaning, alpha)
    mask = eligible[cheapest]
    finite = np.isfinite(approx)
    smallest = np.min(approx, axis=1, where=mask & finite, initial=np.inf, keepdims=True)
    kept = mask & ((approx <= smallest + _VERIFY_MARGIN) | ~finite)
    owners, rows = np.nonzero(kept)
    best = [math.inf] * len(cheapest)
    costs = _costs(us, alpha[:, 0], owners, rows, catalog)
    # pairs come in id order per profile, so the first strict minimum wins
    for k, row, cost in zip(owners.tolist(), rows.tolist(), costs):
        if cost < best[k]:
            offers[cheapest[k]], best[k] = row, cost
    return offers


def select_recommendation(
    u: UserProfile, catalog: SourceCatalog, alpha: float
) -> Source | None:
    """Cheapest eligible source by trust cost; ties go to the smallest
    source_id; None when nothing qualifies. The offer :func:`_offers` makes
    to ``u``, whose trusted set keeps the rule of :func:`_check_trusted`."""
    _check_alpha(alpha)
    _check_trusted(u.user_id, u.sources, catalog, u.limit)
    (row,) = _offers([u], catalog, [alpha])
    return None if row is None else catalog._rows[row]


def drop_distribution(
    u: UserProfile, s_prime: Source, catalog: SourceCatalog, alpha: float
) -> dict[str, float]:
    """Eviction probabilities over the current members plus the offer, in
    sorted-id order, proportional to trust cost against the current profile;
    uniform when every cost is zero. The lottery :func:`_stakes` costs for
    ``u`` alone."""
    _check_alpha(alpha)
    _check_trusted(u.user_id, u.sources, catalog, u.limit)
    if len(u.sources) != u.limit:
        raise ValueError(
            f"{u.user_id}: drop lottery requires a full profile "
            f"({len(u.sources)}/{u.limit} sources)"
        )
    if s_prime.source_id in u.sources:
        raise ValueError(f"{u.user_id}: candidate {s_prime.source_id!r} already trusted")
    if s_prime.source_id not in catalog:
        raise ValueError(f"{u.user_id}: unknown candidate {s_prime.source_id!r}")
    ((rows, costs),) = _stakes([u], [catalog.index[s_prime.source_id]], catalog, [alpha])
    return dict(zip((catalog._ids[r] for r in rows), _shares(costs)))


def _stakes(profiles: list[UserProfile], offers: list[int], catalog: SourceCatalog, alphas):
    """For each profile and the catalog row offered to it, the rows at stake
    and their trust costs, all from one :func:`_costs` call: the offer alone
    below the profile's limit, else the drop lottery's entries, the members
    and the offer in id order. The caller has checked each alpha."""
    stakes = [
        [offer] if len(u.sources) < u.limit else sorted([catalog.index[s] for s in u.sources] + [offer])
        for u, offer in zip(profiles, offers)
    ]
    owners = np.repeat(np.arange(len(stakes)), [len(rows) for rows in stakes])
    costs = iter(_costs(profiles, alphas, owners, list(itertools.chain.from_iterable(stakes)), catalog))
    return [(rows, list(itertools.islice(costs, len(rows)))) for rows in stakes]


def _shares(costs: list[float]) -> list[float]:
    """Drop shares in proportion to the costs: ``c / sum(costs)``, or
    uniform when every cost is zero."""
    total = float_sum(costs)
    if total == 0.0:
        return [1.0 / len(costs)] * len(costs)
    return [c / total for c in costs]


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
    profile; the limit is ``config.L``. Every profile state is built by the
    rule of :func:`profile_from_sources`: ``Trajectory.start`` is the checked
    start profile built from ``u0.sources``, and each accepted step's next
    profile is built from the new members, sorted. Pure in its inputs:
    ``u0`` is never changed, and the outcome is a function of (u0, catalog,
    config) alone.
    The one run of :func:`simulate_all`."""
    return simulate_all([(u0, config)], catalog)[0]


def simulate_all(
    runs: list[tuple[Persona | UserProfile, SimConfig]], catalog: SourceCatalog
) -> list[Trajectory]:
    """Make each ``(u0, config)`` run of ``runs`` as :func:`simulate`
    describes, all in lockstep, and return their trajectories in order.

    A plan is made at a run's start and after each of its accepted steps:
    the offer, its trust cost, its accept probability and one outcome table,
    the running sums of the outcome shares and the source each outcome
    drops. Below capacity the outcomes drop nothing (accept) or the offer
    (reject); at capacity they are the drop lottery, where the offer's own
    id means rejection. At each step one :func:`_offers` call and one
    :func:`_stakes` call plan every run that needs a plan. Each stepping run
    then takes one uniform draw from its own :func:`rng_for_user` stream and
    picks the first outcome whose running sum exceeds it, and one
    :func:`_profiles` call builds the next profile of every run that
    accepted. A run's trajectory is a function of its own (u0, catalog,
    config), whatever other runs share the batch. One :func:`_profiles`
    call builds every start profile, so a refused one raises before any run
    is made, its position in ``runs`` as the error's ``run`` attribute."""
    configs = [config for _, config in runs]
    starts = _profiles(
        [u0.user_id for u0, _ in runs], [sorted(u0.sources) for u0, _ in runs], catalog, [c.L for c in configs]
    )
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
            offered = [
                (j, offer)
                for j, offer in zip(planless, _offers([profiles[j] for j in planless], catalog, alphas))
                if offer is not None
            ]
            if offered:
                stakes = _stakes(
                    [profiles[j] for j, _ in offered], [offer for _, offer in offered], catalog,
                    [configs[j].alpha for j, _ in offered],
                )
                for (j, offer), (rows, costs) in zip(offered, stakes):
                    offer_id = catalog._ids[offer]
                    if rows == [offer]:  # below capacity
                        (cost,) = costs
                        p = max(0.0, 1.0 - cost)
                        plans[j] = offer_id, cost, p, [p], [None, offer_id]
                    else:
                        shares = _shares(costs)
                        at = rows.index(offer)
                        sums = list(itertools.accumulate(shares))
                        drops = [catalog._ids[r] for r in rows]
                        plans[j] = offer_id, costs[at], 1.0 - shares[at], sums, drops
            stepping = [j for j in stepping if plans[j] is not None]
        moved = []
        for j in stepping:
            offer, cost, accept_probability, sums, drops = plans[j]
            drop = drops[min(bisect.bisect_right(sums, rngs[j].random()), len(drops) - 1)]
            if drop == offer:
                u = profiles[j]
                records[j].append(
                    StepRecord(t, offer, cost, accept_probability, False, None, u.q_u, u.l_u)
                )
            else:
                moved.append((j, drop))
        members = [
            sorted(s for s in profiles[j].sources + [plans[j][0]] if s != dropped) for j, dropped in moved
        ]
        built = _profiles(
            [profiles[j].user_id for j, _ in moved], members, catalog, [configs[j].L for j, _ in moved]
        )
        for (j, dropped), u in zip(moved, built):
            offer, cost, accept_probability = plans[j][:3]
            records[j].append(StepRecord(t, offer, cost, accept_probability, True, dropped, u.q_u, u.l_u))
            profiles[j], plans[j] = u, None
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
