"""Trust-aware recommendation dynamics.

A simulated user trusts a small set of sources, at most its own attention
limit ``L``. Each step the engine offers the cheapest strictly-higher-quality
source, where cost blends leaning distance with embedding distance:

    t(s', u) = (1 - alpha) * |l_u - l_s'| / 2 + alpha * (1 - cos(v_u, v_s'))

Below capacity the offer is accepted with probability max(0, 1 - t); at
capacity a lottery proportional to each candidate's trust cost evicts one of
the current members or the offer itself (eviction of the offer = rejection).
An unconstrained baseline picks the highest-quality eligible source instead,
with identical acceptance mechanics.

Randomness: one PCG64 substream per user, derived from the run seed and a
SHA-256 hash of the user id, consuming exactly one uniform draw per stochastic
decision, and every float sum added left to right (``corpus.float_sum``) —
trajectories are byte-identical across Python versions for one BLAS kernel.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar, NamedTuple

import numpy as np

from .corpus import read_json, write_csv, write_text
from .embedding import NO_DIRECTION_NORM, SEED_MASK, SourceVectors, check_shape, check_vectors, row_dots
from .groundtruth import SourceScore, check_score

DEFAULT_ALPHA = 0.5
DEFAULT_EPSILON = 1e-9
# approximate costs this close to the smallest are verified with _costs
_VERIFY_MARGIN = 1e-9

TRAJECTORY_FIELDS = ["t", "recommended", "trust_cost", "accept_prob", "accepted", "dropped", "q_u", "l_u"]
COMPARISON_FIELDS = ["user_id", "t", "constrained_trust_cost", "unconstrained_trust_cost"]


class Source(NamedTuple):
    """A scored, embedded source: a plain record, checked where a
    :class:`SourceCatalog` takes it."""

    source_id: str
    quality: float
    leaning: float
    vector: np.ndarray


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
        """The catalog of ``sources``, checked in two passes, the first fault
        raising ValueError: each source's :func:`check_score` fields,
        :func:`check_shape`, repeat and length other than the first source's,
        then one :func:`check_vectors` call over all vectors."""
        sources = list(sources)
        if not sources:
            raise ValueError("catalog must contain at least one source")
        position, dims = {}, None
        for i, (source_id, quality, leaning, vector) in enumerate(sources):
            check_score("quality", quality, f"{source_id}: ")
            check_score("leaning", leaning, f"{source_id}: ")
            length = check_shape(source_id, vector)
            dims = dims or length  # the first source's, which is at least 1
            if position.setdefault(source_id, i) != i:
                raise ValueError(f"duplicate source {source_id!r}")
            if length != dims:
                raise ValueError(f"{source_id}: vector has {length} dims, expected {dims}")
        ids, quality, leaning, vectors = zip(*sources)
        matrix = check_vectors(ids, vectors)
        self._ids = sorted(position)
        order = [position[s] for s in self._ids]
        self.index = MappingProxyType({s: i for i, s in enumerate(self._ids)})
        self.quality, self.leaning = (_frozen([column[i] for i in order]) for column in (quality, leaning))
        self.vectors = _frozen(matrix[order])
        self.norms = _frozen(_norms(self.vectors))

    @classmethod
    def from_scores(cls, scores: dict[str, SourceScore], vectors: SourceVectors) -> "SourceCatalog":
        """The catalog of the sources that are actually usable: scored
        (labeled or imputed, which have both fields) and embedded."""
        usable = (s for s, sc in scores.items() if sc.provenance in ("labeled", "imputed") and s in vectors.vectors)
        return cls([Source(s, scores[s].quality, scores[s].leaning, vectors.vectors[s]) for s in usable])

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self.index

    def __getitem__(self, source_id: str) -> Source:
        i = self.index[source_id]
        return Source(source_id, self.quality[i].item(), self.leaning[i].item(), self.vectors[i])

    def ids(self) -> list[str]:
        return list(self._ids)


@dataclass
class UserProfile:
    """Trusted-source membership, its limit ``L``, plus the running means
    derived from it."""

    user_id: str
    sources: list[str]
    L: int
    q_u: float
    l_u: float
    v_u: np.ndarray


class _Rows(NamedTuple):
    """Profile states as array rows. Row ``i`` of ``members`` holds the
    catalog rows of the ``i``-th state's sources, then ``len(catalog)``, the
    padding row, up to the width; ``sizes`` holds the member counts, and
    ``q_u``, ``l_u`` and ``v_u`` the means."""

    members: np.ndarray
    sizes: np.ndarray
    q_u: np.ndarray
    l_u: np.ndarray
    v_u: np.ndarray

    def take(self, index) -> "_Rows":
        return _Rows(*(column[index] for column in self))


def _float_sums(table: np.ndarray) -> np.ndarray:
    """Each row's ``float_sum``: its columns added left to right from 0.0.
    Adding 0.0 leaves such a sum as it is, since it is never -0.0."""
    total = np.zeros(len(table))
    for column in table.T:
        total += column
    return total


def _means(members: np.ndarray, sizes: np.ndarray, catalog: SourceCatalog):
    """The ``q_u``, ``l_u`` and ``v_u`` arrays of the rows ``members`` and
    ``sizes`` (as in :class:`_Rows`). ``q_u`` and ``l_u`` are
    :func:`_float_sums` in member order, where the padding row adds 0.0,
    over the member count. Each ``v_u`` is ``np.add.reduce(catalog.vectors[
    rows], axis=0) / len(rows)``, the sum and division that ``ndarray.mean``
    runs; the rows with the same member count take theirs from one
    ``np.add.reduce(..., axis=1)``, which adds each row's members in the
    same order."""
    top = members[:, : sizes.max(initial=0)]
    q_u = _float_sums(np.append(catalog.quality, 0.0)[top]) / sizes
    l_u = _float_sums(np.append(catalog.leaning, 0.0)[top]) / sizes
    v_u = np.empty((len(members), catalog.vectors.shape[1]))
    for size in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == size)
        v_u[group] = np.add.reduce(catalog.vectors[members[group, :size]], axis=1) / size
    return q_u, l_u, v_u


def _start_rows(user_ids, trusted_sets, catalog: SourceCatalog, limits) -> _Rows:
    """The :class:`_Rows` of the trusted sets, each set's rows in id order,
    as wide as the largest limit clamped to the catalog size. Every set is
    first held to the one rule for a trusted set, the first broken part
    raising ValueError with the set's position as its ``run`` attribute: a
    user id that is a non-empty string UTF-8 can encode, a collection of ids
    that is not one string, non-empty, no repeats, an int limit (not a bool)
    of at least 1, no more sources than the limit, only catalog sources (the
    first unknown one named in ``str`` order)."""
    for position, (user_id, sources, limit) in enumerate(zip(user_ids, trusted_sets, limits)):
        prefix = f"{user_id}: "
        if problem := _user_id_problem(user_id):
            prefix = ""
        elif isinstance(sources, str):
            problem = f"trusted set must be a collection of source ids, got the string {sources!r}"
        elif not sources:
            problem = "trusted set must be non-empty"
        elif len(sources) != len(set(sources)):
            problem = "duplicate trusted sources"
        elif isinstance(limit, bool) or not isinstance(limit, int):
            problem = f"limit must be an integer, got {limit!r}"
        elif limit < 1:
            problem = "limit must be >= 1"
        elif len(sources) > limit:
            problem = f"{len(sources)} trusted sources exceed limit {limit}"
        else:
            unknown = [s for s in sources if s not in catalog]
            problem = f"unknown source {min(unknown, key=str)!r}" if unknown else None
        if problem:
            exc = ValueError(prefix + problem)
            exc.run = position
            raise exc
    sizes = np.array([len(sources) for sources in trusted_sets], dtype=np.int64)
    width = max(min(limit, len(catalog)) for limit in limits)
    members = np.full((len(sizes), width), len(catalog), dtype=np.int64)
    members[np.arange(width) < sizes[:, None]] = [
        catalog.index[s] for s in itertools.chain.from_iterable(map(sorted, trusted_sets))
    ]
    return _Rows(members, sizes, *_means(members, sizes, catalog))


def _user_id_problem(user_id) -> str | None:
    """What is wrong with ``user_id``, which seeds its stream (:func:`rng_for_user`),
    or None for a non-empty string that UTF-8 can encode (no lone surrogate)."""
    if not isinstance(user_id, str) or not user_id or any("\ud800" <= c <= "\udfff" for c in user_id):
        return f"user_id must be a non-empty string that UTF-8 can encode, got {user_id!r}"
    return None


def _row_profile(rows: _Rows, i: int, user_id: str, L: int, catalog: SourceCatalog) -> UserProfile:
    """The profile of row ``i`` of ``rows``: its member ids, the limit ``L``
    and copies of its means, which a later update of ``rows`` leaves as is."""
    sources = [catalog._ids[r] for r in rows.members[i, : rows.sizes[i]].tolist()]
    return UserProfile(user_id, sources, L, rows.q_u[i].item(), rows.l_u[i].item(), rows.v_u[i].copy())


def profile_from_sources(user_id: str, trusted, catalog: SourceCatalog, L: int) -> UserProfile:
    """The profile of ``trusted``, sorted, under the limit ``L``: the one row
    of :func:`_start_rows`, read by :func:`_row_profile`."""
    return _row_profile(_start_rows([user_id], [trusted], catalog, [L]), 0, user_id, L, catalog)


@dataclass(frozen=True)
class SimConfig:
    T: int
    seed: int
    alpha: float = DEFAULT_ALPHA
    mode: str = "constrained"
    epsilon_converge: ClassVar[float] = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        for name, value in (("T", self.T), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        _check_alpha(self.alpha)
        if self.mode not in ("constrained", "unconstrained"):
            raise ValueError(f"unknown mode {self.mode!r}")


class StepRecord(NamedTuple):
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


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, bit for bit: it is the square root of
    the row's dot product with itself."""
    return np.sqrt(row_dots(vectors, vectors))


def _trust_costs(dots: np.ndarray, norm_u, norm_s, l_u, l_s, alpha) -> np.ndarray:
    """The trust cost of each dot product of ``v_u`` and ``v_s`` in ``dots``,
    written over it, with norms and leanings broadcast against it:

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


def _costs(l_u: np.ndarray, v_u: np.ndarray, alpha: float, owners, rows, catalog: SourceCatalog) -> list[float]:
    """The :func:`_trust_costs` at ``alpha`` of each pair (profile means
    ``l_u[o]`` and ``v_u[o]``, catalog row ``r``), for the ``o`` and ``r`` of
    ``zip(owners, rows)``. Dot products and norms come from
    :func:`row_dots`, so each cost equals the scalar formula on ``np.dot`` and
    ``np.linalg.norm`` to the bit. The caller has checked ``alpha``."""
    return _trust_costs(
        row_dots(v_u[owners], catalog.vectors[rows]), _norms(v_u)[owners], catalog.norms[rows],
        l_u[owners], catalog.leaning[rows], alpha,
    ).tolist()


def trust_cost(s_prime: Source, u: UserProfile, alpha: float) -> float:
    """The trust cost of ``s_prime`` to ``u``: one pair of :func:`_costs`."""
    _check_alpha(alpha)
    (cost,) = _costs(np.array([u.l_u]), np.array([u.v_u]), alpha, [0], [0], SourceCatalog([s_prime]))
    return cost


def _offers(rows: _Rows, catalog: SourceCatalog, alpha: float | None) -> list[int | None]:
    """The catalog row offered to each of ``rows``, or None when nothing is
    eligible: no source lies strictly above the row's mean quality and
    outside its members. An ``alpha`` of None offers the highest quality,
    any other the cheapest by trust cost at that alpha; ties go to the
    smallest source_id. ``rows.sizes`` is not read.

    One mask covers every row, and :func:`_trust_costs` on one matrix
    product gives every approximate cost. Those only pick candidates:
    eligible catalog rows within ``_VERIFY_MARGIN`` of a row's smallest
    finite approximate cost, and eligible ones whose approximate cost is not
    finite, are recomputed exactly by one :func:`_costs` call, and the first
    strict minimum in id order wins. The margin is far above the rounding
    gap between the two, which apply the same formula, so the exact argmin
    is always among them, and each offer is the exhaustive scalar argmin
    for its own row, whatever the others are. The caller has checked
    ``alpha``."""
    eligible = np.zeros((len(rows.members), len(catalog) + 1), dtype=bool)
    np.greater(catalog.quality, rows.q_u[:, None], out=eligible[:, :-1])
    # no member is eligible, nor the padding row, the last column
    eligible[np.arange(len(eligible))[:, None], rows.members] = False
    eligible = eligible[:, :-1]
    if alpha is None:
        # argmax keeps the first maximum, in id order
        best = np.where(eligible, catalog.quality, -np.inf).argmax(axis=1)
        return [row if found else None for row, found in zip(best.tolist(), eligible.any(axis=1).tolist())]
    dots = rows.v_u @ catalog.vectors.T  # one row per profile
    approx = _trust_costs(dots, _norms(rows.v_u)[:, None], catalog.norms, rows.l_u[:, None], catalog.leaning, alpha)
    finite = np.isfinite(approx)
    smallest = np.where(eligible & finite, approx, np.inf).min(axis=1, keepdims=True)
    kept = eligible & ((approx <= smallest + _VERIFY_MARGIN) | ~finite)
    owners, candidates = np.divmod(np.flatnonzero(kept), len(catalog))
    costs = _costs(rows.l_u, rows.v_u, alpha, owners, candidates, catalog)
    offers: list[int | None] = [None] * len(eligible)
    best = [math.inf] * len(eligible)
    # pairs come in id order per profile, so the first strict minimum wins
    for k, row, cost in zip(owners.tolist(), candidates.tolist(), costs):
        if cost < best[k]:
            offers[k], best[k] = row, cost
    return offers


def drop_distribution(
    u: UserProfile, s_prime: Source, catalog: SourceCatalog, alpha: float
) -> dict[str, float]:
    """Eviction probabilities over the current members plus the offer, in
    sorted-id order, proportional to trust cost against the current profile;
    uniform when every cost is zero. The lottery :func:`_lotteries` makes
    for ``u`` alone, which must hold ``u.L`` sources."""
    _check_alpha(alpha)
    rows = _start_rows([u.user_id], [u.sources], catalog, [u.L])
    if len(u.sources) != u.L:
        raise ValueError(
            f"{u.user_id}: drop lottery requires a full profile "
            f"({len(u.sources)}/{u.L} sources)"
        )
    if s_prime.source_id in u.sources:
        raise ValueError(f"{u.user_id}: candidate {s_prime.source_id!r} already trusted")
    if s_prime.source_id not in catalog:
        raise ValueError(f"{u.user_id}: unknown candidate {s_prime.source_id!r}")
    offer = np.array([catalog.index[s_prime.source_id]])
    # the lottery is drawn against u's own means, whatever its members
    rows = rows._replace(q_u=np.array([u.q_u], dtype=float), l_u=np.array([u.l_u], dtype=float),
                         v_u=np.array([u.v_u], dtype=float))
    stakes, (count,), shares, _, _ = _lotteries(rows, np.array([True]), offer, alpha, catalog)
    return dict(zip((catalog._ids[r] for r in stakes[0, :count].tolist()), shares[0, :count].tolist()))


def _lotteries(rows: _Rows, full: np.ndarray, offers: np.ndarray, alpha: float, catalog: SourceCatalog):
    """For each of ``rows`` and the catalog row offered to it, the lottery
    that decides the offer, from one :func:`_costs` call at ``alpha``: the
    catalog rows at stake, their count, their :func:`_shares`, the offer's
    trust cost and the chance the offer is kept. At stake is the offer alone
    below the limit (``full`` False), with chance max(0, 1 - cost), else the
    drop lottery's entries, the members and the offer in id order, with
    chance 1 minus the offer's share. The stakes and shares have a row per
    offer, padded past its count with the padding row and with shares that
    mean nothing. The caller has checked ``alpha``."""
    n = len(catalog)
    stakes = np.column_stack([np.where(full[:, None], rows.members, n), offers])
    stakes.sort(axis=1)
    owners, columns = np.nonzero(stakes < n)
    costs = np.zeros(stakes.shape)
    costs[owners, columns] = _costs(rows.l_u, rows.v_u, alpha, owners, stakes[owners, columns], catalog)
    counts = np.where(full, rows.sizes + 1, 1)
    shares = _shares(costs, counts)
    k, at = np.arange(len(offers)), np.argmax(stakes == offers[:, None], axis=1)
    p = 1.0 - np.where(full, shares[k, at], costs[k, at])
    # max(0.0, 1 - cost) below capacity, and 0.0 for a nan cost
    return stakes, counts, shares, costs[k, at], np.where(full | (p > 0.0), p, 0.0)


def _shares(costs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's drop shares in proportion to its first ``counts`` costs,
    the rest being 0.0: ``c / total`` with the ``total`` of
    :func:`_float_sums`, or ``1.0 / count`` each when that total is zero.
    Past ``counts`` a row's shares mean nothing."""
    total = _float_sums(costs[:, : counts.max(initial=0)])[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(total == 0.0, 1.0 / counts[:, None], costs / total)


def rng_for_user(seed: int, user_id: str) -> np.random.Generator:
    """Per-user PCG64 substream seeded with (``seed`` modulo 2^64, first 8
    bytes of SHA-256(user_id)). Distinct users never share a stream."""
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return np.random.default_rng([seed & SEED_MASK, int.from_bytes(digest[:8], "big")])


def simulate(u0: Persona | UserProfile, catalog: SourceCatalog, config: SimConfig) -> Trajectory:
    """Run the recommendation dynamics for ``config.T`` steps.

    ``config.mode`` picks the offer among the eligible sources (strictly
    above the user's mean quality, not yet trusted): ``"constrained"`` offers
    the cheapest by trust cost, ``"unconstrained"`` the highest quality; ties
    go to the smallest id. Acceptance and drop mechanics are shared, and the
    trust cost of each offer is recorded in both modes. Only ``u0.user_id``,
    ``u0.sources`` and ``u0.L``, the reader's limit, are read, so ``u0`` may
    be a :class:`Persona` or a profile; a set or limit that breaks the rule
    of :func:`_start_rows` raises ValueError. ``Trajectory.start`` is the
    :func:`profile_from_sources` of ``u0.sources`` and ``u0.L``, and
    ``Trajectory.final`` the profile of the last members, sorted. Pure in
    its inputs: ``u0`` is never changed, and the outcome is a function of
    (u0, catalog, config) alone. The one reader of :func:`simulate_all`."""
    return simulate_all([u0], catalog, config)[0]


def simulate_all(
    readers: list[Persona | UserProfile], catalog: SourceCatalog, config: SimConfig
) -> list[Trajectory]:
    """Run each reader of ``readers`` under ``config`` as :func:`simulate`
    describes, all in lockstep, and return their trajectories in order.

    Every reader's state is one row of arrays: its members and means (a
    :class:`_Rows` of :func:`_start_rows`) and its standing offer, made by one
    :func:`_offers` call over every reader without one and kept until the
    reader accepts it. At each step one :func:`_lotteries` call gives every
    stepping reader its offer's cost, its chance ``p`` and its drop lottery,
    and the reader takes one uniform draw from its own :func:`rng_for_user`
    stream: below capacity it accepts when the draw is below ``p``; at
    capacity it drops the row that ``bisect_right`` over the running sums
    of the shares picks, where dropping the offer is rejection. One
    vectorized update gives every reader that accepted its new members,
    sorted, and one :func:`_means` call its new means. A reader's trajectory
    is a function of its own (u0, catalog, config), whatever other readers
    share the batch. One :func:`_start_rows` call checks every start set
    and lays out the state, so a refused set raises before any run is
    made, its position in ``readers`` as the error's ``run`` attribute.
    :func:`_row_profile` reads ``Trajectory.start`` off the state before
    the first step, and ``Trajectory.final`` after the last."""
    if not readers:
        return []
    n, ids = len(catalog), catalog._ids
    user_ids, limits = [u0.user_id for u0 in readers], [u0.L for u0 in readers]
    state = _start_rows(user_ids, [u0.sources for u0 in readers], catalog, limits)
    starts = [_row_profile(state, j, user_id, L, catalog) for j, (user_id, L) in enumerate(zip(user_ids, limits))]
    rngs = [rng_for_user(config.seed, user_id) for user_id in user_ids]
    # no reader holds more members than the catalog has, so a larger limit
    # means the same as the catalog size
    capacity = np.array([min(L, n) for L in limits], dtype=np.int64)
    # each reader's standing offer, -1 until one is made and again once accepted
    offer = np.full(len(readers), -1, dtype=np.int64)
    records: list[list[StepRecord]] = [[] for _ in readers]
    stepping = np.arange(len(readers))
    for t in range(config.T):
        # a rejected offer leaves the members, and so the offer, unchanged; a
        # converged reader, or one with nothing eligible, never changes again
        stepping = stepping[state.q_u[stepping] < 1.0 - SimConfig.epsilon_converge]
        offerless = stepping[offer[stepping] < 0]
        if offerless.size:
            offers = _offers(state.take(offerless), catalog, config.alpha if config.mode == "constrained" else None)
            offer[offerless] = [-1 if row is None else row for row in offers]
            stepping = stepping[offer[stepping] >= 0]
        if not stepping.size:
            break
        offered, full = offer[stepping], state.sizes[stepping] == capacity[stepping]
        stakes, counts, shares, cost, accept = _lotteries(state.take(stepping), full, offered, config.alpha, catalog)
        # one draw per reader: below capacity the offer is kept when the draw
        # is below p; at capacity bisect_right over the running sums picks the
        # row to drop, and a draw past every sum takes the last one
        dropped = np.array([
            drops[min(bisect_right(sums, draw, 0, count), count - 1)] if at_limit else (n if draw < chance else row)
            for j, at_limit, count, sums, drops, chance, row in zip(
                stepping.tolist(), full.tolist(), counts.tolist(), np.cumsum(shares, axis=1).tolist(),
                stakes.tolist(), accept.tolist(), offered.tolist(),
            )
            for draw in [rngs[j].random()]
        ], dtype=np.int64)
        taken = dropped != offered
        moved = stepping[taken]
        if moved.size:
            members = np.column_stack([state.members[moved], offer[moved]])
            members[members == dropped[taken][:, None]] = n
            members.sort(axis=1)
            state.members[moved] = members[:, :-1]
            state.sizes[moved] += dropped[taken] == n
            state.q_u[moved], state.l_u[moved], state.v_u[moved] = _means(
                state.members[moved], state.sizes[moved], catalog
            )
        for j, row, c, chance, a, d, q, l in zip(
            stepping.tolist(), offered.tolist(), cost.tolist(), accept.tolist(),
            taken.tolist(), dropped.tolist(), state.q_u[stepping].tolist(), state.l_u[stepping].tolist(),
        ):
            records[j].append(StepRecord(t, ids[row], c, chance, a, ids[d] if a and d < n else None, q, l))
        offer[moved] = -1
    trajectories = []
    for j, (start, steps) in enumerate(zip(starts, records)):
        final = _row_profile(state, j, start.user_id, start.L, catalog)
        q, l = final.q_u, final.l_u
        # every step after a reader stops is a no-op that draws nothing
        steps += [StepRecord(rest, None, None, None, False, None, q, l) for rest in range(len(steps), config.T)]
        trajectories.append(Trajectory(start.user_id, config, steps, start, final))
    return trajectories


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per step: the :class:`StepRecord` fields, in the order of the
    ``TRAJECTORY_FIELDS`` columns, with ``accepted`` as ``true`` or ``false``."""
    rows = ((*r[:4], "true" if r.accepted else "false", *r[5:]) for r in traj.steps)
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
    exact config (seed included) that produced the run, with the start
    profile's ``L`` as its ``L``; through ``corpus.write_text``, as a JSON
    list with one entry per line, keys sorted."""
    payload = []
    for traj in trajectories:
        cfg = traj.config
        payload.append(
            {
                "user_id": traj.user_id,
                "config": dict(vars(cfg), L=traj.start.L, epsilon_converge=cfg.epsilon_converge),
                "start": _profile_summary(traj.start),
                "end": _profile_summary(traj.final),
                "convergence_point": traj.convergence_point,
                "accepted_steps": sum(1 for r in traj.steps if r.accepted),
            }
        )
    write_text(path, "[\n" + ",\n".join(json.dumps(entry, sort_keys=True) for entry in payload) + "\n]\n")


@dataclass(frozen=True)
class Persona:
    user_id: str
    sources: tuple[str, ...]
    L: int


def load_personas(path) -> list[Persona]:
    """The personas of the JSON list in ``path``, checked for shape only by
    :func:`_personas`; :func:`simulate_all` checks each set and limit."""
    return _personas(read_json(path), path)


def _personas(data, path) -> list[Persona]:
    """The personas of ``data``, the JSON list of the file ``path``: one or
    more, each with a non-empty, UTF-8 ``user_id`` named once, ``sources`` a
    list of strings and ``L`` a non-bool int; else ValueError naming ``path``."""
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of personas")
    if not data:
        raise ValueError(f"{path}: no personas")
    personas = {}
    for i, entry in enumerate(data):
        where = f"{path}: persona #{i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected a JSON object")
        try:
            user_id, sources, limit = entry["user_id"], entry["sources"], entry["L"]
        except KeyError as exc:
            raise ValueError(f"{where}: missing field ({exc})") from exc
        if problem := _user_id_problem(user_id):
            raise ValueError(f"{where}: {problem}")
        if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
            raise ValueError(f"{where}: sources must be a list of strings, got {sources!r}")
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise ValueError(f"{where}: L must be an integer, got {limit!r}")
        if user_id in personas:
            raise ValueError(f"{path}: duplicate persona {user_id!r}")
        personas[user_id] = Persona(user_id=user_id, sources=tuple(sources), L=limit)
    return list(personas.values())


def write_personas(personas: list[Persona], path) -> None:
    """Write ``personas`` through ``corpus.write_text`` as the JSON list that
    :func:`load_personas` reads; a list its rule refuses raises first."""
    payload = [{"user_id": p.user_id, "sources": list(p.sources), "L": p.L} for p in personas]
    _personas(payload, path)
    write_text(path, json.dumps(payload, indent=2) + "\n")
