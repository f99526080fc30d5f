"""Trust-cost math, recommendation selection, the drop lottery, and the
simulation loop, plus the trajectory/summary/persona file formats.

Stochastic steps are validated by replaying the identical generator stream
through an independent inverse-CDF sampler and demanding the same outcome.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nudgesim import nudge
from nudgesim.nudge import (
    Persona,
    SimConfig,
    Source,
    SourceCatalog,
    StepRecord,
    UserProfile,
    convergence_point,
    drop_distribution,
    load_personas,
    profile_from_sources,
    rng_for_user,
    select_recommendation,
    simulate,
    trust_cost,
    update_scores,
    write_personas,
    write_summary_json,
    write_trajectory_csv,
)

ALPHA = 0.5


def _source(source_id, quality, leaning, vector):
    return Source(source_id, quality, leaning, np.asarray(vector, dtype=float))


def _profile(sources, limit, q_u, l_u, v_u, user_id="u"):
    return UserProfile(
        user_id=user_id,
        sources=sorted(sources),
        limit=limit,
        q_u=q_u,
        l_u=l_u,
        v_u=np.asarray(v_u, dtype=float),
    )


class _CountingRng:
    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


# ---------------------------------------------------------------- trust cost


def test_trust_cost_zero_for_aligned_source():
    u = _profile(["m"], 2, q_u=0.5, l_u=0.5, v_u=[2.0, 0.0])
    s = _source("s", 0.9, 0.5, [1.0, 0.0])  # same leaning, parallel vector
    assert trust_cost(s, u, ALPHA) == pytest.approx(0.0, abs=1e-12)


def test_trust_cost_one_for_flipped_orthogonal_source():
    u = _profile(["m"], 2, q_u=0.5, l_u=-1.0, v_u=[1.0, 0.0])
    s = _source("s", 0.9, 1.0, [0.0, 1.0])  # opposite pole, orthogonal vector
    # leaning term: 0.5 * |(-1) - 1| / 2 = 0.5; vector term: 0.5 * 1 = 0.5
    assert trust_cost(s, u, ALPHA) == pytest.approx(1.0, abs=1e-12)


def test_trust_cost_mixed_hand_value():
    u = _profile(["m"], 2, q_u=0.5, l_u=0.2, v_u=[1.0, 0.0])
    s = _source("s", 0.9, 0.6, [9.0, math.sqrt(19.0)])  # cos = 9/10
    # leaning term: 0.5 * 0.4 / 2 = 0.1; vector term: 0.5 * (1 - 0.9) = 0.05
    assert trust_cost(s, u, ALPHA) == pytest.approx(0.15, abs=1e-12)
    # and the two distances independently
    assert abs(u.l_u - s.leaning) / 2.0 == pytest.approx(0.2, abs=1e-12)
    from nudgesim.embedding import cosine_distance

    assert cosine_distance(u.v_u, s.vector) == pytest.approx(0.1, abs=1e-12)


def test_trust_cost_alpha_weighting_and_range():
    u = _profile(["m"], 2, q_u=0.5, l_u=-1.0, v_u=[1.0, 0.0])
    s = _source("s", 0.9, 1.0, [-1.0, 0.0])  # max leaning gap, opposite vector
    for alpha in (0.1, 0.5, 0.9):
        expected = (1 - alpha) * 1.0 + alpha * 2.0
        assert trust_cost(s, u, alpha) == pytest.approx(expected, abs=1e-12)


def test_trust_cost_zero_norm_profile_vector_is_neutral():
    u = _profile(["m"], 2, q_u=0.5, l_u=0.0, v_u=[0.0, 0.0])
    s = _source("s", 0.9, 0.0, [1.0, 0.0])
    assert trust_cost(s, u, ALPHA) == pytest.approx(0.5)  # alpha * 1.0


def test_trust_cost_rejects_degenerate_alpha():
    u = _profile(["m"], 2, q_u=0.5, l_u=0.0, v_u=[1.0, 0.0])
    s = _source("s", 0.9, 0.0, [1.0, 0.0])
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            trust_cost(s, u, alpha)


# ---------------------------------------------------------------- catalog


def _toy_catalog():
    return SourceCatalog(
        [
            _source("anchor", 0.3, 0.0, [1.0, 0.0]),
            _source("cheap", 0.6, 0.0, [1.0, 0.0]),
            _source("pricey", 0.7, 1.0, [0.0, 1.0]),
            _source("top", 0.95, -1.0, [-1.0, 0.0]),
            _source("weak", 0.1, 0.0, [1.0, 0.0]),
        ]
    )


def test_catalog_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SourceCatalog([_source("a", 0.5, 0.0, [1.0]), _source("a", 0.6, 0.0, [1.0])])
    with pytest.raises(ValueError, match="dims"):
        SourceCatalog([_source("a", 0.5, 0.0, [1.0]), _source("b", 0.6, 0.0, [1.0, 2.0])])
    with pytest.raises(ValueError, match="at least one"):
        SourceCatalog([])
    with pytest.raises(ValueError, match="quality"):
        _source("a", 1.2, 0.0, [1.0])
    with pytest.raises(ValueError, match="leaning"):
        _source("a", 0.5, -1.2, [1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _source("a", 0.5, 0.0, [1.0, bad])


def test_catalog_lookup_and_order():
    catalog = _toy_catalog()
    assert catalog.ids() == ["anchor", "cheap", "pricey", "top", "weak"]
    assert "cheap" in catalog and "missing" not in catalog
    assert catalog["top"].quality == 0.95
    assert catalog.max_quality() == 0.95
    assert len(catalog) == 5
    # the arrays hold one row per source, in sorted-id order
    assert [catalog.index[s] for s in catalog.ids()] == [0, 1, 2, 3, 4]
    assert catalog.quality.tolist() == [0.3, 0.6, 0.7, 0.95, 0.1]
    assert catalog.leaning.tolist() == [0.0, 0.0, 1.0, -1.0, 0.0]
    assert catalog.vectors[3].tolist() == [-1.0, 0.0]
    assert catalog.norms.tolist() == [1.0] * 5


def test_catalog_arrays_reject_writes():
    catalog = _toy_catalog()
    for array in (catalog.quality, catalog.leaning, catalog.vectors, catalog.norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    with pytest.raises(TypeError):
        catalog.index["anchor"] = 4


def test_profile_from_sources_means():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["weak", "anchor"], catalog, limit=3)
    assert u.sources == ["anchor", "weak"]  # stored sorted
    assert u.q_u == pytest.approx(0.2)
    assert u.l_u == pytest.approx(0.0)
    assert np.allclose(u.v_u, [1.0, 0.0])


def test_profile_from_sources_validation():
    catalog = _toy_catalog()
    with pytest.raises(ValueError, match="non-empty"):
        profile_from_sources("u", [], catalog, limit=2)
    with pytest.raises(ValueError, match="duplicate"):
        profile_from_sources("u", ["weak", "weak"], catalog, limit=3)
    with pytest.raises(ValueError, match="exceed"):
        profile_from_sources("u", ["weak", "anchor"], catalog, limit=1)
    with pytest.raises(ValueError, match="unknown source 'ghost'"):
        profile_from_sources("u", ["ghost"], catalog, limit=2)
    with pytest.raises(ValueError, match="limit"):
        profile_from_sources("u", ["weak"], catalog, limit=0)


def test_world_persona_start_means(world_catalog):
    from nudgesim.synthetic import WORLD_PERSONAS

    by_id = {p.user_id: p for p in WORLD_PERSONAS}
    conspiracist = by_id["conspiracy-right"]
    u = profile_from_sources(conspiracist.user_id, conspiracist.sources, world_catalog, conspiracist.L)
    assert u.q_u == pytest.approx(0.075, abs=1e-12)
    assert u.l_u == pytest.approx(0.6333333333333333, abs=1e-12)


# ---------------------------------------------------------------- selection


def test_select_recommendation_is_cost_argmin_over_eligible():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor"], catalog, limit=3)
    # eligible: cheap (cost 0), pricey, top; weak fails the quality bar
    picked = select_recommendation(u, catalog, ALPHA)
    assert picked.source_id == "cheap"
    costs = {
        s: trust_cost(catalog[s], u, ALPHA) for s in ("cheap", "pricey", "top")
    }
    assert costs["cheap"] == min(costs.values())


def test_select_recommendation_skips_trusted_even_if_cheapest():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor", "cheap"], catalog, limit=3)
    picked = select_recommendation(u, catalog, ALPHA)
    assert picked.source_id in ("pricey", "top")
    assert picked.source_id != "cheap"


def test_select_recommendation_requires_strict_quality_gain():
    catalog = SourceCatalog(
        [
            _source("a", 0.5, 0.0, [1.0, 0.0]),
            _source("b", 0.5, 0.0, [1.0, 0.0]),
        ]
    )
    u = profile_from_sources("u", ["a"], catalog, limit=2)
    assert select_recommendation(u, catalog, ALPHA) is None  # 0.5 is not > 0.5


def test_select_recommendation_breaks_ties_lexicographically():
    catalog = SourceCatalog(
        [
            _source("base", 0.2, 0.0, [1.0, 0.0]),
            _source("zeta", 0.8, 0.5, [0.0, 1.0]),
            _source("alpha", 0.8, 0.5, [0.0, 1.0]),  # identical cost to zeta
        ]
    )
    u = profile_from_sources("u", ["base"], catalog, limit=2)
    assert select_recommendation(u, catalog, ALPHA).source_id == "alpha"


def test_unconstrained_first_offer_is_quality_argmax():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor"], catalog, limit=3)
    config = SimConfig(T=1, L=3, seed=0, mode="unconstrained")
    traj = simulate(u, catalog, config)
    assert traj.steps[0].recommended == "top"
    assert traj.steps[0].trust_cost is not None


def _scalar_cost(s, l_u, v_u, alpha):
    """Trust cost in trust_cost's own operation order, for bitwise checks."""
    norm_a = float(np.linalg.norm(v_u))
    norm_b = float(np.linalg.norm(s.vector))
    if norm_a == 0.0 or norm_b == 0.0:
        d = 1.0
    else:
        d = 1.0 - float(np.dot(v_u, s.vector)) / (norm_a * norm_b)
    return (1.0 - alpha) * (abs(l_u - s.leaning) / 2.0) + alpha * d


def _exhaustive_offer(members, catalog, mode, alpha):
    """The offer an exhaustive scalar scan makes to ``members`` (None when
    there is none), with the leaning and vector means it used."""
    sources = [catalog[s] for s in members]
    q_u = sum(m.quality for m in sources) / len(sources)
    l_u = sum(m.leaning for m in sources) / len(sources)
    v_u = np.mean([m.vector for m in sources], axis=0)
    if q_u >= 1.0 - nudge.DEFAULT_EPSILON:
        return None, l_u, v_u
    best, best_key = None, None
    for source_id in catalog.ids():
        s = catalog[source_id]
        if source_id in members or s.quality <= q_u:
            continue
        key = _scalar_cost(s, l_u, v_u, alpha) if mode == "constrained" else -s.quality
        if best is None or key < best_key:
            best, best_key = s, key
    return best, l_u, v_u


# few distinct values, so that ties, zero norms, zero means and empty
# eligible sets are common. Permutations of one vector have mathematically
# equal dot products with a constant mean that round differently, so their
# costs sit within the verify margin in either order.
_QUALITIES = st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0)
_LEANINGS = st.sampled_from([-1.0, 0.0, 0.5, 0.5 + 1e-12]) | st.floats(-1.0, 1.0)


@st.composite
def _worlds(draw):
    dims = draw(st.integers(2, 8))
    base = draw(st.lists(st.floats(-2.0, 2.0), min_size=dims, max_size=dims))
    vectors = st.sampled_from([[0.0] * dims, [1.0] * dims, [-1.0] * dims])
    rows = draw(st.lists(st.tuples(_QUALITIES, _LEANINGS, vectors | st.permutations(base)),
                         min_size=1, max_size=7))
    # exact ties: copies of drawn rows under other ids
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    ids = draw(st.permutations([f"s{i:02d}" for i in range(len(rows))]))
    catalog = SourceCatalog(_source(i, q, l, v) for i, (q, l, v) in zip(ids, rows))
    L = draw(st.integers(1, 4))
    trusted = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=L, unique=True))
    alpha = draw(st.floats(0.01, 0.99))
    return catalog, trusted, L, alpha


def _edge_world(rows, trusted):
    return SourceCatalog(_source(*row) for row in rows), trusted, 3, ALPHA


@settings(max_examples=200, deadline=None)
@given(world=_worlds(), T=st.integers(1, 8), seed=st.integers(0, 2**32))
# duplicate vector and leaning under two ids: the smaller id wins
@example(world=_edge_world([("a", 0.2, 0.0, [1.0, 0.0]), ("y", 0.9, 0.4, [0.0, 1.0]),
                            ("x", 0.9, 0.4, [0.0, 1.0])], ["a"]), T=6, seed=5)
# zero-norm sources, and a member mean of zero norm
@example(world=_edge_world([("a", 0.2, 0.0, [1.0, 0.0]), ("b", 0.2, 0.0, [-1.0, 0.0]),
                            ("z", 0.7, 0.5, [0.0, 0.0]), ("w", 0.7, 0.5, [0.0, 1.0])],
                           ["a", "b"]), T=6, seed=5)
# nothing eligible
@example(world=_edge_world([("a", 0.6, 0.0, [1.0, 0.0]), ("b", 0.6, 0.3, [0.0, 1.0])], ["a"]),
         T=6, seed=5)
def test_offers_match_exhaustive_scalar_argmin(world, T, seed):
    catalog, trusted, L, alpha = world
    u0 = profile_from_sources("u", trusted, catalog, L)
    for mode in ("constrained", "unconstrained"):
        traj = simulate(u0, catalog, SimConfig(T=T, L=L, seed=seed, alpha=alpha, mode=mode))
        members = sorted(trusted)
        for record in traj.steps:
            offer, l_u, v_u = _exhaustive_offer(members, catalog, mode, alpha)
            if offer is None:
                assert record.recommended is None and record.trust_cost is None
                continue
            assert record.recommended == offer.source_id
            assert record.trust_cost == _scalar_cost(offer, l_u, v_u, alpha)
            if record.accepted:
                members = sorted(
                    s for s in members + [offer.source_id] if s != record.dropped
                )
        assert traj.final.sources == members


def test_select_recommendation_exact_among_rounding_ties():
    # permutations of one vector have mathematically equal costs against a
    # constant mean; the mat-vec and the scalar dot round them differently,
    # so only the scalar verification picks the exhaustive argmin
    rng = np.random.default_rng(3)
    for _ in range(40):
        base = rng.uniform(-2.0, 2.0, 16)
        rows = [_source("anchor", 0.1, 0.0, np.ones(16))]
        rows += [_source(f"p{i:02d}", 0.9, 0.2, rng.permutation(base)) for i in range(30)]
        catalog = SourceCatalog(rows)
        u = profile_from_sources("u", ["anchor"], catalog, limit=2)
        expected, _, _ = _exhaustive_offer(["anchor"], catalog, "constrained", ALPHA)
        assert select_recommendation(u, catalog, ALPHA) is expected


# ---------------------------------------------------------------- drop lottery


def test_drop_distribution_hand_case():
    catalog = SourceCatalog(
        [
            _source("m1", 0.5, 0.2, [1.0, 1.0]),
            _source("m2", 0.5, -0.2, [1.0, 1.0]),
            _source("new", 0.9, -1.0, [1.0, 1.0]),
        ]
    )
    # identical vectors kill the cosine term; leanings alone set the costs
    u = _profile(["m1", "m2"], 2, q_u=0.5, l_u=1.0, v_u=[1.0, 1.0])
    dist = drop_distribution(u, catalog["new"], catalog, ALPHA)
    assert dist["m1"] == pytest.approx(0.2, abs=1e-12)
    assert dist["m2"] == pytest.approx(0.3, abs=1e-12)
    assert dist["new"] == pytest.approx(0.5, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert list(dist) == ["m1", "m2", "new"]  # sorted candidate order


def test_drop_distribution_uniform_fallback_at_zero_cost():
    catalog = SourceCatalog(
        [
            _source("a", 0.5, 0.0, [1.0, 0.0]),
            _source("b", 0.6, 0.0, [2.0, 0.0]),
            _source("c", 0.9, 0.0, [3.0, 0.0]),
        ]
    )
    u = _profile(["a", "b"], 2, q_u=0.55, l_u=0.0, v_u=[1.0, 0.0])
    dist = drop_distribution(u, catalog["c"], catalog, ALPHA)
    assert dist == {"a": pytest.approx(1 / 3), "b": pytest.approx(1 / 3), "c": pytest.approx(1 / 3)}


def test_drop_distribution_preconditions():
    catalog = _toy_catalog()
    below = _profile(["anchor"], 2, q_u=0.3, l_u=0.0, v_u=[1.0, 0.0])
    with pytest.raises(ValueError, match="full profile"):
        drop_distribution(below, catalog["top"], catalog, ALPHA)
    full = _profile(["anchor", "cheap"], 2, q_u=0.45, l_u=0.0, v_u=[1.0, 0.0])
    with pytest.raises(ValueError, match="already trusted"):
        drop_distribution(full, catalog["cheap"], catalog, ALPHA)


@given(
    leanings=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=3, max_size=6
    ),
    l_u=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_drop_distribution_normalizes(leanings, l_u):
    sources = [
        _source(f"s{i}", 0.5, leaning, [1.0, float(i)]) for i, leaning in enumerate(leanings)
    ]
    catalog = SourceCatalog(sources)
    members = [s.source_id for s in sources[:-1]]
    u = _profile(members, len(members), q_u=0.5, l_u=l_u, v_u=[1.0, 0.5])
    dist = drop_distribution(u, sources[-1], catalog, ALPHA)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= 0.0 for p in dist.values())
    assert set(dist) == set(members) | {sources[-1].source_id}


# ---------------------------------------------------------------- single step


def _config(**kwargs):
    base = dict(T=10, L=3, seed=0)
    base.update(kwargs)
    return SimConfig(**base)


def _one_step(u0, catalog, **kwargs):
    """The first step of a run, and the profile after it."""
    traj = simulate(u0, catalog, _config(T=1, **kwargs))
    return traj.steps[0], traj.final


def test_step_zero_cost_offer_always_accepted():
    catalog = SourceCatalog(
        [
            _source("low", 0.2, 0.0, [1.0, 0.0]),
            _source("high", 0.8, 0.0, [2.0, 0.0]),  # same direction, same leaning
        ]
    )
    for seed in range(10):
        u = profile_from_sources("u", ["low"], catalog, limit=2)
        record, u = _one_step(u, catalog, L=2, seed=seed)
        assert record.accepted
        assert record.accept_probability == 1.0
        assert u.sources == ["high", "low"]
        assert record.q_u == pytest.approx(0.5)


def test_step_cost_above_one_never_accepted():
    catalog = SourceCatalog(
        [
            _source("seed", 0.2, -1.0, [1.0, 0.0]),
            _source("hostile", 0.9, 1.0, [-1.0, 0.0]),  # cost 1.5 at alpha=0.5
        ]
    )
    for seed in range(10):
        u = profile_from_sources("u", ["seed"], catalog, limit=2)
        record, u = _one_step(u, catalog, L=2, seed=seed)
        assert record.recommended == "hostile"
        assert record.accept_probability == 0.0
        assert not record.accepted
        assert u.sources == ["seed"]


def test_step_draw_counts(monkeypatch):
    streams = []

    def counting_rng(seed, user_id):
        streams.append(_CountingRng(rng_for_user(seed, user_id)))
        return streams[-1]

    monkeypatch.setattr(nudge, "rng_for_user", counting_rng)
    catalog = _toy_catalog()
    # below capacity: exactly one uniform
    u = profile_from_sources("u", ["anchor"], catalog, limit=2)
    _one_step(u, catalog, L=2)
    assert streams[-1].calls == 1
    # at capacity: still exactly one uniform
    u = profile_from_sources("u", ["anchor", "weak"], catalog, limit=2)
    _one_step(u, catalog, L=2)
    assert streams[-1].calls == 1
    # converged: none
    top_only = SourceCatalog([_source("perfect", 1.0, 0.0, [1.0, 0.0])])
    u = profile_from_sources("u", ["perfect"], top_only, limit=2)
    record, _ = _one_step(u, top_only, L=2)
    assert streams[-1].calls == 0
    assert record.recommended is None and not record.accepted
    # nothing eligible (0.95 is the best quality in the catalog): none
    u = profile_from_sources("u", ["top"], catalog, limit=2)
    record, _ = _one_step(u, catalog, L=2)
    assert streams[-1].calls == 0
    assert record.recommended is None


def test_step_at_capacity_matches_inverse_cdf_oracle():
    catalog = _toy_catalog()
    for seed in range(200):
        u = profile_from_sources("u", ["anchor", "weak"], catalog, limit=2)
        offered = select_recommendation(u, catalog, ALPHA)
        dist = drop_distribution(u, offered, catalog, ALPHA)
        draw = rng_for_user(seed, "u").random()
        cumulative = np.cumsum([dist[s] for s in dist])
        idx = min(int(np.searchsorted(cumulative, draw, side="right")), len(dist) - 1)
        victim = list(dist)[idx]

        record, u = _one_step(u, catalog, L=2, seed=seed)
        assert record.recommended == offered.source_id
        assert record.accept_probability == pytest.approx(1.0 - dist[offered.source_id])
        if victim == offered.source_id:
            assert not record.accepted and record.dropped is None
            assert u.sources == ["anchor", "weak"]
        else:
            assert record.accepted and record.dropped == victim
            assert victim not in u.sources
            assert offered.source_id in u.sources
        assert len(u.sources) == 2


def test_step_updates_means_after_membership_change():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor"], catalog, limit=2)
    record, u = _one_step(u, catalog, L=2, seed=1)
    if record.accepted:
        members = [catalog[s] for s in u.sources]
        assert record.q_u == pytest.approx(np.mean([m.quality for m in members]))
        assert record.l_u == pytest.approx(np.mean([m.leaning for m in members]))


# ---------------------------------------------------------------- full runs


def test_simulate_deterministic_and_pure():
    catalog = _toy_catalog()
    u0 = profile_from_sources("reader", ["anchor", "weak"], catalog, limit=2)
    before = (list(u0.sources), u0.q_u, u0.l_u, u0.v_u.copy())
    config = _config(T=40, L=2, seed=9)
    first = simulate(u0, catalog, config)
    second = simulate(u0, catalog, config)
    assert first.steps == second.steps
    assert first.final.sources == second.final.sources
    assert first.convergence_point == second.convergence_point
    # input profile untouched
    assert u0.sources == before[0]
    assert u0.q_u == before[1] and u0.l_u == before[2]
    assert np.array_equal(u0.v_u, before[3])
    # some other seed must produce a different run
    assert any(
        simulate(u0, catalog, _config(T=40, L=2, seed=s)).steps != first.steps
        for s in range(10, 20)
    )


def test_simulate_starts_converged_profile_as_noop():
    catalog = SourceCatalog(
        [
            _source("perfect", 1.0, 0.0, [1.0, 0.0]),
            _source("other", 0.5, 0.0, [1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("done", ["perfect"], catalog, limit=2)
    traj = simulate(u0, catalog, _config(T=5, L=2))
    assert traj.convergence_point == 0
    assert all(r.recommended is None and not r.accepted for r in traj.steps)
    assert traj.final.sources == ["perfect"]


def test_simulate_stops_changing_after_convergence():
    catalog = SourceCatalog(
        [
            _source("start", 0.4, 0.0, [1.0, 0.0]),
            _source("best", 1.0, 0.0, [1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("u", ["start"], catalog, limit=1)
    traj = simulate(u0, catalog, _config(T=30, L=1, seed=3))
    point = traj.convergence_point
    assert point is not None
    for record in traj.steps[point + 1 :]:
        assert record.recommended is None
        assert record.q_u == traj.steps[point].q_u


def test_simulate_validates_inputs():
    catalog = _toy_catalog()
    stranger = _profile(["ghost"], 2, 0.5, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="unknown source"):
        simulate(stranger, catalog, _config())
    crowded = _profile(["anchor", "cheap", "top"], 3, 0.5, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="exceed"):
        simulate(crowded, catalog, _config(L=2))


def test_simconfig_validation():
    with pytest.raises(ValueError, match="T"):
        SimConfig(T=0, L=1, seed=0)
    with pytest.raises(ValueError, match="L"):
        SimConfig(T=1, L=0, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        SimConfig(T=1, L=1, seed=0, alpha=1.0)
    with pytest.raises(ValueError, match="mode"):
        SimConfig(T=1, L=1, seed=0, mode="hybrid")


def test_unconstrained_accepts_perfect_source_below_capacity():
    catalog = SourceCatalog(
        [
            _source("start", 0.4, 0.0, [1.0, 0.0]),
            _source("ideal", 1.0, 0.0, [1.0, 0.0]),  # zero trust cost too
            _source("decoy", 0.9, 0.0, [1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("u", ["start"], catalog, limit=2)
    config = SimConfig(T=1, L=2, seed=0, mode="unconstrained")
    traj = simulate(u0, catalog, config)
    assert traj.steps[0].recommended == "ideal"
    assert traj.steps[0].accepted  # zero cost, room to grow: certain accept
    assert traj.final.sources == ["ideal", "start"]
    assert traj.final.q_u == pytest.approx(0.7)


def test_single_member_profile_at_capacity_never_evicts():
    # the lone member's cost against its own profile is identically zero, so
    # any offer with positive cost loses the lottery with certainty
    catalog = SourceCatalog(
        [
            _source("start", 0.4, 0.4, [1.0, 0.0]),
            _source("ideal", 1.0, 0.0, [1.0, 0.0]),
        ]
    )
    for seed in range(10):
        u0 = profile_from_sources("u", ["start"], catalog, limit=1)
        traj = simulate(u0, catalog, SimConfig(T=3, L=1, seed=seed))
        assert traj.final.sources == ["start"]
        assert all(not r.accepted for r in traj.steps)


def test_constrained_first_offer_never_costlier_than_unconstrained():
    catalog = _toy_catalog()
    for members in (["anchor"], ["weak"], ["anchor", "weak"]):
        u0 = profile_from_sources("u", members, catalog, limit=3)
        con = simulate(u0, catalog, _config(T=1, L=3, seed=1))
        unc = simulate(u0, catalog, _config(T=1, L=3, seed=1, mode="unconstrained"))
        assert con.steps[0].trust_cost <= unc.steps[0].trust_cost


def test_convergence_point_variants():
    base = dict(recommended=None, trust_cost=None, accept_probability=None,
                accepted=False, dropped=None, l_u=0.0)
    cfg = _config(T=3, L=1)

    def _traj(qs):
        steps = [StepRecord(t=t, q_u=q, **base) for t, q in enumerate(qs)]
        u = _profile(["x"], 1, qs[-1], 0.0, [1.0])
        return Trajectory_like(steps, cfg, u)

    # built through the public type to keep the helper honest
    from nudgesim.nudge import Trajectory

    def Trajectory_like(steps, config, u):
        return Trajectory(
            user_id="u", config=config, steps=steps, convergence_point=None,
            start=u, final=u,
        )

    assert convergence_point(_traj([0.5, 1.0, 1.0])) == 1
    assert convergence_point(_traj([0.5, 0.6, 0.7])) is None
    assert convergence_point(_traj([1.0, 1.0, 1.0])) == 0
    assert convergence_point(_traj([1.0 - 5e-10, 0.5, 0.5])) == 0  # inside epsilon


# ---------------------------------------------------------------- rng streams


def test_rng_for_user_streams():
    a1 = rng_for_user(7, "alice").random(4)
    a2 = rng_for_user(7, "alice").random(4)
    b = rng_for_user(7, "bob").random(4)
    other_seed = rng_for_user(8, "alice").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other_seed)
    # seed wraps into unsigned 64-bit space
    wrapped = rng_for_user(2**64, "alice").random(4)
    assert np.array_equal(wrapped, rng_for_user(0, "alice").random(4))


# ---------------------------------------------------------------- file formats


def _small_trajectory():
    catalog = _toy_catalog()
    u0 = profile_from_sources("reader", ["anchor"], catalog, limit=2)
    return simulate(u0, catalog, _config(T=4, L=2, seed=5))


def test_trajectory_csv_format(tmp_path):
    traj = _small_trajectory()
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,recommended,trust_cost,accept_prob,accepted,dropped,q_u,l_u"
    assert len(lines) == 1 + len(traj.steps)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] in ("true", "false")
    assert float(first[6]) == traj.steps[0].q_u  # repr round-trips exactly
    # no-op rows leave the optional columns empty
    noop = next((r for r in traj.steps if r.recommended is None), None)
    if noop is not None:
        row = lines[1 + noop.t].split(",")
        assert row[1] == "" and row[2] == "" and row[5] == ""


def test_summary_json_format(tmp_path):
    traj = _small_trajectory()
    path = tmp_path / "summary.json"
    write_summary_json([traj], path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    payload = json.loads(text)
    entry = payload[0]
    assert entry["user_id"] == "reader"
    assert entry["config"]["seed"] == 5
    assert entry["config"]["mode"] == "constrained"
    assert entry["start"]["sources"] == ["anchor"]
    assert entry["end"]["sources"] == traj.final.sources
    assert entry["accepted_steps"] == sum(1 for r in traj.steps if r.accepted)
    assert entry["convergence_point"] == traj.convergence_point
    # deterministic key order for byte-stable reruns
    assert text.index('"T"') < text.index('"alpha"') < text.index('"seed"')


def test_personas_round_trip(tmp_path):
    personas = [
        Persona("casual", ("quarry-press", "valley-voice"), 3),
        Persona("skeptic", ("meridian-daily",), 2),
    ]
    path = tmp_path / "personas.json"
    write_personas(personas, path)
    assert load_personas(path) == personas


def test_load_personas_errors(tmp_path):
    path = tmp_path / "personas.json"
    path.write_text('{"user_id": "solo"}', encoding="utf-8")
    with pytest.raises(ValueError, match="JSON list"):
        load_personas(path)
    path.write_text('[{"user_id": "x", "L": 2}]', encoding="utf-8")
    with pytest.raises(ValueError, match="persona #0"):
        load_personas(path)
    path.write_text('[{"user_id": "x", "sources": [], "L": 2}]', encoding="utf-8")
    with pytest.raises(ValueError, match="no sources"):
        load_personas(path)
    path.write_text(
        '[{"user_id": "x", "sources": ["a"], "L": 2},'
        ' {"user_id": "x", "sources": ["b"], "L": 2}]',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="duplicate persona"):
        load_personas(path)


def test_bundled_personas_simulate_on_fixture_catalog(fixture_csn):
    from nudgesim import synthetic
    from nudgesim.embedding import embed_graph
    from nudgesim.groundtruth import read_labels_csv, score_sources

    labels = read_labels_csv(synthetic.fixture_labels_path())
    scores = score_sources(labels, fixture_csn)
    vectors = embed_graph(fixture_csn, seed=0, dims=8, walk_length=10, walks_per_node=3, epochs=1)
    catalog = SourceCatalog.from_scores(scores, vectors)
    assert "orphan-press" not in catalog  # unavailable rows are not usable
    personas = load_personas(synthetic.fixture_personas_path())
    for persona in personas:
        u0 = profile_from_sources(persona.user_id, persona.sources, catalog, persona.L)
        traj = simulate(u0, catalog, SimConfig(T=20, L=persona.L, seed=1))
        assert len(traj.steps) == 20
        assert traj.final.q_u >= u0.q_u  # quality never degrades
