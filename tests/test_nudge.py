"""Trust-cost math, recommendation selection, the drop lottery, and the
simulation loop, plus the trajectory/summary/persona file formats.

Stochastic steps are validated by replaying the identical generator stream
through an independent inverse-CDF sampler and demanding the same outcome.
"""

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _replica_cost, _replica_means
from test_embedding import _refusal

from nudgesim import nudge
from nudgesim.corpus import float_sum
from nudgesim.embedding import NO_DIRECTION_NORM
from nudgesim.groundtruth import SourceScore
from nudgesim.nudge import (
    TRAJECTORY_FIELDS,
    Persona,
    SimConfig,
    Source,
    SourceCatalog,
    StepRecord,
    Trajectory,
    UserProfile,
    drop_distribution,
    load_personas,
    profile_from_sources,
    rng_for_user,
    simulate,
    trust_cost,
    write_personas,
    write_summary_json,
    write_trajectory_csv,
)

ALPHA = 0.5


def _source(source_id, quality, leaning, vector):
    return Source(source_id, quality, leaning, np.asarray(vector, dtype=float))


def _admitted(vector) -> bool:
    """Whether a source may have this vector, by the scalar rule of
    ``_refusal``."""
    return _refusal("s", vector) is None


def _scalar_cost(s, l_u, v_u, alpha):
    """``_replica_cost``, with a mean below the no-direction norm taken as
    the zero vector: the simulator gives it no direction."""
    if np.linalg.norm(v_u) < NO_DIRECTION_NORM:
        v_u = np.zeros_like(v_u)
    return _replica_cost(s, l_u, v_u, alpha)


def _profile(sources, L, q_u, l_u, v_u, user_id="u"):
    return UserProfile(
        user_id=user_id,
        sources=sorted(sources),
        L=L,
        q_u=q_u,
        l_u=l_u,
        v_u=np.asarray(v_u, dtype=float),
    )


def _rows_of(profiles, catalog):
    """The simulator's start rows for the sources and limits of ``profiles``."""
    return nudge._start_rows(
        [u.user_id for u in profiles], [u.sources for u in profiles], catalog,
        [u.L for u in profiles],
    )


class _CountingRng:
    """Wraps a generator and counts uniform draws."""

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


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 5.0, math.nan])
def test_entry_points_reject_bad_alpha_before_other_work(alpha):
    # nothing is eligible for a profile of "top" alone (q_u = 0.95 tops the
    # catalog), and the profile is below capacity, yet alpha is what fails
    catalog = _toy_catalog()
    u = _profile(["top"], 2, q_u=0.95, l_u=-1.0, v_u=[-1.0, 0.0])
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        trust_cost(catalog["top"], u, alpha)
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        drop_distribution(u, catalog["top"], catalog, alpha)
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        SimConfig(T=1, seed=0, alpha=alpha)


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
        SourceCatalog([_source("a", 1.2, 0.0, [1.0])])
    with pytest.raises(ValueError, match="leaning"):
        SourceCatalog([_source("a", 0.5, -1.2, [1.0])])
    # every component of the last one is finite, but its norm overflows
    for vector in ([1.0, math.nan], [1.0, math.inf], [1.0, -math.inf], [1e200, 1e200]):
        with pytest.raises(ValueError, match="non-finite"):
            SourceCatalog([_source("a", 0.5, 0.0, vector)])
    # a nonzero vector whose v·v is subnormal, or underflows to zero, has
    # lost the bits its norm is taken from; the smallest admitted is zero or
    # has v·v of at least the smallest normal float
    for vector in ([2.3e-162, 0.0], [1e-160, 3e-161, 0.0], [1e-170, 0.0], [5e-324]):
        with pytest.raises(ValueError, match="^vector for 'a' is not zero but its squared norm is subnormal$"):
            SourceCatalog([_source("a", 0.5, 0.0, vector)])
    for vector in ([0.0, -0.0], [1.5e-154, 0.0, 0.0]):
        assert SourceCatalog([_source("a", 0.5, 0.0, vector)]).vectors[0].tolist() == vector


def test_a_score_field_that_is_no_number_is_a_value_error():
    # one rule for a score field, in a catalog and in a score: a field that
    # is no number raises ValueError naming the field and the value, not the
    # TypeError of a comparison
    refusals = [
        (lambda: SourceCatalog([_source("a", None, 0.0, [1.0])]), "a: quality must be a number, got None"),
        (lambda: SourceCatalog([_source("a", "0.5", 0.0, [1.0])]), "a: quality must be a number, got '0.5'"),
        (lambda: SourceScore("a", "x", None, "unavailable"), "quality must be a number, got 'x'"),
        (lambda: SourceScore("a", None, [0.5], "unavailable"), "leaning must be a number, got [0.5]"),
    ]
    for make, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
    # a numpy float and a bool are numbers, as before
    assert SourceCatalog([_source("a", np.float32(0.5), True, [1.0])]).leaning.tolist() == [1.0]
    assert SourceScore("a", np.float32(0.5), True, "labeled").leaning is True


@pytest.mark.parametrize("vector, message", [
    (np.eye(2), r"^vector for 'a' has shape \(2, 2\), not one dimension$"),
    (np.float64(1.0), r"^vector for 'a' has shape \(\), not one dimension$"),
    (np.zeros(0), r"^no components for 'a'$"),
], ids=["matrix", "scalar", "no-components"])
def test_source_vector_is_one_dimension_of_one_component_or_more(vector, message):
    # the one shape rule, named by source, rather than a catalog that fails
    # on numpy's reshape or len(), or builds (1, 0)
    with pytest.raises(ValueError, match=message):
        SourceCatalog([Source("a", 0.5, 0.0, vector)])
    from types import SimpleNamespace

    from nudgesim.embedding import SourceVectors

    scores = {"a": SimpleNamespace(quality=0.5, leaning=0.0, provenance="labeled")}
    with pytest.raises(ValueError, match=message):
        SourceCatalog.from_scores(scores, SourceVectors(dims=2, vectors={"a": vector}))


def test_source_vector_may_be_a_list():
    catalog = SourceCatalog([Source("a", 0.5, 0.0, [3.0, 4.0]), Source("b", 0.6, 0.0, (1.0, 0.0))])
    assert catalog.vectors.tolist() == [[3.0, 4.0], [1.0, 0.0]]
    assert catalog.norms.tolist() == [5.0, 1.0]


_SCORE_ROWS = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 1.2, -0.1, math.nan]),
    st.sampled_from([-1.0, 0.0, 1.0, 1.5, math.nan]),
    st.sampled_from([[1.0, 0.0], [0.0, 0.0], [math.inf, 0.0], [1e-170, 0.0], [1.0], [1e200, 1.0], [0.5, 0.5, 0.5]]),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_SCORE_ROWS, min_size=1, max_size=6))
@example(rows=[(0.5, 0.0, [math.inf, 0.0]), (1.2, 0.0, [1.0, 0.0])])
@example(rows=[(0.5, 0.0, [1e-170, 0.0]), (0.5, 0.0, [1.0])])
def test_catalog_from_scores_refuses_records_then_vectors(rows):
    # from_scores checks in two passes, in score order: first each entry's
    # record (quality, leaning, then a vector length other than the first
    # entry's; every vector here has one dimension), and only then every
    # vector's values, the first bad one raising (a SourceScore refuses a
    # bad quality or leaning itself, so the scores here are plain records)
    from types import SimpleNamespace

    from nudgesim.embedding import SourceVectors

    ids = [f"s{len(rows) - i}" for i in range(len(rows))]  # score order is not id order
    scores = {s: SimpleNamespace(quality=q, leaning=l, provenance="labeled") for s, (q, l, _) in zip(ids, rows)}
    vectors = SourceVectors(dims=2, vectors={s: np.array(v) for s, (_, _, v) in zip(ids, rows)})

    def outcome(build):
        try:
            catalog = build()
        except ValueError as exc:
            return str(exc)
        return catalog.ids(), [a.tobytes() for a in (catalog.quality, catalog.leaning, catalog.vectors, catalog.norms)]

    def records_then_vectors():
        first = len(vectors.vectors[ids[0]])
        for s in ids:
            quality, leaning, length = scores[s].quality, scores[s].leaning, len(vectors.vectors[s])
            if not 0.0 <= quality <= 1.0:
                raise ValueError(f"{s}: quality {quality} outside [0, 1]")
            if not -1.0 <= leaning <= 1.0:
                raise ValueError(f"{s}: leaning {leaning} outside [-1, 1]")
            if length != first:
                raise ValueError(f"{s}: vector has {length} dims, expected {first}")
        for s in ids:
            if message := _refusal(s, vectors.vectors[s]):
                raise ValueError(message)
        return SourceCatalog([Source(s, scores[s].quality, scores[s].leaning, vectors.vectors[s]) for s in ids])

    assert outcome(lambda: SourceCatalog.from_scores(scores, vectors)) == outcome(records_then_vectors)


def test_catalog_from_scores_is_the_same_in_any_score_order():
    # the usable sources are labeled or imputed and embedded, in id order,
    # however the scores dict is ordered
    from nudgesim.embedding import SourceVectors
    from nudgesim.groundtruth import SourceScore

    provenances = ["labeled", "imputed", "unavailable"]
    scores = {
        f"s{i}": SourceScore(f"s{i}", (i * 7 % 10) / 10, (i % 5 - 2) / 2, provenances[i % 3]) for i in range(12)
    }
    embedded = {f"s{i}": np.array([math.cos(i), math.sin(i), i / 12]) for i in range(12) if i != 4}
    vectors = SourceVectors(dims=3, vectors=embedded)
    usable = [f"s{i}" for i in range(12) if i % 3 < 2 and i != 4]

    def outcome(catalog):
        arrays = (catalog.quality, catalog.leaning, catalog.vectors, catalog.norms)
        return catalog.ids(), dict(catalog.index), [a.tobytes() for a in arrays]

    expected = outcome(SourceCatalog(
        _source(s, scores[s].quality, scores[s].leaning, embedded[s]) for s in usable
    ))
    assert expected[0] == sorted(usable)
    shuffled = [f"s{i}" for i in (5, 11, 0, 7, 2, 9, 4, 1, 10, 3, 8, 6)]
    for order in (list(scores), list(reversed(scores)), shuffled):
        assert outcome(SourceCatalog.from_scores({s: scores[s] for s in order}, vectors)) == expected


def test_catalog_lookup_and_order():
    catalog = _toy_catalog()
    assert catalog.ids() == ["anchor", "cheap", "pricey", "top", "weak"]
    assert "cheap" in catalog and "missing" not in catalog
    assert catalog["top"].quality == 0.95
    assert len(catalog) == 5
    # the arrays hold one row per source, in sorted-id order
    assert [catalog.index[s] for s in catalog.ids()] == [0, 1, 2, 3, 4]
    assert catalog.quality.tolist() == [0.3, 0.6, 0.7, 0.95, 0.1]
    assert catalog.leaning.tolist() == [0.0, 0.0, 1.0, -1.0, 0.0]
    assert catalog.vectors[3].tolist() == [-1.0, 0.0]
    assert catalog.norms.tolist() == [1.0] * 5


# a Source with one bad field, and the message a catalog refuses it with
_BAD_SOURCES = [
    ("a", 1.2, 0.0, [1.0], r"^a: quality 1.2 outside \[0, 1\]$"),
    ("a", 0.5, -1.2, [1.0], r"^a: leaning -1.2 outside \[-1, 1\]$"),
    *(("a", 0.5, 0.0, vector, r"^non-finite vector norm for 'a'$")
      for vector in ([1.0, math.nan], [1.0, math.inf], [1.0, -math.inf], [1e200, 1e200])),
    *(("a", 0.5, 0.0, vector, r"^vector for 'a' is not zero but its squared norm is subnormal$")
      for vector in ([2.3e-162, 0.0], [1e-160, 3e-161, 0.0], [1e-170, 0.0], [5e-324])),
    ("a", 0.5, 0.0, np.eye(2), r"^vector for 'a' has shape \(2, 2\), not one dimension$"),
    ("a", 0.5, 0.0, np.float64(1.0), r"^vector for 'a' has shape \(\), not one dimension$"),
    ("a", 0.5, 0.0, np.zeros(0), r"^no components for 'a'$"),
]


@pytest.mark.parametrize("source_id, quality, leaning, vector, message", _BAD_SOURCES)
def test_a_bad_source_builds_and_every_catalog_refuses_it(source_id, quality, leaning, vector, message):
    # a Source is a plain record; the catalog is the one place it is
    # checked, whether built from sources, from scores or for one trust cost
    from types import SimpleNamespace

    from nudgesim.embedding import SourceVectors

    s = Source(source_id, quality, leaning, vector)
    assert (s.source_id, s.quality, s.leaning) == (source_id, quality, leaning) and s.vector is vector
    scores = {source_id: SimpleNamespace(quality=quality, leaning=leaning, provenance="labeled")}
    u = _profile(["m"], 2, q_u=0.5, l_u=0.0, v_u=[1.0, 0.0])
    for refuse in (
        lambda: SourceCatalog([s]),
        lambda: SourceCatalog.from_scores(scores, SourceVectors(dims=2, vectors={source_id: vector})),
        lambda: trust_cost(s, u, ALPHA),
    ):
        with pytest.raises(ValueError, match=message):
            refuse()


def test_catalog_lookup_runs_no_check(monkeypatch):
    # a lookup reads rows the catalog checked when it was built
    catalog = _toy_catalog()

    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(nudge, "check_vectors", refuse)
    monkeypatch.setattr(nudge, "check_shape", refuse)
    with pytest.raises(AssertionError, match="a check ran"):
        SourceCatalog([catalog["pricey"]])
    s = catalog["pricey"]
    assert (s.source_id, s.quality, s.leaning, s.vector.tolist()) == ("pricey", 0.7, 1.0, [0.0, 1.0])
    assert type(s.quality) is type(s.leaning) is float
    assert not s.vector.flags.writeable


def test_catalog_arrays_reject_writes():
    catalog = _toy_catalog()
    for array in (catalog.quality, catalog.leaning, catalog.vectors, catalog.norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    with pytest.raises(TypeError):
        catalog.index["anchor"] = 4


def test_profile_from_sources_means():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["weak", "anchor"], catalog, L=3)
    assert u.sources == ["anchor", "weak"]  # stored sorted
    assert u.q_u == pytest.approx(0.2)
    assert u.l_u == pytest.approx(0.0)
    assert np.allclose(u.v_u, [1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 8).flatmap(
        lambda dims: st.lists(
            st.lists(st.floats(-1e6, 1e6) | st.floats(-1e-6, 1e-6), min_size=dims, max_size=dims)
            .filter(_admitted),
            min_size=1,
            max_size=12,
        )
    ),
    data=st.data(),
)
def test_profile_mean_vector_is_numpy_mean_bit_for_bit(rows, data):
    catalog = SourceCatalog(_source(f"s{i:02d}", 0.5, 0.0, v) for i, v in enumerate(rows))
    members = sorted(data.draw(st.lists(st.sampled_from(catalog.ids()), min_size=1, unique=True)))
    u = profile_from_sources("u", members, catalog, len(members))
    expected = np.mean([catalog[s].vector for s in members], axis=0)
    assert u.v_u.tobytes() == expected.tobytes()


def test_profile_from_sources_validation():
    catalog = _toy_catalog()
    with pytest.raises(ValueError, match="non-empty"):
        profile_from_sources("u", [], catalog, L=2)
    with pytest.raises(ValueError, match="duplicate"):
        profile_from_sources("u", ["weak", "weak"], catalog, L=3)
    with pytest.raises(ValueError, match="exceed"):
        profile_from_sources("u", ["weak", "anchor"], catalog, L=1)
    with pytest.raises(ValueError, match="unknown source 'ghost'"):
        profile_from_sources("u", ["ghost"], catalog, L=2)
    with pytest.raises(ValueError, match="limit"):
        profile_from_sources("u", ["weak"], catalog, L=0)


def test_world_persona_start_means(world_catalog):
    from nudgesim.synthetic import WORLD_PERSONAS

    by_id = {p.user_id: p for p in WORLD_PERSONAS}
    conspiracist = by_id["conspiracy-right"]
    u = profile_from_sources(conspiracist.user_id, conspiracist.sources, world_catalog, conspiracist.L)
    assert u.q_u == pytest.approx(0.075, abs=1e-12)
    assert u.l_u == pytest.approx(0.6333333333333333, abs=1e-12)


# ---------------------------------------------------------------- offers


def test_offer_is_cost_argmin_over_eligible():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor"], catalog, L=3)
    # eligible: cheap (cost 0), pricey, top; weak fails the quality bar
    picked, _ = _one_step(u, catalog)
    assert picked.recommended == "cheap"
    costs = {
        s: trust_cost(catalog[s], u, ALPHA) for s in ("cheap", "pricey", "top")
    }
    assert costs["cheap"] == min(costs.values())


def test_offer_skips_trusted_even_if_cheapest():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor", "cheap"], catalog, L=3)
    picked, _ = _one_step(u, catalog)
    assert picked.recommended in ("pricey", "top")
    assert picked.recommended != "cheap"
    # the trusted set keeps the rule of profile_from_sources
    stranger = _profile(["anchor", "ghost"], 3, q_u=0.3, l_u=0.0, v_u=[1.0, 0.0])
    with pytest.raises(ValueError, match="unknown source 'ghost'"):
        _one_step(stranger, catalog)


def test_offer_requires_strict_quality_gain():
    catalog = SourceCatalog(
        [
            _source("a", 0.5, 0.0, [1.0, 0.0]),
            _source("b", 0.5, 0.0, [1.0, 0.0]),
        ]
    )
    u = profile_from_sources("u", ["a"], catalog, L=2)
    assert _one_step(u, catalog)[0].recommended is None  # 0.5 is not > 0.5


def test_offer_breaks_ties_lexicographically():
    catalog = SourceCatalog(
        [
            _source("base", 0.2, 0.0, [1.0, 0.0]),
            _source("zeta", 0.8, 0.5, [0.0, 1.0]),
            _source("alpha", 0.8, 0.5, [0.0, 1.0]),  # identical cost to zeta
        ]
    )
    u = profile_from_sources("u", ["base"], catalog, L=2)
    assert _one_step(u, catalog)[0].recommended == "alpha"


def test_unconstrained_first_offer_is_quality_argmax():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor"], catalog, L=3)
    config = SimConfig(T=1, seed=0, mode="unconstrained")
    traj = simulate(u, catalog, config)
    assert traj.steps[0].recommended == "top"
    assert traj.steps[0].trust_cost is not None


def _exhaustive_offer(members, catalog, mode, alpha):
    """The offer an exhaustive scalar scan makes to ``members``; None when
    there is none or they have converged."""
    q_u, l_u, v_u = _replica_means(members, catalog)
    if q_u >= 1.0 - nudge.DEFAULT_EPSILON:
        return None
    best, best_key = None, None
    for source_id in catalog.ids():
        s = catalog[source_id]
        if source_id in members or s.quality <= q_u:
            continue
        key = _scalar_cost(s, l_u, v_u, alpha) if mode == "constrained" else -s.quality
        if best is None or key < best_key:
            best, best_key = s, key
    return best


def _replayed_run(trusted, L, catalog, config):
    """The records and final members of a run of a reader of limit ``L``,
    replayed step by step from ``_scalar_cost`` and an inverse-CDF lottery
    on the user's stream."""
    rng = rng_for_user(config.seed, "u")
    members, steps = sorted(trusted), []
    for t in range(config.T):
        q_u, l_u, v_u = _replica_means(members, catalog)
        offer = _exhaustive_offer(members, catalog, config.mode, config.alpha)
        if offer is None:
            steps.append(StepRecord(t, None, None, None, False, None, q_u, l_u))
            continue
        cost = _scalar_cost(offer, l_u, v_u, config.alpha)
        candidates = sorted(members + [offer.source_id])
        if len(members) < L:
            accept_probability = max(0.0, 1.0 - cost)
            keep = candidates if rng.random() < accept_probability else members
        else:
            costs = [_scalar_cost(catalog[s], l_u, v_u, config.alpha) for s in candidates]
            total = sum(costs)
            shares = [c / total if total != 0.0 else 1.0 / len(costs) for c in costs]
            draw, cumulative, victim = rng.random(), 0.0, candidates[-1]
            for s, share in zip(candidates, shares):
                cumulative += share
                if draw < cumulative:
                    victim = s
                    break
            accept_probability = 1.0 - shares[candidates.index(offer.source_id)]
            keep = [s for s in candidates if s != victim]
        accepted = offer.source_id in keep
        dropped = next((s for s in members if s not in keep), None)
        if accepted:
            members = keep
        q_u, l_u, _ = _replica_means(members, catalog)
        steps.append(StepRecord(t, offer.source_id, cost, accept_probability, accepted, dropped, q_u, l_u))
    return steps, members


# few distinct values, so that ties, zero norms, zero means and empty
# eligible sets are common. Permutations of one vector have mathematically
# equal dot products with a constant mean that round differently, so their
# costs sit within the verify margin in either order.
_QUALITIES = st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0)
_LEANINGS = st.sampled_from([-1.0, 0.0, 0.5, 0.5 + 1e-12]) | st.floats(-1.0, 1.0)


@st.composite
def _worlds(draw):
    dims = draw(st.integers(2, 8))
    base = draw(st.lists(st.floats(-2.0, 2.0), min_size=dims, max_size=dims).filter(_admitted))
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


def _edge_world(rows, trusted, L=3):
    return SourceCatalog(_source(*row) for row in rows), trusted, L, ALPHA


_ZERO_NORMS = [("a", 0.2, 0.0, [1.0, 0.0]), ("b", 0.2, 0.0, [-1.0, 0.0]),
               ("z", 0.7, 0.5, [0.0, 0.0]), ("w", 0.7, 0.5, [0.0, 1.0])]


@settings(max_examples=200, deadline=None)
@given(world=_worlds(), T=st.integers(1, 8), seed=st.integers(0, 2**32))
# duplicate vector and leaning under two ids: the smaller id wins
@example(world=_edge_world([("a", 0.2, 0.0, [1.0, 0.0]), ("y", 0.9, 0.4, [0.0, 1.0]),
                            ("x", 0.9, 0.4, [0.0, 1.0])], ["a"]), T=6, seed=5)
# zero-norm sources, and a member mean of zero norm, below and at capacity
@example(world=_edge_world(_ZERO_NORMS, ["a", "b"]), T=6, seed=5)
@example(world=_edge_world(_ZERO_NORMS, ["a", "b"], L=2), T=6, seed=5)
# nothing eligible
@example(world=_edge_world([("a", 0.6, 0.0, [1.0, 0.0]), ("b", 0.6, 0.3, [0.0, 1.0])], ["a"]),
         T=6, seed=5)
def test_offers_match_exhaustive_scalar_argmin(world, T, seed):
    # every record of a run, offers, costs, probabilities, outcomes and means,
    # equals the scalar replay bit for bit; repr tells -0.0 from 0.0 and a
    # numpy scalar from a float
    catalog, trusted, L, alpha = world
    u0 = profile_from_sources("u", trusted, catalog, L)
    for mode in ("constrained", "unconstrained"):
        config = SimConfig(T=T, seed=seed, alpha=alpha, mode=mode)
        traj = simulate(u0, catalog, config)
        steps, members = _replayed_run(trusted, L, catalog, config)
        assert [repr(r) for r in traj.steps] == [repr(r) for r in steps]
        assert traj.final.sources == members


@settings(max_examples=100, deadline=None)
@given(world=_worlds(), T=st.integers(1, 8), seed=st.integers(0, 2**32))
@example(world=_edge_world(_ZERO_NORMS, ["a", "b"], L=2), T=6, seed=5)
def test_at_capacity_accept_probability_is_drop_distribution_complement(world, T, seed):
    # the step and drop_distribution run one lottery: at capacity the chance
    # that the offer survives is, bit for bit, 1 minus its drop share against
    # the profile the step started from
    catalog, trusted, L, alpha = world
    for mode in ("constrained", "unconstrained"):
        traj = simulate(
            profile_from_sources("u", trusted, catalog, L),
            catalog,
            SimConfig(T=T, seed=seed, alpha=alpha, mode=mode),
        )
        members = sorted(trusted)
        for r in traj.steps:
            if r.recommended is None:
                continue
            if len(members) == L:
                before = profile_from_sources("u", members, catalog, L)
                shares = drop_distribution(before, catalog[r.recommended], catalog, alpha)
                assert repr(r.accept_probability) == repr(1.0 - shares[r.recommended])
            if r.accepted:
                members = sorted(s for s in members + [r.recommended] if s != r.dropped)
        assert members == traj.final.sources


def test_offer_exact_among_rounding_ties():
    # permutations of one vector have mathematically equal costs against a
    # constant mean; the mat-vec and the scalar dot round them differently,
    # so only the scalar verification picks the exhaustive argmin
    rng = np.random.default_rng(3)
    for _ in range(40):
        base = rng.uniform(-2.0, 2.0, 16)
        rows = [_source("anchor", 0.1, 0.0, np.ones(16))]
        rows += [_source(f"p{i:02d}", 0.9, 0.2, rng.permutation(base)) for i in range(30)]
        catalog = SourceCatalog(rows)
        u = profile_from_sources("u", ["anchor"], catalog, L=2)
        expected = _exhaustive_offer(["anchor"], catalog, "constrained", ALPHA)
        assert _one_step(u, catalog)[0].recommended == expected.source_id


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
    # the trusted-set rule of _start_rows comes first
    repeated = _profile(["anchor", "anchor"], 2, q_u=0.3, l_u=0.0, v_u=[1.0, 0.0])
    with pytest.raises(ValueError, match="duplicate trusted sources"):
        drop_distribution(repeated, catalog["top"], catalog, ALPHA)
    unknown = _profile(["anchor", "ghost"], 2, q_u=0.3, l_u=0.0, v_u=[1.0, 0.0])
    with pytest.raises(ValueError, match="unknown source 'ghost'"):
        drop_distribution(unknown, catalog["top"], catalog, ALPHA)
    with pytest.raises(ValueError, match="unknown candidate 'ghost'"):
        drop_distribution(full, _source("ghost", 0.9, 0.0, [1.0, 0.0]), catalog, ALPHA)


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
    base = dict(T=10, seed=0)
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
        u = profile_from_sources("u", ["low"], catalog, L=2)
        record, u = _one_step(u, catalog, seed=seed)
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
        u = profile_from_sources("u", ["seed"], catalog, L=2)
        record, u = _one_step(u, catalog, seed=seed)
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
    u = profile_from_sources("u", ["anchor"], catalog, L=2)
    _one_step(u, catalog)
    assert streams[-1].calls == 1
    # at capacity: still exactly one uniform
    u = profile_from_sources("u", ["anchor", "weak"], catalog, L=2)
    _one_step(u, catalog)
    assert streams[-1].calls == 1
    # converged: none
    top_only = SourceCatalog([_source("perfect", 1.0, 0.0, [1.0, 0.0])])
    u = profile_from_sources("u", ["perfect"], top_only, L=2)
    record, _ = _one_step(u, top_only)
    assert streams[-1].calls == 0
    assert record.recommended is None and not record.accepted
    # nothing eligible (0.95 is the best quality in the catalog): none
    u = profile_from_sources("u", ["top"], catalog, L=2)
    record, _ = _one_step(u, catalog)
    assert streams[-1].calls == 0
    assert record.recommended is None


def test_step_at_capacity_matches_inverse_cdf_oracle():
    catalog = _toy_catalog()
    for seed in range(200):
        u = profile_from_sources("u", ["anchor", "weak"], catalog, L=2)
        offered = _exhaustive_offer(u.sources, catalog, "constrained", ALPHA)
        dist = drop_distribution(u, offered, catalog, ALPHA)
        draw = rng_for_user(seed, "u").random()
        cumulative = np.cumsum([dist[s] for s in dist])
        idx = min(int(np.searchsorted(cumulative, draw, side="right")), len(dist) - 1)
        victim = list(dist)[idx]

        record, u = _one_step(u, catalog, seed=seed)
        assert record.recommended == offered.source_id
        assert record.accept_probability == 1.0 - dist[offered.source_id]
        if victim == offered.source_id:
            assert not record.accepted and record.dropped is None
            assert u.sources == ["anchor", "weak"]
        else:
            assert record.accepted and record.dropped == victim
            assert victim not in u.sources
            assert offered.source_id in u.sources
        assert len(u.sources) == 2


class _LastDrawRng:
    """Draws the largest double below 1.0, every time."""

    def random(self):
        return float(np.nextafter(1.0, 0.0))


def test_step_draw_past_every_running_sum_takes_the_last_outcome(monkeypatch):
    # the lottery's shares round to running sums that end below 1.0, so the
    # draw passes every sum; it must drop the last stake, here the member
    # "c", the highest id, not fall off the end of the outcomes
    catalog = SourceCatalog(
        [
            _source("a", 0.5, -1.0, [1.0, 1.0]),
            _source("b", 0.9, -1.0, [1.0, 2.0]),
            _source("c", 0.5, -1.0, [-1.0, 0.0]),
        ]
    )
    u = profile_from_sources("u", ["a", "c"], catalog, L=2)
    dist = drop_distribution(u, catalog["b"], catalog, ALPHA)
    assert list(dist) == ["a", "b", "c"]
    assert list(itertools.accumulate(dist.values()))[-1] == np.nextafter(1.0, 0.0)
    monkeypatch.setattr(nudge, "rng_for_user", lambda seed, user_id: _LastDrawRng())
    record, u = _one_step(u, catalog)
    assert (record.recommended, record.accepted, record.dropped) == ("b", True, "c")
    assert u.sources == ["a", "b"]


def test_step_updates_means_after_membership_change():
    catalog = _toy_catalog()
    u = profile_from_sources("u", ["anchor"], catalog, L=2)
    record, u = _one_step(u, catalog, seed=1)
    if record.accepted:
        members = [catalog[s] for s in u.sources]
        assert record.q_u == pytest.approx(np.mean([m.quality for m in members]))
        assert record.l_u == pytest.approx(np.mean([m.leaning for m in members]))


# ---------------------------------------------------------------- full runs


def test_simulate_deterministic_and_pure():
    catalog = _toy_catalog()
    u0 = profile_from_sources("reader", ["anchor", "weak"], catalog, L=2)
    before = (list(u0.sources), u0.q_u, u0.l_u, u0.v_u.copy())
    config = _config(T=40, seed=9)
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
        simulate(u0, catalog, _config(T=40, seed=s)).steps != first.steps
        for s in range(10, 20)
    )


def test_simulate_start_is_the_checked_working_profile(tmp_path):
    # a hand-built u0 with unsorted sources and stale means: the run and its
    # report both start from the profile profile_from_sources builds, as they
    # do from a persona with the same sources
    catalog = SourceCatalog(
        [
            _source("a", 0.2, -0.5, [1.0, 0.0]),
            _source("b", 0.9, 0.5, [0.0, 1.0]),
            _source("c", 0.5, 0.0, [1.0, 1.0]),
        ]
    )
    u0 = UserProfile("u", ["c", "a"], 2, 0.99, 0.0, np.zeros(2))
    traj = simulate(u0, catalog, _config(T=3))
    built = profile_from_sources("u", ["c", "a"], catalog, 2)
    assert traj.start.sources == ["a", "c"]
    assert (traj.start.q_u, traj.start.l_u) == (built.q_u, built.l_u) == (0.35, -0.25)
    assert np.array_equal(traj.start.v_u, built.v_u)
    assert u0.sources == ["c", "a"] and u0.q_u == 0.99 and not u0.v_u.any()  # untouched
    # a persona runs as its built profile does
    for other in (Persona("u", ("c", "a"), 2), built):
        run = simulate(other, catalog, _config(T=3))
        assert run.steps == traj.steps
        for mine, theirs in ((run.start, traj.start), (run.final, traj.final)):
            assert (mine.sources, mine.L, mine.q_u, mine.l_u) == (
                theirs.sources, theirs.L, theirs.q_u, theirs.l_u
            )
            assert np.array_equal(mine.v_u, theirs.v_u)
    path = tmp_path / "summary.json"
    write_summary_json([traj], path)
    (entry,) = json.loads(path.read_text(encoding="utf-8"))
    assert entry["start"] == {"sources": ["a", "c"], "q_u": built.q_u, "l_u": built.l_u}


def test_simulate_starts_converged_profile_as_noop():
    catalog = SourceCatalog(
        [
            _source("perfect", 1.0, 0.0, [1.0, 0.0]),
            _source("other", 0.5, 0.0, [1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("done", ["perfect"], catalog, L=2)
    traj = simulate(u0, catalog, _config(T=5))
    assert traj.convergence_point == 0
    assert all(r.recommended is None and not r.accepted for r in traj.steps)
    assert traj.final.sources == ["perfect"]


@pytest.fixture
def offer_calls(monkeypatch):
    """Every member row passed to ``nudge._offers``, one entry per profile
    state. A step ends at each ``nudge._lotteries`` call; on teardown, no
    step may have made more than two calls of the cost kernel
    ``nudge._costs``, whatever the number of runs."""
    calls = []
    kernel_calls = [0]  # per step, the kernel calls made in it
    offers, costs, lotteries = nudge._offers, nudge._costs, nudge._lotteries

    def counting_offers(rows, catalog, alpha):
        calls.extend(rows.members)
        return offers(rows, catalog, alpha)

    def counting_costs(*args):
        kernel_calls[-1] += 1
        return costs(*args)

    def counting_lotteries(*args):
        result = lotteries(*args)
        kernel_calls.append(0)
        return result

    monkeypatch.setattr(nudge, "_offers", counting_offers)
    monkeypatch.setattr(nudge, "_costs", counting_costs)
    monkeypatch.setattr(nudge, "_lotteries", counting_lotteries)
    yield calls
    assert max(kernel_calls) <= 2, kernel_calls


def test_simulate_selects_once_when_nothing_is_eligible(offer_calls):
    catalog = SourceCatalog(
        [
            _source("low", 0.4, 0.0, [1.0, 0.0]),
            _source("mid", 0.5, 0.0, [0.0, 1.0]),
        ]
    )
    u0 = profile_from_sources("idle", ["mid"], catalog, L=2)
    traj = simulate(u0, catalog, _config(T=50))
    assert len(offer_calls) == 1
    assert [r.t for r in traj.steps] == list(range(50))
    assert all(r.recommended is None and r.q_u == 0.5 for r in traj.steps)
    assert traj.final.sources == ["mid"]


def test_simulate_selects_once_per_profile_state(offer_calls):
    # an offer that is never accepted (cost 1.5) leaves one profile state
    hostile = SourceCatalog(
        [
            _source("seed", 0.2, -1.0, [1.0, 0.0]),
            _source("hostile", 0.9, 1.0, [-1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("u", ["seed"], hostile, L=2)
    traj = simulate(u0, hostile, _config(T=10))
    assert len(offer_calls) == 1
    assert all(r.recommended == "hostile" and not r.accepted for r in traj.steps)
    # otherwise each accepted step makes a new state; no run here converges
    # (0.95 tops the catalog) or ends on an accepted step, so its last state
    # is selected for too
    catalog = _toy_catalog()
    for seed in range(10):
        offer_calls.clear()
        u0 = profile_from_sources("u", ["anchor", "weak"], catalog, L=2)
        traj = simulate(u0, catalog, _config(T=40, seed=seed))
        assert not traj.steps[-1].accepted
        assert len(offer_calls) == 1 + sum(r.accepted for r in traj.steps)


def test_simulate_all_makes_at_most_two_kernel_calls_per_step(offer_calls, world_catalog, monkeypatch):
    # every reader of a 40-reader batch needs an offer at step 0, and most
    # again later; the lottery kernel runs once per step, not once per
    # reader, and the nudged offers add at most one cost-kernel call to it
    from nudgesim.synthetic import WORLD_PERSONAS

    steps = []
    lotteries = nudge._lotteries
    monkeypatch.setattr(nudge, "_lotteries", lambda *args: steps.append(None) or lotteries(*args))

    readers = [dataclasses.replace(p, user_id=f"{p.user_id}-{k}") for k in range(10) for p in WORLD_PERSONAS]
    trajectories = nudge.simulate_all(readers, world_catalog, SimConfig(T=30, seed=0))
    assert sum(r.accepted for traj in trajectories for r in traj.steps) > 2 * len(readers)
    assert len(offer_calls) > 3 * len(readers)  # the teardown checks the kernel calls
    assert len(steps) <= 30


# ---------------------------------------------------------------- lockstep runs


def _outcome(traj):
    """Everything a trajectory reports, bit for bit."""
    return (
        traj.user_id,
        traj.config,
        [repr(r) for r in traj.steps],
        [(u.sources, u.L, repr(u.q_u), repr(u.l_u), u.v_u.tobytes()) for u in (traj.start, traj.final)],
    )


@pytest.fixture(scope="module")
def world_batches(world_catalog):
    """One batch per config, over seeds and alphas, both modes and two T:
    each world persona at its own L and at one more, and each reader's
    outcome when run alone, as ``(config, readers, outcomes)``."""
    from nudgesim.synthetic import WORLD_PERSONAS

    readers = [
        dataclasses.replace(persona, user_id=f"{persona.user_id}-L{persona.L + extra}", L=persona.L + extra)
        for persona in WORLD_PERSONAS
        for extra in (0, 1)
    ]
    configs = [
        SimConfig(T=T, seed=seed, alpha=alpha, mode=mode)
        for seed, alpha in [(0, 0.5), (7, 0.2), (2**40 + 3, 0.85)]
        for T in (20, 47)
        for mode in ("constrained", "unconstrained")
    ]
    return [
        (config, readers, [_outcome(simulate(u0, world_catalog, config)) for u0 in readers]) for config in configs
    ]


def test_simulate_all_equals_each_run_alone(world_catalog, world_batches):
    for config, readers, alone in world_batches:
        assert len({u0.L for u0 in readers}) > 1
        assert [_outcome(traj) for traj in nudge.simulate_all(readers, world_catalog, config)] == alone
    assert nudge.simulate_all([], world_catalog, _config()) == []


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_simulate_all_is_independent_of_batch_order_and_make_up(world_catalog, world_batches, data):
    config, readers, alone = data.draw(st.sampled_from(world_batches))
    order = data.draw(st.permutations(range(len(readers))))
    batch = order[: data.draw(st.integers(1, len(readers)))]
    got = nudge.simulate_all([readers[j] for j in batch], world_catalog, config)
    assert [_outcome(traj) for traj in got] == [alone[j] for j in batch]


@pytest.mark.parametrize("user_id, sources, message", [
    (7, ("anchor",), "user_id must be a non-empty string that UTF-8 can encode, got 7"),
    ("", ("anchor",), "user_id must be a non-empty string that UTF-8 can encode, got ''"),
    ("\ud800", ("anchor",), "user_id must be a non-empty string that UTF-8 can encode, got '\\ud800'"),
    ("reader", "anchor", "reader: trusted set must be a collection of source ids, got the string 'anchor'"),
])
def test_simulate_all_refuses_a_bad_id_or_a_string_set(user_id, sources, message):
    # refused as ValueError naming the run, before any run is made, not as
    # AttributeError or UnicodeEncodeError from the user's stream, nor read
    # as the set of the string's characters
    catalog = _toy_catalog()
    readers = [Persona("fine", ("weak",), 2), Persona(user_id, sources, 2)]
    with pytest.raises(ValueError) as caught:
        nudge.simulate_all(readers, catalog, SimConfig(T=3, seed=0))
    assert (str(caught.value), caught.value.run) == (message, 1)


@pytest.mark.parametrize("user_id", [7, "", "\ud800"], ids=["int", "empty", "lone-surrogate"])
def test_persona_loader_and_simulate_all_refuse_a_user_id_alike(tmp_path, user_id):
    # one rule for a user id, and one message, whether read from a file or run
    path = tmp_path / "personas.json"
    path.write_text(json.dumps([{"user_id": user_id, "sources": ["anchor"], "L": 2}]), encoding="utf-8")
    with pytest.raises(ValueError) as loaded:
        load_personas(path)
    with pytest.raises(ValueError) as simulated:
        nudge.simulate_all([Persona(user_id, ("anchor",), 2)], _toy_catalog(), SimConfig(T=1, seed=0))
    assert str(loaded.value) == f"{path}: persona #0: {simulated.value}"


def test_simulate_all_names_the_run_that_cannot_start(world_catalog, world_batches):
    config, readers, _ = world_batches[0]
    batch = readers[:3] + [Persona("ghost-reader", ("no-such-outlet",), 2)] + readers[3:]
    with pytest.raises(ValueError, match="^ghost-reader: unknown source 'no-such-outlet'$") as caught:
        nudge.simulate_all(batch, world_catalog, config)
    assert caught.value.run == 3


def _exhaustive_row(u, catalog, alpha):
    """The offer by an exhaustive scan in id order over the eligible rows:
    the first of the highest quality when ``alpha`` is None, else the first
    strict minimum of ``trust_cost``."""
    best, best_key = None, math.inf
    for row, source_id in enumerate(catalog.ids()):
        s = catalog[source_id]
        if source_id in u.sources or not s.quality > u.q_u:
            continue
        key = -s.quality if alpha is None else trust_cost(s, u, alpha)
        if key < best_key:
            best, best_key = row, key
    return best


# zero norms, norms near the largest a vector may have (whose products sit at
# the edge of overflow), the smallest nonzero norm a vector may have (its
# square is the smallest normal float), and repeated rows under other ids, so
# that exact cost ties are common
_HOSTILE_VECTORS = st.sampled_from(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [1.3e154, 0.0, 0.0],
     [9e153, -9e153, 0.0], [-1.3e154, 0.0, 1e150], [1.5e-154, 0.0, 0.0], [0.5, 0.5, 0.5]]
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@example(data=None)
def test_offers_match_exhaustive_argmin_on_hostile_catalogs(data):
    if data is None:  # one known case: huge, zero, tiny and exactly tied vectors
        rows = [(0.1, 0.0, [1.3e154, 0.0, 0.0]), (0.8, 0.5, [9e153, -9e153, 0.0]),
                (0.8, 0.5, [9e153, -9e153, 0.0]), (0.9, -1.0, [0.0, 0.0, 0.0]),
                (0.6, 0.5, [1.5e-154, 0.0, 0.0])]
        trusted_sets = [[0], [0, 4], [3], [2]]
        alphas = [0.5, 0.3, None, 0.9]
    else:
        rows = data.draw(st.lists(st.tuples(_QUALITIES, _LEANINGS, _HOSTILE_VECTORS), min_size=1, max_size=8))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
        trusted_sets = data.draw(st.lists(
            st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True), min_size=1, max_size=6
        ))
        pool = data.draw(st.lists(st.none() | st.floats(0.01, 0.99), min_size=1, max_size=2))
        alphas = [data.draw(st.sampled_from(pool)) for _ in trusted_sets]
    catalog = SourceCatalog(_source(f"s{i:02d}", q, l, v) for i, (q, l, v) in enumerate(rows))
    ids = catalog.ids()
    profiles = [profile_from_sources("u", [ids[i] for i in t], catalog, 3) for t in trusted_sets]
    expected = [_exhaustive_row(u, catalog, alpha) for u, alpha in zip(profiles, alphas)]
    got = [None] * len(profiles)
    for alpha in dict.fromkeys(alphas):  # one call per alpha
        group = [i for i, a in enumerate(alphas) if a == alpha]
        offers = nudge._offers(_rows_of([profiles[i] for i in group], catalog), catalog, alpha)
        for i, row in zip(group, offers, strict=True):
            got[i] = row
    assert got == expected
    # each offer is the one the profile gets alone
    assert [nudge._offers(_rows_of([u], catalog), catalog, a)[0] for u, a in zip(profiles, alphas)] == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@example(data=None)
def test_cost_kernel_is_the_scalar_formula_bit_for_bit(data):
    if data is None:  # two admitted members whose mean has a subnormal v·v
        rows = [(0.2, 0.0, [1.0, 1.1e-160]), (0.2, 0.0, [-1.0, 0.0]), (0.9, 0.0, [0.0, 1.0])]
        trusted_sets, alphas, pairs = [[0, 1]], [0.5], [(0, 0), (0, 1), (0, 2)]
    else:
        # more components after the hostile ones reach every unrolled path
        # of the dot routine
        n = data.draw(st.integers(0, 30))
        extra = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
        vectors = st.tuples(_HOSTILE_VECTORS, extra).map(lambda parts: parts[0] + parts[1]).filter(_admitted)
        rows = data.draw(st.lists(st.tuples(_QUALITIES, _LEANINGS, vectors), min_size=1, max_size=8))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
        trusted_sets = data.draw(st.lists(
            st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True), min_size=1, max_size=6
        ))
        pool = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2))
        alphas = [data.draw(st.sampled_from(pool)) for _ in trusted_sets]
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, len(trusted_sets) - 1), st.integers(0, len(rows) - 1)),
            min_size=1, max_size=24,
        ))
    catalog = SourceCatalog(_source(f"s{i:02d}", q, l, v) for i, (q, l, v) in enumerate(rows))
    ids = catalog.ids()
    norms = [np.linalg.norm(catalog[s].vector) for s in ids]
    assert catalog.norms.tobytes() == np.array(norms).tobytes()
    profiles = [profile_from_sources("u", [ids[i] for i in t], catalog, 3) for t in trusted_sets]
    rows = _rows_of(profiles, catalog)
    for alpha in dict.fromkeys(alphas[o] for o, _ in pairs):  # one call per alpha
        group = [(o, r) for o, r in pairs if alphas[o] == alpha]
        owners, picked = (np.array(column) for column in zip(*group))
        costs = nudge._costs(rows.l_u, rows.v_u, alpha, owners, picked, catalog)
        expected = [_scalar_cost(catalog[ids[r]], profiles[o].l_u, profiles[o].v_u, alpha) for o, r in group]
        # repr tells -0.0 from 0.0 and a numpy scalar from a float
        assert [repr(c) for c in costs] == [repr(c) for c in expected]


def test_profile_mean_without_direction_is_at_distance_one():
    # both members are admitted, but their mean [0, 5.5e-161] has a
    # subnormal v·v: it has no direction, so the offer's distance is 1.0
    catalog = SourceCatalog(
        [
            _source("a", 0.2, 0.0, [1.0, 1.1e-160]),
            _source("b", 0.2, 0.0, [-1.0, 0.0]),
            _source("c", 0.9, 0.0, [0.0, 1.0]),
        ]
    )
    step, _ = _one_step(Persona("u", ("a", "b"), 3), catalog)
    assert (step.recommended, step.trust_cost, step.accept_probability) == ("c", 0.5, 0.5)


def test_simulate_stops_changing_after_convergence():
    catalog = SourceCatalog(
        [
            _source("start", 0.4, 0.0, [1.0, 0.0]),
            _source("best", 1.0, 0.0, [1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("u", ["start"], catalog, L=1)
    traj = simulate(u0, catalog, _config(T=30, seed=3))
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
    crowded = _profile(["anchor", "cheap", "top"], 2, 0.5, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="exceed"):
        simulate(crowded, catalog, _config())
    empty = _profile([], 2, 0.5, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="non-empty"):
        simulate(empty, catalog, _config())
    repeated = _profile(["anchor", "anchor"], 2, 0.3, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="duplicate trusted sources"):
        simulate(repeated, catalog, _config())


@pytest.mark.parametrize("limit", [2.5, 1.0, 0.5, True, np.int64(2)], ids=["fraction", "float", "half", "bool", "int64"])
def test_trusted_set_rule_refuses_a_limit_that_is_not_an_int(limit):
    # every caller of _start_rows reaches the rule before any min, max or
    # numpy call sees the limit, and in a batch the error names its run
    catalog = _toy_catalog()
    message = f"^u: limit must be an integer, got {re.escape(repr(limit))}$"
    with pytest.raises(ValueError, match=message):
        simulate(Persona("u", ("anchor",), limit), catalog, _config())
    with pytest.raises(ValueError, match=message):
        profile_from_sources("u", ["anchor"], catalog, limit)
    with pytest.raises(ValueError, match=message):
        drop_distribution(_profile(["anchor", "cheap"], limit, 0.45, 0.0, [1.0, 0.0]), catalog["top"], catalog, ALPHA)
    readers = [Persona("a", ("anchor",), 10**30), Persona("u", ("cheap",), limit)]
    with pytest.raises(ValueError, match=message) as caught:
        nudge.simulate_all(readers, catalog, _config())
    assert caught.value.run == 1


def test_simconfig_validation():
    with pytest.raises(ValueError, match="T"):
        SimConfig(T=0, seed=0)
    # T and seed are ints, not bools, or the run fails later or records them
    # in a form summary.json cannot hold
    for field in ("T", "seed"):
        for value in (2.5, True, np.int64(3)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
                SimConfig(**{"T": 3, "seed": 0, field: value})
    with pytest.raises(ValueError, match="alpha"):
        SimConfig(T=1, seed=0, alpha=1.0)
    with pytest.raises(ValueError, match="mode"):
        SimConfig(T=1, seed=0, mode="hybrid")
    # alpha is an int or a float (numpy's float64 is one), not a bool, or
    # summary.json cannot hold it
    for value in (np.float32(0.5), True, "0.5", None):
        with pytest.raises(ValueError, match=f"^alpha must be a number, got {re.escape(repr(value))}$"):
            SimConfig(T=3, seed=0, alpha=value)
    assert SimConfig(T=3, seed=0, alpha=np.float64(0.25)).alpha == 0.25


def test_unconstrained_accepts_perfect_source_below_capacity():
    catalog = SourceCatalog(
        [
            _source("start", 0.4, 0.0, [1.0, 0.0]),
            _source("ideal", 1.0, 0.0, [1.0, 0.0]),  # zero trust cost too
            _source("decoy", 0.9, 0.0, [1.0, 0.0]),
        ]
    )
    u0 = profile_from_sources("u", ["start"], catalog, L=2)
    config = SimConfig(T=1, seed=0, mode="unconstrained")
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
        u0 = profile_from_sources("u", ["start"], catalog, L=1)
        traj = simulate(u0, catalog, SimConfig(T=3, seed=seed))
        assert traj.final.sources == ["start"]
        assert all(not r.accepted for r in traj.steps)


def test_capacity_is_the_readers_own_limit():
    # the same sources at L=1 fill the reader, so the first offer enters the
    # drop lottery against the lone member, whose cost is zero, and loses it
    # for certain; at L=2 there is room, so it is kept with chance 1 - cost
    catalog = SourceCatalog(
        [
            _source("start", 0.4, 0.4, [1.0, 0.0]),
            _source("ideal", 1.0, 0.0, [1.0, 0.0]),
        ]
    )
    full, room = (_one_step(Persona("u", ("start",), L), catalog)[0] for L in (1, 2))
    assert full.recommended == room.recommended == "ideal"
    assert full.trust_cost == room.trust_cost == pytest.approx(0.1)
    lottery = drop_distribution(profile_from_sources("u", ["start"], catalog, 1), catalog["ideal"], catalog, ALPHA)
    assert full.accept_probability == 1.0 - lottery["ideal"] == 0.0
    assert room.accept_probability == 1.0 - room.trust_cost


def test_constrained_first_offer_never_costlier_than_unconstrained():
    catalog = _toy_catalog()
    for members in (["anchor"], ["weak"], ["anchor", "weak"]):
        u0 = profile_from_sources("u", members, catalog, L=3)
        con = simulate(u0, catalog, _config(T=1, seed=1))
        unc = simulate(u0, catalog, _config(T=1, seed=1, mode="unconstrained"))
        assert con.steps[0].trust_cost <= unc.steps[0].trust_cost


def test_convergence_point_variants():
    base = dict(recommended=None, trust_cost=None, accept_probability=None,
                accepted=False, dropped=None, l_u=0.0)
    cfg = _config(T=3)

    def _traj(qs):
        steps = [StepRecord(t=t, q_u=q, **base) for t, q in enumerate(qs)]
        u = _profile(["x"], 1, qs[-1], 0.0, [1.0])
        return Trajectory(user_id="u", config=cfg, steps=steps, start=u, final=u)

    assert _traj([0.5, 1.0, 1.0]).convergence_point == 1
    assert _traj([0.5, 0.6, 0.7]).convergence_point is None
    assert _traj([1.0, 1.0, 1.0]).convergence_point == 0
    assert _traj([1.0 - 5e-10, 0.5, 0.5]).convergence_point == 0  # inside epsilon


# ---------------------------------------------------------------- array rows


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_means_are_float_sums_and_mean_vectors_per_row(data):
    # q_u and l_u are float_sum in member order, which is id order, over the
    # member count; v_u is the row's own np.add.reduce over the member count,
    # which is np.mean; a batch of rows of several sizes, padded past each,
    # changes none of them
    dims = data.draw(st.integers(1, 5))
    vectors = st.lists(st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 1e-300]), min_size=dims, max_size=dims)
    rows = data.draw(st.lists(
        st.tuples(_QUALITIES | st.just(-0.0), _LEANINGS | st.just(-0.0), vectors.filter(_admitted)),
        min_size=1, max_size=12,
    ))
    catalog = SourceCatalog(_source(f"s{i:02d}", q, l, v) for i, (q, l, v) in enumerate(rows))
    ids, quality, leaning = catalog.ids(), catalog.quality.tolist(), catalog.leaning.tolist()
    sets = data.draw(st.lists(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True), min_size=1, max_size=6
    ))
    width = max(map(len, sets)) + data.draw(st.integers(0, 2))
    trusted_sets = [[ids[r] for r in rows] for rows in sets]
    user_ids = [f"u{k}" for k in range(len(sets))]
    q_u, l_u, v_u = nudge._start_rows(user_ids, trusted_sets, catalog, [width] * len(sets))[2:]
    for k, rows in enumerate(map(sorted, sets)):
        assert repr(q_u.tolist()[k]) == repr(float_sum(quality[r] for r in rows) / len(rows))
        assert repr(l_u.tolist()[k]) == repr(float_sum(leaning[r] for r in rows) / len(rows))
        alone = np.add.reduce(catalog.vectors[[rows]], axis=1)[0] / len(rows)
        assert v_u[k].tobytes() == alone.tobytes() == np.mean(catalog.vectors[rows], axis=0).tobytes()


_COSTS = st.sampled_from([0.0, -0.0, -1e-17, 1e-17, 0.5, 1.5]) | st.floats(-0.1, 2.0)


@settings(max_examples=200, deadline=None)
@given(lotteries=st.lists(st.lists(_COSTS, min_size=1, max_size=6), min_size=1, max_size=5))
def test_shares_and_running_sums_are_the_scalar_lottery(lotteries):
    # each share is c / float_sum(costs), uniform at a zero total, and the
    # running sums are np.cumsum along the row, which is itertools.accumulate
    width = max(map(len, lotteries))
    costs = np.array([c + [0.0] * (width - len(c)) for c in lotteries])
    shares = nudge._shares(costs, np.array([len(c) for c in lotteries]))
    sums = np.cumsum(shares, axis=1)
    for k, c in enumerate(lotteries):
        total = float_sum(c)
        expected = [x / total for x in c] if total != 0.0 else [1.0 / len(c)] * len(c)
        assert [repr(x) for x in shares[k, : len(c)].tolist()] == [repr(x) for x in expected]
        assert [repr(x) for x in sums[k, : len(c)].tolist()] == [repr(x) for x in itertools.accumulate(expected)]


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
    u0 = profile_from_sources("reader", ["anchor"], catalog, L=2)
    return simulate(u0, catalog, _config(T=4, seed=5))


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


def test_step_record_fields_pair_with_trajectory_columns():
    # write_trajectory_csv writes each record's fields in order under these columns
    assert len(StepRecord._fields) == len(TRAJECTORY_FIELDS)
    columns = {"accept_probability": "accept_prob"}
    assert [columns.get(name, name) for name in StepRecord._fields] == TRAJECTORY_FIELDS


def test_summary_json_format(tmp_path):
    # a JSON list with one run per line, each line json's compact rendering
    # of the run's entry with its keys sorted, for byte-stable reruns
    catalog = _toy_catalog()
    trajectories = [
        simulate(Persona(user_id, sources, 2), catalog, _config(T=4, seed=seed, mode=mode))
        for user_id, sources, seed, mode in [
            ("reader", ("anchor",), 5, "constrained"), ("other", ("weak", "cheap"), 1, "unconstrained"),
        ]
    ]
    path = tmp_path / "summary.json"
    write_summary_json(trajectories, path)
    text = path.read_text(encoding="utf-8")
    expected = [
        {
            "user_id": user_id,
            "config": {"T": 4, "seed": seed, "alpha": ALPHA, "mode": mode, "L": 2,
                       "epsilon_converge": SimConfig.epsilon_converge},
            "start": {"sources": start, "q_u": traj.start.q_u, "l_u": traj.start.l_u},
            "end": {"sources": traj.final.sources, "q_u": traj.final.q_u, "l_u": traj.final.l_u},
            "convergence_point": traj.convergence_point,
            "accepted_steps": sum(1 for r in traj.steps if r.accepted),
        }
        for traj, (user_id, start, seed, mode) in zip(
            trajectories, [("reader", ["anchor"], 5, "constrained"), ("other", ["cheap", "weak"], 1, "unconstrained")]
        )
    ]
    assert json.loads(text) == expected
    lines = [json.dumps(entry, sort_keys=True) for entry in expected]
    assert text == "[\n" + ",\n".join(lines) + "\n]\n"
    assert lines[0].index('"T"') < lines[0].index('"alpha"') < lines[0].index('"seed"')


def test_personas_round_trip(tmp_path):
    personas = [
        Persona("casual", ("quarry-press", "valley-voice"), 3),
        Persona("skeptic", ("meridian-daily",), 2),
    ]
    path = tmp_path / "personas.json"
    write_personas(personas, path)
    assert load_personas(path) == personas


@pytest.mark.parametrize(
    "personas",
    [
        [],
        [Persona("", ("a",), 2)],
        [Persona("\ud800", ("a",), 2)],
        [Persona("x", ("a",), True)],
        [Persona("x", ("a", 1), 2)],
        [Persona("x", ("a",), 2), Persona("x", ("b",), 3)],
    ],
    ids=["none", "empty-id", "surrogate-id", "bool-limit", "source-not-a-string", "repeated-id"],
)
def test_write_personas_refuses_what_load_personas_refuses(tmp_path, personas):
    # the file a plain JSON dump of the same entries gives is refused by the
    # loader, and the writer raises the loader's message before it writes
    path = tmp_path / "personas.json"
    entries = [{"user_id": p.user_id, "sources": list(p.sources), "L": p.L} for p in personas]
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(ValueError) as loaded:
        load_personas(path)
    path.unlink()
    with pytest.raises(ValueError) as written:
        write_personas(personas, path)
    assert str(written.value) == str(loaded.value)
    assert not path.exists()


def test_load_personas_errors(tmp_path):
    path = tmp_path / "personas.json"
    path.write_text('{"user_id": "solo"}', encoding="utf-8")
    with pytest.raises(ValueError, match="JSON list"):
        load_personas(path)
    path.write_text('[{"user_id": "x", "L": 2}]', encoding="utf-8")
    with pytest.raises(ValueError, match="persona #0"):
        load_personas(path)
    path.write_text(
        '[{"user_id": "x", "sources": ["a"], "L": 2},'
        ' {"user_id": "x", "sources": ["b"], "L": 2}]',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="duplicate persona"):
        load_personas(path)


@pytest.mark.parametrize(
    "text",
    ["", '[{"user_id": "x"', '[{"user_id": "x", "sources": ["a"], "L": 1' + "1" * 5000 + "}]"],
    ids=["empty", "truncated", "long-integer"],
)
def test_load_personas_json_error_names_the_path(tmp_path, text):
    path = tmp_path / "personas.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
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
        traj = simulate(u0, catalog, SimConfig(T=20, seed=1))
        assert len(traj.steps) == 20
        assert traj.final.q_u >= u0.q_u  # quality never degrades
