"""Acceptance gate: the nine observable guarantees the package ships under.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) so a full run reads as a checklist. Tolerances are pinned in the
assertions themselves; stochastic claims replay the exact generator stream
through independent re-implementations of the sampling math.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from test_corpus import oracle_pairs

from nudgesim import corpus, graph, synthetic
from nudgesim.embedding import cosine_distance, embed_graph
from nudgesim.groundtruth import (
    SourceLabels,
    SourceScore,
    impute_missing,
    leaning_score,
    quality_score,
)
from nudgesim.nudge import (
    SimConfig,
    Source,
    SourceCatalog,
    UserProfile,
    drop_distribution,
    profile_from_sources,
    rng_for_user,
    simulate,
    trust_cost,
    write_trajectory_csv,
)
from nudgesim.synthetic import WORLD_PERSONAS

ALPHA = 0.5


@contextlib.contextmanager
def _verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    else:
        with capsys.disabled():
            print(f"[acceptance] {label}: PASS", flush=True)


def _personas_by_id():
    return {p.user_id: p for p in WORLD_PERSONAS}


def _dot(a, b) -> float:
    """``a·b`` by scalars: the products added left to right from 0.0."""
    total = 0.0
    for x, y in zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        total += x * y
    return total


def _norm(v) -> float:
    return math.sqrt(_dot(v, v))


def _replica_cost(s: Source, l_u: float, v_u: np.ndarray, alpha: float, norm_u=None, norm_s=None) -> float:
    """Trust cost re-derived with the same floating-point operation order,
    so argmin comparisons below can demand bitwise-equal outcomes; the
    norms ``_norm(v_u)`` and ``_norm(s.vector)`` may be passed in."""
    norm_a = _norm(v_u) if norm_u is None else norm_u
    norm_b = _norm(s.vector) if norm_s is None else norm_s
    if norm_a == 0.0 or norm_b == 0.0:
        d = 1.0
    else:
        d = 1.0 - _dot(v_u, s.vector) / (norm_a * norm_b)
    return (1.0 - alpha) * (abs(l_u - s.leaning) / 2.0) + alpha * d


def _replica_means(members, catalog):
    sources = [catalog[s] for s in members]
    q = sum(m.quality for m in sources) / len(sources)
    l = sum(m.leaning for m in sources) / len(sources)
    v = np.mean([m.vector for m in sources], axis=0)
    return q, l, v


# -------------------------------------------------------------------------


def test_acceptance_01_copy_network_matches_brute_force(capsys):
    with _verdict(capsys, "01 copy network equals brute-force oracle"):
        started = time.perf_counter()
        articles = corpus.load_articles(synthetic.fixture_articles_path())
        tfidf = corpus.tfidf_vectors(articles)
        pairs = corpus.similar_pairs(tfidf, articles, threshold=0.85)
        csn = graph.build_csn(pairs, articles.source_counts())
        elapsed = time.perf_counter() - started

        assert len(articles.articles) == 20
        assert len({a.source_id for a in articles.articles}) == 6
        got = {(p.earlier, p.later) for p in pairs}
        assert got == oracle_pairs(articles.articles, 0.85)
        assert len(pairs) == 8

        # copies / articles-published-by-the-copier, checked by hand
        assert csn.edges[("meridian-daily", "valley-voice")] == pytest.approx(2 / 3, abs=1e-12)
        assert csn.edges[("meridian-daily", "coastal-chronicle")] == pytest.approx(1 / 3, abs=1e-12)
        assert csn.edges[("northgate-news", "quarry-press")] == pytest.approx(1 / 4, abs=1e-12)
        assert csn.edges[("quarry-press", "northgate-news")] == pytest.approx(1 / 3, abs=1e-12)
        assert csn.edges[("summit-sentinel", "coastal-chronicle")] == pytest.approx(1 / 3, abs=1e-12)

        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s, budget 1s"


def test_acceptance_02_trust_cost_reference_triple(capsys):
    with _verdict(capsys, "02 trust cost reproduces the 0.0 / 1.0 / 0.15 triple"):
        aligned_user = UserProfile("u1", ["m"], 2, 0.5, 0.5, np.array([2.0, 0.0]))
        aligned = Source("s1", 0.9, 0.5, np.array([1.0, 0.0]))
        assert trust_cost(aligned, aligned_user, ALPHA) == pytest.approx(0.0, abs=1e-12)

        hostile_user = UserProfile("u2", ["m"], 2, 0.5, -1.0, np.array([1.0, 0.0]))
        hostile = Source("s2", 0.9, 1.0, np.array([0.0, 1.0]))
        assert abs(hostile_user.l_u - hostile.leaning) / 2.0 == pytest.approx(1.0, abs=1e-12)
        assert cosine_distance(hostile_user.v_u, hostile.vector) == pytest.approx(1.0, abs=1e-12)
        assert trust_cost(hostile, hostile_user, ALPHA) == pytest.approx(1.0, abs=1e-12)

        mixed_user = UserProfile("u3", ["m"], 2, 0.5, 0.2, np.array([1.0, 0.0]))
        mixed = Source("s3", 0.9, 0.6, np.array([9.0, math.sqrt(19.0)]))
        assert abs(mixed_user.l_u - mixed.leaning) / 2.0 == pytest.approx(0.2, abs=1e-12)
        assert cosine_distance(mixed_user.v_u, mixed.vector) == pytest.approx(0.1, abs=1e-12)
        assert trust_cost(mixed, mixed_user, ALPHA) == pytest.approx(0.15, abs=1e-12)


def test_acceptance_03_drop_lottery_is_a_distribution_and_replays(capsys, world_catalog):
    with _verdict(capsys, "03 drop lottery normalizes and replays via inverse CDF"):
        # (a) 1,000 randomized full profiles: probabilities are a simplex
        rng = np.random.default_rng(31)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            sources = [
                Source(
                    f"s{i}",
                    float(rng.random()),
                    float(rng.uniform(-1.0, 1.0)),
                    rng.normal(size=4),
                )
                for i in range(k + 1)
            ]
            catalog = SourceCatalog(sources)
            members = sorted(s.source_id for s in sources[:k])
            u = UserProfile(
                "r",
                members,
                k,
                float(rng.random()),
                float(rng.uniform(-1.0, 1.0)),
                rng.normal(size=4),
            )
            dist = drop_distribution(u, sources[k], catalog, ALPHA)
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
            assert all(p >= 0.0 for p in dist.values())
            assert set(dist) == set(members) | {sources[k].source_id}

        # (b) every at-capacity decision of a seeded 100-step run must be
        # reproducible by consuming the same stream through inverse-CDF
        # sampling done here, outside the library
        persona = _personas_by_id()["conspiracy-right"]
        config = SimConfig(T=100, seed=2026, alpha=ALPHA)
        u0 = profile_from_sources(persona.user_id, persona.sources, world_catalog, persona.L)
        traj = simulate(u0, world_catalog, config)

        replay = rng_for_user(config.seed, persona.user_id)
        members = list(u0.sources)
        lotteries = 0
        for record in traj.steps:
            q_u, l_u, v_u = _replica_means(members, world_catalog)
            if q_u >= 1.0 - config.epsilon_converge or record.recommended is None:
                assert record.recommended is None
                continue
            shadow = UserProfile(persona.user_id, list(members), persona.L, q_u, l_u, v_u)
            offered = world_catalog[record.recommended]
            if len(members) < persona.L:
                accepted = replay.random() < max(0.0, 1.0 - trust_cost(offered, shadow, ALPHA))
                assert record.accepted == accepted
                if accepted:
                    members = sorted(members + [offered.source_id])
            else:
                lotteries += 1
                dist = drop_distribution(shadow, offered, world_catalog, ALPHA)
                assert abs(sum(dist.values()) - 1.0) <= 1e-9
                order = list(dist)
                cumulative = np.cumsum([dist[s] for s in order])
                draw = replay.random()
                victim = order[min(int(np.searchsorted(cumulative, draw, side="right")), len(order) - 1)]
                if victim == offered.source_id:
                    assert not record.accepted and record.dropped is None
                else:
                    assert record.accepted and record.dropped == victim
                    members = sorted(s for s in members + [offered.source_id] if s != victim)
            q_after, _, _ = _replica_means(members, world_catalog)
            assert record.q_u == pytest.approx(q_after, abs=1e-12)
        assert lotteries >= 10, f"only {lotteries} at-capacity steps exercised"
        assert sorted(members) == traj.final.sources


def test_acceptance_04_recommendation_invariants_hold_across_seeds(capsys, world_catalog):
    with _verdict(capsys, "04 eligibility/argmin/progress invariants, 100 seeds x 4 personas"):
        assert len(world_catalog) >= 50
        started = time.perf_counter()
        norms = {s: _norm(world_catalog[s].vector) for s in world_catalog.ids()}
        below_capacity_accepts = 0
        for persona in WORLD_PERSONAS:
            limit = persona.L + 1  # start below capacity to exercise both regimes
            u0 = profile_from_sources(persona.user_id, persona.sources, world_catalog, limit)
            for seed in range(100):
                config = SimConfig(T=120, seed=seed, alpha=ALPHA)
                traj = simulate(u0, world_catalog, config)
                members = list(u0.sources)
                for record in traj.steps:
                    q_u, l_u, v_u = _replica_means(members, world_catalog)
                    if record.recommended is None:
                        continue
                    offered = world_catalog[record.recommended]
                    # eligibility: strictly better than the current mean
                    assert offered.quality > q_u
                    # exhaustive argmin re-check with identical float ops
                    member_set = set(members)
                    norm_u = _norm(v_u)
                    best_id, best_cost = None, float("inf")
                    for source_id in world_catalog.ids():
                        s = world_catalog[source_id]
                        if source_id in member_set or s.quality <= q_u:
                            continue
                        cost = _replica_cost(s, l_u, v_u, ALPHA, norm_u, norms[source_id])
                        if cost < best_cost:
                            best_id, best_cost = source_id, cost
                    assert record.recommended == best_id
                    assert record.trust_cost == best_cost
                    # track membership forward
                    if record.accepted:
                        if len(members) < limit:
                            below_capacity_accepts += 1
                            members = sorted(members + [offered.source_id])
                            q_next, _, _ = _replica_means(members, world_catalog)
                            assert q_next > q_u  # strict improvement
                        else:
                            assert record.dropped is not None
                            members = sorted(
                                s for s in members + [offered.source_id] if s != record.dropped
                            )
                    assert record.q_u == pytest.approx(
                        _replica_means(members, world_catalog)[0], abs=1e-9
                    )
        elapsed = time.perf_counter() - started
        assert below_capacity_accepts > 0
        assert elapsed < 30.0, f"invariant sweep took {elapsed:.1f}s, budget 30s"


def test_acceptance_05_personas_converge_and_moderate(capsys, world_catalog):
    with _verdict(capsys, "05 four personas converge by T=500 and extremes moderate"):
        targets = {
            "conspiracy-right": 0.075,
            "hyper-partisan-left": 0.35,
            "hyper-partisan-right": 0.52,
            "low-quality-center": 0.10,
        }
        extremes = ("conspiracy-right", "hyper-partisan-left", "hyper-partisan-right")
        profiles = {}
        for persona in WORLD_PERSONAS:
            u0 = profile_from_sources(persona.user_id, persona.sources, world_catalog, persona.L)
            profiles[persona.user_id] = u0
            assert u0.q_u == pytest.approx(targets[persona.user_id], abs=0.03)

        # the showcase run: seed 0, alpha 0.5
        for persona in WORLD_PERSONAS:
            u0 = profiles[persona.user_id]
            traj = simulate(
                u0, world_catalog, SimConfig(T=500, seed=0, alpha=ALPHA)
            )
            assert traj.convergence_point is not None, f"{persona.user_id} never converged"
            assert traj.final.q_u >= 1.0 - 1e-9
            if persona.user_id in extremes:
                assert abs(traj.final.l_u) <= abs(u0.l_u) + 1e-12

        # robustness: at least 95 of 100 seeds converge, per persona
        for persona in WORLD_PERSONAS:
            u0 = profiles[persona.user_id]
            converged = sum(
                simulate(
                    u0, world_catalog, SimConfig(T=500, seed=seed, alpha=ALPHA)
                ).convergence_point
                is not None
                for seed in range(100)
            )
            assert converged >= 95, f"{persona.user_id}: {converged}/100 seeds converged"


def test_acceptance_06_soft_nudge_offers_cost_less(capsys, world_catalog):
    with _verdict(capsys, "06 constrained offers are never costlier, and cheaper on average"):
        for persona in WORLD_PERSONAS:
            u0 = profile_from_sources(persona.user_id, persona.sources, world_catalog, persona.L)
            constrained = simulate(
                u0, world_catalog, SimConfig(T=20, seed=0, alpha=ALPHA)
            )
            unconstrained = simulate(
                u0,
                world_catalog,
                SimConfig(T=20, seed=0, alpha=ALPHA, mode="unconstrained"),
            )
            first_con = constrained.steps[0].trust_cost
            first_unc = unconstrained.steps[0].trust_cost
            assert first_con is not None and first_unc is not None
            assert first_con <= first_unc  # exact, no tolerance

            con_costs = [r.trust_cost for r in constrained.steps if r.trust_cost is not None][:5]
            unc_costs = [r.trust_cost for r in unconstrained.steps if r.trust_cost is not None][:5]
            assert len(con_costs) == 5 and len(unc_costs) == 5
            assert float(np.mean(unc_costs)) > float(np.mean(con_costs))


def test_acceptance_07_embeddings_separate_planted_communities(capsys):
    with _verdict(capsys, "07 planted two-cluster graph shows embedding homophily"):
        started = time.perf_counter()
        g = synthetic.two_cluster_graph()
        assert len(g.nodes) == 30
        assignment = graph.detect_communities(g)
        alpha_labels = {assignment.labels[n] for n in g.nodes if n.startswith("alpha-")}
        beta_labels = {assignment.labels[n] for n in g.nodes if n.startswith("beta-")}
        assert len(alpha_labels) == 1 and len(beta_labels) == 1 and alpha_labels != beta_labels

        vectors = embed_graph(
            g, seed=42, dims=32, walk_length=40, walks_per_node=8, window=5, epochs=3
        )
        intra, inter = [], []
        nodes = sorted(vectors.vectors)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                cos = 1.0 - cosine_distance(vectors.vectors[a], vectors.vectors[b])
                same = assignment.labels[a] == assignment.labels[b]
                (intra if same else inter).append(cos)
        elapsed = time.perf_counter() - started
        assert float(np.mean(intra)) > float(np.mean(inter))
        assert elapsed < 60.0, f"homophily check took {elapsed:.1f}s, budget 60s"


def test_acceptance_08_pipeline_reruns_are_byte_identical(capsys, tmp_path):
    with _verdict(capsys, "08 end-to-end rerun produces byte-identical artifacts"):

        def run(out):
            out.mkdir()
            articles = corpus.load_articles(synthetic.fixture_articles_path())
            tfidf = corpus.tfidf_vectors(articles)
            pairs = corpus.similar_pairs(tfidf, articles)
            corpus.write_pairs_tsv(pairs, out / "pairs.tsv")
            csn = graph.build_csn(pairs, articles.source_counts())
            graph.save_graph(csn, out / "csn.tsv")

            world = synthetic.world_graph()
            graph.save_graph(world, out / "world_csn.tsv")
            from nudgesim.embedding import save_vectors

            vectors = embed_graph(
                world, seed=9, dims=16, walk_length=20, walks_per_node=3, epochs=1
            )
            save_vectors(vectors, out / "vectors.tsv")
            catalog = SourceCatalog.from_scores(synthetic.world_scores(), vectors)
            for persona in WORLD_PERSONAS:
                u0 = profile_from_sources(
                    persona.user_id, persona.sources, catalog, persona.L
                )
                traj = simulate(
                    u0, catalog, SimConfig(T=50, seed=9, alpha=ALPHA)
                )
                write_trajectory_csv(traj, out / f"trajectory_{persona.user_id}.csv")

        run(tmp_path / "first")
        run(tmp_path / "second")
        files = sorted(
            p.relative_to(tmp_path / "first")
            for p in (tmp_path / "first").rglob("*")
            if p.is_file()
        )
        assert len(files) == 8
        for rel in files:
            first = (tmp_path / "first" / rel).read_bytes()
            second = (tmp_path / "second" / rel).read_bytes()
            assert first == second, f"{rel} differs between reruns"


def test_acceptance_09_ground_truth_rules_are_exact(capsys):
    with _verdict(capsys, "09 quality/leaning/imputation rules match their tables exactly"):
        # quality: flags pin to zero regardless of the numeric rating
        flagged = SourceLabels("f", newsguard=95.0, os_flags=frozenset({"conspiracy"}))
        assert quality_score(flagged) == 0.0
        assert quality_score(SourceLabels("g", mbfc_flags=frozenset({"questionable"}))) == 0.0
        # quality: plain rescale otherwise
        assert quality_score(SourceLabels("h", newsguard=0.0)) == 0.0
        assert quality_score(SourceLabels("i", newsguard=100.0)) == 1.0
        assert quality_score(SourceLabels("j", newsguard=37.5)) == 0.375
        assert quality_score(SourceLabels("k")) is None

        # leaning: categorical map and provider averaging
        assert leaning_score(SourceLabels("l", allsides="left")) == -1.0
        assert leaning_score(SourceLabels("m", buzzfeed="right-center")) == 0.5
        assert leaning_score(SourceLabels("n", mbfc_bias="center")) == 0.0
        assert leaning_score(
            SourceLabels("o", allsides="left", mbfc_bias="center")
        ) == (-1.0 + 0.0) / 2
        assert leaning_score(
            SourceLabels("p", allsides="left", buzzfeed="left-center", mbfc_bias="right")
        ) == (-1.0 + -0.5 + 1.0) / 3
        assert leaning_score(SourceLabels("q", newsguard=50.0)) is None

        # imputation: one-hop neighbor means, no chaining, isolation preserved
        nodes = ["a", "b", "x", "y", "z"]
        g = graph.CsnGraph(
            raw_counts={("a", "x"): 1, ("b", "x"): 1, ("x", "y"): 1},
            article_counts={n: 2 for n in nodes},
        )
        scores = {
            "a": SourceScore("a", 0.9, -1.0, "labeled"),
            "b": SourceScore("b", 0.5, 0.0, "labeled"),
            "x": SourceScore("x", None, None, "unavailable"),
            "y": SourceScore("y", None, None, "unavailable"),
            "z": SourceScore("z", None, None, "unavailable"),
        }
        out = impute_missing(scores, g)
        assert out["x"].quality == (0.9 + 0.5) / 2
        assert out["x"].leaning == (-1.0 + 0.0) / 2
        assert out["x"].provenance == "imputed"
        assert out["y"].provenance == "unavailable"  # donor is itself unlabeled
        assert out["z"].provenance == "unavailable"  # isolated
        assert out["a"] == scores["a"]
        assert impute_missing(out, g) == out  # a second pass is a no-op
