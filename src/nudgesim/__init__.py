"""Trust-aware news recommendation toolkit.

Pipeline: near-duplicate detection over a news corpus (`corpus`), the
source-level copy graph and its communities (`graph`), provider-derived
quality/leaning scores (`groundtruth`), random-walk node embeddings
(`embedding`), and the trust-constrained recommendation simulator (`nudge`).
`synthetic` bundles deterministic fixtures; `cli` exposes the `nudgesim`
command.
"""

from .corpus import (
    Article,
    ArticleSet,
    CopyPair,
    DEFAULT_SIMILARITY_THRESHOLD,
    load_articles,
    similar_pairs,
    tfidf_vectors,
    write_pairs_tsv,
)
from .embedding import (
    SourceVectors,
    cosine_distance,
    embed_graph,
    generate_walks,
    load_vectors,
    save_vectors,
    train_embeddings,
)
from .graph import (
    CommunityAssignment,
    CsnGraph,
    build_csn,
    detect_communities,
    directed_modularity,
    load_graph,
    save_graph,
)
from .groundtruth import (
    SourceLabels,
    SourceScore,
    derive_scores,
    impute_missing,
    leaning_score,
    quality_score,
    read_labels_csv,
    read_scores_csv,
    score_sources,
    write_labels_csv,
    write_scores_csv,
)
from .nudge import (
    Persona,
    SimConfig,
    Source,
    SourceCatalog,
    StepRecord,
    Trajectory,
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

__version__ = "0.1.0"

__all__ = [
    "Article",
    "ArticleSet",
    "CommunityAssignment",
    "CopyPair",
    "CsnGraph",
    "DEFAULT_SIMILARITY_THRESHOLD",
    "Persona",
    "SimConfig",
    "Source",
    "SourceCatalog",
    "SourceLabels",
    "SourceScore",
    "SourceVectors",
    "StepRecord",
    "Trajectory",
    "UserProfile",
    "build_csn",
    "convergence_point",
    "cosine_distance",
    "derive_scores",
    "detect_communities",
    "directed_modularity",
    "drop_distribution",
    "embed_graph",
    "generate_walks",
    "impute_missing",
    "leaning_score",
    "load_articles",
    "load_graph",
    "load_personas",
    "load_vectors",
    "profile_from_sources",
    "quality_score",
    "read_labels_csv",
    "read_scores_csv",
    "rng_for_user",
    "save_graph",
    "save_vectors",
    "score_sources",
    "select_recommendation",
    "similar_pairs",
    "simulate",
    "tfidf_vectors",
    "train_embeddings",
    "trust_cost",
    "update_scores",
    "write_labels_csv",
    "write_pairs_tsv",
    "write_personas",
    "write_scores_csv",
    "write_summary_json",
    "write_trajectory_csv",
]
