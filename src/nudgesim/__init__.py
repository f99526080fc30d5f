"""Trust-aware news recommendation toolkit.

Pipeline: near-duplicate detection over a news corpus (`corpus`), the
source-level copy graph and its communities (`graph`), provider-derived
quality/leaning scores (`groundtruth`), random-walk node embeddings
(`embedding`), and the trust-constrained recommendation simulator (`nudge`).
`synthetic` bundles deterministic fixtures; `cli` exposes the `nudgesim`
command.
"""

__version__ = "0.1.0"
