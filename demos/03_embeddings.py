"""Learn source embeddings and check they respect community structure.

Uses the bundled two-cluster graph (two rings of fifteen sources joined by
two bridge edges). After biased random walks and skip-gram training, sources
from the same ring should sit measurably closer in cosine terms than sources
from opposite rings — the homophily property the trust cost relies on.

Run:  python3 demos/03_embeddings.py
"""

from pathlib import Path

from nudgesim import graph, synthetic
from nudgesim.embedding import community_cosines, cosine_distance, embed_graph, save_vectors

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def main() -> None:
    g = synthetic.two_cluster_graph()
    print(f"planted graph: {len(g.nodes)} nodes, {len(g.edges)} edges, two rings + two bridges")

    assignment = graph.detect_communities(g)
    sizes: dict[int, int] = {}
    for label in assignment.labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    print(f"detected communities: sizes {sorted(sizes.values(), reverse=True)} "
          f"(modularity {assignment.modularity:.4f})")

    vectors = embed_graph(g, seed=42, dims=32, walk_length=40, walks_per_node=8,
                          window=5, epochs=3)
    print(f"trained {vectors.dims}-dimensional vectors for {len(vectors.vectors)} sources")

    intra, inter = community_cosines(vectors, assignment.labels)
    print(f"mean cosine within a community:  {intra:+.4f}")
    print(f"mean cosine across communities:  {inter:+.4f}")

    anchor = "alpha-03"
    ranked = sorted(
        (cosine_distance(vectors.vectors[anchor], vectors.vectors[n]), n)
        for n in vectors.vectors if n != anchor
    )
    print(f"\nnearest neighbors of {anchor} (smaller distance = more similar):")
    for d, n in ranked[:5]:
        print(f"  {n:<10} distance={d:.4f}")
    print("farthest:")
    for d, n in ranked[-3:]:
        print(f"  {n:<10} distance={d:.4f}")

    save_vectors(vectors, OUT / "two_cluster_vectors.tsv")
    print(f"\nwrote {OUT / 'two_cluster_vectors.tsv'}")


if __name__ == "__main__":
    main()
