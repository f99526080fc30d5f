"""Simulate trust-aware recommendations against the synthetic news world.

Four reader personas start inside low-quality or hyper-partisan bubbles.
Each round the recommender offers the source with the lowest trust cost
among those that would raise the reader's mean quality; the reader accepts
with probability 1 - cost (or, at capacity, a cost-proportional lottery
decides who gets dropped). For contrast, an unconstrained baseline always
pushes the highest-quality source regardless of trust.

Run:  python3 demos/04_nudge_simulation.py
"""

from pathlib import Path

import numpy as np

from nudgesim import synthetic
from nudgesim.nudge import SimConfig, simulate
from nudgesim.svgplot import line_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

T = 200
SEED = 0


def main() -> None:
    catalog = synthetic.world_catalog()
    print(f"catalog: {len(catalog)} scored + embedded sources "
          f"(best quality {catalog.quality.max():.2f})")

    for persona in synthetic.WORLD_PERSONAS:
        # each persona trusts at most persona.L sources, its own attention limit
        nudged = simulate(persona, catalog, SimConfig(T=T, seed=SEED))
        pushed = simulate(persona, catalog, SimConfig(T=T, seed=SEED, mode="unconstrained"))
        u0 = nudged.start
        print(f"\n=== {persona.user_id} ===")
        print(f"start: quality {u0.q_u:.3f}, leaning {u0.l_u:+.3f}, "
              f"{len(u0.sources)}/{persona.L} slots used")

        for name, traj in (("soft nudge", nudged), ("quality-first", pushed)):
            where = traj.convergence_point
            costs = [r.trust_cost for r in traj.steps if r.trust_cost is not None][:5]
            accepted = sum(1 for r in traj.steps if r.accepted)
            print(f"  {name:<14} converged at t={'never' if where is None else where}, "
                  f"{accepted} offers accepted, "
                  f"mean first-5 offer cost {np.mean(costs):.3f}")
        print(f"  final trusted set (soft nudge): {', '.join(nudged.final.sources)}")
        print(f"  final leaning {nudged.final.l_u:+.3f} (started {u0.l_u:+.3f})")

        line_chart(
            [
                ("mean quality (nudged)", [r.q_u for r in nudged.steps]),
                ("mean leaning (nudged)", [r.l_u for r in nudged.steps]),
            ],
            title=f"{persona.user_id}: profile under soft nudging",
            y_label="profile mean",
            path=OUT / f"{persona.user_id}.svg",
            y_range=(-1.0, 1.05),
        )

    print(f"\nwrote one SVG trajectory chart per persona to {OUT}/")


if __name__ == "__main__":
    main()
