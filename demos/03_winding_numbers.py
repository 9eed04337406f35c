"""Winding numbers of circle-valued fields along the triangular loops.

Each cell boundary is a loop; lifting a phase field step by step around
it (always taking the short way around the circle) ends an integer away
from where it started.  Those integers, collected over all loops, are a
complete homotopy invariant and survive small perturbations.  ``degree``
reads every loop at once off the corner table.
"""

import numpy as np

from fractalsync import (DegreeVector, build_ring_graph, build_sg_graph,
                         circle_harmonic_map, degree, twisted_state,
                         wrap_phases)

# ring: the q-twisted state winds q times around the one loop
ring = build_ring_graph(5)
for q in (1, -3, 7):
    print(f"ring twist q={q:+d}: degree", degree(twisted_state(ring, q), ring))

# gasket: one loop per cell of every order up to the graph level; the
# order-m loop words are the level-m cell words
g = build_sg_graph(3)
words = [tuple(w) for m in range(3)
         for w in g.word_symbols(np.arange(3 ** m), m).tolist()]
print(f"\ngasket level 3 loop basis up to order 2: {len(words)} loops")
print("first words:", words[:6])

phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
print("\ndegree of the unit-winding harmonic map:",
      degree(phases, g).to_dense(2))

mixed = DegreeVector({(): 1, (1,): 1, (2,): 1, (3,): 1})
g4 = build_sg_graph(4)
ph4, _ = circle_harmonic_map(g4, mixed)
print("degree with all order-1 loops twisted:", degree(ph4, g4).to_dense(1))

# robustness: noise well below half an edge-step cannot change any winding
rng = np.random.default_rng(0)
noisy = wrap_phases(ph4 + rng.uniform(-0.08, 0.08, g4.n_vertices))
print("degree after +-0.08 noise:   ", degree(noisy, g4).to_dense(1))
