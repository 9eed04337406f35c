"""Build the approximating graphs and poke at their structure.

The gasket hierarchy starts from a triangle and replaces every cell by
three half-scale copies.  Each vertex is stored as a key, the first
level+1 symbols of its symbolic address read as an integer, so identity
and ordering never rely on floating point.  The ring is the analogous
construction for the circle.
"""

import numpy as np

from fractalsync import build_ring_graph, build_sg_graph, restrict

for n in range(0, 5):
    g = build_sg_graph(n)
    print(f"gasket level {n}: {g.n_vertices:4d} vertices, "
          f"{g.n_edges:4d} edges, {len(g.cell_corners):3d} cells, "
          f"conductance {g.conductance:.4f}")

g = build_sg_graph(2)
print("\nvertex 4: key", int(g.keys[4]), "spells",
      g.word_symbols(g.keys[4:5], g.level + 1)[0].tolist(),
      "at", tuple(g.coords[4].tolist()))
print("cell (3, 2) corners:", g.cell_corners[g.pack_word((3, 2))].tolist())
print("boundary ids:", g.boundary_ids)

# vertex sets nest: the level-1 vertices sit inside level 4 under the
# same symbolic names, so fields restrict by identification, not geometry
g4 = build_sg_graph(4)
f = g4.coords[:, 0] ** 2          # any field defined on the fine graph
print("\nx^2 restricted to level 1:", np.round(restrict(g4, 1, f), 4))

ring = build_ring_graph(3)
print(f"\nring level 3: {ring.n_vertices} vertices at", ring.coords[:, 0])
print("ring conductance:", ring.conductance)

# degree counts: gasket interiors have 4 neighbours, corners 2
deg = np.zeros(g4.n_vertices, dtype=int)
for a, b in g4.edges:
    deg[a] += 1
    deg[b] += 1
print("\ngasket degree histogram:", np.bincount(deg).tolist(),
      "(index = degree)")
