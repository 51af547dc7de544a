"""Enumerating factorizations and exploring their graph structure."""

from numonoid import NumericalMonoid, factorization_graph, factorizations, length_profile

M = NumericalMonoid((6, 9, 20))

# all ways to write 60 as a non-negative combination 6a + 9b + 20c
for z in factorizations(M, 60):
    print("60 =", " + ".join(f"{c}*{g}" for c, g in zip(z, M.generators) if c))

profile = length_profile(M, 60)
print("lengths:", profile.lengths)     # number of atoms used, per factorization
print("deltas:", profile.deltas)       # gaps between consecutive lengths

# two factorizations are adjacent when they share an atom; disconnected
# graphs are exactly what minimal presentations must repair
for a in (18, 60, 126):
    g = factorization_graph(M, a)
    print(f"graph at {a}: {len(g.vertices)} vertices, {len(g.components)} component(s)")
    for comp in g.components:
        print("   ", comp)
