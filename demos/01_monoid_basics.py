"""Constructing numerical monoids and reading off their basic data."""

from numonoid import NumericalMonoid, apery, contains, frobenius, normalize_generators

M = NumericalMonoid((6, 9, 20))
print("generators:", M.generators)

# smallest element of M in each residue class mod 6
table = apery(M)
print("apery entries by residue:", table)

# the largest integer that is NOT in the monoid
print("frobenius number:", frobenius(M))

for a in (24, 43, 44, 61):
    print(f"{a} in M?", contains(M, a))

# generator tuples are reduced before use: 15 = 6 + 9 is redundant,
# repeated entries collapse
print("normalized:", normalize_generators((9, 6, 20, 6, 15)).generators)

# every integer past frobenius + 1 belongs to the monoid
f = frobenius(M)
assert not contains(M, f)
assert all(contains(M, a) for a in range(f + 1, f + 100))
print("conductor check passed at", f + 1)
