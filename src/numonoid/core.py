"""Numerical monoid arithmetic: generators, Apery sets, membership, Frobenius.

A numerical monoid M = <m_1, ..., m_t> is the set of non-negative integer
combinations of its generators.  M is primitive when gcd(m_1, ..., m_t) = 1;
then all sufficiently large integers lie in M and the largest excluded one is
the Frobenius number.  Membership reduces to one table lookup once the Apery
set of M with respect to m_1 is known: for a >= 0,

    a in M  iff  a >= (least element of M congruent to a mod m_1).

The Apery table is computed by a shortest-path run over the m_1 residue
classes, so no factorization enumeration is ever needed for membership,
even when m_1 is on the order of 10^4.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidGenerators,
    InvalidInput,
    NotPrimitive,
)

# the most entries of an Apery table, and of vectors one enumeration emits
DEFAULT_CAP = 10**7


class NumericalMonoid:
    """A numerical monoid given by a strictly increasing tuple of generators.

    The constructor validates ordering and positivity only.  It does not
    check that the tuple is minimal (no generator a combination of the
    others); use normalize_generators when that is not already known.
    Instances are immutable and hashable by generator tuple.
    """

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = tuple(int(g) for g in generators)
        if not gens:
            raise InvalidGenerators("at least one generator is required")
        if gens[0] < 1:
            raise InvalidGenerators("generators must be positive")
        if any(b <= a for a, b in zip(gens, gens[1:])):
            raise InvalidGenerators("generators must be strictly increasing")
        object.__setattr__(self, "generators", gens)

    @property
    def t(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def gcd(self) -> int:
        return gcd(*self.generators)

    @property
    def is_primitive(self) -> bool:
        return self.gcd == 1

    def evaluate(self, coords) -> int:
        """Value of an exponent vector: pi(z) = sum z_i * m_i."""
        gens = self.generators
        if len(coords) != len(gens):
            raise DimensionMismatch(
                f"expected {len(gens)} coordinates, got {len(coords)}"
            )
        # plain non-negative ints are checked and summed in one pass;
        # anything else goes through the checks below, in their order
        total = 0
        for c, g in zip(coords, gens):
            if type(c) is not int or c < 0:
                break
            total += c * g
        else:
            return total
        if any(isinstance(c, bool) or not isinstance(c, int) for c in coords):
            raise InvalidInput("coordinates must be integers")
        if any(c < 0 for c in coords):
            raise InvalidInput("coordinates must be non-negative")
        return sum(c * g for c, g in zip(coords, gens))

    def __setattr__(self, name, value):
        raise AttributeError("NumericalMonoid is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, NumericalMonoid)
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"NumericalMonoid({self.generators!r})"


@dataclass(frozen=True)
class AperyTable:
    """entries[rho] = least element of M congruent to rho mod the modulus."""

    modulus: int
    entries: tuple[int, ...]


def normalize_generators(raw) -> NumericalMonoid:
    """Sort, deduplicate, and drop redundant generators.

    A generator is redundant when it is a non-negative combination of the
    others; since all generators are positive, only smaller kept generators
    can participate in such a combination, so one ascending pass suffices.
    The result is minimally generated.  Idempotent.
    """
    vals = sorted({int(g) for g in raw})
    if not vals:
        raise InvalidGenerators("at least one generator is required")
    if vals[0] < 1:
        raise InvalidGenerators("generators must be positive")
    kept: list[int] = []
    for g in vals:
        if not _representable(g, kept):
            kept.append(g)
    return NumericalMonoid(tuple(kept))


def _representable(target: int, gens: list[int]) -> bool:
    # bounded coin-style reachability up to target, unbounded multiplicity
    if not gens:
        return False
    reach = bytearray(target + 1)
    reach[0] = 1
    for g in gens:
        for v in range(g, target + 1):
            if reach[v - g]:
                reach[v] = 1
    return bool(reach[target])


@lru_cache(maxsize=None)
def apery(M: NumericalMonoid) -> AperyTable:
    """Apery table of M with respect to its multiplicity m_1.

    Dijkstra over residues mod m_1: each generator m_i (i >= 2) contributes
    arcs rho -> (rho + m_i) mod m_1 of weight m_i.  The shortest distance
    from residue 0 to rho is exactly the least element of M in that class,
    because every element is reachable by adding generators one at a time
    and adding m_1 itself never changes the residue.  Raises
    BudgetExceeded, before allocating anything, when m_1 > DEFAULT_CAP.
    """
    m1 = M.generators[0]
    if m1 > DEFAULT_CAP:
        raise BudgetExceeded(
            f"an Apery table of {m1} entries exceeds the cap of {DEFAULT_CAP}"
        )
    dist: list = [None] * m1
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    arcs = M.generators[1:]
    while heap:
        d, rho = heapq.heappop(heap)
        if d > dist[rho]:
            continue
        for g in arcs:
            nrho = (rho + g) % m1
            nd = d + g
            if dist[nrho] is None or nd < dist[nrho]:
                dist[nrho] = nd
                heapq.heappush(heap, (nd, nrho))
    if any(v is None for v in dist):
        raise NotPrimitive(
            f"gcd of generators is {M.gcd}; some residues mod {m1} unreachable"
        )
    return AperyTable(m1, tuple(dist))


def contains(M: NumericalMonoid, a: int) -> bool:
    """Membership test via the Apery table; requires M primitive."""
    if a < 0:
        raise InvalidInput("elements of a numerical monoid are non-negative")
    table = apery(M)
    return a >= table.entries[a % table.modulus]


def frobenius(M: NumericalMonoid) -> int:
    """Largest integer not in M; -1 when M is all of the naturals."""
    table = apery(M)
    return max(table.entries) - table.modulus


def default_window(M: NumericalMonoid) -> int:
    """Window for sup-style sweeps: m_{t-1} m_t + 2 m_t.

    Large enough to see every Betti element and the full Apery landscape of
    the two largest generators; windowed results remain lower bounds.
    """
    gens = M.generators
    small = gens[-2] if len(gens) >= 2 else gens[-1]
    return small * gens[-1] + 2 * gens[-1]
