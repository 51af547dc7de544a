"""Numerical monoid arithmetic: generators, Apery sets, membership, Frobenius.

A numerical monoid M = <m_1, ..., m_t> is the set of non-negative integer
combinations of its generators.  M is primitive when gcd(m_1, ..., m_t) = 1;
then all sufficiently large integers lie in M and the largest excluded one is
the Frobenius number.  Membership reduces to one table lookup once the Apery
set of M with respect to m_1 is known: for a >= 0,

    a in M  iff  a >= (least element of M congruent to a mod m_1).

The Apery table is computed by a round robin over the m_1 residue classes,
one pass per generator and no heap, so no factorization enumeration is ever
needed for membership, even when m_1 is on the order of 10^6.
"""

from __future__ import annotations

import time
from math import gcd
from operator import ge, index

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidGenerators,
    InvalidInput,
    NotPrimitive,
)

# the most entries of an Apery table, and of vectors one enumeration emits
DEFAULT_CAP = 10**7


def _check_deadline(deadline: float | None) -> None:
    """Raise BudgetExceeded once time.monotonic() has passed deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("wall-clock deadline exceeded")


def _natural(x, what: str) -> int:
    """x as a non-negative int, for the integer argument named what.

    operator.index takes exactly the integer types, so a float or a str is
    refused rather than truncated or parsed; a bool is refused too.  Every
    refusal raises InvalidInput.
    """
    try:
        n = index(x)
    except TypeError:
        n = -1  # refused with the negatives
    if n < 0 or x is True or x is False:
        raise InvalidInput(f"{what} must be a non-negative integer, got {x!r}")
    return n


class NumericalMonoid:
    """A numerical monoid given by a strictly increasing tuple of generators.

    The constructor is the one check on generator tuples: the entries must
    be integers (operator.index, so a float or a str is refused rather than
    truncated, and a bool is refused too), and the tuple non-empty, positive
    and strictly increasing; any failure raises InvalidGenerators.  It does
    not check that the tuple is minimal (no generator a combination of the
    others); use normalize_generators when that is not already known.
    Instances are immutable and hashable by generator tuple.
    """

    __slots__ = ("generators",)

    def __init__(self, generators):
        raw = tuple(generators)
        try:
            gens = tuple(map(index, raw))
        except TypeError:
            gens = None
        if gens is None or bool in map(type, raw):
            raise InvalidGenerators(f"generators must be integers, got {raw!r}")
        if not gens:
            raise InvalidGenerators("at least one generator is required")
        if gens[0] < 1:
            raise InvalidGenerators("generators must be positive")
        if any(map(ge, gens, gens[1:])):
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


def normalize_generators(raw) -> NumericalMonoid:
    """Sort, deduplicate, and drop redundant generators.

    A generator is redundant when it is a non-negative combination of the
    others.  Dividing by the gcd changes no combination, so the redundant
    ones are read off the Apery table of the primitive quotient.  The
    result is minimally generated.  Idempotent.  The entries are checked
    by the constructor, each as a one-generator monoid before they are
    deduplicated and sorted, so InvalidGenerators is raised for what it
    refuses, and for an empty raw.  Raises BudgetExceeded, as apery does,
    when the least value divided by the gcd exceeds DEFAULT_CAP.
    """
    vals = sorted({NumericalMonoid((g,)).multiplicity for g in raw})
    d = gcd(*vals)
    M = NumericalMonoid(tuple(v // d for v in vals))
    redundant = set(_redundant(M))
    return NumericalMonoid(tuple(d * m for m in M.generators if m not in redundant))


def _redundant(M: NumericalMonoid) -> list[int]:
    """The generators of the primitive M that are combinations of the
    others, in increasing order: m_i is one iff m_i - m_j is in M for some
    j < i, which is one lookup in apery(M) per pair.

    Proof.  If m_i - m_j is in M, it is below m_i, so a factorization of it
    uses only generators below m_i, and adding m_j writes m_i through the
    others.  Conversely a combination of the others equal to m_i uses only
    smaller generators, as all are positive, and some m_j with j < i; taking
    that m_j away leaves m_i - m_j in M.
    """
    ap = apery(M)
    m1 = len(ap)
    gens = M.generators
    return [
        m
        for i, m in enumerate(gens)
        if any(m - g >= ap[(m - g) % m1] for g in gens[:i])
    ]


class _SizedMemo(dict):
    """A memo bounded by what it holds rather than by how many entries:
    the values' lengths sum to at most limit.  remember stores a value and
    then drops the oldest entries (a dict keeps insertion order) until the
    sum fits again; a value longer than limit on its own is returned and
    not stored.  Callers remember only keys they did not find.  clear()
    empties it."""

    __slots__ = ("limit", "held")

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self.held = 0

    def remember(self, key, value):
        if len(value) <= self.limit:
            self[key] = value
            self.held += len(value)
            while self.held > self.limit:
                self.held -= len(self.pop(next(iter(self))))
        return value

    def clear(self):
        super().clear()
        self.held = 0


# The memo of apery, keyed by the monoid alone: a table is exact whatever
# deadline it was computed under.  It holds at most DEFAULT_CAP table
# entries in all, the size of the largest table apery builds, so a new
# table drops the oldest ones until it fits.  Only completed tables are
# stored; clear_caches() empties it.
_apery_memo: _SizedMemo = _SizedMemo(DEFAULT_CAP)


def _require_primitive(M: NumericalMonoid) -> None:
    """Raise NotPrimitive, naming gcd(M) and m_1, unless M is primitive."""
    if not M.is_primitive:
        raise NotPrimitive(
            f"gcd of generators is {M.gcd}; some residues mod "
            f"{M.generators[0]} unreachable"
        )


def apery(M: NumericalMonoid, *, deadline: float | None = None) -> tuple[int, ...]:
    """Apery table of M with respect to its multiplicity m_1: entry rho is
    the least element of M congruent to rho mod m_1, so the table has m_1
    entries.

    Round robin over the residues mod m_1 (Boecker and Liptak, "A fast and
    simple algorithm for the money changing problem", Algorithmica 48,
    2007).  dist starts as the table of <m_1>: 0 at residue 0, every other
    residue unreached.  The pass for g = m_i (i >= 2) turns the table of
    <m_1, ..., m_{i-1}> into that of <m_1, ..., m_i>, whose entry at rho is
    the least dist[rho - k g] + k g over k >= 0; k >= L, the length of the
    cycle of rho under rho -> rho + g, only repeats a residue at a larger
    cost.  The residues fall into gcd(g, m_1) such cycles, and each is
    walked once from its least entry lo, keeping val = min(dist[cur],
    val + g).  Invariant: at the j-th residue after lo, val is the least
    dist[cur - k g] + k g over k <= j, and it is written there.  The k > j
    need not be looked at: such a chain passes lo, so it costs at least
    dist[lo] + j g, the chain from lo.  So the walk writes the new table,
    and lo keeps its entry.

    The unreached mark is m_1 m_t, above every entry of every pass.  A
    non-zero least element w of its class in <m_1, ..., m_i> has a
    factorization without m_1 (w - m_1 would be smaller, in the same
    class), with k atoms of at most m_t each.  If k >= m_1, two of the
    partial sums 0 = s_0 < s_1 < ... < s_k = w agree mod m_1, say s_a and
    s_b with a < b, and w - (s_b - s_a) is a smaller element of the class.
    So w <= (m_1 - 1) m_t.  Hence min(mark, x) = x for every entry x: the
    mark acts as infinity, and a residue keeps it exactly when no element of
    <m_1, ..., m_i> lies in its class.  A primitive M has an element in
    every class, so none keeps it after the last pass.

    Raises NotPrimitive when gcd(M) > 1, then BudgetExceeded, before
    allocating anything, when m_1 > DEFAULT_CAP, and before any pass once
    deadline has passed; a refused call stores nothing.  A memoized table
    is returned whatever the deadline.  The memo is bounded by the table
    entries it holds (_apery_memo); a table longer than that bound, which
    only a bound set below DEFAULT_CAP allows, is returned and not stored.
    """
    table = _apery_memo.get(M)
    if table is not None:
        return table
    _require_primitive(M)
    gens = M.generators
    m1 = gens[0]
    if m1 > DEFAULT_CAP:
        raise BudgetExceeded(
            f"an Apery table of {m1} entries exceeds the cap of {DEFAULT_CAP}"
        )
    unreached = m1 * gens[-1]
    dist = [unreached] * m1
    dist[0] = 0
    for g in gens[1:]:
        _check_deadline(deadline)
        step = g % m1
        cycles = gcd(step, m1)
        for first in range(cycles):
            # the cycle of first is its class mod cycles; start at its least
            row = dist[first::cycles]
            cur = first + cycles * row.index(min(row))
            # the copy would keep every entry the walk replaces alive
            del row
            val = dist[cur]
            for _ in range(m1 // cycles - 1):
                cur += step
                if cur >= m1:
                    cur -= m1
                val += g
                old = dist[cur]
                if old < val:
                    val = old
                else:
                    dist[cur] = val
    return _apery_memo.remember(M, tuple(dist))


def contains(M: NumericalMonoid, a: int) -> bool:
    """Membership test via the Apery table; requires M primitive."""
    a = _natural(a, "element")
    ap = apery(M)
    return a >= ap[a % len(ap)]


def frobenius(M: NumericalMonoid) -> int:
    """Largest integer not in M; -1 when M is all of the naturals."""
    ap = apery(M)
    return max(ap) - len(ap)


def default_window(M: NumericalMonoid) -> int:
    """Window for sup-style sweeps: m_{t-1} m_t + 2 m_t.

    Large enough to see every Betti element and the full Apery landscape of
    the two largest generators; windowed results remain lower bounds.
    """
    gens = M.generators
    small = gens[-2] if len(gens) >= 2 else gens[-1]
    return small * gens[-1] + 2 * gens[-1]
