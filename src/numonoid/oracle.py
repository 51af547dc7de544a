"""Brute-force reference implementations for cross-checking the fast paths.

Everything here works straight from definitions and shares no machinery with
the optimized modules: membership by coin-sieve reachability, factorization
sets by one unpruned recursive sweep over a whole window, factorization-graph
connectivity by a flood over pairwise support intersection, congruence
generation by joining, within each element's factorizations, every translate
u + left ~ u + right of a relation that lands on it.  The sweep stores each
factorization as a carry-free integer code (see congruence_closure_check),
so a translate is one integer addition; that changes how the vectors are
held, not what is checked.  Deliberately simple and only modestly fast;
the optimized modules must agree with these routines on small instances,
and derived test fixtures are frozen from their output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import NumericalMonoid
from .errors import InvalidInput, NotARelation


def _check_bound(x, what: str) -> None:
    """Refuse, with InvalidInput, a window or bound that is not a
    non-negative int (a bool included)."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise InvalidInput(f"{what} must be a non-negative integer, got {x!r}")


def reachable_up_to(gens: tuple[int, ...], bound: int) -> list[bool]:
    """reachable[v] iff v is a non-negative combination of gens, v <= bound."""
    _check_bound(bound, "bound")
    reach = bytearray(bound + 1)
    reach[0] = 1
    for g in gens:
        for v in range(g, bound + 1):
            if reach[v - g]:
                reach[v] = 1
    return [bool(b) for b in reach]


def factorization_buckets(
    gens: tuple[int, ...], bound: int
) -> dict[int, list[tuple[int, ...]]]:
    """Every exponent vector with value <= bound, keyed by value.

    One recursive sweep; total work proportional to the number of vectors.
    Within a value the vectors come ascending in (z_t, ..., z_2).  The sweep
    stores integer codes (see congruence_closure_check), cached per
    (gens, bound); each call returns a fresh dict decoded from them.
    """
    _check_bound(bound, "bound")
    gens = tuple(gens)
    radices = _radices(gens, bound)
    return {
        a: [_decode(code, radices) for code in codes]
        for a, codes in _buckets(gens, bound).items()
    }


def _radices(gens: tuple[int, ...], bound: int) -> list[int]:
    """One radix per coordinate: a vector of value <= bound has
    z_j <= bound // m_j, a digit below bound // m_j + 1."""
    return [bound // g + 1 for g in gens]


def _weights(radices: list[int]) -> list[int]:
    """w_j = the product of the radices before j."""
    weights, w = [], 1
    for r in radices:
        weights.append(w)
        w *= r
    return weights


def _decode(code: int, radices: list[int]) -> tuple[int, ...]:
    """The vector whose digits in these radices make up code."""
    z = []
    for r in radices:
        code, c = divmod(code, r)
        z.append(c)
    return tuple(z)


@lru_cache(maxsize=8)
def _buckets(gens: tuple[int, ...], bound: int) -> dict[int, list[int]]:
    """The codes sum z_j w_j of every vector with value <= bound, by value."""
    weights = _weights(_radices(gens, bound))
    buckets: dict[int, list[int]] = {}

    def rec(i: int, acc: int, code: int) -> None:
        m, w = gens[i], weights[i]
        if i == 0:
            while acc <= bound:
                buckets.setdefault(acc, []).append(code)
                acc += m
                code += w
            return
        while acc <= bound:
            rec(i - 1, acc, code)
            acc += m
            code += w

    try:
        rec(len(gens) - 1, 0, 0)
    finally:
        del rec  # rec's closure holds rec; the cycle would keep buckets alive
    return buckets


@dataclass(frozen=True)
class ClosureReport:
    """Connectivity audit of a relation set over a window of elements."""

    verified_window: int
    failures: tuple[tuple[int, tuple[tuple[int, ...], tuple[int, ...]]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _as_pairs(relations) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for rel in relations:
        if hasattr(rel, "left"):
            pairs.append((tuple(rel.left), tuple(rel.right)))
        else:
            left, right = rel
            pairs.append((tuple(left), tuple(right)))
    return pairs


def congruence_closure_check(
    M: NumericalMonoid, relations, window: int
) -> ClosureReport:
    """Do the relations generate every same-value identification up to window?

    The congruence the relations generate is the equivalence generated by
    their translates u + left ~ u + right.  For each element a <= window with
    at least two factorizations, join the two sides of every translate of
    value a (u runs over the vectors of value a - value(left)) in a forest
    over Z(a), until it spans Z(a) or the translates run out, and test that
    every factorization shares the root of the first.  A failure records a
    with the first factorization and the first one, in bucket order, not
    joined to it.  Accepts Relation objects or bare (left, right) pairs.

    Vectors are stored as integer codes sum z_j w_j, where w_j is the product
    of the radices window // m_i + 1 over i < j, so a translate is one integer
    addition.  The codes carry no digit, so they add like the vectors:
    - a vector of value at most window has z_j <= window // m_j, a digit
      below its radix, so distinct vectors have distinct codes;
    - for a <= window and u in Z(a - value(left)), u + left has value a, so
      its digits stay below their radices and code(u) + code(left) is
      code(u + left);
    - a relation of value above window may have a code that carries, but it
      has no translate in the window, so its code is never added.
    """
    _check_bound(window, "window")
    gens = M.generators
    radices = _radices(gens, window)
    weights = _weights(radices)
    translates = []
    for left, right in _as_pairs(relations):
        if len(left) != len(gens) or len(right) != len(gens):
            raise NotARelation(f"relation {left} ~ {right} has wrong arity")
        if any(isinstance(c, bool) or not isinstance(c, int) for c in left + right):
            raise NotARelation(f"relation {left} ~ {right} has non-integer entries")
        if any(c < 0 for c in left) or any(c < 0 for c in right):
            raise NotARelation(f"relation {left} ~ {right} has negative entries")
        lval = sum(c * g for c, g in zip(left, gens))
        rval = sum(c * g for c, g in zip(right, gens))
        if lval != rval:
            raise NotARelation(
                f"sides of {left} ~ {right} evaluate to {lval} and {rval}"
            )
        lcode = sum(c * w for c, w in zip(left, weights))
        rcode = sum(c * w for c, w in zip(right, weights))
        translates.append((lval, lcode, rcode))

    buckets = _buckets(gens, window)
    failures = []
    for a in sorted(buckets):
        zs = buckets[a]
        if len(zs) < 2:
            continue
        missing = _unjoined(buckets, translates, a)
        if missing is not None:
            pair = (_decode(zs[0], radices), _decode(missing, radices))
            failures.append((a, pair))
    return ClosureReport(window, tuple(failures))


def _unjoined(
    buckets: dict[int, list[int]], translates: list[tuple[int, int, int]], a: int
) -> int | None:
    """The first code of Z(a), in bucket order, whose vector the translates
    landing on a do not join to the first one; None when they join them all.

    The forest is over Z(a) alone, since every translate of value a joins
    two members of it.  A join links one root below another, so the forest
    spans Z(a) once it holds |Z(a)| - 1 links, and the joins stop there.
    """
    zs = buckets[a]
    spanning = len(zs) - 1
    parent: dict[int, int] = {}
    for value, lcode, rcode in translates:
        for u in buckets.get(a - value, ()):
            x, y = u + lcode, u + rcode
            while x in parent:
                x = parent[x]
            while y in parent:
                y = parent[y]
            if x != y:
                parent[x] = y
                if len(parent) == spanning:
                    return None

    def root(z):
        while z in parent:
            z = parent[z]
        return z

    first = root(zs[0])
    return next(z for z in zs if root(z) != first)


def naive_betti_scan(M: NumericalMonoid, bound: int) -> list[int]:
    """All a <= bound whose factorization graph is disconnected.

    Flood from the first factorization of a, stepping to every factorization
    whose support meets the current one's; a is reported when some
    factorization is never reached.
    """
    buckets = factorization_buckets(M.generators, bound)
    out = []
    for a in sorted(buckets):
        zs = buckets[a]
        if len(zs) < 2:
            continue
        supports = [{i for i, c in enumerate(z) if c} for z in zs]
        frontier, unreached = supports[:1], supports[1:]
        while frontier and unreached:
            s = frontier.pop()
            frontier += [t for t in unreached if s & t]
            unreached = [t for t in unreached if not s & t]
        if unreached:
            out.append(a)
    return out


def monotone_chain_search(
    M: NumericalMonoid,
    a: int,
    z: tuple[int, ...],
    zp: tuple[int, ...],
    relations,
) -> bool:
    """Is there a relation-translation chain z -> zp with monotone lengths?

    Both endpoints must factor a.  Search runs from the longer endpoint and
    only ever steps to factorizations of non-increasing length, so any path
    found is a monotone chain; equal-length endpoints force a constant-length
    chain, since a dip in length could never be recovered.
    """
    gens = M.generators
    z, zp = tuple(z), tuple(zp)
    for v in (z, zp):
        if len(v) != len(gens) or sum(c * g for c, g in zip(v, gens)) != a:
            raise InvalidInput(f"{v} is not a factorization of {a}")
    if z == zp:
        return True
    if sum(z) < sum(zp):
        z, zp = zp, z
    moves = []
    for left, right in _as_pairs(relations):
        moves.append((left, right))
        moves.append((right, left))
    frontier = [z]
    seen = {z}
    while frontier:
        v = frontier.pop()
        for sub, put in moves:
            if all(vc >= sc for vc, sc in zip(v, sub)):
                w = tuple(vc - sc + pc for vc, sc, pc in zip(v, sub, put))
                if w in seen or sum(w) > sum(v):
                    continue
                if w == zp:
                    return True
                seen.add(w)
                frontier.append(w)
    return False
