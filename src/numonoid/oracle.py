"""Brute-force reference implementations for cross-checking the fast paths.

Everything here works straight from definitions and shares no machinery with
the optimized modules: membership by coin-sieve reachability, factorization
sets by one unpruned recursive sweep over a whole window, factorization-graph
connectivity by a flood over pairwise support intersection, congruence
generation by joining, within each element's factorizations, every translate
u + left ~ u + right of a relation that lands on it.  Deliberately simple
and only modestly fast; the optimized modules must agree with these routines
on small instances, and derived test fixtures are frozen from their output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .core import NumericalMonoid
from .errors import InvalidInput, NotARelation


def reachable_up_to(gens: tuple[int, ...], bound: int) -> list[bool]:
    """reachable[v] iff v is a non-negative combination of gens, v <= bound."""
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
    Results are cached per (gens, bound) and must be treated as read-only.
    """
    return _buckets(tuple(gens), bound)


@lru_cache(maxsize=8)
def _buckets(gens: tuple[int, ...], bound: int) -> dict[int, list[tuple[int, ...]]]:
    t = len(gens)
    buckets: dict[int, list[tuple[int, ...]]] = {}
    counts = [0] * t

    def rec(i: int, acc: int) -> None:
        m = gens[i]
        if i == 0:
            val = acc
            c = 0
            while val <= bound:
                counts[0] = c
                buckets.setdefault(val, []).append(tuple(counts))
                val += m
                c += 1
            counts[0] = 0
            return
        val = acc
        c = 0
        while val <= bound:
            counts[i] = c
            rec(i - 1, val)
            val += m
            c += 1
        counts[i] = 0

    try:
        rec(t - 1, 0)
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
    over Z(a), and test that every factorization shares the root of the
    first.  A failure records a with the first factorization and the first
    one, in bucket order, not joined to it.  Accepts Relation objects or bare
    (left, right) pairs.
    """
    if window < 0:
        raise InvalidInput(f"window must be non-negative, got {window}")
    gens = M.generators
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
        translates.append((lval, left, right))

    buckets = factorization_buckets(gens, window)
    failures = []
    for a in sorted(buckets):
        zs = buckets[a]
        if len(zs) < 2:
            continue
        # a forest over Z(a) alone; a translate joins the trees of its sides
        parent: dict[tuple[int, ...], tuple[int, ...]] = {}

        def root(z):
            while z in parent:
                z = parent[z]
            return z

        for value, left, right in translates:
            for u in buckets.get(a - value, ()):
                x = root(tuple(map(add, u, left)))
                y = root(tuple(map(add, u, right)))
                if x != y:
                    parent[x] = y
        first = root(zs[0])
        missing = next((z for z in zs if root(z) != first), None)
        if missing is not None:
            failures.append((a, (zs[0], missing)))
    return ClosureReport(window, tuple(failures))


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
        for sub, add in moves:
            if all(vc >= sc for vc, sc in zip(v, sub)):
                w = tuple(vc - sc + ac for vc, sc, ac in zip(v, sub, add))
                if w in seen or sum(w) > sum(v):
                    continue
                if w == zp:
                    return True
                seen.add(w)
                frontier.append(w)
    return False
