"""Brute-force reference implementations for cross-checking the fast paths.

Everything here works straight from definitions and shares no machinery with
the optimized modules: membership by coin-sieve reachability, factorization
sets by one unpruned recursive sweep over a whole window, factorization-graph
components by pairwise support intersection, congruence generation by
breadth-first search over translated relation instances.  Deliberately simple
and only modestly fast; the optimized modules must agree with these routines
on small instances, and derived test fixtures are frozen from their output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    rec(t - 1, 0)
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

    For each element a <= window with at least two factorizations, build the
    graph on Z(a) whose edges are translated relation instances (subtract one
    side where it fits coordinatewise, add the other) and test connectivity.
    Accepts Relation objects or bare (left, right) pairs.
    """
    if window < 0:
        raise InvalidInput(f"window must be non-negative, got {window}")
    gens = M.generators
    pairs = _as_pairs(relations)
    for left, right in pairs:
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
    moves = []
    for left, right in pairs:
        moves.append((left, right))
        moves.append((right, left))

    buckets = factorization_buckets(gens, window)
    failures = []
    for a in sorted(buckets):
        zs = buckets[a]
        if len(zs) < 2:
            continue
        index = {z: i for i, z in enumerate(zs)}
        adjacency: list[list[int]] = [[] for _ in zs]
        for sub, add in moves:
            for z, i in index.items():
                if all(zc >= sc for zc, sc in zip(z, sub)):
                    w = tuple(zc - sc + ac for zc, sc, ac in zip(z, sub, add))
                    adjacency[i].append(index[w])
        seen = [False] * len(zs)
        seen[0] = True
        stack = [0]
        while stack:
            for j in adjacency[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not all(seen):
            missing = next(z for z, i in index.items() if not seen[i])
            failures.append((a, (zs[0], missing)))
    return ClosureReport(window, tuple(failures))


def _support_components(zs: list[tuple[int, ...]]) -> list[list[int]]:
    # components of the graph joining factorizations with intersecting
    # support, by the definition itself: pairwise tests plus flood fill
    n = len(zs)
    supports = [frozenset(i for i, c in enumerate(z) if c > 0) for z in zs]
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if supports[i] & supports[j]:
                adjacency[i].append(j)
                adjacency[j].append(i)
    comps = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            for j in adjacency[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def naive_betti_scan(M: NumericalMonoid, bound: int) -> list[int]:
    """All a <= bound whose factorization graph is disconnected."""
    buckets = factorization_buckets(M.generators, bound)
    out = []
    for a in sorted(buckets):
        zs = buckets[a]
        if len(zs) >= 2 and len(_support_components(zs)) > 1:
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
