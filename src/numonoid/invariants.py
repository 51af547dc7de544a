"""Factorization invariants: delta sets, catenary degrees, tame degree.

Monoid-level ordinary catenary is exact (it is attained at a Betti element,
so a per-Betti bottleneck computation suffices).  Monoid-level monotone and
equal catenary degrees and the tame degree have no known finite certificate
in general, so outside the shifted-family regime they are reported as sups
over a stated window and flagged as lower bounds.  The regime is read off
the generators: M = <m_1, ..., m_t> is the member n = m_1 of the family with
offsets r_i = m_{i+1} - m_1, and is inside it when m_1 > r_k^2.  There the
Betti elements come from the accelerated presentation, the monotone and
equal catenary degrees collapse onto the ordinary one and the delta set is
the singleton {gcd of the offsets}; those paths are exact and are
cross-checked against the Betti data before being returned.  An explicit
window always forces the windowed sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NumericalMonoid, contains, default_window
from .errors import InvalidInput, NotAnElement, VerificationFailed
from .factorizations import _check_deadline, distance, factorizations, length_profile
from .presentations import betti_elements
from .shifted import accelerated_minimal_presentation, family_from_generators
from .unionfind import UnionFind


def _family_betti(M: NumericalMonoid, deadline: float | None):
    """Betti elements of M read off the accelerated presentation when M is
    above its shifted family's threshold (m_1 > r_k^2), else None."""
    family, n = family_from_generators(M.generators)
    if family is None or n <= family.threshold:
        return None
    pres = accelerated_minimal_presentation(family, n, deadline=deadline)
    return pres.betti_values()


def _sweep(M: NumericalMonoid, window: int | None, deadline: float | None):
    """The window (default_window when None) and a generator over the
    elements of M in [0, window], checking the deadline before each."""
    if window is not None and window < 0:
        raise InvalidInput(f"window must be non-negative, got {window}")
    w = default_window(M) if window is None else window

    def members():
        for a in range(w + 1):
            _check_deadline(deadline)
            if contains(M, a):
                yield a

    return w, members()


@dataclass(frozen=True)
class CatenaryReport:
    """Ordinary/monotone/equal catenary values with exactness metadata.

    exact=True means all three values are certified (theorem-backed family
    path); exact=False means monotone and equal are sups over elements up to
    window and are only lower bounds.  element is None for monoid-level
    reports.
    """

    ordinary: int
    monotone: int
    equal: int
    exact: bool
    window: int | None
    element: int | None = None


@dataclass(frozen=True)
class DeltaSet:
    values: frozenset
    exact: bool
    window: int | None


@dataclass(frozen=True)
class TameReport:
    value: int
    attained_at: int | None
    window: int


def _bottleneck(vectors: list[tuple[int, ...]]) -> int:
    """Smallest N with the distance-<=N graph on vectors connected.

    Kruskal on the complete graph: the bottleneck of any minimum spanning
    tree.  Zero for fewer than two vectors.
    """
    m = len(vectors)
    if m <= 1:
        return 0
    edges = sorted(
        (distance(vectors[i], vectors[j]), i, j)
        for i in range(m)
        for j in range(i + 1, m)
    )
    uf = UnionFind(m)
    for d, i, j in edges:
        if uf.union(i, j) and uf.n_components == 1:
            return d
    raise AssertionError("complete graph failed to connect")


def catenary_of_element(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> int:
    """Smallest N such that any two factorizations of a are joined by a
    chain of factorizations with consecutive distances at most N."""
    zs = factorizations(M, a, deadline=deadline)
    if not zs:
        raise NotAnElement(f"{a} is not an element of {M.generators}")
    return _bottleneck(zs)


def catenary_of_monoid(
    M: NumericalMonoid,
    *,
    betti=None,
    deadline: float | None = None,
) -> int:
    """Catenary degree of the monoid: the max over its Betti elements.

    The value is attained at a Betti element, so this is exact.  Above the
    family threshold the Betti elements come from the accelerated
    presentation, otherwise from the direct scan; a precomputed Betti list
    can be passed to skip both.
    """
    if betti is None:
        betti = _family_betti(M, deadline)
    if betti is None:
        betti = betti_elements(M, deadline=deadline)
    best = 0
    for beta in betti:
        _check_deadline(deadline)
        best = max(best, catenary_of_element(M, beta, deadline=deadline))
    return best


def monotone_equal_catenary(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> tuple[int, int]:
    """(monotone, equal) catenary degrees of the element a.

    equal: smallest N such that within every length class of Z(a) the
    distance-<=N graph is connected.  monotone: smallest N such that every
    ordered pair z, z' with |z| >= |z'| is joined by a chain with
    non-increasing lengths and steps at most N.  Monotone is found by binary
    search on N over the pairwise distances, checking reachability in the
    layered graph (bidirectional within a length class, directed toward
    strictly smaller lengths).
    """
    zs = factorizations(M, a, deadline=deadline)
    if not zs:
        raise NotAnElement(f"{a} is not an element of {M.generators}")
    m = len(zs)
    if m <= 1:
        return 0, 0

    lengths = [sum(z) for z in zs]
    classes = {}
    for i, ell in enumerate(lengths):
        classes.setdefault(ell, []).append(i)
    equal = max(
        _bottleneck([zs[i] for i in idx]) for idx in classes.values()
    )

    dist = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            dist[i][j] = dist[j][i] = distance(zs[i], zs[j])

    def feasible(bound: int) -> bool:
        # edge i -> j allowed when it does not increase length
        adj = [
            [j for j in range(m) if j != i and dist[i][j] <= bound and lengths[j] <= lengths[i]]
            for i in range(m)
        ]
        for src in range(m):
            seen = [False] * m
            seen[src] = True
            stack = [src]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            if any(
                not seen[j] for j in range(m) if lengths[j] <= lengths[src]
            ):
                return False
        return True

    candidates = sorted({dist[i][j] for i in range(m) for j in range(i + 1, m)})
    candidates = [c for c in candidates if c >= equal]
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        _check_deadline(deadline)
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo], equal


def monoid_catenary_report(
    M: NumericalMonoid,
    *,
    window: int | None = None,
    deadline: float | None = None,
) -> CatenaryReport:
    """Monoid-level catenary report.

    Ordinary is always exact.  With no window and M above its family's
    threshold the monotone and equal degrees equal the ordinary one and the
    report is exact; otherwise they are sups over elements up to window
    (default default_window) and flagged as lower bounds.
    """
    betti = _family_betti(M, deadline) if window is None else None
    if betti is not None:
        ordinary = catenary_of_monoid(M, betti=betti, deadline=deadline)
        return CatenaryReport(ordinary, ordinary, ordinary, True, None)
    w, members = _sweep(M, window, deadline)
    ordinary = catenary_of_monoid(M, deadline=deadline)
    monotone = equal = 0
    for a in members:
        mc, ec = monotone_equal_catenary(M, a, deadline=deadline)
        monotone = max(monotone, mc)
        equal = max(equal, ec)
    return CatenaryReport(ordinary, monotone, equal, False, w)


def delta_set_of_element(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> frozenset:
    return frozenset(length_profile(M, a, deadline=deadline).deltas)


def delta_set(
    M: NumericalMonoid,
    *,
    window: int | None = None,
    deadline: float | None = None,
) -> DeltaSet:
    """Delta set of the monoid.

    Family path (no window, M above its family's threshold): the delta set
    is exactly {d} with d the gcd of the offsets; the Betti-element delta
    sets are checked to confirm it (their union realizes the max of the
    delta set) and a mismatch raises VerificationFailed.  Otherwise: union
    of element delta sets up to window, flagged window-limited.
    """
    betti = _family_betti(M, deadline) if window is None else None
    if betti is not None:
        d = family_from_generators(M.generators)[0].d
        union = set()
        for beta in betti:
            union |= delta_set_of_element(M, beta, deadline=deadline)
        if union != {d}:
            raise VerificationFailed(
                f"Betti delta sets give {sorted(union)}, expected {{{d}}}"
            )
        return DeltaSet(frozenset({d}), True, None)
    w, members = _sweep(M, window, deadline)
    union = set()
    for a in members:
        union |= delta_set_of_element(M, a, deadline=deadline)
    return DeltaSet(frozenset(union), False, w)


def tame_degree(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> int:
    """Tame degree of the element a.

    Max over factorizations z and atoms m_i with a - m_i in M of the
    distance from z to the nearest factorization using atom i.  Zero when
    every factorization already touches every reachable atom.
    """
    zs = factorizations(M, a, deadline=deadline)
    if not zs:
        raise NotAnElement(f"{a} is not an element of {M.generators}")
    gens = M.generators
    best = 0
    for i, g in enumerate(gens):
        if a < g or not contains(M, a - g):
            continue
        users = [z for z in zs if z[i] > 0]
        for z in zs:
            if z[i] > 0:
                continue
            _check_deadline(deadline)
            best = max(best, min(distance(z, zp) for zp in users))
    return best


def tame_degree_windowed(
    M: NumericalMonoid,
    *,
    window: int | None = None,
    deadline: float | None = None,
) -> TameReport:
    """Windowed sup of element tame degrees; a lower bound for the monoid.

    No closed form for the monoid-level tame degree is implemented (none is
    known for shifted families); the report records the window and the
    first element attaining the max.
    """
    w, members = _sweep(M, window, deadline)
    value = -1
    attained = None
    for a in members:
        ta = tame_degree(M, a, deadline=deadline)
        if ta > value:
            value, attained = ta, a
    if value < 0:
        value, attained = 0, None
    return TameReport(value, attained, w)
