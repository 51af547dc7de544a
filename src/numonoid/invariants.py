"""Factorization invariants: delta sets, catenary degrees, tame degree.

Monoid-level ordinary catenary is exact (it is attained at a Betti element,
so a per-Betti bottleneck computation suffices).  The tame degree is
attained at an element at most F + 2 m_t, F the Frobenius number, so its
sweep stops there and is exact once the window reaches it, as the default
window always does (proof in tame_degree_windowed).  Monoid-level monotone
and equal catenary degrees have no known finite certificate in general, so
outside the shifted-family regime they are reported as sups over a stated
window and flagged as lower bounds.  The regime is read off the
generators: M = <m_1, ..., m_t> is the member n = m_1 of the family with
offsets r_i = m_{i+1} - m_1, and is inside it when m_1 > r_k^2.  There the
monotone and equal catenary degrees collapse onto the ordinary one and the
delta set is the singleton {gcd of the offsets}; those paths are exact.
The delta set's family path checks that singleton against the Betti
elements' delta sets before returning it; monoid_catenary_report's family
path returns the ordinary degree three times, with no check of its own.
Every Betti element comes from shifted._betti_graphs, which takes the lift
well above the threshold and the direct scan otherwise, and its
factorizations are read off the graph's vertices rather than enumerated
again.  An explicit window always forces the windowed sweep.

The windowed sweeps run no per-element search:

- Delta set: the length sets obey L(0) = {0} and
  L(a) = union over m_i <= a of (L(a - m_i) + 1) (Barron, O'Neill and
  Pelayo, Math. Comp. 2017).  Each L(a) is kept as an int bitmask over
  lengths, so the sweep is about t big-int ORs per element of the window
  and enumerates no factorization; a is in M exactly when its mask is
  non-zero, and the gaps of L(a) are the runs of zeros between its ones.
  A mask is shifted down to its lowest one before its runs are read, which
  moves no run, so each distinct shifted mask is decoded once.
- Monotone and equal catenary and tame degree read every Z(a) of the
  window from one stream (factorizations._stream), which builds Z(a) from
  the rows of a - m_i and holds the last m_t rows only.  Its rows are not
  in the documented order; no sweep result depends on that order.
- Monotone and equal catenary: Z(a) is grouped by length.  Equal is the
  largest bottleneck of a length class; monotone is the larger of equal
  and the least distance between each two consecutive length classes
  (proof in monotone_equal_catenary).  The sweep skips every class and
  every pair of classes too short to raise its running max (d(u, v) <=
  max(|u|, |v|)), stops a closest-pair scan at the first pair within it,
  and takes a class's O(|class|^2) bottleneck only when the class is
  disconnected under shared atoms.  It scans two consecutive classes
  only when no atom is used in both, as only such a pair is new at a.
  Neither a connected class nor an inherited pair of classes can raise
  the running max (proofs in _monotone_equal); both gates read Z(a)
  alone.
- Tame degree: O(|Z(a)|^2) distances per atom at most, cut short for a
  factorization as soon as one user of the atom lies within the running
  max, for the elements up to min(window, F + 2 m_t) only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter, mul

from .core import NumericalMonoid, _check_deadline, _natural, default_window, frobenius
from .errors import NotPrimitive, VerificationFailed
from .factorizations import (
    _distance,
    _factorizations_of,
    _profile,
    _stream,
    length_profile,
)
from .presentations import _atom_union
from .shifted import _betti_graphs, family_from_generators


def _regime_family(M: NumericalMonoid):
    """M's shifted family when M is above the family's threshold
    (m_1 > r_k^2), where its theorems hold, else None."""
    family, n = family_from_generators(M.generators)
    return family if family is not None and n > family.threshold else None


def _window(M: NumericalMonoid, window: int | None) -> int:
    """The validated sweep window: default_window when None.  Sweeps are
    over numerical monoids, so M must be primitive."""
    if window is not None:
        window = _natural(window, "window")
    if not M.is_primitive:
        raise NotPrimitive(f"gcd of generators is {M.gcd}; the sweep needs 1")
    return default_window(M) if window is None else window


@dataclass(frozen=True)
class CatenaryReport:
    """Ordinary/monotone/equal catenary values with exactness metadata.

    exact=True means all three values are certified (theorem-backed family
    path); exact=False means monotone and equal are sups over elements up to
    window and are only lower bounds.  element is always None: every
    report is monoid-level, and the field stays only because the
    benchmark's sweep digests hash the report's fields.
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


def _sized(zs: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Each factorization paired with its length, for the distance kernel."""
    return [(z, sum(z)) for z in zs]


def _bottleneck(sized: list[tuple[tuple[int, ...], int]]) -> int:
    """Smallest N with the distance-<=N graph on the (vector, length) pairs
    connected.

    Dense Prim on the complete graph, O(m^2) distances and no edge sort:
    the bottleneck is the largest edge of any minimum spanning tree.  Zero
    for fewer than two vectors.
    """
    if len(sized) <= 1:
        return 0
    z0, l0 = sized[0]
    # rest: vectors outside the tree, with their least distance to it
    rest = [(_distance(z0, z, l0, lz), z, lz) for z, lz in sized[1:]]
    best = 0
    while rest:
        nearest = min(rest)
        rest.remove(nearest)
        d, zj, lj = nearest
        best = max(best, d)
        rest = [
            (min(key, _distance(zj, z, lj, lz)), z, lz) for key, z, lz in rest
        ]
    return best


def catenary_of_element(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> int:
    """Smallest N such that any two factorizations of a are joined by a
    chain of factorizations with consecutive distances at most N."""
    zs = _factorizations_of(M, a, deadline)
    return _bottleneck(_sized(zs))


def catenary_of_monoid(
    M: NumericalMonoid,
    *,
    betti=None,
    deadline: float | None = None,
) -> int:
    """Catenary degree of the monoid: the max over its Betti elements.

    The value is attained at a Betti element, so this is exact.  The Betti
    elements and their factorizations come from shifted._betti_graphs, by
    the lift or the direct scan; with a precomputed Betti list, each listed
    element is enumerated instead.
    """
    best = 0
    if betti is None:
        for graph in _betti_graphs(M, deadline):
            _check_deadline(deadline)
            best = max(best, _bottleneck(_sized(graph.vertices)))
        return best
    for beta in betti:
        _check_deadline(deadline)
        best = max(best, catenary_of_element(M, beta, deadline=deadline))
    return best


def monotone_equal_catenary(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> tuple[int, int]:
    """(monotone, equal) catenary degrees of the element a.

    equal: smallest N such that within every length class of Z(a) the
    distance-<=N graph is connected, that is the largest bottleneck of a
    class.  monotone: smallest N such that every ordered pair z, z' with
    |z| >= |z'| is joined by a chain with non-increasing lengths and steps
    at most N.  With the distinct lengths l_1 < ... < l_s of Z(a),

        monotone = max(equal, max_j min{d(u, v) : |u| = l_j, |v| = l_{j-1}}).

    Proof.  Let N be feasible.  A non-increasing chain between two
    factorizations of one length stays in that length, so every class is
    connected at N and N >= equal.  A chain from class j down to class
    j - 1 passes no length strictly between them, so one of its steps goes
    straight from class j to class j - 1, and N is at least the least
    distance between the two classes.  Conversely, let N be the maximum
    above.  Inside a class any two factorizations are joined at N.  From
    class j, walk inside the class to the end u of a closest pair (u, v)
    and step to v in class j - 1; by induction on j, v reaches every
    factorization of every shorter class.  So N is feasible.
    """
    zs = _factorizations_of(M, a, deadline)
    return _monotone_equal(zs, M.t, 0, 0, False, deadline)


def _monotone_equal(
    zs: list[tuple[int, ...]],
    t: int,
    monotone: int,
    equal: int,
    gated: bool,
    deadline: float | None,
) -> tuple[int, int]:
    """(max(monotone, monotone degree of a), max(equal, equal degree of a))
    for the element a with factorization set zs, in any order.

    The floors let a sweep skip what cannot raise its running max: since
    d(u, v) <= max(|u|, |v|), a length class l <= equal has bottleneck at
    most equal, a consecutive pair of classes whose longer length is
    <= monotone has least distance at most monotone, and the scan for a
    closest pair can stop at the first pair within monotone.  With zero
    floors and gated False nothing is skipped and the result is the
    element's own degrees.

    gated adds two gates, both read off zs alone.  Both are sound only for
    a sweep over every element from 0 up, with monotone and equal its
    running maxes; the per-element monotone_equal_catenary has no smaller
    elements to lean on and is never gated.  Both rest on one identity:
    the factorizations of a using atom i are those of a - m_i plus e_i,
    and d(u + e_i, v + e_i) = d(u, v).

    Connected classes.  A length class connected under shared atoms (a
    member uses every atom, or _atom_union gives one component) is
    skipped: its bottleneck is at most the equal degree of some smaller
    element, so only the classes that are disconnected, the Betti elements
    of the length-graded monoid <(m_i, 1)>, can raise the max.  Proof, by
    induction on a (after Chapman, Garcia-Sanchez, Llena, Ponomarenko and
    Rosales, Manuscripta Math. 2006, whose argument puts the catenary
    degree at the Betti elements).  Two factorizations u, v of the class
    of (a, l) sharing an atom i are u' + e_i and v' + e_i for u', v' in
    the class of (a - m_i, l - 1), joined there with steps at most the
    equal degree of a - m_i < a; adding e_i to each step joins u and v in
    the class of (a, l).  Chaining along a path of the atom-sharing graph
    joins any two members with steps at most the running max.

    Inherited pairs.  Two consecutive lengths s < l of L(a) are skipped
    when some atom i is used by a factorization of length s and by one of
    length l (_shares_atom).  Proof.  Z(a - m_i) + e_i holds both, so
    s - 1 and l - 1 are lengths of a - m_i, and consecutive ones, since a
    length between them would give, after + e_i, one of a between s and
    l.  A closest pair (u', v') of those two classes of a - m_i gives the
    pair (u' + e_i, v' + e_i) of the classes l and s of a at the same
    distance, at most the monotone degree of a - m_i, which the running
    max holds by induction.  So the gated running maxes equal the ungated
    ones after every element, and only the pairs of length classes that
    are new at a are scanned.

    The deadline is read only before the work the gates leave: a
    bottleneck or a closest-pair scan.
    """
    classes: dict[int, list[tuple[int, ...]]] = {}
    for z in zs:
        classes.setdefault(sum(z), []).append(z)
    for ell, cls in classes.items():
        if ell <= equal:
            continue
        # a class with a member using every atom is connected, as every
        # other member shares an atom with it; the test is C-level per vector
        if gated and (any(map(all, cls)) or len(_atom_union(t, cls)) == 1):
            continue
        _check_deadline(deadline)
        equal = max(equal, _bottleneck([(z, ell) for z in cls]))
    monotone = max(monotone, equal)
    lengths = sorted(classes)
    for shorter, longer in zip(lengths, lengths[1:]):
        if longer <= monotone:
            continue
        if gated and _shares_atom(t, classes[longer], classes[shorter]):
            continue
        _check_deadline(deadline)
        # the least distance between the classes raises monotone only if
        # no pair lies within it; every distance is at most longer
        nearest = longer
        for u, v in product(classes[longer], classes[shorter]):
            d = _distance(u, v, longer, shorter)
            if d <= monotone:
                break
            nearest = min(nearest, d)
        else:
            monotone = nearest
    return monotone, equal


def _shares_atom(
    t: int, us: list[tuple[int, ...]], vs: list[tuple[int, ...]]
) -> bool:
    """Whether some atom is used by a vector of us and by one of vs.  For
    two length classes s < l of a, consecutive in L(a), it holds exactly
    when some L(a - m_i) has both s - 1 and l - 1, as the factorizations of
    a using atom i are those of a - m_i plus e_i.  The first vectors of the
    two classes settle nearly every call a sweep makes, at C speed; past
    them, each atom's test stops at its first user."""
    return any(map(mul, us[0], vs[0])) or any(
        any(map(itemgetter(i), us)) and any(map(itemgetter(i), vs))
        for i in range(t)
    )


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
    if window is None and _regime_family(M) is not None:
        ordinary = catenary_of_monoid(M, deadline=deadline)
        return CatenaryReport(ordinary, ordinary, ordinary, True, None)
    w = _window(M, window)
    ordinary = catenary_of_monoid(M, deadline=deadline)
    monotone = equal = 0
    # the stream starts at 0, as the gates need (_monotone_equal); its rows
    # are not in the documented order, and no degree depends on the order
    for _, zs in _stream(M.generators, w, deadline):
        monotone, equal = _monotone_equal(zs, M.t, monotone, equal, True, deadline)
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
    of element delta sets up to window, flagged window-limited.  The sweep
    enumerates no factorization: it runs the length-set recurrence
    L(a) = union over m_i <= a of (L(a - m_i) + 1), L(0) = {0}, on int
    bitmasks (bit l set when l is in L(a)), keeping the last m_t masks.
    """
    family = _regime_family(M) if window is None else None
    if family is not None:
        d = family.d
        union = set()
        for graph in _betti_graphs(M, deadline):
            union.update(_profile(graph.element, graph.vertices).deltas)
        if union != {d}:
            raise VerificationFailed(
                f"Betti delta sets give {sorted(union)}, expected {{{d}}}"
            )
        return DeltaSet(frozenset({d}), True, None)
    w = _window(M, window)
    gens = M.generators
    top = gens[-1]
    # masks[b % top] is the mask of L(b) for the last top elements b; a
    # slot not yet written holds 0, the empty L(b) of every b < 0
    masks = [0] * top
    # the masks of L(a) - 1 shifted down to their lowest one, whose zero
    # runs have been read: a shift moves no run, and few masks are distinct
    seen = set()
    runs = set()  # lengths of the zero runs between two ones of some L(a)
    for a in range(w + 1):
        _check_deadline(deadline)
        below = 0  # the mask of L(a) - 1, zero exactly when a is not in M
        for g in gens:
            below |= masks[(a - g) % top]
        masks[a % top] = below << 1 if a else 1
        if below:
            key = below >> ((below & -below).bit_length() - 1)
            if key not in seen:
                seen.add(key)
                runs.update(map(len, bin(key).split("1")[1:-1]))
    return DeltaSet(frozenset(r + 1 for r in runs), False, w)


def tame_degree(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> int:
    """Tame degree of the element a.

    Max over factorizations z and atoms m_i with a - m_i in M of the
    distance from z to the nearest factorization using atom i.  Zero when
    every factorization already touches every reachable atom.
    """
    zs = _factorizations_of(M, a, deadline)
    return _tame(zs, M.t, 0, deadline)


def _tame(
    zs: list[tuple[int, ...]], t: int, best: int, deadline: float | None
) -> int:
    """max(best, tame degree of the element a with factorization set zs,
    in any order).  A z whose nearest user of an atom lies within best
    cannot raise the max, so its scan stops there; with best 0 the result
    is the element's own tame degree."""
    sized = _sized(zs)
    for i in range(t):
        # a - m_i is in M exactly when some factorization of a uses atom i
        users = [(zp, lp) for zp, lp in sized if zp[i] > 0]
        if not users:
            continue
        for z, lz in sized:
            if z[i] > 0:
                continue
            _check_deadline(deadline)
            # z raises best only if every user lies farther than best
            nearest = None
            for zp, lp in users:
                d = _distance(z, zp, lz, lp)
                if d <= best:
                    break
                if nearest is None or d < nearest:
                    nearest = d
            else:
                best = nearest
    return best


def tame_degree_windowed(
    M: NumericalMonoid,
    *,
    window: int | None = None,
    deadline: float | None = None,
) -> TameReport:
    """Sup of the element tame degrees over the elements up to window
    (default default_window), and the first element attaining it.

    Only the elements up to min(window, F + 2 m_t), F the Frobenius number,
    are searched: for every element a, some element at most both a and
    F + 2 m_t has a tame degree at least that of a.  So the sup, and the
    first element attaining it, are those of the whole window, and once
    window >= F + 2 m_t (always true at default_window, by Schur's bound
    F <= (m_1 - 1)(m_t - 1) - 1) the value is the exact tame degree of M.

    Proof (after Chapman, Garcia-Sanchez, Llena, Ponomarenko and Rosales,
    Manuscripta Math. 2006).  Let z in Z(a) and an atom i with a - m_i in M
    give the tame degree T of a.  Take z0 <= z coordinatewise and minimal
    with pi(z0) - m_i in M, where pi(z0) = sum z0_j m_j.  Translating by
    z - z0 carries each factorization of pi(z0) using atom i to one of a
    using atom i, as far from z as it was from z0.  So z0 lies at least T
    from every user of i at pi(z0), and the tame degree of pi(z0) <= a is
    at least T.  z0 is not zero, since pi(z0) >= m_i, and
    for j in its support minimality gives pi(z0) - m_j - m_i not in M, so
    pi(z0) <= F + m_i + m_j <= F + 2 m_t.  Minimal generation is not used.
    """
    w = _window(M, window)
    last = min(w, frobenius(M) + 2 * M.generators[-1])
    # 0 is in M and last >= 0, so a = 0 (tame degree 0) is always searched;
    # _tame exceeds the floor value only with the exact tame degree of a,
    # which does not depend on the order of the stream's rows; attained_at
    # depends on a alone
    value, attained = -1, None
    for a, zs in _stream(M.generators, last, deadline):
        ta = _tame(zs, M.t, max(value, 0), deadline)
        if ta > value:
            value, attained = ta, a
    return TameReport(value, attained, w)
