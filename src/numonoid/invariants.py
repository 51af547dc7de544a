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
paths are exact, on these grounds:

- Delta set: the singleton {gcd of the offsets}, proven in delta_set and
  checked against the Betti elements' delta sets before it is returned.
- Equal catenary: the catenary degree c(T) of the graded monoid of the
  offsets, the same at every member of the family, computed by a windowed
  sweep of one fixed member at a window that a cited bound makes
  conclusive (proof in _family_equal_catenary).  The window grows as
  about (r_k/d)^3 bits and is refused (BudgetExceeded) past 8 DEFAULT_CAP.
- Monotone catenary: reported equal to the ordinary degree.  This is
  measured, not proven: no counterexample is known and monotone >=
  ordinary always holds, but no proof or citation stands behind the
  equality here.

Every Betti element comes from shifted._betti_graphs, which takes the lift
well above the threshold and the direct scan otherwise, and its
factorizations are read off the graph's vertices rather than enumerated
again.  An explicit window always forces the windowed sweep.

The windowed delta set and monotone/equal catenary degrees share one pass
over packed length rows (_length_rows): bit a of the int R_l is set when l
is in L(a), for every a of the window.  The rows obey R_0 = 1 and
R_l = OR_i (R_{l-1} << m_i), the length-set recurrence
L(a) = union over m_i <= a of (L(a - m_i) + 1) of Barron, O'Neill and
Pelayo (Math. Comp. 2017) read one length at a time, so a window w takes
about w / m_1 rows of w + 1 bits, each a few big-int operations, and the
pass enumerates no factorization.

- Delta set: each row gives, per gap g, the elements whose next shorter
  length is l - g; the delta set of the window is the set of gaps seen.
- Monotone and equal catenary: Z(a) is grouped by length.  Equal is the
  largest bottleneck of a length class; monotone is the larger of equal
  and the least distance between each two consecutive length classes
  (proof in monotone_equal_catenary).  Over the elements from 0 up, only
  an element with a length class disconnected under shared atoms, or with
  two consecutive classes that no atom joins, can raise either running
  max; the rows decide both for every element at once (_flagged, with the
  proofs), and only those few elements are enumerated
  (factorizations._enumerate), in increasing order.  Each is scanned
  against the running maxes (_monotone_equal), which skips every class
  and pair of classes too short to raise them (d(u, v) <= max(|u|, |v|))
  and stops a closest-pair scan at the first pair within them.
- Tame degree: only an element up to min(window, F + 2 m_t) whose atom
  graph is not complete can raise the running max (proof in
  tame_degree_windowed).  One packed membership mask of that range
  decides the atom graphs of all its elements at once (_incomplete), and
  only the elements it flags are enumerated, in increasing order.  Each
  takes O(|Z(a)|^2) distances per atom at most, cut short for a
  factorization as soon as one user of the atom lies within the running
  max.

Both catenary and tame sweeps walk their flagged elements through one
loop (_factorized), which reads each Z(a) from factorizations._enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import (
    DEFAULT_CAP,
    NumericalMonoid,
    _check_deadline,
    _natural,
    default_window,
    frobenius,
)
from .errors import BudgetExceeded, NotPrimitive, VerificationFailed
from .factorizations import (
    _distance,
    _enumerate,
    _factorizations_of,
    _profile,
    length_profile,
)
from .presentations import _reach
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

    exact=True is the family path: ordinary is exact, equal is c(T) by a
    proof (_family_equal_catenary), or None when it was not asked for, and
    monotone is the ordinary degree on a measured claim that is not proven
    here.  exact=False means monotone and equal are sups over elements up
    to window and are only lower bounds.  element is always None: every
    report is monoid-level, and the field stays only because the
    benchmark's sweep digests hash the report's fields.
    """

    ordinary: int
    monotone: int
    equal: int | None
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
    return _monotone_equal(zs, 0, 0, deadline)


def _monotone_equal(
    zs: list[tuple[int, ...]],
    monotone: int,
    equal: int,
    deadline: float | None,
) -> tuple[int, int]:
    """(max(monotone, monotone degree of a), max(equal, equal degree of a))
    for the element a with factorization set zs, in any order.

    The floors let a sweep skip what cannot raise its running max: since
    d(u, v) <= max(|u|, |v|), a length class l <= equal has bottleneck at
    most equal, a consecutive pair of classes whose longer length is
    <= monotone has least distance at most monotone, and the scan for a
    closest pair can stop at the first pair within monotone.  With zero
    floors nothing is skipped and the result is the element's own
    degrees.  Nothing else is skipped: the windowed sweep calls this only
    at the elements that _flagged finds able to raise its running maxes.

    The deadline is read before each bottleneck and each closest-pair
    scan.
    """
    classes: dict[int, list[tuple[int, ...]]] = {}
    for z in zs:
        classes.setdefault(sum(z), []).append(z)
    for ell, cls in classes.items():
        if ell <= equal:
            continue
        _check_deadline(deadline)
        equal = max(equal, _bottleneck([(z, ell) for z in cls]))
    monotone = max(monotone, equal)
    lengths = sorted(classes)
    for shorter, longer in zip(lengths, lengths[1:]):
        if longer <= monotone:
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


def _length_rows(gens: tuple[int, ...], w: int, deadline: float | None):
    """Yield (R_l, gaps) for l = 1, 2, ... while R_l is not empty.  Bit a
    of the int R_l is set when l is in L(a), for every a <= w, and gaps
    maps each g >= 1 that occurs to the mask of the elements whose next
    length below l is l - g.

    Rows.  R_0 = 1 and R_l = OR_i (R_{l-1} << m_i) cut to the w + 1 bits
    of the window: the length-set recurrence L(0) = {0},
    L(a) = union over m_i <= a of (L(a - m_i) + 1) (Barron, O'Neill and
    Pelayo, Math. Comp. 2017), one length at a time.  Every length of a is
    at most a / m_1, so R_l is empty once l m_1 > w.

    Gaps.  latest[j] holds the elements whose longest length below l is j.
    The elements of R_l with a shorter length are those of R_l & seen,
    seen the union of the earlier rows; for g = 1, 2, ... those of them in
    latest[l - g] have l - g as their next length below l.  So each gap of
    each L(a), a <= w, is found once, at the row of its longer length.  An
    element a < (l + 1) m_1 has no length beyond l, so the oldest
    latest[j] is dropped once it has no bit at or above (l + 1) m_1: an
    element of a later row reaches no dropped mask.  The masks kept are
    those of the few lengths that the elements near the last row's bottom
    reach last, so the pass holds a handful of w-bit ints, not all w / m_1
    rows.

    A generator above w adds nothing to the window and is dropped before
    any shift; when m_1 > w the window holds only 0 and there is no row.

    The deadline is checked once per row.
    """
    gens = [m for m in gens if m <= w]
    if not gens:
        return
    m1 = live = gens[0]  # live is (l + 1) m_1 once row l is read
    row = seen = 1
    latest = [row]  # the masks latest[j] kept, oldest first
    while True:
        _check_deadline(deadline)
        below, row = row, 0
        for m in gens:
            row |= below << m
        # cut to the window with no mask of its w + 1 bits: a row grows by
        # at most m_t bits, so a huge window costs memory only as fast as
        # the deadline lets the rows grow
        row ^= row >> (w + 1) << (w + 1)
        if not row:
            return
        pending = row & seen
        seen |= row
        gaps = {}
        k = n = len(latest)  # the k-th mask kept is that of length l - (n - k)
        while pending:
            k -= 1
            here = pending & latest[k]
            if here:
                gaps[n - k] = here
                pending ^= here
                latest[k] ^= here
        latest.append(row)
        live += m1
        while latest and latest[0].bit_length() <= live:
            del latest[0]
        yield row, gaps


def _flagged(gens: tuple[int, ...], w: int, deadline: float | None) -> int:
    """The mask of the elements a <= w with a length class of Z(a) that is
    disconnected under shared atoms, or with two consecutive length
    classes of which no atom is used in both: the only elements that can
    raise a sweep's running monotone or equal catenary degree.  Decided on
    the length rows (_length_rows), with no factorization enumerated.

    New pairs.  Take consecutive lengths s = l - g < l of L(a).  The
    factorizations of a using atom i are those of a - m_i plus e_i, so
    some atom is used at both lengths exactly when some L(a - m_i) holds
    s - 1 and l - 1; these are then consecutive in L(a - m_i), as a length
    between them would give, after + e_i, one of a between s and l.  So
    the pair is new at a unless a - m_i is in the previous row's gap mask
    for g, for some i.

    Disconnected classes.  The class of length l of a is the set of
    factorizations of (a, l) in the graded monoid <(m_i, 1)>, and by
    Rosales' theorem, as for M in presentations._betti_impl, it has as
    many components under shared atoms as its atom graph: the vertices
    are the atoms i with l - 1 in L(a - m_i), bit a of R_{l-1} << m_i,
    and i ~ j when l - 2 is in L(a - m_i - m_j), bit a of
    R_{l-2} << (m_i + m_j).  Proof: send each vertex i to the component of
    the class's factorizations using atom i; there is one, a factorization
    of (a - m_i, l - 1) plus e_i, and they pairwise share i.  Every
    component is reached, as l >= 1 and each member uses some atom.  An
    edge i ~ j extends to a member using both, so adjacent atoms go to
    one component.  Conversely the support of a member is a clique of the
    atom graph, and two members sharing an atom have connected supports,
    so the atoms used in one component are connected in the atom graph.
    _reach closes the edges of every a at once, and the class is
    disconnected where two vertices are not joined.

    Nothing else can raise the max, over a sweep of every element from 0
    up in increasing order with monotone and equal its running maxes
    (after Chapman, Garcia-Sanchez, Llena, Ponomarenko and Rosales,
    Manuscripta Math. 2006, whose argument puts the catenary degree at the
    Betti elements).  Both proofs rest on one identity: the factorizations
    of a using atom i are those of a - m_i plus e_i, and
    d(u + e_i, v + e_i) = d(u, v).

    Connected classes.  Two factorizations u, v of the class of (a, l)
    sharing an atom i are u' + e_i and v' + e_i for u', v' in the class of
    (a - m_i, l - 1), joined there with steps at most the equal degree of
    a - m_i < a; adding e_i to each step joins u and v in the class of
    (a, l).  Chaining along a path of the atom-sharing graph joins any two
    members with steps at most the running equal max.

    Inherited pairs.  When some atom i is used at both lengths s < l, a
    closest pair (u', v') of the classes l - 1 and s - 1 of a - m_i, which
    are consecutive, gives the pair (u' + e_i, v' + e_i) of the classes l
    and s of a at the same distance, at most the monotone degree of
    a - m_i, which the running max holds by induction.

    So an element that is not flagged has both degrees at most the
    largest of the smaller elements', and by induction on a, a sweep that
    visits only the flagged elements, in increasing order, ends with the
    same running maxes as one that visits every element.

    The deadline is checked once per row.
    """
    gens = [m for m in gens if m <= w]  # the others add nothing (_length_rows)
    t = len(gens)
    pairs = list(combinations(range(t), 2))
    flagged = 0
    two, one, before = 0, 1, {}  # R_{l-2}, R_{l-1} and the gaps of R_{l-1}
    for row, gaps in _length_rows(gens, w, deadline):
        for g, here in gaps.items():
            pair, inherited = before.get(g, 0), 0
            for m in gens:
                inherited |= pair << m
            flagged |= here & ~inherited
        vertex = [one << m & row for m in gens]
        reach = _reach(t, lambda i, j: two << (gens[i] + gens[j]))
        for i, j in pairs:
            flagged |= vertex[i] & vertex[j] & ~reach[i][j]
        two, one, before = one, row, gaps
    return flagged


def _factorized(gens: tuple[int, ...], mask: int, deadline: float | None):
    """Yield (a, Z(a)) for each set bit a of mask, in increasing order,
    each Z(a) from _enumerate; the deadline is checked before each."""
    while mask:
        a = (mask & -mask).bit_length() - 1
        mask ^= 1 << a
        _check_deadline(deadline)
        yield a, _enumerate(gens, a, deadline=deadline)


def monoid_catenary_report(
    M: NumericalMonoid,
    *,
    window: int | None = None,
    deadline: float | None = None,
    equal: bool = True,
) -> CatenaryReport:
    """Monoid-level catenary report.

    Ordinary is always exact.  With no window and M above its family's
    threshold the report is the family path's and flagged exact: equal is
    the proven c(T) of _family_equal_catenary, and monotone is the ordinary
    degree, a measured claim that is not proven here (monotone >= ordinary
    always holds).  The equal degree's sweep grows as about (r_k/d)^3 bits
    and is refused past 8 DEFAULT_CAP (BudgetExceeded), before the
    ordinary degree is computed; with equal=False it is skipped and the
    report's equal is None.  Otherwise monotone and equal are sups over elements up
    to window (default default_window) and flagged as lower bounds.  The
    sweep enumerates Z(a) only at the elements _flagged finds able to raise
    either degree, in increasing order, and scans each against the running
    maxes (_monotone_equal); the deadline is checked once per row of the
    length pass and once per element enumerated.
    """
    family = _regime_family(M) if window is None else None
    if family is not None:
        value = _family_equal_catenary(family, deadline) if equal else None
        ordinary = catenary_of_monoid(M, deadline=deadline)
        return CatenaryReport(ordinary, ordinary, value, True, None)
    w = _window(M, window)
    ordinary = catenary_of_monoid(M, deadline=deadline)
    monotone, value = _catenary_sweep(M.generators, w, deadline)
    return CatenaryReport(ordinary, monotone, value, False, w)


def _catenary_sweep(
    gens: tuple[int, ...], w: int, deadline: float | None
) -> tuple[int, int]:
    """(monotone, equal): the largest element degrees over the elements
    a <= w of the monoid gens generate.  gens need not be minimal: nothing
    here uses minimality."""
    monotone = equal = 0
    for _, zs in _factorized(gens, _flagged(gens, w, deadline), deadline):
        monotone, equal = _monotone_equal(zs, monotone, equal, deadline)
    return monotone, equal


def _family_equal_catenary(family, deadline: float | None) -> int:
    """The equal catenary degree of every member M_n, n >= 1, of the
    family with offsets r_1 < ... < r_k and d = gcd of the offsets: the
    windowed sweep of M_N at window L (N + r_k), with L = r_k/d - k + 2
    and N = L r_k + 1, whatever the member asked about.

    Proof.  Let T = <(1, 0), (1, r_1), ..., (1, r_k)> in N^2.
    1. A factorization z of a in M_n with |z| = l has
       sum_{i>=1} z_i r_i = a - n l, so the length-l class of a in M_n is
       the factorization set of (l, a - n l) in T, with the same vectors
       and distances, for every n >= 1.  So the equal catenary degree of
       every M_n is c(T), the catenary degree of T.
    2. c(T) is attained at a Betti element of T (Chapman, Garcia-Sanchez,
       Llena, Ponomarenko and Rosales, Manuscripta Math. 2006).
    3. k[T] is the coordinate ring of a projective monomial curve of degree
       r_k/d in P^k (dividing the offsets by d changes no class), whose
       ideal is generated in degrees at most r_k/d - k + 2 (Gruson,
       Lazarsfeld and Peskine, Invent. Math. 72, 1983).  So every Betti
       element (l, s) of T has l <= L, and s <= l r_k; in M_n it is the
       class of length l of a = n l + s <= L (n + r_k).
    So the sweep of any M_n up to L (n + r_k) meets every Betti element of
    T, meets only length classes of T, and its equal degree is c(T).

    Why N.  An element a <= L (N + r_k) < (L + 1) N has its lengths in
    [a / (N + r_k), a / N], an interval shorter than L r_k / N < 1: each
    element of the window is one length class of T, and the sweep
    enumerates only the classes it flags.  At n = 1 the window's elements
    hold up to L (1 + r_k) lengths each, and offsets such as (6,16,33,34)
    took seconds where N takes milliseconds.  The window, and so the cost,
    does not depend on the shift asked about.

    Cost.  The window L (N + r_k) is about (r_k/d)^3 bits, and the sweep
    holds a few ints of that size for each of its L length rows.  So
    BudgetExceeded is raised, before any of them is built, when the window
    exceeds 8 DEFAULT_CAP, the tame sweep's bound: offsets (1, 300) have a
    window of 2.7 * 10^7 and take about 5 s, and (1, 1000) would need
    10^9 bits a row.
    """
    rk = family.r[-1]
    bound = rk // family.d - family.k + 2
    n = bound * rk + 1
    window = bound * (n + rk)
    if window > 8 * DEFAULT_CAP:
        raise BudgetExceeded(
            f"the equal catenary sweep of the offsets {family.r} spans "
            f"{window + 1} bits, over 8 * {DEFAULT_CAP}"
        )
    return _catenary_sweep(family.generators_at(n), window, deadline)[1]


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
    is exactly {d}, d the gcd of the offsets r_i = m_{i+1} - m_1, once the
    Betti elements' delta sets are checked to give {d}; a mismatch raises
    VerificationFailed.  Proof.  Write n = m_1.  Every generator is
    n + r_i with d | r_i, so two factorizations z, z' of a give
    |z| n = a = |z'| n (mod d), that is (|z| - |z'|) n = 0 (mod d).  A
    common divisor of n and d divides every generator, and M is primitive
    (the Betti elements come from its Apery table), so gcd(n, d) = 1, d
    divides every difference of two lengths of an element, and every
    value of the delta set is a multiple of d.  Its maximum is attained at
    a Betti element (Chapman, Garcia-Sanchez, Llena, Malyshev and
    Steinberg, Arab. J. Math. 2012), so a Betti union of {d} makes that
    maximum d, and the delta set is {d}.

    Otherwise: the union of the element delta sets up to window, flagged
    window-limited, read off the length rows (_length_rows) with no
    factorization enumerated: each gap g of each L(a), a <= window, occurs
    at the row of its longer length.
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
    values = set()
    for _, gaps in _length_rows(M.generators, w, deadline):
        values.update(gaps)
    return DeltaSet(frozenset(values), False, w)


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


def _incomplete(gens: tuple[int, ...], last: int, deadline: float | None) -> int:
    """The mask of the elements a <= last whose atom graph is not
    complete: some atoms i != j with a - m_i and a - m_j in M and
    a - m_i - m_j not in M.

    mem, bit b set when b is in M, is built by shift-or doubling: for each
    generator m <= last, mem |= mem << k for k = m, 2m, 4m, ... up to
    last; after k = 2^e m it has added 0 to 2^(e+1) - 1 copies of m, so
    every multiple of m that fits.  Only the bits that land at or below
    last are shifted.  Atom i is then a vertex of a where bit a of
    mem << m_i is set, and i ~ j where bit a of mem << (m_i + m_j) is.
    Each pair's term is built shifted down by m_i: bit a - m_i is set
    when a - m_i and a - m_j are in M and a - m_i - m_j is not.  A
    generator above last is no vertex of any a <= last and is dropped.

    Memory: every step is one operation on mem, the gate and at most two
    temporaries, so at most five masks of about last + 1 bits are held
    at once.  The deadline is checked once per shift and once per pair.
    """
    gens = [m for m in gens if m <= last]
    mem = 1
    for k in (m << e for m in gens for e in range((last // m).bit_length())):
        _check_deadline(deadline)
        mem |= (mem & ((1 << (last + 1 - k)) - 1)) << k
    gate = 0
    for mi, mj in combinations(gens, 2):
        _check_deadline(deadline)
        term = mem << (mj - mi) & mem
        term ^= term & mem << mj
        gate |= term << mi
    return gate & ((1 << (last + 1)) - 1)


def tame_degree_windowed(
    M: NumericalMonoid,
    *,
    window: int | None = None,
    deadline: float | None = None,
) -> TameReport:
    """Sup of the element tame degrees over the elements up to window
    (default default_window), and the first element attaining it.

    Only the elements up to last = min(window, F + 2 m_t), F the Frobenius
    number, are searched: for every element a, some element at most both a
    and F + 2 m_t has a tame degree at least that of a.  So the sup, and
    the first element attaining it, are those of the whole window, and
    once window >= F + 2 m_t (always true at default_window, by Schur's
    bound F <= (m_1 - 1)(m_t - 1) - 1) the value is the exact tame degree
    of M.

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

    Gate.  When T > 0, z uses no atom i (else it would be its own user at
    distance 0), so z0_i = 0.  With b = pi(z0) and j in the support of
    z0, the atoms i and j are both vertices of b's atom graph (b - m_i in
    M by the choice of z0, b - m_j in M as z0 uses j), they differ
    (z0_i = 0), and they are not adjacent (b - m_i - m_j not in M by
    minimality).  Take a the first element attaining a positive max:
    b <= a attains it too, so b = a, and a's atom graph is not complete.
    So only the elements _incomplete flags are enumerated, in increasing
    order, from the value 0 at the element 0, which is never flagged; the
    max and the first element attaining it are unchanged.

    Memory: BudgetExceeded is raised, before any mask is built, when last
    exceeds 8 DEFAULT_CAP, a mask of 10 MB; the gate holds at most five
    such masks at once (_incomplete).  The deadline is checked before the masks are built and
    before each element is enumerated.
    """
    w = _window(M, window)
    last = min(w, frobenius(M) + 2 * M.generators[-1])
    if last > 8 * DEFAULT_CAP:
        raise BudgetExceeded(
            f"the tame sweep's masks of {last + 1} bits exceed "
            f"8 * {DEFAULT_CAP}; narrow the window to continue"
        )
    _check_deadline(deadline)
    value, attained = 0, 0
    gate = _incomplete(M.generators, last, deadline)
    for a, zs in _factorized(M.generators, gate, deadline):
        ta = _tame(zs, M.t, value, deadline)
        if ta > value:
            value, attained = ta, a
    return TameReport(value, attained, w)
