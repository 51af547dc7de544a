"""Shifted families M_n = <n, n+r_1, ..., n+r_k> and presentation lifting.

Fix offsets r_1 < ... < r_k and let d = gcd(r_1, ..., r_k).  Once the shift
parameter n clears the threshold r_k^2, minimal presentations of M_n and of
M_{n+r_k} correspond through an explicit map on relations: a relation whose
sides differ in length by L gains L on coordinate 0 of the longer side and L
on coordinate k of the shorter side; equal-length relations are untouched.
The correspondence composes across steps, so a minimal presentation computed
directly at a small base shift determines one at any larger shift in the same
residue class mod r_k in closed form.  That removes the part of the direct
algorithm that grows with n: the Apery table has n entries and the
Betti-element candidate scan decides about k*n candidates from it, so the
two take about 5 ms at n = 10^4, 60 ms at 10^5 and 0.8 s at 10^6 for
r = (6,9,20).  Past the threshold the table itself has a closed form,
Ap(M_n, n)[rho] = n c(rho) + rho with c read off the least lengths of the
offset monoid S = <r_1, ..., r_k> (presentations._closed_apery), so every
scan the router runs, at the base shift or in the base band it scans in
place, builds its packed table from a prefix of those lengths, memoized
per offset tuple, and holds no table of n ints.  The re-verification at
the target enumerates the
factorizations of each lifted Betti element with a length gap by length
slices, whose cost hardly depends on n, so a verified lift at n = 10^6 or
10^9 takes a few milliseconds.  That holds when d > 1 too: only the slices
where d divides a - n l can hold a factorization, and the others are
skipped.

_betti_graphs, the factorization graphs of the Betti elements, is the one
place that chooses between the lift and the direct scan, and every path that
may lift reads it.  It memoizes each lifted M once its verification has
passed, as the direct scan memoizes each scanned M, so a survey that meets
the same M_n again verifies it once; the two memos of results are
core._SizedMemos of at most presentations._MEMO_ENTRIES entries each, and
drop the oldest first.  The router's closed-form scans fill the direct
scan's memo too, since they give the same graphs.  minimal_presentation
and betti_elements always scan by the round-robin table, and never read
the router's memos, so that the two paths can be checked against each
other.

The lift is verified at the target M, not trusted.  Each base relation is
moved to M and, unless its graph is carried over (below), filed under the
value beta of its left side; for each beta the factorization set Z(beta)
is enumerated at M, both sides of every moved pair must be members of it,
and the pairs must join the components of its factorization graph in a
spanning tree.  Membership in the enumerated
Z(beta) is what proves that a moved pair is a relation of M, so the right
side is never evaluated, and no lifted Presentation is built on the way
(lift_presentation builds one for callers who want it).

Z(beta) is read off the graded monoid of the offsets,
T = <(1, 0), (1, r_1), ..., (1, r_k)>: the factorizations of beta of
length l are those of (l, beta - n l) in T, the same vectors at every
shift.  So the router builds each graph by the one enumeration entry,
presentations._graph_of over factorizations._enumerate, passing its memo
of T's length classes (_class_memo), bounded by the vectors it holds; the
length-sliced search then enumerates each class once, and a survey over
many shifts of one family, which meets the same classes again and again,
enumerates few of them.

The equal-length relations are the ones the lift leaves unchanged, and past
the threshold their Betti elements n l + s (l r_k < n) have the single
length l, so Z is T's length class (l, s) at every shift, the base shift
n0 included.  The router therefore carries each such graph over from the
base scan it has just run, enumerating and checking nothing, and builds
and checks at the target only the elements with a length gap (the proof
is in _betti_graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import attrgetter, mul

from .core import (
    NumericalMonoid,
    _check_deadline,
    _natural,
    _require_primitive,
    _SizedMemo,
    default_window,
    normalize_generators,
)
from .errors import (
    InvalidInput,
    NotARelation,
    NotInImage,
    ShiftBelowThreshold,
    VerificationFailed,
)
from .oracle import congruence_closure_check
from .presentations import (
    FactorizationGraph,
    Presentation,
    Relation,
    _canonical_presentation,
    _graph_of,
    _MEMO_ENTRIES,
    _scan,
    make_presentation,
    make_relation,
)


@dataclass(frozen=True)
class ShiftedFamily:
    """The offset tuple r_1 < ... < r_k defining the family n -> M_n.

    The offsets generate the offset monoid S = <r_1, ..., r_k>, so they are
    checked as its generators, by the NumericalMonoid constructor: a tuple
    it refuses raises InvalidGenerators, a subclass of InvalidInput.
    """

    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", NumericalMonoid(self.r).generators)

    @property
    def k(self) -> int:
        return len(self.r)

    @property
    def d(self) -> int:
        return gcd(*self.r)

    @property
    def step(self) -> int:
        """The largest offset r_k; consecutive family members differ by it."""
        return self.r[-1]

    @property
    def threshold(self) -> int:
        """r_k squared; the lifting correspondence needs n > threshold."""
        return self.r[-1] ** 2

    def generators_at(self, n: int) -> tuple[int, ...]:
        """The generators of M_n; InvalidInput unless n is a non-negative
        integer (n = 0 is left to the NumericalMonoid constructor)."""
        n = _natural(n, "shift parameter")
        return (n, *(n + ri for ri in self.r))


@dataclass(frozen=True)
class FamilyMember:
    """M_n together with the flags the standing assumptions depend on."""

    monoid: NumericalMonoid
    minimal: bool
    primitive: bool


def monoid_at(F: ShiftedFamily, n: int) -> FamilyMember:
    """Construct M_n and flag primitivity and minimal generation.

    M_n is primitive iff gcd(n, d) = 1.  For n > r_k the tuple is always
    minimal (any sum of two generators exceeds n + r_k); for n <= r_k it is
    checked by normalize_generators, which raises BudgetExceeded when the
    Apery table it reads exceeds DEFAULT_CAP.  Non-minimal or non-primitive
    members are returned flagged, and the operations that need the standing
    assumptions raise.
    """
    gens = F.generators_at(n)
    if n < 1:
        raise InvalidInput("shift parameter must be positive")
    monoid = NumericalMonoid(gens)
    primitive = gcd(n, F.d) == 1
    minimal = True if n > F.step else normalize_generators(gens).generators == gens
    return FamilyMember(monoid, minimal, primitive)


def _shift(k: int, left, right, steps: int):
    """Move the relation left ~ right of some M_n, a family with k
    offsets, to M_{n + steps * r_k}.

    With L the length gap, steps * L is added to coordinate 0 of the longer
    side and to coordinate k of the shorter side, so an equal-length
    relation stays put and is returned as it is.  A negative steps pulls
    back, and raises NotInImage when a coordinate would go negative.
    Returns the new (left, right).
    """
    gap = sum(left) - sum(right)
    if not gap:
        return left, right
    longer, shorter = (left, right) if gap > 0 else (right, left)
    amount = steps * abs(gap)
    longer = (longer[0] + amount, *longer[1:])
    shorter = (*shorter[:k], shorter[k] + amount)
    if longer[0] < 0 or shorter[k] < 0:
        raise NotInImage(
            f"{left} ~ {right} lacks the coordinate margin to pull back"
        )
    return (longer, shorter) if gap > 0 else (shorter, longer)


def _shift_relation(F: ShiftedFamily, n: int, rel, steps: int):
    # moves rel from M_n to M_{n + r_k} when steps is 1, back when it is -1;
    # a Relation maps to a Relation, a bare (left, right) pair to a pair; the
    # diagonal (z, z) only makes sense as a pair and maps to itself
    wrapped = isinstance(rel, Relation)
    left, right = rel.pair() if wrapped else map(tuple, rel)
    low = NumericalMonoid(F.generators_at(n))
    high = NumericalMonoid(F.generators_at(low.multiplicity + F.step))
    source, target = (low, high) if steps > 0 else (high, low)
    if source.evaluate(left) != source.evaluate(right):
        raise NotARelation(
            f"{left} ~ {right} is not a relation of M_{source.multiplicity} "
            "in this family"
        )
    new_left, new_right = _shift(F.k, left, right, steps)
    if new_left == new_right:
        return (new_left, new_right)
    out = make_relation(target, new_left, new_right)
    return out if wrapped else out.pair()


def lift_relation(F: ShiftedFamily, n: int, rel):
    """Image of a relation of M_n inside M_{n + r_k}.

    With L the length gap of the two sides, the longer side gains L on
    coordinate 0 and the shorter side gains L on coordinate k; equal-length
    relations map to themselves.  The output is verified to be a relation of
    M_{n + r_k} and keeps the same length gap.  Accepts a Relation or a bare
    pair (the diagonal (z, z) only makes sense as a pair) and returns the
    same kind.
    """
    return _shift_relation(F, n, rel, 1)


def lower_relation(F: ShiftedFamily, n: int, rel):
    """Preimage under lift_relation: a relation of M_{n+r_k} pulled to M_n.

    Requires, when the length gap L is positive, coordinate 0 of the longer
    side and coordinate k of the shorter side to be at least L; otherwise the
    relation is not in the image of the lift.
    """
    return _shift_relation(F, n, rel, -1)


def _require_member_presentation(
    F: ShiftedFamily, n: int, pres: Presentation, what: str
) -> None:
    # lifting and projection both need n above the threshold and a
    # presentation over M_n itself
    gens_n = F.generators_at(n)
    if n <= F.threshold:
        raise ShiftBelowThreshold(
            f"{what} requires n > {F.threshold}, got n = {n}"
        )
    if pres.monoid.generators != gens_n:
        raise InvalidInput(
            f"presentation is over {pres.monoid.generators}, expected {gens_n}"
        )


def lift_presentation(
    F: ShiftedFamily, n: int, pres: Presentation, steps: int
) -> Presentation:
    """steps-fold lift of a presentation of M_n, in closed form.

    The length gap of a relation is invariant along the orbit, so steps
    applications collapse to a single vector adjustment of steps * gap per
    relation (_shift).  Each moved relation goes through make_relation at
    the target shift, which evaluates both sides, raises NotARelation on a
    mismatch and recomputes the Betti tag.

    No library path calls this: _betti_graphs moves the base relations with
    _shift and verifies them by membership instead.  It stays as the
    paper's map in presentation form: callers who want the lifted
    presentation itself use it, the tests check the router against it, and
    the benchmark's per-layer trace wraps it.
    """
    _require_member_presentation(F, n, pres, "lifting")
    steps = _natural(steps, "steps")
    target = NumericalMonoid(F.generators_at(n + steps * F.step))
    return make_presentation(
        target,
        [
            make_relation(target, *_shift(F.k, rel.left, rel.right, steps))
            for rel in pres.relations
        ],
    )


# The router's verified graphs of each lifted M, kept beside the direct
# scan's memo and bounded the same way: at most _MEMO_ENTRIES entries, the
# oldest dropped first.  An entry is stored only once every Betti
# element's check has passed.  clear_caches() empties it.
_lifted_memo = _SizedMemo(_MEMO_ENTRIES, lambda graphs: 1)

# The length classes of T that the router's enumerations have searched,
# keyed by (offsets, v, b) as factorizations._enumerate_sliced reads them,
# and shared by every member of every family.  It holds at most 10^5
# vectors in all (about 10 MB at four generators) and drops the oldest
# classes first.  A class is stored only once its search has completed.
# The direct scan never reads it.  clear_caches() empties it.
_class_memo = _SizedMemo(10**5)

def _betti_graphs(
    M: NumericalMonoid, deadline: float | None
) -> tuple[FactorizationGraph, ...]:
    """The factorization graphs of the Betti elements of M, in increasing
    order.  When M = M_n with n > r_k^2 + r_k, the direct scan runs at the
    base shift n0, the smallest integer above r_k^2 congruent to n mod r_k,
    and each of its relations is moved (n - n0)/r_k steps by _shift.  The
    scan's graphs are walked together with its relations: the presentation
    is sorted by (betti, left, right) and holds c - 1 relations for a graph
    of c components, so each graph's relations are the next c - 1.  A base
    graph of a single-length element whose moved pairs equal its own is
    carried to M (below); every other moved pair is grouped by the value
    beta of its left side at M, the graph of each such beta is built at M
    (presentations._graph_of, as factorization_graph builds it, with
    Z(beta) read from the memoized length classes of the offsets' graded
    monoid T, _class_memo), and the pairs must join its components in a
    spanning tree (the structural verification); the enumeration honours
    DEFAULT_CAP and the deadline as factorization_graph's does.  Otherwise
    the graphs come from the memoized direct scan.  Every scan run here on
    an M with m_1 > r_k^2, the base shift or a target in the base band
    (r_k^2, r_k^2 + r_k], reads its packed table in closed form
    (presentations._closed_apery): no table of m_1 ints is built, none is
    left in core's Apery memo, and an m_1 above DEFAULT_CAP is refused by
    the kernel's budget before anything is allocated.  The scan still
    fills presentations._minpres_memo, which minimal_presentation reads.

    n and r_k are read off M's generators, and a memoized lift is returned
    before anything else is built.  A non-primitive M is refused
    (NotPrimitive, naming gcd(M) and m_1) before any scan or lift.

    Only the left side of a pair is evaluated, to file it, and no
    Presentation is built: both sides lying in the enumerated Z(beta) is
    what proves that the pair is a relation of M, and the spanning check
    needs that membership anyway, so a right side of another value is
    refused there as not factoring beta.  lift_presentation gives the
    lifted presentation itself, for callers who want it.

    A beta = n l + s, with 0 <= s < n, whose l has l r_k < n has the single
    length l.  One factorization of length l' leaves sigma = beta - n l' =
    s + n (l - l') for its offsets, which must lie in [0, l' r_k], yet
    l' > l gives sigma <= s - n < 0, and l' < l gives sigma >= n > l r_k >
    l' r_k.  So Z(beta) is T's length class (l, s), the vectors
    (l - |w|, w) with w over the offsets, sum w_i r_i = s and |w| <= l.
    Take a base Betti element n0 l + s with l r_k < n0.  It has a
    factorization, so s <= l r_k < n0 <= n, and the argument holds at n0
    and at n alike: Z(n0 l + s) and Z(n l + s) are the same vectors, with
    the same components.  So n l + s is a Betti element of M, and its graph
    is the base graph's vertices and components, with nothing enumerated
    or checked.  Its relations have equal lengths, which _shift leaves
    unchanged, so their moved pairs equal them; pairs that differ are
    built and checked like the rest.  A pair with a length gap can never
    lie in such a Z, so no genuine built beta is a carried one; two graphs
    at one beta are refused as pairs that do not join distinct components.

    The graphs of a fully verified lift are memoized by M (_lifted_memo),
    and a memoized lift, like a memoized scan, is returned whatever the
    deadline.  A lift not yet verified reads the deadline in the base scan,
    unless that is memoized, and before each beta it builds, so a memoized
    base scan cannot carry it past the deadline either: every presentation
    of M_n has a relation with a length gap, since relations of equal
    lengths keep the length, yet n + r_k copies of n equal n copies of
    n + r_k.  minimal_presentation and
    betti_elements never read the router's memos (_lifted_memo and
    _class_memo): they scan at M, so the two paths still check each
    other."""
    verified = _lifted_memo.get(M)
    if verified is not None:
        return verified
    gens = M.generators
    n, rk = gens[0], gens[-1] - gens[0]
    if len(gens) < 2 or n <= rk * (rk + 1):
        return _scan(M, deadline, len(gens) > 1 and n > rk * rk)[0]
    # refused here, naming M: n0 has the same gcd(n, d), so the base scan
    # would refuse it too, but naming the base shift
    _require_primitive(M)
    n0 = rk * rk + 1 + (n - rk * rk - 1) % rk
    steps = (n - n0) // rk
    scanned, base = _scan(NumericalMonoid([m - n + n0 for m in gens]), deadline, True)
    k = len(gens) - 1
    lifted = [_shift(k, rel.left, rel.right, steps) for rel in base.relations]
    base_pairs = list(map(attrgetter("left", "right"), base.relations))
    # found: the graphs of M by element; moved: the pairs still to check
    found: dict[int, FactorizationGraph] = {}
    moved: dict[int, list] = {}
    j = 0
    for g in scanned:
        # g's relations are base.relations[i:j]
        i, j = j, j + len(g.components) - 1
        l, s = divmod(g.element, n0)
        if l * rk < n0 and lifted[i:j] == base_pairs[i:j]:
            found[n * l + s] = FactorizationGraph(n * l + s, g.vertices, g.components)
        else:
            for pair in lifted[i:j]:
                moved.setdefault(sum(map(mul, pair[0], gens)), []).append(pair)
    for beta, pairs in sorted(moved.items()):
        _check_deadline(deadline)
        # a carried graph's own pairs already span it, so any more close a cycle
        if beta in found:
            raise VerificationFailed(
                f"lifted relations at {beta} do not join distinct components"
            )
        graph = _graph_of(M, beta, deadline, _class_memo)
        comp_of = {z: ci for ci, comp in enumerate(graph.components) for z in comp}
        # label[ci]: the class of component ci under the pairs so far
        label = list(range(len(graph.components)))
        for left, right in pairs:
            if left not in comp_of or right not in comp_of:
                raise VerificationFailed(
                    f"lifted side of {left} ~ {right} does not factor {beta}"
                )
            keep, gone = label[comp_of[left]], label[comp_of[right]]
            # a connected graph fails here too, at its first pair
            if keep == gone:
                raise VerificationFailed(
                    f"lifted relations at {beta} do not join distinct components"
                )
            label = [keep if x == gone else x for x in label]
        if len(set(label)) != 1:
            raise VerificationFailed(f"relations lifted to {beta} do not span")
        found[beta] = graph
    return _lifted_memo.remember(M, tuple([found[b] for b in sorted(found)]))


def accelerated_minimal_presentation(
    F: ShiftedFamily,
    n: int,
    *,
    deadline: float | None = None,
) -> Presentation:
    """Minimal presentation of M_n via a small base shift plus lifting
    (_betti_graphs), in the direct computation's canonical choice."""
    target = monoid_at(F, n).monoid
    return _canonical_presentation(target, _betti_graphs(target, deadline))


def equal_length_projection(
    F: ShiftedFamily, n: int, pres: Presentation
) -> tuple[Relation, ...]:
    """Drop coordinate 0 from the equal-length relations of a presentation.

    For n > r_k^2 the projected pairs present the offset monoid
    S = <r_1, ..., r_k> (possibly redundantly; minimality is not promised
    and S need not be primitive or minimally generated as written).  The
    result is closure-verified over a window of S; a failure indicates a
    bug, not bad input, and raises VerificationFailed.
    """
    _require_member_presentation(F, n, pres, "projection")
    S = NumericalMonoid(F.r)
    equal = [r for r in pres.relations if sum(r.left) == sum(r.right)]
    out = make_presentation(
        S, [make_relation(S, r.left[1:], r.right[1:]) for r in equal]
    ).relations
    report = congruence_closure_check(S, out, default_window(S))
    if not report.ok:
        raise VerificationFailed(
            f"projected relations fail closure at {report.failures[0][0]}"
        )
    return out


def family_from_generators(gens: tuple[int, ...]):
    """View a generator tuple as the member at n = m_1 of its shifted family.

    Every tuple with at least two generators arises exactly one way as
    (n, n + r_1, ..., n + r_k); returns (family, n).  Single-generator
    tuples have no offsets and no family.
    """
    if len(gens) < 2:
        return None, gens[0]
    n = gens[0]
    return ShiftedFamily(tuple(g - n for g in gens[1:])), n
