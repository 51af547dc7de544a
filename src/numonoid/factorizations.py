"""Factorization sets Z(a), length profiles, and the factorization distance.

A factorization of a is an exponent vector z with pi(z) = sum z_i m_i = a.
One search (_search) produces Z(a), in one documented order: vectors
sorted by (z_t, z_{t-1}, ..., z_1) descending.  It takes a basis and a
list of slices (v, left), and emits every z whose coordinates from first
on have value v in the basis and at most left atoms.  It recurses over
the coordinates from the top down, each from its largest value to its
least, and bounds each below so that what is left still fits into the
atoms left; its two lowest coordinates form an arithmetic progression and
are emitted in closed form, cut at the atom count.  Two slicings drive it:

- Generic (_enumerate_generic): one slice over the generators, the value
  a with a budget of a // m_1 atoms, which no factorization exceeds.  The
  search emits the documented order directly.  Its work grows like the product of a/m_i
  over the recursed generators.
- Length-sliced (_enumerate_sliced): view M as <n, n + r_1, ..., n + r_k>
  with n = m_1 and r_i = m_{i+1} - m_1.  A factorization of length l is
  then a vector w over the offsets with sum w_i r_i = a - n*l and
  sum w_i <= l, the rest of the length going to the first coordinate, so
  there is one slice per length l in [ceil(a/m_t), floor(a/m_1)].  The
  output is sorted once at the end.  When m_t/m_1 is close to 1, as for
  shifted families at large n, there are few slices and the search is
  nearly output-sensitive.

_enumerate is the entry for Z(a): it picks the slicing from an O(t)
estimate of each one's work, computed from the generators and a alone,
and serves factorizations(), _factorizations_of, the Betti scan, the
router's verification of a lifted target and the few elements the
windowed catenary and tame sweeps enumerate; outside the independent
oracle (numonoid.oracle) nothing else calls the searches.  It takes an
optional memo of the length classes of T = <(1, 0), (1, r_1), ...,
(1, r_k)>, the graded monoid of the offsets, whose classes are the same at
every shift: the router passes its own (shifted._class_memo), and with a
memo the length-sliced search always runs, since the estimate does not
price a class that costs no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import DEFAULT_CAP, NumericalMonoid, _check_deadline, _natural, _SizedMemo
from .errors import BudgetExceeded, DimensionMismatch, NotAnElement

# deadline checks are amortized: one clock read per this many inner steps
_TICK = 4096


@dataclass(frozen=True)
class LengthProfile:
    """Sorted distinct factorization lengths of one element, with gaps."""

    element: int
    lengths: tuple[int, ...]
    deltas: tuple[int, ...]

    @property
    def min_length(self) -> int:
        return self.lengths[0]

    @property
    def max_length(self) -> int:
        return self.lengths[-1]


def factorizations(
    M: NumericalMonoid,
    a: int,
    *,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
) -> list[tuple[int, ...]]:
    """All z in N^t with pi(z) = a, in the documented descending order.

    Empty list iff a is not in the monoid generated by the tuple; works for
    non-primitive and non-minimal generator tuples too.  Raises
    BudgetExceeded past `cap` emitted vectors or past `deadline`
    (time.monotonic seconds).
    """
    a, cap = _natural(a, "target element"), _natural(cap, "cap")
    return _enumerate(M.generators, a, cap, deadline)


def _sliced_is_cheaper(gens: tuple[int, ...], a: int) -> bool:
    """Whether the length-sliced search is estimated to do less work on a
    than the generic one: the number of innermost calls each would make
    without pruning, prod_{i>=3} (a//m_i + 1) against
    (a//m_1 - a//m_t + 1) * prod_{i>=4} (min(a//m_1, a//r_{i-1}) + 1).
    Every enumeration asks this once (the Betti scan at each Betti element
    only), and it costs O(t), so it is a plain loop."""
    t = len(gens)
    if t <= 2:  # the generic search is already closed form
        return False
    m0 = gens[0]
    top = a // m0
    generic = a // gens[2] + 1
    sliced = top - a // gens[-1] + 1
    if t == 3:
        # both slicings then reach the closed-form tail straight from the
        # outer loop, and a sliced tail costs about three generic ones: the
        # generic tail mostly exits on its first test (v % g), while every
        # sliced slice pays for its length bound and its atom bound first
        return 3 * sliced < generic
    for m in gens[3:]:
        generic *= a // m + 1
        sliced *= min(top, a // (m - m0)) + 1
    return sliced < generic


def _enumerate(
    gens: tuple[int, ...],
    a: int,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
    memo: _SizedMemo | None = None,
) -> list[tuple[int, ...]]:
    """Z(a) in the documented order, by whichever slicing is estimated
    cheaper; both are exact and honour cap and deadline alike.  Given a
    memo of T's length classes and t >= 3, the length-sliced search runs
    and reads it: a memoized class costs no search, which the estimate does
    not price."""
    if memo is not None and len(gens) >= 3 or _sliced_is_cheaper(gens, a):
        return _enumerate_sliced(gens, a, cap, deadline, memo)
    return _enumerate_generic(gens, a, cap, deadline)


def _enumerate_generic(
    gens: tuple[int, ...],
    a: int,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
) -> list[tuple[int, ...]]:
    """Z(a) by one slice over the generators, already in the documented
    order: every generator is at least m_1, so no factorization has more
    than a // m_1 atoms."""
    if len(gens) == 1:
        return [(a // gens[0],)] if a % gens[0] == 0 else []
    return _search(gens, 0, [(a, a // gens[0])], cap, deadline)


def _enumerate_sliced(
    gens: tuple[int, ...],
    a: int,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
    memo: _SizedMemo | None = None,
) -> list[tuple[int, ...]]:
    """Z(a) by one slice per length l over the basis (0, r_1, ..., r_k),
    r_i = m_{i+1} - m_1, then sorted; needs t >= 3.  A factorization of
    length l has sum w_i r_i = a - m_1 l, a multiple of d = gcd of the
    offsets, so a slice where d does not divide it is empty: the lengths
    run over [ceil(a/m_t), floor(a/m_1)] in the one residue class where it
    does, stepping by d / gcd(m_1, d).

    The slice of length l is a length class of
    T = <(1, 0), (1, r_1), ..., (1, r_k)>: a factorization of length l is
    (l - |w|, w) for an offset vector w with sum w_i r_i = v = a - m_1 l
    and |w| <= l, the factorization set of (l, v) in T, the same at every
    shift.  Since sum w_i r_i >= |w| r_1, every such w already has
    |w| <= v // r_1, so |w| <= l is the same condition as
    |w| <= b = min(l, v // r_1), and l enters only through b.  So a memo
    holds the class under (offsets, v, b), as the vectors of length b, and
    the class of length l adds l - b to coordinate 0 of each; a miss is
    searched at (v, b) and stored once that search has completed.  Without
    a memo each slice is searched at (v, l) directly, so no vector is built
    twice.

    Without a memo every slice goes through one _search, which reads the
    deadline once per _TICK tails across them.  With one, each missed class
    is its own search, so the deadline is also read before each, and a
    memoized class counts toward the cap as a searched one does.
    """
    m0 = gens[0]
    offsets = tuple([m - m0 for m in gens])
    d = gcd(*offsets)
    # m0 l = a mod d has a solution only when g = gcd(m0, d) divides a, and
    # its solutions are then the l = (a / g) (m0 / g)^-1 mod d / g
    g = gcd(m0, d)
    first = -(-a // gens[-1])
    first += (a // g * pow(m0 // g, -1, d // g) - first) % (d // g)
    lengths = range(first, a // m0 + 1 if a % g == 0 else first, d // g)
    if memo is None:
        slices = ((a - m0 * length, length) for length in lengths)
        return _in_order(_search(offsets, 1, slices, cap, deadline))
    zs: list[tuple[int, ...]] = []
    pieces = 0
    for length in lengths:
        v = a - m0 * length
        b = min(length, v // offsets[1])
        part = memo.get((offsets, v, b))
        if part is None:
            _check_deadline(deadline)
            part = memo.remember(
                (offsets, v, b), _search(offsets, 1, [(v, b)], cap, deadline)
            )
        if part:
            pieces += 1
            zs += part if length == b else [(z[0] + length - b, *z[1:]) for z in part]
            if len(zs) > cap:
                raise BudgetExceeded(
                    f"more than {cap} factorizations; raise the cap to continue"
                )
    # a single class is in order already: the search emits a slice in it,
    # and adding to coordinate 0 keeps it
    return _in_order(zs) if pieces > 1 else zs


def _in_order(zs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """zs sorted in place into the documented order, and returned."""
    zs.sort(key=lambda z: z[::-1], reverse=True)
    return zs


def _search(
    basis: tuple[int, ...],
    first: int,
    slices,
    cap: int,
    deadline: float | None,
) -> list[tuple[int, ...]]:
    """For each (v, left) in slices, every z with
    sum_{i >= first} z_i basis_i = v and at most left atoms at those
    coordinates, slice after slice, each slice in the documented order.
    first is 0 or 1, and basis is strictly increasing from index first on;
    with first = 1, coordinate 0 takes the atoms left over, so |z| = left.

    The coordinates above first + 1 are recursed from the top down, each
    from v // basis_i down to its least value: what is left after c copies
    of basis_i must fit into left - c atoms of at most basis_{i-1} each.
    The two lowest, x b + y b' = v, are a progression in closed form: y
    runs over one class mod b / gcd(b, b') from v // b' down, and as x + y
    grows when y falls, x + y <= left bounds y below.  These lower bounds
    skip only branches that hold no solution, and they make an upper
    bound of left redundant: a coordinate above it leaves a negative
    budget, under which the next lower bound exceeds the next upper one.
    Both slicings start every slice with v // basis_{t-1} <= left, and
    each lower bound passes that on down, so no such branch is entered.
    One cap counts the vectors of every slice, and the deadline is read
    once per _TICK tails across them.
    """
    t = len(basis)
    high = first + 1
    b0, b1 = basis[first], basis[high]
    g = gcd(b0, b1)
    q0 = b0 // g  # solutions to x*b0 + y*b1 = v have y in one class mod q0
    q1 = b1 // g
    inv = pow(q1, -1, q0) if q0 > 1 else 0

    out: list[tuple[int, ...]] = []
    counts = [0] * t
    ticks = 0

    # a comparison, not a max call, and no division on a slack budget
    # (room >= 0): both cost more than the rest of a tail or a level
    def tail(i: int, v: int, left: int) -> None:
        # i is high; it lets rec call tail and itself alike
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % _TICK == 0:
            _check_deadline(deadline)
        if v % g:
            return
        y0 = ((v // g) * inv) % q0 if q0 > 1 else 0
        ymax = v // b1
        if ymax < y0:
            return
        room = left * b0 - v
        ymin = 0 if room >= 0 else -(room // (b1 - b0))
        y = ymax - (ymax - y0) % q0
        x = (v - y * b1) // b0
        while y >= ymin:
            counts[first] = x
            counts[high] = y
            if first:
                counts[0] = left - x - y
            out.append(tuple(counts))
            if len(out) > cap:
                raise BudgetExceeded(
                    f"more than {cap} factorizations; raise the cap to continue"
                )
            y -= q0
            x += q1

    def rec(i: int, v: int, left: int) -> None:
        deeper = tail if i == high + 1 else rec
        bi, below = basis[i], basis[i - 1]
        room = left * below - v
        lo = 0 if room >= 0 else -(room // (bi - below))
        for c in range(v // bi, lo - 1, -1):
            counts[i] = c
            deeper(i - 1, v - c * bi, left - c)

    search = rec if t > high + 1 else tail
    try:
        for v, left in slices:
            search(t - 1, v, left)
    finally:
        del rec  # rec's closure refers to rec; without this, out lives until gc
    return out


def length_profile(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> LengthProfile:
    """L(a) and its successive gaps; error when a is not an element."""
    return _profile(a, _factorizations_of(M, a, deadline))


def _factorizations_of(
    M: NumericalMonoid, a: int, deadline: float | None
) -> list[tuple[int, ...]]:
    """Z(a); NotAnElement when a is not in M."""
    zs = factorizations(M, a, deadline=deadline)
    if not zs:
        raise NotAnElement(f"{a} is not an element of {M.generators}")
    return zs


def _profile(a: int, zs) -> LengthProfile:
    """The length profile of a, given its non-empty factorization set zs."""
    lengths = sorted({sum(z) for z in zs})
    deltas = tuple(b - a_ for a_, b in zip(lengths, lengths[1:]))
    return LengthProfile(a, tuple(lengths), deltas)


def distance(z: tuple[int, ...], zp: tuple[int, ...]) -> int:
    """max(|z - w|, |z' - w|) where w is the coordinatewise minimum."""
    if len(z) != len(zp):
        raise DimensionMismatch(f"vectors of length {len(z)} and {len(zp)}")
    return _distance(z, zp, sum(z), sum(zp))


def _distance(z: tuple[int, ...], zp: tuple[int, ...], lz: int, lzp: int) -> int:
    """distance(z, z') given lz = |z| and lzp = |z'|, for vectors already
    known to have one dimension: max(|z|, |z'|) - sum_i min(z_i, z'_i)."""
    return max(lz, lzp) - sum(map(min, z, zp))
