"""Factorization sets Z(a), length profiles, and the factorization distance.

A factorization of a is an exponent vector z with pi(z) = sum z_i m_i = a.
Two exact enumerators produce Z(a); both return it in one documented order,
vectors sorted by (z_t, z_{t-1}, ..., z_1) descending.

- Generic (_enumerate_generic): recurse over the generators from the
  largest down, running each coordinate from its maximum to zero, which
  emits the documented order directly.  Its work grows like the product
  of a/m_i over the recursed generators.
- Length-sliced (_enumerate_sliced): view M as <n, n + r_1, ..., n + r_k>
  with n = m_1 and r_i = m_{i+1} - m_1.  A factorization of length l is
  then a vector w over the offsets with sum w_i r_i = a - n*l and
  sum w_i <= l, the rest of the length going to the first coordinate.  The
  lengths l run over [ceil(a/m_t), floor(a/m_1)]; inside one slice each
  coordinate is bounded below so that what is left still fits into the
  atoms left at the next smaller offset.  The output is sorted once at the
  end.  When m_t/m_1 is close to 1, as for shifted families at large n,
  there are few slices and the search is nearly output-sensitive.

Neither recurses over its last two coordinates (the two smallest
generators, or the two smallest offsets): their solutions form an arithmetic
progression and are emitted in closed form, cut at the slice's atom count
in the sliced search.  _enumerate is the one entry for a single element: it
picks one of the two from an O(t) estimate of each one's work, computed
from the generators and a alone, and every per-element enumeration,
factorizations() and _factorizations_of included, goes through it.  The
windowed sweeps, which need Z(a) for every a of a window, read it from the
window stream (_stream) instead, which builds each Z(a) from the rows
below it and bypasses _enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import DEFAULT_CAP, NumericalMonoid, _check_deadline, _natural
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
        # both searches then reach their closed-form tail straight from the
        # outer loop, and a sliced tail costs about three generic ones: the
        # generic tail mostly exits on its first test (v % g01), while every
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
) -> list[tuple[int, ...]]:
    """Z(a) in the documented order, by whichever search is estimated
    cheaper; both are exact and honour cap and deadline alike."""
    search = (
        _enumerate_sliced if _sliced_is_cheaper(gens, a) else _enumerate_generic
    )
    return search(gens, a, cap, deadline)


def _enumerate_generic(
    gens: tuple[int, ...],
    a: int,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
) -> list[tuple[int, ...]]:
    t = len(gens)
    if t == 1:
        return [(a // gens[0],)] if a % gens[0] == 0 else []

    m0, m1 = gens[0], gens[1]
    g01 = gcd(m0, m1)
    q0 = m0 // g01  # solutions to x*m0 + y*m1 = v have y in one class mod q0
    q1 = m1 // g01
    inv = pow(q1, -1, q0) if q0 > 1 else 0

    out: list[tuple[int, ...]] = []
    counts = [0] * t
    ticks = 0

    def tail(v: int) -> None:
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % _TICK == 0:
            _check_deadline(deadline)
        if v % g01:
            return
        y0 = ((v // g01) * inv) % q0 if q0 > 1 else 0
        ymax = v // m1
        if ymax < y0:
            return
        y = ymax - (ymax - y0) % q0
        x = (v - y * m1) // m0
        while y >= y0:
            counts[1] = y
            counts[0] = x
            out.append(tuple(counts))
            if len(out) > cap:
                raise BudgetExceeded(
                    f"more than {cap} factorizations; raise the cap to continue"
                )
            y -= q0
            x += q1

    def rec(i: int, v: int) -> None:
        if i == 1:
            tail(v)
            return
        m = gens[i]
        for c in range(v // m, -1, -1):
            counts[i] = c
            rec(i - 1, v - c * m)

    try:
        rec(t - 1, a)
    finally:
        del rec  # rec's closure refers to rec; without this, out lives until gc
    return out


def _enumerate_sliced(
    gens: tuple[int, ...],
    a: int,
    cap: int = DEFAULT_CAP,
    deadline: float | None = None,
) -> list[tuple[int, ...]]:
    # needs t >= 3; r[i] is the offset m_i - m_0 (r[0] = 0)
    t = len(gens)
    m0 = gens[0]
    r = [m - m0 for m in gens]
    r1, r2 = r[1], r[2]
    g12 = gcd(r1, r2)
    q1 = r1 // g12  # solutions to x*r1 + y*r2 = v have y in one class mod q1
    q2 = r2 // g12
    inv = pow(q2, -1, q1) if q1 > 1 else 0

    out: list[tuple[int, ...]] = []
    counts = [0] * t
    ticks = 0

    def tail(v: int, left: int) -> None:
        # x*r1 + y*r2 = v with x + y <= left; x + y grows as y falls, so the
        # atom bound is a lower bound on y
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % _TICK == 0:
            _check_deadline(deadline)
        if v % g12:
            return
        y0 = ((v // g12) * inv) % q1 if q1 > 1 else 0
        ymax = min(v // r2, left)
        if ymax < y0:
            return
        ymin = max(0, -((left * r1 - v) // (r2 - r1)))
        y = ymax - (ymax - y0) % q1
        x = (v - y * r2) // r1
        while y >= ymin:
            counts[0] = left - x - y
            counts[1] = x
            counts[2] = y
            out.append(tuple(counts))
            if len(out) > cap:
                raise BudgetExceeded(
                    f"more than {cap} factorizations; raise the cap to continue"
                )
            y -= q1
            x += q2

    def rec(i: int, v: int, left: int) -> None:
        # what is left after c copies of r[i] must fit into left - c atoms
        # of at most r[i - 1] each
        if i == 2:
            tail(v, left)
            return
        ri, below = r[i], r[i - 1]
        lo = max(0, -((left * below - v) // (ri - below)))
        for c in range(min(v // ri, left), lo - 1, -1):
            counts[i] = c
            rec(i - 1, v - c * ri, left - c)

    d = gcd(*r[1:])
    try:
        for length in range(-(-a // gens[-1]), a // m0 + 1):
            # a factorization of length l has sum w_i r_i = a - m0 l, a
            # multiple of d, so a slice where d does not divide it is empty
            if (a - m0 * length) % d == 0:
                rec(t - 1, a - m0 * length, length)
    finally:
        del rec  # as in _enumerate_generic
    out.sort(key=lambda z: z[::-1], reverse=True)
    return out


def _stream(gens: tuple[int, ...], last: int, deadline: float | None = None):
    """Yield (a, Z(a)) for every a <= last with Z(a) non-empty, in
    increasing order of a.

    Recurrence: Z(0) = {0} and, for a > 0,

        Z(a) = union over i of {z + e_i : z in Z(a - m_i), z_j = 0 for j > i},

    a disjoint union, since each non-zero z in Z(a) arises exactly once,
    from its largest used atom i.  Each row is kept ordered by largest used
    atom, with ends[i] the number of its vectors using no atom above i, so
    the vectors extended by e_i are a prefix of row a - m_i: every vector
    is built once and no search is wasted.  Only the rows of the last m_t
    values are held.  The deadline is checked once per a, and
    BudgetExceeded is raised once the rows held exceed DEFAULT_CAP vectors
    (read at call time).

    The order inside a row is not the documented order of factorizations();
    callers must not depend on it.  Works for non-minimal and non-primitive
    tuples alike.
    """
    t, top = len(gens), gens[-1]
    # rows[b % top] is (Z(b), ends) for the last top values b; a slot not
    # yet written holds the empty row, the Z(b) of every b < 0
    rows = [([], (0,) * t)] * top
    held = 0
    for a in range(last + 1):
        _check_deadline(deadline)
        if a:
            zs, ends = [], []
            for i, m in enumerate(gens):
                prev, prev_ends = rows[(a - m) % top]
                zs += [z[:i] + (z[i] + 1,) + z[i + 1 :] for z in prev[: prev_ends[i]]]
                ends.append(len(zs))
        else:
            zs, ends = [(0,) * t], (1,) * t
        slot = a % top
        held += len(zs) - len(rows[slot][0])
        rows[slot] = (zs, ends)
        if held > DEFAULT_CAP:
            raise BudgetExceeded(
                f"more than {DEFAULT_CAP} factorizations held by the window "
                "stream; narrow the window to continue"
            )
        if zs:
            yield a, zs


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
