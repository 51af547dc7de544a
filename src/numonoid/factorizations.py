"""Factorization sets Z(a), length profiles, and the factorization distance.

A factorization of a is an exponent vector z with pi(z) = sum z_i m_i = a.
Enumeration recurses over generators from the largest down and runs each
coordinate from its maximum to zero, so the output order is deterministic:
vectors sorted by (z_t, z_{t-1}, ..., z_1) descending.  The two smallest
generators are not recursed over; their solutions form an arithmetic
progression and are emitted in closed form, which is what keeps per-element
enumeration cheap even when a is in the millions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .core import NumericalMonoid
from .errors import BudgetExceeded, DimensionMismatch, InvalidInput, NotAnElement

DEFAULT_CAP = 10**7

# deadline checks are amortized: one clock read per this many inner steps
_TICK = 4096


def _check_deadline(deadline: float | None) -> None:
    """Raise BudgetExceeded once time.monotonic() has passed deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("wall-clock deadline exceeded")


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
    if a < 0:
        raise InvalidInput("target element must be non-negative")
    if cap < 0:
        raise InvalidInput(f"cap must be non-negative, got {cap}")
    return _enumerate(M.generators, a, cap, deadline)


def _enumerate(
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

    rec(t - 1, a)
    return out


def length_profile(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> LengthProfile:
    """L(a) and its successive gaps; error when a is not an element."""
    zs = factorizations(M, a, deadline=deadline)
    if not zs:
        raise NotAnElement(f"{a} is not in {M!r}")
    lengths = sorted({sum(z) for z in zs})
    deltas = tuple(b - a_ for a_, b in zip(lengths, lengths[1:]))
    return LengthProfile(a, tuple(lengths), deltas)


def distance(z: tuple[int, ...], zp: tuple[int, ...]) -> int:
    """max(|z - w|, |z' - w|) where w is the coordinatewise minimum."""
    if len(z) != len(zp):
        raise DimensionMismatch(f"vectors of length {len(z)} and {len(zp)}")
    shared = sum(min(a, b) for a, b in zip(z, zp))
    return max(sum(z) - shared, sum(zp) - shared)
