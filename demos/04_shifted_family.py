"""The shifted-family shortcut: lift one presentation instead of recomputing.

M_n = <n, n+6, n+9, n+20>.  Past n = 400 the minimal presentations of
consecutive members (20 apart) match up relation-for-relation, so one
direct computation at a small base shift covers every larger shift in the
same residue class.
"""

import time

from numonoid import (
    ShiftedFamily,
    accelerated_minimal_presentation,
    clear_caches,
    lift_relation,
    minimal_presentation,
    monoid_at,
)

F = ShiftedFamily((6, 9, 20))
print("threshold:", F.threshold, " step:", F.step)

# how a single relation moves one step up the family: the longer side
# gains copies of the first atom, the shorter side copies of the last
rel = ((20, 5, 0, 0), (0, 0, 0, 24))
print("at n=450:", rel)
print("at n=470:", lift_relation(F, 450, rel))

# same answer both ways at a modest shift
n = 450
direct = minimal_presentation(monoid_at(F, n).monoid)
accel = accelerated_minimal_presentation(F, n)
assert direct.relations == accel.relations
print(f"n={n}: accelerated output matches the direct computation")

# the direct Betti scan's candidate set grows with n (it takes about a
# quarter second at n = 10000 and seconds at 10^5); the lift does not, and
# its re-verification at the target costs about the same at n = 10^6
for n in (10000, 10**6):
    clear_caches()
    t0 = time.perf_counter()
    pres = accelerated_minimal_presentation(F, n)
    ms = (time.perf_counter() - t0) * 1000
    print(f"n={n}: {len(pres.relations)} relations in {ms:.0f} ms")
    print("Betti elements:", pres.betti_values())
