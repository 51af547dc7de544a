"""Factorization invariants, exact where a theorem applies, and a survey CSV."""

import io
from contextlib import redirect_stdout

from numonoid import (
    NumericalMonoid,
    ShiftedFamily,
    catenary_of_element,
    delta_set,
    monoid_at,
    monoid_catenary_report,
    monotone_equal_catenary,
    tame_degree_windowed,
)
from numonoid.cli import main

M = NumericalMonoid((6, 9, 20))

# small monoid: monotone/equal catenary only as windowed lower bounds
rep = monoid_catenary_report(M, window=200)
print("ordinary/monotone/equal:", rep.ordinary, rep.monotone, rep.equal,
      "(exact)" if rep.exact else f"(window {rep.window})")

# family member above the threshold (450 > 20^2, read off the generators):
# ordinary and monotone are 26, and equal is c(T) = 8 at every shift
member = monoid_at(ShiftedFamily((6, 9, 20)), 450)
rep = monoid_catenary_report(member.monoid)
print("at n=450:", rep.ordinary, rep.monotone, rep.equal,
      "(exact)" if rep.exact else "")

ds = delta_set(member.monoid)
print("delta set at n=450:", sorted(ds.values), "exact:", ds.exact)

# an element where the monotone catenary exceeds the ordinary one
H = NumericalMonoid((74, 77, 88))
print("element 1078: ordinary", catenary_of_element(H, 1078),
      "monotone/equal", monotone_equal_catenary(H, 1078))

print("tame degree sweep:", tame_degree_windowed(M, window=200))

# the survey subcommand emits the same numbers as CSV
buf = io.StringIO()
with redirect_stdout(buf):
    main(["survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "410",
          "--which", "catenary", "--out", "-"])
print(buf.getvalue())
