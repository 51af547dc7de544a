"""Rebuild references.json: the digest of every output any seed can ask for.

    python3 perfbench/freeze.py            # a few minutes on 2 vCPUs

Each case records its digest and where the value came from:
  direct    minimal_presentation (the direct Betti scan) gave this output
  oracle    numonoid.oracle's closure check passed over frobenius + 2 m_t
  accel     accelerated_minimal_presentation gave it, re-verified on the
            target's factorization graphs by the library itself; lift shifts
            up to DIRECT_MAX_SHIFT also ran the direct scan ("direct+accel")
  survey    the CLI survey; betti/catenary/delta rows rebuilt from the direct
            Betti elements of every shift matched it
  windowed  the library's windowed invariant (no independent path exists)
Sources are joined with "+" when several agree.
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import WORKLOADS, closure_check, digest, execute

DIRECT_BUDGET_S = 30.0
DIRECT_MAX_SHIFT = 1000  # the direct scan at larger lift shifts takes minutes


def _direct_presentation(nm, gens, budget: float):
    nm.clear_caches()
    try:
        pres = nm.minimal_presentation(
            nm.NumericalMonoid(gens), deadline=time.monotonic() + budget
        )
    except nm.BudgetExceeded:
        return None
    return pres.to_json_dict()


_DIRECT_ROWS: dict = {}


def _direct_rows(nm, r, n) -> dict:
    """Survey rows of one shift from its direct Betti elements."""
    if (r, n) not in _DIRECT_ROWS:
        nm.clear_caches()
        member = nm.monoid_at(nm.ShiftedFamily(tuple(r)), n)
        if not (member.primitive and member.minimal):
            raise ValueError(f"survey range reaches unusable shift {n}")
        M = member.monoid
        betti = nm.betti_elements(M)
        delta = set()
        for b in betti:
            delta |= nm.delta_set_of_element(M, b)
        _DIRECT_ROWS[r, n] = {
            "betti": [(n, "betti", b) for b in betti],
            "catenary": [(n, "catenary", nm.catenary_of_monoid(M, betti=betti))],
            "delta": [(n, "delta", v) for v in sorted(delta)],
        }
    return _DIRECT_ROWS[r, n]


def _direct_survey_csv(nm, r, n_from, n_to, which) -> str:
    rows = []
    for n in range(n_from, n_to + 1):
        rows += _direct_rows(nm, tuple(r), n)[which]
    lines = ["n,metric,value"] + [f"{n},{m},{v}" for n, m, v in sorted(rows)]
    return "\n".join(lines) + "\n"


def reference(nm, op) -> dict:
    nm.clear_caches()
    out = execute(nm, op, None)
    sources = []
    if op.kind == "lift":
        r, n = op.args
        gens = (n, *(n + x for x in r))
        direct = None
        if n <= DIRECT_MAX_SHIFT:
            direct = _direct_presentation(nm, gens, DIRECT_BUDGET_S)
        if direct is not None:
            if direct != out:
                raise AssertionError(f"{op.key}: accelerated differs from direct")
            sources.append("direct")
        sources.append("accel")
    elif op.kind == "minpres":
        sources.append("direct")
        if op.oracle:
            if not closure_check(nm, out):
                raise AssertionError(f"{op.key}: oracle closure check failed")
            sources.append("oracle")
    elif op.kind == "survey":
        if _direct_survey_csv(nm, *op.args) != out:
            raise AssertionError(f"{op.key}: survey differs from direct rebuild")
        sources.append("survey")
    else:
        sources.append("windowed")
    return {"digest": digest(out), "source": "+".join(sources)}


def main() -> int:
    nm = run.import_package()
    cases = {}
    for workload in WORKLOADS.values():
        for op in workload.pool():
            if op.key in cases:
                continue
            cases[op.key] = reference(nm, op)
            print(op.key, cases[op.key], flush=True)
    payload = {
        "about": "sha256 (first 16 hex) of each output's canonical JSON; see freeze.py",
        "cases": dict(sorted(cases.items())),
    }
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
