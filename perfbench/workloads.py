"""Workload definitions: seeded inputs, the operations run on them, and the
canonical digests their outputs are checked against.

Every workload is a fixed batch of operations issued one after another by
one caller (a closed loop with a single client).  A batch is a list of
*slots*; each slot offers ``VARIANTS`` concrete inputs (or one, for a fixed
input).  One draw from the seed picks a variant index j, and every slot runs
its variant j (a fixed slot its only input).  The variants of a slot cost about
the same: lift shifts step inside one residue class, survey ranges
slide by a few shifts, windows grow by a few elements, random monoids come
from one band of sizes.  Different seeds therefore run different inputs of
comparable size, and every possible input has a frozen reference in
``references.json`` (rebuilt by ``freeze.py``).

The library receives only the generated tuples, shifts and windows; inputs
are made here, from ``random.Random`` seeded by the workload name and seed.

Sizing points quoted below are best-of-three wall times of one operation,
measured on a 2-vCPU KVM guest (Intel Xeon, CPython 3.11.7) whose speed for
Python varies by up to 1.7x over minutes, so they are good to about that
factor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import gcd

VARIANTS = 8


@dataclass(frozen=True)
class Op:
    """One call into the library.

    kind is one of "lift", "minpres", "survey", "tame", "catenary", "delta";
    args holds plain tuples and ints only.  oracle marks a minpres whose
    output is also closure-checked by numonoid.oracle (timed as verify_s).
    """

    kind: str
    args: tuple
    oracle: bool = False

    @property
    def key(self) -> str:
        return self.kind + json.dumps(self.args, separators=(",", ":"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple  # tuple of tuples of Op, one inner tuple per slot
    clear_per_op: bool  # clear library caches before every op, as a CLI call would
    tiny: tuple  # slot indices kept by the self-test's tiny batch

    def batch(self, seed: int, tiny: bool = False) -> list[Op]:
        j = random.Random(f"{self.name}:{seed}").randrange(VARIANTS)
        picks = [slot[j % len(slot)] for slot in self.slots]
        if tiny:
            return [picks[i] for i in self.tiny]
        return picks

    def pool(self) -> list[Op]:
        return [op for slot in self.slots for op in slot]


# --- lift ------------------------------------------------------------------
#
# Why: accelerated_minimal_presentation at large shifts is the paper's
# headline path.  Nearly all of its time is the target re-verification in
# factorization enumeration (a huge search that finds 2-8 vectors per Betti
# element); the Betti candidate scan runs only at the small base shift.
# Caches are cleared before every op, as in one CLI call.
#
# Sizing (one op): (6,9,20) n=10^4 60-220 ms depending on n mod 20,
# n=2*10^4 180-900 ms, n=3*10^4 1.9 s; (3,5) n=10^6 80-160 ms,
# n=4*10^6 300-1000 ms, n=10^7 2.1 s; (4,7,11,13) n=700 150 ms,
# n=1000 190-420 ms, n=2000 1.5 s.  The batch stops short of the largest of
# these so that a 25 s run still repeats it about ten times.  Variants step
# n by r_k, or by a multiple of it that also fixes n mod the other offsets:
# along (3,5) step 5 the cost swings 134-205 ms, step 15 182-194 ms; along
# (6,9,20) near 14000 step 20 162-230 ms, step 60 161-195 ms.

def _lift_slot(r: tuple, n: int, step: int) -> tuple:
    return tuple(Op("lift", (r, n + j * step)) for j in range(VARIANTS))


LIFT = Workload(
    name="lift",
    why="accelerated minimal presentations at large shifts; time is the target re-verification in factorizations",
    slots=(
        _lift_slot((6, 9, 20), 10003, 60),
        _lift_slot((6, 9, 20), 10014, 60),
        _lift_slot((6, 9, 20), 14007, 60),
        _lift_slot((6, 9, 20), 20011, 60),
        _lift_slot((3, 5), 1000004, 15),
        _lift_slot((3, 5), 2000003, 15),
        _lift_slot((4, 7, 11, 13), 701, 13),
        _lift_slot((4, 7, 11, 13), 1010, 13),
    ),
    clear_per_op=True,
    tiny=(6,),
)


# --- direct ----------------------------------------------------------------
#
# Why: minimal_presentation, the paper's direct Betti candidate scan, where
# the presentations scan and core.apery do the work and shifted does none,
# so a lift-only change must leave this workload unchanged.  The smallest
# monoids are also closure-checked by the oracle, the cost of
# `minpres --paranoid` and `verify`, timed apart as verify_s.
#
# Sizing (one op): (6,9,20) n=300 16 ms, n=550 80 ms, n=850 210 ms,
# n=1200 610 ms (direct); oracle closure 200-250 ms at n=300..307, 600 ms
# at n=401.  Random monoids with multiplicity 100-1000: 1-75 ms direct, the
# four-generator ones over multiplicity 400 the dearest; oracle 35-40 ms for
# three generators at multiplicity 100-150, 0.4 s for four, up to 1.2 s at
# multiplicity 600.  The oracle's cost follows its window: 10-50 ms at
# Frobenius number 2300-3900, 50 ms at 5200, 100 ms at 6300, 350 ms at 9000,
# so the closure-checked bands keep to Frobenius numbers up to
# ORACLE_MAX_FROBENIUS.  The (6,9,20) members are fixed; the seed draws the
# random monoids, each slot from a band of similar cost, and only the cheap
# three-generator bands are closure-checked.

ORACLE_MAX_FROBENIUS = 4000

def _family_slot(n: int, oracle: bool) -> tuple:
    return (Op("minpres", ((n, n + 6, n + 9, n + 20),), oracle),)


def _reachable(gens, top: int) -> bytearray:
    """reach[v] == 1 for the v < top that are sums of gens."""
    reach = bytearray(top)
    reach[0] = 1
    for g in gens:
        for v in range(g, top):
            if reach[v - g]:
                reach[v] = 1
    return reach


def _random_monoid(rng: random.Random, t: int, lo: int, hi: int,
                   max_frobenius: int | None) -> tuple:
    # primitive and minimally generated, generators spread over [m, 2m);
    # with max_frobenius, the m values just above it must all be reachable
    while True:
        m = rng.randint(lo, hi)
        gens = sorted({m} | {m + rng.randrange(1, m) for _ in range(t - 1)})
        if len(gens) != t or gcd(*gens) != 1:
            continue
        if any(_reachable(gens[:i], g + 1)[g] for i, g in enumerate(gens) if i):
            continue
        if max_frobenius is not None and not all(
            _reachable(gens, max_frobenius + 1 + m)[max_frobenius + 1:]
        ):
            continue
        return tuple(gens)


def _random_slot(band: int, t: int, lo: int, hi: int, oracle: bool) -> tuple:
    # the oracle's cost grows with its window, frobenius + 2 m_t
    rng = random.Random(f"direct-band:{band}")
    max_frobenius = ORACLE_MAX_FROBENIUS if oracle else None
    return tuple(
        Op("minpres", (_random_monoid(rng, t, lo, hi, max_frobenius),), oracle)
        for _ in range(VARIANTS)
    )


DIRECT = Workload(
    name="direct",
    why="direct Betti scan and minimal presentations with no lift; small outputs closure-checked by the oracle",
    slots=(
        _family_slot(307, True),
        _family_slot(350, False),
        _family_slot(450, False),
        _family_slot(550, False),
        _family_slot(650, False),
        _family_slot(750, False),
        _family_slot(850, False),
        _random_slot(0, 3, 100, 150, True),
        _random_slot(1, 3, 100, 150, True),
        _random_slot(2, 4, 100, 150, False),
        _random_slot(3, 3, 400, 1000, False),
        _random_slot(4, 3, 400, 1000, False),
    ),
    clear_per_op=False,
    tiny=(7,),
)


# --- survey ----------------------------------------------------------------
#
# Why: `numonoid survey --jobs 1` over contiguous ranges makes many small
# lifts that mostly hit the base-presentation cache, plus catenary at every
# Betti element: the opposite use of the cache and of per-call overhead from
# `lift`.  Caches are cleared only at batch start, so the first calls pay
# for the base presentations (20 for (6,9,20), 13 for (4,7,11,13)) and the
# rest reuse them: the traced run counts 91% of the batch's
# minimal_presentation calls answered from the cache.
#
# Sizing (one call, at the reference speed of run.py): (6,9,20) catenary
# over 10 shifts that meet 10 new bases 380-420 ms; over 40 shifts with
# every base cached 110-135 ms; betti over 80 shifts 110-140 ms; delta over
# 80 shifts 330-390 ms; (4,7,11,13) betti over 7 shifts (7 bases) 300-370
# ms, over 13 shifts (6 bases) 320-340 ms, over 40 cached shifts 125-135
# ms.  Calls are kept short so that each is timed many times in a run.  The
# seed's draw slides every range by the same 0..7, so each call meets the
# same cache state whatever the seed.

def _survey_slot(r: tuple, n_from: int, span: int, which: str) -> tuple:
    return tuple(
        Op("survey", (r, n_from + j, n_from + j + span, which))
        for j in range(VARIANTS)
    )


SURVEY = Workload(
    name="survey",
    why="CLI surveys of small lifts over contiguous shift ranges, mostly base-cache hits, plus catenary per Betti element",
    slots=(
        _survey_slot((6, 9, 20), 1000, 9, "catenary"),
        _survey_slot((6, 9, 20), 1010, 9, "catenary"),
        _survey_slot((6, 9, 20), 1020, 39, "catenary"),
        _survey_slot((6, 9, 20), 1000, 79, "betti"),
        _survey_slot((6, 9, 20), 1000, 79, "delta"),
        _survey_slot((4, 7, 11, 13), 170, 6, "betti"),
        _survey_slot((4, 7, 11, 13), 177, 12, "betti"),
        _survey_slot((4, 7, 11, 13), 190, 39, "betti"),
    ),
    clear_per_op=False,
    tiny=(3,),
)


# --- sweep -----------------------------------------------------------------
#
# Why: windowed tame degree, monotone/equal catenary and delta set on small
# monoids outside the family regime: the only workload that runs the
# invariants loops, and enumeration used the other way from `lift`
# (thousands of small elements whose output is about as large as the search).
#
# Sizing (one op, window w): <6,9,20> tame w=320 110 ms, catenary w=240
# 150 ms, delta w=1500 260 ms; <11,17,20,23> tame w=260 160 ms, catenary
# w=240 145 ms, delta w=800 140 ms; <60,66,69,80> tame w=1100 58 ms,
# catenary w=1000 75 ms, delta w=2400 150 ms.  Tame and catenary cost rises
# steeply with w (tame on <11,17,20,23>: 34 ms at w=200, 1.6 s at w=400) and
# jumps at elements with many factorizations: over w..w+7 it swung 101-137 ms
# for catenary on <6,9,20> and 112-171 ms for tame on <11,17,20,23>.  Their
# windows are therefore fixed; the seed adds 0..7 to the delta windows.

def _sweep_slot(kind: str, gens: tuple, window: int) -> tuple:
    if kind != "delta":
        return (Op(kind, (gens, window)),)
    return tuple(Op(kind, (gens, window + j)) for j in range(VARIANTS))


SWEEP = Workload(
    name="sweep",
    why="windowed tame, monotone/equal catenary and delta sets on small monoids; the invariants loops",
    slots=(
        _sweep_slot("tame", (6, 9, 20), 310),
        _sweep_slot("catenary", (6, 9, 20), 240),
        _sweep_slot("delta", (6, 9, 20), 1500),
        _sweep_slot("tame", (11, 17, 20, 23), 260),
        _sweep_slot("catenary", (11, 17, 20, 23), 240),
        _sweep_slot("delta", (11, 17, 20, 23), 800),
        _sweep_slot("tame", (60, 66, 69, 80), 1200),
        _sweep_slot("catenary", (60, 66, 69, 80), 1000),
        _sweep_slot("delta", (60, 66, 69, 80), 2400),
    ),
    clear_per_op=False,
    tiny=(1,),
)


WORKLOADS = {w.name: w for w in (LIFT, DIRECT, SURVEY, SWEEP)}


# --- running one op and canonicalizing its output --------------------------

def execute(nm, op: Op, deadline: float | None):
    """Run op against the imported numonoid package; return a JSON-ready
    canonical form of its output.  Raises numonoid.MonoidError on failure."""
    if op.kind == "lift":
        r, n = op.args
        family = nm.ShiftedFamily(tuple(r))
        return nm.accelerated_minimal_presentation(
            family, n, deadline=deadline
        ).to_json_dict()
    if op.kind == "minpres":
        (gens,) = op.args
        return nm.minimal_presentation(
            nm.NumericalMonoid(gens), deadline=deadline
        ).to_json_dict()
    if op.kind == "survey":
        r, n_from, n_to, which = op.args
        argv = [
            "survey", "--r", ",".join(map(str, r)),
            "--n-from", str(n_from), "--n-to", str(n_to),
            "--which", which, "--out", "-", "--jobs", "1",
        ]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = nm.cli.main(argv)
        if code != 0:
            raise nm.MonoidError(f"survey exited with {code}")
        return buf.getvalue()
    gens, window = op.args
    M = nm.NumericalMonoid(gens)
    if op.kind == "tame":
        report = nm.tame_degree_windowed(M, window=window, deadline=deadline)
        return dataclasses.asdict(report)
    if op.kind == "catenary":
        report = nm.monoid_catenary_report(M, window=window, deadline=deadline)
        return dataclasses.asdict(report)
    if op.kind == "delta":
        ds = nm.delta_set(M, window=window, deadline=deadline)
        return {"values": sorted(ds.values), "exact": ds.exact, "window": ds.window}
    raise ValueError(f"unknown op kind {op.kind!r}")


def closure_check(nm, output: dict) -> bool:
    """The oracle's closure check of a presentation over frobenius + 2 m_t,
    as `minpres --paranoid` and `verify` run it."""
    M = nm.NumericalMonoid(output["generators"])
    pairs = [(tuple(r["left"]), tuple(r["right"])) for r in output["relations"]]
    window = nm.frobenius(M) + 2 * M.generators[-1]
    return nm.congruence_closure_check(M, pairs, window).ok


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
