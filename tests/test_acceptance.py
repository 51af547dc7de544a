"""End-to-end checks, one per headline claim, each with its time budget."""

import time

from numonoid import (
    NumericalMonoid,
    ShiftedFamily,
    accelerated_minimal_presentation,
    all_minimal_presentations,
    betti_elements,
    catenary_of_element,
    catenary_of_monoid,
    clear_caches,
    congruence_closure_check,
    delta_set,
    factorization_graph,
    factorizations,
    frobenius,
    lift_presentation,
    lift_relation,
    lower_relation,
    make_presentation,
    make_relation,
    minimal_presentation,
    monoid_at,
    monoid_catenary_report,
    monotone_equal_catenary,
    naive_betti_scan,
    tame_degree,
)
from numonoid.oracle import factorization_buckets
from numonoid.factorizations import _enumerate_generic

F = ShiftedFamily((6, 9, 20))

BLOCK_450 = [
    ((0, 0, 8, 0), (3, 2, 0, 3)),
    ((0, 1, 6, 0), (4, 0, 0, 3)),
    ((0, 3, 0, 0), (1, 0, 2, 0)),
    ((20, 5, 0, 0), (0, 0, 0, 24)),
    ((25, 1, 0, 0), (0, 0, 4, 21)),
    ((26, 0, 0, 0), (0, 2, 2, 21)),
]
BLOCK_470 = [
    ((0, 0, 8, 0), (3, 2, 0, 3)),
    ((0, 1, 6, 0), (4, 0, 0, 3)),
    ((0, 3, 0, 0), (1, 0, 2, 0)),
    ((21, 5, 0, 0), (0, 0, 0, 25)),
    ((26, 1, 0, 0), (0, 0, 4, 22)),
    ((27, 0, 0, 0), (0, 2, 2, 22)),
]
BLOCK_490 = [
    ((0, 0, 8, 0), (3, 2, 0, 3)),
    ((0, 1, 6, 0), (4, 0, 0, 3)),
    ((0, 3, 0, 0), (1, 0, 2, 0)),
    ((22, 5, 0, 0), (0, 0, 0, 26)),
    ((27, 1, 0, 0), (0, 0, 4, 23)),
    ((28, 0, 0, 0), (0, 2, 2, 23)),
]


def _pres_from_block(n, block):
    M = monoid_at(F, n).monoid
    return make_presentation(M, [make_relation(M, l, r) for l, r in block])


def test_c01_betti_fixture_and_factorization_sets():
    t0 = time.perf_counter()
    M = NumericalMonoid((6, 9, 20))
    assert betti_elements(M) == [18, 60]
    assert set(factorizations(M, 18)) == {(3, 0, 0), (0, 2, 0)}
    assert set(factorizations(M, 60)) == {
        (10, 0, 0),
        (7, 2, 0),
        (4, 4, 0),
        (1, 6, 0),
        (0, 0, 3),
    }
    assert len(factorization_graph(M, 126).components) == 1
    assert time.perf_counter() - t0 < 1.0


def test_c02_all_minimal_presentations_count_and_sets():
    t0 = time.perf_counter()
    count, items = all_minimal_presentations(NumericalMonoid((6, 9, 20)))
    assert count == 4 and len(items) == 4
    sets = {frozenset(frozenset(r.pair()) for r in p.relations) for p in items}
    base = frozenset({(3, 0, 0), (0, 2, 0)})
    assert sets == {
        frozenset({base, frozenset({z, (0, 0, 3)})})
        for z in [(10, 0, 0), (7, 2, 0), (4, 4, 0), (1, 6, 0)]
    }
    assert time.perf_counter() - t0 < 1.0


def test_c03_lift_reproduces_next_shifts_and_round_trips():
    t0 = time.perf_counter()
    pres450 = _pres_from_block(450, BLOCK_450)
    for (l, r), (l2, r2) in zip(BLOCK_450, BLOCK_470):
        lifted = lift_relation(F, 450, (l, r))
        assert set(lifted) == {l2, r2}
        assert set(lower_relation(F, 450, lifted)) == {l, r}
    assert (
        lift_presentation(F, 450, pres450, 1).relations
        == _pres_from_block(470, BLOCK_470).relations
    )
    assert (
        lift_presentation(F, 450, pres450, 2).relations
        == _pres_from_block(490, BLOCK_490).relations
    )
    assert time.perf_counter() - t0 < 1.0


def test_c04_accelerated_agrees_with_direct_for_sixty_shifts():
    t0 = time.perf_counter()
    for n in range(401, 461):
        M = monoid_at(F, n).monoid
        direct = minimal_presentation(M)
        accel = accelerated_minimal_presentation(F, n)
        assert accel.relations == direct.relations, n
        # the two are equal, so one closure check vouches for both
        window = frobenius(M) + 2 * M.generators[-1]
        assert congruence_closure_check(M, direct.relations, window).ok, n
    assert time.perf_counter() - t0 < 300.0


def test_c05_betti_count_is_periodic_in_the_shift():
    for n in range(401, 441):
        assert len(betti_elements(monoid_at(F, n).monoid)) == len(
            betti_elements(monoid_at(F, n + 20).monoid)
        ), n


def test_c06_survey_reports_presentation_sizes(cli):
    code, out = cli(
        "survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "440",
        "--which", "minpres-size", "--out", "-",
    )
    assert code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        n, metric, value = line.split(",")
        assert metric == "minpres-size"
        rows[int(n)] = int(value)
    assert rows[417] == 8
    assert rows[420] == 4


def test_c07_delta_set_is_the_singleton_gcd():
    for n in (401, 417, 450):
        member = monoid_at(F, n)
        ds = delta_set(member.monoid)
        assert ds.values == frozenset({1}) and ds.exact
        # brute force window: no length gap other than 1 shows up
        windowed = delta_set(member.monoid, window=5000)
        assert windowed.values <= frozenset({1})


def test_c08_catenary_grows_by_one_per_shift_step():
    t0 = time.perf_counter()
    values = {
        n: catenary_of_monoid(monoid_at(F, n).monoid)
        for n in range(401, 441)
    }
    assert values[401] == 23
    for n in range(401, 421):
        assert values[n + 20] - values[n] == 1, n
    assert time.perf_counter() - t0 < 300.0


def test_c09_monotone_and_equal_catenary_collapse_above_threshold():
    rep = monoid_catenary_report(monoid_at(F, 450).monoid)
    assert rep.exact and rep.ordinary == rep.monotone
    # the equal degree does not collapse: it is c(T) of the offsets, 8 at
    # every shift, while the ordinary degree grows with n
    assert rep.ordinary == 26 and rep.equal == 8
    # below the threshold the collapse can fail: this element needs a detour
    # through longer factorizations
    G = ShiftedFamily((3, 14))
    M74 = monoid_at(G, 74).monoid
    assert M74.generators == (74, 77, 88)
    monotone, _ = monotone_equal_catenary(M74, 1078)
    assert monotone == 14
    assert catenary_of_element(M74, 1078) == 11
    assert monotone > catenary_of_element(M74, 1078)


def test_c10_tame_degree_witness_off_the_betti_set():
    t0 = time.perf_counter()
    M401 = monoid_at(F, 401).monoid
    assert tame_degree(M401, 10869) == 27
    assert 10869 not in betti_elements(M401)
    assert catenary_of_monoid(M401) == 23
    assert time.perf_counter() - t0 < 60.0


def test_c11_direct_path_agrees_with_the_lift_at_ten_thousand():
    clear_caches()
    t0 = time.perf_counter()
    pres = accelerated_minimal_presentation(F, 10000)
    assert time.perf_counter() - t0 < 5.0
    assert pres.monoid.generators == (10000, 10006, 10009, 10020)
    assert len(pres.relations) > 0
    # the direct scan enumerates its candidates through the same entry, so
    # it finishes inside the budget and must give the lift's presentation
    clear_caches()
    direct = minimal_presentation(
        NumericalMonoid((10000, 10006, 10009, 10020)),
        deadline=time.monotonic() + 60.0,
    )
    assert direct.relations == pres.relations
    # at a shift just below the lifting regime both paths complete and agree
    direct = minimal_presentation(monoid_at(F, 400).monoid)
    accel = accelerated_minimal_presentation(F, 400)
    assert direct.relations == accel.relations


def test_c13_lift_is_verified_at_any_shift():
    # the target-side check enumerates each lifted Betti element by length
    # slices, so a cold lift costs about the same at n = 10^6 as at 10^9
    for r in [(6, 9, 20), (3, 5)]:
        fam = ShiftedFamily(r)
        for n in (10**6, 10**9):
            clear_caches()
            t0 = time.perf_counter()
            pres = accelerated_minimal_presentation(fam, n)
            assert time.perf_counter() - t0 < 5.0
            assert pres.monoid.generators == fam.generators_at(n)
            n0 = fam.threshold + 1 + (n - fam.threshold - 1) % fam.step
            base = minimal_presentation(monoid_at(fam, n0).monoid)
            assert len(pres.relations) == len(base.relations)
    # where the generic search still finishes, it finds the same vectors in
    # the same order, so the graphs are the same
    n = 20011
    M = monoid_at(F, n).monoid
    for beta in accelerated_minimal_presentation(F, n).betti_values():
        zs = _enumerate_generic(M.generators, beta)
        assert factorization_graph(M, beta).vertices == tuple(zs)


def test_c12_structural_property_sweeps():
    t0 = time.perf_counter()

    # factorizations of a Betti element in different components differ in
    # length by 0 or d; the longer uses atom 0, the shorter the last atom
    for r, lo, hi in [((3, 7), 50, 61), ((3, 14), 197, 207), ((6, 9), 82, 92)]:
        fam = ShiftedFamily(r)
        for n in range(lo, hi + 1):
            member = monoid_at(fam, n)
            if not (member.primitive and member.minimal):
                continue
            for beta in betti_elements(member.monoid):
                g = factorization_graph(member.monoid, beta)
                comps = g.components
                for ci in range(len(comps)):
                    for cj in range(ci + 1, len(comps)):
                        for z in comps[ci]:
                            for zp in comps[cj]:
                                gap = abs(sum(z) - sum(zp))
                                assert gap in (0, fam.d)
                                if gap:
                                    lng, sht = (
                                        (z, zp)
                                        if sum(z) > sum(zp)
                                        else (zp, z)
                                    )
                                    assert lng[0] > 0 and sht[fam.k] > 0

    for gens in [(6, 9, 20), (3, 14)]:
        S = NumericalMonoid(gens)
        rk, rk1 = gens[-1], gens[-2]

        # minimum length steps by exactly one per added copy of the top atom
        for a in range(rk1 * rk + 1, rk1 * rk + 3 * rk + 1):
            zs = factorizations(S, a)
            if not zs:
                continue
            m_a = min(sum(z) for z in zs)
            m_next = min(sum(z) for z in factorizations(S, a + rk))
            assert m_next == m_a + 1, (gens, a)

        # past r_{k-1} r_k, minimum-length factorizations use the top atom
        buckets = factorization_buckets(gens, rk1 * rk + 2 * rk)
        for a in range(rk1 * rk + 1, rk1 * rk + 2 * rk + 1):
            zs = buckets.get(a, [])
            if not zs:
                continue
            mlen = min(sum(z) for z in zs)
            assert all(z[-1] > 0 for z in zs if sum(z) == mlen), (gens, a)

        # past r_k^2 every factorization is at least r_k long
        buckets = factorization_buckets(gens, rk * rk + 100)
        for a in range(rk * rk + 1, rk * rk + 101):
            assert all(sum(z) >= rk for z in buckets.get(a, [])), (gens, a)

    # fast Betti path agrees with the exhaustive oracle on small monoids
    for gens in [
        (2, 3),
        (3, 4),
        (2, 5),
        (3, 5),
        (3, 14),
        (4, 5, 6),
        (3, 5, 7),
        (4, 6, 9),
        (5, 8, 11),
        (6, 9, 20),
        (6, 10, 15),
        (5, 7, 9, 11),
        (8, 9, 10, 11),
    ]:
        M = NumericalMonoid(gens)
        bound = frobenius(M) + gens[0] + gens[-1]
        assert betti_elements(M) == naive_betti_scan(M, bound), gens

    assert time.perf_counter() - t0 < 600.0
