import re
import time

import pytest

from numonoid import presentations, shifted
from numonoid import (
    BudgetExceeded,
    ClosureReport,
    FactorizationGraph,
    InvalidInput,
    NotARelation,
    NotInImage,
    NotMinimal,
    NotPrimitive,
    NumericalMonoid,
    Relation,
    ShiftBelowThreshold,
    ShiftedFamily,
    VerificationFailed,
    accelerated_minimal_presentation,
    betti_elements,
    catenary_of_monoid,
    clear_caches,
    congruence_closure_check,
    delta_set,
    equal_length_projection,
    family_from_generators,
    frobenius,
    lift_presentation,
    lift_relation,
    lower_relation,
    make_presentation,
    make_relation,
    minimal_presentation,
    monoid_at,
)
from numonoid.core import DEFAULT_CAP
from numonoid.factorizations import _enumerate_sliced, _search
from numonoid.presentations import factorization_graph
from numonoid.shifted import _betti_graphs

F = ShiftedFamily((6, 9, 20))

# hand-checked minimal presentation of the shift-450 member, and its images
# one and two shifts up: length gaps stay fixed while the longer side gains
# on coordinate 0 and the shorter side gains on the last coordinate
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


def _canonical(n, block):
    M = monoid_at(F, n).monoid
    return make_presentation(M, [make_relation(M, l, r) for l, r in block])


def test_family_validation_and_properties():
    assert F.k == 3 and F.d == 1 and F.step == 20 and F.threshold == 400
    assert ShiftedFamily((6, 9)).d == 3
    assert ShiftedFamily((1,)).threshold == 1
    with pytest.raises(InvalidInput):
        ShiftedFamily(())
    with pytest.raises(InvalidInput):
        ShiftedFamily((3, 3))
    with pytest.raises(InvalidInput):
        ShiftedFamily((0, 5))


def test_monoid_at_flags():
    m = monoid_at(F, 450)
    assert m.monoid.generators == (450, 456, 459, 470)
    assert m.minimal and m.primitive
    # shift 1: every later generator is a multiple of 1
    assert not monoid_at(ShiftedFamily((1,)), 1).minimal
    # shift sharing a factor with the offsets
    m = monoid_at(ShiftedFamily((2, 4)), 2)
    assert not m.primitive and not m.minimal
    assert monoid_at(ShiftedFamily((2, 4)), 3).primitive
    with pytest.raises(InvalidInput):
        monoid_at(F, 0)


def test_lift_relation_matches_hand_fixtures():
    M450 = monoid_at(F, 450).monoid
    for (l, r), (l2, r2) in zip(BLOCK_450, BLOCK_470):
        rel = make_relation(M450, l, r)
        lifted = lift_relation(F, 450, rel)
        assert isinstance(lifted, Relation)
        assert {lifted.left, lifted.right} == {l2, r2}


def test_lift_relation_pair_in_pair_out():
    out = lift_relation(F, 450, ((20, 5, 0, 0), (0, 0, 0, 24)))
    assert isinstance(out, tuple)
    assert set(out) == {(21, 5, 0, 0), (0, 0, 0, 25)}
    # the diagonal maps to itself
    assert lift_relation(F, 450, ((1, 2, 3, 0), (1, 2, 3, 0))) == (
        (1, 2, 3, 0),
        (1, 2, 3, 0),
    )


def test_lift_relation_rejects_non_relations():
    with pytest.raises(NotARelation):
        lift_relation(F, 450, ((1, 0, 0, 0), (0, 1, 0, 0)))


def test_lower_relation_round_trips():
    M450 = monoid_at(F, 450).monoid
    for l, r in BLOCK_450:
        rel = make_relation(M450, l, r)
        assert lower_relation(F, 450, lift_relation(F, 450, rel)) == rel
    # a second family, with bare pairs given shorter side first; pairs come
    # back in canonical order, longer side first
    F2 = ShiftedFamily((4, 7, 11, 13))
    pres = minimal_presentation(monoid_at(F2, 171).monoid)
    assert any(sum(r.left) > sum(r.right) for r in pres.relations)
    for rel in pres.relations:
        assert lower_relation(F2, 171, lift_relation(F2, 171, rel)) == rel
        flipped = (rel.right, rel.left)
        lifted = lift_relation(F2, 171, flipped)
        assert lifted == lift_relation(F2, 171, rel).pair()
        assert lower_relation(F2, 171, lifted) == rel.pair()


def test_lower_relation_rejects_vectors_outside_the_image():
    # a relation one shift up whose longer side never touches coordinate 0
    assert 35 * 476 == 34 * 490
    with pytest.raises(NotInImage):
        lower_relation(F, 450, ((0, 35, 0, 0), (0, 0, 0, 34)))
    with pytest.raises(NotARelation):
        lower_relation(F, 450, ((1, 0, 0, 0), (0, 1, 0, 0)))


def test_lift_presentation_closed_form():
    pres = _canonical(450, BLOCK_450)
    assert lift_presentation(F, 450, pres, 0).relations == pres.relations
    assert (
        lift_presentation(F, 450, pres, 1).relations
        == _canonical(470, BLOCK_470).relations
    )
    assert (
        lift_presentation(F, 450, pres, 2).relations
        == _canonical(490, BLOCK_490).relations
    )


def test_lift_presentation_validation():
    pres = _canonical(450, BLOCK_450)
    with pytest.raises(InvalidInput):
        lift_presentation(F, 450, pres, -1)
    with pytest.raises(InvalidInput):
        lift_presentation(F, 470, pres, 1)  # wrong base shift
    with pytest.raises(ShiftBelowThreshold):
        lift_presentation(F, 399, pres, 1)


def test_lift_presentation_evaluates_both_sides_at_the_target():
    # a hand-built Relation whose sides differ in value stays a non-relation
    # at every shift, and the lift refuses it
    M = monoid_at(F, 450).monoid
    assert 8 * 459 != 3 * 450 + 2 * 456 + 4 * 470
    bad = make_presentation(M, [Relation((3, 2, 0, 4), (0, 0, 8, 0), 8 * 459)])
    for steps in (0, 1, 5):
        with pytest.raises(NotARelation):
            lift_presentation(F, 450, bad, steps)


def test_lifted_presentation_still_generates_the_kernel():
    pres = minimal_presentation(monoid_at(F, 401).monoid)
    lifted = lift_presentation(F, 401, pres, 3)
    M = lifted.monoid
    assert M.generators == (461, 467, 470, 481)
    window = max(lifted.betti_values()) + 2 * M.generators[-1]
    assert congruence_closure_check(M, lifted.relations, window).ok


@pytest.mark.parametrize("n", [421, 434, 450, 460])
def test_accelerated_equals_direct(n):
    direct = minimal_presentation(monoid_at(F, n).monoid)
    accel = accelerated_minimal_presentation(F, n)
    assert accel.relations == direct.relations


def test_router_lifts_a_shared_factor_family_in_time():
    # d = gcd(2, 4, 14, 16) = 2: the length slices of a lifted Betti
    # element where d does not divide a - n l hold no factorization and are
    # skipped; visiting them took over 5 s at this shift
    G = ShiftedFamily((2, 4, 14, 16))
    n = 10**6 + 1
    n0 = G.threshold + 1 + (n - G.threshold - 1) % G.step
    steps = (n - n0) // G.step
    M = monoid_at(G, n).monoid
    graphs = _betti_graphs(M, time.monotonic() + 5)
    base = minimal_presentation(monoid_at(G, n0).monoid)
    assert [g.element for g in graphs] == (
        lift_presentation(G, n0, base, steps).betti_values()
    )


def test_accelerated_small_shift_falls_back_to_direct():
    assert (
        accelerated_minimal_presentation(F, 50).relations
        == minimal_presentation(monoid_at(F, 50).monoid).relations
    )


def test_accelerated_standing_assumptions():
    with pytest.raises(NotPrimitive):
        accelerated_minimal_presentation(ShiftedFamily((2, 4)), 402)
    with pytest.raises(NotMinimal):
        accelerated_minimal_presentation(F, 3)  # (3, 9, 23): 9 is redundant


def test_accelerated_paranoid_mode():
    # the closure check `minpres --paranoid` runs, over frobenius + 2 m_t
    pres = accelerated_minimal_presentation(F, 450)
    assert len(pres.relations) == 6
    M = pres.monoid
    window = frobenius(M) + 2 * M.generators[-1]
    assert congruence_closure_check(M, pres.relations, window).ok


def test_betti_set_is_periodic_in_the_shift():
    assert len(betti_elements(monoid_at(F, 450).monoid)) == len(
        betti_elements(monoid_at(F, 470).monoid)
    )


def test_equal_length_projection_fixture():
    pres = _canonical(450, BLOCK_450)
    tau = equal_length_projection(F, 450, pres)
    assert {frozenset(r.pair()) for r in tau} == {
        frozenset({(0, 8, 0), (2, 0, 3)}),
        frozenset({(1, 6, 0), (0, 0, 3)}),
        frozenset({(3, 0, 0), (0, 2, 0)}),
    }
    # the projected set generates, and stays generating without its
    # redundant first relation
    S = NumericalMonoid((6, 9, 20))
    assert congruence_closure_check(S, tau, 220).ok
    smaller = [r for r in tau if frozenset(r.pair()) != frozenset({(0, 8, 0), (2, 0, 3)})]
    assert congruence_closure_check(S, smaller, 220).ok


def test_equal_length_projection_raises_a_closure_gap(monkeypatch):
    # a projection the oracle cannot close would be a bug, and is raised
    def failing(S, relations, bound):
        return ClosureReport(bound, ((42, ((7, 0, 0), (0, 0, 2))),))

    monkeypatch.setattr(shifted, "congruence_closure_check", failing)
    with pytest.raises(
        VerificationFailed, match="^projected relations fail closure at 42$"
    ):
        equal_length_projection(F, 450, _canonical(450, BLOCK_450))


def test_equal_length_projection_single_offset_family():
    G = ShiftedFamily((14,))
    pres = minimal_presentation(monoid_at(G, 197).monoid)
    assert equal_length_projection(G, 197, pres) == ()
    with pytest.raises(ShiftBelowThreshold):
        equal_length_projection(G, 196, pres)


def test_family_from_generators():
    fam, n = family_from_generators((450, 456, 459, 470))
    assert fam == F and n == 450
    fam, n = family_from_generators((7,))
    assert fam is None and n == 7


def _swap_pair_at(monkeypatch, n, beta, make):
    # the router moves each base relation to M_n with _shift; the pair it
    # moves to beta is replaced by make(left, right)
    real = shifted._shift
    target = monoid_at(F, n).monoid

    def tampered(F_, left, right, steps):
        left, right = real(F_, left, right, steps)
        if target.evaluate(left) == beta:
            return make(left, right)
        return left, right

    monkeypatch.setattr(shifted, "_shift", tampered)


def _tamper_join(monkeypatch):
    # sides that share support, hence sit in the same component
    assert 20 * 450 + 5 * 456 == 21 * 450 + 2 * 456 + 2 * 459 == 11280
    _swap_pair_at(
        monkeypatch, 450, 11280, lambda l, r: ((21, 2, 2, 0), (20, 5, 0, 0))
    )


def _tamper_factor(monkeypatch):
    # the right side swapped for a factorization of 1368, so the pair is
    # not a relation of M_450: its sides are not both in Z(11280)
    assert 3 * 456 == 450 + 2 * 459 == 1368
    _swap_pair_at(monkeypatch, 450, 11280, lambda l, r: (l, (1, 0, 2, 0)))


def _tamper_span(monkeypatch):
    # the graph at 11280 reports its two-member component as two, so the
    # one lifted relation there leaves a component unjoined
    import numonoid.shifted as shifted_mod

    real = shifted_mod._graph_of

    def split(M, a, deadline, memo):
        g = real(M, a, deadline, memo)
        if a != 11280:
            return g
        comps = []
        for comp in g.components:
            comps += [comp[:1], comp[1:]] if len(comp) > 1 else [comp]
        assert len(comps) == len(g.components) + 1
        return FactorizationGraph(a, g.vertices, tuple(sorted(comps)))

    monkeypatch.setattr(shifted_mod, "_graph_of", split)


@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(_tamper_join, "do not join distinct components", id="join"),
        pytest.param(_tamper_factor, "does not factor 11280", id="factor"),
        pytest.param(_tamper_span, "relations lifted to 11280 do not span", id="span"),
    ],
)
def test_tampered_lift_is_caught(monkeypatch, tamper, message):
    # the spanning verification inside the accelerated path must reject
    # each tampered lift, with the message of the check that fired; the
    # caches are cleared first, so that no memoized lift of M_450 skips it
    clear_caches()
    tamper(monkeypatch)
    with pytest.raises(VerificationFailed, match=message):
        accelerated_minimal_presentation(F, 450)


def _count_graphs(monkeypatch):
    # every Z(beta) the router enumerates at a lifted target, by element
    built = []
    real = shifted._graph_of

    def counted(M, a, deadline, memo):
        built.append(a)
        return real(M, a, deadline, memo)

    monkeypatch.setattr(shifted, "_graph_of", counted)
    return built


def _gapped(M):
    # the Betti elements of M with more than one factorization length
    return [
        g.element
        for g in presentations._betti_impl(M, None)
        if len({sum(z) for z in g.vertices}) > 1
    ]


@pytest.mark.parametrize(
    "compute",
    [
        pytest.param(lambda M: catenary_of_monoid(M), id="catenary"),
        pytest.param(lambda M: delta_set(M), id="delta"),
        pytest.param(
            lambda M: accelerated_minimal_presentation(F, M.multiplicity),
            id="accelerated",
        ),
    ],
)
def test_a_verified_lift_is_memoized(monkeypatch, compute):
    # the first call builds only the Betti element of M_1000 with a length
    # gap, carrying its three single-length ones over from the base scan; a
    # second call on the same monoid reads the lifted memo and builds none
    M = monoid_at(F, 1000).monoid
    clear_caches()
    built = _count_graphs(monkeypatch)
    first = compute(M)
    assert built == _gapped(M) == [51000]
    built.clear()
    assert compute(M) == first
    assert built == []


def test_the_direct_scan_ignores_the_lifted_memo(monkeypatch):
    # minimal_presentation scans at the target even after the router has
    # memoized the lift there, so the two paths still check each other
    M = monoid_at(F, 1000).monoid
    clear_caches()
    lifted = accelerated_minimal_presentation(F, 1000)
    assert M in shifted._lifted_memo
    scanned = []
    real = presentations._betti_impl

    def logged(M, deadline, *rest):
        scanned.append(M.generators)
        return real(M, deadline, *rest)

    monkeypatch.setattr(presentations, "_betti_impl", logged)
    assert minimal_presentation(M).relations == lifted.relations
    assert scanned == [M.generators]


def test_the_memos_drop_their_oldest_entry(monkeypatch):
    # with room for two entries, a third lift evicts the first, which is
    # then verified again from a fresh base scan; the direct scan's memo is
    # bounded the same way
    monkeypatch.setattr(presentations._minpres_memo, "limit", 2)
    monkeypatch.setattr(shifted._lifted_memo, "limit", 2)
    clear_caches()
    shifts = (1000, 1001, 1002)
    monoids = [monoid_at(F, n).monoid for n in shifts]
    # their bases are the shifts 420, 401 and 402
    bases = [monoid_at(F, n0).monoid for n0 in (420, 401, 402)]
    for M in monoids:
        _betti_graphs(M, None)
    assert list(shifted._lifted_memo) == monoids[1:]
    assert list(presentations._minpres_memo) == bases[1:]
    built = _count_graphs(monkeypatch)
    _betti_graphs(monoids[0], None)
    assert list(shifted._lifted_memo) == [monoids[2], monoids[0]]
    assert list(presentations._minpres_memo) == [bases[2], bases[0]]
    assert built == _gapped(monoids[0])


@pytest.mark.parametrize("n", [450, 1000, 1001, 10**4 + 3])
def test_a_cold_lift_builds_only_the_elements_with_a_length_gap(monkeypatch, n):
    # from cleared caches, the three single-length Betti elements of M_n
    # are carried over from the base scan, and only those with a length gap
    # are built at the target; the graphs are the direct scan's
    clear_caches()
    M = monoid_at(F, n).monoid
    built = _count_graphs(monkeypatch)
    graphs = _betti_graphs(M, None)
    assert graphs == presentations._betti_impl(M, None)
    gapped = _gapped(M)
    assert built == gapped and len(gapped) == len(graphs) - 3


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(
            lambda l, r: (l, l), "do not join distinct components", id="join"
        ),
        # a length-3 right side of 1000 + 1006 + 1009 = 3015
        pytest.param(
            lambda l, r: (l, (1, 1, 1, 0)), "does not factor 3018", id="factor"
        ),
    ],
)
def test_a_tampered_single_length_pair_is_checked(monkeypatch, make, message):
    # from cleared caches, the pair moved to 3018 = 3 * 1000 + 18 at M_1000
    # differs from the base pair of 3 * 420 + 18, so 3018 is not carried
    # over: its graph is built and checked, and the lift is not memoized
    clear_caches()
    _swap_pair_at(monkeypatch, 1000, 3018, make)
    M = monoid_at(F, 1000).monoid
    with pytest.raises(VerificationFailed, match=message):
        _betti_graphs(M, None)
    assert M not in shifted._lifted_memo


def test_an_unmoved_pair_with_a_length_gap_is_checked(monkeypatch):
    # with a _shift that moves nothing, the gap pair of 9240 = 22 * 420 at
    # the base M_420 equals its base pair too, yet 22 * 20 >= 420, so it is
    # not carried to 22 * 1000: it is built and checked, and fails there
    clear_caches()
    monkeypatch.setattr(shifted, "_shift", lambda k, left, right, steps: (left, right))
    message = "lifted side of (22, 0, 0, 0) ~ (0, 0, 0, 21) does not factor 22000"
    with pytest.raises(VerificationFailed, match=f"^{re.escape(message)}$"):
        _betti_graphs(monoid_at(F, 1000).monoid, None)


def test_a_pair_moved_onto_a_carried_element_is_refused(monkeypatch):
    # the one pair of 51000 at M_1000, moved onto the pair of the carried
    # element 3018, would span Z(3018) on its own: the two graphs at 3018
    # are refused, as the two pairs filed there would be
    clear_caches()
    _swap_pair_at(
        monkeypatch, 1000, 51000, lambda l, r: ((1, 0, 2, 0), (0, 3, 0, 0))
    )
    with pytest.raises(
        VerificationFailed,
        match="^lifted relations at 3018 do not join distinct components$",
    ):
        _betti_graphs(monoid_at(F, 1000).monoid, None)


def test_a_class_past_v_over_r1_is_its_memoized_class_moved():
    # 11060 = 11 * 1000 + 60 has the one length 11 in M_1000, and
    # 60 // r_1 = 10 < 11: the class is memoized under b = 10, and the
    # class of length 11 adds one to coordinate 0 of each vector
    clear_caches()
    M = monoid_at(F, 1000).monoid
    offsets = (0, 6, 9, 20)
    memo = shifted._class_memo
    zs = _enumerate_sliced(M.generators, 11060, DEFAULT_CAP, None, memo)
    assert tuple(zs) == factorization_graph(M, 11060).vertices
    stored = memo[(offsets, 60, 10)]
    assert {sum(z) for z in stored} == {10}
    fresh = _search(offsets, 1, [(60, 11)], DEFAULT_CAP, None)
    assert fresh == [(z[0] + 1, *z[1:]) for z in stored]
    assert sorted(zs) == sorted(fresh)


def test_the_class_memo_is_bounded_by_the_vectors_it_holds(monkeypatch):
    # with room for 6 vectors the memo drops its oldest classes, and the
    # lifted graphs stay those of the scan; clear_caches() empties it
    clear_caches()
    monkeypatch.setattr(shifted._class_memo, "limit", 6)
    for n in range(1000, 1010):
        M = monoid_at(F, n).monoid
        assert _betti_graphs(M, None) == presentations._betti_impl(M, None)
        memo = shifted._class_memo
        assert memo.held == sum(map(len, memo.values())) <= 6
    assert shifted._class_memo
    clear_caches()
    assert not shifted._class_memo and shifted._class_memo.held == 0


def test_the_class_memo_keeps_the_cap():
    # a warm class counts toward the cap as a fresh one does: Z(11280) at
    # M_450 has 3 vectors, refused under a cap of 2 whether memoized or not
    clear_caches()
    gens = monoid_at(F, 450).monoid.generators
    memo = shifted._class_memo
    assert len(_enumerate_sliced(gens, 11280, DEFAULT_CAP, None, memo)) == 3
    with pytest.raises(BudgetExceeded, match="more than 2 "):
        _enumerate_sliced(gens, 11280, 2, None, memo)
    clear_caches()
    with pytest.raises(BudgetExceeded, match="more than 2 "):
        _enumerate_sliced(gens, 11280, 2, None, memo)
