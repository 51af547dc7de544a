import time

import pytest

from numonoid import (
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
    congruence_closure_check,
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


def _swap_pair_at_11280(monkeypatch, make):
    # the router moves each base relation to M_450 with _shift; the pair it
    # moves to 11280 is replaced by make(left, right)
    import numonoid.shifted as shifted_mod

    real = shifted_mod._shift
    target = monoid_at(F, 450).monoid

    def tampered(F_, left, right, steps):
        left, right = real(F_, left, right, steps)
        if target.evaluate(left) == 11280:
            return make(left, right)
        return left, right

    monkeypatch.setattr(shifted_mod, "_shift", tampered)


def _tamper_join(monkeypatch):
    # sides that share support, hence sit in the same component
    assert 20 * 450 + 5 * 456 == 21 * 450 + 2 * 456 + 2 * 459 == 11280
    _swap_pair_at_11280(monkeypatch, lambda l, r: ((21, 2, 2, 0), (20, 5, 0, 0)))


def _tamper_factor(monkeypatch):
    # the right side swapped for a factorization of 1368, so the pair is
    # not a relation of M_450: its sides are not both in Z(11280)
    assert 3 * 456 == 450 + 2 * 459 == 1368
    _swap_pair_at_11280(monkeypatch, lambda l, r: (l, (1, 0, 2, 0)))


def _tamper_span(monkeypatch):
    # the graph at 11280 reports its two-member component as two, so the
    # one lifted relation there leaves a component unjoined
    import numonoid.shifted as shifted_mod

    real = shifted_mod.factorization_graph

    def split(M, a, **kwargs):
        g = real(M, a, **kwargs)
        if a != 11280:
            return g
        comps = []
        for comp in g.components:
            comps += [comp[:1], comp[1:]] if len(comp) > 1 else [comp]
        assert len(comps) == len(g.components) + 1
        return FactorizationGraph(a, g.vertices, tuple(sorted(comps)))

    monkeypatch.setattr(shifted_mod, "factorization_graph", split)


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
    # each tampered lift, with the message of the check that fired
    tamper(monkeypatch)
    with pytest.raises(VerificationFailed, match=message):
        accelerated_minimal_presentation(F, 450)
