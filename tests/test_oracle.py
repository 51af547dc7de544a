import pytest

from numonoid import (
    InvalidInput,
    NotARelation,
    NumericalMonoid,
    congruence_closure_check,
    factorization_buckets,
    minimal_presentation,
    monotone_chain_search,
    naive_betti_scan,
    reachable_up_to,
)

M6920 = NumericalMonoid((6, 9, 20))
REL18 = ((3, 0, 0), (0, 2, 0))
REL60 = ((1, 6, 0), (0, 0, 3))


def test_reachable_sieve():
    reach = reachable_up_to((6, 9, 20), 50)
    assert reach[0]
    for a in (6, 9, 12, 15, 18, 20, 26, 29, 40):
        assert reach[a]
    for a in (1, 2, 3, 4, 5, 7, 43):
        assert not reach[a]
    assert all(reach[44:])


def test_buckets_enumerate_everything_by_value():
    buckets = factorization_buckets((6, 9, 20), 120)
    assert set(buckets[60]) == {
        (10, 0, 0),
        (7, 2, 0),
        (4, 4, 0),
        (1, 6, 0),
        (0, 0, 3),
    }
    assert set(buckets[18]) == {(3, 0, 0), (0, 2, 0)}
    assert 43 not in buckets
    for value, zs in buckets.items():
        for z in zs:
            assert 6 * z[0] + 9 * z[1] + 20 * z[2] == value


def test_closure_accepts_a_generating_set():
    assert congruence_closure_check(M6920, [REL18, REL60], 200).ok


def test_closure_detects_a_missing_relation():
    report = congruence_closure_check(M6920, [REL18], 200)
    assert not report.ok
    assert report.failures[0][0] == 60
    assert report.verified_window == 200


def test_closure_with_no_relations():
    # below the first element with two factorizations nothing is needed
    M = NumericalMonoid((2, 3))
    assert congruence_closure_check(M, [], 5).ok
    report = congruence_closure_check(M, [], 6)
    assert not report.ok and report.failures[0][0] == 6
    # a negative window is refused rather than vacuously passed
    with pytest.raises(InvalidInput):
        congruence_closure_check(M, [], -5)


def test_closure_rejects_malformed_relations():
    with pytest.raises(NotARelation):
        congruence_closure_check(M6920, [((1, 0, 0), (0, 1, 0))], 50)
    with pytest.raises(NotARelation):
        congruence_closure_check(M6920, [((1, 0), (0, 1))], 50)
    with pytest.raises(NotARelation):
        congruence_closure_check(M6920, [((3, -1, 0), (0, 1, 0))], 50)
    with pytest.raises(NotARelation):
        congruence_closure_check(M6920, [((1.5, 0, 0), (0, 1, 0))], 50)
    with pytest.raises(NotARelation):
        congruence_closure_check(M6920, [((3, 0, 0), (0, 2, False))], 50)


@pytest.mark.parametrize("bad", [20.5, 20.0, "20", True, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: reachable_up_to((6, 9, 20), bad),
        lambda bad: factorization_buckets((6, 9, 20), bad),
        lambda bad: congruence_closure_check(M6920, [], bad),
        lambda bad: naive_betti_scan(M6920, bad),
    ],
    ids=["reachable", "buckets", "closure", "betti_scan"],
)
def test_oracle_refuses_a_bound_that_is_not_a_non_negative_int(call, bad):
    # a float bound once gave float "vectors" and a bool window a report
    # with verified_window=True
    with pytest.raises(InvalidInput):
        call(bad)


@pytest.mark.parametrize(
    "gens,bound,expected",
    [
        ((6, 9, 20), 200, [18, 60]),
        ((2, 3), 30, [6]),
        ((3, 14), 100, [42]),
        ((4, 6, 9), 80, [12, 18]),
        ((6, 10, 15), 80, [30]),
    ],
)
def test_naive_betti_scan(gens, bound, expected):
    assert naive_betti_scan(NumericalMonoid(gens), bound) == expected


def test_monotone_chain_needs_the_direct_step_between_equal_lengths():
    # Z(1078) = {(0,14,0), (11,0,3), (0,6,7)} with lengths 14, 14, 13.
    # The route through (0,6,7) dips in length, so the two length-14
    # factorizations are monotonically connected only by a direct move.
    M = NumericalMonoid((74, 77, 88))
    rels = minimal_presentation(M).relations
    assert not monotone_chain_search(M, 1078, (0, 14, 0), (11, 0, 3), rels)
    extended = list(rels) + [((0, 14, 0), (11, 0, 3))]
    assert monotone_chain_search(M, 1078, (0, 14, 0), (11, 0, 3), extended)
    # ordinary (non-monotone) connectivity holds without the extra relation
    assert congruence_closure_check(M, rels, 1100).ok


def test_monotone_chain_trivial_and_connected_cases():
    rels = minimal_presentation(M6920).relations
    assert monotone_chain_search(M6920, 60, (10, 0, 0), (10, 0, 0), rels)
    assert monotone_chain_search(M6920, 60, (10, 0, 0), (0, 0, 3), rels)
    assert monotone_chain_search(M6920, 60, (0, 0, 3), (10, 0, 0), rels)


def test_monotone_chain_validates_endpoints():
    rels = minimal_presentation(M6920).relations
    with pytest.raises(InvalidInput):
        monotone_chain_search(M6920, 60, (9, 0, 0), (0, 0, 3), rels)
    with pytest.raises(InvalidInput):
        monotone_chain_search(M6920, 60, (10, 0), (0, 0, 3), rels)
