import gc
import time

import pytest

from numonoid import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidInput,
    NotAnElement,
    NumericalMonoid,
    clear_caches,
    distance,
    factorizations,
    length_profile,
)
from numonoid.core import DEFAULT_CAP, _SizedMemo
from numonoid.factorizations import (
    _enumerate_generic,
    _enumerate_sliced,
    _sliced_is_cheaper,
)
from numonoid.oracle import factorization_buckets

M6920 = NumericalMonoid((6, 9, 20))


def test_factorizations_of_60():
    # ten 6s; or trade 6s for 9s two-at-a-time; or three 20s
    assert factorizations(M6920, 60) == [
        (0, 0, 3),
        (1, 6, 0),
        (4, 4, 0),
        (7, 2, 0),
        (10, 0, 0),
    ]


def test_factorizations_of_18():
    assert factorizations(M6920, 18) == [(0, 2, 0), (3, 0, 0)]


def test_emission_order_is_reversed_lex_descending():
    for a in (18, 60, 126, 200):
        zs = factorizations(M6920, a)
        assert zs == sorted(zs, key=lambda z: tuple(reversed(z)), reverse=True)


def test_three_generator_fixture_with_larger_atoms():
    zs = factorizations(NumericalMonoid((74, 77, 88)), 1078)
    assert set(zs) == {(0, 14, 0), (11, 0, 3), (0, 6, 7)}
    zs = factorizations(NumericalMonoid((88, 91, 102)), 1274)
    assert set(zs) == {(0, 14, 0), (11, 0, 3)}


def test_edge_cases():
    assert factorizations(M6920, 0) == [(0, 0, 0)]
    assert factorizations(M6920, 6) == [(1, 0, 0)]
    assert factorizations(M6920, 43) == []
    assert factorizations(NumericalMonoid((1,)), 5) == [(5,)]
    assert factorizations(NumericalMonoid((3,)), 9) == [(3,)]
    assert factorizations(NumericalMonoid((3,)), 10) == []
    with pytest.raises(InvalidInput):
        factorizations(M6920, -6)


def test_nonminimal_tuple_enumerates_all_vectors():
    # 18 = 3*6 = 2*9 = 6+12 = one 18; the redundant atom gets coordinates too
    zs = factorizations(NumericalMonoid((6, 9, 18)), 18)
    assert set(zs) == {(3, 0, 0), (0, 2, 0), (0, 0, 1)}


def test_cap_budget():
    assert len(factorizations(M6920, 60, cap=5)) == 5
    with pytest.raises(BudgetExceeded):
        factorizations(M6920, 60, cap=4)
    with pytest.raises(InvalidInput):
        factorizations(M6920, 60, cap=-1)


def test_sliced_search_honours_the_deadline():
    # few lengths and many offset combinations: the sliced search is chosen
    # and reads the clock every few thousand steps
    M = NumericalMonoid((100, 101, 102, 103, 104))
    assert _sliced_is_cheaper(M.generators, 50000)
    with pytest.raises(BudgetExceeded):
        factorizations(M, 50000, deadline=time.monotonic() - 1)


def test_generic_search_honours_the_deadline():
    # about 5000 tails for a single vector, so the generic search reads the
    # clock at least once; _enumerate would pick the sliced search here
    gens, a = (1000, 1001, 1002, 1003), 10**5
    assert _sliced_is_cheaper(gens, a)
    assert _enumerate_generic(gens, a) == [(100, 0, 0, 0)]
    with pytest.raises(BudgetExceeded, match="deadline"):
        _enumerate_generic(gens, a, DEFAULT_CAP, time.monotonic() - 1)


@pytest.mark.parametrize("memo", [None, 10**5], ids=["no-memo", "memo"])
def test_the_sliced_search_reads_the_deadline_across_slices(memo):
    # 59 length slices of under 4096 tails each: a fold that reads the clock
    # only inside one slice's search never reads it here, and runs on to
    # the 10^7 cap.  A cap is named as the caller gave it, memoized classes
    # counted in.
    gens, a = (100, 101, 102, 103), 2 * 10**5 + 1
    classes = None if memo is None else _SizedMemo(memo)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="deadline"):
        _enumerate_sliced(gens, a, DEFAULT_CAP, time.monotonic() - 1, classes)
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(BudgetExceeded, match="more than 5000 "):
        _enumerate_sliced(gens, a, 5000, None, classes)


def test_length_profile_fixtures():
    p = length_profile(M6920, 60)
    assert p.lengths == (3, 7, 8, 9, 10)
    assert p.deltas == (4, 1, 1, 1)
    assert p.min_length == 3 and p.max_length == 10
    assert length_profile(M6920, 18).deltas == (1,)
    assert length_profile(M6920, 6).lengths == (1,)
    assert length_profile(M6920, 6).deltas == ()
    with pytest.raises(NotAnElement):
        length_profile(M6920, 43)


@pytest.mark.parametrize("gens", [(6, 9, 20), (3, 14)])
def test_min_length_recurrence_past_product_of_top_generators(gens):
    M = NumericalMonoid(gens)
    lo = gens[-2] * gens[-1]
    for a in range(lo + 1, lo + 3 * gens[-1] + 1):
        m_a = length_profile(M, a).min_length
        m_next = length_profile(M, a + gens[-1]).min_length
        assert m_next == m_a + 1


def test_distance_fixtures():
    assert distance((0, 14, 0), (11, 0, 3)) == 14
    assert distance((10, 0, 0), (7, 2, 0)) == 3
    assert distance((3, 0, 0), (0, 2, 0)) == 3
    assert distance((1, 6, 0), (0, 0, 3)) == 7
    assert distance((5, 1, 2), (5, 1, 2)) == 0
    assert distance((0, 14, 0), (11, 0, 3)) == distance((11, 0, 3), (0, 14, 0))
    with pytest.raises(DimensionMismatch):
        distance((1, 2), (1, 2, 3))


def test_repeated_calls_are_deterministic():
    assert factorizations(M6920, 126) == factorizations(M6920, 126)


def test_searches_leave_no_cyclic_garbage():
    # a recursive search whose closure kept itself alive would hold its
    # results until the next full collection
    shifted = NumericalMonoid((1000, 1006, 1009, 1020))
    assert not _sliced_is_cheaper(M6920.generators, 600)
    assert _sliced_is_cheaper(shifted.generators, 30018)
    clear_caches()  # so that the oracle's sweep runs, not its cache
    gc.collect()
    gc.disable()
    try:
        for run in (
            lambda: factorizations(M6920, 600),
            lambda: factorizations(shifted, 30018),
            lambda: factorization_buckets((6, 9, 20), 101),
        ):
            assert run()
            assert gc.collect() == 0
    finally:
        gc.enable()
