import time
import tracemalloc

import pytest

from numonoid import core, presentations
from numonoid import (
    BudgetExceeded,
    InvalidGenerators,
    InvalidInput,
    DimensionMismatch,
    NotMinimal,
    NotPrimitive,
    NumericalMonoid,
    ShiftedFamily,
    all_minimal_presentations,
    apery,
    clear_caches,
    contains,
    delta_set,
    factorizations,
    frobenius,
    lift_presentation,
    minimal_presentation,
    monoid_at,
    monoid_catenary_report,
    normalize_generators,
    tame_degree_windowed,
)


def test_constructor_validates_ordering_and_positivity():
    with pytest.raises(InvalidGenerators):
        NumericalMonoid(())
    with pytest.raises(InvalidGenerators):
        NumericalMonoid((0, 3))
    with pytest.raises(InvalidGenerators):
        NumericalMonoid((-2, 5))
    with pytest.raises(InvalidGenerators):
        NumericalMonoid((5, 5))
    with pytest.raises(InvalidGenerators):
        NumericalMonoid((9, 6))


def test_constructor_accepts_nonminimal_and_nonprimitive_tuples():
    # validation is syntactic; minimality is normalize_generators' job
    assert NumericalMonoid((4, 6)).gcd == 2
    assert NumericalMonoid((6, 9, 18)).generators == (6, 9, 18)


def test_basic_properties():
    M = NumericalMonoid((6, 9, 20))
    assert M.t == 3
    assert M.multiplicity == 6
    assert M.gcd == 1
    assert M.is_primitive
    assert not NumericalMonoid((4, 6)).is_primitive


def test_instances_are_immutable_and_hashable():
    M = NumericalMonoid((6, 9, 20))
    with pytest.raises(AttributeError):
        M.generators = (2, 3)
    assert M == NumericalMonoid((6, 9, 20))
    assert M != NumericalMonoid((2, 3))
    assert {M: "x"}[NumericalMonoid((6, 9, 20))] == "x"


def test_evaluate():
    M = NumericalMonoid((6, 9, 20))
    assert M.evaluate((0, 0, 0)) == 0
    assert M.evaluate((1, 2, 0)) == 24
    assert M.evaluate((10, 0, 0)) == 60
    with pytest.raises(DimensionMismatch):
        M.evaluate((1, 2))
    with pytest.raises(InvalidInput):
        M.evaluate((1, -1, 0))


@pytest.mark.parametrize(
    "coords, error, message",
    [
        ((1, 2, 3), DimensionMismatch, "expected 2 coordinates, got 3"),
        ((True, 0), InvalidInput, "coordinates must be integers"),
        ((1, 2.0), InvalidInput, "coordinates must be integers"),
        ((0, -1), InvalidInput, "coordinates must be non-negative"),
        # the type check comes before the sign check
        ((-1, 1.5), InvalidInput, "coordinates must be integers"),
    ],
)
def test_evaluate_refusals_keep_their_class_and_message(coords, error, message):
    with pytest.raises(error) as info:
        NumericalMonoid((3, 5)).evaluate(coords)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "raw,expected",
    [
        ((9, 6, 20, 6, 18), (6, 9, 20)),
        ((2, 4, 7), (2, 7)),
        ((1, 5), (1,)),
        ((4, 6), (4, 6)),
        ((6, 9, 20), (6, 9, 20)),
    ],
)
def test_normalize_generators(raw, expected):
    M = normalize_generators(raw)
    assert M.generators == expected
    # idempotent
    assert normalize_generators(M.generators).generators == expected


def test_normalization_reads_the_apery_table_of_the_quotient():
    # the coin sieve it replaced allocated max(raw) bytes; the table of
    # <2, 3> has two entries
    clear_caches()
    tracemalloc.start()
    try:
        M = normalize_generators((2, 3, 10**7 + 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.generators == (2, 3)
    assert peak < 10**6


@pytest.mark.parametrize(
    "gens,redundant", [((6, 9, 15, 20), 15), ((2, 3, 10**7 + 2), 10**7 + 2)]
)
def test_the_scan_refuses_a_redundant_tuple_without_enumerating(
    gens, redundant, monkeypatch
):
    def enumerate_(*args):
        raise AssertionError("the minimality test enumerated")

    monkeypatch.setattr(presentations, "_enumerate", enumerate_)
    clear_caches()
    with pytest.raises(NotMinimal, match=f"^generator {redundant} is"):
        minimal_presentation(NumericalMonoid(gens))


def test_apery_fixtures():
    table = apery(NumericalMonoid((6, 9, 20)))
    assert len(table) == 6
    # smallest element in each residue class mod 6
    assert table == (0, 49, 20, 9, 40, 29)
    assert apery(NumericalMonoid((3, 14))) == (0, 28, 14)
    assert apery(NumericalMonoid((2, 3))) == (0, 3)
    assert apery(NumericalMonoid((1,))) == (0,)


def test_apery_requires_primitive():
    with pytest.raises(NotPrimitive):
        apery(NumericalMonoid((4, 6)))
    # before the size cap, so the direct scan of a large non-primitive
    # tuple is refused as invalid input, not as a budget
    with pytest.raises(NotPrimitive):
        minimal_presentation(NumericalMonoid((2 * 10**7, 2 * 10**7 + 2)))


def test_apery_honours_the_deadline_and_caches_nothing_refused():
    M = NumericalMonoid((6, 9, 20))
    clear_caches()
    with pytest.raises(BudgetExceeded):
        apery(M, deadline=time.monotonic() - 1)
    # the refused call stored nothing, so a second one is refused too
    with pytest.raises(BudgetExceeded):
        apery(M, deadline=time.monotonic() - 1)
    table = apery(M)
    assert table == (0, 49, 20, 9, 40, 29)
    # a memoized table is returned whatever the deadline
    assert apery(M, deadline=time.monotonic() - 1) is table
    clear_caches()
    with pytest.raises(BudgetExceeded):
        apery(M, deadline=time.monotonic() - 1)


def test_the_apery_memo_is_bounded_by_the_entries_it_holds(monkeypatch):
    # with room for 30 entries, tables of 10, 12 and 14 entries drop the
    # oldest; a table longer than the bound is returned and not stored
    clear_caches()
    monkeypatch.setattr(core._apery_memo, "limit", 30)
    small = [NumericalMonoid((m, m + 1)) for m in (10, 12, 14)]
    for M in small:
        apery(M)
    assert list(core._apery_memo) == small[1:]
    assert core._apery_memo.held == 26
    big = NumericalMonoid((31, 32))
    assert len(apery(big)) == 31
    assert list(core._apery_memo) == small[1:]
    clear_caches()
    assert not core._apery_memo and core._apery_memo.held == 0


def test_a_sized_memo_with_a_constant_size_counts_entries():
    # the scan and lift memos count each entry as 1: three entries fit, a
    # fourth drops the oldest, and clear() resets what it holds
    memo = core._SizedMemo(3, lambda value: 1)
    for key in "abcd":
        assert memo.remember(key, [key] * 5) == [key] * 5
    assert list(memo) == ["b", "c", "d"] and memo.held == 3
    memo.clear()
    assert not memo and memo.held == 0


def test_direct_scan_stops_in_the_apery_stage(monkeypatch):
    # a past deadline stops the scan before the candidate kernel runs
    def kernel(*args):
        raise AssertionError("the kernel ran past the deadline")

    monkeypatch.setattr(presentations, "_split_candidates", kernel)
    clear_caches()
    with pytest.raises(BudgetExceeded):
        minimal_presentation(
            NumericalMonoid((401, 407, 410, 421)), deadline=time.monotonic() - 1
        )


def test_frobenius():
    assert frobenius(NumericalMonoid((6, 9, 20))) == 43
    assert frobenius(NumericalMonoid((3, 14))) == 25
    assert frobenius(NumericalMonoid((2, 3))) == 1
    assert frobenius(NumericalMonoid((1,))) == -1


def test_contains():
    M = NumericalMonoid((6, 9, 20))
    assert contains(M, 0)
    assert contains(M, 6)
    assert not contains(M, 7)
    assert not contains(M, 43)
    # everything past the Frobenius number is in
    assert all(contains(M, a) for a in range(44, 120))
    with pytest.raises(InvalidInput):
        contains(M, -1)


M6920 = NumericalMonoid((6, 9, 20))
F6920 = ShiftedFamily((6, 9, 20))


def _lift_by(steps):
    base = minimal_presentation(monoid_at(F6920, 401).monoid)
    return lift_presentation(F6920, 401, base, steps)


# each entry point and the error it raises for a non-integer, a bool or a
# negative value
GATES = [
    pytest.param(
        lambda bad: NumericalMonoid((bad, 9, 20)),
        InvalidGenerators,
        id="NumericalMonoid",
    ),
    pytest.param(
        lambda bad: normalize_generators((bad, 9, 20)),
        InvalidGenerators,
        id="normalize_generators",
    ),
    pytest.param(
        lambda bad: normalize_generators((9, bad)),
        InvalidGenerators,
        id="normalize_generators-mixed",
    ),
    pytest.param(
        lambda bad: ShiftedFamily((bad, 9, 20)),
        InvalidGenerators,
        id="ShiftedFamily",
    ),
    pytest.param(
        lambda bad: monoid_at(F6920, bad),
        InvalidInput,
        id="monoid_at",
    ),
    pytest.param(
        lambda bad: contains(M6920, bad),
        InvalidInput,
        id="contains",
    ),
    pytest.param(
        lambda bad: factorizations(M6920, bad),
        InvalidInput,
        id="factorizations-element",
    ),
    pytest.param(
        lambda bad: factorizations(M6920, 60, cap=bad),
        InvalidInput,
        id="factorizations-cap",
    ),
    pytest.param(
        lambda bad: all_minimal_presentations(M6920, cap=bad),
        InvalidInput,
        id="all_minimal_presentations-cap",
    ),
    pytest.param(
        _lift_by,
        InvalidInput,
        id="lift_presentation-steps",
    ),
    pytest.param(
        lambda bad: tame_degree_windowed(M6920, window=bad),
        InvalidInput,
        id="tame_degree_windowed-window",
    ),
    pytest.param(
        lambda bad: delta_set(M6920, window=bad),
        InvalidInput,
        id="delta_set-window",
    ),
    pytest.param(
        lambda bad: monoid_catenary_report(M6920, window=bad),
        InvalidInput,
        id="monoid_catenary_report-window",
    ),
]


@pytest.mark.parametrize("bad", [6.5, 6.0, "6", True, -1])
@pytest.mark.parametrize("call,error", GATES)
def test_non_integers_are_refused_not_truncated(call, error, bad):
    with pytest.raises(error):
        call(bad)


def test_the_gates_name_what_they_refuse():
    with pytest.raises(InvalidGenerators, match="integers"):
        normalize_generators(("6", 9))
    with pytest.raises(InvalidGenerators, match="integers"):
        ShiftedFamily((6.7, 9, 20))
    with pytest.raises(InvalidInput, match="^window must be a non-negative"):
        tame_degree_windowed(M6920, window=50.5)

    class Eighteen:  # an integer type other than int, as numpy's are
        def __index__(self):
            return 18

    assert contains(M6920, Eighteen())
