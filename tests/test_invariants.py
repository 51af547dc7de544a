import time
import tracemalloc

import pytest

from numonoid import invariants
from numonoid import (
    BudgetExceeded,
    CatenaryReport,
    DeltaSet,
    InvalidInput,
    LengthProfile,
    NotAnElement,
    NotPrimitive,
    NumericalMonoid,
    ShiftedFamily,
    TameReport,
    VerificationFailed,
    catenary_of_element,
    catenary_of_monoid,
    default_window,
    delta_set,
    delta_set_of_element,
    frobenius,
    monoid_at,
    monoid_catenary_report,
    monotone_equal_catenary,
    tame_degree,
    tame_degree_windowed,
)

M = NumericalMonoid((6, 9, 20))
F = ShiftedFamily((6, 9, 20))


def test_default_window():
    assert default_window(M) == 9 * 20 + 2 * 20
    assert default_window(NumericalMonoid((5,))) == 5 * 5 + 2 * 5


def test_catenary_of_element():
    assert catenary_of_element(M, 60) == 7
    assert catenary_of_element(M, 18) == 3
    assert catenary_of_element(M, 6) == 0  # unique factorization
    assert catenary_of_element(NumericalMonoid((74, 77, 88)), 1078) == 11
    with pytest.raises(NotAnElement):
        catenary_of_element(M, 7)


def test_catenary_of_monoid():
    assert catenary_of_monoid(M) == 7
    assert catenary_of_monoid(NumericalMonoid((2, 3))) == 3
    assert catenary_of_monoid(NumericalMonoid((1,))) == 0
    M401 = NumericalMonoid((401, 407, 410, 421))
    assert catenary_of_monoid(M401) == 23
    # a precomputed Betti list short-circuits the scan
    assert (
        catenary_of_monoid(M401, betti=[1221, 2867, 3280, 9223, 9229, 9262])
        == 23
    )


def test_monotone_equal_catenary():
    # 1078 in <74,77,88> forces a detour through a longer factorization:
    # the monotone and equal degrees exceed the ordinary one
    H = NumericalMonoid((74, 77, 88))
    assert monotone_equal_catenary(H, 1078) == (14, 14)
    assert catenary_of_element(H, 1078) == 11
    # all length classes of Z(60) are singletons
    assert monotone_equal_catenary(M, 60) == (7, 0)
    assert monotone_equal_catenary(M, 126) == (14, 14)
    assert monotone_equal_catenary(NumericalMonoid((2, 3)), 6) == (3, 0)
    assert monotone_equal_catenary(M, 6) == (0, 0)
    with pytest.raises(NotAnElement):
        monotone_equal_catenary(M, 7)


def test_per_element_equal_degree_counts_connected_length_classes():
    # the windowed sweep skips a length class connected under shared atoms,
    # as some smaller element already bounds it; an element on its own has
    # no smaller elements, so its degree must still count such a class.
    # Z(13) in <3,5,7> is the one class {(2,0,1), (1,2,0)}, joined through
    # atom 3 and at distance 2
    assert monotone_equal_catenary(NumericalMonoid((3, 5, 7)), 13) == (2, 2)
    # every class of Z(132) in <6,9,20> is a singleton but length 15,
    # {(12,0,3), (1,14,0)}, joined through atom 6 and at distance 14
    assert monotone_equal_catenary(M, 132) == (14, 14)


def test_monoid_catenary_report_windowed():
    rep = monoid_catenary_report(M, window=200)
    assert rep == CatenaryReport(
        ordinary=7, monotone=14, equal=14, exact=False, window=200
    )
    with pytest.raises(InvalidInput):
        monoid_catenary_report(M, window=-2)
    # the running equal degree is 2 when the sweep reaches 33, whose one
    # length-3 class {(2,0,1,0), (0,3,0,0)} raises it to 3: a class only
    # one longer than the running max still counts
    rep = monoid_catenary_report(NumericalMonoid((9, 11, 15, 17)), window=40)
    assert rep == CatenaryReport(
        ordinary=5, monotone=3, equal=3, exact=False, window=40
    )
    # likewise the running monotone degree is 5 at 36, whose classes of
    # lengths 2 and 6, {(0,0,1,1)} and {(4,2,0,0)}, lie 6 apart
    rep = monoid_catenary_report(NumericalMonoid((4, 10, 15, 21)), window=40)
    assert rep == CatenaryReport(
        ordinary=6, monotone=6, equal=2, exact=False, window=40
    )


def test_monoid_catenary_report_scans_only_new_pairs_of_classes(monkeypatch):
    # the sweep enumerates only the elements whose length rows show a
    # disconnected length class or a pair of consecutive classes that is
    # new at a: no a - m_i has both s - 1 and l - 1 in its length set.  An
    # inherited pair, moved up by e_i, is no farther apart, and the running
    # max already holds it.  Scanning every pair took 73267 distances at
    # the default window (506) of <11,17,20,23>
    real = invariants._distance
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(invariants, "_distance", counting)
    rep = monoid_catenary_report(NumericalMonoid((11, 17, 20, 23)))
    assert (rep.monotone, rep.equal, rep.window) == (7, 2, 506)
    assert calls <= 50


@pytest.mark.parametrize("sweep", [delta_set, monoid_catenary_report])
def test_length_rows_hold_memory_linear_in_the_window(sweep):
    # the length pass holds a few rows of w + 1 bits; all 10^4 rows of
    # <2,3> at window 2 * 10^4 would take 25 MB.  A row grows by at most
    # m_t bits, so at window 10^8 the deadline stops the pass long before
    # a row, or the window's mask, nears its 12.5 MB
    tracemalloc.start()
    try:
        sweep(NumericalMonoid((2, 3)), window=20000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(BudgetExceeded):
            sweep(M, window=10**8, deadline=time.monotonic() + 0.2)
        huge = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert huge < 2**20


def test_monoid_catenary_report_family_exact():
    # the family regime is read off the generators: m_1 = 450 > 20^2
    M450 = monoid_at(F, 450).monoid
    rep = monoid_catenary_report(M450)
    # bottleneck sits at the largest Betti element 11706, whose two
    # factorizations (25,1,0,0) and (0,0,4,21) are distance 26 apart; the
    # equal degree is that of the offsets' graded monoid, 8 at every shift
    assert rep == CatenaryReport(
        ordinary=26, monotone=26, equal=8, exact=True, window=None
    )
    # an explicit window still forces the windowed sweep
    rep = monoid_catenary_report(M450, window=900)
    assert not rep.exact and rep.window == 900 and rep.ordinary == 26


@pytest.mark.parametrize(
    "gens, equal",
    [
        # (1,-3,2) generates the equal-length kernel: 36 has the length-3
        # factorizations (1,0,2) and (0,3,0), 3 apart
        ((10, 12, 13), 3),
        # one factorization of each length
        ((5, 6), 0),
        # the offsets (6,9,20) give 8 at every shift
        ((1000000001, 1000000007, 1000000010, 1000000021), 8),
        # offsets (1, 430) at n = 430^2 + 1, and (1, 1000) at 10^6 + 1: read
        # off the Betti graphs, with no window of about (r_k/d)^3 bits
        ((184901, 184902, 185331), 430),
        ((10**6 + 1, 10**6 + 2, 10**6 + 1001), 1000),
    ],
)
def test_family_equal_catenary_is_that_of_the_offsets(gens, equal):
    M = NumericalMonoid(gens)
    t0 = time.perf_counter()
    rep = monoid_catenary_report(M)
    assert time.perf_counter() - t0 < 5.0
    assert (rep.equal, rep.exact, rep.window) == (equal, True, None)
    if gens[0] < 100:
        # the windowed sweep at a wide window agrees, as a lower bound
        assert monoid_catenary_report(M, window=2000).equal == equal


def test_delta_set_of_element():
    assert delta_set_of_element(M, 60) == frozenset({1, 4})
    assert delta_set_of_element(M, 18) == frozenset({1})
    assert delta_set_of_element(M, 6) == frozenset()


def test_delta_set_windowed():
    ds = delta_set(M, window=200)
    assert ds == DeltaSet(frozenset({1, 2, 3, 4}), False, 200)
    assert min(ds.values) == 1
    ds = delta_set(NumericalMonoid((3, 14)))
    assert ds.values == frozenset({11})
    assert ds.window == default_window(NumericalMonoid((3, 14)))
    with pytest.raises(InvalidInput):
        delta_set(M, window=-2)
    # the length-set recurrence would run on <4,6>, but the sweeps are over
    # numerical monoids only
    with pytest.raises(NotPrimitive):
        delta_set(NumericalMonoid((4, 6)), window=50)


def test_delta_set_family_exact():
    assert delta_set(monoid_at(F, 450).monoid) == DeltaSet(
        frozenset({1}), True, None
    )
    G = ShiftedFamily((6, 9))
    assert delta_set(monoid_at(G, 82).monoid) == DeltaSet(
        frozenset({3}), True, None
    )
    # at the threshold itself (n = 25 = 5^2) the sweep still runs
    H = ShiftedFamily((3, 5))
    assert not delta_set(monoid_at(H, 25).monoid).exact
    assert delta_set(monoid_at(H, 26).monoid).exact


def test_delta_set_family_path_checks_the_betti_delta_sets(monkeypatch):
    # a Betti delta set other than {d} would be a bug, and is raised
    monkeypatch.setattr(
        invariants, "_profile", lambda a, zs: LengthProfile(a, (1, 3), (2,))
    )
    with pytest.raises(
        VerificationFailed, match=r"^Betti delta sets give \[2\], expected \{1\}$"
    ):
        delta_set(monoid_at(F, 450).monoid)


def test_tame_degree():
    assert tame_degree(M, 18) == 3
    assert tame_degree(M, 6) == 0
    assert tame_degree(NumericalMonoid((401, 407, 410, 421)), 10869) == 27
    with pytest.raises(NotAnElement):
        tame_degree(M, 7)


def test_tame_degree_windowed():
    assert tame_degree_windowed(M, window=200) == TameReport(10, 60, 200)
    # the sweep stops at F + 2 m_t = 201 here; the value is first reached
    # at 200, past F + m_1 + m_t = 196, and the report keeps the window
    S = NumericalMonoid((20, 24, 25))
    assert frobenius(S) == 151
    assert tame_degree_windowed(S, window=600) == TameReport(9, 200, 600)
    assert tame_degree_windowed(S) == TameReport(9, 200, default_window(S))
    with pytest.raises(InvalidInput):
        tame_degree_windowed(M, window=-3)


def test_tame_sweep_refuses_masks_past_its_bound(monkeypatch):
    # the sweep's masks span last + 1 bits, last = min(window, F + 2 m_t),
    # and are refused past 8 DEFAULT_CAP bits before any is built; on M
    # the sweep stops at 43 + 40 = 83, so window 80 is the largest allowed
    # under a cap of 10
    with monkeypatch.context() as patched:
        patched.setattr(invariants, "DEFAULT_CAP", 10)
        assert tame_degree_windowed(M, window=80) == TameReport(10, 60, 80)
        with pytest.raises(BudgetExceeded, match="narrow the window"):
            tame_degree_windowed(M, window=81)
    # F + 2 m_t is about 3 * 10^16 here: refused, with nothing allocated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            tame_degree_windowed(NumericalMonoid((2, 10**16 + 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tame_sweep_holds_at_most_five_masks(monkeypatch):
    # <893, 894> stops at F + 2 m_t = 798343, at the bound 8 DEFAULT_CAP
    # with the cap patched to 99793; the gate holds at most five masks of
    # last + 1 bits (CPython stores 30 bits in every 4 bytes), where it
    # held seven and a half
    monkeypatch.setattr(invariants, "DEFAULT_CAP", 99793)
    B = NumericalMonoid((893, 894))
    last = frobenius(B) + 2 * 894
    assert last == 8 * 99793 - 1
    tracemalloc.start()
    try:
        report = tame_degree_windowed(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == TameReport(894, 798342, default_window(B))
    assert peak < 5.5 * (last + 1) * 4 / 30


def _count(monkeypatch, name):
    """Record the second argument of every call to invariants.<name>."""
    seen, real = [], getattr(invariants, name)

    def counted(gens, a, *args, **kwargs):
        seen.append(a)
        return real(gens, a, *args, **kwargs)

    monkeypatch.setattr(invariants, name, counted)
    return seen


def test_tame_sweep_enumerates_only_the_witnesses(monkeypatch):
    # of the elements whose atom graph is not complete, only those with a
    # vertex i such that the vertices not adjacent to i generate them are
    # enumerated, one Z(a) each; the reports are those of the full sweep
    enumerated = _count(monkeypatch, "_enumerate")
    for gens, window, flagged, kept, report in (
        ((60, 66, 69, 80), 1200, 79, 10, TameReport(10, 654, 1200)),
        ((11, 17, 20, 23), 260, 29, 11, TameReport(7, 77, 260)),
        ((6, 9, 20), 310, 7, 3, TameReport(10, 60, 310)),
    ):
        S = NumericalMonoid(gens)
        last = min(window, frobenius(S) + 2 * gens[-1])
        mem = invariants._members(gens, last, None)
        gate = invariants._incomplete(gens, mem, last, None)
        assert gate.bit_count() == flagged
        witnesses = invariants._witnesses(gens, last, None)
        assert len(witnesses) == kept
        enumerated.clear()
        assert tame_degree_windowed(S, window=window) == report
        assert enumerated == witnesses


def test_tame_sweep_builds_few_masks_on_many_generators(monkeypatch):
    # <20, ..., 39> has 20 atoms: the witnesses are decided on one mask of
    # the monoid of each set J of non-adjacent atoms that occurs, at most
    # min(2^t - 1, t f) of them for f flagged elements, and no subset of
    # the atoms is enumerated
    S = NumericalMonoid(tuple(range(20, 40)))
    last = frobenius(S) + 2 * 39
    mem = invariants._members(S.generators, last, None)
    flagged = invariants._incomplete(S.generators, mem, last, None).bit_count()
    built = _count(monkeypatch, "_members")
    assert tame_degree_windowed(S) == TameReport(3, 60, 1560)
    assert built[0] == last and 1 < len(built) <= 1 + 20 * flagged


def test_tame_sweep_over_a_wide_mask():
    # F + 2 m_t = 336004 here, and 669 elements have an incomplete atom
    # graph, read in one pass over the bytes of the mask (_bits); none
    # of them needs a mask of its non-adjacent atoms
    S = NumericalMonoid((1000, 1001, 1003))
    assert tame_degree_windowed(S) == TameReport(335, 335000, 1006009)
    assert list(invariants._bits(0)) == []
    assert list(invariants._bits(1 << 100003 | 1 << 9 | 1)) == [0, 9, 100003]
    mask = sum(1 << a for a in range(5, 3000, 7))
    assert list(invariants._bits(mask)) == list(range(5, 3000, 7))


def test_generators_above_the_window_add_nothing():
    # a shift by 10^16 + 1 would take petabytes; the sweeps drop the
    # generator, and each even element up to 10 has one factorization.
    # The ordinary degree is exact, from the Betti element 2 (10^16 + 1)
    B = NumericalMonoid((2, 10**16 + 1))
    for w in (10, 1, 0):  # at window 1 < m_1 only 0 is in the window
        assert delta_set(B, window=w) == DeltaSet(frozenset(), False, w)
        assert monoid_catenary_report(B, window=w) == CatenaryReport(
            10**16 + 1, 0, 0, False, w
        )
        assert tame_degree_windowed(B, window=w) == TameReport(0, 0, w)


def test_tame_degree_windowed_matches_brute_force():
    from numonoid import factorization_buckets
    from numonoid.core import contains
    from numonoid.factorizations import distance

    # on <11,17,20,23> most scans over an atom's users stop early (496 of
    # 669 in this window, against 85 of 221 on M)
    for S, window in ((M, 120), (NumericalMonoid((11, 17, 20, 23)), 150)):
        buckets = factorization_buckets(S.generators, window)
        best, attained = -1, None
        for a in range(window + 1):
            zs = buckets.get(a, [])
            if not zs:
                continue
            ta = 0
            for i, g in enumerate(S.generators):
                if a < g or not contains(S, a - g):
                    continue
                users = [z for z in zs if z[i] > 0]
                for z in zs:
                    if z[i] == 0:
                        ta = max(ta, min(distance(z, zp) for zp in users))
            if ta > best:
                best, attained = ta, a
        rep = tame_degree_windowed(S, window=window)
        assert (rep.value, rep.attained_at) == (best, attained)


def test_deadline_is_enforced():
    past = time.monotonic() - 1.0
    with pytest.raises(BudgetExceeded):
        catenary_of_monoid(NumericalMonoid((401, 407, 410, 421)), deadline=past)
    with pytest.raises(BudgetExceeded):
        delta_set(M, window=200, deadline=past)
    with pytest.raises(BudgetExceeded):
        tame_degree_windowed(M, window=200, deadline=past)
    with pytest.raises(BudgetExceeded):
        monoid_catenary_report(M, window=200, deadline=past)
