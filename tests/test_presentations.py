import heapq
import itertools
import time

import pytest

from numonoid import core, presentations
from numonoid import (
    BudgetExceeded,
    InvalidInput,
    NotAnElement,
    NotARelation,
    NotMinimal,
    NotPrimitive,
    NumericalMonoid,
    ShiftedFamily,
    all_minimal_presentations,
    apery,
    betti_elements,
    clear_caches,
    congruence_closure_check,
    factorization_graph,
    make_presentation,
    make_relation,
    minimal_presentation,
    monoid_at,
    naive_betti_scan,
)
from numonoid.presentations import _labeled_trees, _spanning_tree_count
from numonoid.shifted import _betti_graphs

M6920 = NumericalMonoid((6, 9, 20))


def test_make_relation_canonicalizes_side_order():
    r = make_relation(M6920, (0, 2, 0), (3, 0, 0))
    assert r.left == (3, 0, 0) and r.right == (0, 2, 0)
    assert r.betti == 18
    assert r.pair() == ((3, 0, 0), (0, 2, 0))
    # equal lengths: larger tuple goes left
    r = make_relation(M6920, (0, 0, 3), (1, 6, 0))
    assert r.left == (1, 6, 0)


def test_make_relation_validates():
    with pytest.raises(NotARelation):
        make_relation(M6920, (1, 0, 0), (0, 1, 0))
    with pytest.raises(NotARelation):
        make_relation(M6920, (1, 2, 0), (1, 2, 0))
    # a fractional coordinate is not a factorization, even when the value
    # it gives is a member
    with pytest.raises(InvalidInput):
        make_relation(M6920, (1.5, 0, 0), (0, 1, 0))
    # nor is a boolean one, though bool is an int subclass
    with pytest.raises(InvalidInput):
        make_relation(M6920, (3, 0, 0), (0, 2, False))


def test_factorization_graph_components():
    g = factorization_graph(M6920, 18)
    assert g.vertices == ((0, 2, 0), (3, 0, 0))
    assert g.components == (((0, 2, 0),), ((3, 0, 0),))
    assert len(factorization_graph(M6920, 126).components) == 1
    assert len(factorization_graph(M6920, 6).components) == 1
    with pytest.raises(NotAnElement):
        factorization_graph(M6920, 43)


def test_graph_components_sorted_by_lexmin_member():
    g = factorization_graph(M6920, 60)
    # components hold the factorizations themselves, each sorted
    assert g.components == (
        ((0, 0, 3),),
        ((1, 6, 0), (4, 4, 0), (7, 2, 0), (10, 0, 0)),
    )


@pytest.mark.parametrize(
    "gens,expected",
    [
        ((6, 9, 20), [18, 60]),
        ((2, 3), [6]),
        ((3, 14), [42]),
        ((4, 6, 9), [12, 18]),
        ((6, 10, 15), [30]),
        ((450, 456, 459, 470), [1368, 3210, 3672, 11280, 11700, 11706]),
    ],
)
def test_betti_elements(gens, expected):
    assert betti_elements(NumericalMonoid(gens)) == expected


def test_betti_standing_assumptions():
    with pytest.raises(NotPrimitive):
        betti_elements(NumericalMonoid((4, 6)))
    with pytest.raises(NotMinimal):
        betti_elements(NumericalMonoid((6, 9, 15, 20)))  # 15 = 6 + 9


def test_minimal_presentation_two_generators():
    pres = minimal_presentation(NumericalMonoid((2, 3)))
    assert [(r.betti, r.pair()) for r in pres.relations] == [
        (6, ((3, 0), (0, 2)))
    ]


def test_minimal_presentation_fixture():
    pres = minimal_presentation(M6920)
    assert [(r.betti, r.pair()) for r in pres.relations] == [
        (18, ((3, 0, 0), (0, 2, 0))),
        (60, ((1, 6, 0), (0, 0, 3))),
    ]
    assert pres.betti_values() == [18, 60]


def test_presentation_json_shape():
    data = minimal_presentation(M6920).to_json_dict()
    assert data == {
        "generators": [6, 9, 20],
        "betti_elements": [18, 60],
        "relations": [
            {"betti": 18, "left": [3, 0, 0], "right": [0, 2, 0]},
            {"betti": 60, "left": [1, 6, 0], "right": [0, 0, 3]},
        ],
    }


def test_make_presentation_sorts_and_dedupes():
    r1 = make_relation(M6920, (3, 0, 0), (0, 2, 0))
    r2 = make_relation(M6920, (1, 6, 0), (0, 0, 3))
    pres = make_presentation(M6920, [r2, r1, r2])
    assert pres.relations == (r1, r2)


@pytest.mark.parametrize(
    "gens",
    [(2, 3), (3, 14), (6, 9, 20), (4, 6, 9), (6, 10, 15), (5, 8, 11, 14)],
)
def test_minimal_presentation_generates_the_kernel(gens):
    M = NumericalMonoid(gens)
    pres = minimal_presentation(M)
    window = max(betti_elements(M)) + 2 * gens[-1]
    assert congruence_closure_check(M, pres.relations, window).ok


@pytest.mark.parametrize(
    "gens",
    [(2, 3), (6, 9, 20), (4, 6, 9), (6, 10, 15), (5, 8, 11, 14)],
)
def test_each_relation_is_necessary(gens):
    # dropping any single relation breaks closure exactly at its value
    M = NumericalMonoid(gens)
    pres = minimal_presentation(M)
    window = max(betti_elements(M)) + 2 * gens[-1]
    for removed in pres.relations:
        rest = [r for r in pres.relations if r is not removed]
        report = congruence_closure_check(M, rest, window)
        assert not report.ok
        assert report.failures[0][0] == removed.betti


def test_betti_matches_naive_scan():
    for gens in [(2, 3), (3, 14), (4, 6, 9), (6, 9, 20), (10, 14, 21, 25)]:
        M = NumericalMonoid(gens)
        fast = betti_elements(M)
        bound = max(fast, default=0) + gens[-1]
        assert naive_betti_scan(M, bound) == fast


def test_all_minimal_presentations_fixture():
    count, items = all_minimal_presentations(M6920)
    assert count == 4
    assert len(items) == 4
    sets = [frozenset(frozenset(r.pair()) for r in p.relations) for p in items]
    base = frozenset({(3, 0, 0), (0, 2, 0)})
    expected = [
        frozenset({base, frozenset({z, (0, 0, 3)})})
        for z in [(1, 6, 0), (4, 4, 0), (7, 2, 0), (10, 0, 0)]
    ]
    assert sorted(sets, key=sorted) == sorted(expected, key=sorted)
    # each enumerated presentation really does generate the kernel
    for p in items:
        assert congruence_closure_check(M6920, p.relations, 200).ok


def test_all_minimal_presentations_three_components():
    # Z(30) splits into three singleton components, so the presentations
    # are the spanning trees of a triangle
    count, items = all_minimal_presentations(NumericalMonoid((6, 10, 15)))
    assert count == 3
    assert len(items) == 3
    assert len({tuple(p.relations) for p in items}) == 3
    for p in items:
        assert len(p.relations) == 2
        assert congruence_closure_check(p.monoid, p.relations, 100).ok


def test_all_minimal_presentations_cap_truncates_items_not_count():
    count, items = all_minimal_presentations(M6920, cap=2)
    assert count == 4 and len(items) == 2
    count, items = all_minimal_presentations(M6920, cap=0)
    assert count == 4 and items == []
    with pytest.raises(InvalidInput):
        all_minimal_presentations(M6920, cap=-1)


def _heap_labeled_trees(c):
    # the textbook Prufer decoder, with the current leaves in a heap
    for seq in itertools.product(range(c), repeat=c - 2):
        degree = [1] * c
        for x in seq:
            degree[x] += 1
        leaves = [i for i in range(c) if degree[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, x), max(leaf, x)))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u, v = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.append((min(u, v), max(u, v)))
        yield sorted(edges)


@pytest.mark.parametrize("c", range(2, 7))
def test_labeled_trees_come_in_the_heap_decoders_order(c):
    # minpres --all lists presentations in this order, so it is pinned
    trees = list(_labeled_trees(c))
    assert trees == list(_heap_labeled_trees(c))
    assert len(trees) == c ** (c - 2)


def test_spanning_tree_count_matches_direct_enumeration():
    for sizes in [[1, 1], [2, 1], [3, 2], [1, 1, 1], [2, 1, 3], [2, 2, 2, 1]]:
        c = len(sizes)
        # direct sum over labeled trees of the product of endpoint choices
        total = 0
        for edges in _labeled_trees(c):
            prod = 1
            for i, j in edges:
                prod *= sizes[i] * sizes[j]
            total += prod
        assert _spanning_tree_count(sizes) == total
        # generalized Cayley closed form
        if c >= 2:
            s = sum(sizes)
            prod = 1
            for p in sizes:
                prod *= p
            assert total == s ** (c - 2) * prod


def test_betti_values_read_off_presentations_match():
    for gens in [(2, 3), (6, 9, 20), (5, 8, 11, 14)]:
        M = NumericalMonoid(gens)
        assert sorted(set(minimal_presentation(M).betti_values())) == betti_elements(M)


def test_deadline_calls_share_the_memo(monkeypatch):
    # a call with a deadline fills the memo that a plain call reads, and
    # clear_caches() empties it; the uncached computations log their runs
    runs = []
    for name in ("_betti_impl", "_minpres_impl"):
        real = getattr(presentations, name)

        def logged(M, deadline, *rest, real=real, name=name):
            runs.append(name)
            return real(M, deadline, *rest)

        monkeypatch.setattr(presentations, name, logged)
    M = NumericalMonoid((7, 11, 13))
    clear_caches()
    deadline = time.monotonic() + 60.0
    assert betti_elements(M, deadline=deadline) == betti_elements(M)
    pres = minimal_presentation(M, deadline=deadline)
    assert minimal_presentation(M) is pres
    assert runs == ["_minpres_impl", "_betti_impl"]
    clear_caches()
    assert minimal_presentation(M) == pres
    assert runs == ["_minpres_impl", "_betti_impl", "_minpres_impl", "_betti_impl"]


def test_all_minimal_presentations_builds_each_graph_once(monkeypatch):
    # the presentations reuse the Betti scan's graphs: on a cold memo Z(b)
    # is enumerated once per Betti element b, to build its graph, and on a
    # warm memo not at all
    enumerated = []
    real = presentations._enumerate

    def logged(gens, a, *args, **kwargs):
        enumerated.append(a)
        return real(gens, a, *args, **kwargs)

    monkeypatch.setattr(presentations, "_enumerate", logged)
    M = NumericalMonoid((6, 9, 20))
    clear_caches()
    count, _ = all_minimal_presentations(M)
    assert count == 4
    assert enumerated == [18, 60]
    enumerated.clear()
    assert all_minimal_presentations(M)[0] == 4
    assert enumerated == []


@pytest.mark.parametrize("r", [(6, 9, 20), (4, 7, 11, 13), (2, 4, 14, 16)])
def test_the_closed_form_is_the_round_robin_at_every_base_shift(r):
    # every primitive base shift n0 in (r_k^2, r_k^2 + r_k]: the packed
    # closed form is the round-robin table packed at its field size, every
    # entry it reads is the table's, the field holds max Ap + 2 m_t under
    # its guard bit, and the scan over it finds the same Betti graphs
    family = ShiftedFamily(r)
    clear_caches()
    members = [
        monoid_at(family, n0)
        for n0 in range(family.threshold + 1, family.threshold + family.step + 1)
    ]
    for member in members:
        if not member.primitive:
            continue
        M = member.monoid
        n0 = M.multiplicity
        packed, size, entry = presentations._closed_apery(M, None)
        ap = apery(M)
        assert packed == presentations._pack(ap, size), n0
        assert [entry(rho) for rho in range(n0)] == list(ap), n0
        assert max(ap) + 2 * M.generators[-1] < 2 ** (8 * size - 1), n0
        closed = presentations._betti_impl(M, None, True)
        assert closed == presentations._betti_impl(M, None), n0
    assert list(presentations._least_memo) == [r]


def test_the_closed_form_refuses_past_the_kernels_budget(monkeypatch):
    # NotPrimitive first, as apery; then the budget, before anything is
    # built, even the prefix of least lengths; a past deadline stops the
    # prefix's passes too, and stores no prefix
    M = NumericalMonoid((402, 404, 406, 416, 418))
    with pytest.raises(NotPrimitive):
        presentations._closed_apery(M, None)
    clear_caches()
    with pytest.raises(BudgetExceeded):
        presentations._closed_apery(
            NumericalMonoid((401, 407, 410, 421)), time.monotonic() - 1
        )
    with pytest.raises(BudgetExceeded):
        presentations._least_lengths((6, 9, 20), time.monotonic() - 1)
    assert not presentations._least_memo
    monkeypatch.setattr(presentations, "DEFAULT_CAP", 400)
    clear_caches()
    with pytest.raises(BudgetExceeded, match="kernel's budget of 400"):
        presentations._closed_apery(NumericalMonoid((401, 407, 410, 421)), None)
    assert not presentations._least_memo


def test_the_router_builds_no_apery_table_past_the_threshold(monkeypatch):
    # the router's base scan at M_10003 of (6,9,20), and its scan in place
    # of M_403 in the base band (400, 420], read the closed form, so no
    # round-robin table is built or memoized; minimal_presentation of a
    # member past the threshold still builds it by the round robin, and
    # never from the least lengths
    clear_caches()
    M = NumericalMonoid((10003, 10009, 10012, 10023))
    assert _betti_graphs(M, None) == presentations._betti_impl(M, None)
    for target in (M, NumericalMonoid((403, 409, 412, 423))):
        clear_caches()
        _betti_graphs(target, None)
        assert not core._apery_memo
        assert list(presentations._least_memo) == [(6, 9, 20)]
    built = []
    real = presentations.apery

    def logged(M, **kwargs):
        built.append(M.multiplicity)
        return real(M, **kwargs)

    def refused(*args):
        raise AssertionError("minimal_presentation read the closed form")

    monkeypatch.setattr(presentations, "apery", logged)
    monkeypatch.setattr(presentations, "_closed_apery", refused)
    clear_caches()
    minimal_presentation(M)
    assert built == [10003]
