"""Cross-cutting structural properties, randomized where that buys coverage."""

import heapq
import importlib
import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from numonoid import presentations, shifted
from numonoid import (
    BudgetExceeded,
    NotMinimal,
    NotPrimitive,
    NumericalMonoid,
    ShiftedFamily,
    all_minimal_presentations,
    apery,
    betti_elements,
    clear_caches,
    congruence_closure_check,
    contains,
    default_window,
    delta_set,
    factorizations,
    frobenius,
    lift_presentation,
    make_relation,
    minimal_presentation,
    monoid_at,
    monoid_catenary_report,
    monotone_equal_catenary,
    naive_betti_scan,
    normalize_generators,
    tame_degree,
    tame_degree_windowed,
)
from numonoid.core import DEFAULT_CAP, _SizedMemo
from numonoid.factorizations import (
    _enumerate,
    _enumerate_generic,
    _enumerate_sliced,
    distance,
)
from numonoid.invariants import (
    _flagged,
    _incomplete,
    _members,
    _witnesses,
)
from numonoid.oracle import (
    ClosureReport,
    factorization_buckets,
    monotone_chain_search,
    reachable_up_to,
)
from numonoid.presentations import factorization_graph

# the package's factorizations() function shadows the module's name
factorizations_module = importlib.import_module("numonoid.factorizations")

monoids = st.lists(
    st.integers(2, 40), min_size=1, max_size=4, unique=True
).map(lambda xs: normalize_generators(tuple(sorted(xs))))

CORPUS = [
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
    # the Betti scan enumerates some candidates of these by length slices
    (26, 29, 31),
    (26, 28, 29, 31),
    (17, 18, 20, 21),
]
SLICED_CORPUS = CORPUS[-3:]


@settings(deadline=None, max_examples=40)
@given(M=monoids, a=st.integers(0, 150))
def test_enumeration_matches_exhaustive_sieve(M, a):
    buckets = factorization_buckets(M.generators, 150)
    assert sorted(factorizations(M, a)) == sorted(buckets.get(a, []))


@settings(deadline=None, max_examples=40)
@given(M=monoids, a=st.integers(0, 200))
def test_factorizations_come_out_canonically_ordered(M, a):
    out = factorizations(M, a)
    assert out == sorted(out, key=lambda z: tuple(reversed(z)), reverse=True)
    assert len(set(out)) == len(out)


@settings(deadline=None, max_examples=25)
@given(M=monoids.filter(lambda M: M.is_primitive))
def test_membership_matches_sieve(M):
    buckets = factorization_buckets(M.generators, 120)
    for a in range(121):
        assert contains(M, a) == (a in buckets)


def _apery_by_dijkstra(gens: tuple[int, ...]) -> list:
    """The Apery table of <gens> with respect to m_1 = gens[0], by Dijkstra
    over the residues mod m_1, with None at each unreached residue.

    Each m_i (i >= 2) contributes arcs rho -> (rho + m_i) mod m_1 of weight
    m_i, and the distance from residue 0 to rho is the least element of the
    monoid in that class.
    """
    m1 = gens[0]
    dist: list = [None] * m1
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, rho = heapq.heappop(heap)
        if d > dist[rho]:
            continue
        for g in gens[1:]:
            nrho, nd = (rho + g) % m1, d + g
            if dist[nrho] is None or nd < dist[nrho]:
                dist[nrho] = nd
                heapq.heappush(heap, (nd, nrho))
    return dist


# increasing tuples, not normalized: m_1 in [1, 24] and up to four more
# generators in (m_1, 5 m_1], so that some are multiples of m_1 (a pass with
# step 0), some are at or above 2 m_1, some steps share a factor with m_1 (a
# pass walks several cycles), and some tuples are not primitive
apery_tuples = st.integers(1, 24).flatmap(
    lambda m1: st.lists(st.integers(m1 + 1, 5 * m1), max_size=4, unique=True).map(
        lambda rest: (m1, *sorted(rest))
    )
)


@settings(deadline=None, max_examples=300)
@example(gens=(1,))
@example(gens=(5,))
@example(gens=(4, 8, 13))  # step 0, and a generator past 2 m_1
@example(gens=(6, 10, 15))  # steps 4 and 3: two cycles, then three
@example(gens=(6, 9, 20))
@example(gens=(4, 6))  # not primitive
@example(gens=(6, 8, 9, 14))  # non-minimal, steps 2, 3 and 2
@given(gens=apery_tuples)
def test_apery_matches_dijkstra_and_the_sieve(gens):
    # the round robin against the heap Dijkstra it replaced and against the
    # least reachable value of each class; every Apery entry is below
    # m_1 m_t, so the sieve up to there sees every class that has one
    m1 = gens[0]
    steps = [g % m1 for g in gens[1:]]
    event(f"t = {len(gens)}")
    event(f"step 0: {0 in steps}")
    event(f"several cycles: {any(math.gcd(s, m1) > 1 for s in steps if s)}")
    event(f"generator >= 2 m_1: {gens[-1] >= 2 * m1}")
    reach = reachable_up_to(gens, m1 * gens[-1])
    least: list = [None] * m1
    for v in range(len(reach) - 1, -1, -1):
        if reach[v]:
            least[v % m1] = v
    expected = _apery_by_dijkstra(gens)
    assert least == expected
    M = NumericalMonoid(gens)
    event(f"primitive: {M.is_primitive}")
    if None in expected:
        with pytest.raises(NotPrimitive):
            apery(M)
    else:
        assert apery(M) == tuple(expected)


@settings(deadline=None, max_examples=60)
@given(xs=st.lists(st.integers(1, 60), min_size=1, max_size=6))
def test_normalization_is_idempotent(xs):
    once = normalize_generators(tuple(xs))
    assert normalize_generators(once.generators).generators == once.generators


def _redundant_by_sieve(vals) -> list[int]:
    """The distinct values, increasing, that the other distinct values
    reach as non-negative combinations."""
    vals = sorted(set(vals))
    return [
        g
        for g in vals
        if reachable_up_to(tuple(v for v in vals if v != g), g)[g]
    ]


@settings(deadline=None, max_examples=150)
@given(
    xs=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    scale=st.integers(1, 6),
    repeats=st.integers(0, 3),
)
def test_normalization_keeps_what_no_other_value_reaches(xs, scale, repeats):
    # duplicates and a common factor, which the Apery table is read without
    raw = [scale * x for x in xs] + [scale * x for x in xs[:repeats]]
    redundant = _redundant_by_sieve(raw)
    expected = tuple(g for g in sorted(set(raw)) if g not in redundant)
    assert normalize_generators(raw).generators == expected


@settings(deadline=None, max_examples=150)
@given(
    gens=st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True)
    .map(lambda xs: tuple(sorted(xs)))
    .filter(lambda gens: math.gcd(*gens) == 1)
)
def test_the_scan_refuses_exactly_the_redundant_tuples(gens):
    # NotMinimal names the smallest generator the others reach
    M = NumericalMonoid(gens)
    redundant = _redundant_by_sieve(gens)
    if redundant:
        with pytest.raises(NotMinimal, match=f"^generator {redundant[0]} is"):
            minimal_presentation(M)
    else:
        assert minimal_presentation(M).monoid == M


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_distance_is_a_metric(data):
    k = data.draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(0, 30)] * k)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert distance(x, y) >= 0
    assert (distance(x, y) == 0) == (x == y)
    assert distance(x, y) == distance(y, x)
    assert distance(x, z) <= distance(x, y) + distance(y, z)


@pytest.mark.parametrize("gens", CORPUS)
def test_betti_elements_match_naive_scan(gens):
    # every Betti element lies at most m_t above the Apery set of m_1,
    # so a scan to frobenius + m_1 + m_t is conclusive
    M = NumericalMonoid(gens)
    bound = frobenius(M) + gens[0] + gens[-1]
    assert betti_elements(M) == naive_betti_scan(M, bound)


def test_betti_scan_enumerates_through_the_entry(monkeypatch):
    # the scan asks the entry, which picks the sliced search for some
    # candidates of these monoids; the test above checks their Betti
    # elements against the oracle's naive scan
    calls = []
    real = factorizations_module._enumerate_sliced
    monkeypatch.setattr(
        factorizations_module,
        "_enumerate_sliced",
        lambda *args: calls.append(args[1]) or real(*args),
    )
    for gens in SLICED_CORPUS:
        calls.clear()
        presentations._betti_impl(NumericalMonoid(gens), None)
        assert calls, gens


@pytest.mark.parametrize("gens", [*SLICED_CORPUS, (6, 9, 20)])
def test_betti_scan_enumerates_only_its_betti_elements(gens, monkeypatch):
    # minimality is read off the Apery table, so every enumeration of the
    # scan is at a Betti element, once each
    calls = []
    real = presentations._enumerate

    def logged(searched, a, *args, **kwargs):
        calls.append(a)
        return real(searched, a, *args, **kwargs)

    monkeypatch.setattr(presentations, "_enumerate", logged)
    graphs = presentations._betti_impl(NumericalMonoid(gens), None)
    assert calls == [g.element for g in graphs]


def _atom_components_by_flood(
    gens: tuple[int, ...], ap: tuple[int, ...], c: int
) -> int:
    """Number of components of the atom graph of c, one flood per component.

    The vertices are the atoms m_i with c - m_i in M and the edges join
    m_i != m_j with c - m_i - m_j in M.  ap is the Apery table of M with
    respect to m_1 = len(ap); x is in M iff x >= ap[x % m_1], which fails
    for every negative x since the table is non-negative.
    """
    m1 = len(ap)
    atoms = [m for m in gens if c - m >= ap[(c - m) % m1]]
    comps = 0
    while atoms:
        comps += 1
        frontier = [atoms.pop()]
        while frontier and atoms:
            d = c - frontier.pop()
            rest = []
            for m in atoms:
                (frontier if d - m >= ap[(d - m) % m1] else rest).append(m)
            atoms = rest
    return comps


def _split_by_flood(gens: tuple[int, ...], ap: tuple[int, ...]) -> set[int]:
    """The candidates m_i + w (i >= 2, w != 0 in the Apery set) whose atom
    graph the flood finds disconnected."""
    candidates = {m + w for m in gens[1:] for w in ap if w}
    return {c for c in candidates if _atom_components_by_flood(gens, ap, c) > 1}


@settings(deadline=None, max_examples=100)
@given(
    M=st.lists(st.integers(3, 30), min_size=3, max_size=4, unique=True)
    .map(normalize_generators)
    .filter(lambda M: M.t >= 3 and M.is_primitive)
)
def test_atom_graph_counts_the_factorization_graph_components(M):
    # the scan enumerates a candidate only when its atom graph splits; at
    # every candidate that graph has as many components as the
    # factorization graph, the packed kernel splits exactly the candidates
    # the flood splits, and the scan finds the oracle's Betti elements
    gens = M.generators
    ap = apery(M)
    for c in sorted({m + w for m in gens[1:] for w in ap if w}):
        expected = len(factorization_graph(M, c).components)
        assert _atom_components_by_flood(gens, ap, c) == expected, c
    assert presentations._split_candidates(gens, ap, None) == _split_by_flood(gens, ap)
    bound = frobenius(M) + gens[0] + gens[-1]
    assert betti_elements(M) == naive_betti_scan(M, bound)


# primitive increasing tuples on 2..6 generators up to 60, minimal or not
# (the kernel does not use minimality)
small_tuples = st.lists(st.integers(2, 60), min_size=2, max_size=6, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


@st.composite
def wide_tuples(draw):
    # m_1 in [2, 12] and up to four generators in [2^e, 2^(e+1)) for some e
    # in 60..80, in distinct non-zero classes mod m_1; then no generator is
    # a multiple of m_1, nor another one plus multiples of m_1, nor a sum of
    # two others, so the tuple is minimal, and the Apery entries, from 2^60
    # to past 2^80, straddle the 64-bit words the packing copies
    m1 = draw(st.integers(2, 12))
    e = draw(st.integers(60, 80))
    classes = draw(st.lists(st.integers(1, m1 - 1), min_size=1, max_size=4, unique=True))
    lo, hi = -(-(2**e) // m1), 2 ** (e + 1) // m1 - 1
    return tuple(sorted([m1, *(draw(st.integers(lo, hi)) * m1 + r for r in classes)]))


@settings(deadline=None, max_examples=200)
@given(
    gens=st.one_of(small_tuples, wide_tuples()).filter(
        lambda gens: math.gcd(*gens) == 1
    )
)
def test_packed_kernel_matches_the_flood(gens):
    # every candidate's atom graph decided on packed fields, against the
    # flood over the same candidates one at a time
    M = NumericalMonoid(gens)
    if gens[-1] >= 2**60:
        presentations._require_minimal(M)
    ap = apery(M)
    event(f"t = {len(gens)}, Apery entries past 2^64: {max(ap) >= 2**64}")
    assert presentations._split_candidates(gens, ap, None) == _split_by_flood(gens, ap)


def _components_by_flood(zs):
    """The components of the factorization graph on zs, by a breadth-first
    flood that joins two factorizations whenever their supports overlap,
    in FactorizationGraph's order."""
    left = list(zs)
    comps = []
    while left:
        comp = [left.pop(0)]
        for z in comp:  # comp grows as the flood reaches new members
            near = [y for y in left if any(a and b for a, b in zip(z, y))]
            left = [y for y in left if y not in near]
            comp += near
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


# increasing tuples, not normalized, so some are not minimal, with an
# element a of each: any sum of generators, or a common multiple of two of
# them, which often has factorizations with disjoint supports
@st.composite
def graph_elements(draw):
    xs = draw(st.lists(st.integers(2, 30), min_size=1, max_size=4, unique=True))
    gens = tuple(sorted(xs))
    if len(gens) > 1 and draw(st.booleans()):
        pair = st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=2, unique=True)
        i, j = draw(pair)
        a = math.lcm(gens[i], gens[j]) * draw(st.integers(1, 2))
    else:
        a = sum(g * draw(st.integers(0, 4)) for g in gens)
    return gens, a


@settings(deadline=None, max_examples=300)
@example(case=((2, 3, 6), 6))  # three components, one atom each
@example(case=((2, 3, 5), 9))  # (3, 1, 0) comes last and joins two components
@example(case=((2, 3, 5), 0))  # the zero vector, with no atom
# (0, 3, 0) joins (1, 1, 1), then (4, 0, 0) meets them through atom 3 alone
@example(case=((3, 4, 5), 12))
@given(case=graph_elements().filter(lambda case: case[1] <= 120))
def test_factorization_graph_matches_the_flood(case):
    gens, a = case
    M = NumericalMonoid(gens)
    zs = factorizations(M, a)
    graph = factorization_graph(M, a)
    event(f"components: {len(graph.components)}")
    assert graph.vertices == tuple(zs)
    assert graph.components == _components_by_flood(zs)


@pytest.mark.parametrize("gens", CORPUS)
def test_minimal_presentation_closure(gens):
    M = NumericalMonoid(gens)
    pres = minimal_presentation(M)
    window = max(pres.betti_values()) + 2 * gens[-1]
    assert congruence_closure_check(M, pres.relations, window).ok


@settings(deadline=None, max_examples=100)
@given(
    M=st.lists(st.integers(3, 30), min_size=2, max_size=4, unique=True)
    .map(normalize_generators)
    .filter(lambda M: M.t >= 2 and M.is_primitive)
)
def test_presentation_count_matches_enumeration(M):
    # the closed-form count is checked against the presentations themselves,
    # which are enumerated tree by tree and pick by pick
    count, items = all_minimal_presentations(M, cap=64)
    if count <= 64:
        assert len({p.relations for p in items}) == len(items) == count
        for p in items:
            assert p.betti_values() == betti_elements(M)


@settings(deadline=None, max_examples=100)
@given(
    M=st.lists(st.integers(3, 30), min_size=2, max_size=4, unique=True)
    .map(normalize_generators)
    .filter(lambda M: M.t >= 2 and M.is_primitive)
)
def test_betti_scan_returns_the_factorization_graphs(M):
    # the scan's graphs are the ones factorization_graph builds, one per
    # Betti element in increasing order
    graphs = presentations._betti_impl(M, None)
    assert graphs == tuple(factorization_graph(M, g.element) for g in graphs)
    assert [g.element for g in graphs] == betti_elements(M)


@settings(deadline=None, max_examples=60)
@given(
    r=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
    scale=st.sampled_from([1, 1, 2, 3]),
    data=st.data(),
)
def test_lifted_betti_graphs_match_the_scan(r, scale, data):
    # past r_k^2 + r_k the router lifts from the base shift; its graphs are
    # the ones the direct scan finds at the target, also when other members
    # of the family, in any residue class, have filled the memo of T's
    # length classes first, and again once the target itself has filled it.
    # From cleared caches too, where the router builds only the elements
    # with more than one length and carries the others over from the base
    # scan.  scale > 1 gives the offsets a shared factor d, and a single
    # offset takes the generic search
    F = ShiftedFamily(tuple(scale * x for x in sorted(r)))
    lo = F.threshold + F.step + 1
    shifts = st.integers(lo, lo + 8 * F.step)
    clear_caches()
    for n in data.draw(st.lists(shifts, max_size=6)):
        member = monoid_at(F, n)
        if member.primitive:
            shifted._betti_graphs(member.monoid, None)
    member = monoid_at(F, data.draw(shifts))
    assume(member.primitive)
    scanned = presentations._betti_impl(member.monoid, None)
    for _ in range(2):
        shifted._lifted_memo.pop(member.monoid, None)
        assert shifted._betti_graphs(member.monoid, None) == scanned
    clear_caches()
    with mock.patch.object(shifted, "_graph_of", wraps=shifted._graph_of) as built:
        assert shifted._betti_graphs(member.monoid, None) == scanned
    gapped = [g.element for g in scanned if len({sum(z) for z in g.vertices}) > 1]
    assert [call.args[1] for call in built.call_args_list] == gapped


@settings(deadline=None, max_examples=60)
@given(
    F=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True).map(
        lambda xs: ShiftedFamily(tuple(sorted(xs)))
    ),
    data=st.data(),
)
def test_lifted_relations_are_canonical(F, data):
    # each lifted Relation is the one make_relation builds from either order
    # of the same sides at the target
    n = data.draw(st.integers(F.threshold + 1, F.threshold + 3 * F.step))
    member = monoid_at(F, n)
    assume(member.primitive)
    pres = minimal_presentation(member.monoid)
    lifted = lift_presentation(F, n, pres, data.draw(st.integers(0, 40)))
    assert len(lifted.relations) == len(pres.relations)
    for rel in lifted.relations:
        assert make_relation(lifted.monoid, rel.left, rel.right) == rel
        assert make_relation(lifted.monoid, rel.right, rel.left) == rel


@pytest.mark.parametrize(
    "r, lo, hi",
    [((3, 7), 50, 61), ((3, 14), 197, 207), ((6, 9), 82, 92)],
)
def test_betti_factorizations_above_threshold(r, lo, hi):
    # above n = r_k^2, factorizations of a Betti element in different graph
    # components differ in length by 0 or d = gcd(r); when they differ, the
    # longer one uses the first atom and the shorter one the last
    F = ShiftedFamily(r)
    assert lo > F.threshold
    checked = 0
    for n in range(lo, hi + 1):
        m = monoid_at(F, n)
        if not (m.primitive and m.minimal):
            continue
        for beta in betti_elements(m.monoid):
            g = factorization_graph(m.monoid, beta)
            comps = g.components
            assert len(comps) >= 2
            for ci in range(len(comps)):
                for cj in range(ci + 1, len(comps)):
                    for z in comps[ci]:
                        for zp in comps[cj]:
                            gap = abs(sum(z) - sum(zp))
                            assert gap in (0, F.d)
                            if gap:
                                lng, sht = (
                                    (z, zp) if sum(z) > sum(zp) else (zp, z)
                                )
                                assert lng[0] > 0 and sht[F.k] > 0
                            checked += 1
    assert checked > 0


@pytest.mark.parametrize("gens", [(6, 9, 20), (3, 14)])
def test_minimum_length_bounds(gens):
    # past r_{k-1} r_k every minimum-length factorization uses the largest
    # atom; past r_k^2 every factorization has length at least r_k
    S = NumericalMonoid(gens)
    rk, rk1 = gens[-1], gens[-2]
    hi = rk1 * rk + 2 * rk
    buckets = factorization_buckets(gens, hi)
    seen = 0
    for a in range(rk1 * rk + 1, hi + 1):
        zs = buckets.get(a, [])
        if not zs:
            continue
        mlen = min(sum(z) for z in zs)
        for z in zs:
            if sum(z) == mlen:
                assert z[-1] > 0, (a, z)
                seen += 1
    assert seen > 0

    hi = rk * rk + 100
    buckets = factorization_buckets(gens, hi)
    for a in range(rk * rk + 1, hi + 1):
        for z in buckets.get(a, []):
            assert sum(z) >= rk, (a, z)


def test_monotone_chains_exist_under_minimal_relations():
    # every factorization pair of M_450 within the window is joined by a
    # chain of relation translations with non-increasing lengths
    M = NumericalMonoid((450, 456, 459, 470))
    rels = minimal_presentation(M).relations
    buckets = factorization_buckets(M.generators, 2500)
    pairs = 0
    for a, zs in buckets.items():
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                assert monotone_chain_search(M, a, zs[i], zs[j], rels)
                pairs += 1
    assert pairs > 0


# k = 2..4 offsets, so 3..5 generators: family members <n, n + r_1, ...>
# and arbitrary increasing tuples, neither necessarily minimal or primitive;
# and members of families with k = 3..5 offsets sharing a factor d in
# {2, 3}, whose length slices the sliced search skips unless d divides
# a - n l
offsets = st.lists(st.integers(1, 40), min_size=2, max_size=4, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
shared_offsets = st.builds(
    lambda d, xs: tuple(sorted(d * x for x in xs)),
    st.sampled_from((2, 3)),
    st.lists(st.integers(1, 13), min_size=3, max_size=5, unique=True),
)
generator_tuples = st.one_of(
    st.builds(lambda n, r: (n, *(n + x for x in r)), st.integers(1, 200), offsets),
    st.lists(st.integers(1, 120), min_size=3, max_size=5, unique=True).map(
        lambda xs: tuple(sorted(xs))
    ),
    st.builds(
        lambda n, r: (n, *(n + x for x in r)), st.integers(1, 200), shared_offsets
    ),
)


@settings(deadline=None, max_examples=225)
@given(gens=generator_tuples, data=st.data())
def test_both_enumerators_agree_with_each_other_and_the_oracle(gens, data):
    # a stays at most 1500 and small enough that the oracle's sweep over
    # every vector of value <= a (about a^t / (t! prod m_i)) stays cheap
    t = len(gens)
    budget = (20000 * math.factorial(t) * math.prod(gens)) ** (1 / t)
    a = data.draw(st.integers(0, min(1500, int(budget))))
    generic = _enumerate_generic(gens, a)
    expected = set(factorization_buckets(gens, a).get(a, []))
    for search in (_enumerate_generic, _enumerate_sliced):
        zs = search(gens, a)
        assert zs == generic
        assert set(zs) == expected
        for cap in (len(zs), len(zs) - 1):
            if cap < 0:
                continue
            if len(zs) > cap:
                with pytest.raises(BudgetExceeded):
                    search(gens, a, cap)
            else:
                assert search(gens, a, cap) == zs
    assert _enumerate(gens, a) == generic
    if t >= 3:
        # a memo of T's length classes, cold and then warm, and sometimes
        # too small to hold them all; a memoized class counts toward the cap
        limit = data.draw(st.sampled_from((3, 10**5)))
        memo = _SizedMemo(limit)
        for _ in ("cold", "warm"):
            assert _enumerate_sliced(gens, a, DEFAULT_CAP, None, memo) == generic
        for classes in (_SizedMemo(limit), memo):
            if generic:
                cap = len(generic) - 1
                with pytest.raises(BudgetExceeded, match=f"more than {cap} "):
                    _enumerate_sliced(gens, a, cap, None, classes)


# primitive monoids on 2..5 generators in [3, 30]
small_monoids = (
    st.lists(st.integers(3, 30), min_size=2, max_size=5, unique=True)
    .map(normalize_generators)
    .filter(lambda M: M.is_primitive)
)


@st.composite
def redundant_monoids(draw):
    """A small monoid, half the time with a redundant generator added: the
    sum of two of its generators."""
    M = draw(small_monoids)
    if draw(st.booleans()):
        pick = st.sampled_from(M.generators)
        extra = draw(pick) + draw(pick)
        M = NumericalMonoid(tuple(sorted(set(M.generators) | {extra})))
    return M


def _oracle_window(gens: tuple[int, ...], most: int) -> int:
    # about the largest window whose oracle sweep, over every vector of
    # value <= window (about window^t / (t! prod m_i) of them), stays cheap
    t = len(gens)
    return min(most, int((20000 * math.factorial(t) * math.prod(gens)) ** (1 / t)))


def _quadratic_window(gens: tuple[int, ...], most: int, budget: int) -> int:
    # the largest window up to most whose sum of |Z(a)|^2, read off the
    # oracle's buckets, stays within budget: a reference that compares
    # every two factorizations of each element takes time that grows with
    # that sum, not with the vector count that _oracle_window bounds
    total = 0
    for a, zs in sorted(factorization_buckets(gens, most).items()):
        total += len(zs) ** 2
        if total > budget:
            return a - 1
    return most


@settings(deadline=None, max_examples=60)
@given(M=small_monoids, data=st.data())
def test_windowed_delta_set_matches_the_oracle(M, data):
    # the sweep runs the length-set recurrence; the oracle lists every
    # factorization of every element of the window
    w = data.draw(st.integers(0, _oracle_window(M.generators, 300)))
    expected = set()
    for zs in factorization_buckets(M.generators, w).values():
        lengths = sorted({sum(z) for z in zs})
        expected.update(b - a for a, b in zip(lengths, lengths[1:]))
    assert delta_set(M, window=w).values == expected


def _monotone_equal_by_search(zs):
    """(monotone, equal) catenary degrees of one element from Z(a), straight
    from the definitions: for each, binary search over the pairwise
    distances for the least N at which every required chain exists in the
    layered graph (steps of at most N, within a length class for equal,
    never to a longer factorization for monotone)."""
    def d(x, y):
        # max(|x - w|, |y - w|) with w the coordinatewise minimum
        w = [min(p, q) for p, q in zip(x, y)]
        return max(sum(x) - sum(w), sum(y) - sum(w))

    m = len(zs)
    lengths = [sum(z) for z in zs]
    dist = [[d(x, y) for y in zs] for x in zs]

    def feasible(bound, allowed):
        for src in range(m):
            seen = [False] * m
            seen[src] = True
            stack = [src]
            while stack:
                u = stack.pop()
                for v in range(m):
                    if not seen[v] and dist[u][v] <= bound and allowed(u, v):
                        seen[v] = True
                        stack.append(v)
            if any(not seen[j] for j in range(m) if allowed(src, j)):
                return False
        return True

    def least(allowed):
        candidates = sorted({0} | {d for row in dist for d in row})
        lo, hi = 0, len(candidates) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(candidates[mid], allowed):
                hi = mid
            else:
                lo = mid + 1
        return candidates[lo]

    monotone = least(lambda u, v: lengths[v] <= lengths[u])
    equal = least(lambda u, v: lengths[v] == lengths[u])
    return monotone, equal


@settings(deadline=None, max_examples=30)
@given(M=small_monoids, data=st.data())
def test_monotone_equal_catenary_matches_the_definition(M, data):
    # the reference costs about |Z(a)|^3 per element, so the window is
    # bounded by the sum of |Z(a)|^2 as well, as the windowed report's is
    most = _oracle_window(M.generators, 120)
    w = data.draw(st.integers(0, _quadratic_window(M.generators, most, 20000)))
    for a, zs in sorted(factorization_buckets(M.generators, w).items()):
        assert monotone_equal_catenary(M, a) == _monotone_equal_by_search(zs), a


@settings(deadline=None, max_examples=30)
@given(M=small_monoids, data=st.data())
def test_windowed_catenary_report_matches_the_definition(M, data):
    # the sweep skips the length classes and pairs of classes that cannot
    # raise its running max; the sup over the window must not move.  The
    # reference compares every two factorizations of each element, so the
    # window is bounded by the sum of |Z(a)|^2 too, which caps the densest
    # draw, <6, 7, 8, 9>, at 74 where its whole range of 120 took 5 s
    most = _oracle_window(M.generators, 120)
    w = data.draw(st.integers(0, _quadratic_window(M.generators, most, 20000)))
    by_search = [
        _monotone_equal_by_search(zs)
        for zs in factorization_buckets(M.generators, w).values()
    ]
    report = monoid_catenary_report(M, window=w)
    assert report.monotone == max(mon for mon, _ in by_search)
    assert report.equal == max(eq for _, eq in by_search)
    assert (report.exact, report.window) == (False, w)


# primitive monoids on 2..5 generators below 60
wider_monoids = (
    st.lists(st.integers(2, 59), min_size=2, max_size=5, unique=True)
    .map(normalize_generators)
    .filter(lambda M: M.is_primitive and M.t >= 2)
)


@settings(deadline=None, max_examples=40)
@given(M=wider_monoids)
def test_family_equal_catenary_matches_the_sweep_of_the_monoid(M):
    # M is the member n = m_1 of its family, and every member's equal
    # degree is c(T), the offsets' own.  The family report of the member
    # r_k^2 + 1, primitive as d divides r_k, reads it off that member's
    # Betti graphs; M's own sweep is conclusive at window L m_t, as a Betti
    # element (l, s) of T, l <= L, is the class of m_1 l + s <= l m_t
    family, _ = shifted.family_from_generators(M.generators)
    bound = family.r[-1] // family.d - family.k + 2
    member = NumericalMonoid(family.generators_at(family.threshold + 1))
    report = monoid_catenary_report(M, window=bound * M.generators[-1])
    assert monoid_catenary_report(member).equal == report.equal


@settings(deadline=None, max_examples=60)
@given(
    r=st.lists(st.integers(1, 20), min_size=1, max_size=3, unique=True),
    above=st.integers(1, 40),
    data=st.data(),
)
def test_family_equal_catenary_bounds_every_windowed_sweep(r, above, data):
    # above the threshold the family report is exact, so no window's sup
    # may exceed it; at window L m_t the sweep meets every Betti element
    # of T and reaches it
    family = ShiftedFamily(tuple(sorted(r)))
    n = family.threshold + above
    assume(math.gcd(n, family.d) == 1)
    M = NumericalMonoid(family.generators_at(n))
    report = monoid_catenary_report(M)
    assert report.exact and report.window is None
    conclusive = (family.r[-1] // family.d - family.k + 2) * M.generators[-1]
    w = data.draw(st.integers(0, 2 * conclusive))
    swept = monoid_catenary_report(M, window=w).equal
    assert swept <= report.equal
    if w >= conclusive:
        assert swept == report.equal


def _split(supports: list[set]) -> bool:
    """Whether the sets fall apart under sharing a member: a flood from the
    first, as naive_betti_scan floods the supports of Z(a)."""
    frontier, unreached = supports[:1], supports[1:]
    while frontier and unreached:
        s = frontier.pop()
        frontier += [t for t in unreached if s & t]
        unreached = [t for t in unreached if not s & t]
    return bool(unreached)


@settings(deadline=None, max_examples=60)
@given(M=small_monoids, data=st.data())
def test_length_rows_flag_the_elements_that_can_raise_the_catenary(M, data):
    # the windowed catenary report enumerates only the elements that the
    # length rows flag: those with a length class disconnected under shared
    # atoms, or with two consecutive classes that no atom joins.  Both are
    # decided here on Z(a) from the oracle's buckets, not on the rows
    w = data.draw(st.integers(0, _oracle_window(M.generators, 300)))
    flagged = _flagged(M.generators, w, None)
    expected = set()
    for a, zs in factorization_buckets(M.generators, w).items():
        classes = {}
        for z in zs:
            support = {i for i, c in enumerate(z) if c}
            classes.setdefault(sum(z), []).append(support)
        atoms = {ell: set().union(*cls) for ell, cls in classes.items()}
        lengths = sorted(classes)
        disconnected = any(_split(cls) for cls in classes.values())
        new = any(not atoms[s] & atoms[l] for s, l in zip(lengths, lengths[1:]))
        event(f"disconnected {disconnected}, new pair {new}")
        if disconnected or new:
            expected.add(a)
    assert {a for a in range(flagged.bit_length()) if flagged >> a & 1} == expected


@settings(deadline=None, max_examples=30)
@given(M=small_monoids, data=st.data())
def test_windowed_catenary_report_is_the_max_of_the_element_degrees(M, data):
    # the report enumerates the flagged elements only; its sup must still
    # be the max of every element's own degrees, each from the per-element
    # monotone_equal_catenary, which skips nothing.  The window runs up to
    # default_window capped at 600, cut where the oracle's vectors or the
    # sum of |Z(a)|^2 grow past what the per-element sweep affords
    most = _oracle_window(M.generators, min(default_window(M), 600))
    w = data.draw(st.integers(0, _quadratic_window(M.generators, most, 500000)))
    degrees = [
        monotone_equal_catenary(M, a) for a in range(w + 1) if contains(M, a)
    ]
    report = monoid_catenary_report(M, window=w)
    assert (report.monotone, report.equal) == tuple(map(max, zip(*degrees)))


def _tame_by_definition(gens, w):
    """(value, attained_at) of the windowed tame degree from every
    factorization of every element up to w: for each element a, the max
    over atoms m_i with a - m_i in M and over z in Z(a) of the distance
    from z to the nearest factorization of a using m_i; then the largest
    value and the first element reaching it.  A z that uses m_i is at
    distance 0 from itself, so only the z with z_i = 0 can raise the max."""
    buckets = factorization_buckets(gens, w)
    best, attained = -1, None
    for a in range(w + 1):
        zs = buckets.get(a)
        if zs is None:
            continue
        ta = 0
        for i, g in enumerate(gens):
            if a - g in buckets:
                users = [u for u in zs if u[i] > 0]
                ta = max(
                    [ta]
                    + [min(distance(z, u) for u in users) for z in zs if z[i] == 0]
                )
        if ta > best:
            best, attained = ta, a
    return best, attained


@settings(deadline=None, max_examples=60)
@given(M=small_monoids, data=st.data())
def test_windowed_tame_degree_matches_the_definition(M, data):
    # the sweep stops at F + 2 m_t; windows up to three times that check
    # that nothing past it raises the value or moves where it is attained.
    # The budget still reaches past the stop of the densest such monoid,
    # <26, 27, 28, 29, 30>, whose sum is 21769 there
    cap = frobenius(M) + 2 * M.generators[-1]
    assert cap <= default_window(M)
    most = _oracle_window(M.generators, 3 * cap)
    w = data.draw(st.integers(0, _quadratic_window(M.generators, most, 40000)))
    event("past the stop" if w > cap else "within the stop")
    report = tame_degree_windowed(M, window=w)
    assert (report.value, report.attained_at) == _tame_by_definition(
        M.generators, w
    )
    assert report.window == w


@settings(deadline=None, max_examples=40)
@given(M=redundant_monoids(), data=st.data())
def test_incomplete_atom_graphs_carry_the_tame_sweep(M, data):
    # the gates' induction, element by element: the tame degree of every
    # member up to last is at most the largest at a flagged element not
    # above it, and at a kept element not above it.  The masks are also
    # read against membership and factorizations: a member is flagged
    # when two of its atoms are vertices and not adjacent, and kept when
    # some factorization avoids a vertex i and uses only atoms j with
    # a - m_i - m_j not in M, every one of them
    gens = M.generators
    stop = _oracle_window(gens, frobenius(M) + 2 * gens[-1])
    most = _quadratic_window(gens, stop, 40000)
    last = data.draw(st.just(most) | st.integers(0, most))
    gate = _incomplete(gens, _members(gens, last, None), last, None)
    witnesses = _witnesses(gens, last, None)
    kept = set(witnesses)
    event("some element flagged" if gate else "no element flagged")
    event("some flagged element cut" if len(kept) < gate.bit_count() else "none cut")
    assert witnesses == sorted(kept)

    def member(b):
        return b >= 0 and contains(M, b)

    best = best_kept = 0
    for a in range(last + 1):
        flagged = bool(gate >> a & 1)
        assert flagged or a not in kept
        if not member(a):
            assert not flagged
            continue
        assert flagged == any(
            member(a - mi) and member(a - mj) and not member(a - mi - mj)
            for mi, mj in itertools.combinations(gens, 2)
        )
        assert (a in kept) == any(
            member(a - mi)
            and all(not member(a - mi - gens[j]) for j, c in enumerate(z) if c)
            for z in factorizations(M, a)
            for i, mi in enumerate(gens)
            if z[i] == 0
        )
        degree = tame_degree(M, a)
        if flagged:
            best = max(best, degree)
        if a in kept:
            best_kept = max(best_kept, degree)
        assert degree <= best_kept <= best
    assert gate >> (last + 1) == 0


def _closure_by_move_graph(M, relations, window):
    """congruence_closure_check's report, from a search on each element's
    move graph: the vertices are Z(a), and each relation, read both ways,
    moves z to z - sub + add wherever sub fits below z coordinatewise.  A
    failure records a with the first factorization and the first one, in
    bucket order, the depth-first search from it never reaches."""
    moves = []
    for left, right in relations:
        moves.append((left, right))
        moves.append((right, left))
    buckets = factorization_buckets(M.generators, window)
    failures = []
    for a in sorted(buckets):
        zs = buckets[a]
        if len(zs) < 2:
            continue
        index = {z: i for i, z in enumerate(zs)}
        adjacency = [[] for _ in zs]
        for sub, add in moves:
            for z, i in index.items():
                if all(zc >= sc for zc, sc in zip(z, sub)):
                    w = tuple(zc - sc + ac for zc, sc, ac in zip(z, sub, add))
                    adjacency[i].append(index[w])
        seen = [False] * len(zs)
        seen[0] = True
        stack = [0]
        while stack:
            for j in adjacency[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not all(seen):
            missing = next(z for z, i in index.items() if not seen[i])
            failures.append((a, (zs[0], missing)))
    return ClosureReport(window, tuple(failures))


@st.composite
def closure_cases(draw):
    """(gens, relations, window), with relation sets that generate the
    congruence and sets that miss part of it: a sub-multiset of a minimal
    presentation, each relation either way round, plus a few extra relations
    between factorizations of one element."""
    gens = draw(st.sampled_from(CORPUS))
    pres = minimal_presentation(NumericalMonoid(gens))
    window = draw(st.integers(0, max(pres.betti_values()) + 2 * gens[-1]))
    picked = draw(
        st.lists(st.tuples(st.sampled_from(pres.relations), st.booleans()), max_size=6)
    )
    relations = [(r.right, r.left) if flip else (r.left, r.right) for r, flip in picked]
    buckets = factorization_buckets(gens, window)
    zs = buckets[draw(st.sampled_from(sorted(buckets)))]
    relations += draw(
        st.lists(st.tuples(st.sampled_from(zs), st.sampled_from(zs)), max_size=3)
    )
    return gens, relations, window


@settings(deadline=None, max_examples=200)
# the edges of the oracle's integer codes, whose radices are window // m_j + 1:
# window 0, where the zero vector is alone
@example(case=((2, 3), [((3, 0), (0, 2))], 0))
# a window below m_1, so every radix is 1
@example(case=((6, 9, 20), [((3, 0, 0), (0, 2, 0)), ((1, 6, 0), (0, 0, 3))], 5))
# a relation of value 60 past the window, whose digit 3 would carry: alone it
# must leave 18 disconnected
@example(case=((6, 9, 20), [((1, 6, 0), (0, 0, 3))], 59))
# a single generator, so every element has one factorization
@example(case=((3,), [((2,), (2,))], 12))
# five generators
@example(
    case=(
        (5, 6, 7, 8, 9),
        [((0, 2, 0, 0, 0), (1, 0, 1, 0, 0)), ((0, 0, 0, 2, 0), (0, 0, 1, 0, 1))],
        40,
    )
)
@given(case=closure_cases())
def test_closure_check_matches_the_move_graph_reference(case):
    gens, relations, window = case
    M = NumericalMonoid(gens)
    report = congruence_closure_check(M, relations, window)
    event("passes" if report.ok else "fails")
    assert report == _closure_by_move_graph(M, relations, window)


def _buckets_by_product(gens, bound):
    """Every vector of value <= bound from the full box of coordinates
    z_j <= bound // m_j, keyed by value, each list in reversed-lex order."""
    buckets = {}
    box = itertools.product(*(range(bound // g + 1) for g in gens))
    for z in sorted(box, key=lambda z: z[::-1]):
        value = sum(c * g for c, g in zip(z, gens))
        if value <= bound:
            buckets.setdefault(value, []).append(z)
    return buckets


@st.composite
def bounded_tuples(draw):
    """(gens, bound): an increasing tuple, neither necessarily primitive nor
    minimal, and a bound from 0 to past m_t, capped so that the box of
    _buckets_by_product stays small."""
    gens = tuple(
        sorted(draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True)))
    )
    hi = 2 * gens[-1]
    while math.prod(hi // g + 1 for g in gens) > 20000:
        hi -= 1
    return gens, draw(st.integers(0, hi))


@settings(deadline=None, max_examples=200)
@example(case=((5, 6, 7, 8, 9), 30))  # five generators
@given(case=bounded_tuples())
def test_factorization_buckets_match_the_product_reference(case):
    gens, bound = case
    assert factorization_buckets(gens, bound) == _buckets_by_product(gens, bound)
