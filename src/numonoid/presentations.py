"""Factorization graphs, Betti elements, and minimal presentations.

The factorization graph of an element a joins two factorizations whenever
they share an atom, so each of its components is fixed by the set of atoms
its members use, and distinct components use disjoint sets.  The
components are therefore built from atom bitmasks (_atom_union): each
factorization merges every component whose mask meets its support, and
there are at most t + 1 of them.  Elements with a disconnected graph are
the Betti elements; a minimal presentation of M consists, for each Betti
element, of any set of relations forming a spanning tree on the components
of its graph.
This module computes a deterministic ("canonical") choice, enumerates or
counts all choices, and finds the Betti elements from the finite Apery
candidate set rather than an unbounded scan.

The scan decides every candidate at once, without enumerating Z(c).  By
Rosales' theorem (Semigroup Forum 55, 1997; Rosales and Garcia-Sanchez,
Numerical Semigroups, 2009, ch. 7) the factorization graph of c has as many
components as the atom graph of c: its vertices are the atoms m_i with
c - m_i in M, and m_i ~ m_j whenever c - m_i - m_j in M.  Only the
candidates whose atom graph is disconnected, which are the Betti elements,
are enumerated.

The atom graphs of all candidates are decided together, with Python ints as
packed vectors holding one field per residue rho mod m_1.  Write

    l_s(rho) = ap[(rho - s) mod m_1] + s,

the least element of M + s congruent to rho, where ap is the Apery table of
M with respect to m_1.  The candidates from generator m_i (i >= 2) are
exactly c = l_{m_i}(rho) for rho != m_i mod m_1 (the residue left out is the
one where w = 0), and for such c and any s >= 0

    c - s in M  iff  c >= l_s(rho).

Proof.  c - s is congruent to rho - s, and an integer x is in M iff
x >= ap[x mod m_1] (a negative x fails, as the table is non-negative), so
c - s in M iff c - s >= ap[(rho - s) mod m_1], that is c >= l_s(rho).  As
rho runs over the residues other than m_i, w = ap[(rho - m_i) mod m_1] runs
over the non-zero Apery elements, so l_{m_i}(rho) = m_i + w runs over the
candidates from m_i.

So with s = m_j the comparison gives the vertices of every candidate's atom
graph, and with s = m_j + m_l its edges.  One subtraction compares all
residues at once.  Let C hold the candidates, L a vector l_s and G the top
bit of every field, which lies above every value, so it is clear in C and
L.  Then (C | G) - L borrows only inside a field, and keeps the guard bit
of a field exactly when that field of C is at least that of L.
A bitwise Floyd-Warshall over the t atoms (_reach) then closes every
candidate's edge relation in t rounds, and the candidates with a vertex
that m_i does not reach are read off the set guard bits.  That is a few
hundred big-int operations for the whole scan, each linear in m_1.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from operator import and_, rshift

from .core import (
    DEFAULT_CAP,
    NumericalMonoid,
    _check_deadline,
    _natural,
    _redundant,
    _SizedMemo,
    apery,
)
from .errors import NotAnElement, NotARelation, NotMinimal
from .factorizations import _enumerate


@dataclass(frozen=True)
class Relation:
    """Two factorizations of the same element, stored in canonical order.

    The canonical order puts the side with the larger length first, breaking
    ties by lexicographic comparison, so a relation and its flip compare
    equal after construction through make_relation.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    betti: int

    def pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.left, self.right)


def make_relation(M: NumericalMonoid, left, right) -> Relation:
    """Validate and canonicalize a relation; betti tag is the common value."""
    left, right = tuple(left), tuple(right)
    lval = M.evaluate(left)
    rval = M.evaluate(right)
    if lval != rval:
        raise NotARelation(
            f"sides evaluate to {lval} and {rval} under {M!r}"
        )
    if left == right:
        raise NotARelation("sides of a relation must differ")
    return _relation(left, right, lval)


def _relation(left: tuple, right: tuple, betti: int) -> Relation:
    """The Relation of two distinct factorizations of betti, sides in the
    canonical order; nothing is evaluated, so the caller vouches for them."""
    if (sum(left), left) < (sum(right), right):
        left, right = right, left
    return Relation(left, right, betti)


@dataclass(frozen=True)
class Presentation:
    """A set of relations, canonically sorted by (betti, left, right)."""

    monoid: NumericalMonoid
    relations: tuple[Relation, ...]

    def betti_values(self) -> list[int]:
        return sorted({r.betti for r in self.relations})

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.monoid.generators),
            "betti_elements": self.betti_values(),
            "relations": [
                {"betti": r.betti, "left": list(r.left), "right": list(r.right)}
                for r in self.relations
            ],
        }


def make_presentation(M: NumericalMonoid, relations) -> Presentation:
    rels = sorted(set(relations), key=lambda r: (r.betti, r.left, r.right))
    return Presentation(M, tuple(rels))


@dataclass(frozen=True)
class FactorizationGraph:
    """Z(a) plus the component partition of the shared-atom graph.

    Edges are implicit; only the partition is stored.  vertices keeps the
    enumeration order.  Each component is a lexicographically sorted tuple
    of factorizations, and the components are ordered by their first
    (smallest) member.
    """

    element: int
    vertices: tuple[tuple[int, ...], ...]
    components: tuple[tuple[tuple[int, ...], ...], ...]


def _atom_union(t: int, zs: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    # the components as lists, each with the disjoint mask of the atoms its
    # members use (module docstring): at most t + 1 of them, as the zero
    # vector of Z(0) has no atom and stays alone, so a call is linear in
    # |zs| * t
    masks: list[int] = []
    comps: list[list[tuple[int, ...]]] = []
    for z in zs:
        mask = 0
        for i in range(t):
            if z[i]:
                mask |= 1 << i
        merged = [z]
        k = 0
        while k < len(masks):
            if masks[k] & mask:
                mask |= masks.pop(k)
                merged += comps.pop(k)
            else:
                k += 1
        masks.append(mask)
        comps.append(merged)
    return comps


def _graph_of(
    M: NumericalMonoid, a: int, deadline: float | None, memo: _SizedMemo | None = None
) -> FactorizationGraph:
    """Z(a) by _enumerate, with the memo of T's length classes if one is
    given, and the components of its factorization graph (_atom_union).
    Components are disjoint, so sorting the sorted components orders them
    by their first member.  factorization_graph and the Betti scan pass no
    memo; the router passes its own (shifted._class_memo)."""
    gens = M.generators
    zs = _enumerate(gens, a, DEFAULT_CAP, deadline, memo)
    comps = sorted([tuple(sorted(comp)) for comp in _atom_union(len(gens), zs)])
    return FactorizationGraph(a, tuple(zs), tuple(comps))


def factorization_graph(
    M: NumericalMonoid, a: int, *, deadline: float | None = None
) -> FactorizationGraph:
    """Component partition of the factorization graph of a; NotAnElement
    when a is not in M."""
    graph = _graph_of(M, _natural(a, "target element"), deadline)
    if not graph.vertices:
        raise NotAnElement(f"{a} is not an element of {M.generators}")
    return graph


def _require_minimal(M: NumericalMonoid) -> None:
    # read off the Apery table of the primitive M (core._redundant), so
    # nothing is enumerated; the smallest redundant generator is named
    redundant = _redundant(M)
    if redundant:
        raise NotMinimal(
            f"generator {redundant[0]} is a combination of the others in {M!r}"
        )


def _pack(values: tuple[int, ...], size: int) -> int:
    """The values as one int whose k-th field of size bytes holds values[k];
    every value must fit in its field.  The bytes are laid out by C-level
    strided copies, eight bytes of each value at a time."""
    out = bytearray(len(values) * size)
    for lo in range(0, size, 8):
        # bytes lo .. lo + 7 of every value, as little-endian 8-byte words
        part = values
        if size > 8:
            down = map(rshift, values, itertools.repeat(8 * lo))
            part = map(and_, down, itertools.repeat(2**64 - 1))
        words = array("Q", part)
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
        for b in range(min(8, size - lo)):
            out[lo + b :: size] = raw[b::8]
    return int.from_bytes(out, "little")


def _reach(t: int, edge) -> list[list[int]]:
    """reach[j][l], for j != l: the bits at which atoms j and l are joined
    by a path, in a family of graphs on the t atoms packed one graph per
    bit, whose edge j ~ l is set at the bits of edge(j, l).

    A bitwise Floyd-Warshall: round k lets paths pass through atom k, so
    after t rounds every path is closed, in O(t^3) big-int operations for
    the whole family.  An edge must join two vertices of its graph; a path
    then passes only through vertices.
    """
    pairs = list(itertools.combinations(range(t), 2))
    reach = [[0] * t for _ in range(t)]
    for j, l in pairs:
        reach[j][l] = reach[l][j] = edge(j, l)
    for k in range(t):
        via = reach[k]
        for j, l in pairs:
            if k != j and k != l:
                reach[j][l] = reach[l][j] = reach[j][l] | via[j] & via[l]
    return reach


def _split_candidates(
    gens: tuple[int, ...], ap: tuple[int, ...], deadline: float | None
) -> set[int]:
    """The candidates m_i + w (i >= 2, w in Ap(M, m_1), w != 0) whose atom
    graph is disconnected, decided on packed vectors (module docstring).

    ap is the Apery table of M = <gens> with respect to m_1 = len(ap).
    Minimal generation is not used, so this holds for any primitive tuple.
    """
    m1, t = len(ap), len(gens)
    _check_deadline(deadline)
    # a field holds every l_s compared below (s <= m_{t-1} + m_t) and one
    # guard bit above it, rounded up to whole bytes
    size = (max(ap) + 2 * gens[-1]).bit_length() // 8 + 1
    width = 8 * size
    span = width * m1
    full = (1 << span) - 1
    ones = full // ((1 << width) - 1)
    guard = ones << (width - 1)
    packed = _pack(ap, size)

    def least(s: int) -> int:
        # field rho holds l_s(rho): the table rotated up by s fields, plus s
        k = s % m1 * width
        return ((packed << k) & full | packed >> (span - k)) + s * ones

    # l_s for every s compared below, built once for all the passes
    pairs = list(itertools.combinations(range(t), 2))
    lows = {s: least(s) for s in {*gens, *(gens[j] + gens[l] for j, l in pairs)}}
    split = set()
    for i in range(1, t):
        _check_deadline(deadline)
        mi = gens[i]
        c = lows[mi] | guard
        # reach[j][l]: guard bits of the candidates whose atom graph joins
        # m_j and m_l by a path
        reach = _reach(t, lambda j, l: (c - lows[gens[j] + gens[l]]) & guard)
        # a vertex m_j that m_i does not reach; every path from m_i ends at
        # a vertex, so reach[i][j] is inside the vertex bits and ^ removes it
        apart = 0
        for j in range(t):
            if j != i:
                apart |= (c - lows[gens[j]]) & guard ^ reach[i][j]
        while apart:
            bit = apart.bit_length() - 1
            apart ^= 1 << bit
            rho = bit // width
            if rho != mi % m1:  # w = 0 there
                split.add(ap[(rho - mi) % m1] + mi)
    return split


def _betti_impl(
    M: NumericalMonoid, deadline: float | None
) -> tuple[FactorizationGraph, ...]:
    # the factorization graphs of the Betti elements, in increasing order;
    # apery raises NotPrimitive, and its deadline is checked before the
    # minimality test reads the table
    ap = apery(M, deadline=deadline)
    _require_minimal(M)
    # Candidate set {m_i + w : i >= 2, w in Ap(M, m_1), w != 0}.  Every Betti
    # element b lies in it: the factorizations of b using the atom m_1
    # pairwise share it, so they occupy a single component of the graph, and
    # a disconnected graph has some component C avoiding m_1 entirely.  Pick
    # z in C and an index i >= 2 with z_i > 0.  If b - m_i - m_1 were in M,
    # extending one of its factorizations by e_1 + e_i would share m_i with z
    # and m_1 with the m_1-using component, collapsing the two, which is
    # impossible.  So w = b - m_i is in the Apery set, and w != 0 because an
    # atom of a minimal tuple factors uniquely (as itself).
    #
    # Only candidates whose atom graph is disconnected are enumerated, by
    # Rosales' theorem (module docstring).  Proof: send each vertex m_i of
    # the atom graph of c to the component of the factorizations of c that
    # use m_i; there is at least one, since c - m_i is in M, and they
    # pairwise share m_i.  Every component is reached, since c > 0.  An edge
    # m_i ~ m_j extends to a factorization using both, so adjacent atoms go
    # to one component.  Conversely the support of a factorization is a
    # clique of the atom graph, and two factorizations sharing an atom have
    # connected supports, so the atoms used in one component of the
    # factorization graph are connected in the atom graph.
    return tuple(
        _graph_of(M, c, deadline)
        for c in sorted(_split_candidates(M.generators, ap, deadline))
    )


def _canonical_presentation(
    M: NumericalMonoid, graphs: Iterable[FactorizationGraph]
) -> Presentation:
    # one spanning choice per Betti element: join each other component's
    # first member to the first member of the first component; both are
    # factorizations of the graph's element, so neither side is evaluated
    return make_presentation(
        M,
        [
            _relation(g.components[0][0], comp[0], g.element)
            for g in graphs
            for comp in g.components[1:]
        ],
    )


_Scan = tuple[tuple[FactorizationGraph, ...], Presentation]


def _minpres_impl(M: NumericalMonoid, deadline: float | None) -> _Scan:
    graphs = _betti_impl(M, deadline)
    return graphs, _canonical_presentation(M, graphs)


# The most entries a memo of results holds: this one, keyed by the monoid,
# and shifted's memo of verified lifts.  Both are core._SizedMemos that
# count each entry as size 1, so past this many the oldest entry is
# dropped.  An entry holds Betti graphs and relations, no table of m_1
# entries as core's Apery memo does.
_MEMO_ENTRIES = 128

# One memo keyed by the monoid alone, holding the scan's Betti graphs next
# to the canonical presentation built from them.  An exact result is exact
# whatever budget it was computed under, so calls with and without a
# deadline share it.  Only completed computations are stored.
# clear_caches() empties it.
_minpres_memo = _SizedMemo(_MEMO_ENTRIES, lambda scan: 1)


def _scan(M: NumericalMonoid, deadline: float | None) -> _Scan:
    """The memoized direct scan of M: its Betti graphs and presentation."""
    scan = _minpres_memo.get(M)
    if scan is None:
        scan = _minpres_memo.remember(M, _minpres_impl(M, deadline))
    return scan


def minimal_presentation(
    M: NumericalMonoid, *, deadline: float | None = None
) -> Presentation:
    """The canonical minimal presentation of M, by the direct scan."""
    return _scan(M, deadline)[1]


def betti_elements(M: NumericalMonoid, *, deadline: float | None = None) -> list[int]:
    """Sorted Betti elements of M (elements with disconnected graph), read
    off the memoized minimal presentation: each Betti element tags at least
    one of its relations."""
    return minimal_presentation(M, deadline=deadline).betti_values()


def _labeled_trees(c: int):
    """All labeled trees on c >= 2 nodes as sorted edge lists, by Prufer
    code.  _beta_choices passes the component count of a Betti element's
    graph, which is at least two."""
    for seq in itertools.product(range(c), repeat=c - 2):
        degree = [1] * c
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            # the smallest leaf; a used leaf drops to degree 0
            leaf = degree.index(1)
            degree[leaf] = 0
            edges.append((min(leaf, x), max(leaf, x)))
            degree[x] -= 1
        u = degree.index(1)
        edges.append((u, degree.index(1, u + 1)))
        yield sorted(edges)


def _spanning_tree_count(sizes: list[int]) -> int:
    """Spanning trees of the complete multigraph on c = len(sizes) >= 2
    components with |C_i||C_j| parallel edges, by the weighted Cayley
    formula prod |C_i| * (sum |C_i|)^(c-2)."""
    return math.prod(sizes) * sum(sizes) ** (len(sizes) - 2)


def _beta_choices(
    M: NumericalMonoid, comps: tuple[tuple[tuple[int, ...], ...], ...], cap: int
) -> list[tuple[Relation, ...]]:
    # all spanning choices at one Betti element, truncated at cap; order is
    # deterministic (Prufer code order, then product order over sorted members)
    choices: list[tuple[Relation, ...]] = []
    for tree in _labeled_trees(len(comps)):
        per_edge = [
            [(u, v) for u in comps[i] for v in comps[j]] for i, j in tree
        ]
        for pick in itertools.product(*per_edge):
            choices.append(tuple(make_relation(M, u, v) for u, v in pick))
            if len(choices) >= cap:
                return choices
    return choices


def all_minimal_presentations(
    M: NumericalMonoid, cap: int = 64
) -> tuple[int, list[Presentation]]:
    """Exact count of minimal presentations plus up to cap of them.

    The count is the product over Betti elements of the spanning-tree count
    of the complete multigraph on the components of the factorization graph,
    with edge multiplicity |C|*|C'| between components C and C'.  The
    graphs come from shifted._betti_graphs, by the lift or the scan.
    """
    cap = _natural(cap, "cap")
    from .shifted import _betti_graphs  # shifted imports this module

    count = 1
    per_beta: list[list[tuple[Relation, ...]]] = []
    for graph in _betti_graphs(M, None):
        comps = graph.components
        count *= _spanning_tree_count([len(c) for c in comps])
        if cap > 0:
            per_beta.append(_beta_choices(M, comps, cap))
    items: list[Presentation] = []
    if cap > 0:
        for combo in itertools.product(*per_beta):
            items.append(
                make_presentation(M, [r for group in combo for r in group])
            )
            if len(items) >= cap:
                break
    return count, items
