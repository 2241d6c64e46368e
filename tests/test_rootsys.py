from __future__ import annotations

import operator
from collections import Counter

import pytest

from fractions import Fraction

from c1atlas import rootsys
from c1atlas.errors import IdentityViolation, InvalidIndex, InvalidRank, NotARoot, ProportionalRoots
from c1atlas.rootsys import (
    FAMILIES,
    MAX_RANK,
    Root,
    RootSystem,
    RootSystemType,
    length_class_counts,
    root_system,
)

from coord_models import positive_coefficient_vectors

COUNT_CASES = [
    ("A", 1, 1),
    ("A", 2, 3),
    ("A", 5, 15),
    ("B", 2, 4),
    ("B", 5, 25),
    ("C", 3, 9),
    ("C", 5, 25),
    ("D", 4, 12),
    ("D", 5, 20),
    ("BC", 1, 2),
    ("BC", 2, 6),
    ("BC", 5, 30),
    ("G2", 2, 6),
    ("F4", 4, 24),
    ("E6", 6, 36),
    ("E7", 7, 63),
    ("E8", 8, 120),
]


@pytest.mark.parametrize("family,rank,count", COUNT_CASES)
def test_positive_root_counts(family, rank, count):
    assert len(root_system(family, rank).positives) == count


ORACLE_CASES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 3), ("C", 4), ("C", 5),
    ("D", 4), ("D", 5),
    ("BC", 1), ("BC", 2), ("BC", 3),
    ("F4", 4), ("G2", 2), ("E6", 6), ("E7", 7), ("E8", 8),
]


@pytest.mark.parametrize("family,rank", ORACLE_CASES)
def test_positive_roots_match_coordinate_models(family, rank):
    rs = root_system(family, rank)
    generated = {lam.coeffs for lam in rs.positives}
    assert generated == positive_coefficient_vectors(family, rank)


def test_a2_positive_set():
    rs = root_system("A", 2)
    assert {lam.coeffs for lam in rs.positives} == {(1, 0), (0, 1), (1, 1)}


def test_bc2_positive_set():
    rs = root_system("BC", 2)
    assert {lam.coeffs for lam in rs.positives} == {
        (1, 0), (0, 1), (1, 1), (1, 2), (0, 2), (2, 2),
    }


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("BC", 0), ("E6", 5), ("G2", 3), ("F4", 2)],
)
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(InvalidRank):
        RootSystemType(family, rank)


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
def test_rank_cap(family):
    assert MAX_RANK == 20
    assert RootSystemType(family, MAX_RANK).rank == MAX_RANK
    for rank in (MAX_RANK + 1, 100000):
        with pytest.raises(InvalidRank, match="cap of 20"):
            RootSystemType(family, rank)


def test_heights_and_f4_highest_root():
    rs = root_system("F4", 4)
    top = rs.positives[-1]  # the highest root ends the canonical order
    assert top.coeffs == (2, 3, 4, 2)
    assert top.height == 11
    assert top.coefficient(3) == 4
    assert (-top).height == -11


def test_simple_root_height_and_coefficient():
    rs = root_system("BC", 2)
    assert rs.simple(2).height == 1
    assert Root((0, 2)).coefficient(1) == 0
    assert rs.simple(1).coefficient(1) == 1


def test_root_string_a2():
    rs = root_system("A", 2)
    s = rs.root_string(rs.simple(1), rs.simple(2))
    assert [r.coeffs for r in s] == [(1, 0), (1, 1)]


def test_root_string_g2_length_four():
    rs = root_system("G2", 2)
    s = rs.root_string(rs.simple(1), rs.simple(2))
    assert [r.coeffs for r in s] == [(1, 0), (1, 1), (1, 2), (1, 3)]


def test_root_string_f4_interior():
    rs = root_system("F4", 4)
    s = rs.root_string(Root((1, 1, 1, 0)), rs.simple(3))
    assert [r.coeffs for r in s] == [(1, 1, 1, 0), (1, 1, 2, 0)]


def test_root_string_rejects_proportional():
    rs = root_system("BC", 2)
    with pytest.raises(ProportionalRoots):
        rs.root_string(Root((0, 2)), Root((0, 1)))
    with pytest.raises(ProportionalRoots):
        rs.root_string(rs.simple(1), -rs.simple(1))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("BC", 2), ("F4", 4), ("G2", 2)])
def test_string_pq_identity(family, rank):
    # the two string ends always satisfy p - q = <lam, beta!> exactly
    rs = root_system(family, rank)
    for lam in rs.positives:
        for beta in rs.positives:
            try:
                up = rs.root_string(lam, beta)
            except ProportionalRoots:
                continue
            p = rs.string_down_count(lam, beta)
            q = len(up) - 1
            assert p - q == rs.pairing(lam, beta)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2), ("BC", 2)])
def test_string_length_four_only_in_g2(family, rank):
    rs = root_system(family, rank)
    longest = 0
    for lam in rs.positives:
        for beta in rs.positives:
            try:
                longest = max(longest, len(rs.root_string(lam, beta)))
            except ProportionalRoots:
                continue
    assert (longest == 4) == (family == "G2")


def test_phi_string_empty_set():
    rs = root_system("B", 3)
    lam = Root((1, 1, 0))
    assert rs.phi_string(lam, frozenset()) == {lam}


def test_phi_string_b5_chain():
    rs = root_system("B", 5)
    got = rs.phi_string(rs.simple(5), {1, 2, 3, 4})
    expected = {
        Root((0, 0, 0, 0, 1)),
        Root((0, 0, 0, 1, 1)),
        Root((0, 0, 1, 1, 1)),
        Root((0, 1, 1, 1, 1)),
        Root((1, 1, 1, 1, 1)),
    }
    assert got == expected


def test_phi_string_f4_has_eight_elements():
    rs = root_system("F4", 4)
    assert len(rs.phi_string(rs.simple(4), {1, 2, 3})) == 8


def test_phi_string_may_contain_zero():
    rs = root_system("A", 2)
    got = rs.phi_string(rs.simple(2), {2})
    assert Root((0, 0)) in got


def test_grading_f4_levels():
    rs = root_system("F4", 4)
    g = rs.grading(frozenset({2, 3, 4}))
    assert len(g.level(1)) == 14
    assert len(g.level(2)) == 1
    assert len(g.sigma_phi_pos) == 9
    assert g.level(2)[0] == rs.positives[-1]


def test_grading_c5_levels():
    rs = root_system("C", 5)
    assert len(rs.maximal_grading(1).level(1)) == 8
    assert len(rs.maximal_grading(5).level(1)) == 15


def test_grading_b5_levels():
    rs = root_system("B", 5)
    assert len(rs.maximal_grading(1).level(1)) == 9
    chain = rs.maximal_grading(5).level(1)
    assert [r.coeffs for r in chain] == [
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


@pytest.mark.parametrize("phi", [{0}, {4}, {1, 2, 7}, {-1}])
def test_out_of_range_phi_is_an_invalid_index(phi):
    rs = root_system("B", 3)
    with pytest.raises(InvalidIndex, match="not a set of simple indices 1..3"):
        rs.grading(phi)
    with pytest.raises(InvalidIndex, match="not a set of simple indices 1..3"):
        rs.phi_string(rs.simple(1), phi)


@pytest.mark.parametrize("i", [0, 3, -1, 7])
def test_simple_and_neighbors_reject_an_index_outside_the_diagram(i):
    rs = root_system("A", 2)
    with pytest.raises(InvalidIndex, match=r"simple index -?\d+ is outside 1..2"):
        rs.simple(i)
    with pytest.raises(InvalidIndex, match=r"simple index -?\d+ is outside 1..2"):
        rs.dynkin_neighbors(i)
    assert rs.simple(2) == Root((0, 1)) and rs.dynkin_neighbors(2) == {1}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("F4", 4), ("G2", 2)])
def test_level_zero_is_the_level_zero_subsystem(family, rank):
    rs = root_system(family, rank)
    for j in range(1, rank + 1):
        g = rs.maximal_grading(j)
        assert g.level(0) == g.sigma_phi_pos


def test_root_system_is_memoised_per_family_and_rank():
    assert root_system("B", 3) is root_system("B", 3)
    assert root_system("B", 3) is not root_system("C", 3)
    with pytest.raises(InvalidRank):
        root_system("C", 2)


def test_grading_degenerate_phis():
    rs = root_system("B", 3)
    full = rs.grading(frozenset({1, 2, 3}))
    assert full.levels == {}
    assert full.sigma_phi_pos == rs.positives
    empty = rs.grading(frozenset())
    assert empty.sigma_phi_pos == ()
    for nu, roots in empty.levels.items():
        assert all(r.height == nu for r in roots)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("BC", 3), ("F4", 4), ("G2", 2)])
def test_grading_partitions_positives(family, rank):
    rs = root_system(family, rank)
    for mask in range(1 << rank):
        phi = frozenset(i + 1 for i in range(rank) if mask & (1 << i))
        g = rs.grading(phi)
        combined = list(g.sigma_phi_pos)
        for nu in g.levels:
            combined.extend(g.levels[nu])
        assert sorted(combined) == list(rs.positives)


@pytest.mark.parametrize("family,rank", [("B", 5), ("C", 5), ("F4", 4), ("BC", 3), ("G2", 2)])
def test_level_one_is_the_phi_string(family, rank):
    rs = root_system(family, rank)
    for j in range(1, rank + 1):
        phi = frozenset(range(1, rank + 1)) - {j}
        from_string = {
            lam for lam in rs.phi_string(rs.simple(j), phi) if lam.is_positive
        }
        assert set(rs.maximal_grading(j).level(1)) == from_string


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("BC", 3), ("F4", 4), ("G2", 2), ("E6", 6)])
def test_simple_decrement_exists(family, rank):
    rs = root_system(family, rank)
    for lam in rs.positives:
        if lam.height < 2:
            continue
        assert any(
            rs.contains(lam.shifted(rs.simple(i), -1))
            and sum(lam.shifted(rs.simple(i), -1)) > 0
            for i in range(1, rank + 1)
        ), f"{lam} has no simple decrement"


def test_dynkin_neighbors():
    assert root_system("A", 3).dynkin_neighbors(2) == frozenset({1, 3})
    assert root_system("D", 4).dynkin_neighbors(2) == frozenset({1, 3, 4})
    assert root_system("G2", 2).dynkin_neighbors(1) == frozenset({2})


def test_g2_convention_second_root_short():
    rs = root_system("G2", 2)
    assert rs.length_sq(rs.simple(2)) == Fraction(2, 3)
    assert rs.length_sq(rs.simple(1)) == 2


def test_weighted_automorphisms_a3():
    rs = root_system("A", 3)
    equal = {1: 1, 2: 1, 3: 1}
    assert rs.weighted_diagram_automorphisms(equal) == ((1, 2, 3), (3, 2, 1))
    broken = {1: 1, 2: 1, 3: 2}
    assert rs.weighted_diagram_automorphisms(broken) == ((1, 2, 3),)


def test_weighted_automorphisms_d4_and_e6():
    d4 = root_system("D", 4)
    perms = d4.weighted_diagram_automorphisms({i: 1 for i in range(1, 5)})
    assert len(perms) == 6  # full permutation group of the three outer nodes
    assert all(sigma[1] == 2 for sigma in perms)
    e6 = root_system("E6", 6)
    assert len(e6.weighted_diagram_automorphisms({i: 1 for i in range(1, 7)})) == 2


def test_automorphisms_brute_force_oracle():
    # independent enumeration over all 24 permutations of the D4 nodes
    from itertools import permutations

    rs = root_system("D", 4)
    brute = []
    for perm in permutations(range(1, 5)):
        if all(
            rs.cartan[i][j] == rs.cartan[perm[i] - 1][perm[j] - 1]
            for i in range(4)
            for j in range(4)
        ):
            brute.append(perm)
    assert tuple(sorted(brute)) == rs.weighted_diagram_automorphisms({i: 1 for i in range(1, 5)})


def _relabel(lam: Root, sigma) -> Root:
    """The root with coefficient n_i moved to index sigma(i)."""
    out = [0] * len(lam.coeffs)
    for i, n in enumerate(lam.coeffs):
        out[sigma[i] - 1] = n
    return Root(tuple(out))


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E6", 6), ("BC", 3), ("F4", 4)])
def test_operations_equivariant_under_automorphisms(family, rank):
    rs = root_system(family, rank)
    for sigma in rs.weighted_diagram_automorphisms():
        relabeled = {_relabel(lam, sigma) for lam in rs.positives}
        assert relabeled == set(rs.positives)
        for j in range(1, rank + 1):
            image = {_relabel(lam, sigma) for lam in rs.maximal_grading(j).level(1)}
            assert image == set(rs.maximal_grading(sigma[j - 1]).level(1))


def test_positives_sorted_by_height_then_lex():
    rs = root_system("F4", 4)
    keys = [(lam.height, lam.coeffs) for lam in rs.positives]
    assert keys == sorted(keys)


def test_root_rejects_mixed_signs():
    with pytest.raises(ValueError):
        Root((1, -1))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2), ("E6", 6)])
def test_reduced_families_have_no_doubled_roots(family, rank):
    rs = root_system(family, rank)
    present = {lam.coeffs for lam in rs.positives}
    assert not any(tuple(2 * c for c in lam.coeffs) in present for lam in rs.positives)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_bc_doubled_roots_are_exactly_the_short_class(rank):
    rs = root_system("BC", rank)
    present = {lam.coeffs for lam in rs.positives}
    doubled = {lam for lam in rs.positives if tuple(2 * c for c in lam.coeffs) in present}
    assert doubled == {lam for lam in rs.positives if rs.length_sq(lam) == 1}
    assert len(doubled) == rank


def _edges(rs):
    """Dynkin edges as (i, j, label) with i < j, read off the Cartan matrix."""
    c = rs.cartan
    return tuple(
        (i + 1, j + 1, c[i][j] * c[j][i])
        for i in range(rs.rank)
        for j in range(i + 1, rs.rank)
        if c[i][j]
    )


def test_dynkin_edges_with_labels():
    assert _edges(root_system("G2", 2)) == ((1, 2, 3),)
    assert _edges(root_system("F4", 4)) == ((1, 2, 1), (2, 3, 2), (3, 4, 1))
    assert _edges(root_system("BC", 3)) == ((1, 2, 1), (2, 3, 2))
    d4 = _edges(root_system("D", 4))
    assert d4 == ((1, 2, 1), (2, 3, 1), (2, 4, 1))


def test_whole_diagram_names_its_own_type():
    # fails if two types of one rank ever share their counts per root length
    for family in FAMILIES:
        for rank in range(1, MAX_RANK + 1):
            try:
                rs = root_system(family, rank)
            except InvalidRank:
                continue
            assert rs.subsystem_type(range(1, rank + 1)) == rs.rtype


# two disconnected node sets, one across the BC end, and the empty set
@pytest.mark.parametrize("family,rank,nodes", [("A", 3, (1, 3)), ("F4", 4, (1, 2, 4)), ("BC", 3, (1, 3)), ("A", 3, ())])
def test_subsystem_type_rejects_a_node_set_no_system_matches(family, rank, nodes):
    with pytest.raises(IdentityViolation, match="no root system of rank"):
        root_system(family, rank).subsystem_type(nodes)


@pytest.mark.parametrize("nodes", [(0,), (1, 5), (4, 5)])
def test_subsystem_type_rejects_out_of_range_nodes(nodes):
    with pytest.raises(InvalidIndex, match="not a set of simple indices 1..4"):
        root_system("F4", 4).subsystem_type(nodes)


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 4), ("BC", 3), ("F4", 4)])
def test_level_zero_subsystem_is_bracket_closed(family, rank):
    # the level-zero part of any grading is itself a root subsystem
    rs = root_system(family, rank)
    for mask in range(1 << rank):
        phi = frozenset(i + 1 for i in range(rank) if mask & (1 << i))
        sigma = set(rs.grading(phi).sigma_phi_pos)
        full = sigma | {-lam for lam in sigma}
        for a in full:
            for b in full:
                s = a.shifted(b)
                if rs.contains(s) and any(c != 0 for c in s):
                    assert Root(s) in full


def test_phi_string_of_a_negative_root():
    rs = root_system("B", 5)
    got = rs.phi_string(-rs.simple(5), {1, 2, 3, 4})
    assert got == {-lam for lam in rs.phi_string(rs.simple(5), {1, 2, 3, 4})}


KERNEL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("BC", r) for r in range(1, 5)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]
)


@pytest.mark.parametrize("family,rank", KERNEL_TYPES)
def test_integer_pairings_match_the_fraction_gram(family, rank):
    # reference: the Fraction Gram matrix, one covector G.lam per root
    rs = root_system(family, rank)
    roots = list(rs.positives) + [-lam for lam in rs.positives]
    covectors = [[sum(n * g for n, g in zip(lam.coeffs, col)) for col in zip(*rs.gram)] for lam in roots]
    inner = [[sum(g * n for g, n in zip(gl, mu.coeffs) if n) for mu in roots] for gl in covectors]
    lengths = [inner[a][a] for a in range(len(roots))]
    assert [rs.length_sq(lam) for lam in roots] == lengths
    for a, lam in enumerate(roots):
        assert [rs.inner(lam, mu) for mu in roots] == inner[a]
        pairings = [2 * v / length for v, length in zip(inner[a], lengths)]
        assert all(p.denominator == 1 for p in pairings)
        assert [rs.pairing(lam, mu) for mu in roots] == pairings
    lam = roots[-1]
    assert type(rs.inner(lam, lam)) is Fraction and type(rs.length_sq(lam)) is Fraction
    assert type(rs.pairing(lam, lam)) is int


def test_length_sq_of_a_non_root_is_computed():
    rs = root_system("G2", 2)
    assert rs.length_sq(Root((0, 3))) == 6 and not rs.contains((0, 3))
    assert rs.length_sq(Root((2, 6))) == 4 * rs.length_sq(Root((1, 3)))


def test_non_integral_pairing_raises():
    # 2 (a2, 3a2) / (3a2, 3a2) = 2/3 on G2
    with pytest.raises(IdentityViolation, match="non-integral Cartan pairing of a2 with 3a2"):
        root_system("G2", 2)._pairing_coeffs((0, 1), (0, 3))


# each call reads a coefficient vector of the wrong length, or a non-root where
# a root is due, on G2
WRONG_VECTOR_CALLS = {
    "inner-long": lambda rs: rs.inner(Root((1, 0, 0)), rs.simple(1)),
    "inner-short": lambda rs: rs.inner(rs.simple(1), Root((1,))),
    "length_sq": lambda rs: rs.length_sq(Root((1, 0, 0))),
    "pairing-long": lambda rs: rs.pairing(Root((1, 0, 0)), rs.simple(1)),
    "pairing-short": lambda rs: rs.pairing(rs.simple(1), Root((1,))),
    "phi_string": lambda rs: rs.phi_string(Root((1, 0, 7)), [1]),
    "string_down_count-short": lambda rs: rs.string_down_count(Root((1,)), rs.simple(2)),
    "string_down_count-non-root": lambda rs: rs.string_down_count(Root((5, 5)), rs.simple(2)),
    "string_down_count-beta": lambda rs: rs.string_down_count(rs.simple(1), Root((0, 3))),
}


@pytest.mark.parametrize("call", sorted(WRONG_VECTOR_CALLS))
def test_wrong_vectors_raise_not_a_root(call):
    with pytest.raises(NotARoot):
        WRONG_VECTOR_CALLS[call](root_system("G2", 2))


# -- an independent check of the generator on every family up to MAX_RANK ---------

def _positive_count(family, r):
    closed = {"A": r * (r + 1) // 2, "B": r * r, "C": r * r, "D": r * (r - 1), "BC": r * (r + 1)}
    return closed.get(family) or {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[family]


ALL_TYPES = {
    "A": range(1, MAX_RANK + 1),
    "B": range(2, MAX_RANK + 1),
    "C": range(3, MAX_RANK + 1),
    "D": range(4, MAX_RANK + 1),
    "BC": range(1, MAX_RANK + 1),
    "E6": [6], "E7": [7], "E8": [8], "F4": [4], "G2": [2],
}


@pytest.mark.parametrize("family", sorted(ALL_TYPES))
def test_generator_against_closed_forms_and_reflections(family):
    for rank in ALL_TYPES[family]:
        rs = root_system(family, rank)
        assert len(rs.positives) == _positive_count(family, rank), (family, rank)
        # Phi is closed under every simple reflection lam - <lam, a_i-dual> a_i,
        # with the pairing read off the Cartan matrix (cartan[j][i] = <a_j, a_i-dual>)
        columns = list(zip(*rs.cartan))
        phi = [lam.coeffs for lam in rs.positives] + [(-lam).coeffs for lam in rs.positives]
        for lam in phi:
            for i, column in enumerate(columns):
                k = sum(map(operator.mul, lam, column))
                assert rs.contains(lam[:i] + (lam[i] - k,) + lam[i + 1 :]), (family, rank, lam, i + 1)
        # the BC doubles are exactly twice the roots of squared length 1, by the Gram matrix
        present = {lam.coeffs for lam in rs.positives}
        doubles = {c for c in present if all(n % 2 == 0 for n in c) and tuple(n // 2 for n in c) in present}
        if family != "BC":
            assert not doubles
            continue
        # the BC Gram matrix is integral: squared lengths 1, 2, 4
        gram = [[int(g) for g in row] for row in rs.gram]
        assert gram == [list(row) for row in rs.gram]
        unit = {c for c in present if sum(a * sum(map(operator.mul, c, row)) for a, row in zip(c, gram) if a) == 1}
        assert doubles == {tuple(2 * n for n in c) for c in unit}, rank


def test_length_class_counts_match_the_generated_roots():
    # the closed forms the catalog validates with, against a count of the
    # generated roots of every valid type up to MAX_RANK
    checked = 0
    for family, ranks in ALL_TYPES.items():
        for rank in ranks:
            rs = root_system(family, rank)
            counted = dict(Counter(rs.length_sq(lam) for lam in rs.positives))
            assert length_class_counts(family, rank) == counted, (family, rank)
            assert all(type(length) is Fraction for length in counted)
            checked += 1
    assert checked == 99


@pytest.mark.parametrize("family,rank", [("B", 1), ("C", 2), ("D", 3), ("E6", 7), ("A", 0), ("A", MAX_RANK + 1), ("X", 2)])
def test_length_class_counts_validate_the_type(family, rank):
    with pytest.raises(InvalidRank):
        length_class_counts(family, rank)


@pytest.mark.parametrize(
    "family,rank,lengths6,message",
    [("G2", 2, [12, 6], "is not symmetrizable"), ("A", 2, [3, 3], "is not integral")],
)
def test_gram_guards_reject_bad_six_fold_lengths(monkeypatch, family, rank, lengths6, message):
    # the Cartan data of the family with other six-fold squared lengths, on a
    # private system (the memoised one of root_system stays intact)
    diagram = rootsys._family_diagram

    def patched(fam, r):
        edges, overrides, _ = diagram(fam, r)
        return edges, overrides, lengths6

    monkeypatch.setattr(rootsys, "_family_diagram", patched)
    with pytest.raises(IdentityViolation, match=message):
        RootSystem(RootSystemType(family, rank))


@pytest.mark.parametrize("family,rank", [("A", 3), ("BC", 2), ("C", 3), ("F4", 4), ("G2", 2)])
def test_gram_is_six_fold_gram_over_six(family, rank):
    rs = root_system(family, rank)
    for i, row in enumerate(rs.gram):
        assert row == tuple(Fraction(g, 6) for g in rs._gram6[i])
        assert all(type(g) is Fraction for g in row)
        # the diagonal is the squared length, the off-diagonal (a_i, a_j) = cartan[i][j] |a_j|^2 / 2
        for j, g in enumerate(row):
            assert g == rs.cartan[i][j] * rs.length_sq(rs.simple(j + 1)) / 2
