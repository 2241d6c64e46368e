from __future__ import annotations

import hashlib
import json
import tracemalloc
from math import comb
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from c1atlas.chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra, dump_structure_constants
from c1atlas.errors import IdentityViolation, InjectivityViolation, NonReducedSystem, NotARoot
from c1atlas.rootsys import Root, RootSystem, RootSystemType, root_system
from c1atlas.scalars import GAUSSIAN, RATIONAL
from c1atlas.verify import (
    check_constant_magnitudes,
    check_root_space_identities,
    check_string_injectivity,
    check_theta_bracket_identity,
)

from coord_models import simple_gram
from dense_refs import det, in_centraliser_of_flat


def test_sl2_relations():
    alg = build_algebra(root_system("A", 1))
    a = alg.rs.simple(1)
    e, f, h = alg.e(a), alg.e(-a), alg.h(1)
    assert alg.bracket(e, f) == h
    assert alg.bracket(h, e) == 2 * e
    assert alg.bracket(h, f) == (-2) * f


def test_dimension_is_rank_plus_roots():
    for fam, rank in [("A", 2), ("B", 2), ("G2", 2), ("F4", 4)]:
        alg = build_algebra(root_system(fam, rank))
        assert alg.dim == rank + 2 * len(alg.rs.positives)


def test_bc_rejected():
    with pytest.raises(NonReducedSystem):
        build_algebra(root_system("BC", 2))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G2", 2)])
def test_jacobi_exhaustive_small(family, rank):
    alg = build_algebra(root_system(family, rank))
    assert alg.check_jacobi_exhaustive() > 0


def test_g2_jacobi_triple_count(g2_split):
    # dim 14 gives C(14, 3) = 364 unordered basis triples
    assert g2_split.check_jacobi_exhaustive() == 364


def _negate_constant(alg, lam, mu):
    """Flip the sign of N(lam, mu) in both stored orders of the bracket table."""
    ka, kb = alg.index[("e", lam)], alg.index[("e", mu)]
    for x, y in ((ka, kb), (kb, ka)):
        alg._table[x][y] = tuple((k, -v) for k, v in alg._table[x][y])


@pytest.mark.parametrize(
    "family,rank,scalars,lam,mu,triple",
    [
        ("F4", 4, RATIONAL, (0, 1, 0, 0), (0, 0, 1, 0), "4,5,6"),
        ("F4", 4, RATIONAL, (0, 1, 2, 0), (1, 1, 0, 0), "4,10,12"),
        ("G2", 2, GAUSSIAN, (1, 0), (0, 1), "2,3,5"),
    ],
)
def test_jacobi_sweep_names_the_first_failing_triple(family, rank, scalars, lam, mu, triple):
    # one negated root-root constant breaks Jacobi; the sweep reports the
    # first failing triple in (i, j, k) loop order, the one an element-bracket
    # sweep reports
    alg = build_algebra(root_system(family, rank), scalars)
    _negate_constant(alg, Root(lam), Root(mu))
    with pytest.raises(IdentityViolation, match=f"basis triple {triple}$"):
        alg.check_jacobi_exhaustive()


def test_jacobi_sweep_builds_no_elements(monkeypatch):
    alg = build_algebra(root_system("F4", 4))

    def refuse(self, algebra, terms):
        raise RuntimeError("the Jacobi sweep built an AlgebraElement")

    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    assert alg.check_jacobi_exhaustive() == comb(alg.dim, 3)


@pytest.mark.parametrize(
    "family,rank,coeffs", [("G2", 2, (-1, -1)), ("G2", 2, (1, 3)), ("F4", 4, (2, 3, 4, 2))]
)
def test_structure_constants_reject_a_non_integral_length_ratio(family, rank, coeffs):
    # a private system with one six-fold squared length off by one (the
    # memoised system of root_system stays intact); the length-ratio guard of
    # the structure constants fires before the coroot and pairing guards
    rs = RootSystem(RootSystemType(family, rank))
    rs._root_len6[coeffs] += 1
    with pytest.raises(IdentityViolation, match=r"non-integral N\("):
        build_algebra(rs)


def _all_pairs_constants(alg) -> dict:
    """Reference: N(a, b) for every ordered pair of root positions whose roots sum to a root.

    The positive special pairs come from the extraspecial recursion, and every
    other sign pattern from a scan over all pairs of roots, through the
    negation, antisymmetry and length-ratio rules applied one pair at a time.
    """
    coeffs = [lam.coeffs for lam in alg.roots]
    n_pos = len(coeffs) // 2
    position = {c: a for a, c in enumerate(coeffs)}
    len6 = [alg.rs._root_len6[c] for c in coeffs]
    heights = [sum(c) for c in coeffs]
    positive = {}

    def add(a, b):
        return position.get(tuple(x + y for x, y in zip(coeffs[a], coeffs[b])))

    def minus(a, b):
        return position.get(tuple(x - y for x, y in zip(coeffs[a], coeffs[b])))

    def exact(num, den):
        q, rem = divmod(num, den)
        assert not rem
        return q

    def n(a, b):
        if a >= n_pos:
            return -n(a - n_pos, b - n_pos) if b >= n_pos else -n(b, a)
        if b < n_pos:
            value = positive.get((a, b))
            return -positive[(b, a)] if value is None else value
        s = add(a, b)
        if s < n_pos:
            return exact(len6[s] * n(s, b - n_pos), len6[a])
        return exact(len6[s] * n(s - n_pos, a), len6[b])

    for g in range(n_pos):
        if heights[g] == 1:
            continue
        pairs = [(x, minus(g, x)) for x in range(g) if heights[x] < heights[g]]
        pairs = [(x, e) for x, e in pairs if e is not None and x < e]
        alpha, beta = pairs[0]
        p, down = 0, minus(beta, alpha)
        while down is not None:
            p, down = p + 1, minus(down, alpha)
        positive[(alpha, beta)] = 1 + p
        for x, e in pairs[1:]:
            acc = 0
            if minus(x, alpha) is not None:
                acc += n(alpha + n_pos, x) * n(minus(x, alpha), e)
            if minus(e, alpha) is not None:
                acc += n(alpha + n_pos, e) * n(x, minus(e, alpha))
            positive[(x, e)] = exact(acc, n(alpha + n_pos, g))
    return {
        (a, b): (add(a, b), n(a, b))
        for a in range(2 * n_pos)
        for b in range(2 * n_pos)
        if a != b and add(a, b) is not None
    }


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]
)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES, ids=lambda v: str(v))
def test_root_constants_per_triple_match_the_all_pairs_scan(family, rank):
    alg = build_algebra(root_system(family, rank))
    r = alg.rs.rank
    table = {
        (ka - r, kb - r): (terms[0][0] - r, terms[0][1])
        for ka in range(r, alg.split_dim)
        for kb, terms in alg._table[ka].items()
        if kb >= r and terms[0][0] >= r
    }
    assert table == _all_pairs_constants(alg)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_constant_magnitudes(family, rank):
    alg = build_algebra(root_system(family, rank))
    assert check_constant_magnitudes(alg) > 0


def test_g2_short_string_constant(g2_split):
    # the a2-string through a1+2a2 descends two steps, so |N| = 3
    n = g2_split.structure_constant(Root((0, 1)), Root((1, 2)))
    assert abs(n) == 3


def test_bracket_of_cartan_elements_vanishes(g2_split):
    assert g2_split.bracket(g2_split.h(1), g2_split.h(2)).is_zero


def test_bracket_alternating(g2_split):
    x = g2_split.e(Root((1, 1))) + 3 * g2_split.h(2)
    assert g2_split.bracket(x, x).is_zero


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6), st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_bracket_bilinear_on_random_elements(xs, ys):
    alg = build_algebra(root_system("A", 2))
    keys = list(alg.labels[:6])
    x = alg.element({k: v for k, v in zip(keys, xs)})
    y = alg.element({k: v for k, v in zip(keys, ys)})
    assert alg.bracket(x, y) == (-1) * alg.bracket(y, x)
    assert alg.bracket(2 * x, y) == 2 * alg.bracket(x, y)


def test_theta_is_an_involutive_automorphism(g2_split, g2_gaussian):
    for alg in (g2_split, g2_gaussian):
        basis = [alg.h(1), alg.h(2)] + [alg.e(lam) for lam in alg.roots]
        if alg.scalars == GAUSSIAN:
            basis += [alg.element({("ie", lam): 1}) for lam in alg.roots]
        for x in basis:
            assert alg.theta(alg.theta(x)) == x
        for x in basis[:8]:
            for y in basis[:8]:
                assert alg.theta(alg.bracket(x, y)) == alg.bracket(alg.theta(x), alg.theta(y))


def test_theta_eigenvectors(g2_split):
    a = g2_split.rs.simple(1)
    assert g2_split.theta(g2_split.h(1)) == (-1) * g2_split.h(1)
    k_vec = g2_split.e(a) - g2_split.e(-a)
    p_vec = g2_split.e(a) + g2_split.e(-a)
    assert g2_split.theta(k_vec) == k_vec
    assert g2_split.theta(p_vec) == (-1) * p_vec


def test_killing_value_sl2():
    alg = build_algebra(root_system("A", 1))
    assert alg.killing(alg.h(1), alg.h(1)) == 8


def test_killing_invariance(g2_split):
    alg = g2_split
    basis = [alg.h(1), alg.h(2)] + [alg.e(lam) for lam in alg.roots]
    import itertools

    for x, y, z in itertools.islice(itertools.product(basis, repeat=3), 0, None, 7):
        assert alg.killing(alg.bracket(x, y), z) == -alg.killing(y, alg.bracket(x, z))


def test_theta_preserves_killing(g2_gaussian):
    alg = g2_gaussian
    basis = [alg.h(1), alg.h(2)] + [alg.e(lam) for lam in alg.roots]
    basis += [alg.element({("ie", lam): 1}) for lam in alg.roots[:4]]
    for x in basis:
        for y in basis:
            assert alg.killing(alg.theta(x), alg.theta(y)) == alg.killing(x, y)


def test_killing_nondegenerate_f4():
    alg = build_algebra(root_system("F4", 4))
    cartan_block = [
        [alg.killing(alg.h(i), alg.h(j)) for j in range(1, 5)] for i in range(1, 5)
    ]
    assert det(cartan_block) != 0
    for lam in alg.rs.positives:
        assert alg.killing(alg.e(lam), alg.e(-lam)) != 0


def test_b_theta_orthogonality_and_positivity(g2_split, g2_gaussian):
    for alg in (g2_split, g2_gaussian):
        roots = alg.rs.positives
        for lam in roots:
            for mu in roots:
                if lam != mu:
                    assert alg.b_theta(alg.e(lam), alg.e(mu)) == 0
            assert alg.b_theta(alg.e(lam), alg.h(1)) == 0
            assert alg.b_theta(alg.e(lam), alg.e(lam)) > 0
        cartan = [[alg.b_theta(alg.h(i), alg.h(j)) for j in (1, 2)] for i in (1, 2)]
        assert cartan[0][0] > 0 and det(cartan) > 0  # positive definite flat block


@pytest.mark.parametrize("scalars", [RATIONAL, GAUSSIAN])
def test_killing_and_b_theta_return_fractions(scalars):
    # each form halves a sum over its int rows: a Fraction on int and on
    # Fraction coordinates alike, never the float of int / 2
    alg = build_algebra(root_system("G2", 2), scalars)
    a2 = alg.root_indices([alg.rs.simple(2)])[0]
    minus_a2 = alg.root_indices([-alg.rs.simple(2)])[0]
    ints = [AlgebraElement(alg, {}), AlgebraElement(alg, {0: 1}), AlgebraElement(alg, {a2: 1, minus_a2: 3})]
    ints.append(AlgebraElement(alg, {k: 1 for k in range(alg.dim)}))
    for x in ints:
        for y in ints:
            fractions = [AlgebraElement(alg, {k: Fraction(v, 3) for k, v in z.terms.items()}) for z in (x, y)]
            for form in (alg.killing, alg.b_theta):
                value, scaled = form(x, y), form(*fractions)
                assert type(value) is Fraction and type(scaled) is Fraction
                assert scaled == value / 9
    assert alg.killing(ints[1], ints[1]) != 0 and alg.b_theta(ints[2], ints[2]) != 0


def test_b_theta_positive_on_random_gaussian_vectors(g2_gaussian):
    # (1 + 2i) h_1 + (1/3 - i) e_a2 + 5i e_-(a1+2a2) in real coordinates
    alg = g2_gaussian
    x = alg.element(
        {
            ("h", 1): 1,
            ("ih", 1): 2,
            ("e", Root((0, 1))): Fraction(1, 3),
            ("ie", Root((0, 1))): -1,
            ("ie", Root((-1, -2))): 5,
        }
    )
    assert alg.b_theta(x, x) == Fraction(4240, 3)


def test_ad_cartan_diagonal(g2_split):
    alg = g2_split
    for i in (1, 2):
        for lam in alg.roots:
            expected = alg.rs.pairing(lam, alg.rs.simple(i))
            assert alg.bracket(alg.h(i), alg.e(lam)) == expected * alg.e(lam)


def test_theta_bracket_identity_split(a2_split):
    a1 = a2_split.rs.simple(1)
    assert check_theta_bracket_identity(a2_split, a1, a2_split.e(a1)) is None
    zero = a2_split.zero()
    assert a2_split.bracket(a2_split.theta(zero), zero).is_zero


def test_theta_bracket_identity_gaussian_k0_part(g2_gaussian):
    a2 = g2_gaussian.rs.simple(2)
    x = g2_gaussian.element({("ie", a2): 1})
    y = g2_gaussian.e(a2)
    assert check_theta_bracket_identity(g2_gaussian, a2, x, y) is None
    # the mixed bracket itself is a purely imaginary Cartan vector
    mixed = g2_gaussian.bracket(g2_gaussian.theta(x), y)
    assert not mixed.is_zero
    assert in_centraliser_of_flat(g2_gaussian, mixed)


def test_real_basis_round_trip(g2_split, g2_gaussian):
    a1 = g2_split.rs.simple(1)
    # G2 has 6 positive roots, a1 second by height: h_1, h_2, e_a2, e_a1, ..., e_-a2, e_-a1, ...
    assert g2_split.root_indices([a1, -a1]) == (3, 9)
    assert g2_gaussian.root_indices([a1]) == (3, 17)
    assert g2_gaussian.split_dim == g2_split.dim == 14 and g2_gaussian.dim == 28
    for alg in (g2_split, g2_gaussian):
        labels = [("h", 1), ("h", 2)] + [("e", lam) for lam in alg.roots]
        if alg.scalars == GAUSSIAN:
            labels += [("i" + tag, p) for tag, p in labels]
        assert list(alg.labels) == labels
        for k, label in enumerate(labels):
            assert alg.index[label] == k
            assert alg.element({label: 1}).terms == {k: 1}
            assert alg.unit(k) == alg.element({label: 1})
        assert alg.root_indices(alg.roots) == tuple(
            alg.index[(tag, lam)] for lam in alg.roots for tag in ("e", "ie")[: alg.dim // alg.split_dim]
        )
    # (2 - 3i) h_1 + 1/2 e_a1 in real coordinates
    x = g2_gaussian.element({("h", 1): 2, ("ih", 1): -3, ("e", a1): Fraction(1, 2)})
    assert x.terms == {0: 2, 14: -3, 3: Fraction(1, 2)}
    assert not in_centraliser_of_flat(g2_gaussian, x)
    assert in_centraliser_of_flat(g2_gaussian, g2_gaussian.element({("ih", 2): 1}))


def test_theta_bracket_identity_detects_orthogonality_misuse(g2_gaussian):
    a2 = g2_gaussian.rs.simple(2)
    with pytest.raises(ValueError):
        check_theta_bracket_identity(g2_gaussian, a2, g2_gaussian.e(a2), g2_gaussian.e(a2))


def test_string_injectivity_g2_all_powers(g2_split, g2_gaussian):
    a1, a2 = g2_split.rs.simple(1), g2_split.rs.simple(2)
    for k in (1, 2, 3):
        assert check_string_injectivity(g2_split, a1, a2, k) is None
        assert check_string_injectivity(g2_gaussian, a1, a2, k) is None


def test_string_injectivity_raises_on_a_rank_drop(monkeypatch):
    # ad(X) made to kill i*e_a1 has rank 1 on the two-dimensional g_a1
    alg = build_algebra(root_system("G2", 2), GAUSSIAN)
    a1, a2 = alg.rs.simple(1), alg.rs.simple(2)
    bracket_terms = alg.bracket_terms
    monkeypatch.setattr(
        alg,
        "bracket_terms",
        lambda x, y, out=None: {} if alg.index[("ie", a1)] in y else bracket_terms(x, y, out),
    )
    with pytest.raises(InjectivityViolation):
        check_string_injectivity(alg, a1, a2, 1)


def test_string_injectivity_simply_laced(a2_split):
    assert check_string_injectivity(a2_split, a2_split.rs.simple(1), a2_split.rs.simple(2), 1) is None
    with pytest.raises(ValueError):
        check_string_injectivity(a2_split, a2_split.rs.simple(1), a2_split.rs.simple(2), 2)


def test_structure_constant_dump_roundtrip(g2_split):
    table = dump_structure_constants(g2_split)
    parsed = json.loads(json.dumps(table))
    assert parsed == table
    by_pair = {(tuple(t["lam"]), tuple(t["mu"])): t["n"] for t in parsed}
    assert abs(by_pair[((0, 1), (1, 2))]) == 3
    for (lam, mu), n in by_pair.items():
        assert by_pair[(mu, lam)] == -n


@pytest.mark.parametrize("family, rank, scalars", [("E8", 8, RATIONAL), ("E6", 6, GAUSSIAN), ("G2", 2, GAUSSIAN)])
def test_equal_bracket_entries_are_one_tuple(family, rank, scalars):
    # E8 has 752 distinct entry values among 15,504 entries
    alg = build_algebra(root_system(family, rank), scalars)
    entries = [terms for row in alg._table for terms in row.values()]
    assert len({id(terms) for terms in entries}) == len(set(entries))


def test_dump_rows_share_one_list_per_root():
    rows = dump_structure_constants(build_algebra(root_system("E8", 8)))
    lists = {}
    for row in rows:
        for key in ("lam", "mu"):
            assert lists.setdefault(tuple(row[key]), row[key]) is row[key]
    assert (len(rows), len(lists)) == (13440, 240)


def test_an_e8_build_and_dump_allocate_under_5_mb():
    # 3.6 MB with shared entries and lists, 8.2 MB with a fresh tuple per
    # entry and two fresh lists per row
    rs = root_system("E8", 8)
    tracemalloc.start()
    try:
        rows = dump_structure_constants(build_algebra(rs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 13440
    assert peak < 5_000_000


@pytest.mark.parametrize("scalars", [RATIONAL, GAUSSIAN])
@pytest.mark.parametrize("family, rank", [("G2", 2), ("F4", 4), ("E6", 6)])
def test_a_build_computes_each_coroot_once(monkeypatch, family, rank, scalars):
    # the bracket table and the forms share one pass over the positive roots
    rs = root_system(family, rank)
    calls = []
    coroot_coefficients = ChevalleyAlgebra.coroot_coefficients

    def counted(self, lam):
        calls.append(lam)
        return coroot_coefficients(self, lam)

    monkeypatch.setattr(ChevalleyAlgebra, "coroot_coefficients", counted)
    build_algebra(rs, scalars)
    assert calls == list(rs.positives)


def test_coroot_coefficients_are_integral(g2_split):
    for lam in g2_split.rs.positives:
        coro = g2_split.coroot_coefficients(lam)
        assert all(isinstance(c, int) for c in coro)
    assert g2_split.coroot_coefficients(Root((1, 3))) == (1, 1)


@pytest.mark.parametrize(
    "family, rank, scalars",
    [(f, r, RATIONAL) for f, r in (("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))]
    + [("F4", 4, GAUSSIAN), ("E6", 6, GAUSSIAN)],
)
def test_root_space_identities_beyond_g2(family, rank, scalars):
    # `verify` runs them on G2 over both rings; every root space of the larger types here
    check_root_space_identities(build_algebra(root_system(family, rank), scalars))


@pytest.mark.parametrize("scalars", [RATIONAL, GAUSSIAN])
def test_root_space_identities_build_no_element(monkeypatch, scalars):
    # both identities run on int term dicts: no element is built, and every
    # b_theta value they read is an int
    alg = build_algebra(root_system("G2", 2), scalars)
    b_theta_terms = alg.b_theta_terms

    def int_only(x, y):
        value = b_theta_terms(x, y)
        assert type(value) is int
        return value

    def refuse(*args):
        raise AssertionError("an AlgebraElement was built")

    monkeypatch.setattr(alg, "b_theta_terms", int_only)
    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    check_root_space_identities(alg)


def test_root_space_identities_catch_a_negated_ih_cartan_term():
    # [e_lam, i e_-lam] = i h_lam for lam = -a1; with its i h term negated the
    # i h terms of [theta X, X] no longer cancel for X = e_a1 + 2i e_a1
    alg = build_algebra(root_system("G2", 2), GAUSSIAN)
    a1 = alg.rs.simple(1)
    ka, kb = alg.root_indices([-a1])[0], alg.root_indices([a1])[1]
    (k, v), *rest = alg._table[ka][kb]
    assert k == alg.index[("ih", 1)]
    alg._table[ka][kb] = ((k, -v), *rest)
    with pytest.raises(IdentityViolation, match=r"\[theta X, X\] != \|X\|\^2 H"):
        check_root_space_identities(alg)


def test_theta_bracket_identity_every_root():
    # [theta X, X] = |X|^2 H_lam for the basis vector of every root space
    for family in ("A", "B", "G2"):
        alg = build_algebra(root_system(family, 2))
        for lam in alg.rs.positives:
            check_theta_bracket_identity(alg, lam, alg.e(lam))
            check_theta_bracket_identity(alg, lam, alg.e(lam, Fraction(3, 7)))


def jacobi_defect(alg, x, y, z):
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]] through element brackets."""
    b = alg.bracket
    return b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))


def test_gaussian_jacobi_spot_checks(g2_gaussian):
    # i e_a1 + h_1, (1/2 + 3i) e_a2 + e_-a1, i e_(a1+2a2) + h_2, e_-(a1+3a2) + i e_a2
    alg = g2_gaussian
    a1, a2 = alg.rs.simple(1), alg.rs.simple(2)
    samples = [
        alg.element({("ie", a1): 1, ("h", 1): 1}),
        alg.element({("e", a2): Fraction(1, 2), ("ie", a2): 3, ("e", -a1): 1}),
        alg.element({("ie", Root((1, 2))): 1, ("h", 2): 1}),
        alg.element({("e", -Root((1, 3))): 1, ("ie", a2): 1}),
    ]
    for x in samples:
        for y in samples:
            for z in samples:
                assert jacobi_defect(alg, x, y, z).is_zero


def test_element_rejects_keys_outside_the_real_basis(g2_split, g2_gaussian):
    a1 = g2_split.rs.simple(1)
    not_a_root = Root((5, 5))
    bad = {
        g2_split: [("ie", a1), ("ih", 1), ("e", not_a_root), ("h", 0), ("h", 3)],
        g2_gaussian: [("ie", not_a_root), ("e", not_a_root), ("ih", 3), ("x", 1)],
    }
    for alg, keys in bad.items():
        for key in keys:
            with pytest.raises(ValueError):
                alg.element({key: 1})
        with pytest.raises(ValueError):
            alg.e(not_a_root)
        with pytest.raises(ValueError):
            alg.h(0)


# each call names a vector of G2 that is not a root
NON_ROOT_CALLS = {
    "structure_constant-first": lambda alg: alg.structure_constant(Root((2, 0)), Root((-1, 0))),
    "structure_constant-second": lambda alg: alg.structure_constant(Root((-1, 0)), Root((2, 0))),
    "structure_constant-far": lambda alg: alg.structure_constant(Root((5, 5)), Root((1, 0))),
    "coroot_coefficients-zero": lambda alg: alg.coroot_coefficients(Root((0, 0))),
    "coroot_coefficients-double": lambda alg: alg.coroot_coefficients(Root((2, 0))),
    "root_indices": lambda alg: alg.root_indices([Root((1, 0)), Root((2, 0))]),
    "e": lambda alg: alg.e(Root((5, 5))),
}


@pytest.mark.parametrize("call", sorted(NON_ROOT_CALLS))
def test_root_arguments_must_be_roots(g2_split, g2_gaussian, call):
    for alg in (g2_split, g2_gaussian):
        with pytest.raises(NotARoot, match="is not a root of G2"):
            NON_ROOT_CALLS[call](alg)


def test_structure_constant_of_roots_without_a_root_sum_is_zero(g2_split):
    a1, a2 = g2_split.rs.simples
    assert g2_split.structure_constant(a1, -a2) == 0
    assert g2_split.structure_constant(a1, -a1) == 0


# The realification of g(C): G2 and A2 over Q(i), on every real basis vector.
REALIFIED = [("G2", 2), ("A", 2)]


@pytest.fixture(scope="module", params=REALIFIED, ids=lambda t: f"{t[0]}{t[1]}")
def realified(request):
    family, rank = request.param
    alg = build_algebra(root_system(family, rank), GAUSSIAN)
    return alg, [alg.element({label: 1}) for label in alg.labels]


def test_realified_jacobi_exhaustive(realified):
    alg, basis = realified
    assert alg.dim == 2 * (alg.rs.rank + len(alg.roots))
    assert alg.check_jacobi_exhaustive() == comb(len(basis), 3)


def test_realified_theta_is_an_involutive_isometric_automorphism(realified):
    alg, basis = realified
    for x in basis:
        assert alg.theta(alg.theta(x)) == x
        for y in basis:
            assert alg.theta(alg.bracket(x, y)) == alg.bracket(alg.theta(x), alg.theta(y))
            assert alg.killing(alg.theta(x), alg.theta(y)) == alg.killing(x, y)


def test_realified_killing_is_the_trace_of_ad_ad(realified):
    alg, basis = realified
    for x in basis:
        for y in basis:
            trace = sum(alg.bracket(x, alg.bracket(y, z)).coefficient(k) for k, z in enumerate(basis))
            assert alg.killing(x, y) == trace


def test_realified_b_theta_is_a_cartan_block_plus_a_diagonal(realified):
    alg, basis = realified
    split = build_algebra(alg.rs)
    for kx, x in zip(alg.labels, basis):
        for ky, y in zip(alg.labels, basis):
            value = alg.b_theta(x, y)
            assert value == -alg.killing(x, alg.theta(y))
            tx, px = kx
            ty, py = ky
            if tx == ty and tx[-1] == "h":  # the Cartan block on h and on ih
                assert value == 2 * split.b_theta(split.h(px), split.h(py))
            elif kx == ky:  # one diagonal entry per real root vector
                assert value == 2 * split.b_theta(split.e(px), split.e(px)) > 0
            else:
                assert value == 0


def test_realified_bracket_follows_the_i_rule(realified):
    # [i x, i y] = -[x, y] and [x, i y] = [i x, y] = i [x, y] for split basis vectors
    alg, _ = realified
    split_keys = [k for k in alg.labels if k[0] in ("h", "e")]

    def times_i(elem):
        labels = (alg.labels[k] for k in elem.terms)
        return alg.element({("i" + tag, p): c for (tag, p), c in zip(labels, elem.terms.values())})

    for ka in split_keys:
        for kb in split_keys:
            x, y = alg.element({ka: 1}), alg.element({kb: 1})
            ix, iy = times_i(x), times_i(y)
            xy = alg.bracket(x, y)
            if ka[0] == kb[0] == "e" and alg.rs.contains(ka[1].shifted(kb[1])):
                n = alg.structure_constant(ka[1], kb[1])
                assert n != 0 and xy == n * alg.e(Root(ka[1].shifted(kb[1])))
            assert alg.bracket(ix, iy) == -xy
            assert alg.bracket(x, iy) == times_i(xy)
            assert alg.bracket(ix, y) == times_i(xy)


@pytest.mark.parametrize(
    "family,rank,scalars",
    [(f, r, RATIONAL) for f, r in (("A", 8), ("B", 8), ("C", 8), ("D", 8), ("G2", 2), ("F4", 4))]
    + [(f, r, RATIONAL) for f, r in (("E6", 6), ("E7", 7), ("E8", 8))]
    + [("G2", 2, GAUSSIAN), ("F4", 4, GAUSSIAN), ("B", 4, GAUSSIAN)],
)
def test_killing_cartan_block_is_the_sum_over_roots(family, rank, scalars):
    # B(h_i, h_j) = sum over roots of <lam, a_i-dual> <lam, a_j-dual>, each
    # pairing taken from the Gram matrix of the coordinate model; the real
    # trace form of the realified g(C) counts every root twice
    alg = build_algebra(root_system(family, rank), scalars)
    scale = 2 if scalars == GAUSSIAN else 1
    g = simple_gram(family, rank)
    pairings = [
        [2 * sum(n * g[k][i] for k, n in enumerate(lam.coeffs)) / g[i][i] for i in range(rank)]
        for lam in alg.roots
    ]
    for i in range(rank):
        for j in range(rank):
            expected = sum(p[i] * p[j] for p in pairings)
            assert alg.killing(alg.h(i + 1), alg.h(j + 1)) == scale * expected


# every reduced type up to rank 8
REDUCED_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


@pytest.mark.parametrize("scalars", [RATIONAL, GAUSSIAN])
def test_b_theta_and_killing_are_kept_as_int_rows_of_themselves(scalars):
    # both forms are integral on the real basis, so the algebra keeps their
    # int rows as they are, and a form of two basis vectors is an entry
    for family, rank in REDUCED_TYPES:
        alg = build_algebra(root_system(family, rank), scalars)
        for rows, form in ((alg._b_theta_rows, alg.b_theta), (alg._killing_rows, alg.killing)):
            assert len(rows) == alg.dim
            for k, row in enumerate(rows):
                for kz, g in row:
                    assert type(g) is int, (family, rank, k, kz)
                    value = form(alg.unit(k), alg.unit(kz))
                    assert type(value) is Fraction and value == g


# Recorded structure constants and Killing Gram data, one entry per (type,
# ring): every reduced type the catalog uses over Q, the smaller ones over Q(i).
GOLDEN_PATH = Path(__file__).parent / "data" / "chevalley_golden.json"
GOLDEN_TYPES = (
    [("A", r, RATIONAL) for r in range(1, 9)]
    + [("B", r, RATIONAL) for r in range(2, 9)]
    + [("C", r, RATIONAL) for r in range(3, 9)]
    + [("D", r, RATIONAL) for r in range(4, 9)]
    + [(f, r, RATIONAL) for f, r in (("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))]
    + [(f, r, GAUSSIAN) for f, r in (("G2", 2), ("F4", 4), ("E6", 6))]
    + [("A", r, GAUSSIAN) for r in range(1, 5)]
    + [("B", r, GAUSSIAN) for r in range(2, 5)]
    + [("C", 3, GAUSSIAN), ("C", 4, GAUSSIAN), ("D", 4, GAUSSIAN)]
)


def golden_entry(family, rank, scalars) -> dict:
    """Digest of the structure-constant dump and the Killing Gram of one algebra.

    The Gram entries are those of the complex trace form: on split basis
    vectors it is half the real trace form of the realified g(C).
    """
    alg = build_algebra(root_system(family, rank), scalars)
    scale = 2 if scalars == GAUSSIAN else 1
    rows = dump_structure_constants(alg)
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    r = alg.rs.rank
    return {
        "type": [family, rank, scalars],
        "rows": len(rows),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "cartan": [
            [str(alg.killing(alg.h(i), alg.h(j)) / scale) for j in range(1, r + 1)]
            for i in range(1, r + 1)
        ],
        "root_pairs": [str(alg.killing(alg.e(lam), alg.e(-lam)) / scale) for lam in alg.rs.positives],
    }


@pytest.mark.parametrize("family,rank,scalars", GOLDEN_TYPES, ids=lambda v: str(v))
def test_structure_constants_and_killing_match_recording(family, rank, scalars):
    golden = {tuple(e["type"]): e for e in json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))}
    assert golden_entry(family, rank, scalars) == golden[(family, rank, scalars)]


if __name__ == "__main__":
    # Re-record the golden file: python tests/test_chevalley.py (with src on the path).
    entries = [golden_entry(*t) for t in GOLDEN_TYPES]
    lines = ",\n".join(json.dumps(e) for e in entries)
    GOLDEN_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
