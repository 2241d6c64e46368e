from __future__ import annotations

import random

import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from c1atlas.catalog import find_space
from c1atlas.chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra
from c1atlas.errors import C1AtlasError, FormulaMismatch, NotClosed
from c1atlas import linalg
from c1atlas.linalg import mat_vec
from c1atlas.rootsys import Root, root_system
from c1atlas.scalars import GAUSSIAN, RATIONAL
from c1atlas.shapeops import (
    OrbitSubalgebra,
    ShapeOperatorMatrix,
    SolvableModel,
    check_self_adjoint,
    check_shape_identities,
    is_totally_geodesic,
    shape_operator,
    space_model,
)

from dense_refs import SpectrumMismatch, an_inner, cpc_charpoly_constancy, levi_civita


def _dense(op):
    """The rows of an operator, read off its sparse columns."""
    n = len(op.basis)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for c, column in enumerate(op.columns):
        for r, v in column:
            rows[r][c] = v
    return tuple(map(tuple, rows))


@pytest.fixture(scope="module")
def g2_model(g2_split):
    return SolvableModel(g2_split)


@pytest.fixture(scope="module")
def g2_gaussian_model(g2_gaussian):
    return SolvableModel(g2_gaussian)


def test_an_inner_flat_vs_nilpotent(g2_model):
    alg = g2_model.algebra
    h = alg.h(1) + 2 * alg.h(2)
    e = alg.e(Root((1, 1)))
    assert an_inner(g2_model, h, h) == alg.b_theta(h, h)
    assert an_inner(g2_model, e, e) == Fraction(1, 2) * alg.b_theta(e, e)
    assert an_inner(g2_model, h, e) == 0


def test_an_inner_rejects_vectors_off_an(g2_model):
    alg = g2_model.algebra
    with pytest.raises(ValueError):
        an_inner(g2_model, alg.e(-alg.rs.simple(1)), alg.h(1))


def test_levi_civita_vanishes_on_the_flat(g2_model):
    alg = g2_model.algebra
    h = 3 * alg.h(1) + alg.h(2)
    assert levi_civita(g2_model, h, h, h) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=9, max_size=9))
def test_levi_civita_torsion_free_and_metric(coeffs):
    alg = build_algebra(root_system("G2", 2))
    model = SolvableModel(alg)
    labels = [alg.labels[k] for k in model.an_keys]
    x = alg.element({k: c for k, c in zip(labels[:8], coeffs[:3]) if c})
    y = alg.element({k: c for k, c in zip(labels[3:], coeffs[3:6]) if c})
    z = alg.element({k: c for k, c in zip(labels[1:], coeffs[6:9]) if c})
    bracket_xy = alg.bracket(x, y)
    assert levi_civita(model, x, y, z) - levi_civita(model, y, x, z) == an_inner(model, bracket_xy, z)
    assert levi_civita(model, x, y, z) + levi_civita(model, x, z, y) == 0


def test_shape_operator_of_zero_direction(g2_model):
    orbit = OrbitSubalgebra(g2_model, 2)
    op = shape_operator(orbit, g2_model.algebra.zero())
    assert op.is_zero


def test_g2_long_root_w_zero_totally_geodesic(g2_model):
    orbit = OrbitSubalgebra(g2_model, 1)
    assert is_totally_geodesic(orbit)
    for xi in orbit.normal_basis():
        op = shape_operator(orbit, xi)
        assert sum(_dense(op)[i][i] for i in range(len(op.basis))) == 0


def test_g2_short_root_w_zero_not_totally_geodesic(g2_model):
    orbit = OrbitSubalgebra(g2_model, 2)
    assert not is_totally_geodesic(orbit)
    alg = g2_model.algebra
    op = shape_operator(orbit, alg.e(Root((0, 1))))
    col = dict(op.columns[orbit.h_keys.index(alg.index[("e", Root((1, 3)))])])
    assert col  # image lands in the level-two root space
    assert col.get(orbit.h_keys.index(alg.index[("e", Root((1, 2)))]), 0) != 0


@pytest.mark.parametrize("ring", ["rational", "gaussian"])
def test_koszul_cross_check_fires(monkeypatch, g2_split, g2_gaussian, ring):
    alg = g2_split if ring == "rational" else g2_gaussian
    model = SolvableModel(alg)
    orbit = OrbitSubalgebra(model, 2)
    xi = alg.e(Root((0, 1)))
    shape_operator(orbit, xi)  # consistent before the connection is perturbed
    koszul_image = SolvableModel.koszul_image
    monkeypatch.setattr(
        SolvableModel,
        "koszul_image",
        lambda self, xs, y: [{k: v + 1 for k, v in image.items()} for image in koszul_image(self, xs, y)],
    )
    with pytest.raises(FormulaMismatch):
        shape_operator(orbit, xi)


@pytest.mark.parametrize("ring", ["rational", "gaussian"])
def test_gram_check_fires_on_a_perturbed_projection(monkeypatch, g2_split, g2_gaussian, ring):
    # each column is read off the bracket through tangent_terms; the Gram
    # check against the Koszul covector must catch a wrong projection
    alg = g2_split if ring == "rational" else g2_gaussian
    orbit = OrbitSubalgebra(SolvableModel(alg), 2)
    xi = alg.e(Root((0, 1)))
    shape_operator(orbit, xi)
    tangent_terms = OrbitSubalgebra.tangent_terms
    monkeypatch.setattr(
        OrbitSubalgebra,
        "tangent_terms",
        lambda self, terms: {k: 2 * v for k, v in tangent_terms(self, terms).items()},
    )
    with pytest.raises(FormulaMismatch):
        shape_operator(orbit, xi)


@pytest.mark.parametrize("ring", ["rational", "gaussian"])
def test_koszul_covector_matches_the_metric_koszul_formula(g2_split, g2_gaussian, ring):
    # 2 <nabla_x y, z> = <[x, y], z> - <[y, z], x> + <[z, x], y> for left-invariant fields
    alg = g2_split if ring == "rational" else g2_gaussian
    model = SolvableModel(alg)
    b = alg.bracket

    def ip(x, y):
        return an_inner(model, x, y)

    vecs = [alg.unit(k) for k in model.an_keys]
    for y in vecs[1::2]:
        expected = [
            [Fraction(1, 2) * (ip(b(x, y), z) - ip(b(y, z), x) + ip(b(z, x), y)) for z in vecs]
            for x in vecs[::3]
        ]
        assert [[levi_civita(model, x, y, z) for z in vecs] for x in vecs[::3]] == expected


def test_gaussian_g2_dichotomy(g2_gaussian_model):
    assert is_totally_geodesic(OrbitSubalgebra(g2_gaussian_model, 1))
    orbit = OrbitSubalgebra(g2_gaussian_model, 2)
    assert not is_totally_geodesic(orbit)
    alg = g2_gaussian_model.algebra
    op = shape_operator(orbit, alg.e(Root((0, 1))))
    assert op.columns[orbit.h_keys.index(alg.index[("e", Root((1, 3)))])]


def test_shape_identities_hold(g2_model, g2_gaussian_model):
    # each call raises IdentityViolation on the first identity that fails
    check_shape_identities(OrbitSubalgebra(g2_model, 2))
    check_shape_identities(OrbitSubalgebra(g2_gaussian_model, 2))
    check_shape_identities(OrbitSubalgebra(g2_model, 1))


def test_self_adjointness_everywhere(g2_model, a2_split):
    a2_model = SolvableModel(a2_split)
    for model, j in ((g2_model, 1), (g2_model, 2), (a2_model, 1), (a2_model, 2)):
        orbit = OrbitSubalgebra(model, j)
        for xi in orbit.normal_basis():
            assert check_self_adjoint(orbit, shape_operator(orbit, xi))


def test_split_a2_orbits_totally_geodesic(a2_split):
    model = SolvableModel(a2_split)
    for j in (1, 2):
        assert is_totally_geodesic(OrbitSubalgebra(model, j))


def test_scale_covariance(g2_model):
    orbit = OrbitSubalgebra(g2_model, 2)
    xi = g2_model.algebra.e(Root((0, 1)))
    a, b = _dense(shape_operator(orbit, xi)), _dense(shape_operator(orbit, 3 * xi))
    assert all(b[i][j] == 3 * a[i][j] for i in range(len(a)) for j in range(len(a)))


def test_cpc_charpoly_pair(g2_model):
    orbit = OrbitSubalgebra(g2_model, 2)
    alg = g2_model.algebra
    xi1 = alg.e(Root((0, 1)))
    xi2 = alg.element({("e", Root((0, 1))): Fraction(3, 5), ("e", Root((1, 1))): Fraction(4, 5)})
    assert an_inner(g2_model, xi1, xi1) == an_inner(g2_model, xi2, xi2)
    poly = cpc_charpoly_constancy(orbit, [xi1, xi2])
    # x^4 (x^2 - 3/4): one curved 2-plane with principal curvatures +-sqrt(3)/2
    assert poly == [1, 0, Fraction(-3, 4), 0, 0, 0, 0]


def test_cpc_single_sample_trivial(g2_model):
    orbit = OrbitSubalgebra(g2_model, 2)
    poly = cpc_charpoly_constancy(orbit, [g2_model.algebra.e(Root((0, 1)))])
    assert len(poly) == len(orbit.h_keys) + 1


def test_cpc_negative_path(g2_model):
    # removing the top-level root space leaves a subgroup that is not CPC:
    # the two equal-norm short normals get different spectra
    orbit = OrbitSubalgebra(g2_model, 2, dropped={Root((1, 3))})
    alg = g2_model.algebra
    xi1, xi2 = alg.e(Root((0, 1))), alg.e(Root((1, 1)))
    assert shape_operator(orbit, xi1).is_zero
    assert not shape_operator(orbit, xi2).is_zero
    with pytest.raises(SpectrumMismatch):
        cpc_charpoly_constancy(orbit, [xi1, xi2])


def test_dropping_middle_level_gives_the_long_subalgebra(g2_model):
    # dropping the level-two space leaves the long-root subalgebra, which is
    # bracket-closed and totally geodesic (so still trivially CPC)
    orbit = OrbitSubalgebra(g2_model, 2, dropped={Root((1, 2))})
    assert {r for r in orbit.h_roots} == {Root((1, 0)), Root((1, 3)), Root((2, 3))}
    assert is_totally_geodesic(orbit)


def test_cpc_rejects_unequal_norms(g2_model):
    orbit = OrbitSubalgebra(g2_model, 2)
    alg = g2_model.algebra
    with pytest.raises(ValueError):
        cpc_charpoly_constancy(orbit, [alg.e(Root((0, 1))), 2 * alg.e(Root((0, 1)))])


def test_non_closed_selection_rejected(g2_model):
    with pytest.raises(NotClosed):
        OrbitSubalgebra(g2_model, 1, selection={
            Root((1, 0)): "full",
            Root((1, 1)): "zero",
            Root((1, 2)): "zero",
            Root((1, 3)): "zero",
        })


def test_full_selection_gives_empty_normal_space(g2_model):
    grading_roots = OrbitSubalgebra(g2_model, 2).grading.level(1)
    orbit = OrbitSubalgebra(g2_model, 2, selection={r: "full" for r in grading_roots})
    assert orbit.v_keys == ()
    assert is_totally_geodesic(orbit)  # vacuously: no normal directions to bend


def test_selection_must_cover_level_one(g2_model):
    with pytest.raises(ValueError):
        OrbitSubalgebra(g2_model, 2, selection={Root((0, 1)): "zero"})


def test_selection_values_are_full_or_zero(g2_model):
    level_one = OrbitSubalgebra(g2_model, 2).grading.level(1)
    selection = {lam: "zero" for lam in level_one}
    selection[Root((0, 1))] = "half"
    with pytest.raises(ValueError, match="full"):
        OrbitSubalgebra(g2_model, 2, selection=selection)


@pytest.mark.parametrize(
    "root",
    [Root((0, 1)), Root((1, 1)), Root((1, 0)), Root((1, 4)), Root((-1, -3))],
    ids=["level-one", "level-one-top", "level-zero", "non-root", "negative"],
)
def test_dropped_roots_must_lie_in_levels_two_and_up(g2_model, root):
    # G2 at a2: levels 1, 2, 3 are a2..a1+a2, a1+2a2 and a1+3a2, 2a1+3a2
    with pytest.raises(ValueError, match="levels >= 2"):
        OrbitSubalgebra(g2_model, 2, dropped={root})


def test_shape_operators_hash_no_roots(monkeypatch):
    # after construction every table is keyed by basis index, so the geometry
    # of G2(C)/G2 at j=2 and of E6^6 at j=1 runs without hashing a Root
    orbits = [
        OrbitSubalgebra(SolvableModel(build_algebra(root_system("G2", 2), GAUSSIAN)), 2),
        OrbitSubalgebra(SolvableModel(build_algebra(root_system("E6", 6))), 1),
    ]

    def no_hash(self):
        raise AssertionError("a Root was hashed")

    monkeypatch.setattr(Root, "__hash__", no_hash)
    with pytest.raises(AssertionError):
        hash(Root((1, 0)))
    g2, e6 = orbits
    assert not is_totally_geodesic(g2)
    assert is_totally_geodesic(e6)
    op = shape_operator(g2, g2.normal_basis()[0])
    assert check_self_adjoint(g2, op) and not op.is_zero


def _dense_shape_operator(orbit, xi):
    """Reference: the dense path, with a Gram of n^2 b_theta pairs, n b_theta
    calls per Koszul covector and a mat_vec Gram check per column."""
    alg = orbit.model.algebra
    rank = alg.rs.rank

    def an_inner(x, y):  # b_theta on the flat part, half of it on n
        flat = AlgebraElement(alg, {k: c for k, c in x.terms.items() if k < rank})
        return (alg.b_theta(x, y) + alg.b_theta(flat, y)) / 2

    basis = [alg.unit(k) for k in orbit.h_keys]
    gram = [[an_inner(x, y) for y in basis] for x in basis]
    theta_xi = alg.theta(xi)
    columns = []
    for x in basis:
        combo = Fraction(1, 4) * (
            alg.bracket(x, xi) + alg.bracket(alg.theta(x), xi) - alg.bracket(x, theta_xi)
        )
        covector = [alg.b_theta(combo, z) for z in basis]
        terms = (Fraction(1, 2) * (alg.bracket(xi, x) - alg.bracket(theta_xi, x))).terms
        column = [terms.get(k, Fraction(0)) for k in orbit.h_keys]
        assert mat_vec(gram, column) == [-v for v in covector]
        columns.append(column)
    n = len(basis)
    return gram, tuple(tuple(columns[c][r] for c in range(n)) for r in range(n))


DENSE_CASES = [("G2", 2, 1), ("G2", 2, 2), ("B", 3, 1), ("B", 3, 2), ("B", 3, 3)]
DENSE_CASES += [("F4", 4, j) for j in (1, 2, 3, 4)] + [("E6", 6, 1)]


@pytest.mark.parametrize("ring", ["rational", "gaussian"])
@pytest.mark.parametrize("family,rank,j", DENSE_CASES, ids=lambda v: str(v))
def test_sparse_shape_operators_match_the_dense_path(family, rank, j, ring):
    alg = build_algebra(root_system(family, rank), ring)
    orbit = OrbitSubalgebra(SolvableModel(alg), j)
    normals = orbit.normal_basis()
    # every normal basis vector, and one combination with fractional coefficients
    mixed = alg.zero()
    for c, v in enumerate(normals, start=1):
        mixed = mixed + Fraction(c, 3) * v
    for xi in normals + [mixed]:
        gram, matrix = _dense_shape_operator(orbit, xi)
        op = shape_operator(orbit, xi)
        assert _dense(op) == matrix and op.basis == orbit.h_keys
        # the columns hold the nonzero entries only, as Fractions, by row
        for column in op.columns:
            assert [r for r, _ in column] == sorted({r for r, _ in column})
            assert all(type(v) is Fraction and v != 0 for _, v in column)
        assert op.is_zero == all(v == 0 for row in matrix for v in row)
    # the int Gram rows the check reads are 4 x the dense Gram on h
    rows = {k: dict(row) for k, row in orbit.model._gram4_rows.items()}
    assert [[Fraction(rows[k].get(kz, 0), 4) for k in orbit.h_keys] for kz in orbit.h_keys] == gram


def test_shape_operators_call_no_b_theta(monkeypatch):
    # the Gram, the Koszul covectors and the Gram check all read sparse int rows
    alg = build_algebra(root_system("E6", 6), GAUSSIAN)
    model = SolvableModel(alg)

    def refuse(*args):
        raise AssertionError("a dense form evaluation ran")

    monkeypatch.setattr(ChevalleyAlgebra, "b_theta", refuse)
    orbit = OrbitSubalgebra(model, 1)
    assert is_totally_geodesic(orbit)
    with pytest.raises(AssertionError):
        alg.b_theta(alg.unit(0), alg.unit(0))


@pytest.mark.parametrize(
    "family, rank, j, scalars",
    [("G2", 2, 2, RATIONAL), ("G2", 2, 2, GAUSSIAN), ("G2", 2, 1, GAUSSIAN), ("E6", 6, 1, GAUSSIAN)],
)
def test_shape_operators_build_no_element_past_xi(monkeypatch, family, rank, j, scalars):
    # past the element it is given, an operator and its Koszul check run on
    # basis indices and term dicts alone
    orbit = OrbitSubalgebra(SolvableModel(build_algebra(root_system(family, rank), scalars)), j)
    normals = orbit.normal_basis()
    expected = [shape_operator(orbit, xi) for xi in normals]

    def refuse(*args):
        raise AssertionError("an AlgebraElement was built")

    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    assert [shape_operator(orbit, xi) for xi in normals] == expected
    with pytest.raises(AssertionError, match="AlgebraElement"):
        orbit.model.algebra.unit(0)


@pytest.mark.parametrize("ring", ["rational", "gaussian"])
def test_koszul_images_read_the_algebras_2b_theta_rows(monkeypatch, g2_split, g2_gaussian, ring):
    # the model keeps no copy of the rows of 2 b_theta: doubling the algebra's
    # rows after the model is built doubles every Koszul covector, which the
    # Gram check (on 4 x the AN Gram, built with the model) then catches
    alg = g2_split if ring == "rational" else g2_gaussian
    orbit = OrbitSubalgebra(SolvableModel(alg), 2)
    xi = alg.e(Root((0, 1)))
    shape_operator(orbit, xi)
    doubled = [tuple((kz, 2 * g) for kz, g in row) for row in alg._b2_rows]
    monkeypatch.setattr(alg, "_b2_rows", doubled)
    with pytest.raises(FormulaMismatch):
        shape_operator(orbit, xi)


def test_block_charpoly_matches_the_dense_charpoly_on_the_shape_domain(catalog):
    # every operator `c1atlas shape` prints on the split and complexified
    # spaces of rank >= 2 up to F4; the dense linalg.charpoly is the reference
    spaces = [
        space
        for space in catalog
        if (space.split_flag or space.complexified_flag)
        and space.rank >= 2
        and space.rtype.family not in ("E6", "E7", "E8")
        and space.name != "F4(C)/F4"
    ]
    pairs = operators = nonzero = 0
    for space in spaces:
        model = space_model(space)
        for j in range(1, space.rank + 1):
            orbit = OrbitSubalgebra(model, j)
            pairs += 1
            for xi in orbit.normal_basis():
                op = shape_operator(orbit, xi)
                poly = op.charpoly()
                assert poly == linalg.charpoly(_dense(op)), (space.name, j)
                assert all(type(c) is Fraction for c in poly)
                operators += 1
                nonzero += not op.is_zero
    assert (pairs, operators, nonzero) == (63, 471, 24)


def test_zero_operators_get_x_to_the_n_without_linalg(monkeypatch, g2_model):
    def refuse(*args):
        raise AssertionError("linalg.charpoly ran")

    monkeypatch.setattr(linalg, "charpoly", refuse)
    orbit = OrbitSubalgebra(g2_model, 1)
    for xi in orbit.normal_basis():
        op = shape_operator(orbit, xi)
        assert op.is_zero and op.charpoly() == [1] + [0] * len(orbit.h_keys)
    bent = shape_operator(OrbitSubalgebra(g2_model, 2), g2_model.algebra.e(Root((0, 1))))
    with pytest.raises(AssertionError, match="linalg.charpoly ran"):
        bent.charpoly()


def _self_adjoint_dense(gram, rows):
    """Reference: G A is symmetric, by the dense product."""
    n = len(rows)
    ga = [[sum(gram[i][t] * rows[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return all(ga[i][j] == ga[j][i] for i in range(n) for j in range(n))


@pytest.mark.parametrize("family,rank,j", [("G2", 2, 2), ("B", 3, 2), ("F4", 4, 1)])
def test_sparse_self_adjoint_check_matches_the_dense_product(family, rank, j):
    orbit = OrbitSubalgebra(SolvableModel(build_algebra(root_system(family, rank))), j)
    rng = random.Random(f"{family}{j}")
    n = len(orbit.h_keys)
    outcomes = set()
    for xi in orbit.normal_basis()[:3]:
        gram, _ = _dense_shape_operator(orbit, xi)
        op = shape_operator(orbit, xi)
        for trial in range(6):
            columns = [dict(column) for column in op.columns]
            # one entry, or one entry and its mirror, added at random
            r, c = rng.randrange(n), rng.randrange(n)
            for a, b in [(r, c), (c, r)][: trial % 3]:
                columns[b][a] = columns[b].get(a, 0) + Fraction(rng.randint(1, 3))
            bent = ShapeOperatorMatrix(op.xi_key, op.basis, tuple(tuple(sorted(col.items())) for col in columns))
            expected = _self_adjoint_dense(gram, _dense(bent))
            assert check_self_adjoint(orbit, bent) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def _first_escape(rs, h_roots):
    """Reference: the first ordered pair of roots of h, in root order, whose sum is a root outside h."""
    roots = set(h_roots)
    for a in h_roots:
        for b in h_roots:
            s = a.shifted(b)
            if rs.contains(s) and Root(s) not in roots:
                return f"[g_{a}, g_{b}] leaves the candidate tangent algebra (hits {Root(s)})"
    return None


@pytest.mark.parametrize("family,rank", [("G2", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_closure_check_matches_the_all_pairs_scan(family, rank):
    alg = build_algebra(root_system(family, rank))
    model = SolvableModel(alg)
    rng = random.Random(f"{family}{rank}")
    outcomes = set()
    for j in range(1, rank + 1):
        grading = alg.rs.maximal_grading(j)
        level_one = grading.level(1)
        higher = [lam for nu in sorted(grading.levels) if nu >= 2 for lam in grading.level(nu)]
        for _ in range(40):
            selection = {lam: rng.choice(("full", "zero")) for lam in level_one}
            dropped = {lam for lam in higher if rng.random() < 0.3}
            h_roots = sorted(
                list(grading.sigma_phi_pos)
                + [lam for lam in level_one if selection[lam] == "full"]
                + [lam for lam in higher if lam not in dropped]
            )
            expected = _first_escape(alg.rs, h_roots)
            outcomes.add(expected is None)
            if expected is None:
                assert OrbitSubalgebra(model, j, selection=selection, dropped=dropped).h_roots == tuple(h_roots)
            else:
                with pytest.raises(NotClosed) as info:
                    OrbitSubalgebra(model, j, selection=selection, dropped=dropped)
                assert str(info.value) == expected
    assert outcomes == {True, False}


def test_dropping_a_reachable_root_is_not_closed(g2_model):
    # with all of level one in h, the top root 2a1+3a2 = a1 + (a1+3a2) is reached
    level_one = OrbitSubalgebra(g2_model, 1).grading.level(1)
    with pytest.raises(NotClosed, match=r"\[g_a1, g_a1\+3a2\] leaves .* \(hits 2a1\+3a2\)"):
        OrbitSubalgebra(g2_model, 1, selection={lam: "full" for lam in level_one}, dropped={Root((2, 3))})


def test_space_model_picks_the_ring_of_the_entry(catalog):
    for name, scalars in (("SL(3,R)/SO(3)", RATIONAL), ("SO(5,C)/SO(5)", GAUSSIAN)):
        space = find_space(catalog, name)
        model = space_model(space)
        assert isinstance(model, SolvableModel)
        assert (model.algebra.scalars, model.algebra.rs.rtype) == (scalars, space.rtype)
    with pytest.raises(C1AtlasError, match="neither split nor complexified; no exact model here"):
        space_model(find_space(catalog, "SU(2,4)/S(U(2)U(4))"))


def test_shape_identities_need_a_height_chain():
    # A3 at j = 2: level one holds a1 + a2 and a2 + a3, two roots of height 2
    orbit = OrbitSubalgebra(SolvableModel(build_algebra(root_system("A", 3))), 2)
    heights = sorted(lam.height for lam in orbit.grading.level(1))
    assert heights == [1, 2, 2, 3]
    with pytest.raises(ValueError, match="level one is not a height chain; no top root"):
        check_shape_identities(orbit)
