"""Extrinsic geometry of orbits inside the solvable model.

A noncompact symmetric space is a solvable group AN with a left-invariant
metric; on the Lie algebra a + n that metric is b_theta on the flat part and
half of b_theta on the nilpotent part.  Subgroups whose Lie algebra h is a
bracket-closed span of root spaces have completely explicit shape operators:

    A_xi X = 1/2 P_h([xi, X] - [theta xi, X])   (P_h: projection onto h),

which this module reads off the bracket and always checks against the Koszul
formula: the AN Gram times each column must equal -(nabla_X xi).  Vectors are
keyed by the algebra's basis indices: a + n, h and the normal space are index
tuples picked by root, and labels are read only for messages and output.

Both sides of that check are sparse maps read off sparse rows: the bracket
rows, twice b_theta (whose int rows ``chevalley`` owns and this module reads
in place), and four times the AN Gram, which are all integral.  So a column
and its check run on ints whenever xi is integral (a basis vector, say), and
only the nonzero matrix entries become Fractions.  Elements are only taken,
and checked, at the public entry points; past them no element is built.  An
operator is kept as those sparse columns end to end: its self-adjointness is
read off them and the Gram rows, and its characteristic polynomial is x^n when
it is zero, so ``linalg`` is only loaded for a nonzero operator.
``space_model`` builds the model of a catalog space, over the scalar ring its
entry calls for.
Nothing is approximated: totally-geodesic verdicts are exact zero tests and
characteristic polynomials are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import C1AtlasError, FormulaMismatch, IdentityViolation, NotClosed
from .rootsys import Record, Root
from .chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra
from .scalars import GAUSSIAN, RATIONAL

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SolvableModel:
    """The metric solvable group attached to a split or complexified algebra.

    ``an_keys`` lists the basis indices of a + n: the flat h_1..h_r first,
    then the real basis of the positive root spaces.
    """

    def __init__(self, algebra: ChevalleyAlgebra):
        self.algebra = algebra
        rs = algebra.rs
        self.an_keys = tuple(range(rs.rank)) + algebra.root_indices(rs.positives)
        self._an_set = frozenset(self.an_keys)
        # a + n is a union of b_theta blocks: the int rows of 2 b_theta on it
        # stay in it, and so do those of 4 x the AN Gram (Cartan block doubled)
        b2 = algebra._b2_rows
        self._gram4_rows = {
            k: tuple((kz, 2 * g if k < rs.rank else g) for kz, g in b2[k]) for k in self.an_keys
        }

    def koszul_image(self, xs, y: dict) -> list:
        """[{k: 8 <nabla_x y, e_k>_AN} for x in xs]: each Koszul covector as a sparse map on a + n.

        xs and y are term dicts of vectors in a + n; the caller checks that.
        The Koszul formula gives 4 <nabla_x y, z>_AN = b_theta(c, z) with
        c = [x, y] + [theta x, y] - [x, theta y], so the map is c times the
        algebra's int rows of 2 b_theta, read on a + n.  Int x and y give int
        values; an index whose terms cancelled holds a 0.
        """
        alg = self.algebra
        bracket, theta = alg.bracket_terms, alg.theta_terms
        rows, an = alg._b2_rows, self._an_set
        minus_theta_y = {k: -v for k, v in theta(y).items()}
        out = []
        for xt in xs:
            c = bracket(xt, minus_theta_y, bracket(theta(xt), y, bracket(xt, y)))
            image = {}
            for k, v in c.items():
                if v and k in an:
                    for kz, g in rows[k]:
                        image[kz] = image.get(kz, 0) + v * g
            out.append(image)
        return out


def space_model(space) -> SolvableModel:
    """The exact model of a catalog space: over Q if it is split, over Q(i) if complexified.

    Any other space has no exact model here: C1AtlasError.
    """
    if space.split_flag:
        scalars = RATIONAL
    elif space.complexified_flag:
        scalars = GAUSSIAN
    else:
        raise C1AtlasError(f"{space.name} is neither split nor complexified; no exact model here")
    return SolvableModel(build_algebra(space.root_system(), scalars))


class ShapeOperatorMatrix(Record):
    """Exact matrix of one shape operator over the tangent basis of an orbit.

    ``xi_key`` holds the sorted (basis index, coefficient) terms of xi and
    ``basis`` the tangent basis indices of the rows and columns.  The matrix
    is stored by sparse columns: ``columns[c]`` holds the sorted (row,
    Fraction) pairs of the nonzero entries of column c, and every entry it
    omits is zero.
    """

    __slots__ = ("xi_key", "basis", "columns")

    @property
    def is_zero(self) -> bool:
        return not any(self.columns)

    def charpoly(self) -> list:
        """Coefficients [1, c1, ..., cn] of the monic characteristic polynomial, exactly.

        A zero operator gives x^n without arithmetic; any other is handed to
        ``linalg.block_charpoly`` as its sparse columns, which multiplies the
        polynomials of the diagonal blocks of its nonzero pattern.
        """
        if self.is_zero:
            return [_ONE] + [_ZERO] * len(self.basis)
        from .linalg import block_charpoly

        return block_charpoly([dict(column) for column in self.columns])


class OrbitSubalgebra:
    """Tangent algebra h = a + level-zero part + w + higher levels, and its normal space.

    ``selection`` maps each level-one root to "full" (its root space joins w)
    or "zero" (it joins the normal space).  ``dropped`` removes whole root
    spaces from the levels >= 2, which is only used to manufacture
    deliberately non-CPC subgroups in tests; the constructor still insists the
    result is a subalgebra.  Any other selection value or dropped root raises
    ValueError.
    """

    def __init__(self, model: SolvableModel, j: int, selection=None, dropped=()):
        self.model = model
        self.j = j
        rs = model.algebra.rs
        grading = rs.maximal_grading(j)
        self.grading = grading
        level_one = grading.level(1)
        if selection is None:
            selection = {lam: "zero" for lam in level_one}
        else:
            selection = dict(selection)
            if set(selection) != set(level_one):
                raise ValueError("selection must cover exactly the level-one roots")
            if not set(selection.values()) <= {"full", "zero"}:
                raise ValueError('selection values must be "full" or "zero"')
        higher = [lam for nu in sorted(grading.levels) if nu >= 2 for lam in grading.level(nu)]
        dropped = frozenset(dropped)
        if not dropped <= set(higher):
            raise ValueError("dropped roots must lie in the levels >= 2")

        h_roots = list(grading.sigma_phi_pos)
        h_roots += [lam for lam in level_one if selection[lam] == "full"]
        h_roots += [lam for lam in higher if lam not in dropped]
        self.h_roots = tuple(sorted(h_roots))
        self.v_roots = tuple(sorted(lam for lam in level_one if selection[lam] == "zero"))
        self._assert_closed(dropped)

        alg = model.algebra
        self.h_keys = tuple(range(rs.rank)) + alg.root_indices(self.h_roots)
        self._h_position = {k: c for c, k in enumerate(self.h_keys)}
        self.v_keys = alg.root_indices(self.v_roots)

    def _assert_closed(self, dropped):
        """NotClosed unless every root sum of two roots of h is a root of h.

        Every positive root lies in h, in the normal space or among the
        dropped roots, and a + b lies at the level of a plus that of b.  So
        for each a, only the roots b of h whose level takes a + b to the level
        of a missing root are tried, on coefficient tuples.  The first a in
        root order with a hit is reported with its least b, as a scan over
        all ordered pairs would.
        """
        j = self.j - 1
        missing = {lam.coeffs for lam in (*self.v_roots, *dropped)}
        missing_levels = {coeffs[j] for coeffs in missing}
        by_level = {}
        for b in self.h_roots:
            by_level.setdefault(b.coeffs[j], []).append(b)
        for a in self.h_roots:
            level = a.coeffs[j]
            hits = [
                b
                for target in missing_levels
                for b in by_level.get(target - level, ())
                if a.shifted(b) in missing
            ]
            if hits:
                b = min(hits)
                raise NotClosed(
                    f"[g_{a}, g_{b}] leaves the candidate tangent algebra (hits {Root(a.shifted(b))})"
                )

    def tangent_terms(self, terms: dict) -> dict:
        """b_theta-orthogonal projection onto h of a sparse term dict, kept sparse.

        The real basis vectors are pairwise b_theta-orthogonal across the
        h / complement divide (the flat part lies entirely inside h), so the
        projection just keeps the h-components.
        """
        position = self._h_position
        return {k: v for k, v in terms.items() if k in position}

    def normal_basis(self):
        return [self.model.algebra.unit(k) for k in self.v_keys]

    def contains_normal(self, xi: AlgebraElement) -> bool:
        return all(k in self.v_keys for k in xi.terms)


def shape_operator(orbit: OrbitSubalgebra, xi: AlgebraElement) -> ShapeOperatorMatrix:
    """The exact shape operator of the orbit in normal direction xi.

    Column X is the tangent projection of ([xi, X] - [theta xi, X]) / 2: that
    bracket has no flat part, root spaces are b_theta-orthogonal and the AN
    metric is half of b_theta on n.  Each column is checked: the AN Gram times
    it must equal -(nabla_X xi) over the tangent basis, else FormulaMismatch.
    The Gram is positive definite, so that equation has exactly one solution.
    The check runs on sparse maps scaled by 8: the rows of 4 x Gram times
    twice the column, plus the Koszul image of X, must vanish on h entry by
    entry.
    """
    model = orbit.model
    alg = model.algebra
    if not orbit.contains_normal(xi):
        raise ValueError("xi must lie in the normal space of the orbit")
    h_keys = orbit.h_keys
    position = orbit._h_position
    gram4 = model._gram4_rows
    bracket = alg.bracket_terms
    # integral coefficients as ints, so that the bracket and Gram products stay ints
    xt = {k: v.numerator if v.denominator == 1 else v for k, v in xi.terms.items()}
    minus_theta_xi = {k: -v for k, v in alg.theta_terms(xt).items()}
    columns = []
    units = [{k: 1} for k in h_keys]
    for x, image in zip(units, model.koszul_image(units, xt)):
        twice_column = orbit.tangent_terms(bracket(minus_theta_xi, x, bracket(xt, x)))
        residual = {kz: v for kz, v in image.items() if kz in position}
        for kc, v in twice_column.items():
            for kz, g in gram4[kc]:
                residual[kz] = residual.get(kz, 0) + g * v
        if any(residual.values()):
            raise FormulaMismatch(
                "bracket formula and Koszul derivative disagree on a tangent vector"
            )
        column = ((position[kc], Fraction(v, 2)) for kc, v in twice_column.items() if v)
        columns.append(tuple(sorted(column)))
    xi_key = tuple(sorted(xi.terms.items()))
    return ShapeOperatorMatrix(xi_key=xi_key, basis=h_keys, columns=tuple(columns))


def is_totally_geodesic(orbit: OrbitSubalgebra) -> bool:
    """True iff every shape operator vanishes identically (exact zero test)."""
    return all(shape_operator(orbit, xi).is_zero for xi in orbit.normal_basis())


def check_shape_identities(orbit: OrbitSubalgebra) -> None:
    """Verify the structural identities of the shape operators on this orbit:

    (a) A_xi kills the flat part for every normal xi;
    (b) for X in a level-zero root space the theta term drops out;
    (c) normal directions in the top level-one root space kill level zero.

    Raises IdentityViolation on the first failure; ValueError if level one is no height chain.
    """
    from .nilcon import snake_check  # imported here: shape and api requests load no nilcon

    alg = orbit.model.algebra
    rank = alg.rs.rank
    snake = snake_check(alg.rs, orbit.j)
    if isinstance(snake, tuple):
        raise ValueError("level one is not a height chain; no top root")
    level_zero = set(alg.root_indices(orbit.grading.sigma_phi_pos))
    top = alg.root_indices([snake.top])
    h_keys = orbit.h_keys
    for vk in orbit.v_keys:
        op = shape_operator(orbit, alg.unit(vk))
        for key, column in zip(h_keys, op.columns):
            if key < rank and column:
                raise IdentityViolation(f"A_xi does not kill the flat part at {alg.labels[key]}")
            if key in level_zero:
                bracket = alg.bracket_terms({vk: 1}, {key: 1})
                plain = orbit.tangent_terms({k: Fraction(v, 2) for k, v in bracket.items()})
                if plain != {h_keys[r]: v for r, v in column}:
                    raise IdentityViolation(
                        f"level-zero shortcut fails at xi={alg.labels[vk]}, X={alg.labels[key]}"
                    )
                if vk in top and column:
                    raise IdentityViolation(
                        f"top-root normal direction acts on level zero at X={alg.labels[key]}"
                    )


def check_self_adjoint(orbit: OrbitSubalgebra, op: ShapeOperatorMatrix) -> bool:
    """A_xi must be symmetric for the AN Gram matrix G of the orbit: G A = (G A)^T.

    G A is summed sparsely from the columns of A and the int rows of 4 G
    (which stay inside h), and each of its entries is compared with its
    mirror; an entry the sum never reached is zero.
    """
    h_keys, position = orbit.h_keys, orbit._h_position
    gram4 = orbit.model._gram4_rows
    product = {}
    for c, column in enumerate(op.columns):
        for r, v in column:
            for kz, g in gram4[h_keys[r]]:
                entry = (position[kz], c)
                product[entry] = product.get(entry, 0) + g * v
    return all(product.get((c, r), 0) == v for (r, c), v in product.items())
