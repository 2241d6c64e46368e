"""Exact references that the package itself no longer needs.

``det`` is the reference for ``linalg.charpoly`` (det(t I - a) at integer
points) and for Sylvester's criterion in the tests; it reuses the package's
row reduction, which ``rank`` and ``solve`` run in ``src`` as well.

``an_inner`` and ``levi_civita`` evaluate the metric and the Levi-Civita
pairing of a ``shapeops.SolvableModel`` on elements, from the same int rows
the shape operators read; they are the references for the Koszul formula.
``cpc_charpoly_constancy`` compares the characteristic polynomials of shape
operators across equal-norm normal directions.
"""

from __future__ import annotations

from fractions import Fraction

from c1atlas.errors import C1AtlasError
from c1atlas.linalg import _eliminate
from c1atlas.shapeops import shape_operator


class SpectrumMismatch(C1AtlasError):
    """Characteristic polynomials differ between equal-norm normal directions."""


def det(a) -> Fraction:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    _, rk, d = _eliminate(a)
    return d if rk == n else Fraction(0)


def _check_in_an(model, vectors):
    for v in vectors:
        for k in v.terms:
            if k not in model._an_set:
                raise ValueError(f"component {model.algebra.labels[k]} lies outside a + n")


def an_inner(model, x, y) -> Fraction:
    """<x, y>_AN = b_theta on the flat part plus half b_theta on n, read off the Gram rows."""
    _check_in_an(model, (x, y))
    rows, yt = model._gram4_rows, y.terms
    total = sum(c * g * yt[kz] for k, c in x.terms.items() for kz, g in rows[k] if kz in yt)
    return Fraction(total, 4)


def levi_civita(model, x, y, z) -> Fraction:
    """<nabla_x y, z>_AN for left-invariant fields on AN, exactly: x's Koszul image paired with z."""
    _check_in_an(model, (x, y, z))
    image = model.koszul_image((x.terms,), y.terms)[0]
    return Fraction(sum(image.get(k, 0) * v for k, v in z.terms.items()), 8)


def cpc_charpoly_constancy(orbit, samples) -> list:
    """Characteristic polynomials of A_xi across equal-norm normal samples.

    Exact equality is required; a mismatch raises SpectrumMismatch.  Returns
    the common coefficient list.
    """
    if not samples:
        raise ValueError("need at least one normal sample")
    model = orbit.model
    norms = {an_inner(model, xi, xi) for xi in samples}
    if len(norms) != 1:
        raise ValueError(f"samples have different norm-squares {sorted(norms)}")
    polys = [shape_operator(orbit, xi).charpoly() for xi in samples]
    for p in polys[1:]:
        if p != polys[0]:
            raise SpectrumMismatch(
                "characteristic polynomials differ between equal-norm normal directions"
            )
    return polys[0]
