"""Dense exact references that the package itself no longer needs.

``det`` is the reference for ``linalg.charpoly`` (det(t I - a) at integer
points) and for Sylvester's criterion in the tests; it reuses the package's
row reduction, which ``rank`` and ``solve`` run in ``src`` as well.
"""

from __future__ import annotations

from fractions import Fraction

from c1atlas.linalg import _eliminate


def det(a) -> Fraction:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    _, rk, d = _eliminate(a)
    return d if rk == n else Fraction(0)
