"""Independent oracle: Euclidean coordinate models of the root systems.

Each family gets its classical realisation by explicit vectors in R^n; every
root is then expressed in the Bourbaki simple basis by solving an exact linear
system.  Nothing here touches the closure algorithm under test - comparing
the two coefficient sets is a complete end-to-end check of root generation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from c1atlas.linalg import solve


def _e(n, i, value=1):
    v = [Fraction(0)] * n
    v[i] = Fraction(value)
    return tuple(v)


def _add(x, y, sx=1, sy=1):
    return tuple(sx * a + sy * b for a, b in zip(x, y))


def _a_roots(r):
    n = r + 1
    roots = [_add(_e(n, i), _e(n, j), 1, -1) for i in range(n) for j in range(n) if i != j]
    simples = [_add(_e(n, i), _e(n, i + 1), 1, -1) for i in range(r)]
    return roots, simples


def _b_roots(r):
    roots = [s * e for i in range(r) for e in [_e(r, i)] for s in (1, -1)]
    roots = []
    for i in range(r):
        roots.append(_e(r, i))
        roots.append(_e(r, i, -1))
    for i, j in combinations(range(r), 2):
        for si, sj in product((1, -1), repeat=2):
            roots.append(_add(_e(r, i, si), _e(r, j, sj)))
    simples = [_add(_e(r, i), _e(r, i + 1), 1, -1) for i in range(r - 1)] + [_e(r, r - 1)]
    return roots, simples


def _c_roots(r):
    roots = []
    for i in range(r):
        roots.append(_e(r, i, 2))
        roots.append(_e(r, i, -2))
    for i, j in combinations(range(r), 2):
        for si, sj in product((1, -1), repeat=2):
            roots.append(_add(_e(r, i, si), _e(r, j, sj)))
    simples = [_add(_e(r, i), _e(r, i + 1), 1, -1) for i in range(r - 1)] + [_e(r, r - 1, 2)]
    return roots, simples


def _d_roots(r):
    roots = []
    for i, j in combinations(range(r), 2):
        for si, sj in product((1, -1), repeat=2):
            roots.append(_add(_e(r, i, si), _e(r, j, sj)))
    simples = [_add(_e(r, i), _e(r, i + 1), 1, -1) for i in range(r - 1)]
    simples.append(_add(_e(r, r - 2), _e(r, r - 1)))
    return roots, simples


def _bc_roots(r):
    if r == 1:
        return [_e(1, 0), _e(1, 0, -1), _e(1, 0, 2), _e(1, 0, -2)], [_e(1, 0)]
    broots, simples = _b_roots(r)
    roots = list(broots)
    for i in range(r):
        roots.append(_e(r, i, 2))
        roots.append(_e(r, i, -2))
    return roots, simples


def _f4_roots():
    n = 4
    roots = []
    for i in range(4):
        roots.append(_e(n, i))
        roots.append(_e(n, i, -1))
    for i, j in combinations(range(4), 2):
        for si, sj in product((1, -1), repeat=2):
            roots.append(_add(_e(n, i, si), _e(n, j, sj)))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=4):
        roots.append(tuple(half * s for s in signs))
    simples = [
        _add(_e(n, 1), _e(n, 2), 1, -1),
        _add(_e(n, 2), _e(n, 3), 1, -1),
        _e(n, 3),
        (half, -half, -half, -half),
    ]
    return roots, simples


def _g2_roots():
    # realised in the sum-zero hyperplane of R^3; a1 long, a2 short
    n = 3

    def v(a, b, c):
        return (Fraction(a), Fraction(b), Fraction(c))

    shorts = [v(1, -1, 0), v(0, 1, -1), v(1, 0, -1)]
    longs = [v(2, -1, -1), v(-1, 2, -1), v(1, 1, -2)]
    roots = []
    for x in shorts + longs:
        roots.append(x)
        roots.append(tuple(-c for c in x))
    simples = [v(-2, 1, 1), v(1, -1, 0)]
    return roots, simples


def _e8_roots():
    n = 8
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((1, -1), repeat=2):
            roots.append(_add(_e(n, i, si), _e(n, j, sj)))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    simples = [
        (half, -half, -half, -half, -half, -half, -half, half),
        _add(_e(n, 0), _e(n, 1)),
        _add(_e(n, 1), _e(n, 0), 1, -1),
        _add(_e(n, 2), _e(n, 1), 1, -1),
        _add(_e(n, 3), _e(n, 2), 1, -1),
        _add(_e(n, 4), _e(n, 3), 1, -1),
        _add(_e(n, 5), _e(n, 4), 1, -1),
        _add(_e(n, 6), _e(n, 5), 1, -1),
    ]
    return roots, simples


def _coefficients(root, simples):
    """Solve root = sum c_i simple_i exactly (least squares via normal equations)."""
    k = len(simples)
    gram = [[sum(a * b for a, b in zip(simples[i], simples[j])) for j in range(k)] for i in range(k)]
    rhs = [sum(a * b for a, b in zip(simples[i], root)) for i in range(k)]
    coeffs = solve(gram, rhs)
    residual = list(root)
    for c, s in zip(coeffs, simples):
        residual = [x - c * y for x, y in zip(residual, s)]
    if any(x != 0 for x in residual):
        return None
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)


def _model(family: str, rank: int):
    """(roots, simples) of the coordinate model; E6 and E7 share the E8 model."""
    if family == "A":
        return _a_roots(rank)
    if family == "B":
        return _b_roots(rank)
    if family == "C":
        return _c_roots(rank)
    if family == "D":
        return _d_roots(rank)
    if family == "BC":
        return _bc_roots(rank)
    if family == "F4":
        return _f4_roots()
    if family == "G2":
        return _g2_roots()
    if family in ("E6", "E7", "E8"):
        return _e8_roots()
    raise ValueError(family)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def simple_gram(family: str, rank: int):
    """Gram matrix of the simple roots, long roots at squared length 2 (BC: the ladder 1, 2, 4).

    E6 and E7 take the leading block of the E8 Gram matrix, whose first six
    and seven simple roots span them.
    """
    roots, simples = _model(family, rank)
    scale = 1 if family == "BC" else Fraction(2) / max(_dot(x, x) for x in roots)
    return [[scale * _dot(x, y) for y in simples[:rank]] for x in simples[:rank]]


def positive_coefficient_vectors(family: str, rank: int):
    """The positive roots of the coordinate model, in simple-root coordinates."""
    roots, simples = _model(family, rank)
    out = set()
    for root in roots:
        coeffs = _coefficients(root, simples)
        if coeffs is None:
            raise AssertionError(f"coordinate root {root} not integral over simples")
        if family == "E7" and coeffs[7] != 0:
            continue
        if family == "E6" and (coeffs[6] != 0 or coeffs[7] != 0):
            continue
        if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs):
            if family in ("E6", "E7"):
                coeffs = coeffs[: {"E6": 6, "E7": 7}[family]]
            out.add(coeffs)
    return out
