from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from c1atlas.linalg import (
    _strong_components,
    block_charpoly,
    charpoly,
    det,
    identity,
    inverse,
    mat_vec,
    rank,
    solve,
)


def mat_mul(a, b):
    """Reference dense product; the package multiplies sparse columns and rows instead."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def is_symmetric(a) -> bool:
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i + 1, len(a)))


frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# three entries in four are zero, so the charpoly kernel meets row swaps,
# zero subdiagonals and an early end of the recurrence
sparse_frac = st.tuples(st.integers(0, 3), frac).map(lambda p: p[1] if p[0] == 0 else Fraction(0))
sparse_square = st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(sparse_frac, min_size=n, max_size=n), min_size=n, max_size=n)
)


def _dets_by_permutation(a):
    # independent oracle: Leibniz expansion
    from itertools import permutations

    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += sign * term
    return total


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_permutation_expansion(rows):
    assert det(rows) == _dets_by_permutation(rows)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(frac, min_size=3, max_size=3))
def test_solve_solves(rows, rhs):
    if det(rows) == 0:
        with pytest.raises(ValueError):
            solve(rows, rhs)
        return
    x = solve(rows, rhs)
    assert [sum(r[j] * x[j] for j in range(3)) for r in rows] == list(rhs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=3, max_size=3),
       st.integers(-3, 3))
def test_charpoly_evaluates_to_det(rows, t):
    coeffs = charpoly(rows)
    value = sum(c * Fraction(t) ** (3 - k) for k, c in enumerate(coeffs))
    shifted = [[Fraction(t) * int(i == j) - rows[i][j] for j in range(3)] for i in range(3)]
    assert value == det(shifted)


def _evaluates_to_det(a, coeffs):
    # det(t I - a) at n + 1 integer points pins a monic polynomial of degree n
    n = len(a)
    assert len(coeffs) == n + 1 and coeffs[0] == 1
    for t in range(n + 1):
        value = sum(c * Fraction(t) ** (n - k) for k, c in enumerate(coeffs))
        shifted = [[Fraction(t) * int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
        assert value == det(shifted)


@settings(max_examples=60, deadline=None)
@given(sparse_square)
def test_charpoly_of_sparse_matrices_evaluates_to_det(rows):
    coeffs = charpoly(rows)
    assert all(type(c) is Fraction for c in coeffs)
    _evaluates_to_det(rows, coeffs)
    assert block_charpoly(_columns(rows)) == coeffs


def _columns(rows):
    """The sparse columns {row: entry} of a square matrix."""
    n = len(rows)
    return [{r: rows[r][c] for r in range(n) if rows[r][c]} for c in range(n)]


def test_block_charpoly_matches_charpoly_on_random_patterns():
    # one entry in four is nonzero, so the patterns have strongly connected
    # blocks of every size, with and without a diagonal entry
    rng = random.Random(16)
    sizes = set()
    for _ in range(300):
        n = rng.randrange(10)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.25 else Fraction(0) for _ in range(n)]
            for _ in range(n)
        ]
        coeffs = block_charpoly(_columns(rows))
        assert coeffs == charpoly(rows), rows
        assert all(type(c) is Fraction for c in coeffs)
        sizes.update(len(block) for block in _strong_components(_columns(rows)))
    assert {1, 2, 3, 4} <= sizes


def test_strong_components_partition_the_vertices_by_mutual_reachability():
    # 0 -> 1 -> 2 -> 0 is a cycle, 3 -> 4 -> 3 another, 2 -> 3 joins them one way, 5 is alone
    columns = [{1: 1}, {2: 1}, {0: 1, 3: 1}, {4: 1}, {3: 1}, {}]
    assert sorted(sorted(block) for block in _strong_components(columns)) == [[0, 1, 2], [3, 4], [5]]


def test_charpoly_fixed_cases():
    f = Fraction
    assert charpoly([]) == [1]
    assert charpoly([[f(0)] * 22 for _ in range(22)]) == [1] + [0] * 22
    nilpotent = [[f(i + 2 * j) if j > i else f(0) for j in range(5)] for i in range(5)]
    assert charpoly(nilpotent) == [1, 0, 0, 0, 0, 0]
    # x^4 - 2x^3 + (3/2)x - 5 from its companion matrix and from the transpose
    poly = [f(1), f(-2), f(0), f(3, 2), f(-5)]
    companion = [[f(int(i == j + 1)) for j in range(4)] for i in range(4)]
    for i in range(4):
        companion[i][3] = -poly[4 - i]
    assert charpoly(companion) == poly
    assert charpoly([list(col) for col in zip(*companion)]) == poly
    # the first subdiagonal pivot is 0 but the entry below it is not
    swap = [[f(1), f(2), f(0)], [f(0), f(3), f(1)], [f(4), f(0), f(5)]]
    assert charpoly(swap) == [1, -9, 23, -23]
    _evaluates_to_det(swap, charpoly(swap))


def test_charpoly_leaves_its_input_alone():
    rows = [[Fraction(0), Fraction(1), Fraction(2)], [Fraction(0), Fraction(3), Fraction(0)],
            [Fraction(5), Fraction(0), Fraction(7, 2)]]
    snapshot = [list(row) for row in rows]
    frozen = tuple(tuple(row) for row in rows)
    assert charpoly(rows) == charpoly(frozen)
    assert rows == snapshot and frozen == tuple(tuple(row) for row in snapshot)


def test_mat_vec_skips_zeros_exactly():
    a = [[Fraction(i - 2 * j, j + 1) for j in range(4)] for i in range(3)]
    zero = [Fraction(0)] * 4
    sparse = [Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1)]

    def dense(v):
        return [sum((row[j] * v[j] for j in range(4)), Fraction(0)) for row in a]

    assert mat_vec(a, zero) == dense(zero) == [0, 0, 0]
    assert mat_vec(a, sparse) == dense(sparse)
    assert all(type(x) is Fraction for x in mat_vec(a, zero) + mat_vec(a, sparse))


def test_rank_and_inverse():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(a) == 1
    with pytest.raises(ValueError):
        inverse(a)
    b = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert mat_mul(inverse(b), b) == identity(2)


def _positive_definite(a) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(det([row[:k] for row in a[:k]]) > 0 for k in range(1, len(a) + 1))


def test_symmetry_and_definiteness():
    good = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert is_symmetric(good) and _positive_definite(good)
    bad = [[Fraction(1), Fraction(3)], [Fraction(3), Fraction(1)]]
    assert not _positive_definite(bad)
