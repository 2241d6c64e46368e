"""Self-contained invariant battery behind the `verify` CLI subcommand.

Each check is a named callable returning None on success and raising a
C1AtlasError on failure, so the checks still fire under ``python -O``;
`run_verify` executes them in order and reports one record per check.
The exhaustive F4 Jacobi sweep (22 100 basis triples, summed on the int
bracket rows in about 0.02 s) only runs with full=True: on a 2-vCPU x86-64
box with CPython 3.11, a cold `c1atlas verify --full` takes about
0.19-0.25 s, against 0.15-0.21 s for `c1atlas verify`, depending on the
load of the box.
"""

from __future__ import annotations

import time
from collections import Counter

from . import nilcon
from .catalog import default_catalog, find_space
from .chevalley import build_algebra
from .classify import classify, derive_type_e_spaces
from .errors import CheckFailed, ProportionalRoots
from .rootsys import length_class_counts, root_system
from .scalars import GAUSSIAN, RATIONAL
from .shapeops import (
    OrbitSubalgebra,
    SolvableModel,
    check_self_adjoint,
    check_shape_identities,
    is_totally_geodesic,
    shape_operator,
)


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _check_root_counts():
    for fam, rank in [
        ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("BC", 3), ("F4", 4), ("G2", 2), ("E6", 6), ("E7", 7), ("E8", 8)
    ]:
        rs = root_system(fam, rank)
        # generated roots per six-fold squared length, against the closed form
        counted = Counter(rs._root_len6[lam.coeffs] for lam in rs.positives)
        expected = {int(6 * length): k for length, k in length_class_counts(fam, rank).items()}
        _require(counted == expected, f"{rs.rtype}: {dict(counted)} roots by six-fold length, not {expected}")


def _check_grading_partitions():
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("BC", 3), ("F4", 4), ("G2", 2)]:
        rs = root_system(fam, rank)
        for mask in range(1 << rs.rank):
            phi = frozenset(i + 1 for i in range(rs.rank) if mask & (1 << i))
            g = rs.grading(phi)
            combined = list(g.sigma_phi_pos)
            for nu in g.levels:
                combined.extend(g.levels[nu])
            _require(sorted(combined) == list(rs.positives), f"{fam}{rank} phi={sorted(phi)}")


def _check_simple_decrement():
    for fam, rank in [("A", 3), ("B", 4), ("C", 4), ("D", 4), ("BC", 3), ("F4", 4), ("G2", 2)]:
        rs = root_system(fam, rank)
        for lam in rs.positives:
            if lam.height < 2:
                continue
            _require(
                any(
                    rs.contains(lam.shifted(rs.simple(i), -1)) and sum(lam.shifted(rs.simple(i), -1)) > 0
                    for i in range(1, rs.rank + 1)
                ),
                f"{fam}{rank}: {lam} has no simple decrement",
            )


def _check_string_bound():
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2), ("BC", 2)]:
        rs = root_system(fam, rank)
        longest = 0
        for lam in rs.positives:
            for i in range(1, rs.rank + 1):
                beta = rs.simple(i)
                try:
                    s = rs.root_string(lam, beta)
                except ProportionalRoots:  # lam = beta has no string of its own
                    continue
                longest = max(longest, len(s))
        _require((longest == 4) == (fam == "G2"), f"{fam}{rank}: longest string {longest}")


def _check_jacobi_small():
    for fam, rank in [("A", 2), ("B", 2), ("G2", 2)]:
        alg = build_algebra(root_system(fam, rank))
        alg.check_jacobi_exhaustive()
        alg.check_constant_magnitudes()


def _check_jacobi_f4():
    alg = build_algebra(root_system("F4", 4))
    alg.check_jacobi_exhaustive()
    alg.check_constant_magnitudes()


def _check_theta_isometry():
    for scalars in (RATIONAL, GAUSSIAN):
        alg = build_algebra(root_system("G2", 2), scalars)
        basis = [alg.unit(k) for k in range(alg.dim)]
        # the messages render elements, so they are built only on a failure
        for x in basis:
            if alg.theta(alg.theta(x)) != x:
                raise CheckFailed(f"theta is not an involution on {x}")
            for y in basis:
                if alg.killing(alg.theta(x), alg.theta(y)) != alg.killing(x, y):
                    raise CheckFailed(f"theta is not a Killing isometry on {x}, {y}")


def _check_shape_consistency():
    for fam, j in [("A", 1), ("G2", 2), ("G2", 1)]:
        rank = 2
        alg = build_algebra(root_system(fam, rank))
        model = SolvableModel(alg)
        orbit = OrbitSubalgebra(model, j)
        for xi in orbit.normal_basis():
            op = shape_operator(orbit, xi)  # built-in Koszul cross-check
            _require(check_self_adjoint(orbit, op), f"A_xi is not self-adjoint on {fam}, j={j}")
    check_shape_identities(OrbitSubalgebra(SolvableModel(build_algebra(root_system("G2", 2))), 2))


def _check_g2_dichotomy():
    for scalars in (RATIONAL, GAUSSIAN):
        alg = build_algebra(root_system("G2", 2), scalars)
        model = SolvableModel(alg)
        _require(is_totally_geodesic(OrbitSubalgebra(model, 1)), f"G2 j=1 over {scalars} bends")
        _require(
            not is_totally_geodesic(OrbitSubalgebra(model, 2)),
            f"G2 j=2 over {scalars} is totally geodesic",
        )


def _check_catalog_and_sweep():
    cat = default_catalog()
    verdicts = nilcon.analyze_all(cat)
    sur = {(v.space, v.j) for v in nilcon.survivors(verdicts)}
    _require(sur == {("G2^2/SO(4)", 2), ("G2(C)/G2", 2)}, f"survivors {sorted(sur)}")
    for v in verdicts:
        _require(
            nilcon.verify_witness(find_space(cat, v.space), v),
            f"witness of {v.space}, j={v.j} does not re-check",
        )


def _check_classification():
    cat = default_catalog()
    expected = {
        ("CH^3", "CH^3"),
        ("CH^4", "CH^4"),
        ("E6^{-14}/Spin(10)U(1)", "CH^5"),
        ("HH^2", "HH^2"),
        ("HH^3", "HH^3"),
        ("OH^2", "OH^2"),
        ("SO(5,H)/U(5)", "CH^3"),
        ("SO(7,H)/U(7)", "CH^3"),
        ("SU(2,4)/S(U(2)U(4))", "CH^3"),
        ("SU(2,5)/S(U(2)U(5))", "CH^4"),
        ("SU(3,5)/S(U(3)U(5))", "CH^3"),
        ("Sp(2,3)/Sp(2)Sp(3)", "HH^2"),
        ("Sp(2,4)/Sp(2)Sp(4)", "HH^3"),
    }
    got = {(sp.name, str(rec)) for sp, _, rec in derive_type_e_spaces(cat)}
    _require(got == expected, f"type-(e) spaces differ by {sorted(got ^ expected)}")
    for name in ("G2^2/SO(4)", "G2(C)/G2"):
        ac = classify([find_space(cat, name)])
        subgroups = [f.parameters.get("subgroup") for f in ac.by_kind("NILPOTENT")]
        _require(subgroups == ["H_{2,0}"], f"{name}: nilpotent families {subgroups}")


CHECKS = [
    ("root counts match the closed formulas", _check_root_counts),
    ("grading levels partition the positive roots", _check_grading_partitions),
    ("every non-simple positive root has a simple decrement", _check_simple_decrement),
    ("root strings reach length 4 only in G2", _check_string_bound),
    ("Jacobi identity and |N| = p+1 for A2, B2, G2", _check_jacobi_small),
    ("the Cartan involution is a Killing isometry", _check_theta_isometry),
    ("shape operators match the Koszul derivative and are self-adjoint", _check_shape_consistency),
    ("total geodesy dichotomy at the two G2 roots", _check_g2_dichotomy),
    ("catalog validates; elimination sweep has exactly the G2 survivors", _check_catalog_and_sweep),
    ("classification assembly reproduces the expected family lists", _check_classification),
]

FULL_CHECKS = [("Jacobi identity and |N| = p+1 for F4 (exhaustive)", _check_jacobi_f4)]


def run_verify(full: bool = False) -> list:
    """Run the invariant battery; returns one record per check, in order.

    A record holds the check's name, its status ("PASS" or "FAIL"), its wall
    time in seconds, and the type name and message of the error that failed
    it (None when it passed).
    """
    records = []
    for name, fn in CHECKS + (FULL_CHECKS if full else []):
        start = time.perf_counter()
        error = None
        try:
            fn()
        except Exception as exc:  # report and keep going
            error = exc
        records.append({
            "name": name,
            "status": "PASS" if error is None else "FAIL",
            "seconds": time.perf_counter() - start,
            "error_type": None if error is None else type(error).__name__,
            "message": None if error is None else str(error),
        })
    return records
