"""Self-contained invariant battery behind the `verify` CLI subcommand.

Each check is a named callable returning None on success and raising a
C1AtlasError on failure, so the checks still fire under ``python -O``;
`run_verify` executes them in order and reports one record per check.
The exhaustive F4 Jacobi sweep (22 100 basis triples, summed on the int
bracket rows in about 0.02 s) only runs with full=True: on a 2-vCPU x86-64
box with CPython 3.11, a cold `c1atlas verify --full` takes about
0.19-0.36 s, against 0.17-0.30 s for `c1atlas verify`, depending on the
load of the box; the w = 0 orbits of the 26 snake verdicts, computed in one
model per space (15 models), take about 0.03-0.05 s.

The root-space identities (``check_theta_bracket_identity`` on every root
space and ``check_string_injectivity`` on every root string) run on G2 over
Q and Q(i), on int term dicts, in about 0.002 s and 0.003 s in process on
that box (best of 5).  The larger types take 0.023 s (F4) to 0.48 s (E8)
over Q, and 0.055 s (E6) to 0.59 s (E8) over Q(i), so the tests run them
and `verify --full` does not.
"""

from __future__ import annotations

import time
from collections import Counter

from . import nilcon, shapeops
from .catalog import SpaceEntry, default_catalog, find_space
from .chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra
from .classify import classify, derive_type_e_spaces
from .errors import CheckFailed, IdentityViolation, InjectivityViolation, ProportionalRoots
from .rootsys import Root, length_class_counts, root_system
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


def check_constant_magnitudes(algebra: ChevalleyAlgebra) -> int:
    """|N(lam, mu)| = p + 1 for every root pair; returns pairs checked."""
    rs = algebra.rs
    count = 0
    for lam in algebra.roots:
        for mu in algebra.roots:
            s = lam.shifted(mu)
            if not rs.contains(s) or all(c == 0 for c in s):
                continue
            p = rs.string_down_count(mu, lam)
            if abs(algebra.structure_constant(lam, mu)) != p + 1:
                raise IdentityViolation(f"|N({lam},{mu})| != p+1")
            count += 1
    return count


def _check_jacobi_small():
    for fam, rank in [("A", 2), ("B", 2), ("G2", 2)]:
        alg = build_algebra(root_system(fam, rank))
        alg.check_jacobi_exhaustive()
        check_constant_magnitudes(alg)
    # the i-copies of the bracket rows, which no split algebra reads
    build_algebra(root_system("G2", 2), GAUSSIAN).check_jacobi_exhaustive()


def _check_jacobi_f4():
    alg = build_algebra(root_system("F4", 4))
    alg.check_jacobi_exhaustive()
    check_constant_magnitudes(alg)


def _check_theta_isometry():
    for scalars in (RATIONAL, GAUSSIAN):
        alg = build_algebra(root_system("G2", 2), scalars)
        basis = [alg.unit(k) for k in range(alg.dim)]
        images = [alg.theta(x) for x in basis]
        # the messages render elements, so they are built only on a failure
        for x, theta_x in zip(basis, images):
            if alg.theta(theta_x) != x:
                raise CheckFailed(f"theta is not an involution on {x}")
            for y, theta_y in zip(basis, images):
                if alg.killing(theta_x, theta_y) != alg.killing(x, y):
                    raise CheckFailed(f"theta is not a Killing isometry on {x}, {y}")
                # the rows of the two forms, the ih Cartan blocks included, agree
                if alg.b_theta(x, y) != -alg.killing(x, theta_y):
                    raise CheckFailed(f"b_theta != -B(., theta .) on {x}, {y}")


def _theta_bracket_identity(algebra: ChevalleyAlgebra, lam: Root, x: dict, y: dict = None) -> None:
    """``check_theta_bracket_identity`` on term dicts; ints in, ints throughout."""
    space = set(algebra.root_indices([lam]))
    for terms in (x,) + ((y,) if y is not None else ()):
        if not terms.keys() <= space:
            raise ValueError(f"vector has a component off the root space of {lam}")
    rs = algebra.rs
    bracket, b_theta = algebra.bracket_terms, algebra.b_theta_terms
    theta_x = algebra.theta_terms(x)
    lhs = bracket(theta_x, x)
    # in the real Cartan span, and b_theta-paired with each h_i as |X|^2 H_lam
    # is; b_theta is positive definite there, so this pins lhs down
    norm = b_theta(x, x)
    if any(v and k >= rs.rank for k, v in lhs.items()) or any(
        b_theta({i: 1}, lhs) != norm * rs.pairing(lam, a) for i, a in enumerate(rs.simples)
    ):
        raise IdentityViolation(f"[theta X, X] != |X|^2 H for X in g_{lam}")
    if y is not None:
        if b_theta(x, y) != 0:
            raise ValueError("X and Y must be b_theta-orthogonal")
        # k_0, the centraliser of the flat in k, is the i*h_i span
        d = algebra.split_dim
        if any(v and not d <= k < d + rs.rank for k, v in bracket(theta_x, y).items()):
            raise IdentityViolation(f"[theta X, Y] escapes k_0 for X, Y in g_{lam}")


def check_theta_bracket_identity(
    algebra: ChevalleyAlgebra, lam: Root, x: AlgebraElement, y: AlgebraElement = None
) -> None:
    """Verify [theta X, X] = b_theta(X, X) * H_lam for X in the root space of lam,
    and, given Y there b_theta-orthogonal to X, that [theta X, Y] lands in the
    k_0 part.  Raises IdentityViolation on failure.
    """
    _theta_bracket_identity(algebra, lam, x.terms, None if y is None else y.terms)


def check_string_injectivity(algebra: ChevalleyAlgebra, alpha: Root, beta: Root, k: int) -> None:
    """Exact check that ad(X)^k : g_alpha -> g_(alpha+k*beta) is injective
    for every real basis vector X of g_beta.  Raises InjectivityViolation on failure.

    Both root spaces have one real dimension per copy of the split basis, so
    the matrix of ad(X)^k between them is a 1 x 1 or 2 x 2 int matrix, and
    it is injective iff its determinant is nonzero.
    """
    rs = algebra.rs
    string = rs.root_string(alpha, beta)
    if k < 1 or k >= len(string):
        raise ValueError(f"power {k} outside the string through {alpha}")
    target = string[k]
    target_keys = algebra.root_indices([target])
    bracket = algebra.bracket_terms
    source = algebra.root_indices([alpha])
    for x in algebra.root_indices([beta]):
        images = []
        for s in source:
            img = {s: 1}
            for _ in range(k):
                img = bracket({x: 1}, img)
            if any(v and t not in target_keys for t, v in img.items()):
                raise ValueError(f"element is not contained in the root space of {target}")
            images.append([img.get(t, 0) for t in target_keys])
        if len(images) == 1:
            det = images[0][0]
        else:
            (a, b), (c, d) = images
            det = a * d - b * c
        if not det:
            rk = int(any(v for column in images for v in column))
            raise InjectivityViolation(f"ad(X)^{k} on g_{alpha} has rank {rk} < {len(source)}")


def check_root_space_identities(algebra: ChevalleyAlgebra) -> None:
    """Both identities above on every root space: IdentityViolation or InjectivityViolation on a failure.

    The theta-bracket identity takes X = e_lam over Q.  Over Q(i) it takes
    X = e_lam + 2i e_lam and the b_theta-orthogonal Y = -2 e_lam + i e_lam:
    the i h terms of [theta X, X] cancel only where the bracket rows of the
    i-copies agree.  String injectivity takes every power k of every
    beta-string through alpha, for all roots alpha and beta != +-alpha.
    Everything runs on int term dicts: no element is built.
    """
    rs = algebra.rs
    for lam in algebra.roots:
        keys = algebra.root_indices([lam])
        y = dict(zip(keys, (-2, 1))) if len(keys) == 2 else None
        _theta_bracket_identity(algebra, lam, dict(zip(keys, (1, 2))), y)
    for alpha in algebra.roots:
        for beta in algebra.roots:
            if beta.coeffs != alpha.coeffs and beta.coeffs != (-alpha).coeffs:
                for k in range(1, len(rs.root_string(alpha, beta))):
                    check_string_injectivity(algebra, alpha, beta, k)


def _check_root_space_identities():
    for scalars in (RATIONAL, GAUSSIAN):
        check_root_space_identities(build_algebra(root_system("G2", 2), scalars))


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


def check_w_zero_geometry(space: SpaceEntry, verdicts: list) -> None:
    """IdentityViolation unless each w = 0 orbit is totally geodesic exactly where its snake verdict says.

    Every status in SNAKE_STATUSES but SURVIVES_W_ZERO_G2 says it is, or would
    be.  The orbits of all `verdicts` are computed in one ``space_model(space)``:
    C1AtlasError unless the space is split or complexified, and ValueError,
    before the build, for a verdict of another space or without a snake.
    """
    for verdict in verdicts:
        if verdict.space != space.name or verdict.status not in nilcon.SNAKE_STATUSES:
            raise ValueError(f"no w = 0 orbit to check for {verdict.space}, j={verdict.j}: {verdict.status}")
    model = shapeops.space_model(space)
    for verdict in verdicts:
        geodesic = is_totally_geodesic(OrbitSubalgebra(model, verdict.j))
        if geodesic == (verdict.status == nilcon.SURVIVES_W_ZERO_G2):
            raise IdentityViolation(f"{space.name}, j={verdict.j}: {verdict.status}, but geodesic={geodesic}")


def _check_snake_geometry():
    checked = Counter()  # snake verdicts of the spaces with a model, G2 over both rings included
    for space in default_catalog():
        if not (space.split_flag or space.complexified_flag):
            continue
        verdicts = [nilcon.analyze(space, j) for j in range(1, space.rank + 1)]
        snakes = [v for v in verdicts if v.status in nilcon.SNAKE_STATUSES]
        if snakes:  # builds the space's model once; none for a space without a snake
            check_w_zero_geometry(space, snakes)
            checked.update(v.status for v in snakes)
    expected = {"ELIMINATED_MULTIPLICITY": 22, "W_ZERO_TOTALLY_GEODESIC": 2, "SURVIVES_W_ZERO_G2": 2}
    _require(checked == expected, f"checked snake verdicts {dict(checked)}, not {expected}")


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
    ("Jacobi identity and |N| = p+1 for A2, B2, G2; Jacobi for G2 over Q(i)", _check_jacobi_small),
    ("the Cartan involution is a Killing isometry and b_theta = -B(., theta .)", _check_theta_isometry),
    ("[theta X, X] = |X|^2 H_lam and ad(X)^k is injective on root strings, G2 over Q and Q(i)",
     _check_root_space_identities),
    ("shape operators match the Koszul derivative and are self-adjoint", _check_shape_consistency),
    ("snake verdicts match the total geodesy of their w = 0 orbits", _check_snake_geometry),
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
