"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (Fraction arithmetic, set equality); the timing budgets
are asserted as stated.  The invariant battery of ``c1atlas verify`` runs
here check by check, with the exhaustive F4 sweep the slowest of them; the
numbered criteria hold only the assertions that battery lacks.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from c1atlas import nilcon
from c1atlas.catalog import default_catalog, find_space
from c1atlas.chevalley import build_algebra
from c1atlas.classify import CH_FORMULA, OH2_FORMULA, classify
from c1atlas.cli import main
from c1atlas.rootsys import Root, root_system
from c1atlas.shapeops import OrbitSubalgebra, SolvableModel, shape_operator
from c1atlas.verify import CHECKS, FULL_CHECKS

from dense_refs import an_inner, cpc_charpoly_constancy

REGISTRY = CHECKS + FULL_CHECKS
# seconds per registry check, by its short name; 5 s for the others
REGISTRY_BUDGETS = {"catalog_and_sweep": 10.0}


def _short_name(check):
    return check.__name__.removeprefix("_check_")


class _Budget:
    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.number} ({self.label}): PASS in {elapsed:.2f}s")
            assert elapsed < self.seconds, f"criterion {self.number} over budget: {elapsed:.2f}s"
        else:
            print(f"\nACCEPTANCE {self.number} ({self.label}): FAIL after {elapsed:.2f}s")
        return False


def test_acceptance_1_figure_oracles():
    with _Budget(1, "level-one figures", 1.0):
        f4 = root_system("F4", 4)
        assert len(f4.maximal_grading(1).level(1)) == 14
        assert len(f4.maximal_grading(4).level(1)) == 8
        c5 = root_system("C", 5)
        assert len(c5.maximal_grading(1).level(1)) == 8
        assert len(c5.maximal_grading(5).level(1)) == 15
        chain = [
            (0, 0, 0, 0, 1),
            (0, 0, 0, 1, 1),
            (0, 0, 1, 1, 1),
            (0, 1, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]
        b5 = root_system("B", 5)
        assert len(b5.maximal_grading(1).level(1)) == 9
        assert [r.coeffs for r in b5.maximal_grading(5).level(1)] == chain
        bc5 = root_system("BC", 5)
        assert [r.coeffs for r in bc5.maximal_grading(5).level(1)] == chain


def test_acceptance_2_elimination_regression():
    with _Budget(2, "elimination sweep", 10.0):
        catalog = default_catalog()
        verdicts = nilcon.analyze_all(e for e in catalog if e.rank >= 2)
        by_key = {(v.space, v.j): v for v in verdicts}

        def pair(name, j):
            return {tuple(c) for c in by_key[(name, j)].witness["pair"]}

        # D/E/F collisions: the exact root pairs at the forks and double bonds
        assert pair("F4^4/Sp(3)Sp(1)", 1) == {(1, 1, 2, 0), (1, 1, 1, 1)}
        assert pair("F4^4/Sp(3)Sp(1)", 4) == {(0, 1, 2, 1), (1, 1, 1, 1)}
        assert pair("SO(5,5)/SO(5)SO(5)", 1) == {(1, 1, 1, 1, 0), (1, 1, 1, 0, 1)}
        assert pair("E6^6/Sp(4)", 1) == {(1, 1, 1, 1, 0, 0), (1, 0, 1, 1, 1, 0)}
        # C_r at the long end: the height-3 pair
        assert pair("Sp(5,R)/U(5)", 5) == {(0, 0, 0, 2, 1), (0, 0, 1, 1, 1)}
        assert by_key[("Sp(5,R)/U(5)", 5)].status == nilcon.ELIMINATED_HEIGHT_COLLISION

        # multiplicity eliminations for A_r and the long B/BC end
        for name, j in [
            ("SL(3,R)/SO(3)", 1),
            ("SL(3,R)/SO(3)", 2),
            ("SL(5,R)/SO(5)", 1),
            ("E6^{-26}/F4", 2),
            ("SO(5,6)/SO(5)SO(6)", 1),
            ("SU(2,4)/S(U(2)U(4))", 1),
            ("E6^{-14}/Spin(10)U(1)", 1),
        ]:
            assert by_key[(name, j)].status == nilcon.ELIMINATED_MULTIPLICITY, (name, j)
        assert by_key[("SO(5,6)/SO(5)SO(6)", 1)].witness["index"] == 5

        # shape-theorem verdicts at the short B/BC end when multiplicities pass
        for name, j in [
            ("SO(2,5)/SO(2)SO(5)", 2),
            ("SO(3,6)/SO(3)SO(6)", 3),
            ("SU(2,2)/S(U(2)U(2))", 2),
            ("SU(2,4)/S(U(2)U(4))", 2),
            ("SU(2,5)/S(U(2)U(5))", 2),
            ("SU(3,5)/S(U(3)U(5))", 3),
            ("Sp(2,4)/Sp(2)Sp(4)", 2),
        ]:
            assert by_key[(name, j)].status == nilcon.ELIMINATED_SHAPE_THEOREM, (name, j)

        for v in verdicts:
            if v.status == nilcon.SURVIVES_W_ZERO_G2:
                assert v.witness["w"] == "zero"


def test_acceptance_3_chevalley_soundness():
    with _Budget(3, "Chevalley soundness", 60.0):
        for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G2", 2), ("F4", 4)]:
            alg = build_algebra(root_system(family, rank))
            basis = [alg.h(i) for i in range(1, rank + 1)]
            basis += [alg.e(lam) for lam in alg.roots]
            for x in basis:
                assert alg.theta(alg.theta(x)) == x
                for y in basis:
                    assert alg.killing(alg.theta(x), alg.theta(y)) == alg.killing(x, y)


def test_acceptance_6_cpc_spot_check():
    with _Budget(6, "constant principal curvatures", 5.0):
        alg = build_algebra(root_system("G2", 2))
        model = SolvableModel(alg)
        orbit = OrbitSubalgebra(model, 2)
        xi1 = alg.e(Root((0, 1)))
        xi2 = alg.element(
            {("e", Root((0, 1))): Fraction(3, 5), ("e", Root((1, 1))): Fraction(4, 5)}
        )
        assert an_inner(model, xi1, xi1) == an_inner(model, xi2, xi2)
        poly = cpc_charpoly_constancy(orbit, [xi1, xi2])
        assert poly == shape_operator(orbit, xi1).charpoly()


def test_acceptance_7_classification_assembly():
    with _Budget(7, "classification assembly", 5.0):
        catalog = default_catalog()
        cases = {
            # name -> (boundary label, moduli kind)
            "CH^3": ("CH^3", "CH_EXPLICIT"),
            "CH^4": ("CH^4", "CH_EXPLICIT"),
            "SU(2,4)/S(U(2)U(4))": ("CH^3", "CH_EXPLICIT"),
            "SU(2,5)/S(U(2)U(5))": ("CH^4", "CH_EXPLICIT"),
            "SO(5,H)/U(5)": ("CH^3", "CH_EXPLICIT"),
            "E6^{-14}/Spin(10)U(1)": ("CH^5", "CH_EXPLICIT"),
            "HH^2": ("HH^2", "HH_SYMBOLIC"),
            "OH^2": ("OH^2", "OH2_EXPLICIT"),
        }
        for name, (boundary, kind) in cases.items():
            ac = classify([find_space(catalog, name)])
            nil = ac.by_kind("NILPOTENT")
            assert len(nil) == 1, name
            params = nil[0].parameters
            assert params["boundary"] == boundary
            moduli = params["moduli"]
            assert moduli["kind"] == kind
            if kind == "CH_EXPLICIT":
                assert moduli["formula"] == CH_FORMULA
                assert moduli["formula"] == "(0,π/2) × {2,4,…,2⌊n/2⌋} ⊔ {π/2} × {2,…,n}"
            if kind == "OH2_EXPLICIT":
                assert moduli["formula"] == OH2_FORMULA == "{2,3,6,7} ⊔ [0,1] × {4}"
            if kind == "HH_SYMBOLIC":
                assert "symbolic" in moduli["formula"]
        for name in ("G2^2/SO(4)", "G2(C)/G2"):
            (nil,) = classify([find_space(catalog, name)]).by_kind("NILPOTENT")
            assert nil.parameters["moduli"]["formula"] == "{H_{2,0}}"


def test_acceptance_8_shape_on_e6(capsys):
    # 16 zero shape operators on a 26-dimensional orbit; an O(n^4) charpoly
    # kernel needs about 30 s here
    with _Budget(8, "shape on E6^6/Sp(4), j = 1", 10.0):
        code = main(["shape", "--space", "E6^6/Sp(4)", "--j", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["totally_geodesic"] is True
        ops = payload["operators"]
        assert len(ops) == 16
        for op in ops:
            assert op["charpoly"] == ["1"] + ["0"] * len(op["matrix"])


def test_acceptance_9_e8_algebra_build():
    # 248-dimensional; with Fraction root pairings the build took about 3.8 s
    with _Budget(9, "E8 Chevalley build", 3.0):
        alg = build_algebra(root_system("E8", 8))
        assert alg.dim == 248


@pytest.mark.parametrize("name, check", REGISTRY, ids=[_short_name(c) for _, c in REGISTRY])
def test_registry_check(name, check):
    short = _short_name(check)
    with _Budget(short, name, REGISTRY_BUDGETS.get(short, 5.0)):
        check()
