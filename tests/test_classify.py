from __future__ import annotations

import io
import json
from itertools import permutations
from pathlib import Path

import pytest

from c1atlas.catalog import RankOneType, find_space
from c1atlas.classify import (
    CH_FORMULA,
    OH2_FORMULA,
    _connected_subsets,
    classify,
    derive_type_e_spaces,
    load_tg_table,
    moduli,
)
from c1atlas.errors import InvalidRank, ParseError, RHHasNoNCModuli
from c1atlas.rootsys import MAX_RANK, root_system

TG_SAMPLE = Path(__file__).parent / "data" / "tg_table_sample.json"
# Recorded action catalogs of products that reach every symmetry branch: a
# factor swap, D4 triality, identical factors split by another one, the E6
# flip on two factors, and pairs inside one factor next to pairs across two.
PRODUCTS = json.loads(
    (Path(__file__).parent / "data" / "classify_products.json").read_text(encoding="utf-8")
)


def test_moduli_ch_descriptor():
    desc = moduli(RankOneType("CH", 5))  # parameter n = 4
    assert desc.kind == "CH_EXPLICIT"
    assert desc.formula == CH_FORMULA == "(0,π/2) × {2,4,…,2⌊n/2⌋} ⊔ {π/2} × {2,…,n}"
    assert desc.data == {"n": 4, "interval_dims": [2, 4], "right_angle_dims": [2, 3, 4]}
    assert not desc.is_empty


def test_moduli_ch2_is_empty():
    desc = moduli(RankOneType("CH", 2))
    assert desc.is_empty
    assert desc.data == {"n": 1, "interval_dims": [], "right_angle_dims": []}


def test_moduli_oh2_descriptor():
    desc = moduli(RankOneType("OH2", 2))
    assert desc.formula == OH2_FORMULA == "{2,3,6,7} ⊔ [0,1] × {4}"
    assert desc.data["points"] == [2, 3, 6, 7]


def test_moduli_hh_symbolic():
    desc = moduli(RankOneType("HH", 3))
    assert desc.kind == "HH_SYMBOLIC"
    assert "symbolic" in desc.formula


def test_moduli_rh_raises():
    with pytest.raises(RHHasNoNCModuli):
        moduli(RankOneType("RH", 4))


def test_derive_type_e_matches_expected_ambient_list(catalog):
    got = {(sp.name, str(rec)) for sp, phi, rec in derive_type_e_spaces(catalog)}
    assert got == {
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


def test_no_oh2_boundary_in_higher_rank(catalog):
    for sp, phi, rec in derive_type_e_spaces(catalog):
        if rec.kind == "OH2":
            assert sp.rank == 1


def test_ch2_boundaries_are_dropped(catalog):
    names = {sp.name for sp, phi, rec in derive_type_e_spaces(catalog)}
    assert "SU(2,3)/S(U(2)U(3))" not in names
    assert "CH^2" not in names


def test_classify_sl3(catalog):
    ac = classify([find_space(catalog, "SL(3,R)/SO(3)")])
    assert len(ac.by_kind("HOROSPHERICAL")) == 1
    assert ac.by_kind("HOROSPHERICAL")[0].parameters["parameter_dimension"] == 1
    solvable = ac.by_kind("SOLVABLE")
    assert len(solvable) == 1 and solvable[0].parameters["orbit_size"] == 2
    assert len(ac.by_kind("CE_TOTALLY_GEODESIC")) == 2  # {a1}~{a2} and the whole diagram
    assert ac.by_kind("CE_DIAGONAL") == []
    assert ac.by_kind("NILPOTENT") == []


def test_classify_g2_has_the_new_subgroup(catalog):
    for name in ("G2^2/SO(4)", "G2(C)/G2"):
        ac = classify([find_space(catalog, name)])
        nil = ac.by_kind("NILPOTENT")
        assert len(nil) == 1
        assert nil[0].parameters["subgroup"] == "H_{2,0}"
        assert nil[0].parameters["moduli"]["formula"] == "{H_{2,0}}"


def test_classify_sl4_diagonal_pair(catalog):
    ac = classify([find_space(catalog, "SL(4,R)/SO(4)")])
    pairs = [f.parameters["pair"] for f in ac.by_kind("CE_DIAGONAL")]
    assert pairs == [[[0, 1], [0, 3]]]
    assert ac.by_kind("CE_DIAGONAL")[0].parameters["boundary"] == "RH^2 x RH^2"


def test_classify_b3_has_no_diagonal_pair(catalog):
    ac = classify([find_space(catalog, "SO(3,4)/SO(3)SO(4)")])
    assert ac.by_kind("CE_DIAGONAL") == []


def test_diagonal_pairs_need_isometric_non_adjacent_nodes(catalog):
    # BC3: RH^5 at a1 and a2, which are adjacent, and CH^3 at a3
    sp = find_space(catalog, "SO(7,H)/U(7)")
    assert [sp.rank_one(i) for i in (1, 2, 3)] == [RankOneType("RH", 5)] * 2 + [RankOneType("CH", 3)]
    assert classify([sp]).by_kind("CE_DIAGONAL") == []


def test_classify_product_of_identical_rank_one_spaces(catalog):
    ch3 = find_space(catalog, "CH^3")
    ac = classify([ch3, ch3])
    diag = ac.by_kind("CE_DIAGONAL")
    assert [f.parameters["pair"] for f in diag] == [[[0, 1], [1, 1]]]
    assert len(ac.by_kind("SOLVABLE")) == 1  # the factor swap identifies the two roots
    nil = ac.by_kind("NILPOTENT")
    # the swap identifies the CH^3 moduli families of the two factors too
    assert [(f.parameters["factor"], f.parameters["phi"]) for f in nil] == [(0, [1])]
    assert all(f.parameters["other_factors"] == "full isometry group" for f in nil)


def test_classify_mixed_product_has_no_diagonal(catalog):
    ac = classify([find_space(catalog, "CH^3"), find_space(catalog, "OH^2")])
    assert ac.by_kind("CE_DIAGONAL") == []
    assert len(ac.by_kind("SOLVABLE")) == 2


def test_classify_stable_under_factor_permutation(catalog):
    a, b = find_space(catalog, "CH^3"), find_space(catalog, "OH^2")
    first, second = classify([a, b]), classify([b, a])
    def counts(ac):
        return {k: len(ac.by_kind(k)) for k in
                ("HOROSPHERICAL", "SOLVABLE", "CE_TOTALLY_GEODESIC", "CE_DIAGONAL", "NILPOTENT")}
    assert counts(first) == counts(second)


def test_classify_tg_placeholder_and_table(catalog):
    rh2 = find_space(catalog, "RH^2")
    without = classify([rh2])
    (fam,) = without.by_kind("CE_TOTALLY_GEODESIC")
    assert fam.parameters["actions"] == "TG(B_phi): requires external table"
    assert fam.parameters["whole_space"] is True
    table = load_tg_table(TG_SAMPLE)
    with_table = classify([rh2], table)
    (fam,) = with_table.by_kind("CE_TOTALLY_GEODESIC")
    assert isinstance(fam.parameters["actions"], list)
    assert {a["label"] for a in fam.parameters["actions"]} == {"point", "geodesic"}


def test_tg_table_rejects_malformed_input():
    with pytest.raises(ParseError):
        load_tg_table({"not_actions": {}})
    for actions in ("RH^2", ["RH^2"], None):
        with pytest.raises(ParseError, match="'actions' object"):
            load_tg_table({"actions": actions})
    with pytest.raises(ParseError, match="^invalid JSON in table: "):
        load_tg_table(io.StringIO("not json"))


@pytest.mark.parametrize("value", [5, "point", {"label": "point"}, [{"label": "point"}, "geodesic"]])
def test_tg_table_values_are_lists_of_action_objects(value):
    with pytest.raises(ParseError, match="list of action objects"):
        load_tg_table({"actions": {"RH^2": value}})


def test_classify_empty_input_rejected():
    with pytest.raises(ValueError):
        classify([])


def test_action_catalog_serialises(catalog):
    ac = classify([find_space(catalog, "E6^{-14}")])
    payload = ac.to_json()
    assert json.loads(json.dumps(payload, ensure_ascii=False)) == payload
    nil = [f for f in payload["families"] if f["kind"] == "NILPOTENT"]
    assert nil[0]["parameters"]["boundary"] == "CH^5"
    text = ac.text()
    assert "NILPOTENT" in text and "HOROSPHERICAL" in text


def test_classify_solvable_counts_follow_diagram_symmetry(catalog):
    # A3 has the flip: 3 simple roots fall into 2 orbits
    ac = classify([find_space(catalog, "SL(4,R)/SO(4)")])
    assert len(ac.by_kind("SOLVABLE")) == 2
    # B-type diagrams are rigid: one family per simple root
    ac = classify([find_space(catalog, "SO(3,4)/SO(3)SO(4)")])
    assert len(ac.by_kind("SOLVABLE")) == 3


def test_diagonal_pair_orbits_match_independent_enumeration():
    # split A7 under the diagram flip: pair orbits computed two ways
    from itertools import combinations

    from c1atlas.catalog import load_catalog

    entry = {
        "name": "SL(8,R)/SO(8)", "family": "A", "rank": 7,
        "mults": {"2": 1}, "dim": 35, "split": True,
    }
    ac = classify(load_catalog([entry]))
    emitted = {tuple(map(tuple, f.parameters["pair"])) for f in ac.by_kind("CE_DIAGONAL")}
    orbits = set()
    for i, k in combinations(range(1, 8), 2):
        if abs(i - k) == 1:
            continue
        orbits.add(frozenset({frozenset({i, k}), frozenset({8 - i, 8 - k})}))
    assert len(emitted) == len(orbits) == 9


PRODUCT_IDS = ["ch3-ch3", "d4-d4", "a3-ch3-a3", "e6-e6", "rh2-rh2-d5"]


@pytest.mark.parametrize("expected", PRODUCTS, ids=PRODUCT_IDS)
def test_product_catalogs_match_recorded_output(catalog, expected):
    factors = [find_space(catalog, name) for name in expected["spaces"]]
    assert classify(factors).to_json() == expected


def _up_to_factor_labels(ac) -> list:
    # each factor index replaced by its space's name, a diagonal pair sorted,
    # and the families as a sorted list: identical factors are interchangeable
    names = ac.spaces
    out = []
    for family in ac.to_json()["families"]:
        params = dict(family["parameters"])
        if "factor" in params:
            params["factor"] = names[params["factor"]]
        if "pair" in params:
            params["pair"] = sorted([names[f], i] for f, i in params["pair"])
        out.append(json.dumps({**family, "parameters": params}, sort_keys=True))
    return sorted(out)


@pytest.mark.parametrize("expected", PRODUCTS, ids=PRODUCT_IDS)
def test_product_catalogs_do_not_depend_on_the_factor_order(catalog, expected):
    factors = [find_space(catalog, name) for name in expected["spaces"]]
    reference = _up_to_factor_labels(classify(factors))
    for order in set(permutations(factors)):
        assert _up_to_factor_labels(classify(list(order))) == reference, [s.name for s in order]


@pytest.mark.parametrize("k", [2, 3])
def test_identical_copies_list_each_totally_geodesic_family_once(catalog, k):
    # the copies' boundary components are one orbit under the factor
    # permutations: one family, orbit_size k times the single-space value
    for space in catalog if k == 2 else [find_space(catalog, n) for n in ("CH^3", "SL(4,R)/SO(4)", "SO(4,4)/SO(4)SO(4)")]:
        single = classify([space]).by_kind("CE_TOTALLY_GEODESIC")
        expected = [
            {**f.parameters, "orbit_size": k * f.parameters["orbit_size"], "whole_space": False} for f in single
        ]
        product = classify([space] * k).by_kind("CE_TOTALLY_GEODESIC")
        assert [f.parameters for f in product] == expected, space.name


def _connected_by_mask(rs) -> set:
    """The connected node sets by the mask walk: every nonempty node mask whose subdiagram is one component."""
    subsets = (frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1) for mask in range(1, 1 << rs.rank))
    return {phi for phi in subsets if len(rs.components(phi)) == 1}


UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("BC", r) for r in range(1, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


@pytest.mark.parametrize("family,rank", UP_TO_RANK_8, ids=lambda v: str(v))
def test_connected_subsets_match_the_mask_walk(family, rank):
    rs = root_system(family, rank)
    assert _connected_subsets(rs) == _connected_by_mask(rs)


def test_connected_subsets_of_a_chain_are_its_intervals():
    for r in range(1, MAX_RANK + 1):
        assert len(_connected_subsets(root_system("A", r))) == r * (r + 1) // 2


def test_a_product_above_the_rank_cap_is_refused(catalog):
    e8 = find_space(catalog, "E8^8/SO(16)")
    assert classify([e8, e8]).spaces == (e8.name, e8.name)  # rank 16
    with pytest.raises(InvalidRank, match="rank 24, above the cap of 20"):
        classify([e8] * 3)
