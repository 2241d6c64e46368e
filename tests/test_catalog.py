from __future__ import annotations

import io
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from c1atlas.catalog import (
    RankOneType,
    boundary_component,
    default_catalog,
    find_space,
    load_catalog,
    rank_one_recognize,
)
from c1atlas.errors import DimensionMismatch, InvalidIndex, NotARoot, ParseError, UnknownSpace
from c1atlas import rootsys
from c1atlas.rootsys import Root, RootSystem, RootSystemType

from dense_refs import solve


def test_every_entry_satisfies_dim_identity(catalog):
    for entry in catalog:
        rs = entry.root_system()
        total = entry.rank + sum(entry.mult_of(lam) for lam in rs.positives)
        assert total == entry.dim, entry.name


def test_split_and_complexified_flags(catalog):
    for entry in catalog:
        table = dict(entry.mult)
        if entry.split_flag:
            assert set(table.values()) == {1}
        if entry.complexified_flag:
            assert set(table.values()) == {2}
            assert not entry.root_system().non_reduced


def test_dimension_mismatch_rejected():
    bad = {"name": "bogus", "family": "A", "rank": 2, "mults": {"2": 1}, "dim": 6}
    with pytest.raises(DimensionMismatch):
        load_catalog([bad])


def test_wrong_class_keys_rejected():
    bad = {"name": "bogus", "family": "B", "rank": 2, "mults": {"2": 1}, "dim": 4}
    with pytest.raises(ParseError):
        load_catalog([bad])


@pytest.mark.parametrize(
    "entry,error,message",
    [
        ({"family": "BC", "rank": 2, "mults": {"1": 2, "2": 2, "4": 2}, "dim": 14, "complexified": True},
         ParseError, "reduced system"),
        ({"family": "A", "rank": 2, "mults": {"2": 1}, "dim": 5, "complexified": True}, ParseError, "all multiplicities 2"),
        ({"family": "A", "rank": 2, "mults": {"2": 0}, "dim": 2}, ParseError, "at least 1"),
        # BC1 has no roots of squared length 2, so that class is foreign to it
        ({"family": "BC", "rank": 1, "mults": {"1": 2, "2": 1, "4": 1}, "dim": 4}, ParseError, "do not match"),
        ({"family": "C", "rank": 17, "mults": {"1": 1, "2": 1}, "dim": 17 + 17 * 16}, DimensionMismatch, "dim"),
    ],
    ids=["complexified-bc", "complexified-mult", "mult-zero", "bc1-class-keys", "c17-dim"],
)
def test_validation_rejects_without_building_a_root_system(entry, error, message):
    before = set(rootsys._CACHE)
    with pytest.raises(error, match=message):
        load_catalog([{"name": "bogus", **entry}])
    assert set(rootsys._CACHE) == before


def test_validation_accepts_a_type_it_never_builds():
    before = set(rootsys._CACHE)
    entry = {"name": "x", "family": "C", "rank": 17, "mults": {"1": 1, "2": 1}, "dim": 17 + 17 * 16 + 17}
    (space,) = load_catalog([entry])
    assert space.dim == 17 * 18 and set(rootsys._CACHE) == before


def test_split_flag_contradiction_rejected():
    bad = {"name": "bogus", "family": "A", "rank": 2, "mults": {"2": 2}, "dim": 8, "split": True}
    with pytest.raises(ParseError):
        load_catalog([bad])


def test_load_catalog_from_stream_and_duplicates():
    entry = {"name": "x", "family": "A", "rank": 1, "mults": {"2": 1}, "dim": 2}
    stream = io.StringIO(json.dumps({"schema_version": 1, "spaces": [entry]}))
    loaded = load_catalog(stream)
    assert loaded[0].name == "x"
    with pytest.raises(ParseError):
        load_catalog([entry, entry])
    with pytest.raises(ParseError, match="^invalid JSON: "):
        load_catalog(io.StringIO("not json"))


_GOOD = {"name": "x", "family": "A", "rank": 1, "mults": {"2": 1}, "dim": 2}


def test_length_keys_are_integers_fractions_or_decimals():
    b2 = {"name": "x", "family": "B", "rank": 2, "dim": 6}
    for mults in ({"1": 1, "2": 1}, {"1.0": 1, "4/2": 1}, {"01": 1, "2/01": 1}):
        assert load_catalog([{**b2, "mults": mults}])[0].mult == ((1, 1), (2, 1))
    for key in ("2 ", "+2", "-2", "2/0", "2/-1", ".5", "2e0", "\u0662"):
        with pytest.raises(ParseError, match="is not n, n/d with d > 0, or a decimal"):
            load_catalog([{**b2, "mults": {"1": 1, key: 1}}])


@pytest.mark.parametrize(
    "change",
    [
        {"rank": True},
        {"rank": 1.0},
        {"rank": "1"},
        {"dim": 2.0},
        {"dim": "2"},
        {"mults": {"2": 1.0}},
        {"mults": {"2": True}},
        {"mults": {"2": "1"}},
        {"mults": {"2": 1.7}, "dim": 2},
        {"mults": {"2": 0}, "dim": 1},
        {"mults": {"2": -1}, "dim": 0},
        {"mults": [["2", 1]]},
        {"split": "no"},
        {"split": 1},
        {"complexified": "yes", "mults": {"2": 2}, "dim": 3},
        {"complexified": None},
        {"aliases": "SL"},  # would load as the aliases "S" and "L"
        {"aliases": ["SL", 2]},
        {"aliases": {"SL": 1}},
        {"name": 5},
        {"name": ["x"]},
    ],
)
def test_catalog_entry_types_are_checked(change):
    # JSON integers for rank, dim and multiplicities, at least 1 for each
    # multiplicity, booleans for the flags, a string name and a list of
    # string aliases; anything else is a ParseError
    assert load_catalog([_GOOD])[0].rank == 1
    with pytest.raises(ParseError):
        load_catalog([{**_GOOD, **change}])


def test_rank_one_recognition_table():
    assert rank_one_recognize(1, 0) == RankOneType("RH", 2)
    assert rank_one_recognize(6, 0) == RankOneType("RH", 7)
    assert rank_one_recognize(2, 1) == RankOneType("CH", 2)
    assert rank_one_recognize(8, 1) == RankOneType("CH", 5)
    assert rank_one_recognize(4, 3) == RankOneType("HH", 2)
    assert rank_one_recognize(8, 7) == RankOneType("OH2", 2)
    assert rank_one_recognize(5, 2) is None
    assert rank_one_recognize(3, 1) is None
    assert rank_one_recognize(6, 3) is None
    with pytest.raises(ValueError):
        rank_one_recognize(0, 0)


def test_rank_one_recognition_is_injective():
    seen = {}
    for m1 in range(1, 17):
        for m2 in range(0, 8):
            rec = rank_one_recognize(m1, m2)
            if rec is None:
                continue
            assert rec not in seen, f"{(m1, m2)} collides with {seen[rec]}"
            seen[rec] = (m1, m2)


def test_boundary_component_empty_phi(catalog):
    sp = find_space(catalog, "SL(4,R)/SO(4)")
    comp = boundary_component(sp, frozenset())
    assert comp.factors == ()
    assert comp.flat_rank == 3


@pytest.mark.parametrize("phi", [{0}, {4}, {1, 9}])
def test_boundary_component_rejects_out_of_range_phi(catalog, phi):
    sp = find_space(catalog, "SL(4,R)/SO(4)")
    with pytest.raises(InvalidIndex, match="not a set of simple indices 1..3"):
        boundary_component(sp, phi)


def test_boundary_component_full_phi(catalog):
    sp = find_space(catalog, "SO(5,5)/SO(5)SO(5)")
    comp = boundary_component(sp, frozenset(range(1, 6)))
    assert comp.flat_rank == 0 and comp.is_whole_space
    assert [f.rtype for f in comp.factors] == [RootSystemType("D", 5)]


def test_boundary_component_takes_one_length_per_length_class(monkeypatch, catalog):
    # the multiplicities are keyed by six-fold squared length, so a call
    # makes at most one Fraction length per class, not one per root
    calls = []
    length_sq = RootSystem.length_sq
    monkeypatch.setattr(RootSystem, "length_sq", lambda self, lam: calls.append(lam) or length_sq(self, lam))
    for space in catalog:
        calls.clear()
        comp = boundary_component(space, range(1, space.rank + 1))
        assert len(calls) <= sum(len(factor.mult) for factor in comp.factors), space.name


def test_boundary_quaternionic_grassmannian(catalog):
    sp = find_space(catalog, "Gr*(2,H^5)")
    comp = boundary_component(sp, {2})
    (factor,) = comp.factors
    assert factor.rtype == RootSystemType("BC", 1)
    assert dict(factor.mult) == {Fraction(1): 4, Fraction(4): 3}
    assert factor.rank_one == RankOneType("HH", 2)


def test_boundary_e6_minus14_gives_ch5(catalog):
    sp = find_space(catalog, "E6^{-14}")
    comp = boundary_component(sp, {2})
    (factor,) = comp.factors
    assert factor.rank_one == RankOneType("CH", 5)


def test_boundary_factors_split_disconnected_phi(catalog):
    sp = find_space(catalog, "SO(5,6)/SO(5)SO(6)")
    comp = boundary_component(sp, {1, 2, 4, 5})
    assert [f.rtype for f in comp.factors] == [
        RootSystemType("A", 2),
        RootSystemType("B", 2),
    ]
    assert comp.flat_rank == 1


def test_boundary_subdiagram_families(catalog):
    f4 = find_space(catalog, "F4^4/Sp(3)Sp(1)")
    cases = {
        frozenset({1, 2, 3}): RootSystemType("B", 3),
        frozenset({2, 3, 4}): RootSystemType("C", 3),
        frozenset({2, 3}): RootSystemType("B", 2),
        frozenset({1, 2}): RootSystemType("A", 2),
        frozenset({4}): RootSystemType("A", 1),
    }
    for phi, expected in cases.items():
        assert boundary_component(f4, phi).factors[0].rtype == expected
    c5 = find_space(catalog, "Sp(5,R)/U(5)")
    assert boundary_component(c5, {4, 5}).factors[0].rtype == RootSystemType("B", 2)
    assert boundary_component(c5, {3, 4, 5}).factors[0].rtype == RootSystemType("C", 3)
    assert boundary_component(c5, {5}).factors[0].rtype == RootSystemType("A", 1)
    bc3 = find_space(catalog, "SO(7,H)/U(7)")
    assert boundary_component(bc3, {2, 3}).factors[0].rtype == RootSystemType("BC", 2)
    assert boundary_component(bc3, {1, 2}).factors[0].rtype == RootSystemType("A", 2)


def test_boundary_restriction_is_transitive(catalog):
    # restricting to phi2 directly agrees with restricting inside phi1 first
    sp = find_space(catalog, "SO(5,6)/SO(5)SO(6)")
    phi1, phi2 = frozenset({2, 3, 4, 5}), frozenset({4, 5})
    direct = boundary_component(sp, phi2)
    nested = boundary_component(sp, phi1)
    assert phi2 < phi1
    inner = [f for f in nested.factors if set(f.nodes) >= phi2]
    direct_factor = direct.factors[0]
    assert direct_factor.rtype == RootSystemType("B", 2)
    assert set(direct_factor.mult) <= set(inner[0].mult)


def _trace_form_killing_length_sq(space, lam):
    # B(H, H') = sum over roots of m * mu(H) mu(H') in the coordinates a_i(H);
    # the squared length of lam is its covector's length under the inverse form
    rs = space.root_system()
    r = space.rank
    k = [[Fraction(0)] * r for _ in range(r)]
    for mu in rs.positives:
        m = space.mult_of(mu)
        for a in range(r):
            for b in range(r):
                k[a][b] += 2 * m * mu.coeffs[a] * mu.coeffs[b]
    dual = solve(k, [Fraction(c) for c in lam.coeffs])
    return sum(c * d for c, d in zip(lam.coeffs, dual))


def test_killing_length_closed_form_matches_the_trace_form(catalog):
    checked = 0
    for space in catalog:
        for lam in space.root_system().positives:
            assert space.killing_length_sq(lam) == _trace_form_killing_length_sq(space, lam), (
                space.name, lam)
            checked += 1
    assert checked == 713


def test_rank_one_reads_a_i_and_2a_i(catalog):
    recognised = 0
    for space in catalog:
        rs = space.root_system()
        for i in range(1, space.rank + 1):
            doubled = tuple(2 * n for n in rs.simple(i).coeffs)
            m2 = sum(space.mult_of(lam) for lam in rs.positives if lam.coeffs == doubled)
            expected = rank_one_recognize(space.mult_of(rs.simple(i)), m2)
            assert space.rank_one(i) == expected, (space.name, i)
            recognised += expected is not None
    assert recognised > 0


@pytest.mark.parametrize("i", [0, 3, 5])
def test_rank_one_rejects_an_index_outside_the_diagram(catalog, i):
    space = find_space(catalog, "SL(3,R)/SO(3)")
    with pytest.raises(InvalidIndex, match="outside 1..2"):
        space.rank_one(i)


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (5, 5), (0, 0), (1,)])
def test_mult_of_rejects_non_roots(catalog, coeffs):
    g2 = find_space(catalog, "G2^2/SO(4)")
    assert g2.mult_of(Root((1, 0))) == 1
    with pytest.raises(NotARoot):
        g2.mult_of(Root(coeffs))


def test_mult_of_reads_the_multiplicity_of_the_roots_length_class(catalog, monkeypatch):
    # against the Fraction-keyed table, over every root of every entry; the
    # lookup itself computes no Fraction length
    expected = {}
    for entry in catalog:
        rs = entry.root_system()
        table = dict(entry.mult)
        for lam in rs.positives:
            expected[entry.name, lam] = expected[entry.name, -lam] = table[rs.length_sq(lam)]

    def refuse(*args):
        raise AssertionError("mult_of computed a Fraction length")

    monkeypatch.setattr(rootsys.RootSystem, "length_sq", refuse)
    assert {(name, lam): find_space(catalog, name).mult_of(lam) for name, lam in expected} == expected


def test_killing_scale_is_consistent(catalog):
    # within one space the Killing lengths are proportional to the normalised ones
    sp = find_space(catalog, "SO(3,4)/SO(3)SO(4)")
    rs = sp.root_system()
    k1 = sp.killing_length_sq(rs.simple(1))
    k3 = sp.killing_length_sq(rs.simple(3))
    assert k1 / k3 == rs.length_sq(rs.simple(1)) / rs.length_sq(rs.simple(3))
    assert k1 > 0 and k3 > 0


def test_find_space_by_alias(catalog):
    assert find_space(catalog, "Gr*(2,C^6)").name == "SU(2,4)/S(U(2)U(4))"
    with pytest.raises(UnknownSpace):
        find_space(catalog, "no such space")


def test_expected_catalog_breadth(catalog):
    families = {e.rtype.family for e in catalog}
    assert families == {"A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2"}
    assert any(e.rank == 1 for e in catalog)
    assert sum(1 for e in catalog if e.rank >= 2) >= 30


# The one factor of the boundary component of every connected simple subset of
# every catalog space: its type, nodes and restricted multiplicities.
BOUNDARY_PATH = Path(__file__).parent / "data" / "boundary_factors.json"


def boundary_records(catalog) -> list:
    records = []
    for space in catalog:
        rs = space.root_system()
        for k in range(1, rs.rank + 1):
            for phi in combinations(range(1, rs.rank + 1), k):
                if len(rs.components(phi)) != 1:
                    continue
                (factor,) = boundary_component(space, phi).factors
                records.append({
                    "space": space.name,
                    "nodes": list(factor.nodes),
                    "type": [factor.rtype.family, factor.rtype.rank],
                    "mult": {str(length): m for length, m in factor.mult},
                })
    return records


def test_boundary_factors_match_recording(catalog):
    expected = json.loads(BOUNDARY_PATH.read_text(encoding="utf-8"))
    assert len(expected) == 405
    assert boundary_records(catalog) == expected


if __name__ == "__main__":
    # Re-record the golden file: python tests/test_catalog.py (with src on the path).
    lines = ",\n".join(json.dumps(r) for r in boundary_records(default_catalog()))
    BOUNDARY_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
