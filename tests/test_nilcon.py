from __future__ import annotations

import pytest

from c1atlas import nilcon, shapeops, verify
from c1atlas.catalog import find_space
from c1atlas.nilcon import (
    ELIMINATED_CORNER,
    ELIMINATED_HEIGHT_COLLISION,
    ELIMINATED_MULTIPLICITY,
    ELIMINATED_SHAPE_THEOREM,
    RANK_ONE_KNOWN,
    SURVIVES_W_ZERO_G2,
    W_ZERO_TOTALLY_GEODESIC,
    NOTES,
    NCVerdict,
    Snake,
    analyze,
    analyze_all,
    ce_reduction_check,
    multiplicity_check,
    snake_check,
    survivors,
    verify_witness,
)
from c1atlas.errors import C1AtlasError, IdentityViolation
from c1atlas.rootsys import Root, root_system
from c1atlas.verify import check_w_zero_geometry


def test_corner_check():
    # the corner step of the ladder reads the diagram neighbours of a_j
    assert root_system("A", 4).dynkin_neighbors(2) == frozenset({1, 3})
    assert root_system("F4", 4).dynkin_neighbors(1) == frozenset({2})
    assert root_system("G2", 2).dynkin_neighbors(2) == frozenset({1})
    assert root_system("D", 4).dynkin_neighbors(2) == frozenset({1, 3, 4})


def test_snake_f4_j1_collision_pair():
    result = snake_check(root_system("F4", 4), 1)
    assert isinstance(result, tuple)
    assert {r.coeffs for r in result} == {(1, 1, 2, 0), (1, 1, 1, 1)}


def test_snake_f4_j4_collision_pair():
    result = snake_check(root_system("F4", 4), 4)
    assert {r.coeffs for r in result} == {(0, 1, 2, 1), (1, 1, 1, 1)}


def test_snake_c5_j5_collision_pair():
    result = snake_check(root_system("C", 5), 5)
    assert {r.coeffs for r in result} == {(0, 0, 0, 2, 1), (0, 0, 1, 1, 1)}


def test_snake_d5_and_e6_fork_pairs():
    result = snake_check(root_system("D", 5), 1)
    assert {r.coeffs for r in result} == {(1, 1, 1, 1, 0), (1, 1, 1, 0, 1)}
    result = snake_check(root_system("E6", 6), 1)
    assert {r.coeffs for r in result} == {(1, 1, 1, 1, 0, 0), (1, 0, 1, 1, 1, 0)}


def test_snake_b5_j5_full_chain():
    snake = snake_check(root_system("B", 5), 5)
    assert isinstance(snake, Snake)
    assert len(snake.roots) == 5
    assert [r.coeffs for r in snake.roots] == [
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert snake.top == Root((1, 1, 1, 1, 1))


def test_snake_b5_j1_reaches_height_nine():
    snake = snake_check(root_system("B", 5), 1)
    assert isinstance(snake, Snake) and len(snake.roots) == 9


def test_snake_c5_j1_is_a_chain():
    snake = snake_check(root_system("C", 5), 1)
    assert isinstance(snake, Snake) and len(snake.roots) == 8


def test_ce_reduction_full_chain_passes():
    rs = root_system("B", 5)
    snake = snake_check(rs, 5)
    assert ce_reduction_check(rs, snake) == frozenset()


def test_ce_reduction_partial_chain_passes_for_c5():
    rs = root_system("C", 5)
    full = snake_check(rs, 1)
    partial = Snake(j=1, roots=full.roots[:5])
    assert ce_reduction_check(rs, partial) == frozenset()


def test_ce_reduction_length_one_snake_fails_everywhere():
    rs = root_system("B", 5)
    stub = Snake(j=1, roots=(rs.simple(1),))
    assert ce_reduction_check(rs, stub) == frozenset({2, 3, 4, 5})


def test_multiplicity_check_equal_multiplicities_fail(catalog):
    sl3 = find_space(catalog, "SL(3,R)/SO(3)")
    snake = snake_check(sl3.root_system(), 1)
    assert multiplicity_check(sl3, snake) == 2


def test_multiplicity_check_b5_witness_is_short_root(catalog):
    b5 = find_space(catalog, "SO(5,6)/SO(5)SO(6)")
    snake = snake_check(b5.root_system(), 1)
    assert multiplicity_check(b5, snake) == 5


def test_multiplicity_check_quaternionic_threshold(catalog):
    # (4, 4n, 3): the short-end chain passes exactly when 4n >= 8
    passes = find_space(catalog, "Sp(2,4)/Sp(2)Sp(4)")
    snake = snake_check(passes.root_system(), 2)
    assert multiplicity_check(passes, snake) is None
    fails = find_space(catalog, "Sp(2,3)/Sp(2)Sp(3)")
    snake = snake_check(fails.root_system(), 2)
    assert multiplicity_check(fails, snake) == 1


@pytest.mark.parametrize(
    "name,j,status",
    [
        ("SL(3,R)/SO(3)", 1, ELIMINATED_MULTIPLICITY),
        ("SL(3,R)/SO(3)", 2, ELIMINATED_MULTIPLICITY),
        ("SL(4,R)/SO(4)", 2, ELIMINATED_CORNER),
        ("SL(3,H)/Sp(3)", 1, ELIMINATED_MULTIPLICITY),
        ("E6^{-26}/F4", 1, ELIMINATED_MULTIPLICITY),
        ("SO(5,6)/SO(5)SO(6)", 1, ELIMINATED_MULTIPLICITY),
        ("SO(5,6)/SO(5)SO(6)", 5, ELIMINATED_MULTIPLICITY),
        ("SO(2,5)/SO(2)SO(5)", 2, ELIMINATED_SHAPE_THEOREM),
        ("SO(3,6)/SO(3)SO(6)", 3, ELIMINATED_SHAPE_THEOREM),
        ("SU(2,4)/S(U(2)U(4))", 2, ELIMINATED_SHAPE_THEOREM),
        ("SU(2,3)/S(U(2)U(3))", 2, ELIMINATED_MULTIPLICITY),
        ("Sp(2,3)/Sp(2)Sp(3)", 2, ELIMINATED_MULTIPLICITY),
        ("SO(5,H)/U(5)", 2, ELIMINATED_MULTIPLICITY),
        ("E6^{-14}/Spin(10)U(1)", 2, ELIMINATED_MULTIPLICITY),
        ("Sp(5,R)/U(5)", 1, ELIMINATED_MULTIPLICITY),
        ("Sp(5,R)/U(5)", 5, ELIMINATED_HEIGHT_COLLISION),
        ("F4^4/Sp(3)Sp(1)", 1, ELIMINATED_HEIGHT_COLLISION),
        ("F4^4/Sp(3)Sp(1)", 2, ELIMINATED_CORNER),
        ("SO(5,5)/SO(5)SO(5)", 1, ELIMINATED_HEIGHT_COLLISION),
        ("E6^6/Sp(4)", 1, ELIMINATED_HEIGHT_COLLISION),
        ("E8^8/SO(16)", 8, ELIMINATED_HEIGHT_COLLISION),
        ("G2^2/SO(4)", 1, W_ZERO_TOTALLY_GEODESIC),
        ("G2^2/SO(4)", 2, SURVIVES_W_ZERO_G2),
        ("G2(C)/G2", 2, SURVIVES_W_ZERO_G2),
        ("OH^2", 1, RANK_ONE_KNOWN),
        ("CH^3", 1, RANK_ONE_KNOWN),
    ],
)
def test_analyze_statuses(catalog, name, j, status):
    assert analyze(find_space(catalog, name), j).status == status


def test_analyze_rejects_bad_index(catalog):
    with pytest.raises(ValueError):
        analyze(find_space(catalog, "SL(3,R)/SO(3)"), 5)


def test_sweep_survivor_set_is_exactly_the_g2_pair(catalog):
    verdicts = analyze_all(catalog)
    assert {(v.space, v.j) for v in survivors(verdicts)} == {
        ("G2^2/SO(4)", 2),
        ("G2(C)/G2", 2),
    }


def test_sweep_witnesses_all_verify(catalog):
    for verdict in analyze_all(catalog):
        assert verify_witness(find_space(catalog, verdict.space), verdict)


def _wrong_values(value):
    """Values near a witness field that differ from it."""
    if isinstance(value, int):
        candidates = [value - 1, value + 1]
    elif isinstance(value, list):
        candidates = [value[::-1], value[:-1], value + value[:1]]
    else:
        candidates = [value + "x"]
    return [c for c in candidates if c != value]


def _altered_verdicts(v: NCVerdict):
    """(what changed, verdict) for each one-step alteration of a verdict."""
    w = v.witness
    for key, value in w.items():
        for wrong in _wrong_values(value):
            yield f"{key} = {wrong!r}", NCVerdict(v.space, v.j, v.status, {**w, key: wrong}, v.note)
        dropped = {k: x for k, x in w.items() if k != key}
        yield f"{key} dropped", NCVerdict(v.space, v.j, v.status, dropped, v.note)
    yield "extra key", NCVerdict(v.space, v.j, v.status, {**w, "extra": 0}, v.note)
    for status in NOTES:
        if status != v.status:
            yield f"status {status}", NCVerdict(v.space, v.j, status, w, NOTES[status])
    yield "note edited", NCVerdict(v.space, v.j, v.status, w, v.note + ".")


def test_verify_witness_rejects_every_altered_verdict(catalog):
    # every field of every witness is re-checked, so no one-step alteration of
    # a shipped verdict passes, and a malformed witness gives False, not an error
    altered = 0
    for verdict in analyze_all(catalog):
        space = find_space(catalog, verdict.space)
        for what, wrong in _altered_verdicts(verdict):
            assert verify_witness(space, wrong) is False, (verdict.space, verdict.j, what)
            altered += 1
    assert altered == 2264


def test_collision_witness_pairs_are_distinct_level_one_roots(catalog):
    for verdict in analyze_all(catalog):
        if verdict.status != ELIMINATED_HEIGHT_COLLISION:
            continue
        space = find_space(catalog, verdict.space)
        first, second = (Root(tuple(c)) for c in verdict.witness["pair"])
        assert first != second and first.height == second.height
        assert {first, second} <= set(space.root_system().maximal_grading(verdict.j).level(1))


def test_verdicts_equivariant_under_diagram_symmetries(catalog):
    for space in catalog:
        rs = space.root_system()
        for sigma in rs.weighted_diagram_automorphisms(space.simple_mults()):
            for j in range(1, space.rank + 1):
                assert analyze(space, j).status == analyze(space, sigma[j - 1]).status


def test_shape_theorem_only_at_the_short_bc_end(catalog):
    for verdict in analyze_all(catalog):
        if verdict.status == ELIMINATED_SHAPE_THEOREM:
            space = find_space(catalog, verdict.space)
            assert space.rtype.family in ("B", "BC")
            assert verdict.j == space.rank


def test_verdict_json_and_table_rendering(catalog):
    verdicts = analyze_all(catalog)[:6]
    payload = [v.to_json() for v in verdicts]
    assert all(set(p) == {"space", "j", "status", "witness", "note"} for p in payload)
    table = nilcon.verdict_table(verdicts)
    lines = table.splitlines()
    assert len(lines) == len(verdicts) + 2
    assert lines[0].startswith("space")


def test_snake_validates_heights():
    rs = root_system("B", 5)
    with pytest.raises(ValueError):
        Snake(j=5, roots=(rs.simple(5), Root((1, 1, 1, 1, 1))))


def test_snake_verdicts_match_the_computed_geometry(catalog):
    # every snake-bearing (space, j) of rank >= 2 with an exact model: the
    # w = 0 orbit bends exactly at the G2 survivors
    seen = {}
    for space in catalog:
        if space.rank < 2 or not (space.split_flag or space.complexified_flag):
            continue
        rs = space.root_system()
        verdicts = []
        for j in range(1, space.rank + 1):
            if not isinstance(snake_check(rs, j), Snake):
                continue
            verdict = analyze(space, j)
            seen[verdict.status] = seen.get(verdict.status, 0) + 1
            verdicts.append(verdict)
        check_w_zero_geometry(space, verdicts)
    assert seen == {ELIMINATED_MULTIPLICITY: 22, W_ZERO_TOTALLY_GEODESIC: 2, SURVIVES_W_ZERO_G2: 2}


@pytest.mark.parametrize(
    "name, j, flipped",
    [
        ("G2^2/SO(4)", 2, W_ZERO_TOTALLY_GEODESIC),  # the survivor's orbit bends
        ("G2(C)/G2", 2, ELIMINATED_MULTIPLICITY),
        ("G2^2/SO(4)", 1, SURVIVES_W_ZERO_G2),  # the long-root orbit does not
        ("SL(4,R)/SO(4)", 1, SURVIVES_W_ZERO_G2),
    ],
)
def test_w_zero_geometry_rejects_a_flipped_verdict(catalog, name, j, flipped):
    space = find_space(catalog, name)
    verdict = analyze(space, j)
    check_w_zero_geometry(space, [verdict])
    wrong = NCVerdict(verdict.space, j, flipped, witness=verdict.witness, note=verdict.note)
    with pytest.raises(IdentityViolation, match=flipped):
        check_w_zero_geometry(space, [wrong])


def test_w_zero_geometry_needs_a_snake_verdict_and_an_exact_model(catalog):
    g2 = find_space(catalog, "G2^2/SO(4)")
    with pytest.raises(ValueError):  # a verdict of another space
        check_w_zero_geometry(find_space(catalog, "G2(C)/G2"), [analyze(g2, 2)])
    corner = next(v for v in analyze_all(catalog) if v.status == ELIMINATED_CORNER)
    with pytest.raises(ValueError):  # no snake, so no w = 0 orbit
        check_w_zero_geometry(find_space(catalog, corner.space), [corner])
    shape_theorem = next(v for v in analyze_all(catalog) if v.status == ELIMINATED_SHAPE_THEOREM)
    with pytest.raises(C1AtlasError, match="neither split nor complexified"):
        check_w_zero_geometry(find_space(catalog, shape_theorem.space), [shape_theorem])


def test_snake_geometry_builds_each_spaces_model_once(catalog, monkeypatch):
    built = []
    space_model = shapeops.space_model

    def counted(space):
        built.append(space.name)
        return space_model(space)

    monkeypatch.setattr(shapeops, "space_model", counted)
    verify._check_snake_geometry()  # 26 snake verdicts on 15 spaces
    assert len(built) == len(set(built)) == 15
    g2 = find_space(catalog, "G2^2/SO(4)")
    built.clear()
    with pytest.raises(ValueError):  # a bad verdict anywhere in the list stops the check before the build
        check_w_zero_geometry(g2, [analyze(g2, 2), analyze(find_space(catalog, "G2(C)/G2"), 2)])
    assert built == []
