"""Value semantics of the record classes: immutable, compared, hashed and
printed by their fields, in field order."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from c1atlas.catalog import BoundaryComponent, BoundaryFactor, RankOneType, SpaceEntry
from c1atlas.classify import ActionCatalog, ActionFamily, ModuliDescriptor
from c1atlas.errors import InvalidRank
from c1atlas.nilcon import NCVerdict, Snake
from c1atlas.rootsys import ParabolicGrading, Root, RootSystemType, root_system
from c1atlas.shapeops import ShapeOperatorMatrix


def _factor():
    return BoundaryFactor(RootSystemType("A", 1), (2,), ((12, 2),), RankOneType("CH", 3))


# each factory builds a new record from new field values on every call
FACTORIES = {
    RootSystemType: lambda: RootSystemType("A", 3),
    Root: lambda: Root((1, 0)),
    ParabolicGrading: lambda: root_system("A", 3).grading({1, 3}),
    RankOneType: lambda: RankOneType("HH", 2),
    SpaceEntry: lambda: SpaceEntry("SL(3,R)/SO(3)", RootSystemType("A", 2), ((12, 1),), 5, split_flag=True),
    BoundaryFactor: _factor,
    BoundaryComponent: lambda: BoundaryComponent(frozenset({2}), (_factor(),), 1),
    Snake: lambda: Snake(1, (Root((1, 0)), Root((1, 1)))),
    NCVerdict: lambda: NCVerdict("G2^2/SO(4)", 2, "SURVIVES_W_ZERO_G2", {"top": [1, 2]}),
    ModuliDescriptor: lambda: ModuliDescriptor("HH_SYMBOLIC", "cubes", {"n": 1}),
    ActionFamily: lambda: ActionFamily("SOLVABLE", {"j": [1]}, "simple-root"),
    ActionCatalog: lambda: ActionCatalog(("X",), (ActionFamily("HOROSPHERICAL", {}, "flat"),)),
    ShapeOperatorMatrix: lambda: ShapeOperatorMatrix(
        ((3, Fraction(1)),), (0, 1), (((1, Fraction(1, 2)),), ((0, Fraction(1, 2)),))
    ),
}

RECORDS = sorted(FACTORIES, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = FACTORIES[cls]()
    before = repr(record)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    first, second = FACTORIES[cls](), FACTORIES[cls]()
    assert first is not second
    assert first == second and not first != second
    fields = tuple(getattr(first, name) for name in cls.__slots__)
    try:
        expected = hash(fields)
    except TypeError:
        # a dict among the fields makes the record unhashable, as it makes the tuple
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_keep_the_value(cls):
    record = FACTORIES[cls]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_records_compare_by_class_as_well_as_fields():
    assert RootSystemType("A", 3) != ("A", 3)
    assert ("A", 3) != RootSystemType("A", 3)
    assert RankOneType("CH", 3) != RankOneType("HH", 3)
    assert Root((1, 0)) != (1, 0)


def test_repr_lists_the_fields_in_order():
    assert repr(Root((1, 0))) == "Root(coeffs=(1, 0))"
    assert repr(RootSystemType("A", 3)) == "RootSystemType(family='A', rank=3)"
    assert repr(NCVerdict("X", 1, "S")) == "NCVerdict(space='X', j=1, status='S', witness={}, note='')"


def test_root_hash_is_the_hash_of_its_field_tuple():
    for coeffs in [(1, 0), (0, -1), (1, 2, 1)]:
        assert hash(Root(coeffs)) == hash((coeffs,))


def test_dict_defaults_are_fresh_per_record():
    first, second = NCVerdict("X", 1, "S"), NCVerdict("X", 1, "S")
    assert first.witness is not second.witness
    first.witness["k"] = 1
    assert second.witness == {} and NCVerdict("X", 1, "S").witness == {}
    assert ModuliDescriptor("HH_SYMBOLIC", "f").data is not ModuliDescriptor("HH_SYMBOLIC", "f").data


def test_constructor_binds_positions_keywords_and_defaults():
    entry = SpaceEntry(name="X", rtype=RootSystemType("A", 1), mult=((12, 1),), dim=2)
    assert (entry.split_flag, entry.complexified_flag, entry.aliases) == (False, False, ())
    assert BoundaryFactor(RootSystemType("A", 1), (1,), ()).rank_one is None
    with pytest.raises(TypeError, match="missing the field 'rank'"):
        RootSystemType("A")
    with pytest.raises(TypeError, match="no field 'size'"):
        RootSystemType("A", 3, size=2)
    with pytest.raises(TypeError, match="two values for 'family'"):
        RootSystemType("A", 3, family="B")
    with pytest.raises(TypeError, match="at most 2 fields"):
        RootSystemType("A", 3, 4)


def test_checks_run_on_construction():
    with pytest.raises(InvalidRank):
        RootSystemType("D", 3)
    with pytest.raises(ValueError, match="mixed-sign"):
        Root((1, -1))
    with pytest.raises(ValueError, match="snake heights"):
        Snake(1, (Root((1, 1)),))
