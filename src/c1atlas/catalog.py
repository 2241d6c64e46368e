"""The table of irreducible symmetric spaces of noncompact type.

Multiplicity data ships in a versioned JSON file rather than in code; the
loader recomputes dim = rank + sum of root multiplicities for every entry and
rejects the file on any mismatch, so a transcription error cannot survive the
load.  Entries are immutable after loading.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

from .errors import AdjacentRoots, DimensionMismatch, ParseError, UnknownSpace
from .linalg import solve
from .rootsys import Record, Root, RootSystem, RootSystemType, root_system

_DATA_ENV = "C1_ATLAS_CATALOG"


class RankOneType(Record):
    """A rank-one symmetric space of noncompact type, e.g. CH^3.

    ``kind`` is "RH", "CH", "HH" or "OH2"; ``n`` is the superscript of RH^n,
    CH^n, HH^n, and OH2 always has n = 2.
    """

    __slots__ = ("kind", "n")

    def __str__(self):
        if self.kind == "OH2":
            return "OH^2"
        return f"{self.kind}^{self.n}"


def rank_one_recognize(m1: int, m2: int) -> RankOneType | None:
    """Recognise a rank-one space from the multiplicities (m_a, m_2a).

    (m, 0) -> RH^(m+1); (2n, 1) -> CH^(n+1); (4n, 3) -> HH^(n+1);
    (8, 7) -> OH^2; anything else -> None.
    """
    if m1 < 1 or m2 < 0:
        raise ValueError("multiplicities must satisfy m1 >= 1, m2 >= 0")
    if m2 == 0:
        return RankOneType("RH", m1 + 1)
    if m2 == 1 and m1 >= 2 and m1 % 2 == 0:
        return RankOneType("CH", m1 // 2 + 1)
    if m2 == 3 and m1 >= 4 and m1 % 4 == 0:
        return RankOneType("HH", m1 // 4 + 1)
    if (m1, m2) == (8, 7):
        return RankOneType("OH2", 2)
    return None


class SpaceEntry(Record):
    """One irreducible symmetric space of noncompact type.

    ``mult`` maps the squared root length (in the normalisation with long
    roots of squared length 2) to the common multiplicity of that class, as
    a sorted tuple of (Fraction squared length, int multiplicity) pairs.
    """

    __slots__ = ("name", "rtype", "mult", "dim", "split_flag", "complexified_flag", "aliases")
    _defaults = {"split_flag": False, "complexified_flag": False, "aliases": ()}

    def root_system(self) -> RootSystem:
        return root_system(self.rtype.family, self.rtype.rank)

    @property
    def rank(self) -> int:
        return self.rtype.rank

    def mult_map(self) -> dict:
        return dict(self.mult)

    def mult_of(self, lam: Root) -> int:
        length = self.root_system().length_sq(lam)
        table = self.mult_map()
        if length not in table:
            raise KeyError(f"no multiplicity class of squared length {length} in {self.name}")
        return table[length]

    def simple_mult(self, i: int) -> int:
        return self.mult_of(self.root_system().simple(i))

    def simple_mults(self) -> dict:
        return {i: self.simple_mult(i) for i in range(1, self.rank + 1)}

    def double_mult(self, i: int) -> int:
        """Multiplicity of 2*a_i, or 0 when 2*a_i is not a root."""
        rs = self.root_system()
        doubled = tuple(2 * n for n in rs.simple(i).coeffs)
        if not rs.contains(doubled):
            return 0
        return self.mult_of(Root(doubled))

    def validate(self):
        rs = self.root_system()
        table = self.mult_map()
        if any(m < 1 for m in table.values()):
            raise ParseError(f"{self.name}: every multiplicity must be at least 1")
        sizes = rs.length_class_sizes()
        if set(table) != set(sizes):
            raise ParseError(
                f"{self.name}: multiplicity classes {sorted(map(str, table))} do not "
                f"match the root length classes {sorted(map(str, sizes))}"
            )
        total = self.rank + sum(table[length] * k for length, k in sizes.items())
        if total != self.dim:
            raise DimensionMismatch(
                f"{self.name}: dim {self.dim} != rank + sum of multiplicities = {total}"
            )
        if self.split_flag and any(m != 1 for m in table.values()):
            raise ParseError(f"{self.name}: split entries need all multiplicities 1")
        if self.complexified_flag:
            if any(m != 2 for m in table.values()):
                raise ParseError(f"{self.name}: complexified entries need all multiplicities 2")
            if rs.non_reduced:
                raise ParseError(f"{self.name}: complexified entries need a reduced system")

    def killing_length_sq(self, lam: Root) -> Fraction:
        """Squared length of a root in the honest Killing scale of this space.

        The Killing form restricted to a maximal flat is determined exactly by
        the root data: B(H, H') = sum over roots of mult * lam(H) lam(H').
        """
        rs = self.root_system()
        r = self.rank
        k = [[Fraction(0)] * r for _ in range(r)]
        for mu in rs.positives:
            m = self.mult_of(mu)
            for a in range(r):
                if mu.coeffs[a] == 0:
                    continue
                for b in range(r):
                    if mu.coeffs[b]:
                        k[a][b] += 2 * m * mu.coeffs[a] * mu.coeffs[b]
        dual = solve(k, [Fraction(c) for c in lam.coeffs])
        return sum(Fraction(c) * d for c, d in zip(lam.coeffs, dual))

    def __str__(self):
        return self.name


class BoundaryFactor(Record):
    """One irreducible factor of a boundary component.

    ``nodes`` are the ambient simple indices spanning the factor, ``mult``
    the restricted (ambient squared length, multiplicity) pairs, and
    ``rank_one`` the recognised RankOneType of a one-node factor, else None.
    """

    __slots__ = ("rtype", "nodes", "mult", "rank_one")
    _defaults = {"rank_one": None}


class BoundaryComponent(Record):
    """The totally geodesic symmetric subspace attached to a simple subset.

    ``phi`` is the frozenset of simple indices, ``factors`` a tuple of
    BoundaryFactor and ``flat_rank`` the rank of the flat factor.
    """

    __slots__ = ("phi", "factors", "flat_rank")

    @property
    def is_whole_space(self) -> bool:
        return self.flat_rank == 0


def boundary_component(space: SpaceEntry, phi: Iterable[int]) -> BoundaryComponent:
    """Split a simple subset into irreducible factors with inherited multiplicities."""
    rs = space.root_system()
    grading = rs.grading(phi)
    phi = grading.phi
    factors = []
    for nodes in rs.components(phi):
        rtype = rs.subsystem_type(nodes)
        sub_pos = [
            lam for lam in grading.sigma_phi_pos if lam.support <= set(nodes)
        ]
        mult = {}
        for lam in sub_pos:
            mult[rs.length_sq(lam)] = space.mult_of(lam)
        rank_one = None
        if len(nodes) == 1:
            i = nodes[0]
            rank_one = rank_one_recognize(space.simple_mult(i), space.double_mult(i))
        factors.append(
            BoundaryFactor(
                rtype=rtype,
                nodes=nodes,
                mult=tuple(sorted(mult.items())),
                rank_one=rank_one,
            )
        )
    return BoundaryComponent(
        phi=phi, factors=tuple(factors), flat_rank=rs.rank - len(phi)
    )


def homothetic_rank_one_pair(space: SpaceEntry, i: int, k: int) -> bool:
    """Whether {a_i, a_k} spans two isometric rank-one boundary components.

    Requires the two simple roots to be non-adjacent; equal recognised type
    plus equal root length forces the two factors to be isometric once the
    space carries its Killing metric.
    """
    rs = space.root_system()
    if k in rs.dynkin_neighbors(i):
        raise AdjacentRoots(f"a{i} and a{k} are adjacent; the boundary is irreducible")
    first = rank_one_recognize(space.simple_mult(i), space.double_mult(i))
    second = rank_one_recognize(space.simple_mult(k), space.double_mult(k))
    if first is None or second is None or first != second:
        return False
    return rs.length_sq(rs.simple(i)) == rs.length_sq(rs.simple(k))


# -- loading -----------------------------------------------------------------

def _json_int(value, what: str) -> int:
    # bool is an int subclass; JSON floats and strings are not integers either
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_flag(obj, key: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(f"{key!r} must be a JSON boolean, got {value!r}")
    return value


def _entry_from_json(obj) -> SpaceEntry:
    try:
        name, aliases = obj["name"], obj.get("aliases", [])
        if not isinstance(name, str):
            raise ParseError(f"'name' must be a string, not {name!r}")
        if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
            raise ParseError(f"{name}: 'aliases' must be a list of strings")
        mults = obj["mults"]
        if not isinstance(mults, dict):
            raise ParseError(f"{name}: 'mults' must be an object")
        entry = SpaceEntry(
            name=name,
            rtype=RootSystemType(obj["family"], _json_int(obj["rank"], f"{name}: rank")),
            mult=tuple(
                sorted(
                    (Fraction(key), _json_int(value, f"{name}: multiplicity {key}"))
                    for key, value in mults.items()
                )
            ),
            dim=_json_int(obj["dim"], f"{name}: dim"),
            split_flag=_json_flag(obj, "split"),
            complexified_flag=_json_flag(obj, "complexified"),
            aliases=tuple(aliases),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed catalog entry {obj!r}: {exc}") from exc
    entry.validate()
    return entry


def read_json(source, error_prefix: str):
    """The JSON data of a path or file object; any other source is taken as parsed data.

    Invalid JSON raises ParseError, its message led by error_prefix.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_json(fh, error_prefix)
    if not hasattr(source, "read"):
        return source
    try:
        return json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{error_prefix}: {exc}") from exc


def load_catalog(source) -> list:
    """Load and validate a catalog from a path, file object, or parsed JSON."""
    data = read_json(source, "invalid JSON")
    if isinstance(data, dict):
        if "spaces" not in data:
            raise ParseError("catalog object needs a 'spaces' array")
        data = data["spaces"]
    if not isinstance(data, list):
        raise ParseError("catalog must be a list of space objects")
    entries = [_entry_from_json(obj) for obj in data]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ParseError("duplicate space names in catalog")
    return entries


def default_catalog_path() -> Path:
    env = os.environ.get(_DATA_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "catalog.json"


def default_catalog() -> list:
    return load_catalog(default_catalog_path())


def find_space(catalog, name: str) -> SpaceEntry:
    for entry in catalog:
        if entry.name == name or name in entry.aliases:
            return entry
    raise UnknownSpace(f"space {name!r} is not in the catalog")
