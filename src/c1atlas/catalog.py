"""The table of irreducible symmetric spaces of noncompact type.

Multiplicity data ships in a versioned JSON file rather than in code; the
loader recomputes dim = rank + sum of root multiplicities for every entry and
rejects the file on any mismatch, so a transcription error cannot survive the
load.  It reads the number of roots per length class in closed form
(``rootsys.length_class_counts``), so loading builds no root system: an
entry's system is generated when a command first asks for it.  Entries are
immutable after loading.  A length key is read straight to six times the
squared length, the int ``RootSystem.length6`` gives a root.

Every malformed file is a ParseError, including bytes that are not UTF-8,
JSON nested too deeply, a length key other than n, n/d (d > 0) or a decimal,
a length no root has, and a name or alias that occurs twice (``find_space``
answers either).
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

from .errors import DimensionMismatch, NotARoot, ParseError, UnknownSpace
from .rootsys import Record, Root, RootSystem, RootSystemType, length_class_counts, length_text, root_system

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

    ``mult`` maps each root length class to the common multiplicity of its
    roots, as a sorted tuple of (six-fold squared length, multiplicity) int
    pairs: the squared length is taken with long roots at 2, and six times
    it is the int ``RootSystem.length6`` gives a root (4, 6, 12 or 24).
    """

    __slots__ = ("name", "rtype", "mult", "dim", "split_flag", "complexified_flag", "aliases")
    _defaults = {"split_flag": False, "complexified_flag": False, "aliases": ()}

    def root_system(self) -> RootSystem:
        return root_system(self.rtype.family, self.rtype.rank)

    @property
    def rank(self) -> int:
        return self.rtype.rank

    def mult_of(self, lam: Root) -> int:
        """Multiplicity of a root; NotARoot unless lam is a root of this space."""
        rs = self.root_system()
        if not rs.contains(lam):
            raise NotARoot(f"{lam.coeffs} is not a root of {self.name}")
        len6 = rs.length6(lam)
        return next(m for n6, m in self.mult if n6 == len6)

    def simple_mult(self, i: int) -> int:
        return self.mult_of(self.root_system().simple(i))

    def simple_mults(self) -> dict:
        return {i: self.simple_mult(i) for i in range(1, self.rank + 1)}

    def rank_one(self, i: int) -> RankOneType | None:
        """The rank-one type recognised at a_i from (m(a_i), m(2a_i)), m(2a_i) = 0 off the roots."""
        rs = self.root_system()
        simple = rs.simple(i)
        doubled = Root(tuple(2 * n for n in simple.coeffs))
        return rank_one_recognize(self.mult_of(simple), self.mult_of(doubled) if rs.contains(doubled) else 0)

    def validate(self):
        """Check the entry against the closed-form class counts of its type; no root system is built."""
        table = dict(self.mult)
        if any(m < 1 for m in table.values()):
            raise ParseError(f"{self.name}: every multiplicity must be at least 1")
        sizes = length_class_counts(self.rtype.family, self.rank)
        if set(table) != set(sizes):
            raise ParseError(
                f"{self.name}: multiplicity classes {sorted(map(length_text, table))} do not "
                f"match the root length classes {sorted(map(length_text, sizes))}"
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
            if self.rtype.family == "BC":
                raise ParseError(f"{self.name}: complexified entries need a reduced system")

    def killing_length_sq(self, lam: Root) -> tuple:
        """Squared length of lam in the Killing scale of this space, as a
        reduced int pair (numerator, denominator).

        On a maximal flat B(H, H') = sum over roots mu of m_mu mu(H) mu(H').
        The space is irreducible, so its Weyl group acts irreducibly on the
        flat and B is kappa times the normalised form.  The trace against that
        form gives rank * kappa = sum over roots of m_mu |mu|^2, which is twice
        the sum over length classes of m * length * count (six-fold on both
        sides here), and on roots the dual of B is the normalised form over
        kappa.  Reduced, two pairs are equal exactly when the lengths are.
        """
        import math

        sizes = length_class_counts(self.rtype.family, self.rank)
        trace6 = 2 * sum(m * n6 * sizes[n6] for n6, m in self.mult)
        numerator = self.rank * self.root_system().length6(lam)
        g = math.gcd(numerator, trace6)
        return numerator // g, trace6 // g

    def __str__(self):
        return self.name


class BoundaryFactor(Record):
    """One irreducible factor of a boundary component.

    ``nodes`` are the ambient simple indices spanning the factor, ``mult``
    the restricted multiplicities, keyed as in ``SpaceEntry.mult``, and
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
    phi = frozenset(phi)
    factors = []
    for nodes in rs.components(phi):
        lengths = set(map(rs.length6, rs.positives_on(nodes)))
        factors.append(
            BoundaryFactor(
                rtype=rs.subsystem_type(nodes),
                nodes=nodes,
                mult=tuple((n6, m) for n6, m in space.mult if n6 in lengths),
                rank_one=space.rank_one(nodes[0]) if len(nodes) == 1 else None,
            )
        )
    return BoundaryComponent(
        phi=phi, factors=tuple(factors), flat_rank=rs.rank - len(phi)
    )


# -- loading -----------------------------------------------------------------

def _json_int(value, what: str) -> int:
    # bool is an int subclass; JSON floats and strings are not integers either
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


# no exponent ("1e9999999" would build a ten-million-digit int) and no zero denominator
_LENGTH_KEY = re.compile(r"[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")


def _json_length(key, name: str) -> int:
    """Six times the squared length a key spells; ParseError unless some root could have it."""
    if not _LENGTH_KEY.fullmatch(key):
        raise ParseError(f"{name}: root length {key!r} is not n, n/d with d > 0, or a decimal")
    num, _, den = key.partition("/")
    whole, _, decimals = num.partition(".")
    n6, rem = divmod(6 * int(whole + decimals), int(den or 1) * 10 ** len(decimals))
    if rem:
        raise ParseError(f"{name}: root length {key!r} is not the squared length of any root")
    return n6


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
                    (_json_length(key, name), _json_int(value, f"{name}: multiplicity {key}"))
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
    except (ValueError, RecursionError) as exc:
        # syntax errors, bytes that are not UTF-8 and over-long ints are ValueErrors
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
    counts = Counter(label for e in entries for label in (e.name, *e.aliases))
    repeated = sorted(label for label, k in counts.items() if k > 1)
    if repeated:
        raise ParseError(f"duplicate space names or aliases in catalog: {', '.join(repeated)}")
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
