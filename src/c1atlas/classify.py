"""Per-space assembly of the cohomogeneity-one action catalog.

Five families of actions exist on a symmetric space of noncompact type:

 * HOROSPHERICAL      - one continuous family, lines in the maximal flat
                        modulo weighted diagram symmetries;
 * SOLVABLE           - one family per simple root modulo those symmetries;
 * CE_TOTALLY_GEODESIC- canonical extensions of actions with totally geodesic
                        singular orbits on irreducible boundary components
                        (data-driven: populated from a pluggable table);
 * CE_DIAGONAL        - canonical extensions of diagonal actions on products
                        of two isometric rank-one boundary components: two
                        simple roots, not adjacent in one factor, with one
                        rank-one type and one Killing length;
 * NILPOTENT          - the genuinely new families: canonical extensions of
                        the rank-one moduli attached to CH/HH/OH boundary
                        components, plus the short-root G2 subgroup H_{2,0}.

On a product, the symmetries are each factor's weighted diagram symmetries
and the permutations of identical factors; every kind but HOROSPHERICAL
lists one family per orbit under them, keyed by one ``_orbit_key``, so a
family and its images are one action up to orbit equivalence.  A SOLVABLE or
CE_TOTALLY_GEODESIC family's ``orbit_size`` counts its orbit over all the
factors: the simple roots, or the connected node sets, it stands for.

The nilpotent entries are derived twice (from boundary recognition and from
the elimination sweep) and the two answers are required to agree.
"""

from __future__ import annotations

from itertools import combinations

from .catalog import RankOneType, SpaceEntry, boundary_component, read_json
from .errors import IdentityViolation, InvalidRank, ParseError, RHHasNoNCModuli
from .rootsys import MAX_RANK, Record, length_text
from . import nilcon

CH_FORMULA = "(0,π/2) × {2,4,…,2⌊n/2⌋} ⊔ {π/2} × {2,…,n}"
OH2_FORMULA = "{2,3,6,7} ⊔ [0,1] × {4}"
HH_FORMULA = "subset of a disjoint union of cubes [0,π/2]³ (symbolic)"
G2_FORMULA = "{H_{2,0}}"


class ModuliDescriptor(Record):
    """Moduli of the nilpotent-construction families on a rank-one space.

    ``kind`` is CH_EXPLICIT, HH_SYMBOLIC, OH2_EXPLICIT or G2_SINGLETON.
    """

    __slots__ = ("kind", "formula", "data")
    _defaults = {"data": {}}

    @property
    def is_empty(self) -> bool:
        return self.kind == "CH_EXPLICIT" and not (
            self.data["interval_dims"] or self.data["right_angle_dims"]
        )


def moduli(rank_one: RankOneType) -> ModuliDescriptor:
    """The moduli descriptor for a rank-one space; RH spaces have none."""
    if rank_one.kind == "RH":
        raise RHHasNoNCModuli("real hyperbolic spaces admit no such families")
    if rank_one.kind == "CH":
        n = rank_one.n - 1
        return ModuliDescriptor(
            "CH_EXPLICIT",
            CH_FORMULA,
            {
                "n": n,
                "interval_dims": [2 * k for k in range(1, n // 2 + 1)],
                "right_angle_dims": list(range(2, n + 1)),
            },
        )
    if rank_one.kind == "HH":
        return ModuliDescriptor("HH_SYMBOLIC", HH_FORMULA, {"n": rank_one.n - 1})
    return ModuliDescriptor(
        "OH2_EXPLICIT",
        OH2_FORMULA,
        {"points": [2, 3, 6, 7], "segment_dim": 4},
    )


class ActionFamily(Record):
    """One family of actions: ``kind`` is HOROSPHERICAL, SOLVABLE,
    CE_TOTALLY_GEODESIC, CE_DIAGONAL or NILPOTENT, ``parameters`` a dict and
    ``provenance`` the construction-origin tag."""

    __slots__ = ("kind", "parameters", "provenance")


class ActionCatalog(Record):
    """The action families of one space or product, in classification order."""

    __slots__ = ("spaces", "families")

    def by_kind(self, kind: str):
        return [f for f in self.families if f.kind == kind]

    def to_json(self) -> dict:
        return {
            "spaces": list(self.spaces),
            "families": [f.to_json() for f in self.families],
        }

    def text(self) -> str:
        lines = [f"space(s): {' x '.join(self.spaces)}"]
        for f in self.families:
            params = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(f.parameters.items()))
            lines.append(f"  [{f.kind}] {params}")
        return "\n".join(lines)


def _fmt(v):
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(str, v)) + "]"
    return str(v)


# -- diagram symmetries -----------------------------------------------------------

def _factor_auts(space: SpaceEntry):
    return space.root_system().weighted_diagram_automorphisms(space.simple_mults())


def _images(auts, nodes) -> set:
    """Images of a node tuple under one factor's weighted diagram symmetries."""
    return {tuple(sorted(sigma[i - 1] for i in nodes)) for sigma in auts}


def _orbit_key(factors):
    """Key of the orbit of a member (factor index, node tuple, ...) under the product symmetries.

    These are each factor's weighted diagram symmetries, a group, and the
    permutations of identical factors, which share a catalog name: so
    (name, least image of the node tuple) keys the orbit.
    """
    auts = [_factor_auts(s) for s in factors]

    def key(member):
        f, nodes = member[:2]
        return factors[f].name, min(_images(auts[f], nodes))

    return key


def _orbits(members, key) -> list:
    """The members grouped by key, in order of first member: given every member, one group per orbit."""
    groups: dict = {}
    for member in members:
        groups.setdefault(key(member), []).append(member)
    return list(groups.values())


def _connected_subsets(rs) -> set:
    """Every connected node set of the Dynkin diagram, grown one neighbour at a time."""
    found, level = set(), {frozenset({i}) for i in range(1, rs.rank + 1)}
    while level:
        found |= level
        level = {phi | {j} for phi in level for i in phi for j in rs.dynkin_neighbors(i) - phi}
    return found


# -- the type-(e) derivation ----------------------------------------------------

def derive_type_e_spaces(catalog):
    """Spaces owning a boundary component of CH (n>=2), HH (n>=1), or OH type.

    Scans the rank-one boundary components attached to single simple roots
    (for rank-one spaces that component is the space itself).
    """
    out = []
    for space in sorted(catalog, key=lambda s: s.name):
        for (_, nodes, rec), *_ in _orbits(_type_e_nodes(0, space), _orbit_key([space])):
            out.append((space, frozenset(nodes), rec))
    return out


def _type_e_nodes(f, space):
    """(f, (i,), rank-one type) for each simple root of a CH (n>=3), HH or OH type."""
    for i in range(1, space.rank + 1):
        rec = space.rank_one(i)
        # the CH^2 moduli set is empty
        if rec is not None and rec.kind != "RH" and not (rec.kind == "CH" and rec.n < 3):
            yield f, (i,), rec


# -- totally geodesic table ------------------------------------------------------

def load_tg_table(source) -> dict:
    """Load the pluggable table of totally-geodesic-orbit actions per space."""
    data = read_json(source, "invalid JSON in table")
    if not isinstance(data, dict) or not isinstance(data.get("actions"), dict):
        raise ParseError("table needs an 'actions' object keyed by space name")
    for name, actions in data["actions"].items():
        if not isinstance(actions, list) or not all(isinstance(a, dict) for a in actions):
            raise ParseError(f"table entry {name!r} must be a list of action objects")
    return data["actions"]


def _boundary_name(space: SpaceEntry, comp) -> str:
    if len(comp.factors) == 1 and comp.factors[0].rank_one is not None:
        return str(comp.factors[0].rank_one)
    return " x ".join(
        f"type-{f.rtype} (mults {dict((length_text(n6), m) for n6, m in f.mult)})"
        for f in comp.factors
    )


# -- the classifier ---------------------------------------------------------------

def classify(factors, tg_table=None) -> ActionCatalog:
    """Assemble the action catalog of a product of catalog spaces.

    ``factors`` is a nonempty list of SpaceEntry (the de Rham factors);
    ``tg_table`` optionally maps boundary-component names to lists of actions
    with totally geodesic singular orbits.  Factors whose ranks sum to more
    than ``rootsys.MAX_RANK`` raise InvalidRank.
    """
    if not factors:
        raise ValueError("need at least one de Rham factor")
    families = []
    total_rank = sum(s.rank for s in factors)
    if total_rank > MAX_RANK:
        raise InvalidRank(f"the product has rank {total_rank}, above the cap of {MAX_RANK}")
    orbit_key = _orbit_key(factors)

    families.append(
        ActionFamily(
            "HOROSPHERICAL",
            {
                "moduli": "lines l in the maximal flat modulo Aut^w(D)",
                "parameter_dimension": total_rank - 1,
            },
            provenance="horospherical foliation",
        )
    )

    roots = ((f, (i,)) for f, space in enumerate(factors) for i in range(1, space.rank + 1))
    for orbit in _orbits(roots, orbit_key):
        (f, (i,)) = orbit[0]
        families.append(
            ActionFamily(
                "SOLVABLE",
                {
                    "factor": f,
                    "simple_root": i,
                    "orbit_size": len(orbit),
                },
                provenance="solvable foliation",
            )
        )

    subsets = (
        (f, phi)
        for f, space in enumerate(factors)
        for phi in sorted(_connected_subsets(space.root_system()), key=lambda s: (len(s), sorted(s)))
    )
    for orbit in _orbits(subsets, orbit_key):
        f, phi = orbit[0]
        comp = boundary_component(factors[f], phi)
        name = _boundary_name(factors[f], comp)
        entry = {
            "factor": f,
            "phi": sorted(phi),
            "boundary": name,
            "orbit_size": len(orbit),
            "whole_space": comp.is_whole_space and len(factors) == 1,
        }
        if tg_table and name in tg_table:
            entry["actions"] = tg_table[name]
        else:
            entry["actions"] = "TG(B_phi): requires external table"
        families.append(
            ActionFamily("CE_TOTALLY_GEODESIC", entry, provenance="canonical extension of totally geodesic orbit")
        )

    families.extend(_diagonal_families(factors, orbit_key))
    families.extend(_nilpotent_families(factors, orbit_key))

    return ActionCatalog(
        spaces=tuple(s.name for s in factors), families=tuple(families)
    )


def _diagonal_families(factors, orbit_key):
    """Reducible rank-2 boundary components with isometric rank-one factors.

    Every simple root that recognises a rank-one type is a candidate node,
    read as (factor, index, type, Killing length of the root).  Two nodes
    span such a component when they have the same type and the same Killing
    length and are not adjacent in one factor; within one factor equal
    Killing lengths are equal normalised lengths.  One family is emitted per
    orbit of node pairs under the product symmetries.
    """
    nodes = []
    for f, space in enumerate(factors):
        rs = space.root_system()
        for i in range(1, space.rank + 1):
            rec = space.rank_one(i)
            if rec is not None:
                nodes.append((f, i, rec, space.killing_length_sq(rs.simple(i))))
    pairs = [
        (f1, i, f2, k, rec)
        for (f1, i, rec, length), (f2, k, rec2, length2) in combinations(nodes, 2)
        if (rec, length) == (rec2, length2)
        and not (f1 == f2 and k in factors[f1].root_system().dynkin_neighbors(i))
    ]

    def pair_key(pair):
        f1, i, f2, k, _ = pair
        if f1 == f2:
            return "within", orbit_key((f1, (i, k)))
        return "across", *sorted((orbit_key((f1, (i,))), orbit_key((f2, (k,)))))

    return [
        ActionFamily(
            "CE_DIAGONAL",
            {"pair": [[f1, i], [f2, k]], "boundary": f"{rec} x {rec}"},
            provenance="canonical extension of diagonal action",
        )
        for (f1, i, f2, k, rec), *_ in _orbits(pairs, pair_key)
    ]


def _nilpotent_families(factors, orbit_key):
    """Families of the fifth kind, derived twice and reconciled.

    Path one reads the catalog data: rank-one CH/HH/OH boundary components
    supply canonical extensions of their moduli, and the two G2-type spaces
    supply the short-root subgroup, one family per orbit of simple roots.
    Path two runs the elimination sweep and records its survivors.  The
    survivor set must be exactly the short G2 roots of the G2-type factors,
    otherwise the classifier refuses to emit.
    """
    members = []  # (factor, node tuple, family), in factor order
    sweep_survivors = set()
    g2_factors = set()
    decorations = {"other_factors": "full isometry group"} if len(factors) > 1 else {}
    for f, space in enumerate(factors):
        for _, nodes, rec in _type_e_nodes(f, space):
            desc = moduli(rec)
            if desc.is_empty:
                continue
            params = {
                "factor": f,
                "phi": list(nodes),
                "boundary": str(rec),
                "moduli": desc.to_json(),
                **decorations,
            }
            members.append(
                (f, nodes, ActionFamily("NILPOTENT", params, provenance="canonical extension of rank-one moduli"))
            )
        short = nilcon.short_g2_root(space)
        if short is not None:
            g2_factors.add((f, short))
            params = {
                "factor": f,
                "j": short,
                "subgroup": "H_{2,0}",
                "moduli": ModuliDescriptor("G2_SINGLETON", G2_FORMULA).to_json(),
                **decorations,
            }
            members.append(
                (f, (short,), ActionFamily("NILPOTENT", params, provenance="short-root nilpotent construction"))
            )
        if space.rank >= 2:
            verdicts = [nilcon.analyze(space, j) for j in range(1, space.rank + 1)]
            sweep_survivors.update((f, v.j) for v in nilcon.survivors(verdicts))
    if sweep_survivors != g2_factors:
        raise IdentityViolation(
            "catalog-driven G2 families and elimination-sweep survivors disagree: "
            f"{sorted(g2_factors)} vs {sorted(sweep_survivors)}"
        )
    return [family for (_, _, family), *_ in _orbits(members, orbit_key)]
