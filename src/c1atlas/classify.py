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

The nilpotent entries are derived twice (from boundary recognition and from
the elimination sweep) and the two answers are required to agree.
"""

from __future__ import annotations

from itertools import combinations

from .catalog import RankOneType, SpaceEntry, boundary_component, read_json
from .errors import IdentityViolation, ParseError, RHHasNoNCModuli
from .rootsys import Record
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
    """Images of a node tuple under one factor's weighted diagram symmetries.

    The symmetries form a group, so two node tuples of a factor lie in one
    orbit exactly when they share their least image, and the orbit has as
    many members as there are distinct images.  Identical factors of a
    product share a catalog name, so (name, least image) keys an orbit under
    the product symmetries, which also permute identical factors.
    """
    return {tuple(sorted(sigma[i - 1] for i in nodes)) for sigma in auts}


def _orbit_representatives(auts, node_sets):
    """The first node set of each orbit, in the given order, with its orbit size."""
    seen = set()
    for nodes in node_sets:
        images = _images(auts, nodes)
        least = min(images)
        if least not in seen:
            seen.add(least)
            yield nodes, len(images)


def _connected_subsets(rs):
    subsets = (
        frozenset(i + 1 for i in range(rs.rank) if mask & (1 << i))
        for mask in range(1, 1 << rs.rank)
    )
    return [phi for phi in subsets if len(rs.components(phi)) == 1]


# -- the type-(e) derivation ----------------------------------------------------

def derive_type_e_spaces(catalog):
    """Spaces owning a boundary component of CH (n>=2), HH (n>=1), or OH type.

    Scans the rank-one boundary components attached to single simple roots
    (for rank-one spaces that component is the space itself).
    """
    out = []
    for space in sorted(catalog, key=lambda s: s.name):
        hits = {}
        for i in range(1, space.rank + 1):
            rec = space.rank_one(i)
            if rec is None or rec.kind == "RH":
                continue
            if rec.kind == "CH" and rec.n < 3:
                continue  # the CH^2 moduli set is empty
            hits[(i,)] = rec
        for nodes, _ in _orbit_representatives(_factor_auts(space), hits):
            out.append((space, frozenset(nodes), hits[nodes]))
    return out


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
        f"type-{f.rtype} (mults {dict((str(k), v) for k, v in f.mult)})"
        for f in comp.factors
    )


# -- the classifier ---------------------------------------------------------------

def classify(factors, tg_table=None) -> ActionCatalog:
    """Assemble the action catalog of a product of catalog spaces.

    ``factors`` is a nonempty list of SpaceEntry (the de Rham factors);
    ``tg_table`` optionally maps boundary-component names to lists of actions
    with totally geodesic singular orbits.
    """
    if not factors:
        raise ValueError("need at least one de Rham factor")
    families = []
    total_rank = sum(s.rank for s in factors)
    auts = [_factor_auts(s) for s in factors]

    def orbit_key(f, nodes):
        """Key of the orbit of a node tuple of factor f under the product symmetries."""
        return factors[f].name, min(_images(auts[f], nodes))

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

    orbits: dict = {}
    for f, space in enumerate(factors):
        for i in range(1, space.rank + 1):
            orbits.setdefault(orbit_key(f, (i,)), []).append((f, i))
    for orbit in orbits.values():  # ordered by least member
        f, i = orbit[0]
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

    for f, space in enumerate(factors):
        subsets = sorted(_connected_subsets(space.root_system()), key=lambda s: (len(s), sorted(s)))
        for phi, orbit_size in _orbit_representatives(auts[f], subsets):
            comp = boundary_component(space, phi)
            name = _boundary_name(space, comp)
            entry = {
                "factor": f,
                "phi": sorted(phi),
                "boundary": name,
                "orbit_size": orbit_size,
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
    families.extend(_nilpotent_families(factors))

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
    seen = set()
    out = []
    for (f1, i, rec, length), (f2, k, rec2, length2) in combinations(nodes, 2):
        if (rec, length) != (rec2, length2):
            continue
        if f1 == f2:
            if k in factors[f1].root_system().dynkin_neighbors(i):
                continue
            key = ("within", orbit_key(f1, (i, k)))
        else:
            key = ("across", *sorted((orbit_key(f1, (i,)), orbit_key(f2, (k,)))))
        if key not in seen:
            seen.add(key)
            out.append(
                ActionFamily(
                    "CE_DIAGONAL",
                    {"pair": [[f1, i], [f2, k]], "boundary": f"{rec} x {rec}"},
                    provenance="canonical extension of diagonal action",
                )
            )
    return out


def _nilpotent_families(factors):
    """Families of the fifth kind, derived twice and reconciled.

    Path one reads the catalog data: rank-one CH/HH/OH boundary components
    supply canonical extensions of their moduli, and the two G2-type spaces
    supply the short-root subgroup.  Path two runs the elimination sweep and
    records its survivors.  The survivor set must be exactly the short G2
    roots of the G2-type factors, otherwise the classifier refuses to emit.
    """
    families = []
    sweep_survivors = set()
    g2_factors = set()
    for f, space in enumerate(factors):
        decorations = (
            {"other_factors": "full isometry group"} if len(factors) > 1 else {}
        )
        for sp, phi, rec in derive_type_e_spaces([space]):
            desc = moduli(rec)
            if desc.is_empty:
                continue
            params = {
                "factor": f,
                "phi": sorted(phi),
                "boundary": str(rec),
                "moduli": desc.to_json(),
                **decorations,
            }
            families.append(
                ActionFamily("NILPOTENT", params, provenance="canonical extension of rank-one moduli")
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
            families.append(
                ActionFamily("NILPOTENT", params, provenance="short-root nilpotent construction")
            )
        if space.rank >= 2:
            for verdict in (nilcon.analyze(space, j) for j in range(1, space.rank + 1)):
                if verdict.status == nilcon.SURVIVES_W_ZERO_G2:
                    sweep_survivors.add((f, verdict.j))
    if sweep_survivors != g2_factors:
        raise IdentityViolation(
            "catalog-driven G2 families and elimination-sweep survivors disagree: "
            f"{sorted(g2_factors)} vs {sorted(sweep_survivors)}"
        )
    return families
