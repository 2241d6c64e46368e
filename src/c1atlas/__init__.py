"""c1atlas: exact combinatorics and extrinsic geometry behind the
classification of cohomogeneity-one actions on symmetric spaces of
noncompact type.

The package is organised around seven layers:

  rootsys    root systems, strings, parabolic gradings, diagram symmetries
  catalog    the table of irreducible spaces with restricted-root data
  chevalley  split and realified complexified Lie algebras on one real basis over Q
  shapeops   shape operators of orbits in the solvable model
  nilcon     the nilpotent-construction elimination pipeline
  classify   the per-space catalog of cohomogeneity-one action families
  verify     the invariant battery, with the root-space identity checks

``import c1atlas`` loads no layer: each name in ``_EXPORTS`` is imported from its
submodule on first use, and so is each layer read as ``c1atlas.<layer>``, so a
command pays only for the layers it touches.
"""

import importlib

_EXPORTS = {
    "rootsys": (
        "ParabolicGrading",
        "Root",
        "RootSystem",
        "RootSystemType",
        "root_system",
    ),
    "catalog": (
        "BoundaryComponent",
        "RankOneType",
        "SpaceEntry",
        "boundary_component",
        "default_catalog",
        "find_space",
        "load_catalog",
        "rank_one_recognize",
    ),
    "chevalley": (
        "AlgebraElement",
        "ChevalleyAlgebra",
        "build_algebra",
        "dump_structure_constants",
    ),
    "shapeops": (
        "OrbitSubalgebra",
        "ShapeOperatorMatrix",
        "SolvableModel",
        "check_self_adjoint",
        "check_shape_identities",
        "is_totally_geodesic",
        "shape_operator",
        "space_model",
    ),
    "nilcon": (
        "NCVerdict",
        "Snake",
        "analyze",
        "analyze_all",
        "ce_reduction_check",
        "multiplicity_check",
        "snake_check",
        "survivors",
        "verify_witness",
    ),
    "classify": (
        "ActionCatalog",
        "ActionFamily",
        "ModuliDescriptor",
        "classify",
        "derive_type_e_spaces",
        "load_tg_table",
        "moduli",
    ),
    "verify": (
        "check_string_injectivity",
        "check_theta_bracket_identity",
    ),
}

# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        if name.startswith("__"):
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        # a layer itself, e.g. `c1atlas.rootsys`
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    source = importlib.import_module(f"{__name__}.{module}")
    # Cache every export of the submodule at once.  The import has just bound
    # each submodule it loaded under its own name, which for `classify` is
    # also an exported function; this rebinds the name to the function
    # whichever of the layer's exports is read first (`from c1atlas import *`
    # reads `ActionCatalog` before `classify`), and after an export of
    # `verify`, which loads `classify`.
    cache = globals()
    cache.update((n, getattr(source, n)) for n in _EXPORTS[module])
    if "classify" in cache and not callable(cache["classify"]):
        cache["classify"] = cache["classify"].classify
    return cache[name]
