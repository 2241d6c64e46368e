"""c1atlas: exact combinatorics and extrinsic geometry behind the
classification of cohomogeneity-one actions on symmetric spaces of
noncompact type.

The package is organised around six layers:

  rootsys    root systems, strings, parabolic gradings, diagram symmetries
  catalog    the table of irreducible spaces with restricted-root data
  chevalley  split/complexified Lie algebras over exact scalars
  shapeops   shape operators of orbits in the solvable model
  nilcon     the nilpotent-construction elimination pipeline
  classify   the per-space catalog of cohomogeneity-one action families
"""

from .rootsys import (
    ParabolicGrading,
    Root,
    RootSystem,
    RootSystemType,
    build_root_system,
    level_one,
    root_system,
)
from .catalog import (
    BoundaryComponent,
    RankOneType,
    SpaceEntry,
    boundary_component,
    default_catalog,
    find_space,
    homothetic_rank_one_pair,
    list_spaces,
    load_catalog,
    rank_one_recognize,
)
from .chevalley import (
    AlgebraElement,
    ChevalleyAlgebra,
    build_algebra,
    check_string_injectivity,
    check_theta_bracket_identity,
    dump_structure_constants,
)
from .shapeops import (
    OrbitSubalgebra,
    ShapeOperatorMatrix,
    SolvableModel,
    check_self_adjoint,
    check_shape_identities,
    cpc_charpoly_constancy,
    is_totally_geodesic,
    shape_operator,
)
from .nilcon import (
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
from .classify import (
    ActionCatalog,
    ActionFamily,
    ModuliDescriptor,
    classify,
    derive_type_e_spaces,
    load_tg_table,
    moduli,
)

__version__ = "0.1.0"
