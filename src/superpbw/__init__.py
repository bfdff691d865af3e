"""Exact kernel for restricted Lie superalgebras over odd-prime fields.

The package builds enveloping-algebra bases by straightening, induces and
coinduces representations across a subalgebra split, and verifies the
duality between the two constructions on concrete instances.
"""

from .fp import EVEN, ODD, koszul_sign
from .algebra import Character, LieSuperAlgebra, StructureError, SubalgebraSplit
from .pbw import (
    PBWEngine,
    TensorSquare,
    UElement,
    antipode,
    coproduct,
    counit,
    get_engine,
    monomials_of_degree_at_most,
    normal_order_split,
    primitive_space,
    restricted_monomials,
)
from .modules import (
    CoinducedModule,
    ComplementWindow,
    CoordinateAlgebra,
    InducedModule,
    Representation,
    contragredient,
    rep_from_character,
    trivial_rep,
    twist,
    twisted_dual,
)
from .duality import (
    annihilator,
    annihilator_duality_check,
    balance_check,
    coind_duality_gram,
    coind_to_ind_dual_map,
    curried_gram,
    gram_factorization_check,
    gram_invariance_check,
    ind_to_coind_map,
    injectivity_witness_check,
    level_raising_check,
    mu_product_check,
    phi_isomorphism_check,
    socle_character_check,
    socle_level,
    theta_equivariance_check,
)
from .berezin import (
    BerezinSections,
    berezinian_coinduced_check,
    sections_to_coinduced_matrix,
    socle_volume_killed,
    volume_character_rep,
)
from .definitions import (
    AlgebraBundle,
    DefinitionError,
    load_definition,
    parse_definition_text,
    serialize_definition,
)
from .catalog import catalog_names, instance_pairs, load_bundle
from .checks import CheckReport, all_passed, check_names, run_checks
from .export import export_tables

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "koszul_sign",
    "Character",
    "LieSuperAlgebra",
    "StructureError",
    "SubalgebraSplit",
    "PBWEngine",
    "TensorSquare",
    "UElement",
    "antipode",
    "coproduct",
    "counit",
    "get_engine",
    "monomials_of_degree_at_most",
    "normal_order_split",
    "primitive_space",
    "restricted_monomials",
    "CoinducedModule",
    "ComplementWindow",
    "CoordinateAlgebra",
    "InducedModule",
    "Representation",
    "contragredient",
    "rep_from_character",
    "trivial_rep",
    "twist",
    "twisted_dual",
    "annihilator",
    "annihilator_duality_check",
    "balance_check",
    "coind_duality_gram",
    "coind_to_ind_dual_map",
    "curried_gram",
    "gram_factorization_check",
    "gram_invariance_check",
    "ind_to_coind_map",
    "injectivity_witness_check",
    "level_raising_check",
    "mu_product_check",
    "phi_isomorphism_check",
    "socle_character_check",
    "socle_level",
    "theta_equivariance_check",
    "BerezinSections",
    "berezinian_coinduced_check",
    "sections_to_coinduced_matrix",
    "socle_volume_killed",
    "volume_character_rep",
    "AlgebraBundle",
    "DefinitionError",
    "load_definition",
    "parse_definition_text",
    "serialize_definition",
    "catalog_names",
    "instance_pairs",
    "load_bundle",
    "CheckReport",
    "all_passed",
    "check_names",
    "run_checks",
    "export_tables",
    "__version__",
]
