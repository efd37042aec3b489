"""Exact-arithmetic toolkit for partitioned simplicial fans.

Validates fans and admissible partitions, builds the category of a
partitioned fan and checks its cubical axioms, extracts the CW structure
and fundamental group of the classifying space, presents picture groups
over fan posets, computes the lattice of admissible partitions, and
specializes everything to central simplicial hyperplane arrangements
(flats, shards, poset of regions).
"""

from .arrangement import (
    Arrangement,
    WallAlgebra,
    arrangement_fan,
    builtin_brauer,
    flat_partition,
    flats,
    poset_of_regions,
    separating_set,
    shard_partition,
    shards,
    support,
    wa_certify,
    wa_mul,
)
from .category import (
    build_category,
    check_cubical,
    check_last_factor_compatibility,
    compose,
    export_category_dot,
    factorization_cube,
    first_factors,
    last_factors,
)
from .cw import (
    build_cw,
    compare_pi1_picture,
    euler_characteristic,
    pi1_presentation,
)
from .fan import (
    Fan,
    build_fan,
    canonical_fan,
    fan_from_json,
    is_finite_complete,
    link_complex,
    validate_fan,
)
from .groups import (
    Presentation,
    abelianization,
    alt_presentation,
    functor_check,
    hom_distinctness_certificate,
    picture_group,
    psi,
    quotient_presentation,
    rank2_faithfulness_certificate,
)
from .partition import (
    Partition,
    admissible_closure,
    enumerate_admissible,
    is_admissible,
    join,
    meet,
    potential_identifications,
    refines,
)
from .poset import (
    FanPoset,
    check_nondegenerate,
    check_weak_fan_poset,
    facial_interval,
    poset_from_linear_functional,
    rank2_bisector_poset,
)
from .rational import primitive_ray

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
