"""Exact-arithmetic lab for a finitely expansive system over the binary shift.

The package builds a compact augmented phase space (the full shift plus
countably many isolated satellite orbits), and verifies its dynamics with
rational arithmetic only: dynamic-ball cardinality bounds, pseudo-orbit
tracing with explicit moduli, chain-recurrent class counts, stable-set
statistics and the limit variants of tracing.
"""

from nexpansive.base import (
    BiSeq,
    base_dist,
    base_shadow,
    dyadic,
    flip_symbol,
    glue_specification,
    periodic_orbit,
    periodic_point,
    right_tails_agree,
)
from nexpansive.space import (
    AugPoint,
    AugSystem,
    BasePoint,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    aug_map,
    canonical_key,
    mirror_point,
    orbit_label,
    project,
)
from nexpansive.expansivity import (
    DynamicBallReport,
    ExpansivityCertificate,
    ExpansivityFalsifier,
    StableClassReport,
    check_expansivity,
    dynamic_ball,
    in_local_stable,
    in_stable_set,
    local_stable_radius,
    lower_expansivity_falsifier,
    stabilization_index,
    stable_class_count,
)
from nexpansive.chains import (
    ChainGraph,
    ClassPartition,
    build_chain_graph,
    chain_classes,
)
from nexpansive.shadowing import (
    PseudoOrbit,
    limit_shadow,
    shadow_modulus,
    shadow_pseudo_orbit,
    shadow_specification,
    two_sided_limit_shadow,
    verify_shadow,
)

__version__ = "0.1.0"
