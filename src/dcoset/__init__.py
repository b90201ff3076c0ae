"""Exact computational toolkit for quotients of affine varieties by
polynomial group actions.

Sparse multivariate polynomials over the rationals, Groebner bases,
constructible sets, polynomial maps, group actions, verification
scenarios with reports, and a finite-field brute-force oracle.
"""

from .polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    RingCtx,
    RingMismatchError,
    block_order,
    evaluate,
    extend_ring,
    format_poly,
    lift,
    substitute,
)
from .groebner import (
    Ideal,
    eliminate,
    equal_ideals,
    fresh_var,
    groebner_basis,
    ideal_member,
    ideal_product,
    ideal_sum,
    is_unit_ideal,
    lift_ideal,
    normal_form,
    radical_member,
    saturate,
)
from .geometry import (
    ConstructibleSet,
    LocallyClosedPiece,
    closure,
    contains,
    contains_point,
    difference,
    intersection,
    is_empty,
    is_open_in,
    locally_closed,
    same_set,
    union,
    vanishing,
    whole_space,
)
from .morphism import (
    MalformedSectionError,
    OutsideDomainError,
    PolyMap,
    ProjectivePairPredicate,
    SectionSpec,
    check_consistent_on_overlap,
    image_closure,
    incidence_ok,
    parametric_image_constraints,
    point_in_image,
    proj_equal,
    verify_section,
)
from .action import (
    GroupActionSpec,
    NonInvariantMapError,
    PairVerdict,
    base_in_all_orbit_closures,
    check_invariant,
    fixed_stratum_check,
    generic_orbit_closure,
    orbit_closure,
    same_orbit,
    separation_report,
    separation_report_with,
)
from .report import (
    KIND_BY_CRITERION,
    KIND_BY_REPRESENTATION,
    KIND_VERIFIED,
    CheckResult,
    Report,
    merge_reports,
)
from .scenarios import (
    CensusShadow,
    Check,
    ImageShadow,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from .fforacle import (
    DEFAULT_PRIMES,
    FpConfig,
    GuardViolation,
    ImageEnumeration,
    OrbitCensus,
    cross_check,
    enumerate_image,
    enumerate_orbits,
    group_elements,
)
from .parsing import ParseError, parse_point, parse_poly, parse_polys

__version__ = "0.1.0"
