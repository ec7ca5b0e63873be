"""Exact invariants of degenerating curves from the dual graphs of their
normal crossings fibers: component groups, characteristic polynomials,
stabilization indices, the tame base change transform, component and
motivic zeta series, and conductor formulas."""

__version__ = "0.1.0"

from .curves import (
    CurveGeometry,
    SncdCurve,
    ValidationReport,
    blow_up_intersection,
    blow_up_point,
    contract_minus_one,
    genus,
    geometry,
    load_curve,
    parse_curve,
    serialize_curve,
    validate,
)
from .cyclo import CycloProduct
from .linalg import FiniteAbelianGroup, smith_diagonal_sparse
from .hj import HJChain, LocalPointData, hj_expand, local_point_data, resolve_chain
from .invariants import (
    InvariantReport,
    char_poly,
    char_poly_prime,
    component_group,
    invariant_report,
    lorenzini_form,
    monodromy_zeta,
    stabilization_index,
)
from .basechange import BaseChangeLaws, BaseChangeTrace, base_change_laws, transform
from .ratseries import RationalSeries
from .zeta import (
    JumpSet,
    ReductionProvider,
    component_series,
    euler_characteristic_map,
    euler_specialize,
    load_provider,
    motivic_zeta,
)
from .conductors import (
    EllipticData,
    KodairaType,
    RamificationFiltration,
    artin_relation,
    artin_swan,
    c_elliptic,
    c_relative,
    ctame_elliptic,
    d_pot,
    filtration_base_change,
    genus2_c,
    torus_ctame,
    wild_defect,
)
from . import errors
