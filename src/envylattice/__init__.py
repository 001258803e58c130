"""Envy-free and stable allocations in many-to-many matching markets
with contracts: choice-axiom validation, solution-class enumeration, the
Blair lattice of envy-free allocations, and fixed-point re-equilibration
dynamics (vacancy chains)."""

from .choice import (
    CHECKERS,
    PROPERTIES,
    PropertyWitness,
    ValidationEntry,
    ValidationLimits,
    check_consistency,
    check_distinct_hospitals,
    check_lad,
    check_path_independence,
    check_substitutable,
    doctor_choose,
    hospital_choose,
)
from .classify import (
    ClassificationReport,
    EnumerationCapError,
    EnvyWitness,
    blocking_contracts,
    classify,
    count_allocations,
    enumerate_allocations,
    is_envy_free,
    is_individually_rational,
    is_stable,
    justified_envy_witnesses,
)
from .dynamics import (
    RetirementEvent,
    TarskiStep,
    TarskiTrace,
    TheoremReport,
    reduce_market,
    star_blocking,
    tarski_fixed_point,
    tarski_step,
    vacancy_chain,
    verify_lad_predictions,
)
from .generate import GenParams, generate_responsive_market
from .lattice import (
    LatticeGraph,
    blair_dominates,
    choice_join,
    doctor_optimal,
    dominance_matrix,
    graph_to_json,
    hasse,
    hospital_optimal,
    join,
    meet,
    to_dot,
)
from .model import (
    Allocation,
    Contract,
    DoctorSpec,
    HospitalSpec,
    InvariantViolation,
    Market,
    MarketError,
    NotAnAllocationError,
    ResponsiveDoctor,
    TableDoctor,
    UnknownIdError,
    allocation_violations,
    canon,
    contract_count_balance,
    is_allocation,
    restrict,
)
from .reconcile import Reference, ReconciliationReport, reconcile, reference_from_doc
from .serialize import (
    FatalValidationError,
    ParseError,
    market_from_json,
    market_to_json,
    market_to_text,
    parse_market,
)
from .validate import ValidationReport, validate_market

__all__ = [name for name in dir() if not name.startswith("_")]
