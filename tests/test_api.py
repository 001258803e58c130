"""The package's public names."""

from __future__ import annotations

import envylattice

# Every name ``from envylattice import *`` binds, submodules included.  A
# rename or removal edits this list, so it shows in review.
PUBLIC_API = [
    "Allocation", "CHECKERS", "ClassificationReport", "Contract", "DoctorSpec",
    "EnumerationCapError", "EnvyWitness", "FatalValidationError", "GenParams",
    "HospitalSpec", "InvariantViolation", "LatticeGraph", "Market", "MarketError",
    "NotAnAllocationError", "PROPERTIES", "ParseError", "PropertyWitness",
    "ReconciliationReport", "Reference", "ResponsiveDoctor", "RetirementEvent",
    "TableDoctor", "TarskiStep", "TarskiTrace", "TheoremReport", "UnknownIdError",
    "ValidationEntry", "ValidationReport", "allocation_violations", "blair_dominates",
    "blocking_contracts", "canon", "check_consistency", "check_distinct_hospitals",
    "check_lad", "check_path_independence", "check_substitutable", "choice",
    "choice_join", "classify", "contract_count_balance", "count_allocations",
    "doctor_choose", "doctor_optimal", "dominance_matrix", "dynamics",
    "enumerate_allocations", "generate", "generate_responsive_market", "graph_to_json",
    "hasse", "hospital_choose", "hospital_optimal", "is_allocation", "is_envy_free",
    "is_individually_rational", "is_stable", "join", "justified_envy_witnesses",
    "lattice", "market_from_json", "market_to_json", "market_to_text", "meet", "model",
    "parse_market", "reconcile", "reduce_market", "reference_from_doc", "restrict",
    "serialize", "star_blocking", "tarski_fixed_point", "tarski_step", "to_dot",
    "vacancy_chain", "validate", "validate_market", "verify_lad_predictions",
]


def test_public_api_is_pinned():
    assert sorted(envylattice.__all__) == PUBLIC_API
    assert all(hasattr(envylattice, name) for name in PUBLIC_API)
