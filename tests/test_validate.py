"""Whole-market validation: the structural pass."""

from __future__ import annotations

from envylattice import Contract, DoctorSpec, HospitalSpec, Market, ResponsiveDoctor, validate_market


def test_duplicate_ids_are_reported_once_each_in_order():
    doctors = tuple(
        DoctorSpec(id=i, choice=ResponsiveDoctor(quota=1, ranking=()))
        for i in ("d2", "d1", "d2", "d1", "d1", "z")
    )
    hospitals = tuple(HospitalSpec(id=i, quota=1, ranking=()) for i in ("h1", "z", "h1"))
    contracts = (
        Contract(id="x1", doctor="d1", hospital="h1"),
        Contract(id="x1", doctor="d1", hospital="h1"),
        Contract(id="x2", doctor="d2", hospital="h1"),
    )
    report = validate_market(Market(doctors=doctors, hospitals=hospitals, contracts=contracts))
    assert not report.ok
    assert all(e.prop == "structure" and e.severity == "fatal" for e in report.entries)
    assert [(e.agent, e.agent_kind, e.detail) for e in report.entries] == [
        ("x1", "market", "duplicate contract id x1"),
        ("d1", "doctor", "duplicate doctor id d1"),
        ("d2", "doctor", "duplicate doctor id d2"),
        ("h1", "hospital", "duplicate hospital id h1"),
        ("z", "market", "id z names both a doctor and a hospital"),
    ]
