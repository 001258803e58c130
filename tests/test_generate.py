"""Seeded market generator."""

from __future__ import annotations

import hashlib

import pytest

from envylattice import (
    GenParams,
    MarketError,
    ResponsiveDoctor,
    generate_responsive_market,
    market_to_json,
    market_to_text,
    validate_market,
)


def test_same_seed_same_market():
    p = GenParams(doctors=3, hospitals=2, contracts=8, seed=42)
    a = market_to_json(generate_responsive_market(p))
    b = market_to_json(generate_responsive_market(p))
    assert a == b


def test_different_seeds_differ():
    base = dict(doctors=3, hospitals=3, contracts=9)
    a = market_to_json(generate_responsive_market(GenParams(**base, seed=1)))
    b = market_to_json(generate_responsive_market(GenParams(**base, seed=2)))
    assert a != b


def test_shape():
    m = generate_responsive_market(GenParams(doctors=2, hospitals=3, contracts=7, seed=5))
    assert len(m.contracts) == 7
    assert [d.id for d in m.doctors] == ["d1", "d2"]
    assert [h.id for h in m.hospitals] == ["h1", "h2", "h3"]
    assert all(c.id.startswith("c") and len(c.id) == 3 for c in m.contracts)
    assert all(isinstance(d.choice, ResponsiveDoctor) for d in m.doctors)


def test_param_validation():
    with pytest.raises(MarketError):
        GenParams(doctors=0, hospitals=1, contracts=1)
    with pytest.raises(MarketError):
        GenParams(doctors=1, hospitals=1, contracts=1, acceptability=0.0)
    with pytest.raises(MarketError):
        GenParams(doctors=1, hospitals=1, contracts=1, acceptability=1.5)
    with pytest.raises(MarketError):
        GenParams(doctors=1, hospitals=1, contracts=1, doctor_quota=(2, 1))
    with pytest.raises(MarketError):
        GenParams(doctors=1, hospitals=1, contracts=1, hospital_quota=(0, 1))


def test_full_acceptability_ranks_everything():
    p = GenParams(doctors=2, hospitals=2, contracts=8, acceptability=1.0, seed=9)
    m = generate_responsive_market(p)
    for d in m.doctors:
        assert frozenset(d.choice.ranking) == m.doctor_contracts[d.id]
    for h in m.hospitals:
        assert frozenset(h.ranking) == m.hospital_contracts[h.id]


def test_generated_markets_pass_every_axiom():
    # the quota rule is valid by construction, including aggregate demand
    for seed in range(25):
        p = GenParams(doctors=3, hospitals=3, contracts=9, seed=seed)
        report = validate_market(generate_responsive_market(p))
        assert report.ok
        assert all(e.passed for e in report.entries), [
            (e.agent, e.prop) for e in report.entries if not e.passed
        ]


def test_quota_ranges_respected():
    p = GenParams(
        doctors=4,
        hospitals=4,
        contracts=12,
        doctor_quota=(2, 3),
        hospital_quota=(1, 4),
        seed=11,
    )
    m = generate_responsive_market(p)
    assert all(2 <= d.choice.quota <= 3 for d in m.doctors)
    assert all(1 <= h.quota <= 4 for h in m.hospitals)


@pytest.mark.parametrize("params, digest", [
    # the X=22 baseline market
    (GenParams(7, 5, 22, seed=5, doctor_quota=(1, 3), hospital_quota=(1, 3)),
     "d4edb3a48dacc99ba355a3eac81c01e922ac83964ef19af7f3f8845b266c656a"),
    # the Large X=1000 market
    (GenParams(60, 40, 1000, seed=1, doctor_quota=(1, 3), hospital_quota=(1, 4)),
     "045de8f24feacf9ea818784895d68c4d9e03cfa099989dedb8d43101baa86a45"),
    # the README's `random` example
    (GenParams(3, 2, 7, seed=42),
     "1cdc3e45dd3d551012c7c4aaf37308cd5f5f779d98daa2ba15eabaf763c708c7"),
])
def test_generated_bytes_are_pinned(params, digest):
    text = market_to_text(generate_responsive_market(params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
