"""Seeded random markets with quota-rule doctors.

Every generated doctor uses the greedy quota rule, which satisfies all
checked axioms including the law of aggregate demand, so generated
markets are valid by construction and suitable for theorem sweeps.
Generation is a pure function of the parameters: the same ``GenParams``
always produce the same market, byte for byte once serialized.  The
contracts are grouped by doctor and by hospital in one pass, in
contract order, so the work is linear in the contracts; the grouping
draws no random numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Contract, DoctorSpec, HospitalSpec, Market, MarketError, ResponsiveDoctor


@dataclass(frozen=True)
class GenParams:
    doctors: int
    hospitals: int
    contracts: int
    doctor_quota: tuple[int, int] = (1, 2)
    hospital_quota: tuple[int, int] = (1, 2)
    acceptability: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if min(self.doctors, self.hospitals, self.contracts) < 1:
            raise MarketError("generator needs at least one of each entity")
        if not 0.0 < self.acceptability <= 1.0:
            raise MarketError("acceptability must lie in (0, 1]")
        for lo, hi in (self.doctor_quota, self.hospital_quota):
            if not 1 <= lo <= hi:
                raise MarketError("quota ranges must satisfy 1 <= lo <= hi")


def generate_responsive_market(params: GenParams) -> Market:
    rng = random.Random(params.seed)
    doctor_ids = [f"d{i + 1}" for i in range(params.doctors)]
    hospital_ids = [f"h{j + 1}" for j in range(params.hospitals)]

    contracts = tuple(
        Contract(
            id=f"c{k + 1:02d}",
            doctor=rng.choice(doctor_ids),
            hospital=rng.choice(hospital_ids),
        )
        for k in range(params.contracts)
    )

    def acceptable_shuffle(own: list[str]) -> tuple[str, ...]:
        # random() < 1.0 always holds, so acceptability 1.0 keeps everything.
        kept = [cid for cid in own if rng.random() < params.acceptability]
        rng.shuffle(kept)
        return tuple(kept)

    # each agent's contract ids in contract order, grouped in one pass
    by_doctor: dict[str, list[str]] = {did: [] for did in doctor_ids}
    by_hospital: dict[str, list[str]] = {hid: [] for hid in hospital_ids}
    for c in contracts:
        by_doctor[c.doctor].append(c.id)
        by_hospital[c.hospital].append(c.id)

    doctors = []
    for did in doctor_ids:
        own = by_doctor[did]
        quota = rng.randint(*params.doctor_quota)
        doctors.append(
            DoctorSpec(id=did, choice=ResponsiveDoctor(quota=quota, ranking=acceptable_shuffle(own)))
        )

    hospitals = []
    for hid in hospital_ids:
        own = by_hospital[hid]
        quota = rng.randint(*params.hospital_quota)
        hospitals.append(
            HospitalSpec(id=hid, quota=quota, ranking=acceptable_shuffle(own))
        )

    return Market(doctors=tuple(doctors), hospitals=tuple(hospitals), contracts=contracts)
