"""Shared instance builders and corpora for the test suite, and the
per-unit canonical rule the slot-block code of ``canonical`` is checked
against. The engine's one reference run is ``reference.py``."""

import random
from fractions import Fraction

import pytest

from observeprice import (
    AdvertiserSpec,
    GeneratorConfig,
    Instance,
    MechanismConfig,
    MediatorSpec,
    ReportProfile,
    SlotRef,
    TieKey,
    advertiser_id,
    constant,
    generate_instance,
    matched_family,
    mediator_id,
    random_tie_order,
    threshold_keys_from_amounts,
    uniform,
)

MICRO = 10**6


def build_instance(mediator_costs, advertiser_slots, seed=0):
    """Instance from plain python data: [[costs...]...], [(cap, value)...]."""
    meds = tuple(
        MediatorSpec(mediator_id(i), tuple(costs)) for i, costs in enumerate(mediator_costs)
    )
    ads = tuple(
        AdvertiserSpec(advertiser_id(i), cap, value)
        for i, (cap, value) in enumerate(advertiser_slots)
    )
    ids = [m.id for m in meds] + [a.id for a in ads]
    return Instance(meds, ads, random_tie_order(ids, random.Random(seed)))


def worked_example():
    """Three-mediator instance whose standard run is fully known by hand.

    m0 holds users at costs 1, 3, 5 and a0 brings two slots at value 7. The
    remaining entities only exist to raise the optimal trade count so the
    per-entity market share cap holds; their users cost 5 (at the injected
    user threshold 4, never assignable) and their slots are worth 6 (not
    strictly above the injected slot threshold 6, never assignable).
    """
    instance = build_instance(
        [[1, 3, 5], [5], [5]],
        [(2, 7), (1, 6), (1, 6)],
        seed=3,
    )
    config = MechanismConfig(
        alpha=Fraction(3, 4),
        threshold_override=threshold_keys_from_amounts(4, 6, instance),
        forced_arrival_order=(
            mediator_id(0),
            advertiser_id(0),
            mediator_id(1),
            mediator_id(2),
            advertiser_id(1),
            advertiser_id(2),
        ),
        forced_observation_count=0,
    )
    return instance, config


def zero_user_instance():
    """Two mediators, m1 with no users at all: a valid instance at alpha = 1."""
    return build_instance([[1, 3], []], [(1, 7), (1, 6)], seed=0)


def desk_instance(seed, n_mediators=3, n_advertisers=3):
    """Small random instance valid at alpha = 1, for injected-threshold runs."""
    return generate_instance(
        GeneratorConfig(
            n_mediators=n_mediators,
            n_advertisers=n_advertisers,
            users_per_mediator=uniform(1, 3),
            capacity=uniform(1, 3),
            cost=uniform(0, 12 * MICRO),
            value=uniform(0, 12 * MICRO),
            alpha=Fraction(1),
            seed=seed,
        )
    )


def desk_config(instance, seed, variant="standard"):
    """Injected mid-range thresholds and a short observation phase."""
    return MechanismConfig(
        alpha=Fraction(1),
        r=Fraction(1, 10),
        seed=seed,
        threshold_override=threshold_keys_from_amounts(6 * MICRO, 7 * MICRO, instance),
        variant=variant,
    )


def organic_instance(seed, per_side=80):
    """Every value beats every cost, so tau equals the side count and the
    computed thresholds are non-dummy at alpha = 1/70 (8 * alpha < r**3)."""
    return generate_instance(
        GeneratorConfig(
            n_mediators=per_side,
            n_advertisers=per_side,
            users_per_mediator=constant(1),
            capacity=constant(1),
            cost=uniform(0, MICRO),
            value=uniform(MICRO + 1, 2 * MICRO),
            alpha=Fraction(1, 70),
            seed=seed,
        )
    )


ORGANIC_ALPHA = Fraction(1, 70)

# (alpha, r) pairs for the threshold location and the core length: alpha =
# 1/64 with r = 1/2 puts both on their exact zero boundary, 1/65 just inside.
LOCATION_GRID = tuple(
    (Fraction(alpha), r)
    for alpha in (1, Fraction(1, 8), Fraction(1, 27), Fraction(1, 64), Fraction(1, 65), Fraction(1, 80),
                  Fraction(3, 700), Fraction(1, 1000), Fraction(1, 10**6))
    for r in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(7, 25), Fraction(1, 10), Fraction(1, 50))
)


def replay_corpus():
    """The 100 (instance, config) runs whose reports criterion 7 replays."""
    cases = []
    for s in range(40):
        inst = desk_instance(s)
        cases.append((inst, desk_config(inst, seed=s)))
    for s in range(10):
        inst = desk_instance(200 + s)
        variant = "pay_slot_value" if s % 2 else "skip_user_payment_updates"
        cases.append((inst, desk_config(inst, seed=s, variant=variant)))
    for s in range(5):
        inst = organic_instance(s)
        cases.extend((inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=k)) for k in range(5))
    for s in range(10):
        cases.append((matched_family(Fraction(1, 20), seed=s), MechanismConfig(alpha=Fraction(1, 20), seed=s)))
    for s in range(15):
        cases.append((matched_family(Fraction(1, 80), seed=s % 3), MechanismConfig(alpha=Fraction(1, 80), seed=s)))
    return cases


def sandwich_corpus():
    """The 1000 (instance, config) truthful runs whose diagnostics criterion 8
    checks; the runs of one instance are consecutive."""
    runs = []
    for s in range(150):
        inst = desk_instance(s)
        runs.extend((inst, desk_config(inst, seed=k)) for k in range(2))
    for s in range(100):
        inst = desk_instance(300 + s)
        runs.extend((inst, MechanismConfig(alpha=Fraction(1), seed=k)) for k in range(2))
    for s in range(30):
        inst = organic_instance(s)
        runs.extend((inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=k)) for k in range(10))
    for s in range(10):
        inst = matched_family(Fraction(1, 20), seed=s)
        runs.extend((inst, MechanismConfig(alpha=Fraction(1, 20), seed=k)) for k in range(10))
    for s in range(10):
        inst = matched_family(Fraction(1, 80), seed=s)
        runs.extend((inst, MechanismConfig(alpha=Fraction(1, 80), seed=k)) for k in range(10))
    return runs


@pytest.fixture(scope="session")
def worked():
    instance, config = worked_example()
    return instance, config


def random_reports(inst, rng, unit=1):
    """Reported costs and capacities around the truth: amounts from a few
    multiples of ``unit`` so ties fall to the tie order, and capacities 0, 1
    and above the user count."""
    n_users = sum(len(m.user_costs) for m in inst.mediators)
    reports = ReportProfile.truthful(inst)
    for m in inst.mediators:
        if rng.random() < 0.5:
            reports = reports.with_mediator_costs(m.id, [rng.randrange(6) * unit for _ in range(rng.randint(0, 4))])
    for a in inst.advertisers:
        cap = rng.choice((0, 1, 2, n_users + 1, n_users + rng.randint(2, 9)))
        reports = reports.with_advertiser_slots(a.id, cap, rng.randrange(6) * unit)
    return reports


# -- the per-unit canonical rule ---------------------------------------------------
# Every slot is one ref with one key: the rule the slot-block code must agree with.


def per_unit_slot_keys(view, advertisers):
    """One ``TieKey`` per unit of each advertiser's capacity, keyed by its ref."""
    keys = {}
    for a in advertisers:
        value, rank, capacity, _ = view.blocks[a]
        for j in range(capacity):
            keys[SlotRef(a, j)] = TieKey(value, rank, j)
    return keys


def per_unit_pairs(sorted_users, sorted_slots, user_key, slot_keys):
    """Zip the two sorted orders, keeping pairs while the slot key exceeds the user key."""
    pairs = []
    for u, b in zip(sorted_users, sorted_slots):
        if not slot_keys[b] > user_key(u):
            break
        pairs.append((u, b))
    return tuple(pairs)


def per_unit_canonical(users, advertisers, view):
    """Sort every user and every slot ref by key and zip the profitable
    prefix. Returns the pairs, the sorted users and the sorted slots."""
    slot_keys = per_unit_slot_keys(view, advertisers)
    sorted_users = tuple(sorted(users, key=view.user_key))
    sorted_slots = tuple(sorted(slot_keys, key=slot_keys.__getitem__, reverse=True))
    return per_unit_pairs(sorted_users, sorted_slots, view.user_key, slot_keys), sorted_users, sorted_slots
