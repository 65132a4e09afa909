"""Shared instance builders for the test suite, the per-unit reference
rules the slot-block code is checked against, and the one-trade-at-a-time
serving loop the engine's is checked against."""

import random
from collections import deque
from fractions import Fraction
from unittest import mock

import pytest

from observeprice import (
    AdvertiserSpec,
    ArrivalEvent,
    GeneratorConfig,
    Instance,
    MechanismConfig,
    MediatorSpec,
    ReportProfile,
    SlotRef,
    Thresholds,
    TieKey,
    Trade,
    advertiser_id,
    constant,
    generate_instance,
    matched_family,
    mediator_id,
    random_tie_order,
    run_mechanism,
    threshold_keys_from_amounts,
    uniform,
)
from observeprice import mechanism

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


# -- the per-unit reference rules -------------------------------------------------
# Every slot is one ref with one key: the rules the slot-block code must agree with.


def per_unit_slot_keys(view, advertisers):
    """One ``TieKey`` per unit of each advertiser's capacity, keyed by its ref."""
    keys = {}
    for a in advertisers:
        value, rank, capacity, _ = view.blocks[a]
        for j in range(capacity):
            keys[SlotRef(a, j)] = TieKey(value, rank, j)
    return keys


def per_unit_pairs(sorted_users, sorted_slots, user_keys, slot_keys):
    """Zip the two sorted orders, keeping pairs while the slot key exceeds the user key."""
    pairs = []
    for u, b in zip(sorted_users, sorted_slots):
        if not slot_keys[b] > user_keys[u]:
            break
        pairs.append((u, b))
    return tuple(pairs)


def per_unit_canonical(users, advertisers, view):
    """Sort every user and every slot ref by key and zip the profitable
    prefix. Returns the pairs, the sorted users and the sorted slots."""
    slot_keys = per_unit_slot_keys(view, advertisers)
    sorted_users = tuple(sorted(users, key=view.user_keys.__getitem__))
    sorted_slots = tuple(sorted(slot_keys, key=slot_keys.__getitem__, reverse=True))
    return per_unit_pairs(sorted_users, sorted_slots, view.user_keys, slot_keys), sorted_users, sorted_slots


class PerUnitCanonical:
    """What a run reads of a canonical assignment, from the per-unit pairs."""

    def __init__(self, users, advertisers, view):
        self.pairs = per_unit_canonical(users, advertisers, view)[0]
        self.size = len(self.pairs)

    def user_at(self, location):
        return self.pairs[location - 1][0]

    def slot_at(self, location):
        return self.pairs[location - 1][1]


def per_unit_first_assignable(thresholds, block):
    """Filter every slot of ``block`` against the threshold, lowest index
    first; the list must be the tail of the block, and its first index is
    returned."""
    value, rank, capacity, _ = block
    key = thresholds.slot_key
    assignable = [j for j in range(capacity) if key is not None and TieKey(value, rank, j) > key]
    assert assignable == list(range(capacity - len(assignable), capacity))
    return capacity - len(assignable)


def per_unit_run(instance, reports, config):
    """``run_mechanism`` with the thresholds' canonical assignment and the
    serving loop's assignable slots taken from the per-unit rules. The
    per-unit canonical rule must run once when the run computes its
    thresholds, and not at all when they are injected."""
    calls = []

    def per_unit_within(view, entities):
        calls.append(entities)
        users = view.users_of(m for m in view.users_by_mediator if m in entities)
        return PerUnitCanonical(users, [a for a in view.blocks if a in entities], view)

    with mock.patch.object(mechanism, "canonical_within", per_unit_within), mock.patch.object(
        Thresholds, "first_assignable", per_unit_first_assignable
    ):
        outcome = run_mechanism(instance, reports, config)
    assert len(calls) == (config.threshold_override is None)
    return outcome


# -- the one-trade-at-a-time serving loop -------------------------------------------
# Each trade is one call that checks both sides' supply, takes the cheapest
# user and the lowest slot, and applies the pay rule: the loop the engine's
# runs of trades must agree with, event for event.


class ReferenceMechanismState:
    """``MechanismState`` as one trade per call; same constructor and events."""

    def __init__(self, view, thresholds, observed, variant="standard"):
        if variant not in mechanism.VARIANTS:
            raise ValueError(f"unknown engine variant {variant!r}")
        self.view = view
        self.thresholds = thresholds
        self.variant = variant
        self.observed = set(observed)
        self._queue = {}  # mediator -> assignable users, cheapest key first
        self._qpos = {}  # mediator -> how many of its queue are assigned
        self._slots = {}  # advertiser -> range of assignable slot indices left
        self._target = {}
        self._waiting = deque()
        self._idle_users = 0
        self._idle_slots = 0
        self.events = []

    def _has_supply(self, entity):
        if entity.kind == "mediator":
            return self._qpos[entity] < len(self._queue[entity])
        return bool(self._slots[entity])

    def _raise_targets(self, m, steps):
        if self.variant == "skip_user_payment_updates":
            return
        q, i = self._queue[m], self._qpos[m]
        amount = self.view.user_costs[q[i]] if i < len(q) else self.thresholds.payment
        old = self._target.get(m, 0)
        if amount != old:
            if amount < old:
                raise AssertionError("pay target decreased; engine invariant broken")
            self._target[m] = amount
            steps.extend((u, amount) for u in q[:i])
        elif amount:
            steps.append((q[i - 1], amount))

    def _execute(self, m, a, trades, steps):
        user = self._queue[m][self._qpos[m]]
        slot = SlotRef(a, self._slots[a][0])
        self._qpos[m] += 1
        self._slots[a] = self._slots[a][1:]
        self._idle_users -= 1
        self._idle_slots -= 1
        charge = self.thresholds.charge
        payment = charge if self.variant == "pay_slot_value" else self.thresholds.payment
        trades.append(Trade(user, slot, charge, payment))
        self._raise_targets(m, steps)

    def process_arrival(self, entity):
        if entity in self._queue or entity in self._slots:
            raise ValueError(f"{entity} already arrived")
        if entity in self.observed:
            raise ValueError(f"{entity} was observed; observed entities do not arrive again")
        trades, steps = [], []
        if entity.kind == "mediator":
            key = self.thresholds.user_key
            users = [u for u in self.view.users_by_mediator[entity] if key is not None and self.view.user_keys[u] < key]
            users.sort(key=lambda u: self.view.user_keys[u])
            self._queue[entity] = users
            self._qpos[entity] = 0
            self._idle_users += len(users)
        else:
            block = self.view.blocks[entity]
            first = self.thresholds.first_assignable(block)
            self._slots[entity] = range(first, block.capacity)
            self._idle_slots += block.capacity - first
        waiting = self._waiting
        while waiting and waiting[0].kind != entity.kind and self._has_supply(entity):
            front = waiting[0]
            if entity.kind == "mediator":
                self._execute(entity, front, trades, steps)
            else:
                self._execute(front, entity, trades, steps)
            if not self._has_supply(front):
                waiting.popleft()
        if self._has_supply(entity):
            waiting.append(entity)
        event = ArrivalEvent(
            arrival=entity,
            trades=tuple(trades),
            pay_steps=tuple(steps),
            unassigned_assignable_users=self._idle_users,
            unassigned_assignable_slots=self._idle_slots,
        )
        self.events.append(event)
        return event


def reference_serving_run(instance, reports, config):
    """``run_mechanism`` served by ``ReferenceMechanismState``."""
    with mock.patch.object(mechanism, "MechanismState", ReferenceMechanismState):
        return run_mechanism(instance, reports, config)
