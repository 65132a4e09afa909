"""One slow run of the observe-then-price mechanism, written from the rules
the README and the ``mechanism`` module docstring state, which the engine is
checked against (``test_mechanism._engine_against_reference``).

It shares no code with the engine. It builds its own tie keys, draws with
the stdlib's ``shuffle`` and ``randrange``, sorts the observed sub-market one
key per slot unit, finds the threshold location by an exact search, serves
one trade per loop step with a pay target per user, builds one event per
post-observation arrival (``reference_log``), and recounts the idle users
and slots at every event (``reference_idle``), which the outcome no longer
holds. Its outcome keeps, as the engine's does, only the events that traded
or paid, each at its arrival's position. From the package it takes only the
types an outcome is made of, and ``derive_r``; its outcome has no view,
which takes no part in equality.

``behaviour_digest`` is the behaviour pin: a sha256 over what runs decided,
built from their outcomes' types and from no writer, so a change to the
report format leaves it where it is.
"""

import hashlib
import json
import random
from fractions import Fraction

from observeprice import ArrivalEvent, MechanismOutcome, SlotRef, Thresholds, TieKey, Trade, UserRef, derive_r


def _keys(instance, reports):
    """Each mediator's reported users as ``(key, user)`` pairs, key
    ``(cost, rank, index)``, and each advertiser's ``(value, rank,
    capacity)``: slot j keys ``(value, rank, j)``. A rank is the entity's
    place in the tie order."""
    rank = {e: i for i, e in enumerate(instance.tie_order)}
    users = {
        m: [(TieKey(c, rank[m], i), UserRef(m, i)) for i, c in enumerate(costs)]
        for m, costs in reports.mediator_costs.items()
    }
    blocks = {a: (value, rank[a], cap) for a, (cap, value) in reports.advertiser_slots.items()}
    return users, blocks


def reference_thresholds(instance, reports, observed, r, alpha):
    """The price pair off the canonical assignment of the ``observed``
    sub-market: its users by increasing key against its slots by decreasing
    key, paired while the slot key exceeds the user key, s pairs. A block
    gives only its top min(capacity, users) slots, since no prefix pairs
    more. The location k is the least m with (s - m)^3 <= (2s/r)^3 * alpha,
    that is ceil(s - 2s/r * alpha^(1/3)); k <= 0 is the dummy pair."""
    users, blocks = _keys(instance, reports)
    user_keys = sorted(k for m in observed if m in users for k, _ in users[m])
    slot_keys = sorted(
        (TieKey(value, rank, j) for a, (value, rank, cap) in blocks.items() if a in observed
         for j in range(cap - min(cap, len(user_keys)), cap)),
        reverse=True,
    )
    s = 0
    while s < min(len(user_keys), len(slot_keys)) and slot_keys[s] > user_keys[s]:
        s += 1
    bound = (Fraction(2 * s) / r) ** 3 * alpha
    k = next(m for m in range(s + 1) if (s - m) ** 3 <= bound)
    if k == 0:
        return Thresholds(None, None, None, s)
    return Thresholds(user_keys[k - 1], slot_keys[k - 1], k, s)


def reference_log(instance, reports, config):
    """``run_mechanism(instance, reports, config)`` from the rules, one trade
    per loop step, and its dense event log: one event per post-observation
    arrival, an idle one with no trades and no pay steps."""
    return _reference(instance, reports, config)[:2]


def reference_idle(instance, reports, config):
    """Per event of ``reference_log``, the assignable users and slots that
    have arrived and are not yet traded."""
    return _reference(instance, reports, config)[2]


def behaviour_digest(outcomes):
    """sha256 over what each run of ``outcomes`` decided, one canonical JSON
    row per run, built from the outcome's types and no writer: the arrival
    order and the observation count; the thresholds' keys (amount, rank,
    within-index, or None), location, observed size and whether they were
    injected; each decision's position, its trades (user, slot, charge,
    payment) and its pay steps; and the gain from trade. It reads
    ``decisions`` only, and leaves out each decision's ``arrival``, which
    repeats the entity at its position."""
    digest = hashlib.sha256()
    for o in outcomes:
        t = o.thresholds
        keys = [None if k is None else [k.amount, k.entity_rank, k.within_index] for k in (t.user_key, t.slot_key)]
        row = [
            [str(e) for e in o.arrival_order],
            o.observation_count,
            [*keys, t.location, t.observed_size, t.injected],
            [
                [i, [[str(x.user), str(x.slot), x.charge, x.payment] for x in e.trades], [[str(u), a] for u, a in e.pay_steps]]
                for i, e in o.decisions
            ],
            o.gft,
        ]
        digest.update(json.dumps(row, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def _reference(instance, reports, config):
    """``reference_log``'s outcome and events and ``reference_idle``'s
    counts."""
    alpha = Fraction(config.alpha)
    r = derive_r(alpha) if config.r is None else Fraction(config.r)
    rng = random.Random(config.seed)
    if config.forced_arrival_order is None:
        order = [m.id for m in instance.mediators] + [a.id for a in instance.advertisers]
        rng.shuffle(order)
    else:
        order = list(config.forced_arrival_order)
    t = config.forced_observation_count
    if t is None:
        t = sum(rng.randrange(r.denominator) < r.numerator for _ in order)
    if config.threshold_override is None:
        thresholds = reference_thresholds(instance, reports, set(order[:t]), r, alpha)
    else:
        thresholds = Thresholds(*config.threshold_override, None, 0, injected=True)

    users, blocks = _keys(instance, reports)
    user_key, slot_key = thresholds.user_key, thresholds.slot_key
    supply = {}  # arrived entity -> its unassigned assignable users (by key) or slot indices
    assigned, target, events, idle = {}, {}, [], []
    for entity in order[t:]:
        if entity.kind == "mediator":
            supply[entity] = sorted(p for p in users[entity] if user_key is not None and p[0] < user_key)
            assigned[entity] = []
        else:
            value, rank, cap = blocks[entity]
            if slot_key is None or (value, rank) < slot_key[:2]:
                first = cap
            elif (value, rank) > slot_key[:2]:
                first = 0
            else:
                first = min(cap, max(0, slot_key.within_index + 1))
            supply[entity] = range(first, cap)
        trades, steps = [], []
        while supply[entity]:
            front = next((e for e in supply if e.kind != entity.kind and supply[e]), None)
            if front is None:
                break
            m, a = (entity, front) if entity.kind == "mediator" else (front, entity)
            (_, user), j = supply[m].pop(0), supply[a][0]
            supply[a] = supply[a][1:]
            charge, payment = slot_key.amount, user_key.amount
            trades.append(Trade(user, SlotRef(a, j), charge, charge if config.variant == "pay_slot_value" else payment))
            assigned[m].append(user)
            if config.variant != "skip_user_payment_updates":
                owed = supply[m][0][0].amount if supply[m] else payment
                for u in assigned[m]:
                    if target.get(u, 0) != owed:
                        target[u] = owed
                        steps.append((u, owed))
        events.append(ArrivalEvent(arrival=entity, trades=tuple(trades), pay_steps=tuple(steps)))
        idle.append(tuple(sum(len(s) for e, s in supply.items() if e.kind == kind) for kind in ("mediator", "advertiser")))

    costs = {u: k.amount for pairs in users.values() for k, u in pairs}
    gft = sum(blocks[x.slot.advertiser][0] - costs[x.user] for e in events for x in e.trades)
    decisions = tuple((i, e) for i, e in enumerate(events) if e.trades or e.pay_steps)
    return MechanismOutcome(alpha, r, tuple(order), t, thresholds, decisions, gft, view=None), tuple(events), idle
