"""Core market model: ids, tie keys, views, gain from trade, validation."""

import random
from fractions import Fraction

import pytest

from observeprice import (
    EntityId,
    Instance,
    MediatorSpec,
    AdvertiserSpec,
    ReportProfile,
    TieKey,
    UserRef,
    SlotBlock,
    SlotRef,
    advertiser_id,
    from_units,
    gain_from_trade,
    mediator_id,
    random_tie_order,
    report_view,
    true_view,
    validate_instance,
)
from observeprice.market import _build_view
from conftest import build_instance, desk_instance, organic_instance, worked_example


def test_money_from_units():
    assert from_units(5) == 5_000_000
    assert from_units(0) == 0


def test_entity_id_str_and_parse():
    assert str(mediator_id(0)) == "m0"
    assert str(advertiser_id(3)) == "a3"
    assert EntityId.parse("m12") == mediator_id(12)
    assert EntityId.parse("a0") == advertiser_id(0)
    assert type(EntityId.parse("a0")) is EntityId


@pytest.mark.parametrize("bad", ["", "x3", "m", "m-1", "mm3", "3", "m01", "m\u0663"])
def test_entity_id_parse_rejects(bad):
    with pytest.raises(ValueError):
        EntityId.parse(bad)


def test_entity_id_kind_checked():
    with pytest.raises(ValueError):
        EntityId("broker", 0)
    with pytest.raises(ValueError):
        EntityId("mediator", -1)


@pytest.mark.parametrize("kind, make, prefix", [("mediator", mediator_id, "m"), ("advertiser", advertiser_id, "a")])
def test_entity_id_contract(kind, make, prefix):
    e = EntityId(kind, 3)
    assert (e.kind, e.index) == (kind, 3)
    assert e == make(3) and hash(e) == hash(make(3))
    assert e != make(4) and len({e, make(3), make(4)}) == 2
    assert make(2) < e < make(10)  # numeric index order, not text order
    assert advertiser_id(99) < mediator_id(0)  # kind orders first
    assert str(e) == f"{prefix}3" and EntityId.parse(str(e)) == e
    assert EntityId.parse(f"{prefix}10") == make(10)
    for ref in (UserRef(e, 3), SlotRef(e, 3), UserRef(mediator_id(3), 3), SlotRef(advertiser_id(3), 3)):
        assert e != ref and ref != e
    with pytest.raises(ValueError):
        EntityId(kind, -1)
    with pytest.raises(ValueError):
        EntityId(prefix, 0)
    inst = build_instance([[1], [2]], [(1, 9), (1, 9)], seed=0)
    assert inst.mediator(mediator_id(1)).id == mediator_id(1)
    assert inst.advertiser(advertiser_id(1)).id == advertiser_id(1)
    with pytest.raises(KeyError):
        (inst.advertiser if kind == "mediator" else inst.mediator)(make(0))
    with pytest.raises(KeyError):
        (inst.mediator if kind == "mediator" else inst.advertiser)(make(7))


def test_ref_str():
    assert str(UserRef(mediator_id(0), 2)) == "m0:2"
    assert str(SlotRef(advertiser_id(1), 0)) == "a1:0"


def test_view_keys_are_pairwise_distinct():
    rng = random.Random(11)
    for seed in range(20):
        inst = build_instance(
            [[rng.randrange(3) for _ in range(rng.randint(1, 3))] for _ in range(3)],
            [(rng.randint(1, 3), rng.randrange(3)) for _ in range(3)],
            seed=seed,
        )
        view = true_view(inst)
        keys = [view.user_key(u) for u in view.all_users]
        keys += [view.slot_key(s) for s in view.all_slots]
        assert len(set(keys)) == len(keys)


def test_instance_rejects_duplicate_ids():
    m = MediatorSpec(mediator_id(0), (1,))
    a = AdvertiserSpec(advertiser_id(0), 1, 5)
    with pytest.raises(ValueError):
        Instance((m, m), (a,), (m.id, a.id))


def test_instance_requires_tie_order_permutation():
    m = MediatorSpec(mediator_id(0), (1,))
    a = AdvertiserSpec(advertiser_id(0), 1, 5)
    with pytest.raises(ValueError):
        Instance((m,), (a,), (m.id,))
    with pytest.raises(ValueError):
        Instance((m,), (a,), (m.id, m.id))


def test_random_tie_order_is_permutation():
    inst = build_instance([[1], [2]], [(1, 5)], seed=0)
    rng = random.Random(123)
    order = random_tie_order(inst.entity_ids, rng)
    assert sorted(order, key=str) == sorted(inst.entity_ids, key=str)


def test_tie_order_fixes_rank_independent_of_reports():
    """Misreports change keys' amounts but never the entity rank component."""
    inst = build_instance([[4, 4], [4]], [(2, 4)], seed=9)
    truthful = ReportProfile.truthful(inst)
    deviant = truthful.with_mediator_costs(mediator_id(0), (0, 9))
    v1 = report_view(inst, truthful)
    v2 = report_view(inst, deviant)
    for u in v1.all_users:
        assert v1.user_key(u).entity_rank == v2.user_key(u).entity_rank
        assert v1.user_key(u).within_index == v2.user_key(u).within_index


def test_mediator_spec_rejects_negative_cost():
    with pytest.raises(ValueError):
        MediatorSpec(mediator_id(0), (-1,))


def test_advertiser_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        AdvertiserSpec(advertiser_id(0), 0, 5)
    with pytest.raises(ValueError):
        AdvertiserSpec(advertiser_id(0), 1, -5)


def test_truthful_reports_cover_instance():
    inst = build_instance([[1, 2], [3]], [(2, 9)], seed=1)
    reports = ReportProfile.truthful(inst)
    reports.check_covers(inst)
    assert reports.mediator_costs[mediator_id(0)] == (1, 2)
    assert reports.advertiser_slots[advertiser_id(0)] == (2, 9)


def test_check_covers_catches_missing_entity():
    inst = build_instance([[1], [3]], [(1, 9)], seed=1)
    reports = ReportProfile.truthful(inst)
    smaller = ReportProfile(
        {mediator_id(0): reports.mediator_costs[mediator_id(0)]},
        dict(reports.advertiser_slots),
    )
    with pytest.raises(ValueError):
        smaller.check_covers(inst)


def test_with_user_cost_changes_one_entry():
    inst = build_instance([[1, 2]], [(1, 9)], seed=1)
    reports = ReportProfile.truthful(inst).with_user_cost(UserRef(mediator_id(0), 1), 8)
    assert reports.mediator_costs[mediator_id(0)] == (1, 8)


def test_with_user_cost_rejects_unknown_users():
    """A negative index must not edit the last user, nor an index past the
    list raise a bare ``IndexError``: both name the unknown user."""
    inst, _ = worked_example()
    truthful = ReportProfile.truthful(inst)
    for index in (-1, 3):
        with pytest.raises(ValueError, match=rf"unknown user m0:{index}$"):
            truthful.with_user_cost(UserRef(mediator_id(0), index), 99)
    assert truthful.with_user_cost(UserRef(mediator_id(0), 2), 99).mediator_costs[mediator_id(0)] == (1, 3, 99)


def test_report_view_reflects_misreports():
    inst = build_instance([[1, 2]], [(1, 9)], seed=1)
    deviant = ReportProfile.truthful(inst).with_advertiser_slots(advertiser_id(0), 3, 4)
    view = report_view(inst, deviant)
    assert [b for b in view.all_slots if b.advertiser == advertiser_id(0)] == [SlotRef(advertiser_id(0), j) for j in range(3)]
    assert view.slot_value(SlotRef(advertiser_id(0), 0)) == 4


def test_gain_from_trade_sums_margins():
    inst = build_instance([[1, 3]], [(2, 7)], seed=0)
    view = true_view(inst)
    pairs = (
        (UserRef(mediator_id(0), 0), SlotRef(advertiser_id(0), 0)),
        (UserRef(mediator_id(0), 1), SlotRef(advertiser_id(0), 1)),
    )
    assert gain_from_trade(pairs, view) == (7 - 1) + (7 - 3)
    assert gain_from_trade(pairs[:1], view) == 6
    assert gain_from_trade(iter(pairs), view) == 10  # any iterable, read once
    assert gain_from_trade((), view) == 0


def test_gain_from_trade_rejects_dangling_refs():
    inst = build_instance([[1]], [(1, 7)], seed=0)
    view = true_view(inst)
    real = (UserRef(mediator_id(0), 0), SlotRef(advertiser_id(0), 0))
    ghost_user = (UserRef(mediator_id(5), 0), SlotRef(advertiser_id(0), 0))
    ghost_slot = (UserRef(mediator_id(0), 0), SlotRef(advertiser_id(0), 1))
    with pytest.raises(ValueError, match=r"unknown user m5:0$"):
        gain_from_trade((real, ghost_user), view)
    with pytest.raises(ValueError, match=r"unknown slot a0:1$"):
        gain_from_trade((real, ghost_slot), view)


def test_validate_instance_passes_balanced_market():
    inst = build_instance([[1], [2], [3]], [(1, 9), (1, 9), (1, 9)], seed=0)
    report = validate_instance(inst, Fraction(1))
    assert report.ok
    assert report.tau == 3


def test_validate_instance_flags_overweight_entities():
    inst = build_instance([[1], [2], [3]], [(3, 9)], seed=0)
    report = validate_instance(inst, Fraction(1, 2))
    assert not report.ok
    assert any("capacity" in v for v in report.violations)


def test_validate_instance_flags_zero_tau():
    inst = build_instance([[9]], [(1, 1)], seed=0)  # cost above value, no trade
    report = validate_instance(inst, Fraction(1))
    assert not report.ok
    assert report.tau == 0


def test_validate_instance_flags_alpha_out_of_range():
    inst = build_instance([[1], [2]], [(1, 9), (1, 9)], seed=0)
    assert not validate_instance(inst, Fraction(1, 3)).ok  # below 1/tau
    assert not validate_instance(inst, Fraction(3, 2)).ok  # above 1


def _reference_view(instance, mediator_costs, advertiser_slots):
    """The view built with the NamedTuple constructors, entity by entity."""
    user_costs, user_keys, users_by_mediator = {}, {}, {}
    for m in instance.mediators:
        refs = []
        for i, c in enumerate(mediator_costs[m.id]):
            u = UserRef(m.id, i)
            user_costs[u] = c
            user_keys[u] = TieKey(c, instance.rank(m.id), i)
            refs.append(u)
        users_by_mediator[m.id] = tuple(refs)
    slot_values, slot_keys, slots_by_advertiser = {}, {}, {}
    for a in instance.advertisers:
        cap, value = advertiser_slots[a.id]
        refs = []
        for j in range(cap):
            b = SlotRef(a.id, j)
            slot_values[b] = value
            slot_keys[b] = TieKey(value, instance.rank(a.id), j)
            refs.append(b)
        slots_by_advertiser[a.id] = tuple(refs)
    return user_costs, slot_values, user_keys, slot_keys, users_by_mediator, slots_by_advertiser


def test_view_build_equals_the_constructor_reference():
    cases = []
    for inst in (desk_instance(3), organic_instance(1), build_instance([[4, 4], [4]], [(2, 4)], seed=9)):
        truthful = ReportProfile.truthful(inst)
        first_m, first_a = inst.mediators[0].id, inst.advertisers[0].id
        cases.append((inst, truthful))
        cases.append((inst, truthful.with_mediator_costs(first_m, (0, 9, 9, 2)).with_advertiser_slots(first_a, 0, 5)))
        cases.append((inst, truthful.with_mediator_costs(first_m, ()).with_advertiser_slots(first_a, 4, 0)))
    for inst, reports in cases:
        view = _build_view(inst, reports.mediator_costs, reports.advertiser_slots)
        ref = _reference_view(inst, reports.mediator_costs, reports.advertiser_slots)
        # the per-slot maps, read back from the blocks
        slots = view.all_slots
        slots_by_advertiser = {a: tuple(b for b in slots if b.advertiser == a) for a in view.blocks}
        slot_keys = {b: view.slot_key(b) for b in slots}
        slot_values = {b: view.slot_value(b) for b in slots}
        # the per-user keys, built from the costs and the mediators' ranks
        user_keys = {u: view.user_key(u) for u in view.user_costs}
        got = (view.user_costs, slot_values, user_keys, slot_keys, view.users_by_mediator, slots_by_advertiser)
        assert got == ref
        assert [list(a) for a in got] == [list(b) for b in ref]  # the same insertion order
        assert view.ranks == {e: inst.rank(e) for e in inst.tie_order}
        users = [*view.user_costs, *(u for us in view.users_by_mediator.values() for u in us)]
        assert all(type(u) is UserRef for u in users) and all(type(b) is SlotRef for b in slots)
        assert all(type(k) is TieKey for k in (*user_keys.values(), *slot_keys.values()))
        assert all(type(b) is SlotBlock for b in view.blocks.values())


def test_view_orders_equal_a_fresh_sort():
    """``sorted_users`` and ``sorted_blocks`` against ``sorted`` of the
    view's keys and blocks, on truthful views and report views whose
    amounts tie (so ranks decide), with zero-capacity blocks, mediators
    that report no users and a claim of 10^12 slots. Each order is built
    once per view."""
    rng = random.Random(7)
    cases = []
    for seed in range(60):
        inst = desk_instance(seed)
        truthful = ReportProfile.truthful(inst)
        cases.append((inst, truthful))
        reports = truthful
        for m in inst.mediators:
            reports = reports.with_mediator_costs(m.id, [rng.randrange(3) * 10**6 for _ in range(rng.randint(0, 3))])
        for a in inst.advertisers:
            reports = reports.with_advertiser_slots(a.id, rng.choice((0, 1, 2, 10**12)), rng.randrange(3) * 10**6)
        cases.append((inst, reports))
    zero_users = build_instance([[1, 3], []], [(1, 7), (1, 6)], seed=0)
    cases.append((zero_users, ReportProfile.truthful(zero_users)))
    seen = set()
    for inst, reports in cases:
        view = report_view(inst, reports)
        assert view.sorted_users == tuple(sorted(view.all_users, key=view.user_key))
        assert view.sorted_blocks == tuple(sorted(view.blocks.values(), reverse=True))
        assert view.sorted_users is view.sorted_users and view.sorted_blocks is view.sorted_blocks
        costs = [view.user_costs[u] for u in view.all_users]
        values = [b.value for b in view.blocks.values()]
        caps = [b.capacity for b in view.blocks.values()]
        seen |= {
            name
            for name, found in (
                ("cost tie", len(set(costs)) < len(costs)),
                ("value tie", len(set(values)) < len(values)),
                ("zero capacity", 0 in caps),
                ("huge capacity", 10**12 in caps),
                ("no users", not all(view.users_by_mediator.values())),
            )
            if found
        }
    assert seen == {"cost tie", "value tie", "zero capacity", "huge capacity", "no users"}


_M0, _M1, _A0, _A1 = mediator_id(0), mediator_id(1), advertiser_id(0), advertiser_id(1)


@pytest.mark.parametrize(
    "costs, slots, message",
    [
        ({_M0: (1, 2), _M1: (3, -1)}, {_A0: (1, 5)}, "m1: reported costs must be >= 0"),
        ({_M0: (-1,), _A0: (1,)}, {}, "m0: reported costs must be >= 0"),
        ({_A0: (1,), _M0: (-1,)}, {}, "a0 is not a mediator"),
        ({_M0: (1,)}, {_A0: (1, 5), _A1: (-1, 5)}, "a1: reported capacity and value must be >= 0"),
        ({_M0: (1,)}, {_A0: (0, -1)}, "a0: reported capacity and value must be >= 0"),
        ({_M0: (1,)}, {_M1: (1, 5), _A0: (-1, 5)}, "m1 is not an advertiser"),
        ({_M0: (1,), _M1: (-2,)}, {_M0: (1, 5)}, "m1: reported costs must be >= 0"),
        ({_M0: (1,), _A0: (1,)}, {_A1: (1, 5)}, "a0 is not a mediator"),
        ({_M0: (1,)}, {_A1: (1, 5), _M1: (1, 5)}, "m1 is not an advertiser"),
    ],
    ids=["negative-cost", "cost-before-kind", "kind-before-cost", "negative-capacity", "negative-value",
         "kind-before-capacity", "mediators-before-advertisers", "advertiser-as-mediator", "mediator-as-advertiser"],
)
def test_report_profile_names_the_first_entry_at_fault(costs, slots, message):
    """The whole-map check passes a fault on to the walk, which names the
    first entry at fault in map order, mediators first."""
    with pytest.raises(ValueError) as err:
        ReportProfile(costs, slots)
    assert str(err.value) == message


def test_report_profile_takes_zeros_and_empty_maps():
    ReportProfile({}, {})
    ReportProfile({_M0: (), _M1: (0, 0)}, {_A0: (0, 0)})
