"""Canonical assignment vs a brute-force optimum oracle."""

import random
from fractions import Fraction
from itertools import takewhile

import pytest

from observeprice import (
    MICRO,
    SlotRef,
    brute_force_optimal_gft,
    canonical_assignment,
    ceil_minus_cbrt,
    compute_thresholds,
    gain_from_trade,
    matched_family,
    optimal_gain,
    report_view,
    tau,
    true_view,
)
from conftest import build_instance, desk_instance, organic_instance, per_unit_canonical, random_reports


def _canon(inst):
    view = true_view(inst)
    return canonical_assignment(view.all_users, view.blocks, view), view


def test_zip_stops_at_first_unprofitable_pair():
    # users 1, 3, 6 against slots 5, 4, 2: pairs (1,5), (3,4) trade, (6,2) does not
    inst = build_instance([[1, 3, 6]], [(1, 5), (1, 4), (1, 2)], seed=0)
    canon, view = _canon(inst)
    assert canon.size == 2
    assert gain_from_trade(canon.ordered_pairs, view) == (5 - 1) + (4 - 3)


def test_two_by_two_gain():
    inst = build_instance([[1, 2]], [(1, 10), (1, 9)], seed=0)
    canon, view = _canon(inst)
    assert canon.size == 2
    assert gain_from_trade(canon.ordered_pairs, view) == 16


def test_tau_counts_only_profitable_prefix():
    inst = build_instance([[1], [2], [3], [4]], [(1, 10), (1, 9), (1, 8), (1, 0)], seed=0)
    assert tau(inst) == 3


def _tie_heavy_instance(seed, min_users=1):
    """Amounts drawn from {0, 1, 2, 3}, so most comparisons fall to the tie
    order, and capacities that can exceed the user count."""
    rng = random.Random(seed)
    costs = [[rng.randrange(4) for _ in range(rng.randint(min_users, 3))] for _ in range(rng.randint(1, 4))]
    slots = [(rng.randint(1, 6), rng.randrange(4)) for _ in range(rng.randint(1, 4))]
    return build_instance(costs, slots, seed=seed)


def test_tau_from_keys_matches_the_canonical_assignment_on_the_true_view():
    instances = [desk_instance(s) for s in range(30)]
    instances += [_tie_heavy_instance(s) for s in range(200)]
    instances += [organic_instance(s) for s in range(3)]
    instances += [matched_family(Fraction(1, d), seed=s) for d in (5, 10, 20, 40, 80, 160) for s in range(2)]
    zero = [build_instance([[5, 7]], [(3, 4)]), build_instance([[2]], [(1, 0)]), build_instance([[3], [4]], [(2, 1)], seed=1)]
    for inst in instances + zero:
        assert tau(inst) == _canon(inst)[0].size
    assert [tau(inst) for inst in zero] == [0, 0, 0]
    assert sum(1 for inst in instances if tau(inst) == 0) > 0  # tie-heavy draws include tau = 0


def _tuple_sort_tau(inst):
    """tau by one sort of ``(cost, rank, index)`` user tuples against every
    slot's ``(value, rank, j)``, counting the leading pairs that trade."""
    rank = inst.rank
    users = sorted((c, rank(m.id), i) for m in inst.mediators for i, c in enumerate(m.user_costs))
    slots = sorted(((a.value, rank(a.id), j) for a in inst.advertisers for j in range(a.capacity)), reverse=True)
    return sum(1 for _ in takewhile(lambda pair: pair[1] > pair[0], zip(users, slots)))


def test_tau_equals_the_tuple_sort_rule_with_ties_and_empty_mediators():
    instances = [_tie_heavy_instance(s, min_users=0) for s in range(400)]
    assert sum(not m.user_costs for inst in instances for m in inst.mediators) > 100
    instances += [desk_instance(s) for s in range(10)] + [matched_family(Fraction(1, 20), seed=s) for s in range(3)]
    for inst in instances:
        assert tau(inst) == _tuple_sort_tau(inst)


def test_tau_reads_only_the_slots_that_can_meet_a_user():
    inst = build_instance([[1 * MICRO, 2 * MICRO]], [(10**12, 5 * MICRO), (10**12, 1 * MICRO)])
    assert tau(inst) == 2


def test_pairs_are_cheapest_user_to_highest_slot():
    inst = build_instance([[3, 1]], [(1, 4), (1, 9)], seed=0)
    canon, view = _canon(inst)
    (u0, s0), (u1, s1) = canon.ordered_pairs
    assert view.user_costs[u0] == 1 and view.slot_value(s0) == 9
    assert view.user_costs[u1] == 3 and view.slot_value(s1) == 4


def test_locations_are_one_indexed():
    inst = build_instance([[1, 2]], [(2, 9)], seed=0)
    canon, view = _canon(inst)
    assert view.user_costs[canon.user_at(1)] == 1
    assert view.user_costs[canon.user_at(2)] == 2
    with pytest.raises(ValueError):
        canon.user_at(0)
    with pytest.raises(ValueError):
        canon.slot_at(3)


def test_empty_sides():
    inst = build_instance([[5]], [(1, 2)], seed=0)  # no profitable pair
    canon, _ = _canon(inst)
    assert canon.size == 0
    assert optimal_gain(inst) == 0


def test_equal_cost_and_value_does_not_trade():
    """A pair needs slot key strictly above user key; equal amounts resolve
    by entity rank, so a trade can still happen when ranks line up."""
    inst = build_instance([[5]], [(1, 5)], seed=0)
    canon, view = _canon(inst)
    u = view.all_users[0]
    s = view.all_slots[0]
    expected = 1 if view.user_key(u) < view.slot_key(s) else 0
    assert canon.size == expected
    assert optimal_gain(inst) == 0  # either way the margin is zero


def test_matches_brute_force_on_random_instances():
    """Seeded sweep against exhaustive search, amounts drawn tiny to force ties."""
    rng = random.Random(42)
    for trial in range(300):
        n_m = rng.randint(1, 3)
        n_a = rng.randint(1, 3)
        inst = build_instance(
            [[rng.randrange(6) for _ in range(rng.randint(1, 2))] for _ in range(n_m)],
            [(rng.randint(1, 2), rng.randrange(6)) for _ in range(n_a)],
            seed=trial,
        )
        view = true_view(inst)
        canon = canonical_assignment(view.all_users, view.blocks, view)
        got = gain_from_trade(canon.ordered_pairs, view)
        want = brute_force_optimal_gft(view.all_users, view.all_slots, view)
        assert got == want, f"trial {trial}: canonical {got} != brute force {want}"


def test_optimal_gain_equals_brute_force_on_subsets():
    """Canonical restricted to entity subsets (the observed sub-market case)."""
    rng = random.Random(9)
    for trial in range(100):
        inst = build_instance(
            [[rng.randrange(8) for _ in range(2)] for _ in range(3)],
            [(2, rng.randrange(8)) for _ in range(2)],
            seed=trial,
        )
        view = true_view(inst)
        meds = [m.id for m in inst.mediators if rng.random() < 0.5]
        ads = [a.id for a in inst.advertisers if rng.random() < 0.5]
        users = view.users_of(meds)
        canon = canonical_assignment(users, ads, view)
        got = gain_from_trade(canon.ordered_pairs, view)
        assert got == brute_force_optimal_gft(users, [b for b in view.all_slots if b.advertiser in ads], view)


def test_brute_force_caps_problem_size():
    inst = build_instance([[1] * 9], [(9, 5)], seed=0)
    view = true_view(inst)
    with pytest.raises(ValueError):
        brute_force_optimal_gft(view.all_users, view.all_slots, view)


def test_block_rule_matches_the_per_unit_rule_on_random_sub_markets():
    """The profitable prefix over slot blocks against every slot ref sorted
    by key and zipped: equal pairs, sorted orders, locations and thresholds
    on random sub-markets of random reports, and equal tau on the truth."""
    rng = random.Random(2016)
    sizes = set()
    for trial in range(400):
        inst = _tie_heavy_instance(trial) if trial % 2 else desk_instance(trial)
        view = report_view(inst, random_reports(inst, rng))
        meds = [m.id for m in inst.mediators if rng.random() < 0.7]
        ads = [a.id for a in inst.advertisers if rng.random() < 0.7]
        users = view.users_of(meds)
        got = canonical_assignment(users, ads, view)
        pairs, sorted_users, sorted_slots = per_unit_canonical(users, ads, view)
        got_slots = tuple(SlotRef(b.advertiser, j) for b in got.sorted_blocks for j in reversed(range(b.capacity)))
        assert (got.size, got.ordered_pairs, got.sorted_users, got_slots) == (
            len(pairs), pairs, sorted_users, sorted_slots
        ), trial
        assert [(got.user_at(k), got.slot_at(k)) for k in range(1, got.size + 1)] == list(pairs)
        sizes.add((len(pairs) == min(len(users), len(sorted_slots)), len(pairs) > 0))
        # thresholds at a location picked by a small alpha, from the same pairs
        alpha, r = rng.choice(((Fraction(1, 10**6), Fraction(1, 2)), (Fraction(1, 1000), Fraction(1, 3))))
        th = compute_thresholds(view, {*meds, *ads}, r, alpha)
        k = max(0, ceil_minus_cbrt(len(pairs), Fraction(2 * len(pairs)) / r, alpha))
        want = (None, None) if k == 0 else (view.user_key(pairs[k - 1][0]), view.slot_key(pairs[k - 1][1]))
        assert (th.user_key, th.slot_key, th.observed_size) == (*want, len(pairs)), trial
        truth = true_view(inst)
        assert tau(inst) == len(per_unit_canonical(truth.all_users, truth.blocks, truth)[0])
    assert sizes == {(True, True), (False, True), (True, False), (False, False)}
