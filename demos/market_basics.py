"""
Markets, canonical assignments, and the offline optimum
=======================================================

Build a three-sided market by hand, compute its gain-from-trade optimum with
the canonical greedy assignment, and cross-check against exhaustive search.
"""

import random

from observeprice import (
    AdvertiserSpec,
    Instance,
    MediatorSpec,
    advertiser_id,
    brute_force_optimal_gft,
    canonical_assignment,
    from_units,
    gain_from_trade,
    mediator_id,
    money_to_text,
    random_tie_order,
    tau,
    true_view,
)

# 1. Two mediators hold ordered lists of users (each user has a service cost);
#    two advertisers bring identical slots (capacity x value).
mediators = (
    MediatorSpec(mediator_id(0), (from_units(1), from_units(4))),
    MediatorSpec(mediator_id(1), (from_units(2),)),
)
advertisers = (
    AdvertiserSpec(advertiser_id(0), capacity=2, value=from_units(9)),
    AdvertiserSpec(advertiser_id(1), capacity=1, value=from_units(3)),
)
ids = [m.id for m in mediators] + [a.id for a in advertisers]
instance = Instance(mediators, advertisers, random_tie_order(ids, random.Random(0)))
print(f"market: {len(mediators)} mediators, {len(advertisers)} advertisers")

# 2. The canonical assignment sorts users by increasing cost and each
#    advertiser's block of slots by decreasing value, then keeps pairs while
#    the slot strictly outbids the user. Its size is tau, the market's
#    optimal trade count.
view = true_view(instance)
cano = canonical_assignment(view.all_users, view.blocks, view)
print(f"tau = {tau(instance)}")
for k in range(1, cano.size + 1):
    u, b = cano.user_at(k), cano.slot_at(k)
    print(
        f"  pair {k}: user {u} (cost {money_to_text(view.user_costs[u])})"
        f" <- slot {b} (value {money_to_text(view.slot_value(b))})"
    )

# 3. The greedy result is exactly optimal: exhaustive search over every
#    partial assignment finds the same gain from trade.
greedy = gain_from_trade(cano.ordered_pairs, view)
exhaustive = brute_force_optimal_gft(view.all_users, view.all_slots, view)
print(f"canonical GfT = {money_to_text(greedy)}, brute force = {money_to_text(exhaustive)}")
assert greedy == exhaustive
