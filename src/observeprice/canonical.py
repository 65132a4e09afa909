"""Offline optimum: the canonical assignment and a brute-force oracle.

The canonical assignment sorts slots by decreasing key and users by
increasing key, then keeps prefix pairs while the slot key still exceeds the
user key. Its gain from trade equals the best gain any assignment can reach,
which the brute-force enumerator below re-derives independently on small
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .market import Instance, MarketView, Money, SlotRef, UserRef, gain_from_trade, true_view


@dataclass(frozen=True)
class CanonicalAssignment:
    """Pairs plus the full sorted orders they were drawn from.

    ``ordered_pairs[i]`` matches the (i+1)-th cheapest user with the (i+1)-th
    most valuable slot; locations are 1-indexed to match that phrasing.
    """

    ordered_pairs: tuple[tuple[UserRef, SlotRef], ...]
    sorted_users: tuple[UserRef, ...]  # increasing cost key
    sorted_slots: tuple[SlotRef, ...]  # decreasing value key

    @property
    def size(self) -> int:
        return len(self.ordered_pairs)

    def user_at(self, location: int) -> UserRef:
        if not 1 <= location <= self.size:
            raise ValueError(f"location {location} outside 1..{self.size}")
        return self.ordered_pairs[location - 1][0]

    def slot_at(self, location: int) -> SlotRef:
        if not 1 <= location <= self.size:
            raise ValueError(f"location {location} outside 1..{self.size}")
        return self.ordered_pairs[location - 1][1]


def _profitable_prefix(user_keys: Iterable[tuple], slot_keys: Iterable[tuple]) -> int:
    """How many leading pairs of increasing user keys and decreasing slot keys
    trade: the slot key must strictly exceed the user key (key order, never
    "equal"). Keys are ``TieKey``s or plain ``(amount, rank, index)`` tuples,
    which order the same. Stops reading both sides at the first pair that
    does not trade."""
    count = 0
    for user_key, slot_key in zip(user_keys, slot_keys):
        if not slot_key > user_key:
            break
        count += 1
    return count


def canonical_assignment(
    users: Iterable[UserRef], slots: Iterable[SlotRef], view: MarketView
) -> CanonicalAssignment:
    """Sort users by increasing and slots by decreasing key, then pair the
    profitable prefix. Keys are distinct, so any subset of the sorted orders,
    kept in order, is sorted too: ``analysis.OfflineOptimum.pairs_within``
    filters them instead of re-sorting a sub-market."""
    sorted_users = sorted(users, key=view.user_keys.__getitem__)
    sorted_slots = sorted(slots, key=view.slot_keys.__getitem__, reverse=True)
    size = _profitable_prefix(
        map(view.user_keys.__getitem__, sorted_users), map(view.slot_keys.__getitem__, sorted_slots)
    )
    pairs = tuple(zip(sorted_users[:size], sorted_slots[:size]))
    return CanonicalAssignment(pairs, tuple(sorted_users), tuple(sorted_slots))


def tau(instance: Instance) -> int:
    """Size of the canonical assignment over the whole true market.

    Counts the profitable prefix on the true view's keys without building the
    view. Advertisers in decreasing ``(value, rank)`` order, each with its
    slot indices counting down, are already the slot keys in decreasing
    order, so slot keys are produced lazily and never more than there are
    users: a capacity costs nothing beyond the slots that can meet a user.
    """
    rank = instance.rank
    user_keys = sorted((c, rank(m.id), i) for m in instance.mediators for i, c in enumerate(m.user_costs))
    advertisers = sorted(((a.value, rank(a.id), a.capacity) for a in instance.advertisers), reverse=True)
    slot_keys = ((value, r, j) for value, r, capacity in advertisers for j in reversed(range(capacity)))
    return _profitable_prefix(user_keys, slot_keys)


def optimal_gain(instance: Instance) -> Money:
    """Gain from trade of the canonical assignment on the true market."""
    view = true_view(instance)
    cano = canonical_assignment(view.all_users, view.all_slots, view)
    return gain_from_trade(cano.ordered_pairs, view)


def brute_force_optimal_gft(
    users: Iterable[UserRef], slots: Iterable[SlotRef], view: MarketView
) -> Money:
    """Exhaustive maximum gain over every partial assignment. Oracle only.

    Capped at 8 users and 8 slots; meant to cross-check canonical_assignment,
    not to run a market.
    """
    us = list(users)
    sl = list(slots)
    if len(us) > 8 or len(sl) > 8:
        raise ValueError("brute force oracle is capped at 8 users x 8 slots")
    costs = [view.user_costs[u] for u in us]
    values = [view.slot_values[b] for b in sl]

    @lru_cache(maxsize=None)
    def best(i: int, used_mask: int) -> Money:
        if i == len(us):
            return 0
        out = best(i + 1, used_mask)  # leave user i unassigned
        for j in range(len(sl)):
            if not used_mask & (1 << j):
                out = max(out, values[j] - costs[i] + best(i + 1, used_mask | (1 << j)))
        return out

    try:
        return best(0, 0)
    finally:
        best.cache_clear()
