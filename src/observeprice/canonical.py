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
from typing import Iterable, Sequence

from .market import Assignment, Instance, MarketView, Money, SlotRef, UserRef, true_view


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

    def as_assignment(self) -> Assignment:
        return Assignment(self.ordered_pairs)


def canonical_assignment(
    users: Iterable[UserRef], slots: Iterable[SlotRef], view: MarketView
) -> CanonicalAssignment:
    sorted_users = sorted(users, key=lambda u: view.user_keys[u])
    sorted_slots = sorted(slots, key=lambda b: view.slot_keys[b], reverse=True)
    return canonical_from_sorted(sorted_users, sorted_slots, view)


def canonical_from_sorted(
    sorted_users: Sequence[UserRef], sorted_slots: Sequence[SlotRef], view: MarketView
) -> CanonicalAssignment:
    """The canonical assignment of users already in increasing key order and
    slots already in decreasing key order.

    Keys are distinct, so any subset of a canonical assignment's
    ``sorted_users``/``sorted_slots``, kept in order, is the sorted order of
    that sub-market: filtering them gives its canonical assignment without
    re-sorting.
    """
    pairs = []
    for u, b in zip(sorted_users, sorted_slots):
        if view.slot_keys[b] > view.user_keys[u]:  # strict: key order, never "equal"
            pairs.append((u, b))
        else:
            break
    return CanonicalAssignment(tuple(pairs), tuple(sorted_users), tuple(sorted_slots))


def tau(instance: Instance) -> int:
    """Size of the canonical assignment over the whole true market."""
    view = true_view(instance)
    return canonical_assignment(view.all_users, view.all_slots, view).size


def optimal_gain(instance: Instance) -> Money:
    """Gain from trade of the canonical assignment on the true market."""
    view = true_view(instance)
    cano = canonical_assignment(view.all_users, view.all_slots, view)
    return sum(view.slot_values[b] - view.user_costs[u] for u, b in cano.ordered_pairs)


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
