"""Offline optimum: the canonical assignment and a brute-force oracle.

The canonical assignment sorts slots by decreasing key and users by
increasing key, then keeps prefix pairs while the slot key still exceeds the
user key. Its gain from trade equals the best gain any assignment can reach,
which the brute-force enumerator below re-derives independently on small
inputs. A market view sorts its users and blocks once; the canonical
assignment of any sub-market of whole entities filters those orders.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import AbstractSet, Callable, Iterable, Optional, Sequence

from .market import EntityId, Instance, MarketView, Money, SlotBlock, SlotRef, UserRef, true_view


def _slot(blocks: Sequence[tuple], ends: Sequence[int], i: int) -> tuple[tuple, int]:
    """Block and index of the (i+1)-th slot of blocks in decreasing key order,
    ``ends`` their cumulative capacities: within a block j counts down."""
    b = bisect_right(ends, i)
    return blocks[b], ends[b] - 1 - i


def _profitable_prefix(user_key: Callable[[int], tuple], n_users: int, blocks: Sequence[tuple], ends: Sequence[int]) -> int:
    """How many leading pairs of users in increasing key order (``user_key(i)``)
    and slots of blocks in decreasing order trade (the slot key must strictly exceed
    the user key). Keys rise on one side and fall on the other: a bisection finds it."""

    def stops(i: int) -> bool:
        (value, rank, *_), j = _slot(blocks, ends, i)
        return not (value, rank, j) > user_key(i)

    return bisect_left(range(min(n_users, ends[-1] if ends else 0)), True, key=stops)


@dataclass(frozen=True)
class CanonicalAssignment:
    """The profitable prefix of the sorted users and slot blocks: location k
    pairs the k-th cheapest user with the k-th most valuable slot."""

    size: int
    sorted_users: tuple[UserRef, ...]
    sorted_blocks: tuple[SlotBlock, ...]
    slot_ends: tuple[int, ...]  # cumulative capacities of sorted_blocks

    def user_at(self, location: int) -> UserRef:
        if not 1 <= location <= self.size:
            raise ValueError(f"location {location} outside 1..{self.size}")
        return self.sorted_users[location - 1]

    def slot_at(self, location: int) -> SlotRef:
        if not 1 <= location <= self.size:
            raise ValueError(f"location {location} outside 1..{self.size}")
        block, j = _slot(self.sorted_blocks, self.slot_ends, location - 1)
        return SlotRef(block.advertiser, j)

    def gain(self, view: MarketView) -> Money:
        """Gain from trade of the pairs, summed per block: each block's value
        times the slots it gives the prefix, less the prefix users' costs in
        ``view``. Equals ``gain_from_trade(self.ordered_pairs, view)``."""
        total, start = 0, 0
        for block, end in zip(self.sorted_blocks, self.slot_ends):
            if start >= self.size:
                break
            total += block.value * (min(end, self.size) - start)
            start = end
        return total - sum(map(view.user_costs.__getitem__, self.sorted_users[: self.size]))

    @cached_property
    def ordered_pairs(self) -> tuple[tuple[UserRef, SlotRef], ...]:
        slots = (tuple.__new__(SlotRef, (b.advertiser, j)) for b in self.sorted_blocks for j in reversed(range(b.capacity)))
        return tuple(zip(self.sorted_users[: self.size], slots))


def sorted_canonical_assignment(users: Sequence[UserRef], blocks: Sequence[SlotBlock], view: MarketView) -> CanonicalAssignment:
    """The canonical assignment of users and blocks given in canonical order;
    a subset kept in order is sorted too, so a sub-market needs no re-sort."""
    users, blocks = tuple(users), tuple(blocks)
    ends = tuple(accumulate(b.capacity for b in blocks))
    costs, ranks = view.user_costs, view.ranks

    def user_key(i: int) -> tuple[Money, int, int]:
        u = users[i]
        return costs[u], ranks[u[0]], u[1]

    return CanonicalAssignment(_profitable_prefix(user_key, len(users), blocks, ends), users, blocks, ends)


def canonical_within(view: MarketView, entities: Optional[AbstractSet[EntityId]] = None) -> CanonicalAssignment:
    """The canonical assignment of the sub-market of ``entities`` (the whole
    market when None): the view's sorted users and blocks, filtered to the
    given mediators and advertisers, so nothing is re-sorted. Ids the view
    does not hold are ignored."""
    if entities is None:
        return sorted_canonical_assignment(view.sorted_users, view.sorted_blocks, view)
    return sorted_canonical_assignment(
        [u for u in view.sorted_users if u.mediator in entities],
        [b for b in view.sorted_blocks if b.advertiser in entities],
        view,
    )


def canonical_assignment(users: Iterable[UserRef], advertisers: Iterable[EntityId], view: MarketView) -> CanonicalAssignment:
    """Sort users by key and the advertisers' slot blocks, then pair the
    profitable prefix: for users that are not a whole mediator's, or come in
    no known order. A sub-market of whole entities is ``canonical_within``."""
    users = sorted(users, key=view.user_key)
    return sorted_canonical_assignment(users, sorted(map(view.blocks.__getitem__, advertisers), reverse=True), view)


def tau(instance: Instance) -> int:
    """Size of the canonical assignment over the whole true market, counted
    on the true keys without building the view. Users sort on plain ints, as
    ``MarketView.sorted_users`` does: by mediator rank, then stably by cost;
    a user's key is rebuilt from its place only where the count probes it."""
    rank = instance.rank
    mediators = list(filter(None, map(instance._mediators.get, instance.tie_order)))
    costs = list(chain.from_iterable(m.user_costs for m in mediators))
    order = sorted(range(len(costs)), key=costs.__getitem__)
    ends = list(accumulate(len(m.user_costs) for m in mediators))

    def user_key(i: int) -> tuple[Money, int, int]:
        at = order[i]
        b = bisect_right(ends, at)
        m = mediators[b]
        return costs[at], rank(m.id), at - ends[b] + len(m.user_costs)

    blocks = sorted(((a.value, rank(a.id), a.capacity) for a in instance.advertisers), reverse=True)
    return _profitable_prefix(user_key, len(costs), blocks, list(accumulate(b[2] for b in blocks)))


def optimal_gain(instance: Instance) -> Money:
    """Gain from trade of the canonical assignment on the true market."""
    view = true_view(instance)
    return canonical_within(view).gain(view)


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
    values = [view.slot_value(b) for b in sl]

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
