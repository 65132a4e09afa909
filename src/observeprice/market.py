"""Core types for a three-sided information market.

An instance has mediators, each holding an ordered list of users with
non-negative costs, and advertisers, each bringing ``capacity`` identical
slots at a non-negative per-slot value. Matching a user to a slot realizes a
trade whose gain is the slot value minus the user cost.

Money is an exact integer count of micro-units. Nothing in this package does
floating-point arithmetic on money, so budget and incentive checks can assert
exact equalities.

Every cost/value comparison goes through ``TieKey``, a lexicographic key
``(amount, entity_rank, within_index)`` that turns the amount order into a
strict total order: amount ties break by the owning entity's position in the
instance's tie order, then by the user/slot index inside the entity. The tie
order is fixed when the instance is built, drawn independently of reports and
of arrival order, and is never redrawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

Money = int
MICRO = 10**6


def from_units(x: int) -> Money:
    """Whole currency units -> micro-unit Money."""
    return x * MICRO


class _EntityFields(NamedTuple):
    kind: str  # "mediator" | "advertiser"
    index: int


class EntityId(_EntityFields):
    """A mediator or advertiser handle, e.g. m0 / a3.

    A tuple underneath, so hashing and equality run in C; ids order by kind,
    then index.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "EntityId":
        if kind not in ("mediator", "advertiser"):
            raise ValueError(f"bad entity kind {kind!r}")
        if index < 0:
            raise ValueError("entity index must be >= 0")
        return super().__new__(cls, kind, index)

    def __str__(self) -> str:
        return f"{'m' if self.kind == 'mediator' else 'a'}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "EntityId":
        """Inverse of ``str``: only the exact text ``str`` writes is accepted,
        so ASCII digits without leading zeros."""
        digits = text[1:]
        if text[:1] in ("m", "a") and digits.isascii() and digits.isdigit():
            try:
                index = int(digits)
            except ValueError:  # more digits than int() reads, so more than str writes
                raise ValueError(f"{text:.20}... ({len(text)} characters) is too long for an entity id") from None
            if str(index) == digits:  # kind and index are valid here, so skip __new__'s checks
                return tuple.__new__(cls, ("mediator" if text[0] == "m" else "advertiser", index))
        raise ValueError(f"bad entity id {text!r}")


def mediator_id(index: int) -> EntityId:
    return EntityId("mediator", index)


def advertiser_id(index: int) -> EntityId:
    return EntityId("advertiser", index)


class UserRef(NamedTuple):
    mediator: EntityId
    user_index: int

    def __str__(self) -> str:
        return f"{self.mediator}:{self.user_index}"


class SlotRef(NamedTuple):
    advertiser: EntityId
    slot_index: int

    def __str__(self) -> str:
        return f"{self.advertiser}:{self.slot_index}"


class TieKey(NamedTuple):
    """Strict comparison key for one cost or one slot value.

    Tuple order is the comparison rule. Distinct users/slots always get
    distinct keys, because (entity_rank, within_index) is unique, so a key
    comparison never lands on "equal" between two different market objects.
    """

    amount: Money
    entity_rank: int
    within_index: int


@dataclass(frozen=True)
class MediatorSpec:
    id: EntityId
    user_costs: tuple[Money, ...]

    def __post_init__(self) -> None:
        if self.id.kind != "mediator":
            raise ValueError("MediatorSpec needs a mediator id")
        if any(c < 0 for c in self.user_costs):
            raise ValueError(f"{self.id}: user costs must be >= 0")


@dataclass(frozen=True)
class AdvertiserSpec:
    id: EntityId
    capacity: int
    value: Money

    def __post_init__(self) -> None:
        if self.id.kind != "advertiser":
            raise ValueError("AdvertiserSpec needs an advertiser id")
        if self.capacity < 1:
            raise ValueError(f"{self.id}: capacity must be >= 1")
        if self.value < 0:
            raise ValueError(f"{self.id}: slot value must be >= 0")


@dataclass(frozen=True)
class Instance:
    """One market: the ground truth plus the frozen tie order.

    ``tie_order`` must list every entity exactly once. It is part of the
    instance so that reruns, misreport experiments and replays all share the
    same strict comparison order.
    """

    mediators: tuple[MediatorSpec, ...]
    advertisers: tuple[AdvertiserSpec, ...]
    tie_order: tuple[EntityId, ...]
    _rank: Mapping[EntityId, int] = field(init=False, repr=False, compare=False)
    _mediators: Mapping[EntityId, MediatorSpec] = field(init=False, repr=False, compare=False)
    _advertisers: Mapping[EntityId, AdvertiserSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [m.id for m in self.mediators] + [a.id for a in self.advertisers]
        id_set = set(ids)
        if len(id_set) != len(ids):
            raise ValueError("duplicate entity id")
        if len(self.tie_order) != len(ids) or set(self.tie_order) != id_set:
            raise ValueError("tie_order must be a permutation of all entity ids")
        object.__setattr__(self, "_rank", {e: i for i, e in enumerate(self.tie_order)})
        object.__setattr__(self, "_mediators", {m.id: m for m in self.mediators})
        object.__setattr__(self, "_advertisers", {a.id: a for a in self.advertisers})

    @cached_property
    def entity_ids(self) -> tuple[EntityId, ...]:
        """Every mediator id, then every advertiser id; built once, like ``tau``."""
        return tuple(m.id for m in self.mediators) + tuple(a.id for a in self.advertisers)

    @cached_property
    def largest_entity(self) -> int:
        """The most users a mediator holds or slots an advertiser brings
        (0 for an empty market); built once, like ``tau``."""
        return max([len(m.user_costs) for m in self.mediators] + [a.capacity for a in self.advertisers], default=0)

    @property
    def n_entities(self) -> int:
        return len(self.mediators) + len(self.advertisers)

    def rank(self, entity: EntityId) -> int:
        return self._rank[entity]

    def mediator(self, entity: EntityId) -> MediatorSpec:
        return self._mediators[entity]

    def advertiser(self, entity: EntityId) -> AdvertiserSpec:
        return self._advertisers[entity]

    @cached_property
    def tau(self) -> int:
        """Size of the canonical assignment over the whole true market.

        Computed once: the instance is frozen, so it cannot go stale.
        """
        from .canonical import tau  # local import, avoids a module cycle

        return tau(self)


class RunInputError(ValueError):
    """An input a run refuses; the message leads with the part at fault:
    ``instance``, ``reports.<part>`` or ``config.<field>``."""


def random_tie_order(entity_ids: Sequence[EntityId], rng: random.Random) -> tuple[EntityId, ...]:
    """Uniform tie order. Draw this before looking at any report."""
    order = list(entity_ids)
    rng.shuffle(order)
    return tuple(order)


@dataclass(frozen=True)
class ReportProfile:
    """What the mechanism is told.

    Reports are only type-checked: mediators may claim any number of users at
    any non-negative costs, advertisers any capacity >= 0 and value >= 0.
    Truthfulness is a property, not a constraint.
    """

    mediator_costs: Mapping[EntityId, tuple[Money, ...]]
    advertiser_slots: Mapping[EntityId, tuple[int, Money]]  # capacity, per-slot value

    def __post_init__(self) -> None:
        for m, costs in self.mediator_costs.items():
            if m.kind != "mediator":
                raise ValueError(f"{m} is not a mediator")
            if any(c < 0 for c in costs):
                raise ValueError(f"{m}: reported costs must be >= 0")
        for a, (cap, value) in self.advertiser_slots.items():
            if a.kind != "advertiser":
                raise ValueError(f"{a} is not an advertiser")
            if cap < 0 or value < 0:
                raise ValueError(f"{a}: reported capacity and value must be >= 0")

    @classmethod
    def truthful(cls, instance: Instance) -> "ReportProfile":
        return cls(
            {m.id: m.user_costs for m in instance.mediators},
            {a.id: (a.capacity, a.value) for a in instance.advertisers},
        )

    def check_covers(self, instance: Instance) -> None:
        """A ``RunInputError`` naming the first id missing from the profile, or else the first extra one."""
        for part, reported, ids in (
            ("mediator_costs", self.mediator_costs, instance._mediators.keys()),
            ("advertiser_slots", self.advertiser_slots, instance._advertisers.keys()),
        ):
            if reported.keys() != ids:
                missing, extra = sorted(ids - reported.keys()), sorted(reported.keys() - ids)
                problem = f"no report for {missing[0]}" if missing else f"{extra[0]} is not in the instance"
                raise RunInputError(f"reports.{part}: {problem}")

    def with_user_cost(self, user: UserRef, cost: Money) -> "ReportProfile":
        """The profile with one reported user cost changed; ``ValueError`` if
        ``user`` is not among the reported users (a negative index too)."""
        costs = list(self.mediator_costs.get(user.mediator, ()))
        if not 0 <= user.user_index < len(costs):
            raise ValueError(f"unknown user {user}")
        costs[user.user_index] = cost
        new = dict(self.mediator_costs)
        new[user.mediator] = tuple(costs)
        return ReportProfile(new, self.advertiser_slots)

    def with_mediator_costs(self, mediator: EntityId, costs: Sequence[Money]) -> "ReportProfile":
        new = dict(self.mediator_costs)
        new[mediator] = tuple(costs)
        return ReportProfile(new, self.advertiser_slots)

    def with_advertiser_slots(self, advertiser: EntityId, capacity: int, value: Money) -> "ReportProfile":
        new = dict(self.advertiser_slots)
        new[advertiser] = (capacity, value)
        return ReportProfile(self.mediator_costs, new)


class SlotBlock(NamedTuple):
    """An advertiser's ``capacity`` slots; slot j has key ``(value, rank, j)``."""

    value: Money
    rank: int
    capacity: int
    advertiser: EntityId


_value, _rank = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class MarketView:
    """Numeric amounts and tie-order ranks for one reading of the market.

    Built either from the ground truth or from a report profile; everything
    downstream (canonical assignment, the mechanism, diagnostics) works on a
    view and never cares which reading it is. No part grows with a capacity.

    A user's key ``(cost, rank of its mediator, index)`` is not stored: the
    view keeps the costs and the instance's rank map (``ranks``, shared with
    the instance, not copied), and ``user_key`` builds a key where one is
    read. An advertiser's rank rides in its ``SlotBlock``.

    A view is read-only once built: its two canonical orders are sorted once,
    on first use, and every sub-market of it filters them instead of
    re-sorting, so editing a view's maps afterwards would leave them stale.
    """

    user_costs: Mapping[UserRef, Money]
    ranks: Mapping[EntityId, int]  # every entity's place in the instance's tie order
    users_by_mediator: Mapping[EntityId, tuple[UserRef, ...]]
    blocks: Mapping[EntityId, SlotBlock]

    # Both orders sort twice, on plain ints: by rank, then stably by amount.
    # That reaches the key order about twice as fast on hundreds of users as
    # one sort on the key tuples, whose comparisons are generic.

    @cached_property
    def sorted_users(self) -> tuple[UserRef, ...]:
        """Every user, by increasing key ``(cost, rank, index)``."""
        by_mediator = self.users_by_mediator
        mediators = sorted(by_mediator, key=self.ranks.__getitem__)
        users = list(chain.from_iterable(map(by_mediator.__getitem__, mediators)))
        users.sort(key=self.user_costs.__getitem__)
        return tuple(users)

    @cached_property
    def sorted_blocks(self) -> tuple[SlotBlock, ...]:
        """Every slot block, by decreasing ``(value, rank)``: each block with j
        counting down, the slots by decreasing key."""
        blocks = sorted(self.blocks.values(), key=_rank, reverse=True)
        blocks.sort(key=_value, reverse=True)
        return tuple(blocks)

    @property
    def all_users(self) -> tuple[UserRef, ...]:
        return tuple(u for us in self.users_by_mediator.values() for u in us)

    @property
    def all_slots(self) -> tuple[SlotRef, ...]:
        return tuple(SlotRef(a, j) for a, block in self.blocks.items() for j in range(block.capacity))

    def users_of(self, mediators: Iterable[EntityId]) -> list[UserRef]:
        return [u for m in mediators for u in self.users_by_mediator[m]]

    def slot_value(self, slot: SlotRef) -> Money:
        """The value of one slot; ``KeyError(slot)`` if the view holds no such slot."""
        block = self.blocks.get(slot.advertiser)
        if block is None or not 0 <= slot.slot_index < block.capacity:
            raise KeyError(slot)
        return block.value

    def user_key(self, user: UserRef) -> TieKey:
        """The key ``(cost, mediator rank, index)`` of one user; ``KeyError(user)`` if the view holds no such user."""
        return tuple.__new__(TieKey, (self.user_costs[user], self.ranks[user.mediator], user.user_index))

    def slot_key(self, slot: SlotRef) -> TieKey:
        return TieKey(self.slot_value(slot), self.blocks[slot.advertiser].rank, slot.slot_index)


def _build_view(
    instance: Instance,
    mediator_costs: Mapping[EntityId, tuple[Money, ...]],
    advertiser_slots: Mapping[EntityId, tuple[int, Money]],
) -> MarketView:
    # tuple.__new__ builds each ref and block without the Python-level
    # NamedTuple constructor; the fields are the same.
    new = tuple.__new__
    rank = instance._rank
    user_costs: dict[UserRef, Money] = {}
    users_by_mediator: dict[EntityId, tuple[UserRef, ...]] = {}
    for m in instance.mediators:
        mid = m.id
        refs = []
        for i, c in enumerate(mediator_costs[mid]):
            u = new(UserRef, (mid, i))
            user_costs[u] = c
            refs.append(u)
        users_by_mediator[mid] = tuple(refs)

    blocks: dict[EntityId, SlotBlock] = {}
    for a in instance.advertisers:
        cap, value = advertiser_slots[a.id]
        blocks[a.id] = new(SlotBlock, (value, rank[a.id], cap, a.id))
    return MarketView(user_costs, rank, users_by_mediator, blocks)


def true_view(instance: Instance) -> MarketView:
    return _build_view(
        instance,
        {m.id: m.user_costs for m in instance.mediators},
        {a.id: (a.capacity, a.value) for a in instance.advertisers},
    )


def report_view(instance: Instance, reports: ReportProfile) -> MarketView:
    reports.check_covers(instance)
    return _build_view(instance, reports.mediator_costs, reports.advertiser_slots)


def gain_from_trade(pairs: Iterable[tuple[UserRef, SlotRef]], view: MarketView) -> Money:
    """Exact sum of slot value minus user cost over arbitrary ``(user, slot)``
    pairs, such as a run's trades; a canonical assignment sums its own per
    block (``CanonicalAssignment.gain``). A user or slot the view does not
    hold is a ``ValueError`` naming it."""
    try:
        return sum(view.slot_value(b) - view.user_costs[u] for u, b in pairs)
    except KeyError as e:
        (ref,) = e.args
        kind = "user" if isinstance(ref, UserRef) else "slot"
        raise ValueError(f"pairs reference unknown {kind} {ref}") from None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    tau: int
    violations: tuple[str, ...]


def as_fraction(x: Fraction | int | str) -> Fraction:
    """``x`` itself when it is a ``Fraction``, else ``Fraction(x)``: the one
    conversion of an ``alpha`` or ``r`` given as an int or a string, shared
    by validation and the mechanism, so a ``Fraction`` is read, never rebuilt."""
    return x if type(x) is Fraction else Fraction(x)


def validate_instance(instance: Instance, alpha: Fraction) -> ValidationReport:
    """Check the mechanism's standing assumptions against the ground truth.

    tau is the size of the offline-optimal (canonical) assignment. Required:
    tau >= 1, 1/tau <= alpha <= 1, and no single entity brings more than
    alpha*tau users or slots. With alpha = p/q the bounds are compared as
    integers; a valid instance builds and compares no ``Fraction``.
    """
    t = instance.tau
    violations: list[str] = []
    if t == 0:
        violations.append("tau=0: no trade has positive gain, mechanism assumptions reject the instance")
        return ValidationReport(False, 0, tuple(violations))
    alpha = as_fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not q <= p * t <= q * t:  # 1/tau <= alpha <= 1
        violations.append(f"alpha={alpha} outside [1/tau, 1] = [1/{t}, 1]")
    # Every entity is within alpha*tau when the largest is, so the entities
    # are named one by one only when the largest fails.
    if instance.largest_entity * q > p * t:
        for m in instance.mediators:
            if len(m.user_costs) * q > p * t:
                violations.append(f"{m.id}: {len(m.user_costs)} users > alpha*tau = {float(alpha * t):.6g}")
        for a in instance.advertisers:
            if a.capacity * q > p * t:
                violations.append(f"{a.id}: capacity {a.capacity} > alpha*tau = {float(alpha * t):.6g}")
    return ValidationReport(not violations, t, tuple(violations))
