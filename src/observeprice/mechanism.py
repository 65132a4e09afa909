"""The observe-then-price mechanism.

Entities (mediators and advertisers) arrive one by one in uniformly random
order. The mechanism observes a Binomial(n, r) prefix without trading, prices
all later trades off one canonical pair of the observed sub-market, and then
serves each arrival greedily: every trade charges the advertiser the
threshold slot value and pays the mediator the threshold user cost.

The arrival order is drawn by the package's own Fisher-Yates loop over
``rng.getrandbits``, word for word the draws ``random.shuffle`` makes, as
the observation count makes the draws of ``randrange``. Owning the loop
makes a replayed seed depend on nothing but the generator's bit stream, and
it saves the stdlib's method call per swap (about 40% of the shuffle).

Arrived entities with supply left wait in one line, in arrival order; since
serving stops only when one side runs out, they are all of one kind, and an
arrival trades with the front of the line while both have supply, in runs:
one run pairs the next min(users left, slots left) users and slots of the
arrival and one counterparty, in order. A mediator's assignable users form
a queue, cheapest first, and its assigned users are the queue's prefix.
They are all owed one cumulative amount: the
cost of the mediator's cheapest unassigned assignable user, or the threshold
cost once none remain. It moves only when the mediator trades, so the run
keeps one amount per mediator, and each arrival's event records only the
raises it made.

The assignable users of the whole market are a prefix of the view's users in
key order (``MarketView.sorted_users``). A run cuts that order once at the
cost threshold and groups the cut by mediator, which keeps each group in key
order: an arriving mediator looks its queue up, and nothing is filtered or
sorted per arrival.

All money flows are exact integers. The threshold location involves a cube
root, so location and sign decisions are made with a float fast path that is
always verified (and, if needed, corrected) by exact integer comparisons;
a rounding error can never flip them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import AbstractSet, NamedTuple, Optional

from .canonical import canonical_within
from .market import (
    EntityId,
    Instance,
    MarketView,
    Money,
    ReportProfile,
    RunInputError,
    SlotBlock,
    SlotRef,
    TieKey,
    UserRef,
    gain_from_trade,
    report_view,
    validate_instance,
)

VARIANTS = ("standard", "pay_slot_value", "skip_user_payment_updates")


def _iroot6(n: int) -> int:
    """Floor integer sixth root."""
    if n < 0:
        raise ValueError("negative")
    if n == 0:
        return 0
    x = max(1, int(round(n ** (1.0 / 6))))
    while x**6 > n:
        x -= 1
    while (x + 1) ** 6 <= n:
        x += 1
    return x


def derive_r(alpha: Fraction) -> Fraction:
    """Observation rate min(1/2, 4*alpha^(1/6)), floored to the 1e-6 grid.

    Computed with integer arithmetic so the grid rounding is exact and always
    toward zero.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    # floor(4e6 * alpha^(1/6)) = floor((4**6 * 1e36 * p / q)^(1/6))
    n = (4**6) * 10**36 * alpha.numerator // alpha.denominator
    micro = _iroot6(n)
    if micro <= 0:
        raise ValueError("alpha too small: derived r underflows the 1e-6 grid")
    return min(Fraction(1, 2), Fraction(micro, 10**6))


def at_most_cbrt(x: int | Fraction, coeff: int | Fraction, alpha: int | Fraction) -> bool:
    """Exactly decide x <= coeff * alpha^(1/3), for coeff >= 0 and alpha >= 0.

    Both sides are cubed and cleared of their denominators, so the decision
    is one comparison of integers.
    """
    xn = x.numerator
    if xn <= 0:
        return True
    return xn**3 * coeff.denominator**3 * alpha.denominator <= coeff.numerator**3 * alpha.numerator * x.denominator**3


def ceil_minus_cbrt(total: int, coeff: Fraction, alpha: Fraction) -> int:
    """Exact ceil(total - coeff * alpha^(1/3)) for total >= 0, coeff >= 0.

    Float estimate first; the candidate m is then pinned by exact decisions
    of total - m <= coeff * alpha^(1/3), so the result is correct even when
    the expression sits next to an integer.
    """
    m = math.ceil(total - float(coeff) * float(alpha) ** (1.0 / 3.0))
    while not at_most_cbrt(total - m, coeff, alpha):
        m += 1
    while at_most_cbrt(total - m + 1, coeff, alpha):
        m -= 1
    return m


def sample_observation_count(n_entities: int, r: Fraction, rng: random.Random) -> int:
    """Binomial(n, r) drawn as n independent Bernoulli(r) trials.

    Each trial is exact for rational r = num/den (no float thresholding): it
    draws ``rng.getrandbits(den.bit_length())`` until the word is below den,
    and succeeds when that word is below num. These are exactly the draws
    ``rng.randrange(den)`` makes, so replaying a seed reproduces the count and
    leaves the generator in the same state, and each entity independently
    lands in the observed prefix with probability r.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("r must be in [0, 1]")
    num, den = r.numerator, r.denominator
    getrandbits, k = rng.getrandbits, den.bit_length()
    count = 0
    for _ in range(n_entities):
        x = getrandbits(k)
        while x >= den:
            x = getrandbits(k)
        count += x < num
    return count


def shuffle(x: list, rng: random.Random) -> None:
    """Put ``x`` in uniformly random order, in place: Fisher-Yates from the
    end, the index swapped with position ``n - 1`` drawn as
    ``rng.getrandbits(n.bit_length())`` words until one is below n. These
    are exactly the draws ``rng.shuffle(x)`` makes, so a seed gives the same
    order and leaves the generator in the same state."""
    getrandbits = rng.getrandbits
    for n in range(len(x), 1, -1):
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[n - 1], x[j] = x[j], x[n - 1]


@dataclass(frozen=True)
class Thresholds:
    """The price pair: trades pay mediators ``payment`` and charge advertisers
    ``charge``. ``None`` keys are the dummy pair (cost -inf / value +inf), under
    which nothing is assignable and the run trades nothing."""

    user_key: Optional[TieKey]
    slot_key: Optional[TieKey]
    location: Optional[int]
    observed_size: int
    injected: bool = False

    def __post_init__(self) -> None:
        if (self.user_key is None) != (self.slot_key is None):
            raise ValueError("thresholds must be both dummy or both real")
        if self.user_key is not None and not (self.user_key < self.slot_key):
            raise ValueError("threshold user key must order below the slot key")

    @property
    def is_dummy(self) -> bool:
        return self.user_key is None

    @property
    def payment(self) -> Money:
        if self.user_key is None:
            raise ValueError("dummy thresholds have no payment amount")
        return self.user_key.amount

    @property
    def charge(self) -> Money:
        if self.slot_key is None:
            raise ValueError("dummy thresholds have no charge amount")
        return self.slot_key.amount

    def first_assignable(self, block: SlotBlock) -> int:
        """The first index of ``block`` whose slot key ``(value, rank, j)`` exceeds
        the slot threshold, or its capacity; keys rise with j, so the rest do too."""
        if self.slot_key is None or block[:2] < self.slot_key[:2]:
            return block.capacity
        if block[:2] > self.slot_key[:2]:
            return 0
        return min(block.capacity, max(0, self.slot_key.within_index + 1))

    def users_below(self, view: MarketView) -> int:
        """How many of ``view.sorted_users`` key below the cost threshold, 0
        under the dummy pair: the market's assignable users are that prefix
        of the key order."""
        if self.user_key is None:
            return 0
        return bisect_left(view.sorted_users, self.user_key, key=view.user_keys.__getitem__)


def dummy_thresholds(observed_size: int = 0) -> Thresholds:
    return Thresholds(None, None, None, observed_size)


def injected_thresholds(user_key: TieKey, slot_key: TieKey) -> Thresholds:
    """Test-only override of step 2, flagged ``injected``."""
    return Thresholds(user_key, slot_key, None, 0, injected=True)


def threshold_keys_from_amounts(cost_amount: Money, value_amount: Money, instance: Instance) -> tuple[TieKey, TieKey]:
    """Synthetic override keys from plain amounts.

    Both keys rank after every real entity, so a user whose amount equals the
    cost threshold is assignable while a slot whose amount equals the value
    threshold is not; pass full TieKeys instead when a test needs different
    tie semantics.
    """
    rank = instance.n_entities
    return TieKey(cost_amount, rank, 0), TieKey(value_amount, rank, 0)


def compute_thresholds(view: MarketView, observed: AbstractSet[EntityId], r: Fraction, alpha: Fraction) -> Thresholds:
    """Step 2: price off the canonical assignment of the sub-market of the
    ``observed`` mediators and advertisers, filtered from the view's sorted
    orders.

    The location is k = ceil((1 - 2/r * alpha^(1/3)) * s) for s observed
    canonical pairs, which lies in 1..s whenever it is positive; k <= 0,
    s = 0 included, degenerates to the dummy pair and the run trades nothing.
    """
    cano = canonical_within(view, observed)
    s = cano.size
    k = max(0, ceil_minus_cbrt(s, Fraction(2 * s) / r, alpha))
    if k == 0:
        return dummy_thresholds(observed_size=s)
    return Thresholds(view.user_keys[cano.user_at(k)], view.slot_key(cano.slot_at(k)), k, s)


class Trade(NamedTuple):
    user: UserRef
    slot: SlotRef
    charge: Money  # paid by the slot's advertiser
    payment: Money  # received by the user's mediator


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """Everything that happened while serving one post-observation arrival.

    ``pay_steps`` holds each (user, new cumulative target) in the order
    made. A trade that moves its mediator's one amount steps every assigned
    user to it, oldest first; otherwise only the user just assigned steps,
    from 0 to the unchanged amount, and not at all when that is 0. Folding
    the steps of every event up to this one gives the full pay vector after
    it; a user with no step is owed 0.

    One is built per arrival, so the event keeps its fields in slots and
    its ``__init__`` is written out: it calls the three slots' setters, where
    the generated one makes three ``object.__setattr__`` calls (about 0.46
    against 0.71 us on a 2-vCPU VM under Python 3.11). Writing into a
    ``__dict__`` instead would be as quick to build but makes every later
    field read slower. The ``__init__`` takes the generated one's positional
    and keyword arguments, so ``dataclasses.replace`` works, and equality,
    hash and repr are still generated. A NamedTuple built with one
    ``tuple.__new__`` would be cheaper again, but ``perfbench/selftest.py``
    tampers with an event through ``dataclasses.replace``, which a NamedTuple
    refuses; that form waits for a tamper that works on both (ROADMAP item A).
    """

    arrival: EntityId
    trades: tuple[Trade, ...]
    pay_steps: tuple[tuple[UserRef, Money], ...]  # chronological raises of cumulative pay targets

    def __init__(
        self, arrival: EntityId, trades: tuple[Trade, ...], pay_steps: tuple[tuple[UserRef, Money], ...]
    ) -> None:
        set_arrival, set_trades, set_pay_steps = _EVENT_SETTERS
        set_arrival(self, arrival)
        set_trades(self, trades)
        set_pay_steps(self, pay_steps)


_EVENT_SETTERS = tuple(getattr(ArrivalEvent, f.name).__set__ for f in fields(ArrivalEvent))


@dataclass(frozen=True)
class MechanismConfig:
    alpha: Fraction
    r: Optional[Fraction] = None  # default: derive_r(alpha)
    seed: int = 0
    # Test-only injection points. Production runs leave all three at None;
    # a run report's config records whether any was used.
    threshold_override: Optional[tuple[TieKey, TieKey]] = None
    forced_arrival_order: Optional[tuple[EntityId, ...]] = None
    forced_observation_count: Optional[int] = None
    # Deliberately broken engines for negative-control tests.
    variant: str = "standard"

    def resolved_r(self) -> Fraction:
        r = derive_r(self.alpha) if self.r is None else Fraction(self.r)
        if not 0 < r <= Fraction(1, 2):
            raise RunInputError("config.r: must be in (0, 1/2]")
        return r


@dataclass
class MechanismOutcome:
    """What one run decided. The event log is its only record of trades and
    payments: the ledgers, the observed split and the executed pairs are
    read-only folds of ``events`` and ``arrival_order``. ``view`` is the
    market the run served, which the checks read the run against; it takes
    no part in equality."""

    alpha: Fraction
    r: Fraction
    arrival_order: tuple[EntityId, ...]
    observation_count: int
    thresholds: Thresholds
    events: tuple[ArrivalEvent, ...]
    gft: Money  # of the executed trades, in the amounts the run was priced on
    view: MarketView = field(compare=False, repr=False)

    @property
    def post_observation_order(self) -> tuple[EntityId, ...]:
        return self.arrival_order[self.observation_count :]

    @property
    def observed_mediators(self) -> tuple[EntityId, ...]:
        return tuple(e for e in self.arrival_order[: self.observation_count] if e.kind == "mediator")

    @property
    def observed_advertisers(self) -> tuple[EntityId, ...]:
        return tuple(e for e in self.arrival_order[: self.observation_count] if e.kind == "advertiser")

    def trades_of(self) -> list[Trade]:
        return [t for e in self.events for t in e.trades]

    @property
    def charges(self) -> dict[EntityId, Money]:
        """Total charged per advertiser, in order of first trade."""
        charges: dict[EntityId, Money] = {}
        for t in self.trades_of():
            charges[t.slot.advertiser] = charges.get(t.slot.advertiser, 0) + t.charge
        return charges

    @property
    def receipts(self) -> dict[EntityId, Money]:
        """Total received per mediator, in order of first trade."""
        receipts: dict[EntityId, Money] = {}
        for t in self.trades_of():
            receipts[t.user.mediator] = receipts.get(t.user.mediator, 0) + t.payment
        return receipts

    @property
    def final_targets(self) -> dict[UserRef, Money]:
        """Each traded user's last cumulative pay target, in order of trade."""
        targets: dict[UserRef, Money] = {}
        for e in self.events:
            for t in e.trades:
                targets.setdefault(t.user, 0)
            targets.update(e.pay_steps)
        return targets


class MechanismState:
    """Post-observation serving state; one ``process_arrival`` per entity.

    Usable directly in tests (with injected thresholds); ``run_mechanism``
    drives it for real runs.
    """

    def __init__(
        self,
        view: MarketView,
        thresholds: Thresholds,
        observed: AbstractSet[EntityId],
        variant: str = "standard",
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown engine variant {variant!r}")
        self.view = view
        self.thresholds = thresholds
        self.variant = variant
        self.observed = observed  # read only: the run shares it with its thresholds
        # Per-mediator queue of assignable users, cheapest key first: the
        # view's sorted users cut at the cost threshold, grouped by mediator.
        # A mediator with no assignable user has no queue.
        self._queue: dict[EntityId, list[UserRef]] = {}
        queue = self._queue.setdefault
        for u in view.sorted_users[: thresholds.users_below(view)]:
            queue(u.mediator, []).append(u)
        # Per arrived entity, [next, end): a mediator's unassigned queue
        # positions, an advertiser's assignable slot indices not yet traded.
        # A trade takes the first of each.
        self._supply: dict[EntityId, list[int]] = {}
        # The one cumulative pay target of each traded mediator's assigned users.
        self._target: dict[EntityId, Money] = {}
        # Arrived entities with supply left, in arrival order; all of one kind.
        self._waiting: deque[EntityId] = deque()
        self.events: list[ArrivalEvent] = []

    # -- payment rule ----------------------------------------------------------

    def _raise_target(self, q: list[UserRef], i: int, old: Money, steps: list[tuple[UserRef, Money]]) -> Money:
        """The pay rule after the trade that assigns ``q[i - 1]``: the
        mediator's one amount, from ``old``, with the steps it owes."""
        amount = self.view.user_costs[q[i]] if i < len(q) else self.thresholds.payment
        if amount != old:
            if amount < old:
                raise AssertionError("pay target decreased; engine invariant broken")
            steps.extend(zip(q[:i], [amount] * i))
        elif amount:
            steps.append((q[i - 1], amount))
        return amount

    # -- trades ----------------------------------------------------------------

    def process_arrival(self, entity: EntityId) -> ArrivalEvent:
        supply = self._supply
        if entity in supply:
            raise ValueError(f"{entity} already arrived")
        if entity in self.observed:
            raise ValueError(f"{entity} was observed; observed entities do not arrive again")
        view, thresholds, kind = self.view, self.thresholds, entity.kind
        trades: list[Trade] = []
        steps: list[tuple[UserRef, Money]] = []

        if kind == "mediator":
            if entity not in view.users_by_mediator:
                raise KeyError(entity)  # as an unknown advertiser's block lookup does
            mine = supply[entity] = [0, len(self._queue.get(entity, ()))]
        else:
            block = view.blocks[entity]
            mine = supply[entity] = [thresholds.first_assignable(block), block.capacity]
        waiting = self._waiting
        if mine[0] < mine[1] and waiting and waiting[0].kind != kind:
            # Trade with the front of the line in runs: each run pairs the
            # next min(users left, slots left) users and slots in order.
            new = tuple.__new__
            charge = thresholds.charge
            payment = charge if self.variant == "pay_slot_value" else thresholds.payment
            pays = self.variant != "skip_user_payment_updates"
            while mine[0] < mine[1] and waiting:
                front = waiting[0]
                theirs = supply[front]
                n = min(mine[1] - mine[0], theirs[1] - theirs[0])
                m, a, m_supply, a_supply = (entity, front, mine, theirs) if kind == "mediator" else (front, entity, theirs, mine)
                q, i, j = self._queue[m], m_supply[0], a_supply[0]
                trades += [new(Trade, (u, new(SlotRef, (a, j + k)), charge, payment)) for k, u in enumerate(q[i : i + n])]
                if pays:
                    target = self._target.get(m, 0)
                    for k in range(i + 1, i + n + 1):
                        target = self._raise_target(q, k, target, steps)
                    self._target[m] = target
                m_supply[0] += n
                a_supply[0] += n
                if theirs[0] == theirs[1]:
                    waiting.popleft()
        if mine[0] < mine[1]:
            waiting.append(entity)

        event = ArrivalEvent(entity, tuple(trades), tuple(steps))
        self.events.append(event)
        return event


def draw_arrivals(instance: Instance, config: MechanismConfig, r: Fraction) -> tuple[tuple[EntityId, ...], int]:
    """Step 1: the run's arrival order and observation count, both drawn from
    ``random.Random(config.seed)``. The order comes first, a ``shuffle`` of
    ``instance.entity_ids``; then the Binomial(n, r) count of the observed
    prefix, ``sample_observation_count``. A forced order or count replaces
    its draw once it is checked; under a forced order the count takes the
    generator's first words."""
    rng = random.Random(config.seed)
    if config.forced_arrival_order is not None:
        arrival = list(config.forced_arrival_order)
        if len(arrival) != instance.n_entities or set(arrival) != set(instance.entity_ids):
            raise RunInputError("config.forced_arrival_order: not a permutation of the instance's entities")
    else:
        arrival = list(instance.entity_ids)
        shuffle(arrival, rng)

    n = len(arrival)
    if config.forced_observation_count is not None:
        t = config.forced_observation_count
        if not 0 <= t <= n:
            raise RunInputError(f"config.forced_observation_count: {t} is outside 0..{n}")
    else:
        t = sample_observation_count(n, r, rng)
    return tuple(arrival), t


def run_mechanism(
    instance: Instance,
    reports: Optional[ReportProfile],
    config: MechanismConfig,
    view: Optional[MarketView] = None,
) -> MechanismOutcome:
    """One full run: arrival order, observation, thresholds, serving loop.

    The true instance must satisfy the standing assumptions for config.alpha;
    reports are arbitrary type-valid claims. An input the run refuses is a
    ``RunInputError``.

    ``view`` lets a caller that reruns one report profile build its view
    once: it must be exactly ``report_view(instance, reports)``, which the run
    builds itself when it is None. A run only reads the view, so ``reports``
    may be None when a view is given.
    """
    if reports is None and view is None:
        raise ValueError("run_mechanism needs reports or their view")
    alpha = Fraction(config.alpha)
    check = validate_instance(instance, alpha)  # alpha outside [1/tau, 1] fails, so derive_r accepts the rest
    if not check.ok:
        raise RunInputError("instance: " + "; ".join(check.violations))
    r = config.resolved_r()
    arrival, t = draw_arrivals(instance, config, r)
    observed = set(arrival[:t])
    if view is None:
        view = report_view(instance, reports)
    if config.threshold_override is not None:
        try:
            thresholds = injected_thresholds(*config.threshold_override)
        except ValueError as exc:
            raise RunInputError(f"config.threshold_override: {exc}") from None
    else:
        thresholds = compute_thresholds(view, observed, r, alpha)

    state = MechanismState(view, thresholds, observed, variant=config.variant)
    for entity in arrival[t:]:
        state.process_arrival(entity)

    return MechanismOutcome(
        alpha=alpha,
        r=r,
        arrival_order=arrival,
        observation_count=t,
        thresholds=thresholds,
        events=tuple(state.events),
        gft=gain_from_trade(((x.user, x.slot) for e in state.events for x in e.trades), view),
        view=view,
    )


def truthful_run(instance: Instance, config: MechanismConfig, view: Optional[MarketView] = None) -> MechanismOutcome:
    """A run on truthful reports. ``view``, if given, must be exactly
    ``report_view(instance, ReportProfile.truthful(instance))``, which equals
    ``true_view(instance)``; then no report profile is built."""
    reports = ReportProfile.truthful(instance) if view is None else None
    return run_mechanism(instance, reports, config, view=view)
