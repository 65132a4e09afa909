"""Economic verification: individual rationality, budget balance, incentives.

All utilities are evaluated against the TRUE instance, in exact integer
money, regardless of what was reported:

* user: cumulative payment received minus her true cost once assigned;
* mediator: he fulfills assignments with his cheapest undelivered true users,
  and a payment counts only when a true user actually backs the trade, so
  claiming users he does not have earns nothing;
* advertiser: true per-slot value for assigned users up to her TRUE capacity
  (extra users won via an inflated capacity report are worthless), minus
  charges.

With truthful reports these definitions collapse to the plain ledger flows.

Utilities change only at trades and pay steps, so ``utility_steps`` derives
every player's trajectory from one fold over the run's decisions;
trajectories, final utilities and the sweeps' continuous-IR checks all read
that fold, and one rule (``_first_drops``) finds each player's first drop for
the sweep and for ``check_continuous_ir`` alike. The fold and the run checks
read ``MechanismOutcome.decisions``, one entry per arrival that traded, so
they pay per trade and per pay step: an arrival that changed nothing costs
nothing, and messages still name each event by its arrival's position.

The run checks read only the outcome. The surplus check recounts the idle
assignable users and slots from the view the run served
(``MechanismOutcome.view``), its thresholds and the arrival order; the run
itself records no such count, so a serving loop that is wrong about its
trades, or skips an arrival with supply, cannot also vouch for them.

Every truthfulness verdict, in ``incentive_sweep`` and ``deviation_test``,
comes from one twin path (``_twins``): a misreport runs under the seeds of
its truthful twins (same tie order, arrival order and observation count)
and final utilities are compared exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .market import (
    EntityId,
    Instance,
    Money,
    ReportProfile,
    UserRef,
    report_view,
    true_view,
)
from .mechanism import MechanismConfig, MechanismOutcome, run_mechanism


@dataclass(frozen=True)
class UtilityTrajectory:
    player: object  # UserRef or EntityId
    series: tuple[Money, ...]  # element 0 is the pre-arrival state, always 0


def utility_steps(outcome: MechanismOutcome, instance: Instance) -> Iterator[tuple[int, dict[object, Money]]]:
    """One pass over the decisions: after each, its position and the true
    utility of exactly the players it changed. An idle arrival changes no
    one and has no step.

    Utilities move only at trades and pay steps. A trade assigns its user (if
    she exists in the true market), adds ``payment - k-th cheapest true cost``
    to its mediator (0 once his true users are used up), and adds
    ``value * [won <= true capacity] - charge`` to its advertiser.
    """
    utility: dict[object, Money] = {}
    paid: dict[UserRef, Money] = {}
    cost: dict[UserRef, Money] = {}  # true cost of each assigned user
    undelivered: dict[EntityId, list[Money]] = {}  # a mediator's unused true costs, dearest first
    won: dict[EntityId, int] = {}
    for i, event in outcome.decisions:
        changed: list[object] = []
        for t in event.trades:
            user, m, a = t.user, t.user.mediator, t.slot.advertiser
            true_costs = instance.mediator(m).user_costs
            if user.user_index < len(true_costs):
                cost[user] = true_costs[user.user_index]
                utility[user] = paid.get(user, 0) - cost[user]
                changed.append(user)
            if m not in undelivered:
                undelivered[m] = sorted(true_costs, reverse=True)
            left = undelivered[m]
            utility[m] = utility.get(m, 0) + (t.payment - left.pop() if left else 0)
            spec = instance.advertiser(a)
            won[a] = won.get(a, 0) + 1
            utility[a] = utility.get(a, 0) + (spec.value if won[a] <= spec.capacity else 0) - t.charge
            changed += (m, a)
        for user, target in event.pay_steps:
            paid[user] = target
            if user.user_index < len(instance.mediator(user.mediator).user_costs):
                utility[user] = target - cost.get(user, 0)
                changed.append(user)
        yield i, {p: utility[p] for p in changed}


def _check_player(instance: Instance, player) -> None:
    """Raise KeyError, ValueError or TypeError unless ``player`` is in ``instance``."""
    if isinstance(player, UserRef):
        spec = instance.mediator(player.mediator)
        if not 0 <= player.user_index < len(spec.user_costs):
            raise ValueError(f"unknown user {player}")
    elif isinstance(player, EntityId):
        # raises KeyError for unknown players
        if player.kind == "mediator":
            instance.mediator(player)
        else:
            instance.advertiser(player)
    else:
        raise TypeError(f"not a player: {player!r}")


def utility_trajectory(outcome: MechanismOutcome, instance: Instance, player) -> UtilityTrajectory:
    """True cumulative utility after each post-observation arrival."""
    _check_player(instance, player)
    series = [0]
    for i, changed in utility_steps(outcome, instance):
        series += [series[-1]] * (i + 1 - len(series))  # idle arrivals before i
        series.append(changed.get(player, series[-1]))
    series += [series[-1]] * (len(outcome.post_observation_order) + 1 - len(series))
    return UtilityTrajectory(player, tuple(series))


def final_utility(outcome: MechanismOutcome, instance: Instance, player) -> Money:
    _check_player(instance, player)
    return _final_utilities(outcome, instance).get(player, 0)


def _final_utilities(outcome: MechanismOutcome, instance: Instance) -> dict[object, Money]:
    """Every player's last utility; players absent never moved from 0."""
    final: dict[object, Money] = {}
    for _, changed in utility_steps(outcome, instance):
        final.update(changed)
    return final


def all_players(instance: Instance) -> list[object]:
    players: list[object] = []
    for m in instance.mediators:
        players.extend(UserRef(m.id, i) for i in range(len(m.user_costs)))
    players.extend(m.id for m in instance.mediators)
    players.extend(a.id for a in instance.advertisers)
    return players


# -- per-run checks ------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _first_drops(steps: Iterable[tuple[int, dict[object, Money]]], start: Money = 0) -> dict[object, str]:
    """Each player's first utility drop over ``steps``, ``(position,
    changed)`` pairs, as a message naming the event at position i as event
    i + 1; a player stands at ``start`` until a step first moves it."""
    last: dict[object, Money] = {}
    drops: dict[object, str] = {}
    for i, changed in steps:
        for player, u in changed.items():
            old = last.get(player, start)
            if u < old and player not in drops:
                drops[player] = f"{player}: utility drops {old} -> {u} at event {i + 1}"
            last[player] = u
    return drops


def check_continuous_ir(trajectory: UtilityTrajectory) -> CheckResult:
    """Starts at zero and never decreases."""
    p, s = trajectory.player, trajectory.series
    fails = [f"{p}: trajectory starts at {s[0]}, not 0"] if s[0] != 0 else []
    fails.extend(_first_drops(enumerate({p: u} for u in s[1:]), start=s[0]).values())
    return CheckResult(not fails, tuple(fails))


def check_budget_balance(outcome: MechanismOutcome) -> CheckResult:
    """No deficit overall, per trade, and per mediator after every event.

    A mediator's running debt is the sum of its users' pay targets, folded
    from the pay steps. A deficit can only start at a decision, which changes
    the mediator's debt or receipts, so each decision compares only the
    mediators in its trades and pay steps.
    """
    fails = []
    total_charges = 0
    receipts_so_far: dict[EntityId, Money] = {}
    paid: dict[UserRef, Money] = {}
    owed: dict[EntityId, Money] = {}
    for i, event in outcome.decisions:
        for t in event.trades:
            if t.charge < t.payment:
                fails.append(f"event {i}: trade charges {t.charge} but pays {t.payment}")
            total_charges += t.charge
            receipts_so_far[t.user.mediator] = receipts_so_far.get(t.user.mediator, 0) + t.payment
        for user, target in event.pay_steps:
            owed[user.mediator] = owed.get(user.mediator, 0) + target - paid.get(user, 0)
            paid[user] = target
        touched = {t.user.mediator for t in event.trades} | {user.mediator for user, _ in event.pay_steps}
        for m in sorted(touched):
            if owed.get(m, 0) > receipts_so_far.get(m, 0):
                fails.append(
                    f"event {i}: mediator {m} owes users {owed.get(m, 0)} but has only received {receipts_so_far.get(m, 0)}"
                )
    total_receipts = sum(receipts_so_far.values())
    if total_charges < total_receipts:
        fails.insert(0, f"total charges {total_charges} < total mediator receipts {total_receipts}")
    return CheckResult(not fails, tuple(fails))


def check_surplus_invariant(outcome: MechanismOutcome) -> CheckResult:
    """After each arrival: no assignable user or no assignable slot is left idle.

    The idle units are recounted from the run's view, thresholds and arrival
    order, not read from the serving loop: an arriving mediator adds its
    users keyed below the cost threshold, an arriving advertiser its slots
    keyed above the value threshold, and each trade takes one of each. Under
    the dummy pair nothing is assignable. The counts move only at an arrival
    with supply, found from the arrival order, or at a decision, so only
    those positions are recounted; every position up to the next one keeps
    their counts, and each such position fails while both are positive.
    """
    view, th = outcome.view, outcome.thresholds
    if th.is_dummy:
        return CheckResult(True, ())
    supply: dict[EntityId, int] = {}  # each entity's assignable users or slots
    for user in view.sorted_users[: th.users_below(view)]:
        supply[user.mediator] = supply.get(user.mediator, 0) + 1
    supply.update(th.assignable_slots(view))
    post = outcome.post_observation_order
    n = len(post)
    traded = dict.fromkeys(compress(range(n), map(supply.__contains__, post)), 0)  # position -> trades there
    for i, event in outcome.decisions:
        if 0 <= i < n:
            traded[i] = traded.get(i, 0) + len(event.trades)
    fails, users, slots = [], 0, 0
    marks = sorted(traded)
    marks.append(n)
    for k, i in enumerate(marks[:-1]):
        entity, got, made = post[i], supply.get(post[i], 0), traded[i]
        if entity.kind == "mediator":
            users, slots = users + got - made, slots - made
        else:
            users, slots = users - made, slots + got - made
        if users > 0 and slots > 0:  # so until the next mark
            fails += [f"event {j}: {users} assignable users and {slots} assignable slots both left unassigned" for j in range(i, marks[k + 1])]
    return CheckResult(not fails, tuple(fails))


def check_online_legality(outcome: MechanismOutcome) -> CheckResult:
    """Every decision sits at its arrival's position, positions rise, every
    trade involves the entity that just arrived, on exactly one side, and no
    user and no slot trades twice."""
    fails = []
    users, slots = set(), set()
    post, last = outcome.post_observation_order, -1
    for i, event in outcome.decisions:
        if i <= last:
            fails.append(f"event {i}: recorded after event {last}; positions must rise")
        last = max(last, i)
        arrived = post[i] if 0 <= i < len(post) else None
        if event.arrival != arrived:
            fails.append(f"event {i}: decision for {event.arrival}, but {arrived or 'no entity'} arrived there")
        for t in event.trades:
            sides = (t.user.mediator == event.arrival) + (t.slot.advertiser == event.arrival)
            if sides != 1:
                fails.append(f"event {i}: trade {t.user}->{t.slot} does not involve arrival {event.arrival} on one side")
            if t.user in users:
                fails.append(f"event {i}: user {t.user} trades twice")
            if t.slot in slots:
                fails.append(f"event {i}: slot {t.slot} trades twice")
            users.add(t.user)
            slots.add(t.slot)
    return CheckResult(not fails, tuple(fails))


def check_pay_targets_monotone(outcome: MechanismOutcome) -> CheckResult:
    """Cumulative user pay targets never decrease: no pay step is below that
    user's running target."""
    fails = []
    running: dict[UserRef, Money] = {}
    for i, event in outcome.decisions:
        for user, target in event.pay_steps:
            old = running.get(user, 0)
            if target < old:
                fails.append(f"event {i}: pay target of {user} drops {old} -> {target}")
            running[user] = target
    return CheckResult(not fails, tuple(fails))


def check_observed_never_trade(outcome: MechanismOutcome) -> CheckResult:
    fails = []
    trades = outcome.trades_of()
    if trades:
        observed = set(outcome.arrival_order[: outcome.observation_count])
        for t in trades:
            if t.user.mediator in observed or t.slot.advertiser in observed:
                fails.append(f"observed entity traded: {t.user}->{t.slot}")
    return CheckResult(not fails, tuple(fails))


RUN_CHECKS: dict[str, Callable[[MechanismOutcome], CheckResult]] = {
    "budget_balance": check_budget_balance,
    "surplus_invariant": check_surplus_invariant,
    "online_legality": check_online_legality,
    "pay_targets_monotone": check_pay_targets_monotone,
    "observed_never_trade": check_observed_never_trade,
}


# -- misreports ------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationCase:
    """One misreport: who deviates and what they claim instead. The
    player's kind says what ``report`` is: a user's cost, a mediator's cost
    vector, or an advertiser's ``(capacity, value)``."""

    player: object  # UserRef or EntityId
    label: str
    report: object  # Money, tuple[Money, ...] or tuple[int, Money]

    def apply(self, reports: ReportProfile) -> ReportProfile:
        if isinstance(self.player, UserRef):
            return reports.with_user_cost(self.player, self.report)
        if self.player.kind == "mediator":
            return reports.with_mediator_costs(self.player, self.report)
        return reports.with_advertiser_slots(self.player, *self.report)


def _dedupe(cases: list[DeviationCase], truth) -> list[DeviationCase]:
    seen = {truth}
    out = []
    for c in cases:
        if c.report not in seen:
            seen.add(c.report)
            out.append(c)
    return out


def generate_misreports(player, instance: Instance, rng: random.Random, k: int) -> list[DeviationCase]:
    """Up to k deterministic-given-rng misreports for one player.

    Users get boundary probes around their true cost (zero, halved, doubled,
    one micro-unit up/down, very large); mediators get vector edits (drop,
    duplicate, fake cheap/expensive user, permutations, per-entry perturbs,
    rescales); advertisers get capacity and value edits including capacity 0
    and inflated capacity.
    """
    big = 10**12
    cases: list[DeviationCase] = []
    if isinstance(player, UserRef):
        c = instance.mediator(player.mediator).user_costs[player.user_index]
        pool = [0, c + 1, max(0, c - 1), 2 * c, c // 2, big, c + 7, max(0, c - 7)]
        for x in pool:
            cases.append(DeviationCase(player, f"user cost {c}->{x}", x))
        cases = _dedupe(cases, c)
    elif player.kind == "mediator":
        costs = instance.mediator(player).user_costs
        n = len(costs)
        pool: list[tuple[str, tuple[Money, ...]]] = []
        if n:  # a mediator with no users has none to drop or duplicate
            cheapest = min(range(n), key=lambda i: costs[i])
            pool.append(("drop cheapest user", tuple(c for i, c in enumerate(costs) if i != cheapest)))
            if n > 1:
                drop = rng.randrange(n)
                pool.append((f"drop user {drop}", tuple(c for i, c in enumerate(costs) if i != drop)))
            dup = rng.randrange(n)
            pool.append((f"duplicate user {dup}", costs + (costs[dup],)))
        pool.append(("append fake cheap user", costs + (0,)))
        pool.append(("append two fake cheap users", costs + (0, 0)))
        pool.append(("append fake expensive user", costs + (big,)))
        pool.append(("reverse order", tuple(reversed(costs))))
        shuffled = list(costs)
        rng.shuffle(shuffled)
        pool.append(("shuffle order", tuple(shuffled)))
        pool.append(("all costs +1", tuple(c + 1 for c in costs)))
        pool.append(("all costs -1", tuple(max(0, c - 1) for c in costs)))
        pool.append(("all costs doubled", tuple(2 * c for c in costs)))
        pool.append(("all costs halved", tuple(c // 2 for c in costs)))
        pool.append(("all costs zero", tuple(0 for _ in costs)))
        jitter = tuple(max(0, c + rng.choice((-1, 1)) * rng.randrange(1, 4)) for c in costs)
        pool.append(("jitter each cost", jitter))
        cases = [DeviationCase(player, label, v) for label, v in pool]
        cases = _dedupe(cases, costs)
    else:
        spec = instance.advertiser(player)
        u, v = spec.capacity, spec.value
        pool = [
            (u, 2 * v),
            (u, v // 2),
            (u, v + 1),
            (u, max(0, v - 1)),
            (u, 0),
            (u, big),
            (u + 1, v),
            (u + 3, v),
            (max(0, u - 1), v),
            (0, v),
            (u + 1, v + 1),
            (2 * u, 2 * v),
        ]
        cases = [DeviationCase(player, f"report cap/value {uu}/{vv}", (uu, vv)) for uu, vv in pool]
        cases = _dedupe(cases, (u, v))
    rng.shuffle(cases)
    return cases[:k]


@dataclass(frozen=True)
class DeviationVerdict:
    case: DeviationCase
    seed: int
    truthful_utility: Money
    deviant_utility: Money

    @property
    def profitable(self) -> bool:
        return self.deviant_utility > self.truthful_utility


def _truthful_finals(instance: Instance, configs: Sequence[MechanismConfig]) -> list[dict[object, Money]]:
    """Per config, every player's final utility in the truthful run; the
    true view is built once and shared by the runs."""
    view = true_view(instance)
    return [_final_utilities(run_mechanism(instance, None, c, view=view), instance) for c in configs]


def _twins(
    instance: Instance,
    truthful: ReportProfile,
    case: DeviationCase,
    configs: Sequence[MechanismConfig],
    truthful_finals: Sequence[dict[object, Money]],
) -> Iterator[tuple[DeviationVerdict, MechanismOutcome]]:
    """Run ``case``'s misreport once per config, on one shared view, and
    compare the deviant's final utility with its truthful twin's under the
    same seed. Yields each verdict with the deviant outcome."""
    deviant = case.apply(truthful)
    view = report_view(instance, deviant)
    for config, finals in zip(configs, truthful_finals):
        outcome = run_mechanism(instance, deviant, config, view=view)
        du = _final_utilities(outcome, instance).get(case.player, 0)
        yield DeviationVerdict(case, config.seed, finals.get(case.player, 0), du), outcome


def deviation_test(
    instance: Instance,
    case: DeviationCase,
    base_config: MechanismConfig,
    seeds: Sequence[int],
) -> list[DeviationVerdict]:
    """Truthful vs misreporting twin runs, one pair per seed, exact compare."""
    truthful = ReportProfile.truthful(instance)
    configs = [replace(base_config, seed=seed) for seed in seeds]
    finals = _truthful_finals(instance, configs)
    return [verdict for verdict, _ in _twins(instance, truthful, case, configs, finals)]


# -- sweeps ----------------------------------------------------------------------


@dataclass
class SweepResult:
    runs: int = 0
    trades: int = 0
    trajectories: int = 0
    deviation_pairs: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def truthful_sweep(
    runs: Iterable[tuple[Instance, MechanismConfig]],
    collect_outcomes: bool = False,
) -> tuple[SweepResult, list[MechanismOutcome]]:
    """Run truthfully and check IR for every player plus all run invariants.

    Consecutive runs on the same ``Instance`` object share one
    ``true_view``: truthful reports read as the true market, so no report
    profile is built. Players are counted once per viewed instance (users
    plus entities) for ``trajectories``, and listed with ``all_players``
    only for a run in which some player's utility drops, to order its
    ``continuous_ir`` lines.
    """
    result = SweepResult()
    outcomes = []
    viewed = None  # the instance that ``view`` belongs to
    for instance, config in runs:
        if instance is not viewed:
            viewed, view = instance, true_view(instance)
            n_players = instance.n_entities + sum(len(m.user_costs) for m in instance.mediators)
        outcome = run_mechanism(instance, None, config, view=view)
        result.runs += 1
        result.trades += sum(len(e.trades) for _, e in outcome.decisions)
        for name, chk in RUN_CHECKS.items():
            got = chk(outcome)
            if not got.ok:
                result.violations.append(f"{name}: {got.failures[0]}")
        result.trajectories += n_players
        drops = _first_drops(utility_steps(outcome, instance))
        if drops:
            result.violations.extend(f"continuous_ir: {drops[p]}" for p in all_players(instance) if p in drops)
        if collect_outcomes:
            outcomes.append(outcome)
    return result, outcomes


def incentive_sweep(
    items: Iterable[tuple[Instance, MechanismConfig]],
    misreports_per_role: int,
    seeds_per_case: int,
    rng: random.Random,
) -> SweepResult:
    """Sampled misreports for every role; any strictly profitable deviation is a violation.

    Invariant checks also run on every deviant outcome (criterion: surplus and
    legality hold across all runs, truthful or not). Each report profile's
    view is built once and shared by its runs.
    """
    result = SweepResult()
    for instance, base_config in items:
        truthful = ReportProfile.truthful(instance)
        configs = [replace(base_config, seed=rng.randrange(2**60)) for _ in range(seeds_per_case)]
        truthful_finals = _truthful_finals(instance, configs)
        result.runs += len(configs)

        users = [p for p in all_players(instance) if isinstance(p, UserRef)]
        mediators = [m.id for m in instance.mediators]
        advertisers = [a.id for a in instance.advertisers]
        for role_players in (users, mediators, advertisers):
            if not role_players:
                continue
            cases: list[DeviationCase] = []
            guard = 0
            while len(cases) < misreports_per_role and guard < misreports_per_role * 10:
                guard += 1
                player = rng.choice(role_players)
                take = generate_misreports(player, instance, rng, misreports_per_role - len(cases))
                cases.extend(take)
            for case in cases:
                for verdict, outcome in _twins(instance, truthful, case, configs, truthful_finals):
                    result.runs += 1
                    result.deviation_pairs += 1
                    for name in ("surplus_invariant", "online_legality"):
                        got = RUN_CHECKS[name](outcome)
                        if not got.ok:
                            result.violations.append(f"{name}[deviant]: {got.failures[0]}")
                    if verdict.profitable:
                        result.violations.append(
                            f"profitable deviation: {case.label} for {case.player} "
                            f"(truthful {verdict.truthful_utility} < deviant {verdict.deviant_utility}, "
                            f"seed {verdict.seed})"
                        )
    return result
