"""Diagnostics behind the competitive-ratio analysis, plus experiments.

For a truthful run this module rebuilds the sample-split bookkeeping the
ratio argument rests on: the offline-optimal users/slots, the slightly
shortened "core" prefix of the optimum, the set of post-observation
users/slots that clear the thresholds, a trailing random block of arrivals,
and the marginal retained slot value ``ell``. It then evaluates the
concentration event those proofs condition on, so Monte Carlo sweeps can
compare the event's empirical frequency against its analytic lower bound.

Everything that depends only on the instance (the true view with its
sorted users and blocks, the optimum, ``ell``, per-entity optimum counts) is
prepared once in an ``OfflineOptimum``; a diagnostic pass then reads only
what its run observed and which prefix of each sorted order its thresholds
cleared, the cut the engine serves from (``Thresholds.users_below`` and
``Thresholds.assignable_slots``), and decides every cube-root bound in
integers. Every sub-market optimum, the observed one and the one left
reachable, filters the view's orders (``canonical_within``).

Experiments report raw and zero-clamped analytic bounds side by side; at
desk scales the bounds are often vacuous and the point of the lab is the
empirical trend, not the constant.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .canonical import CanonicalAssignment, canonical_within
from .market import EntityId, Instance, MarketView, Money, SlotRef, UserRef, true_view
from .mechanism import (
    MechanismConfig,
    MechanismOutcome,
    at_most_cbrt,
    ceil_minus_cbrt,
    derive_r,
    truthful_run,
)

def analytic_bound(alpha: float, r: float) -> float:
    """Analytic competitive-ratio lower bound for given alpha and r (raw)."""
    a3 = alpha ** (1.0 / 3.0)
    return 1.0 - r - 22.0 / r * a3 - 10.0 * math.exp(-2.0 / a3)


def competitive_ratio_bound(alpha: float) -> float:
    """Bound at the recommended observation rate (raw, usually negative at desk scale)."""
    a6 = alpha ** (1.0 / 6.0)
    a3 = alpha ** (1.0 / 3.0)
    return 1.0 - 9.5 * a6 - 10.0 * math.exp(-2.0 / a3)


def event_probability_bound(alpha: float) -> float:
    """Analytic lower bound on the concentration event's probability (raw)."""
    return 1.0 - 10.0 * math.exp(-2.0 / alpha ** (1.0 / 3.0))


def clamp01(x: float) -> float:
    return max(0.0, x)


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95 percent Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need n > 0")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class EventFlags:
    """The concentration event and its pieces, exactly evaluated."""

    observed_opt_slots_ok: bool  # | |B_o ∩ observed| - r|B_o| |  <= a^(1/3) tau
    observed_opt_users_ok: bool
    observed_core_slots_ok: bool  # same for the shortened core prefix
    observed_core_users_ok: bool
    spare_slots_covered: bool  # |clearing slots outside the trailing block| <= |clearing users|
    spare_users_covered: bool
    core_slots_subset: bool  # unobserved core slots all clear the threshold
    core_users_subset: bool
    ell_sandwich: bool  # every clearing user cost <= ell <= every clearing slot value
    clearing_within_optimum: bool  # clearing users/slots sit inside the offline optimum

    @property
    def concentration(self) -> bool:
        return (
            self.observed_opt_slots_ok
            and self.observed_opt_users_ok
            and self.observed_core_slots_ok
            and self.observed_core_users_ok
        )

    @property
    def event(self) -> bool:
        return self.concentration and self.spare_slots_covered and self.spare_users_covered


@dataclass(frozen=True)
class DiagnosticSets:
    tau: int
    opt_users: tuple[UserRef, ...]  # users the offline optimum assigns
    opt_slots: tuple[SlotRef, ...]
    core_users: tuple[UserRef, ...]  # optimum prefix of length ceil((1 - 6/r a^(1/3)) tau)
    core_slots: tuple[SlotRef, ...]
    clearing_users: tuple[UserRef, ...]  # post-observation users below the cost threshold
    clearing_slots: tuple[SlotRef, ...]
    ell: Money  # value of the optimum's last retained slot
    trailing_count: int
    trailing_mediators: tuple[EntityId, ...]
    trailing_advertisers: tuple[EntityId, ...]
    observed_canonical_size: int
    flags: EventFlags


def _abs_dev_within_cbrt(count: int, r: Fraction, total: int, alpha: Fraction, tau_: int) -> bool:
    """Exactly decide |count - r*total| <= alpha^(1/3) * tau, both sides
    multiplied by r's denominator."""
    return at_most_cbrt(abs(count * r.denominator - r.numerator * total), tau_ * r.denominator, alpha)


@dataclass(frozen=True)
class OfflineOptimum:
    """The offline optimum of one instance's true market, prepared once for
    every run diagnosed on that instance. Build it with ``offline_optimum``.

    Its two instance-level sandwich facts, every optimal cost <= ``ell`` <=
    every optimal value, are asserted once, when it is built.
    """

    instance: Instance
    view: MarketView  # true_view(instance); cano runs over its sorted orders
    cano: CanonicalAssignment  # over the whole true market
    opt_users: tuple[UserRef, ...]  # cano's users, cheapest first
    opt_slots: tuple[SlotRef, ...]  # cano's slots, most valuable first
    ell: Money  # value of the optimum's last retained slot
    gain: Money  # the optimum's gain from trade
    opt_users_per_mediator: Mapping[EntityId, int]  # every mediator, 0 when none of its users is optimal
    opt_slots_per_advertiser: Mapping[EntityId, int]
    entity_order: Mapping[EntityId, int]  # place of each entity in instance.entity_ids

    def __post_init__(self) -> None:
        if not all(self.view.user_costs[u] <= self.ell for u in self.opt_users):
            raise AssertionError("an offline-optimal user cost exceeds ell")
        if not all(self.ell <= self.view.slot_value(b) for b in self.opt_slots):
            raise AssertionError("ell exceeds an offline-optimal slot value")


def offline_optimum(instance: Instance) -> OfflineOptimum:
    """The canonical assignment of ``instance``'s true market and what every
    diagnostic pass reads from it. ``ValueError`` if the optimum is empty."""
    view = true_view(instance)
    cano = canonical_within(view)
    if cano.size == 0:
        raise ValueError("tau=0: the offline optimum is empty, nothing to diagnose or measure against")
    opt_users = cano.sorted_users[: cano.size]
    opt_slots = tuple(b for _, b in cano.ordered_pairs)
    per_mediator = dict.fromkeys(view.users_by_mediator, 0)
    for u in opt_users:
        per_mediator[u.mediator] += 1
    per_advertiser = dict.fromkeys(view.blocks, 0)
    for b in opt_slots:
        per_advertiser[b.advertiser] += 1
    return OfflineOptimum(
        instance=instance,
        view=view,
        cano=cano,
        opt_users=opt_users,
        opt_slots=opt_slots,
        ell=view.slot_value(opt_slots[-1]),
        gain=cano.gain(view),
        opt_users_per_mediator=per_mediator,
        opt_slots_per_advertiser=per_advertiser,
        entity_order={e: i for i, e in enumerate(instance.entity_ids)},
    )


def compute_diagnostic_sets(
    instance: Instance,
    outcome: MechanismOutcome,
    rng: random.Random,
    optimum: Optional[OfflineOptimum] = None,
) -> DiagnosticSets:
    """Rebuild the analysis sets for one truthful run.

    The trailing block is resampled here (it is an analysis device, not part
    of the mechanism), drawing each post-observation entity into the block
    with probability min(1, 16/r * alpha^(1/3)).

    A caller that diagnoses many runs of one instance passes ``optimum``,
    ``offline_optimum(instance)`` built once; it is built here when absent,
    and one prepared for another instance is a ``ValueError``. Each pass then
    reads only what its run observed and cleared.
    """
    if optimum is None:
        optimum = offline_optimum(instance)
    elif optimum.instance is not instance and optimum.instance != instance:
        raise ValueError("the offline optimum was prepared for another instance")
    alpha = outcome.alpha
    r = outcome.r
    view = optimum.view
    cano = optimum.cano
    tau_ = cano.size
    opt_users = optimum.opt_users
    opt_slots = optimum.opt_slots
    ell = optimum.ell

    # Core length ceil((1 - 6/r alpha^(1/3)) tau), 0 once that is <= 0: the
    # threshold location rule of ``compute_thresholds`` with 6 for its 2.
    core_len = max(0, ceil_minus_cbrt(tau_, Fraction(6 * tau_ * r.denominator, r.numerator), alpha))
    core_users = opt_users[:core_len]
    core_slots = opt_slots[:core_len]

    # The two count maps hold every mediator and every advertiser.
    observed = set(outcome.arrival_order[: outcome.observation_count])
    observed_m = observed.intersection(optimum.opt_users_per_mediator)
    observed_a = observed.intersection(optimum.opt_slots_per_advertiser)
    # The keys a threshold clears form a prefix of each sorted order, cut as
    # the engine cuts it: the users below the cost threshold, and the slots
    # of each block above the value threshold, its last ones, block by block
    # (``cano.sorted_users`` and ``sorted_blocks`` are the view's).
    thresholds = outcome.thresholds
    n_users = thresholds.users_below(view)
    cleared = thresholds.assignable_slots(view)
    n_slots = sum(cleared.values())
    cleared_users = [u for u in cano.sorted_users[:n_users] if u.mediator not in observed_m]
    slots_of = {
        a: range(view.blocks[a].capacity - n, view.blocks[a].capacity) for a, n in cleared.items() if a not in observed_a
    }
    # The clearing lists run in view order: by the entity's place in the
    # instance, then by index. Users sort as (place, index, ref) triples, so
    # every comparison runs in C.
    place = optimum.entity_order.__getitem__
    keys = zip(map(place, map(itemgetter(0), cleared_users)), map(itemgetter(1), cleared_users), cleared_users)
    clearing_users = tuple(map(itemgetter(2), sorted(keys)))
    new = tuple.__new__
    clearing_slots = tuple(new(SlotRef, (a, j)) for a in sorted(slots_of, key=place) for j in slots_of[a])

    post = outcome.post_observation_order
    # 16/r as one int division, which rounds exactly as float(Fraction(16) / r).
    p_block = min(1.0, 16 * r.denominator / r.numerator * float(alpha) ** (1.0 / 3.0))
    picks = [e for e in post if rng.random() < p_block]
    f = len(picks)
    trailing = post[len(post) - f :] if f else ()
    trailing_m = tuple(e for e in trailing if e.kind == "mediator")
    trailing_a = tuple(e for e in trailing if e.kind == "advertiser")

    # Exact concentration checks on the observed split.
    opt_slots_observed = sum(map(optimum.opt_slots_per_advertiser.__getitem__, observed_a))
    opt_users_observed = sum(map(optimum.opt_users_per_mediator.__getitem__, observed_m))
    core_slots_observed = sum(1 for b in core_slots if b.advertiser in observed_a)
    core_users_observed = sum(1 for u in core_users if u.mediator in observed_m)

    trailing_m_set = set(trailing_m)
    trailing_a_set = set(trailing_a)
    spare_slots = sum(len(js) for a, js in slots_of.items() if a not in trailing_a_set)
    spare_users = sum(1 for u in clearing_users if u.mediator not in trailing_m_set)

    # The cleared prefix, the core and the optimum are all prefixes of each
    # sorted order, so one holds the unobserved entries of another exactly
    # when none sits between their two lengths: slots tau..n_slots-1 lie in
    # the cleared blocks from the one holding slot tau on.
    core_users_subset = all(u.mediator in observed_m for u in cano.sorted_users[n_users:core_len])
    core_slots_subset = all(b.advertiser in observed_a for b in core_slots[n_slots:])
    clearing_within = all(u.mediator in observed_m for u in cano.sorted_users[tau_:n_users]) and (
        n_slots <= tau_ or all(a in observed_a for a in list(cleared)[bisect_right(cano.slot_ends, tau_) :])
    )
    # Cleared users run in key order, so the last is the dearest; slots are checked per block.
    ell_sandwich = (not cleared_users or view.user_costs[cleared_users[-1]] <= ell) and all(
        ell <= view.blocks[a].value for a in slots_of
    )

    flags = EventFlags(
        observed_opt_slots_ok=_abs_dev_within_cbrt(opt_slots_observed, r, len(opt_slots), alpha, tau_),
        observed_opt_users_ok=_abs_dev_within_cbrt(opt_users_observed, r, len(opt_users), alpha, tau_),
        observed_core_slots_ok=_abs_dev_within_cbrt(core_slots_observed, r, len(core_slots), alpha, tau_),
        observed_core_users_ok=_abs_dev_within_cbrt(core_users_observed, r, len(core_users), alpha, tau_),
        spare_slots_covered=spare_slots <= len(clearing_users),
        spare_users_covered=spare_users <= len(clearing_slots),
        core_slots_subset=core_slots_subset,
        core_users_subset=core_users_subset,
        ell_sandwich=ell_sandwich,
        clearing_within_optimum=clearing_within,
    )

    # Always-true sandwich fact, asserted on every diagnostic pass; the
    # instance-level ones were asserted when the optimum was built.
    observed_size = canonical_within(view, observed).size
    lo = min(opt_users_observed, opt_slots_observed)
    hi = max(opt_users_observed, opt_slots_observed)
    if not lo <= observed_size <= hi:
        raise AssertionError("observed canonical size escaped the min/max sandwich")

    return DiagnosticSets(
        tau=tau_,
        opt_users=opt_users,
        opt_slots=opt_slots,
        core_users=core_users,
        core_slots=core_slots,
        clearing_users=clearing_users,
        clearing_slots=clearing_slots,
        ell=ell,
        trailing_count=f,
        trailing_mediators=trailing_m,
        trailing_advertisers=trailing_a,
        observed_canonical_size=observed_size,
        flags=flags,
    )


# -- experiments -----------------------------------------------------------------


@dataclass
class EventFrequencyResult:
    alpha: Fraction
    r: Fraction
    seeds: int
    event_count: int
    concentration_count: int
    event_frequency: float
    concentration_frequency: float
    event_wilson: tuple[float, float]
    concentration_wilson: tuple[float, float]
    bound_raw: float
    bound_clamped: float

    @property
    def meets_bound(self) -> bool:
        return self.event_frequency >= self.bound_clamped


def event_frequency_experiment(
    instance: Instance,
    alpha: Fraction,
    n_seeds: int,
    r: Optional[Fraction] = None,
    base_seed: int = 0,
) -> EventFrequencyResult:
    """Monte Carlo frequency of the concentration event on truthful runs.

    The offline optimum, with the true view, is prepared once and shared by
    every run and its diagnostics; ``r``, when None, is derived once.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    optimum = offline_optimum(instance)
    r_point = derive_r(alpha) if r is None else r
    event_count = 0
    conc_count = 0
    r_used = None
    for i in range(n_seeds):
        config = MechanismConfig(alpha=alpha, r=r_point, seed=base_seed + i)
        outcome = truthful_run(instance, config, view=optimum.view)
        r_used = outcome.r
        diag = compute_diagnostic_sets(instance, outcome, random.Random((base_seed + i) ^ 0x9E3779B9), optimum=optimum)
        event_count += diag.flags.event
        conc_count += diag.flags.concentration
    raw = event_probability_bound(float(alpha))
    return EventFrequencyResult(
        alpha=Fraction(alpha),
        r=r_used,
        seeds=n_seeds,
        event_count=event_count,
        concentration_count=conc_count,
        event_frequency=event_count / n_seeds,
        concentration_frequency=conc_count / n_seeds,
        event_wilson=wilson_interval(event_count, n_seeds),
        concentration_wilson=wilson_interval(conc_count, n_seeds),
        bound_raw=raw,
        bound_clamped=clamp01(raw),
    )


@dataclass
class RatioPoint:
    alpha: Fraction
    r: Fraction
    tau: int
    seeds: int
    ratios: tuple[float, ...]  # one empirical ratio per seed
    mean: float
    std_error: float
    quantiles: tuple[float, float, float]  # 10/50/90
    bound_raw: float
    bound_clamped: float
    # Same ratios against the unobserved sub-market's optimum; a run whose
    # reachable optimum is zero trades nothing and counts as 1.0.
    mean_vs_reachable: float


def competitive_ratio_experiment(
    points: Sequence[tuple[Fraction, Instance]],
    n_seeds: int,
    r: Optional[Fraction] = None,
    base_seed: int = 0,
) -> list[RatioPoint]:
    """Empirical GfT share of the offline optimum, per alpha grid point.

    Each point runs one matched instance for n_seeds mechanism seeds. The
    ratio per run is the exact ratio of integer GfTs, rounded once to float
    (int true division). A point whose optimum gain is zero raises
    ``ValueError``: instance validation passes it when tau >= 1 but amounts
    tie, and its ratio is undefined.

    Per point, the offline optimum is prepared once and ``r``, when None,
    derived once: every run shares its true view, with the view's sorted
    orders, and rate, and each run's reachable optimum is the gain of
    ``canonical_within`` the entities the run left unobserved, summed per
    block.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    results = []
    for alpha, instance in points:
        optimum = offline_optimum(instance)
        view = optimum.view
        opt = optimum.gain
        if opt <= 0:
            raise ValueError(f"alpha={alpha}: optimum gain is {opt}, ratio undefined; pick another instance")
        entities = frozenset(instance.entity_ids)
        r_point = derive_r(alpha) if r is None else r
        ratios: list[float] = []
        reachable_ratios: list[float] = []
        r_used = None
        for i in range(n_seeds):
            config = MechanismConfig(alpha=alpha, r=r_point, seed=base_seed + i)
            outcome = truthful_run(instance, config, view=view)
            r_used = outcome.r
            ratios.append(outcome.gft / opt)
            unobserved = entities.difference(outcome.arrival_order[: outcome.observation_count])
            reachable = canonical_within(view, unobserved).gain(view)
            if reachable > 0:
                reachable_ratios.append(outcome.gft / reachable)
            elif outcome.gft == 0:
                reachable_ratios.append(1.0)
            else:
                raise AssertionError(
                    f"alpha={alpha} seed={base_seed + i}: gft {outcome.gft} with no gain left unobserved"
                )
        raw = analytic_bound(float(alpha), float(r_used))
        deciles = statistics.quantiles(ratios, n=10, method="inclusive") if n_seeds > 1 else ratios * 9
        results.append(
            RatioPoint(
                alpha=Fraction(alpha),
                r=r_used,
                tau=optimum.cano.size,
                seeds=n_seeds,
                ratios=tuple(ratios),
                mean=statistics.fmean(ratios),
                std_error=statistics.stdev(ratios) / math.sqrt(n_seeds) if n_seeds > 1 else 0.0,
                quantiles=(deciles[0], deciles[4], deciles[8]),
                bound_raw=raw,
                bound_clamped=clamp01(raw),
                mean_vs_reachable=statistics.fmean(reachable_ratios),
            )
        )
    return results
