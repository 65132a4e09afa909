"""Analytic bounds, diagnostic set reconstruction, and the two experiments."""

import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from observeprice import (
    DiagnosticSets,
    EventFlags,
    MechanismConfig,
    SlotRef,
    canonical_assignment,
    canonical_within,
    competitive_ratio_experiment,
    compute_diagnostic_sets,
    event_frequency_experiment,
    event_probability_bound,
    gain_from_trade,
    injected_thresholds,
    GeneratorConfig,
    MICRO,
    generate_instance,
    matched_family,
    mediator_id,
    uniform,
    analytic_bound,
    offline_optimum,
    optimal_gain,
    run_mechanism,
    ReportProfile,
    true_view,
    truthful_run,
    wilson_interval,
)
import observeprice
from observeprice import analysis, canonical, market, mechanism
from observeprice.analysis import clamp01, competitive_ratio_bound
from observeprice.mechanism import at_most_cbrt, ceil_minus_cbrt
from conftest import (
    LOCATION_GRID,
    ORGANIC_ALPHA,
    build_instance,
    organic_instance,
    per_unit_canonical,
    per_unit_pairs,
    per_unit_slot_keys,
    sandwich_corpus,
)


def test_ratio_experiment_runs_without_numpy():
    """The package needs only the standard library: in a fresh process where
    numpy cannot be imported, the ratio experiment runs and summarizes."""
    src = os.path.dirname(os.path.dirname(observeprice.__file__))
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from fractions import Fraction\n"
        "from observeprice import competitive_ratio_experiment, matched_family\n"
        "alpha = Fraction(1, 80)\n"
        "(point,) = competitive_ratio_experiment([(alpha, matched_family(alpha, seed=0))], n_seeds=4)\n"
        "print(type(point.ratios).__name__, len(point.ratios), 0 < point.mean < 1, point.quantiles[0] <= point.quantiles[2])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert got.stdout.strip() == "tuple 4 True True"


# -- bounds -------------------------------------------------------------------


def test_competitive_ratio_bound_is_vacuous_at_desk_scale():
    got = competitive_ratio_bound(1e-3)
    assert got < 0
    assert abs(got - (1 - 9.5 * 10 ** (-0.5) - 10 * math.exp(-20))) < 1e-9
    assert clamp01(got) == 0.0


def test_competitive_ratio_bound_turns_positive_for_planet_scale_alpha():
    got = competitive_ratio_bound(1e-9)
    assert 0.69 < got < 0.70


def test_analytic_bound_approaches_one_minus_r():
    assert 0.49 < analytic_bound(1e-12, 0.5) < 0.5


def test_event_probability_bound_frozen_values():
    assert abs(event_probability_bound(0.2) - 0.6732) < 1e-3
    assert abs(event_probability_bound(0.0125) - 0.99819) < 1e-4


def test_wilson_interval_frozen_and_edges():
    low, high = wilson_interval(8, 10)
    assert abs(low - 0.4902) < 1e-3
    assert abs(high - 0.9433) < 1e-3
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0


def test_wilson_interval_brackets_the_estimate():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 500)
        s = rng.randint(0, n)
        low, high = wilson_interval(s, n)
        assert 0.0 <= low <= s / n <= high <= 1.0


# -- diagnostic sets -----------------------------------------------------------


def _ladder_instance():
    # costs 1..4 against slot values 10, 9, 8, 0: the optimum keeps three pairs
    return build_instance(
        [[1], [2], [3], [4]],
        [(1, 10), (1, 9), (1, 8), (1, 0)],
        seed=0,
    )


def test_diagnostics_frozen_ladder():
    inst = _ladder_instance()
    out = truthful_run(inst, MechanismConfig(alpha=Fraction(1, 3), seed=1))
    diag = compute_diagnostic_sets(inst, out, random.Random(0))
    view = true_view(inst)
    assert diag.tau == 3
    assert diag.ell == 8
    assert [view.user_costs[u] for u in diag.opt_users] == [1, 2, 3]
    assert sorted(view.slot_value(b) for b in diag.opt_slots) == [8, 9, 10]
    # r = 1/2 and alpha = 1/3 make the core shrinkage dominate: empty core
    assert diag.core_users == ()
    # dummy thresholds here, so nothing clears and the event holds trivially
    assert out.thresholds.is_dummy
    assert diag.clearing_users == ()
    assert diag.flags.event
    assert diag.flags.ell_sandwich


def test_diagnostics_rejects_trivial_markets():
    inst = build_instance([[9]], [(1, 1)], seed=0)
    # the run itself already refuses tau=0, so diagnostics never see a real
    # outcome for this market; borrow a neighboring outcome to hit the guard
    donor = truthful_run(_ladder_instance(), MechanismConfig(alpha=Fraction(1, 3), seed=0))
    with pytest.raises(ValueError):
        compute_diagnostic_sets(inst, donor, random.Random(0))


def test_diagnostics_with_live_thresholds():
    """Organic instance whose thresholds are real: clearing sets respect the
    threshold keys and sit inside the optimum (every pair trades in it)."""
    inst = organic_instance(1)
    view = true_view(inst)
    for seed in range(5):
        out = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=seed))
        assert not out.thresholds.is_dummy
        diag = compute_diagnostic_sets(inst, out, random.Random(seed))
        observed = set(out.observed_mediators)
        for u in diag.clearing_users:
            assert u.mediator not in observed
            assert view.user_costs[u] < out.thresholds.payment or (
                view.user_costs[u] == out.thresholds.payment
            )
        assert diag.flags.clearing_within_optimum
        assert diag.flags.ell_sandwich
        # trailing block probability is 1 here, so spares are fully covered
        assert diag.trailing_count == len(out.post_observation_order)
        assert diag.flags.event == diag.flags.concentration


def test_diagnostics_trailing_block_resampling_is_seeded():
    inst = organic_instance(1)
    out = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=3))
    a = compute_diagnostic_sets(inst, out, random.Random(7))
    b = compute_diagnostic_sets(inst, out, random.Random(7))
    assert a == b


def _reference_abs_dev_within_cbrt(count, r, total, alpha, tau_):
    d = abs(Fraction(count) - Fraction(r) * total)
    return d**3 <= Fraction(alpha) * tau_**3


def _branched_core_length(tau_, r, alpha):
    """The core length as it was computed before its one-line rule: a zero
    pre-branch, then a clamp into 0..tau."""
    coeff = Fraction(6 * tau_) / r
    if at_most_cbrt(tau_, coeff, alpha):
        return 0
    return max(0, min(tau_, ceil_minus_cbrt(tau_, coeff, alpha)))


def _reference_diagnostic_sets(instance, outcome, rng, view=None, cano=None):
    """``compute_diagnostic_sets`` as it was before the offline optimum was
    prepared once per instance: every pass rebuilds the optimum's sets and
    scans every user and slot. Kept as the reference."""
    alpha = outcome.alpha
    r = outcome.r
    if view is None:
        view = true_view(instance)
    if cano is None:
        cano = canonical_assignment(view.all_users, view.blocks, view)
    tau_ = cano.size
    if tau_ == 0:
        raise ValueError("tau=0: diagnostics need a non-trivial optimum")
    opt_users = tuple(u for u, _ in cano.ordered_pairs)
    opt_slots = tuple(b for _, b in cano.ordered_pairs)
    ell = view.slot_value(opt_slots[-1])

    core_len = _branched_core_length(tau_, r, alpha)
    core_users = opt_users[:core_len]
    core_slots = opt_slots[:core_len]

    observed_m = set(outcome.observed_mediators)
    observed_a = set(outcome.observed_advertisers)
    thresholds = outcome.thresholds
    clearing_users = tuple(
        u
        for u in view.all_users
        if u.mediator not in observed_m and thresholds.user_key is not None and view.user_key(u) < thresholds.user_key
    )
    clearing_slots = tuple(
        b
        for b in view.all_slots
        if b.advertiser not in observed_a and thresholds.slot_key is not None and view.slot_key(b) > thresholds.slot_key
    )

    post = outcome.post_observation_order
    p_block = min(1.0, float(Fraction(16) / r) * float(alpha) ** (1.0 / 3.0))
    picks = [e for e in post if rng.random() < p_block]
    f = len(picks)
    trailing = post[len(post) - f :] if f else ()
    trailing_m = tuple(e for e in trailing if e.kind == "mediator")
    trailing_a = tuple(e for e in trailing if e.kind == "advertiser")

    opt_slots_observed = sum(1 for b in opt_slots if b.advertiser in observed_a)
    opt_users_observed = sum(1 for u in opt_users if u.mediator in observed_m)
    core_slots_observed = sum(1 for b in core_slots if b.advertiser in observed_a)
    core_users_observed = sum(1 for u in core_users if u.mediator in observed_m)

    trailing_m_set = set(trailing_m)
    trailing_a_set = set(trailing_a)
    spare_slots = sum(1 for b in clearing_slots if b.advertiser not in trailing_a_set)
    spare_users = sum(1 for u in clearing_users if u.mediator not in trailing_m_set)

    clearing_user_set = set(clearing_users)
    clearing_slot_set = set(clearing_slots)
    core_users_subset = all(u in clearing_user_set for u in core_users if u.mediator not in observed_m)
    core_slots_subset = all(b in clearing_slot_set for b in core_slots if b.advertiser not in observed_a)

    ell_sandwich = all(view.user_costs[u] <= ell for u in clearing_users) and all(
        ell <= view.slot_value(b) for b in clearing_slots
    )
    opt_user_set = set(opt_users)
    opt_slot_set = set(opt_slots)
    clearing_within = all(u in opt_user_set for u in clearing_users) and all(
        b in opt_slot_set for b in clearing_slots
    )

    flags = EventFlags(
        observed_opt_slots_ok=_reference_abs_dev_within_cbrt(opt_slots_observed, r, len(opt_slots), alpha, tau_),
        observed_opt_users_ok=_reference_abs_dev_within_cbrt(opt_users_observed, r, len(opt_users), alpha, tau_),
        observed_core_slots_ok=_reference_abs_dev_within_cbrt(core_slots_observed, r, len(core_slots), alpha, tau_),
        observed_core_users_ok=_reference_abs_dev_within_cbrt(core_users_observed, r, len(core_users), alpha, tau_),
        spare_slots_covered=spare_slots <= len(clearing_users),
        spare_users_covered=spare_users <= len(clearing_slots),
        core_slots_subset=core_slots_subset,
        core_users_subset=core_users_subset,
        ell_sandwich=ell_sandwich,
        clearing_within_optimum=clearing_within,
    )

    obs_cano = canonical_assignment([u for u in cano.sorted_users if u.mediator in observed_m], observed_a, view)
    lo = min(opt_users_observed, opt_slots_observed)
    hi = max(opt_users_observed, opt_slots_observed)
    if not lo <= obs_cano.size <= hi:
        raise AssertionError("observed canonical size escaped the min/max sandwich")
    if not all(view.user_costs[u] <= ell for u in opt_users):
        raise AssertionError("an offline-optimal user cost exceeds ell")
    if not all(ell <= view.slot_value(b) for b in opt_slots):
        raise AssertionError("ell exceeds an offline-optimal slot value")

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
        observed_canonical_size=obs_cano.size,
        flags=flags,
    )


def test_diagnostics_match_the_reference_on_the_criterion_8_mix():
    """Desk runs with injected thresholds, desk at alpha = 1, organic and
    matched 1/20 and 1/80 runs: every ``DiagnosticSets`` field equals the
    reference's, with the optimum prepared once per instance."""
    optimum = None
    seen = set()
    for i, (inst, cfg) in enumerate(sandwich_corpus()):
        if optimum is None or optimum.instance is not inst:
            optimum = offline_optimum(inst)
        outcome = run_mechanism(inst, ReportProfile.truthful(inst), cfg, view=optimum.view)
        want = _reference_diagnostic_sets(inst, outcome, random.Random(i), view=optimum.view, cano=optimum.cano)
        got = compute_diagnostic_sets(inst, outcome, random.Random(i), optimum=optimum)
        assert got == want, i
        seen.update((name, value) for name, value in vars(want.flags).items())
    # injected thresholds clear users and slots outside the optimum and beyond ell
    for name in ("clearing_within_optimum", "ell_sandwich"):
        assert {(name, True), (name, False)} <= seen


def test_diagnostics_match_the_reference_below_alpha_1_1728():
    """Below alpha = 1/1728 the core prefix is non-empty and the observed
    split can miss its band. The organic runs are diagnosed as if priced at
    such an alpha (diagnostics read alpha from the outcome), so every
    concentration, core and spare flag takes both values."""
    inst = organic_instance(1)
    optimum = offline_optimum(inst)
    seen = set()
    for seed in range(30):
        outcome = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=seed), view=optimum.view)
        for alpha in (Fraction(1, 2000), Fraction(1, 40000)):
            tiny = replace(outcome, alpha=alpha)
            want = _reference_diagnostic_sets(inst, tiny, random.Random(seed))
            assert compute_diagnostic_sets(inst, tiny, random.Random(seed), optimum=optimum) == want
            assert 0 < len(want.core_users) < want.tau
            seen.update((name, value) for name, value in vars(want.flags).items())
    for name in EventFlags.__dataclass_fields__:
        if name not in ("clearing_within_optimum", "ell_sandwich"):
            assert {(name, True), (name, False)} <= seen, name


def test_diagnostics_match_the_reference_with_thresholds_on_entity_keys():
    """Thresholds set exactly at an unobserved user's and slot's own keys,
    anywhere in the sorted orders: those two never clear (the rules are
    strict) and the prefix around them is read as the reference reads it."""
    inst = organic_instance(3)
    optimum = offline_optimum(inst)
    view, cano = optimum.view, optimum.cano
    rng = random.Random(5)
    for seed in range(20):
        outcome = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=seed), view=optimum.view)
        observed = set(outcome.observed_mediators) | set(outcome.observed_advertisers)
        users = [u for u in cano.sorted_users if u.mediator not in observed]
        slots = [SlotRef(b.advertiser, j) for b in cano.sorted_blocks if b.advertiser not in observed for j in range(b.capacity)]
        for _ in range(5):
            u, b = rng.choice(users), rng.choice(slots)
            if not view.user_key(u) < view.slot_key(b):
                continue
            at_keys = replace(
                outcome,
                alpha=rng.choice([ORGANIC_ALPHA, Fraction(1, 2000), Fraction(1, 40000)]),
                thresholds=injected_thresholds(view.user_key(u), view.slot_key(b)),
            )
            want = _reference_diagnostic_sets(inst, at_keys, random.Random(seed))
            assert compute_diagnostic_sets(inst, at_keys, random.Random(seed), optimum=optimum) == want
            assert u not in want.clearing_users and b not in want.clearing_slots


def test_diagnostics_match_the_reference_with_thresholds_inside_blocks():
    """The slot threshold at a slot's own key inside a block of several
    slots, so that block clears from an index on (the slot's advertiser
    observed or not); the user threshold at an unobserved user's key below
    it. On matched 1/20 markets (five slots per block, the optimum takes
    every slot) and on markets whose costs and values overlap (the optimum
    ends inside the sorted slots, so a partly cleared block can hold its
    end), priced at their own alpha and at two with a non-empty core. Every
    ``DiagnosticSets`` field equals the reference's; partly cleared blocks
    occur before and at or after the optimum's end, and
    ``clearing_within_optimum`` and ``core_slots_subset`` take both values."""
    rng = random.Random(11)
    cases = [(matched_family(Fraction(1, 20), seed=1), Fraction(1, 20))]
    cases += [(_overlapping_instance(seed), Fraction(1, 5)) for seed in range(3)]
    seen = set()
    for inst, alpha in cases:
        optimum = offline_optimum(inst)
        view, cano = optimum.view, optimum.cano
        places = [(b, j) for b in cano.sorted_blocks for j in reversed(range(b.capacity))]
        for seed in range(10):
            outcome = truthful_run(inst, MechanismConfig(alpha=alpha, seed=seed), view=view)
            observed = set(outcome.observed_mediators) | set(outcome.observed_advertisers)
            users = [u for u in cano.sorted_users if u.mediator not in observed]
            slots = [(pos, b, j) for pos, (b, j) in enumerate(places) if j < b.capacity - 1]
            for _ in range(10):
                pos, block, j = rng.choice(slots)
                slot_key = view.slot_key(SlotRef(block.advertiser, j))
                below = [u for u in users if view.user_key(u) < slot_key]
                if not below:
                    continue
                at_keys = replace(
                    outcome,
                    alpha=rng.choice([alpha, Fraction(1, 2000), Fraction(1, 40000)]),
                    thresholds=injected_thresholds(view.user_key(rng.choice(below)), slot_key),
                )
                want = _reference_diagnostic_sets(inst, at_keys, random.Random(seed))
                assert compute_diagnostic_sets(inst, at_keys, random.Random(seed), optimum=optimum) == want
                assert (SlotRef(block.advertiser, j + 1) in want.clearing_slots) == (block.advertiser not in observed)
                seen |= {("before the end", pos < cano.size), ("within", want.flags.clearing_within_optimum)}
                seen.add(("core", want.flags.core_slots_subset))
    assert seen == {(name, flag) for name in ("before the end", "within", "core") for flag in (True, False)}


def test_diagnostics_reject_an_optimum_of_another_instance():
    inst = organic_instance(1)
    other = organic_instance(2)
    outcome = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=0))
    with pytest.raises(ValueError, match="another instance"):
        compute_diagnostic_sets(inst, outcome, random.Random(0), optimum=offline_optimum(other))
    # an equal instance built separately is the same market
    twin = organic_instance(1)
    assert twin is not inst
    assert compute_diagnostic_sets(inst, outcome, random.Random(0), optimum=offline_optimum(twin)) == (
        compute_diagnostic_sets(inst, outcome, random.Random(0))
    )


def test_tampered_optimum_fails_its_sandwich_asserts():
    optimum = offline_optimum(_ladder_instance())
    costs = [optimum.view.user_costs[u] for u in optimum.opt_users]
    with pytest.raises(AssertionError, match="user cost exceeds ell"):
        replace(optimum, ell=max(costs) - 1)
    with pytest.raises(AssertionError, match="ell exceeds"):
        replace(optimum, ell=max(b.value for b in optimum.view.blocks.values()) + 1)


def test_core_length_matches_the_branched_rule():
    """tau one-user mediators against tau one-slot advertisers have tau
    optimal pairs; their runs are diagnosed as if priced over the (alpha, r)
    grid, for tau in 1..40 (tau = 0 has no optimum to diagnose)."""
    with pytest.raises(ValueError, match="tau=0"):
        offline_optimum(build_instance([[9]], [(1, 1)], seed=0))
    for tau_ in range(1, 41):
        inst = build_instance([[1]] * tau_, [(1, 9)] * tau_, seed=0)
        optimum = offline_optimum(inst)
        outcome = truthful_run(inst, MechanismConfig(alpha=Fraction(1), seed=tau_), view=optimum.view)
        for alpha, r in LOCATION_GRID:
            priced = replace(outcome, alpha=alpha, r=r)
            diag = compute_diagnostic_sets(inst, priced, random.Random(0), optimum=optimum)
            assert diag.tau == tau_
            want = _branched_core_length(tau_, r, alpha)
            assert len(diag.core_users) == len(diag.core_slots) == want, (tau_, r, alpha)
            if alpha == Fraction(1, 64) and r == Fraction(1, 2):
                assert diag.core_users == ()  # tau - 6 tau/r * alpha^(1/3) = -2 tau


def test_canonical_within_is_the_sub_market_canonical_assignment():
    """For the observed and the unobserved entities of 20 runs at alpha =
    1/80, and for none and all of them, the filtered prefix pairs up exactly
    as ``canonical_assignment`` re-sorting that sub-market does."""
    alpha = Fraction(1, 80)
    inst = matched_family(alpha, seed=0)
    optimum = offline_optimum(inst)
    view = optimum.view
    entities = frozenset(inst.entity_ids)
    subsets = [frozenset(), entities]
    for seed in range(20):
        out = truthful_run(inst, MechanismConfig(alpha=alpha, seed=seed), view=view)
        observed = frozenset(out.observed_mediators + out.observed_advertisers)
        subsets += [observed, entities - observed]
    for sub in subsets:
        got = canonical_within(view, sub)
        want = canonical_assignment(
            view.users_of(e for e in inst.entity_ids if e in sub and e.kind == "mediator"),
            (e for e in inst.entity_ids if e in sub and e.kind == "advertiser"),
            view,
        )
        assert len(got.ordered_pairs) == got.size == want.size
        assert got.ordered_pairs == want.ordered_pairs
    assert canonical_within(view, entities).size == canonical_within(view).size == optimum.cano.size == 400


def test_canonical_gain_sums_per_block_what_the_pairs_sum():
    """``CanonicalAssignment.gain`` against ``gain_from_trade`` over the
    ordered pairs: on the optimum of each criterion-9 grid instance and on
    the reachable sub-market of each of its 500 seeds."""
    for alpha in (Fraction(1, 5), Fraction(1, 20), Fraction(1, 80)):
        inst = matched_family(alpha, seed=0)
        optimum = offline_optimum(inst)
        view = optimum.view
        want = gain_from_trade(optimum.cano.ordered_pairs, view)
        assert optimum.gain == optimum.cano.gain(view) == optimal_gain(inst) == want > 0
        entities = frozenset(inst.entity_ids)
        for seed in range(500):
            out = truthful_run(inst, MechanismConfig(alpha=alpha, seed=seed), view=view)
            reachable = canonical_within(view, entities.difference(out.observed_mediators, out.observed_advertisers))
            assert reachable.gain(view) == gain_from_trade(reachable.ordered_pairs, view), (alpha, seed)


def _filtered_sub_market(view, sorted_users, sorted_slots, entities):
    """Reference: ``canonical_within`` as a filter over both whole per-unit sorted
    orders, keeping the given entities' refs and zipping their profitable
    prefix with one key per slot."""
    users = [u for u in sorted_users if u.mediator in entities]
    slots = [b for b in sorted_slots if b.advertiser in entities]
    return per_unit_pairs(users, slots, view.user_key, per_unit_slot_keys(view, view.blocks)), len(users), len(slots)


def _overlapping_instance(seed):
    """Costs and values drawn from one range, so most sub-markets stop
    trading before one side runs out."""
    return generate_instance(
        GeneratorConfig(
            n_mediators=40,
            n_advertisers=40,
            users_per_mediator=uniform(1, 3),
            capacity=uniform(1, 3),
            cost=uniform(0, 2 * MICRO),
            value=uniform(0, 2 * MICRO),
            alpha=Fraction(1, 5),
            seed=seed,
        )
    )


def test_canonical_within_matches_the_filter_on_random_subsets():
    """Random entity subsets of the criterion-9 grid instances (where every
    value beats every cost, so the prefix ends where a side runs out) and
    of three instances whose costs and values overlap (where it mostly ends
    at an unprofitable pair), each entity kept with a per-subset
    probability, plus none and all of them, and an id the instance does not
    hold (ignored by both)."""
    rng = random.Random(2016)
    instances = [matched_family(alpha, seed=0) for alpha in (Fraction(1, 5), Fraction(1, 20), Fraction(1, 80))]
    instances += [_overlapping_instance(seed) for seed in range(3)]
    ends = set()
    for inst in instances:
        view = true_view(inst)
        _, sorted_users, sorted_slots = per_unit_canonical(view.all_users, view.blocks, view)
        subsets = [set(), set(inst.entity_ids), {mediator_id(10**6), *inst.entity_ids[:3]}]
        for _ in range(100):
            keep = rng.random()
            subsets.append({e for e in inst.entity_ids if rng.random() < keep})
        for sub in subsets:
            want, *sides = _filtered_sub_market(view, sorted_users, sorted_slots, sub)
            got = canonical_within(view, sub)
            assert got.ordered_pairs == want and got.size == len(want)
            ends.add(len(want) == min(sides))
    assert ends == {True, False}


def test_runs_and_experiments_never_re_sort_a_view():
    """With ``canonical_assignment`` made to raise wherever the package
    binds it, 20 runs with computed thresholds on one view and both
    experiments complete; each view sorts its users and its blocks once,
    so ``market`` calls ``sorted`` twice per view."""
    alpha = Fraction(1, 80)
    inst = matched_family(alpha, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_assignment re-sorts a sub-market")

    sorts = []

    def counted_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    bound = [m for m in (observeprice, canonical, mechanism, analysis) if hasattr(m, "canonical_assignment")]
    assert bound == [observeprice, canonical]
    with mock.patch.object(observeprice, "canonical_assignment", refuse), mock.patch.object(
        canonical, "canonical_assignment", refuse
    ), mock.patch.object(market, "sorted", counted_sorted, create=True):
        view = true_view(inst)
        runs = [truthful_run(inst, MechanismConfig(alpha=alpha, seed=seed), view=view) for seed in range(20)]
        assert len(sorts) == 2
        assert all(not out.thresholds.is_dummy for out in runs)
        competitive_ratio_experiment([(alpha, inst)], n_seeds=20)
        event_frequency_experiment(inst, alpha, n_seeds=20)
    assert len(sorts) == 6


# -- experiments ------------------------------------------------------------------


def test_event_frequency_experiment_reports_rates_and_intervals():
    inst = organic_instance(2)
    res = event_frequency_experiment(inst, ORGANIC_ALPHA, n_seeds=40)
    assert 0.0 <= res.event_frequency <= 1.0
    assert res.event_wilson[0] <= res.event_frequency <= res.event_wilson[1]
    assert res.concentration_frequency >= res.event_frequency
    assert res.bound_clamped == clamp01(res.bound_raw)
    assert res.seeds == 40


def test_ratio_experiment_zero_in_dummy_regime():
    inst = matched_family(Fraction(1, 5), seed=0)
    point = competitive_ratio_experiment([(Fraction(1, 5), inst)], n_seeds=10)[0]
    assert point.mean == 0.0
    assert point.tau == 25
    assert all(r == 0.0 for r in point.ratios)


def test_ratio_experiment_positive_in_live_regime():
    inst = matched_family(Fraction(1, 80), seed=0)
    point = competitive_ratio_experiment([(Fraction(1, 80), inst)], n_seeds=25)[0]
    assert point.tau == 400
    assert point.mean > 0.0
    assert point.mean_vs_reachable >= point.mean
    assert 0.0 <= point.quantiles[0] <= point.quantiles[1] <= point.quantiles[2] <= 1.0
    assert point.bound_clamped == 0.0  # analytic bound is vacuous at this scale


def test_ratio_experiment_rejects_gain_beyond_reachable_market(monkeypatch):
    inst = matched_family(Fraction(1, 80), seed=0)

    def observe_every_mediator(instance, config, view=None):
        """The run with every mediator moved into its observed prefix."""
        outcome = truthful_run(instance, config, view=view)
        observed = outcome.observed_advertisers + tuple(m.id for m in instance.mediators)
        rest = tuple(e for e in outcome.arrival_order if e not in frozenset(observed))
        return replace(outcome, arrival_order=observed + rest, observation_count=len(observed), gft=outcome.gft + 1)

    monkeypatch.setattr(analysis, "truthful_run", observe_every_mediator)
    with pytest.raises(AssertionError, match="no gain left unobserved"):
        competitive_ratio_experiment([(Fraction(1, 80), inst)], n_seeds=1)


def test_ratio_experiment_rejects_zero_optimum():
    inst = build_instance([[5]], [(1, 5)], seed=0)  # tie: tau may be 1, gain 0
    with pytest.raises(ValueError):
        competitive_ratio_experiment([(Fraction(1), inst)], n_seeds=2)


def test_matched_family_shape():
    inst = matched_family(Fraction(1, 20), seed=4)
    assert len(inst.mediators) == 20
    assert len(inst.advertisers) == 20
    assert all(len(m.user_costs) == 5 for m in inst.mediators)
    assert all(a.capacity == 5 for a in inst.advertisers)
    with pytest.raises(ValueError):
        matched_family(Fraction(2, 7), seed=0)  # 1/alpha not an integer


# Parent values of the criteria-9/10 grid, 20 seeds per point: (base seed,
# alpha) -> (sha256 prefix of repr(ratios), mean_vs_reachable, event count,
# concentration count).
GRID_PINS = {
    (0, Fraction(1, 5)): ("1c3982f0c3d2f96a", 0.05, 20, 20),
    (0, Fraction(1, 20)): ("1c3982f0c3d2f96a", 0.0, 20, 20),
    (0, Fraction(1, 80)): ("e56defeaee41b30c", 0.4706719727168968, 20, 20),
    (1000, Fraction(1, 5)): ("1c3982f0c3d2f96a", 0.15, 20, 20),
    (1000, Fraction(1, 20)): ("1c3982f0c3d2f96a", 0.0, 20, 20),
    (1000, Fraction(1, 80)): ("146050e505e30b65", 0.4646968606154044, 20, 20),
    (104729, Fraction(1, 5)): ("1c3982f0c3d2f96a", 0.05, 20, 20),
    (104729, Fraction(1, 20)): ("1c3982f0c3d2f96a", 0.0, 20, 20),
    (104729, Fraction(1, 80)): ("f8f354ab033c3e06", 0.4916933191993936, 20, 20),
}


@pytest.mark.parametrize("base_seed", [0, 1000, 104729])
def test_experiments_keep_their_pinned_grid_values(base_seed):
    for alpha in (Fraction(1, 5), Fraction(1, 20), Fraction(1, 80)):
        inst = matched_family(alpha, seed=0)
        (point,) = competitive_ratio_experiment([(alpha, inst)], n_seeds=20, base_seed=base_seed)
        events = event_frequency_experiment(inst, alpha, n_seeds=20, base_seed=base_seed)
        digest = hashlib.sha256(repr([float(x) for x in point.ratios]).encode()).hexdigest()[:16]
        got = (digest, point.mean_vs_reachable, events.event_count, events.concentration_count)
        assert got == GRID_PINS[base_seed, alpha], alpha
