"""Mechanism engine: observation sampling, thresholds, matching, payments."""

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from observeprice import (
    MechanismConfig,
    ReportProfile,
    RunInputError,
    SlotBlock,
    SlotRef,
    TieKey,
    UserRef,
    advertiser_id,
    ceil_minus_cbrt,
    check_surplus_invariant,
    compute_diagnostic_sets,
    compute_thresholds,
    derive_r,
    dummy_thresholds,
    injected_thresholds,
    matched_family,
    mediator_id,
    offline_optimum,
    replay_run_report,
    report_view,
    run_mechanism,
    run_report_from_text,
    run_report_to_text,
    sample_observation_count,
    threshold_keys_from_amounts,
    true_view,
    truthful_run,
)
from observeprice.analysis import _abs_dev_within_cbrt
from observeprice.mechanism import (
    VARIANTS,
    ArrivalEvent,
    MechanismState,
    Thresholds,
    Trade,
    _iroot6,
    at_most_cbrt,
    ceil_minus_cbrt_ratio,
    draw_arrivals,
    shuffle,
)
from observeprice.serialize import outcome_to_doc
from conftest import (
    LOCATION_GRID,
    MICRO,
    ORGANIC_ALPHA,
    build_instance,
    desk_config,
    desk_instance,
    organic_instance,
    random_reports,
    replay_corpus,
    sandwich_corpus,
    worked_example,
)
from reference import behaviour_digest, reference_log, reference_thresholds


# -- observation fraction ------------------------------------------------------


def test_derive_r_frozen_values():
    assert derive_r(Fraction(1)) == Fraction(1, 2)
    assert derive_r(Fraction(1, 2**24)) == Fraction(1, 4)
    assert derive_r(Fraction(1, 2**18)) == Fraction(1, 2)
    # One grid step either side of the 1/2 cap: 4e6 * alpha^(1/6) is exactly 499,999 or 500,001.
    assert derive_r(Fraction(499_999**6, 4_000_000**6)) == Fraction(499_999, 10**6)
    assert derive_r(Fraction(500_001**6, 4_000_000**6)) == Fraction(1, 2)


def test_derive_r_floors_to_micro_grid():
    # 4 * (10**-12)**(1/6) is exactly 0.04
    assert derive_r(Fraction(1, 10**12)) == Fraction(1, 25)
    # irrational sixth root lands between grid points, floored
    got = derive_r(Fraction(1, 10**13))
    assert got.denominator <= 10**6
    x = Fraction(got)
    assert (x / 4) ** 6 <= Fraction(1, 10**13) < ((x + Fraction(1, 10**6)) / 4) ** 6


def test_derive_r_rejects_bad_alpha():
    with pytest.raises(ValueError):
        derive_r(Fraction(0))
    with pytest.raises(ValueError):
        derive_r(Fraction(3, 2))


def test_iroot6_is_exact_floor():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(10**rng.randint(1, 30))
        root = _iroot6(n)
        assert root**6 <= n < (root + 1) ** 6


def test_sample_observation_count_deterministic_and_unbiased():
    r = Fraction(1, 3)
    a = sample_observation_count(30, r, random.Random(5))
    b = sample_observation_count(30, r, random.Random(5))
    assert a == b
    rng = random.Random(0)
    total = sum(sample_observation_count(30, r, rng) for _ in range(2000))
    assert abs(total / 2000 - 10) < 0.3


def _reference_observation_count(n, r, rng):
    """One ``randrange`` per trial: the draws the count must make."""
    num, den = r.numerator, r.denominator
    return sum(1 for _ in range(n) if rng.randrange(den) < num)


@pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(123457, 10**6)])
def test_sample_observation_count_draws_what_randrange_draws(r):
    """The count and the generator state after it equal the reference's,
    so every later draw of a run (the thresholds' inputs, the trailing
    block) is the same too."""
    for n in (0, 1, 6, 160, 2560):
        for seed in range(50):
            got, want = random.Random(seed), random.Random(seed)
            assert sample_observation_count(n, r, got) == _reference_observation_count(n, r, want), (n, seed)
            assert got.getstate() == want.getstate(), (n, seed)


def test_shuffle_draws_what_random_shuffle_draws():
    """The owned shuffle gives the order ``random.Random.shuffle`` gives and
    leaves the generator in the same state, at every size from 0 to 300."""
    for n in range(301):
        for seed in range(12):
            got, want = random.Random(seed * 1009 + n), random.Random(seed * 1009 + n)
            mine, theirs = list(range(n)), list(range(n))
            shuffle(mine, got)
            want.shuffle(theirs)
            assert mine == theirs, (n, seed)
            assert got.getstate() == want.getstate(), (n, seed)


def test_draw_arrivals_is_the_shuffle_then_the_count():
    """A run's order is ``shuffle`` of the entity ids and its count the next
    draws of the same generator; a forced order leaves the count the
    generator's first draws, and forced values come back as given."""
    inst = matched_family(Fraction(1, 20), seed=0)
    r = Fraction(1, 2)
    for seed in range(20):
        rng = random.Random(seed)
        order = list(inst.entity_ids)
        shuffle(order, rng)
        count = sample_observation_count(len(order), r, rng)
        assert draw_arrivals(inst, MechanismConfig(alpha=Fraction(1, 20), seed=seed), r) == (tuple(order), count)
        forced = MechanismConfig(alpha=Fraction(1, 20), seed=seed, forced_arrival_order=tuple(reversed(order)))
        first = sample_observation_count(len(order), r, random.Random(seed))
        assert draw_arrivals(inst, forced, r) == (tuple(reversed(order)), first)
        both = replace(forced, forced_observation_count=seed)
        assert draw_arrivals(inst, both, r) == (tuple(reversed(order)), seed)


def test_sample_observation_count_extremes():
    rng = random.Random(0)
    assert sample_observation_count(10, Fraction(0), rng) == 0
    assert sample_observation_count(10, Fraction(1), rng) == 10
    assert sample_observation_count(10, 0, rng) == 0
    assert sample_observation_count(10, 1, rng) == 10
    for r in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"^r must be in \[0, 1\]$"):
            sample_observation_count(10, r, rng)


# -- threshold arithmetic --------------------------------------------------------


def test_at_most_cbrt_exact_boundary():
    # total**3 <= coeff**3 * alpha, checked without floats
    assert at_most_cbrt(1, Fraction(2), Fraction(1, 8))
    assert not at_most_cbrt(1, Fraction(2), Fraction(1, 9))


def test_ceil_minus_cbrt_frozen():
    assert ceil_minus_cbrt(2, Fraction(8), Fraction(1, 1000)) == 2  # ceil(1.2)
    assert ceil_minus_cbrt(10, Fraction(4), Fraction(1, 8)) == 8  # exact integer
    # At exact cubes the expression lands on integers and on their
    # neighbours; a coefficient scaled by k decides as the reduced one.
    for alpha, root in ((Fraction(1, 8), Fraction(1, 2)), (Fraction(1, 27), Fraction(1, 3)), (Fraction(1, 1000), Fraction(1, 10))):
        for coeff in (Fraction(2), Fraction(3, 2), Fraction(7, 3), Fraction(10), Fraction(30)):
            for total in range(12):
                want = math.ceil(total - coeff * root)
                assert ceil_minus_cbrt(total, coeff, alpha) == want, (alpha, coeff, total)
                for k in (2, 3, 6):
                    got = ceil_minus_cbrt_ratio(total, k * coeff.numerator, k * coeff.denominator, alpha)
                    assert got == want, (alpha, coeff, total, k)


def test_ceil_minus_cbrt_is_minimal_ceiling():
    rng = random.Random(1)
    for _ in range(200):
        total = rng.randint(1, 50)
        coeff = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        alpha = Fraction(rng.randint(1, 100), rng.randint(100, 5000))
        m = ceil_minus_cbrt(total, coeff, alpha)
        # m >= total - coeff * alpha**(1/3) > m - 1, cubed to stay exact
        assert (total - m) ** 3 <= coeff**3 * alpha
        assert (total - (m - 1)) ** 3 > coeff**3 * alpha


def _fraction_cbrt_term_dominates(total, coeff, alpha):
    """The ``Fraction`` formula of total - coeff * alpha^(1/3) <= 0 before the integer helper."""
    total = Fraction(total)
    if total <= 0:
        return True
    if coeff <= 0:
        return False
    return total**3 <= coeff**3 * Fraction(alpha)


def _fraction_ceil_minus_cbrt(total, coeff, alpha):
    """The ``Fraction`` formula ``ceil_minus_cbrt`` had before the integer helper."""
    alpha = Fraction(alpha)
    coeff = Fraction(coeff)
    a3 = coeff**3 * alpha

    def at_most(m):
        d = total - m
        return d <= 0 or Fraction(d) ** 3 <= a3

    m = math.ceil(total - float(coeff) * float(alpha) ** (1.0 / 3.0))
    while not at_most(m):
        m += 1
    while at_most(m - 1):
        m -= 1
    return m


_CBRT_CASES = dict(
    p=st.integers(1, 12),
    q=st.integers(1, 12),
    cube=st.booleans(),
    total=st.integers(0, 80),
    step=st.sampled_from([-1, 0, 1]),
    r=st.fractions(Fraction(1, 50), Fraction(1, 2), max_denominator=50),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(**_CBRT_CASES)
def test_integer_cbrt_helper_matches_the_fraction_formulas(p, q, cube, total, step, r):
    """alpha is the exact cube (p/q)^3 or the plain p/(q * 13); with a cube,
    each expression is placed exactly on its boundary or one unit either side."""
    alpha = Fraction(p, q) ** 3 if cube else Fraction(p, q * 13)
    root = Fraction(p, q)  # alpha^(1/3) when alpha is a cube
    # total against coeff * alpha^(1/3) = total + step
    coeff = Fraction(total + step, 1) / root if cube and total + step >= 0 else Fraction(total + 1, q)
    assert at_most_cbrt(total, coeff, alpha) == _fraction_cbrt_term_dominates(total, coeff, alpha)
    assert ceil_minus_cbrt(total, coeff, alpha) == _fraction_ceil_minus_cbrt(total, coeff, alpha)
    if cube:
        edge = coeff * root
        for x in (edge - 1, edge, edge + 1, edge - Fraction(1, edge.denominator), edge + Fraction(1, edge.denominator)):
            assert at_most_cbrt(x, coeff, alpha) == (x <= edge)
    # |count - r*n| against alpha^(1/3) * tau: r*n is an integer, and so is
    # alpha^(1/3) * tau when alpha is a cube, so counts land on both edges
    n = r.denominator * (total % 7 + 1)
    tau_ = q * (total % 5 + 1)
    for edge in (r * n - root * tau_, r * n + root * tau_):
        for count in {max(0, math.floor(edge) + d) for d in (-1, 0, 1)}:
            want = abs(Fraction(count) - r * n) ** 3 <= alpha * tau_**3
            assert _abs_dev_within_cbrt(count, r, n, alpha, tau_) == want


def test_thresholds_require_ordered_keys():
    with pytest.raises(ValueError):
        Thresholds(TieKey(6, 0, 0), TieKey(4, 1, 0), None, 0)
    with pytest.raises(ValueError):
        Thresholds(TieKey(4, 0, 0), None, None, 0)


def test_dummy_thresholds_have_no_amounts():
    th = dummy_thresholds()
    assert th.is_dummy
    with pytest.raises(ValueError):
        th.payment
    with pytest.raises(ValueError):
        th.charge
    inst = build_instance([[4]], [(1, 6)], seed=0)
    assert MechanismState(true_view(inst), th, set()).process_arrival(mediator_id(0)).trades == ()
    assert th.first_assignable(SlotBlock(10**9, 0, 3, advertiser_id(0))) == 3


def test_synthetic_threshold_keys_tie_semantics():
    """A user at exactly the cost threshold is assignable, a slot at exactly
    the value threshold is not: the synthetic keys rank after all entities."""
    inst = build_instance([[4]], [(1, 6)], seed=0)
    user_key, slot_key = threshold_keys_from_amounts(4, 6, inst)
    th = injected_thresholds(user_key, slot_key)
    view = true_view(inst)
    assert view.user_key(UserRef(mediator_id(0), 0)) < th.user_key
    assert th.first_assignable(view.blocks[advertiser_id(0)]) == 1  # its one slot is not assignable


def test_compute_thresholds_frozen_example():
    """Observed users [2, 5] and a two-slot advertiser at 7: the location is
    ceil((1 - 4 * 0.1) * 2) = 2, so the pair is the cost-5 user and a 7-slot."""
    inst = build_instance([[2, 5], [3]], [(2, 7)], seed=0)
    view = true_view(inst)
    th = compute_thresholds(view, {mediator_id(0), advertiser_id(0)}, Fraction(1, 2), Fraction(1, 1000))
    assert th.payment == 5
    assert th.charge == 7
    assert th.location == 2
    assert th.observed_size == 2


def test_compute_thresholds_dummy_condition_is_exact():
    inst = build_instance([[2, 5], [3]], [(2, 7)], seed=0)
    view = true_view(inst)
    args = (view, {mediator_id(0), advertiser_id(0)})
    # r**3 <= 8 * alpha exactly at alpha = 1/64 for r = 1/2
    assert compute_thresholds(*args, Fraction(1, 2), Fraction(1, 64)).is_dummy
    assert not compute_thresholds(*args, Fraction(1, 2), Fraction(1, 65)).is_dummy
    assert compute_thresholds(*args, Fraction(1, 2), Fraction(1, 2)).is_dummy


def test_compute_thresholds_empty_observation_is_dummy():
    inst = build_instance([[2, 5]], [(2, 7)], seed=0)
    view = true_view(inst)
    th = compute_thresholds(view, {advertiser_id(0)}, Fraction(1, 2), Fraction(1, 1000))
    assert th.is_dummy
    assert th.observed_size == 0


def _branched_location(s, r, alpha):
    """The threshold location as it was computed before its one-line rule: a
    dummy pre-branch, then a clamp into 1..s. ``None`` is the dummy pair."""
    if s == 0 or at_most_cbrt(s, Fraction(2 * s) / r, alpha):
        return None
    return max(1, min(ceil_minus_cbrt(s, Fraction(2 * s) / r, alpha), s))


def test_threshold_location_matches_the_branched_rule():
    """s one-user mediators observed against s one-slot advertisers are s
    observed canonical pairs, for s in 0..40 over the (alpha, r) grid."""
    inst = build_instance([[1]] * 40, [(1, 9)] * 40, seed=0)
    view = true_view(inst)
    meds = [m.id for m in inst.mediators]
    ads = [a.id for a in inst.advertisers]
    for alpha, r in LOCATION_GRID:
        for s in range(41):
            th = compute_thresholds(view, {*meds[:s], *ads[:s]}, r, alpha)
            assert th.observed_size == s
            assert th.location == _branched_location(s, r, alpha), (s, r, alpha)
            assert th.is_dummy == (th.location is None)
    # s - 2s/r * alpha^(1/3) is exactly 0 at alpha = 1/64, r = 1/2: dummy
    for s in range(41):
        assert compute_thresholds(view, {*meds[:s], *ads[:s]}, Fraction(1, 2), Fraction(1, 64)).is_dummy
        assert compute_thresholds(view, {*meds[:s], *ads[:s]}, Fraction(1, 2), Fraction(1, 65)).is_dummy == (s == 0)


# -- the worked run --------------------------------------------------------------


def test_worked_example_trace():
    """Hand-checked run: two trades at charge 6 / payment 4, the first user's
    recommended payment passes through 3 before both finish at 4."""
    instance, config = worked_example()
    out = truthful_run(instance, config)

    m0, a0 = mediator_id(0), advertiser_id(0)
    u0, u1 = UserRef(m0, 0), UserRef(m0, 1)
    trades = out.trades_of()
    assert [(t.user, t.slot, t.charge, t.payment) for t in trades] == [
        (u0, SlotRef(a0, 0), 6, 4),
        (u1, SlotRef(a0, 1), 6, 4),
    ]
    assert out.charges == {a0: 12}
    assert out.receipts == {m0: 8}
    assert out.final_targets == {u0: 4, u1: 4}
    assert out.gft == 10

    trade_event = out.events[1]
    assert trade_event.arrival == a0
    assert trade_event.pay_steps == ((u0, 3), (u0, 4), (u1, 4))


def test_worked_example_is_deterministic():
    instance, config = worked_example()
    a = outcome_to_doc(truthful_run(instance, config))
    b = outcome_to_doc(truthful_run(instance, config))
    assert a == b


def test_truthful_run_with_a_view_builds_no_report_profile(monkeypatch):
    instance, config = worked_example()
    expected = outcome_to_doc(truthful_run(instance, config))
    view = true_view(instance)

    def refuse(cls, inst):
        raise AssertionError("ReportProfile.truthful called although a view was passed")

    monkeypatch.setattr(ReportProfile, "truthful", classmethod(refuse))
    assert outcome_to_doc(truthful_run(instance, config, view=view)) == expected
    assert outcome_to_doc(run_mechanism(instance, None, config, view=view)) == expected
    with pytest.raises(ValueError, match="needs reports or their view"):
        run_mechanism(instance, None, config)


def test_seed_changes_arrival_order():
    inst = desk_instance(0)
    orders = {
        truthful_run(inst, MechanismConfig(alpha=Fraction(1), seed=s)).arrival_order
        for s in range(8)
    }
    assert len(orders) > 1


def test_matching_prefers_earliest_counterparty_then_cheapest_user():
    """Two advertisers wait; the arriving mediator fills the earlier one first,
    sending users in increasing cost order."""
    inst = build_instance([[3, 1, 2], [5], [5]], [(1, 9), (2, 8), (1, 6)], seed=2)
    config = MechanismConfig(
        alpha=Fraction(3, 4),
        threshold_override=threshold_keys_from_amounts(4, 6, inst),
        forced_arrival_order=(
            advertiser_id(1),
            advertiser_id(0),
            mediator_id(0),
            mediator_id(1),
            mediator_id(2),
            advertiser_id(2),
        ),
        forced_observation_count=0,
    )
    out = truthful_run(inst, config)
    m0 = mediator_id(0)
    assert [(t.user, t.slot) for t in out.trades_of()] == [
        (UserRef(m0, 1), SlotRef(advertiser_id(1), 0)),  # cost 1 to the first arrival
        (UserRef(m0, 2), SlotRef(advertiser_id(1), 1)),
        (UserRef(m0, 0), SlotRef(advertiser_id(0), 0)),
    ]


def test_matching_prefers_earliest_mediator_on_advertiser_arrival():
    inst = build_instance([[3], [1], [5]], [(2, 9), (1, 6), (1, 6)], seed=2)
    config = MechanismConfig(
        alpha=Fraction(1),
        threshold_override=threshold_keys_from_amounts(4, 6, inst),
        forced_arrival_order=(
            mediator_id(0),
            mediator_id(1),
            advertiser_id(0),
            mediator_id(2),
            advertiser_id(1),
            advertiser_id(2),
        ),
        forced_observation_count=0,
    )
    out = truthful_run(inst, config)
    # m0 arrived first, so its costlier user trades before m1's cheaper one
    assert [t.user for t in out.trades_of()] == [
        UserRef(mediator_id(0), 0),
        UserRef(mediator_id(1), 0),
    ]


def test_observed_entities_never_trade():
    inst = desk_instance(4)
    for seed in range(10):
        out = truthful_run(inst, desk_config(inst, seed))
        observed = set(out.observed_mediators) | set(out.observed_advertisers)
        for t in out.trades_of():
            assert t.user.mediator not in observed
            assert t.slot.advertiser not in observed


def test_all_observed_run_trades_nothing():
    inst = desk_instance(1)
    config = MechanismConfig(
        alpha=Fraction(1),
        forced_observation_count=inst.n_entities,
        seed=0,
    )
    out = truthful_run(inst, config)
    assert out.events == ()
    assert out.trades_of() == []
    assert out.gft == 0


def test_unobserved_reports_cannot_move_thresholds():
    """Step 2 reads only observed entities, so a post-observation mediator can
    report anything without touching the price pair."""
    inst = organic_instance(0)
    config = MechanismConfig(alpha=ORGANIC_ALPHA, seed=0)
    base = run_mechanism(inst, ReportProfile.truthful(inst), config)
    assert not base.thresholds.is_dummy
    unobserved = next(
        m.id for m in inst.mediators if m.id not in set(base.observed_mediators)
    )
    deviant_reports = ReportProfile.truthful(inst).with_mediator_costs(unobserved, (0,))
    deviant = run_mechanism(inst, deviant_reports, config)
    assert base.thresholds == deviant.thresholds


def test_pay_slot_value_variant_pays_the_charge():
    instance, config = worked_example()
    out = truthful_run(instance, config.__class__(**{**config.__dict__, "variant": "pay_slot_value"}))
    for t in out.trades_of():
        assert t.payment == t.charge == 6
    assert out.receipts[mediator_id(0)] == 12


def test_skip_updates_variant_never_pays_users():
    instance, config = worked_example()
    out = truthful_run(instance, config.__class__(**{**config.__dict__, "variant": "skip_user_payment_updates"}))
    assert set(out.final_targets.values()) == {0}  # assigned but never paid
    assert len(out.trades_of()) == 2  # trades still happen


def test_config_validates_r_and_variant():
    with pytest.raises(ValueError):
        MechanismConfig(alpha=Fraction(1, 2), r=Fraction(2, 3)).resolved_r()
    with pytest.raises(ValueError):
        MechanismConfig(alpha=Fraction(1, 2), r=Fraction(0)).resolved_r()
    assert MechanismConfig(alpha=Fraction(1, 2), r=Fraction(1, 2)).resolved_r() == Fraction(1, 2)
    for r in (Fraction(500_001, 10**6), Fraction(0), Fraction(-1, 2)):
        with pytest.raises(RunInputError, match=r"^config\.r: must be in \(0, 1/2\]$"):
            MechanismConfig(alpha=Fraction(1, 2), r=r).resolved_r()
    inst = build_instance([[1], [2]], [(1, 9), (1, 9)], seed=0)
    # An int alpha runs as its Fraction, and the outcome holds Fractions.
    for seed in range(5):
        out = truthful_run(inst, MechanismConfig(alpha=1, seed=seed))
        assert out == truthful_run(inst, MechanismConfig(alpha=Fraction(1), seed=seed))
        assert type(out.alpha) is Fraction and type(out.r) is Fraction
        assert (out.alpha, out.r) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError, match="unknown engine variant 'banana'"):
        truthful_run(inst, MechanismConfig(alpha=Fraction(1), variant="banana"))


def _fraction_work(call):
    """``call()``'s result, with how many ``Fraction``s it built and how many
    ``Fraction`` comparisons it made, counted on the class itself."""
    counts = Counter()

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counted("built", Fraction.__new__)))
        coprime = Fraction.__dict__.get("_from_coprime_ints")  # arithmetic's constructor from Python 3.12 on
        if coprime is not None:
            mp.setattr(Fraction, "_from_coprime_ints", classmethod(counted("built", coprime.__func__)))
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            mp.setattr(Fraction, name, counted("compared", getattr(Fraction, name)))
        result = call()
    return result, counts


def test_runs_and_diagnostic_passes_build_and_compare_no_fraction():
    """A run and a diagnostic pass read the numerators and denominators of
    ``alpha`` and ``r``: they build no ``Fraction`` and compare none."""
    _, counts = _fraction_work(lambda: 0 < Fraction(1, 3) <= Fraction(1, 2))
    assert counts == {"built": 2, "compared": 2}  # the counter sees both

    desk, organic = desk_instance(0), organic_instance(1)
    family = matched_family(Fraction(1, 80), seed=0)
    optimum = offline_optimum(family)
    desk_reports = ReportProfile.truthful(desk)
    desk_run = desk_config(desk, 1)
    organic_run = MechanismConfig(alpha=ORGANIC_ALPHA, seed=8)
    family_run = MechanismConfig(alpha=Fraction(1, 80), seed=2)
    outcomes = {}
    for name, call in {
        "desk, injected thresholds": lambda: run_mechanism(desk, desk_reports, desk_run),
        "organic, r derived": lambda: truthful_run(organic, organic_run),
        "matched family 1/80, computed thresholds": lambda: truthful_run(family, family_run, view=optimum.view),
    }.items():
        outcomes[name], counts = _fraction_work(call)
        assert counts == {}, name
    desk_out, organic_out, family_out = outcomes.values()
    assert desk_out.thresholds.injected and desk_out.r is desk_run.r
    assert organic_out.r == Fraction(1, 2) and organic_out.alpha is ORGANIC_ALPHA
    assert not organic_out.thresholds.is_dummy and organic_out.decisions
    assert not family_out.thresholds.injected and family_out.thresholds.location

    diag, counts = _fraction_work(lambda: compute_diagnostic_sets(family, family_out, random.Random(0), optimum=optimum))
    assert counts == {}
    assert diag.tau == optimum.cano.size and diag.clearing_users


def test_run_rejects_invalid_instance_alpha_pair():
    inst = build_instance([[1], [2]], [(2, 9)], seed=0)
    with pytest.raises(ValueError, match="capacity"):
        truthful_run(inst, MechanismConfig(alpha=Fraction(1, 2)))


def test_forced_arrival_order_must_be_permutation():
    """Of the ids themselves: strings that print as the ids are none."""
    inst = build_instance([[1], [2]], [(1, 9), (1, 9)], seed=0)
    m0, m1, a0, a1 = mediator_id(0), mediator_id(1), advertiser_id(0), advertiser_id(1)
    for order in ((m0,), ("m0", "m1", "a0", "a1"), (m0, m0, a0, a1), (m0, m1, a0, a1, a1)):
        with pytest.raises(ValueError, match="permutation"):
            truthful_run(inst, MechanismConfig(alpha=Fraction(1), forced_arrival_order=order))
    out = truthful_run(inst, MechanismConfig(alpha=Fraction(1), forced_arrival_order=(a1, m1, a0, m0)))
    assert out.arrival_order == (a1, m1, a0, m0)


def test_forced_observation_count_bounds():
    inst = build_instance([[1], [2]], [(1, 9), (1, 9)], seed=0)
    with pytest.raises(ValueError):
        truthful_run(inst, MechanismConfig(alpha=Fraction(1), forced_observation_count=99))


def test_reports_must_cover_instance():
    inst = build_instance([[1], [2]], [(1, 9), (1, 9)], seed=0)
    truthful = ReportProfile.truthful(inst)
    partial = ReportProfile({mediator_id(0): (1,)}, truthful.advertiser_slots)
    with pytest.raises(RunInputError, match=r"^reports\.mediator_costs: no report for m1$"):
        run_mechanism(inst, partial, MechanismConfig(alpha=Fraction(1)))
    extra = truthful.with_advertiser_slots(advertiser_id(5), 1, 9)
    with pytest.raises(RunInputError, match=r"^reports\.advertiser_slots: a5 is not in the instance$"):
        run_mechanism(inst, extra, MechanismConfig(alpha=Fraction(1)))
    swapped = ReportProfile({mediator_id(0): (1,), mediator_id(7): (2,)}, truthful.advertiser_slots)
    with pytest.raises(RunInputError, match=r"^reports\.mediator_costs: no report for m1$"):
        run_mechanism(inst, swapped, MechanismConfig(alpha=Fraction(1)))


# -- engine properties -------------------------------------------------------------


@st.composite
def _served_markets(draw):
    """A tiny market, thresholds, observed prefix and arrival order for one
    ``MechanismState``. Amounts come from 0..3 and the threshold keys share
    amounts (and often entity ranks) with them, so keys tie heavily and
    zero-gain pairs are common."""
    costs = draw(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3), min_size=2, max_size=4))
    slots = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from((3, 2, 1, 0))), min_size=2, max_size=4))
    instance = build_instance(costs, slots, seed=draw(st.integers(0, 3)))
    tie = st.tuples(st.integers(0, instance.n_entities), st.integers(0, 2))
    low, high = sorted((draw(tie), draw(tie)))
    cost = draw(st.integers(1, 2))
    user_key = TieKey(cost, *low)
    slot_key = TieKey(draw(st.sampled_from((cost, cost + 1))), *high)
    if user_key < slot_key:
        thresholds = Thresholds(user_key, slot_key, None, 0)
    else:
        thresholds = dummy_thresholds()
    order = draw(st.permutations(instance.entity_ids))
    t = draw(st.integers(0, len(order) // 2))
    variant = draw(st.sampled_from(("standard", "pay_slot_value", "skip_user_payment_updates")))
    return instance, thresholds, order[:t], order[t:], variant


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_served_markets())
def test_serving_loop_counters_targets_and_steps(market):
    """The serving and pay rules read from the outside, against a ledger the
    test keeps of each arrived entity's assignable supply left (users by key,
    slots by index). Each trade takes the mediator's cheapest user left, the
    advertiser's lowest slot left, and as counterparty the earliest arrival
    of its kind with supply left; after every arrival no mediator and
    advertiser both have supply, every pay step raises its user's folded
    target, and every traded
    user of a mediator sits at one amount: the cost of the mediator's
    cheapest user left, else the threshold payment (0 when the variant skips
    payment updates)."""
    instance, thresholds, observed, arrivals, variant = market
    view = true_view(instance)
    state = MechanismState(view, thresholds, set(observed), variant=variant)
    supply, traded, folded = {}, {}, {}
    for entity in arrivals:
        if entity.kind == "mediator":
            users = [u for u in view.users_by_mediator[entity] if thresholds.user_key is not None and view.user_key(u) < thresholds.user_key]
            supply[entity] = sorted(users, key=view.user_key)
        else:
            slots = (SlotRef(entity, j) for j in range(view.blocks[entity].capacity))
            supply[entity] = [b for b in slots if thresholds.slot_key is not None and view.slot_key(b) > thresholds.slot_key]
        event = state.process_arrival(entity)
        for t in event.trades:
            m, a = t.user.mediator, t.slot.advertiser
            assert entity in (m, a)
            other = a if entity == m else m
            assert other == next(e for e in supply if e.kind == other.kind and supply[e])
            assert (t.user, t.slot) == (supply[m].pop(0), supply[a].pop(0))
            traded.setdefault(m, []).append(t.user)
        assert len({e.kind for e, left in supply.items() if left}) < 2
        for u, amount in event.pay_steps:
            assert u.mediator in traded and amount > folded.get(u, 0)
            folded[u] = amount
        for m, users in traded.items():
            if variant == "skip_user_payment_updates":
                want = 0
            else:
                want = view.user_costs[supply[m][0]] if supply[m] else thresholds.payment
            assert [folded.get(u, 0) for u in users] == [want] * len(users)


# -- slot blocks and misreports ----------------------------------------------------


def _block_serving_markets():
    """Desk markets of random reports, with capacities 0, 1 and above the
    user count, with thresholds injected at keys inside, below and above one
    advertiser's reported block; then organic markets with inflated claims,
    priced by computed thresholds. Yields ``(instance, reports, config, a)``,
    where ``a`` is the advertiser whose block the injected slot key is
    placed against, and None under computed thresholds."""
    rng = random.Random(12)
    for trial in range(300):
        inst = desk_instance(trial)
        reports = random_reports(inst, rng, unit=2 * MICRO)
        a = rng.choice(inst.advertisers).id
        value, rank, cap, _ = report_view(inst, reports).blocks[a]
        j = rng.choice((-3, -1, 0, cap // 2, cap - 1, cap, cap + 2))
        slot_key = TieKey(value, rank, j)
        user_key = TieKey(value - rng.randrange(3) * MICRO, rng.randrange(inst.n_entities + 1), rng.randrange(3))
        if user_key < slot_key:
            config = MechanismConfig(alpha=Fraction(1), r=Fraction(1, 10), seed=trial, threshold_override=(user_key, slot_key))
            yield inst, reports, config, a
    for seed in range(40):
        inst = organic_instance(seed % 5)
        reports = ReportProfile.truthful(inst)
        claims = rng.sample(inst.advertisers, 3)
        for spec in claims:
            reports = reports.with_advertiser_slots(spec.id, rng.choice((0, 1, 2, 200)), rng.choice((spec.value, 2 * MICRO)))
        yield inst, reports, MechanismConfig(alpha=ORGANIC_ALPHA, seed=seed), None


def test_misreport_runs_keep_their_bytes():
    """sha256 over the compact outcome documents of every market of
    ``_block_serving_markets`` (random and inflated reports, injected and
    computed thresholds) under each engine variant: a differential pin of
    the writer on misreported reports. Each run's report, which lists only
    its departures from the instance, replays byte for byte."""
    digest = hashlib.sha256()
    for inst, reports, config, _ in _block_serving_markets():
        for variant in VARIANTS:
            c = replace(config, variant=variant)
            outcome = run_mechanism(inst, reports, c)
            report = run_report_from_text(run_report_to_text(inst, reports, c, outcome))
            assert replay_run_report(report) == (True, "replay matches recorded outcome exactly")
            digest.update(json.dumps(outcome_to_doc(outcome), separators=(",", ":")).encode())
    assert digest.hexdigest() == "25720057765d079f84396e0f5965dd180e00d8b2bf8a88179477f34bc3be51e3"


def test_behaviour_pin_on_the_replay_corpus():
    """sha256 over what each of the criterion-7 corpus's 100 runs decided
    (``reference.behaviour_digest``), which no report format enters."""
    digest = behaviour_digest(truthful_run(inst, cfg) for inst, cfg in replay_corpus())
    assert digest == "de7dc1a578ee00ad523aac117c522a8f6c27db08128c864ab0ed075e72dd9eda"


def test_behaviour_pin_on_the_misreport_runs():
    """sha256 over what each market of ``_block_serving_markets`` (random and
    inflated reports, injected and computed thresholds) decided under each
    engine variant."""
    digest = behaviour_digest(
        run_mechanism(inst, reports, replace(config, variant=variant))
        for inst, reports, config, _ in _block_serving_markets()
        for variant in VARIANTS
    )
    assert digest == "f3db79d2f3f1a92f92845dc63e7071ad83e1ef365a07028ecf25b176093bebe0"


def test_behaviour_digest_moves_with_every_decided_field():
    """One trading run, edited one decided field at a time: every edit moves
    the behaviour digest."""
    out = truthful_run(organic_instance(1), MechanismConfig(alpha=ORGANIC_ALPHA, seed=8))
    t, (i, event), later = out.thresholds, out.decisions[0], out.decisions[1:]
    trade, (user, amount) = event.trades[0], event.pay_steps[0]

    def first_event(**fields):
        return replace(out, decisions=((i, replace(event, **fields)), *later))

    edits = {
        "arrivals swapped": replace(out, arrival_order=(out.arrival_order[1], out.arrival_order[0], *out.arrival_order[2:])),
        "count + 1": replace(out, observation_count=out.observation_count + 1),
        "count - 1": replace(out, observation_count=out.observation_count - 1),
        "threshold key": replace(out, thresholds=replace(t, user_key=t.user_key._replace(amount=t.user_key.amount - 1))),
        "decision moved": replace(out, decisions=((i + 1, event), *later)),
        "charge": first_event(trades=(trade._replace(charge=trade.charge + 1), *event.trades[1:])),
        "pay step": first_event(pay_steps=((user, amount + 1), *event.pay_steps[1:])),
        "trade dropped": first_event(trades=event.trades[1:]),
        "gft": replace(out, gft=out.gft + 1),
    }
    pinned = behaviour_digest([out])
    assert [name for name, edited in edits.items() if behaviour_digest([edited]) == pinned] == []


def test_a_claim_of_10_12_slots_runs_as_a_claim_of_10_3():
    """On matched_family(1/160) one advertiser claims 10^3 and then 10^12
    slots above every value: each run trades and pays the same and is
    priced the same. A threshold slot inside the claimed block sits at the
    same depth below the block's top, so its index differs by the
    difference of the two claims."""
    alpha = Fraction(1, 160)
    inst = matched_family(alpha, seed=0)
    a = inst.advertisers[0].id
    top = max(spec.value for spec in inst.advertisers) + 1
    truthful = ReportProfile.truthful(inst)
    seen = set()
    for seed in range(6):
        config = MechanismConfig(alpha=alpha, seed=seed)
        small, huge = (run_mechanism(inst, truthful.with_advertiser_slots(a, cap, top), config) for cap in (10**3, 10**12))
        assert huge.trades_of() == small.trades_of()
        assert (huge.charges, huge.receipts, huge.final_targets, huge.gft) == (
            small.charges, small.receipts, small.final_targets, small.gft
        )
        ts, th = small.thresholds, huge.thresholds
        assert not ts.is_dummy
        assert (th.user_key, th.location, th.observed_size) == (ts.user_key, ts.location, ts.observed_size)
        if ts.slot_key.entity_rank == inst.rank(a):
            assert th.slot_key[:2] == ts.slot_key[:2]
            assert 10**12 - th.slot_key.within_index == 10**3 - ts.slot_key.within_index
            seen.add("priced inside the claim")
        else:
            assert th.slot_key == ts.slot_key
        if any(t.slot.advertiser == a for t in small.trades_of()):
            seen.add("the claim trades")
    assert seen == {"priced inside the claim", "the claim trades"}



# -- the engine against the reference run ------------------------------------


def _serving_corpus():
    """``(instance, reports, config)`` runs for the serving-loop differential:
    desk runs with injected thresholds, organic runs, matched_family at 1/20
    and 1/80, random misreports (one advertiser claiming 10^12 slots in every
    fourth), a 10^12-slot claim on matched_family(1/160), and forced arrival
    orders and observation counts under injected and computed thresholds."""
    rng = random.Random(15)
    cases = []
    for s in range(40):
        inst = desk_instance(s)
        cases.append((inst, ReportProfile.truthful(inst), desk_config(inst, seed=s)))
    for s in range(3):
        inst = organic_instance(s)
        cases.extend((inst, ReportProfile.truthful(inst), MechanismConfig(alpha=ORGANIC_ALPHA, seed=k)) for k in range(3))
    for alpha in (Fraction(1, 20), Fraction(1, 80)):
        for s in range(3):
            inst = matched_family(alpha, seed=s)
            cases.append((inst, ReportProfile.truthful(inst), MechanismConfig(alpha=alpha, seed=s)))
    for s in range(40):
        inst = desk_instance(500 + s)
        reports = random_reports(inst, rng, unit=2 * MICRO)
        if s % 4 == 0:
            reports = reports.with_advertiser_slots(rng.choice(inst.advertisers).id, 10**12, 10 * MICRO)
        cases.append((inst, reports, desk_config(inst, seed=s)))
    inst = matched_family(Fraction(1, 160), seed=0)
    top = max(spec.value for spec in inst.advertisers) + 1
    claim = ReportProfile.truthful(inst).with_advertiser_slots(inst.advertisers[0].id, 10**12, top)
    cases.extend((inst, claim, MechanismConfig(alpha=Fraction(1, 160), seed=k)) for k in range(3))
    for s in range(20):
        inst = desk_instance(700 + s) if s % 2 else organic_instance(s)
        order = list(inst.entity_ids)
        rng.shuffle(order)
        config = desk_config(inst, seed=s) if s % 2 else MechanismConfig(alpha=ORGANIC_ALPHA, seed=s)
        forced = replace(config, forced_arrival_order=tuple(order), forced_observation_count=rng.randrange(len(order) // 2 + 1))
        cases.append((inst, ReportProfile.truthful(inst), forced))
    return cases


def _queue_markets():
    """``(instance, reports, config)`` runs whose mediators report 0 to 4
    users at costs 0..3, so costs tie within and across mediators and some
    mediators report no users. The true instance, one user and one slot per
    entity, only makes the run valid at alpha = 1: the reports are the
    market. Three runs of each market inject the cost threshold at a key of
    the longest mediator's list or at a key tied in amount with users of
    other entities, under a forced order and count; the fourth observes
    nothing under computed thresholds, which gives the dummy pair."""
    rng = random.Random(17)
    for trial in range(120):
        costs = [[rng.randrange(4) for _ in range(rng.randrange(5))] for _ in range(rng.randint(2, 5))]
        costs[0].append(rng.randrange(4))
        slots = [(rng.randint(1, 4), rng.randrange(2, 6)) for _ in range(rng.randint(2, 4))]
        inst = build_instance([[0]] * len(costs), [(1, 1)] * len(slots), seed=trial)
        reports = ReportProfile(
            {m.id: tuple(c) for m, c in zip(inst.mediators, costs)}, {a.id: s for a, s in zip(inst.advertisers, slots)}
        )
        longest = max(range(len(costs)), key=lambda i: len(costs[i]))
        keys = [TieKey(c, inst.rank(mediator_id(longest)), j) for j, c in enumerate(costs[longest])]
        keys += [TieKey(rng.randrange(4), rng.randrange(inst.n_entities + 1), rng.randrange(3)) for _ in range(2)]
        for user_key in rng.sample(keys, 3) + [None]:
            override = None
            if user_key is not None:
                slot_key = TieKey(user_key.amount + rng.randrange(3), rng.randrange(inst.n_entities + 1), rng.randrange(-1, 3))
                if not user_key < slot_key:
                    slot_key = TieKey(user_key.amount + 1, *slot_key[1:])
                override = (user_key, slot_key)
            order = list(inst.entity_ids)
            rng.shuffle(order)
            t = rng.randrange(len(order) // 2 + 1) if override else 0
            yield inst, reports, MechanismConfig(
                alpha=Fraction(1), threshold_override=override, forced_arrival_order=tuple(order), forced_observation_count=t
            )


def _coverage(view, out):
    """What one run shows of the facts the reference corpus must hold:
    a slot threshold inside a block that trades, injected or computed;
    events that trade in runs of two or more with one counterparty, and with
    two or more counterparties; a cost threshold that cuts a mediator's list
    or ties costs across mediators below it; an arriving mediator with no
    users; the dummy pair."""
    th, events = out.thresholds, out.events
    key, traded = th.slot_key, {t.slot.advertiser for e in events for t in e.trades}
    inside = any(
        view.blocks[a][:2] == key[:2] and 0 < key.within_index + 1 < view.blocks[a].capacity for a in traded
    )
    pairs = [[(t.user.mediator, t.slot.advertiser) for t in e.trades] for e in events]
    below = [u for u in view.all_users if not th.is_dummy and view.user_key(u) < th.user_key]
    mediators_at = {}
    for u in below:
        mediators_at.setdefault(view.user_costs[u], set()).add(u.mediator)
    return Counter(
        injected_inside=th.injected and inside,
        computed_inside=not th.injected and not th.is_dummy and key.within_index > 0,
        long_runs=sum(any(p == q for p, q in zip(ps, ps[1:])) for ps in pairs),
        counterparties=sum(len(set(ps)) > 1 for ps in pairs),
        cut_inside=any(0 < sum(u.mediator == m for u in below) < len(us) for m, us in view.users_by_mediator.items()),
        ties=any(len(ms) > 1 for ms in mediators_at.values()),
        empty=any(not view.users_by_mediator[e] for e in out.post_observation_order if e.kind == "mediator"),
        dummy=th.is_dummy,
    )


def _engine_against_reference(cases):
    """Runs every ``(instance, reports, config)`` of ``cases`` under each
    engine variant and asserts it equals ``reference.reference_log``'s
    outcome: equal outcomes, so equal draws, thresholds and decisions in
    every field, built of the engine's tuple types; the decisions are
    exactly the reference's dense log's non-empty events at their positions,
    ``events`` expands them to that log, and the surplus check passes. Under
    ``standard`` and ``pay_slot_value`` no pay step exceeds the threshold
    payment, the pre-known maximum. Returns
    the ``_coverage`` the runs show; a market counts once per variant."""
    seen = Counter()
    for inst, reports, config in cases:
        view = report_view(inst, reports)
        for variant in VARIANTS:
            c = replace(config, variant=variant)
            got = run_mechanism(inst, reports, c)
            want, log = reference_log(inst, reports, c)
            assert got == want, c
            assert got.decisions == tuple((i, e) for i, e in enumerate(log) if e.trades or e.pay_steps), c
            assert got.events == log, c
            assert check_surplus_invariant(got).ok, c
            for _, event in got.decisions:
                assert type(event) is ArrivalEvent
                assert all(type(t) is Trade and type(t.slot) is SlotRef for t in event.trades)
            if variant != "skip_user_payment_updates":
                paid = [x for _, e in got.decisions for _, x in e.pay_steps]
                assert not paid or max(paid) <= got.thresholds.payment, c
            seen += _coverage(view, got)
    return seen


def test_block_serving_matches_the_per_unit_rules():
    """The engine against the reference, which sorts the observed sub-market
    and filters slots one key per slot unit, on every market of
    ``_block_serving_markets``. Injected slot thresholds sit inside a block
    that trades in 20 markets, computed ones inside a block in 5."""
    seen = _engine_against_reference(case[:3] for case in _block_serving_markets())
    assert seen["injected_inside"] >= 60 and seen["computed_inside"] >= 15, seen


def test_serving_runs_match_the_one_trade_at_a_time_loop():
    """The engine, which serves in runs of trades, against the reference,
    which serves one trade per loop step, on every run of
    ``_serving_corpus``. Arrivals trade in runs of two or more with one
    counterparty, and with two or more counterparties."""
    seen = _engine_against_reference(_serving_corpus())
    assert seen["long_runs"] >= 20 and seen["counterparties"] >= 20, seen


def test_serving_queues_match_the_per_arrival_filter_and_sort():
    """The engine, which cuts its queues from the view's sorted users once,
    against the reference, which filters and sorts the users at every
    arrival, on every market of ``_queue_markets``. The cost threshold cuts
    inside a mediator's list and ties costs across mediators below it,
    mediators with no users arrive, and the pair is dummy."""
    seen = _engine_against_reference(_queue_markets())
    assert min(seen["cut_inside"], seen["ties"], seen["empty"], seen["dummy"]) >= 300, seen


def test_thresholds_keep_the_sorting_rule():
    """``compute_thresholds`` filters the view's sorted orders; the
    reference's threshold step sorts the observed sub-market. They are equal
    on the observed split of every market of ``_block_serving_markets``,
    ``_serving_corpus`` and ``_queue_markets`` and on the whole market, at
    the run's rate and at two small alphas, and meet all three kinds of
    thresholds."""
    kinds = set()
    for inst, reports, config in [case[:3] for case in _block_serving_markets()] + _serving_corpus() + list(_queue_markets()):
        view = report_view(inst, reports)
        got = run_mechanism(inst, reports, config)
        for observed in (set(got.arrival_order[: got.observation_count]), set(inst.entity_ids)):
            for r, alpha in ((got.r, got.alpha), (Fraction(1, 2), Fraction(1, 10**6)), (Fraction(1, 3), Fraction(1, 1000))):
                want = reference_thresholds(inst, reports, observed, r, alpha)
                assert compute_thresholds(view, observed, r, alpha) == want, (config, r, alpha)
                kinds.add((want.is_dummy, want.observed_size == 0))
    assert kinds == {(True, True), (True, False), (False, False)}


def _acceptance_markets():
    """Each distinct instance of the criterion-7 and criterion-8 corpora
    (desk markets at injected and computed thresholds, organic markets,
    matched_family at 1/20 and 1/80), with the configs the gate runs it
    under."""
    markets = {}
    for inst, config in replay_corpus() + sandwich_corpus():
        markets.setdefault(inst, []).append(config)
    return markets.items()


def test_views_build_each_user_key_from_its_cost_and_mediator_rank():
    """On the truthful and a random misreport profile of every acceptance
    instance, a view's ``user_key`` is (reported cost, the mediator's rank,
    index) for every user, ``sorted_users`` is a fresh sort by it, and the
    truthful profile's view equals ``true_view``."""
    rng = random.Random(23)
    seen = Counter()
    for inst, _ in _acceptance_markets():
        truthful = ReportProfile.truthful(inst)
        truth = true_view(inst)
        assert truth == report_view(inst, truthful)
        misreport = random_reports(inst, rng, unit=2 * MICRO)
        for reports, view in ((truthful, truth), (misreport, report_view(inst, misreport))):
            users = [UserRef(m, i) for m, costs in reports.mediator_costs.items() for i in range(len(costs))]
            assert sorted(users) == sorted(view.all_users)
            for u in users:
                assert view.user_key(u) == TieKey(reports.mediator_costs[u.mediator][u.user_index], inst.rank(u.mediator), u.user_index)
            assert view.sorted_users == tuple(sorted(users, key=view.user_key))
            costs = [view.user_costs[u] for u in users]
            seen.update(users=len(users), cost_ties=len(set(costs)) < len(costs))
    assert seen["users"] > 10_000 and seen["cost_ties"] >= 100, seen


def test_a_truthful_run_equals_the_run_on_the_truthful_profile():
    """``truthful_run``, which runs on ``true_view`` and builds no report
    profile, equals ``run_mechanism`` on ``ReportProfile.truthful`` for every
    run of the criterion-7 and criterion-8 corpora under each engine
    variant. The runs trade under injected and computed thresholds."""
    seen = Counter()
    for inst, configs in _acceptance_markets():
        truthful = ReportProfile.truthful(inst)
        for config in configs:
            for variant in VARIANTS:
                c = replace(config, variant=variant)
                got = truthful_run(inst, c)
                assert got == run_mechanism(inst, truthful, c), c
                th = got.thresholds
                seen["injected" if th.injected else "computed" if not th.is_dummy else "dummy"] += len(got.trades_of())
    assert min(seen["injected"], seen["computed"]) >= 1000, seen


def test_an_entity_the_view_does_not_hold_cannot_arrive():
    """An unknown mediator or advertiser is a ``KeyError`` under dummy and
    real thresholds alike, though a mediator's queue is only looked up."""
    inst, _ = worked_example()
    view = true_view(inst)
    for thresholds in (dummy_thresholds(), Thresholds(TieKey(4, 99, 0), TieKey(6, 99, 0), None, 0)):
        for entity in (mediator_id(9), advertiser_id(9)):
            with pytest.raises(KeyError):
                MechanismState(view, thresholds, set()).process_arrival(entity)


def test_a_run_checks_the_arrivals_it_does_not_serve():
    """``run_mechanism`` serves only arrivals with supply, yet an idle
    arrival the view does not hold is the ``KeyError`` serving it would
    raise: the worked run's m2 and a2 arrive idle."""
    inst, config = worked_example()
    view = true_view(inst)
    without_m2 = replace(view, users_by_mediator={m: us for m, us in view.users_by_mediator.items() if m != mediator_id(2)})
    without_a2 = replace(view, blocks={a: b for a, b in view.blocks.items() if a != advertiser_id(2)})
    for partial, entity in ((without_m2, mediator_id(2)), (without_a2, advertiser_id(2))):
        with pytest.raises(KeyError) as err:
            run_mechanism(inst, None, config, view=partial)
        assert err.value.args == (entity,)
    run = run_mechanism(inst, None, config, view=view)
    assert [i for i, _ in run.decisions] == [1]
    # A view that lacks both names the one that arrives first, in either order.
    order, both = list(run.arrival_order), (mediator_id(2), advertiser_id(2))
    for _ in range(2):
        forced = replace(config, forced_arrival_order=tuple(order), forced_observation_count=run.observation_count)
        with pytest.raises(KeyError) as err:
            run_mechanism(inst, None, forced, view=replace(without_m2, blocks=without_a2.blocks))
        assert err.value.args == (min(both, key=order.index),)
        i, j = map(order.index, both)
        order[i], order[j] = order[j], order[i]


def test_arrival_event_keeps_the_dataclass_contract():
    """The event is a plain frozen dataclass with slots: it is frozen,
    takes keywords, works with ``dataclasses.replace``, and its equality,
    hash and repr are those of the generated dataclass."""

    @dataclasses.dataclass(frozen=True)
    class Generated:
        arrival: object
        trades: tuple
        pay_steps: tuple

    user, slot = UserRef(mediator_id(0), 1), SlotRef(advertiser_id(2), 0)
    args = (mediator_id(0), (Trade(user, slot, 7, 4),), ((user, 4),))
    event = ArrivalEvent(*args)
    assert event == ArrivalEvent(**dict(zip([f.name for f in dataclasses.fields(ArrivalEvent)], args)))
    assert [f.name for f in dataclasses.fields(ArrivalEvent)] == [f.name for f in dataclasses.fields(Generated)]
    assert [getattr(event, f.name) for f in dataclasses.fields(event)] == list(args)
    assert hash(event) == hash(Generated(*args)) == hash(ArrivalEvent(*args))
    name, _, fields = repr(event).partition("(")
    assert name == "ArrivalEvent" and fields == repr(Generated(*args)).partition("(")[2]
    assert event != ArrivalEvent(*args[:2], ())
    with pytest.raises(FrozenInstanceError):
        event.trades = ()
    with pytest.raises(FrozenInstanceError):
        del event.arrival
    moved = replace(event, trades=())
    assert type(moved) is ArrivalEvent and moved.trades == ()
    assert replace(moved, trades=args[1]) == event
    with pytest.raises(TypeError):
        ArrivalEvent(*args[:2])
