"""Utility accounting, run invariants, and deviation machinery."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from statistics import fmean

import pytest

from observeprice import (
    DeviationCase,
    VARIANTS,
    MechanismConfig,
    ReportProfile,
    UserRef,
    UtilityTrajectory,
    advertiser_id,
    all_players,
    canonical_assignment,
    check_budget_balance,
    check_continuous_ir,
    check_observed_never_trade,
    check_online_legality,
    check_pay_targets_monotone,
    check_surplus_invariant,
    competitive_ratio_experiment,
    compute_diagnostic_sets,
    event_frequency_experiment,
    final_utility,
    generate_misreports,
    incentive_sweep,
    matched_family,
    mediator_id,
    offline_optimum,
    optimal_gain,
    report_view,
    run_mechanism,
    true_view,
    truthful_run,
    truthful_sweep,
    utility_trajectory,
)
from observeprice import analysis, verify
from observeprice.mechanism import MechanismState
from observeprice.serialize import outcome_to_doc
from observeprice.verify import RUN_CHECKS, deviation_test
from conftest import (
    ORGANIC_ALPHA, desk_config, desk_instance, organic_instance, replay_corpus, worked_example, zero_user_instance
)
from reference import reference_idle


def _worked_run(variant="standard"):
    instance, config = worked_example()
    return instance, truthful_run(instance, replace(config, variant=variant))


def _with_trades(out, index, trades):
    """``out`` with the trades of event ``index`` replaced."""
    return replace(out, events=out.events[:index] + (replace(out.events[index], trades=trades),) + out.events[index + 1 :])


# -- utilities --------------------------------------------------------------------


def test_worked_example_final_utilities():
    instance, out = _worked_run()
    m0, a0 = mediator_id(0), advertiser_id(0)
    assert final_utility(out, instance, UserRef(m0, 0)) == 3  # paid 4, cost 1
    assert final_utility(out, instance, UserRef(m0, 1)) == 1
    assert final_utility(out, instance, UserRef(m0, 2)) == 0  # never assigned
    assert final_utility(out, instance, m0) == 4  # 2 * 4 received - costs 1 - 3
    assert final_utility(out, instance, a0) == 2  # 2 * 7 value - 12 charged
    for idle in (mediator_id(1), mediator_id(2), advertiser_id(1), advertiser_id(2)):
        assert final_utility(out, instance, idle) == 0


def test_trajectories_are_stepwise_and_start_at_zero():
    instance, out = _worked_run()
    m0 = mediator_id(0)
    user = utility_trajectory(out, instance, UserRef(m0, 0))
    # arrivals: m0, a0 (both trades), m1, m2, a1, a2
    assert user.series == (0, 0, 3, 3, 3, 3, 3)
    mediator = utility_trajectory(out, instance, m0)
    assert mediator.series == (0, 0, 4, 4, 4, 4, 4)
    advertiser = utility_trajectory(out, instance, advertiser_id(0))
    assert advertiser.series == (0, 0, 2, 2, 2, 2, 2)


def test_utility_trajectory_rejects_unknown_players():
    instance, out = _worked_run()
    for read in (utility_trajectory, final_utility):
        with pytest.raises(KeyError):
            read(out, instance, mediator_id(9))
        with pytest.raises(KeyError):
            read(out, instance, advertiser_id(9))
        with pytest.raises(ValueError):
            read(out, instance, UserRef(mediator_id(0), 99))
        with pytest.raises(TypeError):
            read(out, instance, "m0")


def test_all_players_enumerates_every_role():
    instance, _ = worked_example()
    players = all_players(instance)
    assert UserRef(mediator_id(0), 2) in players
    assert mediator_id(2) in players
    assert advertiser_id(1) in players
    assert len(players) == 5 + 3 + 3  # users + mediators + advertisers


# -- run checks ---------------------------------------------------------------------


def test_run_checks_pass_on_truthful_runs():
    inst = desk_instance(7)
    for seed in range(8):
        out = truthful_run(inst, desk_config(inst, seed))
        assert check_budget_balance(out).ok
        assert check_surplus_invariant(out).ok
        assert check_online_legality(out).ok
        assert check_pay_targets_monotone(out).ok
        assert check_observed_never_trade(out).ok


def test_budget_balance_catches_underfunded_totals():
    """One trade paying its mediator 10^9 leaves the totals underfunded."""
    instance, out = _worked_run()
    first, second = out.events[1].trades
    tampered = _with_trades(out, 1, (first._replace(payment=10**9), second))
    got = check_budget_balance(tampered)
    assert not got.ok
    assert got.failures[0] == f"total charges 12 < total mediator receipts {10**9 + 4}"


def test_budget_balance_catches_per_trade_subsidy():
    instance, out = _worked_run()
    event = out.events[1]
    bad_trades = tuple(t._replace(charge=1) for t in event.trades)
    tampered = replace(out, events=out.events[:1] + (replace(event, trades=bad_trades),) + out.events[2:])
    assert not check_budget_balance(tampered).ok


def test_budget_balance_catches_pay_steps_beyond_receipts():
    """A pay step that lifts a mediator's owed total above its receipts so far must flag."""
    instance, out = _worked_run()
    event = out.events[1]
    assert check_budget_balance(out).ok
    # m0 has received 2 * 4 and owes its two users 4 each; one micro-unit more is a deficit.
    *earlier, (u, x) = event.pay_steps
    inflated = (*earlier, (u, x + 1))
    tampered = replace(out, events=out.events[:1] + (replace(event, pay_steps=inflated),) + out.events[2:])
    got = check_budget_balance(tampered)
    assert not got.ok
    assert got.failures[0] == "event 1: mediator m0 owes users 9 but has only received 8"


def test_continuous_ir_fails_on_dip():
    instance, out = _worked_run()
    traj = utility_trajectory(out, instance, UserRef(mediator_id(0), 0))
    assert check_continuous_ir(traj).ok
    dipped = replace(traj, series=traj.series[:3] + (traj.series[3] - 1,) + traj.series[4:])
    assert not check_continuous_ir(dipped).ok


def test_continuous_ir_reports_nonzero_start_and_first_drop():
    p = UserRef(mediator_id(0), 0)
    got = check_continuous_ir(UtilityTrajectory(p, (5, 3)))
    assert got.failures == (f"{p}: trajectory starts at 5, not 0", f"{p}: utility drops 5 -> 3 at event 1")
    assert not got.ok


def test_surplus_invariant_flags_idle_pairs():
    """The check recounts the idle units from the run's view and thresholds,
    so a run with one trade dropped leaves a user and a slot idle from that
    event on: on the worked run one of each, and on every run of the replay
    corpus that trades (64 of 100), the reference's recount plus one on
    each side."""
    instance, out = _worked_run()
    assert check_surplus_invariant(out).ok
    got = check_surplus_invariant(_with_trades(out, 1, out.events[1].trades[:1]))
    assert got.failures[0] == "event 1: 1 assignable users and 1 assignable slots both left unassigned"
    assert len(got.failures) == 5
    traded = 0
    for inst, config in replay_corpus():
        reports = ReportProfile.truthful(inst)
        out = run_mechanism(inst, reports, config)
        i = next((i for i, e in enumerate(out.events) if e.trades), None)
        if i is None:
            continue
        traded += 1
        got = check_surplus_invariant(_with_trades(out, i, out.events[i].trades[:-1]))
        assert got.failures == tuple(
            f"event {j}: {u + 1} assignable users and {s + 1} assignable slots both left unassigned"
            for j, (u, s) in enumerate(reference_idle(inst, reports, config)) if j >= i
        ), config
    assert traded >= 60, traded


def test_online_legality_flags_a_repeated_user():
    instance, out = _worked_run()
    assert check_online_legality(out).ok
    first, second = out.events[1].trades
    tampered = _with_trades(out, 1, (first, second._replace(user=first.user)))
    got = check_online_legality(tampered)
    assert got.failures == ("event 1: user m0:0 trades twice",)


def test_online_legality_flags_a_repeated_slot():
    instance, out = _worked_run()
    first, second = out.events[1].trades
    tampered = _with_trades(out, 1, (first, second._replace(slot=first.slot)))
    got = check_online_legality(tampered)
    assert got.failures == ("event 1: slot a0:0 trades twice",)


def test_online_legality_flags_unrelated_trades():
    instance, out = _worked_run()
    trade_event = out.events[1]
    foreign = out.events[2]  # m1's arrival, no trades of its own
    tampered = replace(
        out,
        events=out.events[:2] + (replace(foreign, trades=trade_event.trades),) + out.events[3:],
    )
    assert not check_online_legality(tampered).ok


def test_pay_monotone_flags_decreasing_targets():
    instance, out = _worked_run()
    assert check_pay_targets_monotone(out).ok
    u, x = out.events[1].pay_steps[-1]
    later = out.events[2]  # quiet arrival with no pay steps of its own
    assert later.pay_steps == ()
    tampered = replace(out, events=out.events[:2] + (replace(later, pay_steps=((u, x - 1),)),) + out.events[3:])
    got = check_pay_targets_monotone(tampered)
    assert not got.ok
    assert got.failures[0] == f"event 2: pay target of {u} drops {x} -> {x - 1}"


def test_observed_never_trade_flags_planted_observation():
    """The worked run observes nothing; one more observed arrival puts m0,
    its first arrival and a trader, in the observed prefix."""
    instance, out = _worked_run()
    assert out.observation_count == 0 and out.arrival_order[0] == mediator_id(0)
    tampered = replace(out, observation_count=1)
    assert tampered.observed_mediators == (mediator_id(0),)
    got = check_observed_never_trade(tampered)
    assert got.failures == ("observed entity traded: m0:0->a0:0", "observed entity traded: m0:1->a0:1")


# -- misreports ----------------------------------------------------------------------


def test_generate_misreports_each_role():
    inst = desk_instance(2)
    rng = random.Random(0)
    user = UserRef(inst.mediators[0].id, 0)
    for player in (user, inst.mediators[0].id, inst.advertisers[0].id):
        cases = generate_misreports(player, inst, rng, 8)
        assert 0 < len(cases) <= 8
        assert all(c.player == player for c in cases)


def test_generate_misreports_skips_truthful_payload():
    inst = desk_instance(2)
    truth = ReportProfile.truthful(inst)
    rng = random.Random(1)
    for player in all_players(inst):
        for case in generate_misreports(player, inst, rng, 12):
            assert case.apply(truth) != truth


def test_mediator_misreports_include_length_changes():
    inst = desk_instance(3)
    mediator = next(m.id for m in inst.mediators if len(m.user_costs) >= 2)
    cases = generate_misreports(mediator, inst, random.Random(4), 100)
    lengths = {len(c.mediator_costs) for c in cases}
    true_len = len(inst.mediator(mediator).user_costs)
    assert any(n < true_len for n in lengths)
    assert any(n > true_len for n in lengths)


def test_mediator_with_no_users_gets_misreports_and_sweeps():
    """A mediator with no users has none to drop or duplicate, and an empty
    vector is its truthful report, so it is left with fabricated users only;
    the incentive sweep runs on it for every rng seed."""
    inst = zero_user_instance()
    cases = generate_misreports(mediator_id(1), inst, random.Random(0), 100)
    assert sorted(c.mediator_costs for c in cases) == [(0,), (0, 0), (10**12,)]
    for seed in range(20):
        result = incentive_sweep(
            [(inst, MechanismConfig(alpha=Fraction(1)))], misreports_per_role=5, seeds_per_case=4, rng=random.Random(seed)
        )
        assert result.ok, (seed, result.violations)
        assert result.deviation_pairs == 60


def test_deviation_case_apply_targets_one_player():
    inst = desk_instance(2)
    truth = ReportProfile.truthful(inst)
    case = DeviationCase(inst.advertisers[0].id, "cap bump", advertiser_slots=(9, 5))
    got = case.apply(truth)
    assert got.advertiser_slots[inst.advertisers[0].id] == (9, 5)
    assert got.mediator_costs == truth.mediator_costs


def test_deviation_test_reports_exact_utilities():
    instance, config = worked_example()
    user = UserRef(mediator_id(0), 0)
    same = DeviationCase(user, "cost 1->2", user_cost=2)
    verdicts = deviation_test(instance, same, config, seeds=[0, 1])
    for v in verdicts:
        assert v.truthful_utility == 3
        assert v.deviant_utility == 3  # still assigned, payment set by others
        assert not v.profitable
    hiding = DeviationCase(user, "cost 1->big", user_cost=10**12)
    for v in deviation_test(instance, hiding, config, seeds=[0]):
        assert v.deviant_utility == 0
        assert not v.profitable


def test_truthful_sweep_counts_and_passes():
    inst = desk_instance(5)
    runs = [(inst, desk_config(inst, seed)) for seed in range(6)]
    result, outcomes = truthful_sweep(runs, collect_outcomes=True)
    assert result.ok
    assert result.runs == 6
    assert len(outcomes) == 6
    assert result.trajectories == 6 * len(all_players(inst))


def test_incentive_sweep_clean_on_standard_engine():
    items = [(desk_instance(s), desk_config(desk_instance(s), 0)) for s in (11, 12)]
    result = incentive_sweep(items, misreports_per_role=4, seeds_per_case=4, rng=random.Random(0))
    assert result.ok
    assert result.deviation_pairs > 0


# -- negative controls ------------------------------------------------------------------


def test_skip_updates_variant_breaks_continuous_ir():
    instance, config = worked_example()
    broken = replace(config, variant="skip_user_payment_updates")
    result, _ = truthful_sweep([(instance, broken)])
    assert not result.ok
    assert any("continuous_ir" in v for v in result.violations)


def _fabrication_prone_config(config):
    """Let the single-user mediator m1 arrive before m0 so an invented cheap
    user can still find an open assignable slot."""
    return replace(
        config,
        forced_arrival_order=(
            mediator_id(1),
            advertiser_id(0),
            mediator_id(0),
            mediator_id(2),
            advertiser_id(1),
            advertiser_id(2),
        ),
    )


def test_pay_slot_value_variant_rewards_fabrication():
    """Paying v(b) per trade lets a mediator profit from inventing a cheap
    user: the fake entry books a slot at 6 while the real user costs 5."""
    instance, config = worked_example()
    config = _fabrication_prone_config(config)
    broken = replace(config, variant="pay_slot_value")
    fabricate = DeviationCase(mediator_id(1), "append fake", mediator_costs=(5, 0))
    verdicts = deviation_test(instance, fabricate, broken, seeds=[0])
    assert verdicts[0].truthful_utility == 0
    assert verdicts[0].deviant_utility == 1  # paid the slot value 6, delivers at cost 5
    assert verdicts[0].profitable
    # same deviation under the standard engine is a loss, not a gain
    honest = deviation_test(instance, fabricate, config, seeds=[0])
    assert honest[0].deviant_utility == -1  # paid c threshold 4 for a cost-5 user
    assert not honest[0].profitable


def test_pay_slot_value_caught_by_incentive_sweep():
    instance, config = worked_example()
    broken = replace(_fabrication_prone_config(config), variant="pay_slot_value")
    result = incentive_sweep(
        [(instance, broken)], misreports_per_role=20, seeds_per_case=2, rng=random.Random(2)
    )
    assert any("profitable deviation" in v for v in result.violations)


# -- differential: the one-pass fold against per-player rescans ---------------------
#
# The reference below rescans the whole event log once per player, role by role;
# it is how trajectories were computed before ``utility_steps`` folded them all
# in one pass, and it stays here as the oracle the fold must match exactly.


def _ref_user(outcome, instance, user):
    true_cost = instance.mediator(user.mediator).user_costs[user.user_index]
    series = [0]
    assigned = False
    paid = 0
    for event in outcome.events:
        if any(t.user == user for t in event.trades):
            assigned = True
        for u, target in event.pay_steps:
            if u == user:
                paid = target
        series.append(paid - (true_cost if assigned else 0))
    return tuple(series)


def _ref_mediator(outcome, instance, mediator):
    true_costs = sorted(instance.mediator(mediator).user_costs)
    series = [0]
    payments = []
    for event in outcome.events:
        for t in event.trades:
            if t.user.mediator == mediator:
                payments.append(t.payment)
        delivered = min(len(payments), len(true_costs))
        series.append(sum(payments[:delivered]) - sum(true_costs[:delivered]))
    return tuple(series)


def _ref_advertiser(outcome, instance, advertiser):
    spec = instance.advertiser(advertiser)
    series = [0]
    assigned = 0
    charged = 0
    for event in outcome.events:
        for t in event.trades:
            if t.slot.advertiser == advertiser:
                assigned += 1
                charged += t.charge
        series.append(min(assigned, spec.capacity) * spec.value - charged)
    return tuple(series)


def _ref_trajectory(outcome, instance, player):
    if isinstance(player, UserRef):
        return _ref_user(outcome, instance, player)
    if player.kind == "mediator":
        return _ref_mediator(outcome, instance, player)
    return _ref_advertiser(outcome, instance, player)


def _differential_runs(variant):
    """(instance, reports, config): desk and organic runs, truthful and with
    mediators claiming extra users or advertisers inflating capacity."""
    runs = []
    for s in range(20):
        inst = desk_instance(s)
        truth = ReportProfile.truthful(inst)
        m, a = inst.mediators[s % 3], inst.advertisers[s % 3]
        profiles = (
            truth,
            truth.with_mediator_costs(m.id, m.user_costs + (0, 0)),
            truth.with_advertiser_slots(a.id, a.capacity + 3, a.value),
        )
        for seed in range(3):
            runs.extend((inst, reports, desk_config(inst, seed, variant)) for reports in profiles)
    for s in range(2):
        inst = organic_instance(s)
        for seed in range(2):
            runs.append((inst, ReportProfile.truthful(inst), MechanismConfig(alpha=ORGANIC_ALPHA, seed=seed, variant=variant)))
    return runs


@pytest.mark.parametrize("variant", VARIANTS)
def test_fold_matches_per_player_rescans(variant):
    fake_user_trades = over_capacity_wins = 0
    for inst, reports, config in _differential_runs(variant):
        out = run_mechanism(inst, reports, config)
        for player in all_players(inst):
            ref = _ref_trajectory(out, inst, player)
            assert utility_trajectory(out, inst, player).series == ref, (player, config.seed)
            assert final_utility(out, inst, player) == ref[-1], (player, config.seed)
        won = {}
        for t in out.trades_of():
            fake_user_trades += t.user.user_index >= len(inst.mediator(t.user.mediator).user_costs)
            won[t.slot.advertiser] = won.get(t.slot.advertiser, 0) + 1
        over_capacity_wins += sum(n > inst.advertiser(a).capacity for a, n in won.items())
    # The misreports must reach the branches they are here for.
    assert fake_user_trades > 0
    assert over_capacity_wins > 0


def _ref_sweep_violations(runs, outcomes):
    expected = []
    for (inst, _), out in zip(runs, outcomes):
        for name, chk in RUN_CHECKS.items():
            got = chk(out)
            if not got.ok:
                expected.append(f"{name}: {got.failures[0]}")
        for player in all_players(inst):
            got = check_continuous_ir(UtilityTrajectory(player, _ref_trajectory(out, inst, player)))
            if not got.ok:
                expected.append(f"continuous_ir: {got.failures[0]}")
    return expected


def test_truthful_sweep_violations_match_per_player_rescans():
    """Every variant matches the rescans; of the three, only skipping the pay
    updates breaks continuous IR."""
    flagged = {}
    for variant in VARIANTS:
        runs = [(inst, config) for inst, reports, config in _differential_runs(variant) if reports == ReportProfile.truthful(inst)]
        result, outcomes = truthful_sweep(runs, collect_outcomes=True)
        expected = _ref_sweep_violations(runs, outcomes)
        assert result.violations == expected, variant
        assert result.trajectories == sum(len(all_players(inst)) for inst, _ in runs)
        flagged[variant] = any(v.startswith("continuous_ir") for v in expected)
    assert flagged == {"standard": False, "skip_user_payment_updates": True, "pay_slot_value": False}


def test_truthful_sweep_reports_each_players_first_drop(monkeypatch):
    """Drops from a positive utility, and a second drop, on a tampered log."""
    instance, config = worked_example()
    out = truthful_run(instance, config)
    u0, u1 = UserRef(mediator_id(0), 0), UserRef(mediator_id(0), 1)
    assert [utility_trajectory(out, instance, u).series[-1] for u in (u0, u1)] == [3, 1]
    events = list(out.events)
    events[2] = replace(events[2], pay_steps=((u0, 2),))  # u0: 3 -> 1
    events[4] = replace(events[4], pay_steps=((u0, 1), (u1, 3)))  # u0: 1 -> 0, u1: 1 -> 0
    tampered = replace(out, events=tuple(events))
    monkeypatch.setattr(verify, "run_mechanism", lambda *args, **kwargs: tampered)
    result, _ = truthful_sweep([(instance, config)])
    expected = _ref_sweep_violations([(instance, config)], [tampered])
    assert "continuous_ir: m0:0: utility drops 3 -> 1 at event 3" in expected
    assert "continuous_ir: m0:1: utility drops 1 -> 0 at event 5" in expected
    assert result.violations == expected


def _swept(monkeypatch, instance, config, tampered):
    """``truthful_sweep``'s violations when its one run returns ``tampered``,
    checked against the per-player rescans."""
    monkeypatch.setattr(verify, "run_mechanism", lambda *args, **kwargs: tampered)
    result, _ = truthful_sweep([(instance, config)])
    assert result.violations == _ref_sweep_violations([(instance, config)], [tampered])
    return result.violations


def test_an_event_with_only_a_pay_step_is_checked_and_folded(monkeypatch):
    """Event 3 of the worked run traded nothing and paid nothing; planting two
    pay steps there (m0:0 down to 3, m0:1 up to 6) leaves m0 owing 9 on 8
    received and drops m0:0's utility at that event."""
    instance, config = worked_example()
    out = truthful_run(instance, config)
    u0, u1 = UserRef(mediator_id(0), 0), UserRef(mediator_id(0), 1)
    assert not out.events[3].trades and not out.events[3].pay_steps
    events = list(out.events)
    events[3] = replace(events[3], pay_steps=((u0, 3), (u1, 6)))
    tampered = replace(out, events=tuple(events))
    assert check_budget_balance(tampered).failures == ("event 3: mediator m0 owes users 9 but has only received 8",)
    assert list(verify.utility_steps(tampered, instance))[3] == {u0: 2, u1: 3}
    assert _swept(monkeypatch, instance, config, tampered) == [
        "budget_balance: event 3: mediator m0 owes users 9 but has only received 8",
        "pay_targets_monotone: event 3: pay target of m0:0 drops 4 -> 3",
        "continuous_ir: m0:0: utility drops 3 -> 2 at event 4",
    ]


def test_an_event_with_only_a_trade_is_checked_and_folded(monkeypatch):
    """Event 4 of the worked run (a1 arrives) traded nothing; planting a trade
    of m0:2 (true cost 5) to a1 (value 6) that charges 7 and pays 8 is a
    subsidy and leaves both a1 and m0:2 below zero at that event."""
    instance, config = worked_example()
    out = truthful_run(instance, config)
    assert not out.events[4].trades and not out.events[4].pay_steps
    first = out.events[1].trades[0]
    planted = first._replace(user=UserRef(mediator_id(0), 2), slot=first.slot._replace(advertiser=advertiser_id(1)), charge=7, payment=8)
    tampered = _with_trades(out, 4, (planted,))
    assert check_budget_balance(tampered).failures == ("event 4: trade charges 7 but pays 8",)
    assert list(verify.utility_steps(tampered, instance))[4] == {
        UserRef(mediator_id(0), 2): -5,
        mediator_id(0): 7,
        advertiser_id(1): -1,
    }
    assert _swept(monkeypatch, instance, config, tampered) == [
        "budget_balance: event 4: trade charges 7 but pays 8",
        "continuous_ir: m0:2: utility drops 0 -> -5 at event 5",
        "continuous_ir: a1: utility drops 0 -> -1 at event 5",
    ]


def test_truthful_sweep_counts_every_player_without_listing_them():
    """Users and entities both count, a user-less mediator included, and the
    count follows the instance when the runs switch between instances."""
    zero, desk = zero_user_instance(), desk_instance(3)
    assert len(all_players(zero)) == 2 + 4
    runs = [(zero, MechanismConfig(alpha=Fraction(1), seed=0)), (desk, desk_config(desk, 0)), (zero, MechanismConfig(alpha=Fraction(1), seed=1))]
    result, _ = truthful_sweep(runs)
    assert result.ok, result.violations
    assert result.trajectories == 2 * len(all_players(zero)) + len(all_players(desk))


# -- differential: views shared across runs against views rebuilt per run ------------
#
# Sweeps and experiments build one view per (instance, report profile) and pass
# it to every run. The references below rebuild it for every run, as the loops
# did before, and must give identical results.


@pytest.mark.parametrize("variant", VARIANTS)
def test_shared_view_runs_match_fresh_runs(variant):
    """One view per (instance, reports), reused across seeds, gives the same
    outcome document as runs that build their own."""
    runs = _differential_runs(variant)
    for s in range(2):
        inst = organic_instance(s)
        truth = ReportProfile.truthful(inst)
        m, a = inst.mediators[s], inst.advertisers[s]
        for reports in (
            truth.with_mediator_costs(m.id, m.user_costs + (0, 0)),
            truth.with_advertiser_slots(a.id, a.capacity + 3, a.value),
        ):
            runs.extend((inst, reports, MechanismConfig(alpha=ORGANIC_ALPHA, seed=seed, variant=variant)) for seed in range(2))
    views = {}
    for inst, reports, config in runs:
        key = (id(inst), id(reports))
        if key not in views:
            views[key] = report_view(inst, reports)
        shared = run_mechanism(inst, reports, config, view=views[key])
        assert outcome_to_doc(shared) == outcome_to_doc(run_mechanism(inst, reports, config)), config.seed
    assert len(views) < len(runs)


def _sweep_items(variant):
    items = [(desk_instance(s), desk_config(desk_instance(s), 0, variant)) for s in range(4)]
    items.append((organic_instance(0), MechanismConfig(alpha=ORGANIC_ALPHA, variant=variant)))
    instance, config = worked_example()
    items.append((instance, replace(_fabrication_prone_config(config), variant=variant)))
    return items


def _all_sweeps(variant):
    items = _sweep_items(variant)
    inc = incentive_sweep(items, misreports_per_role=3, seeds_per_case=3, rng=random.Random(5))
    runs = [(inst, replace(config, seed=seed)) for inst, config in items for seed in range(3)]
    tru, _ = truthful_sweep(runs)
    fabricate = DeviationCase(mediator_id(1), "append fake", mediator_costs=(5, 0))
    dev = deviation_test(items[-1][0], fabricate, items[-1][1], seeds=[0, 1, 2])
    return inc, tru, dev


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweeps_with_shared_views_match_per_run_rebuilds(monkeypatch, variant):
    shared = _all_sweeps(variant)
    given = []

    def rebuild_per_run(instance, reports, config, view=None):
        given.append(view is not None)
        return run_mechanism(instance, reports, config)

    monkeypatch.setattr(verify, "run_mechanism", rebuild_per_run)
    assert _all_sweeps(variant) == shared
    assert given and all(given)
    if variant != "standard":
        assert not (shared[0].ok and shared[1].ok)


def test_experiments_with_shared_views_match_per_run_rebuilds():
    """Ratios, reachable mean and event counts on the criterion-9/10 instance
    equal the loop that rebuilt the view, re-sorted the unobserved and the
    observed market and rebuilt the diagnostics' optimum on every run."""
    alpha, n = Fraction(1, 80), 20
    inst = matched_family(alpha, seed=0)
    view = true_view(inst)
    cano = canonical_assignment(view.all_users, view.blocks, view)
    optimum = offline_optimum(inst)
    opt = optimal_gain(inst)
    ratios, reachable, events, concentrations = [], [], 0, 0
    for seed in range(n):
        out = truthful_run(inst, MechanismConfig(alpha=alpha, seed=seed))
        observed_m, observed_a = set(out.observed_mediators), set(out.observed_advertisers)
        post = canonical_assignment(
            [u for u in view.all_users if u.mediator not in observed_m],
            [a for a in view.blocks if a not in observed_a],
            view,
        )
        gain = sum(view.slot_value(b) - view.user_costs[u] for u, b in post.ordered_pairs)
        ratios.append(float(Fraction(out.gft, opt)))
        reachable.append(float(Fraction(out.gft, gain)) if gain else 1.0)
        diag = compute_diagnostic_sets(inst, out, random.Random(seed ^ 0x9E3779B9))
        shared = compute_diagnostic_sets(inst, out, random.Random(seed ^ 0x9E3779B9), optimum=optimum)
        assert shared == diag, seed
        obs = canonical_assignment(view.users_of(out.observed_mediators), out.observed_advertisers, view)
        filtered = canonical_assignment(
            [u for u in cano.sorted_users if u.mediator in observed_m],
            [b.advertiser for b in cano.sorted_blocks if b.advertiser in observed_a],
            view,
        )
        assert filtered == obs, seed
        assert diag.observed_canonical_size == obs.size
        events += diag.flags.event
        concentrations += diag.flags.concentration

    (point,) = competitive_ratio_experiment([(alpha, inst)], n_seeds=n)
    assert list(point.ratios) == ratios
    assert point.mean_vs_reachable == fmean(reachable)
    result = event_frequency_experiment(inst, alpha, n_seeds=n)
    assert (result.event_count, result.concentration_count) == (events, concentrations)
    assert 0 < point.mean < point.mean_vs_reachable < 1


# -- call boundaries ------------------------------------------------------------------


def _calls_through(monkeypatch, fn, method_of=None):
    """Count the calls through every binding of ``fn`` in the package, the
    way ``perfbench`` marks them: every module attribute bound to it, or for
    a method, its attribute on the class ``method_of``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    if method_of is not None:
        bindings = [(method_of, fn.__name__)]
    else:
        modules = [m for name, m in sys.modules.items() if name == "observeprice" or name.startswith("observeprice.")]
        bindings = [(m, key) for m in modules for key, value in vars(m).items() if value is fn]
    for space, key in bindings:
        monkeypatch.setattr(space, key, counted)
    return calls


def test_runs_keep_the_call_boundaries_perfbench_marks(monkeypatch):
    """perfbench cuts items at these calls, so each must stay one per unit of
    work: one ``verify.run_mechanism`` call per run of an incentive sweep
    (its seeds plus its deviation pairs), one ``analysis.truthful_run`` call
    per seed of each experiment, and one ``process_arrival`` call per
    post-observation arrival of a run."""
    inst = desk_instance(5)
    runs = _calls_through(monkeypatch, verify.run_mechanism)
    result = incentive_sweep([(inst, desk_config(inst, 0))], 4, 3, random.Random(5))
    assert result.deviation_pairs > 0
    assert len(runs) == result.runs == 3 + result.deviation_pairs

    alpha = Fraction(1, 80)
    matched = matched_family(alpha, seed=0)
    seeds = _calls_through(monkeypatch, analysis.truthful_run)
    competitive_ratio_experiment([(alpha, matched)], n_seeds=4)
    assert len(seeds) == 4
    event_frequency_experiment(matched, alpha, n_seeds=3)
    assert len(seeds) == 4 + 3

    arrivals = _calls_through(monkeypatch, MechanismState.process_arrival, method_of=MechanismState)
    outcome = truthful_run(matched, MechanismConfig(alpha=alpha, seed=2))
    assert outcome.trades_of() and len(arrivals) == len(outcome.post_observation_order) == len(outcome.events)
