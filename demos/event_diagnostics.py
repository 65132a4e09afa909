"""
Concentration events and run diagnostics
========================================

The pricing guarantee rests on a good event: the random observation split
lands close to its expectation on the optimum's user and slot sets, and few
assignable entities arrive too late to matter. This script measures how often
that event holds and reconstructs the analysis sets for a single run.
"""

import random
from fractions import Fraction

from observeprice import (
    MechanismConfig,
    compute_diagnostic_sets,
    event_frequency_experiment,
    matched_family,
    money_to_text,
    truthful_run,
)

# 1. Event frequency across scales, against the analytic floor
#    max(0, 1 - 10 * exp(-2 / alpha^(1/3))). The floor is vacuous at small
#    tau (reported, not hidden) and demanding at tau = 400.
print(f"{'alpha':>8} {'Pr[E]':>8} {'95% interval':>18} {'Pr[concentration]':>18} {'floor':>7}")
for alpha in (Fraction(1, 5), Fraction(1, 20), Fraction(1, 80)):
    instance = matched_family(alpha, seed=0)
    res = event_frequency_experiment(instance, alpha, n_seeds=150)
    low, high = res.event_wilson
    print(f"{str(alpha):>8} {res.event_frequency:>8.3f} "
          f"[{low:>7.3f}, {high:>7.3f}] {res.concentration_frequency:>18.3f} "
          f"{res.bound_clamped:>7.3f}")
    assert res.meets_bound

# 2. Diagnostics for one live run: the offline optimum's user/slot sets, the
#    core prefix the analysis says should survive observation, the clearing
#    sets the learned thresholds actually admit, and the boundary value ell
#    that separates optimal costs from optimal values.
alpha = Fraction(1, 80)
instance = matched_family(alpha, seed=0)
outcome = truthful_run(instance, MechanismConfig(alpha=alpha, seed=7))
diag = compute_diagnostic_sets(instance, outcome, random.Random(7))
print(f"\none run at alpha = {alpha}: tau = {diag.tau}, "
      f"observed {outcome.observation_count}/{len(outcome.arrival_order)} entities")
print(f"  ell (optimum's edge value) = {money_to_text(diag.ell)}")
print(f"  core prefix length = {len(diag.core_users)}")
print(f"  clearing sets: {len(diag.clearing_users)} users, {len(diag.clearing_slots)} slots")
print(f"  executed trades: {len(outcome.trades_of())}")
print(f"  event flags: concentration = {diag.flags.concentration}, "
      f"full event = {diag.flags.event}")
