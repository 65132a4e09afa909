"""
The verification laboratory
===========================

Sweep seeded truthful runs through every economic invariant (budget balance,
continuous individual rationality, surplus conservation, online legality),
probe incentives with sampled misreports, and watch a deliberately broken
engine variant get caught.
"""

import random
from fractions import Fraction

from observeprice import (
    GeneratorConfig,
    MechanismConfig,
    generate_instance,
    incentive_sweep,
    truthful_sweep,
    uniform,
)

# 1. A market where every value beats every cost, so the mechanism's learned
#    thresholds are live (non-dummy) and trades actually execute.
instance = generate_instance(
    GeneratorConfig(
        n_mediators=80,
        n_advertisers=80,
        users_per_mediator=uniform(1, 1),
        capacity=uniform(1, 1),
        cost=uniform(0, 10**6),
        value=uniform(10**6 + 1, 2 * 10**6),
        alpha=Fraction(1, 70),
        seed=0,
    )
)

# 2. Truthful sweep: 40 seeded runs, all run invariants plus one utility
#    trajectory check per player per run.
configs = [MechanismConfig(alpha=Fraction(1, 70), seed=s) for s in range(40)]
sweep, _ = truthful_sweep([(instance, c) for c in configs])
print(f"truthful sweep: {sweep.runs} runs, {sweep.trades} trades, "
      f"{sweep.trajectories} trajectories, {len(sweep.violations)} violations")

# 3. Incentive probe: sampled misreports for every role, each compared to the
#    truthful twin run under identical seeds. Strict profit anywhere is a
#    violation; the standard engine shows none.
inc = incentive_sweep(
    [(instance, MechanismConfig(alpha=Fraction(1, 70), seed=0))],
    misreports_per_role=6,
    seeds_per_case=4,
    rng=random.Random(1),
)
profitable = sum(v.startswith("profitable deviation") for v in inc.violations)
print(f"incentive sweep: {inc.deviation_pairs} paired comparisons, "
      f"{profitable} profitable deviations")

# 4. Negative control: an engine variant that never raises user pay targets
#    breaks continuous individual rationality immediately, proving the
#    checks are not vacuous.
broken_configs = [
    MechanismConfig(alpha=Fraction(1, 70), seed=s, variant="skip_user_payment_updates")
    for s in range(10)
]
broken, _ = truthful_sweep([(instance, c) for c in broken_configs])
caught = [v for v in broken.violations if v.startswith("continuous_ir")]
print(f"broken variant: {len(caught)} continuous-IR violations caught")
print(f"  first: {caught[0]}")
assert caught, "the laboratory must flag the broken variant"
