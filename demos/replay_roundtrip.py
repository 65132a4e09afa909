"""
Replayable run reports
======================

Every run serializes to a self-contained JSON report: the instance, the
reports that departed from it (none, in a truthful run), the full
configuration, and the outcome. Anyone can re-run the report and compare
outcomes byte for byte. A report is one line of compact JSON;
`python -m json.tool report.json` prints it indented. The outcome records
only what the run decided: the arrival order, how many arrivals were
observed, the thresholds, one event per arrival that traded and the gain
from trade. Charges, receipts and final pay targets are folds of the events.
"""

import json
from fractions import Fraction

from observeprice import (
    GeneratorConfig,
    MechanismConfig,
    ReportProfile,
    generate_instance,
    money_from_text,
    money_to_text,
    replay_run_report,
    run_mechanism,
    run_report_from_text,
    run_report_to_text,
    uniform,
)

# 1. Sample a market, run the mechanism once, and write the report.
instance = generate_instance(
    GeneratorConfig(
        n_mediators=80,
        n_advertisers=80,
        users_per_mediator=uniform(1, 1),
        capacity=uniform(1, 1),
        cost=uniform(0, 10**6),
        value=uniform(10**6 + 1, 2 * 10**6),
        alpha=Fraction(1, 70),
        seed=5,
    )
)
reports = ReportProfile.truthful(instance)
config = MechanismConfig(alpha=Fraction(1, 70), seed=3)
outcome = run_mechanism(instance, reports, config)
text = run_report_to_text(instance, reports, config, outcome)
print(f"report is {len(text.encode())} bytes of compact JSON, "
      f"records {len(outcome.trades_of())} trades, GfT {money_to_text(outcome.gft)}")
recorded = json.loads(text)["outcome"]
print(f"the outcome holds {', '.join(recorded)}")
charged = sum(money_from_text(t["charge"]) for e in recorded["events"] for t in e["trades"])
assert charged == sum(outcome.charges.values())
print(f"advertisers were charged {money_to_text(charged)} in all, summed from the recorded trades")

# 2. Replaying the parsed report re-runs the mechanism from the recorded
#    configuration; the fresh outcome must match the recorded one exactly.
doc = run_report_from_text(text)
ok, message = replay_run_report(doc)
print(f"replay: {message}")
assert ok

# 3. Any tampering shows up as a precise divergence.
doc["outcome"]["gft"] = money_to_text(money_from_text(doc["outcome"]["gft"]) + 1)
ok, message = replay_run_report(doc)
print(f"after editing one amount: {message}")
assert not ok

# 4. Amounts travel as canonical decimal strings on a micro-unit grid, so the
#    files are diffable and parsing is exact (no floating point).
assert money_from_text("2.5") == 2500000
assert money_to_text(2500000) == "2.5"
snippet = json.loads(text)["outcome"]["thresholds"]
print(f"recorded thresholds: {snippet}")
