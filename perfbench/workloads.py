"""The four benchmark workloads, built only from the package's public API.

Each workload turns a seed into a pool of instances (its set-up), then into
an endless stream of blocks of units. A unit is one call into the package;
it completes one item or, for the sweeps and experiments, many. The timed
body stops only at block boundaries, so every run keeps the workload's mix.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import observeprice as op
from observeprice import analysis, verify

from spans import patched

MICRO = 10**6
ORGANIC_ALPHA = Fraction(1, 70)
GRID = (Fraction(1, 5), Fraction(1, 20), Fraction(1, 80))
REPLAY_ALPHA = Fraction(1, 160)
SEEDS_PER_INSTANCE = 10  # the criteria-2/3/5 corpus runs every instance for 10 mechanism seeds
MISREPORTS_PER_ROLE = 20
SEEDS_PER_CASE = 20
RATIO_SEEDS_PER_UNIT = 20


# -- the acceptance corpus's instance families -----------------------------------


def desk_instance(seed: int) -> op.Instance:
    """3x3 market valid at alpha = 1, priced by injected mid-range thresholds."""
    return op.generate_instance(
        op.GeneratorConfig(
            n_mediators=3,
            n_advertisers=3,
            users_per_mediator=op.uniform(1, 3),
            capacity=op.uniform(1, 3),
            cost=op.uniform(0, 12 * MICRO),
            value=op.uniform(0, 12 * MICRO),
            alpha=Fraction(1),
            seed=seed,
        )
    )


def desk_config(instance: op.Instance, seed: int) -> op.MechanismConfig:
    return op.MechanismConfig(
        alpha=Fraction(1),
        r=Fraction(1, 10),
        seed=seed,
        threshold_override=op.threshold_keys_from_amounts(6 * MICRO, 7 * MICRO, instance),
    )


def organic_instance(seed: int) -> op.Instance:
    """80 one-user mediators and 80 one-slot advertisers; every value beats every cost."""
    return op.generate_instance(
        op.GeneratorConfig(
            n_mediators=80,
            n_advertisers=80,
            users_per_mediator=op.constant(1),
            capacity=op.constant(1),
            cost=op.uniform(0, MICRO),
            value=op.uniform(MICRO + 1, 2 * MICRO),
            alpha=ORGANIC_ALPHA,
            seed=seed,
        )
    )


def _rng(*parts) -> random.Random:
    """A stream seeded from text, so draws do not depend on PYTHONHASHSEED."""
    return random.Random(":".join(map(str, parts)))


# -- semantic digest ---------------------------------------------------------------


class Digest:
    """SHA-256 over canonical JSON rows of the outputs that define behaviour.

    Outcome rows cover arrival order, observation count, thresholds, every
    trade and pay step, charges, receipts, final targets and GfT. They leave
    out ``ArrivalEvent.targets`` and the report text on purpose, so a refactor
    that drops the snapshots or reformats reports keeps the same digest.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def row(self, row) -> None:
        self._h.update(json.dumps(row, separators=(",", ":")).encode() + b"\n")

    def outcome(self, o: op.MechanismOutcome) -> None:
        t = o.thresholds
        self.row(
            [
                [str(e) for e in o.arrival_order],
                o.observation_count,
                [_key(t.user_key), _key(t.slot_key), t.location, t.observed_size, t.injected],
                [
                    [
                        str(ev.arrival),
                        [[str(x.user), str(x.slot), x.charge, x.payment] for x in ev.trades],
                        [[str(u), amount] for u, amount in ev.pay_steps],
                    ]
                    for ev in o.events
                ],
                _ledger(o.charges),
                _ledger(o.receipts),
                _ledger(o.final_targets),
                o.gft,
            ]
        )

    def sweep(self, result: op.SweepResult) -> None:
        self.row([result.runs, result.trades, result.trajectories, result.deviation_pairs, len(result.violations)])

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _key(key):
    return None if key is None else list(key)


def _ledger(d) -> list:
    return sorted([str(k), v] for k, v in d.items())


@contextlib.contextmanager
def marks(module, attr: str, sink=None, on_call=None):
    """Record the start time of every call to ``module.attr``.

    ``on_call`` gets the index of each call before it starts; ``sink`` gets
    each call's result.
    """
    starts: list[float] = []

    def make(fn):
        def marked(*args, **kwargs):
            if on_call is not None:
                on_call(len(starts))
            starts.append(perf_counter())
            result = fn(*args, **kwargs)
            if sink is not None:
                sink(result)
            return result

        return marked

    with patched(getattr(module, attr), make):
        yield starts


def _segments(starts: list[float], begin: float, end: float, count: int) -> tuple[int, list[float]]:
    """(failed items, durations) of ``count`` consecutive items from the start marks of their calls.

    Item i runs until item i+1 starts; work before the first mark belongs to
    the first item. If the package no longer makes exactly one marked call per
    item, the item boundaries are unknown: every item of the span counts as
    failed (at least one), so a change of call structure must come with a
    change to the workload instead of silently changing what the latencies mean.
    """
    if count > 0 and len(starts) == count:
        bounds = [begin] + starts[1:] + [end]
        return 0, [b - a for a, b in zip(bounds, bounds[1:])]
    print(f"error: {len(starts)} marked calls for {count} items; item boundaries unknown", file=sys.stderr)
    n = max(count, 1)
    return n, [(end - begin) / n] * n


# -- workloads ----------------------------------------------------------------------


@dataclass
class Workload:
    """Sizes of one workload. ``pool_blocks`` blocks are built at set-up."""

    name: str
    pool_blocks: int
    check_blocks: int  # blocks built for the digest check
    check_units: int  # units of those blocks the digest covers
    trace_units: int  # units run per traced batch, after building the pool
    min_items: int = 100  # a timed run does at least this many items

    def build(self, seed: int, n_blocks: int) -> list:
        raise NotImplementedError

    def units(self, block, seed: int, cycle: int) -> list:
        raise NotImplementedError

    def run(self, unit, digest: Digest | None = None, on_item=None):
        """Run one unit and check its outputs.

        Returns (failed items, item latencies); latencies are None when the
        unit is a single item, whose latency the caller times. A unit of many
        items calls ``on_item(k)`` as its k-th item starts.
        """
        raise NotImplementedError

    def stream(self, pool: list, seed: int):
        """Blocks of units forever, cycling over the pool with fresh mechanism seeds."""
        for cycle in itertools.count():
            for block in pool:
                yield self.units(block, seed, cycle)


class RunReplay(Workload):
    """Run, write the report, read it back and replay it, on a 320-entity market."""

    def build(self, seed, n_blocks):
        rng = _rng("run_replay", seed, "instances")
        return [(i, op.matched_family(REPLAY_ALPHA, seed=rng.randrange(2**31))) for i in range(n_blocks)]

    def units(self, block, seed, cycle):
        index, instance = block
        return [(instance, _rng("run_replay", seed, "mechanism", index, cycle).randrange(2**31))]

    def run(self, unit, digest=None, on_item=None):
        instance, mech_seed = unit
        config = op.MechanismConfig(alpha=REPLAY_ALPHA, seed=mech_seed)
        outcome = op.truthful_run(instance, config)
        text = op.run_report_to_text(instance, op.ReportProfile.truthful(instance), config, outcome)
        ok, _ = op.replay_run_report(op.run_report_from_text(text))
        if digest is not None:
            digest.outcome(outcome)
            digest.row([ok])
        return (0 if ok else 1), None


class TruthfulSweep(Workload):
    """verify.truthful_sweep over the criteria-2/3/5 corpus at 900:80:20 (desk:organic:matched)."""

    def build(self, seed, n_blocks):
        # Block b holds the corpus's own instances: desk 45b.., organic 4b.., matched b.
        pool = []
        for b in range(n_blocks):
            desk = [("desk", desk_instance(45 * b + i)) for i in range(45)]
            organic = [("organic", organic_instance(4 * b + i)) for i in range(4)]
            matched = ("matched", op.matched_family(Fraction(1, 20), seed=b))
            # Spread the large runs through the block; the first three instances cover all groups.
            pool.append(
                [matched, organic[0]] + desk[:11] + [organic[1]] + desk[11:22] + [organic[2]] + desk[22:33] + [organic[3]] + desk[33:]
            )
        return pool

    def units(self, block, seed, cycle):
        base = _rng("truthful_sweep", seed).randrange(2**31) + cycle * SEEDS_PER_INSTANCE
        out = []
        for kind, instance in block:
            for s in range(base, base + SEEDS_PER_INSTANCE):
                if kind == "desk":
                    config = desk_config(instance, s)
                else:
                    config = op.MechanismConfig(alpha=ORGANIC_ALPHA if kind == "organic" else Fraction(1, 20), seed=s)
                out.append((instance, config))
        return out

    def run(self, unit, digest=None, on_item=None):
        result, outcomes = op.truthful_sweep([unit], collect_outcomes=True)
        if digest is not None:
            digest.outcome(outcomes[0])
            digest.sweep(result)
        return (0 if result.ok and result.runs == 1 else 1), None


class IncentiveSweep(Workload):
    """verify.incentive_sweep over the criterion-4 corpus at 190:10 (desk:organic)."""

    def build(self, seed, n_blocks):
        # Block b holds the corpus's own instances: desk 1000+19b.., organic 100+b.
        pool = []
        for b in range(n_blocks):
            desk = [(d, desk_config(d, 0)) for d in (desk_instance(1000 + 19 * b + i) for i in range(19))]
            organic = organic_instance(100 + b)
            pool.append(desk[:10] + [(organic, op.MechanismConfig(alpha=ORGANIC_ALPHA, seed=0))] + desk[10:])
        return pool

    def units(self, block, seed, cycle):
        return [(item, f"{seed}:{cycle}:{i}") for i, item in enumerate(block)]

    def run(self, unit, digest=None, on_item=None):
        item, rng_seed = unit
        sink = digest.outcome if digest is not None else None
        # The first SEEDS_PER_CASE runs are the truthful twins; each later run
        # starts one truthful-versus-deviant comparison.
        on_call = None if on_item is None else (lambda j: on_item(max(0, j - SEEDS_PER_CASE)))
        with marks(verify, "run_mechanism", sink, on_call) as starts:
            begin = perf_counter()
            result = op.incentive_sweep([item], MISREPORTS_PER_ROLE, SEEDS_PER_CASE, _rng("incentive_sweep", rng_seed))
            end = perf_counter()
        failed, latencies = _segments(starts[SEEDS_PER_CASE:], begin, end, result.deviation_pairs)
        if digest is not None:
            digest.sweep(result)
        return (failed if result.ok else len(latencies)), latencies


class RatioEvents(Workload):
    """Competitive-ratio plus event-frequency experiments on the criteria-9/10 grid."""

    def build(self, seed, n_blocks):
        # The paper's grid uses matched_family seed 0; only mechanism seeds vary.
        return [[(alpha, op.matched_family(alpha, seed=0)) for alpha in GRID] for _ in range(n_blocks)]

    def units(self, block, seed, cycle):
        base = _rng("ratio_events", seed).randrange(2**40) + cycle * RATIO_SEEDS_PER_UNIT
        return [(alpha, instance, base) for alpha, instance in block]

    def run(self, unit, digest=None, on_item=None):
        alpha, instance, base = unit
        n = RATIO_SEEDS_PER_UNIT
        sink = digest.outcome if digest is not None else None
        on_call = None if on_item is None else (lambda j: on_item(j % n))
        with marks(analysis, "truthful_run", sink, on_call) as starts:
            t0 = perf_counter()
            (point,) = op.competitive_ratio_experiment([(alpha, instance)], n_seeds=n, base_seed=base)
            t1 = perf_counter()
            events = op.event_frequency_experiment(instance, alpha, n_seeds=n, base_seed=base)
            t2 = perf_counter()
        # Item i is seed base+i at this alpha: its ratio run plus its event run.
        ratio_bad, ratio_part = _segments([t for t in starts if t < t1], t0, t1, n)
        event_bad, event_part = _segments([t for t in starts if t >= t1], t1, t2, n)
        latencies = [a + b for a, b in zip(ratio_part, event_part)]
        ratios = [float(x) for x in point.ratios]
        ok = (
            all(0.0 <= x <= 1.0 for x in ratios)
            and 0.0 <= point.mean_vs_reachable <= 1.0
            and 0 <= events.event_count <= events.concentration_count <= n
            and not ratio_bad + event_bad
        )
        if digest is not None:
            digest.row(
                [str(alpha), point.tau, str(point.r), [repr(x) for x in ratios], repr(point.mean_vs_reachable)]
                + [events.event_count, events.concentration_count]
            )
        return (0 if ok else n), latencies


WORKLOADS = {
    w.name: w
    for w in (
        RunReplay("run_replay", pool_blocks=64, check_blocks=2, check_units=2, trace_units=8, min_items=160),
        TruthfulSweep("truthful_sweep", pool_blocks=8, check_blocks=1, check_units=30, trace_units=500),
        IncentiveSweep("incentive_sweep", pool_blocks=2, check_blocks=1, check_units=1, trace_units=20),
        RatioEvents("ratio_events", pool_blocks=1, check_blocks=1, check_units=3, trace_units=3),
    )
}
