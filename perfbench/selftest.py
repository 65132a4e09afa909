#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks, in about a minute:
1. every workload emits every end-to-end metric of BENCHMARK.json (plus
   error_rate) and, traced, every per-layer metric, each with its unit, and
   passes its output checks;
2. negative control: an outcome with one trade's charge changed trips the
   digest check, in process for every workload and through the command for
   one, which must then exit non-zero;
3. a unit whose marked calls no longer match its items (one extra call)
   fails, instead of reporting latencies split evenly;
4. two traced processes with different PYTHONHASHSEED values report identical
   per-layer counts and digests.
Exit status 0 means all checks passed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import subprocess
import sys

import run

TAMPER_WORKLOAD = "truthful_sweep"


def tiny(wl):
    """The same workload with a one-block pool and blocks cut to their first unit."""

    class Tiny(type(wl)):
        def stream(self, pool, seed):
            for block in super().stream(pool, seed):
                yield block[:1]

    return Tiny(**dict(dataclasses.asdict(wl), pool_blocks=1, trace_units=1))


def measure_tiny(wl, trace: bool) -> dict:
    return run.measure(tiny(wl), seed=1, seconds=0, trace=trace, import_s=0.0, min_items=1)


def tampered():
    """Patch run_mechanism so the first outcome with a trade has its charge raised by one micro-unit."""
    from observeprice import mechanism

    from spans import patched

    def make(real):
        done = []

        def run_mechanism(*args, **kwargs):
            outcome = real(*args, **kwargs)
            for i, event in enumerate(outcome.events):
                if event.trades and not done:
                    first = event.trades[0]
                    trades = (first._replace(charge=first.charge + 1),) + event.trades[1:]
                    events = list(outcome.events)
                    events[i] = dataclasses.replace(event, trades=trades)
                    outcome.events = tuple(events)
                    done.append(i)
            return outcome

        return run_mechanism

    return patched(mechanism.run_mechanism, make)


@contextlib.contextmanager
def extra_mark():
    """Make every ``workloads.marks`` block report one more marked call than it saw."""
    import workloads

    real = workloads.marks

    @contextlib.contextmanager
    def marks(*args, **kwargs):
        with real(*args, **kwargs) as starts:
            yield starts
        starts.append(starts[-1])

    workloads.marks = marks
    try:
        yield
    finally:
        workloads.marks = real


def counts_and_digests(workloads) -> dict:
    from spans import LAYERS

    timings = {f"{layer}.self_s" for layer in LAYERS} | {"trace.unattributed_s", "trace.overhead_share"}
    out = {}
    for name, wl in workloads.items():
        record = measure_tiny(wl, trace=True)
        metrics = record["result"]["metrics"]
        out[name] = {
            "counts": {k: m["value"] for k, m in metrics.items() if k not in timings},
            "digests": record["digests"],
        }
    return out


def main(argv) -> int:
    run.import_package()
    from workloads import WORKLOADS

    if argv[1:2] == ["--child"]:  # one traced process of check 4
        print(json.dumps(counts_and_digests(WORKLOADS)))
        return 0

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    # 1. every metric with its unit, and the checks pass
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"error_rate": "fraction"}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, wl in WORKLOADS.items():
        for trace, want in ((False, want_e2e), (True, want_layer)):
            record = measure_tiny(wl, trace)
            got = {k: m["unit"] for k, m in record["all_metrics"].items()}
            values_ok = all(isinstance(m["value"], (int, float)) for m in record["all_metrics"].values())
            expect(got == want and values_ok, f"{name} trace={int(trace)}: every metric emitted with its unit")
            expect(record["result"]["correct"], f"{name} trace={int(trace)}: output checks pass")

    # 2. negative control: a tampered outcome trips the digest check
    for name, wl in WORKLOADS.items():
        with tampered():
            record = measure_tiny(wl, trace=False)
        expect(not record["result"]["correct"], f"{name}: tampered charge trips the digest check")
    child = (
        "import runpy, sys; sys.path.insert(0, 'perfbench'); import run; run.import_package(); "
        "import selftest; t = selftest.tampered(); t.__enter__(); "
        f"sys.argv = ['run.py', '--workload', '{TAMPER_WORKLOAD}', '--seed', '1', '--seconds', '0', '--trace', '0']; "
        "runpy.run_path('perfbench/run.py', run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", child], cwd=run.ROOT, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    expect(
        proc.returncode != 0 and json.loads(last[0]).get("correct") is False,
        f"{TAMPER_WORKLOAD}: the command exits non-zero on a tampered outcome",
    )

    # 3. a mark count that does not match the item count fails the unit
    for name in ("incentive_sweep", "ratio_events"):
        with extra_mark():
            record = measure_tiny(WORKLOADS[name], trace=False)
        result = record["result"]
        expect(
            not result["correct"] and result["failed"] == result["attempted"] - len(run.CHECK_SEEDS),
            f"{name}: one extra marked call fails every timed item",
        )

    # 4. counts and digests repeat exactly across processes and hash seeds
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "selftest.py"), "--child"], cwd=run.ROOT, env=env, capture_output=True, text=True
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None)
    expect(results[0] is not None and results[0] == results[1], "per-layer counts and digests identical across PYTHONHASHSEED 1 and 2")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
