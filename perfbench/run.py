#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload run_replay --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` next to this directory and from nowhere else. Before timing, every
run checks the semantic digest of each workload at the default and the
held-out seed against ``digests.json``.

With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``, measured with no tracing; times are scaled to the
reference machine speed of speed.py, and the record keeps them raw too. With ``--trace 1`` they are the
per-layer ones: fixed batches run alternately untraced and traced, and the
traced ones record spans (see spans.py).

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (environment, raw samples,
digests, and for traced runs the spans) is written under ``perfbench/out/``.
Exit status: 0 when every check passed, 1 when an output check failed, 2 when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from speed import Probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3
CHECK_SEEDS = (0, 104729)  # the default seed and the held-out seed


def import_package() -> float:
    """Import observeprice from ROOT/src and return the seconds it took.

    Exits with status 2 when the sources are missing, so a directory that
    holds only the benchmark never reports a result.
    """
    if not (SRC / "observeprice" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import observeprice

    elapsed = time.perf_counter() - start
    if not Path(observeprice.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported observeprice from {observeprice.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def compute_digest(wl, seed: int) -> str:
    """Digest of the first ``check_units`` units of the workload at ``seed``."""
    from workloads import Digest

    pool = wl.build(seed, wl.check_blocks)
    units = [u for block in pool for u in wl.units(block, seed, 0)][: wl.check_units]
    digest = Digest()
    for unit in units:
        wl.run(unit, digest)
    return digest.hexdigest()


def check_digests(wl) -> tuple[dict[str, str], int]:
    """Digests at CHECK_SEEDS and how many differ from the recorded values."""
    recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}) if DIGESTS.is_file() else {}
    got = {str(s): compute_digest(wl, s) for s in CHECK_SEEDS}
    mismatches = 0
    for s, d in got.items():
        if recorded.get(s) != d:
            mismatches += 1
            print(f"digest mismatch: {wl.name} seed {s}: got {d}, recorded {recorded.get(s)}", file=sys.stderr)
    return got, mismatches


def run_unit(wl, unit, on_item=None) -> tuple[list[float], int]:
    t0 = time.perf_counter()
    failed, latencies = wl.run(unit, on_item=on_item)
    t1 = time.perf_counter()
    return ([t1 - t0] if latencies is None else latencies), failed


def timed_body(wl, pool, seed: int, seconds: float, min_items: int, probes):
    """Whole blocks until ``seconds`` have passed, ``min_items`` items are done
    and at least a tenth of ``min_items`` lie above the 90th-percentile estimate.

    Speed probes run between units and the returned body time leaves them
    out. Returns the raw item latencies, failures, body time, and the item
    latencies and body time scaled to the reference speed.
    """
    latencies: list[float] = []
    ends, durations, counts = array("d"), array("d"), array("l")  # per unit, compact so peak_rss_mb stays the program's
    failed = 0
    probes.take(force=True)
    start = time.perf_counter()
    for block in wl.stream(pool, seed):
        for unit in block:
            t = time.perf_counter()
            lats, bad = run_unit(wl, unit)
            end = time.perf_counter()
            ends.append(end)
            durations.append(end - t)
            counts.append(len(lats))
            latencies += lats
            failed += bad
            probes.take()
        if time.perf_counter() - start >= seconds and len(latencies) >= min_items:
            p90 = windowed_quantile(latencies, 0.90)
            if sum(x > p90 for x in latencies) >= min_items // 10:
                break
    body_s = time.perf_counter() - start - probes.spent
    factors = [probes.factor(end) for end in ends]
    scaled, i = [], 0
    for f, n in zip(factors, counts):
        scaled += [x * f for x in latencies[i : i + n]]
        i += n
    mean_factor = sum(f * d for f, d in zip(factors, durations)) / sum(durations)
    return latencies, failed, body_s, scaled, body_s * mean_factor


QUANTILE_WINDOW = 0.02


def windowed_quantile(xs: list[float], q: float) -> float:
    """Mean of the order statistics between quantiles q - QUANTILE_WINDOW and q + QUANTILE_WINDOW.

    Averaging a window of neighbouring order statistics keeps the estimate
    steady where a single order statistic would jump: in truthful_sweep exactly
    10% of items are large runs, so the 90th percentile falls in the gap between
    the two modes and the single order statistic is the fastest large run. A
    wider window reaches into the steep middle of the large runs, which moved
    twice as much as the narrow one between runs (see README.md).
    """
    xs = sorted(xs)
    lo = math.floor((q - QUANTILE_WINDOW) * len(xs))
    hi = max(lo + 1, math.ceil((q + QUANTILE_WINDOW) * len(xs)))
    return statistics.fmean(xs[lo:hi])


def end_to_end(wl, seed: int, seconds: float, import_s: float, min_items: int) -> dict:
    # The check's pool is gone before the timed pool is built, and each
    # rebuild drops the previous pool first, so peak_rss_mb counts one pool.
    digests, mismatches = check_digests(wl)
    builds = []
    for _ in range(SETUP_REPEATS):
        pool = None
        t = time.perf_counter()
        pool = wl.build(seed, wl.pool_blocks)
        builds.append(time.perf_counter() - t)
    probes = Probes()
    latencies, failed, body_s, scaled, scaled_body_s = timed_body(wl, pool, seed, seconds, min_items, probes)
    p90 = windowed_quantile(latencies, 0.90)
    attempted = len(latencies) + len(digests)
    failed += mismatches
    raw = {
        "setup_s": import_s + statistics.median(builds),
        "items_per_s": len(latencies) / body_s,
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p90_ms": p90 * 1e3,
    }
    # Set-up lasts about a second, too short for probes of its own to give a
    # steady speed; the machine's phases mostly outlast a run, so set-up is
    # scaled by the median probe of the whole body.
    setup_factor = probes.factor()
    values = {
        "setup_s": raw["setup_s"] * setup_factor,
        "items_per_s": len(scaled) / scaled_body_s,
        "item_p50_ms": statistics.median(scaled) * 1e3,
        "item_p90_ms": windowed_quantile(scaled, 0.90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
    }
    samples = {
        "raw": raw,
        "speed_factor": {"setup": setup_factor, "body": scaled_body_s / body_s},
        "probe_s": probes.samples,
        "import_s": import_s,
        "setup_builds_s": builds,
        "body_s": body_s,
        "items": len(latencies),
        "items_above_p90": sum(x > p90 for x in latencies),
        "item_latency_ms": [x * 1e3 for x in latencies],
    }
    return {"values": values, "attempted": attempted, "failed": failed, "digests": digests, "samples": samples}


def per_layer(wl, seed: int, seconds: float, spans_path: Path | None) -> dict:
    """Alternate untraced and traced batches of fixed content; at least one of each.

    The spans of the last traced batch are written to ``spans_path`` if given.
    """
    from spans import LAYERS, Recorder

    def batch(rec):
        with rec.span("bench.setup"):
            pool = wl.build(seed, wl.pool_blocks)
        units = itertools.islice(itertools.chain.from_iterable(wl.stream(pool, seed)), wl.trace_units)
        items = failed = 0
        for unit in units:

            def on_item(k, base=items):
                rec.item = base + k

            on_item(0)
            with rec.span("bench.unit"):
                lats, bad = run_unit(wl, unit, on_item)
            items += len(lats)
            failed += bad
        return items, failed

    digests, mismatches = check_digests(wl)
    plain, traced, summaries = [], [], []
    attempted, failed = len(digests), mismatches
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        batch(Recorder())
        plain.append(time.perf_counter() - t)
        rec = Recorder()
        t = time.perf_counter()
        with rec.installed():
            items, bad = batch(rec)
        traced.append(time.perf_counter() - t)
        summaries.append(rec.summary())
        attempted += items
        failed += bad

    timings = {f"{layer}.self_s" for layer in LAYERS} | {"trace.unattributed_s"}
    counts = {k: v for k, v in summaries[0].items() if k not in timings}
    if any({k: v for k, v in s.items() if k not in timings} != counts for s in summaries):
        print("error: per-layer counts differ between identical batches", file=sys.stderr)
        failed += 1
    values = dict(counts)
    for key in timings:
        values[key] = statistics.median(s[key] for s in summaries)
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    if spans_path is not None:
        rec.write(spans_path)
    samples = {"untraced_batch_s": plain, "traced_batch_s": traced, "batches": summaries}
    return {"values": values, "attempted": attempted, "failed": failed, "digests": digests, "samples": samples}


def environment(loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": loadavg,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(
    workload, seed: int, seconds: float, trace: bool, import_s: float, min_items: int | None = None, spans_path=None
) -> dict:
    """Run one workload and return its record; ``import_package`` must have run.

    ``min_items`` defaults to the workload's own.
    """
    loadavg = os.getloadavg()
    if trace:
        part = per_layer(workload, seed, seconds, spans_path)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        extra = []
    else:
        part = end_to_end(workload, seed, seconds, import_s, workload.min_items if min_items is None else min_items)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        extra = [{"name": "error_rate", "unit": "fraction"}]
    values = part["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {
        "result": {"correct": part["failed"] == 0, "attempted": part["attempted"], "failed": part["failed"], "metrics": metrics},
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "check_seeds": list(CHECK_SEEDS),
        "digests": part["digests"],
        "all_metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec + extra},
        "environment": environment(loadavg),
        "samples": part["samples"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s, spans_path=OUT / f"{stem}-spans.jsonl.gz"
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["all_metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        samples = record["samples"]
        raw = " ".join(f"{k}={v:.6g}" for k, v in samples["raw"].items())
        factor = samples["speed_factor"]
        print(f"{args.workload} unscaled: {raw}; speed factor set-up {factor['setup']:.4f}, body {factor['body']:.4f}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
