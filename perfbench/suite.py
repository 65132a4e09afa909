#!/usr/bin/env python3
"""Run every workload, each in its own process, one after another.

    python3 perfbench/suite.py --label baseline            # end-to-end metrics
    python3 perfbench/suite.py --label baseline --trace    # and the per-layer run
    python3 perfbench/suite.py --record-digests            # re-record digests.json

Prints every metric by name with its unit and writes
``perfbench/out/BENCH_<label>.json``: the environment, and for every workload
the result line and the full record of run.py (raw samples and digests).
Compare two labels measured on the same machine for a before/after claim.
Exit status is 1 if any workload failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def record_digests() -> None:
    run.import_package()
    from workloads import WORKLOADS

    digests = {name: {str(s): run.compute_digest(wl, s) for s in run.CHECK_SEEDS} for name, wl in WORKLOADS.items()}
    run.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {run.DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]  # the same run length for every label, so records compare
    bench = {"label": args.label, "seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            stem = f"{w['name']}-seed{args.seed}-trace{trace}"
            record = json.loads((run.OUT / f"{stem}.json").read_text())
            bench["environment"] = record["environment"]
            bench["workloads"][stem] = record
    path = run.OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
