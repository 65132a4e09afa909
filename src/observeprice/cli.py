"""Command line front end.

Subcommands: generate an instance, run the mechanism and write a replayable
report, verify economic properties over seeded sweeps, run the ratio or
event-frequency experiments to CSV, and replay a recorded report. Exit code 0
means success, 1 means a verification or replay failure, 2 is argparse usage
error. OBSERVEPRICE_SEED sets the default seed when --seed is not given; it
is read only by the subcommands that take --seed, and a value that is not
an integer exits 1.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from . import analysis, generate, serialize, verify
from .mechanism import VARIANTS, MechanismConfig, run_mechanism, truthful_run


def _default_seed() -> int:
    """OBSERVEPRICE_SEED, 0 when unset; a ``ValueError`` naming the variable
    when it is not an integer."""
    text = os.environ.get("OBSERVEPRICE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"OBSERVEPRICE_SEED: {text!r} is not an integer") from None


def _fraction(text: str) -> Fraction:
    try:
        return serialize.bounded_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _alpha(text: str) -> Fraction:
    """A fraction in (0, 1]. ``generate`` refuses any other alpha here, where
    argparse names the option: no instance meets 1/tau <= alpha <= 1 for it,
    so every draw would fail."""
    alpha = _fraction(text)
    if not 0 < alpha <= 1:
        raise argparse.ArgumentTypeError(f"{text!r}: alpha must be in (0, 1]")
    return alpha


def _money_dist(text: str, option: str) -> generate.DistSpec:
    """The ``--cost``/``--value`` spec ``text``. It is read when the command
    runs, not by argparse, so that a bad amount exits 1 with an ``error:``
    line like any other amount the reader rejects."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "constant" and len(parts) == 2:
            return generate.constant(serialize.money_from_text(parts[1], option))
        if kind == "uniform" and len(parts) == 3:
            return generate.uniform(serialize.money_from_text(parts[1], option), serialize.money_from_text(parts[2], option))
        if kind == "lognormal" and len(parts) in (3, 4):
            shift = serialize.money_from_text(parts[3], option) if len(parts) == 4 else 0
            return generate.lognormal(float(parts[1]), float(parts[2]), shift)
    except ValueError as exc:
        raise serialize.ParseError(f"{option}: {exc}") from exc
    raise serialize.ParseError(
        f"{option}: {text!r}: expected constant:AMOUNT, uniform:LOW:HIGH, or lognormal:MU:SIGMA[:SHIFT]"
    )


def _count(text: str) -> int:
    """A non-negative integer. A negative count is refused here, where
    argparse names the option, not after the generator's futile draws."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r}: a count cannot be negative")
    return n


def _count_dist(text: str) -> generate.DistSpec:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "constant" and len(parts) == 2:
            return generate.constant(_count(parts[1]))
        if kind == "uniform" and len(parts) == 3:
            return generate.uniform(_count(parts[1]), _count(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"{text!r}: expected constant:N or uniform:LOW:HIGH with integer counts")


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_generate(args: argparse.Namespace) -> int:
    config = generate.GeneratorConfig(
        n_mediators=args.mediators,
        n_advertisers=args.advertisers,
        users_per_mediator=args.users,
        capacity=args.capacity,
        cost=_money_dist(args.cost, "--cost"),
        value=_money_dist(args.value, "--value"),
        alpha=args.alpha,
        seed=args.seed,
    )
    try:
        instance = generate.generate_instance(config)
    except generate.GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    _write(args.output, serialize.instance_to_text(instance))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instance = serialize.instance_from_text(_read(args.instance))
    config = MechanismConfig(alpha=args.alpha, r=args.r, seed=args.seed, variant=args.variant)
    if args.reports is None:
        reports, outcome = None, truthful_run(instance, config)
    else:  # the run checks that they cover the instance
        reports = serialize.reports_from_text(_read(args.reports))
        outcome = run_mechanism(instance, reports, config)
    _write(args.output, serialize.run_report_to_text(instance, reports, config, outcome))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    if args.deviations < 0:
        raise ValueError(f"--deviations must be >= 0, got {args.deviations}")
    instance = serialize.instance_from_text(_read(args.instance))
    configs = [
        MechanismConfig(alpha=args.alpha, r=args.r, seed=args.seed + i, variant=args.engine_variant)
        for i in range(args.runs)
    ]
    sweep, _ = verify.truthful_sweep([(instance, c) for c in configs])
    print(f"truthful sweep: {sweep.runs} runs, {sweep.trades} trades, {len(sweep.violations)} violations")
    for line in sweep.violations[:20]:
        print(f"  {line}")
    ok = sweep.ok
    if args.deviations > 0:
        rng = random.Random(args.seed)
        base = MechanismConfig(alpha=args.alpha, r=args.r, seed=args.seed, variant=args.engine_variant)
        inc = verify.incentive_sweep(
            [(instance, base)],
            misreports_per_role=args.deviations,
            seeds_per_case=min(args.runs, 16),
            rng=rng,
        )
        profitable = sum(v.startswith("profitable deviation") for v in inc.violations)
        print(f"incentive sweep: {inc.deviation_pairs} deviation comparisons, {profitable} profitable deviations")
        for line in inc.violations[:20]:
            print(f"  {line}")
        ok = ok and inc.ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    rows = []
    if args.kind == "ratio":
        points = [(alpha, generate.matched_family(alpha, seed=args.seed)) for alpha in args.alphas]
        results = analysis.competitive_ratio_experiment(points, n_seeds=args.seeds, base_seed=args.seed)
        header = [
            "alpha", "seeds", "mean_ratio", "std_error", "q10", "q50", "q90",
            "bound_raw", "bound_clamped", "mean_vs_reachable",
        ]
        for point in results:
            q10, q50, q90 = point.quantiles
            rows.append(
                [
                    serialize.fraction_to_text(point.alpha), point.seeds,
                    f"{point.mean:.6f}", f"{point.std_error:.6f}",
                    f"{q10:.6f}", f"{q50:.6f}", f"{q90:.6f}",
                    f"{point.bound_raw:.6f}", f"{point.bound_clamped:.6f}",
                    f"{point.mean_vs_reachable:.6f}",
                ]
            )
    else:
        header = ["alpha", "seeds", "event_rate", "wilson_low", "wilson_high", "bound_raw", "bound_clamped", "meets_bound"]
        for alpha in args.alphas:
            instance = generate.matched_family(alpha, seed=args.seed)
            result = analysis.event_frequency_experiment(instance, alpha, n_seeds=args.seeds, base_seed=args.seed)
            low, high = result.event_wilson
            rows.append(
                [
                    serialize.fraction_to_text(alpha), result.seeds,
                    f"{result.event_frequency:.6f}", f"{low:.6f}", f"{high:.6f}",
                    f"{result.bound_raw:.6f}", f"{result.bound_clamped:.6f}", str(result.meets_bound),
                ]
            )
    out = sys.stdout if args.output in (None, "-") else open(args.output, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    doc = serialize.run_report_from_text(_read(args.report))
    ok, message = serialize.replay_run_report(doc)
    print(message)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="observeprice")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a market instance and write it as JSON")
    p.add_argument("--mediators", type=_count, required=True)
    p.add_argument("--advertisers", type=_count, required=True)
    p.add_argument("--users", type=_count_dist, default=generate.constant(3), help="users per mediator (count spec)")
    p.add_argument("--capacity", type=_count_dist, default=generate.constant(2))
    p.add_argument("--cost", default="uniform:0:1", help="user cost (money spec)")
    p.add_argument("--value", default="uniform:0:2", help="slot value (money spec)")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--seed", type=int, default=None, help="default: OBSERVEPRICE_SEED, else 0")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the mechanism once and write a replayable report")
    p.add_argument("--instance", required=True)
    p.add_argument("--reports", default=None, help="report profile JSON (defaults to truthful)")
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--r", type=_fraction, default=None)
    p.add_argument("--seed", type=int, default=None, help="default: OBSERVEPRICE_SEED, else 0")
    p.add_argument("--variant", choices=VARIANTS, default="standard")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="check economic properties over seeded sweeps")
    p.add_argument("--instance", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--r", type=_fraction, default=None)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--deviations", type=int, default=0, help="misreports per role for the incentive sweep")
    p.add_argument("--seed", type=int, default=None, help="default: OBSERVEPRICE_SEED, else 0")
    p.add_argument("--engine-variant", choices=VARIANTS, default="standard")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run ratio or event-frequency experiments to CSV")
    p.add_argument("kind", choices=("ratio", "events"))
    p.add_argument("--alphas", type=lambda s: [_fraction(x) for x in s.split(",")], required=True)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=None, help="default: OBSERVEPRICE_SEED, else 0")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("replay", help="re-run a recorded report and compare outcomes")
    p.add_argument("report")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:  # replay takes no seed and never reads the variable
            args.seed = _default_seed()
        return args.func(args)
    except (serialize.ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
