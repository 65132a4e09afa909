"""Span recorder that wraps the package's public functions from outside.

Nothing in ``src/`` knows about tracing. ``Recorder.installed()`` replaces
each listed function at runtime, through every module attribute (and every
``verify.RUN_CHECKS`` entry) that is bound to it, with a wrapper that records
one span per call, and puts the originals back on exit. Spans live in memory
as ``(name, parent, item, start, end)`` tuples; the index in ``spans`` is the
span id and ``parent`` is the id of the enclosing span, or -1. ``item`` is
the id of the item running when the span started (-1 during set-up).

A layer's self time is its span's duration minus the durations of its direct
child spans. Counts come from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from time import perf_counter

# Layer name -> (module, attribute path) of each public function it wraps.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "generate.instance": (("generate", "generate_instance"),),
    "market.validate": (("market", "validate_instance"),),
    "market.view": (("market", "report_view"), ("market", "true_view")),
    "canonical.assignment": (("canonical", "canonical_assignment"),),
    "mechanism.run": (("mechanism", "run_mechanism"),),
    "mechanism.thresholds": (("mechanism", "compute_thresholds"),),
    "mechanism.serve": (("mechanism", "MechanismState.process_arrival"),),
    "verify.trajectory": (("verify", "utility_trajectory"),),
    "verify.checks": (
        ("verify", "check_budget_balance"),
        ("verify", "check_surplus_invariant"),
        ("verify", "check_online_legality"),
        ("verify", "check_pay_targets_monotone"),
        ("verify", "check_observed_never_trade"),
        ("verify", "check_continuous_ir"),
    ),
    "verify.misreports": (("verify", "generate_misreports"),),
    "analysis.diagnostics": (("analysis", "compute_diagnostic_sets"),),
    "serialize.write": (("serialize", "run_report_to_text"),),
    "serialize.read": (("serialize", "run_report_from_text"),),
    "serialize.replay": (("serialize", "replay_run_report"),),
}

# Spans the harness itself opens around set-up and each timed unit.
HARNESS_PREFIX = "bench."


def _module(name: str):
    return sys.modules[f"observeprice.{name}"]


def _resolve(module: str, path: str):
    obj = _module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(fn):
    """Every (namespace, key, setter) in the package bound to ``fn``: module
    attributes and ``verify.RUN_CHECKS`` entries."""
    spaces = [m for n, m in sys.modules.items() if n == "observeprice" or n.startswith("observeprice.")]
    found = []
    for mod in spaces:
        for key, value in vars(mod).items():
            if value is fn:
                found.append((mod, key, setattr))
    checks = _module("verify").RUN_CHECKS
    for key, value in checks.items():
        if value is fn:
            found.append((checks, key, dict.__setitem__))
    return found


@contextlib.contextmanager
def patched(fn, make_wrapper, method_of=None):
    """Replace every binding of ``fn`` with ``make_wrapper(fn)`` until exit.

    A method is patched on its class, ``method_of``, instead.
    """
    wrapper = make_wrapper(fn)
    if method_of is not None:
        targets = [(method_of, fn.__name__, setattr)]
    else:
        targets = _bindings(fn)
    for space, key, put in targets:
        put(space, key, wrapper)
    try:
        yield wrapper
    finally:
        for space, key, put in targets:
            put(space, key, fn)


class Recorder:
    """In-memory spans plus the exact counters read at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1
        self.counters: dict[str, int] = {}
        self._validated: dict[int, object] = {}  # id -> instance, kept alive so ids stay unique

    # -- recording ---------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _observe(self, layer: str, args, kwargs, result) -> None:
        if layer == "mechanism.serve":
            self._bump("trades", len(result.trades))
            self._bump("pay_steps", len(result.pay_steps))
            self._bump("snapshot_rows", len(getattr(result, "targets", ())))
        elif layer == "mechanism.thresholds":
            self._bump("dummy_thresholds", result.is_dummy)
        elif layer == "market.validate":
            instance = args[0] if args else kwargs["instance"]
            self._validated.setdefault(id(instance), instance)
        elif layer == "verify.misreports":
            self._bump("misreport_cases", len(result))
        elif layer == "serialize.write":
            self._bump("report_bytes", len(result.encode("utf-8")))

    def _wrapper(self, layer: str):
        span, observe = self.span, self._observe

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with span(layer):
                    result = fn(*args, **kwargs)
                observe(layer, args, kwargs, result)
                return result

            return traced

        return make

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block: a layer call, or the harness's set-up or unit."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        item = self.item
        self.stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, parent, item, start, end)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's functions for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for layer, targets in LAYERS.items():
                for module, path in targets:
                    fn = _resolve(module, path)
                    owner = _resolve(module, path.rsplit(".", 1)[0]) if "." in path else None
                    stack.enter_context(patched(fn, self._wrapper(layer), method_of=owner))
            yield self

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls and self_s per layer, the exact counts, and unattributed time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _item, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        unattributed = 0.0
        views_in_runs = validate_in_generate = 0
        for sid, (name, parent, _item, start, end) in enumerate(spans):
            own = end - start - child[sid]
            if name.startswith(HARNESS_PREFIX):
                unattributed += own
                continue
            calls[name] += 1
            self_s[name] += own
            if name == "market.view" and self._has_ancestor(sid, "mechanism.run"):
                views_in_runs += 1
            if name == "market.validate" and parent >= 0 and spans[parent][0] == "generate.instance":
                validate_in_generate += 1

        c = self.counters
        pay, rows = c.get("pay_steps", 0), c.get("snapshot_rows", 0)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update(
            {
                "mechanism.serve.trades": c.get("trades", 0),
                "mechanism.serve.pay_steps": pay,
                "mechanism.serve.snapshot_rows": rows,
                "mechanism.serve.useful_row_share": _ratio(pay, pay + rows),
                "mechanism.thresholds.dummy_share": _ratio(c.get("dummy_thresholds", 0), calls["mechanism.thresholds"]),
                "market.validate.per_instance": _ratio(calls["market.validate"], len(self._validated)),
                "market.view.per_run": _ratio(views_in_runs, calls["mechanism.run"]),
                "generate.instance.draws_per_instance": _ratio(validate_in_generate, calls["generate.instance"]),
                "verify.misreports.cases": c.get("misreport_cases", 0),
                "serialize.report_bytes": c.get("report_bytes", 0),
                "trace.unattributed_s": unattributed,
            }
        )
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, parent, item, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
