"""Human-readable text serialization with exact money round trips.

Documents are JSON with a ``schema_version`` and ``kind`` header. Money is
written as a decimal string on the micro-unit grid ("5", "5.25", "0.000001").
The reader accepts exactly the texts the writer writes: it rejects finer
precision outright instead of rounding, as it rejects leading zeros, trailing
fractional zeros, "-0", surrounding whitespace, non-ASCII digits, ids not
spelled the way ``str`` writes them and objects that give a key twice. Parse
errors carry the offending field path, or name the repeated key; input
nested too deeply to read is a parse error too. Serialization is canonical:
parsing a document and re-serializing it reproduces the text byte for byte,
which is what the replay check compares.

Files hold the bytes ``json.dumps(doc, indent=2)`` would write, produced by
this module's own writer, which escapes strings with the C escaper that
``json`` itself uses. The document builders format each id once per
document and build ref texts (``m0:1``) and text-keyed sorts from it.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _escape
from fractions import Fraction
from typing import Any

from .market import (
    AdvertiserSpec,
    EntityId,
    Instance,
    MediatorSpec,
    Money,
    ReportProfile,
    TieKey,
)
from .mechanism import MechanismConfig, MechanismOutcome, Thresholds, run_mechanism

SCHEMA_VERSION = 2


class ParseError(Exception):
    pass


# What money_to_text writes (no leading zeros, no trailing fractional zeros),
# and "-0", which money_from_text rejects on its own.
_MONEY_RE = re.compile(r"(-?)(0|[1-9][0-9]*)(?:\.([0-9]{0,5}[1-9]))?")


def money_to_text(amount: Money) -> str:
    whole, frac = divmod(abs(amount), 1_000_000)
    text = f"{whole}.{frac:06d}".rstrip("0") if frac else str(whole)
    return text if amount >= 0 else "-" + text


def money_from_text(text: str, path: str = "amount") -> Money:
    match = _MONEY_RE.fullmatch(text) if isinstance(text, str) and text != "-0" else None
    if match is None:
        if isinstance(text, str) and re.fullmatch(r"-?[0-9]+(?:\.[0-9]{1,6})?", text):
            # another spelling of a grid amount: name the canonical one
            whole, _, frac = text.lstrip("-").partition(".")
            micro = int(whole + frac.ljust(6, "0"))
            canonical = money_to_text(-micro if text[0] == "-" else micro)
            raise ParseError(f"{path}: {text!r} is not in canonical form, write {canonical!r}")
        raise ParseError(f"{path}: {text!r} is not a money amount on the micro-unit grid (max 6 decimals)")
    sign, whole, frac = match.groups("")
    micro = int(whole + frac.ljust(6, "0"))
    return -micro if sign else micro


def fraction_to_text(fr: Fraction) -> str:
    fr = Fraction(fr)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def fraction_from_text(text: str, path: str = "fraction") -> Fraction:
    if not isinstance(text, str):  # a JSON float would become a binary fraction
        raise ParseError(f"{path}: {text!r} is not a fraction")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: {text!r} is not a fraction") from exc


_KIND_NAMES = {dict: "an object", list: "a list", int: "an integer"}


def _need(doc: dict, key: str, path: str, kind: type | None = None) -> Any:
    """``doc[key]``, which must be present and, if ``kind`` is given, of that JSON type."""
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in doc:
        raise ParseError(f"{path}.{key}: required")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{path}.{key}: expected {_KIND_NAMES[kind]}, got {value!r:.40}")
    return value


def _header(doc: dict, kind: str, path: str) -> None:
    version = _need(doc, "schema_version", path)
    if version != SCHEMA_VERSION:
        raise ParseError(f"{path}.schema_version: got {version!r}, this reader understands {SCHEMA_VERSION}")
    got = _need(doc, "kind", path)
    if got != kind:
        raise ParseError(f"{path}.kind: expected {kind!r}, got {got!r}")


def _entity_from_text(text: Any, path: str) -> EntityId:
    try:
        return EntityId.parse(text)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _money_list(texts: list, path: str) -> tuple[Money, ...]:
    """``money_from_text`` over ``texts``; an element's path ``path[j]`` is
    formatted only when that element fails."""
    try:
        return tuple(map(money_from_text, texts))
    except ParseError:
        for j, text in enumerate(texts):
            money_from_text(text, f"{path}[{j}]")
        raise


def _id_list(texts: list, known: dict[str, EntityId], path: str) -> tuple[EntityId, ...]:
    """The ids spelled by ``texts``, looked up in ``known`` (text -> id); any
    text not found there is parsed, so bad text gets its error at ``path[i]``."""
    try:
        return tuple(map(known.__getitem__, texts))
    except (KeyError, TypeError):
        return tuple(_entity_from_text(text, f"{path}[{i}]") for i, text in enumerate(texts))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """One JSON object as a dict; a key given twice is a ``ParseError``, as
    the writer never writes one."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated object key {key!r}")
            seen.add(key)
    return doc


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("top level: nested too deeply to read") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    return doc


_INF = float("inf")


def _write(value: Any, newline: str, out) -> None:
    """Pass ``value`` to ``out`` in pieces, as ``json.dumps(value, indent=2)``
    writes it when nested at the indentation ``newline`` ends with.

    Covers what JSON holds (dicts with str keys, lists, str, int, float,
    bool, None) plus tuples, which ``json`` writes as lists. One frame per
    nesting level, as the stdlib's pure-Python encoder takes.
    """
    if isinstance(value, str):
        out(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep)
            out(_escape(key))
            out(": ")
            if type(item) is str:
                out(_escape(item))
            else:
                _write(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        if isinstance(value[0], str):
            try:  # a list of strings, such as ids or [user, amount] pairs, in one pass
                out("[" + inner + ("," + inner).join(map(_escape, value)) + newline + "]")
                return
            except TypeError:
                pass
        sep = "[" + inner
        for item in value:
            out(sep)
            _write(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out("NaN")
        elif value == _INF or value == -_INF:
            out("Infinity" if value > 0 else "-Infinity")
        else:
            out(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(doc: dict) -> str:
    """The text ``json.dumps(doc, indent=2) + "\\n"`` writes."""
    parts: list[str] = []
    _write(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


class _Texts(dict):
    """Text of each ``EntityId``, ``UserRef`` and ``SlotRef`` a document
    names, formatted on first use; a ref's text is built from its entity's,
    so each id is formatted once per document."""

    def __missing__(self, key: Any) -> str:
        if isinstance(key, EntityId):
            text = str(key)
        else:
            entity, index = key
            text = f"{self[entity]}:{index}"
        self[key] = text
        return text


# -- instance ----------------------------------------------------------------


def instance_to_doc(instance: Instance) -> dict:
    texts = _Texts()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "mediators": [
            {"id": texts[m.id], "user_costs": [money_to_text(c) for c in m.user_costs]}
            for m in instance.mediators
        ],
        "advertisers": [
            {"id": texts[a.id], "capacity": a.capacity, "value": money_to_text(a.value)}
            for a in instance.advertisers
        ],
        "tie_order": list(map(texts.__getitem__, instance.tie_order)),
    }


def instance_from_doc(doc: dict, path: str = "instance") -> Instance:
    _header(doc, "instance", path)
    known: dict[str, EntityId] = {}
    mediators = []
    for i, m in enumerate(_need(doc, "mediators", path, list)):
        mp = f"{path}.mediators[{i}]"
        text = _need(m, "id", mp)
        ident = known[text] = _entity_from_text(text, f"{mp}.id")
        costs = _money_list(_need(m, "user_costs", mp, list), f"{mp}.user_costs")
        try:
            mediators.append(MediatorSpec(ident, costs))
        except ValueError as exc:
            raise ParseError(f"{mp}: {exc}") from exc
    advertisers = []
    for i, a in enumerate(_need(doc, "advertisers", path, list)):
        ap = f"{path}.advertisers[{i}]"
        text = _need(a, "id", ap)
        ident = known[text] = _entity_from_text(text, f"{ap}.id")
        cap = _need(a, "capacity", ap, int)
        value = money_from_text(_need(a, "value", ap), f"{ap}.value")
        try:
            advertisers.append(AdvertiserSpec(ident, cap, value))
        except ValueError as exc:
            raise ParseError(f"{ap}: {exc}") from exc
    tie_order = _id_list(_need(doc, "tie_order", path, list), known, f"{path}.tie_order")
    try:
        return Instance(tuple(mediators), tuple(advertisers), tie_order)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def instance_to_text(instance: Instance) -> str:
    return _dumps(instance_to_doc(instance))


def instance_from_text(text: str) -> Instance:
    return instance_from_doc(_loads(text))


# -- reports -----------------------------------------------------------------


def _by_text(texts: _Texts, mapping: dict) -> list[tuple[str, Any]]:
    """``mapping``'s items with each key as its text, sorted by that text
    (texts are unique, so values are never compared)."""
    return sorted([(texts[key], value) for key, value in mapping.items()])


def reports_to_doc(reports: ReportProfile) -> dict:
    texts = _Texts()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "reports",
        "mediator_costs": {m: [money_to_text(c) for c in costs] for m, costs in _by_text(texts, reports.mediator_costs)},
        "advertiser_slots": {
            a: {"capacity": cap, "value": money_to_text(v)} for a, (cap, v) in _by_text(texts, reports.advertiser_slots)
        },
    }


def reports_from_doc(doc: dict, path: str = "reports") -> ReportProfile:
    _header(doc, "reports", path)
    mediator_costs = {}
    costs_doc = _need(doc, "mediator_costs", path, dict)
    for key in costs_doc:
        ent = _entity_from_text(key, f"{path}.mediator_costs")
        costs = _need(costs_doc, key, f"{path}.mediator_costs", list)
        mediator_costs[ent] = _money_list(costs, f"{path}.mediator_costs[{key}]")
    advertiser_slots = {}
    for key, slot in _need(doc, "advertiser_slots", path, dict).items():
        ent = _entity_from_text(key, f"{path}.advertiser_slots")
        ap = f"{path}.advertiser_slots[{key}]"
        cap = _need(slot, "capacity", ap, int)
        advertiser_slots[ent] = (cap, money_from_text(_need(slot, "value", ap), f"{ap}.value"))
    try:
        return ReportProfile(mediator_costs, advertiser_slots)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def reports_to_text(reports: ReportProfile) -> str:
    return _dumps(reports_to_doc(reports))


def reports_from_text(text: str) -> ReportProfile:
    return reports_from_doc(_loads(text))


# -- config ------------------------------------------------------------------


def _key_to_doc(key: TieKey) -> dict:
    return {"amount": money_to_text(key.amount), "entity_rank": key.entity_rank, "within_index": key.within_index}


def _key_from_doc(doc: dict, path: str) -> TieKey:
    amount = money_from_text(_need(doc, "amount", path), f"{path}.amount")
    return TieKey(amount, _need(doc, "entity_rank", path, int), _need(doc, "within_index", path, int))


def config_to_doc(config: MechanismConfig) -> dict:
    override = None
    if config.threshold_override is not None:
        user_key, slot_key = config.threshold_override
        override = {"user_key": _key_to_doc(user_key), "slot_key": _key_to_doc(slot_key)}
    return {
        "alpha": fraction_to_text(config.alpha),
        "r": None if config.r is None else fraction_to_text(config.r),
        "seed": config.seed,
        "variant": config.variant,
        "threshold_override": override,
        "forced_arrival_order": None
        if config.forced_arrival_order is None
        else [str(e) for e in config.forced_arrival_order],
        "forced_observation_count": config.forced_observation_count,
    }


def config_from_doc(doc: dict, path: str = "config") -> MechanismConfig:
    alpha = fraction_from_text(_need(doc, "alpha", path), f"{path}.alpha")
    r_text = _need(doc, "r", path)
    r = None if r_text is None else fraction_from_text(r_text, f"{path}.r")
    seed = _need(doc, "seed", path, int)
    variant = _need(doc, "variant", path)
    override_doc = _need(doc, "threshold_override", path)
    override = None
    if override_doc is not None:
        override = (
            _key_from_doc(_need(override_doc, "user_key", f"{path}.threshold_override"), f"{path}.threshold_override.user_key"),
            _key_from_doc(_need(override_doc, "slot_key", f"{path}.threshold_override"), f"{path}.threshold_override.slot_key"),
        )
    forced_order = None
    if _need(doc, "forced_arrival_order", path) is not None:
        forced_order = tuple(
            _entity_from_text(e, f"{path}.forced_arrival_order[{i}]")
            for i, e in enumerate(_need(doc, "forced_arrival_order", path, list))
        )
    forced_count = _need(doc, "forced_observation_count", path)
    if forced_count is not None and not isinstance(forced_count, int):
        raise ParseError(f"{path}.forced_observation_count: expected an integer or null")
    return MechanismConfig(
        alpha=alpha,
        r=r,
        seed=seed,
        threshold_override=override,
        forced_arrival_order=forced_order,
        forced_observation_count=forced_count,
        variant=variant,
    )


# -- outcome -----------------------------------------------------------------


def _thresholds_to_doc(t: Thresholds) -> dict:
    return {
        "dummy": t.is_dummy,
        "user_key": None if t.user_key is None else _key_to_doc(t.user_key),
        "slot_key": None if t.slot_key is None else _key_to_doc(t.slot_key),
        "location": t.location,
        "observed_size": t.observed_size,
        "injected": t.injected,
    }


def outcome_to_doc(outcome: MechanismOutcome) -> dict:
    texts = _Texts()
    return {
        "alpha": fraction_to_text(outcome.alpha),
        "r": fraction_to_text(outcome.r),
        "seed": outcome.seed,
        "variant": outcome.variant,
        "injected_thresholds": outcome.injected_thresholds,
        "forced_arrival": outcome.forced_arrival,
        "forced_observation": outcome.forced_observation,
        "arrival_order": list(map(texts.__getitem__, outcome.arrival_order)),
        "observation_count": outcome.observation_count,
        "observed_mediators": list(map(texts.__getitem__, outcome.observed_mediators)),
        "observed_advertisers": list(map(texts.__getitem__, outcome.observed_advertisers)),
        "thresholds": _thresholds_to_doc(outcome.thresholds),
        "events": [
            {
                "arrival": texts[e.arrival],
                "trades": [
                    {
                        "user": texts[t.user],
                        "slot": texts[t.slot],
                        "charge": money_to_text(t.charge),
                        "payment": money_to_text(t.payment),
                    }
                    for t in e.trades
                ],
                "pay_steps": [[texts[u], money_to_text(x)] for u, x in e.pay_steps],
                "unassigned_assignable_users": e.unassigned_assignable_users,
                "unassigned_assignable_slots": e.unassigned_assignable_slots,
            }
            for e in outcome.events
        ],
        "assignment": [[texts[u], texts[b]] for u, b in outcome.assignment.pairs],
        "charges": {a: money_to_text(x) for a, x in _by_text(texts, outcome.charges)},
        "receipts": {m: money_to_text(x) for m, x in _by_text(texts, outcome.receipts)},
        "final_targets": {texts[u]: money_to_text(x) for u, x in sorted(outcome.final_targets.items())},
        "gft": money_to_text(outcome.gft),
    }


# -- run report ----------------------------------------------------------------


def run_report_to_doc(
    instance: Instance,
    reports: ReportProfile,
    config: MechanismConfig,
    outcome: MechanismOutcome,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_report",
        "instance": instance_to_doc(instance),
        "reports": reports_to_doc(reports),
        "config": config_to_doc(config),
        "outcome": outcome_to_doc(outcome),
    }


def run_report_to_text(instance, reports, config, outcome) -> str:
    return _dumps(run_report_to_doc(instance, reports, config, outcome))


def run_report_from_text(text: str) -> dict:
    doc = _loads(text)
    _header(doc, "run_report", "run_report")
    for key in ("instance", "reports", "config", "outcome"):
        _need(doc, key, "run_report")
    return doc


def _compact(doc: Any) -> str:
    return json.dumps(doc, separators=(",", ":"))


def replay_run_report(doc: dict) -> tuple[bool, str]:
    """Re-run the embedded configuration and compare outcomes byte for byte.

    The verdict compares compact encodings, which the C encoder writes: they
    are equal exactly when the ``indent=2`` texts are, since both spell the
    same token stream and the indentation follows from its structure. The
    indented texts are built only on a mismatch, to name the first differing
    line.
    """
    instance = instance_from_doc(doc["instance"])
    reports = reports_from_doc(doc["reports"])
    config = config_from_doc(doc["config"])
    fresh = run_mechanism(instance, reports, config)
    fresh_doc = outcome_to_doc(fresh)
    if _compact(doc["outcome"]) == _compact(fresh_doc):
        return True, "replay matches recorded outcome exactly"
    original_text = _dumps(doc["outcome"])
    fresh_text = _dumps(fresh_doc)
    for lineno, (a, b) in enumerate(zip(original_text.splitlines(), fresh_text.splitlines()), start=1):
        if a != b:
            return False, f"replay diverges at outcome line {lineno}: recorded {a.strip()!r} vs fresh {b.strip()!r}"
    return False, "replay diverges: outcome lengths differ"
