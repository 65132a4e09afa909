"""Human-readable text serialization with exact money round trips.

Documents are JSON with a ``schema_version`` and ``kind`` header. Money is
written as a decimal string on the micro-unit grid ("5", "5.25", "0.000001").
The reader accepts exactly the texts the writer writes: it rejects finer
precision outright instead of rounding, as it rejects leading zeros, trailing
fractional zeros, "-0", surrounding whitespace, non-ASCII digits, fractions
and ids not spelled the way ``fraction_to_text`` and ``str`` write them and
objects that give a key twice. Parse
errors carry the offending field path, or name the repeated key; input
nested too deeply to read is a parse error too. Serialization is canonical:
parsing a document and re-serializing it reproduces the text byte for byte,
which is what the replay check compares.

Files hold the bytes ``json.dumps(doc, separators=(",", ":")) + "\\n"``
writes, one line produced by the stdlib's C encoder, built once without the
cycle check (every document is a tree); ``python -m json.tool`` prints one
indented. The document builders format each id and each amount once per
document (an amount by slicing its digits), build ref texts (``m0:1``) and
text-keyed sorts from them, and a run report shares one such memo across
its parts.

The instance reader takes its mediators and its advertisers whole: C-level
maps pull out every id, capacity and amount text of the part, and the texts
are checked on joined text, by the grammar ``money_from_text`` and
``EntityId.parse`` accept, and parsed together. A part is walked element by
element only when that read fails; the walk names the first fault with its
field path, and one that finds none returns the part. Every other part, the
reported costs and slots included, is only walked.

A run report (schema 6) writes nothing its instance or its arrival order
already says. Its ``misreports`` part lists only the entities whose report
departs from the instance's truth, in the shapes and the text-keyed order of
a reports document; the reader refuses an entry equal to the truth, so the
writer's form is the only one read. Replay reads the departures' ids from
the instance's id map, and re-runs a report with no departures as a
truthful run, with no report profile built. Any other report runs on the
truthful profile with its departures put over it.

An outcome document holds only what the run decided, nothing the report's
config holds and nothing that folds from the arrival prefix or the events
(the observed split, the executed pairs and the ledgers), or that the checks
recount from the run's market (the idle users and slots). Its events are
the run's decisions, one per arrival that traded, in arrival order: an
arrival's id fixes its place in ``arrival_order``, and an arrival that
traded nothing changed nothing.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any, Callable

from .market import (
    AdvertiserSpec,
    EntityId,
    Instance,
    MediatorSpec,
    Money,
    ReportProfile,
    RunInputError,
    TieKey,
)
from .mechanism import VARIANTS, MechanismConfig, MechanismOutcome, run_mechanism, truthful_run

SCHEMA_VERSION = 6


class ParseError(Exception):
    pass


# What money_to_text writes (no leading zeros, no trailing fractional zeros),
# and "-0", which money_from_text rejects on its own.
_NATURAL, _FRACTION = "0|[1-9][0-9]*", "[0-9]{0,5}[1-9]"
_MONEY_RE = re.compile(rf"(-?)({_NATURAL})(?:\.({_FRACTION}))?")


def money_to_text(amount: Money) -> str:
    """The amount in whole units: its digits cut six from the right, the
    fraction without trailing zeros, or no fraction."""
    text = str(amount)
    if amount >= 1_000_000:
        whole, frac = text[:-6], text[-6:].rstrip("0")
    elif amount >= 0:
        whole, frac = "0", text.rjust(6, "0").rstrip("0")
    else:
        return "-" + money_to_text(-amount)
    return f"{whole}.{frac}" if frac else whole


def _micro(whole: str, frac: str, text: str, path: str) -> int:
    try:
        return int(whole + frac.ljust(6, "0"))
    except ValueError as exc:  # more digits than int() reads, so more than money_to_text writes
        raise ParseError(f"{path}: {text:.20}... ({len(text)} characters) is too long for a money amount") from exc


def money_from_text(text: str, path: str = "amount") -> Money:
    match = _MONEY_RE.fullmatch(text) if isinstance(text, str) and text != "-0" else None
    if match is None:
        if isinstance(text, str) and re.fullmatch(r"-?[0-9]+(?:\.[0-9]{1,6})?", text):
            # another spelling of a grid amount: name the canonical one
            whole, _, frac = text.lstrip("-").partition(".")
            micro = _micro(whole, frac, text, path)
            canonical = money_to_text(-micro if text[0] == "-" else micro)
            raise ParseError(f"{path}: {text!r} is not in canonical form, write {canonical!r}")
        raise ParseError(f"{path}: {text!r} is not a money amount on the micro-unit grid (max 6 decimals)")
    sign, whole, frac = match.groups("")
    micro = _micro(whole, frac, text, path)
    return -micro if sign else micro


def fraction_to_text(fr: Fraction) -> str:
    fr = Fraction(fr)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


# The most digits a fraction text may spell, its exponent counted: str()
# writes no longer int by default, and Fraction() builds 10**exponent before
# anything could refuse it.
_FRACTION_DIGITS = 4300


def bounded_fraction(text: str) -> Fraction:
    """The fraction ``text`` spells, or a ``ValueError`` that says why not. A
    text whose numerator or denominator could need more than
    ``_FRACTION_DIGITS`` digits is refused before ``Fraction`` builds it."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)", text[-_FRACTION_DIGITS:])
    if len(text) + (abs(int(exponent[1])) if exponent else 0) > _FRACTION_DIGITS:
        raise ValueError(f"{text[:40]!r} spells a fraction of more than {_FRACTION_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{text!r:.40} is not a fraction") from exc


def fraction_from_text(text: str, path: str = "fraction") -> Fraction:
    if not isinstance(text, str):  # a JSON float would become a binary fraction
        raise ParseError(f"{path}: {text!r:.40} is not a fraction")
    try:
        fr = bounded_fraction(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    canonical = fraction_to_text(fr)
    if canonical != text:
        raise ParseError(f"{path}: {text!r:.40} is not in canonical form, write {canonical!r:.40}")
    return fr


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
        raise ParseError(f"{path}.schema_version: got {version!r:.40}, this reader understands {SCHEMA_VERSION}")
    got = _need(doc, "kind", path)
    if got != kind:
        raise ParseError(f"{path}.kind: expected {kind!r}, got {got!r:.40}")


def _entity_from_text(text: Any, path: str) -> EntityId:
    try:
        return EntityId.parse(text)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _money_list(texts: list, path: str) -> tuple[Money, ...]:
    """The amounts ``texts`` spell, an element's fault named at ``path[j]``."""
    return tuple(money_from_text(text, f"{path}[{j}]") for j, text in enumerate(texts))


def _id_list(texts: list, known: dict[str, EntityId], path: str) -> tuple[EntityId, ...]:
    """The ids spelled by ``texts``, looked up in ``known`` (text -> id); any
    text not found there is parsed, so bad text gets its error at ``path[i]``."""
    try:
        return tuple(map(known.__getitem__, texts))
    except (KeyError, TypeError):
        return tuple(_entity_from_text(text, f"{path}[{i}]") for i, text in enumerate(texts))


# -- whole-part reads ------------------------------------------------------------
#
# An instance part read whole falls back to its walk on any failure, so a
# whole read that is too strict costs time, never a wrong answer or another
# message.

_ID, _USER_COSTS, _CAPACITY, _VALUE = map(itemgetter, ("id", "user_costs", "capacity", "value"))
_TAIL = itemgetter(slice(1, None))


# Comma-joined texts of one kind, each as the writer writes it: amounts >= 0
# as _MONEY_RE reads them, and ids, a kind's letter and a natural, as
# EntityId.parse reads them. No group captures, which makes the match about
# a quarter faster.
_AMOUNT = rf"(?:{_NATURAL})(?:\.{_FRACTION})?"
_WHOLE_RES = {
    kind: re.compile(f"{text}(?:,{text})*")
    for kind, text in (("amount", _AMOUNT), ("mediator", f"m(?:{_NATURAL})"), ("advertiser", f"a(?:{_NATURAL})"))
}


def _check_whole(texts: list, kind: str) -> None:
    """A ``ValueError`` or ``TypeError`` unless each of ``texts`` is a
    ``kind`` text the writer writes: one match over the texts joined by
    commas, whose comma count shows that no text holds a comma itself."""
    joined = ",".join(texts)
    if texts and (joined.count(",") != len(texts) - 1 or not _WHOLE_RES[kind].fullmatch(joined)):
        raise ValueError(f"not {kind} texts")


def _part(whole: Callable, walk: Callable, part: list, known: dict, path: str) -> Any:
    """``whole(part, known)``, or, when that fails, ``walk(part, known, path)``."""
    try:
        return whole(part, known)
    except (LookupError, TypeError, ValueError):
        return walk(part, known, path)


def _parse_amounts(texts: list) -> list[Money]:
    """The amounts >= 0 that ``texts`` spell, parsed whole: a ``ValueError``
    or ``TypeError`` unless every text is one ``money_to_text`` writes."""
    _check_whole(texts, "amount")
    return [int(whole + frac.ljust(6, "0")) for whole, _, frac in map(str.partition, texts, repeat("."))]


def _cut(amounts: list[Money], lists: list) -> list[tuple[Money, ...]]:
    """``amounts``, read from ``lists`` flattened, cut back into one tuple per list."""
    flat = iter(amounts)
    return list(map(tuple, map(islice, repeat(flat), map(len, lists))))


def _flat(lists: list) -> list:
    """The elements of ``lists``, each of which must be a list, in order."""
    if set(map(type, lists)) - {list}:
        raise TypeError("not lists")
    return list(chain.from_iterable(lists))


def _capacities(objects: list) -> list[int]:
    """Every object's ``capacity``, each of which must be an int, not a bool."""
    capacities = list(map(_CAPACITY, objects))
    if set(map(type, capacities)) - {int}:
        raise TypeError("capacities not integers")
    return capacities


def _parse_ids(texts: list, kind: str) -> list[EntityId]:
    """The ids of ``kind`` that ``texts`` spell, parsed whole: a
    ``ValueError`` or ``TypeError`` unless each is the text ``str`` writes."""
    _check_whole(texts, kind)
    return list(map(tuple.__new__, repeat(EntityId), zip(repeat(kind), map(int, map(_TAIL, texts)))))


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
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("top level: nested too deeply to read") from exc
    except ValueError as exc:  # not a JSONDecodeError: an integer longer than int() reads
        raise ParseError("top level: an integer has too many digits to read") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    return doc


# Every document encoded is a tree (built here or read by json.loads), so
# the cycle check would find nothing.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _text(doc: dict) -> str:
    """The one encoding of a document: compact JSON from the C encoder."""
    return _ENCODER.encode(doc) + "\n"


class _Texts(dict):
    """Text of each Money amount, ``EntityId``, ``UserRef`` and ``SlotRef`` a
    document names, formatted on first use; a ref's text is built from its
    entity's, so each amount and each id is formatted once per document."""

    def __missing__(self, key: Any) -> str:
        if not isinstance(key, tuple):
            text = money_to_text(key)
        elif isinstance(key, EntityId):
            text = str(key)
        else:
            entity, index = key
            text = f"{self[entity]}:{index}"
        self[key] = text
        return text


# -- instance ----------------------------------------------------------------


def _instance_doc(instance: Instance, texts: _Texts) -> dict:
    text = texts.__getitem__
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "mediators": [{"id": text(m.id), "user_costs": list(map(text, m.user_costs))} for m in instance.mediators],
        "advertisers": [
            {"id": text(a.id), "capacity": a.capacity, "value": text(a.value)} for a in instance.advertisers
        ],
        "tie_order": list(map(text, instance.tie_order)),
    }


def instance_to_doc(instance: Instance) -> dict:
    return _instance_doc(instance, _Texts())


def instance_from_doc(doc: dict, path: str = "instance") -> Instance:
    return _read_instance(doc, {}, path)


def _read_instance(doc: dict, known: dict[str, EntityId], path: str) -> Instance:
    """The instance ``doc`` holds; its ids go into ``known`` (text -> id)."""
    _header(doc, "instance", path)
    mediators = _part(_mediators_whole, _mediators_walk, _need(doc, "mediators", path, list), known, path)
    advertisers = _part(_advertisers_whole, _advertisers_walk, _need(doc, "advertisers", path, list), known, path)
    tie_order = _id_list(_need(doc, "tie_order", path, list), known, f"{path}.tie_order")
    try:
        return Instance(mediators, advertisers, tie_order)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _mediators_whole(part: list, known: dict) -> tuple[MediatorSpec, ...]:
    texts = list(map(_ID, part))
    ids = _parse_ids(texts, "mediator")
    lists = list(map(_USER_COSTS, part))
    mediators = tuple(map(MediatorSpec, ids, _cut(_parse_amounts(_flat(lists)), lists)))
    known.update(zip(texts, ids))
    return mediators


def _mediators_walk(part: list, known: dict, path: str) -> tuple[MediatorSpec, ...]:
    mediators = []
    for i, m in enumerate(part):
        mp = f"{path}.mediators[{i}]"
        text = _need(m, "id", mp)
        ident = known[text] = _entity_from_text(text, f"{mp}.id")
        costs = _money_list(_need(m, "user_costs", mp, list), f"{mp}.user_costs")
        try:
            mediators.append(MediatorSpec(ident, costs))
        except ValueError as exc:
            raise ParseError(f"{mp}: {exc}") from exc
    return tuple(mediators)


def _advertisers_whole(part: list, known: dict) -> tuple[AdvertiserSpec, ...]:
    texts = list(map(_ID, part))
    ids = _parse_ids(texts, "advertiser")
    advertisers = tuple(map(AdvertiserSpec, ids, _capacities(part), _parse_amounts(list(map(_VALUE, part)))))
    known.update(zip(texts, ids))
    return advertisers


def _advertisers_walk(part: list, known: dict, path: str) -> tuple[AdvertiserSpec, ...]:
    advertisers = []
    for i, a in enumerate(part):
        ap = f"{path}.advertisers[{i}]"
        text = _need(a, "id", ap)
        ident = known[text] = _entity_from_text(text, f"{ap}.id")
        cap = _need(a, "capacity", ap, int)
        value = money_from_text(_need(a, "value", ap), f"{ap}.value")
        try:
            advertisers.append(AdvertiserSpec(ident, cap, value))
        except ValueError as exc:
            raise ParseError(f"{ap}: {exc}") from exc
    return tuple(advertisers)


def instance_to_text(instance: Instance) -> str:
    return _text(instance_to_doc(instance))


def instance_from_text(text: str) -> Instance:
    return instance_from_doc(_loads(text))


# -- reports -----------------------------------------------------------------


def _by_text(texts: _Texts, mapping: dict) -> list[tuple[str, Any]]:
    """``mapping``'s items with each key as its text, sorted by that text
    (texts are unique, so values are never compared)."""
    return sorted([(texts[key], value) for key, value in mapping.items()])


def _reports_parts_doc(
    mediator_costs: dict[EntityId, tuple[Money, ...]], advertiser_slots: dict[EntityId, tuple[int, Money]], texts: _Texts
) -> dict:
    """The two parts of a reports document, each keyed by id text in text order."""
    text = texts.__getitem__
    return {
        "mediator_costs": {m: list(map(text, costs)) for m, costs in _by_text(texts, mediator_costs)},
        "advertiser_slots": {a: {"capacity": cap, "value": text(v)} for a, (cap, v) in _by_text(texts, advertiser_slots)},
    }


def reports_to_doc(reports: ReportProfile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "reports",
        **_reports_parts_doc(reports.mediator_costs, reports.advertiser_slots, _Texts()),
    }


def reports_from_doc(doc: dict, path: str = "reports") -> ReportProfile:
    _header(doc, "reports", path)
    try:
        return ReportProfile(*_read_report_parts(doc, None, path))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_report_parts(
    doc: dict, known: dict[str, EntityId] | None, path: str
) -> tuple[dict[EntityId, tuple[Money, ...]], dict[EntityId, tuple[int, Money]]]:
    """The reported costs and slots ``doc`` holds, their ids, given ``known``, looked up there."""
    costs = _need(doc, "mediator_costs", path, dict)
    slots = _need(doc, "advertiser_slots", path, dict)
    return _costs_walk(costs, known, f"{path}.mediator_costs"), _slots_walk(slots, known, f"{path}.advertiser_slots")


def _report_id(key: str, path: str, known: dict[str, EntityId] | None) -> EntityId:
    """The id a reports key spells: parsed, or, given ``known`` (the
    instance's ids by text), looked up there, where a key it lacks is either
    badly spelled or an unknown id."""
    if known is None:
        return _entity_from_text(key, path)
    ident = known.get(key)
    if ident is None:
        _entity_from_text(key, path)
        raise ParseError(f"{path}: unknown entity id {key!r}")
    return ident


def _costs_walk(part: dict, known: dict | None, path: str) -> dict[EntityId, tuple[Money, ...]]:
    mediator_costs = {}
    for key in part:
        ent = _report_id(key, path, known)
        mediator_costs[ent] = _money_list(_need(part, key, path, list), f"{path}[{key}]")
    return mediator_costs


def _slots_walk(part: dict, known: dict | None, path: str) -> dict[EntityId, tuple[int, Money]]:
    advertiser_slots = {}
    for key, slot in part.items():
        ent = _report_id(key, path, known)
        ap = f"{path}[{key}]"
        cap = _need(slot, "capacity", ap, int)
        advertiser_slots[ent] = (cap, money_from_text(_need(slot, "value", ap), f"{ap}.value"))
    return advertiser_slots


def reports_to_text(reports: ReportProfile) -> str:
    return _text(reports_to_doc(reports))


def reports_from_text(text: str) -> ReportProfile:
    return reports_from_doc(_loads(text))


# -- config ------------------------------------------------------------------


def _key_to_doc(key: TieKey, texts: _Texts) -> dict:
    return {"amount": texts[key.amount], "entity_rank": key.entity_rank, "within_index": key.within_index}


def _key_from_doc(doc: dict, path: str) -> TieKey:
    amount = money_from_text(_need(doc, "amount", path), f"{path}.amount")
    return TieKey(amount, _need(doc, "entity_rank", path, int), _need(doc, "within_index", path, int))


def config_to_doc(config: MechanismConfig) -> dict:
    override = None
    if config.threshold_override is not None:
        user_key, slot_key = config.threshold_override
        texts = _Texts()
        override = {"user_key": _key_to_doc(user_key, texts), "slot_key": _key_to_doc(slot_key, texts)}
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
    if variant not in VARIANTS:
        raise ParseError(f"{path}.variant: {variant!r:.40} is not one of {', '.join(VARIANTS)}")
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
    if forced_count is not None and (not isinstance(forced_count, int) or isinstance(forced_count, bool)):
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


def _outcome_doc(outcome: MechanismOutcome, texts: _Texts) -> dict:
    """The outcome's document. Its events are the run's decisions, one per
    arrival that traded, in arrival order, without building
    ``outcome.events``."""
    text = texts.__getitem__
    t = outcome.thresholds
    events = [
        {
            "arrival": text(e.arrival),
            "trades": [
                {"user": text(x.user), "slot": text(x.slot), "charge": text(x.charge), "payment": text(x.payment)}
                for x in e.trades
            ],
            "pay_steps": [[text(u), text(amount)] for u, amount in e.pay_steps],
        }
        for _, e in outcome.decisions
    ]
    return {
        "r": fraction_to_text(outcome.r),
        "arrival_order": list(map(text, outcome.arrival_order)),
        "observation_count": outcome.observation_count,
        "thresholds": {
            "user_key": None if t.user_key is None else _key_to_doc(t.user_key, texts),
            "slot_key": None if t.slot_key is None else _key_to_doc(t.slot_key, texts),
            "location": t.location,
            "observed_size": t.observed_size,
        },
        "events": events,
        "gft": text(outcome.gft),
    }


def outcome_to_doc(outcome: MechanismOutcome) -> dict:
    return _outcome_doc(outcome, _Texts())


# -- run report ----------------------------------------------------------------


def _misreports_doc(instance: Instance, reports: ReportProfile | None, texts: _Texts) -> dict:
    """The reports' departures from the instance's truth: the reports parts
    of only the entities whose report differs from their own, compared as
    the reader reads them (tuples). None is the truthful run: no departure."""
    if reports is None:
        return {"mediator_costs": {}, "advertiser_slots": {}}
    reports.check_covers(instance)
    mediator, advertiser = instance.mediator, instance.advertiser
    return _reports_parts_doc(
        {m: costs for m, costs in reports.mediator_costs.items() if tuple(costs) != mediator(m).user_costs},
        {
            a: slots
            for a, slots in reports.advertiser_slots.items()
            if tuple(slots) != (advertiser(a).capacity, advertiser(a).value)
        },
        texts,
    )


def _read_misreports(doc: dict, known: dict[str, EntityId], instance: Instance, path: str) -> ReportProfile | None:
    """``instance``'s truthful reports with the departures ``doc`` lists put
    over them, or None when it lists none; its ids are looked up in
    ``known``. An entry equal to the truth is refused, as the writer never
    writes one."""
    costs, slots = _read_report_parts(doc, known, path)
    if not (costs or slots):
        return None
    truthful = ReportProfile.truthful(instance)
    try:
        reports = ReportProfile({**truthful.mediator_costs, **costs}, {**truthful.advertiser_slots, **slots})
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for part, departures, truth in (
        ("mediator_costs", costs, truthful.mediator_costs),
        ("advertiser_slots", slots, truthful.advertiser_slots),
    ):
        for entity, report in departures.items():
            if report == truth[entity]:
                raise ParseError(f"{path}.{part}.{entity}: equals the instance's report, so it is no departure")
    return reports


def run_report_to_doc(
    instance: Instance,
    reports: ReportProfile | None,
    config: MechanismConfig,
    outcome: MechanismOutcome,
) -> dict:
    """A run's report; ``reports`` None is a truthful run, which departs from nothing."""
    texts = _Texts()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_report",
        "instance": _instance_doc(instance, texts),
        "misreports": _misreports_doc(instance, reports, texts),
        "config": config_to_doc(config),
        "outcome": _outcome_doc(outcome, texts),
    }


def run_report_to_text(instance, reports, config, outcome) -> str:
    return _text(run_report_to_doc(instance, reports, config, outcome))


def run_report_from_text(text: str) -> dict:
    doc = _loads(text)
    _header(doc, "run_report", "run_report")
    for key in ("instance", "misreports", "config", "outcome"):
        _need(doc, key, "run_report")
    return doc


def _show(value: Any) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return f"{_ENCODER.encode(value):.40}"


def _step(path: str, key: str | int) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _first_difference(recorded: Any, fresh: Any, path: str) -> tuple[str, str, str] | None:
    """Where ``recorded`` first differs from ``fresh``, in the order their
    compact texts spell them: the JSON path and both sides shown, or None
    when the two texts are equal. Types, key orders and lengths count as the
    texts count them (``1`` is neither ``true`` nor ``1.0``). It descends
    only into containers ``fresh`` holds, so no deeper than the fresh
    document, however deep ``recorded`` nests."""
    if type(recorded) is not type(fresh):
        return path, _show(recorded), _show(fresh)
    if isinstance(fresh, dict):
        recorded_items, fresh_items = list(recorded.items()), list(fresh.items())
    elif isinstance(fresh, list):
        recorded_items, fresh_items = list(enumerate(recorded)), list(enumerate(fresh))
    else:
        return None if recorded == fresh else (path, _show(recorded), _show(fresh))
    for (key, value), (fresh_key, fresh_value) in zip(recorded_items, fresh_items):
        if key != fresh_key:
            return path, f"key {_show(key)}", f"key {_show(fresh_key)}"
        found = _first_difference(value, fresh_value, _step(path, key))
        if found is not None:
            return found
    n = len(fresh_items)
    if len(recorded_items) > n:
        key, value = recorded_items[n]
        return _step(path, key), _show(value), "nothing"
    if len(recorded_items) < n:
        key, value = fresh_items[len(recorded_items)]
        return _step(path, key), "nothing", _show(value)
    return None


def replay_run_report(doc: dict) -> tuple[bool, str]:
    """Re-run the embedded configuration and compare outcomes byte for byte.

    The verdict compares the compact texts of both outcomes; on a mismatch
    the message names the first differing JSON path and both values there.
    An input the run refuses is a ``ParseError`` at the part at fault.
    """
    known = {}
    instance = _read_instance(doc["instance"], known, "instance")
    reports = _read_misreports(doc["misreports"], known, instance, "misreports")
    config = config_from_doc(doc["config"])
    try:
        outcome = truthful_run(instance, config) if reports is None else run_mechanism(instance, reports, config)
    except RunInputError as exc:
        raise ParseError(str(exc)) from exc
    # Each id was read from the text ``str`` writes for it, so the fresh
    # document reuses that text instead of formatting the id again.
    fresh = _outcome_doc(outcome, _Texts(zip(known.values(), known)))
    if _ENCODER.encode(doc["outcome"]) == _ENCODER.encode(fresh):
        return True, "replay matches recorded outcome exactly"
    path, recorded, now = _first_difference(doc["outcome"], fresh, "outcome")
    return False, f"replay diverges at {path}: recorded {recorded} vs fresh {now}"
