"""Text codecs for instances, reports, configs, outcomes, and replayable runs."""

import contextlib
import copy
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from observeprice import (
    EntityId,
    MechanismConfig,
    ParseError,
    ReportProfile,
    instance_from_text,
    instance_to_text,
    matched_family,
    money_from_text,
    money_to_text,
    replay_run_report,
    reports_from_text,
    run_mechanism,
    run_report_from_text,
    run_report_to_text,
    truthful_run,
    UserRef,
)
from observeprice import serialize
from observeprice.serialize import (
    config_from_doc,
    config_to_doc,
    fraction_from_text,
    fraction_to_text,
    instance_from_doc,
    outcome_to_doc,
    reports_from_doc,
    reports_to_doc,
    reports_to_text,
    run_report_to_doc,
)
from conftest import build_instance, desk_config, desk_instance, organic_instance, replay_corpus, ORGANIC_ALPHA


# -- scalar codecs ------------------------------------------------------------


def test_money_text_round_trip():
    for amount in (0, 1, 999999, 1000000, 2500000, -1, -1750000, 123456789):
        assert money_from_text(money_to_text(amount)) == amount


def test_money_text_canonical_forms():
    assert money_to_text(2500000) == "2.5"
    assert money_to_text(1000000) == "1"
    assert money_to_text(1) == "0.000001"
    assert money_to_text(-1500000) == "-1.5"
    assert money_from_text("3") == 3000000
    assert money_from_text("3.25") == 3250000


def test_money_text_rejects_off_grid_and_junk():
    for bad in ("1.0000001", "1e6", "", "  ", "one", "1.", ".5", "--2"):
        with pytest.raises(ParseError):
            money_from_text(bad, path="probe")
    try:
        money_from_text("7.1234567", path="mediators[0].user_costs[2]")
    except ParseError as err:
        assert "mediators[0].user_costs[2]" in str(err)


@pytest.mark.parametrize(
    "bad, canonical",
    [("-0", "0"), ("007.5", "7.5"), ("7.50", "7.5"), ("0.0", "0"), ("1.000000", "1")],
    ids=["minus-zero", "leading-zeros", "trailing-zero", "zero-point-zero", "six-trailing-zeros"],
)
def test_money_text_rejects_spellings_the_writer_never_writes(bad, canonical):
    with pytest.raises(ParseError) as err:
        money_from_text(bad, path="mediators[0].user_costs[2]")
    assert str(err.value) == f"mediators[0].user_costs[2]: {bad!r} is not in canonical form, write {canonical!r}"


@given(st.text(alphabet="-.0123456789", max_size=12) | st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{1,7})?", fullmatch=True))
def test_money_text_accepts_only_what_it_writes_back(text):
    try:
        amount = money_from_text(text)
    except ParseError:
        return
    assert money_to_text(amount) == text


@pytest.mark.parametrize(
    "bad", ["29.572742\n", "1.5\n", "\u0663"], ids=["trailing-newline", "trailing-newline-fraction", "arabic-indic-digit"]
)
def test_money_text_rejects_whitespace_and_non_ascii_digits(bad):
    with pytest.raises(ParseError, match=r"^mediators\[0\]\.user_costs\[2\]: "):
        money_from_text(bad, path="mediators[0].user_costs[2]")


@pytest.mark.parametrize("bad", ["m01", "m\u0663"], ids=["leading-zero", "arabic-indic-digit"])
def test_instance_reader_rejects_ids_not_written_as_str_writes_them(bad):
    doc = json.loads(instance_to_text(desk_instance(3)))
    doc["tie_order"][0] = bad
    with pytest.raises(ParseError, match=r"^instance\.tie_order\[0\]: bad entity id"):
        instance_from_text(json.dumps(doc))


def test_fraction_text_round_trip():
    for fr in (Fraction(1, 3), Fraction(0), Fraction(7), Fraction(-2, 5)):
        assert fraction_from_text(fraction_to_text(fr)) == fr
    with pytest.raises(ParseError):
        fraction_from_text("1/0")
    with pytest.raises(ParseError):
        fraction_from_text("a/b")
    for text in ("1e5000", "1e-5000", "1e5_000", "1" * 4301):
        with pytest.raises(ParseError, match=r"spells a fraction of more than 4300 digits$"):
            fraction_from_text(text)


# -- structured codecs ---------------------------------------------------------


def test_instance_text_round_trip():
    inst = desk_instance(3)
    assert instance_from_text(instance_to_text(inst)) == inst


def test_instance_text_is_stable():
    inst = desk_instance(3)
    assert instance_to_text(inst) == instance_to_text(instance_from_text(instance_to_text(inst)))


def test_reports_text_round_trip():
    inst = desk_instance(4)
    reports = ReportProfile.truthful(inst)
    shifted = reports.with_user_cost(
        UserRef(next(iter(reports.mediator_costs)), 0), 4250000
    )
    assert reports_from_text(reports_to_text(shifted)) == shifted


def test_config_doc_round_trip_with_overrides():
    inst = desk_instance(5)
    cfg = desk_config(inst, seed=9, variant="pay_slot_value")
    back = config_from_doc(config_to_doc(cfg))
    assert back == cfg


def test_config_doc_round_trip_plain():
    cfg = MechanismConfig(alpha=Fraction(1, 70), seed=31)
    assert config_from_doc(config_to_doc(cfg)) == cfg


def test_bad_headers_raise_with_location():
    inst = desk_instance(6)
    doc = json.loads(instance_to_text(inst))
    doc["kind"] = "mystery"
    with pytest.raises(ParseError):
        instance_from_text(json.dumps(doc))
    doc["kind"] = "instance"
    doc["schema_version"] = 99
    with pytest.raises(ParseError):
        instance_from_text(json.dumps(doc))
    del doc["schema_version"]
    with pytest.raises(ParseError):
        instance_from_text(json.dumps(doc))


def test_missing_field_names_its_path():
    inst = desk_instance(7)
    doc = json.loads(instance_to_text(inst))
    del doc["mediators"][1]["user_costs"]
    with pytest.raises(ParseError) as err:
        instance_from_text(json.dumps(doc))
    assert "mediators[1]" in str(err.value)


def test_instance_text_rejects_non_json():
    with pytest.raises(ParseError):
        instance_from_text("not json at all {")
    long_capacity = re.sub(r'"capacity":[0-9]+', '"capacity":1' + "0" * 5000, instance_to_text(desk_instance(3)), count=1)
    with pytest.raises(ParseError, match=r"^top level: an integer has too many digits to read$"):
        instance_from_text(long_capacity)


@pytest.mark.parametrize(
    "kind, key, copy",
    [
        ("instance", "kind", '"instance"'),
        ("instance", "capacity", "2"),
        ("reports", "m0", '["1"]'),
        ("run_report", "outcome", "{}"),
    ],
)
def test_readers_reject_a_repeated_object_key(kind, key, copy):
    """The writer never gives a key twice, so the readers refuse such text,
    also when both values are the same (the instance's ``kind``)."""
    inst = desk_instance(3)
    reports = ReportProfile.truthful(inst)
    cfg = desk_config(inst, seed=1)
    text, read = {
        "instance": (instance_to_text(inst), instance_from_text),
        "reports": (reports_to_text(reports), reports_from_text),
        "run_report": (run_report_to_text(inst, reports, cfg, run_mechanism(inst, reports, cfg)), run_report_from_text),
    }[kind]
    read(text)
    mark = f'"{key}":'
    assert mark in text
    with pytest.raises(ParseError, match=f"repeated object key '{key}'"):
        read(text.replace(mark, mark + copy + "," + mark, 1))


# -- run reports and replay ----------------------------------------------------


def test_run_report_round_trip_and_replay():
    inst = desk_instance(8)
    cfg = desk_config(inst, seed=2)
    reports = ReportProfile.truthful(inst)
    outcome = run_mechanism(inst, reports, cfg)
    text = run_report_to_text(inst, reports, cfg, outcome)
    doc = run_report_from_text(text)
    ok, message = replay_run_report(doc)
    assert ok, message
    assert "matches" in message


def test_replay_formats_no_id_the_report_spells():
    """A replay takes each id's text from the report it read: with
    ``EntityId.__str__`` raising, a fresh matched_family(1/160) report still
    replays to a match."""
    inst = matched_family(Fraction(1, 160), seed=0)
    cfg = MechanismConfig(alpha=Fraction(1, 160), seed=3)
    outcome = truthful_run(inst, cfg)
    assert outcome.trades_of()
    doc = run_report_from_text(run_report_to_text(inst, None, cfg, outcome))

    def refuse(entity):
        raise AssertionError(f"replay formatted an id again: {entity!r}")

    with mock.patch.object(EntityId, "__str__", refuse):
        assert replay_run_report(doc) == (True, "replay matches recorded outcome exactly")


def test_replay_detects_tampered_outcome():
    inst = desk_instance(9)
    cfg = desk_config(inst, seed=5)
    outcome = truthful_run(inst, cfg)
    assert outcome.trades_of(), "need a trading run to tamper with"
    doc = run_report_from_text(run_report_to_text(inst, None, cfg, outcome))
    doc["outcome"]["gft"] = money_to_text(money_from_text(doc["outcome"]["gft"]) + 1)
    ok, message = replay_run_report(doc)
    assert not ok
    assert "diverges" in message


def test_replay_detects_config_drift():
    """A report whose config seed was edited replays to a different outcome."""
    inst = organic_instance(3)
    cfg = MechanismConfig(alpha=ORGANIC_ALPHA, seed=11)
    doc = run_report_from_text(run_report_to_text(inst, None, cfg, truthful_run(inst, cfg)))
    doc["config"]["seed"] = 12
    ok, _ = replay_run_report(doc)
    assert not ok


def test_outcome_doc_covers_every_structured_piece():
    """An outcome document holds what the run decided and nothing else: the
    ledgers, the executed pairs and the observed split fold from it."""
    inst = organic_instance(4)
    out = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=0))
    doc = outcome_to_doc(out)
    assert list(doc) == ["r", "arrival_order", "observation_count", "thresholds", "events", "gft"]
    assert list(doc["thresholds"]) == ["user_key", "slot_key", "location", "observed_size"]
    assert len(doc["arrival_order"]) == inst.n_entities


def test_run_report_requires_all_sections():
    inst = desk_instance(10)
    cfg = desk_config(inst, seed=0)
    reports = ReportProfile.truthful(inst)
    outcome = run_mechanism(inst, reports, cfg)
    doc = json.loads(run_report_to_text(inst, reports, cfg, outcome))
    del doc["misreports"]
    with pytest.raises(ParseError):
        run_report_from_text(json.dumps(doc))


def test_non_truthful_reports_replay_round_trip():
    inst = desk_instance(11)
    reports = ReportProfile.truthful(inst)
    med = inst.mediators[0].id
    reports = reports.with_user_cost(UserRef(med, 0), 11 * 1000000)
    cfg = desk_config(inst, seed=3)
    outcome = run_mechanism(inst, reports, cfg)
    doc = run_report_from_text(run_report_to_text(inst, reports, cfg, outcome))
    ok, message = replay_run_report(doc)
    assert ok, message


def test_truthful_reports_given_as_lists_are_no_departure():
    """The writer compares reports as the reader reads them (tuples), so it
    writes truthful reports given as lists as no departure, and the report
    replays."""
    inst = desk_instance(3)
    cfg = desk_config(inst, seed=1)
    reports = ReportProfile(
        {m.id: list(m.user_costs) for m in inst.mediators}, {a.id: [a.capacity, a.value] for a in inst.advertisers}
    )
    doc = run_report_to_doc(inst, reports, cfg, run_mechanism(inst, reports, cfg))
    assert doc["misreports"] == {"mediator_costs": {}, "advertiser_slots": {}}
    assert replay_run_report(run_report_from_text(json.dumps(doc))) == (True, "replay matches recorded outcome exactly")


def _compact(doc):
    return json.dumps(doc, separators=(",", ":"))


def _full_reports(run_report):
    """A run report's reports as a reports document: every entity's report,
    its departure where ``misreports`` lists one and the instance's truth
    elsewhere, read from the plain JSON and not by the run report reader."""
    instance, departures = run_report["instance"], run_report["misreports"]
    costs = {m["id"]: m["user_costs"] for m in instance["mediators"]} | departures["mediator_costs"]
    slots = {a["id"]: {"capacity": a["capacity"], "value": a["value"]} for a in instance["advertisers"]}
    return {
        "schema_version": run_report["schema_version"],
        "kind": "reports",
        "mediator_costs": costs,
        "advertiser_slots": slots | departures["advertiser_slots"],
    }


def _reference_verdicts(doc):
    """Reference verdicts: whether the recorded outcome's compact text equals
    a fresh run's, and whether its ``indent=2`` text does (the comparison
    replay made at schema 2). The fresh run reads its reports from
    ``_full_reports``."""
    fresh = outcome_to_doc(run_mechanism(
        instance_from_doc(doc["instance"]), reports_from_doc(_full_reports(doc)), config_from_doc(doc["config"])
    ))
    return _compact(doc["outcome"]) == _compact(fresh), json.dumps(doc["outcome"], indent=2) == json.dumps(fresh, indent=2)


def _bump_gft(outcome):
    outcome["gft"] = money_to_text(money_from_text(outcome["gft"]) + 1)


def _bump_pay_step(outcome):
    step = next(step for event in outcome["events"] for step in event["pay_steps"])
    step[1] = money_to_text(money_from_text(step[1]) + 1)


def _size_as_bool(outcome):
    outcome["thresholds"]["observed_size"] = bool(outcome["thresholds"]["observed_size"])


def _count_as_float(outcome):
    outcome["observation_count"] = float(outcome["observation_count"])


def _swap_two_keys(outcome):
    items = list(outcome.items())
    items[1], items[2] = items[2], items[1]
    outcome.clear()
    outcome.update(items)


def _extra_key(outcome):
    outcome["note"] = "edited"


def _drop_event(outcome):
    outcome["events"].pop()


TAMPERS = {
    "gft+1": _bump_gft,
    "pay-step-amount": _bump_pay_step,
    "size-as-bool": _size_as_bool,
    "count-as-float": _count_as_float,
    "swapped-keys": _swap_two_keys,
    "extra-key": _extra_key,
    "dropped-event": _drop_event,
    "outcome-as-list": None,
}


def _corpus_texts():
    """The instance, reports and run-report texts of each run of the
    criterion-7 corpus, the run report written as a truthful run's, with no
    reports."""
    for inst, cfg in replay_corpus():
        report = run_report_to_text(inst, None, cfg, truthful_run(inst, cfg))
        yield instance_to_text(inst), reports_to_text(ReportProfile.truthful(inst)), report


def test_replay_verdicts_equal_the_indented_comparison_on_the_replay_corpus():
    for _, _, text in _corpus_texts():
        doc = run_report_from_text(text)
        assert replay_run_report(doc) == (True, "replay matches recorded outcome exactly")
        assert _reference_verdicts(doc) == (True, True)


# The first differing path each edit leaves, on the desk and on the organic report.
TAMPERED_AT = {
    "gft+1": ('outcome.gft: recorded "14.506203" vs fresh "14.506202"', 'outcome.gft: recorded "5.844012" vs fresh "5.844011"'),
    "pay-step-amount": (
        'outcome.events[0].pay_steps[0][1]: recorded "5.676161" vs fresh "5.67616"',
        'outcome.events[0].pay_steps[0][1]: recorded "0.030452" vs fresh "0.030451"',
    ),
    "size-as-bool": ("outcome.thresholds.observed_size: recorded false vs fresh 0", "outcome.thresholds.observed_size: recorded true vs fresh 40"),
    "count-as-float": ("outcome.observation_count: recorded 1.0 vs fresh 1", "outcome.observation_count: recorded 83.0 vs fresh 83"),
    "swapped-keys": ('outcome: recorded key "observation_count" vs fresh key "arrival_order"',) * 2,
    "extra-key": ('outcome.note: recorded "edited" vs fresh nothing',) * 2,
    "dropped-event": ("outcome.events[0]: recorded nothing vs fresh an object", "outcome.events[2]: recorded nothing vs fresh an object"),
    "outcome-as-list": ("outcome: recorded a list vs fresh an object",) * 2,
}


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_replay_verdicts_equal_the_indented_comparison_on_tampered_reports(tamper):
    """One desk report (injected thresholds) and one organic report (computed
    thresholds), both with pay steps; every edit must diverge, as both
    reference comparisons do, at the path pinned for it."""
    texts = []
    for inst, cfg in ((desk_instance(9), desk_config(desk_instance(9), seed=5)),
                      (organic_instance(1), MechanismConfig(alpha=ORGANIC_ALPHA, seed=8))):
        texts.append(run_report_to_text(inst, None, cfg, truthful_run(inst, cfg)))
    for text, where in zip(texts, TAMPERED_AT[tamper]):
        doc = run_report_from_text(text)
        if TAMPERS[tamper] is None:
            doc["outcome"] = list(doc["outcome"])
        else:
            TAMPERS[tamper](doc["outcome"])
        assert _reference_verdicts(doc) == (False, False)
        assert replay_run_report(doc) == (False, f"replay diverges at {where}")


def _add_idle_event(events, post):
    """Record, in its place, the first post-observation arrival that traded nothing."""
    traded = [post.index(event["arrival"]) for event in events]
    idle = next(i for i in range(len(post)) if i not in traded)
    events.insert(sum(i < idle for i in traded), {"arrival": post[idle], "trades": [], "pay_steps": []})


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda events, post: events.pop(1), 'outcome.events[1].arrival: recorded "a22" vs fresh "m69"'),
        (_add_idle_event, 'outcome.events[0].arrival: recorded "a35" vs fresh "a13"'),
        (lambda events, post: events.insert(0, events.pop()), 'outcome.events[0].arrival: recorded "a22" vs fresh "a13"'),
    ],
    ids=["dropped", "added", "moved"],
)
def test_replay_names_an_event_dropped_added_or_moved(edit, where):
    """The events are the run's decisions in arrival order, with no position
    field: one dropped, one added for an arrival that traded nothing, or one
    moved out of arrival order is named at the first event that differs."""
    inst = organic_instance(1)
    cfg = MechanismConfig(alpha=ORGANIC_ALPHA, seed=8)
    doc = run_report_from_text(run_report_to_text(inst, None, cfg, truthful_run(inst, cfg)))
    outcome = doc["outcome"]
    assert [e["arrival"] for e in outcome["events"]] == ["a13", "m69", "a22"]
    edit(outcome["events"], outcome["arrival_order"][outcome["observation_count"]:])
    assert _reference_verdicts(doc)[0] is False
    assert replay_run_report(doc) == (False, f"replay diverges at {where}")


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda o: o["events"][0].pop("trades"), 'outcome.events[0]: recorded key "pay_steps" vs fresh key "trades"'),
        (lambda o: o["events"][0]["pay_steps"].append(["m2:1", "7"]), "outcome.events[0].pay_steps[3]: recorded a list vs fresh nothing"),
        (lambda o: o["events"][0]["pay_steps"][0].pop(), 'outcome.events[0].pay_steps[0][1]: recorded nothing vs fresh "5.67616"'),
        (lambda o: o.update(gft=None), 'outcome.gft: recorded null vs fresh "14.506202"'),
    ],
    ids=["missing-key", "longer-list", "shorter-pair", "null-amount"],
)
def test_replay_names_the_first_differing_path(edit, where):
    """More edits on the desk report, each caught by the compact comparison
    and named at its path with both values."""
    inst = desk_instance(9)
    cfg = desk_config(inst, seed=5)
    doc = run_report_from_text(run_report_to_text(inst, None, cfg, truthful_run(inst, cfg)))
    edit(doc["outcome"])
    assert _reference_verdicts(doc)[0] is False
    assert replay_run_report(doc) == (False, f"replay diverges at {where}")


def test_writer_keeps_its_bytes_on_the_replay_corpus():
    """sha256 over every instance, reports and run-report text of the
    criterion-7 corpus, each one line of compact JSON."""
    digest = hashlib.sha256()
    for text in itertools.chain.from_iterable(_corpus_texts()):
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
        digest.update(text.encode())
    assert digest.hexdigest() == "12c1a07740ea05ab94709f8707041ed61c7679a63cc86e7abc23e82f1e256c0a"


def _small_instance():
    return build_instance([[1, 2, 3], [4, 5]], [(2, 7), (1, 6)], seed=4)


def _read_with_bad_user_cost(bad):
    doc = json.loads(instance_to_text(_small_instance()))
    doc["mediators"][0]["user_costs"][2] = bad
    instance_from_doc(doc)


def _read_with_bad_reported_cost(bad):
    doc = reports_to_doc(ReportProfile.truthful(_small_instance()))
    doc["mediator_costs"]["m0"][2] = bad
    reports_from_doc(doc)


def _read_with_bad_tie_entry(bad):
    doc = json.loads(instance_to_text(_small_instance()))
    doc["tie_order"][2] = bad
    instance_from_doc(doc)


_NOT_MONEY = "is not a money amount on the micro-unit grid (max 6 decimals)"


@pytest.mark.parametrize(
    "read, bad, message",
    [
        (_read_with_bad_user_cost, "m01", f"instance.mediators[0].user_costs[2]: 'm01' {_NOT_MONEY}"),
        (_read_with_bad_user_cost, ["m0"], f"instance.mediators[0].user_costs[2]: ['m0'] {_NOT_MONEY}"),
        (_read_with_bad_user_cost, "m7", f"instance.mediators[0].user_costs[2]: 'm7' {_NOT_MONEY}"),
        (_read_with_bad_reported_cost, "m01", f"reports.mediator_costs[m0][2]: 'm01' {_NOT_MONEY}"),
        (_read_with_bad_reported_cost, ["m0"], f"reports.mediator_costs[m0][2]: ['m0'] {_NOT_MONEY}"),
        (_read_with_bad_reported_cost, "m7", f"reports.mediator_costs[m0][2]: 'm7' {_NOT_MONEY}"),
        (_read_with_bad_tie_entry, "m01", "instance.tie_order[2]: bad entity id 'm01'"),
        (_read_with_bad_tie_entry, ["m0"], "instance.tie_order[2]: bad entity id ['m0']"),
        (_read_with_bad_tie_entry, "m7", "instance: tie_order must be a permutation of all entity ids"),
    ],
    ids=[f"{field}-{kind}" for field in ("user_costs", "mediator_costs", "tie_order") for kind in ("malformed-id", "list", "unknown-id")],
)
def test_list_readers_name_the_bad_element(read, bad, message):
    with pytest.raises(ParseError) as err:
        read(bad)
    assert str(err.value) == message


# -- reader fuzz ---------------------------------------------------------------------


def _fuzz_runs():
    """The runs of the two fuzz-seed run reports: a desk run priced by
    injected thresholds, in which m1 reports a lower third cost, a0 a higher
    value and a2 one slot more, and an organic run priced by computed
    thresholds, in which a0 claims three slots more."""
    desk = desk_instance(7)
    misreports = (
        ReportProfile.truthful(desk)
        .with_user_cost(UserRef(EntityId("mediator", 1), 2), 5 * 10**6)
        .with_advertiser_slots(EntityId("advertiser", 0), 3, 8 * 10**6)
        .with_advertiser_slots(EntityId("advertiser", 2), 2, desk.advertisers[2].value)
    )
    organic = organic_instance(0)
    claim = ReportProfile.truthful(organic).with_advertiser_slots(organic.advertisers[0].id, 4, 2 * 10**6)
    return {
        "desk report": (desk, misreports, desk_config(desk, seed=3)),
        "organic report": (organic, claim, MechanismConfig(alpha=ORGANIC_ALPHA, seed=1)),
    }


_FUZZ_RUNS = _fuzz_runs()


def _fuzz_documents():
    """Valid documents to mutate: an instance, a reports profile, and the
    run reports of ``_FUZZ_RUNS``."""
    docs = {"instance": json.loads(instance_to_text(desk_instance(7))), "reports": reports_to_doc(_FUZZ_RUNS["organic report"][1])}
    for name, (inst, reports, config) in _FUZZ_RUNS.items():
        docs[name] = run_report_to_doc(inst, reports, config, run_mechanism(inst, reports, config))
    return docs


_FUZZ_DOCS = _fuzz_documents()
_SWAPS = (None, True, False, 0, 1, 1.5, "", "x", "1", "m0", "1/2", [], {}, ["1"], {"m0": []})
_NUMBERS = (10**12, 10**30, 2**63, 1e308, -1, -(10**30), -0.0, "-1", "9" * 60, "1" + "0" * 5000, "m" + "9" * 5000)


def _places(node, part, out):
    """Every ``(container, key)`` under ``node``, filed by the top-level key ``part``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.setdefault(part, []).append((node, key))
        _places(child, part, out)
    return out


def _claim_capacities(doc):
    """Set every reported capacity the document still holds to 10^12, or, in
    an instance, every true capacity."""
    part = doc.get("misreports", doc)
    if isinstance(part, dict):
        specs = part.get("advertisers") if isinstance(part.get("advertisers"), list) else []
        slots = part.get("advertiser_slots") if isinstance(part.get("advertiser_slots"), dict) else {}
        for spec in [*specs, *slots.values()]:
            if isinstance(spec, dict):
                spec["capacity"] = 10**12


@st.composite
def _mutated_documents(draw):
    """A valid document after one to three edits: a deletion, a value of
    another type, or a huge or negative number, each at a place drawn
    uniformly within a part drawn uniformly (the top level, or one of its
    keys), or every reported capacity set to 10^12."""
    name = draw(st.sampled_from(sorted(_FUZZ_DOCS)))
    doc = copy.deepcopy(_FUZZ_DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("delete", "swap", "number", "capacity")))
        if edit == "capacity":
            _claim_capacities(doc)
            continue
        places = {None: [(doc, key) for key in doc]}
        for key, child in doc.items():
            _places(child, key, places)
        parent, key = draw(st.sampled_from(places[draw(st.sampled_from(list(places)))]))
        if edit == "delete":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_SWAPS if edit == "swap" else _NUMBERS)))
    return name, doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_documents())
def test_readers_meet_mutated_documents_with_parse_error_or_success(case):
    """Every reader, and replay of a run report it reads, either succeeds or
    raises ``ParseError``; the run's own input checks (the mechanism's
    standing assumptions, reports covering the instance, forced orders and
    counts) reach replay's caller as a ``ParseError`` too. Nothing else
    escapes."""
    name, doc = case
    text = json.dumps(doc)
    try:
        if name == "instance":
            instance_from_text(text)
        elif name == "reports":
            reports_from_text(text)
        else:
            ok, message = replay_run_report(run_report_from_text(text))
            assert isinstance(ok, bool) and message
    except ParseError:
        pass


def _replay_edited(edit):
    """Replay of the desk report after ``edit`` of its document."""
    doc = copy.deepcopy(_FUZZ_DOCS["desk report"])
    edit(doc)
    return replay_run_report(run_report_from_text(json.dumps(doc)))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["instance"]["advertisers"][0].update(capacity=10**12), "instance: a0: capacity 1000000000000 > alpha*tau = 3"),
        (lambda d: d["config"].update(forced_observation_count=10), "config.forced_observation_count: 10 is outside 0..6"),
        (lambda d: d["config"].update(forced_arrival_order=["m0"]), "config.forced_arrival_order: not a permutation of the instance's entities"),
        (lambda d: d["config"].update(r="1"), "config.r: must be in (0, 1/2]"),
        (lambda d: d["config"]["threshold_override"]["user_key"].update(amount="8"),
         "config.threshold_override: threshold user key must order below the slot key"),
    ],
    ids=["failed-assumption", "forced-count", "forced-order", "r", "override-order"],
)
def test_replay_names_the_part_of_the_report_a_run_refuses(edit, message):
    with pytest.raises(ParseError) as err:
        _replay_edited(edit)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["misreports"]["mediator_costs"].update(m0=d["instance"]["mediators"][0]["user_costs"]),
         "misreports.mediator_costs.m0: equals the instance's report, so it is no departure"),
        (lambda d: d["misreports"]["advertiser_slots"].update(a0={k: d["instance"]["advertisers"][0][k] for k in ("capacity", "value")}),
         "misreports.advertiser_slots.a0: equals the instance's report, so it is no departure"),
        (lambda d: d["misreports"]["mediator_costs"].update(m9=["1"]), "misreports.mediator_costs: unknown entity id 'm9'"),
        (lambda d: d["misreports"]["advertiser_slots"].update(a01={"capacity": 1, "value": "1"}),
         "misreports.advertiser_slots: bad entity id 'a01'"),
    ],
    ids=["truthful-mediator", "truthful-advertiser", "unknown-id", "misspelled-id"],
)
def test_misreports_reader_names_the_entry_at_fault(edit, message):
    """A run report lists only departures from the instance: an entry equal
    to the instance's report is refused at its own path, as are ids the
    instance does not hold or that are not spelled as ``str`` writes them."""
    with pytest.raises(ParseError) as err:
        _replay_edited(edit)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "field, message",
    [
        ("schema_version", "instance.schema_version: got '1{zeros}, this reader understands 6"),
        ("kind", "instance.kind: expected 'instance', got '1{zeros}"),
    ],
)
def test_header_errors_cut_the_value_they_echo(field, message):
    """A 5,001-character value is echoed as its first 40 characters, as
    ``_need`` echoes one."""
    doc = json.loads(instance_to_text(desk_instance(3)))
    doc[field] = "1" + "0" * 5000
    with pytest.raises(ParseError) as err:
        instance_from_text(json.dumps(doc))
    assert str(err.value) == message.format(zeros="0" * 38)


def test_fraction_errors_cut_the_texts_they_echo():
    """``config.alpha: "1e4290"`` is legal text for a 4,291-digit integer; the
    canonical-form error keeps its path and echoes the text and its canonical
    spelling cut at 40 characters each, as ``_need`` echoes a value."""
    with pytest.raises(ParseError) as err:
        fraction_from_text("1e4290", "config.alpha")
    assert str(err.value) == "config.alpha: '1e4290' is not in canonical form, write '1" + "0" * 38
    for text in ("0" * 4200 + "1", "2" * 4200 + "/2", "1/" + "x" * 4000, ["1"] * 5000):
        with pytest.raises(ParseError, match=r"^config\.alpha: ") as err:
            fraction_from_text(text, "config.alpha")
        assert len(str(err.value)) < 150, text


# -- whole-part reads and the money writer ----------------------------------------------


def _divmod_money_text(amount):
    """The rule ``money_to_text`` followed before it sliced ``str(amount)``:
    divmod by 10^6, the fraction zero-padded to six digits, then stripped."""
    whole, frac = divmod(abs(amount), 1_000_000)
    text = f"{whole}.{frac:06d}".rstrip("0") if frac else str(whole)
    return text if amount >= 0 else "-" + text


def test_money_to_text_equals_the_divmod_rule():
    rng = random.Random(0)
    big = int("7" * 3999 + "1")  # 4,000 digits
    amounts = [0, 1, 999_999, 10**6 - 1, 10**6, 10**6 + 1, 10**12, big, big - 1]
    amounts += [rng.randrange(10 ** rng.randint(1, 30)) for _ in range(3000)]
    amounts += [-a for a in amounts if a]
    for amount in amounts:
        text = money_to_text(amount)
        assert text == _divmod_money_text(amount)
        assert money_from_text(text) == amount


_WHOLE_READS = ("_mediators_whole", "_advertisers_whole")
_WALKS = ("_mediators_walk", "_advertisers_walk")


@contextlib.contextmanager
def _failing(names, error):
    """``serialize``'s functions ``names`` each raising ``error`` while the block runs."""
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(serialize, name, side_effect=error))
        yield


def _read(name, text):
    """What reading ``text`` as the document ``name`` gives: the instance or
    reports read, a run report's replay verdict, or the error's type and message."""
    try:
        if name == "instance":
            return instance_from_text(text)
        if name == "reports":
            return reports_from_text(text)
        return replay_run_report(run_report_from_text(text))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_documents())
def test_whole_reads_agree_with_the_walks_on_mutated_documents(case):
    """A reader whose whole reads all fail, so that every part is walked,
    returns an equal value or raises the same message."""
    name, doc = case
    text = json.dumps(doc)
    with _failing(_WHOLE_READS, ValueError("whole read patched out")):
        walked = _read(name, text)
    assert _read(name, text) == walked


def test_whole_reads_alone_read_every_valid_document():
    """With the instance parts' walks patched to fail, their whole reads read
    each instance, reports and run report of the replay corpus and of the fuzz seeds."""
    with _failing(_WALKS, AssertionError("a valid part was walked")):
        for inst, cfg in replay_corpus():
            reports = ReportProfile.truthful(inst)
            assert instance_from_text(instance_to_text(inst)) == inst
            assert reports_from_text(reports_to_text(reports)) == reports
            text = run_report_to_text(inst, reports, cfg, run_mechanism(inst, reports, cfg))
            assert replay_run_report(run_report_from_text(text)) == (True, "replay matches recorded outcome exactly")
        for name, doc in _FUZZ_DOCS.items():
            read = _read(name, json.dumps(doc))
            if name.endswith("report"):
                assert read == (True, "replay matches recorded outcome exactly")
            else:
                assert not isinstance(read, tuple), read  # an instance or reports, not an error


def _set_at(*path):
    def edit(doc, bad):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = bad
    return edit


def _rename_key(*path):
    def edit(doc, bad):
        for key in path[:-1]:
            doc = doc[key]
        doc[bad] = doc.pop(path[-1])
    return edit


# Where a bad value goes in the desk run report (the instance and misreports
# parts) and in the standalone instance and reports documents.
_BAD_PLACES = {
    "user cost": ("desk report", _set_at("instance", "mediators", 1, "user_costs", 0)),
    "mediator id": ("instance", _set_at("mediators", 2, "id")),
    "advertiser id": ("instance", _set_at("advertisers", 1, "id")),
    "capacity": ("instance", _set_at("advertisers", 1, "capacity")),
    "value": ("desk report", _set_at("instance", "advertisers", 2, "value")),
    "reported cost": ("desk report", _set_at("misreports", "mediator_costs", "m1", 2)),
    "reported mediator": ("reports", _rename_key("mediator_costs", "m1")),
    "reported advertiser": ("desk report", _rename_key("misreports", "advertiser_slots", "a2")),
    "reported capacity": ("reports", _set_at("advertiser_slots", "a1", "capacity")),
    "reported value": ("desk report", _set_at("misreports", "advertiser_slots", "a0", "value")),
}
_BAD_MONEY = ("-0", "-0.5", "-1", "007.5", "00", "7.50", "0.0", "1.", ".5", "", "1.0000001", "+1", " 1", "1\n", "\u0663",
              "1_0", "1e6", "0x1", "1.2.3", "1.-5", "9" * 5000, True, 1, None, ["1"])
_BAD_IDS = ("m01", "m-1", "m+1", "m", "", "x1", "a0", "a1", "m\u0663", "m1_0", "m" + "9" * 5000, 3, True, ["m1"])
_BAD_CAPACITIES = (True, False, "2", 2.0, None, -1)
# place -> (values every reader refuses, values compared only: some read as valid)
_BAD_VALUES = {
    "user cost": (_BAD_MONEY, ()),
    "value": (_BAD_MONEY, ()),
    "reported cost": (_BAD_MONEY, ()),
    "reported value": (_BAD_MONEY, ()),
    "mediator id": (_BAD_IDS, ("m0",)),
    "advertiser id": (_BAD_IDS[:6] + ("m0", "a0"), ()),
    "reported mediator": (_BAD_IDS[:11], ("m0",)),
    # a2's departure renamed to an advertiser's id is another departure
    "reported advertiser": (_BAD_IDS[:6] + _BAD_IDS[8:11], ("a0", "a1")),
    "capacity": (_BAD_CAPACITIES + (0,), (10**30,)),
    "reported capacity": (_BAD_CAPACITIES, (0, 10**30)),
}


@pytest.mark.parametrize("place", list(_BAD_PLACES))
def test_whole_reads_agree_with_the_walks_on_bad_values(place):
    """Each bad id, capacity or amount text, at each kind of place, reads as
    the walk alone reads it: a ``ParseError`` with the same message."""
    name, edit = _BAD_PLACES[place]
    refused, compared = _BAD_VALUES[place]
    for bad, must_refuse in [(bad, True) for bad in refused] + [(bad, False) for bad in compared]:
        doc = copy.deepcopy(_FUZZ_DOCS[name])
        edit(doc, bad)
        text = json.dumps(doc)
        with _failing(_WHOLE_READS, ValueError("whole read patched out")):
            walked = _read(name, text)
        assert _read(name, text) == walked, bad
        if must_refuse:
            assert walked[0] is ParseError, bad


@pytest.mark.parametrize("bad", [True, False, "2", None])
def test_capacities_that_are_not_integers_are_refused_in_both_parts(bad):
    doc = json.loads(instance_to_text(_small_instance()))
    doc["advertisers"][1]["capacity"] = bad
    with pytest.raises(ParseError) as err:
        instance_from_doc(doc)
    assert str(err.value) == f"instance.advertisers[1].capacity: expected an integer, got {bad!r}"
    doc = reports_to_doc(ReportProfile.truthful(_small_instance()))
    doc["advertiser_slots"]["a1"]["capacity"] = bad
    with pytest.raises(ParseError) as err:
        reports_from_doc(doc)
    assert str(err.value) == f"reports.advertiser_slots[a1].capacity: expected an integer, got {bad!r}"


@pytest.mark.parametrize("bad", ["-0", "-0.0", "0.", "01", "1.50"])
def test_amount_texts_the_writer_never_writes_are_refused_in_every_part(bad):
    """The whole reads refuse what ``money_from_text`` refuses, with its message at the element's path."""
    with pytest.raises(ParseError) as expected:
        money_from_text(bad)
    message = str(expected.value).removeprefix("amount: ")
    for read, path in ((_read_with_bad_user_cost, "instance.mediators[0].user_costs[2]"),
                       (_read_with_bad_reported_cost, "reports.mediator_costs[m0][2]")):
        with pytest.raises(ParseError) as err:
            read(bad)
        assert str(err.value) == f"{path}: {message}"
