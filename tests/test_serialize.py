"""Text codecs for instances, reports, configs, outcomes, and replayable runs."""

import json
import random
from fractions import Fraction

import pytest

from observeprice import (
    MechanismConfig,
    ParseError,
    ReportProfile,
    instance_from_text,
    instance_to_text,
    money_from_text,
    money_to_text,
    replay_run_report,
    reports_from_text,
    reports_to_text,
    run_mechanism,
    run_report_from_text,
    run_report_to_text,
    truthful_run,
    UserRef,
)
from observeprice.serialize import (
    config_from_doc,
    config_to_doc,
    fraction_from_text,
    fraction_to_text,
    instance_from_doc,
    outcome_to_doc,
    reports_from_doc,
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


def test_replay_detects_tampered_outcome():
    inst = desk_instance(9)
    cfg = desk_config(inst, seed=5)
    reports = ReportProfile.truthful(inst)
    outcome = run_mechanism(inst, reports, cfg)
    assert outcome.trades_of(), "need a trading run to tamper with"
    doc = run_report_from_text(run_report_to_text(inst, reports, cfg, outcome))
    doc["outcome"]["gft"] = money_to_text(money_from_text(doc["outcome"]["gft"]) + 1)
    ok, message = replay_run_report(doc)
    assert not ok
    assert "diverges" in message


def test_replay_detects_config_drift():
    """A report whose config seed was edited replays to a different outcome."""
    inst = organic_instance(3)
    cfg = MechanismConfig(alpha=ORGANIC_ALPHA, seed=11)
    reports = ReportProfile.truthful(inst)
    outcome = run_mechanism(inst, reports, cfg)
    doc = run_report_from_text(run_report_to_text(inst, reports, cfg, outcome))
    doc["config"]["seed"] = 12
    ok, _ = replay_run_report(doc)
    assert not ok


def test_outcome_doc_covers_every_structured_piece():
    inst = organic_instance(4)
    out = truthful_run(inst, MechanismConfig(alpha=ORGANIC_ALPHA, seed=0))
    doc = outcome_to_doc(out)
    for key in ("arrival_order", "observed_mediators", "observed_advertisers",
                "thresholds", "events", "assignment", "charges", "receipts",
                "final_targets", "gft"):
        assert key in doc
    assert len(doc["arrival_order"]) == inst.n_entities


def test_run_report_requires_all_sections():
    inst = desk_instance(10)
    cfg = desk_config(inst, seed=0)
    reports = ReportProfile.truthful(inst)
    outcome = run_mechanism(inst, reports, cfg)
    doc = json.loads(run_report_to_text(inst, reports, cfg, outcome))
    del doc["reports"]
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


def _indented_replay(doc):
    """Reference verdict: replay comparing the ``indent=2`` outcome texts line
    by line, as it did before it compared compact encodings."""
    fresh = run_mechanism(
        instance_from_doc(doc["instance"]), reports_from_doc(doc["reports"]), config_from_doc(doc["config"])
    )
    original_text = json.dumps(doc["outcome"], indent=2) + "\n"
    fresh_text = json.dumps(outcome_to_doc(fresh), indent=2) + "\n"
    if original_text == fresh_text:
        return True, "replay matches recorded outcome exactly"
    for lineno, (a, b) in enumerate(zip(original_text.splitlines(), fresh_text.splitlines()), start=1):
        if a != b:
            return False, f"replay diverges at outcome line {lineno}: recorded {a.strip()!r} vs fresh {b.strip()!r}"
    return False, "replay diverges: outcome lengths differ"


def _bump_gft(outcome):
    outcome["gft"] = money_to_text(money_from_text(outcome["gft"]) + 1)


def _bump_pay_step(outcome):
    step = next(step for event in outcome["events"] for step in event["pay_steps"])
    step[1] = money_to_text(money_from_text(step[1]) + 1)


def _injected_as_int(outcome):
    outcome["injected_thresholds"] = int(outcome["injected_thresholds"])


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
    "injected-as-int": _injected_as_int,
    "count-as-float": _count_as_float,
    "swapped-keys": _swap_two_keys,
    "extra-key": _extra_key,
    "dropped-event": _drop_event,
    "outcome-as-list": None,
}


def _corpus_reports():
    for inst, cfg in replay_corpus():
        reports = ReportProfile.truthful(inst)
        yield run_report_to_text(inst, reports, cfg, run_mechanism(inst, reports, cfg))


def test_replay_verdicts_equal_the_indented_comparison_on_the_replay_corpus():
    for text in _corpus_reports():
        doc = run_report_from_text(text)
        verdict = replay_run_report(doc)
        assert verdict == _indented_replay(doc) == (True, "replay matches recorded outcome exactly")


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_replay_verdicts_equal_the_indented_comparison_on_tampered_reports(tamper):
    """One desk report (injected thresholds) and one organic report (computed
    thresholds), both with pay steps; every edit must diverge with the
    reference's message."""
    texts = []
    for inst, cfg in ((desk_instance(9), desk_config(desk_instance(9), seed=5)),
                      (organic_instance(1), MechanismConfig(alpha=ORGANIC_ALPHA, seed=8))):
        reports = ReportProfile.truthful(inst)
        texts.append(run_report_to_text(inst, reports, cfg, run_mechanism(inst, reports, cfg)))
    for text in texts:
        doc = run_report_from_text(text)
        if TAMPERS[tamper] is None:
            doc["outcome"] = list(doc["outcome"])
        else:
            TAMPERS[tamper](doc["outcome"])
        verdict = replay_run_report(doc)
        assert verdict == _indented_replay(doc)
        assert not verdict[0] and verdict[1].startswith("replay diverges"), verdict
