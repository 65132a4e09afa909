"""Command line interface: subcommands, exit codes, and file round trips."""

import csv
import json
import time

import pytest

from observeprice import generate, verify
from observeprice.cli import main
from observeprice.verify import SweepResult
from observeprice.serialize import (
    SCHEMA_VERSION,
    ParseError,
    instance_to_text,
    money_from_text,
    money_to_text,
    run_report_from_text,
)
from conftest import organic_instance, zero_user_instance


def _generate(tmp_path, name="inst.json", seed="0", alpha="1"):
    path = tmp_path / name
    code = main([
        "generate", "--mediators", "3", "--advertisers", "3",
        "--alpha", alpha, "--seed", seed, "-o", str(path),
    ])
    assert code == 0
    return path


def _organic_file(tmp_path, seed=0):
    path = tmp_path / f"organic{seed}.json"
    path.write_text(instance_to_text(organic_instance(seed)), encoding="utf-8")
    return path


def test_generate_writes_parseable_instance(tmp_path):
    path = _generate(tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["kind"] == "instance"
    assert len(doc["mediators"]) == 3
    assert len(doc["advertisers"]) == 3


def test_generate_is_deterministic_in_seed(tmp_path):
    a = _generate(tmp_path, "a.json", seed="7")
    b = _generate(tmp_path, "b.json", seed="7")
    c = _generate(tmp_path, "c.json", seed="8")
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_generate_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("OBSERVEPRICE_SEED", "5")
    path = tmp_path / "env.json"
    assert main(["generate", "--mediators", "3", "--advertisers", "3",
                 "--alpha", "1", "-o", str(path)]) == 0
    explicit = _generate(tmp_path, "explicit.json", seed="5")
    assert path.read_text() == explicit.read_text()


def test_generate_reports_impossible_shapes(tmp_path, capsys):
    # one advertiser with two slots caps tau at 2, but every mediator
    # carries three users, so the weight check can never pass
    code = main(["generate", "--mediators", "1", "--advertisers", "1",
                 "--alpha", "1", "-o", str(tmp_path / "x.json")])
    assert code == 1
    assert "generation failed" in capsys.readouterr().err


def test_run_and_replay_round_trip(tmp_path, capsys):
    inst = _generate(tmp_path)
    report = tmp_path / "report.json"
    assert main(["run", "--instance", str(inst), "--alpha", "1",
                 "--seed", "3", "-o", str(report)]) == 0
    assert main(["replay", str(report)]) == 0
    assert "matches" in capsys.readouterr().out


def test_replay_flags_tampered_report(tmp_path, capsys):
    inst = _generate(tmp_path)
    report = tmp_path / "report.json"
    assert main(["run", "--instance", str(inst), "--alpha", "1",
                 "--seed", "3", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["outcome"]["gft"] = money_to_text(money_from_text(doc["outcome"]["gft"]) + 1)
    report.write_text(json.dumps(doc, indent=2) + "\n")
    assert main(["replay", str(report)]) == 1
    assert "diverges" in capsys.readouterr().out


def _truthful_reports_doc(instance_doc):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "reports",
        "mediator_costs": {m["id"]: m["user_costs"] for m in instance_doc["mediators"]},
        "advertiser_slots": {
            a["id"]: {"capacity": a["capacity"], "value": a["value"]}
            for a in instance_doc["advertisers"]
        },
    }


def test_run_accepts_report_profile_file(tmp_path):
    inst = _generate(tmp_path)
    reports = _truthful_reports_doc(json.loads(inst.read_text()))
    rep_path = tmp_path / "reports.json"
    rep_path.write_text(json.dumps(reports, indent=2) + "\n")
    out = tmp_path / "run.json"
    assert main(["run", "--instance", str(inst), "--reports", str(rep_path),
                 "--alpha", "1", "-o", str(out)]) == 0
    assert main(["replay", str(out)]) == 0


def _set(path, value):
    """An edit that replaces the field at ``path`` (keys and indices) with ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _replace_file(text):
    """An edit that replaces the whole file with ``text``."""
    def edit(doc):
        return text
    return edit


def _long_int(path):
    """An edit that writes the integer at ``path`` as 10**5000, 5,001 digits,
    more than ``json.dumps`` writes or ``json.loads`` reads."""
    def edit(doc):
        _set(path, "@")(doc)
        return json.dumps(doc, indent=2).replace('"@"', "1" + "0" * 5000) + "\n"
    return edit


def _repeat_key(key, copy):
    """An edit that writes the file with ``"key": copy`` given just before the
    first ``key`` in it, so that object holds ``key`` twice."""
    def edit(doc):
        mark = f'"{key}": '
        return json.dumps(doc, indent=2).replace(mark, mark + copy + ", " + mark, 1) + "\n"
    return edit


@pytest.mark.parametrize(
    "target, edit, where",
    [
        ("instance", _set(["mediators"], 5), "instance.mediators: expected a list"),
        ("instance", _set(["mediators", 0], 5), "instance.mediators[0]: expected an object"),
        ("instance", _set(["mediators", 0, "user_costs"], "123"), "instance.mediators[0].user_costs: expected a list"),
        ("instance", _set(["advertisers"], {"a0": 1}), "instance.advertisers: expected a list"),
        ("instance", _set(["advertisers", 0, "capacity"], "2"), "instance.advertisers[0].capacity: expected an integer"),
        ("instance", _set(["advertisers", 0, "capacity"], True), "instance.advertisers[0].capacity: expected an integer"),
        ("instance", _set(["tie_order"], None), "instance.tie_order: expected a list"),
        ("reports", _set(["mediator_costs"], []), "reports.mediator_costs: expected an object"),
        ("reports", _set(["mediator_costs", "m0"], 3), "reports.mediator_costs.m0: expected a list"),
        ("reports", _set(["advertiser_slots", "a0"], [2, "1"]), "reports.advertiser_slots[a0]: expected an object"),
        ("report", _set(["config", "forced_arrival_order"], 5), "config.forced_arrival_order: expected a list"),
        ("report", _set(["config", "alpha"], None), "config.alpha: None is not a fraction"),
        ("report", _set(["config", "alpha"], 0.1), "config.alpha: 0.1 is not a fraction"),
        ("report", _set(["config", "alpha"], " 1 "), "config.alpha: ' 1 ' is not in canonical form, write '1'"),
        ("report", _set(["config", "alpha"], "1e0"), "config.alpha: '1e0' is not in canonical form, write '1'"),
        ("report", _set(["config", "alpha"], "1e5000"), "config.alpha: '1e5000' spells a fraction of more than 4300 digits"),
        ("report", _set(["config", "r"], "1e-5000"), "config.r: '1e-5000' spells a fraction of more than 4300 digits"),
        ("report", _long_int(["config", "seed"]), "top level: an integer has too many digits to read"),
        ("instance", _long_int(["advertisers", 0, "capacity"]), "top level: an integer has too many digits to read"),
        ("report", _set(["config", "variant"], "nope"), "config.variant: 'nope' is not one of standard, pay_slot_value"),
        ("report", _set(["config", "forced_observation_count"], True), "config.forced_observation_count: expected an integer or null"),
        # A misreports fault is named at misreports.<part>; these rows match
        # the error's text from its part name on.
        ("report", _set(["misreports", "mediator_costs", "m9"], ["1"]), "reports.mediator_costs: unknown entity id 'm9'"),
        ("report", _set(["misreports", "advertiser_slots", "a01"], {"capacity": 1, "value": "1"}),
         "reports.advertiser_slots: bad entity id 'a01'"),
        ("instance", _set(["mediators", 0, "id"], "m1" + "0" * 5000),
         "instance.mediators[0].id: m1000000000000000000... (5002 characters) is too long for an entity id"),
        ("report", _set(["schema_version"], 1), "run_report.schema_version: got 1"),
        ("report", lambda doc: doc["misreports"]["mediator_costs"].update(m0=doc["instance"]["mediators"][0]["user_costs"]),
         "misreports.mediator_costs.m0: equals the instance's report, so it is no departure"),
        ("report", _set(["misreports", "mediator_costs", "m0"], ["007"]), "reports.mediator_costs[m0][0]: '007' is not in canonical form, write '7'"),
        ("report", _set(["instance", "mediators", 0, "user_costs", 0], ["1"]), "instance.mediators[0].user_costs[0]: ['1'] is not"),
        ("instance", _set(["mediators", 0, "user_costs", 0], "1.5\n"), "instance.mediators[0].user_costs[0]: '1.5\\n' is not"),
        ("instance", _set(["advertisers", 0, "capacity"], 10**12), "capacity 1000000000000 > alpha*tau"),
        ("instance", _replace_file("[" * 200_000), "top level: nested too deeply to read"),
        ("report", _replace_file("[" * 200_000), "top level: nested too deeply to read"),
        ("instance", _repeat_key("kind", '"instance"'), "repeated object key 'kind'"),
        ("reports", _repeat_key("m0", '["1"]'), "repeated object key 'm0'"),
        ("report", _repeat_key("outcome", "{}"), "repeated object key 'outcome'"),
    ],
)
def test_malformed_files_exit_one_with_field_path(tmp_path, capsys, target, edit, where):
    inst = _generate(tmp_path)
    report = tmp_path / "report.json"
    assert main(["run", "--instance", str(inst), "--alpha", "1", "--seed", "3", "-o", str(report)]) == 0
    docs = {
        "instance": (inst, json.loads(inst.read_text())),
        "reports": (tmp_path / "reports.json", _truthful_reports_doc(json.loads(inst.read_text()))),
        "report": (report, json.loads(report.read_text())),
    }
    path, doc = docs[target]
    text = edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n" if text is None else text)
    if target == "report":
        argv = ["replay", str(report)]
    else:
        argv = ["run", "--instance", str(inst), "--alpha", "1", "-o", str(tmp_path / "out.json")]
        if target == "reports":
            argv += ["--reports", str(path)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert where in err


def test_run_and_replay_a_report_claiming_capacity_10_12(tmp_path, capsys):
    """One advertiser reports 10^12 slots at the top value of an organic
    market priced by real thresholds: run and replay both exit 0, whether
    the claim is observed (and prices the run) or arrives and trades."""
    inst_path = _organic_file(tmp_path)
    reports = _truthful_reports_doc(json.loads(inst_path.read_text()))
    reports["advertiser_slots"]["a0"] = {"capacity": 10**12, "value": "3"}
    rep_path = tmp_path / "reports.json"
    rep_path.write_text(json.dumps(reports) + "\n")
    seen = set()
    for seed in range(4):
        out = tmp_path / f"run{seed}.json"
        assert main(["run", "--instance", str(inst_path), "--reports", str(rep_path),
                     "--alpha", "1/70", "--seed", str(seed), "-o", str(out)]) == 0
        assert main(["replay", str(out)]) == 0
        outcome = json.loads(out.read_text())["outcome"]
        assert outcome["thresholds"]["user_key"] is not None
        traded = any(t["slot"].startswith("a0:") for e in outcome["events"] for t in e["trades"])
        observed = outcome["arrival_order"][: outcome["observation_count"]]
        seen.add("observed" if "a0" in observed else "traded" if traded else "idle")
    assert {"observed", "traded"} <= seen
    assert capsys.readouterr().out.count("replay matches recorded outcome exactly") == 4


def test_replay_of_a_deeply_nested_outcome_names_the_first_line(tmp_path, capsys):
    inst = _generate(tmp_path)
    report = tmp_path / "report.json"
    assert main(["run", "--instance", str(inst), "--alpha", "1", "--seed", "3", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["outcome"] = "@"
    report.write_text(json.dumps(doc).replace('"@"', "[" * 900 + "]" * 900))
    capsys.readouterr()
    assert main(["replay", str(report)]) == 1
    assert capsys.readouterr().out == "replay diverges at outcome: recorded a list vs fresh an object\n"


def test_replay_of_a_schema_2_report_exits_one(tmp_path, capsys):
    """A report as the schema-2 writer wrote it (indented, every
    ``schema_version`` at 2) is refused with the version named, no traceback."""
    inst = _generate(tmp_path)
    report = tmp_path / "report.json"
    assert main(["run", "--instance", str(inst), "--alpha", "1", "--seed", "3", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["schema_version"] = doc["instance"]["schema_version"] = 2
    report.write_text(json.dumps(doc, indent=2) + "\n")
    with pytest.raises(ParseError) as err:
        run_report_from_text(report.read_text())
    assert str(err.value) == "run_report.schema_version: got 2, this reader understands 6"
    capsys.readouterr()
    assert main(["replay", str(report)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: run_report.schema_version: got 2, this reader understands 6\n")


@pytest.mark.parametrize(
    "option, spec, message",
    [
        ("--cost", "constant:-0", "--cost: '-0' is not in canonical form, write '0'"),
        ("--cost", "uniform:007.5:8", "--cost: '007.5' is not in canonical form, write '7.5'"),
        ("--value", "uniform:1:7.50", "--value: '7.50' is not in canonical form, write '7.5'"),
        ("--value", "constant:0.0", "--value: '0.0' is not in canonical form, write '0'"),
        ("--cost", "lognormal:0:1:1.000000", "--cost: '1.000000' is not in canonical form, write '1'"),
    ],
    ids=["minus-zero", "leading-zeros", "trailing-zero", "zero-point-zero", "six-trailing-zeros"],
)
def test_money_specs_reject_spellings_the_writer_never_writes(tmp_path, capsys, option, spec, message):
    argv = ["generate", "--mediators", "3", "--advertisers", "3", "--alpha", "1", option, spec]
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "option, spec, line",
    [
        ("--cost", "lognormal:800:1", "generation failed: lognormal:800.0:1.0 drew an amount too large to represent"),
        ("--cost", "lognormal:0:inf", "error: --cost: lognormal MU and SIGMA must be finite, got 0.0 and inf"),
        ("--value", "lognormal:1e400:1", "error: --value: lognormal MU and SIGMA must be finite, got inf and 1.0"),
        ("--value", "lognormal:nan:1", "error: --value: lognormal MU and SIGMA must be finite, got nan and 1.0"),
        ("--cost", "lognormal:0:-1", "error: --cost: lognormal SIGMA must be > 0, got -1.0"),
    ],
    ids=["draw-overflows", "infinite-sigma", "mu-overflows-float", "nan-mu", "negative-sigma"],
)
def test_lognormal_specs_that_cannot_draw_exit_one(tmp_path, capsys, option, spec, line):
    """A non-finite MU or SIGMA, or a SIGMA <= 0, is refused by the option
    that holds it; a finite spec whose draw overflows fails the generation.
    Neither is a traceback."""
    argv = ["generate", "--mediators", "3", "--advertisers", "3", "--alpha", "1", option, spec]
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("option", ["--cost", "--value"])
def test_money_specs_reject_an_empty_uniform_range(tmp_path, capsys, option):
    argv = ["generate", "--mediators", "3", "--advertisers", "3", "--alpha", "1", option, "uniform:2:1"]
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"error: {option}: empty uniform range: low is above high\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("option", ["--users", "--capacity"])
def test_count_specs_reject_an_empty_uniform_range(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--mediators", "3", "--advertisers", "3", "--alpha", "1", option, "uniform:3:1"])
    assert exc.value.code == 2
    assert f"argument {option}: empty uniform range: low is above high" in capsys.readouterr().err


@pytest.mark.parametrize(
    "counts, message",
    [
        (["--mediators", "-1", "--advertisers", "2"], "argument --mediators: '-1': a count cannot be negative"),
        (["--mediators", "2", "--advertisers", "-3"], "argument --advertisers: '-3': a count cannot be negative"),
        (["--mediators", "2", "--advertisers", "2", "--users", "constant:-1"], "argument --users: '-1': a count cannot be negative"),
        (["--mediators", "2", "--advertisers", "2", "--users", "uniform:-1:3"], "argument --users: '-1': a count cannot be negative"),
        (["--mediators", "2", "--advertisers", "2", "--capacity", "uniform:-2:-1"], "argument --capacity: '-2': a count cannot be negative"),
        (["--mediators", "x", "--advertisers", "2"], "argument --mediators: invalid int value: 'x'"),
        (["--mediators", "2", "--advertisers", "2", "--capacity", "constant:x"], "argument --capacity: invalid int value: 'x'"),
    ],
    ids=["mediators", "advertisers", "users-constant", "users-low", "capacity-range", "mediators-not-int", "capacity-not-int"],
)
def test_negative_or_non_integer_counts_exit_two_naming_the_option(tmp_path, capsys, counts, message):
    """Refused when the arguments are parsed, not after the generator's draws."""
    with pytest.raises(SystemExit) as exc:
        main(["generate", *counts, "--alpha", "1", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("options", [["--alpha", "1e50000000"], ["--alpha", "1", "--r", "1e-50000000"]])
def test_a_fraction_of_too_many_digits_is_refused_when_parsing(capsys, options):
    """Such a text would make ``Fraction`` build 10**50000000; argparse
    refuses it before it is built (exit 2), in well under a second."""
    option, text = options[-2:]
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--instance", "never-read.json", *options])
    assert exc.value.code == 2 and time.perf_counter() - start < 1
    assert f"argument {option}: {text!r} spells a fraction of more than 4300 digits" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0", "2", "-1/2", "3/2"])
def test_generate_refuses_an_alpha_outside_zero_one_when_parsing(tmp_path, capsys, alpha):
    """No instance meets 1/tau <= alpha <= 1 for such an alpha: refused with
    exit 2 naming the option, not after the generator's futile draws."""
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--mediators", "3", "--advertisers", "3", f"--alpha={alpha}", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert f"argument --alpha: {alpha!r}: alpha must be in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("alpha", ["0", "2"])
def test_run_and_verify_refuse_such_an_alpha_with_exit_one(tmp_path, capsys, command, alpha):
    """They keep naming it against the instance's tau."""
    inst = _generate(tmp_path)
    capsys.readouterr()
    argv = [command, "--instance", str(inst), "--alpha", alpha] + (["-o", str(tmp_path / "r.json")] if command == "run" else ["--runs", "2"])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: instance: alpha={alpha} outside [1/tau, 1]")


def test_count_specs_may_start_at_zero(tmp_path):
    """Zero is a count: a range from 0 keeps generating."""
    path = tmp_path / "x.json"
    argv = ["generate", "--mediators", "3", "--advertisers", "3", "--alpha", "1", "--seed", "4", "-o", str(path)]
    assert main(argv + ["--users", "uniform:0:3", "--capacity", "uniform:0:3"]) == 0
    assert json.loads(path.read_text(encoding="utf-8"))["kind"] == "instance"


def test_verify_passes_on_truthful_standard(tmp_path, capsys):
    inst = _organic_file(tmp_path)
    code = main(["verify", "--instance", str(inst), "--alpha", "1/70",
                 "--runs", "8", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "0 violations" in out


def test_verify_with_incentive_sweep(tmp_path, capsys):
    inst = _organic_file(tmp_path, seed=5)
    code = main(["verify", "--instance", str(inst), "--alpha", "1/70",
                 "--runs", "4", "--deviations", "2", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "incentive sweep" in out
    assert "PASS" in out


def test_verify_handles_a_mediator_with_no_users(tmp_path, capsys):
    path = tmp_path / "zero_user.json"
    path.write_text(instance_to_text(zero_user_instance()), encoding="utf-8")
    code = main(["verify", "--instance", str(path), "--alpha", "1",
                 "--runs", "4", "--deviations", "5", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "incentive sweep: 60 deviation comparisons, 0 profitable deviations" in out
    assert "PASS" in out


def test_verify_counts_only_profitable_lines_as_profitable_deviations(tmp_path, capsys, monkeypatch):
    inst = _organic_file(tmp_path, seed=5)
    invariant = "surplus_invariant[deviant]: event 3: 1 assignable users and 1 assignable slots both left unassigned"
    swept = SweepResult(deviation_pairs=4, violations=[invariant])
    monkeypatch.setattr(verify, "incentive_sweep", lambda *args, **kwargs: swept)
    code = main(["verify", "--instance", str(inst), "--alpha", "1/70",
                 "--runs", "4", "--deviations", "2", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "incentive sweep: 4 deviation comparisons, 0 profitable deviations" in out
    assert f"  {invariant}" in out
    assert "FAIL" in out


def test_verify_fails_on_broken_payment_variant(tmp_path, capsys):
    inst = _organic_file(tmp_path, seed=2)
    code = main(["verify", "--instance", str(inst), "--alpha", "1/70",
                 "--runs", "8", "--seed", "1",
                 "--engine-variant", "skip_user_payment_updates"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "options, message",
    [
        (["--runs", "0"], "--runs must be >= 1, got 0"),
        (["--runs", "-3", "--deviations", "2"], "--runs must be >= 1, got -3"),
        (["--deviations", "-1"], "--deviations must be >= 0, got -1"),
    ],
    ids=["zero-runs", "negative-runs", "negative-deviations"],
)
def test_verify_that_would_check_nothing_exits_one(tmp_path, capsys, options, message):
    inst = _organic_file(tmp_path)
    code = main(["verify", "--instance", str(inst), "--alpha", "1/70", "--seed", "1", *options])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"error: {message}\n"
    assert "PASS" not in out


def test_experiment_events_csv(tmp_path):
    out = tmp_path / "events.csv"
    code = main(["experiment", "events", "--alphas", "1/10",
                 "--seeds", "12", "-o", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["alpha"] == "1/10"
    assert 0.0 <= float(rows[0]["event_rate"]) <= 1.0
    assert rows[0]["meets_bound"] in ("True", "False")


def test_experiment_ratio_csv_to_stdout(capsys):
    code = main(["experiment", "ratio", "--alphas", "1/5", "--seeds", "6"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "alpha"
    assert "mean_ratio" in header
    assert len(lines) == 2


@pytest.mark.parametrize("kind", ["ratio", "events"])
def test_experiments_refuse_a_family_too_large_to_build(capsys, monkeypatch, kind):
    """alpha = 1/10^9 asks for a matched family of 2 * 10^9 entities: exit 1
    with the alpha named, before any instance is generated."""
    def refuse(config):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(generate, "generate_instance", refuse)
    assert main(["experiment", kind, "--alphas", "1/1000000000", "--seeds", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: alpha = 1/1000000000 gives a matched family of 2000000000 entities,"
        " more than MAX_FAMILY_ENTITIES = 100000\n"
    )


def test_missing_instance_file_is_reported(tmp_path, capsys):
    code = main(["run", "--instance", str(tmp_path / "nope.json"), "--alpha", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "ratio", "--alphas", "1/5", "--seeds", "0"],
        ["experiment", "events", "--alphas", "1/5", "--seeds", "0"],
        ["experiment", "ratio", "--alphas", "0"],
        ["experiment", "events", "--alphas=-1/5"],
        ["replay", "{tmp}"],
        ["experiment", "ratio", "--alphas", "1/5", "--seeds", "2", "-o", "{tmp}"],
    ],
    ids=["ratio-zero-seeds", "events-zero-seeds", "alpha-zero", "alpha-negative", "replay-directory", "output-directory"],
)
def test_bad_arguments_and_paths_exit_one_without_traceback(tmp_path, capsys, argv):
    code = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--instance", "x.json", "--alpha", "not-a-fraction"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--mediators", "2", "--advertisers", "2",
              "--alpha", "1", "--users", "lognormal:0:1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--mediators", "3", "--advertisers", "3", "--alpha", "1"],
        ["run", "--instance", "{inst}", "--alpha", "1"],
        ["verify", "--instance", "{inst}", "--alpha", "1", "--runs", "1"],
        ["experiment", "ratio", "--alphas", "1/5", "--seeds", "2"],
    ],
    ids=["generate", "run", "verify", "experiment"],
)
def test_a_malformed_env_seed_exits_one_where_a_seed_is_read(tmp_path, capsys, monkeypatch, argv):
    argv = [a.format(inst=_generate(tmp_path)) for a in argv]
    monkeypatch.setenv("OBSERVEPRICE_SEED", "abc")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: OBSERVEPRICE_SEED: 'abc' is not an integer\n"
    assert captured.out == ""
    assert main(argv + ["--seed", "1"]) == 0  # an explicit --seed never reads the variable


def test_replay_ignores_a_malformed_env_seed(tmp_path, capsys, monkeypatch):
    inst = _generate(tmp_path)
    report = tmp_path / "report.json"
    assert main(["run", "--instance", str(inst), "--alpha", "1", "--seed", "3", "-o", str(report)]) == 0
    monkeypatch.setenv("OBSERVEPRICE_SEED", "abc")
    assert main(["replay", str(report)]) == 0
    captured = capsys.readouterr()
    assert "matches" in captured.out and captured.err == ""
