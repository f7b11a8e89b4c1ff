"""Session harness and command-line surface: validation, determinism, exit codes."""

import dataclasses
import hashlib
import json
from unittest import mock

import pytest

from qkdsim.cli import main
from qkdsim.eavesdrop import InterceptResend, NoAttack, StuckFilter
from qkdsim.harness import (
    SWEEP_HEADER,
    InvalidConfig,
    SessionConfig,
    aggregate,
    attack_sweep,
    report_document,
    run,
    run_trial,
    sweep_to_csv,
    to_json,
)
from qkdsim.photons import Polarization, ResendPolicy
from qkdsim.session import Session

THREE_STATE = "three_state"


# -- configuration validation --------------------------------------------------


def test_validate_accepts_minimal_configs():
    for config in (SessionConfig(protocol=THREE_STATE, n=10), SessionConfig("bb84", 10, 2)):
        assert config.validate() is config


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(protocol="b92", n=10), "protocol"),
        (dict(protocol=THREE_STATE, n=0), "n:"),
        (dict(protocol=THREE_STATE, n=10, trials=0), "trials"),
        (dict(protocol="bb84", n=10), "m:"),
        (dict(protocol="bb84", n=10, m=-1), "m:"),
        (dict(protocol=THREE_STATE, n=10, m=3), "m:"),
        # Exact types: each would otherwise fail deep in numpy, or run.
        (dict(protocol=THREE_STATE, n=54.9), "n:"),
        (dict(protocol=THREE_STATE, n=True), "n:"),
        (dict(protocol="bb84", n=10, m=2.0), "m:"),
        (dict(protocol=THREE_STATE, n=10, seed="7"), "seed:"),
        (dict(protocol=THREE_STATE, n=10, trials=2.0), "trials:"),
        (dict(protocol=THREE_STATE, n=10, abort_on_tamper="false"), "abort_on_tamper:"),
        (dict(protocol=THREE_STATE, n=10, include_transcripts=1), "include_transcripts:"),
        (dict(protocol=THREE_STATE, n=10, attack="intercept"), "attack:"),
        (dict(protocol=["bb84"], n=10), "protocol"),
    ],
)
def test_validate_rejects_with_field_name(kwargs, needle):
    # No unchecked config exists: building one checks it, and so does replace.
    with pytest.raises(InvalidConfig, match=needle):
        SessionConfig(**kwargs)
    with pytest.raises(InvalidConfig, match=needle):
        dataclasses.replace(SessionConfig(protocol=THREE_STATE, n=10), **kwargs)


# -- session execution ----------------------------------------------------------


def test_counts_are_mutually_consistent():
    for config in (
        SessionConfig(protocol=THREE_STATE, n=400, trials=3, seed=5),
        SessionConfig(protocol="bb84", n=400, m=4, trials=3, seed=5),
    ):
        for report in run(config):
            c = report["counts"]
            assert c["key"] + c["auth"] == c["confirmed"]
            assert sum(report["outcome_counts"].values()) == c["sent"]
            joint_total = sum(
                count for row in report["joint_counts"].values() for count in row.values()
            )
            assert joint_total == c["sent"]


def test_honest_trials_agree_and_do_not_abort():
    reports = run(SessionConfig(protocol=THREE_STATE, n=300, trials=5, seed=1))
    for report in reports:
        assert report["key_agreement"]["keys_match"]
        assert not report["aborted"]
        assert not report["tamper"]["tamper_detected"]


def _unread(session):
    raise AssertionError("a per-key-bit array was built")


@pytest.mark.parametrize(
    "attack", [NoAttack(), InterceptResend(fraction=0.5)], ids=["honest", "attacked"]
)
def test_bb84_trial_without_transcript_reads_no_key_bits(attack):
    # The parity rounds read the key length and the error ranks; the parties'
    # key bits are built only for a transcript.
    config = SessionConfig(
        protocol="bb84", n=3000, m=8, attack=attack, seed=4, abort_on_tamper=False
    )
    expected = to_json(run_trial(config, 0))
    unread = property(_unread)
    with mock.patch.object(Session, "alice_bits", unread), mock.patch.object(
        Session, "bob_bits", unread
    ):
        assert to_json(run_trial(config, 0)) == expected


def test_trials_get_distinct_derived_seeds():
    reports = run(SessionConfig(protocol=THREE_STATE, n=50, trials=8, seed=0))
    assert len({r["seed"] for r in reports}) == 8


def test_serialized_batch_is_byte_identical_across_runs():
    config = SessionConfig(protocol="bb84", n=200, m=3, trials=4, seed=9)
    first = to_json(report_document(config, run(config)))
    second = to_json(report_document(config, run(config)))
    assert first == second


def test_abort_on_tamper_suppresses_key_output():
    config = SessionConfig(
        protocol=THREE_STATE, n=600, seed=2, attack=InterceptResend(fraction=1.0)
    )
    report = run(config)[0]
    assert report["aborted"]
    assert report["key_agreement"] is None
    relaxed = run(
        SessionConfig(
            protocol=THREE_STATE,
            n=600,
            seed=2,
            attack=InterceptResend(fraction=1.0),
            abort_on_tamper=False,
        )
    )[0]
    assert not relaxed["aborted"]
    assert relaxed["key_agreement"] is not None


def test_transcripts_only_when_requested():
    config = SessionConfig(protocol=THREE_STATE, n=30, seed=4)
    assert "transcript" not in run(config)[0]
    with_t = SessionConfig(protocol=THREE_STATE, n=30, seed=4, include_transcripts=True)
    transcript = run(with_t)[0]["transcript"]
    assert {e["kind"] for e in transcript} == {
        "filter_announcement",
        "confirmation_announcement",
    }


def test_aggregate_is_order_independent():
    reports = run(SessionConfig(protocol=THREE_STATE, n=200, trials=6, seed=11))
    assert aggregate(reports) == aggregate(list(reversed(reports)))


def test_aggregate_rates():
    reports = run(
        SessionConfig(
            protocol=THREE_STATE,
            n=2000,
            trials=4,
            seed=13,
            attack=StuckFilter(angle=Polarization.Z0),
            abort_on_tamper=False,
        )
    )
    agg = aggregate(reports)
    assert agg["detection_rate"] == 1.0
    assert agg["key_error_rate"] == 0.0  # the stuck reader never corrupts key bits
    assert abs(agg["auth_failure_rate"] - 0.5) < 0.05


def test_aggregate_requires_reports():
    with pytest.raises(InvalidConfig):
        aggregate([])


def test_short_bb84_key_is_a_trial_status_not_a_batch_failure():
    # At n=20 a sifted key of 6 bits or fewer, too short for 6 rounds,
    # turns up in a few of 200 trials.
    reports = run(SessionConfig(protocol="bb84", n=20, m=6, trials=200, seed=0))
    assert len(reports) == 200
    short = [r for r in reports if "status" in r]
    assert short
    for r in short:
        assert r["status"] == "key_too_short"
        assert r["counts"]["confirmed"] <= 6
        assert r["counts"]["key"] == 0 and r["counts"]["auth"] == 0
        assert r["key_agreement"] is None and not r["aborted"]
    full = [r for r in reports if "status" not in r]
    for r in full:
        assert r["key_agreement"] is not None
    assert aggregate(reports)["key_too_short_trials"] == len(short)
    assert "key_too_short_trials" not in aggregate(full)


# -- attack sweep ----------------------------------------------------------------


def test_sweep_rejects_bb84_base():
    with pytest.raises(InvalidConfig):
        attack_sweep(SessionConfig(protocol="bb84", n=100, m=2))


def test_sweep_checks_its_whole_grid_before_the_first_session():
    base = SessionConfig(protocol=THREE_STATE, n=90)
    with mock.patch("qkdsim.harness.run", side_effect=AssertionError("a cell ran")):
        with pytest.raises(ValueError, match="fraction"):
            attack_sweep(base, fractions=(1.0, 1.5))


def test_sweep_grid_shape_and_header():
    base = SessionConfig(protocol=THREE_STATE, n=900, seed=3)
    rows = attack_sweep(
        base,
        filter_choices=[None, Polarization.Z0],
        policies=[ResendPolicy.ORTHOGONAL_INFERENCE, ResendPolicy.SEND_NOTHING],
        fractions=[0.0, 1.0],
    )
    assert len(rows) == 8
    csv_text = sweep_to_csv(rows)
    lines = csv_text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert (
        SWEEP_HEADER
        == "policy, fraction, empirical_failure, oracle_failure, paper_model, "
        "detection_rate, key_error_rate"
    )
    assert len(lines) == 9
    assert lines[1].startswith("uniform/orthogonal, 0.0")


def test_sweep_zero_fraction_rows_are_clean():
    base = SessionConfig(protocol=THREE_STATE, n=900, seed=3)
    rows = attack_sweep(base, filter_choices=[None], fractions=[0.0])
    for row in rows:
        assert row.empirical_failure == 0.0
        assert row.key_error_rate == 0.0
        assert row.oracle_failure == 0.0
        assert row.detection_rate == 0.0


def test_sweep_send_nothing_fails_more_than_inference():
    base = SessionConfig(protocol=THREE_STATE, n=4000, seed=7)
    rows = attack_sweep(
        base,
        filter_choices=[None],
        policies=[ResendPolicy.ORTHOGONAL_INFERENCE, ResendPolicy.SEND_NOTHING],
        fractions=[1.0],
    )
    inference, nothing = rows
    assert nothing.empirical_failure > inference.empirical_failure
    assert nothing.oracle_failure > inference.oracle_failure
    assert inference.paper_model == pytest.approx(2 / 3)


# -- CLI -------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_simulate_json(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--protocol", "three-state", "--n", "200", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["protocol"] == "three_state"
    assert len(doc["trials"]) == 1


def test_cli_requires_protocol(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "100")
    assert code == 1
    assert "protocol" in err


def test_cli_rejects_m_for_three_state(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--protocol", "three-state", "--n", "50", "--m", "3"
    )
    assert code == 1
    assert "m:" in err


def test_cli_tamper_abort_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--protocol",
        "three-state",
        "--n",
        "600",
        "--seed",
        "2",
        "--attack",
        "intercept",
    )
    assert code == 2
    # The report is still written before the abort status is returned.
    doc = json.loads(out)
    assert doc["trials"][0]["aborted"] is True


def test_cli_no_abort_flag_restores_success(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--protocol",
        "three-state",
        "--n",
        "600",
        "--seed",
        "2",
        "--attack",
        "intercept",
        "--no-abort-on-tamper",
    )
    assert code == 0
    assert json.loads(out)["trials"][0]["aborted"] is False


def test_cli_output_files_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--protocol",
            "bb84",
            "--n",
            "150",
            "--m",
            "2",
            "--trials",
            "3",
            "--seed",
            "42",
            "--output",
            str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_bb84_batch_with_short_keys_succeeds(tmp_path, capsys):
    path = tmp_path / "short.json"
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--protocol",
        "bb84",
        "--n",
        "20",
        "--m",
        "6",
        "--trials",
        "200",
        "--seed",
        "0",
        "--output",
        str(path),
    )
    assert code == 0, err
    doc = json.loads(path.read_text())
    assert len(doc["trials"]) == 200
    assert doc["aggregate"]["key_too_short_trials"] == sum(
        1 for t in doc["trials"] if t.get("status") == "key_too_short"
    ) > 0


def test_cli_env_seed_and_flag_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QKDSIM_SEED", "900")
    _, out_env, _ = run_cli(capsys, "simulate", "--protocol", "three-state", "--n", "50")
    assert json.loads(out_env)["config"]["seed"] == 900
    _, out_flag, _ = run_cli(
        capsys, "simulate", "--protocol", "three-state", "--n", "50", "--seed", "1"
    )
    assert json.loads(out_flag)["config"]["seed"] == 1
    monkeypatch.setenv("QKDSIM_SEED", "abc")
    code, out_bad, err = run_cli(capsys, "simulate", "--protocol", "three-state", "--n", "50")
    assert code == 1
    assert out_bad == ""
    assert err == "error: argument --seed: invalid int value: 'abc'\n"


def test_cli_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps({"protocol": "three-state", "n": 80, "seed": 7, "trials": 2})
    )
    _, out, _ = run_cli(capsys, "simulate", "--config", str(config_path))
    doc = json.loads(out)
    assert doc["config"]["n"] == 80
    assert doc["config"]["seed"] == 7
    assert doc["config"]["trials"] == 2
    # Command line overrides the file.
    _, out2, _ = run_cli(
        capsys, "simulate", "--config", str(config_path), "--n", "40", "--seed", "1"
    )
    doc2 = json.loads(out2)
    assert doc2["config"]["n"] == 40
    assert doc2["config"]["seed"] == 1
    # The file beats QKDSIM_SEED.
    monkeypatch.setenv("QKDSIM_SEED", "900")
    _, out3, _ = run_cli(capsys, "simulate", "--config", str(config_path))
    assert json.loads(out3)["config"]["seed"] == 7

    compare_path = tmp_path / "compare.json"
    compare_path.write_text(json.dumps({"n": 54, "m": 6}))
    _, out, _ = run_cli(capsys, "compare", "--config", str(compare_path))
    assert (json.loads(out)["n"], json.loads(out)["m"]) == (54, 6)
    _, out, _ = run_cli(capsys, "compare", "--config", str(compare_path), "--m", "3")
    assert (json.loads(out)["n"], json.loads(out)["m"]) == (54, 3)

    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(
        json.dumps(
            {"n": 300, "seed": 4, "fractions": "0.5", "eve_filters": "z0",
             "resend_policies": "nothing", "format": "json"}
        )
    )
    _, out, _ = run_cli(capsys, "attack-sweep", "--config", str(sweep_path))
    [row] = json.loads(out)["rows"]
    assert (row["policy"], row["fraction"]) == ("z0/nothing", 0.5)
    _, out, _ = run_cli(
        capsys, "attack-sweep", "--config", str(sweep_path), "--fractions", "1.0",
        "--format", "csv",
    )
    assert out.splitlines()[1].startswith("z0/nothing, 1.0, ")


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("abort_on_tamper", "false", "abort_on_tamper: expected true or false, got 'false'"),
        ("n", 54.9, "n: expected an integer, got 54.9"),
        ("trials", "x", "trials: expected an integer, got 'x'"),
        ("n", True, "n: expected an integer, got True"),
        ("include_transcripts", 1, "include_transcripts: expected true or false, got 1"),
        ("fraction", "0.5", "fraction: expected a number, got '0.5'"),
        ("trails", 5, "trails: not an option of qkdsim simulate"),
        ("format", "json", "format: not an option of qkdsim simulate"),
        (
            "stuck_angle",
            "uniform",
            "stuck_angle: expected one of z0, d45, z90, d135, got 'uniform'",
        ),
        ("attack", "mitm", "attack: expected one of none, passive, intercept, stuck, got 'mitm'"),
    ],
    ids=[
        "bool-as-str", "int-as-float", "int-as-str", "int-as-bool", "bool-as-int",
        "number-as-str", "unknown-key", "other-command-key", "stuck-angle-choice",
        "attack-choice",
    ],
)
def test_cli_config_file_rejects_mistyped_values(tmp_path, capsys, field, value, needle):
    values = {"protocol": "three-state", "n": 54, "attack": "intercept", "seed": 3}
    values[field] = value
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {needle}\n"


def test_cli_config_file_json_false_disables_abort(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps(
            {"protocol": "three-state", "n": 600, "seed": 2, "attack": "intercept",
             "abort_on_tamper": False}
        )
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config_path))
    assert code == 0
    assert json.loads(out)["config"]["abort_on_tamper"] is False


def test_cli_bad_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "simulate", "--protocol", "b92", "--n", "10")
    assert code == 1
    assert err


# SHA-256 of the analyze document: exact values, key order and formatting.
ANALYZE_DIGEST = "a5a6f33910bc5d66db96d9d13d64a3369edb2d523cc1dceab7fb1a152dcb4a2c"


def test_cli_analyze_document(capsys):
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_DIGEST
    doc = json.loads(out)
    assert doc["total_mass"] == "1"
    assert doc["entropies"]["mutual_info"]["bits_4dp"] == 0.2516
    assert doc["receiver_marginal"]["erasure"] == "4/9"
    assert doc["rates"]["key"] == "4/9"


# The compare document's bytes, per (n, m).
COMPARE_DIGEST = {
    (54, 6): "e97848a39c6d23cf72de319f2250f192e871a62026aaf5e8fa18d78902889c10",
    (108, 6): "37ebc91d668725e2e136dc2030b7ac259095110f291f3b24cfecee9fe4f1adc9",
    (200, 6): "3af12baaf4af75701398cbf5b0885c9eb48eb27ddebad945ee392310bad1ee19",
    (1, 0): "e3fbe8b3f7caef66e7e5c0ea0bf37132f882ef45bd63191656c29c4827cd7503",
}


@pytest.mark.parametrize("n, m", COMPARE_DIGEST)
def test_cli_compare_document_bytes(capsys, n, m):
    code, out, _ = run_cli(capsys, "compare", "--n", str(n), "--m", str(m))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPARE_DIGEST[(n, m)]


def test_cli_compare_documents(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "54", "--m", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["three_state"]["expected_key_bits"] == "24"
    assert doc["bb84"]["expected_key_bits"] == "21"
    assert doc["crossover_n"] == 108
    assert doc["favored_on_key"] == "three_state"

    _, out_equal, _ = run_cli(capsys, "compare", "--n", "108", "--m", "6")
    assert json.loads(out_equal)["equal_keys"] is True

    _, out_big, _ = run_cli(capsys, "compare", "--n", "200", "--m", "6")
    assert json.loads(out_big)["favored_on_key"] == "bb84"


def test_cli_attack_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "attack-sweep",
        "--n",
        "450",
        "--seed",
        "3",
        "--eve-filters",
        "uniform",
        "--resend-policies",
        "orthogonal",
        "--output",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == SWEEP_HEADER
    assert text.splitlines()[1].startswith("uniform/orthogonal, 1.0, ")


def test_cli_attack_sweep_unknown_filter(capsys):
    code, _, err = run_cli(
        capsys, "attack-sweep", "--n", "100", "--eve-filters", "sideways"
    )
    assert code == 1
    assert "eve-filters" in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["compare", "--n", "0", "--m", "6"], "n: need at least one photon, got 0"),
        (["compare", "--n", "54", "--m", "-1"], "m: round count must be non-negative, got -1"),
        (
            ["attack-sweep", "--n", "90", "--fractions", "abc"],
            "fractions: could not convert string to float: 'abc'",
        ),
        (
            ["attack-sweep", "--n", "90", "--fractions", "0.5,1.5"],
            "fractions: fraction must lie in [0, 1], got 1.5",
        ),
        (
            ["attack-sweep", "--n", "90", "--fractions", ""],
            "fractions: expected at least one entry, got ''",
        ),
        (
            ["attack-sweep", "--n", "90", "--eve-filters", ","],
            "eve-filters: expected at least one entry, got ','",
        ),
        (
            ["attack-sweep", "--n", "90", "--resend-policies", " "],
            "resend-policies: expected at least one entry, got ' '",
        ),
    ],
    ids=[
        "compare-n", "compare-m", "sweep-fractions", "sweep-fraction-range",
        "sweep-no-fractions", "sweep-no-filters", "sweep-no-policies",
    ],
)
def test_cli_errors_name_their_field(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {needle}\n"
