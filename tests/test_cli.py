import json

import pytest

from qsdc_swap.cli import bits_to_text, main, text_to_bits


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_text_bits_round_trip():
    bits = text_to_bits("hi")
    assert len(bits) == 16
    assert bits_to_text(bits) == "hi"
    with pytest.raises(ValueError):
        bits_to_text("010")


def test_identities_mode_exits_zero(capsys):
    assert run_cli("--mode", "identities") == 0
    out = capsys.readouterr().out
    assert "all 10 identity checks passed" in out
    assert "FAIL" not in out


def test_identities_failure_exits_one(capsys, monkeypatch):
    from qsdc_swap import analysis, cli

    broken = analysis.IdentityCheck("forced failure", False, 1.0)
    monkeypatch.setattr(cli.analysis, "run_identities", lambda: [broken])
    assert run_cli("--mode", "identities") == 1
    assert "FAIL forced failure" in capsys.readouterr().out


def test_session_example(capsys, tmp_path):
    out = tmp_path / "session.json"
    code = run_cli(
        "--mode", "session",
        "--n-groups", "4",
        "--n-checking", "2",
        "--bits", "0110",
        "--strategy", "none",
        "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict: clean" in printed
    assert "decoded bits: 0110" in printed
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "clean"
    assert doc["decoded_bits"] == "0110"
    assert len(doc["groups"]) == 4


def test_session_requires_seed():
    with pytest.raises(SystemExit) as err:
        run_cli("--mode", "session", "--n-groups", "1", "--n-checking", "1")
    assert err.value.code == 2


def test_session_bits_capacity_mismatch_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli(
            "--mode", "session",
            "--n-groups", "2",
            "--n-checking", "1",
            "--bits", "0110",
            "--seed", "1",
        )
    assert err.value.code == 2


def test_session_infers_group_count_from_text(capsys):
    code = run_cli(
        "--mode", "session", "--text", "A", "--n-checking", "1", "--seed", "13"
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert f"decoded bits: {text_to_bits('A')}" in printed


def test_session_abort_has_empty_encoding(tmp_path):
    out = tmp_path / "abort.json"
    # enough checking groups that the replacement attack is caught
    for seed in range(6):
        run_cli(
            "--mode", "session",
            "--n-groups", "8",
            "--n-checking", "6",
            "--bits", "0110",
            "--strategy", "replace-after",
            "--seed", str(seed),
            "--out", str(out),
        )
        doc = json.loads(out.read_text())
        if doc["verdict"] == "eve-detected":
            assert doc["encoding"] == []
            assert doc["decoded_bits"] == ""
            return
    pytest.fail("replacement attack never detected across six seeds")


def test_detect_mode_report(capsys, tmp_path):
    out = tmp_path / "detect.json"
    code = run_cli(
        "--mode", "detect",
        "--strategy", "replace-after",
        "--predicate", "announced-op",
        "--out", str(out),
    )
    assert code == 0
    assert "p_exact=0.75" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["strategy"] == "replace-after"
    assert doc["p_exact"] == pytest.approx(0.75, abs=1e-12)
    assert doc["paper_claim"] == 0.75
    assert doc["p_mc"] is None


def test_detect_without_trials_records_no_seed(tmp_path):
    out = tmp_path / "detect.json"
    assert run_cli("--mode", "detect", "--strategy", "none", "--seed", "5", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 0
    assert doc["seed"] is None


def test_detect_requires_strategy():
    with pytest.raises(SystemExit) as err:
        run_cli("--mode", "detect")
    assert err.value.code == 2


def test_detect_unknown_strategy_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("--mode", "detect", "--strategy", "teleport")
    assert err.value.code == 2


def test_detect_trials_need_seed():
    with pytest.raises(SystemExit) as err:
        run_cli("--mode", "detect", "--strategy", "none", "--trials", "100")
    assert err.value.code == 2


def test_detect_bad_node_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QSDC_NODE_BUDGET", "0")
    assert run_cli("--mode", "detect", "--strategy", "none") == 2
    assert "QSDC_NODE_BUDGET" in capsys.readouterr().err


def test_detect_budget_overflow_exits_2(monkeypatch, capsys):
    # detect and sweep enumerate whatever --trials says, so the advice
    # names only the budget
    monkeypatch.setenv("QSDC_NODE_BUDGET", "10")
    for argv in (
        ("--mode", "detect", "--strategy", "replace-before"),
        ("--mode", "sweep", "--trials", "500", "--seed", "1"),
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "QSDC_NODE_BUDGET" in err and "--trials" not in err


def test_leakage_mode(capsys, tmp_path):
    out = tmp_path / "leak.json"
    code = run_cli("--mode", "leakage", "--strategy", "measure-resend", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["eve_guess_accuracy"] == pytest.approx(1.0, abs=1e-12)
    assert doc["chance_level"] == 0.25


@pytest.mark.parametrize(
    "argv", [("--mode", "leakage", "--strategy", "measure-resend"), ("--mode", "identities")]
)
def test_json_only_modes_reject_csv_format(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--format", "csv", "--out", str(out))
    assert err.value.code == 2
    assert "--format csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,config,named",
    [
        (("--mode", "identities", "--strategy", "bogus"), None, "--strategy bogus"),
        (("--mode", "session", "--seed", "1", "--bits", "01", "--trials", "5"), None,
         "--trials 5"),
        (("--mode", "leakage", "--strategy", "none", "--predicate", "strict-u0"), None,
         "--predicate strict-u0"),
        (("--mode", "detect", "--strategy", "none", "--n-groups", "3"), None, "--n-groups 3"),
        (("--mode", "sweep", "--trials", "0", "--text", "hi"), None, "--text hi"),
        ((), {"mode": "leakage", "strategy": "none", "seed": 3}, "--seed 3"),
        (("--mode", "sweep", "--trials", "0", "--format", "csv"), None, "--format needs --out"),
        (("--mode", "session", "--seed", "1", "--bits", "01", "--format", "csv"), None,
         "--format needs --out"),
    ],
)
def test_keys_the_mode_does_not_read_exit_2(argv, config, named, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ("--config", str(path))
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    assert named in capsys.readouterr().err


def test_sweep_exact_only_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("--mode", "sweep", "--trials", "0", "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 13  # header + 6 strategies x 2 predicates
    assert lines[0].startswith("strategy,predicate,")


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "sweep", "--trials", "-5", "--seed", "1"),
        ("--mode", "detect", "--strategy", "none", "--trials", "-5", "--seed", "1"),
    ],
)
def test_negative_trials_exit_2(argv, tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--out", str(out))
    assert err.value.code == 2
    assert not out.exists()


def test_config_file_negative_trials_exit_2(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": "sweep", "trials": -5, "seed": 1}))
    with pytest.raises(SystemExit) as err:
        run_cli("--config", str(cfg))
    assert err.value.code == 2


def test_sweep_sampling_requires_seed():
    with pytest.raises(SystemExit) as err:
        run_cli("--mode", "sweep", "--trials", "50")
    assert err.value.code == 2


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli(
            "--mode", "sweep", "--trials", "400", "--seed", "31",
            "--out", str(path),
        )
    assert read_bytes(a) == read_bytes(b)

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for path in (c, d):
        run_cli(
            "--mode", "session",
            "--n-groups", "3", "--n-checking", "1", "--bits", "1011",
            "--seed", "77", "--out", str(path),
        )
    assert read_bytes(c) == read_bytes(d)


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "mode": "session",
                "n_groups": 2,
                "n_checking": 0,
                "bits": "0101",
                "seed": 5,
            }
        )
    )
    assert run_cli("--config", str(config)) == 0
    first = capsys.readouterr().out
    assert "decoded bits: 0101" in first
    # flags override the file
    assert run_cli("--config", str(config), "--bits", "1111") == 0
    assert "decoded bits: 1111" in capsys.readouterr().out


def test_config_file_unknown_key_exits_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "sweep", "lasers": 9}))
    with pytest.raises(SystemExit) as err:
        run_cli("--config", str(config))
    assert err.value.code == 2


def test_missing_mode_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("--seed", "4")
    assert err.value.code == 2


def test_session_csv_projection(tmp_path):
    out = tmp_path / "session.csv"
    run_cli(
        "--mode", "session",
        "--n-groups", "2", "--n-checking", "1", "--bits", "01",
        "--seed", "3", "--out", str(out), "--format", "csv",
    )
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "phase,group,op,alice,bob,passed,word"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "config,key",
    [
        ({"mode": "session", "seed": 1, "n_groups": "3", "bits": "01"}, "n_groups"),
        ({"mode": "session", "seed": 1, "n_groups": 2.0, "bits": "0101"}, "n_groups"),
        ({"mode": "session", "seed": True, "bits": "01"}, "seed"),
        ({"mode": "session", "seed": 1, "bits": 1}, "bits"),
    ],
)
def test_config_file_value_types_exit_2(config, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        run_cli("--config", str(path))
    assert err.value.code == 2
    assert f"config key {key!r}" in capsys.readouterr().err


def test_config_file_format_choice_exits_2(tmp_path, capsys):
    out = tmp_path / "session.xml"
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"mode": "session", "seed": 1, "bits": "01", "format": "xml", "out": str(out)})
    )
    with pytest.raises(SystemExit) as err:
        run_cli("--config", str(path))
    assert err.value.code == 2
    assert "config key 'format' must be one of json, csv" in capsys.readouterr().err
    assert not out.exists()
