import hashlib
import json

import pytest

from qsdc_swap.cli import main, text_to_bits


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_text_to_bits_is_utf8():
    assert text_to_bits("hi") == "0110100001101001"
    assert text_to_bits("\u00e9") == "1100001110101001"  # UTF-8 C3 A9


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


def test_detect_without_trials_records_no_seed(tmp_path, capsys):
    out = tmp_path / "detect.json"
    assert run_cli("--mode", "detect", "--strategy", "none", "--seed", "5", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 0
    assert doc["seed"] is None
    assert capsys.readouterr().err == "--seed is unused: nothing is sampled\n"


def test_sweep_without_trials_records_no_seed(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run_cli("--mode", "sweep", "--trials", "0", "--seed", "4", "--out", str(out)) == 0
    assert capsys.readouterr().err == "--seed is unused: nothing is sampled\n"
    doc = json.loads(out.read_text())
    assert doc["trials"] == 0
    assert doc["seed"] is None
    assert all(row["seed"] is None for row in doc["rows"])
    assert run_cli("--mode", "sweep", "--trials", "0") == 0
    assert capsys.readouterr().err == ""


def test_sweep_samples_one_trial(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("--mode", "sweep", "--trials", "1", "--seed", "4", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 1
    for row in doc["rows"]:
        assert row["trials"] == 1 and row["p_mc"] is not None


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


@pytest.mark.parametrize("mode", ["session", "sweep"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_the_key_range_exits_2(mode, seed, capsys):
    argv = ["--mode", mode, "--seed", seed]
    if mode == "session":
        argv += ["--n-groups", "1", "--n-checking", "1"]
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    assert f"--seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


# SHA-256 of report bytes, frozen from the program before the projection
# kernel was rebuilt: byte identity across runs of one program would not
# catch a last-bit change of an exact figure.  Every strategy's leakage
# report is pinned, so a claimed figure beside a computed one is pinned too.
FROZEN_REPORTS = {
    ("sweep.json", "--mode", "sweep", "--trials", "2000", "--seed", "4", "--format", "json"):
        "32185d9132f53411245108d73e4ecc26775632c0a23b0f448bdf15e59eae0649",
    ("sweep.csv", "--mode", "sweep", "--trials", "2000", "--seed", "4", "--format", "csv"):
        "d9e3a4f6444afd0ca705d57122dbf75ea3ade02be8d6858977adb4f6351d364d",
    ("leakage.json", "--mode", "leakage", "--strategy", "replace-after"):
        "41165b5cf53ece082de32d17cec9cbbbf7f77260b835ccfb719ca107c76118e1",
    ("leakage.json", "--mode", "leakage", "--strategy", "none"):
        "471f1209de53d088af69213e7ea6bd5de4fe2a201734a0fd64fcc5cb83a44f36",
    ("leakage.json", "--mode", "leakage", "--strategy", "measure-resend"):
        "71c8fbe1499287cbfedfdef47bcab9bab57fdb4fa119f765c3fac3b88abfc47f",
    ("leakage.json", "--mode", "leakage", "--strategy", "replace-before"):
        "e0043c1768ef5bdc4c78f2d7466489e5a757acbdec6c096fb6c64105e47fd1ba",
    ("leakage.json", "--mode", "leakage", "--strategy", "ancilla-passive"):
        "e36877c5b9f6fd5d73204cb87dbecb1c7118dd6599c343cbe24c4e76f18cdadd",
    ("leakage.json", "--mode", "leakage", "--strategy", "ancilla-corrective"):
        "3dc124cb76e1a68d46c17c2a2d041b87d079f49c07828a8badc60782ca20318a",
    ("identities.json", "--mode", "identities"):
        "75e8538fa5cbabf2fe6678a03aa08fa81b6aa20e70b394269cf4f27d96a6b087",
    # Detect runs of 5000 trials: a 4096-row chunk takes the outcome hook on
    # distinct states and keeps the candidates its rows chose.  Frozen from
    # the program before either existed.
    ("detect.json", "--mode", "detect", "--strategy", "none", "--predicate", "announced-op",
     "--trials", "5000", "--seed", "62"):
        "fd5cdc4f3b7c0825c2ad3c8b918429dd54bc1e8876351516d6b94ac404816dd3",
    ("detect.json", "--mode", "detect", "--strategy", "none", "--predicate", "strict-u0",
     "--trials", "5000", "--seed", "62"):
        "b78627e479ab431abf0349cf31051b544c964567132a141f18a04685f2b8c90e",
    ("detect.json", "--mode", "detect", "--strategy", "measure-resend", "--predicate", "announced-op",
     "--trials", "5000", "--seed", "62"):
        "a9f5c5b0a84435540542071576cbbc629b904fc23ab51f17634565e3f6b2d989",
    ("detect.json", "--mode", "detect", "--strategy", "measure-resend", "--predicate", "strict-u0",
     "--trials", "5000", "--seed", "62"):
        "1af193862e14677d606a0b398c66c3f19a18adfad39726dc26a753f18183efe8",
    ("detect.json", "--mode", "detect", "--strategy", "replace-after", "--predicate", "announced-op",
     "--trials", "5000", "--seed", "62"):
        "b2d9783fea236bf9f9a36ce3b4fe8eabb80e6bfca372ec49e546724fd475cd89",
    ("detect.json", "--mode", "detect", "--strategy", "replace-after", "--predicate", "strict-u0",
     "--trials", "5000", "--seed", "62"):
        "07179dbe3a68077868a8cd1f86d28c8660fac579186c23eb43a31b8c2254e78c",
    ("detect.json", "--mode", "detect", "--strategy", "replace-before", "--predicate", "announced-op",
     "--trials", "5000", "--seed", "62"):
        "77a4588a185e8244f9bbdb586452d523c06a2e0fd2b034696bb4f2b58e01bf47",
    ("detect.json", "--mode", "detect", "--strategy", "replace-before", "--predicate", "strict-u0",
     "--trials", "5000", "--seed", "62"):
        "802309d41c18579a2f70ce6e0c7c4df0463ec105503eb7e2a514f4cabb701a1e",
    ("detect.json", "--mode", "detect", "--strategy", "ancilla-passive", "--predicate", "announced-op",
     "--trials", "5000", "--seed", "62"):
        "13f44a7816a52eacb206ad0b9780f58643073d452a1d36d3094f08ea8b0020a2",
    ("detect.json", "--mode", "detect", "--strategy", "ancilla-passive", "--predicate", "strict-u0",
     "--trials", "5000", "--seed", "62"):
        "71720c651271db6313364d9b667de27eeffda16dd09a9f6ec379114f6ed2411b",
    ("detect.json", "--mode", "detect", "--strategy", "ancilla-corrective", "--predicate", "announced-op",
     "--trials", "5000", "--seed", "62"):
        "e22a651011588878167b9bdd8804a4d0a515143b06a54c8914bafb4d9d505acc",
    ("detect.json", "--mode", "detect", "--strategy", "ancilla-corrective", "--predicate", "strict-u0",
     "--trials", "5000", "--seed", "62"):
        "61c10f35bee5231c77e9d5603f0e962ac535993b2c300acbeaf8c7ec3581af3b",
    # Clean session transcripts with four encoding groups, the JSON of the
    # sessions whose CSV FROZEN_SESSION_CSV pins under CLEAN_SESSION.
    ("session.json", "--mode", "session", "--strategy", "replace-after", "--seed", "53",
     "--n-groups", "5", "--n-checking", "1", "--bits", "01101100"):
        "e6a844c336df92e31f867c13f7fb8d9e4e251c47b5b60ae9f1c0d95d60e5aff9",
    ("session.json", "--mode", "session", "--strategy", "replace-before", "--seed", "53",
     "--n-groups", "5", "--n-checking", "1", "--bits", "01101100"):
        "fc972a98a7fe2e764c8b50117b711f1522160570ec3c79d033b987267b58a470",
    ("session.json", "--mode", "session", "--strategy", "ancilla-passive", "--seed", "53",
     "--n-groups", "5", "--n-checking", "1", "--bits", "01101100"):
        "b41cb314c6b56c1927383291b4f4914f8bf268b280ad5b9921c086046d607661",
}


def test_report_bytes_are_frozen(tmp_path, capsys):
    for (name, *argv), digest in FROZEN_REPORTS.items():
        out = tmp_path / name
        assert run_cli(*argv, "--out", str(out)) == 0
        assert hashlib.sha256(read_bytes(out)).hexdigest() == digest, name


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


# SHA-256 of session CSVs with four encoding groups.  Under INTACT_SESSION
# (frozen before the digests were added) the message arrives and each
# encoding row's word is its own two bits.  Under CLEAN_SESSION, the config
# of the session JSON pins in FROZEN_REPORTS (frozen before qcore's outcome
# rule lost its column form), the attack passes the check and garbles words.
INTACT_SESSION = ("--seed", "7", "--n-groups", "6", "--n-checking", "2")
CLEAN_SESSION = ("--seed", "53", "--n-groups", "5", "--n-checking", "1")
FROZEN_SESSION_CSV = {
    "none": (INTACT_SESSION, "68b4e0fcff6b21f8210962bfca37261e0278cfff79596a380d37789c5080ee4b"),
    "measure-resend": (
        INTACT_SESSION, "123bd67e85a6f5554407102a98a7c747ec25899a6cfcd7fa30d375d9f5f2ad57"
    ),
    "ancilla-corrective": (
        INTACT_SESSION, "679e84431b4844c5a6fcec9725bab778f5205f3bbd236c8ff44275c89380cb2d"
    ),
    "replace-after": (
        CLEAN_SESSION, "bee6781069f9ad0533bbe714abf8f3c8190a30b6cecd5cf7925a73abc7747a1c"
    ),
    "replace-before": (
        CLEAN_SESSION, "5317207f1d5dcdb6de5fd8989658ab080a0cf8a515152592a4c1b040d737f73a"
    ),
    "ancilla-passive": (
        CLEAN_SESSION, "1ad5f6edb4986240efc46df75e89a1d353658bca124f8929d540db28770cec8c"
    ),
}


@pytest.mark.parametrize("strategy", sorted(FROZEN_SESSION_CSV))
def test_session_csv_bytes_are_frozen(strategy, tmp_path, capsys):
    config, digest = FROZEN_SESSION_CSV[strategy]
    out = tmp_path / "session.csv"
    assert run_cli(
        "--mode", "session", "--strategy", strategy, *config, "--bits", "01101100",
        "--format", "csv", "--out", str(out),
    ) == 0
    printed = capsys.readouterr().out
    data = read_bytes(out)
    lines = data.decode().splitlines()
    words = [line.rsplit(",", 1)[1] for line in lines if line.startswith("encoding,")]
    if config == INTACT_SESSION:
        assert "message intact: True" in printed
        assert words == ["01", "10", "11", "00"]
    else:
        assert "verdict: clean" in printed and "message intact: False" in printed
        assert len(words) == 4 and words != ["01", "10", "11", "00"]
    assert hashlib.sha256(data).hexdigest() == digest


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
