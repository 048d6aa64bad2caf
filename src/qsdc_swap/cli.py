"""Command-line front end.

Modes: ``identities`` gates the algebra (nonzero exit on any failure),
``session`` runs one full transcript, ``detect``/``leakage`` analyze one
strategy, ``sweep`` tabulates every strategy under both predicates.
Report files are byte-identical for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, protocol
from .adversary import AttackStrategy
from .protocol import DetectionPredicate, SessionConfig, SessionTranscript

MODES = ("session", "detect", "leakage", "identities", "sweep")

# The keys each mode reads besides ``mode``; any other key that is set,
# from a flag or from --config, is rejected.
MODE_KEYS = {
    "session": {
        "n_groups", "n_checking", "bits", "text", "strategy", "predicate", "seed", "out", "format"
    },
    "detect": {"strategy", "predicate", "trials", "seed", "out", "format"},
    "leakage": {"strategy", "out"},
    "identities": {"out"},
    "sweep": {"trials", "seed", "out", "format"},
}


def text_to_bits(text: str) -> str:
    """UTF-8 bytes of ``text`` as a 0/1 string."""
    return "".join(format(byte, "08b") for byte in text.encode("utf-8"))


def bits_to_text(bits: str) -> str:
    """Inverse of text_to_bits; the bit count must be a byte multiple."""
    if len(bits) % 8:
        raise ValueError("bit string length is not a multiple of 8")
    data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    return data.decode("utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdc-swap",
        description="Simulate and analyze the swapping-based direct communication protocol.",
    )
    parser.add_argument("--mode", choices=MODES, help="what to run")
    parser.add_argument("--config", help="JSON file with the same keys; flags override")
    parser.add_argument("--n-groups", type=int, dest="n_groups")
    parser.add_argument("--n-checking", type=int, dest="n_checking")
    parser.add_argument("--bits", help="message bits, e.g. 0110")
    parser.add_argument("--text", help="message text, converted to bits")
    parser.add_argument("--strategy", help="adversary strategy name")
    parser.add_argument(
        "--predicate",
        choices=[p.value for p in DetectionPredicate],
        help="detection predicate (default announced-op)",
    )
    parser.add_argument("--trials", type=int, help="Monte Carlo trials (0 disables)")
    parser.add_argument("--seed", type=int, help="seed for any sampling mode")
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--format", choices=["json", "csv"])
    return parser


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config {path} must hold a JSON object")
    return data


def _check_config_value(
    action: argparse.Action, value, parser: argparse.ArgumentParser
) -> None:
    """Hold a config-file value to the type and choices of its flag; null
    leaves the key unset."""
    if value is None:
        return
    key = action.dest
    if action.type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            parser.error(f"config key {key!r} must be an integer, got {value!r}")
    elif not isinstance(value, str):
        parser.error(f"config key {key!r} must be a string, got {value!r}")
    if action.choices is not None and value not in action.choices:
        parser.error(
            f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}"
        )


def _merged(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    flags = {key: value for key, value in vars(args).items() if key != "config"}
    merged = dict.fromkeys(flags)
    if args.config:
        actions = {action.dest: action for action in parser._actions}
        for key, value in _load_config(args.config, parser).items():
            key = key.replace("-", "_")
            if key not in merged:
                parser.error(f"unknown config key {key!r}")
            _check_config_value(actions[key], value, parser)
            merged[key] = value
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return merged


def emit_report(report: dict | str, fmt: str, path: str) -> None:
    """Write a report with stable bytes: LF newlines, sorted nothing."""
    if fmt == "json":
        payload = json.dumps(report, indent=2) + "\n"
    else:
        payload = report if isinstance(report, str) else str(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)


def _transcript_csv(transcript: SessionTranscript) -> str:
    lines = ["phase,group,op,alice,bob,passed,word"]
    for group, op, alice, bob, passed in transcript.checking.rows():
        lines.append(f"checking,{group},{op},{alice},{bob},{passed},")
    words = transcript.decoded_bits
    for i, (group, alice, bob) in enumerate(transcript.encoding.rows()):
        lines.append(f"encoding,{group},,{alice},{bob},,{words[2 * i : 2 * i + 2]}")
    return "\n".join(lines) + "\n"


def _run_identities(cfg: dict) -> int:
    checks = analysis.run_identities()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} (max error {check.max_error:.3g})")
    failed = [c for c in checks if not c.passed]
    if cfg["out"]:
        doc = {
            "mode": "identities",
            "checks": [
                {"name": c.name, "passed": c.passed, "max_error": c.max_error}
                for c in checks
            ],
        }
        emit_report(doc, "json", cfg["out"])
    if failed:
        print(f"{len(failed)} identity check(s) failed")
        return 1
    print(f"all {len(checks)} identity checks passed")
    return 0


def _run_session(cfg: dict, parser: argparse.ArgumentParser) -> int:
    bits = cfg["bits"]
    if cfg["text"] is not None:
        if bits is not None:
            parser.error("give --bits or --text, not both")
        bits = text_to_bits(cfg["text"])
    bits = bits or ""
    n_checking = cfg["n_checking"] if cfg["n_checking"] is not None else 0
    n_groups = cfg["n_groups"]
    if n_groups is None:
        n_groups = n_checking + len(bits) // 2
    if cfg["seed"] is None:
        parser.error("session mode samples measurements and needs --seed")
    strategy = AttackStrategy.from_name(cfg["strategy"] or "none")
    predicate = DetectionPredicate(cfg["predicate"] or "announced-op")
    try:
        session_cfg = SessionConfig(
            n_groups=n_groups,
            n_checking=n_checking,
            message_bits=bits,
            predicate=predicate,
            seed=cfg["seed"],
        )
    except ValueError as exc:
        parser.error(str(exc))
    transcript = protocol.run_session(session_cfg, strategy)
    doc = transcript.to_json_dict()
    print(f"verdict: {doc['verdict']}")
    if doc["checking"]:
        failed = [e["group"] for e in doc["checking"] if not e["passed"]]
        print(f"checking groups: {len(doc['checking'])}, failed: {failed or 'none'}")
    if doc["decoded_bits"]:
        print(f"decoded bits: {doc['decoded_bits']}")
        if bits:
            print(f"message intact: {doc['decoded_bits'] == bits}")
    if cfg["out"]:
        if (cfg["format"] or "json") == "csv":
            emit_report(_transcript_csv(transcript), "csv", cfg["out"])
        else:
            emit_report(doc, "json", cfg["out"])
    return 0


def _require_strategy(cfg: dict, parser: argparse.ArgumentParser) -> AttackStrategy:
    if not cfg["strategy"]:
        parser.error("this mode needs --strategy")
    try:
        return AttackStrategy.from_name(cfg["strategy"])
    except ValueError as exc:
        parser.error(str(exc))


def _trials(cfg: dict, parser: argparse.ArgumentParser, default: int) -> int:
    trials = cfg["trials"]
    if trials is None:
        return default
    if trials < 0:
        parser.error(f"--trials must be a non-negative integer, got {trials!r}")
    return trials


def _run_detect(cfg: dict, parser: argparse.ArgumentParser) -> int:
    strategy = _require_strategy(cfg, parser)
    predicate = DetectionPredicate(cfg["predicate"] or "announced-op")
    trials = _trials(cfg, parser, 0)
    if trials and cfg["seed"] is None:
        parser.error("--trials needs --seed")
    doc = analysis.detection_report(strategy, predicate, trials=trials, seed=cfg["seed"])
    print(f"strategy {doc['strategy']}, predicate {doc['predicate']}")
    print(f"p_exact={doc['p_exact']:.6g}  p_algebra={doc['p_algebra']:.6g}")
    if doc["p_mc"] is not None:
        print(f"p_mc={doc['p_mc']:.6g} +/- {doc['ci']:.2g} ({doc['trials']} trials)")
    if doc["paper_claim"] is not None:
        print(f"claimed: {doc['paper_claim']} ({doc['claim_note']})")
    if cfg["out"]:
        if (cfg["format"] or "json") == "csv":
            emit_report(
                analysis.sweep_csv({"rows": [doc]}), "csv", cfg["out"]
            )
        else:
            emit_report(doc, "json", cfg["out"])
    return 0


def _run_leakage(cfg: dict, parser: argparse.ArgumentParser) -> int:
    strategy = _require_strategy(cfg, parser)
    doc = analysis.leakage_report(strategy)
    print(f"strategy {doc['strategy']}")
    print(
        f"eve guess accuracy {doc['eve_guess_accuracy']:.6g} "
        f"(chance level {doc['chance_level']})"
    )
    if doc["paper_claim"] is not None:
        print(f"claimed: {doc['paper_claim']}")
    if cfg["out"]:
        emit_report(doc, "json", cfg["out"])
    return 0


def _run_sweep(cfg: dict, parser: argparse.ArgumentParser) -> int:
    trials = _trials(cfg, parser, 20000)
    if trials and cfg["seed"] is None:
        parser.error("sweep samples by default; give --seed (or --trials 0)")
    report = analysis.sweep_report(trials, cfg["seed"] if trials else 0)
    header = (
        f"{'strategy':<18} {'predicate':<13} {'p_exact':>8} {'p_algebra':>9} "
        f"{'p_mc':>8} {'leak':>6} {'claim':>6}"
    )
    print(header)
    for row in report["rows"]:
        mc = "" if row["p_mc"] is None else f"{row['p_mc']:.4f}"
        claim = "" if row["paper_claim"] is None else f"{row['paper_claim']:.2f}"
        print(
            f"{row['strategy']:<18} {row['predicate']:<13} {row['p_exact']:>8.4f} "
            f"{row['p_algebra']:>9.4f} {mc:>8} {row['eve_guess_accuracy']:>6.3f} "
            f"{claim:>6}"
        )
    if cfg["out"]:
        if (cfg["format"] or "json") == "csv":
            emit_report(analysis.sweep_csv(report), "csv", cfg["out"])
        else:
            emit_report(report, "json", cfg["out"])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merged(args, parser)
    if cfg["mode"] not in MODES:
        parser.error(f"--mode must be one of {', '.join(MODES)}")
    unread = [
        f"--{key.replace('_', '-')} {value}"
        for key, value in cfg.items()
        if value is not None and key != "mode" and key not in MODE_KEYS[cfg["mode"]]
    ]
    if unread:
        parser.error(f"--mode {cfg['mode']} does not read {', '.join(unread)}")
    if cfg["format"] is not None and not cfg["out"]:
        parser.error("--format needs --out")
    try:
        if cfg["mode"] == "identities":
            return _run_identities(cfg)
        if cfg["mode"] == "session":
            return _run_session(cfg, parser)
        if cfg["mode"] == "detect":
            return _run_detect(cfg, parser)
        if cfg["mode"] == "leakage":
            return _run_leakage(cfg, parser)
        return _run_sweep(cfg, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except analysis.EnumerationBudgetError as exc:
        print(f"error: {exc}; raise {analysis.NODE_BUDGET_ENV}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
