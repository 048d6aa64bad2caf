"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Tolerances are pinned here and nowhere else."""

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from qsdc_swap import analysis, cli
from qsdc_swap.adversary import AttackStrategy, CORRECTIVE_OP
from qsdc_swap.analysis import (
    detection_from_swap_algebra,
    enumerate_session_leaves,
    exact_detection,
    exact_leakage,
    monte_carlo,
    run_identities,
    session_detection,
    sweep_report,
)
from qsdc_swap.bellmap import ENCODING_OPS, EncodingOp, correlation_table, swap_decompose
from qsdc_swap.protocol import DetectionPredicate, Verdict
from qsdc_swap.qcore import (
    BELL_KINDS,
    BellKind,
    bell_branches,
    compose,
    make_bell,
    overlap,
)

KIND = {k.value: k for k in BELL_KINDS}
ANNOUNCED = DetectionPredicate.ANNOUNCED_OP
STRICT = DetectionPredicate.STRICT_U0
REPO_ROOT = Path(__file__).resolve().parent.parent


def announce(criterion, text):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_01_plus_product_identity():
    start = time.perf_counter()
    product = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    for (bob, alice), expected in oracles.SWAP_BASE_TERMS.items():
        bra = compose(make_bell(KIND[bob], 1, 3), make_bell(KIND[alice], 2, 4))
        assert abs(overlap(bra, product) - expected) < 1e-9
    branches = bell_branches(product, 1, 3)
    assert len(branches) == 4
    for branch in branches:
        assert abs(branch.prob - 0.25) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"four overlaps +-1/2 and quarter probabilities in {elapsed:.3f}s")


def test_criterion_02_encoded_product_identities():
    for (k12, k34), terms in oracles.SWAP_ENCODED_TERMS.items():
        product = compose(make_bell(KIND[k12], 1, 2), make_bell(KIND[k34], 3, 4))
        table = swap_decompose(KIND[k12], KIND[k34])
        for bob in BELL_KINDS:
            for alice in BELL_KINDS:
                bra = compose(make_bell(bob, 1, 3), make_bell(alice, 2, 4))
                printed = terms.get((bob.value, alice.value), 0.0)
                assert abs(overlap(bra, product) - printed) < 1e-9
                assert abs(table.coefficient(bob, alice) - printed) < 1e-9
    announce(2, "all three printed decompositions reproduced sign for sign")


def test_criterion_03_correlation_table_equivalence():
    table = correlation_table()
    derived = {
        op.value: {(b.value, a.value) for b, a in table[op]} for op in ENCODING_OPS
    }
    assert derived == oracles.PRINTED_CORRELATION
    seen = set()
    for column in table.values():
        assert not (seen & column)
        seen |= column
    assert len(seen) == 16
    announce(3, "derived table matches the printed one and partitions all 16 pairs")


def test_criterion_04_honest_protocol_exhaustive():
    start = time.perf_counter()
    # every 3-group message, every measurement branch decodes correctly
    for ops in itertools.product(ENCODING_OPS, repeat=3):
        message = "".join(op.bits for op in ops)
        leaves = enumerate_session_leaves(3, [], message_bits=message)
        assert abs(sum(l.prob for l in leaves) - 1.0) < 1e-9
        for leaf in leaves:
            assert leaf.verdict is Verdict.CLEAN
            assert leaf.decoded_bits == message
    # every 3-group checking assignment is drawn and passes on every branch
    leaves = enumerate_session_leaves(3, [1, 2, 3])
    op_weights = {}
    for leaf in leaves:
        assert leaf.verdict is Verdict.CLEAN
        ops = tuple(op for _, op, _, _, _ in leaf.checking)
        op_weights[ops] = op_weights.get(ops, 0.0) + leaf.prob
    assert set(op_weights) == set(itertools.product(ENCODING_OPS, repeat=3))
    for weight in op_weights.values():
        assert abs(weight - 1.0 / 64.0) < 1e-12
    # smaller sessions too
    for n in (1, 2):
        for ops in itertools.product(ENCODING_OPS, repeat=n):
            message = "".join(op.bits for op in ops)
            for leaf in enumerate_session_leaves(n, [], message_bits=message):
                assert leaf.decoded_bits == message
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(4, f"honest sessions exact on all branches and op assignments in {elapsed:.2f}s")


def test_criterion_05_replace_measure_after():
    strategy = AttackStrategy.REPLACE_MEASURE_AFTER
    p = exact_detection(strategy, ANNOUNCED)
    assert p == pytest.approx(0.75, abs=1e-12)
    m20 = session_detection(p, 20)
    assert abs(m20 - (1.0 - 0.25**20)) < 1e-12
    trials = 100_000
    mc = monte_carlo(strategy, trials, seed=501)
    sigma = math.sqrt(0.75 * 0.25 / trials)
    assert abs(mc.p_hat(ANNOUNCED) - 0.75) <= 3 * sigma
    announce(
        5,
        f"per-group detection 3/4, 20-group power {m20:.15f}, "
        f"MC {mc.p_hat(ANNOUNCED):.4f} within 3 sigma",
    )


def test_criterion_06_replace_measure_before():
    strategy = AttackStrategy.REPLACE_MEASURE_BEFORE
    for predicate in (ANNOUNCED, STRICT):
        tree = exact_detection(strategy, predicate)
        algebra = detection_from_swap_algebra(strategy, predicate)
        assert abs(tree - algebra) < 1e-9
    p = exact_detection(strategy, ANNOUNCED)
    claimed = analysis.PAPER_CLAIMED_DETECTION[strategy]
    # static eight-photon identity, term by term
    product = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    for first, second in ((5, 6), (7, 8)):
        product = compose(product, make_bell(BellKind.PSI_PLUS, first, second))
    for p_kind in BELL_KINDS:
        for q_kind in BELL_KINDS:
            bra = compose(
                compose(make_bell(p_kind, 1, 3), make_bell(p_kind, 2, 4)),
                compose(make_bell(q_kind, 5, 7), make_bell(q_kind, 6, 8)),
            )
            expected = (
                oracles.BASE_TERM_SIGN[p_kind.value] * oracles.BASE_TERM_SIGN[q_kind.value] / 4.0
            )
            assert abs(overlap(bra, product) - expected) < 1e-9
    announce(
        6,
        f"two-path agreement, detection {p} vs claimed {claimed}, "
        "eight-photon overlaps +-1/4",
    )


def test_criterion_07_ancilla_passive():
    p = exact_detection(AttackStrategy.ANCILLA_PASSIVE, ANNOUNCED)
    assert p == pytest.approx(0.5, abs=1e-12)
    # six-photon static identity
    from qsdc_swap.qcore import apply_cnot, single_qubit

    state = compose(
        compose(make_bell(BellKind.PSI_PLUS, 1, 2), single_qubit(5)),
        compose(make_bell(BellKind.PSI_PLUS, 3, 4), single_qubit(6)),
    )
    state = apply_cnot(state, 2, 5)
    state = apply_cnot(state, 4, 6)
    amp = math.sqrt(2.0) / 4.0
    for bob, alice, anc, sign in oracles.ANCILLA_COPY_TERMS:
        bra = compose(
            compose(make_bell(KIND[bob], 1, 3), make_bell(KIND[alice], 2, 4)),
            make_bell(KIND[anc], 5, 6),
        )
        assert abs(overlap(bra, state) - sign * amp) < 1e-9
    announce(7, "detection 1/2 and six-photon overlaps +-sqrt(2)/4")


def test_criterion_08_ancilla_corrective():
    assert exact_detection(AttackStrategy.ANCILLA_CORRECTIVE, ANNOUNCED) == pytest.approx(
        0.0, abs=1e-12
    )
    assert exact_leakage(AttackStrategy.ANCILLA_CORRECTIVE) == pytest.approx(
        0.25, abs=1e-12
    )
    assert CORRECTIVE_OP is EncodingOp.U1
    # the restoration property itself is brute-forced in the adversary
    # tests; re-run the decisive slice here
    from qsdc_swap.bellmap import decode_op
    from qsdc_swap.qcore import apply_cnot, apply_single, single_qubit

    base = compose(
        compose(make_bell(BellKind.PSI_PLUS, 1, 2), single_qubit(5)),
        compose(make_bell(BellKind.PSI_PLUS, 3, 4), single_qubit(6)),
    )
    base = apply_cnot(base, 2, 5)
    base = apply_cnot(base, 4, 6)
    minus_states = [
        b.state
        for b in bell_branches(base, 5, 6)
        if b.kind in (BellKind.PSI_MINUS, BellKind.PHI_MINUS)
    ]
    restoring = []
    for candidate in ENCODING_OPS:
        ok = True
        for state in minus_states:
            fixed = apply_single(state, 2, candidate.matrix)
            for op in ENCODING_OPS:
                coded = apply_single(fixed, 4, op.matrix)
                for alice_branch in bell_branches(coded, 2, 4):
                    for bob_branch in bell_branches(alice_branch.state, 1, 3):
                        ok = ok and decode_op(bob_branch.kind, alice_branch.kind) is op
        if ok:
            restoring.append(candidate)
    assert restoring == [EncodingOp.U1]
    announce(8, "undetectable, leakage at chance, and only the sign flip restores")


def test_criterion_09_measure_resend_measured_not_assumed():
    strategy = AttackStrategy.INTERCEPT_MEASURE_RESEND
    for predicate in (ANNOUNCED, STRICT):
        tree = exact_detection(strategy, predicate)
        algebra = detection_from_swap_algebra(strategy, predicate)
        assert abs(tree - algebra) < 1e-9
    trials = 100_000
    mc = monte_carlo(strategy, trials, seed=909)
    for predicate in (ANNOUNCED, STRICT):
        p = exact_detection(strategy, predicate)
        sigma = max(math.sqrt(p * (1 - p) / trials), 1e-9)
        assert abs(mc.p_hat(predicate) - p) <= 3 * sigma
    report = sweep_report(trials=0, seed=0)
    rows = [r for r in report["rows"] if r["strategy"] == strategy.value]
    assert len(rows) == 2
    for row in rows:
        assert row["paper_claim"] == 0.75
        assert "p_exact" in row
    leak = exact_leakage(strategy)
    doc = (REPO_ROOT / "DISCREPANCIES.md").read_text()
    assert "measure-resend" in doc
    assert "3/4" in doc
    assert "announced-op" in doc and "strict-u0" in doc
    announce(
        9,
        "exact values "
        f"announced={exact_detection(strategy, ANNOUNCED)}, "
        f"strict={exact_detection(strategy, STRICT)}, leakage={leak}; "
        "claim reported, not assumed; discrepancies documented",
    )


def test_criterion_10_byte_identical_reports(tmp_path):
    pairs = []
    for name, argv in (
        (
            "sweep",
            ["--mode", "sweep", "--trials", "500", "--seed", "62"],
        ),
        (
            "session",
            [
                "--mode", "session", "--n-groups", "4", "--n-checking", "2",
                "--bits", "0110", "--strategy", "ancilla-corrective", "--seed", "8",
            ],
        ),
        (
            "detect",
            [
                "--mode", "detect", "--strategy", "replace-before",
                "--trials", "500", "--seed", "62",
            ],
        ),
    ):
        files = []
        for run in ("first", "second"):
            out = tmp_path / f"{name}-{run}.json"
            assert cli.main(argv + ["--out", str(out)]) == 0
            files.append(out.read_bytes())
        pairs.append(files)
        assert files[0] == files[1]
    announce(10, "sweep, session, and detect reports reproduce byte for byte")


# SHA-256 of `--mode sweep --trials 20000 --seed 4`, frozen from the
# sampler that ran 1024-trial chunks.
SWEEP_20000_SHA256 = "5c988cbbf46186a1fa8b4873c2dff6deb22bffbf4660e04d23fad65239deeabd"


def test_criterion_11_identities_and_sweep_under_60s(tmp_path, capsys):
    start = time.perf_counter()
    assert cli.main(["--mode", "identities"]) == 0
    assert (
        cli.main(
            [
                "--mode", "sweep", "--trials", "20000", "--seed", "4",
                "--out", str(tmp_path / "sweep.json"),
            ]
        )
        == 0
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 60.0
    # The report's bytes; at MC_CHUNK = 4096 each strategy runs five chunks,
    # the last one partial.
    digest = hashlib.sha256((tmp_path / "sweep.json").read_bytes()).hexdigest()
    assert digest == SWEEP_20000_SHA256
    announce(11, f"identities plus full sweep completed in {elapsed:.1f}s")
