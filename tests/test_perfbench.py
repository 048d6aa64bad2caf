"""The benchmark's contract with the program, checked in the tier-1 suite.

``perfbench/frozen.json`` holds every exact figure the benchmark gate
compares against, and ``perfbench/tracer.py`` patches the program's
functions by name.  Both are read here and never written.
"""

import importlib
import json
from pathlib import Path

import pytest

from qsdc_swap import protocol
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import (
    detection_from_swap_algebra,
    enumerate_session_leaves,
    exact_detection,
    exact_leakage,
    honest_fidelity,
)
from qsdc_swap.bellmap import ENCODING_OPS
from qsdc_swap.protocol import (
    DetectionPredicate,
    EncodeTarget,
    Verdict,
    single_op_policy,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FROZEN = json.loads((PERFBENCH / "frozen.json").read_text())
POLICIES = {"uniform": None, **{op.value: single_op_policy(op) for op in ENCODING_OPS}}
TOL = 1e-12
LEAF_GROUPS = 2


@pytest.mark.parametrize("strategy", [s.value for s in AttackStrategy])
def test_single_group_figures_match_frozen_table(strategy):
    detection = {
        key: want
        for key, want in FROZEN["detection"].items()
        if key.split("|")[0] == strategy
    }
    assert len(detection) == len(DetectionPredicate) * len(EncodeTarget) * len(POLICIES)
    for key, want in detection.items():
        _, predicate, target, policy = key.split("|")
        args = (
            AttackStrategy(strategy),
            DetectionPredicate(predicate),
            POLICIES[policy],
            EncodeTarget(target),
        )
        assert exact_detection(*args) == pytest.approx(want["tree"], abs=TOL), key
        assert detection_from_swap_algebra(*args) == pytest.approx(
            want["algebra"], abs=TOL
        ), key
    for target in EncodeTarget:
        key = f"{strategy}|{target.value}"
        args = (AttackStrategy(strategy), target)
        assert exact_leakage(*args) == pytest.approx(FROZEN["leakage"][key], abs=TOL), key
        assert honest_fidelity(*args) == pytest.approx(FROZEN["fidelity"][key], abs=TOL), key


@pytest.mark.parametrize("key", sorted(FROZEN["leaves"]))
def test_session_leaves_match_frozen_table(key):
    strategy, checking = key.split("|")
    checking = [int(g) for g in checking.split(",") if g]
    bits = "10" * (LEAF_GROUPS - len(checking))
    leaves = enumerate_session_leaves(
        LEAF_GROUPS, checking, AttackStrategy(strategy), message_bits=bits
    )
    want = FROZEN["leaves"][key]
    assert len(leaves) == want["count"]
    assert sum(leaf.prob for leaf in leaves) == pytest.approx(1.0, abs=TOL)
    detected = sum(l.prob for l in leaves if l.verdict is Verdict.EVE_DETECTED)
    decoded = sum(
        l.prob for l in leaves if l.verdict is Verdict.CLEAN and l.decoded_bits == bits
    )
    assert detected == pytest.approx(want["p_detected"], abs=TOL)
    assert decoded == pytest.approx(want["p_decoded"], abs=TOL)


def test_tracer_installs_and_uninstalls(monkeypatch):
    # Installing patches every name the traced benchmark wraps, so a
    # renamed or deleted one fails here rather than in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")

    def bindings():
        out = {}
        for module in tracer.MODULES:
            out.update({(module.__name__, k): v for k, v in vars(module).items()})
        for cls in (protocol.Register, protocol.SessionTranscript):
            out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return out

    before = bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        patched = {k for k, v in bindings().items() if v is not before.get(k)}
        assert ("qsdc_swap.qcore", "sample_bell") in patched
        assert ("Register", "enumerate_bell") in patched
    finally:
        spans.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not spans.end  # nothing ran while installed
