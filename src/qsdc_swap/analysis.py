"""Exact branch enumeration and sampling cross-checks for sessions under
each channel adversary.

Detection probabilities come from two deliberately separate code paths:

* tree enumeration, which walks every measurement branch of the simulated
  register with exact probabilities, and
* swap-algebra arithmetic, which never touches amplitudes and works only
  with the cached decomposition tables.

Reports carry both, next to the claimed reference value where one exists;
Monte Carlo sampling exists to validate the exact numbers and to cover
configurations whose enumeration would blow the node budget (set via the
``QSDC_NODE_BUDGET`` environment variable, default one million nodes).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import adversary as adv
from . import protocol, qcore
from .adversary import CORRECTION_TRIGGER, CORRECTIVE_OP, AttackStrategy, EveMemory
from .bellmap import (
    ENCODING_OPS,
    OP_MATRICES,
    EncodingOp,
    apply_encoding,
    correlation_table,
    decode_op,
    invert_encoding,
    kind_label,
    op_for_bits,
    swap_decompose,
    swap_support_rule,
)
from .protocol import (
    DetectionPredicate,
    EncodeTarget,
    Group,
    Register,
    UNIFORM_POLICY,
    Verdict,
    build_groups,
    check_passes,
    check_policy,
    draw_op,
)
from .qcore import BELL_KINDS, BellKind

NODE_BUDGET_ENV = "QSDC_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 1_000_000

# Monte Carlo trials pushed through the round as one batch.  A batch's
# widest factor has 6 qubits, so its amplitudes take 1 MiB.
MC_CHUNK = 1024

IDENTITY_TOL = 1e-9

_PSI = BellKind.PSI_PLUS


class EnumerationBudgetError(RuntimeError):
    """The enumeration tree outgrew the configured node budget."""


class _NodeCounter:
    def __init__(self, budget: int | None = None):
        if budget is None:
            budget = int(os.environ.get(NODE_BUDGET_ENV, DEFAULT_NODE_BUDGET))
        self.budget = budget
        self.count = 0

    def tick(self, k: int = 1) -> None:
        self.count += k
        if self.count > self.budget:
            raise EnumerationBudgetError(
                f"enumeration exceeded the {self.budget}-node budget"
            )


# Sign of each kind's coefficient in the plus-pair product decomposition.
_BASE_SIGN = {
    BellKind.PHI_PLUS: 1.0,
    BellKind.PHI_MINUS: -1.0,
    BellKind.PSI_PLUS: 1.0,
    BellKind.PSI_MINUS: -1.0,
}

# Reference coefficient tables for the four plus-anchored swap
# decompositions; the identities gate checks the derived tables against
# them term by term, signs included.
REFERENCE_SWAP_TABLES: dict[
    tuple[BellKind, BellKind], dict[tuple[BellKind, BellKind], float]
] = {
    (BellKind.PSI_PLUS, BellKind.PSI_PLUS): {
        (BellKind.PSI_PLUS, BellKind.PSI_PLUS): 0.5,
        (BellKind.PSI_MINUS, BellKind.PSI_MINUS): -0.5,
        (BellKind.PHI_PLUS, BellKind.PHI_PLUS): 0.5,
        (BellKind.PHI_MINUS, BellKind.PHI_MINUS): -0.5,
    },
    (BellKind.PSI_PLUS, BellKind.PSI_MINUS): {
        (BellKind.PSI_PLUS, BellKind.PSI_MINUS): 0.5,
        (BellKind.PSI_MINUS, BellKind.PSI_PLUS): -0.5,
        (BellKind.PHI_PLUS, BellKind.PHI_MINUS): -0.5,
        (BellKind.PHI_MINUS, BellKind.PHI_PLUS): 0.5,
    },
    (BellKind.PSI_PLUS, BellKind.PHI_PLUS): {
        (BellKind.PSI_PLUS, BellKind.PHI_PLUS): 0.5,
        (BellKind.PSI_MINUS, BellKind.PHI_MINUS): -0.5,
        (BellKind.PHI_PLUS, BellKind.PSI_PLUS): 0.5,
        (BellKind.PHI_MINUS, BellKind.PSI_MINUS): -0.5,
    },
    (BellKind.PSI_PLUS, BellKind.PHI_MINUS): {
        (BellKind.PSI_PLUS, BellKind.PHI_MINUS): 0.5,
        (BellKind.PSI_MINUS, BellKind.PHI_PLUS): -0.5,
        (BellKind.PHI_PLUS, BellKind.PSI_MINUS): -0.5,
        (BellKind.PHI_MINUS, BellKind.PSI_PLUS): 0.5,
    },
}

# Images of the plus state under the four coding ops, in codeword order.
ORBIT_ANCHORS = {
    EncodingOp.U0: BellKind.PSI_PLUS,
    EncodingOp.U1: BellKind.PSI_MINUS,
    EncodingOp.U2: BellKind.PHI_PLUS,
    EncodingOp.U3: BellKind.PHI_MINUS,
}

# Joint Bell decomposition of one group once both travel photons have been
# copied onto fresh ancillas: (receiver pair, travel pair, ancilla pair,
# sign), each amplitude sign * sqrt(2)/4.  Pinned numerically by the
# identities gate, consumed arithmetically by the swap-algebra route.
ANCILLA_EXPANSION: tuple[tuple[BellKind, BellKind, BellKind, float], ...] = (
    (BellKind.PSI_PLUS, BellKind.PSI_PLUS, BellKind.PSI_PLUS, 1.0),
    (BellKind.PSI_MINUS, BellKind.PSI_MINUS, BellKind.PSI_PLUS, -1.0),
    (BellKind.PHI_PLUS, BellKind.PHI_PLUS, BellKind.PHI_PLUS, 1.0),
    (BellKind.PHI_MINUS, BellKind.PHI_MINUS, BellKind.PHI_PLUS, -1.0),
    (BellKind.PSI_PLUS, BellKind.PSI_MINUS, BellKind.PSI_MINUS, 1.0),
    (BellKind.PSI_MINUS, BellKind.PSI_PLUS, BellKind.PSI_MINUS, -1.0),
    (BellKind.PHI_PLUS, BellKind.PHI_MINUS, BellKind.PHI_MINUS, 1.0),
    (BellKind.PHI_MINUS, BellKind.PHI_PLUS, BellKind.PHI_MINUS, -1.0),
)

PAPER_CLAIMED_DETECTION: dict[AttackStrategy, float | None] = {
    AttackStrategy.NONE: 0.0,
    AttackStrategy.INTERCEPT_MEASURE_RESEND: 0.75,
    AttackStrategy.REPLACE_MEASURE_AFTER: 0.75,
    AttackStrategy.REPLACE_MEASURE_BEFORE: 0.75,
    AttackStrategy.ANCILLA_PASSIVE: 0.5,
    AttackStrategy.ANCILLA_CORRECTIVE: 0.0,
}

DETECTION_CLAIM_NOTES: dict[AttackStrategy, str] = {
    AttackStrategy.NONE: "honest channel",
    AttackStrategy.INTERCEPT_MEASURE_RESEND: "claimed per-group detection 3/4",
    AttackStrategy.REPLACE_MEASURE_AFTER: "claimed per-group detection 3/4",
    AttackStrategy.REPLACE_MEASURE_BEFORE: "claimed per-group detection 3/4",
    AttackStrategy.ANCILLA_PASSIVE: "claimed per-group detection 1/2",
    AttackStrategy.ANCILLA_CORRECTIVE: "claimed to evade detection",
}

PAPER_CLAIMED_LEAKAGE: dict[AttackStrategy, float | None] = {
    AttackStrategy.NONE: 0.25,
    AttackStrategy.INTERCEPT_MEASURE_RESEND: 0.25,
    AttackStrategy.REPLACE_MEASURE_AFTER: None,
    AttackStrategy.REPLACE_MEASURE_BEFORE: 0.25,
    AttackStrategy.ANCILLA_PASSIVE: 0.25,
    AttackStrategy.ANCILLA_CORRECTIVE: 0.25,
}

SESSION_CURVE_POINTS = (1, 2, 5, 10, 20)


def session_detection(p: float, m: int) -> float:
    """Chance that at least one of ``m`` independent checking groups fails."""
    return 1.0 - (1.0 - p) ** m


# ---------------------------------------------------------------------------
# single-group scenario enumeration (tree route)
# ---------------------------------------------------------------------------


def _enumerate_attack_on_group(
    strategy: AttackStrategy,
    register: Register,
    pair: tuple[int, int],
    counter: _NodeCounter,
) -> list[tuple[float, Register, tuple[int, int], tuple | None]]:
    """Enumerate Eve's channel action on one group.

    Returns (probability, register clone, forwarded travel pair, record)
    branches; the record mirrors what the sampling attack would remember.
    """
    t1, t2 = pair
    if strategy is AttackStrategy.NONE:
        counter.tick()
        return [(1.0, register, pair, None)]

    if strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND:
        out = []
        for p, reg, kind in register.enumerate_bell(t1, t2):
            counter.tick()
            fresh = reg.allocate(2)
            reg.add(qcore.make_bell(kind, *fresh))
            out.append((p, reg, fresh, ("travel", kind)))
        return out

    if strategy in (
        AttackStrategy.REPLACE_MEASURE_AFTER,
        AttackStrategy.REPLACE_MEASURE_BEFORE,
    ):
        base = register.clone()
        k1, f1, k2, f2 = base.allocate(4)
        base.add(qcore.make_bell(_PSI, k1, f1))
        base.add(qcore.make_bell(_PSI, k2, f2))
        if strategy is AttackStrategy.REPLACE_MEASURE_AFTER:
            counter.tick()
            return [(1.0, base, (f1, f2), ("kept", (k1, k2)))]
        out = []
        for p1, reg1, e1 in base.enumerate_bell(k1, t1):
            for p2, reg2, e2 in reg1.enumerate_bell(k2, t2):
                counter.tick()
                out.append((p1 * p2, reg2, (f1, f2), ("cross", e1, e2)))
        return out

    if strategy in (AttackStrategy.ANCILLA_PASSIVE, AttackStrategy.ANCILLA_CORRECTIVE):
        base = register.clone()
        a1, a2 = base.allocate(2)
        base.add(qcore.single_qubit(a1))
        base.add(qcore.single_qubit(a2))
        base.apply_cnot(t1, a1)
        base.apply_cnot(t2, a2)
        if strategy is AttackStrategy.ANCILLA_PASSIVE:
            counter.tick()
            return [(1.0, base, pair, ("ancilla", (a1, a2)))]
        out = []
        for p, reg, kind in base.enumerate_bell(a1, a2):
            counter.tick()
            corrected = kind in CORRECTION_TRIGGER
            if corrected:
                reg.apply_single(t1, CORRECTIVE_OP.matrix)
            out.append((p, reg, pair, ("ancilla-outcome", kind, corrected)))
        return out

    raise ValueError(f"unhandled strategy {strategy}")


def _policy_items(policy: Mapping[EncodingOp, float] | None) -> list[tuple[EncodingOp, float]]:
    policy = UNIFORM_POLICY if policy is None else policy
    return [(op, w) for op in ENCODING_OPS for w in (policy.get(op, 0.0),) if w > 0.0]


def exact_detection(
    strategy: AttackStrategy,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    node_budget: int | None = None,
) -> float:
    """Exact chance that one checking group fails, via tree enumeration.

    Marginalizes over Eve's branches, the sender's op draw, and both Bell
    measurements.  Detection is independent across groups, so the session
    figure for m groups is ``session_detection(p, m)``.
    """
    counter = _NodeCounter(node_budget)
    group = build_groups(1)[0]
    register = Register(
        [qcore.make_bell(_PSI, 1, 2), qcore.make_bell(_PSI, 3, 4)]
    )
    slot = 0 if encode_target is EncodeTarget.FIRST_TRAVEL_PHOTON else 1
    fail = 0.0
    for pe, reg, pair, _rec in _enumerate_attack_on_group(
        strategy, register, group.alice_qubits, counter
    ):
        for op, w in _policy_items(policy):
            coded = reg.clone()
            coded.apply_single(pair[slot], op.matrix)
            for pa, reg_a, alice in coded.enumerate_bell(*pair):
                for pb, _reg_b, bob in reg_a.enumerate_bell(*group.bob_qubits):
                    counter.tick()
                    if not check_passes(predicate, op, bob, alice):
                        fail += pe * w * pa * pb
    return fail


def exact_leakage(
    strategy: AttackStrategy,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    node_budget: int | None = None,
) -> float:
    """Exact chance Eve's guess matches the encoded op of one group.

    Runs the encoding phase under the attack with detection suppressed;
    an abstaining rule scores the two-bit chance level of 1/4.
    """
    counter = _NodeCounter(node_budget)
    register = Register(
        [qcore.make_bell(_PSI, 1, 2), qcore.make_bell(_PSI, 3, 4)]
    )
    slot = 0 if encode_target is EncodeTarget.FIRST_TRAVEL_PHOTON else 1
    group = build_groups(1)[0]
    score = 0.0
    for pe, reg, pair, rec in _enumerate_attack_on_group(
        strategy, register, group.alice_qubits, counter
    ):
        for op in ENCODING_OPS:
            w = 0.25  # encoded words are message bits, taken uniform
            coded = reg.clone()
            coded.apply_single(pair[slot], op.matrix)
            for pa, reg_a, alice in coded.enumerate_bell(*pair):
                counter.tick()
                base = pe * w * pa
                if strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND:
                    guess = invert_encoding(rec[1], alice)
                    score += base if guess is op else 0.0
                elif strategy is AttackStrategy.REPLACE_MEASURE_AFTER:
                    for pk, _reg_k, kept_kind in reg_a.enumerate_bell(*rec[1]):
                        counter.tick()
                        guess = invert_encoding(kept_kind, alice)
                        score += base * pk if guess is op else 0.0
                else:
                    score += base * 0.25
    return score


def honest_fidelity(
    strategy: AttackStrategy,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    node_budget: int | None = None,
) -> float:
    """Chance the receiver decodes an encoding group correctly under the
    attack, assuming the session was not aborted."""
    counter = _NodeCounter(node_budget)
    register = Register(
        [qcore.make_bell(_PSI, 1, 2), qcore.make_bell(_PSI, 3, 4)]
    )
    slot = 0 if encode_target is EncodeTarget.FIRST_TRAVEL_PHOTON else 1
    group = build_groups(1)[0]
    good = 0.0
    for pe, reg, pair, _rec in _enumerate_attack_on_group(
        strategy, register, group.alice_qubits, counter
    ):
        for op in ENCODING_OPS:
            w = 0.25
            coded = reg.clone()
            coded.apply_single(pair[slot], op.matrix)
            for pa, reg_a, alice in coded.enumerate_bell(*pair):
                for pb, _reg_b, bob in reg_a.enumerate_bell(*group.bob_qubits):
                    counter.tick()
                    if decode_op(bob, alice) is op:
                        good += pe * w * pa * pb
    return good


# ---------------------------------------------------------------------------
# swap-algebra route (independent of the state engine)
# ---------------------------------------------------------------------------


def detection_from_swap_algebra(
    strategy: AttackStrategy,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> float:
    """Per-group detection probability computed from the cached swap and
    encoding tables alone; second, amplitude-free route for cross-checks."""
    first = encode_target is EncodeTarget.FIRST_TRAVEL_PHOTON
    base = swap_decompose(_PSI, _PSI)
    total = 0.0
    for op, w in _policy_items(policy):
        joint: list[tuple[tuple[BellKind, BellKind], float]] = []
        if strategy is AttackStrategy.NONE:
            k12 = apply_encoding(op, _PSI) if first else _PSI
            k34 = _PSI if first else apply_encoding(op, _PSI)
            joint = [
                (pair, 0.25) for pair in swap_decompose(k12, k34).support()
            ]
        elif strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND:
            # Measuring the travel pair leaves the kept pair in the
            # partner kind; the resent pair then carries the op alone.
            joint = [
                ((bob, apply_encoding(op, eve)), base.probability(bob, eve))
                for bob, eve in base.support()
            ]
        elif strategy is AttackStrategy.REPLACE_MEASURE_AFTER:
            joint = [
                ((bob, alice), 1.0 / 16.0)
                for bob in BELL_KINDS
                for alice in BELL_KINDS
            ]
        elif strategy is AttackStrategy.REPLACE_MEASURE_BEFORE:
            # Each early cross measurement swaps one travel photon's
            # entanglement onto Eve's forwarded photon.
            for _, e1 in base.support():
                for _, e2 in base.support():
                    k12 = apply_encoding(op, e1) if first else e1
                    k34 = e2 if first else apply_encoding(op, e2)
                    for pair in swap_decompose(k12, k34).support():
                        joint.append((pair, 0.25 * 0.25 * 0.25))
        elif strategy is AttackStrategy.ANCILLA_PASSIVE:
            joint = [
                ((bob, apply_encoding(op, travel)), 0.125)
                for bob, travel, _anc, _sign in ANCILLA_EXPANSION
            ]
        elif strategy is AttackStrategy.ANCILLA_CORRECTIVE:
            for bob, travel, anc, _sign in ANCILLA_EXPANSION:
                if anc in CORRECTION_TRIGGER:
                    travel = apply_encoding(CORRECTIVE_OP, travel)
                joint.append(((bob, apply_encoding(op, travel)), 0.125))
        else:
            raise ValueError(f"unhandled strategy {strategy}")
        total += w * sum(
            p for (bob, alice), p in joint if not check_passes(predicate, op, bob, alice)
        )
    return total


# ---------------------------------------------------------------------------
# whole-session enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionLeaf:
    """One complete measurement history of an enumerated session."""

    prob: float
    verdict: Verdict
    decoded_bits: str
    checking: tuple[tuple[int, EncodingOp, BellKind, BellKind, bool], ...]
    encoding: tuple[tuple[int, BellKind, BellKind], ...]


def enumerate_session_leaves(
    n_groups: int,
    checking_indices: Sequence[int],
    strategy: AttackStrategy = AttackStrategy.NONE,
    *,
    checking_ops: Sequence[EncodingOp] | None = None,
    message_bits: str = "",
    policy: Mapping[EncodingOp, float] | None = None,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    node_budget: int | None = None,
) -> list[SessionLeaf]:
    """Every measurement branch of a whole session, with exact weights.

    ``checking_ops`` fixes the sender's op per checking group (in index
    order); otherwise ops are marginalized over ``policy``.  The encoding
    phase is enumerated only on branches whose verdict is clean.
    """
    counter = _NodeCounter(node_budget)
    groups = build_groups(n_groups)
    checking_set = set(checking_indices)
    if not checking_set <= {g.index for g in groups}:
        raise ValueError(f"bad checking indices {sorted(checking_set)}")
    chk_groups = [g for g in groups if g.index in checking_set]
    enc_groups = [g for g in groups if g.index not in checking_set]
    if checking_ops is not None and len(checking_ops) != len(chk_groups):
        raise ValueError("one fixed op per checking group required")
    if len(message_bits) != 2 * len(enc_groups):
        raise ValueError(
            f"{len(message_bits)} bits do not fill {len(enc_groups)} encoding groups"
        )
    slot = 0 if encode_target is EncodeTarget.FIRST_TRAVEL_PHOTON else 1

    register = Register()
    for pair in range(1, 2 * n_groups + 1):
        register.add(qcore.make_bell(_PSI, 2 * pair - 1, 2 * pair))

    # branch: (prob, register, travel pairs by group, checking records,
    # encoding records); records grow as immutable tuples.
    branches: list[tuple] = [
        (1.0, register, {g.index: g.alice_qubits for g in groups}, (), ())
    ]

    for g in groups:
        nxt = []
        for p, reg, alice, chk, enc in branches:
            for w, reg2, pair2, _rec in _enumerate_attack_on_group(
                strategy, reg, alice[g.index], counter
            ):
                alice2 = dict(alice)
                alice2[g.index] = pair2
                nxt.append((p * w, reg2, alice2, chk, enc))
        branches = nxt

    for j, g in enumerate(chk_groups):
        if checking_ops is not None:
            op_choices = [(checking_ops[j], 1.0)]
        else:
            op_choices = _policy_items(policy)
        nxt = []
        for p, reg, alice, chk, enc in branches:
            pair = alice[g.index]
            for op, w in op_choices:
                coded = reg.clone()
                coded.apply_single(pair[slot], op.matrix)
                for pa, reg_a, outcome in coded.enumerate_bell(*pair):
                    counter.tick()
                    nxt.append(
                        (p * w * pa, reg_a, alice, chk + ((g.index, op, outcome),), enc)
                    )
        branches = nxt

    for g in chk_groups:
        nxt = []
        for p, reg, alice, chk, enc in branches:
            for pb, reg_b, bob in reg.enumerate_bell(*g.bob_qubits):
                counter.tick()
                chk2 = tuple(
                    rec + (bob, check_passes(predicate, rec[1], bob, rec[2]))
                    if rec[0] == g.index
                    else rec
                    for rec in chk
                )
                nxt.append((p * pb, reg_b, alice, chk2, enc))
        branches = nxt

    leaves: list[SessionLeaf] = []
    undecided: list[tuple] = []
    for p, reg, alice, chk, enc in branches:
        clean = all(rec[4] for rec in chk)
        if clean and enc_groups:
            undecided.append((p, reg, alice, chk, enc))
        else:
            leaves.append(
                SessionLeaf(
                    prob=p,
                    verdict=Verdict.CLEAN if clean else Verdict.EVE_DETECTED,
                    decoded_bits="",
                    checking=chk,
                    encoding=(),
                )
            )
    branches = undecided

    for j, g in enumerate(enc_groups):
        op = op_for_bits(message_bits[2 * j : 2 * j + 2])
        nxt = []
        for p, reg, alice, chk, enc in branches:
            pair = alice[g.index]
            coded = reg.clone()
            coded.apply_single(pair[slot], op.matrix)
            for pa, reg_a, outcome in coded.enumerate_bell(*pair):
                for pb, reg_b, bob in reg_a.enumerate_bell(*g.bob_qubits):
                    counter.tick()
                    nxt.append(
                        (p * pa * pb, reg_b, alice, chk, enc + ((g.index, outcome, bob),))
                    )
        branches = nxt

    for p, _reg, _alice, chk, enc in branches:
        decoded = "".join(
            decode_op(bob, alice_kind).bits for _idx, alice_kind, bob in enc
        )
        leaves.append(
            SessionLeaf(
                prob=p,
                verdict=Verdict.CLEAN,
                decoded_bits=decoded,
                checking=chk,
                encoding=enc,
            )
        )
    return leaves


# ---------------------------------------------------------------------------
# Monte Carlo validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical single-group failure rates under both predicates."""

    strategy: AttackStrategy
    trials: int
    seed: int
    failures: Mapping[DetectionPredicate, int]

    def p_hat(self, predicate: DetectionPredicate) -> float:
        return self.failures[predicate] / self.trials

    def ci(self, predicate: DetectionPredicate) -> float:
        """Three-sigma binomial half-width around the empirical rate."""
        p = self.p_hat(predicate)
        return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / self.trials)


def monte_carlo(
    strategy: AttackStrategy,
    trials: int,
    seed: int,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> MonteCarloResult:
    """Sampled single-group checking rounds through the live protocol and
    adversary stack.

    Trial ``t`` consumes the leading draws of ``make_rng(seed, t)``.  The
    trials run in chunks of ``MC_CHUNK``: each chunk is one batched
    register pushed once through the round, and ``qcore.TrialStreams``
    hands every trial exactly its own stream's draws, so the counts do not
    depend on the chunk size.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    policy = UNIFORM_POLICY if policy is None else policy
    check_policy(policy)
    failures = {pred: 0 for pred in DetectionPredicate}
    for start in range(0, trials, MC_CHUNK):
        rng = qcore.TrialStreams(seed, start, min(start + MC_CHUNK, trials))
        register = Register(
            [qcore.make_bell(_PSI, 1, 2), qcore.make_bell(_PSI, 3, 4)]
        )
        group = Group(index=1, bob_qubits=(1, 3), alice_qubits=(2, 4))
        memory = EveMemory(strategy=strategy)
        adv.apply_attack(strategy, register, [group], rng, memory)
        op = draw_op(policy, rng)
        register.apply_single(group.travel_photon(encode_target), OP_MATRICES[op])
        alice = register.measure_bell(*group.alice_qubits, rng)
        bob = register.measure_bell(*group.bob_qubits, rng)
        for pred in DetectionPredicate:
            failures[pred] += len(rng) - int(
                np.count_nonzero(check_passes(pred, op, bob, alice))
            )
    return MonteCarloResult(
        strategy=strategy, trials=trials, seed=seed, failures=failures
    )


# ---------------------------------------------------------------------------
# identities gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    max_error: float
    detail: str = ""


def _check(name: str, max_error: float, detail: str = "") -> IdentityCheck:
    return IdentityCheck(name, max_error < IDENTITY_TOL, max_error, detail)


def _check_flag(name: str, ok: bool, detail: str = "") -> IdentityCheck:
    return IdentityCheck(name, ok, 0.0 if ok else 1.0, detail)


def run_identities() -> list[IdentityCheck]:
    """Verify the printed swapping algebra against the engine.

    Every check is numeric with a 1e-9 tolerance; a failure means the
    engine, the cached tables, and the reference decompositions no longer
    tell the same story.
    """
    checks: list[IdentityCheck] = []

    # Reference decompositions, term by term with signs.
    for (k12, k34), reference in REFERENCE_SWAP_TABLES.items():
        table = swap_decompose(k12, k34)
        err = max(
            abs(table.coefficient(b, a) - reference.get((b, a), 0.0))
            for b in BELL_KINDS
            for a in BELL_KINDS
        )
        checks.append(
            _check(f"swap decomposition {k12.value} x {k34.value}", err)
        )

    # Equal quarter probabilities for the base product's four outcomes.
    product = qcore.compose(
        qcore.make_bell(_PSI, 1, 2), qcore.make_bell(_PSI, 3, 4)
    )
    branches = qcore.bell_branches(product, 1, 3)
    err = max(abs(b.prob - 0.25) for b in branches)
    err = max(err, abs(sum(b.prob for b in branches) - 1.0))
    ok = len(branches) == 4 and all(
        qcore.classify_bell(b.state) is b.kind for b in branches
    )
    checks.append(
        IdentityCheck(
            "base product outcome probabilities", ok and err < IDENTITY_TOL, err
        )
    )

    # Closed-form support rule against the derived tables, all 16 inputs.
    rule_ok = all(
        swap_decompose(k12, k34).support() == swap_support_rule(k12, k34)
        for k12 in BELL_KINDS
        for k34 in BELL_KINDS
    )
    checks.append(_check_flag("swap support closed form", rule_ok))

    # Encoding orbit: the plus-state anchors land where the codeword list
    # says, the full map is the induced label XOR, and each op is a
    # bijection on kinds.
    orbit_ok = all(apply_encoding(op, _PSI) is ORBIT_ANCHORS[op] for op in ENCODING_OPS)
    lp = kind_label(_PSI)
    for op in ENCODING_OPS:
        images = set()
        lo = kind_label(ORBIT_ANCHORS[op])
        for kind in BELL_KINDS:
            derived = apply_encoding(op, kind)
            lk = kind_label(kind)
            expected = (lk[0] ^ lo[0] ^ lp[0], lk[1] ^ lo[1] ^ lp[1])
            if kind_label(derived) != expected:
                orbit_ok = False
            images.add(derived)
        if len(images) != 4:
            orbit_ok = False
    checks.append(_check_flag("encoding orbit", orbit_ok))

    # Correlation table: columns equal the reference supports, partition
    # the 16 outcome pairs, and decode round-trips.
    table = correlation_table()
    column_ok = all(
        table[op]
        == frozenset(REFERENCE_SWAP_TABLES[(_PSI, apply_encoding(op, _PSI))])
        for op in ENCODING_OPS
    )
    cover = set()
    for column in table.values():
        cover |= column
    decode_ok = all(
        decode_op(b, apply_encoding(op, b)) is op
        for op in ENCODING_OPS
        for b in BELL_KINDS
    )
    checks.append(
        _check_flag(
            "correlation table structure",
            column_ok and len(cover) == 16 and decode_ok,
        )
    )

    # Eight-photon replace scenario: overlaps with every aligned
    # Bell-quadruple product equal the product of base signs over 4.
    state8 = product
    for first, second in ((5, 6), (7, 8)):
        state8 = qcore.compose(state8, qcore.make_bell(_PSI, first, second))
    err = 0.0
    for p in BELL_KINDS:
        for q in BELL_KINDS:
            bra = qcore.compose(
                qcore.compose(qcore.make_bell(p, 1, 3), qcore.make_bell(p, 2, 4)),
                qcore.compose(qcore.make_bell(q, 5, 7), qcore.make_bell(q, 6, 8)),
            )
            expected = _BASE_SIGN[p] * _BASE_SIGN[q] / 4.0
            err = max(err, abs(qcore.overlap(bra, state8) - expected))
    checks.append(_check("replace scenario eight-photon expansion", err))

    # Six-photon ancilla scenario: the pinned expansion is exactly the
    # CNOT-copied state, and its eight terms exhaust it.
    state6 = qcore.compose(
        qcore.compose(qcore.make_bell(_PSI, 1, 2), qcore.single_qubit(5)),
        qcore.compose(qcore.make_bell(_PSI, 3, 4), qcore.single_qubit(6)),
    )
    state6 = qcore.apply_cnot(state6, 2, 5)
    state6 = qcore.apply_cnot(state6, 4, 6)
    amp = math.sqrt(2.0) / 4.0
    err = 0.0
    weight = 0.0
    for bob, travel, anc, sign in ANCILLA_EXPANSION:
        bra = qcore.compose(
            qcore.compose(qcore.make_bell(bob, 1, 3), qcore.make_bell(travel, 2, 4)),
            qcore.make_bell(anc, 5, 6),
        )
        c = qcore.overlap(bra, state6)
        err = max(err, abs(c - sign * amp))
        weight += abs(c) ** 2
    err = max(err, abs(weight - 1.0))
    checks.append(_check("ancilla scenario six-photon expansion", err))

    return checks


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionReport:
    strategy: AttackStrategy
    predicate: DetectionPredicate
    p_exact: float
    p_algebra: float
    p_mc: float | None
    ci: float | None
    trials: int
    seed: int | None
    eve_guess_accuracy: float
    honest_fidelity: float
    paper_claim: float | None
    claim_note: str

    def to_json_dict(self) -> dict:
        delta = None
        if self.paper_claim is not None:
            delta = abs(self.p_exact - self.paper_claim)
        return {
            "strategy": self.strategy.value,
            "predicate": self.predicate.value,
            "p_exact": self.p_exact,
            "p_algebra": self.p_algebra,
            "p_mc": self.p_mc,
            "ci": self.ci,
            "trials": self.trials,
            "seed": self.seed,
            "eve_guess_accuracy": self.eve_guess_accuracy,
            "honest_fidelity": self.honest_fidelity,
            "session_detection": {
                str(m): session_detection(self.p_exact, m) for m in SESSION_CURVE_POINTS
            },
            "paper_claim": self.paper_claim,
            "claim_note": self.claim_note,
            "abs_delta": delta,
        }


def detection_report(
    strategy: AttackStrategy,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    *,
    trials: int = 0,
    seed: int | None = None,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    mc: MonteCarloResult | None = None,
    leakage: float | None = None,
    fidelity: float | None = None,
) -> DetectionReport:
    """Assemble exact, algebraic, and (optionally) sampled figures.

    ``mc``, ``leakage`` and ``fidelity`` pass in figures already computed
    for this strategy and encode target; none depends on the predicate.
    """
    p_exact = exact_detection(strategy, predicate, policy, encode_target)
    p_algebra = detection_from_swap_algebra(strategy, predicate, policy, encode_target)
    if mc is None and trials > 0:
        if seed is None:
            raise ValueError("sampling requires a seed")
        mc = monte_carlo(strategy, trials, seed, policy, encode_target)
    return DetectionReport(
        strategy=strategy,
        predicate=predicate,
        p_exact=p_exact,
        p_algebra=p_algebra,
        p_mc=mc.p_hat(predicate) if mc else None,
        ci=mc.ci(predicate) if mc else None,
        trials=mc.trials if mc else 0,
        seed=mc.seed if mc else seed,
        eve_guess_accuracy=(
            exact_leakage(strategy, encode_target) if leakage is None else leakage
        ),
        honest_fidelity=(
            honest_fidelity(strategy, encode_target) if fidelity is None else fidelity
        ),
        paper_claim=PAPER_CLAIMED_DETECTION[strategy],
        claim_note=DETECTION_CLAIM_NOTES[strategy],
    )


def leakage_report(
    strategy: AttackStrategy,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> dict:
    accuracy = exact_leakage(strategy, encode_target)
    claim = PAPER_CLAIMED_LEAKAGE[strategy]
    return {
        "strategy": strategy.value,
        "eve_guess_accuracy": accuracy,
        "chance_level": 0.25,
        "paper_claim": claim,
        "abs_delta": None if claim is None else abs(accuracy - claim),
    }


def sweep_report(trials: int, seed: int) -> dict:
    """All strategies under both predicates, exact figures beside the
    claimed reference values; the Monte Carlo run, leakage and fidelity
    are computed once per strategy and shared by both predicates' rows."""
    rows = []
    for strategy in AttackStrategy:
        mc = monte_carlo(strategy, trials, seed) if trials > 0 else None
        leakage = exact_leakage(strategy)
        fidelity = honest_fidelity(strategy)
        for predicate in DetectionPredicate:
            report = detection_report(
                strategy, predicate, mc=mc, leakage=leakage, fidelity=fidelity
            )
            rows.append(report.to_json_dict())
    return {"mode": "sweep", "trials": trials, "seed": seed, "rows": rows}


def sweep_csv(report: dict) -> str:
    """Flat projection: one row per (strategy, predicate)."""
    header = (
        "strategy,predicate,p_exact,p_algebra,p_mc,ci,"
        "eve_guess_accuracy,honest_fidelity,paper_claim,abs_delta"
    )
    lines = [header]
    for row in report["rows"]:
        lines.append(
            ",".join(
                _csv_cell(row[key])
                for key in (
                    "strategy",
                    "predicate",
                    "p_exact",
                    "p_algebra",
                    "p_mc",
                    "ci",
                    "eve_guess_accuracy",
                    "honest_fidelity",
                    "paper_claim",
                    "abs_delta",
                )
            )
        )
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)
