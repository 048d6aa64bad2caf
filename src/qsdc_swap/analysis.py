"""Exact branch enumeration and sampling cross-checks for sessions under
each channel adversary.

Detection probabilities come from two deliberately separate code paths:

* tree enumeration, which replays the live adversary and protocol code
  (the round ``monte_carlo`` samples) under scripted outcomes: every
  random choice goes through ``qcore.choose``, and each replay extends
  every outcome prefix by all outcomes of its next branching choice, with
  exact weights; a choice with a single possible outcome is taken within
  the pass and costs none of its own, and
* swap-algebra arithmetic, which never touches amplitudes and works only
  with the cached decomposition tables.

Detection, leakage and fidelity are reductions of one single-group leaf
set.  Reports carry both routes, next to the claimed reference value where
one exists; Monte Carlo sampling exists to validate the exact numbers and
to cover configurations whose enumeration would blow the node budget (set
via the ``QSDC_NODE_BUDGET`` environment variable, default one million
rows replayed over all passes).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import adversary as adv
from . import protocol, qcore
from .adversary import CORRECTION_TRIGGER, CORRECTIVE_OP, AttackStrategy, EveMemory
from .bellmap import (
    ENCODING_OPS,
    EncodingOp,
    apply_encoding,
    correlation_table,
    decode_op,
    is_correlated,
    kind_label,
    swap_decompose,
    swap_support_rule,
)
from .protocol import (
    DetectionPredicate,
    EncodeTarget,
    SessionConfig,
    UNIFORM_POLICY,
    Verdict,
    check_member,
    check_passes,
    policy_weights,
    prepare_registers,
)
from .qcore import BELL_KINDS, BellKind

NODE_BUDGET_ENV = "QSDC_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 1_000_000

# Monte Carlo trials pushed through the round as one batch: the published
# sweep's 2000 trials per strategy are one batch, and the cap keeps a large
# --trials from allocating without bound.  `--mode sweep --trials 20000
# --seed 4` by chunk size (in-process median time, 2-vCPU Xeon, Python
# 3.11, numpy 2.4; peak RSS of the whole command):
#
#   MC_CHUNK   sweep time   peak RSS
#     1024       167 ms     32.0 MB
#     2048       128 ms     32.4 MB
#     4096       114 ms     34.1 MB
#     8192        95 ms     35.9 MB
#    20000        96 ms     40.8 MB
MC_CHUNK = 4096

IDENTITY_TOL = 1e-9

_PSI = BellKind.PSI_PLUS


class EnumerationBudgetError(RuntimeError):
    """The enumeration tree outgrew the configured node budget."""


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
# tree route: the live code replayed under scripted outcomes
# ---------------------------------------------------------------------------


class _Script:
    """Outcome source that replays one outcome prefix per batch row.

    Past the prefixes, a choice with one outcome at or above
    ``qcore.MIN_BRANCH_PROB`` in every row is forced: it is taken in the
    same pass, and its outcome and probability columns go to ``forced``.
    The first choice with more outcomes in some row records every row's
    outcome probabilities in ``open``; from there on each choice takes the
    row's likeliest outcome.
    """

    def __init__(self, prefixes: np.ndarray):
        self.prefixes = prefixes
        self.depth = 0
        self.forced: list[tuple[np.ndarray, np.ndarray]] = []
        self.open: np.ndarray | None = None

    def choose(self, probs) -> np.ndarray:
        probs = np.broadcast_to(probs, (len(self.prefixes), np.shape(probs)[-1]))
        self.depth += 1
        if self.depth <= self.prefixes.shape[1]:
            return self.prefixes[:, self.depth - 1]
        outcome = probs.argmax(axis=-1)
        if self.open is None:
            if (np.count_nonzero(probs >= qcore.MIN_BRANCH_PROB, axis=-1) == 1).all():
                self.forced.append((outcome, probs[np.arange(len(probs)), outcome]))
            else:
                self.open = probs
        return outcome


def _replay(round_fn):
    """Every outcome history of ``round_fn(rng)``, breadth first.

    Each pass replays the round on all prefixes so far, takes the forced
    choices it meets, and extends every row by each non-negligible outcome
    of its first real branching, so a choice with one possible outcome
    costs no pass of its own.  Prefixes hold one column per choice, and
    weights take each choice's probability in choice order.  Returns the
    prefixes in lexicographic order, their exact weights and the last
    pass's result, which holds one outcome per history.  Rows replayed
    over all passes count against the node budget.
    """
    raw = os.environ.get(NODE_BUDGET_ENV, str(DEFAULT_NODE_BUDGET))
    try:
        node_budget = int(raw)
    except ValueError:
        node_budget = 0
    if node_budget < 1:
        raise ValueError(f"{NODE_BUDGET_ENV} must be a positive integer, got {raw!r}")
    prefixes = np.zeros((1, 0), dtype=np.intp)
    weights = np.ones(1)
    replayed = 0
    while True:
        replayed += len(prefixes)
        if replayed > node_budget:
            raise EnumerationBudgetError(
                f"enumeration exceeded the {node_budget}-node budget"
            )
        script = _Script(prefixes)
        result = round_fn(script)
        for outcome, p in script.forced:
            weights = weights * p
            prefixes = np.column_stack([prefixes, outcome])
        if script.open is None:
            return prefixes, weights, result
        rows, outcomes = np.nonzero(script.open >= qcore.MIN_BRANCH_PROB)
        weights = weights[rows] * script.open[rows, outcomes]
        prefixes = np.column_stack([prefixes[rows], outcomes])


def _session_round(cfg: SessionConfig, strategy: AttackStrategy, checking: set[int], rng):
    """``run_session`` up to its verdict, with the groups in ``checking``
    checking: the round that sampling and enumeration share."""
    register, groups = prepare_registers(cfg)
    memory = EveMemory(strategy=strategy)
    adv.apply_attack(strategy, register, groups, rng, memory)
    chk = protocol.run_checking(
        register,
        [g for g in groups if g.index in checking],
        rng,
        policy=cfg.checking_op_policy,
        encode_target=cfg.encode_target,
        predicate=cfg.predicate,
    )
    return register, groups, memory, chk


def _one_group_config(policy, encode_target) -> SessionConfig:
    """The session of one checking group that the single-group figures use."""
    policy = UNIFORM_POLICY if policy is None else policy
    return SessionConfig(1, 1, checking_op_policy=policy, encode_target=encode_target)


@dataclass(frozen=True, eq=False)
class GroupLeaves:
    """Every history of one checking group: its weight, the drawn op, both
    Bell outcomes (int arrays indexing ENCODING_OPS and BELL_KINDS) and
    Eve's guess of the op, None where her rule abstains."""

    prob: np.ndarray
    op: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    guess: np.ndarray | None

    def detection(self, predicate: DetectionPredicate) -> float:
        """Chance that the group fails the check."""
        return _total(self.prob[~check_passes(predicate, self.op, self.bob, self.alice)])

    def leakage(self) -> float:
        """Chance that Eve's guess is the op; abstaining scores 1/4."""
        if self.guess is None:
            return 0.25 * _total(self.prob)
        return _total(self.prob[self.guess == self.op])

    def fidelity(self) -> float:
        """Chance that the receiver decodes the op."""
        return _total(self.prob[is_correlated(self.op, self.bob, self.alice)])


def _total(weights: np.ndarray) -> float:
    """Sum the leaves one at a time in their depth-first order.  Reports
    print exact figures to full precision, so the order of additions is
    part of their bytes; this is the order a recursive tree walk adds in."""
    return float(np.add.accumulate(weights)[-1]) if weights.size else 0.0


def group_leaves(
    strategy: AttackStrategy,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> GroupLeaves:
    """The single-group round enumerated: the checking round, then Eve's
    deferred measurements and her guess from the announced outcome, as if
    the group carried a message word drawn from ``policy``."""
    cfg = _one_group_config(policy, encode_target)

    def group_round(rng):
        register, groups, memory, chk = _session_round(cfg, strategy, {1}, rng)
        adv.finalize_attack(strategy, register, groups, memory, rng)
        (guess,) = adv.eve_guess_bits(memory, chk.group.tolist(), chk.alice).values()
        return chk.op[0], chk.alice[0], chk.bob[0], guess

    _, prob, outcomes = _replay(group_round)
    return GroupLeaves(prob, *outcomes)


def exact_detection(
    strategy: AttackStrategy,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> float:
    """Exact chance that one checking group fails, via tree enumeration.

    Marginalizes over Eve's branches, the sender's op draw, and both Bell
    measurements.  Detection is independent across groups, so the session
    figure for m groups is ``session_detection(p, m)``; the tests
    ``test_two_group_detection_composes_iid`` (exact, two and three
    groups) and ``test_failed_checks_at_33_groups_are_binomial``
    (sampled, 33 groups) measure that claim.
    """
    return group_leaves(strategy, policy, encode_target).detection(predicate)


def exact_leakage(
    strategy: AttackStrategy,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> float:
    """Exact chance Eve's guess matches the encoded op of one group, words
    taken uniform; an abstaining rule scores the chance level of 1/4."""
    return group_leaves(strategy, None, encode_target).leakage()


def honest_fidelity(
    strategy: AttackStrategy,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> float:
    """Chance the receiver decodes an encoding group correctly under the
    attack, assuming the session was not aborted."""
    return group_leaves(strategy, None, encode_target).fidelity()


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
    check_member(DetectionPredicate, predicate)
    first = check_member(EncodeTarget, encode_target) is EncodeTarget.FIRST_TRAVEL_PHOTON
    base = swap_decompose(_PSI, _PSI)
    weights = policy_weights(UNIFORM_POLICY if policy is None else policy)
    total = 0.0
    for op, w in zip(ENCODING_OPS, weights):
        if not w:
            continue
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


class SessionLeaf(NamedTuple):
    """One complete measurement history of an enumerated session."""

    prob: float
    verdict: Verdict
    decoded_bits: str
    checking: tuple[tuple[int, EncodingOp, BellKind, BellKind, bool], ...]
    encoding: tuple[tuple[int, BellKind, BellKind], ...]


# A leaf from its fields, without the Python-level ``__new__`` of a NamedTuple.
_leaf = partial(tuple.__new__, SessionLeaf)


def _rows(n: int, group: np.ndarray, *fields: tuple[np.ndarray, Sequence]) -> list[tuple]:
    """Each of ``n`` histories' records, one (group, *values) tuple per
    group; empty tuples without groups.  Each field pairs a (groups, n)
    column of codes with the values they index.

    Equal records are one shared tuple, and so are equal histories: a
    group's fields are one mixed-radix code per history, and the groups
    fold in one at a time, renumbering the distinct histories after each,
    so no code exceeds n times a group's number of distinct records.
    """
    radix = tuple(len(values) for _, values in fields)
    history = np.zeros(n, dtype=np.intp)
    per_group = []
    for g, *codes in zip(group.tolist(), *(column for column, _ in fields)):
        distinct, inverse = np.unique(np.ravel_multi_index(codes, radix), return_inverse=True)
        made = list(zip([g] * len(distinct), *(
            map(values.__getitem__, column.tolist())
            for (_, values), column in zip(fields, np.unravel_index(distinct, radix))
        )))
        per_group.append((inverse, made))
        _, first, history = np.unique(
            history * len(distinct) + inverse, return_index=True, return_inverse=True
        )
    if not per_group:
        return [()] * n
    shared = list(zip(*(map(made.__getitem__, inverse[first].tolist())
                        for inverse, made in per_group)))
    return list(map(shared.__getitem__, history.tolist()))


def enumerate_session_leaves(
    n_groups: int,
    checking_indices: Sequence[int],
    strategy: AttackStrategy = AttackStrategy.NONE,
    *,
    message_bits: str = "",
    policy: Mapping[EncodingOp, float] | None = None,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> list[SessionLeaf]:
    """Every measurement branch of a whole session, with exact weights.

    Replays ``run_session``'s phases with the groups in
    ``checking_indices`` (distinct integers in ``1..n_groups``) checking;
    a history that fails the check is one leaf without encoding.  The
    leaves are ``SessionLeaf`` named tuples: first every clean history in
    outcome-prefix order, then each failing checking history once, in the
    same order.  Equal records are one shared tuple, and so are equal
    histories' tuples of records.
    """
    checking: set[int] = set()
    for index in checking_indices:
        if type(index) is not int or not 1 <= index <= n_groups or index in checking:
            raise ValueError(f"bad checking index {index!r}: need distinct ints in 1..{n_groups}")
        checking.add(index)
    policy = UNIFORM_POLICY if policy is None else policy
    cfg = SessionConfig(
        n_groups, len(checking), message_bits, policy, encode_target, predicate
    )

    def session(rng):
        register, groups, _memory, chk = _session_round(cfg, strategy, checking, rng)
        checked = rng.depth
        encoding = [g for g in groups if g.index not in checking]
        enc = protocol.run_encoding(
            register, encoding, message_bits, rng, encode_target=encode_target
        )
        return chk, enc, checked

    prefixes, prob, (chk, enc, checked) = _replay(session)
    n = len(prob)
    records = _rows(n, chk.group, (chk.op, ENCODING_OPS), (chk.alice, BELL_KINDS),
                    (chk.bob, BELL_KINDS), (chk.passed, (False, True)))
    encoding = _rows(n, enc.group, (enc.alice, BELL_KINDS), (enc.bob, BELL_KINDS))
    bits = protocol.decode_message(enc.bob, enc.alice) if len(enc) else [""] * n
    clean = np.broadcast_to(chk.passed.all(axis=0), n)
    keep = clean.tolist()
    leaves = list(map(_leaf, zip(
        compress(prob.tolist(), keep), repeat(Verdict.CLEAN), compress(bits, keep),
        compress(records, keep), compress(encoding, keep),
    )))
    # A failed check ends the session, so its rows differ only in encoding
    # outcomes replayed after the check: each checking history is one leaf.
    # The prefixes come in lexicographic order, so each such history is one
    # run of rows.
    failing = np.flatnonzero(~clean)
    history = prefixes[failing, :checked]
    starts = np.ones(len(failing), dtype=bool)
    starts[1:] = (history[1:] != history[:-1]).any(axis=1)
    merged = np.bincount(np.cumsum(starts) - 1, prob[failing], np.count_nonzero(starts))
    leaves.extend(map(_leaf, zip(
        merged.tolist(), repeat(Verdict.EVE_DETECTED), repeat(""),
        map(records.__getitem__, failing[starts].tolist()), repeat(()),
    )))
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


def _check_trials(trials: int, least: int) -> int:
    """``trials`` as an int if it is an integer of at least ``least``, else
    a ValueError naming it."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < least:
        raise ValueError(f"trials must be at least {least}, got {trials}")
    return int(trials)


def monte_carlo(
    strategy: AttackStrategy,
    trials: int,
    seed: int,
    policy: Mapping[EncodingOp, float] | None = None,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> MonteCarloResult:
    """Sampled single-group checking rounds through the live protocol and
    adversary stack, the round that ``group_leaves`` enumerates.

    Trial ``t`` consumes the leading draws of ``make_rng(seed, t)``.  The
    trials run in chunks of ``MC_CHUNK``: each chunk is one batched
    register pushed once through the round, and ``qcore.TrialStreams``
    hands every trial exactly its own stream's draws, so the counts do not
    depend on the chunk size.
    """
    trials = _check_trials(trials, 1)
    qcore.check_seed(seed)
    cfg = _one_group_config(policy, encode_target)
    failures = {pred: 0 for pred in DetectionPredicate}
    for start in range(0, trials, MC_CHUNK):
        rng = qcore.TrialStreams(seed, start, min(start + MC_CHUNK, trials))
        *_, chk = _session_round(cfg, strategy, {1}, rng)
        for pred in DetectionPredicate:
            passed = check_passes(pred, chk.op, chk.bob, chk.alice)
            failures[pred] += len(rng) - int(np.count_nonzero(passed))
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


def _report_row(
    strategy: AttackStrategy,
    predicate: DetectionPredicate,
    leaves: GroupLeaves,
    mc: MonteCarloResult | None,
    seed: int | None,
) -> dict:
    """One report row from the strategy's leaf set and, if sampled, its
    Monte Carlo run; leakage and fidelity take the op uniform, as words
    are."""
    p_exact = leaves.detection(predicate)
    claim = PAPER_CLAIMED_DETECTION[strategy]
    return {
        "strategy": strategy.value,
        "predicate": predicate.value,
        "p_exact": p_exact,
        "p_algebra": detection_from_swap_algebra(strategy, predicate),
        "p_mc": mc.p_hat(predicate) if mc else None,
        "ci": mc.ci(predicate) if mc else None,
        "trials": mc.trials if mc else 0,
        "seed": seed,
        "eve_guess_accuracy": leaves.leakage(),
        "honest_fidelity": leaves.fidelity(),
        "session_detection": {
            str(m): session_detection(p_exact, m) for m in SESSION_CURVE_POINTS
        },
        "paper_claim": claim,
        "claim_note": DETECTION_CLAIM_NOTES[strategy],
        "abs_delta": None if claim is None else abs(p_exact - claim),
    }


def detection_report(
    strategy: AttackStrategy,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
    *,
    trials: int = 0,
    seed: int | None = None,
) -> dict:
    """Exact, algebraic, and (optionally) sampled figures as a report row."""
    trials = _check_trials(trials, 0)
    if trials > 0 and seed is None:
        raise ValueError("sampling requires a seed")
    mc = monte_carlo(strategy, trials, seed) if trials > 0 else None
    return _report_row(strategy, predicate, group_leaves(strategy), mc, seed if mc else None)


def leakage_report(strategy: AttackStrategy) -> dict:
    accuracy = exact_leakage(strategy)
    claim = PAPER_CLAIMED_LEAKAGE[strategy]
    return {
        "strategy": strategy.value,
        "eve_guess_accuracy": accuracy,
        "chance_level": 0.25,
        "paper_claim": claim,
        "abs_delta": None if claim is None else abs(accuracy - claim),
    }


def sweep_report(trials: int, seed: int | None) -> dict:
    """All strategies under both predicates, exact figures beside the
    claimed reference values; each strategy's Monte Carlo run and leaf set
    are computed once and shared by both predicates' rows.  ``seed`` is
    recorded as given: None when ``trials`` is 0 and nothing is sampled."""
    trials = _check_trials(trials, 0)
    if trials > 0 and seed is None:
        raise ValueError("sampling requires a seed")
    rows = []
    for strategy in AttackStrategy:
        mc = monte_carlo(strategy, trials, seed) if trials > 0 else None
        leaves = group_leaves(strategy)
        for predicate in DetectionPredicate:
            rows.append(_report_row(strategy, predicate, leaves, mc, seed if mc else None))
    return {"mode": "sweep", "trials": trials, "seed": seed, "rows": rows}


_CSV_COLUMNS = (
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


def sweep_csv(report: dict) -> str:
    """Flat projection: one row per (strategy, predicate)."""
    lines = [",".join(_CSV_COLUMNS)]
    for row in report["rows"]:
        lines.append(",".join(_csv_cell(row[key]) for key in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)
