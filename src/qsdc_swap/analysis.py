"""Exact branch enumeration and sampling cross-checks for sessions under
each channel adversary.

Detection probabilities come from two deliberately separate code paths:

* tree enumeration, which replays the live adversary and protocol code
  (the round ``monte_carlo`` samples) under scripted outcomes: every
  random choice goes through the outcome hook ``rng.choose``, and each
  replay extends every outcome prefix by all outcomes of its next
  branching choice, with exact weights; a choice with a single possible
  outcome is taken within the pass and costs none of its own, and a pass
  ends at its first
  branching choice, so only the last pass runs the round to its end, and
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
from .adversary import CORRECTION_TRIGGER, CORRECTIVE_OP, AttackStrategy, EveMemory, kind_in
from .bellmap import (
    ENCODING_OPS,
    EncodingOp,
    apply_encoding,
    correlation_columns,
    correlation_table,
    decode_op,
    encoding_codes,
    is_correlated,
    kind_label,
    swap_decompose,
    swap_support_rule,
    swap_supports,
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
# --trials from allocating state arrays without bound (a sweep's
# ``SharedDraws`` still keep 64 B per trial).  `--mode sweep --trials 20000
# --seed 4` by chunk size, measured before the strategies shared their
# draws (in-process median time, 2-vCPU Xeon, Python 3.11, numpy 2.4; peak
# RSS of the whole command):
#
#   MC_CHUNK   sweep time   peak RSS
#     1024       167 ms     32.0 MB
#     2048       128 ms     32.4 MB
#     4096       114 ms     34.1 MB
#     8192        95 ms     35.9 MB
#    20000        96 ms     40.8 MB
MC_CHUNK = 4096

# Widest span of codes, per code ranked, that ``_rank`` ranks by marking
# the codes present rather than by sorting.  65,536 random intp codes over
# a span of span/n codes per code (best of 7x20 calls, 2-vCPU Xeon, Python
# 3.11, numpy 2.4; tracemalloc peak of one call), ranked by ``np.unique``,
# by a ``cumsum`` over the marks, and by the scatter that ``_rank`` uses:
#
#   span/n   np.unique          cumsum             scatter
#    0.25    2.41 ms  2.82 MB   0.22 ms  0.80 MB   0.19 ms  0.80 MB
#    1       2.61 ms  3.02 MB   0.47 ms  1.45 MB   0.31 ms  1.45 MB
#    2       2.96 ms  3.10 MB   1.59 ms  2.23 MB   0.43 ms  2.12 MB
#    4       2.79 ms  3.15 MB   2.81 ms  4.46 MB   0.69 ms  3.35 MB
#    8       1.89 ms  3.18 MB   4.52 ms  8.91 MB   1.22 ms  5.74 MB
#
# The scatter stays faster, but past two codes per code its span arrays
# take more memory than the sort, whose memory follows the codes alone.
RANK_SPAN = 2

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


class _Branching(Exception):
    """Ends a replay pass at its first branching choice; ``_replay`` alone
    catches it."""


class _Script:
    """Outcome source that replays one outcome prefix per batch row.

    The prefixes are ``columns``, one per choice already made, each a
    read-only, contiguous (batch,) intp array of every row's outcome; the
    round's first choices are handed those columns.  Past them, a choice
    with one outcome at or above ``qcore.MIN_BRANCH_PROB`` in every row is
    forced: it is taken in the same pass, and its outcome column (handed
    out read-only as well) and probability column go to ``forced``.  The
    first choice with more outcomes in some row records every row's
    outcome probabilities in ``open`` and ends the pass by raising
    ``_Branching``.

    No reduction runs along the outcome axis: one row of weights is
    decided once for every row, and only a branching choice broadcasts it
    into ``open``; per-row weights are tested with one flat ``nonzero`` of
    their live entries.  Weights of distinct states with a row index
    (``rows``) are tested on the distinct states, and a forced choice's
    columns are taken from them by the index; if any distinct state has
    other than one live outcome, the choice is decided on the weights
    gathered per row, so that ``open`` holds one row per batch row.
    """

    def __init__(self, columns: Sequence[np.ndarray], batch: int):
        self.columns = columns
        self.batch = batch
        self.depth = 0
        self.forced: list[tuple[np.ndarray, np.ndarray]] = []
        self.open: np.ndarray | None = None

    def choose(self, probs, rows: np.ndarray | None = None) -> np.ndarray:
        self.depth += 1
        if self.depth <= len(self.columns):
            return self.columns[self.depth - 1]
        probs = np.asarray(probs)
        if probs.ndim == 1:  # the same outcomes in every row
            live = probs >= qcore.MIN_BRANCH_PROB
            if np.count_nonzero(live) != 1:
                self.open = np.broadcast_to(probs, (self.batch, len(probs)))
                raise _Branching
            only = live.argmax()
            forced = np.full(self.batch, only), np.full(self.batch, probs[only])
        else:
            forced = _one_live(probs)
            if rows is not None:
                if forced is not None:
                    forced = tuple(column.take(rows) for column in forced)
                else:
                    probs = probs.take(rows, axis=0)
                    forced = _one_live(probs)
            if forced is None:
                self.open = probs
                raise _Branching
        self.forced.append(forced)
        return _read_only(forced[0])


def _read_only(column: np.ndarray) -> np.ndarray:
    """``column``, which no one else holds, made read-only."""
    column.flags.writeable = False
    return column


def _one_live(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's outcome and probability if every row of ``probs`` has
    exactly one outcome at or above ``qcore.MIN_BRANCH_PROB``, else None."""
    # One live outcome per row: the i-th live entry, in row-major order,
    # lies in row i.
    rows, width = probs.shape
    at = np.flatnonzero(probs >= qcore.MIN_BRANCH_PROB)
    if len(at) != rows:
        return None
    outcome = at - np.arange(0, rows * width, width)
    if not np.logical_and.reduce((outcome >= 0) & (outcome < width)):
        return None
    # ``take`` of the flat indices: a boolean mask over a 2-D array gathers
    # the same entries several times slower.
    return outcome, probs.take(at)


def _replay(round_fn):
    """Every outcome history of ``round_fn(rng)``, breadth first.

    Each pass replays the round on all prefixes so far, takes the forced
    choices it meets, and ends at its first real branching, extending
    every row by each non-negligible outcome of it, so a choice with one
    possible outcome costs no pass of its own.  Only the last pass, which
    meets no branching, runs the round to its end.  The prefixes are a
    list of read-only (rows,) intp columns, one per choice: a forced
    choice appends its column, and a branching choice takes each column
    at the rows it extends and appends their outcomes, so a pass costs
    one gather per column and no (rows, depth) matrix is ever built.
    Weights take each choice's probability in choice order.  Returns the
    columns, whose rows are the histories in lexicographic order, their
    exact weights and the last pass's result, which holds one outcome per
    history.  Rows replayed over all passes count against the node budget.
    """
    raw = os.environ.get(NODE_BUDGET_ENV, str(DEFAULT_NODE_BUDGET))
    try:
        node_budget = int(raw)
    except ValueError:
        node_budget = 0
    if node_budget < 1:
        raise ValueError(f"{NODE_BUDGET_ENV} must be a positive integer, got {raw!r}")
    columns: list[np.ndarray] = []
    weights = np.ones(1)
    replayed = 0
    while True:
        replayed += len(weights)
        if replayed > node_budget:
            raise EnumerationBudgetError(
                f"enumeration exceeded the {node_budget}-node budget"
            )
        script = _Script(columns, len(weights))
        try:
            result = round_fn(script)
        except _Branching:
            pass
        for outcome, p in script.forced:
            weights = weights * p
            columns.append(outcome)
        if script.open is None:
            return columns, weights, result
        rows, outcomes = np.nonzero(script.open >= qcore.MIN_BRANCH_PROB)
        weights = weights[rows] * script.open[rows, outcomes]
        columns = [_read_only(column.take(rows)) for column in columns]
        columns.append(_read_only(np.ascontiguousarray(outcomes)))


def _session_round(cfg: SessionConfig, strategy: AttackStrategy, checking: set[int], rng):
    """``run_session`` up to its verdict, with the groups in ``checking``
    checking: the round that sampling and enumeration share."""
    register, groups = prepare_registers(cfg)
    memory = EveMemory()
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
        adv.finalize_attack(register, groups, memory, rng)
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
    encoding tables alone; second, amplitude-free route for cross-checks.

    A group fails when its joint outcome lies outside the correlation
    column of the announced op (U0's under strict-u0).  The route reads
    those columns from ``correlation_table()`` itself, as bellmap's
    int-coded ``correlation_columns()``, and shares no check code with the
    tree route, only bellmap's tables.  Each strategy's joint outcomes are
    int-coded arrays with one row per op in ENCODING_OPS order; each op's
    failing entries are summed one at a time, and the ops in that order.
    """
    strict = check_member(DetectionPredicate, predicate) is DetectionPredicate.STRICT_U0
    first = check_member(EncodeTarget, encode_target) is EncodeTarget.FIRST_TRAVEL_PHOTON
    weights = policy_weights(UNIFORM_POLICY if policy is None else policy)
    support, encode = swap_supports(), encoding_codes()
    # outside[op, bob, alice]: the joint outcome fails the check when op is announced.
    outside = ~correlation_columns()[np.zeros(4, dtype=np.intp) if strict else slice(None)]
    ops = np.arange(4)[:, None]
    psi = BELL_KINDS.index(_PSI)
    # The base product's joint outcomes (bob, eve), bob major, as
    # ``swap_decompose`` lists its coefficients.
    bob, eve = np.nonzero(support[psi, psi])
    terms = None  # each entry's probability, where the entries differ
    if strategy is AttackStrategy.NONE:
        k12, k34 = (encode[:, psi], psi) if first else (psi, encode[:, psi])
        out, p = support[k12, k34] & outside, 0.25
    elif strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND:
        # Measuring the travel pair leaves the kept pair in the partner
        # kind; the resent pair then carries the op alone.
        out = outside[ops, bob, encode[:, eve]]
        terms = [c ** 2 for c in swap_decompose(_PSI, _PSI).coeffs.values()]
    elif strategy is AttackStrategy.REPLACE_MEASURE_AFTER:
        out, p = outside, 1.0 / 16.0
    elif strategy is AttackStrategy.REPLACE_MEASURE_BEFORE:
        # Each early cross measurement swaps one travel photon's
        # entanglement onto Eve's forwarded photon: [op, e1, e2, bob, alice].
        encoded, plain = encode[:, eve], np.broadcast_to(eve, (4, len(eve)))
        k12, k34 = (encoded, plain) if first else (plain, encoded)
        out = support[k12[:, :, None], k34[:, None, :]] & outside[:, None, None]
        p = 0.25 * 0.25 * 0.25
    elif strategy in (AttackStrategy.ANCILLA_PASSIVE, AttackStrategy.ANCILLA_CORRECTIVE):
        bob, travel, anc = np.array(
            [[BELL_KINDS.index(k) for k in row[:3]] for row in ANCILLA_EXPANSION]
        ).T
        if strategy is AttackStrategy.ANCILLA_CORRECTIVE:
            corrected = kind_in(anc, CORRECTION_TRIGGER)
            travel = np.where(corrected, encode[ENCODING_OPS.index(CORRECTIVE_OP), travel], travel)
        out, p = outside[ops, bob, encode[:, travel]], 0.125
    else:
        raise ValueError(f"unhandled strategy {strategy}")
    if terms is None:
        fails = [sum(repeat(p, n)) for n in np.count_nonzero(out.reshape(4, -1), axis=1).tolist()]
    else:
        fails = [sum(compress(terms, row)) for row in out.tolist()]
    total = 0.0
    for w, fail in zip(weights, fails):
        if w:
            total += w * fail
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


def _rank(codes: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` of intp ``codes`` in
    ``0..span-1``: the sorted distinct codes and each code's index among
    them, bit for bit.

    A span of at most ``RANK_SPAN`` codes per code is ranked without a
    sort: a bool array marks the codes present, its ``flatnonzero`` is
    the distinct codes, and a scatter of their ranks over the span is
    gathered at each code, in time and memory linear in rows plus span.
    A wider span is sorted by ``np.unique``, whose memory follows the
    codes alone.
    """
    if span > RANK_SPAN * len(codes):
        return np.unique(codes, return_inverse=True)
    present = np.zeros(span, dtype=bool)
    present[codes] = True
    distinct = np.flatnonzero(present)
    rank = np.empty(span, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank.take(codes)


def _fold(
    n: int, *columns: tuple[np.ndarray | None, Sequence], make=tuple
) -> tuple[np.ndarray, list]:
    """The distinct rows of ``n`` rows of columns: each row's code, and one
    ``make``-built tuple of values per distinct row, in code order.

    Each column pairs n codes with the values they index; a column of one
    value may give None for codes.  Columns of more than one value fold
    into the codes one at a time, and each fold ranks (``_rank``) the
    distinct rows, so no code exceeds n times a column's number of values.
    """
    code, count = np.zeros(n, dtype=np.intp), min(n, 1)
    for column, values in columns:
        if len(values) > 1:
            distinct, code = _rank(code * len(values) + column, count * len(values))
            count = len(distinct)
    # Rows of one code hold equal values: build each tuple from any one.
    row_of = np.empty(count, dtype=np.intp)
    row_of[code] = np.arange(n)
    return code, list(map(make, zip(*(
        repeat(values[0], count) if column is None
        else map(values.__getitem__, column[row_of].tolist())
        for column, values in columns
    ))))


def _rows(
    n: int, group: np.ndarray, *fields: tuple[np.ndarray, Sequence]
) -> tuple[np.ndarray, list[tuple]]:
    """The ``_fold`` of ``n`` histories' records, one (group, *values)
    tuple per group, with one empty history without groups.  Each field
    pairs a (groups, n) column of codes with the values they index; a
    group's fields are one mixed-radix code per history, ranked
    (``_rank``) over the product of the radices, so equal records are one
    shared tuple, and so are equal histories.
    """
    radix = tuple(len(values) for _, values in fields)
    per_group = []
    for g, *codes in zip(group.tolist(), *(column for column, _ in fields)):
        distinct, inverse = _rank(np.ravel_multi_index(codes, radix), math.prod(radix))
        per_group.append((inverse, list(zip([g] * len(distinct), *(
            map(values.__getitem__, column.tolist())
            for (_, values), column in zip(fields, np.unravel_index(distinct, radix))
        )))))
    return _fold(n, *per_group) if per_group else (np.zeros(n, dtype=np.intp), [()])


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
    histories' tuples of records and equal leaves: histories that differ
    only in outcomes no field records (Eve's hidden measurements) are one
    leaf object at each of their places in the list, so ``id()`` does not
    tell histories apart.  Each leaf is built once and each distinct
    encoding history decoded once.
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

    columns, prob, (chk, enc, checked) = _replay(session)
    n = len(prob)
    checked_code, histories = _rows(n, chk.group, (chk.op, ENCODING_OPS), (chk.alice, BELL_KINDS),
                                    (chk.bob, BELL_KINDS), (chk.passed, (False, True)))
    encoded_code, encodings = _rows(n, enc.group, (enc.alice, BELL_KINDS), (enc.bob, BELL_KINDS))
    # Rows of one encoding history decode alike: decode one row of each.
    row_of = np.empty(len(encodings), dtype=np.intp)
    row_of[encoded_code] = np.arange(n)
    bits = protocol.decode_message(enc.bob[:, row_of], enc.alice[:, row_of]) if len(enc) else [""]

    def leaves_of(weights, *fields):
        # One leaf per distinct (weight, *fields) row, shared by its rows.
        probs, prob_code = np.unique(weights, return_inverse=True)
        code, made = _fold(len(weights), (prob_code, probs.tolist()), *fields, make=_leaf)
        return map(made.__getitem__, code.tolist())

    clean = np.broadcast_to(chk.passed.all(axis=0), n)
    kept = np.flatnonzero(clean)
    encoded = encoded_code[kept]
    leaves = list(leaves_of(
        prob[kept], (None, (Verdict.CLEAN,)), (encoded, bits),
        (checked_code[kept], histories), (encoded, encodings),
    ))
    # A failed check ends the session, so its rows differ only in encoding
    # outcomes replayed after the check: each checking history is one leaf.
    # The histories come in lexicographic order, so each such history is
    # one run of rows, which starts where a checking choice's outcome changes.
    failing = np.flatnonzero(~clean)
    starts = np.zeros(len(failing), dtype=bool)
    starts[:1] = True
    for column in columns[:checked]:
        outcome = column.take(failing)
        starts[1:] |= outcome[1:] != outcome[:-1]
    merged = np.bincount(np.cumsum(starts) - 1, prob[failing], np.count_nonzero(starts))
    leaves.extend(leaves_of(
        merged, (None, (Verdict.EVE_DETECTED,)), (None, ("",)),
        (checked_code[failing[starts]], histories), (None, ((),)),
    ))
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


class SharedDraws:
    """Each Monte Carlo chunk's ``qcore.TrialStreams`` for one seed, kept
    while this object lives, so that every ``monte_carlo`` call given it
    reads the blocks of draws the first reader of a chunk computed.  A
    sweep holds one for its six strategies; the kept blocks cost 32 bytes
    per trial for each block of four draws that any strategy reads."""

    def __init__(self, seed: int):
        self.seed = qcore.check_seed(seed)
        self._chunks: dict[tuple[int, int], qcore.TrialStreams] = {}

    def chunk(self, start: int, stop: int) -> qcore.TrialStreams:
        """A reader from draw 0 of the streams ``[start, stop)``."""
        held = self._chunks.get((start, stop))
        if held is None:
            held = self._chunks[start, stop] = qcore.TrialStreams(self.seed, start, stop)
        return held.reread()


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
    *,
    draws: SharedDraws | None = None,
) -> MonteCarloResult:
    """Sampled single-group checking rounds through the live protocol and
    adversary stack, the round that ``group_leaves`` enumerates.

    Trial ``t`` consumes the leading draws of ``make_rng(seed, t)``.  The
    trials run in chunks of ``MC_CHUNK``: each chunk is one batched
    register pushed once through the round, and ``qcore.TrialStreams``
    hands every trial exactly its own stream's draws, so the counts do not
    depend on the chunk size.  Each chunk's streams are fresh by default.
    Given ``draws`` (of the same seed), a chunk rereads the blocks that an
    earlier call with the same ``draws`` computed; every strategy reads
    the same draws, so the counts are the same either way.
    """
    trials = _check_trials(trials, 1)
    qcore.check_seed(seed)
    if draws is not None and draws.seed != seed:
        raise ValueError(f"draws hold seed {draws.seed}, not {seed}")
    cfg = _one_group_config(policy, encode_target)
    failures = {pred: 0 for pred in DetectionPredicate}
    for start in range(0, trials, MC_CHUNK):
        stop = min(start + MC_CHUNK, trials)
        rng = qcore.TrialStreams(seed, start, stop) if draws is None else draws.chunk(start, stop)
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
    are computed once and shared by both predicates' rows, and every
    strategy reads the same computed draws (``SharedDraws``).  ``seed`` is
    recorded as given: None when ``trials`` is 0 and nothing is sampled."""
    trials = _check_trials(trials, 0)
    if trials > 0 and seed is None:
        raise ValueError("sampling requires a seed")
    draws = SharedDraws(seed) if trials > 0 else None
    rows = []
    for strategy in AttackStrategy:
        mc = monte_carlo(strategy, trials, seed, draws=draws) if trials > 0 else None
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
