"""Swapping-correlation algebra: how the two-bit coding operations permute
Bell pairs and which joint measurement outcomes they leave behind.

All tables are derived from the state engine on first use and cached, so a
transcription slip cannot silently poison the decoder.  The verbatim
printed correlation table used for cross-checking lives in the test suite
only.  Coefficient signs are recorded, but correlation and decoding use
support alone: measurement statistics depend on squared magnitudes.

One decoding table, derived from ``correlation_table()``, holds the
correlation decision: the op each joint (receiver, sender) outcome decodes
to.  It has one reader per outcome form: ``decode_op`` for ``BellKind``
members and ``invert_encoding`` for int codes, which it range-checks.
Bob's check (``is_correlated``), his message decoding and Eve's guess take
codes, so they all go through ``invert_encoding``.

The swap-algebra route of ``analysis`` reads int-coded copies of the
tables, each a read-only array built once, with kinds and ops as their
indices in BELL_KINDS and ENCODING_OPS: ``swap_supports()`` (the support
of every ``swap_decompose``), ``encoding_codes()`` (``apply_encoding``)
and ``correlation_columns()`` (the columns of ``correlation_table()``,
read from the table itself and not from the decoding table, so that the
route shares no decision with Bob's check).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import qcore
from .qcore import BELL_KINDS, BellKind

_COEFF_TOL = 1e-12


@unique
class EncodingOp(Enum):
    """Coding operations with their two-bit codewords."""

    U0 = "u0"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"

    @property
    def bits(self) -> str:
        return _OP_BITS[self]

    @property
    def matrix(self) -> np.ndarray:
        return _OP_MATRIX[self]

    def __repr__(self) -> str:
        return _OP_REPR[self._name_]


ENCODING_OPS = (EncodingOp.U0, EncodingOp.U1, EncodingOp.U2, EncodingOp.U3)

# Each op's repr by member name, as qcore keeps the Bell kinds' reprs.
_OP_REPR = {op.name: f"EncodingOp({op.value!r})" for op in ENCODING_OPS}

_OP_BITS = {
    EncodingOp.U0: "00",
    EncodingOp.U1: "01",
    EncodingOp.U2: "10",
    EncodingOp.U3: "11",
}

_OP_MATRIX = {
    EncodingOp.U0: qcore.U0,
    EncodingOp.U1: qcore.U1,
    EncodingOp.U2: qcore.U2,
    EncodingOp.U3: qcore.U3,
}

# The coding matrices stacked in ENCODING_OPS order, so that an int array
# of drawn op indices selects one matrix per trial.
OP_MATRICES = np.stack([_OP_MATRIX[op] for op in ENCODING_OPS])
OP_MATRICES.flags.writeable = False

# Two-bit labels (letter flip, sign flip); the swap support rule and the
# encoding orbit are both XORs in this labeling.
_KIND_LABEL = {
    BellKind.PHI_PLUS: (0, 0),
    BellKind.PHI_MINUS: (0, 1),
    BellKind.PSI_PLUS: (1, 0),
    BellKind.PSI_MINUS: (1, 1),
}
_LABEL_KIND = {label: kind for kind, label in _KIND_LABEL.items()}


def kind_label(kind: BellKind) -> tuple[int, int]:
    return _KIND_LABEL[kind]


def label_kind(label: tuple[int, int]) -> BellKind:
    return _LABEL_KIND[label]


@dataclass(frozen=True)
class SwapTable:
    """Signed decomposition of one Bell-pair product over the crossed pairs.

    For an initial product on pairs (1,2) and (3,4), ``coeffs`` maps each
    joint outcome (kind on (1,3), kind on (2,4)) to its real coefficient.
    """

    coeffs: Mapping[tuple[BellKind, BellKind], float]

    def support(self) -> frozenset[tuple[BellKind, BellKind]]:
        return frozenset(self.coeffs)

    def coefficient(self, bob: BellKind, alice: BellKind) -> float:
        return self.coeffs.get((bob, alice), 0.0)

    def probability(self, bob: BellKind, alice: BellKind) -> float:
        return self.coefficient(bob, alice) ** 2


@lru_cache(maxsize=None)
def swap_decompose(k12: BellKind, k34: BellKind) -> SwapTable:
    """Decompose |k12>|k34> over the (1,3) x (2,4) Bell-product basis."""
    state = qcore.compose(qcore.make_bell(k12, 1, 2), qcore.make_bell(k34, 3, 4))
    coeffs: dict[tuple[BellKind, BellKind], float] = {}
    for bob in BELL_KINDS:
        for alice in BELL_KINDS:
            basis = qcore.compose(qcore.make_bell(bob, 1, 3), qcore.make_bell(alice, 2, 4))
            c = qcore.overlap(basis, state)
            if abs(c) < _COEFF_TOL:
                continue
            if abs(c.imag) > _COEFF_TOL:
                raise AssertionError(f"swap coefficient {c} is not real")
            coeffs[(bob, alice)] = float(c.real)
    return SwapTable(MappingProxyType(coeffs))


def swap_support_rule(k12: BellKind, k34: BellKind) -> frozenset[tuple[BellKind, BellKind]]:
    """Closed-form support: outcome labels must XOR to the initial XOR."""
    x12, x34 = kind_label(k12), kind_label(k34)
    target = (x12[0] ^ x34[0], x12[1] ^ x34[1])
    pairs = []
    for bob in BELL_KINDS:
        lb = kind_label(bob)
        pairs.append((bob, label_kind((lb[0] ^ target[0], lb[1] ^ target[1]))))
    return frozenset(pairs)


@lru_cache(maxsize=None)
def apply_encoding(op: EncodingOp, kind: BellKind) -> BellKind:
    """Bell kind after applying ``op`` to one photon of a ``kind`` pair."""
    encoded = qcore.apply_single(qcore.make_bell(kind, 3, 4), 4, op.matrix)
    result = qcore.classify_bell(encoded)
    if result is None:
        raise AssertionError(f"{op} did not map {kind} onto a Bell state")
    return result


@lru_cache(maxsize=None)
def correlation_table() -> Mapping[EncodingOp, frozenset[tuple[BellKind, BellKind]]]:
    """Per-op sets of correlated (receiver, sender) outcome pairs.

    Column ``op`` is the support of the swapped product once ``op`` has
    been applied to one travel photon of a plus-type initial pair.  The
    four columns partition all 16 outcome pairs, so decoding is total.
    """
    table = {
        op: swap_decompose(BellKind.PSI_PLUS, apply_encoding(op, BellKind.PSI_PLUS)).support()
        for op in ENCODING_OPS
    }
    covered: set[tuple[BellKind, BellKind]] = set()
    for column in table.values():
        if covered & column:
            raise AssertionError("correlation columns overlap")
        covered |= column
    if len(covered) != 16:
        raise AssertionError("correlation columns do not cover all outcome pairs")
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _decode_map() -> np.ndarray:
    """The correlation decision as an int array indexed [bob, alice]
    (indices into BELL_KINDS): the index in ENCODING_OPS of the op whose
    column of ``correlation_table()`` holds the joint outcome."""
    table = np.empty((4, 4), dtype=np.intp)
    for i, op in enumerate(ENCODING_OPS):
        for bob, alice in correlation_table()[op]:
            table[BELL_KINDS.index(bob), BELL_KINDS.index(alice)] = i
    table.flags.writeable = False
    return table


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def swap_supports() -> np.ndarray:
    """``swap_decompose(k12, k34).support()`` for every pair of kinds, as a
    bool array indexed [k12, k34, bob, alice] (indices into BELL_KINDS)."""
    table = np.zeros((4, 4, 4, 4), dtype=bool)
    for i, k12 in enumerate(BELL_KINDS):
        for j, k34 in enumerate(BELL_KINDS):
            for bob, alice in swap_decompose(k12, k34).coeffs:
                table[i, j, BELL_KINDS.index(bob), BELL_KINDS.index(alice)] = True
    return _frozen(table)


@lru_cache(maxsize=None)
def encoding_codes() -> np.ndarray:
    """``apply_encoding`` as an int array indexed [op, kind]: the index in
    BELL_KINDS of the kind ``op`` (an index into ENCODING_OPS) makes of
    ``kind``."""
    return _frozen(np.array(
        [[BELL_KINDS.index(apply_encoding(op, kind)) for kind in BELL_KINDS] for op in ENCODING_OPS],
        dtype=np.intp,
    ))


@lru_cache(maxsize=None)
def correlation_columns() -> np.ndarray:
    """``correlation_table()`` as a bool array indexed [op, bob, alice]:
    whether column ``op`` holds the joint outcome."""
    table = np.zeros((4, 4, 4), dtype=bool)
    for i, op in enumerate(ENCODING_OPS):
        for bob, alice in correlation_table()[op]:
            table[i, BELL_KINDS.index(bob), BELL_KINDS.index(alice)] = True
    return _frozen(table)


def decode_op(bob: BellKind, alice: BellKind) -> EncodingOp:
    """The unique op whose column contains the joint outcome."""
    return ENCODING_OPS[_decode_map()[BELL_KINDS.index(bob), BELL_KINDS.index(alice)]]


def invert_encoding(bob: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """``decode_op`` on int arrays indexing BELL_KINDS: an int array
    indexing ENCODING_OPS, one op per trial.  A code outside 0..3 or a
    non-integer array raises a ValueError naming the argument.

    Column ``op`` holds ``(kind, apply_encoding(op, kind))`` for every
    kind, so the decoded op is also the one that carries ``bob``'s kind
    onto ``alice``'s.
    """
    return _decode_map()[qcore._codes(bob, 4, "bob codes"), qcore._codes(alice, 4, "alice codes")]


def is_correlated(op: np.ndarray, bob: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """Whether the joint outcome lies in the correlation column of ``op``,
    that is, whether it decodes to ``op``: one bool per trial.

    ``op`` indexes ENCODING_OPS and ``bob`` and ``alice`` index BELL_KINDS,
    as ints or int arrays; members go through ``decode_op(bob, alice) is
    op``.  Anything else, or a code outside 0..3, raises a ValueError
    naming the argument.
    """
    op = qcore._codes(op, 4, "op codes")
    return invert_encoding(bob, alice) == op
