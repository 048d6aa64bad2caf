"""Swapping-correlation algebra: how the two-bit coding operations permute
Bell pairs and which joint measurement outcomes they leave behind.

All tables are derived from the state engine on first use and cached, so a
transcription slip cannot silently poison the decoder.  The verbatim
printed correlation table used for cross-checking lives in the test suite
only.  Coefficient signs are recorded, but correlation and decoding use
support alone: measurement statistics depend on squared magnitudes.
"""

from __future__ import annotations

import io
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
        return f"EncodingOp({self.value!r})"


ENCODING_OPS = (EncodingOp.U0, EncodingOp.U1, EncodingOp.U2, EncodingOp.U3)

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

_BITS_OP = {op.bits: op for op in ENCODING_OPS}

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


def op_for_bits(bits: str) -> EncodingOp:
    """Coding op for a two-bit word."""
    try:
        return _BITS_OP[bits]
    except KeyError:
        raise ValueError(f"no coding op for word {bits!r}") from None


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

    initial: tuple[BellKind, BellKind]
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
    return SwapTable((k12, k34), MappingProxyType(coeffs))


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


def invert_encoding(before: BellKind, after: BellKind) -> EncodingOp:
    """The unique op carrying ``before`` onto ``after``."""
    for op in ENCODING_OPS:
        if apply_encoding(op, before) is after:
            return op
    raise AssertionError(f"no coding op maps {before} to {after}")


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


def is_correlated(
    op: EncodingOp | np.ndarray, bob: BellKind | np.ndarray, alice: BellKind | np.ndarray
) -> bool | np.ndarray:
    """Membership test in the correlation column for ``op``.

    Batched outcomes, int arrays indexing ENCODING_OPS and BELL_KINDS,
    give one bool per trial.
    """
    if isinstance(bob, BellKind):
        return (bob, alice) in correlation_table()[op]
    if isinstance(op, EncodingOp):
        op = ENCODING_OPS.index(op)
    return _correlation_mask()[op, bob, alice]


@lru_cache(maxsize=None)
def _correlation_mask() -> np.ndarray:
    """correlation_table() as a bool array indexed [op, bob, alice]."""
    mask = np.zeros((4, 4, 4), dtype=bool)
    for i, op in enumerate(ENCODING_OPS):
        for bob, alice in correlation_table()[op]:
            mask[i, BELL_KINDS.index(bob), BELL_KINDS.index(alice)] = True
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _decode_map() -> Mapping[tuple[BellKind, BellKind], EncodingOp]:
    mapping = {
        pair: op for op, column in correlation_table().items() for pair in column
    }
    return MappingProxyType(mapping)


def decode_op(bob: BellKind, alice: BellKind) -> EncodingOp:
    """The unique op whose column contains the joint outcome."""
    return _decode_map()[(bob, alice)]


def correlation_rows() -> list[tuple[str, str, str, str]]:
    """Flat (op, bits, bob, alice) listing of the correlation table."""
    rows = []
    for op in ENCODING_OPS:
        for bob, alice in sorted(
            correlation_table()[op], key=lambda p: (p[0].value, p[1].value)
        ):
            rows.append((op.value, op.bits, bob.value, alice.value))
    return rows


def correlation_csv() -> str:
    """CSV export of the correlation table for documentation."""
    out = io.StringIO()
    out.write("op,bits,bob_outcome,alice_outcome\n")
    for row in correlation_rows():
        out.write(",".join(row) + "\n")
    return out.getvalue()
