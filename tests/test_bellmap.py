import numpy as np
import pytest

import oracles
from qsdc_swap.bellmap import (
    ENCODING_OPS,
    EncodingOp,
    apply_encoding,
    correlation_columns,
    correlation_table,
    decode_op,
    encoding_codes,
    invert_encoding,
    is_correlated,
    kind_label,
    swap_decompose,
    swap_support_rule,
    swap_supports,
)
from qsdc_swap.protocol import decode_message
from qsdc_swap.qcore import BELL_KINDS, BellKind, classify_bell

KIND = {k.value: k for k in BELL_KINDS}
OP = {op.value: op for op in ENCODING_OPS}
# The int code of each kind and op, by value: their indices in BELL_KINDS
# and ENCODING_OPS.
CODE = {m.value: i for members in (BELL_KINDS, ENCODING_OPS) for i, m in enumerate(members)}


def as_value_map(table):
    return {(b.value, a.value): c for (b, a), c in table.coeffs.items()}


def test_plus_product_decomposition_matches_print():
    table = swap_decompose(BellKind.PSI_PLUS, BellKind.PSI_PLUS)
    assert as_value_map(table) == pytest.approx(oracles.SWAP_BASE_TERMS, abs=1e-9)


@pytest.mark.parametrize("second", ["psi-", "phi+", "phi-"])
def test_encoded_product_decompositions_match_print(second):
    table = swap_decompose(BellKind.PSI_PLUS, KIND[second])
    assert as_value_map(table) == pytest.approx(
        oracles.SWAP_ENCODED_TERMS[("psi+", second)], abs=1e-9
    )


def test_swap_decompose_symmetric_support():
    a = swap_decompose(BellKind.PSI_MINUS, BellKind.PSI_PLUS)
    b = swap_decompose(BellKind.PSI_PLUS, BellKind.PSI_MINUS)
    assert a.support() == b.support()


def test_swap_tables_structure_all_inputs():
    for k12 in BELL_KINDS:
        for k34 in BELL_KINDS:
            table = swap_decompose(k12, k34)
            coeffs = list(table.coeffs.values())
            assert len(coeffs) == 4
            assert abs(sum(c * c for c in coeffs) - 1.0) < 1e-9
            assert all(abs(abs(c) - 0.5) < 1e-9 for c in coeffs)
            expected = {
                (KIND[b], KIND[a])
                for b in oracles.KINDS
                for a in oracles.KINDS
                if oracles.xor(oracles.LABEL[b], oracles.LABEL[a])
                == oracles.xor(
                    oracles.LABEL[k12.value], oracles.LABEL[k34.value]
                )
            }
            assert table.support() == expected
            assert table.support() == swap_support_rule(k12, k34)


@pytest.mark.parametrize(
    "op_name,kind,expected",
    [
        ("u3", "psi+", "phi-"),
        ("u0", "psi+", "psi+"),
        ("u0", "phi-", "phi-"),
        ("u2", "phi+", "psi+"),
    ],
)
def test_apply_encoding_examples(op_name, kind, expected):
    assert apply_encoding(OP[op_name], KIND[kind]) is KIND[expected]


def test_apply_encoding_matches_matrix_oracle():
    for op_name in oracles.OPS:
        for kind in oracles.KINDS:
            vec = oracles.apply_u(oracles.BELL_VEC[kind], 2, 1, oracles.U_MAT[op_name])
            matches = [
                k for k in oracles.KINDS
                if abs(np.vdot(oracles.BELL_VEC[k], vec)) > 1 - 1e-9
            ]
            assert matches == [apply_encoding(OP[op_name], KIND[kind]).value]


def test_apply_encoding_bijection_per_op():
    for op in ENCODING_OPS:
        images = {apply_encoding(op, kind) for kind in BELL_KINDS}
        assert len(images) == 4


def test_codeword_assignment():
    assert [op.bits for op in ENCODING_OPS] == ["00", "01", "10", "11"]


def test_correlation_table_matches_print():
    table = correlation_table()
    got = {
        op.value: {(b.value, a.value) for b, a in table[op]} for op in ENCODING_OPS
    }
    assert got == oracles.PRINTED_CORRELATION


def test_correlation_columns_partition_all_pairs():
    table = correlation_table()
    seen = set()
    for op in ENCODING_OPS:
        assert len(table[op]) == 4
        assert not (seen & table[op])
        seen |= table[op]
    assert len(seen) == 16


@pytest.mark.parametrize(
    "op_name,bob,alice,expected",
    [
        ("u3", "psi-", "phi+", True),
        ("u0", "phi+", "phi-", False),
        ("u1", "phi+", "phi-", True),
    ],
)
def test_is_correlated_examples(op_name, bob, alice, expected):
    assert is_correlated(CODE[op_name], CODE[bob], CODE[alice]).item() is expected


def test_is_correlated_four_pairs_per_op():
    for i in range(len(ENCODING_OPS)):
        hits = sum(is_correlated(i, b, a) for b in range(4) for a in range(4))
        assert hits == 4


@pytest.mark.parametrize(
    "bob,alice,bits",
    [("phi+", "phi+", "00"), ("phi+", "phi-", "01"), ("phi+", "psi+", "10")],
)
def test_decode_op_examples(bob, alice, bits):
    assert decode_op(KIND[bob], KIND[alice]).bits == bits


def test_decode_round_trips_all_pairs():
    for op in ENCODING_OPS:
        for bob in BELL_KINDS:
            alice = apply_encoding(op, bob)
            assert decode_op(bob, alice) is op
            inverted = invert_encoding(BELL_KINDS.index(bob), BELL_KINDS.index(alice))
            assert ENCODING_OPS[inverted] is op
    # Bob's check, both decoders and the message decoder read one table:
    # they agree on every (op, bob, alice).
    codes = np.arange(4)
    bob_codes, alice_codes = np.repeat(codes, 4), np.tile(codes, 4)
    for i, op in enumerate(ENCODING_OPS):
        batch = is_correlated(i, bob_codes, alice_codes)
        by_index = is_correlated(np.full(16, i), bob_codes, alice_codes)
        assert batch.tolist() == by_index.tolist()
        for row, (b, a) in enumerate(zip(bob_codes, alice_codes)):
            bob, alice = BELL_KINDS[b], BELL_KINDS[a]
            scalar = is_correlated(i, b, a).item()
            assert scalar is bool(batch[row])
            assert scalar == (invert_encoding(b, a) == i)
            assert scalar is (decode_op(bob, alice) is op)
    assert decode_message(bob_codes, alice_codes) == "".join(
        decode_op(BELL_KINDS[b], BELL_KINDS[a]).bits for b, a in zip(bob_codes, alice_codes)
    )


@pytest.mark.parametrize(
    "op,bob,alice,named",
    [
        (1, 0, BellKind.PHI_PLUS, "alice"),
        (1, BellKind.PHI_MINUS, 0, "bob"),
        ("u0", BellKind.PHI_PLUS, BellKind.PHI_PLUS, "op"),
        (3, BellKind.PHI_PLUS, BellKind.PSI_MINUS, "bob"),
        (np.array([1]), BellKind.PHI_PLUS, BellKind.PHI_MINUS, "bob"),
        ("u0", np.array([0]), np.array([0]), "op"),
        (0, np.array(["phi+"]), np.array([0]), "bob"),
        (0, np.array([0]), np.array([0.0]), "alice"),
        (7, np.array([0, 3]), np.array([0, 3]), "op"),
        (-4, np.array([0]), np.array([0]), "op"),
        (np.array([0, 4]), np.array([0, 0]), np.array([0, 0]), "op"),
        (0, np.array([-1]), np.array([3]), "bob"),
        (0, np.array([2**63], dtype=np.uint64), np.array([0]), "bob"),
        (0, np.array([0]), np.array([4], dtype=np.int8), "alice"),
        # Members are decode_op's form: is_correlated takes codes only.
        (EncodingOp.U0, np.array([0]), np.array([0]), "op"),
        (EncodingOp.U1, BellKind.PHI_PLUS, BellKind.PHI_MINUS, "op"),
        (0, BellKind.PHI_PLUS, BellKind.PHI_PLUS, "bob"),
        (0, np.array([0]), BellKind.PHI_PLUS, "alice"),
        (np.array([True]), np.array([0]), np.array([0]), "op"),
    ],
)
def test_is_correlated_rejects_all_but_index_codes(op, bob, alice, named):
    with pytest.raises(ValueError, match=f"needs {named} to be"):
        is_correlated(op, bob, alice)


@pytest.mark.parametrize(
    "bob,alice,named",
    [
        (np.array([-1, 2]), np.array([0, 2]), "bob"),
        (np.array([0, 2]), np.array([0, 4]), "alice"),
        (np.array([0.0]), np.array([0]), "bob"),
        (np.array([0]), np.array([BellKind.PHI_PLUS]), "alice"),
    ],
)
def test_decoders_reject_codes_outside_the_table(bob, alice, named):
    # A negative code once wrapped: decode_message([-1, 2], [0, 2]) gave "1100".
    for decode in (invert_encoding, decode_message):
        with pytest.raises(ValueError, match=f"needs {named} to be"):
            decode(bob, alice)


def test_kind_labels_are_distinct():
    assert len({kind_label(k) for k in BELL_KINDS}) == 4


def test_int_coded_tables_equal_the_enum_tables():
    """The swap-algebra route's int-coded tables hold, entry by entry, what
    ``swap_decompose``, ``apply_encoding`` and ``correlation_table`` hold,
    and none of them can be written."""
    supports, codes, columns = swap_supports(), encoding_codes(), correlation_columns()
    assert (supports.shape, supports.dtype) == ((4, 4, 4, 4), np.bool_)
    assert (codes.shape, codes.dtype) == ((4, 4), np.intp)
    assert (columns.shape, columns.dtype) == ((4, 4, 4), np.bool_)
    for i, k12 in enumerate(BELL_KINDS):
        for j, k34 in enumerate(BELL_KINDS):
            support = swap_decompose(k12, k34).support()
            for b, bob in enumerate(BELL_KINDS):
                for a, alice in enumerate(BELL_KINDS):
                    assert supports[i, j, b, a] == ((bob, alice) in support)
    for o, op in enumerate(ENCODING_OPS):
        for k, kind in enumerate(BELL_KINDS):
            assert BELL_KINDS[codes[o, k]] is apply_encoding(op, kind)
        for b, bob in enumerate(BELL_KINDS):
            for a, alice in enumerate(BELL_KINDS):
                assert columns[o, b, a] == ((bob, alice) in correlation_table()[op])
    for table in (supports, codes, columns):
        assert not table.flags.writeable
