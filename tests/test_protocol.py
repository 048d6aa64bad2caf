import json

import numpy as np
import pytest

import oracles
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.bellmap import ENCODING_OPS, EncodingOp
from qsdc_swap.protocol import (
    DetectionPredicate,
    EncodeTarget,
    EncodingAnnouncement,
    Group,
    GroupRole,
    Register,
    SessionConfig,
    SessionTranscript,
    Verdict,
    build_groups,
    check_passes,
    decode_message,
    partition_groups,
    prepare_registers,
    prepare_session,
    run_checking,
    run_encoding,
    check_policy,
    draw_op,
    run_session,
    single_op_policy,
)
from qsdc_swap.qcore import (
    BELL_KINDS,
    BellKind,
    QubitError,
    TrialStreams,
    make_bell,
    make_rng,
    overlap,
)

KIND = {k.value: k for k in BELL_KINDS}


def cfg(n_groups, n_checking, bits="", **kw):
    return SessionConfig(
        n_groups=n_groups, n_checking=n_checking, message_bits=bits, **kw
    )


def test_prepare_session_single_group_layout():
    state, groups = prepare_session(cfg(1, 1))
    assert groups == [Group(index=1, bob_qubits=(1, 3), alice_qubits=(2, 4))]
    expected = oracles.bell_product(
        [("psi+", 1, 2), ("psi+", 3, 4)], [1, 2, 3, 4]
    )
    np.testing.assert_allclose(state.amps, expected, atol=1e-12)


def test_prepare_session_travel_string_order():
    _, groups = prepare_session(cfg(2, 0, bits="0000"))
    travel = [q for g in groups for q in g.alice_qubits]
    assert travel == [2, 4, 6, 8]
    assert groups[1].bob_qubits == (5, 7)


def test_prepare_session_norm():
    for n in (1, 2, 3):
        state, _ = prepare_session(cfg(n, n))
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-9


def test_partition_extremes():
    groups = build_groups(3)
    rng = make_rng(0)
    all_checking = partition_groups(groups, 3, rng)
    assert all(g.role is GroupRole.CHECKING for g in all_checking)
    none_checking = partition_groups(groups, 0, rng)
    assert all(g.role is GroupRole.ENCODING for g in none_checking)
    with pytest.raises(ValueError):
        partition_groups(groups, 4, rng)


def test_partition_uniform_frequencies():
    groups = build_groups(4)
    counts = {g.index: 0 for g in groups}
    draws = 10_000
    rng = make_rng(123)
    for _ in range(draws):
        for g in partition_groups(groups, 2, rng):
            if g.role is GroupRole.CHECKING:
                counts[g.index] += 1
    for index in counts:
        assert abs(counts[index] / draws - 0.5) < 0.02


def test_partition_preserves_order_and_originals():
    groups = build_groups(3)
    assigned = partition_groups(groups, 1, make_rng(5))
    assert [g.index for g in assigned] == [1, 2, 3]
    assert all(g.role is None for g in groups)


def test_run_checking_honest_always_passes():
    for seed in range(12):
        register, groups = prepare_registers(cfg(3, 3))
        groups = partition_groups(groups, 3, make_rng(seed))
        result = run_checking(register, groups, make_rng(seed, 1))
        assert result.verdict is Verdict.CLEAN
        assert all(result.passed.values())
        assert len(result.announcements) == 3


def test_run_checking_identity_policy_outcomes_match():
    for seed in range(8):
        register, groups = prepare_registers(cfg(2, 2))
        groups = partition_groups(groups, 2, make_rng(seed))
        result = run_checking(
            register, groups, make_rng(seed, 1), policy=single_op_policy(EncodingOp.U0)
        )
        for ann in result.announcements:
            assert result.bob_outcomes[ann.group_index] is ann.alice_outcome


def test_run_checking_accepts_plain_state():
    state, groups = prepare_session(cfg(1, 1))
    groups = partition_groups(groups, 1, make_rng(2))
    result = run_checking(state, groups, make_rng(2, 1))
    assert result.verdict is Verdict.CLEAN


def test_run_encoding_zero_word_keeps_kinds_equal():
    for seed in range(8):
        register, groups = prepare_registers(cfg(2, 0, bits="0000"))
        groups = partition_groups(groups, 0, make_rng(seed))
        enc = run_encoding(register, groups, "0000", make_rng(seed, 1))
        for ann in enc.announcements:
            assert enc.bob_outcomes[ann.group_index] is ann.alice_outcome


def test_run_encoding_length_mismatch():
    register, groups = prepare_registers(cfg(2, 0, bits="0000"))
    groups = partition_groups(groups, 0, make_rng(0))
    with pytest.raises(ValueError):
        run_encoding(register, groups, "00", make_rng(0, 1))


def test_decode_message_examples():
    anns = [EncodingAnnouncement(1, KIND["phi+"])]
    assert decode_message(anns, {1: KIND["phi+"]}) == "00"
    anns = [
        EncodingAnnouncement(1, KIND["phi-"]),
        EncodingAnnouncement(2, KIND["psi+"]),
    ]
    bob = {1: KIND["phi+"], 2: KIND["phi+"]}
    assert decode_message(anns, bob) == "0110"
    with pytest.raises(ValueError):
        decode_message(anns, {1: KIND["phi+"]})


def test_honest_round_trip_all_two_group_messages():
    for word1 in ("00", "01", "10", "11"):
        for word2 in ("00", "01", "10", "11"):
            bits = word1 + word2
            transcript = run_session(cfg(2, 0, bits=bits, seed=17))
            assert transcript.verdict is Verdict.CLEAN
            assert transcript.decoded_bits == bits


def test_session_mixed_roles_round_trip():
    transcript = run_session(cfg(4, 2, bits="0110", seed=7))
    assert transcript.verdict is Verdict.CLEAN
    assert transcript.decoded_bits == "0110"
    assert len(transcript.checking) == 2
    assert len(transcript.encoding) == 2


def test_session_without_checking_delivers():
    transcript = run_session(cfg(2, 0, bits="1001", seed=3))
    assert transcript.checking == []
    assert transcript.decoded_bits == "1001"


def test_session_all_checking_no_message():
    transcript = run_session(cfg(2, 2, seed=3))
    assert transcript.encoding == []
    assert transcript.decoded_bits == ""
    assert transcript.verdict is Verdict.CLEAN


def test_abort_blocks_encoding():
    # the replacement attack trips at least one of 4 checking groups with
    # probability 1 - (1/4)^4; seeds that survive would simply be skipped
    detected = 0
    for seed in range(10):
        transcript = run_session(
            cfg(6, 4, bits="0110", seed=seed),
            strategy=AttackStrategy.REPLACE_MEASURE_AFTER,
        )
        if transcript.verdict is Verdict.EVE_DETECTED:
            detected += 1
            assert transcript.encoding == []
            assert transcript.decoded_bits == ""
    assert detected >= 8


def test_transcript_json_round_trip():
    transcript = run_session(cfg(3, 1, bits="0111", seed=21))
    doc = transcript.to_json_dict()
    back = SessionTranscript.from_json_dict(json.loads(json.dumps(doc)))
    assert back.to_json_dict() == doc
    assert back.redecode() == transcript.decoded_bits


def test_transcript_bytes_deterministic():
    a = run_session(cfg(3, 1, bits="0111", seed=21)).to_json()
    b = run_session(cfg(3, 1, bits="0111", seed=21)).to_json()
    assert a == b


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(n_groups=0, n_checking=0)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=2, n_checking=3)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=2, n_checking=1, message_bits="011")
    with pytest.raises(ValueError):
        SessionConfig(n_groups=2, n_checking=1, message_bits="ab")


def test_check_passes_predicates():
    # honestly encoded pair under u2: receiver psi+, sender phi+
    assert check_passes(
        DetectionPredicate.ANNOUNCED_OP, EncodingOp.U2, KIND["psi+"], KIND["phi+"]
    )
    assert not check_passes(
        DetectionPredicate.STRICT_U0, EncodingOp.U2, KIND["psi+"], KIND["phi+"]
    )
    assert check_passes(
        DetectionPredicate.STRICT_U0, EncodingOp.U2, KIND["psi+"], KIND["psi+"]
    )


def test_encode_target_first_photon_round_trip():
    transcript = run_session(
        cfg(2, 0, bits="1101", seed=9, encode_target=EncodeTarget.FIRST_TRAVEL_PHOTON)
    )
    assert transcript.decoded_bits == "1101"


def test_register_merge_and_allocate():
    register = Register([make_bell(BellKind.PSI_PLUS, 1, 2)])
    register.add(make_bell(BellKind.PSI_PLUS, 3, 4))
    assert register.allocate(2) == (5, 6)
    assert register.allocate(1) == (7,)
    merged = register.factor_state(2, 3)
    assert set(merged.qubits) == {1, 2, 3, 4}
    with pytest.raises(QubitError):
        register.add(make_bell(BellKind.PSI_PLUS, 4, 9))


def test_register_compose_all_matches_prepare_session():
    config = cfg(2, 2)
    state, _ = prepare_session(config)
    register, _ = prepare_registers(config)
    assert abs(overlap(state, register.compose_all()) - 1.0) < 1e-9


def test_register_enumerate_bell_leaves_parent_usable():
    register = Register(
        [make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4)]
    )
    branches = register.enumerate_bell(1, 3)
    assert len(branches) == 4
    assert abs(sum(p for p, _, _ in branches) - 1.0) < 1e-9
    # the parent still holds all four qubits and can be measured itself
    assert register.qubits == frozenset({1, 2, 3, 4})
    register.measure_bell(1, 3, make_rng(0))
    for _, clone, kind in branches:
        assert clone.qubits == frozenset({2, 4})


def test_register_touched_audit():
    register, groups = prepare_registers(cfg(1, 1))
    register.touched.clear()
    register.apply_single(2, EncodingOp.U1.matrix)
    register.measure_bell(2, 4, make_rng(1))
    assert register.touched == {2, 4}


@pytest.mark.parametrize(
    "policy",
    [{"u0": 1.0}, {EncodingOp.U0: 0.5, "u1": 0.5}, {0: 1.0}],
)
def test_policy_keys_must_be_encoding_ops(policy):
    with pytest.raises(ValueError, match="EncodingOp"):
        check_policy(policy)
    with pytest.raises(ValueError, match="EncodingOp"):
        cfg(1, 1, checking_op_policy=policy)


def test_policy_must_be_a_distribution():
    check_policy(single_op_policy(EncodingOp.U3))
    for policy in ({EncodingOp.U0: 0.5}, {EncodingOp.U0: 1.5, EncodingOp.U1: -0.5}):
        with pytest.raises(ValueError, match="probability distribution"):
            cfg(1, 1, checking_op_policy=policy)


@pytest.mark.parametrize(
    "policy",
    [
        {op: 0.25 for op in ENCODING_OPS},
        {EncodingOp.U1: 0.3, EncodingOp.U3: 0.7},
        single_op_policy(EncodingOp.U2),
    ],
)
def test_draw_op_batch_matches_per_trial_draws(policy):
    drawn = draw_op(policy, TrialStreams(9, 0, 300))
    expected = [draw_op(policy, make_rng(9, t)) for t in range(300)]
    assert [ENCODING_OPS[i] for i in drawn] == expected


def test_register_apply_single_where_mask():
    plus = make_bell(BellKind.PSI_PLUS, 1, 2)
    minus = make_bell(BellKind.PSI_MINUS, 1, 2)
    register = Register([plus])
    register.apply_single(2, EncodingOp.U1.matrix, where=False)
    assert register.factor_state(1, 2) is plus
    register.apply_single(2, EncodingOp.U1.matrix, where=np.array([True, False]))
    amps = register.factor_state(1, 2).amps
    assert abs(abs(np.vdot(minus.amps, amps[0])) - 1.0) < 1e-12
    np.testing.assert_allclose(amps[1], plus.amps, atol=1e-15)
