import hashlib
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qsdc_swap import protocol, qcore
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import enumerate_session_leaves, monte_carlo
from qsdc_swap.bellmap import ENCODING_OPS, OP_MATRICES, EncodingOp
from qsdc_swap.protocol import (
    DetectionPredicate,
    EncodeTarget,
    Group,
    GroupRole,
    ROLES,
    Register,
    SessionConfig,
    UNIFORM_POLICY,
    SessionTranscript,
    Verdict,
    attack_footprint,
    build_groups,
    check_passes,
    decode_message,
    partition_groups,
    policy_weights,
    prepare_registers,
    run_checking,
    run_encoding,
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
)

KIND = {k.value: k for k in BELL_KINDS}


def cfg(n_groups, n_checking, bits="", **kw):
    return SessionConfig(
        n_groups=n_groups, n_checking=n_checking, message_bits=bits, **kw
    )


def test_prepare_registers_single_group_layout():
    register, groups = prepare_registers(cfg(1, 1))
    assert groups == [Group(index=1, bob_qubits=(1, 3), alice_qubits=(2, 4))]
    for pair in ((1, 2), (3, 4)):
        expected = oracles.bell_product([("psi+", *pair)], list(pair))
        np.testing.assert_allclose(register.factor_state(*pair).amps, expected, atol=1e-12)


def test_build_groups_travel_string_order():
    groups = build_groups(2)
    travel = [q for g in groups for q in g.alice_qubits]
    assert travel == [2, 4, 6, 8]
    assert groups[1].bob_qubits == (5, 7)


def test_partition_extremes():
    rng = make_rng(0)
    assert partition_groups(3, 3, rng).tolist() == [True, True, True]
    assert partition_groups(3, 0, rng).tolist() == [False, False, False]
    with pytest.raises(ValueError):
        partition_groups(3, 4, rng)


def test_partition_uniform_frequencies():
    counts = np.zeros(4)
    draws = 10_000
    rng = make_rng(123)
    for _ in range(draws):
        counts += partition_groups(4, 2, rng)
    assert (abs(counts / draws - 0.5) < 0.02).all()


def test_partition_preserves_order_and_originals():
    # Entry i is group i + 1's role, picked by one permutation draw, and
    # the generator is left as that one draw leaves it.
    rng, reference = make_rng(5), make_rng(5)
    mask = partition_groups(3, 1, rng)
    chosen = reference.permutation(3)[:1].tolist()
    assert mask.tolist() == [i in chosen for i in range(3)]
    assert rng.random() == reference.random()


@pytest.mark.parametrize("n_groups", [1, 4, 33])
@pytest.mark.parametrize("strategy", list(AttackStrategy))
def test_session_roles_are_the_partition(strategy, n_groups):
    # README, Determinism: the partition is drawn right after the attack's
    # (n_groups, draws) block.
    n_checking = max(1, n_groups // 3)
    bits = "01" * (n_groups - n_checking)
    config = cfg(n_groups, n_checking, bits=bits, seed=1000 + n_groups)
    rng = make_rng(config.seed)
    rng.random((n_groups, attack_footprint(strategy)[0]))
    mask = partition_groups(n_groups, n_checking, rng)
    roles = [ROLES[r] for r in run_session(config, strategy).groups.role.tolist()]
    assert roles == [GroupRole.CHECKING if m else GroupRole.ENCODING for m in mask.tolist()]


def test_run_checking_honest_always_passes():
    for seed in range(12):
        register, groups = prepare_registers(cfg(3, 3))
        result = run_checking(register, groups, TrialStreams(seed, 1, 2))
        assert result.passed.all()
        assert result.group.tolist() == [1, 2, 3]


def test_run_checking_identity_policy_outcomes_match():
    for seed in range(8):
        register, groups = prepare_registers(cfg(2, 2))
        result = run_checking(
            register, groups, TrialStreams(seed, 1, 2), policy=single_op_policy(EncodingOp.U0)
        )
        np.testing.assert_array_equal(result.bob, result.alice)


def test_run_encoding_zero_word_keeps_kinds_equal():
    for seed in range(8):
        register, groups = prepare_registers(cfg(2, 0, bits="0000"))
        enc = run_encoding(register, groups, "0000", TrialStreams(seed, 1, 2))
        np.testing.assert_array_equal(enc.bob, enc.alice)


def test_run_encoding_length_mismatch():
    register, groups = prepare_registers(cfg(2, 0, bits="0000"))
    with pytest.raises(ValueError):
        run_encoding(register, groups, "00", TrialStreams(0, 1, 2))


def test_run_encoding_rejects_a_word_without_op():
    register, groups = prepare_registers(cfg(2, 0, bits="0000"))
    with pytest.raises(ValueError, match="no coding op for word '02'"):
        run_encoding(register, groups, "0102", TrialStreams(0, 1, 2))


def test_decode_message_examples():
    phi_plus, phi_minus, psi_plus = (BELL_KINDS.index(KIND[k]) for k in ("phi+", "phi-", "psi+"))
    assert decode_message(np.array([phi_plus]), np.array([phi_plus])) == "00"
    bob, alice = np.array([phi_plus, phi_plus]), np.array([phi_minus, psi_plus])
    assert decode_message(bob, alice) == "0110"
    with pytest.raises(ValueError):
        decode_message(bob[:1], alice)


def test_phases_run_every_group_given_as_batched_columns():
    register, groups = prepare_registers(cfg(3, 3))
    chk = run_checking(register, groups, TrialStreams(7, 0, 5))
    assert chk.op.shape == chk.alice.shape == chk.bob.shape == chk.passed.shape == (3, 5)
    assert chk.group.tolist() == [1, 2, 3]
    assert chk.passed.all()
    register, groups = prepare_registers(cfg(2, 0, bits="0110"))
    messages = ["0110", "1100", "0011", "1001", "0000"]
    enc = run_encoding(register, groups, messages, TrialStreams(7, 0, 5))
    assert enc.alice.shape == enc.bob.shape == (2, 5)
    decoded = decode_message(enc.bob, enc.alice)
    assert decoded == messages
    assert decoded == [decode_message(enc.bob[:, r], enc.alice[:, r]) for r in range(5)]


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
    assert len(transcript.checking) == 0
    assert transcript.decoded_bits == "1001"


def test_session_all_checking_no_message():
    transcript = run_session(cfg(2, 2, seed=3))
    assert len(transcript.encoding) == 0
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
            assert len(transcript.encoding) == 0
            assert transcript.decoded_bits == ""
    assert detected >= 8


def test_transcript_json_round_trip():
    transcript = run_session(cfg(3, 1, bits="0111", seed=21))
    doc = transcript.to_json_dict()
    back = SessionTranscript.from_json_dict(json.loads(json.dumps(doc)))
    assert back.to_json_dict() == doc
    assert back.redecode() == transcript.decoded_bits


def test_transcript_missing_field_is_named():
    with pytest.raises(ValueError, match="'checking' is missing"):
        SessionTranscript.from_json_dict({"groups": []})


def test_transcript_bad_bell_kind_is_named():
    doc = run_session(cfg(3, 1, bits="0111", seed=21)).to_json_dict()
    doc["checking"][0]["bob"] = "phi*"
    with pytest.raises(ValueError, match=r"'checking\[0\]\.bob' is invalid"):
        SessionTranscript.from_json_dict(doc)


@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("checking[0].group", "x"),
        ("encoding[1].group", 2.0),
        ("groups[0].index", 1.5),
        ("groups[1].index", True),
        ("checking[0].passed", "yes"),
        ("checking[0].passed", 1),
        ("groups[0].bob", "ab"),
        ("groups[2].alice", [10, 12, 13]),
        ("groups[2].alice", [10, False]),
        ("groups[1].role", None),
        ("verdict", "aborted"),
        ("decoded_bits", "01x1"),
        ("decoded_bits", 111),
    ],
)
def test_transcript_wrongly_typed_field_is_named(name, value):
    doc = run_session(cfg(3, 1, bits="0111", seed=21)).to_json_dict()
    *parents, key = [int(s) if s.isdigit() else s for s in re.findall(r"\w+", name)]
    entry = doc
    for step in parents:
        entry = entry[step]
    entry[key] = value
    with pytest.raises(ValueError, match=re.escape(f"'{name}' is invalid")):
        SessionTranscript.from_json_dict(doc)


def _all_roles_checking(doc):
    for group in doc["groups"]:
        group["role"] = "checking"


_UNWRITTEN = {
    "eve-detected verdict, every check passed": (
        lambda doc: doc.update(verdict="eve-detected"), "verdict"
    ),
    "every role checking": (_all_roles_checking, "checking[1].group"),
    "checking record for group 99": (
        lambda doc: doc["checking"].append(dict(doc["checking"][0], group=99)),
        "checking[1].group",
    ),
    "decoded bits the records do not decode to": (
        lambda doc: doc.update(decoded_bits="0000"), "decoded_bits"
    ),
    "duplicated encoding record": (
        lambda doc: doc["encoding"].append(dict(doc["encoding"][-1])), "encoding[2].group"
    ),
    "flipped passed": (
        lambda doc: doc["checking"][0].update(passed=False), "checking[0].passed"
    ),
}


@pytest.mark.parametrize(("edit", "name"), _UNWRITTEN.values(), ids=_UNWRITTEN.keys())
def test_transcript_no_session_writes_is_rejected(edit, name):
    """Each field is well formed alone, but no session writes them together."""
    doc = run_session(cfg(3, 1, bits="0111", seed=21)).to_json_dict()
    assert SessionTranscript.from_json_dict(doc).decoded_bits == "0111"
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(f"'{name}' is invalid")):
        SessionTranscript.from_json_dict(doc)


@pytest.mark.parametrize("edit", [0, -1, "n + 1", 99, "neighbour"])
def test_transcript_group_indices_must_run_one_to_n(edit):
    """An aborted session has no encoding records to pin its encoding-role
    groups' indices, so the group table alone must number them 1..n."""
    session = run_session(cfg(6, 4, bits="0110", seed=0), AttackStrategy.REPLACE_MEASURE_AFTER)
    doc = session.to_json_dict()
    assert doc["verdict"] == "eve-detected"
    groups = doc["groups"]
    i = next(i for i, g in enumerate(groups) if g["role"] == "encoding" and i > 0)
    value = {"n + 1": len(groups) + 1, "neighbour": groups[i - 1]["index"]}.get(edit, edit)
    groups[i]["index"] = value
    with pytest.raises(ValueError, match=re.escape(f"'groups[{i}].index' is invalid")):
        SessionTranscript.from_json_dict(doc)


def test_transcript_names_first_bad_field_in_record_order():
    doc = run_session(cfg(3, 1, bits="0111", seed=21)).to_json_dict()
    doc["groups"][2]["index"] = "3"
    doc["groups"][1]["role"] = "sender"
    with pytest.raises(ValueError, match=r"'groups\[1\]\.role' is invalid"):
        SessionTranscript.from_json_dict(doc)


def test_transcript_columns_match_json_records():
    transcript = run_session(cfg(5, 2, bits="011011", seed=4))
    doc = transcript.to_json_dict()
    checking = transcript.checking
    assert checking.group.tolist() == [e["group"] for e in doc["checking"]]
    assert [ENCODING_OPS[i].value for i in checking.op] == [e["op"] for e in doc["checking"]]
    assert [BELL_KINDS[i].value for i in checking.bob] == [e["bob"] for e in doc["checking"]]
    assert transcript.checking_passed == {e["group"]: e["passed"] for e in doc["checking"]}
    encoding = transcript.encoding
    assert [BELL_KINDS[i].value for i in encoding.alice] == [e["alice"] for e in doc["encoding"]]
    assert transcript.encoding_bob == {e["group"]: KIND[e["bob"]] for e in doc["encoding"]}
    assert transcript.groups.bob.tolist() == [g["bob"] for g in doc["groups"]]
    assert transcript.groups.alice.tolist() == [g["alice"] for g in doc["groups"]]


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
    with pytest.raises(ValueError, match="0/1 string"):
        SessionConfig(n_groups=1, n_checking=0, message_bits=["0", "1"])


@pytest.mark.parametrize("field", ["n_groups", "n_checking", "seed"])
@pytest.mark.parametrize("value", [2.0, "2", True, None])
def test_session_config_counts_and_seed_must_be_integers(field, value):
    values = {"n_groups": 2, "n_checking": 1, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SessionConfig(message_bits="01", **values)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_session_config_seed_must_be_a_key_word(seed):
    # numpy would wrap -1 onto 2**64 - 1, the same session under another seed
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\), got "):
        SessionConfig(n_groups=1, n_checking=1, seed=seed)
    assert SessionConfig(n_groups=1, n_checking=1, seed=2**64 - 1).seed == 2**64 - 1


def test_check_passes_predicates():
    # honestly encoded pair under u2: receiver psi+, sender phi+
    u2 = ENCODING_OPS.index(EncodingOp.U2)
    psi_plus, phi_plus = BELL_KINDS.index(KIND["psi+"]), BELL_KINDS.index(KIND["phi+"])
    assert check_passes(DetectionPredicate.ANNOUNCED_OP, u2, psi_plus, phi_plus)
    assert not check_passes(DetectionPredicate.STRICT_U0, u2, psi_plus, phi_plus)
    assert check_passes(DetectionPredicate.STRICT_U0, u2, psi_plus, psi_plus)


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


def test_register_add_names_clashing_qubits():
    register = Register(
        [make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4)]
    )
    with pytest.raises(QubitError, match=r"register already holds \[2, 3\]"):
        register.add(make_bell(BellKind.PSI_PLUS, 3, 2))
    assert register.qubits == frozenset({1, 2, 3, 4})


def test_register_enumerate_bell_leaves_parent_usable():
    register = Register(
        [make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4)]
    )
    branches = register.enumerate_bell(1, 3)
    assert len(branches) == 4
    assert abs(sum(p for p, _, _ in branches) - 1.0) < 1e-9
    # the parent still holds all four qubits and can be measured itself
    assert register.qubits == frozenset({1, 2, 3, 4})
    register.measure_bell(1, 3, TrialStreams(0, 0, 1))
    for _, clone, kind in branches:
        assert clone.qubits == frozenset({2, 4})


def test_register_touched_audit():
    register, groups = prepare_registers(cfg(1, 1))
    register.touched.clear()
    register.apply_single(2, EncodingOp.U1.matrix)
    register.measure_bell(2, 4, TrialStreams(1, 0, 1))
    assert register.touched == {2, 4}


@pytest.mark.parametrize(
    "policy",
    [{"u0": 1.0}, {EncodingOp.U0: 0.5, "u1": 0.5}, {0: 1.0}],
)
def test_policy_keys_must_be_encoding_ops(policy):
    with pytest.raises(ValueError, match="EncodingOp"):
        policy_weights(policy)
    with pytest.raises(ValueError, match="EncodingOp"):
        cfg(1, 1, checking_op_policy=policy)


@pytest.mark.parametrize(
    "policy",
    [
        {EncodingOp.U0: math.nan, EncodingOp.U1: 1.0},
        {EncodingOp.U0: 1.0, EncodingOp.U3: math.nan},
        {EncodingOp.U2: math.nan},
    ],
)
def test_policy_rejects_nan_weights(policy):
    with pytest.raises(ValueError, match="probability distribution"):
        policy_weights(policy)
    with pytest.raises(ValueError, match="probability distribution"):
        cfg(1, 1, checking_op_policy=policy)
    with pytest.raises(ValueError, match="probability distribution"):
        monte_carlo(AttackStrategy.NONE, 10, seed=0, policy=policy)


def test_policy_must_be_a_distribution():
    assert policy_weights(single_op_policy(EncodingOp.U3)) == [0.0, 0.0, 0.0, 1.0]
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
    weights = [policy.get(op, 0.0) for op in ENCODING_OPS]
    expected = [
        ENCODING_OPS[oracles.scalar_choice(make_rng(9, t).random(), weights)] for t in range(300)
    ]
    assert [ENCODING_OPS[i] for i in drawn] == expected


def test_register_take_selects_rows_and_shares_single_states():
    plus = make_bell(BellKind.PSI_PLUS, 1, 2)
    batch = make_bell(np.array([0, 1, 2, 3]), 3, 4)
    register = Register([plus, batch])
    taken = register.take([3, 1])
    assert taken.factor_state(1, 2) is plus
    np.testing.assert_array_equal(taken.factor_state(3, 4).amps, batch.amps[[3, 1]])
    assert register.factor_state(3, 4) is batch
    assert taken.allocate(1) == register.allocate(1) == (5,)


def test_register_apply_single_codes_pick_ops_per_row():
    plus = make_bell(BellKind.PSI_PLUS, 1, 2)
    minus = make_bell(BellKind.PSI_MINUS, 1, 2)
    register = Register([plus])
    table = np.stack((EncodingOp.U1.matrix, EncodingOp.U0.matrix))
    register.apply_single(2, table, np.array([0, 1]))
    amps = register.factor_state(1, 2).amps
    assert abs(abs(np.vdot(minus.amps, amps[0])) - 1.0) < 1e-12
    np.testing.assert_allclose(amps[1], plus.amps, atol=1e-15)
    # without codes every row takes the op
    register.apply_single(2, EncodingOp.U1.matrix)
    amps = register.factor_state(1, 2).amps
    assert abs(abs(np.vdot(plus.amps, amps[0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(minus.amps, amps[1])) - 1.0) < 1e-12


def _indexed_factors(register: Register) -> int:
    """How many of the register's factors hold a row index."""
    return sum(sv.rows is not None for sv in register._factors.values())


def _indexed_round(monkeypatch, ratio: int) -> tuple[list, dict, list]:
    """4096 rows through every way a factor gains or keeps a row index:
    a measured single state, per-row ops on one state and on distinct
    states, one op on distinct states, and merges of two indexed factors
    and of an indexed factor with a single state.  Returns the outcomes,
    each stage's per-row states as the register itself, its ``take`` and
    its ``clone`` show them, and each stage's count of indexed factors."""
    monkeypatch.setattr(qcore, "INDEX_RATIO", ratio)
    rng = TrialStreams(11, 0, 4096)
    register = Register(make_bell(BellKind.PSI_PLUS, q, q + 1) for q in (1, 3, 5, 7, 9))
    rows = [4095, 0, 17, 17, 2048]
    outcomes, states, indexed = [], {}, []

    def snapshot(stage, qubits):
        clone = register.clone()
        indexed.append(_indexed_factors(register))
        states[stage] = [
            register.factor_state(*qubits).amps,
            register.take(rows).factor_state(*qubits).amps,
            clone.factor_state(*qubits).amps,
        ]
        clone.measure_bell(*qubits[:2], rng)  # a clone's collapse leaves the register be
        assert np.array_equal(register.factor_state(*qubits).amps, states[stage][0])

    outcomes.append(register.measure_bell(2, 3, rng))
    register.apply_single(4, OP_MATRICES, draw_op(UNIFORM_POLICY, rng))
    register.apply_single(1, EncodingOp.U2.matrix)
    outcomes.append(register.measure_bell(6, 7, rng))
    snapshot("fanned", (1, 4))
    register.apply_cnot(4, 8)
    register.apply_single(5, OP_MATRICES[:2], rng.choose([0.5, 0.5]))
    register.apply_cnot(1, 9)
    snapshot("merged", (1, 4, 5, 8, 9, 10))
    outcomes.append(register.measure_bell(4, 5, rng))
    snapshot("measured", (1, 8, 9, 10))
    return outcomes, states, indexed


def test_indexed_register_matches_one_state_per_row(monkeypatch):
    outcomes, states, indexed = _indexed_round(monkeypatch, qcore.INDEX_RATIO)
    plain_outcomes, plain_states, plain_indexed = _indexed_round(monkeypatch, 1 << 40)
    # Two fanned-out factors merge into one; the last measurement has too
    # many candidates for 4096 rows and gathers one state per row.
    assert indexed == [2, 1, 0] and plain_indexed == [0, 0, 0]
    for got, want in zip(outcomes, plain_outcomes):
        assert np.array_equal(got, want)
    assert states.keys() == plain_states.keys()
    for stage, views in states.items():
        for got, want in zip(views, plain_states[stage]):
            assert got.shape == want.shape and np.array_equal(got, want), stage


def test_measuring_zero_probability_outcomes_warns_of_nothing():
    """Outcomes of probability 0 are no candidates: none is divided by the
    square root of its probability, and no row draws one."""
    rng = TrialStreams(3, 0, 4096)
    ancilla = qcore.apply_cnot(
        qcore.compose(make_bell(BellKind.PSI_PLUS, 1, 2), qcore.single_qubit(5)), 2, 5
    )
    swapped = Register([make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # one state, whose two phi outcomes have probability 0
        kind = Register([ancilla]).measure_bell(1, 2, rng)
        # the swap leaves four distinct Bell pairs on (1, 4), each with
        # three outcomes of probability 0
        first = swapped.measure_bell(2, 3, rng)
        assert _indexed_factors(swapped)
        second = swapped.measure_bell(1, 4, rng)
    psi = {BELL_KINDS.index(BellKind.PSI_PLUS), BELL_KINDS.index(BellKind.PSI_MINUS)}
    assert set(kind.tolist()) == psi
    assert set(first.tolist()) == set(range(4))
    assert np.array_equal(second, first)


def test_every_bell_measurement_runs_sample_bell(monkeypatch):
    """``qcore.sample_bell`` is the one Bell-measurement kernel: an exact
    enumeration, whose late passes hold indexed factors, and a 256-group
    session call it once per ``Register.measure_bell``."""
    calls = {"sample_bell": 0, "measure_bell": 0}
    sample_bell, measure_bell = qcore.sample_bell, Register.measure_bell

    def counted_sample_bell(*args):
        calls["sample_bell"] += 1
        return sample_bell(*args)

    def counted_measure_bell(self, *args):
        calls["measure_bell"] += 1
        return measure_bell(self, *args)

    monkeypatch.setattr(qcore, "sample_bell", counted_sample_bell)
    monkeypatch.setattr(Register, "measure_bell", counted_measure_bell)
    enumerate_session_leaves(2, [1, 2], AttackStrategy.REPLACE_MEASURE_BEFORE)
    assert calls["measure_bell"] > 0
    assert calls["sample_bell"] == calls["measure_bell"]
    config = SessionConfig(256, 64, message_bits="01" * 192, seed=7)
    run_session(config, AttackStrategy.REPLACE_MEASURE_BEFORE)
    assert calls["sample_bell"] == calls["measure_bell"]


# (n_groups, n_checking) of the frozen transcript grid: each size with no,
# some and all groups checking.
_DIGEST_SIZES = [
    (n_groups, n_checking)
    for n_groups, checks in [
        (1, (0, 1)),
        (2, (0, 1, 2)),
        (3, (0, 1, 3)),
        (5, (0, 2, 5)),
        (33, (0, 8, 33)),
        (256, (0, 64, 256)),
    ]
    for n_checking in checks
]
_DIGEST_POLICIES = [UNIFORM_POLICY] + [single_op_policy(op) for op in ENCODING_OPS]
# SHA-256 of the concatenated to_json() of every session in _digest_grid(),
# as written by the one-group-at-a-time session of commit 37839f5.
TRANSCRIPT_GRID_SHA256 = "1ee8842223821ebc7b93ac7b929c0105aa49406b6c41102ab8ceb4781d504aab"


def _digest_grid():
    """(config, strategy) for every strategy, predicate, encode target,
    checking policy and size; seed and message bits come from the position
    in the grid."""
    grid = itertools.product(
        AttackStrategy, DetectionPredicate, EncodeTarget, _DIGEST_POLICIES, _DIGEST_SIZES
    )
    for seed, (strategy, predicate, target, policy, (n_groups, n_checking)) in enumerate(
        grid, start=1
    ):
        bits = np.random.default_rng(seed).integers(0, 2, 2 * (n_groups - n_checking))
        config = SessionConfig(
            n_groups=n_groups,
            n_checking=n_checking,
            message_bits="".join(map(str, bits)),
            checking_op_policy=policy,
            encode_target=target,
            predicate=predicate,
            seed=seed,
        )
        yield config, strategy


def _grid_digest() -> str:
    digest = hashlib.sha256()
    for config, strategy in _digest_grid():
        digest.update(run_session(config, strategy).to_json().encode())
    return digest.hexdigest()


def test_transcript_grid_digest_is_frozen():
    assert _grid_digest() == TRANSCRIPT_GRID_SHA256


@st.composite
def sessions(draw):
    """A run_session config and strategy: any size up to 64 groups, any
    checking count, policy, target and predicate, and a 64-bit seed."""
    n_groups = draw(st.integers(1, 64))
    n_checking = draw(st.integers(0, n_groups))
    n_bits = 2 * (n_groups - n_checking)
    config = SessionConfig(
        n_groups=n_groups,
        n_checking=n_checking,
        message_bits=draw(st.text("01", min_size=n_bits, max_size=n_bits)),
        checking_op_policy=draw(st.sampled_from(_DIGEST_POLICIES)),
        encode_target=draw(st.sampled_from(EncodeTarget)),
        predicate=draw(st.sampled_from(DetectionPredicate)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return config, draw(st.sampled_from(AttackStrategy))


@given(session=sessions())
@settings(max_examples=60, deadline=None)
def test_session_properties(session):
    config, strategy = session
    transcript = run_session(config, strategy)
    honest = strategy is AttackStrategy.NONE
    if honest and config.predicate is DetectionPredicate.ANNOUNCED_OP:
        assert transcript.verdict is Verdict.CLEAN
    if transcript.verdict is Verdict.CLEAN:
        if honest:
            assert transcript.decoded_bits == config.message_bits
    else:
        assert len(transcript.encoding) == 0
        assert transcript.decoded_bits == ""
    assert transcript.redecode() == transcript.decoded_bits
    text = transcript.to_json()
    assert SessionTranscript.from_json_dict(json.loads(text)).to_json() == text

