import numpy as np
import pytest

import oracles
from qsdc_swap.adversary import (
    CORRECTION_TRIGGER,
    CORRECTIVE_OP,
    AttackStrategy,
    EveMemory,
    apply_attack,
    attack_footprint,
    eve_guess_bits,
    finalize_attack,
)
from qsdc_swap.bellmap import ENCODING_OPS, EncodingOp, apply_encoding, is_correlated
from qsdc_swap.protocol import Group, Register, build_groups
from qsdc_swap.qcore import (
    BELL_KINDS,
    BellKind,
    StateVector,
    TrialStreams,
    apply_cnot,
    apply_single,
    bell_branches,
    classify_bell,
    compose,
    make_bell,
    overlap,
    single_qubit,
)

KIND = {k.value: k for k in BELL_KINDS}


def one_row(seed):
    """The draws of make_rng(seed), as a one-row outcome source."""
    return TrialStreams(seed, 0, 1)


def only_kind(outcomes):
    """The Bell kind of a one-row outcome array."""
    (index,) = outcomes
    return BELL_KINDS[index]


def only_state(state):
    """The single state of a one-row batch."""
    return StateVector(state.qubits, state.amps[0])


def fresh_register():
    register = Register(
        [make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4)]
    )
    return register, [Group(index=1, bob_qubits=(1, 3), alice_qubits=(2, 4))]


def test_strategy_names():
    assert AttackStrategy.from_name("replace-after") is AttackStrategy.REPLACE_MEASURE_AFTER
    with pytest.raises(ValueError):
        AttackStrategy.from_name("quantum-laser")


def test_none_attack_is_identity():
    register, groups = fresh_register()
    before = register.compose_all()
    memory = EveMemory(strategy=AttackStrategy.NONE)
    apply_attack(AttackStrategy.NONE, register, groups, one_row(0), memory)
    assert groups[0].alice_qubits == (2, 4)
    assert abs(overlap(before, register.compose_all()) - 1.0) < 1e-12


def test_attack_cannot_run_twice():
    register, groups = fresh_register()
    memory = EveMemory(strategy=AttackStrategy.NONE)
    apply_attack(AttackStrategy.NONE, register, groups, one_row(0), memory)
    with pytest.raises(RuntimeError):
        apply_attack(AttackStrategy.NONE, register, groups, one_row(0), memory)


def test_measure_resend_pins_receiver_pair():
    # whatever Eve observes on the travel pair, the kept pair holds the
    # same kind afterwards, deterministically
    seen = set()
    for seed in range(24):
        register, groups = fresh_register()
        memory = EveMemory(strategy=AttackStrategy.INTERCEPT_MEASURE_RESEND)
        apply_attack(
            AttackStrategy.INTERCEPT_MEASURE_RESEND, register, groups, one_row(seed), memory
        )
        eve_kind = only_kind(memory.travel_outcomes[1])
        seen.add(eve_kind)
        assert classify_bell(only_state(register.factor_state(1, 3))) is eve_kind
        forwarded = register.factor_state(*groups[0].alice_qubits)
        assert classify_bell(only_state(forwarded)) is eve_kind
        assert groups[0].alice_qubits == (5, 6)
    assert seen == set(BELL_KINDS)


def test_replace_forwards_eve_halves():
    register, groups = fresh_register()
    memory = EveMemory(strategy=AttackStrategy.REPLACE_MEASURE_AFTER)
    apply_attack(
        AttackStrategy.REPLACE_MEASURE_AFTER, register, groups, one_row(1), memory
    )
    assert groups[0].alice_qubits == (6, 8)
    assert memory.kept_replacement[1] == (5, 7)
    assert memory.kept_originals[1] == (2, 4)
    # originals remain entangled with the receiver's photons
    assert set(register.factor_state(1, 2).qubits) == {1, 2}
    assert classify_bell(register.factor_state(5, 6)) is BellKind.PSI_PLUS


def test_replace_measure_before_records_cross_outcomes():
    register, groups = fresh_register()
    memory = EveMemory(strategy=AttackStrategy.REPLACE_MEASURE_BEFORE)
    apply_attack(
        AttackStrategy.REPLACE_MEASURE_BEFORE, register, groups, one_row(4), memory
    )
    e1, e2 = map(only_kind, memory.cross_outcomes[1])
    # each cross measurement swaps entanglement onto the forwarded photon
    assert classify_bell(only_state(register.factor_state(1, 6))) is e1
    assert classify_bell(only_state(register.factor_state(3, 8))) is e2


def test_ancilla_attack_builds_printed_expansion():
    register, groups = fresh_register()
    memory = EveMemory(strategy=AttackStrategy.ANCILLA_PASSIVE)
    apply_attack(AttackStrategy.ANCILLA_PASSIVE, register, groups, one_row(0), memory)
    assert memory.ancilla_qubits[1] == (5, 6)
    state = register.factor_state(1, 2, 3, 4, 5, 6)
    amp = np.sqrt(2.0) / 4.0
    total = 0.0
    for bob, alice, anc, sign in oracles.ANCILLA_COPY_TERMS:
        bra = compose(
            compose(make_bell(KIND[bob], 1, 3), make_bell(KIND[alice], 2, 4)),
            make_bell(KIND[anc], 5, 6),
        )
        c = overlap(bra, state)
        assert abs(c - sign * amp) < 1e-9
        total += abs(c) ** 2
    assert abs(total - 1.0) < 1e-9


def test_ancilla_corrective_records_and_corrects():
    triggered = 0
    for seed in range(24):
        register, groups = fresh_register()
        memory = EveMemory(strategy=AttackStrategy.ANCILLA_CORRECTIVE)
        apply_attack(
            AttackStrategy.ANCILLA_CORRECTIVE, register, groups, one_row(seed), memory
        )
        kind = only_kind(memory.ancilla_outcomes[1])
        (corrected,) = memory.corrections[1]
        assert corrected == (kind in CORRECTION_TRIGGER)
        triggered += corrected
        # after any correction the four honest qubits carry the identity
        # correlation again: receiver and sender kinds agree on every branch
        state = only_state(register.factor_state(1, 2, 3, 4))
        for branch in bell_branches(state, 2, 4):
            assert classify_bell(branch.state) is branch.kind
    assert 0 < triggered < 24


def test_corrective_op_is_the_sign_flip():
    assert CORRECTIVE_OP is EncodingOp.U1
    assert CORRECTION_TRIGGER == {BellKind.PSI_MINUS, BellKind.PHI_MINUS}


@pytest.mark.parametrize("travel_photon", [2, 4])
def test_only_sign_flip_restores_minus_branches(travel_photon):
    # brute force: after the ancilla measurement returns a minus kind, a
    # uniform fix-up with each candidate op restores every checking
    # correlation only for the sign flip
    base = compose(
        compose(make_bell(BellKind.PSI_PLUS, 1, 2), single_qubit(5)),
        compose(make_bell(BellKind.PSI_PLUS, 3, 4), single_qubit(6)),
    )
    base = apply_cnot(base, 2, 5)
    base = apply_cnot(base, 4, 6)
    minus_states = [
        b.state for b in bell_branches(base, 5, 6) if b.kind in CORRECTION_TRIGGER
    ]
    assert len(minus_states) == 2
    for candidate in ENCODING_OPS:
        restores = True
        for state in minus_states:
            fixed = apply_single(state, travel_photon, candidate.matrix)
            for op in ENCODING_OPS:
                coded = apply_single(fixed, 4, op.matrix)
                for alice_branch in bell_branches(coded, 2, 4):
                    for bob_branch in bell_branches(alice_branch.state, 1, 3):
                        if not is_correlated(op, bob_branch.kind, alice_branch.kind):
                            restores = False
        assert restores == (candidate is CORRECTIVE_OP)


@pytest.mark.parametrize(
    "strategy",
    [
        AttackStrategy.INTERCEPT_MEASURE_RESEND,
        AttackStrategy.REPLACE_MEASURE_AFTER,
        AttackStrategy.REPLACE_MEASURE_BEFORE,
        AttackStrategy.ANCILLA_PASSIVE,
        AttackStrategy.ANCILLA_CORRECTIVE,
    ],
)
def test_attack_never_touches_receiver_photons(strategy):
    register, groups = prepare_two_group_register()
    bob_ids = {q for g in groups for q in g.bob_qubits}
    register.touched.clear()
    memory = EveMemory(strategy=strategy)
    apply_attack(strategy, register, groups, one_row(8), memory)
    assert not (register.touched & bob_ids)


def prepare_two_group_register():
    register = Register()
    for pair in range(1, 5):
        register.add(make_bell(BellKind.PSI_PLUS, 2 * pair - 1, 2 * pair))
    return register, build_groups(2)


def test_attack_determinism():
    def run(seed):
        register, groups = prepare_two_group_register()
        memory = EveMemory(strategy=AttackStrategy.REPLACE_MEASURE_BEFORE)
        apply_attack(
            AttackStrategy.REPLACE_MEASURE_BEFORE, register, groups, one_row(seed), memory
        )
        return {g: [e.tolist() for e in pair] for g, pair in memory.cross_outcomes.items()}

    assert run(33) == run(33)


def test_eve_guess_inverts_measure_resend():
    memory = EveMemory(strategy=AttackStrategy.INTERCEPT_MEASURE_RESEND)
    memory.travel_outcomes[2] = np.array([BELL_KINDS.index(KIND["phi+"])])
    alice = np.array([[BELL_KINDS.index(KIND["phi-"])]])
    (guess,) = eve_guess_bits(memory, [2], alice)[2]
    assert ENCODING_OPS[guess] is EncodingOp.U1


def test_eve_guess_abstains_without_records():
    for strategy in (AttackStrategy.NONE, AttackStrategy.ANCILLA_CORRECTIVE):
        memory = EveMemory(strategy=strategy)
        memory.ancilla_outcomes[1] = np.array([BELL_KINDS.index(KIND["psi-"])])
        guesses = eve_guess_bits(memory, [1], np.array([[BELL_KINDS.index(KIND["phi-"])]]))
        assert guesses == {1: None}


def test_finalize_replace_after_enables_exact_guess():
    # across seeds, Eve's deferred measurement of her kept halves plus the
    # announcement recovers the encoded op every time
    for seed in range(12):
        register, groups = fresh_register()
        rng = one_row(seed)
        memory = EveMemory(strategy=AttackStrategy.REPLACE_MEASURE_AFTER)
        apply_attack(AttackStrategy.REPLACE_MEASURE_AFTER, register, groups, rng, memory)
        op = ENCODING_OPS[seed % 4]
        register.apply_single(groups[0].alice_qubits[1], op.matrix)
        alice = register.measure_bell(*groups[0].alice_qubits, rng)
        finalize_attack(AttackStrategy.REPLACE_MEASURE_AFTER, register, groups, memory, rng)
        (guess,) = eve_guess_bits(memory, [1], np.array([alice]))[1]
        assert ENCODING_OPS[guess] is op


def test_attack_footprint_counts_draws_and_fresh_ids_per_group():
    expected = {
        AttackStrategy.NONE: (0, 0),
        AttackStrategy.INTERCEPT_MEASURE_RESEND: (1, 2),
        AttackStrategy.REPLACE_MEASURE_AFTER: (0, 4),
        AttackStrategy.REPLACE_MEASURE_BEFORE: (2, 4),
        AttackStrategy.ANCILLA_PASSIVE: (0, 2),
        AttackStrategy.ANCILLA_CORRECTIVE: (1, 2),
    }
    assert {s: attack_footprint(s) for s in AttackStrategy} == expected
