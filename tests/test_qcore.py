import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from qsdc_swap import qcore
from qsdc_swap.analysis import MC_CHUNK
from qsdc_swap.qcore import (
    BELL_KINDS,
    BellKind,
    QubitError,
    StateVector,
    U0,
    U1,
    U2,
    U3,
    apply_cnot,
    apply_single,
    bell_branches,
    classify_bell,
    compose,
    make_bell,
    TrialStreams,
    Uniforms,
    make_rng,
    overlap,
    philox_block,
    sample_bell,
    single_qubit,
    _pair_projections,
)

KIND = {k.value: k for k in BELL_KINDS}
OP_MAT = {"u0": U0, "u1": U1, "u2": U2, "u3": U3}


def from_oracle(qubits, vec):
    return StateVector(tuple(qubits), np.asarray(vec, dtype=complex))


def test_make_bell_amplitudes():
    psi = make_bell(BellKind.PSI_PLUS, 1, 2)
    np.testing.assert_allclose(psi.amps, oracles.BELL_VEC["psi+"], atol=1e-12)
    phim = make_bell(BellKind.PHI_MINUS, 3, 4)
    assert phim.qubits == (3, 4)
    np.testing.assert_allclose(phim.amps, oracles.BELL_VEC["phi-"], atol=1e-12)


def test_make_bell_normalized_all_kinds():
    for kind in BELL_KINDS:
        sv = make_bell(kind, 5, 9)
        assert abs(np.vdot(sv.amps, sv.amps).real - 1.0) < 1e-12


def test_make_bell_duplicate_id_raises():
    with pytest.raises(QubitError):
        make_bell(BellKind.PHI_PLUS, 2, 2)


def test_compose_product_pattern():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    expected = oracles.kron_all(oracles.BELL_VEC["psi+"], oracles.BELL_VEC["psi+"])
    np.testing.assert_allclose(state.amps, expected, atol=1e-12)
    nonzero = {i for i, a in enumerate(state.amps) if abs(a) > 1e-12}
    assert nonzero == {0b0101, 0b0110, 0b1001, 0b1010}


def test_compose_rejects_overlap():
    with pytest.raises(QubitError):
        compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 2, 3))


def test_compose_four_pairs_norm():
    state = make_bell(BellKind.PSI_PLUS, 1, 2)
    for k in range(2, 5):
        state = compose(state, make_bell(BellKind.PSI_PLUS, 2 * k - 1, 2 * k))
    assert state.n == 8
    assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-9


def test_compose_respects_register_cap():
    state = make_bell(BellKind.PSI_PLUS, 1, 2)
    for k in range(2, 7):
        state = compose(state, make_bell(BellKind.PSI_PLUS, 2 * k - 1, 2 * k))
    with pytest.raises(QubitError):
        compose(state, make_bell(BellKind.PSI_PLUS, 101, 102))


def test_crossed_pair_overlap_is_half():
    # the crossed-pair product against the straight product
    straight = compose(
        make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4)
    )
    crossed = compose(
        make_bell(BellKind.PHI_PLUS, 1, 3), make_bell(BellKind.PHI_PLUS, 2, 4)
    )
    got = overlap(crossed, straight)
    expected = np.vdot(
        oracles.bell_product([("phi+", 1, 3), ("phi+", 2, 4)], [1, 2, 3, 4]),
        oracles.bell_product([("psi+", 1, 2), ("psi+", 3, 4)], [1, 2, 3, 4]),
    )
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.5) < 1e-12


@pytest.mark.parametrize(
    "op_name,expected_kind",
    [("u0", "psi+"), ("u1", "psi-"), ("u2", "phi+"), ("u3", "phi-")],
)
def test_apply_single_coding_orbit_on_plus_pair(op_name, expected_kind):
    encoded = apply_single(make_bell(BellKind.PSI_PLUS, 3, 4), 4, OP_MAT[op_name])
    expected = oracles.apply_u(oracles.BELL_VEC["psi+"], 2, 1, oracles.U_MAT[op_name])
    assert abs(np.vdot(expected, encoded.amps)) > 1 - 1e-12
    assert classify_bell(encoded) is KIND[expected_kind]


def test_apply_single_identity_is_exact():
    pair = make_bell(BellKind.PSI_PLUS, 3, 4)
    out = apply_single(pair, 4, U0)
    np.testing.assert_allclose(out.amps, pair.amps, atol=1e-15)


@pytest.mark.parametrize("op_name,image", [("u1", "psi-"), ("u3", "phi-")])
def test_apply_single_either_photon_same_kind(op_name, image):
    # coding ops land on the same kind whichever photon they hit, up to phase
    pair = make_bell(BellKind.PSI_PLUS, 3, 4)
    on_first = apply_single(pair, 3, OP_MAT[op_name])
    on_second = apply_single(pair, 4, OP_MAT[op_name])
    exp_first = oracles.apply_u(oracles.BELL_VEC["psi+"], 2, 0, oracles.U_MAT[op_name])
    exp_second = oracles.apply_u(oracles.BELL_VEC["psi+"], 2, 1, oracles.U_MAT[op_name])
    np.testing.assert_allclose(on_first.amps, exp_first, atol=1e-12)
    np.testing.assert_allclose(on_second.amps, exp_second, atol=1e-12)
    assert abs(abs(overlap(on_first, on_second)) - 1.0) < 1e-12
    assert classify_bell(on_first) is KIND[image]


def test_apply_single_takes_a_matrix_or_a_table_with_codes():
    pair = make_bell(BellKind.PSI_PLUS, 3, 4)
    stack = np.stack([U0, U2])
    with pytest.raises(ValueError, match="2x2, or a \\(K, 2, 2\\) table with codes"):
        apply_single(make_bell(np.array([0, 2]), 3, 4), 4, stack)
    with pytest.raises(ValueError, match="table with codes"):
        apply_single(pair, 4, U2, np.array([0, 0]))
    with pytest.raises(ValueError, match="table with codes"):
        apply_single(pair, 4, np.eye(4))


def test_apply_single_keeps_a_copy_of_the_codes():
    """A single state under K * INDEX_RATIO codes or more is indexed by a
    copy of them: writing into the caller's codes leaves it as it was."""
    table = np.stack([U0, U1, U2, U3])
    codes = np.random.default_rng(7).integers(0, 4, 4 * qcore.INDEX_RATIO).astype(np.intp)
    out = apply_single(make_bell(BellKind.PSI_PLUS, 3, 4), 4, table, codes)
    assert out.rows is not None and not np.shares_memory(out.rows, codes)
    amps = out.per_row().amps
    codes[:] = 0
    assert np.array_equal(out.per_row().amps, amps)


def test_apply_single_unknown_qubit():
    with pytest.raises(QubitError):
        apply_single(make_bell(BellKind.PSI_PLUS, 3, 4), 7, U2)


def test_apply_cnot_basis_action():
    sv = from_oracle((1, 2), [0, 0, 1, 0])  # |10>
    out = apply_cnot(sv, 1, 2)
    np.testing.assert_allclose(out.amps, [0, 0, 0, 1], atol=1e-15)  # |11>


def test_apply_cnot_copies_travel_photon():
    # CNOT from the travel photon onto a fresh ancilla
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), single_qubit(5))
    out = apply_cnot(state, 2, 5)
    expected = np.zeros(8, dtype=complex)
    expected[0b011] = oracles.S  # |0 1 1>
    expected[0b100] = oracles.S  # |1 0 0>
    np.testing.assert_allclose(out.amps, expected, atol=1e-12)


def test_apply_cnot_is_involution():
    state = compose(make_bell(BellKind.PSI_MINUS, 1, 2), single_qubit(5))
    twice = apply_cnot(apply_cnot(state, 2, 5), 2, 5)
    assert abs(overlap(state, twice) - 1.0) < 1e-12


def test_bell_branches_swaps_entanglement():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    branches = bell_branches(state, 1, 3)
    assert len(branches) == 4
    assert abs(sum(b.prob for b in branches) - 1.0) < 1e-9
    for branch in branches:
        assert abs(branch.prob - 0.25) < 1e-9
        assert branch.state.qubits == (2, 4)
        assert classify_bell(branch.state) is branch.kind


def test_bell_branches_eigenstate():
    branches = bell_branches(make_bell(BellKind.PHI_PLUS, 2, 4), 2, 4)
    assert len(branches) == 1
    assert branches[0].kind is BellKind.PHI_PLUS
    assert abs(branches[0].prob - 1.0) < 1e-12
    assert branches[0].state.qubits == ()


def test_bell_branches_mixed_product():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_MINUS, 3, 4))
    residual = {
        b.kind: classify_bell(b.state) for b in bell_branches(state, 1, 3)
    }
    assert residual[BellKind.PSI_PLUS] is BellKind.PSI_MINUS


def test_bell_branches_removes_measured_qubits():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PHI_MINUS, 7, 9))
    for branch in bell_branches(state, 1, 7):
        assert branch.state.qubits == (2, 9)


def test_sample_bell_eigenstate_deterministic():
    rng = TrialStreams(3, 0, 1)
    for _ in range(20):
        kind, _rest = sample_bell(make_bell(BellKind.PHI_MINUS, 1, 2), 1, 2, rng)
        assert kind.tolist() == [BELL_KINDS.index(BellKind.PHI_MINUS)]


def test_sample_bell_seed_replay():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    seq1 = [sample_bell(state, 2, 4, TrialStreams(42, i, i + 1))[0].tolist() for i in range(50)]
    seq2 = [sample_bell(state, 2, 4, TrialStreams(42, i, i + 1))[0].tolist() for i in range(50)]
    assert seq1 == seq2


def sequential_draws(seed, n):
    """A source whose n rows hold make_rng(seed)'s first n draws, one each."""
    return Uniforms(make_rng(seed).random((n, 1)))


def test_sample_bell_frequencies_quarter():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    n = 100_000
    outcomes, _ = sample_bell(state, 2, 4, sequential_draws(7, n))
    counts = np.bincount(outcomes, minlength=len(BELL_KINDS))
    for count in counts:
        assert abs(count / n - 0.25) < 0.01


def test_sampling_matches_branch_probabilities_chi_square():
    # skewed state: phi+ with prob 1/2, psi+ and psi- with 1/4 each
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = 0.5
    vec[0b0101] = 0.5
    vec[0b0110] = 0.5
    vec[0b1111] = 0.5
    state = from_oracle((1, 2, 3, 4), vec)
    expected = {b.kind: b.prob for b in bell_branches(state, 1, 2)}
    n = 100_000
    outcomes, _ = sample_bell(state, 1, 2, sequential_draws(11, n))
    counts = Counter(BELL_KINDS[i] for i in outcomes.tolist())
    assert set(counts) <= set(expected)
    chi2 = sum(
        (counts[k] - n * p) ** 2 / (n * p) for k, p in expected.items() if p > 0
    )
    assert chi2 < 16.27  # 0.1% critical value at 3 dof


def test_overlap_mismatched_sets():
    with pytest.raises(QubitError):
        overlap(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 1, 3))


def test_overlap_aligns_qubit_order():
    # re-expressing the same state in the other qubit order changes nothing
    same = from_oracle((2, 1), oracles.reorder(oracles.BELL_VEC["psi-"], [1, 2], [2, 1]))
    assert abs(overlap(make_bell(BellKind.PSI_MINUS, 1, 2), same) - 1.0) < 1e-12
    # pairs built with opposite orientation differ by the antisymmetric sign
    assert abs(
        overlap(make_bell(BellKind.PSI_MINUS, 1, 2), make_bell(BellKind.PSI_MINUS, 2, 1))
        + 1.0
    ) < 1e-12
    assert abs(
        overlap(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 2, 1))
        - 1.0
    ) < 1e-12


def test_amps_are_read_only():
    sv = make_bell(BellKind.PHI_PLUS, 1, 2)
    with pytest.raises(ValueError):
        sv.amps[0] = 1.0


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector((1,), np.array([1.0, 1.0], dtype=complex))  # unnormalized
    with pytest.raises(ValueError):
        StateVector((1, 2), np.array([1.0, 0.0], dtype=complex))  # wrong length
    with pytest.raises(QubitError):
        StateVector((1, 1), np.array([1, 0, 0, 0], dtype=complex))


def test_rng_streams_are_independent():
    a = [make_rng(5, 1).random() for _ in range(4)]
    b = [make_rng(5, 2).random() for _ in range(4)]
    assert a != b


# ---------------------------------------------------------------------------
# per-trial streams and batched states
# ---------------------------------------------------------------------------

PHILOX_SEEDS = [0, 7, 2**63 + 5, 2**64 - 3]
# Trial ranges straddling the first and second Monte Carlo chunk boundary.
CHUNK_STRADDLES = [(MC_CHUNK - 3, MC_CHUNK + 4), (2 * MC_CHUNK - 1, 2 * MC_CHUNK + 2)]


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
@pytest.mark.parametrize("start,stop", CHUNK_STRADDLES)
def test_trial_streams_match_make_rng(seed, start, stop):
    streams = TrialStreams(seed, start, stop)
    assert len(streams) == stop - start
    # 9 draws cross two Philox blocks of four
    got = np.stack([streams.random() for _ in range(9)], axis=1)
    for row, trial in zip(got, range(start, stop)):
        rng = make_rng(seed, trial)
        assert row.tolist() == [rng.random() for _ in range(9)]


def test_rereaders_share_each_block_computed(monkeypatch):
    blocks = []

    def counted(seed, streams, block):
        blocks.append(block)
        return philox_block(seed, streams, block)

    monkeypatch.setattr(qcore, "philox_block", counted)
    first = TrialStreams(5, 10, 20)
    head = [first.random() for _ in range(3)]
    second = first.reread()
    # the second reader starts at draw 0 and computes block 1 for both
    got = [second.random() for _ in range(6)]
    # the first reader goes on from draw 3 over the block the second computed
    tail = [first.random() for _ in range(3)]
    for a, b in zip(head + tail, got):
        np.testing.assert_array_equal(a, b)
    for row, trial in zip(np.stack(got, axis=1), range(10, 20)):
        rng = make_rng(5, trial)
        assert row.tolist() == [rng.random() for _ in range(6)]
    assert blocks == [0, 1]


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
@pytest.mark.parametrize("start,stop", CHUNK_STRADDLES)
def test_philox_block_matches_numpy_philox(seed, start, stop):
    trials = np.arange(start, stop, dtype=np.uint64)
    got = np.hstack([philox_block(seed, trials, k) for k in range(3)])
    for row, trial in zip(got, range(start, stop)):
        # a uint64 key: numpy converts a plain list key through float64,
        # which rounds seeds past 2**53
        key = np.array([seed, trial], dtype=np.uint64)
        assert row.tolist() == np.random.Philox(key=key).random_raw(12).tolist()


KEY_WORDS = st.integers(0, 2**64 - 1)


@given(seed=KEY_WORDS, stream=KEY_WORDS, block=st.integers(0, 7))
@example(seed=0, stream=0, block=0)
@example(seed=2**64 - 1, stream=2**64 - 1, block=7)
@example(seed=0, stream=2**64 - 1, block=3)
@example(seed=2**64 - 1, stream=0, block=5)
@settings(max_examples=200, deadline=None)
def test_philox_block_matches_numpy_philox_on_any_key(seed, stream, block):
    # two rows, so that a kernel mixing one row's words into another's fails
    streams = np.array([stream, stream ^ 1], dtype=np.uint64)
    got = philox_block(seed, streams, block)
    for row, word in zip(got, streams.tolist()):
        key = np.array([seed, word], dtype=np.uint64)
        assert row.tolist() == np.random.Philox(key=key).random_raw(4 * (block + 1))[-4:].tolist()


def test_trial_streams_reject_bad_range():
    with pytest.raises(ValueError):
        TrialStreams(0, 5, 4)
    with pytest.raises(ValueError):
        TrialStreams(0, -1, 4)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
def test_trial_streams_reject_seeds_that_are_not_key_words(seed):
    # numpy would wrap -1 onto 2**64 - 1 and draw that seed's streams
    with pytest.raises(ValueError, match="seed must be"):
        TrialStreams(seed, 0, 4)


@pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_make_rng_rejects_keys_outside_the_key_range(seed, stream):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        make_rng(seed, stream)


@pytest.mark.parametrize("seed,stream", [(0, 0), (5, 3), (2**64 - 1, 2**64 - 1)])
def test_make_rng_draws_keyed_philox(seed, stream):
    key = np.array([seed, stream], dtype=np.uint64)
    reference = np.random.Generator(np.random.Philox(key=key))
    rng = make_rng(seed, stream)
    assert rng.random(9).tolist() == reference.random(9).tolist()
    assert rng.permutation(33).tolist() == reference.permutation(33).tolist()


# Outcome weights for choose's rule: a zero and a sub-threshold weight, a
# total short of 1 (a uniform past it takes the likeliest outcome), and a
# certain outcome.
CHOOSE_PROBS = [
    [0.25, 0.25, 0.25, 0.25],
    [0.0, 0.5, 1e-13, 0.5],
    [0.2, 0.3, 0.1],
    [0.0, 0.0, 1.0, 0.0],
    [0.1, 0.2, 0.3, 0.4],
]


def test_uniforms_choose_matches_scalar_choose_column_by_column():
    # row t of the table is what make_rng(5, t) draws one call at a time
    rows = 400
    table = np.stack([make_rng(5, t).random(len(CHOOSE_PROBS)) for t in range(rows)])
    source = Uniforms(table)
    got = np.stack([source.choose(probs) for probs in CHOOSE_PROBS], axis=1)
    for t in range(rows):
        rng = make_rng(5, t)
        expected = [oracles.scalar_choice(rng.random(), probs) for probs in CHOOSE_PROBS]
        assert got[t].tolist() == expected


def test_uniforms_choose_per_row_probabilities_match_scalar_choose():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(4), size=200)
    uniforms = rng.random(200)
    # a 1e-13 outcome, first and in the middle, under a uniform inside its
    # weight: the draw passes it over for the next outcome whose sum exceeds
    # the uniform
    probs[:2] = [[1e-13, 0.3, 0.3, 0.4 - 1e-13], [0.5, 1e-13, 0.0, 0.5 - 1e-13]]
    uniforms[:2] = [5e-14, 0.5 + 5e-14]
    # cumulative sums that end below the row's uniform
    probs[2:4] = [[0.2, 0.3, 0.1, 0.05], [0.25, 0.25, 0.25, 0.25 - 1e-12]]
    uniforms[2:4] = [0.9, 1.0 - 1e-13]
    # an outcome of exactly MIN_BRANCH_PROB under a uniform inside its
    # weight is kept, in per-row weights and in one row for every row
    at_min = [qcore.MIN_BRANCH_PROB, 0.5, 0.5 - qcore.MIN_BRANCH_PROB, 0.0]
    probs[4], uniforms[4] = at_min, 5e-13
    expected = [oracles.scalar_choice(u, row) for u, row in zip(uniforms, probs)]
    assert expected[:5] == [1, 3, 1, 0, 0]
    got = Uniforms(uniforms[:, None]).choose(probs)
    assert got.tolist() == expected
    assert Uniforms(uniforms[4:5, None]).choose(at_min).tolist() == [0]


# Row counts of small and large batches, 63 and 64 on either side of
# 4 * INDEX_RATIO, from which a measurement keeps its chosen candidates.
CHOOSE_ROWS = (1, 4, 63, 64, 2000)


@st.composite
def choice_cases(draw):
    """Weights and how to draw uniforms for them: K from 1 to 5 outcomes,
    one row of weights or one per row, a weight of 1e-13 (never chosen) or
    of MIN_BRANCH_PROB first, in the middle or last, a zero-weight column,
    totals short of 1, and uniforms set exactly on a cumulative weight."""
    k = draw(st.integers(1, 5))
    return {
        "rows": draw(st.sampled_from(CHOOSE_ROWS)),
        "k": k,
        "per_row": draw(st.booleans()),
        "tiny": draw(st.sampled_from((None, 0, k // 2, k - 1))),
        "tiny_weight": draw(st.sampled_from((1e-13, qcore.MIN_BRANCH_PROB))),
        "zero": draw(st.none() | st.integers(0, k - 1)),
        "scale": draw(st.sampled_from((1.0, 0.9, 1.0 - 1e-13))),
        "on_sum": draw(st.sampled_from((0.0, 0.25, 1.0))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _choice_weights(case, rng):
    probs = rng.dirichlet(np.ones(case["k"]), size=case["rows"] if case["per_row"] else 1)
    if case["tiny"] is not None:
        probs[:, case["tiny"]] = case["tiny_weight"]
    if case["zero"] is not None:
        probs[:, case["zero"]] = 0.0
    probs *= case["scale"]
    return probs if case["per_row"] else probs[0]


def _chosen_by_scalar_rule(uniforms, probs):
    rows = probs if probs.ndim == 2 else [probs] * len(uniforms)
    return [oracles.scalar_choice(u, row) for u, row in zip(uniforms.tolist(), rows)]


def _check_uniforms_choose(case):
    rng = np.random.default_rng(case["seed"])
    probs = _choice_weights(case, rng)
    uniforms = rng.random(case["rows"])
    # A share of the rows take a uniform equal to one of their row's sums.
    sums = np.add.accumulate(np.broadcast_to(probs, (case["rows"], case["k"])), axis=-1)
    snap = rng.random(case["rows"]) < case["on_sum"]
    uniforms[snap] = sums[snap, rng.integers(0, case["k"], case["rows"])[snap]]
    got = Uniforms(uniforms[:, None]).choose(probs)
    assert got.tolist() == _chosen_by_scalar_rule(uniforms, probs)


def _check_trial_streams_choose(case):
    rng = np.random.default_rng(case["seed"])
    streams = TrialStreams(case["seed"], 100, 100 + case["rows"])
    uniforms = streams.reread().random()
    probs = _choice_weights(case, rng)
    # Zeros up to outcome j and the uniform itself at j: the sum at j is
    # the uniform, exactly.
    snap = np.flatnonzero(rng.random(case["rows"] if case["per_row"] else 1) < case["on_sum"])
    for i, j in zip(snap, rng.integers(0, case["k"], len(snap))):
        row = probs[i] if case["per_row"] else probs
        row[:j] = 0.0
        row[j] = uniforms[i]
    got = streams.choose(probs)
    assert got.tolist() == _chosen_by_scalar_rule(uniforms, probs)


@given(case=choice_cases())
@settings(max_examples=120, deadline=None)
def test_choose_matches_scalar_rule_row_by_row(case):
    _check_uniforms_choose(case)
    _check_trial_streams_choose(case)


@pytest.mark.parametrize("per_row", [False, True])
def test_choose_matches_scalar_rule_at_65536_rows(per_row):
    case = {
        "rows": 65536, "k": 4, "per_row": per_row, "tiny": 1, "tiny_weight": 1e-13, "zero": 3,
        "scale": 1.0 - 1e-13, "on_sum": 0.25, "seed": 22,
    }
    _check_uniforms_choose(case)
    _check_trial_streams_choose(case)


# Row counts of an indexed batch, and counts of its distinct states.
INDEXED_ROWS = (1, 63, 64, 2000)


@st.composite
def indexed_choice_cases(draw):
    """Weights of U distinct states and a row index into them: U from 1 to
    64, the weight forms of ``choice_cases``, and distinct states that no
    row references."""
    k = draw(st.integers(1, 5))
    states = draw(st.integers(1, 64))
    return {
        "rows": draw(st.sampled_from(INDEXED_ROWS)),
        "k": k,
        "states": states,
        "referenced": draw(st.integers(1, states)),
        "tiny": draw(st.sampled_from((None, 0, k // 2, k - 1))),
        "tiny_weight": draw(st.sampled_from((1e-13, qcore.MIN_BRANCH_PROB))),
        "zero": draw(st.none() | st.integers(0, k - 1)),
        "scale": draw(st.sampled_from((1.0, 0.9, 1.0 - 1e-13))),
        "on_sum": draw(st.sampled_from((0.0, 0.25, 1.0))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _indexed_weights(case, rng):
    """The distinct states' weights, and a row index that names only the
    first ``referenced`` of them."""
    probs = _choice_weights(dict(case, rows=case["states"], per_row=True), rng)
    return probs, rng.integers(0, case["referenced"], case["rows"])


def _check_indexed_choose(case):
    rng = np.random.default_rng(case["seed"])
    probs, rows = _indexed_weights(case, rng)
    # Uniforms: a share of the rows take one of their state's sums.
    uniforms = rng.random(case["rows"])
    sums = np.add.accumulate(probs, axis=-1)[rows]
    snap = rng.random(case["rows"]) < case["on_sum"]
    uniforms[snap] = sums[snap, rng.integers(0, case["k"], case["rows"])[snap]]
    got = Uniforms(uniforms[:, None]).choose(probs, rows)
    assert np.array_equal(got, Uniforms(uniforms[:, None]).choose(probs[rows]))
    assert got.tolist() == _chosen_by_scalar_rule(uniforms, probs[rows])
    # TrialStreams: zeros up to outcome j and a row's own uniform at j.
    streams = TrialStreams(case["seed"], 100, 100 + case["rows"])
    uniforms = streams.reread().random()
    probs = probs.copy()
    for i in np.flatnonzero(rng.random(case["rows"]) < case["on_sum"])[:case["states"]]:
        j = rng.integers(0, case["k"])
        probs[rows[i], :j] = 0.0
        probs[rows[i], j] = uniforms[i]
    got = streams.choose(probs, rows)
    assert np.array_equal(got, streams.reread().choose(probs[rows]))
    assert got.tolist() == _chosen_by_scalar_rule(uniforms, probs[rows])


@given(case=indexed_choice_cases())
@settings(max_examples=120, deadline=None)
def test_choose_on_distinct_states_matches_gathered_weights(case):
    """``choose(probs, rows)`` decides row i on row ``rows[i]`` of
    ``probs``: as ``choose(probs[rows])`` does, and as the scalar rule
    does row by row."""
    _check_indexed_choose(case)


@pytest.mark.parametrize("states,referenced", [(4, 4), (64, 63)])
def test_choose_on_distinct_states_at_65536_rows(states, referenced):
    case = {
        "rows": 65536, "k": 4, "states": states, "referenced": referenced, "tiny": 1,
        "tiny_weight": qcore.MIN_BRANCH_PROB, "zero": 3, "scale": 1.0 - 1e-13, "on_sum": 0.25,
        "seed": 23,
    }
    _check_indexed_choose(case)


def test_make_bell_indexes_a_large_batch_of_kinds(monkeypatch):
    """From 4 * INDEX_RATIO kinds on, the batch is the four Bell states and
    a fresh intp copy of the kinds: per row, bit for bit the gathered batch."""
    kinds = np.random.default_rng(5).integers(0, 4, 4 * qcore.INDEX_RATIO, dtype=np.int32)
    small = make_bell(kinds[:-1], 1, 2)
    assert small.rows is None and small.batch == len(kinds) - 1
    state = make_bell(kinds, 1, 2)
    assert state.rows is not None and state.rows.dtype == np.intp and len(state.amps) == 4
    assert not np.shares_memory(state.rows, kinds)
    assert not np.shares_memory(state.amps, qcore._BELL_VECTORS)
    monkeypatch.setattr(qcore, "INDEX_RATIO", 1 << 40)
    gathered = make_bell(kinds, 1, 2)
    assert gathered.rows is None and np.array_equal(state.per_row().amps, gathered.amps)
    kinds[:] = 0
    assert np.array_equal(state.per_row().amps, gathered.amps)


def _indexed(seed: int, states: int, referenced: int, rows: int) -> StateVector:
    """An indexed batch of ``rows`` rows over ``states`` random 3-qubit
    states, of which the rows name only the first ``referenced``."""
    rng = np.random.default_rng(seed)
    index = rng.integers(0, referenced, rows)
    return qcore._trusted((1, 2, 3), random_amps(rng, 3, states), index)


def _check_kept_candidates(state: StateVector, rows: int) -> None:
    """Measure ``(1, 3)`` of ``state`` in ``rows`` rows: a single state or
    an indexed batch of 4 * INDEX_RATIO rows or more keeps the (state,
    outcome) candidates its rows chose if the rows number INDEX_RATIO
    times those, and any other batch gathers one state per row; per row,
    bit for bit the outcomes and collapsed states of the batch with one
    state per row."""
    if state.batch is None:
        flat = StateVector(state.qubits, np.tile(state.amps, (rows, 1)))
    else:
        flat = state.per_row()
    kind, got = sample_bell(state, 1, 3, TrialStreams(8, 0, rows))
    want_kind, want = sample_bell(flat, 1, 3, TrialStreams(8, 0, rows))
    assert np.array_equal(kind, want_kind) and want.rows is None
    assert np.array_equal(got.per_row().amps, want.amps)
    candidates = len(np.unique(kind if state.rows is None else state.rows * 4 + kind))
    if 4 * qcore.INDEX_RATIO <= rows and candidates * qcore.INDEX_RATIO <= rows:
        assert len(got.amps) == candidates and got.rows is not None
    else:
        assert got.rows is None and got.batch == rows


@pytest.mark.parametrize("rows", [2000, 65536])
@pytest.mark.parametrize("states,referenced", [(4096, 5), (4096, 4096), (40, 40)])
def test_sample_bell_keeps_the_chosen_candidates(rows, states, referenced):
    _check_kept_candidates(_indexed(rows + states, states, referenced, rows), rows)


@pytest.mark.parametrize("rows", [63, 64, 2000])
def test_sample_bell_keeps_the_chosen_candidates_of_one_state(rows):
    state = StateVector((1, 2, 3), random_amps(np.random.default_rng(rows), 3))
    _check_kept_candidates(state, rows)


def test_uniforms_raise_past_the_drawn_columns():
    source = Uniforms(np.full((3, 2), 0.5))
    source.random()
    source.choose([0.5, 0.5])
    with pytest.raises(ValueError, match="all 2 pre-drawn uniform columns"):
        source.random()
    with pytest.raises(ValueError):
        Uniforms(np.zeros((3, 0))).choose([1.0])


def test_batched_ops_match_single_states_trial_by_trial():
    kinds = np.array([0, 1, 2, 3, 3, 1])
    table, codes = np.stack([U0, U1, U2, U3]), np.array([0, 1, 2, 3, 2, 0])

    def prepare(kind, *op):
        # single-state factor composed on both sides, per-trial op, CNOT
        state = compose(make_bell(kind, 1, 2), single_qubit(5))
        state = apply_cnot(apply_single(state, 2, *op), 2, 5)
        return compose(make_bell(BellKind.PSI_PLUS, 3, 4), state)

    batch = prepare(kinds, table, codes)
    assert batch.batch == len(kinds) and batch.qubits == (3, 4, 1, 2, 5)
    outcomes, rest = sample_bell(batch, 2, 4, TrialStreams(11, 0, len(kinds)))
    assert rest.qubits == (3, 1, 5) and rest.batch == len(kinds)
    for t, (k, code) in enumerate(zip(kinds, codes)):
        single = prepare(BELL_KINDS[k], table[code])
        np.testing.assert_allclose(batch.amps[t], single.amps, atol=1e-12)
        branch = oracles.sampled_branch(make_rng(11, t).random(), bell_branches(single, 2, 4))
        assert BELL_KINDS[outcomes[t]] is branch.kind
        np.testing.assert_allclose(rest.amps[t], branch.state.amps, atol=1e-12)


def test_single_state_sampled_by_a_batch_of_streams():
    state = compose(make_bell(BellKind.PSI_PLUS, 1, 2), make_bell(BellKind.PSI_PLUS, 3, 4))
    outcomes, rest = sample_bell(state, 2, 4, TrialStreams(42, 0, 50))
    branches = bell_branches(state, 2, 4)
    expected = [oracles.sampled_branch(make_rng(42, i).random(), branches) for i in range(50)]
    assert [BELL_KINDS[i] for i in outcomes] == [b.kind for b in expected]
    np.testing.assert_allclose(rest.amps, [b.state.amps for b in expected], atol=1e-12)


_ROWS = 4096


def _swapped(seed: int, a: int, b: int, c: int, d: int) -> tuple[np.ndarray, StateVector]:
    """Outcomes and collapsed state of measuring ``(b, c)`` of two psi+
    pairs ``(a, b)`` and ``(c, d)`` in 4096 rows: each row keeps one of
    four Bell pairs on ``(a, d)``."""
    pairs = compose(make_bell(BellKind.PSI_PLUS, a, b), make_bell(BellKind.PSI_PLUS, c, d))
    return sample_bell(pairs, b, c, TrialStreams(seed, 0, _ROWS))


@pytest.mark.parametrize("ratio", [qcore.INDEX_RATIO, 1 << 40])
def test_indexed_state_matches_one_state_per_row(monkeypatch, ratio):
    """Every operation on an indexed batch gives, row by row, bit for bit
    what it gives on the batch with one state per row; at a ratio of
    2**40 every operation takes its one-state-per-row path."""
    outcomes, state = _swapped(1, 1, 2, 3, 4)
    _, other = _swapped(2, 5, 6, 7, 8)
    assert state.rows is not None and other.rows is not None
    assert state.batch == _ROWS and len(state.amps) == 4
    monkeypatch.setattr(qcore, "INDEX_RATIO", ratio)
    flat = state.per_row()
    assert flat.rows is None and flat.batch == _ROWS

    def same(got, want):
        assert want.rows is None and got.qubits == want.qubits
        assert np.array_equal(got.per_row().amps, want.amps)

    # the single state's measurement, gathered at 2**40
    again, remeasured = _swapped(1, 1, 2, 3, 4)
    assert np.array_equal(again, outcomes)
    same(remeasured, flat)
    for partner in (other, other.per_row(), single_qubit(9)):
        same(compose(state, partner), compose(flat, partner.per_row()))
        same(compose(partner, state), compose(partner.per_row(), flat))
    table = np.stack((U0, U1, U2, U3))
    codes = TrialStreams(3, 0, _ROWS).choose([0.25] * 4)
    same(apply_single(state, 4, U3), apply_single(flat, 4, U3))
    same(apply_single(state, 4, table, codes), apply_single(flat, 4, table, codes))
    one = make_bell(BellKind.PSI_PLUS, 1, 2)
    ones = StateVector(one.qubits, np.tile(one.amps, (_ROWS, 1)))
    same(apply_single(one, 2, table, codes), apply_single(ones, 2, table, codes))
    same(apply_cnot(state, 4, 1), apply_cnot(flat, 4, 1))
    joint = compose(state, other)
    for pair, rest in (((4, 5), (1, 8)), ((1, 4), (5, 8))):
        got_kind, got = sample_bell(joint, *pair, TrialStreams(4, 0, _ROWS))
        want_kind, want = sample_bell(joint.per_row(), *pair, TrialStreams(4, 0, _ROWS))
        assert np.array_equal(got_kind, want_kind) and got.qubits == rest
        same(got, want)


def test_batched_state_vector_validation():
    rows = np.array([oracles.BELL_VEC["psi+"], oracles.BELL_VEC["phi-"]], dtype=complex)
    assert StateVector((1, 2), rows).batch == 2
    assert make_bell(BellKind.PSI_PLUS, 1, 2).batch is None
    rows[1] *= 2.0
    with pytest.raises(ValueError):
        StateVector((1, 2), rows)
    with pytest.raises(ValueError):
        bell_branches(make_bell(np.array([0, 1]), 1, 2), 1, 2)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def two_qubit_states(draw):
    parts = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, allow_infinity=False),
            min_size=8,
            max_size=8,
        )
    )
    vec = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return StateVector((1, 2), vec / norm)


@st.composite
def unitaries(draw):
    theta = draw(st.floats(0, math.pi, allow_nan=False))
    phi = draw(st.floats(0, 2 * math.pi, allow_nan=False))
    lam = draw(st.floats(0, 2 * math.pi, allow_nan=False))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


@given(state=two_qubit_states(), op=unitaries(), qubit=st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_apply_single_preserves_norm(state, op, qubit):
    out = apply_single(state, qubit, op)
    assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-9


@given(state=two_qubit_states())
@settings(max_examples=80, deadline=None)
def test_bell_basis_is_complete(state):
    # Parseval over the Bell basis of the pair
    total = sum(
        abs(overlap(make_bell(kind, 1, 2), state)) ** 2 for kind in BELL_KINDS
    )
    assert abs(total - 1.0) < 1e-9
    branch_total = sum(b.prob for b in bell_branches(state, 1, 2))
    assert abs(branch_total - 1.0) < 1e-9


@given(state=two_qubit_states(), trial=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_measurement_idempotence(state, trial):
    (outcome,), _ = sample_bell(state, 1, 2, TrialStreams(9, trial, trial + 1))
    kind = BELL_KINDS[outcome]
    collapsed = make_bell(kind, 1, 2)
    again = bell_branches(collapsed, 1, 2)
    assert len(again) == 1
    assert again[0].kind is kind
    assert abs(again[0].prob - 1.0) < 1e-9


@given(op=unitaries())
@settings(max_examples=50, deadline=None)
def test_cnot_norm_and_involution(op):
    state = apply_single(
        compose(make_bell(BellKind.PSI_PLUS, 1, 2), single_qubit(3)), 1, op
    )
    once = apply_cnot(state, 2, 3)
    assert abs(np.vdot(once.amps, once.amps).real - 1.0) < 1e-9
    assert abs(overlap(state, apply_cnot(once, 2, 3)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# the projection kernel against its first arithmetic
# ---------------------------------------------------------------------------


def random_amps(rng, n, batch=None):
    shape = (2**n,) if batch is None else (batch, 2**n)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pair_projections_are_bit_identical_to_the_oracle(n):
    rng = np.random.default_rng(n)
    qubits = tuple(range(10, 10 + n))
    for batch in (None, 1, 3, 256, 1024):
        state = StateVector(qubits, random_amps(rng, n, batch))
        for ia in range(n):
            for ib in range(n):
                if ia == ib:
                    continue
                a, b = qubits[ia], qubits[ib]
                rest, projected, probs = _pair_projections(state, a, b)
                want_projected, want_probs = oracles.pair_projections(state.amps, ia, ib)
                assert rest == tuple(q for q in qubits if q not in (a, b))
                assert projected.shape == want_projected.shape
                assert np.array_equal(projected, want_projected), (batch, ia, ib)
                assert np.array_equal(probs, want_probs), (batch, ia, ib)


# ---------------------------------------------------------------------------
# row independence: a register factor computes each distinct state once
# (protocol.Register), which is exact only if no kernel's result for a
# state depends on where in a batch, or in how large a batch, it sits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 3, 256, 4096])
def test_kernels_are_row_independent(size):
    rng = np.random.default_rng(size)
    qubits = (1, 2, 3, 4, 5)
    batch = StateVector(qubits, random_amps(rng, 5, size))
    partners = StateVector((6, 7), random_amps(rng, 2, size))
    ops = np.stack([U0, U1, U2, U3])
    codes = rng.integers(0, 4, size)
    pairs, targets = ((1, 3), (5, 2), (4, 5)), (1, 3, 5)
    projections = {pair: _pair_projections(batch, *pair)[1:] for pair in pairs}
    coded = {(q, i): apply_single(batch, q, op).amps for q in targets for i, op in enumerate(ops)}
    per_row = {q: apply_single(batch, q, ops, codes).amps for q in targets}
    composed = compose(batch, partners).amps
    for pos in sorted({0, size // 2, size - 1}):
        one = StateVector(qubits, batch.amps[pos])
        partner = StateVector((6, 7), partners.amps[pos])
        for pair, (projected, probs) in projections.items():
            _, want_projected, want_probs = _pair_projections(one, *pair)
            assert np.array_equal(projected[pos], want_projected), (pos, pair)
            assert np.array_equal(probs[pos], want_probs), (pos, pair)
        for (q, i), amps in coded.items():
            assert np.array_equal(amps[pos], apply_single(one, q, ops[i]).amps), (pos, q, i)
        for q, amps in per_row.items():
            # one op per row, and one state under a table of ops
            want = apply_single(one, q, ops[codes[pos]]).amps
            assert np.array_equal(amps[pos], want), (pos, q)
            under_codes = apply_single(one, q, ops, codes).per_row().amps
            assert np.array_equal(under_codes[pos], want), (pos, q)
        want = compose(one, partner).amps
        assert np.array_equal(composed[pos], want), pos
        assert np.array_equal(compose(one, partners).amps[pos], want), pos
        assert np.array_equal(compose(batch, partner).amps[pos], want), pos
