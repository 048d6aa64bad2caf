import hashlib
import itertools
import json
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import power_divergence

import oracles
from qsdc_swap import adversary, analysis, qcore
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import (
    EnumerationBudgetError,
    SharedDraws,
    detection_from_swap_algebra,
    detection_report,
    enumerate_session_leaves,
    exact_detection,
    exact_leakage,
    group_leaves,
    honest_fidelity,
    monte_carlo,
    run_identities,
    session_detection,
    sweep_csv,
    sweep_report,
)
from qsdc_swap.bellmap import ENCODING_OPS, EncodingOp
from qsdc_swap.protocol import (
    DetectionPredicate,
    EncodeTarget,
    SessionConfig,
    Verdict,
    check_passes,
    prepare_registers,
    run_checking,
    run_session,
    single_op_policy,
)
from qsdc_swap.qcore import BELL_KINDS, TrialStreams, make_rng, philox_block

STRATEGIES = list(AttackStrategy)
PREDICATES = list(DetectionPredicate)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("predicate", PREDICATES)
def test_detection_matches_label_oracle(strategy, predicate):
    expected = oracles.oracle_detection(strategy.value, predicate.value)
    assert exact_detection(strategy, predicate) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("predicate", PREDICATES)
def test_two_routes_agree(strategy, predicate):
    tree = exact_detection(strategy, predicate)
    algebra = detection_from_swap_algebra(strategy, predicate)
    assert abs(tree - algebra) < 1e-9


POLICIES = [None] + [single_op_policy(op) for op in ENCODING_OPS]


def _same_float(got, want) -> bool:
    return got == want and type(got) is type(want)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("predicate", PREDICATES)
@pytest.mark.parametrize("target", list(EncodeTarget))
def test_algebra_route_equals_its_enum_reference(strategy, predicate, target):
    """The int-coded route gives the enum-pair route's floats exactly."""
    for policy in POLICIES:
        got = detection_from_swap_algebra(strategy, predicate, policy, target)
        want = oracles.swap_algebra_detection(strategy, predicate, policy, target)
        assert _same_float(got, want), (policy, got, want)


@given(
    weights=st.lists(
        st.sampled_from((0.0, 1e-13, 0.1, 0.25, 1.0)) | st.floats(0.0, 1.0), min_size=4, max_size=4
    ).filter(lambda w: sum(w) > 0),
    target=st.sampled_from(list(EncodeTarget)),
)
@settings(max_examples=40, deadline=None)
def test_algebra_route_equals_its_enum_reference_on_any_policy(weights, target):
    total = sum(weights)
    policy = {op: w / total for op, w in zip(ENCODING_OPS, weights)}
    for strategy in STRATEGIES:
        for predicate in PREDICATES:
            got = detection_from_swap_algebra(strategy, predicate, policy, target)
            want = oracles.swap_algebra_detection(strategy, predicate, policy, target)
            assert _same_float(got, want), (strategy, predicate, got, want)


def test_headline_detection_values():
    announced = DetectionPredicate.ANNOUNCED_OP
    assert exact_detection(AttackStrategy.NONE, announced) == pytest.approx(0.0, abs=1e-12)
    assert exact_detection(
        AttackStrategy.REPLACE_MEASURE_AFTER, announced
    ) == pytest.approx(0.75, abs=1e-12)
    assert exact_detection(
        AttackStrategy.REPLACE_MEASURE_BEFORE, announced
    ) == pytest.approx(0.75, abs=1e-12)
    assert exact_detection(
        AttackStrategy.ANCILLA_PASSIVE, announced
    ) == pytest.approx(0.5, abs=1e-12)
    assert exact_detection(
        AttackStrategy.ANCILLA_CORRECTIVE, announced
    ) == pytest.approx(0.0, abs=1e-12)
    # the resend attack reproduces the announced-op correlation exactly,
    # so only the strict predicate sees it
    assert exact_detection(
        AttackStrategy.INTERCEPT_MEASURE_RESEND, announced
    ) == pytest.approx(0.0, abs=1e-12)
    assert exact_detection(
        AttackStrategy.INTERCEPT_MEASURE_RESEND, DetectionPredicate.STRICT_U0
    ) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("target", list(EncodeTarget))
def test_detection_independent_of_encode_target(target):
    for strategy in STRATEGIES:
        a = exact_detection(strategy, encode_target=target)
        b = detection_from_swap_algebra(strategy, encode_target=target)
        assert abs(a - b) < 1e-9
        assert abs(a - exact_detection(strategy)) < 1e-9


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_leakage_matches_oracle(strategy):
    expected = oracles.oracle_leakage(strategy.value)
    assert exact_leakage(strategy) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fidelity_matches_oracle(strategy):
    expected = oracles.oracle_fidelity(strategy.value)
    assert honest_fidelity(strategy) == pytest.approx(expected, abs=1e-9)


def test_session_detection_curve():
    p = 0.75
    assert session_detection(p, 1) == pytest.approx(p)
    assert abs(session_detection(p, 20) - (1.0 - 0.25**20)) < 1e-12
    curve = [session_detection(0.3, m) for m in range(1, 30)]
    assert all(b >= a for a, b in zip(curve, curve[1:]))


def test_policy_sensitivity_identity_only():
    from qsdc_swap.bellmap import EncodingOp
    from qsdc_swap.protocol import single_op_policy

    policy = single_op_policy(EncodingOp.U0)
    # with an identity-only policy the strict predicate stops flagging
    # honest traffic but the resend attack becomes invisible to both
    assert exact_detection(
        AttackStrategy.NONE, DetectionPredicate.STRICT_U0, policy
    ) == pytest.approx(0.0, abs=1e-12)
    assert exact_detection(
        AttackStrategy.INTERCEPT_MEASURE_RESEND, DetectionPredicate.STRICT_U0, policy
    ) == pytest.approx(0.0, abs=1e-12)
    assert detection_from_swap_algebra(
        AttackStrategy.INTERCEPT_MEASURE_RESEND, DetectionPredicate.STRICT_U0, policy
    ) == pytest.approx(0.0, abs=1e-12)


def test_honest_session_leaves_uniform_outcomes():
    leaves = enumerate_session_leaves(1, [1], policy=single_op_policy(ENCODING_OPS[2]))
    assert abs(sum(l.prob for l in leaves) - 1.0) < 1e-9
    outcome_probs = {}
    for leaf in leaves:
        _, _, alice, _, passed = leaf.checking[0]
        assert passed
        outcome_probs[alice] = outcome_probs.get(alice, 0.0) + leaf.prob
    assert set(outcome_probs) == set(BELL_KINDS)
    for p in outcome_probs.values():
        assert abs(p - 0.25) < 1e-9


def test_single_encoding_group_matches_column():
    from qsdc_swap.bellmap import correlation_table, EncodingOp

    leaves = enumerate_session_leaves(1, [], message_bits="01")
    assert abs(sum(l.prob for l in leaves) - 1.0) < 1e-9
    column = correlation_table()[EncodingOp.U1]
    for leaf in leaves:
        assert abs(leaf.prob - 0.25) < 1e-9
        _, alice, bob = leaf.encoding[0]
        assert (bob, alice) in column
        assert leaf.decoded_bits == "01"


def test_mixed_session_leaves_decode():
    leaves = enumerate_session_leaves(
        2, [1], policy=single_op_policy(ENCODING_OPS[1]), message_bits="10"
    )
    assert abs(sum(l.prob for l in leaves) - 1.0) < 1e-9
    for leaf in leaves:
        assert leaf.verdict is Verdict.CLEAN
        assert leaf.decoded_bits == "10"


def test_replace_attack_joint_outcomes_uniform():
    # with the travel photons substituted, receiver and sender outcomes
    # are independent and uniform over all 16 pairs
    leaves = enumerate_session_leaves(
        1,
        [1],
        AttackStrategy.REPLACE_MEASURE_AFTER,
        policy=single_op_policy(ENCODING_OPS[0]),
    )
    joint = {}
    for leaf in leaves:
        _, _, alice, bob, _ = leaf.checking[0]
        joint[(bob, alice)] = joint.get((bob, alice), 0.0) + leaf.prob
    assert len(joint) == 16
    for p in joint.values():
        assert abs(p - 1.0 / 16.0) < 1e-9


# SHA-256 of repr(enumerate_session_leaves(...)) over every cell of
# LEAF_GRID_CELLS, strategies outermost, frozen from the implementation that
# built one SessionLeaf dataclass and fresh record tuples per history.
LEAF_GRID_DIGEST = "c30ba8fa853e2598e437ee23826a18cf21e4c5b6afdb105bd8cd08399596a0f1"
LEAF_GRID_CELLS = [
    (checking, predicate, EncodeTarget.SECOND_TRAVEL_PHOTON)
    for checking in [(), (1,), (2,), (1, 2)]
    for predicate in PREDICATES
] + [((1,), predicate, EncodeTarget.FIRST_TRAVEL_PHOTON) for predicate in PREDICATES]


def test_session_leaf_grid_digest_is_frozen():
    # Pins weights, verdicts, decoded bits, records and leaf order of every
    # two-group checking set, bit for bit, and checks in every cell that
    # equal checking histories are one shared tuple, and so are equal leaves.
    digest = hashlib.sha256()
    shared, objects = {}, {}
    for strategy in STRATEGIES:
        for checking, predicate, target in LEAF_GRID_CELLS:
            leaves = enumerate_session_leaves(
                2,
                checking,
                strategy,
                message_bits="0110"[: 2 * (2 - len(checking))],
                predicate=predicate,
                encode_target=target,
            )
            digest.update(repr(leaves).encode())
            histories = {id(leaf.checking): leaf.checking for leaf in leaves}
            assert len(set(histories.values())) == len(histories)
            shared[strategy, checking, predicate, target] = len(histories)
            distinct = len({id(leaf) for leaf in leaves})
            assert distinct == len(set(leaves))
            objects[strategy, checking, predicate, target] = distinct
    assert digest.hexdigest() == LEAF_GRID_DIGEST
    cell = (DetectionPredicate.ANNOUNCED_OP, EncodeTarget.SECOND_TRAVEL_PHOTON)
    assert shared[AttackStrategy.REPLACE_MEASURE_BEFORE, (1, 2), *cell] == 4096
    assert objects[AttackStrategy.REPLACE_MEASURE_BEFORE, (1, 2), *cell] == 4096
    assert objects[AttackStrategy.ANCILLA_CORRECTIVE, (), *cell] == 16


def test_rows_match_per_row_tuples_past_an_int64_joint_code():
    # Ten groups that each hold all 128 possible records, one per base row:
    # one joint code over them would need 128**10 = 2**70, past int64, and
    # rows differing in only the first or the last group collide when such
    # a code wraps.
    rng = np.random.default_rng(5)
    radix, groups = (4, 4, 4, 2), np.arange(3, 13)
    base = np.array([rng.permutation(128) for _ in groups])
    first, last = base[:, :10].copy(), base[:, :10].copy()
    first[0] = (first[0] + 64) % 128
    last[-1] = (last[-1] + 64) % 128
    codes = np.hstack([base, first, last])
    codes = np.hstack([codes, codes[:, rng.integers(0, 148, size=20)]])
    values = (ENCODING_OPS, BELL_KINDS, BELL_KINDS, (False, True))
    columns = np.unravel_index(codes, radix)
    code, histories = analysis._rows(168, groups, *zip(columns, values))
    rows = list(map(histories.__getitem__, code.tolist()))
    want = [
        tuple(
            (int(g), *(v[c[k, i]] for v, c in zip(values, columns)))
            for k, g in enumerate(groups)
        )
        for i in range(168)
    ]
    assert rows == want
    assert len(set(rows)) == 148
    assert len({id(row) for row in rows}) == 148
    records = [record for row in rows for record in row]
    assert len({id(record) for record in records}) == len(set(records))


def test_leaves_match_per_row_tuples_past_an_int64_joint_code():
    # Leaves folded from 2**22 weights, checking histories and encoding
    # histories, the decoded bits indexed like the encodings: one joint
    # code would need 2**66 or more, past int64, and rows whose weight
    # codes differ by 2**20 collide when such a code wraps.
    rng = np.random.default_rng(6)
    size = 2**22
    base = rng.integers(0, size, size=(3, 10))
    first, last = base.copy(), base.copy()
    first[0] = (first[0] + 2**20) % size
    last[-1] = (last[-1] + 2**20) % size
    codes = np.hstack([base, first, last])
    prob, checking, encoding = np.hstack([codes, codes[:, rng.integers(0, 30, size=20)]])
    probs, histories, encodings, bits = (
        range(k * size, (k + 1) * size) for k in range(4)
    )
    code, made = analysis._fold(
        50, (prob, probs), (None, (Verdict.CLEAN,)), (encoding, bits),
        (checking, histories), (encoding, encodings), make=analysis._leaf,
    )
    leaves = list(map(made.__getitem__, code.tolist()))
    want = [
        analysis.SessionLeaf(probs[p], Verdict.CLEAN, bits[e], histories[c], encodings[e])
        for p, c, e in zip(prob.tolist(), checking.tolist(), encoding.tolist())
    ]
    assert leaves == want
    assert all(type(leaf) is analysis.SessionLeaf for leaf in leaves)
    assert len(made) == len(set(leaves)) == 30
    assert len({id(leaf) for leaf in leaves}) == 30


@given(data=st.data(), n=st.integers(0, 300), side=st.sampled_from(["marked", "at the rule", "sorted"]))
@settings(max_examples=150, deadline=None)
def test_rank_equals_unique(data, n, side):
    # Spans of at most RANK_SPAN codes per code are ranked by marking,
    # wider ones by np.unique; both give np.unique's arrays and dtypes.
    rule = analysis.RANK_SPAN * n
    span = {
        "marked": lambda: data.draw(st.integers(min(n, 1), rule)),
        "at the rule": lambda: rule,
        "sorted": lambda: data.draw(st.integers(rule + 1, rule + 2**40)),
    }[side]()
    codes = np.array(
        data.draw(st.lists(st.integers(0, max(span - 1, 0)), min_size=n, max_size=n)), dtype=np.intp
    )
    got, want = analysis._rank(codes, span), np.unique(codes, return_inverse=True)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype and a.shape == b.shape


@pytest.mark.parametrize("span", [0, 1, 5])
def test_rank_of_no_codes_equals_unique(span):
    codes = np.zeros(0, dtype=np.intp)
    for a, b in zip(analysis._rank(codes, span), np.unique(codes, return_inverse=True)):
        assert a.tolist() == b.tolist() == [] and a.dtype == b.dtype


def _four_choices(rng, write: bool):
    """A branching choice, a forced one per distinct state (indexed by the
    first outcome), a forced one alike in every row and another branching
    one; with ``write``, tries to write into each outcome handed out."""

    def handed(outcome):
        if write:
            with pytest.raises(ValueError, match="read-only"):
                outcome[:] = 1
        return outcome

    first = handed(rng.choose(np.array([0.25, 0.75])))
    other = handed(rng.choose(np.array([[0.0, 1.0], [1.0, 0.0]]), first))
    one = handed(rng.choose(np.array([0.0, 1.0])))
    last = handed(rng.choose(np.array([0.5, 0.5])))
    return first * 8 + other * 4 + one * 2 + last


def test_outcomes_handed_to_a_round_are_read_only():
    columns, weights, result = analysis._replay(partial(_four_choices, write=True))
    want = analysis._replay(partial(_four_choices, write=False))
    assert np.column_stack(columns).tolist() == np.column_stack(want[0]).tolist() == [
        [0, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 0], [1, 0, 1, 1]
    ]
    assert weights.tolist() == want[1].tolist() == [0.125, 0.125, 0.375, 0.375]
    assert result.tolist() == want[2].tolist() == [6, 7, 10, 11]
    assert all(not column.flags.writeable and column.flags.c_contiguous for column in columns)
    assert all(column.dtype == np.intp and column.shape == (4,) for column in columns)


# Every strategy x predicate x target cell at two groups, and the cheap
# strategies at three; all groups check.
IID_CELLS = [
    (2, strategy, predicate, target)
    for strategy in STRATEGIES
    for predicate in PREDICATES
    for target in EncodeTarget
] + [
    (3, strategy, predicate, target)
    for strategy in (AttackStrategy.NONE, AttackStrategy.INTERCEPT_MEASURE_RESEND)
    for predicate in PREDICATES
    for target in EncodeTarget
]


@pytest.mark.parametrize("n,strategy,predicate,target", IID_CELLS)
def test_two_group_detection_composes_iid(n, strategy, predicate, target):
    # Measures the claim in exact_detection's docstring: detection is
    # independent across groups, so m groups fail with session_detection(p, m).
    p1 = exact_detection(strategy, predicate, encode_target=target)
    leaves = enumerate_session_leaves(
        n, range(1, n + 1), strategy, predicate=predicate, encode_target=target
    )
    assert abs(sum(l.prob for l in leaves) - 1.0) < 1e-12
    joint = sum(l.prob for l in leaves if l.verdict is Verdict.EVE_DETECTED)
    assert abs(joint - session_detection(p1, n)) < 1e-12


@pytest.mark.parametrize(
    "n_groups,checking,named",
    [
        (2, [1.0], "checking index 1.0:"),
        (2, [True], "checking index True:"),
        (2, [1, 1], "checking index 1:"),
        (2.0, [1], "n_groups must be an integer, got 2.0"),
    ],
)
def test_session_leaves_reject_bad_indices(n_groups, checking, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        enumerate_session_leaves(n_groups, checking)


def test_replay_takes_forced_choices_in_pass(monkeypatch):
    # A choice with one possible outcome in every row costs no pass:
    # Bob's outcome after an honest check, for one.
    passes = []
    session_round = analysis._session_round

    def counted(*args):
        passes.append(1)
        return session_round(*args)

    monkeypatch.setattr(analysis, "_session_round", counted)
    enumerate_session_leaves(3, [1, 2, 3])
    assert len(passes) == 7
    counts = []
    for strategy in STRATEGIES:
        passes.clear()
        group_leaves(strategy)
        counts.append(len(passes))
    assert counts == [3, 3, 4, 5, 4, 4]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_only_the_last_pass_completes_the_round(monkeypatch, strategy):
    # A pass ends at its first branching choice, so Eve's deferred
    # measurements run once per enumeration, in the pass that branches no more.
    calls = []
    finalize_attack = adversary.finalize_attack

    def counted(*args):
        calls.append(1)
        return finalize_attack(*args)

    monkeypatch.setattr(adversary, "finalize_attack", counted)
    group_leaves(strategy)
    assert len(calls) == 1


def test_replay_stop_signal_hides_no_round_error():
    def round_fn(rng):
        rng.choose(np.array([0.5, 0.5]))
        raise ValueError("raised after the branch")

    with pytest.raises(ValueError, match="raised after the branch"):
        analysis._replay(round_fn)
    # Round code catches these; the signal must pass through all of them.
    for caught in (ValueError, KeyError, TypeError, qcore.QubitError):
        assert not issubclass(analysis._Branching, caught)


def test_replay_stop_signal_stays_inside_replay():
    def round_fn(rng):
        first = rng.choose(np.array([0.25, 0.75]))
        second = rng.choose(np.array([0.5, 0.5]))
        return first * 2 + second

    columns, weights, result = analysis._replay(round_fn)
    assert np.column_stack(columns).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert weights.tolist() == [0.125, 0.125, 0.375, 0.375]
    assert result.tolist() == [0, 1, 2, 3]


def _script_weights(rows):
    """Weights at ``rows`` rows, by name: one row or one per row, forced
    (one outcome at or above MIN_BRANCH_PROB in every row) or branching."""
    rng = np.random.default_rng(rows)
    one_hot = np.zeros((rows, 4))
    one_hot[np.arange(rows), rng.integers(0, 4, rows)] = 1.0 - 1e-13
    # Sub-threshold weights beside each row's live outcome.
    forced = np.where(one_hot > 0, one_hot, 1e-13 * rng.integers(0, 2, (rows, 4)))
    weights = {
        "1-D forced": np.array([0.0, 1e-13, 1.0 - 1e-13, 0.0]),
        "1-D forced at the threshold": np.array([0.0, qcore.MIN_BRANCH_PROB, 0.0, 0.0]),
        "1-D branching": np.array([0.25, 0.0, 0.75, 1e-13]),
        "1-D none live": np.array([1e-13, 0.0, 0.0, 0.0]),
        "2-D forced": forced,
        "2-D branching": rng.dirichlet(np.ones(4), rows),
    }
    last_two = forced.copy()
    last_two[-1] = [0.5, 0.0, 0.5, 0.0]  # the last row branches
    none_live = forced.copy()
    none_live[-1] = [1e-13, 0.0, 0.0, 0.0]  # the last row has no live outcome
    weights["2-D, last row branching"] = last_two
    weights["2-D, last row none live"] = none_live
    if rows > 1:
        # Two live outcomes in one row and none in the next, or the other
        # way round: as many live outcomes as rows.
        two, none = [0.5, 0.5, 0.0, 0.0], [0.0, 1e-13, 0.0, 0.0]
        for label, pair in (("two live, then none", (two, none)), ("none, then two live", (none, two))):
            weights[f"2-D, {label}"] = forced.copy()
            weights[f"2-D, {label}"][:2] = pair
    return weights


@pytest.mark.parametrize("rows", [1, 16, 65536])
def test_script_choice_matches_reference(rows):
    for name, probs in _script_weights(rows).items():
        script = analysis._Script([], rows)
        want = oracles.script_choice(rows, probs)
        try:
            outcome = script.choose(probs)
        except analysis._Branching:
            assert want[0] == "open", name
            assert not script.forced, name
            np.testing.assert_array_equal(script.open, want[1], err_msg=name)
            assert script.open.shape == want[1].shape, name
            continue
        assert want[0] == "forced", name
        assert script.open is None, name
        [(forced_outcome, forced_prob)] = script.forced
        assert forced_outcome is outcome, name
        for got, expected in ((outcome, want[1]), (forced_prob, want[2])):
            np.testing.assert_array_equal(got, expected, err_msg=name)
            assert got.dtype == expected.dtype, name


def _distinct_script_weights(rows):
    """Weights of distinct states by name, with a row index into them of
    ``rows`` rows: forced, branching, and forced in every referenced state
    beside an unreferenced one with two live outcomes or none."""
    rng = np.random.default_rng(rows + 1)
    states = 6
    one_hot = np.zeros((states, 4))
    one_hot[np.arange(states), rng.integers(0, 4, states)] = 1.0 - 1e-13
    forced = np.where(one_hot > 0, one_hot, 1e-13 * rng.integers(0, 2, (states, 4)))
    index = rng.integers(0, states - 1, rows)  # never names the last state
    index[0] = states - 2
    unreferenced_two = forced.copy()
    unreferenced_two[-1] = [0.5, 0.0, 0.5, 0.0]
    unreferenced_none = forced.copy()
    unreferenced_none[-1] = [1e-13, 0.0, 0.0, 0.0]
    referenced_two = forced.copy()
    referenced_two[states - 2] = [0.25, 0.75, 0.0, 0.0]
    at_threshold = forced.copy()
    at_threshold[0] = [0.0, 0.0, 0.0, qcore.MIN_BRANCH_PROB]
    return {
        "forced": (forced, index),
        "forced at the threshold": (at_threshold, index),
        "branching": (rng.dirichlet(np.ones(4), states), index),
        "a referenced state branching": (referenced_two, index),
        "an unreferenced state with two live outcomes": (unreferenced_two, index),
        "an unreferenced state with none live": (unreferenced_none, index),
    }


def _script_result(rows, *args):
    """What a fresh script's first choice past no prefix columns does: its
    outcome or None if it branches, its ``forced`` and its ``open``."""
    script = analysis._Script([], rows)
    try:
        outcome = script.choose(*args)
    except analysis._Branching:
        outcome = None
    return outcome, script.forced, script.open


@pytest.mark.parametrize("rows", [1, 16, 65536])
def test_script_choice_on_distinct_states_matches_gathered_weights(rows):
    """``_Script.choose(probs, rows)`` does what ``choose(probs[rows])``
    does: the same outcome, ``forced`` columns and ``open``, with the same
    dtypes."""
    for name, (probs, index) in _distinct_script_weights(rows).items():
        got = _script_result(rows, probs, index)
        want = _script_result(rows, probs[index])
        assert (got[0] is None) == (want[0] is None), name
        pairs = [(got[0], want[0]), (got[2], want[2])]
        assert len(got[1]) == len(want[1]), name
        pairs += [pair for forced in zip(got[1], want[1]) for pair in zip(*forced)]
        for a, b in pairs:
            if b is None:
                assert a is None, name
                continue
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert a.dtype == b.dtype and a.shape == b.shape, name


def _session_cell(verdict: Verdict, decoded: str, bits: str) -> int:
    """0: detected, 1: clean and decoded right, 2: clean and decoded wrong."""
    if verdict is not Verdict.CLEAN:
        return 0
    return 1 if decoded == bits else 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sampled_sessions_match_enumerated_leaves(strategy):
    # Seeded two-group sessions with one checking group, under each
    # predicate and split by which group the partition drew, against the
    # session enumerator checking that group: no session in a cell the
    # enumerator rules out, and a G-test over the three outcome cells.
    bits, sessions = "10", 400
    for predicate in PREDICATES:
        observed = {1: np.zeros(3), 2: np.zeros(3)}
        for seed in range(sessions):
            cfg = SessionConfig(2, 1, bits, predicate=predicate, seed=seed)
            transcript = run_session(cfg, strategy)
            (checked,) = transcript.checking.group.tolist()
            cell = _session_cell(transcript.verdict, transcript.decoded_bits, bits)
            observed[checked][cell] += 1
        for checked in (1, 2):
            exact = np.zeros(3)
            for leaf in enumerate_session_leaves(
                2, [checked], strategy, message_bits=bits, predicate=predicate
            ):
                exact[_session_cell(leaf.verdict, leaf.decoded_bits, bits)] += leaf.prob
            assert abs(exact.sum() - 1.0) < 1e-9
            counts = observed[checked]
            assert counts.sum() > sessions / 4
            possible = exact > 1e-12
            assert not counts[~possible].any(), (predicate, checked, counts, exact)
            if possible.sum() > 1:
                test = power_divergence(
                    counts[possible], exact[possible] * counts.sum(), lambda_="log-likelihood"
                )
                assert test.pvalue > 1e-3, (predicate, checked, counts, exact)


@pytest.mark.parametrize("predicate", PREDICATES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_failed_checks_at_33_groups_are_binomial(strategy, predicate):
    # Seeded 33-group sessions with 4 checking groups: if the sampler keeps
    # the groups independent, the number of failed checks per session is
    # Binomial(4, p) with p the exact single-group detection.
    n_checking, sessions = 4, 300
    bits = ("0110" * 15)[: 2 * (33 - n_checking)]
    counts = np.zeros(n_checking + 1)
    for seed in range(sessions):
        cfg = SessionConfig(33, n_checking, bits, predicate=predicate, seed=seed)
        counts[np.count_nonzero(~run_session(cfg, strategy).checking.passed)] += 1
    p = exact_detection(strategy, predicate)
    binomial = np.array(
        [math.comb(n_checking, k) * p**k * (1 - p) ** (n_checking - k)
         for k in range(n_checking + 1)]
    )
    possible = binomial > 1e-12
    assert not counts[~possible].any(), (counts, p)
    if possible.sum() > 1:
        test = power_divergence(
            counts[possible], binomial[possible] * sessions, lambda_="log-likelihood"
        )
        assert test.pvalue > 1e-3, (counts, p)


@pytest.mark.parametrize("budget", ["5", "1"])
def test_node_budget_enforced(budget, monkeypatch):
    # 1 is the smallest budget: an enumeration outgrows it, and it is not
    # rejected as a bad budget
    monkeypatch.setenv(analysis.NODE_BUDGET_ENV, budget)
    with pytest.raises(EnumerationBudgetError):
        enumerate_session_leaves(2, [1, 2], AttackStrategy.REPLACE_MEASURE_BEFORE)
    monkeypatch.delenv(analysis.NODE_BUDGET_ENV)
    exact_detection(AttackStrategy.NONE)  # default budget restored


def test_node_budget_counts_rows_replayed(monkeypatch):
    # A pass that stops at its first branching choice still counts every
    # row it replays: this enumeration replays 87381 rows over all passes.
    monkeypatch.setenv(analysis.NODE_BUDGET_ENV, "87381")
    leaves = enumerate_session_leaves(2, [1, 2], AttackStrategy.REPLACE_MEASURE_BEFORE)
    assert len(leaves) == 65536
    monkeypatch.setenv(analysis.NODE_BUDGET_ENV, "87380")
    with pytest.raises(EnumerationBudgetError):
        enumerate_session_leaves(2, [1, 2], AttackStrategy.REPLACE_MEASURE_BEFORE)


def test_bad_node_budget_names_the_variable(monkeypatch):
    monkeypatch.setenv(analysis.NODE_BUDGET_ENV, "abc")
    with pytest.raises(ValueError, match=analysis.NODE_BUDGET_ENV):
        exact_detection(AttackStrategy.NONE)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_monte_carlo_brackets_exact_at_3_sigma(strategy):
    trials = 10_000
    mc = monte_carlo(strategy, trials, seed=2024)
    for predicate in PREDICATES:
        p = exact_detection(strategy, predicate)
        sigma = max((p * (1 - p) / trials) ** 0.5, 1e-12)
        assert abs(mc.p_hat(predicate) - p) <= max(3 * sigma, 1e-9)


def test_monte_carlo_deterministic():
    a = monte_carlo(AttackStrategy.ANCILLA_PASSIVE, 2000, seed=5)
    b = monte_carlo(AttackStrategy.ANCILLA_PASSIVE, 2000, seed=5)
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_monte_carlo_rejects_seeds_outside_the_key_range(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        monte_carlo(AttackStrategy.NONE, 10, seed=seed)


def test_monte_carlo_honest_never_fails():
    mc = monte_carlo(AttackStrategy.NONE, 10_000, seed=1)
    assert mc.failures[DetectionPredicate.ANNOUNCED_OP] == 0


def test_identities_all_pass():
    checks = run_identities()
    assert len(checks) == 10
    for check in checks:
        assert check.passed, f"{check.name}: max error {check.max_error}"
        assert check.max_error < 1e-9


def test_detection_report_schema():
    doc = detection_report(
        AttackStrategy.REPLACE_MEASURE_AFTER,
        DetectionPredicate.ANNOUNCED_OP,
        trials=2000,
        seed=99,
    )
    for key in ("strategy", "predicate", "p_exact", "p_mc", "ci", "paper_claim"):
        assert key in doc
    assert doc["p_exact"] == pytest.approx(0.75)
    assert doc["paper_claim"] == 0.75
    assert doc["abs_delta"] == pytest.approx(0.0)
    assert abs(doc["p_mc"] - 0.75) < 3 * (0.75 * 0.25 / 2000) ** 0.5
    assert doc["session_detection"]["20"] == pytest.approx(1 - 0.25**20)
    assert json.dumps(doc)  # serializable


def test_detection_report_requires_seed_for_sampling():
    with pytest.raises(ValueError):
        detection_report(AttackStrategy.NONE, trials=10, seed=None)
    with pytest.raises(ValueError, match="sampling requires a seed"):
        sweep_report(trials=10, seed=None)


def test_one_trial_is_sampled():
    doc = detection_report(AttackStrategy.NONE, trials=1, seed=4)
    assert doc["trials"] == 1 and doc["p_mc"] is not None
    for row in sweep_report(trials=1, seed=4)["rows"]:
        assert row["trials"] == 1 and row["p_mc"] is not None


def test_sweep_report_and_csv():
    report = sweep_report(trials=0, seed=0)
    assert len(report["rows"]) == len(STRATEGIES) * len(PREDICATES)
    for row in report["rows"]:
        assert abs(row["p_exact"] - row["p_algebra"]) < 1e-9
        assert row["p_mc"] is None
    text = sweep_csv(report)
    lines = text.strip().split("\n")
    assert len(lines) == 1 + len(report["rows"])
    assert lines[0].startswith("strategy,predicate,")
    resend_rows = [l for l in lines if l.startswith("measure-resend,announced-op")]
    assert resend_rows and ",0," in resend_rows[0]


# ---------------------------------------------------------------------------
# batched Monte Carlo reproduces the per-trial sampler
# ---------------------------------------------------------------------------

# (announced-op, strict-u0) failures of monte_carlo(strategy, 3000, seed,
# policy, target), frozen from the implementation that looped over trials
# with one make_rng(seed, t) each.  Partial chunks are covered by
# test_monte_carlo_counts_do_not_depend_on_chunk_size, run at MC_CHUNK = 7.
FROZEN_MC_FAILURES = {
    ("none", 7, "uniform-second"): (0, 2258),
    ("none", 7, "uniform-first"): (0, 2258),
    ("none", 7, "u2-second"): (0, 3000),
    ("none", 501, "uniform-second"): (0, 2249),
    ("none", 501, "uniform-first"): (0, 2249),
    ("none", 501, "u2-second"): (0, 3000),
    ("measure-resend", 7, "uniform-second"): (0, 2235),
    ("measure-resend", 7, "uniform-first"): (0, 2235),
    ("measure-resend", 7, "u2-second"): (0, 3000),
    ("measure-resend", 501, "uniform-second"): (0, 2271),
    ("measure-resend", 501, "uniform-first"): (0, 2271),
    ("measure-resend", 501, "u2-second"): (0, 3000),
    ("replace-after", 7, "uniform-second"): (2259, 2260),
    ("replace-after", 7, "uniform-first"): (2259, 2260),
    ("replace-after", 7, "u2-second"): (2229, 2260),
    ("replace-after", 501, "uniform-second"): (2275, 2300),
    ("replace-after", 501, "uniform-first"): (2275, 2300),
    ("replace-after", 501, "u2-second"): (2213, 2300),
    ("replace-before", 7, "uniform-second"): (2253, 2259),
    ("replace-before", 7, "uniform-first"): (2253, 2259),
    ("replace-before", 7, "u2-second"): (2253, 2282),
    ("replace-before", 501, "uniform-second"): (2252, 2275),
    ("replace-before", 501, "uniform-first"): (2252, 2275),
    ("replace-before", 501, "u2-second"): (2252, 2238),
    ("ancilla-passive", 7, "uniform-second"): (1484, 2246),
    ("ancilla-passive", 7, "uniform-first"): (1484, 2246),
    ("ancilla-passive", 7, "u2-second"): (1530, 3000),
    ("ancilla-passive", 501, "uniform-second"): (1492, 2247),
    ("ancilla-passive", 501, "uniform-first"): (1492, 2247),
    ("ancilla-passive", 501, "u2-second"): (1506, 3000),
    ("ancilla-corrective", 7, "uniform-second"): (0, 2235),
    ("ancilla-corrective", 7, "uniform-first"): (0, 2235),
    ("ancilla-corrective", 7, "u2-second"): (0, 3000),
    ("ancilla-corrective", 501, "uniform-second"): (0, 2271),
    ("ancilla-corrective", 501, "uniform-first"): (0, 2271),
    ("ancilla-corrective", 501, "u2-second"): (0, 3000),
}

MC_SETTINGS = {
    "uniform-second": (None, EncodeTarget.SECOND_TRAVEL_PHOTON),
    "uniform-first": (None, EncodeTarget.FIRST_TRAVEL_PHOTON),
    "u2-second": (single_op_policy(EncodingOp.U2), EncodeTarget.SECOND_TRAVEL_PHOTON),
}


@pytest.mark.parametrize("key", sorted(FROZEN_MC_FAILURES))
def test_monte_carlo_reproduces_frozen_failure_counts(key):
    strategy, seed, setting = key
    policy, target = MC_SETTINGS[setting]
    mc = monte_carlo(AttackStrategy(strategy), 3000, seed, policy, target)
    got = (
        mc.failures[DetectionPredicate.ANNOUNCED_OP],
        mc.failures[DetectionPredicate.STRICT_U0],
    )
    assert got == FROZEN_MC_FAILURES[key]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_monte_carlo_counts_do_not_depend_on_chunk_size(strategy, monkeypatch):
    reference = monte_carlo(strategy, 100, seed=3)
    monkeypatch.setattr(analysis, "MC_CHUNK", 7)
    assert monte_carlo(strategy, 100, seed=3) == reference


# ---------------------------------------------------------------------------
# a sweep's strategies share their draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk, trials", [(None, 2000), (7, 100)])
def test_sweep_rows_match_monte_carlo_run_alone(chunk, trials, monkeypatch):
    if chunk is not None:  # 100 trials in chunks of 7 end in a partial chunk
        monkeypatch.setattr(analysis, "MC_CHUNK", chunk)
    report = sweep_report(trials, seed=4)
    alone = {s: monte_carlo(s, trials, seed=4) for s in STRATEGIES}
    assert len(report["rows"]) == len(STRATEGIES) * len(PREDICATES)
    for row in report["rows"]:
        mc = alone[AttackStrategy(row["strategy"])]
        assert row["p_mc"] == mc.p_hat(DetectionPredicate(row["predicate"]))


@pytest.mark.parametrize("chunk", [None, 7])
def test_shared_draws_do_not_depend_on_strategy_order(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(analysis, "MC_CHUNK", chunk)
    forward, backward = SharedDraws(11), SharedDraws(11)
    ahead = {s: monte_carlo(s, 100, 11, draws=forward) for s in STRATEGIES}
    behind = {s: monte_carlo(s, 100, 11, draws=backward) for s in reversed(STRATEGIES)}
    assert ahead == behind


def test_shared_blocks_are_read_only():
    draws = SharedDraws(3)
    first = draws.chunk(0, 10).random()
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.5
    # a later strategy's reader starts over the same, unchanged draws
    later = draws.chunk(0, 10).random()
    assert later.tolist() == [make_rng(3, t).random() for t in range(10)]
    np.testing.assert_array_equal(later, first)


def test_sweep_computes_each_block_once(monkeypatch):
    blocks = []

    def counted(seed, streams, block):
        blocks.append(block)
        return philox_block(seed, streams, block)

    monkeypatch.setattr(qcore, "philox_block", counted)
    sweep_report(trials=2000, seed=4)
    # block 0 serves all six strategies, block 1 only replace-before
    assert blocks == [0, 1]


def test_monte_carlo_rejects_draws_of_another_seed():
    with pytest.raises(ValueError, match="draws hold seed 3, not 4"):
        monte_carlo(AttackStrategy.NONE, 10, seed=4, draws=SharedDraws(3))


@pytest.mark.parametrize("trials", [True, 2.5])
def test_monte_carlo_rejects_trials_that_are_not_integers(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        monte_carlo(AttackStrategy.NONE, trials, seed=3)
    # a report row would otherwise record "trials": true after one trial
    with pytest.raises(ValueError, match="trials must be an integer"):
        detection_report(AttackStrategy.NONE, trials=trials, seed=3)


@pytest.mark.parametrize(
    "trials, message",
    [(-3, "trials must be at least 0, got -3"), (2.5, "trials must be an integer, got 2.5"),
     ("7", "trials must be an integer, got '7'")],
)
def test_reports_reject_a_negative_or_non_integer_trial_count(trials, message):
    # a negative count would otherwise be recorded beside rows that sampled nothing
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_report(trials, 5)
    with pytest.raises(ValueError, match=re.escape(message)):
        detection_report(AttackStrategy.NONE, trials=trials, seed=4)


def test_monte_carlo_rejects_policy_keyed_by_name():
    with pytest.raises(ValueError, match="EncodingOp"):
        monte_carlo(AttackStrategy.NONE, 10, seed=0, policy={"u0": 1.0})


@pytest.mark.parametrize(
    "policy",
    [{"u0": 1.0}, {EncodingOp.U1: 5.0}, {EncodingOp.U1: math.nan, EncodingOp.U0: 1.0}],
)
def test_every_route_rejects_what_a_session_rejects(policy):
    strategy = AttackStrategy.INTERCEPT_MEASURE_RESEND
    routes = (
        lambda: SessionConfig(1, 1, checking_op_policy=policy),
        lambda: exact_detection(strategy, policy=policy),
        lambda: detection_from_swap_algebra(strategy, policy=policy),
        lambda: monte_carlo(strategy, 10, 0, policy=policy),
    )
    messages = set()
    for route in routes:
        with pytest.raises(ValueError) as raised:
            route()
        messages.add(str(raised.value))
    assert len(messages) == 1


_NONE = AttackStrategy.NONE
_BY_VALUE = {
    "SessionConfig predicate": lambda: SessionConfig(4, 4, seed=3, predicate="announced-op"),
    "SessionConfig target": lambda: SessionConfig(4, 4, seed=3, encode_target="first"),
    "check_passes": lambda: check_passes("announced-op", 0, 2, 2),
    "run_checking target": lambda: run_checking(
        *prepare_registers(SessionConfig(1, 1)), TrialStreams(0, 0, 1), encode_target="first"
    ),
    "exact_detection predicate": lambda: exact_detection(_NONE, "announced-op"),
    "exact_detection target": lambda: exact_detection(_NONE, encode_target="first"),
    "algebra predicate": lambda: detection_from_swap_algebra(_NONE, "announced-op"),
    "algebra target": lambda: detection_from_swap_algebra(_NONE, encode_target="first"),
}


@pytest.mark.parametrize("route", _BY_VALUE.values(), ids=_BY_VALUE.keys())
def test_predicates_and_targets_by_value_are_rejected(route):
    """A member's string value is not the member: taken as one, it scored
    honest sessions as detected (``exact_detection`` and the algebra route
    returned 0.75 for ``"announced-op"`` on an honest channel)."""
    with pytest.raises(ValueError, match="member, got '"):
        route()


def test_sweep_enumerates_each_strategy_once(monkeypatch):
    enumerated = []

    def counted(strategy, *args, **kwargs):
        enumerated.append(strategy)
        return group_leaves(strategy, *args, **kwargs)

    monkeypatch.setattr(analysis, "group_leaves", counted)
    report = sweep_report(trials=0, seed=0)
    assert enumerated == STRATEGIES
    for row in report["rows"]:
        strategy = AttackStrategy(row["strategy"])
        predicate = DetectionPredicate(row["predicate"])
        assert row["p_exact"] == exact_detection(strategy, predicate)
        assert row["eve_guess_accuracy"] == exact_leakage(strategy)
        assert row["honest_fidelity"] == honest_fidelity(strategy)
