import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.stats import power_divergence

import oracles
from qsdc_swap import analysis
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import (
    EnumerationBudgetError,
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
from qsdc_swap.qcore import BELL_KINDS, TrialStreams

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
    # equal checking histories are one shared tuple.
    digest = hashlib.sha256()
    shared = {}
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
    assert digest.hexdigest() == LEAF_GRID_DIGEST
    assert shared[
        AttackStrategy.REPLACE_MEASURE_BEFORE,
        (1, 2),
        DetectionPredicate.ANNOUNCED_OP,
        EncodeTarget.SECOND_TRAVEL_PHOTON,
    ] == 4096


def test_rows_match_per_row_tuples_past_an_int64_joint_code():
    # Ten groups of 128 records each: one joint code would need 128**10,
    # past int64, and rows differing in only the first or the last group
    # collide when such a code wraps.
    rng = np.random.default_rng(5)
    radix, groups = (4, 4, 4, 2), np.arange(3, 13)
    base = rng.integers(0, 128, size=(10, 10))
    first, last = base.copy(), base.copy()
    first[0] = (first[0] + 64) % 128
    last[-1] = (last[-1] + 64) % 128
    codes = np.hstack([base, first, last])
    codes = np.hstack([codes, codes[:, rng.integers(0, 30, size=20)]])
    values = (ENCODING_OPS, BELL_KINDS, BELL_KINDS, (False, True))
    columns = np.unravel_index(codes, radix)
    rows = analysis._rows(50, groups, *zip(columns, values))
    want = [
        tuple(
            (int(g), *(v[c[k, i]] for v, c in zip(values, columns)))
            for k, g in enumerate(groups)
        )
        for i in range(50)
    ]
    assert rows == want
    assert len(set(rows)) == 30
    assert len({id(row) for row in rows}) == 30
    records = [record for row in rows for record in row]
    assert len({id(record) for record in records}) == len(set(records))


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


def _session_cell(verdict: Verdict, decoded: str, bits: str) -> int:
    """0: detected, 1: clean and decoded right, 2: clean and decoded wrong."""
    if verdict is not Verdict.CLEAN:
        return 0
    return 1 if decoded == bits else 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sampled_sessions_match_enumerated_leaves(strategy):
    # Seeded two-group sessions with one checking group, split by which
    # group the partition drew, against the session enumerator checking
    # that group: a G-test over the three outcome cells.
    bits, sessions = "10", 400
    observed = {1: np.zeros(3), 2: np.zeros(3)}
    for seed in range(sessions):
        transcript = run_session(SessionConfig(2, 1, bits, seed=seed), strategy)
        (checked,) = transcript.checking.group.tolist()
        cell = _session_cell(transcript.verdict, transcript.decoded_bits, bits)
        observed[checked][cell] += 1
    for checked in (1, 2):
        exact = np.zeros(3)
        for leaf in enumerate_session_leaves(2, [checked], strategy, message_bits=bits):
            exact[_session_cell(leaf.verdict, leaf.decoded_bits, bits)] += leaf.prob
        assert abs(exact.sum() - 1.0) < 1e-9
        counts = observed[checked]
        assert counts.sum() > sessions / 4
        possible = exact > 1e-12
        assert not counts[~possible].any()
        if possible.sum() > 1:
            test = power_divergence(
                counts[possible], exact[possible] * counts.sum(), lambda_="log-likelihood"
            )
            assert test.pvalue > 1e-3, (checked, counts, exact)


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


def test_node_budget_enforced(monkeypatch):
    monkeypatch.setenv(analysis.NODE_BUDGET_ENV, "5")
    with pytest.raises(EnumerationBudgetError):
        enumerate_session_leaves(2, [1, 2], AttackStrategy.REPLACE_MEASURE_BEFORE)
    monkeypatch.delenv(analysis.NODE_BUDGET_ENV)
    exact_detection(AttackStrategy.NONE)  # default budget restored


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
    "check_passes": lambda: check_passes("announced-op", EncodingOp.U0, 2, 2),
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
