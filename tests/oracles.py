"""Independent oracles for the test suite.

Everything here is deliberately written without the package under test:
literal Bell amplitude tables, naive kron-based linear algebra, the
verbatim printed correlation table, and a label-arithmetic model of the
swapping statistics.  Expected values in tests come from these.

One exception: ``swap_algebra_detection`` is the swap-algebra route as the
package first wrote it, on bellmap's enum tables, kept as the reference
that the int-coded route must equal float for float.
"""

import math

import numpy as np

from qsdc_swap import analysis
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.bellmap import (
    ENCODING_OPS,
    EncodingOp,
    apply_encoding,
    correlation_table,
    swap_decompose,
)
from qsdc_swap.protocol import (
    UNIFORM_POLICY,
    DetectionPredicate,
    EncodeTarget,
    check_member,
    policy_weights,
)
from qsdc_swap.qcore import BELL_KINDS, BellKind

S = 1.0 / math.sqrt(2.0)

# Amplitudes over |00>,|01>,|10>,|11| of the two-qubit pair, first label
# is the most significant bit.
BELL_VEC = {
    "phi+": np.array([S, 0, 0, S], dtype=complex),
    "phi-": np.array([S, 0, 0, -S], dtype=complex),
    "psi+": np.array([0, S, S, 0], dtype=complex),
    "psi-": np.array([0, S, -S, 0], dtype=complex),
}

KINDS = ("phi+", "phi-", "psi+", "psi-")

I2 = np.eye(2, dtype=complex)
U_MAT = {
    "u0": np.eye(2, dtype=complex),
    "u1": np.array([[1, 0], [0, -1]], dtype=complex),
    "u2": np.array([[0, 1], [1, 0]], dtype=complex),
    "u3": np.array([[0, -1], [1, 0]], dtype=complex),
}
OPS = ("u0", "u1", "u2", "u3")
OP_BITS = {"u0": "00", "u1": "01", "u2": "10", "u3": "11"}

# (letter flip, sign flip) labels; both the coding orbit and the swap
# support rule are XORs in this labeling.
LABEL = {"phi+": (0, 0), "phi-": (0, 1), "psi+": (1, 0), "psi-": (1, 1)}
KIND_OF_LABEL = {v: k for k, v in LABEL.items()}
OP_XOR = {"u0": (0, 0), "u1": (0, 1), "u2": (1, 0), "u3": (1, 1)}


def xor(a, b):
    return (a[0] ^ b[0], a[1] ^ b[1])


def op_on_kind(op, kind):
    return KIND_OF_LABEL[xor(LABEL[kind], OP_XOR[op])]


def correlated(op, bob, alice):
    return xor(LABEL[bob], LABEL[alice]) == OP_XOR[op]


def passes(predicate, op, bob, alice):
    effective = op if predicate == "announced-op" else "u0"
    return correlated(effective, bob, alice)


def kron_all(*vecs):
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def reorder(vec, src, dst):
    """Permute a state vector from qubit order ``src`` to ``dst``."""
    n = len(src)
    perm = [src.index(q) for q in dst]
    return np.transpose(vec.reshape((2,) * n), perm).reshape(-1)


def apply_u(vec, n, position, mat):
    """Apply a 2x2 matrix at ``position`` via an explicit full kron."""
    factors = [mat if j == position else I2 for j in range(n)]
    full = factors[0]
    for f in factors[1:]:
        full = np.kron(full, f)
    return full @ vec


def bell_product(pairs, order):
    """Tensor of Bell pairs given as (kind, qubit, qubit), reordered."""
    src = []
    vecs = []
    for kind, a, b in pairs:
        src.extend([a, b])
        vecs.append(BELL_VEC[kind])
    return reorder(kron_all(*vecs), src, order)


# The Bell basis as bras, one row per kind in KINDS order.
BELL_BRA = np.stack([BELL_VEC[k] for k in KINDS]).conj()


def pair_projections(amps, ia, ib):
    """Bell-basis projections of the pair at positions ``(ia, ib)`` of a
    state or a (B, 2**n) batch, in the state engine's first arithmetic:
    the pair's axes moved to the front, then one (4, 4) @ (4, B * rest)
    product.  Returns the (..., 4, rest) unnormalized collapsed vectors
    and the (..., 4) probabilities."""
    n = amps.shape[-1].bit_length() - 1
    lead = amps.ndim - 1
    tensor = amps.reshape(amps.shape[:-1] + (2,) * n)
    projected = BELL_BRA @ np.moveaxis(tensor, (lead + ia, lead + ib), (0, 1)).reshape(4, -1)
    if not lead:
        return projected, np.einsum("ij,ij->i", projected.conj(), projected).real
    projected = projected.reshape(4, amps.shape[0], -1).swapaxes(0, 1)
    return projected, np.einsum("bij,bij->bi", projected.conj(), projected).real


# Outcomes less likely than this are never drawn (qcore.MIN_BRANCH_PROB).
MIN_BRANCH_PROB = 1e-12


def scalar_choice(r, probs):
    """The outcome one uniform ``r`` picks out of outcomes weighted
    ``probs``, one at a time: the first outcome at or above
    MIN_BRANCH_PROB whose cumulative weight exceeds ``r``, else the
    likeliest (rounding can leave ``r`` past the end of the sum)."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += float(p)
        if r < acc and p >= MIN_BRANCH_PROB:
            return i
    return max(range(len(probs)), key=lambda i: probs[i])


def script_choice(rows, probs):
    """A scripted replay's choice past its prefixes over ``rows`` batch
    rows, written with reductions along the outcome axis
    (``analysis._Script.choose`` as first written): ``("forced", outcome,
    prob)`` when every row has exactly one outcome at or above
    MIN_BRANCH_PROB, else ``("open", weights)`` with the weights broadcast
    to every row."""
    probs = np.broadcast_to(probs, (rows, np.shape(probs)[-1]))
    if (np.count_nonzero(probs >= MIN_BRANCH_PROB, axis=-1) != 1).any():
        return "open", probs
    outcome = probs.argmax(axis=-1)
    return "forced", outcome, probs[np.arange(len(probs)), outcome]


def sampled_branch(r, branches):
    """The branch a single state's Bell measurement takes under uniform
    ``r``, out of ``branches`` listed in kind order with a ``prob`` each
    (as ``qcore.bell_branches`` gives them)."""
    return branches[scalar_choice(r, [b.prob for b in branches])]


# Verbatim printed correlation table: (receiver 13-kind, sender 24-kind).
PRINTED_CORRELATION = {
    "u0": {("phi+", "phi+"), ("psi-", "psi-"), ("psi+", "psi+"), ("phi-", "phi-")},
    "u1": {("psi-", "psi+"), ("phi+", "phi-"), ("phi-", "phi+"), ("psi+", "psi-")},
    "u2": {("psi+", "phi+"), ("psi-", "phi-"), ("phi+", "psi+"), ("phi-", "psi-")},
    "u3": {("psi+", "phi-"), ("psi-", "phi+"), ("phi+", "psi-"), ("phi-", "psi+")},
}

# Printed swap decompositions of the plus-anchored products, signs included.
SWAP_BASE_TERMS = {
    ("psi+", "psi+"): 0.5,
    ("psi-", "psi-"): -0.5,
    ("phi+", "phi+"): 0.5,
    ("phi-", "phi-"): -0.5,
}
SWAP_ENCODED_TERMS = {
    ("psi+", "psi-"): {
        ("psi+", "psi-"): 0.5,
        ("psi-", "psi+"): -0.5,
        ("phi+", "phi-"): -0.5,
        ("phi-", "phi+"): 0.5,
    },
    ("psi+", "phi+"): {
        ("psi+", "phi+"): 0.5,
        ("psi-", "phi-"): -0.5,
        ("phi+", "psi+"): 0.5,
        ("phi-", "psi-"): -0.5,
    },
    ("psi+", "phi-"): {
        ("psi+", "phi-"): 0.5,
        ("psi-", "phi+"): -0.5,
        ("phi+", "psi-"): -0.5,
        ("phi-", "psi+"): 0.5,
    },
}

# Sign of each kind's term in SWAP_BASE_TERMS; the eight-photon expansion has
# coefficient sign(p) * sign(q) / 4 on the aligned quadruple (p,p,q,q).
BASE_TERM_SIGN = {"psi+": 1.0, "psi-": -1.0, "phi+": 1.0, "phi-": -1.0}

# Printed six-photon expansion after both travel photons are CNOT-copied:
# (13-kind, 24-kind, ancilla-kind, sign), amplitude sign * sqrt(2)/4.
ANCILLA_COPY_TERMS = [
    ("psi+", "psi+", "psi+", 1.0),
    ("psi-", "psi-", "psi+", -1.0),
    ("phi+", "phi+", "phi+", 1.0),
    ("phi-", "phi-", "phi+", -1.0),
    ("psi+", "psi-", "psi-", 1.0),
    ("psi-", "psi+", "psi-", -1.0),
    ("phi+", "phi-", "phi-", 1.0),
    ("phi-", "phi+", "phi-", -1.0),
]


def _joint_distribution(strategy, op):
    """Label-level joint (receiver, sender) outcome distribution of one
    checking group, given the sender announced ``op``."""
    quarter = 0.25
    if strategy == "none":
        return [((b, op_on_kind(op, b)), quarter) for b in KINDS]
    if strategy == "measure-resend":
        return [((e, op_on_kind(op, e)), quarter) for e in KINDS]
    if strategy == "replace-after":
        return [((b, a), 1.0 / 16.0) for b in KINDS for a in KINDS]
    if strategy == "replace-before":
        joint = []
        for e1 in KINDS:
            for e2 in KINDS:
                shift = xor(xor(LABEL[e1], LABEL[e2]), OP_XOR[op])
                for b in KINDS:
                    a = KIND_OF_LABEL[xor(LABEL[b], shift)]
                    joint.append(((b, a), 1.0 / 64.0))
        return joint
    if strategy == "ancilla-passive":
        return [((b, op_on_kind(op, a0)), 0.125) for b, a0, _e, _s in ANCILLA_COPY_TERMS]
    if strategy == "ancilla-corrective":
        joint = []
        for b, a0, e, _s in ANCILLA_COPY_TERMS:
            if e in ("psi-", "phi-"):
                a0 = op_on_kind("u1", a0)
            joint.append(((b, op_on_kind(op, a0)), 0.125))
        return joint
    raise ValueError(strategy)


def oracle_detection(strategy, predicate):
    """Per-group detection probability under a uniform op policy."""
    fail = 0.0
    for op in OPS:
        for (b, a), p in _joint_distribution(strategy, op):
            if not passes(predicate, op, b, a):
                fail += 0.25 * p
    return fail


def oracle_leakage(strategy):
    """Guess accuracy of the per-strategy inference rule; abstain = 1/4."""
    if strategy in ("measure-resend", "replace-after"):
        # Eve holds a Bell outcome seeding the sender's pair, so
        # inverting the announcement recovers the op exactly.
        return 1.0
    return 0.25


def oracle_fidelity(strategy):
    """Chance the receiver decodes an encoding group correctly."""
    good = 0.0
    for op in OPS:
        for (b, a), p in _joint_distribution(strategy, op):
            if xor(LABEL[b], LABEL[a]) == OP_XOR[op]:
                good += 0.25 * p
    return good


def swap_algebra_detection(
    strategy,
    predicate=DetectionPredicate.ANNOUNCED_OP,
    policy=None,
    encode_target=EncodeTarget.SECOND_TRAVEL_PHOTON,
):
    """``analysis.detection_from_swap_algebra`` as first written: each
    strategy's joint (receiver, sender) outcomes as lists of enum pairs,
    looked up in ``correlation_table()``'s frozensets.  It reads the
    corrective op, its trigger and the ancilla expansion from ``analysis``
    at call time, as the route does."""
    psi = BellKind.PSI_PLUS
    strict = check_member(DetectionPredicate, predicate) is DetectionPredicate.STRICT_U0
    first = check_member(EncodeTarget, encode_target) is EncodeTarget.FIRST_TRAVEL_PHOTON
    base = swap_decompose(psi, psi)
    weights = policy_weights(UNIFORM_POLICY if policy is None else policy)
    total = 0.0
    for op, w in zip(ENCODING_OPS, weights):
        if not w:
            continue
        joint = []
        if strategy is AttackStrategy.NONE:
            k12 = apply_encoding(op, psi) if first else psi
            k34 = psi if first else apply_encoding(op, psi)
            joint = [(pair, 0.25) for pair in swap_decompose(k12, k34).support()]
        elif strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND:
            joint = [
                ((bob, apply_encoding(op, eve)), base.probability(bob, eve))
                for bob, eve in base.support()
            ]
        elif strategy is AttackStrategy.REPLACE_MEASURE_AFTER:
            joint = [((bob, alice), 1.0 / 16.0) for bob in BELL_KINDS for alice in BELL_KINDS]
        elif strategy is AttackStrategy.REPLACE_MEASURE_BEFORE:
            for _, e1 in base.support():
                for _, e2 in base.support():
                    k12 = apply_encoding(op, e1) if first else e1
                    k34 = e2 if first else apply_encoding(op, e2)
                    for pair in swap_decompose(k12, k34).support():
                        joint.append((pair, 0.25 * 0.25 * 0.25))
        elif strategy is AttackStrategy.ANCILLA_PASSIVE:
            joint = [
                ((bob, apply_encoding(op, travel)), 0.125)
                for bob, travel, _anc, _sign in analysis.ANCILLA_EXPANSION
            ]
        elif strategy is AttackStrategy.ANCILLA_CORRECTIVE:
            for bob, travel, anc, _sign in analysis.ANCILLA_EXPANSION:
                if anc in analysis.CORRECTION_TRIGGER:
                    travel = apply_encoding(analysis.CORRECTIVE_OP, travel)
                joint.append(((bob, apply_encoding(op, travel)), 0.125))
        else:
            raise ValueError(f"unhandled strategy {strategy}")
        column = correlation_table()[EncodingOp.U0 if strict else op]
        total += w * sum(p for pair, p in joint if pair not in column)
    return total
