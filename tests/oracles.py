"""Independent oracles for the test suite.

Everything here is deliberately written without the package under test:
literal Bell amplitude tables, naive kron-based linear algebra, the
verbatim printed correlation table, and a label-arithmetic model of the
swapping statistics.  Expected values in tests come from these.
"""

import math

import numpy as np

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
