"""Dense state-vector engine for small registers of labeled qubits.

Conventions, fixed once so every amplitude table in docs and tests is
unambiguous:

* A register's qubit tuple is most-significant-first: for qubits
  ``(a, b, c)`` the amplitude at index ``0b011`` belongs to
  ``|0>_a |1>_b |1>_c``.
* ``|0>`` is horizontal and ``|1>`` vertical polarization.
* A Bell measurement of the pair ``(a, b)`` treats ``a`` as the first
  tensor factor, which pins the sign of the antisymmetric outcomes.
* State comparison is phase-insensitive: the coding unitaries move Bell
  states onto each other only up to a global sign that depends on which
  photon of the pair they hit.

States are values: every operation returns a fresh ``StateVector`` and
nothing here mutates or locks, so states can be moved freely between
threads.  Measured qubits are removed from the register instead of being
kept as classical flags, which keeps multi-stage eavesdropping scenarios
inside the register cap.

A state may also be a batch of rows, one independent state per Monte
Carlo trial, per photon group of a session or per enumerated history, over
the same qubit tuple.  This module alone decides how a batch is stored:
amplitudes of shape ``(B, 2**n)``, one state per row, or the batch's U
distinct states as ``(U, 2**n)`` amplitudes plus ``rows``, a (B,) index
naming each row's state.  A Bell measurement has at most four outcomes,
so after a few of them many rows share a handful of states, and the
operations below then run once per distinct state.  ``INDEX_RATIO`` sets
when a batch keeps an index; ``per_row()`` and ``take(rows)`` read it row
by row.  The operations accept single, per-row and indexed states alike.
A measured batch keeps as its distinct states the (state, outcome)
candidates its rows chose; a batch of drawn Bell kinds (``make_bell`` of
an int array) is the four Bell states and the kinds as its index.  Each
candidate is the same vector divided by the same square root, so
``per_row()`` is bit for bit the batch that gathers one state per row.

Every random choice goes through one outcome hook, ``rng.choose(probs,
rows=None)``, which gives the outcome that happens in each batch row, out
of outcomes weighted ``probs``, as an int array: a Bell measurement's
outcomes index ``BELL_KINDS``.  ``probs`` is one row of weights for every
batch row, or one row per batch row; with ``rows``, it is one row per
distinct state of an indexed batch and ``rows`` names each batch row's
state.  The sources behind the hook are row sources: ``TrialStreams``
draws the per-trial uniforms and ``Uniforms`` hands out a session's
pre-drawn ones, each row taking the first non-negligible outcome whose
cumulative weight exceeds its uniform, or the likeliest one if rounding
leaves the uniform past the end; ``analysis`` replays the same code under
scripted outcomes to enumerate every history with exact weights.

Arithmetic.  Reports print exact figures to full precision and the
transcript and leaf digests pin every drawn outcome, so the floating-point
operations of a Bell measurement are fixed, not only their values:

* Projection: the pair's amplitudes are gathered, through an index cached
  per ``(n, ia, ib)``, into rows of four (rest index major, then the
  pair's ``|00>, |01>, |10>, |11>``), and one flat ``(B * rest, 4) @ (4,
  4)`` product with the transposed Bell bras projects every row.  This is
  bit-identical to the original ``(4, 4) @ (4, B * rest)`` product over
  the pair's axes moved to the front (``tests/oracles.py``
  ``pair_projections``).
* Probabilities: ``einsum`` of each projected vector's conjugate with
  itself, summed over the rest index.
* Collapse: the chosen vector divided by the square root of its
  probability.
* Choice: cumulative weights added in outcome order, compared with the
  row's uniform.  One row of weights for every batch row is decided by one
  ``searchsorted`` of the uniforms into the sums of the kept outcomes
  (those at or above ``MIN_BRANCH_PROB``); the search needs sums that
  never decrease, so every weight must be >= 0: ``protocol.policy_weights``
  rejects a negative or NaN weight, and a Bell probability is a sum of
  squares.  Rows of weights, one per batch row or one per distinct state,
  are summed on the rows given with the outcomes below ``MIN_BRANCH_PROB``
  set to -inf, a ``take`` by the row index gives each batch row its sums,
  and one compare and one ``argmax`` decide every row.

A single-qubit op adds its two column products; with the coding ops,
whose entries are 0 and +-1, every product and sum is exact.

Measured alternatives that are not bit-identical to the original: the
per-row product ``_BELL_BRA @ (B, 4, rest)`` (the last bit differs at
n = 2), sums and differences scaled by 1/sqrt(2) in place of the
product, and real-part rewrites of the probabilities.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum, unique
from functools import lru_cache
from itertools import compress

import numpy as np

NORM_TOL = 1e-9

# Register cap; composing past it raises.  Sessions that would exceed it
# keep their groups in separate factors instead (see protocol.Register).
MAX_QUBITS = 12

# Outcomes less likely than this are never drawn and never enumerated.
MIN_BRANCH_PROB = 1e-12

# A batch keeps its distinct states plus a row index only while its rows
# number at least INDEX_RATIO times the states a step would make: the
# (state, outcome) candidates its rows chose for a measurement, K per state
# for a per-row op from a table of K, U1 * U2 for a composition.  Below
# that it holds one state per row, so small batches (sessions of 4 and 32
# groups, early enumeration passes) run as they would without an index.
# Measured with ``perfbench/run.py --seconds 12`` on a 2-vCPU host, four
# alternating pairs: sessions op_p50_ms read 0.655 at a ratio of 4 and
# 0.636 at 16 (16 faster in three pairs), and exact leaves/s 205k and 204k.
INDEX_RATIO = 16

class QubitError(ValueError):
    """Unknown, duplicate, or capacity-violating qubit ids."""


@unique
class BellKind(Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    def __repr__(self) -> str:
        return _KIND_REPR[self._name_]


BELL_KINDS = (
    BellKind.PHI_PLUS,
    BellKind.PHI_MINUS,
    BellKind.PSI_PLUS,
    BellKind.PSI_MINUS,
)

# Each kind's repr by member name: enum leaves repr and hash to Python
# code, and reprs of enumerated leaves print millions of kinds.
_KIND_REPR = {kind.name: f"BellKind({kind.value!r})" for kind in BELL_KINDS}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Amplitude of |xy> in each Bell state; row = first qubit, column = second.
_BELL_MATRIX = {
    BellKind.PHI_PLUS: np.array([[_INV_SQRT2, 0.0], [0.0, _INV_SQRT2]], dtype=complex),
    BellKind.PHI_MINUS: np.array([[_INV_SQRT2, 0.0], [0.0, -_INV_SQRT2]], dtype=complex),
    BellKind.PSI_PLUS: np.array([[0.0, _INV_SQRT2], [_INV_SQRT2, 0.0]], dtype=complex),
    BellKind.PSI_MINUS: np.array([[0.0, _INV_SQRT2], [-_INV_SQRT2, 0.0]], dtype=complex),
}

# Bell basis as one 4x4 block: row = kind, column = |xy> index.
_BELL_VECTORS = np.stack([_BELL_MATRIX[k].reshape(-1) for k in BELL_KINDS])
_BELL_BRA = _BELL_VECTORS.conj()
# The right factor of the projection product (module docstring, Arithmetic).
_BELL_KET = _BELL_BRA.T

# The four single-photon coding operations.
U0 = np.eye(2, dtype=complex)
U1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
U2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
U3 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over an ordered tuple of qubit ids.

    ``amps`` of shape ``(B, 2**n)`` holds a batch of B states, each
    normalized on its own; any other shape is flattened to one state.
    ``rows`` is None, or for a batch built by the operations below, a
    (rows,) index into the distinct states in ``amps`` (module docstring).
    """

    qubits: tuple[int, ...]
    amps: np.ndarray
    rows: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2:
            amps = amps.reshape(-1)
        if len(set(qubits)) != len(qubits):
            raise QubitError(f"duplicate qubit ids in {qubits}")
        if len(qubits) > MAX_QUBITS:
            raise QubitError(f"{len(qubits)} qubits exceeds the register cap of {MAX_QUBITS}")
        if amps.shape[-1] != 2 ** len(qubits):
            raise ValueError(f"{amps.shape[-1]} amplitudes do not fit {len(qubits)} qubits")
        _unit_norm(amps, "state norm squared is {}, not 1")
        if amps.flags.writeable:
            amps = amps.copy()
            amps.flags.writeable = False
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "amps", amps)

    @property
    def n(self) -> int:
        return len(self.qubits)

    @property
    def batch(self) -> int | None:
        """Number of rows in a batch, or None for a single state."""
        if self.rows is not None:
            return len(self.rows)
        return self.amps.shape[0] if self.amps.ndim == 2 else None

    def per_row(self) -> StateVector:
        """The batch with one state per row; any other state is itself."""
        return self if self.rows is None else _trusted(self.qubits, self.amps[self.rows])

    def take(self, rows) -> StateVector:
        """The batch restricted to ``rows``; a single state is every row's."""
        if self.rows is not None:
            return _trusted(self.qubits, self.amps, self.rows[rows])
        return self if self.amps.ndim == 1 else _trusted(self.qubits, self.amps[rows])

    def index_of(self, q: int) -> int:
        try:
            return self.qubits.index(q)
        except ValueError:
            raise QubitError(f"qubit {q} is not in register {self.qubits}") from None

    def tensor(self) -> np.ndarray:
        """One axis per qubit, after the batch axis if there is one."""
        if self.amps.ndim == 1:
            return self.amps.reshape((2,) * self.n)
        return self.amps.reshape(self.amps.shape[:1] + (2,) * self.n)


def _trusted(
    qubits: tuple[int, ...], amps: np.ndarray, rows: np.ndarray | None = None
) -> StateVector:
    """Construct without re-validating; amps must be fresh and normalized,
    and ``rows`` an index into them or None."""
    sv = object.__new__(StateVector)
    amps.flags.writeable = False
    object.__setattr__(sv, "qubits", qubits)
    object.__setattr__(sv, "amps", amps)
    object.__setattr__(sv, "rows", rows)
    return sv


@dataclass(frozen=True)
class Branch:
    """One outcome of a Bell measurement: probability, collapsed rest, kind."""

    prob: float
    state: StateVector
    kind: BellKind


def _unit_norm(
    amps: np.ndarray, message: str = "operation broke normalization: norm squared {}"
) -> np.ndarray:
    """Check every state's norm; ``message`` formats the worst norm squared."""
    # Squares of the real and imaginary parts, summed per state.
    norms = np.add.reduce(np.square(np.ascontiguousarray(amps).view(np.float64)), axis=-1)
    off = np.abs(norms - 1.0)
    # ``not <=`` also fails a NaN norm, which every ``>`` test lets through.
    if not off.max(initial=0.0) <= NORM_TOL:
        raise ValueError(message.format(float(np.ravel(norms)[off.argmax()])))
    return amps


def _distinct(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise QubitError(f"bell pair needs two distinct qubits, got {a} twice")
    return int(a), int(b)


@lru_cache(maxsize=None)
def _bell_state(kind: BellKind, a: int, b: int) -> StateVector:
    return StateVector(_distinct(a, b), _BELL_MATRIX[kind].reshape(-1).copy())


def make_bell(kind: BellKind | np.ndarray, a: int, b: int) -> StateVector:
    """Two-qubit Bell state of ``kind`` on the ordered pair ``(a, b)``.

    ``kind`` may also be an int array indexing ``BELL_KINDS``, which gives
    the batch with one such state per entry.  From ``4 * INDEX_RATIO``
    entries on, that batch is indexed: the four Bell states are its
    distinct states and a fresh copy of ``kind`` is its row index.  Single
    states are cached.
    """
    if isinstance(kind, BellKind):
        return _bell_state(kind, a, b)
    kinds = np.asarray(kind)
    if kinds.ndim == 1 and 4 * INDEX_RATIO <= len(kinds):
        return _trusted(_distinct(a, b), _BELL_VECTORS.copy(), kinds.astype(np.intp))
    return _trusted(_distinct(a, b), _BELL_VECTORS[kinds])


# The single-state cache, inspectable as on any lru_cache function.
make_bell.cache_info = _bell_state.cache_info


@lru_cache(maxsize=None)
def single_qubit(q: int) -> StateVector:
    """Fresh qubit prepared in |0>."""
    return StateVector((int(q),), np.array([1.0, 0.0], dtype=complex))


def compose(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product; qubit order is s1's followed by s2's.

    A single state composed with a batch is paired with every state in it,
    and keeps the batch's row index.  Two indexed batches whose rows number
    ``INDEX_RATIO`` times their pairs of distinct states compose every such
    pair, s1's major; any other two batches compose row by row.
    """
    qubits = s1.qubits + s2.qubits
    shared = set(s1.qubits).intersection(s2.qubits)
    if shared:
        raise QubitError(f"qubit sets overlap on {sorted(shared)}")
    if len(qubits) > MAX_QUBITS:
        raise QubitError(f"{len(qubits)} qubits exceeds the register cap of {MAX_QUBITS}")
    a1, a2, rows = s1.amps, s2.amps, s1.rows if s2.rows is None else s2.rows
    u1, u2 = len(a1), len(a2)
    if s1.rows is not None and s2.rows is not None and u1 * u2 * INDEX_RATIO <= len(rows):
        # Every pair of distinct states, s1's major.
        a1, a2, rows = np.repeat(a1, u2, axis=0), np.tile(a2, (u1, 1)), s1.rows * u2 + s2.rows
    elif rows is not None and a1.ndim == a2.ndim == 2:  # an indexed batch and another batch
        a1, a2, rows = s1.per_row().amps, s2.per_row().amps, None
    amps = a1[..., :, None] * a2[..., None, :]
    return _trusted(qubits, amps.reshape(amps.shape[:-2] + (-1,)), rows)


def apply_single(
    state: StateVector, q: int, op: np.ndarray, codes: np.ndarray | None = None
) -> StateVector:
    """Apply a 2x2 unitary to qubit ``q``.

    With ``codes``, one int per batch row, ``op`` is a (K, 2, 2) table and
    row r gets ``op[codes[r]]``: a single state, or an indexed batch whose
    rows number ``INDEX_RATIO`` times its distinct states' K images, then
    keeps those images as its distinct states, indexed by a fresh copy of
    ``codes`` for a single state.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (2, 2) or op.ndim != (2 if codes is None else 3):
        raise ValueError(
            f"single-qubit operator must be 2x2, or a (K, 2, 2) table with codes, got {op.shape}"
        )
    amps, rows = state.amps, state.rows
    if codes is not None:
        codes, k = np.asarray(codes, dtype=np.intp), len(op)
        if amps.ndim == 1 and k * INDEX_RATIO <= len(codes):
            rows = codes.copy()  # the one state's K images are the distinct states
        elif rows is not None and len(amps) * k * INDEX_RATIO <= len(codes):
            # Every distinct state under every op, state major.
            op, rows = np.tile(op, (len(amps), 1, 1)), rows * k + codes
            amps = np.repeat(amps, k, axis=0)
        else:
            amps, op, rows = state.per_row().amps, op[codes], None
    i = state.index_of(q)
    # Each state as (qubits before q, q, qubits after q), and each matrix
    # column against the matching slice of q's axis: leading axes pair
    # per-trial matrices with per-trial states.
    arr = amps.reshape(amps.shape[:-1] + (1 << i, 2, 1 << (len(state.qubits) - i - 1)))
    arr = op[..., None, :, 0, None] * arr[..., :1, :] + op[..., None, :, 1, None] * arr[..., 1:, :]
    return _trusted(state.qubits, _unit_norm(arr.reshape(arr.shape[:-3] + (-1,))), rows)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` on the control=1 subspace."""
    if control == target:
        raise QubitError("control and target must differ")
    ic, it = state.index_of(control), state.index_of(target)
    permuted = state.amps.take(_cnot_gather(len(state.qubits), ic, it), axis=-1)
    return _trusted(state.qubits, permuted, state.rows)


@lru_cache(maxsize=None)
def _cnot_gather(n: int, ic: int, it: int) -> np.ndarray:
    """Amplitude indices of an n-qubit register with the qubit at ``it``
    flipped where the one at ``ic`` is 1: a CNOT is this permutation."""
    idx = np.arange(1 << n).reshape((2,) * n)
    sl = [slice(None)] * n
    sl[ic] = 1
    idx[tuple(sl)] = np.flip(idx[tuple(sl)], axis=it - 1 if it > ic else it)
    idx = idx.reshape(-1)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _pair_gather(n: int, ia: int, ib: int) -> np.ndarray:
    """Amplitude indices of the Bell pair at positions ``(ia, ib)`` of an
    n-qubit register, as a (rest, 4) array: row r holds the indices of the
    rest state r beside the pair's |00>, |01>, |10>, |11>."""
    idx = np.moveaxis(np.arange(1 << n).reshape((2,) * n), (ia, ib), (0, 1))
    gather = np.ascontiguousarray(idx.reshape(4, -1).T)
    gather.flags.writeable = False
    return gather


def _pair_projections(
    state: StateVector, a: int, b: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Project onto the Bell basis of ``(a, b)``.

    Returns the remaining qubit order, a (4, rest) array of unnormalized
    collapsed vectors indexed like BELL_KINDS, and the 4 probabilities;
    for a batch, (B, 4, rest) and (B, 4), B counting the distinct states
    of an indexed batch.  The vectors are a view of one (..., rest, 4)
    block (module docstring, Arithmetic).
    """
    if a == b:
        raise QubitError("cannot Bell-measure a qubit against itself")
    qubits, amps = state.qubits, state.amps
    ia, ib = state.index_of(a), state.index_of(b)
    lo, hi = (ia, ib) if ia < ib else (ib, ia)
    rest = qubits[:lo] + qubits[lo + 1 : hi] + qubits[hi + 1 :]
    pairs = amps.take(_pair_gather(len(qubits), ia, ib), axis=-1)
    projected = (pairs.reshape(-1, 4) @ _BELL_KET).reshape(pairs.shape).swapaxes(-1, -2)
    if amps.ndim == 1:
        probs = np.einsum("ij,ij->i", projected.conj(), projected).real
    else:
        probs = np.einsum("bij,bij->bi", projected.conj(), projected).real
    return rest, projected, probs


def bell_branches(state: StateVector, a: int, b: int) -> list[Branch]:
    """All nonzero Bell-measurement outcomes for the pair ``(a, b)``.

    Each branch removes the measured pair from the register and carries a
    renormalized collapsed state; branch probabilities sum to 1.
    Batches are sampled, not enumerated.
    """
    if state.batch is not None:
        raise ValueError("bell_branches enumerates a single state, not a batch")
    rest, projected, probs = _pair_projections(state, a, b)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"projection probabilities sum to {total}")
    keep = probs >= MIN_BRANCH_PROB
    collapsed = _collapse(rest, projected[keep], probs[keep]).amps
    return [
        Branch(prob=p, state=_trusted(rest, vec), kind=kind)
        for kind, vec, p in zip(compress(BELL_KINDS, keep), collapsed, probs[keep].tolist())
    ]


def _collapse(
    rest: tuple[int, ...], vecs: np.ndarray, p: np.ndarray, rows: np.ndarray | None = None
) -> StateVector:
    """The batch of collapsed states on ``rest``: each of the chosen
    projected vectors ``vecs``, a fresh (B, rest) array, divided in place by
    the square root of its probability (module docstring, Arithmetic), with
    the row index ``rows`` into them or None."""
    vecs /= np.sqrt(p)[:, None]
    return _trusted(rest, vecs, rows)


def sample_bell(
    state: StateVector, a: int, b: int, rng: TrialStreams | Uniforms
) -> tuple[np.ndarray, StateVector]:
    """Measure ``(a, b)`` in the Bell basis, the outcome drawn by ``rng.choose``;
    every Bell measurement of a batch runs here.

    The outcome is an int array indexing BELL_KINDS, one per batch row, and
    each row's rest collapses onto its own outcome; a single state gives
    a batch of collapsed states, one per row of the source.  Each distinct
    state is projected once, and each row's outcome is drawn from its
    state's probabilities: an indexed batch hands the hook one row of
    weights per distinct state and its row index.  A single state or an
    indexed batch of ``4 * INDEX_RATIO`` rows or more keeps as its distinct
    states the (state, outcome) candidates its rows chose, if the rows
    number ``INDEX_RATIO`` times those, and the rows index them; any other
    batch gathers one collapsed state per row.
    """
    rest, projected, probs = _pair_projections(state, a, b)
    rows = state.rows
    chosen = rng.choose(probs, rows)
    if probs.ndim == 1:  # one state, the same in every row
        at = chosen
    else:  # each row's own state, or the distinct state its index names
        at = (np.arange(len(chosen)) if rows is None else rows, chosen)
    if (probs.ndim == 1 or rows is not None) and 4 * INDEX_RATIO <= len(chosen):
        # The (state, outcome) candidates the rows chose, in that order.
        outcome = chosen if rows is None else rows * 4 + chosen
        taken = np.bincount(outcome, minlength=probs.size).astype(bool)
        picked = np.flatnonzero(taken)
        if len(picked) * INDEX_RATIO <= len(chosen):
            at = picked if probs.ndim == 1 else np.divmod(picked, 4)
            candidate = (np.cumsum(taken) - 1)[outcome]
            return chosen, _collapse(rest, projected[at], probs[at], candidate)
    return chosen, _collapse(rest, projected[at], probs[at])


def kind_in(kind: np.ndarray, kinds) -> np.ndarray:
    """Whether each outcome, an int indexing BELL_KINDS, is one of ``kinds``."""
    return np.array([k in kinds for k in BELL_KINDS])[kind]


def overlap(s1: StateVector, s2: StateVector) -> complex:
    """Inner product <s1|s2> after aligning qubit order."""
    if set(s1.qubits) != set(s2.qubits):
        raise QubitError(f"qubit sets differ: {s1.qubits} vs {s2.qubits}")
    if s1.qubits == s2.qubits:
        aligned = s2.amps
    else:
        perm = [s2.qubits.index(q) for q in s1.qubits]
        aligned = np.transpose(s2.tensor(), perm).reshape(-1)
    return complex(np.vdot(s1.amps, aligned))


def classify_bell(state: StateVector) -> BellKind | None:
    """Bell kind of a two-qubit state, or None if it is not one."""
    if state.n != 2:
        raise QubitError(f"classification needs exactly 2 qubits, got {state.n}")
    for kind in BELL_KINDS:
        reference = make_bell(kind, *state.qubits)
        if abs(overlap(reference, state)) >= 1.0 - NORM_TOL:
            return kind
    return None


# Seeds and stream indices are Philox key words.
SEED_LIMIT = 1 << 64


def check_seed(seed: int) -> int:
    """``seed`` if it is an integer in ``[0, 2**64)``, the range of a Philox
    key word, else a ValueError that names the range: numpy would wrap a
    seed outside it onto one inside it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


@lru_cache(maxsize=None)
def _philox_key() -> type:
    """The seed sequence that hands Philox its key ``(seed, stream)``.

    Philox takes its key from ``generate_state(2, np.uint64)``, and a
    keyed Philox would read OS entropy for a seed sequence it then drops.
    Made on first use, as numpy loads ``numpy.random`` on first use.
    """

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, seed: int, stream: int):
            self.key = (seed, stream)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return PhiloxKey


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based deterministic generator keyed by (seed, stream), each
    in ``[0, 2**64)``.

    Stream indices split independent generators cheaply, so parallel work
    stays reproducible without sharing state.  Monte Carlo trial ``t``
    uses the leading draws of ``make_rng(seed, t)``; ``TrialStreams``
    computes those draws for a whole range of trials at once, bit for bit.
    Its draws are those of ``np.random.Philox(key=[seed, stream])``.
    """
    seed, stream = int(seed), int(stream)
    if not (0 <= seed < SEED_LIMIT and 0 <= stream < SEED_LIMIT):
        raise ValueError(f"seed and stream must be in [0, 2**64), got {seed} and {stream}")
    return np.random.Generator(np.random.Philox(_philox_key()(seed, stream)))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11) as numpy's Philox bit generator runs it, bit for bit:
# ``philox_block`` returns exactly the draws of
# ``np.random.Philox(key=[seed, stream]).random_raw`` (tests/test_qcore.py),
# and ``TrialStreams`` applies the 53-bit conversion of ``Generator.random``.
#
# A round maps the counter (c0, c1, c2, c3) under the key (k0, k1) to
# (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), where
# hi and lo are the words of the 128-bit product, and the key steps by the
# Weyl increments (W0, W1) before every round but the first.
#
# Lanes: the kernel holds the multiplied words as one (2, n) array
# x = (c0, c2) and the other two as y = (c1, c3), so each ufunc of a round
# runs once over both lanes, into preallocated buffers.  The lanes cross
# every round: the new x is hi with its lanes swapped, ^ y ^ k, and the new
# y is lo with its lanes swapped.  The lane constants (M0, M1) are full
# (2, n) rows: against a broadcast (2, 1) column numpy leaves its
# contiguous loop, and a multiply took nearly twice as long at n = 2000.
#
# Folded round: round 1 multiplies the scalar counter (block + 1, 0, 0, 0),
# so it is computed on Python ints and leaves x = (seed, hi(M0 (block + 1))
# ^ stream), y = (0, lo(M0 (block + 1))); only the XOR with the stream
# indices is an array op.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Per lane: the multiplier, its high and low 32-bit halves, the increment.
_PHILOX_LANES = np.array(
    [_PHILOX_M, [m >> 32 for m in _PHILOX_M], [m & 0xFFFFFFFF for m in _PHILOX_M], _PHILOX_W],
    dtype=np.uint64,
)[:, :, None]
# 0-d operands: numpy converts a scalar operand on every ufunc call.
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_SHIFT53 = np.uint64(11)
_TWO_POW_M53 = 1.0 / 9007199254740992.0


def philox_block(seed: int, streams: np.ndarray, block: int) -> np.ndarray:
    """Raw 64-bit draws ``4*block .. 4*block+3`` of ``make_rng(seed, t)``
    for every ``t`` in ``streams``, as a (len(streams), 4) uint64 array.

    numpy's Philox increments its counter before each block, so draws
    ``4k .. 4k+3`` come from counter ``(k + 1, 0, 0, 0)``.  The array is
    the transpose of one row per word, so each draw's column is contiguous.
    """
    seed = check_seed(seed)
    streams = np.asarray(streams, dtype=np.uint64)
    n = streams.shape[0]
    first = _PHILOX_M[0] * (block + 1)  # round 1, M0 lane
    buf = np.empty((12, 2, n), dtype=np.uint64)
    np.copyto(buf[:4], _PHILOX_LANES)
    m, mh, ml, w, k, x, y, xl, hi, t, u, v = buf
    k[0], k[1] = seed, streams
    x[0] = seed
    np.bitwise_xor(streams, np.array(first >> 64, dtype=np.uint64), out=x[1])
    y[0], y[1] = 0, first & 0xFFFFFFFFFFFFFFFF
    for _ in range(_PHILOX_ROUNDS - 1):
        np.add(k, w, out=k)
        # hi(m * x) by a carry chain over 32-bit halves, in which no partial
        # product overflows: t = ml xl >> 32, u = mh xl + t,
        # v = ml xh + (u & L), hi = mh xh + (u >> 32) + (v >> 32)
        np.bitwise_and(x, _LOW32, out=xl)
        np.right_shift(x, _SHIFT32, out=hi)  # xh, which becomes hi in place
        np.multiply(ml, xl, out=t)
        np.right_shift(t, _SHIFT32, out=t)
        np.multiply(mh, xl, out=u)
        np.add(u, t, out=u)
        np.multiply(ml, hi, out=v)
        np.bitwise_and(u, _LOW32, out=t)
        np.add(v, t, out=v)
        np.multiply(mh, hi, out=hi)
        np.right_shift(u, _SHIFT32, out=u)
        np.add(hi, u, out=hi)
        np.right_shift(v, _SHIFT32, out=v)
        np.add(hi, v, out=hi)
        np.multiply(m, x, out=x)  # lo(m * x)
        np.bitwise_xor(hi[::-1], y, out=y)
        np.bitwise_xor(y, k, out=y)
        x, y = y, x[::-1]
    words = np.empty((4, n), dtype=np.uint64)
    words[0::2], words[1::2] = x, y
    return words.T


def _choose_each(uniforms: np.ndarray, probs, rows: np.ndarray | None = None) -> np.ndarray:
    """The outcome hook's rule (module docstring) for every row at once,
    row i deciding by ``uniforms[i]``; every weight must be >= 0.

    One row of weights is one ``searchsorted`` of the uniforms into the
    kept outcomes' sums.  Rows of weights, one per batch row or, with
    ``rows``, one per distinct state that row i reads at ``rows[i]``, are
    summed on the rows given with outcomes below ``MIN_BRANCH_PROB`` set to
    -inf, so that no uniform falls below them; one ``take`` gives every
    batch row its own sums, and one ``argmax`` of the hits its outcome.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim == 1:
        kept = np.flatnonzero(probs >= MIN_BRANCH_PROB)
        # A uniform past the last kept sum takes the likeliest outcome.
        return np.append(kept, probs.argmax())[
            np.add.accumulate(probs)[kept].searchsorted(uniforms, side="right")
        ]
    sums = np.add.accumulate(probs, axis=-1)
    sums[probs < MIN_BRANCH_PROB] = -np.inf
    hit = uniforms[:, None] < (sums if rows is None else sums.take(rows, axis=0))
    chosen = hit.argmax(axis=-1)
    # argmax names a row's first hit, or outcome 0 if it has none.
    found = hit[:, 0] | chosen.astype(bool)
    if not np.logical_and.reduce(found):  # only rows without a hit take the likeliest
        missed = np.flatnonzero(~found)
        chosen[missed] = probs.argmax(axis=-1).take(missed if rows is None else rows[missed])
    return chosen


class TrialStreams:
    """The streams ``make_rng(seed, t)`` for ``t`` in ``[start, stop)``,
    drawn side by side.

    The k-th call of ``random()`` returns, as a float array of length
    ``stop - start``, the value each trial's own generator returns on its
    k-th ``random()`` call.  Blocks of four draws are computed on demand
    and kept, read-only, 32 bytes per trial per block; ``reread()`` gives
    a second reader that starts again from draw 0 over the same blocks,
    so readers of one range compute each block once between them.
    """

    def __init__(self, seed: int, start: int, stop: int):
        if not 0 <= start <= stop <= SEED_LIMIT:
            raise ValueError(f"bad trial range [{start}, {stop})")
        self.seed = check_seed(seed)
        self.streams = np.arange(start, stop, dtype=np.uint64)
        self._drawn = 0
        self._blocks: list[np.ndarray] = []  # uniforms of each block so far, shared

    def __len__(self) -> int:
        return self.streams.shape[0]

    def random(self) -> np.ndarray:
        block, j = divmod(self._drawn, 4)
        if block == len(self._blocks):
            raw = philox_block(self.seed, self.streams, block)
            uniforms = (raw >> _SHIFT53) * _TWO_POW_M53
            uniforms.flags.writeable = False
            self._blocks.append(uniforms)
        self._drawn += 1
        return self._blocks[block][:, j]

    def reread(self) -> TrialStreams:
        """A reader of the same streams from draw 0, sharing this reader's
        blocks: a block either one computes is computed once for both."""
        other = copy.copy(self)
        other._drawn = 0
        return other

    def choose(self, probs, rows: np.ndarray | None = None) -> np.ndarray:
        return _choose_each(self.random(), probs, rows)


class Uniforms:
    """Pre-drawn uniforms, one row per batch row: the k-th call of
    ``random()`` returns column k of ``table``.

    A session draws each phase's uniforms from its one generator up front,
    in the order its groups would consume them one at a time, and hands
    them to the batched phase through this source.  Asking for more
    columns than were drawn raises, so a phase that consumes more draws
    than its table holds cannot read past it.
    """

    def __init__(self, table: np.ndarray):
        self.table = table
        self._drawn = 0

    def random(self) -> np.ndarray:
        if self._drawn == self.table.shape[1]:
            raise ValueError(f"all {self._drawn} pre-drawn uniform columns are used")
        self._drawn += 1
        return self.table[:, self._drawn - 1]

    def choose(self, probs, rows: np.ndarray | None = None) -> np.ndarray:
        return _choose_each(self.random(), probs, rows)

