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

A state may also be a batch: amplitudes of shape ``(B, 2**n)``, one
independent state per Monte Carlo trial, or per photon group of a session,
over the same qubit tuple.  The operations below accept single and batched
states alike.

Every random choice goes through one outcome hook, ``choose``, and gives
one outcome per batch row, as an int array: a Bell measurement's outcomes
index ``BELL_KINDS``.  The sources behind the hook are row sources:
``TrialStreams`` draws the per-trial uniforms, ``Uniforms`` hands out a
session's pre-drawn ones, and ``analysis`` replays the same code under
scripted outcomes to enumerate every history with exact weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-9

# Register cap; composing past it raises.  Sessions that would exceed it
# keep their groups in separate factors instead (see protocol.Register).
MAX_QUBITS = 12

# Outcomes less likely than this are never drawn and never enumerated.
MIN_BRANCH_PROB = 1e-12


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
        return f"BellKind({self.value!r})"


BELL_KINDS = (
    BellKind.PHI_PLUS,
    BellKind.PHI_MINUS,
    BellKind.PSI_PLUS,
    BellKind.PSI_MINUS,
)

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
    """

    qubits: tuple[int, ...]
    amps: np.ndarray

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
        """Number of states in a batch, or None for a single state."""
        return self.amps.shape[0] if self.amps.ndim == 2 else None

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


def _trusted(qubits: tuple[int, ...], amps: np.ndarray) -> StateVector:
    """Construct without re-validating; amps must be fresh and normalized."""
    sv = object.__new__(StateVector)
    amps.flags.writeable = False
    object.__setattr__(sv, "qubits", qubits)
    object.__setattr__(sv, "amps", amps)
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
    if amps.ndim == 1:
        norm = float(np.vdot(amps, amps).real)
    else:
        norms = np.einsum("bi,bi->b", amps.conj(), amps).real
        norm = float(norms[np.abs(norms - 1.0).argmax()]) if norms.size else 1.0
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(message.format(norm))
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
    the batch with one such state per entry.  Single states are cached.
    """
    if isinstance(kind, BellKind):
        return _bell_state(kind, a, b)
    return _trusted(_distinct(a, b), _BELL_VECTORS[np.asarray(kind)])


# The single-state cache, inspectable as on any lru_cache function.
make_bell.cache_info = _bell_state.cache_info


@lru_cache(maxsize=None)
def single_qubit(q: int, bit: int = 0) -> StateVector:
    """Fresh qubit prepared in |0> or |1>."""
    amps = np.zeros(2, dtype=complex)
    amps[bit] = 1.0
    return StateVector((int(q),), amps)


def compose(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product; qubit order is s1's followed by s2's.

    A single state composed with a batch is paired with every state in it.
    """
    shared = set(s1.qubits) & set(s2.qubits)
    if shared:
        raise QubitError(f"qubit sets overlap on {sorted(shared)}")
    if s1.n + s2.n > MAX_QUBITS:
        raise QubitError(f"{s1.n + s2.n} qubits exceeds the register cap of {MAX_QUBITS}")
    amps = s1.amps[..., :, None] * s2.amps[..., None, :]
    return _trusted(s1.qubits + s2.qubits, amps.reshape(amps.shape[:-2] + (-1,)))


def apply_single(state: StateVector, q: int, op: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to qubit ``q``.

    ``op`` may also be a ``(B, 2, 2)`` stack, one matrix per trial; applied
    to a single state it yields a batch.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (2, 2) or op.ndim > 3:
        raise ValueError(f"single-qubit operator must be 2x2 or (B, 2, 2), got {op.shape}")
    i = state.index_of(q)
    # Each state as (qubits before q, q, qubits after q); the leading
    # ellipsis pairs per-trial matrices with per-trial states.
    arr = state.amps.reshape(state.amps.shape[:-1] + (2**i, 2, 2 ** (state.n - i - 1)))
    arr = np.einsum("...xy,...lyr->...lxr", op, arr)
    return _trusted(state.qubits, _unit_norm(arr.reshape(arr.shape[:-3] + (-1,))))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` on the control=1 subspace."""
    if control == target:
        raise QubitError("control and target must differ")
    ic, it = state.index_of(control), state.index_of(target)
    lead = state.amps.ndim - 1  # the batch axis, if any
    arr = state.tensor().copy()
    sl = [slice(None)] * (lead + state.n)
    sl[lead + ic] = 1
    axis = lead + (it - 1 if it > ic else it)
    arr[tuple(sl)] = np.flip(arr[tuple(sl)], axis=axis)
    return _trusted(state.qubits, arr.reshape(state.amps.shape))


def _pair_projections(
    state: StateVector, a: int, b: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Project onto the Bell basis of ``(a, b)``.

    Returns the remaining qubit order, a (4, rest) array of unnormalized
    collapsed vectors indexed like BELL_KINDS, and the 4 probabilities;
    for a batch, (B, 4, rest) and (B, 4).
    """
    if a == b:
        raise QubitError("cannot Bell-measure a qubit against itself")
    ia, ib = state.index_of(a), state.index_of(b)
    rest = tuple(q for q in state.qubits if q != a and q != b)
    lead = state.amps.ndim - 1  # the batch axis, if any
    arr = np.moveaxis(state.tensor(), (lead + ia, lead + ib), (0, 1)).reshape(4, -1)
    projected = _BELL_BRA @ arr
    if not lead:
        probs = np.einsum("ij,ij->i", projected.conj(), projected).real
        return rest, projected, probs
    # The pair's axes went in front of the batch axis, so that one
    # (4, 4) @ (4, B * rest) product projected every state of the batch.
    projected = projected.reshape(4, state.amps.shape[0], -1).swapaxes(0, 1)
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
    branches = []
    for kind, vec, p in zip(BELL_KINDS, projected, probs):
        p = float(p)
        if p < MIN_BRANCH_PROB:
            continue
        collapsed = _trusted(rest, vec / math.sqrt(p))
        branches.append(Branch(prob=p, state=collapsed, kind=kind))
    return branches


def choose(rng, probs) -> np.ndarray:
    """The outcome hook: the index of the outcome that happens in each batch
    row, out of outcomes weighted ``probs``, as an int array.

    ``probs`` holds one weight per outcome, or one such row per batch row.
    ``TrialStreams`` and ``Uniforms`` take, in each row, the first
    non-negligible outcome whose cumulative weight exceeds that row's own
    uniform, or the likeliest one if rounding leaves the uniform past the
    end; ``analysis`` replays scripted outcomes.
    """
    return rng.choose(probs)


def sample_bell(
    state: StateVector, a: int, b: int, rng: TrialStreams | Uniforms
) -> tuple[np.ndarray, StateVector]:
    """Measure ``(a, b)`` in the Bell basis, the outcome drawn by ``choose``.

    The outcome is an int array indexing BELL_KINDS, one per batch row, and
    each row's rest collapses onto its own outcome; a single state gives
    a batch of collapsed states, one per row of the source.
    """
    rest, projected, probs = _pair_projections(state, a, b)
    chosen = choose(rng, probs)
    if probs.ndim == 1:  # one state, an outcome per row
        vecs, p = projected[chosen], probs[chosen]
    else:
        rows = np.arange(probs.shape[0])
        vecs, p = projected[rows, chosen], probs[rows, chosen]
    return chosen, _trusted(rest, vecs / np.sqrt(p)[:, None])


def kind_in(kind: np.ndarray, kinds) -> np.ndarray:
    """Whether each outcome, an int indexing BELL_KINDS, is one of ``kinds``."""
    return np.isin(kind, [BELL_KINDS.index(k) for k in kinds])


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


def equal_up_to_phase(s1: StateVector, s2: StateVector, tol: float = NORM_TOL) -> bool:
    """True iff the states agree up to a global phase."""
    return abs(overlap(s1, s2)) >= 1.0 - tol


def classify_bell(state: StateVector, tol: float = NORM_TOL) -> BellKind | None:
    """Bell kind of a two-qubit state, or None if it is not one."""
    if state.n != 2:
        raise QubitError(f"classification needs exactly 2 qubits, got {state.n}")
    for kind in BELL_KINDS:
        reference = make_bell(kind, *state.qubits)
        if abs(overlap(reference, state)) >= 1.0 - tol:
            return kind
    return None


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based deterministic generator keyed by (seed, stream).

    Stream indices split independent generators cheaply, so parallel work
    stays reproducible without sharing state.  Monte Carlo trial ``t``
    uses the leading draws of ``make_rng(seed, t)``; ``TrialStreams``
    computes those draws for a whole range of trials at once, bit for bit.
    """
    packed = np.array(
        [int(seed) % (1 << 64), int(stream) % (1 << 64)], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=packed))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11) as numpy's Philox bit generator runs it: multipliers, Weyl key
# increments, and the 53-bit conversion of ``Generator.random``.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT53 = np.uint64(11)
_TWO_POW_M53 = 1.0 / 9007199254740992.0


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m * x``, built
    from 32-bit halves so that no partial product overflows."""
    mh, ml = m >> _SHIFT32, m & _LOW32
    xh, xl = x >> _SHIFT32, x & _LOW32
    ll, lh, hl = ml * xl, ml * xh, mh * xl
    mid = (ll >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = mh * xh + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, m * x


def philox_block(seed: int, streams: np.ndarray, block: int) -> np.ndarray:
    """Raw 64-bit draws ``4*block .. 4*block+3`` of ``make_rng(seed, t)``
    for every ``t`` in ``streams``, as a (len(streams), 4) uint64 array.

    numpy's Philox increments its counter before each block, so draws
    ``4k .. 4k+3`` come from counter ``(k + 1, 0, 0, 0)``.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    n = streams.shape[0]
    c0 = np.full(n, block + 1, dtype=np.uint64)
    c1 = np.zeros(n, dtype=np.uint64)
    c2 = np.zeros(n, dtype=np.uint64)
    c3 = np.zeros(n, dtype=np.uint64)
    k0 = np.full(n, int(seed) % (1 << 64), dtype=np.uint64)
    k1 = streams.copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 += _PHILOX_W0
            k1 += _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def _choose_each(uniforms: np.ndarray, probs) -> np.ndarray:
    """``choose``'s rule for every row at once, row i deciding by
    ``uniforms[i]``."""
    probs = np.asarray(probs)
    hit = (uniforms[:, None] < np.cumsum(probs, axis=-1)) & (probs >= MIN_BRANCH_PROB)
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), probs.argmax(axis=-1))


class TrialStreams:
    """The streams ``make_rng(seed, t)`` for ``t`` in ``[start, stop)``,
    drawn side by side.

    The k-th call of ``random()`` returns, as a float array of length
    ``stop - start``, the value each trial's own generator returns on its
    k-th ``random()`` call.  Blocks of four draws are computed on demand.
    """

    def __init__(self, seed: int, start: int, stop: int):
        if not 0 <= start <= stop:
            raise ValueError(f"bad trial range [{start}, {stop})")
        self.seed = int(seed)
        self.streams = np.arange(start, stop, dtype=np.uint64)
        self._drawn = 0
        self._block: np.ndarray | None = None  # uniforms of the current block

    def __len__(self) -> int:
        return self.streams.shape[0]

    def random(self) -> np.ndarray:
        block, j = divmod(self._drawn, 4)
        if j == 0:
            raw = philox_block(self.seed, self.streams, block)
            self._block = (raw >> _SHIFT53) * _TWO_POW_M53
        self._drawn += 1
        return self._block[:, j]

    def choose(self, probs) -> np.ndarray:
        return _choose_each(self.random(), probs)


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

    def choose(self, probs) -> np.ndarray:
        return _choose_each(self.random(), probs)

