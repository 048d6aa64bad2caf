"""The eight-step session between Bob (prepares pairs, verifies, decodes)
and Alice (encodes, measures, announces).

Bob prepares plus-type EPR pairs, keeps the odd photons two-per-group, and
sends the even photons down the travel channel in order.  Alice groups the
arrivals the same way, sacrifices a random subset of groups to check the
channel, and encodes two bits per surviving group with a local coding
operation before measuring and announcing.  Bob measures his halves and
compares (checking groups) or decodes (encoding groups).

A session's groups are independent copies of one four-qubit round, so
``run_session`` runs each phase once on a template group whose batch rows
are the session's groups.  Its state lives in a `Register`, a pool of
product-state factors that merge only when an operation spans them, so a
group's state stays four qubits plus whatever Eve adds, and sessions of
any length stay inside the per-factor qubit cap.

The phases run the groups they are given on a batch of rows at once: the
groups of one session, or the independent trials of
``analysis.monte_carlo``.  Factors then hold batched states, and the
outcome source (a ``qcore.Uniforms``, a ``qcore.TrialStreams`` or the
exact routes' replay script) gives one outcome per row.  Each phase
returns the table of records a transcript keeps, ``CheckingRecords`` or
``EncodingRecords``: the (groups,) group indices beside (groups, rows)
columns of ints indexing ``ENCODING_OPS`` and ``BELL_KINDS``.

The session's record, ``SessionTranscript``, keeps those tables with one
record per group, beside a group table.  It decodes, writes and reads
the JSON transcript (README, Library use) a column at a time, without
building one object per group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum, unique
from functools import lru_cache
from itertools import chain
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import qcore
from .adversary import AttackStrategy, EveMemory, apply_attack
from .bellmap import ENCODING_OPS, OP_MATRICES, EncodingOp, invert_encoding, is_correlated
from .qcore import BELL_KINDS, BellKind, StateVector


@unique
class GroupRole(Enum):
    CHECKING = "checking"
    ENCODING = "encoding"


@unique
class Verdict(Enum):
    CLEAN = "clean"
    EVE_DETECTED = "eve-detected"


@unique
class EncodeTarget(Enum):
    """Which travel photon of a group receives the coding op."""

    FIRST_TRAVEL_PHOTON = "first"
    SECOND_TRAVEL_PHOTON = "second"


@unique
class DetectionPredicate(Enum):
    """How Bob scores a checking group.

    ANNOUNCED_OP looks the joint outcome up in the column of the announced
    op.  STRICT_U0 ignores the announcement and demands the identity-op
    correlation; it exists for sensitivity analysis and false-alarms on
    honest traffic whenever the checking policy draws non-identity ops.
    """

    ANNOUNCED_OP = "announced-op"
    STRICT_U0 = "strict-u0"


def check_member(kind: type[Enum], value):
    """``value`` if it is a member of the enum ``kind``, else a ValueError
    naming it: a member's string value is not the member."""
    if not isinstance(value, kind):
        raise ValueError(f"expected a {kind.__name__} member, got {value!r}")
    return value


def check_passes(
    predicate: DetectionPredicate, op: np.ndarray, bob: np.ndarray, alice: np.ndarray
) -> np.ndarray:
    """Bob's per-group comparison of announced and measured outcomes, as
    codes indexing ENCODING_OPS and BELL_KINDS: one bool per trial."""
    if check_member(DetectionPredicate, predicate) is DetectionPredicate.STRICT_U0:
        op = ENCODING_OPS.index(EncodingOp.U0)
    return is_correlated(op, bob, alice)


UNIFORM_POLICY: Mapping[EncodingOp, float] = MappingProxyType(
    {op: 0.25 for op in ENCODING_OPS}
)


def single_op_policy(op: EncodingOp) -> Mapping[EncodingOp, float]:
    return MappingProxyType({op: 1.0})


def policy_weights(policy: Mapping[EncodingOp, float]) -> list[float]:
    """The weights of a checking-op policy in ENCODING_OPS order; a
    ValueError unless it is a probability distribution over ``EncodingOp``
    members."""
    for key in policy:
        if not isinstance(key, EncodingOp):
            raise ValueError(
                f"checking op policy keys must be EncodingOp members, got {key!r}"
            )
    weights = list(policy.values())
    # A NaN weight fails 0 <= w; without that test it would pass the sum test.
    if not all(0 <= w < math.inf for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("checking op policy must be a probability distribution")
    return [policy.get(op, 0.0) for op in ENCODING_OPS]


def draw_op(
    policy: Mapping[EncodingOp, float], rng: qcore.TrialStreams | qcore.Uniforms
) -> np.ndarray:
    """The op drawn from ``policy`` by the outcome hook ``rng.choose``, as
    an int array indexing ENCODING_OPS, one op per batch row."""
    return rng.choose(policy_weights(policy))


@dataclass
class Group:
    """One photon group: Bob's kept pair plus Alice's travel slots.

    ``alice_qubits`` names whatever currently occupies the group's two
    travel positions; an interposed adversary may re-point it.
    """

    index: int
    bob_qubits: tuple[int, int]
    alice_qubits: tuple[int, int]

    def travel_photon(self, target: EncodeTarget) -> int:
        first = check_member(EncodeTarget, target) is EncodeTarget.FIRST_TRAVEL_PHOTON
        return self.alice_qubits[0 if first else 1]


@dataclass(frozen=True)
class SessionConfig:
    n_groups: int
    n_checking: int
    message_bits: str = ""
    checking_op_policy: Mapping[EncodingOp, float] = field(
        default_factory=lambda: UNIFORM_POLICY
    )
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_groups", "n_checking", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        qcore.check_seed(self.seed)
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        if not 0 <= self.n_checking <= self.n_groups:
            raise ValueError(
                f"n_checking {self.n_checking} outside [0, {self.n_groups}]"
            )
        if not isinstance(self.message_bits, str) or any(c not in "01" for c in self.message_bits):
            raise ValueError("message bits must be a 0/1 string")
        if len(self.message_bits) != self.capacity:
            raise ValueError(
                f"message of {len(self.message_bits)} bits does not match "
                f"capacity {self.capacity}"
            )
        policy_weights(self.checking_op_policy)
        check_member(EncodeTarget, self.encode_target)
        check_member(DetectionPredicate, self.predicate)

    @property
    def n_encoding(self) -> int:
        return self.n_groups - self.n_checking

    @property
    def capacity(self) -> int:
        return 2 * self.n_encoding


class Register:
    """Pool of disjoint state-vector factors addressed by qubit id.

    Factors merge lazily when an operation spans two of them and shrink as
    measured pairs drop out, so independent groups never inflate each
    other's tensors.  ``touched`` records every qubit an operation has
    addressed, which lets tests audit an adversary's reach.

    Factors may be batched, one row per trial, group of a session or
    enumerated history; single-state factors then act as the same state in
    every row.  How a batched factor is stored, one state per row or its
    distinct states plus a row index, is ``qcore``'s business: the
    register only tracks which factor holds which qubit, and every
    operation is one ``qcore`` call on that factor.  ``factor_state``
    gives the batch row by row either way.
    """

    def __init__(self, states: Iterable[StateVector] = ()):
        self._factors: dict[int, StateVector] = {}
        self._home: dict[int, int] = {}
        self._next_key = 0
        self._next_qubit = 1
        self.touched: set[int] = set()
        for sv in states:
            self.add(sv)

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(self._home)

    def add(self, sv: StateVector) -> None:
        clash = self._home.keys() & sv.qubits
        if clash:
            raise qcore.QubitError(f"register already holds {sorted(clash)}")
        key = self._next_key
        self._next_key += 1
        self._factors[key] = sv
        self._home.update(dict.fromkeys(sv.qubits, key))
        self._next_qubit = max(self._next_qubit, max(sv.qubits) + 1)
        self.touched.update(sv.qubits)

    def allocate(self, k: int) -> tuple[int, ...]:
        """Reserve ``k`` fresh qubit ids; ids are never reused."""
        ids = tuple(range(self._next_qubit, self._next_qubit + k))
        self._next_qubit += k
        return ids

    def clone(self) -> "Register":
        other = object.__new__(Register)
        other._factors = dict(self._factors)
        other._home = dict(self._home)
        other._next_key = self._next_key
        other._next_qubit = self._next_qubit
        other.touched = set(self.touched)
        return other

    def take(self, rows: Sequence[int]) -> "Register":
        """The register restricted to ``rows`` of its batch: batched factors
        keep those rows, single-state factors are shared."""
        other = self.clone()
        other._factors = {key: sv.take(rows) for key, sv in self._factors.items()}
        return other

    def _key_of(self, q: int) -> int:
        try:
            return self._home[q]
        except KeyError:
            raise qcore.QubitError(f"qubit {q} is not in the register") from None

    def _merge(self, qubits: Iterable[int]) -> int:
        """The key of the one factor that holds ``qubits``: the factors they
        span, composed in key order under the lowest key."""
        keys = sorted(set(map(self._key_of, qubits)))
        main = keys[0]
        if len(keys) > 1:
            sv = self._factors[main]
            for key in keys[1:]:
                sv = qcore.compose(sv, self._factors.pop(key))
            self._factors[main] = sv
            self._home.update(dict.fromkeys(sv.qubits, main))
        return main

    def factor_state(self, *qubits: int) -> StateVector:
        """The (merged) factor holding the given qubits, one state per batch
        row if it is batched."""
        return self._factors[self._merge(qubits)].per_row()

    def apply_single(self, q: int, op: np.ndarray, codes: np.ndarray | None = None) -> None:
        """Apply the 2x2 ``op`` to ``q``; with ``codes``, one int per batch
        row, ``op`` is a (K, 2, 2) table and row r gets ``op[codes[r]]``."""
        self.touched.add(q)
        key = self._key_of(q)
        self._factors[key] = qcore.apply_single(self._factors[key], q, op, codes)

    def apply_cnot(self, control: int, target: int) -> None:
        self.touched.update((control, target))
        key = self._merge((control, target))
        self._factors[key] = qcore.apply_cnot(self._factors[key], control, target)

    def _drop_pair(self, key: int, a: int, b: int, collapsed: StateVector) -> None:
        del self._home[a]
        del self._home[b]
        if collapsed.qubits:
            self._factors[key] = collapsed
        else:
            del self._factors[key]

    def measure_bell(
        self, a: int, b: int, rng: qcore.TrialStreams | qcore.Uniforms
    ) -> np.ndarray:
        """Sample a Bell measurement of ``(a, b)`` through
        ``qcore.sample_bell``, one outcome per batch row as an int array
        indexing BELL_KINDS, and collapse in place."""
        self.touched.update((a, b))
        key = self._merge((a, b))
        kind, collapsed = qcore.sample_bell(self._factors[key], a, b, rng)
        self._drop_pair(key, a, b, collapsed)
        return kind

    def enumerate_bell(self, a: int, b: int) -> list[tuple[float, "Register", BellKind]]:
        """All nonzero outcomes of measuring ``(a, b)``, as register clones."""
        key = self._merge((a, b))
        out = []
        for branch in qcore.bell_branches(self._factors[key], a, b):
            reg = self.clone()
            reg._drop_pair(key, a, b, branch.state)
            out.append((branch.prob, reg, branch.kind))
        return out


def build_groups(n_groups: int) -> list[Group]:
    """Photon layout: group g keeps (4g-3, 4g-1), travels (4g-2, 4g)."""
    return [
        Group(g + 1, (4 * g + 1, 4 * g + 3), (4 * g + 2, 4 * g + 4)) for g in range(n_groups)
    ]


def prepare_registers(cfg: SessionConfig) -> tuple[Register, list[Group]]:
    """Initial session register, one factor per EPR pair."""
    return _pair_register(cfg.n_groups), build_groups(cfg.n_groups)


def _pair_register(n_groups: int) -> Register:
    return _prepared_pairs(n_groups).clone()


@lru_cache(maxsize=16)
def _prepared_pairs(n_groups: int) -> Register:
    """The initial register of ``n_groups`` groups, which only ``clone`` reads."""
    return Register(
        qcore.make_bell(BellKind.PSI_PLUS, 2 * pair - 1, 2 * pair)
        for pair in range(1, 2 * n_groups + 1)
    )


def partition_groups(n_groups: int, n_checking: int, rng: np.random.Generator) -> np.ndarray:
    """True for the ``n_checking`` of ``n_groups`` groups that one
    ``rng.permutation`` draw makes checking."""
    if not 0 <= n_checking <= n_groups:
        raise ValueError(f"n_checking {n_checking} outside [0, {n_groups}]")
    mask = np.zeros(n_groups, dtype=bool)
    mask[rng.permutation(n_groups)[:n_checking]] = True
    return mask


def run_checking(
    register: Register,
    groups: Sequence[Group],
    rng: qcore.TrialStreams | qcore.Uniforms,
    *,
    policy: Mapping[EncodingOp, float] = UNIFORM_POLICY,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
) -> CheckingRecords:
    """Checking phase on ``groups``: Alice codes, measures and announces
    each group in order; Bob then measures his counterparts and compares.

    ``rng`` gives one outcome per batch row, so the records' ``group`` is
    (n,) for the n groups given and every other column is (n, rows).
    """
    ops, alice = [], []
    for g in groups:
        ops.append(draw_op(policy, rng))
        register.apply_single(g.travel_photon(encode_target), OP_MATRICES, ops[-1])
        alice.append(register.measure_bell(*g.alice_qubits, rng))
    bob = [register.measure_bell(*g.bob_qubits, rng) for g in groups]
    op, alice, bob = (np.array(column, dtype=np.intp) for column in (ops, alice, bob))
    passed = check_passes(predicate, op, bob, alice)
    return CheckingRecords(_indices(groups), op, alice, bob, passed)


def _indices(groups: Sequence[Group]) -> np.ndarray:
    return np.array([g.index for g in groups], dtype=np.intp)


# The index into ENCODING_OPS of each two-bit word.
_WORD_OPS = {op.bits: i for i, op in enumerate(ENCODING_OPS)}


def _words(bits: str) -> Iterator[str]:
    """The two-bit words of ``bits``, in order."""
    return map(str.__add__, bits[::2], bits[1::2])


def run_encoding(
    register: Register,
    groups: Sequence[Group],
    message_bits: str | Sequence[str],
    rng: qcore.TrialStreams | qcore.Uniforms,
    *,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> EncodingRecords:
    """Encoding phase on ``groups``: two message bits per group via the
    coding ops, then Alice's announcements followed by Bob's measurements,
    as (n,) group indices and (n, rows) outcome columns.  A batch takes
    either one message for every row or a sequence of one per row."""
    single = isinstance(message_bits, str)
    messages = [message_bits] if single else message_bits
    if not set(map(len, messages)) <= {2 * len(groups)}:
        bits = next(bits for bits in messages if len(bits) != 2 * len(groups))
        raise ValueError(f"{len(bits)} bits do not fill {len(groups)} encoding groups")
    text = "".join(messages)
    try:
        ops = np.fromiter(map(_WORD_OPS.__getitem__, _words(text)), np.intp, len(text) // 2)
    except KeyError as exc:
        raise ValueError(f"no coding op for word {exc.args[0]!r}") from None
    ops = ops.reshape(len(messages), len(groups))
    alice = []
    for i, g in enumerate(groups):
        q = g.travel_photon(encode_target)
        if single:
            register.apply_single(q, OP_MATRICES[ops[0, i]])
        else:
            register.apply_single(q, OP_MATRICES, ops[:, i])
        alice.append(register.measure_bell(*g.alice_qubits, rng))
    bob = [register.measure_bell(*g.bob_qubits, rng) for g in groups]
    return EncodingRecords(_indices(groups), *(np.array(c, dtype=np.intp) for c in (alice, bob)))


# The codeword of each op, indexed like ENCODING_OPS.
_CODEWORDS = np.array([op.bits for op in ENCODING_OPS], dtype=object)
_CODEWORDS.flags.writeable = False


def decode_message(bob: np.ndarray, alice: np.ndarray) -> str | list[str]:
    """The codewords Bob decodes from his and Alice's outcomes, aligned
    columns indexing BELL_KINDS, concatenated in column order: a str for
    (E,) columns, one str per row for (E, rows) columns."""
    if np.shape(bob) != np.shape(alice):
        raise ValueError(
            f"receiver outcomes of shape {np.shape(bob)} do not pair with "
            f"announced outcomes of shape {np.shape(alice)}"
        )
    words = _CODEWORDS[invert_encoding(bob, alice)]
    if words.ndim == 1:
        return "".join(words.tolist())
    return list(map("".join, words.T.tolist()))


# A group's role in a transcript's group table is a code indexing ROLES.
ROLES = (GroupRole.CHECKING, GroupRole.ENCODING)
_CHECKING_ROLE, _ENCODING_ROLE = ROLES.index(GroupRole.CHECKING), ROLES.index(GroupRole.ENCODING)


def _only(values: Sequence, types: set, what: str) -> None:
    """Raise TypeError unless the type of every value is one of ``types``
    (exactly: a bool is no int)."""
    if not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise TypeError(f"expected {what}, got {bad!r}")


def _ints(values: Sequence) -> np.ndarray:
    _only(values, {int}, "an integer")
    return np.fromiter(values, np.int64, len(values))


def _pairs(values: Sequence) -> np.ndarray:
    _only(values, {list, tuple}, "a pair of integers")
    if not set(map(len, values)) <= {2}:
        bad = next(v for v in values if len(v) != 2)
        raise TypeError(f"expected a pair of integers, got {bad!r}")
    return _ints(list(chain.from_iterable(values))).reshape(-1, 2)


def _flags(values: Sequence) -> np.ndarray:
    _only(values, {bool}, "true or false")
    return np.fromiter(values, bool, len(values))


class _Column(NamedTuple):
    """How a column reads and writes its JSON values: ``load`` turns a
    sequence of values into the column, raising TypeError or ValueError on
    any value it does not accept, and ``dump`` inverts it."""

    load: Callable[[Sequence], np.ndarray]
    dump: Callable[[np.ndarray], list] = np.ndarray.tolist


def _coded(members: Sequence) -> _Column:
    """A column of enum members, held as indices into ``members`` and
    written as their values."""
    values = [m.value for m in members]
    codes = {value: code for code, value in enumerate(values)}

    def load(items: Sequence) -> np.ndarray:
        try:
            return np.fromiter(map(codes.__getitem__, items), np.intp, len(items))
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not one of {values}") from None

    return _Column(load, lambda column: list(map(values.__getitem__, column.tolist())))


_INT, _PAIR, _FLAG = _Column(_ints), _Column(_pairs), _Column(_flags)
_ROLE, _OP, _KIND = _coded(ROLES), _coded(ENCODING_OPS), _coded(BELL_KINDS)


class _Table:
    """Equal-length columns, one per dataclass field, that are a list of
    JSON records keyed by the field names; ``kinds`` holds each column's
    ``_Column`` in field order."""

    kinds: tuple[_Column, ...]

    def __len__(self) -> int:
        return len(_layout(type(self)).columns(self)[0])

    def rows(self) -> Iterator[tuple]:
        """Each record's JSON values, in field order."""
        columns = _layout(type(self)).columns(self)
        return zip(*[kind.dump(column) for kind, column in zip(self.kinds, columns)])

    @classmethod
    def from_json(cls, records: list):
        layout = _layout(cls)
        columns = list(zip(*map(layout.values, records))) or [()] * len(layout.keys)
        return cls(*[kind.load(column) for kind, column in zip(cls.kinds, columns)])


class _Layout(NamedTuple):
    keys: tuple[str, ...]  # the field names
    columns: Callable  # a table's columns, in field order
    values: Callable  # a JSON record's values, in field order


@lru_cache(maxsize=None)
def _layout(table: type) -> _Layout:
    keys = tuple(f.name for f in fields(table))
    return _Layout(keys, attrgetter(*keys), itemgetter(*keys))


@dataclass(eq=False)
class GroupTable(_Table):
    """A session's groups: ``index`` (G,), Bob's kept qubits and Alice's
    travel slots (G, 2), and ``role`` (G,) indexing ``ROLES``."""

    index: np.ndarray
    bob: np.ndarray
    alice: np.ndarray
    role: np.ndarray
    kinds = (_INT, _PAIR, _PAIR, _ROLE)


@dataclass(eq=False)
class CheckingRecords(_Table):
    """What Alice announced and Bob measured for each checking group, in
    group order: ``op`` indexes ENCODING_OPS, ``alice`` and ``bob`` index
    BELL_KINDS, and ``passed`` is Bob's comparison."""

    group: np.ndarray
    op: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    passed: np.ndarray
    kinds = (_INT, _OP, _KIND, _KIND, _FLAG)


@dataclass(eq=False)
class EncodingRecords(_Table):
    """Alice's announced and Bob's measured outcome for each encoding
    group, in group order, indexing BELL_KINDS."""

    group: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    kinds = (_INT, _KIND, _KIND)


_TABLES = (("groups", GroupTable), ("checking", CheckingRecords), ("encoding", EncodingRecords))


@dataclass(eq=False)
class SessionTranscript:
    """Observable history of one session, held as columns (README,
    Library use); compare transcripts through ``to_json_dict``.

    A verdict other than clean means the session stopped before encoding,
    so ``encoding`` is empty and no message bits were transmitted.
    """

    groups: GroupTable
    checking: CheckingRecords
    encoding: EncodingRecords
    verdict: Verdict
    decoded_bits: str

    @property
    def checking_passed(self) -> dict[int, bool]:
        """Whether each checking group passed, by group index."""
        return dict(zip(self.checking.group.tolist(), self.checking.passed.tolist()))

    @property
    def encoding_bob(self) -> dict[int, BellKind]:
        """Bob's outcome for each encoding group, by group index."""
        bob = [BELL_KINDS[b] for b in self.encoding.bob.tolist()]
        return dict(zip(self.encoding.group.tolist(), bob))

    def redecode(self) -> str:
        """Re-derive the message from announcements and Bob's outcomes,
        taking the encoding groups in index order."""
        order = self.encoding.group.argsort(kind="stable")
        return decode_message(self.encoding.bob[order], self.encoding.alice[order])

    def to_json_dict(self) -> dict:
        return {
            "groups": [
                {"index": index, "bob": bob, "alice": alice, "role": role}
                for index, bob, alice, role in self.groups.rows()
            ],
            "checking": [
                {"group": group, "op": op, "alice": alice, "bob": bob, "passed": passed}
                for group, op, alice, bob, passed in self.checking.rows()
            ],
            "encoding": [
                {"group": group, "alice": alice, "bob": bob}
                for group, alice, bob in self.encoding.rows()
            ],
            "verdict": self.verdict.value,
            "decoded_bits": self.decoded_bits,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "SessionTranscript":
        """Inverse of ``to_json_dict``, reading each column in one step.
        Malformed input raises ValueError naming the first missing or
        invalid field, and so does a transcript that no session writes
        (``_check_session``)."""
        try:
            tables = [table.from_json(_records(data[name])) for name, table in _TABLES]
            transcript = SessionTranscript(
                *tables, Verdict(data["verdict"]), _bits(data["decoded_bits"])
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            _name_bad_field(data)
            raise ValueError(f"transcript is invalid: {exc}") from None
        _check_session(transcript)
        return transcript


def _check_session(transcript: SessionTranscript) -> None:
    """Raise a ValueError naming a field unless the transcript's fields
    agree as ``run_session`` writes them: groups indexed 1..n in order,
    with Bob's qubit ids laid out by ``_slot_rule``; one checking record
    per checking-role group and, on a clean verdict only, one encoding
    record per encoding-role group, each in index order; a clean verdict
    exactly when every check passed; and ``decoded_bits`` the decoding of
    the encoding records."""
    groups, checking, encoding = transcript.groups, transcript.checking, transcript.encoding
    index = groups.index
    misplaced = np.flatnonzero(index != np.arange(1, len(index) + 1))
    if misplaced.size:
        i = int(misplaced[0])
        raise ValueError(
            f"transcript field 'groups[{i}].index' is invalid: expected {i + 1}, got {index[i]}"
        )
    # Bob's slots do not depend on the attack, so the honest rule gives them.
    step, base = _slot_rule((2, 4), 0, len(index))
    bob = index[:, None] * step[:2] + base[:2]
    if (groups.bob != bob).any():
        i = int((groups.bob != bob).any(axis=1).argmax())
        raise ValueError(
            f"transcript field 'groups[{i}].bob' is invalid: "
            f"expected {bob[i].tolist()}, got {groups.bob[i].tolist()}"
        )
    checks = groups.role == _CHECKING_ROLE
    _check_groups("checking", checking.group, index[checks])
    clean = transcript.verdict is Verdict.CLEAN
    if clean != checking.passed.all():
        if clean:
            raise ValueError(
                f"transcript field 'checking[{checking.passed.argmin()}].passed' is "
                "invalid: a failed check under a clean verdict"
            )
        raise ValueError(
            f"transcript field 'verdict' is invalid: {transcript.verdict.value!r} "
            "although every check passed"
        )
    _check_groups("encoding", encoding.group, index[~checks] if clean else index[:0])
    decoded = decode_message(encoding.bob, encoding.alice)
    if transcript.decoded_bits != decoded:
        raise ValueError(
            f"transcript field 'decoded_bits' is invalid: the encoding records "
            f"decode to {decoded!r}"
        )


def _check_groups(name: str, got: np.ndarray, expected: np.ndarray) -> None:
    """Raise a ValueError naming the first record of the ``name`` records
    whose group is not the one ``expected`` lists there."""
    if got.shape == expected.shape and (got == expected).all():
        return
    n = min(len(got), len(expected))
    differ = np.flatnonzero(got[:n] != expected[:n])
    i = int(differ[0]) if differ.size else n
    want, have = (f"group {c[i]}" if i < len(c) else "no record" for c in (expected, got))
    raise ValueError(
        f"transcript field '{name}[{i}].group' is invalid: expected {want}, got {have}"
    )


def _records(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _bits(value) -> str:
    if not isinstance(value, str) or not set(value) <= {"0", "1"}:
        raise ValueError(f"expected a 0/1 string, got {value!r}")
    return value


def _name_bad_field(data) -> None:
    """Check ``data`` field by field, each value as a column of one, and
    raise a ValueError naming the first missing or invalid field."""
    for name, table in _TABLES:
        for i, entry in enumerate(_field(data, name, "", _records)):
            for key, kind in zip(_layout(table).keys, table.kinds):
                _field(entry, key, f"{name}[{i}].", lambda value: kind.load([value]))
    _field(data, "verdict", "", Verdict)
    _field(data, "decoded_bits", "", _bits)


def _field(entry, key: str, where: str, check):
    """``entry[key]``; a ValueError names the field ``where + key`` if
    ``entry`` lacks ``key`` or ``check`` rejects its value."""
    try:
        value = entry[key]
    except (KeyError, TypeError, IndexError):
        raise ValueError(f"transcript field {where + key!r} is missing") from None
    try:
        check(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"transcript field {where + key!r} is invalid: {exc}") from None
    return value


@lru_cache(maxsize=None)
def attack_footprint(strategy: AttackStrategy) -> tuple[int, int]:
    """Uniforms drawn and fresh qubit ids allocated per group by
    ``strategy``, counted by running its attack once on one group.

    Every strategy treats each group alike, so a session of G groups
    draws G times as many, group after group.  The one-row source counts
    the uniforms it hands out; which outcomes they pick does not matter.
    """
    source = qcore.TrialStreams(0, 0, 1)
    register = _pair_register(1)
    apply_attack(strategy, register, build_groups(1), source, EveMemory())
    # the group holds ids 1-4, so Eve's ids start at 5
    return source._drawn, register.allocate(1)[0] - 5


def run_session(cfg: SessionConfig, strategy=AttackStrategy.NONE) -> SessionTranscript:
    """One full session with an optional adversary on the travel channel.

    The adversary acts once, after preparation and before Alice's receipt
    confirmation; the encoding phase runs only on a clean verdict.  Each
    phase runs once, on a template group whose batch rows are the groups
    it covers, and takes uniforms drawn up front from the config seed in
    the order that running the groups one at a time would consume them
    (README, Determinism), so the transcript is the one-at-a-time one.
    """
    n = cfg.n_groups
    rng = qcore.make_rng(cfg.seed)
    draws, fresh = attack_footprint(strategy)

    register, (template,) = _pair_register(1), build_groups(1)
    apply_attack(
        strategy, register, [template], qcore.Uniforms(rng.random((n, draws))), EveMemory()
    )
    mask = partition_groups(n, cfg.n_checking, rng)
    groups = _group_table(mask, template.alice_qubits, fresh)
    k = cfg.n_checking
    # The groups of each role in index order.
    order = (~mask).argsort(kind="stable")
    checking, encoding = order[:k], order[k:]
    e = n - k
    # The rest of the draws at once, in the order the phases read them:
    # Alice's (op, outcome) pair per checking group, then Bob's outcome per
    # checking group, then Alice's outcome per encoding group, then Bob's.
    # A session that fails the check leaves the encoding ones unread.
    drawn = rng.random(3 * k + 2 * e)
    alice_checks, bob_checks = drawn[: 2 * k].reshape(k, 2), drawn[2 * k : 3 * k, None]
    encodings = drawn[3 * k :].reshape(2, e).T

    # A phase that covers every group runs on the register itself, which
    # no later phase reads.
    (checked, encoded), decoded = _no_records(), ""
    verdict = Verdict.CLEAN
    if k:
        chk = run_checking(
            register if k == n else register.take(checking),
            [template],
            qcore.Uniforms(np.concatenate((alice_checks, bob_checks), axis=1)),
            policy=cfg.checking_op_policy,
            encode_target=cfg.encode_target,
            predicate=cfg.predicate,
        )
        # The template group's one record per row is a record per group.
        checked = CheckingRecords(checking + 1, chk.op[0], chk.alice[0], chk.bob[0], chk.passed[0])
        if not checked.passed.all():
            verdict = Verdict.EVE_DETECTED

    if verdict is Verdict.CLEAN and e:
        bits = cfg.message_bits
        enc = run_encoding(
            register if e == n else register.take(encoding),
            [template],
            list(_words(bits)),
            qcore.Uniforms(encodings),
            encode_target=cfg.encode_target,
        )
        encoded = EncodingRecords(encoding + 1, enc.alice[0], enc.bob[0])
        decoded = decode_message(encoded.bob, encoded.alice)
    return SessionTranscript(groups, checked, encoded, verdict, decoded)


def _group_table(mask: np.ndarray, template_alice: tuple[int, int], fresh: int) -> GroupTable:
    """The group table of a session whose checking groups are ``mask``."""
    index = np.arange(1, len(mask) + 1)
    step, base = _slot_rule(template_alice, fresh, len(mask))
    slots = index[:, None] * step + base
    role = np.where(mask, _CHECKING_ROLE, _ENCODING_ROLE)
    return GroupTable(index, slots[:, :2], slots[:, 2:], role)


@lru_cache(maxsize=64)
def _slot_rule(
    template_alice: tuple[int, int], fresh: int, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """(step, base) of the qubit ids in Bob's kept slots and Alice's travel
    slots: group g's ids are ``base + step * g``.

    Bob keeps 4g-3 and 4g-1 of group g.  Its travel slots hold its own
    copies of the template's travel qubits: template id q <= 4 is group
    g's ``4(g-1) + q``, and Eve's ids, ``fresh`` per group, follow the 4G
    honest ones in group order, as one-at-a-time allocation hands them out.
    """
    rule = [(4, 1), (4, 3)]
    rule += [(4, q) if q <= 4 else (fresh, 4 * n_groups + q - 4) for q in template_alice]
    step, first = (np.array(column) for column in zip(*rule))
    base = first - step
    step.flags.writeable = base.flags.writeable = False
    return step, base


def _no_records() -> tuple[CheckingRecords, EncodingRecords]:
    """Empty checking and encoding records."""
    none = np.zeros(0, dtype=np.intp)
    checking = CheckingRecords(none, none, none, none, none.astype(bool))
    return checking, EncodingRecords(none, none, none)
