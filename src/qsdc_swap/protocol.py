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

The phase calls run a batch of rows at once: the groups of one session,
or the independent trials of ``analysis.monte_carlo``.  Factors then hold
batched states, the RNG is a ``qcore.Uniforms`` or ``qcore.TrialStreams``
that gives every row its own uniforms, and drawn ops and Bell outcomes
are int arrays indexing ``ENCODING_OPS`` and ``BELL_KINDS``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import qcore
from .bellmap import ENCODING_OPS, OP_MATRICES, EncodingOp, decode_op, is_correlated, op_for_bits
from .qcore import BELL_KINDS, BellKind, StateVector


@unique
class GroupRole(Enum):
    CHECKING = "checking"
    ENCODING = "encoding"


@unique
class Verdict(Enum):
    CLEAN = "clean"
    EVE_DETECTED = "eve-detected"
    ABORTED = "aborted"


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


def check_passes(
    predicate: DetectionPredicate, op: EncodingOp, bob: BellKind, alice: BellKind
) -> bool:
    """Bob's per-group comparison of announced and measured outcomes; one
    bool per trial for batched outcomes."""
    if predicate is DetectionPredicate.ANNOUNCED_OP:
        return is_correlated(op, bob, alice)
    return is_correlated(EncodingOp.U0, bob, alice)


UNIFORM_POLICY: Mapping[EncodingOp, float] = MappingProxyType(
    {op: 0.25 for op in ENCODING_OPS}
)


def single_op_policy(op: EncodingOp) -> Mapping[EncodingOp, float]:
    return MappingProxyType({op: 1.0})


def check_policy(policy: Mapping[EncodingOp, float]) -> None:
    """Reject a checking-op policy that is not a probability distribution
    over ``EncodingOp`` members."""
    for key in policy:
        if not isinstance(key, EncodingOp):
            raise ValueError(
                f"checking op policy keys must be EncodingOp members, got {key!r}"
            )
    total = sum(policy.values())
    if abs(total - 1.0) > 1e-9 or any(w < 0 for w in policy.values()):
        raise ValueError("checking op policy must be a probability distribution")


def draw_op(
    policy: Mapping[EncodingOp, float], rng: np.random.Generator | qcore.TrialStreams
) -> EncodingOp | np.ndarray:
    """The op drawn from ``policy`` through the outcome hook ``qcore.choose``.

    An outcome source that draws per trial gives an int array indexing
    ENCODING_OPS, one op per trial.
    """
    weights = [policy.get(op, 0.0) for op in ENCODING_OPS]
    if max(weights) <= 0.0:
        raise ValueError("op policy has no positive weight")
    chosen = qcore.choose(rng, weights)
    return chosen if isinstance(chosen, np.ndarray) else ENCODING_OPS[chosen]


@dataclass
class Group:
    """One photon group: Bob's kept pair plus Alice's travel slots.

    ``alice_qubits`` names whatever currently occupies the group's two
    travel positions; an interposed adversary may re-point it.
    """

    index: int
    bob_qubits: tuple[int, int]
    alice_qubits: tuple[int, int]
    role: GroupRole | None = None

    def travel_photon(self, target: EncodeTarget) -> int:
        if target is EncodeTarget.FIRST_TRAVEL_PHOTON:
            return self.alice_qubits[0]
        return self.alice_qubits[1]


@dataclass(frozen=True)
class CheckingAnnouncement:
    group_index: int
    op: EncodingOp
    alice_outcome: BellKind


@dataclass(frozen=True)
class EncodingAnnouncement:
    group_index: int
    alice_outcome: BellKind


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
        check_policy(self.checking_op_policy)

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

    Factors may be batched states (one per trial); single-state factors
    then act as the same state in every trial.
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
        clash = [q for q in sv.qubits if q in self._home]
        if clash:
            raise qcore.QubitError(f"register already holds {sorted(clash)}")
        key = self._next_key
        self._next_key += 1
        self._factors[key] = sv
        for q in sv.qubits:
            self._home[q] = key
        self._next_qubit = max(self._next_qubit, max(sv.qubits) + 1)
        self.touched |= set(sv.qubits)

    def allocate(self, k: int) -> tuple[int, ...]:
        """Reserve ``k`` fresh qubit ids; ids are never reused."""
        ids = tuple(range(self._next_qubit, self._next_qubit + k))
        self._next_qubit += k
        return ids

    def clone(self) -> "Register":
        other = Register()
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
        for key, sv in self._factors.items():
            if sv.batch is not None:
                other._factors[key] = StateVector(sv.qubits, sv.amps[rows])
        return other

    def _key_of(self, q: int) -> int:
        try:
            return self._home[q]
        except KeyError:
            raise qcore.QubitError(f"qubit {q} is not in the register") from None

    def _merge(self, qubits: Iterable[int]) -> int:
        keys = sorted({self._key_of(q) for q in qubits})
        main = keys[0]
        sv = self._factors[main]
        for key in keys[1:]:
            sv = qcore.compose(sv, self._factors[key])
            del self._factors[key]
        self._factors[main] = sv
        for q in sv.qubits:
            self._home[q] = main
        return main

    def factor_state(self, *qubits: int) -> StateVector:
        """The (merged) factor holding the given qubits."""
        return self._factors[self._merge(qubits)]

    def apply_single(
        self, q: int, matrix: np.ndarray, where: bool | np.ndarray = True
    ) -> None:
        """Apply ``matrix`` to ``q`` if ``where`` holds; a bool array
        applies it only in the trials of a batch where it is True."""
        if isinstance(where, np.ndarray):
            matrix = np.where(where[:, None, None], matrix, qcore.U0)
        elif not where:
            return
        self.touched.add(q)
        key = self._key_of(q)
        self._factors[key] = qcore.apply_single(self._factors[key], q, matrix)

    def apply_cnot(self, control: int, target: int) -> None:
        self.touched |= {control, target}
        key = self._merge((control, target))
        self._factors[key] = qcore.apply_cnot(self._factors[key], control, target)

    def _drop_pair(self, key: int, a: int, b: int, collapsed: StateVector) -> None:
        del self._home[a]
        del self._home[b]
        if collapsed.n:
            self._factors[key] = collapsed
        else:
            del self._factors[key]

    def measure_bell(
        self, a: int, b: int, rng: np.random.Generator | qcore.TrialStreams
    ) -> BellKind | np.ndarray:
        """Sample a Bell measurement of ``(a, b)`` and collapse in place."""
        self.touched |= {a, b}
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

    def compose_all(self) -> StateVector:
        """Single tensor over every factor (subject to the qubit cap)."""
        factors = sorted(self._factors.values(), key=lambda sv: min(sv.qubits))
        if not factors:
            raise ValueError("register is empty")
        total = factors[0]
        for sv in factors[1:]:
            total = qcore.compose(total, sv)
        return total


def build_groups(n_groups: int) -> list[Group]:
    """Photon layout: group g keeps (4g-3, 4g-1), travels (4g-2, 4g)."""
    return [
        Group(g + 1, (4 * g + 1, 4 * g + 3), (4 * g + 2, 4 * g + 4)) for g in range(n_groups)
    ]


def prepare_session(cfg: SessionConfig) -> tuple[StateVector, list[Group]]:
    """Global initial state (tensor of plus-type pairs) plus the group map."""
    register, groups = prepare_registers(cfg)
    return register.compose_all(), groups


def prepare_registers(cfg: SessionConfig) -> tuple[Register, list[Group]]:
    """Initial session register, one factor per EPR pair."""
    return _pair_register(cfg.n_groups), build_groups(cfg.n_groups)


def _pair_register(n_groups: int) -> Register:
    return Register(
        qcore.make_bell(BellKind.PSI_PLUS, 2 * pair - 1, 2 * pair)
        for pair in range(1, 2 * n_groups + 1)
    )


def partition_groups(
    groups: Sequence[Group], n_checking: int, rng: np.random.Generator
) -> list[Group]:
    """Assign roles: ``n_checking`` groups drawn uniformly become checking."""
    if not 0 <= n_checking <= len(groups):
        raise ValueError(f"n_checking {n_checking} outside [0, {len(groups)}]")
    chosen = set(rng.permutation(len(groups))[:n_checking].tolist())
    return [
        Group(
            g.index,
            g.bob_qubits,
            g.alice_qubits,
            GroupRole.CHECKING if i in chosen else GroupRole.ENCODING,
        )
        for i, g in enumerate(groups)
    ]


@dataclass
class CheckingResult:
    """What the checking phase announced and measured; in a batched run
    ops, outcomes and ``passed`` hold one entry per trial."""

    announcements: list[CheckingAnnouncement]
    bob_outcomes: dict[int, BellKind]
    passed: dict[int, bool]

    @property
    def clean(self) -> bool | np.ndarray:
        """Whether every checking group passed, per trial for a batch."""
        return np.logical_and.reduce(list(self.passed.values()))

    @property
    def verdict(self) -> Verdict:
        return Verdict.CLEAN if self.clean else Verdict.EVE_DETECTED


@dataclass
class EncodingResult:
    announcements: list[EncodingAnnouncement]
    bob_outcomes: dict[int, BellKind]


def run_checking(
    register: Register,
    groups: Sequence[Group],
    rng: np.random.Generator,
    *,
    policy: Mapping[EncodingOp, float] = UNIFORM_POLICY,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
    predicate: DetectionPredicate = DetectionPredicate.ANNOUNCED_OP,
) -> CheckingResult:
    """Checking phase: Alice codes, measures and announces every checking
    group in order; Bob then measures his counterparts and compares."""
    checking = [g for g in groups if g.role is GroupRole.CHECKING]
    announcements = []
    for g in checking:
        op = draw_op(policy, rng)
        matrix = op.matrix if isinstance(op, EncodingOp) else OP_MATRICES[op]
        register.apply_single(g.travel_photon(encode_target), matrix)
        outcome = register.measure_bell(*g.alice_qubits, rng)
        announcements.append(CheckingAnnouncement(g.index, op, outcome))
    bob_outcomes: dict[int, BellKind] = {}
    passed: dict[int, bool] = {}
    for g, ann in zip(checking, announcements):
        bob = register.measure_bell(*g.bob_qubits, rng)
        bob_outcomes[g.index] = bob
        passed[g.index] = check_passes(predicate, ann.op, bob, ann.alice_outcome)
    return CheckingResult(announcements, bob_outcomes, passed)


def run_encoding(
    register: Register,
    groups: Sequence[Group],
    message_bits: str | Sequence[str],
    rng: np.random.Generator,
    *,
    encode_target: EncodeTarget = EncodeTarget.SECOND_TRAVEL_PHOTON,
) -> EncodingResult:
    """Encoding phase: two message bits per group via the coding ops, then
    Alice's announcements followed by Bob's measurements.  A batch takes
    either one message for every row or a sequence of one per row."""
    encoding = [g for g in groups if g.role is GroupRole.ENCODING]
    messages = [message_bits] if isinstance(message_bits, str) else message_bits
    for bits in messages:
        if len(bits) != 2 * len(encoding):
            raise ValueError(f"{len(bits)} bits do not fill {len(encoding)} encoding groups")
    announcements = []
    for i, g in enumerate(encoding):
        words = [bits[2 * i : 2 * i + 2] for bits in messages]
        if isinstance(message_bits, str):
            matrix = op_for_bits(words[0]).matrix
        else:
            matrix = OP_MATRICES[[ENCODING_OPS.index(op_for_bits(w)) for w in words]]
        register.apply_single(g.travel_photon(encode_target), matrix)
        outcome = register.measure_bell(*g.alice_qubits, rng)
        announcements.append(EncodingAnnouncement(g.index, outcome))
    bob_outcomes: dict[int, BellKind] = {}
    for g in encoding:
        bob_outcomes[g.index] = register.measure_bell(*g.bob_qubits, rng)
    return EncodingResult(announcements, bob_outcomes)


def decode_message(
    announcements: Sequence[EncodingAnnouncement], bob_outcomes: Mapping[int, BellKind]
) -> str:
    """Concatenated codewords recovered from the paired outcomes."""
    bits = []
    for ann in sorted(announcements, key=lambda a: a.group_index):
        if ann.group_index not in bob_outcomes:
            raise ValueError(f"no receiver outcome for group {ann.group_index}")
        bits.append(decode_op(bob_outcomes[ann.group_index], ann.alice_outcome).bits)
    return "".join(bits)


@dataclass
class SessionTranscript:
    """Observable history of one session.

    A verdict other than clean means the session stopped before encoding,
    so ``encoding`` is empty and no message bits were transmitted.
    """

    groups: list[Group]
    checking: list[CheckingAnnouncement]
    checking_bob: dict[int, BellKind]
    checking_passed: dict[int, bool]
    verdict: Verdict
    encoding: list[EncodingAnnouncement]
    encoding_bob: dict[int, BellKind]
    decoded_bits: str

    def redecode(self) -> str:
        """Re-derive the message from announcements and Bob's outcomes."""
        return decode_message(self.encoding, self.encoding_bob)

    def to_json_dict(self) -> dict:
        return {
            "groups": [
                {
                    "index": g.index,
                    "bob": list(g.bob_qubits),
                    "alice": list(g.alice_qubits),
                    "role": g.role.value if g.role else None,
                }
                for g in self.groups
            ],
            "checking": [
                {
                    "group": ann.group_index,
                    "op": ann.op.value,
                    "alice": ann.alice_outcome.value,
                    "bob": self.checking_bob[ann.group_index].value,
                    "passed": self.checking_passed[ann.group_index],
                }
                for ann in self.checking
            ],
            "encoding": [
                {
                    "group": ann.group_index,
                    "alice": ann.alice_outcome.value,
                    "bob": self.encoding_bob[ann.group_index].value,
                }
                for ann in self.encoding
            ],
            "verdict": self.verdict.value,
            "decoded_bits": self.decoded_bits,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "SessionTranscript":
        """Inverse of ``to_json_dict``; malformed input raises ValueError
        naming the first missing or invalid field."""
        groups = []
        for i, g in enumerate(_field(data, "groups", "", list)):
            where = f"groups[{i}]."
            groups.append(
                Group(
                    index=_field(g, "index", where),
                    bob_qubits=_field(g, "bob", where, tuple),
                    alice_qubits=_field(g, "alice", where, tuple),
                    role=_field(g, "role", where, _optional_role),
                )
            )
        checking = []
        checking_bob = {}
        checking_passed = {}
        for i, entry in enumerate(_field(data, "checking", "", list)):
            where = f"checking[{i}]."
            group = _field(entry, "group", where)
            checking.append(
                CheckingAnnouncement(
                    group,
                    _field(entry, "op", where, EncodingOp),
                    _field(entry, "alice", where, BellKind),
                )
            )
            checking_bob[group] = _field(entry, "bob", where, BellKind)
            checking_passed[group] = _field(entry, "passed", where)
        encoding = []
        encoding_bob = {}
        for i, entry in enumerate(_field(data, "encoding", "", list)):
            where = f"encoding[{i}]."
            group = _field(entry, "group", where)
            encoding.append(
                EncodingAnnouncement(group, _field(entry, "alice", where, BellKind))
            )
            encoding_bob[group] = _field(entry, "bob", where, BellKind)
        return SessionTranscript(
            groups=groups,
            checking=checking,
            checking_bob=checking_bob,
            checking_passed=checking_passed,
            verdict=_field(data, "verdict", "", Verdict),
            encoding=encoding,
            encoding_bob=encoding_bob,
            decoded_bits=_field(data, "decoded_bits", ""),
        )


def _optional_role(value) -> GroupRole | None:
    return GroupRole(value) if value else None


def _field(entry, key: str, where: str, parse=None):
    """``entry[key]``, through ``parse`` if given; malformed input raises a
    ValueError naming the field as ``where + key``."""
    try:
        value = entry[key]
    except (KeyError, TypeError, IndexError):
        raise ValueError(f"transcript field {where + key!r} is missing") from None
    if parse is None:
        return value
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"transcript field {where + key!r} is invalid: {exc}") from None


def run_session(cfg: SessionConfig, strategy=None) -> SessionTranscript:
    """One full session with an optional adversary on the travel channel.

    The adversary acts once, after preparation and before Alice's receipt
    confirmation; the encoding phase runs only on a clean verdict.  Each
    phase runs once, on a template group whose batch rows are the groups
    it covers, and takes uniforms drawn up front from the config seed in
    the order that running the groups one at a time would consume them
    (README, Determinism), so the transcript is the one-at-a-time one.
    """
    from . import adversary

    if strategy is None:
        strategy = adversary.AttackStrategy.NONE
    rng = qcore.make_rng(cfg.seed)
    draws, fresh = adversary.attack_footprint(strategy)

    register, (template,) = _pair_register(1), build_groups(1)
    adversary.apply_attack(
        strategy,
        register,
        [template],
        qcore.Uniforms(rng.random((cfg.n_groups, draws))),
        adversary.EveMemory(strategy=strategy),
    )
    groups = partition_groups(
        _session_groups(cfg.n_groups, template.alice_qubits, fresh), cfg.n_checking, rng
    )
    checking = [g for g in groups if g.role is GroupRole.CHECKING]
    encoding = [g for g in groups if g.role is GroupRole.ENCODING]

    announcements: list[CheckingAnnouncement] = []
    checking_bob: dict[int, BellKind] = {}
    passed: dict[int, bool] = {}
    if checking:
        # Alice's (op, outcome) pair per group, then Bob's outcome per group.
        uniforms = np.column_stack([rng.random((len(checking), 2)), rng.random(len(checking))])
        chk = run_checking(
            register.take([g.index - 1 for g in checking]),
            [replace(template, role=GroupRole.CHECKING)],
            qcore.Uniforms(uniforms),
            policy=cfg.checking_op_policy,
            encode_target=cfg.encode_target,
            predicate=cfg.predicate,
        )
        (ann,) = chk.announcements
        rows = zip(
            checking,
            ann.op.tolist(),
            ann.alice_outcome.tolist(),
            chk.bob_outcomes[1].tolist(),
            chk.passed[1].tolist(),
        )
        for g, op, alice, bob, ok in rows:
            announcements.append(
                CheckingAnnouncement(g.index, ENCODING_OPS[op], BELL_KINDS[alice])
            )
            checking_bob[g.index] = BELL_KINDS[bob]
            passed[g.index] = ok
    verdict = Verdict.CLEAN if all(passed.values()) else Verdict.EVE_DETECTED

    enc_announcements: list[EncodingAnnouncement] = []
    encoding_bob: dict[int, BellKind] = {}
    decoded = ""
    if verdict is Verdict.CLEAN and encoding:
        bits = cfg.message_bits
        # Alice's outcome per group, then Bob's outcome per group.
        enc = run_encoding(
            register.take([g.index - 1 for g in encoding]),
            [replace(template, role=GroupRole.ENCODING)],
            [bits[i : i + 2] for i in range(0, len(bits), 2)],
            qcore.Uniforms(rng.random((2, len(encoding))).T),
            encode_target=cfg.encode_target,
        )
        (ann,) = enc.announcements
        rows = zip(encoding, ann.alice_outcome.tolist(), enc.bob_outcomes[1].tolist())
        for g, alice, bob in rows:
            enc_announcements.append(EncodingAnnouncement(g.index, BELL_KINDS[alice]))
            encoding_bob[g.index] = BELL_KINDS[bob]
        decoded = decode_message(enc_announcements, encoding_bob)

    return SessionTranscript(
        groups=groups,
        checking=announcements,
        checking_bob=checking_bob,
        checking_passed=passed,
        verdict=verdict,
        encoding=enc_announcements,
        encoding_bob=encoding_bob,
        decoded_bits=decoded,
    )


def _session_groups(
    n_groups: int, template_alice: tuple[int, int], fresh: int
) -> list[Group]:
    """The session's groups, each pointing at its own copies of the
    template's travel qubits: template id q <= 4 is group g's
    ``4(g-1) + q``, and Eve's ids, ``fresh`` per group, follow the 4G
    honest ones in group order, as one-at-a-time allocation hands them out.
    """
    # group g's copy of q is first + step * (g - 1)
    (first1, step1), (first2, step2) = (
        (q, 4) if q <= 4 else (4 * n_groups + q - 4, fresh) for q in template_alice
    )
    groups = build_groups(n_groups)
    for i, g in enumerate(groups):
        g.alice_qubits = (first1 + step1 * i, first2 + step2 * i)
    return groups
