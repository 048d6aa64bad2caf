"""Channel adversaries: what Eve does to the travel photons between pair
preparation and the sender's receipt confirmation, the records she keeps,
and the inference rule she applies to the public announcements afterwards.

Every strategy acts group by group and touches only travel photons and
qubits Eve creates herself, never the receiver's kept photons.  Qubits Eve
injects take fresh ids; a group's travel slots are re-pointed at whatever
she forwards, matching the fact that the honest parties identify photons
by arrival order, not provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import qcore
from .bellmap import EncodingOp, apply_encoding, invert_encoding
from .protocol import Group, Register, SessionConfig, prepare_registers
from .qcore import BellKind


@unique
class AttackStrategy(Enum):
    NONE = "none"
    INTERCEPT_MEASURE_RESEND = "measure-resend"
    REPLACE_MEASURE_AFTER = "replace-after"
    REPLACE_MEASURE_BEFORE = "replace-before"
    ANCILLA_PASSIVE = "ancilla-passive"
    ANCILLA_CORRECTIVE = "ancilla-corrective"

    @classmethod
    def from_name(cls, name: str) -> "AttackStrategy":
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown strategy {name!r}; expected one of {known}") from None


# The sign-flip op restores the checking correlations broken by the two
# minus outcomes of the ancilla measurement; no other single coding op
# does (verified by brute force in the test suite).
CORRECTIVE_OP = EncodingOp.U1
CORRECTION_TRIGGER = frozenset({BellKind.PSI_MINUS, BellKind.PHI_MINUS})


@dataclass
class EveMemory:
    """Eve's session-local records, keyed by group index; never reads
    honest private outcomes.  Each outcome is an int array indexing
    BELL_KINDS, and each correction a bool array, one entry per batch row."""

    strategy: AttackStrategy
    applied: bool = False
    travel_outcomes: dict[int, np.ndarray] = field(default_factory=dict)
    cross_outcomes: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    ancilla_outcomes: dict[int, np.ndarray] = field(default_factory=dict)
    ancilla_qubits: dict[int, tuple[int, int]] = field(default_factory=dict)
    kept_replacement: dict[int, tuple[int, int]] = field(default_factory=dict)
    kept_originals: dict[int, tuple[int, int]] = field(default_factory=dict)
    replacement_outcomes: dict[int, np.ndarray] = field(default_factory=dict)
    corrections: dict[int, np.ndarray] = field(default_factory=dict)


def apply_attack(
    strategy: AttackStrategy,
    register: Register,
    groups: list[Group],
    rng: qcore.TrialStreams | qcore.Uniforms,
    memory: EveMemory,
) -> Register:
    """Interpose ``strategy`` on the travel channel, once per session.

    It acts on every batch row at once; ``rng`` gives one outcome per row,
    and the records hold them as row arrays.
    """
    if memory.applied:
        raise RuntimeError("attack already applied in this session")
    memory.applied = True
    if strategy is AttackStrategy.NONE:
        return register

    for g in sorted(groups, key=lambda g: g.index):
        t1, t2 = g.alice_qubits
        if strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND:
            # Measure the travel pair, then forward a fresh pair prepared
            # in the observed state.
            kind = register.measure_bell(t1, t2, rng)
            memory.travel_outcomes[g.index] = kind
            fresh = register.allocate(2)
            register.add(qcore.make_bell(kind, *fresh))
            g.alice_qubits = fresh
        elif strategy in (
            AttackStrategy.REPLACE_MEASURE_AFTER,
            AttackStrategy.REPLACE_MEASURE_BEFORE,
        ):
            # Substitute halves of Eve's own plus-type pairs for the
            # travel photons; she keeps the other halves and the originals.
            k1, f1, k2, f2 = register.allocate(4)
            register.add(qcore.make_bell(BellKind.PSI_PLUS, k1, f1))
            register.add(qcore.make_bell(BellKind.PSI_PLUS, k2, f2))
            memory.kept_originals[g.index] = (t1, t2)
            g.alice_qubits = (f1, f2)
            if strategy is AttackStrategy.REPLACE_MEASURE_BEFORE:
                # Immediately swap each kept half against the matching
                # intercepted photon.
                e1 = register.measure_bell(k1, t1, rng)
                e2 = register.measure_bell(k2, t2, rng)
                memory.cross_outcomes[g.index] = (e1, e2)
            else:
                memory.kept_replacement[g.index] = (k1, k2)
        elif strategy in (AttackStrategy.ANCILLA_PASSIVE, AttackStrategy.ANCILLA_CORRECTIVE):
            a1, a2 = register.allocate(2)
            register.add(qcore.single_qubit(a1))
            register.add(qcore.single_qubit(a2))
            register.apply_cnot(t1, a1)
            register.apply_cnot(t2, a2)
            memory.ancilla_qubits[g.index] = (a1, a2)
            if strategy is AttackStrategy.ANCILLA_CORRECTIVE:
                kind = register.measure_bell(a1, a2, rng)
                memory.ancilla_outcomes[g.index] = kind
                corrected = qcore.kind_in(kind, CORRECTION_TRIGGER)
                register.apply_single(t1, np.stack((qcore.U0, CORRECTIVE_OP.matrix)), corrected)
                memory.corrections[g.index] = corrected
        else:
            raise ValueError(f"unhandled strategy {strategy}")
    return register


@lru_cache(maxsize=None)
def attack_footprint(strategy: AttackStrategy) -> tuple[int, int]:
    """Uniforms drawn and fresh qubit ids allocated per group by
    ``strategy``, counted by running its attack once on one group.

    Every strategy treats each group alike, so a session of G groups
    draws G times as many, group after group.  The one-row source counts
    the uniforms it hands out; which outcomes they pick does not matter.
    """
    source = qcore.TrialStreams(0, 0, 1)
    register, groups = prepare_registers(SessionConfig(n_groups=1, n_checking=1))
    apply_attack(strategy, register, groups, source, EveMemory(strategy=strategy))
    # the group holds ids 1-4, so Eve's ids start at 5
    return source._drawn, register.allocate(1)[0] - 5


def finalize_attack(
    strategy: AttackStrategy,
    register: Register,
    groups: list[Group],
    memory: EveMemory,
    rng: qcore.TrialStreams | qcore.Uniforms,
) -> None:
    """Eve's deferred measurements once the announcements are public."""
    if strategy is AttackStrategy.REPLACE_MEASURE_AFTER:
        for g in sorted(groups, key=lambda g: g.index):
            kept = memory.kept_replacement.get(g.index)
            if kept is not None:
                memory.replacement_outcomes[g.index] = register.measure_bell(*kept, rng)


def eve_guess_bits(
    memory: EveMemory, groups: Sequence[int], alice: np.ndarray
) -> dict[int, np.ndarray | None]:
    """Eve's inference of the op encoded in each of ``groups``, from Alice's
    announced outcomes there (``alice``, one row of outcomes per group), as
    an int array indexing ENCODING_OPS with one guess per batch row, or
    None to abstain.

    With a recorded Bell outcome that seeds the swapped correlation she can
    invert the announcement; without one she abstains.  The ancilla
    outcomes are not inverted: a lone ancilla kind does not determine the
    pre-coding travel kind, so those strategies abstain by contract.
    """
    guesses: dict[int, np.ndarray | None] = {}
    for g, announced in zip(groups, alice):
        if (
            memory.strategy is AttackStrategy.INTERCEPT_MEASURE_RESEND
            and g in memory.travel_outcomes
        ):
            guesses[g] = invert_encoding(memory.travel_outcomes[g], announced)
        elif (
            memory.strategy is AttackStrategy.REPLACE_MEASURE_AFTER
            and g in memory.replacement_outcomes
        ):
            guesses[g] = invert_encoding(memory.replacement_outcomes[g], announced)
        else:
            guesses[g] = None
    return guesses
