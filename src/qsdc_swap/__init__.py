"""Simulator and analysis harness for a deterministic secure direct
communication protocol built on entanglement swapping and two-bit local
unitary coding."""

from .adversary import AttackStrategy, EveMemory, apply_attack, eve_guess_bits
from .bellmap import (
    ENCODING_OPS,
    EncodingOp,
    apply_encoding,
    correlation_table,
    decode_op,
    invert_encoding,
    is_correlated,
    swap_decompose,
)
from .protocol import (
    DetectionPredicate,
    EncodeTarget,
    Group,
    GroupRole,
    Register,
    SessionConfig,
    SessionTranscript,
    Verdict,
    decode_message,
    partition_groups,
    run_session,
)
from .qcore import (
    BELL_KINDS,
    BellKind,
    Branch,
    StateVector,
    apply_cnot,
    apply_single,
    bell_branches,
    compose,
    make_bell,
    make_rng,
    overlap,
    sample_bell,
)

__version__ = "0.1.0"
