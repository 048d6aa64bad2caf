"""Fault-injection matrix: plant one plausible bug at a time and measure
that a gate catches it.

Each row plants its fault with ``monkeypatch``.  A fault in a function is
planted at every module binding of that function in the package, since
``from ... import`` copies the binding into the importing module.

The gate here is the tree route against the swap-algebra route, which
agree to 1e-9 on working code (``tests/test_analysis.py``).  Each row
names the least gap its fault must open in some strategy x predicate
cell.  Routes that shared the faulty code would stay equal and the row
would fail.
"""

import sys

import pytest

from qsdc_swap import bellmap, protocol
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import detection_from_swap_algebra, exact_detection
from qsdc_swap.protocol import DetectionPredicate

ROUTE_TOL = 1e-9


def _rebind(monkeypatch, original, replacement) -> None:
    """Point every binding of ``original`` in the package at ``replacement``."""
    bound = []
    for name, module in list(sys.modules.items()):
        if name == "qsdc_swap" or name.startswith("qsdc_swap."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    bound.append(f"{name}.{attr}")
    assert bound, f"no binding of {original!r} in the package"


def _check_ignores_announced_op(monkeypatch) -> None:
    """Bob's check reads U0's correlation column whatever op Alice announced."""
    check_passes = protocol.check_passes

    def faulty(predicate, op, bob, alice):
        return check_passes(DetectionPredicate.STRICT_U0, op, bob, alice)

    _rebind(monkeypatch, check_passes, faulty)


def _swapped_algebra_columns(monkeypatch) -> None:
    """The swap-algebra route's int-coded correlation table holds U1's
    column where U2's belongs and U2's where U1's belongs."""
    columns = bellmap.correlation_columns()
    faulty = columns[[0, 2, 1, 3]]
    faulty.flags.writeable = False
    _rebind(monkeypatch, bellmap.correlation_columns, lambda: faulty)


def _swapped_decode_entry(monkeypatch) -> None:
    """Bob's decoding table decodes (phi+, phi+) to U1 and (phi+, phi-) to
    U0, each the other's op."""
    table = bellmap._decode_map().copy()
    table[0, [0, 1]] = table[0, [1, 0]]
    table.flags.writeable = False
    _rebind(monkeypatch, bellmap._decode_map, lambda: table)


def _route_gap() -> float:
    """The largest |tree - algebra| detection gap over every strategy x
    predicate cell."""
    return max(
        abs(exact_detection(s, p) - detection_from_swap_algebra(s, p))
        for s in AttackStrategy
        for p in DetectionPredicate
    )


# Each row: how to plant the fault, and the least route gap it must open.
FAULTS = {
    "check ignores the announced op": (_check_ignores_announced_op, 0.5),
    "algebra route's correlation columns swapped": (_swapped_algebra_columns, 0.5),
    "one decoding-table entry swapped": (_swapped_decode_entry, 0.124),
}


@pytest.mark.parametrize(("plant", "least_gap"), FAULTS.values(), ids=FAULTS.keys())
def test_route_gate_catches_fault(monkeypatch, plant, least_gap):
    assert _route_gap() < ROUTE_TOL
    plant(monkeypatch)
    assert _route_gap() >= least_gap
