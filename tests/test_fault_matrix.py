"""Fault-injection matrix: plant one plausible bug at a time and measure
that a gate catches it.

Each row plants its fault with ``monkeypatch``.  A fault in a function is
planted at every module binding of that function in the package, since
``from ... import`` copies the binding into the importing module.

Two gates, each pinned per row as catching or missing the fault:

* the route gate: the tree route against the swap-algebra route, which
  agree to 1e-9 on working code (``tests/test_analysis.py``).  A row that
  it catches names the least gap its fault must open in some strategy x
  predicate cell; routes that shared the faulty code would stay equal.
* the honest Monte Carlo gate: ``monte_carlo(NONE, 256, 5)``, the
  honest channel, fails no announced-op check on working code.  A row
  pins the failures its fault gives there, or 0 where the gate misses it.

Rows and the gates that catch them:

* the check ignores the announced op: both gates;
* the algebra route's correlation columns swapped: the route gate only,
  as the sampled round never reads the algebra route's table;
* one decoding-table entry swapped: both gates;
* the kept-candidate index of ``qcore._collapse`` shifted by one: the
  honest Monte Carlo gate only.  The route gap stays that of working
  code (5.6e-16), though the tree route's replays collapse through the
  shifted index (10 calls in one pass of the gate).
"""

import sys

import pytest

from qsdc_swap import bellmap, protocol, qcore
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import detection_from_swap_algebra, exact_detection, monte_carlo
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


def _shifted_candidate_index(monkeypatch) -> None:
    """A measured batch's kept-candidate index names the next candidate,
    cyclically, so each such row collapses onto its neighbour's state."""
    collapse = qcore._collapse

    def faulty(rest, vecs, p, rows=None):
        return collapse(rest, vecs, p, None if rows is None else (rows + 1) % len(vecs))

    _rebind(monkeypatch, collapse, faulty)


def _route_gap() -> float:
    """The largest |tree - algebra| detection gap over every strategy x
    predicate cell."""
    return max(
        abs(exact_detection(s, p) - detection_from_swap_algebra(s, p))
        for s in AttackStrategy
        for p in DetectionPredicate
    )


def _honest_failures() -> int:
    """Announced-op check failures in 256 sampled honest-channel rounds."""
    result = monte_carlo(AttackStrategy.NONE, 256, 5)
    return result.failures[DetectionPredicate.ANNOUNCED_OP]


# Each row: how to plant the fault, the least route gap it must open (None
# where the route gate misses it), and its honest Monte Carlo failures.
FAULTS = {
    "check ignores the announced op": (_check_ignores_announced_op, 0.5, 190),
    "algebra route's correlation columns swapped": (_swapped_algebra_columns, 0.5, 0),
    "one decoding-table entry swapped": (_swapped_decode_entry, 0.124, 24),
    "kept-candidate index shifted by one": (_shifted_candidate_index, None, 213),
}


@pytest.mark.parametrize(
    ("plant", "least_gap", "honest_failures"), FAULTS.values(), ids=FAULTS.keys()
)
def test_gates_catch_fault(monkeypatch, plant, least_gap, honest_failures):
    assert _route_gap() < ROUTE_TOL and _honest_failures() == 0
    plant(monkeypatch)
    if least_gap is None:
        assert _route_gap() < ROUTE_TOL
    else:
        assert _route_gap() >= least_gap
    assert _honest_failures() == honest_failures
