"""Storage-form gate: the round run in every storage form of ``qcore``.

``qcore`` stores a batch as one state for every row, one state per row,
or distinct states plus a row index, by one rule (``qcore._indexes``)
whose ratio is ``qcore.INDEX_RATIO``.  Every form reads bit for bit the
same states, so every output of the round must be the same bytes in
each.  The gate runs the round with the ratio at 1 (index wherever a
step may), at its default and at 10**12 (never index), and compares,
for every strategy x encode target:

* the ``group_leaves`` arrays and guesses;
* the failure counts of ``monte_carlo(s, 256, 5)``;
* the JSON of a 256-group session with 56 checking groups, whose
  attack measurements keep indexed candidates at the default ratio.

Tests elsewhere pin which form one call returns; they are right to fail
at other ratios, so only this file runs the round at them.  Ratio 1 must
stay: with ``compose``'s indexed row code made ``s1.rows * u2 -
s2.rows``, the round raises there, while the default and 10**12 read
equal bytes.

``analysis.RANK_SPAN`` chooses, the same way, between two bit-identical
ranks of codes; ``enumerate_session_leaves(2, [1, 2], s)`` must give
equal leaves with it at 0 (always sort), its default and 10**12 (always
mark).  Leaf weights are finite and positive, so equal leaves are equal
bytes.
"""

import json
from collections import Counter, defaultdict

from qsdc_swap import analysis, qcore
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.analysis import enumerate_session_leaves, group_leaves, monte_carlo
from qsdc_swap.cli import text_to_bits
from qsdc_swap.protocol import EncodeTarget, SessionConfig, run_session

RATIOS = (1, qcore.INDEX_RATIO, 10**12)
SPANS = (0, analysis.RANK_SPAN, 10**12)

CELLS = [(s, t) for s in AttackStrategy for t in EncodeTarget]

# 400 bits: a word for each of the 200 encoding groups.
_BITS = text_to_bits("Deterministic secure direct communication by swap!")


def _leaves(strategy, target) -> tuple:
    leaves = group_leaves(strategy, encode_target=target)
    arrays = (leaves.prob, leaves.op, leaves.alice, leaves.bob, leaves.guess)
    return tuple(None if a is None else a.tobytes() for a in arrays)


def _failures(strategy, target) -> tuple:
    return tuple(monte_carlo(strategy, 256, 5, encode_target=target).failures.values())


def _session(strategy, target) -> str:
    # Compact JSON: ``to_json``'s indented form takes the pure-Python
    # encoder, four times as long for the same content.
    cfg = SessionConfig(256, 56, _BITS, encode_target=target, seed=22)
    return json.dumps(run_session(cfg, strategy).to_json_dict())


PARTS = {"leaves": _leaves, "monte carlo": _failures, "session": _session}


class Raised(str):
    """The reading of a call that raised: its exception's type and message."""


def read_forms(monkeypatch) -> tuple[dict, Counter]:
    """Each (part, strategy, target) cell's output at every ratio of
    RATIOS, a call that raises reading as ``Raised``; and the storage
    decisions that chose an index, by (ratio, part).  The ratio is back at
    its default on return."""
    readings, indexed = defaultdict(list), Counter()
    rule = qcore._indexes
    for ratio in RATIOS:
        monkeypatch.setattr(qcore, "INDEX_RATIO", ratio)
        for name, part in PARTS.items():

            def counted(distinct, rows, key=(ratio, name)):
                chosen = rule(distinct, rows)
                indexed[key] += chosen
                return chosen

            monkeypatch.setattr(qcore, "_indexes", counted)
            for strategy, target in CELLS:
                try:
                    got = part(strategy, target)
                except Exception as exc:
                    got = Raised(f"{type(exc).__name__}: {exc}")
                readings[name, strategy, target].append(got)
    monkeypatch.setattr(qcore, "_indexes", rule)
    monkeypatch.setattr(qcore, "INDEX_RATIO", RATIOS[1])
    return readings, indexed


def differing(readings: dict) -> dict[str, int]:
    """The parts whose bytes differ between the storage forms, each with
    its number of differing strategy x target cells."""
    return dict(Counter(name for (name, *_), got in readings.items() if len(set(got)) > 1))


def test_every_storage_form_reads_the_same_round(monkeypatch):
    readings, indexed = read_forms(monkeypatch)
    assert differing(readings) == {}
    assert not [got for got in readings.values() if any(isinstance(g, Raised) for g in got)]
    # Every part stores indexed batches at ratio 1 and at the default,
    # and none at 10**12, so the gate compares distinct storage paths.
    for name in PARTS:
        assert indexed[1, name] > indexed[qcore.INDEX_RATIO, name] > 0
        assert indexed[10**12, name] == 0


def test_every_rank_span_enumerates_the_same_leaves(monkeypatch):
    leaves = []
    for span in SPANS:
        monkeypatch.setattr(analysis, "RANK_SPAN", span)
        leaves.append([enumerate_session_leaves(2, [1, 2], s) for s in AttackStrategy])
    assert leaves[0] == leaves[1] == leaves[2]
