"""The three workloads: input generation from a seed, one timed pass of
fixed work, and the output gate applied to everything a pass produces.

Each workload exercises a different layer of the program:

* ``mc-sweep`` is the published sweep report through ``cli.main``; nearly
  all of it is per-trial Monte Carlo sampling (one ``make_rng`` and one
  small ``Register`` per trial), with almost no enumeration.
* ``sessions`` is a stream of whole ``run_session`` calls with mixed sizes
  and settings, each followed by the transcript JSON round trip; one RNG
  per session and registers with hundreds of factors.
* ``exact`` samples nothing: tree enumeration, swap algebra, the
  identities gate and whole-session leaf enumeration.  It never calls
  ``make_rng``.

A pass returns the timed duration of each operation it ran, measured with
``refspeed.clock`` so that the speed probe's own time is left out (checks
are done outside the timed region), and records a failure for every
operation whose output fails a check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from qsdc_swap import analysis, cli, protocol
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.bellmap import ENCODING_OPS
from qsdc_swap.protocol import (
    UNIFORM_POLICY,
    DetectionPredicate,
    EncodeTarget,
    SessionConfig,
    SessionTranscript,
    Verdict,
    single_op_policy,
)
from refspeed import clock

STRATEGIES = tuple(AttackStrategy)
PREDICATES = tuple(DetectionPredicate)
TARGETS = tuple(EncodeTarget)
POLICIES = (("uniform", UNIFORM_POLICY),) + tuple(
    (op.value, single_op_policy(op)) for op in ENCODING_OPS
)
# n_groups=2 with checking sets [], [1] and [1, 2]; replace-before with
# [1, 2] is the one input whose breadth-first branch list is large.
LEAF_CHECKING_SETS = ((), (1,), (1, 2))
LEAF_GROUPS = 2

EXACT_TOL = 1e-12  # against the table frozen from the program
ROUTE_TOL = 1e-9  # tree route against swap algebra
MC_SIGMAS = 5.0

# Sweep trials per strategy in one mc-sweep pass; the published report
# uses 20000, which would leave room for one pass per run.
SWEEP_TRIALS = 2000

# Sessions per pass, by n_groups: enough that a pass holds at least ten
# sessions beyond p99.  Each count is a multiple of the 24 strategy x
# predicate x target combinations, so every size class holds each
# combination equally often and the slowest sessions (never-aborting
# combinations at 256 groups) are the same share of every seed's pass.
SESSION_MIX = ((4, 528), (32, 384), (256, 96))

FROZEN_PATH = Path(__file__).with_name("frozen.json")


def detection_key(strategy, predicate, target, policy_name: str) -> str:
    return f"{strategy.value}|{predicate.value}|{target.value}|{policy_name}"


def route_key(strategy, target) -> str:
    return f"{strategy.value}|{target.value}"


def leaves_key(strategy, checking) -> str:
    return f"{strategy.value}|{','.join(map(str, checking))}"


def leaf_summary(leaves, message_bits: str) -> dict:
    """Count, total weight, detection and correct-decoding probabilities."""
    total = detected = decoded = 0.0
    for leaf in leaves:
        total += leaf.prob
        if leaf.verdict is Verdict.EVE_DETECTED:
            detected += leaf.prob
        elif leaf.decoded_bits == message_bits:
            decoded += leaf.prob
    return {"count": len(leaves), "total": total, "p_detected": detected, "p_decoded": decoded}


@dataclass
class Gate:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


@dataclass
class PassResult:
    durations: list[float]  # one per timed operation
    work: int  # trials, session groups or leaves done in the pass

    @property
    def wall(self) -> float:
        return sum(self.durations)


# ---------------------------------------------------------------------------
# mc-sweep
# ---------------------------------------------------------------------------


class McSweep:
    """``cli.main(["--mode", "sweep", ...])``, the published report."""

    unit = "Monte Carlo trials"
    latency_per_op = False  # one op is one pass

    def __init__(self, seed: int, frozen: dict, out_dir: Path):
        self.frozen = frozen
        self.trials = SWEEP_TRIALS
        self.sweep_seed = random.Random(seed).randrange(1 << 31)
        self.out_path = out_dir / "sweep.json"
        self.first_bytes: bytes | None = None

    def inputs(self) -> dict:
        return {
            "trials_per_strategy": self.trials,
            "sweep_seed": self.sweep_seed,
            "strategies": [s.value for s in STRATEGIES],
            "trials_per_pass": self.trials * len(STRATEGIES),
        }

    def run_pass(self, gate: Gate) -> PassResult:
        argv = [
            "--mode", "sweep",
            "--trials", str(self.trials),
            "--seed", str(self.sweep_seed),
            "--out", str(self.out_path),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            code = cli.main(argv)
            elapsed = clock() - start
        self._check(code, gate)
        return PassResult([elapsed], self.trials * len(STRATEGIES))

    def _check(self, code: int, gate: Gate) -> None:
        data = self.out_path.read_bytes()
        pass_problems = []
        if code != 0:
            pass_problems.append(f"exit code {code}")
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            pass_problems.append("report bytes differ from the first same-seed pass")
        report = json.loads(data)
        if report.get("trials") != self.trials or report.get("seed") != self.sweep_seed:
            pass_problems.append("report header does not echo trials and seed")
        rows = {(r["strategy"], r["predicate"]): r for r in report.get("rows", [])}
        for strategy in STRATEGIES:
            for predicate in PREDICATES:
                row = rows.get((strategy.value, predicate.value))
                problems = list(pass_problems)
                if row is None:
                    problems.append("row missing")
                else:
                    problems += self._check_row(strategy, predicate, row)
                gate.record(problems, f"sweep {strategy.value}/{predicate.value}")

    def _check_row(self, strategy, predicate, row) -> list[str]:
        target = EncodeTarget.SECOND_TRAVEL_PHOTON
        frozen = self.frozen["detection"][detection_key(strategy, predicate, target, "uniform")]
        key = route_key(strategy, target)
        problems = []
        for name, want in (
            ("p_exact", frozen["tree"]),
            ("p_algebra", frozen["algebra"]),
            ("eve_guess_accuracy", self.frozen["leakage"][key]),
            ("honest_fidelity", self.frozen["fidelity"][key]),
        ):
            if not _close(row[name], want, EXACT_TOL):
                problems.append(f"{name} {row[name]!r} != frozen {want!r}")
        if not _close(row["p_exact"], row["p_algebra"], ROUTE_TOL):
            problems.append("tree and algebra routes disagree")
        p = frozen["tree"]
        sigma = math.sqrt(p * (1.0 - p) / self.trials)
        if row["p_mc"] is None or abs(row["p_mc"] - p) > MC_SIGMAS * sigma + EXACT_TOL:
            problems.append(f"p_mc {row['p_mc']!r} beyond {MC_SIGMAS} sigma of {p!r}")
        if row["trials"] != self.trials:
            problems.append(f"row trials {row['trials']}")
        return problems


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionInput:
    cfg: SessionConfig
    strategy: AttackStrategy


class Sessions:
    """A seeded stream of ``run_session`` calls, each followed by the
    transcript JSON round trip and ``redecode()``."""

    unit = "session groups"
    latency_per_op = True  # one op is one session and its round trip

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        combos = [(s, p, t) for s in STRATEGIES for p in PREDICATES for t in TARGETS]
        items = []
        for n_groups, count in SESSION_MIX:
            # The k-th session of each combination draws its checking count
            # from the k-th of ``repeats`` equal slices of 0 .. n_groups/4,
            # so every seed's pass holds the same spread of checking counts.
            repeats = count // len(combos)
            for k in range(repeats):
                for strategy, predicate, target in combos:
                    n_checking = int((k + rnd.random()) * (n_groups // 4 + 1) / repeats)
                    bits = "".join(rnd.choice("01") for _ in range(2 * (n_groups - n_checking)))
                    cfg = SessionConfig(
                        n_groups=n_groups,
                        n_checking=n_checking,
                        message_bits=bits,
                        encode_target=target,
                        predicate=predicate,
                        seed=rnd.randrange(1 << 32),
                    )
                    items.append(SessionInput(cfg, strategy))
        rnd.shuffle(items)
        self.items = items
        self.groups = sum(item.cfg.n_groups for item in items)
        self.aborted = 0
        self.sessions_run = 0

    def inputs(self) -> dict:
        sizes = {}
        for n_groups, count in SESSION_MIX:
            sizes[str(n_groups)] = {
                "sessions": count,
                "group_share": n_groups * count / self.groups,
            }
        strategies = {s.value: 0 for s in STRATEGIES}
        for item in self.items:
            strategies[item.strategy.value] += 1
        return {
            "sessions_per_pass": len(self.items),
            "groups_per_pass": self.groups,
            "size_mix": sizes,
            "strategy_mix": {k: v / len(self.items) for k, v in strategies.items()},
            "checking_share": sum(i.cfg.n_checking for i in self.items) / self.groups,
            "abort_share": self.aborted / self.sessions_run if self.sessions_run else None,
        }

    def run_pass(self, gate: Gate) -> PassResult:
        durations = []
        for item in self.items:
            start = clock()
            transcript = protocol.run_session(item.cfg, item.strategy)
            doc = transcript.to_json_dict()
            restored = SessionTranscript.from_json_dict(doc)
            redecoded = restored.redecode()
            durations.append(clock() - start)
            self.sessions_run += 1
            if transcript.verdict is not Verdict.CLEAN:
                self.aborted += 1
            gate.record(self._check(item, transcript, doc, redecoded), "session")
        return PassResult(durations, self.groups)

    @staticmethod
    def _check(item: SessionInput, transcript, doc: dict, redecoded: str) -> list[str]:
        cfg, problems = item.cfg, []
        if redecoded != transcript.decoded_bits or transcript.redecode() != transcript.decoded_bits:
            problems.append("redecode() differs from decoded_bits")
        reparsed = SessionTranscript.from_json_dict(json.loads(json.dumps(doc)))
        if reparsed.to_json_dict() != doc:
            problems.append("JSON round trip is lossy")
        clean = all(transcript.checking_passed.values())
        if (transcript.verdict is Verdict.CLEAN) != clean:
            problems.append("verdict disagrees with the checking results")
        if transcript.verdict is not Verdict.CLEAN:
            if transcript.encoding or transcript.encoding_bob or transcript.decoded_bits:
                problems.append("aborted session carries an encoding")
        elif item.strategy is AttackStrategy.NONE:
            if transcript.decoded_bits != cfg.message_bits:
                problems.append("clean honest session decoded the wrong bits")
        if (
            item.strategy is AttackStrategy.NONE
            and cfg.predicate is DetectionPredicate.ANNOUNCED_OP
            and transcript.verdict is not Verdict.CLEAN
        ):
            problems.append("honest session failed the announced-op check")
        return problems


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


class Exact:
    """Tree route, swap algebra, identities gate and session leaves, in a
    seeded order; message bits for the leaf enumeration come from the seed."""

    unit = "enumerated leaves"
    latency_per_op = False  # per-call times span five orders of magnitude

    def __init__(self, seed: int, frozen: dict):
        rnd = random.Random(seed)
        self.frozen = frozen
        ops = []
        for strategy in STRATEGIES:
            for predicate in PREDICATES:
                for target in TARGETS:
                    for name, policy in POLICIES:
                        key = detection_key(strategy, predicate, target, name)
                        ops.append(("tree", key, (strategy, predicate, policy, target)))
                        ops.append(("algebra", key, (strategy, predicate, policy, target)))
            for target in TARGETS:
                key = route_key(strategy, target)
                ops.append(("leakage", key, (strategy, target)))
                ops.append(("fidelity", key, (strategy, target)))
            for checking in LEAF_CHECKING_SETS:
                n_bits = 2 * (LEAF_GROUPS - len(checking))
                bits = "".join(rnd.choice("01") for _ in range(n_bits))
                ops.append(("leaves", leaves_key(strategy, checking), (strategy, checking, bits)))
        ops.append(("identities", "all", ()))
        rnd.shuffle(ops)
        self.ops = ops
        self.leaves = {s.value: 0 for s in STRATEGIES}  # measured in the last pass
        self.route_values: dict[tuple[str, str], float] = {}

    def inputs(self) -> dict:
        kinds: dict[str, int] = {}
        for kind, _key, _args in self.ops:
            kinds[kind] = kinds.get(kind, 0) + 1
        total = sum(self.leaves.values())
        return {
            "calls_per_pass": kinds,
            "leaves_per_pass": total,
            "leaves_by_strategy": self.leaves,
            "leaf_share_by_strategy": {k: v / total for k, v in self.leaves.items()} if total else None,
        }

    def run_pass(self, gate: Gate) -> PassResult:
        durations = []
        leaves = {s.value: 0 for s in STRATEGIES}
        for kind, key, args in self.ops:
            start = clock()
            value = self._call(kind, args)
            durations.append(clock() - start)
            if kind == "leaves":
                leaves[args[0].value] += len(value)
                value = leaf_summary(value, args[2])
            gate.record(self._check(kind, key, value), f"{kind} {key}")
        self.leaves = leaves
        return PassResult(durations, sum(leaves.values()))

    @staticmethod
    def _call(kind: str, args: tuple):
        if kind == "tree":
            return analysis.exact_detection(*args)
        if kind == "algebra":
            return analysis.detection_from_swap_algebra(*args)
        if kind == "leakage":
            return analysis.exact_leakage(*args)
        if kind == "fidelity":
            return analysis.honest_fidelity(*args)
        if kind == "leaves":
            strategy, checking, bits = args
            return analysis.enumerate_session_leaves(
                LEAF_GROUPS, list(checking), strategy, message_bits=bits
            )
        return analysis.run_identities()

    def _check(self, kind: str, key: str, value) -> list[str]:
        frozen = self.frozen
        if kind in ("tree", "algebra"):
            problems = []
            want = frozen["detection"][key][kind]
            if not _close(value, want, EXACT_TOL):
                problems.append(f"{value!r} != frozen {want!r}")
            self.route_values[kind, key] = value
            other = self.route_values.get(("algebra" if kind == "tree" else "tree", key))
            if other is not None and not _close(value, other, ROUTE_TOL):
                problems.append("tree and algebra routes disagree")
            return problems
        if kind in ("leakage", "fidelity"):
            want = frozen[kind][key]
            return [] if _close(value, want, EXACT_TOL) else [f"{value!r} != frozen {want!r}"]
        if kind == "identities":
            return [f"identity {c.name} failed" for c in value if not c.passed]
        want = frozen["leaves"][key]
        problems = []
        if value["count"] != want["count"]:
            problems.append(f"{value['count']} leaves, frozen {want['count']}")
        if not _close(value["total"], 1.0, ROUTE_TOL):
            problems.append(f"leaf weights sum to {value['total']!r}")
        for name in ("p_detected", "p_decoded"):
            if not _close(value[name], want[name], EXACT_TOL):
                problems.append(f"{name} {value[name]!r} != frozen {want[name]!r}")
        return problems


def make_workload(name: str, seed: int, out_dir: Path):
    frozen = json.loads(FROZEN_PATH.read_text())
    if name == "mc-sweep":
        return McSweep(seed, frozen, out_dir)
    if name == "sessions":
        return Sessions(seed)
    if name == "exact":
        return Exact(seed, frozen)
    raise ValueError(f"unknown workload {name!r}")
