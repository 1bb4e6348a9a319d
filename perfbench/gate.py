"""Correctness gate: every invocation's outputs are checked, and an invocation
that fails any check counts as a failed operation.

* Any exit code other than 0 fails.
* ``simulate``: each checked error rate, the symbol or bit error and the
  capacity must lie within 5 standard errors of the analytic twin
  (``curves.analytic_point_for_config``; the symbol and bit error come from
  the exact ``protocol.pauli_frame_round_distributions``). Where the
  standard error is 0, the estimate must equal the twin exactly, at the
  precision the command prints.
* ``sweep``: the CSV has one row per protocol and grid point, every
  protocol reports a zero crossing, and the capacity at x = 0 is exactly 2
  (mdi-ts, two-step) or 1 (mdi-dl04, dl04).
* ``verify``: every check prints PASS.
* A repeated invocation must reproduce its first outputs byte for byte.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from mdiqsdc.curves import analytic_point_for_config
from mdiqsdc.protocol import Protocol, pauli_frame_round_distributions
from mdiqsdc.quantum import PauliLabel

from workloads import Op

Z_LIMIT = 5.0
CSV_HEADER = (
    "x,p,protocol,eps_z,eps_x,eps_y,H_of_E,eve_info,"
    "capacity_raw,capacity_clamped,source,seed,rounds"
)
CAPACITY_AT_ZERO = {"mdi-ts": 2.0, "two-step": 2.0, "mdi-dl04": 1.0, "dl04": 1.0}
VERIFY_CHECKS = (
    "bell-states",
    "product-decompositions",
    "swap-corrections",
    "backend-equivalence",
    "holevo-bound",
)

_ROUNDS_RE = re.compile(r"^rounds: (\d+) checks, (\d+) messages, gain Q = (\S+)$", re.M)
_EPS_RE = re.compile(r"^eps_([xyz]) = (\S+) \+- (\S+) \((\d+)/(\d+)\)$", re.M)
_MESSAGE_RE = re.compile(r"^message error distribution = \((.*)\)$", re.M)
_BIT_RE = re.compile(r"^bit error = (\S+) \+- (\S+)$", re.M)
_CAPACITY_RE = re.compile(r"^capacity = (\S+) \+- (\S+) \(clamped (\S+)\)$", re.M)


@dataclass(frozen=True)
class Outcome:
    """What one invocation produced: exit code, captured streams, files."""

    rc: int | None
    stdout: str
    stderr: str
    files: tuple[tuple[str, bytes], ...]

    def file(self, role: str) -> bytes | None:
        return dict(self.files).get(role)


class Gate:
    """Checks outcomes, once per distinct argv; repeats must match the first."""

    def __init__(self) -> None:
        self._seen: dict[tuple[str, ...], tuple[Outcome, list[str]]] = {}
        self._twins: dict[object, tuple[object, dict]] = {}
        self.failures: list[str] = []

    def check(self, op: Op, outcome: Outcome) -> bool:
        first = self._seen.get(op.argv)
        if first is None:
            problems = self._problems(op, outcome)
            self._seen[op.argv] = (outcome, problems)
        elif first[0] != outcome:
            problems = ["output differs from an earlier identical invocation"]
        else:
            problems = first[1]
        if problems and len(self.failures) < 20:
            self.failures.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        return not problems

    def _problems(self, op: Op, outcome: Outcome) -> list[str]:
        if outcome.rc != 0:
            return [f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}"]
        try:
            if op.kind == "simulate":
                return self._simulate_problems(op, outcome)
            if op.kind == "verify":
                return _verify_problems(outcome)
            return _sweep_problems(outcome)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _twin(self, op: Op):
        if op.cfg not in self._twins:
            self._twins[op.cfg] = (
                analytic_point_for_config(op.cfg),
                pauli_frame_round_distributions(op.cfg),
            )
        return self._twins[op.cfg]

    def _simulate_problems(self, op: Op, outcome: Outcome) -> list[str]:
        cfg = op.cfg
        lines = outcome.file("csv").decode("utf-8").split("\n")
        if lines[0] != CSV_HEADER or len(lines) != 4 or lines[3] != "":
            return ["CSV is not a header, an analytic row and a Monte Carlo row"]
        row = dict(zip(CSV_HEADER.split(","), lines[2].split(",")))
        if (row["source"], row["seed"], row["rounds"]) != (
            "montecarlo", str(cfg.seed), str(cfg.rounds)
        ):
            return [f"Monte Carlo row has the wrong source, seed or rounds: {lines[2]}"]
        twin, dists = self._twin(op)
        err = outcome.stderr
        problems = []

        eps = {m.group(1): m for m in _EPS_RE.finditer(err)}
        bases = ["z", "x"]
        if cfg.protocol == Protocol.MDI_DL04 and cfg.dl04_encoding == PauliLabel.Y:
            bases.append("y")
        for basis in bases:
            if basis not in eps:
                problems.append(f"no eps_{basis} estimate")
                continue
            _, _, se, errors, samples = eps[basis].groups()
            rate = float(row[f"eps_{basis}"])
            if not math.isclose(rate, int(errors) / int(samples), rel_tol=1e-11, abs_tol=1e-15):
                problems.append(f"eps_{basis} {rate} is not {errors}/{samples}")
            problems += _compare(f"eps_{basis}", rate, se, getattr(twin, f"eps_{basis}"), ".12g")

        counts = _ROUNDS_RE.search(err)
        decoded = round(int(counts.group(2)) * float(counts.group(3)))
        if cfg.protocol == Protocol.MDI_TS:
            printed = _MESSAGE_RE.search(err).group(1).split(", ")
            symbol_error = 1.0 - float(printed[0])
            se = math.sqrt(max(symbol_error * (1.0 - symbol_error), 0.0) / decoded)
            expected = 1.0 - float(dists["symbol_error"][0])
            problems += _compare("symbol error", symbol_error, se, expected, ".6f")
        else:
            bit_error, se = _BIT_RE.search(err).groups()
            problems += _compare(
                "bit error", float(bit_error), se, float(dists["bit_error"][0]), ".6f"
            )

        capacity = _CAPACITY_RE.search(err)
        problems += _compare(
            "capacity", float(row["capacity_raw"]), capacity.group(2), twin.capacity.raw, ".12g"
        )
        return problems


def _compare(name: str, value: float, se: str | float, expected: float, fmt: str) -> list[str]:
    """``value`` within Z_LIMIT standard errors of ``expected``; equal if se is 0."""
    se = float(se)
    if se == 0.0:
        if format(value, fmt) != format(expected, fmt):
            return [f"{name} {value!r} != exact {expected!r}"]
        return []
    z = (value - expected) / se
    if not abs(z) <= Z_LIMIT:
        return [f"{name} {value!r} is {z:+.2f} SE from {expected!r}"]
    return []


def _sweep_problems(outcome: Outcome) -> list[str]:
    lines = outcome.file("csv").decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return ["CSV header or final newline missing"]
    rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:-1]]
    protocols = list(dict.fromkeys(row["protocol"] for row in rows))
    problems = []
    if sorted(protocols) != sorted(CAPACITY_AT_ZERO):
        problems.append(f"protocols {protocols}")
    if len(rows) % max(len(protocols), 1):
        problems.append("protocols have unequal row counts")
    for protocol in protocols:
        at_zero = [r for r in rows if r["protocol"] == protocol and float(r["x"]) == 0.0]
        if len(at_zero) != 1 or float(at_zero[0]["capacity_raw"]) != CAPACITY_AT_ZERO.get(protocol):
            problems.append(f"{protocol} capacity at x = 0 is not {CAPACITY_AT_ZERO.get(protocol)}")
        if f"zero-crossing {protocol}: " not in outcome.stderr:
            problems.append(f"no zero crossing reported for {protocol}")
    svg = outcome.file("svg")
    if svg is not None:
        text = svg.decode("utf-8")
        if not text.endswith("</svg>\n") or text.count("<polyline") != len(protocols):
            problems.append("SVG is not one polyline per protocol")
    return problems


def _verify_problems(outcome: Outcome) -> list[str]:
    lines = outcome.stdout.strip().split("\n")
    failed = [line for line in lines if not line.startswith("PASS ")]
    missing = [name for name in VERIFY_CHECKS if not any(f" {name}:" in line for line in lines)]
    problems = [f"check did not pass: {line}" for line in failed]
    problems += [f"check {name} did not run" for name in missing]
    return problems
