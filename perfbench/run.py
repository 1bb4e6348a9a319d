"""Benchmark of the mdiqsdc command line: one workload per run.

    python3 perfbench/run.py --workload mc-large --seed 1 --seconds 20 --trace 0

Runs the workload's cycle of ``mdiqsdc.cli.main`` invocations in a closed
loop (one client, one thread, each call waits for the previous one), whole
cycles only, for about ``--seconds``. Every invocation's outputs go through
the correctness gate. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a report with raw timings, per-kind medians and the environment.

End-to-end times are in reference units (``ref``). The 2-core machine the
benchmark was built on is shared, and its speed drifts by 20-40% over tens
of seconds, so a fixed kernel (``ReferenceKernel``) runs between
invocations and each time is divided by the kernel's median time in the
same cycle. The raw seconds stay in the report.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters that import the package and make one small call, taken between
cycles across the run), the share of correct invocations, one cycle's time
and the median invocation time in reference units, and the largest
tracemalloc peak of one invocation, from a separate memory pass.

``--trace 1`` runs each invocation of the cycle twice back to back, once
untraced and once with spans recorded at each module's public functions,
and reports per-layer calls and self times per cycle, the tracing overhead
(traced minus untraced time of the same invocations), and the per-round
cost and memory of ``protocol.run``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 1 and prints no result. All files
it writes go under ``.perfbench/`` of the checkout.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_THREAD_VARIABLES:  # before numpy is first imported
    os.environ[_name] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
# The reference kernel runs after every REFERENCE_EVERY_S of invocation time,
# which costs about 5% of a run.
REFERENCE_EVERY_S = 0.15

END_TO_END = {
    "setup_s": "s",
    "correct_share": "share",
    "cycle_ref": "ref",
    "op_ref.p50": "ref",
    "peak_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS, SUBCOMMANDS, VERIFY_CHECK_FUNCTIONS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["protocol.run.ns_per_round"] = "ns"
    units["protocol.run.peak_bytes_per_round"] = "B"
    units["quantum.DensityMatrix.constructions"] = "count"
    units["curves.zero_crossing.evals_per_call"] = "count"
    for name in VERIFY_CHECK_FUNCTIONS.values():
        units[f"verification.{name}.s"] = "s"
    for sub in SUBCOMMANDS:
        units[f"cli.main.{sub}.calls"] = "count"
        units[f"cli.main.{sub}.self_s"] = "s"
    units["cli.bytes_written"] = "B"
    units["trace.untraced_wall_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.self_sum_s"] = "s"
    return units


def import_package() -> None:
    """Import mdiqsdc from this checkout's src/, never from elsewhere."""
    if not (SRC / "mdiqsdc" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'mdiqsdc'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mdiqsdc
    import mdiqsdc.cli

    if SRC not in Path(mdiqsdc.__file__).resolve().parents:
        sys.exit(f"error: mdiqsdc was imported from {mdiqsdc.__file__}, not {SRC}")


class ReferenceKernel:
    """Fixed work whose time tracks the machine's current speed.

    Half numpy (a uniform draw, a gather and an xor-reduction over 200k
    preallocated elements), half interpreter (binary entropies over a 3000
    point grid), like the program's own mix. It is timed on its second
    back-to-back run and its numpy part allocates nothing, so what the
    program did just before does not change its time. On the shared 2-core
    machine the sum tracked the speed drift of the three workloads better
    than either half alone.
    """

    SIZE = 200_000
    GRID = 3000

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.uniform = np.empty(self.SIZE)
        self.index = np.empty(self.SIZE, dtype=np.intp)
        self.gathered = np.empty(self.SIZE, dtype=np.intp)
        self.table = np.arange(self.SIZE)

    def _work(self) -> float:
        np = self.np
        np.random.default_rng(12345).random(out=self.uniform)
        np.multiply(self.uniform, self.SIZE, out=self.uniform)
        np.copyto(self.index, self.uniform, casting="unsafe")
        np.take(self.table, self.index, out=self.gathered)
        np.bitwise_xor(self.gathered, self.index, out=self.gathered)
        total = float(self.gathered.sum())
        for i in range(1, self.GRID):
            x = i / self.GRID
            total += -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
        return total

    def __call__(self) -> float:
        self._work()
        start = perf_counter()
        self._work()
        return perf_counter() - start


def invoke(op):
    """One closed-loop call of cli.main; returns (seconds, Outcome)."""
    from gate import Outcome
    import mdiqsdc.cli as cli

    out, err = io.StringIO(), io.StringIO()
    argv = list(op.argv)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an internal error is a failed operation
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
    files = tuple((role, path.read_bytes() if path.exists() else b"") for role, path in op.outputs)
    for _, path in op.outputs:
        path.unlink(missing_ok=True)
    return elapsed, Outcome(rc, out.getvalue(), err.getvalue(), files)


class Pass:
    """Per-invocation timings and gate verdicts of one pass over the ops."""

    def __init__(self) -> None:
        self.ops: list = []
        self.times: list[float] = []
        self.peaks: list[int] = []
        self.cycle_reference: list[float] = []  # median kernel time per cycle
        self.failed = 0

    def record(self, op, elapsed: float, ok: bool) -> None:
        self.ops.append(op)
        self.times.append(elapsed)
        self.failed += not ok


def timed_pass(cycle, gate, seconds: float, after_cycle=None) -> tuple[Pass, int]:
    """Whole cycles until the next one would end past ``seconds``.

    The reference kernel runs after every REFERENCE_EVERY_S of invocation
    time, and at least once per cycle. ``after_cycle(elapsed)`` runs between
    cycles, outside any timed invocation.
    """
    reference_kernel = ReferenceKernel()
    result = Pass()
    cycles = 0
    start = perf_counter()
    while True:
        since_reference = 0.0
        samples = []
        for op in cycle:
            elapsed, outcome = invoke(op)
            result.record(op, elapsed, gate.check(op, outcome))
            since_reference += elapsed
            if since_reference >= REFERENCE_EVERY_S:
                samples.append(reference_kernel())
                since_reference = 0.0
        if not samples:
            samples.append(reference_kernel())
        result.cycle_reference.append(statistics.median(samples))
        cycles += 1
        if after_cycle is not None:
            after_cycle(perf_counter() - start)
        spent = perf_counter() - start
        if spent + spent / cycles > seconds:
            return result, cycles


def paired_pass(cycle, gate, seconds: float, tracer) -> tuple[Pass, Pass, int]:
    """Each invocation untraced and traced back to back, whole cycles until
    the next one would end past ``seconds``.

    Both halves of a pair see the same machine state, so their difference
    is the tracing cost; the order within pairs alternates from cycle to
    cycle so that neither half always runs on caches the other warmed. The
    wrappers stay installed, inactive, in the untraced half.
    """
    untraced, traced = Pass(), Pass()
    cycles = 0
    start = perf_counter()
    while True:
        for op in cycle:
            for tracing in (False, True) if cycles % 2 == 0 else (True, False):
                tracer.op = len(traced.ops)
                tracer.active = tracing
                try:
                    elapsed, outcome = invoke(op)
                finally:
                    tracer.active = False
                (traced if tracing else untraced).record(op, elapsed, gate.check(op, outcome))
        cycles += 1
        spent = perf_counter() - start
        if spent + spent / cycles > seconds:
            return untraced, traced, cycles


def memory_pass(cycle, gate) -> Pass:
    """Each distinct invocation's tracemalloc peak above its starting allocation."""
    result = Pass()
    tracemalloc.start()
    try:
        for op in dict.fromkeys(cycle):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            elapsed, outcome = invoke(op)
            result.peaks.append(tracemalloc.get_traced_memory()[1] - base)
            result.record(op, elapsed, gate.check(op, outcome))
    finally:
        tracemalloc.stop()
    return result


class SetupSampler:
    """Fresh interpreter, import of mdiqsdc, one warm-up call, timed.

    The machine's speed changes within seconds, so the samples are spread
    over the timed pass, one after a cycle whenever another share of the
    run has gone by, instead of being taken back to back.
    """

    CODE = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mdiqsdc.cli; "
        "sys.exit(mdiqsdc.cli.main(sys.argv[2:]))"
    )

    def __init__(self, workload: str, seconds: float) -> None:
        from workloads import warm_up_argv

        self.argv = [sys.executable, "-c", self.CODE, str(SRC), *warm_up_argv(workload)]
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.failed = 0

    def sample(self) -> None:
        start = perf_counter()
        proc = subprocess.run(
            self.argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
        )
        self.times.append(perf_counter() - start)
        if proc.returncode != 0:
            self.failed += 1
            print(proc.stderr.decode(errors="replace")[-500:], file=sys.stderr)

    def __call__(self, elapsed: float) -> None:
        """Called after each cycle with the seconds since the pass began."""
        if len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.every:
            self.sample()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.sample()


def in_reference_units(cycle, timed: Pass) -> tuple[float, float]:
    """``cycle_ref`` and ``op_ref.p50``: times divided by their cycle's
    median reference-kernel time.

    ``cycle_ref`` is the median over cycles of the cycle's time. ``op_ref.p50``
    is the median over the cycle's distinct invocations of each one's median
    time, so it does not flip between two kinds of invocation that make up
    exactly half of a cycle each.
    """
    n = len(cycle)
    cycle_ref = []
    per_argv: dict[tuple[str, ...], list[float]] = {}
    for c, reference in enumerate(timed.cycle_reference):
        times = timed.times[c * n : (c + 1) * n]
        cycle_ref.append(sum(times) / reference)
        for op, t in zip(cycle, times):
            per_argv.setdefault(op.argv, []).append(t / reference)
    op_ref = [statistics.median(ts) for ts in per_argv.values()]
    return statistics.median(cycle_ref), statistics.median(op_ref)


def workload_report(cycle, timed: Pass, memory: Pass) -> dict:
    """Raw timings, per kind of invocation, in seconds."""
    n = len(cycle)
    cycle_times = [sum(timed.times[i : i + n]) for i in range(0, len(timed.times), n)]
    report: dict[str, float | int | str] = {
        "cycle_s": statistics.median(cycle_times),
        "ops_per_s": len(cycle) / statistics.median(cycle_times),
        "op_ms.p50": statistics.median(timed.times) * 1e3,
    }
    if timed.cycle_reference:
        report["reference_s"] = statistics.median(timed.cycle_reference)
    if len(timed.times) >= 100:  # at least ten samples above p90
        report["op_ms.p90"] = statistics.quantiles(timed.times, n=10)[-1] * 1e3
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(timed.ops, timed.times):
        by_kind.setdefault(op.kind, []).append(t)
    for kind, times in sorted(by_kind.items()):
        report[f"{kind}.n"] = len(times)
        report[f"{kind}.median_s"] = statistics.median(times)
    rounds = sum(op.rounds for op in timed.ops)
    if rounds:
        report["mrounds_per_s"] = rounds / 1e6 / sum(timed.times)
    report["peak_op"] = " ".join(memory.ops[memory.peaks.index(max(memory.peaks))].argv)
    report["failed_share"] = timed.failed / len(timed.ops)
    return report


def layer_metrics(tracer, traced: Pass, untraced: Pass, memory: Pass, cycles: int) -> dict:
    """Per-layer metrics per cycle of the workload."""
    from tracer import LAYERS, SUBCOMMANDS, VERIFY_CHECK_FUNCTIONS

    calls, self_s = tracer.self_times()
    inclusive: dict[str, float] = {}
    for name, start, end, _, _ in tracer.spans:
        inclusive[name] = inclusive.get(name, 0.0) + end - start
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls[layer] / cycles
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / cycles
    rounds = tracer.counts["protocol.run.rounds"]
    values["protocol.run.ns_per_round"] = (
        inclusive.get("protocol.run", 0.0) / rounds * 1e9 if rounds else 0.0
    )
    per_round = [peak / op.rounds for op, peak in zip(memory.ops, memory.peaks) if op.rounds]
    values["protocol.run.peak_bytes_per_round"] = max(per_round, default=0.0)
    values["quantum.DensityMatrix.constructions"] = (
        tracer.counts["quantum.DensityMatrix.constructions"] / cycles
    )
    crossings = calls["curves.zero_crossing"]
    values["curves.zero_crossing.evals_per_call"] = (
        tracer.evals_under("curves.analytic_point", "curves.zero_crossing") / crossings
        if crossings
        else 0.0
    )
    for name in VERIFY_CHECK_FUNCTIONS.values():
        values[f"verification.{name}.s"] = inclusive.get(f"verification.{name}", 0.0) / cycles
    for sub in SUBCOMMANDS:
        values[f"cli.main.{sub}.calls"] = calls[f"cli.main.{sub}"] / cycles
        values[f"cli.main.{sub}.self_s"] = self_s.get(f"cli.main.{sub}", 0.0) / cycles
    values["cli.bytes_written"] = tracer.counts["cli.bytes_written"] / cycles
    values["trace.untraced_wall_s"] = sum(untraced.times) / cycles
    values["trace.wall_s"] = sum(traced.times) / cycles
    values["trace.overhead_s"] = (sum(traced.times) - sum(untraced.times)) / cycles
    values["trace.self_sum_s"] = sum(self_s.values()) / cycles
    return values


def environment(seed: int) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mdiqsdc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARIABLES},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc-large", "mc-scan", "oracle-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from gate import Gate
    from tracer import Tracer

    work_dir = OUT_DIR / "tmp"
    work_dir.mkdir(parents=True, exist_ok=True)
    cycle = workloads.build(args.workload, args.seed, work_dir)
    gate = Gate()

    invoke(workloads.Op("warm-up", tuple(workloads.warm_up_argv(args.workload))))
    memory = memory_pass(cycle, gate)  # also lets allocator and caches settle
    setup = SetupSampler(args.workload, args.seconds)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            timed, traced, cycles = paired_pass(cycle, gate, args.seconds, tracer)
        finally:
            tracer.uninstall()
        passes = [memory, timed, traced]
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        metrics = layer_metrics(tracer, traced, timed, memory, cycles)
        units = per_layer_units()
    else:
        timed, cycles = timed_pass(cycle, gate, args.seconds, after_cycle=setup)
        setup.finish()
        passes = [memory, timed]
        cycle_ref, op_ref = in_reference_units(cycle, timed)
        metrics = {
            "setup_s": statistics.median(setup.times),
            "correct_share": 1.0 - timed.failed / len(timed.ops),
            "cycle_ref": cycle_ref,
            "op_ref.p50": op_ref,
            "peak_mb": max(memory.peaks) / 1e6,
        }
        units = END_TO_END

    attempted = sum(len(p.ops) for p in passes) + len(setup.times)
    failed = sum(p.failed for p in passes) + setup.failed
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "cycle_ops": len(cycle),
        "setup_s_all": setup.times,
        "environment": environment(args.seed),
        "workload_metrics": workload_report(cycle, timed, memory),
        "failures": gate.failures,
    }
    for failure in gate.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
