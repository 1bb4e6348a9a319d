"""In-memory spans around the public functions of each mdiqsdc module.

The wrappers are installed from outside the package: every module of the
package that binds a traced function under some name gets the wrapper
under that name, because ``cli`` and ``curves`` import names directly and
look them up in their own globals. A traced target that a later version
of the package no longer has is skipped, and its metrics read 0.

A span is ``[name, start, end, parent index, op id]``. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

VERIFY_CHECK_FUNCTIONS = {
    "check_bell_states": "bell-states",
    "check_product_decompositions": "product-decompositions",
    "check_swap_corrections": "swap-corrections",
    "check_backend_equivalence": "backend-equivalence",
    "check_holevo_bound": "holevo-bound",
}

# (defining module, attribute, span name)
SPAN_TARGETS = [
    ("protocol", "run", "protocol.run"),
    ("protocol", "pauli_frame_round_distributions", "protocol.pauli_frame_round_distributions"),
    (
        "protocol",
        "density_matrix_round_distributions",
        "protocol.density_matrix_round_distributions",
    ),
    ("quantum", "eigvalsh_hermitian", "quantum.eigvalsh_hermitian"),
    ("quantum", "holevo_bound", "quantum.holevo_bound"),
    ("quantum", "partial_trace", "quantum.partial_trace"),
    ("channels", "depolarize", "channels.depolarize"),
    ("channels", "convolve", "channels.convolve"),
    ("curves", "analytic_point", "curves.analytic_point"),
    ("curves", "analytic_point_for_config", "curves.analytic_point_for_config"),
    ("curves", "zero_crossing", "curves.zero_crossing"),
    ("infotheory", "capacity_mdi_ts", "infotheory.capacity"),
    ("infotheory", "capacity_mdi_dl04", "infotheory.capacity"),
    ("infotheory", "capacity_two_step_non_mdi", "infotheory.capacity"),
    ("infotheory", "capacity_dl04_non_mdi", "infotheory.capacity"),
] + [("verification", fn, f"verification.{name}") for fn, name in VERIFY_CHECK_FUNCTIONS.items()]

# Timed layers: their .calls and .self_s are reported.
LAYERS = [
    "protocol.run",
    "protocol.pauli_frame_round_distributions",
    "protocol.density_matrix_round_distributions",
    "quantum.eigvalsh_hermitian",
    "quantum.holevo_bound",
    "quantum.partial_trace",
    "channels.depolarize",
    "channels.convolve",
    "curves.analytic_point",
    "curves.analytic_point_for_config",
    "curves.zero_crossing",
    "infotheory.capacity",
]
SUBCOMMANDS = ("simulate", "sweep", "verify")


class Tracer:
    """Records spans and counts while ``active``; install() patches the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, *, name_of=None, on_enter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name if name_of is None else name_of(*args, **kwargs), 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                count(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every package module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "mdiqsdc" or module_name.startswith("mdiqsdc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import mdiqsdc.cli as cli

        package = sys.modules["mdiqsdc"]
        for module_name, attr, name in SPAN_TARGETS:
            module = getattr(package, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                continue
            on_enter = None
            if name == "protocol.run":
                def on_enter(cfg, *_, **__):
                    self.counts["protocol.run.rounds"] += cfg.rounds
            self._replace_everywhere(original, self._span(name, original, on_enter=on_enter))

        main = getattr(cli, "main", None)
        if main is not None:
            def name_of(argv=None, *_, **__):
                return f"cli.main.{argv[0] if argv else 'none'}"
            self._replace_everywhere(main, self._span("cli.main", main, name_of=name_of))

        write_text = getattr(cli, "_write_text", None)
        if write_text is not None:
            def count_bytes(path, text, *_, **__):
                self.counts["cli.bytes_written"] += len(text.encode("utf-8"))
            self._replace_everywhere(write_text, self._counter(write_text, count_bytes))

        density = getattr(getattr(package, "quantum", None), "DensityMatrix", None)
        post_init = getattr(density, "__post_init__", None)
        if post_init is not None:
            def count_construction(*_, **__):
                self.counts["quantum.DensityMatrix.constructions"] += 1
            self._patches.append((density, "__post_init__", post_init))
            density.__post_init__ = self._counter(post_init, count_construction)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - children
        return calls, self_s

    def evals_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
