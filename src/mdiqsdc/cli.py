"""Command-line front end: parameter sweeps, Monte Carlo runs, and
verification, with CSV and hand-emitted SVG output.

A ``--config`` file's ``key = value`` lines are more flags: they are parsed
as ``--key=value`` ahead of the command line's own, which win on conflict,
so every option reaches its command as one parsed value, with its default
written once, on its flag.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error (a closed stdout included, when the command would write there), 3
insufficient statistics, 4 internal error (traceback on stderr). A Monte
Carlo run's stderr summary prints its record as it is: each check basis's
rate, SE and (errors/samples), the observed message law and the capacity with
its SE.
CSV uses 12 significant digits, ``.`` decimals, LF line endings and a
single header row, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
import traceback
from collections.abc import Iterator
from html import escape
from typing import TextIO

import numpy as np

from .curves import X_MAX, analytic_point, analytic_point_for_config, zero_crossing
from .elementwise import minimum
from .infotheory import ETA_MAX
from .protocol import (
    AnalyticPoint,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    TranscriptStats,
    run,
)
from .quantum import PauliLabel
from .verification import KNOWN_FAULTS, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT_STATS = 3
EXIT_INTERNAL = 4

CSV_HEADER = (
    "x,p,protocol,eps_z,eps_x,eps_y,H_of_E,eve_info,"
    "capacity_raw,capacity_clamped,source,seed,rounds"
)

_PROTOCOL_ORDER = (Protocol.MDI_TS, Protocol.TWO_STEP, Protocol.MDI_DL04, Protocol.DL04)
_ENCODINGS = {"x": PauliLabel.X, "y": PauliLabel.Y, "z": PauliLabel.Z}

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

# Most points a --grid may ask for; the finest documented grid has 1001.
MAX_GRID_POINTS = 1_000_000
# Grid points a sweep evaluates, formats and writes at a time, so its memory
# does not grow with the grid; the default and the finest documented grid
# stay one block per protocol.
SWEEP_BLOCK = 4096
# CSV rows formatted and written at a time: a slice's values alone stand as
# Python floats and strings, not a whole block's.
CSV_SLICE = 256


class UsageError(Exception):
    pass


def _fmt(value: float | None) -> str:
    return "" if value is None else "%.12g" % value


def _csv_rows(point: AnalyticPoint, source: str = "analytic,,") -> Iterator[str]:
    """CSV rows of a point, or of every point of a grid, each ending in
    ``source`` (the source, seed and rounds columns) and a newline. A float
    point is one row, with an empty cell for a rate it lacks; a grid's rows
    come ``CSV_SLICE`` to a piece, formatted from one row template and that
    slice of its arrays."""
    columns = (
        point.x,
        point.p,
        point.eps_z,
        point.eps_x,
        point.eps_y,
        point.message_entropy,
        point.eve_info,
        point.capacity.raw,
        point.capacity.clamped,
    )
    if not isinstance(point.x, np.ndarray):
        x, p, *rest = map(_fmt, columns)
        yield ",".join([x, p, point.protocol.value, *rest, source]) + "\n"
        return
    row = "%.12g,%.12g," + point.protocol.value + ",%.12g" * 7 + "," + source + "\n"
    for lo in range(0, point.x.size, CSV_SLICE):
        part = [column[lo : lo + CSV_SLICE].tolist() for column in columns]
        yield "".join(row % cells for cells in zip(*part))


def _stdout() -> TextIO:
    """``sys.stdout``; a process started without one cannot print its output."""
    if sys.stdout is None:
        raise UsageError("standard output is closed")
    return sys.stdout


class _UnbufferedFile:
    """A file opened with ``os.open`` and written straight through
    ``os.write``, closed when its ``with`` block ends. It holds no stream
    buffer, so an output file costs no more memory than the text written to
    it (an ``open()`` stream keeps an 8 KiB buffer however small the file)."""

    __slots__ = ("fd",)

    def __init__(self, path: str, flags: int) -> None:
        # O_BINARY keeps the bytes as written where the platform has text mode
        flags |= os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
        try:
            self.fd = os.open(path, flags, 0o666)
        except ValueError as exc:  # a NUL byte, which no file name can hold
            raise UsageError(f"cannot open {path!r}: {exc}") from exc

    def write(self, text: str) -> None:
        data = memoryview(text.encode("utf-8"))
        while data:  # os.write may take only part of what it is given
            data = data[os.write(self.fd, data) :]

    def __enter__(self) -> _UnbufferedFile:
        return self

    def __exit__(self, *_) -> None:
        os.close(self.fd)


def _open_output(
    path: str | None,
) -> contextlib.AbstractContextManager[TextIO | _UnbufferedFile]:
    """A new, empty file at ``path``, or stdout, left open, when ``path`` is
    None."""
    if path is None:
        return contextlib.nullcontext(_stdout())
    return _UnbufferedFile(path, os.O_TRUNC)


def _apart_from(svg: _UnbufferedFile | None, path: str | None) -> str | None:
    """``path``, checked not to name the open plot's file: the CSV's O_TRUNC
    would empty the plot, and the two would then share one file."""
    if svg is not None and path is not None and os.path.exists(path):
        plot = os.fstat(svg.fd)
        if stat.S_ISREG(plot.st_mode) and os.path.samestat(plot, os.stat(path)):
            raise UsageError(f"--csv and --svg name the same file {path}")
    return path


def _write_text(handle: TextIO | _UnbufferedFile, text: str) -> None:
    """Write ``text`` to an open handle: every CSV and SVG piece goes out here."""
    handle.write(text)


def _svg_chunks(
    curves: list[tuple[str, list[np.ndarray], list[np.ndarray]]], title: str
) -> Iterator[str]:
    """Hand-emitted line plot, in pieces: one polyline per curve, clamped
    capacities. A curve is its label and the x and y values of each of its
    blocks, and each block's share of a polyline is formatted on its own, so
    no piece holds more than one block's points.

    Every polyline carries the untransformed values in a ``data-points``
    attribute, one ``x,y`` pair per CSV grid point.
    """
    width, height = 840, 560
    left, right, top, bottom = 70, 30, 46, 64
    plot_w, plot_h = width - left - right, height - top - bottom
    # blocks are never empty, and the values are finite, so each block's
    # maximum is the max() of its values
    x_max = max(max(float(b.max()) for b in xs) for _, xs, _ in curves) or 1.0
    y_max = max(max(float(b.max()) for b in ys) for _, _, ys in curves)
    y_max = max(y_max, 1.0)

    def sx(x: float) -> float:
        return left + plot_w * x / x_max

    def sy(y: float) -> float:
        return top + plot_h * (1.0 - y / y_max)

    def joined(xs: list[np.ndarray], ys: list[np.ndarray], pair) -> Iterator[str]:
        """``" ".join(pair(x, y) for every point)``, one block at a time."""
        for index, (bx, by) in enumerate(zip(xs, ys)):
            if index:
                yield " "
            yield " ".join(pair(x, y) for x, y in zip(bx.tolist(), by.tolist()))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<desc>{escape(title, quote=False)}</desc>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" {axis_style}/>'
    )
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" {axis_style}/>')
    x_ticks = 10
    for i in range(x_ticks + 1):
        x = x_max * i / x_ticks
        px = sx(x)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:g}</text>'
        )
    y_ticks = 8
    for i in range(y_ticks + 1):
        y = y_max * i / y_ticks
        py = sy(y)
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">channel parameter x = p/2</text>'
    )
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">secrecy capacity (bits)</text>'
    )
    yield "\n".join(parts) + "\n"
    for idx, (label, xs, ys) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        yield f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="'
        yield from joined(xs, ys, lambda x, y: f"{sx(x):.3f},{sy(y):.3f}")
        yield f'" data-label="{escape(label, quote=False)}" data-points="'
        yield from joined(xs, ys, lambda x, y: f"{_fmt(x)},{_fmt(y)}")
        legend_y = top + 16 + 18 * idx
        yield (
            '"/>\n'
            f'<line x1="{left + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{left + plot_w - 122}" y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{left + plot_w - 116}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="12">{escape(label, quote=False)}</text>\n'
        )
    yield "</svg>\n"


def _parse_grid(text: str) -> tuple[float, float, float, int]:
    """``(start, stop, step, count)`` of a ``start:stop:step`` grid, whose
    points :func:`_grid_blocks` makes from the first ``count`` multiples of
    ``step``."""
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise UsageError(f"grid must be start:stop:step, got {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise UsageError(f"invalid grid {text!r}")
    if start < 0.0 or stop > X_MAX:
        raise UsageError(f"grid {text!r} leaves the sweep range [0, {X_MAX:g}]")
    span = (stop - start) / step  # inf when the step underflows the ratio
    if span > MAX_GRID_POINTS - 1:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return start, stop, step, int(round(span)) + 1


def _grid_blocks(grid: tuple[float, float, float, int], size: int) -> Iterator[np.ndarray]:
    """The points of a :func:`_parse_grid` grid, in blocks of at most ``size``."""
    start, stop, step, count = grid
    for lo in range(0, count, size):
        xs = start + np.arange(lo, min(lo + size, count)) * step
        # accumulated endpoints may overshoot stop by an ulp; pin them back
        xs = minimum(xs[xs <= stop + 1e-12], stop)
        if xs.size:
            yield xs


def _load_config_file(path: str, args: argparse.Namespace) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` flags.
    Each key, with ``_`` read as ``-``, must name a flag of the subcommand,
    that is an attribute of ``args``, and may be given once."""
    flags = {name.replace("_", "-") for name in vars(args)} - {"command", "config"}
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, value = (part.strip() for part in stripped.partition("="))
                flag = key.replace("_", "-")
                if flag not in flags:
                    raise UsageError(f"{path}:{lineno}: {args.command} takes no key {key!r}")
                if flag in values:
                    raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
                values[flag] = value
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return [f"--{flag}={value}" for flag, value in values.items()]


def _as_float(name: str, value: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise UsageError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise UsageError(f"{name} must be finite, got {value!r}")
    if not lo <= number <= hi:
        raise UsageError(f"{name}={number!r} outside [{lo:g}, {hi:g}]")
    return number + 0.0  # -0.0 becomes 0.0; every other value keeps its bits


def _as_int(name: str, value: str) -> int:
    try:
        return int(value, 0)
    except ValueError as exc:
        raise UsageError(f"{name} must be an integer, got {value!r}") from exc


def _add_shared_flags(sub: argparse.ArgumentParser, *, simulate: bool) -> None:
    add = sub.add_argument
    add(
        "--protocol",
        help="mdi-ts, mdi-dl04, two-step, dl04, a comma list, or 'all' (sweep only)",
    )
    add("--p", help="depolarizing channel parameter per leg")
    add("--x", help="sweep position x = p/2")
    add("--noise", default="first-leg-only", help="%(default)s (default) or both-legs")
    add(
        "--encoding",
        default="y",
        help="single-photon bit-1 operator: x, %(default)s (default), or z",
    )
    add("--q", help="decoding gain Q (default 1)")
    add("--eta", default="1", help="gain gap eta (default %(default)s)")
    add("--csv", help="CSV output path (default: stdout)")
    add("--config", help="key = value file; flags win on conflict")
    if simulate:
        add("--rounds", default="100000", help="Monte Carlo rounds (default %(default)s)")
        add("--seed", default="1", help="64-bit RNG seed (default %(default)s)")
        add(
            "--check-fraction",
            default="0.25",
            help="per-round check probability (default %(default)s)",
        )
        add("--attack", default="none", help="%(default)s (default) or intercept-resend")
    else:
        add("--grid", help="x grid start:stop:step (default 0:0.5:0.005)")
        add("--svg", help="SVG output path")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="mdiqsdc",
        description="Secrecy-capacity sweeps and Monte Carlo runs of "
        "measurement-device-independent QSDC protocols.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    sweep = commands.add_parser("sweep", help="analytic capacity curves over x = p/2")
    _add_shared_flags(sweep, simulate=False)
    simulate = commands.add_parser("simulate", help="Monte Carlo protocol run")
    _add_shared_flags(simulate, simulate=True)
    verify = commands.add_parser("verify", help="oracle-equivalence and invariant checks")
    verify.add_argument(
        "--inject-fault",
        choices=list(KNOWN_FAULTS),
        help="corrupt a named check to demonstrate failure reporting",
    )
    return parser, {"sweep": sweep, "simulate": simulate, "verify": verify}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parsers()[0].parse_args(argv)``, reading ``argv`` once: when its
    first argument names a subcommand, that subcommand's parser alone reads
    the rest, and the top-level parser reports what is left over as its own
    ``parse_args`` would. Any other ``argv`` goes to the top-level parser."""
    parser, subcommands = _parsers()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _parse_protocols(value: str | None, *, default_all: bool) -> list[Protocol]:
    if value is None or value == "all":
        if default_all:
            return list(_PROTOCOL_ORDER)
        raise UsageError("simulate needs --protocol mdi-ts or mdi-dl04")
    out = []
    for name in value.split(","):
        try:
            protocol = Protocol(name.strip())
        except ValueError as exc:
            raise UsageError(f"unknown protocol {name!r}") from exc
        if protocol in out:
            raise UsageError(f"protocol {protocol.value!r} given twice")
        out.append(protocol)
    return out


def _resolve_x(args: argparse.Namespace) -> float | None:
    if args.x is not None and args.p is not None:
        raise UsageError("--x and --p are mutually exclusive")
    if args.x is not None:
        return _as_float("x", args.x, 0.0, X_MAX)
    if args.p is not None:
        return _as_float("p", args.p, 0.0, 2.0 * X_MAX) / 2.0
    return None


def _resolve_common(args: argparse.Namespace):
    """Noise placement, encoding, decoding gain Q (None when ``--q`` is not
    given) and gain gap."""
    try:
        noise = NoisePlacement(args.noise)
    except ValueError as exc:
        raise UsageError(f"unknown noise placement {args.noise!r}") from exc
    encoding_name = args.encoding.lower()
    if encoding_name not in _ENCODINGS:
        raise UsageError(f"unknown encoding {encoding_name!r}")
    q = None if args.q is None else _as_float("q", args.q, 0.0, 1.0)
    eta = _as_float("eta", args.eta, 0.0, ETA_MAX)
    return noise, _ENCODINGS[encoding_name], q, eta


def cmd_sweep(args: argparse.Namespace) -> int:
    protocols = _parse_protocols(args.protocol, default_all=True)
    noise, encoding, q, eta = _resolve_common(args)
    q = 1.0 if q is None else q
    single_x = _resolve_x(args)
    if single_x is not None and args.grid is not None:
        point_flag = "--x" if args.x is not None else "--p"
        raise UsageError(f"--grid and {point_flag} are mutually exclusive")
    if single_x is None:
        grid = _parse_grid("0:0.5:0.005" if args.grid is None else args.grid)
    else:
        grid = (single_x, single_x, 1.0, 1)  # a one-point grid

    # Every usage error is raised above, before any file is opened. The plot's
    # file is opened before the CSV but emptied only once the CSV is open too,
    # so an unwritable --svg or --csv leaves the other file as it was; like
    # the CSV's O_TRUNC, this empties a regular file only (a device such as
    # /dev/null cannot be truncated). Each block's rows are written and
    # dropped; the plot keeps each block's x and clamped capacity arrays and
    # writes its text one block at a time.
    curves: list[tuple[str, list[np.ndarray], list[np.ndarray]]] = []
    plot = contextlib.nullcontext() if args.svg is None else _UnbufferedFile(args.svg, os.O_APPEND)
    with plot as svg, _open_output(_apart_from(svg, args.csv)) as out:
        if svg is not None and stat.S_ISREG(os.fstat(svg.fd).st_mode):
            os.ftruncate(svg.fd, 0)
        _write_text(out, CSV_HEADER + "\n")
        for protocol in protocols:
            xs, ys = [], []
            for block in _grid_blocks(grid, SWEEP_BLOCK):
                curve = analytic_point(
                    protocol, block, noise=noise, encoding=encoding, q=q, eta=eta
                )
                for text in _csv_rows(curve):
                    _write_text(out, text)
                if svg is not None:
                    xs.append(curve.x)
                    ys.append(curve.capacity.clamped)
            if svg is not None:
                curves.append((protocol.value, xs, ys))
            crossing = zero_crossing(protocol, noise=noise, encoding=encoding, q=q, eta=eta)
            where = "none in [0, 0.5]" if crossing is None else f"x = {crossing:.6f}"
            print(f"zero-crossing {protocol.value}: {where}", file=sys.stderr)
        if svg is not None:
            for chunk in _svg_chunks(curves, "secrecy capacity vs channel parameter"):
                _write_text(svg, chunk)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    protocols = _parse_protocols(args.protocol, default_all=False)
    if len(protocols) != 1:
        raise UsageError("simulate takes exactly one protocol")
    protocol = protocols[0]
    noise, encoding, q, eta = _resolve_common(args)
    x = _resolve_x(args)
    if x is None:
        raise UsageError("simulate needs --p or --x")
    try:
        attack = AttackModel(args.attack)
    except ValueError as exc:
        raise UsageError(f"unknown attack model {args.attack!r}") from exc

    try:
        cfg = ProtocolConfig(
            protocol=protocol,
            rounds=_as_int("rounds", args.rounds),
            channel_p=2.0 * x,
            seed=_as_int("seed", args.seed),
            check_fraction=_as_float("check-fraction", args.check_fraction),
            noise=noise,
            q_override=q,
            eta=eta,
            dl04_encoding=encoding,
            attack=attack,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    stats = run(cfg)
    if stats.point is None:
        print(f"insufficient statistics: {stats.unavailable_reason}", file=sys.stderr)
        return EXIT_INSUFFICIENT_STATS

    (twin_row,) = _csv_rows(analytic_point_for_config(cfg))
    (run_row,) = _csv_rows(stats.point, f"montecarlo,{cfg.seed},{cfg.rounds}")
    with _open_output(args.csv) as out:
        _write_text(out, CSV_HEADER + "\n" + twin_row + run_row)
    _print_summary(cfg, stats)
    return EXIT_OK


def _print_summary(cfg: ProtocolConfig, stats: TranscriptStats) -> None:
    point, se = stats.point, stats.se
    lines = [
        f"protocol {cfg.protocol.value}  p={cfg.channel_p:g}  rounds={cfg.rounds}  "
        f"seed={cfg.seed}  attack={'on' if cfg.attack != AttackModel.NONE else 'off'}",
        f"rounds: {cfg.rounds - stats.message_rounds} checks, {stats.message_rounds} messages, "
        f"gain Q = {stats.gain:.6f}",
    ]
    for basis, (errors, samples) in stats.checks.items():
        if samples:
            name = f"eps_{basis.name.lower()}"
            lines.append(
                f"{name} = {getattr(point, name):.6f} +- {se[name]:.6f} ({errors}/{samples})"
            )
    if cfg.protocol == Protocol.MDI_TS:
        probs = ", ".join(f"{p:.6f}" for p in stats.law)
        lines.append(f"message error distribution = ({probs})")
    else:
        lines.append(f"bit error = {stats.law[1]:.6f} +- {se['bit_error']:.6f}")
    lines.append(
        f"capacity = {_fixed(point.capacity.raw)} +- {_fixed(se['capacity'])} "
        f"(clamped {point.capacity.clamped:.6f})"
    )
    print("\n".join(lines), file=sys.stderr)


def _fixed(value: float) -> str:
    """Six decimals, in exponent form from magnitude 1e6 on, where a huge
    gain gap would otherwise print hundreds of digits."""
    return f"{value:.6f}" if abs(value) < 1e6 else f"{value:.6e}"


def cmd_verify(args: argparse.Namespace) -> int:
    out = _stdout()
    results = run_all_checks(inject_fault=args.inject_fault)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}", file=out)
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed", file=sys.stderr)
    return EXIT_OK


def _settle(stream: TextIO | None, text: str = "") -> None:
    """Write ``text`` to ``stream`` and flush it. A stream that cannot be
    written has its file pointed at os.devnull, as the SIGPIPE note in
    Python's ``signal`` docs does, so that the interpreter's final flush of
    what is left in its buffer succeeds and keeps the exit code."""
    if stream is None:  # a standard stream the process started without
        return
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # the file's keys are read as flags ahead of argv's own, so a
            # flag given on the command line wins
            args = _parse_args([args.command, *_load_config_file(args.config, args), *argv[1:]])
        if args.command == "sweep":
            code = cmd_sweep(args)
        elif args.command == "simulate":
            code = cmd_simulate(args)
        else:
            code = cmd_verify(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # an unwritable stdout fails here, not at interpreter exit
        return code
    except (UsageError, OSError) as exc:
        code, report = EXIT_USAGE, f"error: {exc}\n"
    except Exception:
        code, report = EXIT_INTERNAL, traceback.format_exc()
    _settle(sys.stdout)
    _settle(sys.stderr, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
