"""Command-line interface tests: CSV schema, SVG embedding, exit codes."""

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdiqsdc.cli
import mdiqsdc.curves
import mdiqsdc.protocol
from mdiqsdc.cli import (
    CSV_HEADER,
    CSV_SLICE,
    MAX_GRID_POINTS,
    SWEEP_BLOCK,
    UsageError,
    _csv_rows,
    _grid_blocks,
    _parse_grid,
    _parsers,
    _svg_chunks,
    main,
)
from mdiqsdc.curves import analytic_point
from mdiqsdc.protocol import (
    ETA_MAX,
    MAX_ROUNDS,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
)
from mdiqsdc.quantum import PauliLabel

# the benchmark's correctness gate, imported from its own directory and not modified
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from gate import Gate, Outcome  # noqa: E402
from workloads import Op  # noqa: E402

NON_FINITE = ("nan", "inf", "-inf")
NON_FINITE_TOKEN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def grid_points(text, block=SWEEP_BLOCK):
    """Every point of a ``--grid`` text, from its blocks."""
    return np.concatenate(list(_grid_blocks(_parse_grid(text), block)))


def listed_grid(text):
    """Reference: the grid as one list, built point by point."""
    start, stop, step = map(float, text.split(":"))
    grid = [start + i * step for i in range(int(round((stop - start) / step)) + 1)]
    return [min(x, stop) for x in grid if x <= stop + 1e-12]


def sweep_digests(argv, svg_path):
    """SHA-256 of a sweep's stdout (the CSV) followed by its stderr, and of
    its SVG."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--svg", str(svg_path)])
    assert code == 0, err.getvalue()
    streams = hashlib.sha256(out.getvalue().encode() + err.getvalue().encode()).hexdigest()
    return streams, hashlib.sha256(svg_path.read_bytes()).hexdigest()


class TestSweep:
    def test_default_grid_shape_and_invariants(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(["sweep", "--csv", str(out)], capsys)
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 4 * 101
        for row in rows:
            assert float(row["x"]) == float(row["p"]) / 2.0
            raw, clamped = float(row["capacity_raw"]), float(row["capacity_clamped"])
            assert clamped == max(raw, 0.0)
            assert row["source"] == "analytic"
            assert row["seed"] == "" and row["rounds"] == ""
        assert err.count("zero-crossing") == 4

    def test_single_point_endpoints(self, capsys):
        code, out, _ = run_cli(["sweep", "--protocol", "mdi-ts", "--x", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["capacity_raw"]) == 2.0
        code, out, _ = run_cli(["sweep", "--protocol", "mdi-dl04", "--x", "0"], capsys)
        _, rows = parse_csv(out)
        assert float(rows[0]["capacity_raw"]) == 1.0

    @pytest.mark.parametrize(
        "flag, value", [("--x", "0"), ("--x", "0.1"), ("--x", "0.123456789"), ("--x", "0.5"),
                        ("--p", "0.37")],
    )
    def test_single_point_is_the_float_point(self, capsys, flag, value):
        """A one-point sweep prints, per curve, the row of the float call at
        its x, although it goes through the grid path."""
        x = float(value) / (2.0 if flag == "--p" else 1.0)
        code, out, _ = run_cli(["sweep", flag, value, "--noise", "both-legs"], capsys)
        assert code == 0
        want = [
            row
            for protocol in mdiqsdc.cli._parse_protocols(None, default_all=True)
            for row in _csv_rows(analytic_point(protocol, x, noise=NoisePlacement.BOTH_LEGS))
        ]
        assert out == CSV_HEADER + "\n" + "".join(want)

    def test_p_flag_is_twice_x(self, capsys):
        code, out, _ = run_cli(["sweep", "--protocol", "dl04", "--p", "0.3"], capsys)
        _, rows = parse_csv(out)
        assert float(rows[0]["x"]) == 0.15

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sweep", "--grid", "0:0.2:0.01", "--csv", str(a)], capsys)
        run_cli(["sweep", "--grid", "0:0.2:0.01", "--csv", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_valid_and_embeds_csv_points(self, capsys, tmp_path):
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        code, _, _ = run_cli(
            ["sweep", "--grid", "0:0.1:0.02", "--csv", str(csv_path), "--svg", str(svg_path)],
            capsys,
        )
        assert code == 0
        root = ET.parse(svg_path).getroot()  # must be valid XML
        polylines = [
            el for el in root.iter() if el.tag.endswith("polyline")
        ]
        assert len(polylines) == 4
        _, rows = parse_csv(csv_path.read_text())
        by_protocol = {}
        for row in rows:
            by_protocol.setdefault(row["protocol"], []).append(
                f"{row['x']},{row['capacity_clamped']}"
            )
        for poly in polylines:
            label = poly.attrib["data-label"]
            assert poly.attrib["data-points"] == " ".join(by_protocol[label])

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--grid", "0:0.5"], capsys)
        assert code == 2 and "grid" in err
        code, _, _ = run_cli(["sweep", "--grid", "0.5:0:0.01"], capsys)
        assert code == 2
        code, _, _ = run_cli(["sweep", "--grid", "0:0.5:-0.1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", ["--eta", "--q", "--p", "--x"])
    def test_non_finite_input_exits_2(self, capsys, flag, value):
        point = [] if flag in ("--p", "--x") else ["--x", "0"]
        code, out, err = run_cli(["sweep", *point, f"{flag}={value}"], capsys)
        assert code == 2 and "finite" in err
        assert out == ""

    def test_non_finite_grid_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--grid", "0:inf:0.1"], capsys)
        assert code == 2 and "grid" in err

    def test_svg_escapes_like_xml_sax(self):
        label = "a&b<c>d\"e'f"
        curve = (label, [np.array([0.0, 0.5])], [np.array([1.0, 0.0])])
        svg = "".join(_svg_chunks([curve], label))
        assert svg.count(sax_escape(label)) == 4
        assert "&amp;b&lt;c&gt;d\"e'f" in svg

    def test_noise_and_gain_flags_change_the_curve(self, capsys):
        base = ["sweep", "--protocol", "mdi-ts", "--x", "0.05"]
        _, out_first, _ = run_cli(base, capsys)
        _, out_both, _ = run_cli([*base, "--noise", "both-legs"], capsys)
        _, rows_first = parse_csv(out_first)
        _, rows_both = parse_csv(out_both)
        assert float(rows_both[0]["capacity_raw"]) < float(rows_first[0]["capacity_raw"])
        _, out_eta, _ = run_cli([*base, "--eta", "0"], capsys)
        _, rows_eta = parse_csv(out_eta)
        assert float(rows_eta[0]["capacity_raw"]) > float(rows_first[0]["capacity_raw"])

    def test_unknown_protocol_exits_2(self, capsys):
        code, _, _ = run_cli(["sweep", "--protocol", "bb84"], capsys)
        assert code == 2

    @pytest.mark.parametrize("protocol", tuple(Protocol))
    def test_curve_rows_are_the_point_rows(self, monkeypatch, protocol):
        xs = [-0.0, 0.0, 1e-9, 0.123456789, 0.3, 0.5]
        # q = 0 gives capacities of -0.0; slices of 4 split the grid's rows
        for q, csv_slice in itertools.product((1.0, 0.0), (CSV_SLICE, 4)):
            monkeypatch.setattr(mdiqsdc.cli, "CSV_SLICE", csv_slice)
            pieces = list(_csv_rows(analytic_point(protocol, np.array(xs), q=q)))
            expected = [
                text for x in xs for text in _csv_rows(analytic_point(protocol, x, q=q))
            ]
            assert len(pieces) == math.ceil(len(xs) / csv_slice)
            assert "".join(pieces) == "".join(expected) and len(expected) == len(xs)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_percent_g_formats_like_format(self, value):
        assert "%.12g" % value == format(value, ".12g")

    # SHA-256 of the default-grid CSV and SVG, taken from the per-point
    # evaluation that preceded the array path; on the default grid all
    # protocols' curves are the same for every encoding
    DEFAULT_GRID_SHA256 = {
        "first-leg-only": (
            "31a978f8d276881ab0a9a5be1125c5955c616d5e019d2b94d85169b2648e6076",
            "c7f22fa1e9544dd2e77622ebe81132c72be4dcd5c9b2dde27a34e88be1b9ec84",
        ),
        "both-legs": (
            "51d15d67ba79e10153e1f0a71a7945e681ce0238106ef06c5ff52bd2d80ab39e",
            "a4adcb185a9377d067879f9a7ffe4dc8720fde92bf30d391b57b991a1ab555ee",
        ),
    }

    @pytest.mark.parametrize("encoding", ["x", "y", "z"])
    @pytest.mark.parametrize("noise", ["first-leg-only", "both-legs"])
    def test_default_grid_output_is_pinned(self, capsys, tmp_path, noise, encoding):
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        argv = ["sweep", "--noise", noise, "--encoding", encoding]
        code, _, _ = run_cli([*argv, "--csv", str(csv_path), "--svg", str(svg_path)], capsys)
        assert code == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path))
        assert digests == self.DEFAULT_GRID_SHA256[noise]

    def test_unwritable_output_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--x", "0.1", "--csv", "/nonexistent-dir/out.csv"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("unwritable, kept", [("svg", "csv"), ("csv", "svg")])
    def test_unwritable_output_leaves_the_other_file_untouched(
        self, capsys, tmp_path, unwritable, kept
    ):
        paths = {unwritable: "/nonexistent-dir/c." + unwritable, kept: tmp_path / f"kept.{kept}"}
        paths[kept].write_bytes(b"kept,bytes\n")
        argv = ["sweep", "--x", "0.1", "--csv", str(paths["csv"]), "--svg", str(paths["svg"])]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "zero-crossing" not in err
        assert paths[kept].read_bytes() == b"kept,bytes\n"

    def test_existing_svg_is_replaced(self, capsys, tmp_path):
        svg_path = tmp_path / "c.svg"
        run_cli(["sweep", "--x", "0.1", "--svg", str(svg_path)], capsys)
        fresh = svg_path.read_bytes()
        svg_path.write_bytes(b"x" * (2 * len(fresh)))
        code, _, _ = run_cli(["sweep", "--x", "0.1", "--svg", str(svg_path)], capsys)
        assert code == 0
        assert svg_path.read_bytes() == fresh

    def test_svg_to_a_device_is_written(self, capsys):
        code, _, _ = run_cli(["sweep", "--x", "0.1", "--svg", os.devnull], capsys)
        assert code == 0
        argv = ["sweep", "--x", "0.1", "--csv", os.devnull, "--svg", os.devnull]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0

    @pytest.mark.parametrize("hard_link", [False, True])
    def test_csv_and_svg_naming_one_file_exits_2(self, capsys, tmp_path, hard_link):
        path = tmp_path / "out"
        path.write_bytes(b"kept,bytes\n")
        csv = tmp_path / "link" if hard_link else path
        if hard_link:
            os.link(path, csv)
        argv = ["sweep", "--x", "0.1", "--csv", str(csv), "--svg", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: --csv and --svg name the same file {csv}\n")
        assert path.read_bytes() == b"kept,bytes\n"


class TestSweepBlocks:
    """A sweep evaluates, formats and writes its grid ``SWEEP_BLOCK`` points
    at a time; the output is that of one whole-grid pass."""

    # SHA-256 of (CSV on stdout + stderr) and of the SVG, taken from the
    # whole-grid sweep that preceded the blocks: 5001 points, and 4673
    # points of a grid whose 4674th point the endpoint filter drops
    MULTI_BLOCK_SHA256 = {
        ("0:0.5:0.0001",): (
            "6f04f2f9bd6dcd7e3d7611d19577fbbf63d54b7f379b6ff252f837c77daf9220",
            "21b5d34127cfb0281d3a1c7232d3f860193c4781183fab719c84aa6d25bcd129",
        ),
        ("0:0.5:0.000107",): (
            "577c987b62549583e0d87807f9ff2c9d20814879582a2b682278199456c4d9b0",
            "afb6b8b980cf1db0966f0a7d09086beb050d1bfc8812cb77741c7710a853106e",
        ),
        ("0:0.5:0.0001", "--noise", "both-legs", "--encoding", "x", "--q", "0.7", "--eta", "2"): (
            "01ff89af23f5d316cd3216cdbe06704dbf024cdb3bf2200695e9a205d9de928f",
            "abcb1eff111483937b879aaff7340d559ea390e96844440666b45faa72de9eb6",
        ),
    }

    @pytest.mark.parametrize("block", [SWEEP_BLOCK, 7])
    @pytest.mark.parametrize("grid", list(MULTI_BLOCK_SHA256))
    def test_multi_block_output_is_pinned(self, tmp_path, monkeypatch, grid, block):
        monkeypatch.setattr(mdiqsdc.cli, "SWEEP_BLOCK", block)
        digests = sweep_digests(["sweep", "--grid", *grid], tmp_path / "c.svg")
        assert digests == self.MULTI_BLOCK_SHA256[grid]

    def test_last_point_dropped_by_the_endpoint_filter(self):
        assert _parse_grid("0:0.5:0.000107")[3] == 4674  # 4673 * 0.000107 > 0.5
        points = grid_points("0:0.5:0.000107")
        assert points.size == 4673 and points[-1] <= 0.5

    def test_blocks_equal_the_listed_grid(self):
        """Bit for bit, on the documented grids and 3000 random ones; a block
        of 7 splits every grid. The random grids put the last multiple of
        step on either side of stop (about 640 drop it), and about 80 of the
        decimal ones overshoot stop by an ulp and pin it back."""
        rng = random.Random(18)
        texts = ["0:0.5:0.005", "0:0.2:0.001", "0:0.5:0.0005", "0:0.5:0.0001", "0:0.5:0.000107",
                 "0:0:1"]
        for _ in range(3000):
            if rng.random() < 0.5:
                start = rng.choice([0.0, rng.uniform(0.0, 0.5)])
                step = 10.0 ** rng.uniform(-5, -0.3)
                intervals = rng.randrange(3000) + rng.choice([0.0, rng.random()])
                stop = min(start + intervals * step, 0.5)
                texts.append(f"{start!r}:{stop!r}:{step!r}")
            else:
                scale = 10 ** rng.randrange(2, 6)
                start = rng.randrange(scale // 2) * rng.randrange(2)
                step = rng.randrange(1, scale // 2 - start + 2)
                stop = start + rng.randrange(min(3000, (scale // 2 - start) // step) + 1) * step
                texts.append(f"{start / scale!r}:{stop / scale!r}:{step / scale!r}")
        for text in texts:
            expected = np.array(listed_grid(text)).view(np.uint64)
            for block in (SWEEP_BLOCK, 7):
                assert np.array_equal(grid_points(text, block).view(np.uint64), expected), text

    def test_every_block_goes_through_write_text(self, capsys, tmp_path, monkeypatch):
        """The benchmark counts output bytes by wrapping ``_write_text``."""
        written = []
        write_text = mdiqsdc.cli._write_text

        def counting(target, text):
            written.append(len(text.encode("utf-8")))
            write_text(target, text)

        monkeypatch.setattr(mdiqsdc.cli, "SWEEP_BLOCK", 700)
        monkeypatch.setattr(mdiqsdc.cli, "_write_text", counting)
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        argv = ["sweep", "--grid", "0:0.5:0.0005", "--csv", str(csv_path), "--svg", str(svg_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        # the header, then each protocol's blocks of 700 and 301 rows in slices;
        # then the SVG's pieces
        csv_writes = 1 + 4 * (math.ceil(700 / CSV_SLICE) + math.ceil(301 / CSV_SLICE))
        assert sum(written[:csv_writes]) == csv_path.stat().st_size
        assert sum(written[csv_writes:]) == svg_path.stat().st_size

    @pytest.mark.parametrize(
        "args",
        [
            ["--protocol", "bb84"],
            ["--protocol", "mdi-ts,mdi-ts"],
            ["--noise", "both"],
            ["--encoding", "w"],
            ["--q", "2"],
            ["--eta", "nan"],
            ["--x", "0.7"],
            ["--x", "0.1", "--p", "0.2"],
            ["--grid", "0:0.5"],
            ["--grid", "0:0.7:0.1"],
            ["--grid", "0:0.5:1e-12"],
            ["--config", "absent.conf"],
            ["--config", "rounds.conf"],
        ],
    )
    def test_usage_error_leaves_the_csv_untouched(self, capsys, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rounds.conf").write_text("rounds = 500\n")
        csv_path = tmp_path / "kept.csv"
        csv_path.write_bytes(b"earlier output\n")
        code, out, err = run_cli(["sweep", *args, "--csv", str(csv_path)], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert csv_path.read_bytes() == b"earlier output\n"

    def test_peak_memory_flat_in_grid_points(self, tmp_path, monkeypatch):
        """A sweep holds one block of rows at a time. With blocks of 256
        points, from 501 to 5001 points of one curve its tracemalloc peak
        grows by at most 20 B per extra point (about 5 B); a sweep that keeps
        every row of the grid grew by about 530 B per point."""
        monkeypatch.setattr(mdiqsdc.cli, "SWEEP_BLOCK", 256)

        def peak(grid):
            argv = ["sweep", "--protocol", "mdi-ts", "--grid", grid, "--csv",
                    str(tmp_path / "c.csv")]
            with contextlib.redirect_stderr(io.StringIO()):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        small, large = "0:0.5:0.001", "0:0.5:0.0001"
        peak(small)  # warm-up: imports and caches
        extra = grid_points(large).size - grid_points(small).size
        assert extra == 4500
        growth = peak(large) - peak(small)
        assert growth <= 20 * extra, growth

    def test_svg_memory_per_grid_point(self, tmp_path, monkeypatch):
        """--svg keeps each curve's block arrays, 16 B per point per curve,
        and formats the plot a block at a time. With blocks of 256 points,
        from 501 to 5001 points of one curve its tracemalloc peak grows by at
        most 25 B per extra point per curve more than the peak without --svg
        (about 15 B). Building the whole plot text at once grew by about 185 B
        per point per curve more."""
        monkeypatch.setattr(mdiqsdc.cli, "SWEEP_BLOCK", 256)

        def peak(grid, *svg):
            argv = ["sweep", "--protocol", "mdi-ts", "--grid", grid,
                    "--csv", str(tmp_path / "c.csv"), *svg]
            with contextlib.redirect_stderr(io.StringIO()):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        svg = ("--svg", str(tmp_path / "c.svg"))
        small, large = "0:0.5:0.001", "0:0.5:0.0001"
        peak(small, *svg)  # warm-up: imports and caches
        extra = grid_points(large).size - grid_points(small).size
        assert extra == 4500
        with_svg = peak(large, *svg) - peak(small, *svg)
        without = peak(large) - peak(small)
        assert with_svg - without <= 25 * extra, (with_svg, without)


@st.composite
def grids(draw):
    """An in-range grid text of at most 200 points."""
    start = draw(st.floats(0.0, 0.5))
    step = draw(st.floats(1e-4, 0.5))
    intervals = draw(st.integers(0, min(199, int((0.5 - start) / step))))
    stop = min(start + intervals * step, 0.5)
    return f"{start!r}:{stop!r}:{step!r}"


NUMERIC_COLUMNS = CSV_HEADER.split(",")[:2] + CSV_HEADER.split(",")[3:10]


@settings(max_examples=60, deadline=None)
@given(
    grid=grids(),
    noise=st.sampled_from(["first-leg-only", "both-legs"]),
    encoding=st.sampled_from(["x", "y", "z"]),
    q=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 10.0),
)
def test_sweep_rows_are_finite_and_clamped(grid, noise, encoding, q, eta):
    argv = ["sweep", "--grid", grid, "--noise", noise, "--encoding", encoding]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--q", repr(q), "--eta", repr(eta)])
    assert code == 0
    _, rows = parse_csv(out.getvalue())
    points = len(listed_grid(grid))
    assert len(rows) == 4 * points
    for protocol in ("mdi-ts", "two-step", "mdi-dl04", "dl04"):
        assert sum(row["protocol"] == protocol for row in rows) == points
    for row in rows:
        assert all(math.isfinite(float(row[name])) for name in NUMERIC_COLUMNS)
        raw, clamped = float(row["capacity_raw"]), float(row["capacity_clamped"])
        assert clamped >= 0.0 and clamped == max(raw, 0.0)


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--protocol", "mdi-ts,mdi-ts", "--x", "0.1"],
        ["sweep", "--protocol", "dl04, mdi-ts,dl04"],
        ["simulate", "--protocol", "mdi-dl04,mdi-dl04", "--p", "0.1", "--rounds", "100"],
    ],
)
def test_repeated_protocol_exits_2(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    repeated = args[2].split(",")[-1].strip()
    assert f"protocol {repeated!r} given twice" in err
    assert "zero-crossing" not in err


class TestSimulate:
    def test_noiseless_run(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0", "--rounds", "1000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row["source"] for row in rows] == ["analytic", "montecarlo"]
        mc = rows[1]
        assert float(mc["eps_z"]) == 0.0
        assert float(mc["capacity_raw"]) == 2.0
        assert mc["seed"] == "7" and mc["rounds"] == "1000"
        assert "capacity" in err

    # SHA-256 of stdout then stderr of ``simulate --p 0.2 --seed 29``, taken
    # when a run became one multinomial draw of its tally cells (each output
    # is within 5 SE of its analytic twin by perfbench/gate.py, and a rerun
    # gave the same bytes); any change to the draw or to how the cells are
    # read shows here
    LARGE = 2 * 65536 + 17
    SIMULATE_SHA256 = {
        ("mdi-ts", "first-leg-only", "none", "x", 2000):
            "8371d2ccfcd34a1e2dfc189463aa995a872bf71f4f73964d2702c3cff311b0f9",
        ("mdi-ts", "first-leg-only", "none", "x", LARGE):
            "5d4f84a2256ca0438767f465863a5b1b8dc3df2b64a91586e526499e612cb19d",
        ("mdi-ts", "first-leg-only", "none", "y", 2000):
            "8371d2ccfcd34a1e2dfc189463aa995a872bf71f4f73964d2702c3cff311b0f9",
        ("mdi-ts", "first-leg-only", "none", "y", LARGE):
            "5d4f84a2256ca0438767f465863a5b1b8dc3df2b64a91586e526499e612cb19d",
        ("mdi-ts", "first-leg-only", "none", "z", 2000):
            "8371d2ccfcd34a1e2dfc189463aa995a872bf71f4f73964d2702c3cff311b0f9",
        ("mdi-ts", "first-leg-only", "none", "z", LARGE):
            "5d4f84a2256ca0438767f465863a5b1b8dc3df2b64a91586e526499e612cb19d",
        ("mdi-ts", "first-leg-only", "intercept-resend", "x", 2000):
            "661234bcad0b64a502428026e31581be39d938ef882430456ea15ee46be6c290",
        ("mdi-ts", "first-leg-only", "intercept-resend", "x", LARGE):
            "549b1eee9df912570599ec08b251a2388f675a310f092b2328dc3056b6e8d8f2",
        ("mdi-ts", "first-leg-only", "intercept-resend", "y", 2000):
            "661234bcad0b64a502428026e31581be39d938ef882430456ea15ee46be6c290",
        ("mdi-ts", "first-leg-only", "intercept-resend", "y", LARGE):
            "549b1eee9df912570599ec08b251a2388f675a310f092b2328dc3056b6e8d8f2",
        ("mdi-ts", "first-leg-only", "intercept-resend", "z", 2000):
            "661234bcad0b64a502428026e31581be39d938ef882430456ea15ee46be6c290",
        ("mdi-ts", "first-leg-only", "intercept-resend", "z", LARGE):
            "549b1eee9df912570599ec08b251a2388f675a310f092b2328dc3056b6e8d8f2",
        ("mdi-ts", "both-legs", "none", "x", 2000):
            "bdb18cc6d5a0748b3f0561b24075825224c8cd125232672f0f4f587713b9763e",
        ("mdi-ts", "both-legs", "none", "x", LARGE):
            "e461b8d8b745854cd37c7c73abc9ae5d9fe1680df10b36d2d735b92ba93379c4",
        ("mdi-ts", "both-legs", "none", "y", 2000):
            "bdb18cc6d5a0748b3f0561b24075825224c8cd125232672f0f4f587713b9763e",
        ("mdi-ts", "both-legs", "none", "y", LARGE):
            "e461b8d8b745854cd37c7c73abc9ae5d9fe1680df10b36d2d735b92ba93379c4",
        ("mdi-ts", "both-legs", "none", "z", 2000):
            "bdb18cc6d5a0748b3f0561b24075825224c8cd125232672f0f4f587713b9763e",
        ("mdi-ts", "both-legs", "none", "z", LARGE):
            "e461b8d8b745854cd37c7c73abc9ae5d9fe1680df10b36d2d735b92ba93379c4",
        ("mdi-ts", "both-legs", "intercept-resend", "x", 2000):
            "c07a5583ee0edd4b96dcb640431022dec275a4fdb7bb8eb4a446604e8421c9a9",
        ("mdi-ts", "both-legs", "intercept-resend", "x", LARGE):
            "bb560ee569899faa44cc8814354d28baccbd727245a6917d5bab636fc8cff85e",
        ("mdi-ts", "both-legs", "intercept-resend", "y", 2000):
            "c07a5583ee0edd4b96dcb640431022dec275a4fdb7bb8eb4a446604e8421c9a9",
        ("mdi-ts", "both-legs", "intercept-resend", "y", LARGE):
            "bb560ee569899faa44cc8814354d28baccbd727245a6917d5bab636fc8cff85e",
        ("mdi-ts", "both-legs", "intercept-resend", "z", 2000):
            "c07a5583ee0edd4b96dcb640431022dec275a4fdb7bb8eb4a446604e8421c9a9",
        ("mdi-ts", "both-legs", "intercept-resend", "z", LARGE):
            "bb560ee569899faa44cc8814354d28baccbd727245a6917d5bab636fc8cff85e",
        ("mdi-dl04", "first-leg-only", "none", "x", 2000):
            "e0299e2ea7509e3b2fc3ec155cc3d5b583649a78f5a181a02c43f6cce185d840",
        ("mdi-dl04", "first-leg-only", "none", "x", LARGE):
            "f6b3e7ded53780479b958dc060c211bb2357110fbf5192dacddfbc615568a2cb",
        ("mdi-dl04", "first-leg-only", "none", "y", 2000):
            "afd76fadd11e1572f1822e0212421d869d6176a11e49a87823668023da94d726",
        ("mdi-dl04", "first-leg-only", "none", "y", LARGE):
            "912880ac9e149646cb2031a8421763f47c44cb59c7016305a50cea00db9fdab8",
        ("mdi-dl04", "first-leg-only", "none", "z", 2000):
            "8638b16752de8ed4f5e2ee9b6a2b08db427906888a624c9ec6d22cd9bf4b85c0",
        ("mdi-dl04", "first-leg-only", "none", "z", LARGE):
            "a575efc73d6dc91199c5d1b68cbcc637c4865563a1194b50500f498214a0f5f7",
        ("mdi-dl04", "first-leg-only", "intercept-resend", "x", 2000):
            "0f7bde4ff7be457fd6c8ead19bda46cd2ba22adc2c695d74d069764d6c5b4ddc",
        ("mdi-dl04", "first-leg-only", "intercept-resend", "x", LARGE):
            "d3c45ffbcc08f73d9aeb569dc3e07e0dd8c2285c82867bed31dd06a7b5e9e582",
        ("mdi-dl04", "first-leg-only", "intercept-resend", "y", 2000):
            "b556bc59a3c32e4183a54b7383c977509d466db3e3b9df8c7a34e49a8c54f6c6",
        ("mdi-dl04", "first-leg-only", "intercept-resend", "y", LARGE):
            "aeb313328aa966faa13430ee6fe0b94748b195fb88c75119652209aeae55957e",
        ("mdi-dl04", "first-leg-only", "intercept-resend", "z", 2000):
            "3ccea5346defbab5b20519ea655d16d2a89f1af224d7e196f188d4ab50ad68f3",
        ("mdi-dl04", "first-leg-only", "intercept-resend", "z", LARGE):
            "10908c42c40c9d3558eef7d2517aa630f5a504ac9c5ba0c7bd081821a4782c1f",
        ("mdi-dl04", "both-legs", "none", "x", 2000):
            "6621b7706dca545884ad2a2cf14e060d12b278aaa93f3f12b45dec4f58a85bfc",
        ("mdi-dl04", "both-legs", "none", "x", LARGE):
            "ca2ffdc3ab93ac184c8bb6747f85db7a1b6828478e6f0188dda4779fde2d2966",
        ("mdi-dl04", "both-legs", "none", "y", 2000):
            "4dffe0b0319d6ab1fa323e503e5f56e8c8fecd894ff4f3480e36a4ae2390792f",
        ("mdi-dl04", "both-legs", "none", "y", LARGE):
            "358a990e719bbde1bb53e3f989e25d9b4a62d4f91917dd8fcb9fbac47fa0ff69",
        ("mdi-dl04", "both-legs", "none", "z", 2000):
            "b94b313234879f675240c55004df1ebc465a5a2b65a537283429995522141614",
        ("mdi-dl04", "both-legs", "none", "z", LARGE):
            "25950bebdfe8eebe464d137547835fb4e25301fa1560570e8c2eebd21de097af",
        ("mdi-dl04", "both-legs", "intercept-resend", "x", 2000):
            "5043f427f3f0499a90008ee1d920582167c3911bb1200de3d5e9ebc6736cc8b7",
        ("mdi-dl04", "both-legs", "intercept-resend", "x", LARGE):
            "345fcfaa92fe7049c5a92d081a4a020eed1b19660b5712e0a28a53ef945f982f",
        ("mdi-dl04", "both-legs", "intercept-resend", "y", 2000):
            "eb49f86f56583aeabb21692719ab029a38a45e120ffb845d8d4e4daf768735f4",
        ("mdi-dl04", "both-legs", "intercept-resend", "y", LARGE):
            "972bc110913a31fe2ef93889d01a77ef70eca0908d209579efc1d7ba3564e939",
        ("mdi-dl04", "both-legs", "intercept-resend", "z", 2000):
            "b7efde7487a8a9da0eb006dff7c0a1602c1cd649d66899a97d62037058291727",
        ("mdi-dl04", "both-legs", "intercept-resend", "z", LARGE):
            "c3247f5370000c4531d7be35e5a09dcfd353521ed97ed4c705fd2d6a441334c8",
    }

    each_pin = pytest.mark.parametrize(
        "protocol, noise, attack, encoding, rounds", list(SIMULATE_SHA256)
    )

    @staticmethod
    def pinned_argv(protocol, noise, attack, encoding, rounds):
        return [
            "simulate", "--protocol", protocol, "--p", "0.2", "--rounds", str(rounds),
            "--seed", "29", "--noise", noise, "--attack", attack, "--encoding", encoding,
        ]

    @each_pin
    def test_output_is_pinned(self, capsys, protocol, noise, attack, encoding, rounds):
        pin = (protocol, noise, attack, encoding, rounds)
        code, out, err = run_cli(self.pinned_argv(*pin), capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode() + err.encode()).hexdigest()
        assert digest == self.SIMULATE_SHA256[pin]

    @staticmethod
    def pinned_cfg(protocol, noise, attack, encoding, rounds):
        return ProtocolConfig(
            protocol=Protocol(protocol),
            rounds=rounds,
            channel_p=0.2,
            seed=29,
            noise=NoisePlacement(noise),
            dl04_encoding=PauliLabel[encoding.upper()],
            attack=AttackModel(attack),
        )

    @each_pin
    def test_pinned_output_passes_the_benchmark_gate(
        self, capsys, protocol, noise, attack, encoding, rounds
    ):
        """A pin may only be taken from a sampler that agrees with its
        analytic twin: each pinned output must pass the benchmark's 5-SE gate
        (perfbench/gate.py, used as it is)."""
        argv = self.pinned_argv(protocol, noise, attack, encoding, rounds)
        code, out, err = run_cli(argv, capsys)
        cfg = self.pinned_cfg(protocol, noise, attack, encoding, rounds)
        gate = Gate()
        assert gate.check(
            Op("simulate", tuple(argv), (), cfg), Outcome(code, out, err, (("csv", out.encode()),))
        ), gate.failures

    @each_pin
    def test_pinned_run_is_read_off_its_counts(
        self, capsys, protocol, noise, attack, encoding, rounds
    ):
        """A pinned run's record is the estimate of its own counts, which add
        up to its rounds, and each basis's printed (errors/samples) and rate
        are read off those counts."""
        cfg = self.pinned_cfg(protocol, noise, attack, encoding, rounds)
        stats = mdiqsdc.protocol.run(cfg)
        assert mdiqsdc.protocol._estimate(cfg, np.array(stats.counts)) == stats
        assert sum(stats.counts) == cfg.rounds
        code, _, err = run_cli(self.pinned_argv(protocol, noise, attack, encoding, rounds), capsys)
        assert code == 0
        printed = re.findall(r"^eps_(\w) = (\S+) \+- \S+ \((\d+)/(\d+)\)$", err, re.MULTILINE)
        bases = mdiqsdc.protocol.check_bases(cfg)
        assert [name for name, *_ in printed] == [b.name.lower() for b in bases]
        for index, (_, rate, errors, samples) in enumerate(printed):
            agree, erred = stats.counts[2 * index : 2 * index + 2]
            assert (int(errors), int(samples)) == (erred, agree + erred)
            assert rate == f"{erred / (agree + erred):.6f}"

    def test_failing_draw_exits_4_without_a_tally(self, capsys, monkeypatch):
        def failing(*_, **__):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(mdiqsdc.protocol, "_draw_counts", failing)
        code, out, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "2000"], capsys
        )
        assert code == 4
        assert out == ""
        assert "RuntimeError: draw failed" in err
        assert "capacity" not in err and "rounds:" not in err

    def test_trillion_rounds_run(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "1000000000000"],
            capsys,
        )
        assert code == 0, err
        counts = re.search(r"rounds: (\d+) checks, (\d+) messages", err).groups()
        assert sum(map(int, counts)) == 10**12
        _, rows = parse_csv(out)
        assert rows[1]["rounds"] == "1000000000000"

    @pytest.mark.parametrize("protocol", ["mdi-ts", "mdi-dl04"])
    def test_round_law_composed_once_per_reader(self, capsys, monkeypatch, protocol):
        """The run and its analytic twin each compose the config's round law
        once, from the same arguments, and the cell law and the message law
        of the Pauli-frame backend read one composition."""
        args = [
            "simulate", "--protocol", protocol, "--p", "0.2", "--rounds", "2000",
            "--noise", "both-legs", "--attack", "intercept-resend", "--encoding", "x",
        ]
        expected = run_cli(args, capsys)
        calls = []
        compose = mdiqsdc.protocol.round_law

        def counting(*call_args, **kwargs):
            calls.append(call_args)
            return compose(*call_args, **kwargs)

        monkeypatch.setattr(mdiqsdc.protocol, "round_law", counting)
        assert run_cli(args, capsys) == expected
        assert len(calls) == 2 and calls[0] == calls[1]
        cfg = ProtocolConfig(
            protocol=Protocol(protocol),
            rounds=1,
            channel_p=0.2,
            seed=0,
            noise=NoisePlacement.BOTH_LEGS,
            dl04_encoding=PauliLabel.X,
            attack=AttackModel.INTERCEPT_RESEND,
        )
        mdiqsdc.protocol.pauli_frame_round_distributions(cfg)
        assert len(calls) == 3 and calls[2] == calls[0]

    def test_montecarlo_tracks_analytic(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--protocol", "mdi-dl04", "--p", "0.2",
                "--rounds", "100000", "--seed", "11",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        analytic, mc = rows
        assert abs(float(mc["eps_y"]) - float(analytic["eps_y"])) < 0.01
        assert abs(float(mc["capacity_raw"]) - float(analytic["capacity_raw"])) < 0.05

    def test_million_round_estimates_within_half_percent(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--protocol", "mdi-ts", "--p", "0.2",
                "--rounds", "1000000", "--seed", "7",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        analytic, mc = rows
        for column in ("eps_z", "eps_x"):
            assert abs(float(mc[column]) - float(analytic[column])) < 0.005

    def test_x_flag_equivalent_to_p(self, capsys):
        args = ["--protocol", "mdi-ts", "--rounds", "2000", "--seed", "4"]
        _, out_p, _ = run_cli(["simulate", *args, "--p", "0.3"], capsys)
        _, out_x, _ = run_cli(["simulate", *args, "--x", "0.15"], capsys)
        assert out_p == out_x

    def test_p_and_x_together_exit_2(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--x", "0.1"], capsys
        )
        assert code == 2 and "mutually exclusive" in err

    def test_attack_reports_quarter_qber(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--protocol", "mdi-ts", "--p", "0", "--rounds", "200000",
                "--seed", "5", "--attack", "intercept-resend",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        analytic, mc = rows
        assert float(analytic["eps_z"]) == 0.25
        assert abs(float(mc["eps_z"]) - 0.25) < 0.01

    def test_encoding_flag_controls_check_bases(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--protocol", "mdi-dl04", "--p", "0.1", "--rounds",
                "20000", "--seed", "5", "--encoding", "z",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        mc = rows[1]
        assert mc["eps_y"] == ""  # Z encoding draws no Y-basis checks
        assert float(mc["eps_z"]) > 0.0

    def test_unwritable_csv_exits_2(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "2000",
             "--csv", "/nonexistent-dir/out.csv"],
            capsys,
        )
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_csv_goes_through_write_text(self, capsys, tmp_path, monkeypatch):
        """The benchmark counts output bytes by wrapping ``_write_text``."""
        written = []
        write_text = mdiqsdc.cli._write_text

        def counting(handle, text):
            written.append(len(text.encode("utf-8")))
            write_text(handle, text)

        monkeypatch.setattr(mdiqsdc.cli, "_write_text", counting)
        csv_path = tmp_path / "run.csv"
        argv = ["simulate", "--protocol", "mdi-dl04", "--p", "0.2", "--rounds", "2000",
                "--csv", str(csv_path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == ""
        assert sum(written) == csv_path.stat().st_size > 0

    def test_mdi_ts_point_has_no_y_rate(self, capsys):
        """An mdi-ts run checks Z and X only: its point has no Y rate, and its
        CSV row leaves eps_y empty, where the twin's row carries one."""
        cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=2000, channel_p=0.2, seed=3)
        assert mdiqsdc.protocol.run(cfg).point.eps_y is None
        code, out, _ = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "2000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        _, (analytic, mc) = parse_csv(out)
        assert mc["eps_y"] == "" and float(analytic["eps_y"]) > 0.0
        assert float(mc["eps_z"]) > 0.0 and float(mc["eps_x"]) > 0.0

    def test_point_without_a_checked_rate_leaves_its_cell_empty(self):
        """A Z-encoded mdi-dl04 run reads its leak off Z alone, so it has an
        estimate without any X check round; its row leaves eps_x empty."""
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_DL04, rounds=10, channel_p=0.2, seed=3,
            dl04_encoding=PauliLabel.Z,
        )
        stats = mdiqsdc.protocol._estimate(cfg, np.array([5, 1, 0, 0, 3, 1, 0]))
        assert stats.unavailable_reason is None and stats.point.eps_x is None
        (row,) = _csv_rows(stats.point, "montecarlo,3,10")
        assert row.split(",")[3:6] == ["0.166666666667", "", ""]
        assert row.endswith(",montecarlo,3,10\n")

    def test_single_round_exits_3(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", "1"], capsys
        )
        assert code == 3 and "insufficient statistics" in err

    def test_baseline_protocol_exits_2(self, capsys):
        code, _, _ = run_cli(["simulate", "--protocol", "two-step", "--p", "0.1"], capsys)
        assert code == 2

    def test_missing_p_exits_2(self, capsys):
        code, _, err = run_cli(["simulate", "--protocol", "mdi-ts"], capsys)
        assert code == 2 and "--p or --x" in err

    def test_bad_rounds_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", "zero"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", ["--eta", "--q", "--p", "--x"])
    def test_non_finite_input_exits_2(self, capsys, flag, value):
        point = [] if flag in ("--p", "--x") else ["--p", "0.1"]
        code, out, err = run_cli(
            ["simulate", "--protocol", "mdi-ts", *point, f"{flag}={value}", "--rounds", "1000"],
            capsys,
        )
        assert code == 2 and "finite" in err
        assert out == "" and "capacity" not in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--x", "0.7"], "x=0.7 outside [0, 0.5]"),
            (["sweep", "--x", "-0.1"], "x=-0.1 outside [0, 0.5]"),
            (["sweep", "--p", "1.2"], "p=1.2 outside [0, 1]"),
            (["sweep", "--grid", "0:0.7:0.1"], "leaves the sweep range [0, 0.5]"),
            (["sweep", "--grid=-0.1:0.2:0.1"], "leaves the sweep range [0, 0.5]"),
            (["sweep", "--grid", "0:0.5:1e-12"], "has more than 1000000 points"),
            (["sweep", "--grid", "0:0.5:5e-324"], "has more than 1000000 points"),
            (["sweep", "--x", "0.1", "--q", "2"], "q=2.0 outside [0, 1]"),
            (["sweep", "--x", "0.1", "--eta", "-1"], "eta=-1.0 outside [0,"),
            (
                ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--check-fraction", "1.5"],
                "check_fraction must lie strictly in (0, 1)",
            ),
            (["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--q", "3"], "q=3.0 outside [0, 1]"),
            (
                ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", str(2**63)],
                f"rounds must lie in [1, {2**63 - 1}]",
            ),
            (
                ["sweep", "--protocol", "mdi-ts", "--x", "0.5", "--eta", "1e308", "--q", "0"],
                "eta=1e+308 outside [0, 8.98847e+307]",
            ),
            (
                ["simulate", "--protocol", "mdi-ts", "--p", "0.5", "--rounds", "2000",
                 "--eta", "1e308"],
                "eta=1e+308 outside [0, 8.98847e+307]",
            ),
        ],
    )
    def test_out_of_range_input_exits_2(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_config_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, command):
        config = tmp_path / "latin.conf"
        config.write_bytes(b"p = 0.1\n\xff\xfe = 3\n")
        code, out, err = run_cli([command, "--config", str(config)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {config}: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("sweep", "protocol = mdi-ts,dl04\ngrid = 0:0.2:0.05\n"),
            ("simulate", "protocol = mdi-ts\np = 0.1\nrounds = 2000\nseed = 7\n"),
        ],
        ids=["sweep", "simulate"],
    )
    def test_config_file_with_a_byte_order_mark_reads_as_without(
        self, capsys, tmp_path, command, keys
    ):
        csv = tmp_path / "out.csv"
        text = f"{keys}csv = {csv}\n".encode()
        outputs = []
        for data in (text, b"\xef\xbb\xbf" + text):
            config = tmp_path / "run.conf"
            config.write_bytes(data)
            code, out, err = run_cli([command, "--config", str(config)], capsys)
            outputs.append((code, out, err, csv.read_bytes()))
            csv.unlink()
        assert outputs[0][0] == 0 and outputs[0][3]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize(
        "command, flag, kept",
        [("simulate", "csv", None), ("sweep", "csv", "svg"), ("sweep", "svg", "csv")],
    )
    def test_nul_byte_in_an_output_path_exits_2(self, capsys, tmp_path, command, flag, kept):
        # a config file's value can hold a NUL byte, which no file name can
        bad = f"{tmp_path / 'a'}\0b.{flag}"
        config = tmp_path / "nul.conf"
        config.write_text(f"{flag} = {bad}\n")
        argv = [command, "--protocol", "mdi-ts", "--p", "0.1", "--config", str(config)]
        if command == "simulate":
            argv += ["--rounds", "1000"]
        if kept is not None:
            kept_path = tmp_path / f"kept.{kept}"
            kept_path.write_bytes(b"kept,bytes\n")
            argv += [f"--{kept}", str(kept_path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: cannot open {bad!r}: embedded null byte\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["nul.conf"] + ([] if kept is None else [f"kept.{kept}"])
        )
        if kept is not None:
            assert kept_path.read_bytes() == b"kept,bytes\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--x", "-0"],
            ["sweep", "--p", "-0"],
            ["sweep", "--x", "0.1", "--q", "-0", "--eta", "-0"],
            ["simulate", "--protocol", "mdi-ts", "--p", "-0", "--rounds", "1000"],
            ["simulate", "--protocol", "mdi-dl04", "--x", "-0", "--rounds", "1000"],
        ],
    )
    def test_negative_zero_input_prints_zero(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == run_cli(["0" if arg == "-0" else arg for arg in args], capsys)[1]
        assert "-0," not in out

    @pytest.mark.parametrize("grid", ["garbage", "0:0.5:0.005"])
    @pytest.mark.parametrize("point", [["--x", "0.1"], ["--p", "0.2"], ["--x=0"]])
    def test_grid_with_a_single_point_exits_2(self, capsys, tmp_path, point, grid):
        flag = point[0].split("=")[0]
        message = f"error: --grid and {flag} are mutually exclusive\n"
        code, out, err = run_cli(["sweep", *point, "--grid", grid], capsys)
        assert (code, out, err) == (2, "", message)
        config = tmp_path / "grid.conf"
        config.write_text(f"grid = {grid}\n")
        code, out, err = run_cli(["sweep", *point, "--config", str(config)], capsys)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("eta", [repr(ETA_MAX), "1e200"])
    @pytest.mark.parametrize("p", ["0", "0.2"])
    @pytest.mark.parametrize("protocol", ["mdi-ts", "mdi-dl04"])
    def test_huge_gain_gap_runs(self, capsys, protocol, p, eta):
        # eta squared overflows a float; the capacity SE must not need it
        code, out, err = run_cli(
            ["simulate", "--protocol", protocol, "--p", p, "--rounds", "2000", "--eta", eta],
            capsys,
        )
        assert code == 0, err
        assert "Traceback" not in err
        assert not NON_FINITE_TOKEN.search(out + err)
        _, rows = parse_csv(out)
        assert all(math.isfinite(float(row["capacity_raw"])) for row in rows)

    @pytest.mark.parametrize("protocol", ["mdi-ts", "mdi-dl04"])
    def test_huge_gain_gap_keeps_stderr_lines_short(self, capsys, protocol):
        code, _, err = run_cli(
            ["simulate", "--protocol", protocol, "--p", "0.5", "--rounds", "2000",
             "--eta", repr(ETA_MAX)],
            capsys,
        )
        assert code == 0, err
        assert max(len(line) for line in err.splitlines()) < 200, err
        assert "e+30" in err.splitlines()[-1]

    def test_grid_point_cap_is_inclusive(self):
        step = 2.0**-21  # exact binary steps make the point count exact
        stop = (MAX_GRID_POINTS - 1) * step
        assert grid_points(f"0:{stop!r}:{step!r}").size == MAX_GRID_POINTS
        with pytest.raises(UsageError, match="more than"):
            _parse_grid(f"0:{stop + step!r}:{step!r}")

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--protocol", "mdi-ts", "--x", "0.1"],
            ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", "100"],
            ["sweep", "--protocol", "mdi-ts", "--grid", "0:0.1:0.05"],
        ],
    )
    def test_internal_value_error_exits_4(self, capsys, monkeypatch, args):
        def broken(*_, **__):
            raise ValueError("injected internal failure")

        monkeypatch.setattr(mdiqsdc.curves, "analytic_point", broken)
        monkeypatch.setattr(mdiqsdc.cli, "analytic_point", broken)
        monkeypatch.setattr(mdiqsdc.cli, "analytic_point_for_config", broken)
        code, _, err = run_cli(args, capsys)
        assert code == 4
        assert "Traceback" in err and "ValueError: injected internal failure" in err


    # the child imports the package this process tests
    PACKAGE_ENV = dict(
        os.environ, PYTHONPATH=str(Path(mdiqsdc.cli.__file__).resolve().parents[1])
    )
    UNWRITABLE_COMMANDS = [
        ["sweep", "--protocol", "mdi-ts", "--x", "0.1"],
        ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", "100"],
        ["verify"],
    ]

    def start_child(self, args, *, buffered, stdout, stderr):
        """``python args`` started with its standard streams on the files
        given, with Python's normal buffering or with PYTHONUNBUFFERED."""
        env = dict(self.PACKAGE_ENV)
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        with open(stdout, "w") as out, open(stderr, "w") as err:
            return subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", UNWRITABLE_COMMANDS, ids=lambda args: args[0])
    def test_unwritable_stdout_exits_2(self, tmp_path, args, buffered):
        err = tmp_path / "err.txt"
        # the second child has no room for its error message either
        children = [
            self.start_child(["-m", "mdiqsdc", *args], buffered=buffered, stdout="/dev/full",
                             stderr=stderr)
            for stderr in (err, "/dev/full")
        ]
        assert [child.wait() for child in children] == [2, 2]
        assert err.read_text().endswith("error: [Errno 28] No space left on device\n")

    def run_without_stdout(self, args, err):
        """Exit code of ``python -m mdiqsdc args`` started with file
        descriptor 1 closed, so that its ``sys.stdout`` is None."""
        with open(err, "w") as handle:
            return subprocess.run(
                [sys.executable, "-m", "mdiqsdc", *args], stderr=handle,
                env=self.PACKAGE_ENV, preexec_fn=lambda: os.close(1),
            ).returncode

    @pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
    @pytest.mark.parametrize("args", UNWRITABLE_COMMANDS, ids=lambda args: args[0])
    def test_closed_stdout_exits_2(self, tmp_path, args):
        err = tmp_path / "err.txt"
        assert self.run_without_stdout(args, err) == 2
        assert err.read_text().endswith("error: standard output is closed\n")

    @pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
    def test_closed_stdout_is_unused_with_a_csv_path(self, tmp_path):
        csv_path, err = tmp_path / "run.csv", tmp_path / "err.txt"
        args = [*self.UNWRITABLE_COMMANDS[1], "--csv", str(csv_path)]
        assert self.run_without_stdout(args, err) == 0
        assert csv_path.read_text().startswith(CSV_HEADER + "\n")
        assert "capacity = " in err.read_text()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_unwritable_traceback_exits_4(self, buffered):
        inject = (
            "import sys, mdiqsdc.cli\n"
            "def broken(*_, **__):\n"
            "    raise ValueError('injected internal failure')\n"
            "mdiqsdc.cli.analytic_point = broken\n"
            "sys.exit(mdiqsdc.cli.main(['sweep', '--protocol', 'mdi-ts', '--x', '0.1']))\n"
        )
        child = self.start_child(["-c", inject], buffered=buffered, stdout=os.devnull,
                                 stderr="/dev/full")
        assert child.wait() == 4

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", "100",
             "--csv", "/dev/full"],
            ["sweep", "--csv", "/dev/full"],
            ["sweep", "--x", "0.1", "--svg", "/dev/full"],
        ],
        ids=["simulate-csv", "sweep-csv", "sweep-svg"],
    )
    def test_output_file_that_fills_exits_2(self, capsys, args):
        """A write to an output file that fails once the file is open is a
        usage error, like a file that cannot be opened."""
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.endswith("error: [Errno 28] No space left on device\n")
        assert "Traceback" not in err


class TestOutputFiles:
    """``--csv`` and ``--svg`` files are written through ``os.write``, with
    no stream buffer in between."""

    def test_csv_file_peaks_at_most_1kb_above_stdout(self, tmp_path, monkeypatch):
        """An open() stream holds an 8 KiB buffer, which put the peak of a
        run writing its CSV (about 300 B) to a file about 4 KB above the
        same run printing it. The peak is taken from the end of argument
        parsing, so argparse's own peak, which grows with the number of
        arguments, does not hide the run's."""
        argv = ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "1000000",
                "--noise", "both-legs", "--attack", "intercept-resend"]
        to_file = ["--csv", str(tmp_path / "run.csv")]
        parse_args = mdiqsdc.cli._parse_args

        def parse_then_reset_peak(args):
            parsed = parse_args(args)
            tracemalloc.reset_peak()
            return parsed

        monkeypatch.setattr(mdiqsdc.cli, "_parse_args", parse_then_reset_peak)

        def peak(*extra):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                tracemalloc.start()
                try:
                    assert main([*argv, *extra]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(), peak(*to_file)  # warm-up: imports and caches
        printed, written = peak(), peak(*to_file)
        assert written - printed <= 1000, (written, printed)

    def test_partial_writes_keep_the_pinned_bytes(self, capsys, tmp_path, monkeypatch):
        """``os.write`` may take only part of what it is given; every byte
        still goes out, in order."""
        write = os.write
        calls = []

        def at_most_seven(fd, data):
            calls.append(fd)
            return write(fd, data[:7])

        monkeypatch.setattr(os, "write", at_most_seven)
        pin = ("mdi-ts", "both-legs", "intercept-resend", "y", 2000)
        csv_path = tmp_path / "run.csv"
        code, out, err = run_cli(
            [*TestSimulate.pinned_argv(*pin), "--csv", str(csv_path)], capsys
        )
        assert code == 0 and out == ""
        digest = hashlib.sha256(csv_path.read_bytes() + err.encode()).hexdigest()
        assert digest == TestSimulate.SIMULATE_SHA256[pin]
        assert len(calls) >= csv_path.stat().st_size / 7

        calls.clear()
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        argv = ["sweep", "--noise", "both-legs", "--csv", str(csv_path), "--svg", str(svg_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path))
        assert digests == TestSweep.DEFAULT_GRID_SHA256["both-legs"]
        assert len(calls) >= (csv_path.stat().st_size + svg_path.stat().st_size) / 7


def run_watching_warnings(argv):
    """Exit code, stdout, stderr and the RuntimeWarnings of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


class TestFiniteOutput:
    """No finite, in-range input prints nan or inf, or trips a numpy
    floating-point warning."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=grids(),
        noise=st.sampled_from(["first-leg-only", "both-legs"]),
        encoding=st.sampled_from(["x", "y", "z"]),
        q=st.floats(0.0, 1.0),
        eta=st.floats(0.0, ETA_MAX),
    )
    def test_sweep(self, grid, noise, encoding, q, eta):
        code, out, err, warned = run_watching_warnings(
            ["sweep", "--grid", grid, "--noise", noise, "--encoding", encoding,
             "--q", repr(q), "--eta", repr(eta)]
        )
        assert code == 0, err
        assert not warned, warned
        assert not NON_FINITE_TOKEN.search(out + err)

    @settings(max_examples=100, deadline=None)
    @given(
        protocol=st.sampled_from(["mdi-ts", "mdi-dl04"]),
        p=st.floats(0.0, 1.0),
        rounds=st.integers(1, MAX_ROUNDS),
        seed=st.integers(0, 2**64 - 1),
        check_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        noise=st.sampled_from(["first-leg-only", "both-legs"]),
        encoding=st.sampled_from(["x", "y", "z"]),
        attack=st.sampled_from(["none", "intercept-resend"]),
        q=st.none() | st.floats(0.0, 1.0),
        eta=st.floats(0.0, ETA_MAX),
    )
    def test_simulate(
        self, protocol, p, rounds, seed, check_fraction, noise, encoding, attack, q, eta
    ):
        argv = [
            "simulate", "--protocol", protocol, "--p", repr(p), "--rounds", str(rounds),
            "--seed", str(seed), "--check-fraction", repr(check_fraction), "--noise", noise,
            "--encoding", encoding, "--attack", attack, "--eta", repr(eta),
        ]
        code, out, err, warned = run_watching_warnings(
            argv if q is None else [*argv, "--q", repr(q)]
        )
        assert code in (0, 3), err  # 3: too few rounds for an estimate
        assert not warned, warned
        assert not NON_FINITE_TOKEN.search(out + err)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _parsers()[0] is _parsers()[0]

    def test_reused_parser_leaks_no_state(self, capsys, monkeypatch):
        configs = []

        def recording_run(cfg, *args):
            configs.append(cfg)
            return mdiqsdc.protocol.run(cfg, *args)

        monkeypatch.setattr(mdiqsdc.cli, "run", recording_run)
        base = ["simulate", "--protocol", "mdi-ts", "--p", "0.1", "--rounds", "2000"]
        assert run_cli([*base, "--q", "0.5"], capsys)[0] == 0
        assert configs[-1].q_override == 0.5
        with pytest.raises(SystemExit) as exc:
            main([*base, "--no-such-flag"])
        assert exc.value.code == 2
        assert run_cli(["simulate", "--protocol", "mdi-ts", "--x", "5"], capsys)[0] == 2
        assert run_cli(base, capsys)[0] == 0
        assert len(configs) == 2 and configs[-1].q_override is None


def namespace_main_builds(argv, monkeypatch):
    """The attributes of the namespace ``main(argv)`` hands its subcommand."""
    seen = []

    def recording(args):
        seen.append(dict(vars(args)))
        return 0

    for command in ("cmd_sweep", "cmd_simulate", "cmd_verify"):
        monkeypatch.setattr(mdiqsdc.cli, command, recording)
    assert main(list(argv)) == 0
    (args,) = seen
    return args


def exit_and_streams(argv, capsys):
    """Exit code, stdout and stderr of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestOneParse:
    """``main`` reads argv once, with the named subcommand's parser alone,
    and builds what one ``_parsers()[0].parse_args`` call builds; with
    ``--config`` it reads the file's keys and argv once more."""

    USAGE = "usage: mdiqsdc [-h] {sweep,simulate,verify} ...\n"
    # stdout and stderr of the parse that reads argv twice, at 80 columns
    ENDED_BY_ARGPARSE = {
        (): (
            2,
            "",
            USAGE + "mdiqsdc: error: the following arguments are required: command\n",
        ),
        ("-h",): (
            0,
            USAGE + "\n"
            "Secrecy-capacity sweeps and Monte Carlo runs of measurement-device-independent\n"
            "QSDC protocols.\n"
            "\n"
            "positional arguments:\n"
            "  {sweep,simulate,verify}\n"
            "    sweep               analytic capacity curves over x = p/2\n"
            "    simulate            Monte Carlo protocol run\n"
            "    verify              oracle-equivalence and invariant checks\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n",
            "",
        ),
        ("bogus",): (
            2,
            "",
            USAGE + "mdiqsdc: error: argument command: invalid choice: 'bogus' "
            "(choose from 'sweep', 'simulate', 'verify')\n",
        ),
        ("simulate", "--protocol", "mdi-ts", "--p", "0.2", "--bogus"): (
            2,
            "",
            USAGE + "mdiqsdc: error: unrecognized arguments: --bogus\n",
        ),
        ("simulate", "--p"): (
            2,
            "",
            "usage: mdiqsdc simulate [-h] [--protocol PROTOCOL] [--p P] [--x X]\n"
            "                        [--noise NOISE] [--encoding ENCODING] [--q Q]\n"
            "                        [--eta ETA] [--csv CSV] [--config CONFIG]\n"
            "                        [--rounds ROUNDS] [--seed SEED]\n"
            "                        [--check-fraction CHECK_FRACTION] [--attack ATTACK]\n"
            "mdiqsdc simulate: error: argument --p: expected one argument\n",
        ),
        ("verify", "--inject-fault", "nope"): (
            2,
            "",
            "usage: mdiqsdc verify [-h] [--inject-fault {decomposition-sign}]\n"
            "mdiqsdc verify: error: argument --inject-fault: invalid choice: 'nope' "
            "(choose from 'decomposition-sign')\n",
        ),
    }

    @staticmethod
    def argvs(work_dir):
        """The pinned simulate runs, the sweep pins, verify, the benchmark's
        workloads, ``--flag=value`` forms and an abbreviated flag."""
        pinned = [TestSimulate.pinned_argv(*pin) for pin in TestSimulate.SIMULATE_SHA256]
        assert len(pinned) == 48
        sweeps = [["sweep", "--grid", *grid] for grid in TestSweepBlocks.MULTI_BLOCK_SHA256]
        sweeps += [["sweep", "--noise", "both-legs", "--encoding", "x", "--svg", "c.svg"]]
        workload_ops = [
            op.argv
            for workload in ("mc-scan", "mc-large", "oracle-sweep")
            for op in workloads.build(workload, 7, work_dir)
        ]
        return [
            *pinned,
            *sweeps,
            *workload_ops,
            ["verify"],
            ["verify", "--inject-fault", "decomposition-sign"],
            ["verify", "--inject-fault=decomposition-sign"],
            ["simulate", "--protocol=mdi-dl04", "--p=0.2", "--rounds=2000", "--encoding=x"],
            ["sweep", "--x=0.1", "--q=0.5", "--csv=-"],
            ["simulate", "--prot", "mdi-ts", "--p", "0.1", "--check", "0.5", "--att", "none"],
            ["sweep", "--prot", "all", "--enc", "z", "--p", "-0"],
            ["simulate", "--p", "0.1", "--p", "0.3"],
        ]

    def test_main_builds_the_namespace_of_one_parse_args(self, tmp_path, monkeypatch):
        argvs = self.argvs(tmp_path)
        assert len(argvs) > 48 + 288
        for argv in argvs:
            expected = vars(_parsers()[0].parse_args(list(argv)))
            assert namespace_main_builds(argv, monkeypatch) == expected, argv

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            (["simulate", "--protocol", "mdi-ts", "--p", "0.1"], ["mdiqsdc simulate"]),
            (["sweep", "--x", "0.1"], ["mdiqsdc sweep"]),
            (["verify"], ["mdiqsdc verify"]),
        ],
    )
    def test_only_the_subcommand_parser_reads_argv(self, monkeypatch, argv, parsers):
        read = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def recording(parser, *args, **kwargs):
            read.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
        namespace_main_builds(argv, monkeypatch)
        assert read == parsers
        read.clear()
        _parsers()[0].parse_args(argv)
        assert read == ["mdiqsdc", *parsers]  # the parse that reads argv twice

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_file_namespace(self, tmp_path, monkeypatch, command):
        """A config file's keys are flags that come before argv's own."""
        config = tmp_path / "run.conf"
        config.write_text("protocol = mdi-ts\nx = 0.1\n")
        file_tokens = ["--protocol=mdi-ts", "--x=0.1"]
        monkeypatch.chdir(tmp_path)
        for argv in (
            [command, "--config", str(config)],
            [command, f"--config={config}", "--x", "0.2"],
            [command, "--conf", "run.conf", "--csv", "out.csv"],
        ):
            expected = vars(_parsers()[0].parse_args([command, *file_tokens, *argv[1:]]))
            assert namespace_main_builds(argv, monkeypatch) == expected, argv

    def test_config_call_reads_the_subcommand_parser_twice(self, tmp_path, monkeypatch):
        config = tmp_path / "run.conf"
        config.write_text("protocol = mdi-ts\n# a comment\ncheck_fraction = 0.5\n")
        argv = ["simulate", "--p", "0.1", "--config", str(config)]
        read = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def recording(parser, args, *rest, **kwargs):
            read.append((parser.prog, list(args)))
            return parse_known_args(parser, args, *rest, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
        namespace_main_builds(argv, monkeypatch)
        assert read == [
            ("mdiqsdc simulate", argv[1:]),
            ("mdiqsdc simulate", ["--protocol=mdi-ts", "--check-fraction=0.5", *argv[1:]]),
        ]

    @pytest.mark.parametrize("argv", list(ENDED_BY_ARGPARSE), ids=" ".join)
    def test_argparse_exits_are_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
        assert exit_and_streams(argv, capsys) == self.ENDED_BY_ARGPARSE[argv]
        with pytest.raises(SystemExit) as exc:
            _parsers()[0].parse_args(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == self.ENDED_BY_ARGPARSE[argv]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "extra"],
            ["simulate", "--", "--p", "0.1"],
            ["sweep", "-x", "0.1"],
            ["sweep", "--c", "x"],
            ["sweep", "--he"],
            ["verify", "--inject-fault"],
            ["simulate", "simulate"],
            ["--protocol", "mdi-ts", "simulate"],
        ],
    )
    def test_other_exits_match_one_parse_args(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        ours = exit_and_streams(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            _parsers()[0].parse_args(argv)
        captured = capsys.readouterr()
        assert ours == (exc.value.code, captured.out, captured.err)


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("rounds = 500\nseed = 9\np = 0.0\nprotocol = mdi-ts\n")
        code, out, _ = run_cli(
            ["simulate", "--config", str(config), "--seed", "21"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        mc = rows[1]
        assert mc["rounds"] == "500"
        assert mc["seed"] == "21"  # the flag beat the file

    def test_flag_equal_to_the_default_beats_the_file(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("rounds = 500\nseed = 9\np = 0.0\nprotocol = mdi-ts\n")
        code, out, _ = run_cli(["simulate", "--config", str(config), "--seed", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[1]["seed"] == "1"  # the default's value, given as a flag

    def test_underscore_keys_accepted(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("check_fraction = 0.5\n")
        code, _, _ = run_cli(
            [
                "simulate", "--protocol", "mdi-ts", "--p", "0", "--rounds", "100",
                "--seed", "3", "--config", str(config),
            ],
            capsys,
        )
        assert code == 0

    def test_misspelled_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "typo.conf"
        config.write_text("protocol = mdi-ts\np = 0.1\nround = 500\nsede = 4\n")
        code, out, err = run_cli(["simulate", "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert "'round'" in err and str(config) in err

    def test_key_of_another_subcommand_exits_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text("protocol = mdi-ts\nrounds = 500\n")
        code, out, err = run_cli(["sweep", "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert "'rounds'" in err and str(config) in err

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("seed = 1\nseed = 2\n", "seed"),
            ("check_fraction = 0.5\ncheck-fraction = 0.25\n", "check-fraction"),
        ],
    )
    def test_repeated_key_exits_2(self, capsys, tmp_path, lines, key):
        config = tmp_path / "dup.conf"
        config.write_text("protocol = mdi-ts\np = 0.1\nrounds = 100\n" + lines)
        code, out, err = run_cli(["simulate", "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert f"{config}:5: repeated key {key!r}" in err

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("rounds 500\n")
        code, _, _ = run_cli(["simulate", "--config", str(config), "--p", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("empty", [["--config="], ["--config", ""]])
    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--x", "0.1"], ["simulate", "--protocol", "mdi-ts", "--p", "0.1"]],
        ids=["sweep", "simulate"],
    )
    def test_empty_config_path_exits_2(self, capsys, argv, empty):
        code, out, err = run_cli([*argv, *empty], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file ")

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["simulate", "--protocol", "mdi-ts", "--p", "0", "--config",
             str(tmp_path / "absent.conf")],
            capsys,
        )
        assert code == 2


VERIFY_STDOUT = """\
PASS bell-states: max amplitude error 0.000e+00
PASS product-decompositions: max deviation 1.110e-16 at |+ +>
PASS swap-corrections: min post-correction singlet fidelity 1.000000000000000
PASS backend-equivalence: max distribution deviation 5.551e-16 (mdi-ts first-leg-only p=0.0 attack=none symbol_error)
PASS holevo-bound: max(chi - bound) = 0.000e+00 at deltas=(1.0, 0.0, 0.0, 0.0)
"""


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_cli(["verify"], capsys)
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert "all 5 checks passed" in err

    def test_stdout_is_pinned_byte_for_byte(self, capsys):
        # the worst cases of the one-point-at-a-time oracle, which the
        # stacked checks must reproduce exactly
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert out == VERIFY_STDOUT

    def test_fault_injection_named_failure(self, capsys):
        code, out, _ = run_cli(["verify", "--inject-fault", "decomposition-sign"], capsys)
        assert code == 1
        assert "FAIL product-decompositions" in out
        # untouched checks still pass
        assert "PASS swap-corrections" in out


class TestModuleEntryPoint:
    # the child imports the package this process tests
    ENV = dict(os.environ, PYTHONPATH=str(Path(mdiqsdc.cli.__file__).resolve().parents[1]))

    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "mdiqsdc", "sweep", "--protocol", "mdi-ts", "--x", "0"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == CSV_HEADER

    def test_usage_error_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "mdiqsdc", "frobnicate"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert result.returncode == 2
