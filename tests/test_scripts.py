"""Smoke tests of the scripts the README documents, run as subprocesses
against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_attack_scan_prints_one_row_per_setting():
    result = run_script("attack_scan.py", "--rounds", "2000")
    assert result.returncode == 0, result.stderr
    header, rule, *rows = result.stdout.splitlines()
    assert header.split() == ["p", "attack", "eps_z", "eps_x", "capacity", "+-se"]
    assert set(rule) == {"-"}
    assert len(rows) == 8  # four channel parameters, attack off and on
    assert [row.split()[1] for row in rows] == ["no", "yes"] * 4


@pytest.mark.parametrize("rounds", ["1", "2"])
def test_attack_scan_reports_unavailable_rows(rounds):
    result = run_script("attack_scan.py", "--rounds", rounds)
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]
    assert len(rows) == 8
    for row in rows:
        p, attacked, *reason = row.split()
        assert attacked in ("no", "yes")
        assert " ".join(reason).startswith("no "), row  # e.g. "no check rounds in basis X"


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_attack_scan_rejects_rounds_below_one(rounds):
    result = run_script("attack_scan.py", "--rounds", rounds)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --rounds: must be at least 1" in result.stderr
    assert "Traceback" not in result.stderr


def test_attack_scan_rejects_rounds_beyond_one_draw():
    result = run_script("attack_scan.py", "--rounds", str(2**63))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --rounds: must be at most 2**63 - 1" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_attack_scan_rejects_seeds_outside_64_bits(seed):
    result = run_script("attack_scan.py", "--rounds", "10", "--seed", seed)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --seed: must lie in [0, 2**64)" in result.stderr
    assert "Traceback" not in result.stderr


def test_reproduce_figures_writes_both_figures(tmp_path):
    result = run_script("reproduce_figures.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    stems = ("capacity_entanglement", "capacity_single_photon")
    expected = sorted(f"{stem}.{ext}" for stem in stems for ext in ("csv", "svg"))
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for stem in stems:
        assert (tmp_path / f"{stem}.csv").read_text().startswith("x,p,protocol,")
        assert (tmp_path / f"{stem}.svg").read_text().rstrip().endswith("</svg>")
