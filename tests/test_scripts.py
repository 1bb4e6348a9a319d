"""Smoke tests of the scripts the README documents, run as subprocesses
against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_reproduce_figures_writes_both_figures(tmp_path):
    result = run_script("reproduce_figures.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    stems = ("capacity_entanglement", "capacity_single_photon")
    expected = sorted(f"{stem}.{ext}" for stem in stems for ext in ("csv", "svg"))
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for stem in stems:
        assert (tmp_path / f"{stem}.csv").read_text().startswith("x,p,protocol,")
        assert (tmp_path / f"{stem}.svg").read_text().rstrip().endswith("</svg>")
