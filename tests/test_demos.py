"""Every demo script runs to completion from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def run_demo(path, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(path, tmp_path):
    proc = run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_base_unit_demo_lifts_the_object_one_stroke(tmp_path):
    proc = run_demo(ROOT / "demos" / "03_base_unit_transport.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "stroke 6.0 mm" in proc.stdout
    assert "object starts at z = 0.0 mm" in proc.stdout
    assert "object at z = 6.0 mm" in proc.stdout
    assert "drops: 0" in proc.stdout


def test_contact_detection_demo_tells_the_two_objects_apart(tmp_path):
    proc = run_demo(ROOT / "demos" / "02_contact_detection.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "r_o = 0.7r: slope 8.479 kPa/s, ratio 1.958, contact=True" in lines
    assert "r_o = 0.4r: slope 4.330 kPa/s, ratio 1.000, contact=False" in lines
