import os
import pathlib
import subprocess
import sys

import pytest

import gapdeck

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # a demo is a standalone script: run it on the gapdeck these tests import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapdeck.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stdout + proc.stderr


def test_demos_are_found():
    assert DEMOS  # an empty glob would otherwise run no demo at all
