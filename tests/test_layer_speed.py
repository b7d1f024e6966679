"""scripts/layer_speed.py: it times a layer against another checkout, fails
on any difference between runs, and skips a layer the other one lacks."""

import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "layer_speed.py"


def _harness(*args):
    return subprocess.run([sys.executable, str(SCRIPT), "--pairs", "1", *args],
                          capture_output=True, text=True, timeout=120)


def _checkout(tmp_path, module, old, new):
    """A copy of this checkout's src/ with old replaced by new in module."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "aqmlab" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return str(tmp_path)


def test_a_layer_against_this_checkout_prints_its_ratio():
    run = _harness("--against", str(ROOT), "--layer", "coefficients")
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(r"^coefficients +7200 evals( +[\d.]+){4} +[\d.]+-[\d.]+$",
                     run.stdout, re.M), run.stdout


def test_a_changed_result_fails_the_run(tmp_path):
    other = _checkout(tmp_path, "params.py", "alpha: float = 0.125", "alpha: float = 0.126")
    run = _harness("--against", other, "--layer", "equilibrium")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "results differ between runs: 2 distinct" in run.stdout


def test_a_layer_the_other_checkout_lacks_is_skipped(tmp_path):
    other = _checkout(tmp_path, "stability.py", "def crossover_frequency(",
                      "def renamed_crossover_frequency(")
    run = _harness("--against", other, "--layer", "coefficients")
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(r"^coefficients +skipped: the other checkout lacks it", run.stdout, re.M)
