import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_relaxed_oracle_demo_runs():
    # the demo calls the oracle API directly, so a signature change that
    # breaks it fails here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "relaxed_oracle.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "relaxed optimum is a point mass" in result.stdout
    # the demo's strong solve runs at a tolerance its instance reaches
    assert "converged: True" in result.stdout
