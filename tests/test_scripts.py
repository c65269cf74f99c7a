"""Smoke tests: each script in scripts/ runs on tiny inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,stream,line", [
    ("sweep_bitcoin.py", ["--max-depth", "2", "--strategy"], "stdout",
     "  2      30        226.67     0.157"),
    ("noc_cdf.py", ["--horizon", "2"], "stderr",
     "352 states; P(reach 1 event(s) within 2 cycles) = 1.000000"),
    ("run_contact_lss.py", ["--schedulers", "2", "--runs", "20"], "stdout",
     "exact Pmax (policy iteration): 0.493000"),
], ids=["sweep_bitcoin", "noc_cdf", "run_contact_lss"])
def test_script_runs(script, args, stream, line):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert line in getattr(done, stream).splitlines()
