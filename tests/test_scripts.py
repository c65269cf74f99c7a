"""Scripts in scripts/: each runs on tiny inputs, and the README's
case-study table is what scripts/case_studies.py prints."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script,args,line", [
    ("sweep_bitcoin.py", ["--max-depth", "2", "--strategy"],
     "  2      30        226.67     0.157"),
], ids=["sweep_bitcoin"])
def test_script_runs(script, args, line):
    assert line in _script(script, *args).splitlines()


def test_readme_case_study_table_is_fresh():
    readme = (ROOT / "README.md").read_text()
    begin, end = "<!-- case-studies:begin -->\n", "<!-- case-studies:end -->"
    block = readme.split(begin, 1)[1].split(end, 1)[0]
    assert block == _script("case_studies.py"), (
        "README's case-study table is stale: replace the block between the "
        "case-studies markers with the output of scripts/case_studies.py")
