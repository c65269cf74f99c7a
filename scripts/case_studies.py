#!/usr/bin/env python3
"""Print the README's case-study table.

For each bundled case study, runs ``qmv gen`` into a temporary directory,
then each of the case's commands through ``qmv.cli.main`` with ``--json``,
and prints one Markdown row per reported number (6 significant digits).
Commands are shown as a user would type them in the directory that
``qmv gen`` wrote to.  Run it from any directory, with qmv importable:
``python scripts/case_studies.py``.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from qmv.cli import main

ROOT = Path(__file__).resolve().parent.parent

#: (``qmv gen`` arguments, the commands run on the generated model and
#: properties).  The NoC flags give an answer inside (0, 1); under the
#: generator's defaults it is exactly 1.
CASES = [
    (["bitcoin"], [
        ["check", "--prop-index", "0"],
        ["check", "--prop-index", "1"],
    ]),
    (["contacts", "--plan", "data/sample_contact_plan.json"], [
        ["check"],
        ["lss", "--schedulers", "100", "--runs", "1000",
         "--mode", "distributed"],
        ["lss", "--schedulers", "100", "--runs", "1000"],
    ]),
    (["noc", "--k-ind", "3", "--events", "4", "--horizon", "4"], [
        ["check"],
        ["simulate", "--runs", "10000"],
        ["cdf", "--horizon", "21"],
    ]),
]

#: The report field that holds each command's number.
RESULT = {"check": "value", "cdf": "final", "simulate": "mean",
          "lss": "mean"}


def _qmv(argv: list[str]) -> str:
    """``qmv ARGV``'s stdout; a nonzero exit is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code:
        raise SystemExit(f"qmv {' '.join(argv)} exited with {code}")
    return out.getvalue()


def rows() -> list[str]:
    lines = ["| case | command | result |", "|---|---|---|"]
    for gen, commands in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            paths = _qmv(["gen", *gen, "--out-dir", tmp]).split()
            files = [Path(path).name for path in paths]
            for cmd, *flags in commands:
                report = json.loads(_qmv([cmd, *paths, *flags, "--json"]))
                key = RESULT[cmd]
                for entry in report["properties"]:
                    lines.append(
                        f"| `qmv gen {' '.join(gen)}` "
                        f"| `qmv {' '.join([cmd, *files, *flags])}` "
                        f"| {key} {entry[key]:.6g} |")
    return lines


if __name__ == "__main__":
    os.chdir(ROOT)
    print("\n".join(rows()))
