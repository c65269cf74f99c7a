#!/usr/bin/env python3
"""Benchmark of the qmv command line, end to end and per layer.

Run from the root of a qmv checkout:

    python3 perfbench/run.py --workload contacts-check --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, both passes

One run builds the workload's inputs from the seed, times model
construction in-process (``setup_s``), probes the bundled case studies
once, then repeats the workload's ``qmv`` command list, one fresh process
per command, for ``--seconds``.  Every answer is checked against an
oracle.  With ``--trace 1`` the run then replays the commands in-process
with spans around each layer and reports per-layer metrics instead.  The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the environment, input
hashes and spans, goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
#: Metrics the run reports with --trace 0, and their units.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Printed by the summary where they apply, not gated.
EXTRA = {"raw_wall_s": "s", "raw_setup_s": "s", "sim_runs_per_s": "runs/s",
         "abs_error": "prob"}
#: Metrics the run reports with --trace 1, and their units.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Where each gated or printed end-to-end metric applies.
APPLIES = {
    "sim_runs_per_s": ("noc-sim", "contacts-lss"),
    "abs_error": ("slow-vi",),
}
REFERENCE = Path(__file__).resolve().parent / "reference.py"
#: ``reference.py`` takes about this long on an Intel Xeon with 2 vCPUs
#: when the host is quiet; the value only sets the scale of reference
#: seconds.
REFERENCE_NOMINAL_S = 0.25
#: Model construction is timed at least this often and this long in all,
#: in units of at least this long.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_UNIT_S = 0.5
STARTUP_REPEATS = 5


def environment() -> dict:
    """Machine and software the results were measured on."""
    env = {"nproc": os.cpu_count(),
           "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or platform.machine(),
           "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    for mod in ("numpy", "scipy"):
        try:
            env[mod] = __import__(mod).__version__
        except ImportError:
            env[mod] = None
    return env


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (the maximum when there are too few), and the sample count."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    for q in (0.99, 0.95, 0.9, 0.75):
        if n * (1 - q) >= 10:
            out[f"p{round(q * 100)}"] = s[min(n - 1, math.ceil(q * n) - 1)]
            return out
    out["max"] = s[-1]
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Cli:
    """Runs ``python -m qmv.cli`` in fresh processes, one at a time.

    The processes are spawned by ``launch.py``, a small helper process,
    so that their max RSS does not include this process's memory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, args: list[str], module: str = "qmv.cli") -> dict:
        """Wall time, max RSS, exit code and JSON report of one command."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        argv = [sys.executable, "-m", module, *args] if module \
            else [sys.executable, *args]
        self.launcher.stdin.write(json.dumps({
            "argv": argv, "cwd": str(self.workdir),
            "stdout": str(out_path), "stderr": str(err_path)}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the command launcher exited")
        done = json.loads(reply)
        rec = {"argv": args, "wall_s": done["wall_s"], "exit": done["exit"],
               "rss_mb": done["maxrss_kb"] / 1024, "report": None}
        if done["exit"] == 0 and module == "qmv.cli":
            try:
                rec["report"] = json.loads(out_path.read_text())
            except json.JSONDecodeError as e:
                rec["error"] = f"report is not JSON: {e}"
        elif done["exit"] != 0:
            rec["error"] = (f"exit {done['exit']}: "
                            + err_path.read_text().strip()[-300:])
        return rec


class Speedometer:
    """Converts measured seconds into reference seconds.

    The host's speed drifts by tens of percent within minutes.  So
    ``reference.py`` runs in a fresh process before and after each timed
    operation, and the operation's seconds are scaled by the reference's
    nominal duration over the mean of those two runs.  Back-to-back
    operations share the reference run between them.
    """

    def __init__(self, cli: Cli):
        self.cli = cli
        self.last: float | None = None

    def _reference(self) -> float:
        rec = self.cli.run([str(REFERENCE)], module="")
        if rec["exit"] != 0:
            raise RuntimeError(f"reference run failed: {rec['error']}")
        return rec["wall_s"]

    def timed(self, fn):
        """``fn()`` and the factor from its seconds to reference seconds."""
        before = self.last if self.last is not None else self._reference()
        out = fn()
        self.last = self._reference()
        return out, 2 * REFERENCE_NOMINAL_S / (before + self.last)

    def restart(self) -> None:
        """Forget the last reference run: other work ran since."""
        self.last = None


def _runs_simulated(entry: dict) -> int:
    if "runs_per_scheduler" in entry:
        return entry["distinct_behaviors"] * entry["runs_per_scheduler"]
    return entry.get("runs", 0)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        import oracles
        import workloads
        self.name, self.seed, self.seconds, self.trace = \
            name, seed, seconds, trace
        self.workdir = OUT / "work" / f"{name}-{seed}-t{int(trace)}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "inputs").mkdir(parents=True)
        self.errors: list[str] = oracles.selfcheck()
        self.attempted = self.failed = 0
        self.tracer = None
        if trace:
            import traced
            self.tracer = traced.Tracer()
        self.workload = workloads.BUILDERS[name](
            seed, self.workdir / "inputs", self.tracer)
        self.record = {
            "workload": name, "why": WORKLOADS[name], "seed": seed,
            "seconds": seconds, "trace": int(trace),
            "environment": environment(),
            "inputs": {str(p.relative_to(self.workdir)): sha256(p)
                       for p in self.workload.files},
            "oracle": self.workload.exact,
        }

    def _op(self, ok: bool, message: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if message and len(self.errors) < 50:
                self.errors.append(message)

    def setup_times(self) -> tuple[list[float], list[float]]:
        """Raw and reference seconds of each model construction.

        After one untimed warm-up, constructions are timed in units of
        several when one is shorter than ``SETUP_UNIT_S``, so the reference
        runs around each unit stay a small share of it."""
        from qmv.lang import explore, parse_model

        def build():
            t0 = time.perf_counter()
            for path in self.workload.models:
                explore(parse_model(path.read_text()), name=path.stem)
            return time.perf_counter() - t0

        per_unit = max(1, math.ceil(SETUP_UNIT_S / build()))
        raw: list[float] = []
        ref: list[float] = []
        self.speed.restart()
        while len(raw) < SETUP_REPEATS \
                or sum(raw) * per_unit < SETUP_MIN_SECONDS:
            seconds, speed = self.speed.timed(
                lambda: sum(build() for _ in range(per_unit)))
            raw.append(seconds / per_unit)
            ref.append(seconds * speed / per_unit)
        return raw, ref

    def probe(self) -> list[dict]:
        """Bundled case studies, each property once, default flags."""
        import workloads
        out = []
        for argv, label in workloads.bundled_probe(self.workdir / "bundled"):
            rec = self.cli.run(argv)
            out.append({"property": label, "exit": rec["exit"],
                        "solved": rec["exit"] == 0})
        return out

    def command_list(self) -> list[dict]:
        """Run every command once, checking each answer."""
        recs = []
        for cmd in self.workload.commands:
            rec, speed = self.speed.timed(lambda: self.cli.run(cmd.argv))
            rec["speed"] = speed
            problems = [rec["error"]] if "error" in rec else []
            if rec["report"] is not None:
                problems += cmd.check(rec["report"]["properties"])
            rec["problems"] = problems
            self._op(not problems, f"{' '.join(cmd.argv[:1])}: "
                     + "; ".join(problems))
            recs.append(rec)
        return recs

    def measure(self) -> list[list[dict]]:
        reps: list[list[dict]] = []
        self.speed.restart()
        t0 = time.perf_counter()
        while True:
            reps.append(self.command_list())
            elapsed = time.perf_counter() - t0
            if elapsed * (len(reps) + 1) / len(reps) > self.seconds:
                return reps

    def end_to_end(self, reps) -> dict[str, list[float]]:
        import workloads
        samples: dict[str, list[float]] = {
            "wall_s": [], "raw_wall_s": [], "peak_rss_mb": [],
            "sim_runs_per_s": [], "abs_error": []}
        for rep in reps:
            samples["wall_s"].append(sum(r["wall_s"] * r["speed"] for r in rep))
            samples["raw_wall_s"].append(sum(r["wall_s"] for r in rep))
            samples["peak_rss_mb"].append(max(r["rss_mb"] for r in rep))
            if any(r["report"] is None for r in rep):
                continue
            entries = [r["report"]["properties"] for r in rep]
            sims = [(r["wall_s"], _runs_simulated(e[0]))
                    for r, e in zip(rep, entries)
                    if r["report"]["command"][0] in ("simulate", "lss")]
            if sims:
                samples["sim_runs_per_s"].append(
                    sum(n for _, n in sims) / sum(w for w, _ in sims))
            if self.workload.closed_form:
                samples["abs_error"].append(
                    workloads.abs_error(self.workload, entries))
        return samples

    def traced_pass(self) -> tuple[float, list[list[dict]]]:
        import traced
        tracer = self.tracer
        out = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.workload.commands):
            tracer.trace = i + 1
            with tracer.span("cli.command", argv=cmd.argv[:1]):
                try:
                    entries = traced.replay(tracer, cmd.argv)
                except Exception as e:  # a layer failed: record, go on
                    self._op(False, f"traced {cmd.argv[0]}: {e!r}")
                    out.append(None)
                    continue
            problems = cmd.check(entries)
            self._op(not problems, f"traced {cmd.argv[0]}: "
                     + "; ".join(problems))
            out.append(entries)
        return time.perf_counter() - t0, out

    def per_layer(self, cli_wall: float, traced_wall: float,
                  entries) -> dict[str, float]:
        import workloads
        tr = self.tracer
        T, c = tr.seconds, tr.counts.get

        def ratio(a, b):
            return a / b if b else 0.0

        # layer time the CLI would also spend: direct children of each
        # command span, without the benchmark's probes
        roots = {s["id"] for s in tr.spans if s["name"] == "cli.command"}
        layer_s = sum(s["end"] - s["start"] for s in tr.spans
                      if s["parent"] in roots and not s.get("probe"))
        startup = [self.cli.run(["-c", "import qmv.cli"], module="")["wall_s"]
                   for _ in range(STARTUP_REPEATS)]
        steps_per_run = ratio(c("smc.probe_steps", 0), c("smc.probe_runs", 0))
        lss_means = [e[0]["mean"] for e in entries
                     if e and "distinct_behaviors" in e[0]]
        gap = (self.workload.exact["Pmax delivered"] - max(lss_means)
               if lss_means else 0.0)
        abs_err = (workloads.abs_error(self.workload, entries)
                   if self.workload.closed_form and all(entries) else 0.0)
        return {
            "casestudies.gen_s": T("casestudies.gen"),
            "parser.parse_s": T("lang.parser"),
            "explore.explore_s": T("lang.explore"),
            "explore.states": c("explore.states", 0),
            "explore.transitions": c("explore.transitions", 0),
            "explore.states_per_s": ratio(c("explore.states", 0),
                                          T("lang.explore")),
            "core.target_mask_s": T("core.target_mask"),
            "numeric.reach_prob_s": T("numeric.reach_prob"),
            "numeric.reach_prob_iterations":
                c("numeric.reach_prob_iterations", 0),
            "numeric.pinned_states": c("numeric.pinned_states", 0),
            "numeric.s_per_iteration": ratio(
                T("numeric.reach_prob"),
                c("numeric.reach_prob_iterations", 0)),
            "numeric.expected_time_s": T("numeric.expected_time"),
            "numeric.expected_time_iterations":
                c("numeric.expected_time_iterations", 0),
            "numeric.time_bounded_s": T("numeric.time_bounded"),
            "numeric.digitization_steps":
                c("numeric.digitization_steps", 0),
            "numeric.cdf_s": T("numeric.cdf"),
            "numeric.abs_error": abs_err,
            "smc.estimate_s": T("smc.estimate"),
            "smc.runs": c("smc.runs", 0),
            "smc.truncated_runs": c("smc.truncated_runs", 0),
            "smc.steps_per_run": steps_per_run,
            "smc.steps_per_s": ratio(
                steps_per_run * c("smc.estimate_runs", 0),
                T("smc.estimate")),
            "lss.lss_s": T("lss.lss"),
            "lss.schedulers": c("lss.schedulers", 0),
            "lss.decision_states": c("lss.decision_states", 0),
            "lss.distinct_behaviors": c("lss.distinct_behaviors", 0),
            "lss.distinct_ratio": ratio(c("lss.distinct_behaviors", 0),
                                        c("lss.schedulers", 0)),
            "lss.decide_s": T("lss.decide"),
            "lss.best_gap": gap,
            "cli.startup_s": statistics.median(startup),
            "cli.overhead_s": cli_wall - layer_s,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - cli_wall,
        }

    def execute(self) -> dict:
        with Cli(self.workdir) as self.cli:
            self.speed = Speedometer(self.cli)
            return self._execute()

    def _execute(self) -> dict:
        rec = self.record
        if self.trace:
            rec["bundled_probe"] = self.probe()
        else:
            raw_setup, setup = self.setup_times()
        reps = self.measure()
        rec["commands"] = [[{k: v for k, v in r.items() if k != "report"}
                            for r in rep] for rep in reps]
        samples = self.end_to_end(reps)
        if not self.trace:
            samples["setup_s"] = setup
            samples["raw_setup_s"] = raw_setup
        rec["samples"] = samples
        rec["summary"] = {k: summarize(v) for k, v in samples.items() if v}
        if self.trace:
            traced_wall, entries = self.traced_pass()
            rec["per_layer"] = self.per_layer(
                statistics.median(samples["raw_wall_s"]), traced_wall,
                entries)
            rec["spans"] = self.tracer.spans
        rec["attempted"], rec["failed"] = self.attempted, self.failed
        rec["errors"] = self.errors
        rec["correct"] = not self.errors and self.failed == 0
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{self.name}-{self.seed}-t{int(self.trace)}.json") \
            .write_text(json.dumps(rec, indent=1, default=str))
        return rec


def result_line(rec: dict) -> dict:
    if rec["trace"]:
        metrics = {k: {"value": rec["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": rec["summary"][k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def describe(rec: dict) -> list[str]:
    """Human-readable lines: every metric by name with unit and spread."""
    name = rec["workload"]
    lines = [f"== {name} (seed {rec['seed']}, trace {rec['trace']}): "
             f"{rec['why']}"]
    units = dict(END_TO_END, **EXTRA)
    for key, unit in units.items():
        if key in APPLIES and name not in APPLIES[key]:
            continue
        s = rec["summary"].get(key)
        if s is None:
            continue
        high = {k: v for k, v in s.items() if k not in ("median", "n")}
        (hk, hv), = high.items()
        lines.append(f"  {key:<16} {unit:<7} median {s['median']:.6g}  "
                     f"{hk} {hv:.6g}  n={s['n']}")
    for key, value in rec.get("per_layer", {}).items():
        lines.append(f"  {key:<34} {PER_LAYER[key]:<6} {value:.6g}")
    share = rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0
    lines.append(f"  failures {rec['failed']}/{rec['attempted']} "
                 f"({share:.1%})")
    probe = rec.get("bundled_probe")
    if probe:
        solved = sum(p["solved"] for p in probe)
        lines.append(f"  bundled probe: {solved}/{len(probe)} properties "
                     f"solved ({1 - solved / len(probe):.1%} failed)")
        lines += [f"    unsolved (exit {p['exit']}): {p['property']}"
                  for p in probe if not p["solved"]]
    lines += [f"  error: {e}" for e in rec["errors"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, then traced, and "
                         "print every metric")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    if not (SRC / "qmv" / "cli.py").is_file():
        print(f"error: no qmv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # commands and the calibration loop share one CPU, so that the loop
    # measures the speed the commands see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.all:
        env_shown = False
        for name in WORKLOADS:
            for trace in (False, True):
                rec = Run(name, args.seed, args.seconds, trace).execute()
                if not env_shown:
                    print("environment:", json.dumps(rec["environment"]))
                    env_shown = True
                print("\n".join(describe(rec)), flush=True)
        return 0
    rec = Run(args.workload, args.seed, args.seconds,
              bool(args.trace)).execute()
    print("environment:", json.dumps(rec["environment"]))
    print("\n".join(describe(rec)))
    print(json.dumps(result_line(rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
