"""Command-line interface: subcommands, JSON reports, exit codes."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmv.casestudies import (BitcoinParams, NocParams, gen_bitcoin,
                             gen_contact_mdp, gen_noc, parse_contact_plan,
                             sample_contact_plan)
from qmv.cli import build_parser, main
from qmv.smc import SmcConfig

from conftest import TRAP_MA

COIN = """
dtmc
module coin
  x : [0..2] init 0;
  [] x=0 -> 1/2:(x'=1) + 1/2:(x'=2);
endmodule
label "heads" = x=1;
"""

GEOMETRIC = """
dtmc
module g
  x : [0..1] init 0;
  [] x=0 -> 1/2:(x'=0) + 1/2:(x'=1);
endmodule
label "done" = x=1;
"""

TWO_CHOICE = """
mdp
module m
  x : [0..2] init 0;
  [safe] x=0 -> 1/10:(x'=2) + 9/10:(x'=1);
  [bold] x=0 -> 9/10:(x'=2) + 1/10:(x'=1);
endmodule
label "goal" = x=2;
"""

#: TWO_CHOICE without the bold choice: a DTMC, so no decision state.
ONE_CHOICE = """
dtmc
module m
  x : [0..2] init 0;
  [safe] x=0 -> 1/10:(x'=2) + 9/10:(x'=1);
endmodule
label "goal" = x=2;
"""

INTERLEAVED = """
mdp
module left
  x : [0..1] init 0;
  [] x=0 -> (x'=1);
endmodule
module right
  y : [0..1] init 0;
  [] y=0 -> (y'=1);
endmodule
label "win" = x=1 & y=1;
"""

@pytest.fixture
def model_file(tmp_path):
    def write(text, name="model.gcm"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, (json.loads(out) if out else None), err


class TestCheck:
    def test_reachability_value(self, capsys, model_file):
        code, rep, err = run_json(capsys, [
            "check", model_file(COIN), 'Pmax=? [ F "heads" ]', "--json"])
        assert code == 0
        (res,) = rep["properties"]
        assert res["value"] == pytest.approx(0.5, abs=1e-9)
        assert rep["model"]["states"] == 3

    def test_stdout_is_pure_json_and_stderr_stays_quiet(self, capsys,
                                                        model_file):
        code, out, err = run(capsys, [
            "check", model_file(COIN), 'Pmax=? [ F "heads" ]', "--json"])
        json.loads(out)  # stdout is machine-readable as a whole
        assert err == ""  # stderr is reserved for errors

    def test_reports_are_stable_up_to_timing(self, capsys, model_file):
        argv = ["check", model_file(COIN), 'Pmax=? [ F "heads" ]', "--json"]
        _, first, _ = run_json(capsys, argv)
        _, second, _ = run_json(capsys, argv)
        first.pop("timing")
        second.pop("timing")
        assert first == second

    def test_props_file_with_multiple_properties(self, capsys, model_file,
                                                 tmp_path):
        props = tmp_path / "queries.props"
        props.write_text('Pmax=? [ F "heads" ]\nPmin=? [ F "heads" ]\n')
        code, rep, _ = run_json(capsys, [
            "check", model_file(COIN), str(props), "--json"])
        assert code == 0
        assert [r["value"] for r in rep["properties"]] == [
            pytest.approx(0.5), pytest.approx(0.5)]

    def test_prop_index_selects_one(self, capsys, model_file, tmp_path):
        props = tmp_path / "queries.props"
        props.write_text('Pmax=? [ F "heads" ]\nPmin=? [ F x=2 ]\n')
        code, rep, _ = run_json(capsys, [
            "check", model_file(COIN), str(props), "--prop-index", "1",
            "--json"])
        assert code == 0 and len(rep["properties"]) == 1
        assert rep["properties"][0]["property"] == "Pmin=? [ F x=2 ]"

    def test_expected_time_on_ma(self, capsys, model_file):
        src = """
        ma
        module m
          x : [0..1] init 0;
          rate(4) x=0 -> (x'=1);
        endmodule
        label "goal" = x=1;
        """
        code, rep, _ = run_json(capsys, [
            "check", model_file(src), 'Tmin=? [ F "goal" ]', "--json"])
        assert code == 0
        assert rep["properties"][0]["value"] == pytest.approx(0.25, abs=1e-9)

    def test_bare_and_quoted_label_names(self, capsys, model_file):
        path = model_file(COIN)
        for target in ("heads", '"heads"'):
            code, rep, err = run_json(capsys, [
                "check", path, f"Pmax=? [ F {target} ]", "--json"])
            assert code == 0, err
            assert rep["properties"][0]["value"] == pytest.approx(0.5)

    def test_unknown_quoted_label_is_a_positioned_error(self, capsys,
                                                        model_file):
        code, _, err = run(capsys, [
            "check", model_file(COIN), 'Pmax=? [ F "tails" ]'])
        assert code == 1
        assert 'unknown label "tails"' in err and "column 12" in err

    @pytest.mark.parametrize("target, problem", [
        ("x + 1", "must be boolean"),
        ("!x", "'!' needs a boolean"),
        ("y = 1", "undeclared name 'y'"),
    ])
    def test_ill_typed_target_is_rejected(self, capsys, model_file, target,
                                          problem):
        code, out, err = run(capsys, [
            "check", model_file(COIN), f"Pmax=? [ F {target} ]"])
        assert code == 1 and out == ""
        assert problem in err

    def test_ill_typed_target_fails_before_any_analysis(self, capsys,
                                                       model_file, tmp_path):
        # the first property's solver would fail; the second's target is
        # rejected before it runs
        props = tmp_path / "trap.props"
        props.write_text('Tmin=? [ F "goal" ]\nPmax=? [ F x + 1 ]\n')
        code, out, err = run(capsys, [
            "check", model_file(TRAP_MA), str(props)])
        assert code == 1 and out == ""
        assert "must be boolean" in err and "zero-time" not in err

    def test_expression_target_reads_model_constants(self, capsys,
                                                     model_file):
        src = "dtmc\nconst int K = 1;\n" + COIN.split("dtmc", 1)[1]
        code, rep, err = run_json(capsys, [
            "check", model_file(src), "Pmax=? [ F x >= K + 1 ]", "--json"])
        assert code == 0, err
        assert rep["properties"][0]["value"] == pytest.approx(0.5)

    def test_failed_property_keeps_the_others(self, capsys, model_file,
                                              tmp_path):
        props = tmp_path / "trap.props"
        props.write_text('Pmax=? [ F "goal" ]\nTmin=? [ F "goal" ]\n')
        code, rep, err = run_json(capsys, [
            "check", model_file(TRAP_MA), str(props), "--json"])
        assert code == 3
        solved, failed = rep["properties"]
        assert solved["value"] == pytest.approx(1.0)
        assert failed["property"] == 'Tmin=? [ F "goal" ]'
        assert "zero-time" in failed["error"]
        assert "zero-time" in err
        assert len(rep["timing"]["property_seconds"]) == 2


class TestCdf:
    def test_csv_rows(self, capsys, model_file, tmp_path):
        out_csv = tmp_path / "cdf.csv"
        code, _, _ = run(capsys, [
            "cdf", model_file(GEOMETRIC), 'Pmax=? [ F "done" ]',
            "--horizon", "3", "--out", str(out_csv)])
        assert code == 0
        rows = [line.split(",") for line in
                out_csv.read_text().strip().splitlines()]
        values = {int(t): float(p) for t, p in rows}
        assert values == {0: 0.0, 1: 0.5, 2: 0.75, 3: 0.875}

    def test_json_report_carries_the_curve(self, capsys, model_file):
        code, rep, _ = run_json(capsys, [
            "cdf", model_file(GEOMETRIC), 'Pmax=? [ F "done" ]',
            "--horizon", "2", "--json"])
        assert code == 0
        res = rep["properties"][0]
        assert res["cdf"] == [0.0, 0.5, 0.75]
        assert res["monotone"] is True and res["final"] == 0.75

    def test_an_ignored_step_bound_is_named_on_stderr(self, capsys,
                                                      model_file):
        path = model_file(GEOMETRIC)
        for bound, note in ((2, ""), (5, (
                'warning: Pmax=? [ F<=5 "done" ]: step bound 5 ignored; '
                "the CDF runs to --horizon 2\n"))):
            code, out, err = run(capsys, [
                "cdf", path, f'Pmax=? [ F<={bound} "done" ]',
                "--horizon", "2"])
            assert code == 0 and err == note
            assert out == "0,0.0\n1,0.5\n2,0.75\n"

    def test_solver_flags_are_only_parser_defaults(self, capsys):
        # cdf takes no solver setting, but a parsed cdf command still
        # carries check's defaults for callers that build a SolverConfig
        args = build_parser().parse_args(["cdf", "m.gcm", "P", "--horizon",
                                          "5"])
        assert (args.epsilon, args.time_bound_error) == (1e-6, 1e-4)
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--horizon" in out
        assert "--epsilon" not in out and "--time-bound-error" not in out
        # the parser takes its --max-steps default from core, not smc, and
        # perfbench/traced.py builds an SmcConfig from the parsed value
        for argv in (["simulate", "m.gcm", "P"],
                     ["lss", "m.gcm", "P", "--schedulers", "2"]):
            args = build_parser().parse_args(argv)
            assert args.max_steps == SmcConfig(runs=1).max_steps
        # gen's flags have no parser defaults; the generators' apply
        for case in ("bitcoin", "noc"):
            with pytest.raises(SystemExit) as exc:
                main(["gen", case, "--help"])
            assert exc.value.code == 0


class TestSimulate:
    def test_deterministic_estimate(self, capsys, model_file):
        argv = ["simulate", model_file(COIN), 'Pmax=? [ F "heads" ]',
                "--runs", "400", "--seed", "1", "--json"]
        code, rep, _ = run_json(capsys, argv)
        assert code == 0
        res = rep["properties"][0]
        assert res["runs"] == 400
        assert res["ci_low"] <= 0.5 <= res["ci_high"]

    def test_nondeterminism_requires_scheduler_id(self, capsys, model_file):
        path = model_file(TWO_CHOICE)
        code, _, err = run(capsys, [
            "simulate", path, 'Pmax=? [ F "goal" ]', "--runs", "20"])
        assert code == 1
        assert "--scheduler-id" in err
        code, rep, _ = run_json(capsys, [
            "simulate", path, 'Pmax=? [ F "goal" ]', "--runs", "200",
            "--scheduler-id", "7", "--json"])
        assert code == 0
        assert rep["properties"][0]["scheduler_id"] == 7

    def test_distributed_mode_needs_a_scheduler_id(self, capsys, tmp_path):
        # without an id no scheduler reads the mode, so on this DTMC the
        # good-for-distribution check would never run
        run(capsys, ["gen", "noc", "--out-dir", str(tmp_path)])
        code, out, err = run(capsys, [
            "simulate", str(tmp_path / "noc.gcm"), str(tmp_path / "noc.props"),
            "--runs", "10", "--mode", "distributed"])
        assert (code, out) == (1, "")
        assert "--scheduler-id" in err

    def test_scheduler_id_estimate_is_pinned(self, capsys, tmp_path):
        run(capsys, ["gen", "bitcoin", "--CD", "3", "--out-dir",
                     str(tmp_path)])
        code, rep, _ = run_json(capsys, [
            "simulate", str(tmp_path / "bitcoin.gcm"),
            'Pmax=? [ F<=600 "goal" ]', "--runs", "200", "--seed", "7",
            "--scheduler-id", "12345", "--json"])
        assert code == 0
        assert rep["properties"] == [{
            "property": 'Pmax=? [ F<=600 "goal" ]', "mean": 0.455,
            "ci_low": 0.38461304203868996, "ci_high": 0.5267407524812366,
            "ci_method": "clopper-pearson", "runs": 200,
            "truncated_runs": 0, "scheduler_id": 12345}]

    def test_truncated_runs_widen_the_interval_to_the_value(self, capsys,
                                                            model_file):
        # x reaches 100 with probability 1, after 200 steps on average: all
        # 1000 runs stop at 150 steps, so only the interval's upper end,
        # which counts them as hits, can hold the value
        path = model_file("""
            dtmc
            module walk
              x : [0..100] init 0;
              [] x<100 -> 1/2:(x'=x+1) + 1/2:(x'=x);
            endmodule
        """)
        code, rep, _ = run_json(capsys, [
            "simulate", path, "Pmax=? [ F x=100 ]", "--runs", "1000",
            "--max-steps", "150", "--json"])
        assert code == 0
        res = rep["properties"][0]
        assert (res["mean"], res["ci_low"], res["ci_high"]) == (0.0, 0.0, 1.0)
        assert res["truncated_runs"] == 1000

    def test_default_run_count(self, capsys, model_file):
        code, rep, _ = run_json(capsys, [
            "simulate", model_file(COIN), 'Pmax=? [ F "heads" ]', "--json"])
        assert code == 0 and rep["properties"][0]["runs"] == 10_000

    def test_okamoto_sizing_via_eps_delta(self, capsys, model_file):
        code, rep, _ = run_json(capsys, [
            "simulate", model_file(COIN), 'Pmax=? [ F "heads" ]',
            "--eps", "0.05", "--delta", "0.2", "--json"])
        assert code == 0
        assert rep["properties"][0]["runs"] == 461  # ceil(ln(10)/0.005)


class TestLss:
    def test_global_mode_finds_good_scheduler(self, capsys, model_file):
        code, rep, _ = run_json(capsys, [
            "lss", model_file(TWO_CHOICE), 'Pmax=? [ F "goal" ]',
            "--schedulers", "8", "--runs", "300", "--seed", "2", "--json",
            "--table"])
        assert code == 0
        res = rep["properties"][0]
        assert res["mode"] == "global"
        assert res["mean"] == pytest.approx(0.9, abs=0.05)
        assert res["distinct_behaviors"] <= 2
        assert len(res["table"]) == 8

    def test_distributed_mode_rejects_shared_decisions(self, capsys,
                                                       model_file):
        code, _, err = run(capsys, [
            "lss", model_file(INTERLEAVED), 'Pmax=? [ F "win" ]',
            "--schedulers", "4", "--runs", "10", "--mode", "distributed"])
        assert code == 4
        assert "not good for distribution" in err

    def test_seed_controls_both_sampler_and_runs(self, capsys, model_file):
        argv = ["lss", model_file(TWO_CHOICE), 'Pmax=? [ F "goal" ]',
                "--schedulers", "4", "--runs", "100", "--json"]
        _, a, _ = run_json(capsys, argv + ["--seed", "3"])
        _, b, _ = run_json(capsys, argv + ["--seed", "3"])
        _, c, _ = run_json(capsys, argv + ["--seed", "4"])
        for rep in (a, b, c):
            rep.pop("timing")
            rep.pop("command")
        assert a == b
        assert a != c


    def test_simulate_replays_every_sampled_scheduler(self, capsys,
                                                       model_file):
        path = model_file(TWO_CHOICE)
        common = ['Pmax=? [ F "goal" ]', "--runs", "100", "--seed", "5",
                  "--json"]
        _, rep, _ = run_json(capsys, ["lss", path, *common,
                                      "--schedulers", "4", "--table"])
        for row in rep["properties"][0]["table"]:
            _, sim, _ = run_json(capsys, [
                "simulate", path, *common, "--scheduler-id", str(row["id"])])
            assert sim["properties"][0]["mean"] == row["mean"]

    def test_simulate_replays_distributed_mode_ids(self, capsys, tmp_path):
        model = tmp_path / "contacts.gcm"
        model.write_text(gen_contact_mdp(parse_contact_plan(
            sample_contact_plan())).model)
        common = ['Pmax=? [ F "delivered" ]', "--runs", "200", "--seed",
                  "3", "--json"]
        _, rep, _ = run_json(capsys, [
            "lss", str(model), *common, "--schedulers", "6", "--table",
            "--mode", "distributed"])
        moved = 0
        for row in rep["properties"][0]["table"]:
            replay = ["simulate", str(model), *common, "--scheduler-id",
                      str(row["id"])]
            _, sim, _ = run_json(capsys, replay + ["--mode", "distributed"])
            assert sim["properties"][0]["mean"] == row["mean"]
            _, other, _ = run_json(capsys, replay)
            moved += other["properties"][0]["mean"] != row["mean"]
        # the mode matters: in global mode most ids decide differently
        assert moved >= 1

    def test_simulate_distributed_mode_rejects_shared_decisions(
            self, capsys, model_file):
        code, _, err = run(capsys, [
            "simulate", model_file(INTERLEAVED), 'Pmax=? [ F "win" ]',
            "--runs", "10", "--scheduler-id", "1", "--mode", "distributed"])
        assert code == 4
        assert "not good for distribution" in err


class TestText:
    """Without --json, stdout is one aligned row per scalar report field."""

    @pytest.mark.parametrize("model, argv, rows", [
        pytest.param(TRAP_MA, ["check", "{props}"], [
            "path         {model}",
            "class        ma",
            "states       3",
            "transitions  3",
            'property     Pmax=? [ F "goal" ]',
            "value        1.0",
            "iterations   0",
            "residual     0.0",
            'property     Tmin=? [ F "goal" ]',
            "error        minimum expected time is ill-defined: zero-time "
            "cycle through states [0]",
        ], id="check"),
        pytest.param(GEOMETRIC, ["cdf", 'Pmax=? [ F "done" ]', "--horizon",
                                 "3", "--out", "{csv}"], [
            "path         {model}",
            "class        dtmc",
            "states       2",
            "transitions  3",
            'property     Pmax=? [ F "done" ]',
            "horizon      3",
            "monotone     True",
            "final        0.875",
        ], id="cdf"),
        pytest.param(COIN, ["simulate", 'Pmax=? [ F "heads" ]', "--runs",
                            "400", "--seed", "1"], [
            "path            {model}",
            "class           dtmc",
            "states          3",
            "transitions     4",
            'property        Pmax=? [ F "heads" ]',
            "mean            0.515",
            "ci_low          0.4648180519109717",
            "ci_high         0.5649584428296132",
            "ci_method       clopper-pearson",
            "runs            400",
            "truncated_runs  0",
        ], id="simulate"),
        pytest.param(TWO_CHOICE, ["lss", 'Pmax=? [ F "goal" ]',
                                  "--schedulers", "4", "--runs", "100",
                                  "--seed", "5", "--table"], [
            "path                {model}",
            "class               mdp",
            "states              3",
            "transitions         6",
            'property            Pmax=? [ F "goal" ]',
            "mode                global",
            "schedulers          4",
            "distinct_behaviors  2",
            "best_id             1097127993",
            "mean                0.95",
            "ci_low              0.8871650888943106",
            "ci_high             0.983568120818054",
            "ci_method           clopper-pearson",
            "runs_per_scheduler  100",
            "selection_mean      0.9",
            "",
            "2675342405  0.07",
            "1097127993  0.9",
            "3185950873  0.9",
            "1539898300  0.07",
        ], id="lss-table"),
    ])
    def test_rows(self, capsys, model_file, tmp_path, model, argv, rows):
        props = tmp_path / "trap.props"
        props.write_text('Pmax=? [ F "goal" ]\nTmin=? [ F "goal" ]\n')
        path = model_file(model)
        argv = [a.format(props=props, csv=tmp_path / "cdf.csv")
                for a in argv]
        _, out, _ = run(capsys, [argv[0], path, *argv[1:]])
        assert out.splitlines() == [row.format(model=path) for row in rows]


def _bundled_properties():
    """(case, property index, property text) of every bundled case study's
    generated properties."""
    cases = [gen_bitcoin(BitcoinParams()),
             gen_contact_mdp(parse_contact_plan(sample_contact_plan())),
             gen_noc(NocParams())]
    out = []
    for case in cases:
        lines = [ln.split("//", 1)[0].strip()
                 for ln in case.props.splitlines()]
        out += [(case, i, text)
                for i, text in enumerate(ln for ln in lines if ln)]
    return out


@pytest.mark.parametrize("case, index, text", [
    pytest.param(*entry, id=f"{entry[0].name}-{entry[1]}")
    for entry in _bundled_properties()])
def test_bundled_property_checks_under_default_flags(capsys, tmp_path, case,
                                                     index, text):
    gcm, props = case.write(tmp_path)
    code, rep, _ = run_json(capsys, ["check", str(gcm), str(props),
                                     "--prop-index", str(index), "--json"])
    assert code == 0
    (entry,) = rep["properties"]
    assert entry["property"] == text
    assert math.isfinite(entry["value"])


def test_noc_check_cdf_and_simulate_agree(capsys, tmp_path):
    """The NoC case three ways: ``check`` equals ``cdf`` at the bound, and
    lies in ``simulate``'s interval, which excludes the value +- 0.01."""
    gcm, props = (str(p) for p in gen_noc(
        NocParams(k_ind=3, events=4, horizon=4)).write(tmp_path))
    _, check, _ = run_json(capsys, ["check", gcm, props, "--json"])
    _, cdf, _ = run_json(capsys, ["cdf", gcm, props, "--horizon", "21",
                                  "--json"])
    _, sim, _ = run_json(capsys, ["simulate", gcm, props, "--runs", "40000",
                                  "--seed", "0", "--json"])
    assert check["model"]["states"] == 1138
    value = check["properties"][0]["value"]
    assert 0.49 < value < 0.5
    assert cdf["properties"][0]["final"] == value
    est = sim["properties"][0]
    assert est["ci_low"] <= value <= est["ci_high"]
    for planted in (value - 0.01, value + 0.01):
        assert not est["ci_low"] <= planted <= est["ci_high"]


class TestGen:
    def test_bitcoin_files_check_end_to_end(self, capsys, tmp_path):
        code, _, _ = run(capsys, [
            "gen", "bitcoin", "--CD", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        gcm = tmp_path / "bitcoin.gcm"
        props = tmp_path / "bitcoin.props"
        assert gcm.exists() and props.exists()
        code, rep, _ = run_json(capsys, [
            "check", str(gcm), str(props), "--prop-index", "0", "--json"])
        assert code == 0
        assert rep["properties"][0]["value"] > 0

    @pytest.mark.parametrize("goal, column", [("m_len >=", 9), ("", 1),
                                              ("m_len > 0 )", 11)])
    def test_malformed_bitcoin_goal_fails_at_gen(self, capsys, tmp_path,
                                                 goal, column):
        code, out, err = run(capsys, [
            "gen", "bitcoin", "--goal", goal, "--out-dir", str(tmp_path)])
        assert code == 1
        assert out == ""
        assert f"(line 1, column {column})" in err
        assert not (tmp_path / "bitcoin.gcm").exists()

    def test_contacts_from_plan_file(self, capsys, tmp_path):
        from qmv.casestudies import sample_contact_plan
        plan = tmp_path / "plan.json"
        plan.write_text(sample_contact_plan())
        code, _, _ = run(capsys, [
            "gen", "contacts", "--plan", str(plan),
            "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "contacts.gcm").exists()

    def test_noc_generation_and_validation(self, capsys, tmp_path):
        code, _, _ = run(capsys, [
            "gen", "noc", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "noc.gcm").exists()
        code, _, err = run(capsys, [
            "gen", "noc", "--burst-len", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "burst" in err


    @pytest.mark.parametrize("case, expected", [
        ("bitcoin", gen_bitcoin(BitcoinParams())),
        ("noc", gen_noc(NocParams())),
    ])
    def test_defaults_are_the_generator_defaults(self, capsys, tmp_path,
                                                 case, expected):
        code, _, _ = run(capsys, ["gen", case, "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / f"{case}.gcm").read_text() == expected.model
        assert (tmp_path / f"{case}.props").read_text() == expected.props


#: Runs the command line given as arguments, then names on stderr whether
#: ``numpy.ma`` was imported.
_NUMPY_MA_PROBE = """
import sys
from qmv.cli import main
code = main(sys.argv[1:])
print("numpy.ma" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


#: Runs the command line given as arguments, then names on stderr the
#: ``qmv`` modules that were imported, as a JSON list.
_QMV_MODULES_PROBE = """
import json, sys
from qmv.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qmv."))),
      file=sys.stderr)
sys.exit(code)
"""


class TestImports:
    """What a fresh interpreter loads; numpy's first ``np.unique`` call
    imports ``numpy.ma``, 1.2 MB of resident memory."""

    @staticmethod
    def _python(*args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stderr.splitlines()[-1]

    def test_sampling_commands_leave_numpy_ma_unloaded(self, tmp_path):
        gen_contact_mdp(parse_contact_plan(sample_contact_plan())) \
            .write(tmp_path)
        gen_bitcoin(BitcoinParams()).write(tmp_path)
        contacts = [str(tmp_path / f"contacts.{x}") for x in ("gcm", "props")]
        bitcoin = [str(tmp_path / f"bitcoin.{x}") for x in ("gcm", "props")]
        for argv in (["lss", *contacts, "--schedulers", "5", "--runs", "50",
                      "--mode", "distributed"],
                     ["simulate", *bitcoin, "--prop-index", "1",
                      "--scheduler-id", "7", "--runs", "100"]):
            assert self._python("-c", _NUMPY_MA_PROBE, *argv) == "False"

    @pytest.mark.parametrize("argv", [
        ["check", "coin.gcm", 'Pmax=? [ F "heads" ]'],
        ["cdf", "coin.gcm", 'Pmax=? [ F "heads" ]', "--horizon", "3"],
        ["simulate", "coin.gcm", 'Pmax=? [ F "heads" ]', "--runs", "10"],
        ["lss", "two.gcm", 'Pmax=? [ F "goal" ]', "--schedulers", "2",
         "--runs", "10"],
    ], ids=lambda argv: argv[0])
    def test_each_subcommand_loads_only_what_it_calls(self, tmp_path, argv):
        (tmp_path / "coin.gcm").write_text(COIN)
        (tmp_path / "two.gcm").write_text(TWO_CHOICE)
        argv = [argv[0], str(tmp_path / argv[1]), *argv[2:]]
        loaded = json.loads(self._python("-c", _QMV_MODULES_PROBE, *argv))
        assert "qmv.numeric" in loaded and "qmv.casestudies" not in loaded
        assert ("qmv.smc" in loaded) == (argv[0] in ("simulate", "lss"))

    def test_the_simulator_loads_no_front_end(self):
        assert self._python("-c", "import sys, qmv.smc; print(sorted(m for m "
                            "in sys.modules if m.startswith('qmv.lang')), "
                            "file=sys.stderr)") == "[]"


class TestExitCodes:
    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, [
            "check", "/nonexistent/model.gcm", 'Pmax=? [ F "g" ]'])
        assert code == 1 and err

    def test_syntax_error(self, capsys, model_file):
        code, _, err = run(capsys, [
            "check", model_file("dtmc\nmodule m\n x : [0..1 init 0;\n"
                                "endmodule"),
            'Pmax=? [ F "g" ]'])
        assert code == 1 and "line" in err

    def test_undeclared_action_is_a_positioned_error(self, capsys,
                                                     model_file):
        # both modules synchronise on zz, which the model does not declare
        code, out, err = run(capsys, [
            "check", model_file("mdp\naction a;\nmodule m1\n"
                                " x : [0..1] init 0;\n [zz] x=0 -> (x'=1);\n"
                                "endmodule\nmodule m2\n y : [0..1] init 0;\n"
                                " [zz] y=0 -> (y'=1);\nendmodule\n"),
            'Pmax=? [ F x=1 ]'])
        assert code == 1 and not out
        assert err.startswith("error: undeclared action 'zz' (declared: a) "
                              "(line 5, column 3)")

    def test_bad_property(self, capsys, model_file):
        code, _, err = run(capsys, [
            "check", model_file(COIN), 'Pmax=? [ G "heads" ]'])
        assert code == 1

    def test_state_cap_exceeded(self, capsys, model_file):
        big = """
        dtmc
        module m
          x : [0..999] init 0;
          [] x<999 -> (x'=x+1);
        endmodule
        label "end" = x=999;
        """
        code, _, err = run(capsys, [
            "check", model_file(big), 'Pmax=? [ F "end" ]',
            "--state-cap", "5"])
        assert code == 2
        assert "cap" in err

    def test_solver_failure(self, capsys, model_file):
        code, _, err = run(capsys, [
            "check", model_file(TRAP_MA), 'Tmin=? [ F "goal" ]'])
        assert code == 3
        assert "zero-time" in err

    @pytest.mark.parametrize("model,command,flag,value", [
        pytest.param(TWO_CHOICE, "simulate", "--scheduler-id", "-1",
                     id="simulate---scheduler-id--1"),
        pytest.param(TWO_CHOICE, "simulate", "--scheduler-id", str(2 ** 32),
                     id="simulate---scheduler-id-4294967296"),
        pytest.param(TWO_CHOICE, "simulate", "--seed", "-1",
                     id="simulate---seed--1"),
        pytest.param(TWO_CHOICE, "lss", "--seed", "-1", id="lss---seed--1"),
        pytest.param(TWO_CHOICE, "lss", "--seed", str(2 ** 64),
                     id="lss---seed-18446744073709551616"),
        # no decision state to hash: the id is checked all the same
        pytest.param(ONE_CHOICE, "simulate", "--scheduler-id", str(2 ** 32),
                     id="dtmc-simulate---scheduler-id-4294967296"),
    ])
    def test_out_of_range_scheduler_id_or_seed(self, capsys, model_file,
                                               model, command, flag, value):
        argv = [command, model_file(model), 'Pmax=? [ F "goal" ]',
                "--runs", "10", flag, value]
        if command == "lss":
            argv += ["--schedulers", "2"]
        elif flag == "--seed":
            argv += ["--scheduler-id", "0"]
        code, out, err = run(capsys, argv)
        assert code == 1 and not out
        assert err.startswith("error: ") and f"{value} outside" in err

    @pytest.mark.parametrize("model,argv,message", [
        (COIN, ["check", 'Pmax=? [ F "heads" ]', "--epsilon", "nan"],
         "epsilon must be finite"),
        (COIN, ["check", 'Pmax=? [ F "heads" ]', "--epsilon", "inf"],
         "epsilon must be finite"),
        (TRAP_MA, ["check", 'Pmax=? [ F<=10 "goal" ]',
                   "--time-bound-error", "inf"],
         "time_bound_error must be finite"),
        (TRAP_MA, ["check", 'Pmax=? [ F<=10 "goal" ]',
                   "--time-bound-error", "nan"],
         "time_bound_error must be finite"),
        (COIN, ["cdf", 'Pmax=? [ F "heads" ]', "--horizon", "-1"],
         "nonnegative"),
        (COIN, ["check", 'Pmax=? [ F "heads" ]', "--state-cap", "-1"],
         "state cap must be at least 1"),
        (COIN, ["simulate", 'Pmax=? [ F "heads" ]', "--runs", "100",
                "--eps", "0.05", "--delta", "0.05"], "not both"),
        (COIN, ["simulate", 'Pmax=? [ F "heads" ]', "--delta", "0.05"],
         "(epsilon, delta) pair"),
        (COIN, ["lss", 'Pmax=? [ F "heads" ]', "--schedulers", "2",
                "--runs", "100", "--delta", "0.05"], "not both"),
        (COIN, ["lss", 'Pmax=? [ F "heads" ]', "--schedulers", "2",
                "--eps", "0.05"], "(epsilon, delta) pair"),
        (COIN, ["check", 'Pmax=? [ F "heads" ]', "--prop-index", "1"],
         "--prop-index 1 out of range (have 1)"),
        (TRAP_MA, ["cdf", 'Tmin=? [ F "goal" ]', "--horizon", "3"],
         "cdf needs a reachability property"),
        (TRAP_MA, ["cdf", 'Pmax=? [ F "goal" ]', "--horizon", "3"],
         "cdf needs a DTMC or MDP"),
    ])
    def test_bad_parameter_is_an_error(self, capsys, model_file, model, argv,
                                       message):
        code, out, err = run(capsys,
                             [argv[0], model_file(model)] + argv[1:])
        assert code == 1 and not out
        assert err.startswith("error: ") and message in err

    def test_empty_props_file(self, capsys, model_file):
        props = model_file("// no property\n", name="empty.props")
        code, out, err = run(capsys, ["check", model_file(COIN), props])
        assert code == 1 and not out
        assert err == f"error: no properties in {props}\n"

    @pytest.mark.parametrize("argv,message", [
        (["check", "M", "P", "--bogus"], "qmv: unrecognized arguments: "
         "--bogus"),
        ([], "qmv: the following arguments are required: subcommand"),
        (["cdf", "M", "P"], "qmv cdf: the following arguments are required: "
         "--horizon"),
        (["simulate", "M", "P", "--mode", "both"],
         "qmv simulate: argument --mode: invalid choice: 'both'"),
        (["simulate", "M", "P", "--runs", "1.5"],
         "qmv simulate: argument --runs: invalid int value: '1.5'"),
        (["cdf", "M", "P", "--horizon", "5", "--epsilon", "1e-3"],
         "qmv: unrecognized arguments: --epsilon 1e-3"),
        (["cdf", "M", "P", "--horizon", "5", "--time-bound-error", "1e-3"],
         "qmv: unrecognized arguments: --time-bound-error 1e-3"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # argparse would exit 2, which means an exceeded state cap
        code, out, err = run(capsys, argv)
        assert code == 1 and not out
        assert err.startswith(f"error: {message}")

    def test_tiny_time_bound_error_exceeds_the_step_cap(self, capsys,
                                                      model_file):
        code, _, err = run(capsys, [
            "check", model_file(TRAP_MA), 'Pmax=? [ F<=10 "goal" ]',
            "--time-bound-error", "1e-320"])
        assert code == 3
        assert "needs about inf Poisson terms" in err

    def test_horizon_above_the_cap_is_a_solver_failure(self, capsys,
                                                      model_file):
        code, out, err = run(capsys, [
            "cdf", model_file(COIN), 'Pmax=? [ F "heads" ]',
            "--horizon", "1000001"])
        assert code == 3 and not out
        assert "horizon 1000001 exceeds MAX_HORIZON (1000000)" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qmv" in capsys.readouterr().out
