"""Command-line interface: subcommands, JSON reports, exit codes."""
import json

import pytest

from qmv.cli import main

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

TRAP_MA = """
ma
module m
  x : [0..2] init 0;
  [] x=0 -> (x'=0);
  [] x=0 -> (x'=1);
  rate(1) x=1 -> (x'=2);
endmodule
label "goal" = x=2;
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

    def test_scheduler_id_estimate_is_pinned(self, capsys, tmp_path):
        run(capsys, ["gen", "bitcoin", "--CD", "3", "--out-dir",
                     str(tmp_path)])
        code, rep, _ = run_json(capsys, [
            "simulate", str(tmp_path / "bitcoin.gcm"),
            'Pmax=? [ F<=600 "goal" ]', "--runs", "200", "--seed", "7",
            "--scheduler-id", "12345", "--json"])
        assert code == 0
        assert rep["properties"] == [{
            "property": 'Pmax=? [ F<=600 "goal" ]', "mean": 0.42,
            "ci_low": 0.3515962808028686, "ci_high": 0.4884037191971314,
            "runs": 200, "truncated_runs": 0, "scheduler_id": 12345}]

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
    ])
    def test_bad_parameter_is_an_error(self, capsys, model_file, model, argv,
                                       message):
        code, out, err = run(capsys,
                             [argv[0], model_file(model)] + argv[1:])
        assert code == 1 and not out
        assert err.startswith("error: ") and message in err

    def test_tiny_time_bound_error_exceeds_the_step_cap(self, capsys,
                                                      model_file):
        code, _, err = run(capsys, [
            "check", model_file(TRAP_MA), 'Pmax=? [ F<=10 "goal" ]',
            "--time-bound-error", "1e-320"])
        assert code == 3
        assert "digitization needs inf steps" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qmv" in capsys.readouterr().out
