import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdprofiles import (
    Parameters, Regime, SolveConfig, build_selfsimilar, estimate_log_decay, estimate_power_decay, pde_residual,
    run_all_checks, solve_profile,
)
from fdprofiles import cli, invariants, loglimit
from fdprofiles.cli import _jsonable, main
from fdprofiles.invariants import InvariantReport
from fdprofiles.loglimit import limit_convergence
from fdprofiles.selfsim import PDE_RADII


def run(*args):
    return main([str(a) for a in args])


PARAMS = ("--n", 3, "--m", 0.2, "--alpha", 2.5, "--beta", 1, "--eta", 1)


class TestSolve:
    def test_profile_csv_contract(self, tmp_path):
        out = tmp_path / "profile.csv"
        code = run("solve", *PARAMS, "--r-max", 100, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,v,dv"
        r, v, dv = (float(tok) for tok in lines[1].split(","))
        assert r > 0 and v > 0
        # floats round-trip exactly at 17 significant digits
        assert format(v, ".17g") in lines[1]

    def test_log_chart_csv(self, tmp_path):
        out = tmp_path / "log.csv"
        assert run("solve", *PARAMS, "--log-out", out) == 0
        assert out.read_text().splitlines()[0] == "s,w,ws"

    def test_hypothesis_violation_exit_code(self, tmp_path):
        report = tmp_path / "err.json"
        code = run("solve", "--n", 3, "--m", 0.2, "--alpha", 6, "--beta", 1, "--eta", 1,
                   "--json", report)
        assert code == 2
        data = json.loads(report.read_text())
        assert data["error"]["type"] == "HypothesisViolation"

    def test_r_handoff_is_rejected(self, tmp_path):
        # the charts always meet at r = 1; neither a flag nor a file key moves the seam
        with pytest.raises(SystemExit) as exc:
            run("solve", *PARAMS, "--r-handoff", 2)
        assert exc.value.code == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("r-handoff = 2\n")
        report = tmp_path / "err.json"
        assert run("solve", *PARAMS, "--config", cfgfile, "--json", report) == 2
        assert "r-handoff" in json.loads(report.read_text())["error"]["message"]

    def test_tail_overflow_is_a_numerical_exit(self, tmp_path):
        report = tmp_path / "r.json"
        code = run("solve", "--n", 3, "--m", 0.2, "--alpha", 1, "--beta", 1, "--eta", 1,
                   "--s-end", 2000, "--json", report)
        assert code == 3
        assert json.loads(report.read_text())["error"]["type"] == "ProfileError"

    @pytest.mark.parametrize("eta", [1e100, 1e300])
    def test_float_overflow_at_large_eta_is_a_numerical_exit(self, tmp_path, eta):
        report = tmp_path / "r.json"
        code = run("verify", "--n", 3, "--m", 0.2, "--alpha", 2.5, "--beta", 1, "--eta", eta, "--json", report)
        assert code == 3
        error = json.loads(report.read_text())["error"]
        assert error["type"] == "ProfileError" and "(at " in error["message"]

    def test_short_log_chart_verifies(self, tmp_path):
        report = tmp_path / "r.json"
        assert run("verify", *PARAMS, "--s-end", 0.5, "--strict", "--json", report) == 0
        assert json.loads(report.read_text())["diagnostics"]["overlap_error"] < 1e-10

    def test_log_chart_past_the_float_range_of_r_verifies(self, tmp_path):
        # s_end = 800 puts the chart's end at r = e^800, beyond the largest float
        report = tmp_path / "r.json"
        assert run("verify", *PARAMS, "--s-end", 800, "--strict", "--json", report) == 0
        entries = json.loads(report.read_text())["invariants"]["entries"]
        assert {e["location"] for e in entries if e["name"] == "w_unbounded"} == {"inf"}

    def test_deterministic_outputs(self, tmp_path):
        csv = tmp_path / "run.csv"
        js = tmp_path / "run.json"
        outs = []
        for _ in range(2):
            assert run("solve", *PARAMS, "--out", csv, "--json", js) == 0
            outs.append((csv.read_bytes(), js.read_bytes()))
        assert outs[0] == outs[1]

    def test_report_embeds_config_and_constants(self, tmp_path):
        js = tmp_path / "report.json"
        assert run("solve", *PARAMS, "--json", js) == 0
        data = json.loads(js.read_text())
        assert data["config"]["alpha"] == 2.5
        for key in ("k", "rho1", "a0", "b0", "b1", "b2"):
            assert key in data["derived"]
        assert data["regime"] == "eternal"
        # the eternal log chart is handed to Radau IIA once DOP853 is stability-bound,
        # and to the sigma = 0 slow tail once its fast mode has relaxed
        diag = data["diagnostics"]
        assert 0.0 < diag["stiff_switch_s"] < diag["qss_switch_s"] < 40.0
        assert diag["qss_gap"] < 1e-9

    def test_report_carries_the_r_chart_switch(self, tmp_path):
        # fuzz draw 46 of default_rng(3) turns stiff on the r-chart; the eternal row does not
        js = tmp_path / "report.json"
        assert run("solve", "--n", 3, "--m", 0.1293485945439273, "--alpha", -2.515003384336588,
                   "--beta", 2.023106548992026, "--eta", 24961.53343951476, "--json", js) == 0
        diag = json.loads(js.read_text())["diagnostics"]
        assert 0.0 < diag["r_stiff_switch"] < 2.0 and diag["r_steps"] < 2000
        assert diag["r_newton"] > 0
        assert run("solve", *PARAMS, "--json", js) == 0
        diag = json.loads(js.read_text())["diagnostics"]
        assert diag["r_stiff_switch"] is None and diag["r_newton"] == 0 and diag["s_newton"] > 0


class TestTolerance:
    def test_default_tol_is_the_flag_default(self, tmp_path):
        reports = []
        for extra in ((), ("--tol", "1e-10")):
            js = tmp_path / "report.json"
            assert run("solve", *PARAMS, *extra, "--json", js) == 0
            reports.append(json.loads(js.read_text())["diagnostics"])
        assert reports[0] == reports[1]

    def test_looser_tol_takes_fewer_steps(self, tmp_path):
        steps = []
        for tol in ("1e-10", "1e-8"):
            js = tmp_path / "report.json"
            assert run("solve", *PARAMS, "--tol", tol, "--json", js) == 0
            steps.append(json.loads(js.read_text())["diagnostics"]["r_steps"])
        assert steps[1] < steps[0]

    def test_file_tol_matches_the_flag(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 3\nm = 0.2\nalpha = 2.5\nbeta = 1\neta = 1\ntol = 1e-8\n")
        js = tmp_path / "report.json"  # the report embeds its own path
        assert run("verify", "--config", cfgfile, "--json", js) == 0
        from_file = js.read_bytes()
        assert run("verify", *PARAMS, "--tol", "1e-8", "--json", js) == 0
        assert js.read_bytes() == from_file


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "n = 3\nm = 0.2\nalpha = 2.5\nbeta = 1\neta = 1\nr-max = 4  # comment\n"
        )
        js = tmp_path / "report.json"
        assert run("solve", "--config", cfgfile, "--json", js) == 0
        assert json.loads(js.read_text())["config"]["r_max"] == 4.0

    @pytest.mark.parametrize("line", ["kind = bogus", "r-maxx = 7", "alpha = two", "strict = maybe"])
    def test_bad_file_rejected_with_report(self, tmp_path, line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"n = 3\nm = 0.2\nalpha = 1.25\nbeta = 1\neta = 1\n{line}\n")
        js = tmp_path / "err.json"
        assert run("decay", "--config", cfgfile, "--json", js) == 2
        assert json.loads(js.read_text())["error"]["type"] == "ValueError"

    def test_error_report_embeds_file_values(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 3\nm = 0.2\nalpha = 6\nbeta = 1\neta = 1\n")
        js = tmp_path / "err.json"
        assert run("solve", "--config", cfgfile, "--json", js) == 2
        data = json.loads(js.read_text())
        assert data["error"]["type"] == "HypothesisViolation"
        assert {k: data["config"][k] for k in ("n", "m", "alpha", "beta", "eta")} == {
            "n": 3, "m": 0.2, "alpha": 6.0, "beta": 1.0, "eta": 1.0
        }

    def test_strict_from_file(self, tmp_path, capsys):
        # s_end = 8 leaves the power plateau short of converging
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 3\nm = 0.2\nalpha = 1.25\nbeta = 1\neta = 1\ns-end = 8\n")
        assert run("decay", "--config", cfgfile) == 0
        assert capsys.readouterr().err == ""
        cfgfile.write_text(cfgfile.read_text() + "strict = true\n")
        assert run("decay", "--config", cfgfile) == 3
        assert capsys.readouterr().err == "fdprofiles: decay failed: the estimate did not converge\n"

    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 3\nm = 0.2\nalpha = 2.5\nbeta = 1\neta = 1\n")
        js = tmp_path / "report.json"
        assert run("solve", "--config", cfgfile, "--alpha", 1.25, "--json", js) == 0
        data = json.loads(js.read_text())
        assert data["config"]["alpha"] == 1.25
        assert data["regime"] == "forward"


class TestDecay:
    def test_log_kind_report(self, tmp_path):
        js = tmp_path / "decay.json"
        code = run(
            "decay", "--n", 4, "--m", "0.333333333333", "--alpha", 3, "--beta", 1,
            "--eta", 1, "--s-end", 40, "--json", js,
        )
        assert code == 0
        d = json.loads(js.read_text())["decay"]
        assert d["expected"] == pytest.approx(6.0, rel=1e-9)
        assert d["rel_error_vs_expected"] < 0.01

    def test_power_kind_with_trace(self, tmp_path):
        js = tmp_path / "decay.json"
        trace = tmp_path / "trace.csv"
        code = run("decay", "--n", 3, "--m", 0.2, "--alpha", 1.25, "--beta", 1, "--eta", 1,
                   "--json", js, "--trace-out", trace)
        assert code == 0
        d = json.loads(js.read_text())["decay"]
        assert d["kind"] == "power"
        assert d["converged"] is True
        assert trace.read_text().splitlines()[0] == "scale,value"

    @pytest.mark.parametrize("alpha, s_end, need", [
        (2.5, 10, "need at least 20"),  # log-corrected trace
        (1.25, 5, "need at least three decades"),  # power plateau
    ])
    def test_short_chart_is_rejected_before_the_solve(self, monkeypatch, tmp_path, alpha, s_end, need):
        solves = []
        monkeypatch.setattr(cli, "solve_profile", lambda *a: solves.append(a) or solve_profile(*a))
        js = tmp_path / "err.json"
        args = ("--n", 3, "--m", 0.2, "--alpha", alpha, "--beta", 1, "--eta", 1)
        assert run("decay", *args, "--s-end", s_end, "--json", js) == 2
        assert solves == []
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "HypothesisViolation" and need in err["message"]
        assert run("decay", *args) == 0
        assert len(solves) == 1

    def test_endpoint_is_rejected_before_the_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "solve_profile", lambda *a: solves.append(a) or solve_profile(*a))
        assert run("decay", "--n", 3, "--m", 1 / 3, "--alpha", 3, "--beta", 1, "--eta", 1, "--s-end", 25) == 2
        assert solves == []


class TestVerify:
    def test_all_invariants_in_report(self, tmp_path):
        js = tmp_path / "verify.json"
        assert run("verify", *PARAMS, "--json", js) == 0
        inv = json.loads(js.read_text())["invariants"]
        assert inv["overall"] is True
        names = {e["name"] for e in inv["entries"]}
        assert {"dv_sign", "h1_positive", "flux_identity", "q_identity"} <= names

    def test_strict_failure_names_the_failing_entries(self, monkeypatch, capsys, tmp_path):
        def failing(sol):
            entries = run_all_checks(sol).entries
            return InvariantReport.collect(
                dataclasses.replace(e, passed=False) if e.name in ("flux_identity", "q_identity") else e
                for e in entries
            )

        monkeypatch.setattr(invariants, "run_all_checks", failing)
        js = tmp_path / "verify.json"
        assert run("verify", *PARAMS, "--strict", "--json", js) == 3
        assert capsys.readouterr().err == "fdprofiles: verify failed: flux_identity, q_identity\n"
        # the report is the verdict itself, with no error entry
        data = json.loads(js.read_text())
        assert "error" not in data and data["invariants"]["overall"] is False


class TestLimit:
    def test_report_fields(self, tmp_path):
        js = tmp_path / "limit.json"
        code = run("limit", "--n", 3, "--alpha", 1, "--beta", 1, "--eta", 1,
                   "--m-list", "0.2 0.1 0.05", "--json", js)
        assert code == 0
        lim = json.loads(js.read_text())["limit"]
        assert lim["monotone"] is True
        assert len(lim["sup_errors"]) == 3

    def test_defaults_come_from_the_library(self, tmp_path):
        js = tmp_path / "limit.json"
        assert run("limit", "--n", 3, "--alpha", 1, "--beta", 1, "--eta", 1, "--json", js) == 0
        lim = json.loads(js.read_text())["limit"]
        cr = limit_convergence(3, 1.0, 1.0, 1.0)
        assert lim["m_values"] == list(cr.m_values)
        assert lim["sup_errors"] == list(cr.sup_errors)
        assert lim["r_max"] == cr.r_max


    @pytest.mark.parametrize("r_max", ["inf", "nan", 0, -1])
    def test_r_max_that_is_not_finite_and_positive_is_rejected_before_the_solve(self, monkeypatch, tmp_path, r_max):
        monkeypatch.setattr(loglimit, "integrate_r", lambda *a: pytest.fail("limit solved before its check"))
        js = tmp_path / "err.json"
        assert run("limit", "--n", 3, "--alpha", 1, "--beta", 1, "--eta", 1, "--r-max", r_max, "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("r_max must be finite and positive")

    def test_empty_m_list_is_a_json_error(self, tmp_path):
        js = tmp_path / "err.json"
        assert run("limit", "--n", 3, "--alpha", 1, "--beta", 1, "--eta", 1, "--m-list", "", "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert "m_list" in err["message"]


class TestPdeCheck:
    def test_eternal_report(self, tmp_path):
        js = tmp_path / "pde.json"
        assert run("pde-check", *PARAMS, "--json", js) == 0
        pde = json.loads(js.read_text())["pde"]
        assert pde["regime"] == "eternal"
        assert pde["max_rel_residual"] < 1e-5

    def test_generic_rejected(self):
        assert run("pde-check", "--n", 3, "--m", 0.2, "--alpha", 0.7, "--beta", 1, "--eta", 1) == 2

    def test_classifies_like_the_library_builds(self, tmp_path):
        # off the eternal relation by 2.5e-11 relative: within REGIME_TOL, the one
        # tolerance both the CLI and build_selfsimilar classify with
        js = tmp_path / "pde.json"
        args = ("--n", 3, "--m", 0.2, "--alpha", "2.500000000125", "--beta", 1, "--eta", 1)
        assert run("pde-check", *args, "--json", js) == 0
        pde = json.loads(js.read_text())["pde"]
        assert pde["regime"] == "eternal"
        assert pde["max_rel_residual"] < 1e-5

    def test_report_names_one_regime(self, tmp_path):
        js = tmp_path / "pde.json"
        args = ("--n", 3, "--m", 0.2, "--alpha", "2.500000000125", "--beta", 1, "--eta", 1)
        assert run("pde-check", *args, "--json", js) == 0
        data = json.loads(js.read_text())
        assert data["regime"] == data["pde"]["regime"] == "eternal"


    @pytest.mark.parametrize("flag, value", [("--h", 0), ("--h", -1e-3), ("--dt", -1)])
    def test_step_that_is_not_positive_is_a_json_error(self, tmp_path, flag, value):
        js = tmp_path / "err.json"
        assert run("pde-check", *PARAMS, flag, value, "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{flag[2:]} must be finite and positive")

    @pytest.mark.parametrize("flag", ["--radii", "--times"])
    def test_empty_list_is_a_json_error(self, tmp_path, flag):
        js = tmp_path / "err.json"
        assert run("pde-check", *PARAMS, flag, "", "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{flag[2:]} is empty")

    BACKWARD = ("--n", 3, "--m", 0.2, "--alpha", 3.75, "--beta", 1, "--eta", 1, "--T", 2)

    @pytest.mark.parametrize("params, flag", [
        (PARAMS, ("--h", 0)), (PARAMS, ("--dt", -1)), (PARAMS, ("--radii", "")), (PARAMS, ("--times", "")),
        (BACKWARD, ("--T", -1)), (BACKWARD, ("--T", "inf")),
        (PARAMS, ("--radii", "nan")), (PARAMS, ("--radii", "1 -2")), (PARAMS, ("--times", "nan")),
        (BACKWARD, ("--times", "1.9995")),
    ])
    def test_bad_stencil_is_rejected_before_the_solve(self, monkeypatch, params, flag):
        solves = []
        monkeypatch.setattr(cli, "solve_profile", lambda *a: solves.append(a) or solve_profile(*a))
        assert run("pde-check", *params, *flag) == 2
        assert solves == []
        assert run("pde-check", *params) == 0
        assert len(solves) == 1

    def test_defaults_come_from_the_library(self, tmp_path):
        js = tmp_path / "pde.json"
        assert run("pde-check", *PARAMS, "--json", js) == 0
        pde = json.loads(js.read_text())["pde"]
        sol = solve_profile(Parameters(3, 0.2, 2.5, 1.0, 1.0), SolveConfig(r_max=4.0 * max(PDE_RADII)))
        stats = pde_residual(build_selfsimilar(sol, Regime.ETERNAL))
        assert (pde["h"], pde["dt"], pde["n_points"]) == (stats.h, stats.dt, stats.n_points)
        assert pde["max_rel_residual"] == stats.max_rel_residual


class TestOneTolerance:
    """Off the eternal relation by 2.5e-11 relative: every subcommand reads it as eternal."""

    ARGS = ("--n", 3, "--m", 0.2, "--alpha", "2.500000000125", "--beta", 1, "--eta", 1)

    def test_decay_is_log_corrected(self, tmp_path):
        js = tmp_path / "decay.json"
        assert run("decay", *self.ARGS, "--strict", "--json", js) == 0
        data = json.loads(js.read_text())
        assert data["decay"]["kind"] == "log-corrected"
        assert data["regime"] == "eternal" and data["hypotheses"]["log_decay_ok"] is True

    def test_verify_applies_the_q_identity(self, tmp_path):
        js = tmp_path / "verify.json"
        assert run("verify", *self.ARGS, "--strict", "--json", js) == 0
        entries = json.loads(js.read_text())["invariants"]["entries"]
        q = [e for e in entries if e["name"] == "q_identity"]
        assert len(q) == 1 and q[0]["applicable"] and q[0]["passed"]

    def test_regime_agrees_with_the_hypotheses(self, tmp_path):
        js = tmp_path / "solve.json"
        assert run("solve", *self.ARGS, "--json", js) == 0
        data = json.loads(js.read_text())
        assert data["regime"] == "eternal"
        assert data["hypotheses"]["log_decay_ok"] is True


class TestSweep:
    def test_summary_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--n-list", "3 4", "--m-list", 0.2, "--beta-list", 1,
                   "--alpha-list", "eternal", "--eta-list", 1, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,m,alpha,beta,eta,a0_expected,a0_measured")
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[5]) == pytest.approx(2.0, rel=1e-12)
        assert float(row[6]) == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("n", ["inf", "nan"])
    def test_dimension_that_is_not_finite_is_a_json_error(self, tmp_path, n):
        js = tmp_path / "err.json"
        assert run("sweep", "--n-list", n, "--m-list", 0.2, "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err == {"type": "ValueError", "message": f"dimension n must be an integer >= 3, got {n}"}

    def test_non_integer_dimension_rejected(self, tmp_path):
        js = tmp_path / "err.json"
        code = run("sweep", "--n-list", 3.7, "--m-list", 0.2, "--beta-list", 1,
                   "--alpha-list", "eternal", "--eta-list", 1, "--json", js)
        assert code == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert "integer" in err["message"]


    @pytest.mark.parametrize("flag", ["--n-list", "--m-list", "--beta-list", "--eta-list", "--alpha-list"])
    def test_empty_list_is_a_json_error(self, tmp_path, flag):
        js = tmp_path / "err.json"
        lists = {"--n-list": 3, "--m-list": 0.2, flag: ""}
        assert run("sweep", *(tok for item in lists.items() for tok in item), "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{flag} is empty")


class TestThinLayer:
    """Each report section is the library call's own result; each subcommand takes only the flags it reads."""

    def section(self, tmp_path, command, *args):
        js = tmp_path / f"{command}.json"
        assert run(command, *args, "--json", js) == 0
        return json.loads(js.read_text())

    def test_verify_is_the_invariant_report(self, tmp_path):
        rep = run_all_checks(solve_profile(Parameters(3, 0.2, 2.5, 1.0, 1.0)))
        assert self.section(tmp_path, "verify", *PARAMS)["invariants"] == _jsonable(rep)

    @pytest.mark.parametrize("alpha,estimate", [(2.5, estimate_log_decay), (1.25, estimate_power_decay)])
    def test_decay_is_the_estimate(self, tmp_path, alpha, estimate):
        est = estimate(solve_profile(Parameters(3, 0.2, alpha, 1.0, 1.0)))
        args = ("--n", 3, "--m", 0.2, "--alpha", alpha, "--beta", 1, "--eta", 1)
        assert self.section(tmp_path, "decay", *args)["decay"] == _jsonable(est)

    def test_limit_is_the_convergence_report(self, tmp_path):
        cr = limit_convergence(3, 1.0, 1.0, 1.0, m_list=(0.2, 0.1), r_max=5.0)
        args = ("--n", 3, "--alpha", 1, "--beta", 1, "--eta", 1, "--m-list", "0.2 0.1", "--r-max", 5)
        assert self.section(tmp_path, "limit", *args)["limit"] == _jsonable(cr)

    def test_pde_check_is_the_residual_stats(self, tmp_path):
        sol = solve_profile(Parameters(3, 0.2, 3.75, 1.0, 1.0), SolveConfig(r_max=20.0))
        stats = pde_residual(build_selfsimilar(sol, Regime.BACKWARD, T=2.0))
        args = ("--n", 3, "--m", 0.2, "--alpha", 3.75, "--beta", 1, "--eta", 1, "--r-max", 20, "--T", 2)
        pde = self.section(tmp_path, "pde-check", *args)["pde"]
        assert pde.pop("regime") == "backward"
        assert pde == _jsonable(stats)

    @pytest.mark.parametrize("command,flag", [
        ("limit", ("--m", 0.2)), ("limit", ("--tol", "1e-6")), ("limit", ("--s-end", 30)),
        ("limit", ("--override-hypotheses",)), ("solve", ("--strict",)), ("pde-check", ("--strict",)),
        ("sweep", ("--strict",)), ("solve", ("--override-hypotheses",)), ("verify", ("--override-hypotheses",)),
    ])
    def test_unread_flag_is_rejected(self, command, flag):
        args = ("--n", 3, "--alpha", 1, "--beta", 1, "--eta", 1) if command == "limit" else PARAMS
        with pytest.raises(SystemExit) as exc:
            run(command, *args, *flag)
        assert exc.value.code == 2

    def test_removed_override_file_key_is_rejected(self, tmp_path):
        cfgfile = tmp_path / "solve.cfg"
        cfgfile.write_text("n = 3\nm = 0.2\nalpha = 6\nbeta = 1\neta = 1\noverride-hypotheses = true\n")
        js = tmp_path / "err.json"
        assert run("solve", "--config", cfgfile, "--json", js) == 2
        assert json.loads(js.read_text())["error"] == {
            "type": "ValueError", "message": "unknown config key 'override-hypotheses'"
        }

    def test_unread_file_key_is_rejected(self, tmp_path):
        cfgfile = tmp_path / "limit.cfg"
        cfgfile.write_text("n = 3\nalpha = 1\nbeta = 1\neta = 1\ntol = 1e-8\n")
        js = tmp_path / "err.json"
        assert run("limit", "--config", cfgfile, "--json", js) == 2
        err = json.loads(js.read_text())["error"]
        assert err["type"] == "ValueError"
        assert "tol" in err["message"]


class TestOutdirEnv:
    def test_relative_paths_land_in_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FDPROFILES_OUTDIR", str(tmp_path))
        assert run("solve", *PARAMS, "--out", "rel.csv") == 0
        assert (tmp_path / "rel.csv").exists()


def _imported(*args) -> set[str]:
    """The modules a fresh ``python -X importtime *args`` imports past start-up."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "fdprofiles"}


class TestImportSet:
    """A process loads only the layers it runs (fresh interpreters)."""

    def test_package_import_loads_no_submodule(self):
        assert _package(_imported("-c", "import fdprofiles")) == {"fdprofiles"}

    def test_cli_import_loads_the_solver_layers_only(self):
        modules = _imported("-c", "import fdprofiles.cli")
        solver = {"errors", "model", "series", "rk", "integrate", "cli"}
        assert _package(modules) == {"fdprofiles", *(f"fdprofiles.{name}" for name in solver)}
        assert not {m for m in modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")}

    def test_solve_process_loads_no_analysis_layer(self):
        modules = _package(_imported("-m", "fdprofiles", "solve", *map(str, PARAMS)))
        analysis = {f"fdprofiles.{name}" for name in ("invariants", "decay", "loglimit", "selfsim")}
        assert "fdprofiles.integrate" in modules and not modules & analysis

    def test_eternal_solve_loads_no_chebyshev_rule(self, tmp_path):
        # the sigma = 0 tail places its nodes in closed form, with no interpolant
        js = tmp_path / "report.json"
        modules = _imported("-m", "fdprofiles", "solve", *map(str, PARAMS), "--json", str(js))
        assert json.loads(js.read_text())["diagnostics"]["qss_switch_s"] is not None
        assert not {m for m in modules if m.startswith("numpy.polynomial")}
