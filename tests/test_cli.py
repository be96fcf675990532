"""Command-line behavior: reports, formats, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sltrans.cli as cli
from sltrans import asymptotics, propagator
from sltrans.eigensolve import SuspectedMissedRoot, bracket_scan
from sltrans.problem import PiecewisePotential, ProblemSpec, problem_to_json
from conftest import make_canonical, make_case1_linear

import oracles


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(make_canonical())))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_report(self, problem_file, capsys):
        code, out, err = run_cli(
            ["solve", "--problem", problem_file, "--nmax", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"config", "problem", "eigenvalues"}
        assert len(report["eigenvalues"]) == 4
        got = [row["s"] for row in report["eigenvalues"]]
        assert np.allclose(got, oracles.FROZEN_CANONICAL_S[:4], rtol=1e-10)
        assert report["config"]["command"] == "solve"
        assert "config:" in err

    def test_repeat_runs_are_byte_identical(self, problem_file, capsys):
        argv = ["solve", "--problem", problem_file, "--nmax", "3"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_csv_format(self, problem_file, capsys):
        code, out, _ = run_cli(
            ["solve", "--problem", problem_file, "--nmax", "3",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,n_formula,lambda,s,omega_prime,k_ratio"
        assert len(lines) == 4

    def test_out_file_and_eigenfunction_dump(self, problem_file, tmp_path,
                                             capsys):
        out_path = tmp_path / "report.json"
        dump_dir = tmp_path / "funcs"
        code, out, _ = run_cli(
            ["solve", "--problem", problem_file, "--nmax", "2",
             "--out", str(out_path), "--dump-eigenfunctions", str(dump_dir)],
            capsys)
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert len(report["eigenvalues"]) == 2
        for n in range(2):
            csv_lines = (dump_dir / f"eigenfunction_{n}.csv").read_text().splitlines()
            assert csv_lines[0] == "x,u,du"
            assert len(csv_lines) > 100


# Two healthy problems on which a least-squares log-log slope over n = 5..25
# failed the asymptotics check: on the first, case 1, n^2|s_n - s_second|
# oscillates with a period of about 4 in n (slope_second read +0.263); on
# the second, n|s_n - s_first| still rises towards its limit (slope_first
# read +0.316).
CASE1_OSCILLATING = {
    "alpha": ["-0.9535514630027344", "-1.7213386108914204"],
    "beta": ["-0.30886130691948877", "0.5327375970964656"],
    "beta_prime": ["0.978735423448617", "-0.7354378388596163"],
    "interfaces": ["0.7478975239898826"], "jumps": ["-1.4460592139526112"],
    "potential": {"kind": "piecewise", "pieces": [
        {"kind": "polynomial",
         "coeffs": ["-1.8764845816794116", "-0.9242360065696014", "0.06639584141746235"]},
        {"kind": "polynomial",
         "coeffs": ["1.6533836548361371", "-1.0911203963077538", "2.5453013790409447",
                    "-0.1745406875054547"]}]},
}
CONSTANT_RISING = {
    "alpha": ["0.9099363209634523", "-0.69323100150693"],
    "beta": ["1.6445015640133742", "1.0107803456841866"],
    "beta_prime": ["0.2272500784985919", "-0.35338690372226617"],
    "interfaces": ["-0.578610523715992", "0.5970938300590574", "0.7619705319194539"],
    "jumps": ["-1.850891987003962", "2.3628450677850252", "2.2555103745563496"],
    "potential": {"kind": "constant", "value": "-2.155604761088279"},
}
# A healthy problem (the benchmark's poly-expand pool spec 3) whose error
# envelope is still pre-asymptotic over the first 25 roots: the check reads
# +0.148 over 25 roots and -0.026 over 64.
POLY_PRE_ASYMPTOTIC = {
    "alpha": ["1.2606218498883994", "0.0"],
    "beta": ["1.6979484800245652", "0.9171543965463238"],
    "beta_prime": ["1.2557323456556955", "0.0"],
    "interfaces": ["-0.47760837274528467"], "jumps": ["-0.9953026794488559"],
    "potential": {"kind": "piecewise", "pieces": [
        {"kind": "polynomial",
         "coeffs": ["-1.0757071942576943", "2.2508636599862246", "0.7287057942795281",
                    "-0.7358297859969358"]},
        {"kind": "polynomial",
         "coeffs": ["0.4519742307276218", "-0.23349074699677175", "-0.6682163188253751"]}]},
}


def verify_asymptotics(problem, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(["verify", "--problem", str(path), "--checks", "asymptotics"],
                             capsys)
    return code, json.loads(out)["results"][0], err


class TestVerify:
    def test_subset_of_checks_passes(self, problem_file, capsys):
        code, out, err = run_cli(
            ["verify", "--problem", problem_file, "--checks", "chain,greens",
             "--nmax", "3", "--seed", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [r["check"] for r in report["results"]] == ["chain", "greens"]
        assert "chain: pass" in err

    def test_same_seed_reproduces_bytes(self, problem_file, capsys):
        argv = ["verify", "--problem", problem_file, "--checks", "greens",
                "--nmax", "2", "--seed", "11"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_unknown_check_name(self, problem_file, capsys):
        code, _, err = run_cli(
            ["verify", "--problem", problem_file, "--checks", "nonsense"],
            capsys)
        assert code == 1
        assert "unknown check" in err

    def test_delta_invariance_runs_on_zero_potential(self, problem_file,
                                                     capsys):
        code, out, _ = run_cli(
            ["verify", "--problem", problem_file,
             "--checks", "delta-invariance", "--nmax", "4"], capsys)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["status"] == "pass"
        assert result["measured"] <= 1e-10

    def test_delta_invariance_runs_on_variable_potential(self, tmp_path, capsys):
        # The jumps scale u and u' alike, so no q lets them move an eigenvalue.
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(problem_to_json(make_case1_linear())))
        code, out, err = run_cli(
            ["verify", "--problem", str(path), "--checks", "delta-invariance",
             "--nmax", "4"], capsys)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert (result["status"], result["count"]) == ("pass", 4)
        assert result["measured"] <= 1e-10
        assert "delta-invariance: pass" in err

    def test_delta_invariance_skips_a_problem_without_interfaces(self, tmp_path, capsys):
        spec = dataclasses.replace(make_case1_linear(), interfaces=(), jumps=(),
                                   potential=PiecewisePotential.polynomial((1.0, 1.0)))
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(problem_to_json(spec)))
        code, out, _ = run_cli(
            ["verify", "--problem", str(path), "--checks", "delta-invariance"], capsys)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert (result["status"], result["reason"]) == ("skipped", "no interfaces")
        # In CSV the skipped check's measured and threshold cells are empty.
        code, out, _ = run_cli(
            ["verify", "--problem", str(path), "--checks", "delta-invariance,chain",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:2] == ["check,status,measured,threshold", "delta-invariance,skipped,,"]
        assert lines[2].startswith("chain,pass,")


    def test_asymptotics_check_passes_in_case_2(self, tmp_path, capsys):
        # beta_2' != 0, alpha_2 = 0 and int q != 0: the second-order
        # formula carries int q / 2 with the sign of cases 1, 3 and 4
        spec = ProblemSpec(
            potential=PiecewisePotential.polynomial((1.0, 1.0)),
            interfaces=(0.2,), jumps=(1.5,),
            alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.3))
        path = tmp_path / "case2.json"
        path.write_text(json.dumps(problem_to_json(spec)))
        code, out, err = run_cli(
            ["verify", "--problem", str(path), "--checks", "asymptotics",
             "--nmax", "45"], capsys)
        assert code == 0, err
        result = json.loads(out)["results"][0]
        assert result["status"] == "pass"

    @pytest.mark.parametrize("problem, slopes", [
        (CASE1_OSCILLATING, (-0.097, -0.153)),
        (CONSTANT_RISING, (-0.004, -1.149)),
        (POLY_PRE_ASYMPTOTIC, (-0.042, -0.026)),
    ], ids=["case1-oscillating", "constant-rising", "poly-pre-asymptotic"])
    def test_asymptotics_check_reads_the_envelope(self, problem, slopes, tmp_path, capsys):
        code, result, err = verify_asymptotics(problem, tmp_path, capsys)
        assert code == 0, err
        assert result["status"] == "pass"
        assert (result["slope_first"], result["slope_second"]) == pytest.approx(slopes, abs=1e-3)

    def test_asymptotics_check_fails_a_first_order_second_estimate(self, tmp_path, capsys,
                                                                   monkeypatch):
        # negative control: with s_first standing in for s_second,
        # n^2|s_n - s_second| grows like n and the check must fail
        estimate = asymptotics.eigenvalue_estimate

        def first_order_only(*args, **kwargs):
            est = estimate(*args, **kwargs)
            return dataclasses.replace(est, s_second=est.s_first)

        monkeypatch.setattr(asymptotics, "eigenvalue_estimate", first_order_only)
        code, result, _ = verify_asymptotics(CASE1_OSCILLATING, tmp_path, capsys)
        assert code == 1
        assert result["status"] == "fail"
        assert result["slope_second"] == pytest.approx(0.958, abs=0.01)

    def test_orthogonality_and_norm_identity_checks(self, problem_file, capsys):
        code, out, err = run_cli(
            ["verify", "--problem", problem_file, "--checks", "orthogonality,norm-identity",
             "--nmax", "6"], capsys)
        assert code == 0, err
        ortho, norm = json.loads(out)["results"]
        assert (ortho["check"], ortho["status"]) == ("orthogonality", "pass")
        assert (norm["check"], norm["status"]) == ("norm-identity", "pass")
        assert ortho["count"] == 6
        assert ortho["diagonal_error"] <= 1e-6
        assert norm["jump_scaled_variant"] >= 0.0
        assert norm["substitution"] >= 0.0

    @pytest.mark.parametrize("check", ["orthogonality", "norm-identity"])
    def test_check_reads_the_same_roots_with_asymptotics(self, check, tmp_path, capsys):
        # On variable q a root's bits depend on the batch it is solved in:
        # the check takes its own --nmax roots, not the first of the 64
        # that asymptotics solves.
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(problem_to_json(make_case1_linear())))
        measured = []
        for checks in (check, check + ",asymptotics"):
            code, out, err = run_cli(["verify", "--problem", str(path), "--checks", checks,
                                      "--nmax", "8"], capsys)
            assert code == 0, err
            measured.append(json.loads(out)["results"][0]["measured"])
        assert measured[0] == measured[1]


class TestSweep:
    def test_jump_sweep_leaves_spectrum_alone(self, problem_file, capsys):
        code, out, _ = run_cli(
            ["sweep", "--problem", problem_file, "--param", "jumps[0]",
             "--values", "0.5,2.0", "--nmax", "3"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        by_value = {}
        for r in rows:
            assert r["error"] is None
            by_value.setdefault(r["param_value"], []).append(r["lambda"])
        lam_a, lam_b = by_value[0.5], by_value[2.0]
        assert np.allclose(lam_a, lam_b, rtol=1e-9)

    def test_constant_potential_sweep_shifts_monotonically(self, problem_file,
                                                           capsys):
        code, out, _ = run_cli(
            ["sweep", "--problem", problem_file, "--param", "potential",
             "--values", "0,1,2", "--nmax", "3"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        for n in range(3):
            lams = [r["lambda"] for r in rows if r["n"] == n]
            assert len(lams) == 3
            assert lams[0] < lams[1] < lams[2]

    def test_bad_parameter_paths(self, problem_file, capsys):
        for param, message in (("nonsense[0]", "unknown parameter field"),
                               ("alpha", "needs an index"),
                               ("jumps[5]", "out of range"),
                               ("jumps[", "cannot parse parameter path"),
                               ("potential[0]", "potential path takes no index")):
            code, _, err = run_cli(
                ["sweep", "--problem", problem_file, "--param", param,
                 "--values", "1.0", "--nmax", "1"], capsys)
            assert code == 1, param
            assert "error:" in err and message in err, param

    def test_empty_values_rejected(self, problem_file, capsys):
        code, _, err = run_cli(
            ["sweep", "--problem", problem_file, "--param", "jumps[0]",
             "--values", " , ", "--nmax", "1"], capsys)
        assert code == 1
        assert "empty value list" in err

    def test_unparsable_value_rejected(self, problem_file, capsys):
        code, out, err = run_cli(
            ["sweep", "--problem", problem_file, "--param", "jumps[0]",
             "--values", "1,x", "--nmax", "1"], capsys)
        assert (code, out) == (1, "")
        assert "bad sweep value" in err

    def test_invalid_value_rows_are_reported_not_fatal(self, problem_file,
                                                       capsys):
        # jump 0 is structurally invalid; the row carries the error
        code, out, _ = run_cli(
            ["sweep", "--problem", problem_file, "--param", "jumps[0]",
             "--values", "1.0,0.0", "--nmax", "2"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        good = [r for r in rows if r["error"] is None]
        bad = [r for r in rows if r["error"] is not None]
        assert len(good) == 2 and len(bad) == 1
        assert bad[0]["param_value"] == 0.0


class TestExpand:
    def test_eigenfunction_target_gives_unit_vector(self, problem_file,
                                                    tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "eigenfunction", "n": 2}))
        code, out, _ = run_cli(
            ["expand", "--problem", problem_file, "--target", str(target),
             "--nmax", "6"], capsys)
        assert code == 0
        report = json.loads(out)
        coeffs = np.array(report["coefficients"])
        want = np.zeros(6)
        want[2] = 1.0
        assert np.allclose(coeffs, want, atol=1e-9)
        assert report["residuals"][-1] <= 1e-8
        assert report["parseval_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_polynomial_target_csv(self, problem_file, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"kind": "polynomial", "coeffs": [0.3, -0.4, 1.0], "f1": 0.6}))
        code, out, _ = run_cli(
            ["expand", "--problem", problem_file, "--target", str(target),
             "--nmax", "5", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,coefficient,residual"
        assert len(lines) == 6

    @pytest.mark.parametrize("text, message", [
        (None, "target file not found"),
        ("{not json", "target file is not valid JSON"),
    ], ids=["missing", "not-json"])
    def test_unreadable_target_file(self, problem_file, tmp_path, capsys, text, message):
        target = tmp_path / "target.json"
        if text is not None:
            target.write_text(text)
        code, out, err = run_cli(
            ["expand", "--problem", problem_file, "--target", str(target),
             "--nmax", "2"], capsys)
        assert (code, out) == (1, "")
        assert message in err

    def test_unknown_target_kind(self, problem_file, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "wavelet"}))
        code, _, err = run_cli(
            ["expand", "--problem", problem_file, "--target", str(target),
             "--nmax", "2"], capsys)
        assert code == 1
        assert "unknown target kind" in err

    def test_eigenfunction_target_beyond_nmax(self, problem_file, tmp_path,
                                              capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "eigenfunction", "n": 9}))
        code, _, err = run_cli(
            ["expand", "--problem", problem_file, "--target", str(target),
             "--nmax", "3"], capsys)
        assert code == 1
        assert "nmax" in err

    @pytest.mark.parametrize("target, message", [
        (3, "JSON object"),
        (["bump"], "JSON object"),
        ({"kind": "bump", "halfwidth": 0.3}, "'center'"),
        ({"kind": "bump", "center": -0.2}, "'halfwidth'"),
        ({"kind": "polynomial", "coeffs": ["abc"]}, "bad polynomial target"),
        ({"kind": "polynomial", "coeffs": 5}, "bad polynomial target"),
        ({"kind": "eigenfunction", "n": -1}, "non-negative integer"),
        ({"kind": "eigenfunction", "n": 1.5}, "non-negative integer"),
        ({"kind": "eigenfunction", "n": "1"}, "non-negative integer"),
        ({"kind": "eigenfunction"}, "non-negative integer"),
        ({"kind": "eigenfunction", "n": 3}, "needs nmax > 3"),
        ({"kind": "bump", "center": float("nan"), "halfwidth": 0.3},
         "center must be finite"),
        ({"kind": "bump", "center": 0.1, "halfwidth": float("inf")},
         "halfwidth must be finite"),
        ({"kind": "bump", "center": 0.1, "halfwidth": 0.3,
          "amplitude": float("-inf")}, "amplitude must be finite"),
        ({"kind": "polynomial", "coeffs": [1.0, float("nan")]},
         "coeffs must be finite"),
        ({"kind": "polynomial", "f1": float("inf")}, "f1 must be finite"),
        ({"kind": "scalar", "f1": float("nan")}, "f1 must be finite"),
    ], ids=["number", "list", "no-center", "no-halfwidth", "text-coeff",
            "coeffs-not-list", "negative-index", "fractional-index",
            "string-index", "no-index", "index-beyond-nmax", "nan-center",
            "infinite-halfwidth", "infinite-amplitude", "nan-coeff",
            "infinite-polynomial-f1", "nan-scalar"])
    def test_malformed_target_is_a_config_error(self, problem_file, tmp_path,
                                                capsys, monkeypatch, target,
                                                message):
        # The target is checked before the solve, so a bad one costs none.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the target was checked")

        monkeypatch.setattr(cli, "find_eigenvalues", no_solve)
        path = tmp_path / "target.json"
        # Python's json writes and reads NaN and Infinity.
        path.write_text(json.dumps(target))
        code, out, err = run_cli(
            ["expand", "--problem", problem_file, "--target", str(path),
             "--nmax", "3"], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("error: ")
        assert message in err


class TestScan:
    def test_json_brackets_cover_known_roots(self, problem_file, capsys):
        code, out, _ = run_cli(
            ["scan", "--problem", problem_file, "--smax", "5.0"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["brackets"]) == 4
        assert report["suspicious"] == []
        for (lo, hi), s in zip(report["brackets"], oracles.FROZEN_CANONICAL_S):
            assert lo < s * s < hi

    def test_csv_columns(self, problem_file, capsys):
        code, out, _ = run_cli(
            ["scan", "--problem", problem_file, "--smax", "3.0",
             "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "lambda,s_if_nonneg,omega,omega1,omega2,chain_residual_max"

    def test_csv_stdout_matches_out_file(self, problem_file, tmp_path, capsys):
        argv = ["scan", "--problem", problem_file, "--smax", "3.0",
                "--format", "csv"]
        path = tmp_path / "scan.csv"
        _, out, _ = run_cli(argv, capsys)
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        assert out.encode() == path.read_bytes()

    def test_one_forward_chain_gives_the_brackets(self, tmp_path, capsys, monkeypatch):
        # The brackets come from omega_samples' omega values, so phi's
        # forward chain crosses the grid once, and chi's backward chain once.
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(problem_to_json(make_case1_linear())))
        calls = []
        original = propagator.endpoint_chain

        def counting(*args, **kwargs):
            calls.append(kwargs.get("backward", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(propagator, "endpoint_chain", counting)
        code, out, _ = run_cli(["scan", "--problem", str(path), "--smax", "8.0"], capsys)
        assert code == 0
        assert sorted(calls) == [False, True]
        monkeypatch.undo()
        scan = bracket_scan(make_case1_linear(), 8.0)
        assert json.loads(out)["brackets"] == [list(b) for b in scan.brackets]


class TestFailureModes:
    def test_missing_problem_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert "not found" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["solve", "--problem", str(path)], capsys)
        assert code == 1
        assert "JSON" in err

    def test_missing_key_named_in_message(self, tmp_path, capsys):
        path = tmp_path / "incomplete.json"
        obj = problem_to_json(make_canonical())
        del obj["jumps"]
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(["solve", "--problem", str(path)], capsys)
        assert code == 1
        assert "jumps" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: 3, "JSON object"),
        (lambda obj: {**obj, "potential": {"kind": "piecewise", "pieces": [3]}},
         "must be an object"),
        (lambda obj: {**obj, "potential": {"kind": "constant"}}, "'value'"),
        (lambda obj: {**obj, "potential": {"kind": "piecewise"}}, "'pieces'"),
        (lambda obj: {**obj, "interfaces": 5}, "must hold a list"),
        (lambda obj: {**obj, "potential": {"kind": "constant", "value": "abc"}},
         "'abc'"),
        (lambda obj: {**obj, "potential": {"kind": "sampled", "x": [-0.2, 0.05, 0.3],
                                           "values": [-3.0, 1.0, -8.0]}},
         "does not cover its subinterval [-1.0, 0.0]"),
    ], ids=["top-level-number", "piece-not-object", "missing-value",
            "missing-pieces", "interfaces-not-list", "text-value", "grid-short"])
    def test_malformed_problem_is_an_invalid_problem(self, tmp_path, capsys,
                                                     edit, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edit(problem_to_json(make_canonical()))))
        code, out, err = run_cli(["solve", "--problem", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("invalid problem: ")
        assert message in err

    def test_invalid_nmax(self, problem_file, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", problem_file, "--nmax", "0"], capsys)
        assert code == 1
        assert "n_max" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("solve", "--ode-tol", "1e-10"), ("solve", "--root-tol", "1e-10"),
        ("solve", "--seed", "1"), ("scan", "--nmax", "3")],
        ids=["--ode-tol", "--root-tol", "solve --seed", "scan --nmax"])
    def test_tolerance_flags_are_unrecognized(self, problem_file, capsys, command,
                                              flag, value):
        code, out, err = run_cli(
            [command, "--problem", problem_file, flag, value], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {flag} {value}\n"

    def test_suspected_missed_root_exits_two(self, problem_file, capsys,
                                             monkeypatch):
        def boom(*a, **k):
            raise SuspectedMissedRoot("planted")

        monkeypatch.setattr(cli, "find_eigenvalues", boom)
        code, _, err = run_cli(
            ["solve", "--problem", problem_file, "--nmax", "2"], capsys)
        assert code == 2
        assert "planted" in err

    @pytest.mark.parametrize("argv, field, value", [
        (["scan", "--smax", "3.0", "--floor", "-1e-3"], "lam_floor", -1e-3),
        (["sweep", "--param", "potential", "--values", "-0.5,1", "--nmax", "2"],
         "values", [-0.5, 1.0]),
    ])
    def test_negative_exponent_and_list_values_parse(self, problem_file, capsys,
                                                     argv, field, value):
        code, out, err = run_cli(
            [argv[0], "--problem", problem_file, *argv[1:]], capsys)
        assert code == 0, err
        assert json.loads(out)["config"][field] == value

    def test_option_missing_its_value_still_rejected(self, problem_file, capsys):
        code, _, err = run_cli(
            ["scan", "--problem", problem_file, "--floor"], capsys)
        assert code == 1
        assert "expected one argument" in err

    def test_unknown_subcommand(self, problem_file, capsys):
        code, _, _ = run_cli(["dance", "--problem", problem_file], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--smax", "0"], "s_max must be finite and positive"),
        (["scan", "--smax", "-1"], "s_max must be finite and positive"),
        (["scan", "--smax", "nan"], "s_max must be finite and positive"),
        (["scan", "--smax", "inf"], "s_max must be finite and positive"),
        (["scan", "--floor", "5"], "lam_floor must be finite and negative"),
        (["scan", "--floor", "0"], "lam_floor must be finite and negative"),
        (["scan", "--floor=-inf"], "lam_floor must be finite and negative"),
        (["verify", "--seed", "-1"], "seed must be non-negative"),
    ])
    def test_out_of_range_numbers_are_config_errors(self, problem_file, capsys,
                                                    argv, message):
        code, out, err = run_cli(
            [argv[0], "--problem", problem_file, *argv[1:]], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_console_script_smoke(problem_file, tmp_path):
    """The ``sltrans`` script declared in pyproject.toml runs ``main`` in a
    separate process, launched the way pip's generated wrapper does, against
    the package under test rather than whatever ``sltrans`` is on PATH."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    import sltrans

    package_parent = Path(sltrans.__file__).resolve().parents[1]
    pyproject = package_parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    entry = scripts.get("sltrans")
    assert entry == "sltrans.cli:main"
    module, _, attr = entry.partition(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher,
         "solve", "--problem", problem_file, "--nmax", "2"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["eigenvalues"]) == 2, proc.stderr
