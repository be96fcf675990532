"""Command-line behavior: reports, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sltrans.cli as cli
from sltrans.eigensolve import SuspectedMissedRoot
from sltrans.problem import PiecewisePotential, ProblemSpec, problem_to_json
from conftest import make_canonical

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
        assert report["config"]["ode_tol"] == 1e-12
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
        for param in ("nonsense[0]", "alpha", "jumps[5]"):
            code, _, err = run_cli(
                ["sweep", "--problem", problem_file, "--param", param,
                 "--values", "1.0", "--nmax", "1"], capsys)
            assert code == 1, param
            assert "error:" in err

    def test_empty_values_rejected(self, problem_file, capsys):
        code, _, err = run_cli(
            ["sweep", "--problem", problem_file, "--param", "jumps[0]",
             "--values", " , ", "--nmax", "1"], capsys)
        assert code == 1
        assert "empty value list" in err

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

    def test_invalid_nmax(self, problem_file, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", problem_file, "--nmax", "0"], capsys)
        assert code == 1
        assert "n_max" in err

    def test_nonpositive_ode_tol(self, problem_file, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", problem_file, "--ode-tol", "0"], capsys)
        assert code == 1
        assert "ode_tol" in err

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
        (["solve", "--root-tol", "inf"], "tolerance root_tol must be finite"),
        (["solve", "--root-tol", "nan"], "tolerance root_tol must be finite"),
        (["solve", "--ode-tol", "nan"], "tolerance ode_tol must be finite"),
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
