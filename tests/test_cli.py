"""End-to-end CLI: solve/rates/verify, config files, exit codes."""

import json
import time
from types import SimpleNamespace

import pytest

from holder_vi import cli
from holder_vi.cli import build_parser, main, parse_echo

TRACE_HEADER = ("k,i_k,H_k,gamma_k,step_norm,F_evals_cum,J_evals_cum,"
                "subproblems_cum,gap_point,gap_avg,wall_ns")


def solve_args(outdir, *extra):
    return ["solve", "--problem", "power:d=3,nu=1,r=1", "--method", "nu-ren",
            "--H", "auto", "--K", "10", "--out", str(outdir), *extra]


def read_trace(path):
    comments, rows = [], []
    for ln in path.read_text().splitlines():
        (comments if ln.startswith("#") else rows).append(ln)
    return comments, rows


def strip_wall(rows):
    return [",".join(r.split(",")[:-1]) for r in rows]


# -------------------------------------------------------------------- solve

def test_solve_writes_trace_and_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(solve_args(tmp_path)) == 0
    comments, rows = read_trace(tmp_path / "trace.csv")
    assert rows[0] == TRACE_HEADER
    assert len(rows) == 11
    assert comments[0] == "# [problem]"
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["problem"] == "power:d=3,nu=1.0,r=1.0"
    assert payload["method"] == "nu-ren"
    assert payload["K"] == 10
    assert payload["iterations"] == 10
    env = payload["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None
    assert set(env) == {"python", "numpy", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert payload["final_gap"] >= 0.0
    assert set(payload["counters"]) == {"F_evals", "J_evals", "D_evals",
                                        "subproblems"}
    assert set(payload["bound_checks"]) == {"C_nu", "H_bound", "oracle_budget",
                                            "universal_cap"}


def test_solve_is_deterministic_up_to_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(solve_args(a)) == 0
    assert main(solve_args(b)) == 0
    ca, ra = read_trace(a / "trace.csv")
    cb, rb = read_trace(b / "trace.csv")
    assert ca == cb  # echo carries no output path
    assert strip_wall(ra) == strip_wall(rb)


def test_echo_round_trip_reproduces_the_run(tmp_path):
    first = tmp_path / "first"
    assert main(solve_args(first)) == 0
    comments, _ = read_trace(first / "trace.csv")
    ini = tmp_path / "replay.ini"
    ini.write_text("\n".join(c[2:] for c in comments) + "\n")

    second = tmp_path / "second"
    assert main(["solve", "--config", str(ini), "--out", str(second)]) == 0
    _, ra = read_trace(first / "trace.csv")
    _, rb = read_trace(second / "trace.csv")
    assert strip_wall(ra) == strip_wall(rb)


def test_parse_echo_recovers_resolved_settings(tmp_path):
    assert main(solve_args(tmp_path)) == 0
    echo = parse_echo(tmp_path / "trace.csv")
    assert echo["problem"] == "power:d=3,nu=1.0,r=1.0"
    assert echo["solver"]["method"] == "nu-ren"
    assert echo["solver"]["K"] == 10
    assert echo["solver"]["H"] == pytest.approx(2.0, rel=1e-9)
    assert echo["solver"]["step"] is None  # unset keys echo as empty


def test_cli_flag_overrides_config_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nfamily = power\nd = 3\n"
                   "[solver]\nmethod = nu-ren\nH = auto\nK = 5\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ini), "--K", "7",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["K"] == 7


def test_output_dir_from_config_file(tmp_path):
    out = tmp_path / "from-file"
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nfamily = power\n"
                   "[solver]\nmethod = extragradient\nK = 4\n"
                   f"[output]\ndir = {out}\n")
    assert main(["solve", "--config", str(ini)]) == 0
    assert (out / "trace.csv").exists()


def test_universal_run_reports_early_exit(tmp_path):
    assert main(["solve", "--problem", "power:d=3", "--method", "uren",
                 "--H0", "1", "--K", "50", "--eps", "1e-4",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["method"] == "uren"
    if payload["early_exit"] is not None:
        assert payload["early_exit"]["gap"] <= 1e-4


# --------------------------------------------------------------- exit codes

def test_unknown_problem_family_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "cubic", "--method", "nu-ren",
               "--H", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert "cubic" in capsys.readouterr().err


def test_missing_required_constant_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "power:d=3", "--method", "nu-ren",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "H" in capsys.readouterr().err


@pytest.mark.parametrize("method", [["--method", "nu-aren"],
                                    ["--method", "nu-aret", "--p", "3"]],
                         ids=["order2", "order3"])
def test_auto_start_from_a_zero_constant_is_config_error(tmp_path, capsys, method):
    # bilinear declares H = H_3 = 0, so no conforming start exists at either order
    rc = main(["solve", "--problem", "bilinear:d=4", *method, "--H0", "auto",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "declared constant of bilinear" in capsys.readouterr().err


def test_nonpositive_k_is_config_error(tmp_path):
    assert main(solve_args(tmp_path, "--K", "0")) == 3


def test_order_three_bills_one_second_derivative_per_newton_jacobian(tmp_path):
    # each Newton Jacobian of an order-3 model is one D2F call, not d of them
    # (4,632 calls when the d=64 columns were billed one by one)
    assert main(["solve", "--problem", "quartic:d=64", "--method", "nu-aret",
                 "--p", "3", "--H0", "auto", "--K", "10", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["counters"]["D_evals"] == 222


@pytest.mark.parametrize("extra", [
    ["--seed", "-1"], ["--eps", "inf"], ["--inner-tol", "inf"],
    ["--problem", "quartic:d=4,seed=-1"], ["--problem", "bilinear:d=4,seed=-1"],
    ["--problem", "bilinear:d=4,scale=nan"], ["--problem", "power:d=3,r=inf"],
])
def test_bad_outside_input_is_config_error(tmp_path, capsys, extra):
    assert main(solve_args(tmp_path, *extra)) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "summary.json").exists()


def test_order_on_second_order_method_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "quartic:d=4", "--method", "nu-aren",
               "--H0", "auto", "--p", "3", "--K", "10", "--out", str(tmp_path)])
    assert rc == 3
    assert "p must be 2" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_order_above_three_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "quartic:d=4", "--method", "nu-aret",
               "--p", "4", "--H0", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert "p must be 2 or 3" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_order_three_without_derivative_oracle_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "power:d=5", "--method", "nu-aret",
               "--p", "3", "--H0", "1", "--K", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "no derivative oracle" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_missing_method_is_config_error(tmp_path):
    assert main(["solve", "--problem", "power:d=3", "--out", str(tmp_path)]) == 3


def test_unknown_config_keys_are_hard_errors(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[solver]\nmethod = nu-ren\nHH = 1\n")
    assert main(["solve", "--config", str(ini)]) == 3
    assert "HH" in capsys.readouterr().err

    ini.write_text("[plotting]\nstyle = dark\n")
    assert main(["solve", "--config", str(ini)]) == 3
    assert "plotting" in capsys.readouterr().err


def test_exhausted_line_search_is_solver_error(tmp_path, capsys):
    # nu = 0 operator forced through the nu = 1 criterion from a tiny H0
    rc = main(["solve", "--problem", "piecewise:d=3", "--method", "nu-aren",
               "--nu", "1", "--H0", "1e-6", "--max-doublings", "3",
               "--K", "5", "--out", str(tmp_path)])
    assert rc == 2
    assert "doublings" in capsys.readouterr().err


def test_usage_errors_exit_with_config_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "not-a-method"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_parser_is_shared_and_survives_a_usage_error(tmp_path):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--K", "not-an-int"])
    assert exc.value.code == 3
    assert main(solve_args(tmp_path)) == 0
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["--problem", "piecewise:d=5", "--method", "nu-aren", "--H0", "auto",
     "--K", "60"],
    ["--problem", "quartic:d=4", "--method", "nu-aret", "--p", "3",
     "--H0", "auto", "--K", "10"],
], ids=["piecewise-box", "quartic-order3"])
def test_tight_accuracy_certifies_promptly(tmp_path, argv):
    # eps = 1e-12 asks for inner residuals of 1e-16, at the float64 floor
    t0 = time.perf_counter()
    rc = main(["solve", *argv, "--eps", "1e-12", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed <= 2.0
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert all(v["status"] != "fail" for v in payload["bound_checks"].values())


def test_float64_floor_fails_promptly(tmp_path, capsys):
    # inner_tol = 1e-16 is below what Newton and PEG reach on this run; the
    # PEG fallback gives up after its one budget instead of grinding on
    t0 = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="semismooth Newton stopped"):
        rc = main(["solve", "--problem", "piecewise:d=5", "--method", "uren",
                   "--H0", "1", "--K", "60", "--eps", "1e-12",
                   "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 2
    assert "residual" in capsys.readouterr().err
    assert elapsed <= 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning:holder_vi.subproblem")
@pytest.mark.parametrize("d", [20, 200])
def test_near_skew_ball_runs_certify_without_fallback(tmp_path, d):
    # bilinear models are near-skew (H ~ 1e-8) with interior solutions,
    # where Newton on the ball's normal map alone stalls near the sphere
    rc = main(["solve", "--problem", f"bilinear:d={d}", "--method", "nu-aren",
               "--H0", "1", "--K", "100", "--out", str(tmp_path)])
    assert rc == 0


# -------------------------------------------------------------------- rates

def test_rates_sweep_writes_slope_files(tmp_path):
    rc = main(["rates", "--problem", "power:d=3,nu=1,r=1", "--method",
               "nu-ren", "--H", "auto", "--grid", "8,12,16,24,32",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "rates.json").read_text())
    assert payload["passed"] is True
    assert payload["slope"] <= payload["target"] + payload["tolerance"]
    assert payload["grid"] == [8, 12, 16, 24, 32]
    rows = (tmp_path / "rates.csv").read_text().splitlines()
    assert "K,gap_avg" in rows


def test_rates_with_too_few_positive_gaps_is_solver_error(tmp_path, capsys,
                                                          monkeypatch):
    # fit_rate_slope drops the nonpositive gaps with a warning each; three
    # usable points are too few, and main maps the fit error to exit 2
    gaps = {16: 1e-2, 32: 0.0, 64: 3e-3, 128: -1e-18, 256: 0.0, 512: 1e-4,
            1024: 0.0}
    monkeypatch.setattr(cli, "execute", lambda instance, cfg: SimpleNamespace(
        final_gap=gaps[cfg.K]))
    with pytest.warns(RuntimeWarning, match="dropping nonpositive gap") as rec:
        rc = main(["rates", "--problem", "power:d=3", "--method", "nu-ren",
                   "--H", "auto", "--out", str(tmp_path)])
    assert rc == 2
    assert len(rec) == 4
    assert "solver error: only 3 usable points" in capsys.readouterr().err
    assert not (tmp_path / "rates.json").exists()


def test_rates_selftest_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--selftest", "powerlaw:-1.5"])
    assert exc.value.code == 3


def test_rates_grid_validation(tmp_path):
    rc = main(["rates", "--problem", "power:d=3", "--method", "nu-ren",
               "--H", "auto", "--grid", "8,4,16,32", "--out", str(tmp_path)])
    assert rc == 3
    rc = main(["rates", "--problem", "power:d=3", "--method", "nu-ren",
               "--H", "auto", "--grid", "8,16", "--out", str(tmp_path)])
    assert rc == 3


# ------------------------------------------------------------------- verify

def test_verify_single_group_passes(capsys):
    assert main(["verify", "--only", "geometry"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_negative_control_fails(capsys):
    rc = main(["verify", "--only", "remainder", "--scale-declared-h", "0.5"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "checks passed" in out


def test_verify_negative_control_scales_the_bounds_group(capsys):
    # the halved constants reach the runs' own verdicts: ceiling 2H/(1+nu)
    # and the line-search budget that grows with log2 of it
    rc = main(["verify", "--only", "bounds", "--scale-declared-h", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "vs ceiling 1.000000000001 on power:d=5,nu=0.5" in out
    assert "trials 58.0 vs budget 62.0" in out


def test_verify_rejects_unknown_group():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "everything"])
    assert exc.value.code == 3
