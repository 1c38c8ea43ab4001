"""Outer loops: fixed, adaptive, universal, and the extragradient baseline."""

import math

import numpy as np
import pytest

from holder_vi.core import Ball, Box, Operator, SolverConfig, WholeSpace
from holder_vi.errors import ConfigError, DegenerateRegularization
from holder_vi.metrics import theorem_bound_report
from holder_vi.problems import default_start, make_power
from holder_vi.solvers import (
    ergodic_average,
    k_for_accuracy,
    run_extragradient,
    run_nu_aren,
    run_nu_ren,
    run_uren,
)


def scalar_setup():
    op = Operator(dim=1, fn=lambda z: z.copy(), jac_fn=lambda z: np.eye(1))
    box = Box(1, np.array([-1.0]), np.array([1.0]))
    return op, box


# ------------------------------------------------------------ hand fixture

def test_scalar_first_iteration_fixture():
    # F(z) = z on [-1, 1] from z0 = 1 with nu = 1, H = 1: coefficient 2,
    # half step 0.5, gamma = 2 * 0.5 = 1, prox lands on 0.5,
    # gap at the half step = 0.5 * (0.5 - (-1)) = 0.75
    op, box = scalar_setup()
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=1.0, K=3)
    run = run_nu_ren(op, box, np.array([1.0]), cfg)
    r0 = run.records[0]
    assert r0.H_k == 2.0
    assert r0.half_step[0] == pytest.approx(0.5, abs=1e-9)
    assert r0.gamma_k == pytest.approx(1.0, abs=1e-9)
    assert r0.step_norm == pytest.approx(0.5, abs=1e-9)
    assert r0.full_step[0] == pytest.approx(0.5, abs=1e-9)
    assert r0.gap_point == pytest.approx(0.75, abs=1e-9)
    assert (r0.F_evals_cum, r0.J_evals_cum, r0.subproblems_cum) == (2, 1, 1)


def test_fixed_run_oracle_accounting():
    op, box = scalar_setup()
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=1.0, K=7)
    run = run_nu_ren(op, box, np.array([1.0]), cfg)
    assert len(run.records) == 7
    assert run.counters.f_evals == 14  # 1 at the anchor + 1 at the half step
    assert run.counters.j_evals == 7
    assert run.counters.subproblems == 7
    assert run.H_final is None  # no line-search state to carry


def test_zero_gamma_means_converged():
    # starting exactly at the solution: zero half step, gamma = 0, the run
    # stops and reports the point directly
    op, box = scalar_setup()
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=1.0, K=5)
    run = run_nu_ren(op, box, np.zeros(1), cfg)
    assert run.converged_at == 0
    assert len(run.records) == 1
    assert run.records[0].gamma_k == 0.0
    assert run.final_gap == 0.0
    assert run.averaged_point[0] == 0.0


def test_gap_decreases_on_power(power_nu1):
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=power_nu1.declared_H, K=30)
    run = run_nu_ren(power_nu1.operator, power_nu1.feasible,
                     default_start(power_nu1), cfg)
    gaps = [r.gap_avg for r in run.records]
    assert run.final_gap <= gaps[0]
    assert run.final_gap < 1e-8


# ---------------------------------------------------------------- averaging

def test_ergodic_average_hand_values():
    pts = [np.array([2.0]), np.array([4.0])]
    assert ergodic_average(pts, [1.0, 1.0])[0] == pytest.approx(3.0)
    # weights 1/gamma: (2/1 + 4/0.5) / (1/1 + 1/0.5) = 10/3
    assert ergodic_average(pts, [1.0, 0.5])[0] == pytest.approx(10.0 / 3.0)


def test_ergodic_average_input_errors():
    with pytest.raises(ConfigError):
        ergodic_average([], [])
    with pytest.raises(ConfigError):
        ergodic_average([np.zeros(1)], [1.0, 2.0])
    with pytest.raises(DegenerateRegularization):
        ergodic_average([np.zeros(1)], [0.0])


@pytest.mark.parametrize("method", ["nu-ren", "nu-aren", "extragradient"])
def test_ergodic_average_matches_run_average(method, power_nu_half):
    op, fs = power_nu_half.operator, power_nu_half.feasible
    z0 = default_start(power_nu_half)
    if method == "nu-ren":
        cfg = SolverConfig(method=method, nu=0.5, H=2.0, K=12)
        run = run_nu_ren(op, fs, z0, cfg)
    elif method == "nu-aren":
        cfg = SolverConfig(method=method, nu=0.5, H0=0.7, K=12)
        run = run_nu_aren(op, fs, z0, cfg)
    else:
        cfg = SolverConfig(method=method, K=12)
        run = run_extragradient(op, fs, z0, cfg)
    assert run.converged_at is None and run.early_exit is None
    avg = ergodic_average([r.half_step for r in run.records],
                          [r.gamma_k for r in run.records])
    assert np.array_equal(avg, run.averaged_point)


def test_iteration_budget_fixture():
    # nu = 1, H = D = 1, eps = 1e-3: ceil(2 * (1e3)^(2/3)) = 200
    assert k_for_accuracy(1.0, 1.0, 1.0, 1e-3) == 200
    assert k_for_accuracy(1.0, 1.0, 1.0, 1.0) == 2
    with pytest.raises(ConfigError):
        k_for_accuracy(1.0, 0.0, 1.0, 1e-3)


def test_iteration_budget_rounds_up():
    exact = 2.0 * 1.5 ** (2.0 / 3.0)
    assert k_for_accuracy(1.0, 1.5, 1.0, 1.0) == math.ceil(exact)


# ----------------------------------------------------------- adaptive runs

def test_adaptive_counters_and_h_state(power_nu1):
    cfg = SolverConfig(method="nu-aren", nu=1.0, H0=1.0, K=6)
    run = run_nu_aren(power_nu1.operator, power_nu1.feasible,
                      default_start(power_nu1), cfg)
    trials = sum(r.i_k + 1 for r in run.records)
    assert run.counters.subproblems == trials
    assert run.counters.f_evals == len(run.records) + trials
    assert run.counters.j_evals == len(run.records)
    # carried coefficient is half the last accepted trial
    assert run.H_final == pytest.approx(run.records[-1].H_k / 2.0)


def test_adaptive_bound_checks_populated(power_nu1):
    cfg = SolverConfig(method="nu-aren", nu=1.0, H0=1.0, K=6)
    run = run_nu_aren(power_nu1.operator, power_nu1.feasible,
                      default_start(power_nu1), cfg)
    assert set(run.bound_checks) == {"C_nu", "H_bound", "oracle_budget",
                                     "universal_cap"}
    assert run.bound_checks["H_bound"].ok
    report = theorem_bound_report(run, power_nu1, cfg)
    assert {k: v.status for k, v in report.items()} == {
        k: v.status for k, v in run.bound_checks.items()}


def test_universal_early_exit_contract(power_nu1):
    # a huge eps triggers the exit on the very first trial: no records,
    # the exit point is reported and its gap re-certified
    cfg = SolverConfig(method="uren", H0=1.0, K=10, eps=1e3)
    run = run_uren(power_nu1.operator, power_nu1.feasible,
                   default_start(power_nu1), cfg)
    assert run.early_exit is not None
    assert run.early_exit.k == 0 and run.early_exit.i == 0
    assert len(run.records) == 0
    assert run.final_gap == pytest.approx(run.early_exit.gap, rel=1e-12)
    assert run.final_gap <= 1e3
    assert run.bound_checks["universal_cap"].status == "not-applicable"
    np.testing.assert_array_equal(run.averaged_point, run.early_exit.point)


def test_universal_run_without_exit(power_nu1):
    cfg = SolverConfig(method="uren", H0=1.0, K=8, eps=1e-30, inner_tol=1e-10)
    run = run_uren(power_nu1.operator, power_nu1.feasible,
                   default_start(power_nu1), cfg)
    assert run.early_exit is None
    assert len(run.records) == 8
    assert run.bound_checks["universal_cap"].ok


def test_run_config_describes_the_run(power_nu1):
    cfg = SolverConfig(method="nu-aren", nu=1.0, H0=0.7, K=9)
    run = run_nu_aren(power_nu1.operator, power_nu1.feasible,
                      default_start(power_nu1), cfg)
    assert run.config is cfg
    assert len(run.records) == cfg.K
    first = run.records[0]
    assert first.H_k / 2.0 ** first.i_k == cfg.H0


def test_run_parameter_validation(power_nu1):
    # A run's parameters all come from its config: bad scalars stop at the
    # config, and a config made for another method is refused by the run.
    z0 = default_start(power_nu1)
    with pytest.raises(ConfigError):
        run_nu_ren(power_nu1.operator, power_nu1.feasible, z0,
                   SolverConfig(method="nu-ren", nu=1.0, H=0.0, K=3))
    with pytest.raises(ConfigError):
        run_uren(power_nu1.operator, power_nu1.feasible, z0,
                 SolverConfig(method="uren", H0=0.0, K=3))
    cfg = SolverConfig(method="nu-aren", nu=1.0, H0=1.0, K=3)
    for run in (run_nu_ren, run_uren, run_extragradient):
        with pytest.raises(ConfigError, match="nu-aren config"):
            run(power_nu1.operator, power_nu1.feasible, z0, cfg)


# ------------------------------------------------------------- gap probing

def test_whole_space_gap_is_nan_without_report_radius():
    op = Operator(dim=2, fn=lambda z: z.copy(), jac_fn=lambda z: np.eye(2))
    ws = WholeSpace(2)
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=1.0, K=4)
    run = run_nu_ren(op, ws, np.array([1.0, 0.0]), cfg)
    assert math.isnan(run.final_gap)
    cfg_r = SolverConfig(method="nu-ren", nu=1.0, H=1.0, K=4, report_radius=2.0)
    run_r = run_nu_ren(op, ws, np.array([1.0, 0.0]), cfg_r)
    assert math.isfinite(run_r.final_gap)
    assert run_r.final_gap >= 0.0


def test_gap_cadence_skips_average_evaluation(power_nu1):
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=power_nu1.declared_H, K=7,
                       gap_cadence=3)
    run = run_nu_ren(power_nu1.operator, power_nu1.feasible,
                     default_start(power_nu1), cfg)
    for r in run.records:
        evaluated = (r.k % 3 == 0) or (r.k == 6)
        assert math.isnan(r.gap_avg) != evaluated
        assert math.isfinite(r.gap_point)  # point gap reuses F, always on


def test_start_point_is_projected(power_nu1):
    cfg = SolverConfig(method="nu-ren", nu=1.0, H=power_nu1.declared_H, K=3)
    run = run_nu_ren(power_nu1.operator, power_nu1.feasible, np.full(5, 10.0), cfg)
    for r in run.records:
        assert power_nu1.feasible.contains(r.half_step, tol=1e-9)


# ------------------------------------------------------------ extragradient

def test_extragradient_counts_two_values_per_iteration(bilinear):
    cfg = SolverConfig(method="extragradient", step=0.25, K=9)
    run = run_extragradient(bilinear.operator, bilinear.feasible,
                            default_start(bilinear), cfg)
    assert run.counters.f_evals == 18
    assert run.counters.j_evals == 0
    assert run.counters.subproblems == 0
    assert len(run.records) == 9


def test_extragradient_auto_step_is_deterministic(bilinear):
    cfg = SolverConfig(method="extragradient", K=6)
    a = run_extragradient(bilinear.operator, bilinear.feasible,
                          default_start(bilinear), cfg)
    b = run_extragradient(bilinear.operator, bilinear.feasible,
                          default_start(bilinear), cfg)
    np.testing.assert_array_equal(a.averaged_point, b.averaged_point)
    assert [r.step_norm for r in a.records] == [r.step_norm for r in b.records]


def test_extragradient_reduces_gap(bilinear):
    cfg = SolverConfig(method="extragradient", K=200)
    run = run_extragradient(bilinear.operator, bilinear.feasible,
                            default_start(bilinear), cfg)
    assert run.final_gap < run.records[0].gap_avg
    assert run.bound_checks["H_bound"].status == "not-applicable"
