"""Order-p models: remainder constant, subproblem, adaptive/universal runs."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from holder_vi import subproblem, tensor
from holder_vi.core import Operator, SolverConfig, WholeSpace
from holder_vi.errors import ConfigError, SubproblemFailure, UnsupportedOrder
from holder_vi.linesearch import TrialRejected
from holder_vi.metrics import bound_verdicts, c_p_nu
from holder_vi.model import LinearModel, QuadraticModel, RegularizedModel
from holder_vi.problems import default_start, make_power
from holder_vi.solvers import run_nu_aren, run_uren
from holder_vi.tensor import (
    make_tensor_model,
    run_nu_aret,
    run_uret,
    solve_tensor_subproblem,
)


def cubic_op():
    # F(z) = z^3 with the full derivative stack
    return Operator(dim=1, fn=lambda z: z ** 3,
                    jac_fn=lambda z: 3.0 * z ** 2 * np.eye(1),
                    deriv_fn=lambda o, z, dirs: 6.0 * z * dirs[0] * dirs[1])


def bisect_root(model, lo, hi, iters=200):
    f = lambda d: float(model(model.anchor + d)[0])
    assert f(lo) < 0.0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return float(model.anchor[0]) + 0.5 * (lo + hi)


# ------------------------------------------------------ remainder constant

def test_c_p_nu_closed_forms():
    for nu in (0.0, 0.25, 0.5, 1.0):
        assert c_p_nu(2, nu) == pytest.approx(1.0 / (1.0 + nu), rel=1e-15)
    assert c_p_nu(3, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert c_p_nu(3, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert c_p_nu(3, 0.5) == pytest.approx(4.0 / 15.0, rel=1e-14)


@pytest.mark.parametrize("p,nu", [(2, 0.5), (3, 0.5), (3, 0.25), (4, 0.7)])
def test_c_p_nu_matches_taylor_integral(p, nu):
    # (1/(p-2)!) * int_0^1 (1-t)^(p-2) t^nu dt; the algebraic weight puts
    # the t^nu endpoint behavior into the rule instead of the integrand
    val, err = quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(nu, p - 2))
    assert err < 1e-12
    assert c_p_nu(p, nu) == pytest.approx(val / math.factorial(p - 2), abs=1e-12)


def test_c_p_nu_input_validation():
    with pytest.raises(ValueError):
        c_p_nu(1, 0.5)
    with pytest.raises(ValueError):
        c_p_nu(3, 1.5)


# ----------------------------------------------------------------- models

def test_order_two_model_is_the_second_order_type(power_nu1):
    z = default_start(power_nu1)
    m = make_tensor_model(power_nu1.operator, z, 2, 1.0, 2.0)
    assert isinstance(m, RegularizedModel)
    assert isinstance(m.base, LinearModel)
    m3 = make_tensor_model(cubic_op(), np.ones(1), 3, 2.0, 1.0)
    assert isinstance(m3, RegularizedModel)
    assert isinstance(m3.base, QuadraticModel)


def test_taylor_keeps_terms_below_order(quartic, rng):
    # at anchor 0 the quartic field has zero value and second derivative, so
    # the degree-2 Taylor is the linear part and the remainder is the exact
    # per-block cubic
    op = quartic.operator
    m = make_tensor_model(op, np.zeros(4), 3, 1.5, 0.0)
    d = 0.3 * rng.standard_normal(4)
    rem = op.value(d) - m.base.taylor(d)
    expect = np.concatenate([(d[:2] @ d[:2]) * d[:2], (d[2:] @ d[2:]) * d[2:]])
    np.testing.assert_allclose(rem, expect, atol=1e-15)


def test_model_value_includes_radial_term():
    m = make_tensor_model(cubic_op(), np.array([1.0]), 3, 2.0, 1.0)
    # model(1 + d) = 1 + 3d + 3d^2 + |d|^2 d, at d = 1: 8
    assert m(np.array([2.0]))[0] == pytest.approx(8.0, rel=1e-14)
    assert m(np.array([1.0]))[0] == pytest.approx(1.0)


def test_model_jacobian_matches_finite_difference(quartic, rng):
    op = quartic.operator
    z0 = 0.2 * rng.standard_normal(4)
    m = make_tensor_model(op, z0, 3, 1.5, 0.7)
    z = z0 + 0.3 * rng.standard_normal(4)
    J = m.jacobian_at(z)
    h = 1e-7
    for j in range(4):
        e = np.eye(4)[j]
        fd = (m(z + h * e) - m(z - h * e)) / (2.0 * h)
        np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


def test_third_order_model_needs_the_oracle(power_nu1):
    # the power operator carries no second-derivative closure
    m = make_tensor_model(power_nu1.operator, default_start(power_nu1), 3,
                          1.5, 1.0)
    with pytest.raises(UnsupportedOrder):
        solve_tensor_subproblem(m, power_nu1.feasible, 1e-8)


# -------------------------------------------------------------- subproblem

def test_scalar_cubic_well_conditioned_root():
    # anchor 1, H = 2: model 1 + 3d + 3d^2 + 2|d|^2 d = (2d+1)(d^2+d+1) on
    # d < 0, a simple root at d = -0.5; solver and bisection agree tightly
    m = make_tensor_model(cubic_op(), np.array([1.0]), 3, 2.0, 2.0)
    sol = solve_tensor_subproblem(m, WholeSpace(1), 1e-10)
    root = bisect_root(m, -3.0, 0.9)
    assert abs(sol.point[0] - root) <= 1e-8
    assert sol.point[0] == pytest.approx(0.5, abs=1e-8)


def test_scalar_cubic_triple_root():
    # anchor 1, H = 1: model (1+d)^3, a triple root at d = -1.  Roots of a
    # triple root move like cbrt of the evaluation noise (~1e-16^(1/3)), so
    # 1e-4 is the honest float64 agreement scale here.
    m = make_tensor_model(cubic_op(), np.array([1.0]), 3, 2.0, 1.0)
    sol = solve_tensor_subproblem(m, WholeSpace(1), 1e-10)
    root = bisect_root(m, -3.0, 0.9)
    assert abs(root) <= 1e-4
    assert abs(sol.point[0]) <= 1e-4
    assert abs(sol.point[0] - root) <= 1e-4


def test_anchor_solves_when_value_zero():
    m = make_tensor_model(cubic_op(), np.zeros(1), 3, 2.0, 1.0)
    sol = solve_tensor_subproblem(m, WholeSpace(1), 1e-10)
    assert sol.point[0] == pytest.approx(0.0, abs=1e-10)


def test_order_two_subproblem_delegates(power_nu1):
    from holder_vi.subproblem import solve_model_vi

    z = default_start(power_nu1)
    m = make_tensor_model(power_nu1.operator, z, 2, 1.0, 2.0)
    a = solve_tensor_subproblem(m, power_nu1.feasible, 1e-10)
    b = solve_model_vi(m, power_nu1.feasible, 1e-10)
    np.testing.assert_allclose(a.point, b.point, atol=1e-14)


def test_jacobian_unsupported_above_order_three():
    # an order-4 model, and so its Jacobian, is refused before the
    # operator's own Jacobian is ever evaluated
    calls = []
    op = cubic_op()
    jac = op.jac_fn
    op = replace(op, jac_fn=lambda z: calls.append(z) or jac(z))
    with pytest.raises(UnsupportedOrder, match="order 4"):
        make_tensor_model(op, np.ones(1), 4, 3.0, 1.0)
    assert calls == []
    m = make_tensor_model(op, np.ones(1), 3, 3.0, 1.0)
    assert len(calls) == 1
    np.testing.assert_allclose(m.jacobian_at(np.ones(1)), 3.0 * np.eye(1))


def test_order_above_three_is_unsupported():
    for p in (1, 4):
        with pytest.raises(UnsupportedOrder):
            make_tensor_model(cubic_op(), np.ones(1), p, 3.0, 1.0)
    with pytest.raises(ConfigError, match="p must be 2 or 3"):
        SolverConfig(method="nu-aret", H0=1.0, p=4)


def test_order_three_inner_failure_rejects_the_trial(monkeypatch):
    # a PEG budget of 3 evaluations cannot reach the tolerance
    m = make_tensor_model(cubic_op(), np.array([1.0]), 3, 2.0, 2.0)
    starved = functools.partial(subproblem.solve_model_vi, prefer="peg",
                                peg_max_evals=3)
    with pytest.raises(SubproblemFailure, match="residual"):
        starved(m, WholeSpace(1), 1e-10)
    monkeypatch.setattr(tensor, "solve_model_vi", starved)
    with pytest.raises(TrialRejected, match="residual"):
        solve_tensor_subproblem(m, WholeSpace(1), 1e-10)


def test_order_three_fallback_runs_the_one_peg_call_site(monkeypatch):
    calls, peg_regularized = [], subproblem.peg_regularized

    def recorded(*args):
        calls.append(args[1])
        return peg_regularized(*args)

    monkeypatch.setattr(subproblem, "newton_normal_map", lambda *a: None)
    monkeypatch.setattr(subproblem, "peg_regularized", recorded)
    m = make_tensor_model(cubic_op(), np.array([1.0]), 3, 2.0, 2.0)
    sol = solve_tensor_subproblem(m, WholeSpace(1), 1e-10)
    assert len(calls) == 1 and calls[0] is m
    assert sol.method == "peg"
    assert sol.point[0] == pytest.approx(0.5, abs=1e-8)


# ------------------------------------------------------------ outer loops

def test_affine_operator_never_doubles_at_order_three(bilinear):
    cfg = SolverConfig(method="nu-aret", nu=1.0, H0=1.0, K=8, p=3)
    run = run_nu_aret(bilinear.operator, bilinear.feasible,
                      default_start(bilinear), cfg)
    assert [r.i_k for r in run.records] == [0] * 8
    assert run.final_gap < 1e-8


def test_order_three_oracle_accounting(bilinear):
    cfg = SolverConfig(method="nu-aret", nu=1.0, H0=1.0, K=5, p=3)
    run = run_nu_aret(bilinear.operator, bilinear.feasible,
                      default_start(bilinear), cfg)
    trials = sum(r.i_k + 1 for r in run.records)
    assert run.counters.f_evals == len(run.records) + trials
    assert run.counters.j_evals == len(run.records)
    assert run.counters.subproblems == trials


def test_order_three_bills_every_second_derivative(quartic):
    calls = []

    def counted(order, z, dirs):
        calls.append(order)
        return quartic.operator.deriv_fn(order, z, dirs)

    op = replace(quartic.operator, deriv_fn=counted)
    cfg = SolverConfig(method="nu-aret", nu=1.0, H0=1.0, K=2, p=3)
    run = run_nu_aret(op, quartic.feasible, default_start(quartic), cfg)
    assert len(calls) > 0
    assert run.counters.d_evals == len(calls)


def test_adaptive_order_three_h_bound_on_quartic(quartic):
    cfg = SolverConfig(method="nu-aret", nu=1.0, H0=1.0, K=8, p=3)
    run = run_nu_aret(quartic.operator, quartic.feasible, default_start(quartic), cfg)
    v = run.bound_checks["H_bound"]
    assert v.ok
    # ceiling 2 c_{3,1} H_3 = 2 * (1/6) * 6
    assert v.bound == pytest.approx(2.0, rel=1e-9)


def assert_same_run(a, b):
    assert len(a.records) == len(b.records)
    for x, y in zip(a.records, b.records):
        for name, value in vars(x).items():
            if name != "wall_ns":
                assert np.array_equal(value, getattr(y, name)), name
    assert a.final_gap == b.final_gap
    assert a.H_final == b.H_final


def test_order_two_reduction_matches_second_order(power_nu_half):
    z0 = default_start(power_nu_half)
    op, fs = power_nu_half.operator, power_nu_half.feasible
    cfg_a = SolverConfig(method="nu-aren", nu=0.5, H0=0.7, K=8)
    cfg_t = SolverConfig(method="nu-aret", nu=0.5, H0=0.7, K=8, p=2)
    assert_same_run(run_nu_aren(op, fs, z0, cfg_a),
                    run_nu_aret(op, fs, z0, cfg_t))

    cfg_u = SolverConfig(method="uren", H0=0.7, K=8, eps=1e-30, inner_tol=1e-10)
    cfg_v = SolverConfig(method="uret", H0=0.7, K=8, eps=1e-30,
                         inner_tol=1e-10, p=2)
    assert_same_run(run_uren(op, fs, z0, cfg_u),
                    run_uret(op, fs, z0, cfg_v))


def test_universal_exits_immediately_from_solution(bilinear):
    cfg = SolverConfig(method="uret", H0=1.0, K=5, eps=1e-6, p=3)
    run = run_uret(bilinear.operator, bilinear.feasible, bilinear.solution, cfg)
    assert run.early_exit is not None
    assert run.early_exit.k == 0
    assert run.final_gap <= 1e-6


def test_universal_cap_bound_eps_free_at_lipschitz(power_nu1):
    # p=2 universal on a nu=1 problem: the cap is declared_H/2 whatever eps
    cfg = SolverConfig(method="uret", H0=1.0, K=5, eps=1e-30, inner_tol=1e-10,
                       p=2)
    run = run_uret(power_nu1.operator, power_nu1.feasible,
                   default_start(power_nu1), cfg)
    assert run.early_exit is None
    caps = [bound_verdicts(run.records, "uret", 1.0, power_nu1.declared_H,
                           power_nu1.diameter, cfg.H0, eps, p=2)
            ["universal_cap"].bound for eps in (1e-3, 1e-9)]
    assert caps[0] == pytest.approx(power_nu1.declared_H / 2.0, rel=1e-12)
    assert caps[0] == caps[1]


def test_rejects_order_below_two():
    with pytest.raises(ConfigError, match="p must be 2 or 3"):
        SolverConfig(method="nu-aret", nu=1.0, H0=1.0, K=3, p=1)
