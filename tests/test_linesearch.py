"""Doubling search on the regularization coefficient."""

import numpy as np
import pytest

from holder_vi import linesearch, subproblem
from holder_vi.errors import LineSearchExhausted, SubproblemFailure
from holder_vi.linesearch import SearchMode, criterion_accepts, next_H, search
from holder_vi.problems import default_start, make_piecewise, make_power
from holder_vi.solvers import Counters


def test_search_modes_encode_power_and_exponent():
    m = SearchMode.holder(0.5)
    assert (m.reg_power, m.criterion_exp) == (0.5, 1.5)
    m = SearchMode.universal()
    assert (m.reg_power, m.criterion_exp) == (1.0, 2.0)
    m = SearchMode.holder(0.5, p=3)
    assert (m.order, m.reg_power, m.criterion_exp) == (3, 1.5, 2.5)
    m = SearchMode.universal(3)
    assert (m.order, m.reg_power, m.criterion_exp) == (3, 2.0, 3.0)


def test_next_h_fixtures():
    assert next_H(1.0, 0) == 0.5
    assert next_H(1.0, 3) == 4.0
    assert next_H(0.25, 1) == 0.25
    with pytest.raises(ValueError):
        next_H(0.0, 0)
    with pytest.raises(ValueError):
        next_H(1.0, -1)


def test_criterion_slack_boundary():
    rhs = 1.0
    assert criterion_accepts(rhs, rhs)
    assert criterion_accepts(rhs + 0.9e-12 * (1.0 + rhs), rhs)
    assert not criterion_accepts(rhs + 5e-12 * (1.0 + rhs), rhs)


def test_affine_operator_accepts_immediately(bilinear):
    # constant Jacobian: zero Taylor remainder at any coefficient
    z = default_start(bilinear)
    out = search(bilinear.operator, bilinear.feasible, z, 1.0,
                 SearchMode.holder(1.0), 1e-10, 60)
    assert out.i_k == 0
    H_trial, lhs, rhs = out.trials[0]
    assert H_trial == 1.0
    assert lhs < 1e-14


def test_large_coefficient_accepts_on_first_trial(power_nu1):
    # H_k = 2 H_nu is comfortably above the acceptance threshold H_nu/(1+nu)
    rng = np.random.default_rng(7)
    H_k = 2.0 * power_nu1.operator.holder_const
    for z in power_nu1.feasible.sample(rng, 20):
        out = search(power_nu1.operator, power_nu1.feasible, z, H_k,
                     SearchMode.holder(1.0), 1e-10, 60)
        assert out.i_k == 0


def test_accepted_index_is_minimal(power_nu1):
    # from a far-too-small coefficient every earlier trial must fail
    z = default_start(power_nu1)
    out = search(power_nu1.operator, power_nu1.feasible, z, 1e-3,
                 SearchMode.holder(1.0), 1e-10, 60)
    assert out.i_k >= 1
    assert len(out.trials) == out.i_k + 1
    for H_trial, lhs, rhs in out.trials[:-1]:
        assert not criterion_accepts(lhs, rhs)
    H_last, lhs, rhs = out.trials[-1]
    assert H_last == 1e-3 * 2.0 ** out.i_k
    assert criterion_accepts(lhs, rhs)


def test_step_outcome_is_consistent(power_nu_half):
    z = default_start(power_nu_half)
    out = search(power_nu_half.operator, power_nu_half.feasible, z, 0.7,
                 SearchMode.holder(0.5), 1e-10, 60)
    assert out.step_norm == pytest.approx(
        float(np.linalg.norm(out.accepted_point - z)))
    np.testing.assert_allclose(out.f_at_accepted,
                               power_nu_half.operator.value(out.accepted_point))


def test_wrong_exponent_class_exhausts_budget():
    # a nu = 0 operator searched with the nu = 1 criterion from a tiny
    # coefficient: the remainder stays O(L r) while the rhs stays O(H d^2)
    inst = make_piecewise(5, 1.0, 1.0)
    z = default_start(inst)
    with pytest.raises(LineSearchExhausted, match="3 doublings"):
        search(inst.operator, inst.feasible, z, 1e-6,
               SearchMode.holder(1.0), 1e-10, 3)


def starve_first_solve(monkeypatch):
    """Make the search's first inner solve fail: a PEG budget of 3
    evaluations cannot reach the tolerance.  Returns the list of
    coefficients the search solved at."""
    calls = []

    def solve(model, feasible, tol):
        calls.append(model.H)
        if len(calls) == 1:
            return subproblem.solve_model_vi(model, feasible, tol, prefer="peg",
                                             peg_max_evals=3)
        return subproblem.solve_model_vi(model, feasible, tol)

    monkeypatch.setattr(linesearch, "solve_model_vi", solve)
    return calls


def test_rejected_trials_count_as_failures(quartic, monkeypatch):
    # an order-3 inner failure rejects the trial and the search doubles H
    calls = starve_first_solve(monkeypatch)
    counters = Counters()
    out = search(quartic.operator, quartic.feasible, default_start(quartic), 4.0,
                 SearchMode.holder(1.0, p=3), 1e-10, 60, counters=counters)
    assert out.i_k == 1
    assert out.trials[0] == (4.0, np.inf, 0.0)
    assert calls == [4.0, 8.0]
    assert counters.subproblems == 2


def test_order_two_inner_failure_ends_the_search(power_nu1, monkeypatch):
    calls = starve_first_solve(monkeypatch)
    with pytest.raises(SubproblemFailure, match="residual"):
        search(power_nu1.operator, power_nu1.feasible, default_start(power_nu1),
               4.0, SearchMode.holder(1.0), 1e-10, 60)
    assert calls == [4.0]


def test_gap_check_short_circuits(power_nu1):
    z = default_start(power_nu1)
    out = search(power_nu1.operator, power_nu1.feasible, z, 4.0,
                 SearchMode.universal(), 1e-10, 60,
                 gap_check=lambda T, fT: 0.0, gap_target=1e-6)
    assert out.early_exit_gap == 0.0
    assert out.i_k == 0
    assert out.f_at_accepted is not None


def test_search_bills_subproblem_counter(power_nu1):
    z = default_start(power_nu1)
    counters = Counters()
    out = search(power_nu1.operator, power_nu1.feasible, z, 1e-3,
                 SearchMode.holder(1.0), 1e-10, 60, counters=counters)
    assert counters.subproblems == out.i_k + 1


def test_search_input_validation(power_nu1):
    z = default_start(power_nu1)
    with pytest.raises(ValueError):
        search(power_nu1.operator, power_nu1.feasible, z, 0.0,
               SearchMode.holder(1.0), 1e-10, 60)
