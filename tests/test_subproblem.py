"""Inner solver: semismooth Newton, extragradient fallback, prox pieces."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holder_vi.core import Ball, Box, WholeSpace
from holder_vi.errors import DegenerateRegularization, SubproblemFailure
from holder_vi.linesearch import SearchMode, search
from holder_vi.model import LinearModel, QuadraticModel, RegularizedModel
from holder_vi.problems import make_power
from holder_vi.subproblem import (
    gamma_of,
    natural_residual,
    peg_callable,
    prox_step,
    solve_model_vi,
)

GOLDEN = 0.6180339887498949  # (sqrt(5) - 1) / 2


def scalar_model(anchor, value, H, power=1.0):
    return RegularizedModel(LinearModel(np.array([float(anchor)]),
                                        np.array([float(value)]), np.eye(1)),
                            power, H)


# ----------------------------------------------------------------- scalars

def test_gamma_of_fixtures():
    assert gamma_of(3.0, 0.0, 0.7) == pytest.approx(3.0)
    assert gamma_of(3.0, 0.0, 0.0) == pytest.approx(3.0)  # 0^0 = 1
    assert gamma_of(3.0, 1.0, 2.0) == pytest.approx(6.0)
    assert gamma_of(3.0, 0.5, 4.0) == pytest.approx(6.0)


def test_gamma_of_rejects_negatives():
    with pytest.raises(ValueError):
        gamma_of(1.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        gamma_of(-1.0, 0.5, 1.0)


def test_prox_step_zero_gradient_is_identity():
    z = np.array([0.3, -0.4])
    fs = Ball(2, np.zeros(2), 1.0)
    np.testing.assert_array_equal(prox_step(z, np.zeros(2), 2.0, fs), z)


def test_prox_step_ball_fixture():
    # z = 0, g = (2, 0), gamma = 1 on the unit ball: project((-2, 0)) = (-1, 0)
    fs = Ball(2, np.zeros(2), 1.0)
    out = prox_step(np.zeros(2), np.array([2.0, 0.0]), 1.0, fs)
    np.testing.assert_allclose(out, [-1.0, 0.0])


def test_prox_step_scalar_box_fixture():
    fs = Box(1, np.array([-1.0]), np.array([1.0]))
    out = prox_step(np.array([1.0]), np.array([1.0]), 2.0, fs)
    assert out[0] == pytest.approx(0.5)


def test_prox_step_rejects_zero_gamma():
    with pytest.raises(DegenerateRegularization):
        prox_step(np.zeros(1), np.ones(1), 0.0, WholeSpace(1))


# ------------------------------------------------------------ hand fixtures

def test_golden_ratio_step():
    # (1 + lam) d = -1 with lam = |d| gives |d| = (sqrt(5) - 1) / 2
    m = scalar_model(0.0, 1.0, 1.0)
    sol = solve_model_vi(m, WholeSpace(1), 1e-12)
    assert sol.point[0] == pytest.approx(-GOLDEN, abs=1e-9)
    lam = m.H * float(np.linalg.norm(sol.point - m.anchor)) ** m.power
    assert lam == pytest.approx(GOLDEN, abs=1e-6)
    assert sol.method == "newton"


def test_ball_boundary_fixture_with_multiplier():
    # anchor 0, c = (1, 0), J = 0, H = 1 on ball(0, 0.5): the unconstrained
    # step has length 1, so the point pins to (-0.5, 0) with boundary
    # multiplier t solving (lam + t) 0.5 = 1, lam = 0.5, hence t = 1.5
    m = RegularizedModel(LinearModel(np.zeros(2), np.array([1.0, 0.0]),
                                     np.zeros((2, 2))), 1.0, 1.0)
    sol = solve_model_vi(m, Ball(2, np.zeros(2), 0.5), 1e-10)
    np.testing.assert_allclose(sol.point, [-0.5, 0.0], atol=1e-9)
    assert sol.multiplier == pytest.approx(1.5, abs=1e-6)
    lam = m.H * float(np.linalg.norm(sol.point - m.anchor)) ** m.power
    assert lam == pytest.approx(0.5, abs=1e-6)


def test_ball_interior_reduces_to_whole_space():
    m = scalar_model(0.0, 1.0, 1.0)
    ball = Ball(1, np.zeros(1), 5.0)
    sol = solve_model_vi(m, ball, 1e-12)
    assert sol.point[0] == pytest.approx(-GOLDEN, abs=1e-9)
    assert sol.multiplier == 0.0


def test_anchor_already_solves_when_value_zero():
    m = scalar_model(0.7, 0.0, 2.0)
    sol = solve_model_vi(m, WholeSpace(1), 1e-12)
    assert sol.point[0] == pytest.approx(0.7)
    assert sol.residual == 0.0


def test_scalar_box_half_step():
    # anchor 1, c = 1, J = 1, H = 2 on [-1, 1]: accepted point 0.5
    m = scalar_model(1.0, 1.0, 2.0)
    sol = solve_model_vi(m, Box(1, np.array([-1.0]), np.array([1.0])), 1e-12)
    assert sol.point[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.method == "newton"


def test_power_zero_uses_constant_shift():
    # power 0 makes the model linear, (J + H I) d = -c: one Newton step
    m = scalar_model(0.0, 2.0, 3.0, power=0.0)
    sol = solve_model_vi(m, WholeSpace(1), 1e-12)
    assert sol.method == "newton"
    assert sol.evals == 1
    assert sol.point[0] == pytest.approx(-0.5)


def test_near_skew_ball_model_with_interior_solution_takes_newton():
    # skew J with a tiny H traps the ball's normal-map Newton near the
    # sphere; solving on the whole space first finds the interior point
    rng = np.random.default_rng(7)
    d, H = 20, 1e-8
    B = rng.standard_normal((d, d))
    J = B - B.T
    anchor = 0.1 * rng.standard_normal(d)
    step = 0.3 * rng.standard_normal(d) / np.sqrt(d)
    c = -(J @ step + H * np.linalg.norm(step) * step)
    m = RegularizedModel(LinearModel(anchor, c, J), 1.0, H)
    ball = Ball(d, np.zeros(d), 1.0)
    assert np.linalg.norm(anchor + step) < 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_model_vi(m, ball, 1e-10)
    assert sol.method == "newton"
    assert sol.residual <= 1e-10
    assert sol.multiplier == 0.0
    np.testing.assert_allclose(sol.point, anchor + step, atol=1e-8)


@pytest.mark.parametrize("m", [3, 50])
def test_singular_newton_matrix_takes_least_squares_step(m):
    # a skew bilinear model with a zero row and column in A: M, and so the
    # whole-space Newton matrix, is singular.  The least-squares step
    # certifies at once; stopping at the singular matrix left PEG to grind
    # (27,611 evaluations at m=3, failure after 40,000 at m=50).
    rng = np.random.default_rng(0)
    A = rng.standard_normal((m, m))
    A[-1, :] = 0.0
    A[:, -1] = 0.0
    d = 2 * m
    M = np.zeros((d, d))
    M[:m, m:] = A
    M[m:, :m] = -A.T
    q = 0.05 * M @ rng.standard_normal(d)
    model = RegularizedModel(LinearModel(np.zeros(d), q, M), 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_model_vi(model, Ball(d, np.zeros(d), 1.0), 1e-10)
    assert sol.method == "newton"
    assert sol.evals == 1
    assert sol.residual <= 1e-10


def test_prefer_accepts_only_none_and_peg():
    m = scalar_model(0.0, 1.0, 1.0)
    for prefer in ("secular", "newton", ""):
        with pytest.raises(ValueError, match="prefer"):
            solve_model_vi(m, WholeSpace(1), 1e-12, prefer=prefer)


def test_search_checks_monotonicity_once_per_linear_model(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    inst = make_power(5, 0.5, 1.0)
    z = np.full(5, 0.3)
    # H_k = 1e-6 is far below the operator's constant: the first trials fail
    out = search(inst.operator, inst.feasible, z, 1e-6, SearchMode.holder(0.5),
                 1e-10, 30)
    assert out.i_k >= 1
    assert calls == [(5, 5)]


# -------------------------------------------------------------- invariants

def test_natural_residual_zero_exactly_at_solution():
    m = scalar_model(0.0, 1.0, 1.0)
    fs = WholeSpace(1)
    u = solve_model_vi(m, fs, 1e-13).point
    assert natural_residual(m, fs, u) <= 1e-12
    assert natural_residual(m, fs, u + 0.1) > 1e-3


def test_solution_satisfies_model_vi_on_sampled_points(rng):
    d = 4
    B = rng.standard_normal((d, d))
    J = B @ B.T / d + 0.3 * (B - B.T)
    c = rng.standard_normal(d)
    m = RegularizedModel(LinearModel(np.zeros(d), c, J), 0.5, 1.1)
    fs = Ball(d, np.zeros(d), 0.8)
    tol = 1e-10
    sol = solve_model_vi(m, fs, tol)
    g = m(sol.point)
    margin = min(float(g @ (y - sol.point)) for y in fs.sample(rng, 300))
    assert margin >= -10.0 * tol * fs.diameter


def test_inner_solution_unique_across_starts():
    J = np.array([[0.0, 1.2], [-1.0, 0.0]])
    m = RegularizedModel(LinearModel(np.zeros(2), np.array([0.4, -0.2]), J),
                         1.0, 2.0)
    fs = Ball(2, np.zeros(2), 0.5)
    tol = 1e-10
    a, ra, _ = peg_callable(m, fs, np.zeros(2), tol, 200_000, 0.3)
    b, rb, _ = peg_callable(m, fs, np.array([0.4, 0.3]), tol, 200_000, 0.3)
    assert max(ra, rb) <= tol
    assert np.linalg.norm(a - b) <= 10.0 * tol


def test_newton_matches_extragradient(rng):
    worst = 0.0
    for _ in range(10):
        d = 6
        B = rng.standard_normal((d, d))
        S = 0.3 * rng.standard_normal((d, d))
        J = B @ B.T / d + (S - S.T)
        c = rng.standard_normal(d)
        m = RegularizedModel(LinearModel(np.zeros(d), c, J), 0.5, 1.3)
        newton = solve_model_vi(m, WholeSpace(d), 1e-10)
        peg = solve_model_vi(m, WholeSpace(d), 1e-10, prefer="peg")
        assert newton.method == "newton"
        worst = max(worst, float(np.linalg.norm(newton.point - peg.point)))
    assert worst <= 1e-6


def random_model(rng, d, power, H, anchor=None):
    B = rng.standard_normal((d, d))
    J = B @ B.T / d + 0.2 * (B - B.T)  # PSD symmetric part plus skew
    if anchor is None:
        anchor = 0.1 * rng.standard_normal(d)
    return RegularizedModel(LinearModel(anchor, rng.standard_normal(d), J),
                            power, H)


SETS = {
    "whole": lambda rng, d: WholeSpace(d),
    "ball": lambda rng, d: Ball(d, rng.standard_normal(d), 1.0 + rng.random()),
    "box": lambda rng, d: Box(d, -0.1 - rng.random(d), 0.1 + rng.random(d)),
}


@pytest.mark.parametrize("kind", sorted(SETS))
def test_peg_reaches_tolerance(kind):
    rng = np.random.default_rng(3)
    d, budget = 6, 200_000
    fs = SETS[kind](rng, d)
    m = random_model(rng, d, 0.5, 1.5, anchor=fs.sample(rng, 1)[0])
    sol = solve_model_vi(m, fs, 1e-10, prefer="peg", peg_max_evals=budget)
    assert sol.method == "peg"
    assert sol.residual <= 1e-10
    assert 0 < sol.evals < budget
    assert natural_residual(m, fs, sol.point) <= 1e-10


def test_peg_power_zero_returns_anchor_exactly():
    # 0^0 = 1: at u = anchor the radial term is H * 0 and must not be NaN
    anchor = np.array([0.3, -0.2, 0.5])
    m = RegularizedModel(LinearModel(anchor, np.zeros(3), np.eye(3)), 0.0, 2.0)
    sol = solve_model_vi(m, WholeSpace(3), 1e-12, prefer="peg")
    assert sol.residual == 0.0
    np.testing.assert_array_equal(sol.point, anchor)


def random_order3_model(rng, d, power, H, anchor):
    """Order-3 model with J - 0.5 I PSD-plus-skew and |D2F|_F = 0.5: for
    H >= 0.5 and power >= 1 its Jacobian's symmetric part stays above
    0.5 - 0.5|d| + H|d|^power > 0, so the VI has one solution."""
    T = rng.standard_normal((d, d, d))
    T = 0.5 * (T + T.transpose(0, 2, 1))
    T *= 0.5 / np.linalg.norm(T)
    B = rng.standard_normal((d, d))
    J = B @ B.T / d + 0.2 * (B - B.T) + 0.5 * np.eye(d)
    base = QuadraticModel(anchor, rng.standard_normal(d), J,
                          lambda o, z, dirs: np.einsum("ijk,j,k...->i...", T, *dirs))
    return RegularizedModel(base, power, H)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(SETS)),
       power=st.sampled_from([0.0, 0.5, 1.0, 2.0]), H=st.floats(0.2, 5.0),
       order=st.sampled_from([2, 3]))
def test_default_path_agrees_with_peg_on_random_models(seed, kind, power, H, order):
    # the default path (semismooth Newton on every set and order) against
    # projected extragradient
    rng = np.random.default_rng(seed)
    d, tol = 4, 1e-10
    fs = SETS[kind](rng, d)
    anchor = fs.sample(rng, 1)[0]
    if order == 2:
        m = random_model(rng, d, power, H, anchor=anchor)
    else:
        # the order-3 regularizer power is 1 + nu, here nu = power / 2
        m = random_order3_model(rng, d, 1.0 + power / 2, 0.5 + H, anchor)
    peg = solve_model_vi(m, fs, tol, prefer="peg")
    assert peg.residual <= tol
    sol = solve_model_vi(m, fs, tol)
    assert sol.method == "newton"
    assert sol.residual <= tol
    assert np.linalg.norm(peg.point - sol.point) <= 1e-6


def test_indefinite_jacobian_warns_and_falls_back():
    J = np.array([[0.0, 1.2], [-1.0, 0.0]])  # symmetric part has eig -0.1
    m = RegularizedModel(LinearModel(np.zeros(2), np.array([0.4, -0.2]), J),
                         1.0, 2.0)
    with pytest.warns(RuntimeWarning, match="negative symmetric part"):
        sol = solve_model_vi(m, Ball(2, np.zeros(2), 0.5), 1e-10)
    assert sol.method == "peg"
    assert sol.residual <= 1e-10


def test_exhausted_budget_raises():
    m = scalar_model(1.0, 1.0, 2.0)
    with pytest.raises(SubproblemFailure, match="residual"):
        solve_model_vi(m, Box(1, np.array([-1.0]), np.array([1.0])), 1e-12,
                       prefer="peg", peg_max_evals=3)
