"""Core types: point validation, operators, feasible sets, config."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holder_vi.core import (
    ADAPTIVE_METHODS,
    METHODS,
    Ball,
    Box,
    Operator,
    SolverConfig,
    WholeSpace,
    as_point,
    check_monotone,
    estimate_holder_constant,
    holder_ratio_max,
)
from holder_vi.errors import (
    ConfigError,
    EvaluationError,
    UnboundedGapError,
    UnsupportedOrder,
)


def identity_op(d):
    return Operator(dim=d, fn=lambda z: z.copy(), jac_fn=lambda z: np.eye(d))


# ---------------------------------------------------------------- as_point

def test_as_point_coerces_lists():
    v = as_point([1, 2, 3])
    assert v.dtype == np.float64
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])


def test_as_point_rejects_matrix():
    with pytest.raises(EvaluationError):
        as_point(np.zeros((2, 2)))


def test_as_point_rejects_wrong_dim():
    with pytest.raises(EvaluationError):
        as_point([1.0, 2.0], dim=3)


def test_as_point_rejects_nan_and_inf():
    with pytest.raises(EvaluationError):
        as_point([np.nan, 0.0])
    with pytest.raises(EvaluationError):
        as_point([np.inf, 0.0])


# ---------------------------------------------------------------- Operator

def test_operator_value_and_jacobian_shapes():
    op = identity_op(3)
    z = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(op.value(z), z)
    np.testing.assert_array_equal(op.jacobian(z), np.eye(3))


def test_operator_rejects_bad_value_shape():
    op = Operator(dim=2, fn=lambda z: np.zeros(3), jac_fn=lambda z: np.eye(2))
    with pytest.raises(EvaluationError):
        op.value(np.zeros(2))


def test_operator_rejects_nonfinite_jacobian():
    op = Operator(dim=2, fn=lambda z: z, jac_fn=lambda z: np.full((2, 2), np.nan))
    with pytest.raises(EvaluationError):
        op.jacobian(np.zeros(2))


def test_deriv_apply_order_one_uses_jacobian():
    op = Operator(dim=2, fn=lambda z: z, jac_fn=lambda z: np.diag([2.0, 3.0]))
    out = op.deriv_apply(1, np.zeros(2), (np.array([1.0, 1.0]),))
    np.testing.assert_allclose(out, [2.0, 3.0])


def test_deriv_apply_without_oracle_raises():
    with pytest.raises(UnsupportedOrder):
        identity_op(2).deriv_apply(2, np.zeros(2), (np.ones(2), np.ones(2)))


# ------------------------------------------------------------ feasible sets

def test_whole_space_projection_is_identity():
    ws = WholeSpace(3)
    z = np.array([5.0, -7.0, 0.0])
    np.testing.assert_array_equal(ws.project(z), z)
    assert ws.diameter == np.inf


def test_whole_space_support_unbounded():
    ws = WholeSpace(2)
    np.testing.assert_array_equal(ws.support_argmax(np.zeros(2)), np.zeros(2))
    with pytest.raises(UnboundedGapError):
        ws.support_argmax(np.array([1.0, 0.0]))


def test_ball_projection_inside_and_outside():
    b = Ball(2, np.array([1.0, 0.0]), 2.0)
    inside = np.array([2.0, 0.5])
    np.testing.assert_array_equal(b.project(inside), inside)
    out = b.project(np.array([5.0, 0.0]))
    np.testing.assert_allclose(out, [3.0, 0.0])


def test_ball_support_is_scaled_direction():
    b = Ball(2, np.zeros(2), 3.0)
    np.testing.assert_allclose(b.support_argmax(np.array([0.0, -2.0])), [0.0, -3.0])
    np.testing.assert_array_equal(b.support_argmax(np.zeros(2)), np.zeros(2))
    assert b.diameter == 6.0


def test_ball_rejects_bad_radius():
    with pytest.raises(ConfigError):
        Ball(2, np.zeros(2), 0.0)


def test_box_projection_clips():
    bx = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(bx.project(np.array([3.0, -5.0])), [1.0, -1.0])


def test_box_support_ties_go_to_upper_corner():
    bx = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(bx.support_argmax(np.array([0.0, -1.0])), [1.0, -1.0])
    assert bx.diameter == pytest.approx(2.0 * np.sqrt(2.0))


def test_box_rejects_crossed_bounds():
    with pytest.raises(ConfigError):
        Box(1, np.array([1.0]), np.array([0.0]))


def test_samples_land_inside(rng):
    for fs in (Ball(3, np.array([1.0, 0.0, 0.0]), 0.7),
               Box(3, -np.ones(3), 2.0 * np.ones(3))):
        pts = fs.sample(rng, 200)
        assert pts.shape == (200, 3)
        assert all(fs.contains(p) for p in pts)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_ball_projection_idempotent_and_feasible(coords):
    b = Ball(2, np.array([0.5, -0.5]), 1.25)
    p = b.project(np.array(coords))
    assert b.contains(p, tol=1e-12)
    np.testing.assert_allclose(b.project(p), p, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-1, 1), min_size=2, max_size=2))
def test_support_dominates_interior_points(g, z):
    # <g, argmax> >= <g, z> for every feasible z
    g = np.array(g)
    bx = Box(2, -np.ones(2), np.ones(2))
    z = bx.project(np.array(z))
    assert g @ bx.support_argmax(g) >= g @ z - 1e-12


NORMAL_MAP_POINTS = {
    # box coordinates 0 and 2 inside, 1 below and 3 above, all 0.2 from an edge
    "box": (Box(4, -np.ones(4), np.ones(4)), np.array([0.3, -1.5, -0.8, 1.2])),
    "ball-inside": (Ball(2, np.array([0.5, -0.2]), 1.5), np.array([0.9, 0.4])),
    "ball-outside": (Ball(2, np.array([0.5, -0.2]), 1.5), np.array([-1.5, 1.6])),
    "whole": (WholeSpace(3), np.array([0.3, -2.0, 5.0])),
}


@pytest.mark.parametrize("case", sorted(NORMAL_MAP_POINTS))
def test_normal_map_jacobian_matches_finite_difference(rng, case):
    # away from kinks the normal map x -> JM P(x) + q + x - P(x) of an
    # affine model is differentiable, with Jacobian JM JP + I - JP
    fs, x = NORMAL_MAP_POINTS[case]
    d, h = x.shape[0], 1e-7
    JM, q = rng.standard_normal((d, d)), rng.standard_normal(d)

    def r(y):
        return JM @ fs.project(y) + q + y - fs.project(y)

    fd = np.stack([(r(x + h * e) - r(x - h * e)) / (2.0 * h) for e in np.eye(d)],
                  axis=1)
    np.testing.assert_allclose(fs.normal_map_jacobian(x.copy(), JM.copy()), fd,
                               atol=1e-6)


# ------------------------------------------------------------- SolverConfig

def test_config_defaults_resolve_inner_tol():
    cfg = SolverConfig(method="extragradient", eps=1e-6)
    assert cfg.inner_tol == 1e-10
    cfg2 = SolverConfig(method="extragradient", eps=1e-8)
    assert cfg2.inner_tol == pytest.approx(1e-12)


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError):
        SolverConfig(method="newton")


def test_config_rejects_bad_nu():
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", nu=1.5)


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", K=0)
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", eps=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", p=1)
    with pytest.raises(ConfigError):
        SolverConfig(method="nu-aren", H0=1.0, p=3)
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", max_doublings=0)
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", gap_cadence=0)
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", step=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(method="extragradient", inner_tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(method="nu-ren", H=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(method="uren", H0=0.0)
    inf, nan = float("inf"), float("nan")
    for key in ("H", "H0", "eps", "inner_tol", "step", "report_radius"):
        for bad in (inf, nan):
            with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
                SolverConfig(method="nu-ren", **{"H": 1.0, key: bad})
    for bad in (-1, 0.5):
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            SolverConfig(method="extragradient", seed=bad)


def test_config_is_frozen():
    cfg = SolverConfig(method="nu-aren", H0=1.0)
    with pytest.raises(FrozenInstanceError):
        cfg.H0 = 2.0


def test_config_method_requirements():
    with pytest.raises(ConfigError):
        SolverConfig(method="nu-ren")  # no H
    for m in ADAPTIVE_METHODS:
        with pytest.raises(ConfigError):
            SolverConfig(method=m)  # no H0
    assert SolverConfig(method="nu-ren", H=1.0).H == 1.0
    assert SolverConfig(method="uren", H0=1.0).H0 == 1.0


def test_method_lists_consistent():
    assert set(ADAPTIVE_METHODS) < set(METHODS)
    assert "extragradient" in METHODS


# ------------------------------------------------------- sampled diagnostics

def test_check_monotone_accepts_power(power_nu1):
    res = check_monotone(power_nu1.operator, power_nu1.feasible, n_samples=100)
    assert res.passed
    assert res.worst >= -1e-12


def test_check_monotone_flags_reversed_field():
    d = 3
    op = Operator(dim=d, fn=lambda z: -z, jac_fn=lambda z: -np.eye(d))
    res = check_monotone(op, Ball(d, np.zeros(d), 1.0), n_samples=50)
    assert not res.passed
    assert res.worst < 0.0


def test_holder_ratio_on_origin_pairs_hits_supremum(power_nu1):
    # pairs through the origin attain |J(z) - J(0)| / |z| = 1 + nu
    op = power_nu1.operator
    pairs = [(np.array([t, 0.0, 0.0, 0.0, 0.0]), np.zeros(5))
             for t in (0.25, 0.5, 1.0)]
    ratio = holder_ratio_max(op, pairs, 1.0)
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_holder_ratio_skips_degenerate_pairs():
    op = identity_op(2)
    assert holder_ratio_max(op, [(np.zeros(2), np.zeros(2))], 1.0) == 0.0


def test_estimated_constant_stays_below_declared(power_nu_half):
    est = estimate_holder_constant(power_nu_half.operator,
                                   power_nu_half.feasible, 0.5,
                                   n_samples=300)
    assert 0.0 < est <= power_nu_half.declared_H
