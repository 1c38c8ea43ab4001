"""Linearization and the radial regularizer."""

import numpy as np
import pytest

from holder_vi.core import Operator
from holder_vi.model import (
    LinearModel,
    QuadraticModel,
    RegularizedModel,
    build_linear_model,
    build_quadratic_model,
    remainder_bound,
)
from holder_vi.problems import make_power, make_quartic_saddle
from holder_vi.solvers import CountedOperator, Counters


def test_linear_model_identity_fixture():
    # F = id at anchor 0: model is exact, model(e1) = e1
    op = Operator(dim=2, fn=lambda z: z.copy(), jac_fn=lambda z: np.eye(2))
    m = build_linear_model(op, np.zeros(2))
    np.testing.assert_allclose(m(np.array([1.0, 0.0])), [1.0, 0.0])


def test_linear_model_power_fixture():
    # |z| z at anchor (1,0): F = (1,0), J = diag(2,1), so the model at the
    # origin is (1,0) + diag(2,1)(-1,0) = (-1,0)
    inst = make_power(2, 1.0, 2.0)
    m = build_linear_model(inst.operator, np.array([1.0, 0.0]))
    np.testing.assert_allclose(m.value, [1.0, 0.0])
    np.testing.assert_allclose(m.jacobian, np.diag([2.0, 1.0]))
    np.testing.assert_allclose(m(np.zeros(2)), [-1.0, 0.0], atol=1e-15)


def test_regularized_model_equals_operator_at_anchor():
    inst = make_power(3, 0.5, 1.0)
    z = np.array([0.3, -0.2, 0.1])
    base = build_linear_model(inst.operator, z)
    for power in (0.0, 0.5, 1.0):
        m = RegularizedModel(base, power, 4.0)
        np.testing.assert_allclose(m(z), inst.operator.value(z), atol=1e-15)


def test_regularized_model_scalar_coefficient_fixture():
    # F(z) = z, anchor 1, nu = 1, coefficient 2H = 2:
    # value at 0.5 is 1 + (-0.5) + 2 * 0.5 * (-0.5) = 0
    base = LinearModel(anchor=np.array([1.0]), value=np.array([1.0]),
                       jacobian=np.eye(1))
    m = RegularizedModel(base, 1.0, 2.0)
    assert m(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)


def test_regularized_model_power_zero_constant_coefficient():
    # power 0: the radial factor is H for every step, including zero (0^0=1)
    base = LinearModel(anchor=np.zeros(1), value=np.array([1.0]),
                       jacobian=np.zeros((1, 1)))
    m = RegularizedModel(base, 0.0, 3.0)
    assert m(np.array([0.0]))[0] == pytest.approx(1.0)
    assert m(np.array([2.0]))[0] == pytest.approx(1.0 + 3.0 * 2.0)


def test_remainder_bound_values():
    assert remainder_bound(1.0, 2.0, 1.0) == pytest.approx(1.0)
    assert remainder_bound(0.5, 3.0, 0.0) == 0.0
    assert remainder_bound(0.0, 2.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        remainder_bound(1.0, 2.0, -0.1)


def test_remainder_bound_monotone_in_step():
    steps = np.linspace(0.0, 2.0, 50)
    vals = [remainder_bound(0.5, 1.7, s) for s in steps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_remainder_bound_attained_by_origin_pair():
    # |z| z between (1,0) and (0,0): the actual remainder norm equals the
    # bound 2/(1+1) * 1 exactly, so the closed-form constant is tight
    inst = make_power(2, 1.0, 2.0)
    z = np.array([1.0, 0.0])
    m = build_linear_model(inst.operator, z)
    actual = np.linalg.norm(inst.operator.value(np.zeros(2)) - m(np.zeros(2)))
    assert actual == pytest.approx(remainder_bound(1.0, 2.0, 1.0), rel=1e-14)


def test_remainder_below_bound_on_sampled_pairs(rng):
    inst = make_power(4, 0.5, 1.0)
    op, fs = inst.operator, inst.feasible
    zs = fs.sample(rng, 200)
    zps = fs.sample(rng, 200)
    for z, zp in zip(zs, zps):
        m = build_linear_model(op, z)
        rem = float(np.linalg.norm(op.value(zp) - m(zp)))
        bound = remainder_bound(0.5, op.holder_const, float(np.linalg.norm(zp - z)))
        assert rem <= bound + 1e-12 * (1.0 + bound)


def test_vanishing_h_recovers_linearization():
    inst = make_power(3, 1.0, 1.0)
    z = np.array([0.2, 0.1, -0.3])
    base = build_linear_model(inst.operator, z)
    tiny = RegularizedModel(base, 1.0, 1e-14)
    probe = np.array([0.9, -0.4, 0.2])
    assert np.linalg.norm(tiny(probe) - base(probe)) <= 1e-10


def central_difference(fn, z, h=1e-6):
    cols = [(fn(z + h * e) - fn(z - h * e)) / (2.0 * h) for e in np.eye(z.shape[0])]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("power", [0.0, 0.5, 1.0, 2.0])
def test_regularized_jacobian_matches_finite_difference(rng, power):
    d = 4
    B = rng.standard_normal((d, d))
    anchor = rng.standard_normal(d)
    m = RegularizedModel(LinearModel(anchor, rng.standard_normal(d), B), power, 1.7)
    z = anchor + 0.6 * rng.standard_normal(d)  # away from the kink at the anchor
    np.testing.assert_allclose(m.jacobian_at(z), central_difference(m, z),
                               atol=1e-7)


def test_regularized_jacobian_at_anchor_uses_zero_power_one():
    # 0^0 = 1: with power 0 the radial term is H d, Jacobian J + H I, also at d = 0
    J = np.array([[1.0, 2.0], [0.0, 3.0]])
    anchor = np.array([0.5, -0.5])
    m0 = RegularizedModel(LinearModel(anchor, np.zeros(2), J), 0.0, 2.0)
    np.testing.assert_array_equal(m0.jacobian_at(anchor), J + 2.0 * np.eye(2))
    m1 = RegularizedModel(LinearModel(anchor, np.zeros(2), J), 1.0, 2.0)
    np.testing.assert_array_equal(m1.jacobian_at(anchor), J)


def summed_jacobian(base, power, H, z):
    """The regularized Jacobian as the plain sum J + c I + beta d d^T."""
    d = z - base.anchor
    nd = np.sqrt(d @ d)
    out = base.jacobian_at(z) + (H * nd ** power) * np.eye(d.shape[0])
    if nd > 0.0 and power != 0.0:
        out += (H * power * nd ** (power - 2.0)) * np.outer(d, d)
    return out


@pytest.mark.parametrize("dim", [1, 3, 64])
@pytest.mark.parametrize("power", [0.0, 0.5, 1.0, 2.0])
def test_regularized_jacobian_is_bit_identical_to_the_plain_sum(rng, dim, power):
    # D2F[u, v] of F(z) = z^3 (elementwise), for a vector or a matrix v
    op = Operator(dim=dim, fn=lambda z: z ** 3, jac_fn=lambda z: np.diag(3.0 * z ** 2),
                  deriv_fn=lambda order, z, dirs: (6.0 * z * dirs[0] * dirs[1].T).T)
    anchor = rng.standard_normal(dim)
    J = rng.standard_normal((dim, dim))
    bases = [LinearModel(anchor, rng.standard_normal(dim), J),
             QuadraticModel(anchor, rng.standard_normal(dim), J.copy(),
                            deriv=op.deriv_apply)]
    for base in bases:
        before = base.jacobian.copy()
        base.workspace.fill(np.nan)
        for z in (anchor.copy(), anchor + 0.7 * rng.standard_normal(dim)):
            m = RegularizedModel(base, power, 1.3)
            got = m.jacobian_at(z)
            assert np.array_equal(got, summed_jacobian(base, power, 1.3, z))
            assert got is not base.jacobian
            assert got is base.workspace
            assert base.jacobian.tobytes() == before.tobytes()


def test_quadratic_jacobian_is_one_second_derivative_call(rng):
    # J + D2F[d, .] from one oracle call on the identity, column j equal to
    # J[:, j] + D2F[d, e_j]
    op = make_quartic_saddle(64, 1.0, 0).operator
    counted = CountedOperator(op, Counters())
    anchor, z = 0.1 * rng.standard_normal(64), 0.1 * rng.standard_normal(64)
    model = build_quadratic_model(counted, anchor)
    jac = model.jacobian_at(z)
    assert counted.counters.d_evals == 1
    for j, e in enumerate(np.eye(64)):
        column = op.deriv_apply(2, anchor, (z - anchor, e))
        assert np.array_equal(jac[:, j], model.jacobian[:, j] + column)
