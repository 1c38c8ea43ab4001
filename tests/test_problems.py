"""Problem constructors, declared constants, and the mini-grammar."""

import numpy as np
import pytest

from holder_vi.core import Ball, Box
from holder_vi.errors import ConfigError
from holder_vi.metrics import gap_upper_bound
from holder_vi.problems import (
    default_start,
    make_bilinear,
    make_piecewise,
    make_power,
    make_quartic_saddle,
    parse_problem,
    problem_families,
)

ALL = ["power_nu1", "bilinear", "quartic", "piecewise"]


@pytest.fixture
def instances(power_nu1, bilinear, quartic, piecewise):
    return [power_nu1, bilinear, quartic, piecewise]


# -------------------------------------------------------------------- power

def test_power_vanishes_at_origin(power_nu1):
    np.testing.assert_array_equal(power_nu1.operator.value(np.zeros(5)),
                                  np.zeros(5))
    np.testing.assert_array_equal(power_nu1.solution, np.zeros(5))


def test_power_jacobian_at_unit_vector(power_nu1):
    e1 = np.eye(5)[0]
    np.testing.assert_allclose(power_nu1.operator.jacobian(e1),
                               np.diag([2.0, 1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(power_nu1.operator.jacobian(np.zeros(5)),
                                  np.zeros((5, 5)))


def test_power_declared_constant_is_padded_closed_form(power_nu1):
    assert 1.9 < power_nu1.declared_H <= 2.0 * (1.0 + 1e-6)
    assert power_nu1.declared_H > 2.0  # strict pad above the supremum


def test_power_rejects_nu_zero_pointing_to_piecewise():
    with pytest.raises(ConfigError, match="piecewise"):
        make_power(5, 0.0, 1.0)


def test_power_rejects_bad_shape_args():
    with pytest.raises(ConfigError):
        make_power(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        make_power(5, 1.0, 0.0)
    with pytest.raises(ConfigError):
        make_power(5, 1.5, 1.0)


# ----------------------------------------------------------------- bilinear

def test_bilinear_jacobian_is_constant_skew(bilinear):
    rng = np.random.default_rng(1)
    z = bilinear.feasible.sample(rng, 1)[0]
    J = bilinear.operator.jacobian(z)
    np.testing.assert_array_equal(J, bilinear.operator.jacobian(np.zeros(10)))
    np.testing.assert_allclose(J + J.T, np.zeros((10, 10)), atol=1e-15)


def test_bilinear_solution_is_interior_zero_of_f(bilinear):
    sol = bilinear.solution
    assert np.linalg.norm(bilinear.operator.value(sol)) <= 1e-9
    assert np.linalg.norm(sol) == pytest.approx(0.3, abs=1e-9)


def test_bilinear_with_singular_coupling_has_certified_solution():
    # scale 0 makes A, and with it F, vanish: every point solves the VI
    inst = make_bilinear(6, 0.0, 1.0, 0)
    np.testing.assert_array_equal(inst.operator.value(inst.solution), np.zeros(6))
    assert inst.feasible.contains(inst.solution)
    gap = gap_upper_bound(inst.operator, inst.feasible, inst.solution).gap_upper
    assert gap == 0.0


def test_bilinear_second_derivative_vanishes(bilinear):
    z = np.ones(10) * 0.1
    u, v = np.ones(10), np.arange(10.0)
    np.testing.assert_array_equal(
        bilinear.operator.deriv_apply(2, z, (u, v)), np.zeros(10))
    with pytest.raises(ConfigError):
        bilinear.operator.deriv_apply(3, z, (u, v, u))


def test_bilinear_declared_constants_zero(bilinear):
    assert bilinear.declared_H == 0.0
    assert bilinear.declared_H_p3 == 0.0


def test_bilinear_rejects_odd_dimension():
    with pytest.raises(ConfigError):
        make_bilinear(7, 1.0, 1.0, 0)


# ------------------------------------------------------------------ quartic

def test_quartic_jacobian_block_structure(quartic):
    z = np.array([1.0, 0.0, 0.0, 0.0])
    J = quartic.operator.jacobian(z)
    np.testing.assert_allclose(J[:2, :2], np.diag([3.0, 1.0]))
    np.testing.assert_allclose(J[2:, 2:], np.zeros((2, 2)))
    np.testing.assert_allclose(J[:2, 2:], -J[2:, :2].T)


def test_quartic_second_derivative_matches_finite_difference(quartic, rng):
    op = quartic.operator
    z = 0.4 * rng.standard_normal(4)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    h = 1e-6
    fd = (op.jacobian(z + h * v) @ u - op.jacobian(z - h * v) @ u) / (2.0 * h)
    np.testing.assert_allclose(op.deriv_apply(2, z, (u, v)), fd, atol=1e-6)


def test_quartic_declared_constants(quartic):
    assert quartic.declared_H == pytest.approx(6.0, rel=1e-9)
    assert quartic.declared_H_p3 == pytest.approx(6.0, rel=1e-9)
    assert quartic.declared_H > 6.0  # padded above the exact norm


def test_quartic_rejects_odd_dimension():
    with pytest.raises(ConfigError):
        make_quartic_saddle(3, 1.0, 0)


# ---------------------------------------------------------------- piecewise

def test_piecewise_saturates_outside_band(piecewise):
    z = np.array([0.2, 0.5, 0.75, -0.9, 0.0])
    np.testing.assert_allclose(piecewise.operator.value(z),
                               [0.2, 0.5, 0.5, -0.5, 0.0])


def test_piecewise_jacobian_jump_within_declared(piecewise):
    op = piecewise.operator
    inside = np.full(5, 0.45)
    outside = np.full(5, 0.55)
    jump = np.linalg.norm(op.jacobian(inside) - op.jacobian(outside), 2)
    assert jump == pytest.approx(1.0)
    assert jump <= piecewise.declared_H * (1.0 + 1e-9)
    assert piecewise.declared_H == 2.0  # 2 L exactly, no pad needed


def test_piecewise_feasible_is_box(piecewise):
    fs = piecewise.feasible
    assert isinstance(fs, Box)
    np.testing.assert_array_equal(fs.lower, -np.ones(5))
    np.testing.assert_array_equal(fs.upper, np.ones(5))


def test_piecewise_rejects_bad_args():
    with pytest.raises(ConfigError):
        make_piecewise(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        make_piecewise(5, 0.0, 1.0)


# ------------------------------------------------------------ default_start

def test_default_start_feasible_and_deterministic(instances):
    for inst in instances:
        a = default_start(inst, seed=0)
        b = default_start(inst, seed=0)
        c = default_start(inst, seed=1)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a - c) > 0.0
        assert inst.feasible.contains(a)


def test_default_start_sits_at_offset_radius(power_nu1):
    # ball of radius 1: 0.45 * diameter = 0.9 lands strictly inside
    start = default_start(power_nu1)
    assert np.linalg.norm(start) == pytest.approx(0.9)


# ------------------------------------------------------------- mini-grammar

def test_parse_defaults_per_family():
    inst = parse_problem("power")
    assert inst.operator.dim == 5
    assert isinstance(inst.feasible, Ball)
    assert parse_problem("piecewise").operator.dim == 5


def test_parse_overrides_and_whitespace():
    inst = parse_problem("power: d=3, nu=0.5, r=2.0")
    assert inst.operator.dim == 3
    assert inst.declared_nu == 0.5
    assert inst.feasible.radius == 2.0


def test_parse_alias_maps_to_quartic():
    inst = parse_problem("quartic_saddle:d=4,seed=2")
    assert inst.name.startswith("quartic:")


def test_parse_errors_name_the_offender():
    with pytest.raises(ConfigError, match="unknown problem family"):
        parse_problem("cubic")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_problem("power:gamma=1")
    with pytest.raises(ConfigError, match="bad value"):
        parse_problem("power:d=five")
    with pytest.raises(ConfigError, match="malformed"):
        parse_problem("power:d")
    for text in ("power:r=inf", "power:nu=nan", "bilinear:d=4,scale=nan",
                 "piecewise:L=-inf"):
        with pytest.raises(ConfigError, match="not finite"):
            parse_problem(text)
    for family in ("bilinear", "quartic"):
        with pytest.raises(ConfigError, match="seed >= 0"):
            parse_problem(f"{family}:d=4,seed=-1")


def test_instance_names_round_trip(instances):
    for inst in instances:
        again = parse_problem(inst.name)
        assert again.name == inst.name
        assert again.operator.dim == inst.operator.dim


def test_family_listing():
    assert problem_families() == ("power", "bilinear", "quartic", "piecewise")


def test_notes_record_constant_provenance(instances):
    for inst in instances:
        assert inst.notes
