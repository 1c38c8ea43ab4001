"""Gap certificates, slope fits, closed-form constants, bound verdicts."""

from collections import namedtuple

import numpy as np
import pytest

from holder_vi.core import Ball, Box, Operator, WholeSpace
from holder_vi.errors import RateFitError, UnboundedGapError
from holder_vi.metrics import (
    FAIL,
    FLAG,
    INFO,
    NOT_APPLICABLE,
    PASS,
    Verdict,
    bound_verdicts,
    c_nu_constant,
    fit_rate_slope,
    gap_upper_bound,
    grid_gap_max,
    tensor_universal_cap,
    universal_cap,
)
from holder_vi.problems import make_power

Rec = namedtuple("Rec", "i_k H_k")


def const_op(c):
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    return Operator(dim=d, fn=lambda z: c.copy(),
                    jac_fn=lambda z: np.zeros((d, d)))


# ------------------------------------------------------------ certificates

def test_gap_on_box_is_l1_norm():
    # constant field (1, 2) at the center of [-1, 1]^2: the support point
    # is the opposite corner, gap = |c|_1 = 3
    cert = gap_upper_bound(const_op([1.0, 2.0]), Box(2, -np.ones(2), np.ones(2)),
                           np.zeros(2))
    assert cert.gap_upper == pytest.approx(3.0)
    np.testing.assert_allclose(cert.witness, [-1.0, -1.0])


def test_gap_on_ball_is_radius_times_norm():
    cert = gap_upper_bound(const_op([0.0, 3.0]), Ball(2, np.zeros(2), 2.0),
                           np.zeros(2))
    assert cert.gap_upper == pytest.approx(6.0)
    np.testing.assert_allclose(cert.witness, [0.0, -2.0])


def test_gap_nonnegative_at_feasible_points(rng):
    inst = make_power(2, 1.0, 1.0)
    for z in inst.feasible.sample(rng, 50):
        cert = gap_upper_bound(inst.operator, inst.feasible, z)
        assert cert.gap_upper >= -1e-15


def test_gap_unbounded_set_raises():
    with pytest.raises(UnboundedGapError):
        gap_upper_bound(const_op([1.0, 0.0]), WholeSpace(2), np.zeros(2))


def test_grid_max_recovers_constant_field_gap():
    op = const_op([1.0, 2.0])
    box = Box(2, -np.ones(2), np.ones(2))
    point = np.zeros(2)
    grid = grid_gap_max(op, box, point, n=201)
    cert = gap_upper_bound(op, box, point)
    assert grid == pytest.approx(cert.gap_upper, abs=1e-12)


def test_grid_max_never_exceeds_certificate(rng):
    inst = make_power(2, 0.5, 1.0)
    point = inst.feasible.sample(rng, 1)[0]
    grid = grid_gap_max(inst.operator, inst.feasible, point, n=100)
    cert = gap_upper_bound(inst.operator, inst.feasible, point)
    assert grid <= cert.gap_upper + 1e-6


def test_grid_max_rejects_other_dimensions():
    with pytest.raises(ValueError):
        grid_gap_max(const_op([1.0] * 3), Ball(3, np.zeros(3), 1.0), np.zeros(3))


# --------------------------------------------------------------- rate fits

def test_fit_recovers_exact_power_laws():
    grid = [16.0, 32.0, 64.0, 128.0, 256.0]
    assert fit_rate_slope([(K, K ** -1.5) for K in grid]) == pytest.approx(
        -1.5, abs=1e-10)
    assert fit_rate_slope([(K, 7.0 * K ** -1.0) for K in grid]) == pytest.approx(
        -1.0, abs=1e-10)
    assert fit_rate_slope([(K, K ** -1.25) for K in grid]) == pytest.approx(
        -1.25, abs=1e-10)


def test_fit_drops_nonpositive_gaps_with_warning():
    grid = [16.0, 32.0, 64.0, 128.0, 256.0]
    pts = [(K, K ** -2.0) for K in grid] + [(512.0, 0.0)]
    with pytest.warns(RuntimeWarning, match="nonpositive gap"):
        slope = fit_rate_slope(pts)
    assert slope == pytest.approx(-2.0, abs=1e-10)


def test_fit_needs_four_surviving_points():
    with pytest.raises(RateFitError):
        fit_rate_slope([(16.0, 1.0), (32.0, 0.5), (64.0, 0.25)])
    with pytest.warns(RuntimeWarning):
        with pytest.raises(RateFitError):
            fit_rate_slope([(16.0, 1.0), (32.0, 0.5), (64.0, 0.25),
                            (128.0, -1.0)])


def test_fit_requires_increasing_k():
    with pytest.raises(RateFitError):
        fit_rate_slope([(16.0, 1.0), (16.0, 0.5), (64.0, 0.25), (128.0, 0.1)])


# ---------------------------------------------------------------- constants

def test_analysis_constant_closed_forms():
    assert c_nu_constant(1.0) == pytest.approx(0.96875)
    assert c_nu_constant(0.0) == pytest.approx(0.875)


def test_universal_cap_is_eps_free_at_nu_one():
    # the (1/eps)^((1-nu)/(1+nu)) factor degenerates at nu = 1: cap = H/2
    assert universal_cap(1.0, 3.0, 5.0, 1e-3) == pytest.approx(1.5)
    assert universal_cap(1.0, 3.0, 5.0, 1e-9) == pytest.approx(1.5)


def test_universal_cap_grows_as_eps_shrinks_below_lipschitz():
    assert universal_cap(0.5, 1.0, 1.0, 1e-6) > universal_cap(0.5, 1.0, 1.0, 1e-2)


def test_tensor_cap_diverges_at_nu_one():
    with pytest.raises(ValueError):
        tensor_universal_cap(3, 1.0, 1.0 / 6.0, 1.0, 1.0, 1e-3)
    assert tensor_universal_cap(3, 0.5, 4.0 / 15.0, 1.0, 1.0, 1e-3) > 0.0


# ----------------------------------------------------------------- verdicts

def test_verdict_ok_property():
    assert Verdict(PASS).ok and Verdict(FLAG).ok
    assert Verdict(NOT_APPLICABLE).ok and Verdict(INFO).ok
    assert not Verdict(FAIL).ok


def test_fixed_method_verdicts_not_applicable():
    out = bound_verdicts([Rec(0, 2.0)], "nu-ren", 1.0, 2.0, 2.0, None, 1e-6)
    assert out["C_nu"].status == INFO
    for key in ("H_bound", "oracle_budget", "universal_cap"):
        assert out[key].status == NOT_APPLICABLE


def test_adaptive_verdicts_pass():
    recs = [Rec(0, 1.0)] * 10
    out = bound_verdicts(recs, "nu-aren", 1.0, 2.0, 2.0, 1.0, 1e-6)
    assert out["H_bound"].status == PASS
    assert out["H_bound"].bound == pytest.approx(2.0)  # 2 H / (1 + nu)
    assert out["oracle_budget"].status == PASS
    assert out["oracle_budget"].measured == 10.0
    assert out["universal_cap"].status == NOT_APPLICABLE


def test_adaptive_h_state_flag_and_fail_zones():
    flag = bound_verdicts([Rec(0, 6.0)], "nu-aren", 1.0, 2.0, 2.0, 1.0, 1e-6)
    assert flag["H_bound"].status == FLAG
    fail = bound_verdicts([Rec(0, 100.0)], "nu-aren", 1.0, 2.0, 2.0, 1.0, 1e-6)
    assert fail["H_bound"].status == FAIL


def test_adaptive_budget_overrun_fails():
    out = bound_verdicts([Rec(10, 1.0)], "nu-aren", 1.0, 2.0, 2.0, 1.0, 1e-6)
    # spent 11 against 2*1 + log2(2) - log2(1) + 1 = 4
    assert out["oracle_budget"].status == FAIL
    assert out["oracle_budget"].measured == 11.0


def test_adaptive_notes_h0_above_guarantee():
    out = bound_verdicts([Rec(0, 1.0)], "nu-aren", 1.0, 2.0, 2.0, 10.0, 1e-6)
    assert "H0 above the guaranteed range" in out["H_bound"].note


def test_degenerate_declared_constant_is_not_applicable():
    out = bound_verdicts([Rec(0, 1.0)], "nu-aren", 1.0, 0.0, 2.0, 1.0, 1e-6)
    assert out["H_bound"].status == NOT_APPLICABLE
    assert out["oracle_budget"].status == NOT_APPLICABLE


def test_universal_cap_verdict_paths():
    recs = [Rec(0, 1.0)] * 5
    ok = bound_verdicts(recs, "uren", 1.0, 2.0, 2.0, 1.0, 1e-6)
    assert ok["universal_cap"].status in (PASS, FLAG)
    assert ok["H_bound"].status == NOT_APPLICABLE

    early = bound_verdicts(recs, "uren", 1.0, 2.0, 2.0, 1.0, 1e-6,
                           early_exit=True)
    assert early["universal_cap"].status == NOT_APPLICABLE

    lipschitz_p3 = bound_verdicts(recs, "uret", 1.0, 2.0, 2.0, 1.0, 1e-6,
                                  p=3)
    assert lipschitz_p3["universal_cap"].status == NOT_APPLICABLE
    assert "diverges" in lipschitz_p3["universal_cap"].note
