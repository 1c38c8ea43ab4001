"""Self-verification suite: named pass/fail checks over the problem suite.

Groups cover monotonicity, Taylor-remainder sweeps, declared-constant
sampling, Jacobian consistency, set geometry, subproblem fixtures and
cross-validation, the p = 2 reduction, theorem-bound verdicts, and gap
certificates.  The CLI prints the results as a table; the test suite
reads one full run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .core import Ball, Box, WholeSpace, check_monotone, estimate_holder_constant
from .errors import ConfigError
from .metrics import c_nu_constant, declared_ceiling, gap_upper_bound, grid_gap_max
from .model import (
    LinearModel,
    QuadraticModel,
    RegularizedModel,
    build_linear_model,
    build_quadratic_model,
)
from .problems import (
    ProblemInstance,
    default_start,
    make_bilinear,
    make_piecewise,
    make_power,
    make_quartic_saddle,
)
from .solvers import (
    SolverConfig,
    k_for_accuracy,
    run_nu_aren,
    run_nu_aret,
    run_uren,
    run_uret,
)
from .subproblem import solve_model_vi

GROUPS = ("monotone", "remainder", "holder", "jacobian", "geometry",
          "subproblem", "reduction", "bounds", "gap")

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


def suite_instances() -> List[ProblemInstance]:
    """The canonical instances every per-instance group runs over."""
    return [
        make_power(5, 0.5, 1.0),
        make_power(5, 1.0, 1.0),
        make_bilinear(10, 1.0, 1.0, 0),
        make_quartic_saddle(4, 1.0, 0),
        make_piecewise(5, 1.0, 1.0),
    ]


def planar_instances() -> List[ProblemInstance]:
    """2-D members of each family, used by the brute-force gap checks."""
    return [
        make_power(2, 0.5, 1.0),
        make_bilinear(2, 1.0, 1.0, 0),
        make_quartic_saddle(2, 1.0, 0),
        make_piecewise(2, 1.0, 1.0),
    ]


def remainder_sweep(inst: ProblemInstance, n_pairs: int = 10_000,
                    seed: int = 0, *, order: int = 2) -> float:
    """Worst violation of the Taylor bound of the given order (2 or 3).

    The remainder is |F(z') - base(z')| for the Taylor base the line
    search builds at z: linear at order 2, checked against
    H |d|^{1+nu}/(1+nu), quadratic at order 3, against
    c_{3,nu} H_3 |d|^{2+nu}; both scales are half of
    ``declared_ceiling``.  Returns max(remainder - bound - 1e-12 (1 +
    bound)) over sampled pairs; nonpositive means the sweep is clean.
    """
    op, fs = inst.operator, inst.feasible
    H = op.declared_const(order)
    if H is None:
        raise ConfigError(f"{inst.name} declares no third-order constant")
    build = build_quadratic_model if order == 3 else build_linear_model
    rng = np.random.default_rng(seed)
    zs = fs.sample(rng, n_pairs)
    zps = fs.sample(rng, n_pairs)
    scale = declared_ceiling(order, op.nu, H) / 2.0
    expo = order - 1.0 + op.nu
    worst = -np.inf
    for z, zp in zip(zs, zps):
        dn = float(np.linalg.norm(zp - z))
        if dn == 0.0:
            continue
        rem = float(np.linalg.norm(op.value(zp) - build(op, z)(zp)))
        bound = scale * dn ** expo
        worst = max(worst, rem - bound - 1e-12 * (1.0 + bound))
    return worst


def jacobian_fd_worst(inst: ProblemInstance, n_points: int = 100,
                      step: float = 1e-5, seed: int = 0) -> float:
    """Worst relative gap between the Jacobian oracle and central differences.

    Piecewise instances resample points whose coordinates come within
    10 * step of the band edge, so the difference stencil never straddles
    the kink.
    """
    op, fs = inst.operator, inst.feasible
    rng = np.random.default_rng(seed)
    kink = inst.name.startswith("piecewise")
    worst = 0.0
    n = 0
    while n < n_points:
        z = fs.sample(rng, 1)[0]
        if kink:
            s = 0.25 * fs.diameter / math.sqrt(op.dim)  # band edge r/2
            if np.any(np.abs(np.abs(z) - s) < 10.0 * step):
                continue
        n += 1
        J = op.jacobian(z)
        Jfd = np.empty_like(J)
        for j in range(op.dim):
            e = np.zeros(op.dim)
            e[j] = step
            Jfd[:, j] = (op.value(z + e) - op.value(z - e)) / (2.0 * step)
        denom = max(1.0, float(np.linalg.norm(J, 2)))
        worst = max(worst, float(np.linalg.norm(J - Jfd, 2)) / denom)
    return worst


def _scaled(insts: List[ProblemInstance], h_scale: float) -> List[ProblemInstance]:
    """The instances with each operator's H and H_3 times ``h_scale``."""
    if h_scale == 1.0:
        return insts
    scaled = []
    for i in insts:
        op = i.operator
        H3 = None if op.holder_const_p3 is None else op.holder_const_p3 * h_scale
        scaled.append(replace(i, operator=replace(
            op, holder_const=op.holder_const * h_scale, holder_const_p3=H3)))
    return scaled


def _check_geometry(out: List[CheckResult]) -> None:
    ball = Ball(2, np.zeros(2), 1.0)
    ok = (np.allclose(ball.project(np.array([2.0, 0.0])), [1.0, 0.0])
          and np.allclose(ball.support_argmax(np.array([3.0, 4.0])), [0.6, 0.8]))
    out.append(CheckResult("geometry", "ball project/support fixtures", ok,
                           "projection of (2,0) and support of (3,4) on the unit ball"))

    box = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    shift = _affine_op(2, np.zeros((2, 2)), np.array([1.0, -2.0]))
    cert = gap_upper_bound(shift, box, np.zeros(2))
    ok = abs(cert.gap_upper - 3.0) <= 1e-15
    out.append(CheckResult("geometry", "box gap certificate = l1 norm", ok,
                           f"center point, F=(1,-2): bound {cert.gap_upper!r} vs 3"))

    cert = gap_upper_bound(_linear_op(2, 2.0), ball, np.array([1.0, 0.0]))
    ok = abs(cert.gap_upper - 4.0) <= 1e-15
    out.append(CheckResult("geometry", "ball gap certificate fixture", ok,
                           f"point (1,0), F=(2,0): bound {cert.gap_upper!r} vs 4"))

    rng = np.random.default_rng(5)
    ok = True
    for fs in (ball, box):
        pts = fs.sample(rng, 200)
        for _ in range(50):
            g = rng.standard_normal(2)
            best = float(np.max(pts @ g))
            if float(fs.support_argmax(g) @ g) < best - 1e-12:
                ok = False
        proj = np.array([fs.project(p) for p in pts + rng.standard_normal((200, 2))])
        reproj = np.array([fs.project(p) for p in proj])
        if not np.allclose(proj, reproj, atol=1e-14):
            ok = False
    out.append(CheckResult("geometry", "support dominates samples, projection idempotent",
                           ok, "200 samples, 50 directions per set"))


def _linear_op(d: int, slope: float):
    from .core import Operator
    return Operator(dim=d, fn=lambda z: slope * z,
                    jac_fn=lambda z: slope * np.eye(d))


def _affine_op(d: int, M: np.ndarray, q: np.ndarray):
    from .core import Operator
    return Operator(dim=d, fn=lambda z: M @ z + q, jac_fn=lambda z: M.copy())


def _check_subproblem(out: List[CheckResult]) -> None:
    m = RegularizedModel(LinearModel(np.zeros(1), np.ones(1), np.eye(1)), 1.0, 1.0)
    s = solve_model_vi(m, WholeSpace(1), 1e-12)
    err = abs(abs(float(s.point[0])) - _GOLDEN)
    out.append(CheckResult("subproblem", "golden-ratio step fixture", err <= 1e-9,
                           f"|step| off by {err:.2e} ({s.method})"))

    m2 = RegularizedModel(LinearModel(np.zeros(2), np.array([1.0, 0.0]),
                                      np.zeros((2, 2))), 1.0, 1.0)
    s2 = solve_model_vi(m2, Ball(2, np.zeros(2), 0.5), 1e-12)
    err = float(np.linalg.norm(s2.point - np.array([-0.5, 0.0])))
    merr = abs(s2.multiplier - 1.5) if s2.multiplier is not None else np.inf
    out.append(CheckResult("subproblem", "ball boundary fixture",
                           err <= 1e-9 and merr <= 1e-6,
                           f"point off (-0.5, 0) by {err:.2e}, "
                           f"multiplier off 1.5 by {merr:.2e}"))

    m3 = RegularizedModel(LinearModel(np.array([1.0]), np.array([1.0]), np.eye(1)),
                          1.0, 2.0)
    s3 = solve_model_vi(m3, Box(1, np.array([-1.0]), np.array([1.0])), 1e-12)
    err = abs(float(s3.point[0]) - 0.5)
    out.append(CheckResult("subproblem", "scalar box half-step fixture", err <= 1e-9,
                           f"half step off 0.5 by {err:.2e} ({s3.method})"))

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        d = 10
        J = _psd_plus_skew(rng, d)
        c = rng.standard_normal(d)
        model = RegularizedModel(LinearModel(np.zeros(d), c, J), 0.5, 1.3)
        newton = solve_model_vi(model, WholeSpace(d), 1e-10)
        peg = solve_model_vi(model, WholeSpace(d), 1e-10, prefer="peg")
        worst = max(worst, float(np.linalg.norm(newton.point - peg.point)))
    out.append(CheckResult("subproblem", "newton vs extragradient, 100 random "
                           "d=10 whole-space", worst <= 1e-6,
                           f"worst point gap {worst:.2e}"))

    rng = np.random.default_rng(3)
    cases = []
    for _ in range(100):
        box = Box(10, -0.1 - rng.random(10), 0.1 + rng.random(10))
        cases.append((box, RegularizedModel(LinearModel(box.sample(rng, 1)[0],
                                                        rng.standard_normal(10),
                                                        _psd_plus_skew(rng, 10)),
                                            0.5, 1.3)))
    for _ in range(20):
        ball = Ball(4, rng.standard_normal(4), 1.0 + rng.random())
        cases.append((ball, _random_order3_model(rng, ball.sample(rng, 1)[0])))
    worst, methods = 0.0, set()
    for fs, model in cases:
        newton = solve_model_vi(model, fs, 1e-10)
        peg = solve_model_vi(model, fs, 1e-10, prefer="peg")
        methods.add(newton.method)
        worst = max(worst, float(np.linalg.norm(newton.point - peg.point)))
    out.append(CheckResult("subproblem", "newton vs extragradient, 100 d=10 boxes, "
                           "20 order-3 balls",
                           worst <= 1e-6 and methods == {"newton"},
                           f"worst point gap {worst:.2e}, paths {sorted(methods)}"))


def _psd_plus_skew(rng, d: int) -> np.ndarray:
    """Random Jacobian: PSD symmetric part plus a skew part."""
    B = rng.standard_normal((d, d))
    S = 0.3 * rng.standard_normal((d, d))
    return B @ B.T / d + (S - S.T)


def _random_order3_model(rng, anchor: np.ndarray) -> RegularizedModel:
    """Order-3 model with J - 0.5 I PSD-plus-skew, |D2F| = 0.5 and H >= 1,
    so the model is strongly monotone and its VI has one solution."""
    d = anchor.shape[0]
    T = rng.standard_normal((d, d, d))
    T = 0.5 * (T + T.transpose(0, 2, 1))
    T *= 0.5 / np.linalg.norm(T)
    base = QuadraticModel(anchor, rng.standard_normal(d),
                          _psd_plus_skew(rng, d) + 0.5 * np.eye(d),
                          lambda o, z, dirs: np.einsum("ijk,j,k...->i...", T, *dirs))
    return RegularizedModel(base, 1.0, 1.0 + rng.random())


def _run_difference(a, b) -> Optional[str]:
    """The first output two runs disagree on (wall time aside), or None."""
    if len(a.records) != len(b.records):
        return f"{len(a.records)} vs {len(b.records)} iterations"
    for x, y in zip(a.records, b.records):
        for name, value in vars(x).items():
            if name != "wall_ns" and not np.array_equal(value, getattr(y, name)):
                return f"{name} differs at k={x.k}"
    if a.final_gap != b.final_gap:
        return "final gap differs"
    return None


def _check_reduction(out: List[CheckResult]) -> None:
    inst = make_power(5, 0.5, 1.0)
    op, fs = inst.operator, inst.feasible
    z0, H0 = default_start(inst), op.holder_const / (1.0 + op.nu)
    pairs = (
        ("adaptive p=2 tensor matches second-order", run_nu_aren, run_nu_aret,
         "nu-aret", SolverConfig(method="nu-aren", nu=0.5, H0=H0, K=20, eps=1e-9)),
        ("universal p=2 tensor matches second-order", run_uren, run_uret,
         "uret", SolverConfig(method="uren", nu=0.5, H0=H0, K=20, eps=1e-30,
                              inner_tol=1e-10)),
    )
    for name, second, tensor, tensor_method, cfg in pairs:
        a = second(op, fs, z0, cfg)
        b = tensor(op, fs, z0, replace(cfg, method=tensor_method))
        diff = _run_difference(a, b)
        detail = diff or f"{len(a.records)} steps and final gap identical"
        out.append(CheckResult("reduction", name, diff is None, detail))


def _check_bounds(out: List[CheckResult], insts: List[ProblemInstance]) -> None:
    ok = c_nu_constant(1.0) == 0.96875 and c_nu_constant(0.0) == 0.875
    out.append(CheckResult("bounds", "averaging-constant closed forms", ok,
                           f"C(1) = {c_nu_constant(1.0)!r}, C(0) = {c_nu_constant(0.0)!r}"))

    ok = k_for_accuracy(1.0, 1.0, 1.0, 1e-3) == 200
    out.append(CheckResult("bounds", "iteration-recipe fixture", ok,
                           f"nu=1, H=D=1, eps=1e-3 -> {k_for_accuracy(1.0, 1.0, 1.0, 1e-3)}"))

    inst = insts[0]  # power nu=0.5
    op = inst.operator
    z0 = default_start(inst)
    H0 = declared_ceiling(2, op.nu, op.holder_const) / 2.0
    cfg = SolverConfig(method="nu-aren", nu=op.nu, H0=H0, K=30, eps=1e-6)
    res = run_nu_aren(op, inst.feasible, z0, cfg)
    hb = res.bound_checks["H_bound"]
    out.append(CheckResult("bounds", "adaptive coefficient stays below ceiling",
                           hb.status == "pass",
                           f"max state {hb.measured} vs ceiling {hb.bound} on {inst.name}"))
    ob = res.bound_checks["oracle_budget"]
    out.append(CheckResult("bounds", "doubling budget within closed form",
                           ob.status == "pass",
                           f"trials {ob.measured} vs budget {ob.bound}"))

    cfgu = SolverConfig(method="uren", nu=op.nu, H0=1.0, K=30,
                        eps=1e-30, inner_tol=1e-10)
    resu = run_uren(op, inst.feasible, z0, cfgu)
    uc = resu.bound_checks["universal_cap"]
    out.append(CheckResult("bounds", "universal trial coefficients below cap",
                           uc.status in ("pass", "flag"),
                           f"{uc.status}: measured {uc.measured} vs cap {uc.bound}"))


def _check_gap(out: List[CheckResult], insts: List[ProblemInstance]) -> None:
    for inst in insts:
        if inst.solution is None:
            continue
        g = gap_upper_bound(inst.operator, inst.feasible, inst.solution).gap_upper
        out.append(CheckResult("gap", f"solution certificate {inst.name}",
                               g <= 1e-8, f"gap bound at the solution {g:.2e}"))
    for inst in planar_instances():
        z0 = default_start(inst)
        op = inst.operator
        cfg = SolverConfig(method="nu-aren", nu=op.nu, H0=max(op.holder_const, 0.5),
                           K=12, eps=1e-6)
        res = run_nu_aren(op, inst.feasible, z0, cfg)
        zbar = res.averaged_point
        gu = gap_upper_bound(op, inst.feasible, zbar).gap_upper
        gm = grid_gap_max(op, inst.feasible, zbar, n=200)
        out.append(CheckResult("gap", f"grid vs certificate {inst.name}",
                               gm <= gu + 1e-6,
                               f"grid max {gm:.3e} vs bound {gu:.3e}"))


def run_checks(only: Optional[str] = None, h_scale: float = 1.0) -> List[CheckResult]:
    """Run the verification suite, optionally one group, optionally with
    the operators' declared constants rescaled (a negative control: 0.5
    must fail the remainder sweeps)."""
    if only is not None and only not in GROUPS:
        raise ConfigError(f"unknown check group {only!r}; expected one of "
                          f"{', '.join(GROUPS)}")
    insts = _scaled(suite_instances(), h_scale)
    out: List[CheckResult] = []

    def want(g):
        return only is None or only == g

    if want("monotone"):
        for inst in insts:
            mc = check_monotone(inst.operator, inst.feasible, n_samples=200, seed=1)
            out.append(CheckResult("monotone", f"pairwise products {inst.name}",
                                   mc.passed, f"worst inner product {mc.worst:+.2e}"))
    if want("remainder"):
        for inst in insts:
            w = remainder_sweep(inst)
            out.append(CheckResult("remainder", f"first-order sweep {inst.name}",
                                   w <= 0.0, f"worst slack-adjusted violation {w:+.2e}"))
        for inst in insts:
            if inst.operator.holder_const_p3 is not None:
                w = remainder_sweep(inst, order=3)
                out.append(CheckResult("remainder", f"second-order sweep {inst.name}",
                                       w <= 0.0, f"worst violation {w:+.2e}"))
    if want("holder"):
        for inst in insts:
            op = inst.operator
            est = estimate_holder_constant(op, inst.feasible, op.nu,
                                           n_samples=10_000, seed=0)
            ok = est <= op.holder_const * (1.0 + 1e-6)
            out.append(CheckResult("holder", f"sampled ratio {inst.name}", ok,
                                   f"estimate {est:.6g} vs declared {op.holder_const:.6g}"))
    if want("jacobian"):
        for inst in insts:
            w = jacobian_fd_worst(inst)
            out.append(CheckResult("jacobian", f"central differences {inst.name}",
                                   w <= 1e-6, f"worst relative gap {w:.2e}"))
    if want("geometry"):
        _check_geometry(out)
    if want("subproblem"):
        _check_subproblem(out)
    if want("reduction"):
        _check_reduction(out)
    if want("bounds"):
        _check_bounds(out, insts)
    if want("gap"):
        _check_gap(out, insts)
    return out


def all_passed(results: List[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_table(results: List[CheckResult]) -> str:
    wide = max(len(f"{r.group}/{r.name}") for r in results)
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"{tag}  {f'{r.group}/{r.name}':<{wide}}  {r.detail}")
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} checks passed")
    return "\n".join(lines)
