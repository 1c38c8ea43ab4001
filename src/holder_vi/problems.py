"""Test problems with known ground truth.

Each constructor returns a ``ProblemInstance`` bundling the operator, the
feasible set, declared smoothness constants, and (when available) the
exact solution.  Declared constants come from closed forms; the sampling
oracle settings that confirmed them are recorded in ``notes`` so the
checks are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .core import Array, Ball, Box, FeasibleSet, Operator
from .errors import ConfigError
from .model import LinearModel, RegularizedModel
from .subproblem import solve_model_vi

# Declared constants sit a hair above their closed-form suprema so that
# measured ratios never exceed them through rounding alone.
_DECLARED_PAD = 1.0 + 1e-12


@dataclass(frozen=True)
class ProblemInstance:
    """Operator + set + declared constants, ready for a solver run.

    Attributes
    ----------
    name : str
        Canonical ``family:key=val,...`` string, parseable by
        ``parse_problem``.
    operator, feasible :
        The map F and the set Z.
    declared_nu, declared_H : float
        Advertised Holder exponent and constant of the Jacobian over the
        set.
    declared_H_p3 : float, optional
        Advertised Lipschitz constant of the second derivative, present
        only when the operator carries a third-order oracle.
    diameter : float
        Diameter of the feasible set.
    solution : array, optional
        Exact solution when known.
    notes : str
        Provenance of the declared constants (closed form and the oracle
        settings that confirmed them).
    """

    name: str
    operator: Operator
    feasible: FeasibleSet
    declared_nu: float
    declared_H: float
    diameter: float
    solution: Optional[Array] = None
    declared_H_p3: Optional[float] = None
    notes: str = ""


def _check_floats(family: str, positive: tuple, **params: float) -> None:
    """ConfigError at the first ``parse_problem`` key not finite, or not > 0 if in ``positive``."""
    for key, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"bad value {value!r} for key {key!r}: not finite")
        if key in positive and not value > 0:
            raise ConfigError(f"{family} problem needs {key} > 0, got {value}")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def make_power(d: int, nu: float, radius: float) -> ProblemInstance:
    """F(z) = |z|^nu z on the ball of the given radius.

    The gradient of the convex |z|^{2+nu}/(2+nu), so monotone, with
    Jacobian |z|^nu (I + nu zz^T/|z|^2) whose Holder-nu constant over any
    ball is exactly 1+nu (attained by pairs through the origin).  The
    solution is z* = 0.
    """
    if d < 1:
        raise ConfigError(f"power problem needs d >= 1, got {d}")
    _check_floats("power", ("r",), nu=nu, r=radius)
    if not (0.0 < nu <= 1.0):
        raise ConfigError(
            f"power problem needs nu in (0, 1], got {nu}; use the piecewise "
            "family for the nu = 0 regime")

    def fn(z):
        return math.sqrt(z @ z) ** nu * z

    def jac(z):
        n = math.sqrt(z @ z)
        if n == 0.0:
            return np.zeros((d, d))
        u = z / n
        return n ** nu * (np.eye(d) + nu * np.outer(u, u))

    H = (1.0 + nu) * _DECLARED_PAD
    op = Operator(dim=d, fn=fn, jac_fn=jac, nu=nu, holder_const=H)
    name = f"power:d={d},nu={_fmt(nu)},r={_fmt(radius)}"
    return ProblemInstance(
        name=name, operator=op, feasible=Ball(d, np.zeros(d), radius),
        declared_nu=nu, declared_H=H, diameter=2.0 * radius,
        solution=np.zeros(d),
        notes=f"H = (1+nu)(1+1e-12) = {H!r}, closed form; ratio oracle over "
              "1e4 sampled pairs (seed 0) stays below it")


def make_bilinear(d: int, scale: float, radius: float, seed: int) -> ProblemInstance:
    """Saddle field F(x, y) = (Ay + a, -A^T x - b) on a centered ball.

    A is dense Gaussian (entries scaled by ``scale``); a, b are chosen so
    the stationary point sits at 0.3 radius from the center.  The
    solution comes from the inner solver run on F itself, an exact model,
    which also covers a singular A.  Constant Jacobian, so the declared
    Holder constant is 0 for every exponent.
    """
    if d < 2 or d % 2:
        raise ConfigError(f"bilinear problem needs even d >= 2, got {d}")
    _check_floats("bilinear", ("r",), scale=scale, r=radius)
    if seed < 0:
        raise ConfigError(f"bilinear problem needs seed >= 0, got {seed}")
    m = d // 2
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((m, m))
    target = rng.standard_normal(d)
    target *= 0.3 * radius / np.linalg.norm(target)
    a = -A @ target[m:]
    b = -A.T @ target[:m]
    M = np.zeros((d, d))
    M[:m, m:] = A
    M[m:, :m] = -A.T
    q = np.concatenate([a, -b])

    def fn(z):
        return M @ z + q

    def jac(z):
        return M.copy()

    def deriv(order, z, dirs):
        if order != 2:
            raise ConfigError(f"bilinear oracle supports order 2 only, got {order}")
        return np.zeros((d, *np.shape(dirs[-1])[1:]))

    feasible = Ball(d, np.zeros(d), radius)
    exact = RegularizedModel(LinearModel(np.zeros(d), q, M), 1.0, 0.0)
    sol = solve_model_vi(exact, feasible, 1e-12).point

    op = Operator(dim=d, fn=fn, jac_fn=jac, deriv_fn=deriv, nu=1.0,
                  holder_const=0.0, holder_const_p3=0.0)
    name = f"bilinear:d={d},scale={_fmt(scale)},r={_fmt(radius)},seed={seed}"
    return ProblemInstance(
        name=name, operator=op, feasible=feasible, declared_nu=1.0,
        declared_H=0.0, diameter=2.0 * radius, solution=sol,
        declared_H_p3=0.0,
        notes="H = 0 for every nu, constant Jacobian (all higher "
              "derivatives vanish); solution certified to natural residual "
              "1e-12 by the inner solver on the exact model")


def make_quartic_saddle(d: int, radius: float, seed: int) -> ProblemInstance:
    """Gradient field of x^T A y + |x|^4/4 - |y|^4/4 on a centered ball.

    F(x, y) = (Ay + |x|^2 x, -A^T x + |y|^2 y): a Lipschitz-Jacobian
    saddle field whose nonlinearity lives on the block diagonal.  Carries
    the second-derivative oracle needed by third-order methods; the
    second derivative is linear in z, so its Lipschitz constant is the
    norm of the constant third derivative, exactly 6.
    """
    if d < 2 or d % 2:
        raise ConfigError(f"quartic problem needs even d >= 2, got {d}")
    _check_floats("quartic", ("r",), r=radius)
    if seed < 0:
        raise ConfigError(f"quartic problem needs seed >= 0, got {seed}")
    m = d // 2
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))

    def fn(z):
        x, y = z[:m], z[m:]
        return np.concatenate([A @ y + (x @ x) * x, -A.T @ x + (y @ y) * y])

    def jac(z):
        x, y = z[:m], z[m:]
        J = np.zeros((d, d))
        J[:m, m:] = A
        J[m:, :m] = -A.T
        J[:m, :m] = (x @ x) * np.eye(m) + 2.0 * np.outer(x, x)
        J[m:, m:] = (y @ y) * np.eye(m) + 2.0 * np.outer(y, y)
        return J

    def block_d2(w, u, v):
        # v is a vector or an (m, k) matrix of directions; outer() covers both
        return 2.0 * ((w @ u) * v + np.multiply.outer(u, w @ v) + np.multiply.outer(w, u @ v))

    def deriv(order, z, dirs):
        if order != 2:
            raise ConfigError(f"quartic oracle supports order 2 only, got {order}")
        u, v = dirs
        return np.concatenate([block_d2(z[:m], u[:m], v[:m]),
                               block_d2(z[m:], u[m:], v[m:])])

    H = 6.0 * radius * _DECLARED_PAD
    H3 = 6.0 * _DECLARED_PAD
    op = Operator(dim=d, fn=fn, jac_fn=jac, deriv_fn=deriv, nu=1.0,
                  holder_const=H, holder_const_p3=H3)
    name = f"quartic:d={d},r={_fmt(radius)},seed={seed}"
    return ProblemInstance(
        name=name, operator=op, feasible=Ball(d, np.zeros(d), radius),
        declared_nu=1.0, declared_H=H, diameter=2.0 * radius,
        solution=np.zeros(d), declared_H_p3=H3,
        notes=f"H = 6r(1+1e-12) = {H!r}, supremum over collinear boundary "
              f"pairs; H_3 = 6(1+1e-12) = {H3!r} = |D^3 F|; 1e4-pair ratio "
              "oracles (seed 0) stay below both")


def make_piecewise(d: int, L: float, radius: float) -> ProblemInstance:
    """Coordinate-wise saturating field F_i(z) = L clip(z_i, -s, s) on a box.

    Slope L inside the band |z_i| <= s = radius/2, flat outside, so F is
    L-Lipschitz with a Jacobian jump of spectral norm L across the band
    edge: the nu = 0 regime with constant 2L.  The box [-radius, radius]^d
    keeps the kink strictly inside the set and away from the solution 0.
    """
    if d < 1:
        raise ConfigError(f"piecewise problem needs d >= 1, got {d}")
    _check_floats("piecewise", ("L", "r"), L=L, r=radius)
    s = 0.5 * radius

    def fn(z):
        return L * np.clip(z, -s, s)

    def jac(z):
        return np.diag(np.where(np.abs(z) <= s, L, 0.0))

    H = 2.0 * L
    op = Operator(dim=d, fn=fn, jac_fn=jac, nu=0.0, holder_const=H)
    lo = np.full(d, -radius)
    hi = np.full(d, radius)
    name = f"piecewise:d={d},L={_fmt(L)},r={_fmt(radius)}"
    return ProblemInstance(
        name=name, operator=op, feasible=Box(d, lo, hi),
        declared_nu=0.0, declared_H=H,
        diameter=float(np.linalg.norm(hi - lo)), solution=np.zeros(d),
        notes=f"nu = 0 with H = 2L = {H!r}: the Jacobian jump across the "
              "band edge |z_i| = r/2 has spectral norm L, and the secant "
              "bound doubles it")


def default_start(instance: ProblemInstance, seed: int = 0) -> Array:
    """Deterministic off-center starting point inside the feasible set.

    Projects center + 0.45 * diameter * (seeded unit direction), far
    enough out to make early iterations informative on every family.
    """
    fs = instance.feasible
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(fs.dim)
    u /= np.linalg.norm(u)
    if isinstance(fs, Box):
        center = 0.5 * (fs.lower + fs.upper)
    elif isinstance(fs, Ball):
        center = fs.center
    else:
        center = np.zeros(fs.dim)
    return fs.project(center + 0.45 * instance.diameter * u)


# family name -> (builder, {key: (python type, default)})
_FAMILIES: Dict[str, tuple] = {
    "power": (make_power, {"d": (int, 5), "nu": (float, 1.0), "r": (float, 1.0)}),
    "bilinear": (make_bilinear, {"d": (int, 10), "scale": (float, 1.0),
                                 "r": (float, 1.0), "seed": (int, 0)}),
    "quartic": (make_quartic_saddle, {"d": (int, 4), "r": (float, 1.0),
                                      "seed": (int, 0)}),
    "piecewise": (make_piecewise, {"d": (int, 5), "L": (float, 1.0),
                                   "r": (float, 1.0)}),
}

_ALIASES = {"quartic_saddle": "quartic", "quartic-saddle": "quartic"}


def problem_families():
    """Names accepted by parse_problem, in declaration order."""
    return tuple(_FAMILIES)


def parse_problem(text: str) -> ProblemInstance:
    """Build an instance from a ``family:key=val,key=val`` string.

    Keys omitted fall back to family defaults; unknown families or keys
    raise ConfigError naming the offender.
    """
    head, _, tail = text.partition(":")
    family = _ALIASES.get(head.strip(), head.strip())
    if family not in _FAMILIES:
        raise ConfigError(
            f"unknown problem family {head.strip()!r}; expected one of "
            f"{', '.join(_FAMILIES)}")
    builder, keyspec = _FAMILIES[family]
    kwargs = {k: default for k, (_, default) in keyspec.items()}
    if tail.strip():
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"malformed problem parameter {item!r}")
            if key not in keyspec:
                raise ConfigError(
                    f"unknown key {key!r} for problem family {family!r}; "
                    f"accepted: {', '.join(keyspec)}")
            typ = keyspec[key][0]
            try:
                kwargs[key] = typ(raw.strip())
            except ValueError as exc:
                raise ConfigError(
                    f"bad value {raw.strip()!r} for key {key!r}") from exc
    # every family has the key r; builders name the radius argument in full
    kwargs["radius"] = kwargs.pop("r")
    return builder(**kwargs)
