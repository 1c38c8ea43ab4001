"""Inner solver for the regularized model VI.

``solve_model_vi`` is the one entry for every ``RegularizedModel``, of
order 2 (linear base) or 3 (quadratic base), on every set.  It runs
semismooth Newton on Robinson's normal map.  On a ball, a second-order
model is first solved on the whole space: that point is the answer when
it lies in the ball, and otherwise it starts the ball's Newton.  When
Newton's answer is not certified, a projected extragradient (PEG) loop
is the fallback, as it is for second-order models whose Jacobian has a
negative symmetric part.  Accuracy is always certified by the
natural-map residual |u - P(u - M(u))|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, Ball, Box, FeasibleSet, WholeSpace
from .errors import DegenerateRegularization, SubproblemFailure
from .model import LinearModel, RegularizedModel

_PEG_MAX_EVALS = 40_000
_NEWTON_MAX_STEPS = 50
# Armijo: accept x + a s, a = 1, 1/2, 1/4, ..., once |r| drops by the
# factor 1 - _ARMIJO a; Newton has stalled when _ARMIJO_TRIALS fail
_ARMIJO = 1e-4
_ARMIJO_TRIALS = 21


@dataclass
class SubproblemSolution:
    point: Array
    residual: float
    evals: int
    method: str
    # ball constraints: t >= 0 with M(u) = -t (u - center), as |x - u| / r
    multiplier: Optional[float] = None


def natural_residual(model: Callable[[Array], Array], feasible: FeasibleSet,
                     u: Array) -> float:
    """Unit-step natural map residual |u - P(u - M(u))|."""
    return _residual_at(feasible, u, model(u))


def _residual_at(feasible: FeasibleSet, u: Array, Mu: Array) -> float:
    r = u - feasible.project(u - Mu)
    return math.sqrt(r @ r)


def gamma_of(H: float, nu: float, step_norm: float) -> float:
    """Regularization strength H * t^nu at step length t (0^0 = 1)."""
    if step_norm < 0:
        raise ValueError("step_norm must be nonnegative")
    if H < 0:
        raise ValueError("H must be nonnegative")
    return H * step_norm ** nu


def prox_step(z: Array, g: Array, gamma: float, feasible: FeasibleSet) -> Array:
    """Projected step P(z - g / gamma)."""
    if not gamma > 0:
        raise DegenerateRegularization(f"prox step with gamma={gamma}")
    return feasible.project(z - g / gamma)


def _newton(model, feasible: FeasibleSet, tol: float, x: Array):
    """Backtracked Newton steps on the normal map from x.

    Returns (x, u = P(x), M(u), steps, why Newton stopped).
    """

    def normal_map(x):
        u = feasible.project(x)
        Mu = model(u)
        r = Mu + x - u
        return u, Mu, r, math.sqrt(r @ r)

    u, Mu, r, rn = normal_map(x)
    steps = 0
    reason = "normal-map residual met the tolerance"
    while steps < _NEWTON_MAX_STEPS:
        G = feasible.normal_map_jacobian(x, model.jacobian_at(u))
        try:
            s = np.linalg.solve(G, -r)
        except np.linalg.LinAlgError:
            reason = "singular Newton matrix"
            break
        steps += 1
        a = 1.0
        for _ in range(_ARMIJO_TRIALS):
            x_new = x + a * s
            u_new, Mu_new, r_new, rn_new = normal_map(x_new)
            if rn_new <= (1.0 - _ARMIJO * a) * rn:
                break
            a *= 0.5
        else:
            reason = "backtracking stalled"
            break
        cut = rn_new <= 0.1 * rn
        x, u, Mu, r, rn = x_new, u_new, Mu_new, r_new, rn_new
        if cut and rn <= tol:
            break
    else:
        reason = f"{_NEWTON_MAX_STEPS} steps"
    return x, u, Mu, steps, reason


def newton_normal_map(model: RegularizedModel, feasible: FeasibleSet,
                      tol: float) -> Optional[SubproblemSolution]:
    """Semismooth Newton on Robinson's normal map of the model VI.

    Works on a regularized model of either base.  With u = P(x), the
    normal map r(x) = M(u) + x - u vanishes exactly when u solves the VI;
    the Newton matrix is JM(u) JP(x) + I - JP(x), and steps are
    backtracked (Armijo) on |r|.  The start is x0 = anchor - M(anchor).
    Newton stops once |r| <= tol right after a step that cut |r| at least
    tenfold (so slowly converging degenerate roots keep refining), or when
    the backtracking stalls.  Since P is nonexpansive, |r| bounds the
    natural residual at u, which certifies the answer; the certificate
    reuses the M(u) of Newton's last normal-map evaluation.

    A second-order model on a ball is first solved on the whole space,
    which the normal map's kink at the sphere cannot trap: near-skew
    models with an interior solution stall the ball's Newton at |r| ~ 0.1.
    That point is the answer when it lies in the ball and certifies there
    (multiplier 0); otherwise the ball's Newton starts from it.

    Returns None, after a RuntimeWarning, when the natural residual stays
    above ``tol``; the caller then falls back to projected extragradient.
    ``evals`` counts Newton steps.
    """
    x = model.anchor - model(model.anchor)
    steps = 0
    if isinstance(feasible, Ball) and isinstance(model.base, LinearModel):
        x, u, Mu, steps, _ = _newton(model, WholeSpace(feasible.dim), tol, x)
        w = u - feasible.center
        if w @ w <= feasible.radius ** 2:
            res = _residual_at(feasible, u, Mu)
            if res <= tol:
                return SubproblemSolution(point=u, residual=res, evals=steps,
                                          method="newton", multiplier=0.0)
    x, u, Mu, more, reason = _newton(model, feasible, tol, x)
    steps += more
    res = _residual_at(feasible, u, Mu)
    if res <= tol:
        multiplier = None
        if isinstance(feasible, Ball):
            v = x - u
            multiplier = math.sqrt(v @ v) / feasible.radius
        return SubproblemSolution(point=u, residual=res, evals=steps,
                                  method="newton", multiplier=multiplier)
    warnings.warn(f"semismooth Newton stopped ({reason}) at residual {res:g} > "
                  f"{tol:g}; falling back to projected extragradient",
                  RuntimeWarning)
    return None


def _beta0_for(model: RegularizedModel, feasible: FeasibleSet) -> float:
    anchor, H, power = model.anchor, model.H, model.power
    if isinstance(feasible, Ball):
        dmax = float(np.linalg.norm(anchor - feasible.center)) + feasible.radius
    elif isinstance(feasible, Box):
        dmax = float(np.linalg.norm(np.maximum(np.abs(feasible.lower - anchor),
                                               np.abs(feasible.upper - anchor))))
    else:
        # whole space: solutions satisfy H|d|^(1+power) <= |c| |d|, roughly
        c_norm = float(np.linalg.norm(model.base.value))
        dmax = 3.0 * (c_norm / max(H, 1e-30)) ** (1.0 / (1.0 + power)) + 1.0
    lip = model.base.jacobian_norm + H * (1.0 + power) * dmax ** power
    return 1.0 / (1.0 + lip)


def peg_callable(model: Callable[[Array], Array], feasible: FeasibleSet,
                 start: Array, tol: float, max_evals: int, beta0: float):
    """Projected extragradient with backtracked step on a callable model.

    The one PEG loop; the inner solver reaches it through
    ``peg_regularized``.  The residual uses a unit step,
    |u - P(u - M(u))|.  Returns (point, residual, evals).
    """
    u = np.asarray(start, dtype=np.float64).copy()
    beta = beta0
    evals = 0
    res = np.inf
    while evals < max_evals:
        Fu = model(u)
        evals += 1
        res = float(np.linalg.norm(u - feasible.project(u - Fu)))
        if res <= tol:
            return u, res, evals
        while True:
            v = feasible.project(u - beta * Fu)
            Fv = model(v)
            evals += 1
            dn = float(np.linalg.norm(v - u))
            if dn == 0.0:
                return u, res, evals
            # 0.7 < 1/sqrt(2), the contraction threshold for extragradient
            if beta * float(np.linalg.norm(Fv - Fu)) <= 0.7 * dn:
                break
            beta *= 0.5
            if beta < 1e-18 or evals >= max_evals:
                return u, res, evals
        u = feasible.project(u - beta * Fv)
        beta = min(beta * 1.05, beta0)
    return u, res, evals


def peg_regularized(start: Array, model: RegularizedModel, feasible: FeasibleSet,
                    tol: float, max_evals: int, beta0: float):
    """peg_callable on a regularized model of either order: the one PEG call
    site of the inner solver, under a name of its own so that the fallback
    can be timed and counted apart from other ``peg_callable`` uses."""
    return peg_callable(model, feasible, start, tol, max_evals, beta0)


def solve_model_vi(model: RegularizedModel, feasible: FeasibleSet,
                   inner_tol: float, prefer: Optional[str] = None,
                   peg_max_evals: int = _PEG_MAX_EVALS) -> SubproblemSolution:
    """Solve the VI of a regularized model of order 2 or 3 over the set.

    For a linear base, a check that the Jacobian's symmetric part is not
    negative (read from the base's cache, so one eigendecomposition
    serves every trial of a line search); then semismooth Newton on the
    normal map, then projected extragradient from the anchor when
    Newton's answer is not certified.  A negative symmetric part (with a
    RuntimeWarning on every solve) or ``prefer='peg'`` goes to projected
    extragradient directly; ``prefer`` takes no other value than None.
    Raises SubproblemFailure when the natural-map residual cannot be
    brought below ``inner_tol``.
    """
    if prefer not in (None, "peg"):
        raise ValueError(f"prefer must be None or 'peg', got {prefer!r}")
    base = model.base
    sym_min = base.sym_min_eig if isinstance(base, LinearModel) else None
    if sym_min is not None and sym_min < -1e-8 * (1.0 + base.jacobian_norm):
        warnings.warn(f"model Jacobian has negative symmetric part "
                      f"({sym_min:g}); using projected extragradient",
                      RuntimeWarning)
        prefer = "peg"
    if prefer is None:
        sol = newton_normal_map(model, feasible, inner_tol)
        if sol is not None:
            return sol
    u, res, evals = peg_regularized(model.anchor, model, feasible, inner_tol,
                                    peg_max_evals, _beta0_for(model, feasible))
    if res > inner_tol:
        raise SubproblemFailure(
            f"projected extragradient stopped at residual {res:g} > "
            f"{inner_tol:g} after {evals} model evaluations")
    return SubproblemSolution(point=u, residual=res, evals=evals, method="peg")
