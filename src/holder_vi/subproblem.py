"""Inner solver for the regularized model VI.

Whole-space and ball constraints go through a secular path: the model
stationarity condition (J + lam I) d = -c with lam = H*|d|^power reduces
to a scalar equation in lam, solved by a damped fixed point with a
bisection fallback.  A ball constraint adds a boundary multiplier t and a
nested scalar solve.  Boxes, secular breakdowns and order-3 models (on
every set) run semismooth Newton on Robinson's normal map; when Newton's
answer is not certified, a projected extragradient (PEG) loop is the
fallback, as it is for models with a negative symmetric part.  Accuracy
is always certified by the natural-map residual |u - P(u - M(u))|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, Ball, Box, FeasibleSet, WholeSpace
from .errors import DegenerateRegularization, SubproblemFailure
from .model import RegularizedModel

_BUDGET_UNCONSTRAINED = 200
_BUDGET_BOUNDARY = 600
_PEG_MAX_EVALS = 200_000
_NEWTON_MAX_STEPS = 50
# Armijo: accept x + a s, a = 1, 1/2, 1/4, ..., once |r| drops by the
# factor 1 - _ARMIJO a; Newton has stalled when _ARMIJO_TRIALS fail
_ARMIJO = 1e-4
_ARMIJO_TRIALS = 21


class _SecularBreakdown(Exception):
    """Internal: secular path cannot proceed, caller falls back."""


@dataclass
class SubproblemSolution:
    point: Array
    residual: float
    evals: int
    method: str
    lam: Optional[float] = None
    multiplier: Optional[float] = None


def natural_residual(model: Callable[[Array], Array], feasible: FeasibleSet,
                     u: Array) -> float:
    """Unit-step natural map residual |u - P(u - M(u))|."""
    return float(np.linalg.norm(u - feasible.project(u - model(u))))


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


class _Budget:
    def __init__(self, n: int):
        self.left = int(n)
        self.used = 0

    def spend(self):
        if self.left <= 0:
            raise _SecularBreakdown("shifted-solve budget exhausted")
        self.left -= 1
        self.used += 1


def _shifted_solve(J: Array, rhs: Array, s: float, budget: _Budget) -> Array:
    budget.spend()
    try:
        return np.linalg.solve(J + s * np.eye(J.shape[0]), -rhs)
    except np.linalg.LinAlgError as exc:
        raise _SecularBreakdown(f"singular shifted system at shift {s}") from exc


def _radial_lambda(J: Array, rhs: Array, H: float, power: float, tol: float,
                   budget: _Budget, lam_init: Optional[float] = None):
    """Solve (J + lam I) d = -rhs coupled with lam = H |d|^power.

    Returns (d, lam).  The implied whole-space residual is
    |H |d|^power - lam| * |d|, driven below tol/2.
    """
    dim = rhs.shape[0]
    if power == 0.0:
        return _shifted_solve(J, rhs, H, budget), H
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(dim), 0.0

    def probe(lam):
        d = _shifted_solve(J, rhs, lam, budget)
        nd = float(np.linalg.norm(d))
        return d, nd, H * nd ** power - lam

    lam = lam_init
    if lam is None or not lam > 0.0:
        d = _shifted_solve(J, rhs, 1.0, budget)
        lam = H * float(np.linalg.norm(d)) ** power
        if not lam > 0.0:
            lam = tol
    for _ in range(40):
        d, nd, psi = probe(lam)
        if abs(psi) * nd <= 0.5 * tol:
            return d, lam
        lam = lam + 0.5 * psi
        if not lam > 0.0:
            lam = 0.5 * (lam - 0.5 * psi)  # undo half the move, stay positive
            break

    # bisection fallback on psi(lam) = H|d(lam)|^power - lam, bracket grown
    # geometrically outward from [tol, 1]
    lo, hi = min(tol, lam), max(1.0, lam)
    d_lo, nd_lo, psi_lo = probe(lo)
    while psi_lo < 0.0:
        if abs(psi_lo) * nd_lo <= 0.5 * tol:
            return d_lo, lo
        lo *= 0.25
        if lo < 1e-300:
            return d_lo, lo
        d_lo, nd_lo, psi_lo = probe(lo)
    d_hi, nd_hi, psi_hi = probe(hi)
    while psi_hi > 0.0:
        if abs(psi_hi) * nd_hi <= 0.5 * tol:
            return d_hi, hi
        hi *= 4.0
        if hi > 1e300:
            raise _SecularBreakdown("no upper bracket for the radial equation")
        d_hi, nd_hi, psi_hi = probe(hi)
    best = (d_lo, lo, abs(psi_lo) * nd_lo)
    for _ in range(200):
        if nd_lo < nd_hi - 1e-8 * (1.0 + nd_hi):
            # |d(lam)| must not increase with lam on the bracket
            raise _SecularBreakdown("step norm not monotone across bracket")
        mid = np.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        d_m, nd_m, psi_m = probe(mid)
        err = abs(psi_m) * nd_m
        if err <= 0.5 * tol:
            return d_m, mid
        if err < best[2]:
            best = (d_m, mid, err)
        if psi_m >= 0.0:
            lo, d_lo, nd_lo, psi_lo = mid, d_m, nd_m, psi_m
        else:
            hi, d_hi, nd_hi, psi_hi = mid, d_m, nd_m, psi_m
        if hi - lo <= 1e-15 * hi:
            if best[2] <= tol:
                return best[0], best[1]
            raise _SecularBreakdown("radial bisection stalled above tolerance")
    raise _SecularBreakdown("radial bisection did not converge")


def _secular_whole(model: RegularizedModel, tol: float) -> SubproblemSolution:
    budget = _Budget(_BUDGET_UNCONSTRAINED)
    d, lam = _radial_lambda(model.base.jacobian, model.base.value, model.H,
                            model.power, tol, budget)
    u = model.anchor + d
    res = float(np.linalg.norm(model(u)))
    if res > tol:
        raise _SecularBreakdown(f"whole-space secular residual {res:g} > {tol:g}")
    return SubproblemSolution(point=u, residual=res, evals=budget.used,
                              method="secular", lam=lam)


def _secular_ball(model: RegularizedModel, feasible: Ball, tol: float) -> SubproblemSolution:
    c, J, anchor = model.base.value, model.base.jacobian, model.anchor
    H, power = model.H, model.power
    w = anchor - feasible.center
    r = feasible.radius
    budget = _Budget(_BUDGET_UNCONSTRAINED)
    d, lam = _radial_lambda(J, c, H, power, tol, budget)
    if np.linalg.norm(w + d) <= r * (1.0 + 1e-12):
        u = anchor + d
        res = natural_residual(model, feasible, u)
        if res > tol:
            raise _SecularBreakdown(f"interior secular residual {res:g} > {tol:g}")
        return SubproblemSolution(point=u, residual=res, evals=budget.used,
                                  method="secular", lam=lam, multiplier=0.0)

    # boundary case: (J + (lam + t) I) d = -(c + t w), |w + d| = r, t >= 0
    budget = _Budget(_BUDGET_BOUNDARY)
    eye_dim = np.eye(feasible.dim)

    def solve_at(t, lam_ws):
        d_t, lam_t = _radial_lambda(J + t * eye_dim, c + t * w, H, power,
                                    tol, budget, lam_ws)
        return d_t, lam_t, float(np.linalg.norm(w + d_t)) - r

    t_lo, phi_lo, lam_ws = 0.0, float(np.linalg.norm(w + d)) - r, lam
    t_hi = max(1.0, lam)
    while True:
        d_hi, lam_hi, phi_hi = solve_at(t_hi, lam_ws)
        if phi_hi <= 0.0:
            break
        lam_ws = lam_hi
        t_hi *= 4.0
        if t_hi > 1e18:
            raise _SecularBreakdown("no bracket for the boundary multiplier")
    best = None
    for _ in range(200):
        t_m = 0.5 * (t_lo + t_hi)
        d_m, lam_m, phi_m = solve_at(t_m, lam_ws)
        lam_ws = lam_m
        u = anchor + d_m
        res = natural_residual(model, feasible, u)
        if best is None or res < best[1]:
            best = (u, res, lam_m, t_m)
        if res <= 0.5 * tol:
            return SubproblemSolution(point=u, residual=res, evals=budget.used,
                                      method="secular", lam=lam_m, multiplier=t_m)
        if phi_m > 0.0:
            t_lo = t_m
        else:
            t_hi = t_m
        if t_hi - t_lo <= 1e-16 * (1.0 + t_hi):
            break
    if best is not None and best[1] <= tol:
        u, res, lam_m, t_m = best
        return SubproblemSolution(point=u, residual=res, evals=budget.used,
                                  method="secular", lam=lam_m, multiplier=t_m)
    raise _SecularBreakdown("boundary bisection stalled above tolerance")


def newton_normal_map(model, feasible: FeasibleSet,
                      tol: float) -> Optional[SubproblemSolution]:
    """Semismooth Newton on Robinson's normal map of the model VI.

    Works on any model with ``__call__`` and ``jacobian_at``.  With
    u = P(x), the normal map r(x) = M(u) + x - u vanishes exactly when u
    solves the VI; the Newton matrix is JM(u) JP(x) + I - JP(x), and steps
    are backtracked (Armijo) on |r|.  The start is x0 = anchor - M(anchor).
    Newton stops once |r| <= tol right after a step that cut |r| at least
    tenfold (so slowly converging degenerate roots keep refining), or when
    the backtracking stalls.  Since P is nonexpansive, |r| bounds the
    natural residual at u, which certifies the answer.  Returns None,
    after a RuntimeWarning, when that residual stays above ``tol``; the
    caller then falls back to projected extragradient.  ``evals`` counts
    Newton steps.
    """

    def normal_map(x):
        u = feasible.project(x)
        r = model(u) + x - u
        return u, r, float(np.linalg.norm(r))

    anchor = model.anchor
    x = anchor - model(anchor)
    u, r, rn = normal_map(x)
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
            u_new, r_new, rn_new = normal_map(x_new)
            if rn_new <= (1.0 - _ARMIJO * a) * rn:
                break
            a *= 0.5
        else:
            reason = "backtracking stalled"
            break
        cut = rn_new <= 0.1 * rn
        x, u, r, rn = x_new, u_new, r_new, rn_new
        if cut and rn <= tol:
            break
    else:
        reason = f"{_NEWTON_MAX_STEPS} steps"
    res = natural_residual(model, feasible, u)
    if res <= tol:
        return SubproblemSolution(point=u, residual=res, evals=steps,
                                  method="newton")
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
    lip = float(np.linalg.norm(model.base.jacobian)) + H * (1.0 + power) * dmax ** power
    return 1.0 / (1.0 + lip)


def peg_callable(model: Callable[[Array], Array], feasible: FeasibleSet,
                 start: Array, tol: float, max_evals: int, beta0: float):
    """Projected extragradient with backtracked step on a callable model.

    The one PEG loop: regularized first-order models (boxes and secular
    fallbacks) and third-order model closures both run through it.  The
    residual uses a unit step, |u - P(u - M(u))|.  Returns (point,
    residual, evals).
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
    """peg_callable on a regularized model, under a name of its own.

    Kept separate so that the first-order fallback can be timed and
    counted apart from the order-3 calls: ``_peg_model`` looks it up here.
    """
    return peg_callable(model, feasible, start, tol, max_evals, beta0)


def _peg_model(model: RegularizedModel, feasible: FeasibleSet, tol: float,
               max_evals: int) -> SubproblemSolution:
    u, res, evals = peg_regularized(model.anchor, model, feasible, tol,
                                    max_evals, _beta0_for(model, feasible))
    if res > tol:
        raise SubproblemFailure(
            f"projected extragradient stopped at residual {res:g} > {tol:g} "
            f"after {evals} model evaluations")
    return SubproblemSolution(point=u, residual=res, evals=evals, method="peg")


def solve_model_vi(model: RegularizedModel, feasible: FeasibleSet,
                   inner_tol: float, prefer: Optional[str] = None,
                   peg_max_evals: int = _PEG_MAX_EVALS) -> SubproblemSolution:
    """Solve the VI of the regularized model over the feasible set.

    Ball and whole-space constraints use the secular path; boxes, and
    secular breakdowns, use semismooth Newton.  Projected extragradient
    is the fallback when Newton's answer is not certified, and the only
    path for a model Jacobian with a negative symmetric part or under
    ``prefer='peg'``.  Raises SubproblemFailure when the natural-map
    residual cannot be brought below ``inner_tol``.
    """
    J = model.base.jacobian
    if J.shape[0] <= 400:
        sym_min = float(np.linalg.eigvalsh(0.5 * (J + J.T))[0])
        if sym_min < -1e-8 * (1.0 + float(np.linalg.norm(J))):
            warnings.warn(f"model Jacobian has negative symmetric part "
                          f"({sym_min:g}); using projected extragradient",
                          RuntimeWarning)
            prefer = "peg"
    if prefer != "peg":
        if isinstance(feasible, (WholeSpace, Ball)):
            try:
                if isinstance(feasible, WholeSpace):
                    return _secular_whole(model, inner_tol)
                return _secular_ball(model, feasible, inner_tol)
            except _SecularBreakdown as exc:
                warnings.warn(f"secular path abandoned ({exc}); "
                              f"falling back to semismooth Newton", RuntimeWarning)
        sol = newton_normal_map(model, feasible, inner_tol)
        if sol is not None:
            return sol
    return _peg_model(model, feasible, inner_tol, peg_max_evals)
