"""Higher-order Taylor models and the p-th order adaptive/universal runs.

The order-p model keeps Taylor terms up to degree p-1 and adds the radial
regularizer H |d|^power d.  p=2 runs are the second-order line-search
runs under the tensor method's name; p=3 models are solved by
projected extragradient on the model closure, with a damped-Newton polish
on whole-space instances to localize degenerate roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Array, FeasibleSet, Operator, SolverConfig, WholeSpace
from .errors import SubproblemFailure, UnsupportedOrder
from .linesearch import SearchMode, TrialRejected
from .model import LinearModel, RegularizedModel
from .solvers import RunResult, _drive, _search_step
from .subproblem import SubproblemSolution, peg_callable, solve_model_vi

_PEG_MAX_EVALS_TENSOR = 40_000


def c_p_nu(p: int, nu: float) -> float:
    """Taylor remainder constant (1/(p-2)!) * B(nu+1, p-1) = G(1+nu)/G(p+nu)."""
    if p < 2:
        raise ValueError(f"order must be >= 2, got {p}")
    if not (0.0 <= nu <= 1.0):
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return math.gamma(1.0 + nu) / math.gamma(p + nu)


@dataclass(frozen=True)
class TensorModel:
    """Degree-(p-1) Taylor expansion of F plus a radial regularizer."""

    anchor: Array
    order: int
    value: Array
    jacobian: Array
    deriv: Callable[[int, Array, tuple], Array]
    power: float
    H: float

    def taylor(self, z: Array) -> Array:
        d = z - self.anchor
        out = self.value + self.jacobian @ d
        fact = 1.0
        for i in range(2, self.order):
            fact *= i
            out = out + self.deriv(i, self.anchor, (d,) * i) / fact
        return out

    def __call__(self, z: Array) -> Array:
        d = z - self.anchor
        nd = float(np.linalg.norm(d))
        return self.taylor(z) + (self.H * nd ** self.power) * d

    def jacobian_at(self, z: Array) -> Array:
        """Jacobian of the full model; exact only for order <= 3."""
        if self.order > 3:
            raise UnsupportedOrder("model Jacobian implemented for p <= 3")
        d = z - self.anchor
        dim = d.shape[0]
        Jm = self.jacobian.copy()
        if self.order == 3:
            eye = np.eye(dim)
            for j in range(dim):
                Jm[:, j] += self.deriv(2, self.anchor, (d, eye[j]))
        nd = float(np.linalg.norm(d))
        if nd > 0.0:
            Jm += self.H * (nd ** self.power * np.eye(dim)
                            + self.power * nd ** (self.power - 2.0) * np.outer(d, d))
        return Jm


def make_tensor_model(op: Operator, z: Array, p: int, power: float, H: float):
    """Order-p regularized model at z; p=2 returns the second-order type."""
    if p == 2:
        base = LinearModel(anchor=np.asarray(z, dtype=np.float64),
                           value=op.value(z), jacobian=op.jacobian(z))
        return RegularizedModel(base, power, H)
    return TensorModel(anchor=np.asarray(z, dtype=np.float64), order=p,
                       value=op.value(z), jacobian=op.jacobian(z),
                       deriv=op.deriv_apply, power=power, H=H)


def _newton_polish(model: TensorModel, u: Array, max_iter: int = 60) -> Array:
    """Damped Newton on the model equation, whole-space only.

    The extragradient residual floor localizes degenerate (multiple) roots
    poorly; Newton contracts linearly even there.
    """
    best = u.copy()
    best_res = float(np.linalg.norm(model(best)))
    x = u.copy()
    for _ in range(max_iter):
        r = model(x)
        rn = float(np.linalg.norm(r))
        if rn < best_res:
            best, best_res = x.copy(), rn
        Jm = model.jacobian_at(x)
        ridge = 1e-14 * (1.0 + float(np.linalg.norm(Jm)))
        try:
            step = np.linalg.solve(Jm + ridge * np.eye(x.shape[0]), -r)
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        moved = False
        while alpha > 1e-8:
            x_try = x + alpha * step
            if float(np.linalg.norm(model(x_try))) <= (1.0 - 0.25 * alpha) * rn:
                x = x_try
                moved = True
                break
            alpha *= 0.5
        if not moved:
            break
        if float(np.linalg.norm(alpha * step)) <= 1e-16 * (1.0 + float(np.linalg.norm(x))):
            break
    r_final = float(np.linalg.norm(model(x)))
    return x if r_final <= best_res else best


def solve_tensor_subproblem(model, feasible: FeasibleSet, inner_tol: float,
                            allow_untested: bool = False) -> SubproblemSolution:
    """VI of the order-p model: p=2 delegates, p=3 runs extragradient."""
    if isinstance(model, RegularizedModel):
        return solve_model_vi(model, feasible, inner_tol)
    if model.order > 3 and not allow_untested:
        raise UnsupportedOrder(f"order {model.order} path is untested; "
                               f"pass allow_untested=True to proceed")
    beta0 = 1.0 / (1.0 + float(np.linalg.norm(model.jacobian)))
    u, res, evals = peg_callable(model, feasible, model.anchor, inner_tol,
                                 _PEG_MAX_EVALS_TENSOR, beta0)
    if isinstance(feasible, WholeSpace) and model.order == 3:
        u = _newton_polish(model, u)
        res = float(np.linalg.norm(model(u)))
    if res > inner_tol:
        raise SubproblemFailure(
            f"tensor model solve stopped at residual {res:g} > {inner_tol:g} "
            f"after {evals} evaluations")
    return SubproblemSolution(point=u, residual=res, evals=evals, method="peg")


def run_nu_aret(op: Operator, feasible: FeasibleSet, z0: Array, p: int,
                nu: float, H0: float, K: int, cfg: SolverConfig) -> RunResult:
    """Adaptive order-p run: criterion exponent p-1+nu, gamma power p-2+nu."""
    return _run_tensor(op, feasible, z0, "nu-aret", SearchMode.tensor(p, nu),
                       p, H0, K, cfg, eps_exit=None)


def run_uret(op: Operator, feasible: FeasibleSet, z0: Array, p: int,
             H0: float, K: int, eps: float, cfg: SolverConfig) -> RunResult:
    """Universal order-p run: regularizer power p-1, criterion exponent p."""
    return _run_tensor(op, feasible, z0, "uret", SearchMode.tensor_universal(p),
                       p, H0, K, cfg, eps_exit=eps)


def _run_tensor(op, feasible, z0, method, mode, p, H0, K, cfg, eps_exit) -> RunResult:
    if p < 2:
        raise UnsupportedOrder(f"order must be >= 2, got {p}")
    if p == 2:
        return _drive(method, op, feasible, z0, K, cfg,
                      _search_step(feasible, mode, cfg, eps_exit),
                      H_decl=op.holder_const, H0=H0)

    def trials(cop, z):
        # anchor derivatives evaluated once per outer iteration and shared
        # across trials, matching the second-order path's accounting
        proto = make_tensor_model(cop, z, p, mode.reg_power, 1.0)

        def solve_trial(H):
            cop.counters.subproblems += 1
            try:
                return solve_tensor_subproblem(replace(proto, H=H), feasible,
                                               cfg.inner_tol)
            except SubproblemFailure as exc:
                raise TrialRejected(str(exc)) from exc

        return {"solve_trial": solve_trial, "base_eval": proto.taylor}

    nu_decl = op.nu if op.nu is not None else cfg.nu
    return _drive(method, op, feasible, z0, K, cfg,
                  _search_step(feasible, mode, cfg, eps_exit, trials),
                  H_decl=getattr(op, "holder_const_p3", None), H0=H0, p=p,
                  c_pnu=c_p_nu(p, nu_decl))
