"""Higher-order Taylor models and the p-th order adaptive/universal runs.

The order-p model keeps Taylor terms up to degree p-1 and adds the radial
regularizer H |d|^power d.  p=2 runs are the second-order line-search
runs under the tensor method's name; p=3 models are solved by semismooth
Newton on the normal map (``subproblem.newton_normal_map``), with
projected extragradient on the model closure as the fallback when
Newton's answer is not certified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Array, FeasibleSet, Operator, SolverConfig
from .errors import SubproblemFailure, UnsupportedOrder
from .linesearch import SearchMode, TrialRejected
from .model import LinearModel, RegularizedModel
from .solvers import RunResult, _drive, _search_step
from .subproblem import (
    SubproblemSolution,
    newton_normal_map,
    peg_callable,
    solve_model_vi,
)

_PEG_MAX_EVALS_TENSOR = 40_000


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


def solve_tensor_subproblem(model, feasible: FeasibleSet,
                            inner_tol: float) -> SubproblemSolution:
    """VI of the order-p model: p=2 delegates; p=3 runs semismooth Newton,
    with projected extragradient when Newton's answer is not certified."""
    if isinstance(model, RegularizedModel):
        return solve_model_vi(model, feasible, inner_tol)
    if model.order > 3:
        raise UnsupportedOrder(f"order {model.order} models are not supported")
    sol = newton_normal_map(model, feasible, inner_tol)
    if sol is not None:
        return sol
    beta0 = 1.0 / (1.0 + float(np.linalg.norm(model.jacobian)))
    u, res, evals = peg_callable(model, feasible, model.anchor, inner_tol,
                                 _PEG_MAX_EVALS_TENSOR, beta0)
    if res > inner_tol:
        raise SubproblemFailure(
            f"tensor model solve stopped at residual {res:g} > {inner_tol:g} "
            f"after {evals} evaluations")
    return SubproblemSolution(point=u, residual=res, evals=evals, method="peg")


def run_nu_aret(op: Operator, feasible: FeasibleSet, z0: Array,
                cfg: SolverConfig) -> RunResult:
    """Adaptive order-p run: criterion exponent p-1+nu, gamma power p-2+nu."""
    return _run_tensor("nu-aret", op, feasible, z0, cfg,
                       SearchMode.tensor(cfg.p, cfg.nu))


def run_uret(op: Operator, feasible: FeasibleSet, z0: Array,
             cfg: SolverConfig) -> RunResult:
    """Universal order-p run: regularizer power p-1, criterion exponent p."""
    return _run_tensor("uret", op, feasible, z0, cfg,
                       SearchMode.tensor_universal(cfg.p), eps_exit=cfg.eps)


def _run_tensor(method, op, feasible, z0, cfg, mode, eps_exit=None) -> RunResult:
    """p=2 runs take the second-order trials; p=3 trials solve order-3 models."""

    def trials(cop, z):
        # anchor derivatives evaluated once per outer iteration and shared
        # across trials, matching the second-order path's accounting
        proto = make_tensor_model(cop, z, cfg.p, mode.reg_power, 1.0)

        def solve_trial(H):
            cop.counters.subproblems += 1
            try:
                return solve_tensor_subproblem(replace(proto, H=H), feasible,
                                               cfg.inner_tol)
            except SubproblemFailure as exc:
                raise TrialRejected(str(exc)) from exc

        return {"solve_trial": solve_trial, "base_eval": proto.taylor}

    return _drive(method, op, feasible, z0, cfg,
                  _search_step(feasible, mode, cfg, eps_exit,
                               trials if cfg.p >= 3 else None))
