"""Order-p regularized models and the p-th order adaptive/universal runs.

The order-p model keeps Taylor terms up to degree p-1 and adds the radial
regularizer H |d|^power d: a ``RegularizedModel`` over a linear base for
p=2 and over a quadratic base for p=3.  Both are solved by the one
inner-solve entry, ``subproblem.solve_model_vi``.  p=2 runs are the
second-order line-search runs under the tensor method's name.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import Array, FeasibleSet, Operator, SolverConfig
from .errors import SubproblemFailure, UnsupportedOrder
from .linesearch import SearchMode, TrialRejected
from .model import LinearModel, QuadraticModel, RegularizedModel
from .solvers import RunResult, _drive, _search_step
from .subproblem import SubproblemSolution, solve_model_vi
# unused here: perfbench's tracer binds tensor.peg_callable until ROADMAP item 3
from .subproblem import peg_callable  # noqa: F401


def make_tensor_model(op: Operator, z: Array, p: int, power: float,
                      H: float) -> RegularizedModel:
    """Order-p regularized model at z: a linear base for p=2, a quadratic
    one for p=3; any other order raises UnsupportedOrder."""
    if p not in (2, 3):
        raise UnsupportedOrder(f"order {p} models are not supported")
    anchor = np.asarray(z, dtype=np.float64)
    value, jacobian = op.value(z), op.jacobian(z)
    base = (LinearModel(anchor, value, jacobian) if p == 2 else
            QuadraticModel(anchor, value, jacobian, op.deriv_apply))
    return RegularizedModel(base, power, H)


def solve_tensor_subproblem(model: RegularizedModel, feasible: FeasibleSet,
                            inner_tol: float) -> SubproblemSolution:
    """One order-3 line-search trial: the model VI, with an inner-solve
    failure rejecting the trial (TrialRejected) so the search doubles H."""
    try:
        return solve_model_vi(model, feasible, inner_tol)
    except SubproblemFailure as exc:
        raise TrialRejected(str(exc)) from exc


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
            return solve_tensor_subproblem(replace(proto, H=H), feasible,
                                           cfg.inner_tol)

        return {"solve_trial": solve_trial, "base_eval": proto.base}

    return _drive(method, op, feasible, z0, cfg,
                  _search_step(feasible, mode, cfg, eps_exit,
                               trials if cfg.p >= 3 else None))
