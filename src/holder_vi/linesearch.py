"""Doubling search for the smallest acceptable regularization coefficient.

A trial at coefficient H solves the regularized model VI for the point T
and accepts iff the Taylor remainder at T obeys

    |F(T) - taylor(T)| <= (H/2) * |T - z|^e

where the exponent e and the model's regularizer power depend on the
search mode.  Accepted trials are returned with their F value so outer
loops never re-evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .core import Array, FeasibleSet, Operator
from .errors import LineSearchExhausted
from .model import RegularizedModel, build_linear_model
from .subproblem import SubproblemSolution, solve_model_vi

# Relative slack absorbing inner-solver inexactness; without it an exactly
# affine operator can fail its own criterion on rounding noise.
_CRITERION_SLACK = 1e-12


class TrialRejected(Exception):
    """Raised by a solve_trial closure to mean: treat this H as failed.

    Third-order models can be non-monotone at small coefficients and defeat
    the inner solver; doubling H restores monotonicity, so the search just
    moves on.
    """


@dataclass(frozen=True)
class SearchMode:
    """Regularizer power and criterion exponent for one search flavor."""

    name: str
    reg_power: float
    criterion_exp: float

    @staticmethod
    def holder(nu: float) -> "SearchMode":
        return SearchMode("holder", nu, 1.0 + nu)

    @staticmethod
    def universal() -> "SearchMode":
        return SearchMode("universal", 1.0, 2.0)

    @staticmethod
    def tensor(p: int, nu: float) -> "SearchMode":
        return SearchMode("tensor", p - 2.0 + nu, p - 1.0 + nu)

    @staticmethod
    def tensor_universal(p: int) -> "SearchMode":
        return SearchMode("tensor-universal", p - 1.0, float(p))


@dataclass
class LineSearchOutcome:
    i_k: int
    H_trial: float
    accepted_point: Array
    step_norm: float
    trials: List[Tuple[float, float, float]] = field(default_factory=list)
    f_at_accepted: Optional[Array] = None
    residual: float = 0.0
    early_exit_gap: Optional[float] = None


def next_H(H_k: float, i_k: int) -> float:
    """Coefficient carried to the next iteration: accepted H halved."""
    if not H_k > 0:
        raise ValueError(f"H_k must be positive, got {H_k}")
    if i_k < 0:
        raise ValueError(f"i_k must be nonnegative, got {i_k}")
    return H_k * 2.0 ** (i_k - 1)


def criterion_accepts(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _CRITERION_SLACK * (1.0 + rhs)


def search(op: Operator, feasible: FeasibleSet, z_k: Array, H_k: float,
           mode: SearchMode, inner_tol: float, max_doublings: int,
           solve_trial: Optional[Callable[[float], SubproblemSolution]] = None,
           base_eval: Optional[Callable[[Array], Array]] = None,
           gap_check: Optional[Callable[[Array, Array], float]] = None,
           gap_target: Optional[float] = None,
           counters=None) -> LineSearchOutcome:
    """Smallest i in {0..max_doublings} whose trial at H_k 2^i is accepted.

    By default trials solve the second-order regularized model built at
    z_k; third-order callers supply ``solve_trial``/``base_eval`` for their
    own models.  When ``gap_check`` is given (universal modes) it is
    evaluated at every trial point before the criterion, and a value
    <= gap_target short-circuits the search with ``early_exit_gap`` set.
    """
    if not H_k > 0:
        raise ValueError(f"H_k must be positive, got {H_k}")
    if solve_trial is None:
        base = build_linear_model(op, z_k)
        base_eval = base

        def solve_trial(H):
            if counters is not None:
                counters.subproblems += 1
            return solve_model_vi(RegularizedModel(base, mode.reg_power, H),
                                  feasible, inner_tol)
    elif base_eval is None:
        raise ValueError("solve_trial without base_eval")

    trials: List[Tuple[float, float, float]] = []
    for i in range(max_doublings + 1):
        H_trial = H_k * 2.0 ** i
        try:
            sol = solve_trial(H_trial)
        except TrialRejected:
            trials.append((H_trial, float("inf"), 0.0))
            continue
        T = sol.point
        d = T - z_k
        step = math.sqrt(d @ d)
        fT = op.value(T)
        if gap_check is not None:
            g = gap_check(T, fT)
            if g <= gap_target:
                return LineSearchOutcome(i_k=i, H_trial=H_trial,
                                         accepted_point=T, step_norm=step,
                                         trials=trials, f_at_accepted=fT,
                                         residual=sol.residual,
                                         early_exit_gap=g)
        e = fT - base_eval(T)
        lhs = math.sqrt(e @ e)
        rhs = 0.5 * H_trial * step ** mode.criterion_exp
        trials.append((H_trial, lhs, rhs))
        if criterion_accepts(lhs, rhs):
            return LineSearchOutcome(i_k=i, H_trial=H_trial, accepted_point=T,
                                     step_norm=step, trials=trials,
                                     f_at_accepted=fT, residual=sol.residual)
    lines = ", ".join(f"(H={h:g}, lhs={l:g}, rhs={r:g})" for h, l, r in trials)
    raise LineSearchExhausted(
        f"criterion not met after {max_doublings} doublings from H={H_k:g} "
        f"in {mode.name} mode; trials: {lines}")
