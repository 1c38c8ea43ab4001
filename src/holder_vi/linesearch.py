"""Doubling search for the smallest acceptable regularization coefficient.

A trial at coefficient H solves the regularized model VI for the point T
and accepts iff the Taylor remainder at T obeys

    |F(T) - taylor(T)| <= (H/2) * |T - z|^e

where the exponent e and the model's regularizer power depend on the
search mode.  The mode's order picks the Taylor base: linear at order 2,
quadratic at order 3.  Accepted trials are returned with their F value so
outer loops never re-evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .core import Array, FeasibleSet, Operator
from .errors import LineSearchExhausted, SubproblemFailure
from .model import RegularizedModel, build_linear_model, build_quadratic_model
from .subproblem import solve_model_vi

# Relative slack absorbing inner-solver inexactness; without it an exactly
# affine operator can fail its own criterion on rounding noise.
_CRITERION_SLACK = 1e-12


@dataclass(frozen=True)
class SearchMode:
    """Model order, regularizer power and criterion exponent for one search
    flavor: at order p, known-exponent searches regularize with power
    p-2+nu and test exponent p-1+nu, universal ones with p-1 and p."""

    name: str
    order: int
    reg_power: float
    criterion_exp: float

    @staticmethod
    def holder(nu: float, p: int = 2) -> "SearchMode":
        return SearchMode("holder", p, p - 2.0 + nu, p - 1.0 + nu)

    @staticmethod
    def universal(p: int = 2) -> "SearchMode":
        return SearchMode("universal", p, p - 1.0, float(p))


@dataclass
class LineSearchOutcome:
    i_k: int
    H_trial: float
    accepted_point: Array
    step_norm: float
    trials: List[Tuple[float, float, float]] = field(default_factory=list)
    f_at_accepted: Optional[Array] = None
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
           gap_check: Optional[Callable[[Array, Array], float]] = None,
           gap_target: Optional[float] = None,
           counters=None) -> LineSearchOutcome:
    """Smallest i in {0..max_doublings} whose trial at H_k 2^i is accepted.

    Every trial solves the order-``mode.order`` model built at z_k.  An
    order-3 model can be non-monotone at small H and defeat the inner
    solver: that trial is rejected (lhs = inf) and H doubles.  At order 2
    an inner failure propagates.  When ``gap_check`` is given (universal
    modes) it is evaluated at every trial point before the criterion, and
    a value <= gap_target short-circuits the search (``early_exit_gap``).
    """
    if not H_k > 0:
        raise ValueError(f"H_k must be positive, got {H_k}")
    build = build_linear_model if mode.order == 2 else build_quadratic_model
    base = build(op, z_k)

    trials: List[Tuple[float, float, float]] = []
    for i in range(max_doublings + 1):
        H_trial = H_k * 2.0 ** i
        if counters is not None:
            counters.subproblems += 1
        try:
            sol = solve_model_vi(RegularizedModel(base, mode.reg_power, H_trial),
                                 feasible, inner_tol)
        except SubproblemFailure:
            if mode.order == 2:
                raise
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
                                         early_exit_gap=g)
        e = fT - base(T)
        lhs = math.sqrt(e @ e)
        rhs = 0.5 * H_trial * step ** mode.criterion_exp
        trials.append((H_trial, lhs, rhs))
        if criterion_accepts(lhs, rhs):
            return LineSearchOutcome(i_k=i, H_trial=H_trial, accepted_point=T,
                                     step_norm=step, trials=trials,
                                     f_at_accepted=fT)
    lines = ", ".join(f"(H={h:g}, lhs={l:g}, rhs={r:g})" for h, l, r in trials)
    raise LineSearchExhausted(
        f"criterion not met after {max_doublings} doublings from H={H_k:g} "
        f"in {mode.name} mode; trials: {lines}")
