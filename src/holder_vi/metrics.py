"""Gap certificates, rate-slope fits, and bound verdicts.

The true gap max_{z' in Z} <F(z'), point - z'> is intractable; under
monotonicity it is dominated by max_{z in Z} <F(point), point - z>, which
the support oracle computes exactly.  All accuracy claims in this package
certify that dominating quantity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Array, Ball, Box, FeasibleSet, Operator
from .errors import RateFitError

PASS = "pass"
FLAG = "flag"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
INFO = "info"

# Verdicts within this factor of the bound are flagged, not failed; the
# constant-placement ambiguity in the appendix cap display motivates it.
_FLAG_FACTOR = 4.0


@dataclass(frozen=True)
class GapCertificate:
    point: Array
    gap_upper: float
    witness: Array


@dataclass(frozen=True)
class Verdict:
    status: str
    measured: Optional[float] = None
    bound: Optional[float] = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (PASS, FLAG, NOT_APPLICABLE, INFO)


def gap_upper_bound(op: Operator, feasible: FeasibleSet, point: Array) -> GapCertificate:
    """Certificate gap_upper = max_{z in Z} <F(point), point - z>.

    Nonnegative whenever ``point`` is feasible; raises for unbounded sets
    with a nonzero operator value.
    """
    f = op.value(point)
    witness = feasible.support_argmax(-f)
    return GapCertificate(point=np.asarray(point, dtype=np.float64),
                          gap_upper=float(f @ (point - witness)),
                          witness=witness)


def grid_gap_max(op: Operator, feasible: FeasibleSet, point: Array,
                 n: int = 200) -> float:
    """Brute-force max of <F(z), point - z> over an n-by-n grid, d=2 only.

    The sampled maximum lower-bounds the true gap; comparing it against
    gap_upper_bound quantifies the monotonicity slack.
    """
    if feasible.dim != 2:
        raise ValueError("grid check is specific to d=2")
    if isinstance(feasible, Box):
        xs = np.linspace(feasible.lower[0], feasible.upper[0], n)
        ys = np.linspace(feasible.lower[1], feasible.upper[1], n)
        mask_ball = None
    elif isinstance(feasible, Ball):
        c, r = feasible.center, feasible.radius
        xs = np.linspace(c[0] - r, c[0] + r, n)
        ys = np.linspace(c[1] - r, c[1] + r, n)
        mask_ball = (c, r)
    else:
        raise ValueError("grid check needs a bounded set")
    best = -np.inf
    for x in xs:
        for y in ys:
            z = np.array([x, y])
            if mask_ball is not None and np.linalg.norm(z - mask_ball[0]) > mask_ball[1]:
                continue
            val = float(op.value(z) @ (point - z))
            if val > best:
                best = val
    return best


def fit_rate_slope(trace: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(gap) against log(K).

    Nonpositive gaps are dropped with a warning; fewer than 4 surviving
    points is an error.
    """
    ks, gaps = [], []
    last_k = 0.0
    for k, g in trace:
        if not k > last_k:
            raise RateFitError("K values must be strictly increasing")
        last_k = k
        if g > 0:
            ks.append(k)
            gaps.append(g)
        else:
            warnings.warn(f"dropping nonpositive gap {g} at K={k}", RuntimeWarning)
    if len(ks) < 4:
        raise RateFitError(f"only {len(ks)} usable points, need at least 4")
    slope = np.polyfit(np.log(np.asarray(ks)), np.log(np.asarray(gaps)), 1)[0]
    return float(slope)


def c_p_nu(p: int, nu: float) -> float:
    """Taylor remainder constant (1/(p-2)!) * B(nu+1, p-1) = G(1+nu)/G(p+nu)."""
    if p < 2:
        raise ValueError(f"order must be >= 2, got {p}")
    if not (0.0 <= nu <= 1.0):
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return math.gamma(1.0 + nu) / math.gamma(p + nu)


def declared_ceiling(p: int, nu: float, H: float) -> float:
    """Ceiling on the adaptive coefficient implied by a declared constant:
    2 c_{p,nu} H at order 3, 2 H / (1 + nu) at order 2.  Half of it is
    the Taylor remainder scale and the largest guaranteed start H0."""
    if p >= 3:
        return 2.0 * c_p_nu(p, nu) * H
    return 2.0 * H / (1.0 + nu)


def c_nu_constant(nu: float) -> float:
    """The analysis constant 1 - 1/(8(1+nu)^2); informational only."""
    return 1.0 - 1.0 / (8.0 * (1.0 + nu) ** 2)


def universal_cap(nu: float, H: float, D: float, eps: float) -> float:
    """Coefficient ceiling for the second-order universal method."""
    return ((3.0 * D) ** ((1.0 - nu) / (1.0 + nu))
            * (H / (1.0 + nu)) ** (2.0 / (1.0 + nu))
            * (1.0 / eps) ** ((1.0 - nu) / (1.0 + nu)))


def tensor_universal_cap(p: int, nu: float, c_pnu: float, H: float, D: float,
                         eps: float) -> float:
    """Coefficient ceiling for the p-th order universal method (nu < 1)."""
    if nu >= 1.0:
        raise ValueError("tensor cap display diverges at nu = 1")
    return ((3.0 * 2.0 ** (p - 1) * D) ** ((p - 1.0 + nu) / (1.0 - nu))
            * (c_pnu * H) ** (p / (1.0 - nu))
            * (1.0 / eps) ** ((1.0 - nu) / (p - 1.0 + nu)))


def _leveled(measured: float, bound: float, rel: float) -> Verdict:
    if measured <= bound * (1.0 + rel):
        return Verdict(PASS, measured, bound)
    if measured <= bound * _FLAG_FACTOR:
        return Verdict(FLAG, measured, bound,
                       note=f"within {_FLAG_FACTOR:g}x of the bound")
    return Verdict(FAIL, measured, bound)


def bound_verdicts(records, method: str, nu: float, H: Optional[float],
                   D: float, H0: Optional[float], eps: float,
                   early_exit: bool = False, p: int = 2) -> Dict[str, Verdict]:
    """Verdicts for the adaptive-H ceiling, oracle budget, and universal cap.

    ``records`` need fields H_k and i_k.  ``H`` is the problem's declared
    smoothness constant (order-2 pairs use H_nu, order-p pairs H_{p,nu},
    scaled by ``c_p_nu(p, nu)``); None or 0 renders the bound checks
    not-applicable.
    """
    out: Dict[str, Verdict] = {"C_nu": Verdict(INFO, measured=c_nu_constant(nu),
                                               note="analysis constant, not used by iterations")}
    adaptive = method in ("nu-aren", "nu-aret")
    universal = method in ("uren", "uret")
    if not (adaptive or universal):
        out["H_bound"] = Verdict(NOT_APPLICABLE, note="fixed-coefficient method")
        out["oracle_budget"] = Verdict(NOT_APPLICABLE, note="no line search")
        out["universal_cap"] = Verdict(NOT_APPLICABLE, note="not a universal method")
        return out
    degenerate = H is None or H <= 0.0
    K_done = len(records)
    spent = sum(r.i_k + 1 for r in records)
    h_states = [r.H_k / 2.0 ** r.i_k for r in records]
    h_next_max = max((r.H_k / 2.0 for r in records), default=0.0)

    if adaptive:
        if degenerate or K_done == 0:
            note = "declared constant is zero or missing" if degenerate else "no iterations"
            out["H_bound"] = Verdict(NOT_APPLICABLE, note=note)
            out["oracle_budget"] = Verdict(NOT_APPLICABLE, note=note)
        else:
            ceiling = declared_ceiling(p, nu, H)
            start_ok = H0 is not None and H0 <= ceiling / 2.0 * (1.0 + 1e-12)
            v = _leveled(max(h_states), ceiling, rel=1e-9)
            if not start_ok:
                v = Verdict(v.status, v.measured, v.bound,
                            note=(v.note + "; H0 above the guaranteed range").strip("; "))
            out["H_bound"] = v
            budget = 2.0 * K_done + math.log2(ceiling) - math.log2(H0) + 1.0
            out["oracle_budget"] = Verdict(PASS if spent <= budget else FAIL,
                                           measured=float(spent), bound=budget)
        out["universal_cap"] = Verdict(NOT_APPLICABLE, note="known-exponent method")
        return out

    # universal methods
    out["H_bound"] = Verdict(NOT_APPLICABLE, note="universal method tracks the cap instead")
    out["oracle_budget"] = Verdict(NOT_APPLICABLE, note="budget stated only for known-exponent search")
    if degenerate or K_done == 0:
        out["universal_cap"] = Verdict(
            NOT_APPLICABLE, note="declared constant is zero or missing" if degenerate else "no iterations")
    elif early_exit:
        out["universal_cap"] = Verdict(NOT_APPLICABLE,
                                       note="cap guaranteed only while progress exceeds eps")
    elif method == "uret" and p >= 3 and nu >= 1.0:
        out["universal_cap"] = Verdict(NOT_APPLICABLE,
                                       note="appendix cap display diverges at nu=1")
    else:
        if method == "uret" and p >= 3:
            cap = tensor_universal_cap(p, nu, c_p_nu(p, nu), H, D, eps)
        else:
            cap = universal_cap(nu, H, D, eps)
        out["universal_cap"] = _leveled(h_next_max, cap, rel=1e-6)
    return out
