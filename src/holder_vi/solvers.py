"""Outer loops: fixed-coefficient, adaptive and universal extra-Newton runs
of order 2 and 3, plus an extragradient baseline.

Each iteration solves a regularized model VI for the half step, takes a
projected prox step weighted by gamma = H * step^power, and maintains the
running 1/gamma-weighted average of half steps.  One driver runs this
loop for every method; a method only supplies its half step.  Oracle
counters tally only algorithmic evaluations; gap instrumentation uses the
raw operator and is not billed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .core import (
    ADAPTIVE_METHODS,
    Array,
    Ball,
    FeasibleSet,
    Operator,
    SolverConfig,
    WholeSpace,
    as_point,
)
from .errors import ConfigError, DegenerateRegularization
from .linesearch import SearchMode, next_H, search
from .metrics import bound_verdicts, gap_upper_bound
from .model import RegularizedModel, build_linear_model
from .subproblem import gamma_of, prox_step, solve_model_vi


@dataclass
class Counters:
    f_evals: int = 0
    j_evals: int = 0
    d_evals: int = 0
    subproblems: int = 0


class CountedOperator:
    """Operator wrapper billing oracle calls to a Counters object."""

    def __init__(self, op: Operator, counters: Counters):
        self._op = op
        self.counters = counters
        self.dim = op.dim

    def value(self, z):
        self.counters.f_evals += 1
        return self._op.value(z)

    def jacobian(self, z):
        self.counters.j_evals += 1
        return self._op.jacobian(z)

    def deriv_apply(self, order, z, dirs):
        self.counters.d_evals += 1
        return self._op.deriv_apply(order, z, dirs)


@dataclass
class IterationRecord:
    k: int
    i_k: int
    H_k: float
    gamma_k: float
    half_step: Array
    full_step: Array
    step_norm: float
    F_evals_cum: int
    J_evals_cum: int
    subproblems_cum: int
    gap_point: float
    gap_avg: float
    wall_ns: int


@dataclass
class EarlyExit:
    k: int
    i: int
    point: Array
    gap: float


@dataclass
class RunResult:
    method: str
    averaged_point: Array
    final_gap: float
    records: List[IterationRecord]
    early_exit: Optional[EarlyExit]
    bound_checks: dict
    converged_at: Optional[int]
    counters: Counters
    config: SolverConfig
    H_final: Optional[float] = None


class _Averager:
    def __init__(self, shape):
        self.num = np.zeros(shape)
        self.den = 0.0

    def add(self, point: Array, gamma: float):
        self.num = self.num + point / gamma
        self.den += 1.0 / gamma

    @property
    def point(self) -> Array:
        return self.num / self.den


def ergodic_average(points: List[Array], gammas: List[float]) -> Array:
    """Weighted mean sum(p_i/g_i) / sum(1/g_i)."""
    if len(points) == 0 or len(points) != len(gammas):
        raise ConfigError("ergodic_average needs equal nonempty lists")
    avg = _Averager(np.shape(points[0]))
    for pt, g in zip(points, gammas):
        if not g > 0:
            raise DegenerateRegularization(f"averaging weight with gamma={g}")
        avg.add(np.asarray(pt, dtype=np.float64), g)
    return avg.point


def k_for_accuracy(nu: float, H: float, D: float, eps: float) -> int:
    """Iteration budget 2 H^{2/(2+nu)} D^2 eps^{-2/(2+nu)}, rounded up."""
    if not (H > 0 and D > 0 and eps > 0):
        raise ConfigError("k_for_accuracy needs positive H, D, eps")
    e = 2.0 / (2.0 + nu)
    return max(1, math.ceil(2.0 * H ** e * D * D * (1.0 / eps) ** e))


class _GapProbe:
    """Gap bound evaluator against the raw operator, NaN when unbounded."""

    def __init__(self, op: Operator, feasible: FeasibleSet, cfg: SolverConfig):
        self.op = op
        if isinstance(feasible, WholeSpace) and cfg.report_radius is not None:
            self.set = Ball(feasible.dim, np.zeros(feasible.dim), cfg.report_radius)
        else:
            self.set = feasible
        self.bounded = not isinstance(self.set, WholeSpace)

    def __call__(self, point: Array) -> float:
        if not self.bounded:
            return float("nan")
        return gap_upper_bound(self.op, self.set, point).gap_upper

    def from_value(self, point: Array, f: Array) -> float:
        if not self.bounded:
            return float("nan")
        witness = self.set.support_argmax(-f)
        return float(f @ (point - witness))


class _Half(NamedTuple):
    """A method's half step: the point, F there (already billed), the
    weight gamma of the full step and the record fields.  ``early_gap``
    set means the point already meets the universal gap target."""

    point: Array
    f: Array
    step_norm: float
    gamma: float
    H_k: float
    i_k: int = 0
    early_gap: Optional[float] = None


def _drive(method: str, op: Operator, feasible: FeasibleSet, z0: Array,
           cfg: SolverConfig, half_step: Callable,
           full_step: Optional[Callable] = None) -> RunResult:
    """The outer loop shared by every method.

    ``half_step(cop, z, H, probe)`` returns the method's ``_Half`` at z; H
    is the line-search coefficient carried between iterations (halved
    from the accepted one, starting at ``cfg.H0``; None for methods
    without a line search) and ``probe`` the run's gap probe.  The full
    step is the gamma-weighted prox step unless ``full_step(z, half)`` is
    given.  A zero gamma (the half step is already a model solution at z)
    or an early exit ends the run at the half step.  The bound verdicts
    are checked against the operator's declared constants of order
    ``cfg.p``.
    """
    if cfg.method != method:
        raise ConfigError(f"{method} run given a {cfg.method} config")
    counters = Counters()
    cop = CountedOperator(op, counters)
    probe = _GapProbe(op, feasible, cfg)
    z = feasible.project(as_point(z0, op.dim))
    avg = _Averager(op.dim)
    records: List[IterationRecord] = []
    H = cfg.H0 if method in ADAPTIVE_METHODS else None
    early = converged_at = out_point = None
    for k in range(cfg.K):
        t0 = time.perf_counter_ns()
        half = half_step(cop, z, H, probe)
        if half.early_gap is not None:
            early = EarlyExit(k=k, i=half.i_k, point=half.point, gap=half.early_gap)
            out_point = half.point
            break
        if half.gamma <= 0.0:
            converged_at = k
            out_point = z_next = half.point
            gp = ga = probe(half.point)
        else:
            z_next = (prox_step(z, half.f, half.gamma, feasible) if full_step is None
                      else full_step(z, half))
            avg.add(half.point, half.gamma)
            want_gap = (k % cfg.gap_cadence == 0) or (k == cfg.K - 1)
            gp = probe.from_value(half.point, half.f)
            ga = probe(avg.point) if want_gap else float("nan")
        records.append(IterationRecord(
            k=k, i_k=half.i_k, H_k=half.H_k, gamma_k=half.gamma,
            half_step=half.point, full_step=z_next, step_norm=half.step_norm,
            F_evals_cum=counters.f_evals, J_evals_cum=counters.j_evals,
            subproblems_cum=counters.subproblems, gap_point=gp, gap_avg=ga,
            wall_ns=time.perf_counter_ns() - t0))
        if converged_at is not None:
            break
        if H is not None:
            H = next_H(H, half.i_k)
        z = z_next
    if out_point is None:
        if not records:
            raise ConfigError("run produced no iterations to average")
        out_point = avg.point
    gap = probe(out_point)
    nu_decl = op.nu if op.nu is not None else cfg.nu
    checks = bound_verdicts(records, method, nu_decl, op.declared_const(cfg.p),
                            feasible.diameter, cfg.H0, cfg.eps,
                            early_exit=early is not None, p=cfg.p)
    return RunResult(method=method, averaged_point=out_point, final_gap=gap,
                     records=records, early_exit=early, bound_checks=checks,
                     converged_at=converged_at, counters=counters, config=cfg,
                     H_final=H)


def _search_step(feasible: FeasibleSet, mode: SearchMode, cfg: SolverConfig,
                 eps_exit: Optional[float] = None) -> Callable:
    """Half step of the line-search methods: ``search`` from the carried H.

    ``eps_exit`` switches on the universal early exit.  The closure holds
    the run's last accepted normal-map point, each search's retry start;
    it is per run, never shared, as ``rates`` runs its grid on threads.
    """
    last_x = None

    def half_step(cop, z, H, probe):
        nonlocal last_x
        out = search(cop, feasible, z, H, mode, cfg.inner_tol, cfg.max_doublings,
                     gap_check=probe.from_value if eps_exit is not None else None,
                     gap_target=eps_exit, counters=cop.counters, retry=last_x)
        if out.x_at_accepted is not None:
            last_x = out.x_at_accepted
        return _Half(out.accepted_point, out.f_at_accepted, out.step_norm,
                     gamma_of(out.H_trial, mode.reg_power, out.step_norm),
                     out.H_trial, out.i_k, out.early_exit_gap)

    return half_step


def run_nu_ren(op: Operator, feasible: FeasibleSet, z0: Array,
               cfg: SolverConfig) -> RunResult:
    """Fixed-coefficient extra-Newton run: model coefficient exactly 2 cfg.H.

    Stops early when a zero half step makes gamma vanish (the model
    solution at z_k already solves the VI to inner_tol).  Newton falls
    back on the run's last normal-map point when its default start stalls.
    """
    last_x = None

    def half_step(cop, z, H, probe):
        nonlocal last_x
        nu, coeff = cfg.nu, 2.0 * cfg.H
        base = build_linear_model(cop, z)
        cop.counters.subproblems += 1
        sol = solve_model_vi(RegularizedModel(base, nu, coeff), feasible, cfg.inner_tol,
                             retry=last_x)
        if sol.x is not None:
            last_x = sol.x
        step = float(np.linalg.norm(sol.point - z))
        return _Half(sol.point, cop.value(sol.point), step,
                     gamma_of(coeff, nu, step), coeff)

    return _drive("nu-ren", op, feasible, z0, cfg, half_step)


def run_nu_aren(op: Operator, feasible: FeasibleSet, z0: Array,
                cfg: SolverConfig) -> RunResult:
    """Adaptive run with the known-exponent criterion (power nu, e = 1+nu)."""
    return _drive("nu-aren", op, feasible, z0, cfg,
                  _search_step(feasible, SearchMode.holder(cfg.nu), cfg))


def run_uren(op: Operator, feasible: FeasibleSet, z0: Array,
             cfg: SolverConfig) -> RunResult:
    """Universal run (power 1, e = 2) with gap early exit at cfg.eps."""
    return _drive("uren", op, feasible, z0, cfg,
                  _search_step(feasible, SearchMode.universal(), cfg, eps_exit=cfg.eps))


def run_nu_aret(op: Operator, feasible: FeasibleSet, z0: Array,
                cfg: SolverConfig) -> RunResult:
    """Adaptive order-p run: criterion exponent p-1+nu, gamma power p-2+nu."""
    return _drive("nu-aret", op, feasible, z0, cfg,
                  _search_step(feasible, SearchMode.holder(cfg.nu, cfg.p), cfg))


def run_uret(op: Operator, feasible: FeasibleSet, z0: Array,
             cfg: SolverConfig) -> RunResult:
    """Universal order-p run: regularizer power p-1, criterion exponent p."""
    return _drive("uret", op, feasible, z0, cfg,
                  _search_step(feasible, SearchMode.universal(cfg.p), cfg,
                               eps_exit=cfg.eps))


def estimate_lipschitz(op: Operator, feasible: FeasibleSet, n_samples: int = 200,
                       seed: int = 0) -> float:
    """Sampled estimate of the Lipschitz constant of F over the set."""
    rng = np.random.default_rng(seed)
    zs = feasible.sample(rng, n_samples)
    zps = feasible.sample(rng, n_samples)
    best = 0.0
    for z, zp in zip(zs, zps):
        dn = float(np.linalg.norm(z - zp))
        if dn == 0.0:
            continue
        best = max(best, float(np.linalg.norm(op.value(z) - op.value(zp))) / dn)
    return best


def run_extragradient(op: Operator, feasible: FeasibleSet, z0: Array,
                      cfg: SolverConfig) -> RunResult:
    """Two-projection extragradient baseline with plain averaging.

    ``cfg.step=None`` uses 1/(2 L) with L estimated by sampling (seeded
    from the config, so runs stay deterministic).
    """
    step = cfg.step
    if step is None:
        L = estimate_lipschitz(op, feasible, seed=cfg.seed)
        step = 1.0 / (2.0 * L) if L > 0 else 1.0

    def half_step(cop, z, H, probe):
        half = feasible.project(z - step * cop.value(z))
        return _Half(half, cop.value(half), float(np.linalg.norm(half - z)), 1.0, 0.0)

    # written out rather than prox_step(z, f, 1/step): z - f / (1/step)
    # rounds differently from z - step * f
    def full_step(z, half):
        return feasible.project(z - step * half.f)

    return _drive("extragradient", op, feasible, z0, cfg, half_step, full_step)
