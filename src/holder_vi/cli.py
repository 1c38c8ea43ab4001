"""Batch command-line interface.

Subcommands: ``solve`` runs one solver on one problem and writes
``trace.csv`` + ``summary.json``; ``rates`` sweeps a K-grid and fits the
log-log slope of the final gap; ``verify`` runs the self-check suite.

Exit codes: 0 success, 1 verification failure, 2 solver or rate
failure, 3 configuration error; ``main`` maps raised errors to the last
two.  Every trace embeds the fully resolved configuration as
``# ``-prefixed INI lines, sufficient to re-run the identical experiment.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core import METHODS, SolverConfig
from .errors import ConfigError, HolderVIError
from .metrics import declared_ceiling, fit_rate_slope
from .problems import ProblemInstance, default_start, parse_problem
from .solvers import (
    RunResult,
    run_extragradient,
    run_nu_aren,
    run_nu_aret,
    run_nu_ren,
    run_uren,
    run_uret,
)
from .verify import GROUPS, all_passed, format_table, run_checks

_TRACE_COLUMNS = ("k", "i_k", "H_k", "gamma_k", "step_norm", "F_evals_cum",
                  "J_evals_cum", "subproblems_cum", "gap_point", "gap_avg",
                  "wall_ns")

# [solver] keys in echo order; values marked "auto" accept that literal
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
_INT_KEYS = {f.name for f in fields(SolverConfig) if f.type in (int, "int")}
_AUTO_KEYS = {"nu", "H", "H0", "step"}

_DEFAULT_GRID = (16, 32, 64, 128, 256, 512, 1024)

# BLAS threading variables; the thread count changes dense-solve rounding
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_setting(key: str, raw: str):
    raw = raw.strip()
    if raw == "":
        return None
    if key == "method":
        return raw
    if key in _AUTO_KEYS and raw == "auto":
        return "auto"
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for solver key {key!r}") from exc


def _read_config_file(path: str) -> dict:
    """Parse the INI run file; see ``_parse_ini``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return _parse_ini(text, str(path))


def _parse_ini(text: str, source: str) -> dict:
    """Parse run-file INI text into {'problem': str, 'solver': {...},
    'output': {...}}, rejecting unknown sections and keys."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like H, H0, L are case-sensitive
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {source}: {exc}") from exc
    out = {"problem": None, "solver": {}, "output": {}}
    for section in cp.sections():
        if section == "problem":
            items = dict(cp.items("problem"))
            family = items.pop("family", None)
            if family is None:
                raise ConfigError("[problem] section needs a 'family' key")
            out["problem"] = family + (":" if items else "") + ",".join(
                f"{k}={v}" for k, v in items.items())
        elif section == "solver":
            for key, raw in cp.items("solver"):
                if key not in _SOLVER_KEYS:
                    raise ConfigError(f"unknown [solver] key {key!r}")
                out["solver"][key] = _parse_setting(key, raw)
        elif section == "output":
            for key, raw in cp.items("output"):
                if key != "dir":
                    raise ConfigError(f"unknown [output] key {key!r}")
                out["output"][key] = raw.strip()
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return out


def _conforming_H0(instance: ProblemInstance, nu: float, p: int) -> float:
    H = instance.operator.declared_const(p)
    if H is None:
        raise ConfigError(
            f"problem {instance.name} declares no order-{p} constant; "
            "pass an explicit --H0")
    if H <= 0:
        raise ConfigError(
            f"declared constant of {instance.name} is zero; pass an "
            "explicit --H0")
    return declared_ceiling(p, nu, H) / 2.0


def _resolve(args) -> tuple:
    """Merge config file and CLI flags into (instance, SolverConfig, outdir)."""
    filecfg = _read_config_file(args.config) if args.config else {
        "problem": None, "solver": {}, "output": {}}
    problem_text = args.problem or filecfg["problem"]
    if problem_text is None:
        raise ConfigError("no problem given; use --problem or a [problem] section")
    instance = parse_problem(problem_text)

    settings = dict(filecfg["solver"])
    for key in _SOLVER_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _parse_setting(key, str(flag))
    method = settings.pop("method", None)
    if method is None:
        raise ConfigError("no method given; use --method or a [solver] section")

    nu = settings.get("nu")
    if nu is None or nu == "auto":
        nu = instance.operator.nu
    settings["nu"] = float(nu)
    p_raw = settings.get("p")
    p = 2 if p_raw is None else int(p_raw)
    settings["p"] = p
    if p >= 3 and instance.operator.deriv_fn is None:
        raise ConfigError(f"problem {instance.name} has no derivative oracle of "
                          f"order {p - 1}; order-{p} methods need one")
    if settings.get("H") == "auto":
        H = instance.operator.holder_const
        if H <= 0:
            raise ConfigError(
                f"declared constant of {instance.name} is zero; pass an "
                "explicit --H")
        settings["H"] = H
    if settings.get("H0") == "auto":
        if method in ("uren", "uret"):
            settings["H0"] = 1.0
        else:
            settings["H0"] = _conforming_H0(instance, settings["nu"], p)
    if settings.get("step") == "auto":
        settings["step"] = None

    cfg = SolverConfig(method=method, **settings)
    outdir = args.out or filecfg["output"].get("dir") or "."
    return instance, cfg, Path(outdir)


def execute(instance: ProblemInstance, cfg: SolverConfig) -> RunResult:
    """Dispatch one resolved run."""
    # looked up per call, so a rebound module-level run_* takes effect
    runs = {"nu-ren": run_nu_ren, "nu-aren": run_nu_aren, "uren": run_uren,
            "nu-aret": run_nu_aret, "uret": run_uret,
            "extragradient": run_extragradient}
    z0 = default_start(instance, seed=cfg.seed)
    return runs[cfg.method](instance.operator, instance.feasible, z0, cfg)


def config_echo(instance: ProblemInstance, cfg: SolverConfig) -> List[str]:
    """Resolved configuration as comment lines (re-parseable INI).

    The output directory is deliberately absent so traces stay
    byte-identical wherever they are written.
    """
    lines = ["[problem]"]
    family, _, tail = instance.name.partition(":")
    lines.append(f"family = {family}")
    for item in tail.split(","):
        key, _, val = item.partition("=")
        lines.append(f"{key} = {val}")
    lines.append("[solver]")
    for key in _SOLVER_KEYS:
        lines.append(f"{key} = {_fmt_value(getattr(cfg, key))}")
    return [f"# {ln}" for ln in lines]


def parse_echo(trace_path) -> dict:
    """Recover the resolved configuration from a trace's comment header."""
    lines = []
    with open(trace_path) as fh:
        for ln in fh:
            if not ln.startswith("#"):
                break
            lines.append(ln[1:].strip())
    out = _parse_ini("\n".join(lines), str(trace_path))
    return {"problem": out["problem"], "solver": out["solver"]}


def write_trace(path: Path, res: RunResult, echo: List[str]) -> None:
    rows = [",".join(_TRACE_COLUMNS)]
    for r in res.records:
        rows.append(",".join((
            str(r.k), str(r.i_k), repr(float(r.H_k)), repr(float(r.gamma_k)),
            repr(float(r.step_norm)), str(r.F_evals_cum), str(r.J_evals_cum),
            str(r.subproblems_cum), repr(float(r.gap_point)),
            repr(float(r.gap_avg)), str(r.wall_ns))))
    path.write_text("\n".join(echo + rows) + "\n")


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _environment() -> dict:
    """The numeric environment that byte-identical traces depend on."""
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            **{v: os.environ.get(v) for v in _BLAS_THREAD_VARS}}


def summary_payload(instance: ProblemInstance, cfg: SolverConfig,
                    res: RunResult) -> dict:
    checks = {}
    for name, v in res.bound_checks.items():
        checks[name] = {"status": v.status,
                        "measured": _finite_or_none(v.measured),
                        "bound": _finite_or_none(v.bound),
                        "note": v.note}
    early = None
    if res.early_exit is not None:
        early = {"k": res.early_exit.k, "i": res.early_exit.i,
                 "gap": _finite_or_none(res.early_exit.gap)}
    return {
        "environment": _environment(),
        "problem": instance.name,
        "method": res.method,
        "K": cfg.K,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "iterations": len(res.records),
        "final_gap": _finite_or_none(res.final_gap),
        "converged_at": res.converged_at,
        "early_exit": early,
        "H_final": _finite_or_none(res.H_final),
        "counters": {"F_evals": res.counters.f_evals,
                     "J_evals": res.counters.j_evals,
                     "D_evals": res.counters.d_evals,
                     "subproblems": res.counters.subproblems},
        "bound_checks": checks,
    }


def cmd_solve(args) -> int:
    instance, cfg, outdir = _resolve(args)
    res = execute(instance, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    write_trace(outdir / "trace.csv", res, config_echo(instance, cfg))
    payload = summary_payload(instance, cfg, res)
    (outdir / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"{cfg.method} on {instance.name}: {len(res.records)} iterations, "
          f"final gap {res.final_gap:.6e} -> {outdir}")
    return 0


def _slope_target(method: str, nu: float, p: int) -> float:
    if method in ("uren", "uret"):
        return -3.0 * (p - 1.0 + nu) / 4.0
    if method == "extragradient":
        return -1.0
    return -(p + nu) / 2.0


def cmd_rates(args) -> int:
    instance, cfg, outdir = _resolve(args)
    grid = _parse_grid(args.grid)
    tol = args.tol_slope
    if tol is None:
        tol = 0.3 if cfg.method in ("uren", "uret") else 0.25
    target = _slope_target(cfg.method, cfg.nu, cfg.p)

    def one(K):
        return execute(instance, replace(cfg, K=K)).final_gap

    with ThreadPoolExecutor(max_workers=min(len(grid), os.cpu_count() or 1)) as pool:
        gaps = list(pool.map(one, grid))
    points = list(zip(grid, gaps))
    slope = fit_rate_slope(points)
    passed = slope <= target + tol

    outdir.mkdir(parents=True, exist_ok=True)
    echo = config_echo(instance, cfg)
    rows = ["K,gap_avg"] + [f"{K},{repr(float(g))}" for K, g in points]
    (outdir / "rates.csv").write_text("\n".join(echo + rows) + "\n")
    payload = {"problem": instance.name, "method": cfg.method,
               "grid": list(grid),
               "gaps": [_finite_or_none(g) for g in gaps],
               "slope": slope, "target": target, "tolerance": tol,
               "passed": passed}
    (outdir / "rates.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    verdict = "ok" if passed else "too shallow"
    print(f"{cfg.method} on {instance.name}: slope {slope:.4f} vs target "
          f"{target:.4f} + {tol} ({verdict}) -> {outdir}")
    return 0 if passed else 2


def _parse_grid(raw: Optional[str]):
    if raw is None:
        return _DEFAULT_GRID
    try:
        grid = tuple(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad K grid {raw!r}") from exc
    if len(grid) < 4 or any(k < 1 for k in grid) or sorted(set(grid)) != list(grid):
        raise ConfigError("K grid needs >= 4 strictly increasing positive entries")
    return grid


def cmd_verify(args) -> int:
    results = run_checks(only=args.only, h_scale=args.scale_declared_h)
    print(format_table(results))
    return 0 if all_passed(results) else 1


def _add_run_flags(sp) -> None:
    sp.add_argument("--problem", help="instance, e.g. power:d=5,nu=0.5,r=1")
    sp.add_argument("--config", help="INI run file with [problem]/[solver]/[output]")
    sp.add_argument("--method", choices=METHODS)
    sp.add_argument("--nu", help="Holder exponent in [0,1], or 'auto'")
    sp.add_argument("--H", help="smoothness constant, or 'auto' for the declared one")
    sp.add_argument("--H0", help="starting line-search coefficient, or 'auto'")
    sp.add_argument("--K", type=int, help="iteration budget")
    sp.add_argument("--eps", type=float, help="target accuracy")
    sp.add_argument("--p", type=int, help="model order (2 or 3)")
    sp.add_argument("--inner-tol", dest="inner_tol", type=float,
                    help="subproblem residual tolerance")
    sp.add_argument("--max-doublings", dest="max_doublings", type=int)
    sp.add_argument("--step", help="extragradient step, or 'auto'")
    sp.add_argument("--seed", type=int, help="seed for start point and estimates")
    sp.add_argument("--gap-cadence", dest="gap_cadence", type=int,
                    help="evaluate the averaged gap every this many iterations")
    sp.add_argument("--report-radius", dest="report_radius", type=float,
                    help="reporting ball radius for unbounded sets")
    sp.add_argument("--out", help="output directory (default '.')")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    ``main`` call (its defaults read no environment)."""
    parser = _Parser(prog="holder-vi",
                     description="Extra-Newton solvers for monotone variational "
                                 "inequalities, with rate sweeps and self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[], help="run one solver, write "
                        "trace.csv and summary.json")
    _add_run_flags(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("rates", help="sweep a K grid and fit the gap slope")
    _add_run_flags(sp)
    sp.add_argument("--grid", help="comma-separated K values (default 16..1024)")
    sp.add_argument("--tol-slope", dest="tol_slope", type=float,
                    help="slope tolerance (default 0.25, universal 0.3)")
    sp.set_defaults(fn=cmd_rates)

    sp = sub.add_parser("verify", help="run the self-verification suite")
    sp.add_argument("--only", choices=GROUPS, help="run one check group")
    sp.add_argument("--scale-declared-h", dest="scale_declared_h", type=float,
                    default=1.0,
                    help="rescale declared constants (negative control)")
    sp.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except HolderVIError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
