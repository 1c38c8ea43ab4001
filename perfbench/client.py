"""One workload client: a closed loop of holder-vi commands in one process.

``run.py`` starts this file as a child process for every workload run and
for every set-up probe.  Each command goes through the real CLI path,
``holder_vi.cli.main([...])``, in-process, and is checked before the next
one starts.  The last line on stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracer import Tracer, layer_totals


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple
    # solve: final_gap must not exceed it; None: rates gate (finite gaps)
    gap_gate: Optional[float]

    @property
    def problem(self) -> str:
        return self.argv[self.argv.index("--problem") + 1]


WORKLOADS = {w.name: w for w in (
    Workload("box-peg",
             "box set: every subproblem runs the kernels.peg_regularized PEG "
             "kernel, the secular path never runs",
             ("solve", "--problem", "piecewise:d=64", "--method", "nu-aren",
              "--H0", "auto", "--K", "50"), 1e-8),
    Workload("ball-secular",
             "time to gap 1e-9 by uren's early exit: dense d=200 secular solves "
             "and eigvalsh PSD checks, PEG never runs",
             ("solve", "--problem", "power:d=200,nu=1", "--method", "uren",
              "--H0", "1", "--K", "100", "--eps", "1e-9"), 1e-9),
    Workload("tensor-p3",
             "order-3 models: subproblem.peg_callable on the model closure, "
             "each evaluation calling the D2F oracle",
             ("solve", "--problem", "quartic:d=4", "--method", "nu-aret",
              "--p", "3", "--H0", "auto", "--K", "6"), 1e-2),
    Workload("rates-sweep",
             "many small d=5 solves through cmd_rates, its thread pool and 7 "
             "execute calls, where per-call overhead dominates",
             ("rates", "--problem", "power:d=5,nu=0.5", "--method", "nu-aren",
              "--H0", "auto"), None),
)}

# Every run cycles through this fixed set of start points; the workload
# seed orders them.  A fixed set keeps runs comparable: on tensor-p3 the
# command time varies 2.6x between start points (1.1-2.9 s over 60 seeds)
# and only about a dozen commands fit in a run.
START_SEEDS = (0, 1, 2, 3)
# cmd_s_tail is the highest percentile with at least 10 samples beyond it
MIN_SAMPLES = 11
# BLAS thread pools are pinned to one thread in the child's environment
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Layer counts that must repeat exactly for one start point.
FINGERPRINT_LAYERS = (
    "solvers.iterations", "linesearch.trials", "core.F.calls", "core.J.calls",
    "core.D2F.calls", "subproblem.secular.calls", "subproblem.secular.evals",
    "kernels.peg.evals", "tensor.peg.evals")

# (name, unit, better); per traced command unless a ratio or a median.
PER_LAYER = (
    ("kernels.peg.calls", "count", "lower"),
    ("kernels.peg.s", "s", "lower"),
    ("kernels.peg.evals", "count", "lower"),
    ("kernels.peg.flops_computed", "flop", "lower"),
    ("tensor.solve.calls", "count", "lower"),
    ("tensor.solve.self_s", "s", "lower"),
    ("tensor.peg.calls", "count", "lower"),
    ("tensor.peg.s", "s", "lower"),
    ("tensor.peg.evals", "count", "lower"),
    ("subproblem.solve.calls", "count", "lower"),
    ("subproblem.solve.self_s", "s", "lower"),
    ("subproblem.secular.calls", "count", "lower"),
    ("subproblem.secular.s", "s", "lower"),
    ("subproblem.secular.evals", "count", "lower"),
    ("subproblem.peg.calls", "count", "lower"),
    ("subproblem.fallbacks", "count", "lower"),
    ("subproblem.failures", "count", "lower"),
    ("linesearch.search.calls", "count", "lower"),
    ("linesearch.search.self_s", "s", "lower"),
    ("linesearch.trials", "count", "lower"),
    ("linesearch.accept_ratio", "ratio", "higher"),
    ("linesearch.rejected", "count", "lower"),
    ("model.build.calls", "count", "lower"),
    ("model.build.s", "s", "lower"),
    ("core.F.calls", "count", "lower"),
    ("core.F.s", "s", "lower"),
    ("core.J.calls", "count", "lower"),
    ("core.J.s", "s", "lower"),
    ("core.D2F.calls", "count", "lower"),
    ("core.D2F.s", "s", "lower"),
    ("metrics.gap.calls", "count", "lower"),
    ("metrics.gap.s", "s", "lower"),
    ("metrics.verdicts.s", "s", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.outer.self_s", "s", "lower"),
    ("solvers.prox.calls", "count", "lower"),
    ("solvers.prox.s", "s", "lower"),
    ("cli.execute.calls", "count", "lower"),
    ("cli.execute.s", "s", "lower"),
    ("cli.write_trace.s", "s", "lower"),
    ("cli.write_trace.bytes", "bytes", "lower"),
    ("cli.other.self_s", "s", "lower"),
    ("problems.parse.s", "s", "lower"),
    ("trace.cmd_s_p50", "s", "lower"),
    ("trace.untraced_cmd_s_p50", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def run_command(cli, argv, tracer: Optional[Tracer] = None):
    """One CLI invocation, traced when ``tracer`` is given.

    Returns (exit code, wall seconds); the spans stay in ``tracer``.
    """
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.command():
                rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "exception"
    finally:
        wall = (time.perf_counter_ns() - t0) / 1e9
        if tracer is not None:
            tracer.restore()
    return rc, wall


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_rows(path: Path):
    """Trace rows (header included) with the wall_ns column removed."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    drop = header.index("wall_ns")
    return [",".join(c for i, c in enumerate(ln.split(",")) if i != drop)
            for ln in lines]


class Checker:
    """Correctness gate and exact-count fingerprints for one workload."""

    def __init__(self, cli, wl: Workload, instance):
        self.cli, self.wl, self.instance = cli, wl, instance
        self.fingerprints = {}

    def check(self, argv, rc, out: Path, seed: int, layers=None):
        """Failure reasons of one finished command (empty when certified)."""
        if rc != 0:
            return [f"exit code {rc}"]
        if self.wl.gap_gate is None:
            reasons, fp = self._rates(out)
        else:
            reasons, fp = self._solve(argv, out)
        if layers is not None:
            fp.update({k: int(layers.get(k, 0)) for k in FINGERPRINT_LAYERS})
        known = self.fingerprints.setdefault(seed, {})
        for key, value in fp.items():
            if known.setdefault(key, value) != value:
                reasons.append(f"fingerprint {key} of start seed {seed}: "
                               f"{value} != {known[key]}")
        return reasons

    def _solve(self, argv, out: Path):
        reasons = []
        summary = json.loads((out / "summary.json").read_text())
        gap = summary["final_gap"]
        if gap is None or not gap <= self.wl.gap_gate:
            reasons.append(f"final_gap {gap} above {self.wl.gap_gate}")
        failed = sorted(k for k, v in summary["bound_checks"].items()
                        if v["status"] == "fail")
        if failed:
            reasons.append("bound checks failed: " + ", ".join(failed))
        _, cfg, _ = self.cli._resolve(self.cli.build_parser().parse_args(argv))
        expected = {"problem": self.instance.name, "solver": dataclasses.asdict(cfg)}
        if self.cli.parse_echo(out / "trace.csv") != expected:
            reasons.append("config echo does not round-trip")
        rows = trace_rows(out / "trace.csv")
        i_k = rows[0].split(",").index("i_k")
        fp = {"iterations": summary["iterations"],
              "trials": sum(int(r.split(",")[i_k]) + 1 for r in rows[1:]),
              **summary["counters"],
              "trace_sha256": _digest("\n".join(rows))}
        return reasons, fp

    def _rates(self, out: Path):
        gaps = json.loads((out / "rates.json").read_text())["gaps"]
        reasons = [] if all(g is not None and math.isfinite(g) for g in gaps) \
            else [f"non-finite gap in {gaps}"]
        return reasons, {"points": len(gaps),
                         "rates_sha256": _digest((out / "rates.csv").read_text())}


def layer_metrics(total, n_traced, traced_walls, untraced_walls):
    """Per-layer metrics: sums over traced commands divided by their count."""
    per = {k: v / n_traced for k, v in total.items()}
    per["cli.other.self_s"] = per.get("cli.main.self_s", 0.0)
    trials = total.get("linesearch.trials", 0.0)
    per["linesearch.accept_ratio"] = (total.get("linesearch.accepted", 0.0) / trials
                                      if trials else 0.0)
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    per.update({"trace.cmd_s_p50": traced, "trace.untraced_cmd_s_p50": untraced,
                "trace.overhead_s": traced - untraced})
    return {name: per.get(name, 0.0) for name, _, _ in PER_LAYER}


def run_loop(cli, wl: Workload, instance, seed: int, seconds: float,
             trace: bool, out: Path) -> dict:
    """Warm-up command, then whole cycles over START_SEEDS until ``seconds``.

    With ``trace`` every start point runs once traced and once untraced,
    in alternating order, so the two medians come from the same commands.
    """
    rng = random.Random(seed)
    checker = Checker(cli, wl, instance)
    tracer = Tracer() if trace else None

    def one(start, traced):
        for f in out.iterdir():
            f.unlink()
        argv = [*wl.argv, "--seed", str(start), "--out", str(out)]
        rc, wall = run_command(cli, argv, tracer if traced else None)
        layers = layer_totals(tracer.take()) if traced else None
        return checker.check(argv, rc, out, start, layers), wall, layers

    warm_errors, _, _ = one(START_SEEDS[0], False)
    errors = [f"warm-up: {e}" for e in warm_errors]
    walls = {False: [], True: []}
    layer_sum = defaultdict(float)
    attempted = failed = 0
    cycle_rates = []  # certified commands per second, one per cycle
    min_untraced = 1 if trace else MIN_SAMPLES
    t0 = time.perf_counter()
    cycle = 0
    while True:
        t_cycle, attempted_before, failed_before = time.perf_counter(), attempted, failed
        for start in rng.sample(START_SEEDS, len(START_SEEDS)):
            modes = ((False,) if not trace else
                     (True, False) if (cycle + start) % 2 == 0 else (False, True))
            for traced in modes:
                reasons, wall, layers = one(start, traced)
                attempted += 1
                walls[traced].append(wall)
                if reasons:
                    failed += 1
                    errors.extend(f"seed {start}: {r}" for r in reasons)
                if layers is not None:
                    for k, v in layers.items():
                        layer_sum[k] += v
        now = time.perf_counter()
        certified = (attempted - attempted_before) - (failed - failed_before)
        cycle_rates.append(certified / (now - t_cycle))
        cycle += 1
        if (now - t0 >= seconds
                and len(walls[False]) >= min_untraced):
            break

    import numpy
    from holder_vi import kernels

    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "errors": errors[:20], "walls": walls[False], "cycle_rates": cycle_rates,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprints": {str(k): v for k, v in sorted(checker.fingerprints.items())},
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "numba_importable": kernels.HAS_NUMBA, "nproc": os.cpu_count(),
                "blas_env_set": {v: os.environ.get(v) for v in BLAS_VARS}},
    }
    if trace:
        result["layers"] = layer_metrics(layer_sum, len(walls[True]),
                                         walls[True], walls[False])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="report the ready time and exit")
    parser.add_argument("--scratch", required=True,
                        help="directory for the commands' output files")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import holder_vi
    from holder_vi import cli

    instance = holder_vi.parse_problem(wl.problem)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0
    out = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.scratch))
    try:
        result = run_loop(cli, wl, instance, args.seed, args.seconds,
                          bool(args.trace), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result["ready_ns"] = ready_ns
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
