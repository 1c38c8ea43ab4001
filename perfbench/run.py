"""End-to-end benchmark of the holder-vi CLI.

    python3 perfbench/run.py --workload box-peg --seed 1 --seconds 25 --trace 0

Run from anywhere inside a holder_vi checkout; the package is imported
from the checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from client import BLAS_VARS, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_scratch"
# set-up is timed in this many extra children plus the workload child
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150

# (name, unit); measured untraced
END_TO_END = (
    ("setup_s", "s"),
    ("cmd_s_p50", "s"),
    ("cmd_s_tail", "s"),
    ("cmd_per_s", "1/s"),
    ("certified_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
)


class ChildFailed(RuntimeError):
    pass


def spawn(args: list, env: dict) -> dict:
    """Run client.py to completion; its last stdout line, plus setup_s."""
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "client.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"client timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"client exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is shared by all processes on the machine
    result["setup_s"] = (result["ready_ns"] - t0) / 1e9
    return result


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(res: dict, setups: list) -> dict:
    walls = sorted(res["walls"])
    n = len(walls)
    certified = res["attempted"] - res["failed"]
    return {
        "setup_s": statistics.median(setups),
        "cmd_s_p50": statistics.median(walls),
        # highest percentile with at least 10 samples beyond it
        "cmd_s_tail": walls[n - 11],
        "cmd_per_s": statistics.median(res["cycle_rates"]),
        "certified_ratio": certified / res["attempted"],
        "peak_rss_mib": res["peak_rss_mib"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "holder_vi" / "__init__.py").is_file():
        print(f"perfbench: no holder_vi package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # byte-compile first so that set-up times a warm import every time
    compileall.compile_dir(str(SRC), quiet=1)
    SCRATCH.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in BLAS_VARS})
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--scratch", str(SCRATCH)]
    try:
        probes = ([] if args.trace else
                  [spawn(child_args + ["--setup-only"], env)
                   for _ in range(SETUP_PROBES)])
        res = spawn(child_args, env)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = res["layers"]
    else:
        units = dict(END_TO_END)
        values = end_to_end(res, [p["setup_s"] for p in probes + [res]])
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    n = len(res["walls"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cmd_s_tail_percentile": 100.0 * (n - 10) / n if n > 10 else None,
        "untraced_samples": n, "fail_ratio": res["failed"] / res["attempted"],
        "errors": res["errors"], "fingerprints": res["fingerprints"],
        "env": {**res["env"], "git_rev": git_rev(), "workload_seed": args.seed,
                "blas_env_seen": {v: os.environ.get(v) for v in BLAS_VARS}},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
