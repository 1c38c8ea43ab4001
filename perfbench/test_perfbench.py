"""Tests of the benchmark itself: tracing must not change what holder-vi
writes, spans must add up, and the benchmark must match BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holder_vi import cli, subproblem
from holder_vi.core import Ball
from holder_vi.model import LinearModel, RegularizedModel

import run as bench
from client import PER_LAYER, WORKLOADS, run_command, trace_rows
from tracer import ROOT_SPAN, Tracer, bindings, layer_totals, self_times

REPO = Path(__file__).resolve().parent.parent

# one small command per workload kind
SMALL = {
    "box": ["solve", "--problem", "piecewise:d=6", "--method", "nu-aren",
            "--H0", "auto", "--K", "5"],
    "ball": ["solve", "--problem", "power:d=20,nu=1", "--method", "uren",
             "--H0", "1", "--K", "30", "--eps", "1e-6"],
    "tensor": ["solve", "--problem", "quartic:d=2", "--method", "nu-aret",
               "--p", "3", "--H0", "auto", "--K", "2"],
    "rates": ["rates", "--problem", "power:d=3,nu=0.5", "--method", "nu-aren",
              "--H0", "auto", "--grid", "4,8,16,32"],
}


def run_both(kind, tmp_path, seed=3):
    """Run one command untraced and traced; returns (dirs, wall, spans)."""
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    args = SMALL[kind] + ["--seed", str(seed)]
    assert run_command(cli, args + ["--out", str(plain)])[0] == 0
    tracer = Tracer()
    rc, wall = run_command(cli, args + ["--out", str(traced)], tracer)
    assert rc == 0
    return (plain, traced), wall, tracer.take()


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_outputs_match_untraced(kind, tmp_path):
    (plain, traced), _, spans = run_both(kind, tmp_path)
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        if name == "trace.csv":
            assert trace_rows(plain / name) == trace_rows(traced / name)
            echo = [ln for ln in (plain / name).read_text().splitlines()
                    if ln.startswith("#")]
            assert echo == [ln for ln in (traced / name).read_text().splitlines()
                            if ln.startswith("#")]
        else:
            assert (plain / name).read_bytes() == (traced / name).read_bytes()
    grid_points = 4 if kind == "rates" else 1
    assert layer_totals(spans)["cli.execute.calls"] == grid_points


@pytest.mark.parametrize("kind", ["box", "ball", "tensor"])
def test_self_times_sum_within_wall(kind, tmp_path):
    _, wall, spans = run_both(kind, tmp_path)
    own = self_times(spans)
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= wall
    root = [s for s in spans if s[2] == ROOT_SPAN]
    assert len(root) == 1 and root[0][1] is None


def test_self_time_subtracts_the_union_of_overlapping_children():
    # (id, parent, name, thread, start, end, info, error), times in ns
    spans = [(1, None, ROOT_SPAN, 0, 0, 100, None, None),
             (2, 1, "cli.execute", 1, 10, 50, None, None),
             (3, 1, "cli.execute", 2, 30, 70, None, None),
             (4, 2, "solvers.outer", 1, 20, 30, None, None),
             (5, 1, "cli.execute", 3, 40, 45, None, None)]
    assert {k: v * 1e9 for k, v in self_times(spans).items()} == \
        pytest.approx({1: 40, 2: 30, 3: 40, 4: 10, 5: 5})


def test_rates_pool_spans_link_to_the_command(tmp_path):
    _, wall, spans = run_both("rates", tmp_path)
    by_id = {s[0]: s for s in spans}
    (root,) = [s for s in spans if s[2] == ROOT_SPAN]
    executes = [s for s in spans if s[2] == "cli.execute"]
    assert len(executes) == 4
    assert all(s[1] == root[0] for s in executes)
    assert any(s[3] != root[3] for s in executes), "no span on a pool thread"
    for s in spans:
        if s is root:
            continue
        parent = by_id[s[1]]
        # below the root, a parent is always on its child's thread
        assert parent is root or parent[3] == s[3]
        assert parent[4] <= s[4] and s[5] <= parent[5]
    own = self_times(spans)
    for thread in {s[3] for s in spans}:
        assert sum(own[s[0]] for s in spans if s[3] == thread) <= wall


def test_restore_puts_every_binding_back(tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in bindings()]
    warnings_module = subproblem.warnings
    run_both("tensor", tmp_path)
    tracer = Tracer()
    # a command that fails inside the traced region restores too
    rc, _ = run_command(cli, ["solve", "--problem", "nosuch", "--method", "uren",
                              "--out", str(tmp_path)], tracer)
    assert rc == 3
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert subproblem.warnings is warnings_module


def test_fallback_warning_is_counted_and_still_issued():
    # a model whose symmetric part is negative definite forces the PSD
    # fallback to projected extragradient
    J = np.array([[-0.05, 1.0], [-1.0, -0.05]])
    model = RegularizedModel(LinearModel(np.zeros(2), np.array([0.3, -0.2]), J),
                             1.0, 10.0)
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.warns(RuntimeWarning, match="negative symmetric part"):
            sol = subproblem.solve_model_vi(model, Ball(2, np.zeros(2), 1.0), 1e-10)
    finally:
        tracer.restore()
    assert sol.method == "peg"
    totals = layer_totals(tracer.take())
    assert totals["subproblem.fallbacks"] == 1
    assert totals["kernels.peg.calls"] == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box-peg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
