"""Span tracing of holder_vi's layers from outside the package.

``Tracer.install`` replaces each traced function at the name its caller
looks it up under (``from .x import y`` copies ``y`` into the calling
module, so ``solve_model_vi`` is patched in ``linesearch``, ``solvers``
and ``tensor``; operator oracles are patched on ``core.Operator``), and
``Tracer.restore`` puts every original object back.

A span is ``(id, parent, name, thread, start_ns, end_ns, info, error)``.
Parents come from a per-thread stack; a span opened on a thread whose
stack is empty (the ``rates`` pool workers) is parented to the root span
of the command in flight, so one command is one tree.  Spans stay in
memory until ``take`` hands them over, and ``layer_totals`` folds the
spans of one command into per-layer sums.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "cli.main"


def _iterations(args, kwargs, out):
    return len(out.records)


def _bytes_written(args, kwargs, out):
    return os.path.getsize(args[0])


def _search_trials(args, kwargs, out):
    # a trial rejected by TrialRejected is recorded with lhs = inf
    return out.i_k + 1, sum(1 for _, lhs, _ in out.trials if lhs == math.inf)


def _solution(args, kwargs, out):
    return out.method, out.evals


def _kernel_evals(args, kwargs, out):
    return out[2], len(args[0])


def _peg_evals(args, kwargs, out):
    return out[2]


def _deriv_order(args, kwargs, out):
    return args[1]


def bindings():
    """(owner, attribute, span name, info function) for every traced call."""
    from holder_vi import cli, core, linesearch, solvers, subproblem, tensor

    runs = ("run_nu_ren", "run_nu_aren", "run_uren", "run_extragradient",
            "run_nu_aret", "run_uret")
    return ([(cli, name, "solvers.outer", None) for name in runs] + [
        (cli, "execute", "cli.execute", _iterations),
        (cli, "write_trace", "cli.write_trace", _bytes_written),
        (cli, "parse_problem", "problems.parse", None),
        (solvers, "search", "linesearch.search", _search_trials),
        (solvers, "build_linear_model", "model.build", None),
        (linesearch, "build_linear_model", "model.build", None),
        (solvers, "solve_model_vi", "subproblem.solve", _solution),
        (linesearch, "solve_model_vi", "subproblem.solve", _solution),
        (tensor, "solve_model_vi", "subproblem.solve", _solution),
        (solvers, "prox_step", "solvers.prox", None),
        (solvers, "gap_upper_bound", "metrics.gap", None),
        (solvers, "bound_verdicts", "metrics.verdicts", None),
        (subproblem, "peg_regularized", "kernels.peg", _kernel_evals),
        (tensor, "solve_tensor_subproblem", "tensor.solve", None),
        (tensor, "peg_callable", "tensor.peg", _peg_evals),
        (core.Operator, "value", "core.F", None),
        (core.Operator, "jacobian", "core.J", None),
        (core.Operator, "deriv_apply", "core.deriv", _deriv_order),
    ])


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``holder_vi.subproblem``.

    Every warning that module issues is a fallback (secular breakdown or a
    non-monotone model); each is marked as a zero-length span and then
    issued unchanged, attributed to the same source line.
    """

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, source=None):
        self._tracer.mark("subproblem.fallback")
        warnings.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        return stack[-1] if stack else self.root

    def _wrap(self, fn, name, info):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            out = error = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                detail = info(args, kwargs, out) if info and error is None else None
                spans.append((sid, parent, name, threading.get_ident(), t0, t1,
                              detail, error))

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        from holder_vi import subproblem

        for owner, attr, name, info in bindings():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        self._saved.append((subproblem, "warnings", vars(subproblem)["warnings"]))
        subproblem.warnings = _CountingWarnings(self)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self, name):
        t = time.perf_counter_ns()
        self.spans.append((next(self._ids), self._parent(self._stack()), name,
                           threading.get_ident(), t, t, None, None))

    @contextmanager
    def command(self):
        """Root span around one CLI invocation."""
        sid = next(self._ids)
        stack = self._stack()
        self.root = sid
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.root = None
            self.spans.append((sid, None, ROOT_SPAN, threading.get_ident(), t0, t1,
                               None, None))

    def take(self):
        """The spans recorded so far, which are then forgotten."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans (s).

    Children on different threads may overlap, so coverage is the length
    of the union of their intervals.
    """
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, _, _ in spans:
        covered, reach = 0, t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, t1)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (t1 - t0 - covered) / 1e9
    return out


def layer_totals(spans):
    """Per-layer sums over one command's spans.

    Keys are ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` for every
    span name, plus the counts carried in span info.
    """
    own = self_times(spans)
    tot = defaultdict(float)
    for sid, _, name, _, t0, t1, info, error in spans:
        if name == "core.deriv":
            name = f"core.D{info}F" if info is not None else "core.deriv"
        dur = (t1 - t0) / 1e9
        tot[name + ".calls"] += 1
        tot[name + ".s"] += dur
        tot[name + ".self_s"] += own[sid]
        if info is None:
            if name == "subproblem.solve" and error == "SubproblemFailure":
                tot["subproblem.failures"] += 1
            continue
        if name == "kernels.peg":
            evals, dim = info
            tot["kernels.peg.evals"] += evals
            tot["kernels.peg.flops_computed"] += evals * (2 * dim * dim + 10 * dim)
        elif name == "tensor.peg":
            tot["tensor.peg.evals"] += info
        elif name == "subproblem.solve":
            method, evals = info
            tot[f"subproblem.{method}.calls"] += 1
            tot[f"subproblem.{method}.s"] += dur
            tot[f"subproblem.{method}.evals"] += evals
        elif name == "linesearch.search":
            trials, rejected = info
            tot["linesearch.accepted"] += 1
            tot["linesearch.trials"] += trials
            tot["linesearch.rejected"] += rejected
        elif name == "cli.execute":
            tot["solvers.iterations"] += info
        elif name == "cli.write_trace":
            tot["cli.write_trace.bytes"] += info
    tot["subproblem.fallbacks"] = tot["subproblem.fallback.calls"]
    return dict(tot)
