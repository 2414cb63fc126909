"""Out-of-program tracing for the qmave benchmark.

``Tracer`` wraps library functions at every module attribute through
which a caller looks them up (``qmave.localfit._solve_qr_batch`` as well
as ``qmave.solver._solve_qr_batch``), records one span per call, and
restores the originals afterwards.  Nothing is added to the program.

A span is ``(label, start, end, parent)``; ``parent`` is the index of the
innermost wrapped call that was open when the span started.  Probes
record counts taken from a call's arguments and result.  A target whose
function no longer exists is reported as absent: every metric derived
from it reads ``None``, never zero.  A share over zero attempts (no
polish rounds on a squared-loss fit, say) reads 0.0.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PROBE_FAILED = "probe-failed"


def _rows(args, kwargs, out):
    Z, w = args[0], args[2]
    return {
        "rows": int(np.shape(Z)[0] * np.shape(Z)[1]),
        "weighted": int(np.count_nonzero(np.asarray(w) > 0)),
        "incomplete": int(not out[2]),
    }


def _polish_round(args, kwargs, out):
    return {"improving": int(np.any(np.asarray(out[1]) < np.asarray(args[5])))}


def _anchors(pos):
    def probe(args, kwargs, out):
        return {"anchors": int(np.size(args[pos])), "kept": int(np.size(out[0]))}

    return probe


def _kernel(args, kwargs, out):
    return {"cells": int(np.size(args[1]))}


def _problem_rows(args, kwargs, out):
    return {"rows": int(out.n)}


def _fit(args, kwargs, out):
    theta = np.asarray(out.theta, dtype=float)
    unit = bool(np.all(np.isfinite(theta)) and abs(np.linalg.norm(theta) - 1.0) <= 1e-9)
    return {
        "iterations": int(out.iterations),
        "converged": int(bool(out.converged)),
        "theta_ok": int(unit),
    }


def _ade(args, kwargs, out):
    return {"opg": int(out.method_used == "OPG")}


# label -> (defining module, attribute, probe or None).  The label's
# first part names the layer.
TARGETS = {
    "core.kernel_eval": ("qmave.core", "kernel_eval", _kernel),
    "solver._solve_qr_batch": ("qmave.solver", "_solve_qr_batch", _rows),
    "solver._polish_batch": ("qmave.solver", "_polish_batch", None),
    "solver._polish_round": ("qmave.solver", "_polish_round", _polish_round),
    "solver._solve_ls_batch": ("qmave.solver", "_solve_ls_batch", None),
    "solver.solve_weighted_qr": ("qmave.solver", "solve_weighted_qr", None),
    "solver.solve_weighted_ls": ("qmave.solver", "solve_weighted_ls", None),
    "localfit.index_fit_batch": ("qmave.localfit", "index_fit_batch", _anchors(2)),
    "localfit.full_fit_batch": ("qmave.localfit", "full_fit_batch", _anchors(1)),
    "initial.ade_initial_estimate": ("qmave.initial", "ade_initial_estimate", _ade),
    "fit._auto_init": ("qmave.fit", "_auto_init", None),
    "fit._median_window_count": ("qmave.fit", "_median_window_count", None),
    "fit.inner_step": ("qmave.fit", "inner_step", None),
    "fit.outer_step": ("qmave.fit", "outer_step", None),
    "fit.outer_problem": ("qmave.fit", "outer_problem", _problem_rows),
    "fit.eq_objective": ("qmave.fit", "eq_objective", None),
    "fit.qmave_fit": ("qmave.fit", "qmave_fit", _fit),
    "simulate.gen_model8": ("qmave.simulate", "gen_model8", None),
    "simulate.run_benchmark": ("qmave.simulate", "run_benchmark", None),
}


@dataclass
class Span:
    label: str
    start: float
    end: float
    parent: int | None
    info: object = None  # probe dict, {"raised": name}, PROBE_FAILED or None


class Tracer:
    """Installs wrappers for every target in ``TARGETS`` while a pass
    runs; ``spans`` and ``absent`` hold the last pass's record."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []
        self._patched = []

    def __enter__(self):
        self.spans = []
        self.absent = set()
        modules = [
            m for name, m in list(sys.modules.items()) if name == "qmave" or name.startswith("qmave.")
        ]
        for label, (modname, attr, probe) in TARGETS.items():
            original = getattr(sys.modules.get(modname), attr, None)
            if not callable(original):
                self.absent.add(label)
                continue
            wrapper = self._wrap(label, original, probe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []
        return False

    def _wrap(self, label, fn, probe):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(label, perf_counter(), math.nan, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    span.info = probe(args, kwargs, out)
                except Exception:  # a changed signature must not stop the run
                    span.info = PROBE_FAILED
            return out

        return wrapper


class SpanSet:
    """Durations, self times and outermost sums over one list of spans."""

    def __init__(self, spans, absent):
        self.spans = spans
        self.absent = absent
        self.dur = [s.end - s.start for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s.parent is not None:
                child[s.parent] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def missing(self, *labels):
        return any(label in self.absent for label in labels)

    def total(self, *labels):
        """Time inside any of ``labels``, counting nested calls once."""
        if self.missing(*labels):
            return None
        group = set(labels)
        inside = [False] * len(self.spans)
        total = 0.0
        for i, s in enumerate(self.spans):
            p = s.parent
            inside[i] = p is not None and (self.spans[p].label in group or inside[p])
            if s.label in group and not inside[i]:
                total += self.dur[i]
        return total

    def self_total(self, label):
        if self.missing(label):
            return None
        return sum((t for s, t in zip(self.spans, self.self_time) if s.label == label), 0.0)

    def calls(self, label, completed=False):
        if self.missing(label):
            return None
        return sum(
            1
            for s in self.spans
            if s.label == label and not (completed and isinstance(s.info, dict) and "raised" in s.info)
        )

    def count(self, label, key):
        """Sum of probe field ``key`` over completed calls of ``label``."""
        if self.missing(label):
            return None
        total = 0
        for s in self.spans:
            if s.label != label or (isinstance(s.info, dict) and "raised" in s.info):
                continue
            if not isinstance(s.info, dict) or key not in s.info:
                return None
            total += s.info[key]
        return total


def _ratio(num, den):
    """num / den; None when either is absent, 0.0 over zero attempts."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(spans, absent):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    S = SpanSet(spans, absent)
    qr, polish = "solver._solve_qr_batch", "solver._polish_batch"
    fits = S.calls("fit.qmave_fit", completed=True)
    ade_calls = S.calls("initial.ade_initial_estimate")
    return {
        "solver.qr_batch_s": S.total(qr),
        "solver.polish_s": S.total(polish),
        "solver.irls_s": None if S.missing(polish) else S.self_total(qr),
        "solver.polish_rounds": S.calls("solver._polish_round"),
        "solver.polish_improving_share": _ratio(
            S.count("solver._polish_round", "improving"), S.calls("solver._polish_round")
        ),
        "solver.qr_rows": S.count(qr, "rows"),
        "solver.qr_weighted_share": _ratio(S.count(qr, "weighted"), S.count(qr, "rows")),
        "solver.incomplete": S.count(qr, "incomplete"),
        "solver.outer_qr_s": S.total("solver.solve_weighted_qr"),
        "solver.ls_s": S.total("solver.solve_weighted_ls", "solver._solve_ls_batch"),
        "localfit.index_batch_s": S.total("localfit.index_fit_batch"),
        "localfit.index_anchors": S.count("localfit.index_fit_batch", "anchors"),
        "localfit.index_kept_share": _ratio(
            S.count("localfit.index_fit_batch", "kept"),
            S.count("localfit.index_fit_batch", "anchors"),
        ),
        "localfit.full_batch_s": S.total("localfit.full_fit_batch"),
        "localfit.full_anchors": S.count("localfit.full_fit_batch", "anchors"),
        "localfit.full_kept_share": _ratio(
            S.count("localfit.full_fit_batch", "kept"),
            S.count("localfit.full_fit_batch", "anchors"),
        ),
        "core.kernel_cells": S.count("core.kernel_eval", "cells"),
        "core.kernel_eval_s": S.total("core.kernel_eval"),
        "fit.outer_problem_s": S.total("fit.outer_problem"),
        "fit.outer_problem_rows": S.count("fit.outer_problem", "rows"),
        "fit.eq_objective_s": S.total("fit.eq_objective"),
        "fit.ladder_probe_s": S.total("fit._median_window_count"),
        "fit.auto_init_s": S.total("fit._auto_init"),
        "fit.inner_step_s": S.total("fit.inner_step"),
        "fit.outer_step_s": S.total("fit.outer_step"),
        "fit.iterations_per_fit": _ratio(S.count("fit.qmave_fit", "iterations"), fits),
        "fit.converged_share": _ratio(S.count("fit.qmave_fit", "converged"), fits),
        "initial.ade_s": S.total("initial.ade_initial_estimate"),
        "initial.ade_calls_per_fit": _ratio(ade_calls, S.calls("fit.qmave_fit")),
        "initial.opg_share": _ratio(S.count("initial.ade_initial_estimate", "opg"), ade_calls),
        "simulate.gen_s": S.total("simulate.gen_model8"),
        "simulate.harness_self_s": S.self_total("simulate.run_benchmark"),
    }


def theta_problems(spans):
    """Fits whose returned index was not a finite unit vector."""
    return [
        f"traced fit {i}: theta not a finite unit vector"
        for i, s in enumerate(spans)
        if s.label == "fit.qmave_fit" and isinstance(s.info, dict) and s.info.get("theta_ok") == 0
    ]


def median_metrics(passes):
    """Median over passes of each metric; None stays None."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out


def spans_json(spans, origin):
    """Compact span list: ``[label, start, end, parent]``, times from origin."""
    return [[s.label, s.start - origin, s.end - origin, s.parent] for s in spans]
