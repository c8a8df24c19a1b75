"""Spans around the calls into each svmscreen module, recorded from outside.

The tracer replaces module (and class) attributes with timing wrappers,
so the program itself is untouched.  Spans are kept in memory with their
parent span and run id, and written out as JSONL between runs.  A name
that is missing from the program is recorded as absent instead of failing,
so the benchmark keeps working when a later version removes a function.
"""

import json
import time

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "error", "attrs")

    def __init__(self, span_id, name, parent, run):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0  # perf_counter_ns
        self.error = False
        self.attrs = {}

    @property
    def duration_ns(self):
        return self.end - self.start


def _kernel_attrs(args, result):
    """Stored entries read, and bytes computed from the sizes of the array
    arguments and results (not measured)."""
    results = result if isinstance(result, tuple) else (result,)
    nnz = args[2].size if len(args) > 2 and isinstance(args[2], np.ndarray) else 0
    return {"nnz": nnz, "bytes": sum(a.nbytes for a in (*args, *results) if isinstance(a, np.ndarray))}


def _solve_attrs(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _screen_attrs(args, result, threshold):
    # With nothing discarded the largest discarded bound is taken as 0.
    discarded = np.delete(result.bounds, result.kept)
    return {"kept": int(result.kept.size), "margin": float(discarded.max(initial=0.0)) - threshold}


def install(tracer):
    """Wrap every traced name of the svmscreen package on ``tracer``."""
    from svmscreen import data, geometry, kernels, path, screening, solver

    threshold = 1.0 - getattr(screening, "EPS_KEEP", 0.0)
    targets = [
        (path, "run_path", "path.run_path", None),
        (data, "read_sparse_file", "data.read_sparse_file", None),
        (path, "compute_feature_stats", "data.compute_feature_stats", None),
        (data.Dataset, "subset", "data.subset", None),
        (kernels, "csc_matvec", "kernels.csc_matvec", _kernel_attrs),
        (kernels, "csc_rmatvec", "kernels.csc_rmatvec", _kernel_attrs),
        (kernels, "feature_stats", "kernels.feature_stats", _kernel_attrs),
        (kernels, "screen_bulk", "kernels.screen_bulk", _kernel_attrs),
        (solver, "solve_primal", "solver.solve_primal", _solve_attrs),
        (solver, "_spectral_bound", "solver.spectral_bound", None),
        (solver, "theta_from_primal", "solver.theta_from_primal", None),
        (solver, "objective_value", "solver.objective_value", None),
        (solver, "lambda_max", "solver.lambda_max", None),
        # build_context recomputes lambda_max through its own import.
        (screening, "lambda_max", "solver.lambda_max", None),
        (screening, "build_context", "screening.build_context", None),
        (screening, "screen_all", "screening.screen_all",
         lambda args, result: _screen_attrs(args, result, threshold)),
        (geometry, "min_radius_ball", "geometry.min_radius_ball", None),
    ]
    for owner, attr, name, observe in targets:
        tracer.wrap(owner, attr, name, observe)


class Tracer:
    """Records nested spans around wrapped callables; single-threaded."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.run = None
        self._stack = []
        self._patches = []
        self._next_id = 0
        self._origin = time.perf_counter_ns()

    def wrap(self, owner, attr, name, observe=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``observe(args, result)`` may return a dict of counts stored on
        the span.  A missing attribute is listed in ``absent``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            span = Span(tracer._next_id, name, tracer._stack[-1].id if tracer._stack else None, tracer.run)
            tracer._next_id += 1
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
            if observe is not None:
                span.attrs = observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def write_jsonl(self, spans, handle):
        for s in spans:
            record = {
                "id": s.id,
                "name": s.name,
                "start": (s.start - self._origin) / 1e9,
                "end": (s.end - self._origin) / 1e9,
                "parent": s.parent,
                "run": s.run,
            }
            if s.error:
                record["error"] = True
            record.update(s.attrs)
            handle.write(json.dumps(record) + "\n")


def self_times_ns(spans):
    """Span id -> duration minus the durations of its direct children.

    Calls are single-threaded and strictly nested, so children never
    overlap and the self times of all spans under a root sum to the root's
    duration.
    """
    own = {s.id: s.duration_ns for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration_ns
    return own


KERNELS = ("kernels.csc_matvec", "kernels.csc_rmatvec", "kernels.feature_stats", "kernels.screen_bulk")

#: Unit of every metric path_metrics returns.
LAYER_UNITS = {
    "data.subset_s": "s",
    "data.subset_calls": "count",
    "data.feature_stats_s": "s",
    "kernels.rmatvec_s": "s",
    "kernels.rmatvec_calls": "count",
    "kernels.matvec_s": "s",
    "kernels.matvec_calls": "count",
    "kernels.screen_bulk_s": "s",
    "kernels.nnz_passes": "passes",
    "kernels.bytes_computed": "B",
    "kernels.gb_per_s": "GB/s",
    "solver.solve_s": "s",
    "solver.solve_self_s": "s",
    "solver.spectral_bound_s": "s",
    "solver.iterations": "count",
    "solver.kernel_calls_per_iter": "count",
    "solver.unconverged": "count",
    "solver.lambda_max_calls": "count",
    "solver.lambda_max_s": "s",
    "solver.theta_s": "s",
    "screening.build_context_s": "s",
    "screening.screen_all_s": "s",
    "screening.kept": "count",
    "screening.margin": "bound",
    "screening.untrusted_steps": "count",
    "geometry.min_radius_ball_s": "s",
    "path.self_s": "s",
    "path.traced_s": "s",
}


def path_metrics(spans, dataset_nnz):
    """Per-layer metrics of one traced run_path call, from its spans."""
    by_id = {s.id: s for s in spans}
    own = self_times_ns(spans)

    def total(name):
        return sum(s.duration_ns for s in spans if s.name == name) / 1e9

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def under(span, name):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    kernels = [s for s in spans if s.name in KERNELS]
    kernel_ns = sum(s.duration_ns for s in kernels)
    bytes_computed = sum(s.attrs.get("bytes", 0) for s in kernels)
    solves = [s for s in spans if s.name == "solver.solve_primal"]
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    screens = [s for s in spans if s.name == "screening.screen_all"]
    roots = [s for s in spans if s.name == "path.run_path"]
    return {
        "data.subset_s": total("data.subset"),
        "data.subset_calls": calls("data.subset"),
        "data.feature_stats_s": total("data.compute_feature_stats"),
        "kernels.rmatvec_s": total("kernels.csc_rmatvec"),
        "kernels.rmatvec_calls": calls("kernels.csc_rmatvec"),
        "kernels.matvec_s": total("kernels.csc_matvec"),
        "kernels.matvec_calls": calls("kernels.csc_matvec"),
        "kernels.screen_bulk_s": total("kernels.screen_bulk"),
        "kernels.nnz_passes": sum(s.attrs.get("nnz", 0) for s in kernels) / dataset_nnz,
        "kernels.bytes_computed": bytes_computed,
        "kernels.gb_per_s": bytes_computed / kernel_ns if kernel_ns else 0.0,
        "solver.solve_s": total("solver.solve_primal"),
        "solver.solve_self_s": sum(own[s.id] for s in solves) / 1e9,
        "solver.spectral_bound_s": total("solver.spectral_bound"),
        "solver.iterations": iterations,
        "solver.kernel_calls_per_iter": (
            sum(1 for s in kernels if under(s, "solver.solve_primal")) / iterations if iterations else 0.0
        ),
        "solver.unconverged": sum(1 for s in solves if not s.attrs.get("converged", True)),
        "solver.lambda_max_calls": calls("solver.lambda_max"),
        "solver.lambda_max_s": total("solver.lambda_max"),
        "solver.theta_s": total("solver.theta_from_primal"),
        "screening.build_context_s": total("screening.build_context"),
        "screening.screen_all_s": total("screening.screen_all"),
        "screening.kept": sum(s.attrs.get("kept", 0) for s in screens),
        "screening.margin": max((s.attrs["margin"] for s in screens if "margin" in s.attrs), default=-1.0),
        "screening.untrusted_steps": sum(1 for s in spans if s.name == "screening.build_context" and s.error),
        "geometry.min_radius_ball_s": total("geometry.min_radius_ball"),
        "path.self_s": sum(own[s.id] for s in roots) / 1e9,
        "path.traced_s": total("path.run_path"),
    }
