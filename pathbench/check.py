"""Correctness check of every path step, run outside the timed region."""

import numpy as np

#: A step passes when the full-data KKT residual of its reassembled weights
#: is within this multiple of the solver tolerance.  The reduced solve
#: stops at the tolerance, and screened-out features add no residual when
#: screening is safe, so the factor only absorbs recomputation round-off.
KKT_FACTOR = 10.0


def step_problems(svmscreen, dataset, step, tol):
    """Reasons why one PathStep is wrong; empty when it passes."""
    problems = []
    if not step.converged:
        problems.append("solver did not converge")
    model = svmscreen.PrimalModel(
        weights=step.weights, bias=step.bias, objective=step.objective,
        iterations=0, converged=step.converged,
    )
    residual = svmscreen.kkt_report(dataset, model, step.lam).max_residual
    if not residual <= KKT_FACTOR * tol:
        problems.append(f"full-data KKT residual {residual:.3g} exceeds {KKT_FACTOR:g} x tol")
    if not np.all(np.isin(np.flatnonzero(step.weights), step.kept_indices)):
        problems.append("an active feature was screened out")
    return problems


def report_problems(svmscreen, dataset, report, tol):
    """Per-step problem lists for a whole PathReport."""
    return [step_problems(svmscreen, dataset, step, tol) for step in report.steps]


def same_path(a, b):
    """True when two PathReports hold bit-identical models and kept sets."""
    return len(a.steps) == len(b.steps) and all(
        s.bias == t.bias
        and np.array_equal(s.weights, t.weights)
        and np.array_equal(s.kept_indices, t.kept_indices)
        for s, t in zip(a.steps, b.steps)
    )
