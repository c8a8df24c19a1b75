"""Regularization path driver.

Walks a decreasing lambda grid starting from lambda_max, where the model
is exactly zero and the dual point has a closed form.  Each step screens
features at the next lambda using the previous converged solution, solves
the reduced problem with a warm start, reassembles the full weight vector
and takes the solve's dual point for the step after.  Optional verify mode
checks at every step that this dual point certifies the discards (see
the end of this docstring); it must find no violation whenever the
screening inputs were trustworthy.

Screening carries each feature's certificate down the path, after the
dual-polytope-projection argument (DPP; Wang, Wonka & Ye, JMLR 2015).
The dual point is a projection, theta*(lambda) = P_F(1/lambda * 1), onto
F = {theta >= 0, theta'y = 0, |theta'fhat_j| <= 1}, a set that does not
depend on lambda.  F lies in the subspace H = {theta'y = 0}, so P_F equals
P_F composed with the linear P_H, and projections are nonexpansive:

    ||theta*(l2) - theta*(l1)|| <= ||P_H((1/l2 - 1/l1) 1)||
                                 = R (1/l2 - 1/l1),   R = ||P_y 1||,

with R^2 = n - (1'y)^2/n = 4 n_pos n_neg / n.  The difference lies in H,
so it meets fhat_j only through P_y fhat_j, and by Cauchy-Schwarz

    |theta*(l2)'fhat_j| <= |theta*(l1)'fhat_j| + ||P_y fhat_j|| R (1/l2 - 1/l1).

A bound certified at some earlier step therefore stays a bound further
down, grown by that drift.  Each step re-evaluates the paper's region
bound only for the features whose carried bound reaches the keep
threshold, and keeps the smaller of the two; the rest are discarded on
the carried bound alone.  The kept set is thus never larger than that of
the per-step rule, and every certificate rests on one region bound, so
safety needs no slack beyond EPS_KEEP.

Each step takes one of two routes, with one solve either way.  It screens
when the previous step converged, build_context accepts that step's dual
point and the region keeps a feature: the halfspace is theta1's own
optimality condition, and below lambda_max the optimum has a feature with
|theta2'fhat_j| = 1, which a correct region keeps.  Otherwise the step
keeps every feature and leaves no certificates behind.

The same projection view certifies a step after the fact.  The reduced
problem on the kept columns K has the dual point theta2 = P_{F_K}(1/l2 1),
where F_K keeps only the constraints of K, so F_K contains F.  A
projection onto the larger set that lands in the smaller one is the
projection onto the smaller one: theta2 is the full dual optimum exactly
when |theta2'fhat_j| <= 1 for every discarded j, and then every feature
with |theta2'fhat_j| < 1 has weight 0 in every full optimum.  Verify mode
checks this with one product at theta2, to the solver's tolerance.
"""

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import screening
from . import solver
from .solver import SolverOptions


class DegenerateProblemError(ValueError):
    """The dataset admits no regularization path (lambda_max is 0)."""


@dataclass(frozen=True)
class PathConfig:
    """Knobs for a path run.

    lambdas, when given, overrides the geometric grid; values must be
    strictly decreasing, positive and below lambda_max.  screen=False
    solves every step on all features, for A/B comparisons.
    """

    grid_size: int = 10
    ratio: float = 0.8
    lambdas: tuple = ()
    solver: SolverOptions = field(default_factory=SolverOptions)
    verify: bool = False
    screen: bool = True


@dataclass(frozen=True, kw_only=True)
class PathStep(solver.PrimalModel):
    """One grid value of a path: the step's model, weights over all features.

    The model is the solve on the kept columns alone; its ``theta`` is the
    full-data dual point too, since the discarded weights are 0.  Being a
    PrimalModel, a step goes to kkt_report or model_to_json as it is.  The
    step adds:

    ``trusted``, whether the previous step converged and, when screening
    is on, its dual point gave a region that keeps a feature; an untrusted
    step keeps every feature.
    ``screen_ms``, the wall time of screening for this step: building the
    screening region, bounding every feature and copying out the kept
    columns; 0 when the step did not screen because screening is off or
    the previous step did not converge.  ``solve_ms``, the solve alone.
    ``evaluated``, the number of features whose region bound was computed
    this step; the others were discarded on a bound carried from an
    earlier step (0 when screening did not run).  ``margin``, the largest
    certified bound, fresh or carried, among discarded features, below the
    keep threshold 1 - EPS_KEEP; None when nothing was discarded or
    screening did not run.  In verify mode, ``discarded_corr`` is the
    largest |theta2'fhat_j| over the discarded features at the step's own
    dual point theta2, and ``violations`` counts those above 1 by more
    than the solver tolerance; both are None when verify is off or the
    step did not converge, and discarded_corr also when nothing was
    discarded.
    """

    lam: float
    kept_indices: np.ndarray
    trusted: bool
    screen_ms: float
    solve_ms: float
    evaluated: int
    margin: object
    violations: object
    discarded_corr: object

    @property
    def kept(self):
        return int(self.kept_indices.size)

    @property
    def active(self):
        return int(np.count_nonzero(self.weights))


@dataclass(frozen=True)
class PathReport:
    lambda_max: float
    bias_at_lambda_max: float
    steps: tuple
    verify: bool

    CSV_HEADER = "lambda,kept,active,violations,screen_ms,solve_ms,objective"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for s in self.steps:
            violations = "" if s.violations is None else str(s.violations)
            lines.append(
                f"{s.lam!r},{s.kept},{s.active},{violations},"
                f"{s.screen_ms:.3f},{s.solve_ms:.3f},{s.objective!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        steps = [
            {
                "lambda": s.lam,
                "kept": s.kept,
                "active": s.active,
                "violations": s.violations,
                "discarded_corr": s.discarded_corr,
                "screen_ms": s.screen_ms,
                "solve_ms": s.solve_ms,
                **{name: getattr(s, name) for name in solver.JSON_FIELDS},
                "trusted": s.trusted,
                "evaluated": s.evaluated,
                "margin": s.margin,
            }
            for s in self.steps
        ]
        payload = {
            "lambda_max": self.lambda_max,
            "bias_at_lambda_max": self.bias_at_lambda_max,
            "verify": self.verify,
            "steps": steps,
        }
        return json.dumps(payload, indent=2)

    @property
    def total_violations(self):
        return sum(s.violations for s in self.steps if s.violations is not None)


def lambda_grid(lam_max, k, ratio):
    """Geometric grid lam_max * ratio**i for i = 1..k (lam_max excluded)."""
    if k < 1:
        raise ValueError("grid size must be at least 1")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    return float(lam_max) * float(ratio) ** np.arange(1, k + 1, dtype=np.float64)


def _validated_grid(lambdas, lam_max):
    grid = np.asarray(lambdas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("path grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
        raise ValueError("path grid values must be positive and finite")
    if np.any(np.diff(grid) >= 0.0):
        raise ValueError("path grid must be strictly decreasing")
    if grid[0] >= lam_max:
        raise ValueError("path grid must start below lambda_max")
    return grid


def run_path(dataset, config=None):
    """Trace models along a decreasing lambda grid with screening between steps.

    Parameters
    ----------
    dataset : Dataset
    config : PathConfig, optional

    Returns
    -------
    PathReport with one PathStep per grid value.

    Raises
    ------
    DegenerateProblemError
        When lambda_max is 0, i.e. the zero model is optimal everywhere
        and there is no path to trace.
    """
    cfg = config if config is not None else PathConfig()
    lam_max, bias0, _ = solver.lambda_max(dataset)
    if lam_max <= 0.0:
        raise DegenerateProblemError(
            "lambda_max is zero for this dataset, so the zero-weight model is "
            "optimal at every positive lambda and the path is empty"
        )
    if len(cfg.lambdas) > 0:
        grid = _validated_grid(cfg.lambdas, lam_max)
    else:
        grid = lambda_grid(lam_max, cfg.grid_size, cfg.ratio)
        grid = _validated_grid(grid, lam_max)

    m = dataset.n_features
    threshold = 1.0 - screening.EPS_KEEP
    # Growth of each feature's certificate per unit of 1/lambda:
    # ||P_y fhat_j|| * ||P_y 1||.
    drift = dataset.stats.proj_y_norm * (
        2.0 * np.sqrt(dataset.n_pos * dataset.n_neg / dataset.n_samples)
    )
    # cert[j] bounds |theta*'fhat_j| at the lambda with 1/lambda = inv[j];
    # None when no step has left certificates.
    cert = inv = None
    theta_prev = screening.theta_at_lambda_max(dataset, lam_max, bias0)
    lam_prev = lam_max
    w_prev = np.zeros(m)
    b_prev = float(bias0)
    prev_converged = True

    steps = []
    for lam2 in grid:
        lam2 = float(lam2)
        reduced, warm = dataset, (w_prev, b_prev)
        screen_ms, evaluated, margin = 0.0, 0, None
        trusted = prev_converged
        if cfg.screen and trusted:
            t0 = time.perf_counter()
            try:
                ctx = screening.build_context(theta_prev, lam_prev, lam2, dataset, lam_max=lam_max)
            except ValueError:
                # A converged step's theta can still fall outside
                # build_context's tolerances, e.g. at a loose --tol.
                trusted = False
            else:
                # stale: the features whose bound must be computed afresh.
                if cert is not None:
                    bounds = cert + drift * (1.0 / lam2 - inv)
                    stale = np.flatnonzero(bounds >= threshold)
                else:
                    bounds, cert, inv = np.full(m, np.inf), np.empty(m), np.empty(m)
                    stale = np.arange(m)
                fresh = screening.screen_all(ctx, stale).bounds
                np.minimum(bounds[stale], fresh, out=fresh)
                bounds[stale] = fresh
                cert[stale] = fresh
                inv[stale] = 1.0 / lam2
                evaluated = int(stale.size)
                # Features left out of stale are below the threshold already.
                kept_idx = stale[fresh >= threshold]
                # Below lambda_max a correct region keeps at least one feature.
                trusted = kept_idx.size > 0
                if trusted and kept_idx.size < m:
                    margin = float(np.max(bounds, where=bounds < threshold, initial=-np.inf))
                    reduced = dataset.subset(kept_idx)
                    warm = (w_prev[kept_idx], b_prev)
            screen_ms = (time.perf_counter() - t0) * 1000.0
        if not (cfg.screen and trusted):
            # Keep every feature; nothing is certified.
            kept_idx, cert = np.arange(m, dtype=np.int64), None

        t0 = time.perf_counter()
        model = solver.solve_primal(reduced, lam2, options=cfg.solver, warm=warm)
        solve_ms = (time.perf_counter() - t0) * 1000.0

        if kept_idx.size < m:
            weights = np.zeros(m)
            weights[kept_idx] = model.weights
            model = replace(model, weights=weights)

        violations = discarded_corr = None
        if cfg.verify and model.converged:
            # The step's theta is the full dual optimum exactly when it also
            # meets the discarded constraints (see the module docstring); the
            # test is the solver's own r1 test at its tolerance.
            violations = 0
            if kept_idx.size < m:
                corr = np.abs(dataset.rmatvec(model.theta.values * dataset.labels))
                corr[kept_idx] = 0.0
                violations = int(np.count_nonzero(corr - 1.0 > cfg.solver.tol))
                discarded_corr = float(corr.max())

        steps.append(
            PathStep(
                **vars(model),
                lam=lam2,
                kept_indices=kept_idx,
                trusted=trusted,
                screen_ms=screen_ms,
                solve_ms=solve_ms,
                evaluated=evaluated,
                margin=margin,
                violations=violations,
                discarded_corr=discarded_corr,
            )
        )
        theta_prev = model.theta
        lam_prev = lam2
        w_prev = model.weights
        b_prev = model.bias
        prev_converged = model.converged

    return PathReport(
        lambda_max=float(lam_max),
        bias_at_lambda_max=float(bias0),
        steps=tuple(steps),
        verify=cfg.verify,
    )
