"""Regularization path driver.

Walks a decreasing lambda grid starting from lambda_max, where the model
is exactly zero and the dual point has a closed form; that model is the
previous step of the first grid value.  Each step screens features at
the next lambda using the previous converged solution, solves the
reduced problem with a warm start, reassembles the full weight vector
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
down, grown by that drift.  So each feature carries one number, base_j,
and its bound at lambda is base_j + drift_j / lambda: a bound b certified
at lambda sets base_j = b - drift_j / lambda.  The carry starts at
lambda_max, where theta0 is the exact dual optimum and theta0'fhat_j =
direction_j / lambda_max, read from the Dataset's cached lambda_max at no
product.  Each step re-evaluates the paper's region bound only for the
features whose carried bound reaches the keep threshold, one compare of
the bound array, and keeps the smaller of the two; the rest are discarded
on the carried bound alone.  A step that leaves no certificates sets
every base to +inf, so the step after it evaluates every feature.  Until
screening stops (below), the kept set is thus never larger than that of
the per-step rule, and every certificate rests on theta0 or on one region
bound, so safety needs no slack beyond EPS_KEEP.

Each step takes one of two routes, with one solve either way.  It screens
when screening has not stopped, the previous step converged,
build_context accepts that step's dual point and the region keeps a
feature: the halfspace is theta1's own optimality condition, and below
lambda_max the optimum has a feature with |theta2'fhat_j| = 1, which a
correct region keeps.  Otherwise the step keeps every feature and leaves
no certificates behind.  Screening stops for the rest of the path once a
trusted region keeps every feature: each later step solves on the full
data as screen=False does, with no region, no carry and no bound pass.
Keeping a feature is always safe, so the stop can cost only discards a
later region might have made; on the paths where this was measured, no
later region made one.  An untrusted step does not stop screening: the
step after it screens every feature afresh.

The solve starts on the secant of the path: on the kept columns, w1 +
r (w1 - w0) and b1 + r (b1 - b0) with r = (l2 - l1) / (l1 - l0), from the
models (w0, b0) at l0 and (w1, b1) at l1 of the two steps before, the
model at lambda_max standing in for w0 at the second step (the first
starts at that model itself).  On a fixed pattern (margin rows, support
and signs) the optimum is affine in lambda (Rosset & Zhu, Ann. Statist.
2007), so while the path stays on one linear piece the start is the
optimum and the solve only certifies it.  A weight whose sign the line
would change starts at 0.

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
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import screening
from . import solver
from .solver import SolverOptions


@dataclass(frozen=True)
class PathConfig:
    """Knobs for a path run.

    The grid is lambda_max * ratio**i for i = 1..grid_size (see
    lambda_grid).  screen=False solves every step on all features, for
    A/B comparisons.
    """

    grid_size: int = 10
    ratio: float = 0.8
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

    ``trusted``, whether the previous step converged and, when the step
    screens, its dual point gave a region that keeps a feature; an
    untrusted step keeps every feature.  A step after screening stopped
    screens no more, so it is trusted when the previous step converged.
    ``screen_ms``, the wall time of screening for this step: building the
    screening region, bounding every feature and copying out the kept
    columns, unless the last copy holds the same ones; 0 when the step did
    not screen because screening is off or has stopped, or the previous
    step did not converge.  ``solve_ms``, the solve alone.
    ``evaluated``, the number of features whose region bound was computed
    this step; the others were discarded on a bound carried from an
    earlier step or from lambda_max (0 when screening did not run, as
    after it stopped).
    ``margin``, the largest certified bound, fresh or carried, among
    discarded features, below the keep threshold 1 - EPS_KEEP; None when
    nothing was discarded or screening did not run.  In verify mode,
    ``discarded_corr`` is the largest |theta2'fhat_j| over the discarded
    features at the step's own dual point theta2, and ``violations``
    counts those above 1 by more than the solver tolerance; both are None
    when verify is off or the step did not converge, and discarded_corr
    also when nothing was discarded.
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
    """Geometric grid lam_max * ratio**i for i = 1..k (lam_max excluded),
    for an integer k >= 1, a positive finite lam_max and a ratio in (0, 1);
    ValueError otherwise, or when the grid underflows: its values must
    strictly decrease and stay normal floats, so that 1/lambda is finite
    at every step."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"grid size must be an integer, not {k!r}")
    if k < 1:
        raise ValueError("grid size must be at least 1")
    lam_max, ratio = solver._positive("lam_max", lam_max), solver._positive("ratio", ratio)
    if ratio >= 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    grid = lam_max * ratio ** np.arange(1, k + 1, dtype=np.float64)
    tiny = np.finfo(np.float64).tiny  # the smallest normal float
    if not (grid[-1] >= tiny and np.all(np.diff(grid, prepend=lam_max) < 0.0)):
        raise ValueError(f"path grid underflows: {k} steps at ratio {ratio!r}")
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
        From ``screening.theta_at_lambda_max`` when lambda_max is 0, i.e.
        the zero model is optimal everywhere and there is no path to trace.
    """
    cfg = config if config is not None else PathConfig()
    theta0 = screening.theta_at_lambda_max(dataset)  # refuses lambda_max = 0 first
    lam_max, bias0, direction = dataset.lambda_max
    grid = lambda_grid(lam_max, cfg.grid_size, cfg.ratio)

    m = dataset.n_features
    threshold = 1.0 - screening.EPS_KEEP
    # Off for good once a trusted region keeps every feature.
    screen = cfg.screen
    if screen:
        # Growth of each feature's certificate per unit of 1/lambda:
        # ||P_y fhat_j|| * ||P_y 1||.
        _, _, proj_y_norm = dataset.stats
        drift = proj_y_norm * (2.0 * np.sqrt(dataset.n_pos * dataset.n_neg / dataset.n_samples))
        # The carried bound on |theta*'fhat_j| at lambda is base[j] +
        # drift[j] / lambda, seeded at lambda_max from theta0'fhat_j =
        # direction_j / lam_max; +inf certifies nothing.
        base = (np.abs(direction) - drift) / lam_max
    # The closed-form model at lambda_max: w = 0, its bias and its dual
    # point theta0, whose hinge is lam_max * theta0.
    xi0 = lam_max * theta0
    prev = solver.PrimalModel(
        weights=np.zeros(m), bias=float(bias0), objective=0.5 * float(xi0 @ xi0),
        iterations=0, converged=True, theta=theta0,
    )
    # The model before prev, for the secant, and the penalties of the two;
    # prev itself at the first step.
    before, lam1, lam0 = prev, lam_max, lam_max
    # The features of the last subset made, and that subset.
    subset_of, kept_columns = np.zeros(0, dtype=np.int64), dataset

    steps = []
    for lam2 in grid:
        lam2 = float(lam2)
        reduced = dataset
        screen_ms, evaluated, margin = 0.0, 0, None
        trusted = prev.converged
        if screen and trusted:
            t0 = time.perf_counter()
            try:
                ctx = screening.build_context(prev.theta, lam1, lam2, dataset)
            except ValueError:
                # A converged step's theta can still fall outside
                # build_context's tolerances, e.g. at a loose --tol.
                trusted = False
            else:
                bounds = drift * (1.0 / lam2)
                bounds += base
                # stale: the features whose bound must be computed afresh.
                stale = np.flatnonzero(bounds >= threshold)
                report = screening.screen_all(ctx, stale)
                fresh = np.minimum(bounds[stale], report.bounds)
                base[stale] = fresh - drift[stale] * (1.0 / lam2)
                evaluated = int(stale.size)
                # A stale feature's carried bound reaches the threshold, so
                # the smaller bound does exactly when the fresh one does.
                kept_idx = stale[report.kept]
                # Below lambda_max a correct region keeps at least one feature.
                trusted = kept_idx.size > 0
                # Keeping a feature is always safe, so a region that keeps
                # every feature ends screening for the rest of the path; one
                # that keeps none leaves it on.
                screen = kept_idx.size < m
                if trusted and screen:
                    # The margin is the largest bound left once the kept
                    # features' are taken out.
                    bounds[stale] = fresh
                    bounds[kept_idx] = -np.inf
                    margin = float(bounds.max())
                    # A kept set the last subset already holds reuses it,
                    # with all it has cached.
                    if not np.array_equal(kept_idx, subset_of):
                        subset_of, kept_columns = kept_idx, dataset.subset(kept_idx)
                    reduced = kept_columns
            screen_ms = (time.perf_counter() - t0) * 1000.0
        if not (screen and trusted):
            # Keep every feature; nothing is certified, and once screening
            # is off no certificate is read again.
            kept_idx = np.arange(m, dtype=np.int64)
            if screen:
                base.fill(np.inf)

        # The warm start lies on the line through the last two models, on
        # the kept columns: while the pattern holds the path is affine in
        # lambda, so there the start is the optimum.  A weight that would
        # change sign starts at 0.
        w1 = prev.weights[kept_idx]
        r = 0.0 if before is prev else (lam2 - lam1) / (lam1 - lam0)
        w = w1 + r * (w1 - before.weights[kept_idx])
        w[np.sign(w) != np.sign(w1)] = 0.0
        warm = (w, prev.bias + r * (prev.bias - before.bias))

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
                corr = np.abs(dataset.rmatvec(model.theta * dataset.labels))
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
        before, prev = prev, steps[-1]
        lam0, lam1 = lam1, lam2

    return PathReport(
        lambda_max=float(lam_max),
        bias_at_lambda_max=float(bias0),
        steps=tuple(steps),
        verify=cfg.verify,
    )
