"""Shared construction helpers for the test suite.

Everything is seed-driven; no test relies on unseeded randomness.
"""

import dataclasses

import numpy as np

from svmscreen import Dataset, SolverOptions, build_context, kernels, screening, solve_primal


def random_labels(rng, n, p_positive=0.5):
    """Labels with both classes guaranteed present (requires n >= 2)."""
    y = np.where(rng.random(n) < p_positive, 1.0, -1.0)
    if np.all(y == y[0]):
        y[rng.integers(0, n)] = -y[0]
    return y


def random_dataset(rng, n, m, density=1.0, p_positive=0.5):
    """Dense-backed dataset with optional sparsification."""
    x = rng.normal(size=(n, m))
    if density < 1.0:
        x[rng.random(size=x.shape) >= density] = 0.0
    return Dataset.from_dense(x, random_labels(rng, n, p_positive))


def feasible_theta(rng, y, scale=1.0):
    """Nonnegative theta with theta' y == 0 to near round-off.

    The positive-label mass is rescaled to match the negative-label mass,
    which lands |theta' y| at a few ulps, far below the 1e-6 feasibility
    tolerance.
    """
    theta = scale * (0.1 + rng.random(y.shape[0]))
    pos = y > 0
    s_pos = theta[pos].sum()
    s_neg = theta[~pos].sum()
    theta[pos] *= s_neg / s_pos
    return theta


def anchored_dataset(rng, n, m, anchor=1e7):
    """Dataset whose lambda_max is huge, so any moderate lambda1 is legal.

    Contexts built from hand-made theta vectors need lambda_max >= lambda1;
    one enormous column guarantees that without touching the geometry,
    which depends only on (theta1, lambda1, lambda2, y).  Aligning the
    anchor with the labels makes its threshold contribution
    anchor * n * (1 - bias^2), which cannot cancel.  Under screening the
    column is simply kept with an enormous bound: its fhat is the
    constant vector anchor * 1, not a multiple of y.
    """
    y = random_labels(rng, n)
    x = rng.normal(size=(n, m))
    x[:, 0] = anchor * y
    return Dataset.from_dense(x, y)


def synthetic_context(rng, n, lam1=None, ratio=None, m=4):
    """Context with a hand-made feasible theta1 and generic halfspace."""
    if lam1 is None:
        lam1 = 0.5 + rng.random()
    if ratio is None:
        ratio = 0.3 + 0.6 * rng.random()
    ds = anchored_dataset(rng, n, m)
    theta1 = feasible_theta(rng, ds.labels)
    return build_context(theta1, lam1, ratio * lam1, ds)


def solved_context(rng, dataset, lam1_frac, lam2_frac, tol=1e-12):
    """Context seeded by an actual solve at lam1 = lam1_frac * lambda_max.

    Returns None when lambda_max is degenerate or the solve fails, so
    callers can skip the draw.
    """
    from svmscreen import (
        SolverOptions,
        solve_primal,
        theta_at_lambda_max,
        theta_from_primal,
    )

    lam_max = dataset.lambda_max[0]
    if lam_max <= 0.0:
        return None
    lam1 = lam1_frac * lam_max
    if lam1_frac >= 1.0:
        theta = theta_at_lambda_max(dataset)
    else:
        model = solve_primal(dataset, lam1, options=SolverOptions(tol=tol))
        if not model.converged:
            return None
        theta = theta_from_primal(dataset, model.weights, model.bias, lam1)
    return build_context(theta, lam1, lam2_frac * lam1, dataset)


def halfspace_normal(ctx):
    """The halfspace normal a = (1/lambda1 - theta1) / ||.|| of ``ctx``,
    formed from its theta1 and lambda1 with plain numpy; None when the
    context screens without the halfspace."""
    if not ctx.has_normal:
        return None
    u = 1.0 / ctx.lambda1 - ctx.theta1
    return u / np.linalg.norm(u)


def neg_min(ctx, fhat):
    """-min over the screening region of theta' fhat, with the branch taken.

    An independent route to the bound: the five statistics come from the
    dense label-weighted column ``fhat``, not from ``Dataset.stats``, and
    go to the scalar reference ``kernels.neg_min_scalar``.
    """
    fhat = np.asarray(fhat, dtype=np.float64)
    y = ctx.dataset.labels
    syf = float(fhat @ y)
    s1f = float(fhat.sum())
    sff = float(fhat @ fhat)
    pyf = float(np.linalg.norm(fhat - (syf / y.shape[0]) * y))
    sth = float(fhat @ ctx.theta1)
    return kernels.neg_min_scalar(ctx, syf, s1f, sff, pyf, sth)


def reported_bounds(report, bounds):
    """``report`` with ``bounds`` in place of its own and the kept set they give."""
    kept = np.flatnonzero(bounds >= 1.0 - screening.EPS_KEEP)
    return dataclasses.replace(report, bounds=bounds, kept=kept)


def unsafe_screening(monkeypatch):
    """Make every screen_all call report its largest bound as 0.

    The feature closest to entering the model is then discarded whatever
    its true correlation, the fault --verify must catch.
    """
    screen_all = screening.screen_all

    def unsafe(*args, **kwargs):
        report = screen_all(*args, **kwargs)
        bounds = report.bounds.copy()
        bounds[np.argmax(bounds)] = 0.0
        return reported_bounds(report, bounds)

    monkeypatch.setattr(screening, "screen_all", unsafe)


def skewed_dataset(rng, n=200, m=1000, spread=2.0, positive=0.03, density=0.02, signal=8):
    """Badly scaled, skewed sparse data.

    Column j is stored in about a fraction proportional to 1 / (j + 1) of
    the rows (Zipf-like, about ``density`` overall), and scaled by
    10^U(-spread, spread).  The labels are +1 on the ``positive`` share of
    rows that score highest on ``signal`` planted features among the most
    frequent tenth, -1 elsewhere.
    """
    share = 1.0 / np.arange(1, m + 1)
    share = np.minimum(density * m * share / share.sum(), 1.0)
    raw = rng.standard_normal((n, m)) * (rng.random((n, m)) < share)
    planted = rng.choice(max(signal, m // 10), size=signal, replace=False)
    score = raw[:, planted] @ rng.choice([-1.0, 1.0], signal)
    labels = -np.ones(n)
    labels[np.argsort(-score, kind="stable")[: max(1, round(positive * n))]] = 1.0
    scales = 10.0 ** rng.uniform(-spread, spread, m)
    return Dataset.from_dense(raw * scales, labels)


def objectives_by_iteration(ds, lam, options=SolverOptions()):
    """One solve and its objective after each iteration k = 0..iterations,
    read from the same solve stopped at max_iter = k.  At k = iterations
    a finish's candidate stands in for the point accepted before it."""
    model = solve_primal(ds, lam, options=options)
    objectives = [
        solve_primal(ds, lam, options=dataclasses.replace(options, max_iter=k)).objective
        for k in range(model.iterations + 1)
    ]
    return model, np.asarray(objectives)
