"""Primal solver for the L1-regularized squared-hinge objective.

Minimizes ``F(w, b) = 0.5 * sum_i max(1 - y_i (w'x_i + b), 0)^2
+ lam * ||w||_1`` in two stages.  Accelerated proximal gradient warms up:
soft-thresholding on w (the bias is an unpenalized coordinate),
backtracking line search on the smooth part, and a function-value restart
so accepted objectives never increase.  Each point the solver evaluates
costs one matvec, and its hinge and objective are read from those scores
X w; the extrapolated point's scores are the same combination of the last
two accepted points' scores, so they cost none.  The proximal step is
taken in the metric M = diag(||x_j||^2, n), the diagonal of A'A for
A = [X, 1] (variable-metric forward-backward splitting; Combettes & Vu,
2014), so each column moves by its own curvature: w_j steps by
c^-1 / ||x_j||^2 and is thresholded at lam c^-1 / ||x_j||^2, b steps by
c^-1 / n.  The column norms are the Dataset's ``sq_norm`` (y_i^2 = 1);
an empty column gets 1.  Every solve starts at c^-1 = 1: the scaled
M^-1/2 A'A M^-1/2 has a unit diagonal, so its L >= 1 and the line search
halves the step at most ceil(log2(L)) times.  The warm-up only has to
find the pattern of the optimum: F is piecewise quadratic, so with the
margin set I = {i : xi_i > 0}, the support S and the signs s of w_S
fixed, the optimum solves one (|S|+1)-square linear system.  Each pattern
that holds over an accepted step, unless it is the one tried last, gets
the exact finish: it solves that system for A = [X_IS, 1] and drops the
weights that leave their signs in s (``_exact_finish``).  So the finish
runs at most every second iteration, ceil(iterations / 2) times at most.
When every row is in I, dense data at most as wide as it is tall
(m <= n) reads A'A and A'y from its cached Gram of [X, 1, y], whose
(m + 2)^2 cells are then no more than the dense block plus 4n + 4; other
margin sets, and other data, gather the block X_IS when it has at most
FINISH_MAX_CELLS cells.  The candidate costs the one matvec an accepted
point needs anyway: a margin row with xi = 0 rejects it, and otherwise it
is kept only when the KKT check certifies it within the tolerance;
otherwise proximal gradient continues.  The full KKT check on an iterate
costs a pass over the data, so it runs only once the free gradient-mapping
estimate is below FINISH_FROM, and only after the finish has had its turn
on that iteration.  Either way "converged" means the largest KKT residual,
computed exactly, is within the tolerance: the same thing the screening
safety guarantees assume.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: An iterate gets the exact KKT check once its estimated residual is below this.
FINISH_FROM = 1e-3
#: The finish gathers at most this many cells of [X_IS, 1] (32 MB).
FINISH_MAX_CELLS = 1 << 22


def _real(name, value):
    """``value`` as a float if a real number (numpy's too, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def _positive(name, value):
    """``value`` as a float if a positive finite real (numpy's too, not a bool)."""
    value = _real(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-9  # on the max KKT residual
    max_iter: int = 100_000  # 0 evaluates the starting point alone

    def __post_init__(self):
        object.__setattr__(self, "tol", _positive("tol", self.tol))
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, not {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")


@dataclass(frozen=True)
class PrimalModel:
    weights: np.ndarray
    bias: float
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float = float("nan")  # final max KKT residual
    finished: bool = False  # certified by the exact finish
    passes: int = 0  # data products (matvec and rmatvec calls)
    backtracks: int = 0  # step halvings of the line search
    restarts: int = 0  # momentum restarts
    finish_attempts: int = 0  # linear systems tried by the exact finish
    theta: np.ndarray = None  # scaled dual point xi / lam at the returned point


#: The PrimalModel fields written to JSON as they are, by model_to_json and
#: PathReport.to_json alike; weights, bias and theta are not among them.
JSON_FIELDS = (
    "objective",
    "iterations",
    "converged",
    "kkt_residual",
    "finished",
    "passes",
    "backtracks",
    "restarts",
    "finish_attempts",
)


@dataclass(frozen=True)
class KktReport:
    """Stationarity diagnostics of a primal-dual pair.

    correlations holds theta' fhat_j per feature; r1 is the excess of
    |theta' fhat_j| over 1, r2 the worst sign mismatch on active features,
    r3 = |theta' y| and min_theta the smallest dual coordinate.
    """

    correlations: np.ndarray
    r1: float
    r2: float
    r3: float
    min_theta: float

    @property
    def r4(self):
        return 0.0 if self.min_theta >= 0.0 else -self.min_theta  # a nan stays nan

    @property
    def max_residual(self):
        residuals = (self.r1, self.r2, self.r3, self.r4)
        # max alone drops a nan that does not come first.
        return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


def _slack(labels, scores, b):
    """xi_i = max(1 - y_i (s_i + b), 0) from the scores s = X w."""
    return np.maximum(1.0 - labels * (scores + b), 0.0)


def _hinge(dataset, w, b):
    """xi_i = max(1 - y_i (w'x_i + b), 0) for all samples, from weights w
    of shape (n_features,) (ValueError otherwise)."""
    return _slack(dataset.labels, dataset.matvec(w), b)


def _smooth(xi):
    """The smooth part h = 0.5 * ||xi||^2 at a point with hinge xi."""
    return 0.5 * float(xi @ xi)


def _gradient(dataset, xi):
    """Gradient of h at a point with hinge xi: (-X' (xi * y), -sum(xi * y))."""
    g = xi * dataset.labels
    return -dataset.rmatvec(g), -float(g.sum())


def _objective(h, w, lam):
    """F = h + lam * ||w||_1 from the smooth part h at weights w."""
    return h + lam * float(np.abs(w).sum())


def grad_h(dataset, w, b):
    """Gradient of the smooth part, as solve_primal computes it."""
    return _gradient(dataset, _hinge(dataset, np.asarray(w, dtype=np.float64), b))


def objective_value(dataset, w, b, lam):
    """F(w, b) recomputed from scratch, as solve_primal computes it."""
    w = np.asarray(w, dtype=np.float64)
    return _objective(_smooth(_hinge(dataset, w, b)), w, lam)


def _kkt_residuals(dataset, w, xi, lam):
    theta = xi / lam
    corr = dataset.rmatvec(theta * dataset.labels)
    r1 = max(float(np.max(np.abs(corr))) - 1.0, 0.0) if corr.size else 0.0
    active = w != 0.0
    if np.any(active):
        r2 = float(np.max(np.abs(corr[active] - np.sign(w[active]))))
    else:
        r2 = 0.0
    r3 = abs(float(theta @ dataset.labels))
    min_theta = float(theta.min()) if theta.size else 0.0
    return KktReport(correlations=corr, r1=r1, r2=r2, r3=r3, min_theta=min_theta)


def _exact_finish(dataset, lam, w, rows):
    """Stationary point of F for the margin rows and the support of w,
    less the weights that leave their signs.

    On that pattern xi_I = y_I - A z with A = [X_IS, 1] and z = [w_S; b],
    so stationarity reads A'A z = A'y_I - lam [sign(w_S); 0].  When I is
    every row and the Dataset has a cached Gram, A'A is its principal
    submatrix on the support and the ones, and A'y its labels column;
    otherwise A is gathered, unless it has more than FINISH_MAX_CELLS
    cells.  The system is equilibrated, as if each column of A had unit
    norm, and solved once the Cholesky factorisation has shown it well
    posed.  While a weight of the solution is off its sign in s (or 0),
    that coordinate leaves S and the principal submatrix on the rest is
    solved again: the drop step of the lasso
    modification of LARS (Efron et al., 2004, section 3.1; Osborne,
    Presnell & Turlach, 2000).  Each round removes a coordinate, so at
    most |S| + 1 systems are solved, and by Cauchy interlacing the
    smallest eigenvalue of a principal submatrix is no smaller than the
    full system's, so the one pivot test covers every round.  Returns
    (weights, bias), or None when A'A is singular or A too large to
    gather.  Nothing here reads the data past the system; the margin
    rows and the KKT conditions are the caller's to check: the product
    that does so also gives an accepted point its hinge.
    """
    support = np.flatnonzero(w)
    signs = np.sign(w[support])
    if dataset.gram is not None and rows.size == dataset.n_samples:
        pick = np.append(support, dataset.n_features)
        gram = dataset.gram[np.ix_(pick, pick)]
        rhs = dataset.gram[pick, -1]
    elif rows.size * (support.size + 1) > FINISH_MAX_CELLS:
        return None
    else:
        a = np.ones((rows.size, support.size + 1))
        a[:, :-1] = dataset.block(rows, support)
        gram = a.T @ a
        rhs = dataset.labels[rows] @ a
    # A column with no entry on I has an exact 0 diagonal.
    diagonal = np.diagonal(gram)
    if diagonal.min() <= 0.0:
        return None
    scale = np.sqrt(diagonal)
    gram /= np.outer(scale, scale)
    rhs[:-1] -= lam * signs
    rhs /= scale
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    # The scaled A'A has a unit diagonal; a tiny pivot means a column lies
    # in the span of the others to within round-off.
    if np.diagonal(chol).min() <= np.sqrt(np.finfo(np.float64).eps):
        return None
    z = np.linalg.solve(gram, rhs) / scale
    stay = np.arange(support.size + 1)  # rows of the system still in it; the bias last
    while True:
        flipped = np.sign(z[:-1]) != signs[stay[:-1]]
        if not flipped.any():
            break
        stay = np.append(stay[:-1][~flipped], support.size)
        z = np.linalg.solve(gram[np.ix_(stay, stay)], rhs[stay]) / scale[stay]
    weights = np.zeros_like(w)
    weights[support[stay[:-1]]] = z[:-1]
    return weights, float(z[-1])


def solve_primal(dataset, lam, options=None, warm=None):
    """Solve the primal problem at regularization weight lam.

    Parameters
    ----------
    dataset : Dataset
        Its ``sq_norm`` gives the step's metric.
    lam : float
        Positive, finite L1 weight; lam = 0 leaves the problem potentially
        unbounded and is rejected.
    options : SolverOptions, optional
    warm : (weights, bias), optional
        Starting point, e.g. the solution at a nearby lam.

    Returns
    -------
    PrimalModel; converged is True when every KKT residual is within
    options.tol, finished when the exact finish found that point.  On an
    iteration whose pattern held, the finish runs before the iterate's
    own KKT check, so a start already on the optimum's pattern returns
    the finish's point, finished, rather than an iterate that merely
    passes the check.
    """
    lam = _positive("lam", lam)
    opts = options or SolverOptions()

    m = dataset.n_features
    if warm is not None:
        w = np.array(warm[0], dtype=np.float64)
        b = float(warm[1])
        if w.shape != (m,):
            raise ValueError("warm start has wrong number of weights")
        if not (math.isfinite(b) and np.isfinite(w).all()):
            raise ValueError("warm start must be finite")
    else:
        w = np.zeros(m)
        b = 0.0

    labels = dataset.labels
    n = dataset.n_samples
    # The weights' part of M; an empty column's weight has zero gradient.
    sq_norm = dataset.sq_norm
    metric_w = np.where(sq_norm > 0.0, sq_norm, 1.0)
    step = 1.0  # M^{-1/2} A'A M^{-1/2} has a unit diagonal, so never below 1/L
    # The weights' steps and thresholds, rebuilt only when the step halves.
    shrink = step / metric_w
    cut = lam * shrink
    neg_cut = -cut
    scores = dataset.matvec(w)
    passes = 1  # data products, each counted where it is made
    xi = _slack(labels, scores, b)
    f_x = _objective(_smooth(xi), w, lam)

    # The extrapolated point z and its hinge, read from the accepted
    # points' scores: X z = X w + beta (X w - X w_prev) costs no product.
    wz, bz, xi_z = w, b, xi
    t_momentum = 1.0
    converged = finished = False
    iterations = backtracks = restarts = attempts = 0
    # The margin set and the signs, as bytes; np.sign(-0.0) is +0.
    pattern = (xi > 0.0).tobytes() + np.sign(w).tobytes()
    tried = None

    def prox_step(w_from, b_from, xi_from):
        """Backtracked proximal step, in the metric M, from a point with
        hinge xi_from.

        Returns the new point's weights, bias, scores, hinge, objective and
        gradient-mapping norm ||M d|| / step; each trial point costs one
        matvec.
        """
        nonlocal step, shrink, cut, neg_cut, backtracks, passes
        grad_w, grad_b = _gradient(dataset, xi_from)
        passes += 1
        h_from = _smooth(xi_from)
        while True:
            # Soft-thresholding: u less its part clipped to [-cut, cut].
            u = w_from - shrink * grad_w
            w_new = u - np.minimum(np.maximum(u, neg_cut), cut)
            b_new = b_from - step * grad_b / n
            s_new = dataset.matvec(w_new)
            passes += 1
            xi_new = _slack(labels, s_new, b_new)
            h_new = _smooth(xi_new)
            dw = w_new - w_from
            db = b_new - b_from
            metric_dw = metric_w * dw
            moved = float(metric_dw @ dw) + n * db * db
            majorant = h_from + float(grad_w @ dw) + grad_b * db + moved / (2.0 * step)
            if h_new <= majorant + 1e-12 * max(1.0, abs(h_from)) or step < 1e-18:
                f_new = _objective(h_new, w_new, lam)
                mapping = math.sqrt(float(metric_dw @ metric_dw) + (n * db) ** 2) / step
                return w_new, b_new, s_new, xi_new, f_new, mapping
            step *= 0.5
            shrink = step / metric_w
            cut = lam * shrink
            neg_cut = -cut
            backtracks += 1

    def finish(w_from, f_from, rows):
        """The exact finish's candidate for the pattern of w_from on the
        margin rows, as (weights, bias, hinge, objective, residual) when
        the KKT check certifies it and it is no worse than f_from, else
        None."""
        nonlocal passes
        found = _exact_finish(dataset, lam, w_from, rows)
        if found is None:
            return None
        # The candidate's scores: a margin row with xi = 0 puts it off its
        # own pattern, and an accepted one needs its hinge anyway.
        w_f, b_f = found
        s_f = dataset.matvec(w_f)
        passes += 1
        xi_f = _slack(labels, s_f, b_f)
        if np.any(xi_f[rows] <= 0.0):
            return None
        f_f = _objective(_smooth(xi_f), w_f, lam)
        residual_f = _kkt_residuals(dataset, w_f, xi_f, lam).max_residual
        passes += 1
        if residual_f <= opts.tol and f_f <= f_from + 1e-12 * max(1.0, abs(f_from)):
            return w_f, b_f, xi_f, f_f, residual_f
        return None

    for iterations in range(1, opts.max_iter + 1):
        w_new, b_new, s_new, xi_new, f_new, mapping = prox_step(wz, bz, xi_z)
        if f_new > f_x:
            # Momentum overshot: redo a plain proximal step from the last
            # accepted point, which the majorant makes non-increasing, and
            # drop the accumulated momentum.
            w_new, b_new, s_new, xi_new, f_new, mapping = prox_step(w, b, xi)
            t_momentum = 1.0
            restarts += 1

        w_prev, b_prev, s_prev = w, b, scores
        w, b, scores, xi, f_x = w_new, b_new, s_new, xi_new, f_new

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        beta = (t_momentum - 1.0) / t_next
        wz = w + beta * (w - w_prev)
        bz = b + beta * (b - b_prev)
        xi_z = _slack(labels, scores + beta * (scores - s_prev), bz)
        t_momentum = t_next

        # A pattern that held over one step gets the exact finish, once: the
        # same pattern gives the same system.  The finish comes before the
        # iterate's own check, so a solve that starts on its optimum's
        # pattern, as the path's warm start often does, ends finished.
        previous, pattern = pattern, (xi > 0.0).tobytes() + np.sign(w).tobytes()
        if pattern == previous and pattern != tried:
            rows = np.flatnonzero(xi > 0.0)
            if np.count_nonzero(w) + 1 <= rows.size:
                tried = pattern
                attempts += 1
                found = finish(w, f_x, rows)
                if found is not None:
                    w, b, xi, f_x, residual = found
                    converged = finished = True
                    break
        # grad h(x+) - grad h(z) + M (z - x+) / step lies in the
        # subdifferential of F at x+, so 2 * mapping / lam, with mapping =
        # ||M (x+ - z)|| / step, estimates the max KKT residual; it bounds
        # it only when M / step dominates A'A, which an accepted step need
        # not ensure.
        # The estimate decides when the exact (full-data) check runs; that
        # check alone decides converged.
        if 2.0 * mapping <= FINISH_FROM * lam:
            residual = _kkt_residuals(dataset, w, xi, lam).max_residual
            passes += 1
            if residual <= opts.tol:
                converged = True
                break
    else:
        residual = _kkt_residuals(dataset, w, xi, lam).max_residual
        passes += 1

    return PrimalModel(
        weights=w,
        bias=b,
        objective=f_x,
        iterations=iterations,
        converged=converged,
        kkt_residual=residual,
        finished=finished,
        passes=passes,
        backtracks=backtracks,
        restarts=restarts,
        finish_attempts=attempts,
        theta=xi / lam,
    )


def theta_from_primal(dataset, w, b, lam):
    """The scaled dual point theta_i = max(1 - y_i (w'x_i + b), 0) / lam,
    an n-vector; theta >= 0 and theta'y = 0 at the optimum.

    solve_primal returns this point as ``PrimalModel.theta`` from the
    hinge it already holds; this recomputes it with one matvec.
    """
    lam = _positive("lam", lam)
    return _hinge(dataset, np.asarray(w, dtype=np.float64), b) / lam


def kkt_report(dataset, model, lam):
    """Stationarity diagnostics for a PrimalModel at weight lam.

    The residuals are computed as solve_primal computes them, so its
    kkt_residual equals max_residual here exactly.
    """
    lam = _positive("lam", lam)
    w = np.asarray(model.weights, dtype=np.float64)
    return _kkt_residuals(dataset, w, _hinge(dataset, w, model.bias), lam)


def first_features(direction):
    """Indices attaining max |direction_j| within relative tie slack 1e-12.

    These are the features that enter the model as the weight drops just
    below lambda_max; a zero direction means no feature ever enters.
    """
    direction = np.asarray(direction, dtype=np.float64)
    magnitudes = np.abs(direction)
    top = float(magnitudes.max()) if magnitudes.size else 0.0
    if top == 0.0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(magnitudes >= top * (1.0 - 1e-12)).astype(np.int64)


def model_to_json(model, lam):
    """Serialize a model; weight indices are 1-based to match the text format."""
    nz = np.flatnonzero(model.weights != 0.0)
    return json.dumps(
        {
            "lambda": lam,
            "bias": model.bias,
            "weights": [[int(j) + 1, float(model.weights[j])] for j in nz],
            **{name: getattr(model, name) for name in JSON_FIELDS},
        },
        indent=2,
    )
