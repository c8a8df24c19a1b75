"""Primal solver for the L1-regularized squared-hinge objective.

Minimizes ``F(w, b) = 0.5 * sum_i max(1 - y_i (w'x_i + b), 0)^2
+ lam * ||w||_1`` in two stages.  Accelerated proximal gradient warms up:
soft-thresholding on w (the bias is an unpenalized coordinate),
backtracking line search on the smooth part, and a function-value restart
so accepted objectives never increase.  Each point the solver evaluates
costs one matvec, and its hinge and objective are read from those scores
X w; the extrapolated point's scores are the same combination of the last
two accepted points' scores, so they cost none.  Every solve starts at
step 1/n: the ones column gives L = lambda_max(A'A) >= n for A = [X, 1],
so the line search halves the step at most ceil(log2(L / n)) times.  The
warm-up only has to find the pattern of the optimum: F is piecewise
quadratic, so with the margin set I = {i : xi_i > 0}, the support S and
the signs s of w_S fixed, the optimum solves one (|S|+1)-square linear
system.  As soon as an accepted step leaves the pattern unchanged, the
exact finish solves that system for A = [X_IS, 1].  Dense data at most as
wide as it is tall (m <= n) reads A'A and A'y_I from its cached Gram of
[X, 1, y], whose (m + 2)^2 cells are then no more than the dense block
plus 4n + 4; other data, and margin sets of under half the rows, gather
the block X_IS.  A solution whose weights leave their signs is rejected
without a product.  Any other costs the one matvec an accepted point
needs anyway: a margin row with xi = 0 rejects it, and otherwise it is
kept only when the KKT check certifies it within the tolerance.
Otherwise proximal gradient continues, at most FINISH_ATTEMPTS systems
per solve.  The full KKT check on an iterate costs a pass over the data,
so it runs only once the free gradient-mapping estimate is below
FINISH_FROM.  Either way "converged" means the largest KKT residual,
computed exactly, is within the tolerance: the same thing the screening
safety guarantees assume.
"""

import json
from dataclasses import dataclass, field

import numpy as np

#: An iterate gets the exact KKT check once its estimated residual is below this.
FINISH_FROM = 1e-3
#: Linear systems factorised per solve before proximal gradient runs alone.
FINISH_ATTEMPTS = 20
#: The finish gathers at most this many cells of [X_IS, 1] (32 MB).
FINISH_MAX_CELLS = 1 << 22


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-9  # on the max KKT residual
    max_iter: int = 100_000
    keep_trace: bool = False  # record accepted objective values


@dataclass(frozen=True)
class PrimalModel:
    weights: np.ndarray
    bias: float
    objective: float
    iterations: int
    converged: bool
    trace: tuple = ()  # accepted objective values when requested
    kkt_residual: float = float("nan")  # final max KKT residual
    finished: bool = False  # certified by the exact finish
    passes: int = 0  # data products (matvec and rmatvec calls)
    backtracks: int = 0  # step halvings of the line search
    restarts: int = 0  # momentum restarts
    finish_attempts: int = 0  # linear systems tried by the exact finish
    theta: object = None  # ThetaVector xi / lam at the returned point


#: The PrimalModel fields written to JSON as they are, by model_to_json and
#: PathReport.to_json alike; weights, bias and trace are not among them.
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
class ThetaVector:
    """Scaled dual point theta = alpha / lam; theta >= 0 and theta'y = 0 at optimum."""

    values: np.ndarray
    lam: float


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
        return max(0.0, -self.min_theta)

    @property
    def max_residual(self):
        return max(self.r1, self.r2, self.r3, self.r4)


def _slack(labels, scores, b):
    """xi_i = max(1 - y_i (s_i + b), 0) from the scores s = X w."""
    return np.maximum(1.0 - labels * (scores + b), 0.0)


def _hinge(dataset, w, b):
    """xi_i = max(1 - y_i (w'x_i + b), 0) for all samples."""
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


def _soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _kkt_residuals(dataset, w, xi, lam):
    theta = xi / lam
    corr = dataset.rmatvec(theta * dataset.labels)
    r1 = max(0.0, float(np.max(np.abs(corr))) - 1.0) if corr.size else 0.0
    active = w != 0.0
    if np.any(active):
        r2 = float(np.max(np.abs(corr[active] - np.sign(w[active]))))
    else:
        r2 = 0.0
    r3 = abs(float(theta @ dataset.labels))
    min_theta = float(theta.min()) if theta.size else 0.0
    return KktReport(correlations=corr, r1=r1, r2=r2, r3=r3, min_theta=min_theta)


def _exact_finish(dataset, lam, w, rows):
    """Stationary point of F for the margin rows and the support of w.

    On that pattern xi_I = y_I - A z with A = [X_IS, 1] and z = [w_S; b],
    so stationarity reads A'A z = A'y_I - lam [sign(w_S); 0].  A'A and
    A'y_I are read from the Dataset's cached Gram when it has one and at
    most half the rows lie outside I; otherwise A is gathered.  The system
    is equilibrated, as if each column of A had unit norm, and solved
    once the Cholesky factorisation has shown it well posed.  Returns
    (weights, bias), or None when A'A is singular or a weight of the
    solution leaves its sign in s.  The margin rows are the caller's to
    check: the product that does so also gives an accepted point its
    hinge.
    """
    support = np.flatnonzero(w)
    signs = np.sign(w[support])
    if dataset.gram is not None and 2 * rows.size >= dataset.n_samples:
        gram, rhs = _cached_system(dataset, support, rows)
    else:
        a = np.ones((rows.size, support.size + 1))
        a[:, :-1] = dataset.block(rows, support)
        gram = a.T @ a
        rhs = dataset.labels[rows] @ a
    # A column with no entry on I: the Gram's difference can leave it a
    # round-off diagonal of either sign, the gathered block an exact 0.
    diagonal = np.diagonal(gram)
    if diagonal.min() <= 0.0:
        return None
    scale = np.sqrt(diagonal)
    gram /= np.outer(scale, scale)
    rhs[:-1] -= lam * signs
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    # The scaled A'A has a unit diagonal; a tiny pivot means a column lies
    # in the span of the others to within round-off.
    if np.diagonal(chol).min() <= np.sqrt(np.finfo(np.float64).eps):
        return None
    z = np.linalg.solve(gram, rhs / scale) / scale
    if np.any(np.sign(z[:-1]) != signs):
        return None
    weights = np.zeros_like(w)
    weights[support] = z[:-1]
    return weights, float(z[-1])


def _cached_system(dataset, support, rows):
    """(A'A, A'y_I) for A = [X_IS, 1], read from the Dataset's Gram.

    The principal submatrix of [X, 1, y]'[X, 1, y] on the support, the
    ones and the labels sums over every row; the rows outside I are taken
    back out as one product of their few augmented rows.
    """
    m = dataset.n_features
    pick = np.concatenate((support, (m, m + 1)))
    system = dataset.gram[np.ix_(pick, pick)]
    if rows.size < dataset.n_samples:
        outside = np.ones(dataset.n_samples, dtype=bool)
        outside[rows] = False
        others = np.flatnonzero(outside)
        e = np.ones((others.size, pick.size))
        e[:, :-2] = dataset.block(others, support)
        e[:, -1] = dataset.labels[others]
        system -= e.T @ e
    return system[:-1, :-1], system[:-1, -1]


class _Counted:
    """A Dataset whose matvec/rmatvec calls are counted in ``passes``."""

    def __init__(self, dataset):
        self._dataset = dataset
        self.passes = 0

    def __getattr__(self, name):
        return getattr(self._dataset, name)

    def matvec(self, v):
        self.passes += 1
        return self._dataset.matvec(v)

    def rmatvec(self, u):
        self.passes += 1
        return self._dataset.rmatvec(u)


def solve_primal(dataset, lam, options=None, warm=None):
    """Solve the primal problem at regularization weight lam.

    Parameters
    ----------
    dataset : Dataset
    lam : float
        Positive L1 weight; lam = 0 leaves the problem potentially
        unbounded and is rejected.
    options : SolverOptions, optional
    warm : (weights, bias), optional
        Starting point, e.g. the solution at a nearby lam.

    Returns
    -------
    PrimalModel; converged is True when every KKT residual is within
    options.tol, finished when the exact finish found that point.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    opts = options or SolverOptions()

    m = dataset.n_features
    if warm is not None:
        w = np.array(warm[0], dtype=np.float64)
        b = float(warm[1])
        if w.shape != (m,):
            raise ValueError("warm start has wrong number of weights")
    else:
        w = np.zeros(m)
        b = 0.0

    data = _Counted(dataset)
    labels = dataset.labels
    step = 1.0 / dataset.n_samples  # (A'A)_{m+1,m+1} = n, so never below 1/L
    scores = data.matvec(w)
    xi = _slack(labels, scores, b)
    f_x = _objective(_smooth(xi), w, lam)
    trace = [f_x] if opts.keep_trace else None

    # The extrapolated point z and its hinge, read from the accepted
    # points' scores: X z = X w + beta (X w - X w_prev) costs no product.
    wz, bz, xi_z = w, b, xi
    t_momentum = 1.0
    converged = finished = False
    iterations = backtracks = restarts = attempts = 0
    pattern = np.concatenate((xi > 0.0, np.sign(w)))
    tried = None

    def prox_step(w_from, b_from, xi_from):
        """Backtracked proximal step from a point with hinge xi_from.

        Returns the new point's weights, bias, scores, hinge, objective and
        gradient-mapping norm; each trial point costs one matvec.
        """
        nonlocal step, backtracks
        grad_w, grad_b = _gradient(data, xi_from)
        h_from = _smooth(xi_from)
        while True:
            w_new = _soft_threshold(w_from - step * grad_w, lam * step)
            b_new = b_from - step * grad_b
            s_new = data.matvec(w_new)
            xi_new = _slack(labels, s_new, b_new)
            h_new = _smooth(xi_new)
            dw = w_new - w_from
            db = b_new - b_from
            moved = float(dw @ dw) + db * db
            majorant = h_from + float(grad_w @ dw) + grad_b * db + moved / (2.0 * step)
            if h_new <= majorant + 1e-12 * max(1.0, abs(h_from)) or step < 1e-18:
                f_new = _objective(h_new, w_new, lam)
                return w_new, b_new, s_new, xi_new, f_new, np.sqrt(moved) / step
            step *= 0.5
            backtracks += 1

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
        if trace is not None:
            trace.append(f_x)

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        beta = (t_momentum - 1.0) / t_next
        wz = w + beta * (w - w_prev)
        bz = b + beta * (b - b_prev)
        xi_z = _slack(labels, scores + beta * (scores - s_prev), bz)
        t_momentum = t_next

        # grad h(x+) - grad h(z) + (z - x+) / step lies in the subdifferential
        # of F at x+, so 2 * mapping / lam estimates the max KKT residual; it
        # bounds it only when step <= 1/L, which an accepted step may exceed.
        # The estimate decides when the exact (full-data) check runs; that
        # check alone decides converged.
        if 2.0 * mapping <= FINISH_FROM * lam:
            residual = _kkt_residuals(data, w, xi, lam).max_residual
            if residual <= opts.tol:
                converged = True
                break
        # A pattern that held over one step is tried once; the same pattern
        # gives the same system.
        previous, pattern = pattern, np.concatenate((xi > 0.0, np.sign(w)))
        if attempts == FINISH_ATTEMPTS or not np.array_equal(pattern, previous):
            continue
        rows = np.flatnonzero(xi > 0.0)
        k = np.count_nonzero(w) + 1
        if k > rows.size or rows.size * k > FINISH_MAX_CELLS or np.array_equal(pattern, tried):
            continue
        tried = pattern
        attempts += 1
        found = _exact_finish(data, lam, w, rows)
        if found is None:
            continue
        # The candidate's scores: a margin row with xi = 0 puts it off its
        # own pattern, and an accepted one needs its hinge anyway.
        w_f, b_f = found
        s_f = data.matvec(w_f)
        xi_f = _slack(labels, s_f, b_f)
        if np.any(xi_f[rows] <= 0.0):
            continue
        f_f = _objective(_smooth(xi_f), w_f, lam)
        residual_f = _kkt_residuals(data, w_f, xi_f, lam).max_residual
        if residual_f <= opts.tol and f_f <= f_x + 1e-12 * max(1.0, abs(f_x)):
            w, b, xi, f_x, residual = w_f, b_f, xi_f, f_f, residual_f
            if trace is not None:
                trace.append(f_x)
            converged = finished = True
            break
    else:
        residual = _kkt_residuals(data, w, xi, lam).max_residual

    return PrimalModel(
        weights=w,
        bias=b,
        objective=f_x,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace) if trace is not None else (),
        kkt_residual=residual,
        finished=finished,
        passes=data.passes,
        backtracks=backtracks,
        restarts=restarts,
        finish_attempts=attempts,
        theta=ThetaVector(values=xi / lam, lam=lam),
    )


def theta_from_primal(dataset, w, b, lam):
    """Recover the scaled dual point: theta_i = max(1 - y_i (w'x_i + b), 0) / lam.

    solve_primal returns this point as ``PrimalModel.theta`` from the
    hinge it already holds; this recomputes it with one matvec.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    xi = _hinge(dataset, np.asarray(w, dtype=np.float64), b)
    return ThetaVector(values=xi / lam, lam=lam)


def kkt_report(dataset, model, lam):
    """Stationarity diagnostics for a PrimalModel at weight lam.

    The residuals are computed as solve_primal computes them, so its
    kkt_residual equals max_residual here exactly.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    w = np.asarray(model.weights, dtype=np.float64)
    return _kkt_residuals(dataset, w, _hinge(dataset, w, model.bias), lam)


def lambda_max(dataset):
    """Smallest regularization weight with the all-zero weight vector optimal.

    Returns (lambda_max, bias, direction): the threshold, the bias of the
    trivial model, and the per-feature vector whose max-magnitude entry
    attains the threshold.
    """
    n = dataset.n_samples
    bias = (dataset.n_pos - dataset.n_neg) / n
    direction = dataset.rmatvec(dataset.labels - bias)
    return float(np.max(np.abs(direction))), float(bias), direction


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


def model_from_json(text, n_features):
    """Inverse of model_to_json; needs the feature count to size the array."""
    payload = json.loads(text)
    w = np.zeros(n_features)
    for index, value in payload["weights"]:
        w[index - 1] = value
    fields = {name: payload[name] for name in JSON_FIELDS}
    return PrimalModel(weights=w, bias=float(payload["bias"]), **fields), float(payload["lambda"])
