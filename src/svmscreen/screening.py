"""Safe feature screening between two regularization weights.

Given the dual point theta1 of a solved problem at lambda1, the next dual
point at lambda2 < lambda1 is confined to the intersection of a ball, a
halfspace anchored at theta1, and the hyperplane theta'y = 0.  A feature
can only be active at lambda2 if |theta2' fhat_j| reaches 1, so the
closed-form maximum of ±theta' fhat_j over that region discards features
safely: a discarded feature provably has zero weight at lambda2.

The halfspace normal is taken as ``a = (1/lambda1 - theta1) / ||.||`` and
the feasible side is ``a'(theta - theta1) <= 0``.  The context holds only
a's scalars; the brute-force oracle module forms a itself from theta1 and
lambda1, and so certifies this orientation together with every closed
form.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import Branch
from .solver import _real


#: Keep a feature when its bound reaches 1 - EPS_KEEP.  The slack must
#: dominate the optimality residual of theta1, which propagates into the
#: bound with an instance-dependent factor: a feature active at both
#: penalties has a true bound of exactly 1, computed from a tol-1e-9
#: solve as 1 minus a few 1e-9.  1e-7 keeps three orders of margin while
#: discarding anything meaningfully below 1.
EPS_KEEP = 1e-7


class DegenerateProblemError(ValueError):
    """The dataset admits no screening and no path: lambda_max is 0."""


@dataclass(frozen=True)
class ScreeningContext:
    """Everything derived from (lambda1, theta1, lambda2) that features share.

    The labels and sample count are read from ``dataset``; the region's
    ball enters only through its scalars (b_dot_y, pyb_norm).

    ``has_normal`` is False when the halfspace is uninformative (theta1
    equals the ball-family anchor 1/lambda1 up to round-off, or its normal
    is collinear with the labels); screening then uses the ball and the
    equality constraint alone.
    """

    lambda1: float
    lambda2: float
    theta1: np.ndarray
    dataset: object
    has_normal: bool
    # scalars shared by all features, which the bound kernels read
    norm_u: float  # ||1/lambda1 - theta1||
    a_dot_y: float
    a_dot_one: float
    a_dot_theta1: float
    pya_norm: float  # ||P_y(a)||
    pyb_norm: float  # ||P_y(b)||, b = (1/lambda2 - theta1) / 2
    b_dot_y: float
    py_a_dot_py_b: float
    pay_sq: float  # ||P_a(y)||^2
    pa1y: float  # P_a(1)' P_a(y)
    nested1_norm: float  # ||P_{P_a(y)}(P_a(1))||
    half_dl: float  # (1/lambda2 - 1/lambda1) / 2
    slice_degenerate: bool


@dataclass(frozen=True)
class ScreenReport:
    lambda1: float
    lambda2: float
    kept: np.ndarray  # 0-based indices into the screened features
    bounds: np.ndarray  # per-row max(m1, m2)
    m1: np.ndarray
    m2: np.ndarray
    branch1: np.ndarray
    branch2: np.ndarray
    elapsed_seconds: float

    @property
    def rejection_rate(self):
        m = self.bounds.shape[0]
        return 1.0 - self.kept.shape[0] / m if m else 0.0

    def branch_counts(self):
        """Evaluations per branch, counting both signs of every feature."""
        counts = {}
        for branch in Branch:
            counts[branch.name.lower()] = int(
                (self.branch1 == branch).sum() + (self.branch2 == branch).sum()
            )
        return counts

    def to_json(self):
        """JSON with 1-based kept indices, matching the text data format."""
        return json.dumps(
            {
                "lambda1": self.lambda1,
                "lambda2": self.lambda2,
                "kept": [int(j) + 1 for j in self.kept],
                "bounds": [float(v) for v in self.bounds],
                "branches": self.branch_counts(),
                "elapsed_seconds": self.elapsed_seconds,
            },
            indent=2,
        )


def build_context(theta1, lambda1, lambda2, dataset):
    """Precompute the screening region for a lambda1 -> lambda2 step.

    Parameters
    ----------
    theta1 : array
        Dual point at lambda1, an n-vector; must be (approximately)
        feasible: componentwise >= -1e-10 and |theta1' y| <= 1e-6.
    lambda1, lambda2 : float
        Finite reals, not bools, and lambda_max >= lambda1 > lambda2 > 0.
    dataset : Dataset
        Its cached ``lambda_max`` bounds lambda1.

    Returns
    -------
    ScreeningContext with all feature-independent quantities cached.
    """
    lambda1, lambda2 = _real("lambda1", lambda1), _real("lambda2", lambda2)
    theta1 = np.ascontiguousarray(theta1, dtype=np.float64)

    if not (math.isfinite(lambda1) and math.isfinite(lambda2)):
        raise ValueError("lambda1 and lambda2 must be finite")
    if lambda2 <= 0 or lambda1 <= lambda2:
        raise ValueError("lambda ordering violated: require lambda1 > lambda2 > 0")
    if lambda1 > dataset.lambda_max[0] * (1.0 + 1e-9) + 1e-12:
        raise ValueError("lambda ordering violated: lambda1 exceeds lambda_max")

    y = dataset.labels
    n = dataset.n_samples
    if theta1.shape != (n,):
        raise ValueError("theta1 length does not match n_samples")
    if not np.all(np.isfinite(theta1)):
        raise ValueError("theta1 must be finite")
    if float(theta1.min()) < -1e-10:
        raise ValueError("theta1 infeasible: negative coordinates")
    theta_y = float(theta1 @ y)
    if abs(theta_y) > 1e-6:
        raise ValueError("theta1 infeasible: theta1' y is not 0")

    inv_l1 = 1.0 / lambda1
    inv_l2 = 1.0 / lambda2

    # Every vector of the region lies in span{y, 1, theta1}, so each scalar
    # below is arithmetic on coordinates in its orthonormal basis: e1 =
    # y / sqrt(n), e2 along r1 = 1 - (1'y / n) y and e3 along r2, theta1
    # less its parts along e1 and e2 (an axis whose residual is 0 gets
    # coordinate 0).  ||r1||^2 = 4 n_pos n_neg / n exactly.  ||r2|| and
    # every projection norm come from residual vectors, never from the
    # difference-of-squares identity: near-parallel inputs cancel there
    # and round-off can fabricate a nonzero normal, which would feed the
    # anti-parallel branch a garbage direction.
    root_n = math.sqrt(n)
    y_bar = (dataset.n_pos - dataset.n_neg) / n
    r1_norm = 2.0 * math.sqrt(dataset.n_pos * dataset.n_neg / n)
    theta_r1 = float(theta1.sum()) - y_bar * theta_y
    along_r1 = theta_r1 / (r1_norm * r1_norm) if r1_norm > 0.0 else 0.0
    r2 = theta1 - along_r1 - (theta_y / n - along_r1 * y_bar) * y
    one = (y_bar * root_n, r1_norm, 0.0)
    theta = (theta_y / root_n, along_r1 * r1_norm, math.sqrt(float(r2 @ r2)))

    # The halfspace normal is a = u / ||u|| for u = 1/lambda1 - theta1, and
    # the ball's centre less theta1 is b = (1/lambda2 - theta1) / 2.
    u = [inv_l1 * one_k - theta_k for one_k, theta_k in zip(one, theta)]
    norm_u = math.hypot(*u)
    has_normal = False
    if norm_u > 1e-12 * inv_l1 * root_n:
        a = [u_k / norm_u for u_k in u]
        pya_norm = math.hypot(a[1], a[2])
        has_normal = pya_norm > 1e-12

    b = [0.5 * (inv_l2 * one_k - theta_k) for one_k, theta_k in zip(one, theta)]
    b_dot_y = b[0] * root_n
    pyb_norm = math.hypot(b[1], b[2])
    slice_degenerate = pyb_norm <= 1e-12 * math.hypot(*b)

    if has_normal:
        a_dot_y = a[0] * root_n
        a_dot_one = _dot(a, one)
        a_dot_theta1 = _dot(a, theta)
        py_a_dot_py_b = a[1] * b[1] + a[2] * b[2]
        pay_sq = n * pya_norm * pya_norm
        # P_a(1) and P_a(y), and the first less its part along the second.
        pa_one = [one_k - a_dot_one * a_k for one_k, a_k in zip(one, a)]
        pa_y = [y_k - a_dot_y * a_k for y_k, a_k in zip((root_n, 0.0, 0.0), a)]
        pa1y = _dot(pa_one, pa_y)
        along = pa1y / _dot(pa_y, pa_y)
        nested1_norm = math.hypot(*(p_k - along * q_k for p_k, q_k in zip(pa_one, pa_y)))
    else:
        a_dot_y = a_dot_one = a_dot_theta1 = 0.0
        pya_norm = 0.0
        py_a_dot_py_b = 0.0
        pay_sq = float(n)
        pa1y = 0.0
        nested1_norm = 0.0

    return ScreeningContext(
        lambda1=float(lambda1),
        lambda2=float(lambda2),
        theta1=theta1,
        dataset=dataset,
        has_normal=has_normal,
        norm_u=norm_u,
        a_dot_y=a_dot_y,
        a_dot_one=a_dot_one,
        a_dot_theta1=a_dot_theta1,
        pya_norm=pya_norm,
        pyb_norm=pyb_norm,
        b_dot_y=b_dot_y,
        py_a_dot_py_b=py_a_dot_py_b,
        pay_sq=pay_sq,
        pa1y=pa1y,
        nested1_norm=nested1_norm,
        half_dl=0.5 * (inv_l2 - inv_l1),
        slice_degenerate=bool(slice_degenerate),
    )


def _dot(p, q):
    """Dot product of two coordinate 3-vectors."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def screen_all(ctx, cols=None):
    """Screen the features ``cols`` of ``ctx.dataset``, every feature by default.

    ``cols`` holds feature indices in any order.  The report's arrays have
    one row per feature of ``cols``, equal bit for bit to those rows of
    the full report, and its ``kept`` indexes into ``cols``.  Total cost
    is one ``Dataset.rmatvec(u, cols)`` for theta1' fhat plus O(1) work
    per feature, read from ``Dataset.stats`` and ``Dataset.sq_norm`` in
    one gather each; the first call on a Dataset also makes their O(nnz)
    passes.
    """
    start = time.perf_counter()
    dataset = ctx.dataset
    cols = np.arange(dataset.n_features) if cols is None else np.asarray(cols)
    s_theta = dataset.rmatvec(ctx.theta1 * dataset.labels, cols=cols)
    # rmatvec has checked the indices; an empty list arrives as float64.
    cols = cols.astype(np.int64, copy=False)
    dot_y, dot_one, proj_y_norm = dataset.stats[:, cols]
    m1, m2, branch1, branch2 = kernels.screen_bulk(
        ctx, dot_y, dot_one, dataset.sq_norm[cols], proj_y_norm, s_theta
    )
    bounds = np.maximum(m1, m2)
    kept = np.flatnonzero(bounds >= 1.0 - EPS_KEEP).astype(np.int64)
    return ScreenReport(
        lambda1=ctx.lambda1,
        lambda2=ctx.lambda2,
        kept=kept,
        bounds=bounds,
        m1=m1,
        m2=m2,
        branch1=branch1,
        branch2=branch2,
        elapsed_seconds=time.perf_counter() - start,
    )


def theta_at_lambda_max(dataset):
    """Dual point of the trivial model (w = 0) at lambda1 = lambda_max, an
    n-vector, from the Dataset's cached ``lambda_max`` and its bias; every
    screen and path starts here, so this alone refuses lambda_max = 0."""
    lam_max, bias, _ = dataset.lambda_max
    if lam_max <= 0.0:
        raise DegenerateProblemError(
            "lambda_max is zero for this dataset, so the zero-weight model is "
            "optimal at every positive lambda: there is nothing to screen or trace"
        )
    return (1.0 - dataset.labels * bias) / lam_max
