"""Safe feature screening between two regularization weights.

Given the dual point theta1 of a solved problem at lambda1, the next dual
point at lambda2 < lambda1 is confined to the intersection of a ball, a
halfspace anchored at theta1, and the hyperplane theta'y = 0.  A feature
can only be active at lambda2 if |theta2' fhat_j| reaches 1, so the
closed-form maximum of ±theta' fhat_j over that region discards features
safely: a discarded feature provably has zero weight at lambda2.

The halfspace normal is taken as ``a = (1/lambda1 - theta1) / ||.||`` and
the feasible side is ``a'(theta - theta1) <= 0``; the brute-force oracle
module certifies this orientation together with every closed form.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import geometry, kernels
from .kernels import Branch
from .solver import ThetaVector


#: Keep a feature when its bound reaches 1 - EPS_KEEP.  The slack must
#: dominate the optimality residual of theta1, which propagates into the
#: bound with an instance-dependent factor: a feature active at both
#: penalties has a true bound of exactly 1, computed from a tol-1e-9
#: solve as 1 minus a few 1e-9.  1e-7 keeps three orders of margin while
#: discarding anything meaningfully below 1.
EPS_KEEP = 1e-7


@dataclass(frozen=True)
class ScreeningContext:
    """Everything derived from (lambda1, theta1, lambda2) that features share.

    The labels and sample count are read from ``dataset``; the region's
    ball enters only through its scalars (b_dot_y, pyb_norm).

    ``normal`` is None when the halfspace is uninformative (theta1 equals
    the ball-family anchor 1/lambda1 up to round-off, or its normal is
    collinear with the labels); screening then uses the ball and the
    equality constraint alone.
    """

    lambda1: float
    lambda2: float
    theta1: np.ndarray
    dataset: object
    normal: np.ndarray | None
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

    @property
    def has_normal(self):
        return self.normal is not None


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
    theta1 : array or ThetaVector
        Dual point at lambda1; must be (approximately) feasible:
        componentwise >= -1e-10 and |theta1' y| <= 1e-6.
    lambda1, lambda2 : float
        Finite, and lambda_max >= lambda1 > lambda2 > 0.
    dataset : Dataset
        Its cached ``lambda_max`` bounds lambda1.

    Returns
    -------
    ScreeningContext with all feature-independent quantities cached.
    """
    if isinstance(theta1, ThetaVector):
        if abs(theta1.lam - lambda1) > 1e-9 * max(lambda1, theta1.lam):
            raise ValueError("theta1 was computed at a different lambda1")
        theta1 = theta1.values
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
    if abs(float(theta1 @ y)) > 1e-6:
        raise ValueError("theta1 infeasible: theta1' y is not 0")

    inv_l1 = 1.0 / lambda1
    inv_l2 = 1.0 / lambda2

    b_vec = 0.5 * (inv_l2 - theta1)  # the ball's center less theta1

    # Projection norms are taken from residual vectors, never from the
    # difference-of-squares identity: near-parallel inputs cancel there
    # and round-off can fabricate a nonzero normal, which would feed the
    # anti-parallel branch a garbage direction.
    a_unnormalized = inv_l1 - theta1
    norm_u = float(np.linalg.norm(a_unnormalized))
    normal = None
    if norm_u > 1e-12 * inv_l1 * np.sqrt(n):
        candidate = a_unnormalized / norm_u
        residual = candidate - (float(candidate @ y) / n) * y
        if float(np.linalg.norm(residual)) > 1e-12:
            normal = candidate

    b_dot_y = float(b_vec @ y)
    norm_b = float(np.linalg.norm(b_vec))
    pyb_norm = float(np.linalg.norm(b_vec - (b_dot_y / n) * y))
    slice_degenerate = pyb_norm <= 1e-12 * norm_b

    if normal is not None:
        a_dot_y = float(normal @ y)
        a_dot_one = float(normal.sum())
        a_dot_theta1 = float(normal @ theta1)
        pya_norm = float(np.linalg.norm(normal - (a_dot_y / n) * y))
        py_a_dot_py_b = float(normal @ b_vec) - a_dot_y * b_dot_y / n
        pay_sq = n * pya_norm * pya_norm
        pa_one = geometry.project_null(normal, np.ones(n))
        pa_y = geometry.project_null(normal, y)
        pa1y = float(pa_one @ pa_y)
        nested1_norm = float(np.linalg.norm(geometry.project_null(pa_y, pa_one)))
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
        normal=normal,
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


def neg_min(ctx, fhat):
    """-min over the screening region of theta' fhat, with the branch taken.

    ``fhat`` is a dense label-weighted feature vector.  This is the scalar
    reference entry point; screen_all evaluates the same arithmetic in
    bulk from cached statistics.
    """
    fhat = np.asarray(fhat, dtype=np.float64)
    y = ctx.dataset.labels
    syf = float(fhat @ y)
    s1f = float(fhat.sum())
    sff = float(fhat @ fhat)
    pyf = float(np.linalg.norm(fhat - (syf / y.shape[0]) * y))
    sth = float(fhat @ ctx.theta1)
    return kernels.neg_min_scalar(ctx, syf, s1f, sff, pyf, sth)


def screen_all(ctx, cols=None):
    """Screen the features ``cols`` of ``ctx.dataset``, every feature by default.

    ``cols`` holds increasing feature indices.  The report's arrays have
    one row per feature of ``cols``, equal bit for bit to those rows of
    the full report, and its ``kept`` indexes into ``cols``.  Total cost
    is one ``Dataset.rmatvec(u, cols)`` for theta1' fhat plus O(1) work
    per feature, read from ``Dataset.stats`` and ``Dataset.sq_norm``; the
    first call on a Dataset also makes those O(nnz) passes.
    """
    start = time.perf_counter()
    dataset, stats = ctx.dataset, ctx.dataset.stats
    if cols is None:
        cols = np.arange(dataset.n_features)
    s_theta = dataset.rmatvec(ctx.theta1 * dataset.labels, cols=cols)
    columns = (c[cols] for c in (stats.dot_y, stats.dot_one, dataset.sq_norm, stats.proj_y_norm))
    m1, m2, branch1, branch2 = kernels.screen_bulk(ctx, *columns, s_theta)
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
    """Dual point of the trivial model (w = 0) at lambda1 = lambda_max,
    from the Dataset's cached ``lambda_max`` and its bias."""
    lam_max, bias, _ = dataset.lambda_max
    if lam_max <= 0:
        raise ValueError("lambda_max is zero; the trivial dual point is undefined")
    values = (1.0 - dataset.labels * bias) / lam_max
    return ThetaVector(values=values, lam=lam_max)
