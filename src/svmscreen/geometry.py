"""Vector geometry primitives: null projection, the ball family, minimal ball.

These are context-free helpers shared by the screening rule and its tests.
The one-parameter ball family ``ball_at_t`` all contains the unknown next
dual point; its radius is a convex quadratic in t, so the family admits a
closed-form member of minimal radius (``min_radius_ball``).
"""

from dataclasses import dataclass

import numpy as np

#: absolute slack on squared-radius comparisons in membership tests
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0 or not np.isfinite(self.radius):
            raise ValueError("radius must be finite and nonnegative")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")

    def contains(self, point, tol=MEMBERSHIP_TOL):
        """Membership with absolute slack on the squared radius."""
        gap = point - self.center
        return float(gap @ gap) <= self.radius * self.radius + tol


def project_null(u, v):
    """Remove from v its component along u: v - (v'u / u'u) u."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    uu = float(u @ u)
    if uu == 0.0:
        raise ValueError("undefined projection: u has zero norm")
    return v - (float(v @ u) / uu) * u


def _check_lambdas(lam1, lam2):
    if lam2 <= 0 or lam1 <= 0:
        raise ValueError("regularization weights must be positive")
    if lam1 < lam2:
        raise ValueError("require lambda1 >= lambda2")


def ball_at_t(theta1, lam1, lam2, t):
    """Member t of the ball family around the step from lambda1 to lambda2.

    Center and radius are
    ``c(t) = (t*theta1 - t/lam1 + 1/lam2 + theta1) / 2`` and
    ``l(t) = ||t*theta1 - t/lam1 + 1/lam2 - theta1|| / 2`` where the scalar
    reciprocals stand for constant vectors.  t = 0 gives the base ball that
    contains the next dual point outright.
    """
    _check_lambdas(lam1, lam2)
    if t < 0:
        raise ValueError("t must be nonnegative")
    theta1 = np.asarray(theta1, dtype=np.float64)
    shifted = t * theta1 - (t / lam1)
    center = 0.5 * (shifted + 1.0 / lam2 + theta1)
    radius = 0.5 * float(np.linalg.norm(shifted + 1.0 / lam2 - theta1))
    return Ball(center, radius)


def min_radius_ball(theta1, lam1, lam2, a):
    """Minimal-radius member of the ball family, in closed form.

    Parameters
    ----------
    theta1 : array
        Reference dual point the family is anchored at.
    lam1, lam2 : float
        Current and target regularization weights, lam1 >= lam2 > 0.
    a : array
        Unit normal of the associated halfspace; must be collinear with
        ``1/lam1 - theta1`` (either orientation), which is where the family
        comes from.

    Returns
    -------
    (t_star, Ball)
        The minimizing parameter and the ball.  The radius is a convex
        quadratic in t, so the unconstrained minimizer is
        ``t* = 1 - (1/lam2 - 1/lam1) * (u'1) / ||u||^2`` with
        ``u = theta1 - 1/lam1``; the ball evaluates to center
        ``theta1 + (1/lam2 - 1/lam1)/2 * P_a(1)`` and radius
        ``(1/lam2 - 1/lam1)/2 * ||P_a(1)||``.
    """
    _check_lambdas(lam1, lam2)
    theta1 = np.asarray(theta1, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if abs(float(np.linalg.norm(a)) - 1.0) > 1e-12:
        raise ValueError("a must have unit norm")
    u = theta1 - 1.0 / lam1
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        # Family is constant in t; the base ball is already minimal.
        if lam1 == lam2:
            return 1.0, Ball(theta1.copy(), 0.0)
        return 0.0, ball_at_t(theta1, lam1, lam2, 0.0)
    residual = u - (float(u @ a)) * a
    if float(np.linalg.norm(residual)) > 1e-9 * max(norm_u, 1.0):
        raise ValueError("inconsistent inputs: a is not aligned with 1/lam1 - theta1")
    if lam1 == lam2:
        # Radius degenerates to zero at t = 1 and the ball collapses onto
        # theta1.
        return 1.0, Ball(theta1.copy(), 0.0)
    dl = 1.0 / lam2 - 1.0 / lam1
    t_star = 1.0 - dl * float(u.sum()) / (norm_u * norm_u)
    pa_one = project_null(a, np.ones_like(theta1))
    center = theta1 + 0.5 * dl * pa_one
    radius = 0.5 * dl * float(np.linalg.norm(pa_one))
    return t_star, Ball(center, radius)
