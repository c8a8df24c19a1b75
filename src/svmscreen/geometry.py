"""The paper's one-parameter ball family around a path step.

Every member ``ball_at_t`` contains the unknown next dual point.  t = 0
gives the base ball, which the screening region cuts with theta1's
halfspace and the hyperplane theta'y = 0; on the halfspace's side every
member with t > 0 contains the base ball's part, so no other member can
discard more.  The region oracle takes its default ball from here.
"""

from dataclasses import dataclass

import numpy as np

from .solver import _positive, _real


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0 or not np.isfinite(self.radius):
            raise ValueError("radius must be finite and nonnegative")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")


def ball_at_t(theta1, lam1, lam2, t):
    """Member t of the ball family around the step from lambda1 to lambda2.

    Center and radius are
    ``c(t) = (t*theta1 - t/lam1 + 1/lam2 + theta1) / 2`` and
    ``l(t) = ||t*theta1 - t/lam1 + 1/lam2 - theta1|| / 2`` where the scalar
    reciprocals stand for constant vectors.  t = 0 gives the base ball that
    contains the next dual point outright.  The penalties must be positive
    finite reals with lambda1 >= lambda2, and t a nonnegative real, not a
    bool (ValueError otherwise).
    """
    lam1, lam2 = _positive("lambda1", lam1), _positive("lambda2", lam2)
    if lam1 < lam2:
        raise ValueError("require lambda1 >= lambda2")
    t = _real("t", t)
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    theta1 = np.asarray(theta1, dtype=np.float64)
    shifted = t * theta1 - (t / lam1)
    center = 0.5 * (shifted + 1.0 / lam2 + theta1)
    radius = 0.5 * float(np.linalg.norm(shifted + 1.0 / lam2 - theta1))
    return Ball(center, radius)
