"""The ball family and its Ball type.

The frozen three-sample configuration used throughout: labels (+1, +1, -1),
lambda1 = 2/3, lambda2 = 1/3, theta1 = (1, 1, 2).  All derived values were
computed by hand from the definitions.
"""

import numpy as np
import pytest

from svmscreen import Ball, ball_at_t

THETA1 = np.array([1.0, 1.0, 2.0])
LAM1 = 2.0 / 3.0
LAM2 = 1.0 / 3.0


def random_family(rng, n):
    theta1 = rng.uniform(0.1, 3.0, size=n)
    lam1 = rng.uniform(0.3, 2.0)
    lam2 = lam1 * rng.uniform(0.3, 0.95)
    u = 1.0 / lam1 - theta1
    if np.linalg.norm(u) < 1e-9:
        theta1[0] += 0.5
        u = 1.0 / lam1 - theta1
    return theta1, lam1, lam2, u / np.linalg.norm(u)


def test_ball_validation():
    with pytest.raises(ValueError, match="radius"):
        Ball(np.zeros(2), -0.1)
    with pytest.raises(ValueError, match="radius"):
        Ball(np.zeros(2), np.inf)
    with pytest.raises(ValueError, match="center"):
        Ball(np.array([np.nan, 0.0]), 1.0)


def test_ball_at_t_frozen_base():
    ball = ball_at_t(THETA1, LAM1, LAM2, 0.0)
    np.testing.assert_allclose(ball.center, [2.0, 2.0, 2.5], atol=1e-15)
    assert ball.radius == pytest.approx(1.5, abs=1e-15)


def test_ball_at_t_rejects_bad_arguments():
    for t in (-0.5, np.nan):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            ball_at_t(THETA1, LAM1, LAM2, t)
    with pytest.raises(ValueError, match="positive"):
        ball_at_t(THETA1, LAM1, 0.0, 0.0)
    with pytest.raises(ValueError, match="lambda1 >= lambda2"):
        ball_at_t(THETA1, LAM1, 1.0, 0.0)


def test_reference_point_on_every_sphere():
    # theta1 sits exactly on the boundary of every family member, which is
    # what makes the slice through theta1 nonempty at every t.
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta1, lam1, lam2, _ = random_family(rng, int(rng.integers(2, 8)))
        for t in (0.0, 0.7, 3.0):
            ball = ball_at_t(theta1, lam1, lam2, t)
            gap = np.linalg.norm(theta1 - ball.center)
            assert gap == pytest.approx(ball.radius, abs=1e-12)


def test_slice_through_reference_is_t_invariant():
    # Intersecting any family member with the hyperplane a'(p - theta1) = 0
    # gives one fixed disk: center and radius do not depend on t.
    rng = np.random.default_rng(29)
    for _ in range(40):
        theta1, lam1, lam2, a = random_family(rng, int(rng.integers(2, 9)))
        slices = []
        for t in (0.0, 0.5, 1.0, 2.7, 10.0):
            ball = ball_at_t(theta1, lam1, lam2, t)
            d = float(a @ (ball.center - theta1))
            center = ball.center - d * a
            radius = np.sqrt(max(ball.radius**2 - d * d, 0.0))
            slices.append((center, radius))
        base_center, base_radius = slices[0]
        for center, radius in slices[1:]:
            np.testing.assert_allclose(center, base_center, atol=1e-9)
            assert radius == pytest.approx(base_radius, abs=1e-9)


def test_halfspace_side_nests_with_t():
    # On the side a'(p - theta1) <= 0 (equivalently u'(p - theta1) >= 0 for
    # u = theta1 - 1/lam1), smaller t gives a subset of larger t.  The kept
    # side is a cap touching theta1 and can be a sliver of the ball, so
    # random draws are topped up with constructed cap-interior points: take
    # a point of the invariant slice disk and nudge it off the boundary.
    rng = np.random.default_rng(31)
    total_hits = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        theta1, lam1, lam2, a = random_family(rng, n)
        t1, t2 = sorted(rng.uniform(0.0, 5.0, size=2))
        ball1 = ball_at_t(theta1, lam1, lam2, t1)
        ball2 = ball_at_t(theta1, lam1, lam2, t2)
        d = float(a @ (ball1.center - theta1))
        slice_center = ball1.center - d * a
        slice_radius = np.sqrt(max(ball1.radius**2 - d * d, 0.0))
        candidates = []
        for _ in range(200):
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            candidates.append(
                theta1 + ball1.radius * rng.random() ** (1.0 / n) * direction
            )
        if slice_radius > 1e-9:
            nudge = 1e-6 * slice_radius
            for _ in range(50):
                tangent = rng.normal(size=n)
                tangent -= float(tangent @ a) * a
                tangent /= np.linalg.norm(tangent)
                q = slice_center + 0.5 * slice_radius * rng.random() * tangent
                candidates.append(q - nudge * a)
        for point in candidates:
            gap1 = point - ball1.center
            if a @ (point - theta1) <= 0.0 and gap1 @ gap1 <= ball1.radius * ball1.radius:
                total_hits += 1
                gap2 = point - ball2.center
                assert gap2 @ gap2 <= ball2.radius * ball2.radius + 1e-9
    assert total_hits >= 500
