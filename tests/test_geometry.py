"""Ball family, minimal ball and projection primitives.

The frozen three-sample configuration used throughout: labels (+1, +1, -1),
lambda1 = 2/3, lambda2 = 1/3, theta1 = (1, 1, 2).  All derived values were
computed by hand from the definitions.
"""

import numpy as np
import pytest

from svmscreen import Ball, ball_at_t, min_radius_ball, project_null

THETA1 = np.array([1.0, 1.0, 2.0])
LAM1 = 2.0 / 3.0
LAM2 = 1.0 / 3.0
A_HAT = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)  # unit(1/lam1 - theta1)


def family_ball(theta1, lam1, lam2, t):
    """The defining center/radius formulas without the t >= 0 guard."""
    shifted = t * theta1 - t / lam1
    center = 0.5 * (shifted + 1.0 / lam2 + theta1)
    radius = 0.5 * float(np.linalg.norm(shifted + 1.0 / lam2 - theta1))
    return center, radius


def random_family(rng, n):
    theta1 = rng.uniform(0.1, 3.0, size=n)
    lam1 = rng.uniform(0.3, 2.0)
    lam2 = lam1 * rng.uniform(0.3, 0.95)
    u = 1.0 / lam1 - theta1
    if np.linalg.norm(u) < 1e-9:
        theta1[0] += 0.5
        u = 1.0 / lam1 - theta1
    return theta1, lam1, lam2, u / np.linalg.norm(u)


def test_project_null_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        p = project_null(u, v)
        assert abs(p @ u) <= 1e-9 * np.linalg.norm(u) * np.linalg.norm(v)
        np.testing.assert_allclose(project_null(u, p), p, atol=1e-12)
        w = rng.normal(size=n)
        np.testing.assert_allclose(
            project_null(u, 2.0 * v + w),
            2.0 * p + project_null(u, w),
            atol=1e-10,
        )


def test_project_null_rejects_zero_direction():
    with pytest.raises(ValueError, match="zero norm"):
        project_null(np.zeros(3), np.ones(3))


def test_ball_membership_slack():
    ball = Ball(np.zeros(2), 1.0)
    assert ball.contains(np.array([1.0, 0.0]))
    assert ball.contains(np.array([1.0 + 4e-10, 0.0]))  # inside the 1e-9 slack
    assert not ball.contains(np.array([1.0 + 1e-4, 0.0]))


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
    with pytest.raises(ValueError, match="nonnegative"):
        ball_at_t(THETA1, LAM1, LAM2, -0.5)
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


def test_min_radius_ball_frozen():
    t_star, ball = min_radius_ball(THETA1, LAM1, LAM2, A_HAT)
    assert t_star == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(ball.center, [1.5, 1.5, 3.0], atol=1e-12)
    assert ball.radius == pytest.approx(np.sqrt(6.0) / 2.0, abs=1e-12)
    same = ball_at_t(THETA1, LAM1, LAM2, t_star)
    np.testing.assert_allclose(same.center, ball.center, atol=1e-12)
    assert same.radius == pytest.approx(ball.radius, abs=1e-12)


def test_min_radius_ball_matches_family_and_beats_grid():
    rng = np.random.default_rng(17)
    for _ in range(40):
        theta1, lam1, lam2, a = random_family(rng, int(rng.integers(2, 9)))
        t_star, ball = min_radius_ball(theta1, lam1, lam2, a)
        center, radius = family_ball(theta1, lam1, lam2, t_star)
        np.testing.assert_allclose(ball.center, center, atol=1e-10)
        assert ball.radius == pytest.approx(radius, abs=1e-10)
        # minimal ball center lies on the hyperplane through theta1
        assert abs(a @ (ball.center - theta1)) <= 1e-10
        for t in np.linspace(0.0, max(2.0 * abs(t_star), 4.0), 64):
            assert ball.radius <= ball_at_t(theta1, lam1, lam2, t).radius + 1e-12


def test_min_radius_ball_orientation_invariance():
    t_plus, ball_plus = min_radius_ball(THETA1, LAM1, LAM2, A_HAT)
    t_minus, ball_minus = min_radius_ball(THETA1, LAM1, LAM2, -A_HAT)
    assert t_plus == t_minus
    np.testing.assert_allclose(ball_plus.center, ball_minus.center, atol=1e-15)
    assert ball_plus.radius == ball_minus.radius


def test_min_radius_ball_rejects_misaligned_normal():
    crooked = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not aligned"):
        min_radius_ball(THETA1, LAM1, LAM2, crooked)
    with pytest.raises(ValueError, match="unit norm"):
        min_radius_ball(THETA1, LAM1, LAM2, 2.0 * A_HAT)


def test_min_radius_ball_equal_penalties_collapses():
    a = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)  # unit(1/0.5 - THETA1)
    t_star, ball = min_radius_ball(THETA1, 0.5, 0.5, a)
    assert t_star == 1.0
    np.testing.assert_allclose(ball.center, THETA1)
    assert ball.radius == 0.0


def test_min_radius_ball_anchor_point():
    # theta1 == 1/lam1 makes the family constant; the base ball is minimal.
    lam1, lam2 = 0.5, 0.25
    theta1 = np.full(3, 1.0 / lam1)
    t_star, ball = min_radius_ball(theta1, lam1, lam2, np.array([1.0, 0.0, 0.0]))
    assert t_star == 0.0
    base = ball_at_t(theta1, lam1, lam2, 0.0)
    np.testing.assert_allclose(ball.center, base.center)
    assert ball.radius == base.radius


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
            if a @ (point - theta1) <= 0.0 and ball1.contains(point, tol=0.0):
                total_hits += 1
                assert ball2.contains(point, tol=1e-9)
    assert total_hits >= 500
