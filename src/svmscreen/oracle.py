"""Brute-force maximizer of a linear objective over the screening region.

Validates every closed form in the screening module, at any n.  The
region is a ball with centre c, a halfspace with normal a and the
hyperplane theta'y = 0; the default ball and a are formed here from
theta1 and the penalties, not taken from build_context.  For an
objective g, the part of a feasible theta orthogonal to y, P_y(c),
P_y(a) and P_y(g) only moves theta away from the centre and adds nothing
to a'theta or g'theta.  So the maximum over the region is the maximum
over its slice Q z, for an orthonormal basis Q of span{P_y(c), P_y(a),
P_y(g)}: at most three coordinates, whatever n is.  What remains is a
ball intersected with one halfspace, where the maximizer of a linear
objective is known in closed form (ball surface point, or the rim of the
spherical cap).  By the same argument the maximizer lies in the plane
through the reduced centre spanned by the reduced normal and objective,
so a masked sweep of that circle, at a fixed number of angles refined
around its best sample or chord end, gives a second, method-independent
check at every n for a fixed cost.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ball_at_t


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmax: np.ndarray
    certified: bool


def _span_basis(m):
    """Orthonormal basis of the column span of m, from one thin SVD of m
    with its nonzero columns scaled to unit length, so that the cut does
    not depend on their scales: directions whose singular value is at
    most 1e-12 of the largest are dropped."""
    norms = np.linalg.norm(m, axis=0)
    u, s, _ = np.linalg.svd(m / np.where(norms > 0.0, norms, 1.0), full_matrices=False)
    return u[:, s > 1e-12 * s[0]]


def null_space_basis(y, vectors):
    """Orthonormal n x k basis of the span of the n x p ``vectors`` (one
    vector if 1-d) projected off the labels y, which is projected out
    twice so that the round-off of the first pass goes too.
    ``null_space_basis(y, np.eye(n))`` spans all of {theta : theta'y = 0},
    n x (n-1)."""
    y = np.asarray(y, dtype=np.float64)
    m = np.asarray(vectors, dtype=np.float64).reshape(y.shape[0], -1)
    for _ in range(2):
        m = m - np.outer(y, (y @ m) / float(y @ y))
    return _span_basis(m)


def _plane(c_red, a_red, g_red):
    """c_red, a_red and g_red in an orthonormal basis of span{a_red,
    g_red}, the plane through the centre that holds the maximizer.  A
    line is padded with a zero coordinate: the disk then projects onto its
    segment.  A missing normal is 0, which leaves every point feasible."""
    b = _span_basis(np.column_stack((g_red,) if a_red is None else (g_red, a_red)))
    a_red = np.zeros_like(g_red) if a_red is None else a_red
    return [np.pad(b.T @ v, (0, 2 - b.shape[1])) for v in (c_red, a_red, g_red)]


# Angles of the dense check's sweep and of each of its two refinements,
# which leave a spacing of 2 pi / 4096 * (4 / 1000)^2 = 2.5e-8 rad.
_COARSE = 4096
_FINE = 1000


def _dense_check(c, r, a, limit, g):
    """Best objective over the disk ||z - c|| <= r cut by a'z <= limit, in
    2-d, by masked sampling of the circle.

    A linear objective is largest either on the feasible arc of the circle
    or at an end of the chord, and the feasible arc is one interval of
    angles whose ends are the chord's ends.  The circle is swept at _COARSE
    angles and the two chord ends are computed exactly; the best of these
    candidates is then refined twice, each time at _FINE angles across the
    4 spacings around it.  Refining from a chord end is what makes a fixed
    count safe: an arc narrower than one spacing, a thin cap, holds no
    coarse sample, but it holds the objective's peak only if the peak lies
    within one spacing of both its ends, so the window around the better
    end covers it.  Otherwise the best sample lies within one spacing of
    the peak or the peak is off the arc, where a chord end is the answer.
    Either way the last round's best lies within one final spacing of the
    peak, a deficit of at most r ||g|| (2.5e-8)^2 / 2.  A problem on one
    axis is largest at angle 0 or pi or at a chord end, which four angles
    and the chord cover without refinement."""
    slack = limit + 1e-12 * max(1.0, abs(limit))

    def sweep(start, width, count):
        angles = start + (width / count) * np.arange(count)
        cos, sin = np.cos(angles), np.sin(angles)
        values = float(g @ c) + r * (g[0] * cos + g[1] * sin)
        values[float(a @ c) + r * (a[0] * cos + a[1] * sin) > slack] = -np.inf
        top = int(np.argmax(values))
        return float(values[top]), float(angles[top])

    count, rounds = (4, 0) if g[1] == a[1] == 0.0 else (_COARSE, 2)
    best, at = sweep(0.0, 2.0 * np.pi, count)
    na = float(np.linalg.norm(a))
    h = (limit - float(a @ c)) / na if na > 0 else np.inf
    if abs(h) <= r:
        z0 = c + h * (a / na)
        rho = np.sqrt(max(r * r - h * h, 0.0))
        tangent = np.array([-a[1], a[0]]) / na
        for z in (z0 + rho * tangent, z0 - rho * tangent):
            value = float(g @ z)
            if value > best:
                best, at = value, float(np.arctan2(z[1] - c[1], z[0] - c[0]))
    spacing = 2.0 * np.pi / count
    for _ in range(rounds):
        value, angle = sweep(at - 2.0 * spacing, 4.0 * spacing, _FINE)
        spacing *= 4.0 / _FINE
        if value > best:
            best, at = value, angle
    return best


def oracle_max(ctx, g, ball=None):
    """Maximize g' theta over the screening region by exact enumeration.

    Parameters
    ----------
    ctx : ScreeningContext
        Supplies theta1, the lambdas, the labels and whether the halfspace
        applies.  Its normal a = (1/lambda1 - theta1) / ||.|| and its
        feasible side a'(theta - theta1) <= 0 are formed here from the
        paper's definition, apart from build_context.
    g : array
        Objective direction (use -fhat to get -min theta' fhat).
    ball : Ball, optional
        The region's ball, by default the paper's ball_at_t(theta1,
        lambda1, lambda2, 0) formed apart from build_context; the
        halfspace and equality constraint stay as in ctx.

    Returns
    -------
    OracleResult; certified means the dense sweep agreed within 1e-7,
    relative to the value once it exceeds 1, or that the ball has zero
    radius, where the answer needs no search.
    """
    g = np.asarray(g, dtype=np.float64)
    y = ctx.dataset.labels
    if ball is None:
        ball = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0)
    center = np.asarray(ball.center, dtype=np.float64)
    radius = float(ball.radius)
    u = 1.0 / ctx.lambda1 - ctx.theta1
    normal = u / np.linalg.norm(u) if ctx.has_normal else None

    vectors = np.column_stack((center, g) if normal is None else (center, normal, g))
    q = null_space_basis(y, vectors)

    c_red = q.T @ center
    off_subspace = center - q @ c_red
    gap = radius * radius - float(off_subspace @ off_subspace)
    if gap < -1e-9:
        raise ValueError("ball does not meet the equality subspace")
    r_red = float(np.sqrt(max(gap, 0.0)))

    if r_red < 1e-14:
        point = q @ c_red
        return OracleResult(value=float(g @ point), argmax=point, certified=True)

    a_red, limit = None, 0.0
    # A normal orthogonal to the subspace does not constrain it at all.
    if normal is not None and float(np.linalg.norm(q.T @ normal)) > 1e-15:
        a_red, limit = q.T @ normal, float(normal @ ctx.theta1)

    g_red = q.T @ g
    ng = float(np.linalg.norm(g_red))
    z_ball = c_red + (r_red / ng) * g_red if ng > 0.0 else c_red
    if a_red is None or float(a_red @ z_ball) <= limit + 1e-12 * max(1.0, abs(limit)):
        z = z_ball
    else:
        na = float(np.linalg.norm(a_red))
        h = (limit - float(a_red @ c_red)) / na
        if h < -r_red - 1e-9:
            raise ValueError("region is empty: halfspace excludes the whole ball")
        h = min(max(h, -r_red), r_red)
        a_unit = a_red / na
        z0 = c_red + h * a_unit
        rho = np.sqrt(max(r_red * r_red - h * h, 0.0))
        # Double orthogonalization: when g is nearly parallel to the
        # normal the first residual is round-off noise, and a noise
        # direction scaled to rho would step off the boundary plane.
        g_perp = g_red - float(g_red @ a_unit) * a_unit
        g_perp = g_perp - float(g_perp @ a_unit) * a_unit
        np_norm = float(np.linalg.norm(g_perp))
        z = z0 if np_norm <= 1e-12 * ng else z0 + (rho / np_norm) * g_perp
    value = float(g_red @ z)

    c_p, a_p, g_p = _plane(c_red, a_red, g_red)
    dense = _dense_check(c_p, r_red, a_p, limit, g_p)
    agreed = abs(dense - value) <= 1e-7 * max(1.0, abs(value))
    return OracleResult(value=value, argmax=q @ z, certified=bool(agreed))
