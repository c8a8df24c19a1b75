"""Brute-force maximizer of a linear objective over the screening region.

Validates every closed form in the screening module on small problems.
The equality constraint theta'y = 0 is a subspace through the origin, so
feasible points are exactly Q z for an orthonormal basis Q of that
subspace; what remains is a ball intersected with one halfspace, where the
maximizer of a linear objective is known in closed form (ball surface
point, or the rim of the spherical cap).  Enumerating those candidates is
exact; for n <= 3 a dense boundary sweep with local refinement provides a
second, method-independent check.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ball_at_t


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmax: np.ndarray
    certified: bool


def null_space_basis(y):
    """Orthonormal n x (n-1) basis of {theta : theta'y = 0}."""
    y = np.asarray(y, dtype=np.float64)
    u, _, _ = np.linalg.svd(y.reshape(-1, 1), full_matrices=True)
    return u[:, 1:]


def _feasible_reduced_point(c_red, r_red, a_red, limit):
    if a_red is None or float(a_red @ c_red) <= limit:
        return c_red.copy()
    na2 = float(a_red @ a_red)
    return c_red + ((limit - float(a_red @ c_red)) / na2) * a_red


def _dense_check(c_red, r_red, a_red, limit, g_red, samples=1_000_000):
    """Best objective over a dense sweep of the feasible boundary, dim <= 2."""
    dim = c_red.shape[0]
    feasible = (
        (lambda pts: np.ones(pts.shape[0], dtype=bool))
        if a_red is None
        else (lambda pts: pts @ a_red <= limit + 1e-12 * max(1.0, abs(limit)))
    )
    if dim == 1:
        candidates = [c_red - r_red, c_red + r_red]
        if a_red is not None and abs(float(a_red[0])) > 0:
            candidates.append(np.array([limit / float(a_red[0])]))
        best = -np.inf
        for z in candidates:
            inside = abs(float(z[0] - c_red[0])) <= r_red + 1e-12 * max(1.0, r_red)
            if inside and feasible(z.reshape(1, -1))[0]:
                best = max(best, float(g_red @ z))
        return best
    # dim == 2: the maximum of a linear objective sits on the circle or on
    # the chord cut by the halfspace; chord endpoints are circle points, so
    # sweeping the circle suffices, followed by golden-section refinement.
    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    points = c_red + r_red * np.column_stack((np.cos(angles), np.sin(angles)))
    mask = feasible(points)
    if not np.any(mask):
        z = _feasible_reduced_point(c_red, r_red, a_red, limit)
        return float(g_red @ z)
    values = points @ g_red
    values[~mask] = -np.inf
    best_idx = int(np.argmax(values))

    def circle_value(phi):
        z = c_red + r_red * np.array([np.cos(phi), np.sin(phi)])
        if a_red is not None and float(a_red @ z) > limit + 1e-12 * max(1.0, abs(limit)):
            return -np.inf
        return float(g_red @ z)

    span = 2.0 * np.pi / samples
    lo = angles[best_idx] - 2 * span
    hi = angles[best_idx] + 2 * span
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1, f2 = circle_value(x1), circle_value(x2)
    for _ in range(200):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = circle_value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = circle_value(x1)
    best = max(circle_value(angles[best_idx]), f1, f2)
    # Chord endpoints, computed exactly.
    if a_red is not None:
        na = float(np.linalg.norm(a_red))
        if na > 0:
            h = (limit - float(a_red @ c_red)) / na
            if abs(h) <= r_red:
                z0 = c_red + h * (a_red / na)
                rho = np.sqrt(max(r_red * r_red - h * h, 0.0))
                tangent = np.array([-a_red[1], a_red[0]]) / na
                for z in (z0 + rho * tangent, z0 - rho * tangent):
                    best = max(best, float(g_red @ z))
    return best


def oracle_max(ctx, g, ball=None, basis=None, n_cap=10, dense_samples=1_000_000):
    """Maximize g' theta over the screening region by exact enumeration.

    Parameters
    ----------
    ctx : ScreeningContext
        Supplies theta1, the lambdas, the optional halfspace and the labels.
    g : array
        Objective direction (use -fhat to get -min theta' fhat).
    ball : Ball, optional
        The region's ball, by default the paper's ball_at_t(theta1,
        lambda1, lambda2, 0) formed apart from build_context; the
        halfspace and equality constraint stay as in ctx.
    basis : array, optional
        Orthonormal basis of {theta'y = 0} to use instead of the default,
        for invariance checks.
    n_cap : int
        Refuse larger problems; this is a correctness instrument.
    dense_samples : int
        Boundary sweep resolution of the secondary check at n <= 3.

    Returns
    -------
    OracleResult; certified means the dense sweep (n <= 3) agreed within
    1e-7, or the candidate enumeration alone was exact (n > 3).
    """
    g = np.asarray(g, dtype=np.float64)
    y = ctx.dataset.labels
    n = y.shape[0]
    if n > n_cap:
        raise ValueError(f"oracle limited to n <= {n_cap}")
    if ball is None:
        ball = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0)
    center = np.asarray(ball.center, dtype=np.float64)
    radius = float(ball.radius)

    q = basis if basis is not None else null_space_basis(y)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (n, n - 1):
        raise ValueError("basis must be n x (n-1)")
    if not np.allclose(q.T @ q, np.eye(n - 1), atol=1e-10):
        raise ValueError("basis must be orthonormal")
    if float(np.max(np.abs(y @ q))) > 1e-10:
        raise ValueError("basis must be orthogonal to the labels")

    c_red = q.T @ center
    off_subspace = center - q @ c_red
    gap = radius * radius - float(off_subspace @ off_subspace)
    if gap < -1e-9:
        raise ValueError("ball does not meet the equality subspace")
    r_red = float(np.sqrt(max(gap, 0.0)))

    theta1 = ctx.theta1
    if r_red < 1e-14:
        point = q @ c_red
        return OracleResult(value=float(g @ point), argmax=point, certified=True)

    if ctx.has_normal:
        a_red = q.T @ ctx.normal
        limit = float(ctx.normal @ theta1)
        if float(np.linalg.norm(a_red)) <= 1e-15:
            # Halfspace does not constrain the subspace at all.
            a_red = None
            limit = 0.0
    else:
        a_red = None
        limit = 0.0

    g_red = q.T @ g
    ng = float(np.linalg.norm(g_red))
    if ng == 0.0:
        z = _feasible_reduced_point(c_red, r_red, a_red, limit)
        value = 0.0
    else:
        z_ball = c_red + (r_red / ng) * g_red
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

    certified = True
    if n <= 3 and ng > 0.0:
        dense = _dense_check(c_red, r_red, a_red, limit, g_red, samples=dense_samples)
        certified = bool(abs(dense - value) <= 1e-7)

    return OracleResult(value=value, argmax=q @ z, certified=certified)


def oracle_neg_min(ctx, fhat, **kwargs):
    """-min theta' fhat over the region, mirroring screening.neg_min."""
    return oracle_max(ctx, -np.asarray(fhat, dtype=np.float64), **kwargs).value
