"""Compute kernels over compressed sparse columns, with optional JIT.

Every hot loop of the library lives here in two interchangeable
implementations: a vectorized pure-numpy version and a numba-compiled
version of the same arithmetic.  The active implementation is chosen once
at import time.  Set the environment variable ``SVMSCREEN_JIT=0`` before
importing the package to force the numpy path even when numba is
installed; both variants stay importable under their ``*_numpy`` /
``*_numba`` names so they can be compared directly (see benchmarks/).

The matrix-vector products ``csc_matvec`` / ``csc_rmatvec`` also accept
the dense column block a Dataset keeps for dense data, and then run as
BLAS products on it instead of either sparse kernel.
"""

import math
import os

import numpy as np

JIT_ENV_VAR = "SVMSCREEN_JIT"

try:
    import numba
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False

USING_NUMBA = HAS_NUMBA and os.environ.get(JIT_ENV_VAR, "1") != "0"

# Branch codes for the per-feature bound evaluation.  screening.Branch
# mirrors these values; they are plain ints here so compiled code can
# return them.
DEGENERATE_F = 0
BETA_ZERO = 1
ALPHA_ZERO = 2
INTERIOR_CORNER = 3

# Collinearity slack for the beta-branch test.  Its closed form assumes
# exact anti-parallelism, so the slack must only absorb round-off of an
# exact -1; anything looser would let near-misses through with an
# unbounded formula error.
EPS_COS = 1e-12


def set_threads(count):
    """Cap internal parallelism.  No-op on the numpy path."""
    if count is None:
        return
    if count < 1:
        raise ValueError("thread count must be >= 1")
    if USING_NUMBA:
        numba.set_num_threads(count)


# ---------------------------------------------------------------------------
# CSC matrix-vector products and per-column statistics, numpy versions.
# ---------------------------------------------------------------------------


def _column_sums(col_ptr, per_entry):
    # Each column is reduced on its own, so a large-scale column cannot
    # swamp the ones after it, as differences of one running sum would.
    # reduceat gives no 0 for an empty segment and rejects an offset equal
    # to nnz, so it runs over the non-empty columns and empty ones stay 0.
    sums = np.zeros(col_ptr.shape[0] - 1)
    nonempty = col_ptr[1:] > col_ptr[:-1]
    sums[nonempty] = np.add.reduceat(per_entry, col_ptr[:-1][nonempty])
    return sums


def csc_matvec_numpy(col_ptr, row_idx, values, v, n_rows):
    """X @ v where X is given by CSC arrays (columns are features)."""
    counts = np.diff(col_ptr)
    weights = values * np.repeat(v, counts)
    return np.bincount(row_idx, weights=weights, minlength=n_rows)


def csc_rmatvec_numpy(col_ptr, row_idx, values, u):
    """X.T @ u: one sparse dot product per column."""
    return _column_sums(col_ptr, values * u[row_idx])


def feature_stats_numpy(col_ptr, row_idx, values, y):
    """Per-column statistics of the label-weighted features fhat_j = y * f_j.

    Returns (dot_y, dot_one, sq_norm, proj_y_norm) where dot_y = fhat' y,
    dot_one = fhat' 1, sq_norm = ||fhat||^2 and proj_y_norm is the norm of
    fhat after removing its component along y.
    """
    n = y.shape[0]
    dot_y = _column_sums(col_ptr, values)  # fhat' y == sum of f values
    dot_one = _column_sums(col_ptr, values * y[row_idx])  # fhat' 1 == f' y
    sq_norm = _column_sums(col_ptr, values * values)
    proj_y_norm = np.sqrt(np.maximum(sq_norm - dot_y * dot_y / n, 0.0))
    return dot_y, dot_one, sq_norm, proj_y_norm


# ---------------------------------------------------------------------------
# The scalar bound kernel.
#
# Evaluates -min over the feasible region of theta' fhat from five
# per-feature scalars plus shared context scalars.  This single function is
# the reference implementation: the numba bulk kernel compiles it verbatim,
# and screen_bulk_numpy is its vectorized transcription.
# ---------------------------------------------------------------------------


def neg_min_scalar(
    syf,  # fhat' y
    s1f,  # fhat' 1
    sff,  # ||fhat||^2
    pyf,  # ||P_y(fhat)||
    sth,  # theta1' fhat
    inv_l1,
    inv_l2,
    n,
    has_normal,
    slice_degenerate,
    norm_u,  # ||1/lambda1 - theta1||
    a_dot_y,
    a_dot_one,
    a_dot_theta1,
    pya_norm,  # ||P_y(a)||
    pyb_norm,  # ||P_y(b)||
    b_dot_y,  # b' y
    py_a_dot_py_b,  # P_y(a)' P_y(b)
    pay_sq,  # ||P_a(y)||^2 = n - (a'y)^2
    pa1y,  # P_a(1)' P_a(y) = 1'y - (a'1)(a'y)
    nested1_norm,  # ||P_{P_a(y)}(P_a(1))||
    half_dl,  # (1/lambda2 - 1/lambda1) / 2
):
    # Feature collinear with the labels (or zero): the objective vanishes
    # on the equality subspace.
    if pyf <= 1e-12 * math.sqrt(sff):
        return 0.0, DEGENERATE_F
    af = 0.0
    pyaf = 0.0
    if has_normal:
        af = (s1f * inv_l1 - sth) / norm_u  # a' fhat
        pyaf = af - a_dot_y * syf / n  # P_y(a)' P_y(fhat)
        cosv = pyaf / (pya_norm * pyf)
        if cosv <= -1.0 + EPS_COS:
            # Objective varies only along the halfspace normal on the
            # subspace; the extremum sits on the boundary hyperplane.
            return (pyf / pya_norm) * a_dot_theta1, BETA_ZERO
    if slice_degenerate:
        # Ball reduces to a single point on the equality subspace; with no
        # halfspace that point is the reference solution itself.
        if not has_normal:
            return -sth, ALPHA_ZERO
    elif (not has_normal) or (py_a_dot_py_b / pyb_norm - pyaf / pyf <= 0.0):
        # Ball minimizer already satisfies the halfspace: closed form over
        # the ball sliced by the equality constraint.
        bf = 0.5 * (s1f * inv_l2 - sth)  # b' fhat
        pybf = bf - b_dot_y * syf / n  # P_y(b)' P_y(fhat)
        return pyb_norm * pyf - pybf - sth, ALPHA_ZERO
    # Halfspace active: extremum at the rim where the ball slice meets the
    # boundary hyperplane, expressed through nested projections.
    paf_y = syf - af * a_dot_y  # P_a(fhat)' y
    nested_f_sq = sff - af * af - paf_y * paf_y / pay_sq
    if nested_f_sq < 0.0:
        nested_f_sq = 0.0
    nested_dot = (s1f - af * a_dot_one) - pa1y * paf_y / pay_sq
    value = half_dl * (nested1_norm * math.sqrt(nested_f_sq) - nested_dot) - sth
    return value, INTERIOR_CORNER


def screen_bulk_numpy(
    dot_y,
    dot_one,
    sq_norm,
    proj_y_norm,
    s_theta,
    inv_l1,
    inv_l2,
    n,
    has_normal,
    slice_degenerate,
    norm_u,
    a_dot_y,
    a_dot_one,
    a_dot_theta1,
    pya_norm,
    pyb_norm,
    b_dot_y,
    py_a_dot_py_b,
    pay_sq,
    pa1y,
    nested1_norm,
    half_dl,
):
    """Vectorized twin of neg_min_scalar over all features and both signs.

    Returns (m1, m2, branch1, branch2): the bound components for +fhat and
    -fhat with the branch taken for each.
    """

    def one_sign(sign):
        syf = sign * dot_y
        s1f = sign * dot_one
        sth = sign * s_theta
        pyf = proj_y_norm

        degenerate = pyf <= 1e-12 * np.sqrt(sq_norm)
        pyf_safe = np.where(pyf > 0.0, pyf, 1.0)

        if has_normal:
            af = (s1f * inv_l1 - sth) / norm_u
            pyaf = af - a_dot_y * syf / n
            cosv = pyaf / (pya_norm * pyf_safe)
            beta = ~degenerate & (cosv <= -1.0 + EPS_COS)
        else:
            af = np.zeros_like(syf)
            pyaf = np.zeros_like(syf)
            beta = np.zeros_like(degenerate)
        v_beta = (pyf / pya_norm) * a_dot_theta1 if has_normal else np.zeros_like(pyf)

        taken = degenerate | beta
        if slice_degenerate:
            if has_normal:
                ball = np.zeros_like(degenerate)
            else:
                ball = ~taken
            v_ball = -sth
        else:
            if has_normal:
                ball = ~taken & (py_a_dot_py_b / pyb_norm - pyaf / pyf_safe <= 0.0)
            else:
                ball = ~taken
            bf = 0.5 * (s1f * inv_l2 - sth)
            pybf = bf - b_dot_y * syf / n
            v_ball = pyb_norm * pyf - pybf - sth

        paf_y = syf - af * a_dot_y
        nested_f_sq = np.maximum(sq_norm - af * af - paf_y * paf_y / pay_sq, 0.0)
        nested_dot = (s1f - af * a_dot_one) - pa1y * paf_y / pay_sq
        v_corner = half_dl * (nested1_norm * np.sqrt(nested_f_sq) - nested_dot) - sth

        value = np.select(
            [degenerate, beta, ball], [np.zeros_like(pyf), v_beta, v_ball], default=v_corner
        )
        branch = np.select(
            [degenerate, beta, ball],
            [
                np.int8(DEGENERATE_F),
                np.int8(BETA_ZERO),
                np.int8(ALPHA_ZERO),
            ],
            default=np.int8(INTERIOR_CORNER),
        )
        return value, branch

    m1, branch1 = one_sign(1.0)
    m2, branch2 = one_sign(-1.0)
    return m1, m2, branch1, branch2


# ---------------------------------------------------------------------------
# Numba variants.
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def csc_matvec_numba(col_ptr, row_idx, values, v, n_rows):
        out = np.zeros(n_rows)
        for j in range(col_ptr.shape[0] - 1):
            vj = v[j]
            if vj != 0.0:
                for k in range(col_ptr[j], col_ptr[j + 1]):
                    out[row_idx[k]] += vj * values[k]
        return out

    @njit(cache=True)
    def csc_rmatvec_numba(col_ptr, row_idx, values, u):
        m = col_ptr.shape[0] - 1
        out = np.empty(m)
        for j in range(m):
            acc = 0.0
            for k in range(col_ptr[j], col_ptr[j + 1]):
                acc += values[k] * u[row_idx[k]]
            out[j] = acc
        return out

    @njit(cache=True)
    def feature_stats_numba(col_ptr, row_idx, values, y):
        n = y.shape[0]
        m = col_ptr.shape[0] - 1
        dot_y = np.empty(m)
        dot_one = np.empty(m)
        sq_norm = np.empty(m)
        proj_y_norm = np.empty(m)
        for j in range(m):
            sv = 0.0
            svy = 0.0
            sq = 0.0
            for k in range(col_ptr[j], col_ptr[j + 1]):
                val = values[k]
                sv += val
                svy += val * y[row_idx[k]]
                sq += val * val
            dot_y[j] = sv
            dot_one[j] = svy
            sq_norm[j] = sq
            proj = sq - sv * sv / n
            proj_y_norm[j] = np.sqrt(proj) if proj > 0.0 else 0.0
        return dot_y, dot_one, sq_norm, proj_y_norm

    _neg_min_scalar_jit = njit(cache=True)(neg_min_scalar)

    @njit(cache=True, parallel=True)
    def _screen_bulk_loop(
        dot_y,
        dot_one,
        sq_norm,
        proj_y_norm,
        s_theta,
        inv_l1,
        inv_l2,
        n,
        has_normal,
        slice_degenerate,
        norm_u,
        a_dot_y,
        a_dot_one,
        a_dot_theta1,
        pya_norm,
        pyb_norm,
        b_dot_y,
        py_a_dot_py_b,
        pay_sq,
        pa1y,
        nested1_norm,
        half_dl,
        m1,
        m2,
        branch1,
        branch2,
    ):
        m = dot_y.shape[0]
        for j in prange(m):
            v1, b1 = _neg_min_scalar_jit(
                dot_y[j], dot_one[j], sq_norm[j], proj_y_norm[j], s_theta[j],
                inv_l1, inv_l2, n, has_normal, slice_degenerate, norm_u,
                a_dot_y, a_dot_one, a_dot_theta1, pya_norm, pyb_norm, b_dot_y,
                py_a_dot_py_b, pay_sq, pa1y, nested1_norm, half_dl,
            )
            v2, b2 = _neg_min_scalar_jit(
                -dot_y[j], -dot_one[j], sq_norm[j], proj_y_norm[j], -s_theta[j],
                inv_l1, inv_l2, n, has_normal, slice_degenerate, norm_u,
                a_dot_y, a_dot_one, a_dot_theta1, pya_norm, pyb_norm, b_dot_y,
                py_a_dot_py_b, pay_sq, pa1y, nested1_norm, half_dl,
            )
            m1[j] = v1
            m2[j] = v2
            branch1[j] = b1
            branch2[j] = b2

    def screen_bulk_numba(
        dot_y,
        dot_one,
        sq_norm,
        proj_y_norm,
        s_theta,
        inv_l1,
        inv_l2,
        n,
        has_normal,
        slice_degenerate,
        norm_u,
        a_dot_y,
        a_dot_one,
        a_dot_theta1,
        pya_norm,
        pyb_norm,
        b_dot_y,
        py_a_dot_py_b,
        pay_sq,
        pa1y,
        nested1_norm,
        half_dl,
    ):
        m = dot_y.shape[0]
        m1 = np.empty(m)
        m2 = np.empty(m)
        branch1 = np.empty(m, dtype=np.int8)
        branch2 = np.empty(m, dtype=np.int8)
        _screen_bulk_loop(
            dot_y, dot_one, sq_norm, proj_y_norm, s_theta,
            inv_l1, inv_l2, n, has_normal, slice_degenerate, norm_u,
            a_dot_y, a_dot_one, a_dot_theta1, pya_norm, pyb_norm, b_dot_y,
            py_a_dot_py_b, pay_sq, pa1y, nested1_norm, half_dl,
            m1, m2, branch1, branch2,
        )
        return m1, m2, branch1, branch2

else:  # pragma: no cover - exercised only without numba
    csc_matvec_numba = None
    csc_rmatvec_numba = None
    feature_stats_numba = None
    screen_bulk_numba = None


if USING_NUMBA:
    sparse_matvec = csc_matvec_numba
    sparse_rmatvec = csc_rmatvec_numba
    feature_stats = feature_stats_numba
    screen_bulk = screen_bulk_numba
else:
    sparse_matvec = csc_matvec_numpy
    sparse_rmatvec = csc_rmatvec_numpy
    feature_stats = feature_stats_numpy
    screen_bulk = screen_bulk_numpy


def csc_matvec(col_ptr, row_idx, values, v, n_rows, block=None):
    """X @ v; on ``block``, the dense n x m copy of X, when one is given."""
    if block is not None:
        return block @ v
    return sparse_matvec(col_ptr, row_idx, values, v, n_rows)


def csc_rmatvec(col_ptr, row_idx, values, u, block=None):
    """X.T @ u; on ``block``, the dense n x m copy of X, when one is given."""
    if block is not None:
        return u @ block
    return sparse_rmatvec(col_ptr, row_idx, values, u)


#: name -> (numpy implementation, numba implementation or None)
IMPLEMENTATIONS = {
    "csc_matvec": (csc_matvec_numpy, csc_matvec_numba),
    "csc_rmatvec": (csc_rmatvec_numpy, csc_rmatvec_numba),
    "feature_stats": (feature_stats_numpy, feature_stats_numba),
    "screen_bulk": (screen_bulk_numpy, screen_bulk_numba),
}
