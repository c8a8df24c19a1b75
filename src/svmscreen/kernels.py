"""Compute kernels over compressed sparse columns.

Every hot loop of the library lives here, each in one vectorized numpy
implementation.

The products and feature statistics sum per column with ``np.bincount``
over the column of every stored entry (``column_index``), which a sparse
Dataset builds once and passes as ``cols``.  The matrix-vector products
``csc_matvec`` / ``csc_rmatvec`` also accept the dense column block a
Dataset keeps for dense data, and then run as BLAS products on it
instead; ``feature_stats`` and ``column_sq_norms``, each made once per
Dataset, have the one form for dense and sparse data alike.  The bound
kernels take the screening region as its ``ScreeningContext``: the bulk
bound ``screen_bulk`` forms both signs of every feature from shared even
and odd parts; ``neg_min_scalar`` is the per-feature reference it
transcribes.
"""

import math
from enum import IntEnum

import numpy as np


class Branch(IntEnum):
    """Branch of the closed-form bound taken for one sign of a feature."""

    DEGENERATE_F = 0
    BETA_ZERO = 1
    ALPHA_ZERO = 2
    INTERIOR_CORNER = 3


# Collinearity slack for the beta-branch test.  Its closed form assumes
# exact anti-parallelism, so the slack must only absorb round-off of an
# exact -1; anything looser would let near-misses through with an
# unbounded formula error.
EPS_COS = 1e-12


# ---------------------------------------------------------------------------
# CSC matrix-vector products and per-column statistics.
# ---------------------------------------------------------------------------


def column_index(col_ptr):
    """Column of every stored entry: ``j`` repeated ``col_ptr[j+1] - col_ptr[j]`` times."""
    m = col_ptr.shape[0] - 1
    return np.repeat(np.arange(m, dtype=np.int64), np.diff(col_ptr))


def column_entries(col_ptr, cols):
    """Positions in row_idx/values of the stored entries of the columns
    ``cols``, column after column, and the number of entries of each."""
    lo = col_ptr[cols]
    counts = col_ptr[cols + 1] - lo
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return starts + np.arange(starts.size), counts


def _sums_by(index, weights, size):
    # Adds each weight into its own bin, in entry order, so a large-scale
    # column cannot swamp the ones after it.  bincount gives integer zeros
    # when there are no entries at all.
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


def csc_matvec(col_ptr, row_idx, values, v, n_rows, block=None, cols=None):
    """X @ v where X is given by CSC arrays (columns are features).

    With ``block``, the dense n x m copy of X, this is the BLAS product
    ``block @ v``.  Otherwise it sums through ``cols``, the
    ``column_index(col_ptr)``, built here when not given.
    """
    if block is not None:
        return block @ v
    if cols is None:
        cols = column_index(col_ptr)
    return _sums_by(row_idx, values * v[cols], n_rows)


def csc_rmatvec(col_ptr, row_idx, values, u, block=None, cols=None):
    """X.T @ u: one dot product per column, on ``block`` when one is given."""
    if block is not None:
        return u @ block
    if cols is None:
        cols = column_index(col_ptr)
    return _sums_by(cols, values * u[row_idx], col_ptr.shape[0] - 1)


def feature_stats(col_ptr, row_idx, values, y, cols=None):
    """Per-column statistics of the label-weighted features fhat_j = y * f_j.

    Returns (dot_y, dot_one, proj_y_norm) where dot_y = fhat' y,
    dot_one = fhat' 1 and proj_y_norm is the norm of fhat after removing
    its component along y.  That component is (dot_y / n) y, so
    proj_y_norm is the norm of the centred column f_j - mean(f_j).  Every
    sum runs through ``cols``, the ``column_index(col_ptr)``, built here
    when not given.  ||fhat||^2 is ``column_sq_norms``, summed apart.
    """
    if cols is None:
        cols = column_index(col_ptr)
    n = y.shape[0]
    m = col_ptr.shape[0] - 1
    dot_y = _sums_by(cols, values, m)  # fhat' y == sum of f values
    # Summed from the centred column, not as ||f||^2 - dot_y^2 / n, whose
    # difference cancels for a column that is nearly constant over all n
    # rows: its stored entries, plus the mean once for each implicit zero.
    # Squared in place, so that one array of nnz values is made at a time.
    mean = dot_y / n
    centred = mean[cols]
    np.subtract(values, centred, out=centred)
    proj_sq = _sums_by(cols, np.square(centred, out=centred), m)
    del centred
    proj_sq += (n - np.diff(col_ptr)) * mean * mean
    dot_one = _sums_by(cols, values * y[row_idx], m)  # fhat' 1 == f' y
    return dot_y, dot_one, np.sqrt(proj_sq)


def column_sq_norms(col_ptr, values, cols=None):
    """||f_j||^2 = ||fhat_j||^2 of every column, summed through ``cols``,
    the ``column_index(col_ptr)``, built here when not given."""
    if cols is None:
        cols = column_index(col_ptr)
    return _sums_by(cols, values * values, col_ptr.shape[0] - 1)


# ---------------------------------------------------------------------------
# The scalar bound kernel.
#
# Evaluates -min over the screening region of theta' fhat from five
# per-feature scalars and the region's shared scalars, read from its
# screening.ScreeningContext.  This single function is the reference
# implementation; screen_bulk is its vectorized transcription.
# ---------------------------------------------------------------------------


def neg_min_scalar(ctx, syf, s1f, sff, pyf, sth):
    """-min over the region ``ctx`` of theta' fhat, and the Branch taken.

    fhat enters through syf = fhat' y, s1f = fhat' 1, sff = ||fhat||^2,
    pyf = ||P_y(fhat)|| and sth = theta1' fhat.
    """
    # Feature collinear with the labels (or zero): the objective vanishes
    # on the equality subspace.
    if pyf <= 1e-12 * math.sqrt(sff):
        return 0.0, Branch.DEGENERATE_F
    n = ctx.dataset.n_samples
    af = 0.0
    pyaf = 0.0
    if ctx.has_normal:
        af = (s1f * (1.0 / ctx.lambda1) - sth) / ctx.norm_u  # a' fhat
        pyaf = af - ctx.a_dot_y * syf / n  # P_y(a)' P_y(fhat)
        cosv = pyaf / (ctx.pya_norm * pyf)
        if cosv <= -1.0 + EPS_COS:
            # Objective varies only along the halfspace normal on the
            # subspace; the extremum sits on the boundary hyperplane.
            return (pyf / ctx.pya_norm) * ctx.a_dot_theta1, Branch.BETA_ZERO
    if ctx.slice_degenerate:
        # Ball reduces to a single point on the equality subspace; with no
        # halfspace that point is the reference solution itself.
        if not ctx.has_normal:
            return -sth, Branch.ALPHA_ZERO
    elif (not ctx.has_normal) or (ctx.py_a_dot_py_b / ctx.pyb_norm - pyaf / pyf <= 0.0):
        # Ball minimizer already satisfies the halfspace: closed form over
        # the ball sliced by the equality constraint.
        bf = 0.5 * (s1f * (1.0 / ctx.lambda2) - sth)  # b' fhat
        pybf = bf - ctx.b_dot_y * syf / n  # P_y(b)' P_y(fhat)
        return ctx.pyb_norm * pyf - pybf - sth, Branch.ALPHA_ZERO
    # Halfspace active: extremum at the rim where the ball slice meets the
    # boundary hyperplane, expressed through nested projections.
    paf_y = syf - af * ctx.a_dot_y  # P_a(fhat)' y
    nested_f_sq = sff - af * af - paf_y * paf_y / ctx.pay_sq
    if nested_f_sq < 0.0:
        nested_f_sq = 0.0
    nested_dot = (s1f - af * ctx.a_dot_one) - ctx.pa1y * paf_y / ctx.pay_sq
    value = ctx.half_dl * (ctx.nested1_norm * math.sqrt(nested_f_sq) - nested_dot) - sth
    return value, Branch.INTERIOR_CORNER


def screen_bulk(ctx, dot_y, dot_one, sq_norm, proj_y_norm, s_theta):
    """neg_min_scalar, vectorized over features and both signs.

    The arrays hold fhat' y, fhat' 1, ||fhat||^2, ||P_y(fhat)|| and
    theta1' fhat of each feature.  Returns (m1, m2, branch1, branch2): the
    bound components for +fhat and -fhat with the branch taken for each.

    Every quantity neg_min_scalar derives from fhat is odd or even in it:
    for -fhat the odd ones (af, pyaf, bf, pybf, paf_y, nested_dot) are the
    exact negations of those for +fhat and the even ones (pyf,
    nested_f_sq) are equal.  So each is computed once, and both signs are
    formed from them in the scalar's order of operations, which keeps
    every value and branch equal to neg_min_scalar's.  A branch is
    evaluated only when some feature takes it for some sign.
    """
    n = ctx.dataset.n_samples
    pyf = proj_y_norm
    m = pyf.shape[0]
    m1 = np.zeros(m)
    m2 = np.zeros(m)
    branch1 = np.full(m, Branch.DEGENERATE_F, dtype=np.int8)
    branch2 = np.full(m, Branch.DEGENERATE_F, dtype=np.int8)

    def take(mask1, mask2, code, v1, v2):
        np.copyto(m1, v1, where=mask1)
        np.copyto(m2, v2, where=mask2)
        np.copyto(branch1, np.int8(code), where=mask1)
        np.copyto(branch2, np.int8(code), where=mask2)

    def ball_values():
        bf = 0.5 * (dot_one * (1.0 / ctx.lambda2) - s_theta)
        pybf = bf - ctx.b_dot_y * dot_y / n
        ball_f = ctx.pyb_norm * pyf
        return ball_f - pybf - s_theta, ball_f + pybf + s_theta

    # Degenerate features keep 0; the rest take one of the other branches.
    live = ~(pyf <= 1e-12 * np.sqrt(sq_norm))
    if not ctx.has_normal:
        if ctx.slice_degenerate:
            take(live, live, Branch.ALPHA_ZERO, -s_theta, s_theta)
        else:
            take(live, live, Branch.ALPHA_ZERO, *ball_values())
        return m1, m2, branch1, branch2

    # pyf is 0 only on degenerate features, whose quotients are never read.
    with np.errstate(divide="ignore", invalid="ignore"):
        af = (dot_one * (1.0 / ctx.lambda1) - s_theta) / ctx.norm_u
        pyaf = af - ctx.a_dot_y * dot_y / n
        cosv = pyaf / (ctx.pya_norm * pyf)
        beta1 = live & (cosv <= -1.0 + EPS_COS)
        beta2 = live & (-cosv <= -1.0 + EPS_COS)
        if beta1.any() or beta2.any():
            v_beta = (pyf / ctx.pya_norm) * ctx.a_dot_theta1
            take(beta1, beta2, Branch.BETA_ZERO, v_beta, v_beta)
        rest1 = live & ~beta1
        rest2 = live & ~beta2
        if not ctx.slice_degenerate:
            lead = ctx.py_a_dot_py_b / ctx.pyb_norm
            pyaf_pyf = pyaf / pyf
            ball1 = rest1 & (lead - pyaf_pyf <= 0.0)
            ball2 = rest2 & (lead + pyaf_pyf <= 0.0)
            if ball1.any() or ball2.any():
                take(ball1, ball2, Branch.ALPHA_ZERO, *ball_values())
                rest1 &= ~ball1
                rest2 &= ~ball2

    # The rest meet the halfspace at the rim of the ball slice.
    if rest1.any() or rest2.any():
        paf_y = dot_y - af * ctx.a_dot_y
        nested_f_sq = np.maximum(sq_norm - af * af - paf_y * paf_y / ctx.pay_sq, 0.0)
        nested_dot = (dot_one - af * ctx.a_dot_one) - ctx.pa1y * paf_y / ctx.pay_sq
        rim = ctx.nested1_norm * np.sqrt(nested_f_sq)
        v1 = ctx.half_dl * (rim - nested_dot) - s_theta
        v2 = ctx.half_dl * (rim + nested_dot) + s_theta
        take(rest1, rest2, Branch.INTERIOR_CORNER, v1, v2)
    return m1, m2, branch1, branch2
