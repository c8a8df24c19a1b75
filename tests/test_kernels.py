"""The numpy kernels, and the BLAS products on a Dataset's dense block,
must match dense arithmetic, column by column, to round-off, also on badly
scaled data; the numba kernels, where installed, must be interchangeable
with them bit-for-bit-ish."""

import math
import subprocess
import sys

import numpy as np
import pytest

from svmscreen import Dataset, build_context, compute_feature_stats
from svmscreen import kernels
from svmscreen.screening import _scalar_args

from conftest import anchored_dataset, feasible_theta, random_dataset, random_labels

needs_numba = pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not installed")


def test_csc_matvec_numpy_matches_dense():
    rng = np.random.default_rng(41)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)), 0.5)
        v = rng.normal(size=ds.n_features)
        out = kernels.csc_matvec_numpy(ds.col_ptr, ds.row_idx, ds.values, v, ds.n_samples)
        np.testing.assert_allclose(out, ds.to_dense() @ v, atol=1e-12)


def test_csc_rmatvec_numpy_matches_dense():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)), 0.5)
        u = rng.normal(size=ds.n_samples)
        out = kernels.csc_rmatvec_numpy(ds.col_ptr, ds.row_idx, ds.values, u)
        np.testing.assert_allclose(out, ds.to_dense().T @ u, atol=1e-12)


def _exact_column_sums(per_entry):
    return np.array([math.fsum(col) for col in per_entry.T])


def _assert_columns_close(out, ref, scale, rtol=1e-13):
    # each column against its own magnitude; a column of scale 0 must be
    # exactly 0
    bad = np.flatnonzero(np.abs(out - ref) > rtol * scale)
    assert bad.size == 0, f"columns {bad}: got {out[bad]}, want {ref[bad]}"


def _mixed_scale_datasets(rng):
    """Dense arrays and datasets with a 1e7 column before unit-scale ones.

    In the sparse ones columns 0, m // 2 and m - 1 are empty; then comes
    one fully stored dataset, which gets a dense block, with the 1e7 column
    first; the last dataset stores no entries at all.
    """
    for _ in range(10):
        n, m = int(rng.integers(2, 12)), int(rng.integers(6, 30))
        y = random_labels(rng, n)
        x = rng.normal(size=(n, m))
        x[rng.random(size=x.shape) >= 0.6] = 0.0
        x[:, 1] = 1e7 * y
        x[:, [0, m // 2, m - 1]] = 0.0
        yield x, Dataset.from_dense(x, y)
    y = random_labels(rng, 11)
    x = rng.normal(size=(11, 17))
    x[:, 0] = 1e7 * y
    dense = Dataset.from_dense(x, y)
    assert dense.dense_block is not None
    yield x, dense
    y = random_labels(rng, 5)
    yield np.zeros((5, 4)), Dataset.from_dense(np.zeros((5, 4)), y)


def test_numpy_kernels_match_dense_on_mixed_scale_columns():
    rng = np.random.default_rng(97)
    for x, ds in _mixed_scale_datasets(rng):
        y = ds.labels
        fhat = x * y[:, None]
        ax = np.abs(x)
        empty = np.diff(ds.col_ptr) == 0

        u = rng.normal(size=ds.n_samples)
        ref = _exact_column_sums(x * u[:, None])
        csc = (ds.col_ptr, ds.row_idx, ds.values)
        for out in (kernels.csc_rmatvec_numpy(*csc, u), ds.rmatvec(u)):
            _assert_columns_close(out, ref, ax.T @ np.abs(u))
            assert np.all(out[empty] == 0.0)

        # X @ v row by row, each against its own magnitude
        v = rng.normal(size=ds.n_features)
        ref = _exact_column_sums((x * v).T)
        for out in (kernels.csc_matvec_numpy(*csc, v, ds.n_samples), ds.matvec(v)):
            _assert_columns_close(out, ref, ax @ np.abs(v))

        stats = kernels.feature_stats_numpy(ds.col_ptr, ds.row_idx, ds.values, y)
        dot_y, dot_one, sq_norm, proj_y_norm = stats
        _assert_columns_close(dot_y, _exact_column_sums(x), ax.sum(axis=0))
        _assert_columns_close(dot_one, _exact_column_sums(fhat), ax.sum(axis=0))
        ref_sq = _exact_column_sums(x * x)
        _assert_columns_close(sq_norm, ref_sq, ref_sq)
        off_y = fhat - np.outer(y, fhat.T @ y) / ds.n_samples
        ref_proj = np.sqrt(_exact_column_sums(off_y * off_y))
        _assert_columns_close(proj_y_norm, ref_proj, ref_proj)
        for column in stats:
            assert np.all(column[empty] == 0.0)


@needs_numba
def test_matvec_implementations_agree():
    rng = np.random.default_rng(47)
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(1, 20)), int(rng.integers(1, 30)), 0.4)
        v = rng.normal(size=ds.n_features)
        u = rng.normal(size=ds.n_samples)
        np.testing.assert_allclose(
            kernels.csc_matvec_numba(ds.col_ptr, ds.row_idx, ds.values, v, ds.n_samples),
            kernels.csc_matvec_numpy(ds.col_ptr, ds.row_idx, ds.values, v, ds.n_samples),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            kernels.csc_rmatvec_numba(ds.col_ptr, ds.row_idx, ds.values, u),
            kernels.csc_rmatvec_numpy(ds.col_ptr, ds.row_idx, ds.values, u),
            atol=1e-12,
        )


@needs_numba
def test_feature_stats_implementations_agree():
    rng = np.random.default_rng(53)
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(2, 20)), int(rng.integers(1, 30)), 0.4)
        a = kernels.feature_stats_numpy(ds.col_ptr, ds.row_idx, ds.values, ds.labels)
        b = kernels.feature_stats_numba(ds.col_ptr, ds.row_idx, ds.values, ds.labels)
        for left, right in zip(a, b):
            np.testing.assert_allclose(left, right, atol=1e-12)


def _context_and_stats(seed, n=8, m=40):
    rng = np.random.default_rng(seed)
    ds = anchored_dataset(rng, n, m)
    theta1 = feasible_theta(rng, ds.labels)
    ctx = build_context(theta1, 1.2, 0.7, ds)
    stats = compute_feature_stats(ds)
    s_theta = kernels.csc_rmatvec_numpy(
        ds.col_ptr, ds.row_idx, ds.values, theta1 * ds.labels
    )
    return ctx, stats, s_theta


def test_bulk_numpy_matches_scalar_reference():
    ctx, stats, s_theta = _context_and_stats(59)
    args = _scalar_args(ctx)
    m1, m2, br1, br2 = kernels.screen_bulk_numpy(
        stats.dot_y, stats.dot_one, stats.sq_norm, stats.proj_y_norm, s_theta, *args
    )
    for j in range(stats.dot_y.shape[0]):
        v1, b1 = kernels.neg_min_scalar(
            stats.dot_y[j], stats.dot_one[j], stats.sq_norm[j],
            stats.proj_y_norm[j], s_theta[j], *args,
        )
        v2, b2 = kernels.neg_min_scalar(
            -stats.dot_y[j], -stats.dot_one[j], stats.sq_norm[j],
            stats.proj_y_norm[j], -s_theta[j], *args,
        )
        assert m1[j] == pytest.approx(v1, abs=1e-12)
        assert m2[j] == pytest.approx(v2, abs=1e-12)
        assert br1[j] == b1
        assert br2[j] == b2


@needs_numba
def test_bulk_implementations_agree():
    for seed in (61, 67, 71):
        ctx, stats, s_theta = _context_and_stats(seed, n=10, m=60)
        args = _scalar_args(ctx)
        ref = kernels.screen_bulk_numpy(
            stats.dot_y, stats.dot_one, stats.sq_norm, stats.proj_y_norm, s_theta, *args
        )
        jit = kernels.screen_bulk_numba(
            stats.dot_y, stats.dot_one, stats.sq_norm, stats.proj_y_norm, s_theta, *args
        )
        np.testing.assert_allclose(jit[0], ref[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jit[1], ref[1], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(jit[2], ref[2])
        np.testing.assert_array_equal(jit[3], ref[3])


def test_set_threads_validation():
    kernels.set_threads(None)  # no-op
    kernels.set_threads(1)
    with pytest.raises(ValueError, match="thread count"):
        kernels.set_threads(0)


def test_jit_env_flag_selects_numpy_path():
    code = (
        "import os; os.environ['SVMSCREEN_JIT'] = '0'; "
        "import svmscreen; from svmscreen import kernels; "
        "assert not svmscreen.USING_NUMBA; "
        "assert kernels.screen_bulk is kernels.screen_bulk_numpy"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_active_dispatch_consistent(monkeypatch):
    if kernels.USING_NUMBA:
        assert kernels.screen_bulk is kernels.screen_bulk_numba
        assert kernels.sparse_matvec is kernels.csc_matvec_numba
        assert kernels.sparse_rmatvec is kernels.csc_rmatvec_numba
    else:
        assert kernels.screen_bulk is kernels.screen_bulk_numpy
        assert kernels.sparse_matvec is kernels.csc_matvec_numpy
        assert kernels.sparse_rmatvec is kernels.csc_rmatvec_numpy

    # The products run the active sparse kernel without a block and BLAS
    # on the block alone when one is given.
    rng = np.random.default_rng(73)
    ds = random_dataset(rng, 9, 14, 0.3)
    assert ds.dense_block is None
    v, u = rng.normal(size=ds.n_features), rng.normal(size=ds.n_samples)
    csc = (ds.col_ptr, ds.row_idx, ds.values)
    np.testing.assert_array_equal(
        kernels.csc_matvec(*csc, v, ds.n_samples), kernels.sparse_matvec(*csc, v, ds.n_samples)
    )
    np.testing.assert_array_equal(kernels.csc_rmatvec(*csc, u), kernels.sparse_rmatvec(*csc, u))

    def unused(*args):
        raise AssertionError("sparse kernel called despite a dense block")

    monkeypatch.setattr(kernels, "sparse_matvec", unused)
    monkeypatch.setattr(kernels, "sparse_rmatvec", unused)
    block = np.asfortranarray(ds.to_dense())
    np.testing.assert_array_equal(kernels.csc_matvec(*csc, v, ds.n_samples, block=block), block @ v)
    np.testing.assert_array_equal(kernels.csc_rmatvec(*csc, u, block=block), u @ block)
