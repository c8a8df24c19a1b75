"""The numpy kernels, and the BLAS products on a Dataset's dense block,
must match dense arithmetic, column by column, to round-off, also on badly
scaled data; the numba kernels, where installed, must be interchangeable
with them bit-for-bit-ish."""

import math
import os
import subprocess
import sys
from pathlib import Path

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


def test_numpy_kernels_equal_with_and_without_column_index():
    rng = np.random.default_rng(101)
    datasets = [ds for _, ds in _mixed_scale_datasets(rng)]
    datasets += [random_dataset(rng, 12, 40, 0.2), random_dataset(rng, 7, 5)]
    for ds in datasets:
        csc = (ds.col_ptr, ds.row_idx, ds.values)
        cols = kernels.column_index(ds.col_ptr)
        assert cols.shape == ds.values.shape
        v, u = rng.normal(size=ds.n_features), rng.normal(size=ds.n_samples)
        for out, ref in (
            (kernels.csc_matvec_numpy(*csc, v, ds.n_samples, cols=cols),
             kernels.csc_matvec_numpy(*csc, v, ds.n_samples)),
            (kernels.csc_rmatvec_numpy(*csc, u, cols=cols), kernels.csc_rmatvec_numpy(*csc, u)),
            *zip(kernels.feature_stats_numpy(*csc, ds.labels, cols=cols),
                 kernels.feature_stats_numpy(*csc, ds.labels)),
        ):
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, ref)


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


def _bound_inputs(kind, lam1=1.2, lam2=0.7):
    """(context, stats, s_theta) of one kind of screening context.

    ``generic`` has a hand-made feasible theta1; ``no_normal`` has balanced
    labels and theta1 = 1/lambda1, so the halfspace drops out;
    ``slice_degenerate`` has theta1 = (1 - mean(y) y) / lambda2, whose
    ball center offset b is a multiple of y.  Beside random columns each
    dataset holds the 1e7 anchor that keeps lambda1 legal, a constant and
    an empty column (degenerate), and the column whose fhat is -P_y(a),
    anti-parallel to the normal a off y (0 without a normal).
    """
    rng = np.random.default_rng(59)
    n = 10
    if kind == "generic":
        y = random_labels(rng, n)
        theta1 = feasible_theta(rng, y)
    elif kind == "no_normal":
        y = rng.permutation(np.repeat([1.0, -1.0], n // 2))
        theta1 = np.full(n, 1.0 / lam1)
    else:
        y = rng.permutation(np.repeat([1.0, -1.0], [7, 3]))
        theta1 = (1.0 - y.mean() * y) / lam2
    x = rng.normal(size=(n, 24))
    x[:, 0] = 1e7 * y
    x[:, 1] = 3.7
    x[:, 2] = 0.0
    a = 1.0 / lam1 - theta1
    x[:, 3] = -y * (a - (a @ y / n) * y)
    ds = Dataset.from_dense(x, y)
    ctx = build_context(theta1, lam1, lam2, ds)
    stats = compute_feature_stats(ds)
    return ctx, stats, ds.rmatvec(theta1 * y)


def test_bulk_numpy_matches_scalar_reference():
    deg, beta, ball, corner = (
        kernels.DEGENERATE_F, kernels.BETA_ZERO, kernels.ALPHA_ZERO, kernels.INTERIOR_CORNER
    )
    cases = []
    for kind, reached in (
        ("generic", {deg, beta, ball, corner}),
        ("no_normal", {deg, ball}),
        ("slice_degenerate", {deg, beta, corner}),
    ):
        ctx, stats, s_theta = _bound_inputs(kind)
        assert (ctx.normal is None) == (kind == "no_normal")
        assert ctx.slice_degenerate == (kind == "slice_degenerate")
        cases.append((stats, s_theta, _scalar_args(ctx), reached))
    # No valid labels make a context without a normal whose slice is
    # degenerate (that needs 1 parallel to y), but the kernel takes one.
    stats, s_theta, args, _ = cases[-1]
    cases.append((stats, s_theta, args[:3] + (False,) + args[4:], {deg, ball}))

    for stats, s_theta, args, reached in cases:
        columns = (stats.dot_y, stats.dot_one, stats.sq_norm, stats.proj_y_norm, s_theta)
        m1, m2, br1, br2 = kernels.screen_bulk_numpy(*columns, *args)
        for sign, values, branches in ((1.0, m1, br1), (-1.0, m2, br2)):
            # fhat' y, fhat' 1 and theta1' fhat flip with the sign of fhat
            flip = np.array([sign, sign, 1.0, 1.0, sign])
            ref = [kernels.neg_min_scalar(*(flip * row), *args) for row in np.column_stack(columns)]
            np.testing.assert_array_equal(values, [v for v, _ in ref])
            np.testing.assert_array_equal(branches, [b for _, b in ref])
        assert set(np.concatenate([br1, br2]).tolist()) == reached


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


def test_kernel_bench_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
         "--n", "20", "--m", "50", "--repeat", "1"],
        check=True, env=env, capture_output=True, timeout=120,
    )


def test_active_dispatch_consistent(monkeypatch):
    if kernels.USING_NUMBA:
        assert kernels.screen_bulk is kernels.screen_bulk_numba
        assert kernels.sparse_matvec is kernels.csc_matvec_numba
        assert kernels.sparse_rmatvec is kernels.csc_rmatvec_numba
    else:
        assert kernels.screen_bulk is kernels.screen_bulk_numpy
        assert kernels.sparse_matvec is kernels.csc_matvec_numpy
        assert kernels.sparse_rmatvec is kernels.csc_rmatvec_numpy

    # The products run the active sparse kernel, with the column index,
    # without a block, and BLAS on the block alone when one is given.
    rng = np.random.default_rng(73)
    ds = random_dataset(rng, 9, 14, 0.3)
    assert ds.dense_block is None
    v, u = rng.normal(size=ds.n_features), rng.normal(size=ds.n_samples)
    csc = (ds.col_ptr, ds.row_idx, ds.values)
    cols = ds.column_index
    ref_v = kernels.sparse_matvec(*csc, v, ds.n_samples)
    ref_u = kernels.sparse_rmatvec(*csc, u)
    passed = []

    def recording(kernel):
        def run(*args, cols=None):
            passed.append(cols)
            return kernel(*args, cols=cols)

        return run

    monkeypatch.setattr(kernels, "sparse_matvec", recording(kernels.sparse_matvec))
    monkeypatch.setattr(kernels, "sparse_rmatvec", recording(kernels.sparse_rmatvec))
    for out, ref in (
        (kernels.csc_matvec(*csc, v, ds.n_samples, cols=cols), ref_v),
        (kernels.csc_rmatvec(*csc, u, cols=cols), ref_u),
        (ds.matvec(v), ref_v),
        (ds.rmatvec(u), ref_u),
    ):
        np.testing.assert_array_equal(out, ref)
    assert len(passed) == 4 and all(c is cols for c in passed)

    def unused(*args, **kwargs):
        raise AssertionError("sparse kernel called despite a dense block")

    monkeypatch.setattr(kernels, "sparse_matvec", unused)
    monkeypatch.setattr(kernels, "sparse_rmatvec", unused)
    block = np.asfortranarray(ds.to_dense())
    np.testing.assert_array_equal(kernels.csc_matvec(*csc, v, ds.n_samples, block=block), block @ v)
    np.testing.assert_array_equal(kernels.csc_rmatvec(*csc, u, block=block), u @ block)
