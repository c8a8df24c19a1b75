"""The kernels, and the BLAS products on a Dataset's dense block, must
match dense arithmetic, column by column, to round-off, also on badly
scaled data; the bulk bound must equal the scalar reference exactly."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from svmscreen import Dataset, build_context
from svmscreen import kernels

from conftest import feasible_theta, random_dataset, random_labels


def test_csc_matvec_numpy_matches_dense():
    rng = np.random.default_rng(41)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)), 0.5)
        v = rng.normal(size=ds.n_features)
        out = kernels.csc_matvec(ds.col_ptr, ds.row_idx, ds.values, v, ds.n_samples)
        np.testing.assert_allclose(out, ds.to_dense() @ v, atol=1e-12)


def test_csc_rmatvec_numpy_matches_dense():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)), 0.5)
        u = rng.normal(size=ds.n_samples)
        out = kernels.csc_rmatvec(ds.col_ptr, ds.row_idx, ds.values, u)
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
    first; then one dataset stores no entries at all.  Last come nearly
    constant columns, c (1 + 1e-9 noise) for c from 1e-2 to 1e2, whose
    sq_norm - dot_y^2 / n would keep none of the digits of their centred
    norm: alone, with a dense block, and beside empty columns, without.
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
    y = random_labels(rng, 12)
    x = 10.0 ** np.arange(-2, 3) * (1.0 + 1e-9 * rng.normal(size=(12, 5)))
    near_constant = Dataset.from_dense(x, y)
    assert near_constant.dense_block is not None
    yield x, near_constant
    x = np.hstack([x, np.zeros((12, 10))])
    beside_empty = Dataset.from_dense(x, y)
    assert beside_empty.dense_block is None
    yield x, beside_empty


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
        for out in (kernels.csc_rmatvec(*csc, u), ds.rmatvec(u)):
            _assert_columns_close(out, ref, ax.T @ np.abs(u))
            assert np.all(out[empty] == 0.0)

        # X @ v row by row, each against its own magnitude
        v = rng.normal(size=ds.n_features)
        ref = _exact_column_sums((x * v).T)
        for out in (kernels.csc_matvec(*csc, v, ds.n_samples), ds.matvec(v)):
            _assert_columns_close(out, ref, ax @ np.abs(v))

        # on the stored entries, and on a Dataset storing every cell of x,
        # zeros too, which has a dense block
        every_cell = Dataset.from_columns([(np.arange(ds.n_samples), col) for col in x.T], y)
        assert every_cell.dense_block is not None
        for stats, sq_norm in (
            (kernels.feature_stats(ds.col_ptr, ds.row_idx, ds.values, y),
             kernels.column_sq_norms(ds.col_ptr, ds.values)),
            (every_cell.stats, every_cell.sq_norm),
        ):
            dot_y, dot_one, proj_y_norm = stats
            _assert_columns_close(dot_y, _exact_column_sums(x), ax.sum(axis=0))
            _assert_columns_close(dot_one, _exact_column_sums(fhat), ax.sum(axis=0))
            ref_sq = _exact_column_sums(x * x)
            _assert_columns_close(sq_norm, ref_sq, ref_sq)
            ref_proj = np.array([
                math.sqrt(math.fsum((v - math.fsum(col) / ds.n_samples) ** 2 for v in col))
                for col in x.T
            ])
            _assert_columns_close(proj_y_norm, ref_proj, ref_proj)
            for column in (*stats, sq_norm):
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
            (kernels.csc_matvec(*csc, v, ds.n_samples, cols=cols),
             kernels.csc_matvec(*csc, v, ds.n_samples)),
            (kernels.csc_rmatvec(*csc, u, cols=cols), kernels.csc_rmatvec(*csc, u)),
            *zip(kernels.feature_stats(*csc, ds.labels, cols=cols),
                 kernels.feature_stats(*csc, ds.labels)),
            (kernels.column_sq_norms(ds.col_ptr, ds.values, cols=cols),
             kernels.column_sq_norms(ds.col_ptr, ds.values)),
        ):
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, ref)


def _bound_inputs(kind, lam1=1.2, lam2=0.7):
    """(context, dataset, s_theta) of one kind of screening context.

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
    return ctx, ds, ds.rmatvec(theta1 * y)


def test_bulk_numpy_matches_scalar_reference():
    branch = kernels.Branch
    deg, beta, ball, corner = (
        branch.DEGENERATE_F, branch.BETA_ZERO, branch.ALPHA_ZERO, branch.INTERIOR_CORNER
    )
    cases = []
    for kind, reached in (
        ("generic", {deg, beta, ball, corner}),
        ("no_normal", {deg, ball}),
        ("slice_degenerate", {deg, beta, corner}),
    ):
        ctx, ds, s_theta = _bound_inputs(kind)
        assert ctx.has_normal == (kind != "no_normal")
        assert ctx.slice_degenerate == (kind == "slice_degenerate")
        cases.append((ctx, ds, s_theta, reached))
    # No valid labels make a context without a normal whose slice is
    # degenerate (that needs 1 parallel to y), but the kernel takes one.
    ctx, ds, s_theta, _ = cases[-1]
    cases.append((dataclasses.replace(ctx, has_normal=False), ds, s_theta, {deg, ball}))

    for ctx, ds, s_theta, reached in cases:
        dot_y, dot_one, proj_y_norm = ds.stats
        columns = (dot_y, dot_one, ds.sq_norm, proj_y_norm, s_theta)
        m1, m2, br1, br2 = kernels.screen_bulk(ctx, *columns)
        for sign, values, branches in ((1.0, m1, br1), (-1.0, m2, br2)):
            # fhat' y, fhat' 1 and theta1' fhat flip with the sign of fhat
            flip = np.array([sign, sign, 1.0, 1.0, sign])
            ref = [kernels.neg_min_scalar(ctx, *(flip * row)) for row in np.column_stack(columns)]
            np.testing.assert_array_equal(values, [v for v, _ in ref])
            np.testing.assert_array_equal(branches, [b for _, b in ref])
        assert set(np.concatenate([br1, br2]).tolist()) == reached


def test_active_dispatch_consistent(monkeypatch):
    # A sparse Dataset hands its cached column index, the very object, to
    # the products, which sum through it without rebuilding it and equal
    # the index-free results bit for bit.
    rng = np.random.default_rng(73)
    ds = random_dataset(rng, 9, 14, 0.3)
    assert ds.dense_block is None
    v, u = rng.normal(size=ds.n_features), rng.normal(size=ds.n_samples)
    csc = (ds.col_ptr, ds.row_idx, ds.values)
    ref_v = kernels.csc_matvec(*csc, v, ds.n_samples)
    ref_u = kernels.csc_rmatvec(*csc, u)
    cols = ds.column_index
    passed = []

    def recording(kernel):
        def run(*args, **kwargs):
            passed.append(kwargs["cols"])
            return kernel(*args, **kwargs)

        return run

    def unused(*args, **kwargs):
        raise AssertionError("column index rebuilt although one was passed")

    monkeypatch.setattr(kernels, "csc_matvec", recording(kernels.csc_matvec))
    monkeypatch.setattr(kernels, "csc_rmatvec", recording(kernels.csc_rmatvec))
    monkeypatch.setattr(kernels, "column_index", unused)
    np.testing.assert_array_equal(ds.matvec(v), ref_v)
    np.testing.assert_array_equal(ds.rmatvec(u), ref_u)
    assert len(passed) == 2 and all(c is cols for c in passed)
    monkeypatch.undo()

    # With a block only the BLAS product runs: the sparse sums raise, and
    # the CSC arrays passed beside it are scaled so that reading them
    # would show in the result.
    def no_sums(*args, **kwargs):
        raise AssertionError("sparse sum run despite a dense block")

    monkeypatch.setattr(kernels, "_sums_by", no_sums)
    block = np.asfortranarray(ds.to_dense())
    wrong = (ds.col_ptr, ds.row_idx, 2.0 * ds.values)
    np.testing.assert_array_equal(kernels.csc_matvec(*wrong, v, ds.n_samples, block=block), block @ v)
    np.testing.assert_array_equal(kernels.csc_rmatvec(*wrong, u, block=block), u @ block)
    dense = Dataset.from_dense(rng.normal(size=(6, 4)), random_labels(rng, 6))
    assert dense.dense_block is not None and dense.column_index is None
    v, u = rng.normal(size=4), rng.normal(size=6)
    np.testing.assert_array_equal(dense.matvec(v), dense.dense_block @ v)
    np.testing.assert_array_equal(dense.rmatvec(u), u @ dense.dense_block)


def test_import_loads_only_numpy_and_the_standard_library():
    # Any other package costs every process that imports svmscreen:
    # scipy.sparse alone adds ~21 MB of peak RSS.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy; before = set(sys.modules); import svmscreen; "
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "extra = sorted(tops - set(sys.stdlib_module_names) - {'svmscreen'}); "
        "assert not extra and 'scipy' not in sys.modules, extra"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
