"""Time the numpy kernels against their numba-compiled twins.

Builds one random screening problem, checks that both implementations of
every kernel agree on it, then reports median wall times and the speedup.
The CSC kernels get the per-entry column index, as a sparse Dataset passes
it.  The active implementation inside the library is chosen at import time
via the SVMSCREEN_JIT environment variable; this script always times both.

Usage:
    python3 benchmarks/bench_kernels.py --n 1000 --m 10000 --density 0.1
"""

import argparse
import time

import numpy as np

from svmscreen import (
    Dataset,
    build_context,
    compute_feature_stats,
    lambda_max,
    theta_at_lambda_max,
)
from svmscreen.kernels import IMPLEMENTATIONS, column_index
from svmscreen.screening import _scalar_args


def median_time(fn, args, kwargs, repeat):
    fn(*args, **kwargs)  # warm-up; compiles on the first call of a numba kernel
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def max_deviation(a, b):
    if isinstance(a, tuple):
        return max(max_deviation(x, y) for x, y in zip(a, b))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000, help="samples")
    parser.add_argument("--m", type=int, default=10_000, help="features")
    parser.add_argument("--density", type=float, default=0.1, help="nonzero fraction")
    parser.add_argument("--repeat", type=int, default=20, help="timed runs per kernel")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=(args.n, args.m))
    if args.density < 1.0:
        x[rng.random(size=x.shape) >= args.density] = 0.0
    y = np.where(rng.random(args.n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    ds = Dataset.from_dense(x, y)

    lam_cap, bias, _ = lambda_max(ds)
    theta1 = theta_at_lambda_max(ds, lam_cap, bias)
    ctx = build_context(theta1, lam_cap, 0.5 * lam_cap, ds)
    stats = compute_feature_stats(ds)
    s_theta = np.asarray(
        [float(np.dot(vals, (theta1.values * y)[idx])) for idx, vals in
         (ds.column(j) for j in range(ds.n_features))]
    )

    csc = (ds.col_ptr, ds.row_idx, ds.values)
    index = {"cols": column_index(ds.col_ptr)}
    calls = {
        "csc_matvec": ((*csc, rng.normal(size=args.m), args.n), index),
        "csc_rmatvec": ((*csc, rng.normal(size=args.n)), index),
        "feature_stats": ((*csc, y), index),
        "screen_bulk": (
            (stats.dot_y, stats.dot_one, stats.sq_norm, stats.proj_y_norm, s_theta,
             *_scalar_args(ctx)),
            {},
        ),
    }

    print(f"n={args.n} m={args.m} density={args.density} nnz={ds.values.size}")
    header = f"{'kernel':<16}{'numpy':>12}{'numba':>12}{'speedup':>10}{'max diff':>12}"
    print(header)
    print("-" * len(header))
    for name, (numpy_impl, numba_impl) in IMPLEMENTATIONS.items():
        call, kwargs = calls[name]
        t_numpy = median_time(numpy_impl, call, kwargs, args.repeat)
        if numba_impl is None:
            print(f"{name:<16}{t_numpy * 1e3:>10.3f}ms{'-':>12}{'-':>10}{'-':>12}")
            continue
        deviation = max_deviation(numpy_impl(*call, **kwargs), numba_impl(*call, **kwargs))
        t_numba = median_time(numba_impl, call, kwargs, args.repeat)
        print(
            f"{name:<16}{t_numpy * 1e3:>10.3f}ms{t_numba * 1e3:>10.3f}ms"
            f"{t_numpy / t_numba:>9.2f}x{deviation:>12.2e}"
        )


if __name__ == "__main__":
    main()
