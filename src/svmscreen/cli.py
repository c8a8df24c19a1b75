"""Command line front end.

Subcommands
-----------
lambda-max  report the smallest penalty whose optimal model is all zeros
solve       fit one model at a fixed penalty
screen      safe feature elimination report for a penalty pair
path        regularization path with screening between steps
verify      cross-check closed-form screening bounds against brute force

Penalty flags accept an absolute number or a multiple of lambda_max in
``xMAX`` notation, e.g. ``--lambda2 0.5xMAX``.

Exit codes: 0 success, 1 input or parse failure, 2 invalid arguments or
data whose lambda_max is 0, 3 verification failure.
"""

import argparse
import json
import sys

import numpy as np

from . import oracle
from . import screening
from . import solver
from .data import DataFormatError, read_sparse_file
from .path import PathConfig, run_path
from .solver import SolverOptions

VERIFY_TOL = 1e-6


def penalty(text):
    """Parse 'NUM' or 'NUMxMAX' into (value, relative_to_lambda_max)."""
    if text.endswith("xMAX"):
        return float(text[: -len("xMAX")]), True
    return float(text), False


def _resolve(spec, lam_max):
    value, relative = spec
    return value * lam_max if relative else value


def _emit(text, output):
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn(text):
    print(f"warning: {text}", file=sys.stderr)


def _solver_options(args):
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _load_theta1(path, n_samples):
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    message = "theta1 file must hold a JSON array with one value per sample"
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):  # an object or a string, alone or in the array
        raise ValueError(message) from None
    # numpy reads JSON true and false as 1 and 0.
    if arr.ndim != 1 or arr.shape[0] != n_samples or any(isinstance(v, bool) for v in values):
        raise ValueError(message)
    return arr


def _theta_for(args, dataset, lam1, theta0):
    """Dual point at lam1: from file, theta0 at lambda_max, or a solve."""
    if args.theta1 is not None:
        return _load_theta1(args.theta1, dataset.n_samples)
    lam_max = dataset.lambda_max[0]
    if abs(lam1 - lam_max) <= 1e-12 * max(lam_max, 1.0):
        return theta0
    model = solver.solve_primal(dataset, lam1, options=_solver_options(args))
    if not model.converged:
        _warn("solver did not reach tolerance at lambda1; the screening bound may not be safe")
    return model.theta


def cmd_lambda_max(args):
    dataset = read_sparse_file(args.data)
    lam_max, bias, direction = dataset.lambda_max
    first = solver.first_features(direction)
    payload = {
        "lambda_max": lam_max,
        "bias": bias,
        "first_features": [int(j) + 1 for j in first],
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_solve(args):
    dataset = read_sparse_file(args.data)
    lam = _resolve(args.lam, dataset.lambda_max[0])
    model = solver.solve_primal(dataset, lam, options=_solver_options(args))
    _emit(solver.model_to_json(model, lam), args.output)
    if not model.converged:
        _warn(f"solver did not reach tolerance; KKT residual {model.kkt_residual:.3g}")
    return 0


def cmd_screen(args):
    dataset = read_sparse_file(args.data)
    theta0 = screening.theta_at_lambda_max(dataset)  # refuses lambda_max = 0 first
    lam_max = dataset.lambda_max[0]
    lam1 = _resolve(args.lambda1, lam_max)
    lam2 = _resolve(args.lambda2, lam_max)
    if lam2 >= lam1:
        raise ValueError("lambda2 must be < lambda1")
    theta1 = _theta_for(args, dataset, lam1, theta0)
    ctx = screening.build_context(theta1, lam1, lam2, dataset)
    report = screening.screen_all(ctx)
    _emit(report.to_json(), args.output)
    return 0


def cmd_path(args):
    dataset = read_sparse_file(args.data)
    cfg = PathConfig(
        grid_size=args.grid_size,
        ratio=args.ratio,
        solver=_solver_options(args),
        verify=args.verify,
        screen=args.screen,
    )
    report = run_path(dataset, cfg)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(text, args.output)
    unconverged = sum(not s.converged for s in report.steps)
    if unconverged:
        unchecked = "; their discards were not checked" if args.verify else ""
        _warn(f"{unconverged} of {len(report.steps)} steps did not reach tolerance{unchecked}")
    if args.verify and report.total_violations > 0:
        print(
            f"error: {report.total_violations} discarded features break their step's "
            "dual certificate |theta'fhat_j| <= 1",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_verify(args):
    dataset = read_sparse_file(args.data)
    theta0 = screening.theta_at_lambda_max(dataset)  # refuses lambda_max = 0 first
    lam_max = dataset.lambda_max[0]
    lam1 = _resolve(args.lambda1, lam_max)
    if args.lambda2 is not None:
        lam2_list = [_resolve(args.lambda2, lam_max)]
    else:
        lam2_list = [f * lam1 for f in (0.5, 0.8, 0.95)]
    theta1 = _theta_for(args, dataset, lam1, theta0)

    worst = {}
    counts = {}
    uncertified = 0
    total = 0
    for lam2 in lam2_list:
        ctx = screening.build_context(theta1, lam1, lam2, dataset)
        report = screening.screen_all(ctx)
        for j in range(dataset.n_features):
            rows, values = dataset.column(j)
            fhat = np.zeros(dataset.n_samples)
            fhat[rows] = dataset.labels[rows] * values
            for closed, branch, direction in (
                (report.m1[j], report.branch1[j], -fhat),
                (report.m2[j], report.branch2[j], fhat),
            ):
                ref = oracle.oracle_max(ctx, direction)
                if not ref.certified:
                    uncertified += 1
                gap = abs(closed - ref.value)  # inf or nan if either is not finite
                name = screening.Branch(int(branch)).name.lower()
                # np.maximum, unlike max, keeps a nan once it is seen.
                worst[name] = float(np.maximum(worst.get(name, 0.0), gap))
                counts[name] = counts.get(name, 0) + 1
                total += 1

    lines = [
        f"lambda1={lam1!r} lambda2_values={[round(v, 12) for v in lam2_list]} "
        f"features={dataset.n_features}"
    ]
    for name in sorted(worst):
        lines.append(
            f"branch {name}: {counts[name]} checks, max discrepancy {worst[name]:.3e}"
        )
    overall = float(np.max(list(worst.values()), initial=0.0))
    lines.append(f"overall max discrepancy {overall:.3e} over {total} checks")
    if uncertified:
        lines.append(f"{uncertified} brute-force evaluations failed self-certification")
    _emit("\n".join(lines), args.output)
    if not overall <= VERIFY_TOL or uncertified:  # a nan discrepancy fails too
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svmscreen",
        description="Safe feature screening for L1-regularized squared-hinge SVMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("data", help="training file, '<label> idx:val ...' per line")
        p.add_argument("--output", help="write the result to this file instead of stdout")

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=SolverOptions.tol, help="optimality tolerance")
        p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter, help="iteration cap")

    p = sub.add_parser("lambda-max", help="penalty above which the model is all zeros")
    add_common(p)
    p.set_defaults(func=cmd_lambda_max)

    p = sub.add_parser("solve", help="fit one model at a fixed penalty")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=penalty, required=True, help="penalty")
    add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("screen", help="report features that cannot be active")
    add_common(p)
    p.add_argument(
        "--lambda1",
        type=penalty,
        default=(1.0, True),
        help="reference penalty with a known dual point (default lambda_max)",
    )
    p.add_argument("--lambda2", type=penalty, required=True, help="target penalty")
    p.add_argument("--theta1", help="JSON array file with the dual point at lambda1")
    add_solver_flags(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("path", help="trace models along a decreasing penalty grid")
    add_common(p)
    p.add_argument(
        "--grid-size", type=int, default=PathConfig.grid_size, help="number of grid points"
    )
    p.add_argument("--ratio", type=float, default=PathConfig.ratio, help="geometric grid ratio")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check each step's discards against its dual point and count violations",
    )
    p.add_argument(
        "--no-screen",
        dest="screen",
        action="store_false",
        help="solve every step on all features (A/B baseline)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_solver_flags(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser(
        "verify", help="check both bounds of every feature against a brute-force oracle"
    )
    add_common(p)
    p.add_argument(
        "--lambda1",
        type=penalty,
        default=(1.0, True),
        help="reference penalty (default lambda_max)",
    )
    p.add_argument(
        "--lambda2",
        type=penalty,
        default=None,
        help="target penalty (default sweeps 0.5, 0.8, 0.95 of lambda1)",
    )
    p.add_argument("--theta1", help="JSON array file with the dual point at lambda1")
    add_solver_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
