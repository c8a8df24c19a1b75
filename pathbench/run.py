"""Seeded regularization-path benchmark for svmscreen.

Generates a workload's sparse text inputs from the seed, parses them with
the program, then traces regularization paths through the public API for
``--seconds`` in a closed loop: one caller, one path at a time, no worker
threads.  Every path step is checked for correctness after its timing.
The last line of standard output is one JSON object with the metrics.

    python3 pathbench/run.py --workload wide_top --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced paths with paths traced through wrappers around each module
(see tracer.py) and reports the per-layer metrics; the spans are written
to ``.pathbench/trace-<workload>.jsonl``.  Run it from the
repository root; the program is imported from ``src/``.  The script
re-executes itself under PINNED_ENV before measuring anything.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: Environment of the measuring process.  run.py re-executes itself under it,
#: so it is in place before the interpreter and numpy start.
PINNED_ENV = {
    # Every BLAS/OpenMP pool single-threaded: one caller, no worker threads.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # glibc's malloc otherwise decides from the allocation history (which
    # even the length of argv changes) whether the kernels' large
    # temporaries come from fresh mmaps or a trimmed heap; the page faults
    # that follow doubled tall_dense path time in some runs and not in
    # others.  Keeping freed memory in the heap makes runs comparable.
    "MALLOC_MMAP_THRESHOLD_": "16777216",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
}
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples above the reported tail percentile

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".pathbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("wide_top", "mid_path", "tall_dense"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program(root):
    """Import svmscreen from ``root/src``, failing if the sources are not there."""
    src = root / "src"
    if not (src / "svmscreen" / "__init__.py").is_file():
        raise SystemExit(f"pathbench: no svmscreen sources under {src}")
    sys.path.insert(0, str(src))
    import svmscreen

    return svmscreen


def git_commit(root):
    """Commit id of a git checkout at ``root``, read from .git without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    from importlib import metadata, util

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba": util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def tail(samples):
    """(value, percentile, samples above) of the highest percentile with
    TAIL_BEYOND samples above it, or of the maximum when there are too few."""
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def main(argv=None):
    args = parse_args(argv)
    svmscreen = import_program(ROOT)

    from check import report_problems, same_path
    from tracer import LAYER_UNITS, Tracer, install, path_metrics
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=WORK))
    tracer = Tracer()
    try:
        paths = write_inputs(workload, args.seed, data_dir)

        setup_times, parse_times = [], []
        for repeat in range(SETUP_REPEATS):
            if args.trace:
                tracer.run = f"setup-{repeat}"
                install(tracer)
            start = time.perf_counter()
            datasets = [svmscreen.data.read_sparse_file(p) for p in paths]
            setup_times.append(time.perf_counter() - start)
            tracer.restore()
            parse_times.append(sum(s.duration_ns for s in tracer.take()) / 1e9)
    finally:
        shutil.rmtree(data_dir)

    config = svmscreen.PathConfig(grid_size=workload.steps, ratio=workload.ratio)
    tol = config.solver.tol
    # Untimed warm-up paths double as the references every timed path is
    # compared with; each reference step gets the full KKT check.
    references = [svmscreen.run_path(ds, config) for ds in datasets]
    verdicts = [report_problems(svmscreen, ds, ref, tol) for ds, ref in zip(datasets, references)]

    untraced, traced, layers, round_means = [], [], [], []
    attempted = failed = 0
    problems = []

    def timed_path(k, tracing):
        nonlocal attempted, failed
        if tracing:
            tracer.run = len(layers)
            install(tracer)
        start = time.perf_counter()
        report = svmscreen.path.run_path(datasets[k], config)
        elapsed = time.perf_counter() - start
        if tracing:
            tracer.restore()
            spans = tracer.take()
            layers.append(path_metrics(spans, datasets[k].values.size))
            tracer.write_jsonl(spans, spans_out)
        if same_path(report, references[k]):
            steps = verdicts[k]
        else:
            steps = report_problems(svmscreen, datasets[k], report, tol)
        attempted += len(steps)
        failed += sum(1 for p in steps if p)
        problems.extend(p for p in steps if p)
        return elapsed

    trace_file = WORK / f"trace-{args.workload}.jsonl"
    spans_out = open(trace_file, "w", encoding="utf-8") if args.trace else None
    try:
        # Whole rounds, each running every instance's path once, so every
        # instance weighs the same in the result.
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            times = []
            for k in range(len(datasets)):
                times.append(timed_path(k, tracing=False))
                if args.trace:
                    traced.append(timed_path(k, tracing=True))
            untraced.extend(times)
            round_means.append(statistics.fmean(times))
    finally:
        tracer.restore()
        if spans_out is not None:
            spans_out.close()

    env = environment(args.seed)
    kept = sum(s.kept for ref in references for s in ref.steps)
    active = sum(s.active for ref in references for s in ref.steps)
    kept_frac = statistics.fmean(
        s.kept / ds.n_features for ds, ref in zip(datasets, references) for s in ref.steps
    )
    tail_value, tail_pct, tail_beyond = tail(untraced)
    details = {
        "workload": workload.name,
        "instances": workload.instances,
        "rounds": len(round_means),
        "path_samples": len(untraced),
        "path_s_tail": tail_value,
        "tail_percentile": tail_pct,
        "rejection_rate": 1.0 - kept_frac,
        "fail_frac": failed / attempted,
        "problems": sorted({"; ".join(p) for p in problems}),
    }
    if args.trace:
        metrics = {
            name: (statistics.fmean(d[name] for d in layers), unit)
            for name, unit in LAYER_UNITS.items()
        }
        metrics["data.parse_s"] = (statistics.median(parse_times), "s")
        metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        traced_s = metrics["path.traced_s"][0]
        details["share_of_traced_path"] = {
            "solver.solve_s": metrics["solver.solve_s"][0] / traced_s,
            "screening+solver.theta_s": sum(
                metrics[name][0]
                for name in ("screening.build_context_s", "screening.screen_all_s", "solver.theta_s")
            ) / traced_s,
        }
        details["traced_paths"] = len(traced)
        details["absent"] = tracer.absent
        details["spans"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "path_s": (statistics.median(round_means), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "kept_frac": (kept_frac, "ratio"),
            "kept_per_active": (kept / active, "ratio"),
        }

    print(f"env {json.dumps(env)}")
    print(f"details {json.dumps(details)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(
            f"{'path_s_tail':32s} {tail_value:14.6g} s "
            f"(p{tail_pct:.0f} of {len(untraced)} paths, {tail_beyond} above it)"
        )
    print(f"{'rejection_rate':32s} {details['rejection_rate']:14.6g} ratio")
    print(f"{'fail_frac':32s} {details['fail_frac']:14.6g} ratio ({failed} of {attempted} steps failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "details": details, **result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
