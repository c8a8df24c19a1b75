"""Tests of the benchmark harness itself: inputs, correctness check, tracer.

Run from the repository root with ``python3 -m pytest pathbench``.
"""

import dataclasses
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import svmscreen  # noqa: E402
from check import report_problems  # noqa: E402
from tracer import Tracer, install, path_metrics, self_times_ns  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SMALL = dataclasses.replace(WORKLOADS["mid_path"], n=40, m=120, steps=4, instances=1)


@pytest.fixture(scope="module")
def small_path(tmp_path_factory):
    (path,) = write_inputs(SMALL, 3, tmp_path_factory.mktemp("inputs"))
    dataset = svmscreen.read_sparse_file(path)
    config = svmscreen.PathConfig(grid_size=SMALL.steps, ratio=SMALL.ratio)
    return dataset, config, svmscreen.run_path(dataset, config)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def contents(seed, name):
        (tmp_path / name).mkdir()
        return [p.read_bytes() for p in write_inputs(SMALL, seed, tmp_path / name)]

    first = contents(7, "a")
    assert first == contents(7, "b")
    assert first != contents(8, "c")


def test_unchanged_path_passes_every_step(small_path):
    dataset, config, report = small_path
    assert report_problems(svmscreen, dataset, report, config.solver.tol) == [[]] * SMALL.steps


def test_step_with_an_active_weight_zeroed_is_counted_as_failed(small_path):
    dataset, config, report = small_path
    target = max(range(len(report.steps)), key=lambda i: report.steps[i].active)
    step = report.steps[target]
    weights = step.weights.copy()
    weights[np.argmax(np.abs(weights))] = 0.0
    steps = list(report.steps)
    steps[target] = dataclasses.replace(step, weights=weights)
    corrupted = dataclasses.replace(report, steps=tuple(steps))

    problems = report_problems(svmscreen, dataset, corrupted, config.solver.tol)

    assert [i for i, p in enumerate(problems) if p] == [target]
    assert "KKT residual" in problems[target][0]


def test_self_times_sum_to_the_traced_wall_time(small_path):
    dataset, config, _ = small_path
    tracer = Tracer()
    tracer.run = "test"
    install(tracer)
    try:
        start = time.perf_counter_ns()
        svmscreen.path.run_path(dataset, config)
        wall = time.perf_counter_ns() - start
    finally:
        tracer.restore()
    spans = tracer.take()
    (root,) = [s for s in spans if s.parent is None]

    assert root.name == "path.run_path"
    assert sum(self_times_ns(spans).values()) == root.duration_ns
    assert 0 < root.duration_ns <= wall
    assert {s.run for s in spans} == {"test"}
    metrics = path_metrics(spans, dataset.values.size)
    assert metrics["solver.iterations"] > 0
    assert metrics["solver.lambda_max_calls"] == SMALL.steps + 1
    assert metrics["screening.untrusted_steps"] == 0


def test_restore_puts_the_program_back():
    original = svmscreen.path.run_path
    tracer = Tracer()
    install(tracer)
    assert svmscreen.path.run_path is not original
    tracer.restore()
    assert svmscreen.path.run_path is original


def test_a_missing_name_is_reported_as_absent():
    module = types.ModuleType("gone")
    tracer = Tracer()
    tracer.wrap(module, "removed_function", "gone.removed_function")
    assert tracer.absent == ["gone.removed_function"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide_top", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode != 0
    assert run.stdout == ""
