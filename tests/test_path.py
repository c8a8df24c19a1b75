"""Path driver: grid handling, screening A/B equivalence, verify mode."""

import json
import time

import numpy as np
import pytest

from svmscreen import (
    Dataset,
    DegenerateProblemError,
    PathConfig,
    PathReport,
    SolverOptions,
    lambda_grid,
    lambda_max,
    run_path,
    theta_from_primal,
)
from svmscreen import screening, solver

from conftest import random_dataset


def test_lambda_grid_frozen_example():
    np.testing.assert_allclose(lambda_grid(2.0, 2, 0.5), [1.0, 0.5], atol=1e-15)


def test_lambda_grid_validation():
    with pytest.raises(ValueError, match="grid size must be at least 1"):
        lambda_grid(1.0, 0, 0.5)
    with pytest.raises(ValueError, match="ratio must lie strictly between 0 and 1"):
        lambda_grid(1.0, 3, 1.0)
    with pytest.raises(ValueError, match="ratio must lie strictly between 0 and 1"):
        lambda_grid(1.0, 3, 0.0)


def test_custom_grid_validation():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 6, 5)
    lam_cap, _, _ = lambda_max(ds)
    for lambdas, message in [
        ((), None),  # placeholder, empty tuple falls back to the geometric grid
        ((-1.0,), "positive and finite"),
        ((0.5 * lam_cap, 0.6 * lam_cap), "strictly decreasing"),
        ((2.0 * lam_cap,), "start below lambda_max"),
    ]:
        if message is None:
            continue
        with pytest.raises(ValueError, match=message):
            run_path(ds, PathConfig(lambdas=lambdas))


def test_degenerate_dataset_raises():
    ds = Dataset.from_dense(np.ones((3, 2)), [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateProblemError, match="lambda_max is zero"):
        run_path(ds)


def test_path_steps_follow_grid_and_chain():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 10, 25, density=0.7)
    lam_cap, bias0, _ = lambda_max(ds)
    report = run_path(ds, PathConfig(grid_size=5, ratio=0.7))
    assert report.lambda_max == pytest.approx(lam_cap)
    assert report.bias_at_lambda_max == pytest.approx(bias0)
    lams = [s.lam for s in report.steps]
    np.testing.assert_allclose(lams, lam_cap * 0.7 ** np.arange(1, 6), rtol=1e-12)
    for step in report.steps:
        assert step.converged
        assert step.trusted
        assert step.active <= step.kept
        assert step.kept_indices.size == step.kept
        assert step.weights.shape == (25,)
        # active features must be among the kept ones
        assert set(np.flatnonzero(step.weights).tolist()) <= set(
            step.kept_indices.tolist()
        )
        assert step.violations is None


def test_screened_path_matches_unscreened():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 10, 40, density=0.6)
    cfg = dict(grid_size=6, ratio=0.75, solver=SolverOptions(tol=1e-10))
    screened = run_path(ds, PathConfig(screen=True, **cfg))
    baseline = run_path(ds, PathConfig(screen=False, **cfg))
    for s, b in zip(screened.steps, baseline.steps):
        assert s.lam == b.lam
        assert b.kept == 40 and b.screen_ms == 0.0
        np.testing.assert_allclose(s.weights, b.weights, atol=1e-8)
        assert s.bias == pytest.approx(b.bias, abs=1e-8)
        assert s.objective == pytest.approx(b.objective, abs=1e-9)
        assert s.kept <= 40


def test_verify_mode_reports_zero_violations(monkeypatch):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 10, 50, density=0.8)
    screens = []
    screen_all = screening.screen_all

    def recorded(*args):
        screens.append(screen_all(*args))
        return screens[-1]

    monkeypatch.setattr(screening, "screen_all", recorded)
    report = run_path(
        ds,
        PathConfig(grid_size=6, ratio=0.8, verify=True, solver=SolverOptions(tol=1e-10)),
    )
    assert report.verify
    assert report.total_violations == 0
    for step in report.steps:
        assert step.violations == 0
        assert step.max_weight_diff is not None
        assert step.max_weight_diff <= 1e-8
        assert step.trusted
        assert step.kkt_residual <= 1e-10
    # The margin is the largest bound among the discarded features, below
    # the keep threshold on every step that discards any.
    assert len(screens) == len(report.steps)
    for step, screen in zip(report.steps, screens):
        discarded = np.setdiff1d(np.arange(ds.n_features), screen.kept)
        if discarded.size:
            assert step.margin == screen.bounds[discarded].max() < 1.0 - screening.EPS_KEEP
        else:
            assert step.margin is None
    assert any(s.margin is not None for s in report.steps)


def test_custom_grid_is_used_verbatim():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, 8, 12)
    lam_cap, _, _ = lambda_max(ds)
    grid = (0.9 * lam_cap, 0.5 * lam_cap, 0.1 * lam_cap)
    report = run_path(ds, PathConfig(lambdas=grid))
    assert [s.lam for s in report.steps] == [pytest.approx(v) for v in grid]


def test_unconverged_steps_are_flagged_not_fatal():
    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 12, 20, density=0.9)
    report = run_path(
        ds,
        PathConfig(grid_size=4, ratio=0.6, verify=True, solver=SolverOptions(max_iter=2)),
    )
    assert len(report.steps) == 4
    assert not any(s.converged for s in report.steps)
    # verification needs both solves converged, so no violation counts exist
    assert all(s.violations is None for s in report.steps)
    assert all(not s.trusted for s in report.steps[1:])
    assert report.total_violations == 0


def test_csv_and_json_serialization():
    rng = np.random.default_rng(23)
    ds = random_dataset(rng, 8, 15, density=0.7)
    report = run_path(ds, PathConfig(grid_size=3, ratio=0.5))
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "lambda,kept,active,violations,screen_ms,solve_ms,objective"
    assert lines[0] == PathReport.CSV_HEADER
    assert len(lines) == 4
    for line, step in zip(lines[1:], report.steps):
        fields = line.split(",")
        assert float(fields[0]) == step.lam
        assert int(fields[1]) == step.kept
        assert int(fields[2]) == step.active
        assert fields[3] == ""  # no verification ran
        assert float(fields[6]) == step.objective

    payload = json.loads(report.to_json())
    assert payload["lambda_max"] == report.lambda_max
    assert payload["verify"] is False
    assert len(payload["steps"]) == 3
    for entry, step in zip(payload["steps"], report.steps):
        assert entry["lambda"] == step.lam
        assert entry["kept"] == step.kept
        assert entry["converged"] is True
        assert entry["trusted"] is True
        assert entry["kkt_residual"] == step.kkt_residual <= 1e-9
        assert entry["finished"] is step.finished
        assert entry["margin"] == step.margin
        for name in ("passes", "backtracks", "restarts", "finish_attempts"):
            assert entry[name] == getattr(step, name)
        assert step.kept == 0 or step.passes > 0


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_lambda_max_pass_per_path(monkeypatch):
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, 12, 60, density=0.3)
    calls = _counting(monkeypatch, solver, "lambda_max")
    calls += _counting(monkeypatch, screening, "lambda_max")
    report = run_path(ds, PathConfig(grid_size=5, ratio=0.8))
    assert len(calls) == 1
    assert all(s.trusted for s in report.steps)


def test_spectral_bound_once_per_dataset(monkeypatch):
    # Tall and dense: screening keeps every feature, so every solve runs
    # on the same Dataset.
    rng = np.random.default_rng(37)
    ds = random_dataset(rng, 80, 4)
    calls = _counting(monkeypatch, solver, "_spectral_bound")
    report = run_path(ds, PathConfig(grid_size=4, ratio=0.5))
    assert all(s.kept == ds.n_features for s in report.steps)
    assert len(calls) == 1
    again = run_path(ds, PathConfig(grid_size=4, ratio=0.5))
    assert len(calls) == 1
    for s, t in zip(report.steps, again.steps):
        np.testing.assert_array_equal(s.weights, t.weights)


@pytest.mark.parametrize("density", [0.15, 1.0])
def test_next_theta_from_reduced_solve_matches_full_data(monkeypatch, density):
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, 15, 120, density=density)
    calls = _counting(monkeypatch, screening, "build_context")
    report = run_path(ds, PathConfig(grid_size=6, ratio=0.7))
    assert any(s.kept < ds.n_features for s in report.steps)
    assert len(calls) == len(report.steps)
    for step, (theta, *_) in zip(report.steps, calls[1:]):
        full = theta_from_primal(ds, step.weights, step.bias, step.lam)
        assert theta.lam == step.lam
        scale = np.max(np.abs(full.values))
        np.testing.assert_allclose(theta.values, full.values, rtol=0.0, atol=1e-12 * scale)


def test_screen_ms_covers_context_and_subset(monkeypatch):
    # Sleeps in build_context and in the subset of the kept columns must
    # land in screen_ms, and neither in solve_ms.
    context_s, subset_s = 0.05, 0.1

    def slowed(owner, name, seconds):
        original = getattr(owner, name)
        calls = []

        def slow(*args, **kwargs):
            calls.append(args)
            time.sleep(seconds)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, slow)
        return calls

    rng = np.random.default_rng(43)
    ds = random_dataset(rng, 15, 120, density=0.15)
    contexts = slowed(screening, "build_context", context_s)
    subsets = slowed(Dataset, "subset", subset_s)
    report = run_path(ds, PathConfig(grid_size=4, ratio=0.7))
    assert len(contexts) == len(report.steps)
    subset_steps = [0 < s.kept < ds.n_features for s in report.steps]
    assert sum(subset_steps) == len(subsets) > 0
    for step, subset in zip(report.steps, subset_steps):
        assert step.screen_ms >= 1000.0 * (context_s + subset * subset_s)
        assert step.solve_ms < 1000.0 * min(context_s, subset_s)
