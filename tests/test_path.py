"""Path driver: grid handling, screening A/B equivalence, verify mode."""

import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from svmscreen import kernels, screening, solver

from conftest import random_dataset, random_labels, unsafe_screening


def _drift(ds):
    """||P_y fhat_j|| * ||P_y 1|| per feature, computed from dense columns."""
    y = ds.labels

    def off_y(v):
        return v - np.outer(y, y @ v) / ds.n_samples

    fhat = y[:, None] * ds.to_dense()
    ones = np.ones((ds.n_samples, 1))
    return np.linalg.norm(off_y(fhat), axis=0) * np.linalg.norm(off_y(ones))


def _certified_bounds(ds, contexts):
    """Each step's certified bounds and evaluated count, replayed from
    screen_all on the recorded contexts and the drift lemma; for paths
    whose every step is trusted."""
    drift = _drift(ds)
    threshold = 1.0 - screening.EPS_KEEP
    # cert[j] bounds |theta*'fhat_j| where 1/lambda = inv[j].
    cert = np.full(ds.n_features, np.inf)
    inv = np.zeros(ds.n_features)
    replayed = []
    for ctx in contexts:
        fresh = screening.screen_all(ctx).bounds
        bounds = cert + drift * (1.0 / ctx.lambda2 - inv)
        stale = bounds >= threshold
        bounds[stale] = np.minimum(bounds, fresh)[stale]
        cert[stale] = bounds[stale]
        inv[stale] = 1.0 / ctx.lambda2
        replayed.append((bounds, int(stale.sum())))
    return replayed


def _recording_contexts(monkeypatch):
    contexts = []
    build_context = screening.build_context

    def recorded(*args, **kwargs):
        contexts.append(build_context(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(screening, "build_context", recorded)
    return contexts


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
        assert b.kept == 40 and b.screen_ms == 0.0 and b.evaluated == 0
        np.testing.assert_allclose(s.weights, b.weights, atol=1e-8)
        assert s.bias == pytest.approx(b.bias, abs=1e-8)
        assert s.objective == pytest.approx(b.objective, abs=1e-9)
        assert s.kept <= 40


def test_verify_mode_reports_zero_violations(monkeypatch):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 10, 50, density=0.8)
    contexts = _recording_contexts(monkeypatch)
    report = run_path(
        ds,
        PathConfig(grid_size=6, ratio=0.8, verify=True, solver=SolverOptions(tol=1e-10)),
    )
    assert report.verify
    assert report.total_violations == 0
    for step in report.steps:
        assert step.violations == 0
        assert step.trusted
        assert step.kkt_residual <= 1e-10
    # The margin is the largest certified bound among the discarded
    # features, below the keep threshold on every step that discards any.
    assert len(contexts) == len(report.steps)
    for step, (bounds, evaluated) in zip(report.steps, _certified_bounds(ds, contexts)):
        assert step.evaluated == evaluated
        discarded = np.setdiff1d(np.arange(ds.n_features), step.kept_indices)
        np.testing.assert_array_equal(discarded, np.flatnonzero(bounds < 1.0 - screening.EPS_KEEP))
        if discarded.size:
            assert step.margin == pytest.approx(bounds[discarded].max(), rel=1e-12)
            assert step.margin < 1.0 - screening.EPS_KEEP
            # The certified bound holds at the step's own dual point.
            assert step.discarded_corr <= step.margin + 1e-8
        else:
            assert step.margin is None
            assert step.discarded_corr is None
    assert any(s.margin is not None for s in report.steps)
    assert any(s.evaluated < ds.n_features for s in report.steps)


def test_verify_solves_once_per_step(monkeypatch):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 10, 50, density=0.8)
    calls = _counting(monkeypatch, solver, "solve_primal")
    report = run_path(ds, PathConfig(grid_size=6, ratio=0.8, verify=True))
    assert any(s.kept < ds.n_features for s in report.steps)
    assert all(s.violations == 0 for s in report.steps)
    assert len(calls) <= len(report.steps)


def test_verify_catches_an_unsafe_discard(monkeypatch):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 10, 50, density=0.8)
    config = PathConfig(grid_size=6, ratio=0.8, verify=True, solver=SolverOptions(tol=1e-10))
    reference = run_path(ds, dataclasses.replace(config, screen=False))
    unsafe_screening(monkeypatch)
    report = run_path(ds, config)
    affected = 0
    for step, ref in zip(report.steps, reference.steps):
        assert step.converged
        discarded = np.ones(ds.n_features, dtype=bool)
        discarded[step.kept_indices] = False
        if np.any(ref.weights[discarded] != 0.0):
            affected += 1
            assert step.violations > 0
            assert step.discarded_corr > 1.0
    assert affected > 0
    assert report.total_violations > 0


def test_a_region_that_keeps_nothing_is_distrusted(monkeypatch):
    # Below lambda_max a correct region keeps at least one feature.  With
    # every bound reported as 0 each step distrusts its region and keeps
    # every feature, so it solves exactly what an unscreened path solves.
    rng = np.random.default_rng(29)
    ds = random_dataset(rng, 10, 20)
    m = ds.n_features
    config = PathConfig(grid_size=3, ratio=0.8, verify=True)
    reference = run_path(ds, dataclasses.replace(config, screen=False))
    screen_all = screening.screen_all

    def discard_all(*args, **kwargs):
        report = screen_all(*args, **kwargs)
        return dataclasses.replace(report, bounds=np.zeros_like(report.bounds))

    monkeypatch.setattr(screening, "screen_all", discard_all)
    report = run_path(ds, config)
    for step, ref in zip(report.steps, reference.steps, strict=True):
        assert step.kept == m and step.converged and not step.trusted
        assert step.margin is None and step.violations == 0
        np.testing.assert_array_equal(step.weights, ref.weights)
        assert step.bias == ref.bias


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
        assert entry["evaluated"] == step.evaluated
        assert entry["violations"] is entry["discarded_corr"] is None
        # The step's model fields, as model_to_json writes them.
        for name in solver.JSON_FIELDS:
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
    # One lambda_max pass per path, and one statistics pass per Dataset
    # however many paths and screens read it.
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, 12, 60, density=0.3)
    calls = _counting(monkeypatch, solver, "lambda_max")
    context_calls = _counting(monkeypatch, screening, "lambda_max")
    stats_calls = _counting(monkeypatch, kernels, "feature_stats")
    report = run_path(ds, PathConfig(grid_size=5, ratio=0.8))
    assert len(calls) + len(context_calls) == 1
    assert all(s.trusted for s in report.steps)
    run_path(ds, PathConfig(grid_size=3, ratio=0.5))
    assert len(calls) + len(context_calls) == 2
    step = report.steps[-1]
    screening.screen_all(screening.build_context(step.theta, step.lam, 0.5 * step.lam, ds))
    assert len(stats_calls) == 1


@pytest.mark.parametrize("density", [0.15, 1.0])
def test_next_theta_from_reduced_solve_matches_full_data(monkeypatch, density):
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, 15, 120, density=density)
    calls = _counting(monkeypatch, screening, "build_context")
    recomputed = _counting(monkeypatch, solver, "theta_from_primal")
    report = run_path(ds, PathConfig(grid_size=6, ratio=0.7))
    # Each step's dual point is the solve's own, not a fresh product.
    assert recomputed == []
    assert any(s.kept < ds.n_features for s in report.steps)
    assert len(calls) == len(report.steps)
    for step, (theta, *_) in zip(report.steps, calls[1:]):
        full = theta_from_primal(ds, step.weights, step.bias, step.lam)
        assert theta.lam == step.lam
        scale = np.max(np.abs(full.values))
        np.testing.assert_allclose(theta.values, full.values, rtol=0.0, atol=1e-12 * scale)


def test_screen_ms_covers_context_and_subset(monkeypatch):
    # Sleeps in build_context, in the bounds of the re-evaluated features
    # and in the subset of the kept columns must land in screen_ms, and
    # none in solve_ms.  Every screened step makes one screen_all call.
    context_s, bounds_s, subset_s = 0.05, 0.05, 0.1

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
    m = ds.n_features
    contexts = slowed(screening, "build_context", context_s)
    screens = slowed(screening, "screen_all", bounds_s)
    subsets = slowed(Dataset, "subset", subset_s)
    report = run_path(ds, PathConfig(grid_size=4, ratio=0.7))
    assert len(contexts) == len(screens) == len(report.steps)
    # Only the kept columns become a subset; the column-restricted product
    # behind screen_all reads the stored columns in place.
    subset_steps = [0 < s.kept < m for s in report.steps]
    assert sum(subset_steps) == len(subsets) > 0
    assert any(s.evaluated < m for s in report.steps)
    for step, subset in zip(report.steps, subset_steps):
        assert step.screen_ms >= 1000.0 * (context_s + bounds_s + subset * subset_s)
        assert step.solve_ms < 1000.0 * min(context_s, bounds_s, subset_s)


def _instance(seed, n, m, p_positive, scaled):
    """Sparse-ish normal data; ``scaled`` multiplies one column by 1e3."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    x[rng.random(size=x.shape) >= 0.4] = 0.0
    x[:, 0] = rng.normal(size=n)
    if scaled:
        x[:, 0] *= 1e3
    return Dataset.from_dense(x, random_labels(rng, n, p_positive))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    p_positive=st.sampled_from([0.5, 0.2]),
    scaled=st.booleans(),
    frac1=st.floats(0.2, 0.99),
    ratio=st.floats(0.3, 0.99),
)
def test_dual_point_moves_at_most_the_projected_drift(seed, p_positive, scaled, frac1, ratio):
    # ||theta*(l2) - theta*(l1)|| <= ||P_y 1|| (1/l2 - 1/l1), the lemma the
    # carried certificates rest on, checked between two tight full solves.
    ds = _instance(seed, 14, 30, p_positive, scaled)
    lam_cap, _, _ = lambda_max(ds)
    lam1 = frac1 * lam_cap
    lam2 = ratio * lam1
    thetas = []
    for lam in (lam1, lam2):
        model = solver.solve_primal(ds, lam, options=SolverOptions(tol=1e-12))
        assert model.converged
        thetas.append(theta_from_primal(ds, model.weights, model.bias, lam).values)
    y = ds.labels
    r = np.linalg.norm(1.0 - (y.sum() / ds.n_samples) * y)
    assert r == pytest.approx(2.0 * np.sqrt(ds.n_pos * ds.n_neg / ds.n_samples), rel=1e-12)
    allowed = r * (1.0 / lam2 - 1.0 / lam1)
    assert np.linalg.norm(thetas[1] - thetas[0]) <= allowed * (1.0 + 1e-9)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    p_positive=st.sampled_from([0.5, 0.2]),
    scaled=st.booleans(),
    ratio=st.floats(0.95, 0.99),
    steps=st.integers(20, 40),
)
def test_fine_grid_certificates_are_safe(seed, p_positive, scaled, ratio, steps):
    # Long fine grids are where carried certificates live longest.
    ds = _instance(seed, 16, 60, p_positive, scaled)
    with pytest.MonkeyPatch.context() as patch:
        contexts = _recording_contexts(patch)
        report = run_path(
            ds,
            PathConfig(grid_size=steps, ratio=ratio, verify=True, solver=SolverOptions(tol=1e-11)),
        )
    assert report.total_violations == 0
    assert all(s.violations == 0 and s.trusted for s in report.steps)
    assert any(s.evaluated < ds.n_features for s in report.steps)
    for step, ctx, (bounds, evaluated) in zip(report.steps, contexts, _certified_bounds(ds, contexts)):
        # The per-step rule from the same anchor keeps a superset.
        per_step = screening.screen_all(ctx).kept
        assert set(step.kept_indices.tolist()) <= set(per_step.tolist())
        assert step.evaluated == evaluated
        np.testing.assert_array_equal(
            step.kept_indices, np.flatnonzero(bounds >= 1.0 - screening.EPS_KEEP)
        )
        # Every certified bound holds for the dual point at this lambda.
        theta = theta_from_primal(ds, step.weights, step.bias, step.lam).values
        true = np.abs(ds.rmatvec(theta * ds.labels))
        assert np.all(bounds >= true - 1e-9)
        # Below lambda_max the optimum has a feature with |theta'fhat_j| = 1,
        # so every step keeps at least that one.
        assert np.argmax(true) in step.kept_indices


@pytest.mark.parametrize("fault", ["unconverged solve", "infeasible theta"])
def test_untrusted_step_clears_certificates(monkeypatch, fault):
    rng = np.random.default_rng(47)
    ds = random_dataset(rng, 15, 120, density=0.15)
    m = ds.n_features
    config = PathConfig(grid_size=8, ratio=0.9)
    clean = run_path(ds, config)
    assert all(s.evaluated < m for s in clean.steps[1:])

    if fault == "unconverged solve":
        # The solve of step 3 reports failure, so step 4 is untrusted.
        solve_primal, solves = solver.solve_primal, []

        def flagged(*args, **kwargs):
            model = solve_primal(*args, **kwargs)
            solves.append(model)
            return dataclasses.replace(model, converged=len(solves) != 3)

        monkeypatch.setattr(solver, "solve_primal", flagged)
    else:
        # Step 4 cannot build its screening region and keeps everything.
        build_context, contexts = screening.build_context, []

        def failing(*args, **kwargs):
            contexts.append(args)
            if len(contexts) == 4:
                raise ValueError("theta1 infeasible")
            return build_context(*args, **kwargs)

        monkeypatch.setattr(screening, "build_context", failing)
    report = run_path(ds, config)
    evaluated = [s.evaluated for s in report.steps]
    # Step 4 screens nothing: it keeps every feature and evaluates none.
    assert not report.steps[3].trusted and report.steps[3].kept == m
    assert evaluated[3] == 0
    assert evaluated[4] == m  # no certificate survives an untrusted step
    assert all(e < m for e in evaluated[5:])
    assert all(s.trusted for i, s in enumerate(report.steps) if i != 3)
