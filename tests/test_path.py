"""Path driver: grid handling, screening A/B equivalence, verify mode."""

import dataclasses
import functools
import itertools
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
    run_path,
    theta_from_primal,
)
from svmscreen import kernels, screening, solver

from conftest import (
    random_dataset,
    random_labels,
    reported_bounds,
    skewed_dataset,
    unsafe_screening,
)


def _drift(ds):
    """||P_y fhat_j|| * ||P_y 1|| per feature, computed from dense columns."""
    y = ds.labels

    def off_y(v):
        return v - np.outer(y, y @ v) / ds.n_samples

    fhat = y[:, None] * ds.to_dense()
    ones = np.ones((ds.n_samples, 1))
    return np.linalg.norm(off_y(fhat), axis=0) * np.linalg.norm(off_y(ones))


def _certified_bounds(ds, contexts, seeded=True):
    """Each step's certified bounds and evaluated count, replayed from
    screen_all on the recorded contexts and the drift lemma; for paths
    whose every step is trusted.  Seeded, the replay starts from the exact
    dual point theta0 at lambda_max; unseeded, from no certificate."""
    drift = _drift(ds)
    threshold = 1.0 - screening.EPS_KEEP
    # cert[j] bounds |theta*'fhat_j| where 1/lambda = inv[j].
    theta0 = screening.theta_at_lambda_max(ds)
    if seeded:
        cert = np.abs((ds.labels[:, None] * ds.to_dense()).T @ theta0)
    else:
        cert = np.full(ds.n_features, np.inf)
    inv = np.full(ds.n_features, 1.0 / ds.lambda_max[0])
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
    with pytest.raises(ValueError, match="ratio must be positive and finite"):
        lambda_grid(1.0, 3, 0.0)
    # A size counts steps: 2.5 would round up to 3 values.
    for k in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            lambda_grid(1.0, k, 0.5)
    assert lambda_grid(1.0, np.int64(3), 0.5).size == 3
    ds = random_dataset(np.random.default_rng(5), 6, 5)
    with pytest.raises(ValueError, match="grid size must be an integer"):
        run_path(ds, PathConfig(grid_size=2.5))


@pytest.mark.parametrize(
    "size, ratio",
    [
        (1100, 0.5),  # reaches 0
        (7049, 0.9),  # positive to the end, but subnormal values stop falling
        (2, 1e-160),  # strictly falling, but the last value is subnormal
    ],
)
def test_an_underflowing_grid_is_refused(size, ratio):
    # Refused before any solve: at a subnormal penalty 1/lambda overflows,
    # and a solve there runs to max_iter without converging.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"path grid underflows: {size} steps"):
        lambda_grid(1.0, size, ratio)
    ds = random_dataset(np.random.default_rng(3), 6, 5)
    with pytest.raises(ValueError, match="path grid underflows"):
        run_path(ds, PathConfig(grid_size=size, ratio=ratio))
    assert time.perf_counter() - start < 1.0
    # Half as many steps stay normal floats and strictly decreasing.
    grid = lambda_grid(1.0, size // 2, ratio)
    assert grid[-1] >= np.finfo(np.float64).tiny and np.all(np.diff(grid) < 0.0)


def test_degenerate_dataset_raises():
    ds = Dataset.from_dense(np.ones((3, 2)), [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateProblemError, match="lambda_max is zero"):
        run_path(ds)


def test_path_steps_follow_grid_and_chain():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 10, 25, density=0.7)
    lam_cap, bias0, _ = ds.lambda_max
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


def _labelled(rng, n, m, density, planted):
    """n x m normal data, ``density`` of it stored; the labels follow three
    dense planted features, or are coin flips."""
    x = rng.standard_normal((n, m))
    if density < 1.0:
        x *= rng.random((n, m)) < density
    if planted:
        x[:, :3] = rng.standard_normal((n, 3))
        score = x[:, :3] @ [1.0, -1.0, 0.5] + 0.3 * rng.standard_normal(n)
    else:
        score = rng.standard_normal(n)
    return Dataset.from_dense(x, np.where(score > 0, 1.0, -1.0))


def _planted():
    """40 x 60 sparse data whose labels follow three dense features."""
    return _labelled(np.random.default_rng(7), 40, 60, 0.2, True)


def test_certificates_start_from_the_dual_point_at_lambda_max(monkeypatch):
    # theta0 is the exact dual optimum at lambda_max, and theta0'fhat_j =
    # direction_j / lambda_max, so every feature starts certified at no
    # product.  On planted data the seeded path keeps what the rule that
    # starts from no certificate keeps, and evaluates fewer bounds.
    ds = _planted()
    lam_cap, _, direction = ds.lambda_max
    theta0 = screening.theta_at_lambda_max(ds)
    corr = ds.rmatvec(theta0 * ds.labels)
    np.testing.assert_allclose(np.abs(direction) / lam_cap, np.abs(corr), rtol=0.0, atol=1e-12)

    contexts = _recording_contexts(monkeypatch)
    report = run_path(ds, PathConfig(grid_size=8, ratio=0.85, verify=True))
    assert all(s.trusted and s.violations == 0 for s in report.steps)
    unseeded = _certified_bounds(ds, contexts, seeded=False)
    for step, (bounds, _) in zip(report.steps, unseeded):
        np.testing.assert_array_equal(
            step.kept_indices, np.flatnonzero(bounds >= 1.0 - screening.EPS_KEEP)
        )
    assert unseeded[0][1] == ds.n_features
    assert report.steps[0].evaluated < ds.n_features
    assert sum(s.evaluated for s in report.steps) < sum(e for _, e in unseeded)


def test_secant_start_is_the_optimum_on_one_linear_piece(monkeypatch):
    # On one pattern (margin rows, support and signs) the optimum is affine
    # in lambda, so the line through two steps' models meets the next
    # step's optimum when all three share the pattern, and its solve only
    # has to certify it.
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 40, 12, density=0.7)
    starts, solve_primal = [], solver.solve_primal

    def solve(reduced, lam, options=None, warm=None):
        starts.append(warm)
        return solve_primal(reduced, lam, options=options, warm=warm)

    monkeypatch.setattr(solver, "solve_primal", solve)
    steps = run_path(ds, PathConfig(grid_size=30, ratio=0.9)).steps
    patterns = [
        (s.theta > 0.0).tobytes() + np.sign(s.weights).tobytes() for s in steps
    ]
    on_one_piece = [
        i for i in range(2, len(steps)) if patterns[i - 2] == patterns[i - 1] == patterns[i]
    ]
    assert on_one_piece
    for i in on_one_piece:
        step = steps[i]
        w, b = starts[i]
        scale = max(1.0, float(np.max(np.abs(step.weights))))
        np.testing.assert_allclose(
            w, step.weights[step.kept_indices], rtol=0.0, atol=1e-12 * scale
        )
        assert b == pytest.approx(step.bias, rel=0.0, abs=1e-12 * scale)
        assert step.finished and step.iterations == 1


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
        return reported_bounds(report, np.zeros_like(report.bounds))

    monkeypatch.setattr(screening, "screen_all", discard_all)
    report = run_path(ds, config)
    for step, ref in zip(report.steps, reference.steps, strict=True):
        assert step.kept == m and step.converged and not step.trusted
        assert step.margin is None and step.violations == 0
        np.testing.assert_array_equal(step.weights, ref.weights)
        assert step.bias == ref.bias
    # A region that keeps nothing does not end screening: each step after
    # the first evaluates every feature afresh.
    assert all(s.evaluated == m for s in report.steps[1:])


def _tall_coin():
    """300 x 20 dense data with coin-flip labels, drawn as CI draws its file."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 20))
    rng.standard_normal(300)  # the planted file's label noise
    return Dataset.from_dense(x, np.where(rng.standard_normal(300) > 0, 1.0, -1.0))


def test_a_region_that_keeps_every_feature_ends_screening(monkeypatch):
    # The first region keeps all 20 features.  Keeping a feature is always
    # safe, so every later step skips the region and solves what an
    # unscreened path solves, bit for bit.
    ds = _tall_coin()
    m = ds.n_features
    config = PathConfig(grid_size=6, ratio=0.4, verify=True)
    contexts = _recording_contexts(monkeypatch)
    report = run_path(ds, config)
    assert len(contexts) == 1
    first = report.steps[0]
    assert first.trusted and first.kept == m and first.evaluated > 0 and first.screen_ms > 0.0
    for step in report.steps[1:]:
        assert step.kept == m and step.evaluated == 0 and step.screen_ms == 0.0
        assert step.margin is None and step.trusted and step.violations == 0
    full = run_path(ds, dataclasses.replace(config, screen=False))
    for step, ref in zip(report.steps, full.steps, strict=True):
        assert step.weights.tobytes() == ref.weights.tobytes()
        assert (step.bias, step.iterations, step.passes) == (ref.bias, ref.iterations, ref.passes)


@pytest.mark.parametrize("fault", ["unconverged solve", "infeasible theta"])
def test_an_untrusted_step_does_not_end_screening(monkeypatch, fault):
    # An untrusted step keeps every feature without a region, which is no
    # reason to stop: the step after it screens every feature afresh, and
    # screening ends only once a trusted region keeps them all.
    if fault == "unconverged solve":
        # The first solve reports failure, so step 2 is untrusted.
        ds, untrusted = _planted(), 1
        solve_primal, solves = solver.solve_primal, []

        def flagged(*args, **kwargs):
            solves.append(solve_primal(*args, **kwargs))
            return dataclasses.replace(solves[-1], converged=len(solves) != 1)

        monkeypatch.setattr(solver, "solve_primal", flagged)
    else:
        # Step 1 cannot build the region that would keep every feature.
        ds, untrusted = _tall_coin(), 0
        build_context, contexts = screening.build_context, []

        def failing(*args, **kwargs):
            contexts.append(args)
            if len(contexts) == 1:
                raise ValueError("theta1 infeasible")
            return build_context(*args, **kwargs)

        monkeypatch.setattr(screening, "build_context", failing)
    m = ds.n_features
    steps = run_path(ds, PathConfig(grid_size=6, ratio=0.4)).steps
    assert [s.trusted for s in steps] == [i != untrusted for i in range(6)]
    assert steps[untrusted].kept == m and steps[untrusted].evaluated == 0
    assert steps[untrusted + 1].evaluated == m
    stop = next(i for i, s in enumerate(steps) if i > untrusted and s.kept == m)
    assert all(s.evaluated > 0 and s.screen_ms > 0.0 for s in steps[untrusted + 1 : stop + 1])
    assert all(s.evaluated == 0 and s.screen_ms == 0.0 for s in steps[stop + 1 :])
    assert stop + 1 < len(steps)


def test_unconverged_steps_are_flagged_not_fatal():
    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 12, 20, density=0.9)
    report = run_path(
        ds,
        PathConfig(grid_size=4, ratio=0.6, verify=True, solver=SolverOptions(max_iter=1)),
    )
    assert len(report.steps) == 4
    assert not any(s.converged for s in report.steps)
    # verification needs both solves converged, so no violation counts exist
    assert all(s.violations is None for s in report.steps)
    assert all(not s.trusted for s in report.steps[1:])
    assert report.total_violations == 0

    # At two iterations the first step's finish drops the weights that
    # leave their signs and certifies the optimum, so the step after it
    # screens; that one and the rest stop short, unverified and flagged.
    report = run_path(
        ds,
        PathConfig(grid_size=4, ratio=0.6, verify=True, solver=SolverOptions(max_iter=2)),
    )
    assert [(s.converged, s.finished) for s in report.steps] == [(True, True)] + [(False, False)] * 3
    assert report.steps[0].violations == 0
    assert all(s.violations is None for s in report.steps[1:])
    assert [s.trusted for s in report.steps] == [True, True, False, False]
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


def _count_builds(monkeypatch, name):
    """The Datasets that build their cached property ``name``."""
    builds = []
    build = getattr(Dataset, name).func

    def counted(self):
        builds.append(self)
        return build(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Dataset, name)
    monkeypatch.setattr(Dataset, name, prop)
    return builds


def test_one_lambda_max_pass_per_path(monkeypatch):
    # One lambda_max product per Dataset, however many paths and contexts
    # read it: the first use builds Dataset.lambda_max, a second path and
    # build_context build none.  One statistics pass per Dataset however
    # many paths and screens read it.
    rng = np.random.default_rng(31)
    fresh = random_dataset(rng, 12, 60, density=0.3)
    products = _counting(monkeypatch, Dataset, "rmatvec")
    assert fresh.lambda_max is fresh.lambda_max
    assert len(products) == 1
    monkeypatch.undo()

    ds = random_dataset(rng, 12, 60, density=0.3)
    builds = _count_builds(monkeypatch, "lambda_max")
    stats_calls = _counting(monkeypatch, kernels, "feature_stats")
    # The solver reads its column metric from sq_norm: every reduced
    # Dataset arrives holding the parent's, handed down by subset.
    solve_primal, arrived_with_norms = solver.solve_primal, []

    def solve(reduced, *args, **kwargs):
        arrived_with_norms.append("sq_norm" in reduced.__dict__)
        return solve_primal(reduced, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_primal", solve)
    report = run_path(ds, PathConfig(grid_size=5, ratio=0.8))
    assert builds == [ds]
    assert all(s.trusted for s in report.steps)
    assert any(s.kept < ds.n_features for s in report.steps)
    assert len(stats_calls) == 1
    assert len(arrived_with_norms) == 5 and all(arrived_with_norms)
    run_path(ds, PathConfig(grid_size=3, ratio=0.5))
    assert builds == [ds]
    step = report.steps[-1]
    products = _counting(monkeypatch, Dataset, "rmatvec")
    ctx = screening.build_context(step.theta, step.lam, 0.5 * step.lam, ds)
    assert products == [] and builds == [ds]
    screening.screen_all(ctx)
    assert len(stats_calls) == 1


def test_an_unscreened_path_builds_no_screening_state(monkeypatch):
    # screen=False makes no statistics pass, and its steps equal bit for
    # bit those of the same path on a Dataset whose statistics exist.
    rng = np.random.default_rng(37)
    x = rng.normal(size=(12, 60)) * (rng.random(size=(12, 60)) < 0.3)
    y = random_labels(rng, 12)
    config = PathConfig(grid_size=5, ratio=0.7, screen=False)
    fresh, built = Dataset.from_dense(x, y), Dataset.from_dense(x, y)
    built.stats
    stats_calls = _counting(monkeypatch, kernels, "feature_stats")
    report = run_path(fresh, config)
    assert stats_calls == [] and "stats" not in fresh.__dict__
    reference = run_path(built, config)
    for step, ref in zip(report.steps, reference.steps, strict=True):
        for f in dataclasses.fields(step):
            got, want = getattr(step, f.name), getattr(ref, f.name)
            if isinstance(got, np.ndarray):
                got, want = got.tobytes(), want.tobytes()
            if f.name not in ("screen_ms", "solve_ms"):
                assert type(got) is type(want) and got == want, f.name


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
    for step, (theta, lam1, *_) in zip(report.steps, calls[1:]):
        full = theta_from_primal(ds, step.weights, step.bias, step.lam)
        assert lam1 == step.lam
        scale = np.max(np.abs(full))
        np.testing.assert_allclose(theta, full, rtol=0.0, atol=1e-12 * scale)


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


def test_an_unchanged_kept_set_reuses_its_subset(monkeypatch):
    # A step that keeps the features of the last subset made solves on that
    # subset again; only a changed kept set is copied out.
    ds = _planted()
    m = ds.n_features
    subsets = _counting(monkeypatch, Dataset, "subset")
    report = run_path(ds, PathConfig(grid_size=20, ratio=0.95))
    last, changes = None, 0
    for step in report.steps:
        if 0 < step.kept < m and (last is None or not np.array_equal(step.kept_indices, last)):
            last, changes = step.kept_indices, changes + 1
    assert len(subsets) == changes < sum(0 < s.kept < m for s in report.steps)


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
    lam_cap, _, _ = ds.lambda_max
    lam1 = frac1 * lam_cap
    lam2 = ratio * lam1
    thetas = []
    for lam in (lam1, lam2):
        model = solver.solve_primal(ds, lam, options=SolverOptions(tol=1e-12))
        assert model.converged
        thetas.append(theta_from_primal(ds, model.weights, model.bias, lam))
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
        theta = theta_from_primal(ds, step.weights, step.bias, step.lam)
        true = np.abs(ds.rmatvec(theta * ds.labels))
        assert np.all(bounds >= true - 1e-9)
        # Below lambda_max the optimum has a feature with |theta'fhat_j| = 1,
        # so every step keeps at least that one.
        assert np.argmax(true) in step.kept_indices


@pytest.mark.parametrize("seed", range(12))
def test_badly_scaled_skewed_path_finishes_every_step(seed):
    # Column scales spread over four decades, Zipf-like column frequencies
    # and 3% positives.  Under one scalar step for all columns the small
    # ones barely move: the worst step of these seeds took from 29,000
    # iterations to the 100,000 cap, and several steps never finished
    # exactly.  The per-column metric finishes each step in a few dozen.
    # On seeds 1, 6, 8, 9 and 10 some steps start on their optimum's
    # pattern, where the iterate's own KKT check would pass before the
    # finish had run; the finish comes first, so they end finished too.
    ds = skewed_dataset(np.random.default_rng(seed))
    config = PathConfig(grid_size=20, ratio=0.85, solver=SolverOptions(max_iter=300))
    report = run_path(ds, config)
    assert len(report.steps) == 20
    assert all(s.converged and s.finished for s in report.steps)


@pytest.mark.parametrize("seed, n, m, density", [(5, 300, 200, 0.05), (2, 100, 100, 0.1)])
def test_the_finish_tries_every_settled_pattern(seed, n, m, density):
    # Sparse data with coin-flip labels, deep in the path.  A step here
    # holds more than 20 distinct patterns before the right one: with the
    # finish stopped after 20 attempts, step 5 of the first path and step 4
    # of the second ended unfinished after thousands of proximal gradient
    # iterations.  Tried on every settled pattern, the finish ends each step.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m)) * (rng.random(size=(n, m)) < density)
    y = np.where(rng.normal(size=n) > 0, 1.0, -1.0)
    report = run_path(Dataset.from_dense(x, y), PathConfig(grid_size=6, ratio=0.4))
    assert len(report.steps) == 6
    for s in report.steps:
        assert s.converged and s.finished
        assert 2 * s.finish_attempts <= s.iterations + 1


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 2.0),
    positive=st.floats(0.05, 0.5),
)
def test_screening_is_safe_over_column_scale_spread(seed, spread, positive):
    ds = skewed_dataset(
        np.random.default_rng(seed), n=60, m=200, spread=spread, positive=positive, density=0.05
    )
    config = PathConfig(grid_size=12, ratio=0.8, verify=True)
    report = run_path(ds, config)
    full = run_path(ds, dataclasses.replace(config, screen=False, verify=False))
    assert report.total_violations == 0
    assert all(s.converged and s.violations == 0 for s in report.steps)
    for step, reference in zip(report.steps, full.steps):
        # Every discarded feature has weight 0 on the unscreened path too.
        discarded = np.setdiff1d(np.arange(ds.n_features), step.kept_indices)
        np.testing.assert_array_equal(reference.weights[discarded], 0.0)


def test_no_region_after_the_stop_would_discard(monkeypatch):
    # Ending screening once a region keeps every feature costs no discard
    # here: at every later step the region built from the previous step's
    # dual point keeps every feature too, and so does the carried bound a
    # path that kept screening would have used.  A tighter region would
    # show here first.
    stopped = replayed = 0
    for (n, m, density), planted, (ratio, size) in itertools.product(
        [(300, 20, 1.0), (100, 60, 1.0), (100, 200, 0.1)],
        [True, False],
        [(0.4, 6), (0.8, 10), (0.97, 20)],
    ):
        ds = _labelled(np.random.default_rng(5), n, m, density, planted)
        with monkeypatch.context() as patch:
            contexts = _recording_contexts(patch)
            steps = run_path(ds, PathConfig(grid_size=size, ratio=ratio)).steps
        assert all(s.trusted for s in steps)
        stop = len(contexts) - 1
        if steps[stop].kept < m:
            continue
        stopped += 1
        for prev, step in zip(steps[stop:], steps[stop + 1 :]):
            contexts.append(screening.build_context(prev.theta, prev.lam, step.lam, ds))
            assert screening.screen_all(contexts[-1]).kept.size == m
            replayed += 1
        for bounds, _ in _certified_bounds(ds, contexts)[stop + 1 :]:
            assert np.all(bounds >= 1.0 - screening.EPS_KEEP)
    # The stop fires on 8 of these 18 paths, and 39 later steps replay.
    assert stopped >= 6 and replayed >= 30


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
