"""Primal solver, threshold penalty and KKT diagnostics.

Frozen cases, derived by hand:

* two samples "+1 1:2 / -1 2:1": lambda_max = 2 at bias 0, entering
  feature index 0; at lam = 1 the optimum is w = (0.5, 0), b = -0.5 with
  objective 0.75.
* three samples, labels (+1, +1, -1), features all zero except
  x[2, :] = 0.5 in both columns: lambda_max = 2/3 at bias 1/3 with both
  features tied, and the trivial-model dual point is (1, 1, 2) / 1.
"""

import dataclasses
import json

import numpy as np
import pytest

from svmscreen import (
    Dataset,
    PathConfig,
    SolverOptions,
    ball_at_t,
    build_context,
    first_features,
    grad_h,
    kkt_report,
    lambda_grid,
    model_to_json,
    objective_value,
    parse_sparse_text,
    run_path,
    solve_primal,
    theta_at_lambda_max,
    theta_from_primal,
)
from svmscreen import solver

from conftest import objectives_by_iteration, random_dataset

TWO_SAMPLE = "+1 1:2\n-1 2:1\n"


def three_sample():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    return Dataset.from_dense(x, [1.0, 1.0, -1.0])


def test_lambda_max_two_sample_frozen():
    ds = parse_sparse_text(TWO_SAMPLE)
    lam_max, bias, direction = ds.lambda_max
    assert lam_max == 2.0
    assert bias == 0.0
    np.testing.assert_allclose(direction, [2.0, -1.0])
    np.testing.assert_array_equal(first_features(direction), [0])


def test_lambda_max_three_sample_frozen_with_tie():
    ds = three_sample()
    lam_max, bias, direction = ds.lambda_max
    assert lam_max == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert bias == pytest.approx(1.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(direction, [-2.0 / 3.0, -2.0 / 3.0], atol=1e-15)
    np.testing.assert_array_equal(first_features(direction), [0, 1])
    np.testing.assert_allclose(theta_at_lambda_max(ds), [1.0, 1.0, 2.0], atol=1e-12)


def test_first_features_tie_slack_and_zero():
    np.testing.assert_array_equal(first_features([3.0, -3.0 * (1 - 1e-13), 1.0]), [0, 1])
    np.testing.assert_array_equal(first_features([3.0, -3.0 * (1 - 1e-9), 1.0]), [0])
    assert first_features(np.zeros(4)).size == 0


def test_lambda_max_single_class_is_zero():
    ds = Dataset.from_dense(np.ones((3, 2)), [1.0, 1.0, 1.0])
    lam_max, bias, direction = ds.lambda_max
    assert lam_max == 0.0
    assert bias == 1.0
    np.testing.assert_allclose(direction, 0.0, atol=1e-15)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(73)
    step = 1e-6
    for _ in range(25):
        ds = random_dataset(rng, int(rng.integers(2, 10)), int(rng.integers(1, 8)), 0.7)
        w = rng.normal(size=ds.n_features)
        b = float(rng.normal())
        grad_w, grad_b = grad_h(ds, w, b)

        def smooth(wv, bv):
            return objective_value(ds, wv, bv, 0.0)

        for j in range(ds.n_features):
            bump = np.zeros(ds.n_features)
            bump[j] = step
            fd = (smooth(w + bump, b) - smooth(w - bump, b)) / (2 * step)
            assert grad_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        fd_b = (smooth(w, b + step) - smooth(w, b - step)) / (2 * step)
        assert grad_b == pytest.approx(fd_b, rel=1e-5, abs=1e-7)


def test_solve_two_sample_frozen_optimum():
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0)
    assert model.converged
    np.testing.assert_allclose(model.weights, [0.5, 0.0], atol=1e-8)
    assert model.bias == pytest.approx(-0.5, abs=1e-8)
    assert model.objective == pytest.approx(0.75, abs=1e-10)
    assert model.objective == pytest.approx(
        objective_value(ds, model.weights, model.bias, 1.0), abs=1e-12
    )


def test_solve_rejects_bad_inputs():
    ds = parse_sparse_text(TWO_SAMPLE)
    with pytest.raises(ValueError, match="lam must be positive"):
        solve_primal(ds, 0.0)
    with pytest.raises(ValueError, match="warm start"):
        solve_primal(ds, 1.0, warm=(np.zeros(3), 0.0))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_nonfinite_penalty_is_rejected(lam):
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0)
    for call in (
        lambda: solve_primal(ds, lam),
        lambda: theta_from_primal(ds, model.weights, model.bias, lam),
        lambda: kkt_report(ds, model, lam),
    ):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            call()


@pytest.mark.parametrize("weight, bias", [(np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan), (0.0, -np.inf)])
def test_nonfinite_warm_start_is_rejected(weight, bias):
    # A nan start would run every iteration and return a nan objective
    # with a KKT residual of 0.
    rng = np.random.default_rng(101)
    ds = random_dataset(rng, 20, 5)
    with pytest.raises(ValueError, match="warm start must be finite"):
        solve_primal(
            ds, 0.5 * ds.lambda_max[0], SolverOptions(max_iter=2000), warm=(np.full(5, weight), bias)
        )


def test_kkt_residuals_keep_a_nan():
    ds = parse_sparse_text(TWO_SAMPLE)
    model = dataclasses.replace(solve_primal(ds, 1.0), weights=np.array([np.nan, 0.0]))
    report = kkt_report(ds, model, 1.0)
    assert all(np.isnan(v) for v in (report.r1, report.r2, report.r3, report.r4))
    assert np.isnan(report.max_residual)


@pytest.mark.parametrize("density", [0.2, 1.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("size", [25, 35])
def test_recompute_helpers_need_one_weight_per_feature(density, size):
    # The sparse products would otherwise read extra weights past the data
    # and the L1 term add them in.
    rng = np.random.default_rng(103)
    ds = random_dataset(rng, 20, 30, density)
    assert (ds.dense_block is None) == (density < 1.0)
    w = rng.normal(size=size)
    model = dataclasses.replace(solve_primal(ds, 0.5 * ds.lambda_max[0]), weights=w)
    for call in (
        lambda: theta_from_primal(ds, w, 0.1, 1.0),
        lambda: grad_h(ds, w, 0.1),
        lambda: objective_value(ds, w, 0.1, 1.0),
        lambda: kkt_report(ds, model, 1.0),
    ):
        with pytest.raises(ValueError, match=r"weights must have shape \(30,\)"):
            call()


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_solver_options_need_a_positive_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        SolverOptions(tol=tol)


def test_solver_options_need_a_non_negative_max_iter():
    for max_iter in (-1, -5):
        with pytest.raises(ValueError, match="max_iter must be non-negative"):
            SolverOptions(max_iter=max_iter)
    # 0 evaluates the starting point alone.
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0, options=SolverOptions(max_iter=0))
    assert (model.iterations, model.passes) == (0, 2)  # its scores and its KKT check
    assert not model.converged
    np.testing.assert_array_equal(model.weights, 0.0)
    assert model.kkt_residual == kkt_report(ds, model, 1.0).max_residual


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, False, "10", None])
def test_solver_options_need_an_integer_max_iter(max_iter):
    # A float would fail later in range(), and a bool would count as 0 or 1.
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolverOptions(max_iter=max_iter)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1e-9", "0.5", None, [0.5], 10**400])
def test_tolerances_and_penalties_need_a_positive_finite_real(value):
    # A bool would count as 0 or 1, and a string would fail later in `<`.
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0)
    with pytest.raises(ValueError, match="tol must be"):
        SolverOptions(tol=value)
    for call in (
        lambda: solve_primal(ds, value),
        lambda: kkt_report(ds, model, value),
        lambda: theta_from_primal(ds, model.weights, model.bias, value),
    ):
        with pytest.raises(ValueError, match="lam must be"):
            call()


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, [0.5], "1", [1]])
def test_screening_and_grid_penalties_need_a_real(value):
    # The check the solver's penalties have, shared by the region, its ball
    # and its member t, and the path grid: a bool would count as 0 or 1.
    ds = parse_sparse_text(TWO_SAMPLE)
    theta = theta_at_lambda_max(ds)
    for name, call in (
        ("lambda1", lambda: build_context(theta, value, 1.0, ds)),
        ("lambda2", lambda: build_context(theta, 2.0, value, ds)),
        ("lambda1", lambda: ball_at_t(theta, value, 0.5, 0.0)),
        ("lambda2", lambda: ball_at_t(theta, 1.0, value, 0.0)),
        ("t", lambda: ball_at_t(theta, 1.0, 0.5, value)),
        ("lam_max", lambda: lambda_grid(value, 3, 0.5)),
        ("ratio", lambda: lambda_grid(1.0, 3, value)),
        ("ratio", lambda: run_path(ds, PathConfig(ratio=value))),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            call()


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, 10**400])
def test_ball_and_grid_penalties_need_a_positive_finite_value(value):
    theta = np.ones(2)
    for name, call in (
        ("lambda1", lambda: ball_at_t(theta, value, 0.5, 0.0)),
        ("lambda2", lambda: ball_at_t(theta, 1.0, value, 0.0)),
        ("lam_max", lambda: lambda_grid(value, 3, 0.5)),
        ("ratio", lambda: lambda_grid(1.0, 3, value)),
    ):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            call()


def test_tolerances_and_penalties_take_numpy_reals_as_floats():
    ds = parse_sparse_text(TWO_SAMPLE)
    options = SolverOptions(tol=np.float32(1e-6))
    assert type(options.tol) is float and options.tol == float(np.float32(1e-6))
    assert type(SolverOptions(tol=np.int64(1)).tol) is float
    model = solve_primal(ds, np.int64(1), options=options)
    reference = solve_primal(ds, 1.0, options=options)
    np.testing.assert_array_equal(model.weights, reference.weights)
    np.testing.assert_array_equal(model.theta, reference.theta)
    theta = theta_from_primal(ds, model.weights, model.bias, np.float64(1))
    assert theta.dtype == np.float64
    np.testing.assert_array_equal(theta, theta_from_primal(ds, model.weights, model.bias, 1.0))
    residual = kkt_report(ds, model, 1.0).max_residual
    assert kkt_report(ds, model, np.int64(1)).max_residual == residual


def test_solver_options_take_a_numpy_integer_max_iter():
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0, options=SolverOptions(max_iter=np.int64(50)))
    assert model.converged and model.iterations <= 50


def test_trace_is_nonincreasing():
    # The solves stopped at max_iter = k read one solve's objectives in turn.
    rng = np.random.default_rng(79)
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(3, 15)), int(rng.integers(2, 10)), 0.8)
        lam_cap, _, _ = ds.lambda_max
        if lam_cap <= 0:
            continue
        _, objectives = objectives_by_iteration(ds, 0.3 * lam_cap)
        assert objectives.size >= 2
        assert np.all(np.diff(objectives) <= 1e-12 * np.maximum(1.0, np.abs(objectives[:-1])))


def test_converged_means_kkt_within_tol():
    rng = np.random.default_rng(83)
    tol = 1e-8
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(3, 15)), int(rng.integers(2, 10)), 0.8)
        lam_cap, _, _ = ds.lambda_max
        if lam_cap <= 0:
            continue
        model = solve_primal(ds, 0.5 * lam_cap, options=SolverOptions(tol=tol))
        assert model.converged
        report = kkt_report(ds, model, 0.5 * lam_cap)
        assert report.max_residual <= tol * 1.0000001
        assert report.r4 == max(0.0, -report.min_theta)


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(89)
    ds = random_dataset(rng, 12, 8, 0.9)
    lam_cap, _, _ = ds.lambda_max
    lam_hi, lam_lo = 0.6 * lam_cap, 0.4 * lam_cap
    hi = solve_primal(ds, lam_hi)
    cold = solve_primal(ds, lam_lo)
    warm = solve_primal(ds, lam_lo, warm=(hi.weights, hi.bias))
    assert warm.converged and cold.converged
    np.testing.assert_allclose(warm.weights, cold.weights, atol=1e-7)
    assert warm.bias == pytest.approx(cold.bias, abs=1e-7)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-10)


def test_theta_from_primal_matches_hinge():
    rng = np.random.default_rng(97)
    ds = random_dataset(rng, 6, 4, 0.9)
    w = rng.normal(size=4)
    b = 0.3
    lam = 0.7
    theta = theta_from_primal(ds, w, b, lam)
    scores = ds.to_dense() @ w + b
    xi = np.maximum(1.0 - ds.labels * scores, 0.0)
    assert theta.shape == (6,)
    np.testing.assert_allclose(theta, xi / lam, atol=1e-12)
    assert np.all(theta >= 0.0)
    with pytest.raises(ValueError, match="lam must be positive"):
        theta_from_primal(ds, w, b, 0.0)
    # solve_primal returns this point from the hinge it already holds, on
    # dense and sparse data, finished or stopped at the iteration cap.
    for density, max_iter in ((1.0, 100_000), (0.3, 100_000), (1.0, 2)):
        data = random_dataset(rng, 12, 8, density)
        lam = 0.5 * data.lambda_max[0]
        model = solve_primal(data, lam, options=SolverOptions(max_iter=max_iter))
        assert model.converged == (max_iter > 2)
        again = theta_from_primal(data, model.weights, model.bias, lam)
        np.testing.assert_array_equal(model.theta, again)


def test_zero_model_exactly_above_threshold():
    rng = np.random.default_rng(101)
    for _ in range(8):
        ds = random_dataset(rng, int(rng.integers(4, 12)), int(rng.integers(2, 12)), 0.8)
        lam_cap, bias, _ = ds.lambda_max
        if lam_cap <= 0:
            continue
        high = solve_primal(ds, 1.01 * lam_cap)
        assert high.converged
        assert float(np.max(np.abs(high.weights))) <= 1e-8
        assert high.bias == pytest.approx(bias, abs=1e-6)
        low = solve_primal(ds, 0.99 * lam_cap)
        assert low.converged
        assert float(np.max(np.abs(low.weights))) > 1e-8


def test_model_json_round_trip():
    # The two-sample problem behind an empty first column: its one nonzero
    # weight, on the second feature, is written with index 2.
    ds = parse_sparse_text("+1 2:2\n-1 3:1\n")
    model = solve_primal(ds, 1.0)
    payload = json.loads(model_to_json(model, 1.0))
    assert payload["lambda"] == 1.0
    assert payload["weights"] == [[2, float(model.weights[1])]]
    np.testing.assert_array_equal(model.weights, [0.0, 0.5, 0.0])
    assert payload["bias"] == model.bias
    for name in solver.JSON_FIELDS:
        assert payload[name] == getattr(model, name)
        assert type(payload[name]) is type(getattr(model, name))
    assert payload["kkt_residual"] <= 1e-9
    assert payload["finished"] is True
    assert model.passes > 0 and model.finish_attempts >= 1


def test_kkt_report_recompute():
    rng = np.random.default_rng(103)
    ds = random_dataset(rng, 8, 5, 0.9)
    lam_cap, _, _ = ds.lambda_max
    lam = 0.5 * lam_cap
    model = solve_primal(ds, lam)
    report = kkt_report(ds, model, lam)
    theta = theta_from_primal(ds, model.weights, model.bias, lam)
    fhat = ds.labels[:, None] * ds.to_dense()
    corr = fhat.T @ theta
    np.testing.assert_allclose(report.correlations, corr, atol=1e-10)
    assert report.r3 == pytest.approx(abs(theta @ ds.labels), abs=1e-12)
    active = model.weights != 0.0
    if np.any(active):
        expected_r2 = float(np.max(np.abs(corr[active] - np.sign(model.weights[active]))))
        assert report.r2 == pytest.approx(expected_r2, abs=1e-10)


def _unscaled_problem():
    """One column a thousand times the others."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 200))
    x[:, 7] *= 1e3
    ds = Dataset.from_dense(x, np.where(rng.standard_normal(30) > 0, 1.0, -1.0))
    return ds, 0.3 * ds.lambda_max[0]


def test_unscaled_column_converges_at_default_options():
    # With one step for all columns proximal gradient alone stalled (KKT
    # ~1e-7 after 20k iterations); in the column metric it converges in a
    # few dozen, and the exact finish certifies sooner still.
    ds, lam = _unscaled_problem()
    model = solve_primal(ds, lam)
    assert model.converged and model.finished
    assert model.kkt_residual <= 1e-9
    assert kkt_report(ds, model, lam).max_residual <= 1e-9


def _finish_results(monkeypatch):
    """Record what every exact-finish attempt returns."""
    results = []
    original = solver._exact_finish

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(solver, "_exact_finish", recorded)
    return results


def test_finish_skipped_without_a_unique_pattern_optimum(monkeypatch):
    results = _finish_results(monkeypatch)

    # A duplicated column shares its weight with the original, so
    # [X_IS, 1] is singular.  The first feature to enter is the one copied.
    rng = np.random.default_rng(107)
    x = rng.standard_normal((20, 8))
    y = random_dataset(rng, 20, 1).labels
    j = int(first_features(Dataset.from_dense(x, y).lambda_max[2])[0])
    ds = Dataset.from_dense(np.column_stack([x, x[:, j]]), y)
    lam = 0.3 * ds.lambda_max[0]
    model = solve_primal(ds, lam)
    assert model.weights[8] != 0.0
    assert model.weights[j] == pytest.approx(model.weights[8], rel=1e-12)
    assert results and all(found is None for found in results)
    assert model.converged and not model.finished
    assert kkt_report(ds, model, lam).max_residual <= 1e-9

    # Two samples, two tied features entering with opposite signs: the
    # optimum keeps both, so |S| + 1 = 3 exceeds |I| = 2 and no system is
    # factorised.
    results.clear()
    ds = parse_sparse_text("+1 1:1\n-1 2:1\n")
    model = solve_primal(ds, 0.5)
    assert np.count_nonzero(model.weights) == 2
    assert results == []
    assert model.converged and not model.finished
    assert kkt_report(ds, model, 0.5).max_residual <= 1e-9

    # On sparse data the finish returns None, without gathering, for a
    # block of [X_IS, 1] above the cell cap; each refusal is an attempt.
    results.clear()
    monkeypatch.setattr(solver, "FINISH_MAX_CELLS", 1)
    blocks = _count_calls(monkeypatch, Dataset, "block")
    ds, lam = _sparse_problem()
    assert ds.dense_block is None
    model = solve_primal(ds, lam)
    assert results and all(found is None for found in results)
    assert blocks == []
    assert model.finish_attempts == len(results)
    assert model.converged and not model.finished


def _reject_candidates(monkeypatch):
    """Make every candidate the finish proposes fail its KKT check; returns
    what each attempt of the finish returned."""
    candidates = _finish_results(monkeypatch)
    residuals = solver._kkt_residuals

    def reject_candidates(dataset, w, xi, lam_at):
        report = residuals(dataset, w, xi, lam_at)
        if any(found is not None and w is found[0] for found in candidates):
            report = dataclasses.replace(report, r1=1.0)
        return report

    monkeypatch.setattr(solver, "_kkt_residuals", reject_candidates)
    return candidates


def test_rejected_finish_leaves_the_proximal_gradient_answer(monkeypatch):
    rng = np.random.default_rng(109)
    ds = random_dataset(rng, 15, 10, 0.8)
    lam = 0.3 * ds.lambda_max[0]

    monkeypatch.setattr(solver, "_exact_finish", lambda *args: None)
    plain, plain_objectives = objectives_by_iteration(ds, lam)
    monkeypatch.undo()

    candidates = _reject_candidates(monkeypatch)
    rejected, rejected_objectives = objectives_by_iteration(ds, lam)
    assert any(found is not None for found in candidates)
    assert not plain.finished and not rejected.finished
    assert rejected.converged and rejected.kkt_residual <= 1e-9
    np.testing.assert_array_equal(rejected.weights, plain.weights)
    assert rejected.bias == plain.bias
    assert rejected.iterations == plain.iterations
    # A rejected candidate costs products, so passes may differ.
    assert (rejected.objective, rejected.backtracks, rejected.restarts) == (
        plain.objective, plain.backtracks, plain.restarts
    )
    np.testing.assert_array_equal(rejected_objectives, plain_objectives)


def test_finish_attempts_come_at_most_every_second_iteration(monkeypatch):
    # With every candidate rejected, the finish tries each new pattern that
    # holds over a step.  A tried pattern is not tried again while it
    # holds, and a new one must hold over a step first, so attempts come at
    # most every second iteration; proximal gradient then converges alone.
    rng = np.random.default_rng(109)
    ds = random_dataset(rng, 15, 10, 0.8)
    lam = 0.3 * ds.lambda_max[0]
    candidates = _reject_candidates(monkeypatch)
    model = solve_primal(ds, lam)
    assert model.finish_attempts == len(candidates) >= 2
    assert 2 * model.finish_attempts <= model.iterations + 1
    assert model.converged and not model.finished
    assert model.kkt_residual <= 1e-9
    assert kkt_report(ds, model, lam).max_residual <= 1e-9


def _coin_problem():
    """300 x 20 dense data with coin-flip labels (rng 11, as the CI's
    coin.txt), at 0.4 lambda_max: every row stays in the margin set."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 20))
    rng.standard_normal(300)  # the planted labels' noise, drawn for dense.txt
    ds = Dataset.from_dense(x, np.where(rng.standard_normal(300) > 0, 1.0, -1.0))
    return ds, 0.4 * ds.lambda_max[0]


def test_cell_cap_leaves_the_gram_finish_alone(monkeypatch):
    # The cap bounds the cells the finish gathers.  With every row in I,
    # dense data with a Gram gathers none, so even a cap of one cell leaves
    # the solve as it is: it finishes, with no block gathered.
    ds, lam = _coin_problem()
    assert ds.gram is not None
    default = solve_primal(ds, lam)
    monkeypatch.setattr(solver, "FINISH_MAX_CELLS", 1)
    blocks = _count_calls(monkeypatch, Dataset, "block")
    capped = solve_primal(ds, lam)
    assert blocks == []
    assert capped.converged and capped.finished
    assert (capped.iterations, capped.passes, capped.finish_attempts) == (
        default.iterations, default.passes, default.finish_attempts
    )
    np.testing.assert_array_equal(capped.weights, default.weights)
    assert capped.bias == default.bias


def _sparse_problem():
    rng = np.random.default_rng(113)
    ds = random_dataset(rng, 100, 500, 0.1)
    return ds, 0.5 * ds.lambda_max[0]


def test_step_starts_at_one_in_the_column_metric_on_every_solve():
    # In the metric M = diag(||x_j||^2, n) of A = [X, 1], L = lambda_max(
    # M^{-1/2} A'A M^{-1/2}) >= 1, its largest diagonal entry, so the first
    # step 1 is halved at most ceil(log2(L)) times; nothing carries over
    # from an earlier solve.
    dense = random_dataset(np.random.default_rng(5), 60, 8)
    problems = [(dense, 0.3 * dense.lambda_max[0]), _sparse_problem(), _unscaled_problem()]
    for ds, lam in problems:
        fresh = solve_primal(ds, lam)
        again = solve_primal(ds, lam)
        assert (again.passes, again.iterations) == (fresh.passes, fresh.iterations)
        np.testing.assert_array_equal(again.weights, fresh.weights)
        a = np.column_stack([ds.to_dense(), np.ones(ds.n_samples)])
        scale = np.sqrt(np.sum(a * a, axis=0))
        lipschitz = np.linalg.norm(a / scale, 2) ** 2
        assert 0 < fresh.backtracks <= np.ceil(np.log2(lipschitz))


def _count_calls(monkeypatch, owner, *names):
    """One list of the calls made to any of owner's names."""
    calls = []

    def counted(original):
        def call(*args):
            calls.append(args)
            return original(*args)

        return call

    for name in names:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    return calls


def test_full_kkt_pass_runs_only_when_it_can_certify(monkeypatch):
    ds, lam = _sparse_problem()
    checks = _count_calls(monkeypatch, solver, "_kkt_residuals")
    model = solve_primal(ds, lam)
    assert model.converged and model.finished
    assert len(checks) < model.iterations
    assert model.kkt_residual <= 1e-9
    assert kkt_report(ds, model, lam).max_residual <= 1e-9


def test_unconverged_model_reports_its_exact_residual():
    ds, lam = _sparse_problem()
    model = solve_primal(ds, lam, options=SolverOptions(max_iter=3))
    assert model.iterations == 3
    assert not model.converged and not model.finished
    assert model.kkt_residual == kkt_report(ds, model, lam).max_residual


def _tall_dense_problem():
    """80 x 10 dense data, labels planted on three features: a Dataset with
    a cached Gram, whose margin set shrinks as lambda falls."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 10))
    labels = np.where(x[:, :3] @ [2.0, -1.5, 1.0] + 0.3 * rng.normal(size=80) > 0, 1.0, -1.0)
    ds = Dataset.from_dense(x, labels)
    assert ds.gram is not None
    return ds, ds.lambda_max[0]


def _optimum_patterns(fractions):
    """The tall dense problem, and (lam, model, margin rows) of its optimum
    at each fraction of lambda_max."""
    ds, lam_max_dense = _tall_dense_problem()
    patterns = []
    for fraction in fractions:
        lam = fraction * lam_max_dense
        model = solve_primal(ds, lam)
        xi = np.maximum(1.0 - ds.labels * (ds.matvec(model.weights) + model.bias), 0.0)
        patterns.append((lam, model, np.flatnonzero(xi > 0.0)))
    return ds, patterns


def test_passes_count_every_data_product(monkeypatch):
    # On the tall dense problem, whose Dataset has a cached Gram, the finish
    # adds no product the count misses.
    ds, lam = _sparse_problem()
    dense, lam_dense = _tall_dense_problem()
    products = _count_calls(monkeypatch, Dataset, "matvec", "rmatvec")
    for ds, lam in ((ds, lam), (dense, 0.2 * lam_dense)):
        products.clear()
        model = solve_primal(ds, lam)
        assert model.finished
        assert model.passes == len(products) > 0
        # A second solve on the same Dataset counts only its own products.
        products.clear()
        again = solve_primal(ds, 0.9 * lam, warm=(model.weights, model.bias))
        assert again.finished
        assert again.passes == len(products) > 0


@pytest.mark.parametrize(
    "column, lam, candidate",
    [
        # z = (-4/9, -1/3): every margin row keeps xi > 0, but w has the
        # wrong sign, so the finish drops it and solves for the bias alone,
        # b = 1'y / 4 = 0: the zero model, optimal since lambda_max = 1.
        pytest.param([0.0, -2.0, -2.0, 1.0], 2.0, (0.0, 0.0), id="column0-2.0"),
        # z = (16/43, -12/43): the sign holds, but the last row's
        # 1 - y a z is -1/43, which only the candidate's scores show.
        pytest.param([2.0, 2.0, 1.0, -2.0], 1.0, (16 / 43, -12 / 43), id="column1-1.0"),
    ],
)
def test_off_pattern_candidate_rejected_on_its_block(monkeypatch, column, lam, candidate):
    # One feature with s = +1, labels (+1, +1, -1, -1), all rows margin rows.
    ds = Dataset.from_dense(np.array(column)[:, None], [1.0, 1.0, -1.0, -1.0])
    assert ds.gram is not None  # the system comes from the cached Gram
    above_lambda_max = lam >= ds.lambda_max[0]
    matvecs = _count_calls(monkeypatch, Dataset, "matvec")
    rmatvecs = _count_calls(monkeypatch, Dataset, "rmatvec")
    found = solver._exact_finish(ds, lam, np.ones(1), np.arange(4))
    assert matvecs == rmatvecs == []
    np.testing.assert_allclose([found[0][0], found[1]], candidate, rtol=1e-12, atol=0.0)
    if above_lambda_max:
        # The solve starts at that optimum.  Its pattern holds over the
        # first step, so the finish, which runs before the iterate's own
        # check, certifies it with its one system.
        model = solve_primal(ds, lam)
        assert model.converged and model.finished and model.finish_attempts == 1
        np.testing.assert_array_equal(model.weights, found[0])
        assert model.bias == found[1]
        return

    # In a solve this candidate is the finish's first proposal.  Rejecting it
    # costs one matvec and no rmatvec more than proposing nothing there.
    original = solver._exact_finish
    proposals = _finish_results(monkeypatch)
    model = solve_primal(ds, lam)
    np.testing.assert_array_equal(proposals[0][0], found[0])
    assert proposals[0][1] == found[1]
    products = len(matvecs), len(rmatvecs)
    matvecs.clear()
    rmatvecs.clear()
    calls = []

    def first_proposes_nothing(*args):
        calls.append(args)
        return None if len(calls) == 1 else original(*args)

    monkeypatch.setattr(solver, "_exact_finish", first_proposes_nothing)
    skipped = solve_primal(ds, lam)
    assert model.finished and skipped.finished
    assert (model.iterations, model.finish_attempts) == (skipped.iterations, skipped.finish_attempts)
    assert products == (len(matvecs) + 1, len(rmatvecs))
    np.testing.assert_array_equal(model.weights, skipped.weights)
    assert model.bias == skipped.bias


def test_off_pattern_candidate_rejected_on_tall_dense_block(monkeypatch):
    # Each optimum's pattern with its signs flipped: the finish solves the
    # system from the gathered rows, and without a product drops every
    # weight whose solution leaves its flipped sign.  Here that is every
    # weight, which leaves the bias alone, b = 1'y_I / |I|.  The optimum's
    # own pattern gives back the optimum.
    ds, patterns = _optimum_patterns((0.5, 0.2, 0.05))
    # 79, 68 and 36 of the 80 rows: each margin set is gathered
    assert [rows.size for _, _, rows in patterns] == [79, 68, 36]
    products = _count_calls(monkeypatch, Dataset, "matvec", "rmatvec")
    flipped, own = [], []
    for lam, model, rows in patterns:
        flipped.append(solver._exact_finish(ds, lam, -model.weights, rows))
        own.append(solver._exact_finish(ds, lam, model.weights, rows))
    assert products == []
    for (lam, model, rows), (w_f, b_f), (w_o, b_o) in zip(patterns, flipped, own):
        assert np.count_nonzero(model.weights) >= 3
        assert not w_f.any()
        assert b_f == pytest.approx(ds.labels[rows].mean(), rel=1e-12)
        np.testing.assert_allclose(w_o, model.weights, rtol=0, atol=1e-9)
        assert b_o == pytest.approx(model.bias, abs=1e-9)


def test_finish_drops_a_weight_that_leaves_its_sign(monkeypatch):
    # Four samples, two features, lam = lambda_max / 2 = 2.25.  The solve's
    # pattern repeats at its second iteration with both weights negative and
    # every row in I; that pattern's stationary point z = (-5/14, 1/8, 15/28)
    # puts w_1 above 0.  The finish drops feature 1 and solves [x_0, 1]
    # alone: w_0 = -9/35, b = 61/140, the optimum.
    x = np.array([[2.0, 1.0], [0.0, -1.0], [-1.0, -2.0], [-2.0, -2.0]])
    ds = Dataset.from_dense(x, [-1.0, 1.0, 1.0, 1.0])
    lam = 0.5 * ds.lambda_max[0]
    assert lam == 2.25 and ds.gram is not None
    a = np.column_stack([x, np.ones(4)])
    signs = np.array([-1.0, -1.0])
    full = np.linalg.solve(a.T @ a, a.T @ ds.labels - lam * np.append(signs, 0.0))
    np.testing.assert_allclose(full, [-5 / 14, 1 / 8, 15 / 28], rtol=1e-12)

    products = _count_calls(monkeypatch, Dataset, "matvec", "rmatvec")
    found = solver._exact_finish(ds, lam, signs, np.arange(4))
    assert products == []
    assert found[0][1] == 0.0
    assert found[0][0] == pytest.approx(-9 / 35, rel=1e-12)
    assert found[1] == pytest.approx(61 / 140, rel=1e-12)

    proposals = _finish_results(monkeypatch)
    model = solve_primal(ds, lam)
    assert model.finished and model.converged
    assert (model.iterations, model.finish_attempts) == (2, 1)
    np.testing.assert_array_equal(proposals[0][0], found[0])
    np.testing.assert_array_equal(model.weights, found[0])
    assert model.bias == proposals[0][1] == found[1]
    assert kkt_report(ds, model, lam).max_residual <= 1e-9


def test_solve_on_a_fresh_dataset_builds_no_stats():
    # The step's metric needs the column norms alone: a solve on a Dataset
    # without stats sums those and makes no statistics pass, and its model
    # is bit for bit the one made once the stats are built.  Building the
    # stats leaves the column norms as they are.
    for ds, lam in (_sparse_problem(), _unscaled_problem()):
        fresh = Dataset(ds.n_samples, ds.n_features, ds.col_ptr, ds.row_idx, ds.values, ds.labels)
        model = solve_primal(fresh, lam)
        assert "stats" not in fresh.__dict__ and "sq_norm" in fresh.__dict__
        norms = ds.sq_norm
        ds.stats
        assert ds.sq_norm is norms
        assert fresh.sq_norm.tobytes() == norms.tobytes()
        again = solve_primal(ds, lam)
        assert model.weights.tobytes() == again.weights.tobytes()
        assert (model.bias, model.passes, model.iterations) == (again.bias, again.passes, again.iterations)


def test_every_evaluated_point_costs_one_matvec(monkeypatch):
    # The start, every trial point of the line search (first tries, restarts
    # and halvings) and every candidate the finish proposes take one matvec
    # each; the extrapolated point's hinge is read from the accepted points'
    # scores.  The 30 x 50 problem with one column a thousand times the
    # others takes halvings.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 50))
    x[:, 7] *= 1e3
    unscaled = Dataset.from_dense(x, np.where(rng.standard_normal(30) > 0, 1.0, -1.0))
    dense, lam_dense = _tall_dense_problem()
    problems = [
        _sparse_problem(),
        (dense, 0.2 * lam_dense),
        (unscaled, 0.3 * unscaled.lambda_max[0]),
    ]
    results = _finish_results(monkeypatch)
    matvecs = _count_calls(monkeypatch, Dataset, "matvec")
    for ds, lam in problems:
        results.clear()
        matvecs.clear()
        model = solve_primal(ds, lam)
        assert model.converged and model.finished
        proposals = sum(found is not None for found in results)
        points = 1 + model.iterations + model.restarts + model.backtracks + proposals
        assert len(matvecs) == points
    assert model.backtracks > 0


def test_rejected_candidates_cost_no_data_pass(monkeypatch):
    # Candidates proposed with the signs of w flipped: the finish drops the
    # weights that leave those signs without a product, and each candidate
    # it returns keeps only flipped signs.  None is the optimum, so each is
    # rejected after the matvec of its scores and the rmatvec of its KKT
    # check, and the solve otherwise runs as one whose finish proposes
    # nothing.
    ds, lam = _sparse_problem()
    monkeypatch.setattr(solver, "_exact_finish", lambda *args: None)
    plain = solve_primal(ds, lam)
    monkeypatch.undo()
    products = _count_calls(monkeypatch, Dataset, "matvec", "rmatvec")
    results, inside = [], []
    original = solver._exact_finish

    def flipped(dataset, lam_at, w, rows):
        before = len(products)
        found = original(dataset, lam_at, -w, rows)
        inside.append(len(products) - before)
        results.append((w, found))
        return found

    monkeypatch.setattr(solver, "_exact_finish", flipped)
    rejected = solve_primal(ds, lam)
    assert results and all(found is not None for _, found in results)
    assert inside == [0] * len(results)
    for w, (w_f, _) in results:
        kept = w_f != 0.0
        np.testing.assert_array_equal(np.sign(w_f[kept]), -np.sign(w[kept]))
    assert not rejected.finished
    assert rejected.finish_attempts == plain.finish_attempts == len(results)
    assert rejected.passes == plain.passes + 2 * len(results)
    assert rejected.iterations == plain.iterations
    np.testing.assert_array_equal(rejected.weights, plain.weights)


def test_finish_from_the_gram_equals_the_gathered_finish(monkeypatch):
    # The optimum's own pattern at several lambdas.  Where the margin set I
    # is every row, the finish reads its system from the Gram and gathers
    # no block; any other I, even every row but one, is gathered.  Either
    # way it returns the point of the finish that gathers every I.
    ds, cases = _optimum_patterns((0.8, 0.5, 0.2, 0.05, 0.01))
    assert [rows.size for _, _, rows in cases] == [80, 79, 68, 36, 18]
    blocks = _count_calls(monkeypatch, Dataset, "block")
    cached = [solver._exact_finish(ds, lam, model.weights, rows) for lam, model, rows in cases]
    assert [args[1].size for args in blocks] == [79, 68, 36, 18]
    # A property outranks the Gram the instance has cached.
    monkeypatch.setattr(Dataset, "gram", property(lambda self: None))
    blocks.clear()
    gathered = [solver._exact_finish(ds, lam, model.weights, rows) for lam, model, rows in cases]
    assert [args[1].size for args in blocks] == [80, 79, 68, 36, 18]
    for (_, model, _), one, other in zip(cases, cached, gathered):
        np.testing.assert_allclose(one[0], other[0], rtol=0, atol=1e-9)
        assert one[1] == pytest.approx(other[1], abs=1e-9)
        np.testing.assert_allclose(one[0], model.weights, rtol=0, atol=1e-9)
