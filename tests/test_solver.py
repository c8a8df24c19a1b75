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

import numpy as np
import pytest

from svmscreen import (
    Dataset,
    SolverOptions,
    first_features,
    grad_h,
    kkt_report,
    lambda_max,
    model_from_json,
    model_to_json,
    objective_value,
    parse_sparse_text,
    solve_primal,
    theta_at_lambda_max,
    theta_from_primal,
)
from svmscreen import solver

from conftest import random_dataset

TWO_SAMPLE = "+1 1:2\n-1 2:1\n"


def three_sample():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    return Dataset.from_dense(x, [1.0, 1.0, -1.0])


def test_lambda_max_two_sample_frozen():
    ds = parse_sparse_text(TWO_SAMPLE)
    lam_max, bias, direction = lambda_max(ds)
    assert lam_max == 2.0
    assert bias == 0.0
    np.testing.assert_allclose(direction, [2.0, -1.0])
    np.testing.assert_array_equal(first_features(direction), [0])


def test_lambda_max_three_sample_frozen_with_tie():
    ds = three_sample()
    lam_max, bias, direction = lambda_max(ds)
    assert lam_max == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert bias == pytest.approx(1.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(direction, [-2.0 / 3.0, -2.0 / 3.0], atol=1e-15)
    np.testing.assert_array_equal(first_features(direction), [0, 1])
    theta = theta_at_lambda_max(ds, lam_max, bias)
    np.testing.assert_allclose(theta.values, [1.0, 1.0, 2.0], atol=1e-12)
    assert theta.lam == lam_max


def test_first_features_tie_slack_and_zero():
    np.testing.assert_array_equal(first_features([3.0, -3.0 * (1 - 1e-13), 1.0]), [0, 1])
    np.testing.assert_array_equal(first_features([3.0, -3.0 * (1 - 1e-9), 1.0]), [0])
    assert first_features(np.zeros(4)).size == 0


def test_lambda_max_single_class_is_zero():
    ds = Dataset.from_dense(np.ones((3, 2)), [1.0, 1.0, 1.0])
    lam_max, bias, direction = lambda_max(ds)
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


def test_trace_is_nonincreasing():
    rng = np.random.default_rng(79)
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(3, 15)), int(rng.integers(2, 10)), 0.8)
        lam_cap, _, _ = lambda_max(ds)
        if lam_cap <= 0:
            continue
        model = solve_primal(ds, 0.3 * lam_cap, options=SolverOptions(keep_trace=True))
        trace = np.asarray(model.trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_converged_means_kkt_within_tol():
    rng = np.random.default_rng(83)
    tol = 1e-8
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(3, 15)), int(rng.integers(2, 10)), 0.8)
        lam_cap, _, _ = lambda_max(ds)
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
    lam_cap, _, _ = lambda_max(ds)
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
    np.testing.assert_allclose(theta.values, xi / lam, atol=1e-12)
    assert theta.lam == lam
    assert np.all(theta.values >= 0.0)
    with pytest.raises(ValueError, match="lam must be positive"):
        theta_from_primal(ds, w, b, 0.0)
    # solve_primal returns this point from the hinge it already holds, on
    # dense and sparse data, finished or stopped at the iteration cap.
    for density, max_iter in ((1.0, 100_000), (0.3, 100_000), (1.0, 2)):
        data = random_dataset(rng, 12, 8, density)
        lam = 0.5 * lambda_max(data)[0]
        model = solve_primal(data, lam, options=SolverOptions(max_iter=max_iter))
        assert model.converged == (max_iter > 2)
        again = theta_from_primal(data, model.weights, model.bias, lam)
        np.testing.assert_array_equal(model.theta.values, again.values)
        assert model.theta.lam == lam


def test_zero_model_exactly_above_threshold():
    rng = np.random.default_rng(101)
    for _ in range(8):
        ds = random_dataset(rng, int(rng.integers(4, 12)), int(rng.integers(2, 12)), 0.8)
        lam_cap, bias, _ = lambda_max(ds)
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
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0)
    text = model_to_json(model, 1.0)
    back, lam = model_from_json(text, ds.n_features)
    assert lam == 1.0
    np.testing.assert_allclose(back.weights, model.weights, atol=0.0)
    assert back.bias == model.bias
    for name in solver.JSON_FIELDS:
        assert getattr(back, name) == getattr(model, name)
        assert type(getattr(back, name)) is type(getattr(model, name))
    assert back.kkt_residual <= 1e-9
    assert back.finished is True
    assert model.passes > 0 and model.finish_attempts >= 1


def test_kkt_report_recompute():
    rng = np.random.default_rng(103)
    ds = random_dataset(rng, 8, 5, 0.9)
    lam_cap, _, _ = lambda_max(ds)
    lam = 0.5 * lam_cap
    model = solve_primal(ds, lam)
    report = kkt_report(ds, model, lam)
    theta = theta_from_primal(ds, model.weights, model.bias, lam).values
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
    return ds, 0.3 * lambda_max(ds)[0]


def test_unscaled_column_converges_at_default_options():
    # Proximal gradient alone stalls (KKT ~1e-7 after 20k iterations); the
    # exact finish certifies.
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
    j = int(first_features(lambda_max(Dataset.from_dense(x, y))[2])[0])
    ds = Dataset.from_dense(np.column_stack([x, x[:, j]]), y)
    lam = 0.3 * lambda_max(ds)[0]
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

    # A block of [X_IS, 1] above the cell cap is not gathered either.
    monkeypatch.setattr(solver, "FINISH_MAX_CELLS", 1)
    ds = parse_sparse_text(TWO_SAMPLE)
    model = solve_primal(ds, 1.0)
    assert results == []
    assert model.converged and not model.finished


def test_rejected_finish_leaves_the_proximal_gradient_answer(monkeypatch):
    rng = np.random.default_rng(109)
    ds = random_dataset(rng, 15, 10, 0.8)
    lam = 0.3 * lambda_max(ds)[0]
    opts = SolverOptions(keep_trace=True)

    monkeypatch.setattr(solver, "_exact_finish", lambda *args: None)
    plain = solve_primal(ds, lam, options=opts)
    monkeypatch.undo()

    # Every candidate the finish proposes fails its KKT check.
    candidates = _finish_results(monkeypatch)
    residuals = solver._kkt_residuals

    def reject_candidates(dataset, w, xi, lam_at):
        report = residuals(dataset, w, xi, lam_at)
        if any(found is not None and w is found[0] for found in candidates):
            report = dataclasses.replace(report, r1=1.0)
        return report

    monkeypatch.setattr(solver, "_kkt_residuals", reject_candidates)
    rejected = solve_primal(ds, lam, options=opts)
    assert any(found is not None for found in candidates)
    assert not plain.finished and not rejected.finished
    assert rejected.converged and rejected.kkt_residual <= 1e-9
    np.testing.assert_array_equal(rejected.weights, plain.weights)
    assert rejected.bias == plain.bias
    assert rejected.iterations == plain.iterations
    assert rejected.trace == plain.trace


def _sparse_problem():
    rng = np.random.default_rng(113)
    ds = random_dataset(rng, 100, 500, 0.1)
    return ds, 0.5 * lambda_max(ds)[0]


def test_step_starts_at_one_over_n_on_every_solve():
    # L = ||[X, 1]||_2^2 >= n, so the first step 1/n is halved at most
    # ceil(log2(L / n)) times; nothing carries over from an earlier solve.
    dense = random_dataset(np.random.default_rng(5), 60, 8)
    problems = [(dense, 0.3 * lambda_max(dense)[0]), _sparse_problem(), _unscaled_problem()]
    for ds, lam in problems:
        fresh = solve_primal(ds, lam)
        again = solve_primal(ds, lam)
        assert (again.passes, again.iterations) == (fresh.passes, fresh.iterations)
        np.testing.assert_array_equal(again.weights, fresh.weights)
        a = np.column_stack([ds.to_dense(), np.ones(ds.n_samples)])
        lipschitz = np.linalg.norm(a, 2) ** 2
        assert fresh.backtracks <= np.ceil(np.log2(lipschitz / ds.n_samples))
    assert fresh.backtracks > 0  # the last problem, the unscaled column, needs halvings


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
    return ds, lambda_max(ds)[0]


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
    # On the tall dense problem the finish reads its system from the cached
    # Gram; it adds no product the count misses.
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
        # wrong sign, so the finish proposes nothing.
        pytest.param([0.0, -2.0, -2.0, 1.0], 2.0, None, id="column0-2.0"),
        # z = (16/43, -12/43): the sign holds, but the last row's
        # 1 - y a z is -1/43, which only the candidate's scores show.
        pytest.param([2.0, 2.0, 1.0, -2.0], 1.0, (16 / 43, -12 / 43), id="column1-1.0"),
    ],
)
def test_off_pattern_candidate_rejected_on_its_block(monkeypatch, column, lam, candidate):
    # One feature with s = +1, labels (+1, +1, -1, -1), all rows margin rows.
    ds = Dataset.from_dense(np.array(column)[:, None], [1.0, 1.0, -1.0, -1.0])
    assert ds.gram is not None  # the system comes from the cached Gram
    matvecs = _count_calls(monkeypatch, Dataset, "matvec")
    rmatvecs = _count_calls(monkeypatch, Dataset, "rmatvec")
    found = solver._exact_finish(ds, lam, np.ones(1), np.arange(4))
    assert matvecs == rmatvecs == []
    if candidate is None:
        assert found is None
        return
    np.testing.assert_allclose([found[0][0], found[1]], candidate, rtol=1e-12)

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
    # system, from the Gram or from the gathered rows, and rejects the
    # solution without a product.
    ds, patterns = _optimum_patterns((0.5, 0.2, 0.05))
    # 79, 68 and 36 of the 80 rows: the Gram twice, the gathered rows once
    assert [rows.size for _, _, rows in patterns] == [79, 68, 36]
    products = _count_calls(monkeypatch, Dataset, "matvec", "rmatvec")
    for lam, model, rows in patterns:
        assert solver._exact_finish(ds, lam, -model.weights, rows) is None
        assert solver._exact_finish(ds, lam, model.weights, rows) is not None
    assert products == []


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
        (unscaled, 0.3 * lambda_max(unscaled)[0]),
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
    # Candidates proposed with the signs of w flipped are all rejected on
    # their block, so the solve makes the products of one whose finish
    # proposes nothing.
    ds, lam = _sparse_problem()
    monkeypatch.setattr(solver, "_exact_finish", lambda *args: None)
    plain = solve_primal(ds, lam)
    monkeypatch.undo()
    results = []
    original = solver._exact_finish

    def flipped(dataset, lam_at, w, rows):
        results.append(original(dataset, lam_at, -w, rows))
        return results[-1]

    monkeypatch.setattr(solver, "_exact_finish", flipped)
    rejected = solve_primal(ds, lam)
    assert results and all(found is None for found in results)
    assert rejected.finish_attempts == plain.finish_attempts == len(results)
    assert rejected.passes == plain.passes
    assert rejected.iterations == plain.iterations


def test_cached_system_equals_the_gathered_one():
    # A'A and A'y_I for A = [X_IS, 1], read from the cached Gram of tall
    # dense data, against the gathered block, for I every row, all but 3
    # and half of them.
    rng = np.random.default_rng(127)
    ds = random_dataset(rng, 60, 9)
    assert ds.gram is not None
    x = ds.to_dense()
    for support in (np.array([4]), np.array([0, 2, 3, 7, 8]), np.arange(9)):
        for rows in (
            np.arange(60),
            np.sort(rng.choice(60, 57, replace=False)),
            np.sort(rng.choice(60, 30, replace=False)),
        ):
            a = np.column_stack([x[np.ix_(rows, support)], np.ones(rows.size)])
            gram, rhs = solver._cached_system(ds, support, rows)
            np.testing.assert_allclose(gram, a.T @ a, rtol=1e-12, atol=1e-12 * 60)
            np.testing.assert_allclose(rhs, ds.labels[rows] @ a, rtol=1e-12, atol=1e-12 * 60)


def test_finish_from_the_gram_equals_the_gathered_finish(monkeypatch):
    # The optimum's own pattern at several lambdas, with the margin set I
    # from every row but one down to under half of them: the finish from
    # the Gram and the one from the gathered block return the same point.
    ds, cases = _optimum_patterns((0.5, 0.2, 0.05, 0.01))
    blocks = _count_calls(monkeypatch, Dataset, "block")
    cached = [solver._exact_finish(ds, lam, model.weights, rows) for lam, model, rows in cases]
    assert [rows.size for _, _, rows in cases] == [79, 68, 36, 18]
    # The Gram gathers the 1 and 12 rows outside I; I itself is gathered
    # only where it is under half the rows.
    assert [args[1].size for args in blocks] == [1, 12, 36, 18]
    # A property outranks the Gram the instance has cached.
    monkeypatch.setattr(Dataset, "gram", property(lambda self: None))
    blocks.clear()
    gathered = [solver._exact_finish(ds, lam, model.weights, rows) for lam, model, rows in cases]
    assert len(blocks) == 4
    for (_, model, _), one, other in zip(cases, cached, gathered):
        np.testing.assert_allclose(one[0], other[0], rtol=0, atol=1e-9)
        assert one[1] == pytest.approx(other[1], abs=1e-9)
        np.testing.assert_allclose(one[0], model.weights, rtol=0, atol=1e-9)
