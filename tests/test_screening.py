"""Screening context, per-feature bounds and the safety contract.

The frozen three-sample configuration (labels (+1, +1, -1), both feature
columns (0, 0, 0.5)) pins down every derived quantity by hand:
lambda_max = 2/3 with bias 1/3, theta1 = (1, 1, 2) at lambda1 = 2/3, and
with lambda2 = 1/3 the base ball has center (2, 2, 2.5), radius 1.5.
Here 1/lambda1 - theta1 is collinear with the labels, so the halfspace is
uninformative on the equality subspace and the context drops it.  Both
feature bounds evaluate to exactly (m1, m2) = (2, -1).
"""

import numpy as np
import pytest

from svmscreen import (
    Branch,
    Dataset,
    DegenerateProblemError,
    SolverOptions,
    ball_at_t,
    build_context,
    oracle_max,
    screen_all,
    solve_primal,
    theta_at_lambda_max,
    theta_from_primal,
)
from svmscreen.screening import EPS_KEEP

from conftest import (
    anchored_dataset,
    feasible_theta,
    halfspace_normal,
    neg_min,
    random_dataset,
    solved_context,
    synthetic_context,
)


def three_sample():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    return Dataset.from_dense(x, [1.0, 1.0, -1.0])


def frozen_context():
    ds = three_sample()
    theta1 = theta_at_lambda_max(ds)
    return build_context(theta1, 2.0 / 3.0, 1.0 / 3.0, ds), ds


def test_frozen_context_values():
    ctx, _ = frozen_context()
    np.testing.assert_allclose(ctx.theta1, [1.0, 1.0, 2.0], atol=1e-12)
    ball = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0)
    np.testing.assert_allclose(ball.center, [2.0, 2.0, 2.5], atol=1e-12)
    # b = c - theta1
    np.testing.assert_allclose(ball.center - ctx.theta1, [1.0, 1.0, 0.5], atol=1e-12)
    assert ball.radius == pytest.approx(1.5, abs=1e-12)
    assert ctx.half_dl == pytest.approx(0.75, abs=1e-12)
    assert ctx.b_dot_y == pytest.approx(1.5, abs=1e-12)
    assert ctx.pyb_norm == pytest.approx(np.sqrt(1.5), abs=1e-12)
    assert not ctx.slice_degenerate
    # 1/lambda1 - theta1 = (0.5, 0.5, -0.5) is collinear with the labels:
    # the halfspace constrains nothing on {theta' y = 0} and is dropped.
    assert ctx.has_normal is False
    assert ctx.norm_u == pytest.approx(np.sqrt(0.75), abs=1e-12)


def test_frozen_feature_bounds():
    ctx, ds = frozen_context()
    report = screen_all(ctx)
    np.testing.assert_array_equal(report.kept, [0, 1])
    for j in range(2):
        assert report.m1[j] == pytest.approx(2.0, abs=1e-12)
        assert report.m2[j] == pytest.approx(-1.0, abs=1e-12)
        assert report.bounds[j] == pytest.approx(2.0, abs=1e-12)
        assert report.branch1[j] == Branch.ALPHA_ZERO
        assert report.branch2[j] == Branch.ALPHA_ZERO


def test_build_context_validation():
    ds = three_sample()
    theta1 = np.array([1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="lambda ordering"):
        build_context(theta1, 0.5, 0.5, ds)
    with pytest.raises(ValueError, match="lambda ordering"):
        build_context(theta1, 0.5, -0.1, ds)
    with pytest.raises(ValueError, match="exceeds lambda_max"):
        build_context(theta1, 10.0, 1.0, ds)
    # The bound is the Dataset's cached lambda_max = 2/3, to within 1e-9.
    with pytest.raises(ValueError, match="exceeds lambda_max"):
        build_context(theta1, 2.0 / 3.0 * (1.0 + 1e-8), 0.3, ds)
    assert build_context(theta1, 2.0 / 3.0 * (1.0 + 1e-10), 0.3, ds).lambda1 > 2.0 / 3.0
    with pytest.raises(ValueError, match="length"):
        build_context(np.ones(2), 2.0 / 3.0, 0.3, ds)
    with pytest.raises(ValueError, match="negative"):
        build_context(np.array([1.0, 1.0, -0.5]), 2.0 / 3.0, 0.3, ds)
    with pytest.raises(ValueError, match="not 0"):
        build_context(np.array([1.0, 2.0, 1.0]), 2.0 / 3.0, 0.3, ds)
    for lambda1, lambda2 in ((np.nan, 0.3), (2.0 / 3.0, np.nan), (np.inf, 0.3), (0.5, -np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            build_context(theta1, lambda1, lambda2, ds)


def test_normal_absent_for_balanced_labels_at_lambda_max():
    # Balanced classes put the trivial bias at 0, so theta1 is exactly the
    # anchor 1/lambda1 and the ball family collapses onto the base ball.
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 5))
    ds = Dataset.from_dense(x, [1, 1, 1, -1, -1, -1])
    lam_cap, bias, _ = ds.lambda_max
    assert bias == 0.0
    ctx = build_context(theta_at_lambda_max(ds), lam_cap, 0.6 * lam_cap, ds)
    assert ctx.has_normal is False
    assert ctx.norm_u <= 1e-12
    report = screen_all(ctx)
    assert np.all(np.isfinite(report.bounds))


def test_normal_present_for_unbalanced_labels_at_lambda_max():
    ctx, _ = frozen_context()
    assert ctx.has_normal is False  # collinear case, see module docstring
    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 7, 5, p_positive=0.7)
    lam_cap, bias, _ = ds.lambda_max
    if bias == 0.0:
        pytest.skip("draw came out balanced")
    solved = solve_primal(ds, 0.7 * lam_cap, options=SolverOptions(tol=1e-12))
    theta = theta_from_primal(ds, solved.weights, solved.bias, 0.7 * lam_cap)
    ctx = build_context(theta, 0.7 * lam_cap, 0.5 * lam_cap, ds)
    assert ctx.has_normal is True
    assert ctx.pya_norm > 1e-12


def test_context_scalar_cache_matches_vectors():
    rng = np.random.default_rng(23)
    for trial in range(20):
        ctx = synthetic_context(rng, int(rng.integers(3, 12)))
        y = ctx.dataset.labels
        n = ctx.dataset.n_samples
        b = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0).center - ctx.theta1
        assert ctx.b_dot_y == pytest.approx(float(b @ y), abs=1e-12)
        pyb = b - (float(b @ y) / n) * y
        assert ctx.pyb_norm == pytest.approx(float(np.linalg.norm(pyb)), abs=1e-12)
        a = halfspace_normal(ctx)
        if a is None:
            continue
        u = 1.0 / ctx.lambda1 - ctx.theta1
        assert ctx.norm_u == pytest.approx(float(np.linalg.norm(u)), rel=1e-12)
        assert ctx.a_dot_y == pytest.approx(float(a @ y), abs=1e-12)
        assert ctx.a_dot_one == pytest.approx(float(a.sum()), abs=1e-12)
        assert ctx.a_dot_theta1 == pytest.approx(float(a @ ctx.theta1), abs=1e-12)
        pya = a - (float(a @ y) / n) * y
        assert ctx.pya_norm == pytest.approx(float(np.linalg.norm(pya)), abs=1e-12)
        assert ctx.py_a_dot_py_b == pytest.approx(float(pya @ pyb), abs=1e-10)
        pay = y - (float(a @ y)) * a
        assert ctx.pay_sq == pytest.approx(float(pay @ pay), abs=1e-9)
        pa1 = np.ones(n) - float(a.sum()) * a
        assert ctx.pa1y == pytest.approx(float(pa1 @ pay), abs=1e-10)
        nested = pa1 - (float(pa1 @ pay) / float(pay @ pay)) * pay
        assert ctx.nested1_norm == pytest.approx(float(np.linalg.norm(nested)), abs=1e-9)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("constant", [0.1, 1.0 / 3.0, 3.7, 7.77])
def test_constant_and_zero_features_are_degenerate(constant, storage):
    # fhat = constant * y is collinear with y.  The difference of squares
    # sq_norm - dot_y^2 / n leaves a round-off residue for most constants
    # (3.7 happens to cancel exactly), which the centred column does not.
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6, 4))
    x[:, 1] = 0.0
    x[:, 2] = constant
    if storage == "sparse":
        x = np.column_stack([x, np.zeros((6, 4))])  # 18 of 48 cells stored
    ds = Dataset.from_dense(x, [1, -1, 1, -1, 1, -1])
    assert (ds.dense_block is None) == (storage == "sparse")
    lam_cap, _, _ = ds.lambda_max
    ctx = build_context(theta_at_lambda_max(ds), lam_cap, 0.5 * lam_cap, ds)
    report = screen_all(ctx)
    for j in (1, 2):
        assert report.branch1[j] == Branch.DEGENERATE_F
        assert report.branch2[j] == Branch.DEGENERATE_F
        assert report.m1[j] == 0.0 and report.m2[j] == 0.0
        assert j not in report.kept
        fhat = ds.labels * x[:, j]
        assert neg_min(ctx, fhat) == neg_min(ctx, -fhat) == (0.0, Branch.DEGENERATE_F)


def test_screen_feature_matches_neg_min_and_bulk():
    rng = np.random.default_rng(31)
    for trial in range(15):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, 12))
        ctx = synthetic_context(rng, n, m=m)
        ds = ctx.dataset
        report = screen_all(ctx)
        dense = ds.to_dense()
        for j in range(m):
            fhat = ds.labels * dense[:, j]
            v1, b1 = neg_min(ctx, fhat)
            v2, b2 = neg_min(ctx, -fhat)
            assert report.m1[j] == pytest.approx(v1, rel=1e-10, abs=1e-10)
            assert report.m2[j] == pytest.approx(v2, rel=1e-10, abs=1e-10)
            assert (report.branch1[j], report.branch2[j]) == (b1, b2)
            assert report.bounds[j] == max(report.m1[j], report.m2[j])
        np.testing.assert_array_equal(
            report.kept, np.flatnonzero(report.bounds >= 1.0 - EPS_KEEP)
        )


def test_screen_all_over_cols_equals_rows_of_full_report():
    # A report over some features holds, bit for bit, the rows of the
    # full report, on the sparse products and on the dense block alike.
    rng = np.random.default_rng(37)
    sparse = random_dataset(rng, 12, 40, density=0.2)
    dense = random_dataset(rng, 12, 40)
    assert sparse.dense_block is None and dense.dense_block is not None
    for ds in (sparse, dense):
        ctx = solved_context(rng, ds, 0.6, 0.7)
        full = screen_all(ctx)
        assert 0 < full.kept.size < ds.n_features
        subset = np.flatnonzero(rng.random(ds.n_features) < 0.5)
        subset = np.union1d(subset, full.kept[::2])
        for cols in (subset, np.array([full.kept[-1]])):
            part = screen_all(ctx, cols)
            for name in ("bounds", "m1", "m2", "branch1", "branch2"):
                np.testing.assert_array_equal(getattr(part, name), getattr(full, name)[cols])
            np.testing.assert_array_equal(cols[part.kept], np.intersect1d(cols, full.kept))


def test_screen_all_takes_any_sequence_of_features():
    # A list, a tuple or an unsorted array of features gives, bit for bit,
    # those rows of the full report.
    rng = np.random.default_rng(59)
    for ds in (random_dataset(rng, 12, 40, density=0.2), random_dataset(rng, 12, 40)):
        ctx = solved_context(rng, ds, 0.6, 0.7)
        full = screen_all(ctx)
        for cols in ([0, 2, 5], (39, 7, 8), np.array([30, 1, 17, 1])):
            rows = np.array(cols)
            part = screen_all(ctx, cols)
            for name in ("bounds", "m1", "m2", "branch1", "branch2"):
                assert getattr(part, name).tobytes() == getattr(full, name)[rows].tobytes()
            np.testing.assert_array_equal(
                part.kept, np.flatnonzero(full.bounds[rows] >= 1.0 - EPS_KEEP)
            )


def test_screen_all_of_no_features_is_empty():
    rng = np.random.default_rng(67)
    for ds in (random_dataset(rng, 12, 40, density=0.2), random_dataset(rng, 12, 40)):
        ctx = solved_context(rng, ds, 0.6, 0.7)
        for cols in ([], (), np.array([], dtype=np.int64)):
            part = screen_all(ctx, cols)
            for name in ("bounds", "m1", "m2", "branch1", "branch2", "kept"):
                assert getattr(part, name).shape == (0,)
            assert part.kept.dtype == np.int64


def test_report_bookkeeping_and_json():
    rng = np.random.default_rng(41)
    ctx = synthetic_context(rng, 6, m=9)
    ds = ctx.dataset
    report = screen_all(ctx)
    np.testing.assert_array_equal(
        report.kept, np.flatnonzero(report.bounds >= 1.0 - EPS_KEEP)
    )
    np.testing.assert_allclose(report.bounds, np.maximum(report.m1, report.m2))
    assert report.rejection_rate == pytest.approx(1.0 - report.kept.size / 9)
    counts = report.branch_counts()
    assert sum(counts.values()) == 2 * 9
    payload = __import__("json").loads(report.to_json())
    assert payload["kept"] == [int(j) + 1 for j in report.kept]
    assert payload["lambda1"] == ctx.lambda1
    assert len(payload["bounds"]) == 9
    assert payload["branches"] == counts


def test_membership_and_safety_on_solved_instances():
    # The region must contain the next dual point, and no feature active at
    # lambda2 may be discarded.  Checked over a small batch of solved
    # problems at several penalty pairs; this is the module-level version
    # of the acceptance suite's larger sweep.
    rng = np.random.default_rng(43)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(4, 16))
        m = int(rng.integers(3, 20))
        ds = random_dataset(rng, n, m, density=float(rng.uniform(0.4, 1.0)))
        lam1_frac = rng.choice([1.0, 0.7])
        lam2_frac = rng.choice([0.5, 0.8, 0.95])
        ctx = solved_context(rng, ds, lam1_frac, lam2_frac, tol=1e-12)
        if ctx is None:
            continue
        model2 = solve_primal(ds, ctx.lambda2, options=SolverOptions(tol=1e-10))
        if not model2.converged:
            continue
        theta2 = theta_from_primal(ds, model2.weights, model2.bias, ctx.lambda2)

        ball = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0)
        assert float(np.linalg.norm(theta2 - ball.center)) <= ball.radius + 1e-7
        assert abs(float(theta2 @ ds.labels)) <= 1e-6
        a = halfspace_normal(ctx)
        if a is not None:
            assert float(a @ (theta2 - ctx.theta1)) <= 1e-7
            # every member of the paper's ball family holds theta2 as well
            for t in (0.5, 2.0, 10.0):
                member = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, t)
                gap = float(np.linalg.norm(theta2 - member.center))
                assert gap <= member.radius + 1e-7

        report = screen_all(ctx)
        kept = set(report.kept.tolist())
        fhat = ds.labels[:, None] * ds.to_dense()
        corr = np.abs(fhat.T @ theta2)
        for j in range(m):
            assert report.bounds[j] >= corr[j] - 1e-6
            if abs(model2.weights[j]) > 1e-8:
                assert j in kept
        checked += 1
    assert checked >= 40


def test_only_entering_features_survive_adjacent_penalties():
    # As lambda2 -> lambda1 = lambda_max the active set shrinks to the
    # features attaining the threshold, and the bound sees exactly that.
    rng = np.random.default_rng(47)
    for trial in range(10):
        ds = random_dataset(rng, int(rng.integers(4, 12)), int(rng.integers(3, 15)))
        lam_cap, bias, direction = ds.lambda_max
        if lam_cap <= 0:
            continue
        ctx = build_context(theta_at_lambda_max(ds), lam_cap, 0.999 * lam_cap, ds)
        report = screen_all(ctx)
        entering = np.flatnonzero(
            np.abs(direction) >= lam_cap * (1.0 - 1e-12)
        )
        assert set(entering.tolist()) <= set(report.kept.tolist())
        # bound at the threshold features approaches |theta1' fhat| = 1
        for j in entering:
            assert report.bounds[j] >= 1.0 - EPS_KEEP


def test_bounds_match_oracle_on_small_problems():
    rng = np.random.default_rng(53)
    agreements = 0
    for trial in range(25):
        n = int(rng.integers(2, 4))
        ctx = synthetic_context(rng, n, m=5)
        ds = ctx.dataset
        dense = ds.to_dense()
        report = screen_all(ctx)
        for j in range(ds.n_features):
            fhat = ds.labels * dense[:, j]
            ref1 = oracle_max(ctx, -fhat)
            ref2 = oracle_max(ctx, fhat)
            assert ref1.certified and ref2.certified
            assert report.m1[j] == pytest.approx(ref1.value, abs=1e-6)
            assert report.m2[j] == pytest.approx(ref2.value, abs=1e-6)
            agreements += 2
    assert agreements >= 200


def test_beta_branch_fires_on_active_features_and_matches_oracle():
    # At an interior lambda1 the gradient direction is a combination of the
    # active-constraint normals, which makes P_y(a) parallel to P_y(fhat)
    # for an isolated active feature: the anti-parallel branch then fires
    # naturally on one side, where its closed form is exact.
    rng = np.random.default_rng(59)
    beta_hits = 0
    for trial in range(30):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(3, 8))
        ds = random_dataset(rng, n, m)
        ctx = solved_context(rng, ds, 0.7, 0.8, tol=1e-12)
        if ctx is None or not ctx.has_normal:
            continue
        dense = ds.to_dense()
        report = screen_all(ctx)
        for j in range(m):
            for closed, branch, sign in (
                (report.m1[j], report.branch1[j], 1.0),
                (report.m2[j], report.branch2[j], -1.0),
            ):
                if branch != Branch.BETA_ZERO:
                    continue
                beta_hits += 1
                fhat = sign * ds.labels * dense[:, j]
                ref = oracle_max(ctx, -fhat)
                assert ref.certified
                assert closed == pytest.approx(ref.value, abs=1e-6)
    assert beta_hits >= 3


def _boundary_chord(ball, basis, normal, limit):
    """Segment (z0 - rho*d, z0 + rho*d) cut from a reduced ball by the
    hyperplane normal' z = limit, in the 2-d reduced coordinates."""
    c_red = basis.T @ ball.center
    off = ball.center - basis @ c_red
    r_red = np.sqrt(max(ball.radius**2 - float(off @ off), 0.0))
    a_red = basis.T @ normal
    a_unit = a_red / np.linalg.norm(a_red)
    h = (limit - float(a_red @ c_red)) / float(np.linalg.norm(a_red))
    assert abs(h) <= r_red + 1e-9
    h = min(max(h, -r_red), r_red)
    z0 = c_red + h * a_unit
    rho = np.sqrt(max(r_red**2 - h * h, 0.0))
    tangent = np.array([-a_unit[1], a_unit[0]])
    return z0, rho, tangent


def test_corner_bound_equals_rim_max_for_any_family_ball():
    # The corner branch value is the maximum over the boundary-hyperplane
    # slice, and that slice is one fixed disk for every family member: the
    # chords cut from the base ball and from members at t > 0 coincide,
    # and the maximum over the chord reproduces the closed form.
    from svmscreen import null_space_basis

    rng = np.random.default_rng(61)
    corner_checked = 0
    for trial in range(60):
        ctx = synthetic_context(rng, 3, m=4)
        a = halfspace_normal(ctx)
        if a is None:
            continue
        ds = ctx.dataset
        basis = null_space_basis(ds.labels, np.eye(3))
        limit = float(a @ ctx.theta1)
        base = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0)
        z0_base, rho_base, tan_base = _boundary_chord(base, basis, a, limit)
        for t in (0.5, 2.0, 10.0):
            member = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, t)
            z0_t, rho_t, _ = _boundary_chord(member, basis, a, limit)
            np.testing.assert_allclose(z0_t, z0_base, atol=1e-9)
            assert rho_t == pytest.approx(rho_base, abs=1e-9)

        dense = ds.to_dense()
        report = screen_all(ctx)
        for j in range(ds.n_features):
            for value, branch, sign in (
                (report.m1[j], report.branch1[j], -1.0),
                (report.m2[j], report.branch2[j], 1.0),
            ):
                if branch != Branch.INTERIOR_CORNER:
                    continue
                g_red = basis.T @ (sign * ds.labels * dense[:, j])
                rim_max = float(g_red @ z0_base) + rho_base * abs(float(g_red @ tan_base))
                # relative term covers the anchor column, whose 1e7 scale
                # puts round-off far above any absolute slack
                assert value == pytest.approx(rim_max, abs=1e-6, rel=1e-9)
                corner_checked += 1
    assert corner_checked >= 20


def test_features_active_at_lambda1_survive_adjacent_step():
    # The ball shrinks to a point as lambda2 -> lambda1, so the bound of a
    # feature active at lambda1 approaches |theta1' fhat| = 1 and the keep
    # slack must not let it slip away.
    rng = np.random.default_rng(67)
    active_seen = 0
    for trial in range(12):
        ds = random_dataset(rng, int(rng.integers(5, 14)), int(rng.integers(4, 16)))
        lam_cap, _, _ = ds.lambda_max
        if lam_cap <= 0:
            continue
        lam1 = 0.6 * lam_cap
        model = solve_primal(ds, lam1, options=SolverOptions(tol=1e-12))
        if not model.converged or not np.any(model.weights != 0.0):
            continue
        theta1 = theta_from_primal(ds, model.weights, model.bias, lam1)
        ctx = build_context(theta1, lam1, 0.999 * lam1, ds)
        report = screen_all(ctx)
        kept = set(report.kept.tolist())
        for j in np.flatnonzero(model.weights != 0.0):
            assert int(j) in kept
            active_seen += 1
    assert active_seen >= 5


def test_large_instance_rejects_features_and_stays_safe():
    rng = np.random.default_rng(71)
    ds = random_dataset(rng, 50, 500, density=0.5)
    lam_cap, _, _ = ds.lambda_max
    ctx = build_context(theta_at_lambda_max(ds), lam_cap, 0.5 * lam_cap, ds)
    report = screen_all(ctx)
    assert report.rejection_rate > 0.0
    model = solve_primal(ds, 0.5 * lam_cap, options=SolverOptions(tol=1e-9))
    assert model.converged
    discarded = np.setdiff1d(np.arange(500), report.kept)
    assert float(np.max(np.abs(model.weights[discarded]), initial=0.0)) <= 1e-8


def test_theta_at_lambda_max_rejects_degenerate():
    ds = Dataset.from_dense(np.ones((3, 2)), [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateProblemError, match="lambda_max is zero"):
        theta_at_lambda_max(ds)
