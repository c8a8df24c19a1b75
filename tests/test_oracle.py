"""The brute-force maximizer must be trustworthy before it can judge
anything else: feasibility of its argmax and agreement with its own
dense secondary check, at any n."""

import numpy as np
import pytest

from svmscreen import (
    Ball,
    ball_at_t,
    null_space_basis,
    oracle_max,
    screen_all,
)
from svmscreen import oracle
from svmscreen.oracle import _dense_check

from conftest import (
    halfspace_normal,
    random_dataset,
    skewed_dataset,
    solved_context,
    synthetic_context,
)


def test_null_space_basis_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        basis = null_space_basis(y, np.eye(n))
        assert basis.shape == (n, n - 1)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n - 1), atol=1e-12)
        np.testing.assert_allclose(y @ basis, 0.0, atol=1e-12)
        # Collinear inputs and the labels themselves add no direction.
        v = rng.normal(size=n)
        for vectors, rank in (
            (np.column_stack((v, -3.0 * v, 2.0 * y)), 1),
            (np.column_stack((v, v + 5.0 * y)), 1),
            (v, 1),  # one vector, given 1-d
            (y.reshape(-1, 1), 0),
        ):
            basis = null_space_basis(y, vectors)
            assert basis.shape == (n, rank)
            np.testing.assert_allclose(y @ basis, 0.0, atol=1e-12)
            off_y = v - (v @ y / n) * y
            if rank:
                np.testing.assert_allclose(basis @ (basis.T @ off_y), off_y, atol=1e-12)


def test_argmax_is_feasible_and_value_consistent():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        ctx = synthetic_context(rng, n)
        g = rng.normal(size=n)
        res = oracle_max(ctx, g)
        assert res.certified
        z = res.argmax
        ball = ball_at_t(ctx.theta1, ctx.lambda1, ctx.lambda2, 0.0)
        assert abs(float(z @ ctx.dataset.labels)) <= 1e-8
        assert float(np.linalg.norm(z - ball.center)) <= ball.radius + 1e-8
        a = halfspace_normal(ctx)
        if a is not None:
            assert float(a @ (z - ctx.theta1)) <= 1e-8
        assert res.value == pytest.approx(float(g @ z), abs=1e-10)


def test_dense_check_certifies_small_problems():
    rng = np.random.default_rng(11)
    certified = 0
    for trial in range(30):
        n = int(rng.integers(2, 13))
        ctx = synthetic_context(rng, n)
        g = rng.normal(size=n)
        res = oracle_max(ctx, g)
        assert res.certified
        certified += 1
    assert certified == 30


def test_dense_check_finds_the_peak_of_thin_caps():
    # As lambda2 -> lambda1 the region shrinks onto theta1: a cap of
    # relative depth eps, whose feasible arc (half-width about sqrt(2 eps))
    # is often narrower than one coarse spacing and holds no coarse
    # sample.  With the objective's peak inside the arc the maximum is
    # g'c + r ||g||, and the check must reach it by refining from a chord
    # end.
    rng = np.random.default_rng(2029)
    for trial in range(200):
        c = rng.normal(size=2)
        r = 10.0 ** rng.uniform(-1, 1)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        a = 10.0 ** rng.uniform(-1, 1) * np.array([np.cos(psi), np.sin(psi)])
        eps = 10.0 ** rng.uniform(-7, -5)
        limit = float(a @ c) - r * (1.0 - eps) * float(np.linalg.norm(a))
        phi = psi + np.pi + rng.uniform(-1, 1) * np.arccos(1.0 - eps)
        g = 10.0 ** rng.uniform(-1, 3) * np.array([np.cos(phi), np.sin(phi)])
        peak = float(g @ c) + r * float(np.linalg.norm(g))
        found = _dense_check(c, r, a, limit, g)
        assert abs(found - peak) <= 1e-12 * max(1.0, abs(peak)), trial


def test_a_dense_check_off_by_1e6_is_uncertified(monkeypatch):
    rng = np.random.default_rng(41)
    ctx = synthetic_context(rng, 6)
    g = rng.normal(size=6)
    exact = oracle_max(ctx, g)
    assert exact.certified

    def off(*args):
        value = _dense_check(*args)
        return value + 1e-6 * max(1.0, abs(value))

    monkeypatch.setattr(oracle, "_dense_check", off)
    res = oracle_max(ctx, g)
    assert res.value == exact.value and not res.certified


def test_label_collinear_objective_is_zero():
    rng = np.random.default_rng(13)
    ctx = synthetic_context(rng, 4)
    res = oracle_max(ctx, 2.5 * ctx.dataset.labels)
    assert res.certified
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_zero_radius_ball_returns_projected_center():
    rng = np.random.default_rng(17)
    ctx = synthetic_context(rng, 4)
    g = rng.normal(size=4)
    point = Ball(ctx.theta1.copy(), 0.0)
    res = oracle_max(ctx, g, ball=point)
    assert res.certified
    assert res.value == pytest.approx(float(g @ ctx.theta1), abs=1e-9)
    np.testing.assert_allclose(res.argmax, ctx.theta1, atol=1e-9)


def test_rejects_ball_missing_the_subspace():
    rng = np.random.default_rng(23)
    ctx = synthetic_context(rng, 4)
    far = Ball(ctx.theta1 + 5.0 * ctx.dataset.labels, 0.5)  # shifted off theta'y = 0
    with pytest.raises(ValueError, match="does not meet the equality subspace"):
        oracle_max(ctx, np.ones(4), ball=far)


def test_rejects_halfspace_excluding_ball():
    rng = np.random.default_rng(29)
    for trial in range(50):
        ctx = synthetic_context(rng, 4)
        a = halfspace_normal(ctx)
        if a is None:
            continue
        y = ctx.dataset.labels
        pya = a - (float(a @ y) / y.shape[0]) * y
        direction = pya / np.linalg.norm(pya)
        radius = 0.25
        # Center three radii deep on the excluded side of the boundary.
        bad = Ball(ctx.theta1 + 3.0 * radius * direction, radius)
        g = rng.normal(size=4)
        with pytest.raises(ValueError, match="region is empty"):
            oracle_max(ctx, g, ball=bad)
        return
    pytest.skip("no context with a halfspace drawn")


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: skewed_dataset(rng, m=300),
        lambda rng: random_dataset(rng, 520, 48, density=0.3),
    ],
    ids=["skewed_n200", "random_n520"],
)
def test_bounds_match_oracle_at_hundreds_of_samples(make):
    # screen_all's closed form against the oracle, both signs of every
    # feature, on contexts from solves (at lambda_max and below it) and on
    # a hand-made dual point: every call certified by the sweep, and the
    # two within 1e-9 of the oracle's value.
    rng = np.random.default_rng(4417)
    ds = make(rng)
    contexts = [solved_context(rng, ds, 1.0, 0.8), solved_context(rng, ds, 0.5, 0.7)]
    contexts.append(synthetic_context(rng, ds.n_samples, m=ds.n_features // 8))
    calls = 0
    for ctx in contexts:
        assert ctx is not None and ctx.dataset.n_samples >= 200
        features = ctx.dataset
        report = screen_all(ctx)
        for j in range(features.n_features):
            rows, values = features.column(j)
            fhat = np.zeros(features.n_samples)
            fhat[rows] = features.labels[rows] * values
            for closed, g in ((report.m1[j], -fhat), (report.m2[j], fhat)):
                res = oracle_max(ctx, g)
                assert res.certified
                assert abs(closed - res.value) <= 1e-9 * abs(res.value)
                calls += 1
    assert calls == 2 * (2 * ds.n_features + ds.n_features // 8)
