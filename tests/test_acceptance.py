"""Release acceptance gate.

Eight independent criteria, each printing a single verdict line with the
measured quantities (run with ``pytest -s`` to see them on success; they
also appear in the failure report).  Criteria 1 and 2 share one randomized
suite of screened-then-solved instances, built once per module.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from svmscreen import (
    Branch,
    Dataset,
    PathConfig,
    SolverOptions,
    ball_at_t,
    build_context,
    first_features,
    grad_h,
    kkt_report,
    oracle_max,
    run_path,
    screen_all,
    solve_primal,
    theta_at_lambda_max,
    theta_from_primal,
)

from conftest import (
    feasible_theta,
    objectives_by_iteration,
    random_dataset,
    random_labels,
    solved_context,
)

SUITE_TARGET = 200


def verdict(num, name, ok, detail):
    line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def safety_suite():
    """Randomized screen-then-solve instances shared by criteria 1 and 2.

    Instances only count when the full solve at lambda2 certifies a KKT
    residual <= 1e-9, so every safety comparison is against a trusted
    optimum.
    """
    rng = np.random.default_rng(12026)
    combos = list(
        itertools.product(
            (1.0, 0.1),  # density: dense and 90%-sparse
            (0.3, 0.5, 0.7),  # label balance
            (0.5, 0.8, 0.95),  # lambda2 / lambda1
            (1.0, 0.7),  # lambda1 / lambda_max
        )
    )
    start = time.perf_counter()
    instances = 0
    attempts = 0
    unsafe = 0
    worst_discard = 0.0
    bound_violations = 0
    worst_gap = -np.inf
    while instances < SUITE_TARGET and attempts < 4 * SUITE_TARGET:
        density, balance, ratio, frac = combos[attempts % len(combos)]
        attempts += 1
        n = int(rng.integers(4, 51))
        m = int(rng.integers(10, 201))
        ds = random_dataset(rng, n, m, density=density, p_positive=balance)
        lam_cap = ds.lambda_max[0]
        if lam_cap <= 0.0:
            continue
        lam1 = frac * lam_cap
        if frac >= 1.0:
            theta1 = theta_at_lambda_max(ds)
        else:
            ref = solve_primal(ds, lam1, options=SolverOptions(tol=1e-11))
            if not ref.converged:
                continue
            theta1 = theta_from_primal(ds, ref.weights, ref.bias, lam1)
        lam2 = ratio * lam1
        ctx = build_context(theta1, lam1, lam2, ds)
        report = screen_all(ctx)
        full = solve_primal(ds, lam2, options=SolverOptions(tol=1e-10))
        if not full.converged:
            continue
        kk = kkt_report(ds, full, lam2)
        if kk.max_residual > 1e-9:
            continue
        instances += 1
        dropped = np.setdiff1d(np.arange(ds.n_features), report.kept)
        if dropped.size:
            magnitudes = np.abs(full.weights[dropped])
            worst_discard = max(worst_discard, float(magnitudes.max()))
            unsafe += int((magnitudes > 1e-8).sum())
        gaps = np.abs(kk.correlations) - report.bounds
        worst_gap = max(worst_gap, float(gaps.max()))
        bound_violations += int((gaps > 1e-6).sum())
    return {
        "instances": instances,
        "unsafe": unsafe,
        "worst_discard": worst_discard,
        "bound_violations": bound_violations,
        "worst_gap": worst_gap,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_1_screening_safety(safety_suite):
    s = safety_suite
    ok = s["instances"] >= SUITE_TARGET and s["unsafe"] == 0 and s["elapsed"] < 300.0
    verdict(
        1,
        "screening safety",
        ok,
        f"{s['instances']} instances, {s['unsafe']} unsafe discards, "
        f"max discarded |w| {s['worst_discard']:.3e}, {s['elapsed']:.1f}s",
    )


def test_criterion_2_bound_validity(safety_suite):
    s = safety_suite
    ok = s["instances"] >= SUITE_TARGET and s["bound_violations"] == 0
    verdict(
        2,
        "bound validity",
        ok,
        f"{s['instances']} instances, {s['bound_violations']} violations, "
        f"max |theta2' fhat| - bound = {s['worst_gap']:.3e}",
    )


def _oracle_agreement(ctx, ds, tally):
    """Worst |closed form - oracle| over both signs of every feature."""
    worst = 0.0
    uncertified = 0
    dense = ds.to_dense()
    report = screen_all(ctx)
    for j in range(ds.n_features):
        fhat = ds.labels * dense[:, j]
        for value, branch, sign in (
            (report.m1[j], report.branch1[j], 1.0),
            (report.m2[j], report.branch2[j], -1.0),
        ):
            res = oracle_max(ctx, -sign * fhat)
            if not res.certified:
                uncertified += 1
                continue
            worst = max(worst, abs(value - res.value))
            tally[Branch(int(branch))] += 1
    return worst, uncertified


def test_criterion_3_closed_form_vs_oracle():
    rng = np.random.default_rng(32026)
    tally = {branch: 0 for branch in Branch}
    contexts = 0
    worst = 0.0
    uncertified = 0
    attempts = 0
    while attempts < 400 and (contexts < 100 or min(tally.values()) < 20):
        attempts += 1
        n = 2 if attempts % 2 == 0 else 3
        x = rng.normal(size=(n, 5))
        x[:, 2] = 1.0  # constant column: fhat is collinear with the labels
        y = np.array([1.0, -1.0]) if n == 2 else random_labels(rng, 3)
        ds = Dataset.from_dense(x, y)
        lam_cap, _, _ = ds.lambda_max
        if lam_cap <= 0.0:
            continue
        mode = attempts % 3
        if mode in (0, 1):
            ctx = solved_context(rng, ds, 1.0 if mode == 0 else 0.7, 0.4 + 0.4 * rng.random())
        else:
            # hand-made dual point: exercises halfspace positions a solve
            # never produces, which is where the corner branch lives
            lam1 = (0.4 + 0.5 * rng.random()) * lam_cap
            ctx = build_context(
                feasible_theta(rng, y), lam1, (0.3 + 0.6 * rng.random()) * lam1, ds
            )
        if ctx is None:
            continue
        contexts += 1
        diff, missing = _oracle_agreement(ctx, ds, tally)
        worst = max(worst, diff)
        uncertified += missing
    counts = ", ".join(f"{b.name.lower()} {tally[b]}" for b in Branch)
    ok = (
        contexts >= 100
        and min(tally.values()) >= 20
        and worst <= 1e-6
        and uncertified == 0
    )
    verdict(
        3,
        "closed form vs oracle",
        ok,
        f"{contexts} contexts, max |closed - oracle| {worst:.3e}, "
        f"{uncertified} uncertified, hits: {counts}",
    )


def test_criterion_4_lambda_max_bracketing():
    rng = np.random.default_rng(42026)
    opts = SolverOptions(tol=1e-10)
    instances = 0
    attempts = 0
    worst_above = 0.0
    zero_below = 0
    stray_support = 0
    while instances < 50 and attempts < 300:
        attempts += 1
        ds = random_dataset(rng, int(rng.integers(4, 31)), int(rng.integers(5, 61)))
        lam_cap, _, direction = ds.lambda_max
        if lam_cap <= 0.0:
            continue
        magnitudes = np.sort(np.abs(direction))
        # a runner-up within 5% of the threshold makes the 1% bracket
        # indecisive about which features enter first
        if magnitudes.size > 1 and magnitudes[-2] > 0.95 * lam_cap:
            continue
        above = solve_primal(ds, 1.01 * lam_cap, options=opts)
        below = solve_primal(ds, 0.99 * lam_cap, options=opts)
        if not (above.converged and below.converged):
            continue
        instances += 1
        worst_above = max(worst_above, float(np.abs(above.weights).max()))
        support = np.flatnonzero(below.weights != 0.0)
        if support.size == 0:
            zero_below += 1
        if np.setdiff1d(support, first_features(direction)).size:
            stray_support += 1
    ok = (
        instances >= 50
        and worst_above <= 1e-8
        and zero_below == 0
        and stray_support == 0
    )
    verdict(
        4,
        "lambda-max bracketing",
        ok,
        f"{instances} instances, max |w| above threshold {worst_above:.3e}, "
        f"{zero_below} empty below, {stray_support} stray supports",
    )


def _slice_of(ball, normal, point):
    """Center and radius of the ball's section by the hyperplane through point."""
    gap = float(normal @ (ball.center - point))
    center = ball.center - gap * normal
    radius = np.sqrt(max(ball.radius * ball.radius - gap * gap, 0.0))
    return center, radius


def _uniform_ball(rng, count, dim):
    points = rng.normal(size=(count, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return points * rng.random(count)[:, None] ** (1.0 / dim)


def test_criterion_5_ball_family_geometry():
    rng = np.random.default_rng(52026)
    configs = 60
    slice_defect = 0.0
    nest_failures = 0
    nest_checked = 0
    for _ in range(configs):
        n = int(rng.integers(2, 13))
        theta1 = 0.1 + rng.random(n)
        lam1 = 0.4 + rng.random()
        lam2 = (0.3 + 0.6 * rng.random()) * lam1
        u = 1.0 / lam1 - theta1
        a_hat = u / np.linalg.norm(u)

        # hyperplane sections of any two members coincide
        t1 = rng.uniform(0.0, 4.0)
        t2 = t1 + 0.1 + rng.uniform(0.0, 3.0)
        ball1 = ball_at_t(theta1, lam1, lam2, t1)
        ball2 = ball_at_t(theta1, lam1, lam2, t2)
        c1, r1 = _slice_of(ball1, a_hat, theta1)
        c2, r2 = _slice_of(ball2, a_hat, theta1)
        slice_defect = max(
            slice_defect, float(np.linalg.norm(c1 - c2)), abs(r1 - r2)
        )
        for _ in range(20):
            v = rng.normal(size=n)
            v -= float(v @ a_hat) * a_hat
            norm_v = float(np.linalg.norm(v))
            if norm_v == 0.0:
                continue
            p = c1 + r1 * v / norm_v
            slice_defect = max(
                slice_defect,
                abs(float(np.linalg.norm(p - ball2.center)) - ball2.radius),
            )

        # the smaller-t member cuts the smaller piece out of the halfspace
        samples = ball1.center + _uniform_ball(rng, 10_000, n) * ball1.radius
        near_slice = c1 + (
            0.999 * r1 * rng.random(500)[:, None] ** (1.0 / max(n - 1, 1))
        ) * _unit_tangents(rng, 500, a_hat) - 1e-9 * a_hat
        for batch in (samples, near_slice):
            in_ball1 = np.linalg.norm(batch - ball1.center, axis=1) <= ball1.radius
            in_half = (batch - theta1) @ a_hat <= 0.0
            hits = batch[in_ball1 & in_half]
            nest_checked += hits.shape[0]
            dist2 = np.linalg.norm(hits - ball2.center, axis=1)
            nest_failures += int((dist2 > ball2.radius + 1e-9).sum())
    ok = slice_defect <= 1e-9 and nest_failures == 0
    verdict(
        5,
        "ball family geometry",
        ok,
        f"{configs} configs, slice defect {slice_defect:.2e}, "
        f"{nest_failures}/{nest_checked} nesting failures",
    )


def _unit_tangents(rng, count, a_hat):
    v = rng.normal(size=(count, a_hat.shape[0]))
    v -= np.outer(v @ a_hat, a_hat)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_6_solver_numerics():
    rng = np.random.default_rng(62026)

    # gradient of the smooth part against central differences
    worst_rel = 0.0
    triples = 0
    while triples < 100:
        ds = random_dataset(rng, int(rng.integers(3, 15)), int(rng.integers(2, 10)))
        w = rng.normal(size=ds.n_features)
        b = float(rng.normal())
        margins = 1.0 - ds.labels * (ds.to_dense() @ w + b)
        if float(np.min(np.abs(margins))) < 1e-4:
            continue  # hinge kink inside the difference stencil
        triples += 1
        grad_w, grad_b = grad_h(ds, w, b)
        analytic = np.append(grad_w, grad_b)
        numeric = np.empty_like(analytic)
        eps = 1e-6

        def smooth(w_at, b_at):
            xi = np.maximum(1.0 - ds.labels * (ds.to_dense() @ w_at + b_at), 0.0)
            return 0.5 * float(xi @ xi)

        for k in range(ds.n_features):
            shift = np.zeros(ds.n_features)
            shift[k] = eps
            numeric[k] = (smooth(w + shift, b) - smooth(w - shift, b)) / (2 * eps)
        numeric[-1] = (smooth(w, b + eps) - smooth(w, b - eps)) / (2 * eps)
        scale = max(float(np.linalg.norm(analytic)), 1e-8)
        worst_rel = max(worst_rel, float(np.linalg.norm(numeric - analytic)) / scale)

    # accepted objective values never increase; converged runs meet their tol
    worst_rise = 0.0
    worst_kkt = 0.0
    unconverged = 0
    solves = 0
    while solves < 10:
        ds = random_dataset(rng, 20, 40)
        lam_cap, _, _ = ds.lambda_max
        if lam_cap <= 0.0:
            continue
        solves += 1
        lam = 0.4 * lam_cap
        model, objectives = objectives_by_iteration(ds, lam, SolverOptions(tol=9e-10))
        if not model.converged:
            unconverged += 1
            continue
        rises = np.diff(objectives) / np.maximum(1.0, np.abs(objectives[:-1]))
        worst_rise = max(worst_rise, float(rises.max()))
        worst_kkt = max(worst_kkt, kkt_report(ds, model, lam).max_residual)
    ok = (
        worst_rel <= 1e-5
        and worst_rise <= 1e-12
        and worst_kkt <= 1e-9
        and unconverged == 0
    )
    verdict(
        6,
        "solver numerics",
        ok,
        f"100 gradient triples, max rel error {worst_rel:.3e}; "
        f"max relative objective rise {worst_rise:.2e}; max converged KKT {worst_kkt:.2e}",
    )


def test_criterion_7_screening_scales_linearly():
    # 90%-sparse columns keep both working sets well inside the cache
    # hierarchy, so the per-element cost is the same at both sizes; the
    # dense 80MB set trips a bandwidth cliff on this box that has nothing
    # to do with the algorithm
    rng = np.random.default_rng(72026)
    n, m_big = 1000, 10_000
    x = rng.normal(size=(n, m_big))
    x[rng.random(size=x.shape) >= 0.1] = 0.0
    y = random_labels(rng, n)
    big = Dataset.from_dense(x, y)
    small = big.subset(np.arange(m_big // 2))
    setups = {}
    for name, ds in (("m", small), ("2m", big)):
        lam_cap = ds.lambda_max[0]
        theta1 = theta_at_lambda_max(ds)
        ctx = build_context(theta1, lam_cap, 0.5 * lam_cap, ds)
        ds.stats, ds.sq_norm  # the Dataset's O(nnz) passes stay out of the timing
        setups[name] = ctx
        for _ in range(3):  # warm-up, including the lazily built column index
            screen_all(ctx)
    # the sizes alternate run by run: timing all of one size and then all
    # of the other lets machine drift, or allocator state left by earlier
    # calls, land on one size only and skew the ratio
    runs = {name: [] for name in setups}
    for _ in range(25):
        for name, ctx in setups.items():
            begin = time.perf_counter()
            screen_all(ctx)
            runs[name].append(time.perf_counter() - begin)
    medians = {name: float(np.median(times)) for name, times in runs.items()}
    ratio = medians["2m"] / medians["m"]
    ok = 1.6 <= ratio <= 2.5
    verdict(
        7,
        "linear scaling in m",
        ok,
        f"n={n}: t(m={m_big // 2}) {medians['m'] * 1e3:.2f}ms, "
        f"t(2m={m_big}) {medians['2m'] * 1e3:.2f}ms, ratio {ratio:.2f}",
    )


def test_criterion_8_path_verify():
    rng = np.random.default_rng(82026)
    # both solves must land well inside 1e-8 of their optima for the
    # weight comparison to be meaningful
    config = PathConfig(
        grid_size=8, ratio=0.8, verify=True, solver=SolverOptions(tol=1e-11)
    )
    violations = 0
    worst_diff = 0.0
    unconverged = 0
    steps = 0
    for _ in range(20):
        ds = random_dataset(rng, 10, 100)
        report = run_path(ds, config)
        # The independent check: every step solved on all features.
        full = run_path(ds, dataclasses.replace(config, screen=False, verify=False))
        for step, reference in zip(report.steps, full.steps):
            steps += 1
            if not (step.converged and reference.converged):
                unconverged += 1
            violations += step.violations or 0  # None only when unconverged
            worst_diff = max(worst_diff, float(np.max(np.abs(step.weights - reference.weights))))
    ok = violations == 0 and worst_diff <= 1e-8 and unconverged == 0
    verdict(
        8,
        "end-to-end path",
        ok,
        f"20 instances, {steps} steps, {violations} violations, "
        f"max screened vs full weight diff {worst_diff:.3e}, {unconverged} unconverged",
    )
