"""Seeded input generators for the path benchmark.

Every input is sparse classification text produced from the seed with
numpy alone, so the program under test receives nothing but a text file.
The same seed always yields byte-identical files.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to generate its data and trace its path.

    ``instances`` independent datasets are drawn from the seed.  Workloads
    whose solve cost swings strongly between datasets use several, so a
    run measures the typical cost rather than one dataset's luck.
    """

    name: str
    why: str
    n: int  # samples
    m: int  # features
    density: float  # fraction of stored entries in a background feature
    signal: int  # planted features the labels depend on; 0 means coin-flip labels
    signal_density: float  # fraction of stored entries in a planted feature
    steps: int  # path grid size
    ratio: float  # geometric grid ratio below lambda_max
    instances: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's target case, m >> n near the top of the path: four
        # dense planted features carry the labels and enter first, and about
        # four features per step survive screening.  The reduced solves are
        # tiny, so the per-step O(nnz) passes over the full data
        # (screen_all, build_context's lambda_max, theta_from_primal) are a
        # large share of path time, and the largest input file makes parsing
        # dominate setup_s.  Rescaled from m=100k to m=50k so that a run holds
        # enough paths for a tail percentile.
        Workload(
            name="wide_top",
            why="m >> n at the top of the path: few features survive, so full-data screening passes weigh against tiny solves",
            n=1000,
            m=50_000,
            density=0.005,
            signal=4,
            signal_density=0.3,
            steps=30,
            ratio=0.97,
        ),
        # Deep into the path with m > n: the solver takes nearly all the
        # time and the kept set is several times the active set, so a better
        # solver or dynamic screening shows here.  FISTA iteration counts
        # vary by 20-35% from one dataset to the next, so each run traces
        # 48 small datasets instead of one large one (n=200, m=5k).
        Workload(
            name="mid_path",
            why="deep path with m > n: the solver dominates and kept far exceeds active, so solver and dynamic screening changes show",
            n=100,
            m=500,
            density=0.1,
            signal=0,
            signal_density=0.0,
            steps=5,
            ratio=0.8,
            instances=48,
        ),
        # Dense and tall with coin-flip labels: screening keeps every feature,
        # so a screening optimisation must show no change here, while the
        # kernels run on long dense columns and the solver's 80 power
        # iterations per solve are most of its time.  The path runs deep, to
        # 0.004 lambda_max, where nearly every feature is active, so the
        # kept-per-active ratio does not hinge on one dataset's lambda_max.
        Workload(
            name="tall_dense",
            why="n >> m dense, screening keeps every feature: bypasses screening and stresses kernels on long dense columns",
            n=1500,
            m=50,
            density=1.0,
            signal=0,
            signal_density=0.0,
            steps=6,
            ratio=0.4,
        ),
    )
}


def _entries(rng, n, m, density):
    """Row-major (rows, cols) of the stored entries of an n x m matrix."""
    if density >= 1.0:
        flat = np.arange(n * m, dtype=np.int64)
    else:
        size = int(round(density * n * m))
        flat = np.sort(rng.choice(n * m, size=size, replace=False))
    return np.divmod(flat, m)


def generate_instance(workload, rng):
    """Arrays (rows, cols, values, labels) of one dataset, rows sorted."""
    w = workload
    rows, cols = _entries(rng, w.n, w.m, w.density)
    if w.signal:
        planted = rng.choice(w.m, size=w.signal, replace=False)
        keep = ~np.isin(cols, planted)
        rows, cols = rows[keep], cols[keep]
        count = int(round(w.signal_density * w.n))
        rows = np.concatenate([rows] + [rng.choice(w.n, size=count, replace=False) for _ in planted])
        cols = np.concatenate([cols, np.repeat(planted, count)])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
    values = rng.standard_normal(rows.size)
    if w.signal:
        weights = np.zeros(w.m)
        weights[planted] = rng.choice([-1.0, 1.0], w.signal)
        score = np.bincount(rows, weights=values * weights[cols], minlength=w.n)
        labels = np.where(score + 0.5 * score.std() * rng.standard_normal(w.n) > 0, 1, -1)
    else:
        labels = rng.permutation(np.where(np.arange(w.n) % 2 == 0, 1, -1))
    return rows, cols, values, labels


def to_text(n, rows, cols, values, labels):
    """Sparse text, one ``<label> <index>:<value> ...`` line per sample."""
    starts = np.searchsorted(rows, np.arange(n + 1))
    tokens = [f" {c}:{v:.6g}" for c, v in zip((cols + 1).tolist(), values.tolist())]
    lines = [
        ("+1" if labels[i] > 0 else "-1") + "".join(tokens[starts[i]:starts[i + 1]])
        for i in range(n)
    ]
    return "\n".join(lines) + "\n"


def write_inputs(workload, seed, directory):
    """Write one text file per instance into ``directory``; return their paths."""
    paths = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(workload.instances)):
        rows, cols, values, labels = generate_instance(workload, np.random.default_rng(child))
        path = directory / f"{workload.name}-{seed}-{i}.txt"
        path.write_text(to_text(workload.n, rows, cols, values, labels), encoding="utf-8")
        paths.append(path)
    return paths
