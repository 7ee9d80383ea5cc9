"""Seeded input generators for the benchmark workloads.

Every generator takes a key, a tuple of non-negative ints derived from
the workload seed, and the same key always yields byte-identical CSV
files and identical arrays. The program under test only ever sees what
these functions produce.
"""

import numpy as np

K = 4                      # classes in both CSV shapes
FEATURES = 8               # numeric columns in both CSV shapes
CATEGORIES = ("red", "green", "blue")
LABELS = ("ash", "birch", "cedar", "dune")

# The class centres are fixed, so every key draws a fresh sample from the
# same population: the work a run does varies with its sample, not with a
# different problem per seed.
_POPULATION = np.random.default_rng(1108)
NUMERIC_CENTERS = _POPULATION.normal(0.0, 1.0, (K, FEATURES))
LOWCARD_CENTERS = _POPULATION.uniform(1.5, 5.5, (K, FEATURES))


def _labels(rng, m):
    """Uniform labels; the first and last rows get different classes so
    the reversed file numbers its labels in a different order."""
    y = rng.integers(0, K, m)
    if y[0] == y[-1]:
        y[-1] = (y[0] + 1) % K
    return y


def _category(rng, y):
    # correlated with the label but ambiguous, so categorical splits help
    return (y + rng.integers(0, 2, len(y))) % len(CATEGORIES)


def _write(path, columns, y, cats):
    header = [f"x{j}" for j in range(len(columns[0]))] + ["color", "label"]
    lines = [",".join(header)]
    for row, c, label in zip(columns, cats, y):
        lines.append(",".join(row + [CATEGORIES[c], LABELS[label]]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def numeric_csv(path, key, m):
    """k=4 Gaussian classes over 8 numeric columns written with four
    decimals (so nearly every value is distinct), plus one categorical."""
    rng = np.random.default_rng(key)
    y = _labels(rng, m)
    x = NUMERIC_CENTERS[y] + rng.normal(0.0, 1.0, (m, FEATURES))
    cats = _category(rng, y)
    _write(path, [[f"{v:.4f}" for v in row] for row in x], y, cats)


def lowcard_csv(path, key, m):
    """k=4 classes over 8 integer columns taking the values 0..7, plus
    one categorical: few distinct thresholds per column."""
    rng = np.random.default_rng(key)
    y = _labels(rng, m)
    noise = rng.normal(0.0, 2.0, (m, FEATURES))
    x = np.clip(np.rint(LOWCARD_CENTERS[y] + noise), 0, 7).astype(int)
    cats = _category(rng, y)
    _write(path, [[str(v) for v in row] for row in x], y, cats)


def reverse_rows(src, dst):
    """Copy a CSV with its data rows in reverse order (header kept)."""
    with open(src) as fh:
        header, *rows = fh.read().splitlines()
    with open(dst, "w", newline="") as fh:
        fh.write("\n".join([header] + rows[::-1]) + "\n")


def finite_space(key, m, n, k):
    """Labels in 1..k for m examples and an (n, m) table of predictions in
    1..k: the inputs of an indexed dataset and n table classifiers."""
    rng = np.random.default_rng(key)
    labels = rng.integers(1, k + 1, m)
    predictions = rng.integers(1, k + 1, (n, m))
    return labels, predictions


def potential_gamma(key):
    """Assumed edge for the potential computations, in [0.05, 0.2]."""
    return round(float(np.random.default_rng(key).uniform(0.05, 0.2)), 4)
