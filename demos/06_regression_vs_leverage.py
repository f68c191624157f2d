"""Regression row sampling against leverage scores: wall time and R^2.

The paper's regression sampler is meant to match leverage-score sampling
while being simpler and more scalable.  This demo draws s rows both ways
from the same `planted_regression` instance, with s the regression sample
size of d at epsilon 0.5, times each selection, fits weighted least
squares on each sample and scores the fit on the full data.  Leverage
scores take an SVD, O(n d^2); the cluster-based sampler runs k-medoids,
O(n k d) a pass, and reads targets only at the k medoid rows.

    python3 demos/06_regression_vs_leverage.py        # n=1e5, 5 seeds
    python3 demos/06_regression_vs_leverage.py full   # n up to 1e6, 20 seeds

The full grid holds n x d = 1e6 x 64 rows (512 MB) and the SVD's copies
of them, about 2 GB at its peak.
"""

import sys
import time

import numpy as np

from senselect import (RngStream, leverage_select, planted_regression,
                       r2_score, regression_sample_size, regression_select,
                       solve_least_squares)

K, EPSILON, LAMBDA = 10, 0.5, 0.5
FULL = len(sys.argv) > 1
GRID = [(n, d) for n in ((10 ** 5, 10 ** 6) if FULL else (10 ** 5,))
        for d in (16, 64)]
SEEDS = 20 if FULL else 5


def timed(select):
    """(sample, seconds) of one call of `select`."""
    start = time.perf_counter()
    sample = select()
    return sample, time.perf_counter() - start


def fit_r2(instance, sample) -> float:
    """R^2 on all rows of the weighted least-squares fit on the sample."""
    idx = sample.indices
    x = solve_least_squares(instance.A[idx], instance.b[idx],
                            weights=sample.weights)
    return r2_score(instance.A @ x, instance.b)


print(f"regression_select (k={K}, lambda={LAMBDA}) against leverage_select "
      f"at equal s, median over {SEEDS} seeds")
print(f"{'n':>9} {'d':>3} {'s':>5} | {'regression':>10} {'leverage':>9} "
      f"{'ratio':>6} | {'R^2 regr.':>9} {'R^2 lev.':>9}")
for n, d in GRID:
    s = regression_sample_size(d, EPSILON)
    times, r2 = np.empty((SEEDS, 2)), np.empty((SEEDS, 2))
    for seed in range(SEEDS):
        rng = RngStream(seed, f"demo06/{n}/{d}")
        instance = planted_regression(n, d, K, LAMBDA, rng.child("instance"),
                                      spread=0.2)[0]
        (sample, _), times[seed, 0] = timed(lambda: regression_select(
            instance, K, EPSILON, LAMBDA, rng.child("regression"), s=s))
        r2[seed, 0] = fit_r2(instance, sample)
        sample, times[seed, 1] = timed(
            lambda: leverage_select(instance, s, rng.child("leverage")))
        r2[seed, 1] = fit_r2(instance, sample)
        del instance, sample
    t, q = np.median(times, axis=0), np.median(r2, axis=0)
    print(f"{n:>9} {d:>3} {s:>5} | {t[0]:>9.3f}s {t[1]:>8.3f}s "
          f"{t[0] / t[1]:>6.2f} | {q[0]:>9.4f} {q[1]:>9.4f}")

print("\nratio is regression_select's time over leverage_select's; below 1")
print("the cluster-based sampler is faster.  Leverage's SVD grows with d^2,")
print("k-medoids with d, so the gap widens with d.")
