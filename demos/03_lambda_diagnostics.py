"""Smoothness-constant diagnostics.

The sampler needs per-cluster constants Lambda_i bounding how fast the loss
moves with embedding distance.  This demo compares the full-table ratio
percentiles (a diagnostic that reads every loss) with the query-budgeted
estimator (which reads only a handful per cluster).
"""

import math

import numpy as np

from senselect import (LossOracle, RngStream, default_sample_count,
                       estimate_lambda, holder_percentiles, holder_ratios,
                       planted_holder)

K = 4
inst = planted_holder(n=1000, d=6, k=K, z=2, separation=20.0,
                      lambda_true=0.7, rng=RngStream(0, "lam/instance"))

# full-table diagnostic: every ratio equals the planted constant
ratios = holder_ratios(inst.clustering, inst.losses)
print("ratio percentiles over the full table:")
for p, v in holder_percentiles(ratios).items():
    print(f"  {p:>4.0f}%: {v:.3f}")

# query-budgeted estimate: t draws per cluster, scaled by ln(n)
t = default_sample_count(K)
oracle = LossOracle.from_table(inst.losses)
lam = estimate_lambda(inst.clustering, oracle, t,
                      RngStream(1, "lam/estimate"))
print(f"\nbudgeted estimate with t={t} draws/cluster "
      f"({oracle.queries_used} queries total):")
cap = inst.lambda_true * math.log(inst.data.n)
for i, v in enumerate(lam):
    print(f"  cluster {i}: {v:.3f}  "
          f"(true {inst.lambda_true}, cap lambda*ln(n) = {cap:.3f})")
print("\nthe estimate deliberately overshoots the true constant (by at most")
print("ln(n)) so the sampling probabilities stay conservative")
