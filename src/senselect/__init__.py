"""Loss-aware data selection via (k,z)-clustering and sensitivity sampling.

Select small weighted subsets of embedded datasets whose weighted loss sum
approximates the full dataset's loss sum, under a strict budget of loss
queries; includes the regression specialization and an evaluation harness.
"""

from .core import (BudgetExceededError, Dataset, LossOracle, LossTable,
                   OracleProtocolError, RngStream)
from .clustering import (CenterList, Clustering, assign, dz_seed, kmedoids,
                         refine, snap_centers, weighted_cost)
from .hoelder import (INFINITY, default_sample_count, estimate_lambda,
                      holder_percentiles, holder_ratios)
from .selection import (AUTO, SamplingPlan, WeightedSample, cluster,
                        data_select, data_select_rounds, draw, proxy_losses,
                        sample_size, sensitivity_plan, uniform_sample_size,
                        uniform_select)
from .regression import (ConstantTargetError, RegressionInstance,
                         RegressionPlan, coreset_objective_error,
                         leverage_scores, leverage_select, r2_score,
                         regression_sample_size, regression_select,
                         solve_least_squares)
from .evaluation import (PlantedInstance, TrialReport, delta_error,
                         exact_expectation_gap, planted_holder,
                         planted_regression, r2_benchmark,
                         rademacher_instance, run_trials, theorem1_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
