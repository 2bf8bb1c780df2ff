"""Certifying batch schemes by exhausting their outcome spaces.

Every scheme here knows its own outcome space, so "the batch average is an
unbiased gradient estimator" is not a sampling claim: it is checked by
enumerating every possible batch, weighting by its exact probability, and
comparing against the exact gradient.  The same enumeration yields the exact
variance of the batch gradient, which is what growing batches and stratified
sampling are buying.
"""

import numpy as np

import rsgd

problem = rsgd.random_sphere_mean(dim=4, n_outcomes=6, seed=3)
x = problem.manifold.random_point(np.random.default_rng(0))
g = problem.full_gradient(x)

plans = {
    "segment b=1": rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(1)),
    "segment b=2": rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(2)),
    "segment b=4": rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(4)),
    "subset  b=2": rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(2)),
    "subset  b=4": rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(4)),
    "subset  b=6": rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(6)),
    "strat 2+2  ": rsgd.StratifiedPlan(problem.space, [(0, 1, 2), (3, 4, 5)], (2, 2)),
}

print(f"{'plan':<12} {'outcomes':>9} {'|E[h] - grad F|':>16} {'E|h - grad F|^2':>16}")
for name, plan in plans.items():
    dev = rsgd.enumerate_expectation(problem, x, plan) - g
    var = rsgd.variance_report(problem, x, plan)
    print(f"{name:<12} {plan.outcome_count(0):>9} "
          f"{np.sqrt((dev**2).sum()):>16.2e} {var:>16.6f}")

print()
print("doubling an iid batch halves the variance; sampling without repetition")
print("beats iid at equal size; the full batch is exact (variance zero)")

growing = rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.geometric(1, 1.5, cap=6))
print()
print("a geometrically growing batch (cap 6):",
      [growing.batch_size(t) for t in range(10)])
print("cut points of the sample stream:     ",
      [growing.sizes.cut(t) for t in range(11)])
