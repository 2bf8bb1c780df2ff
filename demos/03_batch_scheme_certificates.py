"""Certifying batch schemes from the exact law of their batch gradient.

A batch gradient is h = sum_l c_l H(x, l), where c_l is the total weight
outcome l gets in the batch, and every scheme here knows the law of c: its
mean and covariance (``plan.coefficients(t)``).  So "the batch average is an
unbiased gradient estimator" is not a sampling claim: E h = sum_l E c_l H(x, l)
is summed over the N outcomes and compared against the exact gradient, at
any batch size, however many batches there are.  Cov(c) yields the exact
variance of the batch gradient, which is what growing batches and stratified
sampling are buying.  The segment b=8 row has 6**8 = 1,679,616 batches, past
the 10**6 that enumerating every batch could once afford.
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
    "segment b=8": rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(8)),
    "subset  b=2": rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(2)),
    "subset  b=4": rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(4)),
    "subset  b=6": rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(6)),
    "strat 2+2  ": rsgd.StratifiedPlan(problem.space, [(0, 1, 2), (3, 4, 5)], (2, 2)),
}

print(f"{'plan':<12} {'batches':>9} {'|E[h] - grad F|':>16} {'E|h - E h|^2':>16}")
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
