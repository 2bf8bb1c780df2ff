"""Throughput of the lockstep engine against the number of seeds S.

The engine iterates S seeded trajectories together.  Below a few hundred
seeds a step costs about the dispatch of its ~30 numpy calls, whatever S is,
so seed-steps per second grow almost linearly with S and then level off.
The state of a run is kept coordinate-major (its d coordinates outermost in
memory) when ``rsgd.manifolds.coordinate_major(S, d)`` says so: from a few
seeds on, for d < 8.  The layout column shows which one each S ran in; the
records are bitwise the same in both.

The problem is the README's: the sphere-mean cost on 16 targets in R^4,
segment batches of 4, rate 0.5/(t+1)^0.75.  A last row runs the same problem
in R^9 at S = 100: from d = 8 on the state stays row-major, the one regime
where many seeds sum a short batch axis (b = 4) by numpy's row-major
reduction.  Two more rows run least squares on 10,000 unit feature rows in
R^8 at S = 1 and 4, no-repetition batches of 8, rate 0.5/(t+1)^0.6: the
shape of perfbench's ``lsq_large_n`` step loop, row-major at any S because
d = 8.  Each figure is the best of three runs of ``rsgd.run_many`` over
a short horizon, in process CPU time, after one untimed run of the same
seeds: the first runs of a process also pay for its warm-up (22-30 us per
step at S = 1, against 14 later).  It prints figures and checks nothing; on
a shared machine they move by 10-30% from run to run.
"""

import time

import numpy as np

import rsgd

horizon = 500


def config(d):
    problem = rsgd.random_sphere_mean(dim=d, n_outcomes=16, seed=25)
    x0 = problem.manifold.random_point(np.random.default_rng(100))
    plan = rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(4))
    return rsgd.RunConfig(oracle=problem, plan=plan, rate=rsgd.PowerLawSchedule(c=0.5, p=0.75),
                          x0=x0, horizon=horizon, seed=0)


def least_squares_config():
    problem = rsgd.random_least_squares(dim=8, n_outcomes=10_000, seed=25, tau=0.1)
    plan = rsgd.SubsetPlan(problem.space, rsgd.BatchSizes.constant(8))
    return rsgd.RunConfig(oracle=problem, plan=plan, rate=rsgd.PowerLawSchedule(c=0.5, p=0.6),
                          x0=np.linspace(-1.0, 1.0, 8), horizon=horizon, seed=0)


def best_of_three(cfg, n_seeds):
    rsgd.run_many(cfg, n_seeds)  # untimed: the process warms up
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        rsgd.run_many(cfg, n_seeds)
        best = min(best, time.process_time() - start)
    return best


print(f"README sphere problem, segment b = 4, power rate, T = {horizon}, best of 3 after 1;")
print("then least squares, N = 10,000, no-repetition b = 8")
print(f"{'problem':>13} {'S':>6} {'d':>3} {'layout':>17} {'us/step':>9} {'seed-steps/s':>13}")
configs = {("sphere", 4): config(4), ("sphere", 9): config(9),
           ("least squares", 8): least_squares_config()}
for name, n_seeds, d in (("sphere", 1, 4), ("sphere", 10, 4), ("sphere", 32, 4),
                         ("sphere", 100, 4), ("sphere", 1000, 4), ("sphere", 100, 9),
                         ("least squares", 1, 8), ("least squares", 4, 8)):
    seconds = best_of_three(configs[name, d], n_seeds)
    layout = "coordinate-major" if rsgd.manifolds.coordinate_major(n_seeds, d) else "row-major"
    print(f"{name:>13} {n_seeds:>6} {d:>3} {layout:>17} {seconds / horizon * 1e6:>9.1f} "
          f"{n_seeds * horizon / seconds:>13,.0f}")
