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
reduction.  Each figure is the best of three runs of ``rsgd.run_many`` over
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


def best_of_three(cfg, n_seeds):
    rsgd.run_many(cfg, n_seeds)  # untimed: the process warms up
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        rsgd.run_many(cfg, n_seeds)
        best = min(best, time.process_time() - start)
    return best


print(f"README sphere problem, segment b = 4, power rate, T = {horizon}, best of 3 after 1")
print(f"{'S':>6} {'d':>3} {'layout':>17} {'us/step':>9} {'seed-steps/s':>13}")
configs = {d: config(d) for d in (4, 9)}
for n_seeds, d in ((1, 4), (10, 4), (32, 4), (100, 4), (1000, 4), (100, 9)):
    seconds = best_of_three(configs[d], n_seeds)
    layout = "coordinate-major" if rsgd.manifolds.coordinate_major(n_seeds, d) else "row-major"
    print(f"{n_seeds:>6} {d:>3} {layout:>17} {seconds / horizon * 1e6:>9.1f} "
          f"{n_seeds * horizon / seconds:>13,.0f}")
