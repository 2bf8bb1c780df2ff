"""Keeping iterates in a ball, provably, before running anything.

For Tikhonov-regularized least squares the function rho(x) = ||x||^2 is a
confinement of the stochastic gradients: outside the ball rho <= rho0 with
rho0 = max_l y_l^2 / (4 tau), every <grad rho(x), H(x, l)> is nonnegative,
so the gradient field always points inward there.  Scaling a square-summable
rate schedule by a constant phi (built from two sampled suprema and the
schedule's tail mass) then guarantees, by induction, that every iterate
stays inside rho <= rho1 = rho0 + lambda c + b^2 sigma / 2.

The run below asserts the induction inequality at every recorded step; a
violation would raise instead of silently leaving the ball.
"""

import numpy as np

import rsgd

problem = rsgd.random_least_squares(dim=3, n_outcomes=8, seed=11, tau=0.2)
rho0 = problem.rho0_for_norm_squared()
spec = rsgd.norm_squared_confinement(rho0)
schedule = rsgd.PowerLawSchedule(0.5, 0.75)

report = rsgd.check_plain_confinement(spec, problem, n_samples=10_000, seed=3)
print(f"confinement certificate: pass={report.passed}, "
      f"min <grad rho, H> on the band = {report.min_margin:.4f}")
print(f"({report.notes})")

# b = "auto": b = max(b_est at b = 1, 1e-6), then the constants at that b
constants = rsgd.estimate_constants(spec, problem, schedule, lam=1.0, b="auto", theta=1.0,
                                    n_samples=2000, seed=3)
print()
print(f"rho0 = {constants.rho0:.3f}, rho1 = {constants.rho1:.3f}, "
      f"phi = {constants.phi:.3f} (rates are divided by phi)")
print(f"sampled suprema: Lambda_est = {constants.lambda_est:.3f}, "
      f"B_est = {constants.b_est:.3f}, sigma = {constants.sigma:.5f}")

cfg = rsgd.RunConfig(oracle=problem,
                     plan=rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(2)),
                     rate=schedule, x0=np.zeros(3), horizon=10_000, seed=0, rho=spec.rho)
runs = rsgd.run_confined_deterministic_many(cfg, constants, 20)
print()
print(f"20 confined runs of 10^4 steps: max rho reached = "
      f"{max(float(tr.rho.max()) for tr in runs):.4f} <= rho1 = {constants.rho1:.3f}")
print(f"mean final F = {np.mean([tr.F[-1] for tr in runs]):.5f}, "
      f"mean final |grad F| = {np.mean([tr.grad_norm[-1] for tr in runs]):.2e}")

print()
rate = rsgd.AdaptiveRate(0.5, 1.0, 0.25)
kappa = 0.5
spec_k = rsgd.norm_squared_confinement(2 * rho0 + 1.0, 2 * rho0 + 6.0, "batch_kappa")
check_k = rsgd.check_kappa_confinement(spec_k, problem, kappa, n_samples=3000, seed=5)
cfg_a = rsgd.RunConfig(oracle=problem,
                       plan=rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(2)),
                       rate=rate, x0=np.zeros(3), horizon=10_000, seed=0)
runs_a = rsgd.run_confined_adaptive_many(cfg_a, spec_k, kappa, n_seeds=20)
print(f"adaptive flavor (steps <= kappa = {kappa}): certificate pass={check_k.passed}, "
      f"max rho = {max(float(tr.rho.max()) for tr in runs_a):.4f} <= {spec_k.rho1:.3f}")
