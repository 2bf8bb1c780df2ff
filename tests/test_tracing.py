"""perfbench's traced mode patches package attributes by name; a name that
goes missing must fail here, not only under ``perfbench/run.py --trace``."""

import importlib.util
from pathlib import Path

import numpy as np

import rsgd
from rsgd import confinement, driver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_the_package_and_unpatch_restores_it():
    tracer = _tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, (owner, attr)

        # a traced run records its span and its seed-steps
        problem = rsgd.random_sphere_mean(3, 4, seed=0)
        cfg = rsgd.RunConfig(oracle=problem,
                             plan=rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(2)),
                             rate=rsgd.PowerLawSchedule(0.5, 0.75),
                             x0=np.array([1.0, 0.0, 0.0]), horizon=5)
        tracer.enabled = True
        driver.run_many(cfg, 2)
        tracer.enabled = False
        assert "driver.run" in tracer.names
        assert tracer.counts["driver.seed_steps"] == 10
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)


def test_a_confined_run_is_one_traced_run():
    # confinement enters the engine through the run_many it imported, not
    # the patched driver.run_many: one span and S * T seed-steps per call
    problem = rsgd.random_least_squares(3, 6, seed=11, tau=0.2)
    plan = rsgd.SegmentPlan(problem.space, rsgd.BatchSizes.constant(2))
    rate = rsgd.PowerLawSchedule(0.5, 0.75)
    det = rsgd.norm_squared_confinement(problem.rho0_for_norm_squared())
    constants = rsgd.estimate_constants(det, problem, rate, 1.0, 1.0, 1.0, 200, seed=0)
    kappa = rsgd.norm_squared_confinement(4.0, 5.0, "kappa")
    cfg = rsgd.RunConfig(oracle=problem, plan=plan, rate=rate, x0=np.zeros(3), horizon=7,
                         rho=det.rho)
    runs = (lambda: confinement.run_confined_deterministic_many(cfg, constants, 3),
            lambda: confinement.run_confined_adaptive_many(
                rsgd.RunConfig(oracle=problem, plan=plan, rate=rsgd.AdaptiveRate(),
                               x0=np.zeros(3), horizon=7), kappa, 0.5, 3))
    for run in runs:
        tracer = _tracer()
        try:
            tracer.install()
            tracer.enabled = True
            run()
            tracer.enabled = False
        finally:
            tracer.unpatch()
        spans = np.frombuffer(tracer.name, dtype=np.int32)
        assert int((spans == tracer.names.index("driver.run")).sum()) == 1
        assert tracer.counts["driver.seed_steps"] == 3 * 7
