"""perfbench's traced mode patches package attributes by name; a name that
goes missing must fail here, not only under ``perfbench/run.py --trace``."""

import importlib.util
from pathlib import Path

import numpy as np

import rsgd
from rsgd import driver

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
