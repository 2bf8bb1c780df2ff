"""Traced mode: spans around the calls into each ``rsgd`` layer.

The program is not changed.  ``install`` replaces module attributes that
callers look up at call time (``rsgd.rng.randints``, ``rsgd.driver.combine_batch``,
``rsgd.cli.run_many``, ...) and methods on the plan, oracle, manifold and
schedule classes with wrappers that record one span per call: name, start,
end and the enclosing span.  Spans stay in flat arrays in memory and are
written out once at the end.  A span's self time is its duration minus the
durations of its direct children.

Layer figures of the iteration loop (``us_per_call`` of the batch draw,
gradients, retraction, ...) are taken over spans inside a run call only, so
diagnostics that call the same methods on other arrays do not mix in.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from array import array
from collections import Counter

import numpy as np

RUN = "driver.run"
RNG = ("rng.stream_keys", "rng.randints", "rng.weighted_indices")


def _count_draw(counts, args, kwargs, out):
    counts["batching.outcomes_drawn"] += out.size


def _count_run(counts, args, kwargs, out):
    # the record is whatever arrays the returned trajectories hold; rows of
    # one (S, T+1) array are separate views, arrays shared between
    # trajectories (the batch sizes) count once
    arrays = {id(a): a for tr in out for a in vars(tr).values() if isinstance(a, np.ndarray)}
    # steps come from the config: a record that keeps every k-th step has
    # fewer rows than steps
    steps = args[0].horizon
    counts["driver.steps"] += steps
    counts["driver.seed_steps"] += len(out) * steps
    counts["driver.record_bytes_max"] = max(counts["driver.record_bytes_max"],
                                            sum(a.nbytes for a in arrays.values()))


def _count_write(counts, args, kwargs, out):
    counts["driver.csv_rows"] += len(args[0].F)
    counts["driver.csv_bytes"] += os.path.getsize(args[1])


def _count_read(counts, args, kwargs, out):
    counts["driver.csv_rows_read"] += len(out.F)


class Tracer:
    """Span recorder; ``enabled`` switches recording without unwrapping."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.in_run = array("b")
        self.stack: list[int] = []
        self.run_depth = 0
        self.enabled = False
        self.counts: Counter = Counter()
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, count=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid, is_run = self._ids[name], name == RUN
        names, parents, starts, ends, in_run = (self.name, self.parent, self.start,
                                                self.end, self.in_run)
        stack, counts, clock, tracer = self.stack, self.counts, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            in_run.append(1 if is_run or tracer.run_depth else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            tracer.run_depth += is_run
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
                tracer.run_depth -= is_run
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, count=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, count))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap every traced layer of the imported ``rsgd`` package."""
        import rsgd.cli as cli
        from rsgd import batching, confinement, diagnostics, driver, manifolds, problems
        from rsgd import rng, schedules

        p = self.patch
        p(rng, "stream_keys", "rng.stream_keys")
        p(rng, "randints", "rng.randints")
        p(rng, "weighted_indices", "rng.weighted_indices")
        for plan in (batching.SegmentPlan, batching.SubsetPlan, batching.StratifiedPlan):
            p(plan, "draw_block", "batching.draw_block", _count_draw)
            p(plan, "weights_at", "batching.weights_at")
        p(driver, "combine_batch", "batching.combine_batch")
        p(cli, "enumerate_expectation", "batching.enumerate_expectation")
        for oracle in (problems.SphereMeanProblem, problems.RegularizedLeastSquaresProblem):
            for method in ("cost", "full_gradient", "sample_gradients"):
                p(oracle, method, f"problems.{method}")
        p(problems, "load_least_squares_csv", "problems.load_least_squares_csv")
        p(cli, "load_least_squares_csv", "problems.load_least_squares_csv")
        p(manifolds.Manifold, "norm", "manifolds.norm")
        p(manifolds.Manifold, "inner", "manifolds.inner")
        p(manifolds.Sphere, "retract_flagged", "manifolds.retract_flagged")
        p(manifolds.Euclidean, "retract_flagged", "manifolds.retract_flagged")
        p(schedules.PowerLawSchedule, "gamma", "schedules.gamma")
        p(schedules.ExplicitSchedule, "gamma", "schedules.gamma")
        p(driver, "run_many", RUN, _count_run)
        p(cli, "run_many", RUN, _count_run)
        p(confinement, "run_confined_deterministic_many", RUN, _count_run)
        p(confinement, "run_confined_adaptive_many", RUN, _count_run)
        p(driver.Trajectory, "write_csv", "driver.write_csv", _count_write)
        p(cli, "read_trajectory_csv", "driver.read_trajectory_csv", _count_read)
        p(confinement, "estimate_constants", "confinement.estimate_constants")
        p(confinement, "check_plain_confinement", "confinement.check_plain_confinement")
        for fn in ("convergence_metrics", "check_descent_inequality", "track_martingale",
                   "estimate_lipschitz", "martingale_summary"):
            p(diagnostics, fn, f"diagnostics.{fn}")
        for command in ("run", "check", "report"):
            p(cli, f"cmd_{command}", f"cli.{command}")

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "in_run": np.frombuffer(self.in_run, dtype=np.int8),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_metrics(tracer: Tracer, traced_walls, plain_walls) -> dict:
    """Per-layer figures from the recorded spans; 0 where a layer was not called."""
    a = tracer.arrays()
    names = list(a["names"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    in_run = a["in_run"].astype(bool)
    counts = tracer.counts

    def mask(name, run_only):
        if name not in names:
            return np.zeros(dur.size, dtype=bool)
        m = a["name"] == names.index(name)
        return m & in_run if run_only else m

    def mean(name, values=dur, run_only=False, scale=1e6):
        m = mask(name, run_only)
        return float(values[m].mean()) * scale if m.any() else 0.0

    def loop(name):
        return mean(name, run_only=True)

    steps = counts["driver.steps"]
    per_step = 1.0 / steps if steps else 0.0
    rng_calls = sum(int(mask(n, True).sum()) for n in RNG)
    write_s = float(dur[mask("driver.write_csv", False)].sum())
    read_s = float(dur[mask("driver.read_trajectory_csv", False)].sum())
    per_round = 1.0 / len(traced_walls)
    return {
        "driver.loop_self_us_per_step": float(self_time[mask(RUN, False)].sum()) * 1e6 * per_step,
        "rng.stream_keys.us_per_call": loop("rng.stream_keys"),
        "rng.randints.us_per_call": loop("rng.randints"),
        "rng.calls_per_step": rng_calls * per_step,
        "batching.draw_block.self_us_per_call": mean("batching.draw_block", self_time, True),
        "batching.outcomes_drawn": counts["batching.outcomes_drawn"] * per_round,
        "batching.weights_at.us_per_call": loop("batching.weights_at"),
        "batching.combine_batch.us_per_call": loop("batching.combine_batch"),
        "problems.sample_gradients.us_per_call": loop("problems.sample_gradients"),
        "manifolds.retract_flagged.us_per_call": loop("manifolds.retract_flagged"),
        "manifolds.norm.us_per_call": loop("manifolds.norm"),
        "manifolds.inner.us_per_call": loop("manifolds.inner"),
        "schedules.gamma.us_per_call": loop("schedules.gamma"),
        "problems.cost.us_per_call": loop("problems.cost"),
        "problems.full_gradient.us_per_call": loop("problems.full_gradient"),
        "problems.load_least_squares_csv.s": mean("problems.load_least_squares_csv", scale=1.0),
        "driver.record_mib": counts["driver.record_bytes_max"] / 2**20,
        "driver.seed_steps": counts["driver.seed_steps"] * per_round,
        "driver.write_csv.rows_per_s": counts["driver.csv_rows"] / write_s if write_s else 0.0,
        "driver.write_csv.mib": counts["driver.csv_bytes"] / 2**20 * per_round,
        "driver.csv_rows": counts["driver.csv_rows"] * per_round,
        "driver.read_trajectory_csv.rows_per_s":
            counts["driver.csv_rows_read"] / read_s if read_s else 0.0,
        "confinement.estimate_constants.s": mean("confinement.estimate_constants", scale=1.0),
        "confinement.check_plain_confinement.s":
            mean("confinement.check_plain_confinement", scale=1.0),
        "batching.enumerate_expectation.ms_per_call":
            mean("batching.enumerate_expectation", scale=1e3),
        "cli.run.self_s": mean("cli.run", self_time, scale=1.0),
        "cli.check.self_s": mean("cli.check", self_time, scale=1.0),
        "cli.report.self_s": mean("cli.report", self_time, scale=1.0),
        "diagnostics.convergence_metrics.ms_per_call":
            mean("diagnostics.convergence_metrics", scale=1e3),
        "diagnostics.check_descent_inequality.ms_per_call":
            mean("diagnostics.check_descent_inequality", scale=1e3),
        "diagnostics.track_martingale.ms_per_call":
            mean("diagnostics.track_martingale", scale=1e3),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
    }
