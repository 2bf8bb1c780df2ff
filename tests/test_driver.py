import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import (
    AdaptiveRate,
    BatchSizes,
    ExplicitSchedule,
    PowerLawSchedule,
    RegularizedLeastSquaresProblem,
    RunConfig,
    SegmentPlan,
    SphereMeanProblem,
    StratifiedPlan,
    SubsetPlan,
    Trajectory,
    random_least_squares,
    random_sphere_mean,
    read_trajectory_csv,
    run_adaptive,
    run_deterministic,
    run_many,
)
from rsgd import budget, records
from rsgd.driver import _run_block
from rsgd.manifolds import _CM_SEEDS, Sphere, coordinate_major
from rsgd.schedules import ScaledSchedule

from reference import (
    AdaptiveState,
    DirectLeastSquares,
    batch_gradient,
    draw_batch,
    rowwise_csv,
    running_min_grad_norm,
    stepwise_run,
)


@pytest.fixture(scope="module")
def sphere_problem():
    return random_sphere_mean(4, 6, seed=7)


@pytest.fixture(scope="module")
def x0(sphere_problem):
    return sphere_problem.manifold.random_point(np.random.default_rng(5))


def _cfg(problem, x0, rate, horizon, seed=1, **kw):
    plan = kw.pop("plan", None) or SegmentPlan(problem.space, BatchSizes.constant(2))
    return RunConfig(oracle=problem, plan=plan, rate=rate, x0=x0,
                     horizon=horizon, seed=seed, **kw)


def _same_trajectory(a, b):
    for name in ("F", "grad_norm", "step", "batch_grad_norm", "noise_inner"):
        if not np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True):
            return False
    return True


class TestBasics:
    def test_zero_horizon(self, sphere_problem, x0):
        tr = run_deterministic(_cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 0))
        assert len(tr.F) == 1
        assert tr.F[0] == pytest.approx(sphere_problem.cost(x0))
        assert np.isnan(tr.batch_grad_norm[0]) and tr.batch_size[0] == 0

    def test_record_count_and_finiteness(self, sphere_problem, x0):
        tr = run_deterministic(_cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 50))
        assert len(tr.F) == 51 and tr.status == "ok"
        assert np.all(np.isfinite(tr.F)) and np.all(np.isfinite(tr.grad_norm))

    def test_reproducible(self, sphere_problem, x0):
        cfg = _cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 200)
        assert _same_trajectory(run_deterministic(cfg), run_deterministic(cfg))

    def test_run_many_matches_single_runs(self, sphere_problem, x0):
        cfg = _cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 200, seed=3)
        block = run_many(cfg, 5)
        for k, tr in enumerate(block):
            single = run_deterministic(_cfg(sphere_problem, x0,
                                            PowerLawSchedule(0.5, 0.75), 200, seed=3 + k))
            assert tr.seed == 3 + k
            assert _same_trajectory(tr, single)

    def test_sphere_iterates_stay_on_manifold(self, sphere_problem, x0):
        cfg = _cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 500,
                   store_iterates=True)
        tr = run_deterministic(cfg)
        norms = np.sqrt((tr.iterates**2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_x0_validation(self, sphere_problem):
        with pytest.raises(ValueError, match="invariant"):
            _cfg(sphere_problem, np.array([1.0, 1.0, 0.0, 0.0]),
                 PowerLawSchedule(0.5, 0.75), 10)

    def test_space_mismatch_rejected(self, sphere_problem, x0):
        other = random_sphere_mean(4, 5, seed=1)
        plan = SegmentPlan(other.space, BatchSizes.constant(2))
        with pytest.raises(ValueError, match="sample space"):
            _cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 10, plan=plan)

    def test_rate_type_checked(self, sphere_problem, x0):
        cfg = _cfg(sphere_problem, x0, AdaptiveRate(), 10)
        with pytest.raises(TypeError):
            run_deterministic(cfg)
        cfg2 = _cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 10)
        with pytest.raises(TypeError):
            run_adaptive(cfg2)


class TestFixedPoint:
    def test_exact_stationary_start_never_moves(self):
        # H(0, l) = 0 exactly for zero labels, so every iterate is bitwise x0
        p = RegularizedLeastSquaresProblem(np.array([[1.0, 0.5], [0.2, 1.0]]),
                                           np.zeros(2), tau=0.3, region_rho1=4.0)
        cfg = RunConfig(oracle=p, plan=SubsetPlan(p.space, BatchSizes.constant(2)),
                        rate=AdaptiveRate(0.5, 1.0, 0.25), x0=np.zeros(2), horizon=100,
                        seed=0, store_iterates=True)
        tr = run_adaptive(cfg)
        assert np.all(tr.iterates == 0.0)
        assert np.all(tr.grad_norm == 0.0)

    def test_near_stationary_sphere_start(self):
        p = random_sphere_mean(4, 6, seed=9)
        xstar = p.target_mean / np.linalg.norm(p.target_mean)
        cfg = RunConfig(oracle=p, plan=SubsetPlan(p.space, BatchSizes.constant(6)),
                        rate=PowerLawSchedule(0.5, 0.75), x0=xstar, horizon=200, seed=0)
        tr = run_deterministic(cfg)
        assert tr.grad_norm.max() <= 1e-12


class TestAgainstReferenceLoop:
    def test_full_batch_gradient_descent_descends(self):
        p = random_least_squares(3, 5, seed=2, tau=0.2, region_rho1=9.0)
        sched = ExplicitSchedule((0.05,) * 300)
        cfg = RunConfig(oracle=p, plan=SubsetPlan(p.space, BatchSizes.constant(5)),
                        rate=sched, x0=np.zeros(3), horizon=300, seed=0)
        tr = run_deterministic(cfg)
        assert np.all(np.diff(tr.F) < 0.0)

    def test_full_batch_matches_reference_bitwise(self):
        p = random_sphere_mean(4, 6, seed=7)
        n = p.space.size
        sched = PowerLawSchedule(0.5, 0.75)
        x = p.manifold.random_point(np.random.default_rng(5))
        ref_f = [p.cost(x)]
        xr = x.copy()
        for t in range(200):
            g = p.sample_gradients(xr, np.arange(n)).mean(axis=0)
            xr = p.manifold.retract(xr, -sched.gamma(t) * g)
            ref_f.append(p.cost(xr))
        for plan in (SubsetPlan(p.space, BatchSizes.constant(n)),
                     StratifiedPlan(p.space, [(i,) for i in range(n)], [1] * n)):
            cfg = RunConfig(oracle=p, plan=plan, rate=sched, x0=x, horizon=200, seed=0)
            tr = run_deterministic(cfg)
            np.testing.assert_array_equal(tr.F, ref_f)


class TestScalarReferenceLoop:
    @pytest.mark.parametrize("make_plan", [
        lambda s: SegmentPlan(s, BatchSizes.constant(3)),
        lambda s: SubsetPlan(s, BatchSizes.constant(3)),
        lambda s: StratifiedPlan(s, [(0, 1, 2), (3, 4, 5)], (1, 2)),
    ], ids=["segment", "subset", "stratified"])
    def test_engine_matches_handwritten_loop(self, sphere_problem, x0, make_plan):
        # the engine must be indistinguishable from one step at a time:
        # the reference draw_batch + batch_gradient, then retract
        p = sphere_problem
        plan = make_plan(p.space)
        sched = PowerLawSchedule(0.5, 0.75)
        T, seed = 300, 11

        man = p.manifold
        x = x0.copy()
        ref_f, ref_g, ref_h = [], [], []
        for t in range(T):
            ref_f.append(float(p.cost(x)))
            g = p.full_gradient(x)
            ref_g.append(float(man.norm(x, g)))
            h = batch_gradient(p, x, draw_batch(plan, t, seed=seed))
            ref_h.append(float(man.norm(x, h)))
            x = man.retract(x, -sched.gamma(t) * h)
        ref_f.append(float(p.cost(x)))

        cfg = RunConfig(oracle=p, plan=plan, rate=sched, x0=x0, horizon=T, seed=seed)
        tr = run_deterministic(cfg)
        np.testing.assert_array_equal(tr.F, ref_f)
        np.testing.assert_array_equal(tr.grad_norm[:T], ref_g)
        np.testing.assert_array_equal(tr.batch_grad_norm[:T], ref_h)


class TestAdaptiveRule:
    def test_steps_match_state_replay(self, sphere_problem, x0):
        rate = AdaptiveRate(0.5, 1.0, 0.25)
        tr = run_adaptive(_cfg(sphere_problem, x0, rate, 300))
        state = AdaptiveState(rate)
        for t in range(300):
            assert tr.step[t] == state.eta()
            state.update(float(tr.batch_grad_norm[t]) ** 2)
        assert tr.step[300] == state.eta()

    def test_steps_nonincreasing(self, sphere_problem, x0):
        tr = run_adaptive(_cfg(sphere_problem, x0, AdaptiveRate(0.5, 1.0, 0.25), 500))
        assert np.all(np.diff(tr.step) <= 0.0)


class TestNonFinite:
    def test_divergent_run_aborts_with_status(self):
        # spectral scale ~50 with constant rate 1.0 diverges geometrically
        p = RegularizedLeastSquaresProblem(np.array([[10.0, 0.0], [0.0, 10.0]]),
                                           np.zeros(2), tau=0.1, region_rho1=1e6)
        cfg = RunConfig(oracle=p, plan=SubsetPlan(p.space, BatchSizes.constant(2)),
                        rate=ExplicitSchedule((1.0,) * 400), x0=np.array([1.0, 1.0]),
                        horizon=400, seed=0)
        tr = run_deterministic(cfg)
        assert tr.status == "nonfinite"
        assert tr.abort_t is not None
        assert np.isnan(tr.F[-1])


class TestRegionMonitor:
    def test_in_region_flags(self):
        p = random_least_squares(2, 4, seed=3, tau=0.05, region_rho1=1e-6)
        rho = lambda x: (x**2).sum(axis=-1)
        cfg = RunConfig(oracle=p, plan=SegmentPlan(p.space, BatchSizes.constant(1)),
                        rate=PowerLawSchedule(0.5, 0.75), x0=np.array([2.0, 0.0]),
                        horizon=20, seed=0, rho=rho, region_rho1=1e-6)
        tr = run_deterministic(cfg)
        assert tr.rho is not None
        assert not tr.in_region[0]

    def test_sphere_always_in_region(self, sphere_problem, x0):
        tr = run_deterministic(_cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 20))
        assert np.all(tr.in_region)


def test_csv_sink_nbytes_is_what_its_buffer_holds():
    # the figure the CLI checks against physical memory before a run
    for horizon in (20, 5000):
        sink = records.CsvSink([f"seed{s}.csv" for s in range(3)], horizon)
        held = sum(a.nbytes for a in sink.buf.values()) + sink.sizes.nbytes
        assert held == records.CsvSink.nbytes(3, horizon)


class TestCsv:
    def test_round_trip(self, tmp_path, sphere_problem, x0):
        tr = run_deterministic(_cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 30))
        path = tmp_path / "traj.csv"
        tr.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,F,grad_norm,step,batch_size,batch_grad_norm,rho,in_K"
        assert len(lines) == 32  # header + T + 1 rows
        back = read_trajectory_csv(path, seed=tr.seed)
        np.testing.assert_array_equal(back.F, tr.F)
        np.testing.assert_array_equal(back.grad_norm, tr.grad_norm)
        np.testing.assert_array_equal(back.step, tr.step)
        np.testing.assert_array_equal(back.batch_grad_norm, tr.batch_grad_norm,)
        np.testing.assert_array_equal(back.batch_size, tr.batch_size)

    def test_nonfinite_seeds_read_back_with_their_status(self, tmp_path):
        # rows scaled x30 and c = 0.9 diverge: every seed's record overflows
        rng = np.random.default_rng(3)
        p = RegularizedLeastSquaresProblem(30 * rng.normal(size=(16, 3)),
                                           30 * rng.normal(size=16), tau=0.2)
        cfg = RunConfig(oracle=p, plan=SegmentPlan(p.space, BatchSizes.constant(2)),
                        rate=PowerLawSchedule(0.9, 0.75), x0=np.zeros(3), horizon=200)
        trs = run_many(cfg, 3) + run_many(replace(cfg, horizon=20), 1)
        paths = [tmp_path / f"run{i}.csv" for i in range(len(trs))]
        for tr, path in zip(trs, paths):
            tr.write_csv(path)
        assert [tr.status for tr in trs] == ["nonfinite"] * 3 + ["ok"]
        for tr, path in zip(trs, paths):
            back = read_trajectory_csv(path, seed=tr.seed)
            assert (back.status, back.abort_t) == (tr.status, tr.abort_t)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory_csv(path)


# NaN, infinities, signed zeros, the subnormal extremes, the normal extremes
_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                   2.2250738585072009e-308, 2.2250738585072014e-308, 1e308, -1e308,
                   1.7976931348623157e308]


def _csv_trajectory(data) -> Trajectory:
    """A trajectory of 1 to three CSV chunks of rows whose float columns hold
    random bit patterns (every class of double) plus drawn special values."""
    chunk = records._CSV_CHUNK
    n = data.draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1])
                  | st.integers(1, 3 * chunk))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def column():
        col = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        specials = data.draw(st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(),
                                      max_size=12))
        col[rng.integers(0, n, size=len(specials))] = specials
        return col

    return Trajectory(
        seed=0, F=column(), grad_norm=column(), step=column(),
        batch_size=rng.integers(0, 10**6, size=n), batch_grad_norm=column(),
        noise_inner=column(), in_region=rng.random(n) < data.draw(st.floats(0.0, 1.0)),
        rho=column() if data.draw(st.booleans()) else None,
    )


def _same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_bytes_equal_rowwise_writer(tmp_path_factory, data):
    tr = _csv_trajectory(data)
    tmp = tmp_path_factory.mktemp("csv")
    tr.write_csv(tmp / "chunked.csv")
    rowwise_csv(tr, tmp / "rowwise.csv")
    assert (tmp / "chunked.csv").read_bytes() == (tmp / "rowwise.csv").read_bytes()


def _run_records(data, rng, all_steps):
    """One run as one ``records.Records`` block, and its trajectories: one
    horizon, one batch-size column and the first steps of all_steps; each
    seed shares the run's steps, is retired at a drawn step (NaN from there
    on), has steps of its own, as under the adaptive rule, or has the run's
    steps with the signs of their zeros and NaNs flipped: equal in value,
    not in bits."""
    n = data.draw(st.sampled_from([1, records._CSV_CHUNK]) | st.integers(1, all_steps.size))
    steps = all_steps[:n]
    n_seeds = data.draw(st.integers(1, 6))
    step = np.tile(steps, (n_seeds, 1))
    for row in step:
        kind = data.draw(st.sampled_from(["shared", "retired", "own", "flipped"]))
        if kind == "retired":
            row[data.draw(st.integers(0, n - 1)):] = np.nan
        elif kind == "own":
            row[:] = rng.random(n)
        elif kind == "flipped":
            flip = (steps == 0) | np.isnan(steps)
            row[flip] = -steps[flip]
    cols = {name: rng.random((n_seeds, n))
            for name in ("F", "grad_norm", "batch_grad_norm", "noise_inner")}
    rho = rng.random((n_seeds, n)) if data.draw(st.booleans()) else None
    in_region = rng.random((n_seeds, n)) < 0.5 if data.draw(st.booleans()) else None
    sizes = rng.integers(0, 3, size=n)
    rec = records.Records(t0=0, step=step, batch_size=sizes, rho=rho, in_region=in_region,
                          iterates=None, **cols)
    trs = [Trajectory(seed=i, step=step[i], batch_size=sizes,
                      rho=None if rho is None else rho[i],
                      in_region=np.ones(n, dtype=bool) if in_region is None else in_region[i],
                      **{name: col[i] for name, col in cols.items()})
           for i in range(n_seeds)]
    return rec, trs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csvs_bytes_equal_rowwise_writer(tmp_path_factory, data):
    # the seeds of one run, streamed through a CsvSink, over random bit
    # patterns and special values as steps, with signed zeros in every run:
    # a file reuses the first file's row template only for bitwise equal steps
    chunk = data.draw(st.sampled_from([1, 7, 64]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    all_steps = rng.integers(0, 2**64, size=3 * chunk, dtype=np.uint64).view(np.float64)
    all_steps[rng.random(all_steps.size) < 0.3] = data.draw(st.sampled_from(_SPECIAL_FLOATS))
    all_steps[rng.random(all_steps.size) < 0.1] = data.draw(st.sampled_from([0.0, -0.0]))
    tmp = tmp_path_factory.mktemp("csvs")
    with mock.patch.object(records, "_CSV_CHUNK", chunk):
        rec, trs = _run_records(data, rng, all_steps)
        sink = records.CsvSink([tmp / f"seed{tr.seed}.csv" for tr in trs], trs[0].horizon)
        sink.put(rec)
        sink.close([tr.seed for tr in trs], ["ok"] * len(trs), [None] * len(trs))
        sink.publish()
    for tr in trs:
        rowwise_csv(tr, tmp / "rowwise.csv")
        assert (tmp / f"seed{tr.seed}.csv").read_bytes() == (tmp / "rowwise.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_round_trip_is_bitwise(tmp_path_factory, data):
    tr = _csv_trajectory(data)
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    tr.write_csv(path)
    back = read_trajectory_csv(path, seed=tr.seed)
    for name in ("F", "grad_norm", "step", "batch_grad_norm"):
        assert _same_bits(getattr(back, name), getattr(tr, name)), name
    np.testing.assert_array_equal(back.batch_size, tr.batch_size)
    np.testing.assert_array_equal(back.in_region, tr.in_region)
    if tr.rho is None or np.isnan(tr.rho).all():
        assert back.rho is None
    else:
        assert _same_bits(back.rho, tr.rho)


def test_csv_write_memory_is_flat(tmp_path):
    n = 100_001
    rng = np.random.default_rng(3)
    tr = Trajectory(seed=0, F=rng.random(n), grad_norm=rng.random(n), step=rng.random(n),
                    batch_size=np.full(n, 4), batch_grad_norm=rng.random(n),
                    noise_inner=rng.random(n), in_region=np.ones(n, dtype=bool),
                    rho=rng.random(n))
    tracemalloc.start()
    try:
        tr.write_csv(tmp_path / "long.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole file as one string would take about 10 MiB
    assert peak < 4 * 2**20


# eight seeds of one run, 100,001 rows each, streamed through a CsvSink in
# blocks of 1,000 steps: four share the run's steps and four have their own;
# prints the growth of the process's peak RSS, in KiB, over writing them.
# The peak is VmHWM, this process's own since its exec: ru_maxrss also
# counts the RSS of the interpreter it was forked from.
_EIGHT_LONG_FILES = """
import sys
import numpy as np
from rsgd import records
n = 100_001
rng = np.random.default_rng(3)
steps = rng.random(n)
step = np.stack([steps if s < 4 else rng.random(n) for s in range(8)])
cols = {name: rng.random((8, n))
        for name in ("F", "grad_norm", "batch_grad_norm", "noise_inner", "rho")}
sink = records.CsvSink([f"{sys.argv[1]}/long{s}.csv" for s in range(8)], n - 1)

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

before = peak_kib()
for t0 in range(0, n, 1000):
    k = min(1000, n - t0)
    block = {name: col[:, t0:t0 + k] for name, col in cols.items()}
    sink.put(records.Records(t0=t0, step=step[:, t0:t0 + k], batch_size=np.full(k, 4),
                            in_region=None, iterates=None, **block))
sink.close(range(8), ["ok"] * 8, [None] * 8)
sink.publish()
print(peak_kib() - before)
"""


def test_csvs_write_memory_is_flat(tmp_path):
    # in a fresh interpreter, whose heap holds no freed memory that a large
    # string could reuse unseen; tracing every cell's allocations with
    # tracemalloc took six times as long
    src = str(Path(records.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _EIGHT_LONG_FILES, str(tmp_path)],
                         env=os.environ | {"PYTHONPATH": src}, capture_output=True, text=True,
                         check=True).stdout
    assert all((tmp_path / f"long{s}.csv").stat().st_size > 8 * 2**20 for s in range(8))
    # one file as one string would take about 10 MiB, the eight about 80 MiB
    assert int(out) < 4 * 1024


def test_running_min_helper(sphere_problem, x0):
    tr = run_deterministic(_cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 100))
    rm = running_min_grad_norm(tr)
    assert np.all(np.diff(rm) <= 0.0)
    assert rm[-1] == tr.grad_norm.min()


RECORDED = ("F", "grad_norm", "step", "batch_size", "batch_grad_norm", "noise_inner",
            "in_region", "rho")


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.seed, a.status, a.abort_t) == (b.seed, b.status, b.abort_t)
        for name in RECORDED:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if y is not None:
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name


def _plan(scheme, space, b=4):
    if scheme == "segment":
        return SegmentPlan(space, BatchSizes.constant(b))
    if scheme == "no_repetition":
        return SubsetPlan(space, BatchSizes.constant(b))
    half = space.size // 2
    return StratifiedPlan(space, [range(half), range(half, space.size)], (b // 2, b - b // 2))


RATES = {"power": PowerLawSchedule(0.5, 0.75), "adaptive": AdaptiveRate(0.5, 1.0, 0.25)}


def _blocked(steps, n_seeds, b, d):
    """Patch the block budget so that a block of batch size b in dimension d
    holds `steps` steps."""
    return mock.patch.object(budget, "WORDS", steps * n_seeds * max(b, d))


def _every_ok(y, ok):
    """The ok array of a retraction, its None (every row ok) made all True."""
    return np.ones(np.shape(y)[:-1], dtype=bool) if ok is None else ok


class FaultySphere(Sphere):
    """The sphere whose retraction, at chosen steps, reports one row degenerate
    or returns it non-finite; it counts its calls, one per step."""

    def __init__(self, dim, faults):
        super().__init__(dim)
        self.faults = faults
        self.calls = 0

    def retract_flagged(self, x, v):
        y, ok = super().retract_flagged(x, v)
        fault = self.faults.get(self.calls)
        self.calls += 1
        if fault is not None:
            kind, row = fault
            if kind == "degenerate":
                ok = _every_ok(y, ok).copy()
                ok[row] = False
            else:
                y = y.copy()
                y[row] = np.inf
        return y, ok


class TestBlockEngineAgainstStepwise:
    """The block engine against the step-at-a-time oracle: draw_batch per seed
    and step, batch_gradient, one gamma(t) call per step."""

    K = 5

    @pytest.mark.parametrize("n_seeds", [1, 3, 100])
    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("scheme", ["segment", "no_repetition", "stratified"])
    def test_block_boundaries(self, sphere_problem, x0, scheme, rate, n_seeds):
        plan, k = _plan(scheme, sphere_problem.space), self.K
        seeds = 20 + np.arange(n_seeds)
        for horizon in (0, 1, k - 1, k, k + 1, 2 * k + 3):
            cfg = _cfg(sphere_problem, x0, RATES[rate], horizon, plan=plan)
            with _blocked(k, n_seeds, 4, 4):
                got = _run_block(cfg, seeds)
            _assert_bitwise(got, stepwise_run(cfg, seeds))

    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("scheme", ["segment", "no_repetition", "stratified"])
    def test_default_block_length(self, scheme, rate):
        # 100 seeds x batch 8: 40 steps per block; 2K + 3 steps span three blocks
        p = random_sphere_mean(4, 16, seed=25)
        x = p.manifold.random_point(np.random.default_rng(100))
        k = budget.WORDS // (100 * 8)
        cfg = RunConfig(oracle=p, plan=_plan(scheme, p.space, 8), rate=RATES[rate], x0=x,
                        horizon=2 * k + 3, seed=0)
        seeds = np.arange(100)
        _assert_bitwise(_run_block(cfg, seeds), stepwise_run(cfg, seeds))

    @pytest.mark.parametrize("sizes", [
        BatchSizes.geometric(1, 1.5, cap=6),
        BatchSizes.explicit([1, 2, 2, 2, 3, 3, 1, 1, 1, 1, 6, 6, 6, 2, 2, 2, 2, 2, 2, 2]),
    ], ids=["geometric", "explicit"])
    @pytest.mark.parametrize("scheme", ["segment", "no_repetition"])
    def test_varying_sizes(self, sphere_problem, x0, scheme, sizes):
        plan_type = SegmentPlan if scheme == "segment" else SubsetPlan
        cfg = _cfg(sphere_problem, x0, PowerLawSchedule(0.5, 0.75), 20,
                   plan=plan_type(sphere_problem.space, sizes))
        seeds = np.arange(3)
        with _blocked(self.K, 3, 2, 4):
            got = _run_block(cfg, seeds)
        _assert_bitwise(got, stepwise_run(cfg, seeds))
        assert list(got[0].batch_size[:20]) == [sizes.at(t) for t in range(20)]

    def test_weighted_outcomes(self, x0):
        w = np.arange(1.0, 7.0)
        p = SphereMeanProblem(random_sphere_mean(4, 6, seed=7).targets, weights=w / w.sum())
        for plan in (SegmentPlan(p.space, BatchSizes.constant(3)),
                     StratifiedPlan(p.space, [(0, 1, 2), (3, 4, 5)], (1, 2))):
            cfg = _cfg(p, x0, PowerLawSchedule(0.5, 0.75), 2 * self.K + 3, plan=plan)
            seeds = np.arange(3)
            with _blocked(self.K, 3, 3, 4):
                got = _run_block(cfg, seeds)
            _assert_bitwise(got, stepwise_run(cfg, seeds))

    def test_confined_rate_divisor(self):
        # a confined run's rates: each gamma(t) divided by phi, one scalar division
        p = random_least_squares(3, 6, seed=11, tau=0.2, region_rho1=9.0)
        rho = lambda x: (x**2).sum(axis=-1)
        horizon = 2 * self.K + 3
        for rate in (PowerLawSchedule(0.5, 0.75), ExplicitSchedule((0.3, 0.2) * 10)):
            cfg = RunConfig(oracle=p, plan=SubsetPlan(p.space, BatchSizes.constant(2)),
                            rate=ScaledSchedule(rate, 1.7), x0=np.array([0.3, -0.2, 0.1]),
                            horizon=horizon, seed=0, rho=rho, region_rho1=9.0)
            seeds = np.arange(3)
            with _blocked(self.K, 3, 2, 3):
                got = _run_block(cfg, seeds)
            _assert_bitwise(got, stepwise_run(cfg, seeds))
            assert got[0].step[:horizon].tolist() == [rate.gamma(t) / 1.7 for t in range(horizon)]

    def test_divergent_run(self):
        p = RegularizedLeastSquaresProblem(np.array([[10.0, 0.0], [0.0, 10.0]]),
                                           np.zeros(2), tau=0.1, region_rho1=1e6)
        cfg = RunConfig(oracle=p, plan=SubsetPlan(p.space, BatchSizes.constant(2)),
                        rate=ExplicitSchedule((1.0,) * 400), x0=np.array([1.0, 1.0]),
                        horizon=400, seed=0)
        seeds = np.arange(2)
        got = _run_block(cfg, seeds)
        assert {tr.status for tr in got} == {"nonfinite"}
        _assert_bitwise(got, stepwise_run(cfg, seeds))

    @pytest.mark.parametrize("faults", [
        {0: ("degenerate", 0), 4: ("degenerate", 1), 5: ("nonfinite", 2)},
        {4: ("nonfinite", 0), 5: ("degenerate", 1), 9: ("nonfinite", 2)},
    ], ids=["degenerate-last", "nonfinite-last"])
    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_faults_on_block_edges(self, x0, rate, faults):
        # block length 5: steps 4 and 9 end a block, steps 0 and 5 start one
        seeds = np.arange(3)
        runs = []
        for engine in (_run_block, stepwise_run):
            p = random_sphere_mean(4, 6, seed=7)
            p.manifold = FaultySphere(4, faults)
            cfg = _cfg(p, x0, RATES[rate], 2 * self.K + 3)
            with _blocked(self.K, 3, 2, 4):
                runs.append(engine(cfg, seeds))
        got, want = runs
        _assert_bitwise(got, want)
        for tr in got:
            t, kind = next((t, kind) for t, (kind, row) in faults.items() if row == tr.seed)
            assert (tr.status, tr.abort_t) == (kind, t)


class TestLeastSquaresRecord:
    """Least-squares runs record F and grad F from moments; the iteration reads
    them only to retire non-finite rows, so everything but those records
    matches a run whose oracle sums over all rows bit for bit."""

    @staticmethod
    def _ls_cfg(p, scheme, rate, horizon, x0):
        return RunConfig(oracle=p, plan=_plan(scheme, p.space), rate=RATES[rate], x0=x0,
                         horizon=horizon, seed=4, store_iterates=True,
                         rho=lambda x: (x**2).sum(axis=-1), region_rho1=9.0)

    @pytest.mark.parametrize("n_seeds", [1, 3, 100])
    def test_batch_equals_single(self, n_seeds):
        p = random_least_squares(3, 40, seed=21, tau=0.2, region_rho1=9.0)
        cfg = self._ls_cfg(p, "no_repetition", "power", 30, np.array([1.0, -0.5, 0.3]))
        batch = run_many(cfg, n_seeds)
        alone = [run_deterministic(replace(cfg, seed=cfg.seed + k)) for k in range(n_seeds)]
        _assert_bitwise(batch, alone)
        for a, b in zip(batch, alone):
            assert a.iterates.tobytes() == b.iterates.tobytes()

    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("scheme", ["segment", "no_repetition", "stratified"])
    def test_against_direct_sums(self, scheme, rate):
        w = np.arange(1.0, 41.0)
        base = random_least_squares(3, 40, seed=22, tau=0.2, region_rho1=9.0)
        p = RegularizedLeastSquaresProblem(base.features, base.labels, base.tau,
                                           weights=w / w.sum(), region_rho1=9.0)
        seeds = np.arange(3)
        # no-repetition batches take uniform weights only
        for oracle in (base,) if scheme == "no_repetition" else (base, p):
            x0 = np.array([1.0, -0.5, 0.3])
            got = _run_block(self._ls_cfg(oracle, scheme, rate, 200, x0), seeds)
            want = _run_block(self._ls_cfg(DirectLeastSquares.of(oracle), scheme, rate, 200, x0),
                              seeds)
            self._assert_same_iteration(got, want)

    def test_divergent_run_against_direct_sums(self):
        p = RegularizedLeastSquaresProblem(np.array([[10.0, 0.0], [0.0, 10.0]]),
                                           np.zeros(2), tau=0.1, region_rho1=1e6)
        runs = []
        for oracle in (p, DirectLeastSquares.of(p)):
            cfg = RunConfig(oracle=oracle, plan=SubsetPlan(p.space, BatchSizes.constant(2)),
                            rate=ExplicitSchedule((1.0,) * 400), x0=np.array([1.0, 1.0]),
                            horizon=400, seed=0, store_iterates=True)
            runs.append(_run_block(cfg, np.arange(2)))
        got, want = runs
        assert {tr.status for tr in got} == {"nonfinite"}
        self._assert_same_iteration(got, want)

    @staticmethod
    def _assert_same_iteration(got, want):
        for a, b in zip(got, want):
            assert (a.seed, a.status, a.abort_t) == (b.seed, b.status, b.abort_t)
            for name in ("iterates", "step", "batch_size", "batch_grad_norm", "rho",
                         "in_region"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None) == (y is None), name
                if y is not None:
                    assert x.tobytes() == y.tobytes(), name
            for name in ("F", "grad_norm"):
                np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                           rtol=1e-12, atol=1e-13, err_msg=name)
            # <g, h - g> cancels where h is close to g: its error scales with |g| |h|
            with np.errstate(over="ignore", invalid="ignore"):
                scale = b.grad_norm * (b.grad_norm + b.batch_grad_norm)
                off = np.abs(a.noise_inner - b.noise_inner) > 1e-12 * (1.0 + scale)
            assert not off.any(), f"noise_inner at steps {np.flatnonzero(off)[:5]}"
            assert np.array_equal(np.isnan(a.noise_inner), np.isnan(b.noise_inner))


class PoisonedSphereMean(SphereMeanProblem):
    """The sphere-mean problem whose cost is infinite at one given point, so a
    run's record goes non-finite at the step whose iterate is that point,
    however many steps one cost call evaluates."""

    def __init__(self, targets, point):
        super().__init__(targets)
        self.point = np.asarray(point, dtype=float)

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x == self.point).all(axis=-1), np.inf, super().cost(x))


class TestRetirementOrder:
    """Non-finite records and failed retractions of one row, in every order,
    against the step-at-a-time oracle.  Batches of 4 at d = 4 make a block
    of K steps one record, so steps 0, 5 start one and 4, 9 end one."""

    K = 5

    def _runs(self, n_seeds, rate, record=None, faults=None, horizon=13):
        """Both engines with the cost infinite at the iterate of (step, row)
        ``record`` and the retraction faults {step: (kind, row)}."""
        base = random_sphere_mean(4, 6, seed=7)
        x0 = base.manifold.random_point(np.random.default_rng(5))
        seeds = 30 + np.arange(n_seeds)
        plan = SegmentPlan(base.space, BatchSizes.constant(4))
        point = np.full(4, np.nan)
        if record is not None:
            t, row = record
            clean = RunConfig(oracle=base, plan=plan, rate=RATES[rate], x0=x0, horizon=t,
                              seed=0, store_iterates=True)
            with _blocked(self.K, n_seeds, 4, 4):
                point = _run_block(clean, seeds)[row].iterates[t]
        runs = []
        for engine in (_run_block, stepwise_run):
            p = PoisonedSphereMean(base.targets, point)
            p.manifold = FaultySphere(4, faults or {})
            cfg = RunConfig(oracle=p, plan=plan, rate=RATES[rate], x0=x0, horizon=horizon,
                            seed=0)
            with _blocked(self.K, n_seeds, 4, 4):
                runs.append(engine(cfg, seeds))
        got, want = runs
        _assert_bitwise(got, want)
        return [(tr.status, tr.abort_t) for tr in got]

    @pytest.mark.parametrize("kind", ["degenerate", "nonfinite"])
    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_record_before_a_later_failed_retraction(self, rate, kind):
        # row 1 records inf at step 6; its retraction fails at step 8 of the
        # same block, which must not count
        got = self._runs(3, rate, record=(6, 1), faults={8: (kind, 1), 7: (kind, 2)})
        assert got == [("ok", None), ("nonfinite", 6), (kind, 7)]

    @pytest.mark.parametrize("kind", ["degenerate", "nonfinite"])
    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_record_and_failed_retraction_at_one_step(self, rate, kind):
        # the record at step t comes before the retraction at step t
        got = self._runs(3, rate, record=(7, 1), faults={7: (kind, 1)})
        assert got == [("ok", None), ("nonfinite", 7), ("ok", None)]

    @pytest.mark.parametrize("n_seeds", [1, 3, 100])
    @pytest.mark.parametrize("t", [0, 4, 5, 9])
    @pytest.mark.parametrize("event", ["record", "degenerate", "nonfinite"])
    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_events_on_block_edges(self, rate, event, t, n_seeds):
        row = n_seeds - 1
        if event == "record":
            got = self._runs(n_seeds, rate, record=(t, row))
            # at t = 0 every row is at x0
            hit = range(n_seeds) if t == 0 else [row]
            want = [("nonfinite", t) if i in hit else ("ok", None) for i in range(n_seeds)]
        else:
            got = self._runs(n_seeds, rate, faults={t: (event, row)})
            want = [(event, t) if i == row else ("ok", None) for i in range(n_seeds)]
        assert got == want


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       rate=st.sampled_from(sorted(RATES)), kind=st.sampled_from(["sphere", "least_squares"]),
       d=st.integers(2, 10), n_seeds=st.integers(1, 40), offset=st.integers(0, 2**40),
       words=st.integers(1, 160), horizon=st.integers(0, 30), data=st.data())
def test_batch_equals_single_property(scheme, rate, kind, d, n_seeds, offset, words, horizon,
                                      data):
    # the block length depends on S, so a row of a batch and its seed alone
    # cross block edges at different steps
    b = data.draw(st.integers(2 if scheme == "stratified" else 1, 8))
    if kind == "sphere":
        p = random_sphere_mean(d, 8, seed=d)
        x0, rho = p.manifold.random_point(np.random.default_rng(d)), None
    else:
        p = random_least_squares(d, 8, seed=d, tau=0.2)
        x0, rho = np.linspace(-1.0, 1.0, d), lambda x: (x * x).sum(axis=-1)
    cfg = RunConfig(oracle=p, plan=_plan(scheme, p.space, b), rate=RATES[rate], x0=x0,
                    horizon=horizon, seed=offset, store_iterates=True, rho=rho)
    run = run_adaptive if rate == "adaptive" else run_deterministic
    with mock.patch.object(budget, "WORDS", words):
        batch = run_many(cfg, n_seeds)
        alone = [run(replace(cfg, seed=offset + k)) for k in range(n_seeds)]
    _assert_bitwise(batch, alone)
    for row, single in zip(batch, alone):
        assert row.iterates.tobytes() == single.iterates.tobytes()


def _layout_plan(scheme, space, b):
    """A plan of batch size b, or of sizes 1, 2, 4, 8, 9, 9, ... for b =
    "geometric" (segment and no-repetition only)."""
    if scheme == "stratified":
        n = space.size
        strata = [range(n)] if b == 1 else [range(n // 2), range(n // 2, n)]
        return StratifiedPlan(space, strata, (1,) if b == 1 else (b // 2, b - b // 2))
    sizes = BatchSizes.geometric(1, 2.0, cap=9) if b == "geometric" else BatchSizes.constant(b)
    return (SegmentPlan if scheme == "segment" else SubsetPlan)(space, sizes)


def _trap(problem, point, kind):
    """Make ``problem`` fail at the iterate ``point``: its cost is infinite
    there ("record"), or its retraction from there degenerates or returns
    inf.  Every seed that reaches the point fails there, in a batch or alone."""
    at = lambda x: np.logical_and.reduce(x == point, axis=-1)
    if kind == "record":
        cost = type(problem).cost
        problem.cost = lambda x: np.where(at(x), np.inf, cost(problem, x))
        return

    class Trapped(type(problem.manifold)):
        def retract_flagged(self, x, v):
            y, ok = super().retract_flagged(x, v)
            if kind == "degenerate":
                return y, _every_ok(y, ok) & ~at(x)
            return np.where(at(x)[..., None], np.inf, y), ok

    problem.manifold = Trapped(problem.manifold.ambient_dim)


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       rate=st.sampled_from(sorted(RATES)), kind=st.sampled_from(["sphere", "least_squares"]),
       n_seeds=st.sampled_from([1, _CM_SEEDS - 1, _CM_SEEDS, 100]),
       d=st.sampled_from([2, 4, 7, 8, 9]), b=st.sampled_from([1, 4, 9, "geometric"]),
       fault=st.sampled_from([None, "record", "degenerate", "nonfinite"]),
       words=st.sampled_from([None, 7, 300]), horizon=st.integers(4, 12), data=st.data())
def test_batch_equals_stepwise_and_alone_in_both_layouts(scheme, rate, kind, n_seeds, d, b,
                                                         fault, words, horizon, data):
    # the seed counts lie on both sides of the layout crossover and d on both
    # sides of 8, geometric sizes carry b past 8, where numpy's reductions
    # turn pairwise, and a trapped row retires inside a block (or at its
    # edge, for short blocks)
    if scheme == "stratified" and b == "geometric":
        b = 9
    if kind == "sphere":
        p = random_sphere_mean(d, 12, seed=d)
        x0 = p.manifold.random_point(np.random.default_rng(d))
    else:
        p = random_least_squares(d, 12, seed=d, tau=0.2)
        x0 = np.linspace(-1.0, 1.0, d)
    cfg = RunConfig(oracle=p, plan=_layout_plan(scheme, p.space, b), rate=RATES[rate], x0=x0,
                    horizon=horizon, seed=7, store_iterates=True,
                    rho=None if kind == "sphere" else (lambda x: (x * x).sum(axis=-1)))
    seeds = 7 + np.arange(n_seeds)
    patch = mock.patch.object(budget, "WORDS", words or budget.WORDS)
    if fault is not None:
        # a record is taken at every t in [0, T], a retraction at t in [0, T - 1]
        # (at t = 0 every row is at x0, so a trapped retraction would fail for all)
        row = data.draw(st.integers(0, n_seeds - 1))
        t = data.draw(st.integers(0, horizon) if fault == "record" else st.integers(1, horizon - 1))
        with patch:
            point = _run_block(cfg, seeds)[row].iterates[t].copy()
        _trap(p, point, fault)
    with patch:
        batch = _run_block(cfg, seeds)
        alone = [_run_block(cfg, seeds[i : i + 1])[0] for i in range(n_seeds)]
    _assert_bitwise(batch, stepwise_run(cfg, seeds))
    _assert_bitwise(batch, alone)
    for tr, single in zip(batch, alone):
        assert tr.iterates.tobytes() == single.iterates.tobytes()
    if fault is not None:
        assert batch[row].status == ("degenerate" if fault == "degenerate" else "nonfinite")


@pytest.mark.parametrize("n_seeds, d", [(100, 4), (_CM_SEEDS - 1, 4), (100, 9)])
@pytest.mark.parametrize("first, second", [("record", "nonfinite"), ("degenerate", "record"),
                                           ("nonfinite", "degenerate")])
@pytest.mark.parametrize("scheme", ["segment", "no_repetition", "stratified"])
def test_rows_retiring_in_two_blocks_equal_stepwise_and_alone(scheme, first, second,
                                                              n_seeds, d):
    # blocks of 10 steps: block 0 records unmasked, row 1 retires in block 1
    # and row 2 in block 2, and every later record is masked, in both layouts
    p = random_sphere_mean(d, 12, seed=d)
    cfg = RunConfig(oracle=p, plan=_layout_plan(scheme, p.space, 4), rate=RATES["power"],
                    x0=p.manifold.random_point(np.random.default_rng(d)), horizon=40, seed=3,
                    store_iterates=True)
    seeds = 3 + np.arange(n_seeds)
    with _blocked(10, n_seeds, 4, d):
        clean = _run_block(cfg, seeds)
        for row, t, kind in [(1, 13, first), (2, 27, second)]:
            _trap(p, clean[row].iterates[t].copy(), kind)
        batch = _run_block(cfg, seeds)
        alone = [_run_block(cfg, seeds[i : i + 1])[0] for i in range(n_seeds)]
    assert [(tr.status, tr.abort_t) for tr in batch[:3]] == [
        ("ok", None), ("degenerate" if first == "degenerate" else "nonfinite", 13),
        ("degenerate" if second == "degenerate" else "nonfinite", 27)]
    _assert_bitwise(batch, stepwise_run(cfg, seeds))
    _assert_bitwise(batch, alone)
    for tr, single in zip(batch, alone):
        assert tr.iterates.tobytes() == single.iterates.tobytes()


class TestLastBlockRecordsFinalState:
    """The last block has one more column, x_T, and its one evaluation
    records the block and the final state: the records equal the
    step-at-a-time oracle's on every path to x_T, a non-finite x_T retiring
    its row, in both layouts; the cost, gradient and rho run once per block,
    never once more for x_T, and the sink takes one put per block."""

    K = 5

    @staticmethod
    def _problem(kind):
        if kind == "sphere":
            p = random_sphere_mean(4, 12, seed=4)
            return p, p.manifold.random_point(np.random.default_rng(4)), None
        p = random_least_squares(4, 12, seed=4, tau=0.2)
        return p, np.linspace(-1.0, 1.0, 4), lambda x: (x * x).sum(axis=-1)

    @pytest.mark.parametrize("horizon, fault", [
        (0, None), (1, None), (K, None), (2 * K, None), (2 * K + 3, None),
        (2 * K, ("record", 2 * K - 2)), (2 * K, ("record", 2 * K)),
        (2 * K, ("degenerate", 2 * K - 1)), (2 * K, ("nonfinite", 2 * K - 1)),
        (1, ("degenerate", 0)), (0, ("record", 0)),
    ], ids=["T=0", "T=1", "T=K", "T=2K", "T=2K+3", "retired-in-last-block",
            "nonfinite-x_T", "degenerate-at-T-1", "nonfinite-at-T-1", "T=1-degenerate",
            "T=0-nonfinite-x_0"])
    @pytest.mark.parametrize("n_seeds", [_CM_SEEDS - 1, 100])
    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("kind", ["sphere", "least_squares"])
    def test_records_equal_stepwise(self, kind, rate, n_seeds, horizon, fault):
        p, x0, rho = self._problem(kind)
        cfg = RunConfig(oracle=p, plan=_plan("segment", p.space), rate=RATES[rate], x0=x0,
                        horizon=horizon, seed=2, store_iterates=True, rho=rho,
                        region_rho1=None if rho is None else 3.0)
        seeds = 2 + np.arange(n_seeds)
        with _blocked(self.K, n_seeds, 4, 4):
            if fault is not None:
                kind_, t = fault
                _trap(p, _run_block(cfg, seeds)[1].iterates[t].copy(), kind_)
            got = _run_block(cfg, seeds)
        _assert_bitwise(got, stepwise_run(cfg, seeds))
        if fault is None:
            assert {tr.status for tr in got} == {"ok"}
        else:
            # a non-finite record retires its row at x_T too
            assert got[1].abort_t == fault[1]
            assert got[1].status == ("degenerate" if fault[0] == "degenerate" else "nonfinite")

    @pytest.mark.parametrize("horizon, blocks", [(0, 1), (1, 1), (K, 1), (2 * K, 2),
                                                 (2 * K + 3, 3)])
    @pytest.mark.parametrize("n_seeds", [_CM_SEEDS - 1, 100])
    def test_cost_runs_once_per_block(self, n_seeds, horizon, blocks):
        p, x0, rho = self._problem("least_squares")
        calls = {"cost": 0, "full_gradient": 0, "rho": 0}

        def counted(name, f):
            def call(x):
                calls[name] += 1
                return f(x)
            return call

        p.cost, p.full_gradient = counted("cost", p.cost), counted("full_gradient", p.full_gradient)
        cfg = RunConfig(oracle=p, plan=_plan("segment", p.space), rate=RATES["power"], x0=x0,
                        horizon=horizon, seed=0, rho=counted("rho", rho), region_rho1=3.0)
        with _blocked(self.K, n_seeds, 4, 4):
            _run_block(cfg, np.arange(n_seeds))
        assert calls == {"cost": blocks, "full_gradient": blocks, "rho": blocks}

    @pytest.mark.parametrize("horizon, blocks", [(0, 1), (1, 1), (K, 1), (2 * K, 2),
                                                 (2 * K + 3, 3)])
    @pytest.mark.parametrize("n_seeds", [_CM_SEEDS - 1, 100])
    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_one_put_per_block(self, rate, n_seeds, horizon, blocks):
        # the puts' columns tile 0 .. T, x_T the last column of the last one
        p, x0, rho = self._problem("least_squares")
        cfg = RunConfig(oracle=p, plan=_plan("segment", p.space), rate=RATES[rate], x0=x0,
                        horizon=horizon, seed=0, rho=rho, region_rho1=3.0)
        columns = []

        class Counting(records.MemorySink):
            def put(self, rec):
                columns.append((rec.t0, rec.t0 + rec.batch_size.size))
                super().put(rec)

        with _blocked(self.K, n_seeds, 4, 4):
            _run_block(cfg, np.arange(n_seeds), Counting(cfg, n_seeds))
        assert len(columns) == blocks
        assert [t for t0, t1 in columns for t in range(t0, t1)] == list(range(horizon + 1))


@pytest.mark.parametrize("workload, n_seeds, d, cm", [
    ("sphere_lockstep", 100, 4, True),
    ("sphere_lockstep, geometric single-seed run", 1, 4, False),
    ("cli_session", 32, 4, True),
    ("lsq_large_n", 4, 8, False),
])
def test_layout_of_each_benchmark_workload(workload, n_seeds, d, cm):
    assert coordinate_major(n_seeds, d) is cm


class _LayoutSpy(SphereMeanProblem):
    """Records whether each step's iterates arrive coordinate-major."""

    def sample_gradients(self, x, idx):
        self.seen.append(np.isfortran(x))
        return super().sample_gradients(x, idx)


@pytest.mark.parametrize("n_seeds, d", [(100, 4), (_CM_SEEDS, 2), (_CM_SEEDS - 1, 4),
                                        (100, 8), (1, 4)])
def test_layout_is_kept_for_the_whole_run(n_seeds, d):
    # geometric sizes change b during the run, and row 0 retires at step 5
    p = _LayoutSpy(random_sphere_mean(d, 12, seed=3).targets)
    p.seen = []
    x0 = p.manifold.random_point(np.random.default_rng(3))
    cfg = RunConfig(oracle=p, plan=_layout_plan("segment", p.space, "geometric"),
                    rate=RATES["power"], x0=x0, horizon=40, seed=0, store_iterates=True)
    point = _run_block(cfg, np.arange(n_seeds))[0].iterates[5].copy()
    _trap(p, point, "nonfinite")
    p.seen = []
    out = _run_block(cfg, np.arange(n_seeds))
    assert out[0].abort_t == 5
    assert p.seen == [coordinate_major(n_seeds, d)] * 40


@settings(max_examples=25, deadline=None)
@given(rate=st.sampled_from(sorted(RATES)), n_seeds=st.sampled_from([1, 3, 9, 70]),
       horizon=st.integers(0, 150), chunk=st.sampled_from([1, 7, 64, 1024]), data=st.data())
def test_streamed_csvs_equal_the_rowwise_csvs_of_the_run(tmp_path_factory, rate, n_seeds,
                                                         horizon, chunk, data):
    # a run streamed into a CsvSink writes, per seed, the bytes of the same
    # run kept in memory written one row at a time: chunks that end inside
    # blocks and at T, seeds retired at drawn steps, and the adaptive rule's
    # steps of each seed's own
    faults = {data.draw(st.integers(0, max(0, horizon - 1))): ("nonfinite", row)
              for row in data.draw(st.sets(st.integers(0, n_seeds - 1), max_size=3))}
    tmp = tmp_path_factory.mktemp("stream")

    def cfg():
        p = random_sphere_mean(4, 6, seed=7)
        p.manifold = FaultySphere(4, dict(faults))
        x = Sphere(4).random_point(np.random.default_rng(5))
        return RunConfig(oracle=p, plan=SegmentPlan(p.space, BatchSizes.constant(2)),
                         rate=RATES[rate], x0=x, horizon=horizon, seed=10)

    with mock.patch.object(records, "_CSV_CHUNK", chunk), _blocked(5, n_seeds, 2, 4):
        trs = run_many(cfg(), n_seeds)
        sink = records.CsvSink([tmp / f"run_seed{tr.seed}.csv" for tr in trs], horizon)
        ends = run_many(cfg(), n_seeds, sink)
    assert not list(tmp.glob("run_seed*.csv"))  # under their part names until published
    sink.publish()
    assert [(e.seed, e.status, e.abort_t) for e in ends] == \
        [(tr.seed, tr.status, tr.abort_t) for tr in trs]
    for tr in trs:
        rowwise_csv(tr, tmp / "rowwise.csv")
        assert (tmp / f"run_seed{tr.seed}.csv").read_bytes() == (tmp / "rowwise.csv").read_bytes()


def test_csv_sink_discard_leaves_no_file(tmp_path):
    p = random_sphere_mean(4, 6, seed=7)
    cfg = RunConfig(oracle=p, plan=SegmentPlan(p.space, BatchSizes.constant(2)),
                    rate=RATES["power"], x0=Sphere(4).random_point(np.random.default_rng(5)),
                    horizon=3000, seed=1)
    sink = records.CsvSink([tmp_path / f"run_seed{s}.csv" for s in (1, 2)], cfg.horizon)
    run_many(cfg, 2, sink)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run_seed1.csv.part",
                                                           "run_seed2.csv.part"]
    sink.discard()
    assert not list(tmp_path.iterdir())


class TestSharedRows:
    """What every seed shares, a MemorySink keeps once: the step row of a
    deterministic rate and the all-True in-region row of a run without a
    region, one read-only object that every trajectory holds."""

    @staticmethod
    def _cfg(rate, horizon=60, **kw):
        p = kw.pop("problem", None) or random_sphere_mean(4, 6, seed=7)
        x0 = kw.pop("x0", None)
        x0 = p.manifold.random_point(np.random.default_rng(5)) if x0 is None else x0
        return RunConfig(oracle=p, plan=SegmentPlan(p.space, BatchSizes.constant(4)),
                         rate=RATES[rate], x0=x0, horizon=horizon, seed=3, **kw)

    @pytest.mark.parametrize("n_seeds", [1, 5, 100])
    def test_deterministic_steps_are_one_read_only_row(self, n_seeds):
        cfg = self._cfg("power")
        with _blocked(7, n_seeds, 4, 4):  # several blocks, each handing one (1, k) row
            trs = run_many(cfg, n_seeds)
        for name in ("step", "in_region"):
            row = getattr(trs[0], name)
            assert all(getattr(tr, name) is row for tr in trs), name
            assert row.shape == (cfg.horizon + 1,) and not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = row[1]
        assert trs[0].in_region.all()
        _assert_bitwise(trs, stepwise_run(cfg, cfg.seed + np.arange(n_seeds)))

    def test_adaptive_steps_widen_to_rows_of_their_own(self):
        cfg = self._cfg("adaptive")
        with _blocked(7, 5, 4, 4):
            trs = run_many(cfg, 5)
        assert len({id(tr.step) for tr in trs}) == 5
        assert all(tr.step.flags.writeable for tr in trs)
        assert all(tr.in_region is trs[0].in_region for tr in trs)
        _assert_bitwise(trs, stepwise_run(cfg, cfg.seed + np.arange(5)))

    @pytest.mark.parametrize("kind", ["record", "degenerate"])
    @pytest.mark.parametrize("t", [9, 10, 23])
    def test_a_seed_retiring_mid_block_widens_the_steps(self, kind, t):
        # blocks of 10 steps: the steps of blocks before t stay shared, and
        # the masked steps from t's block on widen them to per-seed rows
        p = random_sphere_mean(4, 6, seed=7)
        cfg = self._cfg("power", problem=p)
        seeds = cfg.seed + np.arange(5)
        with _blocked(10, 5, 4, 4):
            clean = _run_block(replace(cfg, store_iterates=True), seeds)
            _trap(p, clean[2].iterates[t].copy(), kind)
            trs = _run_block(cfg, seeds)
        assert trs[2].status == ("degenerate" if kind == "degenerate" else "nonfinite")
        assert len({id(tr.step) for tr in trs}) == 5
        assert np.isnan(trs[2].step[-1]) and not np.isnan(trs[1].step).any()
        _assert_bitwise(trs, stepwise_run(cfg, seeds))

    @pytest.mark.parametrize("region, shared", [(None, True), (3.0, False)])
    def test_in_region_rows_are_shared_only_without_a_region(self, region, shared):
        p = random_least_squares(3, 6, seed=11, tau=0.2)
        cfg = self._cfg("power", problem=p, x0=np.linspace(-2.0, 2.0, 3),
                        rho=lambda x: (x * x).sum(axis=-1), region_rho1=region)
        trs = run_many(cfg, 4)
        assert all(tr.in_region is trs[0].in_region for tr in trs) is shared
        if not shared:
            assert not trs[0].in_region.all() and all(tr.in_region.flags.writeable for tr in trs)
        _assert_bitwise(trs, stepwise_run(cfg, cfg.seed + np.arange(4)))

    @pytest.mark.parametrize("rate, per_step", [("power", lambda s: 32 * s + 17),
                                                ("adaptive", lambda s: 40 * s + 9)])
    def test_record_bytes_per_step(self, rate, per_step):
        # a run without rho keeps four float rows per seed, the batch sizes
        # and the shared rows: 32 S + 17 bytes per step for a deterministic
        # rate (41 S + 8 with a step and an in-region row per seed), and
        # 40 S + 9 for the adaptive rule, whose steps are the seeds' own
        n_seeds, horizon = 100, 2000
        cfg = self._cfg(rate, horizon=horizon)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trs = run_many(cfg, n_seeds)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # slack: the trajectories and their row views, about 1 KiB a seed
        want = per_step(n_seeds) * (horizon + 1)
        assert want <= held <= want + 2048 * n_seeds
        assert len(trs) == n_seeds
