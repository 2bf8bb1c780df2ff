"""What a run records and where the records go.

The engine (:mod:`rsgd.driver`) keeps no record itself: ``_run_block``
hands the finished, masked records of each block -- the last one's columns
end with the final state at T -- to one sink, as a ``Records``.
``MemorySink`` (``run_many``'s default) puts them into (S, T+1) arrays and
returns one ``Trajectory`` per seed.  What every seed shares it keeps once:
the step column of a deterministic rate, one row until a seed retires, and
the in-region column of a run without a region, one all-True row; every
trajectory then holds that same read-only row.  A deterministic run without
a region keeps 32·S + 17 bytes per step, an adaptive one 40·S + 9, and rho
adds 8·S.  ``CsvSink`` streams the records into one CSV per seed and
returns one ``SeedEnd`` per seed, so a run into it holds no array that
grows with T; ``Tee`` hands each block to several sinks, as
``rsgd run`` does to a ``CsvSink`` and the summary's
``diagnostics.ConvergenceFold``.

Trajectories record, per iteration: cost, exact gradient norm, step size,
batch size, batch gradient norm, and the noise inner product
<grad F, h - grad F>, plus optional rho values and a region-membership flag
(compactness of the iterate set is monitored, not enforced).  The CSV keeps
all of them but the noise inner product, so a CSV cannot rebuild the
descent or martingale checks that need it.  Every float is written as
``%.17g``, so ``read_trajectory_csv`` gets the same bits back.
Rows are formatted ``_CSV_CHUNK`` at a time by ``_csv_text``: the ``t``,
``step`` and ``batch_size`` cells of a chunk are formatted once into a row
template, which every file whose chunk of steps is bitwise equal to the
first one's fills with its own cells (the files of one run share their
batch sizes); the seeds of a deterministic-rate run share it, and a retired
or adaptive seed formats its own.  ``CsvSink`` buffers a chunk of rows of every seed and appends it to
each file in turn, one file open at a time, under a temporary name that
``publish`` renames, so files of any length are written in flat memory;
``Trajectory.write_csv`` writes one finished trajectory through it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

# one entry per CSV column: header name, Trajectory field, type; the first
# column is the step index t, ints are written as %d and floats as %.17g
_CSV_COLUMNS = (
    ("t", None, int),
    ("F", "F", float),
    ("grad_norm", "grad_norm", float),
    ("step", "step", float),
    ("batch_size", "batch_size", int),
    ("batch_grad_norm", "batch_grad_norm", float),
    ("rho", "rho", float),
    ("in_K", "in_region", bool),
)
CSV_HEADER = ",".join(name for name, _, _ in _CSV_COLUMNS)
# the columns formatted once per chunk into a row template, whose "%%" then
# become the "%" of the cells each trajectory fills in (_CSV_OWN, in order)
_CSV_SHARED = ("t", "step", "batch_size")
_CSV_TEMPLATE = ",".join(("%" if name in _CSV_SHARED else "%%")
                         + (".17g" if kind is float else "d")
                         for name, _, kind in _CSV_COLUMNS) + "\n"
_CSV_OWN = tuple(attr for name, attr, _ in _CSV_COLUMNS if name not in _CSV_SHARED)
# rows per formatted chunk, so a file of any length is written in flat memory
_CSV_CHUNK = 1024


@dataclass
class Trajectory:
    """Per-iteration records of one run; arrays have length horizon + 1.

    Entries at index T (the final state) have no step attached: batch columns
    hold NaN there, batch_size holds 0, and step[T] is the rate the next
    iteration would use (defined for power-law and adaptive rates; NaN for
    a seed retired at T or before, like its other step columns).

    noise_inner holds <grad F(x_t), h_t - grad F(x_t)>, the martingale
    increment numerator; <grad F, h_t> is noise_inner + grad_norm^2.

    The trajectories of one ``MemorySink`` share their batch_size array, and
    the step and in_region rows that every seed shares (a deterministic
    rate's steps before any seed retires, the all-True flags of a run
    without a region) are one read-only array object.
    """

    seed: int
    F: np.ndarray
    grad_norm: np.ndarray
    step: np.ndarray
    batch_size: np.ndarray
    batch_grad_norm: np.ndarray
    noise_inner: np.ndarray
    in_region: np.ndarray
    rho: np.ndarray | None = None
    status: str = "ok"
    abort_t: int | None = None
    iterates: np.ndarray | None = field(default=None, repr=False)

    @property
    def horizon(self) -> int:
        return len(self.F) - 1

    def write_csv(self, path) -> None:
        """Write the ``_CSV_COLUMNS`` of every step, through a ``CsvSink``."""
        sink = CsvSink([path], self.horizon)
        rows = {name: None if getattr(self, name) is None else getattr(self, name)[None]
                for name in ("F", "grad_norm", "step", "batch_grad_norm", "noise_inner", "rho",
                             "in_region")}
        try:
            sink.put(Records(t0=0, batch_size=self.batch_size, iterates=None, **rows))
            sink.close([self.seed], [self.status], [self.abort_t])
            sink.publish()
        finally:
            sink.discard()


def _csv_text(a, step, sizes, own, first):
    """CSV rows a, a + 1, ... of one file, for the steps and batch sizes of
    those rows and the cells of its ``_CSV_OWN`` columns (None for a missing
    rho, written as NaN).

    One ``%`` operation formats the t, step and batch_size cells into a row
    template, and one more fills the other cells into it.  ``first`` is the
    (steps, template) of the first file formatted at these rows, which share
    their batch sizes, or None; its template is reused when the steps are
    bitwise equal to its own.  Returns the text and ``first`` for the next
    file."""
    if first is not None and np.array_equal(step.view(np.int64), first[0].view(np.int64)):
        template = first[1]
    else:
        template = (_CSV_TEMPLATE * len(step)) % tuple(chain.from_iterable(
            zip(range(a, a + len(step)), step.tolist(), sizes.tolist())))
        first = first or (step, template)
    # zip stops at the chunk's end
    rows = zip(*(repeat(np.nan) if c is None else c.tolist() for c in own))
    return template % tuple(chain.from_iterable(rows)), first


def read_trajectory_csv(path, seed: int = -1) -> Trajectory:
    """Rebuild the recorded columns of a trajectory written by write_csv.

    ``rsgd run`` writes files only for runs whose seeds ended ok or
    non-finite, and the driver retires a row at its first record whose F or
    grad_norm is not finite, x_T included: a file with such a row is a
    non-finite seed, and that row is its ``abort_t``.  A retraction that
    failed at step t writes the same rows as a non-finite record at t + 1
    can, and may read as t + 1.  A t, batch_size or in_K cell that does not
    hold the row index, an integer >= 0 or 0 or 1 raises ValueError naming
    its data row."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        with warnings.catch_warnings():  # a file without rows is named below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not data.size:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(_CSV_COLUMNS):
        raise ValueError(f"{path}: expected {len(_CSV_COLUMNS)} columns, found {data.shape[1]}")
    # the int and bool columns must hold values their casts keep
    for i, (name, _, kind) in enumerate(_CSV_COLUMNS):
        col = data[:, i]
        if name == "t":
            want, ok = "the row index 0 .. n - 1", col == np.arange(len(col))
        elif kind is int:
            want, ok = "an integer >= 0", (col >= 0) & (col < 2.0**63) & (np.floor(col) == col)
        elif kind is bool:
            want, ok = "0 or 1", (col == 0) | (col == 1)
        else:
            continue
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"{path}: data row {k + 1}: {name} must be {want}, "
                             f"got {float(col[k])}")
    fields = {attr: data[:, i].astype(kind, copy=False)
              for i, (_, attr, kind) in enumerate(_CSV_COLUMNS) if attr is not None}
    rho = fields.pop("rho")
    finite = np.isfinite(fields["F"]) & np.isfinite(fields["grad_norm"])
    ok = bool(finite.all())
    return Trajectory(
        seed=seed,
        noise_inner=np.full(len(data), np.nan),
        rho=None if np.all(np.isnan(rho)) else rho,
        status="ok" if ok else "nonfinite",
        abort_t=None if ok else int(np.argmin(finite)),
        **fields,
    )


@dataclass
class Records:
    """The finished records of columns t0 .. t0 + k - 1 of a run, each row a
    seed's and NaN from its retirement on: (S, k) arrays, or (1, k) steps
    that every seed shares, the (k,) batch sizes, rho None for a run without
    one, in_region None when every cell is in the region (no rho or no
    region level), and (S, k, d) iterates only when the run stores them."""

    t0: int
    F: np.ndarray
    grad_norm: np.ndarray
    step: np.ndarray
    batch_size: np.ndarray
    batch_grad_norm: np.ndarray
    noise_inner: np.ndarray
    rho: np.ndarray | None
    in_region: np.ndarray | None
    iterates: np.ndarray | None


@dataclass(frozen=True)
class SeedEnd:
    """How one seed's run ended, for a sink that keeps no records."""

    seed: int
    status: str
    abort_t: int | None


class MemorySink:
    """Keeps every record of a run (``cfg``, a ``driver.RunConfig``) and
    returns one ``Trajectory`` per seed.

    The per-seed columns are (S, T+1) arrays, whose rows the trajectories
    view.  The step and in-region columns are kept as one (1, T+1) row while
    every seed shares them: the steps while every block hands over one
    (1, k) row of rates (a deterministic rate before any seed retires), the
    flags while no block carries any (a run without a region, where every
    cell is in it).  The first block that does not share a column widens it
    to (S, T+1).  ``close`` gives every trajectory the same read-only object
    for a column still kept as one row (with one seed, always), so writing
    into it raises ValueError."""

    def __init__(self, cfg, n_seeds: int):
        shape = (n_seeds, cfg.horizon + 1)
        names = ("F", "grad_norm", "batch_grad_norm", "noise_inner")
        self.arrays = {name: np.full(shape, np.nan) for name in names}
        if cfg.rho is not None:
            self.arrays["rho"] = np.full(shape, np.nan)
        if cfg.store_iterates:
            self.arrays["iterates"] = np.full(shape + (cfg.oracle.manifold.ambient_dim,), np.nan)
        self.batch_size = np.zeros(shape[1], dtype=np.int64)
        self.step = np.full((1, shape[1]), np.nan)
        self.in_region = np.ones((1, shape[1]), dtype=bool)

    def put(self, rec: Records) -> None:
        cols = slice(rec.t0, rec.t0 + rec.batch_size.size)
        for name, arr in self.arrays.items():
            arr[:, cols] = getattr(rec, name)
        self.batch_size[cols] = rec.batch_size
        self.step = _widened(self.step, len(rec.step))
        self.step[:, cols] = rec.step
        if rec.in_region is not None:
            self.in_region = _widened(self.in_region, len(rec.in_region))
            self.in_region[:, cols] = rec.in_region

    def close(self, seeds, status, abort_t) -> list[Trajectory]:
        shared = {}
        for name in ("step", "in_region"):
            column = getattr(self, name)
            if len(column) == 1:  # never widened: one row for every seed
                column.flags.writeable = False
                shared[name] = column[0]
        a = self.arrays | {"step": self.step, "in_region": self.in_region}
        return [Trajectory(seed=seed, batch_size=self.batch_size, status=status[i],
                           abort_t=abort_t[i],
                           **{name: shared[name] if name in shared
                              else None if name not in a else a[name][i]
                              for name in ("F", "grad_norm", "step", "batch_grad_norm",
                                           "noise_inner", "rho", "in_region", "iterates")})
                for i, seed in enumerate(seeds)]


def _widened(column: np.ndarray, n_rows: int) -> np.ndarray:
    """column, or its one shared row repeated to n_rows rows when it has fewer."""
    return column if len(column) >= n_rows else np.repeat(column, n_rows, axis=0)


def _part(path: Path) -> Path:
    """The name an output file is written under until it is published."""
    return path.with_name(path.name + ".part")


class CsvSink:
    """Streams the records of a run into one CSV per seed and returns one
    ``SeedEnd`` per seed.

    It buffers at most ``_CSV_CHUNK`` rows of every seed (``nbytes``) and
    appends them to each seed's file in turn, one file open at a time.  The
    files are written under ``_part`` names: ``publish`` renames them to
    ``paths``, and ``discard`` removes whatever is left of them."""

    _FLOATS = ("F", "grad_norm", "step", "batch_grad_norm", "rho")

    def __init__(self, paths, horizon: int):
        self.paths = [Path(path) for path in paths]
        self.parts = [_part(path) for path in self.paths]
        rows = min(_CSV_CHUNK, horizon + 1)
        shape = (len(self.paths), rows)
        self.buf = {name: np.empty(shape) for name in self._FLOATS}
        self.buf["in_region"] = np.empty(shape, dtype=bool)
        self.sizes = np.empty(rows, dtype=np.int64)
        self.start = self.fill = 0  # buffered rows: start .. start + fill - 1

    @staticmethod
    def nbytes(n_seeds: int, horizon: int) -> int:
        """Bytes of the buffer: per seed and buffered row five float64
        columns and the bool in_region, and per row the batch size."""
        return (41 * n_seeds + 8) * min(_CSV_CHUNK, horizon + 1)

    def put(self, rec: Records) -> None:
        k, done = rec.batch_size.size, 0
        while done < k:
            n = min(k - done, self.sizes.size - self.fill)
            src, dst = slice(done, done + n), slice(self.fill, self.fill + n)
            for name, arr in self.buf.items():
                value = getattr(rec, name)
                if value is None:  # no rho is NaN; no region holds every cell
                    arr[:, dst] = np.nan if name == "rho" else True
                else:
                    arr[:, dst] = value[:, src]
            self.sizes[dst] = rec.batch_size[src]
            done += n
            self.fill += n
            if self.fill == self.sizes.size:
                self._flush()

    def _flush(self) -> None:
        a, n, first = self.start, self.fill, None
        sizes, buf = self.sizes[:n], self.buf
        for i, part in enumerate(self.parts):
            own = (buf[attr][i, :n] for attr in _CSV_OWN)
            text, first = _csv_text(a, buf["step"][i, :n], sizes, own, first)
            with open(part, "a" if a else "w", newline="") as fh:
                fh.write(text if a else CSV_HEADER + "\n" + text)
        self.start, self.fill = a + n, 0

    def close(self, seeds, status, abort_t) -> list[SeedEnd]:
        if self.fill:
            self._flush()
        return [SeedEnd(seed, status[i], abort_t[i]) for i, seed in enumerate(seeds)]

    def publish(self) -> None:
        for part, path in zip(self.parts, self.paths):
            os.replace(part, path)

    def discard(self) -> None:
        for part in self.parts:
            part.unlink(missing_ok=True)


class Tee:
    """Hands each block to every sink in turn; the run's results are those
    of the first sink."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def put(self, rec: Records) -> None:
        for sink in self.sinks:
            sink.put(rec)

    def close(self, seeds, status, abort_t) -> list:
        return [sink.close(seeds, status, abort_t) for sink in self.sinks][0]
