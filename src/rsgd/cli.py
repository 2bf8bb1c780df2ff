"""Command-line front end.

Subcommands:

* ``run``     execute the configured experiment, one CSV per seed plus a
              summary JSON (exit 0; 2 on config errors; 3 on runtime aborts)
* ``check``   run one named verification and write its JSON report
              (exit 0 iff PASS, 1 on FAIL, 2 on config errors)
* ``report``  aggregate trajectory CSVs in a directory into a summary

Configs are flat INI files with sections [problem], [plan], [rate],
[confinement], [run].  ``CONFIG_KEYS`` declares every key once, with its
type, default and bound; any other section or key is a config error, and the
README explains each key.  Outputs embed the fully resolved configuration and
all seeds, and contain no timestamps, so identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import confinement as conf
from . import diagnostics as diag
from .batching import BatchSizes, SegmentPlan, StratifiedPlan, SubsetPlan, enumerate_expectation
from .driver import RunConfig, run_many
from .errors import (
    ConfigError,
    ConfinementViolation,
    DegenerateRetraction,
    InvalidHyperparameters,
    InvalidPlan,
    SamplerFailure,
    UnboundedRegion,
)
from .problems import (
    load_least_squares_csv,
    load_sphere_mean_csv,
    random_least_squares,
    random_sphere_mean,
)
from .records import CsvSink, Tee, _part, read_trajectory_csv
from .schedules import AdaptiveRate, ExplicitSchedule, PowerLawSchedule, validate_robbins_monro

CHECK_NAMES = ("unbiasedness", "schedule", "gradient", "lipschitz",
               "confinement", "kappa_confinement")


def _ints(raw: str):
    return tuple(int(v) for v in raw.split(","))


def _floats(raw: str):
    return tuple(float(v) for v in raw.split(","))


def _growth(raw: str):
    base, factor = raw.split(":")
    return int(base), float(factor)


def _parse_strata(text: str):
    """Strata separated by ";", each a comma list of indices and ranges a-b."""
    groups = []
    for grp in text.split(";"):
        members = []
        for token in grp.split(","):
            token = token.strip()
            if "-" in token:
                a, b = (int(v) for v in token.split("-", 1))
                if b < a:
                    raise ValueError(f"reversed range {token}")
                members.extend(range(a, b + 1))
            elif token:
                members.append(int(token))
        if members:
            groups.append(tuple(members))
    if not groups:
        raise ValueError("no stratum")
    return tuple(groups)


# what each type accepts, for the error that names a key
_WANT = {bool: "true or false", int: "an integer", float: "a number",
         _ints: "a comma list of integers", _floats: "a comma list of numbers",
         _growth: "base:factor, an integer and a number",
         _parse_strata: "groups of indices and ranges a-b separated by ';'"}

# section -> key -> (type, default, bound), each key declared once.  type is
# int, float, bool, str (kept raw), a tuple of the allowed words, or one of
# the parsers above, whose bound holds for each entry (a stratum is a tuple of
# ints, unbounded); every number must be finite.  An absent key takes its
# default, or is a config error where it is read if that is _REQUIRED; a
# default of "auto" also accepts that word.  bound is "> x" or ">= x".
_REQUIRED = object()
CONFIG_KEYS = {
    "problem": {
        "kind": (("sphere_mean", "least_squares"), _REQUIRED, None),
        "dimension": (int, _REQUIRED, ">= 1"),  # >= 2 on the sphere: build_problem
        "n_outcomes": (int, _REQUIRED, ">= 1"),
        "data_seed": (int, 0, ">= 0"),
        "csv": (str, None, None),
        "tau": (float, _REQUIRED, "> 0"),
        "rho1": (float, None, "> 0"),  # absent: no declared ball
    },
    "plan": {
        "scheme": (("segment", "no_repetition", "stratified"), _REQUIRED, None),
        "batch_size": (int, 1, ">= 1"),
        "batch_growth": (_growth, None, ">= 1"),
        "batch_sizes": (_ints, None, ">= 1"),
        "strata": (_parse_strata, _REQUIRED, None),
        "per_stratum_counts": (_ints, _REQUIRED, ">= 1"),
    },
    "rate": {
        "kind": (("power", "list", "adaptive"), _REQUIRED, None),
        "c": (float, _REQUIRED, None),
        "p": (float, _REQUIRED, None),
        "values": (_floats, _REQUIRED, "> 0"),
        # the adaptive rule's hyperparameters, checked together by AdaptiveRate
        "alpha": (float, 0.5, None), "beta": (float, 1.0, None), "epsilon": (float, 0.25, None),
    },
    "confinement": {
        "enabled": (bool, False, None),
        "variant": (conf.VARIANTS, "plain", None),
        # rho(x) = ||x||^2: no sublevel lies below rho(origin) = 0
        "rho0": (float, "auto", ">= 0"),
        "lambda": (float, 1.0, "> 0"),
        "b": (float, "auto", "> 0"),
        "theta": (float, 1.0, "> 0"),
        "kappa": (float, 0.0, None),  # > 0 where a kappa variant runs: _kappa_spec
        "samples": (int, 2000, ">= 1"),
    },
    "run": {
        "horizon": (int, _REQUIRED, ">= 0"),
        "seeds": (int, 1, ">= 1"),
        "seed": (int, 0, ">= 0"),  # and <= 2**63 - seeds: _seeds
        "out": (str, "runs", None),
        "x0": (_floats, "auto", None),
    },
}
_SIZE_KEYS = ("batch_size", "batch_growth", "batch_sizes")  # one of them at most


def _write_json(path: Path, payload: dict) -> None:
    with _writing():
        with open(path, "w") as fh:
            # numpy floats are floats; arrays and other numpy scalars go through tolist
            json.dump(payload, fh, indent=2, sort_keys=True, default=lambda v: v.tolist())
            fh.write("\n")


def _writable(*paths) -> None:
    """Refuse, before any work, an output file whose path is a directory."""
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"output file {path} cannot be written: it is a directory")


@contextmanager
def _writing():
    """An output file that cannot be written is a config error naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output file {exc.filename} cannot be written: "
                          f"{exc.strerror or exc}") from None


def load_config(path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    # "; ..." after whitespace is a comment; "strata = 0-7; 8-15" keeps its ";"
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        cp.read(p)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{p}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{p}: unknown key [{section}] {key}")
            # every given value is checked, also one its run does not read
            _get(cp, section, key)
    sizes = [key for key in _SIZE_KEYS if cp.has_option("plan", key)]
    if len(sizes) > 1:
        raise ConfigError(f"{p}: [plan] {sizes[0]} and [plan] {sizes[1]} exclude each other")
    return cp


def _get(cp, section, key, given=None):
    """[section] key as CONFIG_KEYS declares it: ``given`` (a command-line
    override) when not None, else the file's value, else the key's default."""
    kind, default, bound = CONFIG_KEYS[section][key]
    name = f"[{section}] {key}"
    if given is None and not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing {name}")
        return default
    raw = cp.get(section, key) if given is None else str(given)
    if kind is str or raw == default == "auto":
        return raw
    try:
        if isinstance(kind, tuple):
            return kind[kind.index(raw)]  # ValueError unless one of the words
        value = cp.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        want = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _WANT[kind]
        raise ConfigError(f"{name} must be {want}, got {raw!r}") from None
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {raw}")
        if bound:
            op, edge = bound.split()
            if not (v >= float(edge) if op == ">=" else v > float(edge)):
                raise ConfigError(f"{name} must be {bound}, got {raw}")
    return value


def build_problem(cp):
    sphere = _get(cp, "problem", "kind") == "sphere_mean"
    if not sphere:
        tau = _get(cp, "problem", "tau")
        rho1 = _get(cp, "problem", "rho1")
    csv_path = _get(cp, "problem", "csv")
    if csv_path:
        try:
            if sphere:
                return load_sphere_mean_csv(csv_path)
            return load_least_squares_csv(csv_path, tau, region_rho1=rho1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[problem] csv: {exc}") from None
    dim = _get(cp, "problem", "dimension")
    if sphere and dim < 2:
        raise ConfigError(f"[problem] dimension must be >= 2 for sphere_mean, got {dim}")
    n_outcomes = _get(cp, "problem", "n_outcomes")
    data_seed = _get(cp, "problem", "data_seed")
    if sphere:
        return random_sphere_mean(dim, n_outcomes, data_seed)
    return random_least_squares(dim, n_outcomes, data_seed, tau, region_rho1=rho1)


def build_plan(cp, space, seed: int):
    # seed is unused; perfbench's cli_session passes it positionally
    scheme = _get(cp, "plan", "scheme")
    given = [key for key in _SIZE_KEYS if cp.has_option("plan", key)]
    if scheme == "stratified" and given:
        raise ConfigError(f"[plan] {given[0]} does not apply under scheme = stratified: a "
                          "stratified batch holds sum(per_stratum_counts) outcomes")
    growth = _get(cp, "plan", "batch_growth")
    listed = _get(cp, "plan", "batch_sizes")
    if growth is not None:
        if growth[0] > space.size:
            raise ConfigError(f"[plan] batch_growth base {growth[0]} exceeds the "
                              f"{space.size} outcomes")
        sizes = BatchSizes.geometric(*growth, space.size)
    elif listed is not None:
        sizes = BatchSizes.explicit(listed)
    else:
        sizes = BatchSizes.constant(_get(cp, "plan", "batch_size"))
    try:
        if scheme == "stratified":
            key = "strata"
            return StratifiedPlan(space, _get(cp, "plan", "strata"),
                                  _get(cp, "plan", "per_stratum_counts"))
        key = given[0] if given else "batch_size"
        return (SegmentPlan if scheme == "segment" else SubsetPlan)(space, sizes)
    except InvalidPlan as exc:
        raise ConfigError(f"[plan] {key}: {exc}") from None


def build_rate(cp):
    kind = _get(cp, "rate", "kind")
    try:
        if kind == "power":
            return PowerLawSchedule(_get(cp, "rate", "c"), _get(cp, "rate", "p"))
        if kind == "list":
            return ExplicitSchedule(_get(cp, "rate", "values"))
        return AdaptiveRate(*(_get(cp, "rate", k) for k in ("alpha", "beta", "epsilon")))
    except (ValueError, InvalidHyperparameters) as exc:
        raise ConfigError(f"bad rate section: {exc}") from None


def build_confinement(cp, problem):
    if not _get(cp, "confinement", "enabled"):
        return None
    if problem.manifold.kind != "euclidean":
        raise ConfigError("[confinement] enabled = true needs a Euclidean problem: the "
                          f"certificates sample flat space, not the {problem.manifold.kind}")
    rho0 = _get(cp, "confinement", "rho0")
    if rho0 == "auto":
        if not hasattr(problem, "rho0_for_norm_squared"):
            raise ConfigError("[confinement] rho0 = auto needs a least-squares problem")
        if not math.isfinite(rho0 := problem.rho0_for_norm_squared()):
            raise ConfigError(f"[confinement] rho0 = auto is max y^2 / (4 tau) = {rho0:g}, "
                              "not finite: a label's square overflows")
    params = {key: _get(cp, "confinement", key)
              for key in ("variant", "kappa", "lambda", "b", "theta", "samples")}
    # the level adaptive confined runs and the adaptive kappa check keep rho under
    return params | {"rho0": rho0, "rho1": rho0 + 1.0}


def _kappa_spec(params, rho1, needed_by):
    """The kappa-confinement of rho = ||x||^2 between rho0 and rho1 (variant
    plain reads as kappa), for a run or check that needs kappa > 0."""
    if not params["kappa"] > 0:
        raise ConfigError(f"[confinement] kappa must be > 0 for {needed_by}, "
                          f"got {params['kappa']:g}")
    variant = "kappa" if params["variant"] == "plain" else params["variant"]
    return conf.norm_squared_confinement(params["rho0"], rho1, variant)


def _x0(cp, manifold):
    given = _get(cp, "run", "x0")
    if given == "auto":
        x0 = np.zeros(manifold.ambient_dim)
        if manifold.kind == "sphere":
            x0[0] = 1.0
        return x0
    x0 = np.array(given, dtype=float)
    if x0.shape != (manifold.ambient_dim,):
        raise ConfigError(f"[run] x0 needs {manifold.ambient_dim} components")
    if not bool(manifold.contains(x0, tol=1e-9)):
        raise ConfigError(f"[run] x0 is not a point of the {manifold.kind} manifold")
    return x0


def _seeds(cp, args):
    """The first seed and the number of seeds; the seeds run as int64."""
    n_seeds = _get(cp, "run", "seeds")
    seed = _get(cp, "run", "seed", args.seed)
    if seed > 2**63 - n_seeds:
        raise ConfigError(f"[run] seed (or --seed) must be <= 2**63 - seeds = "
                          f"{2**63 - n_seeds}, got {seed}")
    return seed, n_seeds


def _physical_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _run_size(cp, args):
    """The horizon of ``rsgd run``, once it and the number of seeds are
    checked, before anything of the run is allocated: the step count must be
    exact in a float64 (the summary's curve picks its steps through one), and
    the CSV buffers of the seeds (``CsvSink.nbytes``) must fit in physical
    memory."""
    horizon = _get(cp, "run", "horizon", args.horizon)
    if horizon > 2**53:
        raise ConfigError(f"[run] horizon (or --horizon) must be <= 2**53, got {horizon}")
    n_seeds = _get(cp, "run", "seeds")
    need, have = CsvSink.nbytes(n_seeds, horizon), _physical_bytes()
    if need > have:
        raise ConfigError(f"[run] seeds = {n_seeds} needs {need / 2**30:.3g} GiB of CSV "
                          f"buffers, more than the {have / 2**30:.3g} GiB of physical memory")
    return horizon


def _constants_for(params, spec, problem, rate, seed):
    # estimate_constants refuses a rate that fails the step-size conditions
    check = validate_robbins_monro(rate)
    if not check.valid:
        key = "kind = list" if isinstance(rate, ExplicitSchedule) else f"p = {rate.p:g}"
        raise ConfigError(f"[rate] {key} cannot confine a deterministic run: {check.reason}")
    try:
        return conf.estimate_constants(spec, problem, rate, params["lambda"], params["b"],
                                       params["theta"], params["samples"], seed=seed)
    except InvalidHyperparameters as exc:
        raise ConfigError(f"[confinement] {exc}") from None


@contextmanager
def _out_dir(cp, args):
    """[run] out (or --out), created before the command does any work; the
    directories made for it are removed again if the command leaves them
    empty (a config error found later, an aborted run, a failed sampler)."""
    out = Path(_get(cp, "run", "out", args.out))
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[run] out (or --out) = {out} cannot be created: "
                          f"{exc.strerror or exc}") from None
    try:
        yield out
    finally:
        for d in made:  # deepest first; rmdir refuses a directory that holds anything
            try:
                d.rmdir()
            except OSError:
                break


def _resolved(cp) -> dict:
    return {s: dict(cp.items(s)) for s in cp.sections()}


# steps of the mean-square curve kept in a summary or report
_CURVE_POINTS = 256


def cmd_run(args) -> int:
    cp = load_config(args.config)
    horizon = _run_size(cp, args)
    problem = build_problem(cp)
    seed, n_seeds = _seeds(cp, args)
    plan = build_plan(cp, problem.space, seed)
    rate = build_rate(cp)
    # a list rate needs gamma_t for t = 0..T-1; step[T] stays NaN past its end
    if isinstance(rate, ExplicitSchedule) and len(rate.values) < horizon:
        raise ConfigError(f"[rate] values has {len(rate.values)} rates, "
                          f"fewer than the horizon {horizon}")
    # and a size list b_t for t = 0..T-1
    listed = _get(cp, "plan", "batch_sizes")
    if listed is not None and len(listed) < horizon:
        raise ConfigError(f"[plan] batch_sizes has {len(listed)} sizes, "
                          f"fewer than the horizon {horizon}")
    x0 = _x0(cp, problem.manifold)
    params = build_confinement(cp, problem)
    with _out_dir(cp, args) as out_dir:
        run_id = Path(args.config).stem
        summary_path = out_dir / f"{run_id}_summary.json"
        csvs = CsvSink([out_dir / f"{run_id}_seed{s}.csv" for s in range(seed, seed + n_seeds)],
                       horizon)
        _writable(summary_path, _part(summary_path), *csvs.paths, *csvs.parts)
        # the records stream into the CSVs and the summary's metrics as the
        # run goes; the files are published only once the summary is written
        fold = diag.ConvergenceFold(n_seeds, horizon, curve_points=_CURVE_POINTS)
        sink = Tee(csvs, fold)
        cfg = RunConfig(oracle=problem, plan=plan, rate=rate, x0=x0, horizon=horizon, seed=seed)
        constants = None
        try:
            with _writing():
                try:
                    if params is None:
                        ends = run_many(cfg, n_seeds, sink)
                    elif isinstance(rate, AdaptiveRate):
                        spec = _kappa_spec(params, params["rho1"], "adaptive confined runs")
                        ends = conf.run_confined_adaptive_many(cfg, spec, params["kappa"],
                                                               n_seeds, sink)
                    else:
                        spec = conf.norm_squared_confinement(params["rho0"])
                        constants = _constants_for(params, spec, problem, rate, seed)
                        ends = conf.run_confined_deterministic_many(
                            replace(cfg, rho=spec.rho), constants, n_seeds, sink)
                except (DegenerateRetraction, ConfinementViolation, SamplerFailure) as exc:
                    print(f"run aborted: {exc}", file=sys.stderr)
                    return 3

                summary = {
                    "run_id": run_id,
                    "config": _resolved(cp),
                    "overrides": {"seed": args.seed, "horizon": args.horizon},
                    "seeds": [end.seed for end in ends],
                    "data_seed": problem.data_seed,
                    "metrics": fold.result(),
                }
                if constants is not None:
                    summary["confinement_constants"] = vars(constants) | {}
                _write_json(_part(summary_path), summary)
                csvs.publish()
                os.replace(_part(summary_path), summary_path)
        finally:
            csvs.discard()
            _part(summary_path).unlink(missing_ok=True)
        if not args.quiet:
            print(f"wrote {len(ends)} trajectories to {out_dir}")
        if any(end.status != "ok" for end in ends):
            print("run aborted: non-finite values encountered", file=sys.stderr)
            return 3
        return 0


def _check_unbiasedness(problem, plan, seed):
    rng = np.random.default_rng([seed, 11])
    xs = problem.sample_region(rng, 20)
    dev = enumerate_expectation(problem, xs, plan, t=0) - problem.full_gradient(xs)
    worst = float(diag._pick(np.sqrt((dev * dev).sum(axis=1)), False)[0])
    return {"check": "unbiasedness", "pass": worst <= 1e-10, "worst": worst,
            "tolerance": 1e-10, "points": 20, "seed": seed}


def cmd_check(args) -> int:
    if args.name not in CHECK_NAMES:
        print(f"unknown check {args.name!r}; expected one of {CHECK_NAMES}", file=sys.stderr)
        return 2
    cp = load_config(args.config)
    problem = build_problem(cp)
    seed, _ = _seeds(cp, args)
    with _out_dir(cp, args) as out_dir:
        path = out_dir / f"check_{args.name}.json"
        _writable(path)
        try:
            if args.name == "unbiasedness":
                plan = build_plan(cp, problem.space, seed)
                payload = _check_unbiasedness(problem, plan, seed)
            elif args.name == "schedule":
                rate = build_rate(cp)
                if isinstance(rate, AdaptiveRate):
                    payload = {"check": "schedule", "pass": True,
                               "reason": "adaptive hyperparameters admissible",
                               "eta0": rate.eta0()}
                else:
                    res = validate_robbins_monro(rate)
                    payload = {"check": "schedule", "pass": res.valid, "reason": res.reason}
            elif args.name == "gradient":
                report = diag.finite_difference_gradient_check(problem, 200, seed=seed)
                payload = report.to_dict()
            elif args.name == "lipschitz":
                radius = problem.gradient_bound()
                if not math.isfinite(radius):
                    raise SamplerFailure(f"the gradient bound, the radius of the sampled "
                                         f"tangent steps, is {radius}")
                first = diag.estimate_lipschitz(problem, radius, 4000, seed=seed)
                second = diag.estimate_lipschitz(problem, radius, 4000, seed=seed + 1)
                # numpy's max and min propagate a NaN estimate into the ratio
                c1s = np.array([first.c1, second.c1])
                ratio = float(c1s.max() / np.maximum(c1s.min(), 1e-30))
                payload = {"check": "lipschitz", "pass": ratio <= 2.0,
                           "c1": first.c1, "c2": first.c2,
                           "c1_reseeded": second.c1, "stability_ratio": ratio,
                           "radius": radius, "seed": seed}
            elif args.name in ("confinement", "kappa_confinement"):
                params = build_confinement(cp, problem)
                if params is None:
                    raise ConfigError("confinement section missing or disabled")
                if args.name == "confinement":
                    spec = conf.norm_squared_confinement(params["rho0"])
                    report = conf.check_plain_confinement(spec, problem, params["samples"],
                                                          seed=seed)
                else:
                    rate = build_rate(cp)
                    if isinstance(rate, AdaptiveRate):
                        rho1 = params["rho1"]
                    else:
                        spec0 = conf.norm_squared_confinement(params["rho0"])
                        rho1 = _constants_for(params, spec0, problem, rate, seed).rho1
                    spec = _kappa_spec(params, rho1, "kappa_confinement")
                    report = conf.check_kappa_confinement(spec, problem, params["kappa"],
                                                          params["samples"], seed=seed)
                payload = report.to_dict()
        except SamplerFailure as exc:
            print(f"check failed to sample: {exc}", file=sys.stderr)
            return 1
        except UnboundedRegion as exc:
            raise ConfigError(f"check {args.name} needs [problem] rho1: {exc}") from None

        _write_json(path, payload)
        if not args.quiet:
            print(f"{args.name}: {'PASS' if payload['pass'] else 'FAIL'}")
        return 0 if payload["pass"] else 1


def cmd_report(args) -> int:
    out_dir = Path(args.out if args.out is not None else ".")
    files = sorted(out_dir.glob("*_seed*.csv"))
    if not files:
        print(f"no trajectory CSV files in {out_dir}", file=sys.stderr)
        return 2
    _writable(out_dir / "report.json")
    # one file at a time: read, fold into the metrics, keep its table row
    fold, first, rows, run_ids = None, {}, [], set()
    for i, f in enumerate(files):
        try:
            cut = f.stem.rindex("_seed")
            seed = int(f.stem[cut + 5 :])
            tr = read_trajectory_csv(f, seed=seed)
        except (ValueError, OSError) as exc:
            print(f"malformed trajectory file {f}: {exc}", file=sys.stderr)
            return 2
        run_ids.add(f.stem[:cut])
        first.setdefault(tr.horizon, f.name)  # horizon -> the first file of that length
        fold = fold or diag.ConvergenceFold(len(files), tr.horizon, curve_points=_CURVE_POINTS)
        if tr.horizon == fold.horizon:  # a file of another length is named below
            fold.add(0, i, tr.grad_norm[None], tr.step[None])
            fold.statuses[i] = tr.status
        rows.append((tr.seed, tr.F[-1], tr.grad_norm[-1]))
    twice = sorted(s for s, n in Counter(seed for seed, _, _ in rows).items() if n > 1)
    if len(first) > 1:
        named = ", ".join(f"{first[h]} has {h + 1} rows" for h in sorted(first))
        why = f"trajectory files of different lengths in {out_dir} ({named})"
    elif len(run_ids) > 1:
        why = f"trajectory files of runs {', '.join(sorted(run_ids))} in {out_dir}"
    elif twice:
        why = (f"trajectory files of run {run_ids.pop()} in {out_dir} repeat seed "
               f"{', '.join(map(str, twice))}")
    else:
        why = None
    if why:
        print(f"{why}; report one run's files at a time", file=sys.stderr)
        return 2
    metrics = fold.result()
    _write_json(out_dir / "report.json", {"n_files": len(files), "metrics": metrics})
    if not args.quiet:
        thr = metrics["threshold"]
        print(f"{'seed':>8} {'final_F':>14} {'final_grad':>12} {'min_grad':>12} {'below':>6}")
        for (seed, final_f, final_grad), low in zip(rows, fold.mins):
            print(f"{seed:>8} {final_f:>14.6g} {final_grad:>12.4g} "
                  f"{low:>12.4g} {int(low <= thr):>6}")
        print(f"fraction with final grad norm <= {thr:g}: "
              f"{metrics['fraction_final_below']:.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rsgd",
        description="manifold SGD runs, checks, and reports (see README for config format)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("check", cmd_check), ("report", cmd_report)):
        sp = sub.add_parser(name)
        if name == "check":
            sp.add_argument("name", help=f"one of {', '.join(CHECK_NAMES)}")
        # only the flags the subcommand reads
        if name != "report":
            sp.add_argument("--config", required=True)
            sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        if name == "run":
            sp.add_argument("--horizon", type=int, default=None)
        sp.add_argument("--quiet", action="store_true")
        sp.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidPlan, InvalidHyperparameters, UnboundedRegion) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
