"""Command-line front end.

Subcommands:

* ``run``     execute the configured experiment, one CSV per seed plus a
              summary JSON (exit 0; 2 on config errors; 3 on runtime aborts)
* ``check``   run one named verification and write its JSON report
              (exit 0 iff PASS, 1 on FAIL, 2 on config errors)
* ``report``  aggregate trajectory CSVs in a directory into a summary

Configs are flat INI files with sections [problem], [plan], [rate],
[confinement], [run]; see the README for the key reference.  Outputs embed
the fully resolved configuration and all seeds, and contain no timestamps,
so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import confinement as conf
from . import diagnostics as diag
from .batching import BatchSizes, enumerate_expectation, make_plan
from .driver import RunConfig, read_trajectory_csv, run_many
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
from .schedules import AdaptiveRate, ExplicitSchedule, PowerLawSchedule, validate_robbins_monro

CHECK_NAMES = ("unbiasedness", "schedule", "gradient", "lipschitz",
               "confinement", "kappa_confinement")

# the keys each section accepts; any other section or key is a config error
CONFIG_KEYS = {
    "problem": ("kind", "dimension", "n_outcomes", "data_seed", "csv", "tau", "rho1"),
    "plan": ("scheme", "batch_size", "batch_growth", "batch_sizes", "strata",
             "per_stratum_counts"),
    "rate": ("kind", "c", "p", "values", "alpha", "beta", "epsilon"),
    "confinement": ("enabled", "variant", "rho0", "lambda", "b", "theta", "kappa", "samples"),
    "run": ("horizon", "seeds", "seed", "out", "x0"),
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    return cp


def _require(cp, section, key):
    if not cp.has_option(section, key):
        raise ConfigError(f"missing [{section}] {key}")
    return cp.get(section, key)


def _get_float(cp, section, key, default=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    try:
        return cp.getfloat(section, key)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number") from None


def _get_int(cp, section, key, default=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    try:
        return cp.getint(section, key)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer") from None


def build_problem(cp):
    kind = _require(cp, "problem", "kind")
    csv_path = cp.get("problem", "csv", fallback=None)
    if kind == "sphere_mean":
        if csv_path:
            if not Path(csv_path).is_file():
                raise ConfigError(f"problem csv not found: {csv_path}")
            return load_sphere_mean_csv(csv_path)
        return random_sphere_mean(
            _get_int(cp, "problem", "dimension"),
            _get_int(cp, "problem", "n_outcomes"),
            _get_int(cp, "problem", "data_seed", 0),
        )
    if kind == "least_squares":
        tau = _get_float(cp, "problem", "tau")
        rho1 = _get_float(cp, "problem", "rho1", -1.0)
        rho1 = None if rho1 < 0 else rho1
        if csv_path:
            if not Path(csv_path).is_file():
                raise ConfigError(f"problem csv not found: {csv_path}")
            return load_least_squares_csv(csv_path, tau, region_rho1=rho1)
        return random_least_squares(
            _get_int(cp, "problem", "dimension"),
            _get_int(cp, "problem", "n_outcomes"),
            _get_int(cp, "problem", "data_seed", 0),
            tau,
            region_rho1=rho1,
        )
    raise ConfigError(f"unknown problem kind {kind!r}")


def _parse_strata(text: str):
    groups = []
    for grp in text.split(";"):
        members = []
        for token in grp.split(","):
            token = token.strip()
            if not token:
                continue
            if "-" in token:
                a, b = token.split("-", 1)
                members.extend(range(int(a), int(b) + 1))
            else:
                members.append(int(token))
        if members:
            groups.append(tuple(members))
    if not groups:
        raise ConfigError("strata specification is empty")
    return tuple(groups)


def build_plan(cp, space, seed: int):
    scheme = _require(cp, "plan", "scheme")
    if cp.has_option("plan", "batch_growth"):
        try:
            base, factor = cp.get("plan", "batch_growth").split(":")
            sizes = BatchSizes.geometric(int(base), float(factor), space.size)
        except (ValueError, InvalidPlan) as exc:
            raise ConfigError(f"bad batch_growth (want base:factor): {exc}") from None
    elif cp.has_option("plan", "batch_sizes"):
        try:
            sizes = BatchSizes.explicit(
                int(v) for v in cp.get("plan", "batch_sizes").split(","))
        except (ValueError, InvalidPlan) as exc:
            raise ConfigError(f"bad batch_sizes: {exc}") from None
    else:
        sizes = BatchSizes.constant(_get_int(cp, "plan", "batch_size", 1))
    strata = counts = None
    if scheme == "stratified":
        strata = _parse_strata(_require(cp, "plan", "strata"))
        try:
            counts = tuple(int(v) for v in _require(cp, "plan", "per_stratum_counts").split(","))
        except ValueError:
            raise ConfigError("per_stratum_counts must be a comma list of ints") from None
    try:
        plan = make_plan(scheme, space, sizes=sizes, strata=strata, counts=counts, seed=seed)
        # cross-field validation up front: probe the sizes the run will use
        probe = range(len(sizes.values)) if sizes.kind == "explicit" else (0,)
        for t in probe:
            plan.batch_size(t)
        return plan
    except InvalidPlan as exc:
        raise ConfigError(str(exc)) from None


def build_rate(cp):
    kind = _require(cp, "rate", "kind")
    try:
        if kind == "power":
            return PowerLawSchedule(_get_float(cp, "rate", "c"), _get_float(cp, "rate", "p"))
        if kind == "list":
            return ExplicitSchedule(
                tuple(float(v) for v in _require(cp, "rate", "values").split(",")))
        if kind == "adaptive":
            return AdaptiveRate(
                _get_float(cp, "rate", "alpha", 0.5),
                _get_float(cp, "rate", "beta", 1.0),
                _get_float(cp, "rate", "epsilon", 0.25),
            )
    except (ValueError, InvalidHyperparameters) as exc:
        raise ConfigError(f"bad rate section: {exc}") from None
    raise ConfigError(f"unknown rate kind {kind!r}")


def build_confinement(cp, problem):
    if not cp.has_section("confinement") or not cp.getboolean("confinement", "enabled",
                                                              fallback=False):
        return None
    variant = cp.get("confinement", "variant", fallback="plain")
    rho0_raw = cp.get("confinement", "rho0", fallback="auto")
    if rho0_raw == "auto":
        if not hasattr(problem, "rho0_for_norm_squared"):
            raise ConfigError("rho0 = auto needs a least-squares problem")
        rho0 = problem.rho0_for_norm_squared()
    else:
        try:
            rho0 = float(rho0_raw)
        except ValueError:
            raise ConfigError("confinement rho0 must be a number or 'auto'") from None
    params = {
        "variant": variant,
        "rho0": rho0,
        # the level adaptive confined runs and the adaptive kappa check keep rho under
        "rho1": rho0 + 1.0,
        "kappa": _get_float(cp, "confinement", "kappa", 0.0),
        "lambda": _get_float(cp, "confinement", "lambda", 1.0),
        "b": cp.get("confinement", "b", fallback="auto"),
        "theta": _get_float(cp, "confinement", "theta", 1.0),
        "samples": _get_int(cp, "confinement", "samples", 2000),
    }
    return params


def _parse_x0(cp, manifold):
    raw = cp.get("run", "x0", fallback="auto")
    if raw == "auto":
        x0 = np.zeros(manifold.ambient_dim)
        if manifold.kind == "sphere":
            x0[0] = 1.0
        return x0
    try:
        x0 = np.array([float(v) for v in raw.split(",")], dtype=float)
    except ValueError:
        raise ConfigError("run x0 must be 'auto' or a comma list of floats") from None
    if x0.shape != (manifold.ambient_dim,):
        raise ConfigError(f"x0 needs {manifold.ambient_dim} components")
    return x0


def _constants_for(cp_params, spec, problem, rate, n_samples, seed):
    lam = cp_params["lambda"]
    theta = cp_params["theta"]
    b_raw = cp_params["b"]
    if b_raw == "auto":
        trial = conf.estimate_constants(spec, problem, rate, lam, 1.0, theta,
                                        n_samples, seed=seed)
        b = max(trial.b_est, 1e-6)
    else:
        try:
            b = float(b_raw)
        except ValueError:
            raise ConfigError("confinement b must be a number or 'auto'") from None
    return conf.estimate_constants(spec, problem, rate, lam, b, theta, n_samples, seed=seed)


def _resolved(cp) -> dict:
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _downsample(curve: np.ndarray, limit: int = 256) -> list:
    if curve.size <= limit:
        return curve.tolist()
    idx = np.unique(np.linspace(0, curve.size - 1, limit).astype(int))
    return curve[idx].tolist()


def cmd_run(args) -> int:
    cp = load_config(args.config)
    problem = build_problem(cp)
    seed = args.seed if args.seed is not None else _get_int(cp, "run", "seed", 0)
    plan = build_plan(cp, problem.space, seed)
    rate = build_rate(cp)
    horizon = args.horizon if args.horizon is not None else _get_int(cp, "run", "horizon")
    n_seeds = _get_int(cp, "run", "seeds", 1)
    out_dir = Path(args.out if args.out is not None else cp.get("run", "out", fallback="runs"))
    x0 = _parse_x0(cp, problem.manifold)
    conf_params = build_confinement(cp, problem)

    cfg = RunConfig(oracle=problem, plan=plan, rate=rate, x0=x0, horizon=horizon, seed=seed)
    constants = None
    try:
        if conf_params is None:
            trajectories = run_many(cfg, n_seeds)
        else:
            variant = conf_params["variant"]
            if isinstance(rate, AdaptiveRate):
                if conf_params["kappa"] <= 0:
                    raise ConfigError("adaptive confined runs need kappa > 0")
                spec = conf.norm_squared_confinement(
                    conf_params["rho0"], conf_params["rho1"],
                    variant if variant != "plain" else "kappa",
                )
                trajectories = conf.run_confined_adaptive_many(
                    cfg, spec, conf_params["kappa"], n_seeds)
            else:
                spec = conf.norm_squared_confinement(conf_params["rho0"])
                constants = _constants_for(conf_params, spec, problem, rate,
                                           conf_params["samples"], seed)
                cfg.rho = spec.rho
                trajectories = conf.run_confined_deterministic_many(cfg, constants, n_seeds)
    except (DegenerateRetraction, ConfinementViolation, SamplerFailure) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3

    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = Path(args.config).stem
    for tr in trajectories:
        tr.write_csv(out_dir / f"{run_id}_seed{tr.seed}.csv")
    metrics = diag.convergence_metrics(trajectories)
    metrics["mean_square_curve"] = _downsample(metrics["mean_square_curve"])
    summary = {
        "run_id": run_id,
        "config": _resolved(cp),
        "overrides": {"seed": args.seed, "horizon": args.horizon},
        "seeds": [tr.seed for tr in trajectories],
        "data_seed": problem.data_seed,
        "metrics": metrics,
    }
    if constants is not None:
        summary["confinement_constants"] = vars(constants) | {}
    _write_json(out_dir / f"{run_id}_summary.json", summary)
    if not args.quiet:
        print(f"wrote {len(trajectories)} trajectories to {out_dir}")
    if any(tr.status != "ok" for tr in trajectories):
        print("run aborted: non-finite values encountered", file=sys.stderr)
        return 3
    return 0


def _check_unbiasedness(cp, problem, plan, seed):
    rng = np.random.default_rng([seed, 11])
    xs = problem.sample_region(rng, 20)
    worst = 0.0
    for x in xs:
        dev = enumerate_expectation(problem, x, plan, t=0) - problem.full_gradient(x)
        worst = max(worst, float(np.sqrt((dev * dev).sum())))
    return {"check": "unbiasedness", "pass": worst <= 1e-10, "worst": worst,
            "tolerance": 1e-10, "points": 20, "seed": seed}


def cmd_check(args) -> int:
    if args.name not in CHECK_NAMES:
        print(f"unknown check {args.name!r}; expected one of {CHECK_NAMES}", file=sys.stderr)
        return 2
    cp = load_config(args.config)
    problem = build_problem(cp)
    seed = args.seed if args.seed is not None else _get_int(cp, "run", "seed", 0)
    out_dir = Path(args.out if args.out is not None else cp.get("run", "out", fallback="runs"))

    try:
        if args.name == "unbiasedness":
            plan = build_plan(cp, problem.space, seed)
            payload = _check_unbiasedness(cp, problem, plan, seed)
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
            first = diag.estimate_lipschitz(problem, radius, 4000, seed=seed)
            second = diag.estimate_lipschitz(problem, radius, 4000, seed=seed + 1)
            ratio = max(first.c1, second.c1) / max(min(first.c1, second.c1), 1e-30)
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
                if params["kappa"] <= 0:
                    raise ConfigError("kappa_confinement needs kappa > 0")
                rate = build_rate(cp)
                if isinstance(rate, AdaptiveRate):
                    rho1 = params["rho1"]
                else:
                    spec0 = conf.norm_squared_confinement(params["rho0"])
                    constants = _constants_for(params, spec0, problem, rate,
                                               params["samples"], seed)
                    rho1 = constants.rho1
                variant = params["variant"] if params["variant"] != "plain" else "kappa"
                spec = conf.norm_squared_confinement(params["rho0"], rho1, variant)
                report = conf.check_kappa_confinement(spec, problem, params["kappa"],
                                                      params["samples"], seed=seed)
            payload = report.to_dict()
    except (ConfigError, UnboundedRegion) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SamplerFailure as exc:
        print(f"check failed to sample: {exc}", file=sys.stderr)
        return 1

    _write_json(out_dir / f"check_{args.name}.json", payload)
    if not args.quiet:
        print(f"{args.name}: {'PASS' if payload['pass'] else 'FAIL'}")
    return 0 if payload["pass"] else 1


def cmd_report(args) -> int:
    out_dir = Path(args.out if args.out is not None else ".")
    files = sorted(out_dir.glob("*_seed*.csv"))
    if not files:
        print(f"no trajectory CSV files in {out_dir}", file=sys.stderr)
        return 2
    trajectories = []
    for f in files:
        try:
            stem = f.stem
            seed = int(stem[stem.rindex("_seed") + 5 :])
            trajectories.append(read_trajectory_csv(f, seed=seed))
        except (ValueError, OSError) as exc:
            print(f"malformed trajectory file {f}: {exc}", file=sys.stderr)
            return 2
    metrics = diag.convergence_metrics(trajectories)
    metrics["mean_square_curve"] = _downsample(metrics["mean_square_curve"])
    _write_json(out_dir / "report.json", {"n_files": len(files), "metrics": metrics})
    if not args.quiet:
        thr = metrics["threshold"]
        print(f"{'seed':>8} {'final_F':>14} {'final_grad':>12} {'min_grad':>12} {'below':>6}")
        for tr in trajectories:
            below = int(tr.grad_norm.min() <= thr)
            print(f"{tr.seed:>8} {tr.F[-1]:>14.6g} {tr.grad_norm[-1]:>12.4g} "
                  f"{tr.grad_norm.min():>12.4g} {below:>6}")
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
        if name != "report":
            sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
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
