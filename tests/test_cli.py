import configparser
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from rsgd import budget, cli, diagnostics, records
from rsgd import confinement as conf
from rsgd.cli import CONFIG_KEYS, _parse_strata, build_plan, load_config, main
from rsgd.records import CSV_HEADER, CsvSink
from rsgd.manifolds import Sphere
from rsgd.problems import FiniteSampleSpace

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_ini():
    """The README's config reference, verbatim."""
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)


SPHERE_CONFIG = """
[problem]
kind = sphere_mean
dimension = 4
n_outcomes = 8
data_seed = 7

[plan]
scheme = segment
batch_size = 2

[rate]
kind = power
c = 0.5
p = 0.75

[run]
horizon = 200
seeds = 3
seed = 1
out = {out}
"""

LS_CONFINED_CONFIG = """
[problem]
kind = least_squares
dimension = 3
n_outcomes = 6
data_seed = 11
tau = 0.2

[plan]
scheme = no_repetition
batch_size = 2

[rate]
kind = power
c = 0.5
p = 0.75

[confinement]
enabled = true
variant = plain
rho0 = auto
lambda = 1.0
b = auto
theta = 1.0
samples = 500

[run]
horizon = 500
seeds = 2
seed = 3
out = {out}
"""


@pytest.fixture
def sphere_config(tmp_path):
    out = tmp_path / "runs"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SPHERE_CONFIG.format(out=out))
    return cfg, out


class TestRun:
    def test_writes_csvs_and_summary(self, sphere_config):
        cfg, out = sphere_config
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        files = sorted(out.glob("exp_seed*.csv"))
        assert [f.name for f in files] == ["exp_seed1.csv", "exp_seed2.csv", "exp_seed3.csv"]
        for f in files:
            assert len(f.read_text().strip().split("\n")) == 202  # header + T + 1
        summary = json.loads((out / "exp_summary.json").read_text())
        assert summary["seeds"] == [1, 2, 3]
        assert summary["config"]["problem"]["kind"] == "sphere_mean"
        assert summary["metrics"]["n_seeds"] == 3

    def test_seed_override_is_deterministic(self, sphere_config, tmp_path):
        cfg, _ = sphere_config
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(a), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(b), "--quiet"]) == 0
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_least_squares_run_is_deterministic(self, tmp_path):
        cfg = tmp_path / "ls.ini"
        cfg.write_text(LS_CONFINED_CONFIG.format(out=tmp_path / "unused"))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--config", str(cfg), "--out", str(out), "--horizon", "100",
                         "--quiet"]) == 0
        assert sorted(f.name for f in a.iterdir()) == sorted(f.name for f in b.iterdir())
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_horizon_override(self, sphere_config):
        cfg, out = sphere_config
        assert main(["run", "--config", str(cfg), "--horizon", "50", "--quiet"]) == 0
        assert len((out / "exp_seed1.csv").read_text().strip().split("\n")) == 52

    def test_missing_config_is_config_error(self):
        assert main(["run", "--config", "nope.ini"]) == 2

    def test_cross_field_validation(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SPHERE_CONFIG.format(out=tmp_path / "o").replace(
            "scheme = segment", "scheme = no_repetition").replace(
            "batch_size = 2", "batch_size = 40"))
        assert main(["run", "--config", str(cfg)]) == 2

    def test_confined_run(self, tmp_path):
        out = tmp_path / "runs"
        cfg = tmp_path / "conf.ini"
        cfg.write_text(LS_CONFINED_CONFIG.format(out=out))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        summary = json.loads((out / "conf_summary.json").read_text())
        assert "confinement_constants" in summary
        assert summary["confinement_constants"]["phi"] > 0
        csv = (out / "conf_seed3.csv").read_text().strip().split("\n")
        assert not np.isnan(float(csv[1].split(",")[6]))  # rho column populated


class TestCsvProblemAndAborts:
    def test_problem_from_csv_and_runtime_abort_exit_code(self, tmp_path, capsys):
        # huge feature rows make the unit-rate run diverge: exit 3, partial CSVs
        data = tmp_path / "rows.csv"
        data.write_text("a1,a2,y\n10,0,0\n0,10,0\n")
        out = tmp_path / "runs"
        cfg = tmp_path / "div.ini"
        cfg.write_text(f"""
[problem]
kind = least_squares
tau = 0.1
csv = {data}

[plan]
scheme = no_repetition
batch_size = 2

[rate]
kind = list
values = {', '.join(['1.0'] * 300)}

[run]
horizon = 300
seeds = 1
seed = 0
out = {out}
x0 = 1.0, 1.0
""")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert (out / "div_seed0.csv").exists()

    def test_batch_growth_parsing(self, tmp_path):
        out = tmp_path / "runs"
        cfg = tmp_path / "grow.ini"
        cfg.write_text(SPHERE_CONFIG.format(out=out).replace(
            "batch_size = 2", "batch_growth = 1:1.5"))
        assert main(["run", "--config", str(cfg), "--horizon", "30", "--quiet"]) == 0
        rows = (out / "grow_seed1.csv").read_text().strip().split("\n")[1:]
        sizes = [int(r.split(",")[4]) for r in rows[:-1]]
        assert sizes[0] == 1 and max(sizes) <= 8
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_batch_growth_past_float_range(self, tmp_path):
        # 1.5**t overflows a float at t = 1751; the sizes stay at the cap
        out = tmp_path / "runs"
        cfg = tmp_path / "grow.ini"
        cfg.write_text(SPHERE_CONFIG.format(out=out).replace(
            "batch_size = 2", "batch_growth = 1:1.5"))
        assert main(["run", "--config", str(cfg), "--horizon", "3000", "--quiet"]) == 0
        rows = (out / "grow_seed1.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 3001
        assert {int(r.split(",")[4]) for r in rows[1700:3000]} == {8}

    @pytest.mark.parametrize("text, where", [
        ("batch_size = 2", "batch_size = 2\nbatchsize = 8"),
        ("[run]", "[runs]\nhorizon = 5\n\n[run]"),
    ], ids=["key", "section"])
    def test_unknown_config_entries_are_config_errors(self, tmp_path, capsys, text, where):
        out = tmp_path / "runs"
        cfg = tmp_path / "typo.ini"
        cfg.write_text(SPHERE_CONFIG.format(out=out).replace(text, where))
        for argv in (["run"], ["check", "unbiasedness"]):
            assert main(argv + ["--config", str(cfg), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert ("[plan] batchsize" in err) if "batchsize" in where else ("[runs]" in err)
        assert not out.exists()


# sphere targets near the float limit: their squares overflow, so every
# enumerated expectation and the gradient bound are non-finite
OVERFLOW_SPHERE_CSV = """a0,a1,a2
1.5e308,1.2e308,-1.4e308
-1.3e308,1.1e308,1.0e308
0.9e308,-1.6e308,1.2e308
-1.1e308,-1.0e308,-1.3e308
"""


@pytest.fixture
def overflow_sphere(tmp_path):
    data = tmp_path / "targets.csv"
    data.write_text(OVERFLOW_SPHERE_CSV)
    out = tmp_path / "runs"
    cfg = tmp_path / "ovs.ini"
    cfg.write_text(f"""
[problem]
kind = sphere_mean
dimension = 3
n_outcomes = 4
csv = {data}

[plan]
scheme = segment
batch_size = 2

[rate]
kind = power
c = 0.5
p = 0.75

[run]
horizon = 10
out = {out}
""")
    return cfg, out


class TestCheck:
    def test_unbiasedness_fails_on_nan_expectations(self, overflow_sphere, capsys):
        cfg, out = overflow_sphere
        with np.errstate(all="ignore"):
            assert main(["check", "unbiasedness", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out == "unbiasedness: FAIL\n"
        text = (out / "check_unbiasedness.json").read_text()
        assert '"worst": NaN' in text
        payload = json.loads(text)
        assert payload["pass"] is False and math.isnan(payload["worst"])

    def test_lipschitz_on_an_infinite_gradient_bound_fails_to_sample(self, overflow_sphere,
                                                                      capsys):
        cfg, out = overflow_sphere
        with np.errstate(all="ignore"):
            assert main(["check", "lipschitz", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == ("check failed to sample: the gradient bound, the radius of the "
                       "sampled tangent steps, is inf\n")
        assert not (out / "check_lipschitz.json").exists()

    @pytest.mark.parametrize("nan_call", [0, 1], ids=["first", "reseeded"])
    def test_lipschitz_fails_on_a_nan_estimate(self, sphere_config, capsys, nan_call):
        cfg, out = sphere_config
        real, calls = diagnostics.estimate_lipschitz, []

        def estimate(*args, **kwargs):
            est = real(*args, **kwargs)
            calls.append(est)
            return replace(est, c1=math.nan) if len(calls) - 1 == nan_call else est

        with mock.patch.object(cli.diag, "estimate_lipschitz", estimate):
            assert main(["check", "lipschitz", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out == "lipschitz: FAIL\n"
        payload = json.loads((out / "check_lipschitz.json").read_text())
        assert payload["pass"] is False and math.isnan(payload["stability_ratio"])

    def test_unbiasedness_passes(self, sphere_config):
        cfg, out = sphere_config
        assert main(["check", "unbiasedness", "--config", str(cfg), "--quiet"]) == 0
        payload = json.loads((out / "check_unbiasedness.json").read_text())
        assert payload["pass"] and payload["worst"] <= 1e-10

    def test_schedule_fail_exits_one(self, sphere_config, capsys):
        cfg, out = sphere_config
        bad = cfg.parent / "badrate.ini"
        bad.write_text(cfg.read_text().replace("p = 0.75", "p = 0.4"))
        assert main(["check", "schedule", "--config", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_schedule_pass(self, sphere_config):
        cfg, _ = sphere_config
        assert main(["check", "schedule", "--config", str(cfg), "--quiet"]) == 0

    def test_unknown_check_exits_two(self, sphere_config):
        cfg, _ = sphere_config
        assert main(["check", "bogus", "--config", str(cfg)]) == 2

    def test_gradient_and_lipschitz(self, sphere_config):
        cfg, out = sphere_config
        assert main(["check", "gradient", "--config", str(cfg), "--quiet"]) == 0
        assert main(["check", "lipschitz", "--config", str(cfg), "--quiet"]) == 0
        payload = json.loads((out / "check_lipschitz.json").read_text())
        assert payload["stability_ratio"] <= 2.0

    def test_confinement_check(self, tmp_path):
        out = tmp_path / "runs"
        cfg = tmp_path / "conf.ini"
        cfg.write_text(LS_CONFINED_CONFIG.format(out=out))
        assert main(["check", "confinement", "--config", str(cfg), "--quiet"]) == 0
        payload = json.loads((out / "check_confinement.json").read_text())
        assert payload["pass"] and payload["min_margin"] >= 0

    def test_confinement_requires_section(self, sphere_config):
        cfg, _ = sphere_config
        assert main(["check", "confinement", "--config", str(cfg)]) == 2

    def test_plan_past_the_old_enumeration_budget_is_certified(self, tmp_path, capsys,
                                                                monkeypatch):
        # 16 outcomes, batch size 6: 16**6 = 16,777,216 batches at t = 0, once
        # past the 10**6 enumerated at most; the coefficient law walks the 16
        # outcomes
        cfg = tmp_path / "readme.ini"
        cfg.write_text(_readme_ini().replace("batch_size = 4 ", "batch_size = 6 "))
        monkeypatch.chdir(tmp_path)
        assert main(["check", "unbiasedness", "--config", str(cfg)]) == 0
        assert capsys.readouterr() == ("unbiasedness: PASS\n", "")
        payload = json.loads((tmp_path / "runs" / "exp1" / "check_unbiasedness.json").read_text())
        assert payload["pass"] and payload["worst"] <= 1e-10

    @pytest.mark.parametrize("name", ["unbiasedness", "gradient", "lipschitz"])
    def test_least_squares_without_a_ball_names_rho1(self, tmp_path, capsys, name):
        out = tmp_path / "runs"
        cfg = tmp_path / "ls.ini"
        cfg.write_text(LS_CONFINED_CONFIG.format(out=out))
        assert main(["check", name, "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "[problem] rho1" in err
        assert not out.exists()


class TestReport:
    def test_aggregates(self, sphere_config, capsys):
        cfg, out = sphere_config
        main(["run", "--config", str(cfg), "--quiet"])
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "seed" in text and "fraction with final grad norm" in text
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_files"] == 3
        assert "fraction_final_below" in payload["metrics"]

    def test_single_seed_table_row(self, sphere_config, capsys):
        cfg, out = sphere_config
        main(["run", "--config", str(cfg), "--horizon", "20", "--quiet"])
        main(["report", "--out", str(out)])
        rows = [l for l in capsys.readouterr().out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(rows) == 3

    def test_empty_directory_exits_two(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "x_seed1.csv"
        bad.write_text("t,F\n0,1\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "x_seed1.csv" in capsys.readouterr().err

    def test_header_only_csv_exits_two_without_a_warning(self, tmp_path, capsys):
        (tmp_path / "x_seed1.csv").write_text(CSV_HEADER + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "x_seed1.csv: no data rows" in err
        assert not caught and "Warning" not in err

    def test_runs_of_different_lengths_exit_two(self, sphere_config, capsys):
        # two horizons in one directory once ended in a ValueError traceback
        cfg, out = sphere_config
        longer = cfg.with_name("longer.ini")
        longer.write_text(cfg.read_text())
        assert main(["run", "--config", str(cfg), "--horizon", "50", "--quiet"]) == 0
        assert main(["run", "--config", str(longer), "--horizon", "80", "--quiet"]) == 0
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "different lengths" in err
        assert "exp_seed1.csv has 51 rows" in err and "longer_seed1.csv has 81 rows" in err
        assert not (out / "report.json").exists()

    def test_two_runs_of_one_length_exit_two(self, sphere_config, capsys):
        # two configs of one horizon in one directory were once reported as
        # one run, each seed counted twice
        cfg, out = sphere_config
        cfg.with_name("other.ini").write_text(cfg.read_text())
        for name in ("exp.ini", "other.ini"):
            assert main(["run", "--config", str(cfg.with_name(name)), "--horizon", "20",
                         "--quiet"]) == 0
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "trajectory files of runs exp, other" in err
        assert "report one run's files at a time" in err
        assert not (out / "report.json").exists()

    def test_a_seed_in_two_files_exits_two(self, sphere_config, capsys):
        cfg, out = sphere_config
        assert main(["run", "--config", str(cfg), "--horizon", "20", "--quiet"]) == 0
        (out / "exp_seed01.csv").write_text((out / "exp_seed1.csv").read_text())
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "trajectory files of run exp" in err and "repeat seed 1;" in err
        assert not (out / "report.json").exists()


    def test_report_memory_is_flat_in_the_files(self, sphere_config):
        # one file is read, folded and dropped at a time: ten times the
        # files hold no more memory (the 36 more files parsed would take
        # 4.4 MiB)
        cfg, _ = sphere_config
        peaks = []
        for seeds in (4, 40):
            out = cfg.parent / f"runs{seeds}"
            cfg.write_text(SPHERE_CONFIG.format(out=out).replace("seeds = 3", f"seeds = {seeds}"))
            assert main(["run", "--config", str(cfg), "--horizon", "2000", "--quiet"]) == 0
            main(["report", "--out", str(out), "--quiet"])  # warm caches
            tracemalloc.start()
            try:
                assert main(["report", "--out", str(out), "--quiet"]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 64 * 1024, peaks

    def test_aborted_run_reports_its_nonfinite_seeds(self, tmp_path, capsys):
        # 16 least-squares rows scaled x30 diverge under c = 0.9: run exits 3
        # and writes every seed's CSV; report reads the same statuses back
        rng = np.random.default_rng(3)
        rows = np.column_stack([30 * rng.normal(size=(16, 3)), 30 * rng.normal(size=16)])
        data = tmp_path / "rows.csv"
        data.write_text("a0,a1,a2,y\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in rows))
        out = tmp_path / "runs"
        cfg = tmp_path / "div.ini"
        cfg.write_text(f"""
[problem]
kind = least_squares
dimension = 3
n_outcomes = 16
csv = {data}
tau = 0.2

[plan]
scheme = segment
batch_size = 2

[rate]
kind = power
c = 0.9
p = 0.75

[run]
horizon = 200
seeds = 3
out = {out}
""")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 3
        ran = json.loads((out / "div_summary.json").read_text())["metrics"]
        assert ran["statuses"] == ["nonfinite"] * 3 and ran["all_ok"] is False
        assert main(["report", "--out", str(out), "--quiet"]) == 0
        reported = json.loads((out / "report.json").read_text())["metrics"]
        assert reported["statuses"] == ran["statuses"]
        assert reported["all_ok"] is False

    @pytest.mark.parametrize("horizon, code, status", [
        (76, 0, "ok"), (77, 3, "nonfinite"), (78, 3, "nonfinite")])
    def test_run_and_report_agree_on_a_seed_retired_at_x_T(self, tmp_path, capsys, horizon,
                                                           code, status):
        # this run's gradient norm first overflows at t = 77: at horizon 77
        # that is x_T's record, which retires the seed as any other record does
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.normal(size=(6, 3)) * 40, rng.normal(size=6)])
        data = tmp_path / "rows.csv"
        data.write_text("a0,a1,a2,y\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in rows))
        out = tmp_path / "runs"
        cfg = tmp_path / "over.ini"
        cfg.write_text(f"""
[problem]
kind = least_squares
dimension = 3
n_outcomes = 6
csv = {data}
tau = 0.2

[plan]
scheme = segment
batch_size = 2

[rate]
kind = power
c = 1
p = 0.75

[run]
horizon = {horizon}
x0 = 1, 1, 1
out = {out}
""")
        assert main(["run", "--config", str(cfg), "--quiet"]) == code
        assert main(["report", "--out", str(out), "--quiet"]) == 0
        for name in ("over_summary.json", "report.json"):
            metrics = json.loads((out / name).read_text())["metrics"]
            assert metrics["statuses"] == [status], name
            assert metrics["all_ok"] is (status == "ok"), name
        grad_norm = records.read_trajectory_csv(out / "over_seed0.csv").grad_norm
        assert np.isfinite(grad_norm[:77]).all() and not np.isfinite(grad_norm[77:]).any()


@pytest.mark.parametrize("argv", [
    ["report", "--seed", "1"], ["report", "--horizon", "5"],
    ["check", "unbiasedness", "--config", "exp.ini", "--horizon", "5"],
], ids=["report-seed", "report-horizon", "check-horizon"])
def test_flags_a_subcommand_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestInlineComments:
    def test_readme_config_runs(self, tmp_path, monkeypatch):
        # comments after values included
        cfg = tmp_path / "readme.ini"
        cfg.write_text(_readme_ini())
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--horizon", "20", "--quiet"]) == 0
        summary = json.loads((tmp_path / "runs" / "exp1" / "readme_summary.json").read_text())
        assert summary["config"]["problem"]["kind"] == "sphere_mean"
        assert summary["config"]["plan"]["scheme"] == "segment"

    def test_readme_names_exactly_the_table_keys(self):
        # commented-out keys count: the reference lists every key once
        named, section = {}, None
        for line in _readme_ini().splitlines():
            head = re.fullmatch(r"\[(\w+)\]", line.strip())
            if head:
                section = head.group(1)
                named[section] = set()
            elif section:
                named[section].update(re.findall(r"(\w+) = ", line))
        assert named == {section: set(keys) for section, keys in CONFIG_KEYS.items()}

    def test_semicolon_without_space_separates_strata(self, tmp_path):
        cfg = tmp_path / "strata.ini"
        cfg.write_text("[plan]\nscheme = stratified      ; comment\n"
                       "strata = 0-7; 8-15          ; stratified only\n"
                       "per_stratum_counts = 2, 2\n")
        cp = load_config(cfg)
        assert cp.get("plan", "scheme") == "stratified"
        assert _parse_strata(cp.get("plan", "strata")) == (tuple(range(8)), tuple(range(8, 16)))
        plan = build_plan(cp, FiniteSampleSpace.uniform(16), seed=0)
        assert plan.batch_size(0) == 4


class TestConfinedRunInputs:
    """Adaptive confined runs and the adaptive kappa check keep rho under
    rho0 + 1; inputs a confined run rejects are config errors, not tracebacks."""

    @staticmethod
    def _config(tmp_path, adaptive=True, kappa="1.0", x0="auto"):
        text = (LS_CONFINED_CONFIG.format(out=tmp_path / "runs")
                .replace("variant = plain\nrho0 = auto",
                         f"variant = kappa\nrho0 = 4.0\nkappa = {kappa}")
                .replace("horizon = 500", f"horizon = 50\nx0 = {x0}"))
        if adaptive:
            text = text.replace("kind = power\nc = 0.5\np = 0.75", "kind = adaptive")
        cfg = tmp_path / "kappa.ini"
        cfg.write_text(text)
        return cfg

    @pytest.mark.parametrize("argv", [["run"], ["check", "kappa_confinement"]],
                             ids=["run", "check"])
    def test_rho1_reaches_the_spec(self, tmp_path, argv):
        cfg = self._config(tmp_path)
        with mock.patch.object(conf, "norm_squared_confinement",
                               wraps=conf.norm_squared_confinement) as make_spec:
            code = main(argv + ["--config", str(cfg), "--quiet"])
        assert code in (0, 1)  # a kappa check may fail; it must not be a config error
        assert [c.args[:2] for c in make_spec.call_args_list] == [(4.0, 5.0)]

    @pytest.mark.parametrize("adaptive, kappa, x0, message", [
        (True, "0.4", "auto", "eta_0 = 0.5 exceeds kappa = 0.4"),
        (True, "1.0", "3.0, 0.0, 0.0", "rho(x0) = 9 must not exceed rho1 = 5"),
        (False, "1.0", "3.0, 0.0, 0.0", "rho(x0) = 9 must not exceed rho0 = 4"),
    ], ids=["eta0-above-kappa", "adaptive-start-above-rho1", "start-above-rho0"])
    def test_rejected_inputs_exit_2(self, tmp_path, capsys, adaptive, kappa, x0, message):
        cfg = self._config(tmp_path, adaptive, kappa, x0)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


# edits that turn SPHERE_CONFIG into a least-squares config, and add a
# confinement section to it
TO_LEAST_SQUARES = ("kind = sphere_mean", "kind = least_squares\ntau = 0.2")


# a deterministic rate with no rate sum to diverge
LIST_RATE = ("kind = power\nc = 0.5\np = 0.75", "kind = list\nvalues = 0.5, 0.4, 0.3")


def _confined(line):
    return ("[run]", f"[confinement]\nenabled = true\n{line}\n\n[run]")


class TestRunInputs:
    """Inputs the engine would reject are config errors naming their key."""

    @pytest.mark.parametrize("edits, argv, key", [
        ([("seeds = 3", "seeds = 0")], ["run"], "[run] seeds"),
        ([("seeds = 3", "seeds = -3")], ["run"], "[run] seeds"),
        ([], ["run", "--horizon", "-1"], "[run] horizon"),
        ([("out = ", "x0 = 1.0, 1.0, 0.0, 0.0\nout = ")], ["run"], "[run] x0"),
        ([("kind = power\nc = 0.5\np = 0.75", "kind = list\nvalues = 0.5, 0.4, 0.3")],
         ["run", "--horizon", "20"], "[rate] values"),
        ([("dimension = 4", "dimension = 1")], ["run"], "[problem] dimension"),
        ([("dimension = 4", "dimension = 1")], ["check", "unbiasedness"],
         "[problem] dimension"),
        ([TO_LEAST_SQUARES, ("dimension = 4", "dimension = 0")], ["run"],
         "[problem] dimension"),
        ([("n_outcomes = 8", "n_outcomes = 0")], ["run"], "[problem] n_outcomes"),
        ([("data_seed = 7", "data_seed = -1")], ["run"], "[problem] data_seed"),
        ([("kind = sphere_mean", "kind = least_squares\ntau = 0")], ["run"], "[problem] tau"),
        ([("dimension = 4", "csv = {bad_csv}")], ["run"], "[problem] csv"),
        # read as a target, the nan would fail every check and abort the run (exit 3)
        ([("dimension = 4", "csv = {nan_csv}")], ["run"],
         "nan.csv: data row 2 holds a non-finite cell"),
        ([("dimension = 4", "csv = {nan_csv}")], ["check", "unbiasedness"],
         "nan.csv: data row 2 holds a non-finite cell"),
        ([("scheme = segment\nbatch_size = 2",
           "scheme = stratified\nstrata = 0-x; 4-7\nper_stratum_counts = 1, 1")],
         ["run"], "[plan] strata"),
        ([("scheme = segment\nbatch_size = 2",
           "scheme = stratified\nstrata = 0-2; 5-3\nper_stratum_counts = 1, 1")],
         ["run"], "[plan] strata must be"),
        ([("scheme = segment\nbatch_size = 2",
           "scheme = stratified\nstrata = 0-3; 4-7\nper_stratum_counts = 1")],
         ["run"], "[plan] strata: need one positive count per stratum"),
        ([("scheme = segment\nbatch_size = 2", "scheme = no_repetition\nbatch_size = 9")],
         ["run"], "[plan] batch_size: batch size 9 exceeds 8 outcomes"),
        ([("scheme = segment\nbatch_size = 2", "scheme = no_repetition\nbatch_sizes = 1, 9")],
         ["run"], "[plan] batch_sizes: batch size 9 exceeds 8 outcomes"),
        ([TO_LEAST_SQUARES, _confined("samples = 0")], ["run"], "[confinement] samples"),
        ([TO_LEAST_SQUARES, _confined("lambda = 0")], ["run"], "[confinement] lambda"),
        ([TO_LEAST_SQUARES, _confined("theta = -1")], ["run"], "[confinement] theta"),
        ([TO_LEAST_SQUARES, _confined("b = 0")], ["run"], "[confinement] b"),
        # b^2 sigma / 2 overflows: the sampled ball would have radius inf
        ([TO_LEAST_SQUARES, _confined("b = 1e200")], ["run"],
         "[confinement] b = 1e+200 makes rho1 = rho0 + lambda c + b^2 sigma / 2 = inf"),
        ([TO_LEAST_SQUARES, _confined("variant = kappa\nkappa = 0.5\nb = 1e200")],
         ["check", "kappa_confinement"],
         "[confinement] b = 1e+200 makes rho1 = rho0 + lambda c + b^2 sigma / 2 = inf"),
        ([("[run]", "[confinement]\nenabled = maybe\n\n[run]")], ["run"],
         "[confinement] enabled"),
        ([TO_LEAST_SQUARES, _confined("variant = bogus")], ["run"], "[confinement] variant"),
        ([TO_LEAST_SQUARES, _confined("rho0 = -1")], ["run"], "[confinement] rho0"),
        ([TO_LEAST_SQUARES, _confined("rho0 = -1")], ["check", "confinement"],
         "[confinement] rho0"),
        ([TO_LEAST_SQUARES, _confined("rho0 = nan")], ["run"], "[confinement] rho0"),
        ([TO_LEAST_SQUARES, _confined("rho0 = nan")], ["check", "confinement"],
         "[confinement] rho0"),
        # a label of 1e200 squares to inf
        ([TO_LEAST_SQUARES, ("dimension = 4", "csv = {big_csv}"), _confined("rho0 = auto")],
         ["run"], "[confinement] rho0 = auto is max y^2 / (4 tau) = inf"),
        ([TO_LEAST_SQUARES, ("dimension = 4", "csv = {big_csv}"), _confined("rho0 = auto")],
         ["check", "confinement"], "[confinement] rho0 = auto is max y^2 / (4 tau) = inf"),
        ([_confined("rho0 = 2.0")], ["run"], "[confinement] enabled"),
        ([_confined("rho0 = 2.0")], ["check", "confinement"], "[confinement] enabled"),
        ([TO_LEAST_SQUARES, _confined("rho0 = 4.0"), LIST_RATE], ["run", "--horizon", "3"],
         "[rate] kind"),
        ([TO_LEAST_SQUARES, _confined("variant = kappa\nrho0 = 4.0"), LIST_RATE],
         ["check", "kappa_confinement"], "[rate] kind"),
        ([TO_LEAST_SQUARES, _confined("rho0 = 4.0"), ("p = 0.75", "p = 0.4")], ["run"],
         "[rate] p"),
        ([("p = 0.75", "p = nan")], ["run"], "[rate] p"),
        ([("p = 0.75", "p = nan")], ["check", "schedule"], "[rate] p"),
        ([("seed = 1", "seed = -5")], ["check", "gradient"], "[run] seed"),
        ([], ["check", "gradient", "--seed", "-5"], "[run] seed"),
        ([TO_LEAST_SQUARES, _confined("rho0 = 4.0"), ("seed = 1", "seed = -5")], ["run"],
         "[run] seed"),
        ([TO_LEAST_SQUARES, _confined("rho0 = 4.0")], ["run", "--seed", "-5"], "[run] seed"),
        ([("seed = 1", "seed = 100000000000000000000")], ["run"], "[run] seed"),
        ([], ["run", "--seed", "100000000000000000000"], "[run] seed"),
        ([("seed = 1", "seed = 9223372036854775807"), ("seeds = 3", "seeds = 2")], ["run"],
         "[run] seed"),
        ([("seeds = 3", "seeds = 2")], ["run", "--seed", "9223372036854775807"], "[run] seed"),
        ([("batch_size = 2", "batch_growth = 1:nan")], ["run"], "[plan] batch_growth"),
        ([("batch_size = 2", "batch_size = 4\nbatch_growth = 1:2")], ["run"],
         "[plan] batch_size and [plan] batch_growth exclude each other"),
        # a stratified batch takes its size from per_stratum_counts
        ([("scheme = segment\nbatch_size = 2",
           "scheme = stratified\nstrata = 0-3; 4-7\nper_stratum_counts = 1, 1\nbatch_size = 2")],
         ["run"], "[plan] batch_size does not apply under scheme = stratified"),
        ([("scheme = segment\nbatch_size = 2", "scheme = stratified\nstrata = 0-3; 4-7\n"
           "per_stratum_counts = 1, 1\nbatch_growth = 1:1.5")],
         ["run"], "[plan] batch_growth does not apply under scheme = stratified"),
        ([("scheme = segment\nbatch_size = 2", "scheme = stratified\nstrata = 0-3; 4-7\n"
           "per_stratum_counts = 1, 1\nbatch_sizes = 1, 2")],
         ["run"], "[plan] batch_sizes does not apply under scheme = stratified"),
        ([("batch_size = 2", "batch_sizes = 1, 2, 2")], ["run"],
         "[plan] batch_sizes has 3 sizes, fewer than the horizon 200"),
        # numpy refuses these sizes without allocating; nothing larger is run
        ([], ["run", "--horizon", "100000000000000000000"], "[run] horizon"),
        ([("seeds = 3", "seeds = 100000000000000000000")], ["run"], "[run] seeds"),
    ], ids=["seeds-zero", "seeds-negative", "horizon-negative", "x0-off-sphere",
            "list-rate-too-short", "sphere-dimension-1", "check-sphere-dimension-1",
            "least-squares-dimension-0", "n-outcomes-zero", "data-seed-negative",
            "tau-zero", "csv-non-numeric", "csv-nan", "check-csv-nan", "strata-not-an-index",
            "strata-reversed-range", "strata-counts-mismatch", "subset-size-over-n",
            "subset-size-list-over-n", "samples-zero",
            "lambda-zero", "theta-negative", "b-zero", "b-overflows", "check-b-overflows",
            "enabled-not-a-boolean", "variant-unknown", "rho0-negative", "check-rho0-negative",
            "rho0-nan", "check-rho0-nan", "rho0-auto-overflows", "check-rho0-auto-overflows", "sphere-confined", "check-sphere-confined", "confined-list-rate",
            "check-confined-list-rate",
            "confined-p-not-square-summable", "p-nan", "check-p-nan", "check-seed-negative",
            "check-seed-flag-negative", "confined-seed-negative", "confined-seed-flag-negative",
            "seed-past-int64", "seed-flag-past-int64", "seed-wraps", "seed-flag-wraps",
            "batch-growth-nan", "size-keys-exclusive", "stratified-batch-size",
            "stratified-batch-growth", "stratified-batch-sizes", "batch-sizes-short",
            "horizon-flag-past-2-53", "seeds-past-memory"])
    def test_exit_2(self, sphere_config, capsys, edits, argv, key):
        cfg, out = sphere_config
        bad_csv = cfg.parent / "bad.csv"
        bad_csv.write_text("a1,a2\n1.0,x\n")
        nan_csv = cfg.parent / "nan.csv"
        nan_csv.write_text("a1,a2,a3\n1,0,0\n0,nan,0\n0,0,1\n")
        big_csv = cfg.parent / "big.csv"
        big_csv.write_text("a1,a2,y\n1,0,1\n0,1,1e200\n1,1,0\n0.5,0.5,1\n")
        text = cfg.read_text()
        for old, new in edits:
            text = text.replace(old, new.format(bad_csv=bad_csv, nan_csv=nan_csv,
                                                big_csv=big_csv))
        cfg.write_text(text)
        assert main(argv + ["--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    def test_csv_buffers_bounded_by_physical_memory(self, sphere_config, capsys, monkeypatch):
        cfg, out = sphere_config
        need = CsvSink.nbytes(3, 200)
        monkeypatch.setattr(cli, "_physical_bytes", lambda: need - 1)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [run] seeds = 3 needs")
        assert not out.exists()
        monkeypatch.setattr(cli, "_physical_bytes", lambda: need)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0

    def test_run_memory_is_flat_in_the_horizon(self, sphere_config):
        # the records stream into the CSVs and the summary, so ten times the
        # steps hold no more memory; in memory, the records of the 4,500
        # more steps of 3 seeds alone would take 646 KiB.  Blocks of 85
        # steps and CSV chunks of 64 rows keep both horizons many of each.
        # The longer run leaves some 25 KiB more in the interpreter's free
        # lists of small objects, which tracemalloc counts as held.
        cfg, out = sphere_config
        peaks = []
        with mock.patch.object(budget, "WORDS", 1 << 10), \
                mock.patch.object(records, "_CSV_CHUNK", 64):
            main(["run", "--config", str(cfg), "--horizon", "100", "--quiet"])  # warm caches
            for horizon in (500, 5_000):
                tracemalloc.start()
                try:
                    assert main(["run", "--config", str(cfg), "--horizon", str(horizon),
                                 "--quiet"]) == 0
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                peaks.append(peak)
        assert len((out / "exp_seed1.csv").read_text().splitlines()) == 5_002
        assert peaks[1] < peaks[0] + 128 * 1024, peaks

    @pytest.mark.parametrize("argv", [["run"], ["check", "schedule"],
                                      ["check", "unbiasedness"]])
    @pytest.mark.parametrize("below, reason", [("", "File exists"), ("sub", "Not a directory")],
                             ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_made_exits_2_before_any_work(self, sphere_config, capsys,
                                                              argv, below, reason):
        # the config file itself stands where the directory should be
        cfg, _ = sphere_config
        with mock.patch.object(cli, "run_many", side_effect=AssertionError("ran")), \
                mock.patch.object(cli, "enumerate_expectation",
                                  side_effect=AssertionError("enumerated")):
            code = main(argv + ["--config", str(cfg), "--out", str(cfg / below), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [run] out (or --out) = {cfg / below} cannot be "
                              f"created: {reason}")

    @pytest.mark.parametrize("blocked", ["exp_seed2.csv", "exp_summary.json"])
    def test_run_output_that_is_a_directory_exits_2_before_any_work(self, sphere_config,
                                                                    capsys, blocked):
        # once an IsADirectoryError traceback after the run, with the CSVs
        # of a run whose summary failed left behind
        cfg, out = sphere_config
        (out / blocked).mkdir(parents=True)
        with mock.patch.object(cli, "run_many", side_effect=AssertionError("ran")):
            assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"config error: output file {out / blocked} cannot "
                                           "be written: it is a directory\n")
        assert [f.name for f in out.iterdir()] == [blocked]

    def test_check_output_that_is_a_directory_exits_2_before_any_work(self, sphere_config,
                                                                      capsys):
        cfg, out = sphere_config
        (out / "check_unbiasedness.json").mkdir(parents=True)
        with mock.patch.object(cli, "enumerate_expectation",
                               side_effect=AssertionError("enumerated")):
            assert main(["check", "unbiasedness", "--config", str(cfg), "--quiet"]) == 2
        assert "output file" in capsys.readouterr().err
        assert [f.name for f in out.iterdir()] == ["check_unbiasedness.json"]

    def test_report_output_that_is_a_directory_exits_2(self, sphere_config, capsys):
        cfg, out = sphere_config
        assert main(["run", "--config", str(cfg), "--horizon", "20", "--quiet"]) == 0
        (out / "report.json").mkdir()
        assert main(["report", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"config error: output file {out / 'report.json'} "
                                           "cannot be written: it is a directory\n")

    def test_unwritable_output_names_the_file(self, sphere_config, capsys, monkeypatch):
        # a write that fails during the run is named too, and leaves no file
        cfg, out = sphere_config
        real_open = open

        def full_disk(path, *args, **kw):
            if str(path).endswith("exp_seed3.csv.part"):
                raise OSError(28, "No space left on device", str(path))
            return real_open(path, *args, **kw)

        monkeypatch.setattr("builtins.open", full_disk)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"config error: output file {out / 'exp_seed3.csv'}"
                                           ".part cannot be written: No space left on device\n")
        assert not out.exists()

    @pytest.mark.parametrize("abort", ["degenerate", "confinement"])
    def test_aborted_run_leaves_no_file(self, tmp_path, capsys, monkeypatch, abort):
        # every block reached its CSV before the run ended in the error
        out = tmp_path / "runs"
        cfg = tmp_path / "exp.ini"
        if abort == "degenerate":
            cfg.write_text(SPHERE_CONFIG.format(out=out))
            retract = Sphere.retract_flagged

            def degenerate(self, x, v):
                # None: every row ok; row 1 degenerates all the same
                y, ok = retract(self, x, v)
                return y, (np.arange(len(y)) != 1) & (True if ok is None else ok)

            monkeypatch.setattr(Sphere, "retract_flagged", degenerate)
            message = "run aborted: retraction degenerated for seeds [2]"
        else:
            cfg.write_text(LS_CONFINED_CONFIG.format(out=out))
            cumulative = conf.cumulative_squares
            monkeypatch.setattr(conf, "cumulative_squares",
                                lambda *args: cumulative(*args) - 1e6)
            message = "run aborted: induction invariant failed at t=0"
        with mock.patch.object(records, "_CSV_CHUNK", 64):
            assert main(["run", "--config", str(cfg), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_list_rate_covering_the_horizon_runs(self, sphere_config):
        cfg, out = sphere_config
        cfg.write_text(cfg.read_text().replace("kind = power\nc = 0.5\np = 0.75",
                                               "kind = list\nvalues = 0.5, 0.4, 0.3"))
        assert main(["run", "--config", str(cfg), "--horizon", "3", "--quiet"]) == 0
        last = (out / "exp_seed1.csv").read_text().strip().split("\n")[-1].split(",")
        assert last[0] == "3" and last[3] == "nan"


# per list parser: values it refuses whatever the bound, and templates whose
# {} an entry below the bound fills
_PARSED = {
    cli._ints: (["1, zz", "1, 1.5", ""], ["1, {}"]),
    cli._floats: (["1, zz", "1, nan", "1, inf", "1, -inf", ""], ["1, {}"]),
    cli._growth: (["2", "1:zz", "1:2:3", "1.5:2", "1:nan", "1:inf"], ["{}:2", "1:{}"]),
    cli._parse_strata: (["0-3; zz", "0-x", "3-0", ""], []),
}


def _bad_values():
    """Every table key with each value its type rejects: a non-finite number
    for a float, a fraction and a value below the bound for an int, a word
    outside the choices or the booleans, and for a list parser an entry of
    each of these kinds."""
    for section, keys in CONFIG_KEYS.items():
        for key, (kind, _, bound) in keys.items():
            below = None
            if bound:
                op, edge = bound.split()
                below = int(edge) - (op == ">=")
            if kind is float:
                values = ["nan", "inf", "-inf"]
            elif kind is int:
                values = ["1.5", str(below)]
            elif kind is bool or isinstance(kind, tuple):
                values = ["bogus"]
            elif kind in _PARSED:
                refused, templates = _PARSED[kind]
                values = refused + ([t.format(below) for t in templates] if bound else [])
            else:
                continue
            for value in values:
                yield pytest.param(section, key, value, id=f"{section}-{key}={value}")


@pytest.mark.parametrize("section, key, value", _bad_values())
def test_every_table_key_rejects_bad_values(sphere_config, capsys, section, key, value):
    cfg, out = sphere_config
    cp = configparser.ConfigParser()
    cp.read(cfg)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    with open(cfg, "w") as fh:
        cp.write(fh)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"[{section}] {key}" in err
    assert not out.exists()
