import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from rsgd import confinement as conf
from rsgd.cli import _parse_strata, build_plan, load_config, main
from rsgd.problems import FiniteSampleSpace

README = Path(__file__).resolve().parents[1] / "README.md"

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


class TestCheck:
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


class TestInlineComments:
    def test_readme_config_runs(self, tmp_path, monkeypatch):
        # the README's config reference, verbatim, comments after values included
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = tmp_path / "readme.ini"
        cfg.write_text(block)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--horizon", "20", "--quiet"]) == 0
        summary = json.loads((tmp_path / "runs" / "exp1" / "readme_summary.json").read_text())
        assert summary["config"]["problem"]["kind"] == "sphere_mean"
        assert summary["config"]["plan"]["scheme"] == "segment"

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
