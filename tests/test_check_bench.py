"""Each rule of ci/check_bench.py, on in-memory copies of a committed BENCH file."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("check_bench", ROOT / "ci" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_7 = json.loads((ROOT / "BENCH_7.json").read_text())
CLAIM = ("cli_session", "seed_steps_per_s")


def _problems(edit):
    bench = copy.deepcopy(BENCH_7)
    edit(bench)
    return check_bench.problems(bench, SPEC)


def _entry(bench, workload, metric):
    return bench["workloads"][workload][metric]


@pytest.mark.parametrize("name", sorted(p.name for p in ROOT.glob("BENCH_*.json")))
def test_committed_files_pass(name):
    assert check_bench.problems(json.loads((ROOT / name).read_text()), SPEC) == []


def _rss_loss(bench):
    e = _entry(bench, "sphere_lockstep", "peak_rss_mib")
    e["change"]["median"] = e["parent"]["median"] * 1.06


def _throughput_loss(bench):
    e = _entry(bench, "lsq_large_n", "seed_steps_per_s")
    e["change"]["median"] = e["parent"]["median"] * 0.74


def _eight_wins(bench):
    _entry(bench, *CLAIM)["wins"] = 8


def _within_quartiles(bench):
    e = _entry(bench, *CLAIM)
    gap = e["change"]["median"] - e["parent"]["median"]
    e["parent"]["q1"], e["parent"]["q3"] = e["parent"]["median"] - gap, e["parent"]["median"] + gap


def _worse_claim(bench):
    e = _entry(bench, *CLAIM)
    e["change"]["median"] = e["parent"]["median"] * 0.99


def _no_quartiles(bench):
    del _entry(bench, *CLAIM)["parent"]["q1"]


def _unknown_metric(bench):
    bench["claim"]["metric"] = "seed_steps_per_hour"


def _missing_median(bench):
    del _entry(bench, "sphere_lockstep", "round_s")["change"]["median"]


def _four_pairs(bench):
    e = _entry(bench, *CLAIM)
    e["pairs"], e["wins"] = 4, 4


@pytest.mark.parametrize("edit, found", [
    (_rss_loss, "sphere_lockstep.peak_rss_mib: change worse by 6.0%, bound 5%"),
    (_throughput_loss, "lsq_large_n.seed_steps_per_s: change worse by 26.0%, bound 25%"),
    (_eight_wins, "claim cli_session.seed_steps_per_s: won 8 of 10 pairs, below 9 in 10"),
    (_within_quartiles, "within the parent's quartile distance"),
    (_worse_claim, "is not better than"),
    (_no_quartiles, "claim cli_session.seed_steps_per_s: no parent quartiles"),
    (_unknown_metric, "names no complete workload metric"),
    (_missing_median, "sphere_lockstep.round_s: no positive change median"),
    (_four_pairs, "claim cli_session.seed_steps_per_s: 4 pairs, a claim needs at least 10"),
], ids=["rss-loss-6pct", "throughput-loss-26pct", "eight-of-ten", "claim-within-quartiles",
        "claim-median-worse", "no-parent-quartiles", "unknown-claim-metric", "missing-median",
        "four-of-four-pairs"])
def test_rule_flags_its_case(edit, found):
    out = _problems(edit)
    assert any(found in line for line in out), out


def test_four_of_four_fails_only_on_the_pair_count():
    assert _problems(_four_pairs) == [
        "claim cli_session.seed_steps_per_s: 4 pairs, a claim needs at least 10"]
