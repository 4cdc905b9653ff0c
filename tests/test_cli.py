import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmech.cli as cli
from dpmech.cli import (
    CSV_COLUMNS,
    _fmt,
    binomial,
    main,
    render_csv,
    sample_probes,
    task_rng,
    validate_config,
)
from dpmech.environment import Environment, HistogramObjective
from dpmech.errors import ConfigInvalid, EnumerationBudgetExceeded


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


FACILITY_VERIFY = {
    "experiment": "verify",
    "seed": 7,
    "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"},
}


def test_schema_rejects_unknown_field():
    with pytest.raises(ConfigInvalid):
        validate_config({**FACILITY_VERIFY, "bogus": 1})


def test_schema_rejects_both_applications():
    cfg = {
        **FACILITY_VERIFY,
        "pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 4},
    }
    with pytest.raises(ConfigInvalid, match="exactly one"):
        validate_config(cfg)
    with pytest.raises(ConfigInvalid, match="exactly one"):
        validate_config({"experiment": "verify", "seed": 0})


def test_schema_rejects_empty_sweep():
    cfg = {
        "experiment": "sweep",
        "seed": 0,
        "facility": {"n": 3, "m": 2, "K": 2},
        "n_list": [],
    }
    with pytest.raises(ConfigInvalid, match="n_list"):
        validate_config(cfg)


def test_task_rng_streams_are_distinct_and_stable():
    def head(*key):
        rng = task_rng(*key)
        return [rng.random(), rng.random()]

    a = head(5, "sweep", 0)
    # a string seed is hashed with SHA-512: the same stream on every interpreter
    assert a == [0.4741087102855147, 0.9910134257916858]
    assert head(5, "sweep", 0) == a
    others = [head(5, "sweep", 1), head(5, "verify", 0), head(6, "sweep", 0)]
    assert others == [[0.8959271095911713, 0.40709301948410026],
                      [0.004855524466985339, 0.04082046332205291],
                      [0.715645028346318, 0.7876568533283207]]


def test_sample_probes_draws_valid_types():
    import dpmech as dm

    inst = dm.build_grid_env(3, 2, 1)
    counts = sample_probes(inst.F, 50, task_rng(0, "sweep", 0))
    # one histogram over the 3 grid points per probe, each of 3 agents
    assert len(counts) == 50 and all(len(row) == 3 for row in counts)
    assert all(min(row) >= 0 and sum(row) == 3 for row in counts)
    assert all(type(c) is int for row in counts for c in row)


def _objective(cells: int, units: int) -> HistogramObjective:
    """A one-member-group objective with ``cells`` types, for the sampler."""
    return HistogramObjective((tuple(range(cells)),), ("s",), [[0]] * cells,
                              offset=0, weights=(1,), denom=1, units=units,
                              sensitivity_d=1)


def _multinomial_pmf(units: int, cells: int) -> dict:
    """Exact Multinomial(units; 1/cells each) law, by count row."""
    law = {}
    for row in itertools.product(range(units + 1), repeat=cells):
        if sum(row) == units:
            ways = math.factorial(units)
            for c in row:
                ways //= math.factorial(c)
            law[row] = Fraction(ways, cells**units)
    return law


@pytest.mark.parametrize("units,cells", [(2, 2), (5, 2), (12, 2), (3, 3), (7, 3), (10, 3)])
def test_sample_probes_follow_the_multinomial_law(units, cells):
    # Pearson's chi-square of 20 000 seeded rows against the exact pmf,
    # count rows expected fewer than 5 times pooled into one class
    draws = 20_000
    rows = Counter(map(tuple, sample_probes(_objective(cells, units), draws,
                                            task_rng(units, f"law{cells}", 0))))
    observed, expected, pooled = [], [], [0, 0.0]
    for row, p in _multinomial_pmf(units, cells).items():
        if p * draws < 5:
            pooled[0] += rows[row]
            pooled[1] += float(p) * draws
        else:
            observed.append(rows[row])
            expected.append(float(p) * draws)
    if pooled[1]:
        observed.append(pooled[0])
        expected.append(pooled[1])
    assert sum(observed) == draws
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    p_value = mpmath.gammainc((len(expected) - 1) / 2, stat / 2, mpmath.inf,
                              regularized=True)
    assert p_value > 1e-3, (stat, len(expected))


def test_sample_probes_mean_and_variance_at_6000_units():
    draws, units, cells = 3000, 6000, 3
    rows = sample_probes(_objective(cells, units), draws, task_rng(11, "moments", 0))
    assert all(sum(row) == units for row in rows)
    mean, var = units / cells, units * (1 / cells) * (1 - 1 / cells)
    for j in range(cells):
        column = [row[j] for row in rows]
        m = sum(column) / draws
        s2 = sum((c - m) ** 2 for c in column) / (draws - 1)
        # within 4 standard errors of the sample mean and variance
        assert abs(m - mean) < 4 * math.sqrt(var / draws)
        assert abs(s2 - var) < 4 * var * math.sqrt(2 / (draws - 1))


def test_sample_probes_edge_cases():
    rng = task_rng(0, "edges", 0)
    assert sample_probes(_objective(3, 0), 4, rng) == [[0, 0, 0]] * 4
    ones = sample_probes(_objective(3, 1), 300, rng)
    assert sorted(set(map(tuple, ones))) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # one cell takes every group and draws nothing
    state = rng.getstate()
    assert sample_probes(_objective(1, 9), 5, rng) == [[9]] * 5
    assert rng.getstate() == state
    assert binomial(rng, 0, 0.5) == 0


def test_fmt_and_render_csv_golden_row():
    assert _fmt(Fraction(3, 8)) == "3/8"
    assert _fmt(0.1) == "0.10000000000000001"
    assert _fmt(None) == ""
    row = {c: None for c in CSV_COLUMNS}
    row.update(experiment="verify-facility", n=3, gamma=Fraction(1, 2), seed=7)
    text = render_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "verify-facility,3,,,,,1/2,,,,,,7"


def test_main_verify_facility_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, FACILITY_VERIFY)
    out = str(tmp_path / "rows.csv")
    assert main(["verify", "--config", path, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("experiment,")
    fields = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert fields["experiment"] == "verify-facility"
    assert fields["gamma"] == "1/2"
    assert "expost_nash=pass" in fields["properties"]
    side = json.loads((tmp_path / "rows.json").read_text())
    assert "wall_clock" in side[0]
    assert "wall_clock" not in lines[0]  # timing only in the sidecar


def test_main_verify_trivial_single_facility(tmp_path):
    cfg = {
        "experiment": "verify",
        "seed": 1,
        "facility": {"n": 3, "m": 2, "K": 1},
    }
    out = str(tmp_path / "rows.csv")
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    fields = dict(zip(CSV_COLUMNS, Path(out).read_text().splitlines()[1].split(",")))
    assert fields["gamma"] == "0"
    assert "trivial=gap-zero" in fields["properties"]


def test_main_exit_codes_config_errors(tmp_path, capsys):
    bad = write_config(tmp_path, {**FACILITY_VERIFY, "bogus": 1})
    assert main(["verify", "--config", bad]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing]) == 2
    mismatched = write_config(tmp_path, FACILITY_VERIFY, "m.json")
    assert main(["sweep", "--config", mismatched]) == 2
    capsys.readouterr()


def test_main_exit_code_budget(tmp_path, capsys):
    cfg = {**FACILITY_VERIFY, "budget": 1}
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 3
    capsys.readouterr()


GRID_SUPPORT_ERR = "budget exceeded: grid support 2^40 exceeds cap 131072\n"
SCORE_TABLE_ERR = "budget exceeded: score table 131072^2 exceeds cap 1048576\n"
PRICE_GRID_ERR = "budget exceeded: grid support {} exceeds cap 131072\n"


@pytest.mark.parametrize("cfg,err", [
    ({"experiment": "verify", "seed": 0,
      "facility": {"n": 3, "m": 1, "K": 40, "mechanism": "loc2"}}, GRID_SUPPORT_ERR),
    ({"experiment": "sweep", "seed": 0, "n_list": [2000], "probes": 3,
      "facility": {"m": 1, "K": 40, "mechanism": "loc2"}}, GRID_SUPPORT_ERR),
    ({"experiment": "verify", "seed": 0,
      "facility": {"n": 3, "m": 131071, "K": 1}}, SCORE_TABLE_ERR),
    ({"experiment": "sweep", "seed": 0, "n_list": [2000], "probes": 3,
      "facility": {"m": 131071, "K": 1}}, SCORE_TABLE_ERR),
    ({"experiment": "verify", "seed": 0,
      "pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 10**8}},
     PRICE_GRID_ERR.format(10**8 + 1)),
    ({"experiment": "sweep", "seed": 0, "n_list": [2000], "probes": 3,
      "pricing": {"cohort_size": 2, "grid_m": 10**6}}, PRICE_GRID_ERR.format(10**6 + 1)),
    ({"experiment": "sweep", "seed": 0, "n_list": [2000], "probes": 3,
      "pricing": {"cohort_size": 2, "grid_m": 131072}}, PRICE_GRID_ERR.format(131073)),
], ids=["verify", "sweep", "verify-score-table", "sweep-score-table",
        "verify-pricing", "sweep-pricing", "sweep-pricing-past-cap"])
def test_oversized_facility_grid_exits_3_before_building(tmp_path, capsys, cfg, err):
    # 2^40 alternatives, or 2^17 alternatives (at the support cap) whose
    # score table has 2^34 entries: refused from m and K alone, before any
    # alternative is listed or any score computed; a pricing grid of more
    # than 2^17 prices, from grid_m alone, before any price is listed
    t0 = time.monotonic()
    assert main([cfg["experiment"], "--config", write_config(tmp_path, cfg)]) == 3
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err == err


def test_main_exit_code_assertion_with_outputs(tmp_path, capsys, monkeypatch):
    class FailReport:
        passed = False
        witness = ("forced", "failure")

    monkeypatch.setattr(
        cli, "check_expost_nash_truthful", lambda *a, **k: FailReport()
    )
    out = str(tmp_path / "rows.csv")
    path = write_config(tmp_path, FACILITY_VERIFY)
    assert main(["verify", "--config", path, "--out", out]) == 1
    # witnesses still land in the sidecar on failure
    fields = dict(zip(CSV_COLUMNS, Path(out).read_text().splitlines()[1].split(",")))
    assert "expost_nash=fail" in fields["properties"]
    side = json.loads((tmp_path / "rows.json").read_text())
    assert "forced" in side[0]["witnesses"]["expost_nash"]
    capsys.readouterr()


def test_sweep_failure_exits_1_with_outputs(tmp_path, capsys, monkeypatch):
    # the failure rule is one for every experiment: a sweep row above its
    # bound fails the run, and its outputs are still written
    monkeypatch.setattr(cli, "histogram_gap", lambda *a: (10.0, 0))
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [300], "probes": 3,
           "facility": {"n": 1, "m": 2, "K": 2, "mechanism": "loc2"}}
    out = str(tmp_path / "rows.csv")
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", out]) == 1
    assert capsys.readouterr().err == "assertion failed; witnesses in output\n"
    fields = dict(zip(CSV_COLUMNS, Path(out).read_text().splitlines()[1].split(",")))
    assert fields["properties"] == "measured_le_bound=fail"
    assert fields["beta_measured"] == "10"
    side = json.loads((tmp_path / "rows.json").read_text())
    assert sum(side[0]["worst_probe"].values()) == 300


def test_sweep_determinism_byte_identical(tmp_path):
    cfg = {
        "experiment": "sweep",
        "seed": 2024,
        "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"},
        "n_list": [200, 400],
        "probes": 25,
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--config", path, "--out", out1]) == 0
    assert main(["sweep", "--config", path, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    fields = dict(zip(CSV_COLUMNS, Path(out1).read_text().splitlines()[1].split(",")))
    assert fields["experiment"] == "sweep-facility"
    assert fields["properties"] == "measured_le_bound=pass"
    assert float(fields["beta_measured"]) <= float(fields["beta_bound"]) + 1e-9


def test_seed_override_changes_output(tmp_path):
    cfg = {
        "experiment": "sweep",
        "seed": 1,
        "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"},
        "n_list": [300],
        "probes": 25,
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--config", path, "--out", out1]) == 0
    assert main(["sweep", "--config", path, "--out", out2, "--seed", "99"]) == 0
    r1 = Path(out1).read_text().splitlines()[1]
    r2 = Path(out2).read_text().splitlines()[1]
    assert r1.split(",")[-1] == "1" and r2.split(",")[-1] == "99"


def test_sweep_pricing_counts_agents(tmp_path):
    cfg = {
        "experiment": "sweep",
        "seed": 3,
        "pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 4},
        "n_list": [6000],
        "probes": 10,
    }
    out = str(tmp_path / "p.csv")
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    fields = dict(zip(CSV_COLUMNS, Path(out).read_text().splitlines()[1].split(",")))
    assert fields["n"] == "6000"  # 3000 cohorts of 2 agents


@pytest.mark.parametrize("block,key,app,n", [
    ("facility", "n", {"m": 2, "K": 2, "mechanism": "loc2"}, 300),
    ("pricing", "cohorts", {"cohort_size": 2, "grid_m": 4}, 6000),
])
def test_only_verify_needs_the_config_size(tmp_path, capsys, block, key, app, n):
    # a sweep sizes its instances from n_list alone, so the config's own
    # size changes no byte of its CSV; verify reads it
    outs = []
    for k, size in enumerate(({}, {key: 3})):
        cfg = {"experiment": "sweep", "seed": 5, "n_list": [n], "probes": 4,
               block: {**app, **size}}
        out = str(tmp_path / f"{k}.csv")
        path = write_config(tmp_path, cfg, f"cfg{k}.json")
        assert main(["sweep", "--config", path, "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]
    cfg = {"experiment": "verify", "seed": 5, block: app}
    assert main(["verify", "--config", write_config(tmp_path, cfg, "v.json")]) == 2
    assert capsys.readouterr().err == f"config error: {block}.{key}: required but missing\n"


def test_example_subcommands(tmp_path):
    for name in ("example1", "example3"):
        cfg = {"experiment": name, "seed": 11}
        out = str(tmp_path / f"{name}.csv")
        rc = main([name, "--config", write_config(tmp_path, cfg, f"{name}-config.json"),
                   "--out", out])
        assert rc == 0
        fields = dict(zip(CSV_COLUMNS, Path(out).read_text().splitlines()[1].split(",")))
        assert fields["experiment"] == name
        assert "fail" not in fields["properties"]


# CSV rows and sidecar witnesses of the example experiments as computed
# before example3 read its bad Nash profile from a payoff table
PINNED_EXAMPLES = [
    ({"experiment": "example1"},
     "example1,6,0.10000000000000001,,,,,1,2,,,"
     "truth_not_expost_nash=pass|const_low_dominates=pass,3",
     {"nash_violation": "(3, (Fraction(3, 4), Fraction(3, 4), Fraction(3, 4), "
      "Fraction(5, 4), Fraction(5, 4), Fraction(5, 4)), Fraction(3, 4), "
      "0.6666666666666667, 0.6688885926399925)",
      "dominating_map": "{Fraction(3, 4): Fraction(3, 4), Fraction(5, 4): Fraction(3, 4)}"}),
    ({"experiment": "example1", "example": {"n": 10, "mu": 0.3}},
     "example1,10,0.10000000000000001,,,,,1,2,,,"
     "truth_not_expost_nash=pass|const_low_dominates=pass,3",
     {"nash_violation": "(4, (Fraction(4, 5), Fraction(4, 5), Fraction(4, 5), "
      "Fraction(4, 5), Fraction(13, 10), Fraction(13, 10), Fraction(13, 10), "
      "Fraction(13, 10), Fraction(13, 10), Fraction(13, 10)), Fraction(4, 5), "
      "0.6718230001169077, 0.6739130434782609)",
      "dominating_map": "{Fraction(4, 5): Fraction(4, 5), Fraction(13, 10): Fraction(4, 5)}"}),
    ({"experiment": "example3"},
     "example3,8,,1/8,,,,1,2,,,bad_profile_is_nash=pass|revenue_is_1_over_n=pass,3",
     {"min_nash_slack": "7/144", "revenue": "1/8"}),
    ({"experiment": "example3", "example": {"n": 10, "mu": 0.3}},
     "example3,10,,1/10,,,,1,2,,,bad_profile_is_nash=pass|revenue_is_1_over_n=pass,3",
     {"min_nash_slack": "9/230", "revenue": "1/10"}),
]


@pytest.mark.parametrize("cfg,row,witnesses", PINNED_EXAMPLES,
                         ids=["example1", "example1-n10", "example3", "example3-n10"])
def test_example_outputs_pinned(tmp_path, cfg, row, witnesses):
    out = tmp_path / "rows.csv"
    path = write_config(tmp_path, {"seed": 3, **cfg}, "cfg-in.json")
    assert main([cfg["experiment"], "--config", path, "--out", str(out)]) == 0
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n" + row + "\n"
    assert json.loads((tmp_path / "rows.json").read_text())[0]["witnesses"] == witnesses


def test_example3_budget_exits_3(tmp_path, capsys):
    # 8 agents with 2 types each: 2^8 * 8 unilateral deviations
    cfg = {"experiment": "example3", "seed": 0, "budget": 10}
    assert main(["example3", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: enumeration needs 2048 evaluations, budget is 10\n"
    )


def test_example1_budgets_only_own_vectors(tmp_path):
    # the dominating-strategy search reads 4 maps x 2 own vectors x 2^11
    # opponent profiles; counting all 2^12 true vectors refused n = 12
    cfg = {"experiment": "example1", "seed": 0, "example": {"n": 12}}
    out = tmp_path / "rows.csv"
    assert main(["example1", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "rows.json").read_text())[0]
    assert side["properties"] == "truth_not_expost_nash=pass|const_low_dominates=pass"
    assert side["witnesses"]["dominating_map"] == (
        "{Fraction(3, 4): Fraction(3, 4), Fraction(5, 4): Fraction(3, 4)}"
    )

@pytest.mark.parametrize("cfg,err", [
    # verify: refused at the gap's orbit-walk charge, printed compactly:
    # C * multisets(C, G - 1) * (|T| - 1) * |S| visits, n agents each
    ({"experiment": "verify", "facility": {"n": 10**6, "m": 2, "K": 2, "mechanism": "loc2"}},
     "enumeration needs more than 10^19 evaluations"),
    ({"experiment": "verify", "pricing": {"cohorts": 15000, "cohort_size": 1, "grid_m": 4}},
     "enumeration needs 2250000000 evaluations"),
    # example1: at ex-post Nash's orbit-walk charge, 2 * 15000 visits of 15000 agents
    ({"experiment": "example1", "example": {"n": 15000}},
     "enumeration needs 450000000 evaluations"),
    ({"experiment": "example3", "example": {"n": 15000}},
     "enumeration needs more than 10^4519 evaluations"),
    # a verify population over the budget, refused before any per-agent work
    ({"experiment": "verify", "facility": {"n": 2**63, "m": 2, "K": 2, "mechanism": "loc2"}},
     "enumeration needs 9223372036854775808 evaluations"),
    # sweep points charged the sampler's probes x (C - 1) x (isqrt(units) + 1)
    # steps: C = 3 grid cells of n agents, or 2 signal cells of n // 2 cohorts
    ({"experiment": "sweep", "facility": {"m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [10**13], "probes": 3},
     "enumeration needs 18973668 evaluations"),
    ({"experiment": "sweep", "facility": {"m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [2000, 2**70], "probes": 3},
     "enumeration needs 206158430214 evaluations"),
    ({"experiment": "sweep", "pricing": {"cohort_size": 2, "grid_m": 4},
      "n_list": [10**300], "probes": 3},
     "enumeration needs more than 10^150 evaluations"),
    # checked before schedule_params takes n to a float
    ({"experiment": "sweep", "facility": {"m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [10**400], "probes": 3},
     "enumeration needs more than 10^200 evaluations"),
    # populations over the default budget, refused whatever budget says
    ({"experiment": "verify", "budget": 10**30,
      "facility": {"n": 10**20, "m": 2, "K": 2, "mechanism": "loc2"}},
     "enumeration needs more than 10^19 evaluations"),
    ({"experiment": "verify", "budget": 10**30,
      "facility": {"n": 10**8, "m": 2, "K": 2, "mechanism": "loc2"}},
     "enumeration needs 100000000 evaluations"),
    ({"experiment": "example3", "budget": 10**30, "example": {"n": 10**20}},
     "enumeration needs more than 10^19 evaluations"),
    # a pricing population counts every cohort member, before any member's
    # signal space is listed; a sweep point's is whole cohorts, at least one
    ({"experiment": "verify", "pricing": {"cohorts": 1, "cohort_size": 10**8, "grid_m": 4}},
     "enumeration needs 100000000 evaluations"),
    ({"experiment": "sweep", "pricing": {"cohort_size": 10**8, "grid_m": 4},
      "n_list": [5], "probes": 3},
     "enumeration needs 100000000 evaluations"),
], ids=["verify-facility-1e6", "verify-pricing-15000", "example1-15000",
        "example3-15000", "verify-facility-2^63", "sweep-1e13", "sweep-2^70",
        "sweep-1e300", "sweep-1e400", "verify-facility-1e20-budget-1e30",
        "verify-facility-1e8-budget-1e30", "example3-1e20-budget-1e30",
        "verify-pricing-cohort-1e8", "sweep-pricing-cohort-1e8"])
def test_huge_enumeration_exits_3_without_traceback(tmp_path, cfg, err):
    path = write_config(tmp_path, {"seed": 0, **cfg})
    t0 = time.monotonic()
    proc = run_cli(cfg["experiment"], "--config", path)
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 3
    assert proc.stderr == f"budget exceeded: {err}, budget is 10000000\n"


def test_budget_error_prints_long_counts_compactly():
    # a count below 2^64 prints in full; from 2^64, a power of ten below it
    assert str(EnumerationBudgetExceeded(2**64 - 1, 10)) == (
        "enumeration needs 18446744073709551615 evaluations, budget is 10")
    assert str(EnumerationBudgetExceeded(2**64, 10)) == (
        "enumeration needs more than 10^19 evaluations, budget is 10")
    assert str(EnumerationBudgetExceeded(10**5000, 10)) == (
        "enumeration needs more than 10^4999 evaluations, budget is 10")


def test_example3_reads_vectors_without_listing_them(monkeypatch):
    # n = 19 is the largest population under the default budget: walking
    # its 2^19 type vectors would dominate the run
    tables = []
    build = cli.payoff_table

    def recording(*args):
        tables.append(build(*args))
        return tables[-1]

    def no_walk(self, *args):
        raise AssertionError("example3 walked every type vector")

    monkeypatch.setattr(cli, "payoff_table", recording)
    for walk in ("walk", "profiles", "type_vectors"):
        monkeypatch.setattr(Environment, walk, no_walk)
    rows, _ = cli.run_config({"experiment": "example3", "seed": 0, "example": {"n": 19}})
    assert rows[0]["n"] == 19
    assert "fail" not in rows[0]["properties"]
    assert len(tables) == 1
    assert not {"bases", "_scores"} & tables[0].env.__dict__.keys()


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = {"experiment": "example3", "seed": 0, "example": {"n": 4}}
    assert main(["example3", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("experiment,")
    assert "example3,4," in captured


# beta_measured of the sweep since it draws each probe's cell counts from
# their multinomial law (``random.Random`` substreams, conditional binomials)
# and scores them in pure Python
PINNED_SWEEP_BETAS = [
    ({"seed": 7, "facility": {"n": 200, "m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [200, 2000, 6000], "probes": 10},
     [0.034044116851220219, 0.0088777977371407024, 0.0039141007485503643]),
    ({"seed": 91, "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [300, 500], "probes": 40},
     [0.033664043739720095, 0.025316517255570492]),
    ({"seed": 7, "pricing": {"cohorts": 2, "cohort_size": 2, "grid_m": 4},
      "n_list": [6000, 12000], "probes": 200},
     [0.14598790368983772, 0.10382154537121541]),
]


@pytest.mark.parametrize("cfg,betas", PINNED_SWEEP_BETAS)
def test_sweep_beta_measured_pinned(cfg, betas):
    rows, _ = cli.run_config({"experiment": "sweep", **cfg})
    for row, want in zip(rows, betas, strict=True):
        assert abs(row["beta_measured"] - want) <= 1e-12


def test_sweep_sidecar_names_worst_probe_histogram(tmp_path):
    cfg = {"experiment": "sweep", "seed": 5, "n_list": [6000], "probes": 5,
           "pricing": {"cohorts": 2, "cohort_size": 2, "grid_m": 4}}
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    worst = json.loads((tmp_path / "s.json").read_text())[0]["worst_probe"]
    # cohorts per signal vector (informative member first)
    assert set(worst) == {"0,0", "1,0"} and sum(worst.values()) == 3000


def run_cli(*args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "dpmech.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("cfg", [
    [1, 2],
    {"experiment": "verify", "seed": 0,
     "pricing": {"cohorts": 2, "cohort_size": 1, "grid_m": 1}},
    {"experiment": "verify", "seed": 0,
     "facility": {"n": 3, "m": 2, "K": 1, "mechanism": "loc2"}},
    {"experiment": "example3", "seed": 0, "example": {"n": 1}},
    {"experiment": "verify", "seed": 0,
     "facility": {"n": 3.0, "m": 2, "K": 2, "mechanism": "loc2"}},
    {"experiment": "verify", "seed": 0,
     "facility": {"n": 3, "m": 2.0, "K": 2, "mechanism": "loc2"}},
    {"experiment": "sweep", "seed": 0, "facility": {"n": 3, "m": 2, "K": 2},
     "n_list": [2000], "probes": 3.0},
    {"experiment": "sweep", "seed": 0, "facility": {"n": 3, "m": 2, "K": 2},
     "n_list": [2000.0], "probes": 3},
    {"experiment": "verify", "seed": 0,
     "pricing": {"cohorts": 2, "cohort_size": 1.0, "grid_m": 4}},
    {"experiment": "example1", "seed": 0, "example": {"n": 4.0}},
    {"experiment": "example3", "seed": 0, "example": {"n": 4.0}},
    {"experiment": "example1", "seed": 7.0},
    {"experiment": "verify", "seed": 0,
     "pricing": {"cohorts": 2, "cohort_size": 1, "grid_m": 4, "mu": 0.3}},
    {"experiment": "sweep", "seed": 0, "facility": {"n": 3, "m": 2, "K": 2},
     "n_list": [2000], "probes": 3, "budget": 1},
    {"experiment": "verify", "seed": 0, "example": {"n": 4},
     "pricing": {"cohorts": 2, "cohort_size": 1, "grid_m": 4}},
    {"experiment": "example1", "seed": 0, "n_list": [4]},
    {"experiment": "example1", "seed": 0, "example": {"mu": 0.49999999}},
    {"experiment": "example3", "seed": 0, "example": {"mu": 1e-9}},
    {"experiment": "verify", "seed": 0, "out": 5,
     "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"}},
    # raw config text: an integer over the int-string digit limit, and bytes
    # that are not UTF-8
    b'{"experiment": "verify", "seed": 0, "facility": {"n": 3, "m": '
    + b"9" * 5000 + b', "K": 2, "mechanism": "loc2"}}',
    b'{"experiment": "verify", "seed": 0, "facility": {"n": 3, "m": 2, "K": 2, '
    b'"mechanism": "loc\xff"}}',
], ids=["not-an-object", "pricing-grid-too-coarse", "loc2-single-facility",
        "example3-single-buyer", "facility-n-float", "facility-m-float",
        "probes-float", "n_list-float", "cohort_size-float", "example1-n-float",
        "example3-n-float", "seed-float", "pricing-mu", "sweep-budget",
        "verify-example", "example1-n_list", "example1-mu-rounds-to-half",
        "example3-mu-rounds-to-0", "out-not-a-string", "facility-m-5000-digits",
        "not-utf8"])
def test_bad_config_exits_2_without_traceback(tmp_path, cfg):
    command = cfg["experiment"] if isinstance(cfg, dict) else "verify"
    if isinstance(cfg, bytes):
        path = tmp_path / "cfg.json"
        path.write_bytes(cfg)
    else:
        path = write_config(tmp_path, cfg)
    proc = run_cli(command, "--config", str(path))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_refuses_output_that_would_overwrite_config(tmp_path, capsys):
    path = write_config(tmp_path, FACILITY_VERIFY, "run.json")
    before = Path(path).read_text()
    assert main(["verify", "--config", path, "--out", str(tmp_path / "run.csv")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert Path(path).read_text() == before
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("out,made", [
    ("missing-dir/x.csv", None),
    ("taken", "taken"),
    ("x.csv", "x.json"),
], ids=["missing-directory", "csv-is-directory", "sidecar-is-directory"])
def test_refuses_unwritable_output_before_running(tmp_path, monkeypatch, capsys, out, made):
    path = write_config(tmp_path, FACILITY_VERIFY, "run.json")
    if made:
        (tmp_path / made).mkdir()
    before = sorted(tmp_path.rglob("*"))

    def refuse(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_config", refuse)
    assert main(["verify", "--config", path, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_output_write_error_exits_2(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, FACILITY_VERIFY, "run.json")

    def full_disk(path, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "atomic_write", full_disk)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("command,text,err", [
    ("example1", '{"experiment": "example1", "seed": 0, "example": {"mu": 0.4999999999}}',
     "example.mu: 0.4999999999 rounds to 1/2, outside (0, 1/2)"),
    ("verify", "[1]", "the config must be a JSON object"),
], ids=["mu-rounds-to-half", "not-an-object"])
def test_config_refusals_name_the_fault(tmp_path, capsys, command, text, err):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, FACILITY_VERIFY, "run.json")

    def cross_device(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(cli.os, "replace", cross_device)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == "output error: [Errno 18] Invalid cross-device link\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_sweep_builds_no_environment(monkeypatch):
    import dpmech.environment

    def refuse(self, *args, **kwargs):
        raise AssertionError("a sweep point built a per-agent Environment")

    monkeypatch.setattr(dpmech.environment.Environment, "__init__", refuse)
    for app in ({"facility": {"n": 1, "m": 2, "K": 2, "mechanism": "loc1"}},
                {"facility": {"n": 1, "m": 2, "K": 2, "mechanism": "loc2"}},
                {"pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 4}}):
        row, _ = cli._sweep_point({"seed": 0, "probes": 3, **app}, 10**4, 0)
        assert row["properties"] == "measured_le_bound=pass"


@pytest.mark.parametrize("app,n", [
    ({"pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 4}}, 5272),
    ({"facility": {"n": 1, "m": 3, "K": 2, "mechanism": "loc2"}}, 450),
], ids=["pricing-5272", "facility-m3-450"])
def test_sweep_schedule_meets_its_contract(tmp_path, capsys, app, n):
    # here q = 2*eps/(p_tilde*gamma) rounds to q*p_tilde*gamma < 2*eps by one ulp
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [n], "probes": 3, **app}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_below_n0_exits_2(tmp_path, capsys):
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [100], "probes": 3,
           "facility": {"n": 1, "m": 2, "K": 2, "mechanism": "loc2"}}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "population 100" in err and "164" in err


def test_sweep_probes_over_budget_exits_3_before_drawing(tmp_path, capsys, monkeypatch):
    # 10^11 probes of 2 binomial walks over 200 agents: refused from the
    # sampler's steps, before any draw
    def no_draws(*args):
        raise AssertionError("drew probes")

    monkeypatch.setattr(cli, "sample_probes", no_draws)
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [200], "probes": 10**11,
           "facility": {"m": 2, "K": 2, "mechanism": "loc2"}}
    t0 = time.monotonic()
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err == ("budget exceeded: enumeration needs "
                                       "3000000000000 evaluations, budget is 10000000\n")


@pytest.mark.parametrize("budget,code", [(89, 3), (90, 0)])
def test_sweep_probes_budget_is_inclusive(tmp_path, capsys, monkeypatch, budget, code):
    # 3 probes x 2 binomial walks x (isqrt(200) + 1) steps = 90
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", budget)
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [200], "probes": 3,
           "facility": {"m": 2, "K": 2, "mechanism": "loc2"}}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("app,n,needed", [
    ({"facility": {"m": 3, "K": 2, "mechanism": "loc2"}}, 450, 198),
    ({"pricing": {"cohort_size": 2, "grid_m": 4}}, 6000, 165),
], ids=["facility-m3-450", "pricing-6000"])
def test_sweep_charges_the_samplers_steps(tmp_path, capsys, monkeypatch, app, n, needed):
    # 3 probes x (C - 1) walks x (isqrt(units) + 1) steps: facility m = 3
    # has 4 grid cells of n agents, pricing 2 signal cells of n // 2 cohorts
    # (isqrt(3000) = 54)
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", needed - 1)
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [n], "probes": 3, **app}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 3
    assert capsys.readouterr().err == (
        f"budget exceeded: enumeration needs {needed} evaluations, budget is {needed - 1}\n")
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", needed)
    assert main(["sweep", "--config", path]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_refuses_a_huge_cohort_before_listing_its_members(tmp_path, capsys, monkeypatch):
    # the charge counts the 10^6 members of one cohort, not the whole cohorts
    # at n, before their signal spaces (8 MB of list alone) are listed
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", 1000)
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [5], "probes": 3,
           "pricing": {"cohort_size": 10**6, "grid_m": 4}}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["sweep", "--config", path]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert capsys.readouterr().err == ("budget exceeded: enumeration needs "
                                       "1000000 evaluations, budget is 1000\n")


@pytest.mark.parametrize("pricing,n0", [
    ({"cohort_size": 1, "grid_m": 400}, 42844600),
    ({"cohort_size": 20000, "grid_m": 4}, 112726066),
], ids=["grid_m-400", "cohort_size-20000"])
def test_sweep_far_below_n0_exits_2_quickly(tmp_path, capsys, pricing, n0):
    # n0 is found by bisection, and a large cohort is checked in time
    # linear in its members
    cfg = {"experiment": "sweep", "seed": 0, "n_list": [2000], "probes": 3,
           "pricing": pricing}
    t0 = time.monotonic()
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert time.monotonic() - t0 < 2
    n = max(1, 2000 // pricing["cohort_size"]) * pricing["cohort_size"]
    assert capsys.readouterr().err == (
        f"config error: population {n} does not exceed required size {n0}\n")


def test_one_facility_sweep_exits_2_without_output(tmp_path, capsys):
    # one imposed facility separates no type pair, so the gap is 0 and the
    # schedule's contract cannot hold at any n
    import dpmech as dm

    cfg = {"experiment": "sweep", "seed": 0, "n_list": [300, 3000],
           "facility": {"n": 300, "m": 2, "K": 1, "mechanism": "loc1"}}
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: facility.K = 1: the gap is 0, so no schedule exists\n")
    assert not out.exists() and not (tmp_path / "rows.json").exists()
    assert dm.build_grid_env(300, 2, 1).gamma_declared == 0
    with pytest.raises(dm.ParamContractViolated):
        dm.loc1(300, 2, 1)


def _contract_grid():
    """Schema-valid configs of every subcommand, each with whether one of
    its sweep points has a population at or below the schedule's n0, or no
    schedule at all."""
    import dpmech as dm
    from dpmech.facility import COMMITMENTS

    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for K in (1, 2):
                for mech in ("loc1", "loc2"):
                    if (n, m, K) == (3, 3, 2):
                        continue  # 0.6 s of exhaustive verify; (3, 2, 2) covers it
                    yield {"experiment": "verify", "facility":
                           {"n": n, "m": m, "K": K, "mechanism": mech}}, False
    yield {"experiment": "verify", "budget": 1,
           "facility": {"n": 2, "m": 2, "K": 2, "mechanism": "loc2"}}, False
    for cohorts in (1, 2, 3):
        for size in (1, 2):
            for grid_m in (1, 4):
                yield {"experiment": "verify", "pricing": {
                    "cohorts": cohorts, "cohort_size": size, "grid_m": grid_m}}, False
    for n_list in ([1], [68], [300, 3000]):
        # one facility declares gap 0: no sweep point has a schedule
        yield {"experiment": "sweep", "n_list": n_list, "probes": 2, "facility":
               {"n": 1, "m": 1, "K": 1, "mechanism": "loc1"}}, True
    for m, K, mech in ((2, 2, "loc1"), (2, 2, "loc2"), (3, 2, "loc2")):
        inst = dm.build_grid_env(1, m, K)
        P = COMMITMENTS[mech](inst)
        s_count = len(inst.F.alternatives)
        n0 = dm.compute_n0(P.p_tilde, inst.gamma_declared, 1, s_count)
        for n_list in ([1], [n0], [n0 + 1], [2 * n0], [2 * n0, n0]):
            yield {"experiment": "sweep", "n_list": n_list, "probes": 2, "facility":
                   {"n": 1, "m": m, "K": K, "mechanism": mech}}, min(n_list) <= n0
    for size in (1, 2):
        app = {"cohorts": 1, "cohort_size": size, "grid_m": 4}
        _, inst, P = cli._instance({"pricing": app})
        s_count = len(inst.F.alternatives)
        n0 = dm.compute_n0(P.p_tilde, inst.gamma_declared, size, s_count)
        for n in (1, n0, n0 + 1, n0 + 2):
            # n counts agents, rounded down to whole cohorts
            yield {"experiment": "sweep", "n_list": [n], "probes": 2, "pricing": app}, \
                max(1, n // size) * size <= n0
    yield {"experiment": "sweep", "n_list": [5000], "probes": 2,
           "pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 1}}, False
    for exp in ("example1", "example3"):
        for n in (1, 2, 6):
            yield {"experiment": exp, "example": {"n": n}}, False
    yield {"experiment": "example3", "example": {"n": 12}}, False


def test_exit_contract_over_small_configs(tmp_path, capsys):
    codes = Counter()
    for k, (cfg, below_n0) in enumerate(_contract_grid()):
        out = str(tmp_path / f"r{k}.csv")
        path = write_config(tmp_path, {"seed": k, **cfg}, f"c{k}.json")
        rc = main([cfg["experiment"], "--config", path, "--out", out])
        codes[rc] += 1
        assert rc in (0, 1, 2, 3), cfg
        if rc == 1:
            side = json.loads(Path(cli.sidecar_path(out)).read_text())
            assert all("witnesses" in s or "worst_probe" in s for s in side), cfg
        if below_n0:
            assert rc == 2, cfg
    capsys.readouterr()
    assert codes[0] and codes[2] and codes[3]


# Drawn size fields run from 1 to 3, or to these: every small config runs
# in well under a second.  Or they are over 10^7, which a guard refuses
# before any work (10^7 agents, the 2^17 support cap, 10^7 probe draws).
_SMALL = {"facility.K": 2, "pricing.cohort_size": 2, "pricing.grid_m": 6, "example.n": 6}


def _drawn(schema: dict, key: str = "", needed: tuple = ()):
    """A strategy for values that meet ``schema``, a part of CONFIG_SCHEMA
    at ``key``, always drawing the optional keys in ``needed``; an ``out``
    is a file name, put under a scratch directory."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = {k: _drawn(v, f"{key}.{k}".lstrip("."), needed)
                 for k, v in schema["properties"].items()}
        required = [k for k in props if k in schema.get("required", ())
                    or f"{key}.{k}".lstrip(".") in needed]
        return st.fixed_dictionaries(
            {k: props[k] for k in required},
            optional={k: v for k, v in props.items() if k not in required})
    if kind == "array":
        return st.lists(_drawn(schema["items"], key), min_size=1, max_size=3)
    if kind == "number":
        return st.floats(schema["exclusiveMinimum"], schema["exclusiveMaximum"],
                         exclude_min=True, exclude_max=True)
    if kind == "string":
        return st.sampled_from(["rows.csv", os.path.join("missing", "rows.csv")])
    if key in ("seed", "budget"):
        # a budget above the default would let a run go on where it exits 3
        return st.integers(schema["minimum"], schema.get("maximum", cli.DEFAULT_BUDGET))
    sizes = st.integers(1, _SMALL.get(key, 3))
    if key == "n_list":
        sizes |= st.sampled_from([200, 2000, 6000])  # above some n0
    extreme = st.integers(10**7 + 1, 2**64)
    return st.integers(0, 5).flatmap(lambda k: extreme if k == 0 else sizes)


def _config_of(exp: str):
    """Configs of one subcommand, with only the top-level keys it reads and,
    for verify and sweep, exactly one application block and the keys
    ``validate_config`` requires of it."""
    blocks = ("facility", "pricing")
    needed = {"verify": ("facility.n", "pricing.cohorts"), "sweep": ("n_list",)}.get(exp, ())
    keep = ("experiment", "seed", "out", *cli._READS[exp])
    props = {k: v for k, v in cli.CONFIG_SCHEMA["properties"].items()
             if k in keep and k not in blocks}
    drawn = _drawn({**cli.CONFIG_SCHEMA, "properties": {**props, "experiment": {"enum": [exp]}}},
                   needed=needed)
    if exp not in ("verify", "sweep"):
        return drawn
    block = st.sampled_from(blocks).flatmap(lambda b: st.fixed_dictionaries(
        {b: _drawn(cli.CONFIG_SCHEMA["properties"][b], b, needed)}))
    return st.tuples(drawn, block).map(lambda parts: {**parts[0], **parts[1]})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(cli._READS)).flatmap(_config_of))
def test_fuzzed_configs_keep_the_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        if "out" in config:
            config["out"] = os.path.join(tmp, config["out"])
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(config, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([config["experiment"], "--config", path])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        out = config.get("out")
        if out and os.path.isdir(os.path.dirname(out)):
            # exits 2 and 3 write nothing
            assert os.path.exists(out) == (rc in (0, 1))
            if rc == 1:
                with open(cli.sidecar_path(out)) as f:
                    side = json.load(f)
                assert all("witnesses" in s or "worst_probe" in s for s in side)
