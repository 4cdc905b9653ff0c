import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import dpmech.cli as cli
from dpmech.cli import (
    CSV_COLUMNS,
    _fmt,
    main,
    render_csv,
    sample_probes,
    task_rng,
    validate_config,
)
from dpmech.errors import ConfigInvalid


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
    a = task_rng(5, "sweep", 0).random(4)
    b = task_rng(5, "sweep", 1).random(4)
    c = task_rng(5, "verify", 0).random(4)
    again = task_rng(5, "sweep", 0).random(4)
    assert list(a) == list(again)
    assert list(a) != list(b) != list(c)


def test_sample_probes_draws_valid_types():
    import dpmech as dm

    inst = dm.build_grid_env(3, 2, 1)
    counts = sample_probes(inst.objective, 50, task_rng(0, "sweep", 0))
    # one histogram over the 3 grid points per probe, each of 3 agents
    assert counts.shape == (50, 3)
    assert (counts >= 0).all() and (counts.sum(axis=1) == 3).all()


def _decoded_tuples(env, count, rng):
    """Probe type vectors decoded from one (count x n) draw, as the sweep
    once materialized them."""
    lens = np.asarray([len(s) for s in env.type_spaces])
    idx = (rng.random((count, len(lens))) * lens).astype(int)
    return [tuple(env.type_spaces[j][k] for j, k in enumerate(row)) for row in idx]


@pytest.mark.parametrize("kind", ["facility", "pricing"])
def test_sample_probes_counts_match_decoded_tuples(kind):
    import dpmech as dm
    from tests.conftest import two_signal_pricing_instance

    if kind == "facility":
        inst, D = dm.build_grid_env(150, 3, 2), 1
    else:
        inst, D = two_signal_pricing_instance(N=40), 2
    counts = sample_probes(inst.objective, 30, task_rng(4, "sweep", 1))
    tuples = _decoded_tuples(inst.env, 30, task_rng(4, "sweep", 1))
    for row, t in zip(counts, tuples):
        hist = Counter(t[j:j + D] for j in range(0, len(t), D))
        assert list(row) == [hist[cell] for cell in inst.objective.cells]


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
    lines = open(out).read().splitlines()
    assert lines[0].startswith("experiment,")
    fields = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert fields["experiment"] == "verify-facility"
    assert fields["gamma"] == "1/2"
    assert "expost_nash=pass" in fields["properties"]
    side = json.loads(open(str(tmp_path / "rows.json")).read())
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
    fields = dict(zip(CSV_COLUMNS, open(out).read().splitlines()[1].split(",")))
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
    fields = dict(zip(CSV_COLUMNS, open(out).read().splitlines()[1].split(",")))
    assert "expost_nash=fail" in fields["properties"]
    side = json.loads(open(str(tmp_path / "rows.json")).read())
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
    fields = dict(zip(CSV_COLUMNS, open(out).read().splitlines()[1].split(",")))
    assert fields["properties"] == "measured_le_bound=fail"
    assert fields["beta_measured"] == "10"
    side = json.loads(open(str(tmp_path / "rows.json")).read())
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
    assert open(out1, "rb").read() == open(out2, "rb").read()
    fields = dict(zip(CSV_COLUMNS, open(out1).read().splitlines()[1].split(",")))
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
    r1 = open(out1).read().splitlines()[1]
    r2 = open(out2).read().splitlines()[1]
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
    fields = dict(zip(CSV_COLUMNS, open(out).read().splitlines()[1].split(",")))
    assert fields["n"] == "6000"  # 3000 cohorts of 2 agents


def test_example_subcommands(tmp_path):
    for name in ("example1", "example3"):
        cfg = {"experiment": name, "seed": 11}
        out = str(tmp_path / f"{name}.csv")
        rc = main([name, "--config", write_config(tmp_path, cfg, f"{name}-config.json"),
                   "--out", out])
        assert rc == 0
        fields = dict(zip(CSV_COLUMNS, open(out).read().splitlines()[1].split(",")))
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


def test_example3_reads_vectors_without_listing_them(monkeypatch):
    # n = 19 is the largest population under the default budget: listing
    # its 2^19 type vectors would dominate the run
    tables = []
    build = cli.payoff_table

    def recording(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "payoff_table", recording)
    # run_config raises AssertionFailed if a property fails
    rows, _ = cli.run_config({"experiment": "example3", "seed": 0, "example": {"n": 19}})
    assert rows[0]["n"] == 19
    assert len(tables) == 1 and "vectors" not in tables[0].__dict__


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = {"experiment": "example3", "seed": 0, "example": {"n": 4}}
    assert main(["example3", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("experiment,")
    assert "example3,4," in captured


# beta_measured of the sweep before it evaluated probes from histograms
# (per-probe type tuples, float objectives above n = 64); the histogram path
# changes it only by float rounding
PINNED_SWEEP_BETAS = [
    ({"seed": 7, "facility": {"n": 200, "m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [200, 2000, 6000], "probes": 10},
     [0.047902132464910263, 0.01156901075054817, 0.0030063461843129469]),
    ({"seed": 91, "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"},
      "n_list": [300, 500], "probes": 40},
     [0.035414403866710686, 0.027144175412293525]),
    ({"seed": 7, "pricing": {"cohorts": 2, "cohort_size": 2, "grid_m": 4},
      "n_list": [6000, 12000], "probes": 200},
     [0.14605395459094977, 0.1033525751499364]),
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
    worst = json.loads(open(str(tmp_path / "s.json")).read())[0]["worst_probe"]
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
], ids=["not-an-object", "pricing-grid-too-coarse", "loc2-single-facility",
        "example3-single-buyer", "facility-n-float", "facility-m-float",
        "probes-float", "n_list-float", "cohort_size-float", "example1-n-float",
        "example3-n-float", "seed-float", "pricing-mu"])
def test_bad_config_exits_2_without_traceback(tmp_path, cfg):
    command = cfg["experiment"] if isinstance(cfg, dict) else "verify"
    proc = run_cli(command, "--config", write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_refuses_output_that_would_overwrite_config(tmp_path, capsys):
    path = write_config(tmp_path, FACILITY_VERIFY, "run.json")
    before = open(path).read()
    assert main(["verify", "--config", path, "--out", str(tmp_path / "run.csv")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert open(path).read() == before
    assert not (tmp_path / "run.csv").exists()


def test_sweep_builds_no_environment(monkeypatch):
    import dpmech.environment

    def refuse(self):
        raise AssertionError("a sweep point built a per-agent Environment")

    monkeypatch.setattr(dpmech.environment.Environment, "__post_init__", refuse)
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


def _contract_grid():
    """Schema-valid configs of every subcommand, each with whether one of
    its sweep points has a population at or below the schedule's n0."""
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
    for m, K, mech in ((1, 1, "loc1"), (2, 2, "loc1"), (2, 2, "loc2"), (3, 2, "loc2")):
        inst = dm.build_grid_env(1, m, K)
        P = COMMITMENTS[mech](inst)
        s_count = len(inst.objective.alternatives)
        n0 = dm.compute_n0(P.p_tilde, inst.gamma_declared, 1, s_count)
        for n_list in ([1], [n0], [n0 + 1], [2 * n0], [2 * n0, n0]):
            yield {"experiment": "sweep", "n_list": n_list, "probes": 2, "facility":
                   {"n": 1, "m": m, "K": K, "mechanism": mech}}, min(n_list) <= n0
    for size in (1, 2):
        app = {"cohorts": 1, "cohort_size": size, "grid_m": 4}
        _, inst, P = cli._instance({"pricing": app})
        n0 = dm.compute_n0(P.p_tilde, inst.gamma_declared, size, len(inst.prices))
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
            side = json.loads(open(cli.sidecar_path(out)).read())
            assert all("witnesses" in s or "worst_probe" in s for s in side), cfg
        if below_n0:
            assert rc == 2, cfg
    capsys.readouterr()
    assert codes[0] and codes[2] and codes[3]
