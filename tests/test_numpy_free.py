"""The CLI needs no numpy, and gives the same bytes on every interpreter.

Only the exponential-mechanism audits and ``loc3``'s continuous
distribution load numpy.  Everything else sums left to
right (``outcomes.left_sum``), so its floats do not depend on the
interpreter's built-in ``sum``, and a sweep draws its probes from a
``random.Random`` seeded by a string, the same stream on every interpreter.
Set ``DPMECH_EXTRA_PYTHONS`` to interpreter paths separated by
``os.pathsep`` to compare their outputs with this one's.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import dpmech

SRC = os.path.dirname(os.path.dirname(dpmech.__file__))

FACILITY = {"m": 2, "K": 2, "mechanism": "loc2"}
PRICING = {"cohorts": 2, "cohort_size": 2, "grid_m": 4}

# the benchmark's verify configs, the examples, and two configs whose
# witnesses moved by an ulp under a compensated built-in sum
CONFIGS = [
    ("verify", {"facility": {"n": 3, **FACILITY}}),
    ("verify", {"pricing": {"cohorts": 5, "cohort_size": 1, "grid_m": 4}}),
    ("example1", {}),
    ("example3", {}),
    ("verify", {"facility": {"n": 5, **FACILITY}}),
    ("verify", {"pricing": {"cohorts": 3, "cohort_size": 1, "grid_m": 6}}),
]

# the benchmark's sweep configs and a loc1 sweep
SWEEPS = [
    ("sweep", {"facility": {"n": 200, **FACILITY}, "n_list": [200, 2000, 6000],
               "probes": 10}),
    ("sweep", {"pricing": PRICING, "n_list": [6000, 12000], "probes": 200}),
    ("sweep", {"facility": {"m": 2, "K": 2, "mechanism": "loc1"},
               "n_list": [1000, 5000], "probes": 50}),
]

RUNNER = """
import json, sys
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None
import dpmech.cli
codes = [dpmech.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(codes)
sys.exit(any(codes))
"""

WALL_CLOCK = re.compile(r'\n *"wall_clock": [^\n]*')


def run_configs(python: str, out_dir, configs=CONFIGS, block_numpy: bool = False) -> list:
    """Per config, the CSV bytes and the sidecar text without its
    ``wall_clock`` lines, from one fresh ``python`` process."""
    out_dir.mkdir()
    argvs = []
    for j, (command, cfg) in enumerate(configs):
        path = out_dir / f"config{j}.json"
        path.write_text(json.dumps({"seed": 3, **cfg}))
        out = out_dir / f"rows{j}.csv"
        argvs.append([command, "--config", str(path), "--out", str(out)])
    mode = "block-numpy" if block_numpy else "-"
    proc = subprocess.run([python, "-c", RUNNER, mode, json.dumps(argvs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [
        ((out_dir / f"rows{j}.csv").read_bytes(),
         WALL_CLOCK.sub("", (out_dir / f"rows{j}.json").read_text()))
        for j in range(len(configs))
    ]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return run_configs(sys.executable, tmp_path_factory.mktemp("reference") / "out")


@pytest.fixture(scope="module")
def sweep_reference(tmp_path_factory):
    return run_configs(sys.executable, tmp_path_factory.mktemp("sweeps") / "out", SWEEPS)


@pytest.fixture(scope="module")
def imported() -> set:
    """The modules a fresh ``import dpmech.cli`` leaves in ``sys.modules``."""
    code = "import dpmech, dpmech.cli, sys; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_leaves_out_numpy(imported):
    assert "numpy" not in imported


def test_import_generates_no_dataclass_code(imported):
    # importing dataclasses pulls in inspect, ast, dis and tokenize, and each
    # generated class costs about a millisecond of every process's start-up
    assert "dpmech.cli" in imported
    assert not {"dataclasses", "inspect"} & imported


def test_verify_and_examples_run_with_numpy_blocked(tmp_path, reference):
    assert run_configs(sys.executable, tmp_path / "out", block_numpy=True) == reference


def test_sweeps_run_with_numpy_blocked(tmp_path, sweep_reference):
    got = run_configs(sys.executable, tmp_path / "out", SWEEPS, block_numpy=True)
    assert got == sweep_reference


EXTRA_PYTHONS = [
    p for p in os.environ.get("DPMECH_EXTRA_PYTHONS", "").split(os.pathsep) if p
]


@pytest.mark.skipif(not EXTRA_PYTHONS, reason="DPMECH_EXTRA_PYTHONS is not set")
@pytest.mark.parametrize("python", EXTRA_PYTHONS)
def test_extra_interpreter_gives_same_bytes(tmp_path, reference, sweep_reference, python):
    assert run_configs(python, tmp_path / "out") == reference
    assert run_configs(python, tmp_path / "sweeps", SWEEPS) == sweep_reference
