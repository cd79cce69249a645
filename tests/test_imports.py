"""What the package imports, what it exports, and what the benchmark's tracer needs.

`import belltally` loads names lazily, so a fresh interpreter that imports
it holds neither numpy nor any submodule, and only `simulate` loads the
Monte Carlo module lhv.  The import-graph tests run in fresh interpreters
with the benchmark's child environment: no inherited PYTHON* settings, src
on the path and no bytecode written.  perfbench/tracer.py wraps names that
belltally.cli looks up; the last tests check that those names are still
there and that traced runs of the tiny workloads, run by tracer.py into a
temporary directory, record the same spans as before.
"""
import collections
import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import belltally
from belltally import MicrostateModel, cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Every public name the package exports, by the submodule that defines it.
EXPORTS = {
    "chsh": (
        "ChshReport", "ChshSetting", "angle_scan", "conditional_expectations",
        "detection_bound", "min_detection_bound", "modified_chsh_lhs",
        "modified_lhs_grid_max", "standard_chsh_lhs",
    ),
    "detection": (
        "DetectionModel", "GeneralizedObservable", "OutcomeDistribution",
        "generalized_correlation", "sequential_distribution_factored",
    ),
    "errors": (
        "BelltallyError", "ConfigurationError", "InputValidationError", "ZeroProbabilityError",
    ),
    "lhv": (
        "ChshSimulation", "FairSamplingResult", "MicrostateModel", "SimulationSummary",
        "chsh_pairs", "constant_model", "fair_sampling_check", "gisin_gisin_model",
        "random_microstate_model", "run_experiment", "sample_hidden_uniform", "sign_model",
        "simulate_chsh", "summary_chsh",
    ),
    "quantum": (
        "X_AXIS", "Y_AXIS", "Z_AXIS", "DensityState", "Direction", "SpinObservable",
        "singlet_state", "spin_label", "spin_observable",
    ),
}

COMMANDS = {
    "bound": ["bound"],
    "scan": ["scan", "--grid-step", "45"],
    "sequential": ["sequential", "--angles", "10,77", "--detection", "0.8,0.7"],
    "simulate": ["simulate", "--trials", "20000", "--workers", "2"],
}


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return env


def loaded_after(code):
    """The numpy and belltally modules in sys.modules after a fresh
    interpreter runs code; code's own stdout goes to /dev/null."""
    script = (
        "import json, os, sys\n"
        "out = sys.stdout\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"{code}\n"
        "sys.stdout.flush()\n"
        "json.dump(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'belltally')), out)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    assert result.stderr == ""
    return set(json.loads(result.stdout))


def run_commands(*names):
    calls = "\n".join(f"assert cli.main({COMMANDS[name]!r}) == 0" for name in names)
    return loaded_after("import belltally.cli as cli\n" + calls)


class TestImportGraph:
    def test_bare_import_loads_neither_numpy_nor_a_submodule(self):
        assert loaded_after("import belltally") == {"belltally"}

    def test_bound_scan_and_sequential_load_no_monte_carlo_module(self):
        loaded = run_commands("bound", "scan", "sequential")
        assert {"numpy", "belltally.chsh", "belltally.cli"} <= loaded
        assert "belltally.lhv" not in loaded
        assert "numpy.random" not in loaded

    def test_simulate_loads_lhv_and_numpy_random(self):
        loaded = run_commands("simulate")
        assert {"belltally.lhv", "numpy.random"} <= loaded

    def test_submodules_resolve_after_a_bare_import(self):
        loaded = loaded_after(
            "import belltally\n"
            "assert belltally.lhv.__name__ == 'belltally.lhv'\n"
            "assert belltally.cli.main is sys.modules['belltally.cli'].main"
        )
        assert {"belltally.lhv", "belltally.cli"} <= loaded


class TestExports:
    def test_all_is_the_export_set(self):
        expected = [name for names in EXPORTS.values() for name in names]
        assert len(belltally.__all__) == len(set(belltally.__all__))
        assert sorted(belltally.__all__) == sorted(expected)

    def test_every_export_is_its_modules_object(self):
        for module, names in EXPORTS.items():
            for name in names:
                assert getattr(belltally, name) is getattr(getattr(belltally, module), name)

    def test_dir_lists_every_export_and_submodule(self):
        listed = dir(belltally)
        assert set(belltally.__all__) <= set(listed)
        assert {*EXPORTS, "cli"} <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_name_raises_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="'belltally' has no attribute 'no_such_name'"):
            belltally.no_such_name
        with pytest.raises(ImportError):
            from belltally import no_such_name  # noqa: F401

    def test_projector_route_is_not_exported(self):
        """The Born-rule projector route lives in tests/projector_oracle.py."""
        with pytest.raises(AttributeError, match="'belltally' has no attribute 'born_probability'"):
            belltally.born_probability

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from belltally import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(belltally.__all__)


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Spans of one traced pass of each tiny-size workload, by command label and
# span name, as recorded before the package loaded lazily.
TRACED_SPANS = {
    "scan-csv": {("scan", "cli.scan"): 1, ("scan", "quantum.singlet_state"): 1},
    "mc-chsh": {
        (label, name): count
        for label in ("w1", "w2")
        for name, count in (
            ("cli.simulate", 1), ("lhv.response", 64), ("lhv.sampler", 8),
            ("lhv.simulate_chsh", 1),
        )
    },
    "cli-mix": {
        ("bound", "chsh.min_detection_bound"): 1,
        ("bound", "cli.bound_json"): 1,
        ("bound", "quantum.singlet_state"): 1,
        ("scan_json", "cli.scan_json"): 1,
        ("scan_json", "quantum.singlet_state"): 1,
        ("sequential", "cli.sequential_json"): 1,
        ("sequential", "detection.generalized_correlation"): 1,
        ("sequential", "detection.sequential_distribution_factored"): 1,
        ("sequential", "quantum.singlet_state"): 1,
        ("sequential", "quantum.spin_observable"): 2,
        ("simulate_json", "cli.simulate_json"): 1,
        ("simulate_json", "lhv.response"): 16,
        ("simulate_json", "lhv.sampler"): 2,
        ("simulate_json", "lhv.simulate_chsh"): 1,
    },
}


class TestTracerContract:
    def test_cli_has_every_name_the_tracer_wraps(self):
        for name in (*load_tracer().WRAPPED, "angle_scan"):
            assert callable(getattr(cli, name)), name

    def test_every_model_entry_is_a_zero_argument_factory(self):
        for name, factory in cli.MODELS.items():
            assert isinstance(factory(), MicrostateModel), name

    @pytest.mark.parametrize("workload", list(TRACED_SPANS))
    def test_traced_run_records_the_same_spans(self, workload, tmp_path):
        out = tmp_path / "trace.json"
        subprocess.run(
            [sys.executable, str(PERFBENCH / "tracer.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--size", "tiny", "--out", str(out)],
            env=child_env(), cwd=ROOT, capture_output=True, check=True,
        )
        result = json.loads(out.read_text())
        assert result["attempted"] > 0
        assert (result["failed"], result["problems"]) == (0, [])
        passes = collections.defaultdict(collections.Counter)
        with open(tmp_path / f"spans-{workload}.tsv", encoding="utf-8") as spans:
            for span in csv.DictReader(spans, delimiter="\t"):
                index, label = span["run"].split(":", 1)
                passes[index][(label, span["name"])] += 1
        assert passes
        assert all(counts == TRACED_SPANS[workload] for counts in passes.values())
