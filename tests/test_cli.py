"""End-to-end tests for the belltally command line interface.

Each test drives main() in process and inspects the captured csv or json
on stdout.  Numeric spot values cross-check against the library so the
formatting layer cannot drift from the computation layer.
"""
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import belltally
from belltally import (
    ChshSetting,
    DetectionModel,
    detection_bound,
    gisin_gisin_model,
    min_detection_bound,
    modified_chsh_lhs,
    simulate_chsh,
    singlet_state,
)
from belltally.cli import main

TSIRELSON_VECTORS = (
    "0,0,1;1,0,0;"
    "0.7071067811865476,0,0.7071067811865476;"
    "0.7071067811865476,0,-0.7071067811865476"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestBound:
    def test_default_preset_and_grid(self, capsys):
        code, out, err = run_cli(capsys, "bound")
        assert code == 0 and err == ""
        rows = csv_rows(out)
        assert rows[0] == [
            "a_deg",
            "aprime_deg",
            "b_deg",
            "bprime_deg",
            "bound",
            "no_registration_lower_bound",
            "grid_min_bound",
            "grid_min_no_registration_lower_bound",
        ]
        assert rows[1][:4] == ["0.000000", "90.000000", "45.000000", "135.000000"]
        assert rows[1][4:] == ["0.840896", "0.159104", "0.840896", "0.159104"]

    def test_degenerate_angles(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--angles", "0,0,0,0", "--grid-step", "5")
        assert code == 0
        row = csv_rows(out)[1]
        assert row[4] == "1.000000"
        assert row[5] == "0.000000"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--format", "json", "--grid-step", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["angles_deg"] == [0.0, 90.0, 45.0, 135.0]
        # json must carry full precision, bit for bit
        assert payload["bound"] == detection_bound(ChshSetting.tsirelson())
        assert payload["no_registration_lower_bound"] == 1.0 - payload["bound"]
        assert payload["grid_min_bound"] == min_detection_bound(30.0)
        assert len(payload["directions"]) == 4

    def test_vector_angle_spec(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--format", "json", "--grid-step", "45",
            "--angles", TSIRELSON_VECTORS,
        )
        assert code == 0
        payload = json.loads(out)
        expected = detection_bound(ChshSetting.tsirelson())
        assert payload["bound"] == pytest.approx(expected, abs=1e-12)


class TestScan:
    def test_default_grid_hits_the_preset(self, capsys):
        code, out, _ = run_cli(capsys, "scan")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == [
            "a_deg", "aprime_deg", "b_deg", "bprime_deg",
            "pd_a", "pd_aprime", "pd_b", "pd_bprime",
            "standard_lhs", "modified_lhs", "bound",
            "standard_violated", "modified_violated",
        ]
        assert len(rows) == 1 + 8**4
        hits = [
            r for r in rows[1:]
            if r[:4] == ["0.000000", "90.000000", "45.000000", "135.000000"]
        ]
        assert len(hits) == 1
        row = hits[0]
        assert row[4:8] == ["1.000000"] * 4
        assert row[8] == "2.828427"
        assert row[9] == "2.828427"
        assert row[10] == "0.840896"
        assert row[11] == "true"
        assert row[12] == "true"

    def test_threshold_detection_never_violates(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--detection", "0.840896", "--grid-step", "45")
        assert code == 0
        rows = csv_rows(out)[1:]
        assert all(r[12] == "false" for r in rows)
        top = max(float(r[9]) for r in rows)
        assert top == pytest.approx(0.840896**2 * 2.0 * math.sqrt(2.0), abs=1e-6)

    def test_zero_detection_kills_the_weighted_functional(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--detection", "0", "--grid-step", "90")
        assert code == 0
        rows = csv_rows(out)[1:]
        assert len(rows) == 4**4
        assert all(r[9] == "0.000000" and r[12] == "false" for r in rows)

    def test_per_role_detection_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--detection", "1,0.5,0.9,0.5", "--grid-step", "90"
        )
        assert code == 0
        for row in csv_rows(out)[1:]:
            assert row[4:8] == ["1.000000", "0.500000", "0.900000", "0.500000"]

    def test_json_rows_match_the_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--format", "json", "--detection", "0.7", "--grid-step", "90"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["grid_step_deg"] == 90.0
        assert len(payload["rows"]) == 256
        state = singlet_state()
        det = DetectionModel.uniform(0.7)
        for row in payload["rows"][::37]:
            setting = ChshSetting.from_plane_angles(
                row["a_deg"], row["aprime_deg"], row["b_deg"], row["bprime_deg"]
            )
            report = modified_chsh_lhs(setting, state, det)
            assert row["standard_lhs"] == pytest.approx(report.standard_lhs, abs=1e-12)
            assert row["modified_lhs"] == pytest.approx(report.modified_lhs, abs=1e-12)
            assert row["bound"] == pytest.approx(report.bound, abs=1e-12)

    def test_json_text_is_what_json_dump_writes(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--grid-step", "45", "--format", "json",
            "--detection", "0.9,0.8,0.85,0.95",
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_json_scan_memory_stays_near_a_bare_import(self):
        """A 30-degree JSON scan (20,736 rows) peaks within 8 MB of importing
        the CLI, because rows stream out by block.  A launcher process reads
        each child's peak RSS, so the test runner's memory is not counted."""
        launcher = (
            "import os, sys\n"
            "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,"
            " file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(belltally.__file__))
        env = {**os.environ, "PYTHONPATH": src}

        def peak(*argv):
            result = subprocess.run(
                [sys.executable, "-c", launcher, *argv],
                env=env, capture_output=True, text=True, check=True,
            )
            code, maxrss = map(int, result.stdout.split())
            assert code == 0
            return maxrss * (1 if sys.platform == "darwin" else 1024)

        bare = peak("-c", "import belltally.cli")
        scan = peak("-m", "belltally", "scan", "--grid-step", "30", "--format", "json")
        assert scan - bare <= 8 * 2**20

    def test_rejects_unphysical_detection(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--detection", "1.5", "--grid-step", "90")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestSimulate:
    def test_row_layout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--trials", "20000", "--seed", "3")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["metric", "setting", "value", "std_error"]
        assert len(rows) == 1 + 7 * 4 + 3
        names = [r[0] for r in rows[1:]]
        for metric in (
            "micro_correlation",
            "conditional_correlation",
            "detection_frequency_a",
            "detection_frequency_b",
            "all_sample_pair_frequency",
            "detected_pair_frequency",
            "fair_sampling_divergence",
        ):
            assert names.count(metric) == 4
        pair_cells = [r[1] for r in rows[1:5]]
        assert pair_cells == ["ab", "ab_prime", "a_prime_b", "a_prime_b_prime"]
        tail = rows[-3:]
        assert [r[0] for r in tail] == ["micro_chsh", "conditional_chsh", "weighted_chsh_predicted"]
        assert all(r[1] == "" for r in tail)

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ("simulate", "--trials", "50000", "--seed", "12")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_worker_count_is_invisible_in_output(self, capsys):
        base = ("simulate", "--trials", "150000", "--seed", "5", "--workers")
        _, serial, _ = run_cli(capsys, *base, "1")
        _, threaded, _ = run_cli(capsys, *base, "2")
        assert serial == threaded

    def test_gisin_gisin_headline_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "gisin-gisin", "--angles", "tsirelson",
            "--trials", "1000000", "--seed", "7",
        )
        assert code == 0
        rows = csv_rows(out)[1:]
        values = {(r[0], r[1]): float(r[2]) for r in rows}
        assert values[("micro_chsh", "")] == pytest.approx(math.sqrt(2.0), abs=0.01)
        assert values[("conditional_chsh", "")] == pytest.approx(2.0 * math.sqrt(2.0), abs=0.01)
        for pair in ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime"):
            assert values[("detection_frequency_a", pair)] == pytest.approx(0.5, abs=0.005)
            assert values[("detection_frequency_b", pair)] == 1.0

    def test_json_matches_direct_simulation(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--format", "json", "--trials", "30000", "--seed", "9"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["model"] == "gisin-gisin"
        sim = simulate_chsh(gisin_gisin_model(), ChshSetting.tsirelson(), 30000, 9)
        by_name = {(m["metric"], m["setting"]): m["value"] for m in payload["metrics"]}
        assert by_name[("micro_chsh", "")] == sim.micro_chsh
        assert by_name[("conditional_correlation", "ab")] == sim.conditional_correlations[0]

    def test_sign_model_registers_everything(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "sign", "--trials", "20000", "--seed", "1"
        )
        assert code == 0
        rows = csv_rows(out)[1:]
        for row in rows:
            if row[0] in ("detection_frequency_a", "detection_frequency_b"):
                assert row[2] == "1.000000"
            if row[0] == "fair_sampling_divergence":
                assert row[2] == "0.000000"

    def test_bad_model_and_trials_exit_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--model", "nope"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--trials", "0"])
        assert info.value.code == 2
        capsys.readouterr()


class TestSequential:
    def test_mixed_detection_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequential", "--angles", "0,0", "--detection", "0.8,0.5"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["kind", "a_outcome", "b_outcome", "value"]
        entries = {(r[1], r[2]): r[3] for r in rows[1:] if r[0] == "entry"}
        assert len(entries) == 9
        assert entries[("1", "-1")] == "0.200000"
        assert entries[("1", "0")] == "0.200000"
        assert entries[("0", "1")] == "0.050000"
        assert entries[("0", "0")] == "0.100000"
        tail = {r[0]: r[3] for r in rows[1:] if r[0] != "entry"}
        assert tail["total"] == "1.000000"
        assert tail["correlation"] == "-0.400000"

    def test_unit_detection_recovers_quantum_weights(self, capsys):
        code, out, _ = run_cli(capsys, "sequential", "--angles", "0,0")
        assert code == 0
        entries = {
            (r[1], r[2]): r[3] for r in csv_rows(out)[1:] if r[0] == "entry"
        }
        assert entries[("1", "-1")] == "0.500000"
        assert entries[("-1", "1")] == "0.500000"
        assert entries[("1", "1")] == "0.000000"
        assert entries[("0", "0")] == "0.000000"

    def test_oblique_angles_scale_the_correlation(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequential", "--angles", "0,60", "--detection", "0.8,0.5"
        )
        assert code == 0
        rows = csv_rows(out)
        correlation = [r[3] for r in rows if r[0] == "correlation"][0]
        assert correlation == "-0.200000"

    def test_json_distribution_sums_to_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequential", "--format", "json", "--angles", "0,30",
            "--detection", "0.7,0.9",
        )
        assert code == 0
        payload = json.loads(out)
        total = sum(e["probability"] for e in payload["entries"])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert payload["total"] == pytest.approx(1.0, abs=1e-12)


class TestConfigPrecedence:
    def test_config_file_supplies_angles(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"angles": "0,0,0,0"}))
        code, out, _ = run_cli(capsys, "bound", "--config", str(cfg), "--grid-step", "45")
        assert code == 0
        assert csv_rows(out)[1][4] == "1.000000"

    def test_flag_overrides_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"angles": "0,0,0,0"}))
        code, out, _ = run_cli(
            capsys, "bound", "--config", str(cfg), "--grid-step", "45",
            "--angles", "tsirelson",
        )
        assert code == 0
        assert csv_rows(out)[1][4] == "0.840896"

    def test_config_drives_simulation(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 5000, "model": "sign", "seed": 4}))
        _, from_config, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        _, from_flags, _ = run_cli(
            capsys, "simulate", "--model", "sign", "--trials", "5000", "--seed", "4"
        )
        assert from_config == from_flags

    def test_native_json_angle_list(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"angles": [0, 90, 45, 135]}))
        code, out, _ = run_cli(
            capsys, "bound", "--config", str(cfg), "--format", "json",
            "--grid-step", "45",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == detection_bound(ChshSetting.tsirelson())

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"angle": "0,0,0,0"}))
        code, out, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys" in err

    def test_malformed_and_missing_config(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run_cli(capsys, "bound", "--config", str(broken))
        assert code == 2 and err.startswith("error:")
        code, _, err = run_cli(capsys, "bound", "--config", str(tmp_path / "absent.json"))
        assert code == 2 and err.startswith("error:")


class TestErrors:
    def test_negative_seed_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--seed", "-1"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_grid_step_domain(self, capsys):
        for bad in ("0", "91"):
            with pytest.raises(SystemExit) as info:
                main(["bound", "--grid-step", bad])
            assert info.value.code == 2
        capsys.readouterr()

    def test_unknown_state_reports_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--state", "foo", "--grid-step", "90")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "foo" in err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["bound", "--angles", "nan,90,45,135", "--format", "json", "--grid-step", "45"], None),
            (["bound", "--angles", "inf,90,45,135"], None),
            (["bound", "--angles", "nan,0,0;0,0,1;0,0,1;1,0,0", "--format", "json"], None),
            (["scan", "--grid-step", "90"], {"detection": [0.9, 0.9, 0.9, "x"]}),
            (["bound"], {"angles": [0, "x", 45, 135]}),
            (["scan", "--grid-step", "90", "--format", "json"], {"detection": None}),
            (
                ["scan", "--grid-step", "90", "--format", "json"],
                {"state": [[float("nan"), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
            ),
        ],
        ids=[
            "nan-angle",
            "inf-angle",
            "nan-vector",
            "config-detection-text",
            "config-angle-text",
            "config-detection-null",
            "config-nan-state",
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "NaN" not in out
