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
import tracemalloc
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

import belltally
from belltally import (
    ChshSetting,
    DetectionModel,
    Direction,
    InputValidationError,
    angle_scan,
    detection_bound,
    gisin_gisin_model,
    min_detection_bound,
    modified_chsh_lhs,
    simulate_chsh,
    singlet_state,
    spin_label,
)
from belltally import chsh
from belltally.cli import (
    MODELS, SCAN_COLUMNS, ExperimentConfig, _fixed6, _scan_csv, _scan_text, build_parser, main,
)
from conftest import werner_state

TSIRELSON_VECTORS = (
    "0,0,1;1,0,0;"
    "0.7071067811865476,0,0.7071067811865476;"
    "0.7071067811865476,0,-0.7071067811865476"
)


# Rows 2-4 of the maximally mixed state I/4.
QUARTER_ROWS = ([0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25])


def spin_keyed_detection():
    """Per-role detection with entries keyed by spin label for some grid
    angles, so that pd_a, pd_a' and pd_b vary along a 45-degree grid."""
    roles = ("a", "a_prime", "b", "b_prime")
    entries = {("singlet", role): p for role, p in zip(roles, (0.9, 0.8, 0.85, 0.95))}
    for angle, subsystem, p in ((45.0, 1, 0.5), (270.0, 1, 0.6), (90.0, 2, 0.7)):
        entries[("singlet", spin_label(Direction.from_plane_degrees(angle), subsystem))] = p
    return DetectionModel(entries=entries)


def grid_reports(det, step):
    """Each row's angles k * step, from its grid indices, and angle_scan's
    singlet report of the row; rows run lexicographically in (a, a', b, b')."""
    indices = product(range(int(360.0 // step)), repeat=4)
    reports = angle_scan(singlet_state(), det, math.radians(step))
    for index, report in zip(indices, reports, strict=True):
        yield [k * step for k in index], report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


needs_wait4 = pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")

# Starts one child with stdout to /dev/null and prints its exit code and
# peak RSS, so the test runner's own memory is not counted.
_PEAK_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,"
    " file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_rss(*argv):
    """Peak RSS in bytes of `python *argv` with this checkout's package."""
    src = os.path.dirname(os.path.dirname(belltally.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    code, maxrss = map(int, result.stdout.split())
    assert code == 0
    return maxrss * (1 if sys.platform == "darwin" else 1024)


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

    def test_out_of_plane_vectors_leave_the_angle_cells_empty(self, capsys):
        vectors = [(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 0, 0)]
        spec = ";".join(",".join(map(str, v)) for v in vectors)
        code, out, err = run_cli(capsys, "bound", "--angles", spec, "--grid-step", "45")
        assert code == 0 and err == ""
        bound = detection_bound(ChshSetting(*(Direction.normalized(*v) for v in vectors)))
        assert csv_rows(out)[1] == [
            "", "", "", "", f"{bound:.6f}", f"{1.0 - bound:.6f}", "0.840896", "0.159104",
        ]

    def test_vector_angle_spec(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--format", "json", "--grid-step", "45",
            "--angles", TSIRELSON_VECTORS,
        )
        assert code == 0
        payload = json.loads(out)
        expected = detection_bound(ChshSetting.tsirelson())
        assert payload["bound"] == pytest.approx(expected, abs=1e-12)


    def test_config_state_sets_both_bounds(self, capsys, tmp_path):
        """bound reads the config's state: a Werner state of visibility 0.8
        has the threshold (sqrt(2) 0.8)**-1/2 at the preset and on the grid."""
        werner = werner_state(0.8)
        cfg = tmp_path / "werner.json"
        cfg.write_text(json.dumps({"state": werner.matrix.real.tolist()}))
        code, out, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 0 and err == ""
        assert csv_rows(out)[1][4:] == ["0.940151", "0.059849", "0.940151", "0.059849"]
        code, out, _ = run_cli(capsys, "bound", "--config", str(cfg), "--format", "json")
        payload = json.loads(out)
        assert payload["bound"] == detection_bound(ChshSetting.tsirelson(), werner)
        assert payload["grid_min_bound"] == min_detection_bound(1.0, werner)

    def test_one_run_takes_the_fano_traces_once(self, capsys, tmp_path, monkeypatch):
        """The setting's bound and the grid minimum share the config state's
        cached Fano form: one bound run builds its 16 Pauli products once."""
        cfg = tmp_path / "werner.json"
        cfg.write_text(json.dumps({"state": werner_state(0.8).matrix.real.tolist()}))
        calls, kron = [], np.kron
        monkeypatch.setattr(np, "kron", lambda *args: calls.append(args) or kron(*args))
        code, _, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 0 and err == ""
        assert len(calls) == 16


class TestScan:
    def test_bound_column_belongs_to_the_config_state(self, capsys, tmp_path):
        """Every row's bound is min(1, sqrt(2 / standard_lhs)) of the config's
        state: for a random pure state, which violates on the 45 degree grid,
        and 0.940151 at the preset angles for a Werner state of visibility 0.8."""
        rng = np.random.default_rng(0)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        states = {
            "random": [[[v.real, v.imag] for v in row] for row in rho],
            "werner": werner_state(0.8).matrix.real.tolist(),
        }
        for name, state in states.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"state": state}))
            code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--grid-step", "45")
            assert code == 0 and err == ""
            rows = csv_rows(out)[1:]
            assert len(rows) == 8**4
            standard = np.array([float(row[8]) for row in rows])
            bound = np.array([float(row[10]) for row in rows])
            expected = np.minimum(1.0, np.sqrt(2.0 / np.maximum(standard, 1e-300)))
            assert np.abs(bound - expected).max() <= 1e-6
            assert bound.min() < 0.99
        preset = ["0.000000", "90.000000", "45.000000", "135.000000"]
        assert [row[10] for row in rows if row[:4] == preset] == ["0.940151"]

    @pytest.mark.parametrize("step", ["50", "80"])
    def test_grid_min_bound_is_the_smallest_scan_cell(self, capsys, tmp_path, step):
        """bound and scan lay one grid, so at a step that does not divide 360
        degrees bound's grid_min_bound is still the smallest bound cell of a
        scan of the same state, here cos 0.5|01> - sin 0.5|10>."""
        psi = [0.0, math.cos(0.5), -math.sin(0.5), 0.0]
        cfg = tmp_path / "pure.json"
        cfg.write_text(json.dumps({"state": np.outer(psi, psi).tolist()}))
        argv = ["--config", str(cfg), "--grid-step", step, "--format", "json"]
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 0 and err == ""
        grid_min = json.loads(out)["grid_min_bound"]
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 0 and err == ""
        assert grid_min == min(row["bound"] for row in json.loads(out)["rows"])

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

    @pytest.mark.parametrize("step", [30.0, 33.0, 50.0, 80.0])
    def test_json_angle_cells_are_the_grid_angles(self, capsys, step):
        """Every angle cell is some k * step as laid, not an angle read back
        from its direction, which can differ in the last digit."""
        code, out, _ = run_cli(capsys, "scan", "--grid-step", str(step), "--format", "json")
        assert code == 0
        grid = {k * step for k in range(int(360.0 // step))}
        for row in json.loads(out)["rows"]:
            assert {row[column] for column in SCAN_COLUMNS[:4]} <= grid, row

    def test_json_text_is_what_json_dump_writes(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--grid-step", "45", "--format", "json",
            "--detection", "0.9,0.8,0.85,0.95",
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_csv_rows_are_percent_formatted_reports(self, capsys):
        """Every CSV row is the '%.6f' and flag text of angle_scan's report, on
        a grid not closed under rotation, with odd per-role probabilities
        scaled by an apparatus factor."""
        argv = ["--detection", "0.3333,0.9999,0.123456789,1", "--apparatus-factor", "0.5"]
        code, out, _ = run_cli(capsys, "scan", "--grid-step", "33", *argv)
        assert code == 0
        roles, probs = ("a", "a_prime", "b", "b_prime"), (0.3333, 0.9999, 0.123456789, 1.0)
        entries = {("singlet", role): p for role, p in zip(roles, probs)}
        det = DetectionModel(entries=entries, apparatus_factor=0.5)
        expected = []
        for angles, r in grid_reports(det, 33.0):
            cells = [*angles, *r.detection_probs]
            cells += [r.standard_lhs, r.modified_lhs, r.bound]
            flags = [str(r.standard_violated).lower(), str(r.modified_violated).lower()]
            expected.append(",".join(["%.6f" % v for v in cells] + flags))
        assert len(expected) == 10**4
        assert out.split("\n", 1)[1] == "".join(row + "\n" for row in expected)

    @pytest.mark.parametrize("slab_angles", [3, 8])
    def test_csv_renderer_formats_per_angle_probabilities(self, monkeypatch, slab_angles):
        """With detection keyed by spin label, pd_a and pd_a' vary along the
        grid, which no command line input gives; every slab of 3 (not
        dividing 8, so each a's last slab holds 2) or 8 a' angles renders each
        row's own '%.6f' cells, as ASCII bytes."""
        monkeypatch.setattr(chsh, "_SLAB_ROWS", slab_angles * 64)
        det = spin_keyed_detection()
        chunks = list(_scan_csv(chsh._scan_grid(singlet_state(), det, 45.0)))
        sizes = [chunk.count(b"\n") for chunk in chunks[:3]]
        assert sizes == ([192, 192, 128] if slab_angles == 3 else [512, 512, 512])
        expected = []
        for angles, r in grid_reports(det, 45.0):
            cells = [*angles, *r.detection_probs]
            cells += [r.standard_lhs, r.modified_lhs, r.bound]
            flags = [str(r.standard_violated).lower(), str(r.modified_violated).lower()]
            expected.append(",".join(["%.6f" % v for v in cells] + flags) + "\n")
        assert len({row.split(",")[5] for row in expected}) > 1
        assert b"".join(chunks) == "".join(expected).encode("ascii")

    @pytest.mark.parametrize("slab_angles", [3, 8])
    def test_json_renderer_writes_per_angle_probabilities(self, monkeypatch, slab_angles):
        """The JSON twin of the CSV test above: in slabs of 3 or 8 a' angles,
        every parsed row holds the cells of angle_scan's report, in column
        order, with pd_a and pd_a' varying along the grid."""
        monkeypatch.setattr(chsh, "_SLAB_ROWS", slab_angles * 64)
        det = spin_keyed_detection()
        text = "".join(_scan_text(chsh._scan_grid(singlet_state(), det, 45.0)))
        rows = json.loads("[" + text + "]")
        reports = list(grid_reports(det, 45.0))
        assert len(rows) == len(reports) == 8**4
        for row, (angles, r) in zip(rows, reports):
            assert list(row) == SCAN_COLUMNS
            assert list(row.values()) == [
                *angles, *r.detection_probs, r.standard_lhs,
                r.modified_lhs, r.bound, r.standard_violated, r.modified_violated,
            ]
        assert len({row["pd_a"] for row in rows}) > 1
        assert len({row["pd_aprime"] for row in rows}) > 1

    @needs_wait4
    def test_csv_scan_memory_stays_near_a_bare_import(self):
        """A 15-degree CSV scan (331,776 rows, about 37 MB of text) peaks
        within 6 MB of importing the CLI, because rows stream out by slab
        from one reused record buffer."""
        bare = peak_rss("-c", "import belltally.cli")
        scan = peak_rss("-m", "belltally", "scan", "--grid-step", "15")
        assert scan - bare <= 6 * 2**20

    @needs_wait4
    def test_json_scan_memory_stays_near_a_bare_import(self):
        """A 30-degree JSON scan (20,736 rows) peaks within 8 MB of importing
        the CLI, because rows stream out by block."""
        bare = peak_rss("-c", "import belltally.cli")
        scan = peak_rss("-m", "belltally", "scan", "--grid-step", "30", "--format", "json")
        assert scan - bare <= 8 * 2**20

    def test_rejects_unphysical_detection(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--detection", "1.5", "--grid-step", "90")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def fixed6_mismatches(values):
    """Up to five values whose _fixed6 bytes differ from '%.6f' % value."""
    got = _fixed6(values)
    if got.tobytes() == (("%.6f" * len(values)) % tuple(values.tolist())).encode("ascii"):
        return []
    cells = zip(values.tolist(), got.view("S8")[:, 0])
    return [value for value, cell in cells if cell != b"%.6f" % value][:5]


class TestFixed6:
    """The scan's CSV number renderer against Python's '%.6f'."""

    @pytest.mark.parametrize("toward", [-math.inf, None, math.inf], ids=["below", "at", "above"])
    def test_half_way_points_and_their_neighbours(self, toward):
        # (k + 0.5) / 1e6 for every k < 4e6, in slices to keep memory small.
        for start in range(0, 4_000_000, 400_000):
            values = (np.arange(start, start + 400_000) + 0.5) / 1e6
            if toward is not None:
                values = np.nextafter(values, toward)
            assert fixed6_mismatches(values) == []

    def test_dyadic_ties(self):
        values = np.arange(4 * 2**14) / 2**14
        assert 0.0078125 in values
        assert fixed6_mismatches(values) == []

    def test_uniform_values(self):
        values = np.random.default_rng(20071014).uniform(0.0, 4.0, 1_000_000)
        assert fixed6_mismatches(values) == []

    def test_special_values(self):
        values = [0.0, 5e-7, 5e-324, 1.0, 2**-0.25, 2.0 * math.sqrt(2.0), 9.9999995]
        assert fixed6_mismatches(np.array(values)) == []
        assert _fixed6(np.array(values)).shape == (7, 8)

    @pytest.mark.parametrize(
        "value",
        # The last is the least double that prints as 10.000000.
        [-0.0, -5e-324, -1.0, math.nan, math.inf, -math.inf, 10.0, 12.5, 9.999999500000001],
    )
    def test_rejects_values_outside_its_range(self, value):
        with pytest.raises(InputValidationError):
            _fixed6(np.array([0.5, value, 0.25]))


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

    @needs_wait4
    def test_memory_does_not_grow_with_trials(self):
        """Peak RSS of a 2-worker run is the same at 200,000 and 2,000,000
        trials and stays near a bare import of what simulate loads: chunks
        are folded as they finish and evaluated in blocks whose temporaries
        are reused."""
        bare = peak_rss("-c", "import belltally.cli, numpy.random, concurrent.futures")
        small, large = (
            peak_rss("-m", "belltally", "simulate", "--workers", "2", "--trials", trials)
            for trials in ("200000", "2000000")
        )
        assert abs(large - small) <= 2 * 2**20
        assert max(small, large) - bare <= 8 * 2**20

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
        columns = ("metric", "setting", "value", "std_error")
        assert [tuple(m[c] for c in columns) for m in payload["metrics"]] == list(sim.rows)

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


# Each --angles value and the angles_deg that bound and simulate print for it.
GIVEN_ANGLES = [
    ("10,100,55,145", [10.0, 100.0, 55.0, 145.0]),
    ("0,30,60,120", [0.0, 30.0, 60.0, 120.0]),
    ("-0,370,-45,135", [0.0, 370.0, -45.0, 135.0]),
    (TSIRELSON_VECTORS, None),
]


class TestAnglesDeg:
    @pytest.mark.parametrize("command", ["bound", "simulate"])
    @pytest.mark.parametrize(
        "spec, expected", GIVEN_ANGLES, ids=["10-100-55-145", "0-30-60-120", "signs", "vectors"]
    )
    def test_angles_are_the_degrees_given(self, capsys, command, spec, expected):
        """The degrees as parsed, not read back from their directions, with
        -0 as 0.0 and no reduction mod 360; null for 3-vectors, even in plane."""
        rest = ["--grid-step", "45"] if command == "bound" else ["--model", "sign", "--trials", "10"]
        code, out, err = run_cli(capsys, command, f"--angles={spec}", "--format", "json", *rest)
        assert (code, err) == (0, "")
        # Compared as text, where -0.0 and 0.0 differ.
        assert json.dumps(json.loads(out)["angles_deg"]) == json.dumps(expected)

    def test_bound_csv_angle_cells_are_the_degrees_given(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--angles=-0,370,-45,135", "--grid-step", "45")
        assert (code, err) == (0, "")
        assert csv_rows(out)[1][:4] == ["0.000000", "370.000000", "-45.000000", "135.000000"]


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bare_command_takes_the_presets_first_pair(self, capsys, fmt):
        """Two directions of the tsirelson preset are (a, b) = (0, 45) degrees."""
        code, bare, err = run_cli(capsys, "sequential", "--format", fmt)
        assert code == 0 and err == ""
        assert bare == run_cli(capsys, "sequential", "--angles", "0,45", "--format", fmt)[1]
        if fmt == "json":
            assert json.loads(bare)["correlation"] == -0.7071067811865475

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

    @pytest.mark.parametrize("command, default", [("bound", 1.0), ("scan", 45.0)])
    def test_null_grid_step_takes_the_commands_default(self, capsys, tmp_path, command, default):
        """grid_step is the one key that accepts null, meaning the command's own step."""
        cfg = tmp_path / "run.json"
        cfg.write_text('{"grid_step": null}')
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["grid_step_deg"] == default


# A bad value for each kind of flag: (command, flag, value, config key).
BAD_FLAG_VALUES = [
    ("simulate", "--model", "nope", "model"),
    ("simulate", "--trials", "0", "trials"),
    ("simulate", "--trials", "abc", "trials"),
    ("simulate", "--seed", "-1", "seed"),
    ("bound", "--grid-step", "0", "grid_step"),
    ("bound", "--grid-step", "91", "grid_step"),
    ("scan", "--apparatus-factor", "x", "apparatus_factor"),
    ("bound", "--format", "xml", "format"),
]
BAD_FLAG_IDS = ["model-nope", "trials-0", "trials-abc", "seed-negative", "grid-step-0",
                "grid-step-91", "apparatus-factor-text", "format-xml"]


ANGLES_HELP, STATE_HELP = "tsirelson | degrees | 3-vectors", "state name (singlet)"
COMMON_HELP = [("format", "csv (default) | json"), ("config", "JSON config file; flags override it")]
# Each subcommand's help and its flags' (dest, help) pairs, in help order.
SUBCOMMAND_HELP = {
    "bound": ("equal-detection threshold for a setting", [
        ("angles", ANGLES_HELP), ("grid_step", None),
    ]),
    "scan": ("both functionals over the coplanar grid", [
        ("state", STATE_HELP), ("detection", "uniform p or a,a',b,b' values"),
        ("apparatus_factor", None), ("grid_step", None),
    ]),
    "simulate": ("Monte Carlo run of a local model", [
        ("model", "gisin-gisin | sign | constant"), ("angles", ANGLES_HELP),
        ("trials", None), ("seed", None), ("workers", None),
    ]),
    "sequential": ("factored two-measurement distribution", [
        ("state", STATE_HELP), ("angles", "two degrees or two 3-vectors"),
        ("detection", "uniform p or a,b values"), ("apparatus_factor", None),
    ]),
}


def subcommand_actions():
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return subparsers

class TestParser:
    def test_no_option_converts_or_restricts_its_value(self):
        """argparse only collects strings; load_config converts and checks them."""
        subparsers = subcommand_actions()
        assert sorted(subparsers.choices) == ["bound", "scan", "sequential", "simulate"]
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                assert action.type is None, (name, action.dest)
                assert action.choices is None, (name, action.dest)

    def test_each_subcommand_has_its_flags_and_help_text(self):
        """The parser's data, read from the parser rather than from --help
        text, whose layout varies across Python versions."""
        subparsers = subcommand_actions()
        listed = {a.dest: a.help for a in subparsers._choices_actions}
        assert listed == {name: text for name, (text, _) in SUBCOMMAND_HELP.items()}
        assert list(subparsers.choices) == list(SUBCOMMAND_HELP)
        for name, sub in subparsers.choices.items():
            flags = [(a.dest, a.help) for a in sub._actions]
            help_flag = ("help", "show this help message and exit")
            assert flags == [help_flag, *SUBCOMMAND_HELP[name][1], *COMMON_HELP], name

    def test_every_flag_names_a_config_field(self):
        keys = {spec.name for spec in fields(ExperimentConfig)}
        for name, sub in subcommand_actions().choices.items():
            for action in sub._actions:
                assert action.dest in {"help", "config"} | keys, (name, action.dest)

    @pytest.mark.parametrize("command", ["bound", "scan", "simulate", "sequential"])
    def test_help_names_the_accepted_values(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "csv" in text and "json" in text
        if command == "simulate":
            assert all(model in text for model in MODELS)
            assert "--seed" in text
        else:
            assert "--seed" not in text


class TestErrors:
    @pytest.mark.parametrize("command, flag, value, key", BAD_FLAG_VALUES, ids=BAD_FLAG_IDS)
    def test_flag_and_config_values_fail_alike(self, capsys, tmp_path, command, flag, value, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        from_flag = run_cli(capsys, command, flag, value)
        from_config = run_cli(capsys, command, "--config", str(path))
        assert from_flag == from_config
        assert from_flag[0] == 2 and from_flag[1] == ""

    def test_range_errors_are_not_called_malformed(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--trials", "0")
        assert code == 2 and err == "error: trials must be positive, got 0\n"
        code, _, err = run_cli(capsys, "simulate", "--trials", "abc")
        assert code == 2
        assert err == (
            "error: malformed trials value: invalid literal for int() with base 10: 'abc'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["bound", "--grid-step", "1e-300"], ["scan", "--grid-step", "1e-30"]],
        ids=["bound-1e-300", "scan-1e-30"],
    )
    def test_grid_step_too_fine_to_count_exits_2_before_allocating(self, capsys, argv):
        """A step whose angle count numpy cannot even size exits 2 with one
        error line, having allocated next to nothing."""
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid step is too fine") and err.count("\n") == 1
        assert peak < 2**20

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
            # 3.6e6 grid angles: the n x n arrays need ~94 TiB, which the
            # allocator refuses at once.
            (["bound", "--grid-step", "0.0001"], None),
            (["scan", "--grid-step", "0.0001"], None),
            (["simulate", "--model", "sign"], {"trials": 2.5}),
            (["simulate", "--model", "sign"], {"seed": True}),
            (["simulate", "--model", "sign"], {"workers": 1.5}),
            *(([command, flag, value], None) for command, flag, value, _ in BAD_FLAG_VALUES),
        ],
        ids=[
            "nan-angle",
            "inf-angle",
            "nan-vector",
            "config-detection-text",
            "config-angle-text",
            "config-detection-null",
            "config-nan-state",
            "bound-grid-too-fine",
            "scan-grid-too-fine",
            "config-trials-2.5",
            "config-seed-true",
            "config-workers-1.5",
            *BAD_FLAG_IDS,
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

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["scan", "--grid-step", "90"], {"detection": True}),
            (["scan", "--grid-step", "90"], {"detection": [0.9, True, 0.9, 0.9]}),
            (["scan", "--grid-step", "90"], {"apparatus_factor": True}),
            (["bound"], {"grid_step": True}),
            (["bound"], {"angles": [True, 90, 45, 135]}),
            (["bound"], {"angles": [[0, 0, 1], [1, 0, 0], [True, 0, 0], [0, 0, 1]]}),
            (["scan", "--grid-step", "90"], {"state": [[0.25, False, 0, 0], *QUARTER_ROWS]}),
            (["scan", "--grid-step", "90"], {"state": [[[0.25, False], 0, 0, 0], *QUARTER_ROWS]}),
        ],
        ids=[
            "detection", "detection-list", "apparatus-factor", "grid-step",
            "angle", "vector-component", "state-entry", "state-pair",
        ],
    )
    def test_json_booleans_are_not_numbers(self, capsys, tmp_path, argv, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
