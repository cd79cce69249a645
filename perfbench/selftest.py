"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

The smoke test runs every workload at the tiny size, untraced and traced,
and checks that every metric of BENCHMARK.json is printed with its unit.
The corruption tests feed the output checks an altered CSV cell and a
2-worker output that differs by one byte, and expect a nonzero error rate.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import belltally.cli as cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_round(workload: str, seed: int = 5) -> tuple[list[workloads.Command], dict[str, bytes]]:
    """The tiny round's commands and their stdout, run in process."""
    commands = workloads.commands(workload, seed, workloads.TINY)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in commands:
            path = Path(tmp) / "out"
            _, code, err = tracer.run_cli(cmd.argv, path)
            assert code == 0 and not err, (cmd.argv, code, err)
            outputs[cmd.label] = path.read_bytes()
    return commands, outputs


def error_rate(commands: list[workloads.Command], outputs: dict[str, bytes]) -> float:
    failed = sum(
        1 for cmd in commands if workloads.problems(cmd, 0, "", outputs[cmd.label], outputs)
    )
    return failed / len(commands)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self) -> None:
        for workload in workloads.WORKLOAD_NAMES:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    argv = ["--workload", workload, "--seed", "3", "--seconds", "1"]
                    argv += ["--trace", str(trace), "--size", "tiny"]
                    out = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), *argv],
                        capture_output=True,
                        text=True,
                        timeout=170,
                        check=True,
                    )
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_no_sources_means_no_result(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "perfbench").mkdir()
            for path in HERE.glob("*.py"):
                (Path(tmp) / "perfbench" / path.name).write_bytes(path.read_bytes())
            (Path(tmp) / "BENCHMARK.json").write_text(json.dumps(SPEC))
            argv = ["--workload", "scan-csv", "--seed", "1", "--seconds", "1", "--trace", "0"]
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", *argv],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=170,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class CheckTest(unittest.TestCase):
    def test_seed_outputs_pass(self) -> None:
        for workload in workloads.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                self.assertEqual(error_rate(*run_round(workload)), 0.0)

    def test_one_altered_csv_cell_fails(self) -> None:
        commands, outputs = run_round("scan-csv")
        lines = outputs["scan"].decode().split("\n")
        for column in ("modified_lhs", "pd_b", "a_deg", "standard_violated"):
            with self.subTest(column=column):
                index = cli.SCAN_COLUMNS.index(column)
                row = 1 + 2345
                cells = lines[row].split(",")
                cell = cells[index]
                if cell in ("true", "false"):
                    cells[index] = "false" if cell == "true" else "true"
                else:  # change the first decimal digit
                    dot = cell.index(".")
                    digit = "1" if cell[dot + 1] != "1" else "2"
                    cells[index] = cell[: dot + 1] + digit + cell[dot + 2 :]
                altered = lines[:row] + [",".join(cells)] + lines[row + 1 :]
                self.assertGreater(error_rate(commands, {"scan": "\n".join(altered).encode()}), 0.0)

    def test_two_worker_output_differing_by_one_byte_fails(self) -> None:
        commands, outputs = run_round("mc-chsh")
        w2 = bytearray(outputs["w2"])
        w2[-2] = ord("0") if w2[-2] != ord("0") else ord("1")
        self.assertGreater(error_rate(commands, {"w1": outputs["w1"], "w2": bytes(w2)}), 0.0)

    def test_nan_in_json_fails(self) -> None:
        commands, outputs = run_round("cli-mix")
        outputs["bound"] = outputs["bound"].replace(b'"bound": 0.84', b'"bound": NaN, "x": 0.84', 1)
        self.assertGreater(error_rate(commands, outputs), 0.0)


class TracerTest(unittest.TestCase):
    def test_wrapped_names_are_restored_after_a_failure(self) -> None:
        before = {name: getattr(cli, name) for name in (*tracer.WRAPPED, "angle_scan")}
        models = dict(cli.MODELS)
        with self.assertRaises(RuntimeError):
            with tracer.instrumented(tracer.SpanRecorder()):
                self.assertIsNot(cli.angle_scan, before["angle_scan"])
                raise RuntimeError("check failed")
        self.assertEqual({name: getattr(cli, name) for name in before}, before)
        self.assertEqual(cli.MODELS, models)

    def test_self_time_subtracts_covered_child_time(self) -> None:
        spans = [
            (0, "cli.scan", 0.0, 10.0, None, "r"),
            (1, "chsh.angle_scan", 1.0, 3.0, 0, "r"),
            (2, "chsh.angle_scan", 4.0, 5.0, 0, "r"),
        ]
        times = tracer.attribute(spans)
        self.assertEqual(times[0], (7.0, 7.0))
        self.assertEqual(times[1], (2.0, 2.0))

    def test_concurrent_children_share_the_wall_they_cover(self) -> None:
        spans = [
            (0, "lhv.simulate_chsh", 0.0, 10.0, None, "r"),
            (1, "lhv.sampler", 0.0, 8.0, 0, "r"),
            (2, "lhv.sampler", 0.0, 8.0, 0, "r"),
        ]
        times = tracer.attribute(spans)
        self.assertEqual(times[0][0], 2.0)
        self.assertAlmostEqual(sum(t[1] for t in times.values()), 10.0)

    def test_import_tree_counts_each_package_once(self) -> None:
        lines = [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:       400 |        400 |     scipy._lib",
            "import time:        50 |        450 |   scipy.optimize",
            "import time:        10 |        760 | belltally",
        ]
        self.assertAlmostEqual(run.package_import_s(lines, "numpy"), 300e-6)
        self.assertAlmostEqual(run.package_import_s(lines, "scipy"), 450e-6)
        self.assertAlmostEqual(run.package_import_s(lines, "belltally"), 760e-6)


if __name__ == "__main__":
    unittest.main()
