"""Workloads of the belltally benchmark: seeded inputs, the command sequence
of one round, and the checks every command's output must pass.

The seed only chooses input values (detection probabilities, angles and the
Monte Carlo seed).  The amount of work in a round is the same for every seed.

Every check returns a list of problems; an empty list means the output is
correct.  The scan checks compare every row with the singlet closed form
E(a, b) = -cos(a - b), and about fifty seeded rows with ``modified_chsh_lhs``
from the public API, so one altered cell anywhere in the table is caught.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from belltally import ChshSetting, DetectionModel, Direction, modified_chsh_lhs, singlet_state
from belltally.cli import SCAN_COLUMNS

WORKLOAD_NAMES = ("scan-csv", "mc-chsh", "cli-mix")

TSIRELSON_VALUE = 2.0 * math.sqrt(2.0)
THRESHOLD = 2.0 ** -0.25
SAMPLED_ROWS = 50
# CSV cells carry 6 decimals, so a printed value is within 5e-7 of the exact one.
CSV_TOL = 1e-6
EXACT_TOL = 1e-12
# Violation flags are compared only where the reference value is this far from 2.
FLAG_MARGIN = 1e-9
SIGMAS = 5.0

# Check(stdout, stdout of the earlier commands of the round by label) -> problems
Check = Callable[[bytes, Mapping[str, bytes]], list[str]]


@dataclass(frozen=True)
class Command:
    """One ``belltally`` invocation of a round: its label, arguments and check."""

    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY is the smoke-test size."""

    scan_csv_step: float
    mc_trials: int
    bound_step: float | None  # None keeps the CLI's default 1 degree grid
    scan_json_step: float
    sign_trials: int


FULL = Sizes(
    scan_csv_step=15.0,
    mc_trials=10_000_000,
    bound_step=None,
    scan_json_step=30.0,
    sign_trials=200_000,
)
TINY = Sizes(
    scan_csv_step=45.0,
    mc_trials=131_072,
    bound_step=45.0,
    scan_json_step=45.0,
    sign_trials=20_000,
)


def _probability(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 1.0), 4)


def _step_arg(step: float) -> str:
    return f"{step:g}"


def commands(workload: str, seed: int, sizes: Sizes = FULL) -> list[Command]:
    """The command sequence of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-csv":
        detection = tuple(_probability(rng) for _ in range(4))
        argv = (
            "scan",
            "--grid-step",
            _step_arg(sizes.scan_csv_step),
            "--format",
            "csv",
            "--detection",
            ",".join(str(p) for p in detection),
        )
        check = partial(
            check_scan_csv, step=sizes.scan_csv_step, detection=detection, sample_seed=seed
        )
        return [Command("scan", argv, check)]
    if workload == "mc-chsh":
        base = (
            "simulate",
            "--model",
            "gisin-gisin",
            "--angles",
            "tsirelson",
            "--trials",
            str(sizes.mc_trials),
            "--seed",
            str(rng.randrange(2**31)),
        )
        return [
            Command("w1", base + ("--workers", "1"), check_simulate_csv),
            Command("w2", base + ("--workers", "2"), check_same_as_w1),
        ]
    if workload == "cli-mix":
        angles = (rng.randrange(360), rng.randrange(360))
        detection = (_probability(rng), _probability(rng))
        bound_grid = (
            () if sizes.bound_step is None else ("--grid-step", _step_arg(sizes.bound_step))
        )
        return [
            Command("bound", ("bound", "--format", "json") + bound_grid, check_bound_json),
            Command(
                "sequential",
                (
                    "sequential",
                    "--angles",
                    f"{angles[0]},{angles[1]}",
                    "--detection",
                    f"{detection[0]},{detection[1]}",
                    "--format",
                    "json",
                ),
                partial(check_sequential_json, angles=angles, detection=detection),
            ),
            Command(
                "scan_json",
                ("scan", "--grid-step", _step_arg(sizes.scan_json_step), "--format", "json"),
                partial(
                    check_scan_json,
                    step=sizes.scan_json_step,
                    detection=(1.0, 1.0, 1.0, 1.0),
                    sample_seed=seed,
                ),
            ),
            Command(
                "simulate_json",
                (
                    "simulate",
                    "--model",
                    "sign",
                    "--trials",
                    str(sizes.sign_trials),
                    "--seed",
                    str(rng.randrange(2**31)),
                    "--format",
                    "json",
                ),
                check_simulate_json,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")


def problems(
    cmd: Command, exit_code: int, stderr: str, stdout: bytes, earlier: Mapping[str, bytes]
) -> list[str]:
    """Everything wrong with one invocation: exit code, stderr and its output check."""
    found = [f"exit code {exit_code}"] if exit_code != 0 else []
    found += [f"stderr: {stderr.strip()[:200]}"] if stderr else []
    return found + cmd.check(stdout, earlier)


def _grid_count(step: float) -> int:
    """Angles on a ``step``-degree grid over [0, 360), as the CLI counts them."""
    return int(math.floor(360.0 / step + 1e-9))


def scan_rows(step: float) -> int:
    """Rows of a scan at ``step`` degrees: one per angle quadruple."""
    return _grid_count(step) ** 4


# --- scan tables ---------------------------------------------------------


def _scan_table_problems(
    table: np.ndarray, step: float, detection: Sequence[float], sample_seed: int
) -> list[str]:
    """Check a scan table (rows x SCAN_COLUMNS, flags as 0/1) cell by cell."""
    count = _grid_count(step)
    if table.shape != (count**4, len(SCAN_COLUMNS)):
        return [f"table has shape {table.shape}, expected {(count**4, len(SCAN_COLUMNS))}"]
    problems = []
    grid = np.arange(count) * step
    angles = grid[np.indices((count,) * 4).reshape(4, -1).T]
    gap = np.abs(table[:, :4] - angles) % 360.0
    bad = np.minimum(gap, 360.0 - gap).max(axis=1) > CSV_TOL
    if bad.any():
        problems.append(f"angle cells off the grid in {int(bad.sum())} rows")
    bad = (np.abs(table[:, 4:8] - np.asarray(detection)) > CSV_TOL).any(axis=1)
    if bad.any():
        problems.append(f"detection cells differ from the input in {int(bad.sum())} rows")

    rad = np.radians(angles)
    e1, e2, e3, e4 = (-np.cos(rad[:, i] - rad[:, j]) for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)))
    pa, pap, pb, pbp = detection
    standard = np.abs(e1 - e2) + np.abs(e3 + e4)
    modified = np.abs(pa * (pb * e1 - pbp * e2)) + np.abs(pap * (pb * e3 + pbp * e4))
    bound = np.minimum(1.0, np.sqrt(2.0 / np.maximum(standard, 1e-300)))
    for column, expected in (
        ("standard_lhs", standard),
        ("modified_lhs", modified),
        ("bound", bound),
    ):
        bad = np.abs(table[:, SCAN_COLUMNS.index(column)] - expected) > CSV_TOL
        if bad.any():
            problems.append(
                f"{column} differs from the singlet closed form in {int(bad.sum())} rows"
            )
    for column, value in (("standard_violated", standard), ("modified_violated", modified)):
        clear = np.abs(value - 2.0) > FLAG_MARGIN
        bad = clear & ((table[:, SCAN_COLUMNS.index(column)] == 1.0) != (value > 2.0))
        if bad.any():
            problems.append(f"{column} is wrong in {int(bad.sum())} rows")

    state = singlet_state()
    model = DetectionModel(
        entries={
            (state.label, role): p
            for role, p in zip(("a", "a_prime", "b", "b_prime"), detection)
        }
    )
    sampled = random.Random(sample_seed).sample(range(len(table)), min(SAMPLED_ROWS, len(table)))
    for index in sampled:
        row = table[index]
        setting = ChshSetting(*(Direction.from_plane_degrees(float(v)) for v in row[:4]))
        report = modified_chsh_lhs(setting, state, model)
        expected = (report.standard_lhs, report.modified_lhs, report.bound)
        if any(abs(row[8 + k] - expected[k]) > CSV_TOL for k in range(3)) or (
            (row[11] == 1.0, row[12] == 1.0) != (report.standard_violated, report.modified_violated)
        ):
            problems.append(f"row {index} disagrees with modified_chsh_lhs")
    return problems


def _parse_scan_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    """Header and float table of a CSV scan; flags become 1.0 / 0.0."""
    header, _, body = data.decode("ascii").partition("\n")
    flat = body.rstrip("\n").replace("true", "1").replace("false", "0").replace("\n", ",")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = np.fromstring(flat, dtype=float, sep=",") if flat else np.zeros(0)
    if values.size % len(SCAN_COLUMNS) or body.count("\n") * len(SCAN_COLUMNS) != values.size:
        raise ValueError("rows do not all hold one cell per column")
    return header.split(","), values.reshape(-1, len(SCAN_COLUMNS))


def check_scan_csv(
    data: bytes,
    earlier: Mapping[str, bytes],
    *,
    step: float,
    detection: Sequence[float],
    sample_seed: int,
) -> list[str]:
    try:
        header, table = _parse_scan_csv(data)
    except (UnicodeDecodeError, ValueError, DeprecationWarning) as exc:
        return [f"scan CSV does not parse: {exc}"]
    problems = []
    if header != SCAN_COLUMNS:
        problems.append(f"header {header} differs from cli.SCAN_COLUMNS")
    if len(table):
        top = f"{table[:, SCAN_COLUMNS.index('standard_lhs')].max():.6f}"
        low = f"{table[:, SCAN_COLUMNS.index('bound')].min():.6f}"
        if top != f"{TSIRELSON_VALUE:.6f}":
            problems.append(f"maximum standard_lhs is {top}, expected {TSIRELSON_VALUE:.6f}")
        if low != f"{THRESHOLD:.6f}":
            problems.append(f"minimum bound is {low}, expected {THRESHOLD:.6f}")
    return problems + _scan_table_problems(table, step, detection, sample_seed)


def _strict_json(data: bytes) -> object:
    def reject(token: str) -> None:
        raise ValueError(f"non-finite JSON value {token}")

    return json.loads(data, parse_constant=reject)


def check_scan_json(
    data: bytes,
    earlier: Mapping[str, bytes],
    *,
    step: float,
    detection: Sequence[float],
    sample_seed: int,
) -> list[str]:
    try:
        payload = _strict_json(data)
        rows = payload["rows"]
        if any(list(row) != SCAN_COLUMNS for row in rows):
            return ["scan JSON rows do not carry exactly cli.SCAN_COLUMNS"]
        table = np.array([[float(row[c]) for c in SCAN_COLUMNS] for row in rows]).reshape(
            -1, len(SCAN_COLUMNS)
        )
    except (ValueError, KeyError, TypeError) as exc:
        return [f"scan JSON does not parse: {exc}"]
    return _scan_table_problems(table, step, detection, sample_seed)


# --- simulate ------------------------------------------------------------


def _simulate_csv_metrics(data: bytes) -> dict[str, tuple[float, float]]:
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != "metric,setting,value,std_error":
        raise ValueError("missing simulate CSV header")
    metrics = {}
    for line in lines[1:]:
        name, setting, value, error = line.split(",")
        if not setting:
            metrics[name] = (float(value), float(error))
    return metrics


def _chsh_problems(
    metrics: Mapping[str, tuple[float, float]], detection_loophole: bool
) -> list[str]:
    problems = []
    micro, micro_se = metrics["micro_chsh"]
    if not micro <= 2.0 + SIGMAS * micro_se:
        problems.append(f"micro_chsh {micro} exceeds 2 + {SIGMAS:g} sigma ({micro_se})")
    if detection_loophole:
        cond, cond_se = metrics["conditional_chsh"]
        if not abs(cond - TSIRELSON_VALUE) <= SIGMAS * cond_se:
            problems.append(f"conditional_chsh {cond} is not within {SIGMAS:g} sigma of 2 sqrt 2")
    return problems


def check_simulate_csv(data: bytes, earlier: Mapping[str, bytes]) -> list[str]:
    try:
        return _chsh_problems(_simulate_csv_metrics(data), detection_loophole=True)
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        return [f"simulate CSV does not parse: {exc}"]


def check_same_as_w1(data: bytes, earlier: Mapping[str, bytes]) -> list[str]:
    """The 2-worker run must print exactly what the 1-worker run printed."""
    if data != earlier.get("w1"):
        return ["stdout at --workers 2 differs from stdout at --workers 1"]
    return check_simulate_csv(data, earlier)


def check_simulate_json(data: bytes, earlier: Mapping[str, bytes]) -> list[str]:
    try:
        payload = _strict_json(data)
        metrics = {
            m["metric"]: (float(m["value"]), float(m["std_error"]))
            for m in payload["metrics"]
            if not m["setting"]
        }
        return _chsh_problems(metrics, detection_loophole=False)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"simulate JSON does not parse: {exc}"]


# --- bound and sequential ------------------------------------------------


def check_bound_json(data: bytes, earlier: Mapping[str, bytes]) -> list[str]:
    try:
        payload = _strict_json(data)
        values = {key: float(payload[key]) for key in ("bound", "grid_min_bound")}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bound JSON does not parse: {exc}"]
    return [
        f"{key} is {value!r}, expected 2**-0.25"
        for key, value in values.items()
        if abs(value - THRESHOLD) > EXACT_TOL
    ]


def check_sequential_json(
    data: bytes,
    earlier: Mapping[str, bytes],
    *,
    angles: tuple[float, float],
    detection: tuple[float, float],
) -> list[str]:
    try:
        payload = _strict_json(data)
        total = float(payload["total"])
        correlation = float(payload["correlation"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"sequential JSON does not parse: {exc}"]
    expected = detection[0] * detection[1] * -math.cos(math.radians(angles[0] - angles[1]))
    problems = []
    if abs(total - 1.0) > EXACT_TOL:
        problems.append(f"total probability is {total!r}, expected 1")
    if abs(correlation - expected) > EXACT_TOL:
        problems.append(f"correlation is {correlation!r}, expected {expected!r}")
    return problems
