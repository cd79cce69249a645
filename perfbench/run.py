"""Benchmark of the belltally CLI: end-to-end timings or per-layer times.

    python3 perfbench/run.py --workload scan-csv --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times whole ``belltally`` CLI processes in a closed
loop with one client: one process at a time, each waited for (``os.wait4``)
before the next starts.  It prints every end-to-end metric of BENCHMARK.json.
With ``--trace 1`` it runs the workload in process under the span recorder of
``tracer.py`` and prints every per-layer metric instead.  Either way the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it show the same figures for people, with
the sample count of every median and the machine record.

Children run with every ``PYTHON*`` variable removed except the ones pinned
here: ``PYTHONUNBUFFERED`` would make CLI stdout write-through, one syscall
per JSON chunk, which more than doubles the time of a large JSON scan.  Their
stdout goes to a file, so this process sits idle in ``wait4`` while timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
IMPORT_PACKAGES = (("total_s", "belltally"), ("scipy_s", "scipy"), ("numpy_s", "numpy"))
SETUP_ARGV = ("-c", "import belltally")


def child_env() -> dict[str, str]:
    """The environment of every child: no inherited PYTHON* settings but
    PYTHONHOME, ``src`` on the path and no bytecode written into the tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass(frozen=True)
class Invocation:
    """One finished child: wall time, peak RSS, exit code and stderr."""

    wall_s: float
    max_rss_mb: float
    exit_code: int
    stderr: bytes


class Launcher:
    """The small process that spawns and times every child; see launcher.py."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )

    def run(self, args: Sequence[str], stdout_path: Path) -> Invocation:
        """Run ``python <args>`` to completion; stdout goes to ``stdout_path``."""
        err_path = stdout_path.with_suffix(".err")
        request = {"args": list(args), "stdout": str(stdout_path), "stderr": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        wall, max_rss_kb, exit_code = json.loads(reply)
        stderr = err_path.read_bytes()
        err_path.unlink()
        return Invocation(wall, max_rss_kb / 1024.0, exit_code, stderr)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def end_to_end(
    launcher: Launcher, workload: str, seed: int, seconds: float, sizes: Any
) -> tuple[dict, dict, int, int, list[str]]:
    """Time set-up and rounds of the workload's commands as CLI processes.

    Returns the end-to-end metrics, the per-command detail, the invocations
    attempted and the invocations that failed (exit code, stderr or check).
    """
    import workloads

    commands = workloads.commands(workload, seed, sizes)
    probe = WORK / "setup.out"
    launcher.run(SETUP_ARGV, probe)  # warm the file cache before timing set-up
    setup = []
    for _ in range(SETUP_SAMPLES):
        inv = launcher.run(SETUP_ARGV, probe)
        if inv.exit_code != 0 or inv.stderr:
            raise RuntimeError(f"import belltally failed: {inv.stderr.decode(errors='replace')}")
        setup.append(inv.wall_s)
    probe.unlink()

    rounds: list[float] = []
    per_command: dict[str, list[float]] = {cmd.label: [] for cmd in commands}
    peak_rss = 0.0
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        outputs: dict[str, bytes] = {}
        round_wall = 0.0
        for cmd in commands:
            path = WORK / f"{cmd.label}.out"
            inv = launcher.run(("-m", "belltally", *cmd.argv), path)
            outputs[cmd.label] = path.read_bytes()
            path.unlink()
            attempted += 1
            round_wall += inv.wall_s
            per_command[cmd.label].append(inv.wall_s)
            peak_rss = max(peak_rss, inv.max_rss_mb)
            found = workloads.problems(
                cmd, inv.exit_code, inv.stderr.decode(errors="replace"), outputs[cmd.label], outputs
            )
            if found:
                failed += 1
                problems += [f"{cmd.label}: {p}" for p in found]
        rounds.append(round_wall)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": peak_rss,
    }
    detail: dict[str, tuple[float, str, int]] = {
        "setup_s": (metrics["setup_s"], "s", len(setup)),
        "wall_s": (metrics["wall_s"], "s", len(rounds)),
        "peak_rss_mb": (peak_rss, "MB", attempted),
    }
    medians = {label: statistics.median(walls) for label, walls in per_command.items()}
    if workload == "scan-csv":
        rows = workloads.scan_rows(sizes.scan_csv_step)
        detail["rows_per_s"] = (rows / medians["scan"], "rows/s", len(rounds))
    elif workload == "mc-chsh":
        for label in ("w1", "w2"):
            rate = sizes.mc_trials / medians[label]
            detail[f"trials_per_s_{label}"] = (rate, "trials/s", len(rounds))
    else:
        for label, walls in per_command.items():
            detail[f"{label}_s"] = (medians[label], "s", len(walls))
    detail["error_rate"] = (failed / attempted, "fraction", attempted)
    return metrics, detail, attempted, failed, problems


def import_times(launcher: Launcher) -> dict[str, float]:
    """Cumulative import time of belltally, scipy and numpy from ``-X importtime``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        path = WORK / "importtime.out"
        inv = launcher.run(("-X", "importtime", *SETUP_ARGV), path)
        path.unlink()
        if inv.exit_code != 0:
            raise RuntimeError("python -X importtime -c 'import belltally' failed")
        lines = inv.stderr.decode().splitlines()
        samples.append(
            {
                f"import.{key}": package_import_s(lines, package)
                for key, package in IMPORT_PACKAGES
            }
        )
    return {key: statistics.median([s[key] for s in samples]) for key in samples[0]}


def package_import_s(lines: Sequence[str], package: str) -> float:
    """Seconds spent importing ``package`` and its submodules.

    ``-X importtime`` prints a tree in post-order, nesting by two spaces.
    The cumulative times of the outermost lines that belong to the package
    are summed, so nested submodules are not counted twice.
    """
    entries = []
    for line in lines:
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = 0
    enclosing: list[tuple[int, bool]] = []  # (depth, belongs to package), outermost first
    for depth, cumulative, name in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside for _, inside in enclosing):
            total += cumulative
        enclosing.append((depth, mine))
    return total / 1e6


def per_layer(
    launcher: Launcher, workload: str, seed: int, seconds: float, size: str
) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics from a traced in-process run in a pinned child."""
    metrics = import_times(launcher)
    out = WORK / f"trace-{workload}.json"
    log = WORK / "tracer.log"
    inv = launcher.run(
        (
            str(HERE / "tracer.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--size",
            size,
            "--out",
            str(out),
        ),
        log,
    )
    log.unlink()
    if inv.exit_code != 0:
        raise RuntimeError(f"traced run failed: {inv.stderr.decode(errors='replace')}")
    result = json.loads(out.read_text())
    metrics.update(result["metrics"])
    return metrics, result["attempted"], result["failed"], result["problems"]


def machine_record(env: dict[str, str]) -> dict[str, Any]:
    """Versions, core count, commit, source size and dependencies; not gated."""
    import numpy
    import scipy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    pyproject = ROOT / "pyproject.toml"
    dependencies = None
    if pyproject.is_file():
        import tomllib

        dependencies = tomllib.loads(pyproject.read_text())["project"].get("dependencies")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "dependencies": dependencies,
        "child_env": {
            k: v for k, v in env.items() if k.startswith(("PYTHON", "OMP_", "OPENBLAS_", "MKL_"))
        },
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="belltally benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test"
    )
    args = parser.parse_args(argv)

    if not (SRC / "belltally" / "__init__.py").is_file():
        print(f"error: no belltally sources under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    WORK.mkdir(exist_ok=True)
    # The launcher starts while this process is still small; see launcher.py.
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        import workloads

        if args.workload not in workloads.WORKLOAD_NAMES:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        if args.trace:
            wanted = spec["per_layer"]
            values, attempted, failed, problems = per_layer(
                launcher, args.workload, args.seed, args.seconds, args.size
            )
            shown = {name: (value, "", 1) for name, value in values.items()}
        else:
            wanted = spec["end_to_end"]
            sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
            values, shown, attempted, failed, problems = end_to_end(
                launcher, args.workload, args.seed, args.seconds, sizes
            )
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    for name, (value, unit, samples) in shown.items():
        unit = units.get(name, unit)
        count = f"  n={samples}" if not args.trace else ""
        print(f"  {name:<34} {value:>16.6g} {unit:<10}{count}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("machine " + json.dumps(machine_record(child_env()), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
