"""Traced in-process run of one benchmark workload.

For the length of a traced pass, the names ``belltally.cli`` looks up
(``angle_scan``, ``min_detection_bound``, ``simulate_chsh``,
``spin_observable``, ``singlet_state``, ``sequential_distribution_factored``,
``generalized_correlation``) and every ``MODELS`` entry are replaced by timing
wrappers, then restored.  The scan generator is timed per ``next()``.  A
model entry returns a ``MicrostateModel`` built through its public
constructor, with the sampler and the four response callables wrapped.

Nothing inside the program changes: spans are recorded here, around calls
into each layer.  Spans stay in memory and are written out when the run ends.

Run as a script (``run.py --trace 1`` does this in a pinned environment):

    python perfbench/tracer.py --workload scan-csv --seed 1 --seconds 25 --out result.json

Each pair of passes runs the workload's commands once untraced and once
traced, both through ``belltally.cli.main`` with stdout sent to a file; the
traced stdout must equal the untraced stdout byte for byte.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

# (id, name, start, end, parent id or None, run id)
Span = tuple[int, str, float, float, "int | None", str]

LAYERS = ("cli", "chsh", "detection", "quantum", "lhv")

# Names looked up in belltally.cli, with the span name of each call.
WRAPPED = {
    "min_detection_bound": "chsh.min_detection_bound",
    "simulate_chsh": "lhv.simulate_chsh",
    "spin_observable": "quantum.spin_observable",
    "singlet_state": "quantum.singlet_state",
    "sequential_distribution_factored": "detection.sequential_distribution_factored",
    "generalized_correlation": "detection.generalized_correlation",
}


class SpanRecorder:
    """In-memory spans and counts for one traced pass.

    A span's parent is the innermost span open on the same thread.  A span
    opened on a worker thread with nothing open there takes the innermost
    span of the main thread as its parent, since that call caused it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.run = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token: tuple[int, int | None, float]) -> None:
        finish = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, name, start, finish, parent, self.run))

    def count(self, name: str) -> None:
        self.counts[(self.run, name)] += 1


def timed(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = recorder.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(name, token)

    return wrapper


class TimedIterator:
    """Records one span per ``next()`` and counts the items produced."""

    def __init__(self, recorder: SpanRecorder, name: str, iterator: Iterator[Any]) -> None:
        self._recorder = recorder
        self._name = name
        self._iterator = iterator

    def __iter__(self) -> "TimedIterator":
        return self

    def __next__(self) -> Any:
        token = self._recorder.begin()
        try:
            item = next(self._iterator)
        finally:
            self._recorder.end(self._name, token)
        self._recorder.count(self._name + ".rows")
        return item


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the layer entry points ``belltally.cli`` calls; restore them on exit."""
    import belltally.cli as cli
    from belltally import MicrostateModel

    originals = {name: getattr(cli, name) for name in (*WRAPPED, "angle_scan")}
    models = dict(cli.MODELS)

    def traced_model(factory: Callable[[], Any]) -> Callable[[], Any]:
        def build() -> Any:
            model = factory()
            return MicrostateModel(
                name=model.name,
                possess_a=timed(recorder, "lhv.response", model.possess_a),
                possess_b=timed(recorder, "lhv.response", model.possess_b),
                detect_a=timed(recorder, "lhv.response", model.detect_a),
                detect_b=timed(recorder, "lhv.response", model.detect_b),
                sampler=timed(recorder, "lhv.sampler", model.sampler),
            )

        return build

    def angle_scan(*args: Any, **kwargs: Any) -> TimedIterator:
        return TimedIterator(recorder, "chsh.angle_scan", originals["angle_scan"](*args, **kwargs))

    try:
        for name, span_name in WRAPPED.items():
            setattr(cli, name, timed(recorder, span_name, originals[name]))
        cli.angle_scan = angle_scan
        for key, factory in models.items():
            cli.MODELS[key] = traced_model(factory)
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
        cli.MODELS.clear()
        cli.MODELS.update(models)


def _union(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    covered = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def attribute(spans: Sequence[Span]) -> dict[int, tuple[float, float]]:
    """Self time and wall-attributed self time of every span, by span id.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.  Children that ran concurrently on worker threads
    cover less wall than their durations add up to; they then share the
    wall they cover in proportion to their durations, so the attributed
    self times of a tree add up to its root's duration.
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        parent = span[4] if span[4] in by_id else None
        children[parent].append(span)
    result: dict[int, tuple[float, float]] = {}
    todo = [(span, 1.0) for span in children[None]]
    while todo:
        span, weight = todo.pop()
        kids = children.get(span[0], [])
        duration = span[3] - span[2]
        covered = _union([(k[2], k[3]) for k in kids], span[2], span[3])
        total = sum(k[3] - k[2] for k in kids)
        result[span[0]] = (duration - covered, weight * (duration - covered))
        share = covered / total if total > 0.0 else 1.0
        todo.extend((kid, weight * share) for kid in kids)
    return result


def root_name(argv: Sequence[str]) -> str:
    """Span name of one CLI call: ``cli.<command>``, with ``_json`` for JSON output."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return f"cli.{argv[0]}" + ("_json" if fmt == "json" else "")


def _workers(argv: Sequence[str]) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def layer_metrics(
    recorder: SpanRecorder,
    commands: Sequence[Any],
    traced_walls: dict[str, float],
    untraced_walls: dict[str, float],
    bytes_out: dict[str, int],
    import_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``commands``."""
    times = attribute(recorder.spans)
    # (name, run) -> [summed duration, self time, attributed self time, calls]
    sums: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
    for span in recorder.spans:
        entry = sums[(span[1], span[5])]
        entry[0] += span[3] - span[2]
        entry[1] += times[span[0]][0]
        entry[2] += times[span[0]][1]
        entry[3] += 1
    roots = {cmd.label: root_name(cmd.argv) for cmd in commands}
    workers = {cmd.label: _workers(cmd.argv) for cmd in commands if cmd.argv[0] == "simulate"}

    def total(name: str, runs: Any = None, field: int = 0) -> float:
        """Summed duration (field 0), self time (1), attributed self time (2) or calls (3)."""
        return sum(
            v[field] for (n, run), v in sums.items() if n == name and (runs is None or run in runs)
        )

    def runs_of(root: str) -> set[str]:
        return {label for label, name in roots.items() if name == root}

    def rows(root: str) -> int:
        return sum(recorder.counts[(label, "chsh.angle_scan.rows")] for label in runs_of(root))

    m: dict[str, float] = {}
    m["cli.scan.self_s"] = total("cli.scan", field=1)
    m["cli.scan.us_per_row"] = 1e6 * m["cli.scan.self_s"] / max(rows("cli.scan"), 1)
    m["cli.scan_json.self_s"] = total("cli.scan_json", field=1)
    m["cli.scan_json.bytes_out"] = sum(bytes_out[label] for label in runs_of("cli.scan_json"))
    m["cli.simulate.self_s"] = total("cli.simulate", field=1)

    scan_rows = sum(n for (_, name), n in recorder.counts.items() if name == "chsh.angle_scan.rows")
    m["chsh.angle_scan.s"] = total("chsh.angle_scan")
    m["chsh.angle_scan.rows"] = scan_rows
    m["chsh.angle_scan.us_per_row"] = 1e6 * m["chsh.angle_scan.s"] / max(scan_rows, 1)
    m["chsh.min_detection_bound.s"] = total("chsh.min_detection_bound")

    sequential = runs_of("cli.sequential") | runs_of("cli.sequential_json")
    m["detection.sequential.s"] = total(
        "detection.sequential_distribution_factored", sequential
    ) + total("detection.generalized_correlation", sequential)
    m["quantum.sequential.s"] = total("quantum.spin_observable", sequential) + total(
        "quantum.singlet_state", sequential
    )

    one = {label for label, n in workers.items() if n == 1}
    m["lhv.sampler_s"] = total("lhv.sampler", one)
    m["lhv.response_s"] = total("lhv.response", one)
    m["lhv.tally_merge_s"] = (
        total("lhv.simulate_chsh", one) - m["lhv.sampler_s"] - m["lhv.response_s"]
    )
    chunks = total("lhv.sampler", one, field=3)
    m["lhv.chunks"] = chunks
    m["lhv.response_calls_per_chunk"] = total("lhv.response", one, field=3) / max(chunks, 1)
    busy = wall = 0.0
    for label, n in workers.items():
        if n > 1:
            busy += total("lhv.sampler", {label}) + total("lhv.response", {label})
            wall += n * total("lhv.simulate_chsh", {label})
    m["lhv.w2.busy_frac"] = busy / wall if wall else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v[2] for (name, _), v in sums.items() if name.split(".", 1)[0] == layer
        )
    traced = sum(traced_walls.values())
    m["trace.import_s"] = import_s
    m["trace.wall_s"] = import_s + traced
    m["trace.remainder_s"] = traced - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.overhead_frac"] = traced / sum(untraced_walls.values()) - 1.0
    return m


def run_cli(argv: Sequence[str], out_path: Path) -> tuple[float, int, str]:
    """Call ``belltally.cli.main`` with stdout sent to ``out_path``.

    Returns the wall time, the exit code and whatever went to stderr.  An
    exception that escapes ``main`` counts as exit code 1 with its
    traceback as stderr, as it would for the CLI process.
    """
    import belltally.cli as cli

    saved = sys.stdout, sys.stderr
    errors = io.StringIO()
    start = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as out:
        sys.stdout, sys.stderr = out, errors
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = 1
            errors.write(traceback.format_exc())
        finally:
            sys.stdout, sys.stderr = saved
    return time.perf_counter() - start, code, errors.getvalue()


def dump_spans(recorders: Sequence[SpanRecorder], path: Path) -> None:
    """Write every span as tab-separated id, name, start, end, parent, run."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id\tname\tstart\tend\tparent\trun\n")
        for index, recorder in enumerate(recorders):
            for span_id, name, start, end, parent, run in recorder.spans:
                parent_id = "" if parent is None else parent
                out.write(f"{span_id}\t{name}\t{start!r}\t{end!r}\t{parent_id}\t{index}:{run}\n")


def traced_run(
    commands: Sequence[Any], seconds: float, work: Path, import_s: float
) -> tuple[dict[str, float], int, int, list[str], list[SpanRecorder]]:
    """Alternate untraced and traced passes over ``commands`` for ``seconds``.

    Returns the median of each per-layer metric over the traced passes, the
    traced calls attempted and failed, the problems found and the recorders.
    """
    import workloads

    passes: list[dict[str, float]] = []
    recorders: list[SpanRecorder] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        recorder = SpanRecorder()
        walls: dict[bool, dict[str, float]] = {False: {}, True: {}}
        outputs: dict[bool, dict[str, bytes]] = {False: {}, True: {}}
        status: dict[str, tuple[int, str]] = {}
        order = (False, True) if len(passes) % 2 == 0 else (True, False)
        for traced in order:
            for cmd in commands:
                path = work / f"trace-{cmd.label}-{int(traced)}.out"
                recorder.run = cmd.label
                if traced:
                    begun = time.perf_counter()
                    with instrumented(recorder):
                        token = recorder.begin()
                        try:
                            _, code, err = run_cli(cmd.argv, path)
                        finally:
                            recorder.end(root_name(cmd.argv), token)
                    wall = time.perf_counter() - begun
                else:
                    wall, code, err = run_cli(cmd.argv, path)
                walls[traced][cmd.label] = wall
                outputs[traced][cmd.label] = path.read_bytes()
                path.unlink()
                if traced:
                    status[cmd.label] = code, err
        for cmd in commands:
            attempted += 1
            code, err = status[cmd.label]
            found = workloads.problems(cmd, code, err, outputs[True][cmd.label], outputs[True])
            if outputs[True][cmd.label] != outputs[False][cmd.label]:
                found.append("traced stdout differs from untraced stdout")
            if found:
                failed += 1
                problems += [f"{cmd.label}: {p}" for p in found]
        bytes_out = {label: len(data) for label, data in outputs[True].items()}
        passes.append(
            layer_metrics(recorder, commands, walls[True], walls[False], bytes_out, import_s)
        )
        recorders.append(recorder)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return metrics, attempted, failed, problems, recorders


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import belltally.cli  # noqa: F401  (timed: this is the traced run's set-up)

    import_s = time.perf_counter() - start
    import workloads

    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    commands = workloads.commands(args.workload, args.seed, sizes)
    work = args.out.parent
    metrics, attempted, failed, problems, recorders = traced_run(
        commands, args.seconds, work, import_s
    )
    dump_spans(recorders, work / f"spans-{args.workload}.tsv")
    args.out.write_text(
        json.dumps(
            {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems},
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
