"""Command line interface: bound, scan, simulate, and sequential reports.

Data goes to stdout as CSV (fixed-point, 6 decimals) or JSON (full
precision, schema_version 1); diagnostics go to stderr.  bound, simulate and
sequential write through one emitter; scan streams its rows one slab of at
most max(chsh._SLAB_ROWS, n**2) rows at a time, as NUL-padded CSV records
or as one JSON f-string per row.  CSV number cells are byte-identical to
Python's '%.6f', correctly rounded with ties to even.  The subcommands are
built from one table.  argparse only collects strings, and a flag, whose
dest is its config key, is converted and checked like that key's value in a
config file.  Exit code 0 on success; 2 with one "error:" line for a bad
value, or with argparse's usage for a malformed command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields
from itertools import accumulate, product
from typing import Any, Iterator, Sequence

import numpy as np

# angle_scan is bound here, though cmd_scan streams _scan_grid's slabs,
# because perfbench/tracer.py wraps it among the names cli looks up.
from .chsh import (
    ChshSetting,
    _ROLES,
    _TSIRELSON_DEG,
    _scan_grid,
    angle_scan,  # noqa: F401
    detection_bound,
    min_detection_bound,
)
from .detection import DetectionModel, GeneralizedObservable, sequential_distribution_factored
from .detection import generalized_correlation
from .errors import BelltallyError, ConfigurationError, InputValidationError
from .quantum import DensityState, Direction, singlet_state, spin_observable

SCHEMA_VERSION = 1


def _lhv() -> Any:
    from . import lhv

    return lhv


# Names of this module, not lhv's, since the benchmark's tracer wraps them.
MODELS = {
    "gisin-gisin": lambda: _lhv().gisin_gisin_model(),
    "sign": lambda: _lhv().sign_model(),
    "constant": lambda: _lhv().constant_model(),
}


def simulate_chsh(*args: Any, **kwargs: Any) -> Any:
    return _lhv().simulate_chsh(*args, **kwargs)


SCAN_COLUMNS = [
    "a_deg",
    "aprime_deg",
    "b_deg",
    "bprime_deg",
    "pd_a",
    "pd_aprime",
    "pd_b",
    "pd_bprime",
    "standard_lhs",
    "modified_lhs",
    "bound",
    "standard_violated",
    "modified_violated",
]


def _float(value: Any) -> float:
    # float() alone would turn true into 1.0.
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _optional_float(value: Any) -> float | None:
    return None if value is None else _float(value)


def _integer(value: Any) -> int:
    # int() alone would turn 2.5 into 2 and true into 1.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


# The converter of each config key that takes one; other values pass as given.
_CONVERT = {"apparatus_factor": _float, "trials": _integer, "seed": _integer, "format": str,
            "grid_step": _optional_float, "model": str, "workers": _integer}


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged command configuration; flags override config-file values.
    Each field is named by its config key, which is its flag's argparse dest."""

    state: Any = "singlet"
    angles: Any = "tsirelson"
    detection: Any = 1.0
    apparatus_factor: float = 1.0
    trials: int = 100000
    seed: int = 0
    format: str = "csv"
    grid_step: float | None = None
    model: str = "gisin-gisin"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; available: {sorted(MODELS)}"
            )
        if self.format not in ("csv", "json"):
            raise InputValidationError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.trials < 1:
            raise InputValidationError(f"trials must be positive, got {self.trials!r}")
        if self.workers < 1:
            raise InputValidationError(f"workers must be positive, got {self.workers!r}")
        if self.seed < 0:
            raise InputValidationError(f"seed must be nonnegative, got {self.seed!r}")

    def resolve_state(self) -> DensityState:
        spec = self.state
        if isinstance(spec, str):
            if spec == "singlet":
                return singlet_state()
            raise ConfigurationError(f"unknown state name {spec!r}")
        matrix = _parse_complex_matrix(spec)
        return DensityState(matrix, "custom")

    def resolve_directions(self, count: int) -> tuple[list[Direction], list[float] | None]:
        """The count directions of the angle spec and _parse_angles' degrees.
        Two directions of the tsirelson preset are its first pair (a, b)."""
        spec = self.angles
        if spec == "tsirelson":
            spec = _TSIRELSON_DEG if count == 4 else _TSIRELSON_DEG[::2]
        directions, degrees = _parse_angles(spec)
        if len(directions) != count:
            raise ConfigurationError(
                f"angle spec must provide {count} directions, got {len(directions)}"
            )
        return directions, degrees

    def resolve_detection(self, state_label: str, roles: Sequence[str]) -> DetectionModel:
        spec = self.detection
        if isinstance(spec, str):
            spec = _parse_number_list(spec)
            if len(spec) == 1:
                spec = spec[0]
        if np.isscalar(spec):
            return DetectionModel.uniform(_number(spec), self.apparatus_factor)
        if not isinstance(spec, (list, tuple)):
            raise ConfigurationError(f"cannot interpret detection spec {spec!r}")
        values = [_number(v) for v in spec]
        if len(values) != len(roles):
            raise ConfigurationError(
                f"detection spec must provide 1 or {len(roles)} values, got {len(values)}"
            )
        entries = {(state_label, role): value for role, value in zip(roles, values)}
        return DetectionModel(entries=entries, apparatus_factor=self.apparatus_factor)


def _number(value: Any) -> float:
    try:
        return _float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"cannot parse {value!r} as a number") from None


def _parse_number_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {text!r} as numbers") from exc


def _parse_angles(spec: Any) -> tuple[list[Direction], list[float] | None]:
    """Directions and their degrees as given (-0 as 0.0), or None for 3-vectors."""
    if isinstance(spec, str):
        if ";" in spec:
            spec = [_parse_number_list(part) for part in spec.split(";")]
        else:
            spec = _parse_number_list(spec)
    if not isinstance(spec, (list, tuple)) or len(spec) == 0:
        raise ConfigurationError(f"cannot interpret angle spec {spec!r}")
    if all(np.isscalar(v) for v in spec):
        degrees = [_number(v) + 0.0 for v in spec]
        return [Direction.from_plane_degrees(v) for v in degrees], degrees
    directions = []
    for entry in spec:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigurationError(f"direction {entry!r} must have three components")
        directions.append(Direction.normalized(*(_number(v) for v in entry)))
    return directions, None


def _parse_complex_entry(value: Any) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0]), _number(value[1]))
    raise ConfigurationError(f"matrix entry {value!r} must be a number or a [re, im] pair")


def _parse_complex_matrix(spec: Any) -> np.ndarray:
    if not isinstance(spec, (list, tuple)) or len(spec) != 4:
        raise ConfigurationError("state matrix must be a 4x4 array")
    rows = []
    for row in spec:
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ConfigurationError("state matrix must be a 4x4 array")
        rows.append([_parse_complex_entry(v) for v in row])
    return np.array(rows, dtype=complex)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    keys = [spec.name for spec in fields(ExperimentConfig)]
    file_values: dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

    values: dict[str, Any] = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            if key not in file_values:
                continue
            value = file_values[key]
        convert = _CONVERT.get(key)
        try:
            values[key] = value if convert is None else convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"malformed {key} value: {exc}") from exc
    return ExperimentConfig(**values)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _emit(cfg: ExperimentConfig, payload: dict[str, Any], columns: list[str], rows: list) -> int:
    """Write a report: the payload as JSON after its schema_version, or the
    columns and rows as CSV, with str cells as they are, None as an empty
    cell and numbers as '%.6f'.  No cell needs quoting."""
    if cfg.format == "json":
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    for row in [columns, *rows]:
        cells = (v if isinstance(v, str) else "" if v is None else _fmt(v) for v in row)
        sys.stdout.write(",".join(cells) + "\n")
    return 0


def cmd_bound(cfg: ExperimentConfig) -> int:
    """Report the state's equal-detection threshold for a setting and its
    minimum over the x-z-plane grid, which need not be the state's minimum:
    the smallest bound cell of a scan of the state at the same step."""
    state = cfg.resolve_state()
    directions, angles = cfg.resolve_directions(4)
    setting = ChshSetting(*directions)
    step = cfg.grid_step if cfg.grid_step is not None else 1.0
    bound = detection_bound(setting, state)
    grid_min = min_detection_bound(step, state)
    point = {"bound": bound, "no_registration_lower_bound": 1.0 - bound}
    grid = {"grid_min_bound": grid_min, "grid_min_no_registration_lower_bound": 1.0 - grid_min}
    payload = {
        "angles_deg": angles,
        "directions": [list(d.as_array()) for d in setting.directions()],
        **point,
        "grid_step_deg": step,
        **grid,
    }
    columns = ["a_deg", "aprime_deg", "b_deg", "bprime_deg", *point, *grid]
    row = [*(angles or [None] * 4), *point.values(), *grid.values()]
    return _emit(cfg, payload, columns, [row])


def _fixed6(x: np.ndarray) -> np.ndarray:
    """The bytes of '%.6f' % v for each v in x, as uint8 of shape x.shape + (8,).

    Like Python's, the digits are correctly rounded, ties to even.  x must
    lie in [0, 9.9999995], where every value prints as d.dddddd, or this
    raises.  A Veltkamp split of x into halves of at most 26 bits gives the
    error of p = x * 1e6 exactly, since 1e6 has 14; only where p is a
    half-integer is it needed, its sign breaking np.rint's tie to even.
    """
    if np.signbit(x).any() or not (x <= 9.9999995).all():
        raise InputValidationError("fixed-point cells must lie in [0, 9.9999995]")
    p = x * 1e6
    q = np.rint(p)
    tied = np.abs(p - q) == 0.5
    x, p, tie = x[tied], p[tied], p[tied] - q[tied]
    c = x * 134217729.0
    high = c - (c - x)
    error = (high * 1e6 - p) + (x - high) * 1e6
    q[tied] += 2.0 * tie * (tie * error > 0.0)
    lead, tail = np.divmod(q.astype(np.int64), 10**4)
    leads, tails = _digit_words()
    return np.stack((leads.take(lead), tails.take(tail)), axis=-1).view(np.uint8)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    # k < 1000 as "d.dd" and k < 10**4 as "dddd", one uint32 word each.
    digits = np.stack(np.indices((10,) * 4, np.uint8), axis=-1).reshape(-1, 4) + ord("0")
    leads = np.insert(digits[:1000, 1:], 1, ord("."), axis=1)
    return leads.view(np.uint32)[:, 0], digits.view(np.uint32)[:, 0]


def _scan_csv(scan: tuple) -> Iterator[str]:
    """The rows of a _scan_grid scan as CSV text, one chunk per slab.

    A slab of k (a, a') blocks is one record per row of left-aligned,
    NUL-padded byte fields: the a and a' cells, a (b, b') table tiled k
    times, the pd_a and pd_a' cells, a tiled (pd_b, pd_b') table, three
    _fixed6 numbers each before a comma and a flag pair ending in a newline.
    The records are laid out once, for the first and largest slab, of at
    most max(_SLAB_ROWS, n**2) rows.  Dropping the NULs leaves the rows.
    """
    def cells(texts: list[str]) -> np.ndarray:  # NUL-padded to the longest
        return np.array([text.encode("ascii") for text in texts])

    angles, probs, _, slabs = scan
    n = len(angles)
    angle = cells([_fmt(a) + "," for a in angles])
    pa, pap, pb, pbp = (cells([_fmt(p) + "," for p in role]) for role in probs)
    flags = cells([f"{s},{m}\n" for s in ("false", "true") for m in ("false", "true")])
    formats = [angle.dtype] * 4 + [c.dtype for c in (pa, pap, pb, pbp)] + ["S8"] * 3
    widths = [f.itemsize for f in formats[:8]] + [9, 9, 9, flags.itemsize]
    edges = list(accumulate(widths, initial=0))
    names = [*SCAN_COLUMNS[:11], "flags"]
    record = np.dtype({"names": names, "formats": [*formats, flags.dtype], "offsets": edges[:-1]})
    rows = None
    for ia, aps, standard, modified, bound, standard_violated, modified_violated in slabs:
        if rows is None:
            rows = np.zeros(standard.size, record)
            ib, ibp = np.divmod(np.arange(standard.size) % (n * n), n)
            rows["b_deg"], rows["bprime_deg"] = angle[ib], angle[ibp]
            rows["pd_b"], rows["pd_bprime"] = pb[ib], pbp[ibp]
            rows.view(np.uint8).reshape(len(rows), -1)[:, [e - 1 for e in edges[9:12]]] = ord(",")
        slab = rows[: standard.size]
        blocks = slab.reshape(len(standard), n * n)
        slab["a_deg"], blocks["aprime_deg"] = angle[ia], angle[aps, None]
        slab["pd_a"], blocks["pd_aprime"] = pa[ia], pap[aps, None]
        for name, values in zip(names[8:11], (standard, modified, bound)):
            slab[name] = _fixed6(values.reshape(-1)).view("S8")[:, 0]
        slab["flags"] = flags[(2 * standard_violated + modified_violated).ravel()]
        yield slab.tobytes().replace(b"\0", b"").decode("ascii")


def _scan_text(scan: tuple) -> Iterator[str]:
    """The rows of a _scan_grid scan as JSON text, one chunk per slab.

    The chunks are the text json.dump(indent=2) writes for the rows inside
    the payload's "rows" list, with no comma after the last: one f-string per
    row over angle_scan's row walk, joined once per slab, with angle and
    probability cells as json.dumps text made once per grid angle and the
    computed numbers as repr, json.dump's text for a finite float.
    """
    angles, probs, _, slabs = scan
    angles = [json.dumps(a) for a in angles]
    pa, pap, pb, pbp = ([json.dumps(p) for p in role] for role in probs)
    grid, flags = range(len(angles)), ("false", "true")
    lead = ""  # no ",\n" before the first row
    for ia, aps, *columns in slabs:
        a, p_a = angles[ia], pa[ia]
        rows = zip(product(grid[aps], grid, grid), *(c.ravel().tolist() for c in columns))
        yield lead + ",\n".join([
            f'    {{\n      "a_deg": {a},\n      "aprime_deg": {angles[iap]},\n'
            f'      "b_deg": {angles[ib]},\n      "bprime_deg": {angles[ibp]},\n'
            f'      "pd_a": {p_a},\n      "pd_aprime": {pap[iap]},\n'
            f'      "pd_b": {pb[ib]},\n      "pd_bprime": {pbp[ibp]},\n'
            f'      "standard_lhs": {standard!r},\n      "modified_lhs": {modified!r},\n'
            f'      "bound": {bound!r},\n      "standard_violated": {flags[sv]},\n'
            f'      "modified_violated": {flags[mv]}\n    }}'
            for (iap, ib, ibp), standard, modified, bound, sv, mv in rows
        ])
        lead = ",\n"


def cmd_scan(cfg: ExperimentConfig) -> int:
    """Stream both functionals over the coplanar angle grid."""
    state = cfg.resolve_state()
    det = cfg.resolve_detection(state.label, tuple(role for role, _ in _ROLES))
    step = cfg.grid_step if cfg.grid_step is not None else 45.0
    scan = _scan_grid(state, det, step)
    if cfg.format == "json":
        sys.stdout.write(
            '{\n  "schema_version": %s,\n  "grid_step_deg": %s,\n  "rows": [\n'
            % (json.dumps(SCHEMA_VERSION), json.dumps(step))
        )
        sys.stdout.writelines(_scan_text(scan))
        sys.stdout.write("\n  ]\n}\n")
        return 0
    sys.stdout.write(",".join(SCAN_COLUMNS) + "\n")
    sys.stdout.writelines(_scan_csv(scan))
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Run a local model over the four CHSH pairs and report its statistics."""
    model = MODELS[cfg.model]()
    directions, angles = cfg.resolve_directions(4)
    sim = simulate_chsh(model, ChshSetting(*directions), cfg.trials, cfg.seed, cfg.workers)
    columns = ["metric", "setting", "value", "std_error"]
    payload = {
        "model": cfg.model,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "angles_deg": angles,
        "metrics": [dict(zip(columns, row)) for row in sim.rows],
    }
    return _emit(cfg, payload, columns, sim.rows)


def cmd_sequential(cfg: ExperimentConfig) -> int:
    """Report the factored two-measurement distribution and its correlation."""
    state = cfg.resolve_state()
    (direction_a, direction_b), _ = cfg.resolve_directions(2)
    det = cfg.resolve_detection(state.label, ("a", "b"))
    obs_a = GeneralizedObservable(spin_observable(direction_a, 1))
    obs_b = GeneralizedObservable(spin_observable(direction_b, 2))
    distribution = sequential_distribution_factored(state, obs_a, obs_b, det)
    correlation = generalized_correlation(state, obs_a, obs_b, det)
    payload = {
        "entries": [
            {"a_outcome": pair[0], "b_outcome": pair[1], "probability": prob}
            for pair, prob in distribution.entries
        ],
        "total": distribution.total(),
        "correlation": correlation,
    }
    rows = [["entry", f"{a:g}", f"{b:g}", p] for (a, b), p in distribution.entries]
    rows += [["total", "", "", distribution.total()], ["correlation", "", "", correlation]]
    return _emit(cfg, payload, ["kind", "a_outcome", "b_outcome", "value"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belltally",
        description="Detection-aware Bell/CHSH statistics for two-qubit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    angles, state = "tsirelson | degrees | 3-vectors", "state name (singlet)"
    # Each subcommand's handler, help, and flags with their help text, in order.
    commands = {
        "bound": (cmd_bound, "equal-detection threshold for a setting",
                  {"--angles": angles, "--grid-step": None}),
        "scan": (cmd_scan, "both functionals over the coplanar grid",
                 {"--state": state, "--detection": "uniform p or a,a',b,b' values",
                  "--apparatus-factor": None, "--grid-step": None}),
        "simulate": (cmd_simulate, "Monte Carlo run of a local model",
                     {"--model": " | ".join(MODELS), "--angles": angles,
                      "--trials": None, "--seed": None, "--workers": None}),
        "sequential": (cmd_sequential, "factored two-measurement distribution",
                       {"--state": state, "--angles": "two degrees or two 3-vectors",
                        "--detection": "uniform p or a,b values", "--apparatus-factor": None}),
    }
    common = {"--format": "csv (default) | json", "--config": "JSON config file; flags override it"}
    for name, (handler, text, flags) in commands.items():
        command = sub.add_parser(name, help=text)
        for flag, flag_text in {**flags, **common}.items():
            command.add_argument(flag, help=flag_text)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.handler(cfg)
    except BelltallyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A grid step too fine for memory; numpy's message names the size.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer closed the pipe; silence the shutdown flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
