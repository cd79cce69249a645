"""Command line interface: bound, scan, simulate, and sequential reports.

Data goes to stdout as CSV (fixed-point, 6 decimals) or JSON (full
precision, schema_version 1); diagnostics go to stderr.  Exit code 0 on
success, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any, Iterator, Sequence

import numpy as np

# angle_scan is bound here, though cmd_scan streams _scan_grid's blocks,
# because perfbench/tracer.py wraps it among the names cli looks up.
from .chsh import (
    ChshSetting,
    _scan_grid,
    angle_scan,  # noqa: F401
    detection_bound,
    min_detection_bound,
)
from .detection import DetectionModel, GeneralizedObservable, sequential_distribution_factored
from .detection import generalized_correlation
from .errors import BelltallyError, ConfigurationError, InputValidationError
from .lhv import (
    PAIR_NAMES,
    constant_model,
    gisin_gisin_model,
    sign_model,
    simulate_chsh,
)
from .quantum import DensityState, Direction, singlet_state, spin_observable

SCHEMA_VERSION = 1

MODELS = {
    "gisin-gisin": gisin_gisin_model,
    "sign": sign_model,
    "constant": constant_model,
}

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


def _optional_float(value: Any) -> float | None:
    return None if value is None else float(value)


def _config_field(default: Any, key: str | None = None, convert: Any = None) -> Any:
    # One config field: key names both the config-file key and the flag's
    # argparse dest (the field name when None); convert, when given, is
    # applied to a supplied value.
    return field(default=default, metadata={"key": key, "convert": convert})


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged command configuration; flags override config-file values."""

    state_spec: Any = _config_field("singlet", "state")
    angles_spec: Any = _config_field("tsirelson", "angles")
    detection_spec: Any = _config_field(1.0, "detection")
    apparatus_factor: float = _config_field(1.0, convert=float)
    trials: int = _config_field(100000, convert=int)
    seed: int = _config_field(0, convert=int)
    format: str = _config_field("csv", convert=str)
    grid_step_deg: float | None = _config_field(None, "grid_step", _optional_float)
    model_name: str = _config_field("gisin-gisin", "model", str)
    workers: int = _config_field(1, convert=int)

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise InputValidationError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.trials < 1:
            raise InputValidationError(f"trials must be positive, got {self.trials!r}")
        if self.workers < 1:
            raise InputValidationError(f"workers must be positive, got {self.workers!r}")
        if self.seed < 0:
            raise InputValidationError(f"seed must be nonnegative, got {self.seed!r}")
        if self.grid_step_deg is not None and not 0.0 < self.grid_step_deg <= 90.0:
            raise InputValidationError(
                f"grid step must lie in (0, 90] degrees, got {self.grid_step_deg!r}"
            )

    def resolve_state(self) -> DensityState:
        spec = self.state_spec
        if isinstance(spec, str):
            if spec == "singlet":
                return singlet_state()
            raise ConfigurationError(f"unknown state name {spec!r}")
        matrix = _parse_complex_matrix(spec)
        return DensityState(matrix, "custom")

    def resolve_directions(self, count: int) -> list[Direction]:
        spec = self.angles_spec
        if isinstance(spec, str) and spec == "tsirelson":
            if count != 4:
                raise ConfigurationError(
                    "the 'tsirelson' preset names four directions, "
                    f"but this command needs {count}"
                )
            setting = ChshSetting.tsirelson()
            return list(setting.directions())
        values = _parse_angles(spec)
        if len(values) != count:
            raise ConfigurationError(
                f"angle spec must provide {count} directions, got {len(values)}"
            )
        return values

    def resolve_setting(self) -> ChshSetting:
        a, a_prime, b, b_prime = self.resolve_directions(4)
        return ChshSetting(a, a_prime, b, b_prime)

    def resolve_detection(self, state_label: str, roles: Sequence[str]) -> DetectionModel:
        spec = self.detection_spec
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


_CONFIG_FIELDS = {spec.metadata["key"] or spec.name: spec for spec in fields(ExperimentConfig)}


def _number(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"cannot parse {value!r} as a number") from None


def _parse_number_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {text!r} as numbers") from exc


def _parse_angles(spec: Any) -> list[Direction]:
    if isinstance(spec, str):
        if ";" in spec:
            spec = [_parse_number_list(part) for part in spec.split(";")]
        else:
            spec = _parse_number_list(spec)
    if not isinstance(spec, (list, tuple)) or len(spec) == 0:
        raise ConfigurationError(f"cannot interpret angle spec {spec!r}")
    if all(np.isscalar(v) for v in spec):
        return [Direction.from_plane_degrees(_number(v)) for v in spec]
    directions = []
    for entry in spec:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigurationError(f"direction {entry!r} must have three components")
        directions.append(Direction.normalized(*(_number(v) for v in entry)))
    return directions


def _parse_complex_entry(value: Any) -> complex:
    if isinstance(value, (int, float)):
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _bounded_step(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 90.0:
        raise argparse.ArgumentTypeError("must lie in (0, 90] degrees")
    return value


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values: dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = set(file_values) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

    values: dict[str, Any] = {}
    try:
        for key, spec in _CONFIG_FIELDS.items():
            value = getattr(args, key, None)
            if value is None:
                if key not in file_values:
                    continue
                value = file_values[key]
            convert = spec.metadata["convert"]
            values[spec.name] = value if convert is None else convert(value)
        return ExperimentConfig(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed config value: {exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _emit_csv(*rows: Sequence[str]) -> None:
    # Every cell is a number or a fixed name, so none needs quoting.
    sys.stdout.writelines(",".join(row) + "\n" for row in rows)


def _emit_json(payload: dict[str, Any]) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_bound(cfg: ExperimentConfig) -> int:
    """Report the equal-detection threshold for a setting and its grid minimum."""
    setting = cfg.resolve_setting()
    step = cfg.grid_step_deg if cfg.grid_step_deg is not None else 1.0
    bound = detection_bound(setting)
    grid_min = min_detection_bound(step)
    angles = setting.plane_angles_deg()
    point = {"bound": bound, "no_registration_lower_bound": 1.0 - bound}
    grid = {"grid_min_bound": grid_min, "grid_min_no_registration_lower_bound": 1.0 - grid_min}
    if cfg.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "angles_deg": None if angles is None else list(angles),
                "directions": [list(d.as_array()) for d in setting.directions()],
                **point,
                "grid_step_deg": step,
                **grid,
            }
        )
        return 0
    cells = ["", "", "", ""] if angles is None else [_fmt(v) for v in angles]
    _emit_csv(
        ["a_deg", "aprime_deg", "b_deg", "bprime_deg", *point, *grid],
        cells + [_fmt(v) for v in (*point.values(), *grid.values())],
    )
    return 0


def _scan_text(scan: tuple, json_rows: bool) -> Iterator[str]:
    """The rows of a _scan_grid scan as text, one chunk per (a, a') block.

    CSV cells are fixed-point with 6 decimals.  JSON rows are the text
    json.dump(indent=2) writes for them inside the payload's "rows" list,
    with no comma after the last.  Cells that depend on one grid angle are
    formatted once per angle, and so are the (b, b') and flag pairs of
    adjacent cells; each block is one %-template, filled per row with those
    pairs and the three computed columns.
    """
    # leads[k] is the text before the cell of column k.
    if json_rows:
        cell, number, close, between = json.dumps, "%r", "\n    }", ",\n"
        leads = [f',\n      "{column}": ' for column in SCAN_COLUMNS]
        leads[0] = f'    {{\n      "{SCAN_COLUMNS[0]}": '
    else:
        cell, number, close, between = _fmt, "%.6f", "\n", ""
        leads = [""] + [","] * (len(SCAN_COLUMNS) - 1)
    directions, probs, _, blocks = scan
    angles = [cell(d.plane_angle_deg()) for d in directions]
    pa, pap, pb, pbp = ([cell(p) for p in role] for role in probs)
    grid = range(len(angles))
    b_pairs = [angles[j] + leads[3] + angles[k] for j in grid for k in grid]
    pb_pairs = [pb[j] + leads[7] + pbp[k] for j in grid for k in grid]
    flags = ("false", "true")
    flag_pairs = np.array([s + leads[12] + m for s in flags for m in flags])
    skip = len(between)
    for ia, iap, standard, modified, bound, standard_violated, modified_violated in blocks:
        row = "".join(
            [between, leads[0], angles[ia], leads[1], angles[iap], leads[2], "%s"]
            + [leads[4], pa[ia], leads[5], pap[iap], leads[6], "%s"]
            + [leads[8], number, leads[9], number, leads[10], number, leads[11], "%s", close]
        )
        values = zip(
            b_pairs,
            pb_pairs,
            standard.ravel().tolist(),
            modified.ravel().tolist(),
            bound.ravel().tolist(),
            flag_pairs[2 * standard_violated + modified_violated].ravel().tolist(),
        )
        yield (row * len(b_pairs) % tuple(chain.from_iterable(values)))[skip:]
        skip = 0


def cmd_scan(cfg: ExperimentConfig) -> int:
    """Stream both functionals over the coplanar angle grid."""
    state = cfg.resolve_state()
    det = cfg.resolve_detection(state.label, ("a", "a_prime", "b", "b_prime"))
    step = cfg.grid_step_deg if cfg.grid_step_deg is not None else 45.0
    scan = _scan_grid(state, det, math.radians(step))
    if cfg.format == "json":
        sys.stdout.write(
            '{\n  "schema_version": %s,\n  "grid_step_deg": %s,\n  "rows": [\n'
            % (json.dumps(SCHEMA_VERSION), json.dumps(step))
        )
        sys.stdout.writelines(_scan_text(scan, json_rows=True))
        sys.stdout.write("\n  ]\n}\n")
        return 0
    _emit_csv(SCAN_COLUMNS)
    sys.stdout.writelines(_scan_text(scan, json_rows=False))
    return 0


def _binomial_errors(freqs: Sequence[float], counts: Sequence[int]) -> list[float]:
    return [
        math.sqrt(max(0.0, f * (1.0 - f)) / n) if n else float("nan")
        for f, n in zip(freqs, counts)
    ]


def _simulate_metrics(sim, n_trials: int) -> list[tuple[str, str, float, float]]:
    trials = [n_trials] * len(PAIR_NAMES)
    both = [sim.summary.both_detected_count(i) for i in range(len(PAIR_NAMES))]
    freqs_a, freqs_b = sim.detection_frequencies_a, sim.detection_frequencies_b
    all_freqs, det_freqs = sim.all_sample_pair_frequencies, sim.detected_pair_frequencies
    divergence_errors = map(
        math.hypot, _binomial_errors(all_freqs, trials), _binomial_errors(det_freqs, both)
    )
    per_pair = [
        ("micro_correlation", sim.micro_correlations, sim.micro_correlation_errors),
        (
            "conditional_correlation",
            sim.conditional_correlations,
            sim.conditional_correlation_errors,
        ),
        ("detection_frequency_a", freqs_a, _binomial_errors(freqs_a, trials)),
        ("detection_frequency_b", freqs_b, _binomial_errors(freqs_b, trials)),
        ("all_sample_pair_frequency", all_freqs, _binomial_errors(all_freqs, trials)),
        ("detected_pair_frequency", det_freqs, _binomial_errors(det_freqs, both)),
        ("fair_sampling_divergence", sim.divergences, divergence_errors),
    ]
    rows = [
        (name, pair, value, error)
        for name, values, errors in per_pair
        for pair, value, error in zip(PAIR_NAMES, values, errors)
    ]
    return rows + [
        ("micro_chsh", "", sim.micro_chsh, sim.micro_chsh_error),
        ("conditional_chsh", "", sim.conditional_chsh, sim.conditional_chsh_error),
        (
            "weighted_chsh_predicted",
            "",
            sim.weighted_chsh_predicted,
            sim.weighted_chsh_predicted_error,
        ),
    ]


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Run a local model over the four CHSH pairs and report its statistics."""
    if cfg.model_name not in MODELS:
        raise ConfigurationError(
            f"unknown model {cfg.model_name!r}; available: {sorted(MODELS)}"
        )
    model = MODELS[cfg.model_name]()
    setting = cfg.resolve_setting()
    sim = simulate_chsh(model, setting, cfg.trials, cfg.seed, cfg.workers)
    rows = _simulate_metrics(sim, cfg.trials)
    if cfg.format == "json":
        angles = setting.plane_angles_deg()
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "model": cfg.model_name,
                "trials": cfg.trials,
                "seed": cfg.seed,
                "angles_deg": None if angles is None else list(angles),
                "metrics": [
                    {"metric": name, "setting": pair, "value": value, "std_error": error}
                    for name, pair, value, error in rows
                ],
            }
        )
        return 0
    _emit_csv(["metric", "setting", "value", "std_error"])
    _emit_csv(*([name, pair, _fmt(value), _fmt(error)] for name, pair, value, error in rows))
    return 0


def cmd_sequential(cfg: ExperimentConfig) -> int:
    """Report the factored two-measurement distribution and its correlation."""
    state = cfg.resolve_state()
    direction_a, direction_b = cfg.resolve_directions(2)
    det = cfg.resolve_detection(state.label, ("a", "b"))
    obs_a = GeneralizedObservable(spin_observable(direction_a, 1))
    obs_b = GeneralizedObservable(spin_observable(direction_b, 2))
    distribution = sequential_distribution_factored(state, obs_a, obs_b, det)
    correlation = generalized_correlation(state, obs_a, obs_b, det)
    if cfg.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "entries": [
                    {"a_outcome": pair[0], "b_outcome": pair[1], "probability": prob}
                    for pair, prob in distribution.entries
                ],
                "total": distribution.total(),
                "correlation": correlation,
            }
        )
        return 0
    _emit_csv(["kind", "a_outcome", "b_outcome", "value"])
    _emit_csv(*(["entry", f"{a:g}", f"{b:g}", _fmt(p)] for (a, b), p in distribution.entries))
    _emit_csv(["total", "", "", _fmt(distribution.total())])
    _emit_csv(["correlation", "", "", _fmt(correlation)])
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--seed", type=_nonnegative_int, default=None)
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belltally",
        description="Detection-aware Bell/CHSH statistics for two-qubit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="equal-detection threshold for a setting")
    _add_common(p_bound)
    p_bound.add_argument("--angles", default=None, help="tsirelson | degrees | 3-vectors")
    p_bound.add_argument("--grid-step", dest="grid_step", type=_bounded_step, default=None)
    p_bound.set_defaults(handler=cmd_bound)

    p_scan = sub.add_parser("scan", help="both functionals over the coplanar grid")
    _add_common(p_scan)
    p_scan.add_argument("--state", default=None, help="state name (singlet)")
    p_scan.add_argument("--detection", default=None, help="uniform p or a,a',b,b' values")
    p_scan.add_argument(
        "--apparatus-factor", dest="apparatus_factor", type=float, default=None
    )
    p_scan.add_argument("--grid-step", dest="grid_step", type=_bounded_step, default=None)
    p_scan.set_defaults(handler=cmd_scan)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run of a local model")
    _add_common(p_sim)
    p_sim.add_argument("--model", default=None, choices=sorted(MODELS))
    p_sim.add_argument("--angles", default=None, help="tsirelson | degrees | 3-vectors")
    p_sim.add_argument("--trials", type=_positive_int, default=None)
    p_sim.add_argument("--workers", type=_positive_int, default=None)
    p_sim.set_defaults(handler=cmd_simulate)

    p_seq = sub.add_parser("sequential", help="factored two-measurement distribution")
    _add_common(p_seq)
    p_seq.add_argument("--state", default=None, help="state name (singlet)")
    p_seq.add_argument("--angles", default=None, help="two degrees or two 3-vectors")
    p_seq.add_argument("--detection", default=None, help="uniform p or a,b values")
    p_seq.add_argument(
        "--apparatus-factor", dest="apparatus_factor", type=float, default=None
    )
    p_seq.set_defaults(handler=cmd_sequential)

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
    except BrokenPipeError:
        # Downstream consumer closed the pipe; silence the shutdown flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
