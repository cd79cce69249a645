"""Command line interface: bound, scan, simulate, and sequential reports.

Data goes to stdout as CSV (fixed-point, 6 decimals) or JSON (full
precision, schema_version 1); diagnostics go to stderr.  Exit code 0 on
success, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from .chsh import (
    ChshSetting,
    angle_scan,
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


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _csv_writer() -> Any:
    return csv.writer(sys.stdout, lineterminator="\n")


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
    if cfg.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "angles_deg": None if angles is None else list(angles),
                "directions": [list(d.as_array()) for d in setting.directions()],
                "bound": bound,
                "no_registration_lower_bound": 1.0 - bound,
                "grid_step_deg": step,
                "grid_min_bound": grid_min,
                "grid_min_no_registration_lower_bound": 1.0 - grid_min,
            }
        )
        return 0
    writer = _csv_writer()
    writer.writerow(
        [
            "a_deg",
            "aprime_deg",
            "b_deg",
            "bprime_deg",
            "bound",
            "no_registration_lower_bound",
            "grid_min_bound",
            "grid_min_no_registration_lower_bound",
        ]
    )
    cells = ["", "", "", ""] if angles is None else [_fmt(v) for v in angles]
    writer.writerow(
        cells + [_fmt(bound), _fmt(1.0 - bound), _fmt(grid_min), _fmt(1.0 - grid_min)]
    )
    return 0


def cmd_scan(cfg: ExperimentConfig) -> int:
    """Stream both functionals over the coplanar angle grid."""
    state = cfg.resolve_state()
    det = cfg.resolve_detection(state.label, ("a", "a_prime", "b", "b_prime"))
    step = cfg.grid_step_deg if cfg.grid_step_deg is not None else 45.0
    reports = angle_scan(state, det, math.radians(step))
    if cfg.format == "json":
        rows = []
        for report in reports:
            angles = report.setting.plane_angles_deg()
            assert angles is not None
            rows.append(
                {
                    "a_deg": angles[0],
                    "aprime_deg": angles[1],
                    "b_deg": angles[2],
                    "bprime_deg": angles[3],
                    "pd_a": report.detection_probs[0],
                    "pd_aprime": report.detection_probs[1],
                    "pd_b": report.detection_probs[2],
                    "pd_bprime": report.detection_probs[3],
                    "standard_lhs": report.standard_lhs,
                    "modified_lhs": report.modified_lhs,
                    "bound": report.bound,
                    "standard_violated": report.standard_violated,
                    "modified_violated": report.modified_violated,
                }
            )
        _emit_json(
            {"schema_version": SCHEMA_VERSION, "grid_step_deg": step, "rows": rows}
        )
        return 0
    writer = _csv_writer()
    writer.writerow(SCAN_COLUMNS)
    for report in reports:
        angles = report.setting.plane_angles_deg()
        assert angles is not None
        writer.writerow(
            [_fmt(v) for v in angles]
            + [_fmt(v) for v in report.detection_probs]
            + [
                _fmt(report.standard_lhs),
                _fmt(report.modified_lhs),
                _fmt(report.bound),
                _fmt_bool(report.standard_violated),
                _fmt_bool(report.modified_violated),
            ]
        )
    return 0


def _simulate_metrics(sim, n_trials: int) -> list[tuple[str, str, float, float]]:
    rows: list[tuple[str, str, float, float]] = []
    for i, pair in enumerate(PAIR_NAMES):
        rows.append(
            ("micro_correlation", pair, sim.micro_correlations[i], sim.micro_correlation_errors[i])
        )
    for i, pair in enumerate(PAIR_NAMES):
        rows.append(
            (
                "conditional_correlation",
                pair,
                sim.conditional_correlations[i],
                sim.conditional_correlation_errors[i],
            )
        )
    for i, pair in enumerate(PAIR_NAMES):
        freq = sim.detection_frequencies_a[i]
        rows.append(
            (
                "detection_frequency_a",
                pair,
                freq,
                math.sqrt(max(0.0, freq * (1.0 - freq)) / n_trials),
            )
        )
    for i, pair in enumerate(PAIR_NAMES):
        freq = sim.detection_frequencies_b[i]
        rows.append(
            (
                "detection_frequency_b",
                pair,
                freq,
                math.sqrt(max(0.0, freq * (1.0 - freq)) / n_trials),
            )
        )
    for i, pair in enumerate(PAIR_NAMES):
        freq = sim.all_sample_pair_frequencies[i]
        rows.append(
            (
                "all_sample_pair_frequency",
                pair,
                freq,
                math.sqrt(max(0.0, freq * (1.0 - freq)) / n_trials),
            )
        )
    for i, pair in enumerate(PAIR_NAMES):
        both = sim.summary.both_detected_count(i)
        freq = sim.detected_pair_frequencies[i]
        error = math.sqrt(max(0.0, freq * (1.0 - freq)) / both) if both else float("nan")
        rows.append(("detected_pair_frequency", pair, freq, error))
    for i, pair in enumerate(PAIR_NAMES):
        all_freq = sim.all_sample_pair_frequencies[i]
        det_freq = sim.detected_pair_frequencies[i]
        both = sim.summary.both_detected_count(i)
        se_all = math.sqrt(max(0.0, all_freq * (1.0 - all_freq)) / n_trials)
        se_det = math.sqrt(max(0.0, det_freq * (1.0 - det_freq)) / both) if both else float("nan")
        rows.append(
            (
                "fair_sampling_divergence",
                pair,
                sim.divergences[i],
                math.hypot(se_all, se_det),
            )
        )
    rows.append(("micro_chsh", "", sim.micro_chsh, sim.micro_chsh_error))
    rows.append(("conditional_chsh", "", sim.conditional_chsh, sim.conditional_chsh_error))
    rows.append(
        (
            "weighted_chsh_predicted",
            "",
            sim.weighted_chsh_predicted,
            sim.weighted_chsh_predicted_error,
        )
    )
    return rows


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
    writer = _csv_writer()
    writer.writerow(["metric", "setting", "value", "std_error"])
    for name, pair, value, error in rows:
        writer.writerow([name, pair, _fmt(value), _fmt(error)])
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
    writer = _csv_writer()
    writer.writerow(["kind", "a_outcome", "b_outcome", "value"])
    for (a_value, b_value), prob in distribution.entries:
        writer.writerow(["entry", f"{a_value:g}", f"{b_value:g}", _fmt(prob)])
    writer.writerow(["total", "", "", _fmt(distribution.total())])
    writer.writerow(["correlation", "", "", _fmt(correlation)])
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
