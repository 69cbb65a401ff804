"""Scenario configuration: one JSON document per run, strictly validated.

Unknown keys are rejected with a nearest-match suggestion rather than
silently ignored, since a typo like "lamda" would otherwise run a different
experiment than the one described.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import math
import numbers
import pathlib

from .models import MODEL_KINDS, ModelSpec
from .subdynamics import normalize_order

SCENARIOS = ("classify", "evolve", "swap-calibrate", "cnot-demo", "turing-demo", "verify")
DIM_CAP = 64

_MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelSpec))
# Model keys read by some kinds only. Set on another kind, such a key would be
# echoed in the report without shaping the model that ran, so it is an error.
_KIND_KEYS = {
    "omega0": ("diagonal", "triangular"),
    "omega_atoms": ("general",),
    "bath": ("general",),
    "bath_cutoff": ("general",),
}


class ConfigError(ValueError):
    """Configuration document rejected before any computation ran."""


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Validated description of one run.

    t_grid is (t_start, t_end, steps); eta is the imaginary regulator handed
    to perturbative orders; t_swap, tape_spins, rotation_angle and
    shear_strength parameterize the gate and Turing scenarios and are
    ignored elsewhere.
    """

    scenario: str
    model: ModelSpec
    order: str = "exact"
    t_grid: tuple[float, float, int] = (0.0, 10.0, 101)
    eta: float = 0.0
    seed: int = 0
    output_dir: str | None = None
    allow_large: bool = False
    t_swap: float = 1.0
    tape_spins: int = 2
    rotation_angle: float = 0.8
    shear_strength: float = 0.4

    def times(self):
        import numpy as np

        start, end, steps = self.t_grid
        return np.linspace(start, end, steps)


_TOP_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))


def _reject_unknown(keys, valid, where: str) -> None:
    for key in keys:
        if key in valid:
            continue
        near = difflib.get_close_matches(key, valid, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"unknown {where} key {key!r}{hint}")


def _coerce_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if value != out:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


def _coerce_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} must be finite, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _coerce_floats(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_coerce_float(x, f"{name}[{k}]") for k, x in enumerate(value))


def _require_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


def _build_model(raw: dict) -> ModelSpec:
    if not isinstance(raw, dict):
        raise ConfigError("model must be an object of ModelSpec fields")
    _reject_unknown(raw.keys(), _MODEL_KEYS, "model")
    kind = raw.get("kind")
    for name, kinds in _KIND_KEYS.items():
        if name in raw and kind in MODEL_KINDS and kind not in kinds:
            raise ConfigError(f"model.{name} is not read by the {kind!r} kind "
                              f"(only by {' and '.join(kinds)})")
    fields = dict(raw)
    for name in ("omega0", "omega", "g", "lam"):
        if name in fields:
            fields[name] = _coerce_float(fields[name], f"model.{name}")
    if "omega_atoms" in fields:
        fields["omega_atoms"] = _coerce_floats(fields["omega_atoms"], "model.omega_atoms")
    if "bath" in fields:
        bath = fields["bath"]
        if not isinstance(bath, (list, tuple)):
            raise ConfigError(f"model.bath must be a list of [omega_k, g_k] pairs, got {bath!r}")
        fields["bath"] = tuple(_coerce_floats(mode, f"model.bath[{k}]")
                               for k, mode in enumerate(bath))
    for name in ("fock_cutoff", "bath_cutoff"):
        if name in fields:
            fields[name] = _coerce_int(fields[name], f"model.{name}")
    for name in ("hermitian_variant", "diagonal_in_free"):
        if name in fields:
            _require_bool(fields[name], f"model.{name}")
    try:
        return ModelSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def read_config(path) -> dict:
    """Read a config file and parse it as one JSON object."""
    try:
        text = pathlib.Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


def load_config(source) -> ScenarioConfig:
    """Validate a config document given as a path to a JSON file or as a dict."""
    raw = dict(source) if isinstance(source, dict) else read_config(source)
    _reject_unknown(raw.keys(), _TOP_KEYS, "config")
    if "scenario" not in raw:
        raise ConfigError("config needs a 'scenario' key")
    if "model" not in raw:
        raise ConfigError("config needs a 'model' object")
    scenario = raw["scenario"]
    if scenario not in SCENARIOS:
        near = difflib.get_close_matches(str(scenario), SCENARIOS, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"unknown scenario {scenario!r}{hint}")

    model = _build_model(raw["model"])
    fields: dict = {"scenario": scenario, "model": model}

    if "order" in raw:
        try:
            fields["order"] = normalize_order(raw["order"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "t_grid" in raw:
        grid = raw["t_grid"]
        if not isinstance(grid, (list, tuple)) or len(grid) != 3:
            raise ConfigError("t_grid must be [t_start, t_end, steps]")
        start = _coerce_float(grid[0], "t_grid start")
        end = _coerce_float(grid[1], "t_grid end")
        steps = _coerce_int(grid[2], "t_grid steps")
        if end < start:
            raise ConfigError(f"t_grid end {end} is before start {start}")
        if steps < 1:
            raise ConfigError("t_grid needs at least one step")
        fields["t_grid"] = (start, end, steps)
    if "eta" in raw:
        eta = _coerce_float(raw["eta"], "eta")
        if eta < 0:
            raise ConfigError("eta must be non-negative")
        fields["eta"] = eta
    for name in ("seed", "tape_spins"):
        if name in raw:
            fields[name] = _coerce_int(raw[name], name)
    for name in ("t_swap", "rotation_angle", "shear_strength"):
        if name in raw:
            fields[name] = _coerce_float(raw[name], name)
    if "output_dir" in raw and raw["output_dir"] is not None:
        fields["output_dir"] = str(raw["output_dir"])
    if "allow_large" in raw:
        fields["allow_large"] = _require_bool(raw["allow_large"], "allow_large")

    config = ScenarioConfig(**fields)
    if config.tape_spins < 0:
        raise ConfigError("tape_spins must be non-negative")
    if config.model.dim > DIM_CAP and not config.allow_large:
        raise ConfigError(
            f"model Hilbert dimension {config.model.dim} exceeds the cap {DIM_CAP} "
            "(Liouville space grows as its square); pass allow_large to override")
    return config


def config_echo(config: ScenarioConfig) -> dict:
    """Resolved config as a plain dict for the run report.

    output_dir is omitted: it says where the report went, not what was run,
    and keeping it out lets identical runs produce identical payloads.
    """
    echo = dataclasses.asdict(config)
    echo.pop("output_dir")
    echo["model"] = dataclasses.asdict(config.model)
    return echo
