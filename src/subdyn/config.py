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
import os
import pathlib

from .models import MODEL_KINDS, ModelSpec
from .subdynamics import normalize_order

SCENARIOS = ("classify", "evolve", "swap-calibrate", "cnot-demo", "turing-demo", "verify")
# Scenarios that read the time grid and start from the model's canonical
# initial state, and those of them that decompose at the configured order
# (verify runs the exact order, swap-calibrate the exact order and order 1,
# both on d x d factors).
_GRID_SCENARIOS = ("classify", "evolve", "verify")
_ORDERED_SCENARIOS = ("classify", "evolve")
# Scenarios that read eta: the ordered ones at orders 1 and 2, and
# swap-calibrate's order-1 calibration.
_ETA_SCENARIOS = ("classify", "evolve", "swap-calibrate")

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
    to perturbative orders.
    """

    scenario: str
    model: ModelSpec
    order: str = "exact"
    t_grid: tuple[float, float, int] = (0.0, 10.0, 101)
    eta: float = 0.0
    seed: int = 0

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


def load_config(raw: dict) -> ScenarioConfig:
    """Validate a parsed config document; read_config parses a file into one."""
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
    if scenario in _GRID_SCENARIOS and model.kind == "diagonal" and model.fock_cutoff < 1:
        raise ConfigError(f"{scenario} starts from the diagonal model's reference state, "
                          "which needs model.fock_cutoff >= 1")
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
    if "seed" in raw:
        seed = _coerce_int(raw["seed"], "seed")
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        fields["seed"] = seed

    config = ScenarioConfig(**fields)
    _check_read(config)
    _check_memory(config)
    return config


def _check_read(config: ScenarioConfig) -> None:
    """Refuse an order or eta the scenario would echo in its report without reading.

    Only values are refused, not keys: a document may spell out the
    defaults, order "exact" and eta 0, for every scenario.
    """
    if config.order != "exact" and config.scenario not in _ORDERED_SCENARIOS:
        raise ConfigError(f"{config.scenario} runs the exact order only; "
                          f"order {config.order!r} is not read")
    if config.eta != 0.0 and config.scenario not in _ETA_SCENARIOS:
        raise ConfigError(f"eta is not read by {config.scenario}; got {config.eta}")
    if config.eta != 0.0 and config.order == "exact" and config.scenario in _ORDERED_SCENARIOS:
        raise ConfigError(f"eta regularizes the perturbative orders only; "
                          f"{config.scenario} at the exact order does not read eta = {config.eta}")


def _check_memory(config: ScenarioConfig) -> int:
    """Estimate the run's peak bytes; refuse it above half of physical memory.

    The estimate is 16 (q d^2 + max(2 max(d^2, 2^15), gather) + steps s)
    bytes, fitted to tracemalloc peaks of runner.run (the cases and their
    peaks are listed with MEMORY_CASES in tests/test_config.py): it bounds
    the Python-visible allocations, not the process RSS, which adds the
    interpreter, the libraries and LAPACK's workspace. The terms:

    - q d^2 for the d x d arrays: the decomposition's factors, H, the state
      flows and the projections. q = 12 for classify at the exact order and
      18 at orders 1 and 2, which store more factors; 14 and 20 for evolve,
      whose kinetic check flows the canonical ket and projects it twice;
      20 for verify, whose kinetic check flows three kets, and for
      swap-calibrate. evolve's energies table holds a row of Python numbers
      per dyad of nonzero weight, at most a quarter of the dyads for the
      canonical ket, and is built once the decomposition is freed.
    - 2 max(d^2, 2^15) for one block of a walk over the time grid
      (subdynamics.time_blocks): about 2^15 entries of at most 32 bytes.
    - gather = 3 * 2^15 + d^2, only for order 2 at eta > 0 on an interaction
      that is not one-sided (ModelSpec.one_sided_interaction): a kernel
      chunk of the off-plane gather and its square, numpy's broadcast
      buffers, and the pair lists of the interaction's nonzeros. From
      d = 314 it adds nothing to the block term.
    - steps s for the time grid: s = 2 for classify (the times and the
      fidelity trace), 1 for verify, and 10 for evolve, whose fidelity
      table holds a row of Python floats per step.
    """
    d = config.model.dim
    steps = config.t_grid[2] if config.scenario in _GRID_SCENARIOS else 0
    ordered = config.scenario in _ORDERED_SCENARIOS
    gathers = (ordered and config.order == "2" and config.eta > 0
               and not config.model.one_sided_interaction)
    gather = 3 * 2**15 + d**2 if gathers else 0
    if config.scenario == "evolve":
        per_dyad, per_step = (14 if config.order == "exact" else 20), 10
    elif config.scenario == "classify":
        per_dyad, per_step = (12 if config.order == "exact" else 18), 2
    else:
        per_dyad, per_step = 20, 1
    estimate = 16 * (per_dyad * d**2 + max(2 * max(d**2, 2**15), gather) + steps * per_step)
    budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    if estimate > budget:
        route = f"order {config.order}" if ordered else "d x d routes"
        raise ConfigError(
            f"{config.scenario} at Hilbert dimension {d} ({route}, {steps} time steps) "
            f"needs an estimated {estimate / 2**20:.6g} MiB, over the budget of "
            f"{budget / 2**20:.6g} MiB (half of physical memory)")
    return estimate


def config_echo(config: ScenarioConfig) -> dict:
    """Resolved config as a plain dict for the run report, model nested."""
    return dataclasses.asdict(config)
