"""Strict config parsing: typos rejected with suggestions, sizes capped."""

import json

import numpy as np
import pytest

from subdyn.config import (
    DIM_CAP,
    SCENARIOS,
    ConfigError,
    config_echo,
    load_config,
)

GOOD = {
    "scenario": "classify",
    "model": {"kind": "diagonal", "omega0": 1.0, "omega": 1.3, "g": 0.5,
              "lam": 1.0, "fock_cutoff": 2},
}


def test_minimal_document_gets_defaults():
    cfg = load_config(dict(GOOD))
    assert cfg.scenario == "classify"
    assert cfg.order == "exact"
    assert cfg.t_grid == (0.0, 10.0, 101)
    assert cfg.eta == 0.0
    assert cfg.seed == 0
    assert cfg.output_dir is None
    assert not cfg.allow_large
    assert cfg.model.kind == "diagonal"


def test_times_is_inclusive_linspace():
    cfg = load_config({**GOOD, "t_grid": [0.0, 2.0, 5]})
    np.testing.assert_allclose(cfg.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_model_typo_gets_suggestion():
    doc = dict(GOOD)
    doc["model"] = {**GOOD["model"]}
    doc["model"]["lamda"] = 0.5
    del doc["model"]["lam"]
    with pytest.raises(ConfigError, match="did you mean 'lam'"):
        load_config(doc)


def test_top_level_typo_gets_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'order'"):
        load_config({**GOOD, "ordr": "exact"})


def test_scenario_typo_gets_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'classify'"):
        load_config({**GOOD, "scenario": "clasify"})


def test_required_keys():
    with pytest.raises(ConfigError, match="scenario"):
        load_config({"model": GOOD["model"]})
    with pytest.raises(ConfigError, match="model"):
        load_config({"scenario": "classify"})


def test_t_grid_validation():
    with pytest.raises(ConfigError, match="t_start, t_end, steps"):
        load_config({**GOOD, "t_grid": [0.0, 1.0]})
    with pytest.raises(ConfigError, match="before start"):
        load_config({**GOOD, "t_grid": [2.0, 1.0, 10]})
    with pytest.raises(ConfigError, match="at least one step"):
        load_config({**GOOD, "t_grid": [0.0, 1.0, 0]})
    with pytest.raises(ConfigError, match="integer"):
        load_config({**GOOD, "t_grid": [0.0, 1.0, 10.5]})
    with pytest.raises(ConfigError, match="t_grid start must be a number"):
        load_config({**GOOD, "t_grid": ["a", 1, 3]})
    with pytest.raises(ConfigError, match="t_grid end must be finite"):
        load_config({**GOOD, "t_grid": [0.0, float("inf"), 3]})


def test_eta_must_be_nonnegative():
    with pytest.raises(ConfigError, match="non-negative"):
        load_config({**GOOD, "eta": -0.1})
    with pytest.raises(ConfigError, match="eta must be a number"):
        load_config({**GOOD, "eta": "abc"})
    with pytest.raises(ConfigError, match="eta must be finite"):
        load_config({**GOOD, "eta": float("nan")})
    assert load_config({**GOOD, "eta": 0.2}).eta == pytest.approx(0.2)


def test_booleans_are_not_integers():
    doc = dict(GOOD)
    doc["model"] = {**GOOD["model"], "fock_cutoff": True}
    with pytest.raises(ConfigError, match="integer"):
        load_config(doc)
    doc["model"] = {**GOOD["model"], "lam": True}
    with pytest.raises(ConfigError, match="model.lam must be a number"):
        load_config(doc)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        load_config({**GOOD, "seed": "3"})
    with pytest.raises(ConfigError, match="tape_spins must be an integer"):
        load_config({**GOOD, "tape_spins": float("nan")})


def test_model_flags_must_be_json_booleans():
    # a string "false" is truthy and would run the opposite model
    tri = {"kind": "triangular", "omega0": 1.0, "omega": 1.3, "g": 0.4,
           "lam": 1.0, "fock_cutoff": 2}
    for name in ("diagonal_in_free", "hermitian_variant"):
        with pytest.raises(ConfigError, match=f"model.{name} must be true or false"):
            load_config({**GOOD, "model": {**tri, name: "false"}})
        with pytest.raises(ConfigError, match=f"model.{name} must be true or false"):
            load_config({**GOOD, "model": {**tri, name: 0}})
    assert load_config({**GOOD, "model": {**tri, "diagonal_in_free": False}}) \
        .model.diagonal_in_free is False


def test_keys_the_kind_never_reads_are_rejected():
    general = {"kind": "general", "omega_atoms": [1.0, 1.0], "bath": [[0.9, 0.6]]}
    cases = [
        ({**GOOD["model"], "bath": [[0.9, 0.6]], "omega_atoms": [2.0, 3.0]}, "model.omega_atoms"),
        ({**GOOD["model"], "bath": [[0.9, 0.6]]}, "model.bath"),
        ({**GOOD["model"], "bath_cutoff": 2}, "model.bath_cutoff"),
        ({**GOOD["model"], "kind": "triangular", "omega_atoms": [1.0, 1.0]},
         "model.omega_atoms"),
        ({**general, "omega0": 1.0}, "model.omega0"),
    ]
    for model, key in cases:
        with pytest.raises(ConfigError, match=f"{key} is not read by the '{model['kind']}' kind"):
            load_config({**GOOD, "model": model})
    assert load_config({**GOOD, "model": general}).model.bath == ((0.9, 0.6),)


def test_non_numbers_rejected_with_key():
    general = {"kind": "general", "omega_atoms": [1.0, 1.0], "bath": [[0.9, 0.6]]}
    cases = [
        ({**GOOD, "model": {**GOOD["model"], "lam": "x"}}, "model.lam must be a number"),
        ({**GOOD, "model": {**GOOD["model"], "g": float("nan")}}, "model.g must be finite"),
        ({**GOOD, "model": {**general, "omega_atoms": [1.0, "z"]}},
         r"model.omega_atoms\[1\] must be a number"),
        ({**GOOD, "model": {**general, "omega_atoms": 1.0}},
         "model.omega_atoms must be a list"),
        ({**GOOD, "model": {**general, "bath": [[0.9, None]]}},
         r"model.bath\[0\]\[1\] must be a number"),
        ({**GOOD, "model": {**general, "bath": 0.9}}, "model.bath must be a list"),
        ({**GOOD, "t_swap": "abc"}, "t_swap must be a number"),
        ({**GOOD, "rotation_angle": float("-inf")}, "rotation_angle must be finite"),
        ({**GOOD, "shear_strength": 10 ** 400}, "shear_strength must be finite"),
    ]
    for doc, message in cases:
        with pytest.raises(ConfigError, match=message):
            load_config(doc)


def test_order_normalized_and_validated():
    assert load_config({**GOOD, "order": 1}).order == "1"
    assert load_config({**GOOD, "order": "2"}).order == "2"
    with pytest.raises(ConfigError):
        load_config({**GOOD, "order": "cubic"})


def test_tape_spins_nonnegative():
    with pytest.raises(ConfigError, match="tape_spins"):
        load_config({**GOOD, "tape_spins": -1})


def test_dimension_cap_and_override():
    doc = dict(GOOD)
    doc["model"] = {**GOOD["model"], "fock_cutoff": 40}
    with pytest.raises(ConfigError, match="allow_large"):
        load_config(doc)
    big = load_config({**doc, "allow_large": True})
    assert big.model.dim > DIM_CAP
    with pytest.raises(ConfigError, match="true or false"):
        load_config({**doc, "allow_large": "yes"})


def test_load_from_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(GOOD))
    assert load_config(path).scenario == "classify"
    assert load_config(str(path)).model.g == pytest.approx(0.5)

    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(missing)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(binary)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_echo_omits_output_dir_and_nests_model():
    cfg = load_config({**GOOD, "output_dir": "/tmp/somewhere", "seed": 9})
    echo = config_echo(cfg)
    assert "output_dir" not in echo
    assert echo["seed"] == 9
    assert echo["model"]["kind"] == "diagonal"
    # identical runs aimed at different directories produce identical echoes
    other = config_echo(load_config({**GOOD, "seed": 9}))
    assert echo == other


def test_scenario_list_is_closed():
    assert set(SCENARIOS) == {"classify", "evolve", "swap-calibrate",
                              "cnot-demo", "turing-demo", "verify"}
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config({**GOOD, "scenario": "frobnicate"})


def test_general_model_fields_coerced():
    cfg = load_config({
        "scenario": "verify",
        "model": {"kind": "general", "omega_atoms": [1, 1], "omega": 1.0,
                  "g": 0.5, "lam": 0.05, "bath": [[0.9, 0.6]],
                  "fock_cutoff": 1, "bath_cutoff": 1},
    })
    assert cfg.model.omega_atoms == (1.0, 1.0)
    assert cfg.model.bath == ((0.9, 0.6),)
