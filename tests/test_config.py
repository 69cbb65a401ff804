"""Strict config parsing: typos rejected with suggestions, oversize runs refused."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from subdyn import config as config_module
from subdyn import subdynamics
from subdyn.config import (
    SCENARIOS,
    ConfigError,
    config_echo,
    load_config,
    read_config,
)
from subdyn.runner import run

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
    assert load_config({**GOOD, "order": "1", "eta": 0.2}).eta == pytest.approx(0.2)


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
    ]
    for doc, message in cases:
        with pytest.raises(ConfigError, match=message):
            load_config(doc)


def test_order_normalized_and_validated():
    assert load_config({**GOOD, "order": 1}).order == "1"
    assert load_config({**GOOD, "order": "2"}).order == "2"
    with pytest.raises(ConfigError):
        load_config({**GOOD, "order": "cubic"})


def test_seed_nonnegative():
    # numpy's generator refuses a negative seed; the document is rejected first
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        load_config({**GOOD, "scenario": "cnot-demo", "seed": -1})
    assert load_config({**GOOD, "seed": 0}).seed == 0


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_diagonal_reference_state_needs_a_field_quantum(scenario):
    # classify, evolve and verify start from the diagonal reference state,
    # which puts one quantum in the field; the other scenarios never read it
    doc = {"scenario": scenario, "model": {"kind": "diagonal", "fock_cutoff": 0}}
    if scenario in ("classify", "evolve", "verify"):
        with pytest.raises(ConfigError, match="fock_cutoff >= 1"):
            load_config(doc)
    else:
        assert load_config(doc).model.fock_cutoff == 0


def diagonal_doc(dim, **extra):
    """GOOD's diagonal model at Hilbert dimension dim (fock_cutoff dim/2 - 1)."""
    return {**GOOD, "model": {**GOOD["model"], "fock_cutoff": dim // 2 - 1}, **extra}


def general_doc(dim, **extra):
    """The general model with two bath modes at Hilbert dimension dim (fock_cutoff dim/16 - 1)."""
    return {**GOOD, "model": {
        "kind": "general", "omega_atoms": [1.0, 1.0], "omega": 1.0, "g": 0.5, "lam": 0.05,
        "bath": [[0.9, 0.6], [0.97, 0.6]], "fock_cutoff": dim // 16 - 1, "bath_cutoff": 1},
        **extra}


def test_dimension_cap_and_override():
    # order 2 at d = 2^16 and eta > 0 holds 16 * 25 d^2 bytes of d x d
    # arrays, about 1.6 TiB: refused everywhere
    with pytest.raises(ConfigError, match=r"order 2.*estimated .* MiB.*budget of .* MiB"):
        load_config(diagonal_doc(2**16, order="2", eta=0.05))
    # the run the old fixed cap of d = 64 refused needs a few MiB
    assert load_config(diagonal_doc(82)).model.dim == 82
    # there is no override: the old key is a typo like any other
    with pytest.raises(ConfigError, match="unknown config key 'allow_large'"):
        load_config(diagonal_doc(82, allow_large=True))


def test_memory_budget_is_half_of_physical_memory(monkeypatch):
    cfg = load_config(diagonal_doc(82))
    estimate = config_module._check_memory(cfg)
    # a machine whose half memory is one byte short of the estimate refuses it
    pages = {"SC_PHYS_PAGES": 2 * (estimate - 1), "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(config_module.os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigError, match="budget"):
        load_config(diagonal_doc(82))
    pages["SC_PHYS_PAGES"] = 2 * estimate
    assert load_config(diagonal_doc(82)).model.dim == 82


def test_memory_estimate_counts_steps_and_order_two_only_where_run():
    est = config_module._check_memory
    d = 16
    # d x d factors, one 2^15-entry block of the time grid and the grid
    # itself, two entries a step; exact classify holds only the eigensystem
    # of H, and orders 1 and 2 their plane factors next to the eigensystem
    # of H_f on the levels the canonical ket touches
    base = est(load_config(diagonal_doc(d)))
    assert base == 16 * (12 * d**2 + 2 * 2**15 + 2 * 101)
    perturbative = base + 16 * 6 * d**2
    assert est(load_config(diagonal_doc(d, order="1"))) == perturbative
    # order 2 holds d x d arrays at eta = 0 and at eta > 0 gathers over
    # chunks of 2^15 pairs, a kernel and its square in reused buffers next
    # to numpy's broadcast buffers, and pair lists of at most d^2;
    # the diagonal interaction gathers nothing
    assert est(load_config(diagonal_doc(d, order="2"))) == perturbative
    assert est(load_config(diagonal_doc(d, order="2", eta=0.05))) == perturbative
    general = {**GOOD, "order": "2", "eta": 0.05, "model": {
        "kind": "general", "omega_atoms": [1.0, 1.0], "omega": 1.0, "g": 0.5, "lam": 0.05,
        "bath": [[0.9, 0.6]], "fock_cutoff": 1, "bath_cutoff": 1}}
    assert est(load_config(general)) == perturbative + 16 * (2**15 + d**2)
    hermitian = {**diagonal_doc(64, order="2", eta=0.05),
                 "model": {**GOOD["model"], "kind": "triangular", "fock_cutoff": 31}}
    assert est(load_config(hermitian)) == 16 * (18 * 64**2 + 2 * 2**15 + 2 * 101)
    hermitian["model"]["hermitian_variant"] = True
    assert est(load_config(hermitian)) == 16 * (18 * 64**2 + 3 * 2**15 + 64**2 + 2 * 101)
    # from d = 182 the block term is 2 d^2, a block of a walk over all d
    # levels; the canonical ket's walk over the |S| <= d / 2 levels it
    # touches holds less
    assert est(load_config(diagonal_doc(256))) == 16 * (14 * 256**2 + 2 * 101)
    # classify pays two entries a step; evolve's fidelity rows, times and
    # traces 10, and its kinetic check 2 d^2 more than classify's 12 at the
    # exact order and 20 d^2 in all at orders 1 and 2
    assert est(load_config(diagonal_doc(d, t_grid=[0.0, 1.0, 1001]))) == base + 16 * 2 * 900
    evolve = base + 16 * (2 * d**2 + 10 * 1001 - 2 * 101)
    assert est(load_config(diagonal_doc(d, scenario="evolve", t_grid=[0.0, 1.0, 1001]))) \
        == evolve
    assert est(load_config(diagonal_doc(d, scenario="evolve", order="1",
                                        t_grid=[0.0, 1.0, 1001]))) == evolve + 16 * 6 * d**2
    # verify runs the exact order, holds 20 d^2 and one entry a step;
    # swap-calibrate reads no time grid
    verify = base + 16 * (8 * d**2 - 101)
    assert est(load_config(diagonal_doc(d, scenario="verify"))) == verify
    assert est(load_config(diagonal_doc(d, scenario="swap-calibrate"))) == verify - 16 * 101


@pytest.mark.parametrize("scenario", ["classify", "evolve"])
@pytest.mark.parametrize("model", [
    {"kind": "diagonal", "omega0": 1.0, "omega": 1.3, "g": 0.5, "fock_cutoff": 3},
    {"kind": "triangular", "omega0": 1.0, "omega": 1.3, "g": 0.4, "fock_cutoff": 3},
    {"kind": "triangular", "omega0": 1.0, "omega": 1.3, "g": 0.4, "fock_cutoff": 3,
     "diagonal_in_free": True},
    {"kind": "triangular", "omega0": 1.0, "omega": 1.3, "g": 0.4, "lam": 0.3, "fock_cutoff": 3,
     "hermitian_variant": True},
    {"kind": "general", "omega_atoms": [1.0, 1.0], "omega": 1.0, "g": 0.5, "lam": 0.05,
     "bath": [[0.9, 0.6]], "fock_cutoff": 1, "bath_cutoff": 1},
], ids=["diagonal", "triangular", "triangular_free", "triangular_hermitian", "general"])
def test_one_sided_interaction_gathers_no_pair(monkeypatch, scenario, model):
    # _check_memory counts the gather term only where the model is not
    # one-sided: a one-sided model's gather must weigh no pair at all
    pairs = []
    gather = subdynamics._pair_sums

    def counted(eps, eta, left, right, *args, **kwargs):
        pairs.append(np.count_nonzero(left) * np.count_nonzero(right))
        return gather(eps, eta, left, right, *args, **kwargs)

    monkeypatch.setattr(subdynamics, "_pair_sums", counted)
    cfg = load_config({"scenario": scenario, "order": "2", "eta": 0.05,
                       "t_grid": [0.0, 1.0, 11], "model": model})
    run(cfg)
    assert pairs
    assert (sum(pairs) == 0) == cfg.model.one_sided_interaction


def test_order_two_gather_adds_nothing_to_the_estimate_at_d640(monkeypatch):
    # from d = 314 the gather's chunks and pair lists fit in the time-grid
    # block term, so eta > 0 costs what eta = 0 does on the general kind,
    # which gathers (load_config only: no run)
    pages = {"SC_PHYS_PAGES": 2**40 // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(config_module.os, "sysconf", pages.__getitem__)
    general = {"kind": "general", "omega_atoms": [1.0, 1.0], "omega": 1.0, "g": 0.5,
               "lam": 0.05, "bath": [[0.9, 0.6]], "fock_cutoff": 79, "bath_cutoff": 1}
    estimates = {}
    for scenario in ("classify", "evolve"):
        for eta in (0.0, 0.05):
            cfg = load_config({"scenario": scenario, "order": "2", "eta": eta, "model": general})
            assert cfg.model.dim == 640
            estimates[scenario, eta] = config_module._check_memory(cfg)
        assert estimates[scenario, 0.05] == estimates[scenario, 0.0]


def _traced_peak(cfg) -> int:
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# config._check_memory is fitted to tracemalloc peaks of runner.run over 101
# steps at d = 256 and 512 on the diagonal, the Hermitian triangular and the
# general kind (two bath modes), in units of 16 d^2 bytes, against the
# estimate's q + 2 there: classify 10.0 at the exact order (14), 12.0 at
# order 1, 16.0-16.1 at order 2 and 18.0-18.6 at eta = 0.05 (20); evolve
# 12.0-15.5 at the exact order (16), 13.0-17.5 at order 1, 18.0-21.5 at
# order 2 and 20.0-21.5 at eta = 0.05 (22); verify 13.0-16.2 and
# swap-calibrate 13.6 (22). The peaks of the cases below, in MiB, with the
# estimate in brackets: 64-2 1.08 (2.13), 64-2-eta 1.20 (2.13), 82-exact
# 1.14 (2.23), 64-classify-10001-steps 1.30 (2.06), 64-evolve-10001-steps
# 1.86 (3.40), general-512-evolve-2-eta 86.1 (88.0).
MEMORY_CASES = {f"{dim}-{order}": diagonal_doc(dim, order=order)
                for dim, order in [(16, "exact"), (16, "1"), (16, "2"), (32, "exact"),
                                   (32, "1"), (32, "2"), (48, "2"), (64, "2"), (82, "exact")]}
# order 2 at eta > 0 gathers the dyad-resolvent remainder: the gather term
MEMORY_CASES.update({f"{dim}-2-eta": diagonal_doc(dim, order="2", eta=0.05) for dim in (16, 64)})
# a long time grid: classify and evolve walk it in blocks
MEMORY_CASES.update({f"64-{scenario}-10001-steps": diagonal_doc(
    64, scenario=scenario, t_grid=[0.0, 10.0, 10001]) for scenario in ("classify", "evolve")})
# the general kind gathers kappa's pairs at eta > 0: in two chunks at
# d = 32 and in seven at d = 48
MEMORY_CASES.update({f"general-{dim}-2-eta": general_doc(dim, order="2", eta=0.05)
                     for dim in (32, 48)})
# evolve at order 2 peaks in its kinetic check, where the decomposition's
# eight factors meet the flow of the canonical ket and two projections
MEMORY_CASES["general-512-evolve-2-eta"] = general_doc(512, scenario="evolve", order="2",
                                                       eta=0.05)
TIGHT_MEMORY_CASES = ("64-2", "64-2-eta", "82-exact", "64-classify-10001-steps",
                      "64-evolve-10001-steps")


@pytest.mark.parametrize("case", list(MEMORY_CASES))
def test_memory_estimate_bounds_traced_peak(case):
    cfg = load_config(MEMORY_CASES[case])
    estimate = config_module._check_memory(cfg)
    peak = _traced_peak(cfg)
    assert peak <= estimate
    if case in TIGHT_MEMORY_CASES:
        # tight enough not to refuse runs that fit
        assert estimate <= 2 * peak


def test_order_two_at_d128_fits_a_7_gb_machine(monkeypatch):
    # order 2 needs about 7 MiB at d = 128, where the dense
    # columns and rows took 16 * 4 * 128^4 bytes, about 17 GiB
    pages = {"SC_PHYS_PAGES": 7 * 2**30 // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(config_module.os, "sysconf", pages.__getitem__)
    cfg = load_config(diagonal_doc(128, order="2"))
    assert cfg.model.dim == 128 and cfg.order == "2"
    assert config_module._check_memory(cfg) < 2**27


def test_long_time_grid_at_d128_fits_a_7_gb_machine(monkeypatch):
    # the time grid is walked in blocks: 100,001 steps add 16 bytes each,
    # where a steps x d^2 exponent table took 16 * 100,033 * 128^2 bytes, about 26 GB
    pages = {"SC_PHYS_PAGES": 7 * 2**30 // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(config_module.os, "sysconf", pages.__getitem__)
    cfg = load_config(diagonal_doc(128, t_grid=[0.0, 10.0, 100001]))
    assert cfg.model.dim == 128 and cfg.t_grid[2] == 100001
    assert config_module._check_memory(cfg) < 2**24


def test_load_from_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(GOOD))
    assert load_config(read_config(path)).scenario == "classify"
    assert load_config(read_config(str(path))).model.g == pytest.approx(0.5)

    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(read_config(missing))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(read_config(binary))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(read_config(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(read_config(arr))


# keys a scenario document may not set, each with a value of the right type
REMOVED_KEYS = {"output_dir": "elsewhere", "t_swap": 1.0, "tape_spins": 2,
                "rotation_angle": 0.8, "shear_strength": 0.4}


@pytest.mark.parametrize("key", list(REMOVED_KEYS))
def test_output_dir_is_an_unknown_key(key):
    # where a run writes is the caller's choice, not part of the experiment;
    # the gate and Turing experiments are constants of the runner
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_config({**GOOD, key: REMOVED_KEYS[key]})


def test_echo_nests_model():
    echo = config_echo(load_config({**GOOD, "seed": 9}))
    assert echo["seed"] == 9
    assert echo["model"]["kind"] == "diagonal"
    # the echo holds what dataclasses.asdict gives, without its deep copy
    cfg = load_config(general_doc(32, order="2", eta=0.05))
    assert config_echo(cfg) == dataclasses.asdict(cfg)


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
