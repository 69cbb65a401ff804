"""Seeded workload definitions for the subdyn benchmark.

A workload is a deck of operations. Each operation is one CLI scenario run on
a generated config file. An operation's *type* is (scenario, kind, d, order):
the benchmark warms up one config of every type before timing, and weights
per-type means by the deck's designed counts.

Only the standard library is used here, so the benchmark can pin the BLAS
thread count before numpy is imported.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

# Documented classification rows (README "Models" table).
KIND_ROWS = {
    "diagonal": ("DF", "DF", "DF", "PE"),
    "triangular": ("DF", "DF", "DF", "DF"),
    "general": ("D", "D", "DF", "PE"),
}

# General kind: Hilbert dimension d = 4 * (fock_cutoff + 1) * (bath_cutoff + 1) ** modes.
GENERAL_LAYOUT = {8: (0, 1, 1), 16: (1, 1, 1), 32: (1, 2, 1), 48: (2, 2, 1)}
BATH_MODES = ((0.9, 0.6), (0.97, 0.6))

# Interaction scale per kind; each config draws lam from base * [0.8, 1.2],
# a range over which the documented rows hold.
BASE_LAM = {"diagonal": 1.0, "triangular": 1.0, "general": 0.05}
LAM_JITTER = (0.8, 1.2)
ETA_RANGE = (0.02, 0.1)


@dataclasses.dataclass(frozen=True)
class OpType:
    scenario: str
    kind: str
    dim: int
    order: str

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.kind}/d{self.dim}/{self.order}"


@dataclasses.dataclass(frozen=True)
class Op:
    """One generated config: the CLI scenario plus the JSON document it reads."""

    op_type: OpType
    config_id: str
    config: dict

    @property
    def eta(self) -> float:
        return float(self.config.get("eta", 0.0))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Draws (op type, configs of that type per deck cycle, whether eta > 0 is
    # mixed in) for every type in the workload.
    mix: Callable[[random.Random], list[tuple[OpType, int, bool]]]


def model_spec(kind: str, dim: int, rng: random.Random) -> dict:
    lam = BASE_LAM[kind] * rng.uniform(*LAM_JITTER)
    if kind == "general":
        fock, modes, bath_cutoff = GENERAL_LAYOUT[dim]
        return {"kind": "general", "omega_atoms": [1.0, 1.0], "omega": 1.0,
                "g": 0.5, "lam": lam, "bath": [list(m) for m in BATH_MODES[:modes]],
                "fock_cutoff": fock, "bath_cutoff": bath_cutoff}
    spec = {"kind": kind, "omega0": 1.0, "omega": 1.3,
            "g": 0.5 if kind == "diagonal" else 0.4, "lam": lam,
            "fock_cutoff": dim // 2 - 1}
    if kind == "triangular":
        spec["diagonal_in_free"] = True
    return spec


def _etas(count: int, mixed: bool, rng: random.Random) -> list[float]:
    """Half of a type's configs get eta > 0 when mixed, in seeded positions;
    an odd one out draws its side."""
    if not mixed:
        return [0.0] * count
    etas = [0.0] * (count // 2) + [rng.uniform(*ETA_RANGE) for _ in range(count // 2)]
    if count % 2:
        etas.append(rng.choice((0.0, rng.uniform(*ETA_RANGE))))
    rng.shuffle(etas)
    return etas


def interleave(counts: list[int]) -> list[int]:
    """Smooth weighted round robin: every prefix keeps the designed proportions."""
    total = sum(counts)
    credit = [0] * len(counts)
    order = []
    for _ in range(total):
        for i, c in enumerate(counts):
            credit[i] += c
        best = max(range(len(counts)), key=lambda i: credit[i])
        credit[best] -= total
        order.append(best)
    return order


def build_deck(workload: Workload, seed: int) -> tuple[list[Op], dict[str, int]]:
    """One deck cycle, interleaved by weight, and the count of each op type."""
    rng = random.Random(f"{workload.name}:{seed}")
    mix = workload.mix(rng)
    per_type: list[list[Op]] = []
    for t_index, (op_type, count, mixed) in enumerate(mix):
        ops = []
        for k, eta in enumerate(_etas(count, mixed, rng)):
            config = {"scenario": op_type.scenario,
                      "model": model_spec(op_type.kind, op_type.dim, rng),
                      "order": op_type.order, "eta": eta,
                      "seed": rng.randrange(1, 2**31)}
            ops.append(Op(op_type=op_type, config_id=f"t{t_index:02d}-{k:02d}", config=config))
        per_type.append(ops)
    cursor = [0] * len(per_type)
    deck = []
    for t_index in interleave([len(ops) for ops in per_type]):
        deck.append(per_type[t_index][cursor[t_index]])
        cursor[t_index] += 1
    return deck, {op_type.key: count for op_type, count, _ in mix}


def _types(scenarios, kinds, dims, orders):
    return [OpType(s, k, d, o) for s in scenarios for k in kinds for d in dims for o in orders]


KINDS = ("diagonal", "triangular", "general")


# Counts are chosen so that, over the designed mix, the median and the tail
# percentile (about p55-p76 on the ladders, p97.5-p99 on the sweep) each fall
# inside one size class rather than on the edge between two.
SWEEP_TAIL_TYPE = OpType("verify", "triangular", 16, "exact")


def _sweep_count(t: OpType) -> int:
    """On one BLAS thread the sweep's ops fall into three bands: cnot-demo and
    d = 8 swap-calibrate cost 4-9 ms, d = 8 evolve and turing-demo 8-12 ms,
    everything else 12-260 ms. The first band's weight matches the third's,
    so the median sits in the middle of the second band (about p32-p68 of
    the mix) instead of on the 12-18 ms step above it; the tail type holds
    the top 3.3 %."""
    if t == SWEEP_TAIL_TYPE:
        return 8
    if t.scenario == "cnot-demo" or (t.scenario == "swap-calibrate" and t.dim == 8):
        return 8
    if t.scenario == "turing-demo" or (t.scenario == "evolve" and t.dim == 8):
        return 6
    return 2


def _sweep_small_mix(rng):
    types = _types(("classify", "evolve"), KINDS, (8, 16), ("exact", "1", "2"))
    types += _types(("swap-calibrate", "verify", "cnot-demo", "turing-demo"), KINDS, (8, 16),
                    ("exact",))
    return [(t, _sweep_count(t), t.order != "exact") for t in types]


def _ladder_exact_mix(rng):
    mix = []
    for kind in ("general", "triangular"):
        mix += [(OpType("classify", kind, 32, "exact"), 4, False),
                (OpType("classify", kind, 48, "exact"), 1, False),
                (OpType("swap-calibrate", kind, 32, "exact"), 12, False),
                (OpType("evolve", kind, 32, "exact"), 1, False)]
    mix.append((OpType("verify", "diagonal", 32, "exact"), 1, False))
    return mix


def _ladder_perturbative_mix(rng):
    # Order 2 holds the median and the tail: order 1 is a third of the mix,
    # so both stay inside the order-2 band for any run of 16 ops or more.
    mix = []
    for kind in KINDS:
        mix += [(OpType("classify", kind, 32, "1"), 3, True),
                (OpType("classify", kind, 32, "2"), 6, True)]
    return mix


WORKLOADS = {w.name: w for w in (
    Workload("sweep-small",
             "everyday sweep at d <= 16: per-call overhead, config, evidence loop and report "
             "writing dominate, dense Liouville work does not",
             _sweep_small_mix),
    Workload("ladder-exact",
             "exact order at d = 32 and 48: Liouville materialisation (kron, commutator "
             "superop, d^2 x d^2 eigh/expm, verify products) dominates time and RSS",
             _ladder_exact_mix),
    Workload("ladder-perturbative",
             "orders 1 and 2 at d = 32: the dense perturbative columns and v1 @ c dominate; "
             "the exact route does no work",
             _ladder_perturbative_mix),
)}
