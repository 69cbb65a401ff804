"""Reproduce the four-cell decoherence-free classification table.

Cells: stationarity and evolution, each judged in the total space (does the
exact state drift against free evolution?) and in the projected space (do
the kinetic eigenvalues move?). Verdicts: DF decoherence-free, PE phase
error only, D decoheres.
"""

from subdyn.classify import CELLS, classify
from subdyn.config import ScenarioConfig
from subdyn.models import ModelSpec, build_model

SPECS = [
    ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, lam=1.0,
              fock_cutoff=2),
    ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
              fock_cutoff=2, diagonal_in_free=True),
    ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
              lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1),
]


def main() -> None:
    header = f"{'model':<12} {'row':<11} " + " ".join(f"{c:<17}" for c in CELLS)
    print(header)
    print("-" * len(header))
    # the grid `subdyn classify` runs on when its config sets no t_grid
    times = ScenarioConfig(scenario="classify", model=SPECS[0]).times()
    reports = [classify(build_model(spec), times) for spec in SPECS]
    for rep in reports:
        cells = " ".join(f"{rep.verdicts[c]:<17}" for c in CELLS)
        print(f"{rep.kind:<12} {rep.interaction_row:<11} {cells}")

    print("\nevidence behind the verdicts:")
    for rep in reports:
        ev = rep.evidence
        print(f"  {rep.kind}:")
        print(f"    population drift (total)    {ev['population_drift']:.3e}")
        print(f"    coherence modulus drift     {ev['coherence_modulus_drift']:.3e}")
        print(f"    population dyad |E|         {ev['population_dyad_shift']:.3e}")
        print(f"    coherence dyad shift        {ev['coherence_dyad_shift']:.3e}")
        print(f"    coherence dyad decay        {ev['coherence_dyad_decay']:.3e}")
    print("\nreading the table: the diagonal model only accumulates phases"
          "\n(PE in the projected evolution cell); the triangular model is"
          "\ndecoherence-free in every cell; the general model decoheres in"
          "\nthe total space while its projected dyads survive with shifted"
          "\nphases.")


if __name__ == "__main__":
    main()
