"""Two-species fermion lattice simulator: stepwise evolution, phase erasure,
and entropy trajectories."""

from .erasure import (ErasureSpec, apply_random_phases, apply_site_phase,
                      draw_phases)
from .fock import FockBasis, enumerate_basis
from .model import (Hamiltonian, LatticeSpec, ModelParams, build_full,
                    build_h1, build_h2)
from .observables import (EntropyReport, entanglement_entropy, fidelity,
                          measure, occupation_density, shannon_entropies)
from .propagate import (ManyBodyState, PropagatorSettings, evolve,
                        evolve_blockwise)
from .protocol import (ProtocolConfig, ProtocolResult, StageRecord,
                       build_initial_state, prepare, run_cycle,
                       run_full_hamiltonian, run_protocol, run_trotter,
                       stepwise_generator)

__all__ = [
    "EntropyReport",
    "ErasureSpec",
    "FockBasis",
    "Hamiltonian",
    "LatticeSpec",
    "ManyBodyState",
    "ModelParams",
    "PropagatorSettings",
    "ProtocolConfig",
    "ProtocolResult",
    "StageRecord",
    "apply_random_phases",
    "apply_site_phase",
    "build_full",
    "build_h1",
    "build_h2",
    "build_initial_state",
    "draw_phases",
    "entanglement_entropy",
    "enumerate_basis",
    "evolve",
    "evolve_blockwise",
    "fidelity",
    "measure",
    "occupation_density",
    "prepare",
    "run_cycle",
    "run_full_hamiltonian",
    "run_protocol",
    "run_trotter",
    "shannon_entropies",
    "stepwise_generator",
]
