"""Two-species fermion lattice simulator: stepwise evolution, phase erasure,
and entropy trajectories."""

from .erasure import ErasureSpec, apply_random_phases, draw_phases
from .fock import FockBasis, enumerate_basis
from .model import (Hamiltonian, LatticeSpec, ModelParams, build_full,
                    build_h1, build_h2)
from .observables import (EntropyReport, entanglement_entropy, fidelity,
                          measure, shannon_entropies)
from .propagate import evolve
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
    "ModelParams",
    "ProtocolConfig",
    "ProtocolResult",
    "StageRecord",
    "apply_random_phases",
    "build_full",
    "build_h1",
    "build_h2",
    "build_initial_state",
    "draw_phases",
    "entanglement_entropy",
    "enumerate_basis",
    "evolve",
    "fidelity",
    "measure",
    "prepare",
    "run_cycle",
    "run_full_hamiltonian",
    "run_protocol",
    "run_trotter",
    "shannon_entropies",
    "stepwise_generator",
]
