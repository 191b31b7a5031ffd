"""The forward-evolve / phase-erase / reverse-evolve experiment.

One cycle applies, in order:

    fwd1   evolution under the tau-mobile Hamiltonian H1 for t1
    fwd2   evolution under the upsilon-mobile Hamiltonian H2 for t2
    erase  diagonal phase scramble of one species (skipped on control runs)
    rev2   reverse evolution, upsilon-mobile, duration t2
    rev1   reverse evolution, tau-mobile, duration t1

After rev1 the cycle closes by applying the conjugate of its own phase
pattern.  This closure matters: without it, consecutive cycles telescope
(each cycle's forward evolution cancels the previous cycle's reverse), the
diagonal phase patterns merely compose, and N cycles collapse to a single
scramble with no cumulative entropy growth.  The closing conjugate sits
between evolutions at different circuit depths, so repetition keeps deepening
the scramble until the entanglement entropy saturates.  It is itself diagonal
and therefore changes none of the recorded diagnostics of the rev1 stage.

The state is the coefficient matrix gamma[m, n] over (tau config, upsilon
config), a C-contiguous complex128 array; each stage returns a new one.
Diagnostics are recorded after every stage; without the erase stage the cycle
is a unitary round trip back to its starting state.  Phases are drawn fresh
each cycle from (master_seed, cycle), so a trajectory is a pure function of
its configuration.

Two comparison trajectories exist alongside the cycled protocol: continuous
evolution under the full Hamiltonian, and a Trotterized variant that splits
the total time into n alternating (tau-mobile, upsilon-mobile) steps.  The
small-step limit of that variant is generated by the duration-weighted mean
of the two stepwise Hamiltonians (the cross coupling appears in both, so the
sum differs from the full Hamiltonian); ``stepwise_generator`` exposes it.

Every stage and comparison step calls ``propagate.evolve``, which picks its
method from the operator alone: the cached block eigendecomposition for H1
and H2 while dim * b**2 <= 2**28 (chains up to L=8, 4+4), Chebyshev for
larger H1 and H2, the full Hamiltonian and the stepwise generator.  So the
cycles and the Trotter run take the same method on the same operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import erasure as er
from . import model, observables
from .fock import FockBasis, enumerate_basis
from .model import Hamiltonian, LatticeSpec, ModelParams
from .propagate import evolve

STAGE_INIT = "init"
STAGE_FWD1 = "fwd1"
STAGE_FWD2 = "fwd2"
STAGE_ERASE = "erase"
STAGE_REV2 = "rev2"
STAGE_REV1 = "rev1"
STAGE_FULL = "full"
STAGE_TROTTER = "trotter"
CYCLE_STAGES = (STAGE_FWD1, STAGE_FWD2, STAGE_ERASE, STAGE_REV2, STAGE_REV1)

DOMAIN_WALL = "domain-wall"


@dataclass(frozen=True)
class ProtocolConfig:
    lattice: LatticeSpec
    n_tau: int
    n_upsilon: int
    params: ModelParams
    t1: float = 2.0
    t2: float = 2.0
    cycles: int = 1
    erasure: er.ErasureSpec = er.ErasureSpec()
    master_seed: int = 0
    initial: str | tuple[complex, ...] = DOMAIN_WALL
    no_erasure_run: bool = False
    full_hamiltonian_run: bool = False
    trotter_steps: int = 1

    def __post_init__(self):
        if not (0 <= self.n_tau <= self.lattice.sites
                and 0 <= self.n_upsilon <= self.lattice.sites):
            raise ValueError("particle numbers must lie in [0, sites]")
        if not (0 < self.t1 < np.inf and 0 < self.t2 < np.inf):
            raise ValueError("stage durations must be positive and finite")
        if self.cycles < 1:
            raise ValueError("cycles must be at least 1")
        if self.trotter_steps < 1:
            raise ValueError("trotter_steps must be at least 1")


@dataclass(frozen=True)
class StageRecord:
    cycle: int
    stage: str
    model_time: float
    report: observables.EntropyReport


@dataclass(frozen=True)
class ProtocolResult:
    records: tuple[StageRecord, ...]
    final_state: np.ndarray
    phases: tuple[tuple[int, tuple[float, ...]], ...]
    cycle_states: tuple[np.ndarray, ...] = ()


@dataclass
class ProtocolContext:
    """Operators and bases prepared once per configuration."""

    config: ProtocolConfig
    basis_tau: FockBasis
    basis_upsilon: FockBasis
    h1: Hamiltonian
    h2: Hamiltonian
    initial: np.ndarray
    _h_full: Hamiltonian | None = field(default=None, repr=False)

    def full_operator(self) -> Hamiltonian:
        if self._h_full is None:
            c = self.config
            self._h_full = model.build_full(c.lattice, c.params,
                                            self.basis_tau, self.basis_upsilon)
        return self._h_full

    def measure(self, state: np.ndarray) -> observables.EntropyReport:
        return observables.measure(state, self.basis_tau, self.basis_upsilon,
                                   self.initial)


def build_initial_state(initial: str | tuple[complex, ...] | np.ndarray,
                        basis_tau: FockBasis,
                        basis_upsilon: FockBasis) -> np.ndarray:
    """gamma of a named preset, or of explicit amplitudes listed row-major
    over gamma and normalized.

    The domain-wall preset packs every particle of both species onto the
    lowest-index sites: a single composite Fock basis vector.
    """
    dims = (basis_tau.dim, basis_upsilon.dim)
    if isinstance(initial, str):
        if initial != DOMAIN_WALL:
            raise ValueError(f"unknown initial-state preset {initial!r}")
        gamma = np.zeros(dims, dtype=np.complex128)
        gamma[basis_tau.rank((1 << basis_tau.particles) - 1),
              basis_upsilon.rank((1 << basis_upsilon.particles) - 1)] = 1.0
        return gamma
    amps = np.asarray(initial, dtype=np.complex128)
    if amps.shape != (dims[0] * dims[1],):
        raise ValueError(
            f"explicit amplitudes have length {amps.shape}, need {dims[0] * dims[1]}"
        )
    # scaled by the largest modulus first, the sum of squares cannot overflow
    peak = np.abs(amps).max(initial=0.0)
    if not 0.0 < peak < np.inf:
        raise ValueError("amplitudes are not normalizable")
    amps = amps / peak
    return (amps / np.linalg.norm(amps)).reshape(dims)


def prepare(config: ProtocolConfig) -> ProtocolContext:
    basis_tau = enumerate_basis(config.lattice.sites, config.n_tau)
    basis_upsilon = enumerate_basis(config.lattice.sites, config.n_upsilon)
    h1 = model.build_h1(config.lattice, config.params, basis_tau, basis_upsilon)
    h2 = model.build_h2(config.lattice, config.params, basis_tau, basis_upsilon)
    initial = build_initial_state(config.initial, basis_tau, basis_upsilon)
    return ProtocolContext(config=config, basis_tau=basis_tau,
                           basis_upsilon=basis_upsilon, h1=h1, h2=h2,
                           initial=initial)


def _erasure_basis(ctx: ProtocolContext) -> FockBasis:
    return ctx.basis_tau if ctx.config.erasure.species == model.TAU \
        else ctx.basis_upsilon


def run_cycle(state: np.ndarray, ctx: ProtocolContext,
              cycle: int) -> tuple[np.ndarray, list[StageRecord],
                                   np.ndarray | None]:
    """One full cycle; returns the new state, its stage records, and the
    phases applied at the erase stage (None when erasure is disabled)."""
    cfg = ctx.config
    t0 = (cycle - 1) * 2.0 * (cfg.t1 + cfg.t2)
    records = []
    phases = None

    state = evolve(state, ctx.h1, cfg.t1)
    records.append(StageRecord(cycle, STAGE_FWD1, t0 + cfg.t1, ctx.measure(state)))

    state = evolve(state, ctx.h2, cfg.t2)
    t_mid = t0 + cfg.t1 + cfg.t2
    records.append(StageRecord(cycle, STAGE_FWD2, t_mid, ctx.measure(state)))

    if not cfg.no_erasure_run:
        phases = er.erasure_phases(cfg.erasure, _erasure_basis(ctx),
                                   cfg.master_seed, cycle)
        state = er.apply_random_phases(state, cfg.erasure.species, phases)
        records.append(StageRecord(cycle, STAGE_ERASE, t_mid, ctx.measure(state)))

    state = evolve(state, ctx.h2, -cfg.t2)
    records.append(StageRecord(cycle, STAGE_REV2, t_mid + cfg.t2, ctx.measure(state)))

    state = evolve(state, ctx.h1, -cfg.t1)
    if phases is not None:
        # close the cycle with the conjugate phases (see module docstring)
        state = er.apply_random_phases(state, cfg.erasure.species, -phases)
    records.append(StageRecord(cycle, STAGE_REV1, t_mid + cfg.t2 + cfg.t1,
                               ctx.measure(state)))
    return state, records, phases


def run_protocol(config: ProtocolConfig,
                 keep_cycle_states: bool = False) -> ProtocolResult:
    """Run all cycles; deterministic given the configuration."""
    ctx = prepare(config)
    state = ctx.initial
    records = [StageRecord(0, STAGE_INIT, 0.0, ctx.measure(state))]
    phase_log = []
    cycle_states = []
    for cycle in range(1, config.cycles + 1):
        state, recs, phases = run_cycle(state, ctx, cycle)
        records.extend(recs)
        if phases is not None:
            phase_log.append((cycle, tuple(float(p) for p in phases)))
        if keep_cycle_states:
            cycle_states.append(state)
    return ProtocolResult(tuple(records), state, tuple(phase_log),
                          tuple(cycle_states))


def run_full_hamiltonian(config: ProtocolConfig) -> ProtocolResult:
    """Continuous evolution under the full Hamiltonian for the protocol's
    total forward time, with diagnostics at every stage boundary."""
    ctx = prepare(config)
    h = ctx.full_operator()
    state = ctx.initial
    records = [StageRecord(0, STAGE_INIT, 0.0, ctx.measure(state))]
    t = 0.0
    for cycle in range(1, config.cycles + 1):
        for dt in (config.t1, config.t2):
            state = evolve(state, h, dt)
            t += dt
            records.append(StageRecord(cycle, STAGE_FULL, t, ctx.measure(state)))
    return ProtocolResult(tuple(records), state, ())


def run_trotter(config: ProtocolConfig) -> ProtocolResult:
    """Alternating (tau-mobile, upsilon-mobile) splitting of the protocol's
    total forward time into n = trotter_steps steps; n = 1 with one cycle
    reproduces a single stepwise forward pass."""
    n = config.trotter_steps
    ctx = prepare(config)
    dt1 = config.t1 * config.cycles / n
    dt2 = config.t2 * config.cycles / n
    state = ctx.initial
    records = [StageRecord(0, STAGE_INIT, 0.0, ctx.measure(state))]
    for _ in range(n):
        state = evolve(state, ctx.h1, dt1)
        state = evolve(state, ctx.h2, dt2)
    total = config.cycles * (config.t1 + config.t2)
    records.append(StageRecord(config.cycles, STAGE_TROTTER, total,
                               ctx.measure(state)))
    return ProtocolResult(tuple(records), state, ())


def stepwise_generator(ctx: ProtocolContext) -> Hamiltonian:
    """Generator of the small-step limit of the alternating scheme: the
    duration-weighted mean of the two stepwise Hamiltonians."""
    t1, t2 = ctx.config.t1, ctx.config.t2
    w1, w2 = t1 / (t1 + t2), t2 / (t1 + t2)
    return Hamiltonian(w1 * ctx.h1.hop_x, w2 * ctx.h2.hop_y,
                       w1 * ctx.h1.D + w2 * ctx.h2.D)
