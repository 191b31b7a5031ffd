"""The forward-evolve / phase-erase / reverse-evolve experiment.

One cycle applies, in order:

    fwd1   evolution under the tau-mobile Hamiltonian H1 for t1
    fwd2   evolution under the upsilon-mobile Hamiltonian H2 for t2
    erase  diagonal phase scramble of one species (skipped on control runs)
    rev2   reverse evolution, upsilon-mobile, duration t2
    rev1   reverse evolution, tau-mobile, duration t1

After rev1 the cycle closes by applying the conjugate of its own phase
pattern E_c.  Without that closure consecutive cycles telescope (each
cycle's forward evolution cancels the previous cycle's reverse), the
diagonal phase patterns merely compose, and N cycles collapse to a single
scramble with no cumulative entropy growth.  The closure stops this only for
the Hamiltonian that moves the erased species: E_c is diagonal over that
species' configs, so it commutes with the Hamiltonian that freezes them.
With upsilon erased, U1 E_c^+ U1^+ = E_c^+, so H1 telescopes across the
cycle boundary and N cycles are U1^+ (prod_c E_c^+ U2^+ E_c U2) U1; with tau
erased, U2^+ E_c U2 = E_c, and H2 cancels around each erase stage.  The
remaining evolutions sit between phase patterns at different circuit depths,
so repetition keeps deepening the scramble until the entanglement entropy
saturates.  The closing conjugate is diagonal and changes none of the rev1
stage's diagnostics.

The state is the coefficient matrix gamma[m, n] over (tau config, upsilon
config), a C-contiguous complex128 array.  Diagnostics are recorded after
every stage.  A stage whose state is a diagonal phase on one species times
an earlier one is derived: that local unitary changes no configuration
probability and no Schmidt weight, so its record is the earlier one with
only the fidelity recomputed.  The erase record is fwd2's; by the identities
above, tau erased, rev2 is E_c times fwd1, and upsilon erased, each fwd1
after cycle 1 is E_{c-1}^+ times the previous rev2 (on control runs too,
with E = 1), a 1·gamma handoff keyed on the read-only array the previous
cycle returned.  A steady cycle so runs three propagations and three
measures.  Without the erase stage the cycle is a unitary round trip back to
its starting state.  Phases are drawn fresh each cycle from (master_seed,
cycle), so a trajectory is a pure function of its configuration.

Two comparison trajectories exist alongside the cycled protocol: continuous
evolution under the full Hamiltonian, and a Trotterized variant that splits
the total time into n alternating (tau-mobile, upsilon-mobile) steps.  The
small-step limit of that variant is generated by the duration-weighted mean
of the two stepwise Hamiltonians (the cross coupling appears in both, so the
sum differs from the full Hamiltonian).

Every propagated stage and comparison step calls ``propagate.evolve``, which
picks its method from the operator alone (see its docstring for the rule), so
the cycles and the Trotter run take the same method on the same operators.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb, hypot, isfinite

import numpy as np

from . import erasure as er
from . import model, observables
from .fock import _PHYSICAL_BYTES, FockBasis, enumerate_basis
from .model import (Hamiltonian, LatticeSpec, ModelParams, build_full,
                    build_h1, build_h2)
from .propagate import _SPECTRAL_PAD, evolve, stage_rule

STAGE_INIT = "init"
STAGE_FWD1 = "fwd1"
STAGE_FWD2 = "fwd2"
STAGE_ERASE = "erase"
STAGE_REV2 = "rev2"
STAGE_REV1 = "rev1"
STAGE_FULL = "full"
STAGE_TROTTER = "trotter"

DOMAIN_WALL = "domain-wall"


@dataclass(frozen=True)
class ProtocolConfig:
    """One run.  Construction checks each range rule of a run not checked by
    its parts' own types, and asks ``propagate.stage_rule`` about every stage
    the run makes, before any basis exists; every such ``ValueError`` reads
    ``"<field>: <rule>"``."""

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
        sites = self.lattice.sites
        for name in ("n_tau", "n_upsilon"):
            if not 0 <= getattr(self, name) <= sites:
                raise ValueError(f"{name}: must be in [0, {sites}]")
        # once the particle numbers are in range: comb refuses a negative one
        dim = comb(sites, self.n_tau) * comb(sites, self.n_upsilon)
        # a run holds up to 11 states: a steady cycle peaks at 10.1 gamma at
        # L=12 and 10.5 at L=10, and near physical memory every stage is
        # Chebyshev or an eigen path whose U is at most 2 gamma
        if 11 * 16 * dim > _PHYSICAL_BYTES:
            raise ValueError(f"sites: a run takes 11 states of {16 * dim} bytes, "
                             f"more than the {_PHYSICAL_BYTES} bytes of physical memory")
        for name in ("u_tau", "u_upsilon"):
            if (n := len(getattr(self.params, name))) != sites:
                raise ValueError(f"{name}: expected {sites} entries, got {n}")
        for name in ("t1", "t2"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name}: must be positive and finite")
        for name in ("cycles", "trotter_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1")
        self._ask_stage_rule(comb(sites, self.n_tau), comb(sites, self.n_upsilon))
        if self.master_seed < 0:
            raise ValueError("master_seed: must be nonnegative")
        if self.erasure.site is not None and not 0 <= self.erasure.site < sites:
            raise ValueError(f"site: must be in [0, {sites})")
        if isinstance(self.initial, str):
            if self.initial != DOMAIN_WALL:
                raise ValueError(f"initial: unknown preset {self.initial!r}")
            return
        if len(self.initial) != dim:
            raise ValueError(f"initial: expected {dim} amplitude pairs, "
                             f"got {len(self.initial)}")
        parts = [x for z in self.initial for x in (z.real, z.imag)]
        if not all(map(isfinite, parts)):
            raise ValueError("initial: amplitudes must be finite")
        # hypot returns inf, with no warning, when the norm overflows
        norm = hypot(*parts)
        if norm == 0.0:
            raise ValueError("initial: amplitudes are all zero")
        if not isfinite(norm):
            raise ValueError("initial: the amplitude norm overflows a float")

    def _ask_stage_rule(self, d_x: int, d_y: int) -> None:
        """Ask ``propagate.stage_rule`` about every stage the run makes: H1
        at t1, H2 at t2 and, with ``full_hamiltonian_run``, the full H at
        both and H1 and H2 at ``run_trotter``'s steps t * cycles /
        trotter_steps, each with a bound on a that needs no basis.  A
        one-body eigenvalue is at most |J| times the lattice's largest
        degree, plus max |u_i| and |u_cross|; a part's half-width is at most
        n times that, the full H's the sum over its two parts.  A refusal
        names the parameter with the largest term if that term alone is
        refused at unit time, else the key of t, or of the larger count for
        a Trotter step."""
        degree = max((sum(i in e for e in self.lattice.edges)
                      for i in range(self.lattice.sites)), default=0)
        p = self.params
        # n * degree first: an int, so a zero count makes the term 0, not nan
        tau, ups = ({f"j_{s}": n * degree * abs(j), f"u_{s}": n * max(map(abs, u)),
                     "u_cross": n * abs(p.u_cross)} for s, n, j, u in (
            ("tau", self.n_tau, p.j_tau, p.u_tau),
            ("upsilon", self.n_upsilon, p.j_upsilon, p.u_upsilon)))
        stages = [("t1", (d_x, d_y), False, tau, self.t1),
                  ("t2", (d_y, d_x), False, ups, self.t2)]
        if self.full_hamiltonian_run:
            full = {**tau, **ups, "u_cross": tau["u_cross"] + ups["u_cross"]}
            count = max(("cycles", "trotter_steps"), key=lambda k: getattr(self, k))
            try:  # as run_trotter computes them
                dt1, dt2 = (t * self.cycles / self.trotter_steps
                            for t in (self.t1, self.t2))
            except OverflowError:
                raise ValueError(f"{count}: must be within a float's range") from None
            stages += [("t1", (d_x, d_y), True, full, self.t1),
                       ("t2", (d_x, d_y), True, full, self.t2),
                       (count, (d_x, d_y), False, tau, dt1),
                       (count, (d_y, d_x), False, ups, dt2)]
        for key, shape, coupled, parts, t in stages:
            if exc := _refusal(shape, coupled, sum(parts.values()), t):
                name = max(parts, key=parts.get)
                name = name if _refusal(shape, coupled, parts[name], 1.0) else key
                raise ValueError(f"{name}: {exc}; a is bounded from the parameters")


def _refusal(shape: tuple, coupled: bool, a: float, t: float) -> ValueError | None:
    """What ``stage_rule`` refuses of a stage of D's ``shape``, in H1's
    layout, whose half-width is at most a, padded as ``_spectral_interval``
    pads and at least 1, the a of a point interval; None if it runs."""
    a = max(1.0, (1 + 2 * _SPECTRAL_PAD) * a)
    try:
        stage_rule(shape, shape[0], coupled, lambda method: a, t)
    except ValueError as exc:
        return exc
    return None


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
    phases: tuple[tuple[int, np.ndarray], ...]


@dataclass
class ProtocolContext:
    """The bases and initial gamma of one configuration; H1 and H2 are built
    on first use, so a run that never reads one never builds it."""

    config: ProtocolConfig
    basis_tau: FockBasis
    basis_upsilon: FockBasis
    initial: np.ndarray
    # (the read-only state run_cycle last returned, next fwd1 state, its report)
    _next_fwd1: tuple | None = field(default=None, init=False, repr=False)

    @cached_property
    def h1(self) -> Hamiltonian:
        return build_h1(self.config.lattice, self.config.params,
                        self.basis_tau, self.basis_upsilon)

    @cached_property
    def h2(self) -> Hamiltonian:
        return build_h2(self.config.lattice, self.config.params,
                        self.basis_tau, self.basis_upsilon)

    def measure(self, state: np.ndarray) -> observables.EntropyReport:
        return observables.measure(state, self.basis_tau, self.basis_upsilon,
                                   self.initial)


def prepare(config: ProtocolConfig) -> ProtocolContext:
    """The bases and initial gamma.  The domain-wall preset packs every
    particle onto the lowest sites: the first vector of each ascending basis.
    Explicit amplitudes list gamma row-major and are normalized."""
    sites = config.lattice.sites
    basis_tau = enumerate_basis(sites, config.n_tau)
    basis_upsilon = enumerate_basis(sites, config.n_upsilon)
    dims = (basis_tau.dim, basis_upsilon.dim)
    if isinstance(config.initial, str):
        initial = np.zeros(dims, dtype=np.complex128)
        initial[0, 0] = 1.0
    else:
        amps = np.asarray(config.initial, dtype=np.complex128)
        # scaled by the largest modulus first, the sum of squares cannot overflow
        amps = amps / np.abs(amps).max()
        initial = (amps / np.linalg.norm(amps)).reshape(dims)
    return ProtocolContext(config, basis_tau, basis_upsilon, initial)


def _phased(ctx: ProtocolContext, state: np.ndarray,
            report: observables.EntropyReport, phases: np.ndarray | None):
    """``state`` times the erased species' ``phases`` (None: 1), and
    ``report`` with only the fidelity recomputed (see the module docstring)."""
    if phases is not None:
        state = er.apply_random_phases(state, ctx.config.erasure.species, phases)
    return state, replace(report, fidelity_to_initial=observables.fidelity(
        ctx.initial, state))


def run_cycle(state: np.ndarray, ctx: ProtocolContext,
              cycle: int) -> tuple[np.ndarray, list[StageRecord],
                                   np.ndarray | None]:
    """One full cycle; returns the new state (read-only), its stage records,
    and the phases applied at the erase stage (None when erasure is disabled).

    With upsilon erased it leaves the next fwd1 state and report in ``ctx``,
    keyed on the returned array: only a call passed that same array takes
    them, and any other state, an equal copy too, takes the full route."""
    cfg = ctx.config
    t0 = (cycle - 1) * 2.0 * (cfg.t1 + cfg.t2)
    records = []
    phases = closing = None
    tau = cfg.erasure.species == model.TAU

    handoff, ctx._next_fwd1 = ctx._next_fwd1, None
    if handoff is not None and handoff[0] is state:
        state, report = handoff[1:]
    else:
        state = evolve(state, ctx.h1, cfg.t1)
        report = ctx.measure(state)
    records.append(StageRecord(cycle, STAGE_FWD1, t0 + cfg.t1, report))
    handoff = (state, report) if tau else None  # fwd1, for a derived rev2

    state = evolve(state, ctx.h2, cfg.t2)
    t_mid = t0 + cfg.t1 + cfg.t2
    report = ctx.measure(state)
    records.append(StageRecord(cycle, STAGE_FWD2, t_mid, report))

    if not cfg.no_erasure_run:
        basis = ctx.basis_tau if tau else ctx.basis_upsilon
        phases = er.erasure_phases(cfg.erasure, basis, cfg.master_seed, cycle)
        closing = -phases
        state, report = _phased(ctx, state, report, phases)
        records.append(StageRecord(cycle, STAGE_ERASE, t_mid, report))

    if tau:  # U2^+ E_c U2 = E_c
        state, report = _phased(ctx, *handoff, phases)
    else:
        state = evolve(state, ctx.h2, -cfg.t2)
        report = ctx.measure(state)
    records.append(StageRecord(cycle, STAGE_REV2, t_mid + cfg.t2, report))
    handoff = None if tau else (state, report)  # rev2, for the next fwd1

    state = evolve(state, ctx.h1, -cfg.t1)
    if phases is not None:  # the closing conjugate (see module docstring)
        state = er.apply_random_phases(state, cfg.erasure.species, closing)
    records.append(StageRecord(cycle, STAGE_REV1, t_mid + cfg.t2 + cfg.t1,
                               ctx.measure(state)))
    state.flags.writeable = False
    if not tau:  # U1 E_c^+ U1^+ = E_c^+
        ctx._next_fwd1 = (state, *_phased(ctx, *handoff, closing))
    return state, records, phases


def run_protocol(config: ProtocolConfig,
                 on_cycle: Callable[[int, np.ndarray], None] | None = None
                 ) -> ProtocolResult:
    """Run all cycles; deterministic given the configuration.  ``on_cycle``,
    when given, is called as ``on_cycle(cycle, state)`` as each cycle ends,
    so a caller can stream the states without the run holding them."""
    ctx = prepare(config)
    state = ctx.initial
    records = [StageRecord(0, STAGE_INIT, 0.0, ctx.measure(state))]
    phase_log = []
    for cycle in range(1, config.cycles + 1):
        state, recs, phases = run_cycle(state, ctx, cycle)
        records.extend(recs)
        if phases is not None:
            phase_log.append((cycle, phases))
        if on_cycle is not None:
            on_cycle(cycle, state)
    return ProtocolResult(tuple(records), state, tuple(phase_log))


def run_full_hamiltonian(config: ProtocolConfig) -> ProtocolResult:
    """Continuous evolution under the full Hamiltonian for the protocol's
    total forward time, with diagnostics at every stage boundary.  It
    builds neither stepwise Hamiltonian."""
    ctx = prepare(config)
    h = build_full(config.lattice, config.params, ctx.basis_tau, ctx.basis_upsilon)
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
    dt1, dt2 = (t * config.cycles / n for t in (config.t1, config.t2))
    h1, h2 = ctx.h1, ctx.h2  # built once, before the first step
    state = ctx.initial
    records = [StageRecord(0, STAGE_INIT, 0.0, ctx.measure(state))]
    for _ in range(n):
        state = evolve(state, h1, dt1)
        state = evolve(state, h2, dt2)
    total = config.cycles * (config.t1 + config.t2)
    records.append(StageRecord(config.cycles, STAGE_TROTTER, total,
                               ctx.measure(state)))
    return ProtocolResult(tuple(records), state, ())

