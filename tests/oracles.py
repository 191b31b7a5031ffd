"""Independent reference constructions, shared by the test suite and by
``scripts/calibrate_saturation.py``, the brute-force run that calibrates
acceptance criterion 4.  Nothing here imports tsim.

Everything here is deliberately built the slow, explicit way: creation and
annihilation matrices on the full 2^L one-species space, restricted to a
fixed particle-number sector per species, then term-by-term Kronecker
products of those sector matrices for the two-species Hamiltonians; one
sparse single-species sector Hamiltonian is built mask by mask from the same
Jordan-Wigner strings, for lattices where 2^L dense matrices are too slow.
No code is shared with the package paths under test; ``to_dense`` only lays
out a package operator's own matrices densely, for comparison with these.
The trajectory reference, ``Trajectory``, runs the whole protocol from its
specification, every stage by a dense ``expm``: its records, phases and
states are what ``test_protocol.test_runs_match_the_reference`` expects,
and its one-cycle step, ``cycle_states``, is also the calibration's cycle.
Criterion 4's monotone rule, ``smoothed_monotone``, is shared the same way.

Term order matters for the entry-identical comparisons: tau hops per edge,
upsilon hops per edge, tau potential per site, upsilon potential per site,
cross coupling per site — the same accumulation order the builders use.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import stdtrit

# Family-wise level of criterion 4's "never decreases" check.  Neither the
# paper nor the README fixes one; this is the choice made here, the same 1%
# that criterion 3 uses.
MONOTONE_LEVEL = 0.01


def annihilation_matrix(sites: int, site: int) -> np.ndarray:
    """c_site on the full 2^sites space, with the low-bit-first parity string."""
    dim = 1 << sites
    out = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        if (mask >> site) & 1:
            below = mask & ((1 << site) - 1)
            sign = -1.0 if bin(below).count("1") % 2 else 1.0
            out[mask ^ (1 << site), mask] = sign
    return out


def number_matrix(sites: int, site: int) -> np.ndarray:
    dim = 1 << sites
    out = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        if (mask >> site) & 1:
            out[mask, mask] = 1.0
    return out


def _hop_matrix(sites, edges, j):
    dim = 1 << sites
    hop = np.zeros((dim, dim), dtype=np.complex128)
    for i, k in edges:
        ci, ck = annihilation_matrix(sites, i), annihilation_matrix(sites, k)
        hop += j * (ci.conj().T @ ck)
        hop += j * (ck.conj().T @ ci)
    return hop


def hop_sign(mask: int, i: int, j: int) -> int:
    """Fermionic parity sign for a hop between sites i and j of ``mask``:
    -1 when an odd number of sites strictly between the endpoints is
    occupied; the endpoints themselves do not contribute."""
    if i > j:
        i, j = j, i
    between = (1 << j) - (1 << (i + 1))
    return -1 if bin(mask & between).count("1") & 1 else 1


def sector_masks(sites: int, particles: int) -> list[int]:
    return sorted(
        sum(1 << i for i in occ)
        for occ in itertools.combinations(range(sites), particles)
    )


def sector_hamiltonian(sites, edges, n_tau, n_upsilon, j_tau, j_upsilon,
                       u_tau, u_upsilon, u_cross, terms=None) -> np.ndarray:
    """Term-by-term Hamiltonian on the (n_tau, n_upsilon) sector, accumulated
    one per-site term at a time so diagonal rounding matches scalar
    accumulation.

    Each species conserves its particle number, so every 2^sites one-species
    factor is restricted to its sector before the Kronecker product; the
    result is entry for entry the 4^sites product restricted to the sector.
    Composite index m*d_y + n over ascending masks, as in the package.
    """
    if terms is None:
        terms = ("hop_tau", "hop_upsilon", "u_tau", "u_upsilon", "cross")
    sel_x, sel_y = sector_masks(sites, n_tau), sector_masks(sites, n_upsilon)

    def tau(a):
        return np.kron(a[np.ix_(sel_x, sel_x)],
                       np.eye(len(sel_y), dtype=np.complex128))

    def upsilon(a):
        return np.kron(np.eye(len(sel_x), dtype=np.complex128),
                       a[np.ix_(sel_y, sel_y)])

    full = np.zeros((len(sel_x) * len(sel_y),) * 2, dtype=np.complex128)
    if "hop_tau" in terms:
        full += tau(_hop_matrix(sites, edges, j_tau))
    if "hop_upsilon" in terms:
        full += upsilon(_hop_matrix(sites, edges, j_upsilon))
    if "u_tau" in terms:
        for i in range(sites):
            full += u_tau[i] * tau(number_matrix(sites, i))
    if "u_upsilon" in terms:
        for i in range(sites):
            full += u_upsilon[i] * upsilon(number_matrix(sites, i))
    if "cross" in terms:
        for i in range(sites):
            n_i = number_matrix(sites, i)
            full += u_cross * np.kron(n_i[np.ix_(sel_x, sel_x)],
                                      n_i[np.ix_(sel_y, sel_y)])
    return full


def to_dense(h) -> np.ndarray:
    """A package ``Hamiltonian`` (hop_x, hop_y, D) as a dense matrix over
    the flat composite index k = m*d_y + n."""
    d_x, d_y = h.D.shape
    out = np.diag(h.D.ravel())
    if h.hop_x is not None:
        out += np.kron(hop_to_dense(h.hop_x), np.eye(d_y))
    if h.hop_y is not None:
        out += np.kron(np.eye(d_x), hop_to_dense(h.hop_y))
    return out


def hop_entries(hop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, columns, values) of a package hop's stored entries, read
    off its compressed sparse rows (indptr, indices, data, shape)."""
    rows = np.repeat(np.arange(hop.shape[0]), np.diff(hop.indptr))
    return rows, hop.indices, hop.data


def hop_to_dense(hop) -> np.ndarray:
    """A package hop as a dense matrix; entries that share a row and a
    column add up."""
    out = np.zeros(hop.shape)
    rows, cols, vals = hop_entries(hop)
    np.add.at(out, (rows, cols), vals)
    return out


def species_sector_hamiltonian(sites, edges, particles, j, u) -> np.ndarray:
    """One species with hopping j and per-site potential u, restricted to
    ``particles`` particles over ascending masks.  With u = base potential +
    u_cross * occupancy of a frozen configuration of the other species, this
    is one diagonal block of a stepwise Hamiltonian."""
    h = _hop_matrix(sites, edges, j)
    for i in range(sites):
        h += u[i] * number_matrix(sites, i)
    sel = sector_masks(sites, particles)
    return h[np.ix_(sel, sel)]


def frozen_potential(u, u_cross, frozen) -> list[float]:
    """u plus u_cross on each site that the frozen config ``frozen`` fills:
    with it, :func:`species_sector_hamiltonian` is that config's block."""
    return [u_i + u_cross * ((frozen >> i) & 1) for i, u_i in enumerate(u)]


def stepwise_spectral_extremes(sites, edges, n_mobile, n_frozen, j, u,
                               u_cross) -> tuple[float, float]:
    """Lowest and highest eigenvalue over all diagonal blocks of a stepwise
    Hamiltonian: one :func:`species_sector_hamiltonian` block per config of
    the frozen species, with hopping j and that config's
    :func:`frozen_potential`, each by dense ``eigvalsh``."""
    lo, hi = np.inf, -np.inf
    for frozen in sector_masks(sites, n_frozen):
        w = np.linalg.eigvalsh(species_sector_hamiltonian(
            sites, edges, n_mobile, j, frozen_potential(u, u_cross, frozen)))
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    return lo, hi


def sparse_species_hamiltonian(sites, edges, particles, j, u) -> sp.csr_array:
    """:func:`species_sector_hamiltonian` built sparse, for lattices too
    large for 2^sites dense matrices: every mask of the sector gets the hop
    c_dst^dagger c_src along each edge in both directions, signed by the
    Jordan-Wigner strings of c_src on the mask and of c_dst^dagger on the
    mask with src emptied, plus the potential of its occupied sites."""
    masks = [m for m in range(1 << sites) if bin(m).count("1") == particles]
    index = {m: r for r, m in enumerate(masks)}
    rows, cols, vals = [], [], []
    for col, mask in enumerate(masks):
        rows.append(col)
        cols.append(col)
        vals.append(sum(u[i] for i in range(sites) if (mask >> i) & 1))
        for a, b in edges:
            for dst, src in ((a, b), (b, a)):
                if not (mask >> src) & 1 or (mask >> dst) & 1:
                    continue
                emptied = mask ^ (1 << src)
                below = (bin(mask & ((1 << src) - 1)).count("1")
                         + bin(emptied & ((1 << dst) - 1)).count("1"))
                rows.append(index[emptied | (1 << dst)])
                cols.append(col)
                vals.append(-j if below % 2 else j)
    return sp.csr_array((vals, (rows, cols)), shape=(len(masks), len(masks)))


def two_site_hop_amplitudes(j: float, t: float) -> tuple[complex, complex]:
    """Closed form for H = [[0, J], [J, 0]] starting from (1, 0):
    amplitudes (cos Jt, -i sin Jt)."""
    return np.cos(j * t), -1j * np.sin(j * t)


def shannon(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-300]
    s = float(-(p * np.log(p)).sum())
    # clamp a roundoff sum a few ulps below 0, and -0.0, as
    # observables._entropy does; an infinite p still gives -inf
    return 0.0 if -np.inf < s <= 0.0 else s


def entanglement_from_vector(vec: np.ndarray, d_x: int, d_y: int) -> float:
    s = np.linalg.svd(vec.reshape(d_x, d_y), compute_uv=False)
    return shannon(s**2)


def densities(gamma: np.ndarray, masks_tau, masks_upsilon,
              sites: int) -> tuple[list[float], list[float]]:
    """Per-site occupancies of each species, summed configuration by
    configuration over the bits of the masks."""
    tau, upsilon = [0.0] * sites, [0.0] * sites
    for m, x in enumerate(masks_tau):
        for n, y in enumerate(masks_upsilon):
            p = abs(gamma[m, n]) ** 2
            for i in range(sites):
                tau[i] += p * ((x >> i) & 1)
                upsilon[i] += p * ((y >> i) & 1)
    return tau, upsilon


H1_TERMS = ("hop_tau", "u_tau", "cross")
H2_TERMS = ("hop_upsilon", "u_upsilon", "cross")


@lru_cache(maxsize=16)
def propagator(model, terms, t) -> np.ndarray:
    """expm(-i t H), read-only, for H = sector_hamiltonian(*model,
    terms=terms); the last 16 are kept, for runs that share a model."""
    u = expm(-1j * t * sector_hamiltonian(*model, terms=terms))
    u.flags.writeable = False
    return u


def stage_propagators(model, t1, t2) -> tuple:
    """(U1, U2, U2^+, U1^+): the propagators of fwd1, fwd2, rev2 and rev1."""
    u1, u2 = propagator(model, H1_TERMS, t1), propagator(model, H2_TERMS, t2)
    return u1, u2, u2.conj().T, u1.conj().T


def cycle_states(psi, props, d_y, axis, phases) -> list:
    """The flat states after fwd1, fwd2, erase (none if ``phases`` is None),
    rev2 and rev1 of one cycle from psi: erase scales each config of the
    species on gamma's ``axis`` by exp(i phase), rev1 ends by undoing that."""
    def phased(v, f):
        return (v.reshape(-1, d_y) * (f[:, None] if axis == 0 else f)).reshape(-1)

    states = [props[0] @ psi]
    states.append(props[1] @ states[-1])
    if phases is not None:
        states.append(phased(states[-1], np.exp(1j * phases)))
    states.append(props[2] @ states[-1])
    states.append(props[3] @ states[-1])
    if phases is not None:
        states[-1] = phased(states[-1], np.exp(1j * phases).conj())
    return states


class Trajectory:
    """The runs of ``cfg``, a ``ProtocolConfig`` read by field name; a record
    is (cycle, stage, model time, dict of ``EntropyReport``'s seven fields)."""

    def __init__(self, cfg):
        self.cfg, p, sites = cfg, cfg.params, cfg.lattice.sites
        self.model = (sites, cfg.lattice.edges, cfg.n_tau, cfg.n_upsilon,
                      p.j_tau, p.j_upsilon, p.u_tau, p.u_upsilon, p.u_cross)
        self.masks = sector_masks(sites, cfg.n_tau), sector_masks(sites, cfg.n_upsilon)
        self.dims = tuple(map(len, self.masks))
        # the domain wall packs both species on the lowest sites: mask 0 of each
        amps = (np.eye(1, self.dims[0] * self.dims[1])[0]
                if isinstance(cfg.initial, str) else np.array(cfg.initial))
        self.initial = amps / np.linalg.norm(amps)

    def record(self, cycle, stage, t, psi) -> tuple:
        g = psi.reshape(self.dims)
        p = np.abs(g) ** 2
        tau, upsilon = densities(g, *self.masks, self.cfg.lattice.sites)
        return cycle, stage, t, dict(
            s_tau=shannon(p.sum(axis=1)), s_upsilon=shannon(p.sum(axis=0)),
            s_total=shannon(p.ravel()), s_ent=entanglement_from_vector(psi, *self.dims),
            densities_tau=tau, densities_upsilon=upsilon,
            fidelity_to_initial=abs(np.vdot(self.initial, psi)) ** 2)

    def phases(self, cycle) -> np.ndarray:
        """A cycle's erase phases: site-phase is theta times the site's
        occupation, random-phase uniform on [0, 2 pi) from PCG64 seeded by
        SeedSequence(master_seed, spawn_key=(cycle,))."""
        spec, masks = self.cfg.erasure, self.masks[self.cfg.erasure.species != "tau"]
        if spec.kind == "site-phase":
            return spec.theta * np.array([(m >> spec.site) & 1 for m in masks])
        seq = np.random.SeedSequence(self.cfg.master_seed, spawn_key=(cycle,))
        return np.random.Generator(np.random.PCG64(seq)).random(len(masks)) * 2.0 * np.pi

    def cycles(self, state=None, cycles=None) -> tuple:
        """The records, each erase's (cycle, phases) and each cycle's gamma
        from gamma ``state`` over ``cycles``; by default from the initial
        state, with its init record, over all cycles."""
        c = self.cfg
        stages = [("fwd1", c.t1), ("fwd2", c.t2), ("erase", 0.0), ("rev2", c.t2),
                  ("rev1", c.t1)]
        if c.no_erasure_run:
            del stages[2]
        psi = self.initial if state is None else state.ravel()
        records = [] if state is not None else [self.record(0, "init", 0.0, psi)]
        phase_log, returned = [], []
        for cycle in cycles or range(1, c.cycles + 1):
            phases = None if c.no_erasure_run else self.phases(cycle)
            if phases is not None:
                phase_log.append((cycle, phases))
            t = 2 * (cycle - 1) * (c.t1 + c.t2)
            for (stage, dt), psi in zip(stages, cycle_states(
                    psi, stage_propagators(self.model, c.t1, c.t2), self.dims[1],
                    int(c.erasure.species != "tau"), phases), strict=True):
                t += dt
                records.append(self.record(cycle, stage, t, psi))
            returned.append(psi.reshape(self.dims))
        return records, phase_log, returned

    def comparison(self, trotter=False) -> tuple:
        """The records and final gamma of the full-H run, a record after each
        t1 and t2 step, or of the Trotter run: trotter_steps H1 and H2 steps."""
        c, psi = self.cfg, self.initial
        n = c.trotter_steps if trotter else c.cycles
        steps = (((H1_TERMS, c.t1 * c.cycles / n), (H2_TERMS, c.t2 * c.cycles / n))
                 if trotter else ((None, c.t1), (None, c.t2)))
        records, t = [self.record(0, "init", 0.0, psi)], 0.0
        for k in range(1, n + 1):
            for terms, dt in steps:
                psi, t = propagator(self.model, terms, dt) @ psi, t + dt
                if not trotter:
                    records.append(self.record(k, "full", t, psi))
        if trotter:
            records.append(self.record(c.cycles, "trotter", c.cycles * (c.t1 + c.t2), psi))
        return records, psi.reshape(self.dims)


def smoothed_monotone(curves):
    """Decide whether the seed-averaged curve, smoothed over 5 points, never
    decreases by more than the seed ensemble can resolve.

    Once an entropy curve saturates, consecutive smoothed values differ by
    zero-mean sampling noise (of order 5e-3 on the desk), so a zero-tolerance
    "never decreases" fails for any realization of these dynamics.  A
    decrease therefore counts only when the ensemble resolves it.

    ``curves`` holds one curve per row, one row per seed.  Each seed's curve
    is smoothed and differenced; the mean of those per-seed differences is
    the difference of the smoothed mean curve.  A mean difference is a
    decrease when it lies more than z standard errors of the mean below zero,
    where z is the one-sided Student-t quantile (n_seeds - 1 degrees of
    freedom) at MONOTONE_LEVEL family-wise over all differences (Bonferroni).
    A difference all seeds share exactly has no spread; it counts as +-inf
    standard errors by its sign, or 0 if it is 0 (one state cannot move).

    Returns (monotone, min mean difference, worst standardized difference,
    bound), the last two in standard errors.
    """
    n_seeds = curves.shape[0]
    kernel = np.ones(5) / 5
    smooth = np.array([np.convolve(c, kernel, mode="valid") for c in curves])
    per_seed = np.diff(smooth, axis=1)
    diffs = per_seed.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        standardized = diffs / (per_seed.std(axis=0, ddof=1) / np.sqrt(n_seeds))
    standardized[np.isnan(standardized)] = 0.0
    # the Student-t quantile scipy.stats.t.ppf computes, without its import
    bound = -float(stdtrit(n_seeds - 1, 1 - MONOTONE_LEVEL / diffs.size))
    worst = float(standardized.min())
    return worst >= bound, float(diffs.min()), worst, bound
