import sys
from dataclasses import replace

import numpy as np
import pytest

from tsim import fock, propagate
from tsim.fock import enumerate_basis
from tsim.model import CSR, Hamiltonian, LatticeSpec, ModelParams
from tsim.observables import measure
from tsim.propagate import _product
from tsim.protocol import ProtocolConfig


def desk_config(**overrides) -> ProtocolConfig:
    """The desk run (6-site chain, 2+2, one cycle, seed 0) with ``overrides``."""
    base = dict(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                params=ModelParams.defaults(6), cycles=1, master_seed=0)
    base.update(overrides)
    return ProtocolConfig(**base)


def random_state(dims, seed) -> np.ndarray:
    """A normalized random coefficient matrix gamma of shape ``dims``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    g /= np.abs(g).max()
    return g / np.linalg.norm(g)


def shannon_entropies(gamma) -> tuple[float, float, float]:
    """(S_tau, S_upsilon, S_total) of gamma as ``measure`` reports them, over
    one-particle bases whose dimensions are gamma's."""
    d_x, d_y = gamma.shape
    report = measure(gamma, enumerate_basis(d_x, 1), enumerate_basis(d_y, 1),
                     gamma)
    return report.s_tau, report.s_upsilon, report.s_total


def stepwise_generator(ctx) -> Hamiltonian:
    """Generator of the small-step limit of the alternating (Trotter)
    scheme: the duration-weighted mean of a prepared context's two stepwise
    Hamiltonians."""
    t1, t2 = ctx.config.t1, ctx.config.t2
    w1, w2 = t1 / (t1 + t2), t2 / (t1 + t2)
    return Hamiltonian(replace(ctx.h1.hop_x, data=w1 * ctx.h1.hop_x.data),
                       replace(ctx.h2.hop_y, data=w2 * ctx.h2.hop_y.data),
                       w1 * ctx.h1.D + w2 * ctx.h2.D,
                       tuple((w * hop, w * pot, n)
                             for w, op in ((w1, ctx.h1), (w2, ctx.h2))
                             for hop, pot, n in op.parts))


def apply(op: Hamiltonian, g) -> np.ndarray:
    """H gamma by the Chebyshev recurrence's real product, on gamma's real
    and imaginary parts, into a fresh buffer.  A frozen tau species takes an
    empty hop, which adds nothing, so H2's hop_y acts on the transposed
    rows, as the full H's does."""
    d_x = op.D.shape[0]
    hop_x = CSR(np.zeros(d_x + 1, np.intp), np.zeros(0, np.intp), np.zeros(0),
                (d_x, d_x)) if op.hop_x is None else op.hop_x
    g = np.asarray(g, np.complex128)
    out = np.empty(op.D.shape, np.complex128)
    scratch = propagate._scratch(op.D.shape, np.empty(op.D.size + op.D.shape[1]))
    for part, x in ((out.real, g.real), (out.imag, g.imag)):
        part[...] = _product(hop_x, op.hop_y, op.D, np.ascontiguousarray(x),
                             np.zeros(op.D.shape), scratch)
    return out


def chebyshev(gamma, op: Hamiltonian, t: float) -> np.ndarray:
    """``evolve`` by the Chebyshev expansion, whichever method it would pick
    for ``op``: the eigen path's work bound is patched below every
    operator's for the call, which fails unless ``_chebyshev`` ran."""
    runs, method = [], propagate._chebyshev

    def counting(*args):
        runs.append(1)
        return method(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_EIGEN_WORK_MAX", 0)
        mp.setattr(propagate, "_chebyshev", counting)
        out = propagate.evolve(gamma, op, t)
    assert runs, "evolve did not run the Chebyshev method"
    return out


def refuse_bases(mp: pytest.MonkeyPatch) -> None:
    """Stub ``enumerate_basis`` to raise wherever a tsim module holds it, so
    that a check made under ``mp`` shows it ran before any basis existed."""
    def refuse(*args):
        raise AssertionError(f"enumerate_basis{args} ran")

    for name, module in list(sys.modules.items()):
        if ((name == "tsim" or name.startswith("tsim."))
                and getattr(module, "enumerate_basis", None) is fock.enumerate_basis):
            mp.setattr(module, "enumerate_basis", refuse)
