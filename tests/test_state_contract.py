"""Every function that returns a state returns a new C-contiguous complex128
gamma of shape (d_x, d_y), and leaves its input state untouched."""

import numpy as np
import pytest

from conftest import random_state
from tsim.erasure import apply_random_phases
from tsim.fock import enumerate_basis
from tsim.io import read_state, write_state
from tsim.model import LatticeSpec, ModelParams, build_full, build_h1, build_h2
from tsim.propagate import evolve
from tsim.protocol import (ProtocolConfig, build_initial_state, prepare,
                           run_cycle, run_protocol)

SHAPE = (15, 20)  # 6 sites, 2 tau and 3 upsilon particles


def check_state(out, *inputs):
    assert type(out) is np.ndarray and out.dtype == np.complex128
    assert out.shape == SHAPE and out.flags.c_contiguous
    for given in inputs:
        assert not np.shares_memory(out, given)


def call(fn, state, *args):
    """fn(state, *args), checking that ``state`` is unchanged and unshared."""
    before = state.copy()
    out = fn(state, *args)
    assert np.array_equal(state, before)
    check_state(out, state)
    return out


@pytest.fixture(scope="module")
def ctx():
    lattice = LatticeSpec.chain(6)
    rng = np.random.default_rng(5)
    params = ModelParams(1.0, 0.8, tuple(rng.uniform(-1, 1, 6)),
                         tuple(rng.uniform(-1, 1, 6)), 1.3)
    return prepare(ProtocolConfig(lattice, 2, 3, params, cycles=2))


def test_initial_states():
    bt, bu = enumerate_basis(6, 2), enumerate_basis(6, 3)
    check_state(build_initial_state("domain-wall", bt, bu))
    amps = random_state(SHAPE, 1).ravel()
    before = amps.copy()
    check_state(build_initial_state(amps, bt, bu), amps)
    check_state(build_initial_state(tuple(amps), bt, bu))
    assert np.array_equal(amps, before)


@pytest.mark.parametrize("build", [build_h1, build_h2, build_full],
                         ids=["eigen-h1", "eigen-h2", "chebyshev"])
@pytest.mark.parametrize("t", [0.7, -1.3, 0.0])
def test_evolve(ctx, build, t):
    c = ctx.config
    op = build(c.lattice, c.params, ctx.basis_tau, ctx.basis_upsilon)
    call(evolve, random_state(SHAPE, 2), op, t)


@pytest.mark.parametrize("species,d", [("tau", SHAPE[0]), ("upsilon", SHAPE[1])])
def test_apply_random_phases(species, d):
    phases = np.random.default_rng(3).uniform(0, 2 * np.pi, d)
    call(apply_random_phases, random_state(SHAPE, 4), species, phases)


def test_run_cycle(ctx):
    initial = ctx.initial.copy()
    state, _, _ = run_cycle(ctx.initial, ctx, 1)
    check_state(state, ctx.initial)
    assert np.array_equal(ctx.initial, initial)


def test_run_protocol(ctx):
    result = run_protocol(ctx.config, keep_cycle_states=True)
    check_state(result.final_state)
    assert len(result.cycle_states) == 2
    for state in result.cycle_states:
        check_state(state)
    assert not np.shares_memory(*result.cycle_states)


def test_read_state(tmp_path):
    gamma = random_state(SHAPE, 6)
    path = write_state(gamma, tmp_path / "state.tsim")
    check_state(read_state(path), gamma)
