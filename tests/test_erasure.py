import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, shannon_entropies
from tsim.erasure import (ErasureSpec, apply_random_phases, draw_phases,
                          erasure_phases, site_phase_sequence)
from tsim.fock import enumerate_basis
from tsim.observables import schmidt_spectrum


def test_zero_phases_identity():
    psi = random_state((6, 4), 1)
    out = apply_random_phases(psi, "upsilon", np.zeros(4))
    assert np.array_equal(out, psi)


def test_entropies_and_schmidt_spectrum_invariant():
    rng = np.random.default_rng(2)
    psi = random_state((6, 10), 3)
    for species, d in (("tau", 6), ("upsilon", 10)):
        phases = rng.uniform(0, 2 * np.pi, d)
        out = apply_random_phases(psi, species, phases)
        before = np.array(shannon_entropies(psi))
        after = np.array(shannon_entropies(out))
        assert np.max(np.abs(before - after)) < 1e-14
        sv_before = schmidt_spectrum(psi)
        sv_after = schmidt_spectrum(out)
        assert np.max(np.abs(sv_before - sv_after)) < 1e-12


def test_unitarity_and_exact_inverse():
    rng = np.random.default_rng(4)
    psi = random_state((5, 7), 5)
    phases = rng.uniform(0, 2 * np.pi, 7)
    out = apply_random_phases(psi, "upsilon", phases)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15
    back = apply_random_phases(out, "upsilon", -phases)
    assert np.max(np.abs(back - psi)) < 1e-15


def test_tau_scales_rows_upsilon_scales_columns():
    psi = random_state((3, 4), 6)
    phases = np.array([0.3, 1.1, 2.5])
    out = apply_random_phases(psi, "tau", phases)
    expected = np.exp(1j * phases)[:, None] * psi
    assert np.max(np.abs(out - expected)) < 1e-15
    phases = np.array([0.2, 0.9, 1.7, 3.0])
    out = apply_random_phases(psi, "upsilon", phases)
    expected = psi * np.exp(1j * phases)[None, :]
    assert np.max(np.abs(out - expected)) < 1e-15


def test_phase_count_mismatch_rejected():
    psi = random_state((3, 4), 7)
    with pytest.raises(ValueError, match="need 4 phases for upsilon"):
        apply_random_phases(psi, "upsilon", np.zeros(3))
    with pytest.raises(ValueError, match="need 3 phases for tau"):
        apply_random_phases(psi, "tau", np.zeros(4))
    with pytest.raises(ValueError, match="species must be one of"):
        apply_random_phases(psi, "both", np.zeros(4))


def test_site_phase_identity_cases():
    basis = enumerate_basis(4, 2)
    psi = random_state((6, 6), 8)
    out = apply_random_phases(psi, "tau", site_phase_sequence(basis, 2, 0.0))
    assert np.array_equal(out, psi)
    out = apply_random_phases(psi, "tau", site_phase_sequence(basis, 2, 2 * np.pi))
    assert np.max(np.abs(out - psi)) < 1e-15


def test_site_phase_equals_occupancy_phases():
    basis = enumerate_basis(4, 2)
    psi = random_state((6, 6), 9)
    theta = 1.234
    direct = apply_random_phases(psi, "upsilon",
                                 site_phase_sequence(basis, 1, theta))
    phases = theta * np.array([(c >> 1) & 1 for c in basis.configs], dtype=float)
    via_sequence = apply_random_phases(psi, "upsilon", phases)
    assert np.array_equal(direct, via_sequence)


def test_site_phase_commutes_with_random_phases():
    basis = enumerate_basis(4, 2)
    rng = np.random.default_rng(10)
    psi = random_state((6, 6), 11)
    phases = rng.uniform(0, 2 * np.pi, 6)
    site = site_phase_sequence(basis, 3, 0.7)
    one = apply_random_phases(apply_random_phases(psi, "tau", phases), "tau", site)
    other = apply_random_phases(apply_random_phases(psi, "tau", site), "tau", phases)
    assert np.max(np.abs(one - other)) < 1e-15


def test_site_out_of_range():
    basis = enumerate_basis(4, 2)
    with pytest.raises(ValueError):
        site_phase_sequence(basis, 4, 1.0)


def test_draw_phases_deterministic_and_distinct():
    a = draw_phases(12345, 3, 20)
    b = draw_phases(12345, 3, 20)
    assert np.array_equal(a, b)
    c = draw_phases(12345, 4, 20)
    assert not np.array_equal(a, c)
    d = draw_phases(54321, 3, 20)
    assert not np.array_equal(a, d)


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_draw_phases_range(seed, cycle):
    phases = draw_phases(seed, cycle, 16)
    assert np.all(phases >= 0.0)
    assert np.all(phases < 2 * np.pi)


def test_erasure_spec_validation():
    with pytest.raises(ValueError):
        ErasureSpec(kind="nonsense")
    with pytest.raises(ValueError):
        ErasureSpec(kind="site-phase", site=1)  # theta missing
    with pytest.raises(ValueError):
        ErasureSpec(kind="random-phase", site=1)
    with pytest.raises(ValueError, match="species: must be one of"):
        ErasureSpec(species="both")
    with pytest.raises(ValueError, match="^theta: must be finite"):
        ErasureSpec(kind="site-phase", site=1, theta=float("nan"))
    spec = ErasureSpec(kind="site-phase", species="tau", site=0, theta=0.5)
    basis = enumerate_basis(3, 1)
    seq = erasure_phases(spec, basis, master_seed=0, cycle=1)
    assert np.array_equal(seq, np.array([0.5, 0.0, 0.0]))


def test_erasure_phases_random_kind_uses_seed_and_cycle():
    spec = ErasureSpec()
    basis = enumerate_basis(4, 2)
    seq = erasure_phases(spec, basis, master_seed=99, cycle=7)
    assert np.array_equal(seq, draw_phases(99, 7, basis.dim))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_phase_preserves_probabilities(seed):
    rng = np.random.default_rng(seed)
    psi = random_state((5, 6), seed + 1)
    phases = rng.uniform(0, 2 * np.pi, 6)
    out = apply_random_phases(psi, "upsilon", phases)
    assert np.max(np.abs(np.abs(out) - np.abs(psi))) < 1e-15


def test_densities_invariant_under_diagonal_phases():
    from tsim.observables import measure
    bt, bu = enumerate_basis(5, 2), enumerate_basis(5, 3)
    psi = random_state((bt.dim, bu.dim), 77)
    rng = np.random.default_rng(78)
    scrambled = apply_random_phases(psi, "upsilon", rng.uniform(0, 2 * np.pi, bu.dim))
    scrambled = apply_random_phases(scrambled, "tau", rng.uniform(0, 2 * np.pi, bt.dim))
    scrambled = apply_random_phases(scrambled, "tau", site_phase_sequence(bt, 2, 0.9))
    before = measure(psi, bt, bu, psi)
    after = measure(scrambled, bt, bu, psi)
    for field in ("densities_tau", "densities_upsilon"):
        diff = np.subtract(getattr(before, field), getattr(after, field))
        assert np.max(np.abs(diff)) < 1e-14
