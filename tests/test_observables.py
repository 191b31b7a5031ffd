import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_state, shannon_entropies
from tsim.fock import enumerate_basis
from tsim.observables import (entanglement_entropy, fidelity, measure,
                              schmidt_spectrum)


def densities(gamma, bt, bu):
    """(densities_tau, densities_upsilon) as ``measure`` reports them."""
    report = measure(gamma, bt, bu, gamma)
    return report.densities_tau, report.densities_upsilon


def test_concentrated_state_zero_entropies():
    g = np.zeros((4, 5), dtype=complex)
    g[2, 3] = 1.0
    assert shannon_entropies(g) == (0.0, 0.0, 0.0)
    assert entanglement_entropy(g) < 1e-12


def test_uniform_distribution_entropies():
    d_x, d_y = 4, 6
    g = np.full((d_x, d_y), 1.0 / np.sqrt(d_x * d_y), dtype=complex)
    s_tau, s_upsilon, s_total = shannon_entropies(g)
    assert abs(s_tau - np.log(d_x)) < 1e-12
    assert abs(s_upsilon - np.log(d_y)) < 1e-12
    assert abs(s_total - np.log(d_x * d_y)) < 1e-12


def test_two_point_distribution():
    g = np.zeros((4, 3), dtype=complex)
    g[0, 0] = g[1, 0] = 1.0 / np.sqrt(2)
    s_tau, _, _ = shannon_entropies(g)
    assert abs(s_tau - np.log(2)) < 1e-12
    assert abs(s_tau - 0.693147) < 1e-6


def test_product_state_zero_entanglement():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    g = np.outer(a, b.conj())
    assert entanglement_entropy(g) < 1e-12


def test_two_term_schmidt():
    g = np.zeros((5, 4), dtype=complex)
    g[0, 0] = g[1, 1] = 1.0 / np.sqrt(2)
    assert abs(entanglement_entropy(g) - np.log(2)) < 1e-12


def test_haar_random_states_near_page_value():
    # Monte-Carlo oracle: mean entanglement entropy of Haar-random states
    # should sit within 5% of the Page estimate ln(15) - 1/2
    rng = np.random.default_rng(42)
    d = 15
    vals = []
    for _ in range(100):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g /= np.linalg.norm(g)
        vals.append(entanglement_entropy(g))
    page = np.log(d) - 0.5
    assert abs(np.mean(vals) - page) < 0.05 * page


def test_schmidt_symmetry_under_transpose():
    for seed in range(5):
        g = random_state((6, 9), seed)
        assert abs(entanglement_entropy(g) - entanglement_entropy(g.T)) < 1e-12


def _low_rank(d_x, d_y, rank, rng):
    """A normalized dense gamma of the given rank: a sum of ``rank`` random
    outer products."""
    a, b = (rng.standard_normal((d, rank, 2)) @ [1, 1j] for d in (d_x, d_y))
    g = a @ b.T
    return g / np.linalg.norm(g)


def test_schmidt_spectrum_matches_svd():
    # the Gram route on either side of gamma, in descending order, against
    # the squared singular values
    rng = np.random.default_rng(29)
    states = [random_state(shape, seed)
              for seed, shape in enumerate(((5, 10), (10, 5), (8, 8)))]
    states += [_low_rank(9, 12, rank, rng) for rank in (1, 3)]
    states += [_low_rank(12, 9, rank, rng) for rank in (1, 3)]
    states += [random_state((15, 15), seed) for seed in range(20)]
    for g in states:
        w = schmidt_spectrum(g)
        assert w.shape == (min(g.shape),)
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(w - np.linalg.svd(g, compute_uv=False) ** 2)) < 1e-14
    # on a dense rank-1 gamma the noise weights add up in the entropy
    for d in (70, 252):
        g = _low_rank(d, d, 1, rng)
        assert abs(entanglement_entropy(g)
                   - oracles.entanglement_from_vector(g.ravel(), d, d)) < 1e-12


def test_domain_wall_densities():
    bt = enumerate_basis(6, 2)
    bu = enumerate_basis(6, 2)
    g = np.zeros((bt.dim, bu.dim), dtype=complex)
    g[0, 0] = 1.0  # both species packed on sites 0, 1
    assert densities(g, bt, bu) == ((1.0, 1.0, 0.0, 0.0, 0.0, 0.0),) * 2


def test_uniform_superposition_density():
    bt, bu = enumerate_basis(2, 1), enumerate_basis(2, 0)
    g = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    dens, _ = densities(g, bt, bu)
    assert np.allclose(dens, (0.5, 0.5), atol=1e-12)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_density_sums_to_particle_number(seed):
    bt = enumerate_basis(5, 2)
    bu = enumerate_basis(5, 3)
    dens, dens_upsilon = densities(random_state((bt.dim, bu.dim), seed), bt, bu)
    assert abs(sum(dens) - 2) < 1e-12
    assert abs(sum(dens_upsilon) - 3) < 1e-12
    assert all(-1e-12 <= d <= 1 + 1e-12 for d in dens)


def test_fidelity_basic():
    psi = random_state((4, 4), 3)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12
    e0 = np.zeros((4, 4), dtype=complex)
    e0[0, 0] = 1.0
    e1 = np.zeros((4, 4), dtype=complex)
    e1[1, 1] = 1.0
    assert fidelity(e0, e1) == 0.0
    rotated = np.exp(1j * 0.83) * psi
    assert abs(fidelity(psi, rotated) - 1.0) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(random_state((4, 4), 1), random_state((4, 5), 2))


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_entropy_bounds_and_subadditivity(seed):
    d_x, d_y = 7, 5
    g = random_state((d_x, d_y), seed)
    s_tau, s_upsilon, s_total = shannon_entropies(g)
    s_ent = entanglement_entropy(g)
    eps = 1e-12
    assert -eps <= s_tau <= np.log(d_x) + eps
    assert -eps <= s_upsilon <= np.log(d_y) + eps
    assert max(s_tau, s_upsilon) - eps <= s_total <= s_tau + s_upsilon + eps
    assert -eps <= s_ent <= np.log(min(d_x, d_y)) + eps


def test_entropies_match_independent_formula():
    g = random_state((6, 8), 12)
    p = np.abs(g) ** 2
    expected = [oracles.shannon(p.sum(axis=1)), oracles.shannon(p.sum(axis=0)),
                oracles.shannon(p.reshape(-1))]
    assert np.max(np.abs(np.subtract(shannon_entropies(g), expected))) < 1e-13
    assert abs(entanglement_entropy(g)
               - oracles.entanglement_from_vector(g.ravel(), 6, 8)) < 1e-13


def test_measure_report_fields():
    bt = enumerate_basis(4, 2)
    bu = enumerate_basis(4, 1)
    psi = random_state((bt.dim, bu.dim), 15)
    init = random_state((bt.dim, bu.dim), 16)
    report = measure(psi, bt, bu, init)
    assert report.fidelity_to_initial == fidelity(init, psi)
    assert len(report.densities_tau) == 4
    assert len(report.densities_upsilon) == 4
    assert report.s_ent >= 0.0


def test_measure_fields_equal_the_single_diagnostics():
    # a rectangular gamma (d_x = 5, d_y = 10) so swapped marginal axes fail
    bt = enumerate_basis(5, 1)
    bu = enumerate_basis(5, 3)
    psi = random_state((bt.dim, bu.dim), 17)
    init = random_state((bt.dim, bu.dim), 18)
    report = measure(psi, bt, bu, init)
    p = np.abs(psi) ** 2
    assert abs(report.s_tau - oracles.shannon(p.sum(axis=1))) < 1e-14
    assert abs(report.s_upsilon - oracles.shannon(p.sum(axis=0))) < 1e-14
    assert abs(report.s_total - oracles.shannon(p.reshape(-1))) < 1e-14
    assert report.s_ent == entanglement_entropy(psi)
    tau, upsilon = oracles.densities(psi, bt.configs, bu.configs, 5)
    assert np.max(np.abs(np.subtract(report.densities_tau, tau))) < 1e-14
    assert np.max(np.abs(np.subtract(report.densities_upsilon, upsilon))) < 1e-14
    assert report.fidelity_to_initial == fidelity(init, psi)
    assert all(type(x) is float for x in report.densities_tau + report.densities_upsilon)
