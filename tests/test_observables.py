from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_state, shannon_entropies
from tsim import observables
from tsim.fock import enumerate_basis
from tsim.observables import (EntropyReport, _entropy, entanglement_entropy,
                              fidelity, measure, schmidt_spectrum)


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


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 3)],
                         ids=["1x2", "2x3", "3x3"])
def test_failed_eigensolve_is_a_value_error(shape):
    # numpy's LinAlgError where the eigensolve fails, else the entropy's own
    # ValueError on NaN weights; the CLI reports either as one error line
    with pytest.raises(ValueError):
        entanglement_entropy(np.full(shape, np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_rejects_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="not finite"):
        _entropy(np.array([0.5, bad, 0.0]))


def test_measure_rejects_nan_state():
    # the Schmidt eigensolve of a 2 x 2 NaN gamma does not raise, so only
    # the entropy's own check stops it
    basis = enumerate_basis(2, 1)
    g = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        measure(g, basis, basis, g)


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


@pytest.mark.parametrize("transpose", [False, True], ids=["6x9", "9x6"])
@pytest.mark.parametrize("rows, cols, rank", [
    ([0, 2, 3], range(9), None),
    (range(6), [1, 4, 5, 8], None),
    ([1, 2, 5], [0, 3, 4, 5], None),
    (range(6), [0, 7], None),
    ([0, 1, 3, 4, 5], [0, 1, 2, 3, 5], 2),
], ids=["zero-rows", "zero-columns", "both", "larger-side", "low-rank"])
def test_schmidt_spectrum_on_the_support(transpose, rows, cols, rank):
    # zero rows, zero columns or both, with the support's smaller side on
    # either axis of gamma: the squared singular values, descending, padded
    # with exact zeros that sort above any negative noise weight
    rows, cols = list(rows), list(cols)
    seed = len(rows) * 10 + len(cols)
    g = np.zeros((6, 9), dtype=complex)
    g[np.ix_(rows, cols)] = (
        random_state((len(rows), len(cols)), seed) if rank is None
        else _low_rank(len(rows), len(cols), rank, np.random.default_rng(seed)))
    g = g.T if transpose else g
    w = schmidt_spectrum(g)
    assert w.shape == (6,)
    assert np.all(np.diff(w) <= 0)
    assert np.max(np.abs(w - np.linalg.svd(g, compute_uv=False) ** 2)) < 1e-14
    assert np.count_nonzero(w == 0.0) >= 6 - min(len(rows), len(cols))


def test_all_zero_gamma_has_zero_weights_and_entropy():
    g = np.zeros((4, 7), dtype=complex)
    assert np.array_equal(schmidt_spectrum(g), np.zeros(4))
    assert entanglement_entropy(g) == 0.0


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan), np.inf])
def test_non_finite_gamma_with_zero_rows_is_a_value_error(bad):
    # the non-finite amplitude sits on an otherwise zero row and column, so
    # a support that dropped it would read a finite product state; inf
    # times the zeros beside it makes NaNs in the Gram product
    g = np.zeros((5, 6), dtype=complex)
    g[0, 0] = 1.0
    g[3, 4] = bad
    with pytest.raises(ValueError):
        entanglement_entropy(g)


@pytest.mark.parametrize("bad", [np.inf, complex(0, np.inf), -np.inf, np.nan])
@pytest.mark.parametrize("shape", [(15, 15), (10, 5)])
def test_non_finite_dense_gamma_is_a_value_error(shape, bad):
    # an inf amplitude's complex products in the Gram matrix meet inf * 0,
    # so it holds NaNs; that is a ValueError (numpy's LinAlgError, or the
    # entropy's own), not a warning
    g = random_state(shape, 7)
    g[2, 3] = bad
    with pytest.raises(ValueError):
        entanglement_entropy(g)


@pytest.mark.parametrize("shape", [(15, 15), (10, 5), (5, 10)])
def test_dense_gamma_takes_the_whole_gram_matrix(shape):
    for seed in range(3):
        g = random_state(shape, seed)
        s = g if shape[0] <= shape[1] else g.T
        assert np.array_equal(schmidt_spectrum(g),
                              np.linalg.eigvalsh(s @ s.conj().T)[::-1])


def test_eigensolve_runs_on_the_support(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solved.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    wall = np.zeros((15, 15), dtype=complex)
    wall[0, 0] = 1.0
    column = np.zeros((15, 15), dtype=complex)
    column[:, 3] = random_state((15, 1), 4)[:, 0]
    # a subnormal amplitude is nonzero, so it keeps its row and column
    subnormal = wall.copy()
    subnormal[7, 9] = 5e-324
    for g in (wall, column, subnormal, random_state((15, 15), 5),
              random_state((15, 10), 6)):
        schmidt_spectrum(g)
    assert solved == [(1, 1), (1, 1), (2, 2), (15, 15), (10, 10)]


@pytest.fixture
def blas_threads():
    """The thread count getter of numpy's OpenBLAS, with the count set to 2
    for the test and restored after it."""
    api = observables._openblas_threads()
    if api is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be set")
    get, put = api
    before = get()
    put(2)
    yield get
    put(before)


def _record_blas_threads(monkeypatch, get):
    """(name, BLAS thread count) of each eigvalsh and vdot call, and of each
    density product with a basis passed through ``recorded``, as a list that
    the calls fill; and ``recorded``."""
    seen = []

    def recording(f):
        def call(*args, **kwargs):
            seen.append((f.__name__, get()))
            return f(*args, **kwargs)
        return call

    class Occupations(np.ndarray):
        # p @ occupations tries a subclass's reflected product first
        def __rmatmul__(self, other):
            seen.append(("matmul", get()))
            return other @ self.view(np.ndarray)

    def recorded(basis):
        return SimpleNamespace(occupations=basis.occupations.view(Occupations))

    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    monkeypatch.setattr(np, "vdot", recording(np.vdot))
    return seen, recorded


@pytest.mark.parametrize("bound, value, count", [
    (None, None, 1),
    ("_ONE_BLAS_THREAD_MAX", 119, 2),
    ("_ONE_BLAS_THREAD_ENTRIES", 120 * 252 + 1, 2),
], ids=["within-the-bounds", "past-the-side-bound", "below-the-entry-bound"])
def test_measure_runs_blas_on_one_thread(blas_threads, monkeypatch, bound,
                                         value, count):
    # a 120 x 120 Gram product or eigvalsh leaves OpenBLAS's workers spinning
    # after it on two threads; outside the bounds the count is untouched
    if bound is not None:
        monkeypatch.setattr(observables, bound, value)
    seen, recorded = _record_blas_threads(monkeypatch, blas_threads)
    bt, bu = enumerate_basis(10, 3), enumerate_basis(10, 5)
    g, init = random_state((120, 252), 191), random_state((120, 252), 193)
    report = measure(g, recorded(bt), recorded(bu), init)
    assert report == measure(g, bt, bu, init)
    assert blas_threads() == 2
    fidelity(init, g)
    assert seen == [("eigvalsh", count), ("matmul", count), ("matmul", count),
                    ("vdot", count), ("eigvalsh", count), ("vdot", count),
                    ("vdot", count)]
    assert blas_threads() == 2


def test_blas_thread_count_is_restored_after_an_error(blas_threads, monkeypatch):
    # the eigensolve of a gamma with an inf raises inside the one-thread
    # block: numpy's LinAlgError, a ValueError
    seen, _ = _record_blas_threads(monkeypatch, blas_threads)
    g = random_state((120, 252), 197)
    g[3, 4] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        entanglement_entropy(g)
    assert seen == [("eigvalsh", 1)]
    assert blas_threads() == 2


def test_measure_without_openblas_is_unchanged(monkeypatch):
    # where no thread API is found, the report is the one computed without
    # any thread setting, field for field
    bt, bu = enumerate_basis(10, 5), enumerate_basis(10, 3)
    g, init = random_state((252, 120), 199), random_state((252, 120), 211)
    p = np.abs(g) ** 2
    s = g.T
    expected = EntropyReport(
        s_tau=_entropy(p.sum(axis=1)), s_upsilon=_entropy(p.sum(axis=0)),
        s_total=_entropy(p.reshape(-1)),
        s_ent=_entropy(np.linalg.eigvalsh(s @ s.conj().T)[::-1]),
        densities_tau=tuple((p.sum(axis=1) @ bt.occupations).tolist()),
        densities_upsilon=tuple((p.sum(axis=0) @ bu.occupations).tolist()),
        fidelity_to_initial=float(np.abs(np.vdot(init, g)) ** 2))
    monkeypatch.setattr(observables, "_openblas_threads", lambda: None)
    assert measure(g, bt, bu, init) == expected
