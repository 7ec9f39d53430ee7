"""Reflection decomposition and Haar sampling invariants.

The distributional claims (moments of traces, agreement with the QR
sampler) get their heavy statistical treatment in test_acceptance; here
we verify the algebraic postconditions that must hold sample by sample.
"""

import numpy as np
import pytest
from scipy import stats

from cuelab import (
    RngStream,
    chain_to_matrix,
    coupled_chain_pair,
    haar_reflection_chain,
    haar_special_unitary,
    haar_unitary,
    haar_unitary_qr_oracle,
)
from cuelab.errors import InvalidArgumentError, InvalidDimensionError
from cuelab.sampling import haar_verblunsky, reflection_determinant, reflection_matrix
from cuelab.spectra import eigenangles, log_z, log_z_from_chain, log_z_verblunsky

SEED = 8675309


def gen(salt=0):
    return RngStream(SEED, salt).generator()


def unitarity_defect(m):
    return np.abs(m.entries @ m.entries.conj().T - np.eye(m.dim)).max()


# ---------------------------------------------------------------------------
# unit-sphere vectors and single reflections
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j", [1, 2, 3, 8, 33])
def test_sphere_vectors_have_unit_norm(j):
    # x_j, the last vector of a length-j chain, is the uniform draw on the
    # unit sphere of C^j
    g = gen(1)
    for _ in range(5):
        x = haar_reflection_chain(j, g).vectors[-1]
        assert x.shape == (j,)
        assert x.dtype == np.complex128
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_reflection_maps_last_basis_vector_to_x():
    g = gen(2)
    for j in (2, 3, 7):
        x = haar_reflection_chain(j, g).vectors[-1]
        r = reflection_matrix(x)
        assert r.dim == j
        np.testing.assert_allclose(r.entries[:, j - 1], x, atol=1e-12)
        np.testing.assert_allclose(r.entries.conj().T @ x, np.eye(j)[j - 1], atol=1e-12)


def test_reflection_is_unitary_and_fixes_complement():
    g = gen(3)
    j = 6
    x = haar_reflection_chain(j, g).vectors[-1]
    r = reflection_matrix(x)
    assert unitarity_defect(r) < 1e-12
    # vectors orthogonal to both x and e_j are left alone
    q, _ = np.linalg.qr(np.column_stack([x, np.eye(j)[j - 1]]))
    v = g.standard_normal(j) + 1j * g.standard_normal(j)
    v -= q @ (q.conj().T @ v)
    np.testing.assert_allclose(r.entries @ v, v, atol=1e-10)


def test_reflection_determinant_matches_dense_determinant():
    g = gen(4)
    for j in (1, 2, 5, 9):
        x = haar_reflection_chain(j, g).vectors[-1]
        d = reflection_determinant(x)
        assert abs(d - np.linalg.det(reflection_matrix(x).entries)) < 1e-10
        assert abs(abs(d) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# full chains
# ---------------------------------------------------------------------------


def test_chain_shape_and_matrix_unitarity():
    g = gen(5)
    for n_dim in (1, 2, 3, 10):
        chain = haar_reflection_chain(n_dim, g)
        assert [len(v) for v in chain.vectors] == list(range(1, n_dim + 1))
        u = chain_to_matrix(chain)
        assert u.dim == n_dim
        assert unitarity_defect(u) < 1e-12


def test_haar_unitary_matches_chain_only_sampler():
    # haar_unitary(N) and haar_reflection_chain(N) consume the same draws,
    # so on a shared stream they must produce the identical chain
    a = haar_reflection_chain(9, gen(6))
    u, b = haar_unitary(9, gen(6))
    for va, vb in zip(a.vectors, b.vectors):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_allclose(u.entries, chain_to_matrix(a).entries, atol=0)


def test_chain_determinant_identity():
    # det U = prod_j det R_j, computable without assembling anything
    g = gen(7)
    chain = haar_reflection_chain(8, g)
    d = np.prod([reflection_determinant(x) for x in chain.vectors])
    assert abs(np.linalg.det(chain_to_matrix(chain).entries) - d) < 1e-10


def test_special_unitary_det_forcing():
    g = gen(8)
    for n_dim, theta in [(2, 0.0), (5, 0.3), (8, -1.1), (16, 2.0)]:
        u, chain = haar_special_unitary(n_dim, theta, g)
        assert abs(np.linalg.det(u.entries) - np.exp(1j * n_dim * theta)) < 1e-10
        # the forcing lives entirely in the length-1 vector x_1
        rest = np.prod([reflection_determinant(x) for x in chain.vectors[1:]])
        expected_x1 = np.exp(1j * n_dim * theta) * np.conj(rest)
        assert abs(chain.vectors[0][0] - expected_x1) < 1e-10


def test_rotated_families_differ_only_in_first_vector():
    a, b = coupled_chain_pair(7, 0.55, gen(9))
    for va, vb in zip(a.vectors[1:], b.vectors[1:]):
        np.testing.assert_array_equal(va, vb)
    assert abs(a.vectors[0][0] - b.vectors[0][0]) > 1e-12


def test_coupled_pair_dets_and_imaginary_parts():
    # first element of the pair is the rotated-SU(N) sample, second is Haar U(N)
    g = gen(10)
    for _ in range(25):
        theta = g.uniform(0.0, 2 * np.pi / 8)
        ua, ub = (chain_to_matrix(c) for c in coupled_chain_pair(8, theta, g))
        assert abs(np.linalg.det(ua.entries) - np.exp(1j * 8 * theta)) < 1e-10
        assert abs(abs(np.linalg.det(ub.entries)) - 1.0) < 1e-10
    g2 = gen(11)
    for _ in range(25):
        theta = g2.uniform(0.0, 2 * np.pi / 6)
        ca, cb = coupled_chain_pair(6, theta, g2)
        gap = abs(log_z_from_chain(ca).im - log_z_from_chain(cb).im)
        assert gap <= np.pi + 1e-12


def test_stacked_dense_draws_rows_equal_sequential_draws():
    # row i of a stacked draw is the i-th of n single draws from the same
    # generator, for both samplers, and the generator ends in the same state
    for n_dim in (1, 2, 37):
        stacked, sequential = gen(60 + n_dim), gen(60 + n_dim)
        block, chain = haar_unitary(n_dim, stacked, 5)
        assert block.shape == (5, n_dim, n_dim)
        assert chain.last_components().shape == (5, n_dim)
        for i in range(5):
            u, single = haar_unitary(n_dim, sequential)
            assert np.abs(block[i] - u.entries).max() <= 1e-13
            np.testing.assert_array_equal(chain.last_components()[i], single.last_components())
        assert stacked.random() == sequential.random()
        block = haar_unitary_qr_oracle(n_dim, stacked, 5)
        assert block.shape == (5, n_dim, n_dim)
        for i in range(5):
            assert np.abs(block[i] - haar_unitary_qr_oracle(n_dim, sequential).entries).max() <= 1e-13
        assert stacked.random() == sequential.random()
    for bad in (0, 2.5):
        with pytest.raises(InvalidArgumentError):
            haar_unitary(4, gen(), bad)
        with pytest.raises(InvalidArgumentError):
            haar_unitary_qr_oracle(4, gen(), bad)


def test_stacked_special_unitary_rows_equal_sequential_draws():
    # every row's chain, forced x_1 included, is bit-equal to its single
    # draw; the matrices agree as the stacked and single products do
    for n_dim in (1, 2, 16, 37, 64):
        for theta in (0.0, 0.7):
            stacked, sequential = gen(70 + n_dim), gen(70 + n_dim)
            block, chain = haar_special_unitary(n_dim, theta, stacked, 5)
            assert block.shape == (5, n_dim, n_dim)
            assert [x.shape for x in chain.vectors] == [(5, j) for j in range(1, n_dim + 1)]
            for i in range(5):
                u, single = haar_special_unitary(n_dim, theta, sequential)
                for x, y in zip(chain.vectors, single.vectors):
                    np.testing.assert_array_equal(x[i], y)
                assert np.abs(block[i] - u.entries).max() <= 1e-13
            assert stacked.random() == sequential.random()
            if theta:
                dets = np.linalg.det(block)
                assert np.abs(dets - np.exp(1j * n_dim * theta)).max() <= 1e-12
    for bad in (0, -1, 2.5):
        with pytest.raises(InvalidArgumentError):
            haar_special_unitary(4, 0.3, gen(), bad)


def test_qr_oracle_is_unitary_with_unimodular_det():
    g = gen(12)
    u = haar_unitary_qr_oracle(11, g)
    assert unitarity_defect(u) < 1e-12
    assert abs(abs(np.linalg.det(u.entries)) - 1.0) < 1e-10


def test_first_trace_moment_is_roughly_haar():
    # E tr U = 0 and E |tr U|^2 = 1 for Haar U(N); loose 4-sigma gates
    g = gen(13)
    n, dim = 4000, 6
    traces = np.empty(n, dtype=complex)
    for i in range(n):
        traces[i] = np.trace(chain_to_matrix(haar_reflection_chain(dim, g)).entries)
    se = 1.0 / np.sqrt(n)
    assert abs(traces.mean().real) < 4 * se
    assert abs(traces.mean().imag) < 4 * se
    second = np.abs(traces) ** 2
    assert abs(second.mean() - 1.0) < 4 * second.std(ddof=1) / np.sqrt(n)


def test_eigenangles_of_special_unitary_sum_to_det_phase():
    g = gen(14)
    for theta in (0.0, 0.9):
        u, _ = haar_special_unitary(10, theta, g)
        spec = eigenangles(u)
        total = np.angle(np.exp(1j * spec.angles.sum()))
        assert abs(np.exp(1j * total) - np.exp(1j * 10 * theta)) < 1e-8


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


def test_bad_dimensions_rejected():
    g = gen(15)
    for bad in (0, -1, 2.5):
        with pytest.raises(InvalidDimensionError):
            haar_reflection_chain(bad, g)
        with pytest.raises(InvalidDimensionError):
            haar_unitary_qr_oracle(bad, g)
    with pytest.raises(InvalidDimensionError):
        haar_special_unitary(0, 0.0, g)


# ---------------------------------------------------------------------------
# Verblunsky coefficients of Haar U(N)
# ---------------------------------------------------------------------------


def test_verblunsky_draw_postconditions():
    for n_dim in (1, 2, 7, 40):
        alphas = haar_verblunsky(n_dim, gen(30 + n_dim))
        assert alphas.shape == (n_dim,) and alphas.dtype == np.complex128
        assert np.all(np.abs(alphas[:-1]) < 1.0)
        assert abs(abs(alphas[-1]) - 1.0) < 1e-15
        # one random(2N) block per draw, so the stream stays aligned
        g = gen(30 + n_dim)
        g.random(2 * n_dim)
        after = gen(30 + n_dim)
        haar_verblunsky(n_dim, after)
        assert after.random() == g.random()
    np.testing.assert_array_equal(haar_verblunsky(9, gen(5)), haar_verblunsky(9, RngStream(SEED, 5)))
    with pytest.raises(InvalidDimensionError):
        haar_verblunsky(0, gen())


def test_batched_verblunsky_rows_equal_sequential_draws():
    for n_dim in (1, 2, 37):
        batched, sequential = gen(50 + n_dim), gen(50 + n_dim)
        block = haar_verblunsky(n_dim, batched, 5)
        assert block.shape == (5, n_dim) and block.dtype == np.complex128
        for row in block:
            np.testing.assert_array_equal(row, haar_verblunsky(n_dim, sequential))
        assert batched.random() == sequential.random()
    with pytest.raises(InvalidArgumentError):
        haar_verblunsky(4, gen(), 0)


def test_verblunsky_law_matches_dense_sampler():
    # Same law of log Z(theta) and of both oscillation increments as the
    # dense reflection sampler read through its eigenangles, at N = 16.
    n_dim, n_samples, shift = 16, 4000, 8 * np.pi / 16
    g = gen(40)
    verblunsky, dense = [], []
    moduli = np.empty((n_samples, n_dim))
    for i in range(n_samples):
        alphas = haar_verblunsky(n_dim, g)
        moduli[i] = np.abs(alphas) ** 2
        theta = g.uniform(0.0, 2 * np.pi)
        re, im = log_z_verblunsky(alphas, (theta, theta + shift))
        verblunsky.append((re[0], im[0], re[1] - re[0], im[1] - im[0]))
    for _ in range(n_samples):
        spec = eigenangles(haar_unitary(n_dim, g)[0])
        theta = g.uniform(0.0, 2 * np.pi)
        first, second = log_z(spec, theta), log_z(spec, (theta + shift) % (2 * np.pi))
        dense.append((first.re, first.im, second.re - first.re, second.im - first.im))
    verblunsky, dense = np.array(verblunsky), np.array(dense)
    # The Im increment is -N shift/2 + pi (eigenangles in the arc): a lattice
    # whose rounding noise differs between routes, so compare the arc counts.
    for sample in (verblunsky, dense):
        sample[:, 3] = np.round(sample[:, 3] / np.pi + n_dim * shift / (2 * np.pi))
    for col, name in enumerate(("Re log Z", "Im log Z", "Re increment", "arc count")):
        p = stats.ks_2samp(verblunsky[:, col], dense[:, col]).pvalue
        assert p >= 0.01, f"{name}: KS p = {p:.4g}"
    # E|alpha_k|^2 = 1/(N - k): the mean of Beta(1, N-k-1), and 1 at k = N-1
    target = 1.0 / (n_dim - np.arange(n_dim))
    stderr = moduli.std(axis=0, ddof=1) / np.sqrt(n_samples)
    np.testing.assert_allclose(moduli[:, -1], 1.0, atol=1e-15)
    z = (moduli[:, :-1].mean(axis=0) - target[:-1]) / stderr[:-1]
    assert np.max(np.abs(z)) <= 4.0, f"|alpha_k|^2 z-scores {np.round(z, 2)}"
