"""Spectra, characteristic values, branch bookkeeping, and arc counting."""

import warnings

import numpy as np
import pytest

from cuelab import RngStream, chain_to_matrix, haar_reflection_chain, haar_unitary
from cuelab.errors import InvalidArgumentError, NumericalFailureError, SingularPointError
from cuelab.sampling import UnitaryMatrix, haar_verblunsky
from cuelab.spectra import (
    EigenangleSpectrum,
    _check_regular,
    _szego,
    arc_count_value,
    count_in_arc,
    count_in_circular_arc,
    eigenangles,
    log_z,
    log_z_from_chain,
    log_z_grid,
    log_z_verblunsky,
)

SEED = 31415


def sample(n_dim, salt=0):
    g = RngStream(SEED, salt).generator()
    return haar_unitary(n_dim, g)


def test_eigenangles_sorted_in_standard_window():
    u, _ = sample(12)
    spec = eigenangles(u)
    assert spec.dim == 12
    assert np.all(np.diff(spec.angles) >= 0)
    assert spec.angles[0] >= 0.0 and spec.angles[-1] < 2 * np.pi
    assert abs(np.exp(1j * spec.angles.sum()) - np.exp(1j * spec.det_phase)) < 1e-10
    spec.check()


def test_stacked_eigenangles_equal_per_matrix_calls():
    g = RngStream(SEED, 40).generator()
    for n_dim in (1, 2, 13):
        block, _ = haar_unitary(n_dim, g, 6)
        angles = eigenangles(block)
        assert angles.shape == (6, n_dim)
        for row, u in zip(angles, block):
            np.testing.assert_array_equal(row, eigenangles(UnitaryMatrix(u)).angles)
    with pytest.raises(InvalidArgumentError):
        eigenangles(block[0])


def test_stacked_eigenangles_check_every_row():
    block, _ = haar_unitary(6, RngStream(SEED, 41).generator(), 4)
    block[2] *= 1.1
    with pytest.raises(NumericalFailureError, match="deviate from 1 by .* in row 2"):
        eigenangles(block)


def test_from_angles_round_trip():
    angles = np.array([0.25, 1.5, 4.0])
    spec = EigenangleSpectrum.from_angles(angles)
    np.testing.assert_allclose(spec.angles, angles)
    spec.check()


def test_log_z_single_angle_closed_form():
    # N = 1: log(1 - e^{iv}) has modulus log(2 sin(v/2)) and phase (v - pi)/2
    for theta, t in [(2.0, 0.3), (0.5, 4.0), (5.9, 1.1)]:
        spec = EigenangleSpectrum.from_angles(np.array([theta]))
        v = (theta - t) % (2 * np.pi)
        lz = log_z(spec, t)
        assert abs(lz.re - np.log(2 * np.sin(v / 2))) < 1e-12
        assert abs(lz.im - (v - np.pi) / 2) < 1e-12


def test_log_z_exponentiates_to_z():
    # exp(log Z) against the dense determinant det(I - e^{-it} U)
    for n_dim, salt in ((7, 1), (9, 2)):
        u, _ = sample(n_dim, salt)
        spec = eigenangles(u)
        for t in (0.0, 0.2, 0.7, 2.9, 3.3, 5.5, 6.0):
            lz = log_z(spec, t)
            direct = np.linalg.det(np.eye(n_dim) - np.exp(-1j * t) * u.entries)
            assert abs(np.exp(lz.re + 1j * lz.im) - direct) < 1e-10


def test_log_z_grid_matches_log_z_on_stacked_spectra():
    specs = [eigenangles(sample(11, salt)[0]) for salt in (8, 9)]
    angles = np.stack([spec.angles for spec in specs])
    thetas = np.linspace(0.01, 6.27, 37)
    re, im = log_z_grid(angles, thetas)
    assert re.shape == im.shape == (2, 37)
    for j, spec in enumerate(specs):
        for i, t in enumerate(thetas):
            lz = log_z(spec, t)
            assert abs(re[j, i] - lz.re) < 1e-12
            assert abs(im[j, i] - lz.im) < 1e-12
    on_angle = float(angles[1, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        re, im = log_z_grid(angles, np.array([on_angle, 1.0]))
    assert re[1, 0] == -np.inf
    assert np.isfinite(re[0, 0]) and np.all(np.isfinite(im))


def test_log_z_imaginary_part_bounded_by_n_half_pi():
    # each factor contributes a phase in (-pi/2, pi/2)
    u, _ = sample(8, 3)
    spec = eigenangles(u)
    for t in np.linspace(0.05, 6.2, 17):
        assert abs(log_z(spec, t).im) <= 8 * np.pi / 2 + 1e-12


def test_log_z_at_eigenangle_is_singular():
    spec = EigenangleSpectrum.from_angles(np.array([1.0, 2.0]))
    with pytest.raises(SingularPointError):
        log_z(spec, 2.0)
    # the array form raises on any singular point and names it
    _check_regular(spec.angles, np.array([0.5, 1.5]))
    with pytest.raises(SingularPointError, match=r"t = 2\.0 "):
        _check_regular(spec.angles, np.array([0.5, 2.0, 1.5]))


def test_chain_route_log_matches_eigenvalue_route():
    g = RngStream(SEED, 4).generator()
    for n_dim in (2, 5, 10, 24):
        u, chain = haar_unitary(n_dim, g)
        a = log_z(eigenangles(u), 0.0)
        b = log_z_from_chain(chain)
        assert abs(a.re - b.re) < 1e-9
        assert abs(a.im - b.im) < 1e-9


def szego_polynomial(alphas):
    """Coefficients of Phi_N, highest degree first, by the Szego recursion
    Phi_{k+1}(z) = z Phi_k(z) - conj(alpha_k) Phi*_k(z)."""
    phi = np.array([1.0 + 0.0j])
    for a in alphas:
        star = np.conj(phi[::-1])
        phi = np.append(phi, 0.0) - np.conj(a) * np.insert(star, 0, 0.0)
    return phi


def test_verblunsky_route_matches_eigenangle_route():
    # Phi_N(z) = det(z - U): its roots give the eigenangles of the same draw
    g = RngStream(SEED, 12).generator()
    worst_re = worst_im = 0.0
    for n_dim in range(1, 25):
        for _ in range(20):
            alphas = haar_verblunsky(n_dim, g)
            angles = np.mod(np.angle(np.roots(szego_polynomial(alphas))), 2 * np.pi)
            thetas = np.concatenate([[0.0], g.uniform(0.0, 2 * np.pi, 5)])
            re, im = log_z_verblunsky(alphas, thetas)
            ref_re, ref_im = log_z_grid(angles, thetas)
            worst_re = max(worst_re, np.max(np.abs(re - ref_re)))
            # a branch slip would show as a multiple of 2 pi
            worst_im = max(worst_im, np.max(np.abs(im - ref_im)))
    assert worst_re < 1e-9
    assert worst_im < 1e-9


def test_verblunsky_shapes_closed_form_and_errors():
    g = RngStream(SEED, 13).generator()
    # N = 1: Z(t) = conj(1 - alpha_0 e^{it})
    alpha = np.exp(1j * 2.3)
    for t in (0.0, 1.0, 4.4):
        re, im = log_z_verblunsky([alpha], t)
        expect = np.conj(np.log(1.0 - alpha * np.exp(1j * t)))
        assert abs(re - expect.real) < 1e-12 and abs(im - expect.imag) < 1e-12
    with pytest.raises(SingularPointError):
        log_z_verblunsky([alpha], -2.3)
    stack = np.stack([haar_verblunsky(6, g) for _ in range(3)])
    re, im = log_z_verblunsky(stack, np.zeros((2, 4)))
    assert re.shape == im.shape == (3, 2, 4)
    assert log_z_verblunsky(stack[0], 0.5)[0].shape == ()
    good = haar_verblunsky(5, g)
    for bad in (1.0, 1.5, np.nan):
        alphas = good.copy()
        alphas[2] = bad
        with pytest.raises(InvalidArgumentError):
            log_z_verblunsky(alphas, 0.0)
    for bad in (0.5, 1.0 + 1e-9, np.nan):
        alphas = good.copy()
        alphas[-1] = bad
        with pytest.raises(InvalidArgumentError):
            log_z_verblunsky(alphas, 0.0)


def test_szego_recursion_with_per_row_points_matches_eigenangle_route():
    # each row of a batched draw is evaluated at its own points
    g = RngStream(SEED, 15).generator()
    worst = 0.0
    for n_dim in (1, 2, 5, 13, 37):
        alphas = haar_verblunsky(n_dim, g, 8)
        thetas = g.uniform(0.0, 2 * np.pi, (8, 3))
        logs, last = _szego(alphas, np.exp(1j * thetas))
        assert logs.shape == last.shape == (8, 3)
        for row, points, value in zip(alphas, thetas, logs):
            angles = np.mod(np.angle(np.roots(szego_polynomial(row))), 2 * np.pi)
            ref_re, ref_im = log_z_grid(angles, points)
            worst = max(worst, np.max(np.abs(value.real - ref_re)))
            worst = max(worst, np.max(np.abs(-value.imag - ref_im)))
    assert worst < 1e-9


def test_szego_recursion_stays_on_the_circle_at_large_n():
    # |b_k| = 1 on the circle in exact arithmetic; rounding must not push it
    # off.  With alpha_k = +-1 appended, |w_k| = |1 -+ b_k|, and
    # |1 - b|^2 + |1 + b|^2 = 2 + 2 |b|^2 recovers |b_k|.
    n_dim = 1 << 16
    alphas = haar_verblunsky(n_dim, RngStream(SEED, 14).generator())
    z = np.exp(1j * np.array([[0.0, 2.0], [0.0, 2.0]]))
    for k in (1 << 8, 1 << 12, 1 << 14, n_dim - 1):
        probes = np.stack([np.append(alphas[:k], 1.0), np.append(alphas[:k], -1.0)])
        _, last = _szego(probes, z)
        b = np.sqrt((last[0] ** 2 + last[1] ** 2) / 2.0 - 1.0)
        assert np.all(np.abs(b - 1.0) < 1e-9)
    re, im = log_z_verblunsky(alphas, [0.0, 2.0])
    assert np.all(np.isfinite(re)) and np.all(np.abs(im) < n_dim * np.pi / 2)


def test_arc_identity_on_a_small_batch():
    # the acceptance suite sweeps 10^3 instances; keep a quick version here
    g = RngStream(SEED, 5).generator()
    for _ in range(40):
        n_dim = int(g.integers(2, 17))
        u, _ = haar_unitary(n_dim, g)
        spec = eigenangles(u)
        s, t = np.sort(g.uniform(0.0, 2 * np.pi, size=2))
        value = arc_count_value(spec, s, t)
        assert abs(value - count_in_arc(spec, s, t)) < 1e-6


def test_count_in_arc_matches_brute_force():
    spec = EigenangleSpectrum.from_angles(np.array([0.5, 1.0, 2.5, 2.5, 6.0]))
    assert count_in_arc(spec, 0.1, 2.6) == 4
    assert count_in_arc(spec, 1.7, 2.4) == 0
    assert count_in_arc(spec, 0.9, 2.51) == 3
    with pytest.raises(InvalidArgumentError):
        count_in_arc(spec, 2.0, 1.7)


def test_arc_endpoints_on_eigenangles_are_singular():
    spec = EigenangleSpectrum.from_angles(np.array([0.5, 1.0, 2.5]))
    with pytest.raises(SingularPointError):
        count_in_arc(spec, 1.0, 2.2)
    with pytest.raises(SingularPointError):
        arc_count_value(spec, 0.2, 2.5)


def test_circular_arc_count_wraps():
    spec = EigenangleSpectrum.from_angles(np.array([0.1, 3.0, 6.2]))
    assert count_in_circular_arc(spec, 6.0, 0.5) == 2  # wraps past 2*pi, catches 6.2 and 0.1
    assert count_in_circular_arc(spec, 2.9, 0.2) == 1
    total = count_in_circular_arc(spec, 1.234, 2 * np.pi - 1e-9)
    assert total == 3
