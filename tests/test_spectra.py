"""Spectra, characteristic values, branch bookkeeping, and arc counting."""

import warnings

import numpy as np
import pytest

from cuelab import RngStream, chain_to_matrix, haar_reflection_chain, haar_unitary
from cuelab.errors import InvalidArgumentError, SingularPointError
from cuelab.sampling import UnitaryMatrix
from cuelab.spectra import (
    EigenangleSpectrum,
    _check_regular,
    arc_count_value,
    count_in_arc,
    count_in_circular_arc,
    eigenangles,
    log_z,
    log_z_from_chain,
    log_z_grid,
    trace_series_partial,
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


def test_trace_series_value_for_minus_identity():
    m = UnitaryMatrix(entries=-np.eye(2, dtype=complex), dim=2)
    val = trace_series_partial(m, 0.0, 1)
    assert val == pytest.approx(2.0)
    assert val.imag == 0.0


def test_trace_series_converges_to_log_modulus():
    u, _ = sample(6, 6)
    spec = eigenangles(u)
    # evaluate in the middle of the widest gap, where the series behaves best
    gaps = np.diff(np.concatenate([spec.angles, [spec.angles[0] + 2 * np.pi]]))
    k = int(np.argmax(gaps))
    t = float((spec.angles[k] + gaps[k] / 2) % (2 * np.pi))
    target = log_z(spec, t).re
    coarse = trace_series_partial(u, t, 200)
    fine = trace_series_partial(u, t, 4000)
    assert abs(fine.imag) < 1e-10
    assert abs(fine.real - target) < 5e-3
    assert abs(fine.real - target) <= abs(coarse.real - target) + 1e-12
