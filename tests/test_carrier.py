"""Circle subdivision, exceptional sets, carrier indices, and narrow gaps."""

import warnings

import numpy as np
import pytest

from cuelab import RngStream, haar_special_unitary, haar_unitary
from cuelab.carrier import (
    CarrierWaveConfig,
    carrier_wave_index,
    exceptional_mask,
    narrow_gap_count,
    narrow_gap_threshold,
    normalized_logs,
    subdivision,
)
from cuelab.ensembles import CombinationEnsemble
from cuelab.errors import InvalidArgumentError, InvalidConfigError
from cuelab.spectra import EigenangleSpectrum, eigenangles, log_z

SEED = 60601


def su_ensemble(n_terms, n_dim, salt=0, coeffs=None):
    g = RngStream(SEED, salt).generator()
    specs = [eigenangles(haar_special_unitary(n_dim, 0.0, g)[0]) for _ in range(n_terms)]
    if coeffs is None:
        coeffs = np.ones(n_terms)
    return CombinationEnsemble(np.asarray(coeffs, dtype=float), specs)


# ---------------------------------------------------------------------------
# subdivision and configuration
# ---------------------------------------------------------------------------


def test_subdivision_defaults_at_n64():
    cfg = subdivision(64)
    assert cfg.N == 64
    assert cfg.K == 32
    assert cfg.M == 2.0
    assert 0 < cfg.delta < 0.25
    assert cfg.Delta == pytest.approx(2 * np.pi / cfg.K)
    assert cfg.theta0 == 0.0


@pytest.mark.parametrize("n_dim", [4, 8, 32, 200, 1000])
def test_subdivision_clamps_into_invariant_ranges(n_dim):
    cfg = subdivision(n_dim)
    assert 2 <= cfg.K <= n_dim // 2
    assert 0 < cfg.delta < 0.25
    assert cfg.M >= 2


def test_subdivision_scan_picks_theta0_inside_first_window():
    ens = su_ensemble(2, 16, salt=1)
    cfg = subdivision(16, delta=0.2, ens=ens)
    assert 0.0 <= cfg.theta0 < cfg.Delta


def test_subdivision_rejects_bad_parameters():
    with pytest.raises(InvalidConfigError):
        subdivision(64, k_div=1)
    with pytest.raises(InvalidConfigError):
        subdivision(64, k_div=63)
    with pytest.raises(InvalidConfigError):
        subdivision(64, delta=0.3)
    with pytest.raises(InvalidConfigError):
        subdivision(64, delta=0.0)


def test_config_consistency_enforced():
    with pytest.raises(InvalidConfigError):
        CarrierWaveConfig(N=8, K=4, M=2.0, delta=0.2, Delta=1.0, theta0=0.0)


def test_narrow_gap_threshold_scaling():
    cfg = subdivision(64, delta=0.2)
    base = narrow_gap_threshold(cfg, 1.0)
    assert base == pytest.approx(0.4554687478042829, rel=1e-10)
    assert narrow_gap_threshold(cfg, 2.0) == pytest.approx(2 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# normalized logs, exceptional set, carrier index
# ---------------------------------------------------------------------------


def test_normalized_logs_shape_and_scale():
    ens = su_ensemble(3, 16, salt=2)
    theta = 1.2345
    logs = normalized_logs(ens, theta)
    assert logs.shape == (3,)
    norm = np.sqrt(np.log(16) / 2.0)
    direct = np.array([log_z(spec, theta).re for spec in ens.spectra]) / norm
    np.testing.assert_allclose(logs, direct, atol=1e-12)
    # a batch of points: one row per spectrum, in the points' shape
    thetas = np.array([[0.1, 2.0, 4.0], [theta, 5.0, 6.0]])
    grid = normalized_logs(ens, thetas)
    assert grid.shape == (3, 2, 3)
    np.testing.assert_allclose(grid[:, 1, 0], logs, atol=1e-12)


def test_normalized_logs_singular_on_eigenangle():
    ens = su_ensemble(2, 8, salt=3)
    logs = normalized_logs(ens, float(ens.spectra[0].angles[2]))
    assert logs[0] == -np.inf
    assert np.isfinite(logs[1])


def test_exceptional_mask_flags_singular_points_and_grows_with_delta():
    ens = su_ensemble(2, 16, salt=4)
    logs = normalized_logs(ens, np.linspace(0.01, 2 * np.pi - 0.01, 257))
    small = exceptional_mask(logs, 0.05)
    large = exceptional_mask(logs, 0.2)
    assert small.dtype == bool
    assert small.shape == (257,)
    assert np.all(large[small])  # pointwise monotone in delta
    # a grid point exactly on an eigenangle is always exceptional
    on_angle = normalized_logs(ens, ens.spectra[0].angles[:1])
    assert exceptional_mask(on_angle, 0.05)[0]
    for delta in (0.0, 0.5):
        with pytest.raises(InvalidArgumentError):
            exceptional_mask(logs, delta)


def test_exceptional_mask_quiet_on_shared_eigenangle():
    # both terms are -inf at a shared eigenangle; their difference is nan,
    # which the mask expects, so no RuntimeWarning may escape
    spec = su_ensemble(1, 8, salt=17).spectra[0]
    ens = CombinationEnsemble(np.array([1.0, 2.0]), [spec, spec])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = exceptional_mask(normalized_logs(ens, spec.angles[:1]), 0.05)
    assert mask[0]


def test_exceptional_measure_bounds_and_monotonicity():
    # the measure lambda(E_delta) / 2pi on the carrier runner's grid: the
    # midpoints of 64 N equal cells
    ens = su_ensemble(2, 16, salt=5)
    grid = 64 * 16
    logs = normalized_logs(ens, (np.arange(grid) + 0.5) * (2 * np.pi / grid))
    measures = [float(exceptional_mask(logs, d).mean()) for d in (0.05, 0.1, 0.2)]
    for m in measures:
        assert 0.0 <= m <= 1.0
    assert measures[0] <= measures[1] <= measures[2]


def test_carrier_index_is_argmax_one_based():
    ens = su_ensemble(3, 16, salt=6)
    g = RngStream(SEED, 7).generator()
    thetas = g.uniform(0.0, 2 * np.pi, size=12)
    idx = carrier_wave_index(normalized_logs(ens, thetas))
    assert idx.shape == (12,)
    for theta, i in zip(thetas, idx):
        direct = [log_z(spec, float(theta)).re for spec in ens.spectra]
        assert i == int(np.argmax(direct)) + 1
        assert 1 <= i <= 3


def test_single_term_carrier_is_trivial():
    ens = su_ensemble(1, 8, salt=8)
    idx = carrier_wave_index(normalized_logs(ens, np.array([0.3, 2.2, 5.1])))
    np.testing.assert_array_equal(idx, [1, 1, 1])


# ---------------------------------------------------------------------------
# narrow gaps
# ---------------------------------------------------------------------------


def test_narrow_gap_count_matches_brute_force():
    g = RngStream(SEED, 10).generator()
    for n_dim, eps in [(8, 2.0), (16, 4.0), (32, 1.0)]:
        spec = eigenangles(haar_special_unitary(n_dim, 0.0, g)[0])
        ang = spec.angles
        brute = 0
        for i in range(n_dim):
            for j in range(i + 1, n_dim):
                d = abs(ang[i] - ang[j])
                d = min(d, 2 * np.pi - d)
                brute += d <= eps / n_dim
        assert narrow_gap_count(spec, eps) == brute


def all_pairs_count(spec, eps):
    a = spec.angles
    d = np.abs(a[:, None] - a[None, :])
    d = np.minimum(d, 2 * np.pi - d)
    return int(np.sum(d[np.triu_indices(spec.dim, 1)] <= eps / spec.dim))


def test_narrow_gap_count_identical_to_all_pairs_at_the_boundary():
    # eps on, just under and just over N times each of the smallest pair
    # distances, including pairs across the 0/2pi seam
    g = RngStream(SEED, 12).generator()
    others = RngStream(SEED, 13).generator()
    for n_dim in range(2, 65):
        spec = eigenangles(haar_special_unitary(n_dim, 0.0, g)[0])
        a = spec.angles
        d = np.abs(a[:, None] - a[None, :])
        d = np.sort(np.minimum(d, 2 * np.pi - d)[np.triu_indices(n_dim, 1)])
        seam = 2 * np.pi - (a[-1] - a[0])
        # this spectrum between two others, as the rows of one stack
        stack = eigenangles(haar_unitary(n_dim, others, 3)[0])
        stack[1] = a
        for eps in [*(n_dim * d[:4]), n_dim * seam, 0.5, 1.0, 3 * n_dim]:
            for e in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, np.inf)):
                assert narrow_gap_count(spec, e) == all_pairs_count(spec, e), (n_dim, e)
                # one call with two eps equals two one-eps calls
                both = narrow_gap_count(spec, np.array([e, 0.5]))
                assert both.tolist() == [narrow_gap_count(spec, e), narrow_gap_count(spec, 0.5)]
                # one stacked call equals the row-by-row calls
                rows = [narrow_gap_count(row, np.array([e, 0.5])) for row in stack]
                np.testing.assert_array_equal(narrow_gap_count(stack, np.array([e, 0.5])), rows)
                assert narrow_gap_count(stack, e).tolist() == [r[0] for r in rows]
    spec = EigenangleSpectrum.from_angles([0.0, 1e-3, 3.0, 2 * np.pi - 1e-3])
    for eps in (4e-3, 8e-3 - 1e-12, 8e-3 + 1e-12):
        assert narrow_gap_count(spec, eps) == all_pairs_count(spec, eps)


def test_narrow_gap_count_extremes():
    g = RngStream(SEED, 11).generator()
    spec = eigenangles(haar_special_unitary(12, 0.0, g)[0])
    with pytest.raises(InvalidArgumentError):
        narrow_gap_count(spec, 0.0)
    # eps / N >= pi covers every pair
    assert narrow_gap_count(spec, 12 * np.pi) == 12 * 11 // 2
