"""Circle subdivision, exceptional sets, carrier indices, and narrow gaps."""

import warnings

import numpy as np
import pytest

from cuelab import RngStream, haar_special_unitary
from cuelab.carrier import (
    CarrierWaveConfig,
    carrier_wave_index,
    exceptional_mask,
    exceptional_set_measure,
    narrow_gap_count,
    narrow_gap_threshold,
    normalized_logs,
    subdivision,
)
from cuelab.ensembles import CombinationEnsemble
from cuelab.errors import InvalidArgumentError, InvalidConfigError, SingularPointError
from cuelab.spectra import eigenangles

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
    from cuelab.spectra import log_z

    direct = np.array([log_z(spec, theta).re for spec in ens.spectra]) / norm
    np.testing.assert_allclose(logs, direct, atol=1e-12)


def test_normalized_logs_singular_on_eigenangle():
    ens = su_ensemble(2, 8, salt=3)
    with pytest.raises(SingularPointError):
        normalized_logs(ens, float(ens.spectra[0].angles[2]))


def test_exceptional_mask_flags_singular_points_and_grows_with_delta():
    ens = su_ensemble(2, 16, salt=4)
    thetas = np.linspace(0.01, 2 * np.pi - 0.01, 257)
    small = exceptional_mask(ens, 0.05, thetas)
    large = exceptional_mask(ens, 0.2, thetas)
    assert small.dtype == bool
    assert np.all(large[small])  # pointwise monotone in delta
    # a grid point exactly on an eigenangle is always exceptional
    on_angle = np.array([float(ens.spectra[0].angles[0])])
    assert exceptional_mask(ens, 0.05, on_angle)[0]


def test_exceptional_mask_quiet_on_shared_eigenangle():
    # both terms are -inf at a shared eigenangle; their difference is nan,
    # which the mask expects, so no RuntimeWarning may escape
    spec = su_ensemble(1, 8, salt=17).spectra[0]
    ens = CombinationEnsemble(np.array([1.0, 2.0]), [spec, spec])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = exceptional_mask(ens, 0.05, spec.angles[:1])
    assert mask[0]


def test_exceptional_measure_bounds_and_monotonicity():
    ens = su_ensemble(2, 16, salt=5)
    measures = [exceptional_set_measure(ens, d) for d in (0.05, 0.1, 0.2)]
    for m in measures:
        assert 0.0 <= m <= 2 * np.pi
    assert measures[0] <= measures[1] <= measures[2]


def test_exceptional_measure_grid_validation():
    ens = su_ensemble(2, 16, salt=5)
    with pytest.raises(InvalidArgumentError):
        exceptional_set_measure(ens, 0.2, grid=512)  # below 64 * N
    fine = exceptional_set_measure(ens, 0.2, grid=1 << 14)
    coarse = exceptional_set_measure(ens, 0.2, grid=1024)
    assert abs(fine - coarse) < 0.05


def test_carrier_index_is_argmax_one_based():
    ens = su_ensemble(3, 16, salt=6)
    g = RngStream(SEED, 7).generator()
    for theta in g.uniform(0.0, 2 * np.pi, size=12):
        idx = carrier_wave_index(ens, float(theta))
        logs = normalized_logs(ens, float(theta))
        assert idx == int(np.argmax(logs)) + 1
        assert 1 <= idx <= 3


def test_single_term_carrier_is_trivial():
    ens = su_ensemble(1, 8, salt=8)
    for theta in (0.3, 2.2, 5.1):
        assert carrier_wave_index(ens, theta) == 1


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


def test_narrow_gap_count_extremes():
    g = RngStream(SEED, 11).generator()
    spec = eigenangles(haar_special_unitary(12, 0.0, g)[0])
    with pytest.raises(InvalidArgumentError):
        narrow_gap_count(spec, 0.0)
    # eps / N >= pi covers every pair
    assert narrow_gap_count(spec, 12 * np.pi) == 12 * 11 // 2
