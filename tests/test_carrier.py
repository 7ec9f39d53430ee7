"""Circle subdivision, exceptional sets, carrier indices, and narrow gaps."""

import math
import warnings

import numpy as np
import pytest

import cuelab.spectra
from cuelab import RngStream, carrier, experiments, haar_special_unitary, haar_unitary
from cuelab.carrier import (
    CarrierWaveConfig,
    base_angles,
    carrier_wave_index,
    exceptional_grid,
    exceptional_mask,
    narrow_gap_count,
    narrow_gap_threshold,
    normalized_logs,
    subdivision,
)
from cuelab.ensembles import CombinationEnsemble
from cuelab.errors import InvalidArgumentError, InvalidConfigError
from cuelab.experiments import ExperimentConfig, run_carrier_diagnostics
from cuelab.results import to_json_text
from cuelab.spectra import EigenangleSpectrum, _fft_samples, eigenangles, log_z

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


@pytest.mark.parametrize("n_dim", [4, 8, 32, 200, 1000])
def test_subdivision_clamps_into_invariant_ranges(n_dim):
    cfg = subdivision(n_dim)
    assert 2 <= cfg.K <= n_dim // 2
    assert 0 < cfg.delta < 0.25
    assert cfg.M >= 2


def test_subdivision_scan_picks_theta0_inside_first_window():
    ens = su_ensemble(2, 16, salt=1)
    cfg = subdivision(16, delta=0.2)
    assert 0.0 <= base_angles(ens.angles[None], cfg)[0] < cfg.Delta


def brute_force_theta0(ens, k_div, delta):
    # the scan from its definition: per candidate, spectrum and subinterval,
    # |#angles in [lo, hi) - N (hi - lo)/2pi| by direct comparison; the
    # lowest candidate wins a tie
    big = 2 * np.pi / k_div
    candidates = np.arange(64) * (big / 64)
    lo, hi = np.sqrt(delta) * big, (1.0 - np.sqrt(delta)) * big
    mean = ens.dim * (hi - lo) / (2 * np.pi)
    scores = []
    for c in candidates:
        deviations = []
        for k in range(k_div):
            a, b = np.mod(c + k * big + lo, 2 * np.pi), np.mod(c + k * big + hi, 2 * np.pi)
            for angles in ens.angles:
                inside = (angles >= a) & (angles < b) if a <= b else (angles >= a) | (angles < b)
                deviations.append(abs(int(np.count_nonzero(inside)) - mean))
        scores.append(math.fsum(deviations))
    return float(candidates[scores.index(min(scores))])


def test_subdivision_scan_equals_brute_force_count():
    # one stacked scan over four samples, each equal to its own brute force
    ensembles = [su_ensemble(3, 64, salt=salt) for salt in range(2, 6)]
    cfg = subdivision(64, delta=0.05)
    theta0 = base_angles(np.stack([ens.angles for ens in ensembles]), cfg)
    assert theta0.tolist() == [brute_force_theta0(ens, cfg.K, 0.05) for ens in ensembles]


def test_subdivision_scan_at_default_delta_is_a_tie_at_zero(monkeypatch):
    # the default delta is nextafter(1/4, 0): the scanned arcs are about
    # 1e-16 Delta wide, under the float spacing at 2pi, and hold no angle,
    # so every candidate ties and the scan is skipped
    ensembles = [su_ensemble(3, 64, salt=salt) for salt in range(6, 12)]
    cfg = subdivision(64)
    for ens in ensembles:
        theta0 = base_angles(ens.angles[None], cfg)[0]
        assert theta0 == brute_force_theta0(ens, cfg.K, cfg.delta) == 0.0
    monkeypatch.setattr(np, "searchsorted", None)  # the scan's counting call
    for ens in ensembles:
        assert base_angles(ens.angles[None], cfg)[0] == 0.0


def test_subdivision_scan_ignores_rounding_sized_moves():
    for salt in range(2, 6):
        ens = su_ensemble(3, 64, salt=salt)
        moved = CombinationEnsemble(
            ens.coefficients,
            [EigenangleSpectrum(spec.angles + 1e-15, spec.det_phase) for spec in ens.spectra],
        )
        for delta in (0.05, 0.2):
            theta0 = base_angles(ens.angles[None], subdivision(64, delta=delta))[0]
            assert base_angles(moved.angles[None], subdivision(64, delta=delta))[0] == theta0


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
    # M = N/K and Delta = 2pi/K are derived; 2 <= K <= N/2 keeps M >= 2
    cfg = CarrierWaveConfig(N=8, K=4, delta=0.2)
    assert cfg.M == 2.0 and cfg.Delta == 2 * np.pi / 4
    for k_div in (1, 5):
        with pytest.raises(InvalidConfigError):
            CarrierWaveConfig(N=8, K=k_div, delta=0.2)


def test_narrow_gap_threshold_scaling():
    cfg = subdivision(64, delta=0.2)
    assert narrow_gap_threshold(cfg) == pytest.approx(0.4554687478042829, rel=1e-10)


# ---------------------------------------------------------------------------
# normalized logs, exceptional set, carrier index
# ---------------------------------------------------------------------------


def test_normalized_logs_shape_and_scale():
    ens = su_ensemble(3, 16, salt=2)
    theta = 1.2345
    logs = normalized_logs(ens.angles, theta)
    assert logs.shape == (3,)
    norm = np.sqrt(np.log(16) / 2.0)
    direct = np.array([log_z(spec, theta).re for spec in ens.spectra]) / norm
    np.testing.assert_allclose(logs, direct, atol=1e-12)
    # a batch of points: one row per spectrum, in the points' shape
    thetas = np.array([[0.1, 2.0, 4.0], [theta, 5.0, 6.0]])
    grid = normalized_logs(ens.angles, thetas)
    assert grid.shape == (3, 2, 3)
    np.testing.assert_allclose(grid[:, 1, 0], logs, atol=1e-12)


def test_normalized_logs_singular_on_eigenangle():
    ens = su_ensemble(2, 8, salt=3)
    logs = normalized_logs(ens.angles, float(ens.spectra[0].angles[2]))
    assert logs[0] == -np.inf
    assert np.isfinite(logs[1])


def test_exceptional_mask_flags_singular_points_and_grows_with_delta():
    ens = su_ensemble(2, 16, salt=4)
    logs = normalized_logs(ens.angles, np.linspace(0.01, 2 * np.pi - 0.01, 257))
    small = exceptional_mask(logs, 0.05)
    large = exceptional_mask(logs, 0.2)
    assert small.dtype == bool
    assert small.shape == (257,)
    assert np.all(large[small])  # pointwise monotone in delta
    # a grid point exactly on an eigenangle is always exceptional
    on_angle = normalized_logs(ens.angles, ens.spectra[0].angles[:1])
    assert exceptional_mask(on_angle, 0.05)[0]
    for delta in (0.0, 0.5):
        with pytest.raises(InvalidArgumentError):
            exceptional_mask(logs, delta)


def pairwise_exceptional_mask(logs, delta):
    # the definition: some |L_i| >= 1/delta or some pair within delta, a
    # nan difference (two -inf terms) counting as within
    mask = np.any(np.abs(logs) >= 1.0 / delta, axis=0)
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            with np.errstate(invalid="ignore"):
                diff = np.abs(logs[i] - logs[j])
            mask |= np.isnan(diff) | (diff <= delta)
    return mask


def test_exceptional_mask_equals_the_pairwise_definition():
    # random logs with ties, exact -inf points and values near 1/delta
    g = RngStream(SEED, 23).generator()
    cases = 0
    for n_terms in (1, 2, 3, 5):
        for delta in (0.05, 0.1, 0.2, 0.3):
            for _ in range(250):
                logs = g.normal(0.0, 2.0, size=(n_terms, 40))
                if n_terms > 1:
                    tied = g.random(40) < 0.2
                    logs[1, tied] = logs[0, tied] + g.choice([0.0, delta, -delta], tied.sum())
                logs[g.random(logs.shape) < 0.1] = -np.inf
                logs[g.random(logs.shape) < 0.05] = 1.0 / delta
                np.testing.assert_array_equal(
                    exceptional_mask(logs, delta), pairwise_exceptional_mask(logs, delta))
                cases += 1
    assert cases == 4000


def test_exceptional_mask_quiet_on_shared_eigenangle():
    # both terms are -inf at a shared eigenangle; their difference is nan,
    # which the mask expects, so no RuntimeWarning may escape
    spec = su_ensemble(1, 8, salt=17).spectra[0]
    ens = CombinationEnsemble(np.array([1.0, 2.0]), [spec, spec])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = exceptional_mask(normalized_logs(ens.angles, spec.angles[:1]), 0.05)
    assert mask[0]


def test_exceptional_measure_bounds_and_monotonicity():
    # the measure lambda(E_delta) / 2pi on the carrier runner's grid: the
    # midpoints of 64 N equal cells
    ens = su_ensemble(2, 16, salt=5)
    grid = 64 * 16
    logs = normalized_logs(ens.angles, (np.arange(grid) + 0.5) * (2 * np.pi / grid))
    measures = [float(exceptional_mask(logs, d).mean()) for d in (0.05, 0.1, 0.2)]
    for m in measures:
        assert 0.0 <= m <= 1.0
    assert measures[0] <= measures[1] <= measures[2]


def grid_points(n_dim):
    grid = 64 * n_dim
    return (np.arange(grid) + 0.5) * (2 * np.pi / grid)


def kernel_grid_logs(angles):
    # the route exceptional_grid falls back to: the kernel on the whole grid,
    # terms first
    return np.moveaxis(normalized_logs(angles, grid_points(angles.shape[-1])), -2, 0)


@pytest.mark.parametrize("n_dim, n_terms, rows", [(64, 3, 2), (16, 2, 64), (128, 2, 1)])
def test_grid_logs_do_not_depend_on_the_call(n_dim, n_terms, rows):
    # every value sums its N terms in one order whatever else the call
    # holds: per-sample calls on the 64 N grid equal one stacked call bit
    # for bit, and so does each point evaluated beside one other
    gen = RngStream(SEED, 40 + n_dim).generator()
    angles = experiments._su_spectra(gen, rows, n_dim, n_terms)
    thetas = grid_points(n_dim)
    stacked = normalized_logs(angles, thetas)
    for sample, logs in zip(angles, stacked):
        np.testing.assert_array_equal(normalized_logs(sample, thetas), logs)
    for q in range(0, thetas.size, 2):
        np.testing.assert_array_equal(normalized_logs(angles, thetas[q:q + 2]),
                                      stacked[..., q:q + 2])


def counting_grid_calls(monkeypatch):
    # normalized_logs calls on exceptional_grid's whole grid
    calls = []

    def counting(angles, thetas):
        if np.shape(thetas) == (64 * np.shape(angles)[-1],):
            calls.append(np.shape(angles))
        return real(angles, thetas)

    real = carrier.normalized_logs
    monkeypatch.setattr(carrier, "normalized_logs", counting)
    return calls


def test_exceptional_grid_equals_the_kernel_masks(monkeypatch):
    # 378 samples from N = 8 to 256 with one to three terms: the FFT logs
    # sit within their bound of the kernel's, every point is settled, and
    # the masks at four deltas and their halves are the kernel's
    calls = counting_grid_calls(monkeypatch)
    samples = 0
    for n_dim in (8, 16, 32, 64, 128, 256):
        for n_terms in (1, 2, 3):
            gen = RngStream(SEED, 900 + 3 * n_dim + n_terms).generator()
            angles = experiments._su_spectra(gen, 512 // n_dim, n_dim, n_terms)
            kernel = kernel_grid_logs(angles)
            # the standalone grid M = 2^k >= 2N + 2 and the runners' 8 N
            for base in (1, 8 * n_dim):
                logs, bound = carrier._grid_logs(_fft_samples(angles, base), n_dim)
                assert np.all(np.abs(np.moveaxis(logs, -2, 0) - kernel)
                              <= np.moveaxis(bound, -2, 0))
            for delta in (subdivision(n_dim).delta, 0.05, 0.1, 0.2):
                masks = exceptional_grid(angles, delta)
                for got, scale in zip(masks, (1.0, 0.5)):
                    np.testing.assert_array_equal(got, exceptional_mask(kernel, scale * delta))
            samples += len(angles)
    assert samples == 378
    assert calls == []


def test_exceptional_grid_falls_back_on_points_at_a_threshold(monkeypatch):
    # delta set to the kernel's |L_0 - L_1| at a grid point, or 1/delta to
    # its |L_0|: the point cannot be settled, and the whole stack takes
    # the kernel, so its masks are the kernel's bit for bit
    calls = counting_grid_calls(monkeypatch)
    gen = RngStream(SEED, 31).generator()
    angles = experiments._su_spectra(gen, 3, 32, 2)
    kernel = kernel_grid_logs(angles)
    parts = carrier._grid_logs(_fft_samples(angles), 32)
    logs, bound = (np.moveaxis(part, -2, 0) for part in parts)
    gaps, peaks = np.abs(kernel[0] - kernel[1]), np.abs(kernel[0])
    picked = []
    for values, to_delta in ((gaps, lambda v: v), (peaks, lambda v: 1.0 / v)):
        inside = np.argwhere((to_delta(values) > 0.01) & (to_delta(values) < 0.45))
        picked += [(to_delta(values[s, q]), s, q) for s, q in inside[:: len(inside) // 5][:5]]
    assert len(picked) == 10
    for delta, s, q in picked:
        assert not carrier._settled_points(logs, bound, delta)[s, q]
        calls.clear()
        masks = exceptional_grid(angles, delta)
        assert calls == [angles.shape]
        for got, scale in zip(masks, (1.0, 0.5)):
            np.testing.assert_array_equal(got, exceptional_mask(kernel, scale * delta))


def test_carrier_runner_takes_the_kernel_grid_only_on_a_fallback(monkeypatch):
    # no kernel call of one row and 64 N points unless a block falls back;
    # with every bound infinite every block falls back, one kernel call
    # on the grid each, and the records keep their bytes
    rows = []
    real_rows = cuelab.spectra._log_z_rows

    def counting(angles, points, point_rows):
        rows.append(len(angles) == 1 and np.size(points) == 64 * np.shape(angles)[-1])
        return real_rows(angles, points, point_rows)

    monkeypatch.setattr(cuelab.spectra, "_log_z_rows", counting)
    configs = [
        ExperimentConfig(experiment="carrier", dims=(16,), samples=70, seed=3, delta=0.1,
                         coefficients=(1.0, 1.0), workers=1),
        ExperimentConfig(experiment="carrier", dims=(64,), samples=4, seed=5,
                         coefficients=(1.0, 2.0, 3.0), workers=1),
    ]
    records = [to_json_text(run_carrier_diagnostics(cfg)) for cfg in configs]
    assert rows and not any(rows)

    def unbounded(samples, n_dim):
        logs, bound = grid_logs(samples, n_dim)
        return logs, np.full(bound.shape, np.inf)

    grid_logs = carrier._grid_logs
    monkeypatch.setattr(carrier, "_grid_logs", unbounded)
    for cfg, record, blocks in zip(configs, records, (2, 2)):
        rows.clear()
        assert to_json_text(run_carrier_diagnostics(cfg)) == record
        assert sum(rows) == blocks


def test_exceptional_grid_checks_its_arguments():
    angles = su_ensemble(2, 16, salt=9).angles
    for delta in (0.0, 0.5):
        with pytest.raises(InvalidArgumentError):
            exceptional_grid(angles, delta)
    with pytest.raises(InvalidArgumentError):
        exceptional_grid(np.zeros((2, 1)), 0.1)
    mask, half = exceptional_grid(angles, 0.2)
    assert mask.shape == half.shape == (64 * 16,)
    assert np.all(mask[half])


def test_carrier_index_is_argmax_one_based():
    ens = su_ensemble(3, 16, salt=6)
    g = RngStream(SEED, 7).generator()
    thetas = g.uniform(0.0, 2 * np.pi, size=12)
    idx = carrier_wave_index(normalized_logs(ens.angles, thetas))
    assert idx.shape == (12,)
    for theta, i in zip(thetas, idx):
        direct = [log_z(spec, float(theta)).re for spec in ens.spectra]
        assert i == int(np.argmax(direct)) + 1
        assert 1 <= i <= 3


def test_single_term_carrier_is_trivial():
    ens = su_ensemble(1, 8, salt=8)
    idx = carrier_wave_index(normalized_logs(ens.angles, np.array([0.3, 2.2, 5.1])))
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
