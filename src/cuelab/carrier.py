"""Carrier-wave diagnostics for combinations of characteristic polynomials.

Away from an exceptional set of angles, one term of the combination
dominates all others in log-modulus and therefore dictates where the real
rotation G changes sign — the "carrier wave".  This module computes the
normalized log-moduli L_j, the exceptional set where domination fails and
the carrier index, the circle subdivision with its base-angle selection,
the roomy/narrow gap threshold of the subdivision, and the narrow-pair
counter chi_eps.

The functions take rows of sorted angles, shape (..., N), and whole
batches of points, as the carrier runner uses them: :func:`normalized_logs`
takes every point in one :func:`~cuelab.spectra.log_z_grid` call over all
rows, and :func:`exceptional_mask` and :func:`carrier_wave_index` read its
(n, ...) array.  :func:`exceptional_grid` measures E_delta and
E_{delta/2} on the 64 N-point grid from each spectrum's coefficients, one
zero-padded FFT per spectrum, and certifies every mask decision; a stack
with a point it cannot certify takes the kernel on the whole grid instead.
A :class:`CarrierWaveConfig` stores N, K and delta; M = N/K and
Delta = 2pi/K are computed from them, and each sample's base angle theta0
comes from :func:`base_angles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigError
from .spectra import TWO_PI, _fft_coefficients, _fft_samples, _log_z_rows, log_z_grid

__all__ = [
    "CarrierWaveConfig",
    "normalized_logs",
    "exceptional_mask",
    "exceptional_grid",
    "carrier_wave_index",
    "subdivision",
    "base_angles",
    "narrow_gap_threshold",
    "narrow_gap_count",
]

_THETA0_CANDIDATES = 64
# Points per eigenangle of the grid on which exceptional_grid measures E_delta.
_GRID_PER_ANGLE = 64
# How many bounds b_j an FFT value's L_j, or b_i + b_j its gap, must sit
# from a threshold for exceptional_grid to take its decision.
_GRID_MARGIN = 3.0
# Padding of the narrow_gap_count search keys: far above the rounding of an
# angle sum, so no pair the exact predicate counts falls outside the search.
_GAP_PAD = 1e-9


def _log_scale(n_dim: int) -> float:
    """sqrt(log(N)/2), the scale of the normalized logs."""
    if n_dim < 2:
        raise InvalidArgumentError("log-modulus normalization requires N >= 2")
    return math.sqrt(0.5 * math.log(n_dim))


def normalized_logs(angles, thetas) -> np.ndarray:
    """L_j(theta) = log|Z_j(theta)| / sqrt(log(N)/2) for each row of angles.

    One kernel call for all rows (..., N) of angles and all points; the
    shape is angles.shape[:-1] + np.shape(thetas), and L_j is -inf where
    theta is an eigenangle of row j.
    """
    angles = np.asarray(angles, dtype=float)
    scale = _log_scale(angles.shape[-1])
    return log_z_grid(angles, thetas)[0] / scale


def _point_logs(angles: np.ndarray, points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`normalized_logs` at flat (row, point) pairs, shape (T, P).

    ``angles`` has shape (S, T, N), and ``points`` and ``rows`` shape (P,):
    point p is taken on the spectra angles[rows[p]], in one kernel call.
    """
    return _log_z_rows(angles, points, rows)[0] / _log_scale(angles.shape[-1])


def _check_delta(delta) -> float:
    delta = float(delta)
    if not (0.0 < delta < 0.5):
        raise InvalidArgumentError(f"delta must be in (0, 1/2), got {delta!r}")
    return delta


def exceptional_mask(logs: np.ndarray, delta: float) -> np.ndarray:
    """Pointwise membership in the exceptional set E_delta.

    ``logs`` holds the normalized logs of shape (n, ...) from
    :func:`normalized_logs`.  A point is exceptional iff some
    |L_i| >= 1/delta or some pair satisfies |L_i - L_j| <= delta.  Both
    conditions are monotone in delta, so membership is pointwise
    nondecreasing in delta.  Every pair i < j is compared; a nan gap (two
    -inf terms) is close.
    """
    delta = _check_delta(delta)
    mask = np.any(np.abs(logs) >= 1.0 / delta, axis=0)
    with np.errstate(invalid="ignore"):
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                mask |= ~(np.abs(logs[i] - logs[j]) > delta)
    return mask


def _grid_logs(samples: np.ndarray, n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """FFT values of L_j on the grid of :func:`exceptional_grid`, and bounds.

    ``samples`` holds log Z of spectra of N angles on L >= 2N + 2 uniform
    points, shape (..., L), from :func:`~cuelab.spectra._fft_samples`: its
    M = 2^k >= 2N + 2 points for :func:`exceptional_grid`, or the carrier
    runner's 8N points, the nodes of its sign scan.  Both results
    have shape (..., G) with G = 64 N.  Z_j(e^{-i phi}) = sum_m c_m e^{-i m phi},
    so the inverse FFT of Z_j at those points gives c_0..c_N, and at
    theta_q = (q + 1/2) 2pi/G, Z_j = sum_m (c_m e^{-i pi m/G}) e^{-2pi i m q/G}
    is one zero-padded length-G FFT.  The value bound is
    e_j = sqrt(N + 1) e_c + 4 log2(G) eps |c_j|_1: the allowance e_c of the
    coefficients' l2 error from :func:`~cuelab.spectra._fft_coefficients`,
    taken against |Z_j|, times sqrt(N + 1) for their l1 error, plus the
    rounding of the forward FFT.  Where e_j < |Z~_j| the bound of L_j is
    -log(1 - e_j/|Z~_j|) / sqrt(log(N)/2); elsewhere it is infinite.
    """
    grid = _GRID_PER_ANGLE * n_dim
    eps = np.finfo(float).eps
    coeffs, noise = _fft_coefficients(np.exp(samples), np.exp(samples.real), n_dim)
    twiddled = coeffs * np.exp(-1j * np.pi / grid * np.arange(n_dim + 1))
    values = np.abs(np.fft.fft(twiddled, n=grid))
    error = (math.sqrt(n_dim + 1) * noise
             + 4.0 * math.log2(grid) * eps * np.sum(np.abs(coeffs), axis=-1))
    scale = _log_scale(n_dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = error[..., None] / values
        bound = np.where(ratio < 1.0, -np.log1p(-ratio) / scale, np.inf)
        return np.log(values) / scale, bound


def _settled_points(logs: np.ndarray, bound: np.ndarray, delta: float) -> np.ndarray:
    """Points whose E_delta membership the bounds decide, from (n, ...) arrays.

    A point is settled when every |L_j| sits more than 3 b_j from 1/delta
    and every |L_i - L_j| more than 3 (b_i + b_j) from delta.
    """
    apart = np.all(np.abs(np.abs(logs) - 1.0 / delta) > _GRID_MARGIN * bound, axis=0)
    with np.errstate(invalid="ignore"):
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                gap = np.abs(np.abs(logs[i] - logs[j]) - delta)
                apart &= gap > _GRID_MARGIN * (bound[i] + bound[j])
    return apart


def exceptional_grid(angles, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """E_delta and E_{delta/2} of each stack row on the grid (q + 1/2) 2pi/(64 N).

    ``angles`` has shape (..., T, N): the T spectra of each row; both masks
    have shape (..., 64 N), as :func:`exceptional_mask` gives them on the
    logs of :func:`normalized_logs` at the grid points.  The logs come from
    each spectrum's coefficients (see :func:`_grid_logs`): O(M N + G log G)
    per spectrum, not the kernel's O(G N).  Every point must be settled for
    both delta and delta/2, every |L_j| more than 3 b_j from the threshold
    and every gap more than 3 (b_i + b_j), so the FFT logs decide as the
    exact ones do.  The bound rests on the calibrated constant of
    :func:`~cuelab.spectra._fft_coefficients`, so it is
    calibrated, not rigorous; the factor 3 also covers the kernel's own
    error, which measures under 0.4 b_j up to N = 512.  If any point of
    the stack is unsettled, the whole stack takes :func:`normalized_logs`
    on the grid instead, so its masks are those of the kernel bit for bit.
    """
    delta = _check_delta(delta)
    angles = np.asarray(angles, dtype=float)
    return _grid_masks(angles, _fft_samples(angles), delta)


def _grid_masks(angles: np.ndarray, samples: np.ndarray, delta: float):
    """:func:`exceptional_grid` on the log Z samples of its spectra (see :func:`_grid_logs`)."""
    logs, bound = (np.moveaxis(part, -2, 0) for part in _grid_logs(samples, angles.shape[-1]))
    if not np.all(_settled_points(logs, bound, delta) & _settled_points(logs, bound, delta / 2.0)):
        grid = _GRID_PER_ANGLE * angles.shape[-1]
        thetas = (np.arange(grid) + 0.5) * (TWO_PI / grid)
        logs = np.moveaxis(normalized_logs(angles, thetas), -2, 0)
    return exceptional_mask(logs, delta), exceptional_mask(logs, delta / 2.0)


def carrier_wave_index(logs: np.ndarray) -> np.ndarray:
    """1-based index of the term with the largest L_j at every point.

    ``logs`` has shape (n, ...) as from :func:`normalized_logs`; ties break
    to the lowest index.  On an eigenangle the index is meaningless, so a
    caller that reads it checks its points with ``spectra._check_regular``.
    """
    return np.argmax(logs, axis=0) + 1


@dataclass
class CarrierWaveConfig:
    """Circle subdivision for carrier-wave bookkeeping.

    K subintervals of length Delta = 2pi/K, the first starting at a
    sample's base angle (see :func:`base_angles`); M = N/K is the mean
    eigenangle count per subinterval; 2 <= K <= N/2 makes M >= 2.
    """

    N: int
    K: int
    delta: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise InvalidConfigError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.K, (int, np.integer)) or not (2 <= self.K <= self.N / 2):
            raise InvalidConfigError(f"K must satisfy 2 <= K <= N/2, got K={self.K!r}, N={self.N}")
        if not (0.0 < self.delta < 0.25):
            raise InvalidConfigError(f"delta must be in (0, 1/4), got {self.delta!r}")

    @property
    def M(self) -> float:
        return self.N / self.K

    @property
    def Delta(self) -> float:
        return TWO_PI / self.K


def _default_subdivision_count(n_dim: int) -> int:
    # nominal K ~ N/(log N)^{3/64}, clamped into the invariant box
    nominal = round(n_dim / math.log(n_dim) ** (3.0 / 64.0))
    return max(2, min(int(nominal), n_dim // 2))


def _default_delta(n_dim: int) -> float:
    # nominal delta ~ (log N)^{-3/32}, clamped strictly below 1/4
    return min(math.log(n_dim) ** (-3.0 / 32.0), float(np.nextafter(0.25, 0.0)))


def subdivision(
    n_dim: int, k_div: int | None = None, delta: float | None = None
) -> CarrierWaveConfig:
    """Build the circle subdivision, defaulting K and delta from N.

    Nominal schedules K ~ N/(log N)^{3/64} and delta ~ (log N)^{-3/32} are
    clamped into the invariant ranges 2 <= K <= N/2 and delta < 1/4 (at
    practical N the nominal values overshoot both).
    """
    if not isinstance(n_dim, (int, np.integer)) or n_dim < 4:
        raise InvalidConfigError(f"subdivision requires integer N >= 4, got {n_dim!r}")
    if k_div is None:
        k_div = _default_subdivision_count(n_dim)
    if delta is None:
        delta = _default_delta(n_dim)
    return CarrierWaveConfig(N=int(n_dim), K=int(k_div), delta=float(delta))


def base_angles(angles, config: CarrierWaveConfig) -> np.ndarray:
    """Empirical base angle theta0 in [0, Delta) of each sample of a stack.

    ``angles`` has shape (S, T, N): the T sorted spectra of each of S
    samples; the result has shape (S,).  For each sample the scan takes the
    one of 64 candidates in [0, Delta) that minimizes the summed endpoint
    increments of Im log Z over the subdivision — sum over spectra and
    subintervals of
    |Im log Z(theta_k + (1 - sqrt(delta)) Delta) - Im log Z(theta_k + sqrt(delta) Delta)| —
    an empirical surrogate for the averaged form that defines theta0.  Each
    increment is pi |#{angles in [lo, hi)} - N (hi - lo)/2pi|, so the scan
    only counts.  A float sum ranks the candidates, ``math.fsum`` decides
    among those within its rounding of the least, so equal counts tie
    exactly, and ties go to the lowest candidate.  The default delta, nextafter(1/4, 0) for
    N < e^(2.6e6), leaves arcs ~1e-16 Delta wide.  An arc no wider than the
    float spacing at 2pi holds no angle short of an exact float
    coincidence, so every candidate ties: the scan is skipped, theta0 = 0.
    """
    angles = np.asarray(angles, dtype=float)
    n_dim = angles.shape[-1]
    big_delta = config.Delta
    lo = math.sqrt(config.delta) * big_delta
    hi = (1.0 - math.sqrt(config.delta)) * big_delta
    if hi - lo <= np.spacing(TWO_PI):
        return np.zeros(len(angles))
    candidates = np.arange(_THETA0_CANDIDATES) * (big_delta / _THETA0_CANDIDATES)
    offsets = np.arange(config.K) * big_delta
    # ends[e, c, k]: endpoint e (0 = lo, 1 = hi) of subinterval k for
    # candidate c; below[s, j, e, c, k] counts the angles of spectrum j of
    # sample s under it.
    base = candidates[:, None] + offsets[None, :]
    ends = np.mod(np.stack([base + lo, base + hi]), TWO_PI)
    below = np.stack([np.searchsorted(row, ends) for row in angles.reshape(-1, n_dim)])
    below = below.reshape(angles.shape[:-1] + below.shape[1:])
    inside = below[:, :, 1] - below[:, :, 0] + n_dim * (ends[1] < ends[0])
    deviations = np.abs(inside - n_dim * (hi - lo) / TWO_PI).swapaxes(1, 2)
    # A float sum of n >= 0 terms is within (n - 1) eps/2 of the exact sum
    # relative to it, so every candidate whose exact sum rounds to the
    # least one sits within 4 n eps of the least float sum; only those are
    # summed exactly.
    scores = deviations.sum(axis=(2, 3))
    slack = 1.0 + 4 * math.prod(deviations.shape[2:]) * np.finfo(float).eps
    near = scores <= scores.min(axis=1, keepdims=True) * slack
    exact = np.full(scores.shape, np.inf)
    for s, c in zip(*np.nonzero(near)):
        exact[s, c] = math.fsum(deviations[s, c].ravel())
    return candidates[np.argmin(exact, axis=1)]


def narrow_gap_threshold(config: CarrierWaveConfig) -> float:
    """(M/N) delta^{-2} (log N)^{-1/4} (log M)^{1/2}, the roomy/narrow cut."""
    return (
        (config.M / config.N)
        * config.delta**-2
        * math.log(config.N) ** -0.25
        * math.sqrt(math.log(config.M))
    )


def narrow_gap_count(spec, eps) -> int | np.ndarray:
    """chi_eps: unordered eigenangle pairs at circular distance <= eps/N.

    ``spec`` is an EigenangleSpectrum, or sorted angles in [0, 2pi) of
    shape (N,) or (n, N), one spectrum per row.  Within a row the partners
    j > i of angle i lie in a run just above it and, across the 0/2pi seam,
    in a run at the top of the circle.  One ``searchsorted`` over all rows
    finds both runs: the key of angle a in row r is the complex number
    r + i a, which numpy orders lexicographically, so no run leaves its
    row.  The angle keys are padded by 1e-9, and the all-pairs predicate
    min(d, 2pi - d) <= eps/N then decides each candidate, so the count is
    the all-pairs count exactly while only nearby pairs are ever formed.
    ``eps`` may be one value or a 1-D array: the runs are searched once,
    at the largest eps, and every threshold decides the same candidates.
    The result has shape ``angles.shape[:-1] + eps.shape``, and is an int
    for one spectrum and one eps.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim > 1 or eps.size == 0 or not np.all(eps > 0.0):
        raise InvalidArgumentError(f"eps must be positive, got {eps.tolist()!r}")
    angles = np.asarray(getattr(spec, "angles", spec), dtype=float)
    rows = angles.reshape(-1, angles.shape[-1])
    m, n = rows.shape
    thresholds = np.reshape(eps / n, (-1, 1))
    counts = np.zeros((len(thresholds), m), dtype=int)
    if n >= 2:
        widest = float(np.max(thresholds)) + _GAP_PAD
        label = np.repeat(np.arange(m), n)
        a = rows.ravel()
        keys = label + 1j * a
        # candidate partners of angle k: [k+1, near[k]) and [seam[k], end[k])
        above = np.arange(1, m * n + 1)
        end = (label + 1) * n
        near = np.maximum(np.searchsorted(keys, label + 1j * (a + widest), side="right"), above)
        seam = np.maximum(np.searchsorted(keys, label + 1j * (a + (TWO_PI - widest))), near)
        starts = np.concatenate([above, seam])
        lengths = np.concatenate([near, end]) - starts
        first = np.repeat(np.tile(np.arange(m * n), 2), lengths)
        second = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        d = np.abs(a[first] - a[second])
        d = np.minimum(d, TWO_PI - d)
        for counted, hits in zip(counts, d <= thresholds):
            counted[:] = np.bincount(label[first[hits]], minlength=m)
    counts = np.moveaxis(counts, 0, -1).reshape(angles.shape[:-1] + eps.shape)
    return int(counts) if counts.ndim == 0 else counts
