"""Carrier-wave diagnostics for combinations of characteristic polynomials.

Away from an exceptional set of angles, one term of the combination
dominates all others in log-modulus and therefore dictates where the real
rotation G changes sign — the "carrier wave".  This module computes the
normalized log-moduli L_j, the exceptional set where domination fails and
the carrier index, the circle subdivision with its base-angle selection,
the roomy/narrow gap threshold of the subdivision, and the narrow-pair
counter chi_eps.

The L_j functions work on whole batches of points, as the carrier runner
uses them: :func:`normalized_logs` takes every point in one
:func:`~cuelab.spectra.log_z_grid` call over all spectra of the ensemble,
and :func:`exceptional_mask` and :func:`carrier_wave_index` read its
(n, ...) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import CombinationEnsemble
from .errors import InvalidArgumentError, InvalidConfigError
from .spectra import TWO_PI, EigenangleSpectrum, log_z_grid

__all__ = [
    "CarrierWaveConfig",
    "normalized_logs",
    "exceptional_mask",
    "carrier_wave_index",
    "subdivision",
    "narrow_gap_threshold",
    "narrow_gap_count",
]

_THETA0_CANDIDATES = 64
# Padding of the narrow_gap_count search keys: far above the rounding of an
# angle sum, so no pair the exact predicate counts falls outside the search.
_GAP_PAD = 1e-9


def normalized_logs(ens: CombinationEnsemble, thetas) -> np.ndarray:
    """L_j(theta) = log|Z_j(theta)| / sqrt(log(N)/2) for each spectrum.

    One kernel call for all spectra and points; the shape is
    (n,) + np.shape(thetas), and L_j is -inf where theta is an eigenangle
    of spectrum j.
    """
    if ens.dim < 2:
        raise InvalidArgumentError("log-modulus normalization requires N >= 2")
    return log_z_grid(ens.angles, thetas)[0] / math.sqrt(0.5 * math.log(ens.dim))


def exceptional_mask(logs: np.ndarray, delta: float) -> np.ndarray:
    """Pointwise membership in the exceptional set E_delta.

    ``logs`` holds the normalized logs of shape (n, ...) from
    :func:`normalized_logs`.  A point is exceptional iff some
    |L_i| >= 1/delta or some pair satisfies |L_i - L_j| <= delta.  Both
    conditions are monotone in delta, so membership is pointwise
    nondecreasing in delta.
    """
    delta = float(delta)
    if not (0.0 < delta < 0.5):
        raise InvalidArgumentError(f"delta must be in (0, 1/2), got {delta!r}")
    mask = np.any(np.abs(logs) >= 1.0 / delta, axis=0)
    n = logs.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            # nan arises only when both terms are -inf (shared eigenangle);
            # such points are already exceptional via the first condition.
            with np.errstate(invalid="ignore"):
                diff = np.abs(logs[i] - logs[j])
            mask |= np.where(np.isnan(diff), True, diff <= delta)
    return mask


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

    K subintervals of length Delta = 2pi/K starting at theta0; M = N/K is
    the mean eigenangle count per subinterval.
    """

    N: int
    K: int
    M: float
    delta: float
    Delta: float
    theta0: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise InvalidConfigError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.K, (int, np.integer)) or not (2 <= self.K <= self.N / 2):
            raise InvalidConfigError(f"K must satisfy 2 <= K <= N/2, got K={self.K!r}, N={self.N}")
        if self.M < 2 or abs(self.M - self.N / self.K) > 1e-12:
            raise InvalidConfigError(f"M must equal N/K >= 2, got {self.M!r}")
        if not (0.0 < self.delta < 0.25):
            raise InvalidConfigError(f"delta must be in (0, 1/4), got {self.delta!r}")
        if abs(self.Delta * self.K - TWO_PI) > 1e-12:
            raise InvalidConfigError("Delta * K must equal 2pi")

    def theta_k(self, k):
        """Left endpoint of subinterval k (k may equal K: the wrap point).

        k may also be an integer array, giving one endpoint per entry.
        """
        return self.theta0 + self.Delta * k


def _default_subdivision_count(n_dim: int) -> int:
    # nominal K ~ N/(log N)^{3/64}, clamped into the invariant box
    nominal = round(n_dim / math.log(n_dim) ** (3.0 / 64.0))
    return max(2, min(int(nominal), n_dim // 2))


def _default_delta(n_dim: int) -> float:
    # nominal delta ~ (log N)^{-3/32}, clamped strictly below 1/4
    return min(math.log(n_dim) ** (-3.0 / 32.0), float(np.nextafter(0.25, 0.0)))


def _select_theta0(ens: CombinationEnsemble, k_div: int, delta: float) -> float:
    """Empirical base-angle selection over 64 candidates in [0, Delta).

    Minimizes the summed endpoint increments of Im log Z over the
    subdivision — sum over spectra and subintervals of
    |Im log Z(theta_k + (1 - sqrt(delta)) Delta) - Im log Z(theta_k + sqrt(delta) Delta)| —
    an empirical surrogate for the averaged form that defines theta0.
    """
    big_delta = TWO_PI / k_div
    candidates = np.arange(_THETA0_CANDIDATES) * (big_delta / _THETA0_CANDIDATES)
    offsets = np.arange(k_div) * big_delta
    lo = math.sqrt(delta) * big_delta
    hi = (1.0 - math.sqrt(delta)) * big_delta
    # ends[e, c, k]: endpoint e (0 = lo, 1 = hi) of subinterval k for
    # candidate c; im[j, e, c, k] is Im log Z of spectrum j there.
    base = candidates[:, None] + offsets[None, :]
    ends = np.stack([base + lo, base + hi])
    _, im = log_z_grid(ens.angles, ends)
    scores = np.sum(np.sum(np.abs(im[:, 1] - im[:, 0]), axis=2), axis=0)
    return float(candidates[int(np.argmin(scores))])


def subdivision(
    n_dim: int,
    k_div: int | None = None,
    delta: float | None = None,
    ens: CombinationEnsemble | None = None,
) -> CarrierWaveConfig:
    """Build the circle subdivision, defaulting K and delta from N.

    Nominal schedules K ~ N/(log N)^{3/64} and delta ~ (log N)^{-3/32} are
    clamped into the invariant ranges 2 <= K <= N/2 and delta < 1/4 (at
    practical N the nominal values overshoot both).  With an ensemble
    supplied, theta0 is chosen by the empirical 64-candidate scan;
    otherwise theta0 = 0.
    """
    if not isinstance(n_dim, (int, np.integer)) or n_dim < 4:
        raise InvalidConfigError(f"subdivision requires integer N >= 4, got {n_dim!r}")
    if k_div is None:
        k_div = _default_subdivision_count(n_dim)
    if delta is None:
        delta = _default_delta(n_dim)
    delta = float(delta)
    theta0 = 0.0
    if ens is not None:
        if ens.dim != n_dim:
            raise InvalidConfigError(f"ensemble dim {ens.dim} != N = {n_dim}")
        theta0 = _select_theta0(ens, int(k_div), delta)
    return CarrierWaveConfig(
        N=int(n_dim),
        K=int(k_div),
        M=n_dim / int(k_div),
        delta=delta,
        Delta=TWO_PI / int(k_div),
        theta0=theta0,
    )


def narrow_gap_threshold(config: CarrierWaveConfig, c_prime: float = 1.0) -> float:
    """c' (M/N) delta^{-2} (log N)^{-1/4} (log M)^{1/2}, the roomy/narrow cut."""
    if c_prime <= 0.0:
        raise InvalidArgumentError(f"c_prime must be positive, got {c_prime!r}")
    return (
        c_prime
        * (config.M / config.N)
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
    angles = np.asarray(spec.angles if isinstance(spec, EigenangleSpectrum) else spec, dtype=float)
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
