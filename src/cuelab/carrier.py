"""Carrier-wave diagnostics for combinations of characteristic polynomials.

Away from an exceptional set of angles, one term of the combination
dominates all others in log-modulus and therefore dictates where the real
rotation G changes sign — the "carrier wave".  This module computes the
normalized log-moduli L_j, the exceptional set where domination fails, the
circle subdivision with its base-angle selection, the roomy/narrow gap
threshold of the subdivision, and the all-pairs narrow-pair counter
chi_eps.  Every log Z value comes from one
:func:`~cuelab.spectra.log_z_grid` call over all spectra of the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import CombinationEnsemble
from .errors import InvalidArgumentError, InvalidConfigError
from .spectra import TWO_PI, EigenangleSpectrum, _check_regular, log_z_grid

__all__ = [
    "CarrierWaveConfig",
    "normalized_logs",
    "exceptional_mask",
    "exceptional_set_measure",
    "carrier_wave_index",
    "subdivision",
    "narrow_gap_threshold",
    "narrow_gap_count",
]

_THETA0_CANDIDATES = 64


def _log_norm(n_dim: int) -> float:
    if n_dim < 2:
        raise InvalidArgumentError("log-modulus normalization requires N >= 2")
    return math.sqrt(0.5 * math.log(n_dim))


def _re_logs_at(ens: CombinationEnsemble, theta: float) -> np.ndarray:
    """Re log Z_j(theta) for each spectrum, raising on an eigenangle."""
    theta = float(theta)
    _check_regular(ens.angles, theta)
    return log_z_grid(ens.angles, theta)[0]


def normalized_logs(ens: CombinationEnsemble, theta: float) -> np.ndarray:
    """L_j(theta) = log|Z_j(theta)| / sqrt(log(N)/2) for each spectrum."""
    norm = _log_norm(ens.dim)
    return _re_logs_at(ens, theta) / norm


def _grid_logs(ens: CombinationEnsemble, thetas) -> np.ndarray:
    """L_j at every theta, shape (n,) + np.shape(thetas); -inf on an eigenangle."""
    return log_z_grid(ens.angles, thetas)[0] / _log_norm(ens.dim)


def _exceptional(logs: np.ndarray, delta: float) -> np.ndarray:
    """E_delta membership from normalized logs of shape (n, ...)."""
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


def exceptional_mask(ens: CombinationEnsemble, delta: float, thetas: np.ndarray) -> np.ndarray:
    """Pointwise membership of thetas in the exceptional set E_delta.

    theta is exceptional iff some |L_i(theta)| >= 1/delta or some pair
    satisfies |L_i - L_j| <= delta.  Both conditions are monotone in delta,
    so membership is pointwise nondecreasing in delta.
    """
    delta = float(delta)
    if not (0.0 < delta < 0.5):
        raise InvalidArgumentError(f"delta must be in (0, 1/2), got {delta!r}")
    return _exceptional(_grid_logs(ens, thetas), delta)


def exceptional_set_measure(ens: CombinationEnsemble, delta: float, grid: int | None = None) -> float:
    """Normalized Lebesgue measure of E_delta, estimated on a uniform grid.

    The grid uses midpoints ((k + 1/2) * 2pi/grid) so that structured
    spectra cannot collide with grid nodes; grid must be >= 64*N.
    """
    if grid is None:
        grid = 64 * ens.dim
    if not isinstance(grid, (int, np.integer)) or grid < 64 * ens.dim:
        raise InvalidArgumentError(f"grid must be an integer >= 64*N = {64 * ens.dim}, got {grid!r}")
    thetas = (np.arange(grid) + 0.5) * (TWO_PI / grid)
    return float(np.mean(exceptional_mask(ens, delta, thetas)))


def carrier_wave_index(ens: CombinationEnsemble, theta: float) -> int:
    """1-based index of the term with the largest Re log Z at theta.

    Ties break to the lowest index.  Raises singular-point if theta sits on
    an eigenangle of any spectrum (where some Re log Z is -inf).
    """
    return int(np.argmax(_re_logs_at(ens, theta))) + 1


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


def narrow_gap_count(spec: EigenangleSpectrum, eps: float) -> int:
    """chi_eps: unordered eigenangle pairs at circular distance <= eps/N."""
    if eps <= 0.0:
        raise InvalidArgumentError(f"eps must be positive, got {eps!r}")
    n = spec.dim
    if n < 2:
        return 0
    a = spec.angles
    d = np.abs(a[:, None] - a[None, :])
    d = np.minimum(d, TWO_PI - d)
    iu = np.triu_indices(n, 1)
    return int(np.sum(d[iu] <= eps / n))
