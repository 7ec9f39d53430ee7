"""Eigenangles and characteristic-polynomial values on the unit circle.

For a unitary U with eigenangles theta_1..theta_N, the object of study is

    Z_U(t) = det(I - e^{-it} U) = prod_j (1 - e^{i(theta_j - t)}),

together with its logarithm under a fixed branch convention: log Z is the
*sum of per-factor principal branches*, never re-reduced mod 2pi.  Each
factor satisfies log(1 - e^{iv}) = log(2 sin(v/2)) + i (v - pi)/2 for
v in (0, 2pi), which is the identity everything here is built on: it gives
stable evaluation, the zero-counting formula on arcs, and agreement with
the reflection-chain evaluation of log Z(0).

:func:`log_z_grid` is the one kernel that evaluates this sum over
(eigenangles x points), for one spectrum or a stack of them; every value of
Z or log Z on the circle in the package comes from it.  Z itself is only
ever formed as exp(log Z), so no partial product can overflow at large N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericalFailureError,
    SingularPointError,
)
from .sampling import ReflectionChain, UnitaryMatrix

__all__ = [
    "EigenangleSpectrum",
    "LogZ",
    "eigenangles",
    "log_z_grid",
    "log_z",
    "arc_count_value",
    "count_in_arc",
    "count_in_circular_arc",
    "log_z_from_chain",
    "trace_series_partial",
]

TWO_PI = 2.0 * np.pi

# How close (circularly) an evaluation point may come to an eigenangle
# before log Z is treated as singular.
_SINGULAR_TOL = 1e-12
# Most (angles x points) elements log_z_grid holds in one temporary array.
_GRID_BLOCK = 1 << 18


def _wrap_angles(values: np.ndarray) -> np.ndarray:
    """Reduce to [0, 2pi), mapping the rounding artifact mod==2pi to 0."""
    out = np.mod(values, TWO_PI)
    out[out >= TWO_PI] = 0.0
    return out


@dataclass
class EigenangleSpectrum:
    """Sorted eigenangles of a unitary matrix, with the determinant phase.

    ``angles`` lie in [0, 2pi) with multiplicity; ``det_phase`` is
    arg(det U) in [0, 2pi) and must equal the angle sum mod 2pi.
    """

    angles: np.ndarray
    det_phase: float

    def __post_init__(self):
        self.angles = np.sort(np.asarray(self.angles, dtype=np.float64))
        self.det_phase = float(self.det_phase)

    @property
    def dim(self) -> int:
        return len(self.angles)

    @classmethod
    def from_angles(cls, angles) -> "EigenangleSpectrum":
        """Build a spectrum from raw angles, deriving the determinant phase."""
        wrapped = _wrap_angles(np.asarray(angles, dtype=np.float64))
        return cls(wrapped, float(np.mod(np.sum(wrapped), TWO_PI)))

    def check(self, tol: float = 1e-6) -> "EigenangleSpectrum":
        if self.dim < 1:
            raise InvalidArgumentError("spectrum must contain at least one angle")
        if np.any(self.angles < 0.0) or np.any(self.angles >= TWO_PI):
            raise InvalidArgumentError("angles must lie in [0, 2pi)")
        gap = (np.sum(self.angles) - self.det_phase) / TWO_PI
        if abs(gap - round(gap)) * TWO_PI > tol:
            raise NumericalFailureError(
                f"angle sum and det phase disagree by {abs(gap - round(gap)) * TWO_PI:.3e}"
            )
        return self


@dataclass
class LogZ:
    """log Z under the summed-principal-branch convention.

    ``re`` is in natural-log units; ``im`` is in radians and is *not*
    reduced mod 2pi — it is the sum of per-factor branches, each lying in
    (-pi/2, pi/2).
    """

    re: float
    im: float

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def eigenangles(u_mat: UnitaryMatrix) -> EigenangleSpectrum:
    """Extract the eigenangle spectrum of a unitary matrix.

    Uses dense LAPACK eigenvalues; the determinant phase comes from an
    independent LU factorization (slogdet), and the construction fails
    loudly if the two disagree beyond the spectrum invariant.
    """
    try:
        eigs = np.linalg.eigvals(u_mat.entries)
    except np.linalg.LinAlgError as exc:  # non-convergence
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    moduli = np.abs(eigs)
    if np.max(np.abs(moduli - 1.0)) > 1e-8 * u_mat.dim:
        raise NumericalFailureError(
            f"eigenvalue moduli deviate from 1 by {np.max(np.abs(moduli - 1.0)):.3e}"
        )
    angles = _wrap_angles(np.angle(eigs))
    sign, _ = np.linalg.slogdet(u_mat.entries)
    det_phase = float(np.mod(np.angle(sign), TWO_PI))
    spec = EigenangleSpectrum(angles, det_phase)
    return spec.check()


def log_z_grid(angles, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(Re log Z, Im log Z) of every spectrum in ``angles`` at every theta.

    ``angles`` holds one spectrum's eigenangles, shape (N,), or a stack of
    them, shape (n, N); the results have shape
    ``angles.shape[:-1] + np.shape(thetas)``.  With v = (theta_k - t) mod 2pi,
    Re = sum log|2 sin(v/2)|, which is -inf on an eigenangle (no warning),
    and Im = sum (v - pi)/2.  The points are walked in blocks so that no
    temporary holds more than 2^18 elements.
    """
    angles = np.asarray(angles, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    points = thetas.ravel()
    re = np.empty(angles.shape[:-1] + points.shape)
    im = np.empty_like(re)
    step = max(1, _GRID_BLOCK // max(1, angles.size))
    with np.errstate(divide="ignore"):
        for lo in range(0, len(points), step):
            v = np.mod(angles[..., :, None] - points[lo:lo + step], TWO_PI)
            re[..., lo:lo + step] = np.sum(np.log(np.abs(2.0 * np.sin(0.5 * v))), axis=-2)
            im[..., lo:lo + step] = np.sum(0.5 * (v - np.pi), axis=-2)
    shape = angles.shape[:-1] + thetas.shape
    return re.reshape(shape), im.reshape(shape)


def _check_regular(angles, t) -> None:
    """Raise SingularPointError if t is within 1e-12 of an eigenangle.

    t may be one point or an array of points.
    """
    points = np.ravel(t)
    v = np.mod(np.asarray(angles)[..., None] - points, TWO_PI)
    near = np.minimum(v, TWO_PI - v) < _SINGULAR_TOL
    if np.any(near):
        bad = float(points[np.nonzero(near)[-1][0]])
        raise SingularPointError(f"t = {bad!r} coincides with an eigenangle")


def log_z(spec: EigenangleSpectrum, t: float) -> LogZ:
    """log Z(t) as the sum of per-factor principal branches.

    Per factor, v = (theta_j - t) mod 2pi in (0, 2pi) gives
    log(1 - e^{iv}) = log(2 sin(v/2)) + i (v - pi)/2.
    """
    t = float(t)
    _check_regular(spec.angles, t)
    re, im = log_z_grid(spec.angles, t)
    return LogZ(float(re), float(im))


def arc_count_value(spec: EigenangleSpectrum, s: float, t: float) -> float:
    """The raw (un-rounded) zero-counting formula over the arc (s, t).

    count = (N/2pi)(t - s) + (Im log Z(t) - Im log Z(s))/pi.  Because
    Im log Z is 2pi-periodic in its argument, the formula remains valid for
    t > 2pi describing an arc that wraps through 0 (the length term keeps
    the unwrapped value while the Im terms use the reduced positions).
    """
    ends = np.array([s % TWO_PI, t % TWO_PI])
    for end in ends:
        _check_regular(spec.angles, float(end))
    _, im = log_z_grid(spec.angles, ends)
    return float((spec.dim / TWO_PI) * (t - s) + (im[1] - im[0]) / np.pi)


def count_in_arc(spec: EigenangleSpectrum, s: float, t: float) -> int:
    """Number of eigenangles in the open arc (s, t), 0 <= s < t < 2pi.

    Computed from the counting identity, not by direct comparison; the
    rounded value is exact whenever the formula's residual is below 1e-6,
    which tests verify against brute-force counting.
    """
    s, t = float(s), float(t)
    if not (0.0 <= s < t < TWO_PI):
        raise InvalidArgumentError(f"arc must satisfy 0 <= s < t < 2pi, got ({s}, {t})")
    value = arc_count_value(spec, s, t)
    return int(round(value))


def count_in_circular_arc(spec: EigenangleSpectrum, start: float, length: float) -> int:
    """Arc count for an arc of given length starting at ``start``, wrapping ok.

    Same identity as :func:`count_in_arc`, valid across the 0/2pi seam.
    """
    start, length = float(start), float(length)
    if not (0.0 < length < TWO_PI):
        raise InvalidArgumentError(f"arc length must be in (0, 2pi), got {length}")
    start = start % TWO_PI
    return int(round(arc_count_value(spec, start, start + length)))


def log_z_from_chain(chain: ReflectionChain) -> LogZ:
    """log Z(0) evaluated from a reflection chain without the matrix.

    The decomposition gives log Z_U(0) = sum_j log(1 - <x_j, e_j>), with
    each term under its principal branch; the inner products have modulus
    <= 1 so each term's imaginary part lies in (-pi/2, pi/2].
    """
    m = chain.last_components()
    w = 1.0 - m
    if np.any(np.abs(w) < _SINGULAR_TOL):
        raise SingularPointError("some <x_j, e_j> equals 1; log Z(0) is singular")
    logs = np.log(w)  # principal branch per factor
    return LogZ(float(np.sum(logs.real)), float(np.sum(logs.imag)))


def trace_series_partial(u_mat: UnitaryMatrix, t: float, k_max: int) -> complex:
    """Partial sum -(1/2) sum_{0<|k|<=K} e^{-ikt} tr(U^k)/|k|.

    The +k and -k terms are conjugate, so the value is exactly real; it is
    returned as complex per the series definition.  As K grows the real
    part converges (a.s., for Haar U) to Re log Z(t).
    """
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise InvalidArgumentError(f"k_max must be a positive integer, got {k_max!r}")
    eigs = np.linalg.eigvals(u_mat.entries)
    theta = np.angle(eigs)
    total = 0.0
    # Re(e^{-ikt} T_k) = cos(kt) Re T_k + sin(kt) Im T_k; chunk k to keep
    # the (k, N) phase table small for very large k_max.
    chunk = max(1, (1 << 21) // max(1, u_mat.dim))
    for k0 in range(1, k_max + 1, chunk):
        ks = np.arange(k0, min(k_max, k0 + chunk - 1) + 1, dtype=np.float64)
        traces = np.exp(1j * np.outer(ks, theta)).sum(axis=1)
        total += float(np.sum((np.cos(ks * t) * traces.real + np.sin(ks * t) * traces.imag) / ks))
    return complex(-total, 0.0)
