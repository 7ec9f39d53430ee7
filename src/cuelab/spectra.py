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
Z or log Z on the circle that starts from eigenangles comes from it.  Z
itself is only ever formed as exp(log Z), so no partial product can
overflow at large N.

:func:`log_z_verblunsky` reaches the same branch of log Z without any
eigenangles, from the Verblunsky coefficients of the spectral measure
(see :func:`~cuelab.sampling.haar_verblunsky`) by the Szego recursion.
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
    "log_z_verblunsky",
]

TWO_PI = 2.0 * np.pi

# How close (circularly) an evaluation point may come to an eigenangle
# before log Z is treated as singular.
_SINGULAR_TOL = 1e-12
# How far |alpha_(N-1)| may sit from 1 (a sampled e^{i phi} misses by ~1e-16).
_UNIMODULAR_TOL = 1e-12
# Most (angles x points) elements log_z_grid holds in one temporary array.
_GRID_BLOCK = 1 << 18


def _wrap_angles(values: np.ndarray) -> np.ndarray:
    """Reduce to [0, 2pi), mapping the rounding artifact mod==2pi to 0."""
    out = np.mod(values, TWO_PI)
    out[out >= TWO_PI] = 0.0
    return out


def _phase_gap(angles: np.ndarray, det_phase) -> np.ndarray:
    """Circular distance of each row's angle sum from its determinant phase."""
    turns = (np.sum(angles, axis=-1) - det_phase) / TWO_PI
    return np.abs(turns - np.round(turns)) * TWO_PI


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
        gap = float(_phase_gap(self.angles, self.det_phase))
        if gap > tol:
            raise NumericalFailureError(f"angle sum and det phase disagree by {gap:.3e}")
        return self


@dataclass
class LogZ:
    """log Z under the summed-principal-branch convention.

    ``re`` is in natural-log units; ``im`` is in radians and is *not*
    reduced mod 2pi — it is the sum of per-factor branches, each lying in
    (-pi/2, pi/2).  Both are (n,) arrays when the value is that of a stack
    of n chains (:func:`log_z_from_chain`).
    """

    re: float | np.ndarray
    im: float | np.ndarray


def eigenangles(u):
    """Extract the eigenangle spectrum of a unitary matrix, or of a stack.

    ``u`` is a UnitaryMatrix, giving an EigenangleSpectrum, or an array of
    n unitary matrices, shape (n, N, N), giving the (n, N) array of their
    sorted eigenangles: row i equals the angles of the single call on
    matrix i.  One dense LAPACK ``eigvals`` call and one independent LU
    factorization (``slogdet``) serve the whole stack, and every row is
    checked: eigenvalue moduli within 1e-8 N of 1, and the angle sum equal
    to the determinant phase within 1e-6 (mod 2pi).  A failing row raises
    NumericalFailureError.
    """
    single = isinstance(u, UnitaryMatrix)
    stack = u.entries[None] if single else np.asarray(u, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2] or stack.shape[-1] < 1:
        raise InvalidArgumentError(f"expected a stack of square matrices, got shape {stack.shape}")
    try:
        eigs = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:  # non-convergence
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    angles = np.sort(_wrap_angles(np.angle(eigs)), axis=-1)
    sign, _ = np.linalg.slogdet(stack)
    det_phase = np.mod(np.angle(sign), TWO_PI)
    checks = (
        ("eigenvalue moduli deviate from 1", np.max(np.abs(np.abs(eigs) - 1.0), axis=-1),
         1e-8 * stack.shape[-1]),
        ("angle sum and det phase disagree", _phase_gap(angles, det_phase), 1e-6),
    )
    for what, off, tol in checks:
        bad = np.flatnonzero(off > tol)
        if bad.size:
            where = "" if single else f" in row {bad[0]}"
            raise NumericalFailureError(f"{what} by {off[bad[0]]:.3e}{where}")
    return EigenangleSpectrum(angles[0], det_phase[0]) if single else angles


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


def _szego(alphas: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k log w_k, |w_{N-1}|) along the Szego recursion, row by row.

    ``alphas`` has shape (n, N) and ``z`` shape (n, P): row i of the
    results is the recursion of alphas[i] at each of the points z[i].
    b_0 = z, w_k = 1 - alpha_k b_k and b_{k+1} = z (b_k - conj alpha_k) / w_k,
    so that prod_k w_k = Phi*_N(z); each log is on its principal branch.
    |w_{N-1}| vanishes exactly at an eigenvalue.  One numpy step per k
    over all n x P points; nothing is validated here, and a vanishing
    w_{N-1} gives -inf without a warning.
    """
    n_steps = alphas.shape[1]
    b = np.array(z, dtype=np.complex128)
    modulus = np.zeros(b.shape)
    phase = np.zeros(b.shape)
    w = np.empty_like(b)
    with np.errstate(divide="ignore"):
        for k in range(n_steps):
            a = alphas[:, k, None]
            np.multiply(a, b, out=w)
            np.subtract(1.0, w, out=w)
            last = np.abs(w)
            # log w as log|w| + i arg w: two real ufuncs cost less than one
            # complex log
            modulus += np.log(last)
            phase += np.arctan2(w.imag, w.real)
            if k < n_steps - 1:
                b -= a.conj()
                b *= z
                b /= w
    return modulus + 1j * phase, last


def log_z_verblunsky(alphas, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(Re log Z, Im log Z) from Verblunsky coefficients, with no eigenvalues.

    ``alphas`` holds alpha_0..alpha_{N-1} of one spectral measure, shape
    (N,), or a stack of them, shape (n, N): |alpha_k| < 1 for k < N-1 and
    |alpha_{N-1}| = 1.  The results have the shape contract of
    :func:`log_z_grid`.  With z = e^{it}, the Szego recursion gives
    Phi*_N(z) = prod_k w_k and Z(t) = conj(Phi*_N(z)), so
    log Z(t) = conj(sum_k log w_k) with each log on its principal branch.
    In the open disc every w_k has positive real part, so this sum and the
    summed-principal eigenangle sum are continuous logs of the same function
    that agree at z = 0; their boundary values therefore coincide, and the
    two routes share one branch on the circle.  w_{N-1} vanishes exactly at
    an eigenvalue, and |w_{N-1}| < 1e-12 raises SingularPointError: the
    analogue of the 1e-12 eigenangle rule of :func:`log_z`.  O(N) per point,
    with every sample and point advanced together.
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    if alphas.ndim not in (1, 2) or alphas.shape[-1] < 1:
        raise InvalidArgumentError(f"alphas must have shape (N,) or (n, N), got {alphas.shape}")
    if not np.all(np.abs(alphas[..., :-1]) < 1.0):
        raise InvalidArgumentError("|alpha_k| must be < 1 for k < N-1")
    if not np.all(np.abs(np.abs(alphas[..., -1]) - 1.0) <= _UNIMODULAR_TOL):
        raise InvalidArgumentError("|alpha_(N-1)| must be 1")
    thetas = np.asarray(thetas, dtype=np.float64)
    rows = alphas.reshape(-1, alphas.shape[-1])
    points = np.exp(1j * thetas.ravel())
    logs, last = _szego(rows, np.broadcast_to(points, (len(rows), len(points))))
    if np.any(last < _SINGULAR_TOL):
        i, j = np.argwhere(last < _SINGULAR_TOL)[0]
        raise SingularPointError(
            f"z = {complex(points[j])!r} is an eigenvalue: |w_(N-1)| = {last[i, j]:.3e}"
        )
    shape = alphas.shape[:-1] + thetas.shape
    return logs.real.reshape(shape), -logs.imag.reshape(shape)


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
    <= 1 so each term's imaginary part lies in (-pi/2, pi/2].  For a stack
    of n chains, ``re`` and ``im`` are (n,) arrays, one entry per chain.
    """
    m = chain.last_components()
    w = 1.0 - m
    if np.any(np.abs(w) < _SINGULAR_TOL):
        raise SingularPointError("some <x_j, e_j> equals 1; log Z(0) is singular")
    logs = np.log(w)  # principal branch per factor
    re, im = np.sum(logs.real, axis=-1), np.sum(logs.imag, axis=-1)
    return LogZ(float(re), float(im)) if m.ndim == 1 else LogZ(re, im)
