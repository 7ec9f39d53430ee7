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
Z or log Z on the circle that starts from eigenangles comes from it, and
sums its N terms in one order whatever else its call holds.  It
wraps no (angle, point) difference: log|Z| is a sum of log|2 sin| of raw
half-differences, accurate next to an eigenangle, and Im log Z is a closed
form plus pi times an eigenangle count.  Z itself is only ever formed as
exp(log Z), so no partial product can overflow at large N.

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
# Allowance for the rounding of values on the FFT grid, relative to
# N eps times the RMS of a pointwise bound of their moduli.  An empirical
# constant, not a proven bound: the noise in the unused top of the inverse
# FFT measures at most 1.6-3.0 N eps of its RMS from N = 16 to 512, on
# M = 2^k points and on the runners' 8 N alike, so it leaves 2.6x headroom.
_VALUE_NOISE = 8.0
# eigenangles' first Cayley pole, pi + sqrt(2): generic, so that no
# structured spectrum (+-1, +-i, roots of unity) sits on it.
_POLE_ANGLE = np.pi + np.sqrt(2.0)
# An angle closer than this to its pole moves the pole to the row's widest gap.
_POLE_MARGIN = 1e-3
# Largest entry of U V - V diag(r) that certifies a row's spectrum.
_RESIDUAL_TOL = 1e-8


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


def _cayley_rayleigh(stack: np.ndarray, poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotients and certificate residuals of a stack, row by pole.

    For row i with pole angle a = poles[i] and c = e^{-ia},
    H = i (I - cU)^{-1} (I + cU) is Hermitian when U is unitary, with U's
    eigenvectors and the real eigenvalues -cot((theta_k - a)/2), which blow
    up only as an eigenangle nears a.  ``eigh`` gives a unitary V; one
    stacked matmul W = U V gives the quotients r = diag(V^H W) and the
    residual max|W - V diag r| of each row.  A row whose solve is singular
    (a is an eigenangle to rounding) gets NaN quotients and residual inf.
    """
    eye = np.eye(stack.shape[-1])
    rhs = np.exp(-1j * poles)[:, None, None] * stack
    lhs = eye - rhs
    rhs += eye
    rhs *= 1j
    singular = np.zeros(len(stack), dtype=bool)
    try:
        h = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:  # a singular row sinks the stacked call
        h = np.zeros_like(rhs)
        for i in range(len(stack)):
            try:
                h[i] = np.linalg.solve(lhs[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    del lhs, rhs
    try:
        v = np.linalg.eigh(h)[1]
    except np.linalg.LinAlgError as exc:  # non-convergence
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    del h
    w = np.matmul(stack, v)
    r = np.einsum("...ki,...ki->...i", v.conj(), w)
    w -= v * r[:, None, :]
    residual = np.max(np.abs(w), axis=(-2, -1))
    r[singular] = np.nan
    residual[singular] = np.inf
    return r, residual


def _widest_gap_middle(angles: np.ndarray) -> np.ndarray:
    """The middle of each row's largest circular gap between sorted angles."""
    gaps = np.diff(angles, axis=-1, append=angles[:, :1] + TWO_PI)
    j = np.argmax(gaps, axis=-1)[:, None]
    return (np.take_along_axis(angles, j, -1) + 0.5 * np.take_along_axis(gaps, j, -1))[:, 0]


def eigenangles(u):
    """Extract the eigenangle spectrum of a unitary matrix, or of a stack.

    ``u`` is a UnitaryMatrix, giving an EigenangleSpectrum, or an array of
    n unitary matrices, shape (n, N, N), giving the (n, N) array of their
    sorted eigenangles: row i equals the angles of the single call on
    matrix i.  A unitary matrix is normal, so its spectrum comes from a
    Hermitian eigensolver (see :func:`_cayley_rayleigh`): the Cayley
    transform at the pole angle pi + sqrt(2), which no structured spectrum
    (+-1, +-i, roots of unity) meets, one stacked ``eigh``, and the
    eigenvalues read as Rayleigh quotients r_k = (V^H U V)_kk.  A row with
    an angle within 1e-3 of its pole, where H's eigenvectors lose accuracy,
    is redone with the pole in the middle of its largest angle gap; a row
    whose solve is singular first moves its pole half a turn.  Every row is
    checked, and a failing row raises NumericalFailureError:
    max|UV - V diag r| <= 1e-8, a residual that for normal U and unitary V
    bounds the distance of the whole angle multiset from the true one
    (Hoffman-Wielandt); moduli of r within 1e-8 N of 1; and the angle sum
    equal to the phase of an independent LU factorization (``slogdet``)
    within 1e-6 (mod 2pi).
    """
    single = isinstance(u, UnitaryMatrix)
    stack = u.entries[None] if single else np.asarray(u, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2] or stack.shape[-1] < 1:
        raise InvalidArgumentError(f"expected a stack of square matrices, got shape {stack.shape}")
    poles = np.full(len(stack), _POLE_ANGLE)
    r, residual = _cayley_rayleigh(stack, poles)
    angles = np.sort(_wrap_angles(np.angle(r)), axis=-1)
    # A second round serves only rows whose first solve was singular: their
    # half-turn pole may sit next to another angle.
    for _ in range(2):
        d = np.abs(angles - np.mod(poles, TWO_PI)[:, None])
        redo = np.flatnonzero(~(np.min(np.minimum(d, TWO_PI - d), axis=-1) >= _POLE_MARGIN))
        if not redo.size:
            break
        middle = _widest_gap_middle(angles[redo])
        poles[redo] = np.where(np.isnan(middle), poles[redo] + np.pi, middle)
        r[redo], residual[redo] = _cayley_rayleigh(stack[redo], poles[redo])
        angles[redo] = np.sort(_wrap_angles(np.angle(r[redo])), axis=-1)
    sign, _ = np.linalg.slogdet(stack)
    det_phase = np.mod(np.angle(sign), TWO_PI)
    checks = (
        ("eigenvector residual max|UV - V diag r| is", residual, _RESIDUAL_TOL),
        ("eigenvalue moduli deviate from 1 by", np.max(np.abs(np.abs(r) - 1.0), axis=-1),
         1e-8 * stack.shape[-1]),
        ("angle sum and det phase disagree by", _phase_gap(angles, det_phase), 1e-6),
    )
    for what, off, tol in checks:
        bad = np.flatnonzero(~(off <= tol))
        if bad.size:
            where = "" if single else f" in row {bad[0]}"
            raise NumericalFailureError(f"{what} {off[bad[0]]:.3e}{where}")
    return EigenangleSpectrum(angles[0], det_phase[0]) if single else angles


def log_z_grid(angles, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(Re log Z, Im log Z) of every spectrum in ``angles`` at every theta.

    ``angles`` holds one spectrum's eigenangles, shape (N,), or a stack of
    them, shape (n, N), in any order; the results have shape
    ``angles.shape[:-1] + np.shape(thetas)``.  Angles and points are reduced
    mod 2pi once each.  With d_k = theta_k - t, Re = sum log|2 sin(d_k/2)|
    (2pi-periodic, so no d_k is wrapped) is -inf on an eigenangle (no
    warning); next to one, d_k is exact (Sterbenz), so Re keeps its relative
    accuracy, and across the 0/2pi seam d_k is as good as the float 2pi
    (about 2.4e-16).  Wrapping adds 2pi to exactly the negative d_k, so
    Im = sum (d_k mod 2pi - pi)/2 = (sum theta_k - N (t + pi))/2 +
    pi #{d_k < 0}, counted in the same pass.  The spectra go to the kernel
    as a stack of one row, whose points are walked in blocks so that no
    temporary holds more than 2^18 elements, or four points where the
    stack holds more than 2^16 angles.
    """
    angles = np.asarray(angles, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    points = thetas.ravel()
    stack = angles.reshape(1, -1, angles.shape[-1])
    re, im = _log_z_rows(stack, points, np.zeros(points.size, dtype=np.intp))
    shape = angles.shape[:-1] + thetas.shape
    return re.reshape(shape), im.reshape(shape)


def _fft_samples(angles: np.ndarray, base: int = 1) -> np.ndarray:
    """log Z = Re + i Im of every spectrum at the L points 2pi p/L, p < L.

    L = base 2^k, the least such L >= 2N + 2 for spectra of N angles, so
    the inverse FFT of a sampled Z(e^{-i phi}) = sum_m c_m e^{-i m phi}, or
    of a combination of them, returns c_0..c_N unaliased and leaves the top
    L - N - 1 outputs as a measure of the rounding.  A standalone count
    takes base 1; the sign scan and the runners take base 8N, the sign
    scan's nodes, which is then L itself.  The result has shape
    ``angles.shape[:-1] + (L,)``; its values are :func:`log_z_grid`'s.
    """
    n_dim = angles.shape[-1]
    size = base << (-(-(2 * n_dim + 2) // base) - 1).bit_length()
    re, im = log_z_grid(angles, np.arange(size) * (TWO_PI / size))
    return re + 1j * im


def _fft_coefficients(values: np.ndarray, moduli: np.ndarray, n_dim: int):
    """c_0..c_N of sum_m c_m e^{-i m phi} from its values, and their noise.

    ``values`` holds it at L >= 2N + 2 uniform points 2pi p/L, shape
    (..., L), as :func:`_fft_samples` gives them, and ``moduli`` bounds
    their moduli.  The inverse FFT returns c_0..c_N directly; unlike a
    product expansion, no intermediate coefficient outgrows the values.
    By Parseval the l2 error of the L outputs is the RMS of the values'
    errors, whatever L is, allowed _VALUE_NOISE N eps times the RMS of
    ``moduli``: the second result, shape (...).
    """
    rms = np.sqrt(np.mean(moduli ** 2, axis=-1))
    return np.fft.ifft(values)[..., :n_dim + 1], _VALUE_NOISE * n_dim * np.finfo(float).eps * rms


def _log_z_rows(angles: np.ndarray, points: np.ndarray, rows: np.ndarray):
    """:func:`log_z_grid`'s kernel: (Re, Im) log Z at flat (row, point) pairs.

    ``angles`` has shape (S, T, N), and ``points`` and ``rows`` shape (P,):
    point p is taken on the spectra angles[rows[p]], giving two (T, P)
    arrays.  The points go in near-equal blocks of at most 2^18 / (T N),
    but at least four, each a (T, N, c) buffer with the points innermost;
    every block of a call of P >= 2 points then holds two or more, so every
    value sums its N terms in order (one point keeps numpy's pairwise sum).
    A stack of one row takes the broadcast difference, any other gathers
    its points' rows.
    """
    n_rows, n_terms, n_dim = angles.shape
    # halving is exact, so half differences keep every Sterbenz-exact digit
    half_angles = 0.5 * np.mod(angles, TWO_PI)
    half_points = 0.5 * np.mod(points, TWO_PI)
    n_points = half_points.size
    re = np.empty((n_terms, n_points))
    below = np.empty(re.shape, dtype=np.intp)
    columns = np.moveaxis(half_angles, 0, -1)
    step = max(4, _GRID_BLOCK // max(1, n_terms * n_dim))
    n_blocks = max(1, -(-n_points // step))
    bounds = np.arange(n_blocks + 1) * n_points // n_blocks
    with np.errstate(divide="ignore"):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if n_rows == 1:
                d = columns - half_points[lo:hi]
            else:
                d = np.take(columns, rows[lo:hi], axis=-1)
                d -= half_points[lo:hi]
            np.add.reduce(d < 0.0, axis=1, out=below[:, lo:hi])
            np.sin(d, out=d)
            np.abs(d, out=d)
            np.log(d, out=d)
            np.add.reduce(d, axis=1, out=re[:, lo:hi])
    re += n_dim * np.log(2.0)
    im = np.pi * below
    im += np.add.reduce(half_angles, axis=-1)[rows].T - n_dim * (half_points + 0.5 * np.pi)
    return re, im


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
    v = np.abs(np.mod(angles, TWO_PI)[..., None] - np.mod(points, TWO_PI))
    near = np.minimum(v, TWO_PI - v) < _SINGULAR_TOL
    if np.any(near):
        bad = float(points[np.nonzero(near)[-1][0]])
        raise SingularPointError(f"t = {bad!r} coincides with an eigenangle")


def log_z(spec: EigenangleSpectrum, t: float) -> LogZ:
    """log Z(t) as the sum of per-factor principal branches (see log_z_grid).

    Raises SingularPointError within 1e-12 of an eigenangle.
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
    _check_regular(spec.angles, (s, t))
    _, im = log_z_grid(spec.angles, (s, t))
    return float((spec.dim / TWO_PI) * (t - s) + (im[1] - im[0]) / np.pi)


def count_in_arc(spec: EigenangleSpectrum, s: float, t: float) -> int:
    """Number of eigenangles in the open arc (s, t), 0 <= s < t < 2pi.

    Computed from the counting identity, which the kernel's count-based
    Im log Z makes arithmetic; tests check it against brute-force counting.
    """
    s, t = float(s), float(t)
    if not (0.0 <= s < t < TWO_PI):
        raise InvalidArgumentError(f"arc must satisfy 0 <= s < t < 2pi, got ({s}, {t})")
    value = arc_count_value(spec, s, t)
    return int(round(value))


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
