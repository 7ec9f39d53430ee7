"""Reference values computed apart from cuelab.

Nothing here imports cuelab: the routines are the benchmark's independent
route to the numbers the CLI records report.

* ``su_spectrum``: eigenangles of a Haar SU(N) matrix, from the QR
  factorisation of a complex Ginibre matrix with the determinant phase
  divided out (Mezzadri, Notices AMS 54, 2007).
* ``circle_zero_count``: zeros of F(z) = sum_j b_j prod_k (1 - z e^{i t_jk})
  on |z| = 1, from the roots of F's coefficients, which an FFT takes from
  F sampled at 2^k >= 2N + 2 roots of unity.
* ``keating_snaith``: E|Z(0)|^s = prod_j Gamma(j)Gamma(j+s)/Gamma(j+s/2)^2
  (Keating and Snaith, Commun. Math. Phys. 214, 2000).
* ``increment_second_moment``: sum_k min(k, N)(1 - cos k alpha)/k^2, the
  second moment of a log Z increment over the shift alpha.
* ``pair_count``: (1/4 pi) int_{-eps/N}^{eps/N} [N^2 - (sin(Nu/2)/sin(u/2))^2] du,
  the CUE mean number of eigenangle pairs closer than eps/N.
"""

from __future__ import annotations

import math

import numpy as np

# Roots within this distance of the unit circle count as on it.  The FFT
# coefficients are accurate to ~1e-14 relative at N <= 256, so roots on the
# circle land within ~1e-10 of it while off-circle pairs of a random
# combination sit orders of magnitude further out.
CIRCLE_TOL = 1e-6
# Coefficients below this share of the largest are exact cancellations.
TRIM_TOL = 1e-10


def su_spectrum(n: int, gen: np.random.Generator) -> np.ndarray:
    """Eigenangles of a Haar SU(n) matrix; they sum to 0 exactly.

    Q from the QR factorisation of a complex Ginibre matrix, with each
    column rephased by the phase of R's diagonal, is Haar on U(n).  Dividing
    Q by det(Q)^{1/n} lands in SU(n); the choice of n-th root multiplies by
    a central element and so keeps Haar measure.
    """
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    angles = np.angle(np.linalg.eigvals(q))
    return angles - angles.mean()


def combination_values(coeffs, spectra, m: int) -> np.ndarray:
    """F at the m-th roots of unity z_l = e^{2 pi i l/m}, in product form."""
    z = np.exp(2j * math.pi * np.arange(m) / m)
    total = np.zeros(m, dtype=np.complex128)
    for b, angles in zip(coeffs, spectra):
        total += b * np.prod(1.0 - z[None, :] * np.exp(1j * np.asarray(angles))[:, None], axis=0)
    return total


def coefficients_from_values(values: np.ndarray) -> np.ndarray:
    """Ascending coefficients c_k of a polynomial of degree < m from its m values."""
    return np.fft.fft(values) / len(values)


def zero_counts(coefficients: np.ndarray, tol: float = CIRCLE_TOL):
    """(zeros on |z| = 1, effective degree) of sum_k c_k z^k.

    The effective degree counts the nonzero finite roots: leading and
    trailing coefficients that cancel to rounding are dropped first.
    """
    mags = np.abs(coefficients)
    keep = np.nonzero(mags > TRIM_TOL * mags.max())[0]
    trimmed = coefficients[keep[0] : keep[-1] + 1]
    degree = len(trimmed) - 1
    if degree == 0:
        return 0, 0
    roots = np.roots(trimmed[::-1])
    return int(np.sum(np.abs(np.abs(roots) - 1.0) <= tol)), degree


def circle_zero_count(coeffs, spectra, tol: float = CIRCLE_TOL):
    """(zeros of sum_j b_j det(I - z U_j) on |z| = 1, effective degree)."""
    n = len(spectra[0])
    m = 1 << max(1, (2 * n + 2 - 1).bit_length())
    return zero_counts(coefficients_from_values(combination_values(coeffs, spectra, m)), tol)


def keating_snaith(s: float, n: int) -> float:
    """E|Z(0)|^s over Haar U(n), for s > -1."""
    return math.exp(
        math.fsum(
            math.lgamma(j) + math.lgamma(j + s) - 2.0 * math.lgamma(j + 0.5 * s)
            for j in range(1, n + 1)
        )
    )


def increment_second_moment(n: int, alpha: float, terms: int = 1 << 20):
    """(value, tail bound) of sum_{k>=1} min(k, n)(1 - cos k alpha)/k^2.

    The first ``terms`` terms are summed directly; beyond them every term
    is n(1 - cos k alpha)/k^2, whose sum lies within [0, 2n/terms].  The
    value adds the mean n/terms of that tail, so it is off by at most
    n/terms.
    """
    k = np.arange(1, terms + 1, dtype=np.float64)
    head = math.fsum(np.minimum(k, n) * (1.0 - np.cos(k * alpha)) / (k * k))
    return head + n / terms, n / terms


def pair_count(n: int, eps: float, nodes: int = 64) -> float:
    """CUE mean number of eigenangle pairs at distance <= eps/n, by quadrature.

    The integrand N^2 - (sin(Nu/2)/sin(u/2))^2 is even and entire in u near
    0, so Gauss-Legendre on [0, eps/n] is exact to rounding.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * eps / n
    u = half * (x + 1.0)
    ratio = np.sin(0.5 * n * u) / np.sin(0.5 * u)
    integral = 2.0 * half * float(np.dot(w, n * n - ratio * ratio))
    return integral / (4.0 * math.pi)
