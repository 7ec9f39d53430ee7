"""Closed-form special-function values used by the moment and gap analytics.

Contents: a real-argument Barnes G (log scale, hand-rolled — scipy has no
Barnes G), the Barnes-G ratio giving the joint moment generating function
of (Re log Z, Im log Z) at t = 0, the Q-factors and Gamma-ratio
characteristic function of the beta decomposition, the exact second moment
of the oscillation increment Re log Z(mu/N) - Re log Z(0), sine/cosine
integrals with the asymptotic profile f(mu), and the CUE two-point
correlation density with its pair-count quadrature.

Each function imports the scipy routine it calls, so importing cuelab (and
so starting a spawn worker, which imports it) loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, OutOfDomainError

__all__ = [
    "EULER_GAMMA",
    "log_barnes_g",
    "barnes_g",
    "joint_mgf_rhs",
    "q_factor",
    "q_factor_product",
    "beta_charfn",
    "oscillation_variance_exact",
    "si",
    "ci",
    "f_mu",
    "f_mu_integral",
    "two_point_correlation",
    "expected_narrow_pairs",
]

EULER_GAMMA = float(np.euler_gamma)

TWO_PI = 2.0 * math.pi

# Split point of the Barnes G series: the first _BASE_TERMS factors of the
# Weierstrass product are summed directly, the rest through Hurwitz-zeta
# tail sums (power series in y with coefficients zeta(k-1, _BASE_TERMS+1)).
_BASE_TERMS = 64


def _log_g_base(y: float) -> float:
    """log G(1 + y) for y in (-1, 0], via the defining product.

    log G(1+y) = (y/2) log 2pi - [y + (1+gamma) y^2]/2
                 + sum_{n>=1} [n log(1 + y/n) - y + y^2/(2n)].
    """
    if y == 0.0:
        return 0.0
    from scipy.special import zeta

    n = np.arange(1.0, _BASE_TERMS + 1.0)
    head = float(np.sum(n * np.log1p(y / n) - y + y * y / (2.0 * n)))
    # n log(1+y/n) - y + y^2/2n = sum_{k>=3} (-1)^{k+1} y^k / (k n^{k-1});
    # summing over n > _BASE_TERMS gives Hurwitz zeta coefficients.
    tail = 0.0
    power = y * y
    for k in range(3, 200):
        power *= y
        term = ((-1.0) ** (k + 1)) * power / k * float(zeta(k - 1, _BASE_TERMS + 1))
        tail += term
        if abs(term) < 1e-18:
            break
    return 0.5 * y * math.log(TWO_PI) - 0.5 * (y + (1.0 + EULER_GAMMA) * y * y) + head + tail


def log_barnes_g(z: float) -> float:
    """log G(z) for real z > 0.

    The fractional base point w = z - ceil(z) + 1 in (0, 1] is evaluated by
    the defining product; the integer ladder is climbed exactly with
    G(z+1) = Gamma(z) G(z), i.e. a sum of log-gamma values.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise OutOfDomainError(f"Barnes G implemented for real z > 0, got {z!r}")
    steps = math.ceil(z) - 1
    w = z - steps
    value = _log_g_base(w - 1.0)
    if steps > 0:
        value += math.fsum(math.lgamma(w + i) for i in range(steps))
    return value


def barnes_g(z: float) -> float:
    """G(z) for real z > 0; raises once the value exceeds float range."""
    lg = log_barnes_g(z)
    if lg > 709.0:
        raise OutOfDomainError(
            f"G({z!r}) overflows double precision; use log_barnes_g instead"
        )
    return math.exp(lg)


def joint_mgf_rhs(s: float, t: float, n_dim: int) -> float:
    """Barnes-G ratio for E[e^{s Re log Z(0) + t Im log Z(0)}] over Haar U(N).

    Only the real-s, t = 0 slice is implemented (complex-argument Barnes G
    is out of scope).  For even integer s >= 0 the ratio telescopes through
    the functional equation into a short sum of log-gamma differences,
    which keeps e.g. s = 2 exact at any N; other s > -1 go through
    log_barnes_g directly.
    """
    if not isinstance(n_dim, (int, np.integer)) or n_dim < 1:
        raise InvalidArgumentError(f"N must be a positive integer, got {n_dim!r}")
    s, t = float(s), float(t)
    if t != 0.0:
        raise OutOfDomainError("joint_mgf_rhs implements only the t = 0 slice")
    if s <= -1.0:
        raise OutOfDomainError(f"require s > -1, got {s!r}")
    half = 0.5 * s
    if half >= 0 and half == round(half):
        m = int(round(half))
        small = 2.0 * log_barnes_g(1.0 + m) - log_barnes_g(1.0 + 2 * m)
        ladder = math.fsum(
            math.lgamma(n_dim + 1 + i) for i in range(m, 2 * m)
        ) - math.fsum(math.lgamma(n_dim + 1 + i) for i in range(m))
        return math.exp(small + ladder)
    value = (
        2.0 * log_barnes_g(1.0 + half)
        + log_barnes_g(1.0 + n_dim)
        + log_barnes_g(1.0 + n_dim + s)
        - 2.0 * log_barnes_g(1.0 + n_dim + half)
        - log_barnes_g(1.0 + s)
    )
    return math.exp(value)


def q_factor(j: int, s: float, t: float) -> complex:
    """Q(j,s,t) = (j + (it-s)/2)(j + (it+s)/2) / (j (j + it))."""
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise InvalidArgumentError(f"j must be a positive integer, got {j!r}")
    it = 1j * t
    return complex((j + (it - s) / 2.0) * (j + (it + s) / 2.0) / (j * (j + it)))


def q_factor_product(j: int, s: float, t: float, k_max: int) -> complex:
    """Truncated product prod_{k=j}^{k_max} Q(k,s,t) (the charfn's dual route)."""
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise InvalidArgumentError(f"j must be a positive integer, got {j!r}")
    if k_max < j:
        raise InvalidArgumentError(f"k_max must be >= j, got {k_max!r}")
    k = np.arange(j, k_max + 1, dtype=np.float64)
    it = 1j * t
    factors = (k + (it - s) / 2.0) * (k + (it + s) / 2.0) / (k * (k + it))
    return complex(np.prod(factors))


def beta_charfn(j: int, s: float, t: float) -> complex:
    """E[e^{i(t rho_j + s sigma_j)}] = Gamma(j)Gamma(j+it) / (Gamma(j+(it-s)/2)Gamma(j+(it+s)/2)).

    Here (rho_j, sigma_j) are the real and imaginary parts of
    log(1 - sqrt(B) e^{i phi}) with B ~ Beta(1, j-1) and phi uniform
    (Beta(1,0) meaning the point mass at 1).  Evaluated through complex
    log-gamma so the huge gamma factors cancel before exponentiation;
    denominator poles (possible when t = 0 and s >= 2j) give 0.
    """
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise InvalidArgumentError(f"j must be a positive integer, got {j!r}")
    s, t = float(s), float(t)
    a = j + (1j * t - s) / 2.0
    b = j + (1j * t + s) / 2.0
    if t == 0.0:
        for w in (a.real, b.real):
            if w <= 0.0 and abs(w - round(w)) < 1e-12:
                return 0.0 + 0.0j
    from scipy.special import loggamma

    log_num = loggamma(complex(j)) + loggamma(j + 1j * t)
    log_den = loggamma(complex(a)) + loggamma(complex(b))
    return complex(np.exp(log_num - log_den))


def oscillation_variance_exact(n_dim: int, mu: float) -> float:
    """E[(Re log Z(mu/N) - Re log Z(0))^2] over Haar U(N), exactly.

    The series sum_{k>=1} (k ^ N)/k^2 * (1 - cos(k a)) with a = mu/N splits
    at k = N; the tail N sum_{k>N} (1 - cos k a)/k^2 is evaluated in closed
    form from the trigamma value psi'(N+1) = sum_{k>N} k^{-2} and the
    Fourier expansion sum_{k>=1} cos(k a)/k^2 = pi^2/6 - pi a/2 + a^2/4 on
    [0, 2pi].  No truncation error.
    """
    if not isinstance(n_dim, (int, np.integer)) or n_dim < 1:
        raise InvalidArgumentError(f"N must be a positive integer, got {n_dim!r}")
    mu = float(mu)
    if mu < 0.0:
        raise InvalidArgumentError(f"mu must be >= 0, got {mu!r}")
    alpha = math.fmod(mu / n_dim, TWO_PI)
    if alpha == 0.0:
        return 0.0
    k = np.arange(1.0, n_dim + 1.0)
    cos_k = np.cos(k * alpha)
    head = float(np.sum((1.0 - cos_k) / k))
    full_cos_series = math.pi**2 / 6.0 - 0.5 * math.pi * alpha + 0.25 * alpha * alpha
    from scipy.special import polygamma

    trigamma = float(polygamma(1, n_dim + 1))
    tail = n_dim * (trigamma - full_cos_series + float(np.sum(cos_k / k**2)))
    return head + tail


def si(z: float) -> float:
    """Sine integral Si(z) = int_0^z sin(x)/x dx, for z >= 0."""
    z = float(z)
    if z < 0.0:
        raise OutOfDomainError(f"si requires z >= 0, got {z!r}")
    from scipy.special import sici

    return float(sici(z)[0])


def ci(z: float) -> float:
    """Cosine integral Ci(z) = -int_z^inf cos(x)/x dx, for z > 0."""
    z = float(z)
    if z <= 0.0:
        raise OutOfDomainError(f"ci requires z > 0, got {z!r}")
    from scipy.special import sici

    return float(sici(z)[1])


def f_mu(mu: float) -> float:
    """f(mu) = log mu + (pi/2) mu - cos mu - Ci(mu) - mu Si(mu).

    1 + gamma + f(mu) is the large-N profile of the oscillation variance
    at separation mu/N.
    """
    mu = float(mu)
    if mu <= 0.0:
        raise OutOfDomainError(f"f_mu requires mu > 0, got {mu!r}")
    from scipy.special import sici

    si_v, ci_v = sici(mu)
    return math.log(mu) + 0.5 * math.pi * mu - math.cos(mu) - float(ci_v) - mu * float(si_v)


def f_mu_integral(mu: float) -> float:
    """Independent quadrature route for f(mu).

    Substituting Ci(mu) = gamma + log mu + int_0^mu (cos x - 1)/x dx and
    integrating int_mu^inf sin(x)/x dx by parts turns the closed form into

        f(mu) = -gamma - mu int_mu^inf cos(x)/x^2 dx
                - int_0^mu (cos x - 1)/x dx,

    with the oscillatory tail handled by a Fourier-weighted rule.  Kept as
    a second evaluation path for the closed form above.
    """
    mu = float(mu)
    if mu <= 0.0:
        raise OutOfDomainError(f"f_mu_integral requires mu > 0, got {mu!r}")
    from scipy.integrate import quad

    tail, _ = quad(lambda x: 1.0 / (x * x), mu, np.inf, weight="cos", wvar=1.0, limit=400)
    head, _ = quad(lambda x: (math.cos(x) - 1.0) / x, 0.0, mu, limit=400)
    return -EULER_GAMMA - mu * tail - head


def two_point_correlation(n_dim: int, delta: float) -> float:
    """CUE two-level correlation density rho_N(delta) for angle separation delta.

    rho = N^2 [1 - (sin(N delta/2) / (N sin(delta/2)))^2], extended
    continuously by 0 at delta = 0 (and every multiple of 2pi); near those
    points a quadratic series avoids 0/0.
    """
    if not isinstance(n_dim, (int, np.integer)) or n_dim < 1:
        raise InvalidArgumentError(f"N must be a positive integer, got {n_dim!r}")
    x = 0.5 * float(delta)
    h = x - math.pi * round(x / math.pi)
    if abs(h) < 1e-8:
        return (n_dim**2) * (n_dim**2 - 1.0) * h * h / 3.0
    ratio = math.sin(n_dim * h) / (n_dim * math.sin(h))
    return max((n_dim**2) * (1.0 - ratio * ratio), 0.0)


def expected_narrow_pairs(n_dim: int, eps: float) -> float:
    """E[number of eigenangle pairs at circular distance <= eps/N], Haar U(N).

    Integrates the two-point density: (1/2pi) int_0^{eps/N} rho_N(d) dd
    (the 1/2pi normalizes the first angle's position; each unordered pair
    is counted once since only positive separations are integrated).
    """
    if eps <= 0.0:
        raise InvalidArgumentError(f"eps must be positive, got {eps!r}")
    from scipy.integrate import quad

    value, _ = quad(lambda d: two_point_correlation(n_dim, d), 0.0, float(eps) / n_dim, limit=200)
    return value / TWO_PI
