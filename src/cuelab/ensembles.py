"""Zeros of real linear combinations of unitary characteristic polynomials.

For det-1 unitaries U_1..U_n and nonzero reals b_1..b_n let

    F(z) = sum_j b_j det(I - z U_j).

The self-inversive structure of each factor makes
G(theta) = Re[i^N e^{iN theta/2} F(e^{-i theta})] a real trigonometric
polynomial whose sign changes lower-bound the number of zeros of F on the
unit circle.  This module provides G, a sign-change counter that refines
all its brackets level by level (one kernel call per bisection level), and
an independent oracle: companion-matrix roots of the polynomial whose
coefficients come from an FFT of F sampled on the circle.  Both routes take
every Z_j from :func:`~cuelab.spectra.log_z_grid` as exp(log Z_j), so G
and F stay finite at any N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCombinationError, InvalidArgumentError, InvalidEnsembleError
from .spectra import TWO_PI, log_z_grid

__all__ = [
    "CombinationEnsemble",
    "RootSet",
    "real_rotation",
    "sign_changes",
    "roots_oracle",
    "circle_root_count",
]

# Relative coefficient/values floor below which a combination is treated as
# identically zero (exact cancellation up to rounding).
_DEGENERATE_TOL = 1e-12
_TRIM_TOL = 1e-10
# Largest N the root oracle accepts: np.roots costs O(N^3), about 1.3 s at
# N = 512, where roots on the circle still sit within 2e-14 of it.
ORACLE_MAX_DIM = 512


@dataclass
class CombinationEnsemble:
    """Coefficients and det-1 spectra defining F(z) = sum b_j det(I - z U_j).

    ``angles`` is derived: the spectra's eigenangles stacked, shape (n, N).
    """

    coefficients: np.ndarray
    spectra: list
    dim: int = 0
    angles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1 or len(self.coefficients) < 1:
            raise InvalidEnsembleError("need at least one coefficient")
        if np.any(self.coefficients == 0.0) or not np.all(np.isfinite(self.coefficients)):
            raise InvalidEnsembleError("all coefficients must be nonzero finite reals")
        if len(self.spectra) != len(self.coefficients):
            raise InvalidEnsembleError(
                f"{len(self.coefficients)} coefficients vs {len(self.spectra)} spectra"
            )
        dims = {spec.dim for spec in self.spectra}
        if len(dims) != 1:
            raise InvalidEnsembleError(f"spectra have mixed dimensions {sorted(dims)}")
        n_dim = dims.pop()
        if self.dim == 0:
            self.dim = n_dim
        elif self.dim != n_dim:
            raise InvalidEnsembleError(f"dim={self.dim} but spectra have length {n_dim}")
        for j, spec in enumerate(self.spectra):
            # distance of det phase to 0 mod 2pi
            off = abs(spec.det_phase - TWO_PI * round(spec.det_phase / TWO_PI))
            if off > 1e-6:
                raise InvalidEnsembleError(
                    f"spectrum {j} has determinant phase {spec.det_phase:.3e}, need det 1"
                )
        self.angles = np.stack([spec.angles for spec in self.spectra])

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)


def _rotation_values(ens: CombinationEnsemble, thetas):
    """(G values, scale values) at thetas (a scalar or an array).

    G = Re[rot * sum b_j Z_j] with rot = i^N e^{iN theta/2} = e^{iN(pi+theta)/2},
    taken term by term as b_j |Z_j| cos(Im log Z_j + N(pi+theta)/2);
    scale = sum |b_j| |Z_j| bounds |F| and calibrates the degeneracy floor.
    """
    re, im = log_z_grid(ens.angles, thetas)
    moduli = np.exp(re)
    g = ens.coefficients @ (moduli * np.cos(im + 0.5 * ens.dim * (np.pi + thetas)))
    scale = np.abs(ens.coefficients) @ moduli
    return g, scale


def real_rotation(ens: CombinationEnsemble, theta: float) -> float:
    """G(theta), the real rotation of F at e^{-i theta}.

    For det-1 spectra each term's phase Im log Z_j + N(pi+theta)/2 is a
    multiple of pi, so G is real by construction.
    """
    g, _ = _rotation_values(ens, float(theta))
    return float(g)


def sign_changes(ens: CombinationEnsemble, grid_factor: int = 8, max_refine: int = 20) -> int:
    """Lower bound for the number of zeros of F on the unit circle.

    Evaluates G on grid_factor*N uniform nodes plus every eigenangle of
    every spectrum; exact zeros at nodes (e.g. eigenangles of an n=1
    ensemble) are removed from the sign sequence.  Every bracket between
    consecutive nodes, and the wrap bracket closed with
    G(theta + 2pi) = (-1)^N G(theta), is then refined level by level: one
    kernel call per level (at most ``max_refine``) evaluates all live
    midpoints.  A midpoint where G is exactly 0 ends its bracket and counts
    the endpoint flip (a tangency adds no sign change); otherwise a half is
    kept if it flips sign or the midpoint dips below both endpoint
    magnitudes, which flags a possible pair of zeros.  Each bracket left
    flipping after the last level counts one.  The halves are disjoint, so
    the total is a valid lower bound.
    """
    if not isinstance(grid_factor, (int, np.integer)) or grid_factor < 1:
        raise InvalidArgumentError(f"grid_factor must be a positive integer, got {grid_factor!r}")
    if not isinstance(max_refine, (int, np.integer)) or max_refine < 0:
        raise InvalidArgumentError(f"max_refine must be >= 0, got {max_refine!r}")
    n_dim = ens.dim
    base = np.arange(grid_factor * n_dim) * (TWO_PI / (grid_factor * n_dim))
    nodes = np.unique(np.concatenate([base] + [spec.angles for spec in ens.spectra]))
    g, scale = _rotation_values(ens, nodes)
    floor = _DEGENERATE_TOL * np.maximum(scale, 1e-300)
    if np.all(np.abs(g) <= floor):
        raise DegenerateCombinationError(
            "combination is numerically zero on the whole grid (sum b_j Phi_j cancels)"
        )
    keep = g != 0.0
    nodes, g = nodes[keep], g[keep]
    if len(nodes) < 2:
        raise DegenerateCombinationError("fewer than two nonzero grid values")
    odd = n_dim % 2 == 1
    # live brackets (a, G(a), b, G(b)): consecutive nodes, then the wrap
    a, ga = nodes, g
    b = np.append(nodes[1:], nodes[0] + TWO_PI)
    gb = np.append(g[1:], -g[0] if odd else g[0])
    total = 0
    for _ in range(max_refine):
        if a.size == 0:
            break
        mid = 0.5 * (a + b)
        wrapped = mid >= TWO_PI
        gm, _ = _rotation_values(ens, np.where(wrapped, mid - TWO_PI, mid))
        if odd:
            gm = np.where(wrapped, -gm, gm)
        zero = gm == 0.0
        total += int(np.count_nonzero(zero & ((ga > 0.0) != (gb > 0.0))))
        dip = (np.abs(gm) < np.abs(ga)) & (np.abs(gm) < np.abs(gb))
        left = ~zero & (((ga > 0.0) != (gm > 0.0)) | dip)
        right = ~zero & (((gm > 0.0) != (gb > 0.0)) | dip)
        a, ga, b, gb = (
            np.concatenate([a[left], mid[right]]),
            np.concatenate([ga[left], gm[right]]),
            np.concatenate([mid[left], b[right]]),
            np.concatenate([gm[left], gb[right]]),
        )
    return total + int(np.count_nonzero((ga > 0.0) != (gb > 0.0)))


@dataclass
class RootSet:
    """Roots of the expanded combination, with the trimmed degree."""

    roots: np.ndarray
    effective_degree: int

    def __post_init__(self):
        self.roots = np.asarray(self.roots, dtype=np.complex128)

    def symmetry_defect(self) -> float:
        """Worst matching distance of the root multiset to its 1/conj image.

        For det-1 ensembles the functional equation pairs every root z with
        1/conj(z); a greedy nearest-neighbor match over the multiset gives
        the defect, normalized by max(1, |image|) per root.
        """
        if len(self.roots) == 0:
            return 0.0
        images = 1.0 / np.conj(self.roots)
        remaining = list(range(len(self.roots)))
        worst = 0.0
        for img in images:
            dists = np.abs(self.roots[remaining] - img) / max(1.0, abs(img))
            k = int(np.argmin(dists))
            worst = max(worst, float(dists[k]))
            remaining.pop(k)
        return worst


def _combination_coefficients(ens: CombinationEnsemble) -> np.ndarray:
    """Descending coefficients of F(z) = sum b_j prod_k (1 - z e^{i theta_jk}).

    F(e^{-i phi}) = sum_m a_m e^{-i m phi}, so the inverse FFT of F sampled
    at M >= 2N + 2 equispaced angles returns a_0..a_N directly; unlike a
    product expansion, no intermediate coefficient outgrows F itself.
    """
    n_dim = ens.dim
    m = 1 << (2 * n_dim + 1).bit_length()
    re, im = log_z_grid(ens.angles, np.arange(m) * (TWO_PI / m))
    values = ens.coefficients @ np.exp(re + 1j * im)
    return np.fft.ifft(values)[n_dim::-1]


def roots_oracle(ens: CombinationEnsemble) -> RootSet:
    """All roots of the combination, via the companion matrix.

    The coefficients are the inverse FFT of F on the unit circle.  Leading
    coefficients below 1e-10 of the max magnitude are trimmed first (they
    arise when sum b_j cancels), so the companion matrix sees the
    effective degree.  Accepts N <= ORACLE_MAX_DIM (512).
    """
    if ens.dim > ORACLE_MAX_DIM:
        raise InvalidArgumentError(
            f"roots oracle accepts N <= {ORACLE_MAX_DIM}, got N={ens.dim}"
        )
    coeffs = _combination_coefficients(ens)
    magnitudes = np.abs(coeffs)
    peak = float(np.max(magnitudes))
    if peak == 0.0:
        raise DegenerateCombinationError("all combination coefficients vanish")
    trimmed = coeffs[int(np.argmax(magnitudes > _TRIM_TOL * peak)):]
    effective_degree = len(trimmed) - 1
    roots = np.roots(trimmed) if effective_degree >= 1 else np.empty(0, dtype=np.complex128)
    return RootSet(roots, effective_degree)


def circle_root_count(rootset: RootSet, tol: float = 1e-6) -> int:
    """Number of roots with | |z| - 1 | <= tol."""
    if tol <= 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    if len(rootset.roots) == 0:
        return 0
    return int(np.sum(np.abs(np.abs(rootset.roots) - 1.0) <= tol))
