"""Zeros of real linear combinations of unitary characteristic polynomials.

For det-1 unitaries U_1..U_n and nonzero reals b_1..b_n let

    F(z) = sum_j b_j det(I - z U_j).

The self-inversive structure of each factor makes
G(theta) = Re[i^N e^{iN theta/2} F(e^{-i theta})] a real trigonometric
polynomial whose sign changes lower-bound the number of zeros of F on the
unit circle.  This module provides G, an adaptive sign-change counter, and
an independent oracle: companion-matrix roots of the polynomial whose
coefficients come from an FFT of F sampled on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCombinationError, InvalidArgumentError, InvalidEnsembleError
from .spectra import TWO_PI, EigenangleSpectrum

__all__ = [
    "CombinationEnsemble",
    "RootSet",
    "real_rotation",
    "rotation_scale",
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
    """Coefficients and det-1 spectra defining F(z) = sum b_j det(I - z U_j)."""

    coefficients: np.ndarray
    spectra: list
    dim: int = 0

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

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)


def _z_grid(ens: CombinationEnsemble, thetas: np.ndarray) -> np.ndarray:
    """Matrix of Z_j(theta_i) values, shape (n_terms, len(thetas))."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    out = np.empty((ens.n_terms, len(thetas)), dtype=np.complex128)
    for j, spec in enumerate(ens.spectra):
        out[j] = np.prod(1.0 - np.exp(1j * (spec.angles[:, None] - thetas[None, :])), axis=0)
    return out


def _rotation_values(ens: CombinationEnsemble, thetas: np.ndarray):
    """(G values, scale values) on a theta grid.

    G = Re[rot * sum b_j Z_j] with rot = i^N e^{iN theta/2} = e^{iN(pi+theta)/2};
    scale = sum |b_j| |Z_j| bounds |F| and calibrates the reality residual.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    z = _z_grid(ens, thetas)
    rot = np.exp(0.5j * ens.dim * (np.pi + thetas))
    combo = rot * (ens.coefficients @ z)
    scale = np.abs(ens.coefficients) @ np.abs(z)
    return combo, scale


def real_rotation(ens: CombinationEnsemble, theta: float) -> float:
    """G(theta), the real rotation of F at e^{-i theta}.

    For det-1 spectra the rotated sum is real up to rounding; the imaginary
    part (bounded by 1e-8 * sum |b_j||Z_j| + 1e-10 in tests) is discarded.
    """
    combo, _ = _rotation_values(ens, np.array([float(theta)]))
    return float(combo[0].real)


def rotation_scale(ens: CombinationEnsemble, theta: float) -> float:
    """sum_j |b_j| |Z_j(theta)|, the natural magnitude scale of G at theta."""
    _, scale = _rotation_values(ens, np.array([float(theta)]))
    return float(scale[0])


def _bracket_changes(evaluate, a, ga, b, gb, depth) -> int:
    """Count sign changes of G inside (a, b) by guarded bisection.

    Each returned unit corresponds to one sign flip over a subinterval
    disjoint from the others, so the total is a valid lower bound on the
    number of zeros.  A midpoint dip below both endpoint magnitudes flags a
    possible pair of zeros and forces descent into both halves.
    """
    flip = (ga > 0.0) != (gb > 0.0)
    if depth <= 0:
        return 1 if flip else 0
    mid = 0.5 * (a + b)
    gm = evaluate(mid)
    if gm == 0.0:
        # Exact zero off the node set: count the endpoint flip only (a
        # tangency contributes no sign change).
        return 1 if flip else 0
    dip = abs(gm) < abs(ga) and abs(gm) < abs(gb)
    left = (ga > 0.0) != (gm > 0.0)
    right = (gm > 0.0) != (gb > 0.0)
    total = 0
    if left or dip:
        total += _bracket_changes(evaluate, a, ga, mid, gm, depth - 1)
    if right or dip:
        total += _bracket_changes(evaluate, mid, gm, b, gb, depth - 1)
    if total == 0 and flip:
        # numerical safety: endpoints flip but neither half reported (can
        # only happen through exact-zero midpoints); count the one flip.
        total = 1
    return total


def sign_changes(ens: CombinationEnsemble, grid_factor: int = 8, max_refine: int = 20) -> int:
    """Lower bound for the number of zeros of F on the unit circle.

    Evaluates G on grid_factor*N uniform nodes plus every eigenangle of
    every spectrum, then counts sign alternations with bisection refinement
    (up to ``max_refine`` levels) inside brackets that flip sign or dip
    toward zero.  Exact zeros at nodes (e.g. eigenangles of an n=1
    ensemble) are removed from the sign sequence.  The circle is closed
    with G(theta + 2pi) = (-1)^N G(theta).
    """
    if not isinstance(grid_factor, (int, np.integer)) or grid_factor < 1:
        raise InvalidArgumentError(f"grid_factor must be a positive integer, got {grid_factor!r}")
    if not isinstance(max_refine, (int, np.integer)) or max_refine < 0:
        raise InvalidArgumentError(f"max_refine must be >= 0, got {max_refine!r}")
    n_dim = ens.dim
    base = np.arange(grid_factor * n_dim) * (TWO_PI / (grid_factor * n_dim))
    nodes = np.unique(np.concatenate([base] + [spec.angles for spec in ens.spectra]))
    combo, scale = _rotation_values(ens, nodes)
    g = combo.real
    floor = _DEGENERATE_TOL * np.maximum(scale, 1e-300)
    if np.all(np.abs(g) <= floor):
        raise DegenerateCombinationError(
            "combination is numerically zero on the whole grid (sum b_j Phi_j cancels)"
        )
    keep = g != 0.0
    nodes, g = nodes[keep], g[keep]
    if len(nodes) < 2:
        raise DegenerateCombinationError("fewer than two nonzero grid values")

    def evaluate(theta: float) -> float:
        wrapped = theta - TWO_PI if theta >= TWO_PI else theta
        value = real_rotation(ens, wrapped)
        if theta >= TWO_PI and n_dim % 2 == 1:
            value = -value
        return value

    total = 0
    for i in range(len(nodes) - 1):
        total += _bracket_changes(evaluate, nodes[i], g[i], nodes[i + 1], g[i + 1], max_refine)
    # wraparound bracket: from the last node to the first node + 2pi
    g_wrap = g[0] if n_dim % 2 == 0 else -g[0]
    total += _bracket_changes(evaluate, nodes[-1], g[-1], nodes[0] + TWO_PI, g_wrap, max_refine)
    return total


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
    values = ens.coefficients @ _z_grid(ens, np.arange(m) * (TWO_PI / m))
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
