"""Zeros of real linear combinations of unitary characteristic polynomials.

For det-1 unitaries U_1..U_n and nonzero reals b_1..b_n let

    F(z) = sum_j b_j det(I - z U_j).

Three routes count the zeros of F on the unit circle.

1. The sign-change lower bound.  The self-inversive structure of each
   factor makes G(theta) = Re[i^N e^{iN theta/2} F(e^{-i theta})] a real
   trigonometric polynomial whose sign changes lower-bound the count.
   :func:`sign_changes` refines all its brackets level by level (one
   kernel call per bisection level, for one ensemble or a whole stack of
   them) and drops each bracket whose count Bernstein's inequality already
   fixes.  One evaluator, :func:`_rotation`, takes G at flat (row, theta)
   points: the nodes, each level's live midpoints and :func:`real_rotation`.
2. The exact count.  :func:`circle_zero_counts` takes the inertia of the
   Schur-Cohn matrix of F' (Cohn's theorem in counting form), one stacked
   ``eigvalsh`` per degree, and certifies each count or raises.
3. The audit route.  :func:`roots_oracle` takes companion-matrix roots,
   one ``np.roots`` per ensemble, capped at N = ORACLE_MAX_DIM.

Routes 2 and 3 share F's coefficients, an inverse FFT of F sampled on the
circle.  Every route takes each Z_j from the kernel of
:func:`~cuelab.spectra.log_z_grid` as exp(log Z_j), so G and F stay finite
at any N.  As Im log Z_j is pi c_j plus a closed form, with
c_j = #{theta_jk < theta}, term j of G has the sign of
b_j (-1)^(m_j + c_j), where 2pi m_j is the det-1 angle sum.  One
ensemble is checked as a stack of one, by the same code as a whole stack.

G has frequencies -N/2..N/2 in theta, so Bernstein's inequality bounds
every derivative by the maximum: sup|G^(k)| <= (N/2)^k M.  On a grid of
spacing 2pi/(gN), g >= 2, the same inequality gives
M = max over the nodes of (|G| + e) / (1 - pi/(2g)), where e bounds the
rounding of the computed G.  If a bracket [a, b] of width w held k zeros
of G, interpolation at them would give |G| <= M (N/2)^k w^k / k! all over
[a, b].  So an endpoint magnitude above that bound, less e, leaves fewer
than k zeros there, also for G shifted by any constant below e; the count
of such a bracket is settled before it is bisected any further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCombinationError, InvalidArgumentError, InvalidEnsembleError, NumericalFailureError,
)
from .spectra import TWO_PI, _fft_coefficients, _fft_samples, _log_z_rows

__all__ = [
    "CombinationEnsemble",
    "RootSet",
    "real_rotation",
    "sign_changes",
    "circle_zero_counts",
    "roots_oracle",
    "circle_root_count",
]

# Relative coefficient/values floor below which a combination is treated as
# identically zero (exact cancellation up to rounding).
_DEGENERATE_TOL = 1e-12
_TRIM_TOL = 1e-10
# How far (in radians, mod 2pi) a spectrum's angle sum may sit from 0.
_DET_ONE_TOL = 1e-6
# Rounding slack e of a computed G, relative to the Bernstein bound of
# sum |b_j| |Z_j|; float64 rounding of the log Z kernel stays below
# 1e-15 N of it.
_ROUNDING_SLACK = 1e-8
# Multiple of n eps (max|lambda| + |T_1|_F^2 + |T_2|_F^2) allowed for
# forming a Schur-Cohn matrix by matmul and taking its eigenvalues.
_INERTIA_SLACK = 16.0
# Largest N the root oracle, and fraction's dense route, accept: np.roots
# costs O(N^3), about 1.3 s at N = 512, where roots on the circle still sit
# within 2e-14 of it.  The exact count takes no roots and has no cap.
ORACLE_MAX_DIM = 512


@dataclass
class CombinationEnsemble:
    """Coefficients and det-1 spectra defining F(z) = sum b_j det(I - z U_j).

    ``spectra`` holds EigenangleSpectrum objects or rows of sorted angles in
    [0, 2pi), as ``eigenangles`` gives them; ``angles`` and ``dim`` derive from them.
    """

    coefficients: np.ndarray
    spectra: list
    angles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = [getattr(spec, "angles", spec) for spec in self.spectra]
        self.coefficients, angles = _stack((self.coefficients, [rows]))
        self.angles = angles[0]

    @property
    def dim(self) -> int:
        return self.angles.shape[1]


def _rotation(coefficients: np.ndarray, angles: np.ndarray, rows: np.ndarray,
              thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G at each point thetas[p] on the spectra angles[rows[p]], and |Z_j| there.

    ``angles`` has shape (S, T, N), and ``rows`` and ``thetas`` shape (P,);
    one kernel call gives G, shape (P,), and the moduli, shape (T, P).
    G = Re[rot * sum b_j Z_j] with rot = i^N e^{iN theta/2} = e^{iN(pi+theta)/2},
    taken term by term as b_j |Z_j| cos(Im log Z_j + N(pi+theta)/2).
    """
    re, im = _log_z_rows(angles, thetas, rows)
    moduli = np.exp(re)
    g = coefficients @ (moduli * np.cos(im + 0.5 * angles.shape[-1] * (np.pi + thetas)))
    return g, moduli


def real_rotation(ens: CombinationEnsemble, theta: float) -> float:
    """G(theta), the real rotation of F at e^{-i theta}.

    For det-1 spectra each term's phase Im log Z_j + N(pi+theta)/2 is a
    multiple of pi, so G is real by construction.
    """
    g, _ = _rotation(ens.coefficients, ens.angles[None], np.zeros(1, dtype=np.intp),
                     np.array([float(theta)]))
    return float(g[0])


def _stack(ens) -> tuple[np.ndarray, np.ndarray]:
    """The validated (coefficients (T,), det-1 angles (S, T, N)) of a stack.

    The only ensemble check; det 1 is decided on each row's angle sum.
    """
    try:
        coefficients, angles = (np.asarray(part, dtype=np.float64) for part in ens)
    except ValueError as exc:  # ragged rows
        raise InvalidEnsembleError(f"spectra of mixed lengths: {exc}") from None
    if coefficients.ndim != 1 or len(coefficients) < 1:
        raise InvalidEnsembleError("need at least one coefficient")
    if np.any(coefficients == 0.0) or not np.all(np.isfinite(coefficients)):
        raise InvalidEnsembleError("all coefficients must be nonzero finite reals")
    if angles.ndim != 3 or angles.shape[1] != len(coefficients) or angles.shape[2] < 1:
        raise InvalidEnsembleError(
            f"need angles of shape (S, {len(coefficients)}, N), got {angles.shape}"
        )
    turns = np.sum(angles, axis=-1) / TWO_PI
    if not np.all(np.abs(turns - np.round(turns)) * TWO_PI <= _DET_ONE_TOL):
        raise InvalidEnsembleError("every spectrum needs det 1: angle sums must be 0 mod 2pi")
    return coefficients, angles


def _settled_brackets(a, ga, b, gb, row, bound, slack, n_dim) -> np.ndarray:
    """Which brackets [a, b] of the level loop Bernstein's bound settles.

    ``row`` names each bracket's ensemble, and ``bound`` and ``slack`` hold
    M and e per ensemble (see :func:`sign_changes`).  With
    w' = N (b - a)/2 and m = max(|G(a)|, |G(b)|) - e, a flipping bracket
    is settled (one zero) when m > M w'^3/6 and a steady one (no zero)
    when m > M w'^2/2.
    """
    span = 0.5 * n_dim * (b - a)
    flip = (ga > 0.0) != (gb > 0.0)
    margin = np.maximum(np.abs(ga), np.abs(gb)) - slack[row]
    return margin > bound[row] * span * span * np.where(flip, span / 6.0, 0.5)


def sign_changes(ens, grid_factor: int = 8, max_refine: int = 20):
    """Lower bound for the number of zeros of F on the unit circle.

    ``ens`` is a CombinationEnsemble, giving an int, or a stack of S
    ensembles that share their coefficients, given as the pair
    (coefficients (T,), det-1 eigenangles (S, T, N)), giving S counts.
    Each ensemble evaluates G on grid_factor*N uniform nodes plus every
    eigenangle of every spectrum; exact zeros at nodes (e.g. eigenangles of
    an n=1 ensemble) are removed from the sign sequence.  Every bracket
    between consecutive nodes, and the wrap bracket closed with
    G(theta + 2pi) = (-1)^N G(theta), is then refined level by level: one
    kernel call per level (at most ``max_refine``) evaluates exactly the
    live midpoints of every ensemble of the stack.  A midpoint where G is
    exactly 0 ends its bracket and counts the endpoint flip (a tangency
    adds no sign change); otherwise a half is kept if it flips sign or the
    midpoint dips below both endpoint magnitudes, which flags a possible
    pair of zeros.
    Each bracket left flipping after the last level counts one.  The halves
    are disjoint, so the total is a valid lower bound.

    Before each level a bracket whose count is already fixed leaves the
    loop.  Per ensemble, with q = 1 - pi/(2 grid_factor), the rounding
    slack is e = 1e-8 sum_j |b_j| max|Z_j| / q and the bound is
    M = max(|G| + e) / q, both maxima over the nodes.  With w = b - a and
    m = max(|G(a)|, |G(b)|) - e, a flipping bracket with
    m > M (N/2)^3 w^3 / 6 counts one, and a steady bracket with
    m > M (N/2)^2 w^2 / 2 counts none.  By Bernstein's inequality
    sup|G^(k)| <= (N/2)^k M, and a bracket holding k zeros (with
    multiplicity) has |G| <= sup|G^(k)| w^k / k! all over it, so the first
    holds fewer than three zeros, hence exactly one, and the second fewer
    than two, hence none.  The bound holds for G - c at every |c| < e too,
    so no shift of G within its rounding slack adds a zero there, and the
    bisection would have counted the bracket the same way, short of
    rounding noise at midpoints within e of the one zero, which could only
    have added spurious pairs.  With grid_factor 1 the node bound does not
    hold (q < 0) and no bracket leaves early; moduli that overflow make M
    infinite, with the same effect.  An ensemble that is
    numerically zero on its nodes, or nonzero on fewer than two, is
    degenerate: a single ensemble raises DegenerateCombinationError, and a
    stack reports -1 in its row.
    """
    if not isinstance(grid_factor, (int, np.integer)) or grid_factor < 1:
        raise InvalidArgumentError(f"grid_factor must be a positive integer, got {grid_factor!r}")
    if not isinstance(max_refine, (int, np.integer)) or max_refine < 0:
        raise InvalidArgumentError(f"max_refine must be >= 0, got {max_refine!r}")
    single = isinstance(ens, CombinationEnsemble)
    coefficients, angles = (ens.coefficients, ens.angles[None]) if single else _stack(ens)
    n_rows, _, n_dim = angles.shape
    base = np.arange(grid_factor * n_dim) * (TWO_PI / (grid_factor * n_dim))
    nodes = np.sort(np.concatenate(
        [np.broadcast_to(base, (n_rows, base.size)), angles.reshape(n_rows, -1)], axis=1
    ), axis=1)
    g, moduli = _rotation(coefficients, angles, np.repeat(np.arange(n_rows), nodes.shape[1]),
                          nodes.ravel())
    g = g.reshape(nodes.shape)
    # sum |b_j| |Z_j| bounds |F| and calibrates the degeneracy floor
    scale = (np.abs(coefficients) @ moduli).reshape(nodes.shape)
    degenerate = np.all(np.abs(g) <= _DEGENERATE_TOL * np.maximum(scale, 1e-300), axis=1)
    # a row's nodes as np.unique gives them (the first of each run of equal
    # nodes), less the exact zeros of G
    keep = g != 0.0
    keep[:, 1:] &= nodes[:, 1:] != nodes[:, :-1]
    degenerate |= np.count_nonzero(keep, axis=1) < 2
    keep[degenerate] = False
    # per row: the rounding slack e and the Bernstein bound M of sup|G|
    # (1/q, infinite where the node bound fails)
    factor = 1.0 / (1.0 - np.pi / (2 * grid_factor)) if grid_factor >= 2 else np.inf
    peaks = moduli.reshape((-1,) + nodes.shape).max(axis=-1)
    slack = _ROUNDING_SLACK * factor * (np.abs(coefficients) @ peaks)
    bound = factor * (np.max(np.abs(g), axis=1) + slack)
    # live brackets (a, G(a), b, G(b), row), grouped by row: consecutive
    # nodes, then each row's wrap from its last node to its first
    row, col = np.nonzero(keep)
    a, ga = nodes[row, col], g[row, col]
    per_row = np.count_nonzero(keep, axis=1)[~degenerate]
    last = np.cumsum(per_row) - 1
    first = last - per_row + 1
    after = np.arange(1, row.size + 1)
    after[last] = first
    b, gb = a[after], ga[after]
    b[last] += TWO_PI
    odd = n_dim % 2 == 1
    if odd:
        gb[last] = -gb[last]
    total = np.zeros(n_rows, dtype=np.intp)
    for _ in range(max_refine):
        # settled brackets leave: one zero if flipping, none if steady
        settled = _settled_brackets(a, ga, b, gb, row, bound, slack, n_dim)
        total += np.bincount(row[settled & ((ga > 0.0) != (gb > 0.0))], minlength=n_rows)
        live = ~settled
        a, ga, b, gb, row = a[live], ga[live], b[live], gb[live], row[live]
        if a.size == 0:
            break
        mid = 0.5 * (a + b)
        wrapped = mid >= TWO_PI
        gm = _rotation(coefficients, angles, row, np.where(wrapped, mid - TWO_PI, mid))[0]
        if odd:
            gm = np.where(wrapped, -gm, gm)
        zero = gm == 0.0
        total += np.bincount(row[zero & ((ga > 0.0) != (gb > 0.0))], minlength=n_rows)
        dip = (np.abs(gm) < np.abs(ga)) & (np.abs(gm) < np.abs(gb))
        left = ~zero & (((ga > 0.0) != (gm > 0.0)) | dip)
        right = ~zero & (((gm > 0.0) != (gb > 0.0)) | dip)
        # a bracket's kept halves take its place, so rows stay grouped
        halves = np.stack([left, right], axis=1)
        pairs = np.array([[a, mid], [ga, gm], [mid, b], [gm, gb]]).transpose(0, 2, 1)
        a, ga, b, gb = pairs[:, halves]
        row = np.repeat(row, np.count_nonzero(halves, axis=1))
    total += np.bincount(row[(ga > 0.0) != (gb > 0.0)], minlength=n_rows)
    total[degenerate] = -1
    if not single:
        return total
    if degenerate[0]:
        raise DegenerateCombinationError(
            "combination is numerically zero on the grid (sum b_j Phi_j cancels), "
            "or nonzero at fewer than two nodes"
        )
    return int(total[0])


@dataclass
class RootSet:
    """Roots of the expanded combination; their count is the trimmed degree."""

    roots: np.ndarray

    def __post_init__(self):
        self.roots = np.asarray(self.roots, dtype=np.complex128)

    @property
    def effective_degree(self) -> int:
        return len(self.roots)

    def symmetry_defect(self) -> float:
        """Worst matching distance of the root multiset to its 1/conj image.

        For det-1 ensembles the functional equation pairs every root z with
        1/conj(z); a greedy nearest-neighbor match over the multiset gives
        the defect, normalized by max(1, |image|) per root.
        """
        images = 1.0 / np.conj(self.roots)
        remaining = list(range(len(self.roots)))
        worst = 0.0
        for img in images:
            dists = np.abs(self.roots[remaining] - img) / max(1.0, abs(img))
            k = int(np.argmin(dists))
            worst = max(worst, float(dists[k]))
            remaining.pop(k)
        return worst


def _combination_coefficients(coefficients, angles) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficients a_0..a_N of every F of a stack, and their noise.

    ``angles`` has shape (S, T, N); the results have shapes (S, N + 1) and
    (S,), from :func:`~cuelab.spectra._fft_coefficients` with the moduli
    bounded by sum_j |b_j| |Z_j|.
    """
    re, im = _fft_samples(angles)
    return _fft_coefficients(coefficients @ np.exp(re + 1j * im),
                             np.abs(coefficients) @ np.exp(re), angles.shape[-1])


def circle_zero_counts(ens, uncertified: int | None = None):
    """Exact number of zeros of F on the unit circle, without roots.

    ``ens`` is a CombinationEnsemble, giving an int, or a stack of S
    ensembles that share their coefficients, given as the pair
    (coefficients (T,), det-1 eigenangles (S, T, N)), giving S counts.
    A row the certificate below cannot settle raises NumericalFailureError,
    or, for a stack given an ``uncertified`` int, reports that value.

    **Trim.**  F's coefficients below 1e-10 of the peak are stripped at both
    ends: at the top as in :func:`roots_oracle`, and at the bottom too, for
    when sum b_j = 0 both a_N and a_0 vanish, F = z p, and the zero at 0 is
    not on the circle.  For det-1 spectra
    z^N conj F(1/conj z) = (-1)^N F(z), so |a_m| = |a_{N-m}| and both ends
    lose the same number of coefficients; what is left, p of degree n, is
    self-inversive: z^n conj p(1/conj z) = e^{i alpha} p(z).

    **Counting form of Cohn's theorem.**  If p' has no zero on the circle,
    p has exactly n - 2k zeros there, k = #{zeros of p' with |z| > 1}.
    Proof: on |z| = 1 the symmetry reads conj p = e^{i alpha} z^{-n} p, so
    p(e^{it}) = e^{i(nt - alpha)/2} R(t) with R real, and differentiating,
    e^{it} p'(e^{it}) = e^{i(nt - alpha)/2} w(t), w = nR/2 - iR'.  As p' has
    no circle zero, w never vanishes: R and R' have no common zero, so the
    circle zeros of p are the c simple zeros of R.  The curve w meets the
    imaginary axis only there, at -iR' while Re w moves with the sign of
    R': below 0 moving right or above 0 moving left, counterclockwise both
    ways.  Between two such crossings w stays in one half plane, so its
    argument gains pi per crossing and c pi in all; the factor
    e^{i(nt - alpha)/2} adds n pi.  By the argument principle z p'(z) has
    (n + c)/2 zeros in the disc: the one at 0 and n - 1 - k of p'.  So
    c = n - 2k.

    **Inertia.**  For q = p' of degree d = n - 1, let T_1 and T_2 be the
    d x d lower-triangular Toeplitz matrices with first columns
    q_0..q_{d-1} and conj q_d..conj q_1.  If H = T_2^H T_2 - T_1^H T_1 is
    nonsingular, q has no zero on the circle and H has as many negative
    eigenvalues as q has zeros outside it (Schur 1917, Cohn 1922,
    Krein-Naimark 1936).  So the count is n - 2 #{lambda(H) < 0}, from one
    stacked ``eigvalsh`` per group of rows that share the trimmed degree
    (generically the whole stack); n <= 1 needs no matrix.

    **Certificate.**  By Weyl's inequality each eigenvalue of the exact H
    lies within |dH|_2 of the computed one.  The allowance for |dH|_2 is
    16 n eps (max|lambda| + |T_1|_F^2 + |T_2|_F^2) for the matmuls and
    ``eigvalsh``, plus 2e(|T_1|_F + |T_2|_F + e) for the coefficients'
    error: with the factor k + 1 of q_k, e = sqrt(d) n times their l2
    error bounds each |dT_i|_F.  That l2 error is taken to be at most the
    allowance of :func:`_combination_coefficients`, an empirical constant
    (measured noise times about 3), not a proven bound on the rounding of
    the log Z kernel and the FFT; so the certificate is calibrated, not
    rigorous.  Where min|lambda| exceeds the allowance, the exact H is
    nonsingular with the computed inertia, so the hypothesis holds and the
    count is exact.  Elsewhere the row is uncertified, and the error names
    it: a double circle zero (a repeated eigenangle of a single term) makes
    p' vanish on the circle and H singular, so it never passes.  A stack
    reports -1 for a row whose coefficients all vanish; a single ensemble
    raises DegenerateCombinationError there, as the oracle does.
    """
    single = isinstance(ens, CombinationEnsemble)
    coefficients, angles = (ens.coefficients, ens.angles[None]) if single else _stack(ens)
    coeffs, noise = _combination_coefficients(coefficients, angles)
    width = coeffs.shape[1]
    magnitudes = np.abs(coeffs)
    peak = magnitudes.max(axis=1, initial=0.0)
    kept = magnitudes > _TRIM_TOL * peak[:, None]
    low = np.argmax(kept, axis=1)
    degree = width - 1 - np.argmax(kept[:, ::-1], axis=1) - low
    vanishing = peak == 0.0
    if single and vanishing[0]:
        raise DegenerateCombinationError("all combination coefficients vanish")
    lopsided = np.flatnonzero(~vanishing & (2 * low + degree != width - 1))
    if lopsided.size:
        r = lopsided[0]
        raise NumericalFailureError(
            f"trimmed coefficients are not self-inversive: {low[r]} stripped at the bottom, "
            f"{width - 1 - low[r] - degree[r]} at the top{'' if single else f' in row {r}'}"
        )
    counts = np.full(len(coeffs), -1)
    for n in np.unique(degree[~vanishing]):
        rows = np.flatnonzero(~vanishing & (degree == n))
        if n <= 1:
            counts[rows] = n
            continue
        d = n - 1
        q = coeffs[rows, low[rows[0]] + 1:low[rows[0]] + n + 1] * np.arange(1, n + 1)
        lag = np.subtract.outer(np.arange(d), np.arange(d))
        lower = lag >= 0
        lag = np.maximum(lag, 0)
        t1 = np.where(lower, q[:, lag], 0.0)
        t2 = np.where(lower, np.conj(q[:, :0:-1])[:, lag], 0.0)
        h = np.conj(t2).swapaxes(1, 2) @ t2 - np.conj(t1).swapaxes(1, 2) @ t1
        lam = np.linalg.eigvalsh(h)
        # |T_1|_F and |T_2|_F: q_k sits on d - k diagonal entries of T_1,
        # conj q_k on k entries of T_2
        f1 = np.sqrt(np.abs(q[:, :d]) ** 2 @ np.arange(d, 0, -1))
        f2 = np.sqrt(np.abs(q[:, 1:]) ** 2 @ np.arange(1, d + 1))
        e = np.sqrt(d) * n * noise[rows]
        size = np.abs(lam).max(axis=1)
        allowance = (_INERTIA_SLACK * n * np.finfo(float).eps * (size + f1 ** 2 + f2 ** 2)
                     + 2.0 * e * (f1 + f2 + e))
        smallest = np.abs(lam).min(axis=1)
        counts[rows] = n - 2 * np.count_nonzero(lam < 0.0, axis=1)
        bad = np.flatnonzero(~(smallest > allowance))
        if bad.size and uncertified is not None and not single:
            counts[rows[bad]] = uncertified
        elif bad.size:
            b, r = bad[0], rows[bad[0]]
            raise NumericalFailureError(
                f"circle zero count not certified: min|lambda| {smallest[b]:.3e} of the "
                f"Schur-Cohn matrix <= allowance {allowance[b]:.3e} (a double circle zero, "
                f"or a zero of F' next to the circle){'' if single else f' in row {r}'}"
            )
    return int(counts[0]) if single else counts


def roots_oracle(ens: CombinationEnsemble) -> RootSet:
    """All roots of the combination, via the companion matrix.

    The coefficients are the inverse FFT of F on the unit circle.  Leading
    coefficients below 1e-10 of the max magnitude are trimmed first (they
    arise when sum b_j cancels), so the companion matrix sees the
    effective degree, the root count.  Accepts N <= ORACLE_MAX_DIM (512).
    """
    if ens.dim > ORACLE_MAX_DIM:
        raise InvalidArgumentError(
            f"roots oracle accepts N <= {ORACLE_MAX_DIM}, got N={ens.dim}"
        )
    coeffs = _combination_coefficients(ens.coefficients, ens.angles[None])[0][0, ::-1]
    magnitudes = np.abs(coeffs)
    peak = float(np.max(magnitudes))
    if peak == 0.0:
        raise DegenerateCombinationError("all combination coefficients vanish")
    # np.roots gives one root per trimmed degree, zeros for trailing zeros included
    return RootSet(np.roots(coeffs[int(np.argmax(magnitudes > _TRIM_TOL * peak)):]))


def circle_root_count(rootset: RootSet, tol: float = 1e-6) -> int:
    """Number of roots with | |z| - 1 | <= tol."""
    if tol <= 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    return int(np.sum(np.abs(np.abs(rootset.roots) - 1.0) <= tol))
