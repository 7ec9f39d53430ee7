"""Zeros of real linear combinations of unitary characteristic polynomials.

For det-1 unitaries U_1..U_n and nonzero reals b_1..b_n let

    F(z) = sum_j b_j det(I - z U_j).

Three routes count the zeros of F on the unit circle.

1. The sign-change lower bound.  The self-inversive structure of each
   factor makes G(theta) = Re[i^N e^{iN theta/2} F(e^{-i theta})] a real
   trigonometric polynomial whose sign changes lower-bound the count.
   :func:`sign_changes` takes G on its uniform nodes from one pass of
   per-term log Z samples, and at each eigenangle from the other terms
   alone; it then refines all its brackets level by level (one kernel
   call per bisection level, for one ensemble or a whole stack of them)
   and drops each bracket whose count Bernstein's inequality already
   fixes.  One formula, :func:`_real_part`, turns per-term log Z into G:
   on the nodes, at each level's live midpoints (:func:`_rotation`) and in
   :func:`real_rotation`.
2. The exact count.  :func:`circle_zero_counts` takes the number of zeros
   of F' inside the disc from the Schur-Cohn table, O(N^2) per row
   (Cohn's theorem in counting form), and certifies each count or raises.
3. The audit route.  :func:`roots_oracle` takes companion-matrix roots,
   one ``np.roots`` per ensemble, capped at N = ORACLE_MAX_DIM.

Routes 2 and 3 share F's coefficients, an inverse FFT of F sampled on a
uniform grid of the circle.  A runner block takes one pass of samples on
the sign scan's 8N nodes (8N >= 2N + 2 at every N), which the count
transforms as they are.  Every route takes each Z_j from the kernel of
:func:`~cuelab.spectra.log_z_grid` as exp(log Z_j), so G and F stay finite
at any N.  As Im log Z_j is pi c_j plus a closed form, with
c_j = #{theta_jk < theta}, term j of G has the sign of
b_j (-1)^(m_j + c_j), where 2pi m_j is the det-1 angle sum.  One
ensemble is checked as a stack of one, by the same code as a whole stack.

G has frequencies -N/2..N/2 in theta, so Bernstein's inequality bounds
every derivative by the maximum: sup|G^(k)| <= (N/2)^k M.  On the grid of
spacing 2pi/(8N) the same inequality gives
M = max over the nodes of (|G| + e) / (1 - pi/16), where e bounds the
rounding of the computed G.  If a bracket [a, b] of width w held k zeros
of G, interpolation at them would give |G(a)| + |G(b)| <= M (N/2)^k w^k / k!.
So endpoint magnitudes summing above that bound, less 2e, leave fewer
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
# Least multiple of the relative l2 noise of F's coefficients that the
# Schur-Cohn table's least |delta_k| / (|a_0|^2 + |a_d|^2) must exceed; from
# degree 250 up the multiple is 16 n^2 (calibrated; see circle_zero_counts).
_TABLE_MARGIN = 1e6
# Sign-scan nodes per unit dimension, and the depth of its level loop.
_GRID_FACTOR = 8
_REFINE_DEPTH = 20
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
        self.coefficients, angles, _ = _stack((self.coefficients, [rows]))
        self.angles = angles[0]

    @property
    def dim(self) -> int:
        return self.angles.shape[1]


def _real_part(coefficients, re, im, thetas, n_dim) -> tuple[np.ndarray, np.ndarray]:
    """G at thetas from each term's log Z there, and the moduli |Z_j|.

    ``re`` and ``im`` hold Re and Im log Z_j with the terms first, shape
    (T, ...), and ``thetas`` broadcasts against (...).
    G = Re[rot * sum b_j Z_j] with rot = i^N e^{iN theta/2} = e^{iN(pi+theta)/2},
    taken term by term as b_j |Z_j| cos(Im log Z_j + N(pi+theta)/2) and
    summed over the terms in order, so that each value depends on its own
    log Z values alone, not on the other points of the call.
    """
    moduli = np.exp(re)
    weights = np.reshape(coefficients, (-1,) + (1,) * (re.ndim - 1))
    terms = weights * (moduli * np.cos(im + 0.5 * n_dim * (np.pi + thetas)))
    return np.add.reduce(terms, axis=0), moduli


def _rotation(coefficients: np.ndarray, angles: np.ndarray, rows: np.ndarray,
              thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G at each point thetas[p] on the spectra angles[rows[p]], and |Z_j| there.

    ``angles`` has shape (S, T, N), and ``rows`` and ``thetas`` shape (P,);
    one kernel call gives G, shape (P,), and the moduli, shape (T, P).
    """
    re, im = _log_z_rows(angles, thetas, rows)
    return _real_part(coefficients, re, im, thetas, angles.shape[-1])


def _own_angle_rotation(coefficients: np.ndarray, angles: np.ndarray):
    """G at every eigenangle of every spectrum, and the moduli there.

    ``angles`` has shape (S, T, N); G has shape (S, T N), the points in the
    order of ``angles.reshape(S, -1)``, and the moduli (T, S, T N).  Z_j is
    exactly 0 at its own eigenangles, where the kernel's Re log Z_j is
    -inf, so only the other terms are evaluated there, in one kernel call
    over the (S T, T - 1, N) stack of each eigenangle's other spectra;
    term j adds b_j 0 cos(...) = +-0 to G, and its modulus is 0.
    """
    n_rows, n_terms, n_dim = angles.shape
    others = np.array([[i for i in range(n_terms) if i != j] for j in range(n_terms)],
                      dtype=np.intp)
    stack = angles[:, others].reshape(n_rows * n_terms, n_terms - 1, n_dim)
    part = _log_z_rows(stack, angles.ravel(), np.repeat(np.arange(n_rows * n_terms), n_dim))
    part_re, part_im = (v.reshape(n_terms - 1, n_rows, n_terms, n_dim) for v in part)
    re = np.full((n_terms,) + angles.shape, -np.inf)
    im = np.zeros(re.shape)
    for j, terms in enumerate(others):
        re[terms, :, j], im[terms, :, j] = part_re[:, :, j], part_im[:, :, j]
    shape = (n_terms, n_rows, n_terms * n_dim)
    return _real_part(coefficients, re.reshape(shape), im.reshape(shape),
                      angles.reshape(n_rows, -1), n_dim)


def real_rotation(ens: CombinationEnsemble, theta: float) -> float:
    """G(theta), the real rotation of F at e^{-i theta}.

    For det-1 spectra each term's phase Im log Z_j + N(pi+theta)/2 is a
    multiple of pi, so G is real by construction.
    """
    g, _ = _rotation(ens.coefficients, ens.angles[None], np.zeros(1, dtype=np.intp),
                     np.array([float(theta)]))
    return float(g[0])


def _stack(ens) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The validated (coefficients (T,), det-1 angles (S, T, N), samples) of a stack.

    The only ensemble check; det 1 is decided on each row's angle sum.  A
    stack may carry a third part, the log Z samples of its spectra on the
    sign scan's nodes 2pi p/(8N), shape (S, T, 8N), as
    :func:`~cuelab.spectra._fft_samples` gives them; it is None otherwise.
    """
    parts = tuple(ens)
    if len(parts) not in (2, 3):
        raise InvalidEnsembleError(
            f"a stack is (coefficients, angles) or (coefficients, angles, samples), "
            f"got {len(parts)} parts"
        )
    try:
        coefficients, angles = (np.asarray(part, dtype=np.float64) for part in parts[:2])
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
    if len(parts) == 2:
        return coefficients, angles, None
    samples = np.asarray(parts[2], dtype=np.complex128)
    shape = angles.shape[:2] + (_GRID_FACTOR * angles.shape[2],)
    if samples.shape != shape:
        raise InvalidEnsembleError(f"need samples of shape {shape}, got {samples.shape}")
    return coefficients, angles, samples


def _settled_brackets(a, ga, b, gb, row, bound, slack, n_dim) -> np.ndarray:
    """Which brackets [a, b] of the level loop Bernstein's bound settles.

    ``row`` names each bracket's ensemble, and ``bound`` and ``slack`` hold
    M and e per ensemble (see :func:`sign_changes`).  With
    w' = N (b - a)/2 and m = |G(a)| + |G(b)| - 2e, a flipping bracket is
    settled (one zero) when m > M w'^3/6 and a steady one (no zero) when
    m > M w'^2/2.
    """
    span = 0.5 * n_dim * (b - a)
    flip = (ga > 0.0) != (gb > 0.0)
    margin = np.abs(ga) + np.abs(gb) - 2.0 * slack[row]
    return margin > bound[row] * span * span * np.where(flip, span / 6.0, 0.5)


def sign_changes(ens):
    """Lower bound for the number of zeros of F on the unit circle.

    ``ens`` is a CombinationEnsemble, giving an int, or a stack of S
    ensembles that share their coefficients, given as the pair
    (coefficients (T,), det-1 eigenangles (S, T, N)), giving S counts; the
    stack may carry its log Z samples on the 8N nodes as a third part (see
    :func:`_stack`), which are otherwise taken from
    :func:`~cuelab.spectra._fft_samples` as the runners take them.
    Each ensemble evaluates G on 8N uniform nodes plus every eigenangle of
    every spectrum; exact zeros at nodes (e.g. eigenangles of an n=1
    ensemble) are removed from the sign sequence.  Every bracket between
    consecutive nodes, and the wrap bracket closed with
    G(theta + 2pi) = (-1)^N G(theta), is then refined level by level: one
    kernel call per level (at most 20) evaluates exactly the live
    midpoints of every ensemble of the stack.  A midpoint where G is
    exactly 0 ends its bracket and counts the endpoint flip (a tangency
    adds no sign change); otherwise a half is kept if it flips sign or the
    midpoint dips below both endpoint magnitudes, which flags a possible
    pair of zeros.
    Each bracket left flipping after the last level counts one.  The halves
    are disjoint, so the total is a valid lower bound.

    Before each level a bracket whose count is already fixed leaves the
    loop.  Per ensemble, with q = 1 - pi/16, the rounding slack is
    e = 1e-8 sum_j |b_j| max|Z_j| / q and the bound is
    M = max(|G| + e) / q, both maxima over the nodes.  With w = b - a and
    m = |G(a)| + |G(b)| - 2e, a flipping bracket with
    m > M (N/2)^3 w^3 / 6 counts one, and a steady bracket with
    m > M (N/2)^2 w^2 / 2 counts none.  Proof: by Bernstein's inequality
    sup|G^(k)| <= (N/2)^k M.  If the bracket held k zeros x_1..x_k of G - c
    (with multiplicity, |c| < e), the interpolation remainder at them
    would give |G(t) - c| <= sup|G^(k)| prod_i |t - x_i| / k! for every t
    in it.  The sum prod_i (x_i - a) + prod_i (b - x_i) is linear in each
    x_i in [a, b], so it is largest at a corner, where every x_i sits at
    a or at b; there one product vanishes unless all sit at one end, and
    the other is w^k.  So |G(a) - c| + |G(b) - c| <= M (N/2)^k w^k / k!,
    and |G(a)| + |G(b)| - 2e is below it.  A flipping bracket past the
    first test thus holds fewer than three zeros, hence exactly one, and a
    steady one past the second fewer than two, hence none; as this holds
    for G - c at every |c| < e, no shift of G within its rounding slack
    adds a zero there, and the bisection would have counted the bracket
    the same way, short of rounding noise at midpoints within e of the one
    zero, which could only have added spurious pairs.  Moduli that
    overflow make M infinite, and then no bracket leaves early.  An
    ensemble that is numerically zero on its nodes, or nonzero on fewer
    than two, is degenerate: a single ensemble raises
    DegenerateCombinationError, and a stack reports -1 in its row.
    """
    single = isinstance(ens, CombinationEnsemble)
    coefficients, angles, samples = (
        (ens.coefficients, ens.angles[None], None) if single else _stack(ens))
    n_rows, _, n_dim = angles.shape
    if samples is None:
        samples = _fft_samples(angles, _GRID_FACTOR * n_dim)
    base = np.arange(samples.shape[-1]) * (TWO_PI / samples.shape[-1])
    on_base = np.moveaxis(samples, 1, 0)
    g_base, moduli_base = _real_part(coefficients, on_base.real, on_base.imag, base, n_dim)
    g_own, moduli_own = _own_angle_rotation(coefficients, angles)
    nodes = np.concatenate([np.broadcast_to(base, (n_rows, base.size)),
                            angles.reshape(n_rows, -1)], axis=1)
    g = np.concatenate([g_base, g_own], axis=1)
    moduli = np.concatenate([moduli_base, moduli_own], axis=2)
    # sum |b_j| |Z_j| bounds |F| and calibrates the degeneracy floor
    scale = (np.abs(coefficients) @ moduli.reshape(len(coefficients), -1)).reshape(g.shape)
    degenerate = np.all(np.abs(g) <= _DEGENERATE_TOL * np.maximum(scale, 1e-300), axis=1)
    order = np.argsort(nodes, axis=1, kind="stable")
    nodes, g = np.take_along_axis(nodes, order, axis=1), np.take_along_axis(g, order, axis=1)
    # a row's nodes as np.unique gives them (the first of each run of equal
    # nodes), less the exact zeros of G
    keep = g != 0.0
    keep[:, 1:] &= nodes[:, 1:] != nodes[:, :-1]
    degenerate |= np.count_nonzero(keep, axis=1) < 2
    keep[degenerate] = False
    # per row: the rounding slack e and the Bernstein bound M of sup|G|
    factor = 1.0 / (1.0 - np.pi / (2 * _GRID_FACTOR))
    slack = _ROUNDING_SLACK * factor * (np.abs(coefficients) @ moduli.max(axis=-1))
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
    for _ in range(_REFINE_DEPTH):
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


def _combination_coefficients(coefficients, samples, n_dim) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficients a_0..a_N of every F of a stack, and their noise.

    ``samples`` holds log Z of each spectrum on a uniform grid, shape
    (S, T, L), from :func:`~cuelab.spectra._fft_samples`; the results have
    shapes (S, N + 1) and (S,), from :func:`~cuelab.spectra._fft_coefficients`
    with the moduli bounded by sum_j |b_j| |Z_j|.
    """
    return _fft_coefficients(coefficients @ np.exp(samples),
                             np.abs(coefficients) @ np.exp(samples.real), n_dim)


def _schur_cohn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeros inside the unit disc of each row of q by the Schur-Cohn table, and its margin.

    ``q`` holds ascending coefficients a_0..a_d, d >= 1, one polynomial
    per row (S, d + 1).  Each step rescales q by its largest modulus and
    takes Tq_m = conj(a_0) a_m - a_d conj(a_{d-m}), m < d, of formal degree
    d - 1, and delta = Tq_0 = |a_0|^2 - |a_d|^2.  The count is the number
    of negative running products delta_1 ... delta_k (see
    :func:`circle_zero_counts`); the margin is the least
    |delta_k| / (|a_0|^2 + |a_d|^2) of the steps, 0 or NaN where a step
    vanishes.
    """
    deltas = np.empty((q.shape[1] - 1, len(q)))
    ends = np.empty(deltas.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, d in enumerate(range(q.shape[1] - 1, 0, -1)):
            q = q / np.abs(q).max(axis=1, keepdims=True)
            first, top = q[:, :1], q[:, d:d + 1]
            ends[k] = np.abs(first[:, 0]) ** 2 + np.abs(top[:, 0]) ** 2
            q = np.conj(first) * q[:, :d] - top * np.conj(q[:, d:0:-1])
            deltas[k] = q[:, 0].real
        negative = np.cumsum(deltas < 0.0, axis=0) % 2 == 1
        return np.count_nonzero(negative, axis=0), np.min(np.abs(deltas) / ends, axis=0)


def circle_zero_counts(ens, uncertified: int | None = None):
    """Exact number of zeros of F on the unit circle, without roots.

    ``ens`` is a CombinationEnsemble, giving an int, or a stack of S
    ensembles that share their coefficients, given as the pair
    (coefficients (T,), det-1 eigenangles (S, T, N)), giving S counts.
    F's coefficients come from log Z samples on M = 2^k >= 2N + 2 points,
    or from those a stack carries as its third part (see :func:`_stack`).
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

    **The Schur-Cohn table** (Schur 1917, Cohn 1922; Marden, *Geometry of
    Polynomials*, 1966).  For q of formal degree d with coefficients
    a_0..a_d, let q*(z) = z^d conj q(1/conj z), Tq = conj(a_0) q - a_d q*,
    of formal degree d - 1, and delta = Tq(0) = |a_0|^2 - |a_d|^2.  Let
    delta_k = T^k q(0), k = 1..d.  If every delta_k != 0, q has no zero on
    the circle and i(q) = #{k : delta_1 ... delta_k < 0} zeros inside it.
    Proof: on the circle |q*| = |q|, so a circle zero of q is one of q*
    and of Tq, hence of every T^k q down to the constant T^d q = delta_d,
    which is not 0.  Where q has no circle zero: if delta > 0,
    |a_d q*| < |a_0 q| on the circle and by Rouche Tq has the i(q) zeros
    of q in the disc; if delta < 0, |a_0 q| < |a_d q*|, a_d != 0, and Tq
    has the zeros of q* there, the mirror images 1/conj z of the
    d - i(q) zeros of q outside.  Either way Tq has no circle zero.  By
    induction on d (the constant T^d q has none inside), i(Tq) is the
    number of negative products delta_2 ... delta_k, k = 2..d.  For
    delta_1 > 0 the products from delta_1 have the same signs, and
    i(q) = i(Tq); for delta_1 < 0 they flip, delta_1 itself counts one,
    and i(q) = 1 + (d - 1 - i(Tq)) = d - i(Tq).  A positive rescaling of
    any T^k q scales the later delta by positive factors, so no sign moves.
    With q = p' and d = n - 1, k = d - i(q), and the count is
    n - 2(d - i(q)): O(n^2) per row, one table over every row of a stack
    that shares the trimmed degree (generically the whole stack); n <= 1
    needs no table.

    **Certificate.**  The table's margin is the least
    |delta_k| / (|a_0|^2 + |a_d|^2) over its steps, each taken on the
    rescaled T^(k-1) q.  Its input error is the noise allowance of
    :func:`_combination_coefficients`: with the factor k + 1 of q_k,
    n times it bounds the l2 error of q, eta = n noise / |q|_2 relative to
    q.  A row is certified when its margin exceeds max(1e6, 16 n^2) eta.
    That factor is calibrated, not proven: random perturbations of q of l2
    norm eta |q|_2 moved a step's ratio delta_k / (|a_0|^2 + |a_d|^2) by
    at most 5e2 eta at N = 16, 8e3 eta at 64, 2.2e5 eta at 256, 1.4e5 eta
    at 512 and 2.1e6 eta at 1024 (1,880 Haar rows of one to three terms,
    three perturbations each): about 2 N^2 eta, never above 3.3 N^2 eta,
    so 16 n^2 keeps about five times that.  The least margin in 5,220 rows
    from N = 16 to 1024 was 1e7 eta.  The allowance is itself an empirical
    constant, not a proven bound on the rounding of the log Z kernel and
    the FFT; so the certificate is calibrated, not rigorous.  On a
    certified row every delta_k of the exact table has the sign of the
    computed one, so the hypothesis holds and the count is exact.
    Elsewhere the row is uncertified, and the error names it: a double
    circle zero (a repeated eigenangle of a single term) makes p' vanish
    on the circle and a delta_k vanish, so it never passes.  A stack
    reports -1 for a row whose coefficients all vanish; a single ensemble
    raises DegenerateCombinationError there, as the oracle does.
    """
    single = isinstance(ens, CombinationEnsemble)
    coefficients, angles, samples = (
        (ens.coefficients, ens.angles[None], None) if single else _stack(ens))
    if samples is None:
        samples = _fft_samples(angles)
    coeffs, noise = _combination_coefficients(coefficients, samples, angles.shape[-1])
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
        q = coeffs[rows, low[rows[0]] + 1:low[rows[0]] + n + 1] * np.arange(1, n + 1)
        inside, margin = _schur_cohn(q)
        counts[rows] = n - 2 * (n - 1 - inside)
        factor = max(_TABLE_MARGIN, 16.0 * n * n)
        allowance = factor * n * noise[rows] / np.linalg.norm(q, axis=1)
        bad = np.flatnonzero(~(margin > allowance))
        if bad.size and uncertified is not None and not single:
            counts[rows[bad]] = uncertified
        elif bad.size:
            b, r = bad[0], rows[bad[0]]
            raise NumericalFailureError(
                f"circle zero count not certified: Schur-Cohn margin {margin[b]:.3e} <= "
                f"allowance {allowance[b]:.3e} (a double circle zero, or a zero of F' next "
                f"to the circle){'' if single else f' in row {r}'}"
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
    angles = ens.angles[None]
    coeffs = _combination_coefficients(ens.coefficients, _fft_samples(angles), ens.dim)[0][0, ::-1]
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
