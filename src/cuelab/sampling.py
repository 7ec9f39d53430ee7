"""Haar sampling on U(N), SU(N), and rotated-determinant measures.

The central construction is the complex-reflection decomposition

    U = R(x_N) · diag(R(x_{N-1}), 1) · ... · diag(R(x_1), I_{N-1}),

where ``x_j`` is uniform on the unit sphere of C^j and ``R(x)`` is the
unique unitary that maps the last basis vector ``e_j`` to ``x`` and acts as
the identity on the orthogonal complement of span(e_j - x).  Sampling the
chain (x_1, ..., x_N) independently yields Haar measure on U(N); fixing
``x_1`` as a function of the later vectors pins the determinant and yields
Haar measure on the coset {det U = e^{iN theta}} of SU(N).

An independent QR-based sampler (`haar_unitary_qr_oracle`) is provided
purely as a statistical cross-check for the reflection construction.

`haar_verblunsky` needs no matrix at all: it draws the N Verblunsky
coefficients of a Haar U(N) spectral measure, from which
:func:`~cuelab.spectra.log_z_verblunsky` evaluates log Z in O(N) per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    NumericalFailureError,
)
from .rng import RngStream

__all__ = [
    "UnitaryMatrix",
    "ReflectionChain",
    "reflection_matrix",
    "reflection_determinant",
    "chain_to_matrix",
    "haar_reflection_chain",
    "haar_unitary",
    "haar_special_unitary",
    "coupled_chain_pair",
    "haar_verblunsky",
    "haar_unitary_qr_oracle",
]

# Tolerances for the UnitaryMatrix invariants.  The unitarity defect of the
# reflection product grows (slowly) with N, hence the dimension factor.
_UNITARITY_TOL = 1e-10
_DET_TOL = 1e-8


def _generator(rng) -> np.random.Generator:
    """Accept either an RngStream or a live numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidArgumentError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _check_rows(n) -> None:
    """Validate the row count of a stacked draw (None means a single draw)."""
    if n is not None and (not isinstance(n, (int, np.integer)) or n < 1):
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")


@dataclass
class UnitaryMatrix:
    """A dense N x N unitary matrix; ``dim`` is N, read off the entries.

    The constructor only validates the shape; the (more expensive) unitary
    invariants are checked by :meth:`check`, which unit tests apply to every
    sampled matrix but hot Monte Carlo loops do not re-run per sample.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=np.complex128)
        shape = self.entries.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise InvalidDimensionError(f"entries must be square and nonempty, got shape {shape}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def unitarity_defect(self) -> float:
        """Max-norm of U^dagger U - I."""
        g = self.entries.conj().T @ self.entries
        g[np.diag_indices_from(g)] -= 1.0
        return float(np.max(np.abs(g)))

    def det(self) -> complex:
        return complex(np.linalg.det(self.entries))

    def check(self) -> "UnitaryMatrix":
        """Verify the unitary invariants, returning self for chaining."""
        defect = self.unitarity_defect()
        if defect > _UNITARITY_TOL * self.dim:
            raise NumericalFailureError(
                f"unitarity defect {defect:.3e} exceeds {_UNITARITY_TOL * self.dim:.3e}"
            )
        dmod = abs(self.det())
        if abs(dmod - 1.0) > _DET_TOL:
            raise NumericalFailureError(f"|det| = {dmod!r} is not 1 within {_DET_TOL}")
        return self


@dataclass
class ReflectionChain:
    """The vectors (x_1, ..., x_N) of a reflection decomposition.

    ``vectors[j-1]`` is the length-j unit vector x_j; ``x_1`` is stored as a
    1-vector whose single entry has unit modulus.  A stack of n chains
    holds ``vectors[j-1]`` of shape (n, j), row i belonging to chain i.
    """

    vectors: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def last_components(self) -> np.ndarray:
        """The inner products <x_j, e_j>: shape (N,), or (n, N) for a stack."""
        return np.array([x[..., -1] for x in self.vectors], dtype=np.complex128).T

    def check(self, tol: float = 1e-12) -> "ReflectionChain":
        for j, x in enumerate(self.vectors, start=1):
            if x.shape[-1] != j:
                raise InvalidDimensionError(f"vector {j} has length {x.shape[-1]}, expected {j}")
            err = np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0))
            if err > tol:
                raise NumericalFailureError(f"vector {j} norm off by {err:.3e}")
        return self


def _reflection_gamma(x: np.ndarray) -> complex:
    """gamma = 1 - conj(<x, e_j>), the pivot of the rank-one update."""
    return 1.0 - np.conj(x[..., -1])


def reflection_matrix(x: np.ndarray) -> UnitaryMatrix:
    """The unique unitary sending e_j to x and fixing span(e_j - x)^perp.

    Built as the rank-one (Householder-type) update
    ``R = I - u u^dagger / gamma`` with ``u = e_j - x`` and
    ``gamma = 1 - conj(x_j)``; the degenerate input x = e_j returns the
    identity exactly.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or len(x) < 1:
        raise InvalidDimensionError(f"x must be a nonempty vector, got shape {x.shape}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise InvalidArgumentError("reflection input must be a unit vector")
    j = len(x)
    eye = np.eye(j, dtype=np.complex128)
    gamma = _reflection_gamma(x)
    if gamma == 0:
        return UnitaryMatrix(eye)
    u = -x.copy()
    u[-1] += 1.0
    return UnitaryMatrix(eye - np.outer(u, u.conj()) / gamma)


def reflection_determinant(x: np.ndarray):
    """det R(x), a unit-modulus number: -conj(gamma)/gamma, or 1 if x = e_j.

    Only the last component of x enters.  This is the closed form of the
    determinant of the rank-one update; it is unit-tested against dense
    determinants of `reflection_matrix`.  A vector gives a complex; a
    stack of n vectors, shape (n, j), gives their (n,) determinants.
    """
    x = np.asarray(x, dtype=np.complex128)
    gamma = _reflection_gamma(x)
    fixed = gamma == 0
    det = np.where(fixed, 1.0, -np.conj(gamma) / np.where(fixed, 1.0, gamma))
    return complex(det) if x.ndim == 1 else det


def _apply_chain(vectors: list) -> np.ndarray:
    """Multiply out R(x_N) diag(R(x_{N-1}),1) ... via in-place rank-one updates.

    ``vectors`` holds the x_j of one chain, shape (j,), or of a stack,
    shape (n, j); the product has shape (N, N) or (n, N, N).  Step j updates
    the leading j x j block of every matrix by one stacked matmul, and a
    pivot gamma = 0 (x_j = e_j) leaves its matrix alone.
    """
    x = np.concatenate(vectors, axis=-1)
    dim = len(vectors)
    flat = x.reshape(-1, x.shape[-1])
    starts = [j * (j - 1) // 2 for j in range(1, dim + 1)]
    lasts = [start + j - 1 for j, start in enumerate(starts, start=1)]
    # u_j = e_j - x_j, and the pivot gamma_j = 1 - conj(x_j[-1]) = conj(u_j[-1])
    u = -flat
    u_last = 1.0 - flat[:, lasts]
    u[:, lasts] = u_last
    gamma = u_last.conj()
    if not gamma.all():
        fixed = gamma == 0
        gamma[fixed] = 1.0
        u[np.repeat(fixed, range(1, dim + 1), axis=1)] = 0.0
    u_conj = u[:, None, :].conj()
    gamma = gamma.T[:, :, None, None]
    # the diagonal entry j of the identity is what step j finds there
    u_mat = np.zeros((len(flat), dim, dim), dtype=np.complex128)
    u_mat.reshape(len(flat), -1)[:, :: dim + 1] = 1.0
    for j, start in enumerate(starts, start=1):
        block = u_mat[:, :j, :j]
        row = u_conj[..., start : start + j] @ block
        row /= gamma[j - 1]
        block -= u[:, start : start + j, None] * row
    return u_mat.reshape(x.shape[:-1] + (dim, dim))


def chain_to_matrix(chain: ReflectionChain) -> UnitaryMatrix:
    """Evaluate the reflection product of one chain as a dense matrix."""
    if chain.dim < 1:
        raise InvalidDimensionError("chain must contain at least one vector")
    return UnitaryMatrix(_apply_chain(chain.vectors))


def _gaussian_block(gen: np.random.Generator, sizes, n: int | None = None) -> list:
    """Draw normalized sphere vectors of the given sizes from one flat block.

    A single standard_normal call keeps the draw sequence (and therefore the
    per-stream determinism) independent of how the vectors are consumed.
    With ``n`` set, one ``standard_normal((n, total, 2))`` block gives each
    vector the shape (n, size), row i being the i-th of n consecutive
    single draws.  Each norm is two real dot products, as
    ``np.linalg.norm`` forms it (a stacked 1 x k by k x 1 ``matmul`` calls
    the same BLAS dot), so a row is bit-equal to its single draw.
    """
    sizes = list(sizes)
    # (re, im) pairs, read in place as the complex entries
    raw = gen.standard_normal((1 if n is None else n, sum(sizes), 2))
    z = raw.view(np.complex128)[..., 0]
    parts, start = [], 0
    for size in sizes:
        parts.append(slice(start, start + size))
        start += size
    squares = np.empty((len(sizes), len(z)))
    for k, part in enumerate(parts):
        v = raw[:, part].transpose(2, 0, 1)
        re, im = (v[..., None, :] @ v[..., None])[..., 0, 0]
        np.add(re, im, out=squares[k])
    z /= np.repeat(np.sqrt(squares.T), sizes, axis=1)
    if n is None:
        z = z[0]
    return [z[..., part] for part in parts]


def haar_reflection_chain(N: int, rng, n: int | None = None) -> ReflectionChain:
    """Sample the reflection chain of a Haar unitary without assembling it.

    Building the chain costs O(N^2) draws versus O(N^3) work for the dense
    matrix, so spectrum-free statistics (anything derived from log Z(0))
    stay cheap at large N.  With ``n`` set, the chain is a stack of n
    chains whose row i is the i-th of n consecutive single draws.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidDimensionError(f"N must be a positive integer, got {N!r}")
    _check_rows(n)
    gen = _generator(rng)
    return ReflectionChain(_gaussian_block(gen, range(1, N + 1), n))


def haar_unitary(N: int, rng, n: int | None = None):
    """Sample Haar measure on U(N) by the reflection decomposition.

    Returns ``(UnitaryMatrix, ReflectionChain)``.  With ``n`` set it returns
    the (n, N, N) array of n matrices and their stacked chain instead:
    matrix i equals the i-th of n consecutive single draws from the same
    generator, and single and stacked draws run the same product.
    """
    chain = haar_reflection_chain(N, rng, n)
    if n is None:
        return chain_to_matrix(chain), chain
    return _apply_chain(chain.vectors), chain


def _forced_first_vector(vectors: list, N: int, theta: float, n: int | None = None) -> np.ndarray:
    """The x_1 that pins det U = e^{iN theta} given x_2..x_N, row by row.

    det U = x_1 * prod_{j>=2} det R(x_j), and every factor has unit modulus,
    so x_1 = e^{iN theta} * prod conj(det R(x_j)), normalized against drift
    in long products.  ``vectors`` hold one chain's x_j, shape (j,), giving
    shape (1,), or n chains' x_j, shape (n, j), giving (n, 1).  The product
    runs factor by factor in real arithmetic, which rounds as numpy's
    complex scalar multiply does; its SIMD array multiply can differ in the
    last bit.
    """
    rows = 1 if n is None else n
    phase = complex(np.exp(1j * N * theta))
    re, im = np.full(rows, phase.real), np.full(rows, phase.imag)
    for x in vectors:
        det = np.reshape(reflection_determinant(x), rows)
        re, im = re * det.real + im * det.imag, im * det.real - re * det.imag
    scale = 1.0 / np.hypot(re, im)
    first = np.empty((rows, 1), dtype=np.complex128)
    first.real[:, 0], first.imag[:, 0] = re * scale, im * scale
    return first[0] if n is None else first


def haar_special_unitary(N: int, theta: float, rng, n: int | None = None):
    """Sample the Haar-type measure on {U : det U = e^{iN theta}}.

    x_2..x_N are independent uniform sphere vectors and x_1 is the
    determinant-forced phase; theta = 0 gives Haar measure on SU(N).
    Returns ``(UnitaryMatrix, ReflectionChain)``.  With ``n`` set it returns
    the (n, N, N) array of n matrices and their stacked chain instead: one
    Gaussian block gives every row's x_2..x_N, each row's x_1 is forced
    from that row's determinants, and matrix i equals the i-th of n
    consecutive single draws from the same generator.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidDimensionError(f"N must be a positive integer, got {N!r}")
    _check_rows(n)
    gen = _generator(rng)
    tail = _gaussian_block(gen, range(2, N + 1), n)
    chain = ReflectionChain([_forced_first_vector(tail, N, float(theta), n)] + tail)
    if n is None:
        return chain_to_matrix(chain), chain
    return _apply_chain(chain.vectors), chain


def coupled_chain_pair(N: int, theta: float, rng) -> tuple[ReflectionChain, ReflectionChain]:
    """Chains of a coupled (rotated-SU(N), U(N)) pair sharing x_2..x_N.

    The first chain takes the determinant-forced x_1 (law P_{SU(N),theta});
    the second replaces it with an independent uniform phase, which makes
    the pair marginally (rotated-SU(N), Haar-U(N)) while every later
    reflection coincides.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InvalidDimensionError(f"coupling requires N >= 2, got {N!r}")
    gen = _generator(rng)
    tail = _gaussian_block(gen, range(2, N + 1))
    forced = _forced_first_vector(tail, N, float(theta))
    free = np.array([np.exp(2j * np.pi * gen.random())], dtype=np.complex128)
    return ReflectionChain([forced] + tail), ReflectionChain([free] + tail)


def haar_verblunsky(N: int, rng, n: int | None = None) -> np.ndarray:
    """Verblunsky coefficients alpha_0..alpha_{N-1} of a Haar U(N) matrix.

    Killip-Nenciu: the spectral measure of Haar U(N) at e_1 has independent
    coefficients with |alpha_k|^2 ~ Beta(1, N-k-1) and a uniform phase for
    k < N-1, and a uniform unimodular alpha_{N-1}.  Everything comes from
    one ``random(2N)`` block: u[k] sets |alpha_k| (u[N-1] is unused) and
    u[N+k] its phase.  The Beta draw inverts the CDF on 1 - u in (0, 1], so
    |alpha_k| < 1 strictly.  O(N) draws, and no matrix is formed.

    With ``n`` set, one ``random((n, 2N))`` block gives n independent draws
    as the rows of an (n, N) array; row i equals the i-th of n consecutive
    single draws from the same generator.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidDimensionError(f"N must be a positive integer, got {N!r}")
    _check_rows(n)
    gen = _generator(rng)
    u = gen.random(2 * N if n is None else (n, 2 * N))
    # |alpha_k| overwrites u[..., k] in place, so a block holds u and alphas
    # and no other array of its size
    radius = u[..., :N]
    radius[..., -1] = 1.0
    head = radius[..., :-1]
    np.subtract(1.0, head, out=head)
    np.log(head, out=head)
    head /= np.arange(N - 1, 0, -1)
    np.expm1(head, out=head)
    np.negative(head, out=head)
    np.sqrt(head, out=head)
    alphas = 2j * np.pi * u[..., N:]
    np.exp(alphas, out=alphas)
    alphas *= radius
    return alphas


def haar_unitary_qr_oracle(N: int, rng, n: int | None = None):
    """Independent Haar sampler: QR of a complex Ginibre matrix.

    The Q factor of a standard complex Gaussian matrix, with each column
    rephased by the sign of the corresponding diagonal entry of R, is Haar
    distributed (the phase fix removes the convention-dependence of QR).
    Used only to cross-validate the reflection sampler.  A draw takes the
    real and then the imaginary part from one ``standard_normal`` block.
    With ``n`` set, one ``standard_normal((n, 2, N, N))`` block and one
    stacked QR give an (n, N, N) array whose matrix i equals the i-th of n
    consecutive single draws; without it a UnitaryMatrix is returned.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidDimensionError(f"N must be a positive integer, got {N!r}")
    _check_rows(n)
    gen = _generator(rng)
    parts = gen.standard_normal((1 if n is None else n, 2, N, N))
    q, r = np.linalg.qr(parts[:, 0] + 1j * parts[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    return UnitaryMatrix(q[0]) if n is None else q
