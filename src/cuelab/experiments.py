"""Seeded Monte Carlo harness for the identity checks and the headline run.

Every experiment follows the same pattern: a module-level block function
maps a generator and a row count to that many rows of floats, and a runner
hands all of its (block function, group, payload, rows per block) jobs —
one per N, two per N for ``tails`` — to a single collector call.  Block b
of a job draws from the stream keyed by (seed, group, b), so the stream of
every row is a pure function of (seed, group, block, offset), and a failing
sample is replayed by evaluating its block alone.  The log Z runners
(``moments``, ``clt``, ``tails``, ``oscillation``) and the dense runners
(``traces``, ``gaps``, ``fraction``, ``carrier``) take up to 256 rows per
block, a number fixed by N and the term count alone (see ``_block_rows``).
A log Z block runs the Szego recursion over all its rows at once; a dense
block draws its matrices as one stacked reflection product and takes their
certified spectra with one ``eigenangles`` call (Cayley transform, ``eigh``
and Rayleigh quotients).  A ``fraction`` or ``carrier`` block also counts
the sign changes of all its ensembles with one stacked ``sign_changes``
call, whose level loop refines every bracket of the block at once, on
its 8 N uniform nodes from one pass of log Z samples that the block
shares.  A ``fraction`` block takes its exact circle-zero counts from the
same samples with one stacked ``circle_zero_counts`` call; a ``carrier``
block builds one subdivision and reduces all of its samples as arrays,
with no ensemble object, takes its exceptional sets on the 64 N grid
from each spectrum's coefficients, by FFT of the same samples, and the
logs at the points of all its samples' subdivisions from one kernel call.
The collector evaluates every block by its own call, in process or on one
spawn-based pool shared by all jobs, and the reduction walks the rows in
sample order, so the emitted tables are bit-identical no matter how many
workers participated.

Each runner reduces its rows through a ``_Report``: it appends estimate
and value rows and checks in the order they are emitted, and its
``record`` stamps the seed on every row, adds ``samples`` and ``checks``
to the parameters, and fills the timing metadata when the config asks
for it.  The reduction itself, which differs from runner to runner,
stays in the runner and reads from top to bottom.

The number of workers defaults to the CUELAB_WORKERS environment variable
(falling back to 1); an ExperimentConfig can pin it explicitly.  Importing
this module loads no scipy: the statistics and special functions import it
where they are called, so spawn workers start without it.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from datetime import datetime, timezone
import multiprocessing

import numpy as np

from .errors import CuelabError, InvalidConfigError, NumericalFailureError
from .rng import RngStream
from .sampling import haar_special_unitary, haar_unitary, haar_unitary_qr_oracle, haar_verblunsky
from .spectra import (
    TWO_PI, _SINGULAR_TOL, _check_regular, _fft_samples, _szego, eigenangles,
    log_z_from_chain, log_z_grid, log_z_verblunsky,
)
from .specfun import (
    EULER_GAMMA, expected_narrow_pairs, f_mu, joint_mgf_rhs, oscillation_variance_exact,
)
from .ensembles import (
    _GRID_FACTOR, ORACLE_MAX_DIM, CombinationEnsemble, circle_root_count, circle_zero_counts,
    roots_oracle, sign_changes,
)
from .carrier import (
    _grid_masks, _point_logs, base_angles, carrier_wave_index, exceptional_mask,
    narrow_gap_count, narrow_gap_threshold, subdivision,
)
from .results import EstimateRow, ResultRecord

__all__ = [
    "ExperimentConfig",
    "run_fraction_on_circle",
    "run_moment_check",
    "run_trace_covariance",
    "run_clt_check",
    "run_tail_checks",
    "run_oscillation_check",
    "run_gap_check",
    "run_carrier_diagnostics",
    "run_selftest",
]

_WORKERS_ENV = "CUELAB_WORKERS"
# Set to 1 for spawn workers where the caller left them unset: a worker's
# dense spectra are small stacked matrices, for which more BLAS threads
# only compete with the other workers for the cores.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GROUP_SHIFT = 24  # block index occupies the low 24 bits of the child index
# A log Z block draws at most 2^21 Verblunsky coefficients (about 64 MB of
# transients at N = 2^16), and a dense block at most 2^15 matrix entries
# (512 KB per stack of complex matrices), in at most 256 rows; see
# _block_rows.
_BLOCK_COEFFS = 1 << 21
_BLOCK_ENTRIES = 1 << 15
_BLOCK_MAX_ROWS = 256
# A z-tested check passes at |z| <= _Z_THRESHOLD; the sampler KS
# cross-check of ``traces`` passes at p >= _KS_LEVEL.
_Z_THRESHOLD = 4.0
_KS_LEVEL = 0.01


def _whole(name: str, value, floor: int) -> int:
    """``value`` as an int; InvalidConfigError unless it is a whole number >= ``floor``."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # not a finite number
        if int(value) == value and value >= floor:
            return int(value)
    raise InvalidConfigError(f"{name} takes whole numbers >= {floor}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs of one experiment run.

    ``experiment`` names a runner of ``_RUNNERS``.  ``coefficients`` holds
    the b_j of the linear combination (all nonzero), and the read-only
    ``n_matrices`` is their count.  ``traces``, ``gaps`` and ``carrier``
    take exactly one N in ``dims``.  The CLI passes only the options given
    on its command line, so these defaults are its defaults too, except
    for each subcommand's dims and samples.
    """

    experiment: str
    dims: tuple = (8,)
    coefficients: tuple = (1.0, 1.0)
    samples: int = 200
    seed: int = 0
    delta: float | None = None
    subdivisions: int | None = None
    workers: int | None = None
    format: str = "csv"
    out: str | None = None
    include_timing: bool = False

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise InvalidConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {tuple(_RUNNERS)}"
            )
        if len(self.dims) == 0:
            raise InvalidConfigError("at least one dimension is required")
        object.__setattr__(self, "dims", tuple(_whole("dims", d, 1) for d in self.dims))
        coeffs = tuple(float(b) for b in self.coefficients)
        if len(coeffs) == 0:
            raise InvalidConfigError("at least one coefficient is required")
        if any(not math.isfinite(b) or b == 0.0 for b in coeffs):
            raise InvalidConfigError(
                f"coefficients must be finite and nonzero, got {self.coefficients!r}"
            )
        object.__setattr__(self, "coefficients", coeffs)
        floors = {"samples": 2, "subdivisions": 2, "workers": 1}
        for name, floor in floors.items():
            value = getattr(self, name)  # subdivisions and workers may be None: derived later
            if value is not None or name == "samples":
                object.__setattr__(self, name, _whole(name, value, floor))
        if self.samples > (1 << _GROUP_SHIFT):
            raise InvalidConfigError("samples exceed the per-group stream budget")
        if self.delta is not None and not (0.0 < self.delta < 0.25):
            raise InvalidConfigError(f"delta must lie in (0, 1/4), got {self.delta!r}")
        if self.format not in ("csv", "json"):
            raise InvalidConfigError(f"format must be 'csv' or 'json', got {self.format!r}")

    @property
    def n_matrices(self) -> int:
        """Number of matrices in the combination: one per coefficient."""
        return len(self.coefficients)

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        raw = os.environ.get(_WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidConfigError(f"{_WORKERS_ENV} must be an integer, got {raw!r}") from None
        if workers < 1:
            raise InvalidConfigError(f"{_WORKERS_ENV} must be >= 1, got {raw!r}")
        return workers


# --------------------------------------------------------------------------
# sample plumbing


def _stream(seed: int, group: int, block: int) -> RngStream:
    return RngStream(seed=seed).child((group << _GROUP_SHIFT) + block)


def _block_rows(size: int, budget: int = _BLOCK_COEFFS) -> int:
    """Rows per block when a row holds ``size`` numbers.

    The log Z runners pass N coefficients against the 2^21 budget, the
    dense runners N^2 entries per matrix against ``_BLOCK_ENTRIES``: 32 rows
    at N = 32, 256 at N <= 11 and one from N = 129 on.  ``fraction`` and
    ``carrier`` draw T matrices per row and pass T N^2: with T = 2, 64 rows
    at N = 16 and 4 at N = 64.  The count is a function of N and T alone.
    """
    return max(1, min(_BLOCK_MAX_ROWS, budget // size))


def _blocks_eval(fn, seed, group, payload, rows, n_samples, blocks) -> list:
    """The rows of each listed block of one job, one ``fn`` call per block.

    Block b holds the samples b*rows .. b*rows + count - 1 (the last block
    of a job may be short) and draws from the stream (seed, group, b).
    """
    out = []
    for block in blocks:
        count = min(rows, n_samples - block * rows)
        gen = _stream(seed, group, block).generator()
        try:
            values = fn(gen, count, payload)
        except CuelabError as exc:
            exc.add_note(f"in sample block (seed={seed}, group={group}, block={block}) "
                         f"of {count} rows")
            raise
        out.append(np.reshape(np.asarray(values, dtype=float), (count, -1)))
    return out


@contextlib.contextmanager
def _one_blas_thread():
    """Set each variable of ``_BLAS_THREADS`` the caller left unset to 1.

    Spawned processes start with the environment of the moment, so a pool
    started inside runs one BLAS thread per worker; the variables set here
    are removed again on exit.
    """
    unset = [var for var in _BLAS_THREADS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for var in unset:
            os.environ.pop(var, None)


def _collect(cfg: ExperimentConfig, jobs) -> list[np.ndarray]:
    """Evaluate every job ``(fn, group, payload, rows)`` at samples 0..samples-1.

    ``fn(gen, count, payload)`` returns the ``count`` rows of one block of
    ``rows`` samples; seed, sample count and workers come from ``cfg``.
    Returns one array per job, its rows in sample order.  With more than
    one worker a single spawn pool takes every job, split into at most
    4 x workers pieces of whole blocks, before any result is awaited; the
    first piece that raises cancels the queued rest and its exception
    propagates unchanged.  The workers run one BLAS thread each (see
    ``_one_blas_thread``).  Each block is its own call either way, so no
    row depends on how the blocks were grouped.
    """
    seed, n_samples, workers = cfg.seed, cfg.samples, cfg.resolved_workers()
    blocks = [np.arange(-(-n_samples // rows)) for _, _, _, rows in jobs]
    if workers <= 1:
        return [
            np.concatenate(_blocks_eval(fn, seed, group, payload, rows, n_samples, job_blocks))
            for (fn, group, payload, rows), job_blocks in zip(jobs, blocks)
        ]
    ctx = multiprocessing.get_context("spawn")
    with _one_blas_thread(), ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        try:
            futures = [
                [
                    pool.submit(_blocks_eval, fn, seed, group, payload, rows, n_samples,
                                piece.tolist())
                    for piece in np.array_split(job_blocks, workers * 4) if piece.size
                ]
                for (fn, group, payload, rows), job_blocks in zip(jobs, blocks)
            ]
            flat = [fut for job in futures for fut in job]
            done, _ = wait(flat, return_when=FIRST_EXCEPTION)
            failed = [fut for fut in flat if fut in done and fut.exception() is not None]
            if failed:
                raise failed[0].exception()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [np.concatenate([rows for fut in job for rows in fut.result()]) for job in futures]


def _drop_degenerate(data: np.ndarray, dim: int) -> tuple[np.ndarray, int]:
    """The rows of non-degenerate draws, and the number of rows dropped.

    A draw whose combination vanishes identically is a NaN row; fewer than
    two kept rows leave nothing to estimate.
    """
    kept = data[~np.isnan(data[:, 0])]
    if len(kept) < 2:
        raise NumericalFailureError(f"fewer than two non-degenerate samples at N={dim}")
    return kept, len(data) - len(kept)


def _one_dim(cfg: ExperimentConfig) -> int:
    """The N of a runner that takes exactly one; checked before any draw."""
    if len(cfg.dims) != 1:
        raise InvalidConfigError(f"{cfg.experiment} runs take one N, got dims={list(cfg.dims)}")
    return cfg.dims[0]


def _version() -> str:
    from cuelab import __version__

    return __version__


class _Report:
    """The rows, checks and record of one run, in the order they are added.

    Every row carries the run's seed.  A check is a dict of name, passed
    and detail; a z-tested one passes at |z| <= _Z_THRESHOLD.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.rows, self.checks = [], []
        self._started = time.perf_counter()

    def estimate(self, label: str, values) -> EstimateRow:
        """Append and return the Monte Carlo row of ``values``."""
        row = EstimateRow.from_samples(label, values, self.cfg.seed)
        self.rows.append(row)
        return row

    def value(self, label: str, v: float, n: int = 0) -> None:
        """Append a deterministic row (stderr 0) computed from ``n`` inputs."""
        self.rows.append(EstimateRow(label, float(v), 0.0, n, self.cfg.seed))

    def check(self, name: str, passed, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def z_check(self, name: str, z: float) -> None:
        self.check(name, abs(z) <= _Z_THRESHOLD, f"z={z:.3f}")

    def every_sample(self, name: str, flags: np.ndarray) -> None:
        """A per-sample 0/1 flag check: passes when every flag is 1."""
        self.check(name, np.all(flags == 1.0), f"violations={int(np.sum(flags != 1.0))}")

    def record(self, **params) -> ResultRecord:
        """The run's record; its parameters end with samples and checks."""
        cfg = self.cfg
        metadata = {"version": _version(), "timestamp": None, "runtime_seconds": None}
        if cfg.include_timing:
            metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
            metadata["runtime_seconds"] = time.perf_counter() - self._started
        return ResultRecord(
            experiment=cfg.experiment,
            parameters={**params, "samples": cfg.samples, "checks": self.checks},
            estimates=self.rows,
            metadata=metadata,
        )


# --------------------------------------------------------------------------
# fraction of zeros on the circle


def _su_spectra(gen, count: int, dim: int, n_terms: int) -> np.ndarray:
    """Certified spectra of ``count`` samples of ``n_terms`` Haar SU(dim) draws.

    One stacked draw of count x n_terms matrices, sample by sample, and one
    ``eigenangles`` call; the result has shape (count, n_terms, dim).
    """
    u, _ = haar_special_unitary(dim, 0.0, gen, count * n_terms)
    return eigenangles(u).reshape(count, n_terms, dim)


def _sample_fraction(gen, count, payload) -> np.ndarray:
    """(circle fraction, audit, lower-bound flags) of ``count`` ensembles.

    One pass of log Z samples on the sign scan's 8 N nodes (see
    :func:`~cuelab.spectra._fft_samples`) feeds both the block's stacked
    sign-change count and its exact circle-zero counts, one stacked
    ``circle_zero_counts`` call on the non-degenerate rows.  A row whose
    count the certificate cannot settle is counted by the root oracle
    instead, as N <= ORACLE_MAX_DIM here.  A degenerate ensemble, or one
    whose coefficients all vanish, is a NaN row.
    """
    dim, coeffs = payload
    angles = _su_spectra(gen, count, dim, len(coeffs))
    samples = _fft_samples(angles, _GRID_FACTOR * dim)
    changes = sign_changes((coeffs, angles, samples))
    rows = np.flatnonzero(changes >= 0)
    zeros = circle_zero_counts((coeffs, angles[rows], samples[rows]), uncertified=-2)
    for k in np.flatnonzero(zeros == -2):
        zeros[k] = circle_root_count(roots_oracle(CombinationEnsemble(coeffs, angles[rows[k]])))
    rows, zeros = rows[zeros >= 0], zeros[zeros >= 0]
    out = np.full((count, 3), math.nan)
    out[rows] = np.column_stack([zeros / dim, changes[rows] == zeros, changes[rows] <= zeros])
    return out


def run_fraction_on_circle(cfg: ExperimentConfig) -> ResultRecord:
    """Mean fraction of the combination's zeros that sit on the unit circle.

    For each N the run draws ``samples`` independent n-tuples of SU(N)
    spectra, counts circle zeros exactly with the certified Schur-Cohn
    count (``circle_zero_counts``, or the root oracle on a row it cannot
    certify), audits the sign-change lower bound against that count, and
    reports mean +- stderr.  N is capped at ORACLE_MAX_DIM (512), the cap
    of the dense route and of that fallback.  Degenerate draws
    (identically vanishing combination) are excluded and counted.
    """
    report = _Report(cfg)
    for dim in cfg.dims:
        if dim > ORACLE_MAX_DIM:
            raise InvalidConfigError(f"fraction runs are capped at N={ORACLE_MAX_DIM}, got N={dim}")
    fractions, degenerate = [], {}
    jobs = [
        (_sample_fraction, group, (dim, cfg.coefficients),
         _block_rows(cfg.n_matrices * dim * dim, _BLOCK_ENTRIES))
        for group, dim in enumerate(cfg.dims)
    ]
    for dim, data in zip(cfg.dims, _collect(cfg, jobs)):
        kept, degenerate[f"N={dim}"] = _drop_degenerate(data, dim)
        fractions.append(report.estimate(f"N={dim}", kept[:, 0]))
        rate = float(kept[:, 1].mean())
        if dim <= 16:
            report.check(f"count audit agreement N={dim}", rate >= 0.95,
                         f"rate={rate:.4f} over {len(kept)} audited samples")
        else:
            # sign scanning can miss a close pair of circle zeros (3 of
            # 1,200 ensembles at N = 64, 3 of 30 at N = 256), so above
            # N = 16 the agreement rate is reported, not gated
            report.value(f"count audit rate N={dim}", rate, n=len(kept))
        report.check(f"sign changes never exceed root count N={dim}", np.all(kept[:, 2] == 1.0),
                     "lower-bound property of sign counting")
    means = [row.mean for row in fractions]
    if len(cfg.dims) >= 2:
        deficits = [
            a.mean - b.mean - 2.0 * math.hypot(a.stderr, b.stderr)
            for a, b in zip(fractions, fractions[1:])
        ]
        worst = max([0.0, *deficits])
        report.check("mean fraction nondecreasing within 2 pooled stderr", worst <= 0.0,
                     f"worst deficit beyond allowance {worst:.4f}")
        report.check(f"N={cfg.dims[-1]} mean exceeds N={cfg.dims[0]} mean", means[-1] > means[0],
                     f"{means[-1]:.4f} vs {means[0]:.4f}")
    baseline = 1.0 / math.sqrt(3.0) + 0.05
    report.check(f"N={cfg.dims[-1]} mean exceeds 1/sqrt(3)+0.05", means[-1] > baseline,
                 f"{means[-1]:.4f} vs {baseline:.4f}")
    return report.record(dims=list(cfg.dims), coefficients=list(cfg.coefficients),
                         grid_factor=_GRID_FACTOR, degenerate_excluded=degenerate)


# --------------------------------------------------------------------------
# joint moment formula


_MOMENT_CASES = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
# Largest N a clt run accepts: one sample costs O(N) draws and O(N) work.
_CLT_MAX_DIM = 1 << 16


def _sample_log_z_at_zero(gen, count, dim) -> np.ndarray:
    """(Re, Im) log Z(0) of ``count`` Haar U(dim) samples, one per row."""
    re, im = log_z_verblunsky(haar_verblunsky(dim, gen, count), 0.0)
    return np.column_stack([re, im])


def _sample_moment(gen, count, dim) -> np.ndarray:
    re, im = _sample_log_z_at_zero(gen, count, dim).T
    s, t = np.array(_MOMENT_CASES).T
    return np.exp(np.outer(re, s) + np.outer(im, t))


def _log_z_at_random_angles(gen, count, dim, offsets) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) log Z at theta + offsets for ``count`` Haar U(dim) samples.

    Row i draws its own theta uniform on [0, 2pi) after the coefficients of
    the whole block.  A row whose |w_(N-1)| falls below 1e-12 at any of
    its points sits on an eigenvalue; such rows redraw theta, in row order
    from the same generator, until none is singular.
    """
    alphas = haar_verblunsky(dim, gen, count)
    theta = gen.uniform(0.0, TWO_PI, count)
    logs, last = _szego(alphas, np.exp(1j * (theta[:, None] + offsets)))
    bad = np.flatnonzero(np.any(last < _SINGULAR_TOL, axis=1))
    while bad.size:
        theta[bad] = gen.uniform(0.0, TWO_PI, bad.size)
        logs[bad], last[bad] = _szego(alphas[bad], np.exp(1j * (theta[bad, None] + offsets)))
        bad = bad[np.any(last[bad] < _SINGULAR_TOL, axis=1)]
    return logs.real, -logs.imag


def run_moment_check(cfg: ExperimentConfig) -> ResultRecord:
    """Empirical E[e^{s Re log Z(0) + t Im log Z(0)}] against the closed form.

    Only the real slice t = 0 has an implemented reference value; the
    empirical side reads log Z(0) from Haar Verblunsky coefficients in
    O(N), so no matrix and no eigendecomposition is involved.
    """
    report = _Report(cfg)
    zs = {}
    jobs = [(_sample_moment, group, dim, _block_rows(dim)) for group, dim in enumerate(cfg.dims)]
    for dim, data in zip(cfg.dims, _collect(cfg, jobs)):
        for i, (s, t) in enumerate(_MOMENT_CASES):
            case = f"s={s:g},t={t:g},N={dim}"
            row = report.estimate(f"{case} empirical", data[:, i])
            reference = joint_mgf_rhs(s, t, dim)
            zs[case] = row.z_score(reference)
            report.value(f"{case} formula", reference)
            report.z_check(f"moment z-score {case}", zs[case])
    return report.record(dims=list(cfg.dims), cases=[list(c) for c in _MOMENT_CASES], z_scores=zs)


# --------------------------------------------------------------------------
# trace covariance (both samplers) and the sampler KS cross-check


_TRACE_PAIRS = ((1, 1), (1, 2), (3, 3), (8, 8), (12, 12))
_TRACE_POWERS = sorted({p for pair in _TRACE_PAIRS for p in pair})


def _sample_traces(gen, count, dim) -> np.ndarray:
    """Trace products and log|Z(0)| of ``count`` draws from each sampler.

    The block draws its ``count`` reflection matrices and then its
    ``count`` QR matrices; one :func:`eigenangles` call takes both stacks
    and checks every row.  Each row holds (re, im) of tr U^p conj(tr U^q)
    per pair, reflection first, then log|Z(0)| from the reflection chain
    and from the QR eigenangles (:func:`log_z_grid`).  The parts are formed
    from real products, so im is exactly 0 when p = q (numpy's stacked
    complex multiply leaves a rounding residue there).
    """
    u, chain = haar_unitary(dim, gen, count)
    u_qr = haar_unitary_qr_oracle(dim, gen, count)
    columns = []
    angles = eigenangles(np.concatenate([u, u_qr])).reshape(2, count, dim)
    for eig in np.exp(1j * angles):
        traces = {p: np.sum(eig ** p, axis=-1) for p in _TRACE_POWERS}
        for p, q in _TRACE_PAIRS:
            a, b = traces[p], traces[q]
            columns += [a.real * b.real + a.imag * b.imag, a.imag * b.real - a.real * b.imag]
    columns.append(log_z_from_chain(chain).re)
    columns.append(log_z_grid(angles[1], 0.0)[0])
    return np.column_stack(columns)


def run_trace_covariance(cfg: ExperimentConfig) -> ResultRecord:
    """E[tr U^p conj(tr U^q)] against 1_{p=q} (|p| wedge N), both samplers.

    The same block stream drives the block's reflection draws and then its
    QR oracle draws, and the two log|Z(0)| batches feed a two-sample KS
    test, so one run cross-validates the samplers against each other as
    well as against the formula.
    """
    report = _Report(cfg)
    dim = _one_dim(cfg)
    if _TRACE_POWERS[-1] > 4 * dim:
        raise InvalidConfigError(
            f"trace powers up to {_TRACE_POWERS[-1]} exceed the 4N window at N={dim}"
        )
    (data,) = _collect(cfg, [(_sample_traces, 0, dim, _block_rows(dim * dim, _BLOCK_ENTRIES))])
    zs = {}
    col = 0
    for sampler in ("reflection", "qr"):
        for p, q in _TRACE_PAIRS:
            target = float(min(p, dim)) if p == q else 0.0
            pair = f"p={p},q={q} {sampler}"
            z_re = report.estimate(f"{pair} re", data[:, col]).z_score(target)
            z_im = report.estimate(f"{pair} im", data[:, col + 1]).z_score(0.0)
            col += 2
            zs[pair] = [z_re, z_im]
            report.check(f"trace z-score {pair}",
                         abs(z_re) <= _Z_THRESHOLD and abs(z_im) <= _Z_THRESHOLD,
                         f"z_re={z_re:.3f} z_im={z_im:.3f} target={target:g}")
    from scipy import stats

    ks = stats.ks_2samp(data[:, -2], data[:, -1])
    statistic, pvalue = float(ks.statistic), float(ks.pvalue)
    report.value("sampler KS statistic", statistic, cfg.samples)
    report.check("sampler KS on log|Z(0)|", pvalue >= _KS_LEVEL,
                 f"statistic={statistic:.5f} pvalue={pvalue:.4f}")
    return report.record(dims=[dim], pairs=[list(p) for p in _TRACE_PAIRS], z_scores=zs,
                         ks_statistic=statistic, ks_pvalue=pvalue)


# --------------------------------------------------------------------------
# central limit behavior of log|Z|


def run_clt_check(cfg: ExperimentConfig) -> ResultRecord:
    """KS distance of log|Z(0)| / sqrt(log(N)/2) from the standard normal.

    A pure-normal control batch calibrates the sampling noise floor
    1.36/sqrt(samples).  Samples come from Verblunsky coefficients in O(N)
    each, so N runs up to 2^16.
    """
    report = _Report(cfg)
    for dim in cfg.dims:
        if dim < 64:
            raise InvalidConfigError(f"clt check needs N >= 64, got N={dim}")
        if dim > _CLT_MAX_DIM:
            raise InvalidConfigError(f"clt runs are capped at N={_CLT_MAX_DIM}, got N={dim}")
    from scipy import stats

    ks_by_dim = {}
    jobs = [
        (_sample_log_z_at_zero, group, dim, _block_rows(dim))
        for group, dim in enumerate(cfg.dims)
    ]
    for dim, data in zip(cfg.dims, _collect(cfg, jobs)):
        normalized = data[:, 0] / math.sqrt(0.5 * math.log(dim))
        ks_by_dim[dim] = float(stats.kstest(normalized, "norm").statistic)
        report.value(f"N={dim} ks-distance", ks_by_dim[dim], cfg.samples)
    control = (
        RngStream(seed=cfg.seed)
        .child(len(cfg.dims) << _GROUP_SHIFT)
        .generator()
        .standard_normal(cfg.samples)
    )
    ks_control = float(stats.kstest(control, "norm").statistic)
    report.value("normal control ks-distance", ks_control, cfg.samples)
    # The pinned thresholds are calibrated at 1e4 samples; the noise parts
    # scale like 1/sqrt(samples).
    scale = math.sqrt(10000.0 / cfg.samples)
    largest = max(cfg.dims)
    report.check(f"KS at N={largest} within 0.08", ks_by_dim[largest] <= 0.08,
                 f"ks={ks_by_dim[largest]:.4f}")
    if len(cfg.dims) >= 2:
        smallest = min(cfg.dims)
        report.check(
            "KS shrinks with N",
            ks_by_dim[largest] <= ks_by_dim[smallest] + 0.02 * scale,
            f"ks({largest})={ks_by_dim[largest]:.4f} vs "
            f"ks({smallest})={ks_by_dim[smallest]:.4f}",
        )
    report.check("normal control within noise", ks_control <= 0.02 * scale, f"ks={ks_control:.4f}")
    return report.record(dims=list(cfg.dims), noise_floor=1.36 / math.sqrt(cfg.samples),
                         ks_by_dim={str(d): ks_by_dim[d] for d in cfg.dims}, ks_control=ks_control)


# --------------------------------------------------------------------------
# tail and concentration probabilities


_A_GRID = (0.0, 0.5, 1.0, 2.0)
_DELTA_GRID = (0.2, 0.1, 0.05)


def _sample_tail_modulus(gen, count, dim) -> np.ndarray:
    re, im = _log_z_at_random_angles(gen, count, dim, np.zeros(1))
    return np.hypot(re, im)


def run_tail_checks(cfg: ExperimentConfig) -> ResultRecord:
    """Exceedance and concentration probabilities of log Z at scale sqrt(log N).

    Three tables: P[|log Z(theta)| >= A sqrt(log N)] with theta uniform,
    P[|Im log Z(0)| >= A sqrt(log N)] at the fixed angle, and the
    concentration probabilities P[|log|Z(0)| - x0| <= delta sqrt(log N)]
    with x0 = 0.  The underlying bounds fix no constants, so the checks
    assert the monotone structure only.
    """
    report = _Report(cfg)
    if min(cfg.dims) < 2:
        raise InvalidConfigError(
            f"tails runs scale by sqrt(log N) and need N >= 2, got N={min(cfg.dims)}"
        )
    jobs = []
    for group, dim in enumerate(cfg.dims):
        jobs.append((_sample_tail_modulus, 2 * group, dim, _block_rows(dim)))
        jobs.append((_sample_log_z_at_zero, 2 * group + 1, dim, _block_rows(dim)))
    data = _collect(cfg, jobs)
    for dim, tail, at_zero in zip(cfg.dims, data[0::2], data[1::2]):
        norm = math.sqrt(math.log(dim))
        modulus = tail[:, 0] / norm
        re_part = at_zero[:, 0] / norm
        im_part = np.abs(at_zero[:, 1]) / norm
        # (name, trend, [(parameter, event indicator)]): each table must be
        # nonincreasing along its grid
        tables = (
            ("modulus tail", "nonincreasing in A", [(f"A={a:g}", modulus >= a) for a in _A_GRID]),
            ("im tail", "nonincreasing in A", [(f"A={a:g}", im_part >= a) for a in _A_GRID]),
            (
                "concentration",
                "decreasing with delta",
                [(f"delta={d:g}", np.abs(re_part) <= d) for d in _DELTA_GRID],
            ),
        )
        probs = [
            [
                report.estimate(f"{name} {param} N={dim}", event.astype(float)).mean
                for param, event in events
            ]
            for name, _, events in tables
        ]
        p_mod, p_im = probs[0][0], probs[1][0]
        report.check(f"A=0 exceedance is certain N={dim}", p_mod == 1.0 and p_im == 1.0,
                     f"p={p_mod:g}")
        for (name, trend, _), p in zip(tables, probs):
            report.check(f"{name} {trend} N={dim}", all(hi >= lo for hi, lo in zip(p, p[1:])),
                         " ".join(f"{v:.4f}" for v in p))
    return report.record(dims=list(cfg.dims), a_grid=list(_A_GRID),
                         delta_grid=list(_DELTA_GRID), x0=0.0)


# --------------------------------------------------------------------------
# oscillation of log Z over a mesoscopic shift

# The shift is mu/N with mu = 8 pi, four mean spacings; it fits the 2 pi N
# window from N = 4 on.
_MU = 8.0 * math.pi


def _sample_oscillation(gen, count, dim) -> np.ndarray:
    re, im = _log_z_at_random_angles(gen, count, dim, np.array([0.0, _MU / dim]))
    return np.column_stack([re[:, 1] - re[:, 0], im[:, 1] - im[:, 0]])


def run_oscillation_check(cfg: ExperimentConfig) -> ResultRecord:
    """Second moments of log Z increments over the shift mu/N vs the series.

    Both the real and imaginary increments have the same closed-form
    second moment; the deterministic rows restate the series value at
    N = 10^4, mu = 20 pi next to its large-N asymptote 1 + gamma + f(mu).
    """
    report = _Report(cfg)
    for dim in cfg.dims:
        if _MU > TWO_PI * dim:
            raise InvalidConfigError(f"mu={_MU:g} exceeds the 2 pi N window at N={dim}")
    jobs = [
        (_sample_oscillation, group, dim, _block_rows(dim)) for group, dim in enumerate(cfg.dims)
    ]
    for dim, data in zip(cfg.dims, _collect(cfg, jobs)):
        reference = oscillation_variance_exact(dim, _MU)
        for col, part in enumerate(("re", "im")):
            label = f"{part} increment second moment N={dim} mu={_MU:g}"
            row = report.estimate(label, data[:, col] ** 2)
            report.z_check(f"{part} increment z-score N={dim}", row.z_score(reference))
        report.value(f"exact series N={dim} mu={_MU:g}", reference)
    big_n, big_mu = 10000, 20.0 * math.pi
    series = oscillation_variance_exact(big_n, big_mu)
    asymptote = 1.0 + EULER_GAMMA + f_mu(big_mu)
    report.value(f"exact series N={big_n} mu={big_mu:g}", series)
    report.value(f"asymptote 1+gamma+f mu={big_mu:g}", asymptote)
    report.check("series matches asymptote within 0.05", abs(series - asymptote) <= 0.05,
                 f"gap={abs(series - asymptote):.2e}")
    return report.record(dims=list(cfg.dims), mu=_MU)


# --------------------------------------------------------------------------
# narrow-gap statistics


_EPS_GRID = (0.5, 1.0)


def _sample_gaps(gen, count, dim) -> np.ndarray:
    """Narrow-pair counts at each eps of ``count`` Haar U(dim) spectra."""
    u, _ = haar_unitary(dim, gen, count)
    return narrow_gap_count(eigenangles(u), np.array(_EPS_GRID))


def run_gap_check(cfg: ExperimentConfig) -> ResultRecord:
    """Counts of eigenangle pairs closer than eps/N vs bound and quadrature.

    The empirical mean must stay under N eps^3 / (18 pi) (plus sampling
    slack) and match the sine-kernel quadrature; doubling eps multiplies
    the quadrature prediction by about 8.
    """
    report = _Report(cfg)
    dim = _one_dim(cfg)
    if dim < 2:
        raise InvalidConfigError(f"gaps runs need N >= 2 angles to pair, got N={dim}")
    (data,) = _collect(cfg, [(_sample_gaps, 0, dim, _block_rows(dim * dim, _BLOCK_ENTRIES))])
    quad = {}
    for i, eps in enumerate(_EPS_GRID):
        row = report.estimate(f"eps={eps:g} empirical", data[:, i])
        reference = quad[eps] = expected_narrow_pairs(dim, eps)
        bound = dim * eps ** 3 / (18.0 * math.pi)
        report.value(f"eps={eps:g} quadrature", reference)
        report.check(f"cubic bound eps={eps:g}", row.mean <= bound + 4.0 * row.stderr,
                     f"mean={row.mean:.5f} bound={bound:.5f}")
        # Narrow pairs are rare, so a count is close to Poisson and its
        # variance under the reference is about the reference itself.  That
        # floor keeps a run that sees few or no pairs from dividing by a
        # sample stderr that shrinks with them.
        stderr = math.sqrt(max(row.stderr ** 2, reference / row.n))
        report.z_check(f"quadrature z-score eps={eps:g}", (row.mean - reference) / stderr)
    for eps in _EPS_GRID:
        if 2.0 * eps in quad:
            ratio = quad[2.0 * eps] / quad[eps]
            report.check(f"cubic scaling eps={eps:g} to {2 * eps:g}", abs(ratio - 8.0) <= 0.8,
                         f"ratio={ratio:.4f}")
    return report.record(dims=[dim], eps_grid=list(_EPS_GRID),
                         quadrature={f"{e:g}": quad[e] for e in _EPS_GRID})


# --------------------------------------------------------------------------
# carrier-wave diagnostics


def _sample_carrier(gen, count, payload) -> np.ndarray:
    """(lambda, lambda at delta/2, monotone, stability, bound, measured, holds) per ensemble.

    The block is reduced as arrays over its (S, T, N) angles: one pass of
    log Z samples on the sign scan's 8 N nodes, which feeds the stacked
    sign-change count and the masks on the 64 N grid (FFT logs from the
    same samples, or the kernel if a point is not certified), one
    subdivision, and one kernel call for the normalized logs at the points
    of every sample's own subdivision, which starts at its base angle
    theta0.  A degenerate ensemble is a NaN row.
    """
    dim, coeffs, k_div, delta = payload
    config = subdivision(dim, k_div, delta)
    angles = _su_spectra(gen, count, dim, len(coeffs))
    samples = _fft_samples(angles, _GRID_FACTOR * dim)
    measured = sign_changes((coeffs, angles, samples))
    out = np.full((count, 7), math.nan)
    rows = np.flatnonzero(measured >= 0)
    if rows.size == 0:
        return out
    angles, measured = angles[rows], measured[rows]
    mask, mask_half = _grid_masks(angles, samples[rows], config.delta)
    # Per subinterval k of sample s: 8 stability points, then 16 bound
    # candidates at the left edge, all in one kernel call.
    lefts = base_angles(angles, config)[:, None] + config.Delta * np.arange(config.K)
    offsets = np.linspace(0.0, math.sqrt(config.delta) * config.Delta, 16, endpoint=False)
    steps = (np.arange(8) + 0.5) * (config.Delta / 8.0)
    points = np.mod(lefts[..., None] + np.concatenate([steps, offsets]), TWO_PI)  # (S, K, 24)
    owners = np.repeat(np.arange(len(angles)), points[0].size)
    point_logs = _point_logs(angles, points.ravel(), owners).reshape((len(coeffs),) + points.shape)
    usable = ~exceptional_mask(point_logs, config.delta)
    carriers = carrier_wave_index(point_logs)
    # Carrier-index stability: on each subinterval, the index evaluated on
    # the 8-point grid (outside the exceptional set) must not move, so its
    # largest usable value may not exceed its smallest.
    seen, index = usable[..., :8], carriers[..., :8]
    stable = (np.max(np.where(seen, index, 0), axis=-1)
              <= np.min(np.where(seen, index, len(coeffs)), axis=-1))
    # Proof-chain lower bound: from a non-exceptional base point near the
    # left edge of each subinterval, count the carrier's eigenangles in the
    # remainder of the subinterval and subtract the narrow-gap penalty.
    has_base = np.any(usable[..., 8:], axis=-1)
    first = np.argmax(usable[..., 8:], axis=-1)
    bases = np.take_along_axis(points[..., 8:], first[..., None], axis=-1)[..., 0]
    terms = np.take_along_axis(carriers[..., 8:], first[..., None], axis=-1)[..., 0] - 1
    # the carrier index means nothing on an eigenangle: check where it is read
    for a, p, u, b, h in zip(angles, points, usable, bases, has_base):
        _check_regular(a, np.concatenate([p[:, :8][u[:, :8]], b[h]]))
    carrier = angles[np.arange(len(angles))[:, None], terms]  # (S, K, N)
    relative = np.sort(np.mod(carrier - bases[..., None], TWO_PI), axis=-1)
    arcs = config.Delta - offsets[first]
    # relative is sorted, so the angles inside the arc are a prefix of it,
    # and psi counts the narrow differences within that prefix
    inside = np.count_nonzero(relative < arcs[..., None], axis=-1)
    narrow = np.diff(relative, axis=-1) <= narrow_gap_threshold(config)
    psi = np.count_nonzero(narrow & (np.arange(dim - 1) < inside[..., None] - 1), axis=-1)
    bound = np.sum(np.where(has_base, np.maximum(0, inside - 2 - 2 * psi), 0), axis=-1)
    out[rows] = np.column_stack([
        mask.mean(axis=-1) * TWO_PI, mask_half.mean(axis=-1) * TWO_PI,
        np.all(mask_half <= mask, axis=-1), np.sum(stable, axis=-1) / config.K,
        bound, measured, bound <= measured,
    ])
    return out


def run_carrier_diagnostics(cfg: ExperimentConfig) -> ResultRecord:
    """Exceptional-set measure, carrier stability, and the per-sample bound.

    Per sample: lambda(E_delta) and lambda(E_{delta/2}) on a shared grid
    (the halved set must be pointwise contained), the fraction of
    subintervals with a constant carrier index, and the summed lower bound
    sum_k max(0, nu_k - 2 - 2 psi_k) against the measured sign-change count.
    """
    report = _Report(cfg)
    dim = _one_dim(cfg)
    subdivision(dim, cfg.subdivisions, cfg.delta)  # rejects N < 4 and K out of range
    payload = (dim, cfg.coefficients, cfg.subdivisions, cfg.delta)
    rows = _block_rows(cfg.n_matrices * dim * dim, _BLOCK_ENTRIES)
    (data,) = _collect(cfg, [(_sample_carrier, 0, payload, rows)])
    kept, excluded = _drop_degenerate(data, dim)
    for col, label in (
        (0, "lambda exceptional delta"),
        (1, "lambda exceptional delta/2"),
        (3, "carrier stability fraction"),
        (4, "summed lower bound"),
        (5, "measured sign changes"),
    ):
        report.estimate(label, kept[:, col])
    report.every_sample("lower bound holds in every sample", kept[:, 6])
    report.every_sample("exceptional set monotone pointwise", kept[:, 2])
    report.check("mean exceptional measure decreases when delta halves",
                 float(kept[:, 1].mean()) <= float(kept[:, 0].mean()),
                 f"{kept[:, 1].mean():.4f} vs {kept[:, 0].mean():.4f}")
    if cfg.n_matrices == 1:
        report.check("single wave carries everywhere", np.all(kept[:, 3] == 1.0),
                     "carrier index is trivially constant")
    return report.record(dims=[dim], coefficients=list(cfg.coefficients), delta=cfg.delta,
                         subdivisions=cfg.subdivisions, degenerate_excluded=excluded)


# --------------------------------------------------------------------------
# selftest battery


def run_selftest(cfg: ExperimentConfig) -> ResultRecord:
    """Small fixed battery of identities and two-route checks; runs in a few seconds."""
    report = _Report(cfg)
    gen = RngStream(seed=cfg.seed).child(0).generator()

    # log Z(0) by two routes: the reflection chain's factors and the
    # eigenangle kernel on the certified spectrum of the same matrices.
    # The kernel's Re loses about 1e-15 / (distance of the nearest
    # eigenangle to 0), hence the 1e-6 allowance.
    u, chain = haar_unitary(16, gen, 50)
    by_chain = log_z_from_chain(chain)
    re, im = log_z_grid(eigenangles(u), 0.0)
    worst = float(max(np.max(np.abs(by_chain.re - re)), np.max(np.abs(by_chain.im - im))))
    report.value("log Z(0) chain vs spectrum max deviation", worst, 50)
    report.check("log Z(0) two routes", worst <= 1e-6, f"max deviation {worst:.2e}")

    # Reflection sampler invariants at N=8.
    defect = 0.0
    det_gap = 0.0
    for _ in range(10):
        u, _ = haar_unitary(8, gen)
        defect = max(defect, u.unitarity_defect())
        theta = float(gen.uniform(0.0, TWO_PI))
        su, _ = haar_special_unitary(8, theta, gen)
        det_gap = max(det_gap, abs(su.det() - np.exp(1j * 8 * theta)))
    report.value("unitarity defect", defect, 10)
    report.check("reflection product unitary", defect < 1e-10, f"defect {defect:.2e}")
    report.value("determinant forcing gap", det_gap, 10)
    report.check("determinant forcing", det_gap < 1e-10, f"gap {det_gap:.2e}")

    # Coupling bound.
    from .sampling import coupled_chain_pair

    worst_gap = 0.0
    for _ in range(25):
        theta = float(gen.uniform(0.0, TWO_PI))
        forced, free = coupled_chain_pair(8, theta, gen)
        diff = abs(log_z_from_chain(forced).im - log_z_from_chain(free).im)
        worst_gap = max(worst_gap, diff)
    report.value("coupling max im gap", worst_gap, 25)
    report.check("coupling bound", worst_gap <= math.pi, f"max {worst_gap:.4f}")

    # Moment formula pin.
    gap = abs(joint_mgf_rhs(2.0, 0.0, 8) - 9.0)
    report.value("moment formula gap at (2,0,8)", gap)
    report.check("moment formula value", gap < 1e-9, f"gap {gap:.2e}")

    # A single characteristic polynomial has all zeros on the circle.  Its
    # eigenangles are nodes where G is exactly 0, which the count drops.
    all_n = bool(np.all(sign_changes((np.ones(1), _su_spectra(gen, 5, 8, 1))) == 8))
    report.value("single-wave count is N", 1.0 if all_n else 0.0, 5)
    report.check("single-wave zero count", all_n, "sign changes == N")

    # Serialization round trip.
    from .results import _record_from_csv, _record_from_json, to_csv_text, to_json_text

    toy = ResultRecord(
        experiment="selftest",
        parameters={"alpha": 0.5},
        estimates=[EstimateRow("toy", 1.0 / 3.0, 0.01, 10, cfg.seed)],
        metadata={"version": _version(), "timestamp": None, "runtime_seconds": None},
    )
    back_json = _record_from_json(to_json_text(toy))
    back_csv = _record_from_csv(to_csv_text(toy))
    round_ok = (
        back_json.experiment == toy.experiment
        and back_json.parameters == toy.parameters
        and back_json.estimates == toy.estimates
        and back_json.metadata == toy.metadata
        and back_csv.estimates == toy.estimates
    )
    report.value("serialization round trip", 1.0 if round_ok else 0.0)
    report.check("serialization round trip", round_ok, "json full, csv table")

    return report.record()


# The experiment registry, subcommand name -> runner; ExperimentConfig
# validates against it and the CLI dispatches through this same dict.
_RUNNERS = {
    "fraction": run_fraction_on_circle,
    "moments": run_moment_check,
    "traces": run_trace_covariance,
    "clt": run_clt_check,
    "tails": run_tail_checks,
    "oscillation": run_oscillation_check,
    "gaps": run_gap_check,
    "carrier": run_carrier_diagnostics,
    "selftest": run_selftest,
}
