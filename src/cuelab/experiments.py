"""Seeded Monte Carlo harness for the identity checks and the headline run.

Every experiment follows the same pattern: a module-level sample function
maps (seed, group, sample index) to a tuple of floats, a collector evaluates
it for every index — in process or on a spawn-based pool — and the reduction
walks the samples in index order.  Because the RNG stream of a sample is a
pure function of (seed, group, index), the emitted tables are bit-identical
no matter how many workers participated.

The number of workers defaults to the CUELAB_WORKERS environment variable
(falling back to 1); an ExperimentConfig can pin it explicitly.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
import multiprocessing

import numpy as np
from scipy import stats

from .errors import (
    DegenerateCombinationError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericalFailureError,
)
from .rng import RngStream
from .sampling import (
    haar_reflection_chain,
    haar_special_unitary,
    haar_unitary,
    haar_unitary_qr_oracle,
)
from .spectra import (
    TWO_PI,
    _check_regular,
    count_in_circular_arc,
    eigenangles,
    log_z,
    log_z_from_chain,
)
from .specfun import (
    EULER_GAMMA,
    expected_narrow_pairs,
    f_mu,
    joint_mgf_rhs,
    oscillation_variance_exact,
)
from .ensembles import (
    ORACLE_MAX_DIM,
    CombinationEnsemble,
    circle_root_count,
    roots_oracle,
    sign_changes,
)
from .carrier import (
    _exceptional,
    _grid_logs,
    narrow_gap_count,
    narrow_gap_threshold,
    subdivision,
)
from .errors import SingularPointError
from .results import EstimateRow, ResultRecord

__all__ = [
    "MonteCarloEstimate",
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
_GROUP_SHIFT = 24  # sample index occupies the low 24 bits of the child index


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean and standard error of a batch of per-sample values."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise InvalidArgumentError(
                f"an estimate needs n_samples >= 2, got {self.n_samples!r}"
            )
        if self.stderr < 0.0:
            raise InvalidArgumentError(f"stderr must be >= 0, got {self.stderr!r}")

    @classmethod
    def from_samples(cls, values, seed: int) -> "MonteCarloEstimate":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise InvalidArgumentError("from_samples needs at least two values")
        if not np.all(np.isfinite(arr)):
            raise NumericalFailureError("non-finite values in estimate input")
        return cls(
            mean=float(arr.mean()),
            stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))),
            n_samples=len(arr),
            seed=int(seed),
        )

    def z_score(self, reference: float) -> float:
        """Standardized deviation of the mean from a reference value."""
        gap = self.mean - float(reference)
        if self.stderr == 0.0:
            return 0.0 if gap == 0.0 else math.inf
        return gap / self.stderr


_EXPERIMENTS = (
    "fraction",
    "moments",
    "traces",
    "clt",
    "tails",
    "oscillation",
    "gaps",
    "carrier",
    "selftest",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs of one experiment run.

    ``coefficients`` holds the b_j of the linear combination (all nonzero);
    ``n_matrices`` is their count and may be left None to derive it.  The
    tolerance knobs (z_threshold, ks_level) rarely need changing.
    """

    experiment: str
    dims: tuple = (8,)
    coefficients: tuple = (1.0, 1.0)
    n_matrices: int | None = None
    samples: int = 200
    seed: int = 0
    grid_factor: int = 8
    delta: float | None = None
    subdivisions: int | None = None
    mu: float = 8.0 * math.pi
    workers: int | None = None
    format: str = "csv"
    out: str | None = None
    include_timing: bool = False
    z_threshold: float = 4.0
    ks_level: float = 0.01

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise InvalidConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {_EXPERIMENTS}"
            )
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise InvalidConfigError(f"dims must be positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        coeffs = tuple(float(b) for b in self.coefficients)
        if len(coeffs) == 0:
            raise InvalidConfigError("at least one coefficient is required")
        if any(not math.isfinite(b) or b == 0.0 for b in coeffs):
            raise InvalidConfigError(
                f"coefficients must be finite and nonzero, got {self.coefficients!r}"
            )
        object.__setattr__(self, "coefficients", coeffs)
        if self.n_matrices is None:
            object.__setattr__(self, "n_matrices", len(coeffs))
        elif int(self.n_matrices) != len(coeffs):
            raise InvalidConfigError(
                f"n_matrices={self.n_matrices!r} disagrees with "
                f"{len(coeffs)} coefficients"
            )
        if int(self.samples) < 2:
            raise InvalidConfigError(f"samples must be >= 2, got {self.samples!r}")
        object.__setattr__(self, "samples", int(self.samples))
        if int(self.samples) > (1 << _GROUP_SHIFT):
            raise InvalidConfigError("samples exceed the per-group stream budget")
        if int(self.grid_factor) < 1:
            raise InvalidConfigError(f"grid_factor must be >= 1, got {self.grid_factor!r}")
        object.__setattr__(self, "grid_factor", int(self.grid_factor))
        if self.delta is not None and not (0.0 < self.delta < 0.25):
            raise InvalidConfigError(f"delta must lie in (0, 1/4), got {self.delta!r}")
        if self.subdivisions is not None and int(self.subdivisions) < 2:
            raise InvalidConfigError(
                f"subdivisions must be >= 2, got {self.subdivisions!r}"
            )
        if not (self.mu > 0.0):
            raise InvalidConfigError(f"mu must be positive, got {self.mu!r}")
        if self.workers is not None and int(self.workers) < 1:
            raise InvalidConfigError(f"workers must be >= 1, got {self.workers!r}")
        if self.format not in ("csv", "json"):
            raise InvalidConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if not (self.z_threshold > 0.0):
            raise InvalidConfigError(f"z_threshold must be positive, got {self.z_threshold!r}")
        if not (0.0 < self.ks_level < 1.0):
            raise InvalidConfigError(f"ks_level must lie in (0, 1), got {self.ks_level!r}")

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return int(self.workers)
        raw = os.environ.get(_WORKERS_ENV, "1")
        try:
            return max(1, int(raw))
        except ValueError:
            raise InvalidConfigError(
                f"{_WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None


# --------------------------------------------------------------------------
# sample plumbing


def _stream(seed: int, group: int, index: int) -> RngStream:
    return RngStream(seed=seed).child((group << _GROUP_SHIFT) + index)


def _chunk_eval(fn, seed, group, indices, payload):
    return [fn(seed, group, k, payload) for k in indices]


def _collect(fn, seed, group, n_samples, payload, workers) -> np.ndarray:
    """Evaluate fn for indices 0..n_samples-1; rows come back in index order."""
    if workers <= 1:
        rows = [fn(seed, group, k, payload) for k in range(n_samples)]
    else:
        pieces = [
            c.tolist()
            for c in np.array_split(np.arange(n_samples), workers * 4)
            if c.size
        ]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [
                pool.submit(_chunk_eval, fn, seed, group, piece, payload)
                for piece in pieces
            ]
            rows = [row for fut in futures for row in fut.result()]
    return np.asarray(rows, dtype=float)


def _check(name: str, passed, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _version() -> str:
    from cuelab import __version__

    return __version__


def _finish(cfg: ExperimentConfig, params: dict, rows: list, checks: list,
            started: float) -> ResultRecord:
    params = dict(params)
    params["checks"] = checks
    metadata = {"version": _version(), "timestamp": None, "runtime_seconds": None}
    if cfg.include_timing:
        metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
        metadata["runtime_seconds"] = time.time() - started
    return ResultRecord(
        experiment=cfg.experiment, parameters=params, estimates=rows, metadata=metadata
    )


def _row(label: str, est: MonteCarloEstimate) -> EstimateRow:
    return EstimateRow(label, est.mean, est.stderr, est.n_samples, est.seed)


def _value_row(label: str, value: float, seed: int, n: int = 0) -> EstimateRow:
    return EstimateRow(label, float(value), 0.0, n, seed)


# --------------------------------------------------------------------------
# fraction of zeros on the circle


def _sample_fraction(seed, group, k, payload):
    dim, grid_factor, coeffs = payload
    gen = _stream(seed, group, k).generator()
    specs = tuple(
        eigenangles(haar_special_unitary(dim, 0.0, gen)[0]) for _ in coeffs
    )
    ens = CombinationEnsemble(np.asarray(coeffs, dtype=float), specs)
    try:
        changes = sign_changes(ens, grid_factor=grid_factor)
        count = circle_root_count(roots_oracle(ens))
    except DegenerateCombinationError:
        return (math.nan, 1.0, math.nan, math.nan)
    audit = 1.0 if changes == count else 0.0
    lower = 1.0 if changes <= count else 0.0
    return (float(count) / dim, 0.0, audit, lower)


def run_fraction_on_circle(cfg: ExperimentConfig) -> ResultRecord:
    """Mean fraction of the combination's zeros that sit on the unit circle.

    For each N the run draws ``samples`` independent n-tuples of SU(N)
    spectra, counts circle zeros with the root oracle, audits the
    sign-change lower bound against that count, and reports mean +-
    stderr.  N is capped at ORACLE_MAX_DIM (512).  Degenerate draws
    (identically vanishing combination) are excluded and counted.
    """
    started = time.time()
    for dim in cfg.dims:
        if dim > ORACLE_MAX_DIM:
            raise InvalidConfigError(
                f"fraction runs are capped at N={ORACLE_MAX_DIM}, got N={dim}"
            )
    workers = cfg.resolved_workers()
    rows, checks = [], []
    means, stderrs = [], []
    degenerate = {}
    for group, dim in enumerate(cfg.dims):
        payload = (dim, cfg.grid_factor, cfg.coefficients)
        data = _collect(_sample_fraction, cfg.seed, group, cfg.samples, payload, workers)
        kept = data[data[:, 1] == 0.0]
        degenerate[f"N={dim}"] = int(len(data) - len(kept))
        if len(kept) < 2:
            raise NumericalFailureError(
                f"fewer than two non-degenerate samples at N={dim}"
            )
        est = MonteCarloEstimate.from_samples(kept[:, 0], cfg.seed)
        rows.append(_row(f"N={dim}", est))
        means.append(est.mean)
        stderrs.append(est.stderr)
        rate = float(kept[:, 2].mean())
        if dim <= 16:
            checks.append(
                _check(
                    f"count audit agreement N={dim}",
                    rate >= 0.95,
                    f"rate={rate:.4f} over {len(kept)} audited samples",
                )
            )
        else:
            # sign scanning can miss a close pair of circle zeros (3 of
            # 1,200 ensembles at N = 64, 3 of 30 at N = 256), so above
            # N = 16 the agreement rate is reported, not gated
            rows.append(
                _value_row(f"count audit rate N={dim}", rate, cfg.seed, n=len(kept))
            )
        checks.append(
            _check(
                f"sign changes never exceed root count N={dim}",
                bool(np.all(kept[:, 3] == 1.0)),
                "lower-bound property of sign counting",
            )
        )
    if len(cfg.dims) >= 2:
        worst = 0.0
        trend_ok = True
        for i in range(len(means) - 1):
            allowance = 2.0 * math.hypot(stderrs[i], stderrs[i + 1])
            deficit = means[i] - means[i + 1] - allowance
            worst = max(worst, deficit)
            if deficit > 0.0:
                trend_ok = False
        checks.append(
            _check(
                "mean fraction nondecreasing within 2 pooled stderr",
                trend_ok,
                f"worst deficit beyond allowance {worst:.4f}",
            )
        )
        checks.append(
            _check(
                f"N={cfg.dims[-1]} mean exceeds N={cfg.dims[0]} mean",
                means[-1] > means[0],
                f"{means[-1]:.4f} vs {means[0]:.4f}",
            )
        )
    baseline = 1.0 / math.sqrt(3.0) + 0.05
    checks.append(
        _check(
            f"N={cfg.dims[-1]} mean exceeds 1/sqrt(3)+0.05",
            means[-1] > baseline,
            f"{means[-1]:.4f} vs {baseline:.4f}",
        )
    )
    params = {
        "dims": list(cfg.dims),
        "coefficients": list(cfg.coefficients),
        "samples": cfg.samples,
        "grid_factor": cfg.grid_factor,
        "degenerate_excluded": degenerate,
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# joint moment formula


_MOMENT_CASES = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))


def _sample_moment(seed, group, k, payload):
    dim, cases = payload
    gen = _stream(seed, group, k).generator()
    lz = log_z_from_chain(haar_reflection_chain(dim, gen))
    return tuple(math.exp(s * lz.re + t * lz.im) for (s, t) in cases)


def run_moment_check(cfg: ExperimentConfig) -> ResultRecord:
    """Empirical E[e^{s Re log Z(0) + t Im log Z(0)}] against the closed form.

    Only the real slice t = 0 has an implemented reference value; the
    empirical side uses the O(N^2) chain route, so no eigendecomposition
    is involved.
    """
    started = time.time()
    workers = cfg.resolved_workers()
    rows, checks = [], []
    zs = {}
    for group, dim in enumerate(cfg.dims):
        payload = (dim, _MOMENT_CASES)
        data = _collect(_sample_moment, cfg.seed, group, cfg.samples, payload, workers)
        for i, (s, t) in enumerate(_MOMENT_CASES):
            est = MonteCarloEstimate.from_samples(data[:, i], cfg.seed)
            reference = joint_mgf_rhs(s, t, dim)
            z = est.z_score(reference)
            zs[f"s={s:g},t={t:g},N={dim}"] = z
            rows.append(_row(f"s={s:g},t={t:g},N={dim} empirical", est))
            rows.append(
                _value_row(f"s={s:g},t={t:g},N={dim} formula", reference, cfg.seed)
            )
            checks.append(
                _check(
                    f"moment z-score s={s:g},t={t:g},N={dim}",
                    abs(z) <= cfg.z_threshold,
                    f"z={z:.3f}",
                )
            )
    params = {
        "dims": list(cfg.dims),
        "samples": cfg.samples,
        "cases": [list(c) for c in _MOMENT_CASES],
        "z_scores": zs,
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# trace covariance (both samplers) and the sampler KS cross-check


_TRACE_PAIRS = ((1, 1), (1, 2), (3, 3), (8, 8), (12, 12))


def _sample_traces(seed, group, k, payload):
    dim, powers = payload
    gen = _stream(seed, group, k).generator()
    u, chain = haar_unitary(dim, gen)
    lam = np.linalg.eigvals(u.entries)
    u_qr = haar_unitary_qr_oracle(dim, gen)
    lam_qr = np.linalg.eigvals(u_qr.entries)
    out = []
    for eig in (lam, lam_qr):
        traces = {p: complex((eig ** p).sum()) for p in powers}
        for p, q in _TRACE_PAIRS:
            v = traces[p] * np.conj(traces[q])
            out.append(v.real)
            out.append(v.imag)
    out.append(log_z_from_chain(chain).re)
    out.append(float(np.log(np.abs(np.prod(1.0 - lam_qr)))))
    return tuple(out)


def run_trace_covariance(cfg: ExperimentConfig) -> ResultRecord:
    """E[tr U^p conj(tr U^q)] against 1_{p=q} (|p| wedge N), both samplers.

    The same per-sample stream drives the reflection draw and then the QR
    oracle draw, and the two log|Z(0)| batches feed a two-sample KS test,
    so one run cross-validates the samplers against each other as well as
    against the formula.
    """
    started = time.time()
    dim = cfg.dims[0]
    max_power = max(max(p, q) for p, q in _TRACE_PAIRS)
    if max_power > 4 * dim:
        raise InvalidConfigError(
            f"trace powers up to {max_power} exceed the 4N window at N={dim}"
        )
    powers = tuple(sorted({p for pair in _TRACE_PAIRS for p in pair}))
    workers = cfg.resolved_workers()
    data = _collect(
        _sample_traces, cfg.seed, 0, cfg.samples, (dim, powers), workers
    )
    rows, checks = [], []
    zs = {}
    col = 0
    for sampler in ("reflection", "qr"):
        for p, q in _TRACE_PAIRS:
            target = float(min(p, dim)) if p == q else 0.0
            est_re = MonteCarloEstimate.from_samples(data[:, col], cfg.seed)
            est_im = MonteCarloEstimate.from_samples(data[:, col + 1], cfg.seed)
            col += 2
            z_re = est_re.z_score(target)
            z_im = est_im.z_score(0.0)
            zs[f"p={p},q={q} {sampler}"] = [z_re, z_im]
            rows.append(_row(f"p={p},q={q} {sampler} re", est_re))
            rows.append(_row(f"p={p},q={q} {sampler} im", est_im))
            checks.append(
                _check(
                    f"trace z-score p={p},q={q} {sampler}",
                    abs(z_re) <= cfg.z_threshold and abs(z_im) <= cfg.z_threshold,
                    f"z_re={z_re:.3f} z_im={z_im:.3f} target={target:g}",
                )
            )
    ks = stats.ks_2samp(data[:, -2], data[:, -1])
    rows.append(_value_row("sampler KS statistic", float(ks.statistic), cfg.seed, cfg.samples))
    checks.append(
        _check(
            "sampler KS on log|Z(0)|",
            float(ks.pvalue) >= cfg.ks_level,
            f"statistic={float(ks.statistic):.5f} pvalue={float(ks.pvalue):.4f}",
        )
    )
    params = {
        "dims": [dim],
        "samples": cfg.samples,
        "pairs": [list(p) for p in _TRACE_PAIRS],
        "z_scores": zs,
        "ks_statistic": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# central limit behavior of log|Z|


def _sample_clt(seed, group, k, payload):
    (dim,) = payload
    gen = _stream(seed, group, k).generator()
    return (log_z_from_chain(haar_reflection_chain(dim, gen)).re,)


def run_clt_check(cfg: ExperimentConfig) -> ResultRecord:
    """KS distance of log|Z(0)| / sqrt(log(N)/2) from the standard normal.

    A pure-normal control batch calibrates the sampling noise floor
    1.36/sqrt(samples).  Dense sampling is capped at N = 512.
    """
    started = time.time()
    for dim in cfg.dims:
        if dim < 64:
            raise InvalidConfigError(f"clt check needs N >= 64, got N={dim}")
        if dim > 512:
            raise InvalidConfigError(f"dense clt runs are capped at N=512, got N={dim}")
    workers = cfg.resolved_workers()
    rows, checks = [], []
    ks_by_dim = {}
    for group, dim in enumerate(cfg.dims):
        data = _collect(_sample_clt, cfg.seed, group, cfg.samples, (dim,), workers)
        normalized = data[:, 0] / math.sqrt(0.5 * math.log(dim))
        ks = float(stats.kstest(normalized, "norm").statistic)
        ks_by_dim[dim] = ks
        rows.append(_value_row(f"N={dim} ks-distance", ks, cfg.seed, cfg.samples))
    control = (
        RngStream(seed=cfg.seed)
        .child(len(cfg.dims) << _GROUP_SHIFT)
        .generator()
        .standard_normal(cfg.samples)
    )
    ks_control = float(stats.kstest(control, "norm").statistic)
    rows.append(_value_row("normal control ks-distance", ks_control, cfg.seed, cfg.samples))
    # The pinned thresholds are calibrated at 1e4 samples; the noise parts
    # scale like 1/sqrt(samples).
    scale = math.sqrt(10000.0 / cfg.samples)
    largest = max(cfg.dims)
    checks.append(
        _check(
            f"KS at N={largest} within 0.08",
            ks_by_dim[largest] <= 0.08,
            f"ks={ks_by_dim[largest]:.4f}",
        )
    )
    if len(cfg.dims) >= 2:
        smallest = min(cfg.dims)
        checks.append(
            _check(
                "KS shrinks with N",
                ks_by_dim[largest] <= ks_by_dim[smallest] + 0.02 * scale,
                f"ks({largest})={ks_by_dim[largest]:.4f} vs "
                f"ks({smallest})={ks_by_dim[smallest]:.4f}",
            )
        )
    checks.append(
        _check(
            "normal control within noise",
            ks_control <= 0.02 * scale,
            f"ks={ks_control:.4f}",
        )
    )
    params = {
        "dims": list(cfg.dims),
        "samples": cfg.samples,
        "noise_floor": 1.36 / math.sqrt(cfg.samples),
        "ks_by_dim": {str(d): ks_by_dim[d] for d in cfg.dims},
        "ks_control": ks_control,
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# tail and concentration probabilities


_A_GRID = (0.0, 0.5, 1.0, 2.0)
_DELTA_GRID = (0.2, 0.1, 0.05)


def _sample_tail_modulus(seed, group, k, payload):
    (dim,) = payload
    gen = _stream(seed, group, k).generator()
    u, _ = haar_unitary(dim, gen)
    spec = eigenangles(u)
    while True:
        theta = gen.uniform(0.0, TWO_PI)
        try:
            lz = log_z(spec, theta)
            break
        except SingularPointError:
            continue
    return (math.hypot(lz.re, lz.im),)


def _sample_tail_chain(seed, group, k, payload):
    (dim,) = payload
    gen = _stream(seed, group, k).generator()
    lz = log_z_from_chain(haar_reflection_chain(dim, gen))
    return (lz.re, lz.im)


def run_tail_checks(cfg: ExperimentConfig) -> ResultRecord:
    """Exceedance and concentration probabilities of log Z at scale sqrt(log N).

    Three tables: P[|log Z(theta)| >= A sqrt(log N)] with theta uniform,
    P[|Im log Z(0)| >= A sqrt(log N)] at the fixed angle, and the
    concentration probabilities P[|log|Z(0)| - x0| <= delta sqrt(log N)]
    with x0 = 0.  The underlying bounds fix no constants, so the checks
    assert the monotone structure only.
    """
    started = time.time()
    workers = cfg.resolved_workers()
    rows, checks = [], []
    for group, dim in enumerate(cfg.dims):
        norm = math.sqrt(math.log(dim))
        modulus = _collect(
            _sample_tail_modulus, cfg.seed, 2 * group, cfg.samples, (dim,), workers
        )[:, 0] / norm
        chain_stats = _collect(
            _sample_tail_chain, cfg.seed, 2 * group + 1, cfg.samples, (dim,), workers
        )
        re_part = chain_stats[:, 0] / norm
        im_part = np.abs(chain_stats[:, 1]) / norm
        p_mod, p_im, p_conc = {}, {}, {}
        for a in _A_GRID:
            est = MonteCarloEstimate.from_samples((modulus >= a).astype(float), cfg.seed)
            p_mod[a] = est.mean
            rows.append(_row(f"modulus tail A={a:g} N={dim}", est))
        for a in _A_GRID:
            est = MonteCarloEstimate.from_samples((im_part >= a).astype(float), cfg.seed)
            p_im[a] = est.mean
            rows.append(_row(f"im tail A={a:g} N={dim}", est))
        for d in _DELTA_GRID:
            est = MonteCarloEstimate.from_samples(
                (np.abs(re_part) <= d).astype(float), cfg.seed
            )
            p_conc[d] = est.mean
            rows.append(_row(f"concentration delta={d:g} N={dim}", est))
        checks.append(
            _check(
                f"A=0 exceedance is certain N={dim}",
                p_mod[_A_GRID[0]] == 1.0 and p_im[_A_GRID[0]] == 1.0,
                f"p={p_mod[_A_GRID[0]]:g}",
            )
        )
        mono_mod = all(
            p_mod[_A_GRID[i]] >= p_mod[_A_GRID[i + 1]] for i in range(len(_A_GRID) - 1)
        )
        mono_im = all(
            p_im[_A_GRID[i]] >= p_im[_A_GRID[i + 1]] for i in range(len(_A_GRID) - 1)
        )
        checks.append(
            _check(f"modulus tail nonincreasing in A N={dim}", mono_mod,
                   " ".join(f"{p_mod[a]:.4f}" for a in _A_GRID))
        )
        checks.append(
            _check(f"im tail nonincreasing in A N={dim}", mono_im,
                   " ".join(f"{p_im[a]:.4f}" for a in _A_GRID))
        )
        mono_conc = all(
            p_conc[_DELTA_GRID[i]] >= p_conc[_DELTA_GRID[i + 1]]
            for i in range(len(_DELTA_GRID) - 1)
        )
        checks.append(
            _check(f"concentration decreasing with delta N={dim}", mono_conc,
                   " ".join(f"{p_conc[d]:.4f}" for d in _DELTA_GRID))
        )
    params = {
        "dims": list(cfg.dims),
        "samples": cfg.samples,
        "a_grid": list(_A_GRID),
        "delta_grid": list(_DELTA_GRID),
        "x0": 0.0,
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# oscillation of log Z over a mesoscopic shift


def _sample_oscillation(seed, group, k, payload):
    dim, mu = payload
    alpha = mu / dim
    gen = _stream(seed, group, k).generator()
    u, _ = haar_unitary(dim, gen)
    spec = eigenangles(u)
    while True:
        theta = gen.uniform(0.0, TWO_PI)
        second = math.fmod(theta + alpha, TWO_PI)
        try:
            first_lz = log_z(spec, theta)
            second_lz = log_z(spec, second)
            break
        except SingularPointError:
            continue
    return (second_lz.re - first_lz.re, second_lz.im - first_lz.im)


def run_oscillation_check(cfg: ExperimentConfig) -> ResultRecord:
    """Second moments of log Z increments over the shift mu/N vs the series.

    Both the real and imaginary increments have the same closed-form
    second moment; the deterministic rows restate the series value at
    N = 10^4, mu = 20 pi next to its large-N asymptote 1 + gamma + f(mu).
    """
    started = time.time()
    workers = cfg.resolved_workers()
    rows, checks = [], []
    for group, dim in enumerate(cfg.dims):
        if cfg.mu > TWO_PI * dim:
            raise InvalidConfigError(
                f"mu={cfg.mu:g} exceeds the 2 pi N window at N={dim}"
            )
        data = _collect(
            _sample_oscillation, cfg.seed, group, cfg.samples, (dim, cfg.mu), workers
        )
        reference = oscillation_variance_exact(dim, cfg.mu)
        est_re = MonteCarloEstimate.from_samples(data[:, 0] ** 2, cfg.seed)
        est_im = MonteCarloEstimate.from_samples(data[:, 1] ** 2, cfg.seed)
        z_re = est_re.z_score(reference)
        z_im = est_im.z_score(reference)
        rows.append(_row(f"re increment second moment N={dim} mu={cfg.mu:g}", est_re))
        rows.append(_row(f"im increment second moment N={dim} mu={cfg.mu:g}", est_im))
        rows.append(
            _value_row(f"exact series N={dim} mu={cfg.mu:g}", reference, cfg.seed)
        )
        checks.append(
            _check(
                f"re increment z-score N={dim}",
                abs(z_re) <= cfg.z_threshold,
                f"z={z_re:.3f}",
            )
        )
        checks.append(
            _check(
                f"im increment z-score N={dim}",
                abs(z_im) <= cfg.z_threshold,
                f"z={z_im:.3f}",
            )
        )
    big_n, big_mu = 10000, 20.0 * math.pi
    series = oscillation_variance_exact(big_n, big_mu)
    asymptote = 1.0 + EULER_GAMMA + f_mu(big_mu)
    rows.append(_value_row(f"exact series N={big_n} mu={big_mu:g}", series, cfg.seed))
    rows.append(_value_row(f"asymptote 1+gamma+f mu={big_mu:g}", asymptote, cfg.seed))
    checks.append(
        _check(
            "series matches asymptote within 0.05",
            abs(series - asymptote) <= 0.05,
            f"gap={abs(series - asymptote):.2e}",
        )
    )
    params = {
        "dims": list(cfg.dims),
        "samples": cfg.samples,
        "mu": cfg.mu,
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# narrow-gap statistics


_EPS_GRID = (0.5, 1.0)


def _sample_gaps(seed, group, k, payload):
    dim, eps_grid = payload
    gen = _stream(seed, group, k).generator()
    u, _ = haar_unitary(dim, gen)
    spec = eigenangles(u)
    return tuple(float(narrow_gap_count(spec, eps)) for eps in eps_grid)


def run_gap_check(cfg: ExperimentConfig) -> ResultRecord:
    """Counts of eigenangle pairs closer than eps/N vs bound and quadrature.

    The empirical mean must stay under N eps^3 / (18 pi) (plus sampling
    slack) and match the sine-kernel quadrature; doubling eps multiplies
    the quadrature prediction by about 8.
    """
    started = time.time()
    workers = cfg.resolved_workers()
    dim = cfg.dims[0]
    data = _collect(_sample_gaps, cfg.seed, 0, cfg.samples, (dim, _EPS_GRID), workers)
    rows, checks = [], []
    quad = {}
    for i, eps in enumerate(_EPS_GRID):
        est = MonteCarloEstimate.from_samples(data[:, i], cfg.seed)
        reference = expected_narrow_pairs(dim, eps)
        quad[eps] = reference
        bound = dim * eps ** 3 / (18.0 * math.pi)
        z = est.z_score(reference)
        rows.append(_row(f"eps={eps:g} empirical", est))
        rows.append(_value_row(f"eps={eps:g} quadrature", reference, cfg.seed))
        checks.append(
            _check(
                f"cubic bound eps={eps:g}",
                est.mean <= bound + 4.0 * est.stderr,
                f"mean={est.mean:.5f} bound={bound:.5f}",
            )
        )
        checks.append(
            _check(
                f"quadrature z-score eps={eps:g}",
                abs(z) <= cfg.z_threshold,
                f"z={z:.3f}",
            )
        )
    for eps in _EPS_GRID:
        if 2.0 * eps in quad:
            ratio = quad[2.0 * eps] / quad[eps]
            checks.append(
                _check(
                    f"cubic scaling eps={eps:g} to {2 * eps:g}",
                    abs(ratio - 8.0) <= 0.8,
                    f"ratio={ratio:.4f}",
                )
            )
    params = {
        "dims": [dim],
        "samples": cfg.samples,
        "eps_grid": list(_EPS_GRID),
        "quadrature": {f"{e:g}": quad[e] for e in _EPS_GRID},
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# carrier-wave diagnostics


def _sample_carrier(seed, group, k, payload):
    dim, coeffs, k_div, delta, grid_factor = payload
    gen = _stream(seed, group, k).generator()
    specs = tuple(
        eigenangles(haar_special_unitary(dim, 0.0, gen)[0]) for _ in coeffs
    )
    ens = CombinationEnsemble(np.asarray(coeffs, dtype=float), specs)
    config = subdivision(dim, k_div, delta, ens)
    delta_eff = config.delta
    grid = 64 * dim
    thetas = (np.arange(grid) + 0.5) * (TWO_PI / grid)
    logs = _grid_logs(ens, thetas)
    mask = _exceptional(logs, delta_eff)
    mask_half = _exceptional(logs, delta_eff / 2.0)
    lam = float(mask.mean()) * TWO_PI
    lam_half = float(mask_half.mean()) * TWO_PI
    monotone = 1.0 if bool(np.all(mask_half <= mask)) else 0.0
    # Per subinterval k: 8 stability points, then 16 bound candidates at
    # the left edge, all evaluated by one kernel call.
    lefts = config.theta_k(np.arange(config.K))
    pad = math.sqrt(delta_eff) * config.Delta
    offsets = np.linspace(0.0, pad, 16, endpoint=False)
    steps = (np.arange(8) + 0.5) * (config.Delta / 8.0)
    points = np.mod(lefts[:, None] + np.concatenate([steps, offsets]), TWO_PI)
    point_logs = _grid_logs(ens, points)
    usable = ~_exceptional(point_logs, delta_eff)
    carriers = np.argmax(point_logs, axis=0) + 1  # carrier_wave_index at every point
    # Carrier-index stability: on each subinterval, the index evaluated on
    # the 8-point grid (outside the exceptional set) must not move.
    stable = sum(len(set(carriers[kk, :8][usable[kk, :8]])) <= 1 for kk in range(config.K))
    stability = stable / config.K
    # Proof-chain lower bound: from a non-exceptional base point near the
    # left edge of each subinterval, count the carrier's eigenangles in the
    # remainder of the subinterval and subtract the narrow-gap penalty.
    threshold = narrow_gap_threshold(config, 1.0)
    has_base = np.any(usable[:, 8:], axis=1)
    first = np.argmax(usable[:, 8:], axis=1)
    bases = points[np.arange(config.K), 8 + first]
    # the carrier index raises on an eigenangle wherever it is read
    _check_regular(ens.angles, np.concatenate([points[:, :8][usable[:, :8]], bases[has_base]]))
    bound = 0
    for kk in np.nonzero(has_base)[0]:
        base = float(bases[kk])
        arc = config.Delta - float(offsets[first[kk]])
        spec = ens.spectra[carriers[kk, 8 + first[kk]] - 1]
        nu = count_in_circular_arc(spec, base, arc)
        relative = np.sort(np.mod(spec.angles - base, TWO_PI))
        inside = relative[relative < arc]
        psi = int(np.count_nonzero(np.diff(inside) <= threshold)) if inside.size > 1 else 0
        bound += max(0, nu - 2 - 2 * psi)
    try:
        measured = sign_changes(ens, grid_factor=grid_factor)
    except DegenerateCombinationError:
        return (math.nan,) * 7
    holds = 1.0 if bound <= measured else 0.0
    return (lam, lam_half, monotone, stability, float(bound), float(measured), holds)


def run_carrier_diagnostics(cfg: ExperimentConfig) -> ResultRecord:
    """Exceptional-set measure, carrier stability, and the per-sample bound.

    Per sample: lambda(E_delta) and lambda(E_{delta/2}) on a shared grid
    (the halved set must be pointwise contained), the fraction of
    subintervals with a constant carrier index, and the summed lower bound
    sum_k max(0, nu_k - 2 - 2 psi_k) against the measured sign-change count.
    """
    started = time.time()
    workers = cfg.resolved_workers()
    dim = cfg.dims[0]
    payload = (dim, cfg.coefficients, cfg.subdivisions, cfg.delta, cfg.grid_factor)
    data = _collect(_sample_carrier, cfg.seed, 0, cfg.samples, payload, workers)
    kept = data[~np.isnan(data[:, 0])]
    excluded = int(len(data) - len(kept))
    if len(kept) < 2:
        raise NumericalFailureError("fewer than two non-degenerate carrier samples")
    rows = [
        _row("lambda exceptional delta", MonteCarloEstimate.from_samples(kept[:, 0], cfg.seed)),
        _row("lambda exceptional delta/2", MonteCarloEstimate.from_samples(kept[:, 1], cfg.seed)),
        _row("carrier stability fraction", MonteCarloEstimate.from_samples(kept[:, 3], cfg.seed)),
        _row("summed lower bound", MonteCarloEstimate.from_samples(kept[:, 4], cfg.seed)),
        _row("measured sign changes", MonteCarloEstimate.from_samples(kept[:, 5], cfg.seed)),
    ]
    checks = [
        _check(
            "lower bound holds in every sample",
            bool(np.all(kept[:, 6] == 1.0)),
            f"violations={int(np.sum(kept[:, 6] != 1.0))}",
        ),
        _check(
            "exceptional set monotone pointwise",
            bool(np.all(kept[:, 2] == 1.0)),
            f"violations={int(np.sum(kept[:, 2] != 1.0))}",
        ),
        _check(
            "mean exceptional measure decreases when delta halves",
            float(kept[:, 1].mean()) <= float(kept[:, 0].mean()),
            f"{kept[:, 1].mean():.4f} vs {kept[:, 0].mean():.4f}",
        ),
    ]
    if cfg.n_matrices == 1:
        checks.append(
            _check(
                "single wave carries everywhere",
                bool(np.all(kept[:, 3] == 1.0)),
                "carrier index is trivially constant",
            )
        )
    params = {
        "dims": [dim],
        "coefficients": list(cfg.coefficients),
        "samples": cfg.samples,
        "delta": cfg.delta,
        "subdivisions": cfg.subdivisions,
        "degenerate_excluded": excluded,
    }
    return _finish(cfg, params, rows, checks, started)


# --------------------------------------------------------------------------
# selftest battery


def run_selftest(cfg: ExperimentConfig) -> ResultRecord:
    """Small fixed battery of exact identities; runs in a few seconds."""
    started = time.time()
    gen = RngStream(seed=cfg.seed).child(0).generator()
    rows, checks = [], []

    # Arc-counting identity on random spectra and arcs.
    from .spectra import count_in_arc

    worst = 0
    for _ in range(50):
        dim = int(gen.integers(2, 17))
        spec = eigenangles(haar_unitary(dim, gen)[0])
        s_val, t_val = np.sort(gen.uniform(0.0, TWO_PI, 2))
        if t_val - s_val < 1e-9:
            continue
        direct = int(np.sum((spec.angles >= s_val) & (spec.angles < t_val)))
        formula = count_in_arc(spec, float(s_val), float(t_val))
        worst = max(worst, abs(formula - direct))
    rows.append(_value_row("arc identity max deviation", float(worst), cfg.seed, 50))
    checks.append(_check("arc-counting identity", worst < 1e-6, f"max deviation {worst}"))

    # Reflection sampler invariants at N=8.
    defect = 0.0
    det_gap = 0.0
    for _ in range(10):
        u, _ = haar_unitary(8, gen)
        defect = max(defect, u.unitarity_defect())
        theta = float(gen.uniform(0.0, TWO_PI))
        su, _ = haar_special_unitary(8, theta, gen)
        det_gap = max(det_gap, abs(su.det() - np.exp(1j * 8 * theta)))
    rows.append(_value_row("unitarity defect", defect, cfg.seed, 10))
    checks.append(_check("reflection product unitary", defect < 1e-10, f"defect {defect:.2e}"))
    rows.append(_value_row("determinant forcing gap", det_gap, cfg.seed, 10))
    checks.append(_check("determinant forcing", det_gap < 1e-10, f"gap {det_gap:.2e}"))

    # Coupling bound.
    from .sampling import coupled_chain_pair

    worst_gap = 0.0
    for _ in range(25):
        theta = float(gen.uniform(0.0, TWO_PI))
        forced, free = coupled_chain_pair(8, theta, gen)
        diff = abs(log_z_from_chain(forced).im - log_z_from_chain(free).im)
        worst_gap = max(worst_gap, diff)
    rows.append(_value_row("coupling max im gap", worst_gap, cfg.seed, 25))
    checks.append(_check("coupling bound", worst_gap <= math.pi, f"max {worst_gap:.4f}"))

    # Moment formula pin.
    gap = abs(joint_mgf_rhs(2.0, 0.0, 8) - 9.0)
    rows.append(_value_row("moment formula gap at (2,0,8)", gap, cfg.seed))
    checks.append(_check("moment formula value", gap < 1e-9, f"gap {gap:.2e}"))

    # A single characteristic polynomial has all zeros on the circle.
    all_n = True
    for _ in range(5):
        spec = eigenangles(haar_special_unitary(8, 0.0, gen)[0])
        ens = CombinationEnsemble(np.array([1.0]), (spec,))
        if sign_changes(ens) != 8:
            all_n = False
    rows.append(_value_row("single-wave count is N", 1.0 if all_n else 0.0, cfg.seed, 5))
    checks.append(_check("single-wave zero count", all_n, "sign changes == N"))

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
    rows.append(_value_row("serialization round trip", 1.0 if round_ok else 0.0, cfg.seed))
    checks.append(_check("serialization round trip", round_ok, "json full, csv table"))

    params = {"samples": cfg.samples}
    return _finish(cfg, params, rows, checks, started)
