"""Monte Carlo experiment runners: estimates, configs, and check plumbing.

Each runner gets a seeded smoke run whose internal consistency checks
must all pass; the statistically heavy versions live in test_acceptance.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cuelab
from cuelab import cli, experiments
from cuelab.carrier import (
    base_angles, carrier_wave_index, exceptional_mask, normalized_logs, subdivision,
)
from cuelab.cli import main as cli_main
from cuelab.errors import (
    CuelabError,
    InvalidConfigError,
    NumericalFailureError,
)
from cuelab.experiments import (
    ExperimentConfig,
    run_carrier_diagnostics,
    run_clt_check,
    run_fraction_on_circle,
    run_gap_check,
    run_moment_check,
    run_oscillation_check,
    run_selftest,
    run_tail_checks,
    run_trace_covariance,
)
from cuelab.results import EstimateRow, read_record, to_json_text
from cuelab.ensembles import circle_zero_counts
from cuelab.spectra import LogZ


def failed_checks(record):
    return [(name, detail) for name, ok, detail in record.checks() if not ok]


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


def test_estimate_from_samples_matches_manual_formulas():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    est = EstimateRow.from_samples("x", values, seed=9)
    assert est.label == "x"
    assert est.mean == pytest.approx(2.5)
    assert est.stderr == pytest.approx(values.std(ddof=1) / 2.0)
    assert est.n == 4
    assert est.seed == 9
    assert est.z_score(2.5) == 0.0
    assert est.z_score(2.5 - est.stderr) == pytest.approx(1.0)


def test_estimate_rejects_degenerate_input():
    with pytest.raises(Exception):
        EstimateRow.from_samples("x", np.array([1.0]), seed=0)
    with pytest.raises(NumericalFailureError):
        EstimateRow.from_samples("x", np.array([1.0, np.nan]), seed=0)


def test_estimate_zero_stderr_z_scores():
    est = EstimateRow.from_samples("x", np.array([2.0, 2.0, 2.0]), seed=0)
    assert est.stderr == 0.0
    assert est.z_score(2.0) == 0.0
    assert est.z_score(2.1) == np.inf


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="nope", dims=(8,))
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="moments", dims=())
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="moments", dims=(8,), samples=1)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="carrier", dims=(8,), delta=0.3)
    # counts must be whole numbers, not truncated to one
    for field, value in [("dims", (8.9,)), ("samples", 2.7), ("subdivisions", 4.5),
                         ("workers", 1.5)]:
        with pytest.raises(InvalidConfigError, match=field):
            ExperimentConfig(**{"experiment": "carrier", "dims": (16,), field: value})
    whole = ExperimentConfig(experiment="carrier", dims=(16.0,), samples=4.0,
                             subdivisions=np.int64(4), workers=1.0)
    assert (whole.dims, whole.samples, whole.subdivisions, whole.workers) == ((16,), 4, 4, 1)
    assert all(type(v) is int for v in (*whole.dims, whole.samples, whole.subdivisions,
                                        whole.workers))
    # the CLI dispatches through the registry the config validates against
    assert cli._RUNNERS is experiments._RUNNERS


def test_config_n_matrices_defaults_to_coefficient_count():
    cfg = ExperimentConfig(experiment="fraction", dims=(8,), coefficients=(1.0, -1.0, 2.0))
    assert cfg.n_matrices == 3


def test_runner_preconditions(monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("sampled before the precondition check")

    for sampler in ("haar_unitary", "haar_special_unitary", "haar_verblunsky"):
        monkeypatch.setattr(experiments, sampler, no_draws)
    with pytest.raises(InvalidConfigError):
        run_clt_check(ExperimentConfig(experiment="clt", dims=(32,), samples=100, seed=1))
    with pytest.raises(InvalidConfigError):
        # the root oracle that counts the zeros stops at N = 512
        run_fraction_on_circle(ExperimentConfig(experiment="fraction", dims=(8, 513), seed=1))
    with pytest.raises(InvalidConfigError):
        # oscillation window must fit on the circle: mu = 8 pi <= 2 pi N
        run_oscillation_check(
            ExperimentConfig(experiment="oscillation", dims=(3,), samples=100, seed=1)
        )
    # one angle has no gap and no sqrt(log N) scale; the carrier subdivision
    # needs N >= 4 and 2 <= K <= N/2
    for argv, message in [
        (["gaps", "--dims", "1"], "gaps runs need N >= 2"),
        (["tails", "--dims", "8,1"], "tails runs scale by sqrt(log N) and need N >= 2"),
        (["carrier", "--dims", "3"], "subdivision requires integer N >= 4"),
        (["carrier", "--dims", "64", "--subdivisions", "40"], "K must satisfy 2 <= K <= N/2"),
    ]:
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            cli._RUNNERS[argv[0]](cli.parse_cli([*argv, "--samples", "10"]))
        assert cli_main([*argv, "--samples", "10"]) == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_single_dim_runners_reject_several_dims(monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("sampled before the dimension check")

    monkeypatch.setattr(experiments, "haar_unitary", no_draws)
    monkeypatch.setattr(experiments, "haar_special_unitary", no_draws)
    runners = {
        "traces": run_trace_covariance,
        "gaps": run_gap_check,
        "carrier": run_carrier_diagnostics,
    }
    for name, runner in runners.items():
        with pytest.raises(InvalidConfigError, match=name):
            runner(ExperimentConfig(experiment=name, dims=(8, 16), samples=10, seed=1))
        assert cli_main([name, "--dims", "8,16", "--samples", "10"]) == 1
        assert f"error: {name} runs take one N" in capsys.readouterr().err


def test_fraction_counts_each_block_once_without_the_oracle(monkeypatch):
    # one stacked exact count per block, on the non-degenerate rows only,
    # and no roots: every third row is marked degenerate as below
    real_changes, real_count = experiments.sign_changes, experiments.circle_zero_counts
    seen, stacks = [], []

    def every_third_degenerate(stack, **kwargs):
        counts = real_changes(stack, **kwargs)
        rows = len(seen) + np.arange(len(counts))
        seen.extend(rows)
        return np.where(rows % 3 == 2, -1, counts)

    def counted(stack, **kwargs):
        stacks.append(len(stack[1]))
        return real_count(stack, **kwargs)

    def no_oracle(ens):
        raise AssertionError("fraction called roots_oracle")

    monkeypatch.setattr(experiments, "sign_changes", every_third_degenerate)
    monkeypatch.setattr(experiments, "circle_zero_counts", counted)
    monkeypatch.setattr(experiments, "roots_oracle", no_oracle)
    monkeypatch.setattr(cuelab.ensembles, "roots_oracle", no_oracle)
    monkeypatch.setattr(cuelab, "roots_oracle", no_oracle)
    # N = 16 with two terms: 64 samples per block, so 70 samples make two blocks
    rec = run_fraction_on_circle(ExperimentConfig(
        experiment="fraction", dims=(16,), coefficients=(1.0, -1.0), samples=70, seed=3, workers=1))
    assert len(seen) == 70
    assert stacks == [43, 4]
    assert rec.parameters["degenerate_excluded"] == {"N=16": 23}
    assert rec.estimates[0].n == 47


def test_fraction_falls_back_to_the_oracle_on_uncertified_rows(monkeypatch):
    # with no certificate passing, the root oracle counts every kept row,
    # and the record is the one the exact counts give
    cfg = ExperimentConfig(experiment="fraction", dims=(16,), coefficients=(1.0, -1.0),
                           samples=20, seed=5, workers=1)
    exact = run_fraction_on_circle(cfg)
    real, calls = experiments.roots_oracle, []

    def oracle(ens):
        calls.append(ens)
        return real(ens)

    monkeypatch.setattr(cuelab.ensembles, "_TABLE_MARGIN", np.inf)
    monkeypatch.setattr(experiments, "roots_oracle", oracle)
    fallback = run_fraction_on_circle(cfg)
    assert len(calls) == exact.estimates[0].n == 20
    assert to_json_text(fallback) == to_json_text(exact)


# SHA-256 of the sorted-key JSON of (parameters, estimates) of zero count
# records at seed 2013: the first three taken before the count shared its
# log Z samples and the Schur-Cohn table replaced the matrix inertia, the
# last two before the sign scan's grid became fixed and the carrier took
# its points' logs in one kernel call per round.  Any drift in their bytes
# fails here by name.
RECORD_DIGESTS = [
    (run_fraction_on_circle, dict(experiment="fraction", dims=(16,), coefficients=(1.0, -1.0),
                                  samples=80),
     "428dc20b76db8886dc750b02915f4dc6f60193e13df2e2952af311b3c5b6a929"),
    (run_fraction_on_circle, dict(experiment="fraction", dims=(64,), coefficients=(1.0, 1.0),
                                  samples=12),
     "b0646e7222c7c795005b212103359e776456b2767482b7d9c6b58070f834bb0e"),
    (run_carrier_diagnostics, dict(experiment="carrier", dims=(64,), coefficients=(1.0, 2.0, 3.0),
                                   samples=4),
     "51240e60cec1f549affe735f69c4fea70c6e1c1dacc3b50505ad3fd3cf727fab"),
    # 64-row blocks, where some subintervals take a bound candidate past
    # the first four
    (run_carrier_diagnostics, dict(experiment="carrier", dims=(16,), coefficients=(1.0, 1.0),
                                   samples=70, delta=0.1),
     "d965377bf7060d439f3f81ed72920c69a0d31fce600aae192f158bfc49ccc367"),
    (run_fraction_on_circle, dict(experiment="fraction", dims=(8, 16, 32),
                                  coefficients=(1.0, 2.0, 3.0), samples=60),
     "5c241b7e80047870a071ce719a3a2c00dfa875ed0a2659ca5510d0afcdbc488a"),
]


@pytest.mark.parametrize("runner, settings, digest", RECORD_DIGESTS)
def test_zero_count_records_keep_their_digests(runner, settings, digest):
    record = json.loads(to_json_text(runner(ExperimentConfig(**settings, seed=2013, workers=1))))
    text = json.dumps({"parameters": record["parameters"], "estimates": record["estimates"]},
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_degenerate_draws_are_excluded_and_counted(monkeypatch):
    # the stacked count marks a degenerate row -1; the wrapper marks every third row
    real = experiments.sign_changes
    seen = []

    def every_third_degenerate(stack, **kwargs):
        counts = real(stack, **kwargs)
        rows = len(seen) + np.arange(len(counts))
        seen.extend(rows)
        return np.where(rows % 3 == 2, -1, counts)

    monkeypatch.setattr(experiments, "sign_changes", every_third_degenerate)
    cases = [
        (run_fraction_on_circle, dict(experiment="fraction", dims=(8,)), {"N=8": 3}),
        (run_carrier_diagnostics, dict(experiment="carrier", dims=(16,), delta=0.2), 3),
    ]
    for runner, base, excluded in cases:
        seen.clear()
        rec = runner(ExperimentConfig(**base, samples=9, seed=2, workers=1))
        assert len(seen) == 9
        assert rec.parameters["degenerate_excluded"] == excluded
        # every row of these two records is a Monte Carlo estimate
        assert rec.estimates and all(row.n == 9 - 3 for row in rec.estimates)

    def always_degenerate(stack, **kwargs):
        return np.full(len(stack[1]), -1)

    monkeypatch.setattr(experiments, "sign_changes", always_degenerate)
    for runner, base, _ in cases:
        with pytest.raises(NumericalFailureError):
            runner(ExperimentConfig(**base, samples=9, seed=2, workers=1))


def test_workers_env_variable(monkeypatch, capsys):
    cfg = ExperimentConfig(experiment="moments", dims=(8,))
    monkeypatch.setenv("CUELAB_WORKERS", "3")
    assert cfg.resolved_workers() == 3
    # no worker count below one runs, as workers=0 is refused
    for raw in ("0", "-2"):
        monkeypatch.setenv("CUELAB_WORKERS", raw)
        with pytest.raises(InvalidConfigError, match="CUELAB_WORKERS"):
            cfg.resolved_workers()
        assert cli_main(["gaps", "--dims", "8", "--samples", "10"]) == 1
        assert f"error: CUELAB_WORKERS must be >= 1, got {raw!r}" in capsys.readouterr().err
    monkeypatch.delenv("CUELAB_WORKERS")
    assert cfg.resolved_workers() == 1
    assert ExperimentConfig(experiment="moments", dims=(8,), workers=5).resolved_workers() == 5


# ---------------------------------------------------------------------------
# determinism across worker counts
# ---------------------------------------------------------------------------


def test_records_identical_for_any_worker_count():
    base = dict(experiment="gaps", dims=(8,), samples=24, seed=3)
    serial = run_gap_check(ExperimentConfig(**base, workers=1))
    pooled = run_gap_check(ExperimentConfig(**base, workers=2))
    assert to_json_text(serial) == to_json_text(pooled)


@pytest.mark.parametrize(
    "runner, base",
    [
        (run_tail_checks, dict(experiment="tails", dims=(8, 16), samples=40, seed=4)),
        (run_fraction_on_circle, dict(experiment="fraction", dims=(8, 12), samples=12, seed=5)),
        (run_clt_check, dict(experiment="clt", dims=(64, 128), samples=200, seed=6)),
        # two blocks: 64 rows and 6 at N = 16 with two terms
        (run_carrier_diagnostics, dict(experiment="carrier", dims=(16,), samples=70, seed=10)),
    ],
)
def test_multi_job_records_identical_for_any_worker_count(runner, base):
    serial = runner(ExperimentConfig(**base, workers=1))
    pooled = runner(ExperimentConfig(**base, workers=2))
    assert to_json_text(serial) == to_json_text(pooled)


@pytest.mark.parametrize(
    "runner, base",
    [
        # 600 is not a multiple of 256, and N = 1 has no recursion steps
        (run_moment_check, dict(experiment="moments", dims=(1, 2, 8), samples=600, seed=21)),
        (run_tail_checks, dict(experiment="tails", dims=(8, 16), samples=600, seed=22)),
        (run_oscillation_check, dict(experiment="oscillation", dims=(32,), samples=600, seed=23)),
        # 128 rows per block at N = 16384
        (run_clt_check, dict(experiment="clt", dims=(64, 16384), samples=300, seed=24)),
        # dense blocks: 256 rows at N = 8 and 32 rows at N = 32
        (run_trace_covariance, dict(experiment="traces", dims=(8,), samples=600, seed=25)),
        (run_gap_check, dict(experiment="gaps", dims=(32,), samples=100, seed=26)),
    ],
)
def test_block_runners_are_worker_invariant(runner, base):
    serial = runner(ExperimentConfig(**base, workers=1))
    pooled = runner(ExperimentConfig(**base, workers=3))
    assert to_json_text(serial) == to_json_text(pooled)


@pytest.mark.parametrize(
    "runner, fn, base",
    [
        (run_tail_checks, experiments._sample_tail_modulus,
         dict(experiment="tails", dims=(8,), samples=600, seed=31)),
        (run_oscillation_check, experiments._sample_oscillation,
         dict(experiment="oscillation", dims=(8,), samples=600, seed=32)),
    ],
)
def test_singular_row_redraws_its_theta(monkeypatch, runner, fn, base):
    cfg = ExperimentConfig(**base, workers=1)
    rows = experiments._block_rows(8)
    job = [(fn, 0, 8, rows)]
    (clean,) = experiments._collect(cfg, job)
    real = experiments._szego
    calls = []

    def second_call_hits_an_eigenvalue(alphas, z):
        # the second call is the first attempt of block 1; its row 5 reads
        # |w_(N-1)| = 0
        logs, last = real(alphas, z)
        calls.append(z)
        if len(calls) == 2:
            last[5] = 0.0
        return logs, last

    monkeypatch.setattr(experiments, "_szego", second_call_hits_an_eigenvalue)
    (patched,) = experiments._collect(cfg, job)
    # three blocks, and one redraw of one row
    assert [z.shape[0] for z in calls] == [rows, rows, 1, 600 - 2 * rows]
    # the redrawn theta is the next draw of block 1's stream
    gen = experiments._stream(cfg.seed, 0, 1).generator()
    experiments.haar_verblunsky(8, gen, rows)
    gen.uniform(0.0, 2 * np.pi, rows)
    assert np.angle(calls[2][0, 0]) % (2 * np.pi) == pytest.approx(gen.uniform(0.0, 2 * np.pi))
    changed = np.flatnonzero(np.any(patched != clean, axis=1))
    assert changed.tolist() == [rows + 5]
    calls.clear()
    record = runner(cfg)
    assert len(calls) == 4 and record.estimates


def test_failing_spectrum_row_names_its_block(monkeypatch):
    # row 3 of block 1 is scaled so that its eigenvalues have modulus 1.1
    real = experiments.haar_unitary
    blocks = []

    def second_block_has_a_bad_row(dim, gen, n=None):
        u, chain = real(dim, gen, n)
        blocks.append(u)
        if len(blocks) == 2:
            u[3] *= 1.1
        return u, chain

    monkeypatch.setattr(experiments, "haar_unitary", second_block_has_a_bad_row)
    cfg = ExperimentConfig(experiment="gaps", dims=(32,), samples=100, seed=7, workers=1)
    with pytest.raises(NumericalFailureError, match=r"residual max\|UV - V diag r\| is 3\.696e-01 in row 3") as info:
        run_gap_check(cfg)
    assert info.value.__notes__[-1] == "in sample block (seed=7, group=0, block=1) of 32 rows"
    assert len(blocks) == 2


def test_one_spawn_pool_per_runner_call(monkeypatch):
    started = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    cases = [
        (run_moment_check, dict(experiment="moments", dims=(2, 3), samples=40, seed=7)),
        # two jobs per N: four jobs, one pool
        (run_tail_checks, dict(experiment="tails", dims=(8, 16), samples=40, seed=8)),
    ]
    for runner, base in cases:
        for workers, pools in ((1, 0), (2, 1)):
            started.clear()
            runner(ExperimentConfig(**base, workers=workers))
            assert len(started) == pools, (base["experiment"], workers)


def _blas_threads_seen(gen, count, payload):
    return [[float(os.environ.get(var, "nan")) for var in payload]] * count


def test_spawn_workers_run_one_blas_thread(monkeypatch):
    # a worker sees 1 for each BLAS thread variable the caller left unset
    # and the caller's value for the others; afterwards the caller's
    # environment is as it was
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    cfg = ExperimentConfig(experiment="moments", dims=(2,), samples=4, seed=1, workers=2)
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    (seen,) = experiments._collect(cfg, [(_blas_threads_seen, 0, names, 1)])
    assert seen.tolist() == [[1.0, 3.0, 1.0]] * 4
    assert dict(os.environ) == before


def test_worker_error_propagates_unchanged(monkeypatch, capsys):
    # the carrier subdivision needs N >= 4; the sample function rejects N = 2.
    # The runner checks that before any draw, so the blocks are collected here.
    raised = []
    job = (experiments._sample_carrier, 0, (2, (1.0, 1.0), None, None), 1)
    for workers in (1, 2):
        cfg = ExperimentConfig(experiment="carrier", dims=(2,), samples=40, seed=1, workers=workers)
        with pytest.raises(CuelabError) as info:
            experiments._collect(cfg, [job])
        raised.append(info.type)
        # the failing sample is named by its stream: replayable in isolation
        assert re.fullmatch(
            r"in sample block \(seed=1, group=0, block=\d+\) of 1 rows", info.value.__notes__[-1]
        )
    assert raised == [InvalidConfigError, InvalidConfigError]
    monkeypatch.setenv("CUELAB_WORKERS", "2")
    assert cli_main(["carrier", "--dims", "2", "--samples", "40"]) == 1
    assert "error: subdivision requires integer N >= 4" in capsys.readouterr().err


def test_import_loads_no_scipy_until_needed():
    script = textwrap.dedent(
        """
        import sys
        import cuelab, cuelab.cli
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert loaded == [], loaded
        assert cuelab.cli.main(["selftest"]) == 0
        assert cuelab.cli.main(["clt", "--dims", "64", "--samples", "1500", "--seed", "52009"]) == 0
        assert "scipy.stats" in sys.modules
        """
    )
    src = str(Path(cuelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, CUELAB_WORKERS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# seeded smoke runs; every internal check must pass
# ---------------------------------------------------------------------------


def test_moment_runner_agrees_with_closed_form():
    cfg = ExperimentConfig(experiment="moments", dims=(8,), samples=3000, seed=52001)
    rec = run_moment_check(cfg)
    assert failed_checks(rec) == []
    labels = [row.label for row in rec.estimates]
    assert any("empirical" in lab for lab in labels)
    assert any("formula" in lab for lab in labels)


def test_moment_runner_flags_impossible_tolerance(monkeypatch):
    monkeypatch.setattr(experiments, "_Z_THRESHOLD", 1e-9)
    cfg = ExperimentConfig(experiment="moments", dims=(6,), samples=500, seed=1)
    rec = run_moment_check(cfg)
    assert len(failed_checks(rec)) > 0
    assert not all(passed for _, passed, _ in rec.checks())


def test_trace_runner_both_samplers_and_ks_gate():
    cfg = ExperimentConfig(experiment="traces", dims=(6,), samples=3000, seed=52002)
    rec = run_trace_covariance(cfg)
    assert failed_checks(rec) == []
    # the Kolmogorov-Smirnov comparison between the two samplers is recorded
    names = [c[0] for c in rec.checks()]
    assert any("KS" in name for name in names)
    # |tr U^p|^2 is real: its imaginary row is exactly zero, not rounding noise
    diagonal = [f"p={p},q={p} " for p in (1, 3, 8, 12)]
    for row in rec.estimates:
        if row.label.startswith(tuple(diagonal)) and row.label.endswith(" im"):
            assert (row.mean, row.stderr) == (0.0, 0.0), row.label


def test_trace_runner_rejects_excessive_power():
    with pytest.raises(InvalidConfigError):
        run_trace_covariance(
            ExperimentConfig(experiment="traces", dims=(2,), samples=100, seed=1)
        )


def test_clt_runner_small_dimension():
    cfg = ExperimentConfig(experiment="clt", dims=(64,), samples=1500, seed=52009)
    rec = run_clt_check(cfg)
    assert failed_checks(rec) == []


def test_clt_runner_operational_example():
    # N = 512 with 10^4 samples: the distance to Gaussian must be inside
    # the fixed 0.08 gate and below the small-N distance
    cfg = ExperimentConfig(experiment="clt", dims=(64, 512), samples=10**4, seed=777)
    rec = run_clt_check(cfg)
    assert failed_checks(rec) == []
    by_label = {row.label: row.mean for row in rec.estimates}
    ks_small = by_label["N=64 ks-distance"]
    ks_large = by_label["N=512 ks-distance"]
    assert ks_large <= 0.08
    assert ks_large <= ks_small + 0.02


def test_clt_cap_is_checked_before_sampling(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled before the dimension check")

    monkeypatch.setattr(experiments, "haar_verblunsky", no_draws)
    cfg = ExperimentConfig(experiment="clt", dims=(64, (1 << 16) + 1), samples=100, seed=1)
    with pytest.raises(InvalidConfigError):
        run_clt_check(cfg)


def test_clt_runs_past_the_old_dense_cap(tmp_path):
    out = tmp_path / "clt.json"
    argv = ["clt", "--dims", "64,4096", "--samples", "200", "--format", "json"]
    assert cli_main(argv + ["--out", str(out)]) in (0, 1)
    ks = {row.label: row.mean for row in read_record(str(out)).estimates}
    for dim in (64, 4096):
        assert np.isfinite(ks[f"N={dim} ks-distance"])
        assert 0.0 < ks[f"N={dim} ks-distance"] < 1.0


def test_tail_runner_checks_pass():
    cfg = ExperimentConfig(experiment="tails", dims=(64,), samples=400, seed=52003)
    rec = run_tail_checks(cfg)
    assert failed_checks(rec) == []


def test_oscillation_runner_checks_pass():
    cfg = ExperimentConfig(experiment="oscillation", dims=(64,), samples=400, seed=52004)
    rec = run_oscillation_check(cfg)
    assert failed_checks(rec) == []
    labels = [row.label for row in rec.estimates]
    assert any("asymptote" in lab for lab in labels)


def test_gap_runner_checks_pass():
    cfg = ExperimentConfig(experiment="gaps", dims=(16,), samples=500, seed=52005)
    rec = run_gap_check(cfg)
    assert failed_checks(rec) == []


def test_carrier_runner_checks_pass():
    cfg = ExperimentConfig(
        experiment="carrier",
        dims=(32,),
        samples=8,
        seed=52006,
        delta=0.2,
        coefficients=(1.0, 1.0),
    )
    rec = run_carrier_diagnostics(cfg)
    assert failed_checks(rec) == []
    assert rec.parameters["degenerate_excluded"] == 0


def test_carrier_runner_single_matrix_is_stable_everywhere():
    cfg = ExperimentConfig(
        experiment="carrier", dims=(16,), samples=4, seed=1, delta=0.2, coefficients=(1.0,)
    )
    rec = run_carrier_diagnostics(cfg)
    names = [c[0] for c in rec.checks()]
    assert any("single wave" in name for name in names)
    assert failed_checks(rec) == []


def carrier_row_reference(angles, config, threshold, measured):
    # (stability, bound, holds) of one sample by the per-subinterval loop
    # that the block reduction replaced
    theta0 = base_angles(angles[None], config)[0]
    lefts = theta0 + config.Delta * np.arange(config.K)
    offsets = np.linspace(0.0, np.sqrt(config.delta) * config.Delta, 16, endpoint=False)
    steps = (np.arange(8) + 0.5) * (config.Delta / 8.0)
    points = np.mod(lefts[:, None] + np.concatenate([steps, offsets]), 2 * np.pi)
    logs = normalized_logs(angles, points)
    usable = ~exceptional_mask(logs, config.delta)
    carriers = carrier_wave_index(logs)
    stable = sum(len(set(carriers[k, :8][usable[k, :8]])) <= 1 for k in range(config.K))
    bound = 0
    for k in np.nonzero(np.any(usable[:, 8:], axis=1))[0]:
        first = int(np.argmax(usable[k, 8:]))
        carrier = angles[carriers[k, 8 + first] - 1]
        relative = np.sort(np.mod(carrier - points[k, 8 + first], 2 * np.pi))
        inside = relative[relative < config.Delta - offsets[first]]
        psi = int(np.count_nonzero(np.diff(inside) <= threshold)) if inside.size > 1 else 0
        bound += max(0, inside.size - 2 - 2 * psi)
    return stable / config.K, bound, bound <= measured


@pytest.mark.parametrize(
    "dim, k_div, delta, coeffs",
    [
        (32, 4, 0.2, (1.0,)),
        (64, 8, 0.1, (1.0, 1.0)),
        (64, 16, 0.2, (2.0, -1.0)),
        (128, 16, 0.1, (1.0, 2.0, 3.0)),
    ],
)
def test_carrier_block_bound_equals_the_per_subinterval_loop(monkeypatch, dim, k_div, delta,
                                                             coeffs):
    # At every default setting the summed bound is 0, so no record can see
    # a wrong one; a narrow-gap cut of half the mean spacing makes it positive.
    threshold = 0.5 * 2 * np.pi / dim
    monkeypatch.setattr(experiments, "narrow_gap_threshold", lambda config: threshold)
    count, seed = 8, 52010
    rows = experiments._sample_carrier(
        experiments._stream(seed, 0, 0).generator(), count, (dim, coeffs, k_div, delta))
    angles = experiments._su_spectra(
        experiments._stream(seed, 0, 0).generator(), count, dim, len(coeffs))
    config = subdivision(dim, k_div, delta)
    reference = [carrier_row_reference(a, config, threshold, m) for a, m in zip(angles, rows[:, 5])]
    np.testing.assert_array_equal(rows[:, [3, 4, 6]], reference)
    assert np.all(rows[:, 4] > 0)
    # the bound is a lower bound of the exact circle-zero count
    assert np.all(rows[:, 4] <= circle_zero_counts((np.array(coeffs), angles)))


def test_carrier_bound_leaves_out_an_angle_on_the_arc_end(monkeypatch):
    # The arc from a base point is half-open.  One eigenangle is moved onto
    # the end of subinterval 1's arc, exactly in floating point; at the
    # default delta the base angle is 0, so the move cannot shift the arcs.
    dim, seed = 32, 52011
    threshold = 0.5 * 2 * np.pi / dim
    monkeypatch.setattr(experiments, "narrow_gap_threshold", lambda config: threshold)
    config = subdivision(dim, 4)
    angles = experiments._su_spectra(experiments._stream(seed, 0, 0).generator(), 1, dim, 1)
    offsets = np.linspace(0.0, np.sqrt(config.delta) * config.Delta, 16, endpoint=False)
    candidates = config.Delta + offsets
    first = int(np.argmax(~exceptional_mask(normalized_logs(angles[0], candidates), config.delta)))
    base, arc = candidates[first], config.Delta - offsets[first]
    end = base + arc
    for _ in range(64):  # a few ulps from base + arc
        miss = arc - np.mod(end - base, 2 * np.pi)
        if miss == 0.0:
            break
        end = np.nextafter(end, end + miss)
    assert np.mod(end - base, 2 * np.pi) == arc
    # the angle farthest from the end moves back by as much: det 1 stays
    row = angles[0, 0]
    near = np.argmin(np.abs(row - end))
    far = np.argmax(np.abs(np.mod(row - end + np.pi, 2 * np.pi) - np.pi))
    row[far] = np.mod(row[far] - (end - row[near]), 2 * np.pi)
    row[near] = end
    row.sort()
    logs = normalized_logs(angles[0], candidates)
    assert int(np.argmax(~exceptional_mask(logs, config.delta))) == first
    monkeypatch.setattr(experiments, "_su_spectra", lambda gen, count, n, terms: angles)
    (got,) = experiments._sample_carrier(None, 1, (dim, (1.0,), 4, None))
    assert [got[3], got[4], got[6]] == list(carrier_row_reference(angles[0], config, threshold, got[5]))


def test_carrier_reduces_each_block_once_without_an_ensemble(monkeypatch):
    # one subdivision and one stacked sign-change count per block, besides
    # the runner's own subdivision that checks the sizes before any draw,
    # and no CombinationEnsemble anywhere
    real_subdivision, real_changes = experiments.subdivision, experiments.sign_changes
    subdivisions, stacks = [], []

    def counted_subdivision(*args):
        subdivisions.append(args)
        return real_subdivision(*args)

    def counted_changes(stack, **kwargs):
        stacks.append(len(stack[1]))
        return real_changes(stack, **kwargs)

    def no_ensemble(self):
        raise AssertionError("carrier built a CombinationEnsemble")

    monkeypatch.setattr(experiments, "subdivision", counted_subdivision)
    monkeypatch.setattr(experiments, "sign_changes", counted_changes)
    monkeypatch.setattr(cuelab.ensembles.CombinationEnsemble, "__post_init__", no_ensemble)
    # N = 16 with two terms: 64 samples per block, so 70 samples make two blocks
    rec = run_carrier_diagnostics(ExperimentConfig(
        experiment="carrier", dims=(16,), samples=70, seed=3, delta=0.1, workers=1))
    assert subdivisions == [(16, None, 0.1)] * 3
    assert stacks == [64, 6]
    assert rec.estimates[0].n == 70


def test_fraction_runner_audits_and_baseline():
    cfg = ExperimentConfig(
        experiment="fraction", dims=(8,), samples=25, seed=52007, coefficients=(1.0, 1.0)
    )
    rec = run_fraction_on_circle(cfg)
    assert failed_checks(rec) == []
    row = rec.estimates[0]
    assert row.label == "N=8"
    assert 0.5 < row.mean <= 1.0


def su2_fraction_on_circle(b1, b2):
    """Exact mean circle fraction of b1 Z_1 + b2 Z_2 for Haar SU(2) terms.

    With eigenangles +-phi_j, Z_j(z) = 1 - 2 cos(phi_j) z + z^2, so the
    combination is B (1 + z^2) - 2 C z with B = b1 + b2 and
    C = b1 cos phi_1 + b2 cos phi_2: both zeros lie on the circle iff
    |C| <= |B|, and none does otherwise.  phi_j has the Weyl density
    (2/pi) sin^2 phi on [0, pi], whose distribution function is
    (phi - sin phi cos phi)/pi; the inner integral over phi_2 is that
    function at the two ends of the admissible arc, the outer one is a
    1-D quadrature.
    """
    from scipy.integrate import quad

    bound = abs(b1 + b2)

    def weyl_cdf(phi):
        return (phi - np.sin(phi) * np.cos(phi)) / np.pi

    def inner(phi1):
        ends = np.sort([(-bound - b1 * np.cos(phi1)) / b2, (bound - b1 * np.cos(phi1)) / b2])
        lo, hi = np.arccos(np.clip(ends, -1.0, 1.0))
        return weyl_cdf(lo) - weyl_cdf(hi)

    return quad(lambda phi: 2.0 / np.pi * np.sin(phi) ** 2 * inner(phi), 0.0, np.pi, limit=200)[0]


@pytest.mark.parametrize(
    "coeffs, exact", [((1.0, -2.0), 0.584376), ((1.0, -3.0), 0.764168), ((2.0, -3.0), 0.389084)]
)
def test_fraction_at_n2_matches_exact_su2_reference(coeffs, exact):
    reference = su2_fraction_on_circle(*coeffs)
    assert reference == pytest.approx(exact, abs=1e-6)
    cfg = ExperimentConfig(
        experiment="fraction", dims=(2,), coefficients=coeffs, samples=2000, seed=52011
    )
    # only the N=2 row is read: the 1/sqrt(3)+0.05 baseline check does not
    # hold at (2, -3)
    (row,) = [r for r in run_fraction_on_circle(cfg).estimates if r.label == "N=2"]
    z = (row.mean - reference) / row.stderr
    assert abs(z) <= 4.0, f"N=2 fraction {row.mean:.4f} vs exact {reference:.6f}: z = {z:.2f}"


def test_selftest_runner_all_green():
    cfg = ExperimentConfig(experiment="selftest", dims=(8,), samples=30, seed=52008)
    rec = run_selftest(cfg)
    assert len(rec.checks()) >= 5
    assert failed_checks(rec) == []


@pytest.mark.parametrize("mutant", ["im shifted by 2 pi", "one factor dropped"])
def test_selftest_log_z_row_compares_two_routes(monkeypatch, mutant):
    # the row passes on the real chain route and fails once that route is
    # wrong, so it compares two computations rather than restating one
    cfg = ExperimentConfig(experiment="selftest", seed=52008)
    name = "log Z(0) two routes"
    assert {n: ok for n, ok, _ in run_selftest(cfg).checks()}[name]
    real = experiments.log_z_from_chain

    def shifted(chain):
        out = real(chain)
        return LogZ(out.re, out.im + 2.0 * np.pi)

    def drops_a_factor(chain):
        logs = np.log(1.0 - chain.last_components()[..., 1:])
        return LogZ(np.sum(logs.real, axis=-1), np.sum(logs.imag, axis=-1))

    wrong = {"im shifted by 2 pi": shifted, "one factor dropped": drops_a_factor}[mutant]
    monkeypatch.setattr(experiments, "log_z_from_chain", wrong)
    assert not {n: ok for n, ok, _ in run_selftest(cfg).checks()}[name]


def test_metadata_omits_timing_by_default():
    cfg = ExperimentConfig(experiment="moments", dims=(4,), samples=100, seed=2)
    rec = run_moment_check(cfg)
    assert rec.metadata["timestamp"] is None
    assert rec.metadata["runtime_seconds"] is None
    timed = run_moment_check(
        ExperimentConfig(experiment="moments", dims=(4,), samples=100, seed=2, include_timing=True)
    )
    assert timed.metadata["runtime_seconds"] is not None
