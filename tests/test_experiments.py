"""Monte Carlo experiment runners: estimates, configs, and check plumbing.

Each runner gets a seeded smoke run whose internal consistency checks
must all pass; the statistically heavy versions live in test_acceptance.
"""

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
from cuelab.cli import main as cli_main
from cuelab.errors import (
    CuelabError,
    DegenerateCombinationError,
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
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="oscillation", dims=(8,), mu=0.0)
    # the CLI dispatches through the registry the config validates against
    assert cli._RUNNERS is experiments._RUNNERS


def test_config_n_matrices_defaults_to_coefficient_count():
    cfg = ExperimentConfig(experiment="fraction", dims=(8,), coefficients=(1.0, -1.0, 2.0))
    assert cfg.n_matrices == 3


def test_runner_preconditions():
    with pytest.raises(InvalidConfigError):
        run_clt_check(ExperimentConfig(experiment="clt", dims=(32,), samples=100, seed=1))
    with pytest.raises(InvalidConfigError):
        # the root oracle that counts the zeros stops at N = 512
        run_fraction_on_circle(ExperimentConfig(experiment="fraction", dims=(8, 513), seed=1))
    with pytest.raises(InvalidConfigError):
        # oscillation window must fit on the circle: mu <= 2 pi N
        run_oscillation_check(
            ExperimentConfig(experiment="oscillation", dims=(8,), samples=100, seed=1, mu=100.0)
        )


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


def test_degenerate_draws_are_excluded_and_counted(monkeypatch):
    real = experiments.sign_changes
    calls = []

    def every_third_degenerate(ens, **kwargs):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise DegenerateCombinationError("identically vanishing combination")
        return real(ens, **kwargs)

    monkeypatch.setattr(experiments, "sign_changes", every_third_degenerate)
    cases = [
        (run_fraction_on_circle, dict(experiment="fraction", dims=(8,)), {"N=8": 3}),
        (run_carrier_diagnostics, dict(experiment="carrier", dims=(16,), delta=0.2), 3),
    ]
    for runner, base, excluded in cases:
        calls.clear()
        rec = runner(ExperimentConfig(**base, samples=9, seed=2, workers=1))
        assert rec.parameters["degenerate_excluded"] == excluded
        # every row of these two records is a Monte Carlo estimate
        assert rec.estimates and all(row.n == 9 - 3 for row in rec.estimates)

    def always_degenerate(ens, **kwargs):
        raise DegenerateCombinationError("identically vanishing combination")

    monkeypatch.setattr(experiments, "sign_changes", always_degenerate)
    for runner, base, _ in cases:
        with pytest.raises(NumericalFailureError):
            runner(ExperimentConfig(**base, samples=9, seed=2, workers=1))


def test_workers_env_variable(monkeypatch):
    cfg = ExperimentConfig(experiment="moments", dims=(8,))
    monkeypatch.setenv("CUELAB_WORKERS", "3")
    assert cfg.resolved_workers() == 3
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
    payload = 8 if base["experiment"] == "tails" else (8, cfg.mu)
    job = [(fn, 0, payload, rows)]
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
    with pytest.raises(NumericalFailureError, match=r"deviate from 1 by 1\.000e-01 in row 3") as info:
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


def test_worker_error_propagates_unchanged(monkeypatch, capsys):
    # the carrier subdivision needs N >= 4; the sample function rejects N = 2
    raised = []
    for workers in (1, 2):
        cfg = ExperimentConfig(experiment="carrier", dims=(2,), samples=40, seed=1, workers=workers)
        with pytest.raises(CuelabError) as info:
            run_carrier_diagnostics(cfg)
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
    assert not rec.all_checks_passed()


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


def test_metadata_omits_timing_by_default():
    cfg = ExperimentConfig(experiment="moments", dims=(4,), samples=100, seed=2)
    rec = run_moment_check(cfg)
    assert rec.metadata["timestamp"] is None
    assert rec.metadata["runtime_seconds"] is None
    timed = run_moment_check(
        ExperimentConfig(experiment="moments", dims=(4,), samples=100, seed=2, include_timing=True)
    )
    assert timed.metadata["runtime_seconds"] is not None
