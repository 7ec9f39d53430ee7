"""Tests of the benchmark's reference routines and of its process hygiene.

    python3 -m pytest cuebench/check_cuebench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_keating_snaith_second_moment_is_n_plus_one(n):
    assert math.isclose(reference.keating_snaith(2.0, n), n + 1, rel_tol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_keating_snaith_fourth_moment_closed_form(n):
    exact = (n + 1) * (n + 2) ** 2 * (n + 3) / 12
    assert math.isclose(reference.keating_snaith(4.0, n), exact, rel_tol=1e-11)


@pytest.mark.parametrize("n", [2, 16, 64, 256])
def test_su_spectrum_has_unit_determinant(n):
    angles = reference.su_spectrum(n, np.random.default_rng(n))
    assert angles.shape == (n,)
    assert abs(np.sum(angles)) < 1e-9


@pytest.mark.parametrize("n", [2, 16, 64, 128])
def test_single_term_combination_has_every_zero_on_the_circle(n):
    angles = reference.su_spectrum(n, np.random.default_rng(n))
    assert reference.circle_zero_count([1.0], [angles]) == (n, n)


def test_planted_roots_are_counted():
    on_circle = np.exp(1j * np.array([0.3, 1.1, 2.0, 3.5, 5.9]))
    off_pair = np.array([0.7, 1 / 0.7]) * np.exp(0.4j)
    roots = np.concatenate([on_circle, off_pair, [0.0]])
    m = 32
    z = np.exp(2j * math.pi * np.arange(m) / m)
    values = np.polyval(np.poly(roots), z)
    # The root at 0 is trimmed with the vanishing constant coefficient.
    assert reference.zero_counts(reference.coefficients_from_values(values)) == (5, 7)


def test_cancelling_pair_drops_both_end_coefficients():
    gen = np.random.default_rng(3)
    spectra = [reference.su_spectrum(16, gen) for _ in range(2)]
    count, degree = reference.circle_zero_count([1.0, -1.0], spectra)
    assert degree == 14
    assert count % 2 == 0 and count <= degree


@pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0, 6.0])
def test_increment_series_at_n_one(alpha):
    # min(k, 1) = 1: the series is pi alpha/2 - alpha^2/4 on [0, 2 pi].
    value, tail = reference.increment_second_moment(1, alpha)
    assert abs(value - (math.pi * alpha / 2 - alpha * alpha / 4)) <= tail


@pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
def test_pair_count_at_n_two(eps):
    # N = 2: the integrand is 4 sin^2(u/2), so the count is (a - sin a)/pi, a = eps/2.
    a = eps / 2
    assert math.isclose(reference.pair_count(2, eps), (a - math.sin(a)) / math.pi, rel_tol=1e-12)


def test_pair_count_small_eps_is_cubic():
    n, eps = 32, 1e-3
    cubic = (n * n - 1) * eps**3 / (72 * math.pi * n)
    assert math.isclose(reference.pair_count(n, eps), cubic, rel_tol=1e-5)


def test_tracer_rebinds_every_name_and_restores_them():
    sys.path.insert(0, str(HERE.parent / "src"))
    import cuelab
    import cuelab.cli
    import tracer as tracing

    originals = (cuelab.ensembles.sign_changes, cuelab.cli._RUNNERS["gaps"])
    trace = tracing.Tracer()
    trace.install(cuelab)
    try:
        assert cuelab.experiments.sign_changes is cuelab.ensembles.sign_changes
        assert cuelab.ensembles.sign_changes is not originals[0]
        assert cuelab.cli._RUNNERS["gaps"] is cuelab.experiments.run_gap_check
        cuelab.specfun.expected_narrow_pairs(8, 0.5)
        cuelab.RngStream(1).generator()
    finally:
        trace.uninstall()
    assert cuelab.experiments.sign_changes is originals[0]
    assert cuelab.cli._RUNNERS["gaps"] is originals[1]
    # Calls inside a module go through the rebound name too, so the
    # quadrature's integrand calls nest under the outer span.
    spans = {s[0]: s for s in trace.spans}
    names = [s[2] for s in trace.spans]
    assert names[-2:] == ["specfun.expected_narrow_pairs", "rng.generator"]
    inner = [s for s in trace.spans if s[2] == "specfun.two_point_correlation"]
    assert inner and all(spans[s[1]][2] == "specfun.expected_narrow_pairs" for s in inner)


def _group_members(pgid: int) -> list:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rfind(b")") + 2 :].split()[2]) == pgid:
            members.append(int(entry))
    return members


def test_pooled_pass_leaves_no_process_running():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "pooled",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=os.setpgrp,
    )
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], err
    assert result["failed"] == 0
    assert _group_members(proc.pid) == []
