"""Acceptance gates for the laboratory, at their frozen sizes and tolerances.

Run with ``pytest -v tests/test_acceptance.py``: each gate is one test, so
the verbose listing gives one pass/fail line per gate.

Two gates (test_09a_fraction_trend_nondecreasing and
test_09c_fraction_n64_exceeds_n8) assert that the mean fraction of
combination zeros on the unit circle grows with the matrix dimension.
The growth is an asymptotic prediction whose rate is far too slow to
surface at these dimensions; the measured means at N = 8..64 in fact
decrease slightly. The gates are implemented faithfully and left
failing rather than loosened: a red line here records the honest gap
between the desk-scale measurement and the limit statement.
"""

import numpy as np
import pytest

from cuelab import RngStream, haar_special_unitary, haar_unitary
from cuelab.cli import main as cli_main
from cuelab.ensembles import (
    CombinationEnsemble,
    circle_root_count,
    roots_oracle,
    sign_changes,
)
from cuelab.errors import SingularPointError
from cuelab.experiments import (
    ExperimentConfig,
    run_carrier_diagnostics,
    run_fraction_on_circle,
    run_gap_check,
    run_moment_check,
    run_oscillation_check,
    run_trace_covariance,
)
from cuelab.spectra import arc_count_value, count_in_arc, eigenangles, log_z_from_chain
from cuelab.sampling import coupled_chain_pair
from cuelab import specfun as sf

Z_GATE = 4.0


def assert_all_checks(record):
    failed = [(name, detail) for name, ok, detail in record.checks() if not ok]
    assert failed == [], f"internal checks failed: {failed}"


def rows(record):
    return {row.label: row for row in record.estimates}


# ---------------------------------------------------------------------------
# 1. exact arc-counting identity
# ---------------------------------------------------------------------------


def test_01_arc_counting_identity_exact_on_random_instances():
    g = RngStream(616101).generator()
    worst = 0.0
    done = 0
    while done < 1000:
        n_dim = int(g.integers(2, 33))
        u, _ = haar_unitary(n_dim, g)
        spec = eigenangles(u)
        s, t = np.sort(g.uniform(0.0, 2 * np.pi, size=2))
        if t - s < 1e-9:
            continue
        try:
            value = arc_count_value(spec, float(s), float(t))
            count = count_in_arc(spec, float(s), float(t))
        except SingularPointError:
            continue  # measure-zero endpoint collision; redraw
        worst = max(worst, abs(value - count))
        done += 1
    assert worst < 1e-6, f"formula vs direct count deviates by {worst:.3e}"
    print(f"arc-counting identity: PASS (worst deviation {worst:.3e} over 1000 instances)")


# ---------------------------------------------------------------------------
# 2. sampler correctness: trace moments + two-sample KS between samplers
# ---------------------------------------------------------------------------


def test_02_sampler_trace_moments_and_ks():
    cfg = ExperimentConfig(
        experiment="traces", dims=(8,), samples=10**5, seed=121212
    )
    record = run_trace_covariance(cfg)
    assert_all_checks(record)
    table = rows(record)
    for sampler in ("reflection", "qr"):
        for p in (1, 3, 8, 12):
            row = table[f"p={p},q={p} {sampler} re"]
            target = float(min(p, 8))
            z = abs(row.mean - target) / row.stderr
            assert z <= Z_GATE, f"E|tr U^{p}|^2 ({sampler}): z = {z:.2f}"
    print("sampler trace moments + KS: PASS")


# ---------------------------------------------------------------------------
# 3. second moment of |Z(0)| against the closed form
# ---------------------------------------------------------------------------


def test_03_characteristic_value_second_moment():
    cfg = ExperimentConfig(experiment="moments", dims=(8, 16), samples=10**5, seed=101010)
    record = run_moment_check(cfg)
    assert_all_checks(record)
    table = rows(record)
    for n_dim in (8, 16):
        emp = table[f"s=2,t=0,N={n_dim} empirical"]
        target = sf.joint_mgf_rhs(2.0, 0.0, n_dim)
        assert target == pytest.approx(n_dim + 1, rel=1e-12)
        z = abs(emp.mean - target) / emp.stderr
        assert z <= Z_GATE, f"E|Z(0)|^2 at N={n_dim}: z = {z:.2f}"
    print("characteristic second moment: PASS (targets 9 and 17)")


# ---------------------------------------------------------------------------
# 4. coupling bound on the imaginary parts
# ---------------------------------------------------------------------------


def test_04_coupling_bound_zero_violations():
    violations = 0
    for n_dim in (2, 8, 32):
        g = RngStream(737373).child(n_dim).generator()
        for _ in range(1000):
            theta = float(g.uniform(0.0, 2 * np.pi / n_dim))
            ca, cb = coupled_chain_pair(n_dim, theta, g)
            gap = abs(log_z_from_chain(ca).im - log_z_from_chain(cb).im)
            violations += gap > np.pi
    assert violations == 0, f"{violations} coupled pairs exceeded pi"
    print("coupling bound: PASS (0 violations over 3000 pairs)")


# ---------------------------------------------------------------------------
# 5. oscillation variance: Monte Carlo + exact series vs asymptote
# ---------------------------------------------------------------------------


def test_05_oscillation_variance():
    cfg = ExperimentConfig(experiment="oscillation", dims=(64,), samples=10**5, seed=161616)
    record = run_oscillation_check(cfg)
    assert_all_checks(record)
    table = rows(record)
    exact = sf.oscillation_variance_exact(64, 8 * np.pi)
    for part in ("re", "im"):
        row = table[f"{part} increment second moment N=64 mu=25.1327"]
        z = abs(row.mean - exact) / row.stderr
        assert z <= Z_GATE, f"{part} increment: z = {z:.2f}"
    series = sf.oscillation_variance_exact(10**4, 20 * np.pi)
    asymptote = 1.0 + sf.EULER_GAMMA + sf.f_mu(20 * np.pi)
    assert abs(series - asymptote) < 0.05
    print(f"oscillation variance: PASS (exact {exact:.6f}, series gap {abs(series - asymptote):.2e})")


# ---------------------------------------------------------------------------
# 6. Q-factor regime bounds and the beta characteristic function
# ---------------------------------------------------------------------------


def test_06_q_factor_regimes_and_beta_charfn():
    rng = np.random.default_rng(19937)
    fails = 0
    for _ in range(10**4):
        j = int(rng.integers(1, 33))
        r2 = float(rng.uniform(0.0, 16.0 * j * j))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        s, t = np.sqrt(r2) * np.cos(phi), np.sqrt(r2) * np.sin(phi)
        q = abs(sf.q_factor(j, s, t))
        if r2 >= 8.0 * j * j:
            fails += q < max(1.0, np.sqrt(r2) / (8.0 * j)) - 1e-9
        elif r2 >= j * j:
            fails += q > 1.0 + 1e-9
        else:
            fails += q > np.exp(-r2 / (10.0 * j * j)) + 1e-9
    assert fails == 0, f"{fails} regime-bound violations in 10^4 triples"

    for j, s, t in [(2, 1.0, -0.5), (5, 2.0, 0.0), (9, -3.0, 4.0)]:
        gap = abs(sf.beta_charfn(j, s, t) - sf.q_factor_product(j, s, t, 40000))
        assert gap < 1e-4, f"beta vs Q-product at {(j, s, t)}: {gap:.2e}"

    # 10^6-sample Monte Carlo at (j, s, t) = (5, 2, 0): the j-th factor of
    # Z(0) has law 1 - sqrt(B) e^{i phi} with B ~ Beta(1, j-1), phi uniform
    gen = RngStream(606060).generator()
    n = 10**6
    b = gen.beta(1.0, 4.0, size=n)
    phi = gen.uniform(0.0, 2 * np.pi, size=n)
    w = np.log(1.0 - np.sqrt(b) * np.exp(1j * phi))
    samples = np.cos(2.0 * w.imag)
    target = sf.beta_charfn(5, 2.0, 0.0).real
    z = abs(samples.mean() - target) / (samples.std(ddof=1) / np.sqrt(n))
    assert z <= Z_GATE, f"beta charfn MC: z = {z:.2f}"
    print(f"Q-factor regimes + beta charfn: PASS (MC z = {z:.2f})")


# ---------------------------------------------------------------------------
# 7. narrow-gap statistics at N = 32
# ---------------------------------------------------------------------------


def test_07_narrow_gap_statistics():
    cfg = ExperimentConfig(experiment="gaps", dims=(32,), samples=10**4, seed=333005)
    record = run_gap_check(cfg)
    assert_all_checks(record)
    table = rows(record)
    for eps in (0.5, 1.0):
        label = f"eps={eps:g}"
        emp = table[f"{label} empirical"]
        quad = table[f"{label} quadrature"].mean
        bound = 32 * eps**3 / (18 * np.pi)
        assert emp.mean <= bound + 4 * emp.stderr
        z = abs(emp.mean - quad) / emp.stderr
        assert z <= Z_GATE, f"gap count at {label}: z = {z:.2f}"
    ratio = table["eps=1 quadrature"].mean / table["eps=0.5 quadrature"].mean
    assert abs(ratio - 8.0) <= 0.8, f"cubic scaling ratio {ratio:.3f}"
    print(f"narrow-gap statistics: PASS (cubic ratio {ratio:.3f})")


# ---------------------------------------------------------------------------
# 8. zero-location pipeline: three counting routes, three term counts
# ---------------------------------------------------------------------------


def test_08_zero_pipeline_counting_routes():
    g = RngStream(515151).generator()
    total = 0
    equal = 0
    for n_terms in (1, 2, 3):
        for _ in range(100):
            n_dim = int(g.integers(2, 17))
            specs = [
                eigenangles(haar_special_unitary(n_dim, 0.0, g)[0]) for _ in range(n_terms)
            ]
            if n_terms == 1:
                coeffs = np.ones(1)
            else:
                coeffs = g.uniform(0.5, 2.0, size=n_terms) * g.choice(
                    [-1.0, 1.0], size=n_terms
                )
            ens = CombinationEnsemble(coeffs, specs)
            changes = sign_changes(ens)
            rootset = roots_oracle(ens)
            count = circle_root_count(rootset)
            assert changes <= count <= n_dim
            assert rootset.symmetry_defect() < 1e-6
            if n_terms == 1:
                assert changes == n_dim and count == n_dim
            total += 1
            equal += changes == count
    rate = equal / total
    assert rate >= 0.95, f"counting routes agree on only {rate:.1%}"
    print(f"zero pipeline: PASS (agreement rate {rate:.1%} over {total} ensembles)")


# ---------------------------------------------------------------------------
# 9. trend of the mean zero fraction across dimensions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fraction_record():
    cfg = ExperimentConfig(
        experiment="fraction",
        dims=(8, 16, 32, 64),
        samples=200,
        seed=424242,
        coefficients=(1.0, 1.0),
    )
    return run_fraction_on_circle(cfg)


def fraction_means(record):
    table = rows(record)
    out = []
    for n_dim in (8, 16, 32, 64):
        row = table[f"N={n_dim}"]
        out.append((n_dim, row.mean, row.stderr))
    return out


def test_09a_fraction_trend_nondecreasing(fraction_record):
    means = fraction_means(fraction_record)
    for (n0, m0, s0), (n1, m1, s1) in zip(means, means[1:]):
        allowance = 2.0 * float(np.hypot(s0, s1))
        assert m1 >= m0 - allowance, (
            f"mean fraction drops from {m0:.4f} (N={n0}) to {m1:.4f} (N={n1}), "
            f"beyond the 2-stderr allowance {allowance:.4f}"
        )
    print("fraction trend nondecreasing: PASS")


def test_09b_fraction_exceeds_self_inversive_baseline(fraction_record):
    means = fraction_means(fraction_record)
    n_dim, mean, _ = means[-1]
    baseline = 1.0 / np.sqrt(3.0) + 0.05
    assert n_dim == 64
    assert mean > baseline, f"N=64 mean {mean:.4f} vs baseline {baseline:.4f}"
    print(f"fraction baseline: PASS ({mean:.4f} > {baseline:.4f})")


def test_09c_fraction_n64_exceeds_n8(fraction_record):
    means = fraction_means(fraction_record)
    first = means[0][1]
    last = means[-1][1]
    assert last > first, f"N=64 mean {last:.4f} does not exceed N=8 mean {first:.4f}"
    print("fraction N=64 over N=8: PASS")


def test_09_per_dimension_audits_hold(fraction_record):
    # the counting audits inside the runner must pass even though the
    # trend gates above do not
    failed = [
        (name, detail)
        for name, ok, detail in fraction_record.checks()
        if not ok and ("audit" in name or "never exceed" in name)
    ]
    assert failed == []
    # hard agreement gates exist exactly at N <= 16
    gated = {name for name, _, _ in fraction_record.checks() if "audit" in name}
    assert gated == {"count audit agreement N=8", "count audit agreement N=16"}
    # the lower-bound property of sign counting is gated at every N
    bounded = {name for name, _, _ in fraction_record.checks() if "never exceed" in name}
    assert bounded == {f"sign changes never exceed root count N={n}" for n in (8, 16, 32, 64)}
    # larger dimensions report the root-oracle agreement rate instead
    rates = {
        row.label: row.mean
        for row in fraction_record.estimates
        if row.label.startswith("count audit rate")
    }
    assert set(rates) == {"count audit rate N=32", "count audit rate N=64"}
    for label, value in rates.items():
        assert value >= 0.95, f"{label} = {value}"
    print("fraction per-dimension audits: PASS")


# ---------------------------------------------------------------------------
# 10. carrier-wave lower bound and exceptional-set monotonicity
# ---------------------------------------------------------------------------


def test_10_carrier_wave_consistency():
    cfg = ExperimentConfig(
        experiment="carrier",
        dims=(64,),
        samples=50,
        seed=90210,
        delta=0.2,
        coefficients=(1.0, 1.0),
    )
    record = run_carrier_diagnostics(cfg)
    assert_all_checks(record)
    names = [c[0] for c in record.checks()]
    assert "lower bound holds in every sample" in names
    assert "exceptional set monotone pointwise" in names
    print("carrier-wave consistency: PASS (50 ensembles)")


# ---------------------------------------------------------------------------
# 11. bit-identical output across worker counts
# ---------------------------------------------------------------------------


def test_11_reproducibility_across_worker_counts(tmp_path, monkeypatch):
    cases = [
        (["gaps", "--dims", "8", "--samples", "600", "--seed", "3", "--format", "json"], "g"),
        (["moments", "--dims", "6", "--samples", "200", "--seed", "9", "--format", "csv"], "m"),
    ]
    for argv, tag in cases:
        blobs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("CUELAB_WORKERS", workers)
            target = tmp_path / f"{tag}-{workers}.out"
            code = cli_main(argv + ["--out", str(target)])
            assert code == 0
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1], f"{argv[0]} output differs across worker counts"
    print("reproducibility: PASS (bit-identical files, 1 vs 3 workers)")
