"""Trigonometric combinations of characteristic polynomials and their zeros.

Two independent counting routes must agree: sign changes of the real
rotation on the circle, and companion-matrix roots of the polynomial whose
coefficients come from an FFT of the combination on the circle.
"""

import numpy as np
import pytest

import cuelab.ensembles
from cuelab import RngStream, haar_special_unitary
from cuelab.ensembles import (
    CombinationEnsemble,
    circle_root_count,
    real_rotation,
    roots_oracle,
    sign_changes,
)
from cuelab.errors import DegenerateCombinationError, InvalidArgumentError, InvalidEnsembleError
from cuelab.spectra import TWO_PI, EigenangleSpectrum, eigenangles, log_z, log_z_grid

SEED = 271828


def su_spectra(n_terms, n_dim, salt=0):
    g = RngStream(SEED, salt).generator()
    out = []
    for _ in range(n_terms):
        u, _ = haar_special_unitary(n_dim, 0.0, g)
        out.append(eigenangles(u))
    return out


def make_ens(coeffs, n_dim, salt=0):
    specs = su_spectra(len(coeffs), n_dim, salt)
    return CombinationEnsemble(np.asarray(coeffs, dtype=float), specs)


def test_single_term_combination_has_all_roots_on_circle():
    for n_dim in (2, 5, 9, 64, 256):
        ens = make_ens([1.0], n_dim, salt=n_dim)
        assert sign_changes(ens) == n_dim
        rs = roots_oracle(ens)
        assert circle_root_count(rs) == n_dim
        assert rs.effective_degree == n_dim
        assert np.max(np.abs(np.abs(rs.roots) - 1.0)) < 1e-10


def test_oracle_bounds_sign_changes_at_large_n():
    for salt in range(20, 30):
        ens = make_ens([1.0, 1.0], 64, salt=salt)
        assert sign_changes(ens) <= circle_root_count(roots_oracle(ens))
    spec = EigenangleSpectrum.from_angles(np.zeros(513))
    with pytest.raises(InvalidArgumentError):
        roots_oracle(CombinationEnsemble(np.array([1.0]), [spec]))


def test_combination_degree_generic_and_cancelling():
    # equal coefficients keep the z^N term: det-1 spectra contribute
    # (-1)^N * b_j each, so the leading coefficient is (-1)^N * sum(b)
    ens = make_ens([1.0, 1.0], 7, salt=3)
    assert roots_oracle(ens).effective_degree == 7
    # opposite coefficients cancel it and only it (generically)
    ens2 = make_ens([1.0, -1.0], 7, salt=4)
    assert roots_oracle(ens2).effective_degree == 6


def test_identical_spectra_with_opposite_signs_degenerate():
    specs = su_spectra(1, 6, salt=5) * 2
    ens = CombinationEnsemble(np.array([1.0, -1.0]), specs)
    with pytest.raises(DegenerateCombinationError):
        roots_oracle(ens)
    with pytest.raises(DegenerateCombinationError):
        sign_changes(ens)


def test_real_rotation_is_real_and_vanishes_at_circle_roots():
    ens = make_ens([1.0, 1.0], 6, salt=6)
    g = RngStream(SEED, 7).generator()
    for theta in g.uniform(0.0, 2 * np.pi, size=8):
        value = real_rotation(ens, float(theta))
        assert isinstance(value, float)
        direct = sum(
            b * np.prod(1.0 - np.exp(1j * (spec.angles - theta)))
            for b, spec in zip(ens.coefficients, ens.spectra)
        )
        assert abs(abs(value) - abs(direct)) < 1e-9
    rs = roots_oracle(ens)
    circle = rs.roots[np.abs(np.abs(rs.roots) - 1.0) < 1e-9]
    assert circle.size > 0
    for root in circle:
        theta = float(-np.angle(root)) % (2 * np.pi)
        scale = sum(
            abs(b) * np.exp(log_z(spec, theta).re)
            for b, spec in zip(ens.coefficients, ens.spectra)
        )
        assert scale > 0
        assert abs(real_rotation(ens, theta)) < 1e-7 * scale


def test_real_rotation_finite_at_large_n():
    # a running product of N factors of modulus up to 2 can pass 1e308
    # here; G must stay finite and bounded by sum |b_j| |Z_j|
    g = RngStream(SEED, 16).generator()
    for n_dim in (2400, 4096):
        specs = []
        for _ in range(2):
            angles = g.uniform(0.0, TWO_PI, size=n_dim)
            angles[-1] = -np.sum(angles[:-1]) % TWO_PI  # det 1
            specs.append(EigenangleSpectrum.from_angles(angles))
        ens = CombinationEnsemble(np.array([1.0, -0.5]), specs)
        for theta in g.uniform(0.0, TWO_PI, size=50):
            value = real_rotation(ens, float(theta))
            assert np.isfinite(value)
            bound = sum(
                abs(b) * np.exp(log_z(spec, float(theta)).re)
                for b, spec in zip(ens.coefficients, ens.spectra)
            )
            assert abs(value) <= bound * (1.0 + 1e-9)


def test_rootset_symmetry_under_circle_inversion():
    # self-inversive combinations: root set closed under z -> 1 / conj(z)
    for coeffs, salt in [([1.0, 1.0], 8), ([2.0, -1.0, 0.5], 9)]:
        ens = make_ens(coeffs, 6, salt=salt)
        assert roots_oracle(ens).symmetry_defect() < 1e-8


def test_counting_routes_agree_on_a_batch():
    # the acceptance suite runs the full 300-ensemble version of this
    g = RngStream(SEED, 13).generator()
    agreements = 0
    total = 40
    for k in range(total):
        n_terms = int(g.integers(1, 4))
        n_dim = int(g.integers(2, 13))
        specs = []
        for _ in range(n_terms):
            u, _ = haar_special_unitary(n_dim, 0.0, g)
            specs.append(eigenangles(u))
        coeffs = g.uniform(0.5, 2.0, size=n_terms) * g.choice([-1.0, 1.0], size=n_terms)
        ens = CombinationEnsemble(coeffs, specs)
        changes = sign_changes(ens)
        count = circle_root_count(roots_oracle(ens))
        assert changes <= count <= n_dim
        agreements += changes == count
    assert agreements >= total - 2


def test_circle_root_count_tolerance_window():
    ens = make_ens([1.0, 1.0], 5, salt=14)
    rs = roots_oracle(ens)
    assert circle_root_count(rs, tol=1e-6) <= circle_root_count(rs, tol=1e-2)
    assert circle_root_count(rs, tol=10.0) == len(rs.roots)


def test_repeated_unit_eigenvalue_closed_form():
    # U = I has F(z) = sum(b) (1 - z)^N: one root of multiplicity N at z = 1
    spec = EigenangleSpectrum.from_angles(np.zeros(4))
    ens = CombinationEnsemble(np.array([1.0]), [spec])
    rs = roots_oracle(ens)
    assert rs.effective_degree == 4
    assert np.max(np.abs(rs.roots - 1.0)) < 1e-3  # multiple root: loose cluster
    assert circle_root_count(rs, tol=1e-2) == 4


def test_ensemble_validation():
    specs = su_spectra(2, 5, salt=15)
    with pytest.raises(InvalidEnsembleError):
        CombinationEnsemble(np.array([1.0]), specs)  # length mismatch
    with pytest.raises(InvalidEnsembleError):
        CombinationEnsemble(np.array([]), [])
    with pytest.raises(InvalidEnsembleError):
        mixed = [specs[0], EigenangleSpectrum.from_angles(np.zeros(4))]
        CombinationEnsemble(np.array([1.0, 1.0]), mixed)  # dimension mismatch


def _bracket_changes(evaluate, a, ga, b, gb, depth):
    # depth-first scalar bisection: the rules sign_changes applies level
    # by level, one real_rotation call per midpoint
    flip = (ga > 0.0) != (gb > 0.0)
    if depth <= 0:
        return 1 if flip else 0
    mid = 0.5 * (a + b)
    gm = evaluate(mid)
    if gm == 0.0:
        return 1 if flip else 0
    dip = abs(gm) < abs(ga) and abs(gm) < abs(gb)
    total = 0
    if (ga > 0.0) != (gm > 0.0) or dip:
        total += _bracket_changes(evaluate, a, ga, mid, gm, depth - 1)
    if (gm > 0.0) != (gb > 0.0) or dip:
        total += _bracket_changes(evaluate, mid, gm, b, gb, depth - 1)
    return total


def reference_sign_changes(ens, grid_factor, max_refine):
    n_dim = ens.dim
    sign = -1.0 if n_dim % 2 else 1.0
    base = np.arange(grid_factor * n_dim) * (TWO_PI / (grid_factor * n_dim))
    nodes = np.unique(np.concatenate([base] + [spec.angles for spec in ens.spectra]))
    g = np.array([real_rotation(ens, float(t)) for t in nodes])
    nodes, g = nodes[g != 0.0], g[g != 0.0]

    def evaluate(theta):
        if theta >= TWO_PI:
            return sign * real_rotation(ens, theta - TWO_PI)
        return real_rotation(ens, theta)

    total = sum(
        _bracket_changes(evaluate, nodes[i], g[i], nodes[i + 1], g[i + 1], max_refine)
        for i in range(len(nodes) - 1)
    )
    return total + _bracket_changes(
        evaluate, nodes[-1], g[-1], nodes[0] + TWO_PI, sign * g[0], max_refine
    )


def test_sign_changes_matches_recursive_reference():
    g = RngStream(SEED, 17).generator()
    for n_dim in (2, 3, 4, 5, 7, 8, 12, 16, 25, 32, 47, 64, 96, 128) * 3:
        n_terms = int(g.integers(1, 4))
        specs = [eigenangles(haar_special_unitary(n_dim, 0.0, g)[0]) for _ in range(n_terms)]
        coeffs = g.uniform(0.5, 2.0, size=n_terms) * g.choice([-1.0, 1.0], size=n_terms)
        ens = CombinationEnsemble(coeffs, specs)
        for grid_factor in (1, 8):
            for max_refine in (0, 1, 20):
                expected = reference_sign_changes(ens, grid_factor, max_refine)
                assert sign_changes(ens, grid_factor, max_refine) == expected


def test_sign_changes_is_level_synchronous(monkeypatch):
    calls = []

    def counting(angles, thetas):
        calls.append(np.size(thetas))
        return log_z_grid(angles, thetas)

    monkeypatch.setattr(cuelab.ensembles, "log_z_grid", counting)
    ens = make_ens([1.0, 1.0], 64, salt=18)
    for max_refine in (0, 5, 20):
        calls.clear()
        sign_changes(ens, max_refine=max_refine)
        assert 1 <= len(calls) <= max_refine + 1
