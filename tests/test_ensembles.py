"""Trigonometric combinations of characteristic polynomials and their zeros.

Two independent counting routes must agree: sign changes of the real
rotation on the circle, and companion-matrix roots of the polynomial whose
coefficients come from an FFT of the combination on the circle.
"""

import numpy as np
import pytest

from cuelab import RngStream, haar_special_unitary
from cuelab.ensembles import (
    CombinationEnsemble,
    circle_root_count,
    real_rotation,
    roots_oracle,
    rotation_scale,
    sign_changes,
)
from cuelab.errors import DegenerateCombinationError, InvalidArgumentError, InvalidEnsembleError
from cuelab.spectra import EigenangleSpectrum, eigenangles

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
        scale = rotation_scale(ens, theta)
        assert scale > 0
        assert abs(real_rotation(ens, theta)) < 1e-7 * scale


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
