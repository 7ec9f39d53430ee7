"""Trigonometric combinations of characteristic polynomials and their zeros.

Three counting routes must agree: sign changes of the real rotation on the
circle (a lower bound), the certified Schur-Cohn table count, and
companion-matrix roots of the polynomial whose coefficients come from an
FFT of the combination on the circle.
"""

import numpy as np
import pytest

import cuelab.ensembles
from cuelab import RngStream, experiments, haar_special_unitary
from cuelab.ensembles import (
    CombinationEnsemble,
    _settled_brackets,
    circle_root_count,
    circle_zero_counts,
    real_rotation,
    roots_oracle,
    sign_changes,
)
from cuelab.errors import (
    DegenerateCombinationError, InvalidArgumentError, InvalidEnsembleError, NumericalFailureError,
)
from cuelab.spectra import TWO_PI, EigenangleSpectrum, _fft_samples, eigenangles, log_z

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
    # rows of angles, as eigenangles gives them, take the same one check
    rows = [spec.angles for spec in specs]
    assert CombinationEnsemble(np.array([1.0, 1.0]), rows).dim == 5
    off = rows[1] + 1e-3 / 5  # angle sum 1e-3 off 0 mod 2pi
    with pytest.raises(InvalidEnsembleError, match="det 1"):
        CombinationEnsemble(np.array([1.0, 1.0]), [rows[0], off])
    with pytest.raises(InvalidEnsembleError):
        CombinationEnsemble(np.array([1.0, 1.0]), [rows[0], rows[1][:4]])  # mixed lengths
    with pytest.raises(InvalidEnsembleError):
        CombinationEnsemble(np.array([1.0, 1.0, 1.0]), rows)  # 2 rows, 3 coefficients
    with pytest.raises(InvalidEnsembleError):
        CombinationEnsemble(np.array([1.0]), rows)  # 2 rows, 1 coefficient


def test_ensembles_from_rows_and_from_spectra_agree():
    g = RngStream(SEED, 24).generator()
    coeffs = np.array([1.0, -2.0, 0.5])
    drawn = haar_special_unitary(16, 0.0, g, n=4 * len(coeffs))[0]
    for rows in eigenangles(drawn).reshape(4, len(coeffs), 16):
        from_rows = CombinationEnsemble(coeffs, rows)
        from_spectra = CombinationEnsemble(
            coeffs, [EigenangleSpectrum.from_angles(row) for row in rows])
        assert from_rows.angles.tobytes() == from_spectra.angles.tobytes()
        assert sign_changes(from_rows) == sign_changes(from_spectra)
        np.testing.assert_array_equal(roots_oracle(from_rows).roots,
                                      roots_oracle(from_spectra).roots)


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
    nodes = np.unique(np.concatenate([base, *ens.angles]))
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


def settle_nothing(a, ga, b, gb, row, bound, slack, n_dim):
    # no bracket leaves the level loop early: plain level-by-level bisection
    return np.zeros(a.shape, dtype=bool)


def depths_and_exits(monkeypatch, depths):
    """Each refinement depth, with the early exit and then without it.

    The exit is the module's own function, taken at import, so a generator
    started after another one left settle_nothing installed still runs the
    real exit first.
    """
    for depth in depths:
        monkeypatch.setattr(cuelab.ensembles, "_REFINE_DEPTH", depth)
        for exit_test in (_settled_brackets, settle_nothing):
            monkeypatch.setattr(cuelab.ensembles, "_settled_brackets", exit_test)
            yield depth


def recursive_reference_ensembles():
    g = RngStream(SEED, 17).generator()
    for n_dim in (2, 3, 4, 5, 7, 8, 12, 16, 25, 32, 47, 64, 96, 128) * 3:
        n_terms = int(g.integers(1, 4))
        specs = [eigenangles(haar_special_unitary(n_dim, 0.0, g)[0]) for _ in range(n_terms)]
        coeffs = g.uniform(0.5, 2.0, size=n_terms) * g.choice([-1.0, 1.0], size=n_terms)
        yield CombinationEnsemble(coeffs, specs)
    # on the 8 N nodes two zeros rarely share one half of a bracket: of the
    # 400 pinned ensembles below, only this one needs the dip rule, which
    # keeps a steady half whose midpoint dips below both ends
    yield list(pinned_ensembles(64, 167))[166]


def test_sign_changes_matches_recursive_reference(monkeypatch):
    # the level loop, with and without the early exit, against depth-first
    # bisection on the 8 N nodes at depths 0, 1 and 20
    passes = {_settled_brackets: 0, settle_nothing: 0}
    ensembles = list(recursive_reference_ensembles())
    for ens in ensembles:
        expected = {depth: reference_sign_changes(ens, 8, depth) for depth in (0, 1, 20)}
        for depth in depths_and_exits(monkeypatch, expected):
            passes[cuelab.ensembles._settled_brackets] += 1
            assert sign_changes(ens) == expected[depth], (ens.dim, depth)
    # every ensemble ran each depth once with the real exit and once without
    assert passes == {_settled_brackets: 3 * len(ensembles),
                      settle_nothing: 3 * len(ensembles)}


def pinned_ensembles(n_dim, count=200):
    g = RngStream(SEED, n_dim).generator()
    for _ in range(count):
        specs = [eigenangles(haar_special_unitary(n_dim, 0.0, g)[0]) for _ in range(2)]
        coeffs = g.uniform(0.5, 2.0, size=2) * g.choice([-1.0, 1.0], size=2)
        yield CombinationEnsemble(coeffs, specs)


# sign_changes of pinned_ensembles(N), taken when the kernel still wrapped
# every (angle, point) difference mod 2pi; a count that moves must be shown
# to equal the root oracle's count for its ensemble.
PINNED_SIGN_CHANGES = {
    16: [
        12, 14, 14, 16, 14, 14, 14, 12, 14, 10, 8, 14, 16, 16, 14, 14, 10, 16, 10, 10, 10,
        14, 16, 10, 12, 14, 10, 14, 12, 16, 12, 8, 16, 16, 16, 10, 16, 14, 16, 14, 14, 16,
        10, 8, 14, 12, 12, 16, 12, 14, 12, 12, 12, 16, 12, 12, 16, 10, 12, 10, 12, 14, 14,
        16, 14, 14, 16, 10, 16, 16, 16, 14, 10, 16, 16, 12, 12, 16, 14, 10, 14, 16, 16, 14,
        14, 16, 12, 10, 14, 10, 16, 8, 10, 14, 14, 12, 12, 8, 16, 16, 10, 14, 14, 14, 12,
        10, 8, 12, 14, 14, 10, 12, 14, 14, 10, 14, 10, 10, 16, 14, 16, 16, 12, 14, 12, 14,
        12, 10, 10, 12, 16, 14, 14, 12, 14, 12, 12, 14, 16, 10, 14, 12, 16, 14, 16, 14, 12,
        10, 16, 14, 12, 14, 12, 10, 14, 12, 12, 16, 16, 12, 14, 14, 16, 16, 16, 16, 16, 14,
        14, 10, 14, 16, 12, 8, 12, 12, 12, 8, 14, 16, 10, 14, 16, 10, 16, 10, 12, 16, 12,
        16, 10, 14, 16, 16, 10, 12, 14, 16, 12, 14,
    ],
    64: [
        62, 54, 56, 48, 56, 56, 48, 56, 58, 56, 58, 56, 62, 50, 54, 60, 56, 52, 54, 54, 56,
        58, 54, 56, 54, 54, 62, 60, 56, 60, 60, 58, 56, 60, 54, 48, 60, 56, 62, 50, 48, 46,
        60, 60, 52, 58, 50, 40, 56, 62, 50, 58, 58, 60, 58, 48, 56, 58, 60, 52, 62, 52, 60,
        46, 58, 58, 42, 46, 50, 54, 50, 54, 54, 52, 54, 56, 50, 48, 56, 52, 54, 54, 52, 54,
        62, 58, 56, 46, 58, 62, 54, 60, 58, 56, 56, 44, 60, 48, 44, 60, 60, 58, 50, 54, 44,
        62, 58, 42, 54, 52, 50, 64, 48, 52, 58, 52, 56, 42, 60, 52, 58, 52, 60, 48, 38, 60,
        52, 56, 56, 60, 52, 60, 52, 58, 46, 60, 56, 46, 56, 54, 58, 56, 56, 60, 56, 54, 62,
        64, 56, 52, 56, 56, 56, 54, 50, 52, 54, 56, 56, 56, 54, 56, 50, 60, 54, 50, 52, 52,
        60, 52, 52, 56, 50, 48, 50, 58, 50, 42, 50, 50, 46, 50, 52, 58, 56, 48, 50, 52, 62,
        60, 48, 52, 54, 46, 48, 60, 58, 62, 52, 40,
    ],
}


@pytest.mark.parametrize("n_dim", [16, 64])
def test_sign_changes_counts_are_pinned(n_dim):
    counts = [sign_changes(ens) for ens in pinned_ensembles(n_dim)]
    assert counts == PINNED_SIGN_CHANGES[n_dim]


def test_sign_changes_is_level_synchronous(monkeypatch):
    calls = []

    def counting(angles, points, rows):
        calls.append(np.shape(points))
        return log_z_rows(angles, points, rows)

    log_z_rows = cuelab.ensembles._log_z_rows
    monkeypatch.setattr(cuelab.ensembles, "_log_z_rows", counting)
    monkeypatch.setattr(cuelab.spectra, "_log_z_rows", counting)
    ens = make_ens([1.0, 1.0], 64, salt=18)
    angles = np.stack([make_ens([1.0, 1.0], 64, salt).angles for salt in range(6)])
    stack = (ens.coefficients, angles)
    for depth in depths_and_exits(monkeypatch, (0, 5, 20)):
        exits = cuelab.ensembles._settled_brackets is _settled_brackets
        calls.clear()
        sign_changes(ens)
        assert 2 <= len(calls) <= depth + 2
        # without the exit a flipping bracket stays live to the last level
        assert exits or len(calls) == depth + 2
        # a whole stack of ensembles takes no more calls than one ensemble
        calls.clear()
        sign_changes(stack)
        assert 2 <= len(calls) <= depth + 2
        assert exits or len(calls) == depth + 2
        # the first call takes the samples on the 8 N uniform nodes, the
        # second the eigenangles, at each of which the other term is evaluated
        assert calls[:2] == [(8 * 64,), (6 * 2 * 64,)]


def ragged_stack(coeffs, n_dim, salt):
    """Ensembles of one stack, whose rows have different node sets.

    Four Haar rows; a row whose spectra all hold the exact angle 0, a grid
    node where G is then exactly 0; and, with two terms, a row of two
    identical spectra, which b = (1, -1) cancels and b = (1, 2) makes
    3 Z_1, with every term's log Z -inf at every eigenangle.  A single
    term is 0 at every eigenangle.
    """
    g = RngStream(SEED, salt).generator()

    def draw(dim):
        return eigenangles(haar_special_unitary(dim, 0.0, g)[0])

    rows = [[draw(n_dim) for _ in coeffs] for _ in range(4)]
    rows.append([EigenangleSpectrum.from_angles(np.append(0.0, draw(n_dim - 1).angles))
                 for _ in coeffs])
    if len(coeffs) == 2:
        rows.append([rows[0][0]] * 2)
    return [CombinationEnsemble(np.array(coeffs), specs) for specs in rows]


@pytest.mark.parametrize("coeffs", [(1.0, -1.0), (1.0,), (1.0, 2.0)])
@pytest.mark.parametrize("n_dim", [7, 16])
def test_stacked_sign_changes_equal_per_ensemble_counts(monkeypatch, coeffs, n_dim):
    cases = ragged_stack(coeffs, n_dim, salt=19 + n_dim)
    assert real_rotation(cases[4], 0.0) == 0.0
    stack = (np.array(coeffs), np.stack([ens.angles for ens in cases]))
    # the last row, identical spectra, cancels under (1, -1) alone
    live = cases[:-1] if coeffs == (1.0, -1.0) else cases
    references = {depth: [reference_sign_changes(ens, 8, depth) for ens in live]
                  + [-1] * (len(cases) - len(live)) for depth in (0, 1, 20)}
    for depth in depths_and_exits(monkeypatch, references):
        expected = []
        for ens in cases:
            try:
                expected.append(sign_changes(ens))
            except DegenerateCombinationError:
                expected.append(-1)
        assert expected == references[depth], depth
        assert sign_changes(stack).tolist() == expected, depth
    monkeypatch.undo()
    counts = sign_changes(stack)
    if coeffs == (1.0, -1.0):
        assert counts[-1] == -1 and np.all(counts[:-1] >= 0)
    elif len(coeffs) == 2:
        # F = 3 Z_1 on the identical row: all N zeros, by both routes
        assert counts[-1] == circle_zero_counts(stack)[-1] == n_dim
        assert np.all(counts >= 0)
    else:
        assert counts.tolist() == [n_dim] * len(cases)


def test_stacked_sign_changes_validate_the_stack():
    angles = np.stack([make_ens([1.0, 1.0], 8, salt=21).angles])
    assert sign_changes((np.array([1.0, 1.0]), angles)).shape == (1,)
    with pytest.raises(InvalidEnsembleError):
        sign_changes((np.array([1.0, 0.0]), angles))
    with pytest.raises(InvalidEnsembleError):
        sign_changes((np.array([1.0, 1.0, 1.0]), angles))
    with pytest.raises(InvalidEnsembleError):
        sign_changes((np.array([1.0, 1.0]), angles[0]))
    shifted = angles.copy()
    shifted[0, 1, 0] += 0.1
    with pytest.raises(InvalidEnsembleError, match="det 1"):
        sign_changes((np.array([1.0, 1.0]), shifted))
    # a stack's samples are the pass on the 8 N nodes, not a count's M = 2^k
    with pytest.raises(InvalidEnsembleError, match=r"shape \(1, 2, 64\), got \(1, 2, 32\)"):
        sign_changes((np.array([1.0, 1.0]), angles, _fft_samples(angles)))


@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -1.0), (1.0, 1.0), (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("n_dim", [7, 8, 16, 33, 64])
def test_bernstein_premises_of_the_early_exit(coeffs, n_dim):
    # the exit test's bound M: |G| on the 8N nodes bounds G everywhere, and
    # G' by (N/2) M; odd N takes the wrap G(t + 2pi) = -G(t)
    g = RngStream(SEED, 22 + n_dim).generator()
    rows = 8
    drawn = haar_special_unitary(n_dim, 0.0, g, n=rows * len(coeffs))[0]
    angles = eigenangles(drawn).reshape(rows, len(coeffs), n_dim)
    coeffs = np.array(coeffs)
    nodes = np.arange(8 * n_dim) * (TWO_PI / (8 * n_dim))
    step = TWO_PI / (64 * n_dim)
    fine = np.arange(64 * n_dim) * step
    on_nodes = cuelab.ensembles._rotation(
        coeffs, angles, np.repeat(np.arange(rows), nodes.size), np.tile(nodes, rows))[0]
    on_fine, moduli = cuelab.ensembles._rotation(
        coeffs, angles, np.repeat(np.arange(rows), fine.size), np.tile(fine, rows))
    on_nodes = on_nodes.reshape(rows, nodes.size)
    on_fine = on_fine.reshape(rows, fine.size)
    moduli = moduli.reshape(len(coeffs), rows, fine.size).swapaxes(0, 1)
    bound = np.max(np.abs(on_nodes), axis=1) / (1.0 - np.pi / 16)
    assert np.all(np.max(np.abs(on_fine), axis=1) <= bound)
    sign = (-1.0) ** n_dim
    after = np.roll(on_fine, -1, axis=1)
    after[:, -1] *= sign
    before = np.roll(on_fine, 1, axis=1)
    before[:, 0] *= sign
    slope = np.abs(after - before) / (2 * step)
    # a central difference is off by at most step^2/6 sup|G'''|, and
    # rounding of G by 1e-12 sum |b_j| |Z_j| moves it by that over step
    half = 0.5 * n_dim
    truncation = step**2 / 6 * half**3 * bound
    rounding = 1e-12 * np.max(np.abs(coeffs) @ moduli, axis=1) / step
    assert np.all(np.max(slope, axis=1) <= half * bound + truncation + rounding)


def test_settled_brackets_leave_the_level_loop(monkeypatch):
    # a 6-row N = 64 stack: full bisection of every live bracket to the
    # 20-level cap evaluated 13,889 midpoints; the exit test leaves 1,270
    # (9.1%)
    evaluated = []

    def counting(coefficients, angles, rows, thetas):
        evaluated.append(rows.size)
        return rotation(coefficients, angles, rows, thetas)

    rotation = cuelab.ensembles._rotation
    monkeypatch.setattr(cuelab.ensembles, "_rotation", counting)
    angles = np.stack([make_ens([1.0, 1.0], 64, salt).angles for salt in range(6)])
    sign_changes((np.array([1.0, 1.0]), angles))
    # the first call takes the eigenangle nodes, each later one a level's
    # midpoints
    assert evaluated[0] == 6 * 2 * 64
    assert sum(evaluated[1:]) <= 0.2 * 13889


def test_level_calls_evaluate_only_live_midpoints(monkeypatch):
    # each level's kernel call takes exactly the brackets the exit test left
    # live, however unevenly they fall across the rows of the stack
    points, live = [], []

    def counting(*args):
        points.append(np.size(args[1]))
        return log_z_rows(*args)

    def settling(*args):
        settled = _settled_brackets(*args)
        live.append(np.count_nonzero(~settled))
        return settled

    log_z_rows = cuelab.ensembles._log_z_rows
    monkeypatch.setattr(cuelab.ensembles, "_log_z_rows", counting)
    monkeypatch.setattr(cuelab.ensembles, "_settled_brackets", settling)
    gen = RngStream(SEED, 23).generator()
    angles = experiments._su_spectra(gen, 64, 16, 2)
    sign_changes((np.array([1.0, -1.0]), angles))
    assert len(points) > 2
    assert points[1:] == [n for n in live if n]


def close_pair_ensembles():
    """Ensembles holding a close pair of circle zeros.

    Sample 195 of the N = 64 group of the acceptance suite's fraction
    fixture (block 48, offset 3 of seed 424242), where the sign scan sees
    52 of 54 circle roots, and the pinned N = 16 ensembles 152 and 156,
    whose closest circle roots sit 0.08 mean spacings apart.
    """
    gen = experiments._stream(424242, 3, 48).generator()
    angles = experiments._su_spectra(gen, 4, 64, 2)[3]
    yield CombinationEnsemble(np.array([1.0, 1.0]), angles)
    pinned = list(pinned_ensembles(16, 157))
    yield pinned[152]
    yield pinned[156]


def test_sign_changes_on_close_pairs_match_the_reference():
    expected = [(52, 54), (12, 12), (12, 12)]
    for ens, (changes, roots) in zip(close_pair_ensembles(), expected):
        assert circle_root_count(roots_oracle(ens)) == roots
        assert reference_sign_changes(ens, 8, 20) == changes
        assert sign_changes(ens) == changes


def tight_bracket_ensembles():
    """Ensembles with a close pair of circle zeros inside one node bracket.

    Rows 199 of 300 (N = 6) and 1347 of 1500 (N = 7) of three-term stacks
    with coefficients (1, 2, 3): the far end of the pair's bracket has a
    margin of 0.32 and 0.17 times the early exit's steady bound, so a
    bound ten times too small settles the bracket with no zero.  On the
    random N = 8..64 stacks below the largest such ratio is 0.026.
    """
    for n_dim, rows, row in ((6, 300, 199), (7, 1500, 1347)):
        gen = RngStream(SEED, 520 + n_dim).generator()
        angles = experiments._su_spectra(gen, rows, n_dim, 3)[row]
        yield CombinationEnsemble(np.array([1.0, 2.0, 3.0]), angles)


def test_settled_brackets_hold_the_oracle_roots_they_are_counted_with(monkeypatch):
    # Every bracket the level loop's early exit settles is counted one if
    # its ends flip and none if not; it must hold exactly that many oracle
    # circle roots, at theta = -arg z.  Counts alone cannot see a loose
    # bound: one ten times too small changes no stacked count.
    settled_seen = []

    def recording(a, ga, b, gb, row, bound, slack, n_dim):
        settled = _settled_brackets(a, ga, b, gb, row, bound, slack, n_dim)
        flip = (ga > 0.0) != (gb > 0.0)
        settled_seen.append((a[settled], b[settled], flip[settled], row[settled]))
        return settled

    monkeypatch.setattr(cuelab.ensembles, "_settled_brackets", recording)
    stacks = []
    for salt, coeffs in enumerate(((1.0, 1.0), (1.0, -1.0), (1.0, 2.0, 3.0))):
        for n_dim in (8, 16, 32, 64):
            gen = RngStream(SEED, 500 + 10 * salt + n_dim).generator()
            stacks.append((np.array(coeffs), experiments._su_spectra(gen, 84, n_dim, len(coeffs))))
    pinned = [*close_pair_ensembles(), *tight_bracket_ensembles()]
    stacks += [(ens.coefficients, ens.angles[None]) for ens in pinned]
    brackets = ensembles = 0
    for coeffs, angles in stacks:
        settled_seen.clear()
        sign_changes((coeffs, angles))
        roots = [roots_oracle(CombinationEnsemble(coeffs, a)).roots for a in angles]
        thetas = [np.mod(-np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-6]), TWO_PI) for z in roots]
        for a, b, flip, row in settled_seen:
            for lo, hi, counted, r in zip(a, b, flip, row):
                # a wrap bracket ends past 2pi, where a root sits at theta + 2pi
                held = np.count_nonzero((lo <= thetas[r]) & (thetas[r] <= hi))
                held += np.count_nonzero((lo <= thetas[r] + TWO_PI) & (thetas[r] + TWO_PI <= hi))
                assert held == counted, (coeffs, angles.shape, r, lo, hi)
            brackets += a.size
        ensembles += len(angles)
    assert ensembles == 1013
    assert brackets > 100_000


# (coefficients, N, stack rows) of the exact count's audit against the oracle
EXACT_COUNT_CASES = [
    *[(coeffs, n_dim, 80) for coeffs in ((1.0, -1.0), (1.0,), (1.0, 1.0), (1.0, 2.0, 3.0))
      for n_dim in (3, 8, 16)],
    *[(coeffs, 64, 12) for coeffs in ((1.0, -1.0), (1.0,), (1.0, 1.0), (1.0, 2.0, 3.0))],
    ((2.0, -1.0), 32, 24),
    ((1.0, -1.0), 128, 4),
    ((1.0, 1.0), 512, 1),
]


def test_circle_zero_counts_equal_the_oracle():
    # one stacked count per case against one oracle call per ensemble, on
    # 1,040 ensembles, the close pairs among them; N = 16 stacks are also
    # counted row by row, and the wrapper of a stack of none returns none
    total = 0
    for salt, (coeffs, n_dim, rows) in enumerate(EXACT_COUNT_CASES):
        gen = RngStream(SEED, 300 + salt).generator()
        angles = experiments._su_spectra(gen, rows, n_dim, len(coeffs))
        coeffs = np.array(coeffs)
        counts = circle_zero_counts((coeffs, angles))
        oracle = [circle_root_count(roots_oracle(CombinationEnsemble(coeffs, a))) for a in angles]
        assert counts.tolist() == oracle, (coeffs, n_dim)
        if n_dim == 16:
            singles = [circle_zero_counts(CombinationEnsemble(coeffs, a))
                       for a in angles]
            assert singles == oracle
        total += rows
    for ens in close_pair_ensembles():
        assert circle_zero_counts(ens) == circle_root_count(roots_oracle(ens))
        total += 1
    assert total == 1040
    assert circle_zero_counts((coeffs, angles[:0])).shape == (0,)


def test_circle_zero_counts_vanishing_and_trimmed_rows():
    # (1, -1) cancels a_N and a_0: the count is that of p = F / z, of
    # degree N - 2; identical spectra cancel every coefficient
    cases = ragged_stack((1.0, -1.0), 16, salt=41)
    stack = (np.array([1.0, -1.0]), np.stack([ens.angles for ens in cases]))
    counts = circle_zero_counts(stack)
    assert counts[-1] == -1
    assert counts[:-1].tolist() == [circle_root_count(roots_oracle(e)) for e in cases[:-1]]
    assert all(0 <= c <= 14 for c in counts[:-1])
    with pytest.raises(DegenerateCombinationError):
        circle_zero_counts(cases[-1])


def test_double_circle_zero_fails_the_certificate():
    # a repeated eigenangle is a double zero of F on the circle: F' vanishes
    # there, the Schur-Cohn matrix is singular, and no count comes back; a
    # stack flags the row -2
    spread = np.array([0.4, 0.4, 1.3, 2.2, 3.5, 4.6, 5.2])
    double = np.sort(np.append(spread, np.mod(-spread.sum(), TWO_PI)))
    plain = make_ens([1.0], 8, salt=42).angles[0]
    for coeffs, rows in (((1.0,), [[double]]), ((1.0, 2.0), [[double, double]])):
        with pytest.raises(NumericalFailureError, match="not certified"):
            circle_zero_counts(CombinationEnsemble(np.array(coeffs), rows[0]))
    stack = np.array([[plain], [double]])
    assert circle_zero_counts((np.array([1.0]), stack[:1])).tolist() == [8]
    assert circle_zero_counts((np.array([1.0]), stack)).tolist() == [8, -2]


def test_single_term_counts_at_large_n_are_certified_or_flagged():
    # a single term has the thinnest certificates (min|lambda| / max|lambda|
    # down to 1e-10 at N = 512); all N of its zeros are on the circle, and a
    # stack flags a row -2 rather than raising
    for n_dim, rows in ((256, 4), (512, 1)):
        gen = RngStream(SEED, 400 + n_dim).generator()
        angles = experiments._su_spectra(gen, rows, n_dim, 1)
        counts = circle_zero_counts((np.array([1.0]), angles))
        oracle = [circle_root_count(roots_oracle(CombinationEnsemble(np.array([1.0]), a)))
                  for a in angles]
        assert oracle == [n_dim] * rows
        assert counts.tolist() == oracle


def test_g_is_a_function_of_the_point_alone():
    # G at a (row, theta) point does not depend on the other points of its
    # call: a whole point list equals consecutive pairs bit for bit, and the
    # sign scan's shared samples give G on the nodes exactly as the level
    # loop's evaluator does, which also gives its eigenangle nodes
    gen = RngStream(SEED, 60).generator()
    coeffs = np.array([1.0, 2.0, 3.0])
    angles = experiments._su_spectra(gen, 4, 64, 3)
    rows = gen.integers(0, 4, size=1000)
    thetas = gen.uniform(0.0, TWO_PI, size=1000)
    whole, moduli = cuelab.ensembles._rotation(coeffs, angles, rows, thetas)
    for p in range(0, 1000, 2):
        pair, pair_moduli = cuelab.ensembles._rotation(coeffs, angles, rows[p:p + 2],
                                                       thetas[p:p + 2])
        np.testing.assert_array_equal(pair, whole[p:p + 2])
        np.testing.assert_array_equal(pair_moduli, moduli[:, p:p + 2])
    nodes = np.arange(8 * 64) * (TWO_PI / (8 * 64))
    samples = np.moveaxis(_fft_samples(angles, 8 * 64), 1, 0)
    on_nodes, node_moduli = cuelab.ensembles._real_part(coeffs, samples.real, samples.imag,
                                                        nodes, 64)
    at_nodes = cuelab.ensembles._rotation(coeffs, angles, np.repeat(np.arange(4), nodes.size),
                                          np.tile(nodes, 4))
    np.testing.assert_array_equal(on_nodes.ravel(), at_nodes[0])
    np.testing.assert_array_equal(node_moduli.reshape(3, -1), at_nodes[1])
    # at an eigenangle the owning term has modulus exactly 0 (its Re log Z
    # is -inf), and G stays finite
    own, own_moduli = cuelab.ensembles._rotation(coeffs, angles, np.repeat(np.arange(4), 3 * 64),
                                                 angles.ravel())
    owner = np.tile(np.repeat(np.arange(3), 64), 4)
    assert np.all(own_moduli[owner, np.arange(owner.size)] == 0.0)
    assert np.all(np.isfinite(own))


def reference_inertia_counts(coeffs, angles):
    """(counts, certified) by the Schur-Cohn matrix: the reference for the table.

    For q = p' of degree d, with T_1 and T_2 the d x d lower-triangular
    Toeplitz matrices of q_0..q_{d-1} and conj q_d..conj q_1,
    H = T_2^H T_2 - T_1^H T_1 has as many negative eigenvalues as q has
    zeros outside the circle (Schur-Cohn, Krein-Naimark), so the count is
    n - 2 #{lambda(H) < 0}.  A row is certified where min|lambda| exceeds
    16 n eps (max|lambda| + |T_1|_F^2 + |T_2|_F^2) + 2e(|T_1|_F + |T_2|_F + e),
    e = sqrt(d) n times the coefficients' noise allowance (Weyl).
    """
    n_dim = angles.shape[-1]
    values, noise = cuelab.ensembles._combination_coefficients(
        coeffs, _fft_samples(angles), n_dim)
    counts, certified = [], []
    for row, row_noise in zip(values, noise):
        kept = np.flatnonzero(np.abs(row) > 1e-10 * np.abs(row).max())
        p = row[kept[0]:kept[-1] + 1]
        n = len(p) - 1
        if n <= 1:
            counts.append(n)
            certified.append(True)
            continue
        d = n - 1
        q = p[1:] * np.arange(1, n + 1)
        lag = np.subtract.outer(np.arange(d), np.arange(d))
        lower = lag >= 0
        lag = np.maximum(lag, 0)
        t1 = np.where(lower, q[lag], 0.0)
        t2 = np.where(lower, np.conj(q[:0:-1])[lag], 0.0)
        lam = np.linalg.eigvalsh(np.conj(t2).T @ t2 - np.conj(t1).T @ t1)
        f1 = np.sqrt(np.abs(q[:d]) ** 2 @ np.arange(d, 0, -1))
        f2 = np.sqrt(np.abs(q[1:]) ** 2 @ np.arange(1, d + 1))
        e = np.sqrt(d) * n * row_noise
        allowance = (16.0 * n * np.finfo(float).eps * (np.abs(lam).max() + f1 ** 2 + f2 ** 2)
                     + 2.0 * e * (f1 + f2 + e))
        counts.append(n - 2 * int(np.count_nonzero(lam < 0.0)))
        certified.append(bool(np.abs(lam).min() > allowance))
    return np.array(counts), np.array(certified)


def test_table_counts_equal_the_matrix_reference():
    # The table's count against the Schur-Cohn matrix's on 1,024 rows at
    # N = 8..64 with one to three terms, the close pairs, and 20 rows at
    # N = 256 and 512; every row is certified by both routes.
    stacks = []
    for salt, coeffs in enumerate(((1.0, -1.0), (1.0,), (1.0, 1.0), (1.0, 2.0, 3.0))):
        for n_dim, rows in ((8, 120), (16, 80), (32, 40), (64, 16)):
            gen = RngStream(SEED, 700 + 10 * salt + n_dim).generator()
            angles = experiments._su_spectra(gen, rows, n_dim, len(coeffs))
            stacks.append((np.array(coeffs), angles))
    stacks += [(ens.coefficients, ens.angles[None]) for ens in close_pair_ensembles()]
    for salt, (coeffs, n_dim, rows) in enumerate((((1.0, 1.0), 256, 10), ((1.0, 2.0, 3.0), 256, 6),
                                                  ((1.0, 1.0), 512, 2), ((1.0,), 512, 2))):
        gen = RngStream(SEED, 760 + salt).generator()
        stacks.append((np.array(coeffs), experiments._su_spectra(gen, rows, n_dim, len(coeffs))))
    checked = 0
    for coeffs, angles in stacks:
        counts = circle_zero_counts((coeffs, angles))
        reference, certified = reference_inertia_counts(coeffs, angles)
        assert np.all(certified), (coeffs, angles.shape)
        np.testing.assert_array_equal(counts, reference, err_msg=str((coeffs, angles.shape)))
        checked += len(angles)
    assert checked == 1024 + 3 + 20


def test_table_margin_is_the_least_step_ratio():
    # z - c has one step, delta = |c|^2 - 1; (z - 2)(z - 1/3) has its zero
    # 1/3 inside and its margin at the first step; a zero on the circle
    # makes the last step vanish
    inside, margin = cuelab.ensembles._schur_cohn(np.array([[-0.5, 1.0], [-2.0, 1.0]]))
    assert inside.tolist() == [1, 0]
    np.testing.assert_allclose(margin, [0.75 / 1.25, 3.0 / 5.0])
    q = np.polynomial.polynomial.polyfromroots([2.0, 1.0 / 3.0]).astype(complex)
    inside, margin = cuelab.ensembles._schur_cohn(np.array([q, np.array([-1.0, 0.0, 1.0])]))
    assert inside[0] == 1
    assert not margin[1] > 0.0
