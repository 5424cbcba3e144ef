import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest

from gfcperiods import (
    QuadConfig,
    assemble,
    extract_basis,
    lattice,
    lattice_rank,
    real_split,
    validate_spec,
)
from gfcperiods.errors import NotFullRank, ReconstructionFailed


def test_real_split_examples(quad_cfg):
    pm = assemble(validate_spec(3, 2, []), quad_cfg)
    v = real_split(pm)
    assert v.shape == (9, 2)
    assert np.array_equal(v[:, 0], pm.entries[:, 0].real)
    assert np.array_equal(v[:, 1], pm.entries[:, 0].imag)


def test_real_split_phase_rotation():
    # multiplying a complex row by a unit phase rotates its (Re, Im) pair
    z = 1.3 - 0.7j
    phase = np.exp(0.43j)
    a = np.array([z.real, z.imag])
    b = np.array([(phase * z).real, (phase * z).imag])
    c, s = np.cos(0.43), np.sin(0.43)
    rot = np.array([[c, s], [-s, c]])
    assert np.allclose(a @ rot, b)


def test_lattice_rank_cases():
    assert lattice_rank(np.zeros((5, 4))) == 0
    assert lattice_rank(np.eye(4)) == 4
    assert lattice_rank([[1.0, 0.0], [2.0, 0.0]]) == 1
    assert lattice_rank(np.zeros((3, 0))) == 0


def test_extract_basis_identity_like():
    spec = validate_spec(3, 2, [])  # genus 1, so 2g = 2
    vectors = np.eye(2)
    basis = extract_basis(vectors, spec)
    assert np.array_equal(basis.basis, np.eye(2))
    assert np.array_equal(basis.coefficients, np.eye(2, dtype=np.int64))
    assert basis.residual == 0.0


def test_extract_basis_superlattice():
    spec = validate_spec(3, 2, [])
    vectors = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    basis = extract_basis(vectors, spec)
    assert abs(abs(np.linalg.det(basis.basis)) - 2.0) < 1e-12
    # every generator is an integer combination of the basis rows
    assert np.max(np.abs(basis.coefficients @ basis.basis - vectors)) < 1e-12
    # and the basis rows are integer combinations of the generators
    assert np.max(np.abs(basis.from_generators @ vectors - basis.basis)) < 1e-12


def test_extract_basis_names_non_integral_generator():
    # the first two rows span an index-2 sublattice that misses row 2
    spec = validate_spec(3, 2, [])
    vectors = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    with pytest.raises(ReconstructionFailed, match="generator 2:"):
        extract_basis(vectors, spec)


def test_extract_basis_names_generator_past_the_kept_rows():
    # rows 0 and 2 are kept; of the others, row 4 is the first off the lattice
    spec = validate_spec(3, 2, [])
    vectors = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 2.0], [4.0, 2.0], [1.0, 1.0]])
    with pytest.raises(ReconstructionFailed, match="generator 4:"):
        extract_basis(vectors, spec)


def test_extract_basis_not_full_rank():
    spec = validate_spec(3, 2, [])
    with pytest.raises(NotFullRank):
        extract_basis(np.array([[1.0, 0.0], [2.0, 0.0]]), spec)


def test_extract_basis_reconstruction_failure():
    spec = validate_spec(3, 2, [])
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(2.0), 0.0]])
    with pytest.raises(ReconstructionFailed):
        extract_basis(vectors, spec)


def test_extract_basis_genus_zero():
    spec = validate_spec(2, 2, [])
    basis = extract_basis(np.zeros((4, 0)), spec)
    assert basis.basis.shape == (0, 0)
    assert basis.coefficients.shape == (4, 0)


def _same_lattice(a, b, tol=1e-6):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    for src, dst in ((a, b), (b, a)):
        x = np.linalg.solve(dst.T, src.T).T
        if np.max(np.abs(x - np.rint(x))) > tol:
            return False
        if np.max(np.abs(np.rint(x) @ dst - src)) > tol * scale:
            return False
    return True


def test_extract_basis_idempotent(quad_cfg):
    pm = assemble(validate_spec(2, 3, [2.0]), quad_cfg)
    first = extract_basis(real_split(pm), pm.spec)
    second = extract_basis(first.basis, pm.spec)
    assert _same_lattice(first.basis, second.basis)
    assert second.residual < 1e-6


def test_double_inclusion_on_pipeline_output(quad_cfg):
    pm = assemble(validate_spec(4, 2, []), quad_cfg)
    v = real_split(pm)
    basis = extract_basis(v, pm.spec)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(basis.coefficients @ basis.basis - v)) < 1e-6 * scale
    assert np.max(np.abs(basis.from_generators @ v - basis.basis)) < 1e-6 * scale
    assert basis.residual < 1e-6 * scale


def test_determinant_invariance_under_permutation(quad_cfg):
    pm = assemble(validate_spec(2, 3, [2.0]), quad_cfg)
    v = real_split(pm)
    det1 = abs(np.linalg.det(extract_basis(v, pm.spec).basis))
    rng = np.random.default_rng(7)
    for _ in range(3):
        perm = rng.permutation(v.shape[0])
        det2 = abs(np.linalg.det(extract_basis(v[perm], pm.spec).basis))
        assert abs(det2 - det1) / det1 < 1e-6


# Curves beyond the desk set: up to 1536 generators, and 2g up to 450.
REGRESSION_CURVES = [
    (4, 3, (-1.5,)),
    (5, 3, (-1.5,)),
    (3, 4, (-1.5, 2 + 1j)),
    (2, 6, (-1.5, 2 + 1j, 2, -1 - 1j)),
    (4, 4, (-1.5, 2 + 1j)),
    (20, 2, ()),
]


@pytest.mark.parametrize("k,n,lams", REGRESSION_CURVES)
def test_extract_basis_beyond_desk_set(k, n, lams):
    # plain vectors, row by row
    spec = validate_spec(k, n, list(lams))
    v = _generators(k, n, lams)
    basis = extract_basis(v, spec)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(basis.coefficients @ basis.basis - v)) < 1e-10 * scale
    # from_generators picks one generator per basis row, bit for bit
    picked = np.argmax(basis.from_generators, axis=1)
    assert np.array_equal(basis.from_generators, np.eye(len(v), dtype=np.int8)[picked])
    assert np.array_equal(v[picked], basis.basis)
    assert picked.tolist() == _reference_first_independent(v, v.shape[1])
    assert _same_lattice(basis.basis, extract_basis(basis.basis, spec).basis)


def _reference_first_independent(v, d):
    """The in-order rule, written out on its own: Gram-Schmidt with a
    second projection pass, one row at a time, at most d rows."""
    tol = lattice._RANK_TOL * float(np.max(np.linalg.norm(v, axis=1), initial=0.0))
    q = np.empty((d, v.shape[1]))
    kept = []
    for i, row in enumerate(v):
        q_kept = q[: len(kept)]
        r = row - q_kept.T @ (q_kept @ row)
        r -= q_kept.T @ (q_kept @ r)
        dist = float(np.linalg.norm(r))
        if dist > tol:
            q[len(kept)] = r / dist
            kept.append(i)
            if len(kept) == d:
                break
    return kept


@functools.cache
def _period_matrix(k, n, lams):
    return assemble(validate_spec(k, n, list(lams)), QuadConfig())


@functools.cache
def _generators(k, n, lams):
    return real_split(_period_matrix(k, n, lams))


def _kept(v):
    """The rows the search keeps in plain vectors, one problem."""
    return np.flatnonzero(lattice._first_independent(v[None])[:, 0]).tolist()


def _kept_by_characters(pm):
    return lattice._kept_by_characters(pm)[0].tolist()


# The basis_ladder and verify_oracle curves of the benchmark, seed 0.
LADDER_CURVES = [
    (4, 2, ()),
    (3, 3, (-1.5,)),
    (2, 4, (-1.5, 2 + 1j)),
    (12, 2, ()),
    (2, 5, (-1.5, 2 + 1j, 2)),
    (17, 2, ()),
    (2, 3, (-1.5,)),
    (4, 3, (-1.5,)),
    (5, 3, (-1.5,)),
    (3, 4, (-1.5, 2 + 1j)),
]


@pytest.mark.parametrize("k,n,lams", LADDER_CURVES)
def test_blocked_rows_match_row_loop_on_ladder(k, n, lams):
    v = _generators(k, n, lams)
    d = v.shape[1]
    ref = _reference_first_independent(v, d)
    assert _kept(v) == ref
    assert _kept_by_characters(_period_matrix(k, n, lams)) == ref


def test_blocked_rows_match_row_loop_on_random_lambda():
    # 12 seeded curves with branch points anywhere in |Re|, |Im| <= 3
    kinds = [(2, 3), (2, 4), (2, 5), (3, 3), (4, 3), (3, 4), (5, 3), (2, 6)]
    rng = random.Random(15)
    for c in range(12):
        k, n = kinds[c % len(kinds)]
        lams = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n - 2)]
        pm = assemble(validate_spec(k, n, lams), QuadConfig())
        v = real_split(pm)
        d = v.shape[1]
        ref = _reference_first_independent(v, d)
        assert _kept(v) == ref, (k, n, lams)
        assert _kept_by_characters(pm) == ref, (k, n, lams)
        assert len(ref) == d


# Far branch values, at which the forms' periods span up to 67 decades
# (12 at 1e18), each with a near curve of its type: lambda = -1.5, or
# (-1.5, 2).
FAR_CURVES = [
    *((3, 3, (lam,), (-1.5,)) for lam in (1e18, 1e20, 1e100, 1e150, -1e50, 1e30 + 1e30j)),
    (3, 4, (1e50, 2), (-1.5, 2)),
]


@pytest.mark.parametrize("k,n,lams,near", FAR_CURVES, ids=str)
def test_far_lambda_keeps_the_rows_and_coefficients_of_a_near_one(k, n, lams, near):
    # the kept set is searched and the coordinates solved for in columns
    # scaled to one size, so the small forms' periods are not read as
    # dependent; the near curve's coefficients need no scaling and check
    # the far ones independently of the scaled solve
    far = extract_basis(_period_matrix(k, n, lams), validate_spec(k, n, list(lams)))
    ref = extract_basis(_period_matrix(k, n, near), validate_spec(k, n, list(near)))
    assert np.array_equal(far.kept, ref.kept)
    assert np.array_equal(far.coefficients, ref.coefficients)
    v = _generators(k, n, lams)
    miss = np.abs(far.coefficients @ far.basis - v).max(axis=0)
    assert np.all(miss <= 1e-12 * np.abs(v).max(axis=0))


def _exact_residual(coeffs: np.ndarray, basis: np.ndarray, target: np.ndarray) -> float:
    """max |coeffs @ basis - target| rounded once: each c * b is written as
    |c| copies of +-b, so every term of math.fsum is exact."""
    worst = 0.0
    for c, t in zip(coeffs.astype(np.int64), target):
        terms = np.repeat(basis * np.sign(c)[:, None], np.abs(c), axis=0)
        cells = zip(terms.T.tolist(), t.tolist())
        worst = max([worst] + [abs(math.fsum(col + [-x])) for col, x in cells])
    return worst


@pytest.mark.parametrize("k,n,lams", LADDER_CURVES)
def test_extract_basis_matches_full_solve(k, n, lams):
    # solving only for the rows that were not kept changes no bit; the
    # residual summed in a fixed order and the BLAS one each lie within the
    # rounding bound of a d-term dot product and one subtraction,
    # gamma_(d+1) * max(sum |c||b| + |t|), of the exactly rounded residual
    v = _generators(k, n, lams)
    result = extract_basis(v, validate_spec(k, n, list(lams)))
    coords = np.linalg.solve(result.basis.T, v.T).T
    coeffs = np.rint(coords)
    assert np.array_equal(result.coefficients, coeffs.astype(np.int64))
    rest = np.delete(np.arange(len(v)), result.kept)
    assert result.residual == lattice._residual(coeffs[rest], result.basis, v[rest])
    blas = float(np.max(np.abs(coeffs @ result.basis - v)))
    exact = _exact_residual(coeffs[rest], result.basis, v[rest])
    m, u = len(result.basis) + 1, np.finfo(v.dtype).eps / 2
    gamma = m * u / (1 - m * u)
    bound = gamma * float(np.max(np.abs(coeffs) @ np.abs(result.basis) + np.abs(v)))
    assert abs(result.residual - exact) <= bound
    assert abs(blas - exact) <= bound


@pytest.mark.parametrize("block_values", [2**21, 200 * 64])
def test_residual_sums_integer_products_exactly(block_values, monkeypatch):
    # small integers add exactly in any order, so the fixed-order sum must
    # give the plain product's value; 150 basis rows, 64 of them unused,
    # leave a short last slice, and 200 * 64 values make blocks of two rows
    monkeypatch.setattr(lattice.quad, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(3)
    coords = rng.integers(-3, 4, size=(9, 150)).astype(float)
    coords[:, 64:128] = 0
    basis = rng.integers(-50, 51, size=(150, 100)).astype(float)
    target = coords @ basis + rng.integers(-2, 3, size=(9, 100))
    expected = float(np.max(np.abs(coords @ basis - target)))
    assert lattice._residual(coords, basis, target) == expected == 2.0
    assert lattice._residual(coords[:0], basis, target[:0]) == 0.0


def _unit(i):
    return np.eye(4)[i]


@pytest.mark.parametrize("offset", [0, 70])
def test_blocked_rows_threshold_either_side(offset):
    # unit rows make the tolerance exactly _RANK_TOL; row offset + 2 lies
    # 0.5 tol from the span, row offset + 3 lies 2 tol from it
    tol = lattice._RANK_TOL
    lead = np.tile(_unit(0), (offset, 1))
    rows = [_unit(0), _unit(1), _unit(0) + 0.5 * tol * _unit(2), _unit(1) + 2 * tol * _unit(3)]
    v = np.vstack([lead.reshape(-1, 4), rows])
    kept = _kept(v)
    assert kept == [0, offset + 1, offset + 3]
    assert kept == _reference_first_independent(v, 4)


def test_blocked_rows_dependent_row_inside_block():
    rng = np.random.default_rng(1)
    fresh = rng.standard_normal((6, 8))
    v = np.vstack([fresh[:4], fresh[1] + 2 * fresh[3], fresh[4:]])
    kept = _kept(v)
    assert kept == [0, 1, 2, 3, 5, 6]
    assert kept == _reference_first_independent(v, 8)


def test_blocked_rows_restart_after_late_row():
    # more candidate rows than free dimensions: row 1 is 2 * row 0, and the
    # search stops once row 2 fills the plane
    a, b = np.array([1.0, 0.5]), np.array([0.25, 1.0])
    v = np.vstack([a, 2 * a, b, a + b, a - b])
    assert _kept(v) == [0, 2]
    # row 1 lies 0.5 tol from row 0 and is dropped; row 2 lies 2.06 tol
    # from row 0 alone and is kept; row 3, after it, must not count in row
    # 2's distance; no row is longer than 1, so tol is _RANK_TOL
    tol = lattice._RANK_TOL
    v = np.vstack(
        [_unit(0), _unit(0) + 0.5 * tol * _unit(1)]
        + [_unit(0) + 2 * tol * _unit(1) + 0.5 * tol * _unit(3)]
        + [(_unit(1) + 0.1 * _unit(2)) / 2]
        + [(_unit(i) + _unit(j)) / 2 for i in range(4) for j in range(4)]
    )
    kept = _kept(v)
    assert kept == [0, 2, 3, 5]
    assert kept == _reference_first_independent(v, 4)


def test_blocked_rows_span_several_blocks():
    # 40 fresh rows among integer combinations of the rows before them
    rng = np.random.default_rng(2)
    rows = []
    for i in range(320):
        if i % 8 == 0:
            rows.append(rng.standard_normal(40))
        else:
            pick = rng.integers(0, len(rows), size=3)
            rows.append(rng.integers(-3, 4, size=3).astype(float) @ np.asarray(rows)[pick])
    v = np.asarray(rows)
    kept = _kept(v)
    assert kept == list(range(0, 320, 8))
    assert kept == _reference_first_independent(v, 40)


def test_blocked_rows_cap_mid_block():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((150, 6))
    assert _kept(v) == list(range(6))
    w = np.vstack([np.tile(v[:3], (30, 1)), v[3:]])
    kept = _kept(w)
    assert kept == [0, 1, 2, 90, 91, 92]
    assert kept == _reference_first_independent(w, 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_basis_non_finite_row(bad):
    spec = validate_spec(3, 2, [])
    v = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]])
    assert not lattice._first_independent(v[None]).any()
    with pytest.raises(NotFullRank):
        extract_basis(v, spec)


@pytest.mark.parametrize("k,n,lams", REGRESSION_CURVES)
def test_character_kept_set_matches_row_loop(k, n, lams):
    v = _generators(k, n, lams)
    ref = _reference_first_independent(v, v.shape[1])
    assert _kept_by_characters(_period_matrix(k, n, lams)) == ref


def _greedy_monomials(points, k, n):
    """Exponents g, in lex order, whose x**g on the points zeta**chi is
    independent of the lex-smaller ones, by rank."""
    chi = np.asarray(points, dtype=float).reshape(len(points), n)
    rows, kept = [], []
    for g in itertools.product(range(k), repeat=n):
        row = np.exp(2j * np.pi * (chi @ np.asarray(g, dtype=float)) / k)
        if np.linalg.matrix_rank(np.asarray(rows + [row])) > len(rows):
            rows.append(row)
            kept.append(g)
    return kept


def test_standard_monomials_match_greedy_evaluation():
    rng = random.Random(16)
    for _ in range(40):
        k, n = rng.choice([2, 3, 4, 5]), rng.choice([1, 2, 3])
        box = list(itertools.product(range(k), repeat=n))
        points = rng.sample(box, rng.randint(1, min(len(box), 24)))
        diffs = [0] * k
        got = lattice._standard_monomials(points, diffs)
        assert len(got) == len(points)
        assert got == _greedy_monomials(points, k, n), (k, n, points)
        # |det| of the monomials on the points zeta**chi, from the counted
        # differences of first coordinates
        chi, g = np.asarray(points).reshape(-1, n), np.asarray(got).reshape(-1, n)
        monomials = np.exp(2j * np.pi * (g @ chi.T) / k)
        sines = [math.log(2 * math.sin(math.pi * d / k)) for d in range(1, k)]
        log_abs_det = sum(c * x for c, x in zip(diffs[1:], sines))
        assert abs(np.linalg.slogdet(monomials)[1] - log_abs_det) < 1e-12 * len(points)


def test_standard_monomials_edge_cases():
    def monomials_and_diffs(points):
        diffs = [0] * 3
        return lattice._standard_monomials(points, diffs), diffs

    assert monomials_and_diffs([]) == ([], [0, 0, 0])
    assert monomials_and_diffs([(2, 1)]) == ([(0, 0)], [0, 0, 0])
    # one fibre of three points over x_2 = 0: x_1 takes degrees 0, 1, 2,
    # and the Vandermonde of x_1 = 1, zeta, zeta**2 has differences 1, 1, 2
    assert monomials_and_diffs([(0, 0), (1, 0), (2, 0)]) == (
        [(0, 0), (1, 0), (2, 0)],
        [0, 2, 1],
    )
    # three fibres of one point each: x_2 takes the degrees, and the tail
    # problem's Vandermonde counts once
    assert monomials_and_diffs([(0, 0), (0, 1), (0, 2)]) == (
        [(0, 0), (0, 1), (0, 2)],
        [0, 2, 1],
    )


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_search_equals_one_search_per_problem(dtype):
    rng = np.random.default_rng(16)
    problems = []
    for scale in (1.0, 10.0, 0.1, 3.0):
        fresh = rng.standard_normal((5, 4)).astype(dtype)
        if dtype is complex:
            fresh += 1j * rng.standard_normal((5, 4))
        mix = rng.integers(-2, 3, size=(4, 5)).astype(float)
        rows = np.vstack([fresh[:2], mix[:2, :2] @ fresh[:2], fresh[2:], mix @ fresh])
        problems.append(scale * rows[rng.permutation(len(rows))])
    stack = np.asarray(problems)
    # a problem's lengths stacked and alone may differ in the last bit; the
    # rows kept, those > 0, may not
    mask = lattice._first_independent(stack) > 0
    assert mask.shape == (stack.shape[1], stack.shape[0])
    for p, rows in enumerate(problems):
        assert np.array_equal(mask[:, p], lattice._first_independent(rows[None])[:, 0] > 0)
        if dtype is float:
            assert np.flatnonzero(mask[:, p]).tolist() == _reference_first_independent(rows, 4)
    assert np.array_equal(mask.sum(axis=0), [4, 4, 4, 4])


def test_extract_basis_from_period_matrix_matches_plain_vectors():
    pm = _period_matrix(3, 3, (-1.5,))
    a, b = extract_basis(pm, pm.spec), extract_basis(real_split(pm), pm.spec)
    for field in dataclasses.fields(a):
        if field.name != "log_abs_det":
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
    # only the period matrix carries the characters its covolume comes from
    assert b.log_abs_det is None and math.isfinite(a.log_abs_det)


@pytest.mark.parametrize("k", [*range(2, 26), 40])
def test_rank_two_coordinates_equal_the_float_solve(k):
    # exact normal forms on the period matrix, the rounded solve on its
    # plain vectors: the same rows, coefficients and residual
    pm = _period_matrix(k, 2, ())
    exact, solved = extract_basis(pm, pm.spec), extract_basis(real_split(pm), pm.spec)
    assert np.array_equal(exact.kept, solved.kept)
    assert np.array_equal(exact.coefficients, solved.coefficients)
    assert exact.coefficients.dtype == solved.coefficients.dtype
    assert exact.residual == solved.residual
    assert solved.log_abs_det is None


@pytest.mark.parametrize("k", [2, 3, 4, 7, 12])
def test_monomial_coordinates_reproduce_every_monomial_on_the_characters(k):
    # x**g at the characters (zeta**a, zeta**b), a, b, a + b nonzero mod k,
    # is its coordinates times the box's monomials there, entries -1, 0, 1
    zeta = np.exp(2j * np.pi * np.arange(k) / k)
    a, b = np.divmod(np.arange(k * k), k)
    points = (a > 0) & (b > 0) & ((a + b) % k > 0)
    monomials = zeta[np.outer(a, a[points]) % k] * zeta[np.outer(b, b[points]) % k]
    box = (a <= k - 3) & (b <= k - 2)
    coords = lattice._monomial_coordinates(k)
    assert coords.shape == (k * k, box.sum()) == (k * k, points.sum())
    assert set(np.unique(coords)) <= {-1, 0, 1}
    assert np.array_equal(coords[box], np.eye(box.sum(), dtype=np.int64))
    assert np.abs(coords @ monomials[box] - monomials).max(initial=0.0) < 1e-12 * k


@pytest.mark.parametrize("k", range(3, 41))
def test_rank_two_covolume_matches_slogdet(k):
    pm = _period_matrix(k, 2, ())
    result = extract_basis(pm, pm.spec)
    reference = np.linalg.slogdet(result.basis)[1]
    assert abs(result.log_abs_det - reference) <= 1e-14 * abs(reference)


@pytest.mark.parametrize(
    "k,n,lams",
    [
        *LADDER_CURVES,
        (5, 4, (-1.5, 2 + 1j)),
        (6, 4, (-1.5, 2 + 1j)),
        (3, 3, (0.3 + 0.4j,)),
        (2, 6, (-1.5, 2 + 1j, 2, -1 - 1j)),
        (2, 2, ()),
        (3, 3, (1e15,)),
        (3, 3, (1e-15,)),
        (2, 4, (2, 2.0000000001)),
        (3, 4, (1e-4, 2)),
    ],
)
def test_covolume_matches_slogdet(k, n, lams):
    # every n, characters of multiplicity above 1, genus 0, whose empty
    # basis has |det| 1 exactly, and character blocks spread ill by extreme
    # or nearly equal lambdas; (6,4)'s 2,810 kept rows skip the solve, and
    # the kept rows of real_split(pm) are gathered alone
    pm = assemble(validate_spec(k, n, list(lams)), QuadConfig())
    kept, log_abs_det = lattice._kept_by_characters(pm)
    if (k, n) != (6, 4):
        assert extract_basis(pm, pm.spec).log_abs_det == log_abs_det
    rows = pm.index[kept]
    reference = np.linalg.slogdet(np.hstack([pm.values.real[rows], pm.values.imag[rows]]))[1]
    assert abs(log_abs_det - reference) <= 1e-14 * abs(reference)


def test_extract_basis_rejects_period_matrix_of_another_curve():
    pm = _period_matrix(3, 3, (-1.5,))
    with pytest.raises(ValueError, match="another curve"):
        extract_basis(pm, validate_spec(3, 3, [-2.0]))


def test_extract_basis_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="dimension 2g = 2, got 3"):
        extract_basis(np.eye(3), validate_spec(3, 2, []))


@pytest.mark.parametrize("where", ["identity row", "conjugated row"])
def test_extract_basis_period_matrix_with_a_nan(where):
    pm = _period_matrix(3, 3, (-1.5,))
    first = pm.identity_rows()
    # a slot read by a g = 0 row, or one read only by rows with g != 0
    slot = pm.index[first[0], 0] if where == "identity row" else pm.index[-1, -1]
    assert (slot in pm.index[first]) == (where == "identity row")
    values = pm.values.copy()
    values[slot] = np.nan
    bad = dataclasses.replace(pm, values=values)
    with pytest.raises(NotFullRank):
        extract_basis(bad, pm.spec)


def test_period_matrix_shortfall_names_the_character():
    # (4, 2): M mod 4 is (1, 2), (1, 1), (2, 1) over the three forms and
    # each character has multiplicity 1; form 0 made zero leaves (1, 2) and
    # its conjugate (3, 2) at rank 0
    pm = _period_matrix(4, 2, ())
    values = pm.values.copy()
    values.reshape(-1, len(pm.m_exponents))[:, 0] = 0
    bad = dataclasses.replace(pm, values=values)
    with pytest.raises(NotFullRank) as err:
        extract_basis(bad, pm.spec)
    assert str(err.value) == (
        "generators have numerical rank 4, need 6: "
        "character M = (1, 2) mod 4 reaches rank 0 of 1"
    )
