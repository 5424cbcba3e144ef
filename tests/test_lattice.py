import numpy as np
import pytest

from gfcperiods import assemble, extract_basis, lattice_rank, real_split, validate_spec
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
def test_extract_basis_beyond_desk_set(k, n, lams, quad_cfg):
    spec = validate_spec(k, n, list(lams))
    v = real_split(assemble(spec, quad_cfg))
    basis = extract_basis(v, spec)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(basis.coefficients @ basis.basis - v)) < 1e-10 * scale
    # from_generators picks one generator per basis row, bit for bit
    picked = np.argmax(basis.from_generators, axis=1)
    assert np.array_equal(basis.from_generators, np.eye(len(v), dtype=np.int8)[picked])
    assert np.array_equal(v[picked], basis.basis)
    assert _same_lattice(basis.basis, extract_basis(basis.basis, spec).basis)
