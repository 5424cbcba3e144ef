import math

import numpy as np
import pytest

from gfcperiods import (
    base_integrals,
    assemble,
    conjugation_phase,
    enumerate_forms,
    period_entry,
    validate_spec,
)
from gfcperiods.homology import ConjComm, Power
from gfcperiods.lattice import lattice_rank, real_split
from gfcperiods.periods import zeta_power
from gfcperiods.quad import QuadConfig


def test_zero_prefactor_entries_are_exact_zero(quad_cfg):
    spec = validate_spec(2, 4, [2.0, 2.0 + 1.0j])
    forms = enumerate_forms(spec)
    # alpha = (0, 0, 1, 1) has M_2 = 0, killing every entry with j=2 or l=2
    col = [c for c, f in enumerate(forms) if f.alpha == (0, 0, 1, 1)][0]
    form = forms[col]
    J = base_integrals(spec, quad_cfg)
    word = ConjComm(g=(1, 0, 1, 0), j=2, l=3)
    assert period_entry(word, form, J[:, col], spec.k) == 0j
    word2 = ConjComm(g=(0, 0, 0, 0), j=1, l=2)
    assert period_entry(word2, form, J[:, col], spec.k) == 0j
    # a pair avoiding index 2 is generically nonzero
    word3 = ConjComm(g=(0, 0, 0, 0), j=3, l=4)
    assert period_entry(word3, form, J[:, col], spec.k) != 0j


def test_conjugation_covariance_at_matrix_level(quad_cfg):
    spec = validate_spec(3, 2, [])
    pm = assemble(spec, quad_cfg)
    forms = pm.cols
    index = {w: s for s, w in enumerate(pm.rows)}
    base = ConjComm(g=(0, 0), j=1, l=2)
    for g in [(1, 0), (2, 1), (1, 2)]:
        word = ConjComm(g=g, j=1, l=2)
        for c, form in enumerate(forms):
            b = pm.entries[index[base], c]
            w = pm.entries[index[word], c]
            assert abs(w / b - conjugation_phase(word, form, spec.k)) < 1e-10


def test_root_of_unity_sums_exact():
    sympy = pytest.importorskip("sympy")
    for k in range(2, 7):
        zeta = sympy.exp(2 * sympy.pi * sympy.I / k)
        for m in range(-2 * k, 2 * k + 1):
            total = sympy.expand(
                sum(zeta ** (j * m) for j in range(k)), complex=True
            )
            if m % k == 0:
                assert total == k
            else:
                assert total == 0


def test_zeta_power_reduces_mod_k():
    assert zeta_power(3, -2) == zeta_power(3, 1)
    assert abs(zeta_power(4, 2) + 1) < 1e-15


@pytest.mark.parametrize(
    "k,n,lams,shape",
    [
        (2, 3, (2.0,), (24, 1)),
        (3, 2, (), (9, 1)),
        (4, 2, (), (16, 3)),
    ],
)
def test_assemble_shapes(k, n, lams, shape, quad_cfg):
    pm = assemble(validate_spec(k, n, lams), quad_cfg)
    assert pm.entries.shape == shape


def test_assemble_2_3_rank(quad_cfg):
    pm = assemble(validate_spec(2, 3, [2.0]), quad_cfg)
    assert lattice_rank(real_split(pm)) == 2


def test_power_rows_are_exact_zero(quad_cfg):
    pm = assemble(validate_spec(3, 2, []), quad_cfg, include_powers=True)
    assert isinstance(pm.rows[0], Power) and isinstance(pm.rows[1], Power)
    assert np.all(pm.entries[:2] == 0)
    assert np.all(pm.entries[2:] != 0)


def test_base_integral_beta_magnitude(quad_cfg):
    spec = validate_spec(4, 2, [])
    J = base_integrals(spec, quad_cfg)
    exact = math.exp(
        math.lgamma(0.25) + math.lgamma(0.5) - math.lgamma(0.75)
    )
    assert abs(abs(J[1, 0] - J[0, 0]) - exact) / exact < 1e-9


def test_entries_finite_and_nonzero_generic(quad_cfg):
    pm = assemble(validate_spec(2, 3, [2.0 + 1.0j]), quad_cfg)
    assert np.all(np.isfinite(pm.entries))
    assert np.all(np.abs(pm.entries) > 1e-12)


def test_repeated_assembly_is_bit_identical(quad_cfg):
    spec = validate_spec(2, 3, [2.0 + 1.0j])
    first = assemble(spec, quad_cfg)
    again = assemble(spec, quad_cfg)
    assert np.array_equal(first.entries, again.entries)
    assert np.array_equal(first.base_integrals, again.base_integrals)


def test_tolerance_tightening_is_stable():
    spec = validate_spec(4, 2, [])
    loose = assemble(spec, QuadConfig(rel_tol=1e-10))
    tight = assemble(spec, QuadConfig(rel_tol=1e-12))
    scale = np.max(np.abs(tight.entries))
    assert np.max(np.abs(loose.entries - tight.entries)) <= 10 * 1e-10 * scale
