import json
import math
from pathlib import Path

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


# 30-digit values of J (mpmath.quad on the package's own legs) from the
# benchmark reference perfbench/ref/seed0.json: {alpha: [J_1, ..., J_n]}
# as (re, im) strings.
_J_REFERENCE = {
    (4, 2, ()): {
        (0, 2): [
            ("-1.31945076948173066525804176451", "-4.33826400537296646950218808999"),
            ("2.38869858512101317160965892988", "-0.630114650770222632634487395598"),
        ],
        (0, 3): [
            ("-3.70814935460274383686770069439", "-2.3068065266809161541014482287"),
            ("3.70814935460274383686770069439", "-2.3068065266809161541014482287"),
        ],
        (1, 3): [
            ("-2.38869858512101317160965892988", "-0.630114650770222632634487395598"),
            ("1.31945076948173066525804176451", "-4.33826400537296646950218808999"),
        ],
    },
    (2, 4, (-1.5, 2.0 + 1.0j)): {
        (0, 0, 1, 1): [
            ("-1.84473577875343258379073686346", "-1.13653845583658415893846796472"),
            ("-0.816936219708110443796895916594", "-1.4270250459050133845739591971"),
            ("-1.50793153189730494306257465482", "0.686673885518823906029964862329"),
            ("0.181817038823743422030631812032", "-1.29332993155430748096588327435"),
        ],
        (0, 1, 0, 1): [
            ("-1.98256183709902110121871523378", "0.825612523991353547749329390916"),
            ("-2.69479875933624946281029007802", "-1.4158828407234650708817423022"),
            ("-0.728822671650063265640506216829", "0.570396848310639471731782310893"),
            ("-0.163827715223060325692140160472", "-1.74035665377707222752731150234"),
        ],
        (0, 1, 1, 0): [
            ("-1.7536271250267545628708936873", "-1.93484270276376766199491536987"),
            ("0.494776794566576955009525825861", "-1.93484270276376766199491536987"),
            ("-1.7536271250267545628708936873", "0.531187114114765097013894136201"),
            ("0.183304186538999061708203778491", "-0.748383088907469505408851264621"),
        ],
        (0, 1, 1, 1): [
            ("-1.23069774467573315405111344703", "1.09809950570168427180614000544"),
            ("-1.72871016682977452810982977119", "-0.497006285974111036567681311907"),
            ("0.219018278823984849010150801428", "0.82234564781152759868550871935"),
            ("-0.278994143330056525048565522724", "-0.772760143864267709688312597998"),
        ],
        (1, 1, 1, 1): [
            ("-0.348483296653490060095878546822", "1.44296283076722841797025113247"),
            ("-1.35065861605400512550568614963", "1.78498014370177001355625977256"),
            ("0.649516230245922657399189159999", "1.27197934946571500149633099316"),
            ("-1.48216224828539691874019722261", "-0.0172104524194594739946964059477"),
        ],
    },
}


# Curves whose forms take the split kernel, read from the reference file.
_SPLIT_CURVES = [
    (4, 4, (-1.5, 2.0 + 1.0j)),
    (3, 4, (-1.5, 2.0 + 1.0j)),
    (5, 3, (-1.5,)),
    (17, 2, ()),
]


def _seed0_reference(curve) -> dict:
    """{alpha: [(re, im), ...]} of one curve in perfbench/ref/seed0.json."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "seed0.json"
    with path.open() as fh:
        table = json.load(fh)
    k, n, lams = curve
    key = f"{k},{n}|" + ";".join(f"{complex(z).real},{complex(z).imag}" for z in lams)
    return {tuple(map(int, alpha.split("."))): J for alpha, J in table[key].items()}


@pytest.mark.parametrize("curve", list(_J_REFERENCE) + _SPLIT_CURVES)
def test_default_level_matches_high_precision_reference(curve):
    # the default start level must reproduce the reference to 1e-13 relative
    # to each column's largest |J|
    k, n, lams = curve
    spec = validate_spec(k, n, lams)
    J = base_integrals(spec, QuadConfig())
    forms = enumerate_forms(spec)
    reference = _J_REFERENCE.get(curve) or _seed0_reference(curve)
    assert sorted(f.alpha for f in forms) == sorted(reference)
    for c, form in enumerate(forms):
        ref = np.asarray(
            [complex(float(re), float(im)) for re, im in reference[form.alpha]]
        )
        err = np.max(np.abs(J[:, c] - ref)) / np.max(np.abs(ref))
        assert err <= 1e-13, (form.alpha, err)


def _entry_loop(pm) -> np.ndarray:
    """The matrix built one period_entry call at a time."""
    out = np.zeros(pm.entries.shape, dtype=complex)
    for s, word in enumerate(pm.rows):
        if isinstance(word, Power):
            continue
        for c, form in enumerate(pm.cols):
            out[s, c] = period_entry(word, form, pm.base_integrals[:, c], pm.spec.k)
    return out


@pytest.mark.parametrize(
    "k,n,lams,include_powers",
    [
        (3, 2, (), True),
        (2, 4, (2.0, 2.0 + 1.0j), False),
        (4, 3, (-1.5,), False),
        (7, 2, (), False),
    ],
)
def test_assemble_is_bit_identical_to_entry_loop(k, n, lams, include_powers, quad_cfg):
    pm = assemble(validate_spec(k, n, lams), quad_cfg, include_powers=include_powers)
    expected = _entry_loop(pm)
    assert np.array_equal(pm.entries.view(np.uint64), expected.view(np.uint64))
    if (k, n) == (2, 4):
        assert np.count_nonzero(pm.entries == 0) > 0


@pytest.mark.parametrize(
    "k,n,lams,include_powers",
    [
        (3, 2, (), True),
        (2, 4, (2.0, 2.0 + 1.0j), False),
        (2, 2, (), False),
    ],
)
def test_factor_table_layout(k, n, lams, include_powers, quad_cfg):
    spec = validate_spec(k, n, lams)
    pm = assemble(spec, quad_cfg, include_powers=include_powers)
    g = len(pm.cols)
    assert pm.values.shape == (k * math.comb(n, 2) * g + 1,)
    assert pm.index.shape == (len(pm.rows), g)
    assert pm.index.min(initial=0) >= 0
    assert pm.index.max(initial=0) < pm.values.size
    # power rows point at the final slot, an exact zero
    assert pm.values[-1] == 0j
    powers = [s for s, word in enumerate(pm.rows) if isinstance(word, Power)]
    assert len(powers) == (n if include_powers else 0)
    assert np.all(pm.index[powers] == pm.values.size - 1)
    gathered = pm.values[pm.index]
    assert np.array_equal(pm.entries.view(np.uint64), gathered.view(np.uint64))
    if (k, n) == (2, 4):
        assert np.count_nonzero(pm.values == 0) > 1


def test_identity_rows_start_each_pairs_block(quad_cfg):
    spec = validate_spec(3, 3, [-1.5])
    pm = assemble(spec, quad_cfg, include_powers=True)
    first = pm.identity_rows()
    block = spec.k**spec.n
    assert first.tolist() == [spec.n + p * block for p in range(math.comb(spec.n, 2))]
    radix = spec.k ** np.arange(spec.n - 1, -1, -1)
    M = np.asarray([f.m_exponents for f in pm.cols])
    for row in first:
        base = pm.rows[row]
        assert base.g == (0,) * spec.n
        for s in range(row, row + block):
            word = pm.rows[s]
            assert (word.j, word.l) == (base.j, base.l)
            assert s - row == np.dot(word.g, radix)
            phase = np.exp(2j * np.pi * (M @ np.asarray(word.g)) / spec.k)
            assert np.allclose(pm.entries[s], phase * pm.entries[row], rtol=1e-14, atol=0)
