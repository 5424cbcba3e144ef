import cmath
import itertools
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from gfcperiods import (
    base_integrals,
    assemble,
    conjugation_phase,
    default_base_point,
    enumerate_forms,
    genus,
    period_entry,
    validate_spec,
)
from gfcperiods.homology import ConjComm, enumerate_generators
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
    forms = enumerate_forms(spec)
    index = {w: s for s, w in enumerate(enumerate_generators(spec))}
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
    # n = 2 reads no tolerance, so the legs of an n = 3 curve carry the check
    spec = validate_spec(3, 3, [-1.5])
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


@pytest.mark.parametrize("k", [4, 7, 12, 17, 20])
def test_rank_two_periods_take_the_beta_closed_form(k):
    # J_1 = 0 and J_2 = D = B(a, b) exp(i pi (b - a)) within 2e-15 of the
    # 30-digit reference J_2 - J_1, relative to |D|, phase included
    spec = validate_spec(k, 2, [])
    pm = assemble(spec, QuadConfig())
    reference = _seed0_reference((k, 2, ()))
    forms = enumerate_forms(spec)
    assert sorted(f.alpha for f in forms) == sorted(reference)
    assert np.array_equal(pm.base_integrals[0], np.zeros(len(forms)))
    for c, form in enumerate(forms):
        (re1, im1), (re2, im2) = reference[form.alpha]
        want = complex(float(Decimal(re2) - Decimal(re1)), float(Decimal(im2) - Decimal(im1)))
        err = abs(pm.base_integrals[1, c] - want) / abs(want)
        assert err <= 2e-15, (form.alpha, err)


def test_beta_closed_form_is_the_legs_difference():
    # the phase is that of the legs' branch from the default base point
    for k in range(3, 23):
        spec = validate_spec(k, 2, [])
        legs = base_integrals(spec, QuadConfig())
        D = assemble(spec, QuadConfig()).base_integrals[1]
        err = np.max(np.abs(D - (legs[1] - legs[0])) / np.abs(D))
        assert err <= 2e-15, (k, err)


def test_genus_zero_rank_two_has_empty_matrices():
    pm = assemble(validate_spec(2, 2, []), QuadConfig())
    assert pm.m_exponents.shape == (0, 2)
    assert pm.values.shape == (0,)
    assert pm.index.shape == (4, 0)
    assert pm.base_integrals.shape == (2, 0)
    assert pm.entries.shape == (4, 0)


@pytest.mark.parametrize(
    "k,n,lams", [(2, 2, ()), (5, 2, ()), (3, 3, (-1.5,)), (2, 4, (2.0, 2.0 + 1.0j))]
)
def test_m_exponents_are_the_forms_characters(k, n, lams, quad_cfg):
    # row c is FormIndex.m_exponents of the c-th form, in enumerate_forms order
    spec = validate_spec(k, n, lams)
    pm = assemble(spec, quad_cfg)
    forms = enumerate_forms(spec)
    assert pm.m_exponents.dtype == np.int64
    assert pm.m_exponents.shape == (len(forms), n)
    assert [tuple(row) for row in pm.m_exponents.tolist()] == [f.m_exponents for f in forms]


# 30-digit J of every form of (3, 3) with lambda next to r_1 = 0 or far out,
# computed once by perfbench/reference.py (`reference.compute`).
_FAR_AND_CLOSE = json.loads(
    (Path(__file__).resolve().parent / "data" / "reference_j_33.json").read_text()
)


@pytest.mark.parametrize("lam", list(_FAR_AND_CLOSE))
def test_legs_near_a_close_or_far_branch_point_match_the_reference(lam):
    # each leg takes every difference w - r_s from its nearer end, so the
    # last nodes keep their precision when r_s lies next to the target or
    # the base point lies far away: J is within 1e-13 of each form's
    # largest |J_l - J_j| (taking the differences from the start left
    # 1.0e-12 at 1e-5 and 3.5e-10 at 1e8, and 1e-9 and 1e10 did not converge)
    spec = validate_spec(3, 3, [complex(lam)])
    J = base_integrals(spec, QuadConfig())
    reference = _FAR_AND_CLOSE[lam]
    forms = enumerate_forms(spec)
    assert sorted(".".join(map(str, f.alpha)) for f in forms) == sorted(reference)
    for c, form in enumerate(forms):
        values = reference[".".join(map(str, form.alpha))]
        ref = np.asarray([complex(float(re), float(im)) for re, im in values])
        scale = np.max(np.abs(ref[:, None] - ref[None, :]))
        err = np.max(np.abs(J[:, c] - ref)) / scale
        assert err <= 1e-13, (form.alpha, err)


def _entry_loop(pm) -> np.ndarray:
    """The matrix built one period_entry call at a time."""
    out = np.zeros(pm.entries.shape, dtype=complex)
    for s, word in enumerate(enumerate_generators(pm.spec)):
        for c, form in enumerate(enumerate_forms(pm.spec)):
            out[s, c] = period_entry(word, form, pm.base_integrals[:, c], pm.spec.k)
    return out


@pytest.mark.parametrize(
    "k,n,lams",
    [(3, 2, ()), (2, 4, (2.0, 2.0 + 1.0j)), (4, 3, (-1.5,)), (7, 2, ())],
)
def test_assemble_is_bit_identical_to_entry_loop(k, n, lams, quad_cfg):
    pm = assemble(validate_spec(k, n, lams), quad_cfg)
    expected = _entry_loop(pm)
    assert np.array_equal(pm.entries.view(np.uint64), expected.view(np.uint64))
    if (k, n) == (2, 4):
        assert np.count_nonzero(pm.entries == 0) > 0


# (k, n, lambdas) of the curves whose layout is checked word by word
_LAYOUT_CURVES = [(3, 2, ()), (2, 4, (2.0, 2.0 + 1.0j)), (2, 2, ()), (3, 3, (-1.5,))]


@pytest.mark.parametrize("k,n,lams", _LAYOUT_CURVES)
def test_factor_table_layout(k, n, lams, quad_cfg):
    # row s is the s-th word of enumerate_generators, and cell (s, c) reads
    # the slot of its phase e = (g . M_c) mod k, its pair and form c
    spec = validate_spec(k, n, lams)
    pm = assemble(spec, quad_cfg)
    words = enumerate_generators(spec)
    g, P = genus(spec), math.comb(n, 2)
    assert pm.values.shape == (k * P * g,)
    assert pm.index.shape == (len(words), g)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    radix = k ** np.arange(n - 1, -1, -1)
    M = np.asarray([f.m_exponents for f in enumerate_forms(spec)]).reshape(g, n)
    for s, word in enumerate(words):
        p = pairs.index((word.j, word.l))
        assert s == p * k**n + np.dot(word.g, radix)
        e = (M @ np.asarray(word.g)) % k
        assert pm.index[s].tolist() == ((e * P + p) * g + np.arange(g)).tolist()
    gathered = pm.values[pm.index]
    assert np.array_equal(pm.entries.view(np.uint64), gathered.view(np.uint64))
    if (k, n) == (2, 4):
        assert np.count_nonzero(pm.values == 0) > 1


@pytest.mark.parametrize("k,n,lams", _LAYOUT_CURVES + [(4, 4, (-1.5, 2.0 + 1.0j))])
def test_factor_table_index_is_int32(k, n, lams, quad_cfg):
    # int32 numbers every slot of values, and the cells are those of the
    # layout's formula in intp: (((g . M_c) mod k) * C(n,2) + pair) * g + c
    spec = validate_spec(k, n, lams)
    pm = assemble(spec, quad_cfg)
    assert pm.index.dtype == np.int32
    g, P = genus(spec), math.comb(n, 2)
    M = np.asarray([f.m_exponents for f in enumerate_forms(spec)], dtype=np.intp).reshape(g, n)
    G = np.asarray(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    phase = (G @ M.T) % k
    expected = (phase * P + np.arange(P)[:, None, None]) * g + np.arange(g)
    assert np.array_equal(pm.index, expected.reshape(P * k**n, g))


def test_identity_rows_start_each_pairs_block(quad_cfg):
    for k, n, lams in _LAYOUT_CURVES:
        spec = validate_spec(k, n, lams)
        pm = assemble(spec, quad_cfg)
        first = pm.identity_rows()
        block = k**n
        assert first.tolist() == [p * block for p in range(math.comb(n, 2))]
        radix = k ** np.arange(n - 1, -1, -1)
        forms = enumerate_forms(spec)
        M = np.asarray([f.m_exponents for f in forms]).reshape(len(forms), n)
        words = enumerate_generators(spec)
        for row in first:
            base = words[row]
            assert base.g == (0,) * n
            for s in range(row, row + block):
                word = words[s]
                assert (word.j, word.l) == (base.j, base.l)
                assert s - row == np.dot(word.g, radix)
                phase = np.exp(2j * np.pi * (M @ np.asarray(word.g)) / k)
                assert np.allclose(pm.entries[s], phase * pm.entries[row], rtol=1e-14, atol=0)


def _loop_around_infinity(spec, descending=False):
    """For each form whose character is trivial at infinity (sum M = 0 mod
    k): the sum S of the legs' terms zeta**(M_a1 + ... + M_a(t-1)) (1 -
    zeta**M_at) J_at, the legs a_1..a_n in ascending arg(r - z0), and the
    sum of the terms' moduli."""
    pm = assemble(spec, QuadConfig())
    R = spec.branch_points
    z0 = default_base_point(R)
    order = sorted(range(spec.n), key=lambda i: cmath.phase(R[i] - z0), reverse=descending)
    M = pm.m_exponents[:, order]
    trivial = M.sum(axis=1) % spec.k == 0
    zeta = np.exp(2j * np.pi * np.arange(spec.k) / spec.k)
    before = (np.cumsum(M, axis=1) - M) % spec.k
    terms = zeta[before] * (1 - zeta[M % spec.k]) * pm.base_integrals[order].T
    return np.abs(terms.sum(axis=1))[trivial], np.abs(terms).sum(axis=1)[trivial]


@pytest.mark.parametrize(
    "k,n,lams",
    [
        (3, 3, [-1.5]),
        (3, 3, [0.3 + 0.4j]),
        (4, 3, [-1.5]),
        (5, 3, [-1.5]),
        (2, 4, [-1.5, 2 + 1j]),
        (3, 4, [-1.5, 2 + 1j]),
        (4, 4, [-1.5, 2 + 1j]),
        (2, 5, [-1.5, 2 + 1j, 2.0]),
        # curves whose verify oracle exits 3
        (3, 3, [1e8]),
        (3, 3, [1.0001]),
        (3, 3, [1e-5]),
        (3, 4, [1e-4, 2.0]),
    ],
)
def test_loop_around_infinity_vanishes_on_j(k, n, lams):
    # the product of the loops around every branch point, taken in the
    # order in which they leave the base point, is the loop around
    # infinity; on a form that does not branch there its integral is 0
    total, scale = _loop_around_infinity(validate_spec(k, n, lams))
    assert len(total) > 0
    assert np.all(total <= 1e-12 * scale), total / scale


def test_loop_around_infinity_needs_the_legs_in_ascending_order():
    total, scale = _loop_around_infinity(validate_spec(3, 3, [-1.5]), descending=True)
    assert len(total) > 0
    assert np.all(total > 0.5 * scale), total / scale
