"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy artifacts (period matrices, word integrators) are
computed once per curve and shared across criteria.
"""

import math
import random
import time

import numpy as np
import pytest

import gfcperiods.cli as cli
from gfcperiods import (
    agm_elliptic_periods,
    assemble,
    base_integrals,
    beta_closed_form,
    enumerate_forms,
    extract_basis,
    genus,
    lattice_rank,
    real_split,
    validate_spec,
)
from gfcperiods.homology import ConjComm, Power, conjugation_phase
from gfcperiods.oracle import WordIntegrator, _mutual_integer_expressible
from gfcperiods.periods import period_entry
from gfcperiods.quad import QuadConfig, tanh_sinh, tanh_sinh_level

# criterion 3 curve set; lambdas drawn from {2, 2+i, -1.5}
CURVES = {
    (3, 2): (),
    (4, 2): (),
    (2, 3): (2.0,),
    (2, 4): (2.0, 2.0 + 1.0j),
    (3, 3): (-1.5,),
}


def _report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def cfg():
    return QuadConfig()


@pytest.fixture(scope="module")
def curves(cfg):
    out = {}
    for (k, n), lams in CURVES.items():
        spec = validate_spec(k, n, lams)
        out[(k, n)] = {
            "spec": spec,
            "forms": enumerate_forms(spec),
            "J": base_integrals(spec, cfg),
            "wi": WordIntegrator(spec, cfg),
            "pm": assemble(spec, cfg),
        }
    return out


@pytest.fixture(scope="module")
def sampled_words(curves):
    rng = random.Random(20240901)
    out = {}
    for (k, n), data in curves.items():
        spec = data["spec"]
        pairs = [(j, l) for j in range(1, n + 1) for l in range(j + 1, n + 1)]
        words = []
        for _ in range(25):
            j, l = rng.choice(pairs)
            g = tuple(rng.randrange(k) for _ in range(n))
            words.append(ConjComm(g=g, j=j, l=l))
        out[(k, n)] = words
    return out


def test_criterion_1_genus_form_consistency():
    t0 = time.time()
    for k in range(2, 7):
        for n in range(2, 6):
            spec = validate_spec(k, n, [2.0 + 0.5j * i for i in range(n - 2)])
            expected = (2 + k ** (n - 1) * ((n - 1) * (k - 1) - 2)) // 2
            assert genus(spec) == expected
            assert len(enumerate_forms(spec)) == expected
    elapsed = time.time() - t0
    _report(1, elapsed < 1.0, f"|I_kn| == genus for k<=6, n<=5 in {elapsed:.2f}s")


def test_criterion_2_beta_oracle(cfg):
    t0 = time.time()
    worst = 0.0
    for k in (3, 4, 5):
        spec = validate_spec(k, 2, [])
        J = base_integrals(spec, cfg)
        for c, form in enumerate(enumerate_forms(spec)):
            b = beta_closed_form(form, k)
            worst = max(worst, abs(abs(J[1, c] - J[0, c]) - b) / b)
    elapsed = time.time() - t0
    _report(
        2,
        worst < 1e-9 and elapsed < 10.0,
        f"Beta magnitudes match, worst rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_power_word_vanishing(curves):
    t0 = time.time()
    worst = 0.0
    for data in curves.values():
        spec, wi, J = data["spec"], data["wi"], data["J"]
        for c, form in enumerate(data["forms"]):
            scale = float(np.max(np.abs(J[:, c])))
            for i in range(1, spec.n + 1):
                worst = max(worst, abs(wi.integrate_word(Power(i), form)) / scale)
    elapsed = time.time() - t0
    _report(
        3,
        worst <= 1e-8 and elapsed < 120.0,
        f"power words vanish, worst {worst:.2e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_vs_oracle(curves, sampled_words):
    t0 = time.time()
    worst = 0.0
    for key, data in curves.items():
        spec, wi, J = data["spec"], data["wi"], data["J"]
        for word in sampled_words[key]:
            for c, form in enumerate(data["forms"]):
                lhs = wi.integrate_word(word, form)
                rhs = period_entry(word, form, J[:, c], spec.k)
                tol = max(1e-8 * abs(rhs), 1e-10)
                worst = max(worst, abs(lhs - rhs) / tol)
    elapsed = time.time() - t0
    _report(
        4,
        worst <= 1.0 and elapsed < 600.0,
        f"25 sampled words/curve agree, worst {worst:.2e} x tolerance, {elapsed:.1f}s",
    )


def test_criterion_5_conjugation_covariance(curves, sampled_words):
    worst = 0.0
    for key, data in curves.items():
        spec, wi = data["spec"], data["wi"]
        scale = float(np.max(np.abs(data["pm"].entries)))
        for word in sampled_words[key]:
            base = ConjComm(g=(0,) * spec.n, j=word.j, l=word.l)
            for form in data["forms"]:
                lhs = wi.integrate_word(word, form)
                rhs = conjugation_phase(word, form, spec.k) * wi.integrate_word(
                    base, form
                )
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-2 * scale))
    _report(5, worst <= 1e-8, f"conjugation covariance, worst {worst:.2e} (tol 1e-8)")


def test_criterion_6_rank_law(curves):
    for data in curves.values():
        spec = data["spec"]
        rank = lattice_rank(real_split(data["pm"]))
        assert rank == 2 * genus(spec), f"(k,n)=({spec.k},{spec.n}) rank {rank}"
    _report(6, True, "lattice rank equals 2g on every curve")


def test_criterion_7_agm_cross_validation(cfg):
    t0 = time.time()
    worst = 0.0
    for lam in (2.0, 5.0, 2.0 + 1.0j):
        spec = validate_spec(2, 3, [lam])
        pm = assemble(spec, cfg)
        basis = extract_basis(real_split(pm), spec)
        w1, w2 = agm_elliptic_periods(lam)
        rot = np.asarray(
            [[(1j * w1).real, (1j * w1).imag], [(1j * w2).real, (1j * w2).imag]]
        )
        ok, dev = _mutual_integer_expressible(basis.basis, rot, 1e-6)
        worst = max(worst, dev)
        assert ok, f"lambda={lam}: lattices differ, dev {dev:.2e}"
    elapsed = time.time() - t0
    _report(
        7,
        elapsed < 30.0,
        f"AGM and pipeline lattices agree, worst dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_lattice_soundness(curves):
    for data in curves.values():
        spec, pm = data["spec"], data["pm"]
        if genus(spec) == 0:
            continue
        v = real_split(pm)
        basis = extract_basis(v, spec)
        scale = float(np.max(np.abs(v)))
        # double inclusion
        assert np.max(np.abs(basis.coefficients @ basis.basis - v)) < 1e-6 * scale
        assert (
            np.max(np.abs(basis.from_generators @ v - basis.basis)) < 1e-6 * scale
        )
        # idempotence: re-extracting from the basis reproduces the lattice
        again = extract_basis(basis.basis, spec)
        ok, dev = _mutual_integer_expressible(basis.basis, again.basis, 1e-6)
        assert ok and again.residual < 1e-6, f"idempotence dev {dev:.2e}"
    _report(8, True, "double inclusion and idempotence hold on every curve")


def test_criterion_9_quadrature_kernel(cfg):
    worst = 0.0
    for a in (0.25, 0.5, 0.75):
        for b in (0.25, 0.5, 0.75):
            f = lambda x, dl, dr: dl ** (a - 1.0) * dr ** (b - 1.0)
            val = tanh_sinh(f, 0.0, 1.0, cfg)
            exact = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            worst = max(worst, abs(val - exact) / exact)
    # monotone level-doubling past level 8
    f = lambda x, dl, dr: dl ** (-0.75) * dr ** (-0.5)
    values = [tanh_sinh_level(f, 0.0, 1.0, lvl) for lvl in range(8, 13)]
    diffs = [abs(v2 - v1) / abs(v2) for v1, v2 in zip(values, values[1:])]
    monotone = all(
        d2 < d1 or d1 < 1e-10 for d1, d2 in zip(diffs, diffs[1:])
    )
    _report(
        9,
        worst < 1e-10 and monotone,
        f"Beta family worst rel dev {worst:.2e}; level-doubling monotone past 8",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = cli.main(
            ["periods", "-k", "2", "-n", "3", "-l", "2+1i", "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    _report(10, identical, "two runs of cmd_periods are byte-identical")
