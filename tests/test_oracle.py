import cmath
import math
import random
import re

import numpy as np
import pytest
import scipy.integrate
from conftest import integrate_segments, literal_loop

from gfcperiods import (
    agm_elliptic_periods,
    base_integrals,
    beta_closed_form,
    contour,
    crosscheck_report,
    enumerate_forms,
    quad,
    validate_spec,
)
from gfcperiods.curve import FormIndex
from gfcperiods.errors import (
    ClearanceUnachievable,
    DegenerateLambda,
    InvalidArity,
    NoConvergence,
)
from gfcperiods.homology import ConjComm, Power, expand
from gfcperiods.oracle import WordIntegrator, _optimal_agm, _sample_words
from gfcperiods.periods import zeta_power


@pytest.fixture(scope="module")
def wi32(quad_cfg):
    spec = validate_spec(3, 2, [])
    return WordIntegrator(spec, quad_cfg), base_integrals(spec, quad_cfg)


def test_separa_decomposition(wi32):
    wi, _ = wi32
    spec = wi.spec
    k = spec.k
    for c, form in enumerate(enumerate_forms(spec)):
        m = form.m_exponents
        lhs = wi.integrate_word(ConjComm(g=(0, 0), j=1, l=2), form)
        # the loop table's rows of (1, +1) and (2, +1)
        i1 = -wi._V[0, c] / k
        i2 = -wi._V[2, c] / k
        rhs = (1 - zeta_power(k, m[1])) * i1 - (1 - zeta_power(k, m[0])) * i2
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_expliciti_reduction(wi32):
    wi, J = wi32
    spec = wi.spec
    for c, form in enumerate(enumerate_forms(spec)):
        m = form.m_exponents
        for i in (1, 2):
            lhs = -wi._V[2 * (i - 1), c] / spec.k
            rhs = -(1 - zeta_power(spec.k, m[i - 1])) * J[i - 1, c] / spec.k
            assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_power_word_vanishing(wi32):
    wi, J = wi32
    for c, form in enumerate(enumerate_forms(wi.spec)):
        scale = np.max(np.abs(J[:, c]))
        for i in (1, 2):
            assert abs(wi.integrate_word(Power(i), form)) <= 1e-8 * scale


def test_sumasuma_covariance(wi32):
    wi, _ = wi32
    spec = wi.spec
    form = enumerate_forms(spec)[0]
    base = wi.integrate_word(ConjComm(g=(0, 0), j=1, l=2), form)
    from gfcperiods.homology import conjugation_phase

    for g in [(1, 0), (0, 1), (2, 2), (1, 2)]:
        word = ConjComm(g=g, j=1, l=2)
        lhs = wi.integrate_word(word, form)
        rhs = conjugation_phase(word, form, spec.k) * base
        assert abs(lhs - rhs) < 1e-8 * abs(base)


def _literal_word(wi, word, form):
    """-1/k times the word's integral of one form, one loop per letter from
    the branch state the letters before it left: the reference for the
    integrator's reuse of each loop's integrals."""
    E = contour.exponent_matrix([form], wi.spec.k, wi.spec.n)
    logs = wi.state0.logs
    total = 0j
    for i, sign in expand(word, wi.spec.k):
        loop = literal_loop(wi.base_point, i, wi.R, sign)
        (value,), logs = integrate_segments(loop, logs, wi.R, E, wi.cfg)
        total += value
    return -total / wi.spec.k


def test_memoized_matches_literal_traversal(quad_cfg):
    spec = validate_spec(2, 3, [2.0])
    wi = WordIntegrator(spec, quad_cfg)
    form = enumerate_forms(spec)[0]
    for word in [ConjComm(g=(1, 0, 1), j=1, l=3), ConjComm(g=(0, 1, 1), j=2, l=3)]:
        fast = wi.integrate_word(word, form)
        slow = _literal_word(wi, word, form)
        assert abs(fast - slow) < 1e-10 * max(1.0, abs(slow))


@pytest.mark.parametrize(
    "k,n,lams,words",
    [
        (
            3, 3, [-1.5],
            [ConjComm(g=(1, 0, 1), j=1, l=3), ConjComm(g=(0, 2, 1), j=2, l=3)],
        ),
        (
            2, 4, [2.0, 2.0 + 1.0j],
            [ConjComm(g=(1, 0, 0, 1), j=1, l=4), ConjComm(g=(0, 1, 1, 0), j=2, l=3)],
        ),
        (5, 3, [-1.5], [ConjComm(g=(1, 0, 1), j=1, l=3)]),
        (4, 3, [0.115 + 0.842j], [ConjComm(g=(0, 0, 0), j=1, l=2)]),
    ],
)
def test_word_row_matches_literal_traversal(k, n, lams, words, quad_cfg):
    spec = validate_spec(k, n, lams)
    wi = WordIntegrator(spec, quad_cfg)
    if (k, n) == (4, 3):
        # lambda lies next to the line from the base point to r_1
        assert len(literal_loop(wi.base_point, 1, wi.R, +1)) == 5
    for word in words:
        row = wi.word_rows([word])[0]
        assert row.shape == (len(wi.forms),)
        literal = np.asarray([_literal_word(wi, word, form) for form in wi.forms])
        assert np.max(np.abs(row - literal)) <= 1e-12 * np.max(np.abs(row))
        for c, form in enumerate(wi.forms):
            assert wi.integrate_word(word, form) == row[c]


@pytest.mark.parametrize(
    "k,n,lams,detoured", [(3, 3, [-1.5], set()), (4, 3, [0.115 + 0.842j], {1})]
)
def test_loop_row_matches_literal_loop_path(k, n, lams, detoured, quad_cfg):
    # each loop's route in and circle are integrated once; the way out and
    # the -1 loop come from the deck-action phase and must agree with the
    # literal traversal of the loop
    spec = validate_spec(k, n, lams)
    wi = WordIntegrator(spec, quad_cfg)
    E = contour.exponent_matrix(wi.forms, k, n)
    for i in range(1, n + 1):
        assert len(literal_loop(wi.base_point, i, wi.R, +1)) == (5 if i in detoured else 3)
        for orientation in (+1, -1):
            # loop (i, +1) at row 2(i - 1) of the table, (i, -1) after it
            s = 2 * (i - 1) + (orientation < 0)
            row, delta = wi._V[s], wi._D[s]
            loop = literal_loop(wi.base_point, i, wi.R, orientation)
            literal, end = integrate_segments(loop, wi.state0.logs, wi.R, E, quad_cfg)
            offsets = end - np.asarray(wi.state0.logs)
            assert np.max(np.abs(row - literal)) <= 1e-12 * np.max(np.abs(row))
            assert np.max(np.abs(delta - offsets)) <= 1e-12
        assert np.array_equal(wi._D[2 * i - 1], -wi._D[2 * i - 2])


def test_crosscheck_integrates_each_loop_piece_once(quad_cfg, monkeypatch):
    # the route in and the circle of each branch point, all from the +1
    # loop, each handed to the batch once: nothing is integrated for the way
    # out or for orientation -1
    spec = validate_spec(3, 3, [-1.5])
    z0 = contour.default_base_point(spec.branch_points)
    pieces = []
    for i in range(1, spec.n + 1):
        inbound, circle = contour.loop_pieces(z0, i, spec.branch_points)
        pieces += inbound + (circle,)
    real = quad._gl_batch
    segments = []

    def counted(segs, *args, **kwargs):
        segments.extend(segs)
        return real(segs, *args, **kwargs)

    monkeypatch.setattr(quad, "_gl_batch", counted)
    report = crosscheck_report(spec, quad_cfg, seed=0)
    assert report.passed
    assert len(segments) == len(pieces) == 2 * spec.n
    assert set(segments) == set(pieces)


def test_the_loop_table_is_built_once(quad_cfg, monkeypatch):
    # the constructor integrates every loop in one batch; a request for
    # words only reads the table
    spec = validate_spec(3, 3, [-1.5])
    real = quad._gl_batch
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(quad, "_gl_batch", counted)
    wi = WordIntegrator(spec, quad_cfg)
    assert len(calls) == 1
    assert wi._V.shape == (2 * spec.n, len(wi.forms))
    assert wi._D.shape == (2 * spec.n, spec.n)
    wi.word_rows([Power(i) for i in range(1, spec.n + 1)] + _sample_words(spec, 9, 0))
    wi.word_rows([Power(2)])
    assert len(calls) == 1


def test_word_rows_match_each_word_alone(quad_cfg):
    # one request for many words, with letters of every loop and padding
    # for the shorter words, against one fresh request per word
    spec = validate_spec(3, 4, [-1.5, 2.0 + 1.0j])
    words = [Power(2), ConjComm(g=(2, 0, 1, 2), j=1, l=4), Power(4)]
    words += [ConjComm(g=(0, 0, 0, 0), j=2, l=3), ConjComm(g=(1, 1, 0, 0), j=3, l=4)]
    rows = WordIntegrator(spec, quad_cfg).word_rows(words + words[:2])
    assert rows.shape == (len(words) + 2, len(enumerate_forms(spec)))
    assert np.array_equal(rows[-2:], rows[:2])
    scale = np.max(np.abs(rows))
    for word, row in zip(words, rows):
        alone = WordIntegrator(spec, quad_cfg).word_rows([word])[0]
        assert np.max(np.abs(row - alone)) <= 1e-15 * scale


def test_empty_word_request_gives_no_rows(wi32):
    wi, _ = wi32
    rows = wi.word_rows([])
    assert rows.shape == (0, len(wi.forms))
    assert rows.dtype == complex


def test_word_no_convergence_names_the_loop(quad_cfg, monkeypatch):
    # one panel count, so no piece converges: the first piece, loop 1's
    # route in, is named with the first form
    monkeypatch.setattr(quad, "_GL_MAX_PANELS", 4)
    spec = validate_spec(3, 2, [])
    form = enumerate_forms(spec)[0]
    expected = re.escape(f"loop i=1, route in, alpha={form.alpha}: ")
    with pytest.raises(NoConvergence, match=expected):
        WordIntegrator(spec, quad_cfg)


def test_batch_no_convergence_names_the_lower_loop(quad_cfg, monkeypatch):
    # lambda = 1.05 lies next to r_2 = 1: the routes in of loops 2 and 3
    # need 64 panels and every other piece 8, so at 32 both loops fail, and
    # the batch of all the loops names loop 2
    spec = validate_spec(3, 3, [1.05])
    monkeypatch.setattr(quad, "_GL_MAX_PANELS", 32)
    with pytest.raises(NoConvergence) as err:
        WordIntegrator(spec, quad_cfg)
    alpha = enumerate_forms(spec)[err.value.form].alpha
    assert str(err.value).startswith(f"loop i=2, route in, alpha={alpha}: ")
    assert str(err.value).endswith("by Gauss-Legendre panels 32")


def test_word_routing_failure_names_the_loop(quad_cfg, monkeypatch):
    # a clearance wider than the branch set leaves no detour for any loop
    monkeypatch.setattr(contour, "_LEG_CLEARANCE", 1e3)
    expected = re.escape("loop i=1, route in: no midpoint detour")
    with pytest.raises(ClearanceUnachievable, match=expected):
        WordIntegrator(validate_spec(2, 3, [2.0]), quad_cfg)


def test_integrate_word_rejects_a_foreign_form(wi32):
    wi, _ = wi32
    with pytest.raises(ValueError, match=re.escape("alpha=(0, 1, 1) is not a form")):
        wi.integrate_word(Power(1), FormIndex(alpha=(0, 1, 1)))


@pytest.mark.parametrize("word", [Power(0), Power(3), ConjComm(g=(0, 0), j=1, l=3)])
def test_word_rows_reject_a_foreign_loop(wi32, word):
    wi, _ = wi32
    with pytest.raises(ValueError, match=re.escape("a letter's loop lies outside 1..2")):
        wi.word_rows([Power(1), word])


def test_beta_magnitude_and_phase_consistency(quad_cfg):
    # |J_2 - J_1| is the Beta value; with the branch anchored at the default
    # base point (upper half plane) the unit prefactor is
    # exp(i pi (1 - (alpha_1 + 1 + alpha_2)/k)) for every form.
    for k in (3, 4, 5):
        spec = validate_spec(k, 2, [])
        J = base_integrals(spec, quad_cfg)
        for c, form in enumerate(enumerate_forms(spec)):
            diff = J[1, c] - J[0, c]
            b = beta_closed_form(form, k)
            assert abs(abs(diff) - b) / b < 1e-9
            a1, a2 = form.alpha
            predicted = cmath.exp(1j * math.pi * (1 - (a1 + 1 + a2) / k))
            assert abs(diff / b - predicted) < 1e-9


def test_beta_closed_form_values():
    assert abs(beta_closed_form(FormIndex(alpha=(0, 1)), 2) - math.pi) < 1e-14
    g = math.gamma
    expected = g(0.25) * g(0.5) / g(0.75)
    assert abs(beta_closed_form(FormIndex(alpha=(0, 2)), 4) - expected) < 1e-12
    expected = g(1 / 3) ** 2 / g(2 / 3)
    assert abs(beta_closed_form(FormIndex(alpha=(0, 2)), 3) - expected) < 1e-12


def test_beta_closed_form_rejects_higher_rank():
    with pytest.raises(InvalidArity):
        beta_closed_form(FormIndex(alpha=(0, 1, 1)), 2)


def test_agm_fixed_point():
    assert _optimal_agm(3.7 + 0j, 3.7 + 0j) == 3.7 + 0j


def test_agm_rejects_degenerate_lambda():
    for lam in (0.0, 1.0):
        with pytest.raises(DegenerateLambda):
            agm_elliptic_periods(lam)


@pytest.mark.parametrize("lam", [2.0, 5.0])
def test_agm_matches_adaptive_quadrature(lam):
    w1, w2 = agm_elliptic_periods(lam)
    f1 = lambda x: 1.0 / math.sqrt(x * (1 - x) * (lam - x))
    v1, _ = scipy.integrate.quad(f1, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    f2 = lambda x: 1.0 / math.sqrt(x * (x - 1) * (lam - x))
    v2, _ = scipy.integrate.quad(f2, 1.0, lam, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(w1 - 2 * v1) < 1e-10 * abs(w1)
    assert abs(w2 - 2j * v2) < 1e-10 * abs(w2)
    assert abs((w2 / w1).imag) > 0.1


def _reduce_tau(tau: complex) -> complex:
    """The period ratio moved into the standard fundamental domain
    (|Re| <= 1/2, |tau| >= 1, Im > 0)."""
    if tau.imag < 0:
        tau = -tau
    for _ in range(200):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) >= 1.0 - 1e-14:
            break
        tau = -1.0 / tau
    return tau


def test_agm_lattice_shape_invariant_under_moebius():
    # lambda, 1 - lambda and 1/lambda give isomorphic curves, so the reduced
    # period ratios coincide
    for lam in (2.0, 3.0 + 1.0j):
        taus = []
        for image in (lam, 1 - lam, 1 / lam):
            w1, w2 = agm_elliptic_periods(image)
            taus.append(_reduce_tau(w2 / w1))
        for tau in taus[1:]:
            assert abs(tau - taus[0]) < 1e-8


def test_agm_carlson_crosscheck():
    # independent route: complete cycle integrals via Carlson symmetric forms
    from scipy.special import elliprf

    for lam in (2.0, 5.0, 2.0 + 1.0j):
        e1, e2, e3 = lam, 1.0, 0.0
        w1, w2 = agm_elliptic_periods(lam)
        c1 = 4.0 * elliprf(0.0, e1 - e3, e1 - e2)
        assert abs(w1 - c1) < 1e-10 * abs(w1)


def test_crosscheck_report_passes(quad_cfg):
    spec = validate_spec(3, 2, [])
    report = crosscheck_report(spec, quad_cfg, seed=0)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {
        "power_word_vanishing",
        "closed_form_vs_contour",
        "beta_magnitude",
        "lattice_double_inclusion",
    } <= names


@pytest.mark.parametrize(
    "k,n,lams", [(4, 4, [-1.5, 2.0 + 1.0j]), (2, 5, [-1.5, 2.0 + 1.0j, 2.0])]
)
def test_crosscheck_report_passes_beyond_desk_scale(k, n, lams, quad_cfg):
    report = crosscheck_report(validate_spec(k, n, lams), quad_cfg, seed=0)
    assert all(c.passed for c in report.checks), report.checks
    names = {c.name for c in report.checks}
    assert {
        "power_word_vanishing",
        "closed_form_vs_contour",
        "conjugation_covariance",
        "lattice_double_inclusion",
    } <= names


@pytest.mark.parametrize("k,n,lams", [(3, 3, [-1.5]), (2, 4, [2.0, 2.0 + 1.0j])])
def test_crosscheck_report_checks_the_lattice(k, n, lams, quad_cfg):
    report = crosscheck_report(validate_spec(k, n, lams), quad_cfg, seed=1)
    check = next(c for c in report.checks if c.name == "lattice_double_inclusion")
    assert check.passed and check.tolerance == 1e-10
    assert report.passed


def test_crosscheck_report_passes_on_random_lambda(quad_cfg):
    # 40 seeded random curves; their branch points land anywhere in the
    # square |Re|, |Im| <= 3, some close to each other or to a leg
    kinds = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (4, 3), (3, 4)]
    rng = random.Random(0)
    for c in range(40):
        k, n = kinds[c % len(kinds)]
        lams = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n - 2)]
        report = crosscheck_report(validate_spec(k, n, lams), quad_cfg, seed=c)
        assert report.passed, (k, n, lams, report.checks)


def test_crosscheck_report_agm_branch(quad_cfg):
    report = crosscheck_report(validate_spec(2, 3, [2.0]), quad_cfg, seed=3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"lattice_double_inclusion", "agm_lattice_equality"} <= names

