import itertools

import pytest

from gfcperiods import enumerate_forms, genus, validate_spec
from gfcperiods.curve import FormIndex, _alphas
from gfcperiods.errors import CollidingBranchPoints, DegenerateInput


def test_validate_classical_fermat():
    spec = validate_spec(3, 2, [])
    assert spec.k == 3 and spec.n == 2
    assert spec.branch_points == (0j, 1 + 0j)


def test_validate_minimal_lambda():
    spec = validate_spec(2, 3, [2.0])
    assert spec.branch_points == (0j, 1 + 0j, 2 + 0j)


def test_validate_rejects_lambda_collision():
    with pytest.raises(CollidingBranchPoints):
        validate_spec(2, 3, [1.0])
    with pytest.raises(CollidingBranchPoints):
        validate_spec(2, 3, [0.0])
    with pytest.raises(CollidingBranchPoints):
        validate_spec(2, 4, [2.0, 2.0])


@pytest.mark.parametrize("k,n,lams", [(1, 2, []), (2, 1, []), (2, 3, []), (2, 2, [5.0])])
def test_validate_rejects_degenerate(k, n, lams):
    with pytest.raises(DegenerateInput):
        validate_spec(k, n, lams)


@pytest.mark.parametrize(
    "lams,message",
    [
        ([complex("nan"), 2.0], "lambda_1 must be finite, got (nan+0j)"),
        ([2.0, complex(1.0, float("nan"))], "lambda_2 must be finite, got (1+nanj)"),
        ([2.0, complex("1e400")], "lambda_2 must be finite, got (inf+0j)"),
    ],
)
def test_validate_rejects_non_finite_lambda(lams, message):
    with pytest.raises(DegenerateInput) as err:
        validate_spec(2, 4, lams)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "k,n,expected",
    [(3, 2, 1), (2, 3, 1), (2, 4, 5), (4, 2, 3), (2, 2, 0)],
)
def test_genus_values(k, n, expected):
    spec = validate_spec(k, n, [2.0 + 1.0j * i for i in range(n - 2)])
    assert genus(spec) == expected


def test_genus_matches_classical_fermat():
    for k in range(2, 7):
        spec = validate_spec(k, 2, [])
        assert genus(spec) == (k - 1) * (k - 2) // 2


@pytest.mark.parametrize(
    "k,n,expected",
    [
        (3, 2, [(0, 2)]),
        (4, 2, [(0, 2), (0, 3), (1, 3)]),
        (2, 3, [(0, 1, 1)]),
    ],
)
def test_enumerate_forms_examples(k, n, expected):
    spec = validate_spec(k, n, [2.0] * (n - 2))
    assert [f.alpha for f in enumerate_forms(spec)] == expected
    # the forms are built once per (k, n), but each call returns its own list
    enumerate_forms(spec).clear()
    assert [f.alpha for f in enumerate_forms(validate_spec(k, n, [3.0] * (n - 2)))] == expected


def test_form_count_equals_genus():
    for k in range(2, 7):
        for n in range(2, 6):
            spec = validate_spec(k, n, [2.0 + 0.5j * i for i in range(n - 2)])
            assert len(enumerate_forms(spec)) == genus(spec)


@pytest.mark.parametrize("k,n", [(2, 2), (3, 3), (4, 4), (7, 3)])
def test_alphas_are_the_forms_exponents_in_lex_order(k, n):
    # info lists these tuples without building a FormIndex; they are the
    # forms' alphas, and the admissible tuples sorted
    spec = validate_spec(k, n, [2.0 + 0.5j * i for i in range(n - 2)])
    alphas = _alphas(k, n)
    assert list(alphas) == [f.alpha for f in enumerate_forms(spec)]
    # alpha_1 <= sum(alpha_2..alpha_n) - 2 may exceed k - 1
    ranges = [range((n - 1) * (k - 1))] + [range(k)] * (n - 1)
    admissible = [a for a in itertools.product(*ranges) if a[0] <= sum(a[1:]) - 2]
    assert list(alphas) == sorted(admissible)
    assert _alphas(k, n) is alphas


def test_forms_satisfy_bounds_and_order():
    spec = validate_spec(4, 3, [2.0])
    forms = enumerate_forms(spec)
    assert [f.alpha for f in forms] == sorted(f.alpha for f in forms)
    for f in forms:
        a = f.alpha
        assert all(0 <= v <= spec.k - 1 for v in a[1:])
        assert 0 <= a[0] <= sum(a[1:]) - 2


@pytest.mark.parametrize(
    "alpha,expected",
    [((0, 2), (1, -2)), ((1, 3), (2, -3)), ((0, 1, 1), (1, -1, -1))],
)
def test_m_exponents(alpha, expected):
    assert FormIndex(alpha=alpha).m_exponents == expected


def test_m_exponents_signs_and_determinism():
    spec = validate_spec(5, 3, [2.0])
    for f in enumerate_forms(spec):
        m = f.m_exponents
        assert m[0] >= 1
        assert all(v <= 0 for v in m[1:])
        assert FormIndex(alpha=f.alpha).m_exponents == m
