import cmath
import math


from gfcperiods import (
    conjugation_phase,
    enumerate_forms,
    enumerate_generators,
    expand,
    validate_spec,
)
from gfcperiods.curve import FormIndex
from gfcperiods.homology import ConjComm, Power


def test_generator_list_k2_n2():
    spec = validate_spec(2, 2, [])
    words = enumerate_generators(spec)
    assert words == [
        ConjComm(g=(0, 0), j=1, l=2),
        ConjComm(g=(0, 1), j=1, l=2),
        ConjComm(g=(1, 0), j=1, l=2),
        ConjComm(g=(1, 1), j=1, l=2),
    ]


def test_generator_counts():
    assert len(enumerate_generators(validate_spec(2, 3, [2.0]))) == 24
    words = enumerate_generators(validate_spec(3, 2, []), include_powers=True)
    assert len(words) == 11
    assert words[0] == Power(1) and words[1] == Power(2)


def test_generator_count_formula():
    for k in range(2, 5):
        for n in range(2, 5):
            spec = validate_spec(k, n, [2.0 + 0.5j * i for i in range(n - 2)])
            expected = math.comb(n, 2) * k**n
            assert len(enumerate_generators(spec)) == expected


def test_expand_power():
    assert expand(Power(1), 3) == ((1, 1), (1, 1), (1, 1))


def test_expand_plain_commutator():
    word = ConjComm(g=(0, 0), j=1, l=2)
    assert expand(word, 2) == ((1, 1), (2, 1), (1, -1), (2, -1))


def test_expand_conjugated_commutator():
    word = ConjComm(g=(1, 0), j=1, l=2)
    assert expand(word, 3) == (
        (1, 1),
        (1, 1),
        (2, 1),
        (1, -1),
        (2, -1),
        (1, -1),
    )


def test_expand_letter_count():
    spec = validate_spec(3, 3, [2.0])
    for word in enumerate_generators(spec):
        total_g = sum(word.g)
        assert len(expand(word, spec.k)) == 2 * total_g + 4


def _free_reduce(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def test_commutator_words_never_reduce_to_identity():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        spec = validate_spec(k, n, [2.0] * (n - 2))
        for word in enumerate_generators(spec):
            reduced = _free_reduce(expand(word, k))
            assert len(reduced) >= 4


def test_conjugation_phase_examples():
    form = FormIndex(alpha=(0, 2))  # M = (1, -2)
    assert conjugation_phase(ConjComm(g=(0, 0), j=1, l=2), form, 3) == 1
    zeta3 = cmath.exp(2j * cmath.pi / 3)
    p10 = conjugation_phase(ConjComm(g=(1, 0), j=1, l=2), form, 3)
    p01 = conjugation_phase(ConjComm(g=(0, 1), j=1, l=2), form, 3)
    assert abs(p10 - zeta3) < 1e-15
    assert p01 == p10  # -2 = 1 mod 3, computed identically after reduction


def test_conjugation_phase_depends_only_on_sum_mod_k():
    import itertools

    for k in range(2, 5):
        for n in range(2, 4):
            spec = validate_spec(k, n, [2.0] * (n - 2))
            for form in enumerate_forms(spec):
                m = form.m_exponents
                seen = {}
                for g in itertools.product(range(k), repeat=n):
                    key = sum(gd * md for gd, md in zip(g, m)) % k
                    phase = conjugation_phase(ConjComm(g=g, j=1, l=2), form, k)
                    if key in seen:
                        assert phase == seen[key]
                    else:
                        seen[key] = phase
                    assert abs(abs(phase) - 1.0) < 1e-15
