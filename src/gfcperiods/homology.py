"""Symbolic generating set of the first homology group.

The generators are words in the free generators phi_1, ..., phi_n of the
fundamental group of the punctured plane: the conjugated commutators
rho [phi_j, phi_l] rho**-1 with rho = prod_d phi_d**g_d, 0 <= g_d <= k-1.
The k-th powers phi_i**k are words too: their homology classes on the
closed curve are null, so they are no generators, and the contour oracle
integrates them to check that they vanish.  Words are kept unreduced; the
oracle integrates their literal letter-by-letter spelling.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

from .curve import CurveSpec, FormIndex


@dataclass(frozen=True)
class Power:
    """The word phi_i**k (generator index i is 1-based)."""

    i: int


@dataclass(frozen=True)
class ConjComm:
    """The word rho [phi_j, phi_l] rho**-1 with rho = prod_d phi_d**g_d, j < l."""

    g: tuple[int, ...]
    j: int
    l: int


HomologyWord = Power | ConjComm


def enumerate_generators(spec: CurveSpec) -> list[ConjComm]:
    """All ConjComm(g, j, l) in lexicographic (j, l, g) order, count C(n,2)*k**n:
    word p * k**n + g . (k**(n-1), ..., k, 1) has the p-th pair (j, l)."""
    k, n = spec.k, spec.n
    return [
        ConjComm(g=g, j=j, l=l)
        for j, l in itertools.combinations(range(1, n + 1), 2)
        for g in itertools.product(range(k), repeat=n)
    ]


def expand(word: HomologyWord, k: int) -> tuple[tuple[int, int], ...]:
    """Spell a word out as free-group letters, (generator index, +1 or -1)
    pairs; no free reduction is applied."""
    if isinstance(word, Power):
        return ((word.i, +1),) * k
    rho = []
    for d, e in enumerate(word.g, start=1):
        rho.extend((d, +1) for _ in range(e))
    comm = [(word.j, +1), (word.l, +1), (word.j, -1), (word.l, -1)]
    rho_inv = [(d, -1) for d, _ in reversed(rho)]
    return tuple(rho + comm + rho_inv)


def zeta_power(k: int, e: int) -> complex:
    """zeta_k**e with the exponent reduced mod k."""
    return cmath.exp(2j * cmath.pi * (e % k) / k)


def conjugation_phase(word: ConjComm, form: FormIndex, k: int) -> complex:
    """zeta_k ** (sum_d g_d * M_d), the factor a conjugator rho contributes.

    The exponent is reduced mod k so the value depends on g only through
    sum(g_d * M_d) mod k.
    """
    return zeta_power(k, sum(gd * md for gd, md in zip(word.g, form.m_exponents)))
