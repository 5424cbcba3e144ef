"""Generalized Fermat curves of type (k, n).

A curve of type (k, n) is a cyclic-group cover of the sphere branched over
the n + 1 points {infinity, 0, 1, lambda_1, ..., lambda_{n-2}}, each of
order k.  This module owns the combinatorial data attached to such a curve:
the finite branch set R, the genus, the exponent tuples alpha indexing the
basis of holomorphic 1-forms, and the derived eigenvalue exponents M used
throughout the period computation.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field

from .errors import CollidingBranchPoints, DegenerateInput


@dataclass(frozen=True)
class CurveSpec:
    """A validated curve of type (k, n) with finite branch set R.

    R is ordered as (0, 1, lambda_1, ..., lambda_{n-2}); the branch point at
    infinity never enters any integral and is not stored.
    """

    k: int
    n: int
    lambdas: tuple[complex, ...]
    branch_points: tuple[complex, ...] = field(init=False)

    def __post_init__(self):
        r = (0j, 1 + 0j) + tuple(complex(v) for v in self.lambdas)
        object.__setattr__(self, "branch_points", r)


@dataclass(frozen=True)
class FormIndex:
    """Exponent tuple alpha = (alpha_1, ..., alpha_n) indexing one holomorphic 1-form.

    The derived tuple M has M_1 = alpha_1 + 1 and M_i = -alpha_i for i >= 2;
    zeta_k**M_i is the eigenvalue picked up by the pulled-back form under the
    i-th deck generator.
    """

    alpha: tuple[int, ...]
    m_exponents: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        a = tuple(int(v) for v in self.alpha)
        object.__setattr__(self, "alpha", a)
        m = (a[0] + 1,) + tuple(-v for v in a[1:])
        object.__setattr__(self, "m_exponents", m)


def validate_spec(k: int, n: int, lambdas) -> CurveSpec:
    """Validate (k, n, lambdas) and build the CurveSpec.

    Raises DegenerateInput for out-of-range k, n, a wrong-length lambda
    list or a non-finite lambda, and CollidingBranchPoints when any two of
    {0, 1, lambda_i} coincide exactly.
    """
    k = int(k)
    n = int(n)
    lams = tuple(complex(v) for v in lambdas)
    if k < 2 or n < 2:
        raise DegenerateInput(f"need k >= 2 and n >= 2, got k={k}, n={n}")
    if len(lams) != n - 2:
        raise DegenerateInput(
            f"need exactly n-2 = {n - 2} lambda values, got {len(lams)}"
        )
    for i, lam in enumerate(lams, start=1):
        if not cmath.isfinite(lam):
            raise DegenerateInput(f"lambda_{i} must be finite, got {lam}")
    spec = CurveSpec(k=k, n=n, lambdas=lams)
    r = spec.branch_points
    for i in range(len(r)):
        for j in range(i + 1, len(r)):
            if r[i] == r[j]:
                raise CollidingBranchPoints(
                    f"branch points r_{i + 1} and r_{j + 1} coincide at {r[i]}"
                )
    return spec


def genus(spec: CurveSpec) -> int:
    """Genus g = (2 + k**(n-1) * ((n-1)(k-1) - 2)) / 2."""
    k, n = spec.k, spec.n
    num = 2 + k ** (n - 1) * ((n - 1) * (k - 1) - 2)
    assert num % 2 == 0
    return num // 2


def enumerate_forms(spec: CurveSpec) -> list[FormIndex]:
    """All exponent tuples with 0 <= alpha_i <= k-1 (i >= 2) and
    0 <= alpha_1 <= sum(alpha_2..alpha_n) - 2, in lexicographic order.

    The count always equals the genus.
    """
    k, n = spec.k, spec.n
    forms = []
    for tail in itertools.product(range(k), repeat=n - 1):
        top = sum(tail) - 2
        for a1 in range(top + 1):
            forms.append(FormIndex(alpha=(a1,) + tail))
    forms.sort(key=lambda f: f.alpha)
    return forms

