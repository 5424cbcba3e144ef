"""Period matrix assembly from the closed-form entry formula.

Every period of a holomorphic form over a conjugated-commutator generator
factors through the n base integrals

    J_i = integral from z0 to r_i of W dw,

all taken with one branch determination anchored at the shared base point.
The entry for rho [phi_j, phi_l] rho**-1 with rho = prod phi_d**g_d is

    zeta**(sum_d g_d M_d) * (1 - zeta**M_j)(1 - zeta**M_l)/k * (J_l - J_j),

with zeta = exp(2 pi i / k); J_l - J_j realizes the integral from r_j to
r_l routed through the base point.  Rows for the power words phi_i**k are
exactly zero (their homology classes are null); the contour oracle
re-derives that numerically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import contour, quad
from .curve import CurveSpec, FormIndex, enumerate_forms
from .homology import ConjComm, HomologyWord, conjugation_phase, enumerate_generators
from .quad import QuadConfig


def zeta_power(k: int, e: int) -> complex:
    """zeta_k**e with the exponent reduced mod k."""
    return cmath.exp(2j * cmath.pi * (e % k) / k)


@dataclass(frozen=True)
class PeriodMatrix:
    """Periods of every form (columns) over every generator (rows)."""

    rows: tuple[HomologyWord, ...]
    cols: tuple[FormIndex, ...]
    entries: np.ndarray
    base_integrals: np.ndarray
    base_point: complex
    spec: CurveSpec


def base_integrals(spec: CurveSpec, cfg: QuadConfig) -> np.ndarray:
    """J[i-1, c] = integral from z0 to r_i of W dw for the c-th form.

    All legs start from the default base point with the same principal
    branch state; the per-leg continuation tables are shared across forms.
    """
    R = spec.branch_points
    state0 = contour.init_branch(contour.default_base_point(R), R)
    forms = enumerate_forms(spec)
    J = np.zeros((spec.n, len(forms)), dtype=complex)
    for i in range(1, spec.n + 1):
        J[i - 1] = quad.leg_row(state0, i, forms, spec, cfg)
    return J


def period_entry(word: ConjComm, form: FormIndex, J_col, k: int) -> complex:
    """Closed-form period of one form over one conjugated commutator.

    J_col holds the n base integrals of this form.  Entries with
    M_j or M_l divisible by k vanish through the (1 - zeta**M) prefactor
    and are returned as exact zeros.
    """
    m = form.m_exponents
    mj, ml = m[word.j - 1], m[word.l - 1]
    if mj % k == 0 or ml % k == 0:
        return 0j
    phase = conjugation_phase(word, form, k)
    pref = (1 - zeta_power(k, mj)) * (1 - zeta_power(k, ml)) / k
    return phase * pref * (complex(J_col[word.l - 1]) - complex(J_col[word.j - 1]))


def _entry_table(words, forms, J: np.ndarray, k: int) -> np.ndarray:
    """period_entry for every (word, form) pair at once, bit-identical to
    the scalar routine.

    The phase and the prefactor come from tables of Python complex values
    indexed by exponents mod k.  The two complex products are written out
    in real arithmetic in the scalar routine's order, (phase * pref) * diff,
    because numpy's complex multiply may fuse a multiply and an add and
    round the last bit differently.
    """
    entries = np.zeros((len(words), len(forms)), dtype=complex)
    if not forms:  # genus 0
        return entries
    rows = [s for s, word in enumerate(words) if isinstance(word, ConjComm)]
    comm = [words[s] for s in rows]
    G = np.asarray([w.g for w in comm], dtype=np.int64)
    jj = np.asarray([w.j - 1 for w in comm])
    ll = np.asarray([w.l - 1 for w in comm])
    M = np.asarray([f.m_exponents for f in forms], dtype=np.int64) % k
    zeta = np.asarray([zeta_power(k, e) for e in range(k)])
    pref = np.asarray(
        [[(1 - zeta_power(k, a)) * (1 - zeta_power(k, b)) / k for b in range(k)]
         for a in range(k)]
    )
    Mj, Ml = M[:, jj].T, M[:, ll].T
    a = zeta[(G @ M.T) % k]
    b = pref[Mj, Ml]
    ab_re = a.real * b.real - a.imag * b.imag
    ab_im = a.real * b.imag + a.imag * b.real
    d_re = J.real[ll] - J.real[jj]
    d_im = J.imag[ll] - J.imag[jj]
    block = np.empty(ab_re.shape, dtype=complex)
    block.real = ab_re * d_re - ab_im * d_im
    block.imag = ab_re * d_im + ab_im * d_re
    block[(Mj == 0) | (Ml == 0)] = 0j
    entries[rows] = block
    return entries


def assemble(
    spec: CurveSpec, cfg: QuadConfig, include_powers: bool = False
) -> PeriodMatrix:
    """Full period matrix over the generating set, deterministic ordering."""
    forms = tuple(enumerate_forms(spec))
    words = tuple(enumerate_generators(spec, include_powers=include_powers))
    J = base_integrals(spec, cfg)
    return PeriodMatrix(
        rows=words,
        cols=forms,
        entries=_entry_table(words, forms, J, spec.k),
        base_integrals=J,
        base_point=contour.default_base_point(spec.branch_points),
        spec=spec,
    )
