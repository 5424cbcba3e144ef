"""Period matrix assembly from the closed-form entry formula.

Every period of a holomorphic form over a conjugated-commutator generator
factors through the n base integrals

    J_i = integral from z0 to r_i of W dw,

all taken with one branch determination anchored at the shared base point.
The entry for rho [phi_j, phi_l] rho**-1 with rho = prod phi_d**g_d is

    zeta**(sum_d g_d M_d) * (1 - zeta**M_j)(1 - zeta**M_l)/k * (J_l - J_j),

with zeta = exp(2 pi i / k); J_l - J_j realizes the integral from r_j to
r_l routed through the base point.  The power words phi_i**k are null in
homology and take no rows; the contour oracle re-derives that numerically.

For n = 2 (the classical Fermat curve) the legs are not integrated: every
period depends on J only through D = J_2 - J_1, which is the Beta value

    D = B(a, b) * exp(i pi (b - a)),  a = (alpha_1 + 1)/k,  b = 1 - alpha_2/k

(Rohrlich, appendix to Gross, Invent. Math. 45, 1978), so assemble takes
J_1 = 0 and J_2 = D, and the quadrature settings act only on n >= 3.  The
phase is that of the legs' branch at the default base point 1/2 + 2i, and
at any base point in the upper half-plane.  base_integrals keeps the legs
for every n; the oracle's checks and the tests compare D against them.

The conjugator enters only through the phase exponent mod k, so the
k**n * C(n,2) commutator rows take at most k * C(n,2) * g distinct values.
assemble computes each of them once and stores the matrix as that table
and an index array of the same shape as the matrix.  The rows follow the
arithmetic layout of the generating set (see PeriodMatrix), so no word
object is built.

Everything in that table but J depends on the curve type (k, n) alone,
and is built once per type (_type_factors): the phase exponent of every
conjugator, the phases times the prefactors, the zero slots and the pair
indices, as read-only arrays.  J, the values and the index are computed
on every call; nothing that depends on lambda is cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import contour, quad
from .curve import CurveSpec, FormIndex, enumerate_forms
from .errors import IntegralUnderflow
from .homology import ConjComm, conjugation_phase, zeta_power
from .quad import QuadConfig


@dataclass(frozen=True)
class PeriodMatrix:
    """Periods of every form (columns) over every generator (rows).

    Row c of m_exponents (forms x n int64) is the character M of the c-th
    form of enumerate_forms(spec), M_1 = alpha_1 + 1 and M_i = -alpha_i for
    i >= 2, through which alone a form enters its entries.

    The matrix is stored factored: values is a 1-D complex table and index
    (rows x cols int32) places its entries, so the period of form c over word
    s is values[index[s, c]].  entries gathers it anew on each access; no
    pipeline step reads it.  Row s = p * k**n + g . (k**(n-1), ..., k, 1) is
    the conjugated commutator of the p-th pair (j, l) in lex order and the
    conjugator g; enumerate_generators(spec)[s] spells it out.

    base_integrals holds J (n x forms) up to one constant per form, which
    no period sees: for n >= 3 the integrals from the base point, for
    n = 2 the integrals from r_1, J_1 = 0 and J_2 = D, in the branch the
    legs take from the base point 1/2 + 2i (or any in the upper half-plane).
    """

    m_exponents: np.ndarray
    values: np.ndarray
    index: np.ndarray
    base_integrals: np.ndarray
    base_point: complex
    spec: CurveSpec

    @property
    def entries(self) -> np.ndarray:
        return self.values[self.index]

    def identity_rows(self) -> np.ndarray:
        """The g = 0 row of each pair (j, l), p * k**n for the p-th pair; its
        k**n rows follow in lex g order."""
        return np.arange(math.comb(self.spec.n, 2)) * self.spec.k**self.spec.n


def base_integrals(spec: CurveSpec, cfg: QuadConfig) -> np.ndarray:
    """J[i-1, c] = integral from z0 to r_i of W dw for the c-th form.

    All legs start from the default base point with the same principal
    branch state, and go through one `quad.leg_rows` batch.  A J that is
    exactly 0 has underflowed, and raises IntegralUnderflow naming its leg
    and form.
    """
    R = spec.branch_points
    state0 = contour.init_branch(contour.default_base_point(R), R)
    forms = enumerate_forms(spec)
    J = quad.leg_rows(state0, range(1, spec.n + 1), forms, spec, cfg)
    zero = np.argwhere(J == 0)
    if zero.size:
        i, c = zero[0]
        raise IntegralUnderflow(
            f"base integral i={i + 1}, alpha={forms[c].alpha} is exactly 0"
        )
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


def _factor_table(M: np.ndarray, J: np.ndarray, k: int):
    """The factorisation (values, index) of period_entry over every
    (generator, form) pair, M the forms' m_exponents (forms x n), each
    cell values[index] bit-identical to the scalar routine.

    values holds one entry per (phase e in Z_k, pair (j, l), form), at
    (e * P + pair) * g + form for the C(n,2) = P pairs in lexicographic
    order and the g forms.  Slots whose M_j or M_l is 0 mod k are exact
    zeros.  index has one row per generator in the layout of PeriodMatrix:
    row p * k**n + g . (k**(n-1), ..., k, 1) is the p-th pair's conjugator
    g, and its cell c points at the phase e = (g . M_c) mod k.

    Everything but J comes from _type_factors, built once per curve type;
    here J enters through the differences J_l - J_j.  The two complex
    products are written out in real arithmetic in the scalar routine's
    order, (phase * pref) * diff, because numpy's complex multiply may
    fuse a multiply and an add and round the last bit differently.  values
    and index are new arrays on every call.
    """
    M = np.asarray(M, dtype=np.int64)
    phase, ab_re, ab_im, zero, jj, ll = _type_factors(M.tobytes(), M.shape, k)
    d_re = J.real[ll] - J.real[jj]
    d_im = J.imag[ll] - J.imag[jj]
    values = np.empty(ab_re.shape, dtype=complex)
    values.real = ab_re * d_re - ab_im * d_im
    values.imag = ab_re * d_im + ab_im * d_re
    values[:, zero] = 0j
    # widen to int32 in the multiply (the products outgrow the phase
    # dtype): 2**31 slots of values would need k**(n-1) times as many cells
    width = len(jj) * len(M)
    slot = np.arange(width, dtype=np.int32).reshape(len(jj), 1, -1)
    index = np.multiply(phase, np.int32(width), dtype=np.int32) + slot
    return values.ravel(), index.reshape(len(phase) * len(jj), len(M))


@lru_cache(maxsize=16)
def _type_factors(data: bytes, shape: tuple[int, int], k: int):
    """The parts of _factor_table that J does not enter, for the forms'
    m_exponents M given as int64 bytes and shape, built once per curve
    type, as read-only arrays: the phase exponent (g . M_c) mod k of every
    conjugator g (k**n x forms, row g . radix), the real and imaginary
    parts of zeta**e * (1 - zeta**M_j)(1 - zeta**M_l)/k (k x pairs x
    forms), the mask of the slots whose M_j or M_l is 0 mod k (pairs x
    forms), and the pairs' j and l, 0-based.

    The phase and the prefactor come from tables of Python complex values
    indexed by exponents mod k, built from the k values zeta_power(k, e),
    and their product is written out in real arithmetic, as in
    period_entry.
    """
    n = shape[1]
    M = np.frombuffer(data, dtype=np.int64).reshape(shape) % k
    pairs = list(itertools.combinations(range(n), 2))
    jj = np.asarray([j for j, _ in pairs], dtype=np.intp)
    ll = np.asarray([l for _, l in pairs], dtype=np.intp)
    powers = [zeta_power(k, e) for e in range(k)]
    zeta = np.asarray(powers)[:, None, None]
    pref = np.asarray([[(1 - a) * (1 - b) / k for b in powers] for a in powers])
    Mj, Ml = M[:, jj].T, M[:, ll].T
    b = pref[Mj, Ml]
    ab_re = zeta.real * b.real - zeta.imag * b.imag
    ab_im = zeta.real * b.imag + zeta.imag * b.real

    # the phase exponent of every conjugator g in Z_k**n, at row g . radix,
    # summed one coordinate at a time in the narrowest dtype that holds
    # 2k - 1, each partial sum brought below k by one subtraction
    small = np.min_scalar_type(2 * k - 1).type
    steps = ((np.arange(k)[:, None, None] * M) % k).astype(small)
    phase = steps[:, :, 0]
    for d in range(1, n):
        phase = (phase[:, None, :] + steps[:, :, d]).reshape(len(phase) * k, len(M))
        phase -= (phase >= k) * small(k)
    tables = (phase, ab_re, ab_im, (Mj == 0) | (Ml == 0), jj, ll)
    for table in tables:
        table.flags.writeable = False
    return tables


def _beta_rows(M: np.ndarray, k: int) -> np.ndarray:
    """J of a (k, 2) curve up to one constant per form, M the forms'
    m_exponents: J_1 = 0 and J_2 = D = B(a, b) exp(i pi (b - a)),
    a = (alpha_1 + 1)/k = j_a/k and b = 1 - alpha_2/k = j_b/k, so
    j_a = M_1 and j_b = k + M_2.

    The forms have j_a + j_b <= k - 1, so B = Gamma(a) Gamma(b) / Gamma(a + b)
    reads a table of Gamma(j/k), j = 1..k-1, and the phase a table of cos
    and sin of pi m/k, |m| <= k - 2; numpy only gathers.  Each Gamma(x) is
    the mean of math.gamma(x) and math.gamma(1 + x)/x, two evaluations with
    independent rounding errors of 1-2 ulp: against 40-digit values the
    mean's B was 6.3e-16 off on average over k = 3..40, and math.gamma(x)
    alone 6.9e-16.  Exp of a sum of lgamma values lost 2-3 times more.
    """
    ja, jb = M[:, 0], k + M[:, 1]
    gamma = [0.5 * (math.gamma(j / k) + math.gamma((k + j) / k) * k / j) for j in range(1, k)]
    gamma = np.asarray([math.nan] + gamma)
    beta = gamma[ja] * gamma[jb] / gamma[ja + jb]
    # angle m at m + k - 2
    angles = [math.pi * m / k for m in range(2 - k, k - 1)]
    cos = np.asarray([math.cos(t) for t in angles])
    sin = np.asarray([math.sin(t) for t in angles])
    J = np.zeros((2, len(M)), dtype=complex)
    J[1].real = beta * cos[jb - ja + k - 2]
    J[1].imag = beta * sin[jb - ja + k - 2]
    return J


def assemble(spec: CurveSpec, cfg: QuadConfig) -> PeriodMatrix:
    """Full period matrix over the generating set, deterministic ordering.

    For n >= 3, J comes from the tanh-sinh legs (base_integrals), under
    cfg's tolerance and level cap.  For n = 2 it comes from the Beta
    closed form (_beta_rows), with no quadrature, and cfg is not read:
    J_1 = 0 and J_2 = D, whose phase is that of the legs' branch at the
    base point 1/2 + 2i, as at any base point in the upper half-plane.
    """
    forms = enumerate_forms(spec)
    M = np.asarray([f.m_exponents for f in forms], dtype=np.int64).reshape(len(forms), spec.n)
    J = _beta_rows(M, spec.k) if spec.n == 2 else base_integrals(spec, cfg)
    values, index = _factor_table(M, J, spec.k)
    return PeriodMatrix(
        m_exponents=M,
        values=values,
        index=index,
        base_integrals=J,
        base_point=contour.default_base_point(spec.branch_points),
        spec=spec,
    )
