"""Independent verification engines.

Three routes that never touch the closed-form entry formula:

* `WordIntegrator` integrates the multivalued integrand along the literal
  loop concatenation spelled by a homology word, with the branch state
  carried continuously through every letter;
* `beta_closed_form` gives the classical Beta value that the rank-2 base
  integrals must reproduce in magnitude;
* `agm_elliptic_periods` computes genus-1 period lattices by the
  arithmetic-geometric mean, covering the (2, 3) family.

`crosscheck_report` bundles these into a machine-readable pass/fail
report against the closed-form pipeline.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import contour, quad
from .curve import CurveSpec, FormIndex, enumerate_forms, genus
from .errors import (
    ClearanceUnachievable,
    DegenerateLambda,
    InvalidArity,
    NoConvergence,
    StepTooCoarse,
)
from .homology import ConjComm, HomologyWord, Power, expand, zeta_power
from .lattice import extract_basis, real_split
from .periods import assemble
from .quad import QuadConfig


class WordIntegrator:
    """Contour oracle for one curve: integrates -W/k along word paths.

    Each letter of a word traverses the standard loop around one branch
    point.  A loop's geometric path never changes, and continuing the
    integrand from a shifted branch state only multiplies it by
    exp(sum_t e_t * delta_t) with delta the accumulated log offsets, so
    each (letter, orientation) loop is integrated once from the reference
    state, for all forms at once, and reused with that exact covariance
    factor.  A word's values over all forms are then one array expression
    over its letters.  The tests keep the literal letter-by-letter
    traversal as the reference.
    """

    def __init__(self, spec: CurveSpec, cfg: QuadConfig):
        self.spec = spec
        self.cfg = cfg
        self.R = spec.branch_points
        self.base_point = contour.default_base_point(self.R)
        self.state0 = contour.init_branch(self.base_point, self.R)
        self.forms = enumerate_forms(spec)
        self._E = contour.exponent_matrix(self.forms, spec.k, spec.n)
        self._columns = {form.alpha: c for c, form in enumerate(self.forms)}
        self._loops: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._rows: dict[HomologyWord, np.ndarray] = {}

    def _loop_row(self, i: int, orientation: int):
        """Loop integrals of all forms from the reference state and the
        loop's log offsets.  A failure is re-raised naming the loop, and a
        NoConvergence also the form."""
        key = (i, orientation)
        if key not in self._loops:
            name = f"loop i={i}, orientation={orientation:+d}"
            try:
                path = contour.loop_path(self.base_point, i, self.R, orientation)
                row, end_state = quad.integrate_smooth(
                    path, self.state0, self.forms, self.spec, self.cfg
                )
            except NoConvergence as err:
                alpha = self.forms[err.form].alpha
                raise NoConvergence(f"{name}, alpha={alpha}: {err}", err.form) from err
            except (ClearanceUnachievable, StepTooCoarse) as err:
                raise type(err)(f"{name}: {err}") from err
            delta = np.asarray(end_state.logs, dtype=complex) - np.asarray(
                self.state0.logs, dtype=complex
            )
            self._loops[key] = (row, delta)
        return self._loops[key]

    def word_row(self, word: HomologyWord) -> np.ndarray:
        """-1/k times the word's integral for every form, in form order:
        -sum_s exp(E acc_s) V_s / k over the letters s, with V_s the loop
        row and acc_s the summed log offsets of the letters before s."""
        if word not in self._rows:
            letters = expand(word, self.spec.k)
            loops = [self._loop_row(i, sign) for i, sign in letters]
            V = np.asarray([row for row, _ in loops])
            V = V.reshape(len(loops), len(self.forms))
            D = np.asarray([delta for _, delta in loops])
            acc = np.zeros_like(D)
            np.cumsum(D[:-1], axis=0, out=acc[1:])
            Et = self._E.T
            phase = np.exp(acc.real @ Et + 1j * (acc.imag @ Et))
            self._rows[word] = -(phase * V).sum(axis=0) / self.spec.k
        return self._rows[word]

    def integrate_word(self, word: HomologyWord, form: FormIndex) -> complex:
        """-1/k times the word's integral of one form: its entry of word_row."""
        if form.alpha not in self._columns:
            raise ValueError(f"alpha={form.alpha} is not a form of this curve")
        return complex(self.word_row(word)[self._columns[form.alpha]])


def beta_closed_form(form: FormIndex, k: int) -> float:
    """B((alpha_1+1)/k, 1 - alpha_2/k) via log-Gamma; rank-2 curves only."""
    if len(form.alpha) != 2:
        raise InvalidArity(f"Beta closed form needs n = 2, got n = {len(form.alpha)}")
    a = (form.alpha[0] + 1) / k
    b = 1.0 - form.alpha[1] / k
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _optimal_agm(a: complex, b: complex) -> complex:
    """Complex AGM with the good square-root choice |a'-b'| <= |a'+b'|
    (ties broken toward Im(b'/a') > 0)."""
    for _ in range(80):
        if abs(a - b) <= 1e-15 * abs(a):
            break
        am = 0.5 * (a + b)
        gm = cmath.sqrt(a * b)
        if abs(am - gm) > abs(am + gm) or (
            abs(am - gm) == abs(am + gm) and (gm / am).imag <= 0
        ):
            gm = -gm
        a, b = am, gm
    return 0.5 * (a + b)


def agm_elliptic_periods(lam: complex) -> tuple[complex, complex]:
    """Z-basis (omega_1, omega_2) of the period lattice of dw/y for
    y**2 = w (w - 1) (w - lam), with Im(omega_2/omega_1) != 0."""
    lam = complex(lam)
    if lam == 0 or lam == 1:
        raise DegenerateLambda(f"lambda = {lam} degenerates the curve")
    e1, e2, e3 = lam, 1.0 + 0j, 0j
    w1 = 2.0 * cmath.pi / _optimal_agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
    w2 = 2.0j * cmath.pi / _optimal_agm(cmath.sqrt(e1 - e3), cmath.sqrt(e2 - e3))
    tau = w2 / w1
    if abs(tau.imag) < 1e-12:
        raise DegenerateLambda(f"period ratio degenerated for lambda = {lam}")
    return w1, w2


def _mutual_integer_expressible(
    a: np.ndarray, b: np.ndarray, residual_tol: float
) -> tuple[bool, float]:
    """Whether the rows of a and b generate the same lattice.

    Both coordinate matrices (a in terms of b and vice versa) must round
    to integers that reconstruct the originals within residual_tol times
    the larger row norm.
    """
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    worst = 0.0
    for src, dst in ((a, b), (b, a)):
        x = np.linalg.solve(dst.T, src.T).T
        xi = np.rint(x)
        err = float(np.max(np.abs(xi @ dst - src)))
        worst = max(worst, err / scale)
    return worst <= residual_tol, worst


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class CrosscheckReport:
    k: int
    n: int
    lambdas: tuple[complex, ...]
    sample: int
    seed: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sample_words(spec: CurveSpec, sample: int, seed: int) -> list[ConjComm]:
    rng = random.Random(seed)
    pairs = [(j, l) for j in range(1, spec.n + 1) for l in range(j + 1, spec.n + 1)]
    words = []
    for _ in range(sample):
        j, l = rng.choice(pairs)
        g = tuple(rng.randrange(spec.k) for _ in range(spec.n))
        words.append(ConjComm(g=g, j=j, l=l))
    return words


def crosscheck_report(
    spec: CurveSpec, cfg: QuadConfig, sample: int = 25, seed: int = 0
) -> CrosscheckReport:
    """Run the oracle battery against the closed-form pipeline.

    Checks: vanishing of every power word; sampled conjugated commutators
    against the entry formula; conjugation covariance of the sampled
    words; for n = 2 the Beta magnitudes of the base integrals; for
    genus > 0 double inclusion of the extracted lattice basis; for
    (k, n) = (2, 3) lattice equality against the AGM periods.
    """
    forms = enumerate_forms(spec)
    pm = assemble(spec, cfg)
    J = pm.base_integrals
    J_max = np.max(np.abs(J), axis=0)
    wi = WordIntegrator(spec, cfg)
    checks: list[CheckResult] = []

    # (a) power-word vanishing, scaled per form by the largest base integral
    worst = 0.0
    for i in range(1, spec.n + 1):
        row = wi.word_row(Power(i))
        worst = max(worst, float(np.max(np.abs(row) / J_max, initial=0.0)))
    checks.append(
        CheckResult(
            name="power_word_vanishing",
            passed=bool(worst <= 1e-8),
            max_deviation=float(worst),
            tolerance=1e-8,
            detail=f"{spec.n} power words x {len(forms)} forms",
        )
    )

    # (b) sampled commutator words vs the closed-form entries
    words = _sample_words(spec, sample, seed)
    entry_row = {word: s for s, word in enumerate(pm.rows)}
    worst = 0.0
    for word in words:
        rhs = pm.entries[entry_row[word]]
        dev = np.abs(wi.word_row(word) - rhs) / np.maximum(1e-8 * np.abs(rhs), 1e-10)
        worst = max(worst, float(np.max(dev, initial=0.0)))
    checks.append(
        CheckResult(
            name="closed_form_vs_contour",
            passed=bool(worst <= 1.0),
            max_deviation=float(worst),
            tolerance=1.0,
            detail=(
                f"{len(words)} words x {len(forms)} forms; deviations scaled by "
                "max(1e-8 |entry|, 1e-10)"
            ),
        )
    )

    # (c) conjugation covariance of the sampled words
    zeta = np.asarray([zeta_power(spec.k, e) for e in range(spec.k)])
    M = np.asarray([form.m_exponents for form in forms], dtype=np.int64)
    M = M.reshape(len(forms), spec.n)
    worst = 0.0
    for word in words:
        base = wi.word_row(ConjComm(g=(0,) * spec.n, j=word.j, l=word.l))
        rhs = zeta[(M @ np.asarray(word.g)) % spec.k] * base
        scale = np.maximum(np.abs(rhs), 1e-2 * J_max)
        dev = np.abs(wi.word_row(word) - rhs) / scale
        worst = max(worst, float(np.max(dev, initial=0.0)))
    checks.append(
        CheckResult(
            name="conjugation_covariance",
            passed=bool(worst <= 1e-8),
            max_deviation=float(worst),
            tolerance=1e-8,
            detail="sampled words vs phase x unconjugated word",
        )
    )

    # (d) Beta magnitudes for classical Fermat curves
    if spec.n == 2:
        worst = 0.0
        for c, form in enumerate(forms):
            b = beta_closed_form(form, spec.k)
            worst = max(worst, abs(abs(J[1, c] - J[0, c]) - b) / b)
        checks.append(
            CheckResult(
                name="beta_magnitude",
                passed=bool(worst <= 1e-9),
                max_deviation=float(worst),
                tolerance=1e-9,
                detail=f"|J_2 - J_1| vs Beta for {len(forms)} forms",
            )
        )

    # (e) the extracted basis reproduces every generator
    if genus(spec) > 0:
        v = real_split(pm)
        basis = extract_basis(v, spec)
        worst = basis.residual / float(np.max(np.abs(v)))
        checks.append(
            CheckResult(
                name="lattice_double_inclusion",
                passed=bool(worst <= 1e-10),
                max_deviation=worst,
                tolerance=1e-10,
                detail=(
                    f"{v.shape[0]} generators vs integer combinations of the "
                    f"{v.shape[1]} basis rows, relative to max |generator entry|"
                ),
            )
        )

    # (f) AGM lattice equality for the (2, 3) family
    if (spec.k, spec.n) == (2, 3):
        w1, w2 = agm_elliptic_periods(spec.lambdas[0])
        # The pipeline integrand carries 1/sqrt(-w ...), the AGM one
        # 1/sqrt(w ...); the factor i rotates the AGM lattice onto ours.
        rot = np.asarray(
            [[(1j * w1).real, (1j * w1).imag], [(1j * w2).real, (1j * w2).imag]]
        )
        ok, worst = _mutual_integer_expressible(basis.basis, rot, 1e-6)
        checks.append(
            CheckResult(
                name="agm_lattice_equality",
                passed=bool(ok),
                max_deviation=float(worst),
                tolerance=1e-6,
                detail="extracted basis vs i-rotated AGM periods",
            )
        )

    return CrosscheckReport(
        k=spec.k,
        n=spec.n,
        lambdas=spec.lambdas,
        sample=sample,
        seed=seed,
        checks=tuple(checks),
    )
