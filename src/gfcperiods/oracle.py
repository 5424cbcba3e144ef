"""Independent verification engines.

Three routes that never touch the closed-form entry formula:

* `WordIntegrator` integrates the multivalued integrand along the loop
  concatenation spelled by a homology word, with the branch state carried
  continuously through every letter.  Each branch point's route in and
  circle are integrated once, all in one quadrature batch when the
  integrator is built; the way out and the -1 loop follow from the
  deck-action phase, all of a request's word rows come from one array
  expression over that loop table, and the tests keep a literal
  traversal of each loop (the route in, the circle, the route back out)
  as the reference;
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
from .lattice import extract_basis
from .periods import assemble, base_integrals
from .quad import QuadConfig

# conjugated commutator words drawn by crosscheck_report
_SAMPLE = 25


class WordIntegrator:
    """Contour oracle for one curve: integrates -W/k along word paths.

    Each letter of a word traverses the standard loop around one branch
    point.  Continuing the integrand from a shifted branch state only
    multiplies it by exp(sum_t e_t * delta_t), with delta the log offsets
    (the Z_k^n deck action).  So only the +1 loop's route in and circle
    are integrated, once per branch point, from the reference state and
    for all forms at once; the way out (the route in walked backwards) and
    the -1 loop (the +1 loop walked backwards) take their rows from that
    phase.  The constructor integrates the pieces of every loop in one
    batch into a table of loop rows, and `word_rows` takes many words in
    one request, their values over all forms one array expression over all
    their letters.  The tests keep the literal traversal of each loop,
    loop by loop and letter by letter, as the reference.
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
        self._V, self._D = self._integrate_loops()

    def _integrate_loops(self) -> tuple[np.ndarray, np.ndarray]:
        """The loop table: every loop's integrals of all forms from the
        reference state (V, 2n x forms) and its log offsets (D, 2n x n),
        loop (i, +1) at row 2(i - 1) and (i, -1) at the row after it, from
        one `quad._gl_batch` call.

        Only the +1 loop's route in (I_in) and circle (C, log offsets d)
        are integrated; their start logs are chained up front in closed
        form, for all the loops in one `contour.chain_logs` call.  The way
        out walks the route in backwards from offsets d, which gives
        -T I_in with T = exp(E d); the -1 loop is the +1 loop walked
        backwards from offsets -d, which gives -V+/T.  A failure is
        re-raised naming the loop and its piece, and a NoConvergence also
        the form.
        """
        n = self.spec.n
        routes, failure = [], None
        for i in range(1, n + 1):
            try:
                routes.append(contour.loop_pieces(self.base_point, i, self.R))
            except ClearanceUnachievable as err:
                failure = err
                break
        segments = [seg for inbound, circle in routes for seg in inbound + (circle,)]
        owners = [
            (i, piece)
            for i, (inbound, _) in enumerate(routes, start=1)
            for piece in ["route in"] * len(inbound) + ["circle"]
        ]
        try:
            chains = contour.chain_logs(
                [inbound + (circle,) for inbound, circle in routes],
                self.R,
                [self.state0.logs] * len(routes),
            )
        except StepTooCoarse as err:
            i, piece = owners[err.piece]
            raise StepTooCoarse(f"loop i={i}, {piece}: {err}") from err
        # a routing failure comes after the continuation of the loops before it
        if failure is not None:
            i = len(routes) + 1
            raise ClearanceUnachievable(f"loop i={i}, route in: {failure}") from failure
        starts = [logs for chain in chains for logs in chain[:-1]]
        try:
            rows = quad._gl_batch(segments, starts, self.R, self._E, self.cfg)
        except NoConvergence as err:
            i, piece = owners[err.piece]
            alpha = self.forms[err.form].alpha
            raise NoConvergence(
                f"loop i={i}, {piece}, alpha={alpha}: {err}", err.form
            ) from err
        except StepTooCoarse as err:
            i, piece = owners[err.piece]
            raise StepTooCoarse(f"loop i={i}, {piece}: {err}") from err
        V = np.empty((2 * n, len(self.forms)), dtype=complex)
        D = np.empty((2 * n, n), dtype=complex)
        first = 0
        for s, (inbound, _), chain in zip(range(0, 2 * n, 2), routes, chains):
            count = len(inbound)
            I_in = np.zeros(len(self.forms), dtype=complex)
            for row in rows[first : first + count]:
                I_in += row
            d = chain[-1] - chain[-2]
            T = np.exp(self._E @ d.real + 1j * (self._E @ d.imag))
            V[s] = I_in + rows[first + count] - T * I_in
            V[s + 1] = -V[s] / T
            D[s], D[s + 1] = d, -d
            first += count + 1
        return V, D

    def word_rows(self, words) -> np.ndarray:
        """-1/k times each word's integral for every form, in form order,
        one row per word.

        The rows come from one array expression over the letters of all the
        distinct words: -sum_s exp(E acc_s) V_s / k over each word's letters
        s, with V_s the loop table's row of letter s and acc_s the summed log
        offsets of the letters before it in its word (summed on a word x
        letter grid).  A repeated word is computed once; an empty request
        gives no rows.  A letter of a loop outside 1..n raises ValueError.
        """
        n = self.spec.n
        distinct = list(dict.fromkeys(words))
        spelled = [expand(word, self.spec.k) for word in distinct]
        lengths = np.array([len(letters) for letters in spelled], dtype=np.intp)
        letters = np.array(
            [2 * (i - 1) + (sign < 0) for spelling in spelled for i, sign in spelling],
            dtype=np.intp,
        )
        # the table holds the loops 1..n; another index would wrap or overrun
        if letters.size and not 0 <= letters.min() <= letters.max() < 2 * n:
            raise ValueError(f"a letter's loop lies outside 1..{n}")
        used = np.arange(lengths.max(initial=0)) < lengths[:, None]
        grid = np.zeros(used.shape, dtype=np.intp)
        grid[used] = letters
        acc = np.zeros((*grid.shape, n), dtype=complex)
        np.cumsum(self._D[grid[:, :-1]], axis=1, out=acc[:, 1:])
        a, Et = acc[used], self._E.T
        terms = np.exp(a.real @ Et + 1j * (a.imag @ Et)) * self._V[letters]
        # each word's letters are consecutive rows of terms; with no words,
        # there are no rows and no starts
        rows = np.add.reduceat(terms, np.cumsum(lengths) - lengths, axis=0)
        at = {word: s for s, word in enumerate(distinct)}
        return -rows[[at[word] for word in words]] / self.spec.k

    def integrate_word(self, word: HomologyWord, form: FormIndex) -> complex:
        """-1/k times the word's integral of one form: its entry of the word's
        row of word_rows."""
        if form.alpha not in self._columns:
            raise ValueError(f"alpha={form.alpha} is not a form of this curve")
        return complex(self.word_rows([word])[0][self._columns[form.alpha]])


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
    max_deviation: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        """A NaN deviation fails."""
        return bool(self.max_deviation <= self.tolerance)


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


def crosscheck_report(spec: CurveSpec, cfg: QuadConfig, seed: int = 0) -> CrosscheckReport:
    """Run the oracle battery against the closed-form pipeline.

    Checks: vanishing of every power word; sampled conjugated commutators
    against the entry formula; conjugation covariance of the sampled
    words; for n = 2 the Beta magnitudes of the base integrals, which are
    integrated along the legs here, since assemble takes them from the
    Beta closed form, so closed_form_vs_contour checks that form; for
    genus > 0 double inclusion of the extracted lattice basis; for
    (k, n) = (2, 3) lattice equality against the AGM periods.
    """
    # for n = 2 the matrix holds the Beta closed form, J_1 = 0; the legs' own
    # J keeps the scales below and the Beta check independent of it, and is
    # integrated first, so a leg that fails stops before the matrix is built
    legs = base_integrals(spec, cfg) if spec.n == 2 else None
    pm = assemble(spec, cfg)
    J = pm.base_integrals if legs is None else legs
    J_max = np.max(np.abs(J), axis=0)
    num_forms = len(pm.m_exponents)
    wi = WordIntegrator(spec, cfg)
    checks: list[CheckResult] = []

    # every word the checks need, in one request
    n, k = spec.n, spec.k
    words = _sample_words(spec, _SAMPLE, seed)
    powers = [Power(i) for i in range(1, n + 1)]
    bare = [ConjComm(g=(0,) * n, j=word.j, l=word.l) for word in words]
    power_rows, sampled_rows, bare_rows = np.split(
        wi.word_rows(powers + words + bare), [n, n + len(words)]
    )
    G = np.asarray([word.g for word in words], dtype=np.int64).reshape(len(words), n)

    # (a) power-word vanishing, scaled per form by the largest base integral
    worst = float(np.max(np.abs(power_rows) / J_max, initial=0.0))
    checks.append(
        CheckResult(
            name="power_word_vanishing",
            max_deviation=float(worst),
            tolerance=1e-8,
            detail=f"{spec.n} power words x {num_forms} forms",
        )
    )

    # (b) sampled commutator words vs the closed-form entries; the rows of
    # pm.index run over the pairs (j, l) in lex order, each over g in Z_k**n
    # in lex order
    j = np.asarray([word.j for word in words], dtype=np.int64)
    l = np.asarray([word.l for word in words], dtype=np.int64)
    pair = (j - 1) * (2 * n - j) // 2 + l - j - 1
    rhs = pm.values[pm.index[pair * k**n + G @ k ** np.arange(n - 1, -1, -1)]]
    dev = np.abs(sampled_rows - rhs) / np.maximum(1e-8 * np.abs(rhs), 1e-10)
    worst = float(np.max(dev, initial=0.0))
    checks.append(
        CheckResult(
            name="closed_form_vs_contour",
            max_deviation=float(worst),
            tolerance=1.0,
            detail=(
                f"{len(words)} words x {num_forms} forms; deviations scaled by "
                "max(1e-8 |entry|, 1e-10)"
            ),
        )
    )

    # (c) conjugation covariance of the sampled words
    zeta = np.asarray([zeta_power(spec.k, e) for e in range(spec.k)])
    rhs = zeta[(G @ pm.m_exponents.T) % k] * bare_rows
    scale = np.maximum(np.abs(rhs), 1e-2 * J_max)
    worst = float(np.max(np.abs(sampled_rows - rhs) / scale, initial=0.0))
    checks.append(
        CheckResult(
            name="conjugation_covariance",
            max_deviation=float(worst),
            tolerance=1e-8,
            detail="sampled words vs phase x unconjugated word",
        )
    )

    # (d) Beta magnitudes for classical Fermat curves
    if spec.n == 2:
        worst = 0.0
        for c, form in enumerate(enumerate_forms(spec)):
            b = beta_closed_form(form, spec.k)
            worst = max(worst, abs(abs(J[1, c] - J[0, c]) - b) / b)
        checks.append(
            CheckResult(
                name="beta_magnitude",
                max_deviation=float(worst),
                tolerance=1e-9,
                detail=f"|J_2 - J_1| vs Beta for {num_forms} forms",
            )
        )

    # (e) the extracted basis reproduces every generator
    if genus(spec) > 0:
        basis = extract_basis(pm, spec)
        # the largest |real or imaginary part| of a value that some period uses
        part = np.abs(pm.values.view(np.float64)).reshape(-1, 2).max(axis=1)
        worst = basis.residual / float(np.max(part[pm.index]))
        checks.append(
            CheckResult(
                name="lattice_double_inclusion",
                max_deviation=worst,
                tolerance=1e-10,
                detail=(
                    f"{len(pm.index)} generators vs integer combinations of the "
                    f"{2 * num_forms} basis rows, relative to max |generator entry|"
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
        _, worst = _mutual_integer_expressible(basis.basis, rot, 1e-6)
        checks.append(
            CheckResult(
                name="agm_lattice_equality",
                max_deviation=float(worst),
                tolerance=1e-6,
                detail="extracted basis vs i-rotated AGM periods",
            )
        )

    return CrosscheckReport(
        k=spec.k,
        n=spec.n,
        lambdas=spec.lambdas,
        sample=_SAMPLE,
        seed=seed,
        checks=tuple(checks),
    )
