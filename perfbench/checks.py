"""Correctness checks of CLI output against the high-precision reference.

Nothing here calls the package's period formula: the expected periods are
rebuilt from the reference J with the paper's closed form, written out
again below, and the generator and form orders are enumerated again from
their definitions.

Every check returns (ok, error, stage): the relative error it measured and,
on failure, the stage that failed.  The pass/fail gate is GATE, the
package's default quadrature tolerance.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math

import mpmath
import numpy as np

GATE = 1e-10


def genus(k: int, n: int) -> int:
    return (2 + k ** (n - 1) * ((n - 1) * (k - 1) - 2)) // 2


def forms(k: int, n: int) -> list[tuple[int, ...]]:
    """Exponent tuples alpha indexing the holomorphic forms, lexicographic."""
    out = [
        (a1,) + tail
        for tail in itertools.product(range(k), repeat=n - 1)
        for a1 in range(sum(tail) - 1)
    ]
    return sorted(out)


def generators(k: int, n: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(g, j, l) of every conjugated commutator, in (j, l, g) order."""
    return [
        (g, j, l)
        for j in range(1, n + 1)
        for l in range(j + 1, n + 1)
        for g in itertools.product(range(k), repeat=n)
    ]


class Expected:
    """Reference periods of one curve on the forms the reference covers.

    entry(g, j, l; alpha) = zeta**(sum g_d M_d) (1 - zeta**M_j)(1 - zeta**M_l)/k
    * (J_l - J_j), with M = (alpha_1 + 1, -alpha_2, ..., -alpha_n) and the
    J difference taken at reference precision before rounding.
    """

    def __init__(self, k: int, n: int, ref_cols: dict):
        self.k, self.n = k, n
        self.forms = forms(k, n)
        self.gens = generators(k, n)
        self.cols = [c for c, a in enumerate(self.forms) if a in ref_cols]
        if not self.cols:
            raise ValueError(f"no reference values for ({k},{n})")
        checked = [self.forms[c] for c in self.cols]
        M = np.asarray([(a[0] + 1,) + tuple(-x for x in a[1:]) for a in checked])
        G = np.asarray([g for g, _, _ in self.gens], dtype=np.int64).reshape(
            len(self.gens), n
        )
        zeta = np.asarray([cmath.exp(2j * cmath.pi * e / k) for e in range(k)])
        phase = zeta[(G @ M.T) % k]
        one_minus = np.where(M % k == 0, 0, 1 - zeta[M % k])
        with mpmath.workdps(30):
            dJ = {
                (j, l): np.asarray(
                    [complex(ref_cols[a][l - 1] - ref_cols[a][j - 1]) for a in checked]
                )
                for j in range(1, n + 1)
                for l in range(j + 1, n + 1)
            }
        self.entries = np.empty((len(self.gens), len(checked)), dtype=complex)
        for s, (_, j, l) in enumerate(self.gens):
            self.entries[s] = one_minus[:, j - 1] * one_minus[:, l - 1] / k * dJ[(j, l)]
        self.entries *= phase
        self.real = np.hstack([self.entries.real, self.entries.imag])

    def real_cols(self) -> np.ndarray:
        """Columns of the 2g real split that the reference covers."""
        g = len(self.forms)
        c = np.asarray(self.cols)
        return np.concatenate([c, g + c])


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Worst entrywise relative error; exact zeros must be emitted as zeros."""
    nz = want != 0
    worst = float(np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz]), initial=0.0))
    if np.any(got[~nz] != 0):
        return math.inf
    return worst


def _layout_ok(raw, exp: Expected) -> bool:
    want_gens = [
        {"type": "conj_comm", "g": list(g), "j": j, "l": l} for g, j, l in exp.gens
    ]
    return (
        raw["k"] == exp.k
        and raw["n"] == exp.n
        and raw["genus"] == genus(exp.k, exp.n)
        and [tuple(f) for f in raw["forms"]] == exp.forms
        and raw["generators"] == want_gens
    )


def check_periods_json(text: str, exp: Expected):
    raw = json.loads(text)
    if not _layout_ok(raw, exp):
        return False, math.inf, "periods.layout"
    got = np.asarray(raw["periods"], dtype=float)
    got = (got[..., 0] + 1j * got[..., 1])[:, exp.cols]
    err = _relative_error(got, exp.entries)
    return err <= GATE, err, "periods.values"


def check_periods_csv(text: str, exp: Expected):
    lines = text.splitlines()
    header = lines[0].split(",")
    labels = [f"{p}_{'.'.join(map(str, a))}" for a in exp.forms for p in ("re", "im")]
    want_rows = [
        f"conj_comm:j={j};l={l};g={'.'.join(map(str, g))}" for g, j, l in exp.gens
    ]
    rows = [ln.split(",") for ln in lines[1:]]
    if header != ["generator"] + labels or [r[0] for r in rows] != want_rows:
        return False, math.inf, "periods.layout"
    vals = np.asarray([r[1:] for r in rows], dtype=float)
    got = (vals[:, 0::2] + 1j * vals[:, 1::2])[:, exp.cols]
    err = _relative_error(got, exp.entries)
    return err <= GATE, err, "periods.values"


def check_basis_json(text: str, exp: Expected):
    """Double inclusion against the reference periods on the covered columns:
    every generator is coefficients @ basis, and every basis row is
    from_generators @ generators.  Errors are relative to the row scale,
    the largest reference coordinate."""
    raw = json.loads(text)
    d = 2 * genus(exp.k, exp.n)
    m = len(exp.gens)
    basis = np.asarray(raw["basis"], dtype=float).reshape(-1, d)
    coeffs = np.asarray(raw["coefficients"], dtype=float).reshape(-1, d)
    from_gens = np.asarray(raw["from_generators"], dtype=float).reshape(-1, m)
    if basis.shape != (d, d) or coeffs.shape != (m, d) or from_gens.shape != (d, m):
        return False, math.inf, "basis.shape"
    if abs(np.linalg.det(basis)) == 0.0:
        return False, math.inf, "basis.rank"
    cols = exp.real_cols()
    scale = float(np.max(np.abs(exp.real)))
    # Extended precision keeps the products' own rounding far below the gate.
    ld = np.longdouble
    real = exp.real.astype(ld)
    gens_err = np.max(np.abs(coeffs.astype(ld) @ basis[:, cols].astype(ld) - real))
    basis_err = np.max(np.abs(from_gens.astype(ld) @ real - basis[:, cols]))
    gens_err, basis_err = float(gens_err) / scale, float(basis_err) / scale
    if gens_err > GATE:
        return False, float(gens_err), "basis.generators_in_lattice"
    if basis_err > GATE:
        return False, float(basis_err), "basis.from_generators"
    return True, float(max(gens_err, basis_err)), "basis"


def check_verify_json(text: str):
    """The report must pass.  Its error is the largest deviation it states
    between independent routes, relative: closed_form_vs_contour reports
    deviations in units of 1e-8 |entry|, the other checks relative ones."""
    raw = json.loads(text)
    if not raw["passed"] or not all(c["passed"] for c in raw["checks"]):
        failed = [c["name"] for c in raw["checks"] if not c["passed"]]
        return False, math.inf, "verify." + (failed[0] if failed else "passed")
    err = max(
        c["max_deviation"] * (1e-8 if c["name"] == "closed_form_vs_contour" else 1.0)
        for c in raw["checks"]
    )
    return True, float(err), "verify"


def check_info_json(text: str, k: int, n: int):
    raw = json.loads(text)
    ok = (
        raw["genus"] == genus(k, n)
        and [tuple(f) for f in raw["forms"]] == forms(k, n)
        and raw["num_generators"] == len(generators(k, n))
    )
    return ok, 0.0, "info"


def digits(err: float) -> float:
    """-log10 of a relative error, within [0, 30]: 30 is the reference's own
    precision, 0 an error of 100% or a failed check."""
    return 30.0 if err <= 1e-30 else max(0.0, -math.log10(err))
