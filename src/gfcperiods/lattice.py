"""Integer lattice basis extraction from a redundant generating set.

The period matrix rows, split into real and imaginary parts, generate a
rank-2g lattice in R^(2g).  In generator order the first 2g linearly
independent rows are already a Z-basis of that lattice: every other row
is an integer combination of them.  Extraction keeps those rows, solves
once for every generator's coordinates in them and rounds the
coordinates to integers.  A coordinate further than 1e-7 from an integer
is reported as an error naming the generator, never rounded through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import CurveSpec, genus
from .errors import NotFullRank, ReconstructionFailed
from .periods import PeriodMatrix

_RANK_TOL = 1e-8
_RECON_TOL = 1e-7


@dataclass(frozen=True)
class LatticeBasis:
    """2g independent vectors spanning the generators' Z-span.

    coefficients expresses every input generator as an integer combination
    of the basis rows; from_generators expresses every basis row as an
    integer combination of the input generators.  residual is the largest
    absolute reconstruction error of coefficients @ basis against the
    input.
    """

    basis: np.ndarray
    coefficients: np.ndarray
    residual: float
    from_generators: np.ndarray


def real_split(pm: PeriodMatrix) -> np.ndarray:
    """Rows of the period matrix as real vectors: all real parts, then all
    imaginary parts, in column order."""
    return np.hstack([pm.entries.real, pm.entries.imag])


def lattice_rank(vectors, rank_tol: float = 1e-8) -> int:
    """Numerical rank via singular values with a relative threshold."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.size == 0:
        return 0
    s = np.linalg.svd(v, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def _first_independent(v: np.ndarray, d: int) -> list[int]:
    """Indices of the first rows of v, in order, that are linearly
    independent, at most d of them.

    Row i is kept when its distance from the span of the rows kept before
    it exceeds _RANK_TOL times the largest row norm.  The distance comes
    from Gram-Schmidt with a second projection pass.
    """
    tol = _RANK_TOL * float(np.max(np.linalg.norm(v, axis=1), initial=0.0))
    q = np.empty((d, v.shape[1]))
    kept: list[int] = []
    for i, row in enumerate(v):
        q_kept = q[: len(kept)]
        r = row - q_kept.T @ (q_kept @ row)
        r -= q_kept.T @ (q_kept @ r)
        dist = float(np.linalg.norm(r))
        if dist > tol:
            q[len(kept)] = r / dist
            kept.append(i)
            if len(kept) == d:
                break
    return kept


def extract_basis(vectors, spec: CurveSpec) -> LatticeBasis:
    """Z-basis of the lattice generated by the input row vectors.

    The basis is the first 2g linearly independent input rows, so the
    result depends on the input order: in generator order (as assemble
    produces it) those rows are a Z-basis.  Every generator's coordinates
    in the basis are solved for once and rounded; if any lies further than
    1e-7 from an integer, ReconstructionFailed names the generator.  An
    input whose first independent rows span only a sublattice, such as
    [[2, 0], [0, 2], [1, 1]], is rejected rather than merged.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    d = 2 * genus(spec)
    if v.shape[1] != d:
        raise ValueError(f"expected vectors of dimension 2g = {d}, got {v.shape[1]}")
    m = v.shape[0]
    if d == 0:
        return LatticeBasis(
            basis=np.zeros((0, 0)),
            coefficients=np.zeros((m, 0), dtype=np.int64),
            residual=0.0,
            from_generators=np.zeros((0, m), dtype=np.int64),
        )
    kept = _first_independent(v, d)
    if len(kept) != d:
        raise NotFullRank(f"generators have numerical rank {len(kept)}, need {d}")
    basis = v[kept]
    coords = np.linalg.solve(basis.T, v.T).T
    coeffs = np.rint(coords)
    off = np.max(np.abs(coords - coeffs), axis=1)
    bad = np.flatnonzero(off > _RECON_TOL)
    if bad.size:
        i = int(bad[0])
        raise ReconstructionFailed(
            f"generator {i}: a coordinate in the basis rows is {off[i]:.1e} "
            f"from an integer (tolerance {_RECON_TOL})"
        )
    from_generators = np.zeros((d, m), dtype=np.int64)
    from_generators[np.arange(d), kept] = 1
    return LatticeBasis(
        basis=basis,
        coefficients=coeffs.astype(np.int64),
        residual=float(np.max(np.abs(coeffs @ basis - v))),
        from_generators=from_generators,
    )
