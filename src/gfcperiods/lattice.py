"""Integer lattice basis extraction from a redundant generating set.

The period matrix rows, split into real and imaginary parts, generate a
rank-2g lattice in R^(2g).  In generator order the first 2g linearly
independent rows are already a Z-basis of that lattice: every other row
is an integer combination of them.  Extraction keeps those rows, solves
once for the coordinates of every other generator in them and rounds the
coordinates to integers.  A coordinate further than 1e-7 from an integer
is reported as an error naming the generator, never rounded through.

The independent rows are found in blocks of _BLOCK_ROWS consecutive rows:
each block is projected off the rows kept so far by matrix products, one
QR of its surviving residuals keeps every row that is clearly independent,
and one masked projection settles the rest in order (see
_first_independent).  The rule is that of a row-by-row Gram-Schmidt with a
second projection pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import CurveSpec, genus
from .errors import NotFullRank, ReconstructionFailed
from .periods import PeriodMatrix

_RANK_TOL = 1e-8
_BLOCK_ROWS = 64
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
    it exceeds _RANK_TOL times the largest row norm.  The rows are decided
    _BLOCK_ROWS at a time, by matrix products and one full-length QR per
    block:

    (a) the block is projected off the orthonormal rows kept so far, twice
        (the second pass only for rows the first leaves above tol);
    (b) a row whose residual is at most tol is rejected: the kept rows so
        far span part of the span it is measured against, so its true
        distance is no larger;
    (c) one unpivoted QR of the surviving residuals, in order, gives each
        survivor its distance |R_jj| from the survivors before it, a span
        that contains the kept rows before it, so |R_jj| > tol keeps the
        row outright;
    (d) every other survivor gets its exact distance, projected twice, in
        one masked product, off the rows kept in (c) that precede it.  This
        runs in the coordinates of (c)'s orthonormal factor, where the
        kept rows' basis is a QR of their columns of R, at most
        _BLOCK_ROWS square.  The first survivor above tol is kept, and the
        next block starts right after it.

    A NaN or infinite row makes tol non-finite and no row is kept.
    """
    tol = _RANK_TOL * float(np.max(np.linalg.norm(v, axis=1), initial=0.0))
    if not np.isfinite(tol):
        return []
    q = np.empty((d, v.shape[1]))
    kept: list[int] = []
    start = 0
    while start < len(v) and len(kept) < d:
        stop = min(start + _BLOCK_ROWS, len(v))
        q_kept = q[: len(kept)]
        r = v[start:stop] - (v[start:stop] @ q_kept.T) @ q_kept
        surv = np.flatnonzero(np.linalg.norm(r, axis=1) > tol)
        r = r[surv]
        r -= (r @ q_kept.T) @ q_kept
        live = np.linalg.norm(r, axis=1) > tol
        surv, r = surv[live], r[live]
        if surv.size == 0:
            start = stop
            continue
        # the survivors are the columns of w @ tri
        w, tri = np.linalg.qr(r.T)
        dist = np.zeros(surv.size)
        dist[: tri.shape[0]] = np.abs(np.diagonal(tri))
        sure = dist > tol
        new = surv[sure]
        # the rest, in the coordinates of w, off the sure rows before each
        rest = surv[~sure]
        basis = np.linalg.qr(tri[:, sure])[0]
        mask = new[None, :] < rest[:, None]
        res = tri[:, ~sure].T
        for _ in range(2):
            res -= ((res @ basis) * mask) @ basis.T
        dist = np.linalg.norm(res, axis=1)
        coords = basis.T
        late = np.flatnonzero(dist > tol)
        if late.size:
            j = late[0]
            before = int(np.count_nonzero(new < rest[j]))
            new = np.append(new[:before], rest[j])
            coords = np.vstack([coords[:before], res[j] / dist[j]])
            stop = start + int(rest[j]) + 1
        new_q = coords @ w.T
        take = min(new.size, d - len(kept))
        q[len(kept) : len(kept) + take] = new_q[:take]
        kept.extend((start + new[:take]).tolist())
        start = stop
    return kept


def extract_basis(vectors, spec: CurveSpec) -> LatticeBasis:
    """Z-basis of the lattice generated by the input row vectors.

    The basis is the first 2g linearly independent input rows, so the
    result depends on the input order: in generator order (as assemble
    produces it) those rows are a Z-basis.  A kept row's coordinates are
    its unit row, exactly.  The coordinates of every other generator are
    solved for once and rounded; if any lies further than 1e-7 from an
    integer, ReconstructionFailed names the first such generator.  It never
    names a kept row, even where the basis is so ill-conditioned that
    solving for a kept row would miss its unit row by more than 1e-7.  An
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
    # a kept row is its own unit row; only the others need solving for
    rest = np.delete(np.arange(m), kept)
    coords = np.linalg.solve(basis.T, v[rest].T).T
    rounded = np.rint(coords)
    off = np.max(np.abs(coords - rounded), axis=1, initial=0.0)
    bad = np.flatnonzero(off > _RECON_TOL)
    if bad.size:
        i = int(bad[0])
        raise ReconstructionFailed(
            f"generator {rest[i]}: a coordinate in the basis rows is {off[i]:.1e} "
            f"from an integer (tolerance {_RECON_TOL})"
        )
    coefficients = np.zeros((m, d), dtype=np.int64)
    coefficients[kept, np.arange(d)] = 1
    coefficients[rest] = rounded
    from_generators = np.zeros((d, m), dtype=np.int64)
    from_generators[np.arange(d), kept] = 1
    return LatticeBasis(
        basis=basis,
        coefficients=coefficients,
        residual=float(np.max(np.abs(rounded @ basis - v[rest]), initial=0.0)),
        from_generators=from_generators,
    )
