"""Integer lattice basis extraction from a redundant generating set.

The period matrix rows, split into real and imaginary parts, generate a
rank-2g lattice in R^(2g).  In generator order its first 2g linearly
independent rows are a Z-basis of it.  The other rows' coordinates in
them are solved for once and rounded; one further than 1e-7 from an
integer is an error naming the generator.

Plain vectors are searched row by row; for a period matrix the Z_k^n
action fixes the kept rows.  In the complexified real split, coordinate c
carries the character M_c mod k and its conjugate -M_c, and row (g, pair)
is the pair's g = 0 row with each character chi's component times
zeta**(g . chi).  Modulo the invariant span of the earlier pairs, pair p's
rows are the monomials x**g on the characters X_p whose components p adds,
so p keeps the lex standard monomials of X_p (Cerlienco and Mureddu,
Discrete Math. 139, 1995).
"""

from __future__ import annotations

from collections import Counter
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
    of the basis rows, and from_generators every basis row as one of the
    input generators.  residual is the largest absolute error of
    coefficients @ basis against the input."""

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
    return int(np.sum(s > rank_tol * s[0]))


def _first_independent(stack: np.ndarray) -> np.ndarray:
    """Rows x problems mask of the rows kept in order in each problem of
    a stack (problems x rows x width, real or complex): a row projected
    twice off its problem's orthonormal kept rows, at most width, is kept
    if longer than _RANK_TOL times the largest row norm in the stack.  A
    NaN or infinite entry makes that non-finite, and nothing is kept."""
    probs, rows, width = stack.shape
    keep = np.zeros((rows, probs), dtype=bool)
    tol = _RANK_TOL * float(np.max(np.linalg.norm(stack, axis=2), initial=0.0))
    if not np.isfinite(tol):
        return keep
    q = np.zeros((probs, width, width), dtype=stack.dtype)
    count = np.zeros(probs, dtype=np.intp)
    for i in range(rows):
        if np.all(count == width):
            break
        q_kept = q[:, : count.max()]
        r = stack[:, i]
        for _ in range(2):
            coords = (q_kept @ r.conj()[:, :, None]).conj()
            r = r - (coords.transpose(0, 2, 1) @ q_kept)[:, 0]
        dist = np.linalg.norm(r, axis=1)
        new = np.flatnonzero((dist > tol) & (count < width))
        q[new, count[new]] = r[new] / dist[new, None]
        count[new] += 1
        keep[i, new] = True
    return keep


def _standard_monomials(points) -> list[tuple[int, ...]]:
    """Exponents, in lex order, of the lex standard monomials (x_1 largest)
    of distinct points, one per point: x_1**i * x'**h is one exactly when
    x'**h is one for the points with x_1 dropped whose fibre holds more
    than i points (Cerlienco and Mureddu)."""
    if not points or not points[0]:
        return [()] * len(points)
    fibre = Counter(p[1:] for p in points)
    return [
        (i,) + h
        for i in range(max(fibre.values()))
        for h in _standard_monomials([y for y, f in fibre.items() if f > i])
    ]


def _kept_by_characters(pm: PeriodMatrix) -> np.ndarray:
    """The rows of real_split(pm) kept in order, from one search over the
    pairs' character components; a shortfall names the character."""
    k, n = pm.spec.k, pm.spec.n
    if not np.isfinite(pm.values).all():
        bad = np.argmin(np.isfinite(pm.entries).all(axis=1))
        raise NotFullRank(f"generator {bad} has a non-finite period")
    first = pm.identity_rows()
    M = np.asarray([f.m_exponents for f in pm.cols], dtype=np.int64).reshape(-1, n)
    chars = np.vstack([M, -M]) % k
    comps = np.hstack([pm.entries[first], pm.entries[first].conj()])
    radix = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    code = chars @ radix
    order = np.argsort(code, kind="stable")
    _, start, mult = np.unique(code[order], return_index=True, return_counts=True)
    owner = np.repeat(np.arange(start.size), mult)
    stack = np.zeros((start.size, len(first), mult.max(initial=0)), dtype=complex)
    stack[owner, :, np.arange(order.size) - start[owner]] = comps[:, order].T
    adds = _first_independent(stack)
    rank, chi = adds.sum(axis=0), chars[order[start]].tolist()
    if np.any(rank < mult):
        c = int(np.argmax(rank < mult))
        raise NotFullRank(
            f"generators have numerical rank {rank.sum()}, need {mult.sum()}: character "
            f"M = {tuple(chi[c])} mod {k} reaches rank {rank[c]} of {mult[c]}"
        )
    kept = []
    for row, added in zip(first, adds):
        g = _standard_monomials([tuple(chi[c]) for c in np.flatnonzero(added)])
        kept.append(row + np.asarray(g, dtype=np.int64).reshape(-1, n) @ radix)
    return np.concatenate(kept)


def extract_basis(vectors, spec: CurveSpec) -> LatticeBasis:
    """Z-basis of the lattice generated by the input row vectors, or by
    real_split(pm) for a PeriodMatrix pm of spec: the first 2g linearly
    independent rows, a Z-basis in generator order (as assemble gives it).

    A period matrix's rows come from its characters, and a rank shortfall
    names the character.  A kept row's coordinates are its unit row; the
    others are solved for once and rounded, and if one lies further than
    1e-7 from an integer, ReconstructionFailed names the first such
    generator.  An input whose first independent rows span only a
    sublattice, such as [[2, 0], [0, 2], [1, 1]], is rejected, not merged.
    """
    pm = vectors if isinstance(vectors, PeriodMatrix) else None
    if pm is not None and pm.spec != spec:
        raise ValueError("the period matrix is of another curve than spec")
    v = np.atleast_2d(np.asarray(vectors, dtype=float)) if pm is None else real_split(pm)
    d = 2 * genus(spec)
    if v.shape[1] != d:
        raise ValueError(f"expected vectors of dimension 2g = {d}, got {v.shape[1]}")
    m = v.shape[0]
    if pm is not None:
        kept = _kept_by_characters(pm)
    else:
        kept = np.flatnonzero(_first_independent(v[None])[:, 0])
        if kept.size != d:
            raise NotFullRank(f"generators have numerical rank {kept.size}, need {d}")
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
