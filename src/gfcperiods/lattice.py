"""Integer lattice basis extraction from a redundant generating set.

The period matrix rows, split into real and imaginary parts, generate a
rank-2g lattice in R^(2g).  In generator order its first 2g linearly
independent rows are a Z-basis of it.  The other rows' coordinates in
them are solved for once and rounded; one further than 1e-7 from an
integer is an error naming the generator.  A period matrix of n = 2 skips
the solve: its coordinates are exact, in closed form (below).

Plain vectors are searched row by row; for a period matrix the Z_k^n
action fixes the kept rows.  In the complexified real split, coordinate c
carries the character M_c mod k and its conjugate -M_c, and row (g, pair)
is the pair's g = 0 row with each character chi's component times
zeta**(g . chi).  Modulo the invariant span of the earlier pairs, pair p's
rows are the monomials x**g on the characters X_p whose components p adds,
so p keeps the lex standard monomials of X_p (Cerlienco and Mureddu,
Discrete Math. 139, 1995).  The same walk gives the covolume of every
period matrix in closed form: ln |det| of the kept rows is

    sum_chi ln |det W_chi| + sum_d c_d ln |2 sin(pi d / k)| - g ln 2,

where W_chi is the block of g = 0 components of the pairs that add at chi,
c_d counts the pairs of first coordinates that differ by d in the fibres
of each X_p and of its tail problems, and 2**g comes from the real split
(_kept_by_characters and _standard_monomials derive it).  |det W_chi| is
the product of the lengths at which the search keeps W_chi's rows, and
the sum is taken by math.fsum, which rounds once, so no BLAS thread count
moves it.

For n = 2 there is one pair, and X is every (x_1, x_2) = (zeta**a,
zeta**b) with a, b and a + b nonzero mod k.  The kept rows are the box
x_1**m x_2**j, m <= k - 3, j <= k - 2, and any row x**g is the normal form
of x**g modulo the ideal of X, an integer combination of them with
entries in {-1, 0, 1}: no float solve, no 1e-7 rounding gate, and no
ReconstructionFailed.  Every W_chi is 1 x 1 there, and the c_d sum is
e ln k with e = ((k-2)**2 + (k-1)(k-4)) / 2 + 1.

What depends on the curve type (k, n) alone is built once per type and
kept read-only: the grouping of the split's columns by character
(_characters), each pair's standard monomials and difference counts, per
set of characters the pair adds (_monomial_offsets), and the n = 2 normal
forms (_monomial_coordinates, as int8).  The components, their scales,
the search and its rank check, the covolume's log sum, the solve and the
residual are computed on every call; nothing that depends on lambda is
cached.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import quad
from .curve import CurveSpec, genus
from .errors import NotFullRank, ReconstructionFailed
from .periods import PeriodMatrix

_RANK_TOL = 1e-8
_RECON_TOL = 1e-7


@dataclass(frozen=True)
class LatticeBasis:
    """2g independent vectors spanning the generators' Z-span.

    basis row i is input row kept[i].  coefficients expresses every input
    generator as an integer combination of the basis rows.  residual is
    the largest absolute error of coefficients @ basis against the input.
    log_abs_det is ln |det basis|, in closed form, for the basis of a
    period matrix; plain vectors leave it None.  from_generators, every
    basis row as a 0/1 combination of the input generators, is built from
    kept on first access."""

    basis: np.ndarray
    coefficients: np.ndarray
    residual: float
    kept: np.ndarray
    log_abs_det: float | None = None

    @functools.cached_property
    def from_generators(self) -> np.ndarray:
        selection = np.zeros((len(self.kept), len(self.coefficients)), dtype=np.int64)
        selection[np.arange(len(self.kept)), self.kept] = 1
        return selection


def real_split(pm: PeriodMatrix) -> np.ndarray:
    """Rows of the period matrix as real vectors: all real parts, then all
    imaginary parts, in column order, gathered from pm.values."""
    return np.hstack([pm.values.real[pm.index], pm.values.imag[pm.index]])


def lattice_rank(vectors) -> int:
    """Numerical rank via singular values, relative threshold _RANK_TOL."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.size == 0:
        return 0
    s = np.linalg.svd(v, compute_uv=False)
    return int(np.sum(s > _RANK_TOL * s[0]))


def _first_independent(stack: np.ndarray) -> np.ndarray:
    """Rows x problems lengths of the rows kept in order in each problem of
    a stack (problems x rows x width, real or complex): a row projected
    twice off its problem's orthonormal kept rows, at most width, is kept
    if longer than _RANK_TOL times the largest row norm in the stack, and
    its entry is that projected length; every other entry is 0, so the
    kept rows are those > 0.  A NaN or infinite entry makes that
    non-finite, and nothing is kept."""
    probs, rows, width = stack.shape
    lengths = np.zeros((rows, probs))
    tol = _RANK_TOL * float(np.max(np.linalg.norm(stack, axis=2), initial=0.0))
    if not np.isfinite(tol):
        return lengths
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
        lengths[i, new] = dist[new]
    return lengths


def _standard_monomials(points, diffs: list[int], weight: int = 1) -> list[tuple[int, ...]]:
    """Exponents, in lex order, of the lex standard monomials (x_1 largest)
    of distinct points, one per point: x_1**i * x'**h is one exactly when
    x'**h is one for the points with x_1 dropped whose fibre holds more
    than i points (Cerlienco and Mureddu).  Those points change only where
    i reaches a fibre size, so each run of i between two sizes shares one
    recursion.

    Divided differences along x_1 make the matrix of the monomials on the
    points block-triangular: one Vandermonde in x_1 per fibre, then the
    tail problem once per i of each run.  So diffs[d] gains weight times
    the count of pairs of first coordinates, in one fibre, that differ by
    d, and each tail problem adds its own with weight times the length of
    its run.  On the points zeta**chi of chi in Z_k**n, the monomials'
    |det| is then the product over d of |2 sin(pi d / k)|**diffs[d]."""
    if len(points) < 2:
        return [(0,) * len(p) for p in points]
    # the fibres as bit sets of first coordinates, 2 * width bits apart in
    # packed: the pairs in a fibre that differ by d are packed & packed >> d
    fibre = defaultdict(int)
    for p in points:
        fibre[p[1:]] |= 1 << p[0]
    width = max(fibre.values()).bit_length()
    packed = sum(f << 2 * width * i for i, f in enumerate(fibre.values()))
    for d in range(1, width):
        diffs[d] += weight * (packed & packed >> d).bit_count()
    out, low = [], 0
    for size in sorted({f.bit_count() for f in fibre.values()}):
        ys = [y for y, f in fibre.items() if f.bit_count() >= size]
        tails = _standard_monomials(ys, diffs, weight * (size - low))
        out += [(i,) + h for i in range(low, size) for h in tails]
        low = size
    return out


def _kept_by_characters(pm: PeriodMatrix):
    """The rows of real_split(pm) kept in order, from one search over the
    pairs' character components, and ln |det| of them; a shortfall names
    the character.

    In the kept rows' complexified split, the columns of character chi
    times the inverse of W_chi, the block of g = 0 components of the pairs
    that add at chi, leave each pair one column per character it adds, and
    zero in the later pairs' columns.  So |det| is prod_chi |det W_chi|
    times each pair's monomial determinant on its characters
    (_standard_monomials), over 2**g from the real split.  |det W_chi| is
    the product of the lengths the search keeps its rows at (a Gram
    determinant), taken in the scaled columns, whose scales are added back.

    The characters' grouping comes from _characters and each pair's
    monomials from _monomial_offsets, both built once per curve type; the
    components, their scales, the search, the rank check and the log sum
    are this call's own."""
    k, n = pm.spec.k, pm.spec.n
    if not np.isfinite(pm.values).all():
        bad = np.argmin(np.isfinite(pm.values)[pm.index].all(axis=1))
        raise NotFullRank(f"generator {bad} has a non-finite period")
    first = pm.identity_rows()
    M = np.asarray(pm.m_exponents, dtype=np.int64)
    order, start, mult, owner, slot, chi = _characters(M.tobytes(), M.shape, k)
    comps = np.hstack([pm.values[pm.index[first]], pm.values[pm.index[first]].conj()])
    # scaling a column moves no row's independence, and puts every form's
    # periods on one scale for the tolerance, however many decades apart
    scale = np.maximum(np.abs(comps).max(axis=0, initial=0.0), np.finfo(float).tiny)
    comps /= scale
    stack = np.zeros((start.size, len(first), mult.max(initial=0)), dtype=complex)
    stack[owner, :, slot] = comps[:, order].T
    lengths = _first_independent(stack)
    adds = lengths > 0
    rank = adds.sum(axis=0)
    if np.any(rank < mult):
        c = int(np.argmax(rank < mult))
        raise NotFullRank(
            f"generators have numerical rank {rank.sum()}, need {mult.sum()}: character "
            f"M = {chi[c]} mod {k} reaches rank {rank[c]} of {mult[c]}"
        )
    kept, diffs = [], [0] * k
    for row, added in zip(first, adds):
        offsets, counts = _monomial_offsets(tuple(chi[c] for c in np.flatnonzero(added)), k, n)
        kept.append(row + offsets)
        for d, count in enumerate(counts):
            diffs[d] += count
    # |zeta**d - 1| is the same at d and k - d, with product k over d < k:
    # the count every d shares takes ln k once
    twice = [diffs[d] + diffs[k - d] for d in range(1, k)]
    shared = min(twice, default=0)
    logs = [*np.log(scale).tolist(), *np.log(lengths[adds]).tolist()]
    logs += [-len(M) * math.log(2), shared / 2 * math.log(k)]
    for d, t in enumerate(twice, 1):
        logs.append((t - shared) / 2 * math.log(2 * math.sin(math.pi * d / k)))
    return np.concatenate(kept), math.fsum(logs)


@functools.lru_cache(maxsize=16)
def _characters(data: bytes, shape: tuple[int, int], k: int):
    """The grouping of the split's columns by character, for the forms'
    m_exponents M given as int64 bytes and shape, built once per curve
    type, as read-only arrays.  Column c carries the character M_c mod k,
    column g + c its conjugate -M_c.

    Returns order (the columns, stably sorted by character), the start and
    multiplicity mult of each distinct character in that order, each
    sorted column's owner (its character) and slot (its place among the
    owner's columns), and chi, the distinct characters as tuples."""
    n = shape[1]
    M = np.frombuffer(data, dtype=np.int64).reshape(shape)
    chars = np.vstack([M, -M]) % k
    code = chars @ (k ** np.arange(n - 1, -1, -1, dtype=np.int64))
    order = np.argsort(code, kind="stable")
    _, start, mult = np.unique(code[order], return_index=True, return_counts=True)
    owner = np.repeat(np.arange(start.size), mult)
    slot = np.arange(order.size) - start[owner]
    for table in (order, start, mult, owner, slot):
        table.flags.writeable = False
    return order, start, mult, owner, slot, tuple(map(tuple, chars[order[start]].tolist()))


@functools.lru_cache(maxsize=64)
def _monomial_offsets(points: tuple[tuple[int, ...], ...], k: int, n: int):
    """The row offsets g . (k**(n-1), ..., k, 1) of the lex standard
    monomials x**g of the characters points (read-only int64, in lex
    order), and the difference counts _standard_monomials gives them at
    weight 1 (k of them).  lambda enters a pair's walk only through which
    characters it adds, so each generic lambda of a type reuses it."""
    diffs = [0] * k
    g = _standard_monomials(points, diffs)
    radix = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    offsets = np.asarray(g, dtype=np.int64).reshape(-1, n) @ radix
    offsets.flags.writeable = False
    return offsets, tuple(diffs)


@functools.lru_cache(maxsize=16)
def _monomial_coordinates(k: int) -> np.ndarray:
    """Row g1 * k + g2: the normal form of x_1**g1 x_2**g2 on the points
    X of n = 2, as integers on the box x_1**m x_2**j (m <= k - 3,
    j <= k - 2) in lex order.  It reduces by

        x_2**(k-1) -> -sum_{j <= k-2} x_2**j,
        x_1**(k-1) -> -sum_{m <= k-2} x_1**m,
        x_1**(k-2) -> -sum_{m <= k-3} x_1**m sum_{l=0}^{k-2-m} x_2**(-l),

    x_2's exponents taken mod k.  On X, x_1 is a k-th root of unity other
    than 1 and x_2**-1, a root of (x**k - 1) / ((x - 1)(x - x_2**-1)),
    which is the last rule.  Together the two rules for x_1 give
    x_1**(k-1) the same sum with l from 1."""
    m = np.arange(k - 2)
    # [g2, m, e]: whether x_2**g2 times the sum over l holds x_2**e, at
    # l = (g2 - e) mod k; the sum for x_1**(k-1) leaves out l = 0
    lag = ((np.arange(k)[:, None] - np.arange(k)) % k)[:, None, :]
    terms = lag <= (k - 2 - m)[:, None]
    # x_2**e on the box: itself below k - 1, and -1 on every j at k - 1
    x2 = np.eye(k, k - 1, dtype=np.int64)
    x2[-1] = -1
    coords = np.zeros((k, k, k - 2, k - 1), dtype=np.int64)
    coords[m, :, m] = x2
    coords[k - 2] = -(terms @ x2)
    coords[k - 1] = (terms & (lag > 0)) @ x2
    # built once per k, kept as int8 (its entries are -1, 0 and 1) and
    # read-only; extract_basis widens it to int64
    table = coords.reshape(k * k, (k - 2) * (k - 1)).astype(np.int8)
    table.flags.writeable = False
    return table


def _residual(coords: np.ndarray, basis: np.ndarray, target: np.ndarray) -> float:
    """The largest |coords @ basis - target|, with the product summed in a
    fixed order, as `quad._node_product` sums its nodes.

    One product over all basis rows sums them in an order that depends on
    the BLAS thread count, and the residual's last bits with it.  Here each
    block of coords rows skips the basis rows none of its coordinates uses
    (a zero adds nothing) and takes one BLAS product per slice of
    quad._CHUNK_NODES of the rest, added in slice order.  A block's running
    sum holds at most quad._BLOCK_VALUES / quad._CHUNK_NODES values, so it
    stays in cache: blocks 70x that size made (6,4)'s residual 1.2-1.4x
    slower.
    """
    width = basis.shape[1]
    step = max(1, quad._BLOCK_VALUES // (quad._CHUNK_NODES * max(1, width)))
    worst = 0.0
    for b in range(0, len(coords), step):
        rows = slice(b, b + step)
        used = np.flatnonzero(coords[rows].any(axis=0))
        product = np.zeros((len(coords[rows]), width))
        for c in range(0, len(used), quad._CHUNK_NODES):
            chunk = used[c : c + quad._CHUNK_NODES]
            product += coords[rows, chunk] @ basis[chunk]
        worst = max(worst, float(np.max(np.abs(product - target[rows]), initial=0.0)))
    return worst


def extract_basis(vectors, spec: CurveSpec) -> LatticeBasis:
    """Z-basis of the lattice generated by the input row vectors, or by
    real_split(pm) for a PeriodMatrix pm of spec: the first 2g linearly
    independent rows, a Z-basis in generator order (as assemble gives it).
    The result keeps their indices; no selection matrix is built.

    A period matrix's rows come from its characters, and a rank shortfall
    names the character, and log_abs_det is its closed-form covolume.
    A kept row's coordinates are its unit row.
    For a period matrix of n = 2 the others are exact normal forms of
    monomials, with no rounding gate, so ReconstructionFailed cannot
    arise.  Otherwise they are solved for once and rounded, and if one
    lies further than 1e-7 from an integer, ReconstructionFailed names the
    first such generator.
    An input whose first independent rows span only a sublattice, such as
    [[2, 0], [0, 2], [1, 1]], is rejected, not merged.  The residual
    checks either kind of coordinates.
    """
    pm = vectors if isinstance(vectors, PeriodMatrix) else None
    if pm is not None and pm.spec != spec:
        raise ValueError("the period matrix is of another curve than spec")
    v = np.atleast_2d(np.asarray(vectors, dtype=float)) if pm is None else real_split(pm)
    d = 2 * genus(spec)
    if v.shape[1] != d:
        raise ValueError(f"expected vectors of dimension 2g = {d}, got {v.shape[1]}")
    m, log_abs_det = v.shape[0], None
    if pm is not None:
        kept, log_abs_det = _kept_by_characters(pm)
    else:
        kept = np.flatnonzero(_first_independent(v[None])[:, 0])
        if kept.size != d:
            raise NotFullRank(f"generators have numerical rank {kept.size}, need {d}")
    basis = v[kept]
    rest = np.delete(np.arange(m), kept)
    if pm is not None and spec.n == 2:
        # one pair at full rank keeps the box, in which every row's
        # coordinates are exact
        table = _monomial_coordinates(spec.k)
        coefficients = table.astype(np.int64)
        rounded = table[rest].astype(float)
    else:
        # a kept row is its own unit row; only the others need solving for,
        # in columns scaled to one size, which moves no coordinate
        size = np.maximum(np.abs(basis).max(axis=0, initial=0.0), np.finfo(float).tiny)
        coords = np.linalg.solve((basis / size).T, (v[rest] / size).T).T
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
    return LatticeBasis(
        basis=basis,
        coefficients=coefficients,
        residual=_residual(rounded, basis, v[rest]),
        kept=kept,
        log_abs_det=log_abs_det,
    )
