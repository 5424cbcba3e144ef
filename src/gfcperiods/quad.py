"""Quadrature kernels: tanh-sinh for endpoint-singular legs, panelled
Gauss-Legendre for smooth path pieces.

The legs from the base point z0 to a branch point r_i carry an algebraic
singularity of exponent > -1 at the r_i end.  The tanh-sinh (double
exponential) substitution x = tanh((pi/2) sinh t) clusters trapezoid nodes
double-exponentially at both ends, which integrates such singularities to
near machine precision with a plain equispaced sum in t.  Refinement
halves the t-step per level.  Smooth pieces double a Gauss-Legendre panel
count instead.

Both rules share one refinement loop (`_refine`) and one evaluation
kernel (`_panel_sums`).  Each step walks the nodes once, evaluates every
form still open on them, and a form leaves the loop at the first step
that agrees with the previous one to the relative tolerance.  Tanh-sinh
levels nest (the level-L nodes are the even-j nodes of level L + 1), so
the first two levels of a leg share one walk and one kernel pass: the
first level, only ever a gate reference, is read off the second level's
even-j nodes.

A form's term at a node is exp(E . X): E its exponent row, X the node's
continued logs.  Column 0 of the forms' exponent matrix takes at most
(n-1)(k-1)-1 values and every other column at most k, so the kernel
splits the columns into two groups, exponentiates each group only over
its distinct rows, and takes every form's node sum from one matrix
product of the two factors.  It stays unsplit where a split would not at
least halve the exponentials per node.

Node positions are handled in terms of the distance fractions to either
endpoint (sigma toward the singular end, tau toward the start), never as
absolute coordinates, so evaluation stays stable when nodes approach the
endpoint to within 1e-290 of the leg length (closer nodes are clipped to
that distance).  Along the straight leg the singular factor's continued
log is the start value plus log sigma exactly; the remaining factors are
continued by the ratio walk from the contour module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import contour
from .contour import BranchState, Path
from .curve import CurveSpec, FormIndex
from .errors import ClearanceUnachievable, NoConvergence, StepTooCoarse

# t-range of the double-exponential substitution; beyond this the node
# distance to the endpoint drops under the 1e-290 clip.
_T_MAX = 6.1
# Distance clip (as a fraction of leg length) for the node nearest the
# singular endpoint.
_SIGMA_MIN = 1e-290
# Gauss-Legendre order per panel and the panel-doubling budget.
_GL_ORDER = 16
_GL_MAX_PANELS = 2 ** 13
# Largest forms x nodes block evaluated at once by the kernel, in complex
# values (32 MiB).
_BLOCK_VALUES = 2 ** 21
# Highest tanh-sinh level whose walk, 2 floor(_T_MAX 2**level) + 1 nodes
# plus the leg's start, fits the continuation's point budget (18).
_LEVEL_CAP = max(
    level
    for level in range(64)
    if 2 * math.floor(_T_MAX * 2**level) + 2 <= contour._MAX_WALK_POINTS
)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and refinement budget shared by both kernels.

    level is the first tanh-sinh level evaluated; refinement may continue
    to max_level before NoConvergence is raised.  Both lie in 0.._LEVEL_CAP
    (18), the levels whose nodes the continuation walk can hold.

    The start level 5 is chosen against 30-digit references of the base
    integrals.  A leg that converges there costs one walk and one kernel
    pass over the 781 level-6 nodes, whose even-j nodes are level 5's, and
    on every curve of the benchmark ladder its differences
    J_l - J_j land within 2e-14 of the reference, relative to each form's
    largest difference.  Starting at level 10 costs a walk over about 25k
    nodes per leg (level 11) and is less accurate, off by up to 5e-13 on the
    n >= 4 curves, because rounding builds up over the longer node sums
    and continuation walks.  The two-level agreement gate is the same at
    any start, so a leg that needs more resolution still refines upward.
    """

    level: int = 5
    rel_tol: float = 1e-10
    max_level: int = 14

    def __post_init__(self):
        for name in ("level", "max_level"):
            value = getattr(self, name)
            if not 0 <= value <= _LEVEL_CAP:
                raise ValueError(f"{name} must lie in 0..{_LEVEL_CAP}, got {value}")
        if self.level > self.max_level:
            raise ValueError("level must not exceed max_level")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be a positive finite number")


@lru_cache(maxsize=32)
def _de_nodes(level: int):
    """tanh-sinh node table at step h = 2**-level.

    Returns (sigma, tau, log_sigma, log_weight): distance fractions to the
    x=+1 and x=-1 ends and the log of the trapezoid weight h * x'(t),
    ordered by ascending t (the x=-1 end first).
    """
    h = 2.0 ** (-level)
    jmax = int(math.floor(_T_MAX / h))
    t = h * np.arange(-jmax, jmax + 1)
    u = 0.5 * np.pi * np.sinh(t)
    # (1 - tanh u)/2 and (1 + tanh u)/2 without cancellation
    au = np.abs(u)
    e = np.exp(-2.0 * au)
    near = e / (1.0 + e)
    far = 1.0 / (1.0 + e)
    sigma = np.where(u >= 0, near, far)
    tau = np.where(u >= 0, far, near)
    sigma = np.maximum(sigma, _SIGMA_MIN)
    tau = np.maximum(tau, _SIGMA_MIN)
    log_cosh_u = au + np.log1p(e) - math.log(2.0)
    log_weight = (
        math.log(0.5 * np.pi) + np.log(np.cosh(t)) - 2.0 * log_cosh_u + math.log(h)
    )
    return sigma, tau, np.log(sigma), log_weight


def _refine(rows_at, steps, size: int, rel_tol: float, unit: str):
    """The one refinement loop of both kernels.

    rows_at(step, todo) returns the values of the rows todo at one step
    and the scale each is gated against.  A row is taken at the first step
    where it agrees with the previous step to rel_tol times its scale, and
    only the rows still open are evaluated at the next step.  Returns all
    size values, or raises NoConvergence naming the first open row and
    the last step, described as unit.
    """
    todo = np.arange(size)
    row = prev = None
    for step in steps:
        cur, scale = rows_at(step, todo)
        if row is None:
            row = np.zeros_like(cur)
        if prev is not None:
            done = np.abs(cur - prev) <= rel_tol * scale
            row[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
        if not todo.size:
            return row
        prev = cur
    raise NoConvergence(
        f"did not reach rel_tol={rel_tol} by {unit} {step}", form=int(todo[0])
    )


def tanh_sinh(f, a: float, b: float, cfg: QuadConfig):
    """Integrate f over [a, b] with the tanh-sinh rule.

    f is called vectorized as f(x, d_left, d_right) where d_left, d_right
    are the distances to a and b; endpoint-singular integrands should be
    written in terms of those distances.
    """

    def rows_at(level, todo):
        value = np.atleast_1d(tanh_sinh_level(f, a, b, level))
        return value, np.abs(value)

    levels = range(cfg.level, cfg.max_level + 1)
    return _refine(rows_at, levels, 1, cfg.rel_tol, "tanh-sinh level")[0]


def tanh_sinh_level(f, a: float, b: float, level: int):
    """Single-level tanh-sinh sum (exposed for convergence diagnostics)."""
    sigma, tau, _, log_weight = _de_nodes(level)
    span = b - a
    x = a + tau * span
    vals = f(x, tau * abs(span), sigma * abs(span))
    return 0.5 * span * np.sum(vals * np.exp(log_weight))


def _leg_rows(start: complex, logs0, target: int, R, E, last_level: int):
    """rows_at(level, todo) of the tanh-sinh sums over the straight leg from
    start to the branch point R[target], for the forms E[todo].

    Each level walks the leg once for all forms, except that the first
    call, at a level L below last_level, walks level L + 1 instead: the
    level-L nodes are its even-j nodes t = j 2**-(L+1), so twice the sum
    over them is level L's value, which the refinement loop only gates
    against.  The full level-(L + 1) sums are held and returned by the
    next call, at level L + 1; later levels are walked one at a time.  A
    leg that converges at L + 1 thus costs one walk and one kernel pass.

    The node log-weight is appended to the continued logs as one more
    column, and E gets a column of ones, tied to the target's column in
    the kernel, so the weight and the power of sigma share one
    exponential: near the singular end a separate weight factor would
    underflow while the power of sigma overflows.  The gate scale is |I|.
    """
    logs0 = np.asarray(logs0, dtype=complex)
    n = len(R)
    D = complex(R[target]) - complex(start)
    others = [s for s in range(n) if s != target]
    offsets = np.asarray([complex(start) - complex(R[s]) for s in others])
    E1 = np.hstack([E, np.ones((len(E), 1))])
    first, held = True, None

    def diff_fn(taus):
        return offsets[None, :] + taus[:, None] * D

    def sums(level, todo, even):
        sigma, tau, log_sigma, log_weight = _de_nodes(level)
        X = np.empty((len(sigma), n + 1), dtype=complex)
        X[:, target] = logs0[target] + log_sigma
        if others:
            params = np.concatenate(([0.0], tau))
            X[:, others] = contour.continued_logs_param(diff_fn, params, logs0[others])[1:]
        X[:, n] = log_weight
        # node p sits at j = p - len(sigma) // 2, so j is even where p has that parity
        parity = len(sigma) // 2 % 2 if even else None
        cur, _, half = _panel_sums(E1, todo, X, 0.5 * D, tie=(target, n), even=parity)
        return cur, half

    def rows_at(level, todo):
        nonlocal first, held
        if first and level < last_level:
            cur, half = sums(level + 1, todo, even=True)
            held = todo, cur
            cur = 2.0 * half
        elif held is not None:
            cur = held[1][np.searchsorted(held[0], todo)]
            held = None
        else:
            cur, _ = sums(level, todo, even=False)
        first = False
        return cur, np.abs(cur)

    return rows_at


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_segment(seg, R, logs0, E, cfg: QuadConfig):
    """Integrate W for every form (the rows of the exponent matrix E) over
    one smooth segment with panel-doubled Gauss-Legendre.

    The branch walk depends only on the nodes, so each panel count walks
    the segment once and evaluates the open forms there.  A form is gated
    against max(|I|, 1e-3 * L1) so that closed-loop cancellations still
    settle.  Returns (row of integrals, logs at the segment end).
    """
    gx, gw = _gl_rule(_GL_ORDER)
    end = None

    def rows_at(panels, todo):
        nonlocal end
        starts = np.arange(panels) / panels
        ts = (starts[:, None] + (gx[None, :] + 1.0) / (2.0 * panels)).ravel()
        weights = np.tile(gw / (2.0 * panels), panels)
        params = np.concatenate(([0.0], ts, [1.0]))
        logs = contour.segment_logs(seg, params, R, logs0)
        end = logs[-1]
        velocity = contour.segment_velocity(seg, ts) * weights
        cur, l1, _ = _panel_sums(E, todo, logs[1:-1], velocity, magnitudes=True)
        return cur, np.maximum(np.abs(cur), 1e-3 * l1)

    panels = [2**p for p in range(2, _GL_MAX_PANELS.bit_length())]  # 4 .. max
    row = _refine(rows_at, panels, len(E), cfg.rel_tol, "Gauss-Legendre panels")
    return row, end


@lru_cache(maxsize=32)
def _factored(data: bytes, shape: tuple[int, int], tie: tuple[int, int] | None):
    """The column groups of the kernel for one exponent matrix E, given as
    its bytes and shape, cached like the node tables.

    Returns the two groups, each as (columns, distinct rows of E over
    those columns, each row's index into them), or None to stay unsplit.
    The candidate splits cut the columns at a prefix; with tie = (a, b),
    column b always joins column a's group and takes no part in the cut.
    The candidate with the fewest distinct rows in all is kept only when it
    at least halves the exponentials per node (len(E)).  For the forms of a
    curve a prefix cut is as good as any other split, because the
    enumeration is symmetric in alpha_2..alpha_n.
    """
    E = np.frombuffer(data).reshape(shape)
    lead, follow = tie or (None, None)
    free = [c for c in range(shape[1]) if c != follow]

    def group(cols):
        cols = np.sort(cols + [follow] if lead in cols else cols)
        rows, index = np.unique(E[:, cols], axis=0, return_inverse=True)
        return cols, rows, index.reshape(-1)

    best, split = shape[0], None
    for t in range(1, len(free)):
        groups = (group(free[:t]), group(free[t:]))
        total = sum(len(rows) for _, rows, _ in groups)
        if 2 * total <= shape[0] and total < best:
            best, split = total, groups
    return split


def _panel_sums(E, todo, X, vw, magnitudes: bool = False, tie=None, even=None):
    """Sums of exp(E[todo] @ X.T) * vw over the nodes, one per open row of
    E; with magnitudes also the sums of their magnitudes, and with even = 0
    or 1 also the sums over the nodes at the positions of that parity (each
    None when not asked for).

    The evaluation kernel of both rules: X holds one row of continued logs
    per node and vw the node weights times dw/dt (or one common factor).
    When `_factored` (given tie) splits the exponent columns into groups A
    and B, a term factors as exp(E_A . X_A) exp(E_B . X_B): each group is
    exponentiated only over its distinct rows among the open forms, every
    form's sum is one entry of the complex product (P_A * vw) @ P_B.T, its
    magnitude sum one entry of the real product |P_A * vw| @ |P_B|.T and
    its sum over one parity of nodes one entry of the product over those
    node columns, accumulated over blocks of nodes.  Unsplit, each row is
    summed over all nodes directly, in blocks of rows.  Every forms x nodes
    temporary stays under _BLOCK_VALUES.
    """
    split = _factored(E.tobytes(), E.shape, tie)

    def powers(rows, nodes, cols):
        Xs = X[nodes, cols]
        # Real products: np.exp right after a complex matmul ran ~8x slower (OpenBLAS).
        return np.exp(rows @ Xs.real.T + 1j * (rows @ Xs.imag.T))

    if split is None:
        rows = E[todo]
        cur = np.empty(len(rows), dtype=complex)
        l1 = np.empty(len(rows)) if magnitudes else None
        half = np.empty(len(rows), dtype=complex) if even is not None else None
        step = max(1, _BLOCK_VALUES // len(X))
        for b in range(0, len(rows), step):
            terms = powers(rows[b : b + step], slice(None), slice(None)) * vw
            cur[b : b + step] = terms.sum(axis=1)
            if magnitudes:
                l1[b : b + step] = np.abs(terms).sum(axis=1)
            if even is not None:
                half[b : b + step] = terms[:, even::2].sum(axis=1)
        return cur, l1, half
    (cols_a, rows_a, at_a), (cols_b, rows_b, at_b) = (
        _open_rows(group, todo) for group in split
    )
    cur = l1 = half = 0
    step = max(1, _BLOCK_VALUES // max(len(rows_a), len(rows_b)))
    for b in range(0, len(X), step):
        nodes = slice(b, b + step)
        P_a = powers(rows_a, nodes, cols_a) * (vw if np.ndim(vw) == 0 else vw[nodes])
        P_b = powers(rows_b, nodes, cols_b)
        cur = cur + P_a @ P_b.T
        if magnitudes:
            l1 = l1 + np.abs(P_a) @ np.abs(P_b).T
        if even is not None:
            # the block starts at node b, so its own positions are offset by b
            part = slice((even - b) % 2, None, 2)
            half = half + P_a[:, part] @ P_b[:, part].T
    return (
        cur[at_a, at_b],
        l1[at_a, at_b] if magnitudes else None,
        half[at_a, at_b] if even is not None else None,
    )


def _open_rows(group, todo):
    """A group's columns, its distinct rows among the open forms todo, and
    each open form's index into those rows."""
    cols, rows, index = group
    present, inverse = np.unique(index[todo], return_inverse=True)
    return cols, rows[present], inverse.reshape(-1)


def integrate_smooth(
    path: Path,
    state: BranchState,
    forms: list[FormIndex],
    spec: CurveSpec,
    cfg: QuadConfig,
) -> tuple[np.ndarray, BranchState]:
    """Integrals of W dw along a smooth path, one per form, plus the
    continued end state.

    A NoConvergence carries in `form` the position in forms of the first
    form that did not converge.
    """
    if path.segments and abs(path.start - state.point) > 1e-9 * (
        1.0 + abs(state.point)
    ):
        raise ValueError("path does not start at the state's current point")
    E = contour.exponent_matrix(forms, spec.k, spec.n)
    R = state.branch_points
    logs = np.asarray(state.logs, dtype=complex)
    row = np.zeros(len(forms), dtype=complex)
    for seg in path.segments:
        values, logs = _gl_segment(seg, R, logs, E, cfg)
        row += values
    end = path.end if path.segments else state.point
    return row, BranchState(point=end, logs=tuple(logs), branch_points=R)


def leg_row(
    state: BranchState, i: int, forms: list[FormIndex], spec: CurveSpec, cfg: QuadConfig
) -> np.ndarray:
    """Integrals of W dw from the state's point to branch point r_i, one
    per form.

    The leg follows the route of `contour.clear_leg`, which the oracle's
    loop around r_i shares.  Any detour prefix goes through the smooth
    kernel and the singular final piece through the tanh-sinh rows, each
    once for all forms: every level walks the leg once and evaluates the
    forms still open.  A NoConvergence names i and the alpha of the first
    form that did not converge; a routing or continuation failure names
    only i, because the walk serves every form.
    """
    R = state.branch_points
    row = np.zeros(len(forms), dtype=complex)
    try:
        legs = contour.clear_leg(state.point, complex(R[i - 1]), R, exclude={i - 1})
        if not forms:
            return row
        start = state
        if len(legs) > 1:
            prefix = Path(segments=tuple(legs[:-1]))
            row, start = integrate_smooth(prefix, state, forms, spec, cfg)
        E = contour.exponent_matrix(forms, spec.k, spec.n)
        rows_at = _leg_rows(legs[-1].start, start.logs, i - 1, R, E, cfg.max_level)
        levels = range(cfg.level, cfg.max_level + 1)
        row += _refine(rows_at, levels, len(forms), cfg.rel_tol, "tanh-sinh level")
    except NoConvergence as err:
        alpha = forms[err.form].alpha
        raise NoConvergence(f"base integral i={i}, alpha={alpha}: {err}", err.form) from err
    except (ClearanceUnachievable, StepTooCoarse) as err:
        raise type(err)(f"base integral i={i}: {err}") from err
    return row
