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
kernel (`_panel_sums`).  Each step evaluates every form still open on its
nodes, and a form leaves the loop at the first step that agrees with the
previous one to the relative tolerance; a value that is not finite ends
the loop at its step (the kernel leaves overflows to that check, without
numpy warnings).  Tanh-sinh levels nest (the level-L nodes are the even-j
nodes of level L + 1), so each level after a leg's first evaluates only
the odd-j nodes it adds and takes the rest of its sum from the level
before.  Every refinement starts at level 4 (4 panels for
Gauss-Legendre).  No form can leave before the second step, so the first
pass takes the first two steps at once: one node table holds both steps'
nodes (the level-4 nodes and the new level-5 ones, or the 4- and 8-panel
meshes), and the kernel returns a sum per step's node range, each with
the bits of a pass of its own.  Every later pass takes one step.

The legs of a curve go through one batch, `leg_rows`: one `_refine` gates
every (leg, form) pair, each pass takes the continued logs of all the
open legs in one call, and legs whose open forms match and whose targets
lie on the same side of the kernel's column split (below) share one
kernel call.  Each leg's values have the same bits as in a batch of its
own.

Smooth pieces all go through one batch, `_gl_batch`: a caller hands over
every segment it needs at once (all the detour prefixes of the legs, or
all the loop pieces of an oracle), each with its start logs chained up
front in closed form, for all its chains in one `contour.chain_logs`
call.  One refinement loop gates every (segment, form) pair, and each
pass makes one kernel call per set of open forms, with a piece axis; the
kernel gives every piece the same bits as a call of its own.

A form's term at a node is exp(E . X): E its exponent row, X the node's
continued logs.  Column 0 of the forms' exponent matrix takes at most
(n-1)(k-1)-1 values and every other column at most k, so the kernel
splits the columns into two groups, exponentiates each group only over
its distinct rows, and takes every form's node sum from one product of
the two factors, summed in a fixed order.  It stays unsplit where a split
would not at least halve the exponentials per node.

Node positions are handled in terms of the distance fractions to either
endpoint (sigma toward the singular end, tau toward the start), never as
absolute coordinates, so evaluation stays stable when nodes approach the
endpoint to within 1e-290 of the leg length (closer positions are clipped
to that distance; log sigma is exact).  Every continued log has a closed
form: along the straight leg the singular factor's is the start value
plus log sigma, and every other factor's comes from the line rule of the
contour module, which the Gauss-Legendre pieces (detour prefixes and the
oracle's loops) share with its arc rule.  Both rules take the principal
Log in real arithmetic, as log|z| + i arg z: near |z| = 1 that is
accurate in absolute terms only, which is all a log that is only
exponentiated needs.  The integral beyond a level's last node, which the
sum leaves out, is added in closed form too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import contour
from .contour import BranchState
from .curve import CurveSpec, FormIndex
from .errors import ClearanceUnachievable, NoConvergence, StepTooCoarse

# t-range of the double-exponential substitution; beyond this the node
# distance to the endpoint drops under the 1e-290 clip.
_T_MAX = 6.1
# Distance clip (as a fraction of leg length) for the node positions
# nearest either endpoint.
_SIGMA_MIN = 1e-290
# Gauss-Legendre order per panel and the panel-doubling budget.
_GL_ORDER = 16
_GL_MAX_PANELS = 2 ** 13
# Largest forms x nodes block evaluated at once by the kernel, in complex
# values (32 MiB).
_BLOCK_VALUES = 2 ** 21
# Nodes per BLAS product in the split kernel's node sum (`_node_product`).
_CHUNK_NODES = 64
# The first tanh-sinh level of every leg (195 nodes): levels nest, so a
# leg that converges at level M evaluates the nodes of level M once in
# all, and the start only sets where the two-level gate first looks.
_START_LEVEL = 4
# Highest tanh-sinh level, 2 floor(_T_MAX 2**18) + 1 = 3.2M nodes.  A leg
# that refines that far holds its 1.6M new nodes in one node table:
# `periods -k 3 -n 3 -l 1e300 --max-level 18` exits 3 at level 18 after
# 1.6-1.8 s in-process with a 430 MB peak (one BLAS thread, numpy 2.4,
# Linux x86-64).
_LEVEL_CAP = 18


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and refinement budget shared by both kernels.

    Refinement starts at tanh-sinh level _START_LEVEL (4) and may continue
    to max_level, which lies in 4.._LEVEL_CAP (18), before NoConvergence
    is raised.
    """

    rel_tol: float = 1e-10
    max_level: int = 14

    def __post_init__(self):
        if not _START_LEVEL <= self.max_level <= _LEVEL_CAP:
            raise ValueError(
                f"max_level must lie in {_START_LEVEL}..{_LEVEL_CAP}, got {self.max_level}"
            )
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be a positive finite number")


@lru_cache(maxsize=32)
def _de_nodes(level: int, new: bool = False):
    """tanh-sinh node table at step h = 2**-level: every node, or with new
    only the odd-j nodes t = j h, the ones that level - 1 lacks.

    Returns (sigma, tau, log_sigma, log_weight): distance fractions to the
    x=+1 and x=-1 ends, the log of sigma and the log of the trapezoid
    weight h * x'(t), ordered by ascending t (the x=-1 end first).
    """
    h = 2.0 ** (-level)
    last = _last_j(level)
    j = np.arange(-last, last + 1)
    if new:
        j = j[j % 2 != 0]
    return _de_table(h * j, h)


def _last_j(level: int) -> int:
    """The node index j of a level's last node, t = j 2**-level <= _T_MAX."""
    return math.floor(_T_MAX * 2.0**level)


@lru_cache(maxsize=32)
def _last_node(level: int):
    """A level's last node as a one-node table (see `_de_nodes`), and its
    weight over its sigma."""
    h = 2.0 ** (-level)
    table = _de_table(np.array([h * _last_j(level)]), h)
    return table, math.exp(table[3][0] - table[2][0])


def _de_table(t, h: float):
    """sigma, tau, log_sigma and log_weight (see `_de_nodes`) at the
    parameters t of a level with step h.  The positions sigma and tau are
    clipped at _SIGMA_MIN; log_sigma is exact."""
    u = 0.5 * np.pi * np.sinh(t)
    # (1 - tanh u)/2 and (1 + tanh u)/2 without cancellation
    au = np.abs(u)
    e = np.exp(-2.0 * au)
    near = e / (1.0 + e)
    far = 1.0 / (1.0 + e)
    sigma = np.maximum(np.where(u >= 0, near, far), _SIGMA_MIN)
    tau = np.maximum(np.where(u >= 0, far, near), _SIGMA_MIN)
    log_sigma = -np.log1p(e) - np.where(u >= 0, 2.0 * au, 0.0)
    log_cosh_u = au + np.log1p(e) - math.log(2.0)
    log_weight = (
        math.log(0.5 * np.pi) + np.log(np.cosh(t)) - 2.0 * log_cosh_u + math.log(h)
    )
    return sigma, tau, log_sigma, log_weight


def _refine(rows_at, steps, pieces: int, forms: int, rel_tol: float, unit: str):
    """The one refinement loop of both kernels, over the pieces x forms
    rows: row p * forms + f is form f of piece p.

    rows_at(steps, todo) evaluates the rows todo at each of steps in one
    pass and returns one (values, scale) per step, in order.  A row is
    taken at the first step where it agrees with the previous step to
    rel_tol times its scale, and only the rows still open are evaluated at
    the next step.  No row can be taken before the second step, so the
    first pass is asked for the first two steps and every later pass for
    one.  Returns all the values, or raises NoConvergence with the piece
    and form of a row and the step, described as unit: of the first open
    row that is not finite at a step (an infinite value would pass the
    gate), else of the first open row after the last step.
    """
    steps = list(steps)
    todo = np.arange(pieces * forms)
    row = prev = None
    while steps:
        for cur, scale in rows_at(steps[: 2 if prev is None else 1], todo):
            step = steps.pop(0)
            if row is None:
                row = np.zeros_like(cur)
            wrong = np.flatnonzero(~np.isfinite(cur))
            if wrong.size:
                piece, form = divmod(int(todo[wrong[0]]), forms)
                raise NoConvergence(f"value is not finite at {unit} {step}", form, piece)
            if prev is not None:
                done = np.abs(cur - prev) <= rel_tol * scale
                row[todo[done]] = cur[done]
                todo, cur = todo[~done], cur[~done]
            if not todo.size:
                return row
            prev = cur
    piece, form = divmod(int(todo[0]), forms)
    raise NoConvergence(f"did not reach rel_tol={rel_tol} by {unit} {step}", form, piece)


def tanh_sinh(f, a: float, b: float, cfg: QuadConfig):
    """Integrate f over [a, b] with the tanh-sinh rule.

    f is called vectorized as f(x, d_left, d_right) where d_left, d_right
    are the distances to a and b; endpoint-singular integrands should be
    written in terms of those distances.
    """

    def rows_at(levels, todo):
        values = [np.atleast_1d(tanh_sinh_level(f, a, b, level)) for level in levels]
        return [(value, np.abs(value)) for value in values]

    levels = range(_START_LEVEL, cfg.max_level + 1)
    return _refine(rows_at, levels, 1, 1, cfg.rel_tol, "tanh-sinh level")[0]


def tanh_sinh_level(f, a: float, b: float, level: int):
    """Single-level tanh-sinh sum (exposed for convergence diagnostics)."""
    sigma, tau, _, log_weight = _de_nodes(level)
    span = b - a
    x = a + tau * span
    vals = f(x, tau * abs(span), sigma * abs(span))
    return 0.5 * span * np.sum(vals * np.exp(log_weight))


def _leg_logs(lines, targets, R, logs0, nodes):
    """Continued logs at the tanh-sinh nodes of straight legs, one block of
    rows per leg and one column per factor, then the nodes' log weight as
    one more column.

    Leg m runs along lines[m] to the branch point R[targets[m]], from the
    start logs logs0[m]; nodes is a node table as `_de_nodes` gives it.
    The target's log is its start log plus log sigma.  Every other factor's
    comes from one `contour._line_logs` call for all the legs, each with its
    own anchors: the line rule raises StepTooCoarse on an anchor at a
    line's end, so each leg leaves out its target.  A StepTooCoarse names
    its leg's position as `piece`.
    """
    sigma, tau, log_sigma, log_weight = nodes
    anchors = np.asarray(R, dtype=complex)
    n = len(R)
    legs = np.arange(len(lines))
    logs0 = np.asarray(logs0, dtype=complex).reshape(len(lines), n)
    others = np.array([[s for s in range(n) if s != t] for t in targets], dtype=np.intp)
    logs = contour._line_logs(
        lines, tau, sigma, anchors[others], logs0[legs[:, None], others]
    )
    # allocated after the line rule, whose temporaries are larger
    X = np.empty((len(lines), len(tau), n + 1), dtype=complex)
    np.put_along_axis(X, others[:, None, :], logs, axis=2)
    del logs
    X[legs, :, targets] = logs0[legs, targets][:, None] + log_sigma
    X[:, :, n] = log_weight
    return X


def _leg_rows(lines, targets, R, logs0, E):
    """rows_at(levels, todo) of the tanh-sinh sums over straight legs (as in
    `_leg_logs`) for the (leg, form) rows todo: row m * len(E) + f is leg
    m's sum for the form E[f].

    Levels nest: the level-L nodes are the even-j nodes t = j 2**-(L+1) of
    level L + 1, where the weights are halved.  So a level that follows
    one summed for a superset of its rows, earlier in the same pass or at
    the end of the previous pass (as `_refine` makes them), evaluates only
    its new odd-j nodes and adds their sum to half the previous node sum;
    any other level evaluates its whole table.  A leg that converges at
    level M thus evaluates the nodes of level M once in all.

    A pass takes the levels it is asked for (two in `_refine`'s first
    pass, one in every later pass).  Its node table lines up each level's
    nodes, each followed by that level's last node J: the first pass holds
    the level-L table and the new nodes of level L + 1, and one
    `_leg_logs` call per block of legs and one kernel call per group cover
    both, the kernel returning a sum per level's node range, S_(L+1) =
    S_L / 2 + S_new.  So each level has the bits of a pass of its own.

    Each pass takes the open legs in blocks that stay within
    _BLOCK_VALUES, with one `_leg_logs` call per block.  The node
    log-weight is the logs' last column, and E gets a column of ones, tied
    to the target's column in the kernel, so the weight and the power of
    sigma share one exponential: near the singular end a separate weight
    factor would underflow while the power of sigma overflows.  The tie
    moves no cut of `_factored`, so the legs of a block whose targets lie
    on the same side of it, and whose open forms match, share one kernel
    call, each with its own D / 2 as its weight; its sums have the same
    bits as alone.

    Each returned value adds the integral beyond the level's last node J,
    which its sum leaves out.  There W is sigma**e_t (e_t the target
    exponent) times factors constant to double precision, so that integral
    is W(w_J) D sigma_J / (1 + e_t); the sum already holds half of node J's
    term for it (Euler-Maclaurin at the truncation), which is taken back.
    For e_t near -1 (large k) the piece is significant: it is about
    sigma_J**(1 + e_t) of the integral.  The gate scale is |I|.
    """
    n, size = len(R), len(E)
    targets = np.asarray(targets, dtype=np.intp)
    logs0 = np.asarray(logs0, dtype=complex).reshape(len(lines), n)
    D = np.array([line.end - line.start for line in lines], dtype=complex)
    E1 = np.hstack([E, np.ones((size, 1))])
    rise = 1.0 / (1.0 + E[:, targets])
    ties = [(int(t), n) for t in targets]
    # each leg's tie class: the side of the cut its target lies on
    sides = []
    for tie in ties:
        split = _factored(E1.tobytes(), E1.shape, tie)
        sides.append(split is None or tie[0] in split[0][0])
    last = None

    def rows_at(levels, todo):
        nonlocal last
        new = last is not None and last[0] == levels[0] - 1
        steps = [(levels[0], new)] + [(level, True) for level in levels[1:]]
        tails = [_last_node(level) for level, _ in steps]
        # each level's nodes and its last node J, for the tail beyond it
        parts = []
        for (level, only_new), (j_table, _) in zip(steps, tails):
            parts += [_de_nodes(level, only_new), j_table]
        nodes = [np.concatenate(cols) for cols in zip(*parts)]
        sizes = [len(table[0]) + 1 for table in parts[::2]]
        stops = np.cumsum(sizes)
        ranges = [(stop - count, stop - 1) for count, stop in zip(sizes, stops)]
        leg, form = np.divmod(todo, size)
        first = np.flatnonzero(np.diff(leg, prepend=-1))
        forms_of = np.split(form, first[1:])
        sums = np.empty((len(steps), len(todo)), dtype=complex)
        at_j = np.empty((len(steps), len(lines), n), dtype=complex)
        # a block's logs and the line rule's temporaries, about four arrays
        # of that size, stay within _BLOCK_VALUES
        fit = max(1, _BLOCK_VALUES // (4 * len(nodes[0]) * (n + 1)))
        for b in range(0, len(first), fit):
            ats = first[b : b + fit]
            legs = leg[ats]
            try:
                X = _leg_logs([lines[m] for m in legs], targets[legs], R, logs0[legs], nodes)
            except StepTooCoarse as err:
                err.piece = int(legs[err.piece])
                raise
            at_j[:, legs] = X[:, stops - 1, :n].transpose(1, 0, 2)
            groups: dict[tuple, tuple[np.ndarray, list[int]]] = {}
            for p, at in enumerate(ats):
                forms = forms_of[b + p]
                groups.setdefault((sides[leg[at]], forms.tobytes()), (forms, []))[1].append(p)
            for forms, ps in groups.values():
                # a view of the block's logs where the group is a run of legs
                run = slice(ps[0], ps[-1] + 1) if ps[-1] - ps[0] == len(ps) - 1 else ps
                vw = np.broadcast_to(0.5 * D[legs[run], None], (len(ps), len(nodes[0])))
                cur = _panel_sums(E1, forms, X[run], vw, ranges, tie=ties[legs[ps[0]]])[0]
                sums[:, ats[ps, None] + np.arange(len(forms))] = cur
            del X  # before the next block's logs are made
        prev = last[2][np.searchsorted(last[1], todo)] if new else None
        values = []
        Et = E[form]
        for s, (j_table, ratio) in enumerate(tails):
            if s or new:
                sums[s] += 0.5 * prev
            prev = sums[s]
            # W(w_J) sigma_J; node J's term is W(w_J) sigma_J ratio D / 2
            x = at_j[s, leg]
            scaled = np.exp(
                (Et * x.real).sum(axis=1) + j_table[2][0] + 1j * (Et * x.imag).sum(axis=1)
            )
            cur = sums[s] + scaled * D[leg] * (rise[form, leg] - 0.25 * ratio)
            values.append((cur, np.abs(cur)))
        last = steps[-1][0], todo, prev
        return values

    return rows_at


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_mesh(panels: int):
    """Parameters in [0, 1] and weights of the Gauss-Legendre rule on panels
    equal panels."""
    gx, gw = _gl_rule(_GL_ORDER)
    offsets = np.arange(panels) / panels
    ts = (offsets[:, None] + (gx[None, :] + 1.0) / (2.0 * panels)).ravel()
    return ts, np.tile(gw / (2.0 * panels), panels)


def _gl_batch(segments, starts, R, E, cfg: QuadConfig):
    """Integrals of W dw for every form (the rows of the exponent matrix E)
    over each smooth segment, from that segment's start logs (the rows of
    starts), with panel-doubled Gauss-Legendre: one row per segment.

    Every (segment, form) pair is a row of one `_refine`.  A pass takes the
    continued logs of the open segments at its panel counts' nodes, one
    `contour` call per segment kind, and evaluates them in one kernel call
    per set of open forms, with a piece axis: pieces whose open forms match
    share the call, and each piece's sums come out as they would alone.
    The first pass takes the 4- and 8-panel meshes together, and the kernel
    returns a sum per mesh's node range, each with the bits of a pass of
    its own; every later pass takes one panel count.  A pair is gated
    against max(|I|, 1e-3 * L1) so that closed-loop cancellations still
    settle.  A NoConvergence or a StepTooCoarse carries the position of its
    segment as `piece` (and a NoConvergence its form as `form`).
    """
    anchors = np.asarray(R, dtype=complex)
    starts = np.asarray(starts, dtype=complex).reshape(len(segments), len(R))
    is_arc = np.array([isinstance(seg, contour.Arc) for seg in segments])
    size = len(E)

    def evaluate(pieces, forms, ts, weights, ranges):
        X = np.empty((len(pieces), len(ts), len(R)), dtype=complex)
        vw = np.empty((len(pieces), len(ts)), dtype=complex)
        for arc in (False, True):
            slot = np.flatnonzero(is_arc[pieces] == arc)
            if not slot.size:
                continue
            segs = [segments[p] for p in pieces[slot]]
            try:
                X[slot] = contour._kind_logs(segs, ts, anchors, starts[pieces[slot]])
            except StepTooCoarse as err:
                err.piece = int(pieces[slot[err.piece]])
                raise
            vw[slot] = contour._kind_velocity(segs, ts) * weights
        return _panel_sums(E, forms, X, vw, ranges, magnitudes=True)

    def rows_at(steps, todo):
        sizes = [_GL_ORDER * panels for panels in steps]
        ts, weights = (np.concatenate(cols) for cols in zip(*map(_gl_mesh, steps)))
        stops = np.cumsum(sizes)
        ranges = [(stop - count, stop) for count, stop in zip(sizes, stops)]
        piece, form = np.divmod(todo, size)
        first = np.flatnonzero(np.diff(piece, prepend=-1))
        # pieces whose open forms match, with the position of their first row
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for at, forms in zip(first, np.split(form, first[1:])):
            groups.setdefault(forms.tobytes(), (forms, []))[1].append(at)
        cur = np.empty((len(steps), len(todo)), dtype=complex)
        scale = np.empty(cur.shape)
        # the pieces taken at once: their logs and the line rule's
        # temporaries, about four arrays of that size, stay within one block
        fit = max(1, _BLOCK_VALUES // (4 * len(ts) * len(R)))
        for forms, ats in groups.values():
            for b in range(0, len(ats), fit):
                at = np.asarray(ats[b : b + fit])
                rows, l1 = evaluate(piece[at], forms, ts, weights, ranges)
                where = at[:, None] + np.arange(len(forms))
                cur[:, where] = rows
                scale[:, where] = np.maximum(np.abs(rows), 1e-3 * l1)
        return list(zip(cur, scale))

    panels = [2**p for p in range(2, _GL_MAX_PANELS.bit_length())]  # 4 .. max
    row = _refine(
        rows_at, panels, len(segments), size, cfg.rel_tol, "Gauss-Legendre panels"
    )
    return row.reshape(len(segments), size)


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


@np.errstate(over="ignore", invalid="ignore")
def _panel_sums(E, todo, X, vw, ranges=None, magnitudes: bool = False, tie=None):
    """Sums of exp(E[todo] @ X[p].T) * vw[p] over the nodes of each range
    (start, stop) of ranges (by default all nodes), with one axis for the
    ranges, one row per piece p and one column per open row of E; and with
    magnitudes also the sums of their magnitudes (else None).

    The evaluation kernel of both rules: X holds, per piece, one row of
    continued logs per node, and vw the node weights times dw/dt (pieces x
    nodes, or one common factor).  When `_factored` (given tie) splits the
    exponent columns into groups A and B, a term factors as
    exp(E_A . X_A) exp(E_B . X_B): each group is exponentiated only over
    its distinct rows among the open forms, every form's sum is one entry
    of the complex product of P_A * vw and P_B over the nodes, and its
    magnitude sum one entry of the real product |P_A * vw| @ |P_B|.T,
    accumulated over blocks of nodes.  The complex product sums over the
    nodes in a fixed order (`_node_product`).  Unsplit, each row is summed
    over all nodes directly, in blocks of rows.

    Each range is taken in blocks as a call over its nodes alone would take
    them, so one call over the node ranges of several refinement steps
    gives each step's sums the bits of a call of its own.  Every temporary
    stays under _BLOCK_VALUES.  A block is sized for one piece as if it
    were alone, and pieces whose blocks fit together are taken together, so
    each piece's sums have the same bits as alone.  Overflows and invalid
    values raise no numpy warning: a sum they leave not finite ends
    `_refine` at its step.
    """
    split = _factored(E.tobytes(), E.shape, tie)
    pieces = X.shape[0]
    ranges = [(0, X.shape[1])] if ranges is None else ranges

    def powers(rows, ps, ns, cols):
        Xs = X[ps, ns, cols].transpose(0, 2, 1)
        # Real products: np.exp right after a complex matmul ran ~8x slower
        # (OpenBLAS).  They fill one complex array, exponentiated in place,
        # where a + 1j * b would build two complex temporaries.
        out = np.empty((Xs.shape[0], len(rows), Xs.shape[2]), dtype=complex)
        out.real = rows @ Xs.real
        out.imag = rows @ Xs.imag
        return np.exp(out, out=out)

    def weights(ps, ns):
        return vw if np.ndim(vw) == 0 else vw[ps, None, ns]

    if split is None:
        rows, every = E[todo], slice(None)
        cur = np.empty((len(ranges), pieces, len(rows)), dtype=complex)
        l1 = np.empty(cur.shape) if magnitudes else None
        for r, (start, stop) in enumerate(ranges):
            ns = slice(start, stop)
            step = max(1, _BLOCK_VALUES // (stop - start))
            group = max(1, step // max(1, len(rows)))
            for p in range(0, pieces, group):
                ps = slice(p, p + group)
                for b in range(0, len(rows), step):
                    block = slice(b, b + step)
                    terms = powers(rows[block], ps, ns, every) * weights(ps, ns)
                    cur[r, ps, block] = terms.sum(axis=2)
                    if magnitudes:
                        l1[r, ps, block] = np.abs(terms).sum(axis=2)
                    del terms  # before the next block's are made
        return cur, l1
    (cols_a, rows_a, at_a), (cols_b, rows_b, at_b) = (
        _open_rows(group, todo) for group in split
    )
    cur = np.zeros((len(ranges), pieces, len(rows_a), len(rows_b)), dtype=complex)
    l1 = np.zeros(cur.shape) if magnitudes else None
    step = max(1, _BLOCK_VALUES // max(len(rows_a), len(rows_b)))
    for r, (start, stop) in enumerate(ranges):
        group = max(1, step // (stop - start))
        for p in range(0, pieces, group):
            ps = slice(p, p + group)
            for b in range(start, stop, step):
                ns = slice(b, min(b + step, stop))
                P_a = powers(rows_a, ps, ns, cols_a) * weights(ps, ns)
                P_b = powers(rows_b, ps, ns, cols_b)
                cur[r, ps] += _node_product(P_a, P_b)
                if magnitudes:
                    l1[r, ps] += np.abs(P_a) @ np.abs(P_b).transpose(0, 2, 1)
                del P_a, P_b  # before the next block's are made
    return cur[..., at_a, at_b], l1[..., at_a, at_b] if magnitudes else None


def _node_product(P_a, P_b):
    """P_a @ P_b.T per piece, summed over the nodes (the last axis) in a
    fixed order: one BLAS product per chunk of _CHUNK_NODES nodes, added in
    chunk order.

    A single product over all nodes sums them in an order that depends on
    the BLAS thread count, and J's last bits with it: OpenBLAS cuts a long
    inner dimension into blocks, and its one-thread and threaded drivers
    place the cuts differently (seen at 195 and 781 nodes, never at 64 or
    128).  A chunk is shorter than any such block, so each chunk's sum, and
    the output, is the same on any thread count.  np.einsum has a fixed
    order too but ran 5-10x slower on these shapes.
    """
    pieces, a, nodes = P_a.shape
    b = P_b.shape[1]
    full = nodes // _CHUNK_NODES * _CHUNK_NODES
    chunks = np.matmul(
        P_a[..., :full].reshape(pieces, a, -1, _CHUNK_NODES).transpose(0, 2, 1, 3),
        P_b[..., :full].reshape(pieces, b, -1, _CHUNK_NODES).transpose(0, 2, 3, 1),
    )
    return chunks.sum(axis=1) + P_a[..., full:] @ P_b[..., full:].transpose(0, 2, 1)


def _open_rows(group, todo):
    """A group's columns, its distinct rows among the open forms todo, and
    each open form's index into those rows; the group itself when every
    form is open, since its rows are the distinct rows of all forms."""
    cols, rows, index = group
    if len(todo) == len(index):
        return group
    present, inverse = np.unique(index[todo], return_inverse=True)
    return cols, rows[present], inverse.reshape(-1)


def leg_rows(
    state: BranchState, legs, forms: list[FormIndex], spec: CurveSpec, cfg: QuadConfig
) -> np.ndarray:
    """Integrals of W dw from the state's point to each branch point r_i, i
    in legs: one row per leg and one column per form.

    Each leg follows the route of `contour.clear_leg`, which the oracle's
    loop around r_i shares.  The detour prefixes of all the legs go through
    one `_gl_batch` call, and the singular final pieces through one
    `_refine` over (leg, form) rows, so each level evaluates its new nodes
    once for every leg and form still open (`_leg_rows`).  Each row has the
    same bits as the leg's own call.  A NoConvergence names i and the
    alpha of the row `_refine` names (the first one not finite, else the
    first one that did not converge); a routing or continuation failure
    names only i, because the node logs serve every form.
    """
    R = state.branch_points
    routes, failure = [], None
    for i in legs:
        try:
            routes.append(contour.clear_leg(state.point, complex(R[i - 1]), R, exclude={i - 1}))
        except ClearanceUnachievable as err:
            failure = err
            break
    # the leg of each detour prefix segment, every route piece but the last
    owner = [m for m, route in enumerate(routes) for _ in route[1:]]
    try:
        chains = contour.chain_logs([route[:-1] for route in routes], R, [state.logs] * len(routes))
    except StepTooCoarse as err:
        raise StepTooCoarse(f"base integral i={legs[owner[err.piece]]}: {err}") from err
    # a routing failure comes after the continuation of the legs before it
    if failure is not None:
        i = legs[len(routes)]
        raise ClearanceUnachievable(f"base integral i={i}: {failure}") from failure
    rows = np.zeros((len(routes), len(forms)), dtype=complex)
    if not forms:
        return rows
    E = contour.exponent_matrix(forms, spec.k, spec.n)
    try:
        if owner:
            prefixes = [seg for route in routes for seg in route[:-1]]
            starts = [logs for chain in chains for logs in chain[:-1]]
            try:
                prefix_rows = _gl_batch(prefixes, starts, R, E, cfg)
            except (NoConvergence, StepTooCoarse) as err:
                err.piece = owner[err.piece]
                raise
            for m, values in zip(owner, prefix_rows):
                rows[m] += values
        rows_at = _leg_rows(
            [route[-1] for route in routes],
            [i - 1 for i in legs],
            R,
            [chain[-1] for chain in chains],
            E,
        )
        levels = range(_START_LEVEL, cfg.max_level + 1)
        rows += _refine(
            rows_at, levels, len(routes), len(forms), cfg.rel_tol, "tanh-sinh level"
        ).reshape(rows.shape)
    except NoConvergence as err:
        i, alpha = legs[err.piece], forms[err.form].alpha
        raise NoConvergence(f"base integral i={i}, alpha={alpha}: {err}", err.form) from err
    except StepTooCoarse as err:
        raise StepTooCoarse(f"base integral i={legs[err.piece]}: {err}") from err
    return rows
