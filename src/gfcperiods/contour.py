"""Paths in the punctured plane and branch-tracked evaluation of the
period integrand.

The integrand attached to a form with exponents alpha is

    W(w) = (-w)**((alpha_1+1)/k - 1) * prod_{t>=2} (w - r_t)**(-alpha_t/k),

a multivalued function on C minus the branch set R.  Rather than picking
global cuts, a BranchState carries one continued value of log(-w) and of
each log(w - r_t); continuing the state along a path and exponentiating
recovers the correct sheet of W everywhere.  `_kind_logs` gives the
continued logs at any nodes of several lines, or of several arcs, in
closed form, each node on its own, and raises StepTooCoarse naming a
segment that runs through a branch point; `chain_logs` carries the logs
from segment to segment, for many chains at once.

Paths are chains of line segments and circular arcs.  `clear_leg` is the
one routing decision: the straight line from the base point to a branch
point, with a perpendicular midpoint detour when it passes too close to
another branch point relative to the leg's length.  The J legs of the quad
module and the generator loops (in along the route, cut at a small circle
around the branch point, the full circle, and the same route back out)
both follow it, so each loop is homotopic to its leg by construction.
`loop_pieces` gives a loop's route in and circle; the way out is that
route reversed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasePointOnBranchPoint,
    ClearanceUnachievable,
    StepTooCoarse,
)

# A branch point is an obstacle to a leg when it lies closer to the leg
# than this fraction of the leg's length or of its distance to the target.
_LEG_CLEARANCE = 3e-3


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex


@dataclass(frozen=True)
class Arc:
    """Circular arc traversed from start_angle to end_angle: counterclockwise
    when end_angle > start_angle, clockwise when it is smaller."""

    center: complex
    radius: float
    start_angle: float
    end_angle: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")


@dataclass(frozen=True)
class BranchState:
    """Continued logarithms at a point over a fixed branch set.

    logs[0] is the continued log(-w); logs[t-1] is the continued
    log(w - r_t) for t = 2..n.  exp(logs) always reproduces the factors.
    Continuation increments of log(-w) equal those of log(w - r_1) because
    the ratios agree, so every slot is continued against its branch point.
    """

    point: complex
    logs: tuple[complex, ...]
    branch_points: tuple[complex, ...]


def diameter(R) -> float:
    pts = [complex(r) for r in R]
    return max(abs(a - b) for a in pts for b in pts)


def loop_radius(i: int, R) -> float:
    """Radius of the circle around r_i: a quarter of the distance to the
    nearest other branch point."""
    r = complex(R[i - 1])
    return 0.25 * min(abs(r - complex(o)) for idx, o in enumerate(R) if idx != i - 1)


def default_base_point(R) -> complex:
    """Centroid of R raised by twice the diameter; keeps every leg well
    clear of the branch points for generic configurations."""
    c = sum(complex(r) for r in R) / len(R)
    return c + 2j * diameter(R)


def init_branch(base_point: complex, R) -> BranchState:
    """Principal-branch logs of -z0 and z0 - r_t at the base point."""
    z0 = complex(base_point)
    pts = tuple(complex(r) for r in R)
    if any(z0 == r for r in pts):
        raise BasePointOnBranchPoint(f"base point {z0} is a branch point")
    logs = [cmath.log(-z0)]
    logs.extend(cmath.log(z0 - r) for r in pts[1:])
    return BranchState(point=z0, logs=tuple(logs), branch_points=pts)


def _log(z) -> np.ndarray:
    """The principal Log of z in real arithmetic: log|z| + i atan2(Im z, Re z).

    numpy's complex log costs about ten times as much.  Near |z| = 1 this
    keeps only absolute accuracy (a few ulp of max(1, |Log z|)), which is
    all the continued logs need: they enter the integrand only through
    exp(E . X).  On the negative real axis the sign of Im z picks +-pi, as
    in np.log.
    """
    out = np.empty(z.shape, dtype=complex)
    np.log(np.abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _line_logs(lines, tau, sigma, anchors, logs0) -> np.ndarray:
    """Continued logs of w - r, one column per anchor r, at the nodes of
    each line of lines, from that line's row of logs0: logs0 +
    Log((w - r)/(start - r)), one block of rows per line.  anchors is one
    row of anchors for every line, or one row per line.

    A node is given by its distance fractions tau from the start and sigma
    from the end, and each difference is taken from the nearer endpoint:
    w - r = (start - r) + tau (end - start), or (end - r) - sigma (end -
    start) where sigma < tau.  So a difference that is small near either
    end keeps its relative precision.  The ratio moves on a line from 1,
    so it meets the principal cut only if the line passes through r: at a
    node, where a difference is 0, or between nodes, where the ratio at
    the line's end is a non-positive real.  Either raises StepTooCoarse
    naming the first such line.
    """
    starts = np.array([seg.start for seg in lines], dtype=complex)
    ends = np.array([seg.end for seg in lines], dtype=complex)
    offsets = starts[:, None] - anchors
    rests = ends[:, None] - anchors
    span = (ends - starts)[:, None, None]
    diffs = np.where(
        (sigma < tau)[None, :, None],
        rests[:, None, :] - sigma[None, :, None] * span,
        offsets[:, None, :] + tau[None, :, None] * span,
    )
    if offsets.all() and diffs.all():
        last = rests / offsets
        if not ((last.imag == 0) & (last.real <= 0)).any():
            return logs0[:, None, :] + _log(diffs / offsets[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        last = rests / offsets
    crossed = ((last.imag == 0) & (last.real <= 0)).any(axis=1)
    bad = crossed | ~offsets.all(axis=1) | ~diffs.all(axis=(1, 2))
    raise StepTooCoarse(
        "continuation point coincides with a branch point", piece=int(np.argmax(bad))
    )


def _arc_logs(arcs, ts, anchors, logs0) -> np.ndarray:
    """Continued logs of w - r, one column per anchor r, at the parameters
    ts of each arc w = c + v, v = rho e^(i theta), of arcs, from that arc's
    row of logs0, one block of rows per arc.

    With u = r - c, w - r is v (1 - u/v) for |u| < rho and -u (1 - v/u)
    for |u| > rho.  Either Log argument has a positive real part, so the
    continued log is i theta + Log(1 - u/v), or Log(1 - v/u), less its
    value at the start angle, plus logs0.  |u| = rho raises StepTooCoarse
    naming the first such arc.
    """
    centers = np.array([seg.center for seg in arcs], dtype=complex)
    radii = np.array([seg.radius for seg in arcs])[:, None]
    angles = np.array([seg.start_angle for seg in arcs])[:, None]
    sweeps = np.array([seg.end_angle - seg.start_angle for seg in arcs])[:, None]
    u = anchors - centers[:, None]
    inside = np.abs(u) < radii
    sweep = np.concatenate(([0.0], ts))[None, :] * sweeps
    v = (radii * np.exp(1j * (angles + sweep)))[:, :, None]
    outer = np.where(inside, 1.0, u)[:, None, :]
    rest = 1.0 - np.where(inside[:, None, :], u[:, None, :] / v, v / outer)
    ok = ~(np.abs(u) == radii).any(axis=1) & rest.all(axis=(1, 2))
    if not ok.all():
        raise StepTooCoarse(
            "continuation point coincides with a branch point", piece=int(np.argmin(ok))
        )
    logs = _log(rest)
    np.add(logs, 1j * sweep[:, :, None], out=logs, where=inside[:, None, :])
    return logs0[:, None, :] + (logs[:, 1:] - logs[:, :1])


def _kind_logs(segs, ts, anchors, logs0) -> np.ndarray:
    """Continued logs over the anchors at parameters ts of segments of one
    kind, each from its row of logs0: one block of rows per segment.  A
    line's node at t lies a fraction 1 - t of the line from its end."""
    if isinstance(segs[0], Line):
        return _line_logs(segs, ts, 1.0 - ts, anchors, logs0)
    return _arc_logs(segs, ts, anchors, logs0)


def _kind_velocity(segs, ts) -> np.ndarray:
    """dw/dt at parameters ts of segments of one kind, one row per segment
    (a single column for lines, whose velocity is constant)."""
    if isinstance(segs[0], Line):
        return np.array([seg.end - seg.start for seg in segs], dtype=complex)[:, None]
    coef = np.array([1j * (seg.end_angle - seg.start_angle) * seg.radius for seg in segs])
    angles = np.array([seg.start_angle for seg in segs])[:, None]
    sweeps = np.array([seg.end_angle - seg.start_angle for seg in segs])[:, None]
    return coef[:, None] * np.exp(1j * (angles + ts * sweeps))


def chain_logs(chains, R, logs0) -> list[np.ndarray]:
    """Continued logs at the start of each segment of each chain, then at
    its end: one array of len(chain) + 1 rows per chain, from the chain's
    row of logs0.

    A segment's log increment from its start to its end (parameter 1) is
    the same whatever other parameters it is evaluated at.  Every
    segment's comes from one `_kind_logs` call per segment kind, and each
    chain adds its increments in segment order, so its logs have the bits
    of a chain of its own.  A StepTooCoarse names as piece the position of
    the first failing segment among all the chains' segments, in order.
    """
    anchors = np.asarray(R, dtype=complex)
    logs0 = np.asarray(logs0, dtype=complex).reshape(len(chains), len(anchors))
    segs = [seg for chain in chains for seg in chain]
    rises = np.zeros((len(segs), len(anchors)), dtype=complex)
    is_arc = np.array([isinstance(seg, Arc) for seg in segs], dtype=bool)
    failed = []
    for arc in (False, True):
        slot = np.flatnonzero(is_arc == arc)
        if not slot.size:
            continue
        try:
            rises[slot] = _kind_logs(
                [segs[s] for s in slot], np.ones(1), anchors, rises[slot]
            )[:, 0]
        except StepTooCoarse as err:
            err.piece = int(slot[err.piece])
            failed.append(err)
    if failed:
        raise min(failed, key=lambda err: err.piece)
    # each chain's start and rises in a row of its own, padded at the end
    lengths = [len(chain) for chain in chains]
    rows = np.zeros((len(chains), max(lengths, default=0) + 1, len(anchors)), dtype=complex)
    rows[:, 0] = logs0
    at = 0
    for c, length in enumerate(lengths):
        rows[c, 1 : length + 1] = rises[at : at + length]
        at += length
    logs = np.cumsum(rows, axis=1)
    return [logs[c, : length + 1] for c, length in enumerate(lengths)]


def exponent_matrix(forms, k: int, n: int) -> np.ndarray:
    """Exponent vectors of the forms as the rows of a (len(forms), n) matrix:
    M/k with 1 subtracted from the first column, M the forms' m_exponents."""
    M = np.asarray([form.m_exponents for form in forms], dtype=np.int64)
    E = M.reshape(len(forms), n) / k
    E[:, 0] -= 1.0
    return E


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    if ab == 0:
        return abs(p - a)
    # complex division scales its operands, where abs(ab) ** 2 overflows
    t = ((p - a) / ab).real
    if t > 0.5:
        # measured from b, with the fraction taken from b: from a, p - a and
        # 1 - t lose p - b when |a| >> |p - b| / eps, and a far leg to b
        # reads as touching a p near b
        a, ab = b, -ab
        t = ((p - a) / ab).real
    t = min(1.0, max(0.0, t))
    return abs((p - a) - t * ab)


def _line_clear(a: complex, b: complex, pts, clearances: dict[int, float]) -> bool:
    return all(
        _point_segment_distance(pts[idx], a, b) >= c for idx, c in clearances.items()
    )


def clear_leg(z_from: complex, z_to: complex, R, exclude: set[int]) -> list[Line]:
    """Straight leg from z_from to z_to, detoured at the midpoint if it
    passes too close to a branch point r_t not in exclude.

    r_t is too close when its distance to a piece is below _LEG_CLEARANCE
    times the smaller of the leg's length and |r_t - z_to|: the quadrature
    converges at a rate set by distance over length, and tanh-sinh already
    resolves a neighbour of the target end.  Both halves of a detour are
    held to the clearances of the outer leg.

    Raises ClearanceUnachievable for a zero-length leg, and when no
    perpendicular offset up to the diameter of R clears the branch points.
    """
    span = z_to - z_from
    if span == 0:
        raise ClearanceUnachievable("degenerate zero-length leg")
    pts = [complex(r) for r in R]
    clearances = {
        idx: _LEG_CLEARANCE * min(abs(span), abs(r - z_to))
        for idx, r in enumerate(pts)
        if idx not in exclude
    }
    if _line_clear(z_from, z_to, pts, clearances):
        return [Line(z_from, z_to)]
    perp = 1j * span / abs(span)
    mid = 0.5 * (z_from + z_to)
    diam = diameter(R)
    offset = max(clearances.values())
    while offset <= diam:
        for sign in (+1.0, -1.0):
            m = mid + sign * offset * perp
            if _line_clear(z_from, m, pts, clearances) and _line_clear(
                m, z_to, pts, clearances
            ):
                return [Line(z_from, m), Line(m, z_to)]
        offset *= 2.0
    raise ClearanceUnachievable(
        f"no midpoint detour up to offset {diam} clears the branch points"
    )


def loop_pieces(base_point: complex, i: int, R) -> tuple[tuple[Line, ...], Arc]:
    """The route in and the counterclockwise circle of the standard loop
    around r_i: along the J leg's route to r_i, cut where it meets the
    circle of radius `loop_radius(i, R)`, then once around that circle."""
    z0 = complex(base_point)
    r = complex(R[i - 1])
    if z0 == r:
        raise BasePointOnBranchPoint(f"base point {z0} is a branch point")
    legs = clear_leg(z0, r, R, exclude={i - 1})
    last = legs[-1].start
    rho = loop_radius(i, R)
    theta0 = cmath.phase(last - r)
    entry = r + rho * cmath.exp(1j * theta0)
    inbound = tuple(legs[:-1]) + (Line(last, entry),)
    circle = Arc(
        center=r, radius=rho, start_angle=theta0, end_angle=theta0 + 2.0 * math.pi
    )
    return inbound, circle

