"""Paths in the punctured plane and branch-tracked evaluation of the
period integrand.

The integrand attached to a form with exponents alpha is

    W(w) = (-w)**((alpha_1+1)/k - 1) * prod_{t>=2} (w - r_t)**(-alpha_t/k),

a multivalued function on C minus the branch set R.  Rather than picking
global cuts, a BranchState carries one continued value of log(-w) and of
each log(w - r_t); continuing the state along a path and exponentiating
recovers the correct sheet of W everywhere.  Continuation accumulates
principal logs of successive point ratios (w' - r)/(w - r), which is exact
as long as no single increment swings the argument by pi or more; the
engine enforces a pi/2 safety threshold and subdivides until it holds.

Paths are chains of line segments and circular arcs.  `clear_leg` is the
one routing decision: the straight line from the base point to a branch
point, with a perpendicular midpoint detour when it passes too close to
another branch point relative to the leg's length.  The J legs of the quad
module and the generator loops of `loop_path` (in along the route, cut at
a small circle around the branch point, the full circle, and the same
route back out) both follow it, so each loop is homotopic to its leg by
construction.
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

# Continuation increments must keep |arg| strictly below this.
ARG_LIMIT = math.pi / 2
# Caps on walk refinement before giving up on a continuation.
_MAX_REFINE = 24
_MAX_WALK_POINTS = 1 << 22
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


Segment = Line | Arc


def segment_start(seg: Segment) -> complex:
    if isinstance(seg, Line):
        return seg.start
    return seg.center + seg.radius * cmath.exp(1j * seg.start_angle)


def segment_end(seg: Segment) -> complex:
    if isinstance(seg, Line):
        return seg.end
    return seg.center + seg.radius * cmath.exp(1j * seg.end_angle)


def segment_points(seg: Segment, t: np.ndarray) -> np.ndarray:
    """Points at parameters t in [0, 1] along the segment."""
    if isinstance(seg, Line):
        return seg.start + t * (seg.end - seg.start)
    ang = seg.start_angle + t * (seg.end_angle - seg.start_angle)
    return seg.center + seg.radius * np.exp(1j * ang)


def segment_velocity(seg: Segment, t: np.ndarray) -> np.ndarray:
    """dw/dt at parameters t (constant for lines)."""
    if isinstance(seg, Line):
        return np.full_like(t, seg.end - seg.start, dtype=complex)
    sweep = seg.end_angle - seg.start_angle
    ang = seg.start_angle + t * sweep
    return 1j * sweep * seg.radius * np.exp(1j * ang)


@dataclass(frozen=True)
class Path:
    """Chain of segments with matching endpoints."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        for a, b in zip(segs, segs[1:]):
            if abs(segment_end(a) - segment_start(b)) > 1e-12:
                raise ValueError("consecutive path segments do not share endpoints")

    @property
    def start(self) -> complex:
        return segment_start(self.segments[0])

    @property
    def end(self) -> complex:
        return segment_end(self.segments[-1])


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


def continued_logs_param(diff_fn, params, logs0) -> np.ndarray:
    """Continued logs at the given ascending parameters of one smooth piece.

    diff_fn maps a parameter array to the (m, n_factors) matrix of
    differences w(param) - anchor (one column per tracked factor); logs0
    holds the log values at params[0].  Midpoints are inserted, globally
    doubling the walk, until every ratio increment passes the pi/2
    threshold; the returned array covers only the requested parameters.
    """
    base = np.asarray(logs0, dtype=complex)
    t_ref = np.asarray(params, dtype=float)
    stride = 1
    for _ in range(_MAX_REFINE):
        diffs = diff_fn(t_ref)
        if not np.all(diffs):
            raise StepTooCoarse("continuation point coincides with a branch point")
        incs = np.log(diffs[1:] / diffs[:-1])
        if incs.size == 0 or np.max(np.abs(incs.imag)) < ARG_LIMIT:
            out = np.empty((len(t_ref), base.size), dtype=complex)
            out[0] = base
            np.cumsum(incs, axis=0, out=out[1:])
            out[1:] += base
            return out[::stride]
        if 2 * len(t_ref) - 1 > _MAX_WALK_POINTS:
            raise StepTooCoarse(
                "continuation refinement exceeded the walk point budget"
            )
        mids = 0.5 * (t_ref[:-1] + t_ref[1:])
        merged = np.empty(2 * len(t_ref) - 1, dtype=float)
        merged[::2] = t_ref
        merged[1::2] = mids
        t_ref = merged
        stride *= 2
    raise StepTooCoarse("continuation failed to refine below the pi/2 threshold")


def segment_logs(seg: Segment, ts: np.ndarray, R, logs0) -> np.ndarray:
    """Continued logs over all branch factors at parameters ts of one segment."""
    anchors = np.asarray([complex(r) for r in R], dtype=complex)

    def diff_fn(params):
        return segment_points(seg, params)[:, None] - anchors[None, :]

    return continued_logs_param(diff_fn, ts, logs0)


def exponent_matrix(forms, k: int, n: int) -> np.ndarray:
    """Exponent vectors of the forms as the rows of a (len(forms), n) matrix:
    M/k with 1 subtracted from the first column, M the forms' m_exponents."""
    M = np.asarray([form.m_exponents for form in forms], dtype=np.int64)
    E = M.reshape(len(forms), n) / k
    E[:, 0] -= 1.0
    return E


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


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


def loop_path(base_point: complex, i: int, R, orientation: int) -> Path:
    """Standard loop realizing the i-th fundamental-group generator (or its
    inverse for orientation -1): in along the J leg's route to r_i, cut at
    the circle, a full circle around r_i, and the same route back out."""
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    z0 = complex(base_point)
    r = complex(R[i - 1])
    if z0 == r:
        raise BasePointOnBranchPoint(f"base point {z0} is a branch point")
    legs = clear_leg(z0, r, R, exclude={i - 1})
    last = legs[-1].start
    rho = loop_radius(i, R)
    theta0 = cmath.phase(last - r)
    entry = r + rho * cmath.exp(1j * theta0)
    inbound = legs[:-1] + [Line(last, entry)]
    circle = Arc(
        center=r,
        radius=rho,
        start_angle=theta0,
        end_angle=theta0 + orientation * 2.0 * math.pi,
    )
    outbound = [Line(seg.end, seg.start) for seg in reversed(inbound)]
    return Path(segments=tuple(inbound) + (circle,) + tuple(outbound))
