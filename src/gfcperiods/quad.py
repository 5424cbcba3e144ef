"""Quadrature kernels: tanh-sinh for endpoint-singular legs, panelled
Gauss-Legendre for smooth path pieces.

The legs from the base point z0 to a branch point r_i carry an algebraic
singularity of exponent > -1 at the r_i end.  The tanh-sinh (double
exponential) substitution x = tanh((pi/2) sinh t) clusters trapezoid nodes
double-exponentially at both ends, which integrates such singularities to
near machine precision with a plain equispaced sum in t.  Refinement
halves the t-step per level; two successive levels agreeing to the
relative tolerance is the convergence gate.

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
# Largest forms x nodes block evaluated at once by the smooth kernel, in
# complex values (32 MiB).
_BLOCK_VALUES = 2 ** 21


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and refinement budget shared by both kernels.

    level is the first tanh-sinh level evaluated; refinement may continue
    to max_level before NoConvergence is raised.

    The start level 5 is chosen against 30-digit references of the base
    integrals.  A leg that converges there costs 391 + 781 nodes (levels 5
    and 6), and on every curve of the benchmark ladder its differences
    J_l - J_j land within 2e-14 of the reference, relative to each form's
    largest difference.  Starting at level 10 costs about 37k nodes per leg
    (levels 10 and 11) and is less accurate, off by up to 5e-13 on the
    n >= 4 curves, because rounding builds up over the longer node sums
    and continuation walks.  The two-level agreement gate is the same at
    any start, so a leg that needs more resolution still refines upward.
    """

    level: int = 5
    rel_tol: float = 1e-10
    max_level: int = 14

    def __post_init__(self):
        if self.level > self.max_level:
            raise ValueError("level must not exceed max_level")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


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


def _converge(value_at, cfg: QuadConfig, what: str):
    """The tanh-sinh level loop: value_at(level) from cfg.level upward until
    two successive levels agree to cfg.rel_tol, else NoConvergence naming
    what was integrated."""
    prev = None
    for level in range(cfg.level, cfg.max_level + 1):
        cur = value_at(level)
        if prev is not None and abs(cur - prev) <= cfg.rel_tol * abs(cur):
            return cur
        prev = cur
    raise NoConvergence(
        f"{what} did not reach rel_tol={cfg.rel_tol} by level {cfg.max_level}"
    )


def tanh_sinh(f, a: float, b: float, cfg: QuadConfig):
    """Integrate f over [a, b] with the tanh-sinh rule.

    f is called vectorized as f(x, d_left, d_right) where d_left, d_right
    are the distances to a and b; endpoint-singular integrands should be
    written in terms of those distances.
    """
    return _converge(lambda level: tanh_sinh_level(f, a, b, level), cfg, "tanh-sinh")


def tanh_sinh_level(f, a: float, b: float, level: int):
    """Single-level tanh-sinh sum (exposed for convergence diagnostics)."""
    sigma, tau, _, log_weight = _de_nodes(level)
    span = b - a
    x = a + tau * span
    vals = f(x, tau * abs(span), sigma * abs(span))
    return 0.5 * span * np.sum(vals * np.exp(log_weight))


class RadialLegIntegrator:
    """Shared-node integrator for one straight leg ending at a branch point.

    The per-level continued-log tables are independent of the form, so one
    instance serves every exponent vector on the same leg (all columns of
    the base-integral table reuse the walk).
    """

    def __init__(self, start: complex, logs_at_start, target_index: int, R):
        self.start = complex(start)
        self.logs0 = np.asarray(logs_at_start, dtype=complex)
        self.target = target_index  # 0-based anchor/slot index
        self.R = tuple(complex(r) for r in R)
        self.D = self.R[self.target] - self.start
        if self.D == 0:
            raise ValueError("leg has zero length")
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _level_table(self, level: int):
        """Continued logs of every factor at the level's nodes plus the
        node log-weights."""
        if level in self._tables:
            return self._tables[level]
        sigma, tau, log_sigma, log_weight = _de_nodes(level)
        n = len(self.R)
        others = [s for s in range(n) if s != self.target]
        logs = np.empty((len(sigma), n), dtype=complex)
        logs[:, self.target] = self.logs0[self.target] + log_sigma
        if others:
            offsets = np.asarray([self.start - self.R[s] for s in others], dtype=complex)

            def diff_fn(taus):
                return offsets[None, :] + taus[:, None] * self.D

            params = np.concatenate(([0.0], tau))
            walked = contour.continued_logs_param(diff_fn, params, self.logs0[others])
            logs[:, others] = walked[1:]
        self._tables[level] = (logs, log_weight)
        return self._tables[level]

    def level_value(self, exponents: np.ndarray, level: int) -> complex:
        """Single-level sum (exposed for convergence diagnostics)."""
        logs, log_weight = self._level_table(level)
        return complex(0.5 * self.D * np.sum(np.exp(logs @ exponents + log_weight)))

    def integrate(self, exponents: np.ndarray, cfg: QuadConfig) -> complex:
        return _converge(
            lambda level: self.level_value(exponents, level),
            cfg,
            f"leg to branch point {self.target + 1}",
        )


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_segment(seg, R, logs0, E, cfg: QuadConfig):
    """Integrate W for every form (the rows of the exponent matrix E) over
    one smooth segment with panel-doubled Gauss-Legendre.

    The branch walk depends only on the nodes, so each panel count walks
    the segment once and evaluates all forms there.  A form's value is
    taken at the first doubling where it agrees with the previous one,
    relative to max(|I|, 1e-3 * L1) so that closed-loop cancellations still
    settle; only the forms still open are evaluated at the next doubling.
    Returns (row of integrals, logs at the segment end).
    """
    gx, gw = _gl_rule(_GL_ORDER)
    row = np.zeros(len(E), dtype=complex)
    todo = np.arange(len(E))
    prev = None
    panels = 4
    while panels <= _GL_MAX_PANELS:
        starts = np.arange(panels) / panels
        ts = (starts[:, None] + (gx[None, :] + 1.0) / (2.0 * panels)).ravel()
        weights = np.tile(gw / (2.0 * panels), panels)
        params = np.concatenate(([0.0], ts, [1.0]))
        logs = contour.segment_logs(seg, params, R, logs0)
        cur, l1 = _panel_sums(
            E[todo], logs[1:-1], contour.segment_velocity(seg, ts) * weights
        )
        if prev is not None:
            done = np.abs(cur - prev) <= cfg.rel_tol * np.maximum(
                np.abs(cur), 1e-3 * l1
            )
            row[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
        if not todo.size:
            return row, logs[-1]
        prev = cur
        panels *= 2
    raise NoConvergence(
        f"Gauss-Legendre panels exceeded {_GL_MAX_PANELS} without reaching "
        f"rel_tol={cfg.rel_tol}",
        form=int(todo[0]),
    )


def _panel_sums(E, X, vw):
    """Sums of exp(E @ X.T) * vw and of their magnitudes, one per row of E,
    in blocks of rows that keep every temporary under _BLOCK_VALUES."""
    cur = np.empty(len(E), dtype=complex)
    l1 = np.empty(len(E))
    Xr, Xi = X.real.T, X.imag.T
    step = max(1, _BLOCK_VALUES // len(X))
    for b in range(0, len(E), step):
        Eb = E[b : b + step]
        # Real products: np.exp right after a complex matmul ran ~8x slower (OpenBLAS).
        contrib = np.exp(Eb @ Xr + 1j * (Eb @ Xi)) * vw
        cur[b : b + step] = contrib.sum(axis=1)
        l1[b : b + step] = np.abs(contrib).sum(axis=1)
    return cur, l1


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
    loop around r_i shares; any detour prefix goes through the smooth
    kernel once for all forms, and the singular final piece through one
    tanh-sinh integrator whose continuation tables all forms share.
    """
    R = state.branch_points
    try:
        legs = contour.clear_leg(state.point, complex(R[i - 1]), R, exclude={i - 1})
    except ClearanceUnachievable as err:
        raise ClearanceUnachievable(f"base integral i={i}: {err}") from err
    row = np.zeros(len(forms), dtype=complex)
    if not forms:
        return row
    c = 0  # the form a failure is reported against
    try:
        start = state
        if len(legs) > 1:
            prefix = Path(segments=tuple(legs[:-1]))
            row, start = integrate_smooth(prefix, state, forms, spec, cfg)
        integrator = RadialLegIntegrator(
            start=legs[-1].start, logs_at_start=start.logs, target_index=i - 1, R=R
        )
        E = contour.exponent_matrix(forms, spec.k, spec.n)
        for c in range(len(forms)):
            row[c] += integrator.integrate(E[c], cfg)
    except (NoConvergence, StepTooCoarse) as err:
        if getattr(err, "form", None) is not None:
            c = err.form
        raise type(err)(f"base integral i={i}, alpha={forms[c].alpha}: {err}") from err
    return row
