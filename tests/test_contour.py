import cmath
import math
import warnings

import numpy as np
import pytest
from conftest import literal_loop

from gfcperiods import contour, enumerate_forms, init_branch, quad, validate_spec
from gfcperiods.contour import (
    Arc,
    Line,
    clear_leg,
    default_base_point,
    exponent_matrix,
    loop_radius,
)
from gfcperiods.curve import FormIndex
from gfcperiods.errors import (
    BasePointOnBranchPoint,
    ClearanceUnachievable,
    StepTooCoarse,
)

R2 = (0j, 1 + 0j)
# Walk parameters per segment: interior samples, so that a closed arc is
# not read as zero winding.
SEED = np.linspace(0.0, 1.0, 33)


def _points(seg, t):
    """Points at parameters t in [0, 1] along a line or an arc."""
    if isinstance(seg, Line):
        return seg.start + t * (seg.end - seg.start)
    angle = seg.start_angle + t * (seg.end_angle - seg.start_angle)
    return seg.center + seg.radius * np.exp(1j * angle)


def _segment_logs(seg, ts, R, logs0):
    """Continued logs over all branch factors at parameters ts of one segment."""
    anchors = np.asarray(R, dtype=complex)
    return contour._kind_logs([seg], ts, anchors, np.asarray(logs0, dtype=complex)[None])[0]


def _walk(logs, segments, R):
    """Logs continued segment by segment along a chain of segments, to its
    end."""
    return contour.chain_logs([segments], R, [logs])[0][-1]


def _W(logs, form, k):
    """W on the sheet selected by the continued logs."""
    return complex(np.exp(exponent_matrix([form], k, len(form.alpha))[0] @ logs))


def test_init_branch_principal_values():
    st = init_branch(1j, R2)
    assert abs(st.logs[0] - (-1j * math.pi / 2)) < 1e-15
    assert abs(st.logs[1] - (0.5 * math.log(2) + 0.75j * math.pi)) < 1e-15


def test_init_branch_three_points():
    st = init_branch(2j, (0j, 1 + 0j, 2 + 0j))
    assert st.logs == (cmath.log(-2j), cmath.log(2j - 1), cmath.log(2j - 2))


def test_init_branch_rejects_branch_point():
    with pytest.raises(BasePointOnBranchPoint):
        init_branch(0j, R2)


@pytest.mark.parametrize("radius", [0.0, -0.5])
def test_arc_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="^arc radius must be positive$"):
        Arc(0j, radius, 0.0, math.pi)


def _full_circle(center, radius, start_point, orientation):
    theta = cmath.phase(start_point - center)
    return (
        Arc(
            center=center,
            radius=radius,
            start_angle=theta,
            end_angle=theta + orientation * 2 * math.pi,
        ),
    )


def test_winding_increments_ccw_around_origin():
    st = init_branch(0.25 + 0j, R2)
    delta = _walk(st.logs, _full_circle(0j, 0.25, 0.25 + 0j, +1), R2) - st.logs
    assert abs(delta[0] - 2j * math.pi) < 1e-10
    assert abs(delta[1]) < 1e-10


def test_winding_increments_cw_around_one():
    st = init_branch(1.25 + 0j, R2)
    delta = _walk(st.logs, _full_circle(1 + 0j, 0.25, 1.25 + 0j, -1), R2) - st.logs
    assert abs(delta[0]) < 1e-10
    assert abs(delta[1] + 2j * math.pi) < 1e-10


def test_empty_path_is_identity():
    # a walk over a single parameter moves nowhere and returns the start logs
    st = init_branch(1j, R2)
    seg = Line(1j, 2 + 1j)
    out = _segment_logs(seg, np.zeros(1), R2, st.logs)
    assert out.shape == (1, 2)
    assert tuple(out[0]) == st.logs


def test_path_reversal_restores_logs():
    # the -1 loop is the +1 loop reversed, point for point, and walking one
    # after the other restores the logs
    # (the second base point's route to r_1 takes a midpoint detour)
    R3 = (0j, 1 + 0j, 0.5 + 1e-9j)
    for R, z0, i, nseg in [
        (R2, default_base_point(R2), 1, 3),
        (R3, 2.5 + 5e-9j, 1, 5),
        (R3, 2.5 + 5e-9j, 2, 3),
    ]:
        fwd = literal_loop(z0, i, R, +1)
        back = literal_loop(z0, i, R, -1)
        assert len(fwd) == len(back) == nseg
        for a, b in zip(fwd, reversed(back)):
            assert type(a) is type(b)
            gap = _points(a, SEED) - _points(b, SEED[::-1])
            assert np.max(np.abs(gap)) < 1e-12
        st = init_branch(z0, R)
        roundtrip = _walk(_walk(st.logs, fwd, R), back, R)
        assert np.max(np.abs(roundtrip - st.logs)) < 1e-10


def test_step_too_coarse_raises():
    # the segment passes exactly through the branch point 0
    st = init_branch(-0.5 + 0j, R2)
    with pytest.raises(StepTooCoarse):
        _segment_logs(Line(-0.5 + 0j, 0.5 + 0j), SEED, R2, st.logs)


def test_eval_w_principal_value():
    spec = validate_spec(2, 3, [2.0])
    form = FormIndex(alpha=(0, 1, 1))
    z0 = 0.5 + 2j
    st = init_branch(z0, spec.branch_points)
    got = _W(st.logs, form, spec.k)
    expected = 1.0 / cmath.sqrt(-z0 * (z0 - 1) * (z0 - 2))
    # both sides are principal products of principal factors at a generic point
    assert abs(got - expected) < 1e-12 or abs(got + expected) < 1e-12


@pytest.mark.parametrize("i", [1, 2, 3])
def test_eval_w_monodromy_ratio(i):
    spec = validate_spec(3, 3, [2.0 + 1j])
    form = FormIndex(alpha=(1, 2, 1))
    R = spec.branch_points
    z0 = default_base_point(R)
    st = init_branch(z0, R)
    before = _W(st.logs, form, spec.k)
    after = _W(_walk(st.logs, literal_loop(z0, i, R, +1), R), form, spec.k)
    if i == 1:
        expected = cmath.exp(2j * math.pi * (form.alpha[0] + 1) / spec.k)
    else:
        expected = cmath.exp(-2j * math.pi * form.alpha[i - 1] / spec.k)
    assert abs(after / before - expected) < 1e-9


def test_loop_path_structure():
    path = literal_loop(1j, 1, R2, +1)
    assert len(path) == 3
    arc = path[1]
    assert isinstance(arc, Arc)
    assert abs(arc.end_angle - arc.start_angle - 2 * math.pi) < 1e-12
    assert abs(arc.radius - loop_radius(1, R2)) == 0
    assert abs(path[0].start - 1j) < 1e-12 and abs(path[-1].end - 1j) < 1e-12
    cw = literal_loop(1j, 1, R2, -1)[1]
    assert abs(cw.end_angle - cw.start_angle + 2 * math.pi) < 1e-12


def test_clear_leg_detours_around_interior_point():
    R = (0j, 1 + 0j, 0.5 + 1e-9j)
    z0 = 2.5 + 5e-9j  # straight line to 0 passes through r_3
    legs = clear_leg(z0, 0j, R, exclude={0})
    assert len(legs) == 2
    assert legs[0].start == z0 and legs[-1].end == 0j
    r3 = 0.5 + 1e-9j
    clearance = contour._LEG_CLEARANCE * min(abs(z0), abs(r3))
    for seg in legs:
        # each piece stays clear of r_3
        dist = np.min(np.abs(_points(seg, np.linspace(0, 1, 1001)) - r3))
        assert dist >= clearance
    # the loop around r_1 follows the same route, cut at its circle
    path = literal_loop(z0, 1, R, +1)
    assert len(path) == 5
    assert path[0] == legs[0]
    inbound = path[1]
    assert inbound.start == legs[1].start
    assert abs(abs(inbound.end) - loop_radius(1, R)) < 1e-15
    assert abs(cmath.phase(inbound.end) - cmath.phase(legs[1].start)) < 1e-12


@pytest.mark.parametrize(
    "p,a,b,distance",
    [
        # the leg to r_2 = 1 from the base point of -l 1e20 and -l -1e20, and
        # r_1 = 0, closer than one ulp of the start to the leg's end
        (0j, 3.333333333333333e19 + 2e20j, 1 + 0j, 1.0),
        (0j, -3.333333333333333e19 + 2e20j, 1 + 0j, 0.98639392383214375),
        # a far leg along the real axis runs past 0.5 at about 5e-21
        (0.5 + 0j, -1e20 + 1j, 1 + 0j, 5e-21),
        # the same legs reversed, measured from their start
        (0j, 1 + 0j, 3.333333333333333e19 + 2e20j, 1.0),
        (0.5 + 0j, 1 + 0j, -1e20 + 1j, 5e-21),
        # ordinary legs: interior, and beyond either end
        (1j, -1 + 0j, 1 + 0j, 1.0),
        (3 + 4j, -1 + 0j, 0j, 5.0),
        (-4 + 3j, 0j, 1 + 0j, 5.0),
    ],
)
def test_point_segment_distance_from_the_nearer_end(p, a, b, distance):
    # from the far end, p - (a + t (b - a)) rounds onto 0 and a leg passing
    # at distance 1 reads as touching p
    assert contour._point_segment_distance(p, a, b) == pytest.approx(distance, rel=1e-12)


def test_clear_leg_unachievable_for_degenerate_leg():
    with pytest.raises(ClearanceUnachievable):
        clear_leg(1e-9 + 0j, 1e-9 + 0j, R2, exclude=set())


def test_exponent_vector():
    (e,) = exponent_matrix([FormIndex(alpha=(1, 3))], 4, 2)
    assert np.allclose(e, [2 / 4 - 1, -3 / 4])


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (5, 3), (7, 2)])
def test_exponent_matrix_matches_the_integrand_exponents(k, n):
    # W = (-w)**((alpha_1+1)/k - 1) * prod_t (w - r_t)**(-alpha_t/k), bit for bit
    forms = enumerate_forms(validate_spec(k, n, [2.0, -1.5, 2 + 1j][: n - 2]))
    expected = [[(f.alpha[0] + 1) / k - 1.0] + [-a / k for a in f.alpha[1:]] for f in forms]
    assert np.array_equal(exponent_matrix(forms, k, n), np.asarray(expected))


def _residual(w, logs, R):
    """Largest relative mismatch between exp(logs) and the factors they
    track: -w, then w - r_t for t >= 2."""
    targets = np.concatenate(([-w], w - np.asarray(R[1:])))
    return float(np.max(np.abs(np.exp(logs) - targets) / np.abs(targets)))


def test_branch_state_invariant_preserved_along_paths():
    R = (0j, 1 + 0j, -1.5 + 0j)
    z0 = default_base_point(R)
    st = init_branch(z0, R)
    assert _residual(z0, np.asarray(st.logs), R) < 1e-12
    for i in (1, 2, 3):
        moved = _walk(st.logs, literal_loop(z0, i, R, +1), R)
        assert _residual(z0, moved, R) < 1e-12


def test_loop_path_rejects_base_point_on_branch_point():
    with pytest.raises(BasePointOnBranchPoint):
        contour.loop_pieces(R2[1], 2, R2)


def test_arc_logs_match_a_fine_step_continuation():
    # one arc around r_3, with r_1 = 0 inside it off-centre and r_2 = 1
    # outside, swept 3 turns either way; the reference continues each log
    # in 30 digits by steps of at most 6 pi / 512, from the start's logs
    mpmath = pytest.importorskip("mpmath")
    R = (0j, 1 + 0j, 0.2 + 0.1j)
    ts = np.linspace(0.0, 1.0, 129)
    for turns in (+3, -3):
        arc = Arc(R[2], 0.5, start_angle=0.3, end_angle=0.3 + turns * 2 * math.pi)
        logs0 = init_branch(arc.center + arc.radius * cmath.exp(1j * arc.start_angle), R).logs
        got = _segment_logs(arc, ts, R, logs0)
        with mpmath.workdps(30):
            a0, a1 = mpmath.mpf(arc.start_angle), mpmath.mpf(arc.end_angle)

            def diff(t, r):
                theta = a0 + mpmath.mpf(t) * (a1 - a0)
                return mpmath.mpc(arc.center) + arc.radius * mpmath.expj(theta) - r

            for s, r in enumerate(R):
                r = mpmath.mpc(r)
                log = mpmath.mpc(logs0[s])
                for p in range(1, len(ts)):
                    for part in range(1, 5):
                        t0 = ts[p - 1] + (ts[p] - ts[p - 1]) * (part - 1) / 4
                        t1 = ts[p - 1] + (ts[p] - ts[p - 1]) * part / 4
                        rise = mpmath.log(diff(t1, r) / diff(t0, r))
                        assert abs(rise.imag) < math.pi / 2
                        log += rise
                    err = abs(complex(log) - got[p, s])
                    assert err <= 1e-15 * max(1.0, abs(log)), (turns, s, p)
        assert got[0].tolist() == list(logs0)


@pytest.mark.parametrize(
    "k,n,lams", [(2, 3, [2.0]), (3, 4, [-1.5, 2 + 1j]), (2, 4, [1e-3, 3.0])]
)
def test_loop_circles_close_on_the_deck_offset(k, n, lams):
    # at the largest Gauss-Legendre node count, each loop circle ends at its
    # start logs plus 2 pi i in its centre's column and nothing elsewhere
    R = validate_spec(k, n, lams).branch_points
    z0 = default_base_point(R)
    gx, _ = quad._gl_rule(quad._GL_ORDER)
    panels = quad._GL_MAX_PANELS
    starts = np.arange(panels) / panels
    ts = (starts[:, None] + (gx[None, :] + 1.0) / (2.0 * panels)).ravel()
    params = np.concatenate(([0.0], ts, [1.0]))
    assert len(params) == 131074
    for i in range(1, n + 1):
        _, circle = contour.loop_pieces(z0, i, R)
        start = circle.center + circle.radius * cmath.exp(1j * circle.start_angle)
        logs0 = np.asarray(init_branch(start, R).logs)
        moved = _segment_logs(circle, params, R, logs0)[-1] - logs0
        expected = np.zeros(n, dtype=complex)
        expected[i - 1] = 2j * math.pi
        assert np.max(np.abs(moved - expected)) <= 1e-15, i


def _leg_node_logs(start, logs0, target, R):
    """The node logs of the level-2 tanh-sinh leg from start to R[target],
    as a batch of one leg."""
    line = Line(start, complex(R[target]))
    return quad._leg_logs([line], [target], R, [logs0], quad._de_nodes(2))[0]


@pytest.mark.parametrize(
    "logs",
    [
        # the line from -0.5 to 0.5 passes 0 between its nodes -1/6 and 1/6
        lambda logs0: _segment_logs(Line(-0.5 + 0j, 0.5 + 0j), np.linspace(0, 1, 4), R2, logs0),
        # so do the nodes of the J leg from -0.5 to 1
        lambda logs0: _leg_node_logs(-0.5 + 0j, logs0, 1, R2),
        # the circle of radius 1/2 about 1/2 runs through both branch points
        lambda logs0: _segment_logs(Arc(0.5 + 0j, 0.5, math.pi, 3 * math.pi), SEED, R2, logs0),
    ],
    ids=["line", "leg", "arc"],
)
def test_a_path_through_a_branch_point_raises(logs):
    logs0 = np.asarray(init_branch(-0.5 + 0j, R2).logs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooCoarse, match="coincides with a branch point"):
            logs(logs0)


def test_real_log_matches_np_log_in_absolute_terms():
    # the continued logs enter J only through exp(E . X), so only the
    # absolute error of Log counts: a few ulp of max(1, |Log z|), over the
    # double range and within 1e-12 of |z| = 1
    rng = np.random.default_rng(0)
    moduli = np.concatenate(
        [10.0 ** np.linspace(-300, 300, 1201), 1.0 + np.linspace(-1e-12, 1e-12, 401)]
    )
    z = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size))
    z = np.concatenate([z, moduli + 0j, 1j * moduli, -1j * moduli])
    exact = np.log(z)
    err = np.abs(contour._log(z) - exact)
    assert np.all(err <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(exact)))
    # on the negative real axis the sign of the imaginary zero picks the side
    # of the cut, +pi or -pi, as in np.log
    for zero, arg in ((0.0, math.pi), (-0.0, -math.pi)):
        axis = np.empty(7, dtype=complex)
        axis.real = [-1e-300, -1e-5, -0.5, -1.0, -1.0 - 1e-13, -3.0, -1e300]
        axis.imag = zero
        logs = contour._log(axis)
        assert np.all(logs.imag == arg)
        assert np.array_equal(logs.imag, np.log(axis).imag)
        err = np.abs(logs.real - np.log(axis).real)
        assert np.all(err <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(logs.real)))


@pytest.mark.parametrize(
    "k,n,lams", [(3, 4, [-1.5, 2 + 1j]), (4, 3, [0.115 + 0.842j]), (2, 5, [-1.5, 2 + 1j, 2.0])]
)
def test_chain_logs_over_many_chains_keep_each_chains_bits(k, n, lams):
    # the loops' routes in and circles, the legs' detour prefixes (some of
    # them empty) and a -1 loop from another start, in one call: each
    # chain's logs have the bits of a call of its own, and equal the logs
    # carried one segment at a time
    R = validate_spec(k, n, lams).branch_points
    z0 = default_base_point(R)
    st = init_branch(z0, R)
    chains = [
        inbound + (circle,)
        for inbound, circle in (contour.loop_pieces(z0, i, R) for i in range(1, n + 1))
    ]
    chains += [tuple(clear_leg(z0, R[i], R, exclude={i})[:-1]) for i in range(n)]
    chains.append(literal_loop(z0 + 1.0, 1, R, -1))
    starts = [st.logs] * (len(chains) - 1) + [init_branch(z0 + 1.0, R).logs]
    assert any(len(chain) > 1 for chain in chains) and () in chains
    together = contour.chain_logs(chains, R, starts)
    anchors = np.asarray(R, dtype=complex)
    for chain, start, logs in zip(chains, starts, together):
        (alone,) = contour.chain_logs([chain], R, [start])
        assert alone.tobytes() == logs.tobytes()
        carried = [np.asarray(start, dtype=complex)]
        for seg in chain:
            carried.append(contour._kind_logs([seg], np.ones(1), anchors, carried[-1][None])[0, 0])
        assert np.array_equal(np.array(carried), logs)


def test_chain_logs_names_the_first_failing_segment_in_chain_order():
    # lines are taken before arcs, but the arc through both branch points
    # comes first in chain order
    good = Line(2j, 3j)
    through_line = Line(-0.5 + 0j, 0.5 + 0j)
    through_arc = Arc(0.5 + 0j, 0.5, math.pi, 3 * math.pi)
    logs0 = init_branch(2j, R2).logs
    for chains, piece in [
        ([(good, through_arc), (through_line,)], 1),
        ([(through_line,), (good, through_arc)], 0),
        ([(), (good,), (good, through_line)], 2),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepTooCoarse, match="coincides with a branch point") as err:
                contour.chain_logs(chains, R2, [logs0] * len(chains))
        assert err.value.piece == piece
    assert contour.chain_logs([], R2, []) == []
