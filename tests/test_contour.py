import cmath
import math

import numpy as np
import pytest

from gfcperiods import contour, enumerate_forms, init_branch, loop_path, validate_spec
from gfcperiods.contour import (
    Arc,
    Line,
    Path,
    clear_leg,
    default_base_point,
    exponent_matrix,
    loop_radius,
    segment_logs,
    segment_points,
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


def _walk(logs, path, R):
    """Logs continued segment by segment along the path."""
    for seg in path.segments:
        logs = segment_logs(seg, SEED, R, logs)[-1]
    return logs


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


def _full_circle(center, radius, start_point, orientation):
    theta = cmath.phase(start_point - center)
    return Path(
        segments=(
            Arc(
                center=center,
                radius=radius,
                start_angle=theta,
                end_angle=theta + orientation * 2 * math.pi,
            ),
        )
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
    out = segment_logs(seg, np.zeros(1), R2, st.logs)
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
        fwd = loop_path(z0, i, R, +1).segments
        back = loop_path(z0, i, R, -1).segments
        assert len(fwd) == len(back) == nseg
        for a, b in zip(fwd, reversed(back)):
            assert type(a) is type(b)
            gap = segment_points(a, SEED) - segment_points(b, SEED[::-1])
            assert np.max(np.abs(gap)) < 1e-12
        st = init_branch(z0, R)
        roundtrip = _walk(_walk(st.logs, Path(fwd), R), Path(back), R)
        assert np.max(np.abs(roundtrip - st.logs)) < 1e-10


def test_step_too_coarse_raises():
    # the segment passes exactly through the branch point 0
    st = init_branch(-0.5 + 0j, R2)
    with pytest.raises(StepTooCoarse):
        segment_logs(Line(-0.5 + 0j, 0.5 + 0j), SEED, R2, st.logs)


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
    after = _W(_walk(st.logs, loop_path(z0, i, R, +1), R), form, spec.k)
    if i == 1:
        expected = cmath.exp(2j * math.pi * (form.alpha[0] + 1) / spec.k)
    else:
        expected = cmath.exp(-2j * math.pi * form.alpha[i - 1] / spec.k)
    assert abs(after / before - expected) < 1e-9


def test_loop_path_structure():
    path = loop_path(1j, 1, R2, +1)
    assert len(path.segments) == 3
    arc = path.segments[1]
    assert isinstance(arc, Arc)
    assert abs(arc.end_angle - arc.start_angle - 2 * math.pi) < 1e-12
    assert abs(arc.radius - loop_radius(1, R2)) == 0
    assert abs(path.start - 1j) < 1e-12 and abs(path.end - 1j) < 1e-12
    cw = loop_path(1j, 1, R2, -1).segments[1]
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
        dist = np.min(np.abs(segment_points(seg, np.linspace(0, 1, 1001)) - r3))
        assert dist >= clearance
    # the loop around r_1 follows the same route, cut at its circle
    path = loop_path(z0, 1, R, +1)
    assert len(path.segments) == 5
    assert path.segments[0] == legs[0]
    inbound = path.segments[1]
    assert inbound.start == legs[1].start
    assert abs(abs(inbound.end) - loop_radius(1, R)) < 1e-15
    assert abs(cmath.phase(inbound.end) - cmath.phase(legs[1].start)) < 1e-12


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
        moved = _walk(st.logs, loop_path(z0, i, R, +1), R)
        assert _residual(z0, moved, R) < 1e-12
