import cmath
import math

import numpy as np
import pytest

from gfcperiods import eval_W, init_branch, loop_path, validate_spec
from gfcperiods.contour import (
    Arc,
    Line,
    Path,
    continue_along,
    clear_leg,
    default_base_point,
    exponent_vector,
    loop_radius,
    min_clearance,
)
from gfcperiods.curve import FormIndex
from gfcperiods.errors import (
    BasePointOnBranchPoint,
    ClearanceUnachievable,
    StepTooCoarse,
)

R2 = (0j, 1 + 0j)


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
                orientation=orientation,
            ),
        )
    )


def test_winding_increments_ccw_around_origin():
    st = init_branch(0.25 + 0j, R2)
    out = continue_along(st, _full_circle(0j, 0.25, 0.25 + 0j, +1))
    delta = np.asarray(out.logs) - np.asarray(st.logs)
    assert abs(delta[0] - 2j * math.pi) < 1e-10
    assert abs(delta[1]) < 1e-10


def test_winding_increments_cw_around_one():
    st = init_branch(1.25 + 0j, R2)
    out = continue_along(st, _full_circle(1 + 0j, 0.25, 1.25 + 0j, -1))
    delta = np.asarray(out.logs) - np.asarray(st.logs)
    assert abs(delta[0]) < 1e-10
    assert abs(delta[1] + 2j * math.pi) < 1e-10


def test_empty_path_is_identity():
    st = init_branch(1j, R2)
    assert continue_along(st, Path(segments=())) is st


def test_path_reversal_restores_logs():
    z0 = default_base_point(R2)
    st = init_branch(z0, R2)
    loop = loop_path(z0, 1, R2, +1)
    roundtrip = continue_along(continue_along(st, loop), loop.reversed())
    delta = np.asarray(roundtrip.logs) - np.asarray(st.logs)
    assert np.max(np.abs(delta)) < 1e-10


def test_step_too_coarse_raises():
    # the segment passes exactly through the branch point 0
    st = init_branch(-0.5 + 0j, R2)
    with pytest.raises(StepTooCoarse):
        continue_along(st, Path(segments=(Line(-0.5 + 0j, 0.5 + 0j),)))


def test_eval_w_principal_value():
    spec = validate_spec(2, 3, [2.0])
    form = FormIndex(alpha=(0, 1, 1))
    z0 = 0.5 + 2j
    st = init_branch(z0, spec.branch_points)
    got = eval_W(st, form, spec.k)
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
    before = eval_W(st, form, spec.k)
    out = continue_along(st, loop_path(z0, i, R, +1))
    after = eval_W(out, form, spec.k)
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
    assert arc.orientation == +1
    assert abs(arc.radius - loop_radius(1, R2)) == 0
    assert abs(path.start - 1j) < 1e-12 and abs(path.end - 1j) < 1e-12
    cw = loop_path(1j, 1, R2, -1).segments[1]
    assert cw.orientation == -1
    assert cw.end_angle < cw.start_angle


def test_clear_leg_detours_around_interior_point():
    R = (0j, 1 + 0j, 0.5 + 1e-9j)
    z0 = 2.5 + 5e-9j  # straight line to 0 passes through r_3
    legs = clear_leg(z0, 0j, R, exclude={0})
    assert len(legs) == 2
    clearance = min_clearance(R)
    for seg in legs:
        # midpoint of each piece stays clear of r_3
        mid = 0.5 * (seg.start + seg.end)
        assert abs(mid - (0.5 + 1e-9j)) > clearance or abs(seg.end - 0j) < 1e-12
    path = loop_path(z0, 1, R, +1)
    assert len(path.segments) == 5


def test_clear_leg_unachievable_for_degenerate_leg():
    with pytest.raises(ClearanceUnachievable):
        clear_leg(1e-9 + 0j, 1e-9 + 0j, R2, exclude=set())


def test_exponent_vector():
    e = exponent_vector(FormIndex(alpha=(1, 3)), 4)
    assert np.allclose(e, [2 / 4 - 1, -3 / 4])


def test_branch_state_invariant_preserved_along_paths():
    from gfcperiods.contour import branch_state_residual

    R = (0j, 1 + 0j, -1.5 + 0j)
    z0 = default_base_point(R)
    st = init_branch(z0, R)
    assert branch_state_residual(st) < 1e-12
    for i in (1, 2, 3):
        moved = continue_along(st, loop_path(z0, i, R, +1))
        assert branch_state_residual(moved) < 1e-12
