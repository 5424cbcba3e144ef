import math

import numpy as np
import pytest

from gfcperiods import (
    enumerate_forms,
    init_branch,
    integrate_smooth,
    validate_spec,
)
from gfcperiods.contour import (
    Arc,
    Line,
    Path,
    clear_leg,
    default_base_point,
    exponent_matrix,
)
from gfcperiods import quad
from gfcperiods.errors import NoConvergence
from gfcperiods.quad import QuadConfig, leg_row, tanh_sinh, tanh_sinh_level


def _beta_oracle(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _beta_integrand(a, b):
    return lambda x, dl, dr: dl ** (a - 1.0) * dr ** (b - 1.0)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(level=15, max_level=14)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite"):
            QuadConfig(rel_tol=bad)
    # levels must lie where the continuation walk can hold the nodes
    assert quad._LEVEL_CAP == 18
    QuadConfig(level=18, max_level=18)
    for field, kwargs in [
        ("level", dict(level=-1)),
        ("level", dict(level=-2000)),
        ("level", dict(level=19, max_level=19)),
        ("level", dict(level=40, max_level=40)),
        ("max_level", dict(max_level=19)),
        ("max_level", dict(level=0, max_level=-1)),
    ]:
        with pytest.raises(ValueError, match=rf"^{field} must lie in 0\.\.18"):
            QuadConfig(**kwargs)


def test_arcsine_integral(quad_cfg):
    val = tanh_sinh(_beta_integrand(0.5, 0.5), 0.0, 1.0, quad_cfg)
    assert abs(val - math.pi) < 1e-10


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
def test_beta_family_matches_gamma_oracle(a, b, quad_cfg):
    val = tanh_sinh(_beta_integrand(a, b), 0.0, 1.0, quad_cfg)
    exact = _beta_oracle(a, b)
    assert abs(val - exact) / exact < 1e-10


def test_level_doubling_monotone():
    f = _beta_integrand(0.25, 0.75)
    exact = _beta_oracle(0.25, 0.75)
    values = [tanh_sinh_level(f, 0.0, 1.0, lvl) for lvl in range(3, 12)]
    rel_diffs = [
        abs(v2 - v1) / abs(v2) for v1, v2 in zip(values, values[1:])
    ]
    # strictly decreasing until the first level pair meets the tolerance
    for d1, d2 in zip(rel_diffs, rel_diffs[1:]):
        if d1 < 1e-10:
            break
        assert d2 < d1
    assert min(rel_diffs) < 1e-10
    assert abs(values[-1] - exact) / exact < 1e-12


def test_orientation_antisymmetry(quad_cfg):
    f = _beta_integrand(0.25, 0.5)
    fwd = tanh_sinh(f, 0.0, 1.0, quad_cfg)
    rev = tanh_sinh(lambda x, dl, dr: f(x, dr, dl), 1.0, 0.0, quad_cfg)
    assert abs(fwd + rev) < 1e-12 * abs(fwd)


def test_leg_path_independence(quad_cfg):
    spec = validate_spec(3, 2, [])
    R = spec.branch_points
    form = enumerate_forms(spec)[0]
    z0 = default_base_point(R)
    state = init_branch(z0, R)
    (direct,) = leg_row(state, 1, [form], spec, quad_cfg)
    # detour through a waypoint homotopic to the straight leg
    waypoint = z0 + 1.0 - 0.5j
    (prefix,), mid_state = integrate_smooth(
        Path(segments=(Line(z0, waypoint),)), state, [form], spec, quad_cfg
    )
    (tail,) = leg_row(mid_state, 1, [form], spec, quad_cfg)
    detoured = prefix + tail
    assert abs(direct - detoured) / abs(direct) < 1e-9


def test_zero_length_path(quad_cfg):
    spec = validate_spec(3, 2, [])
    state = init_branch(default_base_point(spec.branch_points), spec.branch_points)
    form = enumerate_forms(spec)[0]
    (val,), out = integrate_smooth(Path(segments=()), state, [form], spec, quad_cfg)
    assert val == 0j
    assert out.logs == state.logs


def test_closed_loop_without_branch_points_is_zero(quad_cfg):
    spec = validate_spec(3, 2, [])
    form = enumerate_forms(spec)[0]
    center = 3.0 + 2.0j
    start = center + 0.4
    state = init_branch(start, spec.branch_points)
    circle = Path(
        segments=(
            Arc(
                center=center,
                radius=0.4,
                start_angle=0.0,
                end_angle=2 * math.pi,
            ),
        )
    )
    (val,), out = integrate_smooth(circle, state, [form], spec, quad_cfg)
    assert abs(val) < 1e-10
    assert np.max(np.abs(np.asarray(out.logs) - np.asarray(state.logs))) < 1e-10


def test_loop_then_reversed_loop_cancels(quad_cfg):
    from gfcperiods import loop_path

    spec = validate_spec(4, 2, [])
    form = enumerate_forms(spec)[1]
    R = spec.branch_points
    z0 = default_base_point(R)
    state = init_branch(z0, R)
    loop, reverse = (loop_path(z0, 2, R, sign) for sign in (+1, -1))
    (v1,), mid = integrate_smooth(loop, state, [form], spec, quad_cfg)
    (v2,), back = integrate_smooth(reverse, mid, [form], spec, quad_cfg)
    assert abs(v1 + v2) < 1e-10
    assert np.max(np.abs(np.asarray(back.logs) - np.asarray(state.logs))) < 1e-10


def test_no_convergence_raises():
    spec = validate_spec(3, 2, [])
    state = init_branch(default_base_point(spec.branch_points), spec.branch_points)
    form = enumerate_forms(spec)[0]
    cfg = QuadConfig(level=2, rel_tol=1e-15, max_level=3)
    with pytest.raises(NoConvergence, match=r"base integral i=1, alpha="):
        leg_row(state, 1, [form], spec, cfg)


def test_leg_ladder_converges_across_desk_scale(quad_cfg):
    # every leg of every curve with k <= 5, n <= 4: the level ladder reaches
    # the tolerance before max_level, with decreasing steps on the way
    for k in range(2, 6):
        for n in range(2, 5):
            spec = validate_spec(k, n, [2.0, -1.5][: n - 2])
            forms = enumerate_forms(spec)
            if not forms:
                continue
            R = spec.branch_points
            z0 = default_base_point(R)
            state = init_branch(z0, R)
            sample = [forms[0], forms[len(forms) // 2], forms[-1]]
            E = exponent_matrix(sample, spec.k, spec.n)
            every = np.arange(len(sample))
            for i in range(1, n + 1):
                rows_at = quad._leg_rows(z0, state.logs, i - 1, R, E, 11)
                levels = [rows_at(lvl, every)[0] for lvl in range(quad_cfg.level, 12)]
                for values in np.transpose(levels):
                    diffs = [
                        abs(v2 - v1) / abs(v2) for v1, v2 in zip(values, values[1:])
                    ]
                    assert min(diffs) < quad_cfg.rel_tol
                    for d1, d2 in zip(diffs, diffs[1:]):
                        if d1 < quad_cfg.rel_tol:
                            break
                        assert d2 < d1


def test_leg_integral_reproduces_beta_difference(quad_cfg):
    # |J_2 - J_1| equals B((alpha_1+1)/k, 1 - alpha_2/k) on rank-2 curves
    spec = validate_spec(4, 2, [])
    R = spec.branch_points
    state = init_branch(default_base_point(R), R)
    form = enumerate_forms(spec)[0]  # alpha = (0, 2)
    (j1,) = leg_row(state, 1, [form], spec, quad_cfg)
    (j2,) = leg_row(state, 2, [form], spec, quad_cfg)
    exact = _beta_oracle(0.25, 0.5)
    assert abs(abs(j2 - j1) - exact) / exact < 1e-10


def test_smooth_kernel_blocks_give_the_same_row(quad_cfg, monkeypatch):
    # every form of (3, 3) around loop 2, once in one block and once in
    # blocks of one form per panel count
    from gfcperiods import loop_path
    from gfcperiods import quad

    spec = validate_spec(3, 3, [-1.5])
    forms = enumerate_forms(spec)
    R = spec.branch_points
    z0 = default_base_point(R)
    state = init_branch(z0, R)
    loop = loop_path(z0, 2, R, +1)
    whole, end = integrate_smooth(loop, state, forms, spec, quad_cfg)
    monkeypatch.setattr(quad, "_BLOCK_VALUES", 1)
    blocked, end_blocked = integrate_smooth(loop, state, forms, spec, quad_cfg)
    assert np.max(np.abs(whole - blocked)) <= 1e-14 * np.max(np.abs(whole))
    assert end.logs == end_blocked.logs
    for c, form in enumerate(forms):
        (alone,), _ = integrate_smooth(loop, state, [form], spec, quad_cfg)
        assert abs(alone - whole[c]) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("k,n,lams", [(3, 3, [-1.5]), (4, 4, [-1.5, 2 + 1j])])
@pytest.mark.parametrize("block_values", [None, 1])
def test_leg_row_over_all_forms_matches_each_form_alone(
    k, n, lams, block_values, quad_cfg, monkeypatch
):
    # forms leave the level loop independently, so batching changes no
    # form's value beyond rounding, in one block or in blocks of one form
    if block_values is not None:
        monkeypatch.setattr(quad, "_BLOCK_VALUES", block_values)
    spec = validate_spec(k, n, lams)
    forms = enumerate_forms(spec)
    R = spec.branch_points
    state = init_branch(default_base_point(R), R)
    for i in range(1, n + 1):
        whole = leg_row(state, i, forms, spec, quad_cfg)
        scale = np.max(np.abs(whole))
        for c, form in enumerate(forms):
            (alone,) = leg_row(state, i, [form], spec, quad_cfg)
            assert abs(alone - whole[c]) <= 1e-14 * scale


def _kernel_reference(E, X, vw):
    """The kernel's sums written out one form at a time: over all nodes,
    their magnitudes, and over the nodes at even and at odd positions."""
    cur = np.empty(len(E), dtype=complex)
    l1 = np.empty(len(E))
    halves = np.empty((2, len(E)), dtype=complex)
    for f, e in enumerate(E):
        terms = np.exp(e @ X.T) * vw
        cur[f] = terms.sum()
        l1[f] = np.abs(terms).sum()
        halves[:, f] = terms[0::2].sum(), terms[1::2].sum()
    return cur, l1, halves


# (k, n) -> whether the forms' exponent matrix takes the split kernel: only
# where a split at least halves the exponentials per node.
_KERNEL_CURVES = {
    (2, 3): False,
    (3, 3): False,
    (4, 3): False,
    (4, 4): True,
    (17, 2): True,
    (2, 6): True,
}


def _kernel_cases(k, n, rng):
    """(E, tie, X, vw) in Gauss-Legendre shape and in leg shape for every
    target: random bounded continued logs, and for legs a log-weight column
    and a common factor."""
    forms = enumerate_forms(validate_spec(k, n, [2.0 + 0.5j * t for t in range(n - 2)]))
    E = exponent_matrix(forms, k, n)
    nodes = 48

    def logs(cols):
        return rng.uniform(-2.0, 2.0, (nodes, cols)) + 1j * rng.uniform(-4.0, 4.0, (nodes, cols))

    vw = logs(1)[:, 0]
    yield E, None, logs(n), vw
    E1 = np.hstack([E, np.ones((len(E), 1))])
    for target in range(n):
        X = logs(n + 1)
        X[:, n] = rng.uniform(-30.0, 0.0, nodes)
        yield E1, (target, n), X, complex(vw[0])


@pytest.mark.parametrize("k,n", list(_KERNEL_CURVES))
@pytest.mark.parametrize("block_values", [None, 1])
def test_panel_sums_match_the_form_by_form_reference(k, n, block_values, monkeypatch):
    if block_values is not None:
        monkeypatch.setattr(quad, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(7 * k + n)
    for E, tie, X, vw in _kernel_cases(k, n, rng):
        split = quad._factored(E.tobytes(), E.shape, tie)
        assert (split is not None) == _KERNEL_CURVES[k, n]
        if tie and split:
            # the log weight shares the target factor's exponential
            assert [tie[0] in cols for cols, _, _ in split] == [
                tie[1] in cols for cols, _, _ in split
            ]
        every = np.arange(len(E))
        for todo in (every, every[1::3]):
            ref_cur, ref_l1, ref_halves = _kernel_reference(E[todo], X, vw)
            cur, l1, none = quad._panel_sums(E, todo, X, vw, magnitudes=True, tie=tie)
            assert none is None
            assert np.all(np.abs(cur - ref_cur) <= 1e-14 * ref_l1)
            assert np.all(np.abs(l1 - ref_l1) <= 1e-14 * ref_l1)
            alone, none, _ = quad._panel_sums(E, todo, X, vw, tie=tie)
            assert none is None
            assert np.array_equal(alone, cur)
            for even, ref_half in enumerate(ref_halves):
                full, none, half = quad._panel_sums(E, todo, X, vw, tie=tie, even=even)
                assert none is None
                # the full sum is the same arithmetic with or without the half
                assert np.array_equal(full, cur)
                assert np.all(np.abs(half - ref_half) <= 1e-14 * ref_l1)
            if split and block_values is None:
                # node blocks of three, so that every second block starts at
                # an odd position
                width = max(len(quad._open_rows(group, todo)[1]) for group in split)
                with pytest.MonkeyPatch.context() as blocks:
                    blocks.setattr(quad, "_BLOCK_VALUES", 3 * width)
                    for even, ref_half in enumerate(ref_halves):
                        _, _, half = quad._panel_sums(E, todo, X, vw, tie=tie, even=even)
                        assert np.all(np.abs(half - ref_half) <= 1e-14 * ref_l1)


# an unsplit curve and two split ones (see _KERNEL_CURVES)
_PAIRED_CURVES = [(3, 3, [-1.5]), (4, 4, [-1.5, 2 + 1j]), (17, 2, [])]


def _legs(k, n, lams):
    """(spec, forms, state, E, legs) of a curve: its forms, the base point's
    branch state, their exponent matrix, and the legs i whose route from
    the base point is the straight leg alone."""
    spec = validate_spec(k, n, lams)
    forms = enumerate_forms(spec)
    R = spec.branch_points
    state = init_branch(default_base_point(R), R)
    straight = [
        i
        for i in range(1, n + 1)
        if len(clear_leg(state.point, complex(R[i - 1]), R, exclude={i - 1})) == 1
    ]
    assert straight
    return spec, forms, state, exponent_matrix(forms, k, n), straight


@pytest.mark.parametrize("k,n,lams", _PAIRED_CURVES)
def test_paired_leg_row_is_todays_next_level(k, n, lams, quad_cfg):
    # every form of these legs converges at level 6, whose value the paired
    # first call computes with the full sum of a plain level-6 evaluation
    spec, forms, state, E, straight = _legs(k, n, lams)
    R = spec.branch_points
    every = np.arange(len(forms))
    for i in straight:
        fresh = quad._leg_rows(state.point, state.logs, i - 1, R, E, quad_cfg.level + 1)
        plain, _ = fresh(quad_cfg.level + 1, every)
        assert np.array_equal(leg_row(state, i, forms, spec, quad_cfg), plain)


@pytest.mark.parametrize("k,n,lams", _PAIRED_CURVES)
@pytest.mark.parametrize("level", [3, 5])
def test_paired_gate_value_is_the_level_value(k, n, lams, level):
    # level 4 has an odd jmax (97), level 6 an even one (390): the level-L
    # nodes are picked by even j, not by position
    spec, forms, state, E, straight = _legs(k, n, lams)
    R = spec.branch_points
    every = np.arange(len(forms))
    for i in straight:
        paired = quad._leg_rows(state.point, state.logs, i - 1, R, E, level + 1)
        unpaired = quad._leg_rows(state.point, state.logs, i - 1, R, E, level)
        gate, _ = paired(level, every)
        plain, _ = unpaired(level, every)
        assert np.max(np.abs(gate - plain)) <= 1e-14 * np.max(np.abs(plain))


def _count_walks(monkeypatch):
    walks = []
    walk = quad.contour.continued_logs_param

    def counted(diff_fn, params, logs0):
        walks.append(len(params))
        return walk(diff_fn, params, logs0)

    monkeypatch.setattr(quad.contour, "continued_logs_param", counted)
    return walks


def test_a_leg_converging_at_the_second_level_walks_once(quad_cfg, monkeypatch):
    spec, forms, state, _, straight = _legs(3, 3, [-1.5])
    walks = _count_walks(monkeypatch)
    leg_row(state, straight[0], forms, spec, quad_cfg)
    nodes = len(quad._de_nodes(quad_cfg.level + 1)[0])
    assert walks == [nodes + 1]


def test_a_capped_leg_walks_its_one_level(monkeypatch):
    spec, forms, state, _, straight = _legs(3, 3, [-1.5])
    walks = _count_walks(monkeypatch)
    cfg = QuadConfig(level=3, max_level=3, rel_tol=1e-15)
    with pytest.raises(NoConvergence, match=r"base integral i=\d+, alpha=.*level 3$"):
        leg_row(state, straight[0], forms, spec, cfg)
    assert walks == [len(quad._de_nodes(3)[0]) + 1]


def test_integrate_smooth_rejects_a_path_away_from_the_state(quad_cfg):
    spec = validate_spec(3, 2, [])
    state = init_branch(default_base_point(spec.branch_points), spec.branch_points)
    path = Path(segments=(Line(state.point + 1.0, state.point + 2.0),))
    with pytest.raises(ValueError, match="does not start at the state"):
        integrate_smooth(path, state, enumerate_forms(spec), spec, quad_cfg)
