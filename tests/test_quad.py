import dataclasses
import math

import numpy as np
import pytest
from conftest import integrate_segments, literal_loop

from gfcperiods import (
    enumerate_forms,
    init_branch,
    validate_spec,
)
from gfcperiods.contour import (
    Arc,
    BranchState,
    Line,
    clear_leg,
    default_base_point,
    exponent_matrix,
)
from gfcperiods import contour, quad
from gfcperiods.errors import NoConvergence
from gfcperiods.periods import base_integrals
from gfcperiods.quad import QuadConfig, leg_rows, tanh_sinh, tanh_sinh_level


def _one_leg_rows(state, i, E):
    """The tanh-sinh rows_at of the straight leg from the state's point to
    r_i alone: its rows are the forms."""
    R = state.branch_points
    line = Line(state.point, complex(R[i - 1]))
    return quad._leg_rows([line], [i - 1], R, [state.logs], E)


def _beta_oracle(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _beta_integrand(a, b):
    return lambda x, dl, dr: dl ** (a - 1.0) * dr ** (b - 1.0)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite"):
            QuadConfig(rel_tol=bad)
    # every refinement starts at level 4, and the cap bounds one leg's node
    # table: 3.2M nodes at level 18
    assert (quad._START_LEVEL, quad._LEVEL_CAP) == (4, 18)
    assert "level" not in {field.name for field in dataclasses.fields(QuadConfig)}
    QuadConfig(max_level=4)
    QuadConfig(max_level=18)
    for max_level in (-1, 0, 3, 19, 40):
        with pytest.raises(ValueError, match=rf"^max_level must lie in 4\.\.18, got {max_level}$"):
            QuadConfig(max_level=max_level)


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
    ((direct,),) = leg_rows(state, [1], [form], spec, quad_cfg)
    # detour through a waypoint homotopic to the straight leg
    waypoint = z0 + 1.0 - 0.5j
    E = exponent_matrix([form], spec.k, spec.n)
    (prefix,), logs = integrate_segments((Line(z0, waypoint),), state.logs, R, E, quad_cfg)
    mid_state = BranchState(point=waypoint, logs=tuple(logs), branch_points=R)
    ((tail,),) = leg_rows(mid_state, [1], [form], spec, quad_cfg)
    detoured = prefix + tail
    assert abs(direct - detoured) / abs(direct) < 1e-9


def test_zero_length_path(quad_cfg):
    spec = validate_spec(3, 2, [])
    state = init_branch(default_base_point(spec.branch_points), spec.branch_points)
    E = exponent_matrix(enumerate_forms(spec)[:1], spec.k, spec.n)
    (val,), out = integrate_segments((), state.logs, spec.branch_points, E, quad_cfg)
    assert val == 0j
    assert tuple(out) == state.logs


def test_closed_loop_without_branch_points_is_zero(quad_cfg):
    spec = validate_spec(3, 2, [])
    form = enumerate_forms(spec)[0]
    center = 3.0 + 2.0j
    start = center + 0.4
    state = init_branch(start, spec.branch_points)
    circle = (Arc(center=center, radius=0.4, start_angle=0.0, end_angle=2 * math.pi),)
    E = exponent_matrix([form], spec.k, spec.n)
    (val,), out = integrate_segments(circle, state.logs, spec.branch_points, E, quad_cfg)
    assert abs(val) < 1e-10
    assert np.max(np.abs(out - np.asarray(state.logs))) < 1e-10


def test_loop_then_reversed_loop_cancels(quad_cfg):
    spec = validate_spec(4, 2, [])
    form = enumerate_forms(spec)[1]
    R = spec.branch_points
    z0 = default_base_point(R)
    state = init_branch(z0, R)
    E = exponent_matrix([form], spec.k, spec.n)
    loop, reverse = (literal_loop(z0, 2, R, sign) for sign in (+1, -1))
    (v1,), mid = integrate_segments(loop, state.logs, R, E, quad_cfg)
    (v2,), back = integrate_segments(reverse, mid, R, E, quad_cfg)
    assert abs(v1 + v2) < 1e-10
    assert np.max(np.abs(back - np.asarray(state.logs))) < 1e-10


def test_no_convergence_raises():
    spec = validate_spec(3, 2, [])
    state = init_branch(default_base_point(spec.branch_points), spec.branch_points)
    form = enumerate_forms(spec)[0]
    # one level, so no two levels can agree
    cfg = QuadConfig(max_level=4)
    with pytest.raises(NoConvergence, match=r"base integral i=1, alpha="):
        leg_rows(state, [1], [form], spec, cfg)


def _table_rows(table):
    """rows_at of rows whose values at each step are the table's."""

    def rows_at(steps, todo):
        return [(table[step][todo], np.abs(table[step][todo])) for step in steps]

    return rows_at


def test_refine_names_the_piece_and_form_of_an_open_row():
    # rows p * forms + f over 2 pieces x 3 forms; rows 0 and 2 settle
    table = {
        4: np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        5: np.array([1.0, 2.5, 3.0, 4.5, 5.5, 6.5]),
    }
    with pytest.raises(NoConvergence, match="by step 5$") as err:
        quad._refine(_table_rows(table), [4, 5], 2, 3, 1e-10, "step")
    assert (err.value.piece, err.value.form) == (0, 1)


def test_refine_stops_at_a_value_that_is_not_finite():
    # |inf - x| <= rel_tol * inf, so a gate alone would take an infinite
    # value that follows a finite one
    table = {
        4: np.array([1.0, 2.0, 3.0, 4.0]),
        5: np.array([1.0, 2.0, 3.0, np.inf]),
        6: np.array([1.0, 2.0, 3.0, 4.0]),
    }
    with pytest.raises(NoConvergence, match="value is not finite at step 5$") as err:
        quad._refine(_table_rows(table), [4, 5, 6], 2, 2, 1e-10, "step")
    assert (err.value.piece, err.value.form) == (1, 1)


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
                rows_at = _one_leg_rows(state, i, E)
                levels = [rows_at([lvl], every)[0][0] for lvl in range(quad._START_LEVEL, 12)]
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
    ((j1,),) = leg_rows(state, [1], [form], spec, quad_cfg)
    ((j2,),) = leg_rows(state, [2], [form], spec, quad_cfg)
    exact = _beta_oracle(0.25, 0.5)
    assert abs(abs(j2 - j1) - exact) / exact < 1e-10


def test_smooth_kernel_blocks_give_the_same_row(quad_cfg, monkeypatch):
    # every form of (3, 3) around loop 2, once in one block and once in
    # blocks of one form per panel count
    spec = validate_spec(3, 3, [-1.5])
    forms = enumerate_forms(spec)
    R = spec.branch_points
    z0 = default_base_point(R)
    state = init_branch(z0, R)
    E = exponent_matrix(forms, spec.k, spec.n)
    loop = literal_loop(z0, 2, R, +1)
    whole, end = integrate_segments(loop, state.logs, R, E, quad_cfg)
    monkeypatch.setattr(quad, "_BLOCK_VALUES", 1)
    blocked, end_blocked = integrate_segments(loop, state.logs, R, E, quad_cfg)
    assert np.max(np.abs(whole - blocked)) <= 1e-14 * np.max(np.abs(whole))
    assert np.array_equal(end, end_blocked)
    for c in range(len(forms)):
        (alone,), _ = integrate_segments(loop, state.logs, R, E[c : c + 1], quad_cfg)
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
        (whole,) = leg_rows(state, [i], forms, spec, quad_cfg)
        scale = np.max(np.abs(whole))
        for c, form in enumerate(forms):
            ((alone,),) = leg_rows(state, [i], [form], spec, quad_cfg)
            assert abs(alone - whole[c]) <= 1e-14 * scale


# (k, n, lambdas) of curves whose legs batch in different ways
_BATCH_CURVES = {
    # leg 1 takes a midpoint detour, and refines to level 11
    "detour": (4, 3, [0.115 + 0.842j]),
    # one leg refines to level 7, the others stop earlier
    "deep": (2, 5, [-1.5, 2 + 1j, 2.0]),
    # split kernel, with targets on both sides of the cut
    "split": (4, 4, [-1.5, 2 + 1j]),
    # unsplit kernel
    "unsplit": (3, 3, [-1.5]),
}


@pytest.mark.parametrize("case", sorted(_BATCH_CURVES))
@pytest.mark.parametrize("block_values", [None, 1])
def test_batched_legs_match_each_leg_alone(case, block_values, quad_cfg, monkeypatch):
    # J from one batch over the curve's legs has the bits of each leg's own
    # batch, whether its legs share kernel calls or, in blocks of one value,
    # go through the kernel one at a time
    k, n, lams = _BATCH_CURVES[case]
    spec = validate_spec(k, n, lams)
    forms = enumerate_forms(spec)
    R = spec.branch_points
    state = init_branch(default_base_point(R), R)
    routes = [clear_leg(state.point, complex(R[i]), R, exclude={i}) for i in range(n)]
    E = exponent_matrix(forms, k, n)
    E1 = np.hstack([E, np.ones((len(E), 1))])
    splits = [quad._factored(E1.tobytes(), E1.shape, (t, n)) for t in range(n)]
    sides = {split is not None and t in split[0][0] for t, split in enumerate(splits)}
    assert (max(map(len, routes)) == 2) == (case == "detour")
    assert (None in splits) == (case != "split")
    assert len(sides) == (2 if case == "split" else 1)
    if block_values is not None:
        monkeypatch.setattr(quad, "_BLOCK_VALUES", block_values)
    pieces, levels = [], []
    kernel, last_node = quad._panel_sums, quad._last_node

    def counted_kernel(E, todo, X, vw, ranges=None, magnitudes=False, tie=None):
        if tie is not None:
            pieces.append(X.shape[0])
        return kernel(E, todo, X, vw, ranges, magnitudes=magnitudes, tie=tie)

    def counted_last_node(level):
        levels.append(level)
        return last_node(level)

    monkeypatch.setattr(quad, "_panel_sums", counted_kernel)
    monkeypatch.setattr(quad, "_last_node", counted_last_node)
    J = base_integrals(spec, quad_cfg)
    # one kernel call per tie class at the first level, or one per leg
    assert max(pieces) == (1 if block_values else n // len(sides))
    assert max(levels) == {"detour": 11, "deep": 7}.get(case, 5)
    for i in range(1, n + 1):
        assert np.array_equal(J[i - 1], leg_rows(state, [i], forms, spec, quad_cfg)[0]), i


def _kernel_reference(E, X, vw):
    """The kernel's sums written out one form at a time: over all nodes and
    over their magnitudes."""
    cur = np.empty(len(E), dtype=complex)
    l1 = np.empty(len(E))
    for f, e in enumerate(E):
        terms = np.exp(e @ X.T) * vw
        cur[f] = terms.sum()
        l1[f] = np.abs(terms).sum()
    return cur, l1


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
        vw = vw[None] if np.ndim(vw) else vw
        for todo in (every, every[1::3]):
            ref_cur, ref_l1 = _kernel_reference(E[todo], X, vw)
            ((cur,),), ((l1,),) = quad._panel_sums(E, todo, X[None], vw, magnitudes=True, tie=tie)
            assert np.all(np.abs(cur - ref_cur) <= 1e-14 * ref_l1)
            assert np.all(np.abs(l1 - ref_l1) <= 1e-14 * ref_l1)
            ((alone,),), none = quad._panel_sums(E, todo, X[None], vw, tie=tie)
            assert none is None
            assert np.array_equal(alone, cur)


@pytest.mark.parametrize("k,n", [kn for kn, split in _KERNEL_CURVES.items() if split])
def test_open_rows_of_every_form_are_the_group(k, n):
    # a group's rows are the distinct rows of all forms, so with every form
    # open the group is returned as it is, as the unique pass would give it
    rng = np.random.default_rng(7 * k + n)
    for E, tie, _, _ in _kernel_cases(k, n, rng):
        for group in quad._factored(E.tobytes(), E.shape, tie):
            cols, rows, index = group
            every = np.arange(len(E))
            assert quad._open_rows(group, every) is group
            present, inverse = np.unique(index, return_inverse=True)
            assert np.array_equal(rows[present], rows)
            assert np.array_equal(inverse.reshape(-1), index)
            # a proper subset still keeps only its own rows
            _, some, at = quad._open_rows(group, every[1:])
            assert np.array_equal(some[at], rows[index[1:]])


@pytest.mark.parametrize("k,n", list(_KERNEL_CURVES))
@pytest.mark.parametrize("block_values", [None, 1, 200])
def test_panel_sums_over_pieces_keep_each_piece_bits(k, n, block_values, monkeypatch):
    # three pieces in one call give each piece's sums bit for bit as alone,
    # whether they share a block, take one each, or split into node blocks
    if block_values is not None:
        monkeypatch.setattr(quad, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(11 * k + n)
    for E, tie, X, vw in _kernel_cases(k, n, rng):
        X = np.stack([X, X[::-1], 0.5 * X])
        if tie is None:
            vw = np.stack([vw, vw[::-1], 2.0 * vw])
        todo = np.arange(len(E))[::2]
        (cur,), (l1,) = quad._panel_sums(E, todo, X, vw, magnitudes=True, tie=tie)
        for p in range(3):
            one = vw if tie else vw[p : p + 1]
            (alone,), (alone_l1,) = quad._panel_sums(
                E, todo, X[p : p + 1], one, magnitudes=True, tie=tie
            )
            assert np.array_equal(cur[p], alone[0])
            assert np.array_equal(l1[p], alone_l1[0])


@pytest.mark.parametrize("nodes", [1, 63, 64, 65, 391])
def test_node_product_matches_the_matrix_product(nodes):
    # whole chunks of _CHUNK_NODES nodes, a remainder, or both
    rng = np.random.default_rng(nodes)
    P_a = rng.normal(size=(7, nodes)) + 1j * rng.normal(size=(7, nodes))
    P_b = rng.normal(size=(5, nodes)) + 1j * rng.normal(size=(5, nodes))
    scale = np.abs(P_a) @ np.abs(P_b).T
    (got,) = quad._node_product(P_a[None], P_b[None])
    assert got.shape == (7, 5)
    assert np.all(np.abs(got - np.einsum("an,bn->ab", P_a, P_b)) <= 1e-14 * scale)


# an unsplit curve and two split ones (see _KERNEL_CURVES)
_LEG_CURVES = [(3, 3, [-1.5]), (4, 4, [-1.5, 2 + 1j]), (17, 2, [])]


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


def _count_nodes(monkeypatch):
    """The tanh-sinh nodes summed by each kernel call (the ones with a tied
    log weight column), as a list of their counts: the nodes of all the
    call's ranges, one range per level."""
    nodes = []
    kernel = quad._panel_sums

    def counted_kernel(E, todo, X, vw, ranges=None, magnitudes=False, tie=None):
        if tie is not None:
            nodes.append(sum(stop - start for start, stop in ranges))
        return kernel(E, todo, X, vw, ranges, magnitudes=magnitudes, tie=tie)

    monkeypatch.setattr(quad, "_panel_sums", counted_kernel)
    return nodes


def _node_count(level):
    return len(quad._de_nodes(level)[0])


@pytest.mark.parametrize("k,n,lams", _LEG_CURVES)
@pytest.mark.parametrize("level", [3, 5])
def test_paired_gate_value_is_the_level_value(k, n, lams, level, monkeypatch):
    # the call at level L + 1 paired with the previous call at level L
    # evaluates only the new odd-j nodes; the value it hands the gate is the
    # full level-(L + 1) value.  Level 4 has an odd last j (97), level 6 an
    # even one (390): the new nodes are picked by odd j, not by position
    spec, forms, state, E, straight = _legs(k, n, lams)
    R = spec.branch_points
    every = np.arange(len(forms))
    nodes = _count_nodes(monkeypatch)
    for i in straight:
        nodes.clear()
        stepped = _one_leg_rows(state, i, E)
        stepped([level], every)
        ((following, _),) = stepped([level + 1], every)
        ((fresh, _),) = _one_leg_rows(state, i, E)([level + 1], every)
        assert nodes == [
            _node_count(level),
            _node_count(level + 1) - _node_count(level),
            _node_count(level + 1),
        ]
        assert np.max(np.abs(following - fresh)) <= 1e-14 * np.max(np.abs(fresh))


def test_a_leg_converging_at_the_second_level_evaluates_its_nodes_once(
    quad_cfg, monkeypatch
):
    spec, forms, state, _, straight = _legs(3, 3, [-1.5])
    nodes = _count_nodes(monkeypatch)
    leg_rows(state, [straight[0]], forms, spec, quad_cfg)
    # the start level and the new nodes of the next in one pass
    assert sum(nodes) == _node_count(quad._START_LEVEL + 1) == 391
    assert len(nodes) == 1


def test_a_capped_leg_evaluates_its_one_level(monkeypatch):
    spec, forms, state, _, straight = _legs(3, 3, [-1.5])
    nodes = _count_nodes(monkeypatch)
    cfg = QuadConfig(max_level=4)
    with pytest.raises(NoConvergence, match=r"base integral i=\d+, alpha=.*level 4$"):
        leg_rows(state, [straight[0]], forms, spec, cfg)
    assert nodes == [_node_count(4)]


@pytest.mark.parametrize("k,n,lams", _LEG_CURVES)
def test_closed_form_logs_match_a_continued_log(k, n, lams):
    # the reference continues each log in 30 digits by small steps through
    # the level-4 node positions, from the start's logs; the closed form
    # agrees to within 1e-15 of max(1, |log|) at every node
    mpmath = pytest.importorskip("mpmath")
    spec, _, state, _, straight = _legs(k, n, lams)
    R = spec.branch_points
    sigma, tau, log_sigma, _ = quad._de_nodes(4)
    with mpmath.workdps(30):
        start = mpmath.mpc(state.point)
        for i in straight:
            line = Line(state.point, complex(R[i - 1]))
            X = quad._leg_logs([line], [i - 1], R, [state.logs], quad._de_nodes(4))[0]
            end = mpmath.mpc(complex(R[i - 1]))
            D = end - start
            for s in range(n):
                r = mpmath.mpc(complex(R[s]))
                log, prev = mpmath.mpc(state.logs[s]), start - r
                for p, t in enumerate(tau):
                    if s == i - 1:
                        # distance fraction to the endpoint, as the node table has it
                        here = -D * mpmath.exp(mpmath.mpf(log_sigma[p]))
                    elif sigma[p] < t:
                        # the node as placed from the nearer end
                        here = end - mpmath.mpf(sigma[p]) * D - r
                    else:
                        here = start + mpmath.mpf(t) * D - r
                    for part in range(1, 5):
                        step = prev + (here - prev) * part / 4
                        rise = mpmath.log(step / (prev + (here - prev) * (part - 1) / 4))
                        assert abs(rise.imag) < math.pi / 2
                        log += rise
                    prev = here
                    # log sigma reaches -674, where one rounding is 1e-13
                    assert abs(complex(log) - X[p, s]) <= 1e-15 * max(1.0, abs(log)), (i, s, p)


@pytest.mark.parametrize("k", [30, 40, 60])
def test_high_k_legs_reproduce_the_beta_integral(k, quad_cfg):
    # |J_2 - J_1| = B((alpha_1+1)/k, 1 - alpha_2/k); at alpha_2 = k-1 the
    # singular factor's exponent is -(k-1)/k, and the integral beyond the
    # last node is about (1e-290)**(1/k) of the whole, which the sum must
    # not drop
    spec = validate_spec(k, 2, [])
    forms = enumerate_forms(spec)
    J = base_integrals(spec, quad_cfg)
    for c, form in enumerate(forms):
        exact = _beta_oracle((form.alpha[0] + 1) / k, 1 - form.alpha[1] / k)
        assert abs(abs(J[1, c] - J[0, c]) - exact) <= 1e-10 * exact, form.alpha


# the curves of the verify benchmark, with its branch values -1.5 and 2+1i
_ORACLE_CURVES = [
    (2, 3, [-1.5]),
    (3, 3, [-1.5]),
    (2, 4, [-1.5, 2 + 1j]),
    (4, 3, [-1.5]),
    (5, 3, [-1.5]),
    (3, 4, [-1.5, 2 + 1j]),
]


def _count_ranges(monkeypatch):
    """The node ranges of each kernel call, as a list of (tanh-sinh?, count)
    pairs; a tanh-sinh call is one with a tied log weight column."""
    calls = []
    kernel = quad._panel_sums

    def counted_kernel(E, todo, X, vw, ranges=None, magnitudes=False, tie=None):
        calls.append((tie is not None, len(ranges)))
        return kernel(E, todo, X, vw, ranges, magnitudes=magnitudes, tie=tie)

    monkeypatch.setattr(quad, "_panel_sums", counted_kernel)
    return calls


def _loop_pieces(state, n):
    """The routes in and circles of the oracle's loops around r_1..r_n, and
    the start logs of each piece."""
    R = state.branch_points
    routes = [contour.loop_pieces(state.point, i, R) for i in range(1, n + 1)]
    chains = contour.chain_logs(
        [inbound + (circle,) for inbound, circle in routes], R, [state.logs] * n
    )
    segments = [seg for inbound, circle in routes for seg in inbound + (circle,)]
    return segments, [logs for chain in chains for logs in chain[:-1]]


@pytest.mark.parametrize(
    "k,n,lams", _LEG_CURVES + [curve for curve in _ORACLE_CURVES if curve not in _LEG_CURVES]
)
def test_a_fused_pass_has_the_bits_of_one_step_per_pass(k, n, lams, quad_cfg, monkeypatch):
    # the first pass takes two steps in one kernel call, with a node range
    # each; asked for one step per pass instead, J and the loop rows keep
    # their bits
    spec = validate_spec(k, n, lams)
    forms = enumerate_forms(spec)
    R = spec.branch_points
    state = init_branch(default_base_point(R), R)
    E = exponent_matrix(forms, k, n)
    segments, starts = _loop_pieces(state, n)
    calls = _count_ranges(monkeypatch)

    def run():
        calls.clear()
        J = quad.leg_rows(state, range(1, n + 1), forms, spec, quad_cfg)
        rows = quad._gl_batch(segments, starts, R, E, quad_cfg)
        # the most ranges of a tanh-sinh and of a Gauss-Legendre call
        most = [max(r for legs, r in calls if legs == kind) for kind in (True, False)]
        return J, rows, most

    J, rows, most = run()
    assert most == [2, 2]
    refine = quad._refine

    def one_step_per_pass(rows_at, steps, *args):
        def stepped(steps, todo):
            return [value for step in steps for value in rows_at([step], todo)]

        return refine(stepped, steps, *args)

    monkeypatch.setattr(quad, "_refine", one_step_per_pass)
    J_one, rows_one, most = run()
    assert most == [1, 1]
    assert np.array_equal(J_one, J) and np.array_equal(rows_one, rows)


@pytest.mark.parametrize("k,n,lams", _LEG_CURVES)
def test_a_pass_of_two_levels_gives_each_its_value(k, n, lams, monkeypatch):
    # rows_at asked for two levels returns the values of the level alone and
    # of the level after it, from one kernel call over both node tables
    spec, forms, state, E, straight = _legs(k, n, lams)
    every = np.arange(len(forms))
    nodes = _count_nodes(monkeypatch)
    for level in (3, 6):
        for i in straight:
            nodes.clear()
            (first, first_scale), (second, second_scale) = _one_leg_rows(state, i, E)(
                [level, level + 1], every
            )
            assert nodes == [_node_count(level + 1)]
            stepped = _one_leg_rows(state, i, E)
            ((alone, _),) = stepped([level], every)
            ((following, _),) = stepped([level + 1], every)
            assert np.array_equal(first, alone) and np.array_equal(second, following)
            assert np.array_equal(first_scale, np.abs(first))
            assert np.array_equal(second_scale, np.abs(second))
