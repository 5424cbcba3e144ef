import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfcperiods
import gfcperiods.cli as cli
from gfcperiods import assemble, contour, extract_basis, genus, quad, real_split, validate_spec
from gfcperiods.errors import NotFullRank
from gfcperiods.homology import ConjComm, Power, enumerate_generators
from gfcperiods.quad import QuadConfig


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _generator_dict(word) -> dict:
    """A generator as its JSON object in the period document."""
    if isinstance(word, Power):
        return {"type": "power", "i": word.i}
    return {"type": "conj_comm", "g": list(word.g), "j": word.j, "l": word.l}


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2", 2 + 0j),
        ("-1.5", -1.5 + 0j),
        ("2+1i", 2 + 1j),
        ("2+1j", 2 + 1j),
        ("2,-1", 2 - 1j),
        ("1e-3+2.5i", 1e-3 + 2.5j),
        (" 0.5 , 0.25 ", 0.5 + 0.25j),
    ],
)
def test_parse_complex(text, expected):
    assert cli.parse_complex(text) == expected


def test_info_k4_n2(capsys):
    code, out, _ = run_cli(capsys, "info", "-k", "4", "-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 3
    assert payload["num_forms"] == 3
    assert payload["num_generators"] == 16
    assert payload["forms"] == [[0, 2], [0, 3], [1, 3]]


def test_info_k2_n3(capsys):
    code, out, _ = run_cli(capsys, "info", "-k", "2", "-n", "3", "-l", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["num_forms"] == 1
    assert payload["num_generators"] == 24


def test_info_csv_rows_read_back_as_the_json_values(capsys):
    argv = ["info", "-k", "2", "-n", "4", "-l", "-1.5", "-l", "2+1i"]
    _, out_json, _ = run_cli(capsys, *argv)
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = json.loads(out_json)
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert [row[0] for row in rows] == list(payload)
    for row in rows:
        assert len(row) == 2, row
        assert json.loads(row[1]) == payload[row[0]]


@pytest.mark.parametrize("flag", ["-l", "--lambda"])
@pytest.mark.parametrize(
    "text,expected", [("-1e-6", -1e-6 + 0j), ("-1+0.5i", -1 + 0.5j), ("-1.5", -1.5 + 0j)]
)
def test_info_negative_lambda(capsys, flag, text, expected):
    code, out, err = run_cli(capsys, "info", "-k", "2", "-n", "3", flag, text)
    assert code == 0, err
    assert json.loads(out)["lambdas"] == [[expected.real, expected.imag]]


def test_info_invalid_input_exits_2(capsys):
    code, out, err = run_cli(capsys, "info", "-k", "1", "-n", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_info_colliding_lambda_exits_2(capsys):
    code, _, err = run_cli(capsys, "info", "-k", "2", "-n", "3", "-l", "1")
    assert code == 2
    assert "error" in err


def test_bad_lambda_syntax_exits_2(capsys):
    code, _, err = run_cli(capsys, "info", "-k", "2", "-n", "3", "-l", "zzz")
    assert code == 2
    assert "lambda" in err


@pytest.mark.parametrize(
    "lam,shown", [("nan", "(nan+0j)"), ("1,nan", "(1+nanj)"), ("1e400", "(inf+0j)")]
)
def test_non_finite_lambda_exits_2(capsys, lam, shown):
    code, out, err = run_cli(capsys, "periods", "-k", "2", "-n", "3", "-l", lam)
    assert code == 2
    assert out == ""
    assert f"lambda_1 must be finite, got {shown}" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(capsys, tol):
    code, out, err = run_cli(capsys, "periods", "-k", "3", "-n", "2", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "rel_tol must be a positive finite number" in err


def test_periods_json_round_trip(capsys, tmp_path):
    out_path = tmp_path / "p.json"
    code, _, _ = run_cli(
        capsys, "periods", "-k", "3", "-n", "2", "--out", str(out_path)
    )
    assert code == 0
    raw = json.loads(out_path.read_text())
    pm = assemble(validate_spec(3, 2, []), QuadConfig())
    assert raw["k"] == 3 and raw["n"] == 2
    assert raw["genus"] == 1
    assert raw["forms"] == [list(f.alpha) for f in pm.cols]
    assert raw["generators"] == [_generator_dict(w) for w in pm.rows]
    # [re, im] pairs of doubles viewed as complex, bit for bit
    entries = np.asarray(raw["periods"], dtype=float).view(complex)[..., 0]
    assert np.array_equal(entries, pm.entries)
    assert complex(*raw["base_point"]) == pm.base_point


def test_periods_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "p.csv"
    code, _, _ = run_cli(
        capsys,
        "periods", "-k", "2", "-n", "3", "-l", "2",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    header, *lines = out_path.read_text().splitlines()
    pm = assemble(validate_spec(2, 3, [2.0]), QuadConfig())
    assert [f.alpha for f in pm.cols] == [(0, 1, 1)]
    assert header == "generator,re_0.1.1,im_0.1.1"
    cells = [line.split(",") for line in lines]
    assert [row[0] for row in cells] == [cli._word_label(w) for w in pm.rows]
    entries = np.asarray([row[1:] for row in cells], dtype=float).view(complex)
    assert np.array_equal(entries, pm.entries)


def test_periods_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "periods", "-k", "4", "-n", "2", "--out", str(a))
    run_cli(capsys, "periods", "-k", "4", "-n", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_periods_include_powers(capsys, tmp_path):
    out_path = tmp_path / "p.json"
    run_cli(
        capsys,
        "periods", "-k", "3", "-n", "2", "--include-powers", "--out", str(out_path),
    )
    payload = json.loads(out_path.read_text())
    assert payload["generators"][0] == {"type": "power", "i": 1}
    assert payload["periods"][0] == [[0, 0]]
    assert len(payload["generators"]) == 11


def test_periods_no_convergence_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        "periods", "-k", "3", "-n", "2",
        "--level", "2", "--max-level", "3", "--tol", "1e-15",
    )
    assert code == 3
    assert "alpha" in err and "i=" in err


@pytest.mark.parametrize(
    "flag,field",
    [("--level=-2000", "level"), ("--level=40", "level"), ("--max-level=19", "max_level")],
)
def test_out_of_range_level_exits_2(capsys, monkeypatch, flag, field):
    # refused when the configuration is built, before any node table exists
    def no_nodes(level):
        raise AssertionError(f"node table of level {level} built")

    monkeypatch.setattr(quad, "_de_nodes", no_nodes)
    code, out, err = run_cli(capsys, "periods", "-k", "3", "-n", "2", flag)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} must lie in 0..18, got ")
    assert "Traceback" not in err


def test_default_flags_give_the_default_quad_config():
    # argparse holds the defaults, taken from QuadConfig itself
    args = cli.build_parser().parse_args(["periods", "-k", "3", "-n", "2"])
    assert cli._quad_config(args) == QuadConfig()


@pytest.mark.parametrize("command", ["info", "periods", "basis", "verify"])
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gfcperiods {command} ")


@functools.cache
def _default_periods_json() -> str:
    return cli.periods_to_json(assemble(validate_spec(3, 2, []), QuadConfig()))


@pytest.mark.parametrize("level", ["14", "17"])
def test_high_start_level_converges(capsys, level):
    # the cap rises to one above the start, so two levels can agree
    code, out, err = run_cli(capsys, "periods", "-k", "3", "-n", "2", "--level", level)
    assert code == 0, err
    high = np.asarray(json.loads(out)["periods"])
    default = np.asarray(json.loads(_default_periods_json())["periods"])
    assert np.max(np.abs(high - default)) <= 1e-12 * np.max(np.abs(default))


def test_start_level_18_has_no_level_above_it(capsys):
    code, out, err = run_cli(capsys, "periods", "-k", "3", "-n", "2", "--level", "18")
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_level must lie in 0..18, got 19")


def test_basis_classical_curve(capsys):
    code, out, _ = run_cli(capsys, "basis", "-k", "4", "-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 3
    assert len(payload["basis"]) == 6
    assert payload["abs_det"] > 0
    assert abs(payload["log10_abs_det"] - np.log10(payload["abs_det"])) < 1e-12
    assert payload["residual"] < 1e-6
    coeffs = np.asarray(payload["coefficients"])
    assert coeffs.shape == (16, 6)
    assert coeffs.dtype.kind == "i"


def test_basis_payload_with_overflowing_det_is_valid_json():
    import warnings

    from gfcperiods.lattice import LatticeBasis

    spec = validate_spec(3, 2, [])
    result = LatticeBasis(
        basis=np.diag([1e100, 1e100, 1e100, 1e100]),
        coefficients=np.eye(4, dtype=np.int64),
        residual=0.0,
        from_generators=np.eye(4, dtype=np.int64),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = cli.basis_payload(spec, result)
        parsed = json.loads(cli._json_dump(payload))
        lines = cli.basis_to_csv(payload).splitlines()
    assert parsed["abs_det"] is None
    assert abs(parsed["log10_abs_det"] - 400.0) < 1e-12
    assert "abs_det,0," in lines
    assert any(line.startswith("log10_abs_det,0,400") for line in lines)


def test_basis_include_powers_never_selects_power_rows(capsys):
    _, out, _ = run_cli(capsys, "basis", "-k", "4", "-n", "2")
    code, out_powers, _ = run_cli(
        capsys, "basis", "-k", "4", "-n", "2", "--include-powers"
    )
    assert code == 0
    plain, with_powers = json.loads(out), json.loads(out_powers)
    gens = enumerate_generators(validate_spec(4, 2, []), include_powers=True)
    powers = [i for i, w in enumerate(gens) if isinstance(w, Power)]
    assert len(powers) == 2
    selection = np.asarray(with_powers["from_generators"])
    assert not selection[:, powers].any()
    assert not np.asarray(with_powers["coefficients"])[powers].any()
    assert with_powers["basis"] == plain["basis"]


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(gfcperiods.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, gfcperiods.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_basis_failure_exits_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NotFullRank("forced by test")

    monkeypatch.setattr(cli, "extract_basis", boom)
    code, _, err = run_cli(capsys, "basis", "-k", "3", "-n", "2")
    assert code == 4
    assert "forced by test" in err


def test_verify_passes_and_exits_0(capsys):
    code, out, err = run_cli(capsys, "verify", "-k", "3", "-n", "2", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seed"] == 5
    assert all(c["passed"] for c in payload["checks"])
    assert "pass" in err


def test_verify_reports_failure_exit(capsys, monkeypatch):
    import gfcperiods.oracle as oracle_mod

    real = oracle_mod.crosscheck_report

    def rigged(spec, cfg, sample=25, seed=0):
        report = real(spec, cfg, sample=3, seed=seed)
        failed = oracle_mod.CheckResult(
            name="forced_failure", passed=False, max_deviation=1.0, tolerance=0.0
        )
        return oracle_mod.CrosscheckReport(
            k=report.k,
            n=report.n,
            lambdas=report.lambdas,
            sample=report.sample,
            seed=report.seed,
            checks=report.checks + (failed,),
        )

    monkeypatch.setattr(cli, "crosscheck_report", rigged)
    code, out, err = run_cli(capsys, "verify", "-k", "3", "-n", "2")
    assert code == 1
    assert "FAIL" in err


def test_float_formatting_round_trips():
    import math

    for x in [math.pi, -1.5e-13, 0.1, 3.0, 5.2441151085842401]:
        assert float(cli._fmt(x)) == x


def test_word_label_round_trip():
    assert cli._word_label(Power(2)) == "power:i=2"
    word = ConjComm(g=(0, 2, 1), j=1, l=3)
    assert cli._word_label(word) == "conj_comm:j=1;l=3;g=0.2.1"


def test_periods_step_too_coarse_names_the_leg(capsys):
    # with a base point about 2e20 away, the leg nodes near r_1 = 0 round
    # onto a branch point; the error names the base integral
    code, out, err = run_cli(capsys, "periods", "-k", "2", "-n", "3", "-l", "1e20")
    assert code == 3
    assert out == ""
    assert err.startswith("error: branch continuation failed: base integral i=1: ")
    # the walk serves every form of the leg, so no form is named
    assert "alpha" not in err


def test_periods_routing_failure_names_the_leg(capsys, monkeypatch):
    # a clearance wider than the branch set leaves no detour for any leg
    monkeypatch.setattr(contour, "_LEG_CLEARANCE", 1e3)
    code, out, err = run_cli(capsys, "periods", "-k", "2", "-n", "3", "-l", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: branch continuation failed: base integral i=1: no midpoint")


def _hand_set_matrix():
    """A (3, 2) period matrix with power rows, a -0.0 entry and values
    that need all 17 significant digits."""
    from gfcperiods import PeriodMatrix, enumerate_forms, enumerate_generators

    spec = validate_spec(3, 2, [])
    rows = tuple(enumerate_generators(spec, include_powers=True))
    cols = tuple(enumerate_forms(spec))
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    entries[2:, 0] = np.linspace(-1.0, 1.0, len(rows) - 2) * (0.1 + 1j / 3)
    entries[3, 0] = complex(-0.0, 5.2441151085842401)
    entries[4, 0] = complex(1e-300, -1.7976931348623157e308)
    return PeriodMatrix(
        rows=rows,
        cols=cols,
        values=entries.ravel(),
        index=np.arange(entries.size).reshape(entries.shape),
        base_integrals=np.zeros((2, len(cols)), dtype=complex),
        base_point=0.5 + 2.25j,
        spec=spec,
    )


def _element_json(obj) -> str:
    """Reference JSON rendering, one recursive call per value: the CLI's
    output must match it byte for byte."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_element_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_element_json(v)}" for k, v in obj.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# Curves rendered against the reference: (k, n, lambdas, include_powers).
_RENDER_CURVES = {
    "k4n3": (4, 3, [-1.5], False),
    "k2n4": (2, 4, [-1.5, 2 + 1j], False),
    "genus0": (2, 2, [], False),
    "k3n2_powers": (3, 2, [], True),
    "k5n3_powers": (5, 3, [-1.5], True),
}


@functools.cache
def _render_matrix(case: str):
    if case == "hand_set":
        return _hand_set_matrix()
    k, n, lams, powers = _RENDER_CURVES[case]
    return assemble(validate_spec(k, n, lams), QuadConfig(), include_powers=powers)


@pytest.mark.parametrize(
    "case,fragments",
    [
        pytest.param("hand_set", ["[-0, 5.2441151085842401]", "[[0, 0]]"], id="hand_set"),
        pytest.param("k4n3", [], id="k4n3"),
        pytest.param("k2n4", [], id="k2n4"),
        pytest.param("genus0", ['"forms": []', '"periods": [[], [], [], []]'], id="genus0"),
        pytest.param(
            "k3n2_powers", ['"generators": [{"type": "power", "i": 1}, '], id="k3n2_powers"
        ),
        pytest.param("k5n3_powers", ['"periods": [[[0, 0], [0, 0], '], id="k5n3_powers"),
    ],
)
def test_periods_to_json_matches_element_rendering(case, fragments):
    pm = _render_matrix(case)
    payload = {
        "k": pm.spec.k,
        "n": pm.spec.n,
        "lambdas": [[float(z.real), float(z.imag)] for z in pm.spec.lambdas],
        "genus": genus(pm.spec),
        "forms": [list(f.alpha) for f in pm.cols],
        "generators": [_generator_dict(w) for w in pm.rows],
        "periods": np.stack((pm.entries.real, pm.entries.imag), axis=-1).tolist(),
        "base_point": [float(pm.base_point.real), float(pm.base_point.imag)],
    }
    text = cli.periods_to_json(pm)
    assert text == _element_json(payload) + "\n"
    for fragment in fragments:
        assert fragment in text


@pytest.mark.parametrize(
    "case,fragments",
    [
        pytest.param("hand_set", ["-0,5.2441151085842401"], id="hand_set"),
        pytest.param("k4n3", [], id="k4n3"),
        pytest.param("k2n4", [], id="k2n4"),
        pytest.param("genus0", ["\nconj_comm:j=1;l=2;g=0.0\n"], id="genus0"),
        pytest.param("k3n2_powers", ["\npower:i=1,0,0\n"], id="k3n2_powers"),
        pytest.param("k5n3_powers", ["\npower:i=3,0,0,0,0,"], id="k5n3_powers"),
    ],
)
def test_periods_to_csv_matches_element_rendering(case, fragments):
    pm = _render_matrix(case)
    header = ["generator"]
    for f in pm.cols:
        header.extend(["re_" + cli._form_label(f), "im_" + cli._form_label(f)])
    lines = [",".join(header)]
    for word, row in zip(pm.rows, pm.entries.tolist()):
        cells = [cli._word_label(word)]
        for z in row:
            cells.extend([format(z.real, ".17g"), format(z.imag, ".17g")])
        lines.append(",".join(cells))
    text = cli.periods_to_csv(pm)
    assert text == "\n".join(lines) + "\n"
    for fragment in fragments:
        assert fragment in text


def test_periods_rendering_needs_no_sort(monkeypatch):
    # the period text is gathered from the (phase, pair, form) table, so
    # rendering never sorts the matrix
    pm = assemble(validate_spec(4, 4, [-1.5, 2 + 1j]), QuadConfig())

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called while rendering periods")

    monkeypatch.setattr(np, "unique", refuse)
    text_json, text_csv = cli.periods_to_json(pm), cli.periods_to_csv(pm)
    periods = np.asarray(json.loads(text_json)["periods"], dtype=float).view(complex)
    assert np.array_equal(periods[..., 0], pm.entries)
    cells = [line.split(",")[1:] for line in text_csv.splitlines()[1:]]
    assert np.array_equal(np.asarray(cells, dtype=float).view(complex), pm.entries)


def _hand_set_basis():
    """A 4 x 4 basis with a 1e100 diagonal (|det| overflows), -0.0, a
    17-digit double and repeated values, with negative coefficients."""
    from gfcperiods.lattice import LatticeBasis

    basis = np.diag([1e100, 1e100, 1e100, 1e100])
    basis[0, 1] = -0.0
    basis[0, 2] = basis[1, 2] = 5.2441151085842401
    basis[3, 0] = basis[3, 1] = -1 / 3
    coefficients = np.array(
        [[1, 0, -2, 0], [0, -1, 0, 3], [-5, -5, 1, 1], [0, 0, 0, -1], [2, 0, 0, 0]],
        dtype=np.int64,
    )
    from_generators = np.zeros((4, 5), dtype=np.int64)
    from_generators[[0, 1, 2, 3], [0, 1, 3, 4]] = [1, -1, -1, 1]
    spec = validate_spec(3, 2, [])
    return spec, LatticeBasis(
        basis=basis,
        coefficients=coefficients,
        residual=2.5e-16,
        from_generators=from_generators,
    )


def _element_basis_csv(payload: dict, result) -> str:
    """Reference CSV rendering of a basis, one cell at a time."""
    lines = ["kind,index," + ",".join(f"c{j}" for j in range(len(result.basis)))]
    for idx, row in enumerate(result.basis.tolist()):
        lines.append(f"basis,{idx}," + ",".join(format(x, ".17g") for x in row))
    for idx, row in enumerate(result.coefficients.tolist()):
        lines.append(f"coefficients,{idx}," + ",".join(str(x) for x in row))
    lines.append(f"residual,0,{format(payload['residual'], '.17g')}")
    for key in ("abs_det", "log10_abs_det"):
        value = payload[key]
        lines.append(f"{key},0," + ("" if value is None else format(value, ".17g")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", ["hand_set", "k4n3", "k2n4", "genus0", "k3n2_powers"])
def test_basis_rendering_matches_element_rendering(case):
    if case == "hand_set":
        spec, result = _hand_set_basis()
    else:
        pm = _render_matrix(case)
        spec, result = pm.spec, extract_basis(real_split(pm), pm.spec)
    payload = cli.basis_payload(spec, result)
    reference = dict(
        payload,
        basis=result.basis.tolist(),
        coefficients=result.coefficients.tolist(),
        from_generators=result.from_generators.tolist(),
    )
    text = cli._json_dump(payload)
    assert text == _element_json(reference)
    assert cli.basis_to_csv(payload) == _element_basis_csv(payload, result)
    if case == "hand_set":
        assert "[1e+100, -0, 5.2441151085842401, 0]" in text
        assert '"coefficients": [[1, 0, -2, 0], [0, -1, 0, 3], ' in text
    if case == "genus0":
        assert '"basis": [], "coefficients": [[], [], [], []], "from_generators": []' in text


def test_verify_passes_with_lambda_near_the_leg_to_r1(capsys):
    # lambda lies 1.1e-4 from the straight line between z0 and r_1, so the
    # J leg and the oracle's loop 1 both take the same midpoint detour
    code, out, err = run_cli(
        capsys, "verify", "-k", "4", "-n", "3", "-l", "0.115+0.842i"
    )
    assert "FAIL closed_form_vs_contour" not in err
    assert code == 0


def test_periods_converges_with_a_leg_close_to_a_branch_point(capsys):
    # leg 5 is about 11.5 long and passes 7.1e-4 from r_3: a detour
    code, out, err = run_cli(
        capsys, "periods", "-k", "2", "-n", "5",
        "-l", "0.05056+1.671i", "-l", "0.1256-0.6405i", "-l", "-0.06184-2.823i",
    )
    assert "base integral i=5" not in err
    assert code == 0


def test_periods_converges_with_lambda_next_to_the_target(capsys):
    # lambda = 1.0001 lies within any fixed fraction of the leg length of
    # every path into r_2 = 1; tanh-sinh resolves it without a detour
    code, out, err = run_cli(capsys, "periods", "-k", "3", "-n", "3", "-l", "1.0001")
    assert code == 0, err


def _near_collinear_lambda(rho: float, side: int) -> complex:
    """lambda_2 of the (3, 4) curve with lambda_1 = -3, placed 80% of the
    way from the base point z0 to r_1 = 0 and offset sideways by rho |z0|.
    z0 moves with lambda_2, so the placement is iterated to its fixed point."""
    lam = 0j
    for _ in range(100):
        z0 = contour.default_base_point((0j, 1 + 0j, -3 + 0j, lam))
        lam, prev = 0.2 * z0 + side * rho * 1j * z0, lam
        if lam == prev:
            return lam
    raise AssertionError("lambda placement did not reach a fixed point")


@pytest.mark.parametrize("side", [+1, -1])
@pytest.mark.parametrize("rho", [1e-5, 1e-4, 1e-3, 1e-2])
def test_verify_passes_on_near_collinear_lambda(capsys, rho, side):
    lam = _near_collinear_lambda(rho, side)
    R = (0j, 1 + 0j, -3 + 0j, lam)
    # the family straddles the clearance: the closer members detour
    legs = contour.clear_leg(contour.default_base_point(R), 0j, R, exclude={0})
    assert len(legs) == (2 if rho < 1e-3 else 1)
    code, out, err = run_cli(
        capsys, "verify", "-k", "3", "-n", "4", "-l", "-3",
        "-l", f"{lam.real!r},{lam.imag!r}",
    )
    assert code == 0, err


@pytest.mark.xfail(
    raises=AssertionError,
    reason=(
        "ROADMAP item 1, adaptive panels: the oracle's loop runs out of "
        "Gauss-Legendre panels at 8192 and verify exits 3"
    ),
)
@pytest.mark.parametrize("k,lam", [(2, "1e6"), (3, "1.0001")])
def test_verify_passes_with_extreme_lambda(capsys, k, lam):
    code, out, err = run_cli(capsys, "verify", "-k", str(k), "-n", "3", "-l", lam)
    assert code == 0, err
