import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gfcperiods
import gfcperiods.cli as cli
from gfcperiods import (
    assemble,
    contour,
    enumerate_forms,
    extract_basis,
    genus,
    quad,
    real_split,
    validate_spec,
)
from gfcperiods.errors import NotFullRank, StepTooCoarse
from gfcperiods.homology import ConjComm, enumerate_generators
from gfcperiods.periods import PeriodMatrix
from gfcperiods.quad import QuadConfig


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _generator_dict(word) -> dict:
    """A generator as its JSON object in the period document."""
    return {"type": "conj_comm", "g": list(word.g), "j": word.j, "l": word.l}


def _word_label(word) -> str:
    """A generator as its label in the period table."""
    gs = ".".join(str(v) for v in word.g)
    return f"conj_comm:j={word.j};l={word.l};g={gs}"


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
        ("1i", 1j),
        ("-1e-6", -1e-6 + 0j),
        ("2,1", 2 + 1j),
        ("inf", complex(float("inf"), 0.0)),
        ("-inf", complex(float("-inf"), 0.0)),
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


@pytest.mark.parametrize(
    "k,n,lams", [(4, 2, []), (2, 4, ["-1.5", "2+1i"]), (3, 3, ["-1.5"])]
)
def test_info_matches_element_rendering(capsys, k, n, lams):
    argv = ["info", "-k", str(k), "-n", str(n), *(f"--lambda={lam}" for lam in lams)]
    _, out_json, _ = run_cli(capsys, *argv)
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = cli.info_payload(validate_spec(k, n, [cli.parse_complex(x) for x in lams]))
    assert out_json == _element_json(payload) + "\n"
    cells = [_element_json(value) for value in payload.values()]
    cells = [f'"{c}"' if "," in c else c for c in cells]
    assert out_csv == "".join(f"{key},{c}\n" for key, c in zip(payload, cells))


def _refuse_words(monkeypatch):
    """Make listing or building any generator word raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a generator word was built")

    monkeypatch.setattr(gfcperiods.homology, "enumerate_generators", refuse)
    monkeypatch.setattr(ConjComm, "__init__", refuse)


def test_info_counts_generators_without_words(capsys, monkeypatch):
    # C(6, 2) * 7**6 = 1,764,735 words, counted, not listed
    _refuse_words(monkeypatch)
    argv = ["info", "-k", "7", "-n", "6", "-l", "2", "-l", "3", "-l", "4", "-l", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["num_generators"] == 1_764_735


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
    "lam,shown",
    [
        ("nan", "(nan+0j)"),
        ("1,nan", "(1+nanj)"),
        ("1e400", "(inf+0j)"),
        ("inf", "(inf+0j)"),
        ("-inf", "(-inf+0j)"),
    ],
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
    assert raw["forms"] == [list(f.alpha) for f in enumerate_forms(pm.spec)]
    assert raw["generators"] == [_generator_dict(w) for w in enumerate_generators(pm.spec)]
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
    assert [f.alpha for f in enumerate_forms(pm.spec)] == [(0, 1, 1)]
    assert header == "generator,re_0.1.1,im_0.1.1"
    cells = [line.split(",") for line in lines]
    assert [row[0] for row in cells] == [_word_label(w) for w in enumerate_generators(pm.spec)]
    entries = np.asarray([row[1:] for row in cells], dtype=float).view(complex)
    assert np.array_equal(entries, pm.entries)


def test_periods_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "periods", "-k", "4", "-n", "2", "--out", str(a))
    run_cli(capsys, "periods", "-k", "4", "-n", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_periods_no_convergence_exits_3(capsys):
    # n >= 3: the legs are integrated under the level cap
    code, out, err = run_cli(
        capsys,
        "periods", "-k", "3", "-n", "3", "-l", "2", "--max-level", "4",
    )
    assert code == 3
    assert "alpha" in err and "i=" in err


@pytest.mark.parametrize("command", ["periods", "basis"])
def test_rank_two_ignores_the_quadrature_flags(capsys, command):
    # n = 2 takes its periods from the Beta closed form: a level cap that
    # stops every leg, or any tolerance, changes no byte
    _, default, _ = run_cli(capsys, command, "-k", "3", "-n", "2")
    for flags in (["--max-level", "4"], ["--tol", "1e-3"]):
        code, out, err = run_cli(capsys, command, "-k", "3", "-n", "2", *flags)
        assert (code, out, err) == (0, default, "")


def test_rank_two_periods_and_basis_integrate_no_leg(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a leg was integrated")

    monkeypatch.setattr(quad, "leg_rows", refused)
    for command in ("periods", "basis"):
        code, out, err = run_cli(capsys, command, "-k", "17", "-n", "2")
        assert (code, err) == (0, ""), command
        assert json.loads(out)["genus"] == 120


@pytest.mark.parametrize("k", [3, 7])
def test_rank_two_verify_checks_the_closed_form_against_the_legs(capsys, monkeypatch, k):
    # verify still integrates the legs, for the Beta magnitudes and the
    # scales, and passes every check under the same names and tolerances
    calls = []
    leg_rows = quad.leg_rows

    def counted(*args, **kwargs):
        calls.append(args[1])
        return leg_rows(*args, **kwargs)

    monkeypatch.setattr(quad, "leg_rows", counted)
    code, out, err = run_cli(capsys, "verify", "-k", str(k), "-n", "2")
    assert code == 0, err
    assert [list(legs) for legs in calls] == [[1, 2]]
    checks = [(c["name"], c["tolerance"], c["passed"]) for c in json.loads(out)["checks"]]
    assert checks == [
        ("power_word_vanishing", 1e-8, True),
        ("closed_form_vs_contour", 1.0, True),
        ("conjugation_covariance", 1e-8, True),
        ("beta_magnitude", 1e-9, True),
        ("lattice_double_inclusion", 1e-10, True),
    ]


@pytest.mark.parametrize(
    "flag,field",
    [
        ("--level=-2000", "level"),
        ("--level=40", "level"),
        ("--max-level=3", "max_level"),
        ("--max-level=19", "max_level"),
    ],
)
def test_out_of_range_level_exits_2(capsys, monkeypatch, flag, field):
    # refused before any node table exists: every refinement starts at
    # level 4, so the parser knows no start level, and a cap outside 4..18
    # is refused when the configuration is built
    def no_nodes(level):
        raise AssertionError(f"node table of level {level} built")

    monkeypatch.setattr(quad, "_de_nodes", no_nodes)
    try:
        code = cli.main(["periods", "-k", "3", "-n", "2", flag])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    if field == "level":
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")
    else:
        value = flag.split("=")[1]
        assert err == f"error: max_level must lie in 4..18, got {value}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "target",
    [
        "missing/x",
        ".",
        pytest.param(
            "/dev/full",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
)
def test_unwritable_out_exits_2(capsys, tmp_path, target):
    # a path under a missing directory, and a directory, where the open
    # fails; and /dev/full, which opens and fails at the write
    out = tmp_path / target
    code, stdout, err = run_cli(capsys, "info", "-k", "2", "-n", "2", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write --out {out}: ")
    assert "Traceback" not in err


def test_closed_stdout_pipe_exits_2():
    # a stdout whose reader has gone fails like an --out that cannot be
    # written: one error line, and nothing more at the interpreter's exit
    argv = ["periods", "-k", "3", "-n", "3", "-l", "-1.5"]
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "gfcperiods.cli", *argv],
            env=_child_env(),
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    assert run.returncode == 2
    assert run.stderr.startswith("error: cannot write stdout: ")
    assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")


def test_default_flags_give_the_default_quad_config():
    # absent flags take QuadConfig's own defaults, so the parser needs no quad
    args = cli.build_parser().parse_args(["periods", "-k", "3", "-n", "2"])
    assert cli._quad_config(args) == QuadConfig()


@pytest.fixture
def unbuilt_parser(monkeypatch):
    """main with no parser built yet in this process; calls to build_parser
    are counted in the returned list."""
    built, build = [], cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    return built


def test_main_builds_its_parser_once(capsys, unbuilt_parser):
    for curve in (("-k", "3", "-n", "2"), _CURVE_33, ("-k", "4", "-n", "2")):
        assert run_cli(capsys, "info", *curve)[0] == 0
    assert len(unbuilt_parser) == 1
    # callers of build_parser still get a parser of their own
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_shares_no_lambda_list(capsys, unbuilt_parser):
    assert run_cli(capsys, "periods", *_CURVE_33)[0] == 0
    code, out, _ = run_cli(capsys, "info", "-k", "3", "-n", "2")
    assert code == 0
    assert '"lambdas": []' in out


def test_refused_call_leaves_the_reused_parser_as_it_was(capsys, monkeypatch, unbuilt_parser):
    valid = ("periods", *_CURVE_33, "--format", "csv")
    first = run_cli(capsys, *valid)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    with pytest.raises(SystemExit) as exc:
        cli.main(["periods", "-k", "3", "-n", "2", "--level", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --level 5" in capsys.readouterr().err
    assert run_cli(capsys, *valid) == first
    assert first[0] == 0


def test_command_replaced_after_the_first_call_runs(capsys, monkeypatch):
    assert run_cli(capsys, "info", "-k", "3", "-n", "2")[0] == 0
    ran = []

    def replaced(args):
        ran.append((args.k, args.n))
        return 0

    monkeypatch.setattr(cli, "cmd_info", replaced)
    assert run_cli(capsys, "info", "-k", "4", "-n", "2") == (0, "", "")
    assert ran == [(4, 2)]


@pytest.mark.parametrize("command", ["info", "periods", "basis", "verify"])
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gfcperiods {command} ")


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

    pm, result = _hand_set_basis()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = cli.basis_payload(pm, result)
        parsed = json.loads(cli.basis_to_json(payload))
        lines = cli.basis_to_csv(payload).splitlines()
    assert parsed["abs_det"] is None
    assert abs(parsed["log10_abs_det"] - 600.0) < 1e-12
    assert "abs_det,0," in lines
    (log10,) = [line for line in lines if line.startswith("log10_abs_det,0,")]
    assert float(log10.split(",")[2]) == parsed["log10_abs_det"]


@pytest.mark.parametrize("case", ["k3n2", "k4n3", "k2n4"])
def test_abs_det_is_the_det_of_the_basis_bit_for_bit(case):
    # abs_det is math.exp of the log_abs_det that log10_abs_det comes from,
    # which on slogdet's log gives numpy's det bit for bit; the other bases
    # have random entries of scale 0.1 to 10, |det| in range
    pm = _render_matrix(case)
    result = extract_basis(pm, pm.spec)
    rng = np.random.default_rng(len(result.basis))
    bases = [result.basis] + [
        rng.standard_normal((size, size)) * scale
        for size in (1, 2, 7, 64, 150)
        for scale in (0.1, 1.0, 10.0)
    ]
    for basis in bases:
        log_abs_det = float(np.linalg.slogdet(basis)[1])
        swapped = dataclasses.replace(result, basis=basis, log_abs_det=log_abs_det)
        payload = cli.basis_payload(pm, swapped)
        assert 0 < payload["abs_det"] < math.inf
        assert payload["abs_det"].hex() == math.exp(log_abs_det).hex()
        assert payload["log10_abs_det"].hex() == (log_abs_det / math.log(10)).hex()
        assert payload["abs_det"].hex() == abs(float(np.linalg.det(basis))).hex()


@pytest.mark.parametrize("command", ["info", "periods", "basis"])
def test_seed_is_an_option_of_verify_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-k", "3", "-n", "2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["verify", "-k", "3", "-n", "2", "--seed", "5"])
    assert args.seed == 5


def test_basis_and_verify_never_build_the_selection_matrix(capsys, monkeypatch):
    import gfcperiods.lattice as lattice
    import gfcperiods.oracle as oracle

    extract, results = lattice.extract_basis, []

    def recorded(*args):
        results.append(extract(*args))
        return results[-1]

    monkeypatch.setattr(lattice, "extract_basis", recorded)
    monkeypatch.setattr(oracle, "extract_basis", recorded)
    assert cli.main(["basis", "-k", "4", "-n", "2"]) == 0
    capsys.readouterr()
    oracle.crosscheck_report(validate_spec(3, 2, []), QuadConfig())
    assert len(results) == 2
    assert not any("from_generators" in vars(result) for result in results)
    # on first access it is the 0/1 int64 selection of the kept generators
    result = results[0]
    selection = result.from_generators
    assert selection.dtype == np.int64
    assert np.array_equal(selection, np.eye(len(result.coefficients), dtype=np.int64)[result.kept])
    assert selection is result.from_generators


@pytest.mark.parametrize(
    "argv",
    [
        # the power words are null in homology and take no rows
        *([command, "--include-powers"] for command in ("info", "periods", "basis", "verify")),
        ["verify", "--format", "csv"],
        ["verify", "--format", "json"],
        ["info", "--tol", "5"],
        ["info", "--level", "3"],
        ["info", "--max-level", "2"],
        ["info", "--tol", "5", "--level", "3", "--max-level", "2"],
        # every refinement starts at tanh-sinh level 4
        *([command, "--level", "4"] for command in ("periods", "basis", "verify")),
    ],
    ids=lambda argv: "_".join(a.strip("-") for a in argv),
)
def test_subcommand_refuses_an_option_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "-k", "3", "-n", "2", *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def _child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(gfcperiods.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_main(*argv) -> str:
    return f"import gfcperiods.cli\nassert gfcperiods.cli.main({list(argv)!r}) == 0"


_NUMERIC = tuple(f"gfcperiods.{m}" for m in ("contour", "quad", "periods", "lattice", "oracle"))


@pytest.mark.parametrize(
    "code,unloaded",
    [
        pytest.param(
            "import gfcperiods",
            ("gfcperiods.cli", "gfcperiods.curve", "gfcperiods.errors", "gfcperiods.homology")
            + ("numpy", *_NUMERIC),
            id="package",
        ),
        pytest.param(
            "import gfcperiods.cli", ("gfcperiods.homology", "numpy", *_NUMERIC), id="import"
        ),
        pytest.param(
            _run_main("info", "-k", "3", "-n", "2"),
            ("gfcperiods.homology", "numpy", *_NUMERIC),
            id="info",
        ),
        pytest.param(
            _run_main("periods", "-k", "3", "-n", "2"),
            ("gfcperiods.lattice", "gfcperiods.oracle"),
            id="periods_json",
        ),
        pytest.param(
            _run_main("periods", "-k", "2", "-n", "3", "-l", "2", "--format", "csv"),
            ("gfcperiods.lattice", "gfcperiods.oracle"),
            id="periods_csv",
        ),
        pytest.param(_run_main("basis", "-k", "3", "-n", "2"), ("gfcperiods.oracle",), id="basis"),
        pytest.param(_run_main("verify", "-k", "3", "-n", "3", "-l", "-1.5"), (), id="verify"),
    ],
)
def test_cli_leaves_unused_modules_unloaded(code, unloaded):
    # each subcommand imports only what it runs; scipy is a test dependency,
    # and numpy.ma (about 1.4 MB) loads with a bare np.unique
    check = (
        "import sys\n"
        f"loaded = sorted({{'scipy', 'numpy.ma', *{unloaded!r}}} & set(sys.modules))"
    )
    code = f"{code}\n{check}\nassert not loaded, loaded"
    run = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_periods_stdout_does_not_depend_on_blas_threads():
    # the split kernel sums over nodes in a fixed order, not in a BLAS
    # product: (4,4) and (20,2), (40,2) split, and (4,3) here takes a detour;
    # verify (3,4) and (5,3) take every loop piece through the batched kernel,
    # and the lattice residual that verify (4,4) prints is summed in a fixed
    # order too; basis takes |det| in closed form, as a log sum over the
    # kept-set search's lengths, with no determinant on any n
    for argv in (
        ["basis", "-k", "17", "-n", "2"],
        ["basis", "-k", "40", "-n", "2"],
        ["basis", "-k", "4", "-n", "4", "-l", "-1.5", "-l", "2+1i"],
        ["basis", "-k", "5", "-n", "4", "-l", "-1.5", "-l", "2+1i"],
        ["periods", "-k", "4", "-n", "4", "-l", "-1.5", "-l", "2+1i"],
        ["periods", "-k", "20", "-n", "2"],
        ["periods", "-k", "40", "-n", "2"],
        ["periods", "-k", "4", "-n", "3", "-l", "0.115+0.842i"],
        ["verify", "-k", "3", "-n", "4", "-l", "-1.5", "-l", "2+1i"],
        ["verify", "-k", "5", "-n", "3", "-l", "-1.5"],
        ["verify", "-k", "4", "-n", "4", "-l", "-1.5", "-l", "2+1i"],
    ):
        code = f"import sys, gfcperiods.cli; sys.exit(gfcperiods.cli.main({argv!r}))"
        digests = set()
        for threads in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=_child_env(OPENBLAS_NUM_THREADS=threads),
                check=True,
                capture_output=True,
            ).stdout
            digests.add(hashlib.sha256(out).hexdigest())
        assert len(digests) == 1, argv


def test_rank_two_basis_runs_no_lu_factorisation(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an LU factorisation ran")

    for name in ("solve", "slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, refused)
    code, out, _ = run_cli(capsys, "basis", "-k", "17", "-n", "2")
    assert code == 0
    assert json.loads(out)["abs_det"] > 0


@pytest.mark.parametrize(
    "argv", [["-k", "3", "-n", "3", "-l", "-1.5"], ["-k", "4", "-n", "4", "-l", "-1.5", "-l", "2+1i"]]
)
def test_basis_takes_no_determinant(capsys, monkeypatch, argv):
    # |det W_chi| of characters of multiplicity 2 is the product of the
    # lengths the kept-set search keeps their rows at: no determinant runs
    def refused(*args, **kwargs):
        raise AssertionError("a determinant ran")

    for name in ("slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, refused)
    code, out, err = run_cli(capsys, "basis", *argv)
    assert code == 0, err
    assert json.loads(out)["log10_abs_det"] > 0


@pytest.mark.parametrize("k,n,lams", [(3, 3, [-1.5]), (2, 4, [-1.5, 2 + 1j])])
def test_basis_payload_runs_no_linear_algebra(monkeypatch, k, n, lams):
    # |det| comes from extract_basis's closed form, on every n
    spec = validate_spec(k, n, lams)
    pm = assemble(spec, QuadConfig())
    result = extract_basis(pm, spec)
    assert math.isfinite(result.log_abs_det)

    def refused(*args, **kwargs):
        raise AssertionError("basis_payload ran linear algebra")

    for name in ("solve", "slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, refused)
    payload = cli.basis_payload(pm, result)
    assert payload["log10_abs_det"] == result.log_abs_det / math.log(10) > 0
    assert payload["abs_det"] == math.exp(result.log_abs_det)


@pytest.mark.parametrize(
    "target,stage",
    [
        ("gfcperiods.periods.assemble", "assembling the periods"),
        ("gfcperiods.lattice.extract_basis", "extracting the basis"),
    ],
)
def test_out_of_memory_exits_5_naming_the_stage(capsys, monkeypatch, target, stage):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    code, out, err = run_cli(capsys, "basis", "-k", "3", "-n", "2")
    assert (code, out, err) == (5, "", f"error: out of memory while {stage}\n")


class _SevenBytesPerWrite(io.RawIOBase):
    """A raw stream that takes at most 7 bytes per write, as the kernel
    takes at most 0x7FFFF000 bytes per write to a pipe."""

    def __init__(self):
        self.received = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.received += bytes(data[:7])
        return min(len(data), 7)


def test_emit_writes_every_byte_through_short_writes(monkeypatch):
    # unbuffered, sys.stdout is text over a raw stream, and one write of
    # the text would hand over 7 bytes and drop the rest
    raw = _SevenBytesPerWrite()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    text = cli.periods_to_json(_render_matrix("k3n2"))
    cli._emit(text, None)
    assert raw.received == text.encode()


def test_emit_to_a_stdout_with_no_buffer_is_one_write(monkeypatch):
    # an io.StringIO stdout, as in-process callers have it, takes the whole
    # text in one write, whatever the block size
    class CountingStringIO(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    stdout = CountingStringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 7)
    text = cli.periods_to_json(_render_matrix("k3n2"))
    cli._emit(text, None)
    assert (stdout.writes, stdout.getvalue()) == (1, text)


def test_emit_to_a_file_encodes_one_block_at_a_time(monkeypatch, tmp_path):
    # --out takes stdout's path: a 20 MiB text costs about a block of
    # encoded bytes, where one text-mode write encodes all of it
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 2**20)
    text = "0123456789abcdef" * (20 * 2**16)
    out = tmp_path / "document"
    tracemalloc.start()
    try:
        cli._emit(text, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert out.read_bytes() == text.encode()


def test_basis_json_is_one_join_of_its_members():
    # the closing newline goes into the document's one join: the members
    # and the document are the peak, with no third copy for the newline
    spec = validate_spec(17, 2, [])
    pm = assemble(spec, QuadConfig())
    payload = cli.basis_payload(pm, extract_basis(pm, spec))
    tracemalloc.start()
    try:
        text = cli.basis_to_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith("}\n")
    assert peak < 2.5 * len(text)


_CURVE_33 = ("-k", "3", "-n", "3", "-l", "-1.5")


@pytest.mark.parametrize(
    "argv",
    [
        ("info", *_CURVE_33),
        ("info", *_CURVE_33, "--format", "csv"),
        ("periods", *_CURVE_33),
        ("periods", *_CURVE_33, "--format", "csv"),
        ("basis", *_CURVE_33),
        ("basis", *_CURVE_33, "--format", "csv"),
        ("verify", *_CURVE_33),
    ],
)
def test_out_file_holds_the_stdout_bytes(capsys, monkeypatch, tmp_path, argv):
    # both destinations go through one writer; blocks of 7 characters make
    # every document many blocks long
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 7)
    code, out, err = run_cli(capsys, *argv)
    path = tmp_path / "document"
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert code == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("command", ["basis", "verify"])
@pytest.mark.parametrize(
    "curve",
    [("-k", "4", "-n", "2"), _CURVE_33, ("-k", "2", "-n", "4", "-l", "2", "-l", "2+1i")],
    ids=["4-2", "3-3", "2-4"],
)
def test_basis_and_verify_never_gather_the_period_matrix(capsys, monkeypatch, command, curve):
    # the lattice step and the oracle read the value table by its index and
    # hold no gathered copy of the matrix
    expected = run_cli(capsys, command, *curve)

    def refused(self):
        raise AssertionError("PeriodMatrix.entries was gathered")

    monkeypatch.setattr(PeriodMatrix, "entries", property(refused))
    assert run_cli(capsys, command, *curve) == expected
    assert expected[0] == 0


def test_basis_failure_exits_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NotFullRank("forced by test")

    monkeypatch.setattr("gfcperiods.lattice.extract_basis", boom)
    code, _, err = run_cli(capsys, "basis", "-k", "3", "-n", "2")
    assert code == 4
    assert "forced by test" in err


def test_basis_with_a_nan_period_exits_4(capsys, monkeypatch):
    def with_nan(spec, cfg):
        pm = assemble(spec, cfg)
        values = pm.values.copy()
        values[pm.index[-1, -1]] = np.nan
        return dataclasses.replace(pm, values=values)

    monkeypatch.setattr("gfcperiods.periods.assemble", with_nan)
    code, out, err = run_cli(capsys, "basis", "-k", "3", "-n", "3", "-l", "-1.5")
    assert code == 4
    assert out == ""
    assert "non-finite period" in err


def test_verify_passes_and_exits_0(capsys):
    code, out, err = run_cli(capsys, "verify", "-k", "3", "-n", "2", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seed"] == 5
    assert all(c["passed"] for c in payload["checks"])
    assert "pass" in err


def test_verify_genus_zero_passes(capsys):
    # no forms: every loop integrates an empty row
    code, out, err = run_cli(capsys, "verify", "-k", "2", "-n", "2")
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_verify_passes_at_k_40(capsys):
    # the strongest exponent is -39/40, so the integral beyond the last
    # tanh-sinh node is about 1e-7 of a base integral and must be counted
    code, out, err = run_cli(capsys, "verify", "-k", "40", "-n", "2")
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_verify_reports_failure_exit(capsys, monkeypatch):
    import gfcperiods.oracle as oracle_mod

    real = oracle_mod.crosscheck_report

    def rigged(spec, cfg, seed=0):
        report = real(spec, cfg, seed=seed)
        failed = oracle_mod.CheckResult(name="forced_failure", max_deviation=1.0, tolerance=0.0)
        return oracle_mod.CrosscheckReport(
            k=report.k,
            n=report.n,
            lambdas=report.lambdas,
            sample=report.sample,
            seed=report.seed,
            checks=report.checks + (failed,),
        )

    monkeypatch.setattr(oracle_mod, "crosscheck_report", rigged)
    code, out, err = run_cli(capsys, "verify", "-k", "3", "-n", "2")
    assert code == 1
    assert "FAIL forced_failure" in err
    assert json.loads(out)["checks"][-1]["passed"] is False
    # a check passes when its deviation is within its tolerance, so NaN fails
    assert not oracle_mod.CheckResult(name="nan", max_deviation=math.nan, tolerance=1.0).passed


def test_float_formatting_round_trips():
    for x in [math.pi, -1.5e-13, 0.1, 3.0, 5.2441151085842401]:
        assert float(cli._fmt(x)) == x


def test_word_label_round_trip():
    # the word's row: pair (1, 3) is the second of (1,2), (1,3), (2,3), and
    # g = (0, 2, 1) is 0*9 + 2*3 + 1 in the lex order of Z_3**3
    word = ConjComm(g=(0, 2, 1), j=1, l=3)
    labels = cli._generator_labels(3, 3)
    assert labels[27 + 7] == _word_label(word) == "conj_comm:j=1;l=3;g=0.2.1"


def test_periods_step_too_coarse_names_the_leg(capsys, monkeypatch):
    # a leg whose continuation fails names its base integral.  Each leg takes
    # its differences from the nearer end, so no valid curve now runs a leg
    # through a branch point (-l 1e20 used to, on the leg to r_1 = 0): the
    # failure is forced on that leg, named by its position among the lines
    # of the call as the line rule names it
    line_logs = contour._line_logs

    def through_r1(lines, *args):
        ends = [line.end for line in lines]
        if 0 in ends:
            raise StepTooCoarse(
                "continuation point coincides with a branch point", piece=ends.index(0)
            )
        return line_logs(lines, *args)

    monkeypatch.setattr(contour, "_line_logs", through_r1)
    code, out, err = run_cli(capsys, "periods", "-k", "2", "-n", "3", "-l", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: branch continuation failed: base integral i=1: ")
    # the node logs serve every form of the leg, so no form is named
    assert "alpha" not in err


_NO_CONVERGENCE = "error: quadrature did not converge: "

# leg 1 of this curve clears a branch point by a midpoint detour, whose
# prefix segments are chained and integrated apart from the final piece
_DETOUR = ("periods", "-k", "4", "-n", "3", "-l", "0.115+0.842i")


def test_detour_prefix_out_of_panels_names_the_leg_and_form(capsys, monkeypatch):
    monkeypatch.setattr(quad, "_GL_MAX_PANELS", 4)
    code, out, err = run_cli(capsys, *_DETOUR)
    assert (code, out, err) == (
        3,
        "",
        f"{_NO_CONVERGENCE}base integral i=1, alpha=(0, 0, 2): "
        "did not reach rel_tol=1e-10 by Gauss-Legendre panels 4\n",
    )


def test_detour_prefix_continuation_failure_names_the_leg(capsys, monkeypatch):
    # forced where the prefix's start logs are chained: one parameter, t = 1
    line_logs = contour._line_logs

    def chained(lines, tau, *args):
        if tau.tolist() == [1.0]:
            raise StepTooCoarse("continuation point coincides with a branch point", piece=0)
        return line_logs(lines, tau, *args)

    monkeypatch.setattr(contour, "_line_logs", chained)
    code, out, err = run_cli(capsys, *_DETOUR)
    assert (code, out, err) == (
        3,
        "",
        "error: branch continuation failed: base integral i=1: "
        "continuation point coincides with a branch point\n",
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        # the route in of loop 1 runs out of panels
        (
            ("verify", "-k", "2", "-n", "3", "-l", "1e6"),
            "loop i=1, route in, alpha=(0, 1, 1): "
            "did not reach rel_tol=1e-10 by Gauss-Legendre panels 8192",
        ),
        # the cap leaves the first pass one level, in verify; periods on
        # n = 2 integrates no leg
        (
            ("verify", "-k", "3", "-n", "2", "--max-level", "4"),
            "base integral i=1, alpha=(0, 2): did not reach rel_tol=1e-10 by tanh-sinh level 4",
        ),
        (
            ("verify", "-k", "3", "-n", "3", "-l", "2", "--max-level", "4"),
            "base integral i=1, alpha=(0, 0, 2): did not reach rel_tol=1e-10 by tanh-sinh level 4",
        ),
    ],
)
def test_no_convergence_names_the_piece_form_and_last_step(capsys, argv, message):
    # on a Gauss-Legendre piece or a tanh-sinh leg, the error line names
    # the piece, form and last step
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"{_NO_CONVERGENCE}{message}\n")


@pytest.mark.parametrize("nodes", ["chained", "panel"])
def test_verify_step_too_coarse_names_the_circle(capsys, monkeypatch, nodes):
    # a continuation failure on the circle around r_2, forced where the
    # circles' start logs are chained (one parameter per arc) or at the
    # Gauss-Legendre nodes, names loop 2 and its circle
    arc_logs = contour._arc_logs

    def through_r2(arcs, ts, *args):
        centers = [arc.center for arc in arcs]
        if 1 in centers and (len(ts) == 1) == (nodes == "chained"):
            raise StepTooCoarse(
                "continuation point coincides with a branch point", piece=centers.index(1)
            )
        return arc_logs(arcs, ts, *args)

    monkeypatch.setattr(contour, "_arc_logs", through_r2)
    code, out, err = run_cli(capsys, "verify", "-k", "3", "-n", "3", "-l", "-1.5")
    assert (code, out) == (3, "")
    assert err == (
        "error: branch continuation failed: loop i=2, circle: "
        "continuation point coincides with a branch point\n"
    )


@pytest.mark.parametrize("lam", ["1e10", "1e-9", "1e-12i"])
def test_periods_with_a_close_or_far_branch_point_exits_0(capsys, lam):
    # differences from the nearer end of each leg: these ran out of tanh-sinh
    # levels when they were taken from the start
    code, out, err = run_cli(capsys, "periods", "-k", "3", "-n", "3", "-l", lam)
    assert code == 0, err
    assert json.loads(out)["periods"]


def test_basis_with_lambda_1e20_matches_the_agm_lattice(capsys):
    # with the base point about 2e20 away, the leg to r_2 = 1 passes r_1 = 0
    # closer than one ulp of its start; the clearance test measures that
    # distance from the nearer end, so the route clears r_1 and the basis
    # is the i-rotated AGM lattice of the curve
    code, out, err = run_cli(capsys, "basis", "-k", "2", "-n", "3", "-l", "1e20")
    assert code == 0, err
    basis = np.asarray(json.loads(out)["basis"])
    w1, w2 = gfcperiods.agm_elliptic_periods(1e20)
    rot = np.asarray([[(1j * w).real, (1j * w).imag] for w in (w1, w2)])
    same, worst = gfcperiods.oracle._mutual_integer_expressible(basis, rot, 1e-6)
    assert same and worst < 1e-13, worst


def _run_child(argv):
    code = f"import sys, gfcperiods.cli\nsys.exit(gfcperiods.cli.main({argv!r}))"
    return subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True
    )


@pytest.mark.parametrize("lam", ["1e160", "1e200"])
def test_periods_with_huge_lambda_exits_0(lam):
    # the leg clearance test must not square a leg length, which overflows
    # past |lambda| ~ 1.3e154; the periods shrink like |lambda|**-1/2
    run = _run_child(["periods", "-k", "2", "-n", "3", "-l", lam])
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    periods = np.asarray(json.loads(run.stdout)["periods"])
    assert np.all(np.isfinite(periods)) and np.all(periods != 0)


_UNDERFLOW = "error: quadrature underflowed: base integral i=1, alpha=(0, 1, 1) is exactly 0"
_ROUTE_IN = "error: quadrature did not converge: loop i=1, route in, alpha=(0, 1, 1): "
_NOT_FINITE = (
    "error: quadrature did not converge: base integral i=1, alpha={}: "
    "value is not finite at tanh-sinh level 4"
)


@pytest.mark.parametrize(
    "command,k,n,lam,message",
    [
        # J underflows to exactly 0: refused before any lattice or oracle
        # step divides by it
        *(
            pytest.param(command, 2, 3, lam, _UNDERFLOW, id=f"{lam}-{command}")
            for lam in ("-1e300", "1e300+1e300i")
            for command in ("periods", "basis", "verify")
        ),
        # the periods exist, but uniform Gauss-Legendre panels run out on the
        # oracle's route in to r_1 (ROADMAP direction 1, a graded mesh)
        *(
            pytest.param("verify", 2, 3, lam, _ROUTE_IN, id=f"{lam}-verify")
            for lam in ("1e160", "1e200")
        ),
        # a kernel term overflows at the first level: refused there, with
        # no numpy warning before the error line
        *(
            pytest.param(
                command, 7, 3, "1e200", _NOT_FINITE.format((10, 6, 6)), id=f"k7-{command}"
            )
            for command in ("periods", "basis", "verify")
        ),
        pytest.param(
            "periods", 5, 3, "1e230", _NOT_FINITE.format((6, 4, 4)), id="k5-periods"
        ),
    ],
)
def test_huge_lambda_exits_3_with_one_error_line(command, k, n, lam, message):
    run = _run_child([command, "-k", str(k), "-n", str(n), "-l", lam])
    assert run.returncode == 3, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    (line,) = run.stderr.splitlines()
    assert line.startswith(message)


@pytest.mark.parametrize("command", ["periods", "basis", "verify"])
def test_underflow_exits_3_in_process(capsys, command):
    # the same refusal through an in-process main: periods.base_integrals
    # raises IntegralUnderflow and main turns it into exactly one line
    code, out, err = run_cli(capsys, command, "-k", "2", "-n", "3", "-l", "1e300")
    assert code == 3
    assert out == ""
    assert err == _UNDERFLOW + "\n"


def test_periods_routing_failure_names_the_leg(capsys, monkeypatch):
    # a clearance wider than the branch set leaves no detour for any leg
    monkeypatch.setattr(contour, "_LEG_CLEARANCE", 1e3)
    code, out, err = run_cli(capsys, "periods", "-k", "2", "-n", "3", "-l", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: branch continuation failed: base integral i=1: no midpoint")


def _hand_set_matrix():
    """A (3, 2) period matrix with a zero row, a -0.0 entry, values that
    need all 17 significant digits and one at the edge of the double range."""
    spec = validate_spec(3, 2, [])
    forms = enumerate_forms(spec)
    entries = np.zeros((3**2, len(forms)), dtype=complex)
    entries[:, 0] = np.linspace(-1.0, 1.0, len(entries)) * (0.1 + 1j / 3)
    entries[1, 0] = complex(-0.0, 5.2441151085842401)
    entries[2, 0] = complex(1e-300, -1.7976931348623157e308)
    return PeriodMatrix(
        m_exponents=np.asarray([f.m_exponents for f in forms], dtype=np.int64),
        values=entries.ravel(),
        index=np.arange(entries.size).reshape(entries.shape),
        base_integrals=np.zeros((2, len(forms)), dtype=complex),
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


# Curves rendered against the reference: (k, n, lambdas).
_RENDER_CURVES = {
    "k4n3": (4, 3, [-1.5]),
    "k2n4": (2, 4, [-1.5, 2 + 1j]),
    "genus0": (2, 2, []),
    "k3n2": (3, 2, []),
    "k5n3": (5, 3, [-1.5]),
}


@functools.cache
def _render_matrix(case: str):
    if case == "hand_set":
        return _hand_set_matrix()
    k, n, lams = _RENDER_CURVES[case]
    return assemble(validate_spec(k, n, lams), QuadConfig())


@pytest.mark.parametrize(
    "case,fragments",
    [
        pytest.param("hand_set", ["[-0, 5.2441151085842401]", "[[0, 0]]"], id="hand_set"),
        pytest.param("k4n3", [], id="k4n3"),
        pytest.param("k2n4", [], id="k2n4"),
        pytest.param("genus0", ['"forms": []', '"periods": [[], [], [], []]'], id="genus0"),
        pytest.param("k3n2", ["]], [[", '"generators": [{"type": "conj_comm", '], id="k3n2"),
        pytest.param("k5n3", [], id="k5n3"),
    ],
)
def test_periods_to_json_matches_element_rendering(case, fragments):
    pm = _render_matrix(case)
    payload = {
        "k": pm.spec.k,
        "n": pm.spec.n,
        "lambdas": [[float(z.real), float(z.imag)] for z in pm.spec.lambdas],
        "genus": genus(pm.spec),
        "forms": [list(f.alpha) for f in enumerate_forms(pm.spec)],
        "generators": [_generator_dict(w) for w in enumerate_generators(pm.spec)],
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
        pytest.param("k3n2", ["\nconj_comm:j=1;l=2;g=0.0,"], id="k3n2"),
        pytest.param("k5n3", [], id="k5n3"),
    ],
)
def test_periods_to_csv_matches_element_rendering(case, fragments):
    pm = _render_matrix(case)
    header = ["generator"]
    for f in enumerate_forms(pm.spec):
        label = ".".join(str(a) for a in f.alpha)
        header.extend(["re_" + label, "im_" + label])
    lines = [",".join(header)]
    for word, row in zip(enumerate_generators(pm.spec), pm.entries.tolist(), strict=True):
        cells = [_word_label(word)]
        for z in row:
            cells.extend([format(z.real, ".17g"), format(z.imag, ".17g")])
        lines.append(",".join(cells))
    text = cli.periods_to_csv(pm)
    assert text == "\n".join(lines) + "\n"
    for fragment in fragments:
        assert fragment in text


# (k, n) of the curves whose generator texts are checked word by word
_WORD_CURVES = [(2, 2), (3, 2), (7, 2), (2, 5), (4, 4)]


@pytest.mark.parametrize("k,n", _WORD_CURVES)
def test_generator_texts_match_the_words(k, n):
    # the template rendering of each pair's words against one word at a time
    words = enumerate_generators(validate_spec(k, n, [-1.5, 2 + 1j, 2][: n - 2]))
    assert json.loads(cli._generators_json(k, n)) == [_generator_dict(w) for w in words]
    assert list(cli._generator_labels(k, n)) == [_word_label(w) for w in words]


def test_periods_path_builds_no_words(monkeypatch):
    # assemble and both renderers work from the row layout alone; the
    # documents still list every word, in enumerate_generators order
    spec = validate_spec(3, 3, [-1.5])
    words = enumerate_generators(spec)
    _refuse_words(monkeypatch)
    pm = assemble(spec, QuadConfig())
    doc = json.loads(cli.periods_to_json(pm))
    labels = [line.split(",", 1)[0] for line in cli.periods_to_csv(pm).splitlines()[1:]]
    monkeypatch.undo()
    assert doc["generators"] == [_generator_dict(w) for w in words]
    assert labels == [_word_label(w) for w in words]


def test_periods_rendering_needs_no_sort(monkeypatch):
    # the period text is gathered from the (phase, pair, form) table, so
    # rendering never sorts the matrix; the basis cells are gathered from
    # the same table's real and imaginary parts, and the basis's integer
    # matrices index the table of their value range, so no basis matrix is
    # sorted either
    pm = assemble(validate_spec(4, 4, [-1.5, 2 + 1j]), QuadConfig())
    result = extract_basis(pm, pm.spec)

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called while rendering")

    monkeypatch.setattr(np, "unique", refuse)
    text_json, text_csv = cli.periods_to_json(pm), cli.periods_to_csv(pm)
    periods = np.asarray(json.loads(text_json)["periods"], dtype=float).view(complex)
    assert np.array_equal(periods[..., 0], pm.entries)
    cells = [line.split(",")[1:] for line in text_csv.splitlines()[1:]]
    assert np.array_equal(np.asarray(cells, dtype=float).view(complex), pm.entries)

    payload = cli.basis_payload(pm, result)
    basis_json, basis_csv = json.loads(cli.basis_to_json(payload)), cli.basis_to_csv(payload)
    for kind in ("basis", "coefficients", "from_generators"):
        assert np.array_equal(basis_json[kind], getattr(result, kind))
    for kind, dtype in (("basis", float), ("coefficients", np.int64)):
        rows = [line.split(",")[2:] for line in basis_csv.splitlines() if line.startswith(kind)]
        assert np.array_equal(np.asarray(rows, dtype=dtype), getattr(result, kind))


def _hand_set_basis():
    """A (4, 2) period matrix and a basis of six of its rows: a 1e100
    diagonal (|det| overflows), -0.0, a 17-digit double and repeated
    values.  The matrix stores its entries in reverse order, so the basis
    cells are gathered through an index that is not the identity.  The
    coefficients are negative down to -25507, with gaps in their range,
    and one is 10**6, a range wider than 2**16 and than the matrix."""
    from gfcperiods.lattice import LatticeBasis

    spec = validate_spec(4, 2, [])
    rows = 4**2
    forms = enumerate_forms(spec)
    kept = np.array([0, 2, 3, 7, 8, 13])
    basis = np.diag([1e100] * 6)
    basis[0, 1] = -0.0
    basis[0, 2] = basis[1, 2] = 5.2441151085842401
    basis[3, 0] = basis[3, 4] = -1 / 3
    entries = np.full((rows, len(forms)), 0.25 - 0.5j)
    # through the parts, so that -0.0 keeps its sign
    entries.real[kept], entries.imag[kept] = basis[:, :3], basis[:, 3:]
    pm = PeriodMatrix(
        m_exponents=np.asarray([f.m_exponents for f in forms], dtype=np.int64),
        values=entries.ravel()[::-1].copy(),
        index=np.arange(entries.size)[::-1].reshape(entries.shape),
        base_integrals=np.zeros((2, len(forms)), dtype=complex),
        base_point=0.5 + 2.25j,
        spec=spec,
    )
    coefficients = np.zeros((rows, 6), dtype=np.int64)
    coefficients[kept, np.arange(6)] = 1
    coefficients[[1, 4, 5, 6, 9]] = [
        [1, 0, -2, 0, 0, 0],
        [0, -1, 0, 3, 0, 0],
        [-5, -5, 1, 1, 0, 0],
        [0, 0, 0, -25507, 0, 0],
        [2, 0, 0, 0, 0, 10**6],
    ]
    result = LatticeBasis(
        basis=real_split(pm)[kept],
        coefficients=coefficients,
        residual=2.5e-16,
        kept=kept,
        log_abs_det=600 * math.log(10),
    )
    assert np.array_equal(result.basis.view(np.uint64), basis.view(np.uint64))
    return pm, result


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


@pytest.mark.parametrize("case", ["hand_set", "k4n3", "k2n4", "genus0", "k3n2"])
def test_basis_rendering_matches_element_rendering(case):
    if case == "hand_set":
        pm, result = _hand_set_basis()
    else:
        pm = _render_matrix(case)
        result = extract_basis(pm, pm.spec)
    payload = cli.basis_payload(pm, result)
    reference = dict(
        payload,
        basis=result.basis.tolist(),
        coefficients=result.coefficients.tolist(),
        from_generators=result.from_generators.tolist(),
    )
    text = cli.basis_to_json(payload)
    assert text == _element_json(reference) + "\n"
    assert cli.basis_to_csv(payload) == _element_basis_csv(payload, result)
    if case == "hand_set":
        assert "[[1e+100, -0, 5.2441151085842401, 0, 0, 0], " in text
        assert "[-0.33333333333333331, 0, 0, 1e+100, -0.33333333333333331, 0]" in text
        assert '"coefficients": [[1, 0, 0, 0, 0, 0], [1, 0, -2, 0, 0, 0], ' in text
        assert "[0, 0, 0, -25507, 0, 0], [0, 0, 0, 1, 0, 0]" in text
        assert "[2, 0, 0, 0, 0, 1000000]" in text
        assert '"from_generators": [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], ' in text
        assert "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]], " in text
        # so wide a range is tabled by its distinct values, not by every value in it
        assert len(cli._cells(result.coefficients)[0]) == 9
        # the payload is plain Python where it is not a table
        with pytest.raises(TypeError):
            cli._json_dump(result.basis)
        with pytest.raises(TypeError):
            cli._cells(result.basis)
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


@pytest.mark.parametrize("k,lams", [(3, ["1e-3", "2"]), (2, ["1e-3", "3"])])
def test_verify_passes_with_lambda_near_r1(capsys, k, lams):
    # lambda_1 = 1e-3 sits next to r_1 = 0, so loop 1 has a tiny circle; the
    # words must still meet the closed form within the unchanged tolerance
    argv = ["verify", "-k", str(k), "-n", "4"]
    for lam in lams:
        argv += ["-l", lam]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    check = next(
        c for c in json.loads(out)["checks"] if c["name"] == "closed_form_vs_contour"
    )
    assert check["tolerance"] == 1.0
    assert check["passed"] and check["max_deviation"] < 1.0


def test_verify_stdout_is_identical_across_calls(capsys):
    # the oracle keeps no loop integral from one call to the next
    argv = ("verify", "-k", "3", "-n", "3", "-l", "-1.5")
    runs = [run_cli(capsys, *argv) for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


@pytest.mark.xfail(
    raises=AssertionError,
    reason=(
        "ROADMAP direction 1, clustered and extreme branch sets: the route in "
        "of the oracle's loop 1 (k = 2) or loop 2 (k = 3) runs out of "
        "Gauss-Legendre panels at 8192 and verify exits 3"
    ),
)
@pytest.mark.parametrize("k,lam", [(2, "1e6"), (3, "1.0001")])
def test_verify_passes_with_extreme_lambda(capsys, k, lam):
    code, out, err = run_cli(capsys, "verify", "-k", str(k), "-n", "3", "-l", lam)
    assert code == 0, err
