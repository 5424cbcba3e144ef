"""The tables built once per curve type (k, n) hold nothing that depends on
lambda: no output depends on which curves ran before it in the process,
no caller can write into them, and every per-call array stays the
caller's own."""

import numpy as np
import pytest

import gfcperiods.cli as cli
import gfcperiods.lattice as lattice
import gfcperiods.periods as periods
from gfcperiods import assemble, extract_basis, validate_spec
from gfcperiods.oracle import crosscheck_report
from gfcperiods.quad import QuadConfig

TYPE_TABLES = (
    periods._type_factors,
    lattice._characters,
    lattice._monomial_offsets,
    lattice._monomial_coordinates,
    cli._generators_json,
    cli._generator_labels,
)

# (k, n, lambdas, another lambda of the type): both cyclic orders of the
# branch points of (3, 3), and (2, 4) at the ROADMAP values and off them
CURVES = [
    ("3", "3", ["-1.5"], ["0.3+0.4i"]),
    ("3", "3", ["0.3+0.4i"], ["-1.5"]),
    ("2", "4", ["-1.5", "2+1i"], ["0.3+0.4i", "-2-1i"]),
    ("2", "4", ["0.3+0.4i", "-2-1i"], ["-1.5", "2+1i"]),
]


def _clear_type_tables():
    for table in TYPE_TABLES:
        table.cache_clear()


def _calls(k, n, lams):
    curve = ["-k", k, "-n", n, *(f"--lambda={v}" for v in lams)]
    return [
        ["periods", *curve],
        ["periods", *curve, "--format", "csv"],
        ["basis", *curve],
        ["basis", *curve, "--format", "csv"],
        ["verify", *curve],
    ]


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("k,n,lams,other", CURVES)
def test_type_tables_change_no_output(capsys, k, n, lams, other):
    # the tables built by another lambda of the type, then this one's
    # documents, against each call run after every table is cleared
    _clear_type_tables()
    for argv in _calls(k, n, other):
        assert _run(capsys, argv)[0] == 0
    warm = [_run(capsys, argv) for argv in _calls(k, n, lams)]
    cold = []
    for argv in _calls(k, n, lams):
        _clear_type_tables()
        cold.append(_run(capsys, argv))
    assert [code for code, _ in cold] == [0] * len(cold)
    assert warm == cold


def test_type_tables_are_read_only():
    pm = assemble(validate_spec(3, 3, [-1.5]), QuadConfig())
    M = pm.m_exponents
    offsets, counts = lattice._monomial_offsets(((1, 2), (2, 1), (2, 2)), 3, 2)
    tables = [
        *periods._type_factors(M.tobytes(), M.shape, 3),
        *lattice._characters(M.tobytes(), M.shape, 3)[:-1],
        lattice._monomial_coordinates(5),
        offsets,
    ]
    for table in tables:
        assert table.size and not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    # the tables' other parts are tuples and strings
    assert isinstance(counts, tuple)
    assert isinstance(lattice._characters(M.tobytes(), M.shape, 3)[-1], tuple)
    assert isinstance(cli._generators_json(3, 3), str)
    assert isinstance(cli._generator_labels(3, 3), tuple)


def test_per_call_arrays_are_fresh_and_writeable():
    spec, cfg = validate_spec(4, 2, []), QuadConfig()
    a, b = assemble(spec, cfg), assemble(spec, cfg)
    for array in (a.index, a.values, a.m_exponents):
        assert array.flags.writeable
    assert not np.shares_memory(a.index, b.index)
    basis = extract_basis(a, spec)
    assert basis.coefficients.dtype == np.int64 and basis.coefficients.flags.writeable
    # writing into one call's arrays moves no later call
    a.index[...] = 0
    a.values[...] = 0
    basis.coefficients[...] = 0
    c = assemble(spec, cfg)
    assert np.array_equal(c.index, b.index)
    assert np.array_equal(c.values.view(np.uint64), b.values.view(np.uint64))
    assert np.array_equal(extract_basis(c, spec).coefficients, extract_basis(b, spec).coefficients)
    assert extract_basis(c, spec).coefficients.any()


def test_verify_computes_no_covolume(monkeypatch):
    # the covolume is a log sum over the kept-set search's own lengths:
    # verify's lattice check takes no determinant
    def refused(*args, **kwargs):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(np.linalg, "slogdet", refused)
    assert crosscheck_report(validate_spec(3, 3, [-1.5]), QuadConfig()).passed
    assert crosscheck_report(validate_spec(4, 2, []), QuadConfig()).passed
