"""Tests of the benchmark's own reference and checks.

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests off the repository's default test run:
recomputing reference values with mpmath takes seconds per curve.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import pace  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

workloads.import_package()

from gfcperiods import cli  # noqa: E402
from gfcperiods.curve import FormIndex  # noqa: E402
from gfcperiods.oracle import beta_closed_form  # noqa: E402


@pytest.fixture(scope="module")
def store():
    return reference.Store(0)


@pytest.mark.parametrize("k", [7, 12, 20])
def test_committed_reference_matches_beta(store, k):
    cols = store.get(k, 2, [])
    assert set(cols) == set(checks.forms(k, 2))
    for alpha, (j1, j2) in cols.items():
        beta = beta_closed_form(FormIndex(alpha=alpha), k)
        assert abs(float(abs(j2 - j1)) - beta) <= 1e-13 * beta


@pytest.mark.parametrize("k", [7, 12, 20])
def test_recomputed_reference_matches_committed(store, k):
    sample = checks.forms(k, 2)[:: max(1, len(checks.forms(k, 2)) // 4)]
    fresh = reference.compute(k, 2, [], sample)
    cached = store.get(k, 2, [])
    with mpmath.workdps(30):
        for alpha in sample:
            for a, b in zip(fresh[alpha], cached[alpha]):
                assert abs(a - b) <= mpmath.mpf("1e-25") * abs(b)


@pytest.mark.parametrize("k, n, lams", [(4, 2, []), (3, 3, [-1.5])])
def test_package_J_matches_reference(store, k, n, lams):
    from gfcperiods import QuadConfig, base_integrals, validate_spec

    J = base_integrals(validate_spec(k, n, lams), QuadConfig())
    ref = store.get(k, n, lams)
    for c, alpha in enumerate(checks.forms(k, n)):
        want = np.asarray([complex(v) for v in ref[alpha]])
        assert np.max(np.abs(J[:, c] - want) / np.abs(want)) <= 1e-13


def test_enumerations_match_package():
    from gfcperiods.curve import enumerate_forms, validate_spec
    from gfcperiods.homology import enumerate_generators

    for k, n, lams in [(3, 3, [-1.5]), (2, 4, [-1.5, 2 + 1j]), (4, 2, [])]:
        spec = validate_spec(k, n, lams)
        assert checks.forms(k, n) == [f.alpha for f in enumerate_forms(spec)]
        assert checks.genus(k, n) == len(checks.forms(k, n))
        assert checks.generators(k, n) == [
            (w.g, w.j, w.l) for w in enumerate_generators(spec)
        ]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_periods_check_passes_and_catches_a_wrong_entry(store):
    exp = checks.Expected(3, 3, store.get(3, 3, [-1.5]))
    text = _run(["periods", "-k", "3", "-n", "3", "--lambda=-1.5"])
    ok, err, _ = checks.check_periods_json(text, exp)
    assert ok and 0 < err < 1e-11
    raw = json.loads(text)
    row = next(r for r in raw["periods"] if r[0][0] != 0)
    row[0][0] *= 1 + 1e-8
    ok, _, stage = checks.check_periods_json(json.dumps(raw), exp)
    assert not ok and stage == "periods.values"


def test_basis_check_passes_and_catches_a_wrong_basis(store):
    exp = checks.Expected(4, 2, store.get(4, 2, []))
    text = _run(["basis", "-k", "4", "-n", "2"])
    ok, err, _ = checks.check_basis_json(text, exp)
    assert ok and err < 1e-12
    raw = json.loads(text)
    raw["basis"][0] = list(2 * np.asarray(raw["basis"][0]))
    ok, _, stage = checks.check_basis_json(json.dumps(raw), exp)
    assert not ok and stage.startswith("basis.")


def test_seeded_lambdas_are_reproducible_and_clear_of_branch_points():
    assert workloads.lambda_strings(0, 4, 4) == ["-1.5", "2+1i"]
    for seed in range(1, 30):
        a = workloads.lambda_strings(seed, 2, 5)
        assert a == workloads.lambda_strings(seed, 2, 5)
        pts = [0, 1] + [workloads.parse_lambda(s) for s in a]
        assert min(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:]) > 0.5



def test_tracing_keeps_output_and_covers_the_call():
    import time

    import spans

    argv = ["periods", "-k", "3", "-n", "3", "--lambda=-1.5"]
    plain = _run(argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        traced = _run(argv)
        elapsed = time.perf_counter() - t
    finally:
        tracer.uninstall()
    assert traced == plain
    assert not hasattr(cli.main, "__wrapped__")
    values, absent = tracer.metrics(1, elapsed, elapsed)
    assert absent == {}
    assert values["quad.ts_integrals"] == 3 * len(checks.forms(3, 3))
    assert values["periods.entries"] == len(checks.generators(3, 3)) * len(checks.forms(3, 3))
    assert 0.9 <= values["trace.coverage"] <= 1.0


def test_missing_hook_is_reported_absent(monkeypatch):
    import spans
    from gfcperiods import lattice

    monkeypatch.delattr(lattice, "_hnf_with_transform")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    _, absent = tracer.metrics(1, 1.0, 1.0)
    assert set(absent) == {"lattice.hnf_s"}


def test_clock_scales_by_the_probe_time_during_a_call():
    clock = pace.Clock()
    # Probes of 2x the reference time every 0.1 s from 0 to 2 s, and 1x from 2 s on.
    clock.samples = [(0.1 * i, 0.1 * i + (2 if i < 20 else 1) * pace.REFERENCE_S)
                     for i in range(40)]
    clock.calls = [(0.05, 1.05, "slow"), (2.05, 3.05, "fast"), (1.96, 1.97, "short")]
    # Ten probes inside each second-long call; their time is taken out.
    assert clock.paced("slow") == pytest.approx([(1.0 - 10 * 2 * pace.REFERENCE_S) / 2])
    assert clock.paced("fast") == pytest.approx([1.0 - 10 * pace.REFERENCE_S])
    # No probe inside: the nearest MIN_SAMPLES stand in, 4 at 2x and 4 at 1x.
    assert clock.paced("short") == pytest.approx([0.01 / 1.5])


def test_clock_samples_while_a_call_runs():
    with pace.Clock() as clock:
        _, wall = clock.time("spin", lambda: sum(i * i for i in range(2_000_000)))
    inside = [a for a, _ in clock.samples if clock.calls[0][0] <= a <= clock.calls[0][1]]
    assert len(clock.samples) >= pace.BURST
    assert len(inside) >= 0.5 * wall / pace.INTERVAL_S
    assert 0 < clock.paced("spin")[0]
