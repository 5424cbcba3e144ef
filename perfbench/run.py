#!/usr/bin/env python3
"""Benchmark of the gfcperiods period-lattice pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

Run from the root of a checkout; the package is imported from its src/.
A run (1) makes sure the reference J for the workload's curves is cached,
(2) times its set-up: cold first calls in fresh interpreters and reference
loads, then runs one uncounted warm-up pass for the in-process workloads,
(3) runs passes over the workload's operation list for S seconds, at least
MIN_PASSES of them, each operation timed on a pace.Clock, and (4) checks
every output against the reference.  Reported times are medians in paced
seconds (pace.py).  With --trace 1 the second half
of the time runs with span tracing on, the per-layer figures replace the
end-to-end ones, and the known-failures probe runs at the end.

The last stdout line is the result object; the line before it is the run
record (environment, pass and per-operation times, accuracy per operation,
failures with their stage, per-layer details, probe outcomes).  A summary
goes to stderr.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

W.bench_env()  # before numpy is first imported

import checks  # noqa: E402
import pace  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

# Set-up steps repeated to take a median.
SETUP_REPEATS = 5

# Passes a run makes however slow the host is, so that every operation's
# median is taken over at least this many runs of it.
MIN_PASSES = 3

# Per-layer metrics a cli_cold run measures from outside its child processes.
CHILD_METRICS = ("trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s",
                 "cli.interp_s", "cli.import_s", "cli.call_s", "cli.bytes_out")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s_geomean": "s",
    "ok_frac": "ratio",
    "digits": "digits",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(W.PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(W.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def wall_of(cmd, env) -> float:
    t = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=W.ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t


# -- reference ----------------------------------------------------------------


def prepare_reference(wl, seed) -> dict:
    """Compute whatever reference values the run lacks, untimed, in a child
    process so that mpmath's memory stays out of this process's peak."""
    store = reference.Store(seed)
    missing = sum(
        len(store.missing(k, n, lams, reference.needed_forms(seed, k, n)))
        for k, n, lams in W.reference_curves(wl, seed)
    )
    t = time.perf_counter()
    if missing:
        subprocess.run([sys.executable, str(HERE / "reference.py"), "--seed", str(seed),
                        "--workload", wl.name], cwd=W.ROOT, check=True,
                       stdout=subprocess.DEVNULL)
    return {"computed_forms": missing, "compute_s": time.perf_counter() - t}


def load_expected(curves, seed) -> dict:
    """Reference periods per (k, n), ready for the checks."""
    store = reference.Store(seed)
    return {(k, n): checks.Expected(k, n, store.get(k, n, lams)) for k, n, lams in curves}


# -- running operations ---------------------------------------------------------


def call_in_process(cli, argv):
    """(seconds, exit code, stdout, stderr) of one cli.main call in this process."""
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught traceback is a failed operation
        code = f"uncaught {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    return dt, code, out.getvalue(), err.getvalue()


def call_child(argv, env):
    """(seconds, exit code, stdout, peak RSS in MB) of one fresh interpreter."""
    out_path = HERE / ".cache" / "child.out"
    out_path.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, "-m", "gfcperiods.cli", *argv]
    with open(out_path, "wb") as fo:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=subprocess.DEVNULL, env=env,
                                cwd=W.ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        dt = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, out_path.read_text(), usage.ru_maxrss / 1024.0


class Outcomes:
    """Outputs per operation: the first text and the digest of every run."""

    def __init__(self, ops):
        self.first = {op: None for op in ops}
        self.runs = {op: [] for op in ops}  # (exit code, digest)

    def add(self, op, code, text):
        if self.first[op] is None:
            self.first[op] = text
        self.runs[op].append((code, hashlib.sha256(text.encode()).hexdigest()))


def run_passes(wl, seed, seconds, cli, env, outcomes, min_passes, tracer=None):
    """Passes over the operation list until `seconds` have elapsed, and at
    least `min_passes` of them, timed on a pace.Clock.  Returns the clock,
    the wall time of each pass and the peak RSS of the children."""
    argvs = {op: op.argv(seed) for op in wl.ops}
    pass_times = []
    peak_child = 0.0
    t_end = time.perf_counter() + seconds
    with pace.Clock() as clock:
        while len(pass_times) < min_passes or time.perf_counter() < t_end:
            total = 0.0
            for op in wl.ops:
                if tracer is not None:
                    tracer.op_id = f"{len(pass_times)}:{op.label}"
                if wl.in_process:
                    (_, code, text, _), dt = clock.time(
                        op, lambda: call_in_process(cli, argvs[op]))
                else:
                    (_, code, text, rss), dt = clock.time(
                        op, lambda: call_child(argvs[op], env), child=True)
                    peak_child = max(peak_child, rss)
                outcomes.add(op, code, text)
                total += dt
            pass_times.append(total)
    return clock, pass_times, peak_child


# -- checking -------------------------------------------------------------------


def check_output(op, text, expected):
    if op.cmd == "periods":
        exp = expected[(op.k, op.n)]
        if op.fmt == "csv":
            return checks.check_periods_csv(text, exp)
        return checks.check_periods_json(text, exp)
    if op.cmd == "basis":
        return checks.check_basis_json(text, expected[(op.k, op.n)])
    if op.cmd == "verify":
        return checks.check_verify_json(text)
    return checks.check_info_json(text, op.k, op.n)


def judge(wl, seed, outcomes, expected, cli):
    """Failures per operation run, and the accuracy of each operation."""
    failures, accuracy = [], {}
    for op in wl.ops:
        text = outcomes.first[op]
        stage = None
        if not wl.in_process:
            _, code, in_proc, _ = call_in_process(cli, op.argv(seed))
            if code == 0 and text != in_proc:
                stage = "cli.stdout_differs_from_in_process"
        if stage is None:
            try:
                ok, err, where = check_output(op, text, expected)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                ok, err, where = False, math.inf, f"parse: {type(exc).__name__}: {exc}"
            stage = None if ok else where
            if op.cmd != "info":
                accuracy[op.label] = {"rel_err": err if math.isfinite(err) else None,
                                      "digits": checks.digits(err)}
        first_digest = outcomes.runs[op][0][1]
        for i, (code, digest) in enumerate(outcomes.runs[op]):
            why = None
            if code != 0:
                why = f"exit {code}"
            elif digest != first_digest:
                why = "stdout differs between runs"
            elif stage is not None:
                why = stage
            if why:
                failures.append({"op": op.label, "run": i, "stage": why})
    return failures, accuracy


# -- record ---------------------------------------------------------------------


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((W.SRC / "gfcperiods").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (W.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=W.ROOT, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gfc_threads": os.environ.get("GFC_THREADS"),
        "machine": platform.machine(),
    }


# -- one workload -----------------------------------------------------------------


def run_workload(args) -> int:
    wl = W.WORKLOADS[args.workload]
    seed, seconds, traced = args.seed, args.seconds, bool(args.trace)
    try:
        W.import_package()
        from gfcperiods import cli
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    cpu = pace.pin_to_one_cpu()
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": traced,
              "ops": [op.label for op in wl.ops]}
    record["reference"] = prepare_reference(wl, seed)

    # Set-up: a fresh interpreter's import plus first call of the workload's
    # smallest operation, and the reference load, each SETUP_REPEATS times
    # between pace readings.
    with pace.Clock() as clock:
        for _ in range(SETUP_REPEATS):
            clock.time("cold_first_call", lambda: call_child(wl.ops[0].argv(seed), env),
                       child=True)
            expected, _ = clock.time(
                "reference_load", lambda: load_expected(W.reference_curves(wl, seed), seed))
    setup = {}
    for step in ("cold_first_call", "reference_load"):
        setup[f"{step}_s"] = statistics.median(clock.paced(step))
        setup[f"{step}_wall_s"] = statistics.median(clock.wall(step))
    setup_s = setup["cold_first_call_s"] + setup["reference_load_s"]
    if wl.in_process:
        # One uncounted pass so lazily built tables are in place before timing.
        t = time.perf_counter()
        for op in wl.ops:
            call_in_process(cli, op.argv(seed))
        setup["warmup_s"] = time.perf_counter() - t

    outcomes = Outcomes(wl.ops)
    plain_s = seconds / 2 if traced else seconds
    # A traced run splits its time in two and keeps to it: its figures have
    # no bound.
    min_passes = 1 if traced else MIN_PASSES
    plain, pass_times, peak_child = run_passes(wl, seed, plain_s, cli, env, outcomes,
                                               min_passes)
    op_s = {op: statistics.median(plain.paced(op)) for op in wl.ops}
    peak_rss = peak_child if not wl.in_process else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    layer = None
    if traced:
        tracer = spans.Tracer()
        if wl.in_process:
            tracer.install()
        try:
            traced, t_times, _ = run_passes(wl, seed, seconds / 2, cli, env, outcomes,
                                            min_passes, tracer)
        finally:
            tracer.uninstall()
        values, absent = tracer.metrics(len(t_times), statistics.fmean(t_times),
                                        statistics.fmean(pass_times))
        interp = statistics.median(
            [wall_of([sys.executable, "-c", "pass"], env) for _ in range(SETUP_REPEATS)])
        imports = statistics.median(
            [wall_of([sys.executable, "-c", "import gfcperiods.cli"], env)
             for _ in range(SETUP_REPEATS)])
        values["cli.interp_s"] = interp
        values["cli.import_s"] = imports - interp
        values["cli.call_s"] = statistics.fmean(
            [statistics.fmean(traced.wall(op)) for op in wl.ops])
        values["cli.bytes_out"] = sum(len(outcomes.first[op].encode()) for op in wl.ops)
        if not wl.in_process:
            absent = {m: "cli_cold calls run in child processes, which are not traced"
                      for m in spans.METRICS if m not in CHILD_METRICS}
        spans_path = HERE / ".cache" / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        layer = {"values": values, "absent": absent, "spans": len(tracer.spans),
                 "traced_passes": len(t_times)}

    failures, accuracy = judge(wl, seed, outcomes, expected, cli)
    attempted = sum(len(v) for v in outcomes.runs.values())
    failed = len({(f["op"], f["run"]) for f in failures})
    e2e = {
        "setup_s": setup_s,
        "pass_s": math.fsum(op_s.values()),
        "op_s_geomean": statistics.geometric_mean(op_s.values()),
        "ok_frac": 1.0 - failed / attempted,
        "digits": min(a["digits"] for a in accuracy.values()),
        "peak_rss_mb": peak_rss,
    }
    record.update(
        setup=setup,
        passes=len(pass_times),
        pass_wall_s=pass_times,
        op_paced_median_s={op.label: op_s[op] for op in wl.ops},
        op_wall_median_s={op.label: statistics.median(plain.wall(op)) for op in wl.ops},
        op_samples={op.label: len(plain.wall(op)) for op in wl.ops},
        pace={"reference_s": pace.REFERENCE_S, "interval_s": pace.INTERVAL_S,
              "cpu": cpu, "median_s": statistics.median(b - a for a, b in plain.samples),
              "setup": clock.log(), "passes": plain.log()},
        accuracy=accuracy,
        fail_frac=failed / attempted,
        failures=failures[:50],
        end_to_end=e2e,
        environment=environment(),
    )
    if layer is not None:
        record["per_layer"] = layer
    if traced:
        record["probe"] = probe.run_probe(lambda argv: call_in_process(cli, argv)[1:],
                                          load_expected(W.PROBE_CURVES, seed))

    if traced:
        metrics = {m: {"value": layer["values"][m], "unit": u}
                   for m, u in spans.METRICS.items()}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END.items()}
    summary = "  ".join(f"{m}={v['value']:.6g}{v['unit']}" for m, v in metrics.items()
                        if not traced or m.startswith("trace."))
    print(f"[{wl.name} seed={seed}] {summary}  failed={failed}/{attempted}",
          file=sys.stderr)
    for f in failures[:5]:
        print(f"  FAIL {f['op']} run {f['run']}: {f['stage']}", file=sys.stderr)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# -- every workload ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints every end-to-end metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=W.ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            print(f"{name:16s} {metric:28s} {v['value']:14.6g} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
