"""Known-failures probe: the ROADMAP baseline cases that fail today.

The cases run once per traced benchmark invocation, untimed and outside
every metric, through `gfcperiods.cli.main` in the benchmark's process.
The record keeps the exit code and the first stderr line, so a later
change that makes a case succeed, or fail another way, shows in the run
record without moving any timing.

`basis` on (20,2) exits 0 but fails the benchmark's double-inclusion check
against the reference; its record adds the stage and the relative error.
"""

from __future__ import annotations

import checks

# (argv, exit code at the time the benchmark was written)
CASES = (
    (["basis", "-k", "4", "-n", "3", "--lambda=-1.5"], 4),
    (["basis", "-k", "5", "-n", "3", "--lambda=-1.5"], 4),
    (["basis", "-k", "3", "-n", "4", "--lambda=-1.5", "--lambda=2+1i"], 4),
    (["basis", "-k", "4", "-n", "4", "--lambda=-1.5", "--lambda=2+1i"], 4),
    (["verify", "-k", "2", "-n", "3", "--lambda=1.000001"], 3),
    (["verify", "-k", "2", "-n", "3", "--lambda=1e6"], 3),
    (["verify", "-k", "2", "-n", "3", "--lambda=-1e-6"], 3),
    (["verify", "-k", "3", "-n", "3", "--lambda=1.0001"], 3),
    (["verify", "-k", "3", "-n", "3", "--lambda=1e5"], 3),
    (["periods", "-k", "2", "-n", "3", "-l", "-1e-6"], 2),
    (["basis", "-k", "20", "-n", "2"], 0),
)
# Cases whose output is checked: argv -> (k, n) of the reference curve.
CHECKED = {"basis -k 20 -n 2": (20, 2)}


def run_probe(call, expected) -> list[dict]:
    """Outcome of every case.  call(argv) returns (exit code, stdout, stderr)
    of one CLI call; expected maps (k, n) to checks.Expected."""
    out = []
    for argv, baseline in CASES:
        code, stdout, stderr = call(argv)
        lines = stderr.splitlines()
        entry = {
            "argv": " ".join(argv),
            "exit": code,
            "baseline_exit": baseline,
            "stderr": lines[0] if lines else "",
        }
        curve = CHECKED.get(entry["argv"])
        if curve is not None and code == 0:
            ok, err, stage = checks.check_basis_json(stdout, expected[curve])
            entry.update(check_passed=ok, rel_err=err, stage=stage)
        out.append(entry)
    return out
