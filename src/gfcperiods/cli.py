"""Command-line front end.

Subcommands: info (genus, forms, generator counts), periods (the full
period matrix), basis (extracted lattice basis), verify (oracle
cross-check report).  --tol and --max-level act on the quadrature of
n >= 3 periods and basis and of verify; n = 2 periods and bases take
their base integrals from the Beta closed form and integrate nothing.
Data goes to stdout or --out; diagnostics go to stderr.  Exit codes: 2
invalid input or a stdout or --out that cannot be written (a closed pipe
among them), 3 numerical failure (no quadrature convergence, a path
through a branch point, no route, or a base integral that underflows to
0), 4 lattice extraction failure, 5 out of memory (the stage named), 1
failed verification.

Each subcommand imports only the modules it runs.  At module level this
file loads the standard library, errors and curve, which is all that info
needs (it counts the generators, C(n,2) * k**n, without listing them); the
commands and renderers that use numpy, homology, quad, periods, lattice or
oracle import them in their own bodies, or through those modules.  So info
never loads numpy, periods never loads lattice or oracle, and basis never
loads oracle.

main builds its argparse parser on its first call and reuses it for the
rest of the process, so in-process callers pay for it once; it runs the
command function named by the parsed command, looked up on each call.

All floating-point output uses 17 significant digits, so parsing the
emitted JSON or CSV reproduces every double bit-exactly.  Each numeric
matrix is one gather from a table of cell texts, each formatted once, and
one join: the periods from the PeriodMatrix value table (one entry per
phase, pair and form) by its index, the basis from the real and imaginary
parts of that table by the index rows of its kept generators, and the
coefficients from their value range, unsorted.  Each from_generators row
is written from its kept generator alone.  The generator words of the
period document are written from their layout, with no word object: the
texts of the conjugators g in Z_k**n are formatted once, in lex order, and
each pair (j, l) repeats them between its own head and tail.  The text is
the same as formatting every element on its own.  The generator texts
depend on (k, n) alone, and are built once per curve type (_generators_json
and _generator_labels); no value text is cached.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from .curve import _alphas, genus, validate_spec
from .errors import (
    ClearanceUnachievable,
    GfcError,
    IntegralUnderflow,
    NoConvergence,
    NotFullRank,
    ReconstructionFailed,
    StepTooCoarse,
)


def parse_complex(text: str) -> complex:
    """Accept 'a+bi', 'a+bj', plain reals, or 'a,b'.  Only a trailing 'i'
    is the imaginary unit, so 'inf' and '-inf' parse as reals."""
    s = text.strip().replace(" ", "")
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    if s.endswith("i"):
        s = s[:-1] + "j"
    return complex(s)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cells(a: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A table of the texts of an integer array's values and an index of
    a's shape into it: by value - min, with no sort, unless the range is
    wider than both a and 2**16; else the table holds the distinct values."""
    import numpy as np

    if a.dtype.kind not in "iu":
        raise TypeError(f"cannot tabulate an array of {a.dtype}")
    low, high = int(a.min(initial=0)), int(a.max(initial=0))
    if high - low < max(a.size, 1 << 16):
        return [str(v) for v in range(low, high + 1)], a - low
    keys, inverse = np.unique(a, return_inverse=True)
    # before numpy 2 the inverse is flat; since then it has the input's shape
    return [str(v) for v in keys.tolist()], inverse.reshape(a.shape)


def _joined(texts: list[str], index: np.ndarray, sep, end, head, tail) -> str:
    """head, then the rows of the 2-D index as the texts it points at, each
    followed by sep, or by end when last in its row, and tail for the last
    end.  A row with no cells is one empty text.  One gather from a table
    of each text twice and one join; the document is never sliced."""
    import numpy as np

    if not index.shape[1]:
        texts, index = [""], np.zeros((len(index), 1), dtype=np.intp)
    table = np.array([t + sep for t in texts] + [t + end for t in texts], dtype=object)
    gathered = table[index]
    gathered[:, -1] = table[index[:, -1] + len(texts)]
    parts = gathered.ravel().tolist()
    del table, gathered
    parts[0] = head + parts[0]
    parts[-1] = parts[-1][: len(parts[-1]) - len(end)] + tail
    return "".join(parts)


def _json_object(members: dict[str, str], end: str = "") -> str:
    """A JSON object from its keys and their rendered values, followed by
    end, copied by one join: a value can be a matrix of many megabytes, so
    a document's closing newline goes in here, not onto the joined text."""
    parts = [x for k, v in members.items() for x in (", ", json.dumps(k), ": ", v)]
    return "".join(["{", *parts[1:], "}", end])


def _json_dump(obj) -> str:
    """Deterministic JSON of plain Python values, floats with 17
    significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return _json_object({k: _json_dump(v) for k, v in obj.items()})
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _conjugator_texts(k: int, n: int, sep: str) -> list[str]:
    """The conjugators g in Z_k**n in lex order, each as its digits joined
    by sep."""
    digits = [str(d) for d in range(k)]
    return [sep.join(g) for g in itertools.product(digits, repeat=n)]


@functools.lru_cache(maxsize=8)
def _generators_json(k: int, n: int) -> str:
    """The generators in the PeriodMatrix row layout as a JSON list of
    {"type": "conj_comm", "g": [...], "j": ..., "l": ...} objects: per
    pair, one join of the conjugator texts between its tail and the head.
    Built once per curve type."""
    head = '{"type": "conj_comm", "g": ['
    g_texts = _conjugator_texts(k, n, ", ")
    pairs = itertools.combinations(range(1, n + 1), 2)
    tails = [f'], "j": {j}, "l": {l}}}' for j, l in pairs]
    return "[" + ", ".join(head + (t + ", " + head).join(g_texts) + t for t in tails) + "]"


@functools.lru_cache(maxsize=8)
def _generator_labels(k: int, n: int) -> tuple[str, ...]:
    """The CSV label conj_comm:j=...;l=...;g=... of every generator, in the
    PeriodMatrix row layout.  Built once per curve type."""
    g_texts = _conjugator_texts(k, n, ".")
    pairs = itertools.combinations(range(1, n + 1), 2)
    return tuple(f"conj_comm:j={j};l={l};g={g}" for j, l in pairs for g in g_texts)


def periods_to_json(pm) -> str:
    """The period document, the matrix gathered from pm.values by pm.index."""
    head = _json_object({
        "k": _json_dump(pm.spec.k),
        "n": _json_dump(pm.spec.n),
        "lambdas": _json_dump([_pair(v) for v in pm.spec.lambdas]),
        "genus": _json_dump(genus(pm.spec)),
        "forms": json.dumps([list(alpha) for alpha in _alphas(pm.spec.k, pm.spec.n)]),
        "generators": _generators_json(pm.spec.k, pm.spec.n),
    })
    tail = ']], "base_point": ' + _json_dump(_pair(pm.base_point)) + "}\n"
    values = zip(pm.values.real.tolist(), pm.values.imag.tolist())
    texts = ["[%.17g, %.17g]" % z for z in values]
    return _joined(texts, pm.index, ", ", "], [", head[:-1] + ', "periods": [[', tail)


def periods_to_csv(pm) -> str:
    """The period table, each row led by its generator's label."""
    import numpy as np

    header = ["generator"]
    for alpha in _alphas(pm.spec.k, pm.spec.n):
        label = ".".join(map(str, alpha))
        header.extend([f"re_{label}", f"im_{label}"])
    values = zip(pm.values.real.tolist(), pm.values.imag.tolist())
    texts = ["%.17g,%.17g" % z for z in values]
    texts += _generator_labels(pm.spec.k, pm.spec.n)
    index = np.column_stack((np.arange(pm.values.size, len(texts)), pm.index))
    return _joined(texts, index, ",", "\n", ",".join(header) + "\n", "\n")


def basis_payload(pm, result) -> dict:
    """The fields of the basis document of result, the LatticeBasis that
    extract_basis gives for pm: plain values, each matrix as a table of
    cell texts and an index into it, and from_generators as the kept
    generators.  Basis row i holds the real, then the imaginary parts of
    pm.values at pm.index[kept[i]].  abs_det and log10_abs_det both come
    from result.log_abs_det, the closed-form ln |det|, so no linear algebra
    runs here.  |det| can exceed the double range at large genus: abs_det
    is then None (JSON null), and log10_abs_det still carries its size.  A
    genus-0 basis is empty, of |det| 1."""
    import numpy as np

    try:
        abs_det = math.exp(result.log_abs_det)
    except OverflowError:
        abs_det = None
    parts = pm.values.real.tolist() + pm.values.imag.tolist()
    kept = pm.index[result.kept]
    return {
        "k": pm.spec.k,
        "n": pm.spec.n,
        "lambdas": [_pair(v) for v in pm.spec.lambdas],
        "genus": genus(pm.spec),
        "basis": (["%.17g" % x for x in parts], np.hstack([kept, kept + pm.values.size])),
        "coefficients": _cells(result.coefficients),
        "from_generators": result.kept.tolist(),
        "residual": float(result.residual),
        "abs_det": abs_det,
        "log10_abs_det": result.log_abs_det / math.log(10),
    }


def basis_to_json(payload: dict) -> str:
    """The basis document.  Each row of from_generators is written as a run
    of zeros, the 1 at its kept generator and a run of zeros."""
    m = len(payload["coefficients"][1])
    members = {}
    for key, value in payload.items():
        if key == "from_generators":
            rows = ["[" + "0, " * j + "1" + ", 0" * (m - 1 - j) + "]" for j in value]
            members[key] = "[" + ", ".join(rows) + "]"
        elif isinstance(value, tuple):
            texts, index = value
            members[key] = _joined(texts, index, ", ", "], [", "[[", "]]") if len(index) else "[]"
        else:
            members[key] = _json_dump(value)
    return _json_object(members, end="\n")


def basis_to_csv(payload: dict) -> str:
    import numpy as np

    width = len(payload["basis"][1])
    texts, blocks = [], []
    for kind in ("basis", "coefficients"):
        table, index = payload[kind]
        # a row with no cells keeps the comma after its index
        leads = [f"{kind},{i}" + "," * (not width) for i in range(len(index))]
        lead = np.arange(len(leads)) + len(texts) + len(table)
        blocks.append(np.column_stack((lead, index + len(texts))))
        texts += table + leads
    tail = f"\nresidual,0,{_fmt(payload['residual'])}"
    for key in ("abs_det", "log10_abs_det"):
        value = payload[key]
        tail += f"\n{key},0," + ("" if value is None else _fmt(value))
    head = "kind,index," + ",".join(f"c{j}" for j in range(width)) + "\n"
    index = np.concatenate(blocks)
    del blocks  # hold one index, not two, through the join
    return _joined(texts, index, ",", "\n", head, tail + "\n")


def _csv_cell(text: str) -> str:
    """text as one CSV cell: quoted, with inner quotes doubled, when it holds
    a comma or a quote (RFC 4180)."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def info_payload(spec) -> dict:
    # the exponent tuples alone: info builds no FormIndex
    alphas = _alphas(spec.k, spec.n)
    return {
        "k": spec.k,
        "n": spec.n,
        "lambdas": [_pair(v) for v in spec.lambdas],
        "genus": genus(spec),
        "num_forms": len(alphas),
        "forms": [list(alpha) for alpha in alphas],
        "num_generators": math.comb(spec.n, 2) * spec.k**spec.n,
    }


def report_payload(report) -> dict:
    return {
        "k": report.k,
        "n": report.n,
        "lambdas": [_pair(v) for v in report.lambdas],
        "sample": report.sample,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "max_deviation": c.max_deviation,
                "tolerance": c.tolerance,
                "detail": c.detail,
            }
            for c in report.checks
        ],
    }


_WRITE_BLOCK = 1 << 24


def _emit(text: str, out: str | None) -> None:
    """text to stdout, or to the file out.  A file that cannot be opened or
    written, or a stdout that cannot be written (a pipe whose reader has
    gone), is a GfcError naming it, so main exits 2 without a traceback.
    A failed stdout's descriptor is then pointed at devnull, so the bytes
    left in its buffer do not fail again at exit ("Exception ignored").

    Unbuffered (PYTHONUNBUFFERED), sys.stdout is text over a raw stream,
    which may take fewer bytes than one write hands it (the kernel takes
    at most 0x7FFFF000 per call), and the text layer drops the rest.  So
    the ASCII document goes to sys.stdout.buffer, or to out opened binary,
    a block of _WRITE_BLOCK characters encoded at a time (text mode would
    encode it whole), each written again from the count the last write
    returned.  A stdout with no buffer (io.StringIO) takes one write."""
    if out:
        try:
            with open(out, "wb") as sink:
                _write_blocks(text, sink, "utf-8", "strict")
        except OSError as err:
            raise GfcError(f"cannot write --out {out}: {err.strerror or err}") from err
    elif hasattr(sys.stdout, "buffer"):
        try:
            sys.stdout.flush()
            _write_blocks(text, sys.stdout.buffer, sys.stdout.encoding, sys.stdout.errors)
        except OSError as err:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise GfcError(f"cannot write stdout: {err.strerror or err}") from err
    else:
        sys.stdout.write(text)


def _write_blocks(text: str, sink, encoding: str, errors: str) -> None:
    for start in range(0, len(text), _WRITE_BLOCK):
        block = memoryview(text[start : start + _WRITE_BLOCK].encode(encoding, errors))
        while block:
            block = block[sink.write(block) :]
    sink.flush()


def _quad_config(args: argparse.Namespace) -> QuadConfig:
    """QuadConfig from the flags; an absent --tol or --max-level takes
    QuadConfig's default."""
    from .quad import QuadConfig

    rel_tol = QuadConfig.rel_tol if args.tol is None else args.tol
    max_level = QuadConfig.max_level if args.max_level is None else args.max_level
    return QuadConfig(rel_tol=rel_tol, max_level=max_level)


def cmd_info(args: argparse.Namespace) -> int:
    spec = validate_spec(args.k, args.n, args.lambdas)
    args.stage = "rendering"
    # the forms list holds integers only, which json.dumps renders with the
    # same bytes as _json_dump, and in a fraction of the time
    texts = {
        key: json.dumps(val) if key == "forms" else _json_dump(val)
        for key, val in info_payload(spec).items()
    }
    if args.fmt == "csv":
        text = "".join(f"{key},{_csv_cell(text)}\n" for key, text in texts.items())
    else:
        text = _json_object(texts, end="\n")
    args.stage = "writing"
    _emit(text, args.out)
    return 0


def cmd_periods(args: argparse.Namespace) -> int:
    from .periods import assemble

    spec = validate_spec(args.k, args.n, args.lambdas)
    args.stage = "assembling the periods"
    pm = assemble(spec, _quad_config(args))
    args.stage = "rendering"
    text = periods_to_csv(pm) if args.fmt == "csv" else periods_to_json(pm)
    args.stage = "writing"
    _emit(text, args.out)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    from .lattice import extract_basis
    from .periods import assemble

    spec = validate_spec(args.k, args.n, args.lambdas)
    args.stage = "assembling the periods"
    pm = assemble(spec, _quad_config(args))
    args.stage = "extracting the basis"
    result = extract_basis(pm, spec)
    args.stage = "rendering"
    payload = basis_payload(pm, result)
    text = basis_to_csv(payload) if args.fmt == "csv" else basis_to_json(payload)
    args.stage = "writing"
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import crosscheck_report

    spec = validate_spec(args.k, args.n, args.lambdas)
    args.stage = "running the cross-checks"
    report = crosscheck_report(spec, _quad_config(args), seed=args.seed)
    args.stage = "rendering"
    text = _json_dump(report_payload(report)) + "\n"
    args.stage = "writing"
    _emit(text, args.out)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: max deviation {check.max_deviation:.3e} "
            f"(tolerance {check.tolerance:.1e})",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfcperiods",
        description="Period lattice generators of generalized Fermat curves.",
    )
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("-k", type=int, required=True, help="cover degree (>= 2)")
    curve.add_argument("-n", type=int, required=True, help="curve rank (>= 2)")
    curve.add_argument(
        "-l", "--lambda", dest="lambdas", action="append", default=[], metavar="VALUE",
        help="branch value; 'a+bi' or 'a,b'; repeat for each of the n-2 values",
    )
    curve.add_argument("--out", help="output path (default stdout)")
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument(
        "--tol", type=float,
        help="quadrature relative tolerance (n >= 3 periods and basis, and verify)",
    )
    quadrature.add_argument(
        "--max-level", type=int,
        help=(
            "tanh-sinh refinement cap before NoConvergence (n >= 3 periods and "
            "basis, and verify; n = 2 periods take the Beta closed form)"
        ),
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand registers only the options it reads; main runs
    # cmd_<command>
    for name, parents, help_text in [
        ("info", [curve, fmt], "genus, form list, and generator counts"),
        ("periods", [curve, quadrature, fmt], "compute the period matrix"),
        ("basis", [curve, quadrature, fmt], "extract an integer lattice basis"),
        ("verify", [curve, quadrature], "run the oracle cross-check report"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=parents)
        if name == "verify":
            p.add_argument("--seed", type=int, default=0, help="verify sampler seed")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses for the rest of the process, built on its
    first call.  It holds no command function and nothing a call changes:
    argparse gives each parse a fresh Namespace and copies the -l default
    list before it appends."""
    return build_parser()


def _join_lambda_values(argv: list[str]) -> list[str]:
    """Rewrite each '-l VALUE' / '--lambda VALUE' pair as '--lambda=VALUE',
    so that argparse does not read a value such as -1e-6 as an option."""
    out: list[str] = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("-l", "--lambda") else None
        out.append(arg if value is None else f"--lambda={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_join_lambda_values(argv))
    try:
        args.lambdas = [parse_complex(v) for v in args.lambdas]
    except ValueError as err:
        print(f"error: cannot parse lambda value: {err}", file=sys.stderr)
        return 2
    # each command names the stage it enters, for an out-of-memory exit
    args.stage = "validating the input"
    # looked up on each call, so a cmd_* replaced after the first call runs
    run = globals()[f"cmd_{args.command}"]
    try:
        return run(args)
    except MemoryError:
        print(f"error: out of memory while {args.stage}", file=sys.stderr)
        return 5
    except (NotFullRank, ReconstructionFailed) as err:
        print(f"error: lattice extraction failed: {err}", file=sys.stderr)
        return 4
    except NoConvergence as err:
        print(f"error: quadrature did not converge: {err}", file=sys.stderr)
        return 3
    except (StepTooCoarse, ClearanceUnachievable) as err:
        print(f"error: branch continuation failed: {err}", file=sys.stderr)
        return 3
    except IntegralUnderflow as err:
        print(f"error: quadrature underflowed: {err}", file=sys.stderr)
        return 3
    except GfcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
