"""Command-line front end.

Subcommands: info (genus, forms, generator counts), periods (the full
period matrix), basis (extracted lattice basis), verify (oracle
cross-check report).  Data goes to stdout or --out; diagnostics go to
stderr.  Exit codes: 2 invalid input, 3 numerical failure (quadrature
non-convergence, or a failed branch walk or route), 4 lattice extraction
failure, 1 failed verification.

All floating-point output uses 17 significant digits, so parsing the
emitted JSON or CSV reproduces every double bit-exactly.  A numeric matrix
is rendered from a table of its values, each formatted once: the periods
from the PeriodMatrix value table (one entry per phase, pair and form)
gathered by its index, the basis matrices from their distinct values.  The
text is the same as formatting every element on its own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .curve import validate_spec, enumerate_forms, genus
from .errors import (
    ClearanceUnachievable,
    GfcError,
    NoConvergence,
    NotFullRank,
    ReconstructionFailed,
    StepTooCoarse,
)
from .homology import Power, enumerate_generators
from .lattice import extract_basis, real_split
from .oracle import crosscheck_report
from .periods import assemble
from .quad import QuadConfig


def parse_complex(text: str) -> complex:
    """Accept 'a+bi', 'a+bj', plain reals, or 'a,b'."""
    s = text.strip().replace(" ", "")
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(s.replace("i", "j"))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell_text(a: np.ndarray) -> np.ndarray:
    """The text of every cell of a float or integer array, as an object array
    of the same shape.  Each distinct value is formatted once: floats keyed
    by their bit pattern (so -0.0 keeps its sign) with "%.17g", which renders
    a double exactly as _fmt does, and integers with str."""
    if a.dtype.kind == "f":
        bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
        keys, inverse = np.unique(bits, return_inverse=True)
        table = ["%.17g" % x for x in keys.view(np.float64).tolist()]
    elif a.dtype.kind in "iu":
        keys, inverse = np.unique(a, return_inverse=True)
        table = [str(x) for x in keys.tolist()]
    else:
        raise TypeError(f"cannot serialize an array of {a.dtype}")
    # before numpy 2 the inverse is flat; since then it has the input's shape
    return np.array(table, dtype=object)[inverse.reshape(a.shape)]


def _filled_rows(template: str, cells: np.ndarray, *lead) -> list[str]:
    """Each leading row of cells filled through one "%s" template, after
    that row's item of every sequence in lead."""
    flat = cells.reshape(len(cells), math.prod(cells.shape[1:])).tolist()
    return [template % (*head, *row) for *head, row in zip(*lead, flat)]


def _json_template(shape: tuple[int, ...]) -> str:
    """A "%s" template for a nested JSON list of the given shape."""
    if not shape:
        return "%s"
    return "[" + ", ".join([_json_template(shape[1:])] * shape[0]) + "]"


def _json_object(members: dict[str, str]) -> str:
    """A JSON object from its keys and their rendered values."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in members.items()) + "}"


def _json_dump(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        rows = _filled_rows(_json_template(obj.shape[1:]), _cell_text(obj))
        return "[" + ", ".join(rows) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return _json_object({k: _json_dump(v) for k, v in obj.items()})
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _generators_json(words, n: int) -> str:
    """The words as a JSON list of {"type": "power", "i": ...} and
    {"type": "conj_comm", "g": [...], "j": ..., "l": ...} objects, through
    one template per word kind."""
    power = '{"type": "power", "i": %d}'
    conj = '{"type": "conj_comm", "g": [' + ", ".join(["%d"] * n) + '], "j": %d, "l": %d}'
    return "[" + ", ".join(
        power % w.i if isinstance(w, Power) else conj % (*w.g, w.j, w.l) for w in words
    ) + "]"


def _word_label(word) -> str:
    if isinstance(word, Power):
        return f"power:i={word.i}"
    gs = ".".join(str(v) for v in word.g)
    return f"conj_comm:j={word.j};l={word.l};g={gs}"


def _form_label(form) -> str:
    return ".".join(str(a) for a in form.alpha)


def _period_cells(pm, template: str) -> np.ndarray:
    """The text of every period cell as an object array of the matrix's
    shape: each entry of pm.values formatted once through template (two
    "%.17g" fields, re and im) and gathered by pm.index."""
    values = zip(pm.values.real.tolist(), pm.values.imag.tolist())
    return np.array([template % z for z in values], dtype=object)[pm.index]


def periods_to_json(pm) -> str:
    """The period document.  The head members are glued onto the first row
    and the tail onto the last, so the text is copied by one join."""
    head = _json_object({
        "k": _json_dump(pm.spec.k),
        "n": _json_dump(pm.spec.n),
        "lambdas": _json_dump([_pair(v) for v in pm.spec.lambdas]),
        "genus": _json_dump(genus(pm.spec)),
        "forms": _json_dump([list(f.alpha) for f in pm.cols]),
        "generators": _generators_json(pm.rows, pm.spec.n),
    })
    cells = _period_cells(pm, "[%.17g, %.17g]")
    rows = _filled_rows(_json_template(cells.shape[1:]), cells)
    rows[0] = head[:-1] + ', "periods": [' + rows[0]
    rows[-1] += '], "base_point": ' + _json_dump(_pair(pm.base_point)) + "}\n"
    return ", ".join(rows)


def periods_to_csv(pm) -> str:
    """The period table, copied by one join like periods_to_json."""
    header = ["generator"]
    for f in pm.cols:
        label = _form_label(f)
        header.extend([f"re_{label}", f"im_{label}"])
    template = "%s" + ",%s" * len(pm.cols)
    labels = [_word_label(w) for w in pm.rows]
    rows = _filled_rows(template, _period_cells(pm, "%.17g,%.17g"), labels)
    rows[0] = ",".join(header) + "\n" + rows[0]
    rows[-1] += "\n"
    return "\n".join(rows)


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def basis_payload(spec, result) -> dict:
    """The basis as a dict for _json_dump, its matrices kept as arrays.
    |det| can exceed the double range at large genus: abs_det is then None
    (JSON null), and log10_abs_det, from slogdet, still carries its size."""
    abs_det, log10_abs_det = 0.0, -math.inf  # genus 0: an empty basis
    if result.basis.size:
        with np.errstate(over="ignore"):
            abs_det = abs(float(np.linalg.det(result.basis)))
        log10_abs_det = float(np.linalg.slogdet(result.basis)[1]) / math.log(10)
    return {
        "k": spec.k,
        "n": spec.n,
        "lambdas": [_pair(v) for v in spec.lambdas],
        "genus": genus(spec),
        "basis": result.basis,
        "coefficients": result.coefficients,
        "from_generators": result.from_generators,
        "residual": float(result.residual),
        "abs_det": _finite_or_none(abs_det),
        "log10_abs_det": _finite_or_none(log10_abs_det),
    }


def basis_to_csv(payload: dict) -> str:
    lines = ["kind,index," + ",".join(f"c{j}" for j in range(len(payload["basis"])))]
    for kind in ("basis", "coefficients"):
        cells = _cell_text(payload[kind])
        template = f"{kind},%d," + ",".join(["%s"] * cells.shape[1])
        lines.extend(_filled_rows(template, cells, range(len(cells))))
    lines.append(f"residual,0,{_fmt(payload['residual'])}")
    for key in ("abs_det", "log10_abs_det"):
        value = payload[key]
        lines.append(f"{key},0," + ("" if value is None else _fmt(value)))
    return "\n".join(lines) + "\n"


def _csv_cell(text: str) -> str:
    """text as one CSV cell: quoted, with inner quotes doubled, when it holds
    a comma or a quote (RFC 4180)."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def info_payload(spec, include_powers: bool) -> dict:
    forms = enumerate_forms(spec)
    gens = enumerate_generators(spec, include_powers=include_powers)
    return {
        "k": spec.k,
        "n": spec.n,
        "lambdas": [_pair(v) for v in spec.lambdas],
        "genus": genus(spec),
        "num_forms": len(forms),
        "forms": [list(f.alpha) for f in forms],
        "num_generators": len(gens),
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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_config(args: argparse.Namespace) -> QuadConfig:
    """QuadConfig from the flags, whose defaults are QuadConfig's.  Without
    --max-level the cap is the default cap, or one above --level when that
    is higher: refinement accepts a value only when two levels agree."""
    max_level = args.max_level
    if max_level is None:
        max_level = max(QuadConfig.max_level, args.level + 1)
    return QuadConfig(level=args.level, rel_tol=args.tol, max_level=max_level)


def cmd_info(args: argparse.Namespace) -> int:
    spec = validate_spec(args.k, args.n, args.lambdas)
    payload = info_payload(spec, args.include_powers)
    if args.fmt == "csv":
        lines = [f"{key},{_csv_cell(_json_dump(val))}" for key, val in payload.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump(payload) + "\n", args.out)
    return 0


def cmd_periods(args: argparse.Namespace) -> int:
    spec = validate_spec(args.k, args.n, args.lambdas)
    pm = assemble(spec, _quad_config(args), include_powers=args.include_powers)
    text = periods_to_csv(pm) if args.fmt == "csv" else periods_to_json(pm)
    _emit(text, args.out)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    spec = validate_spec(args.k, args.n, args.lambdas)
    pm = assemble(spec, _quad_config(args), include_powers=args.include_powers)
    result = extract_basis(real_split(pm), spec)
    payload = basis_payload(spec, result)
    text = basis_to_csv(payload) if args.fmt == "csv" else _json_dump(payload) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = validate_spec(args.k, args.n, args.lambdas)
    report = crosscheck_report(spec, _quad_config(args), seed=args.seed)
    payload = report_payload(report)
    _emit(_json_dump(payload) + "\n", args.out)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in [
        ("info", cmd_info, "genus, form list, and generator counts"),
        ("periods", cmd_periods, "compute the period matrix"),
        ("basis", cmd_basis, "extract an integer lattice basis"),
        ("verify", cmd_verify, "run the oracle cross-check report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("-k", type=int, required=True, help="cover degree (>= 2)")
        p.add_argument("-n", type=int, required=True, help="curve rank (>= 2)")
        p.add_argument(
            "-l",
            "--lambda",
            dest="lambdas",
            action="append",
            default=[],
            metavar="VALUE",
            help="branch value; 'a+bi' or 'a,b'; repeat for each of the n-2 values",
        )
        p.add_argument(
            "--tol",
            type=float,
            default=QuadConfig.rel_tol,
            help="quadrature relative tolerance",
        )
        p.add_argument(
            "--level", type=int, default=QuadConfig.level, help="tanh-sinh starting level"
        )
        p.add_argument(
            "--max-level",
            dest="max_level",
            type=int,
            default=None,
            help="tanh-sinh refinement cap before NoConvergence",
        )
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="verify sampler seed")
        p.add_argument(
            "--include-powers",
            action="store_true",
            help="include the power words (zero rows) among the generators",
        )
    return parser


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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_lambda_values(argv))
    try:
        args.lambdas = [parse_complex(v) for v in args.lambdas]
    except ValueError as err:
        print(f"error: cannot parse lambda value: {err}", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except (NotFullRank, ReconstructionFailed) as err:
        print(f"error: lattice extraction failed: {err}", file=sys.stderr)
        return 4
    except NoConvergence as err:
        print(f"error: quadrature did not converge: {err}", file=sys.stderr)
        return 3
    except (StepTooCoarse, ClearanceUnachievable) as err:
        print(f"error: branch continuation failed: {err}", file=sys.stderr)
        return 3
    except GfcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
