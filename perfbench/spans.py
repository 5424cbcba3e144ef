"""Span tracing of the package's modules, from outside the package.

`Tracer.install()` replaces module attributes with wrappers that record a
span (name, start, end, parent, operation id) around each call; every
alias made by `from .x import f` inside the package is replaced too.  A
hook whose target no longer exists is recorded as absent and the run goes
on.  `uninstall()` puts the originals back.

Spans stay in memory until `write()`; `metrics()` reduces them to the
per-layer figures.  A module's self time is its span time minus the time
its child spans cover.  Hot inner functions such as `period_entry` are not
wrapped, so their time shows as the self time of their caller.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict

PKG = "gfcperiods"
MODULES = ("cli", "curve", "homology", "contour", "quad", "periods", "lattice", "oracle")
# Layer each hooked module reports under.
LAYER = {"homology": "curve"}

# (module, attribute path, span name).  Spans with the same name add up.
HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "periods_to_json", "cli.serialise"),
    ("cli", "periods_to_csv", "cli.serialise"),
    ("cli", "_json_dump", "cli.serialise"),
    ("curve", "validate_spec", "curve.validate_spec"),
    ("curve", "enumerate_forms", "curve.enumerate_forms"),
    ("homology", "enumerate_generators", "curve.enumerate_generators"),
    ("homology", "expand", "curve.expand"),
    ("contour", "continued_logs_param", "contour.walk"),
    ("contour", "segment_logs", "contour.segment_logs"),
    ("contour", "clear_leg", "contour.clear_leg"),
    ("contour", "loop_path", "contour.loop_path"),
    ("quad", "RadialLegIntegrator.integrate", "quad.ts"),
    ("quad", "RadialLegIntegrator.level_value", "quad.ts_level"),
    ("quad", "integrate_smooth", "quad.gl"),
    ("quad", "_gl_segment", "quad.gl_segment"),
    ("periods", "base_integrals", "periods.base_integrals"),
    ("periods", "assemble", "periods.assemble"),
    ("lattice", "real_split", "lattice.real_split"),
    ("lattice", "lattice_rank", "lattice.rank"),
    ("lattice", "scipy.linalg.qr", "lattice.qr"),
    ("lattice", "extract_basis", "lattice.extract_basis"),
    ("lattice", "_hnf_with_transform", "lattice.hnf"),
    ("lattice", "_solve_int_right", "lattice.backsolve"),
    ("oracle", "crosscheck_report", "oracle.crosscheck"),
    ("oracle", "WordIntegrator.integrate_word", "oracle.word"),
    ("oracle", "agm_elliptic_periods", "oracle.agm"),
)

# Per-layer metrics: name -> unit.  Times and counts are per pass.
METRICS = {
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "cli.self_s": "s",
    "curve.self_s": "s",
    "contour.self_s": "s",
    "quad.self_s": "s",
    "periods.self_s": "s",
    "lattice.self_s": "s",
    "oracle.self_s": "s",
    "contour.walk_s": "s",
    "contour.walk_calls": "count",
    "contour.walk_points": "count",
    "contour.walk_doublings": "count",
    "quad.ts_s": "s",
    "quad.ts_integrals": "count",
    "quad.ts_levels": "levels",
    "quad.ts_nodes": "count",
    "quad.ts_useful": "ratio",
    "quad.gl_s": "s",
    "quad.gl_panels": "count",
    "quad.gl_useful": "ratio",
    "periods.base_integrals_s": "s",
    "periods.base_integrals_calls": "count",
    "periods.assemble_self_s": "s",
    "periods.entries": "count",
    "lattice.rank_s": "s",
    "lattice.qr_s": "s",
    "lattice.rational_s": "s",
    "lattice.hnf_s": "s",
    "lattice.backsolve_s": "s",
    "lattice.coeff_bits": "bits",
    "lattice.residual": "abs",
    "oracle.crosscheck_s": "s",
    "oracle.word_s": "s",
    "oracle.words": "count",
    "oracle.loop_integrals": "count",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.call_s": "s",
    "cli.serialise_s": "s",
    "cli.bytes_out": "bytes",
}

# Span totals behind the time metrics: metric -> (span name, self time?).
_SPAN_TIMES = {
    "contour.walk_s": ("contour.walk", False),
    "quad.ts_s": ("quad.ts", False),
    "quad.gl_s": ("quad.gl", False),
    "periods.base_integrals_s": ("periods.base_integrals", False),
    "periods.assemble_self_s": ("periods.assemble", True),
    "lattice.rank_s": ("lattice.rank", False),
    "lattice.qr_s": ("lattice.qr", False),
    "lattice.rational_s": ("lattice.extract_basis", True),
    "lattice.hnf_s": ("lattice.hnf", False),
    "lattice.backsolve_s": ("lattice.backsolve", False),
    "oracle.crosscheck_s": ("oracle.crosscheck", False),
    "oracle.word_s": ("oracle.word", False),
    "cli.serialise_s": ("cli.serialise", False),
}
# Hooks each metric needs; the metric is absent when one of them is missing.
_NEEDS = {
    "contour.walk_s": ("contour.continued_logs_param",),
    "contour.walk_calls": ("contour.continued_logs_param",),
    "contour.walk_points": ("contour.continued_logs_param",),
    "contour.walk_doublings": ("contour.continued_logs_param",),
    "quad.ts_s": ("quad.RadialLegIntegrator.integrate",),
    "quad.ts_integrals": ("quad.RadialLegIntegrator.integrate",),
    "quad.ts_levels": ("quad.RadialLegIntegrator.integrate",
                       "quad.RadialLegIntegrator.level_value"),
    "quad.ts_nodes": ("quad.RadialLegIntegrator.level_value", "quad._de_nodes"),
    "quad.ts_useful": ("quad.RadialLegIntegrator.integrate",
                       "quad.RadialLegIntegrator.level_value", "quad._de_nodes"),
    "quad.gl_s": ("quad.integrate_smooth",),
    "quad.gl_panels": ("contour.segment_logs", "quad._GL_ORDER"),
    "quad.gl_useful": ("contour.segment_logs", "quad._gl_segment", "quad._GL_ORDER"),
    "periods.base_integrals_s": ("periods.base_integrals",),
    "periods.base_integrals_calls": ("periods.base_integrals",),
    "periods.assemble_self_s": ("periods.assemble",),
    "periods.entries": ("periods.assemble",),
    "lattice.rank_s": ("lattice.lattice_rank",),
    "lattice.qr_s": ("lattice.scipy.linalg.qr",),
    "lattice.rational_s": ("lattice.extract_basis",),
    "lattice.hnf_s": ("lattice._hnf_with_transform",),
    "lattice.backsolve_s": ("lattice._solve_int_right",),
    "lattice.coeff_bits": ("lattice.extract_basis",),
    "lattice.residual": ("lattice.extract_basis",),
    "oracle.crosscheck_s": ("oracle.crosscheck_report",),
    "oracle.word_s": ("oracle.WordIntegrator.integrate_word",),
    "oracle.words": ("oracle.WordIntegrator.integrate_word",),
    "oracle.loop_integrals": ("quad.integrate_smooth", "oracle.WordIntegrator.integrate_word"),
    "cli.serialise_s": ("cli.periods_to_json", "cli.periods_to_csv", "cli._json_dump"),
}


class _Forward:
    """Module stand-in that forwards every attribute but the replaced ones."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self.op_id = None
        self._stack: list[int] = []
        self._frames: list[dict] = []  # per-call counters of the open spans
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        frame = {"name": name}
        self._frames.append(frame)
        return frame

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._frames.pop()

    def _inside(self, name) -> bool:
        return any(f["name"] == name for f in self._frames)

    def _wrap(self, name, fn, after=None, before=None, recursive_holder=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            if before is not None:
                args = before(args, frame)
            if recursive_holder is not None:
                owner, attr = recursive_holder
                setattr(owner, attr, fn)
            try:
                result = fn(*args, **kwargs)
            finally:
                if recursive_holder is not None:
                    setattr(owner, attr, wrapper)
                tracer._close()
            if after is not None:
                after(args, result, frame)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-hook counters -------------------------------------------------

    def _walk_before(self, args, frame):
        diff_fn = args[0]
        calls = frame["calls"] = []

        def counted(params):
            calls.append(len(params))
            return diff_fn(params)

        return (counted,) + tuple(args[1:])

    def _walk_after(self, args, result, frame):
        calls = frame["calls"]
        self.counts["contour.walk_calls"] += 1
        self.counts["contour.walk_points"] += calls[-1] if calls else 0
        self.counts["contour.walk_doublings"] += max(0, len(calls) - 1)

    def _level_after(self, args, result, frame):
        nodes = self._nodes(args[2]) if self._nodes else 0
        self.counts["quad.ts_nodes"] += nodes
        for f in reversed(self._frames):
            if f["name"] == "quad.ts":
                f.setdefault("levels", []).append(nodes)
                break

    def _ts_after(self, args, result, frame):
        levels = frame.get("levels", [])
        self.counts["quad.ts_integrals"] += 1
        self.counts["quad.ts_levels"] += len(levels)
        self.counts["quad.ts_useful_nodes"] += levels[-1] if levels else 0

    def _segment_logs_after(self, args, result, frame):
        panels = (len(args[1]) - 2) / (self._gl_order or 1)
        self.counts["quad.gl_panels"] += panels
        for f in reversed(self._frames):
            if f["name"] == "quad.gl_segment":
                f["panels"] = panels
                break

    def _gl_segment_after(self, args, result, frame):
        self.counts["quad.gl_useful_panels"] += frame.get("panels", 0)

    def _gl_after(self, args, result, frame):
        if self._inside("oracle.word"):
            self.counts["oracle.loop_integrals"] += 1

    def _count(self, key):
        def after(args, result, frame):
            self.counts[key] += 1

        return after

    def _assemble_after(self, args, result, frame):
        self.counts["periods.entries"] += result.entries.size

    def _basis_after(self, args, result, frame):
        big = 0
        for arr in (result.coefficients, result.from_generators):
            if arr.size:
                big = max(big, int(abs(arr).max()))
        self.counts["lattice.coeff_bits"] = max(
            self.counts["lattice.coeff_bits"], big.bit_length()
        )
        self.counts["lattice.residual"] = max(
            self.counts["lattice.residual"], float(result.residual)
        )

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PKG}.{m}") for m in MODULES}
        quad = mods["quad"]
        self._nodes = None
        if hasattr(quad, "_de_nodes"):
            self._nodes = lambda level: quad._de_nodes(level)[0].size
        else:
            self.absent["quad._de_nodes"] = "no node table to count tanh-sinh nodes"
        self._gl_order = getattr(quad, "_GL_ORDER", None)
        if self._gl_order is None:
            self.absent["quad._GL_ORDER"] = "no Gauss-Legendre order to count panels"
        hooks_extra = {
            "contour.walk": dict(before=self._walk_before, after=self._walk_after),
            "quad.ts_level": dict(after=self._level_after),
            "quad.ts": dict(after=self._ts_after),
            "contour.segment_logs": dict(after=self._segment_logs_after),
            "quad.gl_segment": dict(after=self._gl_segment_after),
            "quad.gl": dict(after=self._gl_after),
            "periods.base_integrals": dict(after=self._count("periods.base_integrals_calls")),
            "periods.assemble": dict(after=self._assemble_after),
            "lattice.extract_basis": dict(after=self._basis_after),
            "oracle.word": dict(after=self._count("oracle.words")),
        }
        for mod_name, path, name in HOOKS:
            owner = mods[mod_name]
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                orig = getattr(owner, attr)
            except AttributeError:
                self.absent[f"{mod_name}.{path}"] = f"{PKG}.{mod_name}.{path} does not exist"
                continue
            extra = dict(hooks_extra.get(name, {}))
            if path == "_json_dump":
                # Recursive: the outer call is traced, its recursion is not.
                extra["recursive_holder"] = (owner, attr)
            wrapper = self._wrap(name, orig, **extra)
            if parents and isinstance(owner, types.ModuleType):
                # A function of another package used by this module: give the
                # module a stand-in so only its own calls are traced.
                self._replace(mods[mod_name], parents[0], _stand_in(
                    getattr(mods[mod_name], parents[0]), parents[1:], attr, wrapper))
            elif parents:
                self._replace(owner, attr, wrapper)
            else:
                for mod in list(mods.values()) + [importlib.import_module(PKG)]:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._replace(mod, key, wrapper)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def totals(self) -> dict[str, float]:
        """Time per span name, counting nested spans of one name once."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += end - start
        return out

    def metrics(self, passes: int, traced_pass_s: float, untraced_pass_s: float):
        """Per-layer figures per pass, plus {metric: reason} for absent ones."""
        own = self.self_times()
        tot = self.totals()
        values = {m: 0.0 for m in METRICS}
        for name, t in own.items():
            layer = name.split(".")[0]
            layer = LAYER.get(layer, layer)
            values[f"{layer}.self_s"] += t / passes
        for metric, (span, self_only) in _SPAN_TIMES.items():
            values[metric] = (own if self_only else tot).get(span, 0.0) / passes
        for key in (
            "contour.walk_calls",
            "contour.walk_points",
            "contour.walk_doublings",
            "quad.ts_integrals",
            "quad.ts_nodes",
            "quad.gl_panels",
            "periods.base_integrals_calls",
            "periods.entries",
            "oracle.words",
            "oracle.loop_integrals",
        ):
            values[key] = self.counts[key] / passes
        c = self.counts
        values["quad.ts_levels"] = c["quad.ts_levels"] / max(1, c["quad.ts_integrals"])
        values["quad.ts_useful"] = c["quad.ts_useful_nodes"] / max(1, c["quad.ts_nodes"])
        values["quad.gl_useful"] = c["quad.gl_useful_panels"] / max(1, c["quad.gl_panels"])
        values["lattice.coeff_bits"] = c["lattice.coeff_bits"]
        values["lattice.residual"] = c["lattice.residual"]
        values["trace.pass_s"] = traced_pass_s
        values["trace.untraced_pass_s"] = untraced_pass_s
        values["trace.overhead_s"] = traced_pass_s - untraced_pass_s
        values["trace.coverage"] = sum(own.values()) / passes / traced_pass_s
        absent = {
            m: "; ".join(self.absent[h] for h in hooks if h in self.absent)
            for m, hooks in _NEEDS.items()
            if any(h in self.absent for h in hooks)
        }
        return values, absent

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _stand_in(module, inner, attr, wrapper):
    """`module` with module.<inner...>.<attr> replaced by wrapper."""
    if not inner:
        return _Forward(module, **{attr: wrapper})
    head, *rest = inner
    return _Forward(module, **{head: _stand_in(getattr(module, head), rest, attr, wrapper)})
