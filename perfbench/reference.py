"""High-precision reference for the base integrals J.

J[i, c] is the integral of W dw for form c from the package's base point
to branch point r_i, along the package's own legs (`default_base_point`,
`init_branch`, `clear_leg`).  The values here come from `mpmath.quad` at
30 digits and share no quadrature or branch-tracking code with the
package:

* on each straight piece a -> b every factor is continued as its log at
  a plus the principal log of (w - r)/(a - r), which is exact because a
  straight segment cannot wind around a point;
* on the final piece the singular factor (w - r_i)**e is removed with the
  substitution v = u**(1/(1+e)), v the distance fraction to r_i, so the
  quadrature sees a smooth integrand.

Forms that share a leg and a singular exponent share quadrature nodes, so
the factor logs at each node are computed once per group.

`python3 perfbench/reference.py --seed 0` rebuilds the committed values
for seed 0; other seeds go to a local cache, and the benchmark runs this
script in a child process when its cache lacks a value.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp

import checks

DPS = 30
# Reference forms computed per curve for a seed without a committed reference.
SAMPLE_FORMS = 6
HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "ref"
LOCAL_CACHE = HERE / ".cache"
# Largest quadrature error estimate accepted for one reference integral.
_MAX_QUAD_ERR = mpmath.mpf("1e-24")


def _mpc(z: complex):
    return mpmath.mpc(z.real, z.imag)


def _exponents(alpha, k):
    """Log-linear exponents of W for one form, exact at working precision."""
    e = [mpmath.mpf(alpha[0] + 1) / k - 1]
    e.extend(-mpmath.mpf(a) / k for a in alpha[1:])
    return e


class _Leg:
    """Straight pieces from the base point to r_i with their start logs."""

    def __init__(self, pieces, logs_at_starts, R, target):
        self.pieces = pieces
        self.logs = logs_at_starts
        self.R = R
        self.target = target

    def node_logs(self, piece, w, slots):
        a = self.pieces[piece][0]
        L, R = self.logs[piece], self.R
        return [L[t] + mpmath.log((w - R[t]) / (a - R[t])) for t in slots]


def _build_leg(contour, z0, R_float, i):
    """Pieces of leg i (1-based) and the continued logs at each piece start."""
    R = [_mpc(r) for r in R_float]
    z0m = _mpc(z0)
    logs = [mpmath.log(-z0m)] + [mpmath.log(z0m - r) for r in R[1:]]
    lines = contour.clear_leg(z0, complex(R_float[i - 1]), R_float, exclude={i - 1})
    pieces, starts = [], []
    for line in lines:
        a, b = _mpc(line.start), _mpc(line.end)
        pieces.append((a, b))
        starts.append(logs)
        if b != R[i - 1]:
            logs = [L + mpmath.log((b - r) / (a - r)) for L, r in zip(logs, R)]
    return _Leg(pieces, starts, R, i - 1)


def _splits(a, b, R, to_param=lambda s: s):
    """[0, ..., 1] split at the closest approach of each branch point that
    projects inside the segment a -> b, mapped by to_param."""
    d = b - a
    cuts = set()
    for r in R:
        s = mpmath.re((r - a) * mpmath.conj(d)) / abs(d) ** 2
        if 0 < s < 1:
            cuts.add(to_param(s))
    return [mpmath.mpf(0)] + sorted(cuts) + [mpmath.mpf(1)]


def _quad(f, points):
    value, err = mpmath.quad(f, points, error=True)
    if err > _MAX_QUAD_ERR * max(1, abs(value)):
        raise ArithmeticError(f"reference quadrature error estimate {err} too large")
    return value


def _leg_integrals(leg: _Leg, forms, k):
    """Integral of W along the whole leg for each form (alpha tuples)."""
    out = {}
    memo: dict = {}
    tgt = leg.target
    slots = range(len(leg.R))
    others = [t for t in slots if t != tgt]
    for alpha in forms:
        e = _exponents(alpha, k)
        total = mpmath.mpc(0)
        for p, (a, b) in enumerate(leg.pieces[:-1]):
            cache = memo.setdefault(("smooth", p), {})

            def smooth(s, a=a, b=b, cache=cache, p=p):
                logs = cache.get(s)
                if logs is None:
                    logs = cache[s] = leg.node_logs(p, a + s * (b - a), slots)
                return mpmath.exp(mpmath.fsum(et * L for et, L in zip(e, logs)))

            total += (b - a) * _quad(smooth, _splits(a, b, leg.R))
        last = len(leg.pieces) - 1
        a, r = leg.pieces[last]
        es = e[tgt]
        power = 1 / (1 + es)
        cache = memo.setdefault(("sing", es), {})

        def singular(u, a=a, r=r, cache=cache, power=power):
            logs = cache.get(u)
            if logs is None:
                w = r + u**power * (a - r)
                logs = cache[u] = leg.node_logs(last, w, others)
            return mpmath.exp(mpmath.fsum(e[t] * L for t, L in zip(others, logs)))

        scale = (r - a) * power * mpmath.exp(es * leg.logs[last][tgt])
        # s = 1 - v and v = u**power, so a cut at s sits at u = (1 - s)**(1 + es).
        points = _splits(a, r, leg.R, lambda s_: (1 - s_) ** (1 + es))
        total += scale * _quad(singular, sorted(points))
        out[alpha] = total
    return out


def compute(k, n, lambdas, forms):
    """Reference J for the given forms: {alpha: [J_1, ..., J_n]} as mpc."""
    from gfcperiods import contour

    R = (0j, 1 + 0j) + tuple(complex(v) for v in lambdas)
    z0 = contour.default_base_point(R)
    with mp.workdps(DPS):
        cols = {alpha: [None] * n for alpha in forms}
        for i in range(1, n + 1):
            leg = _build_leg(contour, z0, R, i)
            for alpha, value in _leg_integrals(leg, forms, k).items():
                cols[alpha][i - 1] = value
    return cols


def curve_key(k, n, lambdas) -> str:
    lam = ";".join(f"{complex(v).real!r},{complex(v).imag!r}" for v in lambdas)
    return f"{k},{n}|{lam}"


def encode(cols) -> dict:
    with mp.workdps(DPS):
        return {
            ".".join(map(str, alpha)): [
                [mpmath.nstr(v.real, DPS), mpmath.nstr(v.imag, DPS)] for v in vals
            ]
            for alpha, vals in cols.items()
        }


def decode(raw: dict):
    with mp.workdps(DPS):
        return {
            tuple(int(a) for a in key.split(".")): [
                mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)) for re, im in vals
            ]
            for key, vals in raw.items()
        }


class Store:
    """Reference values per curve: the committed seed-0 file, then the local
    cache of values computed for this seed; new values go to the latter."""

    def __init__(self, seed: int):
        self.path = COMMITTED / "seed0.json" if seed == 0 else LOCAL_CACHE / f"seed{seed}.json"
        self.data: dict[str, dict] = {}
        self.added: dict[str, dict] = {}
        for path in dict.fromkeys((COMMITTED / "seed0.json", self.path)):
            for key, raw in _load(path).items():
                self.data.setdefault(key, {}).update(raw)

    def missing(self, k, n, lambdas, forms):
        have = self.data.get(curve_key(k, n, lambdas), {})
        return [a for a in forms if ".".join(map(str, a)) not in have]

    def add(self, k, n, lambdas, cols):
        enc = encode(cols)
        key = curve_key(k, n, lambdas)
        self.data.setdefault(key, {}).update(enc)
        self.added.setdefault(key, {}).update(enc)

    def get(self, k, n, lambdas):
        return decode(self.data.get(curve_key(k, n, lambdas), {}))

    def save(self):
        if not self.added:
            return
        merged = _load(self.path)
        for key, raw in self.added.items():
            merged.setdefault(key, {}).update(raw)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True, indent=0) + "\n")
        tmp.replace(self.path)
        self.added = {}


def _load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def needed_forms(seed, k, n):
    """Forms whose reference J a run checks: every form where the seed-0 file
    covers the curve, else a seeded sample of SAMPLE_FORMS."""
    every = checks.forms(k, n)
    if seed == 0 or n == 2 or len(every) <= SAMPLE_FORMS:
        return every
    return sorted(random.Random(f"forms:{seed}:{k}:{n}").sample(every, SAMPLE_FORMS))


def main(argv=None) -> int:
    from workloads import WORKLOADS, all_curves, bench_env, import_package, reference_curves

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="only the curves this workload checks (default: all)")
    args = parser.parse_args(argv)
    bench_env()
    import_package()

    store = Store(args.seed)
    curves = (reference_curves(WORKLOADS[args.workload], args.seed) if args.workload
              else all_curves(args.seed))
    for k, n, lams in curves:
        todo = store.missing(k, n, lams, needed_forms(args.seed, k, n))
        if not todo:
            continue
        t = time.perf_counter()
        store.add(k, n, lams, compute(k, n, lams, todo))
        print(f"({k},{n}) {len(todo)} forms in {time.perf_counter() - t:.1f} s",
              file=sys.stderr, flush=True)
    store.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
