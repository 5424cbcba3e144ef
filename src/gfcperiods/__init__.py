"""Period lattices of generalized Fermat curves.

Pipeline: validate the curve (curve), enumerate homology generators
(homology), evaluate the multivalued integrand along branch-tracked paths
(contour) with endpoint-singular quadrature (quad), assemble the period
matrix from the closed-form entries (periods), and extract an integer
lattice basis (lattice).  Independent numerical oracles live in oracle;
the cli module exposes everything as subcommands.

Importing the package loads none of these modules.  Each public name is
looked up in its module on first access (PEP 562), and every access returns
that module's current attribute, so `import gfcperiods.cli` pays for numpy
only when a subcommand that needs it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "curve": ("CurveSpec", "FormIndex", "enumerate_forms", "genus", "validate_spec"),
    "homology": ("ConjComm", "Power", "conjugation_phase", "enumerate_generators", "expand"),
    "contour": ("BranchState", "default_base_point", "init_branch"),
    "quad": ("QuadConfig", "tanh_sinh"),
    "periods": ("PeriodMatrix", "assemble", "base_integrals", "period_entry"),
    "lattice": ("LatticeBasis", "extract_basis", "lattice_rank", "real_split"),
    "oracle": (
        "CrosscheckReport",
        "WordIntegrator",
        "agm_elliptic_periods",
        "beta_closed_form",
        "crosscheck_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that importing the package used to load, still reachable
# as attributes of a bare `import gfcperiods`
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

# tanh_sinh is a package attribute but, as before, not bound by `import *`
__all__ = sorted(_HOME.keys() - {"tanh_sinh"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
