"""Period lattices of generalized Fermat curves.

Pipeline: validate the curve (curve), enumerate homology generators
(homology), evaluate the multivalued integrand along branch-tracked paths
(contour) with endpoint-singular quadrature (quad), assemble the period
matrix from the closed-form entries (periods), and extract an integer
lattice basis (lattice).  Independent numerical oracles live in oracle;
the cli module exposes everything as subcommands.
"""

from .curve import CurveSpec, FormIndex, enumerate_forms, genus, m_exponents, validate_spec
from .homology import ConjComm, LetterSequence, Power, conjugation_phase, enumerate_generators, expand
from .contour import BranchState, Path, default_base_point, init_branch, loop_path
from .quad import QuadConfig, integrate_smooth, tanh_sinh
from .periods import PeriodMatrix, assemble, base_integrals, period_entry
from .lattice import LatticeBasis, extract_basis, lattice_rank, real_split
from .oracle import (
    CrosscheckReport,
    WordIntegrator,
    agm_elliptic_periods,
    beta_closed_form,
    crosscheck_report,
)

__version__ = "0.1.0"

__all__ = [
    "BranchState",
    "ConjComm",
    "CrosscheckReport",
    "CurveSpec",
    "FormIndex",
    "LatticeBasis",
    "LetterSequence",
    "Path",
    "PeriodMatrix",
    "Power",
    "QuadConfig",
    "WordIntegrator",
    "agm_elliptic_periods",
    "assemble",
    "base_integrals",
    "beta_closed_form",
    "conjugation_phase",
    "crosscheck_report",
    "default_base_point",
    "enumerate_forms",
    "enumerate_generators",
    "expand",
    "extract_basis",
    "genus",
    "init_branch",
    "integrate_smooth",
    "lattice_rank",
    "loop_path",
    "m_exponents",
    "period_entry",
    "real_split",
    "validate_spec",
]
