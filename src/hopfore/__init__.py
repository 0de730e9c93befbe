"""Exact representation theory of Hopf-Ore extensions of group algebras.

The package constructs the extension data (group simples, the character
chi, the central element), builds explicit indecomposable modules, and
decomposes tensor products two independent ways: closed combinatorial
rules on labels, and matrix-level isotypic/Jordan analysis.  On top of
that sit the Green ring and Grothendieck ring with exact integer
arithmetic and verified generator presentations for the dihedral family.

Everything is exact: scalars live in cyclotomic fields over the
rationals, and all decompositions are integer multisets.
"""

from .cyclotomic import Cyclotomic, Rational
from .decompose import DecompResult, decompose, isotypic_multiplicities
from .errors import HopfOreError
from .fusion import comp_factors, tensor_labels
from .greenring import (
    GREEN, GROTH, RingElement, eval_expr, format_element, green_basis,
    groth_basis, groth_to_x2_basis, groth_to_x_basis, ring_mul, to_groth, unit,
    verify_presentation,
)
from .grid import build_module, grid_labels, run_grid
from .groups import (
    AlgebraData, GroupData, SimpleRep, algebra_from_descriptor,
    custom_algebra, dihedral_algebra,
)
from .labels import (
    EIG, FREE, NIL, TORSION, IndecLabel, SimpleLabel, canonical_simple,
    canonicalize, label_dim, multiset_dim,
)
from .linalg import Matrix
from .modules import ExplicitModule, module_eigen, module_nilpotent, tensor, validate
from .syntax import format_label, format_multiset, parse_cyclotomic, parse_label

__version__ = "0.1.0"

__all__ = [
    "AlgebraData", "Cyclotomic", "DecompResult", "EIG", "ExplicitModule",
    "FREE", "GREEN", "GROTH", "GroupData", "HopfOreError", "IndecLabel",
    "Matrix", "NIL", "Rational", "RingElement", "SimpleLabel", "SimpleRep",
    "TORSION", "algebra_from_descriptor", "build_module", "canonical_simple",
    "canonicalize", "comp_factors", "custom_algebra", "decompose",
    "dihedral_algebra", "eval_expr", "format_element", "format_label",
    "format_multiset", "green_basis", "grid_labels", "groth_basis",
    "groth_to_x2_basis", "groth_to_x_basis", "isotypic_multiplicities",
    "label_dim", "module_eigen", "module_nilpotent", "multiset_dim",
    "parse_cyclotomic", "parse_label", "ring_mul", "run_grid", "tensor",
    "tensor_labels", "to_groth", "unit", "validate", "verify_presentation",
]
