"""Exact semi-invariants of binary forms and unimodality verification.

Everything in this package is exact integer arithmetic: Gaussian
coefficients and their difference families, partition counting in a box,
the lowering-operator kernel (semi-invariant bases) via fraction-free
sparse elimination, and the witness constructions and grid verifiers
built on top.  Fractions appear only in ``SIPoly.evaluate`` and
``shear_check``, which evaluate a semi-invariant at rational points;
``fractions`` is imported on their first use.
"""

from .boxpartitions import (
    count_partitions_in_box,
    delta,
    enumerate_partitions_in_box,
)
from .cache import kernel_basis_cached
from .cayley import (
    KernelBasis,
    SparseIntMatrix,
    SylvesterMismatchError,
    apply_D,
    build_D_matrix,
    kernel_basis,
    semiinvariant_dim,
    shear_check,
    shear_coefficients,
    sylvester_grid_mismatches,
)
from .differences import (
    F,
    G,
    ScanReport,
    VerificationError,
    bergeron,
    coefficients_digest,
    scan_bergeron,
    scan_conjecture_F_strict,
    scan_strange,
    stanley_zanello,
    strange,
    verify_theorem_F,
    verify_theorem_G,
    write_csv,
    write_jsonl,
)
from .monomials import SIPoly
from .qpoly import (
    NonnegativityViolation,
    QPoly,
    first_negative_index,
    gauss,
    is_strictly_unimodal_except_ends,
    is_symmetric,
    is_unimodal,
    strictness_break,
    symmetry_break,
    unimodality_break,
)
from .witnesses import (
    DependenceError,
    base_grid_deltas,
    independence_check,
    lemma_combine,
    nr8_witnesses,
    strict_witnesses,
    triangulate,
)

__version__ = "0.1.0"

__all__ = [
    "DependenceError",
    "F",
    "G",
    "KernelBasis",
    "NonnegativityViolation",
    "QPoly",
    "SIPoly",
    "ScanReport",
    "SparseIntMatrix",
    "SylvesterMismatchError",
    "VerificationError",
    "apply_D",
    "base_grid_deltas",
    "bergeron",
    "build_D_matrix",
    "coefficients_digest",
    "count_partitions_in_box",
    "delta",
    "enumerate_partitions_in_box",
    "first_negative_index",
    "gauss",
    "independence_check",
    "is_strictly_unimodal_except_ends",
    "is_symmetric",
    "is_unimodal",
    "kernel_basis",
    "kernel_basis_cached",
    "lemma_combine",
    "nr8_witnesses",
    "scan_bergeron",
    "scan_conjecture_F_strict",
    "scan_strange",
    "semiinvariant_dim",
    "shear_check",
    "shear_coefficients",
    "stanley_zanello",
    "strange",
    "strict_witnesses",
    "strictness_break",
    "sylvester_grid_mismatches",
    "symmetry_break",
    "triangulate",
    "unimodality_break",
    "verify_theorem_F",
    "verify_theorem_G",
    "write_csv",
    "write_jsonl",
]
